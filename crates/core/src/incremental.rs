//! Incremental re-hashing after local rewrites (paper §6.3).
//!
//! Compositionality means a node's e-summary depends only on its
//! children's e-summaries, so after replacing the subtree under a node
//! `v`, only `v`'s new subtree and the nodes on the path from `v` to the
//! root need recomputation — `O(min(h² + h·f, n log² n))` where `h` is the
//! depth of `v` and `f` the number of never-bound variables, per the
//! paper's analysis.
//!
//! The catch for a strict language: re-merging at an ancestor needs the
//! *sibling's* variable map, so every node must retain its map. Haskell
//! gets that for free from persistent `Data.Map`; here each node's map is
//! a [`persistent_map::PMap`] version, so retained versions share
//! structure and total memory stays O(n log n).
//!
//! The engine tracks [`RecomputeStats`] so benchmarks (and the paper's
//! §6.3 claims) can be checked quantitatively: rewriting a leaf of a
//! balanced tree recomputes O(log n) nodes, not O(n).

use crate::combine::{HashScheme, HashWord};
use crate::hashed::{NameHashCache, PosH};
use lambda_lang::arena::{ExprArena, ExprNode, NodeId};
use lambda_lang::symbol::Symbol;
use lambda_lang::visit::postorder;
use persistent_map::PMap;
use std::collections::HashMap;
use std::fmt;

/// Per-node cached state: everything needed to recompute a parent.
#[derive(Clone)]
struct NodeState<H: HashWord> {
    st_hash: H,
    st_size: u64,
    vm: PMap<Symbol, PosH<H>>,
    vm_xor: H,
    summary_hash: H,
}

/// Counters describing the work done by the last edit.
#[derive(Clone, Copy, Default, Debug, PartialEq, Eq)]
pub struct RecomputeStats {
    /// Nodes whose e-summary was recomputed (new subtree + path to root).
    pub nodes_recomputed: usize,
    /// Persistent-map operations performed.
    pub map_ops: u64,
    /// Length of the recomputed path from the edit site to the root.
    pub path_length: usize,
}

/// Result of one [`IncrementalHasher::replace_subtree`] edit.
#[derive(Clone, Copy, Debug)]
pub struct ReplaceOutcome {
    /// Work counters for this edit.
    pub stats: RecomputeStats,
    /// Root of the freshly spliced-in subtree (a live node usable as the
    /// target of a later edit).
    pub new_root: NodeId,
}

/// Errors from [`IncrementalHasher`] operations.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum IncrementalError {
    /// The node is not part of the currently live tree.
    NotInTree(NodeId),
}

impl fmt::Display for IncrementalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IncrementalError::NotInTree(n) => {
                write!(f, "node {n:?} is not part of the live tree")
            }
        }
    }
}

impl std::error::Error for IncrementalError {}

/// An expression under incremental alpha-hash maintenance.
///
/// # Examples
///
/// ```
/// use lambda_lang::{ExprArena, parse, uniquify};
/// use alpha_hash::combine::HashScheme;
/// use alpha_hash::incremental::IncrementalHasher;
///
/// let mut a = ExprArena::new();
/// let parsed = parse(&mut a, r"\v. (a + (v+7)) * (v+7)")?;
/// let (b, root) = uniquify(&a, parsed);
/// let scheme: HashScheme<u64> = HashScheme::default();
/// let mut inc = IncrementalHasher::new(b, root, scheme);
///
/// // Rewrite the left `v+7` into `v+8`: only the path to the root is
/// // recomputed, and the root hash changes.
/// let before = inc.root_hash();
/// let target = inc.find(|arena, n| {
///     arena.subtree_size(n) == 5 // an `add v 7` subtree
/// }).unwrap();
/// let mut patch = ExprArena::new();
/// let new_subtree = parse(&mut patch, "v + 8")?;
/// inc.replace_subtree(target, &patch, new_subtree).unwrap();
/// assert_ne!(inc.root_hash(), before);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct IncrementalHasher<H: HashWord> {
    arena: ExprArena,
    root: NodeId,
    scheme: HashScheme<H>,
    /// Name hashes of the symbols the engine has touched.
    names: NameHashCache,
    parent: HashMap<NodeId, NodeId>,
    state: HashMap<NodeId, NodeState<H>>,
    /// Work counters for the most recent edit.
    pub last_stats: RecomputeStats,
}

impl<H: HashWord> IncrementalHasher<H> {
    /// Builds the initial state in one O(n log² n) pass. Takes ownership
    /// of the arena: the engine owns the evolving program.
    ///
    /// # Panics
    ///
    /// Debug builds assert the unique-binder invariant (§2.2).
    pub fn new(arena: ExprArena, root: NodeId, scheme: HashScheme<H>) -> Self {
        debug_assert!(
            lambda_lang::uniquify::check_unique_binders(&arena, root).is_ok(),
            "incremental hashing requires distinct binders"
        );
        let mut engine = IncrementalHasher {
            arena,
            root,
            scheme,
            names: NameHashCache::new(),
            parent: HashMap::new(),
            state: HashMap::new(),
            last_stats: RecomputeStats::default(),
        };
        let mut stats = RecomputeStats::default();
        engine.compute_subtree(root, &mut stats);
        engine.parent = lambda_lang::visit::parent_map(&engine.arena, root);
        engine.last_stats = stats;
        engine
    }

    /// The current root node.
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// The arena holding the evolving program.
    pub fn arena(&self) -> &ExprArena {
        &self.arena
    }

    /// The alpha-hash of the whole program.
    pub fn root_hash(&self) -> H {
        self.state[&self.root].summary_hash
    }

    /// The alpha-hash of a live node.
    pub fn node_hash(&self, node: NodeId) -> Option<H> {
        self.state.get(&node).map(|s| s.summary_hash)
    }

    /// Number of live (tracked) nodes.
    pub fn live_nodes(&self) -> usize {
        self.state.len()
    }

    /// Finds the first live node (in post-order) satisfying a predicate —
    /// a convenience for tests and examples locating rewrite targets.
    pub fn find(&self, mut pred: impl FnMut(&ExprArena, NodeId) -> bool) -> Option<NodeId> {
        postorder(&self.arena, self.root)
            .into_iter()
            .find(|&n| pred(&self.arena, n))
    }

    /// Recomputes the e-summary state of one node from its children's
    /// cached state. Children must already be in `self.state`.
    fn compute_node(&mut self, n: NodeId, stats: &mut RecomputeStats) {
        let scheme = self.scheme;
        let state = match self.arena.node(n) {
            ExprNode::Var(s) => {
                let pos = PosH {
                    hash: scheme.pt_here(),
                    size: 1,
                };
                let nh = self.names.get(&self.arena, &self.scheme, s);
                let (vm, _) = PMap::new().insert(s, pos);
                stats.map_ops += 1;
                NodeState {
                    st_hash: scheme.s_var(),
                    st_size: 1,
                    vm,
                    vm_xor: scheme.entry(nh, pos.hash),
                    summary_hash: H::ZERO, // filled below
                }
            }
            ExprNode::Lit(l) => NodeState {
                st_hash: scheme.s_lit(l.kind_tag(), l.payload()),
                st_size: 1,
                vm: PMap::new(),
                vm_xor: H::ZERO,
                summary_hash: H::ZERO,
            },
            ExprNode::Lam(x, b) => {
                let body = self.state[&b].clone();
                let nh = self.names.get(&self.arena, &self.scheme, x);
                let (vm, x_pos) = body.vm.remove(&x);
                stats.map_ops += 1;
                let vm_xor = match x_pos {
                    Some(p) => body.vm_xor.xor(scheme.entry(nh, p.hash)),
                    None => body.vm_xor,
                };
                let size = 1 + body.st_size;
                NodeState {
                    st_hash: scheme.s_lam(size, x_pos.map(|p| p.hash), body.st_hash),
                    st_size: size,
                    vm,
                    vm_xor,
                    summary_hash: H::ZERO,
                }
            }
            ExprNode::App(f, a) => {
                let left = self.state[&f].clone();
                let right = self.state[&a].clone();
                let size = 1 + left.st_size + right.st_size;
                let (vm, vm_xor, left_bigger) = self.merge(size, &left, &right, stats);
                NodeState {
                    st_hash: scheme.s_app(size, left_bigger, left.st_hash, right.st_hash),
                    st_size: size,
                    vm,
                    vm_xor,
                    summary_hash: H::ZERO,
                }
            }
            ExprNode::Let(x, r, b) => {
                let rhs = self.state[&r].clone();
                let mut body = self.state[&b].clone();
                let nh = self.names.get(&self.arena, &self.scheme, x);
                let (body_vm, x_pos) = body.vm.remove(&x);
                stats.map_ops += 1;
                body.vm = body_vm;
                if let Some(p) = x_pos {
                    body.vm_xor = body.vm_xor.xor(scheme.entry(nh, p.hash));
                }
                let size = 1 + rhs.st_size + body.st_size;
                let (vm, vm_xor, rhs_bigger) = self.merge(size, &rhs, &body, stats);
                NodeState {
                    st_hash: scheme.s_let(
                        size,
                        rhs_bigger,
                        x_pos.map(|p| p.hash),
                        rhs.st_hash,
                        body.st_hash,
                    ),
                    st_size: size,
                    vm,
                    vm_xor,
                    summary_hash: H::ZERO,
                }
            }
        };
        let mut state = state;
        state.summary_hash = scheme.esummary(state.st_hash, state.vm_xor);
        stats.nodes_recomputed += 1;
        self.state.insert(n, state);
    }

    /// The §4.8 merge over persistent maps: clone the bigger version
    /// (O(1)) and fold in the smaller one's entries.
    fn merge(
        &mut self,
        tag: u64,
        left: &NodeState<H>,
        right: &NodeState<H>,
        stats: &mut RecomputeStats,
    ) -> (PMap<Symbol, PosH<H>>, H, bool) {
        let left_bigger = left.vm.len() >= right.vm.len();
        let (bigger, smaller) = if left_bigger {
            (left, right)
        } else {
            (right, left)
        };
        let mut vm = bigger.vm.clone();
        let mut xor = bigger.vm_xor;
        for (&sym, &small_pos) in smaller.vm.iter() {
            stats.map_ops += 1;
            let nh = self.names.get(&self.arena, &self.scheme, sym);
            let old = vm.get(&sym).copied();
            let new_size = 1 + old.map_or(0, |p| p.size) + small_pos.size;
            let new_pos = PosH {
                hash: self
                    .scheme
                    .pt_join(new_size, tag, old.map(|p| p.hash), small_pos.hash),
                size: new_size,
            };
            if let Some(old_pos) = old {
                xor = xor.xor(self.scheme.entry(nh, old_pos.hash));
            }
            xor = xor.xor(self.scheme.entry(nh, new_pos.hash));
            vm = vm.insert(sym, new_pos).0;
        }
        (vm, xor, left_bigger)
    }

    fn compute_subtree(&mut self, subtree_root: NodeId, stats: &mut RecomputeStats) {
        for n in postorder(&self.arena, subtree_root) {
            self.compute_node(n, stats);
        }
    }

    /// Replaces the subtree rooted at `target` with a copy of
    /// `src_root` from `src`, then re-hashes the new subtree and the path
    /// to the root. Returns the stats for this edit.
    ///
    /// The imported subtree's binders are freshened
    /// ([`lambda_lang::uniquify()`]-style) so the unique-binder invariant is
    /// preserved without caller effort; free variables keep their names
    /// and so capture whatever is in scope at `target` — the usual
    /// contract of a compiler rewrite.
    ///
    /// # Errors
    ///
    /// [`IncrementalError::NotInTree`] if `target` is not live.
    pub fn replace_subtree(
        &mut self,
        target: NodeId,
        src: &ExprArena,
        src_root: NodeId,
    ) -> Result<ReplaceOutcome, IncrementalError> {
        if !self.state.contains_key(&target) {
            return Err(IncrementalError::NotInTree(target));
        }
        let mut stats = RecomputeStats::default();

        // Read the splice point before dropping the old subtree's parent
        // entries (target's own entry is among them).
        let parent = self.parent.get(&target).copied();

        // Drop state of the outgoing subtree (it is about to become
        // unreachable garbage in the arena).
        for n in postorder(&self.arena, target) {
            self.state.remove(&n);
            self.parent.remove(&n);
        }

        // Import with freshened binders, then hash the new subtree.
        let new_root = lambda_lang::uniquify::uniquify_into(src, src_root, &mut self.arena);
        self.compute_subtree(new_root, &mut stats);
        for n in postorder(&self.arena, new_root) {
            for c in self.arena.node(n).children() {
                self.parent.insert(c, n);
            }
        }

        // Splice into the parent (or replace the root).
        match parent {
            None => {
                self.root = new_root;
            }
            Some(p) => {
                let patched = match self.arena.node(p) {
                    ExprNode::Lam(x, b) if b == target => ExprNode::Lam(x, new_root),
                    ExprNode::App(f, a) if f == target => ExprNode::App(new_root, a),
                    ExprNode::App(f, a) if a == target => ExprNode::App(f, new_root),
                    ExprNode::Let(x, r, b) if r == target => ExprNode::Let(x, new_root, b),
                    ExprNode::Let(x, r, b) if b == target => ExprNode::Let(x, r, new_root),
                    other => unreachable!("parent {p:?} does not point at target: {other:?}"),
                };
                self.arena.replace_node(p, patched);
                self.parent.insert(new_root, p);

                // Recompute the path to the root.
                let mut cursor = Some(p);
                while let Some(n) = cursor {
                    self.compute_node(n, &mut stats);
                    stats.path_length += 1;
                    cursor = self.parent.get(&n).copied();
                }
            }
        }

        self.last_stats = stats;
        Ok(ReplaceOutcome { stats, new_root })
    }

    /// Test/diagnostic helper: recomputes everything from scratch and
    /// asserts every live node's hash matches the incremental state.
    pub fn verify_against_scratch(&self) -> bool {
        let mut summariser = crate::hashed::HashedSummariser::new(&self.arena, &self.scheme);
        let fresh = summariser.summarise_all(&self.arena, self.root);
        let live = postorder(&self.arena, self.root);
        if live.len() != self.state.len() {
            return false;
        }
        live.into_iter().all(|n| fresh.get(n) == self.node_hash(n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lambda_lang::parse::parse;
    use lambda_lang::uniquify::uniquify;

    fn engine(src: &str) -> IncrementalHasher<u64> {
        let mut a = ExprArena::new();
        let parsed = parse(&mut a, src).unwrap();
        let (b, root) = uniquify(&a, parsed);
        IncrementalHasher::new(b, root, HashScheme::new(21))
    }

    fn patch(src: &str) -> (ExprArena, NodeId) {
        let mut a = ExprArena::new();
        let root = parse(&mut a, src).unwrap();
        (a, root)
    }

    #[test]
    fn initial_state_matches_scratch() {
        let inc = engine(r"\v. (a + (v+7)) * (v+7)");
        assert!(inc.verify_against_scratch());
    }

    #[test]
    fn edit_changes_root_hash_and_stays_consistent() {
        let mut inc = engine(r"\v. (a + (v+7)) * (v+7)");
        let before = inc.root_hash();
        let target = inc.find(|arena, n| arena.subtree_size(n) == 5).unwrap();
        let (p, proot) = patch("v + 8");
        inc.replace_subtree(target, &p, proot).unwrap();
        assert_ne!(inc.root_hash(), before);
        assert!(inc.verify_against_scratch());
    }

    #[test]
    fn alpha_equivalent_replacement_keeps_root_hash() {
        // Replacing v+7 with v+7 under a different bound variable name
        // cannot change any hash... here simpler: replace a lambda with an
        // alpha-equivalent one.
        let mut inc = engine(r"foo (\x. x+7) (\y. y+7)");
        let before = inc.root_hash();
        let target = inc
            .find(|arena, n| matches!(arena.node(n), ExprNode::Lam(_, _)))
            .unwrap();
        let (p, proot) = patch(r"\fresh_name. fresh_name + 7");
        inc.replace_subtree(target, &p, proot).unwrap();
        assert_eq!(inc.root_hash(), before);
        assert!(inc.verify_against_scratch());
    }

    #[test]
    fn leaf_edit_in_balanced_tree_recomputes_logarithmically() {
        // Balanced closed tree: ~2^10 leaves.
        let mut a = ExprArena::new();
        let x = a.intern("x0");
        let leaf = a.var(x);
        let mut layer = vec![leaf; 1];
        // Build a complete binary tree of Apps, 12 levels, on distinct vars.
        let leaves: Vec<NodeId> = (0..1024).map(|i| a.var_named(&format!("v{i}"))).collect();
        layer = leaves;
        while layer.len() > 1 {
            layer = layer
                .chunks(2)
                .map(|pair| a.app(pair[0], pair[1]))
                .collect();
        }
        let root = layer[0];
        let mut inc: IncrementalHasher<u64> = IncrementalHasher::new(a, root, HashScheme::new(3));
        let n = inc.live_nodes();
        assert_eq!(n, 2047);

        // Replace one leaf.
        let target = inc
            .find(|arena, n| matches!(arena.node(n), ExprNode::Var(_)))
            .unwrap();
        let (p, proot) = patch("replacement_leaf");
        let outcome = inc.replace_subtree(target, &p, proot).unwrap();
        assert!(inc.verify_against_scratch());
        // Path to root is 10-11 nodes; recomputed must be way below n.
        assert!(
            outcome.stats.nodes_recomputed <= 16,
            "recomputed {} of {n} nodes",
            outcome.stats.nodes_recomputed
        );
        assert_eq!(outcome.stats.path_length, 10);
        assert!(inc.node_hash(outcome.new_root).is_some());
    }

    #[test]
    fn replacing_root_works() {
        let mut inc = engine("a + b");
        let root = inc.root();
        let (p, proot) = patch(r"\x. x");
        inc.replace_subtree(root, &p, proot).unwrap();
        assert!(inc.verify_against_scratch());
        assert_eq!(inc.live_nodes(), 2);
    }

    #[test]
    fn binder_freshening_preserves_uniqueness() {
        // The patch reuses binder name x that already exists in the tree.
        let mut inc = engine(r"(\x. x + 1) 5");
        let target = inc
            .find(|arena, n| matches!(arena.node(n), ExprNode::Lit(l) if l == lambda_lang::Literal::I64(5)))
            .unwrap();
        let (p, proot) = patch(r"(\x. x) 9");
        inc.replace_subtree(target, &p, proot).unwrap();
        assert!(lambda_lang::uniquify::check_unique_binders(inc.arena(), inc.root()).is_ok());
        assert!(inc.verify_against_scratch());
    }

    #[test]
    fn stale_node_is_rejected() {
        let mut inc = engine("a + (b + c)");
        let target = inc.find(|arena, n| arena.subtree_size(n) == 5).unwrap();
        let (p, proot) = patch("d");
        inc.replace_subtree(target, &p, proot).unwrap();
        // The old subtree's nodes are no longer live.
        let err = inc.replace_subtree(target, &p, proot).unwrap_err();
        assert_eq!(err, IncrementalError::NotInTree(target));
    }

    #[test]
    fn sequence_of_edits_stays_consistent() {
        let mut inc = engine(r"\f. f ((a + b) * (a + b)) (f 1 2)");
        for (i, patch_src) in ["x + y", "1 + 2 * 3", r"\q. q", "let t = 4 in t + t"]
            .iter()
            .enumerate()
        {
            let target = inc
                .find(|arena, n| arena.subtree_size(n) >= 3 + (i % 2))
                .unwrap();
            let (p, proot) = patch(patch_src);
            inc.replace_subtree(target, &p, proot).unwrap();
            assert!(inc.verify_against_scratch(), "inconsistent after edit {i}");
        }
    }

    #[test]
    fn free_variable_capture_is_by_name() {
        // Patch mentions `v`, which is bound in the host at the target
        // position: the new occurrence is captured (standard rewrite
        // semantics), reflected in the hash. Built directly (not through
        // `engine`, whose uniquify pass would rename the binder away from
        // the literal name `v`).
        let mut host = ExprArena::new();
        let v = host.intern("v");
        let occurrence = host.var(v);
        let one = host.int(1);
        let body = host.prim2("add", occurrence, one);
        let lam = host.lam(v, body);
        let mut inc: IncrementalHasher<u64> =
            IncrementalHasher::new(host, lam, HashScheme::new(21));
        let one = inc
            .find(|arena, n| matches!(arena.node(n), ExprNode::Lit(_)))
            .unwrap();
        let (p, proot) = patch("v");
        inc.replace_subtree(one, &p, proot).unwrap();
        assert!(inc.verify_against_scratch());
        // \v. v + v  ≡α  \w. w + w
        let mut other = ExprArena::new();
        let alt = parse(&mut other, r"\w. w + w").unwrap();
        let expected = crate::hashed::hash_expr(&other, alt, &HashScheme::<u64>::new(21));
        assert_eq!(inc.root_hash(), expected);
    }
}
