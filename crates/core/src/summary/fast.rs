//! Step 1, optimised version: the smaller-subtree merge with
//! `StructureTag`s (paper §4.8) — still fully invertible.
//!
//! The §4.6 algorithm transforms *every* entry of both children's maps at
//! each binary node. Here, only the **smaller** map's entries are touched:
//! each is joined into the bigger map wrapped in a [`PosNodeF::Join`]
//! carrying the parent structure's *tag*. Entries already in the bigger
//! map are left untouched. The tag lets [`FastSummariser::rebuild`] undo
//! the merge unambiguously: an entry belongs to this node's join iff its
//! top `Join` carries this structure's tag.
//!
//! We use the structure's **size** (constructor-call count) as the tag —
//! it satisfies §4.8's requirement that "a structure must have a different
//! tag to the tag of any of its sub-structures" because sizes strictly
//! increase upward, and it is exactly the Lemma 6.6 size salt the hashed
//! version needs anyway.
//!
//! Total map operations: O(n log n) (Lemma 6.1 — each node can be on the
//! smaller side only O(log n) times).
//!
//! This module has no traversal of its own: [`FastSummariser`] is a
//! [`SummarySink`] of the production pass ([`HashedSummariser`]), which
//! is this algorithm with structures and position trees replaced by their
//! hashes (§5.1). The sink interns what the pass's events describe, so
//! `rebuild` inverts the very merge decisions the store's hashes encode.

use crate::combine::HashScheme;
use crate::hashed::{HashedSummariser, PosH, StructH, SummarySink};
use crate::intern::NodeInterner;
use lambda_lang::arena::{ExprArena, ExprNode, NodeId};
use lambda_lang::literal::Literal;
use lambda_lang::symbol::{Interner, Symbol};
use std::collections::{BTreeMap, HashMap};

/// Interned id of a [`PosNodeF`].
pub type PosId = u32;
/// Interned id of a [`StructNodeF`].
pub type StructId = u32;
/// A structure tag (§4.8): here, the structure's size.
pub type StructureTag = u64;

/// Position trees for the optimised algorithm (§4.8).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum PosNodeF {
    /// The variable occurs exactly here.
    Here,
    /// A tagged join performed at the binary node whose structure has tag
    /// `tag`: `bigger` is what the bigger map previously held for this
    /// variable (if anything), `smaller` the entry folded in from the
    /// smaller map.
    Join {
        /// Tag of the structure at which the join happened.
        tag: StructureTag,
        /// Position tree from the bigger map, if the variable was present.
        bigger: Option<PosId>,
        /// Position tree from the smaller map.
        smaller: PosId,
    },
}

/// Structures for the optimised algorithm: like
/// [`crate::summary::reference::StructNode`] plus the `left_bigger` /
/// `rhs_bigger` flags recording which child's map was bigger (§4.8).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum StructNodeF {
    /// Anonymous variable.
    Var,
    /// Literal leaf.
    Lit(Literal),
    /// Lambda: binder occurrences (if any) + body.
    Lam(Option<PosId>, StructId),
    /// Application with merge-direction flag.
    App {
        /// True if the function child's variable map was the bigger one.
        left_bigger: bool,
        /// Function structure.
        fun: StructId,
        /// Argument structure.
        arg: StructId,
    },
    /// Let with merge-direction flag.
    Let {
        /// True if the rhs child's variable map was the bigger one.
        rhs_bigger: bool,
        /// Binder occurrences within the body (if any).
        pos: Option<PosId>,
        /// Rhs structure.
        rhs: StructId,
        /// Body structure.
        body: StructId,
    },
}

/// Free-variable map, keyed by the summariser's **own** name symbols:
/// dense `u32` ids interned from the variable's string name by the
/// [`FastSummariser`]'s local name table, so maps built from different
/// arenas stay comparable (equal names get equal local symbols) without
/// cloning `Rc<str>` keys around the hot loop.
pub type VarMapF = BTreeMap<Symbol, PosId>;

/// An invertible e-summary produced by the optimised algorithm.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ESummaryFast {
    /// The interned structure.
    pub structure: StructId,
    /// The free-variable map.
    pub varmap: VarMapF,
}

/// Summariser state for the §4.8 algorithm: interners plus per-structure
/// sizes (the tags).
#[derive(Clone, Debug, Default)]
pub struct FastSummariser {
    structs: NodeInterner<StructNodeF>,
    sizes: Vec<u64>,
    pos: NodeInterner<PosNodeF>,
    /// The summariser's own variable-name interner: [`VarMapF`] keys are
    /// symbols of *this* interner, not of any arena's, so summaries of
    /// terms from different arenas compare correctly.
    names: Interner,
    /// Total `alterVM`-style map operations performed at binary nodes; the
    /// quantity bounded by Lemma 6.1, exposed for the complexity tests.
    pub merge_ops: u64,
}

impl FastSummariser {
    /// Creates an empty summariser.
    pub fn new() -> Self {
        Self::default()
    }

    fn intern_struct(&mut self, node: StructNodeF, size: u64) -> StructId {
        let id = self.structs.intern(node);
        if id as usize == self.sizes.len() {
            self.sizes.push(size);
        }
        debug_assert_eq!(self.sizes[id as usize], size);
        id
    }

    /// `structureTag` (§4.8): the structure's size.
    pub fn structure_tag(&self, id: StructId) -> StructureTag {
        self.sizes[id as usize]
    }

    /// Summarises the subtree at `root` with the §4.8 algorithm: the
    /// production pass ([`HashedSummariser`]) walks the term and this
    /// summariser's sink builds the invertible summary from its events.
    pub fn summarise(&mut self, arena: &ExprArena, root: NodeId) -> ESummaryFast {
        self.run(arena, root, None).0
    }

    /// Per-subexpression summaries (see the caveats on
    /// [`crate::summary::reference::RefSummariser::summarise_all`]).
    pub fn summarise_all(
        &mut self,
        arena: &ExprArena,
        root: NodeId,
    ) -> HashMap<NodeId, ESummaryFast> {
        self.run(arena, root, Some(HashMap::new()))
            .1
            .unwrap_or_default()
    }

    fn run(
        &mut self,
        arena: &ExprArena,
        root: NodeId,
        all: Option<HashMap<NodeId, ESummaryFast>>,
    ) -> (ESummaryFast, Option<HashMap<NodeId, ESummaryFast>>) {
        let mut pass = HashedSummariser::<u64>::new(arena, &HashScheme::default());
        let mut sink = FastSink {
            fs: self,
            arena,
            stack: Vec::new(),
            binder: None,
            joins: Vec::new(),
            all,
        };
        pass.push_tree(arena, root, &mut sink);
        pass.finish_discard();
        let result = sink.stack.pop().expect("summarise produced a result");
        debug_assert!(sink.stack.is_empty());
        (result, sink.all)
    }

    /// Inverts the tagged merge at the node with tag `tag` (§4.8's
    /// `upd_big` and `upd_small`): its left and right child's maps, the
    /// left one being the bigger iff `left_bigger`.
    fn split_vm(&self, tag: StructureTag, left_bigger: bool, vm: &VarMapF) -> (VarMapF, VarMapF) {
        let mut big = VarMapF::new();
        let mut small = VarMapF::new();
        for (&name, &pos) in vm {
            match *self.pos.get(pos) {
                // Joined here: the smaller map's entry over what the
                // bigger map held, possibly nothing.
                PosNodeF::Join {
                    tag: ptag,
                    bigger,
                    smaller,
                } if ptag == tag => {
                    small.insert(name, smaller);
                    if let Some(b) = bigger {
                        big.insert(name, b);
                    }
                }
                // Untouched: the bigger map's entry as-is.
                _ => {
                    big.insert(name, pos);
                }
            }
        }
        if left_bigger {
            (big, small)
        } else {
            (small, big)
        }
    }

    /// Rebuilds an expression alpha-equivalent to the summarised one —
    /// the §4.8 version of `rebuild`, proving the tagged merge loses no
    /// information. (`&mut self` because fresh binder names are interned
    /// into the summariser's local name table.)
    pub fn rebuild(&mut self, summary: &ESummaryFast, dst: &mut ExprArena) -> NodeId {
        self.rebuild_rec(summary.structure, &summary.varmap, dst)
    }

    fn rebuild_rec(&mut self, structure: StructId, vm: &VarMapF, dst: &mut ExprArena) -> NodeId {
        let tag = self.structure_tag(structure);
        match *self.structs.get(structure) {
            StructNodeF::Var => {
                assert_eq!(
                    vm.len(),
                    1,
                    "malformed e-summary: Var with non-singleton map"
                );
                let (&name, &pos) = vm.iter().next().expect("singleton");
                assert_eq!(*self.pos.get(pos), PosNodeF::Here, "malformed e-summary");
                dst.var_named(self.names.resolve(name))
            }
            StructNodeF::Lit(l) => {
                assert!(vm.is_empty(), "malformed e-summary: literal with free vars");
                dst.lit(l)
            }
            StructNodeF::Lam(x_pos, body) => {
                let fresh = dst.fresh("x");
                let mut inner = vm.clone();
                if let Some(p) = x_pos {
                    inner.insert(self.names.intern(dst.name(fresh)), p);
                }
                let body_id = self.rebuild_rec(body, &inner, dst);
                dst.lam(fresh, body_id)
            }
            StructNodeF::App {
                left_bigger,
                fun,
                arg,
            } => {
                let (m1, m2) = self.split_vm(tag, left_bigger, vm);
                let f = self.rebuild_rec(fun, &m1, dst);
                let a = self.rebuild_rec(arg, &m2, dst);
                dst.app(f, a)
            }
            StructNodeF::Let {
                rhs_bigger,
                pos,
                rhs,
                body,
            } => {
                let (m_rhs, mut m_body) = self.split_vm(tag, rhs_bigger, vm);
                let fresh = dst.fresh("x");
                if let Some(p) = pos {
                    m_body.insert(self.names.intern(dst.name(fresh)), p);
                }
                let r = self.rebuild_rec(rhs, &m_rhs, dst);
                let b = self.rebuild_rec(body, &m_body, dst);
                dst.let_(fresh, r, b)
            }
        }
    }
}

/// The [`SummarySink`] behind [`FastSummariser`]: replays the hashed
/// pass's map events on `BTreeMap`s of interned position trees. Every
/// merge decision — which map is bigger, which entries join under which
/// tag — is the pass's; the sink only records it invertibly.
struct FastSink<'a> {
    fs: &'a mut FastSummariser,
    arena: &'a ExprArena,
    /// Summaries of the nodes awaiting their parent; a leaf's structure
    /// is set by its node event.
    stack: Vec<ESummaryFast>,
    /// What the last binder removed from its body's map, until the
    /// binder's node event.
    binder: Option<PosId>,
    /// The entries the pass joined at the binary node being summarised.
    joins: Vec<(Symbol, PosH<u64>)>,
    /// Every node's summary, when [`FastSummariser::summarise_all`] asks.
    all: Option<HashMap<NodeId, ESummaryFast>>,
}

impl FastSink<'_> {
    /// The summariser-local symbol for an arena symbol's name.
    fn local(&mut self, sym: Symbol) -> Symbol {
        self.fs.names.intern(self.arena.name(sym))
    }

    /// Closes a binary node with tag `tag`: §4.8's `add_kv` for each entry
    /// the pass joined (the smaller map's entry, wrapped in a `Join` over
    /// whatever the bigger map held), then pops the right child, leaving
    /// the merged map in the left child's slot. Returns the children's
    /// structures.
    fn merge_children(&mut self, tag: u64, left_bigger: bool) -> (StructId, StructId) {
        let [left, right] = self.stack.last_chunk_mut().expect("binary node children");
        let (bigger, smaller) = if left_bigger {
            (left, &*right)
        } else {
            (right, &*left)
        };
        for (sym, _joined) in self.joins.drain(..) {
            self.fs.merge_ops += 1;
            let name = self.fs.names.intern(self.arena.name(sym));
            let joined = self.fs.pos.intern(PosNodeF::Join {
                tag,
                bigger: bigger.varmap.get(&name).copied(),
                smaller: smaller.varmap[&name],
            });
            bigger.varmap.insert(name, joined);
        }
        let right = self.stack.pop().expect("right child summary");
        let left = self.stack.last_mut().expect("left child summary");
        if !left_bigger {
            left.varmap = right.varmap;
        }
        (left.structure, right.structure)
    }
}

impl SummarySink<u64> for FastSink<'_> {
    fn here(&mut self, sym: Symbol, _here: PosH<u64>) {
        let varmap = VarMapF::from([(self.local(sym), self.fs.pos.intern(PosNodeF::Here))]);
        self.stack.push(ESummaryFast {
            structure: 0,
            varmap,
        });
    }

    fn remove(&mut self, sym: Symbol, _pos: Option<PosH<u64>>) {
        let name = self.local(sym);
        let body = self.stack.last_mut().expect("binder body summary");
        self.binder = body.varmap.remove(&name);
    }

    fn joins(&mut self) -> Option<&mut Vec<(Symbol, PosH<u64>)>> {
        Some(&mut self.joins)
    }

    fn node(&mut self, n: NodeId, left_bigger: bool, structure: StructH<u64>, _hash: u64) {
        let size = structure.size;
        let node = match self.arena.node(n) {
            ExprNode::Var(_) => StructNodeF::Var,
            ExprNode::Lit(l) => {
                self.stack.push(ESummaryFast {
                    structure: 0,
                    varmap: VarMapF::new(),
                });
                StructNodeF::Lit(l)
            }
            ExprNode::Lam(_, _) => {
                let body = self.stack.last().expect("lam body summary").structure;
                StructNodeF::Lam(self.binder.take(), body)
            }
            ExprNode::App(_, _) => {
                let (fun, arg) = self.merge_children(size, left_bigger);
                StructNodeF::App {
                    left_bigger,
                    fun,
                    arg,
                }
            }
            ExprNode::Let(_, _, _) => {
                let (rhs, body) = self.merge_children(size, left_bigger);
                StructNodeF::Let {
                    rhs_bigger: left_bigger,
                    pos: self.binder.take(),
                    rhs,
                    body,
                }
            }
        };
        let top = self.stack.last_mut().expect("node summary");
        top.structure = self.fs.intern_struct(node, size);
        if let Some(all) = &mut self.all {
            all.insert(n, top.clone());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lambda_lang::alpha::alpha_eq;
    use lambda_lang::parse::parse;

    fn summarise_str(
        summariser: &mut FastSummariser,
        src: &str,
    ) -> (ExprArena, NodeId, ESummaryFast) {
        let mut a = ExprArena::new();
        let parsed = parse(&mut a, src).unwrap();
        let (b, root) = lambda_lang::uniquify::uniquify(&a, parsed);
        let summary = summariser.summarise(&b, root);
        (b, root, summary)
    }

    fn equal_summaries(s1: &str, s2: &str) -> bool {
        let mut summariser = FastSummariser::new();
        let (_, _, a) = summarise_str(&mut summariser, s1);
        let (_, _, b) = summarise_str(&mut summariser, s2);
        a == b
    }

    #[test]
    fn agrees_with_alpha_equivalence_on_paper_examples() {
        assert!(equal_summaries(r"\x. x + y", r"\p. p + y"));
        assert!(!equal_summaries(r"\x. x + y", r"\q. q + z"));
        assert!(equal_summaries(r"map (\y. y+1) vs", r"map (\x. x+1) vs"));
        assert!(equal_summaries(
            "let bar = x+1 in bar*y",
            "let p = x+1 in p*y"
        ));
        assert!(!equal_summaries(
            "let x = bar in x+2",
            "let x = pubx in x+2"
        ));
        assert!(!equal_summaries("add x y", "add x x"));
        assert!(!equal_summaries(r"\x. \y. x", r"\x. \y. y"));
    }

    #[test]
    fn tags_strictly_increase_upward() {
        let mut s = FastSummariser::new();
        let (_, _, summary) = summarise_str(&mut s, r"\x. (x + y) * (y + z)");
        // The root tag equals the expression size and exceeds all others.
        let root_tag = s.structure_tag(summary.structure);
        assert_eq!(root_tag, 14);
        for id in 0..s.structs.len() as u32 {
            if id != summary.structure {
                assert!(s.structure_tag(id) <= root_tag);
            }
        }
    }

    #[test]
    fn rebuild_round_trips_up_to_alpha() {
        for src in [
            "x",
            "42",
            r"\x. x",
            r"\x. x + y",
            r"\x. \y. x y (x + 1)",
            "let w = v + 7 in (a + w) * w",
            "foo (let bar = x+1 in bar*y) (let p = x+1 in p*y)",
            r"\t. foo (\x. x + t) (\y. \x. x + t)",
            r"\f. f (\x. f x)",
            "f x x",
            "f (g a b c) (h a) a",
            r"\a. \b. \c. a (b c) (c a b)",
        ] {
            let mut s = FastSummariser::new();
            let (arena, root, summary) = summarise_str(&mut s, src);
            let mut dst = ExprArena::new();
            let rebuilt = s.rebuild(&summary, &mut dst);
            assert!(
                alpha_eq(&arena, root, &dst, rebuilt),
                "rebuild not alpha-equivalent for {src}: got {}",
                lambda_lang::print::print(&dst, rebuilt)
            );
        }
    }

    #[test]
    fn matches_reference_summariser_classes() {
        use crate::summary::reference::RefSummariser;
        let sources = [
            r"\x. x + y",
            r"\p. p + y",
            r"\q. q + z",
            "x + 2",
            "y + 2",
            r"\x. x",
            r"\y. y",
            "let a = 1 in a + a",
            "let b = 1 in b + b",
            "f x x",
            "f x y",
        ];
        let mut fast = FastSummariser::new();
        let mut reference = RefSummariser::new();
        let mut fast_sums = Vec::new();
        let mut ref_sums = Vec::new();
        for src in sources {
            let mut a = ExprArena::new();
            let parsed = parse(&mut a, src).unwrap();
            let (b, root) = lambda_lang::uniquify::uniquify(&a, parsed);
            fast_sums.push(fast.summarise(&b, root));
            ref_sums.push(reference.summarise(&b, root));
        }
        for i in 0..sources.len() {
            for j in 0..sources.len() {
                assert_eq!(
                    fast_sums[i] == fast_sums[j],
                    ref_sums[i] == ref_sums[j],
                    "fast and reference disagree on {} vs {}",
                    sources[i],
                    sources[j]
                );
            }
        }
    }

    #[test]
    fn merge_ops_are_log_linear_on_balanced_input() {
        // A balanced expression over many distinct free variables: the
        // merge-op count must stay well under the quadratic count.
        let mut a = ExprArena::new();
        let leaves: Vec<NodeId> = (0..256).map(|i| a.var_named(&format!("v{i}"))).collect();
        let mut layer = leaves;
        while layer.len() > 1 {
            layer = layer
                .chunks(2)
                .map(|pair| {
                    if pair.len() == 2 {
                        a.app(pair[0], pair[1])
                    } else {
                        pair[0]
                    }
                })
                .collect();
        }
        let root = layer[0];
        let mut s = FastSummariser::new();
        let _ = s.summarise(&a, root);
        // n = 256 leaves: merges total 256·log2(256)/2 = 1024 ≤ ops bound,
        // vs ~255·128 ≈ 32k for the quadratic scheme.
        assert!(s.merge_ops <= 256 * 8, "merge_ops = {}", s.merge_ops);
        assert!(
            s.merge_ops >= 128,
            "merge_ops suspiciously low: {}",
            s.merge_ops
        );
    }

    #[test]
    fn unbalanced_spine_does_linear_merge_work() {
        // Left spine applying one shared variable: smaller side is always
        // the single-entry map, so total ops are O(n).
        let mut a = ExprArena::new();
        let mut e = a.var_named("f");
        for _ in 0..1000 {
            let v = a.var_named("x");
            e = a.app(e, v);
        }
        let mut s = FastSummariser::new();
        let _ = s.summarise(&a, e);
        assert!(s.merge_ops <= 2 * 1000, "merge_ops = {}", s.merge_ops);
    }

    #[test]
    fn deep_input_is_stack_safe() {
        let mut a = ExprArena::new();
        let mut e = a.var_named("z");
        for i in 0..100_000 {
            let x = a.intern(&format!("x{i}"));
            e = a.lam(x, e);
        }
        let mut s = FastSummariser::new();
        let summary = s.summarise(&a, e);
        assert_eq!(s.structure_tag(summary.structure), 100_001);
    }
}
