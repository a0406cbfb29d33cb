//! Fused single-pass ingest preparation: the alpha-hash **and** the
//! canonical form of a term, from one traversal — the only step of ingest
//! that depends on the store's [`Granularity`].
//!
//! The store used to prepare a term in two walks — `hash_expr` (post-order
//! summarisation) followed by `to_debruijn` (scoped conversion) — and each
//! walk rebuilt its scaffolding from scratch. [`Preparer`] fuses the two,
//! and one `Preparer` serves a whole batch, so its environment table, node
//! stacks, summariser scratch buffers and caches are all reused from term
//! to term.
//!
//! `Preparer::prepare` (crate-internal) is the one entry point. It returns
//! a `PreparedTerm` in both granularities: a root entry plus the indexed
//! subexpression entries, of which `Roots` mode has none. Everything below
//! it (the batch driver, the WAL framer, the shard sweeps, probes and
//! updates) runs one path for both. The root entry carries its canonical
//! form in one of two shapes:
//!
//! * **Frontier** ([`Preparer::hash_and_canon`]) — `Roots` mode and
//!   read-only probes: one fused scoped walk yields the term's hash and a
//!   standalone [`DbArena`] canonical form. Frontier forms are cheap (no
//!   table traffic on the hot path); a merge is confirmed by walking the
//!   form against the DAG, and the form is interned only if the insert
//!   creates a class.
//! * **Interned** (`Preparer::prepare_term`) — `Subexpressions` mode: one
//!   O(n (log n)²) post-order pass hashes **every** node (the paper's
//!   headline result), then one bottom-up pass over the same post-order
//!   canonicalizes every node **directly into the canon DAG** — no
//!   per-subterm arena is ever allocated. Because interning is exact
//!   hash-consing, identical subterms *within* a term come back as the
//!   same [`CanonRef`], and the preparer collapses them into one
//!   `SubEntry` with an occurrence `multiplicity` instead of k copies.
//!   Downstream, the shard sweep confirms interned entries against
//!   candidate classes with an O(1) ref compare.
//!
//! A subterm's canonical form cannot be sliced out of the root's — a
//! variable bound *outside* a subterm is free *by name* inside it. But it
//! can be *built up* from its children's: an `App` (or a `Var`/`Lit`
//! leaf) interns one node from its children's refs, and only a binder
//! changes anything below it — its own occurrences turn from `FVar(x)`
//! into `BVar(i)`. So at a `Lam x`/`Let x` the pass re-interns just the
//! union of paths from the binder's body down to those occurrences and
//! keeps every other subtree's ref as it is. A term costs
//! O(n + Σ binder→occurrence path lengths) intern probes, and only nodes
//! whose canonical form actually changes are re-interned. The standalone
//! forms of subterms below the `min_nodes` floor are interned too, as the
//! building blocks of the forms above them.

use crate::dag::CanonTable;
use crate::granularity::Granularity;
use alpha_hash::combine::{HashScheme, HashWord};
use alpha_hash::hashed::HashedSummariser;
use lambda_lang::arena::{ExprArena, ExprNode, NodeId};
use lambda_lang::canon::{CanonNode, CanonRef, NameId};
use lambda_lang::debruijn::{DbArena, DbId, DbNode};
use lambda_lang::symbol::Symbol;
use lambda_lang::visit::{walk_scoped_with, ScopeEvent, ScopeStack};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Mutex;

/// A multiplicative hasher for maps keyed by interner indices and canon
/// ref bits: small dense integers the process made itself, never client
/// strings, so SipHash's flooding resistance buys nothing here. One
/// rotate, xor and multiply per word (the FxHash step).
#[derive(Default)]
struct IndexHasher(u64);

impl Hasher for IndexHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.write_u64(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.0 = (self.0.rotate_left(5) ^ i).wrapping_mul(0x517C_C1B7_2722_0A95);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

/// A hash map keyed by an interner index (see [`IndexHasher`]).
type IndexMap<K, V> = HashMap<K, V, BuildHasherDefault<IndexHasher>>;

/// How a prepared root entry carries its canonical form to the shard
/// sweep.
#[derive(Debug)]
pub(crate) enum PreparedCanon {
    /// Already interned into the canon DAG (subexpression-granularity
    /// roots, replayed records, updates): merge confirmation is one ref
    /// compare.
    Interned(CanonRef),
    /// A standalone arena not yet in the DAG (root-granularity inserts and
    /// read-only probes): confirmation walks the DAG structurally, and the
    /// form is interned only if a class is created.
    Frontier {
        /// The canonical de Bruijn form.
        canon: DbArena,
        /// Root of `canon`.
        canon_root: DbId,
    },
}

/// One prepared (sub)expression: everything the store needs to index it —
/// content address, size, occurrence multiplicity within its term, and the
/// canonical form that confirms merges exactly. `C` is the form's shape:
/// a [`CanonRef`] for indexed subexpressions (always interned at prepare
/// time), a [`PreparedCanon`] for a term's root.
#[derive(Debug)]
pub(crate) struct SubEntry<H, C = CanonRef> {
    /// The alpha-invariant hash (content address).
    pub hash: H,
    /// Node count of the subexpression **as a tree** (what
    /// [`AlphaStore::node_count`](crate::AlphaStore::node_count) reports).
    pub node_count: u64,
    /// How many times this exact canonical form occurs in the prepared
    /// term (always 1 for roots). Duplicate occurrences are collapsed at
    /// prepare time by [`CanonRef`] equality — an exact dedup, since refs
    /// are hash-consed.
    pub multiplicity: u32,
    /// The canonical form.
    pub canon: C,
}

/// A root entry: a whole term, in either canon shape.
pub(crate) type RootEntry<H> = SubEntry<H, PreparedCanon>;

impl<H: Copy> SubEntry<H> {
    /// This interned entry in the wider type both shapes share, for the
    /// shard code.
    pub(crate) fn widen(&self) -> RootEntry<H> {
        SubEntry {
            hash: self.hash,
            node_count: self.node_count,
            multiplicity: self.multiplicity,
            canon: PreparedCanon::Interned(self.canon),
        }
    }
}

/// A prepared term: the root entry plus one entry per **distinct** indexed
/// proper subexpression. `Roots` mode indexes nothing below the root, so
/// its terms have no `subs`, and a frontier root never has any.
#[derive(Debug)]
pub(crate) struct PreparedTerm<H> {
    /// The whole term (always indexed, whatever its size).
    pub root: RootEntry<H>,
    /// Distinct indexed proper subexpressions, in first-occurrence
    /// post-order, each carrying its occurrence multiplicity.
    pub subs: Vec<SubEntry<H>>,
    /// Proper subexpression **occurrences** skipped by the `min_nodes`
    /// floor.
    pub skipped: u64,
}

impl<H> PreparedTerm<H> {
    /// A whole term already interned at `canon`, with nothing indexed
    /// below it: what a `Roots`-mode update applies.
    pub(crate) fn interned_root(hash: H, node_count: u64, canon: CanonRef) -> Self {
        PreparedTerm {
            root: SubEntry {
                hash,
                node_count,
                multiplicity: 1,
                canon: PreparedCanon::Interned(canon),
            },
            subs: Vec::new(),
            skipped: 0,
        }
    }
}

/// Brings `sym` into scope at the current depth, remembering any shadowed
/// outer binding on the `saved` stack. Only the fused root walk keeps an
/// environment: the subexpression pass resolves binders by post-order
/// range instead (see `Preparer::close_binder`).
fn bind(
    env: &mut IndexMap<Symbol, u32>,
    saved: &mut Vec<Option<u32>>,
    depth: &mut u32,
    sym: Symbol,
) {
    saved.push(env.insert(sym, *depth));
    *depth += 1;
}

/// Takes `sym` out of scope, restoring whatever binding [`bind`] shadowed.
fn unbind(
    env: &mut IndexMap<Symbol, u32>,
    saved: &mut Vec<Option<u32>>,
    depth: &mut u32,
    sym: Symbol,
) {
    *depth -= 1;
    match saved.pop().expect("balanced bind/unbind") {
        Some(level) => {
            env.insert(sym, level);
        }
        None => {
            env.remove(&sym);
        }
    }
}

/// Converts one post-order node to de Bruijn form against the current
/// binder environment. `env` maps binder symbols to binding levels
/// (distance from the walk root); occurrences of symbols not in `env` are
/// free and keep their names.
fn emit_db(
    arena: &ExprArena,
    n: NodeId,
    env: &IndexMap<Symbol, u32>,
    depth: u32,
    dst: &mut DbArena,
    db_stack: &mut Vec<DbId>,
) {
    let id = match arena.node(n) {
        ExprNode::Var(s) => match env.get(&s) {
            // `level` counts binders from the root; the index counts from
            // the occurrence inward.
            Some(&level) => dst.push(DbNode::BVar(depth - level - 1)),
            None => {
                let name = dst.intern(arena.name(s));
                dst.push(DbNode::FVar(name))
            }
        },
        ExprNode::Lit(l) => dst.push(DbNode::Lit(l)),
        ExprNode::Lam(_, _) => {
            let body = db_stack.pop().expect("lam body");
            dst.push(DbNode::Lam(body))
        }
        ExprNode::App(_, _) => {
            let arg = db_stack.pop().expect("app arg");
            let fun = db_stack.pop().expect("app fun");
            dst.push(DbNode::App(fun, arg))
        }
        ExprNode::Let(_, _, _) => {
            let body = db_stack.pop().expect("let body");
            let rhs = db_stack.pop().expect("let rhs");
            dst.push(DbNode::Let(rhs, body))
        }
    };
    db_stack.push(id);
}

/// Reusable state for preparing many terms of one arena: the streaming
/// summariser plus the conversion environments, stacks and caches. A
/// `Preparer` is arena-affine — like the summariser's name-hash cache, the
/// symbol→[`NameId`] cache assumes every call passes the arena the
/// preparer was built for — until `forget_arena` empties both caches.
/// It keeps its own copy of the [`HashScheme`] and borrows nothing, so the
/// store can keep warm preparers between calls (`PreparerPool`).
pub struct Preparer<H: HashWord> {
    summariser: HashedSummariser<H>,
    /// Binder symbol → binding level (distance from the root), for the
    /// innermost binding. Save/restore via `saved` handles shadowing.
    env: IndexMap<Symbol, u32>,
    saved: Vec<Option<u32>>,
    db_stack: Vec<DbId>,
    /// Traversal scratch of the fused root walk.
    scope: ScopeStack,
    /// Per-node `(node, hash, size)` records of the latest hashing pass,
    /// in post-order (so the root is last). Only filled by `prepare_term`.
    sub_infos: Vec<(NodeId, H, u64)>,
    /// Arena symbol → global canon-DAG name, cached per preparer.
    name_ids: IndexMap<Symbol, NameId>,
    /// Intra-term dedup: interned ref bits → index into the subs vec.
    dedup: IndexMap<u32, usize>,
    /// Per post-order position: the node's canon ref in the context of its
    /// most recently finished enclosing subterm (its standalone ref at the
    /// moment it finishes).
    refs: Vec<CanonRef>,
    /// Per post-order position of a `Var`: the previous still-free
    /// occurrence of the same symbol, or [`NO_OCC`]. With `occ_head`, one
    /// linked stack of open occurrences per symbol.
    occ_prev: Vec<u32>,
    /// Symbol → post-order position of its latest still-free occurrence.
    occ_head: IndexMap<Symbol, u32>,
    /// The occurrences the binder being closed captures, ascending.
    closing: Vec<u32>,
    /// Work stack of the path re-interning walk.
    path_stack: Vec<PathTask>,
    /// Node count of the largest term prepared since the preparer was
    /// built or last forgot its arena (see `PreparerPool::give`).
    largest: u64,
    /// Scratch of the store's probe: the prepared patterns and their
    /// shard sort keys, kept so a warm probe reuses their capacity.
    pub(crate) probe_roots: Vec<RootEntry<H>>,
    pub(crate) probe_keys: Vec<u64>,
}

/// End of an occurrence list in [`Preparer`]'s `occ_prev`.
const NO_OCC: u32 = u32::MAX;

/// One step of [`Preparer::close_binder`]'s walk down the paths to a
/// binder's occurrences. Positions are post-order positions in the term;
/// `lo..hi` is the slice of `closing` that lies inside the node's subtree.
enum PathTask {
    /// Visit the node at `pos`, which sits under `depth` binders below the
    /// one being closed.
    Enter {
        pos: u32,
        lo: u32,
        hi: u32,
        depth: u32,
    },
    /// Re-intern the node at `pos` from its children's (updated) refs.
    Exit(u32),
}

/// Post-order position of the left child (`App` function, `Let` rhs) of a
/// binary node whose right child sits at `right`: the left subtree ends
/// where the right one starts.
fn left_of<H>(infos: &[(NodeId, H, u64)], right: usize) -> usize {
    right - infos[right].2 as usize
}

/// The canon node for the inner node at post-order position `p`, built
/// from its children's current refs. The right child (the body of a
/// `Lam`/`Let`, the argument of an `App`) always ends at `p - 1`.
fn compose<H>(
    node: ExprNode,
    p: usize,
    infos: &[(NodeId, H, u64)],
    refs: &[CanonRef],
) -> CanonNode {
    let right = refs[p - 1];
    match node {
        ExprNode::Lam(_, _) => CanonNode::Lam(right),
        ExprNode::App(_, _) => CanonNode::App(refs[left_of(infos, p - 1)], right),
        ExprNode::Let(_, _, _) => CanonNode::Let(refs[left_of(infos, p - 1)], right),
        ExprNode::Var(_) | ExprNode::Lit(_) => unreachable!("leaves have no children"),
    }
}

impl<H: HashWord> Preparer<H> {
    /// A preparer for terms of `arena`, hashing with (a copy of) `scheme`.
    pub fn new(arena: &ExprArena, scheme: &HashScheme<H>) -> Self {
        Preparer {
            summariser: HashedSummariser::new(arena, scheme),
            env: IndexMap::default(),
            saved: Vec::new(),
            db_stack: Vec::new(),
            scope: ScopeStack::new(),
            sub_infos: Vec::new(),
            name_ids: IndexMap::default(),
            dedup: IndexMap::default(),
            refs: Vec::new(),
            occ_prev: Vec::new(),
            occ_head: IndexMap::default(),
            closing: Vec::new(),
            path_stack: Vec::new(),
            largest: 0,
            probe_roots: Vec::new(),
            probe_keys: Vec::new(),
        }
    }

    /// Empties the arena-affine caches (name hashes and canon name ids)
    /// in O(symbols they hold), and the probe scratch, so the preparer
    /// may serve another arena.
    fn forget_arena(&mut self) {
        self.summariser.forget_names();
        self.name_ids.clear();
        self.largest = 0;
        self.probe_roots.clear();
        self.probe_roots.shrink_to(POOLED_PROBE_SCRATCH);
        self.probe_keys.clear();
        self.probe_keys.shrink_to(POOLED_PROBE_SCRATCH);
    }

    /// Drains the summariser's cumulative work counters — `(nodes pushed,
    /// name-hash cache misses)` since the last drain — for the store's
    /// instrumentation seam. Resets both to zero.
    pub(crate) fn take_hash_counters(&mut self) -> (u64, u64) {
        let nodes = std::mem::take(&mut self.summariser.nodes_pushed);
        (nodes, self.summariser.take_name_cache_misses())
    }

    /// Prepares a term for a store of `granularity`: in `Roots` mode the
    /// frontier root of [`Preparer::hash_and_canon`] with nothing indexed
    /// below it, in `Subexpressions` mode `Preparer::prepare_term`.
    /// Read-only probes prepare as `Roots` mode does.
    pub(crate) fn prepare(
        &mut self,
        arena: &ExprArena,
        root: NodeId,
        granularity: Granularity,
        table: &CanonTable,
    ) -> PreparedTerm<H> {
        let pt = match granularity {
            Granularity::Roots => {
                let (hash, canon, canon_root) = self.hash_and_canon(arena, root);
                PreparedTerm {
                    root: SubEntry {
                        hash,
                        node_count: canon.len() as u64,
                        multiplicity: 1,
                        canon: PreparedCanon::Frontier { canon, canon_root },
                    },
                    subs: Vec::new(),
                    skipped: 0,
                }
            }
            Granularity::Subexpressions { min_nodes } => {
                self.prepare_term(arena, root, min_nodes, table)
            }
        };
        self.largest = self.largest.max(pt.root.node_count);
        pt
    }

    /// Computes the term's alpha-hash and its canonical de Bruijn form in
    /// one fused post-order pass — the frontier shape used by
    /// root-granularity ingest and by read-only probes.
    ///
    /// The de Bruijn output is structurally identical to
    /// [`lambda_lang::debruijn::to_debruijn`]'s (the property tests
    /// cross-check this), and the hash equals
    /// [`alpha_hash::hashed::hash_expr`]. Binders need not be distinct: a
    /// shadowed name prepares as its `uniquify`d copy does.
    pub fn hash_and_canon(&mut self, arena: &ExprArena, root: NodeId) -> (H, DbArena, DbId) {
        let mut dst = DbArena::new();
        let mut depth: u32 = 0;
        let mut root_hash = None;
        self.db_stack.clear();

        // Split-borrow the fields once so the closure can use them all.
        let summariser = &mut self.summariser;
        let env = &mut self.env;
        let saved = &mut self.saved;
        let db_stack = &mut self.db_stack;

        walk_scoped_with(arena, root, &mut self.scope, |ev| match ev {
            ScopeEvent::Enter(_) => {}
            ScopeEvent::Bind { sym, .. } => bind(env, saved, &mut depth, sym),
            ScopeEvent::Unbind { sym, .. } => unbind(env, saved, &mut depth, sym),
            ScopeEvent::Exit(n) => {
                let (hash, _) = summariser.push_node(arena, n, &mut ());
                root_hash = Some(hash);
                emit_db(arena, n, env, depth, &mut dst, db_stack);
            }
        });

        self.summariser.finish_discard();
        let db_root = self.db_stack.pop().expect("prepare produced a root");
        debug_assert!(self.db_stack.is_empty());
        debug_assert!(self.saved.is_empty());
        debug_assert!(self.env.is_empty());
        debug_assert_eq!(depth, 0);
        (root_hash.expect("non-empty term"), dst, db_root)
    }

    /// The pure hashing pass of [`Preparer::prepare_term`]: the
    /// summariser's one post-order pass records `(node, hash, size)` for
    /// every node into `sub_infos`.
    fn hash_all(&mut self, arena: &ExprArena, root: NodeId) -> H {
        self.sub_infos.clear();
        self.summariser.push_tree(arena, root, &mut self.sub_infos);
        self.summariser.finish_discard();
        self.sub_infos.last().expect("non-empty term").1
    }

    /// Prepares a term at subexpression granularity: **one** fused
    /// O(n (log n)²) walk hashes every node (no per-subterm `hash_expr`),
    /// then one bottom-up pass canonicalizes every node straight into
    /// `table` (see the module docs for its cost). Each proper
    /// subexpression with at least `min_nodes` nodes becomes an entry, and
    /// duplicate occurrences collapse into one entry with a multiplicity
    /// (exact, by hash-consed ref equality). The root is always included,
    /// whatever its size.
    pub(crate) fn prepare_term(
        &mut self,
        arena: &ExprArena,
        root: NodeId,
        min_nodes: usize,
        table: &CanonTable,
    ) -> PreparedTerm<H> {
        let min_nodes = min_nodes.max(1) as u64;
        let root_hash = self.hash_all(arena, root);
        let infos = std::mem::take(&mut self.sub_infos);
        debug_assert_eq!(infos.last().map(|&(n, _, _)| n), Some(root));
        self.refs.clear();
        self.occ_prev.clear();
        self.occ_head.clear();

        let mut subs: Vec<SubEntry<H>> = Vec::new();
        let mut skipped = 0u64;
        self.dedup.clear();
        let last = infos.len() - 1;
        for (p, &(_, hash, size)) in infos.iter().enumerate() {
            let cref = self.canon_node(arena, table, &infos, p);
            if p == last {
                break;
            }
            if size < min_nodes {
                skipped += 1;
                continue;
            }
            match self.dedup.get(&cref.to_bits()) {
                Some(&at) => {
                    debug_assert_eq!(subs[at].hash, hash, "equal canon implies equal hash");
                    subs[at].multiplicity += 1;
                }
                None => {
                    self.dedup.insert(cref.to_bits(), subs.len());
                    subs.push(SubEntry {
                        hash,
                        node_count: size,
                        multiplicity: 1,
                        canon: cref,
                    });
                }
            }
        }
        let root_ref = self.refs[last];
        let root_size = infos[last].2;
        self.sub_infos = infos; // give the buffer back for reuse
        PreparedTerm {
            root: SubEntry {
                hash: root_hash,
                node_count: root_size,
                multiplicity: 1,
                canon: PreparedCanon::Interned(root_ref),
            },
            subs,
            skipped,
        }
    }

    /// Finishes the node at post-order position `p` (every node before it
    /// is finished): interns its standalone canonical form from its
    /// children's refs, after closing its binder if it has one, and records
    /// the ref at `refs[p]`.
    fn canon_node(
        &mut self,
        arena: &ExprArena,
        table: &CanonTable,
        infos: &[(NodeId, H, u64)],
        p: usize,
    ) -> CanonRef {
        debug_assert_eq!(self.refs.len(), p);
        let node = arena.node(infos[p].0);
        let mut prev = NO_OCC;
        let canon = match node {
            ExprNode::Var(s) => {
                // Free in its own standalone form; an enclosing binder
                // rewrites it when it closes.
                prev = self.occ_head.insert(s, p as u32).unwrap_or(NO_OCC);
                CanonNode::FVar(
                    *self
                        .name_ids
                        .entry(s)
                        .or_insert_with(|| table.intern_name(arena.name(s))),
                )
            }
            ExprNode::Lit(l) => CanonNode::Lit(l),
            ExprNode::Lam(x, _) | ExprNode::Let(x, _, _) => {
                self.close_binder(arena, table, infos, p, x);
                compose(node, p, infos, &self.refs)
            }
            ExprNode::App(_, _) => compose(node, p, infos, &self.refs),
        };
        self.occ_prev.push(prev);
        let cref = table.intern_node(canon);
        self.refs.push(cref);
        cref
    }

    /// Closes the binder of `x` at post-order position `p`: the still-free
    /// occurrences of `x` inside its body (the body is the node's last
    /// child, so it spans the positions just before `p`) become bound, and
    /// every node on a path from the body down to one of them is
    /// re-interned with `FVar(x)` → `BVar(binders in between)`. Subtrees
    /// holding no such occurrence keep their refs. Occurrences are popped
    /// off `x`'s open-occurrence stack, so an outer binder of the same
    /// symbol never sees them again, and a `Let`'s rhs (outside its scope)
    /// keeps its own.
    fn close_binder(
        &mut self,
        arena: &ExprArena,
        table: &CanonTable,
        infos: &[(NodeId, H, u64)],
        p: usize,
        x: Symbol,
    ) {
        let body = p - 1;
        let body_start = (p - infos[body].2 as usize) as u32;
        let Some(head) = self.occ_head.get_mut(&x) else {
            return;
        };
        self.closing.clear();
        while *head != NO_OCC && *head >= body_start {
            self.closing.push(*head);
            *head = self.occ_prev[*head as usize];
        }
        if self.closing.is_empty() {
            return;
        }
        self.closing.reverse();

        let closing = &self.closing;
        let refs = &mut self.refs;
        let stack = &mut self.path_stack;
        stack.clear();
        stack.push(PathTask::Enter {
            pos: body as u32,
            lo: 0,
            hi: closing.len() as u32,
            depth: 0,
        });
        while let Some(task) = stack.pop() {
            match task {
                PathTask::Enter { pos, lo, hi, depth } => {
                    let q = pos as usize;
                    let node = arena.node(infos[q].0);
                    // Binders below the closed one at the right child, and
                    // whether there is a left child (outside any binder
                    // this node introduces).
                    let (right_depth, binary) = match node {
                        ExprNode::Var(_) => {
                            debug_assert!(hi == lo + 1 && closing[lo as usize] == pos);
                            refs[q] = table.intern_node(CanonNode::BVar(depth));
                            continue;
                        }
                        ExprNode::Lit(_) => unreachable!("a literal is no occurrence"),
                        ExprNode::Lam(_, _) => (depth + 1, false),
                        ExprNode::App(_, _) => (depth, true),
                        ExprNode::Let(_, _, _) => (depth + 1, true),
                    };
                    stack.push(PathTask::Exit(pos));
                    let right = q - 1;
                    let mut split = lo;
                    if binary {
                        // Occurrences before the right subtree's first
                        // position lie in the left one.
                        let left = left_of(infos, right);
                        split += closing[lo as usize..hi as usize]
                            .partition_point(|&o| o as usize <= left)
                            as u32;
                        if split > lo {
                            stack.push(PathTask::Enter {
                                pos: left as u32,
                                lo,
                                hi: split,
                                depth,
                            });
                        }
                    }
                    if hi > split {
                        stack.push(PathTask::Enter {
                            pos: right as u32,
                            lo: split,
                            hi,
                            depth: right_depth,
                        });
                    }
                }
                PathTask::Exit(pos) => {
                    let q = pos as usize;
                    refs[q] = table.intern_node(compose(arena.node(infos[q].0), q, infos, refs));
                }
            }
        }
    }
}

/// Name-cache pages (256 symbols, 4 KiB each) above which a preparer is
/// dropped instead of pooled.
pub const POOLED_PREPARER_MAX_PAGES: usize = 64;

/// Terms larger than this many nodes leave scratch buffers (value and
/// walk stacks, per-node records) sized to them; a preparer that prepared
/// one is dropped instead of pooled, so warm preparers stay small.
const POOLED_PREPARER_MAX_NODES: u64 = 1 << 16;

/// Patterns of probe scratch a pooled preparer keeps: a large
/// `contains_batch` leaves no batch-sized buffers behind in the pool.
const POOLED_PROBE_SCRATCH: usize = 256;

/// Warm preparers for the store's single-call paths (`lookup`,
/// `contains`, `contains_batch`, `try_insert`): a call borrows one and
/// gives it back, so it skips building a fresh preparer and the name
/// cache pages and stack growth that come with one.
///
/// Calls may pass any arena. Giving a preparer back forgets its
/// arena-affine caches in O(symbols touched); the pages stay allocated
/// for the next caller. A preparer only enters the pool when a caller
/// returns it, so the pool never holds more preparers than there were
/// concurrent callers. One whose name cache grew past
/// [`POOLED_PREPARER_MAX_PAGES`], or that prepared a term of more than
/// `POOLED_PREPARER_MAX_NODES`, is dropped instead.
pub(crate) struct PreparerPool<H: HashWord> {
    idle: Mutex<Vec<Preparer<H>>>,
}

impl<H: HashWord> Default for PreparerPool<H> {
    fn default() -> Self {
        PreparerPool {
            idle: Mutex::new(Vec::new()),
        }
    }
}

impl<H: HashWord> PreparerPool<H> {
    /// A warm preparer, or a fresh one for `arena` if none is idle.
    pub(crate) fn take(&self, arena: &ExprArena, scheme: &HashScheme<H>) -> Preparer<H> {
        let warm = self.idle.lock().expect("preparer pool poisoned").pop();
        warm.unwrap_or_else(|| Preparer::new(arena, scheme))
    }

    /// Returns a preparer, emptied of its arena's names.
    pub(crate) fn give(&self, mut preparer: Preparer<H>) {
        if preparer.largest > POOLED_PREPARER_MAX_NODES
            || preparer.summariser.name_cache_pages() > POOLED_PREPARER_MAX_PAGES
        {
            return;
        }
        preparer.forget_arena();
        self.idle
            .lock()
            .expect("preparer pool poisoned")
            .push(preparer);
    }

    /// Name-cache pages of each idle preparer.
    pub(crate) fn idle_pages(&self) -> Vec<usize> {
        self.idle
            .lock()
            .expect("preparer pool poisoned")
            .iter()
            .map(|p| p.summariser.name_cache_pages())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dag::extract_one;
    use lambda_lang::debruijn::{db_eq, db_print, to_debruijn};
    use lambda_lang::parse::parse;
    use lambda_lang::visit::postorder;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn print_ref(table: &CanonTable, cref: CanonRef) -> String {
        let (arena, root) = extract_one(table, cref);
        db_print(&arena, root)
    }

    fn root_ref<H>(pt: &PreparedTerm<H>) -> CanonRef {
        let PreparedCanon::Interned(cref) = pt.root.canon else {
            panic!("prepare_term roots are interned");
        };
        cref
    }

    #[test]
    fn fused_pass_matches_the_two_walk_version() {
        let scheme: HashScheme<u64> = HashScheme::new(0xFEED);
        let mut arena = ExprArena::new();
        let sources = [
            r"\x. x + 7",
            r"\x. \y. x + y*7",
            r"foo (\x. x+7) (\y. y+7)",
            "let bar = x+1 in bar*y",
            r"\t. foo (\q. q + t) (\y. \w. w + t)",
            "(a + (v+7)) * (v+7)",
            "42",
            "free",
        ];
        let mut preparer = Preparer::new(&arena, &scheme);
        for src in sources {
            let parsed = parse(&mut arena, src).unwrap();
            let (hash, canon, canon_root) = preparer.hash_and_canon(&arena, parsed);
            assert_eq!(
                hash,
                alpha_hash::hashed::hash_expr(&arena, parsed, &scheme),
                "hash mismatch for {src}"
            );
            let (expected, expected_root) = to_debruijn(&arena, parsed);
            assert!(
                db_eq(&canon, canon_root, &expected, expected_root),
                "canon mismatch for {src}: {} vs {}",
                db_print(&canon, canon_root),
                db_print(&expected, expected_root)
            );
        }
    }

    #[test]
    fn preparer_state_is_clean_between_terms() {
        // A term with deep binders followed by a term with free variables
        // of the same names: stale environment state would misclassify
        // them as bound.
        let scheme: HashScheme<u64> = HashScheme::new(7);
        let mut arena = ExprArena::new();
        let bound = parse(&mut arena, r"\x. \y. x y").unwrap();
        let free = parse(&mut arena, "x y").unwrap();
        let mut preparer = Preparer::new(&arena, &scheme);
        let _ = preparer.hash_and_canon(&arena, bound);
        let (_, canon, canon_root) = preparer.hash_and_canon(&arena, free);
        assert_eq!(db_print(&canon, canon_root), "x y");
    }

    #[test]
    fn deep_terms_are_stack_safe() {
        let scheme: HashScheme<u64> = HashScheme::new(9);
        let mut arena = ExprArena::new();
        let mut e = arena.var_named("z");
        for i in 0..120_000 {
            let x = arena.intern(&format!("x{i}"));
            e = arena.lam(x, e);
        }
        let mut preparer = Preparer::new(&arena, &scheme);
        let (_, canon, canon_root) = preparer.hash_and_canon(&arena, e);
        assert_eq!(canon.len(), 120_001);
        assert!(matches!(canon.node(canon_root), DbNode::Lam(_)));
    }

    #[test]
    fn prepare_term_hashes_match_the_batch_hasher_per_node() {
        // The per-subexpression hashes must equal what hash_expr computes
        // on each subtree standalone — i.e. the fused pass really is the
        // paper's all-subexpressions result, not a root-only shortcut.
        let scheme: HashScheme<u64> = HashScheme::new(0xBEEF);
        let table = CanonTable::new();
        let mut arena = ExprArena::new();
        let sources = [
            r"\x. \y. x + y*7",
            r"foo (\x. x+7) (\y. y+7)",
            "let bar = x+1 in bar*(bar+y)",
        ];
        let mut preparer = Preparer::new(&arena, &scheme);
        for src in sources {
            let parsed = parse(&mut arena, src).unwrap();
            let pt = preparer.prepare_term(&arena, parsed, 1, &table);
            assert_eq!(pt.skipped, 0);
            let nodes = postorder(&arena, parsed);
            // Every proper subexpression occurrence is accounted for
            // (multiplicities sum to the occurrence count)…
            let occurrences: u64 = pt.subs.iter().map(|s| s.multiplicity as u64).sum();
            assert_eq!(occurrences as usize, nodes.len() - 1);
            // …and every entry's hash and canon match the standalone
            // reference computation on one of its occurrences.
            for entry in &pt.subs {
                let node = nodes
                    .iter()
                    .copied()
                    .find(|&n| alpha_hash::hashed::hash_expr(&arena, n, &scheme) == entry.hash)
                    .expect("entry corresponds to a subterm");
                assert_eq!(entry.node_count as usize, arena.subtree_size(node));
                let (expected, expected_root) = to_debruijn(&arena, node);
                assert_eq!(
                    print_ref(&table, entry.canon),
                    db_print(&expected, expected_root),
                    "canon mismatch for a subexpression of {src}"
                );
            }
        }
    }

    /// The reference build for `prepare_term`: every indexed node
    /// converted standalone by `to_debruijn` and interned whole. Returns
    /// ref → (occurrences, node count) over the proper subterms clearing
    /// `min_nodes`, and the root's ref.
    fn reference_entries(
        table: &CanonTable,
        arena: &ExprArena,
        root: NodeId,
        min_nodes: usize,
    ) -> (HashMap<CanonRef, (u32, u64)>, CanonRef) {
        let mut entries: HashMap<CanonRef, (u32, u64)> = HashMap::new();
        for n in postorder(arena, root) {
            let size = arena.subtree_size(n);
            if n == root || size < min_nodes {
                continue;
            }
            let (db, db_root) = to_debruijn(arena, n);
            let entry = entries
                .entry(table.intern_arena(&db, db_root))
                .or_insert((0, size as u64));
            entry.0 += 1;
        }
        let (db, db_root) = to_debruijn(arena, root);
        (entries, table.intern_arena(&db, db_root))
    }

    /// Checks `prepare_term` against [`reference_entries`] at every node
    /// of `root`: the same refs, with the same multiplicities.
    fn assert_matches_reference(
        preparer: &mut Preparer<u64>,
        table: &CanonTable,
        arena: &ExprArena,
        root: NodeId,
        what: &str,
    ) {
        let pt = preparer.prepare_term(arena, root, 1, table);
        let got: HashMap<CanonRef, (u32, u64)> = pt
            .subs
            .iter()
            .map(|entry| (entry.canon, (entry.multiplicity, entry.node_count)))
            .collect();
        assert_eq!(
            got.len(),
            pt.subs.len(),
            "entries are distinct refs ({what})"
        );
        let (expected, expected_root) = reference_entries(table, arena, root, 1);
        assert_eq!(
            got, expected,
            "subterm refs differ from the reference ({what})"
        );
        assert_eq!(root_ref(&pt), expected_root, "root ref differs ({what})");
    }

    #[test]
    fn bottom_up_pass_matches_the_standalone_reference_at_every_node() {
        let scheme: HashScheme<u64> = HashScheme::new(0x0AC1E);
        let table = CanonTable::new();
        let mut arena = ExprArena::new();
        let mut terms: Vec<(String, NodeId)> = Vec::new();
        for seed in 0..6u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let size = 60 + 70 * seed as usize;
            let generated = [
                ("balanced", expr_gen::balanced(&mut arena, size, &mut rng)),
                (
                    "unbalanced",
                    expr_gen::unbalanced(&mut arena, size, &mut rng),
                ),
                (
                    "arithmetic",
                    expr_gen::arithmetic(&mut arena, size, &mut rng),
                ),
                (
                    "wide_open_spine",
                    expr_gen::wide_open_spine(&mut arena, size, 2 + seed as usize * 3, &mut rng),
                ),
            ];
            for (family, root) in generated {
                terms.push((format!("{family} seed {seed}"), root));
            }
        }
        let sources = [
            // The binder's symbol also occurs free, outside its scope.
            r"(\x. x) x",
            r"x (\x. f x x) x",
            // A let binder named in its own rhs (not captured) and in its
            // body (captured).
            "let x = x + 1 in x * (x + 1)",
            r"\y. let x = y x in x y",
            // Nested binders whose occurrence paths overlap.
            r"\x. \y. f (g x y) (h y x)",
            r"\a. \b. \c. a (b c) (c (b a))",
            r"let p = 1 in \q. p q (let r = q p in r p q)",
            r"\u. (\v. u v) (\w. w u)",
            "42",
            "free",
        ];
        for src in sources {
            terms.push((src.to_string(), parse(&mut arena, src).unwrap()));
        }
        let mut preparer = Preparer::new(&arena, &scheme);
        for (what, root) in &terms {
            assert_matches_reference(&mut preparer, &table, &arena, *root, what);
        }
    }

    /// Intern probes (hits + misses) `prepare_term` makes on `root`.
    fn intern_probes(arena: &ExprArena, root: NodeId) -> u64 {
        let scheme: HashScheme<u64> = HashScheme::new(3);
        let table = CanonTable::new();
        let mut preparer = Preparer::new(arena, &scheme);
        let _ = preparer.prepare_term(arena, root, 1, &table);
        let stats = table.intern_stats();
        stats.hits + stats.misses
    }

    #[test]
    fn a_binder_free_spine_costs_one_intern_probe_per_node() {
        // f a0 a1 … a9999: 20,001 nodes, no binder, so no node's form is
        // ever rewritten. Scoped per-subterm walks made ~10⁸ probes here.
        let mut arena = ExprArena::new();
        let mut spine = arena.var_named("f");
        for i in 0..10_000 {
            let arg = arena.var_named(&format!("a{i}"));
            spine = arena.app(spine, arg);
        }
        let nodes = arena.subtree_size(spine) as u64;
        assert_eq!(nodes, 20_001);
        assert_eq!(intern_probes(&arena, spine), nodes);
    }

    #[test]
    fn a_lambda_spine_rewrites_only_the_short_paths_to_its_occurrences() {
        // \x0. x0 (\x1. x1 (… (\x4999. x4999 z))): each occurrence sits
        // two nodes under its binder, so closing a binder re-interns the
        // App and the Var below it and nothing else.
        let mut arena = ExprArena::new();
        let mut spine = arena.var_named("z");
        for i in (0..5_000).rev() {
            let x = arena.intern(&format!("x{i}"));
            let occurrence = arena.var(x);
            let body = arena.app(occurrence, spine);
            spine = arena.lam(x, body);
        }
        let nodes = arena.subtree_size(spine) as u64;
        assert_eq!(intern_probes(&arena, spine), nodes + 2 * 5_000);
        assert!(nodes + 2 * 5_000 <= 2 * nodes);

        let scheme: HashScheme<u64> = HashScheme::new(4);
        let table = CanonTable::new();
        let mut preparer = Preparer::new(&arena, &scheme);
        let pt = preparer.prepare_term(&arena, spine, 1, &table);
        let (db, db_root) = to_debruijn(&arena, spine);
        assert_eq!(root_ref(&pt), table.intern_arena(&db, db_root));
    }

    #[test]
    fn duplicate_subterms_collapse_into_one_entry_with_multiplicity() {
        let scheme: HashScheme<u64> = HashScheme::new(0xD0D0);
        let table = CanonTable::new();
        let mut arena = ExprArena::new();
        // (v+7) appears twice; so do its sub-pieces.
        let parsed = parse(&mut arena, "(v + 7) * (v + 7)").unwrap();
        let mut preparer = Preparer::new(&arena, &scheme);
        let pt = preparer.prepare_term(&arena, parsed, 1, &table);
        // 13 nodes; 12 proper-subterm occurrences; distinct proper
        // subterms: mul, v, 7, add, `add v`, `add v 7`, `mul (add v 7)`.
        let occurrences: u64 = pt.subs.iter().map(|s| s.multiplicity as u64).sum();
        assert_eq!(occurrences, 12);
        assert_eq!(pt.subs.len(), 7, "duplicates deduplicated at prepare time");
        let dup = pt
            .subs
            .iter()
            .find(|s| print_ref(&table, s.canon) == "add v 7")
            .expect("v+7 entry");
        assert_eq!(dup.multiplicity, 2);
        assert_eq!(pt.root.node_count, 13);
        assert_eq!(print_ref(&table, root_ref(&pt)), "mul (add v 7) (add v 7)");
    }

    #[test]
    fn subterm_canonical_forms_free_outer_binders_by_name() {
        // In \x. x + 1, the body subterm x + 1 standalone has x *free*:
        // its canonical form must name it, not index it. (`x + 1` is the
        // curried App(App(add, x), 1), so the term has 6 nodes.)
        let scheme: HashScheme<u64> = HashScheme::new(1);
        let table = CanonTable::new();
        let mut arena = ExprArena::new();
        let parsed = parse(&mut arena, r"\x. x + 1").unwrap();
        let mut preparer = Preparer::new(&arena, &scheme);
        let pt = preparer.prepare_term(&arena, parsed, 3, &table);
        // Two subterms clear the 3-node floor: `add x` and `add x 1`; the
        // leaves add, x and 1 are skipped.
        assert_eq!(pt.subs.len(), 2);
        assert_eq!(pt.skipped, 3);
        assert_eq!(print_ref(&table, pt.subs[0].canon), "add x");
        assert_eq!(print_ref(&table, pt.subs[1].canon), "add x 1");
        assert_eq!(print_ref(&table, root_ref(&pt)), r"\. add %0 1");
        assert_eq!(pt.root.node_count, 6);
    }

    #[test]
    fn min_nodes_floor_skips_small_subterms_but_never_the_root() {
        let scheme: HashScheme<u64> = HashScheme::new(2);
        let table = CanonTable::new();
        let mut arena = ExprArena::new();
        let parsed = parse(&mut arena, "v").unwrap();
        let mut preparer = Preparer::new(&arena, &scheme);
        let pt = preparer.prepare_term(&arena, parsed, 50, &table);
        assert!(pt.subs.is_empty());
        assert_eq!(pt.skipped, 0);
        assert_eq!(pt.root.node_count, 1);
    }
}
