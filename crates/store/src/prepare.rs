//! Ingest preparation: the alpha-hash of a term and what confirms its
//! merges exactly — the only step of ingest that depends on the store's
//! [`Granularity`].
//!
//! One [`Preparer`] serves a whole batch, so its summariser scratch
//! buffers, walk stacks and caches are all reused from term to term.
//!
//! `Preparer::prepare` (crate-internal) is the one ingest entry point and
//! `Preparer::probe` the read-only one. Both return a root entry, and
//! ingest adds the indexed subexpression entries, of which `Roots` mode
//! has none. Everything below it (the batch driver, the WAL framer, the
//! shard sweeps, probes and updates) runs one path for both. The root
//! entry carries its canonical form in one of two shapes:
//!
//! * **Named** — `Roots` mode: the paper's hashing pass alone, and the
//!   term itself stands for its form. A merge is confirmed by walking the
//!   named term against the class's interned de Bruijn form under a binder
//!   environment (`crate::dag::eq_named`); the term is interned only if
//!   the insert creates a class, and a durable store frames its WAL record
//!   from it. Those walks share the preparer's `NamedScratch`, so a warm
//!   probe allocates only its result vector.
//! * **Interned** (`Preparer::prepare_term`) — `Subexpressions` mode: the
//!   paper's one O(n (log n)²) post-order pass hashes **every** node and,
//!   through an interning sink (`crate::esummary`), hash-conses every
//!   node's §4.8 e-summary into the table. A subterm's class key is one
//!   interned `(structure, map)` node, the same ref standalone and in
//!   context, so no node's form is ever rebuilt for its subterms: a term
//!   costs O(1) probes per node plus O(log n) per Lemma 6.1 map operation,
//!   O(n (log n)²) in all. Identical subterms *within* a term come back as
//!   the same key, and the preparer collapses them into one `SubEntry`
//!   with an occurrence `multiplicity`. Downstream, the shard sweep
//!   confirms entries against candidate classes with an O(1) ref compare.
//!   A probe of a `Subexpressions` store runs the same pass with lookups
//!   only, and is absent at the first e-summary node the table lacks.
//!
//! A `Subexpressions` store's WAL logs each term as ingested, and replay
//! prepares it again through the same driver, since a subterm's key
//! depends on the binder names above it. A snapshot needs no preparer:
//! it writes and loads the e-summary nodes themselves.

use crate::dag::{CanonTable, NamedScratch};
use crate::esummary::Scratch;
use crate::granularity::Granularity;
use alpha_hash::combine::{HashScheme, HashWord};
use alpha_hash::hashed::{HashedSummariser, StructH, SummarySink};
use lambda_lang::arena::{ExprArena, NodeId};
use lambda_lang::canon::CanonRef;
use lambda_lang::debruijn::{to_debruijn, DbArena, DbId};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Mutex;

/// A multiplicative hasher for maps keyed by interner indices and canon
/// ref bits: small dense integers the process made itself, never client
/// strings, so SipHash's flooding resistance buys nothing here. One
/// rotate, xor and multiply per word (the FxHash step).
#[derive(Default)]
pub(crate) struct IndexHasher(u64);

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
pub(crate) type IndexMap<K, V> = HashMap<K, V, BuildHasherDefault<IndexHasher>>;

/// How a prepared root entry carries its canonical form to the shard
/// sweep.
#[derive(Debug)]
pub(crate) enum PreparedCanon {
    /// Already interned into the canon DAG (subexpression-granularity
    /// roots, replayed records, updates): merge confirmation is one ref
    /// compare.
    Interned(CanonRef),
    /// The root of a named term of the batch's arena (root-granularity
    /// inserts and read-only probes): confirmation walks it against the
    /// DAG, and it is interned only if a class is created.
    Named(NodeId),
    /// A probe of a `Subexpressions` store whose e-summary has a node the
    /// table lacks: no class can match it.
    Absent,
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
/// its terms have no `subs`, and a named root never has any.
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

/// The terms of a batch's arena and the scratch their walks reuse: what
/// a [`PreparedCanon::Named`] entry is confirmed, interned and logged
/// from.
pub(crate) struct Named<'a> {
    pub(crate) arena: &'a ExprArena,
    pub(crate) scratch: &'a mut NamedScratch,
}

/// The sink of the `Roots` hash pass: the last node's hash and size,
/// which after a whole term's post-order feed are the root's.
struct LastNode<H>(Option<(H, u64)>);

impl<H: HashWord> SummarySink<H> for LastNode<H> {
    #[inline]
    fn node(&mut self, _n: NodeId, _left_bigger: bool, structure: StructH<H>, hash: H) {
        self.0 = Some((hash, structure.size));
    }
}

/// Reusable state for preparing many terms of one arena: the streaming
/// summariser plus the named-term walks' scratch, stacks and caches. A
/// `Preparer` is arena-affine — like the summariser's name-hash cache, the
/// e-summary scratch's symbol→[`NameId`](lambda_lang::canon::NameId) cache
/// assumes every call passes the arena (and the table) the preparer was
/// built for — until `forget_arena` empties both caches. It keeps its own
/// copy of the [`HashScheme`] and borrows nothing, so the store can keep
/// warm preparers between calls (`PreparerPool`).
pub struct Preparer<H: HashWord> {
    summariser: HashedSummariser<H>,
    /// Scratch of the walks over a `Roots` entry's named term: its
    /// confirmation, its interning and its WAL record.
    pub(crate) named: NamedScratch,
    /// The e-summary sinks' stacks and caches (`Subexpressions` mode).
    esum: Scratch<H>,
    /// Intra-term dedup: interned key bits → index into the subs vec.
    dedup: IndexMap<u32, usize>,
    /// Intern probes the latest `prepare` made (none in `Roots` mode).
    pub(crate) intern_probes: u64,
    /// Node count of the largest term prepared since the preparer was
    /// built or last forgot its arena (see `PreparerPool::give`).
    largest: u64,
    /// Scratch of the store's probe: the prepared patterns and their
    /// shard sort keys, kept so a warm probe reuses their capacity.
    pub(crate) probe_roots: Vec<RootEntry<H>>,
    pub(crate) probe_keys: Vec<u64>,
}

impl<H: HashWord> Preparer<H> {
    /// A preparer for terms of `arena`, hashing with (a copy of) `scheme`.
    pub fn new(arena: &ExprArena, scheme: &HashScheme<H>) -> Self {
        Preparer {
            summariser: HashedSummariser::new(arena, scheme),
            named: NamedScratch::default(),
            esum: Scratch::default(),
            dedup: IndexMap::default(),
            intern_probes: 0,
            largest: 0,
            probe_roots: Vec::new(),
            probe_keys: Vec::new(),
        }
    }

    /// Empties the arena-affine caches (name hashes and canon name ids)
    /// in O(symbols they hold), and the probe scratch, so the preparer
    /// may serve another arena.
    pub(crate) fn forget_arena(&mut self) {
        self.summariser.forget_names();
        self.esum.forget_arena();
        self.largest = 0;
        self.probe_roots.clear();
        self.probe_roots.shrink_to(POOLED_PROBE_SCRATCH);
        self.probe_keys.clear();
        self.probe_keys.shrink_to(POOLED_PROBE_SCRATCH);
    }

    /// The terms of `arena` with this preparer's walk scratch, for the
    /// shard sweep and the WAL framer to confirm, intern and log them.
    pub(crate) fn named<'a>(&'a mut self, arena: &'a ExprArena) -> Named<'a> {
        Named {
            arena,
            scratch: &mut self.named,
        }
    }

    /// Drains the summariser's cumulative work counters — `(nodes pushed,
    /// name-hash cache misses)` since the last drain — for the store's
    /// instrumentation seam. Resets both to zero.
    pub(crate) fn take_hash_counters(&mut self) -> (u64, u64) {
        let nodes = std::mem::take(&mut self.summariser.nodes_pushed);
        (nodes, self.summariser.take_name_cache_misses())
    }

    /// Prepares a term for a store of `granularity`: in `Roots` mode its
    /// hash and its named root, with nothing indexed below it, in
    /// `Subexpressions` mode `Preparer::prepare_term`.
    pub(crate) fn prepare(
        &mut self,
        arena: &ExprArena,
        root: NodeId,
        granularity: Granularity,
        table: &CanonTable,
    ) -> PreparedTerm<H> {
        self.intern_probes = 0;
        let pt = match granularity {
            Granularity::Roots => {
                let (hash, node_count) = self.hash_root(arena, root);
                PreparedTerm {
                    root: SubEntry {
                        hash,
                        node_count,
                        multiplicity: 1,
                        canon: PreparedCanon::Named(root),
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

    /// Prepares a read-only probe of a store of `granularity`: the
    /// named root of a `Roots` prepare, or, in `Subexpressions` mode,
    /// the pattern's class key looked up without writing the table
    /// ([`PreparedCanon::Absent`] if it is not there).
    pub(crate) fn probe(
        &mut self,
        arena: &ExprArena,
        root: NodeId,
        granularity: Granularity,
        table: &CanonTable,
    ) -> RootEntry<H> {
        let Granularity::Subexpressions { .. } = granularity else {
            return self.prepare(arena, root, granularity, table).root;
        };
        let (hash, node_count, key) =
            self.esum
                .probe_term(&mut self.summariser, arena, root, table);
        self.largest = self.largest.max(node_count);
        SubEntry {
            hash,
            node_count,
            multiplicity: 1,
            canon: key.map_or(PreparedCanon::Absent, PreparedCanon::Interned),
        }
    }

    /// The paper's hashing pass alone: the term's alpha-hash, equal to
    /// [`alpha_hash::hashed::hash_expr`]'s, and its node count. Binders
    /// need not be distinct: a shadowed name hashes as its `uniquify`d
    /// copy does.
    pub(crate) fn hash_root(&mut self, arena: &ExprArena, root: NodeId) -> (H, u64) {
        let mut last = LastNode(None);
        self.summariser.push_tree(arena, root, &mut last);
        self.summariser.finish_discard();
        last.0.expect("a term has a root")
    }

    /// The term's alpha-hash and its canonical de Bruijn form
    /// ([`lambda_lang::debruijn::to_debruijn`]'s). No store path needs the
    /// form: a `Roots` entry is confirmed, interned and logged from its
    /// named term.
    pub fn hash_and_canon(&mut self, arena: &ExprArena, root: NodeId) -> (H, DbArena, DbId) {
        let (hash, _) = self.hash_root(arena, root);
        let (canon, canon_root) = to_debruijn(arena, root);
        (hash, canon, canon_root)
    }

    /// Prepares a term at subexpression granularity: **one** O(n (log n)²)
    /// pass hashes every node and interns every node's e-summary into
    /// `table` (see the module docs). Each proper subexpression with at
    /// least `min_nodes` nodes becomes an entry keyed by its interned
    /// `(structure, map)` node, and duplicate occurrences collapse into
    /// one entry with a multiplicity (exact, by hash-consed ref
    /// equality). The root is always included, whatever its size.
    pub(crate) fn prepare_term(
        &mut self,
        arena: &ExprArena,
        root: NodeId,
        min_nodes: usize,
        table: &CanonTable,
    ) -> PreparedTerm<H> {
        let min_nodes = min_nodes.max(1) as u64;
        let interned = self
            .esum
            .intern_term(&mut self.summariser, arena, root, min_nodes, table);
        self.intern_probes = interned.probes;
        // Every indexed node but the root, which is last when indexed.
        let indexed = &self.esum.indexed;
        let proper = &indexed[..indexed.len() - usize::from(interned.size >= min_nodes)];
        let mut subs: Vec<SubEntry<H>> = Vec::new();
        self.dedup.clear();
        for &(key, hash, size) in proper {
            match self.dedup.get(&key.to_bits()) {
                Some(&at) => {
                    debug_assert_eq!(subs[at].hash, hash, "equal keys imply equal hashes");
                    subs[at].multiplicity += 1;
                }
                None => {
                    self.dedup.insert(key.to_bits(), subs.len());
                    subs.push(SubEntry {
                        hash,
                        node_count: size,
                        multiplicity: 1,
                        canon: key,
                    });
                }
            }
        }
        PreparedTerm {
            root: SubEntry {
                hash: interned.hash,
                node_count: interned.size,
                multiplicity: 1,
                canon: PreparedCanon::Interned(interned.key),
            },
            subs,
            skipped: interned.size - 1 - proper.len() as u64,
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
    use crate::dag::{eq_named, extract_one, intern_named};
    use crate::esummary::Inverse;
    use lambda_lang::debruijn::db_print;
    use lambda_lang::parse::parse;
    use lambda_lang::visit::postorder;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// The de Bruijn text of an e-summary key, through the inverse.
    fn print_ref(table: &CanonTable, key: CanonRef) -> String {
        let (arena, root) = Inverse::new(table).debruijn(key);
        db_print(&arena, root)
    }

    fn root_ref<H>(pt: &PreparedTerm<H>) -> CanonRef {
        let PreparedCanon::Interned(cref) = pt.root.canon else {
            panic!("prepare_term roots are interned");
        };
        cref
    }

    #[test]
    fn a_roots_prepare_is_the_hash_pass_and_the_named_root() {
        let scheme: HashScheme<u64> = HashScheme::new(0xFEED);
        let table = CanonTable::new();
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
            let pt = preparer.prepare(&arena, parsed, Granularity::Roots, &table);
            assert_eq!(
                pt.root.hash,
                alpha_hash::hashed::hash_expr(&arena, parsed, &scheme),
                "hash mismatch for {src}"
            );
            assert_eq!(pt.root.node_count as usize, arena.subtree_size(parsed));
            assert!(matches!(pt.root.canon, PreparedCanon::Named(n) if n == parsed));
            assert!(pt.subs.is_empty());
            let (hash, canon, canon_root) = preparer.hash_and_canon(&arena, parsed);
            assert_eq!(hash, pt.root.hash);
            let (expected, expected_root) = to_debruijn(&arena, parsed);
            assert_eq!(
                db_print(&canon, canon_root),
                db_print(&expected, expected_root)
            );
        }
        assert_eq!(table.resident_nodes(), 0, "a Roots prepare interns nothing");
    }

    #[test]
    fn preparer_state_is_clean_between_terms() {
        // A term with deep binders followed by a term with free variables
        // of the same names: stale environment state would misclassify
        // them as bound. The middle walk fails inside both binders.
        let scheme: HashScheme<u64> = HashScheme::new(7);
        let table = CanonTable::new();
        let mut arena = ExprArena::new();
        let bound = parse(&mut arena, r"\x. \y. x y").unwrap();
        let swapped = parse(&mut arena, r"\x. \y. y x").unwrap();
        let free = parse(&mut arena, "x y").unwrap();
        let mut preparer = Preparer::new(&arena, &scheme);
        let scratch = &mut preparer.named;
        let cref = intern_named(&table, &arena, bound, scratch);
        assert!(!eq_named(&table, cref, &arena, swapped, scratch));
        let free_ref = intern_named(&table, &arena, free, scratch);
        let (canon, canon_root) = extract_one(&table, free_ref);
        assert_eq!(db_print(&canon, canon_root), "x y");
        assert!(eq_named(&table, free_ref, &arena, free, scratch));
    }

    #[test]
    fn deep_terms_are_stack_safe() {
        let scheme: HashScheme<u64> = HashScheme::new(9);
        let table = CanonTable::new();
        let mut arena = ExprArena::new();
        let mut e = arena.var_named("z");
        for i in 0..120_000 {
            let x = arena.intern(&format!("x{i}"));
            e = arena.lam(x, e);
        }
        let mut preparer = Preparer::new(&arena, &scheme);
        let pt = preparer.prepare(&arena, e, Granularity::Roots, &table);
        assert_eq!(pt.root.node_count, 120_001);
        let cref = intern_named(&table, &arena, e, &mut preparer.named);
        assert_eq!(table.resident_nodes(), 120_001);
        assert!(eq_named(&table, cref, &arena, e, &mut preparer.named));
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

    /// The reference build for `prepare_term`: every proper subterm
    /// clearing `min_nodes`, converted standalone by `to_debruijn`.
    /// Returns de Bruijn text → (occurrences, node count), and the root's
    /// text.
    fn reference_entries(
        arena: &ExprArena,
        root: NodeId,
        min_nodes: usize,
    ) -> (HashMap<String, (u32, u64)>, String) {
        let text = |n: NodeId| {
            let (db, db_root) = to_debruijn(arena, n);
            db_print(&db, db_root)
        };
        let mut entries: HashMap<String, (u32, u64)> = HashMap::new();
        for n in postorder(arena, root) {
            let size = arena.subtree_size(n);
            if n == root || size < min_nodes {
                continue;
            }
            entries.entry(text(n)).or_insert((0, size as u64)).0 += 1;
        }
        (entries, text(root))
    }

    /// Checks `prepare_term` against [`reference_entries`] at every node
    /// of `root`: one key per distinct de Bruijn form, with the same
    /// multiplicities.
    fn assert_matches_reference(
        preparer: &mut Preparer<u64>,
        table: &CanonTable,
        arena: &ExprArena,
        root: NodeId,
        what: &str,
    ) {
        let pt = preparer.prepare_term(arena, root, 1, table);
        let got: HashMap<String, (u32, u64)> = pt
            .subs
            .iter()
            .map(|entry| {
                (
                    print_ref(table, entry.canon),
                    (entry.multiplicity, entry.node_count),
                )
            })
            .collect();
        assert_eq!(
            got.len(),
            pt.subs.len(),
            "distinct keys have distinct forms ({what})"
        );
        let (expected, expected_root) = reference_entries(arena, root, 1);
        assert_eq!(
            got, expected,
            "subterm keys differ from the reference ({what})"
        );
        assert_eq!(
            print_ref(table, root_ref(&pt)),
            expected_root,
            "root key differs ({what})"
        );
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

    /// Intern probes `prepare_term` makes on `root`, per e-summary node
    /// kind — `[structures, position trees, map nodes, keys]` — after
    /// checking that its root key inverts to `to_debruijn`'s form.
    fn intern_probes(arena: &ExprArena, root: NodeId) -> [u64; 4] {
        let scheme: HashScheme<u64> = HashScheme::new(3);
        let table = CanonTable::new();
        let mut preparer = Preparer::new(arena, &scheme);
        let pt = preparer.prepare_term(arena, root, 1, &table);
        let (db, db_root) = to_debruijn(arena, root);
        assert_eq!(print_ref(&table, root_ref(&pt)), db_print(&db, db_root));
        let probes = |stats: crate::dag::InternStats| stats.hits + stats.misses;
        let kinds = [
            probes(table.structs.stats()),
            probes(table.positions.stats()),
            probes(table.maps.stats()),
            probes(table.keys.stats()),
        ];
        assert_eq!(probes(table.intern_stats()), preparer.intern_probes);
        assert_eq!(kinds.iter().sum::<u64>(), preparer.intern_probes);
        kinds
    }

    #[test]
    fn a_binder_free_spine_costs_one_intern_probe_per_node() {
        // f a0 a1 … a9999: 20,001 nodes, no binder. A node costs at most
        // one probe for its structure, one for its position tree and one
        // for its key; only the spine's growing variable map costs more,
        // O(log n) per argument joining it. Scoped per-subterm walks made
        // ~10⁸ probes here.
        let mut arena = ExprArena::new();
        let mut spine = arena.var_named("f");
        for i in 0..10_000 {
            let arg = arena.var_named(&format!("a{i}"));
            spine = arena.app(spine, arg);
        }
        let nodes = arena.subtree_size(spine) as u64;
        assert_eq!(nodes, 20_001);
        let [structs, positions, maps, keys] = intern_probes(&arena, spine);
        assert!(structs <= nodes, "{structs} structure probes");
        assert!(positions <= nodes, "{positions} position-tree probes");
        assert_eq!(keys, nodes);
        let log = (nodes as f64).log2().ceil() as u64;
        assert!(maps <= 2 * 10_000 * log, "{maps} map probes");
    }

    #[test]
    fn a_lambda_spine_rewrites_only_the_short_paths_to_its_occurrences() {
        // \x0. x0 (\x1. x1 (… (\x4999. x4999 z))): each occurrence sits
        // two nodes under its binder, so each binder costs one position
        // tree, the short path to its occurrence, and closes over a
        // two-entry map, whatever the depth.
        let mut arena = ExprArena::new();
        let mut spine = arena.var_named("z");
        let binders = 5_000;
        for i in (0..binders).rev() {
            let x = arena.intern(&format!("x{i}"));
            let occurrence = arena.var(x);
            let body = arena.app(occurrence, spine);
            spine = arena.lam(x, body);
        }
        let nodes = arena.subtree_size(spine) as u64;
        let [structs, positions, maps, keys] = intern_probes(&arena, spine);
        assert!(structs <= nodes, "{structs} structure probes");
        assert!(positions <= binders + 1, "{positions} position-tree probes");
        assert!(maps <= 4 * binders, "{maps} map probes");
        assert_eq!(keys, nodes);
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
