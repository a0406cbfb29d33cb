//! The hash-consed canon DAG: shared, append-only node tables for every
//! canonical form the store holds.
//!
//! ## Why
//!
//! The store used to own one standalone [`DbArena`] per class — and, at
//! [`Granularity::Subexpressions`](crate::Granularity::Subexpressions),
//! per indexed subterm class. Canonical forms overlap massively (every
//! subterm of a spine shares its suffix with every larger subterm; alpha-
//! duplicated corpora repeat whole trees), so the resident bytes were a
//! large multiple of the distinct structure. The paper's own framing (§3)
//! is that the corpus of equivalence classes *is* a DAG; this module makes
//! the storage match: canonical de Bruijn nodes are **interned once** into
//! a [`CanonTable`], children are [`CanonRef`]s, and classes hold a single
//! root ref.
//!
//! ## Exactness
//!
//! Interning is keyed on the node itself (a tag match in a stripe's index
//! is confirmed by comparing the stored node with `Eq`), and de Bruijn
//! structure is context-free, so by induction **two refs are equal iff
//! the terms they root are identical**.
//! That upgrades merge confirmation: when both sides are interned, `db_eq`
//! is one ref compare. A `Roots` entry is not interned: its named term is
//! walked against the class's form under a binder environment
//! ([`eq_named`]), and interned straight from the named term
//! ([`intern_named`]) only when it creates a class. Either way no merge is
//! ever taken on hash equality alone.
//!
//! The same argument covers the other node kinds. A
//! `Subexpressions` store keys its classes by the paper's §4.8 e-summary
//! instead (see [`crate::esummary`]): structures, position trees,
//! variable-map treap nodes and `(structure, map)` keys, each kind in its
//! own [`NodeTable`] and each interned node by node. A map's treap shape
//! is fixed by its key set, so two key refs are equal iff the e-summaries
//! are, and the summary is invertible (§4.8), so iff the terms are
//! alpha-equivalent.
//!
//! ## Concurrency
//!
//! The table is sharded by node hash ([`default_table_shards`] stripes:
//! the machine's core count rounded up to a power of two, at least
//! [`DEFAULT_TABLE_SHARDS`]). Each stripe holds its nodes in append-only
//! [`Segments`] plus, behind the segments' writer mutex, a compact
//! interning index of `u64` slots, each packing a 32-bit hash tag with a
//! node's position, probed linearly and doubled at 3/4 load. The mutex
//! also guards the stripe's own hit, miss and wait counts, so interning
//! touches no cache line shared with another stripe (stripes are aligned
//! to 128 bytes). One node hash serves a whole probe: its low bits pick
//! the stripe, the bits above them the first slot, its high half the tag.
//!
//! Nodes never move once written: segment chunks grow geometrically and
//! are freed only with the table. The one writer of a stripe fills a slot
//! and then publishes the stripe's length with a `Release` store; a reader
//! `Acquire`-loads the length and reads the slot, so **reads take no
//! lock** ([`CanonTable::node`], [`CanonTable::name`]) and may run
//! alongside interning on any stripe, their own thread's included.
//! Interning holds one writer mutex at a time — the name map's or one
//! stripe's — and takes no other lock under it, so the table adds no
//! edge to the store's lock graph.

use crate::codec::TermScratch;
use crate::esummary::{KeyNode, MapNode, PosNode, StructNode};
use crate::prepare::IndexMap;
use alpha_hash::combine::{hash_str, mix64};
use lambda_lang::arena::{ExprArena, ExprNode, NodeId};
use lambda_lang::canon::{CanonNode, CanonRef, NameId};
use lambda_lang::debruijn::{DbArena, DbId, DbNode};
use lambda_lang::symbol::Symbol;
use lambda_lang::visit::{walk_scoped_with, ScopeEvent, ScopeStack};
use lambda_lang::Literal;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock, TryLockError};

/// The floor of a [`CanonTable`]'s stripe count. Refs pack the stripe
/// into their low bits, but nothing **on disk** depends on the count
/// (serialization uses flat topological positions, not refs), so it is a
/// per-process concurrency setting: the same directory can be reopened
/// under any stripe count.
pub(crate) const DEFAULT_TABLE_SHARDS: usize = 16;

/// Largest permitted stripe count: 8 stripe bits still leave 2^24 nodes
/// of packed-ref capacity per stripe, and lock stripes beyond the core
/// count stop paying for themselves long before 256.
pub(crate) const MAX_TABLE_SHARDS: usize = 256;

/// The adaptive stripe default: enough stripes to cover the machine's
/// cores, never fewer than the classic 16 (so small boxes keep exactly
/// the historical layout and its benchmark numbers), never more than
/// [`MAX_TABLE_SHARDS`].
pub(crate) fn default_table_shards() -> usize {
    std::thread::available_parallelism()
        .map_or(DEFAULT_TABLE_SHARDS, |n| n.get().next_power_of_two())
        .clamp(DEFAULT_TABLE_SHARDS, MAX_TABLE_SHARDS)
}

#[inline]
fn pack_ref(shard_bits: u32, shard: usize, index: u32) -> CanonRef {
    // A hard check, not a debug_assert: a truncated shift would alias two
    // distinct nodes under one ref, silently breaking the hash-consing
    // invariant (ref equality ⟺ term identity) the store's exactness
    // rests on. 2^(32-bits) nodes per stripe is the packing's capacity,
    // less the all-ones value, which stands for "no ref" in a slot.
    let packed = (u64::from(index) << shard_bits) | shard as u64;
    assert!(
        // u64 shift: with a single stripe `shard_bits` is 0 and the
        // capacity is the full 2^32, which a u32 shift cannot express.
        packed < u64::from(NO_REF),
        "canon table stripe overflow: {index} does not fit a packed CanonRef"
    );
    CanonRef::from_bits(packed as u32)
}

/// The one `u32` no packed ref takes: a slot's encoding of "no ref"
/// (an absent child, an empty map).
pub(crate) const NO_REF: u32 = u32::MAX;

/// A slot word holding an optional ref.
#[inline]
pub(crate) fn opt_bits(r: Option<CanonRef>) -> u64 {
    u64::from(r.map_or(NO_REF, CanonRef::to_bits))
}

/// Inverse of [`opt_bits`] on a word's low 32 bits.
#[inline]
pub(crate) fn bits_opt(word: u64) -> Option<CanonRef> {
    let bits = word as u32;
    (bits != NO_REF).then(|| CanonRef::from_bits(bits))
}

#[inline]
fn unpack_ref(shard_bits: u32, shard_mask: u32, r: CanonRef) -> (usize, usize) {
    let bits = r.to_bits();
    ((bits & shard_mask) as usize, (bits >> shard_bits) as usize)
}

/// An index slot: the high 32 bits are the node hash's tag, the low 32
/// bits the node's position in its stripe. [`slot_tag`] never yields 0,
/// so an occupied slot is never [`EMPTY_SLOT`], even at position 0 of a
/// single-stripe table.
const EMPTY_SLOT: u64 = 0;

/// Slots a stripe index starts with on its first insert.
const MIN_SLOTS: usize = 16;

/// The 32-bit tag a node hash stores in its index slot: its high half,
/// with 0 folded onto 1 so no tag can read as an empty slot.
#[inline]
fn slot_tag(hash: u64) -> u64 {
    (hash >> 32).max(1)
}

/// The occupied slot for a node with tag `tag` at `position`.
#[inline]
fn pack_slot(tag: u64, position: u32) -> u64 {
    (tag << 32) | u64::from(position)
}

/// log2 of a [`Segments`]' first chunk: chunk `k` holds
/// `2^(BASE_BITS + k)` slots, so [`CHUNKS`] chunks cover every `u32`
/// position.
const BASE_BITS: u32 = 4;
const CHUNKS: usize = 33 - BASE_BITS as usize;

/// The chunk of `position` and its offset in that chunk.
#[inline]
fn locate(position: usize) -> (usize, usize) {
    let shifted = position + (1 << BASE_BITS);
    let top = usize::BITS - 1 - shifted.leading_zeros();
    ((top - BASE_BITS) as usize, shifted - (1 << top))
}

/// Append-only storage whose published prefix is read without a lock.
/// Slots live in geometrically growing chunks that never move or free
/// before the storage drops. Only the holder of the writer mutex, whose
/// state `W` is a stripe's interning index or the name map, can push:
/// through the [`Appender`] that [`lock`](Self::lock) returns. Aligned to
/// two cache lines so neighbouring stripes never share one.
#[derive(Default)]
#[repr(align(128))]
struct Segments<S, W> {
    /// Published slot count: every slot below it is written.
    len: AtomicUsize,
    chunks: [OnceLock<Box<[S]>>; CHUNKS],
    writer: Mutex<W>,
}

impl<S: Default, W> Segments<S, W> {
    /// The published slot count.
    fn len(&self) -> usize {
        self.len.load(Ordering::Acquire)
    }

    /// The slot at `position`. Panics unless `position` is below the
    /// published length, as a `Vec` index would.
    #[inline]
    fn get(&self, position: usize) -> &S {
        let len = self.len();
        if position >= len {
            past_published(position, len);
        }
        let (chunk, offset) = locate(position);
        &self.chunks[chunk].get().expect("a published chunk exists")[offset]
    }

    /// Locks the writer mutex, and says whether another thread held it
    /// first (a count, not a timing: reading a clock costs a third of a
    /// probe).
    fn lock(&self) -> (Appender<'_, S, W>, bool) {
        let (state, waited) = match self.writer.try_lock() {
            Ok(state) => (state, false),
            Err(TryLockError::WouldBlock) => {
                (self.writer.lock().expect("canon writer poisoned"), true)
            }
            Err(TryLockError::Poisoned(_)) => panic!("canon writer poisoned"),
        };
        (Appender { log: self, state }, waited)
    }
}

/// Out of line, so a read's hot path keeps its operands in registers.
#[cold]
#[inline(never)]
fn past_published(position: usize, len: usize) -> ! {
    panic!("canon position {position} is past the published length {len}")
}

/// The one writer of a [`Segments`]: its locked writer state, and the
/// right to push.
struct Appender<'a, S, W> {
    log: &'a Segments<S, W>,
    state: MutexGuard<'a, W>,
}

impl<S: Default, W> Appender<'_, S, W> {
    /// Fills the next slot with `fill`, then publishes it; returns its
    /// position.
    fn push(&mut self, fill: impl FnOnce(&S)) -> usize {
        let position = self.log.len.load(Ordering::Relaxed);
        let (chunk, offset) = locate(position);
        let slots = self.log.chunks[chunk].get_or_init(|| {
            (0..1usize << (BASE_BITS as usize + chunk))
                .map(|_| S::default())
                .collect()
        });
        fill(&slots[offset]);
        self.log.len.store(position + 1, Ordering::Release);
        position
    }
}

/// What a child ref or a name in a node addresses: the names, or the
/// table of one node kind. A snapshot writes one run per kind, and a
/// child's position counts within the run of its kind.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum Kind {
    Name,
    Canon,
    Pos,
    Struct,
    Map,
    Key,
}

impl Kind {
    pub(crate) const COUNT: usize = 6;
}

/// A child ref or a name in a node's words: the word, the offset of its
/// 32 bits in it, what it addresses, and whether it may be absent
/// ([`NO_REF`]).
pub(crate) type Field = (usize, u32, Kind, bool);

/// A node kind a [`NodeTable`] holds: a fixed number of words per node,
/// stored in a slot of exactly that many atomic words.
pub(crate) trait TableNode: Copy + Eq {
    /// The node's words, `[u64; K]`: equal iff the nodes are, so the
    /// table compares and hashes words.
    type Words: Copy + Eq + Default + AsRef<[u64]> + AsMut<[u64]>;
    /// Its slot: `K` atomic words.
    type Slot: Default + Send + Sync + WordSlot<Words = Self::Words>;
    /// The kind, whose table and snapshot run the node lives in.
    const KIND: Kind;
    /// The leading words a snapshot writes; the rest are derived from
    /// them ([`TableNode::loaded`]).
    const SAVED: usize = std::mem::size_of::<Self::Words>() / 8;
    fn encode(self) -> Self::Words;
    /// Total: words no node encodes decode to a node that encodes to
    /// other words.
    fn decode(words: Self::Words) -> Self;
    /// Where the child refs and names of the node `words` encode sit.
    fn fields(words: &Self::Words) -> &'static [Field];
    /// The table of this kind in `table`.
    fn nodes(table: &CanonTable) -> &NodeTable<Self>;
    /// The node with its derived words recomputed for `table`.
    fn loaded(self, _table: &CanonTable) -> Self {
        self
    }
}

/// `words` with each child ref and name passed through `f` with the kind
/// it addresses (an absent ref stays absent); `None` if `f` refuses one.
pub(crate) fn relink<N: TableNode>(
    mut words: N::Words,
    mut f: impl FnMut(Kind, u32) -> Option<u32>,
) -> Option<N::Words> {
    for &(at, shift, kind, optional) in N::fields(&words) {
        let word = &mut words.as_mut()[at];
        let bits = (*word >> shift) as u32;
        if !(optional && bits == NO_REF) {
            let new = u64::from(f(kind, bits)?);
            *word = (*word & !(0xFFFF_FFFF << shift)) | new << shift;
        }
    }
    Some(words)
}

/// One kind's share of what some roots reach: its refs (for the names,
/// name indices) in the order [`reach`] placed them, children first,
/// each one's position, and the refs it has yet to place.
#[derive(Default)]
pub(crate) struct Run {
    pub(crate) refs: Vec<u32>,
    pub(crate) at: IndexMap<u32, u32>,
    pub(crate) pending: Vec<u32>,
}

impl Run {
    /// Places `r` last, unless it is placed already.
    pub(crate) fn place(&mut self, r: u32) {
        if let Entry::Vacant(slot) = self.at.entry(r) {
            slot.insert(self.refs.len() as u32);
            self.refs.push(r);
        }
    }
}

/// Places the nodes of kind `N` that its run's pending refs reach in
/// `N`'s table, children first, and the names they hold, and leaves the
/// refs they hold of other kinds pending in those kinds' runs.
pub(crate) fn reach<N: TableNode>(table: &CanonTable, runs: &mut [Run; Kind::COUNT]) {
    let mut own = std::mem::take(&mut runs[N::KIND as usize]);
    let mut stack: Vec<(u32, bool)> = own.pending.drain(..).map(|r| (r, false)).collect();
    while let Some((r, expanded)) = stack.pop() {
        if expanded {
            own.place(r);
        } else if !own.at.contains_key(&r) {
            stack.push((r, true));
            let words = N::nodes(table).node(CanonRef::from_bits(r)).encode();
            relink::<N>(words, |kind, bits| {
                match kind {
                    _ if kind == N::KIND => stack.push((bits, false)),
                    // A name refers to nothing: placed where first met.
                    Kind::Name => runs[Kind::Name as usize].place(bits),
                    _ => runs[kind as usize].pending.push(bits),
                }
                Some(bits)
            });
        }
    }
    runs[N::KIND as usize] = own;
}

/// The hash that routes a node to a stripe and an index slot: its words
/// folded through the splitmix64 finaliser, so every bit is mixed.
#[inline]
fn words_hash(words: &[u64]) -> u64 {
    words.iter().fold(0, |h, &word| mix64(h ^ word))
}

/// Storage of one node's words. Its writer stores every word before it
/// publishes the slot, so `Relaxed` accesses suffice on both sides.
pub(crate) trait WordSlot {
    type Words;
    fn store(&self, words: Self::Words);
    fn load(&self) -> Self::Words;
}

/// `K` atomic words: the slot of a `K`-word node kind.
pub(crate) struct Words<const K: usize>([AtomicU64; K]);

impl<const K: usize> Default for Words<K> {
    fn default() -> Self {
        Words(std::array::from_fn(|_| AtomicU64::new(0)))
    }
}

impl<const K: usize> WordSlot for Words<K> {
    type Words = [u64; K];

    #[inline]
    fn store(&self, words: [u64; K]) {
        for (slot, word) in self.0.iter().zip(words) {
            slot.store(word, Ordering::Relaxed);
        }
    }

    #[inline]
    fn load(&self) -> [u64; K] {
        std::array::from_fn(|i| self.0[i].load(Ordering::Relaxed))
    }
}

// The resident-bytes figure (nodes × slot size) is the true slot cost.
const _: () = assert!(std::mem::size_of::<Words<2>>() == std::mem::size_of::<CanonNode>());

/// A canonical de Bruijn node: a variant tag word and a payload word.
impl TableNode for CanonNode {
    type Words = [u64; 2];
    type Slot = Words<2>;
    const KIND: Kind = Kind::Canon;

    fn encode(self) -> [u64; 2] {
        let pair = |a: CanonRef, b: CanonRef| u64::from(a.to_bits()) | u64::from(b.to_bits()) << 32;
        match self {
            CanonNode::BVar(i) => [0, u64::from(i)],
            CanonNode::FVar(id) => [1, u64::from(id.index())],
            CanonNode::Lam(b) => [2, u64::from(b.to_bits())],
            CanonNode::App(f, a) => [3, pair(f, a)],
            CanonNode::Let(r, b) => [4, pair(r, b)],
            CanonNode::Lit(Literal::I64(v)) => [5, v as u64],
            CanonNode::Lit(Literal::F64Bits(bits)) => [6, bits],
            CanonNode::Lit(Literal::Bool(b)) => [7, u64::from(b)],
        }
    }

    #[inline]
    fn decode([tag, payload]: [u64; 2]) -> Self {
        let low = CanonRef::from_bits(payload as u32);
        let high = CanonRef::from_bits((payload >> 32) as u32);
        match tag {
            0 => CanonNode::BVar(payload as u32),
            1 => CanonNode::FVar(NameId::from_index(payload as u32)),
            2 => CanonNode::Lam(low),
            3 => CanonNode::App(low, high),
            4 => CanonNode::Let(low, high),
            5 => CanonNode::Lit(Literal::I64(payload as i64)),
            6 => CanonNode::Lit(Literal::F64Bits(payload)),
            _ => CanonNode::Lit(Literal::Bool(payload != 0)),
        }
    }

    fn fields([tag, _]: &[u64; 2]) -> &'static [Field] {
        match tag {
            1 => &[(1, 0, Kind::Name, false)],
            2 => &[(1, 0, Kind::Canon, false)],
            3 | 4 => &[(1, 0, Kind::Canon, false), (1, 32, Kind::Canon, false)],
            _ => &[],
        }
    }

    fn nodes(table: &CanonTable) -> &NodeTable<Self> {
        &table.db
    }
}

/// One stripe of a [`NodeTable`]: its nodes, written under the stripe's
/// writer mutex, and the interning index over them. The mutex serialises
/// interning per stripe and is held across check-and-insert, so each node
/// is appended exactly once; lookups read the index without it.
struct Stripe<N: TableNode> {
    nodes: Segments<N::Slot, StripeCounts>,
    index: StripeIndex,
}

impl<N: TableNode> Default for Stripe<N> {
    fn default() -> Self {
        Stripe {
            nodes: Segments::default(),
            index: StripeIndex::default(),
        }
    }
}

/// A stripe's intern counters: the writer state of its nodes, so they
/// are plain integers that only the stripe's own writer touches — no
/// cache line is shared between stripes.
#[derive(Default)]
struct StripeCounts {
    /// Probes answered by a node already resident in the stripe.
    hits: u64,
    /// Probes that appended a fresh node to the stripe.
    misses: u64,
    /// Probes that found the writer mutex held and had to block.
    waits: u64,
}

/// Index generations a stripe can grow through: generation `g` holds
/// `MIN_SLOTS << g` slots, so the last one indexes every `u32` position.
const GENERATIONS: usize = 32;

/// A stripe's interning index: open addressing with linear probing over
/// packed `(tag, position)` slots, one `u64` each, at most 3/4 full. Only
/// the holder of the stripe's writer mutex fills a slot — after the
/// node's own slot is published — or rebuilds the index at double size
/// into the next generation, which it publishes whole. Readers probe the
/// published generation without a lock. Generations are freed only with
/// the table, together at most the size of the newest, so a reader on an
/// older one reads a valid index that merely lacks the newest nodes.
#[derive(Default)]
struct StripeIndex {
    /// Generations built so far; the newest is the live one.
    built: AtomicUsize,
    generations: [OnceLock<Box<[AtomicU64]>>; GENERATIONS],
}

impl StripeIndex {
    /// The live generation's slots (none before the first insert).
    #[inline]
    fn slots(&self) -> &[AtomicU64] {
        match self.built.load(Ordering::Acquire) {
            0 => &[],
            g => self.generations[g - 1]
                .get()
                .expect("a built generation is set"),
        }
    }

    /// The position of the node encoding to `words` in `nodes`, or `Err`
    /// with the empty slot where it belongs. `probe` is the node hash with
    /// the stripe bits shifted out. A tag match is confirmed against the
    /// stored node's words.
    fn find<N: TableNode>(
        &self,
        nodes: &Segments<N::Slot, StripeCounts>,
        probe: u64,
        tag: u64,
        words: &N::Words,
    ) -> Result<u32, usize> {
        let slots = self.slots();
        if slots.is_empty() {
            // No slot yet: the insert that follows builds the index.
            return Err(0);
        }
        let mask = slots.len() - 1;
        let mut at = probe as usize & mask;
        loop {
            let slot = slots[at].load(Ordering::Acquire);
            if slot == EMPTY_SLOT {
                return Err(at);
            }
            if slot >> 32 == tag && nodes.get(slot as u32 as usize).load() == *words {
                return Ok(slot as u32);
            }
            at = (at + 1) & mask;
        }
    }

    /// Fills an empty slot, found by [`find`](Self::find), with the
    /// stripe's newest node at `position` — or, when that would push the
    /// load past 3/4, builds the next generation from `nodes` (which
    /// already holds the new node). The caller holds the writer mutex.
    fn insert<N: TableNode>(
        &self,
        nodes: &Segments<N::Slot, StripeCounts>,
        shard_bits: u32,
        empty: usize,
        tag: u64,
        position: u32,
    ) {
        let len = position + 1;
        let slots = self.slots();
        if len as usize * 4 <= slots.len() * 3 {
            slots[empty].store(pack_slot(tag, position), Ordering::Release);
            return;
        }
        let mut g = self.built.load(Ordering::Relaxed);
        while len as usize * 4 > (MIN_SLOTS << g) * 3 {
            g += 1;
        }
        let mask = (MIN_SLOTS << g) - 1;
        let mut fresh: Box<[AtomicU64]> = (0..=mask).map(|_| AtomicU64::new(EMPTY_SLOT)).collect();
        for position in 0..len {
            let hash = words_hash(nodes.get(position as usize).load().as_ref());
            let mut at = (hash >> shard_bits) as usize & mask;
            while *fresh[at].get_mut() != EMPTY_SLOT {
                at = (at + 1) & mask;
            }
            *fresh[at].get_mut() = pack_slot(slot_tag(hash), position);
        }
        assert!(
            self.generations[g].set(fresh).is_ok(),
            "an index generation is built once"
        );
        self.built.store(g + 1, Ordering::Release);
    }
}

/// Intern-probe counts of a [`CanonTable`], summed over its stripes.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct InternStats {
    /// Probes answered from the table (node already resident).
    pub(crate) hits: u64,
    /// Probes that appended a fresh node. Equals
    /// [`CanonTable::resident_nodes`] exactly: the stripe index mutex is
    /// held across the check-and-insert, so no probe is double counted.
    pub(crate) misses: u64,
    /// Probes that found their stripe's index locked by another thread.
    pub(crate) stripe_waits: u64,
}

impl InternStats {
    fn plus(self, other: InternStats) -> InternStats {
        InternStats {
            hits: self.hits + other.hits,
            misses: self.misses + other.misses,
            stripe_waits: self.stripe_waits + other.stripe_waits,
        }
    }
}

/// A sharded, hash-consed table of one node kind: equal nodes intern to
/// one [`CanonRef`], so ref equality is node equality, and by induction
/// over the children term identity.
pub(crate) struct NodeTable<N: TableNode> {
    shards: Vec<Stripe<N>>,
    /// log2 of the stripe count: how far packed refs shift their index.
    shard_bits: u32,
    /// Stripe count minus one, for masking node hashes and packed refs.
    shard_mask: u32,
}

impl<N: TableNode> NodeTable<N> {
    fn with_shards(count: usize) -> Self {
        NodeTable {
            shards: (0..count).map(|_| Stripe::<N>::default()).collect(),
            shard_bits: count.trailing_zeros(),
            shard_mask: count as u32 - 1,
        }
    }

    /// Interns one node (children already interned), returning its ref.
    /// Idempotent: equal nodes always return the same ref. One node hash
    /// serves the whole probe: its low `shard_bits` pick the stripe, the
    /// bits above them the first index slot, its high half the tag.
    pub(crate) fn intern(&self, node: N) -> CanonRef {
        let words = node.encode();
        let hash = words_hash(words.as_ref());
        let shard = (hash & u64::from(self.shard_mask)) as usize;
        let stripe = &self.shards[shard];
        let tag = slot_tag(hash);
        let (mut writer, waited) = stripe.nodes.lock();
        writer.state.waits += u64::from(waited);
        let probe = hash >> self.shard_bits;
        match stripe.index.find::<N>(&stripe.nodes, probe, tag, &words) {
            Ok(position) => {
                writer.state.hits += 1;
                pack_ref(self.shard_bits, shard, position)
            }
            Err(empty) => {
                let position = writer.push(|slot| slot.store(words));
                let position = u32::try_from(position).expect("canon stripe overflow");
                stripe
                    .index
                    .insert::<N>(&stripe.nodes, self.shard_bits, empty, tag, position);
                writer.state.misses += 1;
                pack_ref(self.shard_bits, shard, position)
            }
        }
    }

    /// The ref of `node` if it is resident, without interning it or
    /// counting a probe: the read-only probes' lookup, which takes no
    /// lock. A node interned concurrently may or may not be seen.
    pub(crate) fn find(&self, node: &N) -> Option<CanonRef> {
        let words = node.encode();
        let hash = words_hash(words.as_ref());
        let shard = (hash & u64::from(self.shard_mask)) as usize;
        let stripe = &self.shards[shard];
        let position = stripe
            .index
            .find::<N>(
                &stripe.nodes,
                hash >> self.shard_bits,
                slot_tag(hash),
                &words,
            )
            .ok()?;
        Some(pack_ref(self.shard_bits, shard, position))
    }

    /// The node behind `r`: a lock-free read. Panics if `r` is past its
    /// stripe's published length.
    #[inline]
    pub(crate) fn node(&self, r: CanonRef) -> N {
        let (shard, position) = unpack_ref(self.shard_bits, self.shard_mask, r);
        N::decode(self.shards[shard].nodes.get(position).load())
    }

    /// The stripes' intern-probe counts, one lock each.
    pub(crate) fn stats(&self) -> InternStats {
        self.shards
            .iter()
            .fold(InternStats::default(), |sum, stripe| {
                let counts = &stripe.nodes.lock().0.state;
                sum.plus(InternStats {
                    hits: counts.hits,
                    misses: counts.misses,
                    stripe_waits: counts.waits,
                })
            })
    }

    /// Resident distinct nodes across all stripes.
    fn resident(&self) -> u64 {
        self.shards.iter().map(|s| s.nodes.len() as u64).sum()
    }

    /// Resident bytes: nodes at their slot size.
    fn resident_bytes(&self) -> u64 {
        self.resident() * std::mem::size_of::<N::Slot>() as u64
    }
}

/// A name and its order key.
type NameSlot = (Box<str>, u64);

/// The shared, sharded, hash-consed canon tables: one per
/// [`AlphaStore`](crate::AlphaStore). Every class and every interned
/// prepared entry holds a [`CanonRef`] into it: a de Bruijn root in a
/// `Roots` store, an e-summary key (see [`crate::esummary`]) in a
/// `Subexpressions` store. Each node kind has its own [`NodeTable`];
/// free-variable names are shared by both shapes.
pub(crate) struct CanonTable {
    /// Canonical de Bruijn nodes.
    db: NodeTable<CanonNode>,
    /// §4.8 structures, position trees, variable-map treap nodes and
    /// class keys.
    pub(crate) structs: NodeTable<StructNode>,
    pub(crate) positions: NodeTable<PosNode>,
    pub(crate) maps: NodeTable<MapNode>,
    pub(crate) keys: NodeTable<KeyNode>,
    /// Free-variable names by [`NameId`], each with its order key (see
    /// [`CanonTable::name_order`]), written under the name map.
    names: Segments<OnceLock<NameSlot>, HashMap<Box<str>, u32>>,
}

impl CanonTable {
    /// A table with [`default_table_shards`] stripes.
    pub(crate) fn new() -> Self {
        Self::with_shards(default_table_shards())
    }

    /// A table with `count` lock stripes per node kind. `count` must be a
    /// power of two in `1..=`[`MAX_TABLE_SHARDS`].
    pub(crate) fn with_shards(count: usize) -> Self {
        assert!(
            count.is_power_of_two() && count <= MAX_TABLE_SHARDS,
            "canon table stripe count must be a power of two in 1..={MAX_TABLE_SHARDS}, got {count}"
        );
        CanonTable {
            db: NodeTable::with_shards(count),
            structs: NodeTable::with_shards(count),
            positions: NodeTable::with_shards(count),
            maps: NodeTable::with_shards(count),
            keys: NodeTable::with_shards(count),
            names: Segments::default(),
        }
    }

    /// Number of lock stripes this table was built with.
    pub(crate) fn shard_count(&self) -> usize {
        self.db.shards.len()
    }

    /// Interns one de Bruijn node (children already interned), returning
    /// its ref.
    pub(crate) fn intern_node(&self, node: CanonNode) -> CanonRef {
        self.db.intern(node)
    }

    /// The de Bruijn node behind `r`: a lock-free read.
    #[inline]
    pub(crate) fn node(&self, r: CanonRef) -> CanonNode {
        self.db.node(r)
    }

    /// The name string behind `id`: a lock-free read.
    #[inline]
    pub(crate) fn name(&self, id: NameId) -> &str {
        &self
            .names
            .get(id.index() as usize)
            .get()
            .expect("a published name is set")
            .0
    }

    /// The order key of the name behind `id`: a hash of its string, so
    /// that how names compare — and the shape of every variable-map treap
    /// — does not depend on the order in which names were interned. A
    /// lock-free read.
    #[inline]
    pub(crate) fn name_order(&self, id: NameId) -> u64 {
        self.names
            .get(id.index() as usize)
            .get()
            .expect("a published name is set")
            .1
    }

    /// The intern-probe counts since construction, over every node kind
    /// — the dedup ratio of the hash-consing layer and its stripe
    /// contention, read by the obs surface.
    pub(crate) fn intern_stats(&self) -> InternStats {
        self.db
            .stats()
            .plus(self.structs.stats())
            .plus(self.positions.stats())
            .plus(self.maps.stats())
            .plus(self.keys.stats())
    }

    /// Interns a free-variable name, returning its global id. Idempotent.
    pub(crate) fn intern_name(&self, name: &str) -> NameId {
        let mut writer = self.names.lock().0;
        if let Some(&index) = writer.state.get(name) {
            return NameId::from_index(index);
        }
        let order = hash_str(0, name);
        let index = writer.push(|slot| {
            slot.set((name.into(), order))
                .expect("a fresh name slot is empty")
        });
        let index = u32::try_from(index).expect("name table overflow");
        writer.state.insert(name.into(), index);
        NameId::from_index(index)
    }

    /// The id of `name` if the table holds it, without interning it.
    pub(crate) fn find_name(&self, name: &str) -> Option<NameId> {
        let writer = self.names.lock().0;
        writer
            .state
            .get(name)
            .map(|&index| NameId::from_index(index))
    }

    /// Resident distinct nodes across all stripes and node kinds.
    pub(crate) fn resident_nodes(&self) -> u64 {
        self.db.resident()
            + self.structs.resident()
            + self.positions.resident()
            + self.maps.resident()
            + self.keys.resident()
    }

    /// Resident bytes: every node of every kind at its slot size, plus
    /// the name strings.
    pub(crate) fn resident_bytes(&self) -> u64 {
        self.db.resident_bytes()
            + self.structs.resident_bytes()
            + self.positions.resident_bytes()
            + self.maps.resident_bytes()
            + self.keys.resident_bytes()
            + self.resident_names().1
    }

    /// Resident distinct names and their total string bytes.
    pub(crate) fn resident_names(&self) -> (u64, u64) {
        let count = self.names.len() as u32;
        let bytes = (0..count)
            .map(|id| self.name(NameId::from_index(id)).len() as u64)
            .sum();
        (u64::from(count), bytes)
    }
}

/// Scratch of the walks over a named term — [`eq_named`],
/// [`intern_named`] and the WAL's insert record framing
/// (`crate::persist::wal::frame_record`) — kept by a preparer, so a warm
/// walk allocates nothing.
#[derive(Default)]
pub(crate) struct NamedScratch {
    /// The binder environment of [`eq_named`] and [`intern_named`].
    scope: Scope,
    /// [`intern_named`]'s traversal.
    walk: ScopeStack,
    /// [`intern_named`]'s interned children, awaiting their parent.
    refs: Vec<CanonRef>,
    /// [`eq_named`]'s pending node pairs and scope brackets.
    pairs: Vec<EqTask>,
    /// Free name → the table [`NameId`] the walk gave it ([`eq_named`],
    /// [`intern_named`]).
    free: IndexMap<Symbol, u32>,
    /// The record framer's term encoding buffers.
    pub(crate) term: TermScratch,
}

/// The binder environment of a walk over a named term: each bound symbol
/// maps to its binding level (the binders above it), and `saved` holds
/// the outer bindings the live binders shadow, so its length is the
/// current depth.
#[derive(Default)]
struct Scope {
    env: IndexMap<Symbol, u32>,
    saved: Vec<Option<u32>>,
}

impl Scope {
    /// Empties the environment, which a walk that returned early may
    /// have left bound.
    fn clear(&mut self) {
        self.env.clear();
        self.saved.clear();
    }

    /// Brings `sym` into scope one level deeper, remembering the binding
    /// it shadows.
    fn bind(&mut self, sym: Symbol) {
        let level = self.saved.len() as u32;
        self.saved.push(self.env.insert(sym, level));
    }

    /// Takes `sym` out of scope, restoring the binding [`bind`](Self::bind)
    /// shadowed.
    fn unbind(&mut self, sym: Symbol) {
        match self.saved.pop().expect("balanced bind/unbind") {
            Some(level) => self.env.insert(sym, level),
            None => self.env.remove(&sym),
        };
    }

    /// The de Bruijn index of an occurrence of `sym`, `None` if it is
    /// free: `level` counts binders from the root, the index from the
    /// occurrence inward.
    fn index(&self, sym: Symbol) -> Option<u32> {
        let depth = self.saved.len() as u32;
        self.env.get(&sym).map(|&level| depth - level - 1)
    }
}

/// Interns the de Bruijn form of the named term at `root` of `arena`,
/// node by node, in the post-order `to_debruijn` builds its arena in, and
/// returns its ref: how a `Roots` insert that creates a class puts its
/// form in the table. Binders need not be distinct: a shadowed name
/// interns as its `uniquify`d copy does. Each free name is interned once
/// per term.
pub(crate) fn intern_named(
    table: &CanonTable,
    arena: &ExprArena,
    root: NodeId,
    scratch: &mut NamedScratch,
) -> CanonRef {
    let NamedScratch {
        scope,
        walk,
        refs,
        free,
        ..
    } = scratch;
    scope.clear();
    refs.clear();
    free.clear();
    walk_scoped_with(arena, root, walk, |event| match event {
        ScopeEvent::Enter(_) => {}
        ScopeEvent::Bind { sym, .. } => scope.bind(sym),
        ScopeEvent::Unbind { sym, .. } => scope.unbind(sym),
        ScopeEvent::Exit(n) => {
            let mut pop = || refs.pop().expect("a child's ref");
            let node = match arena.node(n) {
                ExprNode::Var(s) => match scope.index(s) {
                    Some(i) => CanonNode::BVar(i),
                    None => {
                        let id = *free
                            .entry(s)
                            .or_insert_with(|| table.intern_name(arena.name(s)).index());
                        CanonNode::FVar(NameId::from_index(id))
                    }
                },
                ExprNode::Lit(l) => CanonNode::Lit(l),
                ExprNode::Lam(..) => CanonNode::Lam(pop()),
                ExprNode::App(..) => {
                    let arg = pop();
                    CanonNode::App(pop(), arg)
                }
                ExprNode::Let(..) => {
                    let body = pop();
                    CanonNode::Let(pop(), body)
                }
            };
            refs.push(table.intern_node(node));
        }
    });
    refs.pop().expect("a term has a root")
}

/// [`eq_named`]'s work: a node pair to compare, or a binder coming into
/// or going out of scope.
enum EqTask {
    Pair(NodeId, CanonRef),
    Bind(Symbol),
    Unbind(Symbol),
}

/// Whether the named term at `root` of `arena` has the interned de Bruijn
/// form `cref`: the walk that confirms a `Roots` entry against a class.
/// Exactly [`lambda_lang::debruijn::db_eq`] of the term's `to_debruijn`
/// form and `cref`'s, without building either: the named term is walked
/// against the DAG under a binder environment, shadowed binders saved and
/// restored, bound occurrences compared by index, free ones by name and
/// literals by value. On success it has visited every node once, so a
/// confirmed walk is as long as the term.
pub(crate) fn eq_named(
    table: &CanonTable,
    cref: CanonRef,
    arena: &ExprArena,
    root: NodeId,
    scratch: &mut NamedScratch,
) -> bool {
    let NamedScratch {
        scope, pairs, free, ..
    } = scratch;
    scope.clear();
    free.clear();
    pairs.clear();
    pairs.push(EqTask::Pair(root, cref));
    while let Some(task) = pairs.pop() {
        let (n, r) = match task {
            EqTask::Pair(n, r) => (n, r),
            EqTask::Bind(x) => {
                scope.bind(x);
                continue;
            }
            EqTask::Unbind(x) => {
                scope.unbind(x);
                continue;
            }
        };
        match (arena.node(n), table.node(r)) {
            (ExprNode::Var(s), CanonNode::BVar(i)) => {
                if scope.index(s) != Some(i) {
                    return false;
                }
            }
            (ExprNode::Var(s), CanonNode::FVar(id)) => {
                if scope.index(s).is_some() {
                    return false;
                }
                // Names intern to one id each, so after one string
                // compare a free symbol's id stands for its name.
                match free.entry(s) {
                    Entry::Occupied(seen) => {
                        if *seen.get() != id.index() {
                            return false;
                        }
                    }
                    Entry::Vacant(slot) => {
                        if table.name(id) != arena.name(s) {
                            return false;
                        }
                        slot.insert(id.index());
                    }
                }
            }
            (ExprNode::Lit(l1), CanonNode::Lit(l2)) => {
                if l1 != l2 {
                    return false;
                }
            }
            (ExprNode::Lam(x, body), CanonNode::Lam(b)) => {
                pairs.push(EqTask::Unbind(x));
                pairs.push(EqTask::Pair(body, b));
                pairs.push(EqTask::Bind(x));
            }
            (ExprNode::App(f1, a1), CanonNode::App(f2, a2)) => {
                pairs.push(EqTask::Pair(a1, a2));
                pairs.push(EqTask::Pair(f1, f2));
            }
            (ExprNode::Let(x, rhs, body), CanonNode::Let(r2, b2)) => {
                // The rhs is outside the binder's scope.
                pairs.push(EqTask::Unbind(x));
                pairs.push(EqTask::Pair(body, b2));
                pairs.push(EqTask::Bind(x));
                pairs.push(EqTask::Pair(rhs, r2));
            }
            _ => return false,
        }
    }
    true
}

/// Extracts the interned de Bruijn term `cref` into a fresh [`DbArena`],
/// **preserving sharing** (each distinct ref becomes one arena node, in
/// the order [`reach`] places them): how a `Roots` class leaves the
/// table for printing, representatives and updates.
pub(crate) fn extract_one(table: &CanonTable, cref: CanonRef) -> (DbArena, DbId) {
    let mut runs: [Run; Kind::COUNT] = Default::default();
    let run = &mut runs[Kind::Canon as usize];
    run.pending.push(cref.to_bits());
    reach::<CanonNode>(table, &mut runs);
    let run = &runs[Kind::Canon as usize];
    let mut dst = DbArena::new();
    let mut ids: Vec<DbId> = Vec::with_capacity(run.refs.len());
    for &r in &run.refs {
        let id = |c: CanonRef| ids[run.at[&c.to_bits()] as usize];
        let node = match table.node(CanonRef::from_bits(r)) {
            CanonNode::BVar(i) => DbNode::BVar(i),
            CanonNode::FVar(name) => DbNode::FVar(dst.intern(table.name(name))),
            CanonNode::Lam(b) => DbNode::Lam(id(b)),
            CanonNode::App(f, a) => DbNode::App(id(f), id(a)),
            CanonNode::Let(rhs, b) => DbNode::Let(id(rhs), id(b)),
            CanonNode::Lit(l) => DbNode::Lit(l),
        };
        ids.push(dst.push(node));
    }
    // The root is placed last.
    (dst, *ids.last().expect("a term has a root"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use lambda_lang::debruijn::{db_eq, db_print, to_debruijn};
    use lambda_lang::parse::parse;
    use lambda_lang::{ExprArena, Literal};

    impl CanonTable {
        /// Interns the de Bruijn term rooted at `root` of `arena` bottom-up
        /// (arena order is topological), returning its ref: how tests build
        /// a table from de Bruijn forms.
        pub(crate) fn intern_arena(&self, arena: &DbArena, root: DbId) -> CanonRef {
            let names: Vec<NameId> = arena.names().map(|n| self.intern_name(n)).collect();
            let mut refs: Vec<CanonRef> = Vec::with_capacity(arena.len());
            for node in arena.nodes() {
                let canon = match node {
                    DbNode::BVar(i) => CanonNode::BVar(i),
                    DbNode::FVar(sym) => CanonNode::FVar(names[sym.index() as usize]),
                    DbNode::Lam(b) => CanonNode::Lam(refs[b.index()]),
                    DbNode::App(f, a) => CanonNode::App(refs[f.index()], refs[a.index()]),
                    DbNode::Let(r, b) => CanonNode::Let(refs[r.index()], refs[b.index()]),
                    DbNode::Lit(l) => CanonNode::Lit(l),
                };
                refs.push(self.intern_node(canon));
            }
            refs[root.index()]
        }
    }

    fn canon_of(src: &str) -> (DbArena, DbId) {
        let mut a = ExprArena::new();
        let root = parse(&mut a, src).unwrap();
        to_debruijn(&a, root)
    }

    #[test]
    fn interning_is_idempotent_and_identity_preserving() {
        let table = CanonTable::new();
        let (c1, r1) = canon_of(r"\x. \y. x + y*7");
        let (c2, r2) = canon_of(r"\p. \q. p + q*7"); // alpha-equal: same canon
        let (c3, r3) = canon_of(r"\p. \q. q + p*7"); // different term
        let i1 = table.intern_arena(&c1, r1);
        let i2 = table.intern_arena(&c2, r2);
        let i3 = table.intern_arena(&c3, r3);
        assert_eq!(i1, i2, "identical canonical forms intern to one ref");
        assert_ne!(i1, i3, "distinct terms intern to distinct refs");
        // Second interning allocated nothing new.
        let resident = table.resident_nodes();
        assert_eq!(table.intern_arena(&c1, r1), i1);
        assert_eq!(table.resident_nodes(), resident);
    }

    #[test]
    fn shared_suffixes_are_stored_once() {
        let table = CanonTable::new();
        // Both terms contain the subterm v + 7 — its nodes intern once.
        let (c1, r1) = canon_of("(v + 7) * 3");
        let (c2, r2) = canon_of("(v + 7) * 4");
        table.intern_arena(&c1, r1);
        let after_first = table.resident_nodes();
        table.intern_arena(&c2, r2);
        let after_second = table.resident_nodes();
        // Only `4` and the two fresh applications of `mul` are new.
        assert!(
            after_second - after_first < c2.len() as u64 / 2,
            "second term should reuse the shared v+7 structure: {after_first} -> {after_second}"
        );
    }

    /// A random named term of depth at most `depth` over three names, so
    /// that binders often shadow one another and a name occurs both free
    /// and bound.
    fn random_term(arena: &mut ExprArena, rng: &mut rand::rngs::StdRng, depth: u32) -> NodeId {
        use rand::Rng;
        let name = ["a", "b", "c"][rng.random_range(0..3)];
        let pick = if depth == 0 {
            rng.random_range(0..2u32)
        } else {
            rng.random_range(0..5u32)
        };
        match pick {
            0 => arena.var_named(name),
            1 => arena.lit(Literal::I64(rng.random_range(0..2))),
            2 => {
                let x = arena.intern(name);
                let body = random_term(arena, rng, depth - 1);
                arena.lam(x, body)
            }
            3 => {
                let f = random_term(arena, rng, depth - 1);
                let a = random_term(arena, rng, depth - 1);
                arena.app(f, a)
            }
            _ => {
                let x = arena.intern(name);
                let rhs = random_term(arena, rng, depth - 1);
                let body = random_term(arena, rng, depth - 1);
                arena.let_(x, rhs, body)
            }
        }
    }

    #[test]
    fn eq_named_agrees_with_db_eq() {
        use rand::SeedableRng;
        let table = CanonTable::new();
        let mut arena = ExprArena::new();
        let mut pairs: Vec<(NodeId, NodeId)> = [
            (r"\x. x + y", r"\p. p + y"),
            (r"\x. x + y", r"\q. q + z"),
            (r"\x. \x. x", r"\a. \b. b"),
            // A free name against a bound one of the same name.
            (r"\a. b", r"\b. b"),
            // The rhs is outside the binder.
            ("let a = a in a", "let b = b in b"),
            ("let a = a in a", "let b = a in b"),
            // A free name that an inner binder shadows.
            (r"a (\a. a)", r"a (\b. b)"),
            (r"a (\a. a)", r"b (\a. a)"),
            ("42", "42"),
            ("42", "43"),
        ]
        .iter()
        .map(|(s1, s2)| {
            (
                parse(&mut arena, s1).unwrap(),
                parse(&mut arena, s2).unwrap(),
            )
        })
        .collect();
        let mut rng = rand::rngs::StdRng::seed_from_u64(0xE94A3E);
        for i in 0..3000 {
            // Every third pair is a term and its `uniquify`d copy.
            let mut source = ExprArena::new();
            let generated = random_term(&mut source, &mut rng, 3);
            let t1 = arena.import_subtree(&source, generated);
            let t2 = if i % 3 == 0 {
                lambda_lang::uniquify::uniquify_into(&source, generated, &mut arena)
            } else {
                random_term(&mut arena, &mut rng, 3)
            };
            pairs.push((t1, t2));
        }
        // One scratch for every walk: a walk that fails part-way must not
        // leave state behind for the next.
        let mut scratch = NamedScratch::default();
        let mut agreed = [0usize; 2];
        for (t1, t2) in pairs {
            let (c1, r1) = to_debruijn(&arena, t1);
            let (c2, r2) = to_debruijn(&arena, t2);
            let cref = table.intern_arena(&c1, r1);
            assert_eq!(intern_named(&table, &arena, t1, &mut scratch), cref);
            let expected = db_eq(&c1, r1, &c2, r2);
            assert_eq!(
                eq_named(&table, cref, &arena, t2, &mut scratch),
                expected,
                "{} vs {}",
                db_print(&c1, r1),
                db_print(&c2, r2)
            );
            assert!(eq_named(&table, cref, &arena, t1, &mut scratch));
            agreed[usize::from(expected)] += 1;
        }
        assert!(agreed[0] > 1000 && agreed[1] > 1000, "{agreed:?}");
    }

    #[test]
    fn extract_round_trips_and_preserves_sharing() {
        let table = CanonTable::new();
        let (c, r) = canon_of(r"foo (\x. x+7) (\y. y+7) ((v+1) * (v+1))");
        let cref = table.intern_arena(&c, r);
        let (out, out_root) = extract_one(&table, cref);
        assert!(db_eq(&c, r, &out, out_root), "extraction changed the term");
        // Sharing survives: the extracted arena holds one node per
        // *distinct* subterm, strictly fewer than the tree size.
        assert!(out.len() < c.len(), "{} vs {}", out.len(), c.len());
        assert_eq!(db_print(&out, out_root), db_print(&c, r));
    }

    #[test]
    fn deep_terms_are_stack_safe_through_the_table() {
        let table = CanonTable::new();
        let mut a = ExprArena::new();
        let x = a.intern("x");
        let mut e = a.var(x);
        for _ in 0..120_000 {
            e = a.lam(x, e);
        }
        let (c, r) = to_debruijn(&a, e);
        let cref = table.intern_arena(&c, r);
        assert_eq!(table.resident_nodes(), 120_001);
        let (out, out_root) = extract_one(&table, cref);
        assert_eq!(out.len(), 120_001);
        assert!(matches!(out.node(out_root), DbNode::Lam(_)));
    }

    #[test]
    fn stripe_counts_are_interchangeable_views_of_the_same_terms() {
        // The stripe count is a per-process concurrency knob: the same
        // corpus interned under 1, 4, or 256 stripes yields identical
        // equality structure (refs differ in packing only).
        let sources = [r"\x. x + y", r"\p. p + y", r"\q. q + z", "v * (v + 1)"];
        let canons: Vec<(DbArena, DbId)> = sources.iter().map(|s| canon_of(s)).collect();
        let baseline = CanonTable::new();
        let base_refs: Vec<CanonRef> = canons
            .iter()
            .map(|(c, r)| baseline.intern_arena(c, *r))
            .collect();
        for count in [1usize, 4, MAX_TABLE_SHARDS] {
            let table = CanonTable::with_shards(count);
            assert_eq!(table.shard_count(), count);
            let refs: Vec<CanonRef> = canons
                .iter()
                .map(|(c, r)| table.intern_arena(c, *r))
                .collect();
            for i in 0..refs.len() {
                for j in 0..refs.len() {
                    assert_eq!(
                        refs[i] == refs[j],
                        base_refs[i] == base_refs[j],
                        "{count} stripes disagree on {} vs {}",
                        sources[i],
                        sources[j]
                    );
                }
            }
            assert_eq!(table.resident_nodes(), baseline.resident_nodes());
            // Extraction round-trips under every stripe count.
            let (out, out_root) = extract_one(&table, refs[0]);
            assert!(db_eq(&canons[0].0, canons[0].1, &out, out_root));
        }
    }

    #[test]
    fn an_occupied_slot_never_reads_as_empty() {
        // At one stripe a node at position 0 whose hash has a zero high
        // half would pack to 0 without the tag fold.
        assert_eq!(slot_tag(0x0000_0000_dead_beef), 1);
        assert_ne!(pack_slot(slot_tag(0), 0), EMPTY_SLOT);
        assert_eq!(slot_tag(0xffff_ffff_0000_0000), 0xffff_ffff);
    }

    /// One thread's stream for the index oracle: `len` nodes whose
    /// children are earlier positions of the same stream, encoded as
    /// `CanonRef::from_bits(position)`. Chunks of 64 positions alternate
    /// between a stream `shared` by every thread and one `private` to
    /// this one, so the threads race on equal nodes and on distinct ones.
    fn oracle_stream(shared: u64, private: u64, len: usize) -> Vec<CanonNode> {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        const F64_BITS: [u64; 6] = [
            0,                     // 0.0
            0x8000_0000_0000_0000, // -0.0: equal as f64, distinct as bits
            0x7ff8_0000_0000_0000, // quiet NaN
            0x7ff8_0000_0000_0001, // another NaN payload
            0x3ff8_0000_0000_0000, // 1.5
            0xfff0_0000_0000_0000, // -inf
        ];
        let mut rngs = [
            StdRng::seed_from_u64(shared),
            StdRng::seed_from_u64(private),
        ];
        (0..len)
            .map(|p| {
                let rng = &mut rngs[usize::from((p / 64) % 3 == 0)];
                let earlier = |rng: &mut StdRng| {
                    let back = if rng.random_bool(0.8) {
                        rng.random_range(1..=p.min(8))
                    } else {
                        rng.random_range(1..=p)
                    };
                    CanonRef::from_bits((p - back) as u32)
                };
                let pick = if p == 0 {
                    0
                } else {
                    rng.random_range(0..10u32)
                };
                match pick {
                    0 => CanonNode::BVar(rng.random_range(0..16)),
                    1 => CanonNode::FVar(NameId::from_index(rng.random_range(0..64))),
                    2 => CanonNode::Lit(Literal::I64(rng.random_range(-50..50))),
                    3 => CanonNode::Lit(match rng.random_range(0..3u32) {
                        0 => Literal::Bool(rng.random()),
                        1 => Literal::F64Bits(F64_BITS[rng.random_range(0..F64_BITS.len())]),
                        _ => Literal::F64Bits(rng.random_range(0..1u64 << 12) << 40),
                    }),
                    4 | 5 => CanonNode::Lam(earlier(rng)),
                    6 | 7 => CanonNode::App(earlier(rng), earlier(rng)),
                    _ => CanonNode::Let(earlier(rng), earlier(rng)),
                }
            })
            .collect()
    }

    /// Interns `stream` (children as stream positions), returning each
    /// probe's node (children as table refs) and the ref it got. Hands
    /// every probe so far to `handoff` after each 64th.
    fn intern_stream(
        table: &CanonTable,
        stream: &[CanonNode],
        mut handoff: impl FnMut(&[(CanonNode, CanonRef)]),
    ) -> Vec<(CanonNode, CanonRef)> {
        let mut probes: Vec<(CanonNode, CanonRef)> = Vec::with_capacity(stream.len());
        for &spec in stream {
            let at = |c: CanonRef| probes[c.to_bits() as usize].1;
            let node = match spec {
                CanonNode::Lam(b) => CanonNode::Lam(at(b)),
                CanonNode::App(f, a) => CanonNode::App(at(f), at(a)),
                CanonNode::Let(r, b) => CanonNode::Let(at(r), at(b)),
                leaf => leaf,
            };
            probes.push((node, table.intern_node(node)));
            if probes.len().is_multiple_of(64) {
                handoff(&probes);
            }
        }
        probes
    }

    #[test]
    fn the_index_agrees_with_a_hash_map_oracle_under_two_threads() {
        // ~300k probes a table: enough to double every stripe's index
        // many times, at 1 stripe past 2^18 slots.
        const PER_THREAD: usize = 150_000;
        let streams = [
            oracle_stream(0x5EED, 0xA11CE, PER_THREAD),
            oracle_stream(0x5EED, 0xB0B, PER_THREAD),
        ];
        for count in [1usize, DEFAULT_TABLE_SHARDS, MAX_TABLE_SHARDS] {
            let table = CanonTable::with_shards(count);
            let start = std::sync::Barrier::new(streams.len());
            let probes: Vec<Vec<(CanonNode, CanonRef)>> = std::thread::scope(|scope| {
                let handles: Vec<_> = streams
                    .iter()
                    .map(|stream| {
                        scope.spawn(|| {
                            start.wait();
                            intern_stream(&table, stream, |_| {})
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().unwrap()).collect()
            });
            let mut by_node: HashMap<CanonNode, CanonRef> = HashMap::new();
            let mut by_ref: HashMap<CanonRef, CanonNode> = HashMap::new();
            for &(node, r) in probes.iter().flatten() {
                assert_eq!(
                    *by_node.entry(node).or_insert(r),
                    r,
                    "{count} stripes: equal nodes got distinct refs ({node:?})"
                );
                assert_eq!(
                    *by_ref.entry(r).or_insert(node),
                    node,
                    "{count} stripes: distinct nodes share {r:?}"
                );
                assert_eq!(
                    table.node(r),
                    node,
                    "{count} stripes: {r:?} reads back wrong"
                );
            }
            let stats = table.intern_stats();
            assert_eq!(stats.hits + stats.misses, 2 * PER_THREAD as u64);
            assert_eq!(stats.misses, table.resident_nodes());
            assert_eq!(stats.misses, by_node.len() as u64);
            assert!(stats.hits > 0, "the streams overlap");
            assert!(stats.stripe_waits <= stats.hits + stats.misses);
        }
    }

    #[test]
    fn concurrent_interning_converges_to_one_ref_per_term() {
        let table = CanonTable::new();
        let sources = [r"\x. x + 1", r"\y. y + 1", "v * (v + 1)", r"\a. \b. a b"];
        let canons: Vec<(DbArena, DbId)> = sources.iter().map(|s| canon_of(s)).collect();
        let refs: Vec<Vec<CanonRef>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    scope.spawn(|| {
                        canons
                            .iter()
                            .map(|(c, r)| table.intern_arena(c, *r))
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for other in &refs[1..] {
            assert_eq!(&refs[0], other);
        }
        assert_eq!(refs[0][0], refs[0][1], "alpha-equal terms share a ref");
    }

    #[test]
    fn lock_free_readers_see_every_published_node_while_threads_intern() {
        // Two threads intern overlapping streams, and names, across index
        // doublings and chunk boundaries (at 1 stripe, into chunk 13)
        // while two readers (a) read back, and find through the lock-free
        // index, every (node, ref) pair the interners hand them and (b)
        // read each stripe's and the name table's published prefix as
        // soon as it grows, checked against the final table once every
        // thread is done. A multiple of 64, so every probe is handed over.
        const PER_THREAD: usize = 102_400;
        let streams = [
            oracle_stream(0xC0FFEE, 0xD1CE, PER_THREAD),
            oracle_stream(0xC0FFEE, 0xFACE, PER_THREAD),
        ];
        for count in [1usize, DEFAULT_TABLE_SHARDS] {
            let table = CanonTable::with_shards(count);
            let handed: Mutex<Vec<(CanonNode, CanonRef)>> = Mutex::new(Vec::new());
            let interning = AtomicUsize::new(streams.len());
            /// Counts its interner out even if it panics, so no reader
            /// spins forever.
            struct Finished<'a>(&'a AtomicUsize);
            impl Drop for Finished<'_> {
                fn drop(&mut self) {
                    self.0.fetch_sub(1, Ordering::Release);
                }
            }
            let prefix_reads: Vec<Vec<(CanonRef, CanonNode)>> = std::thread::scope(|scope| {
                for stream in &streams {
                    let (table, handed, interning) = (&table, &handed, &interning);
                    scope.spawn(move || {
                        let _finished = Finished(interning);
                        let mut sent = 0;
                        intern_stream(table, stream, |probes| {
                            table.intern_name(&format!("v{}", probes.len() % 900));
                            handed.lock().unwrap().extend_from_slice(&probes[sent..]);
                            sent = probes.len();
                        });
                    });
                }
                let readers: Vec<_> = (0..2)
                    .map(|_| {
                        let (table, handed, interning) = (&table, &handed, &interning);
                        scope.spawn(move || {
                            let mut reads = Vec::new();
                            let (mut seen_handed, mut seen_names) = (0, 0);
                            let mut seen = vec![0usize; table.shard_count()];
                            loop {
                                let done = interning.load(Ordering::Acquire) == 0;
                                let fresh = handed.lock().unwrap()[seen_handed..].to_vec();
                                seen_handed += fresh.len();
                                for (node, r) in fresh {
                                    assert_eq!(table.node(r), node, "{r:?} reads back wrong");
                                    assert_eq!(table.db.find(&node), Some(r), "{node:?} not found");
                                }
                                for (shard, seen) in seen.iter_mut().enumerate() {
                                    let len = table.db.shards[shard].nodes.len();
                                    for position in *seen..len {
                                        let r =
                                            pack_ref(table.db.shard_bits, shard, position as u32);
                                        reads.push((r, table.node(r)));
                                    }
                                    *seen = len;
                                }
                                let names = table.names.len();
                                for id in seen_names..names {
                                    let name = table.name(NameId::from_index(id as u32));
                                    assert!(name.starts_with('v'), "name {id} reads {name:?}");
                                }
                                seen_names = names;
                                if done {
                                    return reads;
                                }
                            }
                        })
                    })
                    .collect();
                readers.into_iter().map(|h| h.join().unwrap()).collect()
            });
            let by_node: HashMap<CanonNode, CanonRef> =
                handed.into_inner().unwrap().into_iter().collect();
            assert_eq!(by_node.len() as u64, table.resident_nodes());
            for (&node, &r) in &by_node {
                assert_eq!(
                    table.node(r),
                    node,
                    "{count} stripes: {r:?} reads back wrong"
                );
            }
            for reads in &prefix_reads {
                assert_eq!(
                    reads.len() as u64,
                    table.resident_nodes(),
                    "a reader saw every node"
                );
                for &(r, node) in reads {
                    assert_eq!(
                        by_node[&node], r,
                        "{count} stripes: {r:?} was read before it was written"
                    );
                }
            }
            assert!(table.resident_names().0 > 0);
        }
    }

    #[test]
    #[should_panic(expected = "past the published length")]
    fn a_ref_past_the_published_length_panics() {
        let table = CanonTable::with_shards(1);
        for i in 0..3 {
            table.intern_node(CanonNode::BVar(i));
        }
        assert_eq!(table.node(CanonRef::from_bits(2)), CanonNode::BVar(2));
        // Position 3 lies inside the first chunk but was never published.
        table.node(CanonRef::from_bits(3));
    }
}
