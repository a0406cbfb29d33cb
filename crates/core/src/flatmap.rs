//! Flat variable maps: the hot-path replacement for `BTreeMap` in the
//! hashed summariser (§5.2).
//!
//! Profiling the store ingest path showed that the per-node cost of the
//! paper's algorithm is dominated not by hash mixing but by allocator
//! traffic: every `Var` leaf allocated a `BTreeMap` node, and every merge
//! rewrote tree nodes one heap cell at a time. The overwhelming majority
//! of variable maps are tiny — a subexpression rarely has more than a
//! handful of distinct free variables — so a [`FlatVarMap`] keeps up to
//! [`INLINE_CAP`] entries in an inline array (no heap at all)
//! and spills to a single sorted `Vec` beyond that. This is the same
//! flat-map/arena move hash-consing systems (Filliâtre & Conchon) and
//! e-graph engines such as egg make to win the constant-factor battle.
//!
//! Complexity: entries are kept sorted by [`Symbol`], so lookup is a
//! binary search and the §4.8 smaller-into-bigger merge is either an
//! in-place insertion (inline case) or one linear merge-join over the two
//! sorted runs (spilled case). The Lemma 6.1 bound counts *merge
//! operations* — entries of the smaller map transformed at a binary node —
//! and that count is unchanged: only smaller-side entries are joined and
//! tagged, exactly as with the tree map. The regression test in
//! `tests/merge_complexity.rs` holds the counter to c·n·log n on
//! adversarial inputs.
//!
//! **The third tier.** A sorted-Vec op costs O(map width) (a contiguous
//! memmove or a run copy) where a balanced tree pays O(log width) in
//! pointer chases. A term that *sustains* w live free variables would
//! therefore pay O(w) per spilled op — Θ(n²) total on an open-term spine
//! with w = Θ(n), vs the seed's O(n log²n). So once a map's width passes
//! [`SPILL_TREE_THRESHOLD`] it is promoted to a persistent treap
//! ([`persistent_map::PMap`], `Arc`-shared, `Send`), restoring O(log n)
//! insert/remove and an O(m log(n/m + 1)) smaller-into-bigger merge via
//! [`PMap::union_join`]. Maps shrink back to the inline tier when a
//! binder removal drops them to [`INLINE_CAP`] entries — the wide
//! hysteresis band (threshold → inline cap) prevents promote/demote
//! ping-pong at a tier boundary. The Lemma 6.1 `merge_ops` accounting is
//! tier-independent: only smaller-side entries are ever joined, in every
//! representation.
//!
//! [`MapPool`] recycles spilled buffers across terms of a batch so steady
//! state ingest performs no per-node heap traffic at all; it also carries
//! the tree-promotion threshold, so a whole summariser's maps can have
//! the tree tier retuned (or disabled, for the bench ablation) in one
//! place.

use crate::combine::{HashScheme, HashWord};
use crate::hashed::PosH;
use lambda_lang::symbol::Symbol;
use persistent_map::PMap;
use std::fmt;

/// One `(variable, position-tree)` entry.
pub type Entry<H> = (Symbol, PosH<H>);

/// Number of entries a [`FlatVarMap`] stores inline before spilling to a
/// heap-allocated sorted `Vec`. Every node of the hashing pass pushes one
/// map and every binary node moves one, so the inline array's size is
/// paid per node; most maps hold only a few entries, and four keeps a
/// `u64` map under 128 bytes.
pub const INLINE_CAP: usize = 4;

/// Width beyond which a spilled map is promoted to the persistent-tree
/// tier. Tuned so program-like terms (maps a handful wide) never leave
/// the flat tiers, while sustained-wide open-term spines go logarithmic
/// well before the quadratic regime bites.
pub const SPILL_TREE_THRESHOLD: usize = 32;

/// A free pool of spilled entry buffers, reused across terms in a batch.
///
/// All [`FlatVarMap`] operations that may allocate or release a spill
/// buffer take a pool; passing a fresh `MapPool::default()` is free (an
/// empty pool never allocates) and simply disables recycling. The pool
/// also carries the tree-promotion threshold for the maps built with it.
#[derive(Debug)]
pub struct MapPool<H: HashWord> {
    free: Vec<Vec<Entry<H>>>,
    tree_threshold: usize,
}

impl<H: HashWord> Default for MapPool<H> {
    fn default() -> Self {
        MapPool {
            free: Vec::new(),
            tree_threshold: SPILL_TREE_THRESHOLD,
        }
    }
}

/// Cap on pooled buffers: enough for the live maps of any realistic merge
/// frontier, small enough that a pathological term cannot hoard memory.
const POOL_CAP: usize = 64;

impl<H: HashWord> MapPool<H> {
    /// An empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty pool whose maps promote to the tree tier past
    /// `threshold` entries instead of [`SPILL_TREE_THRESHOLD`]. Pass
    /// `usize::MAX` to disable the tree tier entirely (the sorted-Vec
    /// ablation baseline).
    pub fn with_tree_threshold(threshold: usize) -> Self {
        MapPool {
            free: Vec::new(),
            tree_threshold: threshold,
        }
    }

    /// The current tree-promotion threshold.
    pub fn tree_threshold(&self) -> usize {
        self.tree_threshold
    }

    /// Retunes the tree-promotion threshold for maps built after this
    /// call (existing maps keep their representation until they grow or
    /// shrink across a boundary).
    pub fn set_tree_threshold(&mut self, threshold: usize) {
        self.tree_threshold = threshold;
    }

    /// Hands out a cleared buffer with room for `want` entries, recycling
    /// a previously released one when available.
    pub(crate) fn take_buffer(&mut self, want: usize) -> Vec<Entry<H>> {
        match self.free.pop() {
            Some(mut v) => {
                v.clear();
                v.reserve(want);
                v
            }
            None => Vec::with_capacity(want.max(2 * INLINE_CAP)),
        }
    }

    fn give(&mut self, v: Vec<Entry<H>>) {
        if v.capacity() > 0 && self.free.len() < POOL_CAP {
            self.free.push(v);
        }
    }
}

/// Entry storage: inline for small maps, one sorted `Vec` beyond that,
/// and a persistent treap once the width passes the pool's
/// tree-promotion threshold.
#[derive(Clone)]
enum Slots<H: HashWord> {
    Inline {
        len: u8,
        buf: [Entry<H>; INLINE_CAP],
    },
    Spilled(Vec<Entry<H>>),
    Tree(PMap<Symbol, PosH<H>>),
}

/// A variable map in hashed form (§5.2): sorted flat storage plus the
/// XOR-maintained hash of its entries.
///
/// Drop-in replacement for the `BTreeMap`-backed map the summariser used
/// before: same operations (`singleton`, `remove`, `upsert`, `get`,
/// `iter`), same symbol-sorted iteration order, same O(1) XOR hash — but
/// with no heap allocation for maps of up to [`INLINE_CAP`] entries,
/// which is the overwhelming case.
#[derive(Clone)]
pub struct FlatVarMap<H: HashWord> {
    slots: Slots<H>,
    xor: H,
}

impl<H: HashWord> Default for FlatVarMap<H> {
    fn default() -> Self {
        FlatVarMap {
            slots: Slots::Inline {
                len: 0,
                buf: [Self::DUMMY; INLINE_CAP],
            },
            xor: H::ZERO,
        }
    }
}

impl<H: HashWord> FlatVarMap<H> {
    /// Filler for unused inline slots; never observable.
    const DUMMY: Entry<H> = (
        Symbol::from_index(0),
        PosH {
            hash: H::ZERO,
            size: 0,
        },
    );

    /// The empty map (`emptyVM`).
    pub fn new() -> Self {
        Self::default()
    }

    /// `singletonVM`: one entry, inline, no allocation.
    pub fn singleton(scheme: &HashScheme<H>, sym: Symbol, name_hash: u64, pos: PosH<H>) -> Self {
        let mut buf = [Self::DUMMY; INLINE_CAP];
        buf[0] = (sym, pos);
        FlatVarMap {
            slots: Slots::Inline { len: 1, buf },
            xor: scheme.entry(name_hash, pos.hash),
        }
    }

    /// Number of distinct free variables.
    #[inline]
    pub fn len(&self) -> usize {
        match &self.slots {
            Slots::Inline { len, .. } => *len as usize,
            Slots::Spilled(v) => v.len(),
            Slots::Tree(t) => t.len(),
        }
    }

    /// Whether there are no free variables.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The map hash: XOR of all entry hashes (`hashVM`), O(1).
    #[inline]
    pub fn hash(&self) -> H {
        self.xor
    }

    /// Whether this map is currently in the persistent-tree tier.
    #[inline]
    pub fn is_tree(&self) -> bool {
        matches!(self.slots, Slots::Tree(_))
    }

    /// The entries of a flat-tier map, sorted by symbol. Never called on
    /// the tree tier (callers dispatch on the representation first).
    #[inline]
    fn flat_slice(&self) -> &[Entry<H>] {
        match &self.slots {
            Slots::Inline { len, buf } => &buf[..*len as usize],
            Slots::Spilled(v) => v,
            Slots::Tree(_) => unreachable!("flat_slice on a tree-tier map"),
        }
    }

    #[inline]
    fn find_flat(&self, sym: Symbol) -> Result<usize, usize> {
        self.flat_slice().binary_search_by_key(&sym, |e| e.0)
    }

    /// Current position tree for `sym`, if any. O(log n) in every tier.
    pub fn get(&self, sym: Symbol) -> Option<PosH<H>> {
        match &self.slots {
            Slots::Tree(t) => t.get(&sym).copied(),
            _ => self.find_flat(sym).ok().map(|i| self.flat_slice()[i].1),
        }
    }

    /// Iterates over `(symbol, position)` entries in symbol order.
    pub fn iter(&self) -> VarMapIter<'_, H> {
        VarMapIter {
            inner: match &self.slots {
                Slots::Tree(t) => IterInner::Tree(t.iter()),
                _ => IterInner::Slice(self.flat_slice().iter()),
            },
        }
    }

    /// `removeFromVM`: removes `sym`, returning its position tree if
    /// present, and updates the XOR hash in O(1) hash work. A tree-tier
    /// map that shrinks to [`INLINE_CAP`] entries demotes back inline —
    /// the wide gap below the promotion threshold is deliberate
    /// hysteresis.
    pub fn remove(
        &mut self,
        scheme: &HashScheme<H>,
        sym: Symbol,
        name_hash: u64,
    ) -> Option<PosH<H>> {
        if let Slots::Tree(t) = &self.slots {
            let (next, old) = t.remove(&sym);
            let pos = old?;
            self.slots = if next.len() <= INLINE_CAP {
                let mut buf = [Self::DUMMY; INLINE_CAP];
                let mut len = 0u8;
                for (s, p) in next.iter() {
                    buf[len as usize] = (*s, *p);
                    len += 1;
                }
                Slots::Inline { len, buf }
            } else {
                Slots::Tree(next)
            };
            self.xor = self.xor.xor(scheme.entry(name_hash, pos.hash));
            return Some(pos);
        }
        let i = self.find_flat(sym).ok()?;
        let pos = match &mut self.slots {
            Slots::Inline { len, buf } => {
                let pos = buf[i].1;
                buf.copy_within(i + 1..*len as usize, i);
                *len -= 1;
                pos
            }
            Slots::Spilled(v) => v.remove(i).1,
            Slots::Tree(_) => unreachable!("handled above"),
        };
        self.xor = self.xor.xor(scheme.entry(name_hash, pos.hash));
        Some(pos)
    }

    /// `alterVM` specialised to the §4.8 merge: replaces (or inserts) the
    /// entry for `sym` with `new_pos`, fixing up the XOR hash. Spills from
    /// the inline representation into a pooled buffer when full, and
    /// promotes a spilled run past the pool's tree threshold into the
    /// persistent-tree tier.
    pub fn upsert_pooled(
        &mut self,
        scheme: &HashScheme<H>,
        sym: Symbol,
        name_hash: u64,
        new_pos: PosH<H>,
        pool: &mut MapPool<H>,
    ) -> Option<PosH<H>> {
        if let Slots::Tree(t) = &self.slots {
            let (next, old) = t.insert(sym, new_pos);
            self.slots = Slots::Tree(next);
            if let Some(old_pos) = old {
                self.xor = self.xor.xor(scheme.entry(name_hash, old_pos.hash));
            }
            self.xor = self.xor.xor(scheme.entry(name_hash, new_pos.hash));
            return old;
        }
        let old = match self.find_flat(sym) {
            Ok(i) => {
                let slot = match &mut self.slots {
                    Slots::Inline { buf, .. } => &mut buf[i],
                    Slots::Spilled(v) => &mut v[i],
                    Slots::Tree(_) => unreachable!("handled above"),
                };
                Some(std::mem::replace(&mut slot.1, new_pos))
            }
            Err(i) => {
                match &mut self.slots {
                    Slots::Inline { len, buf } if (*len as usize) < INLINE_CAP => {
                        buf.copy_within(i..*len as usize, i + 1);
                        buf[i] = (sym, new_pos);
                        *len += 1;
                    }
                    Slots::Inline { len, buf } => {
                        // Spill: move the inline run into a pooled buffer.
                        let mut v = pool.take_buffer(2 * INLINE_CAP);
                        v.extend_from_slice(&buf[..*len as usize]);
                        v.insert(i, (sym, new_pos));
                        self.slots = Slots::Spilled(v);
                    }
                    Slots::Spilled(v) => v.insert(i, (sym, new_pos)),
                    Slots::Tree(_) => unreachable!("handled above"),
                }
                self.maybe_promote(pool);
                None
            }
        };
        if let Some(old_pos) = old {
            self.xor = self.xor.xor(scheme.entry(name_hash, old_pos.hash));
        }
        self.xor = self.xor.xor(scheme.entry(name_hash, new_pos.hash));
        old
    }

    /// Promotes a spilled run that outgrew the pool's threshold into the
    /// tree tier, returning its buffer to the pool.
    fn maybe_promote(&mut self, pool: &mut MapPool<H>) {
        if let Slots::Spilled(v) = &mut self.slots {
            if v.len() > pool.tree_threshold {
                let tree: PMap<Symbol, PosH<H>> = v.iter().copied().collect();
                pool.give(std::mem::take(v));
                self.slots = Slots::Tree(tree);
            }
        }
    }

    /// [`FlatVarMap::upsert_pooled`] without buffer recycling — for call
    /// sites outside a batch loop.
    pub fn upsert(
        &mut self,
        scheme: &HashScheme<H>,
        sym: Symbol,
        name_hash: u64,
        new_pos: PosH<H>,
    ) -> Option<PosH<H>> {
        self.upsert_pooled(scheme, sym, name_hash, new_pos, &mut MapPool::default())
    }

    /// Builds a map from an already-sorted, duplicate-free entry run whose
    /// XOR hash the caller maintained. Small runs are copied inline and
    /// the buffer is returned to the pool; mid-size runs keep the buffer;
    /// runs past the pool's tree threshold build a tree and release it.
    pub(crate) fn from_sorted(entries: Vec<Entry<H>>, xor: H, pool: &mut MapPool<H>) -> Self {
        debug_assert!(entries.windows(2).all(|w| w[0].0 < w[1].0), "unsorted run");
        if entries.len() <= INLINE_CAP {
            let mut buf = [Self::DUMMY; INLINE_CAP];
            buf[..entries.len()].copy_from_slice(&entries);
            let len = entries.len() as u8;
            pool.give(entries);
            FlatVarMap {
                slots: Slots::Inline { len, buf },
                xor,
            }
        } else if entries.len() <= pool.tree_threshold {
            FlatVarMap {
                slots: Slots::Spilled(entries),
                xor,
            }
        } else {
            let tree: PMap<Symbol, PosH<H>> = entries.iter().copied().collect();
            pool.give(entries);
            FlatVarMap {
                slots: Slots::Tree(tree),
                xor,
            }
        }
    }

    /// §4.8 smaller-into-bigger merge across all tiers, in place: folds
    /// `smaller` into `self` (the bigger map), calling `join(symbol,
    /// bigger's entry, smaller's entry)` **exactly once per smaller entry** to
    /// compute the merged position tree, and `name_hash` to resolve each
    /// joined symbol's name hash for the XOR fix-up. Callers keep the
    /// Lemma 6.1 `merge_ops` accounting (`+= smaller.len()`); this method
    /// only does the work.
    ///
    /// Representation-wise: when the result stays inline the smaller
    /// entries are inserted in place; other both-flat merges are one
    /// linear merge-join; a tree bigger absorbs a flat smaller with
    /// O(m log n) inserts; tree–tree merges use [`PMap::union_join`] for
    /// the O(m log(n/m + 1)) bound. `join` call order is unspecified (the
    /// XOR map hash is commutative).
    pub(crate) fn merge_from_smaller(
        &mut self,
        smaller: Self,
        scheme: &HashScheme<H>,
        pool: &mut MapPool<H>,
        name_hash: &mut impl FnMut(Symbol) -> u64,
        join: &mut impl FnMut(Symbol, Option<PosH<H>>, PosH<H>) -> PosH<H>,
    ) {
        debug_assert!(self.len() >= smaller.len(), "merge direction flipped");
        if self.is_tree() || smaller.is_tree() {
            let bigger = std::mem::take(self);
            *self = Self::merge_tree(bigger, smaller, scheme, pool, name_hash, join);
            return;
        }
        if self.len() + smaller.len() <= INLINE_CAP {
            // Common case: everything stays inline; insert in place.
            for &(sym, small_pos) in smaller.flat_slice() {
                let nh = name_hash(sym);
                let new_pos = join(sym, self.get(sym), small_pos);
                self.upsert_pooled(scheme, sym, nh, new_pos, pool);
            }
            smaller.recycle(pool);
            return;
        }
        // Wide flat case: one merge-join over the two sorted runs into a
        // pooled buffer — O(|bigger| + |smaller|), no per-entry shifting.
        let mut out = pool.take_buffer(self.len() + smaller.len());
        let mut xor = self.hash();
        let (big_run, small_run) = (self.flat_slice(), smaller.flat_slice());
        let (mut bi, mut si) = (0usize, 0usize);
        while si < small_run.len() {
            let (sym, small_pos) = small_run[si];
            // Copy bigger-only entries below the next smaller symbol.
            while bi < big_run.len() && big_run[bi].0 < sym {
                out.push(big_run[bi]);
                bi += 1;
            }
            let nh = name_hash(sym);
            let old = if bi < big_run.len() && big_run[bi].0 == sym {
                let old = big_run[bi].1;
                xor = xor.xor(scheme.entry(nh, old.hash));
                bi += 1;
                Some(old)
            } else {
                None
            };
            let new_pos = join(sym, old, small_pos);
            xor = xor.xor(scheme.entry(nh, new_pos.hash));
            out.push((sym, new_pos));
            si += 1;
        }
        out.extend_from_slice(&big_run[bi..]);
        smaller.recycle(pool);
        std::mem::take(self).recycle(pool);
        *self = Self::from_sorted(out, xor, pool);
    }

    /// The tree-tier arm of [`FlatVarMap::merge_from_smaller`]: at least
    /// one side is a tree, so the merged map is a tree.
    fn merge_tree(
        bigger: Self,
        smaller: Self,
        scheme: &HashScheme<H>,
        pool: &mut MapPool<H>,
        name_hash: &mut impl FnMut(Symbol) -> u64,
        join: &mut impl FnMut(Symbol, Option<PosH<H>>, PosH<H>) -> PosH<H>,
    ) -> Self {
        let mut xor = bigger.xor;
        // The bigger side is normally already a tree (flat maps never
        // outgrow the promotion threshold); promote it if maps built
        // under different thresholds meet.
        let big_tree = match bigger.slots {
            Slots::Tree(t) => t,
            Slots::Inline { len, buf } => buf[..len as usize].iter().copied().collect(),
            Slots::Spilled(v) => {
                let t = v.iter().copied().collect();
                pool.give(v);
                t
            }
        };
        match smaller.slots {
            Slots::Tree(small_tree) => {
                let merged = big_tree.union_join(&small_tree, |sym, old, small_pos| {
                    let nh = name_hash(*sym);
                    let new_pos = join(*sym, old.copied(), *small_pos);
                    if let Some(old_pos) = old {
                        xor = xor.xor(scheme.entry(nh, old_pos.hash));
                    }
                    xor = xor.xor(scheme.entry(nh, new_pos.hash));
                    new_pos
                });
                FlatVarMap {
                    slots: Slots::Tree(merged),
                    xor,
                }
            }
            flat_slots => {
                let flat = FlatVarMap {
                    slots: flat_slots,
                    xor: smaller.xor,
                };
                let mut tree = big_tree;
                for &(sym, small_pos) in flat.flat_slice() {
                    let nh = name_hash(sym);
                    let old = tree.get(&sym).copied();
                    let new_pos = join(sym, old, small_pos);
                    if let Some(old_pos) = old {
                        xor = xor.xor(scheme.entry(nh, old_pos.hash));
                    }
                    xor = xor.xor(scheme.entry(nh, new_pos.hash));
                    tree = tree.insert(sym, new_pos).0;
                }
                flat.recycle(pool);
                FlatVarMap {
                    slots: Slots::Tree(tree),
                    xor,
                }
            }
        }
    }

    /// Consumes the map, returning any spilled buffer to the pool. Tree
    /// maps just drop (their nodes are `Arc`-shared).
    pub fn recycle(self, pool: &mut MapPool<H>) {
        if let Slots::Spilled(v) = self.slots {
            pool.give(v);
        }
    }
}

/// Iterator over a [`FlatVarMap`]'s entries in symbol order, across all
/// storage tiers.
pub struct VarMapIter<'a, H: HashWord> {
    inner: IterInner<'a, H>,
}

enum IterInner<'a, H: HashWord> {
    Slice(std::slice::Iter<'a, Entry<H>>),
    Tree(persistent_map::Iter<'a, Symbol, PosH<H>>),
}

impl<H: HashWord> Iterator for VarMapIter<'_, H> {
    type Item = (Symbol, PosH<H>);

    fn next(&mut self) -> Option<Self::Item> {
        match &mut self.inner {
            IterInner::Slice(it) => it.next().copied(),
            IterInner::Tree(it) => it.next().map(|(s, p)| (*s, *p)),
        }
    }
}

impl<H: HashWord> PartialEq for FlatVarMap<H> {
    fn eq(&self, other: &Self) -> bool {
        // Equal entry runs imply equal XOR hashes under one scheme, but the
        // hash is compared first as a cheap early-out. Comparison is by
        // contents, so maps in different tiers can still be equal.
        self.xor == other.xor && self.len() == other.len() && self.iter().eq(other.iter())
    }
}

impl<H: HashWord> Eq for FlatVarMap<H> {}

impl<H: HashWord> fmt::Debug for FlatVarMap<H> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scheme() -> HashScheme<u64> {
        HashScheme::new(0xF1A7)
    }

    fn pos(scheme: &HashScheme<u64>, size: u64) -> PosH<u64> {
        PosH {
            hash: scheme.pt_left(size, scheme.pt_here()),
            size,
        }
    }

    #[test]
    fn a_u64_map_stays_under_128_bytes() {
        // The hashing pass pushes one map per node; see INLINE_CAP.
        assert!(std::mem::size_of::<FlatVarMap<u64>>() <= 128);
    }

    #[test]
    fn stays_inline_up_to_cap_then_spills() {
        let s = scheme();
        let mut vm = FlatVarMap::<u64>::new();
        let mut pool = MapPool::new();
        for i in 0..(INLINE_CAP + 4) as u32 {
            vm.upsert_pooled(
                &s,
                Symbol::from_index(i),
                u64::from(i),
                pos(&s, 1),
                &mut pool,
            );
            assert_eq!(vm.len(), i as usize + 1);
        }
        // Sorted iteration regardless of representation.
        let syms: Vec<u32> = vm.iter().map(|(sym, _)| sym.index()).collect();
        assert!(syms.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn insertion_order_does_not_matter() {
        let s = scheme();
        let order_a = [5u32, 1, 9, 3, 7, 0, 11, 2, 8, 4];
        let order_b = [4u32, 8, 2, 11, 0, 7, 3, 9, 1, 5];
        let build = |order: &[u32]| {
            let mut vm = FlatVarMap::<u64>::new();
            for &i in order {
                vm.upsert(
                    &s,
                    Symbol::from_index(i),
                    u64::from(i),
                    pos(&s, u64::from(i) + 1),
                );
            }
            vm
        };
        let a = build(&order_a);
        let b = build(&order_b);
        assert_eq!(a, b);
        assert_eq!(a.hash(), b.hash());
    }

    #[test]
    fn remove_shrinks_and_restores_hash() {
        let s = scheme();
        let mut vm = FlatVarMap::<u64>::new();
        for i in 0..12u32 {
            vm.upsert(&s, Symbol::from_index(i), u64::from(i), pos(&s, 1));
        }
        let full = vm.clone();
        let extra = Symbol::from_index(50);
        vm.upsert(&s, extra, 50, pos(&s, 2));
        assert_ne!(vm, full);
        vm.remove(&s, extra, 50);
        assert_eq!(vm, full);
        assert_eq!(vm.hash(), full.hash());
        assert!(vm.remove(&s, extra, 50).is_none());
    }

    #[test]
    fn from_sorted_round_trips_all_three_tiers() {
        let s = scheme();
        let mut pool = MapPool::new();
        for n in [3usize, 20, SPILL_TREE_THRESHOLD + 10] {
            let mut reference = FlatVarMap::<u64>::new();
            let mut run = Vec::new();
            let mut xor = 0u64;
            for i in 0..n as u32 {
                let p = pos(&s, u64::from(i) + 1);
                reference.upsert(&s, Symbol::from_index(i), u64::from(i), p);
                run.push((Symbol::from_index(i), p));
                xor ^= s.entry(u64::from(i), p.hash);
            }
            let built = FlatVarMap::from_sorted(run, xor, &mut pool);
            assert_eq!(built, reference);
            assert_eq!(built.is_tree(), n > SPILL_TREE_THRESHOLD);
        }
    }

    #[test]
    fn promotes_past_threshold_and_demotes_on_remove() {
        let s = scheme();
        let mut pool = MapPool::new();
        let mut vm = FlatVarMap::<u64>::new();
        let n = (SPILL_TREE_THRESHOLD + 8) as u32;
        for i in 0..n {
            vm.upsert_pooled(
                &s,
                Symbol::from_index(i),
                u64::from(i),
                pos(&s, 1),
                &mut pool,
            );
        }
        assert!(vm.is_tree(), "width {n} should be tree-tier");
        assert_eq!(vm.len(), n as usize);
        // Lookups and sorted iteration work in the tree tier.
        assert!(vm.get(Symbol::from_index(0)).is_some());
        assert!(vm.get(Symbol::from_index(n)).is_none());
        let syms: Vec<u32> = vm.iter().map(|(sym, _)| sym.index()).collect();
        assert!(syms.windows(2).all(|w| w[0] < w[1]));
        // Removing down to the inline cap demotes (hysteresis band).
        for i in (INLINE_CAP as u32..n).rev() {
            vm.remove(&s, Symbol::from_index(i), u64::from(i));
            assert_eq!(vm.is_tree(), vm.len() > INLINE_CAP);
        }
        assert_eq!(vm.len(), INLINE_CAP);
        assert!(!vm.is_tree());
        // The demoted map equals one built flat from scratch.
        let mut flat = FlatVarMap::<u64>::new();
        for i in 0..INLINE_CAP as u32 {
            flat.upsert(&s, Symbol::from_index(i), u64::from(i), pos(&s, 1));
        }
        assert_eq!(vm, flat);
    }

    #[test]
    fn max_threshold_disables_tree_tier() {
        let s = scheme();
        let mut pool = MapPool::with_tree_threshold(usize::MAX);
        let mut vm = FlatVarMap::<u64>::new();
        for i in 0..(3 * SPILL_TREE_THRESHOLD) as u32 {
            vm.upsert_pooled(
                &s,
                Symbol::from_index(i),
                u64::from(i),
                pos(&s, 1),
                &mut pool,
            );
        }
        assert!(!vm.is_tree());
        assert_eq!(vm.len(), 3 * SPILL_TREE_THRESHOLD);
    }

    #[test]
    fn equality_holds_across_tiers() {
        let s = scheme();
        let n = (SPILL_TREE_THRESHOLD + 5) as u32;
        let mut flat_pool = MapPool::with_tree_threshold(usize::MAX);
        let mut tree_pool = MapPool::new();
        let mut flat = FlatVarMap::<u64>::new();
        let mut tree = FlatVarMap::<u64>::new();
        for i in 0..n {
            let p = pos(&s, u64::from(i) + 1);
            flat.upsert_pooled(&s, Symbol::from_index(i), u64::from(i), p, &mut flat_pool);
            tree.upsert_pooled(&s, Symbol::from_index(i), u64::from(i), p, &mut tree_pool);
        }
        assert!(!flat.is_tree() && tree.is_tree());
        assert_eq!(flat, tree);
        assert_eq!(flat.hash(), tree.hash());
    }
}
