//! Store granularity as a first-class, configured-once choice, and the
//! [`StoreBuilder`] front door that fixes it.
//!
//! The paper's central result is that **one** O(n (log n)²) pass hashes
//! *every* subexpression of a term, not just its root. Which of those
//! hashes a store indexes is a property of the store, not of an individual
//! call — a containment index built by some inserts but not others would
//! answer queries inconsistently. So granularity is chosen once, at build
//! time, through [`StoreBuilder`], and every `insert`/`insert_batch`/query
//! obeys it:
//!
//! * [`Granularity::Roots`] — the classic mode: each inserted term is
//!   indexed as a whole. `lookup` answers "was an alpha-equivalent term
//!   ingested?". Ingest cost per term is one fused hash+canonicalize pass,
//!   O(n (log n)²) hashing plus O(n) canonicalization.
//! * [`Granularity::Subexpressions`] — the containment mode: every
//!   subexpression with at least `min_nodes` nodes (the root always) is
//!   hashed in the **same** fused batched pass — no per-subterm
//!   `hash_expr` calls — and indexed as its own class member, so
//!   [`AlphaStore::contains`](crate::AlphaStore::contains) can answer
//!   "does any ingested term contain this pattern, modulo alpha?".
//!
//! ## Cost model
//!
//! Hashing all subexpressions stays one O(n (log n)²) pass (the paper's
//! headline bound). What subexpression *indexing* adds is a class key per
//! indexed subterm, both to confirm candidate merges exactly and to seed
//! new classes. A subterm's standalone de Bruijn form would not do: it
//! differs from its in-context form along every path from an outer binder
//! to its occurrences (a variable bound outside a subterm is *free by
//! name* inside it), so building those forms is Θ(n²) on ANF chains and
//! binder fans. The key is the paper's §4.8 e-summary instead, interned by
//! the same pass (see `crate::esummary`): a subterm's structure and
//! position trees are the same nodes standalone and in context, and its
//! variable map is a hash-consed treap, so a term costs O(n (log n)²)
//! intern probes and resident nodes. `min_nodes` decides which subterms
//! become index entries: raising it skips the long tail of tiny
//! subterms, which dominate the count but rarely matter for containment
//! queries. Their structures and maps are still interned, as building
//! blocks of the keys above them.
//!
//! ```
//! use alpha_store::{AlphaStore, Granularity};
//! use lambda_lang::{parse, ExprArena};
//!
//! let store: AlphaStore<u64> = AlphaStore::builder()
//!     .seed(0x5EED)
//!     .subexpressions(3) // index every subterm of >= 3 nodes
//!     .build();
//! assert_eq!(
//!     store.granularity(),
//!     Granularity::Subexpressions { min_nodes: 3 }
//! );
//!
//! let mut arena = ExprArena::new();
//! let t = parse(&mut arena, r"\x. x + (v * 3)").unwrap();
//! let outcome = store.insert(&arena, t);
//! assert!(outcome.subs.indexed > 0);           // subterms joined the index
//! assert!(outcome.subs.skipped_min_nodes > 0); // tiny leaves did not
//! ```

use crate::persist::vfs::{OsVfs, Vfs};
use crate::persist::PersistError;
use crate::store::{AlphaStore, AutoCheckpoint, RetryPolicy};
use alpha_hash::combine::{HashScheme, HashWord};
use std::sync::Arc;
use std::time::Duration;

/// Which terms an [`AlphaStore`] indexes: whole inserted terms only, or
/// every subexpression of them. Fixed at build time via [`StoreBuilder`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Granularity {
    /// Index each inserted term as a whole (the classic store mode).
    Roots,
    /// Index every subexpression of each inserted term whose node count is
    /// at least `min_nodes` (the root is always indexed, whatever its
    /// size), enabling containment queries. `min_nodes <= 1` indexes
    /// everything, down to single variables and literals.
    Subexpressions {
        /// Smallest subexpression (in nodes) worth indexing.
        min_nodes: usize,
    },
}

impl Default for Granularity {
    /// [`Granularity::Roots`] — the compatible, cheapest mode.
    fn default() -> Self {
        Granularity::Roots
    }
}

impl Granularity {
    /// Whether this mode indexes proper subexpressions.
    pub fn indexes_subexpressions(self) -> bool {
        matches!(self, Granularity::Subexpressions { .. })
    }

    /// The indexing size floor: subexpressions smaller than this are
    /// skipped (1 for [`Granularity::Roots`], where only roots exist).
    pub fn min_nodes(self) -> usize {
        match self {
            Granularity::Roots => 1,
            Granularity::Subexpressions { min_nodes } => min_nodes.max(1),
        }
    }
}

/// Configures and builds an [`AlphaStore`]: hash scheme, shard count and
/// [`Granularity`], chosen once, queried many times.
///
/// ```
/// use alpha_store::{AlphaStore, StoreBuilder};
/// use alpha_hash::combine::HashScheme;
/// use lambda_lang::{parse, ExprArena};
///
/// let store: AlphaStore<u64> = StoreBuilder::new()
///     .scheme(HashScheme::new(0x5EED))
///     .shards(8)
///     .subexpressions(2)
///     .build();
///
/// let mut arena = ExprArena::new();
/// let t = parse(&mut arena, r"\x. (v + 7) * x").unwrap();
/// store.insert(&arena, t);
///
/// // The pattern never appeared as a whole term, but it is *contained*.
/// let pattern = parse(&mut arena, "v + 7").unwrap();
/// assert!(store.contains(&arena, pattern).is_some());
/// assert!(store.lookup(&arena, pattern).is_none());
/// ```
#[derive(Clone, Debug)]
pub struct StoreBuilder<H: HashWord = u64> {
    pub(crate) scheme: HashScheme<H>,
    pub(crate) shards: usize,
    pub(crate) granularity: Granularity,
    pub(crate) chunk_entries: usize,
    pub(crate) sync_on_commit: bool,
    pub(crate) verify_on_replay: bool,
    pub(crate) vfs: Arc<dyn Vfs>,
    pub(crate) retry: RetryPolicy,
    pub(crate) auto_ckpt: AutoCheckpoint,
}

impl<H: HashWord> Default for StoreBuilder<H> {
    fn default() -> Self {
        Self::new()
    }
}

impl<H: HashWord> StoreBuilder<H> {
    /// A builder with the default scheme, the [default shard
    /// count](AlphaStore::default_shards) and [`Granularity::Roots`].
    pub fn new() -> Self {
        StoreBuilder {
            scheme: HashScheme::default(),
            shards: AlphaStore::<H>::default_shards(),
            granularity: Granularity::Roots,
            chunk_entries: AlphaStore::<H>::DEFAULT_CHUNK_ENTRIES,
            sync_on_commit: false,
            verify_on_replay: false,
            vfs: Arc::new(OsVfs),
            retry: RetryPolicy::default(),
            auto_ckpt: AutoCheckpoint::default(),
        }
    }

    /// Sets the hash scheme terms are addressed with.
    pub fn scheme(mut self, scheme: HashScheme<H>) -> Self {
        self.scheme = scheme;
        self
    }

    /// Sets the hash scheme from a seed (shorthand for
    /// `scheme(HashScheme::new(seed))`).
    pub fn seed(self, seed: u64) -> Self {
        self.scheme(HashScheme::new(seed))
    }

    /// Sets the lock-stripe count (rounded up to a power of two and
    /// clamped to `1..=65536` at build time).
    pub fn shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

    /// Sets the granularity mode explicitly.
    pub fn granularity(mut self, granularity: Granularity) -> Self {
        self.granularity = granularity;
        self
    }

    /// Selects [`Granularity::Roots`] (the default).
    pub fn roots(self) -> Self {
        self.granularity(Granularity::Roots)
    }

    /// Selects [`Granularity::Subexpressions`] with the given indexing
    /// floor. See the [module docs](self) for the cost model.
    pub fn subexpressions(self, min_nodes: usize) -> Self {
        self.granularity(Granularity::Subexpressions { min_nodes })
    }

    /// Caps how many prepared entries (a term's root plus its indexed
    /// subexpressions) a batch ingest accumulates before draining them
    /// into the shards — and, on a durable store, before group-committing
    /// them to the write-ahead log. Bounds batch ingest's peak memory to
    /// Θ(budget) canonical forms whatever the batch size, at the cost of a
    /// few extra lock rounds per chunk. Clamped to at least 1; the default
    /// is [`AlphaStore::DEFAULT_CHUNK_ENTRIES`].
    pub fn chunk_entries(mut self, entries: usize) -> Self {
        self.chunk_entries = entries;
        self
    }

    /// Upgrades every durable group commit from an OS-buffered write (the
    /// default: data survives a process crash, but an OS crash or power
    /// loss can drop the unsynced WAL tail) to a full `fsync` (power-loss
    /// durable, at a large per-commit cost). Only meaningful with
    /// [`StoreBuilder::open_durable`].
    pub fn sync_on_commit(mut self, sync: bool) -> Self {
        self.sync_on_commit = sync;
        self
    }

    /// Paranoid recovery of a [`Granularity::Roots`] store: during WAL
    /// replay, **re-hash** every record — rebuild a named term from its
    /// canonical payload and push it through the full hashing pipeline —
    /// and fail the open with [`PersistError::Corrupt`] if the recomputed
    /// address disagrees with the recorded one. A
    /// [`Granularity::Subexpressions`] store's records are the terms
    /// themselves, re-prepared and so re-hashed on every replay, so there
    /// this setting changes nothing.
    ///
    /// The frame CRC catches random torn writes, and the normal replay
    /// path re-confirms every merge by canonical-form identity — but both
    /// trust that a record's `(hash, canon)` *pair* is the one ingest
    /// wrote. A consistent corruption (firmware bit rot after the CRC was
    /// computed, a buggy backup tool rewriting bytes and re-framing them)
    /// could alter the canon and still replay "cleanly" into a class
    /// addressed by the stale hash. Re-hashing closes that hole at the
    /// cost of roughly re-preparing every replayed record. Only meaningful
    /// with [`StoreBuilder::open_durable`].
    pub fn verify_on_replay(mut self, verify: bool) -> Self {
        self.verify_on_replay = verify;
        self
    }

    /// Replaces the storage backend every persisted byte flows through.
    /// The default is [`OsVfs`] (the real filesystem); tests substitute
    /// [`FaultVfs`](crate::FaultVfs) to inject deterministic I/O failures
    /// at chosen operation indices. Only meaningful with
    /// [`StoreBuilder::open_durable`].
    pub fn vfs(mut self, vfs: Arc<dyn Vfs>) -> Self {
        self.vfs = vfs;
        self
    }

    /// How many times a failed WAL append/sync is retried (with
    /// exponential backoff, see [`StoreBuilder::persist_backoff`]) before
    /// the store gives up and flips to
    /// [`Health::ReadOnly`](crate::Health::ReadOnly). `0` disables
    /// retries: the first failure is final. Default: 2. Only meaningful
    /// with [`StoreBuilder::open_durable`].
    pub fn persist_retries(mut self, retries: u32) -> Self {
        self.retry.retries = retries;
        self
    }

    /// Base delay of the exponential backoff between WAL retries: attempt
    /// *n* sleeps `backoff × 2ⁿ⁻¹`. The WAL mutex is held across the
    /// sleeps — concurrent ingest waits rather than reordering around a
    /// failing append. Default: 5 ms. Only meaningful with
    /// [`StoreBuilder::open_durable`].
    pub fn persist_backoff(mut self, backoff: Duration) -> Self {
        self.retry.backoff = backoff;
        self
    }

    /// Replaces the clock the retry loop sleeps on — the injectable-clock
    /// seam that lets tests drive the backoff path without real delays.
    /// The default is [`std::thread::sleep`].
    pub fn persist_sleeper(mut self, sleeper: Arc<dyn Fn(Duration) + Send + Sync>) -> Self {
        self.retry.sleeper = sleeper;
        self
    }

    /// Arms the byte watermark for auto-checkpoint: after any ingest that
    /// leaves at least `bytes` of WAL appended since the last checkpoint,
    /// the store checkpoints itself (snapshot + WAL reset) through the
    /// maintenance lock. Off by default. Only meaningful with
    /// [`StoreBuilder::open_durable`]; see `docs/RELIABILITY.md`.
    pub fn auto_checkpoint_bytes(mut self, bytes: u64) -> Self {
        self.auto_ckpt.bytes = Some(bytes);
        self
    }

    /// Arms the record-count watermark for auto-checkpoint, like
    /// [`StoreBuilder::auto_checkpoint_bytes`] but counting WAL records.
    /// Off by default.
    pub fn auto_checkpoint_records(mut self, records: u64) -> Self {
        self.auto_ckpt.records = Some(records);
        self
    }

    /// Builds the store (in-memory), silently clamping degenerate
    /// settings to the nearest legal value: shard counts round up to a
    /// power of two in `1..=65536`, `chunk_entries` to at least 1.
    pub fn build(self) -> AlphaStore<H> {
        AlphaStore::new(&self)
    }

    /// Builds a **durable** store rooted at `dir`: every insert is teed
    /// into a write-ahead log there, and [`AlphaStore::snapshot`] /
    /// [`AlphaStore::checkpoint`] keep a point-in-time image alongside it.
    ///
    /// If `dir` already holds a store, it is recovered — snapshot loaded,
    /// WAL tail replayed with every merge re-confirmed — and both files
    /// must carry this builder's identity: hash width, scheme seed, shard
    /// count and granularity ([`PersistError::Mismatch`] otherwise). If
    /// `dir` is empty or missing, a fresh store is created there. See
    /// [`crate::persist`] for the crash-consistency story.
    ///
    /// ```
    /// use alpha_store::AlphaStore;
    /// use lambda_lang::{parse, ExprArena};
    ///
    /// let dir = std::env::temp_dir().join(format!("doc-durable-{}", std::process::id()));
    /// let builder = || AlphaStore::<u64>::builder().seed(7).subexpressions(2);
    ///
    /// let mut arena = ExprArena::new();
    /// let t = parse(&mut arena, r"map (\x. x + 1) things").unwrap();
    /// builder().open_durable(&dir).unwrap().insert(&arena, t);
    ///
    /// // A new process reopens the same directory: containment queries
    /// // keep working on the recovered subexpression index.
    /// let store = builder().open_durable(&dir).unwrap();
    /// let pattern = parse(&mut arena, r"\q. q + 1").unwrap();
    /// assert!(store.contains(&arena, pattern).is_some());
    /// # std::fs::remove_dir_all(&dir).unwrap();
    /// ```
    pub fn open_durable(
        self,
        dir: impl AsRef<std::path::Path>,
    ) -> Result<AlphaStore<H>, PersistError> {
        crate::persist::open(dir.as_ref(), self, true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_defaults_match_the_classic_constructor() {
        let built: AlphaStore<u64> = StoreBuilder::new().build();
        let classic: AlphaStore<u64> = AlphaStore::default();
        assert_eq!(built.shard_count(), classic.shard_count());
        assert_eq!(built.granularity(), Granularity::Roots);
        assert_eq!(classic.granularity(), Granularity::Roots);
    }

    #[test]
    fn builder_configures_granularity_and_shards() {
        let store: AlphaStore<u64> = StoreBuilder::new()
            .seed(7)
            .shards(4)
            .subexpressions(3)
            .build();
        assert_eq!(store.shard_count(), 4);
        assert_eq!(
            store.granularity(),
            Granularity::Subexpressions { min_nodes: 3 }
        );
        assert!(store.granularity().indexes_subexpressions());
        assert_eq!(store.granularity().min_nodes(), 3);
        assert_eq!(Granularity::Roots.min_nodes(), 1);
        assert_eq!(Granularity::Subexpressions { min_nodes: 0 }.min_nodes(), 1);
    }

    #[test]
    fn build_rounds_and_clamps_shard_counts() {
        let shards = |n: usize| StoreBuilder::<u64>::new().shards(n).build().shard_count();
        assert_eq!(shards(6), 8, "in range, not a power of two: rounds up");
        assert_eq!(shards(0), 1);
        assert_eq!(shards((1 << 16) + 1), 1 << 16);
        // chunk_entries(0) clamps to 1: a batch still drains.
        let store: AlphaStore<u64> = StoreBuilder::new().chunk_entries(0).build();
        let mut arena = lambda_lang::ExprArena::new();
        let roots =
            [r"\x. x", r"\y. y", "v + 1"].map(|src| lambda_lang::parse(&mut arena, src).unwrap());
        assert_eq!(store.insert_batch(&arena, &roots).len(), 3);
        assert_eq!(store.num_classes(), 2);
    }
}
