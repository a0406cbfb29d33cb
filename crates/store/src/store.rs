//! The [`AlphaStore`]: sharded, concurrent, content-addressed storage of
//! alpha-equivalence classes over a hash-consed canon DAG.
//!
//! ## Concurrency model
//!
//! The store is lock-striped: the term's alpha-hash selects one of N
//! shards (N a power of two, fixed at construction), and each shard is an
//! independent `RwLock`-protected map from hash to classes. Ingesting
//! threads therefore contend only when their terms land on the same
//! stripe. All expensive work — hashing the term, canonicalizing it —
//! happens *outside* the lock; the critical section is a bucket probe plus
//! a merge confirmation that is **O(1)** for entries already interned into
//! the shared canon DAG (a ref compare) and one linear walk of a `Roots`
//! entry's named term against the class's form.
//!
//! Canonical forms themselves live in one store-wide `CanonTable`
//! (`crate::dag`):
//! classes hold a [`CanonRef`] root instead of owning an arena, so
//! identical structure — across classes, across subterm entries, across
//! whole alpha-duplicated corpora — is resident exactly once. See
//! [`AlphaStore::canon_dag_stats`] for the sharing it buys.
//!
//! ## One ingest path
//!
//! [`Granularity`] matters only where a term is prepared (`crate::prepare`):
//! `Roots` mode is `Subexpressions` mode with nothing indexed below the
//! root. `insert` is a one-term `insert_batch`; both go through one chunked
//! driver, one WAL tee, a subexpression sweep (empty in `Roots` mode) and a
//! root sweep, and WAL replay joins at the tee's far side. The root's canon
//! arrives in one of two shapes, a named term or an interned ref, and only
//! the bucket scan, the class-creating insert and the WAL framer look at
//! which. The named term's walks reuse the preparer's scratch, which the
//! driver and the probe hand down with the batch's arena (`Named`).
//!
//! ## Exactness
//!
//! Content-addressed stores are usually probabilistic: equal address ⇒
//! assumed equal content. This store is exact. A hash match only nominates
//! a candidate class; the merge happens after canonical-form identity is
//! confirmed — by hash-consed ref equality (interned side) or a walk of
//! the named term against the class's form (`dag::eq_named`), both exact.
//! Colliding-but-inequivalent terms coexist in the same bucket as distinct
//! classes, and the collision is counted in
//! [`StoreStats::hash_collisions`].

use crate::canon::rebuild_named;
use crate::dag::{eq_named, extract_one, intern_named, CanonTable};
use crate::esummary::Inverse;
use crate::granularity::{Granularity, StoreBuilder};
use crate::obs::StoreObs;
use crate::persist::format::{take_delta, take_term_record, StoreIdentity};
use crate::persist::snapshot::SnapshotHeader;
use crate::persist::vfs::Vfs;
use crate::persist::wal::{Wal, WalEntry, WalHeader};
use crate::persist::{Durable, PersistError, SnapshotOp, SNAPSHOT_FILE};
use crate::prepare::{
    Named, PreparedCanon, PreparedTerm, Preparer, PreparerPool, RootEntry, SubEntry,
};
use crate::stats::{CanonDagStats, StatCounters, StoreStats};
use alpha_hash::combine::{mix64, HashScheme, HashWord};
use lambda_lang::arena::{ExprArena, NodeId};
use lambda_lang::canon::CanonRef;
use lambda_lang::debruijn::{db_print, DbArena, DbId};
use std::collections::HashMap;
use std::fmt;
use std::path::Path;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, RwLock};
use std::time::Duration;

/// Shared `Debug` shape for the two handle types: `c3.17` = shard 3,
/// index 17.
macro_rules! fmt_id {
    ($prefix:literal) => {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            write!(f, concat!($prefix, "{}.{}"), self.shard, self.index)
        }
    };
}

/// Handle to an equivalence class inside one [`AlphaStore`].
///
/// Handles are only meaningful relative to the store that issued them;
/// they are stable for the lifetime of the store (classes are never
/// removed or renumbered).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ClassId {
    pub(crate) shard: u16,
    pub(crate) index: u32,
}

impl ClassId {
    /// Packs the handle into a single word (shard in the high bits), for
    /// use as a compact foreign key.
    pub fn to_bits(self) -> u64 {
        (u64::from(self.shard) << 32) | u64::from(self.index)
    }

    /// Inverse of [`ClassId::to_bits`].
    pub fn from_bits(bits: u64) -> Self {
        ClassId {
            shard: (bits >> 32) as u16,
            index: bits as u32,
        }
    }
}

impl fmt::Debug for ClassId {
    fmt_id!("c");
}

/// Handle to one ingested term inside one [`AlphaStore`].
///
/// Every successful [`AlphaStore::insert`] issues a fresh `TermId`, even
/// when the term merges into an existing class; [`AlphaStore::class_of`]
/// maps it back to its class.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TermId {
    pub(crate) shard: u16,
    pub(crate) index: u32,
}

impl TermId {
    /// Packs the handle into a single word (shard in the high bits), for
    /// use as a compact foreign key — the form WAL delta records and the
    /// wire protocol carry.
    pub fn to_bits(self) -> u64 {
        (u64::from(self.shard) << 32) | u64::from(self.index)
    }

    /// Inverse of [`TermId::to_bits`]. Only meaningful for bits produced
    /// by [`TermId::to_bits`] against the same store; the fallible update
    /// paths range-check the result before trusting it.
    pub fn from_bits(bits: u64) -> Self {
        TermId {
            shard: (bits >> 32) as u16,
            index: bits as u32,
        }
    }
}

impl fmt::Debug for TermId {
    fmt_id!("t");
}

/// What one insert did to the subexpression index. All-zero in
/// [`Granularity::Roots`] mode, where no subexpressions are indexed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SubexprSummary {
    /// Proper subexpression occurrences indexed by this insert (the root
    /// itself is accounted by the term's own class, not here).
    pub indexed: u64,
    /// Of those, how many merged into an already-existing class (merge
    /// confirmed by canonical-form identity, as always). Duplicate
    /// occurrences beyond the first within one term count here too.
    pub merged: u64,
    /// Proper subexpression occurrences skipped by the granularity's
    /// `min_nodes` floor.
    pub skipped_min_nodes: u64,
}

/// What one insert did.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct InsertOutcome {
    /// Handle for the ingested term.
    pub term: TermId,
    /// The class the term belongs to.
    pub class: ClassId,
    /// `true` iff this insert created the class (first member).
    pub fresh: bool,
    /// What the insert did to the subexpression index.
    pub subs: SubexprSummary,
}

/// Operational health of a store's durability, reported by
/// [`AlphaStore::health`] and driven by the WAL/snapshot outcomes the
/// store observes. In-memory stores are always [`Health::Healthy`].
///
/// The machine is `Healthy → Degraded → ReadOnly`, with two healing
/// edges back to `Healthy`: a WAL append that succeeds after retries
/// (the transient fault passed), and a successful
/// [`checkpoint`](AlphaStore::checkpoint) (which re-establishes the
/// clean `(snapshot, empty WAL)` state from scratch — the only way out
/// of `ReadOnly`). See `docs/RELIABILITY.md` for the full transition
/// diagram.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Health {
    /// Every persistence operation is succeeding.
    Healthy,
    /// A recent persistence operation failed but the store still accepts
    /// writes: a WAL append is mid-retry, or a snapshot/checkpoint failed
    /// while the WAL kept working. The payload is a human-readable
    /// description of the last failure.
    Degraded(String),
    /// WAL writes failed persistently (every retry exhausted, or a WAL
    /// reset failed and left the log unusable): ingest is refused with
    /// [`StoreError::Degraded`] so in-memory state cannot silently
    /// diverge from what recovery could rebuild, while `lookup` /
    /// `contains` / `contains_batch` keep serving the state already
    /// ingested. A successful [`checkpoint`](AlphaStore::checkpoint)
    /// heals the store.
    ReadOnly(String),
}

impl Health {
    /// The state as a stable machine-readable code — the same encoding
    /// the `alpha_store_health` gauge uses and the one network front
    /// ends put on the wire: 0 = healthy, 1 = degraded, 2 = read-only.
    pub fn code(&self) -> u8 {
        match self {
            Health::Healthy => HEALTH_HEALTHY,
            Health::Degraded(_) => HEALTH_DEGRADED,
            Health::ReadOnly(_) => HEALTH_READ_ONLY,
        }
    }

    /// The failure description carried by the degraded states (empty for
    /// [`Health::Healthy`]).
    pub fn reason(&self) -> &str {
        match self {
            Health::Healthy => "",
            Health::Degraded(r) | Health::ReadOnly(r) => r,
        }
    }
}

/// What recovery did when a durable store was [opened](AlphaStore::open),
/// reported by [`AlphaStore::recovery_info`]. Lets operators (and the
/// `alphahashd` daemon's shutdown test) distinguish a **clean** reopen —
/// the snapshot already held every WAL record, nothing was replayed —
/// from a crash recovery that had to replay a WAL tail.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RecoveryInfo {
    /// WAL records replayed through the ingest path during the open.
    pub replayed_records: u64,
    /// `true` when the open was clean: intact snapshot, intact same-epoch
    /// WAL fully absorbed by it, so the O(store) recovery checkpoint was
    /// skipped and the existing WAL simply continues.
    pub clean: bool,
}

/// What a fallible ingest ([`AlphaStore::try_insert`] /
/// [`AlphaStore::try_insert_batch`]) can fail with. The infallible
/// [`AlphaStore::insert`] / [`AlphaStore::insert_batch`] panic on these
/// instead (the pre-health-machine contract).
#[derive(Debug)]
pub enum StoreError {
    /// The store is in [`Health::ReadOnly`]: its WAL failed persistently
    /// and ingest is refused until a [`checkpoint`](AlphaStore::checkpoint)
    /// succeeds. Read paths keep working.
    Degraded {
        /// Why the store went read-only.
        reason: String,
    },
    /// The WAL write for **this** ingest failed after exhausting the
    /// retry policy; the store has just flipped to [`Health::ReadOnly`].
    /// Nothing from the failed chunk was applied to memory.
    Persist(PersistError),
    /// An [`AlphaStore::try_update`] rewrite was refused **before any
    /// state changed**: the term handle is unknown, the path does not
    /// resolve inside the term, or the replacement's free variables could
    /// capture a binder of the host term (the hazard
    /// `alpha_hash::incremental` documents — the store boundary rejects
    /// it rather than silently mis-hashing).
    InvalidRewrite {
        /// Why the rewrite was refused.
        reason: String,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Degraded { reason } => {
                write!(f, "store is read-only (degraded): {reason}")
            }
            StoreError::Persist(e) => write!(f, "store ingest failed to persist: {e}"),
            StoreError::InvalidRewrite { reason } => {
                write!(f, "invalid rewrite: {reason}")
            }
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Degraded { .. } | StoreError::InvalidRewrite { .. } => None,
            StoreError::Persist(e) => Some(e),
        }
    }
}

impl From<PersistError> for StoreError {
    fn from(e: PersistError) -> Self {
        StoreError::Persist(e)
    }
}

/// Retry policy for WAL appends: `retries` bounded attempts after the
/// first failure, exponential backoff from `backoff`, sleeping through
/// the injectable `sleeper` (see [`StoreBuilder::persist_sleeper`]).
#[derive(Clone)]
pub(crate) struct RetryPolicy {
    pub(crate) retries: u32,
    pub(crate) backoff: Duration,
    pub(crate) sleeper: Arc<dyn Fn(Duration) + Send + Sync>,
}

impl fmt::Debug for RetryPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RetryPolicy")
            .field("retries", &self.retries)
            .field("backoff", &self.backoff)
            .finish_non_exhaustive()
    }
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            retries: 2,
            backoff: Duration::from_millis(5),
            sleeper: Arc::new(std::thread::sleep),
        }
    }
}

/// Auto-checkpoint watermarks (both off by default): after an ingest
/// leaves the WAL at or past either one, the store checkpoints itself.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct AutoCheckpoint {
    pub(crate) bytes: Option<u64>,
    pub(crate) records: Option<u64>,
}

impl AutoCheckpoint {
    fn armed(&self) -> bool {
        self.bytes.is_some() || self.records.is_some()
    }

    fn reached(&self, bytes: u64, records: u64) -> bool {
        self.bytes.is_some_and(|w| bytes >= w) || self.records.is_some_and(|w| records >= w)
    }
}

/// Health gauge/state encoding shared with `alpha_store_health`.
const HEALTH_HEALTHY: u8 = 0;
const HEALTH_DEGRADED: u8 = 1;
const HEALTH_READ_ONLY: u8 = 2;

/// The store-internal half of the health machine: a lock-free state tag
/// read on every durable ingest, plus the last failure description. The
/// reason mutex is a **leaf lock** (nothing is acquired while holding
/// it) and is only touched on transitions and `health()` calls — never
/// on the healthy hot path, which reads one relaxed atomic.
#[derive(Debug)]
struct HealthState {
    state: AtomicU8,
    reason: Mutex<String>,
}

impl Default for HealthState {
    fn default() -> Self {
        HealthState {
            state: AtomicU8::new(HEALTH_HEALTHY),
            reason: Mutex::new(String::new()),
        }
    }
}

/// One stored equivalence class: the root of its canonical form in the
/// shared canon DAG, plus bookkeeping.
pub(crate) struct StoredClass<H> {
    pub(crate) hash: H,
    /// The class's canon in the canon DAG: the root of its de Bruijn
    /// form (`Roots`), or its e-summary key (`Subexpressions`).
    pub(crate) canon: CanonRef,
    /// Tree node count of the canonical form (the size every member
    /// shares, alpha-equivalent terms being equisized). The *resident*
    /// footprint is smaller: DAG nodes are shared across classes.
    pub(crate) node_count: u64,
    /// Whole-term inserts into this class. Zero for classes that only ever
    /// appeared as subexpressions of ingested terms.
    pub(crate) members: u64,
    /// Total appearances: whole-term inserts plus every indexed
    /// subexpression occurrence. Equals `members` in `Roots` mode.
    pub(crate) occurrences: u64,
}

/// One lock stripe: hash-addressed classes plus the shard-local term log.
pub(crate) struct Shard<H> {
    /// Hash → indexes into `classes`. Almost always a single entry; more
    /// only under a true hash collision.
    buckets: HashMap<H, Vec<u32>>,
    pub(crate) classes: Vec<StoredClass<H>>,
    /// Term-local index → [`ClassId::to_bits`] of the term's class. A
    /// term starts in the shard its hash routes to, but a later
    /// [`AlphaStore::update`] can repoint it at a class in **any** shard,
    /// hence full bits rather than a same-shard class index.
    pub(crate) terms: Vec<u64>,
    /// Term-local index → `(ClassId::to_bits, multiplicity)` pairs for
    /// the term's indexed subexpression classes (including the term's own
    /// class), sorted by bits. The multiplicity is how many occurrences
    /// of that class this term contributes — what an update must subtract
    /// to un-index the old form exactly. Always empty boxes in `Roots`
    /// mode, where the root class is recovered from `terms` instead.
    pub(crate) term_subs: Vec<Box<[(u64, u32)]>>,
}

impl<H: HashWord> Shard<H> {
    pub(crate) fn empty() -> Self {
        Shard {
            buckets: HashMap::new(),
            classes: Vec::new(),
            terms: Vec::new(),
            term_subs: Vec::new(),
        }
    }

    /// Rebuilds a shard from snapshot parts. Buckets are reconstructed
    /// from the class hashes, pushing in class-index order so bucket scan
    /// order matches creation order (which keeps collision accounting
    /// deterministic across a save/load cycle).
    pub(crate) fn from_parts(
        classes: Vec<StoredClass<H>>,
        terms: Vec<u64>,
        term_subs: Vec<Box<[(u64, u32)]>>,
    ) -> Self {
        let mut buckets: HashMap<H, Vec<u32>> = HashMap::new();
        for (i, class) in classes.iter().enumerate() {
            buckets.entry(class.hash).or_default().push(i as u32);
        }
        Shard {
            buckets,
            classes,
            terms,
            term_subs,
        }
    }

    /// The bucket scan behind [`Shard::find`] and [`Shard::insert_entry`]:
    /// the first class of `entry`'s bucket whose canonical form equals the
    /// entry's, with how that was confirmed, and whether a class of the
    /// same hash but another form came before it. Confirmation is an O(1)
    /// ref compare for an interned entry and a walk of the named term
    /// against the class's form for a named one, which only entries of
    /// `named`'s arena are.
    fn scan(
        &self,
        table: &CanonTable,
        entry: &RootEntry<H>,
        mut named: Option<&mut Named<'_>>,
    ) -> (Option<(u32, Confirm)>, bool) {
        let mut mismatched = false;
        for &ci in self.buckets.get(&entry.hash).into_iter().flatten() {
            let class = &self.classes[ci as usize];
            if class.node_count == entry.node_count {
                let confirm = match entry.canon {
                    PreparedCanon::Interned(r) => (r == class.canon).then_some(Confirm::Ref),
                    PreparedCanon::Named(root) => {
                        let named = named.as_deref_mut().expect("a named entry has its arena");
                        eq_named(table, class.canon, named.arena, root, named.scratch)
                            .then_some(Confirm::Walk(entry.node_count))
                    }
                    PreparedCanon::Absent => None,
                };
                if let Some(how) = confirm {
                    return (Some((ci, how)), mismatched);
                }
            }
            mismatched = true;
        }
        (None, mismatched)
    }

    /// Inserts one prepared entry — a whole term (`is_root`) or an indexed
    /// subexpression — returning (class index, fresh, collided).
    /// `collided` is true whenever this insert's hash matched at least one
    /// class that turned out not to be alpha-equivalent — on the merge
    /// path as well as on class creation — matching the definition of
    /// [`StoreStats::hash_collisions`]. A named entry that creates a class
    /// is interned here, straight from its named term.
    pub(crate) fn insert_entry(
        &mut self,
        table: &CanonTable,
        entry: &RootEntry<H>,
        is_root: bool,
        obs: &StoreObs,
        mut named: Option<&mut Named<'_>>,
    ) -> (u32, bool, bool) {
        let (found, collided) = self.scan(table, entry, named.as_deref_mut());
        if let Some((ci, how)) = found {
            match how {
                Confirm::Ref => obs.confirm_ref(),
                Confirm::Walk(steps) => obs.confirm_walk(steps),
            }
            let class = &mut self.classes[ci as usize];
            class.occurrences += u64::from(entry.multiplicity);
            if is_root {
                class.members += 1;
            }
            return (ci, false, collided);
        }
        let canon = match entry.canon {
            PreparedCanon::Interned(r) => r,
            PreparedCanon::Named(root) => {
                let named = named.expect("a named entry has its arena");
                intern_named(table, named.arena, root, named.scratch)
            }
            PreparedCanon::Absent => unreachable!("only probes are absent"),
        };
        let ci = u32::try_from(self.classes.len()).expect("shard class overflow");
        self.buckets.entry(entry.hash).or_default().push(ci);
        self.classes.push(StoredClass {
            hash: entry.hash,
            canon,
            node_count: entry.node_count,
            members: u64::from(is_root),
            occurrences: u64::from(entry.multiplicity),
        });
        (ci, true, collided)
    }

    /// Read-only probe: the class whose canonical form equals the
    /// prepared entry's, if any.
    pub(crate) fn find(
        &self,
        table: &CanonTable,
        entry: &RootEntry<H>,
        named: &mut Named<'_>,
    ) -> Option<u32> {
        self.scan(table, entry, Some(named)).0.map(|(ci, _)| ci)
    }
}

/// How a bucket scan confirmed its match.
enum Confirm {
    /// Interned-ref equality.
    Ref,
    /// A walk of a named term of this many nodes.
    Walk(u64),
}

/// A sharded, concurrent, content-addressed store of alpha-equivalence
/// classes. See the [module docs](self) for the design.
///
/// The store is `Sync`: share it by reference (or `Arc`) and ingest from
/// many threads concurrently.
///
/// ```
/// use alpha_store::AlphaStore;
/// use lambda_lang::{parse, ExprArena};
///
/// let store: AlphaStore<u64> = AlphaStore::default();
/// let mut arena = ExprArena::new();
/// let roots = [
///     parse(&mut arena, r"\x. x + 1").unwrap(),
///     parse(&mut arena, r"\y. y + 1").unwrap(),
///     parse(&mut arena, r"\z. z + 2").unwrap(),
/// ];
/// std::thread::scope(|scope| {
///     for chunk in roots.chunks(2) {
///         scope.spawn(|| store.insert_batch(&arena, chunk));
///     }
/// });
/// assert_eq!(store.num_terms(), 3);
/// assert_eq!(store.num_classes(), 2); // the two x+1 lambdas merged
/// assert!(store.stats().is_exact());
/// ```
pub struct AlphaStore<H: HashWord = u64> {
    pub(crate) scheme: HashScheme<H>,
    pub(crate) shards: Box<[RwLock<Shard<H>>]>,
    mask: usize,
    pub(crate) counters: StatCounters,
    pub(crate) granularity: Granularity,
    /// The shared, hash-consed storage of every canonical form the store
    /// holds. Reads take no lock; interning takes one leaf mutex at a
    /// time, so the table sits outside the store's lock order.
    pub(crate) table: CanonTable,
    /// Batch ingest drains in chunks of at most this many prepared
    /// entries, bounding both the prepared-state high-water mark and the
    /// WAL group-commit buffer. See [`StoreBuilder::chunk_entries`].
    chunk_entries: usize,
    /// `Some` for durable stores: the open WAL plus its directory.
    pub(crate) durable: Option<Durable>,
    /// WAL append retry policy (durable stores; see
    /// [`StoreBuilder::persist_retries`]).
    retry: RetryPolicy,
    /// Auto-checkpoint watermarks (durable stores; off by default).
    auto_ckpt: AutoCheckpoint,
    /// The `Healthy → Degraded → ReadOnly` machine. Its state tag is a
    /// relaxed atomic read on the durable ingest path; its reason mutex
    /// is a leaf lock touched only on transitions.
    health: HealthState,
    /// Ingest holds this shared; [`AlphaStore::checkpoint`] holds it
    /// exclusive, so the shard state its snapshot captures is exactly
    /// what the WAL it resets has logged — no insert is ever
    /// logged-but-unapplied or applied-but-unlogged at the moment the
    /// cut is taken. Lock order: `maintenance` → `updates` → WAL mutex →
    /// shard locks (the canon table's leaf mutexes come last).
    pub(crate) maintenance: RwLock<()>,
    /// Incremental-rewrite state ([`crate::update`]): a bounded cache of
    /// live spine hashers keyed by term, behind the mutex that serializes
    /// updates. Lock order: after `maintenance` (shared), before the WAL
    /// mutex and shard locks.
    pub(crate) updates: Mutex<crate::update::UpdateCache<H>>,
    /// The instrumentation seam (`crate::obs`): the store's metric
    /// registry and tracer. Obs recording never takes a store lock; inside critical sections only
    /// wait-free operations (atomic adds, monotonic clock reads) happen.
    pub(crate) obs: StoreObs,
    /// What recovery did, for stores built by the durable open paths
    /// (`None` for in-memory stores and fresh creations).
    pub(crate) recovery: Option<RecoveryInfo>,
    /// Warm preparers for single calls (`lookup`, `contains`,
    /// `contains_batch`, `try_insert`); a leaf lock held only to take or
    /// return one.
    pub(crate) preparers: PreparerPool<H>,
}

impl<H: HashWord> Default for AlphaStore<H> {
    /// A store with the default [`HashScheme`] and [default shard
    /// count](AlphaStore::DEFAULT_SHARDS).
    fn default() -> Self {
        AlphaStore::builder().build()
    }
}

impl<H: HashWord> AlphaStore<H> {
    /// Floor of the default shard count: enough stripes that 8–16 ingest
    /// threads rarely contend, cheap enough to be negligible for
    /// single-threaded use. [`AlphaStore::default_shards`] scales above
    /// this on wider machines.
    pub const DEFAULT_SHARDS: usize = 16;

    /// The shard count [`StoreBuilder::new`] uses:
    /// the machine's `available_parallelism` rounded up to a power of
    /// two, floored at [`AlphaStore::DEFAULT_SHARDS`] (so boxes up to 16
    /// cores keep the historical layout) and capped at the 16-bit
    /// [`ClassId`] shard-index limit. Durable stores persist and validate
    /// whatever count they were built with, so a store created on a wide
    /// machine reopens elsewhere by passing that count to
    /// [`StoreBuilder::shards`] explicitly.
    pub fn default_shards() -> usize {
        std::thread::available_parallelism()
            .map_or(Self::DEFAULT_SHARDS, |n| n.get().next_power_of_two())
            .clamp(Self::DEFAULT_SHARDS, 1 << 16)
    }

    /// The configuring front door: a [`StoreBuilder`] with the default
    /// scheme, shard count and [`Granularity::Roots`].
    pub fn builder() -> StoreBuilder<H> {
        StoreBuilder::new()
    }

    /// Default for [`StoreBuilder::chunk_entries`]: big enough that chunk
    /// overhead (extra lock rounds, WAL flushes) is negligible, small
    /// enough to bound batch ingest's peak memory to a few thousand
    /// canonical forms whatever the batch size.
    pub const DEFAULT_CHUNK_ENTRIES: usize = 8192;

    /// The one constructor: an empty store with `builder`'s settings,
    /// the shard count rounded up to a power of two in `1..=65536` and
    /// `chunk_entries` to at least 1. Reached via [`StoreBuilder::build`]
    /// and the durable open path, which may then load a snapshot into it.
    pub(crate) fn new(builder: &StoreBuilder<H>) -> Self {
        let count = builder.shards.clamp(1, 1 << 16).next_power_of_two();
        AlphaStore {
            scheme: builder.scheme,
            shards: (0..count).map(|_| RwLock::new(Shard::empty())).collect(),
            mask: count - 1,
            counters: StatCounters::default(),
            granularity: builder.granularity,
            table: CanonTable::new(),
            chunk_entries: builder.chunk_entries.max(1),
            durable: None,
            retry: builder.retry.clone(),
            auto_ckpt: builder.auto_ckpt,
            health: HealthState::default(),
            maintenance: RwLock::new(()),
            updates: Mutex::new(crate::update::UpdateCache::default()),
            obs: StoreObs::new(),
            recovery: None,
            preparers: PreparerPool::default(),
        }
    }

    /// What every file of this store is headed with and checked against:
    /// hash width, scheme seed, shard count and granularity.
    pub(crate) fn identity(&self) -> StoreIdentity {
        StoreIdentity {
            hash_bits: H::BITS,
            scheme_seed: self.scheme.seed(),
            shard_count: u32::try_from(self.shards.len()).expect("shard count fits u32"),
            granularity: self.granularity,
        }
    }

    pub(crate) fn attach_durable(&mut self, mut durable: Durable) {
        // Hand the WAL its slice of this store's instruments before it
        // can see any traffic.
        durable.wal.get_mut().expect("wal lock poisoned").obs = self.obs.wal_obs();
        self.durable = Some(durable);
    }

    /// Recovery phases are timed in `persist::recover`, before
    /// this store exists; they arrive here as raw durations.
    pub(crate) fn record_recovery(&self, snapshot_load_ns: u64, replay_ns: u64) {
        self.obs.rec_recovery(snapshot_load_ns, replay_ns);
    }

    /// The hash scheme terms are addressed with.
    pub fn scheme(&self) -> &HashScheme<H> {
        &self.scheme
    }

    /// The granularity mode fixed at build time.
    pub fn granularity(&self) -> Granularity {
        self.granularity
    }

    /// Number of lock stripes.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Number of lock stripes in the shared canon table: derived from the
    /// machine's available parallelism, not part of the persisted
    /// configuration.
    pub fn table_shard_count(&self) -> usize {
        self.table.shard_count()
    }

    /// Routes a hash to its shard. Re-mixed so that shard choice is not
    /// correlated with the low bits used by the buckets' `HashMap`.
    pub(crate) fn shard_of(&self, hash: H) -> usize {
        let (lo, hi) = hash.to_lanes();
        (mix64(lo ^ hi.rotate_left(32)) as usize) & self.mask
    }

    /// Ingests one term: routes it by content address, confirms any
    /// candidate merge by canonical-form identity, and either joins an
    /// existing class or creates a new one. Under
    /// [`Granularity::Subexpressions`], additionally indexes every
    /// subexpression clearing the `min_nodes` floor, all hashed in the
    /// same fused pass and interned into the shared canon DAG.
    ///
    /// ```
    /// use alpha_store::AlphaStore;
    /// use lambda_lang::{parse, ExprArena};
    ///
    /// let store: AlphaStore<u64> = AlphaStore::default();
    /// let mut arena = ExprArena::new();
    /// let t = parse(&mut arena, "let w = v+7 in w*w").unwrap();
    /// let outcome = store.insert(&arena, t);
    /// assert!(outcome.fresh);
    /// assert_eq!(store.class_of(outcome.term), outcome.class);
    /// ```
    ///
    /// # Panics
    ///
    /// On a durable store whose WAL write fails beyond the retry policy
    /// (durability would silently diverge otherwise). Use
    /// [`AlphaStore::try_insert`] to handle that as an error instead.
    pub fn insert(&self, arena: &ExprArena, root: NodeId) -> InsertOutcome {
        self.try_insert(arena, root)
            .unwrap_or_else(|e| panic!("WAL append failed; cannot continue durably: {e}"))
    }

    /// [`AlphaStore::insert`], but a durable-store persistence failure
    /// comes back as a typed [`StoreError`] instead of a panic: the term
    /// was **not** applied (memory and WAL stay in agreement), and the
    /// store's [`health`](AlphaStore::health) says what to do next. For
    /// in-memory stores this never errors.
    pub fn try_insert(&self, arena: &ExprArena, root: NodeId) -> Result<InsertOutcome, StoreError> {
        let mut preparer = self.preparers.take(arena, &self.scheme);
        let outcomes = self.ingest_with(&mut preparer, arena, &[root], self.chunk_entries);
        self.preparers.give(preparer);
        Ok(outcomes?.pop().expect("one term ingested"))
    }

    /// Ingests a batch of terms, draining in chunks of at most
    /// [`chunk_entries`](StoreBuilder::chunk_entries) prepared entries (a
    /// term's root plus its distinct indexed subexpressions) so peak
    /// memory is bounded whatever the batch size; within a chunk, each
    /// shard lock is taken at most twice: one sweep for the chunk's
    /// subexpression entries (none in [`Granularity::Roots`] mode), one
    /// for the roots.
    ///
    /// Outcomes are returned in input order. Equivalent to calling
    /// [`AlphaStore::insert`] per term, but with per-term lock traffic
    /// amortised and one shared [`Preparer`] across the batch, so hashing
    /// scratch state and the name-hash cache are never rebuilt per term —
    /// the natural entry point for high-throughput ingest. On a durable
    /// store, each chunk is one group-committed WAL append. The resulting
    /// classes are the same; under [`Granularity::Subexpressions`] the
    /// `fresh` flags and the merge counts can differ, because a chunk
    /// indexes all its subexpressions before its roots, so a term's class
    /// may be created by a later term's subexpression.
    ///
    /// # Panics
    ///
    /// On a durable store whose WAL write fails beyond the retry policy,
    /// like [`AlphaStore::insert`]. Use
    /// [`AlphaStore::try_insert_batch`] to handle that as an error.
    pub fn insert_batch(&self, arena: &ExprArena, roots: &[NodeId]) -> Vec<InsertOutcome> {
        self.try_insert_batch(arena, roots)
            .unwrap_or_else(|e| panic!("WAL append failed; cannot continue durably: {e}"))
    }

    /// [`AlphaStore::insert_batch`], but a durable-store persistence
    /// failure comes back as a typed [`StoreError`]. Chunks are applied
    /// in order and each chunk is atomic with respect to failure: on
    /// `Err`, every chunk before the failing one was fully ingested
    /// (memory and WAL agree) and the failing chunk plus everything
    /// after it was not applied at all.
    pub fn try_insert_batch(
        &self,
        arena: &ExprArena,
        roots: &[NodeId],
    ) -> Result<Vec<InsertOutcome>, StoreError> {
        let mut preparer = Preparer::new(arena, &self.scheme);
        self.ingest_with(&mut preparer, arena, roots, self.chunk_entries)
    }

    /// The one ingest driver, behind `insert` (a one-term batch),
    /// `insert_batch` and WAL replay: every term is prepared outside any
    /// lock, in the shape the store's granularity asks for, and each chunk
    /// of at most `chunk_entries` prepared entries (the store's, or
    /// unbounded for a replayed group, which is one chunk of the store
    /// that logged it) goes to [`AlphaStore::ingest_prepared`]. A chunk's
    /// hashing work is counted before its WAL append, so a failed append
    /// does not lose it.
    pub(crate) fn ingest_with(
        &self,
        preparer: &mut Preparer<H>,
        arena: &ExprArena,
        roots: &[NodeId],
        chunk_entries: usize,
    ) -> Result<Vec<InsertOutcome>, StoreError> {
        let mut outcomes = Vec::with_capacity(roots.len());
        let mut chunk: Vec<PreparedTerm<H>> = Vec::with_capacity(roots.len().min(chunk_entries));
        let mut entries = 0usize;
        let mut start = 0usize;
        for (i, &root) in roots.iter().enumerate() {
            let t = self.obs.tick();
            let pt = preparer.prepare(arena, root, self.granularity, &self.table);
            self.obs
                .rec_prepare(t, pt.root.node_count, preparer.intern_probes);
            entries += 1 + pt.subs.len();
            chunk.push(pt);
            if entries >= chunk_entries || i + 1 == roots.len() {
                let (nodes, misses) = preparer.take_hash_counters();
                self.obs.add_hash_counters(nodes, misses);
                let terms = std::mem::take(&mut chunk);
                let mut named = preparer.named(arena);
                outcomes.extend(self.ingest_prepared(terms, &roots[start..=i], &mut named)?);
                entries = 0;
                start = i + 1;
            }
        }
        Ok(outcomes)
    }

    /// The critical path of one ingest chunk, `terms` prepared from
    /// `roots` of `named.arena`: the chunk is group-committed to the WAL
    /// (durable stores), then its subexpression entries are drained shard
    /// by shard, then the roots — each shard locked at most twice. A
    /// durable store holds the WAL lock from the append through the
    /// apply, so chunks apply in log order and replay issues every handle
    /// the live apply did.
    fn ingest_prepared(
        &self,
        terms: Vec<PreparedTerm<H>>,
        roots: &[NodeId],
        named: &mut Named<'_>,
    ) -> Result<Vec<InsertOutcome>, StoreError> {
        let outcomes = {
            let _ingest = self.maintenance.read().expect("maintenance lock poisoned");
            self.check_writable()?;
            let _logged = self.wal_log(&terms, roots, named)?;
            self.apply_prepared(terms, named)
        };
        // The ingest guard is released: housekeeping takes the exclusive
        // maintenance lock if a watermark tripped.
        self.maybe_auto_checkpoint();
        Ok(outcomes)
    }

    /// Fills `keys` with sort keys grouping the indices of `hashes` by
    /// shard: `(shard << 32) | index`, sorted, so [`shard_runs`] yields one
    /// run per shard with input order kept within it, and a sweep takes
    /// each shard lock once without building a shard map.
    fn by_shard(&self, keys: &mut Vec<u64>, hashes: impl Iterator<Item = H>) {
        keys.clear();
        keys.extend(
            hashes
                .enumerate()
                .map(|(i, h)| ((self.shard_of(h) as u64) << 32) | i as u64),
        );
        keys.sort_unstable();
    }

    /// The lock-side second half of [`AlphaStore::ingest_prepared`]
    /// (everything after the WAL tee). Named roots are terms of
    /// `named.arena`.
    fn apply_prepared(
        &self,
        terms: Vec<PreparedTerm<H>>,
        named: &mut Named<'_>,
    ) -> Vec<InsertOutcome> {
        let count = terms.len();
        // Room for the root's own pair, which only an indexing store keeps.
        let root_pair = usize::from(self.granularity.indexes_subexpressions());
        let mut summaries: Vec<SubexprSummary> = Vec::with_capacity(count);
        let mut sub_bits: Vec<Vec<(u64, u32)>> = Vec::with_capacity(count);
        let mut roots: Vec<RootEntry<H>> = Vec::with_capacity(count);
        let mut subs: Vec<(usize, SubEntry<H>)> = Vec::new();
        let mut total_skipped = 0u64;
        for (ti, pt) in terms.into_iter().enumerate() {
            summaries.push(SubexprSummary {
                skipped_min_nodes: pt.skipped,
                ..SubexprSummary::default()
            });
            total_skipped += pt.skipped;
            sub_bits.push(Vec::with_capacity(pt.subs.len() + root_pair));
            subs.extend(pt.subs.into_iter().map(|entry| (ti, entry)));
            roots.push(pt.root);
        }
        StatCounters::add(&self.counters.subterms_skipped_min_nodes, total_skipped);

        // Sweep 1: the chunk's subexpression entries, one lock per shard.
        // Counter deltas accumulate locally and publish once at the end,
        // so no atomic traffic happens inside the critical sections. A
        // fresh entry with multiplicity m counts as 1 creation + (m-1)
        // merges: the collapsed duplicates merged into the class the first
        // occurrence created.
        let (mut n_indexed, mut n_created, mut n_merged, mut n_collided) = (0u64, 0u64, 0u64, 0u64);
        let mut keys = Vec::new();
        self.by_shard(&mut keys, subs.iter().map(|(_, e)| e.hash));
        for (shard_index, run) in shard_runs(&keys) {
            let n_entries = run.len() as u64;
            let t_apply = self.obs.tick();
            let t_lock = self.obs.tick();
            let mut shard = self.shards[shard_index]
                .write()
                .expect("shard lock poisoned");
            self.obs.rec_shard_lock_wait(t_lock);
            let shard_u16 = u16::try_from(shard_index).expect("shard count fits u16");
            for i in run {
                let (ti, entry) = &subs[i];
                let mult = entry.multiplicity;
                let m = u64::from(mult);
                let (class_index, fresh, collided) =
                    shard.insert_entry(&self.table, &entry.widen(), false, &self.obs, None);
                n_indexed += m;
                summaries[*ti].indexed += m;
                let merged = if fresh {
                    n_created += 1;
                    m - 1
                } else {
                    m
                };
                n_merged += merged;
                summaries[*ti].merged += merged;
                n_collided += u64::from(collided);
                let class = ClassId {
                    shard: shard_u16,
                    index: class_index,
                };
                sub_bits[*ti].push((class.to_bits(), mult));
            }
            drop(shard);
            self.obs.rec_apply(t_apply, n_entries);
        }
        StatCounters::add(&self.counters.subterms_indexed, n_indexed);
        StatCounters::add(&self.counters.classes_created, n_created);
        StatCounters::add(&self.counters.subterm_merges_confirmed, n_merged);
        StatCounters::add(&self.counters.hash_collisions, n_collided);

        // Sort each term's class pairs now, outside any lock —
        // finish_insert only splices in the root's own class bit.
        for bits in &mut sub_bits {
            sort_pairs(bits);
        }

        // Sweep 2: the roots, one lock per shard, each finished in input
        // order within its shard.
        let mut outcomes: Vec<Option<InsertOutcome>> = vec![None; count];
        self.by_shard(&mut keys, roots.iter().map(|r| r.hash));
        for (shard_index, run) in shard_runs(&keys) {
            let n_items = run.len() as u64;
            let t_apply = self.obs.tick();
            {
                let t_lock = self.obs.tick();
                let mut shard = self.shards[shard_index]
                    .write()
                    .expect("shard lock poisoned");
                self.obs.rec_shard_lock_wait(t_lock);
                for i in run {
                    outcomes[i] = Some(self.finish_insert(
                        &mut shard,
                        shard_index,
                        &roots[i],
                        summaries[i],
                        std::mem::take(&mut sub_bits[i]),
                        named,
                    ));
                }
            }
            self.obs.rec_apply(t_apply, n_items);
        }
        outcomes
            .into_iter()
            .map(|o| o.expect("every term processed"))
            .collect()
    }

    /// The critical section of a root insert (shard lock already held).
    /// `sub_bits` are the term's indexed subexpression classes as
    /// [`ClassId::to_bits`], **already sorted and deduplicated** (the
    /// caller does that outside the lock); only the term's own class bit
    /// is spliced in here, since it is not known until the insert.
    fn finish_insert(
        &self,
        shard: &mut Shard<H>,
        shard_index: usize,
        root: &RootEntry<H>,
        subs: SubexprSummary,
        sub_bits: Vec<(u64, u32)>,
        named: &mut Named<'_>,
    ) -> InsertOutcome {
        StatCounters::bump(&self.counters.terms_ingested);
        let (class_index, fresh, collided) =
            shard.insert_entry(&self.table, root, true, &self.obs, Some(named));
        let class = self.count_root(shard_index, class_index, fresh, collided);
        let term_index = u32::try_from(shard.terms.len()).expect("shard term overflow");
        shard.terms.push(class.to_bits());
        shard.term_subs.push(self.term_pairs(sub_bits, class));
        InsertOutcome {
            term: TermId {
                shard: class.shard,
                index: term_index,
            },
            class,
            fresh,
            subs,
        }
    }

    /// Counts a root entry's insert (a created class or a confirmed merge,
    /// and any collision) and names its class.
    pub(crate) fn count_root(
        &self,
        shard_index: usize,
        class_index: u32,
        fresh: bool,
        collided: bool,
    ) -> ClassId {
        if fresh {
            StatCounters::bump(&self.counters.classes_created);
        } else {
            StatCounters::bump(&self.counters.merges_confirmed);
        }
        if collided {
            StatCounters::bump(&self.counters.hash_collisions);
        }
        ClassId {
            shard: u16::try_from(shard_index).expect("shard count fits u16"),
            index: class_index,
        }
    }

    /// A term's `term_subs` entry: its sorted subexpression pairs plus its
    /// own class, in an indexing store; empty in `Roots` mode, where the
    /// root class is recovered from `terms` instead.
    pub(crate) fn term_pairs(
        &self,
        mut pairs: Vec<(u64, u32)>,
        class: ClassId,
    ) -> Box<[(u64, u32)]> {
        if self.granularity.indexes_subexpressions() {
            let bits = class.to_bits();
            match pairs.binary_search_by_key(&bits, |p| p.0) {
                Ok(pos) => pairs[pos].1 += 1,
                Err(pos) => pairs.insert(pos, (bits, 1)),
            }
        }
        pairs.into_boxed_slice()
    }

    /// The read-only probe behind [`AlphaStore::lookup`],
    /// [`AlphaStore::contains`] and [`AlphaStore::contains_batch`]: every
    /// pattern is prepared by one pooled [`Preparer`] outside any lock —
    /// its hash alone in `Roots` mode, a looked-up e-summary key in
    /// `Subexpressions` mode — then each shard's read lock is taken at
    /// most once to find the confirming classes, a `Roots` pattern's by a
    /// walk of the pattern against the class's form.
    /// `roots_only` narrows the answer to classes with at least one
    /// whole-term member. Probes never intern: the canon DAG only grows
    /// through ingest. Results are in input order.
    pub(crate) fn probe_batch(
        &self,
        arena: &ExprArena,
        patterns: &[NodeId],
        roots_only: bool,
    ) -> Vec<Option<ClassId>> {
        // The first pattern's prepare time includes taking the preparer.
        let mut t = self.obs.tick();
        let mut preparer = self.preparers.take(arena, &self.scheme);
        // The pooled preparer's scratch: a warm probe allocates only its
        // results.
        let mut prepared = std::mem::take(&mut preparer.probe_roots);
        let mut keys = std::mem::take(&mut preparer.probe_keys);
        for &p in patterns {
            prepared.push(preparer.probe(arena, p, self.granularity, &self.table));
            self.obs
                .rec_probe_prepare(std::mem::replace(&mut t, self.obs.tick()));
        }
        let (nodes, misses) = preparer.take_hash_counters();
        self.obs.add_hash_counters(nodes, misses);
        let mut results: Vec<Option<ClassId>> = vec![None; patterns.len()];
        let mut named = preparer.named(arena);
        self.by_shard(&mut keys, prepared.iter().map(|p| p.hash));
        for (shard_index, run) in shard_runs(&keys) {
            let t_lock = self.obs.tick();
            let shard = self.shards[shard_index]
                .read()
                .expect("shard lock poisoned");
            self.obs.rec_shard_lock_wait(t_lock);
            let shard_u16 = u16::try_from(shard_index).expect("shard count fits u16");
            for i in run {
                let t = self.obs.tick();
                results[i] = shard
                    .find(&self.table, &prepared[i], &mut named)
                    .filter(|&index| !roots_only || shard.classes[index as usize].members > 0)
                    .map(|index| ClassId {
                        shard: shard_u16,
                        index,
                    });
                self.obs.rec_probe(t);
            }
        }
        preparer.probe_roots = prepared;
        preparer.probe_keys = keys;
        self.preparers.give(preparer);
        results
    }

    /// Finds the class of a term ingested **as a whole term**, without
    /// ingesting the query. Classes that only ever appeared as
    /// subexpressions of ingested terms do not count — that is what
    /// [`AlphaStore::contains`] answers.
    pub fn lookup(&self, arena: &ExprArena, root: NodeId) -> Option<ClassId> {
        self.probe_batch(arena, &[root], true)[0]
    }

    /// The class a previously ingested term belongs to.
    ///
    /// # Panics
    ///
    /// Panics if `term` was not issued by this store.
    pub fn class_of(&self, term: TermId) -> ClassId {
        let shard = self.shards[term.shard as usize]
            .read()
            .expect("shard lock poisoned");
        ClassId::from_bits(shard.terms[term.index as usize])
    }

    /// Number of distinct alpha-equivalence classes stored.
    pub fn num_classes(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.read().expect("shard lock poisoned").classes.len())
            .sum()
    }

    /// Number of terms ingested (every insert counts, merged or fresh).
    pub fn num_terms(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.read().expect("shard lock poisoned").terms.len())
            .sum()
    }

    /// Whether no term has been ingested yet.
    pub fn is_empty(&self) -> bool {
        self.num_terms() == 0
    }

    /// Every class handle, ordered by shard then creation, as a **lazy**
    /// iterator: nothing is allocated up front, and each stripe's lock is
    /// taken (briefly, read-only) only when the iteration reaches it.
    ///
    /// The view is taken shard by shard: classes created concurrently with
    /// the iteration may or may not appear, but every handle returned is
    /// valid forever. Collect it when a point-in-time `Vec` is wanted
    /// (e.g. to sort).
    pub fn classes(&self) -> impl Iterator<Item = ClassId> + '_ {
        self.shards.iter().enumerate().flat_map(|(si, stripe)| {
            let len = stripe.read().expect("shard lock poisoned").classes.len() as u32;
            let si = u16::try_from(si).expect("shard count fits u16");
            (0..len).map(move |index| ClassId { shard: si, index })
        })
    }

    /// How many **whole ingested terms** belong to `class`. Zero for
    /// classes that only ever appeared as subexpressions (see
    /// [`AlphaStore::occurrences`] for the count that includes those).
    ///
    /// # Panics
    ///
    /// Panics if `class` was not issued by this store.
    pub fn members(&self, class: ClassId) -> u64 {
        self.with_class(class, |c| c.members)
    }

    /// Tree node count of the class's canonical form (the size every
    /// member shares, alpha-equivalent terms being equisized). The
    /// *resident* cost is lower: canonical structure is stored once in the
    /// shared canon DAG, see [`AlphaStore::canon_dag_stats`].
    ///
    /// # Panics
    ///
    /// Panics if `class` was not issued by this store.
    pub fn node_count(&self, class: ClassId) -> usize {
        usize::try_from(self.with_class(class, |c| c.node_count)).expect("node count fits usize")
    }

    /// The content address (alpha-hash) of `class`.
    ///
    /// # Panics
    ///
    /// Panics if `class` was not issued by this store.
    pub fn hash_of(&self, class: ClassId) -> H {
        self.with_class(class, |c| c.hash)
    }

    /// The class's canonical form in the paper's de Bruijn notation
    /// (`\. %0`, free variables by name), extracted from the canon DAG.
    ///
    /// # Panics
    ///
    /// Panics if `class` was not issued by this store.
    pub fn canonical_text(&self, class: ClassId) -> String {
        let (arena, root) = self.debruijn_of(self.with_class(class, |c| c.canon));
        db_print(&arena, root)
    }

    /// Rebuilds a named representative of `class` into `dst` (fresh binder
    /// names, unique-binder invariant holds) and returns its root.
    ///
    /// # Panics
    ///
    /// Panics if `class` was not issued by this store.
    pub fn representative_into(&self, class: ClassId, dst: &mut ExprArena) -> NodeId {
        let (arena, root) = self.debruijn_of(self.with_class(class, |c| c.canon));
        rebuild_named(&arena, root, dst)
    }

    /// The canonical de Bruijn form behind a class canon: extracted from
    /// the DAG in a `Roots` store, rebuilt from its e-summary key through
    /// the §4.8 inverse in a `Subexpressions` store.
    pub(crate) fn debruijn_of(&self, canon: CanonRef) -> (DbArena, DbId) {
        if self.granularity.indexes_subexpressions() {
            Inverse::new(&self.table).debruijn(canon)
        } else {
            extract_one(&self.table, canon)
        }
    }

    /// Shared-DAG size of a corpus under this store's hash scheme; see
    /// [`crate::corpus::corpus_shared_dag_size`].
    pub fn shared_dag_size(&self, arena: &ExprArena, roots: &[NodeId]) -> usize {
        crate::corpus::corpus_shared_dag_size(arena, roots, &self.scheme)
    }

    /// Snapshot of the ingest statistics.
    pub fn stats(&self) -> StoreStats {
        self.counters.snapshot()
    }

    /// Name-cache pages held by each idle pooled preparer (see
    /// [`POOLED_PREPARER_MAX_PAGES`](crate::prepare::POOLED_PREPARER_MAX_PAGES)):
    /// the warm probe state the store keeps between calls, one entry per
    /// preparer.
    pub fn idle_preparer_pages(&self) -> Vec<usize> {
        self.preparers.idle_pages()
    }

    /// Resident footprint of the hash-consed canon DAG versus the
    /// standalone storage it replaces: distinct nodes and bytes actually
    /// resident, and the logical (per-class tree) node total a
    /// one-arena-per-class design would hold. The ratio of the two is the
    /// structure-sharing win.
    pub fn canon_dag_stats(&self) -> CanonDagStats {
        let resident_nodes = self.table.resident_nodes();
        let (resident_names, _) = self.table.resident_names();
        let logical_nodes: u64 = self
            .shards
            .iter()
            .map(|s| {
                s.read()
                    .expect("shard lock poisoned")
                    .classes
                    .iter()
                    .map(|c| c.node_count)
                    .sum::<u64>()
            })
            .sum();
        CanonDagStats {
            resident_nodes,
            resident_bytes: self.table.resident_bytes(),
            resident_names,
            logical_nodes,
        }
    }

    // ---- persistence ---------------------------------------------------

    /// Opens a durable store from its directory with the default
    /// builder's settings, reading the store's identity (scheme seed,
    /// shard count, granularity) from disk: loads the latest snapshot,
    /// replays the WAL tail — **re-hashing every replayed record** against
    /// the hash it logged ([`PersistError::Corrupt`] on a mismatch) and
    /// **re-confirming every replayed merge by canonical-form identity**,
    /// so exactness survives restarts — stops at any torn tail left by a
    /// crash, and checkpoints (fresh snapshot, reset WAL) unless the
    /// reopen was clean. Use [`StoreBuilder::open_durable`] instead when
    /// the caller knows the configuration and wants it verified against
    /// what is on disk.
    ///
    /// The hash width is the one thing the type system fixes: opening a
    /// store whose files were written at a different `H` fails with
    /// [`PersistError::Mismatch`], as does a WAL whose identity differs
    /// from the snapshot's.
    ///
    /// ```
    /// use alpha_store::AlphaStore;
    /// use lambda_lang::{parse, ExprArena};
    ///
    /// let dir = std::env::temp_dir().join(format!("doc-open-{}", std::process::id()));
    /// let mut arena = ExprArena::new();
    /// let t = parse(&mut arena, r"\x. x + 1").unwrap();
    /// let class = {
    ///     let store: AlphaStore<u64> =
    ///         AlphaStore::builder().open_durable(&dir).unwrap();
    ///     store.insert(&arena, t).class
    /// }; // dropped: the store is gone from memory…
    ///
    /// let reopened: AlphaStore<u64> = AlphaStore::open(&dir).unwrap();
    /// let alpha = parse(&mut arena, r"\q. q + 1").unwrap();
    /// assert_eq!(reopened.lookup(&arena, alpha), Some(class)); // …not from disk
    /// assert!(reopened.stats().is_exact());
    /// # std::fs::remove_dir_all(&dir).unwrap();
    /// ```
    pub fn open(dir: impl AsRef<Path>) -> Result<Self, PersistError> {
        crate::persist::open(dir.as_ref(), StoreBuilder::new(), false)
    }

    /// Whether this store tees inserts into a write-ahead log (built via
    /// [`StoreBuilder::open_durable`] or [`AlphaStore::open`]).
    pub fn is_durable(&self) -> bool {
        self.durable.is_some()
    }

    /// What recovery did when this store was opened from a durable
    /// directory: how many WAL records were replayed, and whether the
    /// reopen was **clean** (snapshot already current, no replay, no
    /// recovery checkpoint). `None` for in-memory stores and for
    /// directories created fresh by this open.
    pub fn recovery_info(&self) -> Option<RecoveryInfo> {
        self.recovery
    }

    /// The durable store's directory, if any.
    pub fn persist_dir(&self) -> Option<&Path> {
        self.durable.as_ref().map(|d| d.dir.as_path())
    }

    /// Records currently in the write-ahead log (zero right after
    /// [`AlphaStore::checkpoint`] or a fresh open). `None` for in-memory
    /// stores.
    pub fn wal_records(&self) -> Option<u64> {
        self.durable
            .as_ref()
            .map(|d| d.wal.lock().expect("wal lock poisoned").records)
    }

    /// Checkpoints the durable state: writes a fresh snapshot under the
    /// **next epoch**, then truncates the WAL and restamps it with that
    /// epoch. The snapshot rename is the commit point — a crash between
    /// the two steps leaves a stale-epoch WAL that recovery recognises and
    /// discards instead of replaying records the snapshot already holds.
    ///
    /// This is also the manual **healing** path: a successful checkpoint
    /// proves the storage can absorb the full state again, so it resets
    /// [`health`](AlphaStore::health) to [`Health::Healthy`] — including
    /// out of [`Health::ReadOnly`], re-enabling ingest. A snapshot write
    /// that fails before its rename leaves the previous snapshot and the
    /// WAL untouched (the store stays degraded but loses nothing). Once
    /// the new snapshot is renamed in place, the WAL is stale: a failed
    /// directory sync or WAL truncation after the rename flips the store
    /// read-only, since recovery would discard whatever it appended.
    ///
    /// Errors with [`PersistError::Mismatch`] on an in-memory store.
    pub fn checkpoint(&self) -> Result<(), PersistError> {
        let durable = self.require_durable()?;
        let _cut = self.maintenance.write().expect("maintenance lock poisoned");
        self.checkpoint_locked(durable)
    }

    /// [`AlphaStore::checkpoint`] under an already-held exclusive
    /// maintenance guard — shared with the auto-checkpoint path.
    fn checkpoint_locked(&self, durable: &Durable) -> Result<(), PersistError> {
        let mut wal = durable.wal.lock().expect("wal lock poisoned");
        let new_epoch = wal.epoch + 1;
        if let Err(e) =
            self.write_snapshot_file(&*durable.vfs, &durable.dir.join(SNAPSHOT_FILE), new_epoch)
        {
            self.obs.persist_error();
            if let PersistError::Snapshot {
                op: SnapshotOp::DirSync,
                ..
            } = e
            {
                // The rename landed: recovery reads the new-epoch snapshot
                // and discards this WAL as stale, so a record appended to
                // it now would be lost.
                self.set_read_only(format!("checkpoint snapshot failed after its rename: {e}"));
            } else {
                self.set_degraded(format!("checkpoint snapshot failed: {e}"));
            }
            return Err(e);
        }
        match wal.reset(WalHeader {
            identity: self.identity(),
            epoch: new_epoch,
        }) {
            Ok(()) => {
                self.heal();
                Ok(())
            }
            Err(e) => {
                self.set_read_only(format!("WAL reset failed after checkpoint: {e}"));
                Err(e)
            }
        }
    }

    /// Checks the auto-checkpoint watermarks after an ingest chunk lands
    /// and, if one tripped, runs a checkpoint opportunistically. Never
    /// fails the insert that triggered it: a contended maintenance lock
    /// skips (someone else is compacting or snapshotting anyway), and a
    /// checkpoint error only moves [`health`](AlphaStore::health) — the
    /// chunk itself is already committed to the WAL.
    pub(crate) fn maybe_auto_checkpoint(&self) {
        let Some(durable) = &self.durable else {
            return;
        };
        if !self.auto_ckpt.armed() {
            return;
        }
        let (bytes, records) = {
            let wal = durable.wal.lock().expect("wal lock poisoned");
            (wal.bytes_since_checkpoint(), wal.records)
        };
        if !self.auto_ckpt.reached(bytes, records) {
            return;
        }
        // try_write, not write: if maintenance is already running (another
        // auto-checkpoint, an explicit checkpoint), the watermark stays
        // tripped and the next chunk re-checks.
        let Ok(_cut) = self.maintenance.try_write() else {
            return;
        };
        {
            let wal = durable.wal.lock().expect("wal lock poisoned");
            if !self
                .auto_ckpt
                .reached(wal.bytes_since_checkpoint(), wal.records)
            {
                return;
            }
        }
        self.obs.rec_auto_checkpoint();
        // checkpoint_locked does the health bookkeeping on failure.
        let _ = self.checkpoint_locked(durable);
    }

    fn require_durable(&self) -> Result<&Durable, PersistError> {
        self.durable.as_ref().ok_or_else(|| PersistError::Mismatch {
            context: "store is in-memory; build it with StoreBuilder::open_durable".to_owned(),
        })
    }

    /// Serializes the current state to `path` (the caller has quiesced
    /// ingest or owns the store exclusively). Shard read locks are taken
    /// in index order, then the canon table is read: the nodes the
    /// classes reach are written once each, and classes serialize as
    /// positions among them.
    pub(crate) fn write_snapshot_file(
        &self,
        vfs: &dyn Vfs,
        path: &Path,
        wal_epoch: u64,
    ) -> Result<(), PersistError> {
        let t = self.obs.tick();
        let guards: Vec<_> = self
            .shards
            .iter()
            .map(|s| s.read().expect("shard lock poisoned"))
            .collect();
        let shard_refs: Vec<&Shard<H>> = guards.iter().map(|g| &**g).collect();
        let header = SnapshotHeader {
            identity: self.identity(),
            wal_epoch,
            stats: self.counters.snapshot(),
        };
        let bytes = crate::persist::snapshot::encode_snapshot(&header, &shard_refs, &self.table);
        let result = crate::persist::snapshot::write_atomically(vfs, path, &bytes);
        drop(guards);
        if result.is_ok() {
            self.obs.rec_snapshot_write(t, bytes.len() as u64);
        }
        result
    }

    /// Replays recovered WAL records, group by group — each group is one
    /// original group commit, applied as one chunk whatever the reopening
    /// store's `chunk_entries`, so the root-vs-subterm merge-counter split
    /// and every issued `TermId` and `ClassId` are reproduced exactly —
    /// and returns how many records it applied. Runs before the WAL is
    /// attached, so nothing is re-logged.
    ///
    /// Each record is decoded once, from `bytes` (the WAL file) into an
    /// arena of its group's own, so replay holds one group's terms at a
    /// time. An insert record's term goes through the ingest driver
    /// ([`AlphaStore::ingest_with`]), so its hash, its merge confirmation
    /// and (in a `Subexpressions` store) its entries, multiplicities and
    /// skip count are recomputed as the live insert made them; a term
    /// that does not hash to its recorded hash is
    /// [`PersistError::Corrupt`]. A delta record interleaves with the
    /// inserts in log order: the inserts before it are applied first,
    /// then it is re-applied through the live update's validation and
    /// preparation, its recorded root hashes cross-checked
    /// ([`PersistError::Corrupt`] on a mismatch or a refused rewrite).
    ///
    /// The first record that does not decode is a torn tail: the records
    /// of its group before it are applied, and nothing after it is.
    pub(crate) fn replay(
        &mut self,
        bytes: &[u8],
        groups: &[Vec<WalEntry>],
    ) -> Result<u64, PersistError> {
        debug_assert!(self.durable.is_none(), "replay must not re-log records");
        let mut preparer = Preparer::new(&ExprArena::new(), &self.scheme);
        let mut terms: Vec<(H, NodeId)> = Vec::new();
        let mut applied = 0u64;
        for group in groups {
            let mut arena = ExprArena::new();
            preparer.forget_arena();
            let mut torn = false;
            for entry in group {
                match entry {
                    WalEntry::Term(record) => {
                        match take_term_record(&bytes[record.clone()], &mut arena) {
                            Ok(term) => terms.push(term),
                            Err(_) => torn = true,
                        }
                    }
                    WalEntry::Update(record) => {
                        applied += self.replay_inserts(&mut preparer, &arena, &mut terms)?;
                        match take_delta(&bytes[record.clone()], &mut arena) {
                            Ok(delta) => {
                                crate::update::apply_update_replay(
                                    self,
                                    &delta,
                                    &arena,
                                    &mut preparer.named,
                                )?;
                                applied += 1;
                            }
                            Err(_) => torn = true,
                        }
                    }
                }
                if torn {
                    break;
                }
            }
            applied += self.replay_inserts(&mut preparer, &arena, &mut terms)?;
            if torn {
                break;
            }
        }
        Ok(applied)
    }

    /// Ingests the terms [`AlphaStore::replay`] has collected since the
    /// last group boundary or delta, checks each against its recorded
    /// hash, empties the list and returns how many it ingested.
    fn replay_inserts(
        &self,
        preparer: &mut Preparer<H>,
        arena: &ExprArena,
        terms: &mut Vec<(H, NodeId)>,
    ) -> Result<u64, PersistError> {
        let roots: Vec<NodeId> = terms.iter().map(|&(_, root)| root).collect();
        let outcomes = self
            .ingest_with(preparer, arena, &roots, usize::MAX)
            .expect("in-memory replay ingest cannot fail");
        if terms
            .drain(..)
            .zip(&outcomes)
            .any(|((hash, _), o)| self.hash_of(o.class) != hash)
        {
            return Err(PersistError::Corrupt {
                context: "WAL term re-hashes to a different content address than its \
                          record claims"
                    .to_owned(),
            });
        }
        Ok(roots.len() as u64)
    }

    /// Tees a chunk of inserts, `terms` prepared from `roots` of
    /// `named.arena`, into the WAL as one group commit: the chunk's
    /// records, each framed from its term, then a boundary marker so
    /// replay can reproduce the group exactly. Returns the held WAL lock
    /// for the caller to apply under; `None` on in-memory stores.
    /// A write failure is retried per the store's
    /// [`RetryPolicy`]; exhausting the retries returns
    /// [`StoreError::Persist`] **without** applying the chunk to memory, so
    /// memory and WAL stay in agreement.
    fn wal_log(
        &self,
        terms: &[PreparedTerm<H>],
        roots: &[NodeId],
        named: &mut Named<'_>,
    ) -> Result<Option<MutexGuard<'_, Wal>>, StoreError> {
        let Some(durable) = &self.durable else {
            return Ok(None);
        };
        // ~13 bytes per node plus fixed costs: a close-enough guess that
        // the frame buffer almost never regrows mid-chunk.
        let estimate: usize = terms
            .iter()
            .map(|pt| 96 + pt.root.node_count as usize * 13)
            .sum();
        let mut frames = Vec::with_capacity(estimate);
        for (pt, &root) in terms.iter().zip(roots) {
            crate::persist::wal::frame_record(&mut frames, pt, root, named);
        }
        crate::persist::wal::frame_commit(&mut frames, terms.len() as u64);
        self.wal_append_with_retry(durable, &frames, terms.len() as u64)
            .map(Some)
    }

    /// The shared locked-append tail of the insert and delta tees, with the
    /// degraded-mode retry loop around it. Transient failures sleep a
    /// bounded exponential backoff (the WAL mutex is **held across the
    /// sleeps** — concurrent ingest queues behind the same broken disk
    /// either way, and releasing it would let groups land out of order);
    /// a retried append that succeeds heals the store back to
    /// [`Health::Healthy`], while exhausting the policy flips it to
    /// [`Health::ReadOnly`] and returns the underlying error.
    ///
    /// On success the WAL lock comes back still held: the caller applies
    /// what it logged before releasing it, so memory applies groups in
    /// the order the log holds them, which is the order replay applies
    /// them in.
    pub(crate) fn wal_append_with_retry<'a>(
        &self,
        durable: &'a Durable,
        frames: &[u8],
        count: u64,
    ) -> Result<MutexGuard<'a, Wal>, StoreError> {
        let t = self.obs.tick();
        let mut wal = durable.wal.lock().expect("wal lock poisoned");
        let mut attempt = 0u32;
        loop {
            match wal.append_group(frames, count) {
                Ok(()) => {
                    self.obs.rec_wal_commit(t, count);
                    if attempt > 0 {
                        self.heal();
                    }
                    return Ok(wal);
                }
                Err(e) => {
                    if attempt >= self.retry.retries {
                        drop(wal);
                        let reason = format!("WAL write failed after {attempt} retries: {e}");
                        self.set_read_only(reason);
                        return Err(StoreError::Persist(e));
                    }
                    attempt += 1;
                    self.obs.rec_wal_retry();
                    self.set_degraded(format!(
                        "WAL write failing (retry {attempt}/{}): {e}",
                        self.retry.retries
                    ));
                    let delay = self
                        .retry
                        .backoff
                        .saturating_mul(1u32 << (attempt - 1).min(16));
                    (self.retry.sleeper)(delay);
                }
            }
        }
    }

    /// The store's current [`Health`]. `Healthy` stores persist normally;
    /// `Degraded` stores have seen transient persistence failures (recent
    /// ingests still landed, but the storage deserves attention);
    /// `ReadOnly` stores refuse ingest — lookups keep serving from memory
    /// — until a successful [`AlphaStore::checkpoint`] proves the storage
    /// recovered. In-memory stores are always `Healthy`.
    pub fn health(&self) -> Health {
        match self.health.state.load(Ordering::Acquire) {
            HEALTH_HEALTHY => Health::Healthy,
            HEALTH_DEGRADED => Health::Degraded(
                self.health
                    .reason
                    .lock()
                    .expect("health lock poisoned")
                    .clone(),
            ),
            _ => Health::ReadOnly(
                self.health
                    .reason
                    .lock()
                    .expect("health lock poisoned")
                    .clone(),
            ),
        }
    }

    /// Ingest-path gate: one relaxed atomic load when healthy, a typed
    /// refusal when read-only.
    pub(crate) fn check_writable(&self) -> Result<(), StoreError> {
        if self.health.state.load(Ordering::Relaxed) == HEALTH_READ_ONLY {
            return Err(StoreError::Degraded {
                reason: self
                    .health
                    .reason
                    .lock()
                    .expect("health lock poisoned")
                    .clone(),
            });
        }
        Ok(())
    }

    /// Healthy → Degraded (or refreshes a Degraded reason). ReadOnly
    /// outranks Degraded, so an already-read-only store is left alone.
    fn set_degraded(&self, reason: String) {
        match self.health.state.compare_exchange(
            HEALTH_HEALTHY,
            HEALTH_DEGRADED,
            Ordering::AcqRel,
            Ordering::Acquire,
        ) {
            Ok(_) => {
                *self.health.reason.lock().expect("health lock poisoned") = reason;
                self.obs
                    .rec_health("store.degraded", u64::from(HEALTH_DEGRADED));
            }
            Err(HEALTH_DEGRADED) => {
                *self.health.reason.lock().expect("health lock poisoned") = reason;
            }
            Err(_) => {}
        }
    }

    /// Any state → ReadOnly: persistence is gone until an operator (or a
    /// successful [`AlphaStore::checkpoint`]) intervenes.
    fn set_read_only(&self, reason: String) {
        let prev = self.health.state.swap(HEALTH_READ_ONLY, Ordering::AcqRel);
        *self.health.reason.lock().expect("health lock poisoned") = reason;
        if prev != HEALTH_READ_ONLY {
            self.obs
                .rec_health("store.read_only", u64::from(HEALTH_READ_ONLY));
        }
    }

    /// Any state → Healthy, after storage proved itself again (a retried
    /// append landed, or a checkpoint completed).
    fn heal(&self) {
        let prev = self.health.state.swap(HEALTH_HEALTHY, Ordering::AcqRel);
        if prev != HEALTH_HEALTHY {
            self.health
                .reason
                .lock()
                .expect("health lock poisoned")
                .clear();
            self.obs
                .rec_health("store.healed", u64::from(HEALTH_HEALTHY));
        }
    }

    pub(crate) fn with_class<T>(&self, class: ClassId, f: impl FnOnce(&StoredClass<H>) -> T) -> T {
        let shard = self.shards[class.shard as usize]
            .read()
            .expect("shard lock poisoned");
        f(&shard.classes[class.index as usize])
    }
}

/// Observability surface. See `docs/OBSERVABILITY.md` for the metric
/// catalog.
impl<H: HashWord> AlphaStore<H> {
    /// A point-in-time snapshot of every instrument this store owns —
    /// latency histograms, confirmation counters, WAL gauges — unified
    /// with [`StoreStats`] and [`CanonDagStats`] derived values so one
    /// call yields the full picture. Render it with
    /// [`Report::to_json`](alpha_obs::Report::to_json) or
    /// [`Report::to_prometheus`](alpha_obs::Report::to_prometheus).
    pub fn obs_report(&self) -> alpha_obs::Report {
        use alpha_obs::{Desc, Sample};
        const fn d(name: &'static str, help: &'static str, unit: &'static str) -> Desc {
            Desc { name, help, unit }
        }
        let stats = self.stats();
        let dag = self.canon_dag_stats();
        let intern = self.table.intern_stats();
        let mut extras = vec![
            Sample::counter(
                d(
                    "alpha_store_terms_ingested",
                    "Whole terms ingested",
                    "terms",
                ),
                stats.terms_ingested,
            ),
            Sample::counter(
                d(
                    "alpha_store_classes_created",
                    "Fresh equivalence classes created",
                    "classes",
                ),
                stats.classes_created,
            ),
            Sample::counter(
                d(
                    "alpha_store_merges_confirmed",
                    "Whole-term merges confirmed by canonical identity",
                    "merges",
                ),
                stats.merges_confirmed,
            ),
            Sample::counter(
                d(
                    "alpha_store_hash_collisions",
                    "Inserts whose hash matched a non-equivalent class",
                    "collisions",
                ),
                stats.hash_collisions,
            ),
            Sample::counter(
                d(
                    "alpha_store_unconfirmed_merges",
                    "Merges accepted without confirmation (always 0: merges are exact)",
                    "merges",
                ),
                stats.unconfirmed_merges,
            ),
            Sample::counter(
                d(
                    "alpha_store_subterms_indexed",
                    "Subexpression occurrences indexed",
                    "subterms",
                ),
                stats.subterms_indexed,
            ),
            Sample::counter(
                d(
                    "alpha_store_subterm_merges_confirmed",
                    "Subexpression merges confirmed by canonical identity",
                    "merges",
                ),
                stats.subterm_merges_confirmed,
            ),
            Sample::counter(
                d(
                    "alpha_store_subterms_skipped_min_nodes",
                    "Subexpressions skipped by the min_nodes floor",
                    "subterms",
                ),
                stats.subterms_skipped_min_nodes,
            ),
            Sample::counter(
                d(
                    "alpha_store_canon_intern_hits",
                    "Canon-table intern calls answered by an existing node",
                    "nodes",
                ),
                intern.hits,
            ),
            Sample::counter(
                d(
                    "alpha_store_canon_intern_misses",
                    "Canon-table intern calls that inserted a new node",
                    "nodes",
                ),
                intern.misses,
            ),
            Sample::counter(
                d(
                    "alpha_store_canon_stripe_waits",
                    "Canon-table intern calls that found their stripe locked and blocked",
                    "probes",
                ),
                intern.stripe_waits,
            ),
            Sample::gauge(
                d(
                    "alpha_store_canon_resident_nodes",
                    "Distinct canon DAG nodes resident",
                    "nodes",
                ),
                dag.resident_nodes,
            ),
            Sample::gauge(
                d(
                    "alpha_store_canon_logical_nodes",
                    "Logical canon nodes a tree-per-class design would hold",
                    "nodes",
                ),
                dag.logical_nodes,
            ),
            Sample::gauge(
                d(
                    "alpha_store_canon_resident_bytes",
                    "Approximate bytes resident in the canon DAG",
                    "bytes",
                ),
                dag.resident_bytes,
            ),
            Sample::gauge(
                d(
                    "alpha_store_shards",
                    "Effective store lock-stripe count",
                    "shards",
                ),
                self.shard_count() as u64,
            ),
            Sample::gauge(
                d(
                    "alpha_store_table_shards",
                    "Effective canon-table lock-stripe count",
                    "shards",
                ),
                self.table_shard_count() as u64,
            ),
        ];
        if let Some(records) = self.wal_records() {
            extras.push(Sample::gauge(
                d(
                    "alpha_store_wal_records",
                    "Records in the live WAL epoch",
                    "records",
                ),
                records,
            ));
        }
        self.obs.report(extras)
    }

    /// The most recent trace events (at most 1,024, oldest first, with
    /// non-decreasing `t_ns`): apply chunks, WAL commits, snapshot
    /// writes and health transitions.
    pub fn obs_recent_events(&self) -> Vec<alpha_obs::Event> {
        self.obs.recent_events()
    }
}

/// The runs of [`AlphaStore::by_shard`] keys: each shard index with the
/// input indices routed to it.
fn shard_runs(
    keys: &[u64],
) -> impl Iterator<Item = (usize, impl ExactSizeIterator<Item = usize> + '_)> {
    keys.chunk_by(|a, b| a >> 32 == b >> 32).map(|run| {
        let shard = (run[0] >> 32) as usize;
        (shard, run.iter().map(|&key| key as u32 as usize))
    })
}

/// Sorts a term's `(class bits, multiplicity)` pairs by bits, coalescing
/// equal bits. Within one term every pair's class is distinct (prepare
/// collapses duplicate canons into one multiplicity, and merges are
/// exact), but coalescing keeps the sorted-unique key invariant safe.
pub(crate) fn sort_pairs(pairs: &mut Vec<(u64, u32)>) {
    pairs.sort_unstable();
    pairs.dedup_by(|b, a| {
        if a.0 == b.0 {
            a.1 += b.1;
            true
        } else {
            false
        }
    });
}

// The whole point of the sharded design: the store is shareable across
// ingest threads. Fails to compile if a non-Sync type sneaks in.
const _: fn() = || {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<AlphaStore<u64>>();
    assert_send_sync::<AlphaStore<u128>>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use lambda_lang::parse::parse;

    fn store() -> AlphaStore<u64> {
        AlphaStore::builder().seed(0xA1FA).shards(8).build()
    }

    #[test]
    fn insert_is_idempotent_modulo_alpha() {
        let store = store();
        let mut arena = ExprArena::new();
        let a = parse(&mut arena, r"\x. x + 1").unwrap();
        let b = parse(&mut arena, r"\y. y + 1").unwrap();
        let first = store.insert(&arena, a);
        let second = store.insert(&arena, b);
        assert!(first.fresh);
        assert!(!second.fresh);
        assert_eq!(first.class, second.class);
        assert_ne!(first.term, second.term);
        assert_eq!(store.num_classes(), 1);
        assert_eq!(store.num_terms(), 2);
        assert_eq!(store.members(first.class), 2);
        let stats = store.stats();
        assert_eq!(stats.merges_confirmed, 1);
        assert_eq!(stats.classes_created, 1);
        assert!(stats.is_exact());
    }

    #[test]
    fn inequivalent_terms_get_distinct_classes() {
        let store = store();
        let mut arena = ExprArena::new();
        let terms = [
            parse(&mut arena, r"\x. x").unwrap(),
            parse(&mut arena, r"\x. x x").unwrap(),
            parse(&mut arena, r"\x. x + y").unwrap(),
            parse(&mut arena, r"\x. x + z").unwrap(), // free var differs
        ];
        let classes: Vec<ClassId> = terms
            .iter()
            .map(|&t| store.insert(&arena, t).class)
            .collect();
        for i in 0..classes.len() {
            for j in 0..i {
                assert_ne!(classes[i], classes[j], "terms {i} and {j} merged");
            }
        }
    }

    /// Both granularities, for the tests that check one path in each.
    const GRANULARITIES: [Granularity; 2] = [
        Granularity::Roots,
        Granularity::Subexpressions { min_nodes: 1 },
    ];

    fn store_in(granularity: Granularity, chunk_entries: usize) -> AlphaStore<u64> {
        AlphaStore::builder()
            .seed(0xA1FA)
            .shards(8)
            .granularity(granularity)
            .chunk_entries(chunk_entries)
            .build()
    }

    /// Single inserts against batches: a one-entry chunk budget makes
    /// each term its own chunk, so that batch must match the singles
    /// outcome for outcome. A default batch matches their partition and
    /// per-term indexing; in `Subexpressions` mode a chunk sweeps its
    /// subexpressions before its roots, so a class may be created by a
    /// later term's subexpression, and only the creation total agrees.
    fn check_batch_matches_singles(granularity: Granularity) {
        let mut arena = ExprArena::new();
        let roots: Vec<NodeId> = [r"\a. a", r"\b. b", "v + 7", r"\c. c + (v+7)"]
            .iter()
            .map(|s| parse(&mut arena, s).unwrap())
            .collect();
        let default_chunk = AlphaStore::<u64>::DEFAULT_CHUNK_ENTRIES;
        let singles_store = store_in(granularity, default_chunk);
        let singles: Vec<InsertOutcome> = roots
            .iter()
            .map(|&r| singles_store.insert(&arena, r))
            .collect();
        let chunked = store_in(granularity, 1).insert_batch(&arena, &roots);
        assert_eq!(chunked, singles, "{granularity:?}");

        let batch = store_in(granularity, default_chunk).insert_batch(&arena, &roots);
        assert_eq!(batch.len(), roots.len());
        // Same partition: term i and j share a class in one store iff they
        // do in the other.
        for i in 0..roots.len() {
            for j in 0..roots.len() {
                assert_eq!(
                    singles[i].class == singles[j].class,
                    batch[i].class == batch[j].class,
                );
            }
            assert_eq!(batch[i].subs.indexed, singles[i].subs.indexed);
            assert_eq!(
                batch[i].subs.skipped_min_nodes,
                singles[i].subs.skipped_min_nodes
            );
        }
        if granularity == Granularity::Roots {
            assert_eq!(batch, singles);
        } else {
            let created = |outcomes: &[InsertOutcome]| -> u64 {
                outcomes
                    .iter()
                    .map(|o| u64::from(o.fresh) + o.subs.indexed - o.subs.merged)
                    .sum()
            };
            assert_eq!(created(&batch), created(&singles));
            assert_eq!(created(&batch), singles_store.num_classes() as u64);
            // `v + 7` alone creates its class, but in one chunk the
            // subexpression of the term after it gets there first.
            assert!(singles[2].fresh && !batch[2].fresh);
        }
        assert!(batch[0].fresh && !batch[1].fresh);
    }

    #[test]
    fn batch_matches_singles_and_preserves_order() {
        for granularity in GRANULARITIES {
            check_batch_matches_singles(granularity);
        }
    }

    #[test]
    fn lookup_does_not_ingest() {
        let store = store();
        let mut arena = ExprArena::new();
        let t = parse(&mut arena, r"\x. x * x").unwrap();
        assert_eq!(store.lookup(&arena, t), None);
        let inserted = store.insert(&arena, t);
        let alpha = parse(&mut arena, r"\q. q * q").unwrap();
        assert_eq!(store.lookup(&arena, alpha), Some(inserted.class));
        assert_eq!(store.num_terms(), 1);
    }

    #[test]
    fn representative_is_alpha_equivalent_to_members() {
        let store = store();
        let mut arena = ExprArena::new();
        let t = parse(&mut arena, r"\x. \y. x + y*7").unwrap();
        let outcome = store.insert(&arena, t);
        let mut dst = ExprArena::new();
        let rep = store.representative_into(outcome.class, &mut dst);
        assert!(lambda_lang::alpha_eq(&arena, t, &dst, rep));
        assert_eq!(store.node_count(outcome.class), arena.subtree_size(t));
        assert_eq!(
            store.canonical_text(outcome.class),
            r"\. \. add %1 (mul %0 7)"
        );
    }

    #[test]
    fn alpha_duplicates_share_resident_canon_storage() {
        // Ten alpha-renamings of one term: one class, and the canon DAG
        // holds the structure exactly once.
        let store = store();
        let mut arena = ExprArena::new();
        for i in 0..10 {
            let src = format!(r"\v{i}. v{i} + (w * 7)");
            let t = parse(&mut arena, &src).unwrap();
            store.insert(&arena, t);
        }
        assert_eq!(store.num_classes(), 1);
        let dag = store.canon_dag_stats();
        assert_eq!(dag.logical_nodes, 10); // one 10-node canonical tree
        assert_eq!(dag.resident_nodes, 10); // …resident exactly once
                                            // A second, overlapping term shares its common suffix.
        let t2 = parse(&mut arena, r"\q. q * (w * 7)").unwrap();
        store.insert(&arena, t2);
        let dag2 = store.canon_dag_stats();
        assert!(
            dag2.resident_nodes < dag2.logical_nodes,
            "cross-class sharing: {dag2:?}"
        );
    }

    /// Batched probes answer exactly what single probes do. A `Roots`
    /// store finds only the whole term; an indexing store also finds its
    /// subexpressions.
    fn check_contains_batch_matches_single_probes(granularity: Granularity) {
        let store = store_in(granularity, AlphaStore::<u64>::DEFAULT_CHUNK_ENTRIES);
        let mut arena = ExprArena::new();
        let t = parse(&mut arena, r"foo (\x. x + 7) (v * 3)").unwrap();
        let inserted = store.insert(&arena, t);
        let patterns: Vec<NodeId> = [
            r"\p. p + 7",
            "v * 3",
            "v * 4",
            "foo",
            r"\z. z",
            r"foo (\y. y + 7) (v * 3)",
        ]
        .iter()
        .map(|s| parse(&mut arena, s).unwrap())
        .collect();
        let batch = store.contains_batch(&arena, &patterns);
        for (i, &p) in patterns.iter().enumerate() {
            assert_eq!(batch[i], store.contains(&arena, p), "pattern {i}");
        }
        let found: Vec<bool> = batch.iter().map(Option::is_some).collect();
        let indexed = granularity.indexes_subexpressions();
        assert_eq!(found, [indexed, indexed, false, indexed, false, true]);
        assert_eq!(batch[5], Some(inserted.class));
        assert_eq!(store.lookup(&arena, patterns[5]), Some(inserted.class));
        assert_eq!(store.lookup(&arena, patterns[0]), None);
    }

    #[test]
    fn contains_batch_matches_single_probes() {
        for granularity in GRANULARITIES {
            check_contains_batch_matches_single_probes(granularity);
        }
    }

    #[test]
    fn narrow_hashes_surface_collisions_without_merging() {
        // At b = 16 random inequivalent terms collide readily (the
        // Appendix B study); the store must keep them separate and count
        // the collisions rather than merge unconfirmed.
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let store: AlphaStore<u16> = AlphaStore::builder().seed(3).shards(4).build();
        let mut arena = ExprArena::new();
        let mut rng = StdRng::seed_from_u64(11);
        let mut roots = Vec::new();
        for _ in 0..600 {
            roots.push(expr_gen::balanced(&mut arena, 30, &mut rng));
        }
        let outcomes = store.insert_batch(&arena, &roots);

        // Exactness check against ground truth on every pair.
        for i in 0..roots.len() {
            for j in 0..i {
                let same_class = outcomes[i].class == outcomes[j].class;
                let equivalent = lambda_lang::alpha_eq(&arena, roots[i], &arena, roots[j]);
                assert_eq!(same_class, equivalent, "pair ({i},{j})");
            }
        }
        let stats = store.stats();
        assert!(stats.is_exact());
        assert!(
            stats.hash_collisions > 0,
            "600 random 30-node terms at b=16 should collide at least once: {stats}"
        );
    }

    #[test]
    fn class_ids_round_trip_through_bits() {
        let id = ClassId {
            shard: 7,
            index: 123_456,
        };
        assert_eq!(ClassId::from_bits(id.to_bits()), id);
        assert_eq!(format!("{id:?}"), "c7.123456");
    }
}
