//! The store's instrumentation seam.
//!
//! Everything the hot paths touch goes through [`StoreObs`] (and its
//! WAL-side sibling [`WalObs`]): a struct owning an `alpha-obs`
//! [`Registry`] of histograms, counters and gauges plus a [`Tracer`]
//! whose bounded ring keeps the most recent events. Timed sections are
//! bracketed by [`StoreObs::tick`] (one clock read) and the matching
//! `rec_*` call; counters and length histograms are one relaxed atomic
//! op each. There is no switch: every instrument records on every call,
//! so the figures a benchmark reads are the ones production exports.
//!
//! **Lock-order rule:** obs recording never takes a store lock. Inside
//! a shard or canon-table critical section only wait-free operations
//! (atomic adds on counters/histograms, monotonic clock reads) are
//! permitted; tracer emissions — which take obs-internal mutexes —
//! happen after the store lock is released wherever practical, and are
//! ordering-safe regardless (store locks → obs internals is acyclic).
//! See `docs/ARCHITECTURE.md` ("instrumentation seam").

use alpha_obs::{Counter, Desc, Event, Gauge, Histogram, Registry, Report, Sample, Tracer};
use std::sync::Arc;
use std::time::Instant;

const fn desc(name: &'static str, help: &'static str, unit: &'static str) -> Desc {
    Desc { name, help, unit }
}

/// A started timer, obtained from [`StoreObs::tick`] or
/// [`WalObs::tick`] and consumed by the matching `rec_*` call.
#[derive(Clone, Copy)]
pub(crate) struct Tick(Instant);

impl Tick {
    #[inline]
    fn elapsed_ns(self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }
}

/// The store's live instruments. One per [`AlphaStore`]; handles
/// are `Arc`s so the WAL side can share the relevant subset.
///
/// [`AlphaStore`]: crate::AlphaStore
pub(crate) struct StoreObs {
    tracer: Tracer,
    registry: Registry,
    // Latency histograms (ns).
    prepare_ns: Arc<Histogram>,
    prepare_nodes: Arc<Histogram>,
    prepare_intern_probes_per_node: Arc<Histogram>,
    shard_lock_wait_ns: Arc<Histogram>,
    apply_ns: Arc<Histogram>,
    wal_commit_ns: Arc<Histogram>,
    frontier_walk_nodes: Arc<Histogram>,
    probe_prepare_ns: Arc<Histogram>,
    probe_ns: Arc<Histogram>,
    snapshot_write_ns: Arc<Histogram>,
    recovery_snapshot_load_ns: Arc<Histogram>,
    recovery_replay_ns: Arc<Histogram>,
    // Counters.
    merge_confirm_ref: Arc<Counter>,
    merge_confirm_walk: Arc<Counter>,
    hash_nodes: Arc<Counter>,
    name_cache_misses: Arc<Counter>,
    updates_applied: Arc<Counter>,
    spine_nodes_rehashed: Arc<Counter>,
    update_hasher_rebuilds: Arc<Counter>,
    update_rebuild_nodes: Arc<Counter>,
    // Reliability instruments (health state machine, retry loop,
    // auto-checkpoint).
    health: Arc<Gauge>,
    wal_retries: Arc<Counter>,
    auto_checkpoints: Arc<Counter>,
    // WAL-side handles, shared with [`WalObs`].
    wal: Arc<WalShared>,
}

/// The subset of instruments the WAL records into, shared between
/// the store's registry and the `Wal` behind its mutex.
pub(crate) struct WalShared {
    append_ns: Arc<Histogram>,
    fsync_ns: Arc<Histogram>,
    bytes_since_checkpoint: Arc<Gauge>,
    persist_errors: Arc<Counter>,
}

impl StoreObs {
    pub(crate) fn new() -> Self {
        let mut registry = Registry::new();
        let prepare_ns = registry.histogram(desc(
            "alpha_store_prepare_ns",
            "Latency of hashing+canonising one term at ingest",
            "ns",
        ));
        let prepare_nodes = registry.histogram(desc(
            "alpha_store_prepare_nodes",
            "Nodes per prepared term at ingest",
            "nodes",
        ));
        let prepare_intern_probes_per_node = registry.histogram(desc(
            "alpha_store_prepare_intern_probes_per_node",
            "Canon-table intern probes one ingest prepare made per input node, rounded up",
            "probes/node",
        ));
        let shard_lock_wait_ns = registry.histogram(desc(
            "alpha_store_shard_lock_wait_ns",
            "Time spent waiting to acquire a shard lock",
            "ns",
        ));
        let apply_ns = registry.histogram(desc(
            "alpha_store_apply_ns",
            "Latency of applying one prepared chunk under shard locks",
            "ns",
        ));
        let wal_commit_ns = registry.histogram(desc(
            "alpha_store_wal_commit_ns",
            "Latency of one WAL group commit (lock + append + fsync)",
            "ns",
        ));
        let wal_append_ns = registry.histogram(desc(
            "alpha_store_wal_append_ns",
            "Latency of the buffered frame write inside a group commit",
            "ns",
        ));
        let wal_fsync_ns = registry.histogram(desc(
            "alpha_store_wal_fsync_ns",
            "Latency of the fsync inside a group commit",
            "ns",
        ));
        let frontier_walk_nodes = registry.histogram(desc(
            "alpha_store_frontier_walk_nodes",
            "Confirm-walk length when a merge is confirmed by walking a named term against a class",
            "nodes",
        ));
        let probe_prepare_ns = registry.histogram(desc(
            "alpha_store_probe_prepare_ns",
            "Latency of preparing one probed pattern (lookup, contains): its hash, and in Subexpressions mode its looked-up key",
            "ns",
        ));
        let probe_ns = registry.histogram(desc(
            "alpha_store_probe_ns",
            "Latency of one lookup or containment probe (prepared term to verdict, a Roots confirm walk included)",
            "ns",
        ));
        let snapshot_write_ns = registry.histogram(desc(
            "alpha_store_snapshot_write_ns",
            "Latency of writing one snapshot file",
            "ns",
        ));
        let recovery_snapshot_load_ns = registry.histogram(desc(
            "alpha_store_recovery_snapshot_load_ns",
            "Recovery phase: snapshot read+decode",
            "ns",
        ));
        let recovery_replay_ns = registry.histogram(desc(
            "alpha_store_recovery_replay_ns",
            "Recovery phase: WAL tail replay",
            "ns",
        ));
        let merge_confirm_ref = registry.counter(desc(
            "alpha_store_merge_confirm_ref",
            "Merges confirmed by O(1) interned-ref comparison",
            "merges",
        ));
        let merge_confirm_walk = registry.counter(desc(
            "alpha_store_merge_confirm_walk",
            "Merges confirmed by walking a named term against the class form",
            "merges",
        ));
        let hash_nodes = registry.counter(desc(
            "alpha_store_hash_nodes",
            "Nodes pushed through the e-summary hasher",
            "nodes",
        ));
        let name_cache_misses = registry.counter(desc(
            "alpha_store_name_cache_misses",
            "Variable-name hash cache misses in the summariser",
            "misses",
        ));
        let updates_applied = registry.counter(desc(
            "alpha_store_updates_applied",
            "In-place term rewrites applied through AlphaStore::update",
            "updates",
        ));
        let spine_nodes_rehashed = registry.counter(desc(
            "alpha_store_spine_nodes_rehashed",
            "Nodes re-hashed by incremental updates (patch + spine to root)",
            "nodes",
        ));
        let update_hasher_rebuilds = registry.counter(desc(
            "alpha_store_update_hasher_rebuilds",
            "Roots-mode updates that found no cached hasher and rebuilt one from the class canon",
            "rebuilds",
        ));
        let update_rebuild_nodes = registry.counter(desc(
            "alpha_store_update_rebuild_nodes",
            "Nodes of the terms whose Roots-mode update hasher was rebuilt from the class canon",
            "nodes",
        ));
        let persist_errors = registry.counter(desc(
            "alpha_store_persist_errors",
            "I/O errors surfaced by the persistence layer",
            "errors",
        ));
        let bytes_since_checkpoint = registry.gauge(desc(
            "alpha_store_wal_bytes_since_checkpoint",
            "WAL bytes appended since the last checkpoint",
            "bytes",
        ));
        let health = registry.gauge(desc(
            "alpha_store_health",
            "Store health state: 0 healthy, 1 degraded, 2 read-only",
            "state",
        ));
        let wal_retries = registry.counter(desc(
            "alpha_store_wal_retries",
            "WAL append attempts retried after a transient failure",
            "retries",
        ));
        let auto_checkpoints = registry.counter(desc(
            "alpha_store_auto_checkpoints",
            "Checkpoints triggered by the WAL watermarks",
            "checkpoints",
        ));
        let wal = Arc::new(WalShared {
            append_ns: wal_append_ns,
            fsync_ns: wal_fsync_ns,
            bytes_since_checkpoint,
            persist_errors,
        });
        StoreObs {
            tracer: Tracer::default(),
            registry,
            prepare_ns,
            prepare_nodes,
            prepare_intern_probes_per_node,
            shard_lock_wait_ns,
            apply_ns,
            wal_commit_ns,
            frontier_walk_nodes,
            probe_prepare_ns,
            probe_ns,
            snapshot_write_ns,
            recovery_snapshot_load_ns,
            recovery_replay_ns,
            merge_confirm_ref,
            merge_confirm_walk,
            hash_nodes,
            name_cache_misses,
            updates_applied,
            spine_nodes_rehashed,
            update_hasher_rebuilds,
            update_rebuild_nodes,
            health,
            wal_retries,
            auto_checkpoints,
            wal,
        }
    }

    /// Start a timer.
    #[inline]
    pub(crate) fn tick(&self) -> Tick {
        Tick(Instant::now())
    }

    pub(crate) fn recent_events(&self) -> Vec<Event> {
        self.tracer.recent()
    }

    /// A WAL-side handle sharing this store's instruments.
    pub(crate) fn wal_obs(&self) -> WalObs {
        WalObs {
            inner: Some(self.wal.clone()),
        }
    }

    pub(crate) fn report(&self, extras: Vec<Sample>) -> Report {
        self.registry.report(extras)
    }

    // ---- hot-path recorders -------------------------------------

    #[inline]
    pub(crate) fn rec_prepare(&self, t: Tick, nodes: u64, intern_probes: u64) {
        self.prepare_nodes.record(nodes);
        self.prepare_intern_probes_per_node
            .record(intern_probes.div_ceil(nodes.max(1)));
        self.prepare_ns.record(t.elapsed_ns());
    }

    #[inline]
    pub(crate) fn rec_shard_lock_wait(&self, t: Tick) {
        self.shard_lock_wait_ns.record(t.elapsed_ns());
    }

    #[inline]
    pub(crate) fn rec_apply(&self, t: Tick, entries: u64) {
        let ns = t.elapsed_ns();
        self.apply_ns.record(ns);
        self.tracer.event("store.apply_chunk", ns, entries);
    }

    #[inline]
    pub(crate) fn rec_wal_commit(&self, t: Tick, records: u64) {
        let ns = t.elapsed_ns();
        self.wal_commit_ns.record(ns);
        self.tracer.event("store.wal_commit", ns, records);
    }

    #[inline]
    pub(crate) fn rec_probe_prepare(&self, t: Tick) {
        self.probe_prepare_ns.record(t.elapsed_ns());
    }

    #[inline]
    pub(crate) fn rec_probe(&self, t: Tick) {
        self.probe_ns.record(t.elapsed_ns());
    }

    pub(crate) fn rec_snapshot_write(&self, t: Tick, bytes: u64) {
        let ns = t.elapsed_ns();
        self.snapshot_write_ns.record(ns);
        self.tracer.event("store.snapshot_write", ns, bytes);
    }

    /// Recovery phases are timed before the store (and thus this
    /// registry) exists, so they arrive as raw durations.
    pub(crate) fn rec_recovery(&self, snapshot_load_ns: u64, replay_ns: u64) {
        self.recovery_snapshot_load_ns.record(snapshot_load_ns);
        self.recovery_replay_ns.record(replay_ns);
    }

    /// Merge confirmed by O(1) ref compare. Called under a shard
    /// lock: atomic add only.
    #[inline]
    pub(crate) fn confirm_ref(&self) {
        self.merge_confirm_ref.inc();
    }

    /// Merge confirmed by a structural walk of `steps` nodes.
    /// Called under a shard lock: atomic adds only.
    #[inline]
    pub(crate) fn confirm_walk(&self, steps: u64) {
        self.merge_confirm_walk.inc();
        self.frontier_walk_nodes.record(steps);
    }

    /// Fold in the summariser's per-batch work counters.
    #[inline]
    pub(crate) fn add_hash_counters(&self, nodes: u64, name_misses: u64) {
        self.hash_nodes.add(nodes);
        self.name_cache_misses.add(name_misses);
    }

    /// One incremental update landed, having re-hashed `spine_nodes`
    /// nodes (the new subtree plus the path to the root).
    #[inline]
    pub(crate) fn rec_update(&self, spine_nodes: u64) {
        self.updates_applied.inc();
        self.spine_nodes_rehashed.add(spine_nodes);
    }

    /// A `Roots`-mode update that rebuilt its term's hasher from the
    /// `nodes` of its class canon, O(n).
    #[inline]
    pub(crate) fn rec_hasher_rebuild(&self, nodes: u64) {
        self.update_hasher_rebuilds.inc();
        self.update_rebuild_nodes.add(nodes);
    }

    // ---- reliability recorders ----------------------------------

    /// A persistence error surfaced outside the WAL's own recording
    /// (snapshot failures, checkpoint failures). Shares the
    /// `alpha_store_persist_errors` counter with [`WalObs::error`].
    #[inline]
    pub(crate) fn persist_error(&self) {
        self.wal.persist_errors.inc();
    }

    /// One WAL append attempt was retried after a transient failure.
    #[inline]
    pub(crate) fn rec_wal_retry(&self) {
        self.wal_retries.inc();
    }

    /// One checkpoint was triggered by a WAL watermark.
    #[inline]
    pub(crate) fn rec_auto_checkpoint(&self) {
        self.auto_checkpoints.inc();
    }

    /// Publish a health transition: the gauge tracks the current
    /// state (0 healthy, 1 degraded, 2 read-only) and the trace ring
    /// gets one event per transition. Called from the health state
    /// machine only — never inside a shard critical section, though
    /// the WAL mutex may be held (store locks → obs internals is the
    /// documented acyclic order).
    pub(crate) fn rec_health(&self, event: &'static str, state: u64) {
        self.health.set(state);
        self.tracer.event(event, 0, state);
    }
}

/// The WAL's slice of the store's instruments. `Default` is the
/// detached state (a WAL opened before / without a store).
#[derive(Clone, Default)]
pub(crate) struct WalObs {
    inner: Option<Arc<WalShared>>,
}

impl std::fmt::Debug for WalObs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WalObs")
            .field("attached", &self.inner.is_some())
            .finish()
    }
}

impl WalObs {
    #[inline]
    pub(crate) fn tick(&self) -> Tick {
        Tick(Instant::now())
    }

    #[inline]
    pub(crate) fn rec_append(&self, t: Tick) {
        if let Some(w) = &self.inner {
            w.append_ns.record(t.elapsed_ns());
        }
    }

    #[inline]
    pub(crate) fn rec_fsync(&self, t: Tick) {
        if let Some(w) = &self.inner {
            w.fsync_ns.record(t.elapsed_ns());
        }
    }

    #[inline]
    pub(crate) fn add_bytes(&self, n: u64) {
        if let Some(w) = &self.inner {
            w.bytes_since_checkpoint.add(n);
        }
    }

    #[inline]
    pub(crate) fn reset_bytes(&self) {
        if let Some(w) = &self.inner {
            w.bytes_since_checkpoint.set(0);
        }
    }

    #[inline]
    pub(crate) fn error(&self) {
        if let Some(w) = &self.inner {
            w.persist_errors.inc();
        }
    }
}
