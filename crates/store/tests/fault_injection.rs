//! Deterministic fault-injection tests for the durable store, driven by
//! [`FaultVfs`] — no `/dev/full`, no timing, no OS special cases.
//!
//! The centrepiece is the **crash-point sweep**: a scripted workload is
//! first run fault-free to learn how many write-side I/O operations it
//! performs, then re-run once per operation index with the simulated
//! machine dying exactly there (in three flavours: clean crash-stop,
//! ENOSPC-then-crash, silent torn write then crash). After every single
//! crash point the store must reopen, match a fresh-build oracle over
//! the surviving prefix exactly (class census, partition, zero
//! unconfirmed merges), and keep ingesting.
//!
//! Around the sweep: the degraded-mode health machine (retry → heal,
//! exhaustion → read-only, lookups keep serving, `checkpoint()` heals),
//! harmless mid-snapshot failures at every op index, and the
//! auto-checkpoint watermarks.

use alpha_store::persist::{SNAPSHOT_FILE, WAL_FILE};
use alpha_store::{
    AlphaStore, FaultKind, FaultVfs, Granularity, Health, PersistError, Rewrite, SnapshotOp,
    StoreError,
};
use lambda_lang::arena::{ExprArena, NodeId};
use lambda_lang::uniquify::uniquify_into;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

/// A fresh temp directory, removed on drop (even when a case fails).
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        use std::sync::atomic::{AtomicU64, Ordering};
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let path = std::env::temp_dir().join(format!(
            "alpha-store-fault-{}-{}-{}",
            std::process::id(),
            tag,
            COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        TempDir(path)
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A small varied corpus with alpha-duplicates (every other term is an
/// alpha-renaming), deterministic in `seed`.
fn corpus(arena: &mut ExprArena, seed: u64, count: usize) -> Vec<NodeId> {
    let mut roots = Vec::with_capacity(count);
    for i in 0..count {
        let mut rng = StdRng::seed_from_u64(seed ^ (i as u64 % 4));
        let size = 4 + (i % 3) * 6;
        let mut scratch = ExprArena::new();
        let root = match i % 3 {
            0 => expr_gen::balanced(&mut scratch, size, &mut rng),
            1 => expr_gen::unbalanced(&mut scratch, size, &mut rng),
            _ => expr_gen::arithmetic(&mut scratch, size.max(8), &mut rng),
        };
        if i % 2 == 0 {
            roots.push(uniquify_into(&scratch, root, arena));
        } else {
            roots.push(arena.import_subtree(&scratch, root));
        }
    }
    roots
}

/// Everything observable about a store's classes, keyed by canonical
/// text: member, occurrence and node counts. Equal maps ⇒ same classes
/// with the same bookkeeping.
fn class_census(store: &AlphaStore<u64>) -> BTreeMap<String, (u64, u64, usize)> {
    let mut census = BTreeMap::new();
    for class in store.classes() {
        census.insert(
            store.canonical_text(class),
            (
                store.members(class),
                store.occurrences(class),
                store.node_count(class),
            ),
        );
    }
    census
}

/// A no-op sleeper so retry/backoff tests never actually wait.
fn instant_sleeper() -> Arc<dyn Fn(Duration) + Send + Sync> {
    Arc::new(|_| {})
}

fn builder(granularity: Granularity, fault: &FaultVfs) -> alpha_store::StoreBuilder<u64> {
    AlphaStore::<u64>::builder()
        .seed(0xFA17)
        .shards(4)
        .granularity(granularity)
        .chunk_entries(4)
        .sync_on_commit(true)
        .vfs(Arc::new(fault.clone()))
        .persist_retries(0)
        .persist_sleeper(instant_sleeper())
}

/// The whole-root rewrite the scripted workload applies to the first
/// ingested term, distinctive enough to never be alpha-equal to a
/// corpus term. Closed, so it is valid against any host.
fn workload_patch(arena: &mut ExprArena) -> NodeId {
    lambda_lang::parse::parse(arena, r"\k. k (k (k 9))").expect("fixed patch parses")
}

/// The scripted workload the sweep kills at every op index: a batch
/// ingest, an incremental **update** of the first term (one delta WAL
/// record), a checkpoint, and a second batch ingest. Errors are
/// swallowed — once the machine "dies", later calls fail or are
/// refused, and the sweep only cares what recovery makes of the bytes
/// that reached disk.
fn run_workload(
    store: &AlphaStore<u64>,
    arena: &ExprArena,
    roots: &[NodeId],
    patch: (&ExprArena, NodeId),
) {
    let half = roots.len() / 2;
    if let Ok(outcomes) = store.try_insert_batch(arena, &roots[..half]) {
        let _ = store.try_update(
            outcomes[0].term,
            Rewrite {
                path: &[],
                arena: patch.0,
                root: patch.1,
            },
        );
    }
    let _ = store.checkpoint();
    let _ = store.try_insert_batch(arena, &roots[half..]);
}

/// The crash-point sweep for one granularity. `kinds` rotate over the op
/// indices so every index is hit and every flavour covers a spread of
/// indices.
///
/// The workload includes one incremental update (a delta WAL record),
/// so the surviving-prefix oracle is two-valued: a fresh build over the
/// surviving terms, with the update re-applied live iff the delta
/// reached disk. WAL order pins the ambiguity down to a single point —
/// the delta is appended after the first batch and before everything
/// else, so it survived whenever any later record did.
fn sweep(granularity: Granularity, tag: &str) {
    let mut arena = ExprArena::new();
    let roots = corpus(&mut arena, 0xBEEF, 10);
    let half = roots.len() / 2;
    let mut patch_arena = ExprArena::new();
    let patch = workload_patch(&mut patch_arena);

    // A fresh build over the surviving prefix, the update re-applied
    // live when the delta survived. Applying it after the batch is
    // equivalent to mid-stream: the update reads only its own class.
    let fault_for_oracle = FaultVfs::new();
    let oracle_over = |survived: usize, with_update: bool| -> AlphaStore<u64> {
        let oracle = builder(granularity, &fault_for_oracle).build();
        let outcomes = oracle.insert_batch(&arena, &roots[..survived]);
        if with_update {
            oracle
                .try_update(
                    outcomes[0].term,
                    Rewrite {
                        path: &[],
                        arena: &patch_arena,
                        root: patch,
                    },
                )
                .expect("oracle update");
        }
        oracle
    };

    // Fault-free calibration run: learn the workload's op count and the
    // full-corpus oracle censuses (with and without the update, for the
    // phase-3 comparison below).
    let fault = FaultVfs::new();
    let total_ops = {
        let dir = TempDir::new(tag);
        let store = builder(granularity, &fault)
            .open_durable(dir.path())
            .expect("calibration open");
        run_workload(&store, &arena, &roots, (&patch_arena, patch));
        fault.op_count()
    };
    assert!(
        total_ops >= 12,
        "workload too small to be a meaningful sweep ({total_ops} ops)"
    );
    let oracle_full_updated = class_census(&oracle_over(roots.len(), true));
    let oracle_full_plain = class_census(&oracle_over(roots.len(), false));

    let kinds = [
        FaultKind::CrashStop,
        FaultKind::Enospc,
        FaultKind::TornWrite,
    ];
    for op in 0..total_ops {
        for &kind in &kinds {
            let dir = TempDir::new(tag);
            let fault = FaultVfs::new();

            // Phase 1: the machine dies at op `op`. An `Err` from the
            // initial open just means it died during store creation —
            // recovery below must cope with that half-created state too.
            {
                fault.crash_at(op, kind);
                if let Ok(store) = builder(granularity, &fault).open_durable(dir.path()) {
                    run_workload(&store, &arena, &roots, (&patch_arena, patch));
                }
            } // drop = crash: no shutdown ceremony

            // The reboot: faults stop, the files are whatever they are.
            fault.clear();

            // Phase 2: recovery must yield exactly a fresh build over
            // the surviving prefix, update included iff its delta made
            // it to disk.
            let recovered = builder(granularity, &fault)
                .open_durable(dir.path())
                .unwrap_or_else(|e| panic!("{tag}: recovery failed at op {op} ({kind:?}): {e}"));
            let survived = recovered.num_terms();
            assert!(
                survived <= roots.len(),
                "{tag}: op {op} ({kind:?}): {survived} terms recovered from {} ingested",
                roots.len()
            );
            let recovered_census = class_census(&recovered);
            // The delta sits between the two batches in the WAL: fewer
            // terms than the first batch means it cannot have survived,
            // more means it must have. Exactly at the boundary either
            // prefix is legal — the censuses discriminate.
            let update_survived = if survived < half {
                false
            } else if survived > half {
                true
            } else {
                recovered_census == class_census(&oracle_over(half, true))
            };
            let oracle = oracle_over(survived, update_survived);
            assert_eq!(
                recovered_census,
                class_census(&oracle),
                "{tag}: op {op} ({kind:?}): recovered census diverges from oracle over \
                 {survived} surviving terms (update survived: {update_survived})"
            );
            assert_eq!(recovered.num_classes(), oracle.num_classes());
            assert!(
                recovered.stats().is_exact(),
                "{tag}: op {op} ({kind:?}): unconfirmed merges after recovery"
            );
            assert_eq!(recovered.health(), Health::Healthy);

            // Phase 3: the recovered store keeps working — ingest the
            // lost tail and land on the matching full-corpus census.
            recovered
                .try_insert_batch(&arena, &roots[survived..])
                .unwrap_or_else(|e| panic!("{tag}: op {op} ({kind:?}): post-recovery ingest: {e}"));
            let expected_full = if update_survived {
                &oracle_full_updated
            } else {
                &oracle_full_plain
            };
            assert_eq!(
                &class_census(&recovered),
                expected_full,
                "{tag}: op {op} ({kind:?}): post-recovery ingest diverges from full oracle"
            );
        }
    }
}

#[test]
fn crash_point_sweep_roots() {
    sweep(Granularity::Roots, "sweep-roots");
}

#[test]
fn crash_point_sweep_subexpressions() {
    sweep(Granularity::Subexpressions { min_nodes: 3 }, "sweep-subs");
}

/// A persistently failing disk flips the store read-only; lookups keep
/// serving from memory; a successful `checkpoint()` heals it back to
/// full service.
#[test]
fn read_only_store_keeps_serving_and_checkpoint_heals() {
    let mut arena = ExprArena::new();
    let roots = corpus(&mut arena, 0xC0FFEE, 12);
    let dir = TempDir::new("read-only");
    let fault = FaultVfs::new();
    let store = builder(Granularity::Subexpressions { min_nodes: 3 }, &fault)
        .persist_retries(1)
        .open_durable(dir.path())
        .expect("open durable");

    let (known, lost) = roots.split_at(8);
    store
        .try_insert_batch(&arena, known)
        .expect("healthy ingest");
    assert_eq!(store.health(), Health::Healthy);

    // The disk dies for good: the retry is also refused, so the policy
    // exhausts and the store goes read-only with the underlying error.
    fault.fail_always(FaultKind::Enospc);
    let err = store.try_insert(&arena, lost[0]).expect_err("disk is dead");
    assert!(
        matches!(err, StoreError::Persist(_)),
        "exhausted retries surface the persistence error, got: {err}"
    );
    match store.health() {
        Health::ReadOnly(reason) => assert!(
            reason.contains("no space left"),
            "reason should carry the I/O cause, got: {reason}"
        ),
        other => panic!("expected ReadOnly, got {other:?}"),
    }

    // Further ingest is refused up front with the typed refusal…
    let err = store.try_insert(&arena, lost[1]).expect_err("read-only");
    assert!(matches!(err, StoreError::Degraded { .. }), "got: {err}");

    // …while every read path keeps serving from memory.
    assert!(store.lookup(&arena, known[0]).is_some());
    assert!(store.contains(&arena, known[0]).is_some());
    let hits = store.contains_batch(&arena, known);
    assert!(hits.iter().all(Option::is_some));
    assert_eq!(store.num_terms(), 8);

    // The operator fixes the disk; checkpoint() proves it and heals.
    fault.clear();
    store.checkpoint().expect("checkpoint over a healed disk");
    assert_eq!(store.health(), Health::Healthy);
    store
        .try_insert_batch(&arena, lost)
        .expect("ingest after heal");
    assert_eq!(store.num_terms(), roots.len());

    // And what landed after the heal is durable: reopen and compare.
    let census = class_census(&store);
    drop(store);
    let reopened = builder(Granularity::Subexpressions { min_nodes: 3 }, &fault)
        .open_durable(dir.path())
        .expect("reopen");
    assert_eq!(class_census(&reopened), census);
}

/// A transient fault is absorbed by the retry policy: the insert
/// succeeds, the store passes through Degraded and heals itself.
#[test]
fn transient_fault_retries_and_heals() {
    let mut arena = ExprArena::new();
    let roots = corpus(&mut arena, 0x7EA, 6);
    let dir = TempDir::new("transient");
    let fault = FaultVfs::new();
    let store = builder(Granularity::Roots, &fault)
        .persist_retries(2)
        .open_durable(dir.path())
        .expect("open durable");
    store
        .try_insert_batch(&arena, &roots[..4])
        .expect("warm up");

    // Exactly the next append fails once; the retry lands it.
    fault.fail_at(fault.op_count(), FaultKind::Eio);
    store
        .try_insert(&arena, roots[4])
        .expect("retry absorbs the fault");
    assert_eq!(store.health(), Health::Healthy, "retried success heals");

    // The record landed exactly once: reopen and the term is there.
    drop(store);
    fault.clear();
    let reopened = builder(Granularity::Roots, &fault)
        .open_durable(dir.path())
        .expect("reopen");
    assert_eq!(reopened.num_terms(), 5);
    assert!(reopened.lookup(&arena, roots[4]).is_some());
}

/// A batch whose WAL append fails still accounts the hashing it did: every
/// chunk drains its hash counters before its append, so with no probe in
/// between `hash_nodes` equals `prepare_nodes.sum` after a successful
/// batch and after a failed one, in both granularities.
#[test]
fn failed_batch_appends_keep_their_hash_counters() {
    for (granularity, tag) in [
        (Granularity::Roots, "hashcount-roots"),
        (
            Granularity::Subexpressions { min_nodes: 2 },
            "hashcount-subs",
        ),
    ] {
        let mut arena = ExprArena::new();
        let roots = corpus(&mut arena, 0xC0DE, 16);
        let dir = TempDir::new(tag);
        let fault = FaultVfs::new();
        let store = builder(granularity, &fault)
            .open_durable(dir.path())
            .expect("open durable");
        let counts = || {
            let report = store.obs_report();
            (
                report.counter("alpha_store_hash_nodes").unwrap(),
                report.histogram("alpha_store_prepare_nodes").unwrap().sum,
            )
        };
        store
            .try_insert_batch(&arena, &roots[..8])
            .expect("healthy batch");
        let (hashed, prepared) = counts();
        assert!(prepared > 0);
        assert_eq!(hashed, prepared, "{granularity:?}: after a good batch");

        fault.fail_always(FaultKind::Eio);
        let err = store.try_insert_batch(&arena, &roots[8..]).unwrap_err();
        assert!(matches!(err, StoreError::Persist(_)), "{err}");
        let (hashed_after, prepared_after) = counts();
        assert!(prepared_after > prepared, "the failed chunk was prepared");
        assert_eq!(
            hashed_after, prepared_after,
            "{granularity:?}: the failed chunk's hashing is counted"
        );
    }
}

/// A disk whose every 5th write-side op fails once with EIO: the retry
/// policy absorbs each fault (truncate to the last good frame, re-append),
/// the ingest never surfaces an error, the store stays healthy and exact,
/// and a reopen on a sound disk recovers exactly what a fresh build holds.
#[test]
fn periodic_write_faults_are_absorbed_by_retries() {
    let mut arena = ExprArena::new();
    let roots = corpus(&mut arena, 0xF1A4, 60);
    let dir = TempDir::new("periodic");
    let fault = FaultVfs::new();
    let store = builder(Granularity::Roots, &fault)
        .persist_retries(2)
        .open_durable(dir.path())
        .expect("open durable");
    fault.fail_every(5, FaultKind::Eio);
    store
        .try_insert_batch(&arena, &roots)
        .expect("retries absorb every periodic fault");
    let retries = store.obs_report().counter("alpha_store_wal_retries");
    assert!(
        retries.unwrap() > 0,
        "a 1-in-5 fault rate must exercise the retry path"
    );
    assert_eq!(store.health(), Health::Healthy);
    assert!(store.stats().is_exact());
    drop(store);

    fault.clear();
    let reopened = builder(Granularity::Roots, &fault)
        .open_durable(dir.path())
        .expect("reopen");
    let oracle: AlphaStore<u64> = AlphaStore::builder().seed(0xFA17).shards(4).build();
    oracle.insert_batch(&arena, &roots);
    assert_eq!(reopened.num_terms(), roots.len());
    assert_eq!(class_census(&reopened), class_census(&oracle));
    assert!(reopened.stats().is_exact());
}

/// A checkpoint whose snapshot dies mid-write — at *every* op index of
/// the snapshot phase — loses nothing: the WAL is untouched, the temp
/// file cleaned up, the store keeps serving, and a crash right there
/// recovers everything from disk. Before the rename the previous
/// snapshot is untouched too and the store stays writable (degraded).
/// A failed directory sync comes after the rename, when recovery already
/// reads the new snapshot and would discard the WAL as stale: the store
/// refuses writes (read-only) rather than append records recovery would
/// drop.
#[test]
fn snapshot_failure_at_every_op_is_harmless() {
    let mut arena = ExprArena::new();
    let roots = corpus(&mut arena, 0x5AFE, 10);
    let (first, second) = roots.split_at(roots.len() / 2);

    // Kill the k-th op of the checkpoint for k = 0, 1, … until the op
    // that dies is no longer one of the snapshot's: the snapshot phase
    // is every op before the WAL reset.
    let mut snap_ops = 0u64;
    loop {
        let k = snap_ops;
        let dir = TempDir::new("snap-fail");
        let fault = FaultVfs::new();
        let store = builder(Granularity::Roots, &fault)
            .open_durable(dir.path())
            .expect("open");
        store.try_insert_batch(&arena, first).expect("ingest");
        // A fresh store has no snapshot yet: commit a baseline one so
        // the failed attempt below has something it must not damage, and
        // give the WAL records after it.
        store.checkpoint().expect("baseline checkpoint");
        store.try_insert_batch(&arena, second).expect("ingest");
        let snap_path = dir.path().join(SNAPSHOT_FILE);
        let old_snapshot = std::fs::read(&snap_path).expect("baseline snapshot bytes");
        let wal_path = dir.path().join(WAL_FILE);
        let old_wal = std::fs::read(&wal_path).expect("wal bytes");

        fault.fail_at(fault.op_count() + k, FaultKind::Enospc);
        let err = store.checkpoint().expect_err("the k-th checkpoint op dies");
        let renamed = match err {
            PersistError::Snapshot { op, .. } => op == SnapshotOp::DirSync,
            // The WAL reset's op: the snapshot phase is over.
            _ => break,
        };
        snap_ops += 1;

        // The WAL is byte-identical; the temp file is gone.
        assert_eq!(
            std::fs::read(&wal_path).expect("wal"),
            old_wal,
            "op {k}: failed snapshot must not touch the WAL"
        );
        assert!(
            !snap_path.with_extension("tmp").exists(),
            "op {k}: temp file must be cleaned up"
        );
        // The store still serves…
        assert!(store.lookup(&arena, roots[0]).is_some());
        let extra = corpus(&mut arena, 0xE47A ^ k, 1);
        let ingested = store.try_insert_batch(&arena, &extra);
        if renamed {
            assert!(
                matches!(store.health(), Health::ReadOnly(_)),
                "op {k}: a snapshot renamed over the old one leaves a stale WAL: {:?}",
                store.health()
            );
            assert!(
                matches!(ingested, Err(StoreError::Degraded { .. })),
                "op {k}: no record may land in a WAL recovery discards"
            );
        } else {
            assert!(
                matches!(store.health(), Health::Degraded(_)),
                "failed snapshot degrades, never kills: {:?}",
                store.health()
            );
            assert_eq!(
                std::fs::read(&snap_path).expect("old snapshot intact"),
                old_snapshot,
                "op {k}: failed snapshot must not touch the committed one"
            );
            ingested.expect("degraded store still ingests");
        }

        // …and a crash right now recovers everything it accepted.
        drop(store);
        fault.clear();
        let recovered = builder(Granularity::Roots, &fault)
            .open_durable(dir.path())
            .expect("recovery after failed snapshot");
        assert_eq!(
            recovered.num_terms(),
            roots.len() + usize::from(!renamed),
            "op {k}"
        );
        assert!(recovered.stats().is_exact());
    }
    assert!(snap_ops >= 4, "create + writes + sync + rename + dir sync");
}

/// The record-count watermark: ingest past it and the store checkpoints
/// itself — WAL truncated, snapshot advanced — without any explicit
/// maintenance call.
#[test]
fn auto_checkpoint_trips_on_record_watermark() {
    let mut arena = ExprArena::new();
    let roots = corpus(&mut arena, 0xAC, 20);
    let dir = TempDir::new("auto-records");
    let fault = FaultVfs::new();
    let store = builder(Granularity::Roots, &fault)
        .auto_checkpoint_records(8)
        .open_durable(dir.path())
        .expect("open");
    for &r in &roots {
        store.try_insert(&arena, r).expect("ingest");
        assert!(
            store.wal_records().expect("durable") <= 8,
            "the WAL must never grow past the watermark plus the current chunk"
        );
    }
    assert!(
        store.wal_records().expect("durable") < roots.len() as u64,
        "auto-checkpoint must have truncated the WAL at least once"
    );
    assert_eq!(store.health(), Health::Healthy);

    // Everything is durable across the snapshot/WAL split.
    let census = class_census(&store);
    drop(store);
    let reopened = builder(Granularity::Roots, &fault)
        .open_durable(dir.path())
        .expect("reopen");
    assert_eq!(reopened.num_terms(), roots.len());
    assert_eq!(class_census(&reopened), census);
}

/// The byte watermark, same shape: WAL bytes since the last checkpoint
/// stay bounded by the watermark plus one chunk.
#[test]
fn auto_checkpoint_trips_on_byte_watermark() {
    let mut arena = ExprArena::new();
    let roots = corpus(&mut arena, 0xAB, 16);
    let dir = TempDir::new("auto-bytes");
    let fault = FaultVfs::new();
    let store = builder(Granularity::Roots, &fault)
        .auto_checkpoint_bytes(2 * 1024)
        .open_durable(dir.path())
        .expect("open");
    store.try_insert_batch(&arena, &roots).expect("ingest");
    let wal_len = std::fs::metadata(dir.path().join(WAL_FILE))
        .expect("wal")
        .len();
    assert!(
        wal_len < 16 * 1024,
        "byte watermark must keep the WAL bounded, got {wal_len} bytes"
    );
    drop(store);
    let reopened = builder(Granularity::Roots, &fault)
        .open_durable(dir.path())
        .expect("reopen");
    assert_eq!(reopened.num_terms(), roots.len());
}

/// An auto-checkpoint that fails mid-flight must degrade the store but
/// never fail the insert that tripped it — the chunk is already in the
/// WAL.
#[test]
fn failed_auto_checkpoint_never_fails_the_insert() {
    let mut arena = ExprArena::new();
    let roots = corpus(&mut arena, 0xFA11, 12);
    let dir = TempDir::new("auto-fail");
    let fault = FaultVfs::new();
    let store = builder(Granularity::Roots, &fault)
        .auto_checkpoint_records(5)
        .open_durable(dir.path())
        .expect("open");
    store
        .try_insert_batch(&arena, &roots[..3])
        .expect("below watermark");

    // Probe: how many WAL ops does one below-watermark insert draw?
    let wal_ops_per_insert = {
        let before = fault.op_count();
        store.try_insert(&arena, roots[3]).expect("probe insert");
        fault.op_count() - before
    };
    // The next insert trips the watermark (5 records reached): its WAL
    // append succeeds, then the auto-checkpoint's snapshot create —
    // the first op *after* the insert's own ops — dies.
    fault.fail_at(fault.op_count() + wal_ops_per_insert, FaultKind::Enospc);
    store
        .try_insert(&arena, roots[4])
        .expect("the insert must succeed even though its auto-checkpoint dies");
    assert!(
        matches!(store.health(), Health::Degraded(_)),
        "failed auto-checkpoint degrades: {:?}",
        store.health()
    );

    // The watermark is still tripped; the next insert retries the
    // checkpoint over the healed disk and the store heals itself.
    fault.clear();
    store.try_insert(&arena, roots[5]).expect("ingest");
    assert_eq!(store.health(), Health::Healthy);
    assert!(store.wal_records().expect("durable") <= 1);
}

/// In-memory stores never degrade and refuse nothing: the health
/// machine is durable-only surface, `try_insert` is total.
#[test]
fn in_memory_stores_are_always_healthy() {
    let mut arena = ExprArena::new();
    let roots = corpus(&mut arena, 0x1, 4);
    let store = AlphaStore::<u64>::builder().seed(1).build();
    store
        .try_insert_batch(&arena, &roots)
        .expect("in-memory ingest is total");
    assert_eq!(store.health(), Health::Healthy);
    assert!(
        store.checkpoint().is_err(),
        "no durable state to checkpoint"
    );
}
