//! Integration tests for the store's observability surface: the
//! exported report carries the full metric catalog, the instrument
//! counters reconcile exactly with [`StoreStats`] under concurrent
//! ingest, the WAL/recovery metrics track the durable lifecycle, and the
//! trace ring keeps the most recent events, bounded and in time order.
//!
//! [`StoreStats`]: alpha_store::StoreStats

use alpha_store::{AlphaStore, Granularity, StoreBuilder};
use lambda_lang::arena::{ExprArena, NodeId};
use lambda_lang::uniquify::uniquify_into;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A corpus with deliberate alpha-duplicates (uniquified copies), so both
/// fresh-class and confirmed-merge paths run.
fn corpus(arena: &mut ExprArena, seed: u64, count: usize) -> Vec<NodeId> {
    let mut roots = Vec::with_capacity(count);
    for i in 0..count {
        let mut rng = StdRng::seed_from_u64(seed ^ (i as u64 % 5));
        let size = 4 + (i % 4) * 8;
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

/// Every metric the acceptance list mandates, by exported name.
const MANDATED: &[&str] = &[
    "alpha_store_prepare_ns",
    "alpha_store_apply_ns",
    "alpha_store_wal_commit_ns",
    "alpha_store_wal_fsync_ns",
    "alpha_store_shard_lock_wait_ns",
    "alpha_store_canon_intern_hits",
    "alpha_store_canon_intern_misses",
    "alpha_store_canon_stripe_waits",
    "alpha_store_frontier_walk_nodes",
    "alpha_store_wal_bytes_since_checkpoint",
];

#[test]
fn report_exposes_the_mandated_catalog_in_both_formats() {
    let mut arena = ExprArena::new();
    let roots = corpus(&mut arena, 0x0B5, 40);
    let store: AlphaStore<u64> = AlphaStore::builder().seed(1).shards(4).build();
    store.insert_batch(&arena, &roots);
    store.contains_batch(&arena, &roots[..8]);
    store.lookup(&arena, roots[0]);
    store.contains(&arena, roots[1]);

    let report = store.obs_report();
    let json = report.to_json();
    let prom = report.to_prometheus();
    for name in MANDATED {
        assert!(json.contains(name), "JSON export is missing {name}");
        assert!(prom.contains(name), "Prometheus export is missing {name}");
    }
    // The unified extras ride along: StoreStats counters and canon-DAG
    // gauges come back through the same report.
    for name in [
        "alpha_store_terms_ingested",
        "alpha_store_merges_confirmed",
        "alpha_store_unconfirmed_merges",
        "alpha_store_canon_resident_nodes",
        "alpha_store_canon_logical_nodes",
    ] {
        assert!(json.contains(name), "JSON export is missing extra {name}");
        assert!(prom.contains(name), "Prometheus export is missing {name}");
    }
    // Prometheus summaries carry quantiles and count/sum per histogram.
    assert!(prom.contains("alpha_store_prepare_ns{quantile=\"0.99\"}"));
    assert!(prom.contains("alpha_store_prepare_ns_count"));
    // Spot-check values, not just presence.
    let stats = store.stats();
    assert_eq!(
        report.counter("alpha_store_terms_ingested"),
        Some(stats.terms_ingested)
    );
    assert_eq!(report.counter("alpha_store_unconfirmed_merges"), Some(0));
    let probe = report.histogram("alpha_store_probe_ns").unwrap();
    assert_eq!(
        probe.count, 10,
        "one probe_ns sample per contains_batch item, lookup and contains"
    );
    let probe_prepare = report.histogram("alpha_store_probe_prepare_ns").unwrap();
    assert_eq!(
        probe_prepare.count, probe.count,
        "every probed pattern was prepared (and timed) exactly once"
    );
}

/// The reconciliation invariants of `docs/OBSERVABILITY.md` that hold
/// however ingest is interleaved: every confirmed merge was counted by
/// its confirmation path, every frontier confirmation logged its walk
/// length, every ingested term was prepared (and timed) once, and the
/// canon table holds one node per intern miss.
fn check_reconciliation(store: &AlphaStore<u64>) -> Result<(), TestCaseError> {
    let report = store.obs_report();
    let stats = store.stats();
    let by_ref = report.counter("alpha_store_merge_confirm_ref").unwrap();
    let by_walk = report.counter("alpha_store_merge_confirm_walk").unwrap();
    if store.granularity().indexes_subexpressions() {
        // Every entry is interned at prepare time: no walks, one ref
        // compare per root merge, and at most one per subexpression merge
        // (duplicates collapsed into one entry merge without a compare).
        prop_assert_eq!(by_walk, 0);
        prop_assert!(
            stats.merges_confirmed <= by_ref
                && by_ref <= stats.merges_confirmed + stats.subterm_merges_confirmed,
            "{} ref confirms for {} root and {} subexpression merges",
            by_ref,
            stats.merges_confirmed,
            stats.subterm_merges_confirmed
        );
    } else {
        prop_assert_eq!(
            by_ref + by_walk,
            stats.merges_confirmed,
            "every confirmed merge is attributed to exactly one confirmation path"
        );
    }
    let walks = report.histogram("alpha_store_frontier_walk_nodes").unwrap();
    prop_assert_eq!(walks.count, by_walk);
    let prepared = report.histogram("alpha_store_prepare_ns").unwrap();
    prop_assert_eq!(prepared.count, stats.terms_ingested);
    let prepared_nodes = report.histogram("alpha_store_prepare_nodes").unwrap();
    prop_assert_eq!(prepared_nodes.count, stats.terms_ingested);
    prop_assert!(report.counter("alpha_store_hash_nodes").unwrap() >= prepared_nodes.sum);
    prop_assert_eq!(
        report.counter("alpha_store_canon_intern_misses"),
        Some(store.canon_dag_stats().resident_nodes)
    );
    check_stripe_waits(&report)
}

/// A probe waits at most once, for its own stripe's index.
fn check_stripe_waits(report: &alpha_obs::Report) -> Result<(), TestCaseError> {
    let probes = report.counter("alpha_store_canon_intern_hits").unwrap()
        + report.counter("alpha_store_canon_intern_misses").unwrap();
    let waits = report.counter("alpha_store_canon_stripe_waits").unwrap();
    prop_assert!(waits <= probes, "{waits} stripe waits for {probes} probes");
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Concurrent batched ingest from several threads: the obs counters
    /// reconcile exactly with `StoreStats`, whatever the interleaving, in
    /// both granularities.
    #[test]
    fn obs_counters_reconcile_with_stats_under_concurrent_ingest(
        seed in 0u64..1_000,
        count in 24usize..96,
        threads in 2usize..5,
    ) {
        let mut arena = ExprArena::new();
        let roots = corpus(&mut arena, seed, count);
        for granularity in [Granularity::Roots, Granularity::Subexpressions { min_nodes: 2 }] {
            let store: AlphaStore<u64> = AlphaStore::builder()
                .seed(9)
                .shards(4)
                .granularity(granularity)
                .build();
            let chunk = roots.len().div_ceil(threads);
            std::thread::scope(|scope| {
                for part in roots.chunks(chunk) {
                    scope.spawn(|| store.insert_batch(&arena, part));
                }
            });
            prop_assert!(store.stats().is_exact());
            check_reconciliation(&store)?;
        }
    }
}

#[test]
fn subexpression_intern_misses_equal_resident_nodes() {
    let mut arena = ExprArena::new();
    let roots = corpus(&mut arena, 0xDA6, 60);
    let store: AlphaStore<u64> = AlphaStore::builder()
        .seed(3)
        .shards(4)
        .subexpressions(2)
        .build();
    store.insert_batch(&arena, &roots);
    let report = store.obs_report();
    // The canon table holds exactly one node per intern miss: the stripe
    // mutex is held across the check-insert, so no double-insert races.
    assert_eq!(
        report.counter("alpha_store_canon_intern_misses"),
        Some(store.canon_dag_stats().resident_nodes)
    );
    // Duplicates guarantee the dedup path actually ran.
    assert!(report.counter("alpha_store_canon_intern_hits").unwrap() > 0);
}

#[test]
fn subexpression_intern_counts_reconcile_under_concurrent_ingest() {
    let mut arena = ExprArena::new();
    let roots = corpus(&mut arena, 0x5E7, 400);
    let store: AlphaStore<u64> = AlphaStore::builder()
        .seed(5)
        .shards(4)
        .subexpressions(2)
        .build();
    // Both threads ingest every term from the same moment, so they
    // probe equal nodes of one stripe at once.
    let start = std::sync::Barrier::new(2);
    std::thread::scope(|scope| {
        for _ in 0..2 {
            scope.spawn(|| {
                start.wait();
                store.insert_batch(&arena, &roots)
            });
        }
    });
    let report = store.obs_report();
    assert_eq!(
        report.counter("alpha_store_canon_intern_misses"),
        Some(store.canon_dag_stats().resident_nodes)
    );
    check_stripe_waits(&report).unwrap();
}

#[test]
fn durable_lifecycle_tracks_wal_and_recovery_metrics() {
    let dir = std::env::temp_dir().join(format!("obs-durable-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let builder = || {
        StoreBuilder::<u64>::new()
            .seed(11)
            .shards(4)
            .sync_on_commit(true)
    };
    let mut arena = ExprArena::new();
    let roots = corpus(&mut arena, 0x9A7, 30);

    {
        let store = builder().open_durable(&dir).unwrap();
        store.insert_batch(&arena, &roots);
        let report = store.obs_report();
        for name in [
            "alpha_store_wal_commit_ns",
            "alpha_store_wal_append_ns",
            "alpha_store_wal_fsync_ns",
        ] {
            let h = report.histogram(name).unwrap();
            assert!(
                h.count > 0,
                "{name} recorded nothing on a sync durable store"
            );
        }
        assert!(
            report
                .gauge("alpha_store_wal_bytes_since_checkpoint")
                .unwrap()
                > 0,
            "appended bytes must show in the gauge"
        );
        assert_eq!(
            report.gauge("alpha_store_wal_records"),
            Some(store.wal_records().unwrap())
        );

        // Checkpointing resets the byte gauge and times the snapshot.
        store.checkpoint().unwrap();
        let report = store.obs_report();
        assert_eq!(
            report.gauge("alpha_store_wal_bytes_since_checkpoint"),
            Some(0)
        );
        assert!(
            report
                .histogram("alpha_store_snapshot_write_ns")
                .unwrap()
                .count
                > 0
        );
    }

    // Reopen: both recovery phases are timed exactly once per open.
    let reopened = builder().open_durable(&dir).unwrap();
    let report = reopened.obs_report();
    assert_eq!(
        report
            .histogram("alpha_store_recovery_snapshot_load_ns")
            .unwrap()
            .count,
        1
    );
    assert_eq!(
        report
            .histogram("alpha_store_recovery_replay_ns")
            .unwrap()
            .count,
        1
    );
    drop(reopened);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn apply_chunks_emit_trace_events() {
    let mut arena = ExprArena::new();
    let roots = corpus(&mut arena, 0x7ACE, 24);
    let store: AlphaStore<u64> = AlphaStore::builder().seed(7).shards(2).build();
    store.insert_batch(&arena, &roots);
    let events = store.obs_recent_events();
    assert!(
        events.iter().any(|e| e.name == "store.apply_chunk"),
        "batched ingest must emit apply-chunk events, got {:?}",
        events.iter().map(|e| e.name).collect::<Vec<_>>()
    );
}

/// The trace ring keeps the 1,024 most recent events. A `Roots` store
/// with a one-entry chunk budget emits one `store.apply_chunk` event per
/// ingested term, so a 1,100-term batch overflows the ring.
#[test]
fn trace_ring_keeps_the_most_recent_1024_events() {
    let mut arena = ExprArena::new();
    let roots = corpus(&mut arena, 0x1024, 1100);
    let store: AlphaStore<u64> = AlphaStore::builder()
        .seed(3)
        .shards(4)
        .chunk_entries(1)
        .build();
    store.insert_batch(&arena, &roots);
    let events = store.obs_recent_events();
    assert_eq!(events.len(), 1024);
    assert!(events.windows(2).all(|w| w[0].t_ns <= w[1].t_ns));
    assert!(events
        .iter()
        .all(|e| e.name == "store.apply_chunk" && e.arg == 1));
    // The final chunk's event is the newest one: one more chunk evicts
    // the oldest event and appends its own.
    store.insert_batch(&arena, &roots[..1]);
    let after = store.obs_recent_events();
    assert_eq!(after.len(), 1024);
    let key = |e: &alpha_obs::Event| (e.name, e.t_ns, e.dur_ns, e.arg);
    assert!(after[..1023]
        .iter()
        .map(key)
        .eq(events[1..].iter().map(key)));
    assert_eq!(after[1023].name, "store.apply_chunk");
    assert!(after[1023].t_ns >= events[1023].t_ns);
}

/// The health state machine is fully observable: the
/// `alpha_store_health` gauge tracks every transition, the retry and
/// auto-checkpoint counters tick, and each transition emits a trace
/// event (`store.degraded` / `store.read_only` / `store.healed`).
#[test]
fn health_machine_is_observable() {
    use alpha_store::{FaultKind, FaultVfs, Health};
    use std::sync::Arc;

    let dir = std::env::temp_dir().join(format!("alpha-store-obs-health-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut arena = ExprArena::new();
    let roots = corpus(&mut arena, 0x8EA17, 10);
    let fault = FaultVfs::new();
    let store: AlphaStore<u64> = AlphaStore::builder()
        .seed(7)
        .shards(4)
        .vfs(Arc::new(fault.clone()))
        .persist_retries(1)
        .persist_sleeper(Arc::new(|_| {}))
        .open_durable(&dir)
        .unwrap();

    store.insert_batch(&arena, &roots[..4]);
    assert_eq!(store.obs_report().gauge("alpha_store_health"), Some(0));

    // Transient fault: one retry, absorbed, healthy throughout the
    // caller's view (degrade + heal both emitted).
    fault.fail_at(fault.op_count(), FaultKind::Eio);
    store.insert(&arena, roots[4]);
    let report = store.obs_report();
    assert_eq!(report.gauge("alpha_store_health"), Some(0));
    assert_eq!(report.counter("alpha_store_wal_retries"), Some(1));

    // Persistent fault: retries exhaust, read-only (gauge = 2).
    fault.fail_always(FaultKind::Enospc);
    assert!(store.try_insert(&arena, roots[5]).is_err());
    assert_eq!(store.obs_report().gauge("alpha_store_health"), Some(2));
    assert!(matches!(store.health(), Health::ReadOnly(_)));

    // Manual checkpoint over a healed disk: gauge back to 0.
    fault.clear();
    store.checkpoint().unwrap();
    assert_eq!(store.obs_report().gauge("alpha_store_health"), Some(0));

    let events: Vec<&'static str> = store.obs_recent_events().iter().map(|e| e.name).collect();
    for needed in ["store.degraded", "store.read_only", "store.healed"] {
        assert!(
            events.contains(&needed),
            "missing trace event {needed} in {events:?}"
        );
    }
    drop(store);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Auto-checkpoints tick their counter.
#[test]
fn auto_checkpoints_are_counted() {
    let dir = std::env::temp_dir().join(format!("alpha-store-obs-ackpt-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut arena = ExprArena::new();
    let roots = corpus(&mut arena, 0xACC7, 12);
    let store: AlphaStore<u64> = AlphaStore::builder()
        .seed(7)
        .shards(4)
        .auto_checkpoint_records(4)
        .open_durable(&dir)
        .unwrap();
    for &r in &roots {
        store.insert(&arena, r);
    }
    let ticks = store
        .obs_report()
        .counter("alpha_store_auto_checkpoints")
        .unwrap();
    assert!(
        ticks >= 2,
        "12 inserts over a 4-record watermark: got {ticks}"
    );
    drop(store);
    std::fs::remove_dir_all(&dir).unwrap();
}
