//! Observability drill: what do the store's built-in instruments see
//! during a real ingest?
//!
//! Ingests a 10k-term duplicate-heavy corpus into a durable,
//! subexpression-granularity store — the configuration that exercises
//! every instrumented hot path at once: fused prepare, shard-lock
//! waits, canon-table interning, WAL group commits, merge confirmation
//! by both interned-ref compare and frontier walk — then probes it,
//! checkpoints it, and prints the same report twice: once as Prometheus
//! text exposition (what a scrape endpoint would serve), once as JSON
//! (what a dashboard or the bench harness would consume).
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example store_metrics
//! ```

use hash_modulo_alpha::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

const TERMS: usize = 10_000;

fn main() {
    let dir = std::env::temp_dir().join(format!("store-metrics-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // A corpus with a small seed pool, so alpha-duplicates are common and
    // the merge-confirmation instruments have something to count.
    let mut arena = ExprArena::new();
    let mut roots = Vec::with_capacity(TERMS);
    for i in 0..TERMS as u64 {
        let mut rng = StdRng::seed_from_u64(i % 211);
        let size = 8 + (i as usize % 6) * 7;
        roots.push(hash_modulo_alpha::gen::balanced(&mut arena, size, &mut rng));
    }

    let store: AlphaStore<u64> = AlphaStore::builder()
        .seed(0x0B5)
        .shards(8)
        .subexpressions(3)
        .sync_on_commit(true) // so the fsync histogram has samples too
        .open_durable(&dir)
        .expect("open durable store");

    store.insert_batch(&arena, &roots);
    store.contains_batch(&arena, &roots[..64]);
    store.checkpoint().expect("checkpoint");
    let stats = store.stats();
    assert!(stats.is_exact(), "every merge confirmed: {stats}");

    let report = store.obs_report();

    println!("=== Prometheus exposition ===");
    println!("{}", report.to_prometheus());

    println!("=== JSON ===");
    println!("{}", report.to_json());

    println!("=== Recent trace events (newest last) ===");
    let events = store.obs_recent_events();
    for e in events.iter().rev().take(10).rev() {
        println!("  {:>12} ns  {:<24} arg={}", e.dur_ns, e.name, e.arg);
    }
    println!("  ({} events in the ring)", events.len());

    drop(store);
    std::fs::remove_dir_all(&dir).expect("cleanup");
}
