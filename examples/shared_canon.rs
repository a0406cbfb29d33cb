//! Canon-DAG dedup drill: how much resident memory does hash-consing the
//! canonical forms save?
//!
//! Ingests a duplicate-heavy corpus at `Subexpressions` granularity —
//! the configuration that used to materialize one standalone canonical
//! arena per indexed subterm class — and reports what the shared canon
//! node table actually holds: every distinct canonical node exactly once,
//! however many classes reach it. The "logical" total is what the
//! pre-DAG, arena-per-class design kept resident; the ratio between the
//! two is the structure-sharing win the PLDI 2021 paper's DAG framing
//! promises. The drill also exercises `contains_batch`, the batched
//! containment probe answered against the same DAG, and a durable round
//! trip whose recovery re-hashes every logged record.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example shared_canon
//! ```

use hash_modulo_alpha::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

const TERMS: usize = 4_000;
const MIN_NODES: usize = 3;

fn main() {
    // ── A corpus with heavy alpha-duplication (small seed pool) ─────────
    let mut arena = ExprArena::new();
    let mut roots = Vec::with_capacity(TERMS);
    for i in 0..TERMS as u64 {
        let mut rng = StdRng::seed_from_u64(i % 223);
        let size = 10 + (i as usize % 5) * 10;
        roots.push(hash_modulo_alpha::gen::balanced(&mut arena, size, &mut rng));
    }
    let corpus_nodes: usize = roots.iter().map(|&r| arena.subtree_size(r)).sum();

    // ── Ingest at subexpression granularity ─────────────────────────────
    let store: AlphaStore<u64> = AlphaStore::builder()
        .seed(0x5EED)
        .shards(8)
        .subexpressions(MIN_NODES)
        .build();
    let start = Instant::now();
    store.insert_batch(&arena, &roots);
    let ingest = start.elapsed();
    let stats = store.stats();
    assert!(stats.is_exact(), "every merge confirmed: {stats}");

    println!(
        "ingested {TERMS} terms / {corpus_nodes} nodes at min_nodes={MIN_NODES} in {:.1?}",
        ingest
    );
    println!("  {stats}");

    // ── The headline: resident vs logical canonical storage ─────────────
    let dag = store.canon_dag_stats();
    println!("  {dag}");
    println!(
        "  per-class standalone arenas would hold {} nodes; the DAG holds {} ({:.2}x dedup)",
        dag.logical_nodes,
        dag.resident_nodes,
        dag.sharing_ratio()
    );
    assert!(
        dag.sharing_ratio() >= 3.0,
        "duplicate-heavy corpus must share canonical structure at least 3x: {dag}"
    );

    // ── Batched containment probes against the DAG ──────────────────────
    let patterns = &roots[..1_000.min(roots.len())];
    let start = Instant::now();
    let found = store.contains_batch(&arena, patterns);
    let batch = start.elapsed();
    assert!(
        found.iter().all(Option::is_some),
        "corpus terms are contained"
    );
    println!(
        "  contains_batch: {} patterns in {:.1?} ({:.0} queries/s)",
        patterns.len(),
        batch,
        patterns.len() as f64 / batch.as_secs_f64()
    );

    // ── Durable round trip: recovery re-hashes every record ─────────────
    let dir = std::env::temp_dir().join(format!("shared-canon-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    AlphaStore::<u64>::builder()
        .seed(0x5EED)
        .shards(8)
        .subexpressions(MIN_NODES)
        .open_durable(&dir)
        .expect("create durable store")
        .insert_batch(&arena, &roots[..500]);
    let start = Instant::now();
    let reopened = AlphaStore::<u64>::open(&dir).expect("recovery re-hashes every record");
    println!(
        "  recovery of {} terms (every record re-prepared and re-hashed): {:.1?}, {}",
        reopened.num_terms(),
        start.elapsed(),
        if reopened.stats().is_exact() {
            "exact"
        } else {
            "NOT EXACT"
        }
    );
    assert!(reopened.stats().is_exact());
    assert_eq!(reopened.num_terms(), 500);
    let _ = std::fs::remove_dir_all(&dir);
}
