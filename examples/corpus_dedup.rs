//! Walkthrough of the `alpha-store` subsystem: ingest a **10,000-term
//! corpus** concurrently, deduplicate it modulo alpha, audit exactness,
//! and run cross-term CSE over the surviving representatives.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example corpus_dedup
//! ```

use alpha_hash_bench::{parallel_ingest, store_corpus};
use hash_modulo_alpha::prelude::*;
use std::time::Instant;

const TERMS: usize = 10_000;
const SEED_POOL: u64 = 701; // distinct generator seeds ≈ expected classes
const THREADS: usize = 8;

fn main() {
    let mut arena = ExprArena::new();
    let start = Instant::now();
    // 10k terms drawn from ~700 generator seeds, half alpha-renamed so
    // duplicates are not syntactically identical.
    let roots = store_corpus(&mut arena, TERMS, SEED_POOL);
    let corpus_nodes: usize = roots.iter().map(|&r| arena.subtree_size(r)).sum();
    println!(
        "corpus: {} terms, {} nodes total (built in {:.2?})",
        roots.len(),
        corpus_nodes,
        start.elapsed()
    );

    // ── Concurrent ingest ────────────────────────────────────────────────
    let store: AlphaStore<u64> = AlphaStore::builder().seed(0x5EED).shards(8).build();
    let start = Instant::now();
    parallel_ingest(&store, &arena, &roots, THREADS);
    let ingest = start.elapsed();
    let stats = store.stats();
    println!(
        "ingested from {THREADS} threads in {:.2?} ({:.0} terms/s)",
        ingest,
        roots.len() as f64 / ingest.as_secs_f64()
    );
    println!("  {stats}");
    println!(
        "  dedup ratio: {:.1}x ({} terms -> {} classes)",
        roots.len() as f64 / store.num_classes() as f64,
        roots.len(),
        store.num_classes()
    );
    assert!(
        stats.is_exact(),
        "every merge must be canonically confirmed"
    );

    // ── Spot-check exactness against ground truth ────────────────────────
    // Pairwise alpha_eq over the full 10k corpus is O(n²·n); sample pairs
    // instead: every sampled pair must agree with the store's verdict.
    let start = Instant::now();
    let mut checked = 0usize;
    for i in (0..roots.len()).step_by(97) {
        let class_i = store.lookup(&arena, roots[i]);
        for j in (0..i).step_by(193) {
            let same_class = class_i == store.lookup(&arena, roots[j]);
            let equivalent = alpha_eq(&arena, roots[i], &arena, roots[j]);
            assert_eq!(same_class, equivalent, "pair ({i},{j}) disagrees");
            checked += 1;
        }
    }
    println!(
        "ground-truth spot check: {checked} sampled pairs agree ({:.2?})",
        start.elapsed()
    );

    // ── Classes up close ─────────────────────────────────────────────────
    let mut classes = store.classes().collect::<Vec<_>>();
    classes.sort_by_key(|&c| std::cmp::Reverse(store.members(c)));
    println!("\nbiggest classes:");
    for &class in classes.iter().take(3) {
        let text = store.canonical_text(class);
        let preview: String = text.chars().take(48).collect();
        println!(
            "  {:?}: {} members, {} nodes, canonical form {}{}",
            class,
            store.members(class),
            store.node_count(class),
            preview,
            if text.len() > 48 { "…" } else { "" },
        );
    }

    // ── Cross-corpus sharing ─────────────────────────────────────────────
    let sample: Vec<NodeId> = roots.iter().copied().step_by(40).collect();
    let dag = store.shared_dag_size(&arena, &sample);
    let trees: usize = sample.iter().map(|&r| arena.subtree_size(r)).sum();
    println!(
        "\nshared-DAG size of a {}-term sample: {} nodes vs {} as trees ({:.1}x smaller)",
        sample.len(),
        dag,
        trees,
        trees as f64 / dag as f64
    );

    let cse_store: AlphaStore<u64> = AlphaStore::default();
    let result = store_backed_cse(&cse_store, &arena, &sample, CseConfig::default());
    println!(
        "store-backed CSE over the sample: {} whole-term duplicates dropped, \
         {} shared lets hoisted, {} -> {} nodes",
        result.duplicates_dropped,
        result.forest.shared.len(),
        result.forest.nodes_before,
        result.forest.nodes_after,
    );
}
