//! Measures the raw hashing hot path in **nodes per second** — the number
//! that tracks the perf trajectory of the paper's O(n (log n)²) pass from
//! PR to PR — and optionally saves it as JSON.
//!
//! ```text
//! cargo run --release --bin hash_throughput -- \
//!     --terms 10000 --reps 3 --save-json BENCH_hash.json
//! ```
//!
//! Three stages of the pipeline are timed over one [`store_corpus`]:
//!
//! * **hash_expr** — one-shot [`hash_expr`] per term: a fresh summariser
//!   every time, the cost an occasional caller pays.
//! * **batch hash** — one [`HashedSummariser`] reused across all terms:
//!   name-hash cache, traversal scratch and map pool warm; the cost the
//!   store's batch ingest pays per term.
//! * **ingest** — full single-threaded [`AlphaStore::insert_batch`]
//!   (hashing + canonicalization + dedup), for the end-to-end rate.
//!
//! All numbers are single-threaded; the machine's `available_parallelism`
//! is recorded so reports from single-core containers are interpretable.

use alpha_hash::combine::HashScheme;
use alpha_hash::hashed::{hash_expr, HashedSummariser};
use alpha_hash_bench::{best_of, format_ms, store_corpus, Args};
use alpha_store::AlphaStore;
use lambda_lang::arena::ExprArena;

fn main() {
    let args = Args::parse();
    let terms = args.get_usize("terms", 10_000);
    let reps = args.get_usize("reps", 3);
    let shards = args.get_usize("shards", 8);
    let seed_pool = args.get_usize("seed-pool", 997) as u64;
    let json_path = args.get("save-json", "");
    for (flag, value) in [
        ("terms", terms),
        ("reps", reps),
        ("seed-pool", seed_pool as usize),
    ] {
        if value == 0 {
            eprintln!("error: --{flag} must be at least 1");
            std::process::exit(2);
        }
    }

    let mut arena = ExprArena::new();
    let roots = store_corpus(&mut arena, terms, seed_pool);
    let corpus_nodes: usize = roots.iter().map(|&r| arena.subtree_size(r)).sum();
    let scheme: HashScheme<u64> = HashScheme::new(0x5EED);
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());

    println!("hash_throughput: {terms} terms / {corpus_nodes} nodes, best of {reps}");
    println!("  machine parallelism: {cores}");

    // One-shot hashing: fresh summariser per term.
    let one_shot = best_of(reps, || {
        let mut acc = 0u64;
        for &root in &roots {
            acc ^= hash_expr(&arena, root, &scheme);
        }
        std::hint::black_box(acc);
    });

    // Batch hashing: one summariser reused across the corpus.
    let batch = best_of(reps, || {
        let mut summariser = HashedSummariser::new(&arena, &scheme);
        let mut acc = 0u64;
        for &root in &roots {
            acc ^= summariser.summarise(&arena, root).hash(&scheme);
        }
        std::hint::black_box(acc);
    });

    // End-to-end single-threaded store ingest.
    let ingest = best_of(reps, || {
        let store = AlphaStore::builder().scheme(scheme).shards(shards).build();
        store.insert_batch(&arena, &roots);
        std::hint::black_box(store.num_classes());
    });

    let node_rate = |secs: f64| corpus_nodes as f64 / secs;
    let term_rate = |secs: f64| terms as f64 / secs;
    println!(
        "  hash_expr (one-shot) : {:>10} ({:>12.0} nodes/s)",
        format_ms(one_shot),
        node_rate(one_shot)
    );
    println!(
        "  batch hash (reused)  : {:>10} ({:>12.0} nodes/s)",
        format_ms(batch),
        node_rate(batch)
    );
    println!(
        "  store ingest 1thread : {:>10} ({:>12.0} nodes/s, {:>10.0} terms/s)",
        format_ms(ingest),
        node_rate(ingest),
        term_rate(ingest)
    );

    if !json_path.is_empty() {
        let json = format!(
            concat!(
                "{{\n",
                "  \"bench\": \"hash_throughput\",\n",
                "  \"terms\": {terms},\n",
                "  \"corpus_nodes\": {nodes},\n",
                "  \"reps\": {reps},\n",
                "  \"available_parallelism\": {cores},\n",
                "  \"hash_expr_secs\": {one_shot:.6},\n",
                "  \"hash_expr_nodes_per_sec\": {one_shot_rate:.1},\n",
                "  \"batch_hash_secs\": {batch:.6},\n",
                "  \"batch_hash_nodes_per_sec\": {batch_rate:.1},\n",
                "  \"ingest_secs\": {ingest:.6},\n",
                "  \"ingest_nodes_per_sec\": {ingest_rate:.1},\n",
                "  \"ingest_terms_per_sec\": {ingest_term_rate:.1}\n",
                "}}\n",
            ),
            terms = terms,
            nodes = corpus_nodes,
            reps = reps,
            cores = cores,
            one_shot = one_shot,
            one_shot_rate = node_rate(one_shot),
            batch = batch,
            batch_rate = node_rate(batch),
            ingest = ingest,
            ingest_rate = node_rate(ingest),
            ingest_term_rate = term_rate(ingest),
        );
        std::fs::write(&json_path, json)
            .unwrap_or_else(|e| panic!("cannot write {json_path}: {e}"));
        println!("  wrote {json_path}");
    }
}
