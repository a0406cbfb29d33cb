//! The subexpression-granularity store in action: build an
//! [`AlphaStore`] in `Subexpressions` mode, ingest a generated corpus,
//! and answer **containment queries modulo alpha** — "has any ingested
//! term ever contained this pattern?" — from the index that one fused
//! O(n (log n)²) pass per term built as a side effect.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example containment_search
//! ```

use hash_modulo_alpha::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

const TERMS: usize = 2_000;
const MIN_NODES: usize = 3;

fn main() {
    // ── Build: granularity is part of the store's configuration ─────────
    let store: AlphaStore<u64> = AlphaStore::builder()
        .seed(0x5EED)
        .shards(8)
        .subexpressions(MIN_NODES)
        .build();
    println!("store granularity: {:?}", store.granularity());

    // ── Ingest a corpus; every subexpression gets indexed ───────────────
    let mut arena = ExprArena::new();
    let mut roots = Vec::with_capacity(TERMS);
    for i in 0..TERMS as u64 {
        let mut rng = StdRng::seed_from_u64(i % 401);
        let size = 12 + (i as usize % 4) * 12;
        roots.push(hash_modulo_alpha::gen::balanced(&mut arena, size, &mut rng));
    }
    let corpus_nodes: usize = roots.iter().map(|&r| arena.subtree_size(r)).sum();

    let start = Instant::now();
    let outcomes = store.insert_batch(&arena, &roots);
    let ingest = start.elapsed();
    let stats = store.stats();
    println!(
        "ingested {} terms / {} nodes in {:.2?} ({:.0} terms/s)",
        roots.len(),
        corpus_nodes,
        ingest,
        roots.len() as f64 / ingest.as_secs_f64()
    );
    println!("  {stats}");
    assert!(
        stats.is_exact(),
        "every merge must be canonically confirmed"
    );
    let indexed: u64 = outcomes.iter().map(|o| o.subs.indexed).sum();
    let merged: u64 = outcomes.iter().map(|o| o.subs.merged).sum();
    println!(
        "  per-term summaries agree: {indexed} subterms indexed, {merged} merged into existing classes"
    );

    // ── Containment queries ─────────────────────────────────────────────
    // Positive: an alpha-renamed copy of a subexpression of term 0 must be
    // found, even though it was never ingested as a term of its own.
    let sample_sub = lambda_lang::visit::postorder(&arena, roots[0])
        .into_iter()
        .find(|&n| {
            let size = arena.subtree_size(n);
            size >= MIN_NODES && n != roots[0]
        })
        .expect("term 0 has an indexable proper subexpression");
    let mut query_arena = ExprArena::new();
    let renamed = lambda_lang::uniquify::uniquify_into(&arena, sample_sub, &mut query_arena);
    let start = Instant::now();
    let hit = store.contains(&query_arena, renamed);
    println!(
        "\ncontains(alpha-renamed subterm of term 0) -> {:?} ({:.2?})",
        hit,
        start.elapsed()
    );
    let class = hit.expect("subexpression of an ingested term must be contained");
    println!(
        "  class {:?}: {} occurrences across the corpus, {} whole-term members, canonical form {}",
        class,
        store.occurrences(class),
        store.members(class),
        store.canonical_text(class),
    );
    assert!(store.occurrences(class) >= 1);

    // Negative: a fresh pattern with a free variable no generator emits.
    let miss = parse(&mut query_arena, r"\q. q + only_here").unwrap();
    assert_eq!(store.contains(&query_arena, miss), None);
    println!("contains(never-seen pattern) -> None");

    // ── Per-term subexpression classes ──────────────────────────────────
    let term0 = outcomes[0].term;
    let classes: Vec<ClassId> = store.subterm_classes(term0).collect();
    println!(
        "\nterm {:?} spans {} distinct subexpression classes (root class included: {})",
        term0,
        classes.len(),
        classes.contains(&outcomes[0].class),
    );
    assert!(classes.contains(&outcomes[0].class));

    // ── The most-shared subexpressions ──────────────────────────────────
    let mut by_occurrences = store.classes().collect::<Vec<_>>();
    by_occurrences.sort_by_key(|&c| std::cmp::Reverse(store.occurrences(c)));
    println!("\nmost-contained classes:");
    for &class in by_occurrences.iter().take(3) {
        let text = store.canonical_text(class);
        let preview: String = text.chars().take(48).collect();
        println!(
            "  {:?}: {} occurrences, {} nodes, {}{}",
            class,
            store.occurrences(class),
            store.node_count(class),
            preview,
            if text.len() > 48 { "…" } else { "" },
        );
    }
}
