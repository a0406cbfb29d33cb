//! Integration test for the alpha-store subsystem: a generated corpus is
//! ingested concurrently and the resulting partition is checked — exactly —
//! against pairwise ground-truth alpha-equivalence.
//!
//! This is a scaled-down (fast) version of the `corpus_dedup` example's
//! 10k-term run: the example demonstrates, this test verifies.

use alpha_hash_bench::{parallel_ingest, store_corpus};
use hash_modulo_alpha::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;

/// Ground-truth partition of the corpus roots via pairwise `alpha_eq`
/// against one representative per class (size-bucketed, like
/// `ground_truth_classes`).
fn ground_truth_corpus_partition(arena: &ExprArena, roots: &[NodeId]) -> Vec<Vec<usize>> {
    let mut classes: Vec<(usize, NodeId, Vec<usize>)> = Vec::new();
    for (i, &r) in roots.iter().enumerate() {
        let size = arena.subtree_size(r);
        match classes
            .iter_mut()
            .find(|(s, rep, _)| *s == size && alpha_eq(arena, *rep, arena, r))
        {
            Some((_, _, members)) => members.push(i),
            None => classes.push((size, r, vec![i])),
        }
    }
    let mut out: Vec<Vec<usize>> = classes.into_iter().map(|(_, _, m)| m).collect();
    out.sort();
    out
}

#[test]
fn concurrent_corpus_dedup_is_exact() {
    let mut arena = ExprArena::new();
    // Seed pool of 41 over 900 terms: heavy alpha-duplication, with half
    // the terms alpha-renamed (see `store_corpus`).
    let roots = store_corpus(&mut arena, 900, 41);

    let store: AlphaStore<u64> = AlphaStore::builder().seed(2024).shards(8).build();
    parallel_ingest(&store, &arena, &roots, 8);
    assert_eq!(store.num_terms(), roots.len());

    // Store partition of the corpus…
    let mut by_class: HashMap<ClassId, Vec<usize>> = HashMap::new();
    for (i, &r) in roots.iter().enumerate() {
        let class = store.lookup(&arena, r).expect("ingested term is found");
        by_class.entry(class).or_default().push(i);
    }
    let mut store_partition: Vec<Vec<usize>> = by_class.into_values().collect();
    store_partition.sort();

    // …must equal ground truth exactly.
    let truth = ground_truth_corpus_partition(&arena, &roots);
    assert_eq!(store_partition, truth);
    assert_eq!(store.num_classes(), truth.len());
    assert!(
        truth.len() < roots.len(),
        "corpus was built to contain alpha-duplicates"
    );

    // The store audit trail: every merge confirmed, nothing probabilistic.
    let stats = store.stats();
    assert!(stats.is_exact(), "{stats}");
    assert_eq!(stats.terms_ingested, roots.len() as u64);
    assert_eq!(
        stats.classes_created + stats.merges_confirmed,
        stats.terms_ingested
    );
}

#[test]
fn subexpression_mode_stats_are_exact_and_consistent() {
    const MIN_NODES: usize = 3;
    let mut arena = ExprArena::new();
    let roots = store_corpus(&mut arena, 300, 23);

    let store: AlphaStore<u64> = AlphaStore::builder()
        .seed(0x5EED)
        .shards(8)
        .subexpressions(MIN_NODES)
        .build();
    let outcomes = store.insert_batch(&arena, &roots);
    let stats = store.stats();

    // Exactness first: the whole point of confirmed merges — at both
    // granularities — is that this never moves off zero.
    assert!(stats.is_exact(), "{stats}");
    assert_eq!(stats.unconfirmed_merges, 0);

    // Root-side counters keep their classic identities.
    assert_eq!(stats.terms_ingested, roots.len() as u64);
    assert_eq!(
        stats.classes_created,
        store.num_classes() as u64,
        "every class on record was created by exactly one insert entry"
    );

    // Subexpression counters reconcile with the per-insert summaries…
    let indexed: u64 = outcomes.iter().map(|o| o.subs.indexed).sum();
    let merged: u64 = outcomes.iter().map(|o| o.subs.merged).sum();
    let skipped: u64 = outcomes.iter().map(|o| o.subs.skipped_min_nodes).sum();
    assert_eq!(stats.subterms_indexed, indexed);
    assert_eq!(stats.subterm_merges_confirmed, merged);
    assert_eq!(stats.subterms_skipped_min_nodes, skipped);
    assert!(indexed > 0 && skipped > 0, "corpus exercises the floor");

    // …and with the corpus shape: every proper subexpression was either
    // indexed or skipped by the floor, never silently dropped.
    let proper_subterms: u64 = roots
        .iter()
        .map(|&r| arena.subtree_size(r) as u64 - 1)
        .sum();
    assert_eq!(indexed + skipped, proper_subterms);

    // Membership/occurrence bookkeeping balances over all classes.
    let classes: Vec<ClassId> = store.classes().collect();
    let members: u64 = classes.iter().map(|&c| store.members(c)).sum();
    let occurrences: u64 = classes.iter().map(|&c| store.occurrences(c)).sum();
    assert_eq!(members, stats.terms_ingested);
    assert_eq!(occurrences, stats.terms_ingested + stats.subterms_indexed);

    // Every corpus term, probed as a pattern, is contained in its own
    // class.
    let found = store.contains_batch(&arena, &roots);
    for (outcome, hit) in outcomes.iter().zip(found) {
        assert_eq!(hit, Some(outcome.class));
    }
}

/// Class partition of `roots` in a fresh store with the given lock-stripe
/// count and granularity, ingested from `threads` threads.
fn partition_with(
    arena: &ExprArena,
    roots: &[NodeId],
    shards: usize,
    threads: usize,
    granularity: Granularity,
) -> Vec<Vec<usize>> {
    let store: AlphaStore<u64> = AlphaStore::builder()
        .seed(0x5EED)
        .shards(shards)
        .granularity(granularity)
        .build();
    parallel_ingest(&store, arena, roots, threads);
    let stats = store.stats();
    assert!(
        stats.is_exact(),
        "shards {shards}, threads {threads}, {granularity:?}: {stats}"
    );
    let mut by_class: HashMap<ClassId, Vec<usize>> = HashMap::new();
    for (i, &r) in roots.iter().enumerate() {
        let class = store.lookup(arena, r).expect("ingested term is found");
        by_class.entry(class).or_default().push(i);
    }
    let mut partition: Vec<Vec<usize>> = by_class.into_values().collect();
    partition.sort();
    partition
}

#[test]
fn partition_is_independent_of_shards_threads_and_granularity() {
    // Closed terms with heavy alpha-duplication, and alpha-paired open
    // spines whose merges confirm through wide variable maps.
    let mut closed = ExprArena::new();
    let closed_roots = store_corpus(&mut closed, 300, 41);
    let mut wide = ExprArena::new();
    let mut wide_roots = Vec::new();
    for i in 0..3u64 {
        let mut scratch = ExprArena::new();
        let mut rng = StdRng::seed_from_u64(0x51DE ^ i);
        let spine = hash_modulo_alpha::gen::wide_open_spine(&mut scratch, 1_000, 128, &mut rng);
        wide_roots.push(wide.import_subtree(&scratch, spine));
        wide_roots.push(hash_modulo_alpha::lang::uniquify::uniquify_into(
            &scratch, spine, &mut wide,
        ));
    }
    for (arena, roots) in [(&closed, &closed_roots), (&wide, &wide_roots)] {
        let expected = partition_with(arena, roots, 1, 1, Granularity::Roots);
        assert!(expected.len() < roots.len(), "the corpus has duplicates");
        for granularity in [
            Granularity::Roots,
            Granularity::Subexpressions { min_nodes: 3 },
        ] {
            for shards in [1, 4, 16] {
                for threads in [1, 2] {
                    assert_eq!(
                        partition_with(arena, roots, shards, threads, granularity),
                        expected,
                        "shards {shards}, threads {threads}, {granularity:?}"
                    );
                }
            }
        }
    }
}

#[test]
fn store_backed_cse_over_a_corpus_shrinks_it() {
    let mut arena = ExprArena::new();
    let mut roots = Vec::new();
    for i in 0..30u64 {
        let mut rng = StdRng::seed_from_u64(i % 5);
        roots.push(hash_modulo_alpha::gen::arithmetic(&mut arena, 40, &mut rng));
    }

    let store: AlphaStore<u64> = AlphaStore::default();
    let result = store_backed_cse(&store, &arena, &roots, CseConfig::default());
    assert!(
        result.duplicates_dropped >= 24,
        "seed pool of 5 over 30 terms"
    );
    assert!(result.forest.nodes_after <= result.forest.nodes_before);

    // Representative extraction works for every class created.
    for class in store.classes() {
        let mut dst = ExprArena::new();
        let rep = store.representative_into(class, &mut dst);
        assert_eq!(dst.subtree_size(rep), store.node_count(class));
    }
}

#[test]
fn corpus_dag_sharing_beats_per_term_trees() {
    let mut arena = ExprArena::new();
    let mut roots = Vec::new();
    for i in 0..40u64 {
        let mut rng = StdRng::seed_from_u64(i % 6);
        roots.push(hash_modulo_alpha::gen::balanced(&mut arena, 50, &mut rng));
    }
    let scheme: HashScheme<u64> = HashScheme::new(9);
    let dag = corpus_shared_dag_size(&arena, &roots, &scheme);
    let trees: usize = roots.iter().map(|&r| arena.subtree_size(r)).sum();
    // 6 distinct seeds over 40 terms: at least the duplicate terms collapse.
    assert!(dag * 4 < trees, "dag={dag} trees={trees}");
}
