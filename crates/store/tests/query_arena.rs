//! Probes issued from a long-lived query arena — one that has interned
//! many symbols the probes never use — answer exactly as the same
//! patterns probed from fresh arenas, at both granularities, and a
//! `lookup` pays name hashing only for the probe's own variables.

use alpha_store::{AlphaStore, ClassId, Granularity};
use lambda_lang::arena::{ExprArena, ExprNode, NodeId};
use lambda_lang::uniquify::uniquify_into;
use lambda_lang::visit::preorder;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashSet;

/// Symbols interned into the query arena before any pattern.
const UNRELATED_SYMBOLS: usize = 100_000;

/// A generated term with distinct binders, built into `arena`.
fn term(arena: &mut ExprArena, seed: u64, i: usize) -> NodeId {
    let mut rng = StdRng::seed_from_u64(seed ^ i as u64);
    let size = 4 + (i % 4) * 8;
    let mut scratch = ExprArena::new();
    let root = match i % 3 {
        0 => expr_gen::balanced(&mut scratch, size, &mut rng),
        1 => expr_gen::unbalanced(&mut scratch, size, &mut rng),
        _ => expr_gen::arithmetic(&mut scratch, size.max(8), &mut rng),
    };
    uniquify_into(&scratch, root, arena)
}

/// Probe patterns in `arena`: every ingested term (renamed apart), one
/// child of each ingested term, and terms the store never saw.
fn patterns(arena: &mut ExprArena, corpus: &ExprArena, roots: &[NodeId]) -> Vec<NodeId> {
    let mut out = Vec::new();
    for &r in roots {
        out.push(uniquify_into(corpus, r, arena));
        if let Some(child) = corpus.node(r).children().into_iter().next() {
            out.push(uniquify_into(corpus, child, arena));
        }
    }
    for i in 0..roots.len() {
        out.push(term(arena, 0xAB5E47, i));
    }
    out
}

/// Distinct symbols the hasher resolves in `root`: every variable
/// occurrence and every binder.
fn distinct_symbols(arena: &ExprArena, root: NodeId) -> u64 {
    let mut seen = HashSet::new();
    for n in preorder(arena, root) {
        let node = arena.node(n);
        if let ExprNode::Var(s) = node {
            seen.insert(s);
        }
        seen.extend(node.binder());
    }
    seen.len() as u64
}

fn name_cache_misses(store: &AlphaStore<u64>) -> u64 {
    store
        .obs_report()
        .counter("alpha_store_name_cache_misses")
        .expect("the catalog exports name_cache_misses")
}

#[test]
fn probes_from_a_crowded_query_arena_match_probes_from_fresh_arenas() {
    let mut corpus = ExprArena::new();
    let roots: Vec<NodeId> = (0..24).map(|i| term(&mut corpus, 0x9E7, i)).collect();

    let mut crowded = ExprArena::new();
    for i in 0..UNRELATED_SYMBOLS {
        crowded.intern(&format!("unrelated{i}"));
    }
    let probes = patterns(&mut crowded, &corpus, &roots);
    // Each pattern alone in an arena of its own, and all of them together
    // in one fresh arena for the batch call.
    let alone: Vec<(ExprArena, NodeId)> = probes
        .iter()
        .map(|&p| {
            let mut own = ExprArena::new();
            let root = own.import_subtree(&crowded, p);
            (own, root)
        })
        .collect();
    let mut together = ExprArena::new();
    let together_roots: Vec<NodeId> = probes
        .iter()
        .map(|&p| together.import_subtree(&crowded, p))
        .collect();

    for granularity in [
        Granularity::Roots,
        Granularity::Subexpressions { min_nodes: 1 },
    ] {
        let store: AlphaStore<u64> = AlphaStore::builder().granularity(granularity).build();
        store.insert_batch(&corpus, &roots);

        let mut found = 0;
        for (&p, (own, own_root)) in probes.iter().zip(&alone) {
            let before = name_cache_misses(&store);
            let looked_up = store.lookup(&crowded, p);
            assert_eq!(
                name_cache_misses(&store) - before,
                distinct_symbols(&crowded, p),
                "{granularity:?}: one lookup hashes each of its own names once"
            );
            assert_eq!(looked_up, store.lookup(own, *own_root), "{granularity:?}");
            let contained = store.contains(&crowded, p);
            assert_eq!(contained, store.contains(own, *own_root), "{granularity:?}");
            found += usize::from(contained.is_some());
        }
        let batch: Vec<Option<ClassId>> = store.contains_batch(&crowded, &probes);
        assert_eq!(
            batch,
            store.contains_batch(&together, &together_roots),
            "{granularity:?}"
        );
        // Neither all hits nor all misses: the comparison has teeth.
        assert!(found >= roots.len(), "{granularity:?}: {found} hits");
        assert!(found < probes.len(), "{granularity:?}: every probe hit");
    }
}
