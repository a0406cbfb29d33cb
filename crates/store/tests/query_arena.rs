//! Probes issued from a long-lived query arena — one that has interned
//! many symbols the probes never use — answer exactly as the same
//! patterns probed from fresh arenas, at both granularities, and a
//! `lookup` pays name hashing only for the probe's own variables.
//!
//! The store serves single calls from a pool of warm preparers, so one
//! preparer hops from arena to arena. The second test interleaves arenas
//! whose symbol indices name different strings and checks every answer
//! against a preparer built fresh for the call.

use alpha_store::{AlphaStore, ClassId, Granularity, Preparer, POOLED_PREPARER_MAX_PAGES};
use lambda_lang::arena::{ExprArena, ExprNode, NodeId};
use lambda_lang::debruijn::db_print;
use lambda_lang::symbol::Symbol;
use lambda_lang::uniquify::uniquify_into;
use lambda_lang::visit::preorder;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::{HashMap, HashSet};

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

/// Two arenas holding the corpus's names in opposite interning orders, so
/// one symbol index names different strings in each.
fn mirrored_arenas(corpus: &ExprArena) -> (ExprArena, ExprArena) {
    let names: Vec<String> = (0..corpus.interner().len() as u32)
        .map(|i| corpus.name(Symbol::from_index(i)).to_string())
        .collect();
    let mut forward = ExprArena::new();
    let mut backward = ExprArena::new();
    for name in &names {
        forward.intern(name);
    }
    for name in names.iter().rev() {
        backward.intern(name);
    }
    (forward, backward)
}

/// What a freshly built preparer makes of `root`: its hash and the text
/// of its canonical form.
fn fresh_reference(store: &AlphaStore<u64>, arena: &ExprArena, root: NodeId) -> (u64, String) {
    let (hash, canon, canon_root) =
        Preparer::new(arena, store.scheme()).hash_and_canon(arena, root);
    (hash, db_print(&canon, canon_root))
}

/// One arena's patterns with the answers a fresh preparer implies:
/// `(pattern, expected lookup, expected contains, hash)`.
type Expected = Vec<(NodeId, Option<ClassId>, Option<ClassId>, u64)>;

fn expected(
    store: &AlphaStore<u64>,
    arena: &ExprArena,
    patterns: &[NodeId],
    roots_by_text: &HashMap<String, ClassId>,
    subs_by_text: &HashMap<String, ClassId>,
) -> Expected {
    patterns
        .iter()
        .map(|&p| {
            let (hash, text) = fresh_reference(store, arena, p);
            (
                p,
                roots_by_text.get(&text).copied(),
                subs_by_text.get(&text).copied(),
                hash,
            )
        })
        .collect()
}

#[test]
fn pooled_preparers_answer_interleaved_arenas_like_fresh_ones() {
    let mut corpus = ExprArena::new();
    let roots: Vec<NodeId> = (0..24).map(|i| term(&mut corpus, 0x5A17, i)).collect();
    let (mut forward, mut backward) = mirrored_arenas(&corpus);
    assert_ne!(
        forward.name(Symbol::from_index(0)),
        backward.name(Symbol::from_index(0))
    );
    let forward_patterns = patterns(&mut forward, &corpus, &roots);
    let backward_patterns = patterns(&mut backward, &corpus, &roots);

    let store: AlphaStore<u64> = AlphaStore::builder().subexpressions(1).build();
    let outcomes = store.insert_batch(&corpus, &roots);
    let roots_by_text: HashMap<String, ClassId> = outcomes
        .iter()
        .map(|o| (store.canonical_text(o.class), o.class))
        .collect();
    let subs_by_text: HashMap<String, ClassId> = outcomes
        .iter()
        .flat_map(|o| store.subterm_classes(o.term))
        .map(|c| (store.canonical_text(c), c))
        .collect();
    let arenas = [
        (
            &forward,
            expected(
                &store,
                &forward,
                &forward_patterns,
                &roots_by_text,
                &subs_by_text,
            ),
        ),
        (
            &backward,
            expected(
                &store,
                &backward,
                &backward_patterns,
                &roots_by_text,
                &subs_by_text,
            ),
        ),
    ];
    for (_, want) in &arenas {
        let hits = want.iter().filter(|w| w.1.is_some()).count();
        assert!(
            hits >= roots.len() && hits < want.len(),
            "{hits} lookup hits"
        );
    }

    // Two threads, each alternating arenas, one store: lookup, contains,
    // contains_batch, and re-inserts of patterns already present as roots.
    std::thread::scope(|scope| {
        for thread in 0..2usize {
            let store = &store;
            let arenas = &arenas;
            scope.spawn(move || {
                for round in 0..3 {
                    for k in 0..arenas[0].1.len() {
                        let (arena, want) = &arenas[(k + thread + round) % 2];
                        let (p, lookup, contains, hash) = want[k];
                        assert_eq!(store.lookup(arena, p), lookup, "lookup of pattern {k}");
                        assert_eq!(
                            store.contains(arena, p),
                            contains,
                            "contains of pattern {k}"
                        );
                        if let Some(class) = lookup {
                            assert_eq!(store.hash_of(class), hash);
                            let outcome = store.insert(arena, p);
                            assert!(!outcome.fresh, "pattern {k} is already a root");
                            assert_eq!(outcome.class, class);
                        }
                        if k % 8 == 7 {
                            let chunk = &want[k - 7..=k];
                            let ps: Vec<NodeId> = chunk.iter().map(|w| w.0).collect();
                            let got = store.contains_batch(arena, &ps);
                            let exp: Vec<Option<ClassId>> = chunk.iter().map(|w| w.2).collect();
                            assert_eq!(got, exp, "contains_batch ending at pattern {k}");
                        }
                    }
                }
            });
        }
    });
    assert!(store.stats().is_exact());

    // One thread again, so the counter delta is this lookup's alone: a
    // pooled preparer still hashes each of the pattern's names once.
    for k in 0..arenas[0].1.len() {
        for (arena, want) in &arenas {
            let p = want[k].0;
            let before = name_cache_misses(&store);
            assert_eq!(store.lookup(arena, p), want[k].1);
            assert_eq!(
                name_cache_misses(&store) - before,
                distinct_symbols(arena, p),
                "pattern {k}: misses after a switch of arenas"
            );
        }
    }

    // A 200k-symbol arena: a small probe keeps its preparer warm; a probe
    // whose names span more pages than the bound has its preparer dropped.
    let mut huge = ExprArena::new();
    let syms: Vec<Symbol> = (0..200_000)
        .map(|i| huge.intern(&format!("h{i}")))
        .collect();
    let small = {
        let f = huge.var(syms[199_999]);
        let x = huge.var(syms[7]);
        huge.app(f, x)
    };
    let spread = {
        let mut e = huge.var(syms[0]);
        for page in 1..(POOLED_PREPARER_MAX_PAGES + 8) {
            let v = huge.var(syms[page * 256]);
            e = huge.app(e, v);
        }
        e
    };
    // How many preparers the two-thread phase left idle depends on how
    // its calls overlapped, so each probe is checked against the pool as
    // it found it: a call borrows an idle preparer (or makes one when
    // none is idle) and gives it back unless it outgrew the bounds.
    for (probe, kept) in [(small, true), (spread, false), (small, true)] {
        let idle = store.idle_preparer_pages().len();
        let before = name_cache_misses(&store);
        assert_eq!(store.lookup(&huge, probe), None);
        assert_eq!(
            name_cache_misses(&store) - before,
            distinct_symbols(&huge, probe)
        );
        let pages = store.idle_preparer_pages();
        let expected = if kept {
            idle.max(1)
        } else {
            idle.saturating_sub(1)
        };
        assert_eq!(
            pages.len(),
            expected,
            "single calls return their preparer unless it outgrew the bounds"
        );
        assert!(
            pages.iter().all(|&p| p <= POOLED_PREPARER_MAX_PAGES),
            "pooled name-cache pages {pages:?} exceed the bound"
        );
    }
    // A term past the node bound leaves scratch sized to it: its
    // preparer is dropped, not pooled.
    let long = {
        let f = huge.var(syms[1]);
        let mut e = f;
        for _ in 0..40_000 {
            let x = huge.var(syms[2]);
            e = huge.app(e, x);
        }
        e
    };
    // The last `small` probe left at least one preparer idle.
    let idle = store.idle_preparer_pages().len();
    assert_eq!(store.lookup(&huge, long), None);
    assert_eq!(store.idle_preparer_pages().len(), idle - 1);
    // The preparers that served the huge arena answer the small ones.
    for (arena, want) in &arenas {
        for &(p, lookup, contains, _) in want {
            assert_eq!(store.lookup(arena, p), lookup);
            assert_eq!(store.contains(arena, p), contains);
        }
    }
}
