//! Shadowed binders need no preprocessing: a raw term whose binders
//! repeat (and shadow each other) hashes, prepares and classifies exactly
//! as its `uniquify`d copy does.
//!
//! The hashing pass removes a binder's occurrences from its body's map at
//! the binder, so an inner binder of the same name has already taken its
//! own; the canon passes scope names the same way. This pins that, over
//! seeded raw terms drawn from three names so that shadowing is common,
//! for `hash_expr` and for the root class in both granularities: insert
//! one form, look up the other.
//!
//! A durable `Subexpressions` store logs each term as ingested, names
//! and shadowing included, and its reopen re-prepares what it logged: a
//! subterm's class depends on the binder names above it (`\x. x + 1` and
//! `\y. y + 1` share a class, their bodies `x + 1` and `y + 1` do not),
//! and only the named term keeps them. The second test reopens such a
//! store from its WAL alone and compares it with a fresh in-memory build.

use alpha_hash::combine::HashScheme;
use alpha_hash::hashed::hash_expr;
use alpha_store::{AlphaStore, Granularity, StoreStats};
use lambda_lang::alpha::alpha_eq;
use lambda_lang::arena::{ExprArena, NodeId};
use lambda_lang::literal::Literal;
use lambda_lang::uniquify::{check_unique_binders, uniquify_into};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;

const NAMES: [&str; 3] = ["a", "b", "c"];

/// A raw term of depth at most `depth` over [`NAMES`]: binders repeat,
/// shadow each other and capture `Let` rhs names freely.
fn raw_term(arena: &mut ExprArena, rng: &mut StdRng, depth: u32) -> NodeId {
    let name = NAMES[rng.random_range(0..NAMES.len())];
    let pick = if depth == 0 {
        rng.random_range(0..2u32)
    } else {
        rng.random_range(0..6u32)
    };
    match pick {
        0 => arena.var_named(name),
        1 => arena.lit(Literal::I64(rng.random_range(0..2i64))),
        2 | 3 => {
            let x = arena.intern(name);
            let body = raw_term(arena, rng, depth - 1);
            arena.lam(x, body)
        }
        4 => {
            let f = raw_term(arena, rng, depth - 1);
            let a = raw_term(arena, rng, depth - 1);
            arena.app(f, a)
        }
        _ => {
            let x = arena.intern(name);
            let rhs = raw_term(arena, rng, depth - 1);
            let body = raw_term(arena, rng, depth - 1);
            arena.let_(x, rhs, body)
        }
    }
}

#[test]
fn raw_and_uniquified_terms_hash_and_classify_alike() {
    let scheme: HashScheme<u64> = HashScheme::new(0x5AD0);
    let stores: Vec<AlphaStore<u64>> = [
        Granularity::Roots,
        Granularity::Subexpressions { min_nodes: 1 },
    ]
    .into_iter()
    .map(|g| AlphaStore::builder().seed(0x5AD0).granularity(g).build())
    .collect();
    let mut rng = StdRng::seed_from_u64(0x5AD0);
    let mut arena = ExprArena::new();
    let mut shadowed = 0;
    for i in 0..4000 {
        let mut scratch = ExprArena::new();
        let generated = raw_term(&mut scratch, &mut rng, 6);
        let raw = arena.import_subtree(&scratch, generated);
        let unique = uniquify_into(&scratch, generated, &mut arena);
        shadowed += usize::from(check_unique_binders(&arena, raw).is_err());
        assert!(alpha_eq(&arena, raw, &arena, unique));
        let printed = lambda_lang::print::print(&arena, raw);
        assert_eq!(
            hash_expr(&arena, raw, &scheme),
            hash_expr(&arena, unique, &scheme),
            "hash of {printed}"
        );
        let (first, second) = if i % 2 == 0 {
            (raw, unique)
        } else {
            (unique, raw)
        };
        for store in &stores {
            let class = store.insert(&arena, first).class;
            assert_eq!(
                store.lookup(&arena, second),
                Some(class),
                "{:?}: {printed}",
                store.granularity()
            );
        }
    }
    assert!(shadowed > 800, "only {shadowed} terms repeat a binder");
}

/// Every class by canonical text, with its hash, members and node count,
/// plus the term count and the ingest statistics.
type Census = (BTreeMap<String, (u64, u64, usize)>, usize, StoreStats);

fn census(store: &AlphaStore<u64>) -> Census {
    let classes = store
        .classes()
        .map(|c| {
            let entry = (store.hash_of(c), store.members(c), store.node_count(c));
            (store.canonical_text(c), entry)
        })
        .collect();
    (classes, store.num_terms(), store.stats())
}

#[test]
fn a_durable_subexpressions_store_replays_shadowed_terms_exactly() {
    let dir = std::env::temp_dir().join(format!("alpha-store-shadowing-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let builder = || {
        AlphaStore::<u64>::builder()
            .seed(0x5AD0)
            .shards(4)
            .subexpressions(1)
    };
    let mut rng = StdRng::seed_from_u64(0x5AD1);
    let mut arena = ExprArena::new();
    let mut roots: Vec<NodeId> = (0..200)
        .map(|_| raw_term(&mut arena, &mut rng, 6))
        .collect();
    for src in [r"\x. x + 1", r"\y. y + 1"] {
        roots.push(lambda_lang::parse::parse(&mut arena, src).unwrap());
    }
    let mut probes = ExprArena::new();
    let [renamed, x_body, y_body] = [r"\z. z + 1", "x + 1", "y + 1"]
        .map(|src| lambda_lang::parse::parse(&mut probes, src).unwrap());

    let fresh = builder().build();
    let durable = builder().open_durable(&dir).unwrap();
    for &root in &roots {
        fresh.insert(&arena, root);
        durable.insert(&arena, root);
    }
    let shared = durable
        .lookup(&probes, renamed)
        .expect("the renamed copy's class");
    drop(durable); // no checkpoint: the reopen replays every record

    let reopened = AlphaStore::<u64>::open(&dir).unwrap();
    assert_eq!(
        reopened.recovery_info().unwrap().replayed_records,
        roots.len() as u64
    );
    assert_eq!(census(&reopened), census(&fresh));
    assert_eq!(reopened.lookup(&probes, renamed), Some(shared));
    let (x, y) = (
        reopened.contains(&probes, x_body),
        reopened.contains(&probes, y_body),
    );
    assert!(
        x.is_some() && y.is_some() && x != y,
        "x + 1 and y + 1: {x:?}, {y:?}"
    );
    drop(reopened);
    std::fs::remove_dir_all(&dir).unwrap();
}
