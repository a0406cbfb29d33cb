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

use alpha_hash::combine::HashScheme;
use alpha_hash::hashed::hash_expr;
use alpha_store::{AlphaStore, Granularity};
use lambda_lang::alpha::alpha_eq;
use lambda_lang::arena::{ExprArena, NodeId};
use lambda_lang::literal::Literal;
use lambda_lang::uniquify::{check_unique_binders, uniquify_into};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

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
