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
//! The negative side is pinned too: over random pairs of raw terms and
//! the classic traps (a free name against a bound one of the same name, a
//! `Let` rhs that names its own binder, a free name an inner binder
//! shadows), `lookup` and `contains` find a class exactly when
//! `alpha_eq` says the probe is equivalent to an ingested term (or, for
//! `contains` in a `Subexpressions` store, to one of its subterms).
//!
//! A durable `Subexpressions` store logs each term as ingested, names
//! and shadowing included, and its reopen re-prepares what it logged: a
//! subterm's class depends on the binder names above it (`\x. x + 1` and
//! `\y. y + 1` share a class, their bodies `x + 1` and `y + 1` do not),
//! and only the named term keeps them. The second test reopens such a
//! store from its WAL alone and compares it with a fresh in-memory build.

use alpha_hash::combine::HashScheme;
use alpha_hash::hashed::hash_expr;
use alpha_store::{AlphaStore, ClassId, Granularity, StoreStats};
use lambda_lang::alpha::alpha_eq;
use lambda_lang::arena::{ExprArena, NodeId};
use lambda_lang::literal::Literal;
use lambda_lang::uniquify::{check_unique_binders, uniquify_into};
use lambda_lang::visit::postorder;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, HashMap, HashSet};

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

/// Every term a store of `granularity` indexes when it ingests `terms`,
/// each with the class `classes` gives it (`None` for a proper subterm),
/// grouped by node count; syntactically equal subterms are listed once.
fn indexed_by_size(
    arena: &ExprArena,
    granularity: Granularity,
    terms: &[(NodeId, ClassId)],
) -> HashMap<usize, Vec<(NodeId, Option<ClassId>)>> {
    let mut by_size: HashMap<usize, Vec<(NodeId, Option<ClassId>)>> = HashMap::new();
    let mut seen: HashSet<String> = HashSet::new();
    for &(root, class) in terms {
        by_size
            .entry(arena.subtree_size(root))
            .or_default()
            .push((root, Some(class)));
        if granularity.indexes_subexpressions() {
            for n in postorder(arena, root) {
                if n != root && seen.insert(lambda_lang::print::print(arena, n)) {
                    by_size
                        .entry(arena.subtree_size(n))
                        .or_default()
                        .push((n, None));
                }
            }
        }
    }
    by_size
}

#[test]
fn lookup_and_contains_find_a_class_exactly_when_alpha_eq_holds() {
    let mut arena = ExprArena::new();
    let mut pairs: Vec<(NodeId, NodeId)> = [
        // A free name against a bound one of the same name.
        (r"\a. b", r"\b. b"),
        (r"\a. a", r"\b. a"),
        // The rhs is outside the binder.
        ("let a = a in a", "let b = b in b"),
        ("let a = a in a", "let b = a in b"),
        ("let a = b in a", "let b = b in b"),
        // A free name that an inner binder shadows.
        (r"a (\a. a)", r"a (\b. b)"),
        (r"a (\a. a)", r"b (\a. a)"),
        (r"a (\a. a)", r"a (\b. a)"),
        (r"\a. \a. a", r"\a. \b. a"),
        (r"\a. \a. a", r"\b. \a. a"),
    ]
    .iter()
    .flat_map(|(s1, s2)| {
        let t1 = lambda_lang::parse::parse(&mut arena, s1).unwrap();
        let t2 = lambda_lang::parse::parse(&mut arena, s2).unwrap();
        [(t1, t2), (t2, t1)]
    })
    .collect();
    let mut rng = StdRng::seed_from_u64(0x5AD2);
    for i in 0..8000 {
        // Every third pair is a raw term and its `uniquify`d copy.
        let mut scratch = ExprArena::new();
        let generated = raw_term(&mut scratch, &mut rng, 3);
        let raw = arena.import_subtree(&scratch, generated);
        let other = if i % 3 == 0 {
            uniquify_into(&scratch, generated, &mut arena)
        } else {
            raw_term(&mut arena, &mut rng, 3)
        };
        pairs.push((raw, other));
    }
    for granularity in [
        Granularity::Roots,
        Granularity::Subexpressions { min_nodes: 1 },
    ] {
        // 16-bit hashes: inequivalent terms of one size often share a
        // bucket, so the confirmation decides, not the hash.
        let store: AlphaStore<u16> = AlphaStore::builder()
            .seed(0x5AD2)
            .shards(4)
            .granularity(granularity)
            .build();
        let ingested: Vec<(NodeId, ClassId)> = pairs
            .iter()
            .map(|&(t, _)| (t, store.insert(&arena, t).class))
            .collect();
        assert!(store.stats().is_exact());
        assert!(
            store.stats().hash_collisions > 40,
            "{granularity:?}: {} collisions",
            store.stats().hash_collisions
        );
        let indexed = indexed_by_size(&arena, granularity, &ingested);
        let mut verdicts = [0usize; 2];
        for &(_, probe) in &pairs {
            let same_size = &indexed[&arena.subtree_size(probe)];
            let mut equivalent = same_size
                .iter()
                .filter(|&&(n, _)| alpha_eq(&arena, n, &arena, probe));
            let first = equivalent.next();
            let class = first
                .and_then(|&(_, class)| class)
                .or_else(|| equivalent.find_map(|&(_, class)| class));
            let what = || {
                format!(
                    "{granularity:?}: {}",
                    lambda_lang::print::print(&arena, probe)
                )
            };
            assert_eq!(store.lookup(&arena, probe), class, "lookup {}", what());
            assert_eq!(
                store.contains(&arena, probe).is_some(),
                first.is_some(),
                "contains {}",
                what()
            );
            verdicts[usize::from(class.is_some())] += 1;
        }
        assert!(
            verdicts[0] > 1000 && verdicts[1] > 3000,
            "{granularity:?}: {verdicts:?}"
        );
    }
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
