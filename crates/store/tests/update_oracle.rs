//! Differential oracle proptests for incremental update: a store that
//! ingests a corpus and then applies a sequence of random **valid**
//! rewrites through [`AlphaStore::update`] must be observationally
//! identical to a fresh store that plain-ingests the final corpus — the
//! effective rewritten terms, as returned by
//! [`AlphaStore::preview_rewrite`] *before* each update was applied.
//!
//! Compared surfaces, at u64 and u128 hash widths × `Roots` and
//! `Subexpressions` granularity:
//!
//! * the **partition** of the live terms into classes;
//! * the **live census**: canonical text → (members, occurrences, node
//!   count) over every class with at least one live occurrence (stale
//!   classes an update emptied stay resident at zero, and a fresh build
//!   never creates them — so they are exactly the difference);
//! * `terms_ingested` (updates repoint, they never mint terms) and
//!   **exactness** — zero unconfirmed merges on both sides.
//!
//! `classes_created` / `subterms_indexed` / skip counters are
//! deliberately *not* compared: they are trajectory totals (every
//! intermediate class ever created), not final-state facts.
//!
//! Around the proptests: the capture-avoidance contract (a replacement
//! naming an outer machine binder is a typed refusal that changes
//! nothing) and delta-WAL durability (a crash after updates recovers to
//! the same oracle state through replay).

use alpha_hash::combine::{HashScheme, HashWord};
use alpha_store::{AlphaStore, Granularity, Rewrite, StoreError, TermId};
use lambda_lang::arena::{ExprArena, NodeId};
use lambda_lang::uniquify::uniquify_into;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// A fresh temp directory, removed on drop (even when a case fails).
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        use std::sync::atomic::{AtomicU64, Ordering};
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let path = std::env::temp_dir().join(format!(
            "alpha-store-update-oracle-{}-{}-{}",
            std::process::id(),
            tag,
            COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        TempDir(path)
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A varied corpus with alpha-duplicates (small seed pool, every other
/// term alpha-renamed).
fn corpus(arena: &mut ExprArena, seed: u64, count: usize) -> Vec<NodeId> {
    let mut roots = Vec::with_capacity(count);
    for i in 0..count {
        let mut rng = StdRng::seed_from_u64(seed ^ (i as u64 % 5));
        let size = 4 + (i % 4) * 8;
        let mut scratch = ExprArena::new();
        let root = match i % 3 {
            0 => expr_gen::balanced(&mut scratch, size, &mut rng),
            1 => expr_gen::unbalanced(&mut scratch, size, &mut rng),
            _ => expr_gen::arithmetic(&mut scratch, size.max(8), &mut rng),
        };
        if i % 2 == 0 {
            roots.push(uniquify_into(&scratch, root, arena));
        } else {
            roots.push(arena.import_subtree(&scratch, root));
        }
    }
    roots
}

/// A small random replacement expression. The generators mint binder
/// names like `b3_17` and the free fallback `free` — never a `%`, so
/// every patch passes the closed-over-machine-names check by
/// construction.
fn random_patch(arena: &mut ExprArena, rng: &mut StdRng) -> NodeId {
    let size = 1 + rng.random_range(0..6usize);
    let mut scratch = ExprArena::new();
    let root = match rng.random_range(0..3u32) {
        0 => expr_gen::balanced(&mut scratch, size, rng),
        1 => expr_gen::unbalanced(&mut scratch, size, rng),
        _ => expr_gen::arithmetic(&mut scratch, 8, rng),
    };
    arena.import_subtree(&scratch, root)
}

/// Every path (root-to-node child-slot sequence) into `root`, the empty
/// path included — the full space of valid rewrite targets.
fn all_paths(arena: &ExprArena, root: NodeId) -> Vec<Vec<u32>> {
    let mut out = Vec::new();
    let mut stack = vec![(root, Vec::new())];
    while let Some((node, path)) = stack.pop() {
        for (slot, child) in arena.node(node).children().into_iter().enumerate() {
            let mut next = path.clone();
            next.push(slot as u32);
            stack.push((child, next));
        }
        out.push(path);
    }
    out
}

/// Canonical text → (members, occurrences, node count) over the classes
/// with at least one live occurrence. Updates leave emptied classes
/// resident at zero; a fresh build has no such residue, so the *live*
/// view is the surface both must agree on.
fn live_census<H: HashWord>(store: &AlphaStore<H>) -> BTreeMap<String, (u64, u64, usize)> {
    let mut census = BTreeMap::new();
    for class in store.classes() {
        if store.occurrences(class) == 0 {
            continue;
        }
        let old = census.insert(
            store.canonical_text(class),
            (
                store.members(class),
                store.occurrences(class),
                store.node_count(class),
            ),
        );
        assert!(old.is_none(), "live classes have unique canon");
    }
    census
}

/// A term's latest effective form: the corpus original, or a preview in
/// its **own fresh arena**. The per-preview arena matters in
/// `Subexpressions` mode: an open subterm referencing an enclosing
/// binder is indexed with that binder's *name* free, and the store
/// rebuilds each updated term in a fresh arena whose fresh-name counter
/// starts at zero — the oracle must mint the same names.
enum Effective {
    Original(NodeId),
    Rewritten(ExprArena, NodeId),
}

/// Applies `rounds` random valid rewrites to a freshly ingested corpus,
/// maintaining the oracle corpus (each term's latest effective form) on
/// the side, and returns everything needed to compare or recover.
fn drive_updates<H: HashWord>(
    store: &AlphaStore<H>,
    arena: &ExprArena,
    roots: &[NodeId],
    seed: u64,
    rounds: usize,
) -> (Vec<TermId>, Vec<Effective>) {
    let outcomes = store.try_insert_batch(arena, roots).expect("corpus ingest");
    let terms: Vec<TermId> = outcomes.iter().map(|o| o.term).collect();
    let mut effective: Vec<Effective> = roots.iter().map(|&r| Effective::Original(r)).collect();

    let mut rng = StdRng::seed_from_u64(seed ^ 0x0F00D);
    for _ in 0..rounds {
        let i = rng.random_range(0..terms.len());
        let term = terms[i];

        // A valid target: any node of the class's canonical
        // representative — the tree the path is interpreted against.
        let mut rep_arena = ExprArena::new();
        let rep = store.representative_into(store.class_of(term), &mut rep_arena);
        let paths = all_paths(&rep_arena, rep);
        let path = &paths[rng.random_range(0..paths.len())];

        let mut patch_arena = ExprArena::new();
        let patch = random_patch(&mut patch_arena, &mut rng);
        let rw = Rewrite {
            path,
            arena: &patch_arena,
            root: patch,
        };

        // The oracle learns the effective term *before* the update
        // mutates the class the preview reads from.
        let mut preview_arena = ExprArena::new();
        let preview = store
            .preview_rewrite(term, rw, &mut preview_arena)
            .expect("valid rewrite previews");
        let out = store.try_update(term, rw).expect("valid rewrite applies");
        assert_eq!(out.term, term, "updates repoint the same handle");
        assert_eq!(store.class_of(term), out.class);
        effective[i] = Effective::Rewritten(preview_arena, preview);
    }
    (terms, effective)
}

/// Ingests the final effective corpus into `oracle`, term by term (each
/// rewritten term lives in its own arena), returning the root classes.
fn ingest_effective<H: HashWord>(
    oracle: &AlphaStore<H>,
    arena: &ExprArena,
    effective: &[Effective],
) -> Vec<alpha_store::ClassId> {
    effective
        .iter()
        .map(|e| match e {
            Effective::Original(root) => oracle.insert(arena, *root).class,
            Effective::Rewritten(own, root) => oracle.insert(own, *root).class,
        })
        .collect()
}

/// The oracle equivalence for one (width, granularity) configuration.
fn check_against_fresh_build<H: HashWord>(seed: u64, granularity: Granularity) {
    let scheme: HashScheme<H> = HashScheme::new(0x0DD5 ^ seed);
    let build = || -> AlphaStore<H> {
        AlphaStore::builder()
            .scheme(scheme)
            .shards(4)
            .granularity(granularity)
            .build()
    };

    let mut arena = ExprArena::new();
    let roots = corpus(&mut arena, seed, 12);
    let store = build();
    let (terms, effective) = drive_updates(&store, &arena, &roots, seed, 10);

    // Oracle: plain ingest of the final corpus into a fresh store.
    let oracle = build();
    let oracle_classes = ingest_effective(&oracle, &arena, &effective);

    // Partition: live terms i and j share a class in the updated store
    // iff their effective forms do in the fresh build.
    for i in 0..terms.len() {
        for j in 0..i {
            assert_eq!(
                store.class_of(terms[i]) == store.class_of(terms[j]),
                oracle_classes[i] == oracle_classes[j],
                "partition disagreement on pair ({i},{j})"
            );
        }
    }

    // Live census: identical classes with identical bookkeeping.
    assert_eq!(live_census(&store), live_census(&oracle));

    // Updates never mint terms, and exactness survives every rewrite.
    let s = store.stats();
    let o = oracle.stats();
    assert_eq!(s.terms_ingested, o.terms_ingested);
    assert_eq!(store.num_terms(), roots.len());
    assert!(s.is_exact(), "unconfirmed merges after updates");
    assert!(o.is_exact());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn updated_store_matches_fresh_build_at_roots(seed in any::<u64>()) {
        check_against_fresh_build::<u64>(seed, Granularity::Roots);
        check_against_fresh_build::<u128>(seed, Granularity::Roots);
    }

    #[test]
    fn updated_store_matches_fresh_build_at_subexpressions(
        seed in any::<u64>(),
        floor_wide in any::<bool>(),
    ) {
        let g = Granularity::Subexpressions { min_nodes: if floor_wide { 3 } else { 1 } };
        check_against_fresh_build::<u64>(seed, g);
        check_against_fresh_build::<u128>(seed, g);
    }

    /// Delta-WAL durability: after random updates on a durable store, a
    /// crash (drop without checkpoint) and reopen must land on exactly
    /// the oracle state — every delta replayed through normal ingest,
    /// zero unconfirmed merges.
    #[test]
    fn updates_survive_crash_and_replay(seed in any::<u64>()) {
        let dir = TempDir::new("replay");
        let mut arena = ExprArena::new();
        let roots = corpus(&mut arena, seed, 10);

        let effective = {
            let store = AlphaStore::<u64>::builder()
                .seed(0xD17A ^ seed)
                .shards(4)
                .subexpressions(2)
                .open_durable(dir.path())
                .expect("open durable");
            let (_, effective) = drive_updates(&store, &arena, &roots, seed, 8);
            effective
        }; // drop without checkpoint: recovery must replay the deltas

        let recovered = AlphaStore::<u64>::builder()
            .seed(0xD17A ^ seed)
            .shards(4)
            .subexpressions(2)
            .open_durable(dir.path())
            .expect("reopen after updates");
        let oracle = AlphaStore::<u64>::builder()
            .seed(0xD17A ^ seed)
            .shards(4)
            .subexpressions(2)
            .build();
        ingest_effective(&oracle, &arena, &effective);

        prop_assert_eq!(live_census(&recovered), live_census(&oracle));
        prop_assert_eq!(recovered.num_terms(), roots.len());
        prop_assert!(recovered.stats().is_exact(), "replayed updates stay exact");
    }
}

/// The capture-avoidance contract at the public surface: a replacement
/// that names an **outer** machine binder of the host spine — one that
/// would be captured by the by-name splice — is refused with the typed
/// [`StoreError::InvalidRewrite`] before any state changes.
#[test]
fn replacement_naming_an_outer_binder_is_a_typed_refusal() {
    use lambda_lang::parse::parse;

    let store: AlphaStore<u64> = AlphaStore::builder().seed(0xCA97).subexpressions(1).build();
    let mut arena = ExprArena::new();
    let t = parse(&mut arena, r"\x. \y. x + y").unwrap();
    let ins = store.insert(&arena, t);
    let census_before = live_census(&store);

    // The outer lambda's canonical binder is machine-named (`…%N`);
    // splicing a patch that mentions it at the *inner* body would
    // silently capture it — exactly what the contract forbids.
    let mut rep_arena = ExprArena::new();
    let rep = store.representative_into(ins.class, &mut rep_arena);
    let outer = rep_arena
        .node(rep)
        .binder()
        .expect("representative is a lambda");
    let outer_name = rep_arena.name(outer).to_owned();
    assert!(
        outer_name.contains('%'),
        "canonical binders are machine-named"
    );

    let mut patch_arena = ExprArena::new();
    let patch = patch_arena.var_named(&outer_name);
    let err = store
        .try_update(
            ins.term,
            Rewrite {
                path: &[0, 0], // the inner lambda's body, under both binders
                arena: &patch_arena,
                root: patch,
            },
        )
        .expect_err("capturing replacement must be refused");
    assert!(
        matches!(err, StoreError::InvalidRewrite { .. }),
        "typed refusal, got: {err}"
    );

    // Nothing changed: same class, same census, still exact.
    assert_eq!(store.class_of(ins.term), ins.class);
    assert_eq!(live_census(&store), census_before);
    assert!(store.stats().is_exact());
}

/// Unknown handles — including out-of-range bits a wire client could
/// send — are typed refusals too, never panics.
#[test]
fn unknown_term_handles_are_typed_refusals() {
    use lambda_lang::parse::parse;

    let store: AlphaStore<u64> = AlphaStore::builder().seed(0x9AD).build();
    let mut arena = ExprArena::new();
    let t = parse(&mut arena, r"\x. x").unwrap();
    store.insert(&arena, t);

    let patch = parse(&mut arena, "1").unwrap();
    for bogus in [u64::MAX, 1 << 32, 0xFFFF_0000_0000_0000] {
        let err = store
            .try_update(
                TermId::from_bits(bogus),
                Rewrite {
                    path: &[],
                    arena: &arena,
                    root: patch,
                },
            )
            .expect_err("unissued handle");
        assert!(matches!(err, StoreError::InvalidRewrite { .. }), "{err}");
    }
}

/// The child-slot path to the deepest leaf under `root`, following the
/// larger subtree at every branch.
fn deepest_path(arena: &ExprArena, root: NodeId) -> Vec<u32> {
    let mut path = Vec::new();
    let mut node = root;
    loop {
        let children: Vec<NodeId> = arena.node(node).children().into_iter().collect();
        let Some((slot, &child)) = children
            .iter()
            .enumerate()
            .max_by_key(|(_, &c)| arena.subtree_size(c))
        else {
            return path;
        };
        path.push(slot as u32);
        node = child;
    }
}

/// The node `path` resolves to.
fn resolve(arena: &ExprArena, root: NodeId, path: &[u32]) -> NodeId {
    path.iter().fold(root, |node, &slot| {
        arena
            .node(node)
            .children()
            .into_iter()
            .nth(slot as usize)
            .expect("path is valid")
    })
}

/// Canon-table intern calls so far (hits + misses).
fn intern_probes<H: HashWord>(store: &AlphaStore<H>) -> u64 {
    let report = store.obs_report();
    report.counter("alpha_store_canon_intern_hits").unwrap()
        + report.counter("alpha_store_canon_intern_misses").unwrap()
}

/// Nodes pushed through the e-summary hasher so far.
fn hashed_nodes<H: HashWord>(store: &AlphaStore<H>) -> u64 {
    store
        .obs_report()
        .counter("alpha_store_hash_nodes")
        .unwrap()
}

/// One balanced `nodes`-node term in a `Roots` store, and the path to
/// the deepest leaf of its canonical representative: the worst honest
/// case for a spine-local rewrite, since the spine is the full height.
/// Returns the store, the term, the representative (arena and root)
/// and the path.
fn deep_term(nodes: usize) -> (AlphaStore<u64>, TermId, ExprArena, NodeId, Vec<u32>) {
    let mut rng = StdRng::seed_from_u64(2026);
    let mut arena = ExprArena::with_capacity(nodes);
    let root = expr_gen::balanced(&mut arena, nodes, &mut rng);
    let store: AlphaStore<u64> = AlphaStore::builder().seed(0x1C4E).shards(8).build();
    let ins = store.insert(&arena, root);
    let mut rep_arena = ExprArena::new();
    let rep = store.representative_into(ins.class, &mut rep_arena);
    let path = deepest_path(&rep_arena, rep);
    assert!(
        path.len() >= 8,
        "a {nodes}-node balanced term should be at least 8 deep, got {}",
        path.len()
    );
    (store, ins.term, rep_arena, rep, path)
}

/// Rewrites the literal at `path` to `value`.
fn set_leaf(store: &AlphaStore<u64>, term: TermId, path: &[u32], value: i64) -> u64 {
    let mut patch_arena = ExprArena::new();
    let patch = patch_arena.int(value);
    store
        .update(
            term,
            Rewrite {
                path,
                arena: &patch_arena,
                root: patch,
            },
        )
        .spine_nodes_rehashed
}

/// The incremental update's work is O(depth + patch), counted: every
/// deepest-leaf rewrite re-hashes at most the spine plus the patch and
/// makes as many canon intern calls, while re-ingesting the same
/// rewritten term hashes all n nodes.
#[test]
fn spine_local_updates_do_work_proportional_to_depth_not_size() {
    const NODES: usize = 4_000;
    const PATCH_NODES: u64 = 1;
    let (store, term, mut rep_arena, rep, path) = deep_term(NODES);
    let depth = path.len() as u64;
    let n = rep_arena.subtree_size(rep) as u64;
    for value in 0..20 {
        let probes = intern_probes(&store);
        let rehashed = set_leaf(&store, term, &path, value);
        let probes = intern_probes(&store) - probes;
        assert!(
            rehashed <= depth + PATCH_NODES + 1,
            "update {value} re-hashed {rehashed} nodes on a depth-{depth} spine"
        );
        assert!(
            probes <= depth + PATCH_NODES + 1,
            "update {value} made {probes} intern calls on a depth-{depth} spine"
        );
    }
    assert_eq!(store.num_terms(), 1, "updates repoint, they never mint");
    assert_eq!(
        store.stats().unconfirmed_merges,
        0,
        "exactness must survive every update"
    );

    // The same rewritten term, re-ingested whole: every node is hashed,
    // and it lands in the class the updates moved the term to.
    let leaf = resolve(&rep_arena, rep, &path);
    rep_arena.replace_node(leaf, lambda_lang::arena::ExprNode::Lit(19i64.into()));
    let before = hashed_nodes(&store);
    let outcome = store.insert(&rep_arena, rep);
    assert_eq!(hashed_nodes(&store) - before, n);
    assert_eq!(outcome.class, store.class_of(term));
    assert!(!outcome.fresh);
}

fn counter<H: HashWord>(store: &AlphaStore<H>, name: &str) -> u64 {
    store.obs_report().counter(name).unwrap()
}

/// The update cache evicts the least recently used hasher: a hot term
/// updated between each of 1,000 updates to distinct cold terms keeps
/// its hasher, so each of its updates stays spine-local and only the
/// first rebuilds. With a random victim, a cold update would evict the
/// hot hasher with probability 1/64. Two stores fed the same sequence
/// report the same totals.
#[test]
fn the_update_cache_evicts_the_least_recently_used_hasher() {
    const COLD: usize = 1_000;
    let run = || {
        let (store, hot, rep_arena, rep, path) = deep_term(500);
        let n = rep_arena.subtree_size(rep) as u64;
        let mut arena = ExprArena::new();
        let mut cold_nodes = 0u64;
        let cold: Vec<TermId> = (0..COLD)
            .map(|i| {
                let (plus, v, lit) = (
                    arena.var_named("+"),
                    arena.var_named("v"),
                    arena.int(i as i64),
                );
                let sum = arena.app(plus, v);
                let root = arena.app(sum, lit);
                cold_nodes += arena.subtree_size(root) as u64;
                store.insert(&arena, root).term
            })
            .collect();
        for (i, &term) in cold.iter().enumerate() {
            let rehashed = set_leaf(&store, hot, &path, i as i64);
            assert!(
                rehashed < n,
                "hot update {i} re-hashed {rehashed} of {n} nodes"
            );
            set_leaf(&store, term, &[1], -(i as i64));
        }
        assert_eq!(
            counter(&store, "alpha_store_update_hasher_rebuilds"),
            COLD as u64 + 1,
            "the hot term's hasher was rebuilt after an eviction"
        );
        // Each rebuild counts its term's nodes: the hot term's once, and
        // every cold term's at its one update.
        assert_eq!(
            counter(&store, "alpha_store_update_rebuild_nodes"),
            n + cold_nodes,
            "rebuilt nodes are the node total of the rebuilt terms"
        );
        assert!(store.stats().is_exact());
        (
            counter(&store, "alpha_store_spine_nodes_rehashed"),
            counter(&store, "alpha_store_update_hasher_rebuilds"),
        )
    };
    assert_eq!(run(), run(), "one update sequence, two different totals");
}

/// The wall-clock side of the spine-local update: a cold-cache hasher
/// rebuild costs O(n), which `alpha_store_update_rebuild_nodes` counts
/// apart from `spine_nodes_rehashed`.
/// 100 deepest-leaf rewrites of a 4,000-node term must beat re-ingesting
/// the rewritten term 100 times by at least 5x. Timing-based, so it runs
/// in release only: `cargo test --release --test update_oracle --
/// --ignored`.
#[test]
#[ignore = "wall-clock gate; run in release with --ignored"]
fn spine_local_update_is_5x_faster_than_reinsert() {
    const NODES: usize = 4_000;
    const UPDATES: usize = 100;
    let (store, term, rep_arena, rep, path) = deep_term(NODES);
    // Warm the cached spine hasher, as a serving store would be.
    set_leaf(&store, term, &path, -1);

    let baseline: AlphaStore<u64> = AlphaStore::builder().seed(0x1C4E).shards(8).build();
    let mut base_arena = ExprArena::new();
    let base_root = base_arena.import_subtree(&rep_arena, rep);
    let base_leaf = resolve(&base_arena, base_root, &path);
    baseline.insert(&base_arena, base_root);

    let start = std::time::Instant::now();
    for value in 0..UPDATES as i64 {
        set_leaf(&store, term, &path, value);
    }
    let update_secs = start.elapsed().as_secs_f64();
    let start = std::time::Instant::now();
    for value in 0..UPDATES as i64 {
        base_arena.replace_node(base_leaf, lambda_lang::arena::ExprNode::Lit(value.into()));
        baseline.insert(&base_arena, base_root);
    }
    let reinsert_secs = start.elapsed().as_secs_f64();

    assert_eq!(store.num_terms(), 1);
    assert!(store.stats().is_exact());
    let speedup = reinsert_secs / update_secs;
    assert!(
        speedup >= 5.0,
        "spine-local rewrite must be at least 5x faster than re-ingest on a \
         {NODES}-node term, got {speedup:.2}x ({update_secs:.4}s vs {reinsert_secs:.4}s)"
    );
}
