//! Complexity regression tests for the §4.8 merge under [`FlatVarMap`]
//! storage: the Lemma 6.1 bound — total map operations at binary nodes is
//! O(n log n) — must survive the flat-map representation change, because
//! the merge still folds only the smaller map into the bigger one.
//!
//! The `merge_ops` counter counts exactly the Lemma 6.1 quantity (one per
//! smaller-side entry per binary node), so asserting `merge_ops ≤ c·n·log₂ n`
//! on adversarial deep/skewed inputs from `expr-gen` pins the bound.

use alpha_hash::combine::HashScheme;
use alpha_hash::hashed::HashedSummariser;
use alpha_store::AlphaStore;
use lambda_lang::arena::{ExprArena, NodeId};
use lambda_lang::uniquify::uniquify_into;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Merge-op count for hashing the subtree at `root`.
fn merge_ops_of(arena: &ExprArena, root: NodeId) -> u64 {
    let scheme: HashScheme<u64> = HashScheme::new(0xC0);
    let mut summariser = HashedSummariser::new(arena, &scheme);
    let _ = summariser.summarise(arena, root);
    summariser.merge_ops
}

/// Asserts the Lemma 6.1 bound with a generous constant. The constant
/// absorbs the ±1 slack of ceil(log) and small-n effects; what the test
/// guards is the *shape* — a representation bug that made merges touch
/// the bigger side would overshoot this by orders of magnitude.
fn assert_log_linear(label: &str, n: usize, ops: u64) {
    let bound = (2.0 * n as f64 * (n as f64).log2()).ceil() as u64;
    assert!(
        ops <= bound,
        "{label}: merge_ops {ops} exceeds 2·n·log2(n) = {bound} for n = {n}"
    );
}

#[test]
fn adversarial_pairs_stay_log_linear() {
    // Appendix B.1 pairs: maximally skewed Lam/App wrapper spines around
    // inequivalent seeds — deep terms whose merges are all 1-into-M.
    let mut rng = StdRng::seed_from_u64(0xAD);
    for size in [512usize, 2048, 8192] {
        let mut arena = ExprArena::new();
        let (e1, e2) = expr_gen::adversarial_pair(&mut arena, size, &mut rng);
        for (side, root) in [("left", e1), ("right", e2)] {
            let ops = merge_ops_of(&arena, root);
            assert_log_linear(&format!("adversarial {size} ({side})"), size, ops);
        }
    }
}

#[test]
fn unbalanced_spines_stay_log_linear() {
    // §7.1's wildly unbalanced family: depth Θ(n).
    let mut rng = StdRng::seed_from_u64(0xBA);
    for size in [512usize, 4096, 16384] {
        let mut arena = ExprArena::new();
        let root = expr_gen::unbalanced(&mut arena, size, &mut rng);
        let n = arena.subtree_size(root);
        let ops = merge_ops_of(&arena, root);
        assert_log_linear(&format!("unbalanced {size}"), n, ops);
    }
}

#[test]
fn balanced_terms_stay_log_linear() {
    let mut rng = StdRng::seed_from_u64(0xBB);
    for size in [512usize, 4096, 16384] {
        let mut arena = ExprArena::new();
        let root = expr_gen::balanced(&mut arena, size, &mut rng);
        let n = arena.subtree_size(root);
        let ops = merge_ops_of(&arena, root);
        assert_log_linear(&format!("balanced {size}"), n, ops);
    }
}

#[test]
fn anf_chains_and_binder_fans_stay_log_linear() {
    // The two IR shapes on which per-subterm de Bruijn canon is Θ(n²):
    // the hasher's merges must still meet the Lemma 6.1 bound.
    let mut rng = StdRng::seed_from_u64(0xAF);
    for k in [250usize, 500, 1000] {
        let mut arena = ExprArena::new();
        let anf = expr_gen::anf_chain(&mut arena, k, &mut rng);
        let fan = expr_gen::binder_fan(&mut arena, k, &mut rng);
        for (label, root) in [("anf chain", anf), ("binder fan", fan)] {
            let n = arena.subtree_size(root);
            let ops = merge_ops_of(&arena, root);
            assert_log_linear(&format!("{label} k={k}"), n, ops);
        }
    }
}

#[test]
fn wide_open_spines_are_subquadratic_per_merge_op() {
    // The wide-open regime (sustained free-var width, width growing with
    // the node budget) is where the sorted-Vec spill was honestly
    // documented Θ(n²): every 1-into-M join rebuilt the whole M-entry
    // map. With the tree tier the per-merge-op cost is O(log width), so
    // doubling the node budget (and with it the width) must leave the
    // wall-time/merge_ops ratio roughly flat. A quadratic path multiplies
    // the per-op cost by ~4 across a 4x budget; the log path by ~1.2.
    let sizes = [8_000usize, 16_000, 32_000];
    let mut per_op = Vec::new();
    for &n in &sizes {
        let mut rng = StdRng::seed_from_u64(0x77);
        let mut arena = ExprArena::new();
        let root = expr_gen::wide_open_spine(&mut arena, n, n / 8, &mut rng);
        let scheme: HashScheme<u64> = HashScheme::new(0xC0);
        // Best of three, to damp scheduler noise on loaded CI boxes.
        let mut best = f64::INFINITY;
        let mut ops = 0u64;
        for _ in 0..3 {
            let mut summariser = HashedSummariser::new(&arena, &scheme);
            let start = std::time::Instant::now();
            let _ = summariser.summarise(&arena, root);
            best = best.min(start.elapsed().as_secs_f64());
            ops = summariser.merge_ops;
        }
        assert_log_linear(&format!("wide {n}"), n, ops);
        per_op.push(best / ops as f64);
    }
    let growth = per_op[2] / per_op[0];
    assert!(
        growth < 2.5,
        "wide-open per-merge-op cost grew {growth:.2}x across a 4x node budget \
         (quadratic behaviour would grow ~4x): {per_op:?}"
    );
}

#[test]
fn distinct_variable_spine_is_worst_case_linear() {
    // A left spine applying n distinct free variables: every merge is
    // 1-into-M with the 1 side always smaller, so ops must be ~n, far
    // under the n·log n envelope.
    let mut arena = ExprArena::new();
    let mut e = arena.var_named("f");
    let n = 4_000usize;
    for i in 0..n {
        let v = arena.var_named(&format!("x{i}"));
        e = arena.app(e, v);
    }
    let ops = merge_ops_of(&arena, e);
    assert!(ops <= (n + 1) as u64, "spine merges must be linear: {ops}");
}

/// One open spine of `size` nodes whose free-variable width is sustained
/// at `width`: the regime the var-map tree tier exists for.
fn wide_spine(size: usize, width: usize) -> (ExprArena, NodeId) {
    let mut rng = StdRng::seed_from_u64(0x71DE);
    let mut arena = ExprArena::new();
    let root = expr_gen::wide_open_spine(&mut arena, size, width, &mut rng);
    (arena, root)
}

#[test]
fn tree_tier_changes_the_representation_not_the_hashes() {
    // The tree tier past the spill threshold and the sorted-Vec spill all
    // the way up (`set_tree_threshold(usize::MAX)`) must produce the same
    // e-summary and the same Lemma 6.1 accounting.
    let (mut arena, root) = wide_spine(4_000, 512);
    let scheme: HashScheme<u64> = HashScheme::new(0x5EED);
    let mut tiered = HashedSummariser::new(&arena, &scheme);
    let tree = tiered.summarise(&arena, root);
    let mut flat = HashedSummariser::new(&arena, &scheme);
    flat.set_tree_threshold(usize::MAX);
    let vec = flat.summarise(&arena, root);
    assert!(
        tree.varmap.is_tree(),
        "a width-512 root map must be tree-tier under the default pool"
    );
    assert!(!vec.varmap.is_tree());
    assert_eq!(tree.structure.hash, vec.structure.hash);
    assert_eq!(tree.hash(&scheme), vec.hash(&scheme));
    assert_eq!(tiered.merge_ops, flat.merge_ops);

    // End to end: the spine and an alpha-renamed copy merge, exactly,
    // through the same tiered maps.
    let copy = {
        let scratch = std::mem::replace(&mut arena, ExprArena::new());
        let renamed = uniquify_into(&scratch, root, &mut arena);
        [arena.import_subtree(&scratch, root), renamed]
    };
    let store: AlphaStore<u64> = AlphaStore::builder().scheme(scheme).build();
    store.insert_batch(&arena, &copy);
    let stats = store.stats();
    assert!(stats.is_exact(), "wide ingest must stay exact: {stats}");
    assert_eq!(store.num_classes(), 1, "the copy is alpha-equivalent");
    assert_eq!(stats.merges_confirmed, 1);
}

/// The wall-clock side of the tree tier: at a 4,096-wide spine of 40,000
/// nodes it must beat the sorted-Vec spill by at least 3x (best of 2).
/// A tier regression reads ~1x. Timing-based, so it runs in release
/// only: `cargo test --release --test merge_complexity -- --ignored`.
#[test]
#[ignore = "wall-clock gate; run in release with --ignored"]
fn tree_tier_is_3x_faster_than_the_vec_spill_on_wide_maps() {
    let (arena, root) = wide_spine(40_000, 4_096);
    let scheme: HashScheme<u64> = HashScheme::new(0x5EED);
    let best_of_2 = |tree_threshold: Option<usize>| {
        let mut best = f64::INFINITY;
        for _ in 0..2 {
            let mut summariser = HashedSummariser::new(&arena, &scheme);
            if let Some(threshold) = tree_threshold {
                summariser.set_tree_threshold(threshold);
            }
            let start = std::time::Instant::now();
            std::hint::black_box(summariser.summarise(&arena, root));
            best = best.min(start.elapsed().as_secs_f64());
        }
        best
    };
    let tree_secs = best_of_2(None);
    let vec_secs = best_of_2(Some(usize::MAX));
    let speedup = vec_secs / tree_secs;
    assert!(
        speedup >= 3.0,
        "tree tier must beat the Vec spill by >= 3x on the wide-open regime, \
         got {speedup:.2}x ({tree_secs:.4}s vs {vec_secs:.4}s)"
    );
}
