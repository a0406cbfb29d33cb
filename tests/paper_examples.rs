//! End-to-end integration tests: every worked example in the paper, run
//! through the full pipeline (parse → uniquify → hash → group → apply).

use hash_modulo_alpha::prelude::*;

fn prepared(src: &str) -> (ExprArena, NodeId) {
    let mut arena = ExprArena::new();
    let parsed = parse(&mut arena, src).unwrap_or_else(|e| panic!("{src}: {e}"));
    uniquify(&arena, parsed)
}

fn scheme() -> HashScheme<u64> {
    HashScheme::default()
}

/// Subexpressions of `root` of a given size, pre-order.
fn subterms_of_size(arena: &ExprArena, root: NodeId, size: usize) -> Vec<NodeId> {
    lambda_lang::visit::preorder(arena, root)
        .into_iter()
        .filter(|&n| arena.subtree_size(n) == size)
        .collect()
}

#[test]
fn section1_cse_example_v_plus_7() {
    // (a + (v+7)) * (v+7) — the two v+7 subtrees form a class.
    let (arena, root) = prepared("(a + (v+7)) * (v+7)");
    let classes = hash_classes(&arena, root, &scheme());
    let v7_class = classes
        .iter()
        .find(|c| c.len() == 2 && arena.subtree_size(c[0]) == 5)
        .expect("v+7 class");
    assert_eq!(v7_class.len(), 2);
}

#[test]
fn section1_alpha_equivalent_let_terms() {
    let (arena, root) = prepared("(a + (let x = exp z in x+7)) * (let y = exp z in y+7)");
    let classes = hash_classes(&arena, root, &scheme());
    // The two let-terms are alpha-equivalent: same class.
    let lets: Vec<NodeId> = lambda_lang::visit::preorder(&arena, root)
        .into_iter()
        .filter(|&n| matches!(arena.node(n), ExprNode::Let(_, _, _)))
        .collect();
    assert_eq!(lets.len(), 2);
    let hashes = hash_all_subexpressions(&arena, root, &scheme());
    assert_eq!(hashes.get(lets[0]), hashes.get(lets[1]));
    let _ = classes;
}

#[test]
fn section1_lambda_pair() {
    let (arena, root) = prepared(r"foo (\x. x+7) (\y. y+7)");
    let hashes = hash_all_subexpressions(&arena, root, &scheme());
    let lams = subterms_of_size(&arena, root, 6);
    assert_eq!(lams.len(), 2);
    assert_eq!(hashes.get(lams[0]), hashes.get(lams[1]));
}

#[test]
fn section2_2_false_negative_map_example() {
    // map (\y.y+1) (map (\x.x+1) vs): the two lambdas are equivalent.
    let (arena, root) = prepared(r"map (\y. y+1) (map (\x. x+1) vs)");
    let hashes = hash_all_subexpressions(&arena, root, &scheme());
    let lams = subterms_of_size(&arena, root, 6);
    assert_eq!(lams.len(), 2);
    assert_eq!(hashes.get(lams[0]), hashes.get(lams[1]));
}

#[test]
fn section2_2_false_positive_name_overloading() {
    // foo (let x=bar in x+2) (let x=pub in x+2): §2.2's false-positive
    // trap. The unique-binder preprocessing renames the two binders
    // apart, so the two x+2 occurrences refer to *different* binders and
    // correctly land in different classes — "the second problem can
    // readily be addressed by preprocessing" (§2.2). The enclosing lets
    // differ too (different rhs free variables).
    let (arena, root) = prepared("foo (let x = bar in x+2) (let x = pubx in x+2)");
    let hashes = hash_all_subexpressions(&arena, root, &scheme());
    let x2s = subterms_of_size(&arena, root, 5);
    assert_eq!(x2s.len(), 2);
    assert_ne!(
        hashes.get(x2s[0]),
        hashes.get(x2s[1]),
        "after uniquify the x+2s refer to different binders"
    );
    let lets: Vec<NodeId> = lambda_lang::visit::preorder(&arena, root)
        .into_iter()
        .filter(|&n| matches!(arena.node(n), ExprNode::Let(_, _, _)))
        .collect();
    assert_ne!(hashes.get(lets[0]), hashes.get(lets[1]), "the lets differ");

    // Without preprocessing (`check_unique_binders` reports the repeated
    // binder) the two x+2s are the same standalone subterm and hash
    // equal: the §2.2 precondition is what tells them apart in context.
    // The whole program's hash does not depend on it.
    let mut raw = ExprArena::new();
    let raw_root = parse(&mut raw, "foo (let x = bar in x+2) (let x = pubx in x+2)").unwrap();
    assert!(check_unique_binders(&raw, raw_root).is_err());
    let raw_hashes = hash_all_subexpressions(&raw, raw_root, &scheme());
    let raw_x2s = subterms_of_size(&raw, raw_root, 5);
    assert_eq!(raw_hashes.get(raw_x2s[0]), raw_hashes.get(raw_x2s[1]));
    assert_eq!(raw_hashes.get(raw_root), hashes.get(root));
}

#[test]
fn section2_4_de_bruijn_failures_are_fixed_by_ours() {
    // False-negative example.
    let (arena, root) = prepared(r"\t. foo (\x. x + t) (\y. \x. x + t)");
    let hashes = hash_all_subexpressions(&arena, root, &scheme());
    let lams = subterms_of_size(&arena, root, 6);
    assert_eq!(hashes.get(lams[0]), hashes.get(lams[1]));

    // False-positive example.
    let (arena2, root2) = prepared(r"\t. foo (\x. t * (x+1)) (\y. \x. y * (x+1))");
    let hashes2 = hash_all_subexpressions(&arena2, root2, &scheme());
    let lams2 = subterms_of_size(&arena2, root2, 10);
    assert_ne!(hashes2.get(lams2[0]), hashes2.get(lams2[1]));
}

#[test]
fn section4_5_position_tree_identity() {
    // add x y vs add x x have the same structure but different maps; the
    // e-summary (and hence the hash) must differ (§4.2).
    let (arena, root) = prepared("pair (add x y) (add x x)");
    let hashes = hash_all_subexpressions(&arena, root, &scheme());
    let terms = subterms_of_size(&arena, root, 5);
    assert_eq!(terms.len(), 2);
    assert_ne!(hashes.get(terms[0]), hashes.get(terms[1]));
}

#[test]
fn cse_end_to_end_on_paper_intro() {
    let (arena, root) = prepared("let v = 3 in let a = 10 in (a + (v+7)) * (v+7)");
    let before = lambda_lang::eval::eval(&arena, root).expect("evaluates");
    let result = eliminate_common_subexpressions(&arena, root, &scheme(), CseConfig::default());
    assert_eq!(result.rewrites.len(), 1);
    let after = lambda_lang::eval::eval(&result.arena, result.root).expect("still evaluates");
    assert!(before.observably_eq(&after));
    // The rewritten program is strictly smaller.
    assert!(result.arena.subtree_size(result.root) < arena.subtree_size(root));
}

#[test]
fn whole_pipeline_agrees_with_ground_truth_on_models() {
    // The three §7.2 models: hash classes must equal ground truth (the
    // models are big, ground truth is O(n²·n) — use the smallest).
    let mut arena = ExprArena::new();
    let root = expr_gen::mnist_cnn(&mut arena);
    let classes = hash_classes(&arena, root, &scheme());
    let truth = ground_truth_classes(&arena, root);
    assert!(alpha_hash::equiv::same_partition(&classes, &truth));
}

#[test]
fn all_four_algorithms_run_on_all_models() {
    let mut arena = ExprArena::new();
    let mnist = expr_gen::mnist_cnn(&mut arena);
    let gmm = expr_gen::gmm(&mut arena);
    let s = scheme();
    for (arena_ref, root) in [(&arena, mnist), (&arena, gmm)] {
        let structural = hash_baselines::hash_all_structural(arena_ref, root, &s);
        let debruijn = hash_baselines::hash_all_debruijn(arena_ref, root, &s);
        let ln = hash_baselines::hash_all_locally_nameless(arena_ref, root, &s);
        let ours = hash_all_subexpressions(arena_ref, root, &s);
        let n = arena_ref.subtree_size(root);
        assert_eq!(structural.len(), n);
        assert_eq!(debruijn.len(), n);
        assert_eq!(ln.len(), n);
        assert_eq!(ours.len(), n);
        // The two correct algorithms agree on the induced partition.
        let ln_classes = group_by_hash(&ln);
        let our_classes = group_by_hash(&ours);
        assert!(alpha_hash::equiv::same_partition(&ln_classes, &our_classes));
    }
}
