//! Work-count complexity gates for the store's paths: every deterministic
//! work counter a term's life touches stays within c·n·(log₂ n)² of its
//! node count n, the paper's bound for the hasher.
//!
//! In the `Roots` test each term goes through a fresh durable `Roots`
//! store: it is inserted, an alpha-renamed copy (the store's canonical
//! representative, with its fresh binder names) is looked up,
//! containment-probed and inserted (a merge confirmed by a frontier walk),
//! the term's deepest leaf is rewritten twice (a hasher rebuild, then a
//! cached spine rehash), and the store is dropped and reopened from its
//! WAL. The `Subexpressions` tests run the same life through a durable
//! store that indexes every subterm: its ingest, probes and whole-term
//! updates go through the interned e-summary, its WAL records carry the
//! terms as ingested, and its reopen re-prepares them. The
//! shapes are the ones that made de Bruijn subterm indexing quadratic —
//! the ANF chain and the binder fan, both Θ(n) deep — plus a balanced
//! term, at three sizes spanning 4x. Counters, not clocks, so the gate is
//! exact and runs in tier-1.
//!
//! A reopen that replays ends with a recovery checkpoint, and a
//! `Subexpressions` snapshot holds every class's standalone de Bruijn
//! form: Θ(n²) nodes for the deep shapes (binder fan k = 1000: 12.0M
//! nodes, 27 s in release) until snapshots carry e-summaries. So tier-1
//! reopens a `Subexpressions` store at the smallest size only; the
//! ignored test reopens it at every size, and CI runs it in release.

use alpha_store::persist::WAL_FILE;
use alpha_store::{AlphaStore, ClassId, Rewrite, TermId};
use lambda_lang::arena::{ExprArena, NodeId};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::PathBuf;

/// The constant of the c·n·(log₂ n)² bound every counter must meet.
const C: f64 = 0.5;

/// A fresh temp directory, removed on drop (even when a check fails).
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let tag: String = tag.chars().filter(char::is_ascii_alphanumeric).collect();
        TempDir(std::env::temp_dir().join(format!(
            "alpha-store-complexity-{}-{tag}",
            std::process::id()
        )))
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The child-slot path to the deepest leaf under `root`, following the
/// larger subtree at every branch.
fn deepest_path(arena: &ExprArena, root: NodeId) -> Vec<u32> {
    let mut path = Vec::new();
    let mut node = root;
    while let Some((slot, child)) = arena
        .node(node)
        .children()
        .into_iter()
        .enumerate()
        .max_by_key(|&(_, c)| arena.subtree_size(c))
    {
        path.push(slot as u32);
        node = child;
    }
    path
}

/// The life both tests share: `root` is inserted, the store's renamed
/// representative is looked up, containment-probed and inserted, and the
/// deepest leaf is rewritten twice.
fn live(
    label: &str,
    store: &AlphaStore<u64>,
    arena: &ExprArena,
    root: NodeId,
) -> (TermId, ClassId) {
    let inserted = store.insert(arena, root);
    let (term, class) = (inserted.term, inserted.class);

    let mut copy = ExprArena::new();
    let renamed = store.representative_into(class, &mut copy);
    assert_eq!(store.lookup(&copy, renamed), Some(class), "{label}");
    assert_eq!(store.contains(&copy, renamed), Some(class), "{label}");
    assert_eq!(store.insert(&copy, renamed).class, class, "{label}");

    let path = deepest_path(&copy, renamed);
    for value in [-1, -2] {
        let mut patch = ExprArena::new();
        let leaf = patch.int(value);
        store.update(
            term,
            Rewrite {
                path: &path,
                arena: &patch,
                root: leaf,
            },
        );
    }
    assert!(store.stats().is_exact(), "{label}");
    (term, class)
}

/// The counters both tests bound: hashing, interning, residency and
/// update rehashing.
fn common_work(store: &AlphaStore<u64>) -> Vec<(&'static str, u64)> {
    let report = store.obs_report();
    let counter = |name: &str| report.counter(name).unwrap();
    vec![
        ("hash_nodes", counter("alpha_store_hash_nodes")),
        (
            "intern probes",
            counter("alpha_store_canon_intern_hits") + counter("alpha_store_canon_intern_misses"),
        ),
        (
            "canon_resident_nodes",
            report.gauge("alpha_store_canon_resident_nodes").unwrap(),
        ),
        (
            "spine_nodes_rehashed",
            counter("alpha_store_spine_nodes_rehashed"),
        ),
    ]
}

/// Every counter of `work` that counted nothing or breaks the
/// c·n·(log₂ n)² bound for a term of `n` nodes.
fn over_bound(label: &str, n: u64, work: Vec<(&str, u64)>) -> Vec<String> {
    let log = (n as f64).log2();
    let bound = (C * n as f64 * log * log).ceil() as u64;
    work.into_iter()
        .filter_map(|(counter, value)| match value {
            0 => Some(format!("{label}: {counter} counted no work")),
            v if v > bound => Some(format!(
                "{label}: {counter} = {v} exceeds c·n·(log2 n)^2 = {bound} for n = {n}"
            )),
            _ => None,
        })
        .collect()
}

/// Runs one term's life through a durable `Roots` store and reports
/// every work counter that breaks the bound.
fn check_term(label: &str, arena: &ExprArena, root: NodeId) -> Vec<String> {
    let n = arena.subtree_size(root) as u64;
    let dir = TempDir::new(label);
    let builder = || AlphaStore::<u64>::builder().seed(0xC0DE).shards(4);
    let store = builder().open_durable(&dir.0).unwrap();
    live(label, &store, arena, root);

    let report = store.obs_report();
    let mut work = common_work(&store);
    work.extend([
        (
            "frontier_walk_nodes",
            report
                .histogram("alpha_store_frontier_walk_nodes")
                .unwrap()
                .sum,
        ),
        (
            "update_rebuild_nodes",
            report.counter("alpha_store_update_rebuild_nodes").unwrap(),
        ),
    ]);
    drop(store);
    let wal_bytes = std::fs::metadata(dir.0.join(WAL_FILE)).unwrap().len();
    work.push(("WAL bytes", wal_bytes));

    let reopened = builder().open_durable(&dir.0).unwrap();
    let report = reopened.obs_report();
    let counter = |name: &str| report.counter(name).unwrap();
    work.push((
        "reopen intern probes",
        counter("alpha_store_canon_intern_hits") + counter("alpha_store_canon_intern_misses"),
    ));
    assert_eq!(reopened.num_terms(), 2, "{label}");
    over_bound(label, n, work)
}

/// Runs one term's life through a durable store indexing every subterm
/// and reports every work counter that breaks the bound. With `reopen`,
/// the store is then dropped without a checkpoint and reopened from its
/// WAL, which must rebuild the same census.
fn check_subexpressions_term(
    label: &str,
    arena: &ExprArena,
    root: NodeId,
    reopen: bool,
) -> Vec<String> {
    let n = arena.subtree_size(root) as u64;
    let dir = TempDir::new(&format!("subs {label}"));
    let builder = || {
        AlphaStore::<u64>::builder()
            .seed(0xC0DE)
            .shards(4)
            .subexpressions(1)
    };
    let store = builder().open_durable(&dir.0).unwrap();
    let (term, class) = live(label, &store, arena, root);
    let mut work = common_work(&store);
    let census = (store.num_classes(), store.stats());
    drop(store);
    let wal_bytes = std::fs::metadata(dir.0.join(WAL_FILE)).unwrap().len();
    work.push(("WAL bytes", wal_bytes));
    if reopen {
        let reopened = builder().open_durable(&dir.0).unwrap();
        let report = reopened.obs_report();
        let counter = |name: &str| report.counter(name).unwrap();
        work.push((
            "reopen intern probes",
            counter("alpha_store_canon_intern_hits") + counter("alpha_store_canon_intern_misses"),
        ));
        assert_eq!(reopened.num_terms(), 2, "{label}");
        assert_eq!(
            (reopened.num_classes(), reopened.stats()),
            census,
            "{label}"
        );
        assert_ne!(
            reopened.class_of(term),
            class,
            "{label}: the updates replay"
        );
    }
    over_bound(label, n, work)
}

/// The sizes every test runs, smallest first.
const SIZES: [usize; 3] = [250, 500, 1000];

/// The shapes and sizes the tests run, each with its size parameter.
fn shapes() -> Vec<(usize, String, ExprArena, NodeId)> {
    let mut rng = StdRng::seed_from_u64(0xB0B);
    let mut terms = Vec::new();
    for k in SIZES {
        let mut arena = ExprArena::new();
        let anf = expr_gen::anf_chain(&mut arena, k, &mut rng);
        terms.push((k, format!("anf_chain k={k}"), arena, anf));
        let mut arena = ExprArena::new();
        let fan = expr_gen::binder_fan(&mut arena, k, &mut rng);
        terms.push((k, format!("binder_fan k={k}"), arena, fan));
        let mut arena = ExprArena::new();
        let balanced = expr_gen::balanced(&mut arena, 7 * k, &mut rng);
        terms.push((k, format!("balanced n={}", 7 * k), arena, balanced));
    }
    terms
}

#[test]
fn roots_paths_stay_within_n_log_squared_n() {
    let broken: Vec<String> = shapes()
        .iter()
        .flat_map(|(_, label, arena, root)| check_term(label, arena, *root))
        .collect();
    assert!(broken.is_empty(), "{}", broken.join("\n"));
}

#[test]
fn subexpressions_ingest_probes_and_updates_stay_within_n_log_squared_n() {
    let broken: Vec<String> = shapes()
        .iter()
        .flat_map(|(k, label, arena, root)| {
            check_subexpressions_term(label, arena, *root, *k == SIZES[0])
        })
        .collect();
    assert!(broken.is_empty(), "{}", broken.join("\n"));
}

#[test]
#[ignore = "each reopen writes a de Bruijn snapshot, Θ(n²) for the deep shapes; CI runs it in release"]
fn subexpressions_reopen_stays_within_n_log_squared_n_at_every_size() {
    let broken: Vec<String> = shapes()
        .iter()
        .flat_map(|(_, label, arena, root)| check_subexpressions_term(label, arena, *root, true))
        .collect();
    assert!(broken.is_empty(), "{}", broken.join("\n"));
}
