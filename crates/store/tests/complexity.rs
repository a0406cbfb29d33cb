//! Work-count complexity gates for the store's paths: every deterministic
//! work counter a term's life touches stays within c·n·(log₂ n)² of its
//! node count n, the paper's bound for the hasher.
//!
//! In the `Roots` test each term goes through a fresh durable `Roots`
//! store: it is inserted, an alpha-renamed copy (the store's canonical
//! representative, with its fresh binder names) is looked up,
//! containment-probed and inserted (a merge confirmed by a confirm walk),
//! the term's deepest leaf is rewritten twice (a hasher rebuild, then a
//! cached spine rehash), and the store is dropped and reopened from its
//! WAL. The `Subexpressions` tests run the same life through a durable
//! store that indexes every subterm: its ingest, probes and whole-term
//! updates go through the interned e-summary, its WAL records carry the
//! terms as ingested, and its reopen re-prepares them. The shapes are the
//! ones that made de Bruijn subterm indexing quadratic — the ANF chain
//! and the binder fan, both Θ(n) deep — plus a balanced term, at three
//! sizes spanning 4x. Counters, not clocks, so the gates are exact and
//! run in tier-1, every reopen included.
//!
//! A reopen that replays ends with a recovery checkpoint, whose snapshot
//! writes the canon-table nodes the classes reach, each once, as the
//! table holds them. So its bytes must stay linear in the nodes the
//! reopened store holds: at most the widest node kind's 16 bytes per
//! resident node, plus fixed bytes per class, term, subterm pair and
//! name. A snapshot that wrote each class as its own de Bruijn tree, at
//! least a tag and a `u32` per node, would break that bound: in a
//! `Roots` store on the balanced shape, whose classes share most of
//! their nodes, and in a `Subexpressions` store on the deep shapes,
//! whose subterm classes sum to Θ(n²) nodes.

use alpha_store::persist::{SNAPSHOT_FILE, WAL_FILE};
use alpha_store::{AlphaStore, ClassId, Rewrite, TermId};
use lambda_lang::arena::{ExprArena, ExprNode, NodeId};
use lambda_lang::stats::free_vars;
use lambda_lang::visit::postorder;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::PathBuf;

/// The constant of the c·n·(log₂ n)² bound every counter must meet.
const C: f64 = 0.5;

/// A snapshot's fixed bytes: magic, version, identity, WAL epoch, stats,
/// the node table's name and node counts, and the CRC. Each shard adds
/// its class and term counts.
const SNAPSHOT_HEADER: u64 = 8 + 2 + 25 + 8 + 64 + 4 + 4 + 4;

/// A `Subexpressions` snapshot's fixed bytes: three more node runs'
/// counts (position trees, structures and map nodes, beside the keys).
const SUBEXPRESSIONS_SNAPSHOT_HEADER: u64 = SNAPSHOT_HEADER + 3 * 4;

/// A fresh temp directory, removed on drop (even when a check fails).
struct TempDir(PathBuf);

impl TempDir {
    /// A directory of its own per call: tests that run in parallel in one
    /// process may pass the same tag.
    fn new(tag: &str) -> Self {
        use std::sync::atomic::{AtomicU64, Ordering};
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let tag: String = tag.chars().filter(char::is_ascii_alphanumeric).collect();
        TempDir(std::env::temp_dir().join(format!(
            "alpha-store-complexity-{}-{}-{tag}",
            std::process::id(),
            COUNTER.fetch_add(1, Ordering::Relaxed)
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
/// every work counter that breaks the bound, and a recovery checkpoint
/// whose snapshot is not linear in the canon DAG: at most 16 bytes per
/// resident canon node, 48 per class and 16 per term, plus the free
/// names' bytes and the fixed header. Also says whether a snapshot that
/// unfolded the DAG's sharing would break that bound.
fn check_term(label: &str, arena: &ExprArena, root: NodeId) -> (Vec<String>, bool) {
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
    let snapshot = std::fs::metadata(dir.0.join(SNAPSHOT_FILE)).unwrap().len();
    let dag = reopened.canon_dag_stats();
    let names: u64 = free_vars(arena, root)
        .keys()
        .map(|&s| 4 + arena.name(s).len() as u64)
        .sum();
    let bound = 16 * dag.resident_nodes
        + 48 * reopened.num_classes() as u64
        + 16 * reopened.num_terms() as u64
        + names
        + SNAPSHOT_HEADER
        + 8 * reopened.shard_count() as u64;
    let mut broken = over_bound(label, n, work);
    if snapshot > bound {
        broken.push(format!(
            "{label}: the recovery checkpoint's snapshot is {snapshot} bytes, over the \
             {bound} bytes its {} resident canon nodes allow",
            dag.resident_nodes
        ));
    }
    // A snapshot that unfolded the DAG into one tree per class would write
    // at least a tag and a `u32` per tree node.
    (broken, 5 * dag.logical_nodes > bound)
}

/// The encoded bytes of every distinct name in the terms at `roots` of
/// `arena`, bound or free: a `Subexpressions` store's maps name the
/// variables free in its subterms, bound ones above them included.
fn name_bytes(arena: &ExprArena, roots: &[NodeId]) -> u64 {
    let mut names = std::collections::HashSet::new();
    for &root in roots {
        for n in postorder(arena, root) {
            match arena.node(n) {
                ExprNode::Var(s) | ExprNode::Lam(s, _) | ExprNode::Let(s, _, _) => {
                    names.insert(arena.name(s).to_owned());
                }
                _ => {}
            }
        }
    }
    names.iter().map(|name| 4 + name.len() as u64).sum()
}

/// Runs one term's life through a durable store indexing every subterm
/// and reports every work counter that breaks the bound. With `reopen`,
/// the store is then dropped without a checkpoint and reopened from its
/// WAL, which must rebuild the same census, and whose recovery
/// checkpoint's snapshot must stay linear in the nodes the reopened
/// store holds: 16 bytes per resident node, 48 per class, 16 per term
/// and 12 per subterm pair, plus the names' bytes and the fixed header.
/// Also says whether a snapshot that wrote each class as its own
/// de Bruijn tree would break that bound.
fn check_subexpressions_term(
    label: &str,
    arena: &ExprArena,
    root: NodeId,
    reopen: bool,
) -> (Vec<String>, bool) {
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
    let mut copy = ExprArena::new();
    let renamed = store.representative_into(class, &mut copy);
    let names = name_bytes(arena, &[root]) + name_bytes(&copy, &[renamed]);
    drop(store);
    let wal_bytes = std::fs::metadata(dir.0.join(WAL_FILE)).unwrap().len();
    work.push(("WAL bytes", wal_bytes));
    let mut unfolding_breaks = false;
    let mut broken = Vec::new();
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
        let snapshot = std::fs::metadata(dir.0.join(SNAPSHOT_FILE)).unwrap().len();
        let dag = reopened.canon_dag_stats();
        // A term's subterm pairs name one class each, at most one per
        // node of its current form: the rewritten term's, and the
        // inserted copy's, still of the term's first class.
        let pairs =
            (reopened.node_count(reopened.class_of(term)) + reopened.node_count(class)) as u64;
        let bound = 16 * dag.resident_nodes
            + 48 * reopened.num_classes() as u64
            + 16 * reopened.num_terms() as u64
            + 12 * pairs
            + names
            + SUBEXPRESSIONS_SNAPSHOT_HEADER
            + 8 * reopened.shard_count() as u64;
        if snapshot > bound {
            broken.push(format!(
                "{label}: the recovery checkpoint's snapshot is {snapshot} bytes, over the \
                 {bound} bytes its {} resident canon nodes allow",
                dag.resident_nodes
            ));
        }
        unfolding_breaks = 5 * dag.logical_nodes > bound;
    }
    broken.extend(over_bound(label, n, work));
    (broken, unfolding_breaks)
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
    let mut sharp = 0;
    let broken: Vec<String> = shapes()
        .iter()
        .flat_map(|(_, label, arena, root)| {
            let (broken, unfolding_breaks) = check_term(label, arena, *root);
            sharp += usize::from(unfolding_breaks);
            broken
        })
        .collect();
    assert!(broken.is_empty(), "{}", broken.join("\n"));
    assert!(
        sharp > 0,
        "no shape tells a shared snapshot from an unfolded one"
    );
}

#[test]
fn subexpressions_ingest_probes_and_updates_stay_within_n_log_squared_n() {
    let broken: Vec<String> = shapes()
        .iter()
        .flat_map(|(_, label, arena, root)| check_subexpressions_term(label, arena, *root, false).0)
        .collect();
    assert!(broken.is_empty(), "{}", broken.join("\n"));
}

#[test]
fn subexpressions_reopen_stays_within_n_log_squared_n_at_every_size() {
    let mut sharp = 0;
    let broken: Vec<String> = shapes()
        .iter()
        .flat_map(|(_, label, arena, root)| {
            let (broken, unfolding_breaks) = check_subexpressions_term(label, arena, *root, true);
            sharp += usize::from(unfolding_breaks);
            broken
        })
        .collect();
    assert!(broken.is_empty(), "{}", broken.join("\n"));
    assert!(
        sharp > 0,
        "no shape tells a table-image snapshot from a de Bruijn tree per class"
    );
}
