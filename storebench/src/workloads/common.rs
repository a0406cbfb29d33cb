//! Pieces the workloads share: the store configuration, the census
//! used by the correctness gates, probe checks and the layer replays.

use super::Bench;
use crate::corpus::{Corpus, Probes};
use crate::stats::median;
use alpha_hash::combine::HashScheme;
use alpha_store::{AlphaStore, ClassId, Preparer, StoreBuilder};
use lambda_lang::arena::{ExprArena, NodeId};
use std::hint::black_box;
use std::time::Instant;

/// Hash-scheme seed of every store the benchmark builds.
pub const SCHEME_SEED: u64 = 0x5EED_A1FA;

/// The builder every workload starts from (shard counts at their
/// defaults).
pub fn builder() -> StoreBuilder<u64> {
    AlphaStore::builder().seed(SCHEME_SEED)
}

/// The scheme those stores hash with.
pub fn scheme() -> HashScheme<u64> {
    HashScheme::new(SCHEME_SEED)
}

/// What a store holds, independent of class numbering: class and term
/// counts plus each class's (hash, members, nodes), sorted.
#[derive(Debug, PartialEq, Eq)]
pub struct Census {
    classes: usize,
    terms: usize,
    rows: Vec<(u64, u64, usize)>,
}

impl Census {
    /// Takes the census of `store`.
    pub fn of(store: &AlphaStore<u64>) -> Census {
        let mut rows: Vec<(u64, u64, usize)> = store
            .classes()
            .map(|c| (store.hash_of(c), store.members(c), store.node_count(c)))
            .collect();
        rows.sort_unstable();
        Census {
            classes: store.num_classes(),
            terms: store.num_terms(),
            rows,
        }
    }
}

/// Aborts the run if the store ever accepted a merge it did not confirm.
pub fn require_exact(store: &AlphaStore<u64>, when: &str) -> Result<(), String> {
    let unconfirmed = store.stats().unconfirmed_merges;
    if unconfirmed == 0 {
        Ok(())
    } else {
        Err(format!("{unconfirmed} unconfirmed merges {when}"))
    }
}

/// Checks that every term of one generated class landed in one store
/// class, given the store class of each corpus term.
pub fn check_ingest(b: &mut Bench, corpus: &Corpus, classes: &[ClassId]) {
    let mut seen: Vec<Option<ClassId>> = vec![None; corpus.classes as usize];
    for (i, &class) in classes.iter().enumerate() {
        let slot = &mut seen[corpus.class[i] as usize];
        match slot {
            Some(c) if *c != class => {
                b.fail(format!(
                    "corpus term {i} split from its alpha-equivalent copies"
                ));
            }
            _ => *slot = Some(class),
        }
    }
}

/// Checks one probe answer against its present/absent label.
pub fn check_probe(
    b: &mut Bench,
    what: &str,
    probes: &Probes,
    i: usize,
    classes: &[ClassId],
    got: Option<ClassId>,
) {
    let want = probes.expect[i].map(|t| classes[t]);
    if got != want {
        b.fail(format!("{what} probe {i}: got {got:?}, want {want:?}"));
    }
}

/// Terms the `hash_expr` replay covers at most.
const HASH_REPLAY_TERMS: usize = 4096;

/// `hash_expr` replayed over (up to [`HASH_REPLAY_TERMS`] of) `roots`,
/// each copied into an arena of its own first so the figure is the
/// hasher's cost per node, not the per-call name-table set-up that
/// `prepare.probe_replay_us` covers: nanoseconds per node.
pub fn hash_replay(arena: &ExprArena, roots: &[NodeId]) -> f64 {
    let scheme = scheme();
    let terms: Vec<(ExprArena, NodeId)> = roots
        .iter()
        .take(HASH_REPLAY_TERMS)
        .map(|&r| {
            let mut own = ExprArena::new();
            let root = own.import_subtree(arena, r);
            (own, root)
        })
        .collect();
    let nodes: usize = terms.iter().map(|(a, r)| a.subtree_size(*r)).sum();
    let start = Instant::now();
    for (own, root) in &terms {
        black_box(alpha_hash::hashed::hash_expr(
            own,
            black_box(*root),
            &scheme,
        ));
    }
    start.elapsed().as_secs_f64() * 1e9 / nodes.max(1) as f64
}

/// A fresh `Preparer` plus `hash_and_canon` for each probe — the
/// per-call work inside `lookup` — as a median in microseconds.
pub fn probe_replay(arena: &ExprArena, roots: &[NodeId]) -> f64 {
    let scheme = scheme();
    let times: Vec<f64> = roots
        .iter()
        .map(|&root| {
            let start = Instant::now();
            let mut preparer = Preparer::new(arena, &scheme);
            black_box(preparer.hash_and_canon(arena, black_box(root)));
            start.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    median(&times)
}
