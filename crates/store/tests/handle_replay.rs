//! Handles survive replay: every `TermId` and `ClassId` a durable store
//! issued under concurrent ingest names the same class after a reopen
//! that replays the WAL.
//!
//! A shard issues ids in the order it applies inserts, and replay applies
//! the WAL's groups in log order, so the two agree only if the live store
//! applied its groups in the order it logged them. Here several threads
//! `insert_batch` small batches into one durable store and update terms
//! they were issued, in both granularities, with one shard and with the
//! default shard count, for a fixed number of seeded rounds. The store is
//! then dropped without a checkpoint and reopened from its WAL: the open
//! must succeed (a delta names its term by `TermId`, so a reassigned
//! handle fails its old-hash check), and every issued handle must name
//! the canonical text it named before.

use alpha_store::{AlphaStore, ClassId, Granularity, Rewrite, TermId};
use lambda_lang::arena::ExprArena;
use lambda_lang::parse::parse;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::path::PathBuf;

const THREADS: u64 = 3;
const TERMS_PER_THREAD: usize = 240;
const TERMS_PER_CALL: usize = 4;
/// Every this many issued terms, a thread updates the last one.
const UPDATE_EVERY: usize = 20;
const ROUNDS: u64 = 3;

/// A fresh temp directory, removed on drop (even when a case fails).
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        use std::sync::atomic::{AtomicU64, Ordering};
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        TempDir(std::env::temp_dir().join(format!(
            "alpha-store-handles-{}-{tag}-{}",
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

/// What one thread was issued: term and class handles.
#[derive(Default)]
struct Issued {
    terms: Vec<TermId>,
    classes: Vec<ClassId>,
}

/// One thread's work: `TERMS_PER_THREAD` terms in calls of
/// `TERMS_PER_CALL`, every third term drawn from a seed all threads share
/// (so classes merge across threads), and an update of every
/// `UPDATE_EVERY`-th issued term.
fn ingest(store: &AlphaStore<u64>, round: u64, thread: u64) -> Issued {
    let mut arena = ExprArena::new();
    let mut own = StdRng::seed_from_u64(round << 32 | thread);
    let roots: Vec<_> = (0..TERMS_PER_THREAD)
        .map(|i| {
            if i % 3 == 0 {
                let mut shared = StdRng::seed_from_u64(round << 32 | 0x5EED_0000 | i as u64);
                expr_gen::balanced(&mut arena, 12, &mut shared)
            } else {
                expr_gen::balanced(&mut arena, 12, &mut own)
            }
        })
        .collect();
    let mut issued = Issued::default();
    for (c, chunk) in roots.chunks(TERMS_PER_CALL).enumerate() {
        for outcome in store.insert_batch(&arena, chunk) {
            issued.terms.push(outcome.term);
            issued.classes.push(outcome.class);
        }
        if ((c + 1) * TERMS_PER_CALL).is_multiple_of(UPDATE_EVERY) {
            let term = *issued.terms.last().expect("a term was issued");
            let patch = parse(&mut arena, &format!("u{thread} * {c}")).expect("parses");
            let rewrite = Rewrite {
                path: &[],
                arena: &arena,
                root: patch,
            };
            issued.classes.push(store.update(term, rewrite).class);
        }
    }
    issued
}

/// Runs one round and checks every issued handle after a replaying reopen.
fn check_round(granularity: Granularity, shards: usize, round: u64) {
    let dir = TempDir::new("round");
    let builder = || {
        AlphaStore::<u64>::builder()
            .seed(0x1D5)
            .shards(shards)
            .granularity(granularity)
    };
    let (terms, classes) = {
        let store = builder().open_durable(&dir.0).expect("create");
        let issued: Vec<Issued> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..THREADS)
                .map(|t| {
                    let store = &store;
                    scope.spawn(move || ingest(store, round, t))
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let terms: BTreeMap<TermId, String> = issued
            .iter()
            .flat_map(|i| &i.terms)
            .map(|&t| (t, store.canonical_text(store.class_of(t))))
            .collect();
        let classes: BTreeMap<ClassId, String> = issued
            .iter()
            .flat_map(|i| &i.classes)
            .map(|&c| (c, store.canonical_text(c)))
            .collect();
        assert_eq!(terms.len(), THREADS as usize * TERMS_PER_THREAD);
        (terms, classes)
    }; // dropped without a checkpoint: the reopen replays the WAL

    let what = format!("{granularity:?}, {shards} shards, round {round}");
    let reopened = match AlphaStore::<u64>::open(&dir.0) {
        Ok(store) => store,
        Err(e) => panic!("{what}: the reopen refused the store: {e}"),
    };
    assert!(
        reopened
            .recovery_info()
            .is_some_and(|r| r.replayed_records > 0),
        "{what}: the reopen replays the WAL"
    );
    assert_eq!(reopened.num_terms(), terms.len(), "{what}");
    let moved_terms = terms
        .iter()
        .filter(|&(&t, text)| reopened.canonical_text(reopened.class_of(t)) != *text)
        .count();
    let moved_classes = classes
        .iter()
        .filter(|&(&c, text)| reopened.canonical_text(c) != *text)
        .count();
    assert_eq!(
        (moved_terms, moved_classes),
        (0, 0),
        "{what}: issued term and class handles that name another class after replay \
         (of {} and {})",
        terms.len(),
        classes.len()
    );
    assert!(reopened.stats().is_exact(), "{what}");
}

#[test]
fn concurrent_durable_handles_survive_replay() {
    for granularity in [
        Granularity::Roots,
        Granularity::Subexpressions { min_nodes: 2 },
    ] {
        for shards in [1, AlphaStore::<u64>::default_shards()] {
            for round in 0..ROUNDS {
                check_round(granularity, shards, round);
            }
        }
    }
}

/// A logged group is one chunk of the store that wrote it, and replay
/// applies it as one chunk whatever `chunk_entries` the reopening store
/// has: re-chunked, a `Subexpressions` group would create its classes in
/// another order and give them other ids.
#[test]
fn a_reopen_with_smaller_chunks_issues_the_same_handles() {
    let dir = TempDir::new("rechunk");
    let mut arena = ExprArena::new();
    let mut rng = StdRng::seed_from_u64(5);
    let roots: Vec<_> = (0..60)
        .map(|_| expr_gen::balanced(&mut arena, 14, &mut rng))
        .collect();
    let builder = || {
        AlphaStore::<u64>::builder()
            .seed(3)
            .shards(4)
            .subexpressions(2)
    };
    let before: Vec<(TermId, ClassId, String)> = {
        let store = builder().open_durable(&dir.0).expect("create");
        store
            .insert_batch(&arena, &roots)
            .into_iter()
            .map(|o| (o.term, o.class, store.canonical_text(o.class)))
            .collect()
    };
    let reopened = builder()
        .chunk_entries(16)
        .open_durable(&dir.0)
        .expect("reopen");
    let moved = before
        .iter()
        .filter(|(term, class, text)| {
            reopened.canonical_text(reopened.class_of(*term)) != *text
                || reopened.canonical_text(*class) != *text
        })
        .count();
    assert_eq!(moved, 0, "handles moved by a re-chunked replay");
}
