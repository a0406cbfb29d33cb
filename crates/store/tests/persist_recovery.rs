//! Crash-recovery property tests for the durable store.
//!
//! The contract under test: **whatever byte the crash lands on, recovery
//! rebuilds exactly the store a fresh build over the surviving prefix
//! would have built.** Each case ingests a random forest into a durable
//! store, "crashes" it by truncating the WAL at a random byte offset
//! (mid-record cuts included — that is the realistic torn-write shape),
//! reopens, and checks the recovered store against an in-memory oracle
//! fed the same terms:
//!
//! * same term count (the intact WAL prefix), same class partition over
//!   those terms, same canonical representatives with the same
//!   member/occurrence/node counts per class;
//! * identical [`StoreStats`] — recovery replays through the normal
//!   ingest path, so the counters reconcile exactly, and
//!   `unconfirmed_merges` stays 0 (every replayed merge re-confirmed);
//! * at u64 and u128 hash widths, at `Roots` and `Subexpressions`
//!   granularity, with and without a mid-stream snapshot (so cuts land
//!   both before and after what the snapshot absorbed).

use alpha_hash::combine::{HashScheme, HashWord};
use alpha_store::{AlphaStore, ClassId, Granularity, StoreStats};
use lambda_lang::arena::{ExprArena, NodeId};
use lambda_lang::uniquify::uniquify_into;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// A fresh temp directory, removed on drop (even when a case fails).
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        use std::sync::atomic::{AtomicU64, Ordering};
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let path = std::env::temp_dir().join(format!(
            "alpha-store-recovery-{}-{}-{}",
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

/// A varied corpus with alpha-duplicates: three generator families, seeds
/// drawn from a small pool, every other term alpha-renamed.
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

/// Everything observable about a store's classes, keyed by canonical text
/// (the class identity): member, occurrence and node counts. Two stores
/// with equal maps hold the same classes with the same bookkeeping.
fn class_census<H: HashWord>(store: &AlphaStore<H>) -> BTreeMap<String, (u64, u64, usize)> {
    let mut census = BTreeMap::new();
    for class in store.classes() {
        let old = census.insert(
            store.canonical_text(class),
            (
                store.members(class),
                store.occurrences(class),
                store.node_count(class),
            ),
        );
        assert!(old.is_none(), "duplicate canonical form across classes");
    }
    census
}

/// The partition of `terms` into alpha-classes, as sorted index groups.
fn partition_of<H: HashWord>(
    store: &AlphaStore<H>,
    arena: &ExprArena,
    terms: &[NodeId],
) -> Vec<Vec<usize>> {
    let mut groups: BTreeMap<ClassId, Vec<usize>> = BTreeMap::new();
    for (i, &t) in terms.iter().enumerate() {
        let class = store
            .lookup(arena, t)
            .expect("every surviving term is findable");
        groups.entry(class).or_default().push(i);
    }
    let mut out: Vec<Vec<usize>> = groups.into_values().collect();
    out.sort();
    out
}

struct Recovered {
    terms_survived: usize,
    stats: StoreStats,
}

/// The generic crash/recover/compare scenario. Returns what survived so
/// callers can assert cut-position-dependent facts.
fn check_recovery<H: HashWord>(
    tag: &str,
    seed: u64,
    granularity: Granularity,
    cut_fraction: f64,
    snapshot_mid: bool,
) -> Recovered {
    let scheme: HashScheme<H> = HashScheme::new(0xD15C ^ seed);
    let mut arena = ExprArena::new();
    let roots = corpus(&mut arena, seed, 36);
    let builder = || {
        AlphaStore::<H>::builder()
            .scheme(scheme)
            .shards(4)
            .granularity(granularity)
            // Small chunks: many group commits, so cuts land between and
            // inside groups alike.
            .chunk_entries(16)
    };

    let dir = TempDir::new(tag);
    let wal_path = dir.path().join("wal.bin");

    // Build the durable store; optionally snapshot mid-stream so the cut
    // can land in records the snapshot has already absorbed.
    {
        let store = builder().open_durable(dir.path()).expect("create durable");
        let (first, second) = roots.split_at(roots.len() / 2);
        store.insert_batch(&arena, first);
        if snapshot_mid {
            store.snapshot().expect("mid-stream snapshot");
        }
        store.insert_batch(&arena, second);
        assert_eq!(store.wal_records(), Some(roots.len() as u64));
    } // drop = crash without shutdown ceremony

    // The crash: truncate the WAL at a random byte offset within the
    // records region (a cut inside the header is unrecoverable corruption
    // by design, and tested separately).
    let header_len = {
        let probe = TempDir::new("header-probe");
        builder().open_durable(probe.path()).expect("probe store");
        std::fs::metadata(probe.path().join("wal.bin"))
            .expect("probe wal")
            .len()
    };
    let full_len = std::fs::metadata(&wal_path).expect("wal exists").len();
    assert!(full_len > header_len, "corpus must produce WAL records");
    let cut = header_len + ((full_len - header_len) as f64 * cut_fraction) as u64;
    std::fs::OpenOptions::new()
        .write(true)
        .open(&wal_path)
        .expect("open wal for truncation")
        .set_len(cut)
        .expect("truncate wal");

    // Recover.
    let recovered = AlphaStore::<H>::open(dir.path()).expect("recovery succeeds");
    let survived = recovered.num_terms();
    assert!(survived <= roots.len());
    if snapshot_mid {
        assert!(
            survived >= roots.len() / 2,
            "records absorbed by the mid-stream snapshot cannot be lost to a WAL cut"
        );
    }
    // Recovery either checkpointed (fresh snapshot, empty WAL) or — when
    // the cut landed exactly on the boundary of what a mid-stream
    // snapshot had already absorbed — took the clean-reopen fast path and
    // kept the absorbed records in place. Both leave a consistent pair;
    // a WAL longer than the snapshot's absorption is impossible here.
    let wal_after = recovered.wal_records().expect("recovered store is durable");
    assert!(
        wal_after == 0 || (snapshot_mid && wal_after as usize == survived),
        "unexpected WAL length {wal_after} after recovery of {survived} terms"
    );

    // Oracle: a fresh in-memory build over exactly the surviving prefix,
    // issued with the SAME batch-call pattern as the original store (two
    // insert_batch calls split at the halfway mark). WAL group-commit
    // boundary markers make replay reproduce the original ingest groups,
    // so the oracle must reproduce them too — and then even the
    // chunk-boundary-dependent split between `merges_confirmed` and
    // `subterm_merges_confirmed` reconciles EXACTLY, not just as a sum.
    let oracle = builder().build();
    let half = roots.len() / 2;
    oracle.insert_batch(&arena, &roots[..survived.min(half)]);
    if survived > half {
        oracle.insert_batch(&arena, &roots[half..survived]);
    }

    assert_eq!(recovered.num_classes(), oracle.num_classes());
    assert_eq!(class_census(&recovered), class_census(&oracle));
    assert_eq!(
        partition_of(&recovered, &arena, &roots[..survived]),
        partition_of(&oracle, &arena, &roots[..survived]),
    );
    let stats = recovered.stats();
    let truth = oracle.stats();
    assert_eq!(
        stats, truth,
        "group-marked replay must reconcile the full stats, split included"
    );
    assert!(stats.is_exact(), "0 unconfirmed merges after recovery");
    assert_eq!(stats.terms_ingested as usize, survived);

    // And the recovered store keeps working: reinserting an already-known
    // term merges instead of forking a class.
    if survived > 0 {
        let outcome = recovered.insert(&arena, roots[0]);
        assert!(!outcome.fresh);
    }
    Recovered {
        terms_survived: survived,
        stats,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn roots_recovery_matches_oracle(
        seed in any::<u64>(),
        cut_ppm in 0u64..1_000_000,
        snapshot_mid in any::<bool>(),
    ) {
        let cut_fraction = cut_ppm as f64 / 1e6;
        let r64 = check_recovery::<u64>("roots64", seed, Granularity::Roots, cut_fraction, snapshot_mid);
        let r128 = check_recovery::<u128>("roots128", seed, Granularity::Roots, cut_fraction, snapshot_mid);
        // Widths agree on what a record is, so the same cut fraction
        // cannot diverge wildly; both must at least agree on exactness.
        prop_assert!(r64.stats.is_exact() && r128.stats.is_exact());
    }

    #[test]
    fn subexpression_recovery_matches_oracle(
        seed in any::<u64>(),
        cut_ppm in 0u64..1_000_000,
        snapshot_mid in any::<bool>(),
        floor_wide in any::<bool>(),
    ) {
        let cut_fraction = cut_ppm as f64 / 1e6;
        let min_nodes = if floor_wide { 4 } else { 1 };
        let g = Granularity::Subexpressions { min_nodes };
        let r64 = check_recovery::<u64>("subs64", seed, g, cut_fraction, snapshot_mid);
        let r128 = check_recovery::<u128>("subs128", seed, g, cut_fraction, snapshot_mid);
        prop_assert!(r64.stats.is_exact() && r128.stats.is_exact());
        // The subexpression index must actually have been exercised.
        if r64.terms_survived > 0 {
            prop_assert!(r64.stats.subterms_indexed > 0);
        }
        if r128.terms_survived > 0 {
            prop_assert!(r128.stats.subterms_indexed > 0);
        }
    }
}

#[test]
fn snapshot_roundtrip_preserves_handles_and_stats() {
    // The acceptance-criteria shape minus the crash: snapshot → drop →
    // open must preserve the partition, the canonical representatives,
    // the stats AND the issued handles (snapshot loads are verbatim, no
    // replay renumbering).
    let dir = TempDir::new("roundtrip");
    let mut arena = ExprArena::new();
    let roots = corpus(&mut arena, 0xE0E0, 60);
    let builder = || {
        AlphaStore::<u64>::builder()
            .seed(0x5EED)
            .shards(8)
            .subexpressions(3)
    };

    let (outcomes, stats_before) = {
        let store = builder().open_durable(dir.path()).expect("create");
        let outcomes = store.insert_batch(&arena, &roots);
        store.snapshot().expect("snapshot");
        (outcomes, store.stats())
    };

    let reopened = builder().open_durable(dir.path()).expect("reopen");
    assert_eq!(reopened.stats(), stats_before);
    assert_eq!(reopened.num_terms(), roots.len());
    for (outcome, &root) in outcomes.iter().zip(&roots) {
        assert_eq!(reopened.class_of(outcome.term), outcome.class);
        assert_eq!(reopened.lookup(&arena, root), Some(outcome.class));
        let subs: Vec<ClassId> = reopened.subterm_classes(outcome.term).collect();
        assert!(subs.contains(&outcome.class));
    }
}

#[test]
fn compact_then_recover_replays_nothing_twice() {
    let dir = TempDir::new("compact");
    let mut arena = ExprArena::new();
    let roots = corpus(&mut arena, 0xC0C0, 40);
    let builder = || AlphaStore::<u64>::builder().seed(3).shards(4);

    {
        let store = builder().open_durable(dir.path()).expect("create");
        store.insert_batch(&arena, &roots[..20]);
        store.checkpoint().expect("checkpoint");
        assert_eq!(store.wal_records(), Some(0));
        store.insert_batch(&arena, &roots[20..]);
        assert_eq!(store.wal_records(), Some(20));
    }

    let reopened = builder().open_durable(dir.path()).expect("reopen");
    assert_eq!(reopened.num_terms(), roots.len());
    let oracle = builder().build();
    oracle.insert_batch(&arena, &roots);
    assert_eq!(reopened.stats(), oracle.stats());
    assert_eq!(class_census(&reopened), class_census(&oracle));
}

#[test]
fn stale_epoch_wal_is_discarded_not_replayed() {
    // Simulate a crash between compaction's snapshot rename and WAL
    // reset: compact, then restore the pre-compaction WAL file. Its
    // records are all inside the snapshot; recovery must not double-count.
    let dir = TempDir::new("stale-epoch");
    let mut arena = ExprArena::new();
    let roots = corpus(&mut arena, 0xABAB, 30);
    let builder = || AlphaStore::<u64>::builder().seed(9).shards(4);

    let wal_path = dir.path().join("wal.bin");
    {
        let store = builder().open_durable(dir.path()).expect("create");
        store.insert_batch(&arena, &roots);
        let stale_wal = std::fs::read(&wal_path).expect("read wal");
        store.checkpoint().expect("checkpoint");
        // Crash simulation: the old WAL comes back from the dead.
        std::fs::write(&wal_path, stale_wal).expect("restore stale wal");
    }

    let reopened = builder().open_durable(dir.path()).expect("reopen");
    let oracle = builder().build();
    oracle.insert_batch(&arena, &roots);
    assert_eq!(reopened.num_terms(), roots.len(), "no record lost");
    assert_eq!(reopened.stats(), oracle.stats(), "no record replayed twice");
}

/// `Result::unwrap_err` needs `Debug` on the success type; the store has
/// none, so unwrap the error by hand.
fn expect_err<H: HashWord>(
    result: Result<AlphaStore<H>, alpha_store::PersistError>,
) -> alpha_store::PersistError {
    match result {
        Ok(_) => panic!("expected opening to fail"),
        Err(e) => e,
    }
}

#[test]
fn config_mismatches_are_rejected() {
    let dir = TempDir::new("mismatch");
    let mut arena = ExprArena::new();
    let root = corpus(&mut arena, 1, 1)[0];
    AlphaStore::<u64>::builder()
        .seed(7)
        .shards(4)
        .open_durable(dir.path())
        .expect("create")
        .insert(&arena, root);

    use alpha_store::PersistError;
    // Wrong seed.
    let err = expect_err(
        AlphaStore::<u64>::builder()
            .seed(8)
            .shards(4)
            .open_durable(dir.path()),
    );
    assert!(matches!(err, PersistError::Mismatch { .. }), "{err}");
    // Wrong shard count.
    let err = expect_err(
        AlphaStore::<u64>::builder()
            .seed(7)
            .shards(16)
            .open_durable(dir.path()),
    );
    assert!(matches!(err, PersistError::Mismatch { .. }), "{err}");
    // Wrong granularity.
    let err = expect_err(
        AlphaStore::<u64>::builder()
            .seed(7)
            .shards(4)
            .subexpressions(2)
            .open_durable(dir.path()),
    );
    assert!(matches!(err, PersistError::Mismatch { .. }), "{err}");
    // Wrong hash width.
    let err = expect_err(AlphaStore::<u128>::open(dir.path()));
    assert!(matches!(err, PersistError::Mismatch { .. }), "{err}");
    // The right configuration still opens.
    let store = AlphaStore::<u64>::builder()
        .seed(7)
        .shards(4)
        .open_durable(dir.path())
        .expect("matching config reopens");
    assert_eq!(store.num_terms(), 1);
}

/// Every identity mismatch (seed, shard count, granularity, hash width)
/// is refused by a WAL-only directory and by a checkpointed one (a
/// snapshot and its WAL) alike, naming the field and the file that
/// disagree, and leaves the directory reopenable by the matching
/// configuration.
#[test]
fn identity_mismatches_are_rejected_with_and_without_a_snapshot() {
    use alpha_store::PersistError;
    let mut arena = ExprArena::new();
    let roots = corpus(&mut arena, 0x1D, 6);
    let builder = || AlphaStore::<u64>::builder().seed(7).shards(4);
    for checkpointed in [false, true] {
        let dir = TempDir::new("identity");
        {
            let store = builder().open_durable(dir.path()).expect("create");
            store.insert_batch(&arena, &roots);
            if checkpointed {
                store.checkpoint().expect("checkpoint");
            }
        }
        assert_eq!(dir.path().join("snapshot.bin").is_file(), checkpointed);
        // The snapshot is checked first when there is one.
        let file = if checkpointed {
            "snapshot.bin"
        } else {
            "wal.bin"
        };
        let refusals = [
            (
                expect_err(builder().seed(8).open_durable(dir.path())),
                "scheme seed",
            ),
            (
                expect_err(builder().shards(16).open_durable(dir.path())),
                "shard count",
            ),
            (
                expect_err(builder().subexpressions(2).open_durable(dir.path())),
                "granularity",
            ),
            (
                expect_err(AlphaStore::<u128>::open(dir.path())),
                "hash width",
            ),
        ];
        for (err, field) in refusals {
            assert!(matches!(err, PersistError::Mismatch { .. }), "{err}");
            let msg = err.to_string();
            assert!(msg.contains(&format!("{file} has {field}")), "{msg}");
        }
        let store = builder()
            .open_durable(dir.path())
            .expect("matching builder reopens");
        assert_eq!(store.num_terms(), roots.len());
        drop(store);
        let store = AlphaStore::<u64>::open(dir.path()).expect("matching width reopens");
        assert_eq!(store.num_terms(), roots.len());
        assert_eq!(store.scheme().seed(), HashScheme::<u64>::new(7).seed());
        assert_eq!(store.shard_count(), 4);
    }
}

/// Another store's WAL next to this store's snapshot is refused even when
/// the epochs line up: two stores of different seeds, each checkpointed
/// once (both WALs at epoch 2), then the second one's `wal.bin` copied
/// over the first's.
#[test]
fn foreign_wal_next_to_a_snapshot_is_a_mismatch() {
    use alpha_store::PersistError;
    let mut arena = ExprArena::new();
    let roots = corpus(&mut arena, 0xF0, 8);
    let builder = |seed| AlphaStore::<u64>::builder().seed(seed).shards(4);
    let first = TempDir::new("foreign-first");
    let second = TempDir::new("foreign-second");
    for (dir, seed) in [(&first, 7), (&second, 8)] {
        let store = builder(seed).open_durable(dir.path()).expect("create");
        store.insert_batch(&arena, &roots);
        store.checkpoint().expect("checkpoint");
    }
    // The WAL header's epoch is its last 8 bytes (magic, version,
    // 25-byte identity, epoch).
    for dir in [&first, &second] {
        let wal = std::fs::read(dir.path().join("wal.bin")).expect("read wal");
        assert_eq!(wal[35..43], 2u64.to_le_bytes(), "checkpointed once");
    }
    std::fs::copy(second.path().join("wal.bin"), first.path().join("wal.bin"))
        .expect("copy the foreign WAL");
    let refusals = [
        expect_err(builder(7).open_durable(first.path())),
        expect_err(AlphaStore::<u64>::open(first.path())),
    ];
    for err in refusals {
        assert!(matches!(err, PersistError::Mismatch { .. }), "{err}");
        assert!(err.to_string().contains("wal.bin has scheme seed"), "{err}");
    }
}

#[test]
fn clean_reopen_skips_the_checkpoint_and_keeps_appending() {
    // A store whose snapshot already absorbed every WAL record reopens
    // without rewriting the snapshot (no O(store) churn on a no-op
    // reopen) and keeps appending to the same WAL — and a further reopen
    // replays exactly the records appended after the snapshot.
    let dir = TempDir::new("clean-reopen");
    let mut arena = ExprArena::new();
    let roots = corpus(&mut arena, 0xCAFE, 30);
    let builder = || AlphaStore::<u64>::builder().seed(13).shards(4);

    {
        let store = builder().open_durable(dir.path()).expect("create");
        store.insert_batch(&arena, &roots[..10]);
        store.snapshot().expect("snapshot");
    }
    let snap_path = dir.path().join("snapshot.bin");
    let snap_before = std::fs::read(&snap_path).expect("snapshot bytes");

    {
        let reopened = builder().open_durable(dir.path()).expect("clean reopen");
        assert_eq!(reopened.num_terms(), 10);
        assert_eq!(
            reopened.wal_records(),
            Some(10),
            "clean reopen keeps the absorbed WAL in place"
        );
        assert_eq!(
            std::fs::read(&snap_path).expect("snapshot bytes"),
            snap_before,
            "clean reopen must not rewrite the snapshot"
        );
        reopened.insert_batch(&arena, &roots[10..]);
        assert_eq!(reopened.wal_records(), Some(30));
    }

    // The next open replays only the 20 appended records on top of the
    // 10-term snapshot, matching a fresh build of all 30.
    let recovered = builder().open_durable(dir.path()).expect("recover");
    assert_eq!(recovered.num_terms(), roots.len());
    let oracle = builder().build();
    oracle.insert_batch(&arena, &roots);
    assert_eq!(recovered.stats(), oracle.stats());
    assert_eq!(class_census(&recovered), class_census(&oracle));
}

#[test]
fn undecodable_wal_header_with_intact_snapshot_recovers_to_the_snapshot() {
    // A disk-full or crash during WAL reset can leave wal.bin empty or
    // with a garbage header. With an intact snapshot, recovery must fall
    // back to the snapshot (the authoritative committed state) instead of
    // failing forever.
    let dir = TempDir::new("wal-header");
    let mut arena = ExprArena::new();
    let roots = corpus(&mut arena, 0xFEFE, 20);
    let builder = || AlphaStore::<u64>::builder().seed(5).shards(4);
    {
        let store = builder().open_durable(dir.path()).expect("create");
        store.insert_batch(&arena, &roots);
        store.snapshot().expect("snapshot");
    }
    let wal_path = dir.path().join("wal.bin");
    for bad_wal in [&b""[..], &b"garbage, not a WAL header at all"[..]] {
        std::fs::write(&wal_path, bad_wal).expect("corrupt the wal");
        let reopened = builder()
            .open_durable(dir.path())
            .expect("snapshot-backed recovery survives a destroyed WAL header");
        assert_eq!(reopened.num_terms(), roots.len());
        assert!(reopened.stats().is_exact());
    }
    // Without a snapshot, the same corruption is rightly fatal.
    std::fs::remove_file(dir.path().join("snapshot.bin")).expect("drop snapshot");
    std::fs::write(&wal_path, b"garbage").expect("corrupt the wal");
    let err = expect_err(AlphaStore::<u64>::open(dir.path()));
    assert!(
        matches!(err, alpha_store::PersistError::Corrupt { .. }),
        "{err}"
    );
}

#[test]
fn merge_counter_split_survives_reopen_exactly() {
    // ROADMAP item e: WAL group-commit boundary markers let replay
    // reproduce the root-vs-subterm merge-counter *split*, not just its
    // sum — even across an irregular mix of singles and batches.
    let dir = TempDir::new("split");
    let mut arena = ExprArena::new();
    let roots = corpus(&mut arena, 0x5717, 30);
    let builder = || {
        AlphaStore::<u64>::builder()
            .seed(21)
            .shards(4)
            .subexpressions(2)
            .chunk_entries(8)
    };
    let stats_before = {
        let store = builder().open_durable(dir.path()).expect("create");
        store.insert(&arena, roots[0]);
        store.insert_batch(&arena, &roots[1..7]);
        store.insert(&arena, roots[7]);
        store.insert_batch(&arena, &roots[7..]); // roots[7] again: a root merge
        store.stats()
    };
    assert!(stats_before.merges_confirmed > 0, "{stats_before}");
    assert!(stats_before.subterm_merges_confirmed > 0, "{stats_before}");

    let reopened = builder().open_durable(dir.path()).expect("reopen");
    assert_eq!(
        reopened.stats(),
        stats_before,
        "replay must reproduce the merge-counter split exactly"
    );
}

/// Rewrites every WAL frame's CRC to match its (possibly tampered)
/// payload, so the tampering is invisible to the frame check — the
/// "consistent corruption" shape only paranoid replay can catch.
fn refresh_wal_crcs(wal_path: &Path) {
    const WAL_HEADER_LEN: usize = 43;
    let mut bytes = std::fs::read(wal_path).expect("read wal");
    let mut offset = WAL_HEADER_LEN;
    while offset + 8 <= bytes.len() {
        let len = u32::from_le_bytes(bytes[offset..offset + 4].try_into().unwrap()) as usize;
        let payload_start = offset + 8;
        let payload_end = payload_start + len;
        if payload_end > bytes.len() {
            break;
        }
        let crc = alpha_store::codec::crc32(&bytes[payload_start..payload_end]);
        bytes[offset + 4..offset + 8].copy_from_slice(&crc.to_le_bytes());
        offset = payload_end;
    }
    std::fs::write(wal_path, &bytes).expect("write wal");
}

#[test]
fn verify_on_replay_catches_crc_consistent_canon_corruption() {
    // ROADMAP item d: flip a byte inside a record's canonical payload and
    // re-CRC the frame. The default open replays it without complaint
    // (CRC passes, and db_eq only compares canon against canon — the
    // hash/canon pair is never cross-checked), silently storing a class
    // whose content address belongs to a different term. Paranoid mode
    // re-hashes the payload and refuses.
    let dir = TempDir::new("paranoid");
    let mut arena = ExprArena::new();
    let t1 = lambda_lang::parse(&mut arena, "qq + 1").unwrap();
    let t2 = lambda_lang::parse(&mut arena, r"\x. x * qq").unwrap();
    let builder = || AlphaStore::<u64>::builder().seed(17).shards(2);
    {
        let store = builder().open_durable(dir.path()).expect("create");
        store.insert(&arena, t1);
        store.insert(&arena, t2);
    }

    // Tamper: the free variable "qq" becomes "qz" inside the WAL records
    // (string payloads: [len=2 u32]['q']['q']), then re-frame.
    let wal_path = dir.path().join("wal.bin");
    let mut bytes = std::fs::read(&wal_path).expect("read wal");
    let needle = [2u8, 0, 0, 0, b'q', b'q'];
    let mut tampered = 0;
    let mut i = 0;
    while i + needle.len() <= bytes.len() {
        if bytes[i..i + needle.len()] == needle {
            bytes[i + 5] = b'z';
            tampered += 1;
        }
        i += 1;
    }
    assert!(tampered > 0, "the name must appear in the WAL");
    std::fs::write(&wal_path, &bytes).expect("write wal");
    refresh_wal_crcs(&wal_path);

    // Paranoid open: caught. (Runs first — it fails before any
    // checkpoint, leaving the directory untouched for the second open.)
    let err = expect_err(builder().verify_on_replay(true).open_durable(dir.path()));
    assert!(
        matches!(err, alpha_store::PersistError::Corrupt { .. }),
        "verify_on_replay must reject the tampered record: {err}"
    );

    // Default open: replays "cleanly" — CRC and db_eq alone cannot see
    // the damage; the store now answers for the tampered term. This is
    // exactly the gap paranoid mode closes.
    let store = builder().open_durable(dir.path()).expect("default open");
    assert_eq!(store.num_terms(), 2);
    let tampered_term = lambda_lang::parse(&mut arena, "qz + 1").unwrap();
    assert_eq!(
        store.lookup(&arena, tampered_term),
        None,
        "the tampered canon is filed under the ORIGINAL term's address, \
         so not even the tampered term finds it"
    );
}

/// A `Subexpressions` record is the term as ingested, and replay
/// re-prepares it, so the same CRC-consistent tampering is caught by
/// every open, paranoid or not: the term re-hashes to an address other
/// than the one its record claims.
#[test]
fn a_subexpressions_record_that_misses_its_hash_is_always_corrupt() {
    let dir = TempDir::new("subs-rehash");
    let mut arena = ExprArena::new();
    let t1 = lambda_lang::parse(&mut arena, "qq + 1").unwrap();
    let t2 = lambda_lang::parse(&mut arena, r"\x. x * qq").unwrap();
    let builder = || {
        AlphaStore::<u64>::builder()
            .seed(17)
            .shards(2)
            .subexpressions(1)
    };
    {
        let store = builder().open_durable(dir.path()).expect("create");
        store.insert(&arena, t1);
        store.insert(&arena, t2);
    }
    let wal_path = dir.path().join("wal.bin");
    let mut bytes = std::fs::read(&wal_path).expect("read wal");
    let needle = [2u8, 0, 0, 0, b'q', b'q'];
    let at = bytes
        .windows(needle.len())
        .position(|w| w == needle)
        .expect("the name appears in the WAL");
    bytes[at + 5] = b'z';
    std::fs::write(&wal_path, &bytes).expect("write wal");
    refresh_wal_crcs(&wal_path);
    for verify in [false, true] {
        let err = expect_err(builder().verify_on_replay(verify).open_durable(dir.path()));
        assert!(
            matches!(err, alpha_store::PersistError::Corrupt { .. }),
            "verify_on_replay({verify}) must reject the tampered term: {err}"
        );
    }
}

#[test]
fn second_opener_is_locked_out_until_the_first_drops() {
    let dir = TempDir::new("locked");
    let mut arena = ExprArena::new();
    let root = corpus(&mut arena, 2, 1)[0];
    let builder = || AlphaStore::<u64>::builder().seed(11).shards(4);

    let first = builder().open_durable(dir.path()).expect("create");
    first.insert(&arena, root);
    // While `first` lives, any second open — recovery or create — fails
    // fast instead of truncating the WAL `first` is appending to.
    let err = expect_err(builder().open_durable(dir.path()));
    assert!(
        matches!(err, alpha_store::PersistError::Locked { .. }),
        "{err}"
    );
    let err = expect_err(AlphaStore::<u64>::open(dir.path()));
    assert!(
        matches!(err, alpha_store::PersistError::Locked { .. }),
        "{err}"
    );

    drop(first);
    let second = builder().open_durable(dir.path()).expect("lock released");
    assert_eq!(second.num_terms(), 1);
}

#[test]
fn opening_nothing_is_not_found() {
    let dir = TempDir::new("empty");
    std::fs::create_dir_all(dir.path()).unwrap();
    let err = expect_err(AlphaStore::<u64>::open(dir.path()));
    assert!(matches!(err, alpha_store::PersistError::Io(ref e)
        if e.kind() == std::io::ErrorKind::NotFound));
}
