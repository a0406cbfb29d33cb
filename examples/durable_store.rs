//! Crash-recovery walkthrough of the **durable** alpha-store: ingest a
//! 10,000-term corpus into a store backed by a write-ahead log, "crash"
//! without any shutdown ceremony (plus a simulated torn write), recover,
//! and verify the round-trip invariant — identical class partition,
//! canonical representatives and statistics, with 0 unconfirmed merges
//! after replay.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example durable_store
//! ```

use alpha_hash_bench::store_corpus;
use hash_modulo_alpha::prelude::*;
use hash_modulo_alpha::store::persist;
use std::collections::BTreeMap;
use std::time::Instant;

const TERMS: usize = 10_000;
const SEED_POOL: u64 = 701;

/// Class census keyed by canonical text (the class identity): members,
/// occurrences, node count. Equal censuses = same classes, same
/// representatives, same bookkeeping.
fn census(store: &AlphaStore<u64>) -> BTreeMap<String, (u64, u64, usize)> {
    store
        .classes()
        .map(|c| {
            (
                store.canonical_text(c),
                (store.members(c), store.occurrences(c), store.node_count(c)),
            )
        })
        .collect()
}

fn file_len(path: &std::path::Path) -> u64 {
    std::fs::metadata(path).map(|m| m.len()).unwrap_or(0)
}

fn main() {
    let dir = std::env::temp_dir().join(format!("alpha-store-durable-demo-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let wal_path = dir.join(persist::WAL_FILE);
    let snap_path = dir.join(persist::SNAPSHOT_FILE);

    let mut arena = ExprArena::new();
    let roots = store_corpus(&mut arena, TERMS, SEED_POOL);
    let corpus_nodes: usize = roots.iter().map(|&r| arena.subtree_size(r)).sum();
    println!("corpus: {} terms, {corpus_nodes} nodes", roots.len());

    let builder = || AlphaStore::<u64>::builder().seed(0x5EED).shards(8);

    // ── Life before the crash ────────────────────────────────────────────
    // Ingest in three eras split by two checkpoints (snapshot + WAL
    // truncate), the last era left in the WAL — so recovery exercises
    // snapshot load AND tail replay.
    let (classes_before, census_before, stats_before) = {
        let store = builder().open_durable(&dir).expect("create durable store");
        let start = Instant::now();
        store.insert_batch(&arena, &roots[..6_000]);
        store.checkpoint().expect("checkpoint");
        store.insert_batch(&arena, &roots[6_000..8_000]);
        store.checkpoint().expect("checkpoint");
        store.insert_batch(&arena, &roots[8_000..]);
        let ingest = start.elapsed();
        println!(
            "durable ingest: {:.2?} ({:.0} terms/s), wal {} KiB + snapshot {} KiB",
            ingest,
            roots.len() as f64 / ingest.as_secs_f64(),
            file_len(&wal_path) / 1024,
            file_len(&snap_path) / 1024,
        );
        println!(
            "  wal records awaiting the next snapshot: {}",
            store.wal_records().expect("durable store")
        );

        let classes: Vec<ClassId> = roots
            .iter()
            .map(|&r| store.lookup(&arena, r).expect("ingested"))
            .collect();
        (classes, census(&store), store.stats())
    }; // store dropped — a crash, as far as the files are concerned
    println!("  pre-crash: {stats_before}");
    assert!(stats_before.is_exact());

    // A torn write on top: garbage where the next record would have gone.
    // Recovery must drop it at the CRC check, losing nothing that was
    // actually committed.
    {
        use std::io::Write;
        let mut wal = std::fs::OpenOptions::new()
            .append(true)
            .open(&wal_path)
            .expect("open wal");
        wal.write_all(&[0xAB; 17]).expect("simulate torn write");
    }

    // ── Recovery ─────────────────────────────────────────────────────────
    let start = Instant::now();
    let recovered = AlphaStore::<u64>::open(&dir).expect("recover");
    println!(
        "\nrecovered in {:.2?} (snapshot + WAL tail replay)",
        start.elapsed()
    );

    // The round-trip invariant, on all 10k terms.
    assert_eq!(recovered.num_terms(), roots.len());
    let stats_after = recovered.stats();
    assert_eq!(stats_after, stats_before, "stats survive the round trip");
    assert!(stats_after.is_exact(), "0 unconfirmed merges after replay");
    assert_eq!(
        census(&recovered),
        census_before,
        "same classes, same canon"
    );
    let classes_after: Vec<ClassId> = roots
        .iter()
        .map(|&r| recovered.lookup(&arena, r).expect("still ingested"))
        .collect();
    for (i, j) in (0..roots.len())
        .step_by(151)
        .flat_map(|i| (0..i).step_by(307).map(move |j| (i, j)))
    {
        assert_eq!(
            classes_before[i] == classes_before[j],
            classes_after[i] == classes_after[j],
            "partition changed at pair ({i},{j})"
        );
    }
    println!("  round trip OK: partition, representatives and stats identical");
    println!("  post-recovery: {stats_after}");

    // Recovery checkpointed: fresh snapshot, empty WAL, ready for traffic.
    assert_eq!(recovered.wal_records(), Some(0));
    let again = recovered.insert(&arena, roots[0]);
    assert!(!again.fresh, "old classes keep absorbing new inserts");
    let baseline = recovered.num_terms(); // 10k + the probe insert above

    // ── A harsher crash: truncation mid-record ───────────────────────────
    drop(recovered);
    {
        let store = AlphaStore::<u64>::open(&dir).expect("reopen");
        store.insert_batch(&arena, &roots[..500]); // 500 more records
    }
    let full = file_len(&wal_path);
    let cut = full - 37; // slice into the last record
    std::fs::OpenOptions::new()
        .write(true)
        .open(&wal_path)
        .expect("open wal")
        .set_len(cut)
        .expect("truncate");
    let survivor = AlphaStore::<u64>::open(&dir).expect("recover from torn tail");
    let replayed = survivor.num_terms() - baseline;
    println!(
        "\ntorn-tail crash: WAL cut {} bytes mid-record; {replayed}/500 \
         re-inserts survived, partition still exact: {}",
        full - cut,
        survivor.stats().is_exact(),
    );
    assert!(replayed < 500, "the torn record itself cannot survive");
    assert!(survivor.stats().is_exact());

    std::fs::remove_dir_all(&dir).expect("cleanup");
    println!("\ndurable store demo OK");
}
