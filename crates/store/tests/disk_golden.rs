//! Golden on-disk bytes: the exact WAL and snapshot files one scripted
//! durable workload leaves behind, in both granularities.
//!
//! `hash_golden.rs` pins the hashes these files carry; this suite pins
//! the files themselves — record framing, group-commit markers, the
//! delta record of an `update`, and the snapshot encoding. Any change to
//! the insert or update path that moves one byte on disk fails here,
//! even when every recovery oracle still agrees with itself.
//!
//! The workload: a batch ingest (several group commits), one single
//! `insert`, one spine-local `update`, a `checkpoint`, then a second
//! batch. After each step a line records every file's length and an
//! FNV-1a digest of its bytes.

use alpha_store::persist::{SNAPSHOT_FILE, WAL_FILE};
use alpha_store::{AlphaStore, Granularity, Rewrite};
use lambda_lang::arena::{ExprArena, NodeId};
use lambda_lang::parse::parse;
use lambda_lang::uniquify::uniquify_into;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::{Path, PathBuf};

/// A fresh temp directory, removed on drop (even when the test fails).
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let path =
            std::env::temp_dir().join(format!("alpha-store-golden-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        TempDir(path)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// 64-bit FNV-1a: stable across platforms and toolchains.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// A seeded corpus with alpha-duplicates: every other term is a
/// uniquified copy, so the files hold merges as well as fresh classes.
fn corpus(arena: &mut ExprArena, count: usize) -> Vec<NodeId> {
    (0..count)
        .map(|i| {
            let mut rng = StdRng::seed_from_u64(0x601D ^ (i as u64 % 5));
            let size = 5 + (i % 4) * 7;
            let mut scratch = ExprArena::new();
            let root = match i % 3 {
                0 => expr_gen::balanced(&mut scratch, size, &mut rng),
                1 => expr_gen::unbalanced(&mut scratch, size, &mut rng),
                _ => expr_gen::arithmetic(&mut scratch, size.max(8), &mut rng),
            };
            if i % 2 == 0 {
                uniquify_into(&scratch, root, arena)
            } else {
                arena.import_subtree(&scratch, root)
            }
        })
        .collect()
}

/// `step: file=len:digest …` for every store file present in `dir`.
fn digest_line(step: &str, dir: &Path) -> String {
    let mut line = step.to_owned();
    for file in [WAL_FILE, SNAPSHOT_FILE] {
        match std::fs::read(dir.join(file)) {
            Ok(bytes) => {
                line += &format!(" {file}={}:{:016x}", bytes.len(), fnv1a(&bytes));
            }
            Err(_) => line += &format!(" {file}=absent"),
        }
    }
    line
}

/// Runs the scripted workload on a fresh durable store and returns one
/// digest line per step.
fn run(granularity: Granularity, tag: &str) -> Vec<String> {
    let dir = TempDir::new(tag);
    let mut arena = ExprArena::new();
    let roots = corpus(&mut arena, 24);
    let single = parse(&mut arena, r"\x. x + (v * 3)").expect("fixed term parses");
    let patch = parse(&mut arena, "v * 4").expect("fixed patch parses");
    let store: AlphaStore<u64> = AlphaStore::builder()
        .seed(0x601D)
        .shards(4)
        .granularity(granularity)
        .chunk_entries(6)
        .open_durable(&dir.0)
        .expect("open durable");
    let mut lines = vec![digest_line("open", &dir.0)];

    store.insert_batch(&arena, &roots[..16]);
    let inserted = store.insert(&arena, single);
    lines.push(digest_line("ingest", &dir.0));

    store.update(
        inserted.term,
        Rewrite {
            path: &[0, 1],
            arena: &arena,
            root: patch,
        },
    );
    lines.push(digest_line("update", &dir.0));

    store.checkpoint().expect("checkpoint");
    lines.push(digest_line("checkpoint", &dir.0));

    store.insert_batch(&arena, &roots[16..]);
    lines.push(digest_line("second batch", &dir.0));
    assert!(store.stats().is_exact());
    lines
}

fn check(granularity: Granularity, tag: &str, expected: &[&str]) {
    let got = run(granularity, tag);
    assert_eq!(
        got,
        expected,
        "on-disk bytes moved for {granularity:?}; actual lines:\n{}",
        got.join("\n")
    );
    // The same workload in a fresh directory writes the same bytes.
    assert_eq!(run(granularity, &format!("{tag}-again")), got);
}

#[test]
fn roots_store_files_are_byte_stable() {
    check(Granularity::Roots, "roots", ROOTS);
}

#[test]
fn subexpressions_store_files_are_byte_stable() {
    check(
        Granularity::Subexpressions { min_nodes: 2 },
        "subs",
        SUBEXPRESSIONS,
    );
}

/// Recorded once; a change here is an on-disk format change.
const ROOTS: &[&str] = &[
    "open wal.bin=43:b1f348abdc5b1f66 snapshot.bin=absent",
    "ingest wal.bin=3327:961abbb9d984d40f snapshot.bin=absent",
    "update wal.bin=3475:ecb7e94441a18de2 snapshot.bin=absent",
    "checkpoint wal.bin=43:92f881a2d16bd545 snapshot.bin=2543:ba90b617c57f7cd2",
    "second batch wal.bin=1510:588a78db7b84d745 snapshot.bin=2543:ba90b617c57f7cd2",
];

const SUBEXPRESSIONS: &[&str] = &[
    "open wal.bin=43:3f0dbe55ab8badb7 snapshot.bin=absent",
    "ingest wal.bin=4217:e7994558c879f861 snapshot.bin=absent",
    "update wal.bin=4365:1521d3bc1a4d0a5c snapshot.bin=absent",
    "checkpoint wal.bin=43:e21d693a8abdcf54 snapshot.bin=13422:c68c84b151e08cf6",
    "second batch wal.bin=2002:56f05e04b8133a80 snapshot.bin=13422:c68c84b151e08cf6",
];
