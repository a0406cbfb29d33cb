//! The persistence decoders against damaged input: a seeded mutation
//! test over the WAL and snapshot images of real stores.
//!
//! Two stores, one per granularity, ingest an `expr_gen` corpus plus a
//! few named terms and updates, so their WAL holds insert records (the
//! term as ingested, in both granularities) and delta records, and their
//! snapshot holds subexpression pairs and the node runs of every kind
//! (the `Roots` store's de Bruijn nodes; the other's position trees,
//! structures, map nodes and keys). Each case damages one image — bit
//! flips, a truncation, a hostile count, length, name index, node word
//! or child reference word, a repeated name in a name table, a
//! subexpression pair naming a class out of range — and re-seals its
//! CRCs, so the decoders meet the damage rather than the CRC check. The
//! WAL image is copied before the store checkpoints, and the snapshot
//! after. The property: no panic, in decoding or in what recovery does
//! with a scanned WAL (replaying it) or with a decoded `Subexpressions`
//! snapshot's keys (inverting each class and rebuilding it named); and
//! every value that decodes re-encodes to bytes that decode to the same
//! value.

use super::format::{put_delta, put_term_record, take_delta, take_term_record, RawDelta};
use super::snapshot::{decode_snapshot, encode_snapshot};
use super::wal::{decode_wal, WalEntry, WAL_HEADER_LEN};
use super::{SNAPSHOT_FILE, WAL_FILE};
use crate::canon::rebuild_named;
use crate::codec::{begin_frame, crc32, end_frame, take_frame, TermScratch};
use crate::dag::CanonTable;
use crate::esummary::Inverse;
use crate::store::{ClassId, Shard};
use crate::{AlphaStore, Granularity, Rewrite, StoreBuilder};
use lambda_lang::{parse, ExprArena};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};

const SHARDS: usize = 2;

fn builder(granularity: Granularity) -> StoreBuilder<u64> {
    AlphaStore::builder()
        .seed(0xF022)
        .shards(SHARDS)
        .granularity(granularity)
        .chunk_entries(6)
}

/// A store's files: the WAL header and frame payloads, and the snapshot.
struct Images {
    granularity: Granularity,
    wal_header: Vec<u8>,
    frames: Vec<Vec<u8>>,
    snapshot: Vec<u8>,
}

fn images(granularity: Granularity) -> Images {
    let dir = std::env::temp_dir().join(format!(
        "alpha-store-mutation-{}-{granularity:?}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let mut arena = ExprArena::new();
    let mut roots = Vec::new();
    let mut rng = StdRng::seed_from_u64(0x3A7E);
    for size in [3usize, 8, 15] {
        roots.push(expr_gen::balanced(&mut arena, size, &mut rng));
        roots.push(expr_gen::unbalanced(&mut arena, size, &mut rng));
        roots.push(expr_gen::arithmetic(&mut arena, size.max(8), &mut rng));
    }
    for src in [
        r"f (g x) (\y. y + x)",
        r"\x. x + (v * 3)",
        "let w = a + b in w * c",
    ] {
        roots.push(parse(&mut arena, src).expect("parses"));
    }
    let store = builder(granularity).open_durable(&dir).expect("open");
    let outcomes = store.insert_batch(&arena, &roots);
    let patch = parse(&mut arena, "u * 4").expect("parses");
    for (i, path) in [(roots.len() - 2, &[0, 1][..]), (roots.len() - 1, &[])] {
        let rewrite = Rewrite {
            path,
            arena: &arena,
            root: patch,
        };
        store.update(outcomes[i].term, rewrite);
    }
    let wal = std::fs::read(dir.join(WAL_FILE)).expect("wal");
    store.checkpoint().expect("checkpoint");
    let snapshot = std::fs::read(dir.join(SNAPSHOT_FILE)).expect("snapshot");
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);

    let (header, mut input) = wal.split_at(WAL_HEADER_LEN as usize);
    let mut frames = Vec::new();
    while !input.is_empty() {
        frames.push(take_frame(&mut input).expect("intact frame").to_vec());
    }
    Images {
        granularity,
        wal_header: header.to_vec(),
        frames,
        snapshot,
    }
}

/// Where the damage can be aimed in one image.
#[derive(Default)]
struct Fields {
    /// Offsets of `u32` counts, lengths and positions.
    words: Vec<usize>,
    /// Node-run name tables: each name's `(offset, encoded length)`.
    name_tables: Vec<Vec<(usize, usize)>>,
    /// Offsets of the class bits of subexpression pairs.
    pairs: Vec<usize>,
    /// A snapshot's node runs: each one's bytes, count included.
    runs: Vec<Range<usize>>,
}

/// Walks an intact image in the layout of `docs/PERSISTENCE_FORMAT.md`.
struct Walk<'a> {
    bytes: &'a [u8],
    at: usize,
    fields: Fields,
}

impl Walk<'_> {
    fn skip(&mut self, n: usize) {
        self.at += n;
    }

    fn word(&mut self) -> usize {
        let v = u32::from_le_bytes(self.bytes[self.at..self.at + 4].try_into().unwrap());
        self.fields.words.push(self.at);
        self.at += 4;
        v as usize
    }

    /// A name table: each name's `(offset, encoded length)`.
    fn names(&mut self) {
        let mut names = Vec::new();
        for _ in 0..self.word() {
            let start = self.at;
            let len = self.word();
            self.skip(len);
            names.push((start, 4 + len));
        }
        self.fields.name_tables.push(names);
    }

    /// A term in the wire's encoding (`docs/PROTOCOL.md` §5): name table,
    /// then postorder nodes whose name indices and child references are
    /// all words.
    fn term(&mut self) {
        self.names();
        for _ in 0..self.word() {
            let tag = self.bytes[self.at];
            self.skip(1);
            match tag {
                0 => drop(self.word()),
                1 | 2 => drop((self.word(), self.word())),
                3 => drop((self.word(), self.word(), self.word())),
                _ => {
                    let lit = self.bytes[self.at];
                    self.skip(if lit == 2 { 2 } else { 9 });
                }
            }
        }
    }

    /// A WAL payload: kind byte, then an insert record, a commit marker
    /// or a delta, whose path count, path steps and patch term's counts
    /// are all words.
    fn payload(&mut self) {
        match self.bytes[0] {
            1 => {
                self.skip(1 + 16);
                self.term();
            }
            3 => {
                // Root hashes, new node count, term handle.
                self.skip(1 + 16 + 16 + 8 + 8);
                for _ in 0..self.word() {
                    self.word();
                }
                self.term();
            }
            _ => self.skip(1 + 8), // a commit marker
        }
    }

    /// A snapshot of `granularity`: its names, then one node run per
    /// node kind, each a count and every node's saved words, whose
    /// halves (tags and flags, child positions, name indices) are all
    /// words.
    fn snapshot(&mut self, granularity: Granularity) {
        // Magic, version, identity, WAL epoch, stats.
        self.skip(8 + 2 + 25 + 8 + 64);
        self.names();
        // Saved words per node: position trees, structures, map nodes
        // and keys; or de Bruijn nodes.
        let runs: &[usize] = if granularity.indexes_subexpressions() {
            &[2, 2, 2, 1]
        } else {
            &[2]
        };
        for &saved in runs {
            let start = self.at;
            for _ in 0..self.word() {
                for _ in 0..2 * saved {
                    self.word();
                }
            }
            self.fields.runs.push(start..self.at);
        }
        for _ in 0..SHARDS {
            for _ in 0..self.word() {
                self.skip(16 + 8 + 8 + 8);
                self.word();
            }
            let terms = self.word();
            self.skip(8 * terms);
            for _ in 0..terms {
                for _ in 0..self.word() {
                    self.fields.pairs.push(self.at);
                    self.skip(8);
                    self.word();
                }
            }
        }
    }
}

/// The fields of a WAL payload, or (`snapshot` set) of a snapshot of
/// that granularity.
fn fields(bytes: &[u8], snapshot: Option<Granularity>) -> Fields {
    let mut walk = Walk {
        bytes,
        at: 0,
        fields: Fields::default(),
    };
    match snapshot {
        None => {
            walk.payload();
            assert_eq!(walk.at, bytes.len(), "the walk ends with the payload");
        }
        Some(granularity) => {
            walk.snapshot(granularity);
            assert_eq!(walk.at + 4, bytes.len(), "the walk ends at the CRC");
        }
    }
    walk.fields
}

/// A count value a damaged or hostile writer might put in a field.
fn hostile_u32(rng: &mut StdRng, old: u32, len: usize) -> u32 {
    match rng.random_range(0..9u32) {
        0 => 0,
        1 => u32::MAX,
        2 => 0x8000_0000,
        3 => old.wrapping_add(1),
        4 => old.wrapping_sub(1),
        5 => u32::try_from(len).expect("small image"),
        6 => rng.random_range(0..64u32),
        7 => 0x7FFF_FFFF,
        _ => rng.random::<u32>(),
    }
}

/// The mutation kinds, by index.
const FLIP: u32 = 0;
const TRUNCATE: u32 = 1;
const FIELD: u32 = 2;
const WINDOW: u32 = 3;
const REPEAT_NAME: u32 = 4;
const STRAY_PAIR: u32 = 5;

/// Damages `bytes` (whose structure `fields` describes) by mutation
/// `kind` and returns the offset of the (first) damage; `None` if the
/// image has nothing for that kind to aim at.
fn mutate(bytes: &mut Vec<u8>, fields: &Fields, kind: u32, rng: &mut StdRng) -> Option<usize> {
    let word_at = |bytes: &mut Vec<u8>, at: usize, rng: &mut StdRng| {
        let old = u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap());
        let v = hostile_u32(rng, old, bytes.len());
        bytes[at..at + 4].copy_from_slice(&v.to_le_bytes());
        at
    };
    Some(match kind {
        FLIP => {
            let bits: Vec<usize> = (0..rng.random_range(1..=3u32))
                .map(|_| rng.random_range(0..bytes.len() * 8))
                .collect();
            for &bit in &bits {
                bytes[bit / 8] ^= 1 << (bit % 8);
            }
            bits[0] / 8
        }
        TRUNCATE => {
            let cut = rng.random_range(0..bytes.len());
            bytes.truncate(cut);
            cut
        }
        FIELD if !fields.words.is_empty() => {
            let at = fields.words[rng.random_range(0..fields.words.len())];
            word_at(bytes, at, rng)
        }
        WINDOW if bytes.len() >= 4 => {
            let at = rng.random_range(0..bytes.len() - 3);
            word_at(bytes, at, rng)
        }
        REPEAT_NAME => {
            let tables: Vec<_> = fields.name_tables.iter().filter(|t| t.len() >= 2).collect();
            if tables.is_empty() {
                return None;
            }
            let table = tables[rng.random_range(0..tables.len())];
            let i = rng.random_range(1..table.len());
            let (src, src_len) = table[rng.random_range(0..i)];
            let (dst, dst_len) = table[i];
            let name = bytes[src..src + src_len].to_vec();
            bytes.splice(dst..dst + dst_len, name);
            dst
        }
        STRAY_PAIR if !fields.pairs.is_empty() => {
            let at = fields.pairs[rng.random_range(0..fields.pairs.len())];
            let stray = ClassId {
                shard: rng.random_range(0..8u16),
                index: rng.random_range(0..64u32),
            };
            bytes[at..at + 8].copy_from_slice(&stray.to_bits().to_le_bytes());
            at
        }
        _ => return None,
    })
}

/// Scans a WAL image, replays it into a fresh store as recovery would,
/// and checks that every record that decodes round-trips. `true` iff the
/// damaged frame decoded (the log is not torn and every record decodes).
fn wal_case(images: &Images, bytes: &[u8]) -> bool {
    let contents = decode_wal(bytes.to_vec()).expect("the header is intact");
    let mut store = builder(images.granularity).build();
    let _ = store.replay(&contents.bytes, &contents.groups);
    let mut scratch = TermScratch::default();
    for entry in contents.groups.iter().flatten() {
        let mut again = Vec::new();
        let mut third = Vec::new();
        match entry {
            WalEntry::Term(record) => {
                let mut arena = ExprArena::new();
                let Ok((hash, root)) =
                    take_term_record::<u64>(&contents.bytes[record.clone()], &mut arena)
                else {
                    return false;
                };
                put_term_record(&mut again, hash, &arena, root, &mut scratch);
                let mut arena = ExprArena::new();
                let (hash, root) =
                    take_term_record::<u64>(&again, &mut arena).expect("re-encoded term decodes");
                put_term_record(&mut third, hash, &arena, root, &mut scratch);
            }
            WalEntry::Update(record) => {
                let mut arena = ExprArena::new();
                let Ok(delta) = take_delta::<u64>(&contents.bytes[record.clone()], &mut arena)
                else {
                    return false;
                };
                put_raw_delta(&mut again, &delta, &arena, &mut scratch);
                let mut arena = ExprArena::new();
                let back = take_delta::<u64>(&again, &mut arena).expect("re-encoded delta decodes");
                put_raw_delta(&mut third, &back, &arena, &mut scratch);
            }
        }
        assert_eq!(again, third, "a decoded WAL entry re-encodes stably");
    }
    !contents.torn
}

/// Re-encodes a decoded delta, its patch in `arena`.
fn put_raw_delta(
    out: &mut Vec<u8>,
    delta: &RawDelta<u64>,
    arena: &ExprArena,
    scratch: &mut TermScratch,
) {
    let rewrite = Rewrite {
        path: &delta.path,
        arena,
        root: delta.patch_root,
    };
    put_delta(out, &delta.check, delta.term_bits, &rewrite, scratch);
}

/// Decodes a snapshot image, inverts every class of a `Subexpressions`
/// image and rebuilds it named, and checks that what decoded re-encodes
/// to an image that decodes and re-encodes to itself. `true` iff it
/// decoded.
fn snapshot_case(bytes: &[u8]) -> bool {
    let encode = |table: &CanonTable, header, shards: &[Shard<u64>]| {
        let shard_refs: Vec<&Shard<u64>> = shards.iter().collect();
        encode_snapshot(&header, &shard_refs, table)
    };
    let table = CanonTable::new();
    let Ok((header, shards)) = decode_snapshot::<u64>(bytes, &table) else {
        return false;
    };
    if header.identity.granularity.indexes_subexpressions() {
        let mut inverse = Inverse::new(&table);
        for class in shards.iter().flat_map(|s| &s.classes) {
            let (db, root) = inverse.debruijn(class.canon);
            rebuild_named(&db, root, &mut ExprArena::new());
        }
    }
    let again = encode(&table, header, &shards);
    let table = CanonTable::new();
    let (header, shards) =
        decode_snapshot::<u64>(&again, &table).expect("a re-encoded snapshot decodes");
    assert_eq!(encode(&table, header, &shards), again);
    true
}

/// Re-seals the snapshot's trailing CRC over its (damaged) body.
fn reseal_snapshot(bytes: &mut [u8]) {
    if bytes.len() >= 12 {
        let end = bytes.len() - 4;
        let crc = crc32(&bytes[8..end]);
        bytes[end..].copy_from_slice(&crc.to_le_bytes());
    }
}

#[test]
fn damaged_persistence_images_never_panic_and_decoded_values_round_trip() {
    const CASES: usize = 4_000;
    let stores = [
        images(Granularity::Roots),
        images(Granularity::Subexpressions { min_nodes: 2 }),
    ];
    let wal_fields: Vec<Vec<Fields>> = stores
        .iter()
        .map(|s| s.frames.iter().map(|f| fields(f, None)).collect())
        .collect();
    let snapshot_fields: Vec<Fields> = stores
        .iter()
        .map(|s| fields(&s.snapshot, Some(s.granularity)))
        .collect();
    for (s, f) in stores.iter().zip(&wal_fields) {
        // Both stores log term records, whose name and node counts the
        // field mutations aim at, and deltas.
        assert!(s
            .frames
            .iter()
            .zip(f)
            .any(|(p, f)| p[0] == 1 && f.name_tables.iter().any(|t| t.len() >= 2)));
        assert!(s.frames.iter().any(|p| p[0] == 3), "the WAL holds deltas");
    }
    assert!(!snapshot_fields[1].pairs.is_empty());

    let mut rng = StdRng::seed_from_u64(0x0D15_C0DE);
    let mut applied = [0usize; 6];
    // Per store, per node run: the mutation kinds that damaged it.
    let mut run_hits: Vec<Vec<[usize; 6]>> = snapshot_fields
        .iter()
        .map(|f| vec![[0; 6]; f.runs.len()])
        .collect();
    let (mut wal_decoded, mut wal_cases) = (0, 0);
    let (mut snap_decoded, mut snap_cases) = (0, 0);
    for case in 0..CASES {
        let which = rng.random_range(0..stores.len());
        let images = &stores[which];
        let kind = rng.random_range(0..6u32);
        let outcome = if case % 2 == 0 {
            let i = rng.random_range(0..images.frames.len());
            let mut payload = images.frames[i].clone();
            if mutate(&mut payload, &wal_fields[which][i], kind, &mut rng).is_none() {
                continue;
            }
            let mut bytes = images.wal_header.clone();
            for (j, frame) in images.frames.iter().enumerate() {
                let start = begin_frame(&mut bytes);
                bytes.extend_from_slice(if j == i { &payload } else { frame });
                end_frame(&mut bytes, start);
            }
            wal_cases += 1;
            let decoded = catch_unwind(AssertUnwindSafe(|| wal_case(images, &bytes)));
            wal_decoded += usize::from(matches!(decoded, Ok(true)));
            decoded.map(drop)
        } else {
            let mut bytes = images.snapshot.clone();
            let Some(at) = mutate(&mut bytes, &snapshot_fields[which], kind, &mut rng) else {
                continue;
            };
            let runs = &snapshot_fields[which].runs;
            if let Some(run) = runs.iter().position(|r| r.contains(&at)) {
                run_hits[which][run][kind as usize] += 1;
            }
            reseal_snapshot(&mut bytes);
            snap_cases += 1;
            let decoded = catch_unwind(AssertUnwindSafe(|| snapshot_case(&bytes)));
            snap_decoded += usize::from(matches!(decoded, Ok(true)));
            decoded.map(drop)
        };
        applied[kind as usize] += 1;
        assert!(
            outcome.is_ok(),
            "case {case}: mutation {kind} of the {:?} store's images panicked",
            images.granularity
        );
    }
    // Every mutation kind ran, every kind that aims at arbitrary bytes
    // or words damaged every node run of both snapshots, and both
    // outcomes were exercised in both files, or the mutations prove
    // nothing.
    assert!(applied.iter().all(|&n| n > 100), "{applied:?}");
    for hits in run_hits.iter().flatten() {
        assert!(
            [FLIP, TRUNCATE, FIELD, WINDOW]
                .iter()
                .all(|&kind| hits[kind as usize] > 0),
            "{run_hits:?}"
        );
    }
    for (decoded, cases) in [(wal_decoded, wal_cases), (snap_decoded, snap_cases)] {
        assert!(
            decoded > cases / 20 && decoded < cases - cases / 20,
            "{decoded} of {cases} damaged images decoded"
        );
    }
}
