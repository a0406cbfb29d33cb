//! What a hostile count in a CRC-valid file can make recovery allocate.
//!
//! A counting global allocator tracks the live heap; each case opens a
//! store whose file claims 2³²−1 items behind a count and checks that
//! the peak heap of that open stays within 1 MiB of the peak of opening
//! an intact empty store. The decoders take every count by one rule
//! (`alpha_store::codec::take_count`): a count whose items cannot fit in
//! the bytes that remain is refused before anything is sized by it.
//!
//! One `#[test]`, so no other test of this binary allocates alongside.

use alpha_store::codec::{begin_frame, crc32, end_frame, put_u32, put_u64, put_u8};
use alpha_store::persist::{SNAPSHOT_FILE, WAL_FILE};
use alpha_store::{AlphaStore, Granularity, PersistError};
use std::alloc::{GlobalAlloc, Layout, System};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering::SeqCst};

/// [`System`], counting the bytes live and their peak.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, SeqCst) + bytes;
    PEAK.fetch_max(live, SeqCst);
}

// SAFETY: every call forwards to `System` unchanged; the counters only
// observe the sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), SeqCst);
    }

    /// Counted as the new block arriving before the old one leaves, the
    /// worst case of a moving reallocation.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            grew(new_size);
            LIVE.fetch_sub(layout.size(), SeqCst);
        }
        p
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Runs `f` and returns its result with the peak heap above the level
/// `f` started at.
fn peak_during<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let base = LIVE.load(SeqCst);
    PEAK.store(base, SeqCst);
    let out = f();
    (out, PEAK.load(SeqCst) - base)
}

const MIB: usize = 1 << 20;

/// A fresh temp directory, removed on drop.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let path =
            std::env::temp_dir().join(format!("alpha-store-alloc-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        TempDir(path)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// An intact, empty, one-shard durable store of `granularity` with a
/// snapshot and a WAL of the snapshot's epoch holding nothing.
fn empty_store(tag: &str, granularity: Granularity) -> TempDir {
    let dir = TempDir::new(tag);
    let store: AlphaStore<u64> = AlphaStore::builder()
        .shards(1)
        .granularity(granularity)
        .open_durable(&dir.0)
        .expect("create");
    store.checkpoint().expect("checkpoint");
    dir
}

#[test]
fn hostile_counts_in_crc_valid_files_allocate_nothing_they_claim() {
    let intact = empty_store("intact", Granularity::Roots);
    let (opened, baseline) = peak_during(|| AlphaStore::<u64>::open(&intact.0));
    drop(opened.expect("an intact empty store opens"));

    // (a) A snapshot whose one shard claims 2³²−1 classes. Its last 12
    // bytes are that shard's class and term counts, then the CRC.
    let dir = empty_store("classes", Granularity::Roots);
    let path = dir.0.join(SNAPSHOT_FILE);
    let mut bytes = std::fs::read(&path).expect("snapshot");
    let end = bytes.len() - 4;
    bytes[end - 8..end - 4].copy_from_slice(&u32::MAX.to_le_bytes());
    let crc = crc32(&bytes[8..end]);
    bytes[end..].copy_from_slice(&crc.to_le_bytes());
    std::fs::write(&path, &bytes).expect("write snapshot");
    let (opened, peak) = peak_during(|| AlphaStore::<u64>::open(&dir.0));
    assert!(
        matches!(opened, Err(PersistError::Corrupt { .. })),
        "{:?}",
        opened.map(|_| ())
    );
    assert!(
        peak < baseline + MIB,
        "snapshot claiming 2^32-1 classes: peak {peak} bytes, intact open {baseline}"
    );

    // (b) A `Roots` WAL whose one record claims 2³²−1 DAG nodes, and
    // (c, d) a `Subexpressions` WAL whose one named-term record claims
    // 2³²−1 names or 2³²−1 nodes. Each record is in a CRC-valid frame
    // closed by its commit marker: recovery stops there, as at any torn
    // tail. Payload kinds 1 (record) and 2 (commit) are those of
    // docs/PERSISTENCE_FORMAT.md; a named record is a 16-byte hash, then
    // the name count, the names, the node count and the nodes.
    let subexpressions = Granularity::Subexpressions { min_nodes: 1 };
    let intact = empty_store("intact-subs", subexpressions);
    let (opened, subs_baseline) = peak_during(|| AlphaStore::<u64>::open(&intact.0));
    drop(opened.expect("an intact empty store opens"));
    let cases: [(&str, Granularity, usize, &[u32]); 3] = [
        ("DAG nodes", Granularity::Roots, baseline, &[0, u32::MAX]),
        ("term names", subexpressions, subs_baseline, &[u32::MAX]),
        ("term nodes", subexpressions, subs_baseline, &[0, u32::MAX]),
    ];
    for (claim, granularity, baseline, counts) in cases {
        let dir = empty_store(&claim.replace(' ', "-"), granularity);
        let path = dir.0.join(WAL_FILE);
        let mut bytes = std::fs::read(&path).expect("wal");
        let start = begin_frame(&mut bytes);
        put_u8(&mut bytes, 1);
        if granularity != Granularity::Roots {
            bytes.extend_from_slice(&[0; 16]); // the root hash
        }
        for &count in counts {
            put_u32(&mut bytes, count);
        }
        bytes.extend_from_slice(&[0; 64]);
        end_frame(&mut bytes, start);
        let start = begin_frame(&mut bytes);
        put_u8(&mut bytes, 2);
        put_u64(&mut bytes, 1);
        end_frame(&mut bytes, start);
        std::fs::write(&path, &bytes).expect("write wal");
        let (opened, peak) = peak_during(|| AlphaStore::<u64>::open(&dir.0));
        let store = opened.expect("a torn tail recovers");
        let recovery = store.recovery_info().expect("recovered");
        assert_eq!(recovery.replayed_records, 0, "{claim}");
        assert!(!recovery.clean, "{claim}: the damaged frame is a torn tail");
        assert!(
            peak < baseline + MIB,
            "record claiming 2^32-1 {claim}: peak {peak} bytes, intact open {baseline}"
        );
    }
}
