//! What a hostile length or count can make the daemon's decoders
//! allocate.
//!
//! A counting global allocator tracks the live heap. A peer that sends
//! a header claiming `MAX_FRAME_LEN` bytes, then 100 bytes, then closes,
//! must cost the reader well under 1 MiB: the payload buffer grows with
//! the bytes that arrive, never with the length a header claims. The
//! same holds for every payload decoder that reads a count or a string:
//! a batch chunk's term count, a term's name and node counts, and the
//! stats strings.
//!
//! Each test holds [`SERIAL`] while it measures, so no other test of
//! this binary allocates alongside.

use alpha_store::codec::put_u32;
use alphahashd::wire::{
    put_stats, put_term, read_frame, take_stats, take_terms, RemoteStats, WireError, MAX_FRAME_LEN,
};
use lambda_lang::{parse, ExprArena};
use std::alloc::{GlobalAlloc, Layout, System};
use std::io::Read;
use std::sync::atomic::{AtomicUsize, Ordering::SeqCst};
use std::sync::Mutex;

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

/// Serialises the measurements of this binary's tests.
static SERIAL: Mutex<()> = Mutex::new(());

/// The peak live-heap growth while `f` runs, with its result.
fn peak_of<T>(f: impl FnOnce() -> T) -> (usize, T) {
    let base = LIVE.load(SeqCst);
    PEAK.store(base, SeqCst);
    let out = f();
    (PEAK.load(SeqCst).saturating_sub(base), out)
}

#[test]
fn a_claimed_frame_length_is_not_allocated_up_front() {
    let mut sent = Vec::new();
    sent.extend_from_slice(&MAX_FRAME_LEN.to_le_bytes());
    sent.extend_from_slice(&0u32.to_le_bytes());
    sent.extend_from_slice(&[0x5A; 100]);
    let mut peer = sent.as_slice().chain(std::io::empty());

    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let (peak, read) = peak_of(|| read_frame(&mut peer));

    assert!(matches!(read, Err(WireError::Frame(_))), "{read:?}");
    assert!(
        peak < 1 << 20,
        "a {MAX_FRAME_LEN}-byte claim with 100 bytes behind it peaked at {peak} bytes"
    );
}

#[test]
fn hostile_counts_in_payloads_allocate_nothing_they_claim() {
    const CLAIMS: [u32; 3] = [u32::MAX, u32::MAX - 1, 0x7FFF_FFFF];
    let mut arena = ExprArena::new();
    let root = parse(&mut arena, r"\x. f x 3").expect("parses");
    let mut term = Vec::new();
    put_term(&mut term, &arena, root);
    let mut stats = Vec::new();
    put_stats(&mut stats, &RemoteStats::default());
    // Store stats, the census, the WAL option and the health code come
    // before the reason string; the recovery option after it.
    let (reason_at, json_at) = (64 + 16 + 1 + 1, 64 + 16 + 1 + 1 + 4 + 1);

    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let mut worst = 0;
    for claim in CLAIMS {
        let mut cases: Vec<(String, Vec<u8>)> = Vec::new();
        // A term's name count and node count.
        let mut names = term.clone();
        names[..4].copy_from_slice(&claim.to_le_bytes());
        cases.push(("name count".into(), names));
        let mut nodes = Vec::new();
        put_u32(&mut nodes, 0);
        put_u32(&mut nodes, claim);
        cases.push(("node count".into(), nodes));
        for (field, at) in [
            ("stats reason length", reason_at),
            ("stats JSON length", json_at),
        ] {
            let mut bytes = stats.clone();
            bytes[at..at + 4].copy_from_slice(&claim.to_le_bytes());
            cases.push((field.into(), bytes));
        }
        for (field, bytes) in &cases {
            let (peak, refused) = if field.starts_with("stats") {
                peak_of(|| take_stats(&mut bytes.as_slice()).is_err())
            } else {
                let mut arena = ExprArena::new();
                let mut roots = Vec::new();
                peak_of(|| take_terms(&mut bytes.as_slice(), 1, &mut arena, &mut roots).is_err())
            };
            assert!(refused, "{field} claiming {claim} decoded");
            assert!(
                peak < 1 << 16,
                "{field} claiming {claim} peaked at {peak} bytes"
            );
            worst = worst.max(peak);
        }
        // A batch chunk claiming `claim` terms with one term behind it.
        let mut arena = ExprArena::new();
        let mut roots = Vec::new();
        let (peak, decoded) =
            peak_of(|| take_terms(&mut term.as_slice(), claim, &mut arena, &mut roots));
        assert!(decoded.is_err(), "a chunk claiming {claim} terms decoded");
        assert_eq!(roots.len(), 1, "the one term behind the claim decoded");
        assert!(
            peak < 1 << 16,
            "a chunk claiming {claim} terms peaked at {peak} bytes"
        );
    }
    assert!(worst > 0, "the decoders were measured");
}
