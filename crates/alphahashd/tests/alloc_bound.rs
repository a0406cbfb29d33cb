//! What a frame header's length can make the daemon's reader allocate.
//!
//! A counting global allocator tracks the live heap. A peer that sends
//! a header claiming `MAX_FRAME_LEN` bytes, then 100 bytes, then closes,
//! must cost the reader well under 1 MiB: the payload buffer grows with
//! the bytes that arrive, never with the length a header claims.
//!
//! One `#[test]`, so no other test of this binary allocates alongside.

use alphahashd::wire::{read_frame, WireError, MAX_FRAME_LEN};
use std::alloc::{GlobalAlloc, Layout, System};
use std::io::Read;
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

#[test]
fn a_claimed_frame_length_is_not_allocated_up_front() {
    let mut sent = Vec::new();
    sent.extend_from_slice(&MAX_FRAME_LEN.to_le_bytes());
    sent.extend_from_slice(&0u32.to_le_bytes());
    sent.extend_from_slice(&[0x5A; 100]);
    let mut peer = sent.as_slice().chain(std::io::empty());

    let base = LIVE.load(SeqCst);
    PEAK.store(base, SeqCst);
    let read = read_frame(&mut peer);
    let peak = PEAK.load(SeqCst) - base;

    assert!(matches!(read, Err(WireError::Frame(_))), "{read:?}");
    assert!(
        peak < 1 << 20,
        "a {MAX_FRAME_LEN}-byte claim with 100 bytes behind it peaked at {peak} bytes"
    );
}
