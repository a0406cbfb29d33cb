//! What a warm probe of a `Roots` store allocates: its result vector,
//! and nothing else.
//!
//! A probe borrows a pooled preparer whose hashing scratch, confirm-walk
//! environment and stacks survive from call to call, and it confirms a
//! hash hit by walking the named pattern against the class's interned
//! form, so no per-pattern de Bruijn arena is built. A counting global
//! allocator pins that: after warm-up, a present `lookup`, an absent
//! `lookup` and an 8-pattern `contains_batch` each make exactly one
//! allocation.
//!
//! One `#[test]`, so no other test of this binary allocates alongside.

use alpha_store::AlphaStore;
use lambda_lang::parse::parse;
use lambda_lang::ExprArena;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::SeqCst};

/// [`System`], counting the calls that obtain memory.
struct Counting;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call forwards to `System` unchanged; the counter only
// observes them.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, SeqCst);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, SeqCst);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) };
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, SeqCst);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Runs `f` and returns its result with the allocations it made.
fn allocations_of<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = ALLOCATIONS.load(SeqCst);
    let out = f();
    (out, ALLOCATIONS.load(SeqCst) - before)
}

#[test]
fn warm_probes_of_a_roots_store_allocate_only_their_results() {
    let store: AlphaStore<u64> = AlphaStore::default();
    let mut arena = ExprArena::new();
    let ingested = [
        r"\x. \y. let z = x y in f z (g y 3)",
        r"\a. a (\a. a b) (let c = a in c)",
        "let v = w + 1 in v * (v + 2.5)",
        r"\p. \q. if (q true) p (h p 7)",
    ];
    let classes: Vec<_> = ingested
        .iter()
        .map(|src| {
            let root = parse(&mut arena, src).unwrap();
            store.insert(&arena, root).class
        })
        .collect();
    // Probes live in an arena of their own, as a client's would.
    let mut queries = ExprArena::new();
    let present = parse(&mut queries, r"\s. \t. let u = s t in f u (g t 3)").unwrap();
    let absent = parse(&mut queries, r"\s. \t. let u = s t in f u (g s 3)").unwrap();
    let batch: Vec<_> = [
        r"\m. \n. let o = m n in f o (g n 3)",
        r"\d. d (\a. a b) (let c = d in c)",
        "let k = w + 1 in k * (k + 2.5)",
        r"\p. \q. if (q true) p (h p 7)",
        r"\x. x",
        "w + 1",
        r"\a. a (\b. b b) (let c = a in c)",
        "let v = w + 2 in v * (v + 2.5)",
    ]
    .iter()
    .map(|src| parse(&mut queries, src).unwrap())
    .collect();
    let expected = [
        Some(classes[0]),
        Some(classes[1]),
        Some(classes[2]),
        Some(classes[3]),
        None,
        None,
        None,
        None,
    ];
    for _ in 0..3 {
        store.lookup(&queries, present);
        store.lookup(&queries, absent);
        store.contains_batch(&queries, &batch);
    }
    for round in 0..5 {
        let (found, count) = allocations_of(|| store.lookup(&queries, present));
        assert_eq!(found, Some(classes[0]));
        assert_eq!(count, 1, "present lookup, round {round}");
        let (found, count) = allocations_of(|| store.lookup(&queries, absent));
        assert_eq!(found, None);
        assert_eq!(count, 1, "absent lookup, round {round}");
        let (found, count) = allocations_of(|| store.contains_batch(&queries, &batch));
        assert_eq!(found, expected);
        assert_eq!(count, 1, "8-pattern contains_batch, round {round}");
    }
}
