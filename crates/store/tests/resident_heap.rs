//! The whole heap a `Subexpressions` store keeps for what it indexes.
//!
//! A counting global allocator tracks the live heap. The test ingests a
//! seeded corpus of balanced, arithmetic and unbalanced terms of 150–450
//! nodes into a `Subexpressions { min_nodes: 3 }` store, the shape of the
//! `subexpr_index` benchmark, and bounds the live-heap growth per input
//! node: canon nodes and index slots, names, class records, the term log
//! and subterm lists, everything the store holds. Dropping the store must
//! return the heap to where it was before the store was built.
//!
//! One `#[test]`, so no other test of this binary allocates alongside.

use alpha_store::AlphaStore;
use lambda_lang::arena::{ExprArena, NodeId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::SeqCst};

/// [`System`], counting the bytes live.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call forwards to `System` unchanged; the counter only
// observes the sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            LIVE.fetch_add(layout.size(), SeqCst);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            LIVE.fetch_add(layout.size(), SeqCst);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), SeqCst);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            LIVE.fetch_add(new_size, SeqCst);
            LIVE.fetch_sub(layout.size(), SeqCst);
        }
        p
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Live-heap bytes per input node the store must stay below: what it
/// kept on this corpus when it indexed subterms by their standalone
/// de Bruijn forms. The e-summary canon keeps 241.
const CEILING_PER_NODE: usize = 281;

/// The seeded corpus: `count` terms of 150–450 nodes, the three shapes in
/// turn.
fn corpus(arena: &mut ExprArena, count: usize) -> Vec<NodeId> {
    let mut rng = StdRng::seed_from_u64(0x4EA9);
    (0..count)
        .map(|i| {
            let size = rng.random_range(150..=450);
            match i % 3 {
                0 => expr_gen::balanced(arena, size, &mut rng),
                1 => expr_gen::arithmetic(arena, size, &mut rng),
                _ => expr_gen::unbalanced(arena, size, &mut rng),
            }
        })
        .collect()
}

fn store() -> AlphaStore<u64> {
    AlphaStore::builder()
        .seed(0x4EA9)
        .shards(16)
        .subexpressions(3)
        .build()
}

#[test]
fn a_subexpressions_store_keeps_a_bounded_heap_per_node_and_frees_it() {
    let mut arena = ExprArena::new();
    let roots = corpus(&mut arena, 240);
    let nodes: usize = roots.iter().map(|&r| arena.subtree_size(r)).sum();
    // A first store warms whatever the process allocates once.
    store().insert_batch(&arena, &roots[..3]);

    let base = LIVE.load(SeqCst);
    let store = store();
    store.insert_batch(&arena, &roots);
    assert!(store.stats().is_exact());
    let per_node = (LIVE.load(SeqCst) - base) / nodes;
    drop(store);
    let after = LIVE.load(SeqCst);
    assert!(
        per_node < CEILING_PER_NODE,
        "{per_node} live heap bytes per input node, ceiling {CEILING_PER_NODE}"
    );
    assert_eq!(
        after, base,
        "dropping the store returns the heap to its baseline"
    );
}
