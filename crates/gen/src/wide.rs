//! Wide **open**-term spines: the regime where e-summary var-maps stay
//! wide for the whole traversal.
//!
//! The paper's synthetic families ([`crate::random_terms`]) are closed:
//! every variable occurrence is bound nearby, so the live var-map stays
//! narrow and the flat map tiers win on constants. Context-sensitive
//! corpora are the opposite — terms carry dozens-to-thousands of free
//! variables hashed by shared-context position (Blaauwbroek–Olšák–
//! Geuvers, arXiv 2401.02948), so the map under the summariser's merges
//! *sustains* a large width. That is exactly the regime where a
//! sorted-Vec spill pays O(width) per merge step (the documented
//! worst-case Θ(n·width) wall-time cliff) and the persistent-tree tier
//! restores O(log width).
//!
//! [`wide_open_spine`] builds that workload directly: an application
//! spine over *fresh free* variables, interleaving one `Lam` binding an
//! existing free variable for each fresh one introduced once the target
//! width is reached, so the live width climbs to `width` and then stays
//! there for the rest of the spine. The result is an open term — the
//! variables still live at the root are genuinely free.

use lambda_lang::arena::{ExprArena, NodeId};
use lambda_lang::symbol::Symbol;
use rand::Rng;

/// Builds an open application spine with exactly `size` nodes whose live
/// free-variable width climbs to `width` and is then sustained until the
/// root. Binders introduced by the interleaved `Lam` steps are distinct
/// by construction (each binds a variable that occurs exactly once), so
/// the term satisfies the §2.2 distinct-binders precondition.
///
/// `width == usize::MAX` (or any width the budget never reaches) gives
/// the unsustained variant: every step introduces a fresh free variable
/// and the width grows linearly with the spine — the Θ(n²) shape for the
/// flat tiers.
///
/// # Panics
///
/// Panics if `size == 0` or `width == 0`.
pub fn wide_open_spine<R: Rng>(
    arena: &mut ExprArena,
    size: usize,
    width: usize,
    rng: &mut R,
) -> NodeId {
    assert!(size > 0, "size must be positive");
    assert!(width > 0, "width must be positive");

    // Variables currently free in the spine built so far. Leaf symbols
    // are globally fresh, so a later Lam over one of them never captures
    // anything else.
    let mut live: Vec<Symbol> = Vec::new();
    let mut counter = 0usize;
    let mut fresh = |arena: &mut ExprArena| {
        counter += 1;
        arena.intern(&format!("w{counter}_{}", arena.len()))
    };

    // Innermost leaf: the first free variable.
    let first = fresh(arena);
    live.push(first);
    let mut expr = arena.var(first);
    let mut remaining = size - 1;

    while remaining > 0 {
        // Sustain: once at (or above) the target width, spend one node
        // binding a random live variable before widening again. Also the
        // only legal move when the budget cannot fit an App + leaf. At
        // width 1 with two nodes left, binding the only live variable
        // would strand the last node with nothing to bind, so the spine
        // widens instead and ends open with two free variables.
        let strands_last_node = live.len() == 1 && remaining == 2;
        if ((live.len() >= width && !strands_last_node) || remaining < 2) && !live.is_empty() {
            let pick = rng.random_range(0..live.len());
            let sym = live.swap_remove(pick);
            expr = arena.lam(sym, expr);
            remaining -= 1;
            continue;
        }
        // Widen: apply the spine to a fresh free variable (2 nodes).
        let sym = fresh(arena);
        live.push(sym);
        let leaf = arena.var(sym);
        expr = arena.app(expr, leaf);
        remaining -= 2;
    }
    expr
}

#[cfg(test)]
mod tests {
    use super::*;
    use lambda_lang::stats::free_vars;
    use lambda_lang::uniquify::check_unique_binders;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn hits_exact_size_and_stays_open() {
        let mut rng = StdRng::seed_from_u64(1);
        for (size, width) in [
            (1, 1),
            (3, 1),
            (60, 1),
            (99, 1),
            (2, 4),
            (3, 4),
            (64, 8),
            (1_001, 64),
            (10_000, 64),
        ] {
            let mut arena = ExprArena::new();
            let root = wide_open_spine(&mut arena, size, width, &mut rng);
            assert_eq!(arena.subtree_size(root), size, "size {size} width {width}");
            assert!(check_unique_binders(&arena, root).is_ok());
            if size > 2 * width {
                let free = free_vars(&arena, root);
                assert!(
                    !free.is_empty(),
                    "sustained spines stay open (size {size} width {width})"
                );
            }
        }
    }

    #[test]
    fn sustains_the_requested_width() {
        // The summariser's own accounting is the ground truth for how
        // wide the live maps actually got: with sustained width W, each
        // App joins a 1-entry map into a ~W-entry map, so the peak map
        // length the hasher reports must reach W.
        let mut rng = StdRng::seed_from_u64(2);
        let mut arena = ExprArena::new();
        let width = 64;
        let root = wide_open_spine(&mut arena, 10_000, width, &mut rng);
        let scheme: alpha_hash::HashScheme<u64> = alpha_hash::HashScheme::new(7);
        let mut s = alpha_hash::hashed::HashedSummariser::new(&arena, &scheme);
        let summary = s.summarise(&arena, root);
        assert!(
            summary.varmap.len() + width <= 10_000,
            "sanity: most fresh vars were bound along the spine"
        );
        // The root still sees a wide-open map.
        assert!(
            summary.varmap.len() >= width / 2,
            "root map width {} should be near the sustained width {width}",
            summary.varmap.len()
        );
    }

    #[test]
    fn unsustained_width_grows_with_the_spine() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut arena = ExprArena::new();
        let root = wide_open_spine(&mut arena, 5_000, usize::MAX, &mut rng);
        let free = free_vars(&arena, root);
        assert!(
            free.len() >= 2_000,
            "linear-width spine: {} free vars",
            free.len()
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let hash_of = |seed: u64| {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut arena = ExprArena::new();
            let root = wide_open_spine(&mut arena, 2_000, 32, &mut rng);
            let scheme: alpha_hash::HashScheme<u64> = alpha_hash::HashScheme::new(1);
            alpha_hash::hash_expr(&arena, root, &scheme)
        };
        assert_eq!(hash_of(9), hash_of(9));
        assert_ne!(hash_of(9), hash_of(10));
    }
}
