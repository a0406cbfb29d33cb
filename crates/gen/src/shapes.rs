//! Two ordinary compiler-IR shapes on which a standalone canonical form
//! per subterm grows quadratically, while the paper's hasher stays
//! O(n (log n)²).
//!
//! A subterm's standalone de Bruijn form differs from its in-context form
//! along every path from an outer binder to its occurrences. On these
//! shapes those paths have total length Θ(n²):
//!
//! * [`anf_chain`] — `let x0 = g in let x1 = g x0 in … in x0 (x1 (… xk))`,
//!   A-normal form's let spine, where every binder scopes over the rest of
//!   the chain and is used once at its end;
//! * [`binder_fan`] — k lambdas over 2k nested `g (…)` applications whose
//!   leaf applies `x1 … xk`, so every binder reaches its occurrence through
//!   the whole nest.
//!
//! The seed picks each application head among three free function names;
//! the shape and its binding structure are fixed by `k`.

use lambda_lang::arena::{ExprArena, NodeId};
use lambda_lang::symbol::Symbol;
use rand::Rng;

/// One of the free function names `g0`, `g1`, `g2`, drawn from `rng`.
fn head<R: Rng>(arena: &mut ExprArena, rng: &mut R) -> NodeId {
    let name = format!("g{}", rng.random_range(0..3u32));
    arena.var_named(&name)
}

/// The binders `x{from}` … `x{to}`.
fn binders(arena: &mut ExprArena, from: usize, to: usize) -> Vec<Symbol> {
    (from..=to)
        .map(|i| arena.intern(&format!("x{i}")))
        .collect()
}

/// `let x0 = g in let x1 = g x0 in … let xk = g x(k-1) in x0 (x1 (… xk))`:
/// 6k + 3 nodes, distinct binders, the heads `g` drawn from `rng`.
pub fn anf_chain<R: Rng>(arena: &mut ExprArena, k: usize, rng: &mut R) -> NodeId {
    let xs = binders(arena, 0, k);
    let mut body = arena.var(xs[k]);
    for &x in xs[..k].iter().rev() {
        let use_x = arena.var(x);
        body = arena.app(use_x, body);
    }
    let mut rhs: Vec<NodeId> = Vec::with_capacity(k + 1);
    for i in 0..=k {
        let g = head(arena, rng);
        rhs.push(if i == 0 {
            g
        } else {
            let prev = arena.var(xs[i - 1]);
            arena.app(g, prev)
        });
    }
    for (&x, &r) in xs.iter().zip(&rhs).rev() {
        body = arena.let_(x, r, body);
    }
    body
}

/// `\x1. … \xk. g (g (… (x1 x2 … xk)))` with 2k nested `g` applications:
/// 7k − 1 nodes, distinct binders, the heads `g` drawn from `rng`.
///
/// # Panics
///
/// Panics if `k == 0`.
pub fn binder_fan<R: Rng>(arena: &mut ExprArena, k: usize, rng: &mut R) -> NodeId {
    assert!(k > 0, "a binder fan needs at least one binder");
    let xs = binders(arena, 1, k);
    let mut e = arena.var(xs[0]);
    for &x in &xs[1..] {
        let arg = arena.var(x);
        e = arena.app(e, arg);
    }
    for _ in 0..2 * k {
        let g = head(arena, rng);
        e = arena.app(g, e);
    }
    for &x in xs.iter().rev() {
        e = arena.lam(x, e);
    }
    e
}

#[cfg(test)]
mod tests {
    use super::*;
    use lambda_lang::stats::free_vars;
    use lambda_lang::uniquify::check_unique_binders;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn sizes_and_binders_follow_the_definitions() {
        let mut rng = StdRng::seed_from_u64(1);
        for k in [1usize, 2, 7, 250] {
            let mut arena = ExprArena::new();
            let anf = anf_chain(&mut arena, k, &mut rng);
            let fan = binder_fan(&mut arena, k, &mut rng);
            assert_eq!(arena.subtree_size(anf), 6 * k + 3);
            assert_eq!(arena.subtree_size(fan), 7 * k - 1);
            for root in [anf, fan] {
                assert!(check_unique_binders(&arena, root).is_ok());
                let free = free_vars(&arena, root);
                assert!(!free.is_empty() && free.len() <= 3, "only heads are free");
            }
        }
    }

    #[test]
    fn the_smallest_chain_prints_as_defined() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut arena = ExprArena::new();
        let anf = anf_chain(&mut arena, 1, &mut rng);
        let printed = lambda_lang::print::print(&arena, anf);
        assert!(
            printed.starts_with("let x0 = g") && printed.contains("in x0 x1"),
            "{printed}"
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let hash_of = |seed: u64| {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut arena = ExprArena::new();
            let anf = anf_chain(&mut arena, 40, &mut rng);
            let fan = binder_fan(&mut arena, 40, &mut rng);
            let scheme: alpha_hash::HashScheme<u64> = alpha_hash::HashScheme::new(1);
            (
                alpha_hash::hash_expr(&arena, anf, &scheme),
                alpha_hash::hash_expr(&arena, fan, &scheme),
            )
        };
        assert_eq!(hash_of(9), hash_of(9));
        assert_ne!(hash_of(9), hash_of(10));
    }
}
