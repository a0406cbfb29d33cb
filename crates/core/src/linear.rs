//! The Appendix C variant: lazy invertible **linear maps** instead of
//! `StructureTag`s.
//!
//! The §4.6 algorithm conceptually transforms the position trees of *both*
//! children at a binary node (`PTLeftOnly` ≈ `f_L`, `PTRightOnly` ≈ `f_R`,
//! `PTBoth` ≈ `f_both`). Appendix C asks: can we keep doing that, but pay
//! O(1) per node by applying the transformation *lazily* to the bigger
//! map? The requirements are a family of functions `H → H` that compose,
//! evaluate and invert in O(1) — and the appendix's "natural choice" is
//! **linear functions** `f(x) = a·x + b (mod 2^w)` with `a` odd
//! (invertible), represented as the pair `(a, b)`.
//!
//! Concretely, each variable map carries a pending transform `f` (and its
//! inverse). At a binary node the bigger map's pending transform is
//! composed with `f_L`/`f_R` in O(1); the smaller map's entries are pushed
//! through their side's transform eagerly and inserted through `f⁻¹` so
//! that a later read-out through `f` recovers the right value. Variables
//! present on both sides go through a 2-ary combiner, at most
//! |smaller map| times — the appendix's note.
//!
//! The map *hash* is derived from `(a, b, xor-of-stored-entry-hashes)`.
//! This triple is determined by the merge history, which is itself
//! determined by the expression's structure — identical for
//! alpha-equivalent terms — so equal terms still hash equal. As the paper
//! says, collisions are harder to reason about than for the tagged
//! variant ("using a StructureTag-based variant is preferable. However, we
//! have also implemented the variant described in this section, and found
//! that in practice it also produces strong hashes"); property tests
//! check that it induces the same equivalence classes as the tagged
//! algorithm on randomised inputs.

use crate::combine::{mix64, HashScheme, HashWord};
use crate::hashed::NameHashCache;
use lambda_lang::arena::{ExprArena, ExprNode, NodeId};
use lambda_lang::symbol::Symbol;
use lambda_lang::visit::postorder;
use std::collections::BTreeMap;

/// An invertible linear function `x ↦ a·x + b` over `Z/2⁶⁴` with `a` odd.
///
/// Composition, evaluation and inversion are all O(1) — the Appendix C
/// requirements.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Lin {
    /// Multiplier (kept odd, hence invertible mod 2⁶⁴).
    pub a: u64,
    /// Offset.
    pub b: u64,
}

impl Lin {
    /// The identity function.
    pub fn identity() -> Self {
        Lin { a: 1, b: 0 }
    }

    /// Builds a linear function, forcing `a` odd.
    pub fn new(a: u64, b: u64) -> Self {
        Lin { a: a | 1, b }
    }

    /// Evaluates `self` at `x`.
    #[inline]
    pub fn apply(self, x: u64) -> u64 {
        self.a.wrapping_mul(x).wrapping_add(self.b)
    }

    /// `self ∘ g`: first apply `g`, then `self`.
    /// `(a₁, b₁) ∘ (a₂, b₂) = (a₁·a₂, a₁·b₂ + b₁)` — the appendix formula.
    #[inline]
    pub fn compose(self, g: Lin) -> Lin {
        Lin {
            a: self.a.wrapping_mul(g.a),
            b: self.a.wrapping_mul(g.b).wrapping_add(self.b),
        }
    }

    /// The inverse function (exists because `a` is odd). O(1) via Newton
    /// iteration for the modular inverse of `a`.
    pub fn inverse(self) -> Lin {
        let a_inv = inverse_odd(self.a);
        Lin {
            a: a_inv,
            b: a_inv.wrapping_mul(self.b).wrapping_neg(),
        }
    }
}

/// Modular inverse of an odd 64-bit integer by Newton–Hensel lifting:
/// each step doubles the number of correct low bits.
fn inverse_odd(a: u64) -> u64 {
    debug_assert!(a & 1 == 1);
    let mut x: u64 = a; // correct to 3 bits for odd a
    for _ in 0..5 {
        x = x.wrapping_mul(2u64.wrapping_sub(a.wrapping_mul(x)));
    }
    debug_assert_eq!(a.wrapping_mul(x), 1);
    x
}

/// A variable map with a lazy pending linear transform (Appendix C).
#[derive(Clone, Debug)]
struct VarMapL {
    /// Stored (pre-transform) position hashes.
    map: BTreeMap<Symbol, u64>,
    /// Pending transform: actual value = `f(stored)`.
    f: Lin,
    /// Cached inverse of `f`.
    f_inv: Lin,
    /// XOR over `entry(name, stored)` of the *stored* values.
    xor: u64,
}

impl VarMapL {
    fn new() -> Self {
        VarMapL {
            map: BTreeMap::new(),
            f: Lin::identity(),
            f_inv: Lin::identity(),
            xor: 0,
        }
    }

    fn len(&self) -> usize {
        self.map.len()
    }
}

/// The Appendix C summariser. Produces alpha-respecting hashes with the
/// same asymptotics as the tagged algorithm, using lazy linear transforms
/// in place of `PTJoin` tags.
#[derive(Debug)]
pub struct LinearSummariser<'s, H: HashWord> {
    scheme: &'s HashScheme<H>,
    names: NameHashCache,
    f_left: Lin,
    f_right: Lin,
    here: u64,
    /// Map operations performed at binary nodes (same accounting as the
    /// tagged algorithm's `merge_ops`).
    pub merge_ops: u64,
}

impl<'s, H: HashWord> LinearSummariser<'s, H> {
    /// Creates a summariser for `arena`; `f_L`, `f_R` and the leaf value
    /// are derived from the scheme seed. Every later call must pass the
    /// same arena; nothing is read from it up front.
    pub fn new(_arena: &ExprArena, scheme: &'s HashScheme<H>) -> Self {
        let seed = scheme.seed();
        LinearSummariser {
            scheme,
            names: NameHashCache::new(),
            f_left: Lin::new(mix64(seed ^ 0xF_1EF7), mix64(seed ^ 0xB_1EF7)),
            f_right: Lin::new(mix64(seed ^ 0xF_81687), mix64(seed ^ 0xB_81687)),
            here: mix64(seed ^ 0x4E7E),
            merge_ops: 0,
        }
    }

    #[inline]
    fn name_hash(&mut self, arena: &ExprArena, sym: Symbol) -> u64 {
        self.names.get(arena, self.scheme, sym)
    }

    #[inline]
    fn entry(&self, name_hash: u64, stored: u64) -> u64 {
        mix64(mix64(name_hash ^ 0xE17B_u64) ^ stored)
    }

    #[inline]
    fn f_both(&self, left_actual: u64, right_actual: u64) -> u64 {
        mix64(mix64(left_actual ^ 0xB07B_u64) ^ right_actual.rotate_left(31))
    }

    /// The map hash: determined by `(f, xor)` — see the module docs for
    /// why this respects alpha-equivalence.
    fn vm_hash(&self, vm: &VarMapL) -> H {
        crate::combine::Mixer::new(self.scheme.seed(), 0x7117)
            .absorb(vm.f.a)
            .absorb(vm.f.b)
            .absorb(vm.xor)
            .finish()
    }

    /// Converts an actual (post-transform) position value into an `H` for
    /// feeding to the structure combiners.
    fn pos_to_word(&self, actual: u64) -> H {
        H::from_lanes(mix64(actual ^ 0x90_5E), mix64(actual ^ 0x90_5F))
    }

    /// Removes `sym` (a binder) from the map, returning the *actual*
    /// position value.
    fn remove(&mut self, arena: &ExprArena, vm: &mut VarMapL, sym: Symbol) -> Option<u64> {
        let stored = vm.map.remove(&sym)?;
        let nh = self.name_hash(arena, sym);
        vm.xor ^= self.entry(nh, stored);
        Some(vm.f.apply(stored))
    }

    /// The lazy merge: compose the bigger side's pending transform with
    /// its role transform; fold the smaller side's entries in eagerly.
    fn merge(&mut self, arena: &ExprArena, left: VarMapL, right: VarMapL) -> VarMapL {
        let left_bigger = left.len() >= right.len();
        let (mut bigger, smaller, f_big_role, f_small_role) = if left_bigger {
            (left, right, self.f_left, self.f_right)
        } else {
            (right, left, self.f_right, self.f_left)
        };
        // O(1): the bigger map's pending transform absorbs its role.
        bigger.f = f_big_role.compose(bigger.f);
        bigger.f_inv = bigger.f.inverse();

        for (sym, small_stored) in smaller.map {
            self.merge_ops += 1;
            let nh = self.name_hash(arena, sym);
            let small_actual = smaller.f.apply(small_stored);
            let conceptual = match bigger.map.get(&sym) {
                Some(&big_stored) => {
                    // Both sides: combine the two *actual* values. The
                    // bigger side's actual is read through the NEW pending
                    // transform minus its role — i.e. its pre-merge value.
                    let big_actual_pre = f_big_role.inverse().apply(bigger.f.apply(big_stored));
                    let (l_act, r_act) = if left_bigger {
                        (big_actual_pre, small_actual)
                    } else {
                        (small_actual, big_actual_pre)
                    };
                    self.f_both(l_act, r_act)
                }
                None => f_small_role.apply(small_actual),
            };
            let new_stored = bigger.f_inv.apply(conceptual);
            if let Some(&old_stored) = bigger.map.get(&sym) {
                bigger.xor ^= self.entry(nh, old_stored);
            }
            bigger.xor ^= self.entry(nh, new_stored);
            bigger.map.insert(sym, new_stored);
        }
        bigger
    }

    /// Hashes every subexpression (the Appendix C analogue of
    /// [`crate::hashed::HashedSummariser::summarise_all`]).
    pub fn summarise_all(
        &mut self,
        arena: &ExprArena,
        root: NodeId,
    ) -> crate::hashed::SubtreeHashes<H> {
        let mut out = vec![None; arena.len()];
        let scheme = self.scheme;
        // (structure hash, structure size, varmap)
        let mut stack: Vec<(H, u64, VarMapL)> = Vec::new();

        for n in postorder(arena, root) {
            let (st, size, vm) = match arena.node(n) {
                ExprNode::Var(s) => {
                    let mut vm = VarMapL::new();
                    let nh = self.name_hash(arena, s);
                    vm.xor ^= self.entry(nh, self.here);
                    vm.map.insert(s, self.here);
                    (scheme.s_var(), 1, vm)
                }
                ExprNode::Lit(l) => (scheme.s_lit(l.kind_tag(), l.payload()), 1, VarMapL::new()),
                ExprNode::Lam(x, _) => {
                    let (st_b, size_b, mut vm) = stack.pop().expect("lam body");
                    let pos = self.remove(arena, &mut vm, x).map(|a| self.pos_to_word(a));
                    let size = 1 + size_b;
                    (scheme.s_lam(size, pos, st_b), size, vm)
                }
                ExprNode::App(_, _) => {
                    let (st_r, size_r, vm_r) = stack.pop().expect("app arg");
                    let (st_l, size_l, vm_l) = stack.pop().expect("app fun");
                    let size = 1 + size_l + size_r;
                    let left_bigger = vm_l.len() >= vm_r.len();
                    let vm = self.merge(arena, vm_l, vm_r);
                    (scheme.s_app(size, left_bigger, st_l, st_r), size, vm)
                }
                ExprNode::Let(x, _, _) => {
                    let (st_b, size_b, mut vm_b) = stack.pop().expect("let body");
                    let (st_r, size_r, vm_r) = stack.pop().expect("let rhs");
                    let pos = self
                        .remove(arena, &mut vm_b, x)
                        .map(|a| self.pos_to_word(a));
                    let size = 1 + size_r + size_b;
                    let rhs_bigger = vm_r.len() >= vm_b.len();
                    let vm = self.merge(arena, vm_r, vm_b);
                    (scheme.s_let(size, rhs_bigger, pos, st_r, st_b), size, vm)
                }
            };
            out[n.index()] = Some(scheme.esummary(st, self.vm_hash(&vm)));
            stack.push((st, size, vm));
        }
        crate::hashed::SubtreeHashes::from_vec(out)
    }
}

/// One-shot: the linear-variant hash of a whole expression.
pub fn hash_expr_linear<H: HashWord>(arena: &ExprArena, root: NodeId, scheme: &HashScheme<H>) -> H {
    let mut s = LinearSummariser::new(arena, scheme);
    let all = s.summarise_all(arena, root);
    all.get(root).expect("root hashed")
}

#[cfg(test)]
mod tests {
    use super::*;
    use lambda_lang::parse::parse;
    use lambda_lang::uniquify::uniquify;

    #[test]
    fn lin_algebra() {
        let f = Lin::new(0x1234_5679, 42);
        let g = Lin::new(0xDEAD_BEEF, 7);
        // Composition law.
        for x in [0u64, 1, 99, u64::MAX, 0x8000_0000_0000_0000] {
            assert_eq!(f.compose(g).apply(x), f.apply(g.apply(x)));
        }
        // Inverse law.
        let f_inv = f.inverse();
        for x in [0u64, 5, 1 << 40, u64::MAX - 3] {
            assert_eq!(f_inv.apply(f.apply(x)), x);
            assert_eq!(f.apply(f_inv.apply(x)), x);
        }
        // Identity.
        assert_eq!(Lin::identity().apply(123), 123);
        assert_eq!(f.compose(Lin::identity()), f);
    }

    #[test]
    fn inverse_of_inverse_is_identity_function() {
        let f = Lin::new(mix64(1), mix64(2));
        let back = f.inverse().inverse();
        for x in [0u64, 17, 1 << 50] {
            assert_eq!(back.apply(x), f.apply(x));
        }
    }

    #[test]
    fn new_forces_odd_multiplier() {
        let f = Lin::new(4, 0); // even input
        assert_eq!(f.a & 1, 1);
    }

    fn hash_of(src: &str) -> u64 {
        let mut a = ExprArena::new();
        let parsed = parse(&mut a, src).unwrap();
        let (b, root) = uniquify(&a, parsed);
        let scheme: HashScheme<u64> = HashScheme::new(77);
        hash_expr_linear(&b, root, &scheme)
    }

    #[test]
    fn respects_alpha_equivalence_on_paper_examples() {
        assert_eq!(hash_of(r"\x. x + y"), hash_of(r"\p. p + y"));
        assert_eq!(hash_of(r"\x. x"), hash_of(r"\y. y"));
        assert_eq!(
            hash_of("let bar = x+1 in bar*y"),
            hash_of("let p = x+1 in p*y")
        );
        assert_ne!(hash_of(r"\x. x + y"), hash_of(r"\q. q + z"));
        assert_ne!(hash_of("add x y"), hash_of("add x x"));
        assert_ne!(hash_of(r"\x. \y. x"), hash_of(r"\x. \y. y"));
        assert_ne!(hash_of("x + 2"), hash_of("y + 2"));
    }

    #[test]
    fn classes_match_tagged_algorithm() {
        use crate::equiv::{ground_truth_classes, group_by_hash, same_partition};
        for src in [
            r"foo (\x. x+7) (\y. y+7)",
            "(a + (v+7)) * (v+7)",
            r"\t. foo (\x. x + t) (\y. \x. x + t)",
            "foo (let x = bar in x+2) (let x = pubx in x+2)",
        ] {
            let mut a = ExprArena::new();
            let parsed = parse(&mut a, src).unwrap();
            let (b, root) = uniquify(&a, parsed);
            let scheme: HashScheme<u64> = HashScheme::new(77);
            let mut linear = LinearSummariser::new(&b, &scheme);
            let lin_classes = group_by_hash(&linear.summarise_all(&b, root));
            let truth = ground_truth_classes(&b, root);
            assert!(same_partition(&lin_classes, &truth), "mismatch for {src}");
        }
    }

    #[test]
    fn merge_ops_match_tagged_accounting() {
        // The lazy variant must do smaller-side work only, like §4.8.
        let mut a = ExprArena::new();
        let mut e = a.var_named("f");
        for i in 0..500 {
            let v = a.var_named(&format!("x{i}"));
            e = a.app(e, v);
        }
        let scheme: HashScheme<u64> = HashScheme::new(77);
        let mut linear = LinearSummariser::new(&a, &scheme);
        let _ = linear.summarise_all(&a, e);
        assert!(linear.merge_ops <= 1000, "merge_ops = {}", linear.merge_ops);
    }
}
