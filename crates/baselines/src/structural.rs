//! Structural (purely syntactic) hashing — paper §2.3.
//!
//! The classic hash-consing hash: a node's hash combines its constructor,
//! any names it carries (binder names *and* variable names included), and
//! its children's hashes. One O(1) combination per node ⇒ O(n) total.
//!
//! Perfect for structure sharing; wrong for alpha-equivalence — `\x.x+1`
//! and `\y.y+1` hash differently (false negatives, §2.2). With the
//! unique-binder preprocessing it produces no false positives, hence
//! Table 1's "True pos. = Yes, True neg. = No".

use alpha_hash::combine::{HashScheme, HashWord, Mixer};
use alpha_hash::hashed::{NameHashCache, SubtreeHashes};
use lambda_lang::arena::{ExprArena, ExprNode, NodeId};
use lambda_lang::visit::postorder;

const SALT_VAR: u64 = 0x51;
const SALT_LAM: u64 = 0x52;
const SALT_APP: u64 = 0x53;
const SALT_LET: u64 = 0x54;
const SALT_LIT: u64 = 0x55;

/// Hashes every subexpression syntactically. O(n).
///
/// # Examples
///
/// ```
/// use lambda_lang::{ExprArena, parse};
/// use alpha_hash::combine::HashScheme;
/// use hash_baselines::hash_all_structural;
///
/// let scheme: HashScheme<u64> = HashScheme::default();
/// let mut a = ExprArena::new();
/// let e1 = parse(&mut a, r"\x. x + 1")?;
/// let e2 = parse(&mut a, r"\y. y + 1")?;
/// let h = hash_all_structural(&a, e1, &scheme);
/// let g = hash_all_structural(&a, e2, &scheme);
/// // False negative: alpha-equivalent but differently named ⇒ different.
/// assert_ne!(h.get(e1), g.get(e2));
/// # Ok::<(), lambda_lang::ParseError>(())
/// ```
pub fn hash_all_structural<H: HashWord>(
    arena: &ExprArena,
    root: NodeId,
    scheme: &HashScheme<H>,
) -> SubtreeHashes<H> {
    let mut names = NameHashCache::new();
    let seed = scheme.seed();
    let mut out: Vec<Option<H>> = vec![None; arena.len()];
    let mut stack: Vec<H> = Vec::new();

    for n in postorder(arena, root) {
        let h: H = match arena.node(n) {
            ExprNode::Var(s) => Mixer::new(seed, SALT_VAR)
                .absorb(names.get(arena, scheme, s))
                .finish(),
            ExprNode::Lit(l) => Mixer::new(seed, SALT_LIT)
                .absorb(l.kind_tag())
                .absorb(l.payload())
                .finish(),
            ExprNode::Lam(x, _) => {
                let body = stack.pop().expect("lam body hash");
                Mixer::new(seed, SALT_LAM)
                    .absorb(names.get(arena, scheme, x))
                    .absorb_word(body)
                    .finish()
            }
            ExprNode::App(_, _) => {
                let arg = stack.pop().expect("app arg hash");
                let fun = stack.pop().expect("app fun hash");
                Mixer::new(seed, SALT_APP)
                    .absorb_word(fun)
                    .absorb_word(arg)
                    .finish()
            }
            ExprNode::Let(x, _, _) => {
                let body = stack.pop().expect("let body hash");
                let rhs = stack.pop().expect("let rhs hash");
                Mixer::new(seed, SALT_LET)
                    .absorb(names.get(arena, scheme, x))
                    .absorb_word(rhs)
                    .absorb_word(body)
                    .finish()
            }
        };
        out[n.index()] = Some(h);
        stack.push(h);
    }
    SubtreeHashes::from_vec(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lambda_lang::parse::parse;

    fn hash_of(src: &str) -> u64 {
        let mut a = ExprArena::new();
        let root = parse(&mut a, src).unwrap();
        let scheme = HashScheme::new(7);
        hash_all_structural(&a, root, &scheme).get(root).unwrap()
    }

    #[test]
    fn identical_trees_hash_equal() {
        assert_eq!(hash_of("f x (g y)"), hash_of("f x (g y)"));
        assert_eq!(hash_of(r"\x. x + 1"), hash_of(r"\x. x + 1"));
    }

    #[test]
    fn false_negative_on_alpha_renaming() {
        // §2.2: the failure mode this baseline exists to demonstrate.
        assert_ne!(hash_of(r"\x. x + 1"), hash_of(r"\y. y + 1"));
        assert_ne!(
            hash_of("let bar = x+1 in bar*y"),
            hash_of("let p = x+1 in p*y")
        );
    }

    #[test]
    fn distinct_trees_hash_differently() {
        assert_ne!(hash_of("f x"), hash_of("f y"));
        assert_ne!(hash_of("1"), hash_of("2"));
        assert_ne!(hash_of("1"), hash_of("1.0"));
        assert_ne!(hash_of(r"\x. x"), hash_of("let x = x in x"));
    }

    #[test]
    fn subexpression_hashes_are_recorded() {
        let mut a = ExprArena::new();
        let root = parse(&mut a, "f (g x) (g x)").unwrap();
        let scheme: HashScheme<u64> = HashScheme::new(7);
        let hashes = hash_all_structural(&a, root, &scheme);
        assert_eq!(hashes.len(), 9); // 2 apps + f + 2×(g x)
                                     // The two syntactically identical `g x` subtrees hash equal.
        let gs: Vec<u64> = lambda_lang::visit::preorder(&a, root)
            .into_iter()
            .filter(|&n| a.subtree_size(n) == 3)
            .map(|n| hashes.get(n).unwrap())
            .collect();
        assert_eq!(gs.len(), 2);
        assert_eq!(gs[0], gs[1]);
    }

    #[test]
    fn deep_input_is_stack_safe() {
        let mut a = ExprArena::new();
        let x = a.intern("x");
        let mut e = a.var(x);
        for _ in 0..200_000 {
            e = a.lam(x, e);
        }
        let scheme: HashScheme<u64> = HashScheme::new(7);
        let hashes = hash_all_structural(&a, e, &scheme);
        assert!(hashes.get(e).is_some());
    }
}
