//! De Bruijn hashing — paper §2.4.
//!
//! Convert the whole expression to de Bruijn form (bound occurrences →
//! indices counting intervening binders, free variables keep names), then
//! hash structurally. One environment lookup per variable occurrence in a
//! balanced-tree map ⇒ O(n log n).
//!
//! As §2.4 shows, this baseline is wrong in both directions for
//! subexpressions in context:
//!
//! * **false negatives** — in `\t. foo (\x.x+t) (\y.\x.x+t)` the two
//!   `\x.x+t` subterms are alpha-equivalent but their `t` occurrences get
//!   indices `%1` vs `%2`;
//! * **false positives** — in `\t. foo (\x.t*(x+1)) (\y.\x.y*(x+1))` the
//!   inner lambdas both read `\.%1*(%0+1)` yet refer to different outer
//!   variables.

use alpha_hash::combine::{HashScheme, HashWord, Mixer};
use alpha_hash::hashed::{NameHashCache, SubtreeHashes};
use lambda_lang::arena::{ExprArena, ExprNode, NodeId};
use lambda_lang::symbol::Symbol;
use lambda_lang::visit::{walk_scoped, ScopeEvent};
use std::collections::BTreeMap;

const SALT_BVAR: u64 = 0x61;
const SALT_FVAR: u64 = 0x62;
const SALT_LAM: u64 = 0x63;
const SALT_APP: u64 = 0x64;
const SALT_LET: u64 = 0x65;
const SALT_LIT: u64 = 0x66;

/// Hashes every subexpression of the global de Bruijn conversion.
/// O(n log n): one ordered-map operation per binder/occurrence.
///
/// # Examples
///
/// ```
/// use lambda_lang::{ExprArena, parse};
/// use alpha_hash::combine::HashScheme;
/// use hash_baselines::hash_all_debruijn;
///
/// let scheme: HashScheme<u64> = HashScheme::default();
/// let mut a = ExprArena::new();
/// let e1 = parse(&mut a, r"\x. x + 1")?;
/// let e2 = parse(&mut a, r"\y. y + 1")?;
/// // Whole-expression hashing modulo alpha works (that is why de Bruijn
/// // is tempting)…
/// let h1 = hash_all_debruijn(&a, e1, &scheme).get(e1);
/// let h2 = hash_all_debruijn(&a, e2, &scheme).get(e2);
/// assert_eq!(h1, h2);
/// # Ok::<(), lambda_lang::ParseError>(())
/// ```
pub fn hash_all_debruijn<H: HashWord>(
    arena: &ExprArena,
    root: NodeId,
    scheme: &HashScheme<H>,
) -> SubtreeHashes<H> {
    let mut names = NameHashCache::new();
    let seed = scheme.seed();
    let mut out: Vec<Option<H>> = vec![None; arena.len()];
    let mut stack: Vec<H> = Vec::new();

    // Scope state: binder → level at which it was bound; depth = number
    // of binders currently in scope. A BTreeMap gives the O(log n)
    // per-lookup cost the paper's complexity row assumes.
    let mut env: BTreeMap<Symbol, Vec<u32>> = BTreeMap::new(); // stack per name: shadowing-safe
    let mut depth: u32 = 0;

    walk_scoped(arena, root, |ev| match ev {
        ScopeEvent::Bind { sym, .. } => {
            env.entry(sym).or_default().push(depth);
            depth += 1;
        }
        ScopeEvent::Unbind { sym, .. } => {
            let levels = env.get_mut(&sym).expect("unbind without bind");
            levels.pop();
            if levels.is_empty() {
                env.remove(&sym);
            }
            depth -= 1;
        }
        ScopeEvent::Enter(_) => {}
        ScopeEvent::Exit(n) => {
            let h: H = match arena.node(n) {
                ExprNode::Var(s) => match env.get(&s).and_then(|ls| ls.last()) {
                    Some(&level) => {
                        let index = depth - level - 1;
                        Mixer::new(seed, SALT_BVAR).absorb(index as u64).finish()
                    }
                    None => Mixer::new(seed, SALT_FVAR)
                        .absorb(names.get(arena, scheme, s))
                        .finish(),
                },
                ExprNode::Lit(l) => Mixer::new(seed, SALT_LIT)
                    .absorb(l.kind_tag())
                    .absorb(l.payload())
                    .finish(),
                ExprNode::Lam(_, _) => {
                    let body = stack.pop().expect("lam body hash");
                    // Binder is anonymous in de Bruijn form.
                    Mixer::new(seed, SALT_LAM).absorb_word(body).finish()
                }
                ExprNode::App(_, _) => {
                    let arg = stack.pop().expect("app arg hash");
                    let fun = stack.pop().expect("app fun hash");
                    Mixer::new(seed, SALT_APP)
                        .absorb_word(fun)
                        .absorb_word(arg)
                        .finish()
                }
                ExprNode::Let(_, _, _) => {
                    let body = stack.pop().expect("let body hash");
                    let rhs = stack.pop().expect("let rhs hash");
                    Mixer::new(seed, SALT_LET)
                        .absorb_word(rhs)
                        .absorb_word(body)
                        .finish()
                }
            };
            out[n.index()] = Some(h);
            stack.push(h);
        }
    });

    SubtreeHashes::from_vec(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lambda_lang::parse::parse;

    fn scheme() -> HashScheme<u64> {
        HashScheme::new(9)
    }

    fn whole_hash(src: &str) -> u64 {
        let mut a = ExprArena::new();
        let root = parse(&mut a, src).unwrap();
        hash_all_debruijn(&a, root, &scheme()).get(root).unwrap()
    }

    /// Hash of a specific subexpression within `src`: the `k`-th (in
    /// pre-order) node that is a lambda of subtree size `size`.
    fn lam_hash(src: &str, size: usize, k: usize) -> u64 {
        let mut a = ExprArena::new();
        let root = parse(&mut a, src).unwrap();
        let hashes = hash_all_debruijn(&a, root, &scheme());
        let lams: Vec<NodeId> = lambda_lang::visit::preorder(&a, root)
            .into_iter()
            .filter(|&n| matches!(a.node(n), ExprNode::Lam(_, _)) && a.subtree_size(n) == size)
            .collect();
        hashes.get(lams[k]).unwrap()
    }

    #[test]
    fn whole_expressions_hash_modulo_alpha() {
        assert_eq!(whole_hash(r"\x. x + 1"), whole_hash(r"\y. y + 1"));
        assert_eq!(
            whole_hash("let bar = x+1 in bar*y"),
            whole_hash("let p = x+1 in p*y")
        );
        assert_ne!(whole_hash(r"\x. x + y"), whole_hash(r"\x. x + z"));
    }

    #[test]
    fn paper_false_negative() {
        // §2.4: two alpha-equivalent (\x.x+t) subterms hash differently
        // because t's index depends on the enclosing lambdas.
        let src = r"\t. foo (\x. x + t) (\y. \x. x + t)";
        // Sizes: (\x. x+t) has 6 nodes.
        let h_first = lam_hash(src, 6, 0);
        let h_second = lam_hash(src, 6, 1);
        assert_ne!(h_first, h_second, "expected the §2.4 false negative");
    }

    #[test]
    fn paper_false_positive() {
        // §2.4: (\x. t*(x+1)) and (\x. y*(x+1)) hash EQUAL under de
        // Bruijn although they are not alpha-equivalent (different free
        // variables — t vs the y bound one level further out).
        let src = r"\t. foo (\x. t * (x+1)) (\y. \x. y * (x+1))";
        // Each inner lambda has 10 nodes; the enclosing \y.\x chain has 11
        // and is filtered out, so indices 0 and 1 are the two candidates.
        let h_first = lam_hash(src, 10, 0);
        let h_second = lam_hash(src, 10, 1); // inner \x of the \y.\x chain
        assert_eq!(h_first, h_second, "expected the §2.4 false positive");
    }

    #[test]
    fn shadowing_resolves_to_innermost() {
        // \x. \x. x — inner x refers to the inner binder (index 0),
        // making the term equal to \a. \b. b.
        assert_eq!(whole_hash(r"\x. \x. x"), whole_hash(r"\a. \b. b"));
        assert_ne!(whole_hash(r"\x. \x. x"), whole_hash(r"\a. \b. a"));
    }

    #[test]
    fn lets_count_as_binders() {
        assert_eq!(
            whole_hash("let w = 1 in w + z"),
            whole_hash("let q = 1 in q + z")
        );
        assert_ne!(
            whole_hash("let w = 1 in w + z"),
            whole_hash("let w = 1 in z + w")
        );
    }

    #[test]
    fn deep_input_is_stack_safe() {
        let mut a = ExprArena::new();
        let mut e = a.var_named("base");
        for i in 0..150_000 {
            let x = a.intern(&format!("x{i}"));
            e = a.lam(x, e);
        }
        let hashes = hash_all_debruijn(&a, e, &scheme());
        assert!(hashes.get(e).is_some());
    }
}
