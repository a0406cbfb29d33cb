//! Locally nameless hashing — paper §2.5.
//!
//! The hash of a subexpression is the hash of its de-Bruijn-ised
//! representation *taken in isolation*: locally bound variables become
//! indices, free variables (of the subterm) keep their names. This is the
//! fastest known **correct** baseline — Table 1's comparison point.
//!
//! It is not compositional at binders: "the hash of `(\x.e)` cannot be
//! obtained from the hash of `e` … we must first de-Bruijn-ise `x` in
//! `e`, and then take the hash of that" (§2.5). Application and let-rhs
//! hashes do combine children in O(1); every `Lam` (and the body side of
//! every `Let`) re-traverses its whole body. Worst case O(n² log n) —
//! the complexity hole our algorithm removes.

use alpha_hash::combine::{HashScheme, HashWord, Mixer};
use alpha_hash::hashed::{NameHashCache, SubtreeHashes};
use lambda_lang::arena::{ExprArena, ExprNode, NodeId};
use lambda_lang::symbol::Symbol;
use std::collections::BTreeMap;

const SALT_BVAR: u64 = 0x71;
const SALT_FVAR: u64 = 0x72;
const SALT_LAM: u64 = 0x73;
const SALT_APP: u64 = 0x74;
const SALT_LET: u64 = 0x75;
const SALT_LIT: u64 = 0x76;

struct LnHasher<'a, H: HashWord> {
    arena: &'a ExprArena,
    scheme: &'a HashScheme<H>,
    seed: u64,
    names: NameHashCache,
}

impl<'a, H: HashWord> LnHasher<'a, H> {
    /// Hash of the subtree at `node` in isolation, with `env` mapping the
    /// binders crossed *within this isolated traversal* to their levels.
    /// Iterative (explicit stack): the re-traversals happen on arbitrarily
    /// deep bodies.
    fn iso_hash(&mut self, node: NodeId) -> H {
        enum Task {
            Enter(NodeId),
            BindThenBody { sym: Symbol, body: NodeId },
            Exit(NodeId),
            Unbind { sym: Symbol, old: Option<u32> },
        }
        let mut env: BTreeMap<Symbol, u32> = BTreeMap::new();
        let mut depth: u32 = 0;
        let mut values: Vec<H> = Vec::new();
        let mut stack = vec![Task::Enter(node)];

        while let Some(task) = stack.pop() {
            match task {
                Task::Enter(n) => match self.arena.node(n) {
                    ExprNode::Var(_) | ExprNode::Lit(_) => stack.push(Task::Exit(n)),
                    ExprNode::Lam(x, b) => {
                        stack.push(Task::Exit(n));
                        stack.push(Task::BindThenBody { sym: x, body: b });
                    }
                    ExprNode::App(f, a) => {
                        stack.push(Task::Exit(n));
                        stack.push(Task::Enter(a));
                        stack.push(Task::Enter(f));
                    }
                    ExprNode::Let(x, r, b) => {
                        stack.push(Task::Exit(n));
                        stack.push(Task::BindThenBody { sym: x, body: b });
                        stack.push(Task::Enter(r));
                    }
                },
                Task::BindThenBody { sym, body } => {
                    let old = env.insert(sym, depth);
                    depth += 1;
                    stack.push(Task::Unbind { sym, old });
                    stack.push(Task::Enter(body));
                }
                Task::Unbind { sym, old } => {
                    match old {
                        Some(v) => {
                            env.insert(sym, v);
                        }
                        None => {
                            env.remove(&sym);
                        }
                    }
                    depth -= 1;
                }
                Task::Exit(n) => {
                    let h: H = match self.arena.node(n) {
                        ExprNode::Var(s) => match env.get(&s) {
                            Some(&level) => Mixer::new(self.seed, SALT_BVAR)
                                .absorb((depth - level - 1) as u64)
                                .finish(),
                            None => Mixer::new(self.seed, SALT_FVAR)
                                .absorb(self.names.get(self.arena, self.scheme, s))
                                .finish(),
                        },
                        ExprNode::Lit(l) => Mixer::new(self.seed, SALT_LIT)
                            .absorb(l.kind_tag())
                            .absorb(l.payload())
                            .finish(),
                        ExprNode::Lam(_, _) => {
                            let body = values.pop().expect("lam body");
                            Mixer::new(self.seed, SALT_LAM).absorb_word(body).finish()
                        }
                        ExprNode::App(_, _) => {
                            let arg = values.pop().expect("app arg");
                            let fun = values.pop().expect("app fun");
                            Mixer::new(self.seed, SALT_APP)
                                .absorb_word(fun)
                                .absorb_word(arg)
                                .finish()
                        }
                        ExprNode::Let(_, _, _) => {
                            let body = values.pop().expect("let body");
                            let rhs = values.pop().expect("let rhs");
                            Mixer::new(self.seed, SALT_LET)
                                .absorb_word(rhs)
                                .absorb_word(body)
                                .finish()
                        }
                    };
                    values.push(h);
                }
            }
        }
        values.pop().expect("iso hash computed")
    }
}

/// Hashes every subexpression with the locally nameless scheme.
///
/// Correct modulo alpha (Table 1: true positives *and* true negatives)
/// but O(n² log n): each binder re-hashes its whole body.
///
/// # Examples
///
/// ```
/// use lambda_lang::{ExprArena, parse};
/// use alpha_hash::combine::HashScheme;
/// use hash_baselines::hash_all_locally_nameless;
///
/// let scheme: HashScheme<u64> = HashScheme::default();
/// let mut a = ExprArena::new();
/// let e1 = parse(&mut a, r"\x. x + free")?;
/// let e2 = parse(&mut a, r"\y. y + free")?;
/// let h1 = hash_all_locally_nameless(&a, e1, &scheme).get(e1);
/// let h2 = hash_all_locally_nameless(&a, e2, &scheme).get(e2);
/// assert_eq!(h1, h2);
/// # Ok::<(), lambda_lang::ParseError>(())
/// ```
pub fn hash_all_locally_nameless<H: HashWord>(
    arena: &ExprArena,
    root: NodeId,
    scheme: &HashScheme<H>,
) -> SubtreeHashes<H> {
    let mut hasher = LnHasher {
        arena,
        scheme,
        seed: scheme.seed(),
        names: NameHashCache::new(),
    };
    let mut out: Vec<Option<H>> = vec![None; arena.len()];
    let mut stack: Vec<H> = Vec::new();

    // Bottom-up: App/Let combine children in O(1); Lam and the body side
    // of Let re-hash the body subtree in isolation — exactly the §2.5
    // cost model.
    for n in lambda_lang::visit::postorder(arena, root) {
        let h: H = match arena.node(n) {
            ExprNode::Var(s) => Mixer::new(hasher.seed, SALT_FVAR)
                .absorb(hasher.names.get(arena, scheme, s))
                .finish(),
            ExprNode::Lit(l) => Mixer::new(hasher.seed, SALT_LIT)
                .absorb(l.kind_tag())
                .absorb(l.payload())
                .finish(),
            ExprNode::Lam(_, _) => {
                let _body = stack.pop().expect("lam body hash");
                // Not compositional: re-hash the whole lambda in isolation.
                hasher.iso_hash(n)
            }
            ExprNode::App(_, _) => {
                let arg = stack.pop().expect("app arg hash");
                let fun = stack.pop().expect("app fun hash");
                Mixer::new(hasher.seed, SALT_APP)
                    .absorb_word(fun)
                    .absorb_word(arg)
                    .finish()
            }
            ExprNode::Let(_, _, _) => {
                let _body = stack.pop().expect("let body hash");
                let _rhs = stack.pop().expect("let rhs hash");
                // The let binds in its body: same non-compositionality.
                hasher.iso_hash(n)
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
    use alpha_hash::equiv::{ground_truth_classes, group_by_hash, same_partition};
    use lambda_lang::parse::parse;
    use lambda_lang::uniquify::uniquify;

    fn scheme() -> HashScheme<u64> {
        HashScheme::new(11)
    }

    fn hash_of(src: &str) -> u64 {
        let mut a = ExprArena::new();
        let root = parse(&mut a, src).unwrap();
        hash_all_locally_nameless(&a, root, &scheme())
            .get(root)
            .unwrap()
    }

    #[test]
    fn respects_alpha_equivalence() {
        assert_eq!(hash_of(r"\x. x + y"), hash_of(r"\p. p + y"));
        assert_ne!(hash_of(r"\x. x + y"), hash_of(r"\q. q + z"));
        assert_eq!(
            hash_of("let bar = x+1 in bar*y"),
            hash_of("let p = x+1 in p*y")
        );
        assert_ne!(hash_of("add x y"), hash_of("add x x"));
    }

    #[test]
    fn no_de_bruijn_false_negative() {
        // The §2.4 counterexample: LN hashes each subterm in isolation,
        // so the two (\x.x+t) get equal hashes regardless of context.
        let mut a = ExprArena::new();
        let root = parse(&mut a, r"\t. foo (\x. x + t) (\y. \x. x + t)").unwrap();
        let hashes = hash_all_locally_nameless(&a, root, &scheme());
        let lams: Vec<NodeId> = lambda_lang::visit::preorder(&a, root)
            .into_iter()
            .filter(|&n| matches!(a.node(n), ExprNode::Lam(_, _)) && a.subtree_size(n) == 6)
            .collect();
        assert_eq!(lams.len(), 2);
        assert_eq!(hashes.get(lams[0]), hashes.get(lams[1]));
    }

    #[test]
    fn no_de_bruijn_false_positive() {
        let mut a = ExprArena::new();
        let root = parse(&mut a, r"\t. foo (\x. t * (x+1)) (\y. \x. y * (x+1))").unwrap();
        let hashes = hash_all_locally_nameless(&a, root, &scheme());
        let lams: Vec<NodeId> = lambda_lang::visit::preorder(&a, root)
            .into_iter()
            .filter(|&n| matches!(a.node(n), ExprNode::Lam(_, _)) && a.subtree_size(n) == 10)
            .collect();
        assert_eq!(lams.len(), 2);
        assert_ne!(
            hashes.get(lams[0]),
            hashes.get(lams[1]),
            "t and y are different free variables"
        );
    }

    #[test]
    fn classes_match_ground_truth() {
        for src in [
            r"foo (\x. x+7) (\y. y+7)",
            "(a + (v+7)) * (v+7)",
            r"\t. foo (\x. x + t) (\y. \x. x + t)",
            "foo (let x = bar in x+2) (let x = pubx in x+2)",
        ] {
            let mut a = ExprArena::new();
            let parsed = parse(&mut a, src).unwrap();
            let (b, root) = uniquify(&a, parsed);
            let classes = group_by_hash(&hash_all_locally_nameless(&b, root, &scheme()));
            let truth = ground_truth_classes(&b, root);
            assert!(same_partition(&classes, &truth), "mismatch for {src}");
        }
    }

    #[test]
    fn agrees_with_our_algorithm_on_classes() {
        for src in [
            r"\f. f (\x. f x) (\y. f y)",
            "let w = v + 7 in (a + w) * w",
            r"map (\y. y+1) (map (\x. x+1) vs)",
        ] {
            let mut a = ExprArena::new();
            let parsed = parse(&mut a, src).unwrap();
            let (b, root) = uniquify(&a, parsed);
            let s = scheme();
            let ln = group_by_hash(&hash_all_locally_nameless(&b, root, &s));
            let ours = group_by_hash(&alpha_hash::hashed::hash_all_subexpressions(&b, root, &s));
            assert!(same_partition(&ln, &ours), "mismatch for {src}");
        }
    }

    #[test]
    fn deep_input_is_stack_safe() {
        // 20k nested lambdas: quadratic-ish cost but must not overflow.
        let mut a = ExprArena::new();
        let mut e = a.var_named("base");
        for i in 0..2_000 {
            let x = a.intern(&format!("x{i}"));
            e = a.lam(x, e);
        }
        let hashes = hash_all_locally_nameless(&a, e, &scheme());
        assert!(hashes.get(e).is_some());
    }
}
