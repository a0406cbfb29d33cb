//! Binder uniquification — the preprocessing step of paper §2.2.
//!
//! The paper assumes "every binding site binds a distinct variable name".
//! This pass establishes the invariant by giving every binder a fresh name
//! (free variables are untouched), in time O(n log n).
//! [`check_unique_binders`] verifies it.
//!
//! What the invariant buys is in-context identity: in
//! `foo (let x = bar in x+2) (let x = pubx in x+2)` the two `x+2` are the
//! same standalone subterm but refer to different binders, and only after
//! uniquification do they hash apart. A term's own hash does not need it.
//! The hashed summariser (`alpha_hash::hashed`) and the store's
//! preparation remove each binder's occurrences at the binder, so a
//! shadowed name is already taken by its inner binder, and a raw term
//! hashes, prepares and classifies as its uniquified copy does. The §4.6
//! reference summariser and the incremental engine still `debug_assert!`
//! the invariant at their entry points.

use crate::arena::{ExprArena, ExprNode, NodeId};
use crate::symbol::Symbol;
use std::collections::{HashMap, HashSet};

enum Task {
    Visit(NodeId),
    BuildLam {
        fresh: Symbol,
        undo: (Symbol, Option<Symbol>),
    },
    BuildApp,
    /// The rhs of this `Let` has been visited; bind the binder and visit
    /// the body.
    LetBody {
        binder: Symbol,
        body: NodeId,
    },
    BuildLet {
        fresh: Symbol,
        undo: (Symbol, Option<Symbol>),
    },
}

/// Copies the subtree at `root` into `dst`, renaming every binder to a
/// fresh name so that all binding sites are distinct (both within the copy
/// and against anything already interned in `dst`). Free variables keep
/// their names. Returns the new root. Iterative; safe at any depth.
///
/// # Examples
///
/// ```
/// use lambda_lang::arena::ExprArena;
/// use lambda_lang::parse::parse;
/// use lambda_lang::uniquify::{uniquify_into, check_unique_binders};
/// use lambda_lang::alpha::alpha_eq;
///
/// let mut a = ExprArena::new();
/// // Shadowing: two binding sites named x.
/// let e = parse(&mut a, r"\x. \x. x")?;
/// assert!(check_unique_binders(&a, e).is_err());
///
/// let mut b = ExprArena::new();
/// let u = uniquify_into(&a, e, &mut b);
/// assert!(check_unique_binders(&b, u).is_ok());
/// assert!(alpha_eq(&a, e, &b, u)); // alpha-classes are preserved
/// # Ok::<(), lambda_lang::parse::ParseError>(())
/// ```
pub fn uniquify_into(src: &ExprArena, root: NodeId, dst: &mut ExprArena) -> NodeId {
    let mut env: HashMap<Symbol, Symbol> = HashMap::new();
    let mut results: Vec<NodeId> = Vec::new();
    let mut stack = vec![Task::Visit(root)];

    while let Some(task) = stack.pop() {
        match task {
            Task::Visit(n) => match src.node(n) {
                ExprNode::Var(s) => {
                    let sym = match env.get(&s) {
                        Some(&renamed) => renamed,
                        None => dst.intern(src.name(s)),
                    };
                    let id = dst.var(sym);
                    results.push(id);
                }
                ExprNode::Lit(l) => {
                    let id = dst.lit(l);
                    results.push(id);
                }
                ExprNode::Lam(x, b) => {
                    let fresh = dst.fresh(src.name(x));
                    let old = env.insert(x, fresh);
                    stack.push(Task::BuildLam {
                        fresh,
                        undo: (x, old),
                    });
                    stack.push(Task::Visit(b));
                }
                ExprNode::App(f, a) => {
                    stack.push(Task::BuildApp);
                    stack.push(Task::Visit(a));
                    stack.push(Task::Visit(f));
                }
                ExprNode::Let(x, rhs, body) => {
                    stack.push(Task::LetBody { binder: x, body });
                    stack.push(Task::Visit(rhs));
                }
            },
            Task::BuildLam { fresh, undo } => {
                let body = results.pop().expect("lam body result");
                let id = dst.lam(fresh, body);
                results.push(id);
                restore(&mut env, undo);
            }
            Task::BuildApp => {
                let arg = results.pop().expect("app arg result");
                let func = results.pop().expect("app func result");
                let id = dst.app(func, arg);
                results.push(id);
            }
            Task::LetBody { binder, body } => {
                // rhs has been visited in the *outer* scope; now shadow.
                let fresh = dst.fresh(src.name(binder));
                let old = env.insert(binder, fresh);
                stack.push(Task::BuildLet {
                    fresh,
                    undo: (binder, old),
                });
                stack.push(Task::Visit(body));
            }
            Task::BuildLet { fresh, undo } => {
                let body = results.pop().expect("let body result");
                let rhs = results.pop().expect("let rhs result");
                let id = dst.let_(fresh, rhs, body);
                results.push(id);
                restore(&mut env, undo);
            }
        }
    }

    let root = results.pop().expect("uniquify produced a root");
    debug_assert!(results.is_empty());
    root
}

fn restore(env: &mut HashMap<Symbol, Symbol>, (sym, old): (Symbol, Option<Symbol>)) {
    match old {
        Some(v) => {
            env.insert(sym, v);
        }
        None => {
            env.remove(&sym);
        }
    }
}

/// Convenience wrapper: uniquify into a fresh arena.
pub fn uniquify(src: &ExprArena, root: NodeId) -> (ExprArena, NodeId) {
    let mut dst = ExprArena::new();
    let new_root = uniquify_into(src, root, &mut dst);
    (dst, new_root)
}

/// Checks the unique-binder invariant required by the hashing algorithms:
/// no two binding sites in the subtree share a symbol.
///
/// # Errors
///
/// Returns the first duplicated binder symbol found.
pub fn check_unique_binders(arena: &ExprArena, root: NodeId) -> Result<(), Symbol> {
    let mut seen: HashSet<Symbol> = HashSet::new();
    for n in crate::visit::preorder(arena, root) {
        if let Some(x) = arena.node(n).binder() {
            if !seen.insert(x) {
                return Err(x);
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alpha::alpha_eq;
    use crate::parse::parse;

    fn uniquified(src: &str) -> (ExprArena, NodeId, ExprArena, NodeId) {
        let mut a = ExprArena::new();
        let root = parse(&mut a, src).unwrap();
        let (b, new_root) = uniquify(&a, root);
        (a, root, b, new_root)
    }

    #[test]
    fn preserves_alpha_class() {
        for src in [
            r"\x. x + y",
            r"let x = 1 in let x = x + 1 in x",
            r"(\x. x) (\x. x)",
            r"\x. \x. \x. x",
            "foo (let bar = x+1 in bar*y) (let p = x+1 in p*y)",
        ] {
            let (a, r, b, u) = uniquified(src);
            assert!(alpha_eq(&a, r, &b, u), "uniquify changed class of {src}");
            assert!(
                check_unique_binders(&b, u).is_ok(),
                "binders not unique for {src}"
            );
        }
    }

    #[test]
    fn free_variables_keep_their_names() {
        let (_, _, b, u) = uniquified(r"\x. x + y");
        let text = crate::print::print(&b, u);
        assert!(text.contains("+ y"), "free y renamed: {text}");
    }

    #[test]
    fn detects_duplicate_binders() {
        let mut a = ExprArena::new();
        let e = parse(&mut a, r"(\x. x) (\x. x)").unwrap();
        assert!(check_unique_binders(&a, e).is_err());

        let e2 = parse(&mut a, r"(\x. x) (\y. y)").unwrap();
        assert!(check_unique_binders(&a, e2).is_ok());
    }

    #[test]
    fn let_rhs_sees_outer_binding() {
        // `let x = 1 in let x = x in x` — the inner rhs `x` refers to the
        // OUTER binder; uniquify must keep it that way.
        let (a, r, b, u) = uniquified("let x = 1 in let x = x in x");
        assert!(alpha_eq(&a, r, &b, u));
        // And NOT equivalent to a version where the inner rhs is self-bound
        // (which isn't even expressible with non-recursive let).
        let mut c = ExprArena::new();
        let other = parse(&mut c, "let p = 1 in let q = p in p").unwrap();
        assert!(!alpha_eq(&b, u, &c, other));
    }

    #[test]
    fn shadowed_occurrences_rebind_correctly() {
        let (a, r, b, u) = uniquified(r"\x. x ((\x. x) x)");
        assert!(alpha_eq(&a, r, &b, u));
        assert!(check_unique_binders(&b, u).is_ok());
    }

    #[test]
    fn idempotent_up_to_alpha() {
        let (_, _, b, u) = uniquified(r"\x. let y = x in y x");
        let (c, u2) = uniquify(&b, u);
        assert!(alpha_eq(&b, u, &c, u2));
    }

    #[test]
    fn stack_safe_on_deep_input() {
        let mut a = ExprArena::new();
        let x = a.intern("x");
        let mut e = a.var(x);
        for _ in 0..150_000 {
            e = a.lam(x, e); // 150k shadowing binders
        }
        let (b, u) = uniquify(&a, e);
        assert!(check_unique_binders(&b, u).is_ok());
        assert_eq!(b.subtree_size(u), 150_001);
    }

    #[test]
    fn size_is_preserved() {
        let (a, r, b, u) = uniquified("let w = v + 7 in (a + w) * w");
        assert_eq!(a.subtree_size(r), b.subtree_size(u));
    }
}
