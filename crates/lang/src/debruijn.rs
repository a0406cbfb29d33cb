//! De Bruijn representation (paper §2.4).
//!
//! Bound-variable occurrences are replaced by indices counting intervening
//! binders; free variables keep their names. The paper uses this form both
//! as a (flawed) baseline for subexpression hashing and as the standard
//! nameless representation; we additionally use term-level de Bruijn
//! equality as a second ground truth for alpha-equivalence in tests.

use crate::arena::{ExprArena, ExprNode, NodeId};
use crate::literal::Literal;
use crate::symbol::{Interner, Symbol};
use std::collections::HashMap;
use std::fmt;

/// Index of a node within a [`DbArena`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DbId(u32);

impl DbId {
    /// Raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Reconstructs an id from a raw position previously obtained via
    /// [`DbId::index`] (or from a serialized node run). The caller is
    /// responsible for only using positions valid in the arena at hand;
    /// this is checked (as a bounds check) on [`DbArena::node`].
    pub fn from_index(index: usize) -> Self {
        DbId(u32::try_from(index).expect("db id fits u32"))
    }
}

impl fmt::Debug for DbId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "d{}", self.0)
    }
}

/// One node of a de Bruijn term. Binders are anonymous; `BVar(i)` refers to
/// the `i`-th enclosing binder (0 = innermost), counting both lambda and
/// let binders.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum DbNode {
    /// Bound variable, by de Bruijn index.
    BVar(u32),
    /// Free variable, by name.
    FVar(Symbol),
    /// Anonymous lambda.
    Lam(DbId),
    /// Application.
    App(DbId, DbId),
    /// Anonymous non-recursive let: rhs, body (body is under one binder).
    Let(DbId, DbId),
    /// Literal constant.
    Lit(Literal),
}

/// Arena of de Bruijn nodes with its own interner for free-variable names.
#[derive(Clone, Debug, Default)]
pub struct DbArena {
    nodes: Vec<DbNode>,
    interner: Interner,
}

impl DbArena {
    /// Creates an empty arena.
    pub fn new() -> Self {
        Self::default()
    }

    /// The node data for `id`.
    pub fn node(&self, id: DbId) -> DbNode {
        self.nodes[id.index()]
    }

    /// Name of a free variable symbol.
    pub fn name(&self, sym: Symbol) -> &str {
        self.interner.resolve(sym)
    }

    /// The node at a raw position (`0..len()`). Positions are construction
    /// order, so every child's position precedes its parent's — the
    /// property serializers rely on to emit nodes as a flat run.
    pub fn node_at(&self, index: usize) -> DbNode {
        self.nodes[index]
    }

    /// Number of nodes allocated.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Number of distinct free-variable names interned. Symbols issued by
    /// [`DbArena::intern`] index `0..names_len()` densely, in first-intern
    /// order.
    pub fn names_len(&self) -> usize {
        self.interner.len()
    }

    /// Whether the arena is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Interns a free-variable name in this arena's interner, for use in
    /// [`DbNode::FVar`] nodes pushed via [`DbArena::push`].
    pub fn intern(&mut self, name: &str) -> Symbol {
        self.interner.intern(name)
    }

    /// Appends one node, returning its id. The builder's contract is the
    /// usual arena one: child ids must already exist in this arena. Used
    /// by external converters that build de Bruijn terms bottom-up (the
    /// store's canon extraction and its record decoder).
    pub fn push(&mut self, node: DbNode) -> DbId {
        let id = DbId(u32::try_from(self.nodes.len()).expect("db arena overflow"));
        self.nodes.push(node);
        id
    }

    /// All nodes in arena (construction) order — a **topological** walk:
    /// every child is yielded before any parent that references it. This
    /// is the interning-friendly order: a hash-consing consumer can fold
    /// over it bottom-up, mapping each node's child ids through the refs
    /// already issued for earlier positions, with no explicit traversal.
    pub fn nodes(&self) -> impl Iterator<Item = DbNode> + '_ {
        self.nodes.iter().copied()
    }

    /// All interned free-variable names, in symbol order (symbol `i` is
    /// the `i`-th yielded name). The companion to [`DbArena::nodes`] for
    /// consumers re-interning this arena into a shared table.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        (0..self.interner.len()).map(|i| self.interner.resolve(Symbol::from_index(i as u32)))
    }
}

enum Task {
    Visit(NodeId),
    BuildLam { undo: (Symbol, Option<u32>) },
    BuildApp,
    LetBody { binder: Symbol, body: NodeId },
    BuildLet { undo: (Symbol, Option<u32>) },
}

/// Converts the named subtree at `root` to de Bruijn form. Iterative.
///
/// Handles shadowing, so no unique-binder precondition is required.
///
/// # Examples
///
/// The paper's §2.4 example: `\x.\y. x + y*7` becomes `\.\. %1 + %0*7`.
///
/// ```
/// use lambda_lang::arena::ExprArena;
/// use lambda_lang::parse::parse;
/// use lambda_lang::debruijn::{to_debruijn, db_print};
///
/// let mut a = ExprArena::new();
/// let e = parse(&mut a, r"\x. \y. x + y*7")?;
/// let (db, root) = to_debruijn(&a, e);
/// assert_eq!(db_print(&db, root), r"\. \. add %1 (mul %0 7)");
/// # Ok::<(), lambda_lang::parse::ParseError>(())
/// ```
pub fn to_debruijn(src: &ExprArena, root: NodeId) -> (DbArena, DbId) {
    let mut dst = DbArena::new();
    let mut env: HashMap<Symbol, u32> = HashMap::new();
    let mut depth: u32 = 0;
    let mut results: Vec<DbId> = Vec::new();
    let mut stack = vec![Task::Visit(root)];

    while let Some(task) = stack.pop() {
        match task {
            Task::Visit(n) => match src.node(n) {
                ExprNode::Var(s) => {
                    let node = match env.get(&s) {
                        // `level` counts binders from the root; the index
                        // counts from the occurrence inward.
                        Some(&level) => DbNode::BVar(depth - level - 1),
                        None => {
                            let sym = dst.interner.intern(src.name(s));
                            DbNode::FVar(sym)
                        }
                    };
                    let id = dst.push(node);
                    results.push(id);
                }
                ExprNode::Lit(l) => {
                    let id = dst.push(DbNode::Lit(l));
                    results.push(id);
                }
                ExprNode::Lam(x, b) => {
                    let old = env.insert(x, depth);
                    depth += 1;
                    stack.push(Task::BuildLam { undo: (x, old) });
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
            Task::BuildLam { undo } => {
                let body = results.pop().expect("lam body");
                let id = dst.push(DbNode::Lam(body));
                results.push(id);
                restore(&mut env, undo);
                depth -= 1;
            }
            Task::BuildApp => {
                let arg = results.pop().expect("app arg");
                let func = results.pop().expect("app func");
                let id = dst.push(DbNode::App(func, arg));
                results.push(id);
            }
            Task::LetBody { binder, body } => {
                let old = env.insert(binder, depth);
                depth += 1;
                stack.push(Task::BuildLet {
                    undo: (binder, old),
                });
                stack.push(Task::Visit(body));
            }
            Task::BuildLet { undo } => {
                let body = results.pop().expect("let body");
                let rhs = results.pop().expect("let rhs");
                let id = dst.push(DbNode::Let(rhs, body));
                results.push(id);
                restore(&mut env, undo);
                depth -= 1;
            }
        }
    }

    let root = results.pop().expect("to_debruijn produced a root");
    debug_assert!(results.is_empty());
    (dst, root)
}

fn restore(env: &mut HashMap<Symbol, u32>, (sym, old): (Symbol, Option<u32>)) {
    match old {
        Some(v) => {
            env.insert(sym, v);
        }
        None => {
            env.remove(&sym);
        }
    }
}

/// Structural equality of two de Bruijn terms (free variables compared by
/// name). By the standard theorem, `db_eq(to_debruijn(e1), to_debruijn(e2))`
/// iff `e1 ≡α e2`; tests cross-check this against [`crate::alpha::alpha_eq`].
pub fn db_eq(a1: &DbArena, r1: DbId, a2: &DbArena, r2: DbId) -> bool {
    let mut stack = vec![(r1, r2)];
    while let Some((n1, n2)) = stack.pop() {
        match (a1.node(n1), a2.node(n2)) {
            (DbNode::BVar(i), DbNode::BVar(j)) => {
                if i != j {
                    return false;
                }
            }
            (DbNode::FVar(s1), DbNode::FVar(s2)) => {
                if a1.name(s1) != a2.name(s2) {
                    return false;
                }
            }
            (DbNode::Lit(l1), DbNode::Lit(l2)) => {
                if l1 != l2 {
                    return false;
                }
            }
            (DbNode::Lam(b1), DbNode::Lam(b2)) => stack.push((b1, b2)),
            (DbNode::App(f1, g1), DbNode::App(f2, g2)) => {
                stack.push((g1, g2));
                stack.push((f1, f2));
            }
            (DbNode::Let(x1, y1), DbNode::Let(x2, y2)) => {
                stack.push((y1, y2));
                stack.push((x1, x2));
            }
            _ => return false,
        }
    }
    true
}

/// Renders a de Bruijn term in the paper's notation: `%i` for indices,
/// `\.` for anonymous lambdas (applications are printed prefix). Iterative.
pub fn db_print(arena: &DbArena, root: DbId) -> String {
    enum Out {
        Text(&'static str),
        Owned(String),
        Node(DbId, bool), // bool: needs parens if compound
    }
    let mut out = String::new();
    let mut stack = vec![Out::Node(root, false)];
    while let Some(item) = stack.pop() {
        match item {
            Out::Text(s) => out.push_str(s),
            Out::Owned(s) => out.push_str(&s),
            Out::Node(id, tight) => match arena.node(id) {
                DbNode::BVar(i) => out.push_str(&format!("%{i}")),
                DbNode::FVar(s) => out.push_str(arena.name(s)),
                DbNode::Lit(l) => out.push_str(&l.to_string()),
                DbNode::Lam(b) => {
                    if tight {
                        stack.push(Out::Text(")"));
                    }
                    stack.push(Out::Node(b, false));
                    stack.push(Out::Text(r"\. "));
                    if tight {
                        stack.push(Out::Text("("));
                    }
                }
                DbNode::App(f, a) => {
                    if tight {
                        stack.push(Out::Text(")"));
                    }
                    stack.push(Out::Node(a, true));
                    stack.push(Out::Text(" "));
                    stack.push(Out::Node(
                        f,
                        matches!(arena.node(f), DbNode::Lam(_) | DbNode::Let(_, _)),
                    ));
                    if tight {
                        stack.push(Out::Text("("));
                    }
                }
                DbNode::Let(rhs, body) => {
                    if tight {
                        stack.push(Out::Text(")"));
                    }
                    stack.push(Out::Node(body, false));
                    stack.push(Out::Text(" in "));
                    stack.push(Out::Node(rhs, false));
                    stack.push(Out::Owned("let . = ".to_owned()));
                    if tight {
                        stack.push(Out::Text("("));
                    }
                }
            },
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse;

    fn db_of(src: &str) -> (DbArena, DbId) {
        let mut a = ExprArena::new();
        let root = parse(&mut a, src).unwrap();
        to_debruijn(&a, root)
    }

    fn db_equal(s1: &str, s2: &str) -> bool {
        let (a1, r1) = db_of(s1);
        let (a2, r2) = db_of(s2);
        db_eq(&a1, r1, &a2, r2)
    }

    #[test]
    fn paper_indexing_example() {
        // §2.4: (\x.\y.x+y*7) is (\.\.%1+%0*7).
        let (db, root) = db_of(r"\x. \y. x + y*7");
        assert_eq!(db_print(&db, root), r"\. \. add %1 (mul %0 7)");
    }

    #[test]
    fn free_variables_stay_named() {
        let (db, root) = db_of(r"f x (\y. x + y)");
        let text = db_print(&db, root);
        assert!(text.contains('f') && text.contains('x'), "{text}");
        assert!(text.contains("%0"), "{text}");
    }

    #[test]
    fn db_eq_iff_alpha_eq_on_samples() {
        let samples = [
            (r"\x. x + y", r"\p. p + y", true),
            (r"\x. x + y", r"\q. q + z", false),
            (r"\x. \x. x", r"\a. \b. b", true),
            (r"\x. \x. x", r"\a. \b. a", false),
            ("let bar = x+1 in bar*y", "let p = x+1 in p*y", true),
            ("let x = x in x", "let y = x in y", true),
            ("let x = x in x", "let y = y in y", false),
        ];
        for (s1, s2, expected) in samples {
            assert_eq!(db_equal(s1, s2), expected, "{s1} vs {s2}");
            // Cross-check against the reference predicate.
            let mut a1 = ExprArena::new();
            let r1 = parse(&mut a1, s1).unwrap();
            let mut a2 = ExprArena::new();
            let r2 = parse(&mut a2, s2).unwrap();
            assert_eq!(crate::alpha::alpha_eq(&a1, r1, &a2, r2), expected);
        }
    }

    #[test]
    fn paper_false_negative_shows_in_indices() {
        // §2.4: under \t, the subterms (\x.x+t) and (\y.\x.x+t)'s inner
        // lambda get different indices for t: %1 vs %2.
        let (db1, r1) = db_of(r"\t. \x. x + t");
        let (db2, r2) = db_of(r"\t. \y. \x. x + t");
        let t1 = db_print(&db1, r1);
        let t2 = db_print(&db2, r2);
        assert!(t1.contains("%1"), "{t1}");
        assert!(t2.contains("%2"), "{t2}");
    }

    #[test]
    fn let_counts_as_binder() {
        let (db, root) = db_of("let w = 1 in w + z");
        assert_eq!(db_print(&db, root), "let . = 1 in add %0 z");
    }

    #[test]
    fn deep_conversion_is_stack_safe() {
        let mut a = ExprArena::new();
        let x = a.intern("x");
        let mut e = a.var(x);
        for _ in 0..150_000 {
            e = a.lam(x, e);
        }
        let (db, root) = to_debruijn(&a, e);
        assert_eq!(db.len(), 150_001);
        match db.node(root) {
            DbNode::Lam(_) => {}
            other => panic!("expected lam, got {other:?}"),
        }
    }

    #[test]
    fn nodes_iterate_topologically_and_names_in_symbol_order() {
        let (db, root) = db_of(r"\x. foo (x + bar)");
        let nodes: Vec<DbNode> = db.nodes().collect();
        assert_eq!(nodes.len(), db.len());
        assert_eq!(nodes[root.index()], db.node(root));
        // Topological: every child position precedes its parent's.
        for (pos, node) in nodes.iter().enumerate() {
            let check = |child: DbId| assert!(child.index() < pos, "child after parent");
            match *node {
                DbNode::Lam(b) => check(b),
                DbNode::App(f, a) => {
                    check(f);
                    check(a);
                }
                DbNode::Let(r, b) => {
                    check(r);
                    check(b);
                }
                _ => {}
            }
        }
        let names: Vec<&str> = db.names().collect();
        // Symbol order is first-intern order: the walk meets foo before bar.
        assert_eq!(names, vec!["foo", "add", "bar"]);
    }

    #[test]
    fn db_eq_detects_structure_difference() {
        assert!(!db_equal(r"\x. x x", r"\x. x"));
        assert!(!db_equal("let a = 1 in a", r"(\a. a) 1"));
    }
}
