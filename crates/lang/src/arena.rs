//! Arena-based abstract syntax trees.
//!
//! The paper's evaluation (§7.1) hashes *wildly unbalanced* expressions with
//! up to 10⁷ nodes — trees whose depth is a constant fraction of their size.
//! A `Box`-based recursive datatype would overflow the stack merely being
//! dropped at that depth, so every algorithm in this workspace operates on an
//! id-based arena: nodes live in a `Vec`, children are [`NodeId`] indices,
//! and all traversals are explicit-stack iterative (see [`crate::visit`]).
//!
//! The expression language is the paper's `Var`/`Lam`/`App` core (§4.1)
//! extended — as §4.1 says it "readily" can be — with non-recursive `let`
//! and literal constants, which the §7.2 machine-learning workloads need.

use crate::literal::Literal;
use crate::symbol::{Interner, Symbol};
use std::fmt;

/// Index of a node within an [`ExprArena`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(u32);

impl NodeId {
    /// Raw index into the arena's node vector.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Reconstructs a `NodeId` from a raw index.
    #[inline]
    pub fn from_index(index: usize) -> Self {
        NodeId(u32::try_from(index).expect("arena overflow"))
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// One expression node.
///
/// `Let(x, rhs, body)` binds `x` in `body` only (non-recursive let).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum ExprNode {
    /// A variable occurrence.
    Var(Symbol),
    /// A lambda abstraction: binder and body.
    Lam(Symbol, NodeId),
    /// An application: function and argument.
    App(NodeId, NodeId),
    /// A non-recursive let: binder, bound expression, body.
    Let(Symbol, NodeId, NodeId),
    /// A literal constant.
    Lit(Literal),
}

impl ExprNode {
    /// The binder introduced by this node, if any.
    #[inline]
    pub fn binder(&self) -> Option<Symbol> {
        match *self {
            ExprNode::Lam(x, _) | ExprNode::Let(x, _, _) => Some(x),
            _ => None,
        }
    }

    /// Children in evaluation order (rhs before body for `Let`).
    #[inline]
    pub fn children(&self) -> Children {
        match *self {
            ExprNode::Var(_) | ExprNode::Lit(_) => Children::None,
            ExprNode::Lam(_, b) => Children::One(b),
            ExprNode::App(f, a) => Children::Two(f, a),
            ExprNode::Let(_, r, b) => Children::Two(r, b),
        }
    }
}

/// The children of a node, as a small by-value view.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Children {
    /// Leaf node.
    None,
    /// Unary node (lambda).
    One(NodeId),
    /// Binary node (application or let).
    Two(NodeId, NodeId),
}

impl Children {
    /// Number of children.
    pub fn len(&self) -> usize {
        match self {
            Children::None => 0,
            Children::One(_) => 1,
            Children::Two(_, _) => 2,
        }
    }

    /// Whether there are no children.
    pub fn is_empty(&self) -> bool {
        matches!(self, Children::None)
    }
}

impl IntoIterator for Children {
    type Item = NodeId;
    type IntoIter = ChildrenIter;

    fn into_iter(self) -> ChildrenIter {
        ChildrenIter {
            children: self,
            next: 0,
        }
    }
}

/// Iterator over [`Children`].
#[derive(Clone, Debug)]
pub struct ChildrenIter {
    children: Children,
    next: u8,
}

impl Iterator for ChildrenIter {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        let item = match (self.children, self.next) {
            (Children::One(c), 0) => Some(c),
            (Children::Two(c, _), 0) => Some(c),
            (Children::Two(_, c), 1) => Some(c),
            _ => None,
        };
        if item.is_some() {
            self.next += 1;
        }
        item
    }
}

/// An expression arena: node storage plus the name interner.
///
/// # Examples
///
/// Build `\x. x x`:
///
/// ```
/// use lambda_lang::arena::ExprArena;
///
/// let mut a = ExprArena::new();
/// let x = a.intern("x");
/// let vx1 = a.var(x);
/// let vx2 = a.var(x);
/// let app = a.app(vx1, vx2);
/// let lam = a.lam(x, app);
/// assert_eq!(a.subtree_size(lam), 4);
/// ```
#[derive(Clone, Debug, Default)]
pub struct ExprArena {
    nodes: Vec<ExprNode>,
    interner: Interner,
}

impl ExprArena {
    /// Creates an empty arena.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an arena with capacity for `n` nodes.
    pub fn with_capacity(n: usize) -> Self {
        ExprArena {
            nodes: Vec::with_capacity(n),
            interner: Interner::new(),
        }
    }

    /// Reserves room for at least `additional` more nodes.
    pub fn reserve(&mut self, additional: usize) {
        self.nodes.reserve(additional);
    }

    /// Interns a name in this arena's interner.
    pub fn intern(&mut self, name: &str) -> Symbol {
        self.interner.intern(name)
    }

    /// Returns a fresh symbol distinct from all interned names.
    pub fn fresh(&mut self, base: &str) -> Symbol {
        self.interner.fresh(base)
    }

    /// Resolves a symbol to its name.
    pub fn name(&self, sym: Symbol) -> &str {
        self.interner.resolve(sym)
    }

    /// Shared access to the interner.
    pub fn interner(&self) -> &Interner {
        &self.interner
    }

    /// Mutable access to the interner.
    pub fn interner_mut(&mut self) -> &mut Interner {
        &mut self.interner
    }

    /// The node data for `id`.
    #[inline]
    pub fn node(&self, id: NodeId) -> ExprNode {
        self.nodes[id.index()]
    }

    /// Total number of nodes ever allocated (including nodes detached by
    /// edits; use [`ExprArena::subtree_size`] for the size of a live tree).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the arena holds no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    fn push(&mut self, node: ExprNode) -> NodeId {
        let id = NodeId::from_index(self.nodes.len());
        self.nodes.push(node);
        id
    }

    /// Allocates a variable occurrence.
    pub fn var(&mut self, sym: Symbol) -> NodeId {
        self.push(ExprNode::Var(sym))
    }

    /// Allocates a variable occurrence, interning `name`.
    pub fn var_named(&mut self, name: &str) -> NodeId {
        let sym = self.intern(name);
        self.var(sym)
    }

    /// Allocates a lambda.
    pub fn lam(&mut self, binder: Symbol, body: NodeId) -> NodeId {
        self.push(ExprNode::Lam(binder, body))
    }

    /// Allocates a lambda, interning the binder name.
    pub fn lam_named(&mut self, binder: &str, body: NodeId) -> NodeId {
        let sym = self.intern(binder);
        self.lam(sym, body)
    }

    /// Allocates an application.
    pub fn app(&mut self, func: NodeId, arg: NodeId) -> NodeId {
        self.push(ExprNode::App(func, arg))
    }

    /// Allocates a left-nested application spine `f a₁ a₂ …`.
    pub fn app_many(&mut self, func: NodeId, args: &[NodeId]) -> NodeId {
        let mut acc = func;
        for &arg in args {
            acc = self.app(acc, arg);
        }
        acc
    }

    /// Allocates a non-recursive let.
    pub fn let_(&mut self, binder: Symbol, rhs: NodeId, body: NodeId) -> NodeId {
        self.push(ExprNode::Let(binder, rhs, body))
    }

    /// Allocates a let, interning the binder name.
    pub fn let_named(&mut self, binder: &str, rhs: NodeId, body: NodeId) -> NodeId {
        let sym = self.intern(binder);
        self.let_(sym, rhs, body)
    }

    /// Allocates a literal.
    pub fn lit(&mut self, lit: Literal) -> NodeId {
        self.push(ExprNode::Lit(lit))
    }

    /// Allocates an integer literal.
    pub fn int(&mut self, v: i64) -> NodeId {
        self.lit(Literal::I64(v))
    }

    /// Allocates a float literal.
    pub fn float(&mut self, v: f64) -> NodeId {
        self.lit(Literal::f64(v))
    }

    /// Allocates a binary primitive application `op a b`, where `op` is a
    /// free variable such as `add` or `mul` (the convention used by the
    /// printer, the evaluator, and the workload generators).
    pub fn prim2(&mut self, op: &str, a: NodeId, b: NodeId) -> NodeId {
        let f = self.var_named(op);
        let fa = self.app(f, a);
        self.app(fa, b)
    }

    /// Allocates a unary primitive application `op a`.
    pub fn prim1(&mut self, op: &str, a: NodeId) -> NodeId {
        let f = self.var_named(op);
        self.app(f, a)
    }

    /// Replaces the node data at `id` in place. Used by the incremental
    /// engine to splice subtrees; the old children become garbage.
    pub fn replace_node(&mut self, id: NodeId, node: ExprNode) {
        self.nodes[id.index()] = node;
    }

    /// Number of nodes in the subtree rooted at `root` (iterative).
    pub fn subtree_size(&self, root: NodeId) -> usize {
        let mut count = 0usize;
        let mut stack = vec![root];
        while let Some(n) = stack.pop() {
            count += 1;
            for c in self.node(n).children() {
                stack.push(c);
            }
        }
        count
    }

    /// Depth (number of nodes on the longest root-to-leaf path) of the
    /// subtree rooted at `root` (iterative).
    pub fn subtree_depth(&self, root: NodeId) -> usize {
        let mut max_depth = 0usize;
        let mut stack = vec![(root, 1usize)];
        while let Some((n, d)) = stack.pop() {
            max_depth = max_depth.max(d);
            for c in self.node(n).children() {
                stack.push((c, d + 1));
            }
        }
        max_depth
    }

    /// Copies the subtree rooted at `root` in `src` into this arena,
    /// re-interning names. Returns the new root. Iterative; safe on trees of
    /// any depth.
    pub fn import_subtree(&mut self, src: &ExprArena, root: NodeId) -> NodeId {
        // Post-order over `src`, rebuilding bottom-up with a result stack.
        let order = crate::visit::postorder(src, root);
        // Map from src node index to new id, stored sparsely.
        let mut remap: std::collections::HashMap<NodeId, NodeId> =
            std::collections::HashMap::with_capacity(order.len());
        for n in order {
            let new_id = match src.node(n) {
                ExprNode::Var(s) => {
                    let s2 = self.intern(src.name(s));
                    self.var(s2)
                }
                ExprNode::Lit(l) => self.lit(l),
                ExprNode::Lam(x, b) => {
                    let x2 = self.intern(src.name(x));
                    let b2 = remap[&b];
                    self.lam(x2, b2)
                }
                ExprNode::App(f, a) => {
                    let f2 = remap[&f];
                    let a2 = remap[&a];
                    self.app(f2, a2)
                }
                ExprNode::Let(x, r, b) => {
                    let x2 = self.intern(src.name(x));
                    let r2 = remap[&r];
                    let b2 = remap[&b];
                    self.let_(x2, r2, b2)
                }
            };
            remap.insert(n, new_id);
        }
        remap[&root]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn identity(a: &mut ExprArena) -> NodeId {
        let x = a.intern("x");
        let v = a.var(x);
        a.lam(x, v)
    }

    #[test]
    fn build_and_inspect() {
        let mut a = ExprArena::new();
        let id = identity(&mut a);
        match a.node(id) {
            ExprNode::Lam(x, b) => {
                assert_eq!(a.name(x), "x");
                assert!(matches!(a.node(b), ExprNode::Var(_)));
            }
            other => panic!("expected lambda, got {other:?}"),
        }
    }

    #[test]
    fn subtree_size_and_depth() {
        let mut a = ExprArena::new();
        let l = identity(&mut a); // 2 nodes, depth 2
        let r = identity(&mut a);
        let app = a.app(l, r); // 5 nodes, depth 3
        assert_eq!(a.subtree_size(app), 5);
        assert_eq!(a.subtree_depth(app), 3);
    }

    #[test]
    fn children_iteration() {
        let mut a = ExprArena::new();
        let one = a.int(1);
        let two = a.int(2);
        let app = a.app(one, two);
        let kids: Vec<_> = a.node(app).children().into_iter().collect();
        assert_eq!(kids, vec![one, two]);
        assert_eq!(a.node(one).children().len(), 0);
        assert!(a.node(one).children().is_empty());
    }

    #[test]
    fn let_children_order_is_rhs_then_body() {
        let mut a = ExprArena::new();
        let rhs = a.int(1);
        let x = a.intern("x");
        let body = a.var(x);
        let l = a.let_(x, rhs, body);
        let kids: Vec<_> = a.node(l).children().into_iter().collect();
        assert_eq!(kids, vec![rhs, body]);
        assert_eq!(a.node(l).binder(), Some(x));
    }

    #[test]
    fn prim2_builds_curried_application() {
        let mut a = ExprArena::new();
        let one = a.int(1);
        let two = a.int(2);
        let e = a.prim2("add", one, two);
        // ((add 1) 2)
        match a.node(e) {
            ExprNode::App(f, arg2) => {
                assert_eq!(arg2, two);
                match a.node(f) {
                    ExprNode::App(op, arg1) => {
                        assert_eq!(arg1, one);
                        assert!(matches!(a.node(op), ExprNode::Var(_)));
                    }
                    other => panic!("expected inner app, got {other:?}"),
                }
            }
            other => panic!("expected app, got {other:?}"),
        }
    }

    #[test]
    fn deep_tree_is_stack_safe() {
        // A pathological left spine 200k deep: size/depth/import must not
        // recurse.
        let mut a = ExprArena::new();
        let mut e = a.int(0);
        for _ in 0..200_000 {
            let one = a.int(1);
            e = a.app(e, one);
        }
        assert_eq!(a.subtree_size(e), 400_001);
        assert_eq!(a.subtree_depth(e), 200_001);
        let mut b = ExprArena::new();
        let r = b.import_subtree(&a, e);
        assert_eq!(b.subtree_size(r), 400_001);
    }

    #[test]
    fn import_subtree_preserves_names() {
        let mut a = ExprArena::new();
        let id = identity(&mut a);
        let free = a.var_named("free");
        let app = a.app(id, free);

        let mut b = ExprArena::new();
        // Pre-intern something so indices differ between arenas.
        b.intern("unrelated");
        let r = b.import_subtree(&a, app);
        match b.node(r) {
            ExprNode::App(_, fr) => match b.node(fr) {
                ExprNode::Var(s) => assert_eq!(b.name(s), "free"),
                other => panic!("expected var, got {other:?}"),
            },
            other => panic!("expected app, got {other:?}"),
        }
    }

    #[test]
    fn app_many_left_nests() {
        let mut a = ExprArena::new();
        let f = a.var_named("f");
        let x = a.int(1);
        let y = a.int(2);
        let e = a.app_many(f, &[x, y]);
        // ((f 1) 2)
        match a.node(e) {
            ExprNode::App(fx, arg) => {
                assert_eq!(arg, y);
                assert!(matches!(a.node(fx), ExprNode::App(_, _)));
            }
            other => panic!("expected app, got {other:?}"),
        }
    }
}
