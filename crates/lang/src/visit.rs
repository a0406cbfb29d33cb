//! Stack-safe tree traversals.
//!
//! Every pass in this workspace must survive the paper's unbalanced 10⁷-node
//! workloads (§7.1), whose depth is Θ(n). These drivers use an explicit
//! work stack instead of recursion.

use crate::arena::{Children, ExprArena, NodeId};
use crate::symbol::Symbol;

/// Events emitted by [`walk_scoped`].
///
/// `Enter` events arrive in pre-order and `Exit` events in post-order.
/// `Bind`/`Unbind` bracket exactly the region where a binder is in scope:
/// for `Lam(x, body)` the bind happens before `body`; for `Let(x, rhs,
/// body)` it happens *after* `rhs` (non-recursive let) and before `body`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ScopeEvent {
    /// About to visit a node (pre-order).
    Enter(NodeId),
    /// `sym`, bound at `node`, comes into scope.
    Bind {
        /// The binding node (a `Lam` or `Let`).
        node: NodeId,
        /// The bound symbol.
        sym: Symbol,
    },
    /// `sym`, bound at `node`, goes out of scope.
    Unbind {
        /// The binding node (a `Lam` or `Let`).
        node: NodeId,
        /// The bound symbol.
        sym: Symbol,
    },
    /// Finished visiting a node (post-order).
    Exit(NodeId),
}

enum Task {
    Enter(NodeId),
    Bind(NodeId, Symbol),
    Unbind(NodeId, Symbol),
    Exit(NodeId),
}

/// Reusable scratch space for [`walk_scoped_with`].
///
/// A scoped walk needs a work stack; callers that walk many terms (the
/// store's named-term walks) keep one `ScopeStack` alive so steady-state
/// traversal performs no allocation.
/// The stack is cleared on entry to every walk; its contents between walks
/// are unspecified.
#[derive(Default)]
pub struct ScopeStack {
    tasks: Vec<Task>,
}

impl ScopeStack {
    /// An empty scratch stack.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Depth-first traversal with scope bracketing. Iterative: safe on trees of
/// any depth.
///
/// # Examples
///
/// Count variable occurrences that are bound:
///
/// ```
/// use lambda_lang::arena::{ExprArena, ExprNode};
/// use lambda_lang::visit::{walk_scoped, ScopeEvent};
/// use std::collections::HashSet;
///
/// let mut a = ExprArena::new();
/// let x = a.intern("x");
/// let vx = a.var(x);
/// let free = a.var_named("free");
/// let app = a.app(vx, free);
/// let lam = a.lam(x, app);
///
/// let mut in_scope = HashSet::new();
/// let mut bound_occurrences = 0;
/// walk_scoped(&a, lam, |ev| match ev {
///     ScopeEvent::Bind { sym, .. } => { in_scope.insert(sym); }
///     ScopeEvent::Unbind { sym, .. } => { in_scope.remove(&sym); }
///     ScopeEvent::Enter(n) => {
///         if let ExprNode::Var(s) = a.node(n) {
///             if in_scope.contains(&s) { bound_occurrences += 1; }
///         }
///     }
///     ScopeEvent::Exit(_) => {}
/// });
/// assert_eq!(bound_occurrences, 1);
/// ```
pub fn walk_scoped(arena: &ExprArena, root: NodeId, f: impl FnMut(ScopeEvent)) {
    walk_scoped_with(arena, root, &mut ScopeStack::new(), f);
}

/// [`walk_scoped`] with caller-provided scratch space — the allocation-free
/// variant for passes that walk many terms (the store's root-mode
/// interning and WAL framing keep one [`ScopeStack`] per preparer). Subexpression-mode
/// canonicalization needs no scoped walk per subterm: one bottom-up pass
/// builds every standalone form, re-interning only the paths from each
/// binder down to its occurrences — O(n + Σ binder→occurrence path
/// lengths) per term.
pub fn walk_scoped_with(
    arena: &ExprArena,
    root: NodeId,
    scratch: &mut ScopeStack,
    mut f: impl FnMut(ScopeEvent),
) {
    use crate::arena::ExprNode;
    let stack = &mut scratch.tasks;
    stack.clear();
    stack.push(Task::Enter(root));
    while let Some(task) = stack.pop() {
        match task {
            Task::Enter(n) => {
                f(ScopeEvent::Enter(n));
                match arena.node(n) {
                    ExprNode::Var(_) | ExprNode::Lit(_) => f(ScopeEvent::Exit(n)),
                    ExprNode::Lam(x, b) => {
                        // Executed in reverse push order:
                        // Bind, body, Unbind, Exit.
                        stack.push(Task::Exit(n));
                        stack.push(Task::Unbind(n, x));
                        stack.push(Task::Enter(b));
                        stack.push(Task::Bind(n, x));
                    }
                    ExprNode::App(l, r) => {
                        stack.push(Task::Exit(n));
                        stack.push(Task::Enter(r));
                        stack.push(Task::Enter(l));
                    }
                    ExprNode::Let(x, rhs, body) => {
                        // rhs, Bind, body, Unbind, Exit.
                        stack.push(Task::Exit(n));
                        stack.push(Task::Unbind(n, x));
                        stack.push(Task::Enter(body));
                        stack.push(Task::Bind(n, x));
                        stack.push(Task::Enter(rhs));
                    }
                }
            }
            Task::Bind(node, sym) => f(ScopeEvent::Bind { node, sym }),
            Task::Unbind(node, sym) => f(ScopeEvent::Unbind { node, sym }),
            Task::Exit(n) => f(ScopeEvent::Exit(n)),
        }
    }
}

/// Nodes of the subtree at `root` in post-order (children before parents,
/// left before right, `Let` rhs before body). Iterative.
pub fn postorder(arena: &ExprArena, root: NodeId) -> Vec<NodeId> {
    let mut order = Vec::new();
    let mut stack = Vec::new();
    postorder_with(arena, root, &mut stack, |n| order.push(n));
    order
}

/// Streaming post-order: calls `f` on each node of the subtree at `root`
/// in post-order, without materialising the order. `stack` is the
/// traversal's scratch space — callers that visit many subtrees (the
/// hashed summariser, batch ingest) pass the same buffer every time so
/// steady-state traversal performs no allocation at all. The buffer is
/// cleared on entry; its contents afterwards are unspecified.
pub fn postorder_with(
    arena: &ExprArena,
    root: NodeId,
    stack: &mut Vec<(NodeId, bool)>,
    mut f: impl FnMut(NodeId),
) {
    // Two-phase stack: (node, expanded?).
    stack.clear();
    stack.push((root, false));
    while let Some((n, expanded)) = stack.pop() {
        if expanded {
            f(n);
            continue;
        }
        stack.push((n, true));
        match arena.node(n).children() {
            Children::None => {}
            Children::One(c) => stack.push((c, false)),
            Children::Two(a, b) => {
                stack.push((b, false));
                stack.push((a, false));
            }
        }
    }
}

/// Nodes of the subtree at `root` in pre-order. Iterative.
pub fn preorder(arena: &ExprArena, root: NodeId) -> Vec<NodeId> {
    let mut order = Vec::new();
    let mut stack = vec![root];
    while let Some(n) = stack.pop() {
        order.push(n);
        match arena.node(n).children() {
            Children::None => {}
            Children::One(c) => stack.push(c),
            Children::Two(a, b) => {
                stack.push(b);
                stack.push(a);
            }
        }
    }
    order
}

/// A parent map for the subtree at `root`: `parent[child] = parent_node`.
/// The root is absent from the map. Used by the incremental engine (§6.3)
/// to find the path from an edited node to the root.
pub fn parent_map(arena: &ExprArena, root: NodeId) -> std::collections::HashMap<NodeId, NodeId> {
    let mut parents = std::collections::HashMap::new();
    let mut stack = vec![root];
    while let Some(n) = stack.pop() {
        for c in arena.node(n).children() {
            parents.insert(c, n);
            stack.push(c);
        }
    }
    parents
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arena::ExprArena;

    /// Builds `let y = 1 in (\x. x y)` and returns interesting ids.
    fn sample() -> (ExprArena, NodeId, NodeId, NodeId) {
        let mut a = ExprArena::new();
        let one = a.int(1);
        let x = a.intern("x");
        let y = a.intern("y");
        let vx = a.var(x);
        let vy = a.var(y);
        let app = a.app(vx, vy);
        let lam = a.lam(x, app);
        let root = a.let_(y, one, lam);
        (a, root, one, lam)
    }

    #[test]
    fn postorder_children_first() {
        let (a, root, one, lam) = sample();
        let order = postorder(&a, root);
        assert_eq!(order.len(), 6);
        assert_eq!(*order.last().unwrap(), root);
        let pos = |n: NodeId| order.iter().position(|&m| m == n).expect("node in order");
        assert!(pos(one) < pos(root));
        assert!(pos(lam) < pos(root));
        assert!(pos(one) < pos(lam), "let rhs before body");
    }

    #[test]
    fn postorder_with_streams_in_the_same_order() {
        let (a, root, _, _) = sample();
        let mut stack = Vec::new();
        let mut out = Vec::new();
        postorder_with(&a, root, &mut stack, |n| out.push(n));
        assert_eq!(out, postorder(&a, root));
        // The scratch buffer is reusable across traversals.
        let mut again = Vec::new();
        postorder_with(&a, root, &mut stack, |n| again.push(n));
        assert_eq!(again, out);
    }

    #[test]
    fn preorder_parent_first() {
        let (a, root, one, _) = sample();
        let order = preorder(&a, root);
        assert_eq!(order[0], root);
        assert_eq!(order[1], one, "let rhs is visited before body");
    }

    #[test]
    fn scoped_events_bracket_binders() {
        let (a, root, one, _) = sample();
        let mut log = Vec::new();
        walk_scoped(&a, root, |ev| log.push(ev));

        // `y` must be bound after the rhs (`1`) exits and unbound before the
        // root exits.
        let rhs_exit = log
            .iter()
            .position(|e| matches!(e, ScopeEvent::Exit(n) if *n == one))
            .unwrap();
        let y_bind = log
            .iter()
            .position(|e| matches!(e, ScopeEvent::Bind { node, .. } if *node == root))
            .unwrap();
        let y_unbind = log
            .iter()
            .position(|e| matches!(e, ScopeEvent::Unbind { node, .. } if *node == root))
            .unwrap();
        let root_exit = log
            .iter()
            .position(|e| matches!(e, ScopeEvent::Exit(n) if *n == root))
            .unwrap();
        assert!(rhs_exit < y_bind && y_bind < y_unbind && y_unbind < root_exit);
    }

    #[test]
    fn scoped_walk_matches_postorder_exits() {
        let (a, root, _, _) = sample();
        let mut exits = Vec::new();
        walk_scoped(&a, root, |ev| {
            if let ScopeEvent::Exit(n) = ev {
                exits.push(n);
            }
        });
        assert_eq!(exits, postorder(&a, root));
    }

    #[test]
    fn scoped_walk_scratch_is_reusable() {
        let (a, root, _, _) = sample();
        let mut scratch = ScopeStack::new();
        let mut first = Vec::new();
        walk_scoped_with(&a, root, &mut scratch, |ev| first.push(ev));
        let mut second = Vec::new();
        walk_scoped_with(&a, root, &mut scratch, |ev| second.push(ev));
        assert_eq!(first, second);
        let mut reference = Vec::new();
        walk_scoped(&a, root, |ev| reference.push(ev));
        assert_eq!(first, reference);
    }

    #[test]
    fn parent_map_finds_paths() {
        let (a, root, one, lam) = sample();
        let parents = parent_map(&a, root);
        assert_eq!(parents[&one], root);
        assert_eq!(parents[&lam], root);
        assert!(!parents.contains_key(&root));
    }

    #[test]
    fn traversals_are_stack_safe_on_deep_trees() {
        let mut a = ExprArena::new();
        let x = a.intern("x");
        let mut e = a.var(x);
        for _ in 0..300_000 {
            e = a.lam(x, e);
        }
        assert_eq!(postorder(&a, e).len(), 300_001);
        assert_eq!(preorder(&a, e).len(), 300_001);
        let mut events = 0usize;
        walk_scoped(&a, e, |_| events += 1);
        // Enter+Exit per node, Bind+Unbind per lambda.
        assert_eq!(events, 2 * 300_001 + 2 * 300_000);
    }
}
