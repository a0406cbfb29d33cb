//! Step 2: the paper's final algorithm (§5) — e-summaries in hashed form.
//!
//! Two representation changes turn the invertible Step-1 summary
//! ([`crate::summary::fast`]) into an O(n (log n)²) hashing pass:
//!
//! 1. **Structures and position trees are represented by their hash codes**
//!    (§5.1): the smart constructors become O(1) hash combiners and
//!    `hashStructure` becomes the identity. We carry the size alongside
//!    each hash (`StructH`, `PosH`) because the size is the `StructureTag`
//!    of §4.8 and the salt of Lemma 6.6.
//! 2. **The variable-map hash is the XOR of its entry hashes** (§5.2).
//!    XOR is commutative, associative and invertible, so adding, removing
//!    or replacing one entry updates the map hash in O(1) — the key to
//!    compositionality. §6.2 proves this weak combiner does not weaken the
//!    hash.
//!
//! The summariser records each node's e-summary hash *before* the node's
//! variable map is consumed (and mutated) by its parent, so Rust ownership
//! replaces the persistence Haskell's `Data.Map` provided.
//!
//! This is the crate's one §4.8 traversal: every other consumer of the
//! pass is a [`SummarySink`] fed its own merge decisions.

use crate::combine::{HashScheme, HashWord};
use crate::flatmap::{FlatVarMap, MapPool};
use lambda_lang::arena::{ExprArena, ExprNode, NodeId};
use lambda_lang::symbol::Symbol;
use lambda_lang::visit::postorder_with;

/// A position tree in hashed form: its hash code plus its size
/// (constructor-call count, the Lemma 6.6 salt).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct PosH<H> {
    /// Hash code standing for the whole position tree.
    pub hash: H,
    /// Number of constructor calls that built the tree.
    pub size: u64,
}

/// A structure in hashed form: hash code plus size. The size doubles as
/// the §4.8 `StructureTag` (strictly increasing upward).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct StructH<H> {
    /// Hash code standing for the whole structure.
    pub hash: H,
    /// Structure size = node count of the summarised expression.
    pub size: u64,
}

/// A variable map in hashed form (§5.2): the tiered sorted storage of
/// [`crate::flatmap`] plus the XOR-maintained hash of its entries.
pub type VarMapH<H> = FlatVarMap<H>;

/// An e-summary in hashed form.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ESummaryH<H: HashWord> {
    /// The structure component.
    pub structure: StructH<H>,
    /// The free-variable map component.
    pub varmap: VarMapH<H>,
}

impl<H: HashWord> ESummaryH<H> {
    /// `hashESummary`: the node's final hash code.
    pub fn hash(&self, scheme: &HashScheme<H>) -> H {
        scheme.esummary(self.structure.hash, self.varmap.hash())
    }
}

/// `log2` of the symbols per [`NameHashCache`] page.
const NAME_PAGE_BITS: u32 = 8;
/// Symbols per [`NameHashCache`] page.
const NAME_PAGE: usize = 1 << NAME_PAGE_BITS;

/// Lazily filled hashes of variable *names* (stable across arenas), keyed
/// by [`Symbol`]: the name table of [`HashedSummariser`], the Appendix C
/// variant and the baseline hashers.
///
/// A name is hashed from its string the first time a symbol is looked up
/// and served from the cache after that, so hashing never touches strings
/// on the hot path. The table is two-level: a directory of pages of 256
/// symbols each, where a page is allocated on the first touch of any of
/// its symbols. Set-up and memory therefore follow the symbols a hasher
/// actually touches, not the size of the arena's interner: hashing one
/// small term out of an arena with a million interned names costs a
/// directory of page handles plus one or two pages, while batch hashing
/// still resolves a name with two plain array indexings.
///
/// A cache is tied to one arena at a time: symbol indices are only
/// meaningful within their interner. Debug builds check this on every
/// hit. [`forget`](Self::forget) empties the cache for another arena in
/// time proportional to the symbols it filled, keeping its pages.
#[derive(Debug, Default)]
pub struct NameHashCache {
    /// Page `p` holds the hashes of symbols `p * NAME_PAGE ..`; an empty
    /// page has never been touched.
    pages: Vec<Vec<Option<u64>>>,
    /// Pages allocated so far (the non-empty entries of `pages`).
    allocated: usize,
    /// Symbols filled since the last [`forget`](Self::forget).
    filled: Vec<u32>,
    /// Lookups that had to hash the name string.
    misses: u64,
}

impl NameHashCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// The name hash of `sym`, a symbol of `arena`, computed on first use.
    #[inline]
    pub fn get<H: HashWord>(
        &mut self,
        arena: &ExprArena,
        scheme: &HashScheme<H>,
        sym: Symbol,
    ) -> u64 {
        let i = sym.index() as usize;
        match self
            .pages
            .get(i >> NAME_PAGE_BITS)
            .and_then(|page| page.get(i & (NAME_PAGE - 1)))
        {
            Some(&Some(h)) => {
                // Guard the one-arena contract: a cache reused across
                // arenas would serve stale hashes for re-used symbol
                // indices. Debug builds recompute and compare.
                debug_assert_eq!(
                    h,
                    scheme.var_name(arena.interner().resolve(sym)),
                    "NameHashCache reused across arenas: {sym:?} now names a different string"
                );
                h
            }
            _ => self.fill(arena, scheme, sym),
        }
    }

    /// The miss path of [`get`](Self::get): hashes the name and stores it,
    /// allocating the symbol's page first if it is new. The directory and
    /// each page are sized to the interner in one allocation (a page never
    /// reaches past the interner's end, so a small arena gets one small
    /// page); they grow again only if the arena interns more names later.
    #[cold]
    #[inline(never)]
    fn fill<H: HashWord>(&mut self, arena: &ExprArena, scheme: &HashScheme<H>, sym: Symbol) -> u64 {
        let names = arena.interner().len();
        let i = sym.index() as usize;
        let (p, slot) = (i >> NAME_PAGE_BITS, i & (NAME_PAGE - 1));
        if p >= self.pages.len() {
            self.pages.resize_with(names.div_ceil(NAME_PAGE), Vec::new);
        }
        let page = &mut self.pages[p];
        if slot >= page.len() {
            self.allocated += usize::from(page.is_empty());
            page.resize((names - p * NAME_PAGE).min(NAME_PAGE), None);
        }
        self.misses += 1;
        self.filled.push(sym.index());
        let h = scheme.var_name(arena.interner().resolve(sym));
        page[slot] = Some(h);
        h
    }

    /// Empties the cache, clearing only the slots filled since the last
    /// call: O(symbols filled), whatever the size of the arenas served.
    /// The pages stay allocated for the next arena.
    pub fn forget(&mut self) {
        for &i in &self.filled {
            let i = i as usize;
            self.pages[i >> NAME_PAGE_BITS][i & (NAME_PAGE - 1)] = None;
        }
        self.filled.clear();
    }

    /// Pages allocated so far: the cache's memory, in units of 256
    /// symbols (plus a directory of one handle per 256 symbols of the
    /// largest arena served).
    pub fn pages(&self) -> usize {
        self.allocated
    }

    /// Symbol slots allocated across all pages.
    #[cfg(test)]
    fn slots(&self) -> usize {
        self.pages.iter().map(Vec::len).sum()
    }
}

/// Hashes of every subexpression of one tree, indexed by [`NodeId`].
#[derive(Clone, Debug)]
pub struct SubtreeHashes<H> {
    hashes: Vec<Option<H>>,
}

impl<H: HashWord> SubtreeHashes<H> {
    /// Wraps a dense per-node-index vector of hashes. Used by the
    /// Appendix C variant and the baseline hashers, which share this
    /// result type so that grouping and benchmarking code is uniform.
    pub fn from_vec(hashes: Vec<Option<H>>) -> Self {
        SubtreeHashes { hashes }
    }

    fn set(&mut self, node: NodeId, hash: H) {
        self.hashes[node.index()] = Some(hash);
    }

    /// The hash of the subexpression rooted at `node`, if it was part of
    /// the summarised tree.
    pub fn get(&self, node: NodeId) -> Option<H> {
        self.hashes.get(node.index()).copied().flatten()
    }

    /// Iterates over `(node, hash)` for every summarised node.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, H)> + '_ {
        self.hashes
            .iter()
            .enumerate()
            .filter_map(|(i, h)| h.map(|h| (NodeId::from_index(i), h)))
    }

    /// Number of hashed nodes.
    pub fn len(&self) -> usize {
        self.hashes.iter().filter(|h| h.is_some()).count()
    }

    /// Whether no node was hashed.
    pub fn is_empty(&self) -> bool {
        self.hashes.iter().all(|h| h.is_none())
    }
}

/// A consumer of [`HashedSummariser`]'s one pass: it is fed the §4.8
/// algorithm's map operations and structures node by node in post-order,
/// each with the hash the pass computed for it. A sink is a generic
/// parameter, monomorphised per caller, and every method defaults to
/// nothing, so the `()` sink is the bare hashing pass. Under
/// [`MergeStrategy::TransformBoth`] no joins are recorded.
pub trait SummarySink<H: HashWord> {
    /// A `Var` node's map starts as `{sym ↦ here}`.
    #[inline]
    fn here(&mut self, _sym: Symbol, _here: PosH<H>) {}
    /// A `Lam`, or a `Let` before its merge, removed `sym` from its body's
    /// map, which held `pos` for it.
    #[inline]
    fn remove(&mut self, _sym: Symbol, _pos: Option<PosH<H>>) {}
    /// Where a binary node's merge records, once per smaller-side entry
    /// and in no fixed order, `(sym, joined)`: the entry's `Join` in the
    /// bigger map under the node's tag (its size). `None` records nothing.
    #[inline]
    fn joins(&mut self) -> Option<&mut Vec<(Symbol, PosH<H>)>> {
        None
    }
    /// Node `n` is summarised, after its map events. `left_bigger` is the
    /// §4.8 flag of an `App` or `Let` (the function's or the rhs's map was
    /// the bigger one), and false for the other nodes.
    #[inline]
    fn node(&mut self, _n: NodeId, _left_bigger: bool, _structure: StructH<H>, _hash: H) {}
}

/// The bare pass: hashes only.
impl<H: HashWord> SummarySink<H> for () {}

/// Records every node's hash by [`NodeId`].
impl<H: HashWord> SummarySink<H> for SubtreeHashes<H> {
    #[inline]
    fn node(&mut self, n: NodeId, _left_bigger: bool, _structure: StructH<H>, hash: H) {
        self.set(n, hash);
    }
}

/// Which merge strategy the summariser uses at binary nodes — the §4.8
/// smaller-subtree merge (the paper's final choice) or the §4.6 merge that
/// transforms every entry of both maps. The latter exists for the ablation
/// benchmark: same equivalence classes, quadratic cost.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MergeStrategy {
    /// §4.8: touch only the smaller map, tagging moved entries.
    SmallerIntoBigger,
    /// §4.6: rebuild both maps with Left/Right/Both wrappers.
    TransformBoth,
}

/// The hashed summariser (the paper's final algorithm when `strategy` is
/// [`MergeStrategy::SmallerIntoBigger`]).
///
/// A summariser is tied to the arena it was created for (variable-name
/// hashes are cached per [`Symbol`] in a [`NameHashCache`]) and is designed
/// to be **reused across many terms of that arena**: the name-hash cache,
/// the traversal stack, the e-summary value stacks and the spilled-map pool
/// all persist between calls, so batch hashing performs no per-node heap
/// allocation and never re-hashes a variable name it has already seen.
/// This is what makes store ingest O(total nodes) instead of
/// O(terms × interner size). A fresh summariser costs O(1) to create and
/// pays only for the symbols its terms use, so a one-shot call on a small
/// term of a huge arena stays cheap. It keeps its own copy of the
/// [`HashScheme`], so it borrows nothing between calls.
///
/// The e-summaries of the nodes awaiting their parent live on two
/// parallel stacks: 16-byte structures on one, variable maps on the
/// other. A `Lam` rewrites the top of both in place, and an `App` or `Let`
/// pops its right child and merges the smaller of the two maps into the
/// left child's slot, so a node moves one map at most.
#[derive(Debug)]
pub struct HashedSummariser<H: HashWord> {
    scheme: HashScheme<H>,
    /// Lazily filled per-symbol name hashes.
    names: NameHashCache,
    strategy: MergeStrategy,
    /// Map operations performed at binary nodes (the Lemma 6.1 quantity).
    pub merge_ops: u64,
    /// Nodes fed through [`push_node`](Self::push_node) since construction
    /// — the instrumentation seam's "work done" denominator (store ingest
    /// reads and resets it between batches).
    pub nodes_pushed: u64,
    /// Structure half of the e-summary value stack of the streaming
    /// post-order fold.
    structs: Vec<StructH<H>>,
    /// Variable-map half of the value stack, slot for slot with `structs`.
    maps: Vec<VarMapH<H>>,
    /// Reusable traversal scratch for [`postorder_with`].
    walk: Vec<(NodeId, bool)>,
    /// Recycled spill buffers for maps wider than the inline cap.
    pool: MapPool<H>,
}

impl<H: HashWord> HashedSummariser<H> {
    /// Creates a summariser for `arena` using the §4.8 merge. Every later
    /// call must pass the same arena; nothing is read from it up front.
    pub fn new(arena: &ExprArena, scheme: &HashScheme<H>) -> Self {
        Self::with_strategy(arena, scheme, MergeStrategy::SmallerIntoBigger)
    }

    /// Creates a summariser with an explicit merge strategy (for the
    /// ablation benchmark).
    pub fn with_strategy(
        _arena: &ExprArena,
        scheme: &HashScheme<H>,
        strategy: MergeStrategy,
    ) -> Self {
        HashedSummariser {
            scheme: *scheme,
            names: NameHashCache::new(),
            strategy,
            merge_ops: 0,
            nodes_pushed: 0,
            structs: Vec::new(),
            maps: Vec::new(),
            walk: Vec::new(),
            pool: MapPool::default(),
        }
    }

    /// Name-hash cache misses since the last call — symbols whose name
    /// hash had to be computed rather than served from the cache, one per
    /// distinct symbol the summariser has touched. A high miss share on a
    /// reused summariser means the cache is not amortising.
    pub fn take_name_cache_misses(&mut self) -> u64 {
        std::mem::take(&mut self.names.misses)
    }

    /// Forgets every name hash cached so far, in time proportional to the
    /// symbols the cache holds rather than to the arena. Afterwards the
    /// summariser may serve a different arena: this is how a pooled
    /// summariser moves from one caller's arena to the next.
    pub fn forget_names(&mut self) {
        self.names.forget();
    }

    /// Symbol pages the name-hash cache has allocated — its memory, in
    /// units of 256 symbols.
    pub fn name_cache_pages(&self) -> usize {
        self.names.pages()
    }

    /// Retunes (or disables, with `usize::MAX`) the tree tier of this
    /// summariser's variable maps — the sorted-Vec ablation knob the
    /// wide-map bench uses to measure the tiers against each other.
    pub fn set_tree_threshold(&mut self, threshold: usize) {
        self.pool.set_tree_threshold(threshold);
    }

    /// §4.6 merge: wrap every left entry `LeftOnly`, every right entry
    /// `RightOnly`, and both-sides entries `Both`. Touches every entry — the
    /// quadratic baseline for the ablation. Implemented as one merge-join
    /// over the two sorted iterations (tier-agnostic).
    fn merge_both(&mut self, arena: &ExprArena, left: VarMapH<H>, right: VarMapH<H>) -> VarMapH<H> {
        let scheme = &self.scheme;
        let mut out = self.pool.take_buffer(left.len() + right.len());
        let mut xor = H::ZERO;
        {
            let mut li = left.iter().peekable();
            let mut ri = right.iter().peekable();
            loop {
                let (sym, pos) = match (li.peek().copied(), ri.peek().copied()) {
                    (None, None) => break,
                    (Some((ls, lp)), Some((rs, rp))) if ls == rs => {
                        li.next();
                        ri.next();
                        let size = 1 + lp.size + rp.size;
                        (
                            ls,
                            PosH {
                                hash: scheme.pt_both(size, lp.hash, rp.hash),
                                size,
                            },
                        )
                    }
                    (Some((ls, lp)), r) if r.is_none_or(|(rs, _)| ls < rs) => {
                        li.next();
                        (
                            ls,
                            PosH {
                                hash: scheme.pt_left(1 + lp.size, lp.hash),
                                size: 1 + lp.size,
                            },
                        )
                    }
                    (_, Some((rs, rp))) => {
                        ri.next();
                        (
                            rs,
                            PosH {
                                hash: scheme.pt_right(1 + rp.size, rp.hash),
                                size: 1 + rp.size,
                            },
                        )
                    }
                    (Some(_), None) => unreachable!("covered by the left-only arm"),
                };
                self.merge_ops += 1;
                let nh = self.names.get(arena, scheme, sym);
                xor = xor.xor(scheme.entry(nh, pos.hash));
                out.push((sym, pos));
            }
        }
        left.recycle(&mut self.pool);
        right.recycle(&mut self.pool);
        VarMapH::from_sorted(out, xor, &mut self.pool)
    }

    /// Merges the variable map on top of the stack (a binary node's right
    /// child's) into the one below it (the left child's), leaving the
    /// result in the lower slot, and returns whether the left map was the
    /// bigger one (the §4.8 flag). `tag` is the parent structure's size.
    ///
    /// The §4.8 merge folds the smaller map into the bigger one, tagging
    /// each moved entry with `tag` and recording it in `joins` if given.
    /// Only smaller-side entries count as merge operations (Lemma 6.1) —
    /// counted here, in one tier-independent increment — while the
    /// representation work happens in [`VarMapH::merge_from_smaller`]: in
    /// place when the result fits inline, one linear merge-join of the two
    /// sorted runs in the flat-spill tier, and an O(m log(n/m + 1))
    /// persistent-tree union in the tree tier.
    fn merge_top(
        &mut self,
        arena: &ExprArena,
        tag: u64,
        mut joins: Option<&mut Vec<(Symbol, PosH<H>)>>,
    ) -> bool {
        // Out of `self` for the merge, which needs the rest of it.
        let mut maps = std::mem::take(&mut self.maps);
        let right = maps.pop().expect("binary node has a right child");
        let left = maps.last_mut().expect("binary node has a left child");
        if self.strategy == MergeStrategy::TransformBoth {
            let both = std::mem::take(left);
            *left = self.merge_both(arena, both, right);
            self.maps = maps;
            return true;
        }
        let left_bigger = left.len() >= right.len();
        let smaller = if left_bigger {
            right
        } else {
            std::mem::replace(left, right)
        };
        if smaller.is_empty() {
            smaller.recycle(&mut self.pool);
        } else {
            self.merge_ops += smaller.len() as u64;
            let scheme = &self.scheme;
            let names = &mut self.names;
            let mut nh = |sym: Symbol| names.get(arena, scheme, sym);
            let mut join = |sym: Symbol, old: Option<PosH<H>>, small_pos: PosH<H>| {
                let size = 1 + old.map_or(0, |p| p.size) + small_pos.size;
                let joined = PosH {
                    hash: scheme.pt_join(size, tag, old.map(|p| p.hash), small_pos.hash),
                    size,
                };
                if let Some(joins) = &mut joins {
                    joins.push((sym, joined));
                }
                joined
            };
            left.merge_from_smaller(smaller, scheme, &mut self.pool, &mut nh, &mut join);
        }
        self.maps = maps;
        left_bigger
    }

    /// Feeds one node of a post-order traversal, reports it to `sink`, and
    /// returns its subexpression hash and its subtree size (its structure
    /// size, the §4.8 `StructureTag`). The caller drives the traversal —
    /// this is what lets the store fuse hashing with de Bruijn conversion
    /// in a single pass — and nodes **must** arrive in post-order
    /// (children before parents, `Let` rhs before body). Binders need not
    /// be distinct: each binder removes only the occurrences still free in
    /// its body, so a shadowed name hashes as its `uniquify`d copy does.
    ///
    /// The size makes this the per-subexpression record the store's
    /// `Subexpressions` mode indexes: `(hash, node_count)` for **every**
    /// node of the term at no extra cost, so granularity filters like
    /// `min_nodes` need no second traversal.
    pub fn push_node<S: SummarySink<H>>(
        &mut self,
        arena: &ExprArena,
        n: NodeId,
        sink: &mut S,
    ) -> (H, u64) {
        self.nodes_pushed += 1;
        let scheme = &self.scheme;
        let mut left_bigger = false;
        let structure = match arena.node(n) {
            ExprNode::Var(s) => {
                let pos = PosH {
                    hash: scheme.pt_here(),
                    size: 1,
                };
                let nh = self.names.get(arena, scheme, s);
                self.maps.push(VarMapH::singleton(scheme, s, nh, pos));
                sink.here(s, pos);
                StructH {
                    hash: scheme.s_var(),
                    size: 1,
                }
            }
            ExprNode::Lit(l) => {
                self.maps.push(VarMapH::new());
                StructH {
                    hash: scheme.s_lit(l.kind_tag(), l.payload()),
                    size: 1,
                }
            }
            ExprNode::Lam(x, _) => {
                let body = self.structs.pop().expect("lam body summary");
                let nh = self.names.get(arena, scheme, x);
                let map = self.maps.last_mut().expect("lam body map");
                let x_pos = map.remove(scheme, x, nh);
                sink.remove(x, x_pos);
                let size = 1 + body.size;
                StructH {
                    hash: scheme.s_lam(size, x_pos.map(|p| p.hash), body.hash),
                    size,
                }
            }
            ExprNode::App(_, _) => {
                let right = self.structs.pop().expect("app arg summary");
                let left = self.structs.pop().expect("app fun summary");
                let size = 1 + left.size + right.size;
                left_bigger = self.merge_top(arena, size, sink.joins());
                StructH {
                    hash: self.scheme.s_app(size, left_bigger, left.hash, right.hash),
                    size,
                }
            }
            ExprNode::Let(x, _, _) => {
                let body = self.structs.pop().expect("let body summary");
                let rhs = self.structs.pop().expect("let rhs summary");
                let nh = self.names.get(arena, scheme, x);
                // Binder removed from the body map first: it does not
                // scope over the rhs.
                let body_map = self.maps.last_mut().expect("let body map");
                let x_pos = body_map.remove(scheme, x, nh);
                sink.remove(x, x_pos);
                let size = 1 + rhs.size + body.size;
                left_bigger = self.merge_top(arena, size, sink.joins());
                StructH {
                    hash: self.scheme.s_let(
                        size,
                        left_bigger,
                        x_pos.map(|p| p.hash),
                        rhs.hash,
                        body.hash,
                    ),
                    size,
                }
            }
        };
        let map = self.maps.last().expect("every node leaves a map");
        let hash = self.scheme.esummary(structure.hash, map.hash());
        sink.node(n, left_bigger, structure, hash);
        self.structs.push(structure);
        (hash, structure.size)
    }

    /// Completes a streaming summary, returning the root e-summary.
    ///
    /// # Panics
    ///
    /// Panics if the nodes fed so far do not form exactly one complete
    /// post-order term.
    pub fn finish(&mut self) -> ESummaryH<H> {
        let structure = self.structs.pop().expect("summarise produced a result");
        let varmap = self.maps.pop().expect("every node leaves a map");
        assert!(
            self.structs.is_empty(),
            "finish() with an incomplete post-order feed"
        );
        ESummaryH { structure, varmap }
    }

    /// Like [`finish`](Self::finish) but discards the root e-summary,
    /// returning its spilled map buffer (if any) to the internal pool —
    /// the right call when only the per-node hashes were wanted, so that
    /// batch loops over wide-map terms stay allocation-free.
    pub fn finish_discard(&mut self) {
        let result = self.finish();
        result.varmap.recycle(&mut self.pool);
    }

    /// Feeds the subtree at `root` to [`push_node`](Self::push_node) in
    /// post-order (iteratively, so any depth is stack-safe). Complete the
    /// summary with [`finish`](Self::finish) or
    /// [`finish_discard`](Self::finish_discard).
    pub fn push_tree<S: SummarySink<H>>(&mut self, arena: &ExprArena, root: NodeId, sink: &mut S) {
        let mut walk = std::mem::take(&mut self.walk);
        postorder_with(arena, root, &mut walk, |n| {
            self.push_node(arena, n, sink);
        });
        self.walk = walk;
    }

    /// Summarises the subtree at `root`, returning its e-summary.
    pub fn summarise(&mut self, arena: &ExprArena, root: NodeId) -> ESummaryH<H> {
        self.push_tree(arena, root, &mut ());
        self.finish()
    }

    /// Hashes every subexpression of the subtree at `root` — the paper's
    /// headline operation. O(n (log n)²) with the §4.8 strategy.
    pub fn summarise_all(&mut self, arena: &ExprArena, root: NodeId) -> SubtreeHashes<H> {
        let mut out = SubtreeHashes::from_vec(vec![None; arena.len()]);
        self.push_tree(arena, root, &mut out);
        self.finish_discard();
        out
    }
}

/// One-shot convenience: the alpha-equivalence-respecting hash of a single
/// expression.
///
/// # Examples
///
/// ```
/// use lambda_lang::arena::ExprArena;
/// use lambda_lang::parse::parse;
/// use alpha_hash::combine::HashScheme;
/// use alpha_hash::hashed::hash_expr;
///
/// let scheme: HashScheme<u64> = HashScheme::default();
/// let mut a = ExprArena::new();
/// let e1 = parse(&mut a, r"\x. x + 7")?;
/// let e2 = parse(&mut a, r"\y. y + 7")?;
/// let e3 = parse(&mut a, r"\y. y + 8")?;
/// assert_eq!(hash_expr(&a, e1, &scheme), hash_expr(&a, e2, &scheme));
/// assert_ne!(hash_expr(&a, e1, &scheme), hash_expr(&a, e3, &scheme));
/// # Ok::<(), lambda_lang::parse::ParseError>(())
/// ```
pub fn hash_expr<H: HashWord>(arena: &ExprArena, root: NodeId, scheme: &HashScheme<H>) -> H {
    let mut summariser = HashedSummariser::new(arena, scheme);
    let summary = summariser.summarise(arena, root);
    summary.hash(scheme)
}

/// One-shot convenience: hashes of all subexpressions.
pub fn hash_all_subexpressions<H: HashWord>(
    arena: &ExprArena,
    root: NodeId,
    scheme: &HashScheme<H>,
) -> SubtreeHashes<H> {
    let mut summariser = HashedSummariser::new(arena, scheme);
    summariser.summarise_all(arena, root)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lambda_lang::parse::parse;

    fn scheme() -> HashScheme<u64> {
        HashScheme::new(0xABCD)
    }

    fn hash_of(src: &str) -> u64 {
        let mut a = ExprArena::new();
        let parsed = parse(&mut a, src).unwrap();
        let (b, root) = lambda_lang::uniquify::uniquify(&a, parsed);
        hash_expr(&b, root, &scheme())
    }

    #[test]
    fn paper_examples_hash_correctly() {
        // Equivalent pairs.
        assert_eq!(hash_of(r"\x. x + y"), hash_of(r"\p. p + y"));
        assert_eq!(hash_of(r"\x. x"), hash_of(r"\y. y"));
        assert_eq!(
            hash_of("let bar = x+1 in bar*y"),
            hash_of("let p = x+1 in p*y")
        );
        assert_eq!(hash_of(r"map (\y. y+1) vs"), hash_of(r"map (\x. x+1) vs"));
        // Inequivalent pairs.
        assert_ne!(hash_of(r"\x. x + y"), hash_of(r"\q. q + z"));
        assert_ne!(hash_of("x + 2"), hash_of("y + 2"));
        assert_ne!(hash_of("add x y"), hash_of("add x x"));
        assert_ne!(hash_of(r"\x. \y. x"), hash_of(r"\x. \y. y"));
        assert_ne!(hash_of("1"), hash_of("2"));
        assert_ne!(hash_of("1"), hash_of("1.0"));
        assert_ne!(hash_of("let a = 1 in a"), hash_of(r"(\a. a) 1"));
    }

    #[test]
    fn de_bruijn_failure_modes_are_fixed() {
        // §2.4 false negative: both (\x.x+t) subterms must hash equal even
        // under different lambda nesting. We hash the subterms directly.
        assert_eq!(hash_of(r"\x. x + t"), hash_of(r"\y. y + t"));
        // §2.4 false positive: (\x.t*(x+1)) vs (\x.y*(x+1)) differ in free
        // vars and must hash differently.
        assert_ne!(hash_of(r"\x. t * (x+1)"), hash_of(r"\x. y * (x+1)"));
    }

    #[test]
    fn subexpression_hashes_find_equivalent_lambdas() {
        // §1: foo (\x.x+7) (\y.y+7) — the two lambdas hash equal.
        let mut a = ExprArena::new();
        let parsed = parse(&mut a, r"foo (\x. x+7) (\y. y+7)").unwrap();
        let (b, root) = lambda_lang::uniquify::uniquify(&a, parsed);
        let s = scheme();
        let hashes = hash_all_subexpressions(&b, root, &s);
        let lams: Vec<NodeId> = lambda_lang::visit::preorder(&b, root)
            .into_iter()
            .filter(|&n| matches!(b.node(n), ExprNode::Lam(_, _)))
            .collect();
        assert_eq!(lams.len(), 2);
        assert_eq!(hashes.get(lams[0]), hashes.get(lams[1]));
        // And they differ from everything else.
        let distinct: std::collections::HashSet<u64> = hashes.iter().map(|(_, h)| h).collect();
        assert!(distinct.len() >= 8);
    }

    #[test]
    fn name_overloading_hashes_differently_in_context() {
        // §2.2: the x+2 subexpressions are equal standalone (both free x)
        // but the surrounding lets must not be equal.
        assert_eq!(hash_of("x + 2"), hash_of("x + 2"));
        assert_ne!(
            hash_of("let x = bar in x+2"),
            hash_of("let x = pubx in x+2")
        );
    }

    #[test]
    fn merge_strategies_agree_on_classes() {
        let sources = [
            r"\x. x + y",
            r"\p. p + y",
            r"\q. q + z",
            "f x x",
            "f x y",
            "let a = u in a * (a + u)",
            "let b = u in b * (b + u)",
        ];
        let s = scheme();
        let mut hashes_fast = Vec::new();
        let mut hashes_quad = Vec::new();
        for src in sources {
            let mut a = ExprArena::new();
            let parsed = parse(&mut a, src).unwrap();
            let (b, root) = lambda_lang::uniquify::uniquify(&a, parsed);
            let mut fast = HashedSummariser::new(&b, &s);
            hashes_fast.push(fast.summarise(&b, root).hash(&s));
            let mut quad = HashedSummariser::with_strategy(&b, &s, MergeStrategy::TransformBoth);
            hashes_quad.push(quad.summarise(&b, root).hash(&s));
        }
        for i in 0..sources.len() {
            for j in 0..sources.len() {
                assert_eq!(
                    hashes_fast[i] == hashes_fast[j],
                    hashes_quad[i] == hashes_quad[j],
                    "strategies disagree on {} vs {}",
                    sources[i],
                    sources[j]
                );
            }
        }
    }

    #[test]
    fn varmap_xor_maintenance_matches_recomputation() {
        // Build a map through singleton/upsert/remove and check the XOR
        // hash equals a from-scratch fold at every step.
        let s = scheme();
        let mut arena = ExprArena::new();
        let syms: Vec<Symbol> = (0..8).map(|i| arena.intern(&format!("v{i}"))).collect();
        let nh: Vec<u64> = syms.iter().map(|&x| s.var_name(arena.name(x))).collect();

        let recompute = |vm: &VarMapH<u64>| -> u64 {
            vm.iter().fold(0u64, |acc, (sym, pos)| {
                let i = syms.iter().position(|&x| x == sym).unwrap();
                acc ^ s.entry(nh[i], pos.hash)
            })
        };

        let here = PosH {
            hash: s.pt_here(),
            size: 1,
        };
        let mut vm = VarMapH::singleton(&s, syms[0], nh[0], here);
        assert_eq!(vm.hash(), recompute(&vm));

        for i in 1..8 {
            vm.upsert(
                &s,
                syms[i],
                nh[i],
                PosH {
                    hash: s.pt_left(2, here.hash),
                    size: 2,
                },
            );
            assert_eq!(vm.hash(), recompute(&vm));
        }
        // Replace an existing entry.
        vm.upsert(
            &s,
            syms[3],
            nh[3],
            PosH {
                hash: s.pt_right(2, here.hash),
                size: 2,
            },
        );
        assert_eq!(vm.hash(), recompute(&vm));
        // Remove entries one by one.
        for i in 0..8 {
            vm.remove(&s, syms[i], nh[i]);
            assert_eq!(vm.hash(), recompute(&vm));
        }
        assert_eq!(vm.hash(), u64::ZERO);
    }

    #[test]
    fn remove_of_absent_symbol_is_noop() {
        let s = scheme();
        let mut arena = ExprArena::new();
        let x = arena.intern("x");
        let y = arena.intern("y");
        let here = PosH {
            hash: s.pt_here(),
            size: 1,
        };
        let mut vm = VarMapH::singleton(&s, x, s.var_name("x"), here);
        let before = vm.hash();
        assert!(vm.remove(&s, y, s.var_name("y")).is_none());
        assert_eq!(vm.hash(), before);
    }

    #[test]
    fn different_widths_work() {
        // u16 and u128 induce the same partition of the paper's examples:
        // a 16-bit word is wide enough for 17 terms, and both widths see
        // the same equal pairs.
        let sources = [
            r"\x. x + y",
            r"\p. p + y",
            r"\q. q + z",
            r"\x. x",
            r"\y. y",
            "let bar = x+1 in bar*y",
            "let p = x+1 in p*y",
            r"map (\y. y+1) vs",
            r"map (\x. x+1) vs",
            "x + 2",
            "y + 2",
            "add x y",
            "add x x",
            r"\x. \y. x",
            r"\x. \y. y",
            "1",
            "1.0",
        ];
        let hashes = |width: fn(&ExprArena, NodeId) -> u128| -> Vec<u128> {
            sources
                .iter()
                .map(|src| {
                    let mut a = ExprArena::new();
                    let parsed = parse(&mut a, src).unwrap();
                    let (b, root) = lambda_lang::uniquify::uniquify(&a, parsed);
                    width(&b, root)
                })
                .collect()
        };
        let h16 = hashes(|a, r| u128::from(hash_expr::<u16>(a, r, &HashScheme::new(1))));
        let h128 = hashes(|a, r| hash_expr::<u128>(a, r, &HashScheme::new(1)));
        assert!(h16.iter().all(|&h| h <= u128::from(u16::MAX)));
        let mut equal_pairs = 0;
        for i in 0..sources.len() {
            for j in 0..sources.len() {
                assert_eq!(
                    h16[i] == h16[j],
                    h128[i] == h128[j],
                    "u16 and u128 disagree on {} vs {}",
                    sources[i],
                    sources[j]
                );
                equal_pairs += usize::from(i < j && h128[i] == h128[j]);
            }
        }
        assert_eq!(equal_pairs, 4, "the four alpha-equivalent pairs");
    }

    #[test]
    fn hashes_are_scheme_dependent() {
        let mut a = ExprArena::new();
        let parsed = parse(&mut a, r"\x. x + y").unwrap();
        let (b, root) = lambda_lang::uniquify::uniquify(&a, parsed);
        let h1 = hash_expr(&b, root, &HashScheme::<u64>::new(1));
        let h2 = hash_expr(&b, root, &HashScheme::<u64>::new(2));
        assert_ne!(h1, h2);
    }

    #[test]
    fn cross_arena_hashes_are_comparable() {
        // Same term built in two different arenas with different interner
        // states must hash identically (names are hashed by string).
        let s = scheme();
        let mut a = ExprArena::new();
        a.intern("pollute_interner");
        let e1 = parse(&mut a, r"\x. x + free").unwrap();
        let mut b = ExprArena::new();
        let e2 = parse(&mut b, r"\z. z + free").unwrap();
        assert_eq!(hash_expr(&a, e1, &s), hash_expr(&b, e2, &s));
    }

    #[test]
    fn a_fresh_summariser_pays_for_the_symbols_it_touches_not_the_interner() {
        // A small term whose variables sit on both sides of a page
        // boundary and at the top of a 200k-symbol interner.
        let s = scheme();
        let mut big = ExprArena::new();
        let syms: Vec<Symbol> = (0..200_000).map(|i| big.intern(&format!("s{i}"))).collect();
        let [a, b, c, d, top] = [255, 256, 257, 199_998, 199_999].map(|i| syms[i]);
        let [va, vb, vc, vd, vtop] = [a, b, c, d, top].map(|x| big.var(x));
        let body = big.app_many(va, &[vb, vc, vd, vtop]);
        let rhs = big.var(a);
        let let_top = big.let_(top, rhs, body);
        let root = big.lam(b, let_top);

        let mut summariser = HashedSummariser::new(&big, &s);
        let h = summariser.summarise(&big, root).hash(&s);
        let mut fresh = ExprArena::new();
        let imported = fresh.import_subtree(&big, root);
        assert_eq!(h, hash_expr(&fresh, imported, &s));
        assert_eq!(summariser.take_name_cache_misses(), 5);
        let slots = summariser.names.slots();
        assert!(
            slots <= 4 * NAME_PAGE,
            "{slots} name-cache slots for 5 symbols of a 200k-symbol interner"
        );
    }

    #[test]
    fn merge_ops_counting_is_log_linear_for_balanced() {
        let mut a = ExprArena::new();
        let leaves: Vec<NodeId> = (0..512).map(|i| a.var_named(&format!("v{i}"))).collect();
        let mut layer = leaves;
        while layer.len() > 1 {
            layer = layer
                .chunks(2)
                .map(|p| {
                    if p.len() == 2 {
                        a.app(p[0], p[1])
                    } else {
                        p[0]
                    }
                })
                .collect();
        }
        let s = scheme();
        let mut fast = HashedSummariser::new(&a, &s);
        let _ = fast.summarise(&a, layer[0]);
        let fast_ops = fast.merge_ops;
        let mut quad = HashedSummariser::with_strategy(&a, &s, MergeStrategy::TransformBoth);
        let _ = quad.summarise(&a, layer[0]);
        let quad_ops = quad.merge_ops;
        // 512 leaves: fast ≈ n/2·log n = 2304; quadratic ≈ n·log n... for
        // balanced both are n log n-ish, but quad counts every entry at
        // every level: 512·9 = 4608 vs fast 512·9/2 = 2304.
        assert!(fast_ops < quad_ops, "fast {fast_ops} !< quad {quad_ops}");
    }

    #[test]
    fn unbalanced_spine_fast_is_linear_quad_is_quadratic() {
        // Spine applying distinct variables: at each App the bigger map
        // keeps growing; fast touches only the 1-entry smaller side.
        let mut a = ExprArena::new();
        let mut e = a.var_named("f");
        for i in 0..500 {
            let v = a.var_named(&format!("x{i}"));
            e = a.app(e, v);
        }
        let s = scheme();
        let mut fast = HashedSummariser::new(&a, &s);
        let _ = fast.summarise(&a, e);
        let mut quad = HashedSummariser::with_strategy(&a, &s, MergeStrategy::TransformBoth);
        let _ = quad.summarise(&a, e);
        assert!(fast.merge_ops <= 500, "fast ops {}", fast.merge_ops);
        assert!(quad.merge_ops > 100_000, "quad ops {}", quad.merge_ops);
    }

    #[test]
    fn subtree_hashes_accessors() {
        let mut a = ExprArena::new();
        let parsed = parse(&mut a, "f x").unwrap();
        let hashes = hash_all_subexpressions(&a, parsed, &scheme());
        assert_eq!(hashes.len(), 3);
        assert!(!hashes.is_empty());
        assert!(hashes.get(parsed).is_some());
    }
}
