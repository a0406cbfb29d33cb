//! The e-summary canon: how a `Subexpressions` store keys its classes.
//!
//! The paper's §4.8 e-summary is compositional and name-free: a subterm's
//! structure and the position trees of its variables are the same nodes
//! standalone and inside any context, and only its free-variable map names
//! anything. Hash-consing those pieces node by node gives every subterm a
//! class key — one interned [`KeyNode`] `(structure, map)` — that costs
//! O(1) table probes per node plus O(log n) per Lemma 6.1 map operation,
//! instead of re-interning a standalone de Bruijn form along every
//! binder-to-occurrence path.
//!
//! * **Structures** ([`StructNode`]) and **position trees** ([`PosNode`])
//!   are §4.8's `StructureF` and `PosTreeF` with children as refs. The
//!   `Join` tag is the joining node's size, as in
//!   [`FastSummariser`](alpha_hash::summary::fast::FastSummariser).
//! * **Variable maps** are persistent treaps ([`MapNode`]) of
//!   [`NameId`]s, ordered by a hash of each name's string and prioritised
//!   by a hash of that, as `crates/pmap` derives its priorities, so one
//!   name set has one shape — whatever order the names were interned in —
//!   and map equality is one ref compare. By Lemma 6.1 an entry is on the
//!   smaller side O(log n) times and each insert makes O(log n) nodes, so
//!   all maps of all subterms of a term together make O(n (log n)²)
//!   nodes.
//!
//! One [`HashedSummariser`] pass drives it: its [`SummarySink`] (`Pass`)
//! replays the pass's merge decisions on table nodes, so the hash and the
//! key of every node come out of one walk. At ingest
//! ([`Scratch::intern_term`]) every node is interned. A probe
//! ([`Scratch::probe_term`]) runs the same sink against a table it never
//! writes: structures and position trees are looked up, the first one
//! missing answers "absent", and intermediate maps live in the preparer's
//! scratch until the root's map is looked up as its canonical treap.
//!
//! The summary is invertible (§4.8), which is the exactness argument and
//! the way back to de Bruijn form: [`Inverse`] rebuilds the canonical
//! de Bruijn term of a key for `canonical_text`, `representative_into`
//! and an update's effective term. Persistence needs no inverse: the WAL
//! logs the terms themselves, and a snapshot writes these nodes as the
//! table holds them.

use crate::dag::{bits_opt, opt_bits, CanonTable, Field, Kind, NodeTable, TableNode, Words};
use crate::prepare::IndexMap;
use alpha_hash::combine::{mix64, HashWord};
use alpha_hash::hashed::{HashedSummariser, PosH, StructH, SummarySink};
use lambda_lang::arena::{ExprArena, ExprNode, NodeId};
use lambda_lang::canon::{CanonRef, NameId};
use lambda_lang::debruijn::{DbArena, DbId, DbNode};
use lambda_lang::symbol::Symbol;
use lambda_lang::Literal;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A ref in a slot word's low half.
#[inline]
fn bits(r: CanonRef) -> u64 {
    u64::from(r.to_bits())
}

/// Two 32-bit values in one word.
#[inline]
fn pair(low: u64, high: u64) -> u64 {
    (low & 0xFFFF_FFFF) | high << 32
}

#[inline]
fn low(word: u64) -> CanonRef {
    CanonRef::from_bits(word as u32)
}

#[inline]
fn high(word: u64) -> CanonRef {
    CanonRef::from_bits((word >> 32) as u32)
}

/// An interned §4.8 structure: the term's shape with every variable
/// anonymous, plus where each binder's occurrences are (its position
/// tree) and, at each binary node, which child's map was the bigger.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum StructNode {
    Var,
    Lit(Literal),
    Lam {
        pos: Option<CanonRef>,
        body: CanonRef,
    },
    App {
        left_bigger: bool,
        fun: CanonRef,
        arg: CanonRef,
    },
    Let {
        rhs_bigger: bool,
        pos: Option<CanonRef>,
        rhs: CanonRef,
        body: CanonRef,
    },
}

impl TableNode for StructNode {
    type Words = [u64; 2];
    type Slot = Words<2>;
    const KIND: Kind = Kind::Struct;

    fn encode(self) -> [u64; 2] {
        match self {
            StructNode::Var => [0, 0],
            StructNode::Lit(l) => {
                let (kind, payload) = match l {
                    Literal::I64(v) => (0, v as u64),
                    Literal::F64Bits(b) => (1, b),
                    Literal::Bool(b) => (2, u64::from(b)),
                };
                [1 | kind << 8, payload]
            }
            StructNode::Lam { pos, body } => [2 | opt_bits(pos) << 32, bits(body)],
            StructNode::App {
                left_bigger,
                fun,
                arg,
            } => [3 | u64::from(left_bigger) << 8, pair(bits(fun), bits(arg))],
            StructNode::Let {
                rhs_bigger,
                pos,
                rhs,
                body,
            } => [
                4 | u64::from(rhs_bigger) << 8 | opt_bits(pos) << 32,
                pair(bits(rhs), bits(body)),
            ],
        }
    }

    #[inline]
    fn decode([w0, w1]: [u64; 2]) -> Self {
        let flag = (w0 >> 8) & 1 == 1;
        match w0 & 0xFF {
            0 => StructNode::Var,
            1 => StructNode::Lit(match (w0 >> 8) & 0xFF {
                0 => Literal::I64(w1 as i64),
                1 => Literal::F64Bits(w1),
                _ => Literal::Bool(w1 != 0),
            }),
            2 => StructNode::Lam {
                pos: bits_opt(w0 >> 32),
                body: low(w1),
            },
            3 => StructNode::App {
                left_bigger: flag,
                fun: low(w1),
                arg: high(w1),
            },
            _ => StructNode::Let {
                rhs_bigger: flag,
                pos: bits_opt(w0 >> 32),
                rhs: low(w1),
                body: high(w1),
            },
        }
    }

    fn fields([w0, _]: &[u64; 2]) -> &'static [Field] {
        const BODY: Field = (1, 0, Kind::Struct, false);
        const SECOND: Field = (1, 32, Kind::Struct, false);
        const POS: Field = (0, 32, Kind::Pos, true);
        match w0 & 0xFF {
            2 => &[POS, BODY],
            3 => &[BODY, SECOND],
            4 => &[POS, BODY, SECOND],
            _ => &[],
        }
    }

    fn nodes(table: &CanonTable) -> &NodeTable<Self> {
        &table.structs
    }
}

/// An interned §4.8 position tree: where one variable occurs.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum PosNode {
    /// The variable occurs exactly here.
    Here,
    /// The entry the smaller map folded into the bigger one at the binary
    /// node of size `tag`, over what the bigger map held.
    Join {
        tag: u32,
        bigger: Option<CanonRef>,
        smaller: CanonRef,
    },
}

impl TableNode for PosNode {
    type Words = [u64; 2];
    type Slot = Words<2>;
    const KIND: Kind = Kind::Pos;

    fn encode(self) -> [u64; 2] {
        match self {
            PosNode::Here => [0, 0],
            PosNode::Join {
                tag,
                bigger,
                smaller,
            } => [
                1 | u64::from(tag) << 32,
                pair(opt_bits(bigger), bits(smaller)),
            ],
        }
    }

    #[inline]
    fn decode([w0, w1]: [u64; 2]) -> Self {
        match w0 & 1 {
            0 => PosNode::Here,
            _ => PosNode::Join {
                tag: (w0 >> 32) as u32,
                bigger: bits_opt(w1),
                smaller: high(w1),
            },
        }
    }

    fn fields([w0, _]: &[u64; 2]) -> &'static [Field] {
        match w0 & 1 {
            0 => &[],
            _ => &[(1, 0, Kind::Pos, true), (1, 32, Kind::Pos, false)],
        }
    }

    fn nodes(table: &CanonTable) -> &NodeTable<Self> {
        &table.positions
    }
}

/// One node of an interned variable-map treap: a free variable's
/// position tree plus the subtreaps of names ordered before and after it.
/// `order` is the name's order key ([`CanonTable::name_order`]), kept in
/// the node so that walking a treap reads no name.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) struct MapNode {
    pub(crate) name: NameId,
    pub(crate) order: u64,
    pub(crate) pos: CanonRef,
    pub(crate) left: Option<CanonRef>,
    pub(crate) right: Option<CanonRef>,
}

/// A snapshot writes a map node without its `order`, which loading
/// recomputes from the name.
impl TableNode for MapNode {
    type Words = [u64; 3];
    type Slot = Words<3>;
    const KIND: Kind = Kind::Map;
    const SAVED: usize = 2;

    fn encode(self) -> [u64; 3] {
        [
            pair(u64::from(self.name.index()), bits(self.pos)),
            pair(opt_bits(self.left), opt_bits(self.right)),
            self.order,
        ]
    }

    #[inline]
    fn decode([w0, w1, order]: [u64; 3]) -> Self {
        MapNode {
            name: NameId::from_index(w0 as u32),
            order,
            pos: high(w0),
            left: bits_opt(w1),
            right: bits_opt(w1 >> 32),
        }
    }

    fn fields(_: &[u64; 3]) -> &'static [Field] {
        &[
            (0, 0, Kind::Name, false),
            (0, 32, Kind::Pos, false),
            (1, 0, Kind::Map, true),
            (1, 32, Kind::Map, true),
        ]
    }

    fn loaded(self, table: &CanonTable) -> Self {
        MapNode {
            order: table.name_order(self.name),
            ..self
        }
    }

    fn nodes(table: &CanonTable) -> &NodeTable<Self> {
        &table.maps
    }
}

/// A class key: a subterm's structure and its variable map (`None` for a
/// closed subterm).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) struct KeyNode {
    pub(crate) structure: CanonRef,
    pub(crate) map: Option<CanonRef>,
}

impl TableNode for KeyNode {
    type Words = [u64; 1];
    type Slot = Words<1>;
    const KIND: Kind = Kind::Key;

    fn encode(self) -> [u64; 1] {
        [pair(bits(self.structure), opt_bits(self.map))]
    }

    #[inline]
    fn decode([w]: [u64; 1]) -> Self {
        KeyNode {
            structure: low(w),
            map: bits_opt(w >> 32),
        }
    }

    fn fields(_: &[u64; 1]) -> &'static [Field] {
        &[(0, 0, Kind::Struct, false), (0, 32, Kind::Map, true)]
    }

    fn nodes(table: &CanonTable) -> &NodeTable<Self> {
        &table.keys
    }
}

// ---- variable maps as treaps --------------------------------------------

/// A treap link: a map-node ref of the shared table, or an index into a
/// probe's scratch nodes.
type Link = Option<u32>;

/// A map key: a [`NameId`] index in the shared table, a [`Symbol`] index
/// in a probe's scratch, with the key's order.
#[derive(Clone, Copy, PartialEq, Eq)]
struct Key {
    id: u32,
    order: u64,
}

/// One treap node in either storage.
#[derive(Clone, Copy)]
struct Entry {
    key: Key,
    pos: CanonRef,
    left: Link,
    right: Link,
}

/// Where treap nodes live: interned into the table at ingest, pushed to
/// scratch by a probe. Nodes are immutable once made, so every version
/// of a map stays valid.
trait Treap {
    fn get(&self, link: u32) -> Entry;
    fn make(&mut self, entry: Entry) -> u32;
    /// Orders two distinct keys of equal order.
    fn tie(&self, a: u32, b: u32) -> Ordering;

    /// The key order: by order key, ties broken by [`Treap::tie`].
    #[inline]
    fn cmp(&self, a: Key, b: Key) -> Ordering {
        if a.id == b.id {
            return Ordering::Equal;
        }
        a.order.cmp(&b.order).then_with(|| self.tie(a.id, b.id))
    }

    /// Whether `a` ranks above `b` in the heap order: a hash of the order
    /// key, ties broken by the key order. A strict total order derived
    /// from the keys alone, so a key set has one treap shape.
    #[inline]
    fn above(&self, a: Key, b: Key) -> bool {
        match mix64(a.order).cmp(&mix64(b.order)) {
            Ordering::Equal => self.cmp(a, b) == Ordering::Greater,
            order => order == Ordering::Greater,
        }
    }
}

fn lookup(t: &impl Treap, mut link: Link, key: Key) -> Option<CanonRef> {
    while let Some(at) = link {
        let e = t.get(at);
        link = match t.cmp(key, e.key) {
            Ordering::Less => e.left,
            Ordering::Greater => e.right,
            Ordering::Equal => return Some(e.pos),
        };
    }
    None
}

/// The map `link` with `key ↦ pos`, replacing any entry for `key`.
fn insert(t: &mut impl Treap, link: Link, key: Key, pos: CanonRef) -> u32 {
    let Some(at) = link else {
        return t.make(Entry {
            key,
            pos,
            left: None,
            right: None,
        });
    };
    let e = t.get(at);
    if key == e.key {
        return t.make(Entry { pos, ..e });
    }
    if t.above(key, e.key) {
        // The new entry roots this subtree, so `key` is not in it.
        let (left, right) = split(t, link, key);
        return t.make(Entry {
            key,
            pos,
            left,
            right,
        });
    }
    if t.cmp(key, e.key) == Ordering::Less {
        let left = Some(insert(t, e.left, key, pos));
        t.make(Entry { left, ..e })
    } else {
        let right = Some(insert(t, e.right, key, pos));
        t.make(Entry { right, ..e })
    }
}

/// The entries of `link` below and above `key`, which it does not hold.
fn split(t: &mut impl Treap, link: Link, key: Key) -> (Link, Link) {
    let Some(at) = link else {
        return (None, None);
    };
    let e = t.get(at);
    if t.cmp(key, e.key) == Ordering::Less {
        let (below, above) = split(t, e.left, key);
        (below, Some(t.make(Entry { left: above, ..e })))
    } else {
        let (below, above) = split(t, e.right, key);
        (Some(t.make(Entry { right: below, ..e })), above)
    }
}

/// The map `link` without `key`, and what it held for `key`.
fn remove(t: &mut impl Treap, link: Link, key: Key) -> (Link, Option<CanonRef>) {
    let Some(at) = link else {
        return (None, None);
    };
    let e = t.get(at);
    match t.cmp(key, e.key) {
        Ordering::Equal => (join(t, e.left, e.right), Some(e.pos)),
        Ordering::Less => match remove(t, e.left, key) {
            (_, None) => (link, None),
            (left, pos) => (Some(t.make(Entry { left, ..e })), pos),
        },
        Ordering::Greater => match remove(t, e.right, key) {
            (_, None) => (link, None),
            (right, pos) => (Some(t.make(Entry { right, ..e })), pos),
        },
    }
}

/// Joins two treaps whose keys all order `a` before `b`.
fn join(t: &mut impl Treap, a: Link, b: Link) -> Link {
    let (Some(x), Some(y)) = (a, b) else {
        return a.or(b);
    };
    let (ex, ey) = (t.get(x), t.get(y));
    if t.above(ex.key, ey.key) {
        let right = join(t, ex.right, b);
        Some(t.make(Entry { right, ..ex }))
    } else {
        let left = join(t, a, ey.left);
        Some(t.make(Entry { left, ..ey }))
    }
}

/// Appends the entries of `link` to `out`, in key order.
fn entries(t: &impl Treap, link: Link, walk: &mut Vec<u32>, out: &mut Vec<(Key, CanonRef)>) {
    walk.clear();
    let mut cur = link;
    loop {
        while let Some(at) = cur {
            walk.push(at);
            cur = t.get(at).left;
        }
        let Some(at) = walk.pop() else {
            return;
        };
        let e = t.get(at);
        out.push((e.key, e.pos));
        cur = e.right;
    }
}

/// The shared table's maps, as a treap store that interns every node it
/// makes and counts the probe.
struct Shared<'t> {
    table: &'t CanonTable,
    probes: u64,
}

impl Shared<'_> {
    fn structure(&mut self, node: StructNode) -> CanonRef {
        self.probes += 1;
        self.table.structs.intern(node)
    }

    fn position(&mut self, node: PosNode) -> CanonRef {
        self.probes += 1;
        self.table.positions.intern(node)
    }

    fn key(&mut self, node: KeyNode) -> CanonRef {
        self.probes += 1;
        self.table.keys.intern(node)
    }
}

/// A table name as a treap key.
fn name_key(table: &CanonTable, name: NameId) -> Key {
    Key {
        id: name.index(),
        order: table.name_order(name),
    }
}

impl Treap for Shared<'_> {
    #[inline]
    fn get(&self, link: u32) -> Entry {
        let n = self.table.maps.node(CanonRef::from_bits(link));
        Entry {
            key: Key {
                id: n.name.index(),
                order: n.order,
            },
            pos: n.pos,
            left: n.left.map(CanonRef::to_bits),
            right: n.right.map(CanonRef::to_bits),
        }
    }

    #[inline]
    fn make(&mut self, e: Entry) -> u32 {
        self.probes += 1;
        let node = MapNode {
            name: NameId::from_index(e.key.id),
            order: e.key.order,
            pos: e.pos,
            left: e.left.map(CanonRef::from_bits),
            right: e.right.map(CanonRef::from_bits),
        };
        self.table.maps.intern(node).to_bits()
    }

    /// Two names whose order keys collide compare by their strings.
    fn tie(&self, a: u32, b: u32) -> Ordering {
        let name = |id: u32| self.table.name(NameId::from_index(id));
        name(a).cmp(name(b))
    }
}

/// A probe's scratch maps: plain nodes pushed to a vector, keyed by the
/// probe arena's symbols, each its own order key.
struct Local<'s>(&'s mut Vec<Entry>);

/// A probe arena's symbol as a scratch treap key.
fn symbol_key(sym: Symbol) -> Key {
    Key {
        id: sym.index(),
        order: u64::from(sym.index()),
    }
}

impl Treap for Local<'_> {
    #[inline]
    fn get(&self, link: u32) -> Entry {
        self.0[link as usize]
    }

    #[inline]
    fn make(&mut self, e: Entry) -> u32 {
        self.0.push(e);
        (self.0.len() - 1) as u32
    }

    fn tie(&self, _a: u32, _b: u32) -> Ordering {
        unreachable!("distinct symbols have distinct order keys")
    }
}

/// Builds the canonical treap of `sorted` (entries in key order) from
/// nodes already in the table, or `None` if one is missing: a probe's
/// lookup of its root map.
fn find_treap(shared: &Shared<'_>, sorted: &[(Key, CanonRef)]) -> Option<Option<CanonRef>> {
    if sorted.is_empty() {
        return Some(None);
    }
    let mut top = 0;
    for i in 1..sorted.len() {
        if shared.above(sorted[i].0, sorted[top].0) {
            top = i;
        }
    }
    let left = find_treap(shared, &sorted[..top])?;
    let right = find_treap(shared, &sorted[top + 1..])?;
    let (key, pos) = sorted[top];
    shared
        .table
        .maps
        .find(&MapNode {
            name: NameId::from_index(key.id),
            order: key.order,
            pos,
            left,
            right,
        })
        .map(Some)
}

// ---- the pass ------------------------------------------------------------

/// Arena symbol → its name's treap key and the interned `{name ↦ Here}`
/// map.
type NameCache = IndexMap<Symbol, (Key, u32)>;

/// The pass's value stacks and merge scratch.
#[derive(Default)]
struct Stacks {
    /// Structure refs of the nodes awaiting their parent.
    structs: Vec<CanonRef>,
    /// Their maps, slot for slot.
    maps: Vec<Link>,
    /// What the last binder removed from its body's map.
    binder: Option<CanonRef>,
    /// The smaller map's entries at a merge; a root map's at a probe.
    smaller: Vec<(Key, CanonRef)>,
    /// In-order walk stack of [`entries`].
    walk: Vec<u32>,
}

/// A preparer's reusable e-summary state: the pass's stacks, the
/// symbol → (name, singleton map) cache of its arena, and a probe's
/// scratch treap nodes. Like the preparer, it assumes one arena and one
/// table until [`forget_arena`](Self::forget_arena).
pub(crate) struct Scratch<H> {
    stacks: Stacks,
    names: NameCache,
    /// A probe's scratch treap nodes.
    local: Vec<Entry>,
    /// `(key, hash, size)` of every indexed node of the latest ingest,
    /// in post-order.
    pub(crate) indexed: Vec<(CanonRef, H, u64)>,
}

impl<H> Default for Scratch<H> {
    fn default() -> Self {
        Scratch {
            stacks: Stacks::default(),
            names: NameCache::default(),
            local: Vec::new(),
            indexed: Vec::new(),
        }
    }
}

/// Scratch treap nodes a pooled preparer keeps: a probe's maps hold
/// O(n log n) of them, so one large probe leaves no large buffer behind.
const POOLED_LOCAL_NODES: usize = 1 << 12;

/// What one ingest pass produced: the root's key, hash and size, and the
/// intern probes it made.
pub(crate) struct Interned<H> {
    pub(crate) key: CanonRef,
    pub(crate) hash: H,
    pub(crate) size: u64,
    pub(crate) probes: u64,
}

impl<H: HashWord> Scratch<H> {
    /// Forgets the arena's symbols and the probe scratch.
    pub(crate) fn forget_arena(&mut self) {
        self.names.clear();
        self.local.clear();
        self.local.shrink_to(POOLED_LOCAL_NODES);
    }

    /// Runs the summariser over `root`, interning every node's e-summary
    /// into `table`, and records `(key, hash, size)` in `indexed` for
    /// every node of at least `min_nodes` nodes (root included).
    pub(crate) fn intern_term(
        &mut self,
        summariser: &mut HashedSummariser<H>,
        arena: &ExprArena,
        root: NodeId,
        min_nodes: u64,
        table: &CanonTable,
    ) -> Interned<H> {
        self.indexed.clear();
        let mut shared = Shared { table, probes: 0 };
        let var = shared.structure(StructNode::Var);
        let here = shared.position(PosNode::Here);
        let mode = Interning {
            shared,
            names: &mut self.names,
            var,
            here,
            min_nodes,
            indexed: &mut self.indexed,
        };
        let (mode, hash, size) = run(summariser, arena, root, mode, &mut self.stacks)
            .expect("ingest interns every node");
        let mut shared = Shared {
            table,
            probes: mode.shared.probes,
        };
        // The root is the last indexed node, unless it is under the floor.
        let key = match self.indexed.last() {
            Some(&(key, _, _)) => key,
            None => shared.key(KeyNode {
                structure: *self.stacks.structs.last().expect("root structure"),
                map: self
                    .stacks
                    .maps
                    .last()
                    .expect("root map")
                    .map(CanonRef::from_bits),
            }),
        };
        Interned {
            key,
            hash,
            size,
            probes: shared.probes,
        }
    }

    /// Runs the summariser over `root` against a table it never writes:
    /// the root's hash and size, and its key if every node of its
    /// e-summary is resident (`None` answers "absent").
    pub(crate) fn probe_term(
        &mut self,
        summariser: &mut HashedSummariser<H>,
        arena: &ExprArena,
        root: NodeId,
        table: &CanonTable,
    ) -> (H, u64, Option<CanonRef>) {
        self.local.clear();
        let mode = Looking {
            table,
            local: Local(&mut self.local),
            var: table.structs.find(&StructNode::Var),
            here: table.positions.find(&PosNode::Here),
        };
        match run(summariser, arena, root, mode, &mut self.stacks) {
            Ok((mode, hash, size)) => (hash, size, mode.root_key(arena, &mut self.stacks)),
            Err((hash, size)) => (hash, size, None),
        }
    }
}

/// Where a pass's e-summary nodes come from: interned into the table at
/// ingest ([`Interning`]), looked up in it by a probe ([`Looking`]), whose
/// lookups may fail. Its maps live in its own treap store.
trait Mode<H> {
    type Maps: Treap;
    fn maps(&mut self) -> &mut Self::Maps;
    /// The ref of a structure; `None` stands for `Var`.
    fn structure(&mut self, node: Option<StructNode>) -> Option<CanonRef>;
    fn position(&mut self, node: PosNode) -> Option<CanonRef>;
    /// The map `{sym ↦ Here}`.
    fn singleton(&mut self, arena: &ExprArena, sym: Symbol) -> Option<u32>;
    /// The map key of binder `sym`, or `None` if no map can hold it.
    fn binder_key(&self, sym: Symbol) -> Option<Key>;
    /// Node done: its structure, its map, its hash and size.
    fn done(&mut self, _structure: CanonRef, _map: Link, _hash: H, _size: u64) {}
}

/// Runs the summariser's one pass over `root` with `mode` behind its
/// sink. `Err` with the root's hash and size if a lookup failed.
fn run<H: HashWord, M: Mode<H>>(
    summariser: &mut HashedSummariser<H>,
    arena: &ExprArena,
    root: NodeId,
    mode: M,
    stacks: &mut Stacks,
) -> Result<(M, H, u64), (H, u64)> {
    stacks.structs.clear();
    stacks.maps.clear();
    stacks.binder = None;
    let mut sink = Pass {
        mode,
        stacks,
        arena,
        absent: false,
        last: None,
    };
    summariser.push_tree(arena, root, &mut sink);
    summariser.finish_discard();
    let (hash, size) = sink.last.expect("non-empty term");
    if sink.absent {
        Err((hash, size))
    } else {
        Ok((sink.mode, hash, size))
    }
}

/// The sink: replays the pass's §4.8 events on [`Mode`] nodes. Once a
/// lookup fails the rest of the pass is ignored.
struct Pass<'a, M, H> {
    mode: M,
    stacks: &'a mut Stacks,
    arena: &'a ExprArena,
    absent: bool,
    /// The latest node's hash and size: the root's once the pass ends.
    last: Option<(H, u64)>,
}

impl<H: HashWord, M: Mode<H>> SummarySink<H> for Pass<'_, M, H> {
    fn here(&mut self, sym: Symbol, _here: PosH<H>) {
        if self.absent {
            return;
        }
        match self.mode.singleton(self.arena, sym) {
            Some(map) => self.stacks.maps.push(Some(map)),
            None => self.absent = true,
        }
    }

    fn remove(&mut self, sym: Symbol, _pos: Option<PosH<H>>) {
        if self.absent {
            return;
        }
        let top = self.stacks.maps.last_mut().expect("binder body map");
        let (map, pos) = match self.mode.binder_key(sym) {
            Some(key) => remove(self.mode.maps(), *top, key),
            None => (*top, None),
        };
        *top = map;
        self.stacks.binder = pos;
    }

    fn node(&mut self, n: NodeId, left_bigger: bool, structure: StructH<H>, hash: H) {
        self.last = Some((hash, structure.size));
        if self.absent {
            return;
        }
        let s = &mut *self.stacks;
        let node = match self.arena.node(n) {
            ExprNode::Var(_) => Some(None),
            ExprNode::Lit(l) => {
                s.maps.push(None);
                Some(Some(StructNode::Lit(l)))
            }
            ExprNode::Lam(_, _) => Some(Some(StructNode::Lam {
                pos: s.binder.take(),
                body: s.structs.pop().expect("lam body"),
            })),
            ExprNode::App(_, _) => {
                merge(s, &mut self.mode, structure.size, left_bigger).map(|(fun, arg)| {
                    Some(StructNode::App {
                        left_bigger,
                        fun,
                        arg,
                    })
                })
            }
            ExprNode::Let(_, _, _) => {
                let pos = s.binder.take();
                merge(s, &mut self.mode, structure.size, left_bigger).map(|(rhs, body)| {
                    Some(StructNode::Let {
                        rhs_bigger: left_bigger,
                        pos,
                        rhs,
                        body,
                    })
                })
            }
        };
        let Some(r) = node.and_then(|node| self.mode.structure(node)) else {
            self.absent = true;
            return;
        };
        s.structs.push(r);
        let map = *s.maps.last().expect("node map");
        self.mode.done(r, map, hash, structure.size);
    }
}

/// A binary node's §4.8 merge: pops the two children, folds the smaller
/// map into the bigger one (each smaller-side entry `Join`ed under `tag`
/// over what the bigger map held) into the left child's slot, and returns
/// the children's structures. `None` if a position tree is missing.
fn merge<H, M: Mode<H>>(
    s: &mut Stacks,
    mode: &mut M,
    tag: u64,
    left_bigger: bool,
) -> Option<(CanonRef, CanonRef)> {
    let right = s.structs.pop().expect("right child");
    let left = s.structs.pop().expect("left child");
    let right_map = s.maps.pop().expect("right child map");
    let left_map = s.maps.last_mut().expect("left child map");
    let (mut big, small) = if left_bigger {
        (*left_map, right_map)
    } else {
        (right_map, *left_map)
    };
    if small.is_some() {
        let tag = u32::try_from(tag).expect("term size fits u32");
        s.smaller.clear();
        entries(mode.maps(), small, &mut s.walk, &mut s.smaller);
        for &(key, smaller) in &s.smaller {
            let bigger = lookup(mode.maps(), big, key);
            let joined = mode.position(PosNode::Join {
                tag,
                bigger,
                smaller,
            })?;
            big = Some(insert(mode.maps(), big, key, joined));
        }
    }
    *left_map = big;
    Some((left, right))
}

/// Ingest: every structure, position tree and map node is interned, and
/// so is the key of every node of at least `min_nodes` nodes.
struct Interning<'a, H> {
    shared: Shared<'a>,
    names: &'a mut NameCache,
    /// The `Var` structure and the `Here` position, interned once a term.
    var: CanonRef,
    here: CanonRef,
    min_nodes: u64,
    indexed: &'a mut Vec<(CanonRef, H, u64)>,
}

impl<'a, H> Mode<H> for Interning<'a, H> {
    type Maps = Shared<'a>;

    fn maps(&mut self) -> &mut Shared<'a> {
        &mut self.shared
    }

    fn structure(&mut self, node: Option<StructNode>) -> Option<CanonRef> {
        Some(node.map_or(self.var, |node| self.shared.structure(node)))
    }

    fn position(&mut self, node: PosNode) -> Option<CanonRef> {
        Some(self.shared.position(node))
    }

    fn singleton(&mut self, arena: &ExprArena, sym: Symbol) -> Option<u32> {
        let (shared, here) = (&mut self.shared, self.here);
        let &mut (_, map) = self.names.entry(sym).or_insert_with(|| {
            let key = name_key(shared.table, shared.table.intern_name(arena.name(sym)));
            let map = shared.make(Entry {
                key,
                pos: here,
                left: None,
                right: None,
            });
            (key, map)
        });
        Some(map)
    }

    /// A symbol the cache lacks never occurred, so no map holds it.
    fn binder_key(&self, sym: Symbol) -> Option<Key> {
        self.names.get(&sym).map(|&(key, _)| key)
    }

    fn done(&mut self, structure: CanonRef, map: Link, hash: H, size: u64) {
        if size >= self.min_nodes {
            let key = self.shared.key(KeyNode {
                structure,
                map: map.map(CanonRef::from_bits),
            });
            self.indexed.push((key, hash, size));
        }
    }
}

/// A probe: structures and position trees are looked up, maps are
/// scratch treaps keyed by the probe arena's symbols.
struct Looking<'a> {
    table: &'a CanonTable,
    local: Local<'a>,
    var: Option<CanonRef>,
    here: Option<CanonRef>,
}

impl<'a, H> Mode<H> for Looking<'a> {
    type Maps = Local<'a>;

    fn maps(&mut self) -> &mut Local<'a> {
        &mut self.local
    }

    fn structure(&mut self, node: Option<StructNode>) -> Option<CanonRef> {
        match node {
            None => self.var,
            Some(node) => self.table.structs.find(&node),
        }
    }

    fn position(&mut self, node: PosNode) -> Option<CanonRef> {
        self.table.positions.find(&node)
    }

    fn singleton(&mut self, _arena: &ExprArena, sym: Symbol) -> Option<u32> {
        let pos = self.here?;
        Some(self.local.make(Entry {
            key: symbol_key(sym),
            pos,
            left: None,
            right: None,
        }))
    }

    fn binder_key(&self, sym: Symbol) -> Option<Key> {
        Some(symbol_key(sym))
    }
}

impl Looking<'_> {
    /// The probe's root key: its scratch map renamed to table names,
    /// found as its canonical treap, and the key of that map and the root
    /// structure.
    fn root_key(self, arena: &ExprArena, s: &mut Stacks) -> Option<CanonRef> {
        let structure = *s.structs.last().expect("root structure");
        let map = *s.maps.last().expect("root map");
        s.smaller.clear();
        entries(&self.local, map, &mut s.walk, &mut s.smaller);
        let table = self.table;
        for (key, _) in &mut s.smaller {
            let name = table.find_name(arena.name(Symbol::from_index(key.id)))?;
            *key = name_key(table, name);
        }
        let shared = Shared { table, probes: 0 };
        s.smaller.sort_unstable_by(|a, b| shared.cmp(a.0, b.0));
        let map = find_treap(&shared, &s.smaller)?;
        table.keys.find(&KeyNode { structure, map })
    }
}

// ---- the inverse ---------------------------------------------------------

/// A variable of the inverse's maps: a free name, or the binder at a
/// level (binders between it and the root).
type VarId = u64;

/// The [`VarId`] bit of a free name (its [`NameId`] in the low half).
const FREE: VarId = 1 << 32;

/// The free name [`Inverse`] gives a variable its key's map lacks: a
/// machine name (it holds a `%`), which no source name is.
pub(crate) const UNMAPPED: &str = "%unmapped";

/// A map entry awaiting its split, ordered by the tag of its position
/// tree's top `Join` (0 for `Here`): at a binary node of size `t`, the
/// entries it joined are exactly those on top with tag `t`, because every
/// other entry's top join happened inside a smaller subterm.
type Pending = (u32, VarId, u32);

/// Rebuilds canonical de Bruijn forms from class keys: the §4.8 inverse
/// (`FastSummariser::rebuild`'s split of each binary node's map by its
/// tag), with the entries of each map kept in a heap by top tag so a
/// split touches only the entries that node joined. It memoises structure
/// sizes (the tags) across the keys it converts.
pub(crate) struct Inverse<'t> {
    table: &'t CanonTable,
    sizes: IndexMap<u32, u64>,
}

enum Step {
    Visit {
        structure: CanonRef,
        vars: BinaryHeap<Pending>,
        depth: u32,
    },
    Lam,
    App,
    Let,
}

impl<'t> Inverse<'t> {
    pub(crate) fn new(table: &'t CanonTable) -> Self {
        Inverse {
            table,
            sizes: IndexMap::default(),
        }
    }

    fn tag_of(&self, pos: CanonRef) -> u32 {
        match self.table.positions.node(pos) {
            PosNode::Here => 0,
            PosNode::Join { tag, .. } => tag,
        }
    }

    /// Adds the binder at `depth` to its body's map, if it occurs.
    fn bind(&self, pos: Option<CanonRef>, depth: u32, vars: &mut BinaryHeap<Pending>) {
        if let Some(p) = pos {
            vars.push((self.tag_of(p), u64::from(depth), p.to_bits()));
        }
    }

    /// The size of `structure` (its node count, the §4.8 tag).
    fn size(&mut self, structure: CanonRef) -> u64 {
        let mut stack = vec![(structure, false)];
        while let Some((r, expanded)) = stack.pop() {
            if self.sizes.contains_key(&r.to_bits()) {
                continue;
            }
            let children = match self.table.structs.node(r) {
                StructNode::Var | StructNode::Lit(_) => [None, None],
                StructNode::Lam { body, .. } => [Some(body), None],
                StructNode::App { fun, arg, .. } => [Some(fun), Some(arg)],
                StructNode::Let { rhs, body, .. } => [Some(rhs), Some(body)],
            };
            if expanded {
                let size = 1 + children
                    .iter()
                    .flatten()
                    .map(|c| self.sizes[&c.to_bits()])
                    .sum::<u64>();
                self.sizes.insert(r.to_bits(), size);
            } else {
                stack.push((r, true));
                stack.extend(children.iter().flatten().map(|&c| (c, false)));
            }
        }
        self.sizes[&structure.to_bits()]
    }

    /// Splits a binary node's map: the entries it joined under `tag` go
    /// to the smaller child (their `smaller` trees) and, if the bigger map
    /// held the variable too, back to the bigger one; the rest stay put.
    /// Returns `(bigger child's, smaller child's)`.
    fn split(
        &self,
        mut vars: BinaryHeap<Pending>,
        tag: u64,
    ) -> (BinaryHeap<Pending>, BinaryHeap<Pending>) {
        let mut smaller = BinaryHeap::new();
        while let Some(&(top, var, pos)) = vars.peek() {
            if u64::from(top) != tag {
                break;
            }
            vars.pop();
            let PosNode::Join {
                bigger, smaller: s, ..
            } = self.table.positions.node(CanonRef::from_bits(pos))
            else {
                unreachable!("a tagged entry is a join");
            };
            smaller.push((self.tag_of(s), var, s.to_bits()));
            if let Some(b) = bigger {
                vars.push((self.tag_of(b), var, b.to_bits()));
            }
        }
        (vars, smaller)
    }

    /// The canonical de Bruijn form of the class key `key`, as
    /// `to_debruijn` would produce it from any member.
    pub(crate) fn debruijn(&mut self, key: CanonRef) -> (DbArena, DbId) {
        let table = self.table;
        let KeyNode { structure, map } = table.keys.node(key);
        let mut root_vars = Vec::new();
        entries(
            &Shared { table, probes: 0 },
            map.map(CanonRef::to_bits),
            &mut Vec::new(),
            &mut root_vars,
        );
        let vars: BinaryHeap<Pending> = root_vars
            .into_iter()
            .map(|(name, pos)| (self.tag_of(pos), FREE | u64::from(name.id), pos.to_bits()))
            .collect();
        let mut dst = DbArena::new();
        let mut results: Vec<DbId> = Vec::new();
        let mut steps = vec![Step::Visit {
            structure,
            vars,
            depth: 0,
        }];
        while let Some(step) = steps.pop() {
            let id = match step {
                Step::Visit {
                    structure,
                    mut vars,
                    depth,
                } => match table.structs.node(structure) {
                    // A live key maps each variable to exactly one
                    // entry; a damaged one may map it to none or several.
                    StructNode::Var => match vars.pop() {
                        Some((_, var, _)) if var & FREE == 0 => {
                            dst.push(DbNode::BVar(depth - var as u32 - 1))
                        }
                        entry => {
                            let name = entry.map_or(UNMAPPED, |(_, var, _)| {
                                table.name(NameId::from_index(var as u32))
                            });
                            let sym = dst.intern(name);
                            dst.push(DbNode::FVar(sym))
                        }
                    },
                    StructNode::Lit(l) => dst.push(DbNode::Lit(l)),
                    StructNode::Lam { pos, body } => {
                        self.bind(pos, depth, &mut vars);
                        steps.push(Step::Lam);
                        steps.push(Step::Visit {
                            structure: body,
                            vars,
                            depth: depth + 1,
                        });
                        continue;
                    }
                    StructNode::App {
                        left_bigger,
                        fun,
                        arg,
                    } => {
                        let tag = self.size(structure);
                        let (big, small) = self.split(vars, tag);
                        let (fun_vars, arg_vars) = if left_bigger {
                            (big, small)
                        } else {
                            (small, big)
                        };
                        steps.push(Step::App);
                        steps.push(Step::Visit {
                            structure: arg,
                            vars: arg_vars,
                            depth,
                        });
                        steps.push(Step::Visit {
                            structure: fun,
                            vars: fun_vars,
                            depth,
                        });
                        continue;
                    }
                    StructNode::Let {
                        rhs_bigger,
                        pos,
                        rhs,
                        body,
                    } => {
                        let tag = self.size(structure);
                        let (big, small) = self.split(vars, tag);
                        let (rhs_vars, mut body_vars) = if rhs_bigger {
                            (big, small)
                        } else {
                            (small, big)
                        };
                        self.bind(pos, depth, &mut body_vars);
                        steps.push(Step::Let);
                        steps.push(Step::Visit {
                            structure: body,
                            vars: body_vars,
                            depth: depth + 1,
                        });
                        steps.push(Step::Visit {
                            structure: rhs,
                            vars: rhs_vars,
                            depth,
                        });
                        continue;
                    }
                },
                Step::Lam => {
                    let body = results.pop().expect("lam body");
                    dst.push(DbNode::Lam(body))
                }
                Step::App => {
                    let arg = results.pop().expect("app arg");
                    let fun = results.pop().expect("app fun");
                    dst.push(DbNode::App(fun, arg))
                }
                Step::Let => {
                    let body = results.pop().expect("let body");
                    let rhs = results.pop().expect("let rhs");
                    dst.push(DbNode::Let(rhs, body))
                }
            };
            results.push(id);
        }
        let root = results.pop().expect("the inverse produced a root");
        debug_assert!(results.is_empty());
        (dst, root)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alpha_hash::combine::HashScheme;
    use lambda_lang::debruijn::{db_eq, db_print, to_debruijn};
    use lambda_lang::parse::parse;
    use lambda_lang::uniquify::uniquify_into;
    use lambda_lang::visit::postorder;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::collections::HashMap;

    /// A raw term over three names, so binders repeat and shadow each
    /// other, and `Let` rhs mention their own binder's name.
    fn raw_term(arena: &mut ExprArena, rng: &mut StdRng, depth: u32) -> NodeId {
        let name = ["a", "b", "c"][rng.random_range(0..3)];
        match rng.random_range(0..if depth == 0 { 2 } else { 6u32 }) {
            0 => arena.var_named(name),
            1 => arena.int(rng.random_range(0..2)),
            2 | 3 => {
                let body = raw_term(arena, rng, depth - 1);
                arena.lam_named(name, body)
            }
            4 => {
                let f = raw_term(arena, rng, depth - 1);
                let a = raw_term(arena, rng, depth - 1);
                arena.app(f, a)
            }
            _ => {
                let rhs = raw_term(arena, rng, depth - 1);
                let body = raw_term(arena, rng, depth - 1);
                arena.let_named(name, rhs, body)
            }
        }
    }

    /// Seeded terms of every shape the oracle covers.
    fn corpus(arena: &mut ExprArena, seeds: u64) -> Vec<(String, NodeId)> {
        let mut terms = Vec::new();
        for seed in 0..seeds {
            let mut rng = StdRng::seed_from_u64(0xE5 ^ seed);
            let size = 40 + 30 * (seed as usize % 8);
            let k = 4 + 3 * (seed as usize % 8);
            let shapes = [
                ("balanced", expr_gen::balanced(arena, size, &mut rng)),
                ("unbalanced", expr_gen::unbalanced(arena, size, &mut rng)),
                ("arithmetic", expr_gen::arithmetic(arena, size, &mut rng)),
                (
                    "wide_open_spine",
                    expr_gen::wide_open_spine(arena, size, 2 + seed as usize % 5, &mut rng),
                ),
                ("anf_chain", expr_gen::anf_chain(arena, k, &mut rng)),
                ("binder_fan", expr_gen::binder_fan(arena, k, &mut rng)),
                ("raw shadowed", raw_term(arena, &mut rng, 6)),
            ];
            for (shape, root) in shapes {
                terms.push((format!("{shape} seed {seed}"), root));
            }
        }
        terms
    }

    #[test]
    fn keys_match_to_debruijn_at_every_subterm_occurrence() {
        // More seeds where the code is optimised: the release run of the
        // canon-table oracle step.
        let seeds = if cfg!(debug_assertions) { 6 } else { 40 };
        let mut arena = ExprArena::new();
        let terms = corpus(&mut arena, seeds);
        let table = CanonTable::new();
        let scheme: HashScheme<u64> = HashScheme::new(0x0E5);
        let mut summariser = HashedSummariser::new(&arena, &scheme);
        let mut scratch: Scratch<u64> = Scratch::default();
        let mut inverse = Inverse::new(&table);
        // One table for all terms: keys are compared across terms too.
        let mut key_of_form: HashMap<String, CanonRef> = HashMap::new();
        let mut form_of_key: HashMap<CanonRef, String> = HashMap::new();
        for (what, root) in &terms {
            let done = scratch.intern_term(&mut summariser, &arena, *root, 1, &table);
            let nodes = postorder(&arena, *root);
            assert_eq!(scratch.indexed.len(), nodes.len(), "{what}");
            assert_eq!(done.key, scratch.indexed.last().unwrap().0, "{what}");
            for (&n, &(key, _, size)) in nodes.iter().zip(&scratch.indexed) {
                assert_eq!(size as usize, arena.subtree_size(n), "{what}");
                let (db, db_root) = to_debruijn(&arena, n);
                let form = db_print(&db, db_root);
                // Equal forms ⇒ equal keys, and equal keys ⇒ equal forms.
                assert_eq!(
                    *key_of_form.entry(form.clone()).or_insert(key),
                    key,
                    "{what}: {form}"
                );
                let known = form_of_key.entry(key).or_insert_with(|| form.clone());
                assert_eq!(*known, form, "{what}: one key, two forms");
                // The boundary conversion round-trips.
                let (back, back_root) = inverse.debruijn(key);
                assert!(
                    db_eq(&back, back_root, &db, db_root),
                    "{what}: inverse {} != {form}",
                    db_print(&back, back_root)
                );
            }
        }
        let stats = table.intern_stats();
        assert_eq!(stats.misses, table.resident_nodes());
    }

    #[test]
    fn probes_find_every_ingested_key_and_write_nothing() {
        let mut arena = ExprArena::new();
        let terms = corpus(&mut arena, 4);
        let absent = parse(&mut arena, r"\x. never_seen x").unwrap();
        let table = CanonTable::new();
        let scheme: HashScheme<u64> = HashScheme::new(0x0E6);
        let mut summariser = HashedSummariser::new(&arena, &scheme);
        let mut scratch: Scratch<u64> = Scratch::default();
        let keys: Vec<CanonRef> = terms
            .iter()
            .map(|&(_, root)| {
                scratch
                    .intern_term(&mut summariser, &arena, root, 3, &table)
                    .key
            })
            .collect();
        let resident = table.resident_nodes();
        let probes = table.intern_stats();
        // A renamed copy in a fresh arena: the probe keys by its own
        // symbols, then finds the table's names.
        let mut copies = ExprArena::new();
        let renamed: Vec<NodeId> = terms
            .iter()
            .map(|&(_, root)| uniquify_into(&arena, root, &mut copies))
            .collect();
        let mut probe_summariser = HashedSummariser::new(&copies, &scheme);
        let mut probe: Scratch<u64> = Scratch::default();
        for ((what, root), (&key, &copy)) in terms.iter().zip(keys.iter().zip(&renamed)) {
            let (hash, size, found) =
                probe.probe_term(&mut probe_summariser, &copies, copy, &table);
            assert_eq!(found, Some(key), "{what}");
            assert_eq!(size as usize, arena.subtree_size(*root), "{what}");
            assert_eq!(hash, alpha_hash::hashed::hash_expr(&arena, *root, &scheme));
        }
        let (_, _, found) = probe.probe_term(&mut summariser, &arena, absent, &table);
        assert_eq!(found, None);
        assert_eq!(table.resident_nodes(), resident, "probes never write");
        let after = table.intern_stats();
        assert_eq!((after.hits, after.misses), (probes.hits, probes.misses));
    }

    /// A key whose map lacks its variable's entry, as a damaged snapshot
    /// can hold, inverts to a term with a machine-named free variable
    /// instead of panicking, and so does one whose map holds an entry
    /// no variable takes.
    #[test]
    fn a_variable_its_map_lacks_inverts_to_a_reserved_free_name() {
        let table = CanonTable::new();
        let var = table.structs.intern(StructNode::Var);
        let here = table.positions.intern(PosNode::Here);
        let lam = table.structs.intern(StructNode::Lam {
            pos: None,
            body: var,
        });
        let unmapped = table.keys.intern(KeyNode {
            structure: lam,
            map: None,
        });
        let (db, root) = Inverse::new(&table).debruijn(unmapped);
        assert_eq!(db_print(&db, root), format!("\\. {UNMAPPED}"));
        assert!(UNMAPPED.contains('%'));

        let name = table.intern_name("y");
        let stray = table.maps.intern(MapNode {
            name,
            order: table.name_order(name),
            pos: here,
            left: None,
            right: None,
        });
        let literal = table.structs.intern(StructNode::Lit(Literal::I64(1)));
        let spare = table.keys.intern(KeyNode {
            structure: literal,
            map: Some(stray),
        });
        let (db, root) = Inverse::new(&table).debruijn(spare);
        assert_eq!(db_print(&db, root), "1");
    }

    #[test]
    fn deep_terms_are_stack_safe_both_ways() {
        let mut arena = ExprArena::new();
        let mut e = arena.var_named("z");
        for i in 0..100_000 {
            let x = arena.intern(&format!("x{}", i % 7));
            let occurrence = arena.var(x);
            let body = arena.app(e, occurrence);
            e = arena.lam(x, body);
        }
        let table = CanonTable::new();
        let scheme: HashScheme<u64> = HashScheme::new(1);
        let mut summariser = HashedSummariser::new(&arena, &scheme);
        let mut scratch: Scratch<u64> = Scratch::default();
        let key = scratch
            .intern_term(&mut summariser, &arena, e, u64::MAX, &table)
            .key;
        let (db, db_root) = Inverse::new(&table).debruijn(key);
        let (expected, expected_root) = to_debruijn(&arena, e);
        assert!(db_eq(&db, db_root, &expected, expected_root));
    }
}
