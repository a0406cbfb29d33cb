//! The versioned, endian-fixed binary format shared by snapshots and the
//! write-ahead log.
//!
//! Everything on disk is built from [`crate::codec`]'s little-endian
//! primitives, which the daemon's wire shares. The
//! byte-level layout is specified in `docs/PERSISTENCE_FORMAT.md`; a unit
//! test in this module asserts that the magic numbers and version constant
//! documented there are exactly the ones compiled in, so the spec cannot
//! silently drift from the code.
//!
//! **Format v4** (this version) logs a `Subexpressions` store's insert
//! as the term itself: its root hash plus the wire's named-term encoding
//! ([`crate::codec::put_term`]), which replay re-prepares, so a record
//! no longer carries a standalone de Bruijn form per indexed subterm. A
//! `Roots` insert record is the term's frontier de Bruijn run with its
//! root's hash, position and node count, and no entry list. **Format
//! v3** added rewrite **delta records** — `AlphaStore::update` logs the
//! rewritten term as its old root plus the spine path and the patch
//! canon — and widened the snapshot's per-term bookkeeping to full
//! `ClassId` bits with per-class occurrence multiplicities. **Format v2**
//! stored canonical structure as shared DAGs: a snapshot carries one
//! node table (the class-reachable sub-DAG, deduplicated) with classes
//! addressing positions in it, mirroring the in-memory hash-consed canon
//! table (`crate::dag`); v4 keeps that snapshot layout. Only v4 is
//! written and only v4 decodes: a header naming any other version is
//! refused with [`PersistError::Mismatch`].
//!
//! Here live the [`Granularity`] and `StoreIdentity` codecs both file
//! headers open with, and the structure codecs: shared-DAG node runs
//! (`put_dag`/`take_dag`, a [`DbArena`] in memory, which holds DAGs as
//! well as trees), `Roots` insert records (`RawRecord`), `Subexpressions`
//! insert records (`put_term_record`/`take_term_record`) and `RawDelta`
//! rewrites.
//!
//! Decoding never panics on malformed input: every `take_*` returns
//! [`PersistError::Corrupt`] on truncation or bad tags, which is what lets
//! recovery treat a torn WAL tail as an expected condition rather than a
//! crash. In particular child references must point at already-decoded
//! positions, so no decoded structure can contain a cycle, and every
//! count goes through [`take_count`], so none sizes a buffer beyond what
//! the input holds.

use crate::codec::{
    put_count, put_hash, put_str, put_term, put_u32, put_u64, put_u8, take_count, take_hash,
    take_str, take_term, take_u32, take_u64, take_u8,
};
use crate::granularity::Granularity;
use crate::persist::PersistError;
use alpha_hash::combine::HashWord;
use lambda_lang::debruijn::{DbArena, DbId, DbNode};
use lambda_lang::literal::Literal;
use lambda_lang::symbol::Symbol;
use lambda_lang::{ExprArena, NodeId};

/// Magic bytes opening a snapshot file (`docs/PERSISTENCE_FORMAT.md`).
///
/// ```
/// assert_eq!(alpha_store::persist::format::SNAPSHOT_MAGIC, *b"AHSNAP01");
/// ```
pub const SNAPSHOT_MAGIC: [u8; 8] = *b"AHSNAP01";

/// Magic bytes opening a write-ahead-log file.
///
/// ```
/// assert_eq!(alpha_store::persist::format::WAL_MAGIC, *b"AHWAL001");
/// ```
pub const WAL_MAGIC: [u8; 8] = *b"AHWAL001";

/// Format version written into every header. Bumped on **any** layout
/// change — including changes to the hash combiners in
/// [`alpha_hash::combine`], since persisted content addresses must keep
/// meaning what they meant. Writers emit only this version, and readers
/// decode only this version.
pub const FORMAT_VERSION: u16 = 4;

fn corrupt(context: &str) -> PersistError {
    PersistError::Corrupt {
        context: context.to_owned(),
    }
}

// ---------------------------------------------------------------------
// Granularity
// ---------------------------------------------------------------------

const GRANULARITY_ROOTS: u8 = 0;
const GRANULARITY_SUBEXPRESSIONS: u8 = 1;

fn put_granularity(out: &mut Vec<u8>, g: Granularity) {
    match g {
        Granularity::Roots => {
            put_u8(out, GRANULARITY_ROOTS);
            put_u64(out, 0);
        }
        Granularity::Subexpressions { min_nodes } => {
            put_u8(out, GRANULARITY_SUBEXPRESSIONS);
            put_u64(out, min_nodes as u64);
        }
    }
}

fn take_granularity(input: &mut &[u8]) -> Result<Granularity, PersistError> {
    let tag = take_u8(input)?;
    let min_nodes = take_u64(input)?;
    match tag {
        GRANULARITY_ROOTS => Ok(Granularity::Roots),
        GRANULARITY_SUBEXPRESSIONS => Ok(Granularity::Subexpressions {
            min_nodes: usize::try_from(min_nodes).map_err(|_| corrupt("min_nodes"))?,
        }),
        _ => Err(corrupt("granularity tag")),
    }
}

// ---------------------------------------------------------------------
// Store identity (the head of both files)
// ---------------------------------------------------------------------

/// What a persisted hash means: the hash width, scheme seed, shard count
/// and granularity of the store that wrote it. The collision bound holds
/// for one seeded combiner family at one width, so a record is replayed
/// only by a store of the same identity. `wal.bin` and `snapshot.bin`
/// both carry it right after magic and version, and every open applies
/// the one rule [`StoreIdentity::check`] to each file.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct StoreIdentity {
    pub(crate) hash_bits: u32,
    pub(crate) scheme_seed: u64,
    pub(crate) shard_count: u32,
    pub(crate) granularity: Granularity,
}

impl StoreIdentity {
    /// Encoded length: `hash_bits`, `scheme_seed`, `shard_count`, granularity.
    pub(crate) const LEN: u64 = 4 + 8 + 4 + 9;

    pub(crate) fn put(&self, out: &mut Vec<u8>) {
        put_u32(out, self.hash_bits);
        put_u64(out, self.scheme_seed);
        put_u32(out, self.shard_count);
        put_granularity(out, self.granularity);
    }

    pub(crate) fn take(input: &mut &[u8]) -> Result<Self, PersistError> {
        Ok(StoreIdentity {
            hash_bits: take_u32(input)?,
            scheme_seed: take_u64(input)?,
            shard_count: take_u32(input)?,
            granularity: take_granularity(input)?,
        })
    }

    /// Checks the identity `file` carries against this one, the opening
    /// store's: [`PersistError::Mismatch`] naming the first field that
    /// differs.
    pub(crate) fn check(&self, found: &StoreIdentity, file: &str) -> Result<(), PersistError> {
        let (field, on_disk, store) = if found.hash_bits != self.hash_bits {
            (
                "hash width",
                found.hash_bits.to_string(),
                self.hash_bits.to_string(),
            )
        } else if found.scheme_seed != self.scheme_seed {
            let hex = |seed: u64| format!("{seed:#x}");
            ("scheme seed", hex(found.scheme_seed), hex(self.scheme_seed))
        } else if found.shard_count != self.shard_count {
            (
                "shard count",
                found.shard_count.to_string(),
                self.shard_count.to_string(),
            )
        } else if found.granularity != self.granularity {
            let name = |g: Granularity| format!("{g:?}");
            (
                "granularity",
                name(found.granularity),
                name(self.granularity),
            )
        } else {
            return Ok(());
        };
        Err(PersistError::Mismatch {
            context: format!("{file} has {field} {on_disk}, the store opening it has {store}"),
        })
    }
}

// ---------------------------------------------------------------------
// Shared-DAG node runs (canonical structure)
// ---------------------------------------------------------------------

const NODE_BVAR: u8 = 0;
const NODE_FVAR: u8 = 1;
const NODE_LAM: u8 = 2;
const NODE_APP: u8 = 3;
const NODE_LET: u8 = 4;
const NODE_LIT: u8 = 5;

const LIT_I64: u8 = 1;
const LIT_F64: u8 = 2;
const LIT_BOOL: u8 = 3;

// Item sizes for the count rule: a name is at least its `u32` length, a
// node its tag and one `u32`.
const MIN_NAME_BYTES: usize = 4;
const MIN_NODE_BYTES: usize = 5;

/// Encodes a shared-DAG node run: the free-variable name table (in symbol
/// order, so re-interning on decode reproduces identical symbol indices),
/// then the nodes in arena order. Arena order is construction order, so
/// every child position precedes its parent — a topological emission that
/// decoders enforce, which is also what makes decoded structures provably
/// acyclic. The arena may be a tree (one use per node) or a DAG (shared
/// children); the encoding is the same.
pub(crate) fn put_dag(out: &mut Vec<u8>, dag: &DbArena) {
    put_count(out, dag.names_len());
    for name in dag.names() {
        put_str(out, name);
    }
    put_count(out, dag.len());
    for node in dag.nodes() {
        match node {
            DbNode::BVar(index) => {
                put_u8(out, NODE_BVAR);
                put_u32(out, index);
            }
            DbNode::FVar(sym) => {
                put_u8(out, NODE_FVAR);
                put_u32(out, sym.index());
            }
            DbNode::Lam(body) => {
                put_u8(out, NODE_LAM);
                put_u32(out, body.index() as u32);
            }
            DbNode::App(fun, arg) => {
                put_u8(out, NODE_APP);
                put_u32(out, fun.index() as u32);
                put_u32(out, arg.index() as u32);
            }
            DbNode::Let(rhs, body) => {
                put_u8(out, NODE_LET);
                put_u32(out, rhs.index() as u32);
                put_u32(out, body.index() as u32);
            }
            DbNode::Lit(lit) => {
                put_u8(out, NODE_LIT);
                let (kind, payload) = match lit {
                    Literal::I64(v) => (LIT_I64, v as u64),
                    Literal::F64Bits(bits) => (LIT_F64, bits),
                    Literal::Bool(b) => (LIT_BOOL, b as u64),
                };
                put_u8(out, kind);
                put_u64(out, payload);
            }
        }
    }
}

/// Decodes a shared-DAG node run. Children are resolved through the ids
/// the rebuilt arena actually issued, so a run whose child references run
/// ahead of construction order is rejected as corrupt, never misread —
/// and the result is guaranteed acyclic.
pub(crate) fn take_dag(input: &mut &[u8]) -> Result<DbArena, PersistError> {
    let mut arena = DbArena::new();
    let name_count = take_count(input, MIN_NAME_BYTES)?;
    for i in 0..name_count {
        // A repeated name would intern to an earlier symbol and leave
        // the table shorter than `name_count`; encoders never write one.
        if arena.intern(take_str(input)?).index() as usize != i {
            return Err(corrupt("repeated name in a node run's name table"));
        }
    }
    let node_count = take_count(input, MIN_NODE_BYTES)?;
    let mut ids: Vec<DbId> = Vec::with_capacity(node_count);
    let child = |ids: &[DbId], raw: u32| -> Result<DbId, PersistError> {
        ids.get(raw as usize)
            .copied()
            .ok_or_else(|| corrupt("child id ahead of construction order"))
    };
    for _ in 0..node_count {
        let node = match take_u8(input)? {
            NODE_BVAR => DbNode::BVar(take_u32(input)?),
            NODE_FVAR => {
                let index = take_u32(input)?;
                if index as usize >= name_count {
                    return Err(corrupt("free-variable symbol out of range"));
                }
                DbNode::FVar(Symbol::from_index(index))
            }
            NODE_LAM => DbNode::Lam(child(&ids, take_u32(input)?)?),
            NODE_APP => {
                let fun = child(&ids, take_u32(input)?)?;
                let arg = child(&ids, take_u32(input)?)?;
                DbNode::App(fun, arg)
            }
            NODE_LET => {
                let rhs = child(&ids, take_u32(input)?)?;
                let body = child(&ids, take_u32(input)?)?;
                DbNode::Let(rhs, body)
            }
            NODE_LIT => {
                let kind = take_u8(input)?;
                let payload = take_u64(input)?;
                DbNode::Lit(match kind {
                    LIT_I64 => Literal::I64(payload as i64),
                    LIT_F64 => Literal::F64Bits(payload),
                    LIT_BOOL => Literal::Bool(payload != 0),
                    _ => return Err(corrupt("literal kind")),
                })
            }
            _ => return Err(corrupt("node tag")),
        };
        ids.push(arena.push(node));
    }
    Ok(arena)
}

/// How many binders above each position of `dag` its term needs (0 if
/// closed). Encoders write closed canonical forms only (a variable bound
/// outside a subterm is a free name in its form), so a record root, patch
/// or class at an open position is damage, and rebuilding it would index
/// past its binders.
pub(crate) fn open_depths(dag: &DbArena) -> Vec<u32> {
    let mut open: Vec<u32> = Vec::with_capacity(dag.len());
    for node in dag.nodes() {
        let depth = match node {
            DbNode::BVar(i) => i.saturating_add(1),
            DbNode::FVar(_) | DbNode::Lit(_) => 0,
            DbNode::Lam(body) => open[body.index()].saturating_sub(1),
            DbNode::App(fun, arg) => open[fun.index()].max(open[arg.index()]),
            DbNode::Let(rhs, body) => open[rhs.index()].max(open[body.index()].saturating_sub(1)),
        };
        open.push(depth);
    }
    open
}

// ---------------------------------------------------------------------
// Insert records (the WAL payload)
// ---------------------------------------------------------------------

/// One decoded `Roots` insert record: the term's frontier canon, a
/// standalone de Bruijn run, with its root's position, hash and tree
/// node count. Recovery interns the run and applies the root as the live
/// insert did, re-confirming its merge by canonical identity.
#[derive(Debug)]
pub(crate) struct RawRecord<H> {
    /// The term's canonical structure.
    pub canon: DbArena,
    /// The alpha-invariant hash (content address).
    pub hash: H,
    /// Root of the canonical form within `canon`.
    pub pos: DbId,
    /// Tree node count of the term.
    pub node_count: u64,
}

/// Encodes one `Roots` insert record: the node run, then the root's
/// `(hash, pos, node_count)`.
pub(crate) fn put_record<H: HashWord>(out: &mut Vec<u8>, dag: &DbArena, root: (H, DbId, u64)) {
    put_dag(out, dag);
    put_hash(out, root.0);
    put_u32(out, root.1.index() as u32);
    put_u64(out, root.2);
}

/// Decodes one `Roots` insert record.
pub(crate) fn take_record<H: HashWord>(input: &mut &[u8]) -> Result<RawRecord<H>, PersistError> {
    let canon = take_dag(input)?;
    let hash = take_hash(input)?;
    let pos = take_u32(input)? as usize;
    if open_depths(&canon).get(pos) != Some(&0) {
        return Err(corrupt("record root out of range or not closed"));
    }
    Ok(RawRecord {
        canon,
        hash,
        pos: DbId::from_index(pos),
        node_count: take_u64(input)?,
    })
}

/// Encodes one `Subexpressions` insert record: the root's hash, then
/// the term as ingested in the wire's term encoding
/// ([`crate::codec::put_term`]). Its classes' keys depend on the
/// binder names above each subterm, which only the named term keeps, so
/// replay re-prepares the term to recompute them.
pub(crate) fn put_term_record<H: HashWord>(
    out: &mut Vec<u8>,
    hash: H,
    arena: &ExprArena,
    root: NodeId,
) {
    put_hash(out, hash);
    put_term(out, arena, root);
}

/// Decodes one `Subexpressions` insert record, its term into `arena`:
/// the recorded hash and the term's root.
pub(crate) fn take_term_record<H: HashWord>(
    input: &mut &[u8],
    arena: &mut ExprArena,
) -> Result<(H, NodeId), PersistError> {
    let hash = take_hash(input)?;
    Ok((hash, take_term(input, arena)?))
}

// ---------------------------------------------------------------------
// Delta records (v3: the WAL payload of `AlphaStore::update`)
// ---------------------------------------------------------------------

/// One decoded rewrite delta: everything recovery needs to repeat an
/// `update` without the full rewritten term. The old root is named by
/// the term id plus its pre-update hash (an integrity cross-check
/// against the store state being replayed into); the rewrite site is
/// the child-index spine path from the class representative's root; the
/// patch travels as its own canonical node run. Replay re-splices the
/// patch canon into the interned old canon along the path, so exactness
/// (merge confirmation by canonical identity) survives restarts just
/// like insert replay.
#[derive(Debug)]
pub(crate) struct RawDelta<H> {
    /// `TermId::to_bits` of the updated term.
    pub term_bits: u64,
    /// Hash of the term's class *before* the update (integrity check).
    pub old_hash: H,
    /// Hash of the rewritten term (what the spine re-hash produced).
    pub new_hash: H,
    /// Tree node count of the rewritten term.
    pub new_node_count: u64,
    /// Child-index path from the canonical root to the rewrite site
    /// (empty replaces the whole term).
    pub path: Vec<u32>,
    /// Canonical form of the replacement subterm.
    pub patch: DbArena,
    /// Root of the patch within its node run.
    pub patch_root: DbId,
}

/// Encodes one v3 delta record.
pub(crate) fn put_delta<H: HashWord>(out: &mut Vec<u8>, delta: &RawDelta<H>) {
    put_u64(out, delta.term_bits);
    put_hash(out, delta.old_hash);
    put_hash(out, delta.new_hash);
    put_u64(out, delta.new_node_count);
    put_count(out, delta.path.len());
    for &step in &delta.path {
        put_u32(out, step);
    }
    put_dag(out, &delta.patch);
    put_u32(out, delta.patch_root.index() as u32);
}

/// Decodes one v3 delta record.
pub(crate) fn take_delta<H: HashWord>(input: &mut &[u8]) -> Result<RawDelta<H>, PersistError> {
    let term_bits = take_u64(input)?;
    let old_hash = take_hash(input)?;
    let new_hash = take_hash(input)?;
    let new_node_count = take_u64(input)?;
    let path = (0..take_count(input, 4)?)
        .map(|_| take_u32(input))
        .collect::<Result<_, _>>()?;
    let patch = take_dag(input)?;
    let root_raw = take_u32(input)? as usize;
    if open_depths(&patch).get(root_raw) != Some(&0) {
        return Err(corrupt("patch root out of range or not closed"));
    }
    Ok(RawDelta {
        term_bits,
        old_hash,
        new_hash,
        new_node_count,
        path,
        patch,
        patch_root: DbId::from_index(root_raw),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{crc32, put_u16, take_u16};
    use lambda_lang::debruijn::{db_eq, to_debruijn};
    use lambda_lang::parse::parse;
    use lambda_lang::ExprArena;

    #[test]
    fn spec_documents_the_compiled_constants() {
        // docs/PERSISTENCE_FORMAT.md must name exactly the magic numbers
        // and versions this module compiles in — the lockstep check the
        // docs archetype calls for.
        let spec = include_str!("../../../../docs/PERSISTENCE_FORMAT.md");
        let magic = String::from_utf8(SNAPSHOT_MAGIC.to_vec()).unwrap();
        assert!(
            spec.contains(&format!("`{magic}`")),
            "spec must document the snapshot magic {magic:?}"
        );
        let wal_magic = String::from_utf8(WAL_MAGIC.to_vec()).unwrap();
        assert!(
            spec.contains(&format!("`{wal_magic}`")),
            "spec must document the WAL magic {wal_magic:?}"
        );
        assert!(
            spec.contains(&format!("**Format version:** {FORMAT_VERSION}")),
            "spec must document format version {FORMAT_VERSION}"
        );
        assert!(
            spec.contains(&format!(
                "**Compatibility:** only version {FORMAT_VERSION} decodes; any other version is `Mismatch`"
            )),
            "spec must document that only v{FORMAT_VERSION} decodes"
        );
        for section in ["### Delta records", "### `Subexpressions` insert record"] {
            assert!(spec.contains(section), "spec must document {section:?}");
        }
    }

    #[test]
    fn primitives_round_trip() {
        let mut buf = Vec::new();
        put_u8(&mut buf, 0xAB);
        put_u16(&mut buf, 0xBEEF);
        put_u32(&mut buf, 0xDEAD_BEEF);
        put_u64(&mut buf, 0x0123_4567_89AB_CDEF);
        put_str(&mut buf, "héllo");
        put_hash(&mut buf, 0x1122_3344_5566_7788_99AA_BBCC_DDEE_FF00u128);
        put_granularity(&mut buf, Granularity::Subexpressions { min_nodes: 7 });
        let identity = StoreIdentity {
            hash_bits: 128,
            scheme_seed: 0x5EED,
            shard_count: 8,
            granularity: Granularity::Subexpressions { min_nodes: 2 },
        };
        identity.put(&mut buf);

        let mut input = buf.as_slice();
        assert_eq!(take_u8(&mut input).unwrap(), 0xAB);
        assert_eq!(take_u16(&mut input).unwrap(), 0xBEEF);
        assert_eq!(take_u32(&mut input).unwrap(), 0xDEAD_BEEF);
        assert_eq!(take_u64(&mut input).unwrap(), 0x0123_4567_89AB_CDEF);
        assert_eq!(take_str(&mut input).unwrap(), "héllo");
        assert_eq!(
            take_hash::<u128>(&mut input).unwrap(),
            0x1122_3344_5566_7788_99AA_BBCC_DDEE_FF00u128
        );
        assert_eq!(
            take_granularity(&mut input).unwrap(),
            Granularity::Subexpressions { min_nodes: 7 }
        );
        let before = input.len();
        assert_eq!(StoreIdentity::take(&mut input).unwrap(), identity);
        assert_eq!((before - input.len()) as u64, StoreIdentity::LEN);
        assert!(input.is_empty());
    }

    #[test]
    fn identity_check_names_the_field_that_differs() {
        let store = StoreIdentity {
            hash_bits: 64,
            scheme_seed: 7,
            shard_count: 4,
            granularity: Granularity::Roots,
        };
        assert!(store.check(&store, "wal.bin").is_ok());
        let cases = [
            (
                StoreIdentity {
                    hash_bits: 128,
                    ..store
                },
                "hash width 128",
            ),
            (
                StoreIdentity {
                    scheme_seed: 8,
                    ..store
                },
                "scheme seed 0x8",
            ),
            (
                StoreIdentity {
                    shard_count: 16,
                    ..store
                },
                "shard count 16",
            ),
            (
                StoreIdentity {
                    granularity: Granularity::Subexpressions { min_nodes: 2 },
                    ..store
                },
                "granularity Subexpressions",
            ),
        ];
        for (found, named) in cases {
            match store.check(&found, "snapshot.bin") {
                Err(PersistError::Mismatch { context }) => {
                    assert!(context.starts_with("snapshot.bin has "), "{context}");
                    assert!(context.contains(named), "{context}");
                }
                other => panic!("expected Mismatch naming {named:?}, got {other:?}"),
            }
        }
    }

    /// A name table that repeats a name once decoded to an arena with
    /// fewer names than the table, so `FVar(1)` passed the range check
    /// and interning the run indexed past the arena's name list.
    #[test]
    fn take_dag_refuses_a_repeated_name() {
        let mut buf = Vec::new();
        put_u32(&mut buf, 2);
        put_str(&mut buf, "a");
        put_str(&mut buf, "a");
        put_u32(&mut buf, 1);
        put_u8(&mut buf, NODE_FVAR);
        put_u32(&mut buf, 1);
        assert!(matches!(
            take_dag(&mut buf.as_slice()),
            Err(PersistError::Corrupt { .. })
        ));
    }

    /// A record root whose term uses a de Bruijn index no binder of it
    /// binds: no encoder writes one, and rebuilding it named would index
    /// past its binder scope.
    #[test]
    fn an_open_entry_is_corrupt() {
        let mut dag = DbArena::new();
        let bvar = dag.push(DbNode::BVar(0));
        let lam = dag.push(DbNode::Lam(bvar));
        let mut closed = Vec::new();
        put_record::<u64>(&mut closed, &dag, (1, lam, 2));
        assert!(take_record::<u64>(&mut closed.as_slice()).is_ok());
        let mut open = Vec::new();
        put_record::<u64>(&mut open, &dag, (1, bvar, 1));
        assert!(matches!(
            take_record::<u64>(&mut open.as_slice()),
            Err(PersistError::Corrupt { .. })
        ));
    }

    #[test]
    fn truncated_input_is_corrupt_not_panic() {
        let mut buf = Vec::new();
        put_u64(&mut buf, 42);
        for cut in 0..buf.len() {
            let mut input = &buf[..cut];
            assert!(take_u64(&mut input).is_err());
        }
        // A string whose declared length overruns the buffer.
        let mut buf = Vec::new();
        put_u32(&mut buf, 1000);
        buf.extend_from_slice(b"short");
        let mut input = buf.as_slice();
        assert!(take_str(&mut input).is_err());
    }

    #[test]
    fn canon_round_trips_and_preserves_alpha_identity() {
        let sources = [
            r"\x. \y. x + y*7",
            r"foo (\x. x+7) (\y. y+7)",
            "let bar = x+1 in bar*(bar+y)",
            "42",
            "free_variable",
            r"\t. t (1.5 + true)",
        ];
        for src in sources {
            let mut arena = ExprArena::new();
            let parsed = parse(&mut arena, src).unwrap();
            let (canon, root) = to_debruijn(&arena, parsed);
            let mut buf = Vec::new();
            put_record::<u64>(&mut buf, &canon, (0x5EED, root, canon.len() as u64));
            let mut input = buf.as_slice();
            let decoded: RawRecord<u64> = take_record(&mut input).unwrap();
            assert!(input.is_empty(), "trailing bytes for {src}");
            assert_eq!(decoded.hash, 0x5EED);
            assert_eq!(decoded.node_count, canon.len() as u64);
            assert!(
                db_eq(&canon, root, &decoded.canon, decoded.pos),
                "decode changed the term for {src}"
            );
            assert_eq!(decoded.canon.len(), canon.len());
        }
    }

    #[test]
    fn corrupt_canon_is_rejected() {
        let mut arena = ExprArena::new();
        let parsed = parse(&mut arena, r"\x. x + 1").unwrap();
        let (canon, root) = to_debruijn(&arena, parsed);
        let mut buf = Vec::new();
        put_record::<u64>(&mut buf, &canon, (0x5EED, root, canon.len() as u64));
        // Flipping any single byte must yield Corrupt or a *different*
        // term — never a panic. (CRC catches the difference in practice;
        // here we only assert decode robustness.)
        for i in 0..buf.len() {
            let mut bad = buf.clone();
            bad[i] ^= 0xFF;
            let mut input = bad.as_slice();
            let _ = take_record::<u64>(&mut input); // must not panic
        }
    }

    #[test]
    fn crc32_known_vectors() {
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn crc32_slice_by_8_matches_the_bytewise_reference() {
        fn bytewise(bytes: &[u8]) -> u32 {
            let mut crc = !0u32;
            for &b in bytes {
                crc ^= b as u32;
                for _ in 0..8 {
                    crc = if crc & 1 != 0 {
                        (crc >> 1) ^ 0xEDB8_8320
                    } else {
                        crc >> 1
                    };
                }
            }
            !crc
        }
        // Every length 0..64 (all remainder shapes) over varied bytes.
        let data: Vec<u8> = (0..64u32)
            .map(|i| (i.wrapping_mul(0x9E37) >> 3) as u8)
            .collect();
        for len in 0..data.len() {
            assert_eq!(crc32(&data[..len]), bytewise(&data[..len]), "len {len}");
        }
    }

    /// A `Subexpressions` record carries the term as ingested: names,
    /// shadowing and all, so replay re-prepares exactly what was logged.
    #[test]
    fn term_record_round_trips_the_term_as_ingested() {
        let mut arena = ExprArena::new();
        let root = parse(&mut arena, r"\x. (\x. x + y) x").unwrap();
        let mut buf = Vec::new();
        put_term_record::<u128>(&mut buf, 0xAAAA_BBBB, &arena, root);
        let mut decoded_arena = ExprArena::new();
        let mut input = buf.as_slice();
        let (hash, decoded) = take_term_record::<u128>(&mut input, &mut decoded_arena).unwrap();
        assert!(input.is_empty());
        assert_eq!(hash, 0xAAAA_BBBB);
        assert_eq!(
            lambda_lang::print::print(&arena, root),
            lambda_lang::print::print(&decoded_arena, decoded)
        );
        // Truncations surface as Corrupt, never as panics.
        for cut in 0..buf.len() {
            let mut input = &buf[..cut];
            assert!(matches!(
                take_term_record::<u128>(&mut input, &mut ExprArena::new()),
                Err(PersistError::Corrupt { .. })
            ));
        }
    }

    #[test]
    fn delta_round_trips() {
        let mut arena = ExprArena::new();
        let patch_named = parse(&mut arena, r"\x. x * (v + 2)").unwrap();
        let (patch, patch_root) = to_debruijn(&arena, patch_named);
        let delta = RawDelta::<u128> {
            term_bits: 0x0007_0000_0000_002A,
            old_hash: 0xAAAA_BBBB,
            new_hash: 0xCCCC_DDDD,
            new_node_count: 41,
            path: vec![0, 1, 1, 0],
            patch,
            patch_root,
        };
        let mut buf = Vec::new();
        put_delta(&mut buf, &delta);
        let mut input = buf.as_slice();
        let decoded: RawDelta<u128> = take_delta(&mut input).unwrap();
        assert!(input.is_empty());
        assert_eq!(decoded.term_bits, delta.term_bits);
        assert_eq!(decoded.old_hash, delta.old_hash);
        assert_eq!(decoded.new_hash, delta.new_hash);
        assert_eq!(decoded.new_node_count, 41);
        assert_eq!(decoded.path, delta.path);
        assert!(db_eq(
            &decoded.patch,
            decoded.patch_root,
            &delta.patch,
            delta.patch_root
        ));
        // Truncations surface as Corrupt, never as panics.
        for cut in 0..buf.len() {
            let mut input = &buf[..cut];
            assert!(take_delta::<u128>(&mut input).is_err(), "cut {cut}");
        }
    }
}
