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
//! **Format v7** (this version) writes the snapshot's canon nodes as the
//! canon table holds them: the names, then one node run per node kind
//! the granularity keeps (`Roots`: de Bruijn nodes; `Subexpressions`:
//! the §4.8 position trees, structures, map nodes and keys), each node
//! its table words with children and names as run positions
//! (`put_table`/`take_table`). Load interns them straight into the
//! store's table. v6 wrote de Bruijn forms in both granularities, so a
//! `Subexpressions` checkpoint inverted every class key and every load
//! re-summarised every class. What each earlier version changed is in
//! the spec's version notes. Only v7 is written and only v7 decodes: a
//! header naming any other version is refused with
//! [`PersistError::Mismatch`].
//!
//! Here live the [`Granularity`] and `StoreIdentity` codecs both file
//! headers open with, the snapshot's table image (one node-run codec,
//! generic over the table's node kinds), and the WAL's records: inserts
//! (`put_term_record`/`take_term_record`) and deltas
//! (`put_delta`/`take_delta`), each decoded whole.
//!
//! Decoding never panics on malformed input: every `take_*` returns
//! [`PersistError::Corrupt`] on truncation or bad tags, which is what lets
//! recovery treat a torn WAL tail as an expected condition rather than a
//! crash. In particular child references must point at already-decoded
//! positions, so no decoded structure can contain a cycle, and every
//! count goes through [`take_count`], so none sizes a buffer beyond what
//! the input holds.

use crate::codec::{
    put_count, put_hash, put_str, put_term, put_u32, put_u64, put_u8, put_update, take_count,
    take_hash, take_str, take_term, take_u32, take_u64, take_u8, take_update, TermScratch,
};
use crate::dag::{reach, relink, CanonTable, Kind, Run, TableNode};
use crate::esummary::{KeyNode, MapNode, PosNode, StructNode};
use crate::granularity::Granularity;
use crate::persist::PersistError;
use crate::update::Rewrite;
use alpha_hash::combine::HashWord;
use lambda_lang::canon::{CanonNode, CanonRef, NameId};
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
pub const FORMAT_VERSION: u16 = 7;

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
// The table image (a snapshot's canon nodes)
// ---------------------------------------------------------------------

// Item size for the count rule: a name is at least its `u32` length.
const MIN_NAME_BYTES: usize = 4;

/// Writes the run of kind `N`: its node count, then each node's saved
/// words with its children and names as positions in their runs.
fn put_run<N: TableNode>(out: &mut Vec<u8>, table: &CanonTable, runs: &[Run; Kind::COUNT]) {
    let refs = &runs[N::KIND as usize].refs;
    put_count(out, refs.len());
    for &r in refs {
        let words = N::nodes(table).node(CanonRef::from_bits(r)).encode();
        let placed = relink::<N>(words, |kind, bits| {
            runs[kind as usize].at.get(&bits).copied()
        })
        .expect("a placed node's children and names are placed");
        for &word in &placed.as_ref()[..N::SAVED] {
            put_u64(out, word);
        }
    }
}

/// Writes the image of the canon-table nodes the class roots `roots`
/// reach: the names, then one run per node kind the granularity keeps,
/// each node's children in its own run before it and in other kinds'
/// runs before that run (`Roots`: the de Bruijn nodes; `Subexpressions`:
/// position trees, structures, map nodes, keys). Returns each root's
/// position in the last run.
pub(crate) fn put_table(
    out: &mut Vec<u8>,
    table: &CanonTable,
    granularity: Granularity,
    roots: &[CanonRef],
) -> Vec<u32> {
    let subexpressions = granularity.indexes_subexpressions();
    let root_kind = if subexpressions {
        Kind::Key
    } else {
        Kind::Canon
    };
    let mut runs: [Run; Kind::COUNT] = Default::default();
    runs[root_kind as usize].pending = roots.iter().map(|r| r.to_bits()).collect();
    if subexpressions {
        reach::<KeyNode>(table, &mut runs);
        reach::<MapNode>(table, &mut runs);
        reach::<StructNode>(table, &mut runs);
        reach::<PosNode>(table, &mut runs);
    } else {
        reach::<CanonNode>(table, &mut runs);
    }
    let names = &runs[Kind::Name as usize];
    put_count(out, names.refs.len());
    for &id in &names.refs {
        put_str(out, table.name(NameId::from_index(id)));
    }
    if subexpressions {
        put_run::<PosNode>(out, table, &runs);
        put_run::<StructNode>(out, table, &runs);
        put_run::<MapNode>(out, table, &runs);
        put_run::<KeyNode>(out, table, &runs);
    } else {
        put_run::<CanonNode>(out, table, &runs);
    }
    let at = &runs[root_kind as usize].at;
    roots.iter().map(|r| at[&r.to_bits()]).collect()
}

/// Reads the run of kind `N` into `table`, each node checked, and hands
/// `visit` each node with its children and names as the run positions
/// it was written with. Leaves the run's refs in `runs`.
fn take_run<N: TableNode>(
    input: &mut &[u8],
    table: &CanonTable,
    runs: &mut [Vec<u32>; Kind::COUNT],
    mut visit: impl FnMut(N),
) -> Result<(), PersistError> {
    let count = take_count(input, 8 * N::SAVED)?;
    let mut refs: Vec<u32> = Vec::with_capacity(count);
    for _ in 0..count {
        let mut words = N::Words::default();
        for word in &mut words.as_mut()[..N::SAVED] {
            *word = take_u64(input)?;
        }
        // Exactly a node's encoding: no unknown tag, no stray bit.
        let node = N::decode(words);
        if node.encode() != words {
            return Err(corrupt("node tag or unused bits"));
        }
        // A position resolves in the run of its kind, read so far: a
        // forward reference, or one into a run of the wrong kind, is
        // past its end.
        let linked = relink::<N>(words, |kind, pos| {
            let run = if kind == N::KIND {
                &refs
            } else {
                &runs[kind as usize]
            };
            run.get(pos as usize).copied()
        })
        .ok_or_else(|| corrupt("child or name position past its run"))?;
        visit(node);
        let node = N::decode(linked).loaded(table);
        refs.push(N::nodes(table).intern(node).to_bits());
    }
    runs[N::KIND as usize] = refs;
    Ok(())
}

/// Reads a table image written by [`put_table`] into `table`, which
/// holds no name when the read starts. Returns the refs of the last
/// run, each `None` where no class may root: a `Roots` position whose
/// de Bruijn term is open (a class's form is closed, its free variables
/// named, so an open one would index past its binders).
pub(crate) fn take_table(
    input: &mut &[u8],
    table: &CanonTable,
    granularity: Granularity,
) -> Result<Vec<Option<CanonRef>>, PersistError> {
    let mut runs: [Vec<u32>; Kind::COUNT] = Default::default();
    let name_count = take_count(input, MIN_NAME_BYTES)?;
    let mut names = Vec::with_capacity(name_count);
    for i in 0..name_count {
        // A repeated name interns to an earlier id; writers never
        // repeat one.
        let id = table.intern_name(take_str(input)?).index();
        if id as usize != i {
            return Err(corrupt("repeated name in a snapshot's name table"));
        }
        names.push(id);
    }
    runs[Kind::Name as usize] = names;
    let as_ref = |bits: u32| CanonRef::from_bits(bits);
    if granularity.indexes_subexpressions() {
        take_run::<PosNode>(input, table, &mut runs, |_| {})?;
        take_run::<StructNode>(input, table, &mut runs, |_| {})?;
        take_run::<MapNode>(input, table, &mut runs, |_| {})?;
        take_run::<KeyNode>(input, table, &mut runs, |_| {})?;
        return Ok(runs[Kind::Key as usize]
            .iter()
            .map(|&r| Some(as_ref(r)))
            .collect());
    }
    // How many binders above each position its term needs (0 if closed).
    let mut open: Vec<u32> = Vec::new();
    take_run::<CanonNode>(input, table, &mut runs, |node| {
        let at = |r: CanonRef| open[r.to_bits() as usize];
        let depth = match node {
            CanonNode::BVar(i) => i.saturating_add(1),
            CanonNode::FVar(_) | CanonNode::Lit(_) => 0,
            CanonNode::Lam(body) => at(body).saturating_sub(1),
            CanonNode::App(fun, arg) => at(fun).max(at(arg)),
            CanonNode::Let(rhs, body) => at(rhs).max(at(body).saturating_sub(1)),
        };
        open.push(depth);
    })?;
    let refs = &runs[Kind::Canon as usize];
    Ok(refs
        .iter()
        .zip(open)
        .map(|(&r, depth)| (depth == 0).then(|| as_ref(r)))
        .collect())
}

// ---------------------------------------------------------------------
// Insert records (the WAL payload)
// ---------------------------------------------------------------------

/// Encodes one insert record: the root's hash, then the term as
/// ingested in the wire's term encoding ([`crate::codec::put_term`]),
/// its buffers from `scratch`. Replay re-prepares the term, which
/// recomputes its hash and, in a `Subexpressions` store, its classes'
/// keys, which depend on the binder names above each subterm that only
/// the named term keeps.
pub(crate) fn put_term_record<H: HashWord>(
    out: &mut Vec<u8>,
    hash: H,
    arena: &ExprArena,
    root: NodeId,
    scratch: &mut TermScratch,
) {
    put_hash(out, hash);
    put_term(out, arena, root, scratch);
}

/// Decodes one whole insert record, its term into `arena`: the recorded
/// hash and the term's root. Bytes after the term are corrupt.
pub(crate) fn take_term_record<H: HashWord>(
    mut record: &[u8],
    arena: &mut ExprArena,
) -> Result<(H, NodeId), PersistError> {
    let hash = take_hash(&mut record)?;
    let root = take_term(&mut record, arena)?;
    whole(record)?;
    Ok((hash, root))
}

/// Refuses bytes a record leaves after its last field.
fn whole(rest: &[u8]) -> Result<(), PersistError> {
    if rest.is_empty() {
        Ok(())
    } else {
        Err(corrupt("trailing bytes after a WAL record"))
    }
}

// ---------------------------------------------------------------------
// Delta records (the WAL payload of `AlphaStore::update`)
// ---------------------------------------------------------------------

/// What a delta record holds besides the update body: the term's root
/// hash before the rewrite, which replay checks against the class the
/// term points at, and the rewritten term's hash and node count, which
/// the re-applied rewrite must reproduce.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct DeltaCheck<H> {
    pub(crate) old_hash: H,
    pub(crate) new_hash: H,
    pub(crate) new_node_count: u64,
}

/// One decoded delta record: its [`DeltaCheck`] and the rewrite as the
/// wire's `OP_UPDATE` requests it, the patch decoded into the caller's
/// arena.
#[derive(Debug)]
pub(crate) struct RawDelta<H> {
    pub(crate) check: DeltaCheck<H>,
    /// `TermId::to_bits` of the updated term.
    pub(crate) term_bits: u64,
    /// Child-slot path from the canonical root to the rewrite site
    /// (empty replaces the whole term).
    pub(crate) path: Vec<u32>,
    /// The patch's root, in the arena it was decoded into.
    pub(crate) patch_root: NodeId,
}

/// Encodes one delta record: the check, then the update body
/// ([`crate::codec::put_update`]) of `rewrite` to the term `term_bits`,
/// the patch encoded with `scratch`.
pub(crate) fn put_delta<H: HashWord>(
    out: &mut Vec<u8>,
    check: &DeltaCheck<H>,
    term_bits: u64,
    rewrite: &Rewrite<'_>,
    scratch: &mut TermScratch,
) {
    put_hash(out, check.old_hash);
    put_hash(out, check.new_hash);
    put_u64(out, check.new_node_count);
    put_update(
        out,
        term_bits,
        rewrite.path,
        rewrite.arena,
        rewrite.root,
        scratch,
    );
}

/// Decodes one whole delta record, its patch into `arena`. Bytes after
/// the patch are corrupt.
pub(crate) fn take_delta<H: HashWord>(
    mut record: &[u8],
    arena: &mut ExprArena,
) -> Result<RawDelta<H>, PersistError> {
    let check = DeltaCheck {
        old_hash: take_hash(&mut record)?,
        new_hash: take_hash(&mut record)?,
        new_node_count: take_u64(&mut record)?,
    };
    let (term_bits, path, patch_root) = take_update(&mut record, arena)?;
    whole(record)?;
    Ok(RawDelta {
        check,
        term_bits,
        path,
        patch_root,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{crc32, put_u16, take_u16};
    use lambda_lang::debruijn::{db_print, to_debruijn};
    use lambda_lang::literal::Literal;
    use lambda_lang::parse::parse;

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
        for section in ["## Insert records", "### Delta records"] {
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

    /// A name table that repeats a name once decoded to fewer names than
    /// the table, so a name index past the shorter list passed the range
    /// check.
    #[test]
    fn a_repeated_name_is_corrupt() {
        let mut buf = Vec::new();
        put_u32(&mut buf, 2);
        put_str(&mut buf, "a");
        put_str(&mut buf, "a");
        put_u32(&mut buf, 1);
        CanonNode::FVar(NameId::from_index(1))
            .encode()
            .iter()
            .for_each(|&word| put_u64(&mut buf, word));
        assert!(matches!(
            take_table(&mut buf.as_slice(), &CanonTable::new(), Granularity::Roots),
            Err(PersistError::Corrupt { .. })
        ));
    }

    /// A snapshot class whose canon position holds a de Bruijn index no
    /// binder of its term binds: no encoder writes one, and rebuilding it
    /// named would index past its binder scope.
    #[test]
    fn an_open_entry_is_corrupt() {
        use crate::persist::snapshot::{decode_snapshot, encode_snapshot, SnapshotHeader};
        use crate::store::{Shard, StoredClass};
        let table = CanonTable::new();
        let bvar = table.intern_node(CanonNode::BVar(0));
        let lam = table.intern_node(CanonNode::Lam(bvar));
        let image = |canon| {
            let class = StoredClass {
                hash: 7u64,
                canon,
                node_count: 2,
                members: 1,
                occurrences: 1,
            };
            let own = crate::store::ClassId { shard: 0, index: 0 }.to_bits();
            let shard = Shard::from_parts(vec![class], vec![own], vec![Box::default()]);
            let header = SnapshotHeader {
                identity: StoreIdentity {
                    hash_bits: 64,
                    scheme_seed: 7,
                    shard_count: 1,
                    granularity: Granularity::Roots,
                },
                wal_epoch: 1,
                stats: Default::default(),
            };
            encode_snapshot(&header, &[&shard], &table)
        };
        assert!(decode_snapshot::<u64>(&image(lam), &CanonTable::new()).is_ok());
        assert!(matches!(
            decode_snapshot::<u64>(&image(bvar), &CanonTable::new()),
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

    /// `sources` interned into a fresh table of `granularity`: de Bruijn
    /// forms in a `Roots` table, e-summary keys in a `Subexpressions`
    /// one. Returns the table and each source's ref.
    fn table_of(sources: &[&str], granularity: Granularity) -> (CanonTable, Vec<CanonRef>) {
        use alpha_hash::combine::HashScheme;
        use alpha_hash::hashed::HashedSummariser;
        let mut arena = ExprArena::new();
        let roots: Vec<NodeId> = sources
            .iter()
            .map(|s| parse(&mut arena, s).unwrap())
            .collect();
        let table = CanonTable::new();
        let scheme: HashScheme<u64> = HashScheme::new(7);
        let mut summariser = HashedSummariser::new(&arena, &scheme);
        let mut scratch = crate::esummary::Scratch::<u64>::default();
        let refs = roots
            .iter()
            .map(|&root| match granularity {
                Granularity::Roots => {
                    let (canon, canon_root) = to_debruijn(&arena, root);
                    table.intern_arena(&canon, canon_root)
                }
                Granularity::Subexpressions { .. } => {
                    scratch
                        .intern_term(&mut summariser, &arena, root, 1, &table)
                        .key
                }
            })
            .collect();
        (table, refs)
    }

    /// The de Bruijn form behind a ref of a `granularity` table.
    fn form_of(table: &CanonTable, r: CanonRef, granularity: Granularity) -> String {
        let (db, root) = match granularity {
            Granularity::Roots => crate::dag::extract_one(table, r),
            Granularity::Subexpressions { .. } => crate::esummary::Inverse::new(table).debruijn(r),
        };
        db_print(&db, root)
    }

    const SOURCES: [&str; 6] = [
        r"\x. \y. x + y*7",
        r"foo (\x. x+7) (\y. y+7)",
        "let bar = x+1 in bar*(bar+y)",
        "42",
        "free_variable",
        r"\t. t (1.5 + true)",
    ];

    const GRANULARITIES: [Granularity; 2] = [
        Granularity::Roots,
        Granularity::Subexpressions { min_nodes: 1 },
    ];

    #[test]
    fn canon_round_trips_and_preserves_alpha_identity() {
        for granularity in GRANULARITIES {
            let (table, refs) = table_of(&SOURCES, granularity);
            let mut buf = Vec::new();
            let positions = put_table(&mut buf, &table, granularity, &refs);
            let loaded = CanonTable::new();
            let mut input = buf.as_slice();
            let roots = take_table(&mut input, &loaded, granularity).unwrap();
            assert!(input.is_empty(), "trailing bytes at {granularity:?}");
            // Every node the sources reach, written once: the loaded
            // table holds no more than the one they were interned in.
            assert!(loaded.resident_nodes() <= table.resident_nodes());
            for ((src, &r), &pos) in SOURCES.iter().zip(&refs).zip(&positions) {
                let back = roots[pos as usize].expect("a closed root");
                assert_eq!(
                    form_of(&loaded, back, granularity),
                    form_of(&table, r, granularity),
                    "{src} at {granularity:?}"
                );
            }
        }
    }

    #[test]
    fn corrupt_canon_is_rejected() {
        for granularity in GRANULARITIES {
            let (table, refs) = table_of(&SOURCES[..3], granularity);
            let mut buf = Vec::new();
            put_table(&mut buf, &table, granularity, &refs);
            // Flipping any single byte must yield Corrupt or a *different*
            // image — never a panic. (CRC catches the difference in
            // practice; here we only assert decode robustness.)
            for i in 0..buf.len() {
                let mut bad = buf.clone();
                bad[i] ^= 0xFF;
                let _ = take_table(&mut bad.as_slice(), &CanonTable::new(), granularity);
            }
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
        put_term_record::<u128>(
            &mut buf,
            0xAAAA_BBBB,
            &arena,
            root,
            &mut TermScratch::default(),
        );
        let mut decoded_arena = ExprArena::new();
        let (hash, decoded) = take_term_record::<u128>(&buf, &mut decoded_arena).unwrap();
        assert_eq!(hash, 0xAAAA_BBBB);
        assert_eq!(
            lambda_lang::print::print(&arena, root),
            lambda_lang::print::print(&decoded_arena, decoded)
        );
        // Truncations and trailing bytes surface as Corrupt, never as
        // panics.
        for cut in 0..buf.len() {
            assert!(matches!(
                take_term_record::<u128>(&buf[..cut], &mut ExprArena::new()),
                Err(PersistError::Corrupt { .. })
            ));
        }
        buf.push(0);
        assert!(matches!(
            take_term_record::<u128>(&buf, &mut ExprArena::new()),
            Err(PersistError::Corrupt { .. })
        ));
    }

    /// A random raw term of depth at most `depth`: binders drawn from
    /// three names, so they shadow one another and a name occurs both free
    /// and bound, free names repeat, and literals of all three kinds.
    fn raw_term(arena: &mut ExprArena, rng: &mut rand::rngs::StdRng, depth: u32) -> NodeId {
        use rand::Rng;
        let name = ["a", "b", "c"][rng.random_range(0..3)];
        let pick = if depth == 0 {
            rng.random_range(0..4u32)
        } else {
            rng.random_range(0..7u32)
        };
        match pick {
            0 => arena.var_named(name),
            1 => arena.lit(Literal::I64(rng.random_range(-2..2))),
            2 => arena.lit(Literal::F64Bits(rng.random_range(0..3u64) << 62)),
            3 => arena.lit(Literal::Bool(rng.random())),
            4 => {
                let x = arena.intern(name);
                let body = raw_term(arena, rng, depth - 1);
                arena.lam(x, body)
            }
            5 => {
                let f = raw_term(arena, rng, depth - 1);
                let a = raw_term(arena, rng, depth - 1);
                arena.app(f, a)
            }
            _ => {
                let x = arena.intern(name);
                let rhs = raw_term(arena, rng, depth - 1);
                let body = raw_term(arena, rng, depth - 1);
                arena.let_(x, rhs, body)
            }
        }
    }

    /// One scratch serves every record: a term record framed with a
    /// scratch that earlier terms left behind is byte for byte the record
    /// a fresh scratch frames, and decodes to the term as ingested.
    #[test]
    fn a_reused_scratch_frames_the_record_a_fresh_one_does() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x4EC04D);
        let mut arena = ExprArena::new();
        let mut scratch = TermScratch::default();
        let (mut reused, mut fresh) = (Vec::new(), Vec::new());
        for i in 0..2000u64 {
            let root = raw_term(&mut arena, &mut rng, 1 + (i % 7) as u32);
            let hash = (u128::from(i) << 64) | 0x5EED;
            reused.clear();
            fresh.clear();
            put_term_record(&mut reused, hash, &arena, root, &mut scratch);
            put_term_record(&mut fresh, hash, &arena, root, &mut TermScratch::default());
            let printed = lambda_lang::print::print(&arena, root);
            assert_eq!(reused, fresh, "{printed}");
            let mut decoded = ExprArena::new();
            let (back, back_root) = take_term_record::<u128>(&reused, &mut decoded).unwrap();
            assert_eq!(back, hash);
            assert_eq!(lambda_lang::print::print(&decoded, back_root), printed);
        }
    }

    #[test]
    fn delta_round_trips() {
        let mut arena = ExprArena::new();
        let patch = parse(&mut arena, r"\x. x * (v + 2)").unwrap();
        let check = DeltaCheck::<u128> {
            old_hash: 0xAAAA_BBBB,
            new_hash: 0xCCCC_DDDD,
            new_node_count: 41,
        };
        let rewrite = Rewrite {
            path: &[0, 1, 1, 0],
            arena: &arena,
            root: patch,
        };
        let term_bits = 0x0007_0000_0000_002A;
        let mut buf = Vec::new();
        put_delta(
            &mut buf,
            &check,
            term_bits,
            &rewrite,
            &mut TermScratch::default(),
        );
        let mut decoded_arena = ExprArena::new();
        let decoded: RawDelta<u128> = take_delta(&buf, &mut decoded_arena).unwrap();
        assert_eq!(decoded.check, check);
        assert_eq!(decoded.term_bits, term_bits);
        assert_eq!(decoded.path, rewrite.path);
        // The patch keeps its names: it is the term as requested.
        assert_eq!(
            lambda_lang::print::print(&decoded_arena, decoded.patch_root),
            lambda_lang::print::print(&arena, patch)
        );
        // The body after the check is the wire's update body, byte for
        // byte.
        let mut body = Vec::new();
        crate::codec::put_update(
            &mut body,
            term_bits,
            rewrite.path,
            &arena,
            patch,
            &mut TermScratch::default(),
        );
        assert_eq!(buf[16 + 16 + 8..], body[..]);
        // Truncations and trailing bytes surface as Corrupt, never as
        // panics.
        for cut in 0..buf.len() {
            assert!(
                take_delta::<u128>(&buf[..cut], &mut ExprArena::new()).is_err(),
                "cut {cut}"
            );
        }
        buf.push(0);
        assert!(take_delta::<u128>(&buf, &mut ExprArena::new()).is_err());
    }
}
