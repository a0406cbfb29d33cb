//! Point-in-time snapshots: the complete store state in one file.
//!
//! A snapshot is a full, self-describing serialization of an
//! [`AlphaStore`](crate::AlphaStore): header (format version, hash width,
//! scheme seed, shard count, granularity, WAL linkage, statistics), then
//! the **table image** — the nodes of the in-memory
//! [`CanonTable`](crate::dag) that the classes reach, each once, as the
//! table holds them: names, then one node run per node kind (de Bruijn
//! nodes in a `Roots` store, §4.8 e-summary nodes in a `Subexpressions`
//! store) — then each shard's classes (content address, member/occurrence
//! counts, tree node count, and the *position* of the class's canon in
//! the image's last run), its term log and its per-term subexpression
//! class lists, then a trailing CRC-32 over the whole body. The canon
//! **is** the class identity (the paper's one-canonical-form-per-class
//! property), so nothing else is needed to rebuild the store: decoding
//! interns the runs into the fresh canon table the store then owns
//! (reproducing the sharing exactly), converting nothing, and rebuilds
//! hash buckets from the class hashes. Only the current format version
//! decodes; a snapshot of any other version is refused with
//! [`PersistError::Mismatch`].
//!
//! Snapshots are written **atomically**: the bytes go to a temporary file
//! in the same directory, are `fsync`ed, and only then renamed over the
//! live `snapshot.bin` (followed by a directory sync). A crash at any
//! point leaves either the old snapshot or the new one, never a hybrid.
//!
//! The `wal_epoch` header field ties the snapshot to the write-ahead log.
//! Only a checkpoint writes a snapshot, and it pairs the snapshot with an
//! empty WAL of the same epoch, so recovery replays every record of a
//! WAL of the snapshot's epoch and discards one of an older epoch. See
//! the [module docs](super) and `docs/PERSISTENCE_FORMAT.md`.

use super::format::{self, StoreIdentity, FORMAT_VERSION, SNAPSHOT_MAGIC};
use super::vfs::Vfs;
use super::{PersistError, SnapshotOp};
use crate::codec::{
    crc32, put_count, put_hash, put_store_stats, put_u16, put_u32, put_u64, take_count, take_hash,
    take_store_stats, take_u16, take_u32, take_u64,
};
use crate::dag::CanonTable;
use crate::stats::StoreStats;
use crate::store::{ClassId, Shard, StoredClass};
use alpha_hash::combine::HashWord;
use lambda_lang::canon::CanonRef;
use std::path::Path;

/// Everything the snapshot header records: the same [`StoreIdentity`]
/// the WAL header opens with, the WAL linkage, and the statistics.
#[derive(Clone, Copy, Debug)]
pub(crate) struct SnapshotHeader {
    pub(crate) identity: StoreIdentity,
    /// Epoch of the WAL this snapshot pairs with.
    pub(crate) wal_epoch: u64,
    pub(crate) stats: StoreStats,
}

// Item sizes for the count rule: a class is hash, members, occurrences,
// node count and canon position; a term at least its class bits and an
// empty sub list's length; a sub pair is class bits and multiplicity.
const CLASS_BYTES: usize = 16 + 8 + 8 + 8 + 4;
const MIN_TERM_BYTES: usize = 8 + 4;
const SUB_PAIR_BYTES: usize = 8 + 4;

/// Serializes a consistent view of the shards (the caller holds the locks)
/// into the full snapshot byte image, trailing CRC included: the classes'
/// canon nodes are read from `table`, each reachable node written once.
pub(crate) fn encode_snapshot<H: HashWord>(
    header: &SnapshotHeader,
    shards: &[&Shard<H>],
    table: &CanonTable,
) -> Vec<u8> {
    let mut out = Vec::with_capacity(4096);
    out.extend_from_slice(&SNAPSHOT_MAGIC);
    put_u16(&mut out, FORMAT_VERSION);
    header.identity.put(&mut out);
    put_u64(&mut out, header.wal_epoch);
    put_store_stats(&mut out, &header.stats);

    // The table image, once; classes address its last run.
    debug_assert_eq!(shards.len(), header.identity.shard_count as usize);
    let roots: Vec<CanonRef> = shards
        .iter()
        .flat_map(|s| s.classes.iter().map(|c| c.canon))
        .collect();
    let positions = format::put_table(&mut out, table, header.identity.granularity, &roots);
    let mut positions = positions.into_iter();
    for shard in shards {
        put_count(&mut out, shard.classes.len());
        for class in &shard.classes {
            put_hash(&mut out, class.hash);
            put_u64(&mut out, class.members);
            put_u64(&mut out, class.occurrences);
            put_u64(&mut out, class.node_count);
            put_u32(&mut out, positions.next().expect("one position per class"));
        }
        put_count(&mut out, shard.terms.len());
        // Full ClassId bits — an updated term's class may live in a
        // different shard than the term id.
        for &class_bits in &shard.terms {
            put_u64(&mut out, class_bits);
        }
        for subs in &shard.term_subs {
            put_count(&mut out, subs.len());
            for &(bits, multiplicity) in subs.iter() {
                put_u64(&mut out, bits);
                put_u32(&mut out, multiplicity);
            }
        }
    }

    let crc = crc32(&out[SNAPSHOT_MAGIC.len()..]);
    put_u32(&mut out, crc);
    out
}

/// Decodes a snapshot image back into its header and rebuilt shards.
/// Canon nodes are interned into `table`, which holds nothing yet (so
/// the returned shards' [`CanonRef`]s address it). Verifies the trailing
/// CRC before reading anything else, then refuses any format version but
/// the current one.
/// The header's identity is returned unchecked: the open path checks it
/// by the same rule as the WAL's.
pub(crate) fn decode_snapshot<H: HashWord>(
    bytes: &[u8],
    table: &CanonTable,
) -> Result<(SnapshotHeader, Vec<Shard<H>>), PersistError> {
    let corrupt = |context: &str| PersistError::Corrupt {
        context: format!("snapshot: {context}"),
    };
    if bytes.len() < SNAPSHOT_MAGIC.len() + 4 {
        return Err(corrupt("file shorter than magic + CRC"));
    }
    if bytes[..SNAPSHOT_MAGIC.len()] != SNAPSHOT_MAGIC {
        return Err(corrupt("magic mismatch"));
    }
    let (body, mut crc_bytes) = bytes.split_at(bytes.len() - 4);
    if crc32(&body[SNAPSHOT_MAGIC.len()..]) != take_u32(&mut crc_bytes)? {
        return Err(corrupt("body CRC mismatch"));
    }

    let mut input = &body[SNAPSHOT_MAGIC.len()..];
    let version = take_u16(&mut input)?;
    if version != FORMAT_VERSION {
        return Err(PersistError::Mismatch {
            context: format!("snapshot format version {version}, expected {FORMAT_VERSION}"),
        });
    }
    let header = SnapshotHeader {
        identity: StoreIdentity::take(&mut input)?,
        wal_epoch: take_u64(&mut input)?,
        stats: take_store_stats(&mut input)?,
    };

    // The table image up front, interned node by node; classes address
    // its last run.
    let class_roots = format::take_table(&mut input, table, header.identity.granularity)?;

    // The shard count is the header's, not a count of what follows:
    // `shards` grows by the shards actually decoded.
    let mut shards = Vec::new();
    for _ in 0..header.identity.shard_count {
        let class_count = take_count(&mut input, CLASS_BYTES)?;
        let mut classes = Vec::with_capacity(class_count);
        for _ in 0..class_count {
            let hash = take_hash::<H>(&mut input)?;
            let members = take_u64(&mut input)?;
            let occurrences = take_u64(&mut input)?;
            let node_count = take_u64(&mut input)?;
            let pos = take_u32(&mut input)? as usize;
            let Some(&Some(canon)) = class_roots.get(pos) else {
                return Err(corrupt("class canon position out of range or not closed"));
            };
            classes.push(StoredClass {
                hash,
                canon,
                node_count,
                members,
                occurrences,
            });
        }
        let term_count = take_count(&mut input, MIN_TERM_BYTES)?;
        let mut terms = Vec::with_capacity(term_count);
        for _ in 0..term_count {
            // Full ClassId bits; validated against every shard's class
            // count once all shards are decoded.
            terms.push(take_u64(&mut input)?);
        }
        let mut term_subs = Vec::with_capacity(term_count);
        for _ in 0..term_count {
            let len = take_count(&mut input, SUB_PAIR_BYTES)?;
            let mut pairs = Vec::with_capacity(len);
            for _ in 0..len {
                let bits = take_u64(&mut input)?;
                let multiplicity = take_u32(&mut input)?;
                if multiplicity == 0 {
                    return Err(corrupt("zero subexpression multiplicity"));
                }
                pairs.push((bits, multiplicity));
            }
            term_subs.push(pairs.into_boxed_slice());
        }
        shards.push(Shard::from_parts(classes, terms, term_subs));
    }
    if !input.is_empty() {
        return Err(corrupt("trailing bytes after the last shard"));
    }
    // Cross-shard class pointers (a term's class, the classes of its
    // subexpressions) can only be range-checked once every shard's class
    // list is known.
    let in_range = |bits: u64| {
        let cid = ClassId::from_bits(bits);
        let shard = shards.get(cid.shard as usize);
        shard.is_some_and(|s| (cid.index as usize) < s.classes.len())
    };
    let mut pointers = shards.iter().flat_map(|s| {
        let subs = s.term_subs.iter().flatten().map(|&(bits, _)| bits);
        s.terms.iter().copied().chain(subs)
    });
    if !pointers.all(in_range) {
        return Err(corrupt("class pointer out of range"));
    }
    Ok((header, shards))
}

/// Writes `bytes` to `path` atomically: temp file in the same directory,
/// `fsync`, rename over the destination, directory sync. A crash leaves
/// either the old file or the new one. Every step failure surfaces as a
/// typed [`PersistError::Snapshot`] naming the failed [`SnapshotOp`] —
/// including the trailing directory sync, without which the *rename
/// itself* is not durable and the atomic protocol has not completed. On
/// any failure before the rename lands, the temp file is removed
/// (best-effort) so a degraded disk does not accumulate orphans and the
/// previous snapshot remains the authoritative one.
pub(crate) fn write_atomically(
    vfs: &dyn Vfs,
    path: &Path,
    bytes: &[u8],
) -> Result<(), PersistError> {
    let dir = path.parent().ok_or_else(|| PersistError::Corrupt {
        context: "snapshot path has no parent directory".to_owned(),
    })?;
    let tmp = path.with_extension("tmp");
    let snap_err =
        |op: SnapshotOp| move |source: std::io::Error| PersistError::Snapshot { op, source };
    let staged = (|| {
        let mut file = vfs.create(&tmp).map_err(snap_err(SnapshotOp::Create))?;
        file.append(bytes).map_err(snap_err(SnapshotOp::Write))?;
        file.sync().map_err(snap_err(SnapshotOp::Sync))?;
        Ok(())
    })();
    if let Err(e) = staged {
        // Best-effort cleanup: on a crashed/full disk the remove may fail
        // too; recovery ignores `.tmp` files either way.
        let _ = vfs.remove_file(&tmp);
        return Err(e);
    }
    if let Err(source) = vfs.rename(&tmp, path) {
        let _ = vfs.remove_file(&tmp);
        return Err(PersistError::Snapshot {
            op: SnapshotOp::Rename,
            source,
        });
    }
    // Persist the rename itself. A failure here means the new snapshot
    // may vanish on power loss — the protocol must report it, not
    // swallow it (platforms without directory fsync degrade to success
    // inside the Vfs impl).
    vfs.sync_dir(dir).map_err(snap_err(SnapshotOp::DirSync))
}

/// Reads and decodes a snapshot file into shards addressing `table`,
/// which holds nothing yet.
pub(crate) fn read_snapshot<H: HashWord>(
    vfs: &dyn Vfs,
    path: &Path,
    table: &CanonTable,
) -> Result<(SnapshotHeader, Vec<Shard<H>>), PersistError> {
    let bytes = vfs.read(path)?;
    decode_snapshot(&bytes, table)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::esummary::{KeyNode, StructNode};
    use crate::granularity::Granularity;
    use lambda_lang::Literal;

    fn header(granularity: Granularity) -> SnapshotHeader {
        SnapshotHeader {
            identity: StoreIdentity {
                hash_bits: <u64 as HashWord>::BITS,
                scheme_seed: 7,
                shard_count: 1,
                granularity,
            },
            wal_epoch: 0,
            stats: StoreStats::default(),
        }
    }

    /// A term's subexpression pair naming a class in a shard the image
    /// does not have once decoded `Ok`; the first update of that term or
    /// occurrence count through the pair then indexed past the shards.
    #[test]
    fn a_sub_pair_out_of_range_is_corrupt() {
        let table = CanonTable::new();
        let structure = table.structs.intern(StructNode::Lit(Literal::I64(7)));
        let class = StoredClass {
            hash: 7u64,
            canon: table.keys.intern(KeyNode {
                structure,
                map: None,
            }),
            node_count: 1,
            members: 1,
            occurrences: 1,
        };
        let own = ClassId { shard: 0, index: 0 }.to_bits();
        let stray = ClassId { shard: 5, index: 9 }.to_bits();
        let pairs = vec![(own, 1), (stray, 1)].into_boxed_slice();
        let shard = Shard::from_parts(vec![class], vec![own], vec![pairs]);
        let header = header(Granularity::Subexpressions { min_nodes: 1 });
        let bytes = encode_snapshot(&header, &[&shard], &table);
        match decode_snapshot::<u64>(&bytes, &CanonTable::new()) {
            Err(PersistError::Corrupt { context }) => {
                assert!(context.contains("out of range"), "{context}");
            }
            other => panic!("expected Corrupt, got {:?}", other.map(|_| ())),
        }
    }

    /// A snapshot whose header names any version but the current one —
    /// the retired v1, v2, v5 and v6 layouts included — is a typed
    /// refusal, even when its CRC checks out, and never a panic.
    #[test]
    fn wrong_version_is_rejected() {
        let header = header(Granularity::Roots);
        let shard = Shard::<u64>::empty();
        let bytes = encode_snapshot(&header, &[&shard], &CanonTable::new());
        assert!(decode_snapshot::<u64>(&bytes, &CanonTable::new()).is_ok());

        let version_at = SNAPSHOT_MAGIC.len();
        for version in [1u16, 2, 5, 6, FORMAT_VERSION + 1] {
            let mut bad = bytes.clone();
            bad[version_at..version_at + 2].copy_from_slice(&version.to_le_bytes());
            // Re-seal the body so the version check fires, not the CRC.
            let body_end = bad.len() - 4;
            let crc = crc32(&bad[version_at..body_end]);
            bad[body_end..].copy_from_slice(&crc.to_le_bytes());
            assert!(
                matches!(
                    decode_snapshot::<u64>(&bad, &CanonTable::new()),
                    Err(PersistError::Mismatch { .. })
                ),
                "version {version} must be refused"
            );
        }
    }

    /// A checkpoint then a clean reopen of a `Subexpressions` store loads
    /// keys ref-equal to the live ones, so `lookup` and `contains` find
    /// every class again: each term's, and each indexed subterm's.
    #[test]
    fn a_reopened_subexpressions_store_finds_every_class() {
        use crate::AlphaStore;
        use lambda_lang::visit::postorder;
        use lambda_lang::{ExprArena, NodeId};
        use rand::{rngs::StdRng, SeedableRng};
        let dir =
            std::env::temp_dir().join(format!("alpha-store-snapshot-keys-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut arena = ExprArena::new();
        let mut rng = StdRng::seed_from_u64(0x4E75);
        let roots: Vec<NodeId> = (0..60)
            .map(|i| match i % 3 {
                0 => expr_gen::balanced(&mut arena, 4 + i, &mut rng),
                1 => expr_gen::unbalanced(&mut arena, 4 + i, &mut rng),
                _ => expr_gen::arithmetic(&mut arena, 8 + i, &mut rng),
            })
            .collect();
        let builder = || AlphaStore::<u64>::builder().shards(4).subexpressions(2);
        let store = builder().open_durable(&dir).expect("open");
        let outcomes = store.insert_batch(&arena, &roots);
        let subterms: Vec<NodeId> = roots
            .iter()
            .flat_map(|&root| postorder(&arena, root))
            .collect();
        let live = store.contains_batch(&arena, &subterms);
        assert!(live.iter().filter(|c| c.is_some()).count() > roots.len());
        store.checkpoint().expect("checkpoint");
        drop(store);

        let reopened = builder().open_durable(&dir).expect("reopen");
        assert!(reopened.recovery_info().expect("durable").clean);
        for (outcome, &root) in outcomes.iter().zip(&roots) {
            assert_eq!(reopened.lookup(&arena, root), Some(outcome.class));
        }
        assert_eq!(reopened.contains_batch(&arena, &subterms), live);
        drop(reopened);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
