//! The append-only write-ahead log.
//!
//! Every confirmed insert tees one **record** into the WAL — in a `Roots`
//! store the term's frontier de Bruijn form, in a `Subexpressions` store
//! the term as ingested — so a crash loses at most the writes the OS had
//! not yet persisted, and never corrupts what came before. Frames are
//! [`crate::codec`]'s `[len u32][crc32 u32][payload]`, the daemon's wire
//! frame too, where the payload's first byte is a
//! kind tag: an **insert record**, a **delta record** (v3: one
//! [`crate::AlphaStore::update`], logged as old root + spine path +
//! patch canon instead of the full rewritten term), or a **commit
//! marker** closing one group commit. Replay walks frames until
//! end-of-file or the first frame
//! whose length or CRC does not check out (a *torn tail*, the expected
//! shape of a crash mid-write); recovery truncates back to the last good
//! frame.
//!
//! **Group commit.** Batch ingest encodes the whole chunk's frames — its
//! records, then one commit marker — into one buffer outside any lock and
//! appends them with a single `write(2)` under the WAL mutex, so the
//! per-insert durability cost is amortised the same way the shard-lock
//! cost is. The markers are what lets replay reproduce the *original
//! group boundaries*: each replayed group is applied as one ingest call,
//! so even chunk-boundary-dependent statistics (the root-vs-subterm
//! merge-counter split) come back exactly. By default the OS page cache
//! is the durability boundary (data survives a process crash; an OS crash
//! can lose the unsynced tail);
//! [`StoreBuilder::sync_on_commit`](crate::StoreBuilder::sync_on_commit)
//! upgrades every group commit to an `fsync`.
//!
//! The file opens with a header naming the format version, the store's
//! identity (hash width, scheme seed, shard count, granularity — the same
//! block the snapshot header carries) and an **epoch**. The epoch ties
//! the WAL to the snapshot that logically precedes it:
//! [`checkpoint`](crate::AlphaStore::checkpoint) bumps it in the snapshot first
//! and resets the WAL second, so a crash between the two steps leaves a
//! stale-epoch WAL that recovery recognises and discards instead of
//! replaying twice. A header naming any format version but the current
//! one is refused with [`PersistError::Mismatch`]. See
//! `docs/PERSISTENCE_FORMAT.md` for the byte layout.

use super::format::{self, RawDelta, RawRecord, StoreIdentity, FORMAT_VERSION, WAL_MAGIC};
use super::vfs::{Vfs, VfsFile};
use super::{PersistError, WalOp};
use crate::codec::{
    begin_frame, end_frame, put_u16, put_u64, put_u8, take_bytes, take_frame, take_u16, take_u64,
    take_u8, FRAME_HEADER_LEN,
};
use crate::obs::WalObs;
use crate::prepare::{PreparedCanon, PreparedTerm};
use alpha_hash::combine::HashWord;
use lambda_lang::{ExprArena, NodeId};
use std::path::Path;

/// Payload kind tag: one insert record.
const FRAME_RECORD: u8 = 1;
/// Payload kind tag: a commit marker closing the group of records framed
/// since the previous marker. Carries the group's record count for
/// validation.
const FRAME_COMMIT: u8 = 2;
/// Payload kind tag (v3): one rewrite delta record.
const FRAME_DELTA: u8 = 3;

/// One replayable WAL entry: an insert record, or (v3) a rewrite delta.
/// Replay dispatches on this — a `Roots` record's canon is interned and
/// applied, a `Subexpressions` record's term is re-prepared through the
/// ingest driver, and a delta re-splices its patch into the interned old
/// canon.
pub(crate) enum WalEntry<H> {
    /// One `insert` into a `Roots` store: the term's frontier canon.
    Insert(RawRecord<H>),
    /// One `insert` into a `Subexpressions` store: the recorded root hash
    /// and the term, decoded into [`WalContents::arena`].
    Term { hash: H, root: NodeId },
    /// A rewrite delta (one `update`).
    Update(RawDelta<H>),
}

/// A WAL header: the [`StoreIdentity`] of the store it logs for, then
/// the epoch tying it to its snapshot.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct WalHeader {
    pub(crate) identity: StoreIdentity,
    pub(crate) epoch: u64,
}

pub(crate) const WAL_HEADER_LEN: u64 = 8 + 2 + StoreIdentity::LEN + 8;

fn encode_header(h: &WalHeader) -> Vec<u8> {
    let mut out = Vec::with_capacity(WAL_HEADER_LEN as usize);
    out.extend_from_slice(&WAL_MAGIC);
    put_u16(&mut out, FORMAT_VERSION);
    h.identity.put(&mut out);
    put_u64(&mut out, h.epoch);
    debug_assert_eq!(out.len() as u64, WAL_HEADER_LEN);
    out
}

fn decode_header(input: &mut &[u8]) -> Result<WalHeader, PersistError> {
    let magic = take_bytes(input, 8)?;
    if magic != WAL_MAGIC {
        return Err(PersistError::Corrupt {
            context: "WAL magic mismatch".to_owned(),
        });
    }
    let version = take_u16(input)?;
    if version != FORMAT_VERSION {
        return Err(PersistError::Mismatch {
            context: format!("WAL format version {version}, expected {FORMAT_VERSION}"),
        });
    }
    Ok(WalHeader {
        identity: StoreIdentity::take(input)?,
        epoch: take_u64(input)?,
    })
}

/// What a replay scan found: the header, the decoded records grouped by
/// their original group commits, and where the good prefix of the file
/// ends (everything past it is a torn tail).
pub(crate) struct WalContents<H> {
    pub(crate) header: WalHeader,
    /// The terms of every [`WalEntry::Term`], decoded into one arena.
    pub(crate) arena: ExprArena,
    /// Entries, one inner `Vec` per group commit. A trailing group with no
    /// commit marker (crash mid-group) appears as the final element.
    pub(crate) groups: Vec<Vec<WalEntry<H>>>,
    /// Total record count across groups.
    pub(crate) total_records: u64,
    /// Byte offset where the good prefix ends (== file length iff not
    /// `torn`). The clean-reopen fast path hands this to
    /// [`Wal::open_for_append`] as the scan-verified known-good length.
    pub(crate) good_len: u64,
    /// Whether a torn/corrupt tail was found after `good_len`. A torn
    /// WAL disqualifies the clean-reopen fast path.
    pub(crate) torn: bool,
}

/// Whether `path` holds at least an intact, decodable WAL header.
/// `false` means the file was abandoned mid-creation — the header never
/// finished reaching the disk, so no record was ever committed through
/// it and a creating opener may safely start over. An intact header
/// with an *incompatible* version reports `true`: that file is not
/// abandoned, and clobbering it would destroy someone's data, so the
/// normal open path must surface the mismatch instead. Reads at most
/// the fixed-size header region, outside the fault domain (recovery
/// reads never fault — see [`crate::persist::vfs`]).
pub(crate) fn header_intact(path: &Path) -> bool {
    use std::io::Read;
    let mut buf = Vec::with_capacity(WAL_HEADER_LEN as usize);
    let read = std::fs::File::open(path).and_then(|f| f.take(WAL_HEADER_LEN).read_to_end(&mut buf));
    if read.is_err() || (buf.len() as u64) < WAL_HEADER_LEN {
        return false;
    }
    !matches!(
        decode_header(&mut buf.as_slice()),
        Err(PersistError::Corrupt { .. })
    )
}

/// Reads and decodes a whole WAL file (see [`decode_wal`]).
pub(crate) fn read_wal<H: HashWord>(
    vfs: &dyn Vfs,
    path: &Path,
) -> Result<WalContents<H>, PersistError> {
    decode_wal(&vfs.read(path)?)
}

/// Decodes a whole WAL image. Frames after the first bad one are
/// dropped; a bad *header* is an error (there is nothing to recover). The
/// header's granularity says which insert record the frames carry.
pub(crate) fn decode_wal<H: HashWord>(bytes: &[u8]) -> Result<WalContents<H>, PersistError> {
    let mut input = bytes;
    let header = decode_header(&mut input)?;
    let terms = header.identity.granularity.indexes_subexpressions();
    let mut arena = ExprArena::new();
    let mut groups: Vec<Vec<WalEntry<H>>> = Vec::new();
    let mut current: Vec<WalEntry<H>> = Vec::new();
    let mut total_records = 0u64;
    let mut good_len = bytes.len() as u64 - input.len() as u64;
    let torn = loop {
        if input.is_empty() {
            break false;
        }
        let Ok(mut payload_input) = take_frame(&mut input) else {
            break true;
        };
        let frame_len = FRAME_HEADER_LEN + payload_input.len();
        let Ok(kind) = take_u8(&mut payload_input) else {
            break true;
        };
        match kind {
            FRAME_RECORD | FRAME_DELTA => {
                let entry = if kind == FRAME_DELTA {
                    format::take_delta(&mut payload_input).map(WalEntry::Update)
                } else if terms {
                    format::take_term_record(&mut payload_input, &mut arena)
                        .map(|(hash, root)| WalEntry::Term { hash, root })
                } else {
                    format::take_record(&mut payload_input).map(WalEntry::Insert)
                };
                match entry {
                    Ok(entry) if payload_input.is_empty() => current.push(entry),
                    _ => break true,
                }
                total_records += 1;
            }
            FRAME_COMMIT => {
                let Ok(count) = take_u64(&mut payload_input) else {
                    break true;
                };
                if !payload_input.is_empty() || count != current.len() as u64 {
                    break true;
                }
                groups.push(std::mem::take(&mut current));
            }
            _ => break true,
        }
        good_len += frame_len as u64;
    };
    // Writers always land a group's records and its commit marker in one
    // append, so records with no closing marker — even ending exactly on
    // a frame boundary — can only be a torn write.
    let torn = torn || !current.is_empty();
    if !current.is_empty() {
        // A group torn before its commit marker.
        groups.push(current);
    }
    Ok(WalContents {
        header,
        arena,
        groups,
        total_records,
        good_len,
        torn,
    })
}

/// The open, appendable log. One lives (behind a mutex) inside every
/// durable [`AlphaStore`](crate::AlphaStore).
#[derive(Debug)]
pub(crate) struct Wal {
    file: Box<dyn VfsFile>,
    pub(crate) epoch: u64,
    /// Records currently in the file (good frames only; commit markers do
    /// not count).
    pub(crate) records: u64,
    /// Byte length of the known-good prefix: header plus every group
    /// whose append returned success. A failed append can leave torn
    /// bytes past this point; before the next append (a retry, say) the
    /// file is truncated back here so retried frames never follow
    /// garbage.
    good_len: u64,
    /// Set when an append failed after possibly writing a prefix; the
    /// next append truncates back to `good_len` first.
    dirty: bool,
    /// Set when a [`reset`](Wal::reset) failed partway: the file shape is
    /// unknown (maybe truncated, maybe headerless), so appends are
    /// refused until a reset succeeds and re-establishes a clean header.
    broken: bool,
    pub(crate) sync_on_commit: bool,
    /// The store's WAL-side instruments; detached (`Default`) until
    /// [`attach_durable`](crate::AlphaStore) hands this WAL its handles.
    pub(crate) obs: WalObs,
}

impl Wal {
    /// Creates a fresh WAL (truncating anything at `path`) with the given
    /// header, fsyncing so the header itself is durable.
    pub(crate) fn create(
        vfs: &dyn Vfs,
        path: &Path,
        header: WalHeader,
        sync_on_commit: bool,
    ) -> Result<Self, PersistError> {
        let wal_err = |source| PersistError::Wal {
            op: WalOp::Create,
            source,
        };
        let mut file = vfs.create(path).map_err(wal_err)?;
        file.append(&encode_header(&header))
            .and_then(|()| file.sync())
            .map_err(wal_err)?;
        Ok(Wal {
            file,
            epoch: header.epoch,
            records: 0,
            good_len: WAL_HEADER_LEN,
            dirty: false,
            broken: false,
            sync_on_commit,
            obs: WalObs::default(),
        })
    }

    /// Reopens an intact WAL for appending (the clean-reopen fast path:
    /// nothing to replay, nothing torn, so the existing file continues as
    /// is and no checkpoint is needed). Positions at end-of-file;
    /// `good_len` is the scan-verified file length.
    pub(crate) fn open_for_append(
        vfs: &dyn Vfs,
        path: &Path,
        epoch: u64,
        records: u64,
        good_len: u64,
        sync_on_commit: bool,
    ) -> Result<Self, PersistError> {
        let file = vfs.open_append(path)?;
        Ok(Wal {
            file,
            epoch,
            records,
            good_len,
            dirty: false,
            broken: false,
            sync_on_commit,
            obs: WalObs::default(),
        })
    }

    /// Bytes of record frames appended since the log was last created or
    /// reset — the auto-checkpoint watermark input. Tracked here rather
    /// than read back from the obs gauge, which a WAL opened before its
    /// store (a detached [`WalObs`]) does not feed.
    pub(crate) fn bytes_since_checkpoint(&self) -> u64 {
        self.good_len.saturating_sub(WAL_HEADER_LEN)
    }

    /// Appends one group-committed run of `count` already-framed records
    /// (the caller framed them and their trailing commit marker) with a
    /// single write, flushing (and fsyncing, when configured) once for the
    /// whole group. If a previous append failed, the torn bytes it may
    /// have left are truncated away first, so a retry of the same group
    /// lands exactly where the failed attempt started.
    pub(crate) fn append_group(&mut self, frames: &[u8], count: u64) -> Result<(), PersistError> {
        if self.broken {
            self.obs.error();
            return Err(PersistError::Wal {
                op: WalOp::Append,
                source: std::io::Error::other(
                    "WAL reset failed earlier; the log is unusable until a checkpoint succeeds",
                ),
            });
        }
        if self.dirty {
            if let Err(source) = self.file.truncate(self.good_len) {
                self.obs.error();
                return Err(PersistError::Wal {
                    op: WalOp::Append,
                    source,
                });
            }
            self.dirty = false;
        }
        let t = self.obs.tick();
        if let Err(source) = self.file.append(frames) {
            self.dirty = true;
            self.obs.error();
            return Err(PersistError::Wal {
                op: WalOp::Append,
                source,
            });
        }
        self.obs.rec_append(t);
        if self.sync_on_commit {
            let t = self.obs.tick();
            if let Err(source) = self.file.sync() {
                // The frames are in the page cache but not durably
                // committed; treat the group as not appended so a retry
                // rewrites it from `good_len`.
                self.dirty = true;
                self.obs.error();
                return Err(PersistError::Wal {
                    op: WalOp::Sync,
                    source,
                });
            }
            self.obs.rec_fsync(t);
        }
        self.obs.add_bytes(frames.len() as u64);
        self.good_len += frames.len() as u64;
        self.records += count;
        Ok(())
    }

    /// Truncates the log and starts a new epoch — the second half of
    /// [`checkpoint`](crate::AlphaStore::checkpoint), run only after the
    /// new-epoch snapshot is durably in place. Also discards any torn
    /// bytes a failed append left behind.
    pub(crate) fn reset(&mut self, header: WalHeader) -> Result<(), PersistError> {
        let io = (|| -> std::io::Result<()> {
            self.file.truncate(0)?;
            self.file.append(&encode_header(&header))?;
            self.file.sync()
        })();
        match io {
            Ok(()) => {
                self.obs.reset_bytes();
                self.epoch = header.epoch;
                self.records = 0;
                self.good_len = WAL_HEADER_LEN;
                self.dirty = false;
                self.broken = false;
                Ok(())
            }
            Err(source) => {
                // The file may now be half-reset (maybe truncated, maybe
                // headerless): refuse appends until a reset succeeds. A
                // half-reset WAL decodes as corrupt and is superseded by
                // the already-renamed new-epoch snapshot on recovery, so
                // no committed record is lost.
                self.broken = true;
                self.obs.error();
                Err(PersistError::Wal {
                    op: WalOp::Reset,
                    source,
                })
            }
        }
    }
}

/// Frames one insert record, encoding the payload in place (see
/// [`begin_frame`]). A frontier root (a `Roots` store's) is already a
/// topologically ordered node run whose positions are the record
/// positions; an interned root (a `Subexpressions` store's) is logged as
/// its hash and the term as ingested, `root` of `arena`.
pub(crate) fn frame_record<H: HashWord>(
    out: &mut Vec<u8>,
    pt: &PreparedTerm<H>,
    arena: &ExprArena,
    root: NodeId,
) {
    let frame_start = begin_frame(out);
    put_u8(out, FRAME_RECORD);
    let entry = &pt.root;
    match &entry.canon {
        PreparedCanon::Frontier { canon, canon_root } => {
            format::put_record(out, canon, (entry.hash, *canon_root, entry.node_count));
        }
        PreparedCanon::Interned(_) => format::put_term_record(out, entry.hash, arena, root),
        PreparedCanon::Absent => unreachable!("only probes are absent"),
    }
    end_frame(out, frame_start);
}

/// Frames one rewrite delta record (v3) — the WAL payload of
/// [`crate::AlphaStore::update`]: old root identity, spine path, and
/// the patch's canonical node run. Tiny compared to re-logging the full
/// rewritten term, which is the point of the delta format.
pub(crate) fn frame_delta<H: HashWord>(out: &mut Vec<u8>, delta: &RawDelta<H>) {
    let frame_start = begin_frame(out);
    put_u8(out, FRAME_DELTA);
    format::put_delta(out, delta);
    end_frame(out, frame_start);
}

/// Frames the commit marker that closes a group of `count` records.
pub(crate) fn frame_commit(out: &mut Vec<u8>, count: u64) {
    let frame_start = begin_frame(out);
    put_u8(out, FRAME_COMMIT);
    put_u64(out, count);
    end_frame(out, frame_start);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dag::CanonTable;
    use crate::granularity::Granularity;
    use crate::persist::vfs::{FaultKind, FaultVfs, OsVfs};
    use alpha_hash::combine::HashScheme;
    use lambda_lang::debruijn::db_eq;
    use lambda_lang::parse::parse;
    use lambda_lang::ExprArena;
    use std::fs::OpenOptions;
    use std::path::PathBuf;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("alpha-store-wal-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    fn header() -> WalHeader {
        WalHeader {
            identity: StoreIdentity {
                hash_bits: 64,
                scheme_seed: 0xABCD,
                shard_count: 4,
                granularity: Granularity::Roots,
            },
            epoch: 3,
        }
    }

    /// Frames each source as its own record, closing them as `groups`
    /// group commits (one commit marker per inner slice).
    fn sample_frames(groups: &[&[&str]]) -> (Vec<u8>, u64) {
        let mut arena = ExprArena::new();
        let scheme: HashScheme<u64> = HashScheme::new(0xFAB);
        let table = CanonTable::new();
        let mut preparer = crate::prepare::Preparer::new(&arena, &scheme);
        let mut frames = Vec::new();
        let mut count = 0u64;
        for group in groups {
            for src in *group {
                let parsed = parse(&mut arena, src).unwrap();
                let pt = preparer.prepare(&arena, parsed, Granularity::Roots, &table);
                frame_record(&mut frames, &pt, &arena, parsed);
                count += 1;
            }
            frame_commit(&mut frames, group.len() as u64);
        }
        (frames, count)
    }

    #[test]
    fn append_and_replay_round_trip_with_group_boundaries() {
        let path = tmp("roundtrip.wal");
        let mut wal = Wal::create(&OsVfs, &path, header(), false).unwrap();
        let (frames, count) = sample_frames(&[&[r"\x. x + 1", "v * 3"], &[r"\a. \b. a b"]]);
        wal.append_group(&frames, count).unwrap();
        assert_eq!(wal.records, 3);
        drop(wal);

        let contents = read_wal::<u64>(&OsVfs, &path).unwrap();
        assert_eq!(contents.header, header());
        assert_eq!(contents.total_records, 3);
        assert!(!contents.torn);
        // Group boundaries survive the round trip exactly.
        let sizes: Vec<usize> = contents.groups.iter().map(Vec::len).collect();
        assert_eq!(sizes, vec![2, 1]);
        assert_eq!(contents.good_len, std::fs::metadata(&path).unwrap().len());
    }

    #[test]
    fn records_round_trip_their_canonical_payload() {
        let path = tmp("payload.wal");
        let mut wal = Wal::create(&OsVfs, &path, header(), false).unwrap();
        let mut arena = ExprArena::new();
        let scheme: HashScheme<u64> = HashScheme::new(0xFAB);
        let mut preparer = crate::prepare::Preparer::new(&arena, &scheme);
        let parsed = parse(&mut arena, "let w = v+7 in w*w").unwrap();
        let (hash, canon, root) = preparer.hash_and_canon(&arena, parsed);
        let table = CanonTable::new();
        let pt = preparer.prepare(&arena, parsed, Granularity::Roots, &table);
        let mut frames = Vec::new();
        frame_record(&mut frames, &pt, &arena, parsed);
        frame_commit(&mut frames, 1);
        wal.append_group(&frames, 1).unwrap();
        drop(wal);

        let contents = read_wal::<u64>(&OsVfs, &path).unwrap();
        let WalEntry::Insert(record) = &contents.groups[0][0] else {
            panic!("expected an insert entry");
        };
        assert_eq!(record.hash, hash);
        assert_eq!(record.node_count, canon.len() as u64);
        assert!(db_eq(&record.canon, record.pos, &canon, root));
    }

    #[test]
    fn delta_frames_round_trip_as_update_entries() {
        let path = tmp("delta.wal");
        let mut wal = Wal::create(&OsVfs, &path, header(), false).unwrap();
        let mut arena = ExprArena::new();
        let patch_named = parse(&mut arena, r"\x. x + (v * 2)").unwrap();
        let (patch, patch_root) = lambda_lang::debruijn::to_debruijn(&arena, patch_named);
        let delta = RawDelta::<u64> {
            term_bits: 0x0002_0000_0000_0007,
            old_hash: 0x1234,
            new_hash: 0x5678,
            new_node_count: 19,
            path: vec![1, 0],
            patch,
            patch_root,
        };
        let mut frames = Vec::new();
        frame_delta(&mut frames, &delta);
        frame_commit(&mut frames, 1);
        wal.append_group(&frames, 1).unwrap();
        drop(wal);

        let contents = read_wal::<u64>(&OsVfs, &path).unwrap();
        assert!(!contents.torn);
        assert_eq!(contents.total_records, 1);
        let WalEntry::Update(decoded) = &contents.groups[0][0] else {
            panic!("expected an update entry");
        };
        assert_eq!(decoded.term_bits, delta.term_bits);
        assert_eq!(decoded.old_hash, 0x1234);
        assert_eq!(decoded.new_hash, 0x5678);
        assert_eq!(decoded.path, vec![1, 0]);
        assert!(db_eq(
            &decoded.patch,
            decoded.patch_root,
            &delta.patch,
            delta.patch_root
        ));
    }

    #[test]
    fn torn_tail_is_cut_at_the_last_good_frame() {
        let path = tmp("torn.wal");
        let mut wal = Wal::create(&OsVfs, &path, header(), false).unwrap();
        let (frames, count) = sample_frames(&[&[r"\x. x + 1"], &["v * 3"]]);
        wal.append_group(&frames, count).unwrap();
        drop(wal);

        let full = std::fs::metadata(&path).unwrap().len();
        // Truncate into the middle of the second group's record.
        let cut = full - 30;
        let file = OpenOptions::new().write(true).open(&path).unwrap();
        file.set_len(cut).unwrap();
        drop(file);

        let contents = read_wal::<u64>(&OsVfs, &path).unwrap();
        assert!(contents.torn);
        assert_eq!(contents.total_records, 1);
        assert!(contents.good_len < cut);

        // A scan of only the good prefix sees a clean single-record log —
        // what recovery's checkpoint effectively preserves.
        let file = OpenOptions::new().write(true).open(&path).unwrap();
        file.set_len(contents.good_len).unwrap();
        drop(file);
        let again = read_wal::<u64>(&OsVfs, &path).unwrap();
        assert!(!again.torn);
        assert_eq!(again.total_records, 1);
    }

    #[test]
    fn group_torn_before_its_commit_marker_still_yields_its_records() {
        let path = tmp("torn-group.wal");
        let mut wal = Wal::create(&OsVfs, &path, header(), false).unwrap();
        let (frames, count) = sample_frames(&[&[r"\x. x + 1", "v * 3"]]);
        wal.append_group(&frames, count).unwrap();
        drop(wal);

        // Cut off the commit marker (last frame, 8 + 9 payload bytes).
        let full = std::fs::metadata(&path).unwrap().len();
        let file = OpenOptions::new().write(true).open(&path).unwrap();
        file.set_len(full - 17).unwrap();
        drop(file);

        let contents = read_wal::<u64>(&OsVfs, &path).unwrap();
        assert!(contents.torn);
        assert_eq!(contents.total_records, 2);
        assert_eq!(contents.groups.len(), 1, "trailing partial group kept");
    }

    #[test]
    fn bitflips_in_a_payload_are_caught_by_the_frame_crc() {
        let path = tmp("bitflip.wal");
        let mut wal = Wal::create(&OsVfs, &path, header(), false).unwrap();
        let (frames, count) = sample_frames(&[&["let w = v+7 in w*w"]]);
        wal.append_group(&frames, count).unwrap();
        drop(wal);

        let mut bytes = std::fs::read(&path).unwrap();
        let flip_at = WAL_HEADER_LEN as usize + 8 + 5; // inside the payload
        bytes[flip_at] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();

        let contents = read_wal::<u64>(&OsVfs, &path).unwrap();
        assert!(contents.torn);
        assert!(contents.groups.is_empty());
        assert_eq!(contents.good_len, WAL_HEADER_LEN);
    }

    #[test]
    fn reset_starts_a_new_epoch_with_zero_records() {
        let path = tmp("reset.wal");
        let mut wal = Wal::create(&OsVfs, &path, header(), false).unwrap();
        let (frames, count) = sample_frames(&[&[r"\x. x"]]);
        wal.append_group(&frames, count).unwrap();
        let mut new_header = header();
        new_header.epoch = 4;
        wal.reset(new_header).unwrap();
        assert_eq!(wal.epoch, 4);
        assert_eq!(wal.records, 0);
        drop(wal);
        let contents = read_wal::<u64>(&OsVfs, &path).unwrap();
        assert_eq!(contents.header.epoch, 4);
        assert!(contents.groups.is_empty());
        assert!(!contents.torn);
    }

    #[test]
    fn wrong_magic_or_version_is_rejected() {
        let path = tmp("badmagic.wal");
        std::fs::write(&path, b"NOTAWAL!rest").unwrap();
        assert!(matches!(
            read_wal::<u64>(&OsVfs, &path),
            Err(PersistError::Corrupt { .. })
        ));

        // Any version but the current one, including the retired v1 and
        // v2 layouts, is a typed refusal.
        for version in [1u16, 2, 0xFF] {
            let mut bytes = encode_header(&header());
            bytes[8..10].copy_from_slice(&version.to_le_bytes());
            let path = tmp(&format!("badversion{version}.wal"));
            std::fs::write(&path, &bytes).unwrap();
            assert!(
                matches!(
                    read_wal::<u64>(&OsVfs, &path),
                    Err(PersistError::Mismatch { .. })
                ),
                "version {version} must be refused"
            );
        }
    }

    /// An injected `ENOSPC` on append surfaces as the typed
    /// [`PersistError::Wal`] (naming the failed op), leaves the record
    /// count unchanged, and bumps the persist-error counter. This used to
    /// need `/dev/full` (Linux-only, kernel-version-dependent op
    /// attribution); [`FaultVfs`] makes it deterministic everywhere.
    #[test]
    fn append_errors_are_typed_and_counted() {
        use super::super::WalOp;
        let path = tmp("enospc.wal");
        let fault = FaultVfs::new();
        let mut wal = Wal::create(&fault, &path, header(), true).unwrap();
        let store_obs = crate::obs::StoreObs::new();
        wal.obs = store_obs.wal_obs();
        fault.fail_always(FaultKind::Enospc);
        let (frames, count) = sample_frames(&[&[r"\x. x"]]);
        let err = wal.append_group(&frames, count).unwrap_err();
        match err {
            PersistError::Wal { op, source } => {
                assert_eq!(op, WalOp::Append, "unexpected op {op:?}");
                assert_eq!(source.kind(), std::io::ErrorKind::StorageFull);
            }
            other => panic!("expected PersistError::Wal, got {other:?}"),
        }
        assert_eq!(wal.records, 0, "failed append must not count records");
        let report = store_obs.report(Vec::new());
        assert_eq!(report.counter("alpha_store_persist_errors"), Some(1));
    }

    /// A short write (partial bytes on disk, then an error) followed by a
    /// retry of the same group must not leave the torn prefix in front of
    /// the retried frames: the dirty-truncate step rewinds to the last
    /// known-good length first, so the file replays clean.
    #[test]
    fn retried_append_truncates_the_torn_prefix_first() {
        let path = tmp("retry.wal");
        let fault = FaultVfs::new();
        let mut wal = Wal::create(&fault, &path, header(), false).unwrap();
        let (frames, count) = sample_frames(&[&[r"\x. x + 1", "v * 3"]]);
        fault.fail_always(FaultKind::ShortWrite);
        assert!(wal.append_group(&frames, count).is_err());
        // Half the group's bytes really landed on disk.
        let len_after_failure = std::fs::metadata(&path).unwrap().len();
        assert!(len_after_failure > WAL_HEADER_LEN);
        fault.clear();
        wal.append_group(&frames, count).unwrap();
        assert_eq!(wal.records, count);
        let contents = read_wal::<u64>(&OsVfs, &path).unwrap();
        assert!(!contents.torn, "retry must not leave torn bytes behind");
        assert_eq!(contents.total_records, count);
    }

    /// A failed fsync with `sync_on_commit` reports `WalOp::Sync`, does
    /// not count the group, and a clean retry lands it exactly once.
    #[test]
    fn failed_fsync_marks_group_uncommitted_and_retry_lands_once() {
        use super::super::WalOp;
        let path = tmp("fsync-fail.wal");
        let fault = FaultVfs::new();
        let mut wal = Wal::create(&fault, &path, header(), true).unwrap();
        let (frames, count) = sample_frames(&[&[r"\a. \b. a b"]]);
        fault.fail_always(FaultKind::FsyncFail);
        let err = wal.append_group(&frames, count).unwrap_err();
        assert!(matches!(
            err,
            PersistError::Wal {
                op: WalOp::Sync,
                ..
            }
        ));
        assert_eq!(wal.records, 0);
        fault.clear();
        wal.append_group(&frames, count).unwrap();
        let contents = read_wal::<u64>(&OsVfs, &path).unwrap();
        assert!(!contents.torn);
        assert_eq!(
            contents.total_records, count,
            "group must land exactly once"
        );
    }
}
