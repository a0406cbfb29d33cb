//! The append-only write-ahead log.
//!
//! Every confirmed insert tees one **record** into the WAL — its root
//! hash and the term as ingested, in both granularities — so a crash
//! loses at most the writes the OS had not yet persisted, and never
//! corrupts what came before. Frames are [`crate::codec`]'s
//! `[len u32][crc32 u32][payload]`, the daemon's wire frame too, where
//! the payload's first byte is a kind tag: an **insert record**, a
//! **delta record** (one [`crate::AlphaStore::update`], logged as its
//! root hashes plus the rewrite as the wire's `OP_UPDATE` sends it:
//! term handle, spine path and the patch as a named term), or a
//! **commit marker** closing one group commit. The scan
//! ([`decode_wal`]) checks framing only — lengths, CRCs, kind tags and
//! commit markers — and keeps each record's byte range; replay decodes
//! each record once. The scan stops at end-of-file or at the first frame
//! whose length, CRC, kind or marker does not check out, and replay
//! stops at the first record it cannot decode: either is a *torn
//! tail*, the expected shape of a crash mid-write. Recovery then
//! checkpoints, which drops the tail.
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

use super::format::{self, DeltaCheck, StoreIdentity, FORMAT_VERSION, WAL_MAGIC};
use super::vfs::{Vfs, VfsFile};
use super::{PersistError, WalOp};
use crate::codec::{
    begin_frame, end_frame, put_u16, put_u64, put_u8, take_bytes, take_frame, take_u16, take_u64,
    take_u8, TermScratch, FRAME_HEADER_LEN,
};
use crate::obs::WalObs;
use crate::prepare::{Named, PreparedTerm};
use crate::update::Rewrite;
use alpha_hash::combine::HashWord;
use lambda_lang::NodeId;
use std::ops::Range;
use std::path::Path;

/// Payload kind tag: one insert record.
const FRAME_RECORD: u8 = 1;
/// Payload kind tag: a commit marker closing the group of records framed
/// since the previous marker. Carries the group's record count for
/// validation.
const FRAME_COMMIT: u8 = 2;
/// Payload kind tag: one rewrite delta record.
const FRAME_DELTA: u8 = 3;

/// One replayable WAL entry: where its record lies in
/// [`WalContents::bytes`], by kind. Replay decodes each record once, one
/// group at a time, so recovery never holds more than one group's terms:
/// an insert's term is re-prepared through the ingest driver, and a delta
/// is re-applied through the live update's path.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) enum WalEntry {
    /// One `insert`: the root hash and the term.
    Term(Range<usize>),
    /// One `update`: the root hashes and the update body.
    Update(Range<usize>),
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

/// What a framing scan found: the header, the file's bytes, and the
/// records grouped by their original group commits.
pub(crate) struct WalContents {
    pub(crate) header: WalHeader,
    /// The file's bytes, which every [`WalEntry`] points into.
    pub(crate) bytes: Vec<u8>,
    /// Entries, one inner `Vec` per group commit. A trailing group with no
    /// commit marker (crash mid-group) appears as the final element.
    pub(crate) groups: Vec<Vec<WalEntry>>,
    /// Whether the scan stopped before end-of-file at a frame that does
    /// not check out, or found records no commit marker closes.
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

/// Reads and scans a whole WAL file (see [`decode_wal`]).
pub(crate) fn read_wal(vfs: &dyn Vfs, path: &Path) -> Result<WalContents, PersistError> {
    decode_wal(vfs.read(path)?)
}

/// Scans a whole WAL image for its framing: each frame's length and CRC,
/// its kind tag and each commit marker's count. Records are not decoded;
/// each keeps its byte range. Frames after the first bad one are dropped;
/// a bad *header* is an error (there is nothing to recover).
pub(crate) fn decode_wal(bytes: Vec<u8>) -> Result<WalContents, PersistError> {
    let mut input = bytes.as_slice();
    let header = decode_header(&mut input)?;
    let mut groups: Vec<Vec<WalEntry>> = Vec::new();
    let mut current: Vec<WalEntry> = Vec::new();
    let torn = loop {
        if input.is_empty() {
            break false;
        }
        let at = bytes.len() - input.len();
        let Ok(mut payload) = take_frame(&mut input) else {
            break true;
        };
        let record = at + FRAME_HEADER_LEN + 1..at + FRAME_HEADER_LEN + payload.len();
        match take_u8(&mut payload) {
            Ok(FRAME_RECORD) => current.push(WalEntry::Term(record)),
            Ok(FRAME_DELTA) => current.push(WalEntry::Update(record)),
            Ok(FRAME_COMMIT) => match take_u64(&mut payload) {
                Ok(count) if payload.is_empty() && count == current.len() as u64 => {
                    groups.push(std::mem::take(&mut current));
                }
                _ => break true,
            },
            _ => break true,
        }
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
        bytes,
        groups,
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

    /// Reopens a WAL the scan found intact and holding no records for
    /// appending (the clean-reopen fast path: nothing to replay, nothing
    /// torn, so the existing file continues as is and no checkpoint is
    /// needed). The file is its header alone.
    pub(crate) fn open_for_append(
        vfs: &dyn Vfs,
        path: &Path,
        epoch: u64,
        sync_on_commit: bool,
    ) -> Result<Self, PersistError> {
        let file = vfs.open_append(path)?;
        Ok(Wal {
            file,
            epoch,
            records: 0,
            good_len: WAL_HEADER_LEN,
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
/// [`begin_frame`]): the hash of the term prepared as `pt`, and the term
/// at `root` of `named.arena` as ingested, encoded with the framer's
/// scratch.
pub(crate) fn frame_record<H: HashWord>(
    out: &mut Vec<u8>,
    pt: &PreparedTerm<H>,
    root: NodeId,
    named: &mut Named<'_>,
) {
    let frame_start = begin_frame(out);
    put_u8(out, FRAME_RECORD);
    format::put_term_record(
        out,
        pt.root.hash,
        named.arena,
        root,
        &mut named.scratch.term,
    );
    end_frame(out, frame_start);
}

/// Frames one rewrite delta record — the WAL payload of
/// [`crate::AlphaStore::update`]: the root hashes of `check`, then the
/// update body of `rewrite` to the term `term_bits`, its patch encoded
/// with `scratch`. Tiny compared to re-logging the full rewritten term,
/// which is the point of the delta format.
pub(crate) fn frame_delta<H: HashWord>(
    out: &mut Vec<u8>,
    check: &DeltaCheck<H>,
    term_bits: u64,
    rewrite: &Rewrite<'_>,
    scratch: &mut TermScratch,
) {
    let frame_start = begin_frame(out);
    put_u8(out, FRAME_DELTA);
    format::put_delta(out, check, term_bits, rewrite, scratch);
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

    /// Records across all groups of a scan.
    fn records(contents: &WalContents) -> usize {
        contents.groups.iter().map(Vec::len).sum()
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
                let mut named = preparer.named(&arena);
                frame_record(&mut frames, &pt, parsed, &mut named);
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

        let contents = read_wal(&OsVfs, &path).unwrap();
        assert_eq!(contents.header, header());
        assert!(!contents.torn);
        // Group boundaries survive the round trip exactly.
        let sizes: Vec<usize> = contents.groups.iter().map(Vec::len).collect();
        assert_eq!(sizes, vec![2, 1]);
    }

    #[test]
    fn records_round_trip_their_canonical_payload() {
        let path = tmp("payload.wal");
        let mut wal = Wal::create(&OsVfs, &path, header(), false).unwrap();
        let mut arena = ExprArena::new();
        let scheme: HashScheme<u64> = HashScheme::new(0xFAB);
        let mut preparer = crate::prepare::Preparer::new(&arena, &scheme);
        let parsed = parse(&mut arena, "let w = v+7 in w*w").unwrap();
        let table = CanonTable::new();
        let pt = preparer.prepare(&arena, parsed, Granularity::Roots, &table);
        let mut frames = Vec::new();
        let mut named = preparer.named(&arena);
        frame_record(&mut frames, &pt, parsed, &mut named);
        frame_commit(&mut frames, 1);
        wal.append_group(&frames, 1).unwrap();
        drop(wal);

        let contents = read_wal(&OsVfs, &path).unwrap();
        let WalEntry::Term(record) = &contents.groups[0][0] else {
            panic!("expected an insert entry");
        };
        let mut decoded = ExprArena::new();
        let (hash, root) =
            format::take_term_record::<u64>(&contents.bytes[record.clone()], &mut decoded).unwrap();
        assert_eq!(hash, pt.root.hash);
        assert_eq!(
            lambda_lang::print::print(&decoded, root),
            lambda_lang::print::print(&arena, parsed)
        );
    }

    #[test]
    fn delta_frames_round_trip_as_update_entries() {
        let path = tmp("delta.wal");
        let mut wal = Wal::create(&OsVfs, &path, header(), false).unwrap();
        let mut arena = ExprArena::new();
        let patch = parse(&mut arena, r"\x. x + (v * 2)").unwrap();
        let check = DeltaCheck::<u64> {
            old_hash: 0x1234,
            new_hash: 0x5678,
            new_node_count: 19,
        };
        let rewrite = Rewrite {
            path: &[1, 0],
            arena: &arena,
            root: patch,
        };
        let term_bits = 0x0002_0000_0000_0007;
        let mut frames = Vec::new();
        frame_delta(
            &mut frames,
            &check,
            term_bits,
            &rewrite,
            &mut TermScratch::default(),
        );
        frame_commit(&mut frames, 1);
        wal.append_group(&frames, 1).unwrap();
        drop(wal);

        let contents = read_wal(&OsVfs, &path).unwrap();
        assert!(!contents.torn);
        assert_eq!(records(&contents), 1);
        let WalEntry::Update(record) = &contents.groups[0][0] else {
            panic!("expected an update entry");
        };
        let mut decoded_arena = ExprArena::new();
        let decoded =
            format::take_delta::<u64>(&contents.bytes[record.clone()], &mut decoded_arena).unwrap();
        assert_eq!(decoded.check, check);
        assert_eq!(decoded.term_bits, term_bits);
        assert_eq!(decoded.path, vec![1, 0]);
        assert_eq!(
            lambda_lang::print::print(&decoded_arena, decoded.patch_root),
            lambda_lang::print::print(&arena, patch)
        );
    }

    /// A cut inside the second group's record ends the scan at the last
    /// frame that checks out: the first group's record survives, and the
    /// file is torn.
    #[test]
    fn torn_tail_is_cut_at_the_last_good_frame() {
        let path = tmp("torn.wal");
        let mut wal = Wal::create(&OsVfs, &path, header(), false).unwrap();
        let (frames, count) = sample_frames(&[&[r"\x. x + 1"], &["v * 3"]]);
        wal.append_group(&frames, count).unwrap();
        drop(wal);

        let full = std::fs::metadata(&path).unwrap().len();
        // Truncate into the middle of the second group's record.
        let file = OpenOptions::new().write(true).open(&path).unwrap();
        file.set_len(full - 30).unwrap();
        drop(file);

        let contents = read_wal(&OsVfs, &path).unwrap();
        assert!(contents.torn);
        assert_eq!(records(&contents), 1);
        assert_eq!(contents.groups.len(), 1);
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

        let contents = read_wal(&OsVfs, &path).unwrap();
        assert!(contents.torn);
        assert_eq!(records(&contents), 2);
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

        let contents = read_wal(&OsVfs, &path).unwrap();
        assert!(contents.torn);
        assert!(contents.groups.is_empty());
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
        let contents = read_wal(&OsVfs, &path).unwrap();
        assert_eq!(contents.header.epoch, 4);
        assert!(contents.groups.is_empty());
        assert!(!contents.torn);
    }

    #[test]
    fn wrong_magic_or_version_is_rejected() {
        let path = tmp("badmagic.wal");
        std::fs::write(&path, b"NOTAWAL!rest").unwrap();
        assert!(matches!(
            read_wal(&OsVfs, &path),
            Err(PersistError::Corrupt { .. })
        ));

        // Any version but the current one, including the retired v1, v2
        // and v5 layouts, is a typed refusal.
        for version in [1u16, 2, 5, 0xFF] {
            let mut bytes = encode_header(&header());
            bytes[8..10].copy_from_slice(&version.to_le_bytes());
            let path = tmp(&format!("badversion{version}.wal"));
            std::fs::write(&path, &bytes).unwrap();
            assert!(
                matches!(read_wal(&OsVfs, &path), Err(PersistError::Mismatch { .. })),
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
        let contents = read_wal(&OsVfs, &path).unwrap();
        assert!(!contents.torn, "retry must not leave torn bytes behind");
        assert_eq!(records(&contents) as u64, count);
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
        let contents = read_wal(&OsVfs, &path).unwrap();
        assert!(!contents.torn);
        assert_eq!(
            records(&contents) as u64,
            count,
            "group must land exactly once"
        );
    }
}
