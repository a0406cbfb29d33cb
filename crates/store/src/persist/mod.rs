//! Durability: write-ahead logging, snapshots and crash recovery.
//!
//! An [`AlphaStore`] is in-memory by default; this
//! module makes one **durable**. A durable store lives in a directory with
//! two files:
//!
//! * `snapshot.bin` — a complete serialization of the store, written
//!   atomically (temp file → `fsync` → rename). The canonical de Bruijn
//!   form per class *is* the class identity (the paper's key property), so
//!   the snapshot is a full, rebuildable description: one shared canon
//!   node table + per-class refs + scheme seed + granularity, nothing
//!   more.
//! * `wal.bin` — an append-only log of every insert and rewrite-update
//!   since that snapshot: one CRC-framed record per ingested term, one
//!   **delta record** per [`update`](crate::AlphaStore::update) (old
//!   root + spine path + patch canon, not the full rewritten term), plus
//!   a **commit marker** per group commit, so replay can reproduce the
//!   original batch grouping exactly.
//!
//! Recovery ([`AlphaStore::open`](crate::AlphaStore::open) or
//! [`StoreBuilder::open_durable`](crate::StoreBuilder::open_durable)) loads
//! the snapshot, replays the WAL tail **through the normal ingest path** —
//! every replayed merge is re-confirmed by canonical-form identity, so the
//! store's exactness invariant (`unconfirmed_merges == 0`) survives
//! restarts by construction, not by trust in the disk — and then
//! checkpoints: it writes a fresh snapshot and resets the WAL under a new
//! epoch, so every successfully opened store starts from the clean
//! `(full snapshot, empty WAL)` state whatever crash weirdness it
//! recovered from. [`verify_on_replay`](crate::StoreBuilder::verify_on_replay) upgrades replay to
//! paranoid mode: every record is re-hashed from its canonical payload
//! before being trusted, catching consistent corruption that CRC framing
//! and merge confirmation cannot see.
//!
//! What each crash window leaves behind:
//!
//! | crash during … | on disk | recovery |
//! |---|---|---|
//! | normal ingest | snapshot + WAL with a possibly-torn tail | replay good frames, drop the torn tail |
//! | snapshot write | old snapshot + complete WAL (temp file ignored) | replay from the old snapshot |
//! | compaction, between snapshot rename and WAL reset | new snapshot + **stale-epoch** WAL | epoch mismatch detected, stale WAL discarded (its records are in the snapshot) |
//!
//! The byte-level layout lives in [`mod@format`] and is specified in
//! `docs/PERSISTENCE_FORMAT.md`; a test asserts the two agree on magic
//! numbers and versions. Only the current format version decodes; files
//! of any other version are refused with [`PersistError::Mismatch`].

pub mod format;
pub(crate) mod snapshot;
pub mod vfs;
pub(crate) mod wal;

use crate::canon::rebuild_named;
use crate::dag::CanonTable;
use crate::granularity::Granularity;
use crate::store::{AlphaStore, AutoCheckpoint, RetryPolicy};
use alpha_hash::combine::{HashScheme, HashWord};
use format::RawRecord;
use lambda_lang::debruijn::DbNode;
use lambda_lang::ExprArena;
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use vfs::Vfs;

/// File name of the snapshot inside a durable store's directory.
pub const SNAPSHOT_FILE: &str = "snapshot.bin";

/// File name of the write-ahead log inside a durable store's directory.
pub const WAL_FILE: &str = "wal.bin";

/// File name of the advisory lock taken (for the store's whole lifetime)
/// by every process that opens a durable store directory. A second
/// opener fails fast with [`PersistError::Locked`] instead of silently
/// truncating a WAL the first process is still appending to. The OS
/// releases the lock automatically when the holding process exits, so a
/// crash never leaves a stale lock.
pub const LOCK_FILE: &str = "store.lock";

/// What can go wrong persisting or recovering a store.
#[derive(Debug)]
pub enum PersistError {
    /// An underlying filesystem operation failed.
    Io(std::io::Error),
    /// On-disk bytes that cannot be what this format writes: bad magic,
    /// failed CRC, impossible tags or out-of-range references — or, in
    /// [`verify_on_replay`](crate::StoreBuilder::verify_on_replay) mode, a
    /// record whose canonical payload re-hashes to a different address
    /// than the one it claims. (A torn WAL *tail* is not corruption —
    /// recovery truncates it silently; this is for damage in data that
    /// claimed to be intact.)
    Corrupt {
        /// Human-readable description of what failed to parse.
        context: String,
    },
    /// Intact data that belongs to a different configuration: wrong format
    /// version, wrong hash width, or a store opened with a builder whose
    /// scheme/shards/granularity disagree with what is on disk.
    Mismatch {
        /// Human-readable description of the disagreement.
        context: String,
    },
    /// Another live store (this process or another) holds the directory's
    /// advisory lock. Durable stores are strictly single-writer: a second
    /// opener would checkpoint over — and truncate — the WAL the first is
    /// appending to.
    Locked {
        /// The contended store directory.
        dir: PathBuf,
    },
    /// An I/O failure on the live write-ahead log itself. Split from
    /// [`PersistError::Io`] because a WAL failure on a live durable
    /// store is fatal to durability — the in-memory state can no longer
    /// be rebuilt from disk — where other I/O errors (a failed snapshot
    /// write, say) leave the store fully recoverable. The `op` says
    /// which log operation failed; every occurrence also increments the
    /// `alpha_store_persist_errors` counter.
    Wal {
        /// The WAL operation that failed.
        op: WalOp,
        /// The underlying filesystem error.
        source: std::io::Error,
    },
    /// An I/O failure inside the atomic snapshot-write protocol. The `op`
    /// says which step failed — **including the trailing directory sync**,
    /// without which the rename itself is not durable (this used to be
    /// silently swallowed). A failed snapshot leaves the previous snapshot
    /// and the WAL untouched: the store remains fully recoverable, which
    /// is why this is distinct from [`PersistError::Wal`]. Every
    /// occurrence also increments `alpha_store_persist_errors`.
    Snapshot {
        /// The snapshot-protocol step that failed.
        op: SnapshotOp,
        /// The underlying filesystem error.
        source: std::io::Error,
    },
}

/// The write-ahead-log operation behind a [`PersistError::Wal`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WalOp {
    /// Creating or re-initialising the log file (header write + fsync).
    Create,
    /// Appending a group-committed run of record frames.
    Append,
    /// The `fsync` closing a group commit (with
    /// [`sync_on_commit`](crate::StoreBuilder::sync_on_commit)).
    Sync,
    /// Truncating and restarting the log after a checkpoint.
    Reset,
}

impl fmt::Display for WalOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            WalOp::Create => "create",
            WalOp::Append => "append",
            WalOp::Sync => "sync",
            WalOp::Reset => "reset",
        })
    }
}

/// The atomic-snapshot-protocol step behind a [`PersistError::Snapshot`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SnapshotOp {
    /// Creating the temp file next to the destination.
    Create,
    /// Writing the serialized store into the temp file.
    Write,
    /// The `fsync` that makes the temp file's content durable before the
    /// rename can commit it.
    Sync,
    /// Renaming the temp file over the destination (the commit point).
    Rename,
    /// The directory `fsync` that makes the **rename itself** durable.
    /// A failure here fails the protocol: the new snapshot may not
    /// survive power loss even though the rename returned success.
    DirSync,
}

impl fmt::Display for SnapshotOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            SnapshotOp::Create => "temp-file create",
            SnapshotOp::Write => "temp-file write",
            SnapshotOp::Sync => "temp-file sync",
            SnapshotOp::Rename => "rename",
            SnapshotOp::DirSync => "directory sync",
        })
    }
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PersistError::Io(e) => write!(f, "persistence I/O error: {e}"),
            PersistError::Corrupt { context } => write!(f, "corrupt store data: {context}"),
            PersistError::Mismatch { context } => {
                write!(f, "store configuration mismatch: {context}")
            }
            PersistError::Locked { dir } => {
                write!(
                    f,
                    "store directory {} is locked by another live store (durable \
                     stores are single-writer)",
                    dir.display()
                )
            }
            PersistError::Wal { op, source } => {
                write!(f, "write-ahead log {op} failed: {source}")
            }
            PersistError::Snapshot { op, source } => {
                write!(f, "snapshot {op} failed: {source}")
            }
        }
    }
}

impl std::error::Error for PersistError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PersistError::Io(e) => Some(e),
            PersistError::Wal { source, .. } => Some(source),
            PersistError::Snapshot { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl From<std::io::Error> for PersistError {
    fn from(e: std::io::Error) -> Self {
        PersistError::Io(e)
    }
}

/// The durable half of a store: the open WAL, its directory, the storage
/// backend every snapshot write goes through, and the held single-writer
/// lock (released by the OS when this is dropped or the process dies).
#[derive(Debug)]
pub(crate) struct Durable {
    pub(crate) wal: Mutex<wal::Wal>,
    pub(crate) dir: PathBuf,
    pub(crate) vfs: Arc<dyn Vfs>,
    _lock: std::fs::File,
}

/// Open-time knobs shared by every durable-open entry point.
#[derive(Clone, Debug)]
pub(crate) struct OpenConfig {
    pub(crate) sync_on_commit: bool,
    pub(crate) chunk_entries: usize,
    /// Paranoid replay: re-hash every record's canonical payload before
    /// trusting it (see
    /// [`StoreBuilder::verify_on_replay`](crate::StoreBuilder::verify_on_replay)).
    pub(crate) verify_on_replay: bool,
    /// The storage backend every persisted byte flows through
    /// ([`vfs::OsVfs`] in production, [`vfs::FaultVfs`] under test).
    pub(crate) vfs: Arc<dyn Vfs>,
    /// WAL append/sync retry policy for the health state machine.
    pub(crate) retry: RetryPolicy,
    /// Auto-checkpoint watermarks (off by default).
    pub(crate) auto_ckpt: AutoCheckpoint,
}

/// Paranoid-mode record validation: recompute what the record *claims*
/// from its canonical payload alone. The tree sizes are re-derived by a
/// sharing-aware DP over the record's node run, then each entry's canon
/// is rebuilt to a named term and pushed through the full hashing
/// pipeline; any disagreement with the recorded `node_count`/`hash` is
/// corruption that frame CRCs (computed over already-corrupt bytes) and
/// merge confirmation (which only compares canon against canon) cannot
/// catch.
pub(crate) fn verify_record<H: HashWord>(
    scheme: &HashScheme<H>,
    raw: &RawRecord<H>,
) -> Result<(), PersistError> {
    // Tree size per node-run position (children precede parents, so one
    // forward sweep suffices; saturating keeps adversarial DAGs finite).
    let mut sizes: Vec<u64> = Vec::with_capacity(raw.canon.len());
    for node in raw.canon.nodes() {
        let size = match node {
            DbNode::BVar(_) | DbNode::FVar(_) | DbNode::Lit(_) => 1,
            DbNode::Lam(b) => 1u64.saturating_add(sizes[b.index()]),
            DbNode::App(f, a) => 1u64
                .saturating_add(sizes[f.index()])
                .saturating_add(sizes[a.index()]),
            DbNode::Let(r, b) => 1u64
                .saturating_add(sizes[r.index()])
                .saturating_add(sizes[b.index()]),
        };
        sizes.push(size);
    }
    let check = |entry: &format::RawEntry<H>| -> Result<(), PersistError> {
        if sizes[entry.pos.index()] != entry.node_count {
            return Err(PersistError::Corrupt {
                context: format!(
                    "verify_on_replay: recorded node count {} but canonical payload has {}",
                    entry.node_count,
                    sizes[entry.pos.index()]
                ),
            });
        }
        let mut scratch = ExprArena::new();
        let named = rebuild_named(&raw.canon, entry.pos, &mut scratch);
        let rehashed = alpha_hash::hashed::hash_expr(&scratch, named, scheme);
        if rehashed != entry.hash {
            return Err(PersistError::Corrupt {
                context: "verify_on_replay: canonical payload re-hashes to a different \
                          content address than the record claims"
                    .to_owned(),
            });
        }
        Ok(())
    };
    check(&raw.root)?;
    for sub in &raw.subs {
        check(sub)?;
    }
    Ok(())
}

/// Takes the directory's advisory single-writer lock, failing fast with
/// [`PersistError::Locked`] if any other live store holds it. Taken
/// before any file is read, so even recovery is mutually exclusive.
fn acquire_dir_lock(dir: &Path) -> Result<std::fs::File, PersistError> {
    let file = std::fs::OpenOptions::new()
        .create(true)
        .write(true)
        .truncate(false)
        .open(dir.join(LOCK_FILE))?;
    match file.try_lock() {
        Ok(()) => Ok(file),
        Err(std::fs::TryLockError::WouldBlock) => Err(PersistError::Locked {
            dir: dir.to_owned(),
        }),
        Err(std::fs::TryLockError::Error(e)) => Err(e.into()),
    }
}

/// The builder-side configuration a reopened store must match.
pub(crate) struct ExpectedConfig<H: HashWord> {
    pub(crate) scheme: HashScheme<H>,
    /// Already clamped/rounded the way the store constructor does it.
    pub(crate) shard_count: u32,
    pub(crate) granularity: Granularity,
}

fn check_config<H: HashWord>(
    expect: &ExpectedConfig<H>,
    seed: u64,
    shard_count: u32,
    granularity: Granularity,
) -> Result<(), PersistError> {
    let mismatch = |context: String| Err(PersistError::Mismatch { context });
    if expect.scheme.seed() != seed {
        return mismatch(format!(
            "on-disk scheme seed {seed:#x} != builder scheme seed {:#x}",
            expect.scheme.seed()
        ));
    }
    if expect.shard_count != shard_count {
        return mismatch(format!(
            "on-disk shard count {shard_count} != builder shard count {}",
            expect.shard_count
        ));
    }
    if expect.granularity != granularity {
        return mismatch(format!(
            "on-disk granularity {granularity:?} != builder granularity {:?}",
            expect.granularity
        ));
    }
    Ok(())
}

/// The recover-or-create path behind
/// [`StoreBuilder::open_durable`](crate::StoreBuilder::open_durable): the
/// directory lock is taken **before** deciding between recovery and
/// creation, so a racing second opener can never observe "empty" and
/// truncate files a first opener is writing.
pub(crate) fn open_or_create_store<H: HashWord>(
    dir: &Path,
    expect: &ExpectedConfig<H>,
    config: OpenConfig,
) -> Result<AlphaStore<H>, PersistError> {
    std::fs::create_dir_all(dir)?;
    let lock = acquire_dir_lock(dir)?;
    // A WAL alone whose fixed header never finished reaching the disk is
    // a creation that crashed mid-flight: nothing was ever committed
    // through it, so it does not count as an existing store and the
    // create path below (which truncates it) starts over.
    let exists = dir.join(SNAPSHOT_FILE).is_file()
        || (dir.join(WAL_FILE).is_file() && wal::header_intact(&dir.join(WAL_FILE)));
    if exists {
        open_store_locked(dir, Some(expect), config, lock)
    } else {
        create_store_locked(dir, expect, config, lock)
    }
}

/// The shared open/recovery path behind [`AlphaStore::open`] and
/// [`StoreBuilder::open_durable`](crate::StoreBuilder::open_durable).
///
/// `expect` is `Some` when a builder supplies a configuration the on-disk
/// store must match, `None` when the configuration is read entirely from
/// disk. Ends with a checkpoint — fresh snapshot, reset WAL, next epoch —
/// unless the reopen was *clean* (intact snapshot,
/// same-epoch WAL fully absorbed, nothing torn), in which case the
/// existing files simply continue: no O(store) snapshot rewrite for a
/// no-op reopen.
pub(crate) fn open_store<H: HashWord>(
    dir: &Path,
    expect: Option<&ExpectedConfig<H>>,
    config: OpenConfig,
) -> Result<AlphaStore<H>, PersistError> {
    let lock = acquire_dir_lock(dir)?;
    open_store_locked(dir, expect, config, lock)
}

fn open_store_locked<H: HashWord>(
    dir: &Path,
    expect: Option<&ExpectedConfig<H>>,
    config: OpenConfig,
    lock: std::fs::File,
) -> Result<AlphaStore<H>, PersistError> {
    let snap_path = dir.join(SNAPSHOT_FILE);
    let wal_path = dir.join(WAL_FILE);
    let have_snapshot = snap_path.is_file();
    let have_wal = wal_path.is_file();
    if !have_snapshot && !have_wal {
        return Err(PersistError::Io(std::io::Error::new(
            std::io::ErrorKind::NotFound,
            format!("no {SNAPSHOT_FILE} or {WAL_FILE} in {}", dir.display()),
        )));
    }

    // 0. Read the WAL once up front; both the config-derivation step and
    // the replay step below consume this same scan.
    let wal_scan: Option<Result<wal::WalContents<H>, PersistError>> =
        have_wal.then(|| wal::read_wal::<H>(&*config.vfs, &wal_path));

    // 1. The snapshot (or an empty store described by the WAL header).
    // Every canonical form decoded anywhere below interns into this one
    // table, which the rebuilt store then owns.
    let table = CanonTable::new();
    // Recovery-phase timings, folded into the store's obs registry once
    // the store exists (it does not yet, while the phases run).
    let mut snap_load_ns = 0u64;
    let mut replay_ns = 0u64;
    let (mut store, snap_epoch, records_applied, wal_contents) = if have_snapshot {
        let t = std::time::Instant::now();
        let (header, shards) = snapshot::read_snapshot::<H>(&*config.vfs, &snap_path, &table)?;
        snap_load_ns = t.elapsed().as_nanos() as u64;
        if let Some(expect) = expect {
            check_config(
                expect,
                header.scheme_seed,
                header.shard_count,
                header.granularity,
            )?;
        }
        let store = AlphaStore::from_loaded(
            HashScheme::from_raw_seed(header.scheme_seed),
            shards,
            header.granularity,
            &header.stats,
            config.chunk_entries,
            table,
        )?;
        // With an intact snapshot, a WAL whose *header* cannot even be
        // decoded (truncated by a disk-full crash during reset, zeroed,
        // overwritten) is treated like a stale WAL: the snapshot is the
        // authoritative committed state, and the checkpoint below lays
        // down a fresh log. Intact-but-mismatched WALs still error.
        let wal_contents = match wal_scan {
            None => None,
            Some(Ok(contents)) => Some(contents),
            Some(Err(PersistError::Corrupt { .. })) => None,
            Some(Err(e)) => return Err(e),
        };
        (
            store,
            Some(header.wal_epoch),
            header.wal_records_applied,
            wal_contents,
        )
    } else {
        let contents = wal_scan.expect("have_wal when no snapshot exists")?;
        let h = contents.header;
        if h.hash_bits != H::BITS {
            return Err(PersistError::Mismatch {
                context: format!(
                    "WAL hashes are {}-bit, store type is {}-bit",
                    h.hash_bits,
                    H::BITS
                ),
            });
        }
        if let Some(expect) = expect {
            check_config(expect, h.scheme_seed, h.shard_count, h.granularity)?;
        }
        let store = AlphaStore::from_loaded(
            HashScheme::from_raw_seed(h.scheme_seed),
            (0..h.shard_count)
                .map(|_| crate::store::Shard::empty())
                .collect(),
            h.granularity,
            &crate::stats::StoreStats::default(),
            config.chunk_entries,
            table,
        )?;
        (store, None, 0, Some(contents))
    };

    // 2. The WAL tail.
    let mut last_epoch = snap_epoch.unwrap_or(0);
    // `Some((records, good_len))` when the reopen is *clean*: intact
    // snapshot, intact same-epoch WAL whose every record the snapshot
    // already absorbed.
    let mut clean_wal: Option<(u64, u64)> = None;
    // WAL records fed back through the ingest path, for
    // [`AlphaStore::recovery_info`].
    let mut replayed_records: u64 = 0;
    if let Some(contents) = wal_contents {
        let h = contents.header;
        if h.hash_bits != H::BITS
            || h.scheme_seed != store.scheme().seed()
            || h.granularity != store.granularity()
            || usize::try_from(h.shard_count) != Ok(store.shard_count())
        {
            return Err(PersistError::Mismatch {
                context: "WAL header disagrees with the snapshot it extends".to_owned(),
            });
        }
        match snap_epoch {
            Some(es) if h.epoch > es => {
                return Err(PersistError::Corrupt {
                    context: format!(
                        "WAL epoch {} is ahead of snapshot epoch {es} — the snapshot \
                         this WAL extends is missing",
                        h.epoch
                    ),
                });
            }
            Some(es) if h.epoch < es => {
                // Crash between compaction's snapshot rename and WAL
                // reset: every record in this WAL is already folded into
                // the snapshot. Discard.
                last_epoch = es;
            }
            _ => {
                // Same epoch (or no snapshot at all): replay the records
                // the snapshot has not absorbed. A tail torn inside the
                // already-applied region means those lost records are in
                // the snapshot anyway.
                last_epoch = h.epoch.max(last_epoch);
                let count = contents.total_records;
                if have_snapshot && !contents.torn && count == records_applied {
                    // Clean reopen: the snapshot already holds every WAL
                    // record and the file is intact — it can simply
                    // continue being appended to.
                    clean_wal = Some((records_applied, contents.good_len));
                } else {
                    let tail = drop_applied_records(contents.groups, records_applied);
                    replayed_records = tail.iter().map(|g| g.len() as u64).sum();
                    let t = std::time::Instant::now();
                    store.replay(tail, config.verify_on_replay)?;
                    replay_ns = t.elapsed().as_nanos() as u64;
                }
            }
        }
    }

    store.record_recovery(snap_load_ns, replay_ns);
    store.recovery = Some(crate::store::RecoveryInfo {
        replayed_records,
        clean: clean_wal.is_some(),
    });

    // 3a. Clean reopen: nothing was replayed and nothing was torn, so the
    // on-disk pair is already in a consistent state — skip the O(store)
    // checkpoint and keep appending to the existing WAL.
    if let Some((records, good_len)) = clean_wal {
        let wal = wal::Wal::open_for_append(
            &*config.vfs,
            &wal_path,
            last_epoch,
            records,
            good_len,
            config.sync_on_commit,
        )?;
        store.set_reliability(config.retry, config.auto_ckpt);
        store.attach_durable(Durable {
            wal: Mutex::new(wal),
            dir: dir.to_owned(),
            vfs: config.vfs,
            _lock: lock,
        });
        return Ok(store);
    }

    // 3b. Checkpoint: the recovered state becomes the new snapshot and the
    // WAL restarts empty under the next epoch, so the on-disk pair is in
    // the clean post-compaction state no matter what was recovered (this
    // is also what migrates a v1 store to the current format).
    let new_epoch = last_epoch + 1;
    let header = wal::WalHeader {
        hash_bits: H::BITS,
        scheme_seed: store.scheme().seed(),
        shard_count: u32::try_from(store.shard_count()).expect("shard count fits u32"),
        granularity: store.granularity(),
        epoch: new_epoch,
    };
    store.write_snapshot_file(&*config.vfs, &snap_path, new_epoch, 0)?;
    let wal = wal::Wal::create(&*config.vfs, &wal_path, header, config.sync_on_commit)?;
    store.set_reliability(config.retry, config.auto_ckpt);
    store.attach_durable(Durable {
        wal: Mutex::new(wal),
        dir: dir.to_owned(),
        vfs: config.vfs,
        _lock: lock,
    });
    Ok(store)
}

/// Drops the first `applied` entries (the ones the snapshot already
/// absorbed) from a group list, preserving the grouping of everything
/// after them. Snapshot cuts always land on group boundaries (the
/// maintenance lock excludes mid-group cuts), so the split-a-group branch
/// only triggers on hand-damaged files — where splitting is still the
/// right conservative answer.
fn drop_applied_records<T>(groups: Vec<Vec<T>>, applied: u64) -> Vec<Vec<T>> {
    let mut to_skip = usize::try_from(applied).unwrap_or(usize::MAX);
    let mut out = Vec::with_capacity(groups.len());
    for group in groups {
        if to_skip == 0 {
            out.push(group);
        } else if group.len() <= to_skip {
            to_skip -= group.len();
        } else {
            out.push(group.into_iter().skip(to_skip).collect());
            to_skip = 0;
        }
    }
    out
}

/// Creates a brand-new durable store directory (no snapshot yet, empty
/// WAL) for a builder's configuration. The caller already holds the
/// directory lock and has confirmed, under that lock, that no store
/// files exist.
fn create_store_locked<H: HashWord>(
    dir: &Path,
    expect: &ExpectedConfig<H>,
    config: OpenConfig,
    lock: std::fs::File,
) -> Result<AlphaStore<H>, PersistError> {
    let header = wal::WalHeader {
        hash_bits: H::BITS,
        scheme_seed: expect.scheme.seed(),
        shard_count: expect.shard_count,
        granularity: expect.granularity,
        epoch: 1,
    };
    let wal = wal::Wal::create(
        &*config.vfs,
        &dir.join(WAL_FILE),
        header,
        config.sync_on_commit,
    )?;
    let mut store = AlphaStore::from_loaded(
        expect.scheme,
        (0..expect.shard_count)
            .map(|_| crate::store::Shard::empty())
            .collect(),
        expect.granularity,
        &crate::stats::StoreStats::default(),
        config.chunk_entries,
        CanonTable::new(),
    )?;
    store.set_reliability(config.retry, config.auto_ckpt);
    store.attach_durable(Durable {
        wal: Mutex::new(wal),
        dir: dir.to_owned(),
        vfs: config.vfs,
        _lock: lock,
    });
    Ok(store)
}
