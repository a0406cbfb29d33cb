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
//!   since that snapshot: one CRC-framed record per ingested term (its
//!   frontier canon in a `Roots` store, the term itself in a
//!   `Subexpressions` store), one
//!   **delta record** per [`update`](crate::AlphaStore::update) (old
//!   root + spine path + patch canon, not the full rewritten term), plus
//!   a **commit marker** per group commit, so replay can reproduce the
//!   original batch grouping exactly.
//!
//! Both files open with the same store identity (hash width, scheme seed,
//! shard count, granularity), and one open path serves
//! [`AlphaStore::open`](crate::AlphaStore::open) and
//! [`StoreBuilder::open_durable`](crate::StoreBuilder::open_durable): it
//! checks each file's identity against the opening store's, loads the
//! snapshot, replays the WAL tail **through the normal ingest path** —
//! every replayed merge is re-confirmed by canonical-form identity, so the
//! store's exactness invariant (`unconfirmed_merges == 0`) survives
//! restarts by construction, not by trust in the disk — and then, unless
//! the reopen was clean, checkpoints: it writes a fresh snapshot and
//! resets the WAL under a new epoch, so every successfully opened store
//! starts from a consistent `(snapshot, WAL)` pair whatever crash
//! weirdness it recovered from. [`verify_on_replay`](crate::StoreBuilder::verify_on_replay) upgrades a `Roots`
//! store's replay to paranoid mode: every record is re-hashed from its
//! canonical payload before being trusted, catching consistent
//! corruption that CRC framing and merge confirmation cannot see. A
//! `Subexpressions` store's records are its terms as ingested, re-hashed
//! on every replay.
//!
//! What each crash window leaves behind:
//!
//! | crash during … | on disk | recovery |
//! |---|---|---|
//! | normal ingest | snapshot + WAL with a possibly-torn tail | replay good frames, drop the torn tail |
//! | snapshot write | old snapshot + complete WAL (temp file ignored) | replay from the old snapshot |
//! | compaction, between snapshot rename and WAL reset | new snapshot + **stale-epoch** WAL | epoch mismatch detected, stale WAL discarded (its records are in the snapshot) |
//!
//! The byte-level layout lives in [`mod@format`], built on the scalars,
//! frames and count rule of [`crate::codec`], and is specified in
//! `docs/PERSISTENCE_FORMAT.md`; a test asserts the two agree on magic
//! numbers and versions. Only the current format version decodes; files
//! of any other version are refused with [`PersistError::Mismatch`].

pub mod format;
#[cfg(test)]
mod mutation;
pub(crate) mod snapshot;
pub mod vfs;
pub(crate) mod wal;

use crate::canon::rebuild_named;
use crate::dag::CanonTable;
use crate::granularity::StoreBuilder;
use crate::store::AlphaStore;
use alpha_hash::combine::{HashScheme, HashWord};
use format::RawRecord;
use lambda_lang::debruijn::DbNode;
use lambda_lang::ExprArena;
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, RwLock};
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
    /// Intact data that belongs to a different store: a format version
    /// other than the current one, or a file whose identity (hash width,
    /// scheme seed, shard count, granularity) differs from the opening
    /// store's — the builder's, or the one the other file carries.
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

impl From<crate::codec::DecodeError> for PersistError {
    fn from(e: crate::codec::DecodeError) -> Self {
        PersistError::Corrupt {
            context: e.to_string(),
        }
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

/// Paranoid-mode validation of a `Roots` record: recompute what the
/// record *claims* from its canonical payload alone. The tree size is
/// re-derived by a sharing-aware DP over the record's node run, then the
/// canon is rebuilt to a named term and pushed through the full hashing
/// pipeline; any disagreement with the recorded `node_count`/`hash` is
/// corruption that frame CRCs (computed over already-corrupt bytes) and
/// merge confirmation (which only compares canon against canon) cannot
/// catch. (A `Subexpressions` record is re-prepared, and so re-hashed,
/// on every replay.)
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
    if sizes[raw.pos.index()] != raw.node_count {
        return Err(PersistError::Corrupt {
            context: format!(
                "verify_on_replay: recorded node count {} but canonical payload has {}",
                raw.node_count,
                sizes[raw.pos.index()]
            ),
        });
    }
    let mut scratch = ExprArena::new();
    let named = rebuild_named(&raw.canon, raw.pos, &mut scratch);
    if alpha_hash::hashed::hash_expr(&scratch, named, scheme) != raw.hash {
        return Err(PersistError::Corrupt {
            context: "verify_on_replay: canonical payload re-hashes to a different \
                      content address than the record claims"
                .to_owned(),
        });
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

/// The one durable-open path, behind
/// [`StoreBuilder::open_durable`](crate::StoreBuilder::open_durable)
/// (`create`) and [`AlphaStore::open`] (not `create`).
///
/// With `create`, a directory holding no store gets a fresh one, and an
/// existing store must carry the builder's identity. Without it, the
/// store must exist and its scheme seed, shard count and granularity are
/// read from disk; the hash width is always the store type's. Either
/// way, both files are checked against the opening store's
/// [`StoreIdentity`](format::StoreIdentity) by the one rule
/// [`StoreIdentity::check`](format::StoreIdentity::check).
///
/// The directory lock is taken **before** deciding between recovery and
/// creation, so a racing second opener can never observe "empty" and
/// truncate files a first opener is writing.
pub(crate) fn open<H: HashWord>(
    dir: &Path,
    builder: StoreBuilder<H>,
    create: bool,
) -> Result<AlphaStore<H>, PersistError> {
    if create {
        std::fs::create_dir_all(dir)?;
    }
    let lock = acquire_dir_lock(dir)?;
    let wal_path = dir.join(WAL_FILE);
    let vfs = Arc::clone(&builder.vfs);
    // A WAL alone whose fixed header never finished reaching the disk is
    // a creation that crashed mid-flight: nothing was ever committed
    // through it, so it does not count as an existing store and creation
    // (which truncates it) starts over.
    let fresh = create
        && !dir.join(SNAPSHOT_FILE).is_file()
        && !(wal_path.is_file() && wal::header_intact(&wal_path));
    let (mut store, wal) = if fresh {
        let store = AlphaStore::new(&builder);
        let header = wal::WalHeader {
            identity: store.identity(),
            epoch: 1,
        };
        let wal = wal::Wal::create(&*vfs, &wal_path, header, builder.sync_on_commit)?;
        (store, wal)
    } else {
        recover(dir, builder, create)?
    };
    store.attach_durable(Durable {
        wal: Mutex::new(wal),
        dir: dir.to_owned(),
        vfs,
        _lock: lock,
    });
    Ok(store)
}

/// Recovers the store in `dir` for [`open`] and returns it with the WAL
/// it goes on appending to. Ends with a checkpoint — fresh snapshot,
/// reset WAL, next epoch — unless the reopen was *clean* (intact
/// snapshot, same-epoch WAL fully absorbed, nothing torn), in which case
/// the existing WAL simply continues: no O(store) snapshot rewrite for a
/// no-op reopen.
fn recover<H: HashWord>(
    dir: &Path,
    builder: StoreBuilder<H>,
    create: bool,
) -> Result<(AlphaStore<H>, wal::Wal), PersistError> {
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
    let vfs = Arc::clone(&builder.vfs);

    // 0. Read the WAL once up front; both the identity check and the
    // replay step below consume this same scan.
    let wal_scan = have_wal.then(|| wal::read_wal::<H>(&*vfs, &wal_path));

    // 1. The snapshot. Every canonical form decoded anywhere below
    // interns into this one table, which the store then owns. Recovery
    // phases are timed here and folded into the store's obs registry
    // once the store exists.
    let table = CanonTable::new();
    let t = std::time::Instant::now();
    let snapshot = have_snapshot
        .then(|| snapshot::read_snapshot::<H>(&*vfs, &snap_path, &table))
        .transpose()?;
    let snap_load_ns = if have_snapshot {
        t.elapsed().as_nanos() as u64
    } else {
        0
    };
    let mut replay_ns = 0u64;
    // With an intact snapshot, a WAL whose *header* cannot even be
    // decoded (truncated by a disk-full crash during reset, zeroed,
    // overwritten) is treated like a stale WAL: the snapshot is the
    // authoritative committed state, and the checkpoint below lays down
    // a fresh log. Without a snapshot there is nothing to fall back on.
    let wal_contents = match wal_scan {
        Some(Err(PersistError::Corrupt { .. })) if have_snapshot => None,
        scan => scan.transpose()?,
    };

    // 2. The identity. Without `create` the store takes the one on disk
    // (the snapshot's, else the WAL's); either way every file present
    // must match the store's.
    let builder = if create {
        builder
    } else {
        let found = match (&snapshot, &wal_contents) {
            (Some((header, _)), _) => header.identity,
            (None, contents) => {
                contents
                    .as_ref()
                    .expect("a WAL without a snapshot")
                    .header
                    .identity
            }
        };
        builder
            .scheme(HashScheme::from_raw_seed(found.scheme_seed))
            .shards(found.shard_count as usize)
            .granularity(found.granularity)
    };
    let mut store = AlphaStore::new(&builder);
    let identity = store.identity();
    if let Some((header, _)) = &snapshot {
        identity.check(&header.identity, SNAPSHOT_FILE)?;
    }
    if let Some(contents) = &wal_contents {
        identity.check(&contents.header.identity, WAL_FILE)?;
    }
    let (snap_epoch, records_applied) = match snapshot {
        Some((header, mut shards)) => {
            // Same shard count as the store's: the identity says so. A
            // `Subexpressions` store re-summarises each class's decoded
            // form into its key; the decoded table is dropped.
            if store.granularity().indexes_subexpressions() {
                for class in shards.iter_mut().flat_map(|s| s.classes.iter_mut()) {
                    let (db, root) = crate::dag::extract_one(&table, class.canon);
                    class.canon = store.key_of(&db, root);
                }
            } else {
                store.table = table;
            }
            store.shards = shards.into_iter().map(RwLock::new).collect();
            store.counters.restore(&header.stats);
            (Some(header.wal_epoch), header.wal_records_applied)
        }
        None => (None, 0),
    };

    // 3. The WAL tail.
    let mut last_epoch = snap_epoch.unwrap_or(0);
    // `Some((records, good_len))` when the reopen is *clean*: intact
    // snapshot, intact same-epoch WAL whose every record the snapshot
    // already absorbed.
    let mut clean_wal: Option<(u64, u64)> = None;
    // WAL records fed back through the ingest path, for
    // [`AlphaStore::recovery_info`].
    let mut replayed_records: u64 = 0;
    if let Some(contents) = wal_contents {
        let epoch = contents.header.epoch;
        match snap_epoch {
            Some(es) if epoch > es => {
                return Err(PersistError::Corrupt {
                    context: format!(
                        "WAL epoch {epoch} is ahead of snapshot epoch {es} — the snapshot \
                         this WAL extends is missing"
                    ),
                });
            }
            Some(es) if epoch < es => {
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
                last_epoch = epoch.max(last_epoch);
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
                    store.replay(&contents.arena, tail, builder.verify_on_replay)?;
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

    let wal = match clean_wal {
        // 4a. Clean reopen: nothing was replayed and nothing was torn, so
        // the on-disk pair is already in a consistent state — skip the
        // O(store) checkpoint and keep appending to the existing WAL.
        Some((records, good_len)) => wal::Wal::open_for_append(
            &*vfs,
            &wal_path,
            last_epoch,
            records,
            good_len,
            builder.sync_on_commit,
        )?,
        // 4b. Checkpoint: the recovered state becomes the new snapshot
        // and the WAL restarts empty under the next epoch, so the on-disk
        // pair is in the clean post-compaction state no matter what was
        // recovered.
        None => {
            let new_epoch = last_epoch + 1;
            store.write_snapshot_file(&*vfs, &snap_path, new_epoch, 0)?;
            let header = wal::WalHeader {
                identity,
                epoch: new_epoch,
            };
            wal::Wal::create(&*vfs, &wal_path, header, builder.sync_on_commit)?
        }
    };
    Ok((store, wal))
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
