//! The `alphahashd` wire protocol: framing, operation/status codes, and
//! the payload codecs shared by server and client.
//!
//! The byte-level contract lives in `docs/PROTOCOL.md`; the
//! [`spec_documents_the_compiled_constants`](#) test at the bottom of
//! this file keeps that document honest against the compiled constants,
//! the same pattern `persist/format.rs` uses for the persistence spec.
//!
//! Scalars, strings, the stats block, counts, the frame header and the
//! term encoding are [`alpha_store::codec`]'s, the one codec the WAL and
//! the snapshot use too — no serde, no tokio. A connection is a
//! sequence of **frames**; each frame is one request or response payload
//! guarded by length and CRC:
//!
//! ```text
//! [len: u32][crc32(payload): u32][payload: len bytes]
//! ```
//!
//! Request payloads start with an op code byte, response payloads with a
//! status byte; batch operations stream as an announce frame, chunk
//! frames, and an end frame in each direction (see `docs/PROTOCOL.md`).

use std::io::{self, IoSlice, Read, Write};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use alpha_store::codec::{
    self, check_frame, frame_header, put_count, put_opt_u64, put_str, put_u16, put_u32, put_u64,
    put_u8, take_bytes, take_count, take_frame_header, take_opt_u64, take_str, take_u16, take_u32,
    take_u64, take_u8, DecodeError, FRAME_HEADER_LEN,
};
use alpha_store::StoreStats;
use lambda_lang::{ExprArena, NodeId};

/// First bytes of every connection: the client's handshake frame opens
/// with this magic so a server can reject strangers (an HTTP request,
/// a stray TLS hello) before parsing anything else.
pub const PROTOCOL_MAGIC: [u8; 4] = *b"AHDP";

/// Wire protocol version, bumped on any incompatible frame or payload
/// change. Client sends it in the handshake; a server that cannot speak
/// it answers [`ERR_UNSUPPORTED_VERSION`] and closes.
///
/// Version 2 added the [`OP_UPDATE`] operation and widened
/// [`RemoteOutcome`] with the term handle (33 → 41 bytes), so version-1
/// clients cannot parse version-2 responses.
pub const PROTOCOL_VERSION: u16 = 2;

/// Hard upper bound on one frame's payload, enforced by both sides
/// before allocating: a length prefix beyond this is treated as a
/// protocol violation, not an allocation request.
pub const MAX_FRAME_LEN: u32 = 64 * 1024 * 1024;

// ---------------------------------------------------------------------
// Op codes (first byte of a request payload).

/// Ingest one term; response carries its [`RemoteOutcome`].
pub const OP_INSERT: u8 = 0x01;
/// Announce a streamed insert batch ([`OP_BATCH_CHUNK`]* then
/// [`OP_BATCH_END`] follow on the same connection).
pub const OP_INSERT_BATCH: u8 = 0x02;
/// One chunk of a streamed batch: `[count: u32]` followed by that many
/// encoded terms.
pub const OP_BATCH_CHUNK: u8 = 0x03;
/// Terminates a streamed batch; the server's responses follow.
pub const OP_BATCH_END: u8 = 0x04;
/// Exact-match class lookup of one term (no ingest).
pub const OP_LOOKUP: u8 = 0x05;
/// Containment query modulo alpha for one pattern.
pub const OP_CONTAINS: u8 = 0x06;
/// Announce a streamed containment batch (same chunk framing as insert).
pub const OP_CONTAINS_BATCH: u8 = 0x07;
/// Store statistics + health + recovery snapshot ([`RemoteStats`]).
pub const OP_STATS: u8 = 0x08;
/// Prometheus exposition-format metrics text.
pub const OP_METRICS_PROMETHEUS: u8 = 0x09;
/// Checkpoint the store (snapshot + WAL reset), serialized against
/// serving by the store's maintenance lock.
pub const OP_CHECKPOINT: u8 = 0x0A;
/// Ask the daemon to shut down gracefully: drain, checkpoint, release
/// the directory lock. Acknowledged before the drain begins.
pub const OP_SHUTDOWN: u8 = 0x0B;
/// Incrementally rewrite one previously ingested term in place
/// ([`alpha_store::AlphaStore::try_update`]): payload is the term
/// handle, the rewrite path and the replacement term (see
/// [`put_update`]). Response carries the updated [`RemoteOutcome`].
pub const OP_UPDATE: u8 = 0x0C;

// ---------------------------------------------------------------------
// Status codes (first byte of a response payload).

/// Success; body is op-specific.
pub const RESP_OK: u8 = 0x00;
/// One chunk of a streamed batch response: `[count: u32]` + items.
pub const RESP_CHUNK: u8 = 0x01;
/// Terminates a streamed batch response: `[total items: u64]`.
pub const RESP_END: u8 = 0x02;

/// Frame or payload the server could not parse (bad handshake, bad
/// CRC is a connection-fatal [`WireError::Frame`] instead).
pub const ERR_MALFORMED: u8 = 0x80;
/// Handshake carried a protocol version this server does not speak.
pub const ERR_UNSUPPORTED_VERSION: u8 = 0x81;
/// Unknown op code.
pub const ERR_BAD_OP: u8 = 0x82;
/// A term payload failed to decode (forward reference, bad tag, …).
pub const ERR_TERM: u8 = 0x83;
/// The store is read-only ([`alpha_store::StoreError::Degraded`]):
/// ingest refused, reads still serving.
pub const ERR_READ_ONLY: u8 = 0x84;
/// The daemon is draining for shutdown and no longer accepts work.
pub const ERR_SHUTTING_DOWN: u8 = 0x85;
// 0x86 is retired (it meant "op not compiled into this server"); never
// reuse it.
/// An [`OP_UPDATE`] rewrite was refused before any state changed
/// ([`alpha_store::StoreError::InvalidRewrite`]): unknown term handle,
/// a path that does not resolve, or a replacement that would capture a
/// binder of the host term.
pub const ERR_INVALID_REWRITE: u8 = 0x87;

/// [`alpha_store::PersistError::Io`] surfaced by an ingest/checkpoint.
pub const ERR_PERSIST_IO: u8 = 0x90;
/// [`alpha_store::PersistError::Corrupt`] — on-disk damage.
pub const ERR_PERSIST_CORRUPT: u8 = 0x91;
/// [`alpha_store::PersistError::Mismatch`] — configuration disagreement.
pub const ERR_PERSIST_MISMATCH: u8 = 0x92;
/// [`alpha_store::PersistError::Locked`] — directory lock contention.
pub const ERR_PERSIST_LOCKED: u8 = 0x93;
/// [`alpha_store::PersistError::Wal`] — live WAL failure.
pub const ERR_PERSIST_WAL: u8 = 0x94;
/// [`alpha_store::PersistError::Snapshot`] — snapshot protocol failure.
pub const ERR_PERSIST_SNAPSHOT: u8 = 0x95;

/// The stable wire code for a [`alpha_store::StoreError`], per the
/// PROTOCOL.md error table: `Degraded` (the read-only refusal) maps to
/// [`ERR_READ_ONLY`]; `Persist` maps per variant.
pub fn store_error_code(e: &alpha_store::StoreError) -> u8 {
    match e {
        alpha_store::StoreError::Degraded { .. } => ERR_READ_ONLY,
        alpha_store::StoreError::Persist(p) => persist_error_code(p),
        alpha_store::StoreError::InvalidRewrite { .. } => ERR_INVALID_REWRITE,
    }
}

/// The stable wire code for a [`alpha_store::PersistError`] variant.
pub fn persist_error_code(e: &alpha_store::PersistError) -> u8 {
    use alpha_store::PersistError as P;
    match e {
        P::Io(_) => ERR_PERSIST_IO,
        P::Corrupt { .. } => ERR_PERSIST_CORRUPT,
        P::Mismatch { .. } => ERR_PERSIST_MISMATCH,
        P::Locked { .. } => ERR_PERSIST_LOCKED,
        P::Wal { .. } => ERR_PERSIST_WAL,
        P::Snapshot { .. } => ERR_PERSIST_SNAPSHOT,
    }
}

// ---------------------------------------------------------------------
// Errors.

/// What can go wrong speaking the protocol, from either side's view.
#[derive(Debug)]
pub enum WireError {
    /// The underlying socket failed or closed unexpectedly.
    Io(io::Error),
    /// The peer violated the framing or payload contract: oversized
    /// length prefix, CRC mismatch, truncated payload, impossible tag.
    /// Connection-fatal — there is no resynchronization point.
    Frame(String),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "wire i/o error: {e}"),
            WireError::Frame(msg) => write!(f, "wire protocol violation: {msg}"),
        }
    }
}

impl std::error::Error for WireError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WireError::Io(e) => Some(e),
            WireError::Frame(_) => None,
        }
    }
}

impl From<io::Error> for WireError {
    fn from(e: io::Error) -> Self {
        WireError::Io(e)
    }
}

impl From<DecodeError> for WireError {
    fn from(e: DecodeError) -> Self {
        WireError::Frame(e.to_string())
    }
}

fn frame_err(msg: impl Into<String>) -> WireError {
    WireError::Frame(msg.into())
}

// ---------------------------------------------------------------------
// Framing.

/// Writes one frame: length + CRC header, then the payload, flushed.
///
/// Header and payload go out as one vectored write, so a socket sees
/// one system call per frame instead of two. A short write continues
/// where it stopped and an `Interrupted` one is retried; the payload is
/// never copied.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> Result<(), WireError> {
    let len = u32::try_from(payload.len()).map_err(|_| frame_err("payload exceeds u32"))?;
    if len > MAX_FRAME_LEN {
        return Err(frame_err(format!(
            "payload of {len} bytes exceeds MAX_FRAME_LEN {MAX_FRAME_LEN}"
        )));
    }
    let header = frame_header(payload);
    let mut slices = [IoSlice::new(&header), IoSlice::new(payload)];
    let mut pending = &mut slices[..];
    while !pending.is_empty() {
        match w.write_vectored(pending) {
            Ok(0) => return Err(WireError::Io(io::ErrorKind::WriteZero.into())),
            Ok(n) => IoSlice::advance_slices(&mut pending, n),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(WireError::Io(e)),
        }
    }
    w.flush()?;
    Ok(())
}

/// Reads one frame, verifying the length bound and the payload CRC.
/// `Ok(None)` means the peer closed the connection cleanly *between*
/// frames; EOF mid-frame is a [`WireError::Frame`]. A read timeout is a
/// [`WireError::Io`]: this is the server's reader without its idle hook.
pub fn read_frame(r: &mut impl Read) -> Result<Option<Vec<u8>>, WireError> {
    read_frame_or_stop(r, None, Duration::ZERO)
}

/// How long a draining daemon waits on a peer that has gone silent inside
/// a frame, or between the frames of a streamed batch, before it treats
/// the connection as torn.
pub(crate) const DRAIN_STALL_LIMIT: Duration = Duration::from_secs(1);

/// [`read_frame`] with an idle hook, for a socket with a read timeout.
/// With `stop: Some(flag)`, timeouts are retried until `flag` is set and
/// the peer has sent nothing for `idle` (before the frame's first byte;
/// the read then returns `Ok(None)`) or for [`DRAIN_STALL_LIMIT`] (inside
/// the frame; the read then fails as on a torn connection). So a frame
/// that keeps arriving is read whole, even while the daemon drains. With
/// `stop: None`, a timeout is a [`WireError::Io`].
pub(crate) fn read_frame_or_stop(
    r: &mut impl Read,
    stop: Option<&AtomicBool>,
    idle: Duration,
) -> Result<Option<Vec<u8>>, WireError> {
    let mut header = [0u8; FRAME_HEADER_LEN];
    match read_full(r, &mut header, stop.map(|s| (s, idle)))? {
        0 => return Ok(None),
        FRAME_HEADER_LEN => {}
        n => {
            return Err(frame_err(format!(
                "connection closed or stalled {n} bytes into a frame header"
            )))
        }
    }
    let (claimed, crc) = take_frame_header(&mut header.as_slice())?;
    let len = claimed as usize;
    if claimed > MAX_FRAME_LEN {
        return Err(frame_err(format!(
            "frame length {len} exceeds MAX_FRAME_LEN {MAX_FRAME_LEN}"
        )));
    }
    // The length is untrusted: the buffer grows with the bytes that
    // arrive, at most `READ_AHEAD` ahead of them.
    let mut payload = Vec::new();
    while payload.len() < len {
        let filled = payload.len();
        payload.resize(len.min(filled + READ_AHEAD), 0);
        let hook = stop.map(|s| (s, DRAIN_STALL_LIMIT));
        let got = read_full(r, &mut payload[filled..], hook)?;
        if filled + got < payload.len() {
            return Err(frame_err(format!(
                "connection closed or stalled {} bytes into a {len}-byte payload",
                filled + got
            )));
        }
    }
    check_frame(&payload, crc)?;
    Ok(Some(payload))
}

/// How far a frame's payload buffer may run ahead of the bytes received.
const READ_AHEAD: usize = 64 * 1024;

/// Reads until `buf` is full or EOF; returns the bytes read. Unlike
/// `read_exact` this reports a clean EOF at offset 0 distinguishably,
/// and retries on `Interrupted`. A read timeout is an error without a
/// `hook`. With `hook: Some((stop, idle))` it is retried, except that once
/// `stop` is set a peer silent for `idle` ends the read as an EOF would
/// (for at least [`DRAIN_STALL_LIMIT`] once a byte has arrived). Silence
/// is timed from the first timeout after the last byte.
fn read_full(
    r: &mut impl Read,
    buf: &mut [u8],
    hook: Option<(&AtomicBool, Duration)>,
) -> Result<usize, WireError> {
    let mut filled = 0;
    let mut silent_since = None;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => break,
            Ok(n) => {
                filled += n;
                silent_since = None;
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                let Some((stop, idle)) = hook else {
                    return Err(WireError::Io(e));
                };
                let idle = if filled == 0 {
                    idle
                } else {
                    idle.max(DRAIN_STALL_LIMIT)
                };
                let since: &mut Instant = silent_since.get_or_insert_with(Instant::now);
                if stop.load(Ordering::SeqCst) && since.elapsed() >= idle {
                    break;
                }
            }
            Err(e) => return Err(WireError::Io(e)),
        }
    }
    Ok(filled)
}

// ---------------------------------------------------------------------
// Term codec: `alpha_store::codec`'s, which a `Subexpressions` store's
// WAL records share.

pub use alpha_store::codec::put_term;

/// Decodes one term into `arena` ([`alpha_store::codec::take_term`]),
/// its errors as [`WireError::Frame`].
pub fn take_term(input: &mut &[u8], arena: &mut ExprArena) -> Result<NodeId, WireError> {
    Ok(codec::take_term(input, arena)?)
}

/// Decodes a batch chunk's `count` consecutive terms into `arena`,
/// appending their roots to `roots`. `count` is untrusted: `roots` grows
/// only by the terms decoded. On error `roots` keeps the terms decoded
/// before the damaged one.
pub fn take_terms(
    input: &mut &[u8],
    count: u32,
    arena: &mut ExprArena,
    roots: &mut Vec<NodeId>,
) -> Result<(), WireError> {
    for _ in 0..count {
        roots.push(take_term(input, arena)?);
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Shared payload structures.

/// What the server tells a client right after the handshake.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ServerHello {
    /// Protocol version the server will speak on this connection.
    pub version: u16,
    /// Hash width of the store behind the daemon (64 or 128).
    pub hash_bits: u16,
    /// Shards in the store.
    pub shard_count: u32,
    /// `None` for roots granularity, `Some(min_nodes)` for
    /// subexpression granularity.
    pub subexpr_min_nodes: Option<u64>,
}

/// Encodes the handshake request payload (what `Client::connect` sends).
pub fn put_handshake(out: &mut Vec<u8>, version: u16) {
    out.extend_from_slice(&PROTOCOL_MAGIC);
    put_u16(out, version);
}

/// Decodes a handshake request, returning the client's version.
pub fn take_handshake(input: &mut &[u8]) -> Result<u16, WireError> {
    let magic = take_bytes(input, 4)?;
    if magic != PROTOCOL_MAGIC {
        return Err(frame_err(
            "handshake magic mismatch: not an alphahashd client",
        ));
    }
    Ok(take_u16(input)?)
}

/// Encodes the server hello body (after the [`RESP_OK`] status byte).
pub fn put_hello(out: &mut Vec<u8>, hello: &ServerHello) {
    put_u16(out, hello.version);
    put_u16(out, hello.hash_bits);
    put_u32(out, hello.shard_count);
    put_opt_u64(out, hello.subexpr_min_nodes);
}

/// Decodes a server hello body.
pub fn take_hello(input: &mut &[u8]) -> Result<ServerHello, WireError> {
    let version = take_u16(input)?;
    let hash_bits = take_u16(input)?;
    Ok(ServerHello {
        version,
        hash_bits,
        shard_count: take_u32(input)?,
        subexpr_min_nodes: take_opt_u64(input)?,
    })
}

/// One ingested or updated term's outcome as it crosses the wire: the
/// term handle and class as opaque `to_bits` words plus the freshness
/// and subexpression summary of the operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RemoteOutcome {
    /// The term handle, as [`alpha_store::TermId::to_bits`] bits — what
    /// [`OP_UPDATE`] takes to address this term later.
    pub term: u64,
    /// The class, as [`alpha_store::ClassId::to_bits`] bits.
    pub class: u64,
    /// `true` iff this operation created the class.
    pub fresh: bool,
    /// Proper subexpression occurrences indexed by this operation.
    pub subs_indexed: u64,
    /// Of those, occurrences merged into an existing class.
    pub subs_merged: u64,
    /// Occurrences skipped by the granularity's `min_nodes` floor.
    pub subs_skipped_min_nodes: u64,
}

impl From<&alpha_store::InsertOutcome> for RemoteOutcome {
    fn from(o: &alpha_store::InsertOutcome) -> Self {
        RemoteOutcome {
            term: o.term.to_bits(),
            class: o.class.to_bits(),
            fresh: o.fresh,
            subs_indexed: o.subs.indexed,
            subs_merged: o.subs.merged,
            subs_skipped_min_nodes: o.subs.skipped_min_nodes,
        }
    }
}

impl From<&alpha_store::UpdateOutcome> for RemoteOutcome {
    fn from(o: &alpha_store::UpdateOutcome) -> Self {
        RemoteOutcome {
            term: o.term.to_bits(),
            class: o.class.to_bits(),
            fresh: o.fresh,
            subs_indexed: o.subs.indexed,
            subs_merged: o.subs.merged,
            subs_skipped_min_nodes: o.subs.skipped_min_nodes,
        }
    }
}

/// Encodes one [`RemoteOutcome`] (a fixed 41-byte record).
pub fn put_outcome(out: &mut Vec<u8>, o: &RemoteOutcome) {
    put_u64(out, o.term);
    put_u64(out, o.class);
    put_u8(out, u8::from(o.fresh));
    put_u64(out, o.subs_indexed);
    put_u64(out, o.subs_merged);
    put_u64(out, o.subs_skipped_min_nodes);
}

/// Decodes one [`RemoteOutcome`].
pub fn take_outcome(input: &mut &[u8]) -> Result<RemoteOutcome, WireError> {
    Ok(RemoteOutcome {
        term: take_u64(input)?,
        class: take_u64(input)?,
        fresh: take_u8(input)? != 0,
        subs_indexed: take_u64(input)?,
        subs_merged: take_u64(input)?,
        subs_skipped_min_nodes: take_u64(input)?,
    })
}

/// Encodes an [`OP_UPDATE`] request body (after the op byte): the term
/// handle, the rewrite path (child-slot steps into the term's canonical
/// representative), and the replacement term.
pub fn put_update(out: &mut Vec<u8>, term: u64, path: &[u32], arena: &ExprArena, root: NodeId) {
    put_u64(out, term);
    put_count(out, path.len());
    for &slot in path {
        put_u32(out, slot);
    }
    put_term(out, arena, root);
}

/// Decodes an [`OP_UPDATE`] request body into `(term bits, path, patch
/// root)`, with the patch decoded into `arena`.
pub fn take_update(
    input: &mut &[u8],
    arena: &mut ExprArena,
) -> Result<(u64, Vec<u32>, NodeId), WireError> {
    let term = take_u64(input)?;
    let path = (0..take_count(input, 4)?)
        .map(|_| take_u32(input))
        .collect::<Result<_, _>>()?;
    let root = take_term(input, arena)?;
    Ok((term, path, root))
}

/// Point-in-time store state as served by [`OP_STATS`]: the ingest
/// counters, the class/term census, durability and health, what
/// recovery did at open, and the full metrics report as JSON.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RemoteStats {
    /// The store's ingest counters ([`alpha_store::AlphaStore::stats`]).
    pub store: StoreStats,
    /// Distinct classes currently in the store.
    pub num_classes: u64,
    /// Terms currently tracked by the store.
    pub num_terms: u64,
    /// WAL records since the last checkpoint; `None` for in-memory.
    pub wal_records: Option<u64>,
    /// Health state code (0 healthy / 1 degraded / 2 read-only).
    pub health_code: u8,
    /// Health failure description (empty when healthy).
    pub health_reason: String,
    /// WAL records replayed when the store was opened, with the
    /// clean-reopen flag; `None` for in-memory or fresh stores.
    pub recovery: Option<(u64, bool)>,
    /// The store's `obs_report().to_json()`.
    pub obs_json: String,
}

/// Encodes a [`RemoteStats`] body.
pub fn put_stats(out: &mut Vec<u8>, s: &RemoteStats) {
    codec::put_store_stats(out, &s.store);
    put_u64(out, s.num_classes);
    put_u64(out, s.num_terms);
    put_opt_u64(out, s.wal_records);
    put_u8(out, s.health_code);
    put_str(out, &s.health_reason);
    match s.recovery {
        None => put_u8(out, 0),
        Some((replayed, clean)) => {
            put_u8(out, 1);
            put_u64(out, replayed);
            put_u8(out, u8::from(clean));
        }
    }
    put_str(out, &s.obs_json);
}

/// Decodes a [`RemoteStats`] body.
pub fn take_stats(input: &mut &[u8]) -> Result<RemoteStats, WireError> {
    let mut s = RemoteStats {
        store: codec::take_store_stats(input)?,
        num_classes: take_u64(input)?,
        num_terms: take_u64(input)?,
        ..RemoteStats::default()
    };
    s.wal_records = take_opt_u64(input)?;
    s.health_code = take_u8(input)?;
    s.health_reason = take_str(input)?.to_owned();
    s.recovery = match take_u8(input)? {
        0 => None,
        1 => Some((take_u64(input)?, take_u8(input)? != 0)),
        tag => return Err(frame_err(format!("unknown option tag {tag}"))),
    };
    s.obs_json = take_str(input)?.to_owned();
    Ok(s)
}

/// Encodes an error response: status byte + message string.
pub fn put_error(out: &mut Vec<u8>, code: u8, message: &str) {
    put_u8(out, code);
    put_str(out, message);
}

#[cfg(test)]
mod tests {
    use super::*;
    use alpha_store::codec::crc32;
    use lambda_lang::parse;

    // Node and literal tags of a term run (`docs/PROTOCOL.md` §5).
    const NODE_APP: u8 = 0x02;
    const NODE_LIT: u8 = 0x04;
    const LIT_BOOL: u8 = 0x02;

    #[test]
    fn term_round_trips_exactly() {
        let mut src_arena = ExprArena::new();
        let root =
            parse(&mut src_arena, r"let f = \x. \y. x + (y * 2) in f true 3").expect("parses");
        let mut bytes = Vec::new();
        put_term(&mut bytes, &src_arena, root);
        let mut input = bytes.as_slice();
        let mut dst_arena = ExprArena::new();
        let decoded = take_term(&mut input, &mut dst_arena).expect("decodes");
        assert!(input.is_empty(), "decoder consumed the whole run");
        assert!(
            lambda_lang::alpha_eq(&src_arena, root, &dst_arena, decoded),
            "decoded term is alpha-equal to the original"
        );
        // Names survive verbatim, so the round trip is printed-identical
        // too, not just alpha-equal.
        assert_eq!(
            lambda_lang::print(&src_arena, root),
            lambda_lang::print(&dst_arena, decoded)
        );
    }

    #[test]
    fn term_decoder_rejects_forward_references() {
        let mut bytes = Vec::new();
        put_u32(&mut bytes, 0); // no names
        put_u32(&mut bytes, 2); // two nodes
        put_u8(&mut bytes, NODE_APP); // children point forward/self
        put_u32(&mut bytes, 0);
        put_u32(&mut bytes, 1);
        put_u8(&mut bytes, NODE_LIT);
        put_u8(&mut bytes, LIT_BOOL);
        put_u8(&mut bytes, 1);
        let mut arena = ExprArena::new();
        let err = take_term(&mut bytes.as_slice(), &mut arena);
        assert!(matches!(err, Err(WireError::Frame(_))));
    }

    #[test]
    fn frame_round_trips_and_rejects_corruption() {
        let payload = b"hello alphahashd".to_vec();
        let mut buf = Vec::new();
        write_frame(&mut buf, &payload).expect("writes");
        let got = read_frame(&mut buf.as_slice())
            .expect("reads")
            .expect("one frame");
        assert_eq!(got, payload);
        // Flip one payload bit: the CRC must catch it.
        let mut bad = buf.clone();
        let last = bad.len() - 1;
        bad[last] ^= 0x01;
        assert!(matches!(
            read_frame(&mut bad.as_slice()),
            Err(WireError::Frame(_))
        ));
        // Clean EOF between frames is None, not an error.
        assert!(read_frame(&mut [].as_slice()).expect("clean eof").is_none());
    }

    #[test]
    fn stats_and_outcome_round_trip() {
        let stats = RemoteStats {
            store: StoreStats {
                terms_ingested: 10,
                classes_created: 4,
                merges_confirmed: 6,
                ..StoreStats::default()
            },
            num_classes: 4,
            num_terms: 10,
            wal_records: Some(7),
            health_code: 2,
            health_reason: "disk full".to_owned(),
            recovery: Some((3, false)),
            obs_json: "{}".to_owned(),
        };
        let mut bytes = Vec::new();
        put_stats(&mut bytes, &stats);
        assert_eq!(take_stats(&mut bytes.as_slice()).expect("decodes"), stats);

        let outcome = RemoteOutcome {
            term: 0x0002_0000_0000_0009,
            class: 0xDEAD_BEEF_0000_0001,
            fresh: true,
            subs_indexed: 5,
            subs_merged: 2,
            subs_skipped_min_nodes: 1,
        };
        let mut bytes = Vec::new();
        put_outcome(&mut bytes, &outcome);
        assert_eq!(bytes.len(), 41, "the spec's fixed record size");
        assert_eq!(
            take_outcome(&mut bytes.as_slice()).expect("decodes"),
            outcome
        );
    }

    #[test]
    fn update_request_round_trips() {
        let mut arena = ExprArena::new();
        let patch = parse(&mut arena, "v * 4").expect("parses");
        let mut bytes = Vec::new();
        put_update(&mut bytes, 0x0001_0000_0000_0002, &[0, 1], &arena, patch);
        let mut input = bytes.as_slice();
        let mut dst = ExprArena::new();
        let (term, path, root) = take_update(&mut input, &mut dst).expect("decodes");
        assert!(input.is_empty());
        assert_eq!(term, 0x0001_0000_0000_0002);
        assert_eq!(path, vec![0, 1]);
        assert!(lambda_lang::alpha_eq(&arena, patch, &dst, root));
    }

    /// The bytes `write_frame` must put on the wire for `payload`.
    fn framed(payload: &[u8]) -> Vec<u8> {
        let mut bytes = Vec::new();
        put_u32(
            &mut bytes,
            u32::try_from(payload.len()).expect("small payload"),
        );
        put_u32(&mut bytes, crc32(payload));
        bytes.extend_from_slice(payload);
        bytes
    }

    fn payloads() -> Vec<Vec<u8>> {
        vec![
            Vec::new(),
            vec![0x2A],
            b"hello alphahashd".to_vec(),
            (0..100_000u32).map(|i| (i % 251) as u8).collect(),
        ]
    }

    /// Accepts every byte it is offered and counts the calls offering them.
    #[derive(Default)]
    struct CountingSink {
        bytes: Vec<u8>,
        writes: usize,
    }

    impl Write for CountingSink {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.write_vectored(&[IoSlice::new(buf)])
        }

        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
            self.writes += 1;
            let before = self.bytes.len();
            for buf in bufs {
                self.bytes.extend_from_slice(buf);
            }
            Ok(self.bytes.len() - before)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn write_frame_issues_one_write_per_frame() {
        for payload in payloads() {
            let mut sink = CountingSink::default();
            write_frame(&mut sink, &payload).expect("writes");
            assert_eq!(sink.writes, 1, "{}-byte payload", payload.len());
            assert_eq!(sink.bytes, framed(&payload));
        }
    }

    /// Takes one to three bytes per call, spanning slice boundaries, and
    /// fails every fifth call with `Interrupted`.
    #[derive(Default)]
    struct TrickleSink {
        bytes: Vec<u8>,
        calls: usize,
    }

    impl Write for TrickleSink {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.write_vectored(&[IoSlice::new(buf)])
        }

        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
            self.calls += 1;
            if self.calls.is_multiple_of(5) {
                return Err(io::ErrorKind::Interrupted.into());
            }
            let budget = 1 + self.calls % 3;
            let taken: Vec<u8> = bufs
                .iter()
                .flat_map(|b| b.iter().copied())
                .take(budget)
                .collect();
            self.bytes.extend_from_slice(&taken);
            Ok(taken.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn write_frame_survives_short_and_interrupted_writes() {
        for payload in payloads().into_iter().take(3) {
            let mut sink = TrickleSink::default();
            write_frame(&mut sink, &payload).expect("writes");
            assert_eq!(
                sink.bytes,
                framed(&payload),
                "header ‖ payload, nothing else"
            );
            let back = read_frame(&mut sink.bytes.as_slice())
                .expect("reads")
                .expect("one frame");
            assert_eq!(back, payload);
        }
    }

    /// Serves `bytes` in order, failing once with `fault` when the read
    /// position reaches `fault_at`, then EOF.
    struct Scripted {
        bytes: Vec<u8>,
        pos: usize,
        fault_at: usize,
        fault: Option<io::ErrorKind>,
    }

    impl Read for Scripted {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            if self.pos == self.fault_at {
                if let Some(kind) = self.fault.take() {
                    return Err(kind.into());
                }
            }
            let limit = if self.fault.is_some() {
                self.fault_at
            } else {
                self.bytes.len()
            };
            let n = buf.len().min(limit - self.pos);
            buf[..n].copy_from_slice(&self.bytes[self.pos..self.pos + n]);
            self.pos += n;
            Ok(n)
        }
    }

    const PAYLOAD: &[u8] = b"hello alphahashd";
    /// Before the header, mid-header, mid-payload.
    const FAULT_POINTS: [usize; 3] = [0, 3, 8 + 5];
    const TIMEOUTS: [io::ErrorKind; 2] = [io::ErrorKind::WouldBlock, io::ErrorKind::TimedOut];

    fn read_with_fault(
        kind: io::ErrorKind,
        fault_at: usize,
        stop: Option<bool>,
    ) -> Result<Option<Vec<u8>>, WireError> {
        let mut r = Scripted {
            bytes: framed(PAYLOAD),
            pos: 0,
            fault_at,
            fault: Some(kind),
        };
        let flag = stop.map(AtomicBool::new);
        read_frame_or_stop(&mut r, flag.as_ref(), Duration::ZERO)
    }

    #[test]
    fn idle_timeout_with_stop_set_ends_the_read() {
        for kind in TIMEOUTS {
            let got = read_with_fault(kind, 0, Some(true)).expect("no error");
            assert!(got.is_none(), "{kind:?} before the header");
        }
    }

    #[test]
    fn started_frame_is_read_whole_whatever_the_stop_flag() {
        for kind in TIMEOUTS {
            for at in FAULT_POINTS {
                for stop in [false, true] {
                    if at == 0 && stop {
                        continue; // idle: the read ends instead
                    }
                    let got = read_with_fault(kind, at, Some(stop));
                    assert_eq!(
                        got.expect("no error").as_deref(),
                        Some(PAYLOAD),
                        "{kind:?} at byte {at}, stop {stop}"
                    );
                }
            }
        }
    }

    #[test]
    fn timeout_without_hook_is_an_io_error() {
        for kind in TIMEOUTS {
            for at in FAULT_POINTS {
                match read_with_fault(kind, at, None) {
                    Err(WireError::Io(e)) => assert_eq!(e.kind(), kind, "at byte {at}"),
                    other => panic!("{kind:?} at byte {at}: {other:?}"),
                }
            }
        }
    }

    #[test]
    fn interrupted_reads_are_retried_with_or_without_hook() {
        for at in FAULT_POINTS {
            for stop in [None, Some(false), Some(true)] {
                let got = read_with_fault(io::ErrorKind::Interrupted, at, stop);
                assert_eq!(
                    got.expect("no error").as_deref(),
                    Some(PAYLOAD),
                    "at byte {at}, stop {stop:?}"
                );
            }
        }
    }

    /// A name count of `u32::MAX` with nothing behind it once made the
    /// decoder ask for 16 GiB before reading a name (a process abort,
    /// not a panic).
    #[test]
    fn take_term_refuses_a_name_count_the_payload_cannot_hold() {
        let mut arena = ExprArena::new();
        let err = take_term(&mut [0xFF, 0xFF, 0xFF, 0xFF].as_slice(), &mut arena);
        assert!(matches!(err, Err(WireError::Frame(_))));
    }

    /// The same for the node count: zero names, `u32::MAX` nodes, one
    /// real node.
    #[test]
    fn take_term_refuses_a_node_count_the_payload_cannot_hold() {
        let mut bytes = Vec::new();
        put_u32(&mut bytes, 0);
        put_u32(&mut bytes, u32::MAX);
        put_u8(&mut bytes, NODE_LIT);
        put_u8(&mut bytes, LIT_BOOL);
        put_u8(&mut bytes, 1);
        let mut arena = ExprArena::new();
        let err = take_term(&mut bytes.as_slice(), &mut arena);
        assert!(matches!(err, Err(WireError::Frame(_))));
        assert_eq!(
            arena.len(),
            0,
            "the count rule refused the run before its first node"
        );
    }

    /// A batch chunk announcing `u32::MAX` terms but carrying one: the
    /// roots buffer is sized by the payload, not the announcement.
    #[test]
    fn take_terms_refuses_a_count_the_payload_cannot_hold() {
        let mut src = ExprArena::new();
        let root = parse(&mut src, r"\x. x").expect("parses");
        let mut bytes = Vec::new();
        put_term(&mut bytes, &src, root);
        let mut arena = ExprArena::new();
        let mut roots = Vec::new();
        let mut input = bytes.as_slice();
        let err = take_terms(&mut input, u32::MAX, &mut arena, &mut roots);
        assert!(matches!(err, Err(WireError::Frame(_))));
        assert_eq!(roots.len(), 1, "the one real term decoded");
        assert!(roots.capacity() < 16, "sized by the payload");
    }

    /// `docs/PROTOCOL.md` is the authoritative byte-level description of
    /// this protocol; this test fails if the compiled constants drift
    /// from what the document claims (same pattern as the persistence
    /// spec-grep test in `alpha-store`).
    #[test]
    fn spec_documents_the_compiled_constants() {
        let spec = include_str!("../../../docs/PROTOCOL.md");
        let magic = std::str::from_utf8(&PROTOCOL_MAGIC).expect("ascii magic");
        for needle in [
            format!("`\"{magic}\"`"),
            format!("version: **{PROTOCOL_VERSION}**"),
            format!("{} MiB", MAX_FRAME_LEN / (1024 * 1024)),
        ] {
            assert!(
                spec.contains(&needle),
                "docs/PROTOCOL.md does not mention {needle:?} — update the spec \
                 (or this test) so document and code agree"
            );
        }
        for (name, code) in [
            ("OP_INSERT", OP_INSERT),
            ("OP_INSERT_BATCH", OP_INSERT_BATCH),
            ("OP_BATCH_CHUNK", OP_BATCH_CHUNK),
            ("OP_BATCH_END", OP_BATCH_END),
            ("OP_LOOKUP", OP_LOOKUP),
            ("OP_CONTAINS", OP_CONTAINS),
            ("OP_CONTAINS_BATCH", OP_CONTAINS_BATCH),
            ("OP_STATS", OP_STATS),
            ("OP_METRICS_PROMETHEUS", OP_METRICS_PROMETHEUS),
            ("OP_CHECKPOINT", OP_CHECKPOINT),
            ("OP_SHUTDOWN", OP_SHUTDOWN),
            ("OP_UPDATE", OP_UPDATE),
            ("RESP_OK", RESP_OK),
            ("RESP_CHUNK", RESP_CHUNK),
            ("RESP_END", RESP_END),
            ("ERR_MALFORMED", ERR_MALFORMED),
            ("ERR_UNSUPPORTED_VERSION", ERR_UNSUPPORTED_VERSION),
            ("ERR_BAD_OP", ERR_BAD_OP),
            ("ERR_TERM", ERR_TERM),
            ("ERR_READ_ONLY", ERR_READ_ONLY),
            ("ERR_SHUTTING_DOWN", ERR_SHUTTING_DOWN),
            ("ERR_INVALID_REWRITE", ERR_INVALID_REWRITE),
            ("ERR_PERSIST_IO", ERR_PERSIST_IO),
            ("ERR_PERSIST_CORRUPT", ERR_PERSIST_CORRUPT),
            ("ERR_PERSIST_MISMATCH", ERR_PERSIST_MISMATCH),
            ("ERR_PERSIST_LOCKED", ERR_PERSIST_LOCKED),
            ("ERR_PERSIST_WAL", ERR_PERSIST_WAL),
            ("ERR_PERSIST_SNAPSHOT", ERR_PERSIST_SNAPSHOT),
        ] {
            let row = format!("`{name}` | `{code:#04X}`");
            assert!(
                spec.contains(&row),
                "docs/PROTOCOL.md is missing the code-table row {row:?}"
            );
        }
    }
}
