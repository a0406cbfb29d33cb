//! The daemon itself: a `TcpListener` accept loop, thread-per-connection
//! request handlers, the batching ingest pool, and the graceful-shutdown
//! drain.
//!
//! ## Thread & lock structure
//!
//! ```text
//! accept thread ──spawns──▶ handler threads (one per connection)
//!      │ (blocks in accept; a shutdown wakes it with a self-connection)
//!      │                        │ reads framed requests
//!      │                        ├─ ingest ops ──▶ IngestPool queues ──▶ worker threads
//!      │                        │                 (bounded; backpressure)   │
//!      │                        ├─ read ops ─────────────────────────▶ store shards
//!      │                        └─ checkpoint ──▶ store maintenance lock (exclusive)
//!      └─ on shutdown: stop accepting → join handlers → drain+join workers
//!         → checkpoint → drop store (releases the dir lock)
//! ```
//!
//! The store's own lock order (maintenance → WAL → shards → canon
//! table) is unchanged; the daemon adds no locks of its own around the
//! store, so `Checkpoint` serializes against serving exactly the way
//! in-process `checkpoint()` serializes against `insert_batch`.

use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::sync_channel;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use alpha_hash::HashWord;
use alpha_store::{AlphaStore, Granularity};
use lambda_lang::ExprArena;

use crate::ingest::{IngestConfig, IngestPool, Job, Reply};
use crate::wire::{self, RemoteStats, ServerHello, WireError};

/// Tuning for [`Daemon::spawn`]. The defaults are sized for the 1-core
/// container the benches run on: one ingest worker, a 512-term flush
/// watermark (the store's internal chunk size), a 2 ms linger.
#[derive(Clone, Debug)]
pub struct DaemonConfig {
    /// Address to bind (e.g. `"127.0.0.1:7474"`; port 0 picks a free
    /// port, observable via [`Daemon::local_addr`]).
    pub addr: String,
    /// Accumulator worker threads feeding `try_insert_batch`.
    pub ingest_workers: usize,
    /// Flush as soon as a worker has accumulated this many terms.
    pub flush_terms: usize,
    /// Flush no later than this after a worker's first pending term.
    pub linger: Duration,
    /// Bounded depth of each worker's job queue (the backpressure
    /// point for ingest).
    pub queue_depth: usize,
    /// Also drain on SIGINT/SIGTERM (the CLI sets this; tests drive
    /// shutdown through [`Daemon::request_shutdown`] or the wire op).
    pub handle_signals: bool,
}

impl Default for DaemonConfig {
    fn default() -> Self {
        DaemonConfig {
            addr: "127.0.0.1:0".to_owned(),
            ingest_workers: 1,
            flush_terms: 512,
            linger: Duration::from_millis(2),
            queue_depth: 64,
            handle_signals: false,
        }
    }
}

/// How often blocked reads and the signal watcher wake up to check the
/// shutdown flag. The accept loop does not poll: it blocks in `accept`
/// and is woken by [`Shutdown::trigger`].
const POLL_INTERVAL: Duration = Duration::from_millis(50);

/// The daemon's shutdown latch: a flag the connection handlers poll
/// between frames, plus the wake-up of the accept loop, which blocks in
/// `accept` and so cannot poll. Every shutdown path ends here:
/// [`Daemon::request_shutdown`], the wire `Shutdown` op and the signal
/// watcher.
struct Shutdown {
    requested: AtomicBool,
    /// Where the listener accepts: one connection there wakes `accept`.
    wake: SocketAddr,
}

impl Shutdown {
    fn new(listening: SocketAddr) -> Self {
        let mut wake = listening;
        if wake.ip().is_unspecified() {
            wake.set_ip(match wake {
                SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
            });
        }
        Shutdown {
            requested: AtomicBool::new(false),
            wake,
        }
    }

    fn is_requested(&self) -> bool {
        self.requested.load(Ordering::SeqCst)
    }

    /// Sets the flag and, the first time, connects to the listener so a
    /// blocked `accept` returns and sees it. The accept loop drops that
    /// connection unserved.
    fn trigger(&self) {
        if !self.requested.swap(true, Ordering::SeqCst) {
            let _ = TcpStream::connect_timeout(&self.wake, Duration::from_secs(1));
        }
    }
}

/// A running daemon. Dropping the handle does **not** stop it; call
/// [`Daemon::request_shutdown`] (or send the wire `Shutdown` op, or
/// signal the process when `handle_signals` is set) and then
/// [`Daemon::join`].
pub struct Daemon<H: HashWord> {
    store: Arc<AlphaStore<H>>,
    local_addr: SocketAddr,
    shutdown: Arc<Shutdown>,
    accept_thread: Option<JoinHandle<()>>,
    /// Polls the signal latch when `handle_signals` is set.
    signal_watcher: Option<JoinHandle<()>>,
}

impl<H: HashWord> Daemon<H> {
    /// Binds `config.addr` and starts serving `store`. The store stays
    /// shared: the caller keeps its `Arc` and may query it in-process
    /// while the daemon serves it over the wire (the loopback tests do
    /// exactly that).
    pub fn spawn(store: Arc<AlphaStore<H>>, config: DaemonConfig) -> std::io::Result<Daemon<H>> {
        let listener = TcpListener::bind(&config.addr)?;
        let local_addr = listener.local_addr()?;
        let shutdown = Arc::new(Shutdown::new(local_addr));
        let signal_watcher = config.handle_signals.then(|| {
            crate::signal::install();
            let shutdown = Arc::clone(&shutdown);
            std::thread::Builder::new()
                .name("alphahashd-signals".to_owned())
                .spawn(move || watch_signals(&shutdown))
                .expect("spawn signal watcher")
        });
        let pool = IngestPool::spawn(
            Arc::clone(&store),
            IngestConfig {
                workers: config.ingest_workers.max(1),
                flush_terms: config.flush_terms.max(1),
                linger: config.linger,
                queue_depth: config.queue_depth.max(1),
            },
        );
        let accept_thread = {
            let store = Arc::clone(&store);
            let shutdown = Arc::clone(&shutdown);
            std::thread::Builder::new()
                .name("alphahashd-accept".to_owned())
                .spawn(move || accept_loop(listener, store, pool, shutdown))
                .expect("spawn accept thread")
        };
        Ok(Daemon {
            store,
            local_addr,
            shutdown,
            accept_thread: Some(accept_thread),
            signal_watcher,
        })
    }

    /// The address the daemon actually bound (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The store behind the daemon, for in-process inspection (the
    /// oracle tests compare it against a fresh single-process build).
    pub fn store(&self) -> &Arc<AlphaStore<H>> {
        &self.store
    }

    /// Asks the daemon to drain and stop, as if a `Shutdown` op had
    /// arrived. Returns immediately; [`Daemon::join`] waits for the
    /// drain (including the final checkpoint) to finish.
    pub fn request_shutdown(&self) {
        self.shutdown.trigger();
    }

    /// Waits until the daemon has fully shut down: accept loop exited,
    /// every handler joined, ingest drained, WAL checkpointed.
    pub fn join(mut self) {
        if let Some(handle) = self.accept_thread.take() {
            let _ = handle.join();
        }
        if let Some(handle) = self.signal_watcher.take() {
            let _ = handle.join();
        }
    }
}

/// Turns a latched SIGINT/SIGTERM into a shutdown. The handler itself
/// may only set an atomic, so this thread polls it; it exits once any
/// shutdown has been requested.
fn watch_signals(shutdown: &Shutdown) {
    while !shutdown.is_requested() {
        if crate::signal::triggered() {
            shutdown.trigger();
            return;
        }
        std::thread::sleep(POLL_INTERVAL);
    }
}

/// The accept loop, and — once the shutdown flag trips — the drain.
fn accept_loop<H: HashWord>(
    listener: TcpListener,
    store: Arc<AlphaStore<H>>,
    pool: Arc<IngestPool>,
    shutdown: Arc<Shutdown>,
) {
    let handlers: Mutex<Vec<JoinHandle<()>>> = Mutex::new(Vec::new());
    loop {
        let accepted = listener.accept();
        // Checked after `accept` returns: a shutdown wakes the loop with
        // a connection of its own, which is dropped here unserved.
        if shutdown.is_requested() {
            break;
        }
        match accepted {
            Ok((stream, _peer)) => {
                let store = Arc::clone(&store);
                let pool = Arc::clone(&pool);
                let shutdown = Arc::clone(&shutdown);
                let handle = std::thread::Builder::new()
                    .name("alphahashd-conn".to_owned())
                    .spawn(move || {
                        // Handler errors are connection-local: a peer
                        // that violates the protocol loses its
                        // connection, nothing else.
                        let _ = handle_connection(stream, &store, &pool, &shutdown);
                    })
                    .expect("spawn connection handler");
                let mut guard = handlers.lock().expect("handler list lock");
                guard.push(handle);
                // Opportunistically reap finished handlers so the list
                // does not grow with total connections served.
                guard.retain(|h| !h.is_finished());
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            // Back off on other errors (out of file descriptors, say)
            // instead of spinning on them.
            Err(_) => std::thread::sleep(POLL_INTERVAL),
        }
    }
    // Drain: stop accepting (listener drops at end of scope; handlers
    // see the flag through their read timeouts and finish their
    // in-flight request first), then stop ingest, then checkpoint.
    drop(listener);
    for handle in std::mem::take(&mut *handlers.lock().expect("handler list lock")) {
        let _ = handle.join();
    }
    pool.close();
    if store.is_durable() {
        // A failed final checkpoint must not abort the drain: the WAL
        // still holds everything, so the next open replays instead of
        // reopening clean. Surface it on stderr and keep going.
        if let Err(e) = store.checkpoint() {
            eprintln!("alphahashd: shutdown checkpoint failed: {e}");
        }
    }
}

/// Per-connection request loop: handshake, then frames until EOF,
/// protocol violation, or shutdown.
fn handle_connection<H: HashWord>(
    mut stream: TcpStream,
    store: &AlphaStore<H>,
    pool: &IngestPool,
    latch: &Shutdown,
) -> Result<(), WireError> {
    let shutdown = &latch.requested;
    stream.set_nodelay(true).ok();
    stream.set_read_timeout(Some(POLL_INTERVAL)).ok();
    // Handshake first: magic + client version, answered with the hello.
    let payload = match read_frame_polling(&mut stream, Some(shutdown))? {
        Some(p) => p,
        None => return Ok(()),
    };
    let client_version = wire::take_handshake(&mut payload.as_slice())?;
    if client_version != wire::PROTOCOL_VERSION {
        let mut out = Vec::new();
        wire::put_error(
            &mut out,
            wire::ERR_UNSUPPORTED_VERSION,
            &format!(
                "server speaks protocol version {}, client sent {client_version}",
                wire::PROTOCOL_VERSION
            ),
        );
        wire::write_frame(&mut stream, &out)?;
        return Ok(());
    }
    let mut hello = Vec::new();
    wire::put_u8(&mut hello, wire::RESP_OK);
    wire::put_hello(
        &mut hello,
        &ServerHello {
            version: wire::PROTOCOL_VERSION,
            hash_bits: u16::try_from(H::BITS).expect("hash width fits u16"),
            shard_count: u32::try_from(store.shard_count()).unwrap_or(u32::MAX),
            subexpr_min_nodes: match store.granularity() {
                Granularity::Roots => None,
                Granularity::Subexpressions { min_nodes } => Some(min_nodes as u64),
            },
        },
    );
    wire::write_frame(&mut stream, &hello)?;

    loop {
        let payload = match read_frame_polling(&mut stream, Some(shutdown))? {
            Some(p) => p,
            None => return Ok(()),
        };
        let mut input = payload.as_slice();
        let op = wire::take_u8(&mut input)?;
        match op {
            wire::OP_INSERT => handle_insert(&mut stream, pool, payload[1..].to_vec())?,
            wire::OP_INSERT_BATCH => {
                handle_insert_batch(&mut stream, pool)?;
            }
            wire::OP_LOOKUP => {
                let reply = with_decoded_term(&mut input, |arena, root| {
                    ok_opt_class(store.lookup(arena, root).map(|c| c.to_bits()))
                });
                wire::write_frame(&mut stream, &reply)?;
            }
            wire::OP_CONTAINS => {
                let reply = with_decoded_term(&mut input, |arena, root| {
                    ok_opt_class(store.contains(arena, root).map(|c| c.to_bits()))
                });
                wire::write_frame(&mut stream, &reply)?;
            }
            wire::OP_CONTAINS_BATCH => handle_contains_batch(&mut stream, store)?,
            wire::OP_UPDATE => {
                let reply = handle_update(store, &mut input);
                wire::write_frame(&mut stream, &reply)?;
            }
            wire::OP_STATS => {
                let mut out = Vec::new();
                wire::put_u8(&mut out, wire::RESP_OK);
                wire::put_stats(&mut out, &gather_stats(store));
                wire::write_frame(&mut stream, &out)?;
            }
            wire::OP_METRICS_PROMETHEUS => {
                let mut out = Vec::new();
                metrics_response(store, &mut out);
                wire::write_frame(&mut stream, &out)?;
            }
            wire::OP_CHECKPOINT => {
                let mut out = Vec::new();
                match store.checkpoint() {
                    Ok(()) => wire::put_u8(&mut out, wire::RESP_OK),
                    Err(e) => {
                        wire::put_error(&mut out, wire::persist_error_code(&e), &e.to_string());
                    }
                }
                wire::write_frame(&mut stream, &out)?;
            }
            wire::OP_SHUTDOWN => {
                let mut out = Vec::new();
                wire::put_u8(&mut out, wire::RESP_OK);
                wire::write_frame(&mut stream, &out)?;
                latch.trigger();
                return Ok(());
            }
            // A bare chunk/end without an announce is a sequencing bug.
            wire::OP_BATCH_CHUNK | wire::OP_BATCH_END => {
                let mut out = Vec::new();
                wire::put_error(&mut out, wire::ERR_MALFORMED, "batch chunk outside a batch");
                wire::write_frame(&mut stream, &out)?;
            }
            _ => {
                let mut out = Vec::new();
                wire::put_error(&mut out, wire::ERR_BAD_OP, &format!("unknown op {op:#04x}"));
                wire::write_frame(&mut stream, &out)?;
            }
        }
    }
}

/// Decodes one term and runs `f` on it, packaging term-decode failures
/// as the typed `ERR_TERM` response.
fn with_decoded_term(
    input: &mut &[u8],
    f: impl FnOnce(&ExprArena, lambda_lang::NodeId) -> Vec<u8>,
) -> Vec<u8> {
    let mut arena = ExprArena::new();
    match wire::take_term(input, &mut arena) {
        Ok(root) => f(&arena, root),
        Err(e) => {
            let mut out = Vec::new();
            wire::put_error(
                &mut out,
                wire::ERR_TERM,
                &format!("term failed to decode: {e}"),
            );
            out
        }
    }
}

/// One incremental rewrite, handled inline on the connection thread:
/// updates are point operations against an existing term, so they skip
/// the ingest accumulator (there is nothing to batch) and go straight
/// through the store's own update serialization. The WAL lands before
/// the response, like any other durable op.
fn handle_update<H: HashWord>(store: &AlphaStore<H>, input: &mut &[u8]) -> Vec<u8> {
    let mut arena = ExprArena::new();
    let mut out = Vec::new();
    let (term_bits, path, patch_root) = match wire::take_update(input, &mut arena) {
        Ok(parts) => parts,
        Err(e) => {
            wire::put_error(
                &mut out,
                wire::ERR_TERM,
                &format!("update request failed to decode: {e}"),
            );
            return out;
        }
    };
    let rewrite = alpha_store::Rewrite {
        path: &path,
        arena: &arena,
        root: patch_root,
    };
    match store.try_update(alpha_store::TermId::from_bits(term_bits), rewrite) {
        Ok(outcome) => {
            wire::put_u8(&mut out, wire::RESP_OK);
            wire::put_outcome(&mut out, &wire::RemoteOutcome::from(&outcome));
        }
        Err(e) => wire::put_error(&mut out, wire::store_error_code(&e), &e.to_string()),
    }
    out
}

fn ok_opt_class(class: Option<u64>) -> Vec<u8> {
    let mut out = Vec::new();
    wire::put_u8(&mut out, wire::RESP_OK);
    wire::put_opt_class(&mut out, class);
    out
}

/// Single insert: one term rides the accumulator path like everything
/// else, so lone-term clients still aggregate into store batches.
fn handle_insert(
    stream: &mut TcpStream,
    pool: &IngestPool,
    terms: Vec<u8>,
) -> Result<(), WireError> {
    let (reply_tx, reply_rx) = sync_channel::<Reply>(1);
    let submitted = pool.submit(Job {
        terms,
        count: 1,
        reply: reply_tx,
    });
    let mut out = Vec::new();
    match submitted {
        Err(_) => {
            wire::put_error(&mut out, wire::ERR_SHUTTING_DOWN, "daemon is draining");
        }
        Ok(()) => match reply_rx.recv() {
            Ok(Reply::Outcomes(outcomes)) => {
                wire::put_u8(&mut out, wire::RESP_OK);
                wire::put_outcome(&mut out, &outcomes[0]);
            }
            Ok(Reply::Refused { code, message }) => wire::put_error(&mut out, code, &message),
            Err(_) => {
                wire::put_error(&mut out, wire::ERR_SHUTTING_DOWN, "ingest worker went away");
            }
        },
    }
    wire::write_frame(stream, &out)
}

/// Streamed insert batch: forward each incoming chunk to the pool as
/// its own job (so ingestion starts while later chunks are still in
/// flight), then answer chunk-for-chunk after the client's END.
fn handle_insert_batch(stream: &mut TcpStream, pool: &IngestPool) -> Result<(), WireError> {
    let mut pending: Vec<(u32, std::sync::mpsc::Receiver<Reply>)> = Vec::new();
    let mut refused_on_submit = false;
    loop {
        let payload = match read_frame_polling(stream, None)? {
            Some(p) => p,
            None => return Ok(()), // torn connection: jobs already
                                   // submitted still complete server-side
        };
        let mut input = payload.as_slice();
        match wire::take_u8(&mut input)? {
            wire::OP_BATCH_CHUNK => {
                let count = wire::take_u32(&mut input)?;
                let (reply_tx, reply_rx) = sync_channel::<Reply>(1);
                let job = Job {
                    terms: input.to_vec(),
                    count,
                    reply: reply_tx,
                };
                if refused_on_submit || pool.submit(job).is_err() {
                    // Keep reading to END so the response sequence stays
                    // aligned, but refuse this and later chunks.
                    refused_on_submit = true;
                    pending.push((count, never_reply()));
                } else {
                    pending.push((count, reply_rx));
                }
            }
            wire::OP_BATCH_END => break,
            op => {
                let mut out = Vec::new();
                wire::put_error(
                    &mut out,
                    wire::ERR_MALFORMED,
                    &format!("expected batch chunk/end, got op {op:#04x}"),
                );
                wire::write_frame(stream, &out)?;
                return Ok(());
            }
        }
    }
    let mut total_ok: u64 = 0;
    for (count, reply_rx) in pending {
        let mut out = Vec::new();
        match reply_rx.recv().ok() {
            Some(Reply::Outcomes(outcomes)) => {
                debug_assert_eq!(outcomes.len() as u32, count);
                total_ok += outcomes.len() as u64;
                wire::put_u8(&mut out, wire::RESP_CHUNK);
                wire::put_u32(
                    &mut out,
                    u32::try_from(outcomes.len()).expect("chunk fits u32"),
                );
                for o in &outcomes {
                    wire::put_outcome(&mut out, o);
                }
            }
            Some(Reply::Refused { code, message }) => wire::put_error(&mut out, code, &message),
            None => {
                wire::put_error(&mut out, wire::ERR_SHUTTING_DOWN, "daemon is draining");
            }
        }
        wire::write_frame(stream, &out)?;
    }
    let mut out = Vec::new();
    wire::put_u8(&mut out, wire::RESP_END);
    wire::put_u64(&mut out, total_ok);
    wire::write_frame(stream, &out)
}

/// A receiver that reports "no reply will ever come" — used to keep the
/// per-chunk response alignment when a chunk was never submitted.
fn never_reply() -> std::sync::mpsc::Receiver<Reply> {
    let (_tx, rx) = sync_channel::<Reply>(1);
    rx
}

/// Streamed containment batch: chunks are answered as they arrive (no
/// ingest pipeline involved — `contains_batch` is a read).
fn handle_contains_batch<H: HashWord>(
    stream: &mut TcpStream,
    store: &AlphaStore<H>,
) -> Result<(), WireError> {
    let mut responses: Vec<Vec<u8>> = Vec::new();
    let mut total: u64 = 0;
    loop {
        let payload = match read_frame_polling(stream, None)? {
            Some(p) => p,
            None => return Ok(()),
        };
        let mut input = payload.as_slice();
        match wire::take_u8(&mut input)? {
            wire::OP_BATCH_CHUNK => {
                let count = wire::take_u32(&mut input)?;
                let mut arena = ExprArena::new();
                let mut roots = Vec::new();
                let mut out = Vec::new();
                match wire::take_terms(&mut input, count, &mut arena, &mut roots) {
                    Err(e) => {
                        wire::put_error(
                            &mut out,
                            wire::ERR_TERM,
                            &format!("pattern failed to decode: {e}"),
                        );
                    }
                    Ok(()) => {
                        let classes = store.contains_batch(&arena, &roots);
                        total += classes.len() as u64;
                        wire::put_u8(&mut out, wire::RESP_CHUNK);
                        wire::put_u32(
                            &mut out,
                            u32::try_from(classes.len()).expect("chunk fits u32"),
                        );
                        for c in classes {
                            wire::put_opt_class(&mut out, c.map(|c| c.to_bits()));
                        }
                    }
                }
                responses.push(out);
            }
            wire::OP_BATCH_END => break,
            op => {
                let mut out = Vec::new();
                wire::put_error(
                    &mut out,
                    wire::ERR_MALFORMED,
                    &format!("expected batch chunk/end, got op {op:#04x}"),
                );
                wire::write_frame(stream, &out)?;
                return Ok(());
            }
        }
    }
    for out in responses {
        wire::write_frame(stream, &out)?;
    }
    let mut out = Vec::new();
    wire::put_u8(&mut out, wire::RESP_END);
    wire::put_u64(&mut out, total);
    wire::write_frame(stream, &out)
}

/// Snapshot of everything [`wire::RemoteStats`] carries.
fn gather_stats<H: HashWord>(store: &AlphaStore<H>) -> RemoteStats {
    let stats = store.stats();
    let health = store.health();
    RemoteStats {
        terms_ingested: stats.terms_ingested,
        classes_created: stats.classes_created,
        merges_confirmed: stats.merges_confirmed,
        hash_collisions: stats.hash_collisions,
        unconfirmed_merges: stats.unconfirmed_merges,
        subterms_indexed: stats.subterms_indexed,
        subterm_merges_confirmed: stats.subterm_merges_confirmed,
        subterms_skipped_min_nodes: stats.subterms_skipped_min_nodes,
        num_classes: store.num_classes() as u64,
        num_terms: store.num_terms() as u64,
        wal_records: store.wal_records(),
        health_code: health.code(),
        health_reason: health.reason().to_owned(),
        recovery: store.recovery_info().map(|r| (r.replayed_records, r.clean)),
        obs_json: store.obs_report().to_json(),
    }
}

fn metrics_response<H: HashWord>(store: &AlphaStore<H>, out: &mut Vec<u8>) {
    wire::put_u8(out, wire::RESP_OK);
    wire::put_str(out, &store.obs_report().to_prometheus());
}

/// Like [`wire::read_frame`] but over a socket with a read timeout:
/// between frames, timeouts poll the shutdown flag (an idle connection
/// closes when the daemon drains); once a frame has started, it is
/// always read to completion so in-flight requests drain cleanly.
///
/// Pass `shutdown: None` while inside a streamed batch: the batch is
/// one in-flight request, so the drain waits for its END rather than
/// tearing it mid-stream (a dead peer still ends it via EOF).
fn read_frame_polling(
    stream: &mut TcpStream,
    shutdown: Option<&AtomicBool>,
) -> Result<Option<Vec<u8>>, WireError> {
    let mut header = [0u8; 8];
    let mut filled = 0usize;
    while filled < header.len() {
        match std::io::Read::read(stream, &mut header[filled..]) {
            Ok(0) => {
                return if filled == 0 {
                    Ok(None)
                } else {
                    Err(WireError::Frame(format!(
                        "connection closed {filled} bytes into a frame header"
                    )))
                };
            }
            Ok(n) => filled += n,
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                if filled == 0 && shutdown.is_some_and(|s| s.load(Ordering::SeqCst)) {
                    return Ok(None);
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(WireError::Io(e)),
        }
    }
    let len = u32::from_le_bytes(header[..4].try_into().expect("4 bytes"));
    let crc = u32::from_le_bytes(header[4..].try_into().expect("4 bytes"));
    if len > wire::MAX_FRAME_LEN {
        return Err(WireError::Frame(format!(
            "frame length {len} exceeds MAX_FRAME_LEN {}",
            wire::MAX_FRAME_LEN
        )));
    }
    let mut payload = vec![0u8; len as usize];
    let mut filled = 0usize;
    while filled < payload.len() {
        match std::io::Read::read(stream, &mut payload[filled..]) {
            Ok(0) => {
                return Err(WireError::Frame(format!(
                    "connection closed {filled} bytes into a {len}-byte payload"
                )));
            }
            Ok(n) => filled += n,
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut
                    || e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(WireError::Io(e)),
        }
    }
    let actual = alpha_store::persist::format::crc32(&payload);
    if actual != crc {
        return Err(WireError::Frame(format!(
            "payload CRC {actual:#010x} does not match header CRC {crc:#010x}"
        )));
    }
    Ok(Some(payload))
}
