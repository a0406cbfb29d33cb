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
use std::sync::mpsc::{sync_channel, Receiver, RecvError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use alpha_hash::HashWord;
use alpha_store::{codec, AlphaStore, Granularity};
use lambda_lang::ExprArena;

use crate::ingest::{IngestPool, Job, Reply};
use crate::wire::{self, RemoteOutcome, RemoteStats, ServerHello, WireError};

/// Tuning for [`Daemon::spawn`]. The defaults, which the `alphahash
/// serve` flags also start from: one ingest worker, a 512-term flush
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
        let pool = IngestPool::spawn(Arc::clone(&store), &config);
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
/// protocol violation, or shutdown. Between frames, read timeouts poll
/// the shutdown latch, so an idle connection closes when the daemon
/// drains.
fn handle_connection<H: HashWord>(
    mut stream: TcpStream,
    store: &AlphaStore<H>,
    pool: &IngestPool,
    latch: &Shutdown,
) -> Result<(), WireError> {
    let shutdown = Some(&latch.requested);
    stream.set_nodelay(true).ok();
    stream.set_read_timeout(Some(POLL_INTERVAL)).ok();
    // Handshake first: magic + client version, answered with the hello.
    let Some(payload) = wire::read_frame_or_stop(&mut stream, shutdown, Duration::ZERO)? else {
        return Ok(());
    };
    let client_version = wire::take_handshake(&mut payload.as_slice())?;
    if client_version != wire::PROTOCOL_VERSION {
        let message = format!(
            "server speaks protocol version {}, client sent {client_version}",
            wire::PROTOCOL_VERSION
        );
        return wire::write_frame(&mut stream, &error(wire::ERR_UNSUPPORTED_VERSION, &message));
    }
    let hello = ServerHello {
        version: wire::PROTOCOL_VERSION,
        hash_bits: u16::try_from(H::BITS).expect("hash width fits u16"),
        shard_count: u32::try_from(store.shard_count()).unwrap_or(u32::MAX),
        subexpr_min_nodes: match store.granularity() {
            Granularity::Roots => None,
            Granularity::Subexpressions { min_nodes } => Some(min_nodes as u64),
        },
    };
    wire::write_frame(&mut stream, &ok(|out| wire::put_hello(out, &hello)))?;

    loop {
        let Some(payload) = wire::read_frame_or_stop(&mut stream, shutdown, Duration::ZERO)? else {
            return Ok(());
        };
        let mut input = payload.as_slice();
        let op = codec::take_u8(&mut input)?;
        let reply = match op {
            // A single insert rides the accumulator path like everything
            // else, so lone-term clients still aggregate into store
            // batches.
            wire::OP_INSERT => match wait(&submit(pool, input.to_vec(), 1)) {
                Ok(outcomes) => ok(|out| wire::put_outcome(out, &outcomes[0])),
                Err(refused) => refused,
            },
            // Each chunk goes to the pool as its own job, so ingestion
            // starts while later chunks are still in flight.
            wire::OP_INSERT_BATCH => {
                serve_batch(&mut stream, &latch.requested, |count, terms| {
                    let reply = submit(pool, terms.to_vec(), count);
                    move || match wait(&reply) {
                        Ok(outcomes) => (
                            outcomes.len() as u64,
                            chunk(outcomes.iter(), wire::put_outcome),
                        ),
                        Err(refused) => (0, refused),
                    }
                })?;
                continue;
            }
            wire::OP_LOOKUP => with_decoded_term(&mut input, |arena, root| {
                let class = store.lookup(arena, root).map(|c| c.to_bits());
                ok(|out| codec::put_opt_u64(out, class))
            }),
            wire::OP_CONTAINS => with_decoded_term(&mut input, |arena, root| {
                let class = store.contains(arena, root).map(|c| c.to_bits());
                ok(|out| codec::put_opt_u64(out, class))
            }),
            // Containment is a read: each chunk is answered as it
            // arrives, no ingest pipeline involved.
            wire::OP_CONTAINS_BATCH => {
                serve_batch(&mut stream, &latch.requested, |count, mut terms| {
                    let mut arena = ExprArena::new();
                    let mut roots = Vec::new();
                    let answer = match wire::take_terms(&mut terms, count, &mut arena, &mut roots) {
                        Err(e) => {
                            let message = format!("pattern failed to decode: {e}");
                            (0, error(wire::ERR_TERM, &message))
                        }
                        Ok(()) => {
                            let classes = store.contains_batch(&arena, &roots);
                            let items = classes.len() as u64;
                            let response = chunk(classes.into_iter(), |out, c| {
                                codec::put_opt_u64(out, c.map(|c| c.to_bits()));
                            });
                            (items, response)
                        }
                    };
                    move || answer
                })?;
                continue;
            }
            wire::OP_UPDATE => handle_update(store, &mut input),
            wire::OP_STATS => ok(|out| wire::put_stats(out, &gather_stats(store))),
            wire::OP_METRICS_PROMETHEUS => {
                ok(|out| codec::put_str(out, &store.obs_report().to_prometheus()))
            }
            wire::OP_CHECKPOINT => match store.checkpoint() {
                Ok(()) => ok(|_| {}),
                Err(e) => error(wire::persist_error_code(&e), &e.to_string()),
            },
            wire::OP_SHUTDOWN => {
                wire::write_frame(&mut stream, &ok(|_| {}))?;
                latch.trigger();
                return Ok(());
            }
            // A bare chunk/end without an announce is a sequencing bug.
            wire::OP_BATCH_CHUNK | wire::OP_BATCH_END => {
                error(wire::ERR_MALFORMED, "batch chunk outside a batch")
            }
            _ => error(wire::ERR_BAD_OP, &format!("unknown op {op:#04x}")),
        };
        wire::write_frame(&mut stream, &reply)?;
    }
}

/// The streamed-batch loop behind both batch ops: hands each
/// `OP_BATCH_CHUNK` (its count and encoded terms) to `on_chunk`, which
/// returns how to answer it, until `OP_BATCH_END`; then writes one
/// response per chunk, in order, and `RESP_END` with the total of the
/// answers' item counts. Responses wait for END so the two sides never
/// both block writing.
///
/// The batch is one in-flight request, so a drain (`shutdown` set) waits
/// for its END while chunks keep arriving; a peer silent for
/// [`wire::DRAIN_STALL_LIMIT`] by then ends the batch as a torn
/// connection does.
fn serve_batch<A: FnOnce() -> (u64, Vec<u8>)>(
    stream: &mut TcpStream,
    shutdown: &AtomicBool,
    mut on_chunk: impl FnMut(u32, &[u8]) -> A,
) -> Result<(), WireError> {
    let mut answers = Vec::new();
    loop {
        // A torn or stalled connection ends the batch; chunks already
        // submitted still complete server-side.
        let stop = Some(shutdown);
        let Some(payload) = wire::read_frame_or_stop(stream, stop, wire::DRAIN_STALL_LIMIT)? else {
            return Ok(());
        };
        let mut input = payload.as_slice();
        match codec::take_u8(&mut input)? {
            wire::OP_BATCH_CHUNK => {
                let count = codec::take_u32(&mut input)?;
                answers.push(on_chunk(count, input));
            }
            wire::OP_BATCH_END => break,
            op => {
                let message = format!("expected batch chunk/end, got op {op:#04x}");
                return wire::write_frame(stream, &error(wire::ERR_MALFORMED, &message));
            }
        }
    }
    let mut total = 0;
    for answer in answers {
        let (items, response) = answer();
        total += items;
        wire::write_frame(stream, &response)?;
    }
    let mut end = vec![wire::RESP_END];
    codec::put_u64(&mut end, total);
    wire::write_frame(stream, &end)
}

/// Submits `count` encoded terms to the ingest pool. The returned
/// receiver yields the job's reply, or hangs up if the pool refused the
/// job because the daemon is draining; then every later submit is
/// refused too, as the pool only closes once.
fn submit(pool: &IngestPool, terms: Vec<u8>, count: u32) -> Receiver<Reply> {
    let (reply, rx) = sync_channel(1);
    // A refused job drops its sender, which hangs up `rx`.
    let _ = pool.submit(Job {
        terms,
        count,
        reply,
    });
    rx
}

/// Waits for an ingest job's outcomes. A refused job, or one the pool
/// never took because the daemon is draining, yields its error response
/// instead.
fn wait(reply: &Receiver<Reply>) -> Result<Vec<RemoteOutcome>, Vec<u8>> {
    match reply.recv() {
        Ok(Reply::Outcomes(outcomes)) => Ok(outcomes),
        Ok(Reply::Refused { code, message }) => Err(error(code, &message)),
        Err(RecvError) => Err(error(wire::ERR_SHUTTING_DOWN, "daemon is draining")),
    }
}

/// A `RESP_OK` response with the body `put` writes.
fn ok(put: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
    let mut out = vec![wire::RESP_OK];
    put(&mut out);
    out
}

/// An error response: status `code` and `message`.
fn error(code: u8, message: &str) -> Vec<u8> {
    let mut out = Vec::new();
    wire::put_error(&mut out, code, message);
    out
}

/// A `RESP_CHUNK` response: the item count, then each item.
fn chunk<T>(items: impl ExactSizeIterator<Item = T>, put: impl Fn(&mut Vec<u8>, T)) -> Vec<u8> {
    let mut out = vec![wire::RESP_CHUNK];
    codec::put_count(&mut out, items.len());
    for item in items {
        put(&mut out, item);
    }
    out
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
        Err(e) => error(wire::ERR_TERM, &format!("term failed to decode: {e}")),
    }
}

/// One incremental rewrite, handled inline on the connection thread:
/// updates are point operations against an existing term, so they skip
/// the ingest accumulator (there is nothing to batch) and go straight
/// through the store's own update serialization. The WAL lands before
/// the response, like any other durable op.
fn handle_update<H: HashWord>(store: &AlphaStore<H>, input: &mut &[u8]) -> Vec<u8> {
    let mut arena = ExprArena::new();
    let (term_bits, path, patch_root) = match wire::take_update(input, &mut arena) {
        Ok(parts) => parts,
        Err(e) => {
            return error(
                wire::ERR_TERM,
                &format!("update request failed to decode: {e}"),
            )
        }
    };
    let rewrite = alpha_store::Rewrite {
        path: &path,
        arena: &arena,
        root: patch_root,
    };
    match store.try_update(alpha_store::TermId::from_bits(term_bits), rewrite) {
        Ok(outcome) => ok(|out| wire::put_outcome(out, &wire::RemoteOutcome::from(&outcome))),
        Err(e) => error(wire::store_error_code(&e), &e.to_string()),
    }
}

/// Snapshot of everything [`wire::RemoteStats`] carries.
fn gather_stats<H: HashWord>(store: &AlphaStore<H>) -> RemoteStats {
    let health = store.health();
    RemoteStats {
        store: store.stats(),
        num_classes: store.num_classes() as u64,
        num_terms: store.num_terms() as u64,
        wal_records: store.wal_records(),
        health_code: health.code(),
        health_reason: health.reason().to_owned(),
        recovery: store.recovery_info().map(|r| (r.replayed_records, r.clean)),
        obs_json: store.obs_report().to_json(),
    }
}
