//! The blocking, reconnect-aware client for `alphahashd`.
//!
//! One [`Client`] owns at most one TCP connection and re-establishes it
//! lazily: the first operation after a connection loss redials and
//! re-handshakes. Read-side operations (`lookup`, `contains`, `stats`,
//! `metrics_prometheus`) additionally retry once after a transport
//! error, because they are safe to repeat; ingest operations are
//! at-most-once per call — a transport error surfaces to the caller,
//! who decides whether re-inserting (idempotent at the class level) is
//! what they want.

use std::net::TcpStream;
use std::time::Duration;

use lambda_lang::{ExprArena, NodeId};

use crate::wire::{self, RemoteOutcome, RemoteStats, ServerHello, WireError};

/// How many terms ride in one streamed batch chunk by default — matches
/// the daemon's default flush watermark so one chunk fills one store
/// batch.
pub const DEFAULT_CHUNK_TERMS: usize = 512;

/// What a client operation can fail with.
#[derive(Debug)]
pub enum ClientError {
    /// The connection failed (dial, read, write, or mid-frame close).
    /// The client will redial on the next operation.
    Io(std::io::Error),
    /// The server sent bytes that violate the protocol.
    Protocol(String),
    /// The server answered with a typed error response.
    Remote {
        /// Stable wire error code (see `docs/PROTOCOL.md`).
        code: u8,
        /// The server's human-readable description.
        message: String,
    },
}

impl ClientError {
    /// Whether this is the server's typed "store is read-only" refusal
    /// ([`wire::ERR_READ_ONLY`]) — the error ingest gets while reads
    /// keep serving, until a checkpoint heals the store.
    pub fn is_read_only(&self) -> bool {
        matches!(self, ClientError::Remote { code, .. } if *code == wire::ERR_READ_ONLY)
    }

    /// Whether this is the server's typed "invalid rewrite" refusal
    /// ([`wire::ERR_INVALID_REWRITE`]) — the update was rejected before
    /// any state changed (unknown term, bad path, or a replacement that
    /// would capture a host binder).
    pub fn is_invalid_rewrite(&self) -> bool {
        matches!(self, ClientError::Remote { code, .. } if *code == wire::ERR_INVALID_REWRITE)
    }

    /// The typed wire error code, when this is a remote refusal.
    pub fn remote_code(&self) -> Option<u8> {
        match self {
            ClientError::Remote { code, .. } => Some(*code),
            _ => None,
        }
    }
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "connection error: {e}"),
            ClientError::Protocol(msg) => write!(f, "protocol violation: {msg}"),
            ClientError::Remote { code, message } => {
                write!(f, "server error {code:#04x}: {message}")
            }
        }
    }
}

impl std::error::Error for ClientError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ClientError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<WireError> for ClientError {
    fn from(e: WireError) -> Self {
        match e {
            WireError::Io(e) => ClientError::Io(e),
            WireError::Frame(msg) => ClientError::Protocol(msg),
        }
    }
}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

/// A blocking `alphahashd` connection (see the module docs for the
/// reconnect contract).
pub struct Client {
    addr: String,
    conn: Option<Conn>,
    chunk_terms: usize,
}

struct Conn {
    stream: TcpStream,
    hello: ServerHello,
}

impl Client {
    /// Dials `addr` (e.g. `"127.0.0.1:7474"`) and performs the
    /// handshake. Fails fast on an unreachable server; after that,
    /// reconnection is lazy.
    pub fn connect(addr: impl Into<String>) -> Result<Client, ClientError> {
        let mut client = Client {
            addr: addr.into(),
            conn: None,
            chunk_terms: DEFAULT_CHUNK_TERMS,
        };
        client.ensure_conn()?;
        Ok(client)
    }

    /// Overrides how many terms ride in one streamed batch chunk.
    pub fn set_chunk_terms(&mut self, terms: usize) {
        self.chunk_terms = terms.max(1);
    }

    /// The hello the server sent on the current (or most recent)
    /// connection.
    pub fn server_hello(&mut self) -> Result<ServerHello, ClientError> {
        Ok(self.ensure_conn()?.hello.clone())
    }

    fn ensure_conn(&mut self) -> Result<&mut Conn, ClientError> {
        if self.conn.is_none() {
            let stream = TcpStream::connect(&self.addr)?;
            stream.set_nodelay(true).ok();
            let mut conn = Conn {
                stream,
                hello: ServerHello {
                    version: 0,
                    hash_bits: 0,
                    shard_count: 0,
                    subexpr_min_nodes: None,
                },
            };
            let mut out = Vec::new();
            wire::put_handshake(&mut out, wire::PROTOCOL_VERSION);
            wire::write_frame(&mut conn.stream, &out)?;
            let payload = read_response(&mut conn.stream)?;
            let mut input = payload.as_slice();
            match wire::take_u8(&mut input)? {
                wire::RESP_OK => {
                    conn.hello = wire::take_hello(&mut input)?;
                }
                code => {
                    let message = wire::take_str(&mut input).unwrap_or_default();
                    return Err(ClientError::Remote { code, message });
                }
            }
            self.conn = Some(conn);
        }
        Ok(self.conn.as_mut().expect("just ensured"))
    }

    /// Runs `f` against a live connection; on a transport error the
    /// connection is dropped (so the next call redials) and, when
    /// `retry` says the operation is safe to repeat, redials once and
    /// retries immediately.
    fn with_conn<T>(
        &mut self,
        retry: bool,
        mut f: impl FnMut(&mut Conn) -> Result<T, ClientError>,
    ) -> Result<T, ClientError> {
        match f(self.ensure_conn()?) {
            Ok(v) => Ok(v),
            Err(e @ (ClientError::Io(_) | ClientError::Protocol(_))) => {
                self.conn = None;
                if retry {
                    f(self.ensure_conn()?)
                } else {
                    Err(e)
                }
            }
            Err(e) => Err(e),
        }
    }

    /// Ingests one term, returning its remote outcome.
    pub fn insert(
        &mut self,
        arena: &ExprArena,
        root: NodeId,
    ) -> Result<RemoteOutcome, ClientError> {
        let mut payload = Vec::new();
        wire::put_u8(&mut payload, wire::OP_INSERT);
        wire::put_term(&mut payload, arena, root);
        self.with_conn(false, |conn| {
            wire::write_frame(&mut conn.stream, &payload)?;
            let resp = read_response(&mut conn.stream)?;
            let mut input = resp.as_slice();
            match wire::take_u8(&mut input)? {
                wire::RESP_OK => Ok(wire::take_outcome(&mut input)?),
                code => Err(remote(code, &mut input)),
            }
        })
    }

    /// Ingests `roots` as a streamed batch, returning one outcome per
    /// term in order. The batch fails as a unit on the first refused
    /// chunk (the typed error is returned; earlier chunks were already
    /// ingested server-side — re-inserting them is idempotent at the
    /// class level).
    pub fn insert_batch(
        &mut self,
        arena: &ExprArena,
        roots: &[NodeId],
    ) -> Result<Vec<RemoteOutcome>, ClientError> {
        let chunk_terms = self.chunk_terms;
        self.with_conn(false, |conn| {
            let mut announce = Vec::new();
            wire::put_u8(&mut announce, wire::OP_INSERT_BATCH);
            wire::write_frame(&mut conn.stream, &announce)?;
            for chunk in roots.chunks(chunk_terms.max(1)) {
                let mut payload = Vec::new();
                wire::put_u8(&mut payload, wire::OP_BATCH_CHUNK);
                wire::put_u32(
                    &mut payload,
                    u32::try_from(chunk.len()).expect("chunk fits u32"),
                );
                for &root in chunk {
                    wire::put_term(&mut payload, arena, root);
                }
                wire::write_frame(&mut conn.stream, &payload)?;
            }
            let mut end = Vec::new();
            wire::put_u8(&mut end, wire::OP_BATCH_END);
            wire::write_frame(&mut conn.stream, &end)?;

            let mut outcomes = Vec::with_capacity(roots.len());
            loop {
                let resp = read_response(&mut conn.stream)?;
                let mut input = resp.as_slice();
                match wire::take_u8(&mut input)? {
                    wire::RESP_CHUNK => {
                        let count = wire::take_u32(&mut input)?;
                        for _ in 0..count {
                            outcomes.push(wire::take_outcome(&mut input)?);
                        }
                    }
                    wire::RESP_END => {
                        let _total = wire::take_u64(&mut input)?;
                        return Ok(outcomes);
                    }
                    code => {
                        let err = remote(code, &mut input);
                        // Drain the remaining per-chunk responses and the
                        // END so the connection stays usable, then
                        // surface the first error.
                        loop {
                            let resp = read_response(&mut conn.stream)?;
                            let mut input = resp.as_slice();
                            if wire::take_u8(&mut input)? == wire::RESP_END {
                                break;
                            }
                        }
                        return Err(err);
                    }
                }
            }
        })
    }

    /// Incrementally rewrites a previously ingested term in place: the
    /// subtree at `path` (child-slot steps into the term's canonical
    /// representative; empty replaces the whole term) becomes the term
    /// rooted at `root` in `arena`. `term` is the handle bits a prior
    /// [`RemoteOutcome::term`] carried. Not retried on transport errors
    /// — an update is a write, and the caller decides whether repeating
    /// it (against the term's *new* class) is what they want.
    pub fn update(
        &mut self,
        term: u64,
        path: &[u32],
        arena: &ExprArena,
        root: NodeId,
    ) -> Result<RemoteOutcome, ClientError> {
        let mut payload = Vec::new();
        wire::put_u8(&mut payload, wire::OP_UPDATE);
        wire::put_update(&mut payload, term, path, arena, root);
        self.with_conn(false, |conn| {
            wire::write_frame(&mut conn.stream, &payload)?;
            let resp = read_response(&mut conn.stream)?;
            let mut input = resp.as_slice();
            match wire::take_u8(&mut input)? {
                wire::RESP_OK => Ok(wire::take_outcome(&mut input)?),
                code => Err(remote(code, &mut input)),
            }
        })
    }

    /// Exact-match class lookup (no ingest). `Some(bits)` is the class
    /// as opaque [`alpha_store::ClassId::to_bits`] bits.
    pub fn lookup(&mut self, arena: &ExprArena, root: NodeId) -> Result<Option<u64>, ClientError> {
        self.unary_opt_class(wire::OP_LOOKUP, arena, root)
    }

    /// Containment query modulo alpha (subexpression-granularity
    /// servers match proper subterms too).
    pub fn contains(
        &mut self,
        arena: &ExprArena,
        root: NodeId,
    ) -> Result<Option<u64>, ClientError> {
        self.unary_opt_class(wire::OP_CONTAINS, arena, root)
    }

    fn unary_opt_class(
        &mut self,
        op: u8,
        arena: &ExprArena,
        root: NodeId,
    ) -> Result<Option<u64>, ClientError> {
        let mut payload = Vec::new();
        wire::put_u8(&mut payload, op);
        wire::put_term(&mut payload, arena, root);
        self.with_conn(true, |conn| {
            wire::write_frame(&mut conn.stream, &payload)?;
            let resp = read_response(&mut conn.stream)?;
            let mut input = resp.as_slice();
            match wire::take_u8(&mut input)? {
                wire::RESP_OK => Ok(wire::take_opt_class(&mut input)?),
                code => Err(remote(code, &mut input)),
            }
        })
    }

    /// Batched containment query: one `Option<class bits>` per pattern,
    /// in order.
    pub fn contains_batch(
        &mut self,
        arena: &ExprArena,
        roots: &[NodeId],
    ) -> Result<Vec<Option<u64>>, ClientError> {
        let chunk_terms = self.chunk_terms;
        self.with_conn(true, |conn| {
            let mut announce = Vec::new();
            wire::put_u8(&mut announce, wire::OP_CONTAINS_BATCH);
            wire::write_frame(&mut conn.stream, &announce)?;
            for chunk in roots.chunks(chunk_terms.max(1)) {
                let mut payload = Vec::new();
                wire::put_u8(&mut payload, wire::OP_BATCH_CHUNK);
                wire::put_u32(
                    &mut payload,
                    u32::try_from(chunk.len()).expect("chunk fits u32"),
                );
                for &root in chunk {
                    wire::put_term(&mut payload, arena, root);
                }
                wire::write_frame(&mut conn.stream, &payload)?;
            }
            let mut end = Vec::new();
            wire::put_u8(&mut end, wire::OP_BATCH_END);
            wire::write_frame(&mut conn.stream, &end)?;

            let mut classes = Vec::with_capacity(roots.len());
            loop {
                let resp = read_response(&mut conn.stream)?;
                let mut input = resp.as_slice();
                match wire::take_u8(&mut input)? {
                    wire::RESP_CHUNK => {
                        let count = wire::take_u32(&mut input)?;
                        for _ in 0..count {
                            classes.push(wire::take_opt_class(&mut input)?);
                        }
                    }
                    wire::RESP_END => {
                        let _total = wire::take_u64(&mut input)?;
                        return Ok(classes);
                    }
                    code => {
                        let err = remote(code, &mut input);
                        loop {
                            let resp = read_response(&mut conn.stream)?;
                            let mut input = resp.as_slice();
                            if wire::take_u8(&mut input)? == wire::RESP_END {
                                break;
                            }
                        }
                        return Err(err);
                    }
                }
            }
        })
    }

    /// Fetches the server's stats/health/recovery snapshot.
    pub fn stats(&mut self) -> Result<RemoteStats, ClientError> {
        self.simple_op(wire::OP_STATS, true, |input| Ok(wire::take_stats(input)?))
    }

    /// Fetches the server store's metrics in the Prometheus exposition
    /// text format.
    pub fn metrics_prometheus(&mut self) -> Result<String, ClientError> {
        self.simple_op(wire::OP_METRICS_PROMETHEUS, true, |input| {
            Ok(wire::take_str(input)?)
        })
    }

    /// Asks the server to checkpoint (snapshot + WAL reset). Also the
    /// remote healing edge for a read-only store.
    pub fn checkpoint(&mut self) -> Result<(), ClientError> {
        self.simple_op(wire::OP_CHECKPOINT, false, |_| Ok(()))
    }

    /// Asks the daemon to shut down gracefully. The acknowledgement
    /// arrives before the drain starts; the socket then closes.
    pub fn shutdown(&mut self) -> Result<(), ClientError> {
        let out = self.simple_op(wire::OP_SHUTDOWN, false, |_| Ok(()));
        self.conn = None;
        out
    }

    fn simple_op<T>(
        &mut self,
        op: u8,
        retry: bool,
        parse: impl Fn(&mut &[u8]) -> Result<T, ClientError>,
    ) -> Result<T, ClientError> {
        self.with_conn(retry, |conn| {
            let mut payload = Vec::new();
            wire::put_u8(&mut payload, op);
            wire::write_frame(&mut conn.stream, &payload)?;
            let resp = read_response(&mut conn.stream)?;
            let mut input = resp.as_slice();
            match wire::take_u8(&mut input)? {
                wire::RESP_OK => parse(&mut input),
                code => Err(remote(code, &mut input)),
            }
        })
    }

    /// Sets the socket read timeout used while waiting for responses
    /// (`None`, the default, blocks indefinitely).
    pub fn set_read_timeout(&mut self, timeout: Option<Duration>) -> Result<(), ClientError> {
        self.ensure_conn()?.stream.set_read_timeout(timeout)?;
        Ok(())
    }
}

/// Reads one response frame; an EOF between frames becomes an
/// `UnexpectedEof` I/O error here, because a client awaiting a response
/// was *not* between requests.
fn read_response(stream: &mut TcpStream) -> Result<Vec<u8>, ClientError> {
    match wire::read_frame(stream)? {
        Some(payload) => Ok(payload),
        None => Err(ClientError::Io(std::io::Error::new(
            std::io::ErrorKind::UnexpectedEof,
            "server closed the connection before responding",
        ))),
    }
}

fn remote(code: u8, input: &mut &[u8]) -> ClientError {
    let message = wire::take_str(input).unwrap_or_default();
    ClientError::Remote { code, message }
}
