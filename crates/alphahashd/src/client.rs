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

use alpha_store::codec::{self, DecodeError};
use lambda_lang::{ExprArena, NodeId};

use crate::wire::{self, RemoteOutcome, RemoteStats, ServerHello, TermScratch, WireError};

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

impl From<DecodeError> for ClientError {
    fn from(e: DecodeError) -> Self {
        ClientError::Protocol(e.to_string())
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
    /// Applied to every socket the client dials, reconnects included.
    read_timeout: Option<Duration>,
    /// The term encoder's buffers, reused by every request.
    terms: TermScratch,
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
            read_timeout: None,
            terms: TermScratch::default(),
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
            let mut stream = TcpStream::connect(&self.addr)?;
            stream.set_nodelay(true).ok();
            stream.set_read_timeout(self.read_timeout)?;
            let mut handshake = Vec::new();
            wire::put_handshake(&mut handshake, wire::PROTOCOL_VERSION);
            let hello = exchange(&mut stream, &handshake, wire::take_hello)?;
            self.conn = Some(Conn { stream, hello });
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
        let mut request = vec![wire::OP_INSERT];
        codec::put_term(&mut request, arena, root, &mut self.terms);
        self.call(false, &request, wire::take_outcome)
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
        self.stream_batch(
            wire::OP_INSERT_BATCH,
            false,
            arena,
            roots,
            wire::take_outcome,
        )
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
        let mut request = vec![wire::OP_UPDATE];
        wire::put_update(&mut request, term, path, arena, root);
        self.call(false, &request, wire::take_outcome)
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
        let mut request = vec![op];
        codec::put_term(&mut request, arena, root, &mut self.terms);
        self.call(true, &request, |input| Ok(codec::take_opt_u64(input)?))
    }

    /// Batched containment query: one `Option<class bits>` per pattern,
    /// in order.
    pub fn contains_batch(
        &mut self,
        arena: &ExprArena,
        roots: &[NodeId],
    ) -> Result<Vec<Option<u64>>, ClientError> {
        self.stream_batch(wire::OP_CONTAINS_BATCH, true, arena, roots, |input| {
            Ok(codec::take_opt_u64(input)?)
        })
    }

    /// Fetches the server's stats/health/recovery snapshot.
    pub fn stats(&mut self) -> Result<RemoteStats, ClientError> {
        self.call(true, &[wire::OP_STATS], wire::take_stats)
    }

    /// Fetches the server store's metrics in the Prometheus exposition
    /// text format.
    pub fn metrics_prometheus(&mut self) -> Result<String, ClientError> {
        self.call(true, &[wire::OP_METRICS_PROMETHEUS], |input| {
            Ok(codec::take_str(input)?.to_owned())
        })
    }

    /// Asks the server to checkpoint (snapshot + WAL reset). Also the
    /// remote healing edge for a read-only store.
    pub fn checkpoint(&mut self) -> Result<(), ClientError> {
        self.call(false, &[wire::OP_CHECKPOINT], |_| Ok(()))
    }

    /// Asks the daemon to shut down gracefully. The acknowledgement
    /// arrives before the drain starts; the socket then closes.
    pub fn shutdown(&mut self) -> Result<(), ClientError> {
        let out = self.call(false, &[wire::OP_SHUTDOWN], |_| Ok(()));
        self.conn = None;
        out
    }

    /// One request frame, one response frame (see [`exchange`]), on a
    /// live connection.
    fn call<T>(
        &mut self,
        retry: bool,
        request: &[u8],
        parse: impl Fn(&mut &[u8]) -> Result<T, WireError>,
    ) -> Result<T, ClientError> {
        self.with_conn(retry, |conn| exchange(&mut conn.stream, request, &parse))
    }

    /// Streams `roots` as an `op` batch (the announce, one
    /// `OP_BATCH_CHUNK` per `chunk_terms` terms, `OP_BATCH_END`) and
    /// collects the items of the per-chunk responses with `take_item`.
    /// After a refused chunk, the remaining responses and the END are
    /// read and dropped so the connection stays usable, and the first
    /// error is returned.
    fn stream_batch<T>(
        &mut self,
        op: u8,
        retry: bool,
        arena: &ExprArena,
        roots: &[NodeId],
        take_item: impl Fn(&mut &[u8]) -> Result<T, WireError>,
    ) -> Result<Vec<T>, ClientError> {
        let chunk_terms = self.chunk_terms;
        let mut terms = std::mem::take(&mut self.terms);
        let out = self.with_conn(retry, |conn| {
            wire::write_frame(&mut conn.stream, &[op])?;
            for chunk in roots.chunks(chunk_terms) {
                let mut request = vec![wire::OP_BATCH_CHUNK];
                codec::put_count(&mut request, chunk.len());
                for &root in chunk {
                    codec::put_term(&mut request, arena, root, &mut terms);
                }
                wire::write_frame(&mut conn.stream, &request)?;
            }
            wire::write_frame(&mut conn.stream, &[wire::OP_BATCH_END])?;

            let mut items = Vec::with_capacity(roots.len());
            let mut refused = None;
            loop {
                let response = read_response(&mut conn.stream)?;
                let mut input = response.as_slice();
                match codec::take_u8(&mut input)? {
                    wire::RESP_END => {
                        codec::take_u64(&mut input)?;
                        return refused.map_or(Ok(items), Err);
                    }
                    _ if refused.is_some() => {}
                    wire::RESP_CHUNK => {
                        for _ in 0..codec::take_u32(&mut input)? {
                            items.push(take_item(&mut input)?);
                        }
                    }
                    code => refused = Some(remote(code, &mut input)),
                }
            }
        });
        self.terms = terms;
        out
    }

    /// Sets the socket read timeout used while waiting for responses
    /// (`None`, the default, blocks indefinitely), on the current
    /// connection and on every one a reconnect dials.
    pub fn set_read_timeout(&mut self, timeout: Option<Duration>) -> Result<(), ClientError> {
        if let Some(conn) = &self.conn {
            conn.stream.set_read_timeout(timeout)?;
        }
        self.read_timeout = timeout;
        Ok(())
    }
}

/// Writes `request` and reads its response: `parse` decodes the body
/// after `RESP_OK`; any other status is the typed remote error.
fn exchange<T>(
    stream: &mut TcpStream,
    request: &[u8],
    parse: impl Fn(&mut &[u8]) -> Result<T, WireError>,
) -> Result<T, ClientError> {
    wire::write_frame(stream, request)?;
    let response = read_response(stream)?;
    let mut input = response.as_slice();
    match codec::take_u8(&mut input)? {
        wire::RESP_OK => Ok(parse(&mut input)?),
        code => Err(remote(code, &mut input)),
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
    let message = codec::take_str(input).unwrap_or_default().to_owned();
    ClientError::Remote { code, message }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;
    use std::sync::mpsc;

    /// Reads the handshake on `stream` and answers it with a hello.
    fn answer_handshake(stream: &mut TcpStream) {
        wire::read_frame(stream)
            .expect("handshake readable")
            .expect("handshake frame");
        let mut hello = vec![wire::RESP_OK];
        let server = ServerHello {
            version: wire::PROTOCOL_VERSION,
            hash_bits: 64,
            shard_count: 1,
            subexpr_min_nodes: None,
        };
        wire::put_hello(&mut hello, &server);
        wire::write_frame(stream, &hello).expect("hello written");
    }

    /// The read timeout outlives a reconnect. The fake server takes
    /// exactly two connections: the first hangs up on the first request,
    /// the second answers the handshake and then never answers. With a
    /// 200 ms timeout, the request on the redialled socket must fail
    /// instead of blocking.
    #[test]
    fn read_timeout_holds_after_a_reconnect() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let addr = listener.local_addr().expect("local addr").to_string();
        let server = std::thread::spawn(move || {
            let (mut first, _) = listener.accept().expect("first connection");
            answer_handshake(&mut first);
            let _ = wire::read_frame(&mut first);
            drop(first);
            let (mut second, _) = listener.accept().expect("second connection");
            answer_handshake(&mut second);
            // Swallow requests unanswered until the client hangs up.
            while let Ok(Some(_)) = wire::read_frame(&mut second) {}
        });

        let (done, outcome) = mpsc::channel();
        let client = std::thread::spawn(move || {
            let mut client = Client::connect(addr).expect("connect");
            client
                .set_read_timeout(Some(Duration::from_millis(200)))
                .expect("set the timeout");
            let mut arena = ExprArena::new();
            let term = lambda_lang::parse(&mut arena, r"\x. x").expect("parses");
            let first = client.insert(&arena, term).map(drop);
            let second = client.insert(&arena, term).map(drop);
            done.send((first, second)).expect("test thread waits");
        });

        let (first, second) = outcome
            .recv_timeout(Duration::from_secs(3))
            .expect("the request on the redialled socket blocked for 3 s");
        assert!(matches!(first, Err(ClientError::Io(_))), "{first:?}");
        assert!(matches!(second, Err(ClientError::Io(_))), "{second:?}");
        client.join().expect("client thread");
        server.join().expect("server thread");
    }
}
