//! The daemon's accept loop blocks in `accept` instead of polling: a new
//! connection is served as soon as it arrives, and every shutdown path
//! (the in-process request, the wire `Shutdown` op and a latched
//! SIGTERM) still wakes the loop, drains and checkpoints.
//!
//! The signal case raises SIGTERM in this test process. The daemon's
//! handler only latches a process-wide flag, which is why these cases
//! live in a test binary of their own.

use std::path::{Path, PathBuf};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use alpha_store::AlphaStore;
use alphahashd::client::Client;
use alphahashd::server::{Daemon, DaemonConfig};
use lambda_lang::arena::{ExprArena, NodeId};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A fresh temp directory, removed on drop (even when a case fails).
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        TempDir(
            std::env::temp_dir().join(format!("alphahashd-accept-{}-{tag}", std::process::id())),
        )
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn corpus(arena: &mut ExprArena, count: usize) -> Vec<NodeId> {
    (0..count)
        .map(|i| {
            let mut rng = StdRng::seed_from_u64(0xACCE97 ^ i as u64);
            expr_gen::balanced(arena, 6 + (i % 4) * 8, &mut rng)
        })
        .collect()
}

#[test]
fn a_connection_is_served_without_waiting_for_a_poll() {
    let store: Arc<AlphaStore<u64>> = Arc::new(AlphaStore::default());
    let daemon = Daemon::spawn(store, DaemonConfig::default()).expect("bind loopback daemon");
    let addr = daemon.local_addr().to_string();
    let mut times: Vec<Duration> = (0..20)
        .map(|_| {
            // Arrive while the accept loop is idle, as a real client
            // does; a polling loop would be asleep.
            std::thread::sleep(Duration::from_millis(7));
            let start = Instant::now();
            let mut client = Client::connect(addr.clone()).expect("connect");
            client.server_hello().expect("hello");
            start.elapsed()
        })
        .collect();
    times.sort();
    let median = times[times.len() / 2];
    assert!(
        median < Duration::from_millis(10),
        "connect + hello median {median:?} (all: {times:?})"
    );
    daemon.request_shutdown();
    join_within(daemon, "request after the connections");
}

/// Joins the daemon, failing instead of hanging if its accept loop was
/// never woken.
fn join_within(daemon: Daemon<u64>, what: &str) {
    let (done, joined) = mpsc::channel();
    let joiner = std::thread::spawn(move || {
        daemon.join();
        let _ = done.send(());
    });
    joined
        .recv_timeout(Duration::from_secs(20))
        .unwrap_or_else(|_| panic!("{what}: the daemon did not shut down"));
    joiner.join().expect("joiner thread");
}

/// How a case asks the daemon to stop.
#[derive(Clone, Copy, Debug)]
enum StopBy {
    Request,
    WireOp,
    Signal,
}

/// Ingests a corpus over the wire into a durable store, stops the daemon
/// through `path`, and checks that the drain checkpointed: the WAL is
/// empty and the store reopens clean with every term.
fn shutdown_drains_and_checkpoints(path: StopBy) {
    let mut arena = ExprArena::new();
    let roots = corpus(&mut arena, 30);
    let dir = TempDir::new(&format!("{path:?}"));
    {
        let store: Arc<AlphaStore<u64>> = Arc::new(
            AlphaStore::<u64>::builder()
                .open_durable(dir.path())
                .expect("open durable"),
        );
        let config = DaemonConfig {
            handle_signals: matches!(path, StopBy::Signal),
            ..DaemonConfig::default()
        };
        let daemon = Daemon::spawn(Arc::clone(&store), config).expect("bind loopback daemon");
        let mut client = Client::connect(daemon.local_addr().to_string()).expect("connect");
        client.insert_batch(&arena, &roots).expect("wire ingest");
        assert!(store.wal_records().expect("durable") > 0);
        match path {
            StopBy::Request => daemon.request_shutdown(),
            StopBy::WireOp => client.shutdown().expect("shutdown op"),
            StopBy::Signal => raise_sigterm(),
        }
        join_within(daemon, &format!("{path:?}"));
        assert_eq!(store.wal_records(), Some(0), "{path:?}: drain checkpointed");
    }
    let reopened = AlphaStore::<u64>::open(dir.path()).expect("reopen");
    let info = reopened.recovery_info().expect("recovery info");
    assert!(info.clean, "{path:?}: clean reopen");
    assert_eq!(reopened.num_terms(), roots.len(), "{path:?}");
}

/// Sends SIGTERM to this process. Only called once a daemon with
/// `handle_signals` has installed its latch, which turns the signal into
/// a flag instead of the default termination.
fn raise_sigterm() {
    extern "C" {
        fn raise(signum: i32) -> i32;
    }
    const SIGTERM: i32 = 15;
    // SAFETY: `raise` is the C library's own entry point, and the
    // installed handler only stores to an atomic.
    let rc = unsafe { raise(SIGTERM) };
    assert_eq!(rc, 0, "raise(SIGTERM) failed");
}

#[test]
fn shutdown_by_request_drains_and_checkpoints() {
    shutdown_drains_and_checkpoints(StopBy::Request);
}

#[test]
fn shutdown_by_wire_op_drains_and_checkpoints() {
    shutdown_drains_and_checkpoints(StopBy::WireOp);
}

#[test]
fn shutdown_by_signal_drains_and_checkpoints() {
    shutdown_drains_and_checkpoints(StopBy::Signal);
}
