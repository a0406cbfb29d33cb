//! Loopback integration tests: a real daemon on 127.0.0.1, real TCP
//! clients, and the in-process store as the oracle.
//!
//! The load-bearing property is **remote = local**: whatever N
//! concurrent wire clients ingest must leave the daemon's store in
//! exactly the state a fresh single-process `insert_batch` of the same
//! corpus produces — same classes, same census, zero unconfirmed
//! merges — because the daemon is a transport, not a second
//! implementation of the store's semantics.

use std::collections::BTreeMap;
use std::io::Write;
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use alpha_store::{AlphaStore, FaultKind, FaultVfs};
use alphahashd::client::Client;
use alphahashd::server::{Daemon, DaemonConfig};
use alphahashd::wire;
use lambda_lang::arena::{ExprArena, NodeId};
use lambda_lang::uniquify::uniquify_into;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A fresh temp directory, removed on drop (even when a case fails).
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        use std::sync::atomic::{AtomicU64, Ordering};
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let path = std::env::temp_dir().join(format!(
            "alphahashd-loopback-{}-{}-{}",
            std::process::id(),
            tag,
            COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        TempDir(path)
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

/// A varied corpus with alpha-duplicates (every other term is an
/// alpha-renaming), deterministic in `seed`.
fn corpus(arena: &mut ExprArena, seed: u64, count: usize) -> Vec<NodeId> {
    let mut roots = Vec::with_capacity(count);
    for i in 0..count {
        let mut rng = StdRng::seed_from_u64(seed ^ (i as u64 % 16));
        let size = 6 + (i % 4) * 8;
        let mut scratch = ExprArena::new();
        let root = match i % 3 {
            0 => expr_gen::balanced(&mut scratch, size, &mut rng),
            1 => expr_gen::unbalanced(&mut scratch, size, &mut rng),
            _ => expr_gen::arithmetic(&mut scratch, size.max(8), &mut rng),
        };
        if i % 2 == 0 {
            roots.push(uniquify_into(&scratch, root, arena));
        } else {
            roots.push(arena.import_subtree(&scratch, root));
        }
    }
    roots
}

/// Everything observable about a store's classes, keyed by canonical
/// text: member, occurrence and node counts. Equal maps ⇒ identical
/// partitions with identical bookkeeping.
fn class_census(store: &AlphaStore<u64>) -> BTreeMap<String, (u64, u64, usize)> {
    let mut census = BTreeMap::new();
    for class in store.classes() {
        census.insert(
            store.canonical_text(class),
            (
                store.members(class),
                store.occurrences(class),
                store.node_count(class),
            ),
        );
    }
    census
}

fn spawn_daemon(store: Arc<AlphaStore<u64>>) -> Daemon<u64> {
    Daemon::spawn(store, DaemonConfig::default()).expect("bind loopback daemon")
}

/// N concurrent wire clients ingest disjoint slices; the daemon-side
/// store must equal a fresh single-process build of the same corpus —
/// classes, census, and the full stats block (collision-free at u64,
/// so even the created/merged split is interleaving-independent in
/// roots mode).
#[test]
fn concurrent_clients_match_single_process_oracle() {
    const CLIENTS: usize = 4;
    const TERMS: usize = 600;
    let mut arena = ExprArena::new();
    let roots = corpus(&mut arena, 0xA11CE, TERMS);

    let store: Arc<AlphaStore<u64>> = Arc::new(AlphaStore::builder().seed(0xD0).build());
    let daemon = spawn_daemon(Arc::clone(&store));
    let addr = daemon.local_addr().to_string();

    let slice_len = TERMS / CLIENTS;
    std::thread::scope(|scope| {
        for c in 0..CLIENTS {
            let addr = addr.clone();
            let arena = &arena;
            let slice = &roots[c * slice_len..(c + 1) * slice_len];
            scope.spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                // Small chunks so the accumulator really coalesces work
                // from different connections into shared store batches.
                client.set_chunk_terms(37);
                let outcomes = client.insert_batch(arena, slice).expect("ingest slice");
                assert_eq!(
                    outcomes.len(),
                    slice.len(),
                    "one outcome per term, in order"
                );
                outcomes
            });
        }
    });

    // Oracle: the same corpus through one in-process batch.
    let oracle: AlphaStore<u64> = AlphaStore::builder().seed(0xD0).build();
    oracle.insert_batch(&arena, &roots);

    let daemon_stats = store.stats();
    let oracle_stats = oracle.stats();
    assert_eq!(
        daemon_stats, oracle_stats,
        "stats match the single-process build exactly"
    );
    assert_eq!(
        daemon_stats.unconfirmed_merges, 0,
        "exactness survives the wire"
    );
    assert_eq!(
        class_census(&store),
        class_census(&oracle),
        "class censuses are identical"
    );
    assert_eq!(store.num_classes(), oracle.num_classes());
    assert_eq!(store.num_terms(), TERMS);

    let mut client = Client::connect(addr).expect("connect");
    client.shutdown().expect("shutdown op");
    daemon.join();
}

/// The same oracle equivalence in subexpression granularity, where the
/// daemon also has to preserve the subterm index. The created/merged
/// *split* is chunk-boundary-dependent by documented design, so the
/// oracle comparison is the census plus the interleaving-independent
/// aggregates.
#[test]
fn concurrent_clients_match_oracle_subexpressions() {
    const CLIENTS: usize = 3;
    const TERMS: usize = 240;
    let mut arena = ExprArena::new();
    let roots = corpus(&mut arena, 0x5EED, TERMS);

    let build = || {
        AlphaStore::<u64>::builder()
            .seed(0xD1)
            .subexpressions(3)
            .build()
    };
    let store = Arc::new(build());
    let daemon = spawn_daemon(Arc::clone(&store));
    let addr = daemon.local_addr().to_string();

    let slice_len = TERMS / CLIENTS;
    std::thread::scope(|scope| {
        for c in 0..CLIENTS {
            let addr = addr.clone();
            let arena = &arena;
            let slice = &roots[c * slice_len..(c + 1) * slice_len];
            scope.spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                client.set_chunk_terms(19);
                let outcomes = client.insert_batch(arena, slice).expect("ingest slice");
                assert_eq!(outcomes.len(), slice.len());
            });
        }
    });

    let oracle = build();
    oracle.insert_batch(&arena, &roots);

    let d = store.stats();
    let o = oracle.stats();
    assert_eq!(
        class_census(&store),
        class_census(&oracle),
        "identical partitions"
    );
    assert_eq!(d.terms_ingested, o.terms_ingested);
    assert_eq!(d.classes_created, o.classes_created);
    assert_eq!(d.subterms_indexed, o.subterms_indexed);
    assert_eq!(d.subterms_skipped_min_nodes, o.subterms_skipped_min_nodes);
    assert_eq!(d.hash_collisions, o.hash_collisions);
    assert_eq!(
        d.merges_confirmed + d.subterm_merges_confirmed,
        o.merges_confirmed + o.subterm_merges_confirmed,
        "total merges reconcile regardless of chunk boundaries"
    );
    assert_eq!(d.unconfirmed_merges, 0);

    // Containment queries over the wire see the subterm index.
    let mut client = Client::connect(addr).expect("connect");
    let hits = client
        .contains_batch(&arena, &roots[..20])
        .expect("contains batch");
    assert_eq!(hits.len(), 20);
    assert!(
        hits.iter().all(Option::is_some),
        "every ingested root is contained"
    );

    client.shutdown().expect("shutdown op");
    daemon.join();
}

/// A store that went read-only refuses wire ingest with the typed
/// `ERR_READ_ONLY` code while `Lookup`/`Contains`/`Stats` keep
/// answering, and a remote `Checkpoint` heals it — the satellite
/// requirement that the health machine maps end-to-end.
#[test]
fn read_only_store_refuses_wire_ingest_with_typed_code() {
    let mut arena = ExprArena::new();
    let roots = corpus(&mut arena, 0xC0FFEE, 12);
    let dir = TempDir::new("read-only");
    let fault = FaultVfs::new();
    let store: Arc<AlphaStore<u64>> = Arc::new(
        AlphaStore::<u64>::builder()
            .seed(0xFA17)
            .sync_on_commit(true)
            .vfs(Arc::new(fault.clone()))
            .persist_retries(1)
            .persist_backoff(Duration::from_millis(0))
            .open_durable(dir.path())
            .expect("open durable"),
    );
    let daemon = spawn_daemon(Arc::clone(&store));
    let mut client = Client::connect(daemon.local_addr().to_string()).expect("connect");

    let (known, lost) = roots.split_at(8);
    let outcomes = client
        .insert_batch(&arena, known)
        .expect("healthy wire ingest");
    assert_eq!(outcomes.len(), known.len());

    // The disk dies for good. The flush that carries the next insert
    // exhausts the retry policy: that first failure surfaces as the
    // persistence error that flipped the store...
    fault.fail_always(FaultKind::Enospc);
    let err = client.insert(&arena, lost[0]).expect_err("disk is dead");
    let code = err.remote_code().expect("typed remote error");
    assert!(
        (wire::ERR_PERSIST_IO..=wire::ERR_PERSIST_SNAPSHOT).contains(&code),
        "first refusal carries the persist-error code, got {code:#04x}: {err}"
    );

    // ...and every ingest after it is refused up front with the typed
    // read-only code.
    let err = client
        .insert(&arena, lost[1])
        .expect_err("read-only refusal");
    assert!(err.is_read_only(), "expected ERR_READ_ONLY, got: {err}");
    let err = client
        .insert_batch(&arena, lost)
        .expect_err("batch refused too");
    assert!(err.is_read_only(), "batch refusal is typed too, got: {err}");

    // Read ops keep serving over the same connection.
    assert!(client
        .lookup(&arena, known[0])
        .expect("lookup serves")
        .is_some());
    assert!(client
        .contains(&arena, known[0])
        .expect("contains serves")
        .is_some());
    let stats = client.stats().expect("stats serves");
    assert_eq!(stats.health_code, 2, "health is read-only on the wire");
    assert!(!stats.health_reason.is_empty());
    assert_eq!(stats.store.terms_ingested, known.len() as u64);

    // The operator fixes the disk; a *remote* checkpoint heals.
    fault.clear();
    client
        .checkpoint()
        .expect("remote checkpoint over healed disk");
    let stats = client.stats().expect("stats after heal");
    assert_eq!(stats.health_code, 0, "healed");
    let outcomes = client
        .insert_batch(&arena, lost)
        .expect("ingest after heal");
    assert_eq!(outcomes.len(), lost.len());

    client.shutdown().expect("shutdown op");
    daemon.join();
}

/// A connection torn mid-batch (chunks sent, no END, socket dropped)
/// must leave the store consistent: the chunks that arrived are
/// ingested exactly (they were already committed to the pipeline), the
/// partition stays exact, and the daemon keeps serving new clients.
#[test]
fn torn_connection_mid_batch_leaves_store_consistent() {
    let mut arena = ExprArena::new();
    let roots = corpus(&mut arena, 0x7EA6, 9);
    let store: Arc<AlphaStore<u64>> = Arc::new(AlphaStore::builder().seed(0xD2).build());
    let daemon = spawn_daemon(Arc::clone(&store));
    let addr = daemon.local_addr();

    // Raw wire client: handshake, announce, one 3-term chunk, then DROP
    // the socket without OP_BATCH_END.
    {
        let mut stream = TcpStream::connect(addr).expect("connect raw");
        let mut hs = Vec::new();
        wire::put_handshake(&mut hs, wire::PROTOCOL_VERSION);
        wire::write_frame(&mut stream, &hs).expect("handshake");
        let hello = wire::read_frame(&mut stream)
            .expect("hello")
            .expect("hello frame");
        assert_eq!(hello[0], wire::RESP_OK);

        let announce = vec![wire::OP_INSERT_BATCH];
        wire::write_frame(&mut stream, &announce).expect("announce");

        let mut chunk = Vec::new();
        chunk.push(wire::OP_BATCH_CHUNK);
        chunk.extend_from_slice(&3u32.to_le_bytes());
        for &root in &roots[..3] {
            wire::put_term(&mut chunk, &arena, root);
        }
        wire::write_frame(&mut stream, &chunk).expect("chunk");
        // Torn: no END, just drop.
    }

    // The submitted chunk still completes server-side; wait for it.
    let deadline = Instant::now() + Duration::from_secs(10);
    while store.num_terms() < 3 {
        assert!(Instant::now() < deadline, "torn chunk was never ingested");
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(
        store.num_terms(),
        3,
        "exactly the delivered chunk, nothing else"
    );
    assert_eq!(store.stats().unconfirmed_merges, 0);

    // A connection torn mid-FRAME (header promises more than arrives)
    // must not wedge or corrupt anything either.
    {
        let mut stream = TcpStream::connect(addr).expect("connect raw");
        let mut hs = Vec::new();
        wire::put_handshake(&mut hs, wire::PROTOCOL_VERSION);
        wire::write_frame(&mut stream, &hs).expect("handshake");
        let _ = wire::read_frame(&mut stream).expect("hello");
        // A frame header claiming 1 MiB, followed by silence.
        stream
            .write_all(&(1_048_576u32).to_le_bytes())
            .expect("len");
        stream.write_all(&0u32.to_le_bytes()).expect("crc");
        stream.write_all(b"partial").expect("some payload");
        // Drop mid-frame.
    }

    // The daemon still serves: a normal client finishes the corpus and
    // the result equals the single-process oracle over the same
    // effective multiset (first 3 + all 9 again).
    let mut client = Client::connect(addr.to_string()).expect("connect");
    let outcomes = client
        .insert_batch(&arena, &roots)
        .expect("post-tear ingest");
    assert_eq!(outcomes.len(), roots.len());

    let oracle: AlphaStore<u64> = AlphaStore::builder().seed(0xD2).build();
    oracle.insert_batch(&arena, &roots[..3]);
    oracle.insert_batch(&arena, &roots);
    assert_eq!(class_census(&store), class_census(&oracle));
    assert_eq!(store.stats(), oracle.stats());

    client.shutdown().expect("shutdown op");
    daemon.join();
}

/// The wire handshake rejects unknown protocol versions with the typed
/// code instead of guessing.
#[test]
fn handshake_rejects_unknown_version() {
    let store: Arc<AlphaStore<u64>> = Arc::new(AlphaStore::default());
    let daemon = spawn_daemon(Arc::clone(&store));

    let mut stream = TcpStream::connect(daemon.local_addr()).expect("connect raw");
    let mut hs = Vec::new();
    wire::put_handshake(&mut hs, 99);
    wire::write_frame(&mut stream, &hs).expect("handshake");
    let resp = wire::read_frame(&mut stream)
        .expect("response")
        .expect("frame");
    assert_eq!(resp[0], wire::ERR_UNSUPPORTED_VERSION);

    daemon.request_shutdown();
    daemon.join();
}

/// Graceful shutdown (over the wire) drains in-flight ingest,
/// checkpoints the WAL, and releases the directory lock — so the next
/// open is a CLEAN reopen: nothing replayed, no recovery checkpoint,
/// and the state equals what was ingested. This is the acceptance
/// criterion pinned by `AlphaStore::recovery_info`.
#[test]
fn graceful_shutdown_checkpoints_for_clean_reopen() {
    let mut arena = ExprArena::new();
    let roots = corpus(&mut arena, 0xFADE, 40);
    let dir = TempDir::new("graceful");

    {
        let store: Arc<AlphaStore<u64>> = Arc::new(
            AlphaStore::<u64>::builder()
                .seed(0xD3)
                .open_durable(dir.path())
                .expect("open durable"),
        );
        let daemon = spawn_daemon(Arc::clone(&store));
        let mut client = Client::connect(daemon.local_addr().to_string()).expect("connect");
        let outcomes = client.insert_batch(&arena, &roots).expect("wire ingest");
        assert_eq!(outcomes.len(), roots.len());
        assert!(
            store.wal_records().expect("durable") > 0,
            "WAL has the ingest"
        );

        client.shutdown().expect("shutdown op");
        daemon.join();
        // `daemon` held the last in-scope Arc besides ours; dropping
        // ours below releases the dir lock for the reopen.
        assert_eq!(
            store.wal_records(),
            Some(0),
            "shutdown checkpointed: WAL reset under a fresh epoch"
        );
    }

    let reopened = AlphaStore::<u64>::open(dir.path()).expect("reopen after graceful shutdown");
    let info = reopened
        .recovery_info()
        .expect("recovery info on a reopened store");
    assert!(
        info.clean,
        "clean reopen: snapshot already held every WAL record"
    );
    assert_eq!(info.replayed_records, 0, "nothing to replay");

    // And the state is exactly what the clients ingested.
    let oracle: AlphaStore<u64> = AlphaStore::builder().seed(0xD3).build();
    oracle.insert_batch(&arena, &roots);
    assert_eq!(reopened.num_terms(), roots.len());
    assert_eq!(class_census(&reopened), class_census(&oracle));
    assert_eq!(reopened.stats(), oracle.stats());
}

/// In-flight work is drained, not dropped: a shutdown requested while
/// a batch is mid-stream still answers that batch completely before
/// the daemon exits.
#[test]
fn shutdown_drains_in_flight_batch() {
    let mut arena = ExprArena::new();
    let roots = corpus(&mut arena, 0xD7A1, 120);
    let store: Arc<AlphaStore<u64>> = Arc::new(AlphaStore::builder().seed(0xD4).build());
    let daemon = spawn_daemon(Arc::clone(&store));
    let addr = daemon.local_addr().to_string();

    let ingest = std::thread::spawn({
        let arena_roots: Vec<NodeId> = roots.clone();
        let addr = addr.clone();
        let arena = {
            // Move a private copy of the corpus into the thread.
            let mut dst = ExprArena::new();
            let copied: Vec<NodeId> = arena_roots
                .iter()
                .map(|&r| dst.import_subtree(&arena, r))
                .collect();
            (dst, copied)
        };
        move || {
            let (arena, roots) = arena;
            let mut client = Client::connect(addr).expect("connect");
            client.set_chunk_terms(8);
            client
                .insert_batch(&arena, &roots)
                .expect("in-flight batch completes")
        }
    });
    // Wait until the batch is demonstrably mid-flight (some terms
    // ingested, surely not all), then pull the plug.
    let deadline = Instant::now() + Duration::from_secs(10);
    while store.num_terms() == 0 {
        assert!(Instant::now() < deadline, "batch never started");
        std::thread::sleep(Duration::from_millis(1));
    }
    daemon.request_shutdown();
    let outcomes = ingest.join().expect("ingest thread");
    assert_eq!(
        outcomes.len(),
        roots.len(),
        "every term answered despite the shutdown race"
    );
    daemon.join();
    assert_eq!(store.num_terms(), roots.len());
    assert_eq!(store.stats().unconfirmed_merges, 0);
}

/// The wire `Update` op is the local `update` exactly: a daemon-side
/// rewrite must leave the store in the same state as the identical
/// local call on an identical store, echo the term handle, and make the
/// rewritten class visible to wire lookups — remote = local, extended
/// to the incremental path.
#[test]
fn wire_update_matches_local_update() {
    use lambda_lang::parse::parse;

    let mut arena = ExprArena::new();
    let t = parse(&mut arena, r"\x. x + (v * 3)").unwrap();
    let extra = parse(&mut arena, r"\y. y + (v * 3)").unwrap();
    let patch = parse(&mut arena, "v * 4").unwrap();

    let build = || {
        AlphaStore::<u64>::builder()
            .seed(0xD5)
            .subexpressions(1)
            .build()
    };
    let store = Arc::new(build());
    let daemon = spawn_daemon(Arc::clone(&store));
    let mut client = Client::connect(daemon.local_addr().to_string()).expect("connect");

    let ins = client.insert(&arena, t).expect("wire insert");
    let dup = client.insert(&arena, extra).expect("wire insert dup");
    assert_eq!(ins.class, dup.class, "alpha-duplicates share a class");

    // Rewrite the multiplication argument: lam body (0), then the
    // application's argument (1).
    let out = client
        .update(ins.term, &[0, 1], &arena, patch)
        .expect("wire update");
    assert_eq!(out.term, ins.term, "the handle is echoed back");
    assert_ne!(out.class, ins.class, "the term moved to a new class");
    assert!(out.fresh, "nothing else is alpha-equal to the rewrite");
    assert!(out.subs_indexed > 0, "sub mode re-indexes changed entries");

    // The daemon store equals a local store that did the same ops.
    let oracle = build();
    let o_ins = oracle.insert(&arena, t);
    oracle.insert(&arena, extra);
    let o_out = oracle.update(
        o_ins.term,
        alpha_store::Rewrite {
            path: &[0, 1],
            arena: &arena,
            root: patch,
        },
    );
    assert_eq!(out.fresh, o_out.fresh);
    assert_eq!(class_census(&store), class_census(&oracle));
    assert_eq!(store.stats(), oracle.stats());
    assert_eq!(store.stats().unconfirmed_merges, 0);

    // And the rewritten term answers wire lookups.
    let rewritten = parse(&mut arena, r"\q. q + (v * 4)").unwrap();
    let hit = client.lookup(&arena, rewritten).expect("wire lookup");
    assert_eq!(hit, Some(out.class));
    let gone = client.lookup(&arena, t).expect("wire lookup old");
    assert_eq!(gone, Some(ins.class), "the duplicate still holds the class");

    client.shutdown().expect("shutdown op");
    daemon.join();
}

/// Update refusals are typed end-to-end: a rewrite the store rejects
/// comes back as `ERR_INVALID_REWRITE` (before any state changes), and
/// a read-only store refuses updates with `ERR_READ_ONLY` exactly like
/// ingest — while reads keep serving.
#[test]
fn wire_update_refusals_are_typed() {
    use lambda_lang::parse::parse;

    let mut arena = ExprArena::new();
    let t = parse(&mut arena, r"\x. x + 1").unwrap();
    let patch = parse(&mut arena, "2").unwrap();

    let dir = TempDir::new("update-refusals");
    let fault = FaultVfs::new();
    let store: Arc<AlphaStore<u64>> = Arc::new(
        AlphaStore::<u64>::builder()
            .seed(0xFA18)
            .sync_on_commit(true)
            .vfs(Arc::new(fault.clone()))
            .persist_retries(0)
            .persist_backoff(Duration::from_millis(0))
            .open_durable(dir.path())
            .expect("open durable"),
    );
    let daemon = spawn_daemon(Arc::clone(&store));
    let mut client = Client::connect(daemon.local_addr().to_string()).expect("connect");

    let ins = client.insert(&arena, t).expect("wire insert");
    let census_before = class_census(&store);

    // A path that does not resolve is a typed refusal...
    let err = client
        .update(ins.term, &[0, 0, 0, 0], &arena, patch)
        .expect_err("bad path refused");
    assert!(
        err.is_invalid_rewrite(),
        "expected ERR_INVALID_REWRITE: {err}"
    );

    // ...and so is a term handle the store never issued.
    let err = client
        .update(u64::MAX, &[], &arena, patch)
        .expect_err("bogus handle refused");
    assert!(
        err.is_invalid_rewrite(),
        "expected ERR_INVALID_REWRITE: {err}"
    );
    assert_eq!(
        class_census(&store),
        census_before,
        "refusals change nothing"
    );

    // The disk dies; the store flips read-only; updates are refused up
    // front with the same typed code as ingest.
    fault.fail_always(FaultKind::Enospc);
    let _ = client.insert(&arena, patch).expect_err("disk is dead");
    let err = client
        .update(ins.term, &[0, 1], &arena, patch)
        .expect_err("read-only refusal");
    assert!(err.is_read_only(), "expected ERR_READ_ONLY, got: {err}");
    assert_eq!(class_census(&store), census_before, "nothing changed");

    // Reads still serve over the same connection.
    assert!(client.lookup(&arena, t).expect("lookup serves").is_some());

    fault.clear();
    client.shutdown().expect("shutdown op");
    daemon.join();
}

/// A connection torn immediately after sending a complete `Update`
/// frame (reply never read) must leave the store consistent: the update
/// was received, so it applies exactly once, stays exact, and the
/// daemon keeps serving; a half-sent update frame applies nothing.
#[test]
fn torn_connection_mid_update_leaves_store_consistent() {
    use lambda_lang::parse::parse;

    let mut arena = ExprArena::new();
    let t = parse(&mut arena, r"\x. x + (v * 3)").unwrap();
    let patch = parse(&mut arena, "v * 4").unwrap();

    let store: Arc<AlphaStore<u64>> = Arc::new(AlphaStore::builder().seed(0xD6).build());
    let daemon = spawn_daemon(Arc::clone(&store));
    let addr = daemon.local_addr();

    let mut client = Client::connect(addr.to_string()).expect("connect");
    let ins = client.insert(&arena, t).expect("insert");

    // Raw wire client: handshake, one complete update frame, then DROP
    // the socket without reading the response.
    {
        let mut stream = TcpStream::connect(addr).expect("connect raw");
        let mut hs = Vec::new();
        wire::put_handshake(&mut hs, wire::PROTOCOL_VERSION);
        wire::write_frame(&mut stream, &hs).expect("handshake");
        let _ = wire::read_frame(&mut stream).expect("hello");

        let mut req = Vec::new();
        req.push(wire::OP_UPDATE);
        wire::put_update(&mut req, ins.term, &[0, 1], &arena, patch);
        wire::write_frame(&mut stream, &req).expect("update frame");
        // Torn: response never read, socket dropped.
    }

    // The received update still completes server-side; wait for it.
    let rewritten = parse(&mut arena, r"\q. q + (v * 4)").unwrap();
    let deadline = Instant::now() + Duration::from_secs(10);
    while store.lookup(&arena, rewritten).is_none() {
        assert!(Instant::now() < deadline, "torn update was never applied");
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(store.lookup(&arena, t), None, "the old class is stale");
    assert_eq!(store.num_terms(), 1, "repointed, not re-minted");
    assert_eq!(store.stats().unconfirmed_merges, 0);

    // A half-sent update frame (header promises more than arrives) must
    // apply nothing and not wedge the daemon.
    let census_after_update = class_census(&store);
    {
        let mut stream = TcpStream::connect(addr).expect("connect raw");
        let mut hs = Vec::new();
        wire::put_handshake(&mut hs, wire::PROTOCOL_VERSION);
        wire::write_frame(&mut stream, &hs).expect("handshake");
        let _ = wire::read_frame(&mut stream).expect("hello");
        let mut req = Vec::new();
        req.push(wire::OP_UPDATE);
        wire::put_update(&mut req, ins.term, &[0, 1], &arena, patch);
        stream
            .write_all(&(req.len() as u32 + 64).to_le_bytes())
            .expect("len");
        stream.write_all(&0u32.to_le_bytes()).expect("crc");
        stream.write_all(&req).expect("partial payload");
        // Drop mid-frame.
    }
    std::thread::sleep(Duration::from_millis(50));
    assert_eq!(
        class_census(&store),
        census_after_update,
        "a torn frame applies nothing"
    );

    // The daemon still serves a normal client end to end.
    let mut client = Client::connect(addr.to_string()).expect("connect after tears");
    let hit = client.lookup(&arena, rewritten).expect("lookup");
    assert!(hit.is_some());

    client.shutdown().expect("shutdown op");
    daemon.join();
}

/// A term payload whose counts promise more than the frame carries is a
/// typed `ERR_TERM`, not an allocation: the 5-byte request
/// `OP_LOOKUP ff ff ff ff` once aborted the whole daemon process. The
/// same holds for a contains-batch chunk announcing `u32::MAX` terms,
/// and for a 209-byte run that shares nodes (a bool, then 22 ×
/// `App(i-1, i-1)`), whose unfolded tree once pinned a core in
/// `lookup`. Afterwards the daemon still answers a well-formed lookup
/// on a new connection.
#[test]
fn oversized_counts_are_refused_and_the_daemon_keeps_serving() {
    let mut arena = ExprArena::new();
    let roots = corpus(&mut arena, 0x0C0DE, 4);
    let store: Arc<AlphaStore<u64>> = Arc::new(AlphaStore::builder().seed(0xD5).build());
    store.insert_batch(&arena, &roots);
    let daemon = spawn_daemon(Arc::clone(&store));
    let addr = daemon.local_addr();

    let mut stream = TcpStream::connect(addr).expect("connect raw");
    let mut hs = Vec::new();
    wire::put_handshake(&mut hs, wire::PROTOCOL_VERSION);
    wire::write_frame(&mut stream, &hs).expect("handshake");
    let _ = wire::read_frame(&mut stream).expect("hello");
    wire::write_frame(&mut stream, &[wire::OP_LOOKUP, 0xFF, 0xFF, 0xFF, 0xFF]).expect("lookup");
    let resp = wire::read_frame(&mut stream)
        .expect("response")
        .expect("frame");
    assert_eq!(resp[0], wire::ERR_TERM);

    let mut dag = vec![wire::OP_LOOKUP];
    dag.extend_from_slice(&0u32.to_le_bytes()); // no names
    dag.extend_from_slice(&23u32.to_le_bytes());
    dag.extend_from_slice(&[4, 2, 1]); // true
    for i in 1..=22u32 {
        dag.push(2);
        dag.extend_from_slice(&(i - 1).to_le_bytes());
        dag.extend_from_slice(&(i - 1).to_le_bytes());
    }
    wire::write_frame(&mut stream, &dag).expect("shared lookup");
    let resp = wire::read_frame(&mut stream)
        .expect("response")
        .expect("frame");
    assert_eq!(resp[0], wire::ERR_TERM);

    wire::write_frame(&mut stream, &[wire::OP_CONTAINS_BATCH]).expect("announce");
    let mut chunk = vec![wire::OP_BATCH_CHUNK];
    chunk.extend_from_slice(&u32::MAX.to_le_bytes());
    wire::put_term(&mut chunk, &arena, roots[0]);
    wire::write_frame(&mut stream, &chunk).expect("chunk");
    wire::write_frame(&mut stream, &[wire::OP_BATCH_END]).expect("end");
    let resp = wire::read_frame(&mut stream)
        .expect("response")
        .expect("frame");
    assert_eq!(resp[0], wire::ERR_TERM);
    drop(stream);

    let mut client = Client::connect(addr.to_string()).expect("connect after");
    let class = store.lookup(&arena, roots[1]).map(|c| c.to_bits());
    assert!(class.is_some());
    assert_eq!(client.lookup(&arena, roots[1]).expect("lookup"), class);
    client.shutdown().expect("shutdown op");
    daemon.join();
}

/// A zero-count chunk is legal in both streamed batches: it is answered
/// with an empty `RESP_CHUNK`, the batch ends with `RESP_END` 0, and the
/// same connection keeps serving. (An insert batch once refused it as
/// "daemon is draining" on a healthy daemon.)
#[test]
fn zero_count_chunks_are_answered_empty_in_both_batch_ops() {
    let mut arena = ExprArena::new();
    let roots = corpus(&mut arena, 0x2E60, 1);
    let store: Arc<AlphaStore<u64>> = Arc::new(AlphaStore::builder().seed(0xD6).build());
    let daemon = spawn_daemon(Arc::clone(&store));

    let mut stream = TcpStream::connect(daemon.local_addr()).expect("connect raw");
    let mut hs = Vec::new();
    wire::put_handshake(&mut hs, wire::PROTOCOL_VERSION);
    wire::write_frame(&mut stream, &hs).expect("handshake");
    let _ = wire::read_frame(&mut stream).expect("hello");
    let mut empty_chunk = vec![wire::OP_BATCH_CHUNK];
    empty_chunk.extend_from_slice(&0u32.to_le_bytes());
    let mut empty_end = vec![wire::RESP_END];
    empty_end.extend_from_slice(&0u64.to_le_bytes());
    for op in [wire::OP_INSERT_BATCH, wire::OP_CONTAINS_BATCH] {
        wire::write_frame(&mut stream, &[op]).expect("announce");
        wire::write_frame(&mut stream, &empty_chunk).expect("chunk");
        wire::write_frame(&mut stream, &[wire::OP_BATCH_END]).expect("end");
        let resp = wire::read_frame(&mut stream)
            .expect("chunk response")
            .expect("frame");
        assert_eq!(resp, [wire::RESP_CHUNK, 0, 0, 0, 0], "op {op:#04x}");
        let resp = wire::read_frame(&mut stream)
            .expect("end response")
            .expect("frame");
        assert_eq!(resp, empty_end, "op {op:#04x}");
    }
    // A batch with no chunks at all is answered with END alone.
    wire::write_frame(&mut stream, &[wire::OP_INSERT_BATCH]).expect("announce");
    wire::write_frame(&mut stream, &[wire::OP_BATCH_END]).expect("end");
    let resp = wire::read_frame(&mut stream)
        .expect("end response")
        .expect("frame");
    assert_eq!(resp, empty_end);
    assert_eq!(store.num_terms(), 0);

    let mut insert = vec![wire::OP_INSERT];
    wire::put_term(&mut insert, &arena, roots[0]);
    wire::write_frame(&mut stream, &insert).expect("insert");
    let resp = wire::read_frame(&mut stream)
        .expect("insert response")
        .expect("frame");
    assert_eq!(resp[0], wire::RESP_OK);
    assert_eq!(store.num_terms(), 1);

    wire::write_frame(&mut stream, &[wire::OP_SHUTDOWN]).expect("shutdown");
    let resp = wire::read_frame(&mut stream)
        .expect("shutdown ack")
        .expect("frame");
    assert_eq!(resp, [wire::RESP_OK]);
    daemon.join();
}

/// A raw connection past the handshake, with a batch of `op` announced.
fn announce_batch(addr: std::net::SocketAddr, op: u8) -> TcpStream {
    let mut stream = TcpStream::connect(addr).expect("connect raw");
    let mut hs = Vec::new();
    wire::put_handshake(&mut hs, wire::PROTOCOL_VERSION);
    wire::write_frame(&mut stream, &hs).expect("handshake");
    let hello = wire::read_frame(&mut stream)
        .expect("hello")
        .expect("hello frame");
    assert_eq!(hello[0], wire::RESP_OK);
    wire::write_frame(&mut stream, &[op]).expect("announce");
    stream
}

/// A client that announces a streamed batch and then goes silent, between
/// frames or inside one, must not hold the drain: once shutdown is
/// requested, the daemon gives up on it after the stall limit (one
/// second) and `join` returns.
#[test]
fn a_stalled_batch_does_not_hold_the_drain() {
    let mut arena = ExprArena::new();
    let roots = corpus(&mut arena, 0x57A1, 2);
    let store: Arc<AlphaStore<u64>> = Arc::new(AlphaStore::builder().seed(0xD8).build());
    let daemon = spawn_daemon(Arc::clone(&store));
    let mut stream = announce_batch(daemon.local_addr(), wire::OP_INSERT_BATCH);
    let mut chunk = vec![wire::OP_BATCH_CHUNK];
    chunk.extend_from_slice(&2u32.to_le_bytes());
    for &root in &roots {
        wire::put_term(&mut chunk, &arena, root);
    }
    wire::write_frame(&mut stream, &chunk).expect("chunk");
    // A second batch stalls inside a frame: a header promising 1,000
    // bytes, then 10 of them.
    let mut torn = announce_batch(daemon.local_addr(), wire::OP_INSERT_BATCH);
    torn.write_all(&1000u32.to_le_bytes()).expect("len");
    torn.write_all(&0u32.to_le_bytes()).expect("crc");
    torn.write_all(&[wire::OP_BATCH_CHUNK; 10])
        .expect("some payload");

    // The submitted chunk completes; then both clients stall, sockets open.
    let deadline = Instant::now() + Duration::from_secs(10);
    while store.num_terms() < 2 {
        assert!(Instant::now() < deadline, "chunk was never ingested");
        std::thread::sleep(Duration::from_millis(10));
    }
    let start = Instant::now();
    daemon.request_shutdown();
    daemon.join();
    let waited = start.elapsed();
    assert!(
        waited < Duration::from_secs(11),
        "join took {waited:?} with a stalled batch open"
    );
    assert_eq!(store.num_terms(), 2, "the chunk sent before the stall");
    // The daemon dropped the batch unanswered, as a torn connection.
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("timeout");
    assert!(matches!(wire::read_frame(&mut stream), Ok(None) | Err(_)));
    drop(torn);
}

/// A batch that keeps sending chunks through the drain, each gap well
/// inside the stall limit but the whole stream longer than it, is read to
/// its END and answered in full.
#[test]
fn a_batch_streaming_through_the_drain_is_answered() {
    let mut arena = ExprArena::new();
    let roots = corpus(&mut arena, 0x57A2, 4);
    let store: Arc<AlphaStore<u64>> = Arc::new(AlphaStore::builder().seed(0xD9).build());
    let daemon = spawn_daemon(Arc::clone(&store));
    let mut stream = announce_batch(daemon.local_addr(), wire::OP_INSERT_BATCH);
    daemon.request_shutdown();
    for &root in &roots {
        std::thread::sleep(Duration::from_millis(400));
        let mut chunk = vec![wire::OP_BATCH_CHUNK];
        chunk.extend_from_slice(&1u32.to_le_bytes());
        wire::put_term(&mut chunk, &arena, root);
        wire::write_frame(&mut stream, &chunk).expect("chunk during the drain");
    }
    wire::write_frame(&mut stream, &[wire::OP_BATCH_END]).expect("end");
    for _ in &roots {
        let resp = wire::read_frame(&mut stream)
            .expect("chunk response")
            .expect("frame");
        assert_eq!(resp[0], wire::RESP_CHUNK);
    }
    let mut end = vec![wire::RESP_END];
    end.extend_from_slice(&(roots.len() as u64).to_le_bytes());
    let resp = wire::read_frame(&mut stream)
        .expect("end response")
        .expect("frame");
    assert_eq!(resp, end);
    drop(stream);
    daemon.join();
    assert_eq!(store.num_terms(), roots.len());
}

/// Binders need not be distinct: a debug-build daemon prepares a term
/// whose inner binder shadows the outer one as its `uniquify`d copy, in
/// both granularities.
#[test]
fn shadowed_binders_are_classed_as_their_uniquified_copy() {
    for granularity in [
        alpha_store::Granularity::Roots,
        alpha_store::Granularity::Subexpressions { min_nodes: 1 },
    ] {
        let store: Arc<AlphaStore<u64>> = Arc::new(
            AlphaStore::builder()
                .seed(0xDA)
                .granularity(granularity)
                .build(),
        );
        let daemon = spawn_daemon(Arc::clone(&store));
        let mut client = Client::connect(daemon.local_addr().to_string()).expect("connect");
        let mut arena = ExprArena::new();
        let [shadowed, renamed, other] = [r"\x. \x. x", r"\y. \z. z", r"\y. \z. y"]
            .map(|src| lambda_lang::parse::parse(&mut arena, src).expect("parse"));
        let outcome = client.insert(&arena, shadowed).expect("insert answered");
        assert!(outcome.fresh, "{granularity:?}");
        assert_eq!(
            client.lookup(&arena, renamed).expect("lookup"),
            Some(outcome.class),
            "{granularity:?}"
        );
        assert_eq!(client.lookup(&arena, other).expect("lookup"), None);
        client.shutdown().expect("shutdown op");
        daemon.join();
    }
}

/// Handles the daemon returns survive a replaying reopen: two ingest
/// workers flush concurrent clients' batches into one durable store, the
/// clients update terms by the handles they were issued, and a copy of
/// the store's files taken before the shutdown checkpoint (a crash image)
/// reopens with every returned term and class handle naming the
/// canonical text it named in the live store.
#[test]
fn handles_from_two_ingest_workers_survive_replay() {
    const CLIENTS: usize = 2;
    const TERMS: usize = 160;
    for granularity in [
        alpha_store::Granularity::Roots,
        alpha_store::Granularity::Subexpressions { min_nodes: 2 },
    ] {
        let mut arena = ExprArena::new();
        let roots = corpus(&mut arena, 0x1D5, TERMS);
        let patches: Vec<NodeId> = (0..TERMS)
            .map(|i| lambda_lang::parse::parse(&mut arena, &format!("u * {i}")).expect("parse"))
            .collect();
        let dir = TempDir::new("handles");
        let crash = TempDir::new("handles-crash");
        let store: Arc<AlphaStore<u64>> = Arc::new(
            AlphaStore::builder()
                .seed(0xDB)
                .granularity(granularity)
                .open_durable(dir.path())
                .expect("open durable"),
        );
        let config = DaemonConfig {
            ingest_workers: 2,
            ..DaemonConfig::default()
        };
        let daemon = Daemon::spawn(Arc::clone(&store), config).expect("bind loopback daemon");
        let addr = daemon.local_addr().to_string();
        let slice_len = TERMS / CLIENTS;
        let issued: Vec<(u64, u64)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..CLIENTS)
                .map(|c| {
                    let (addr, arena, patches) = (addr.clone(), &arena, &patches);
                    let slice = &roots[c * slice_len..(c + 1) * slice_len];
                    scope.spawn(move || {
                        let mut client = Client::connect(addr).expect("connect");
                        let mut issued = Vec::new();
                        for (k, chunk) in slice.chunks(4).enumerate() {
                            let outcomes = client.insert_batch(arena, chunk).expect("ingest");
                            issued.extend(outcomes.iter().map(|o| (o.term, o.class)));
                            if k % 5 == 4 {
                                let term = outcomes[0].term;
                                let patch = patches[c * slice_len + k];
                                let out = client.update(term, &[], arena, patch).expect("update");
                                issued.push((out.term, out.class));
                            }
                        }
                        issued
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("client thread"))
                .collect()
        });
        std::fs::create_dir_all(crash.path()).expect("crash dir");
        for file in [
            alpha_store::persist::WAL_FILE,
            alpha_store::persist::SNAPSHOT_FILE,
        ] {
            if dir.path().join(file).is_file() {
                std::fs::copy(dir.path().join(file), crash.path().join(file)).expect("copy");
            }
        }
        let text = |store: &AlphaStore<u64>, (term, class): (u64, u64)| {
            let term = alpha_store::TermId::from_bits(term);
            let class = alpha_store::ClassId::from_bits(class);
            (
                store.canonical_text(store.class_of(term)),
                store.canonical_text(class),
            )
        };
        let live: Vec<_> = issued.iter().map(|&h| text(&store, h)).collect();
        let mut client = Client::connect(addr).expect("connect");
        client.shutdown().expect("shutdown op");
        daemon.join();
        drop(store);

        let reopened = match AlphaStore::<u64>::open(crash.path()) {
            Ok(store) => store,
            Err(e) => panic!("{granularity:?}: the crash image was refused: {e}"),
        };
        let moved = issued
            .iter()
            .zip(&live)
            .filter(|&(&h, before)| text(&reopened, h) != *before)
            .count();
        assert_eq!(
            moved,
            0,
            "{granularity:?}: returned handles naming another class after replay (of {})",
            issued.len()
        );
        assert!(reopened.stats().is_exact());
    }
}
