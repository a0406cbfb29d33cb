//! `wire_mix`: one closed-loop client against a loopback daemon over an
//! in-memory `Roots` store preloaded during set-up. Per-request framing,
//! CRC, decode and thread hand-off dominate; hashing is tiny. Updates
//! run both incremental paths: cached O(spine) for hot terms and the
//! O(n) rebuild for cold ones.
//!
//! Every reply is checked against an in-process mirror store that
//! receives the same operations in the same order.

use super::common::{builder, hash_replay, probe_replay, require_exact, Census};
use super::{Bench, PhaseAt, Replays, Round};
use crate::corpus::{self, Corpus, Shape};
use crate::layers::ObsSnap;
use alpha_store::{AlphaStore, ClassId, Rewrite, TermId};
use alphahashd::{wire, Client, Daemon, DaemonConfig};
use lambda_lang::arena::{ExprArena, NodeId};
use rand::Rng;
use std::collections::HashMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Copies of each preloaded class.
const COPIES: u64 = 10;
/// Input stream tag of the request sequence.
const OP_STREAM: u64 = 11;
/// Share of updates that go to hot terms.
const HOT_SHARE: f64 = 0.8;
/// A round's duration on the reference box, s: `--seconds` / this is
/// the number of rounds a run makes.
const NOMINAL_ROUND_S: f64 = 0.1;
/// The request sequence repeats after this many rounds, so the store
/// reaches a steady size instead of growing with the run's length.
const CYCLE_ROUNDS: u64 = 4;

/// A term the mix updates: its handle on both stores and the child-slot
/// path to its deepest leaf.
struct Target {
    remote: u64,
    local: TermId,
    path: Vec<u32>,
}

/// The request kinds of the mix.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Kind {
    Lookup,
    Contains,
    Insert,
    Update,
}

/// One generated request: its kind and its term in an arena of its own.
struct Request {
    kind: Kind,
    arena: ExprArena,
    root: NodeId,
    /// The preload term a lookup, contains or insert is an alpha-renamed
    /// copy of; `None` for an absent probe or a new term.
    copies: Option<usize>,
    /// The update target, an index into `Served::targets`.
    target: usize,
}

/// A running daemon with its client and mirror; shut down on drop.
struct Served {
    corpus: Corpus,
    daemon: Option<Daemon<u64>>,
    client: Client,
    mirror: AlphaStore<u64>,
    /// Class bits on the daemon's store of each preloaded term.
    preload_class: Vec<u64>,
    targets: Vec<Target>,
    hot: usize,
    /// Daemon class bits ↔ mirror class, learnt as replies arrive.
    to_local: HashMap<u64, ClassId>,
    to_remote: HashMap<ClassId, u64>,
    /// Nodes held by the store: preload plus every insert so far.
    nodes: u64,
}

impl Drop for Served {
    fn drop(&mut self) {
        if let Some(daemon) = self.daemon.take() {
            daemon.request_shutdown();
            daemon.join();
        }
    }
}

impl Served {
    fn store(&self) -> &Arc<AlphaStore<u64>> {
        self.daemon
            .as_ref()
            .expect("daemon runs until drop")
            .store()
    }

    /// Whether a daemon class and a mirror class correspond, learning
    /// the pairing the first time either side is seen.
    fn same_class(&mut self, remote: Option<u64>, local: Option<ClassId>) -> bool {
        match (remote, local) {
            (None, None) => true,
            (Some(r), Some(l)) => match (self.to_local.get(&r), self.to_remote.get(&l)) {
                (None, None) => {
                    self.to_local.insert(r, l);
                    self.to_remote.insert(l, r);
                    true
                }
                (Some(&l2), Some(&r2)) => l2 == l && r2 == r,
                _ => false,
            },
            _ => false,
        }
    }
}

/// The child-slot path to the deepest leaf under `root`, following the
/// larger subtree at every branch.
fn deepest_path(arena: &ExprArena, root: NodeId) -> Vec<u32> {
    let mut path = Vec::new();
    let mut node = root;
    loop {
        let children: Vec<NodeId> = arena.node(node).children().into_iter().collect();
        let Some((slot, &child)) = children
            .iter()
            .enumerate()
            .max_by_key(|&(_, &c)| arena.subtree_size(c))
        else {
            return path;
        };
        path.push(slot as u32);
        node = child;
    }
}

fn serve(cfg: &super::Config) -> Result<Served, String> {
    let s = cfg.sizes;
    let corpus = Corpus::generate(cfg.seed, s.wire_classes, COPIES, Shape::Small);
    let store: Arc<AlphaStore<u64>> = Arc::new(builder().build());
    let remote = store.insert_batch(&corpus.arena, &corpus.roots);
    let mirror = builder().build();
    let local = mirror.insert_batch(&corpus.arena, &corpus.roots);
    let mut to_local = HashMap::new();
    let mut to_remote = HashMap::new();
    for (r, l) in remote.iter().zip(&local) {
        to_local.insert(r.class.to_bits(), l.class);
        to_remote.insert(l.class, r.class.to_bits());
    }
    // Hot and cold targets: one term from each of the first classes, so
    // every updated class keeps nine untouched members for the lookups.
    let first = corpus.first_of_class();
    let targets = first
        .iter()
        .take(s.wire_hot + s.wire_cold)
        .map(|&t| {
            let mut rep = ExprArena::new();
            let root = store.representative_into(remote[t].class, &mut rep);
            Target {
                remote: remote[t].term.to_bits(),
                local: local[t].term,
                path: deepest_path(&rep, root),
            }
        })
        .collect();
    let daemon = Daemon::spawn(
        Arc::clone(&store),
        DaemonConfig {
            linger: Duration::ZERO,
            ..DaemonConfig::default()
        },
    )
    .map_err(|e| format!("spawn daemon: {e}"))?;
    let mut client =
        Client::connect(daemon.local_addr().to_string()).map_err(|e| format!("connect: {e}"))?;
    client
        .set_read_timeout(Some(Duration::from_secs(30)))
        .map_err(|e| format!("set_read_timeout: {e}"))?;
    Ok(Served {
        nodes: corpus.nodes,
        preload_class: remote.iter().map(|o| o.class.to_bits()).collect(),
        corpus,
        daemon: Some(daemon),
        client,
        mirror,
        targets,
        hot: s.wire_hot,
        to_local,
        to_remote,
    })
}

/// Request number `op` of the seeded sequence, which repeats every
/// `cycle` requests.
fn request(seed: u64, served: &Served, op: u64, cycle: u64) -> Request {
    let op = op % cycle;
    let mut rng = corpus::rng(seed, OP_STREAM, op);
    let kind = match rng.random_range(0..10u32) {
        0..=4 => Kind::Lookup,
        5..=6 => Kind::Contains,
        7..=8 => Kind::Insert,
        _ => Kind::Update,
    };
    let mut arena = ExprArena::new();
    let n = served.corpus.roots.len();
    let (root, copies, target) = match kind {
        // New terms: absent probes carry the absent marker; inserted new
        // terms never do, so no insert can make a later probe present.
        Kind::Lookup | Kind::Contains if rng.random_range(0..4u32) == 3 => (
            corpus::absent_term(&mut arena, seed, op, Shape::Small),
            None,
            0,
        ),
        Kind::Insert if rng.random_range(0..4u32) == 3 => {
            let class = served.corpus.classes + op;
            (
                corpus::class_term(&mut arena, seed, class, Shape::Small),
                None,
                0,
            )
        }
        Kind::Lookup | Kind::Contains | Kind::Insert => {
            let t = rng.random_range(0..n);
            let root = lambda_lang::uniquify::uniquify_into(
                &served.corpus.arena,
                served.corpus.roots[t],
                &mut arena,
            );
            (root, Some(t), 0)
        }
        Kind::Update => {
            let target = if rng.random_bool(HOT_SHARE) {
                rng.random_range(0..served.hot)
            } else {
                rng.random_range(served.hot..served.targets.len())
            };
            let value = i64::try_from(op).expect("op index fits i64") + 1_000_000;
            (arena.int(value), None, target)
        }
    };
    Request {
        kind,
        arena,
        root,
        copies,
        target,
    }
}

pub(super) fn run(b: &mut Bench) -> Result<(Vec<Round>, Replays), String> {
    let mut served = {
        let cfg = b.cfg;
        b.setup(|| serve(cfg))?
    };
    let mut next_op = 0u64;
    let rounds = b.rounds(NOMINAL_ROUND_S, |b, r| {
        round(b, r, &mut served, &mut next_op)
    })?;

    let store = Arc::clone(served.store());
    require_exact(&store, "at the end of the mix")?;
    if Census::of(&store) != Census::of(&served.mirror) {
        b.gate(format!(
            "the daemon's store ({} classes) differs from the in-process build ({} classes)",
            store.num_classes(),
            served.mirror.num_classes()
        ));
    }

    // Replays over the first round's requests, each in its own arena.
    let seed = b.cfg.seed;
    let requests: Vec<Request> = (0..b.cfg.sizes.wire_round_ops)
        .map(|op| request(seed, &served, op, u64::MAX))
        .filter(|q| q.kind != Kind::Update)
        .collect();
    let mut frames: Vec<Vec<u8>> = Vec::with_capacity(requests.len());
    let start = Instant::now();
    for q in &requests {
        let mut out = Vec::new();
        wire::put_term(&mut out, &q.arena, black_box(q.root));
        frames.push(out);
    }
    let encode_ns = start.elapsed().as_secs_f64() * 1e9 / requests.len().max(1) as f64;
    let start = Instant::now();
    for frame in &frames {
        let mut arena = ExprArena::new();
        let mut input = frame.as_slice();
        black_box(wire::take_term(&mut input, &mut arena).map_err(|e| format!("decode: {e}"))?);
    }
    let decode_ns = start.elapsed().as_secs_f64() * 1e9 / frames.len().max(1) as f64;
    let probe_us: Vec<f64> = requests
        .iter()
        .map(|q| probe_replay(&q.arena, std::slice::from_ref(&q.root)))
        .collect();
    let replays = Replays {
        hash_ns_per_node: hash_replay(&served.corpus.arena, &served.corpus.roots),
        probe_replay_us: crate::stats::median(&probe_us),
        encode_ns_per_term: encode_ns,
        decode_ns_per_term: decode_ns,
    };
    drop(served);
    Ok((rounds, replays))
}

fn round(b: &mut Bench, r: usize, served: &mut Served, next_op: &mut u64) -> Result<Round, String> {
    let seed = b.cfg.seed;
    let span = b.trace.begin("round", None, r as u64);
    let before = ObsSnap::read(&served.store().obs_report());
    let mut out = Round::default();
    for _ in 0..b.cfg.sizes.wire_round_ops {
        let op = *next_op;
        *next_op += 1;
        let q = request(seed, served, op, CYCLE_ROUNDS * b.cfg.sizes.wire_round_ops);
        b.outcome.attempted += 1;
        let ok = match q.kind {
            Kind::Lookup | Kind::Contains => {
                let (name, remote_op): (&'static str, fn(&mut Client, &ExprArena, NodeId) -> _) =
                    if q.kind == Kind::Lookup {
                        ("wire.lookup", Client::lookup)
                    } else {
                        ("wire.contains", Client::contains)
                    };
                let (secs, got) = b.timed(name, span, op, || {
                    remote_op(&mut served.client, &q.arena, q.root)
                });
                let Ok(got) = got.map_err(|e| b.fail(format!("request {op}: {e}"))) else {
                    continue;
                };
                let us = secs * 1e6;
                out.op_us.push(us);
                if q.kind == Kind::Lookup {
                    out.lookup_us.push(us);
                } else {
                    out.contains_s += secs;
                    out.contains_n += 1;
                }
                let local = if q.kind == Kind::Lookup {
                    served.mirror.lookup(&q.arena, q.root)
                } else {
                    served.mirror.contains(&q.arena, q.root)
                };
                let want = q.copies.map(|t| served.preload_class[t]);
                got == want && served.same_class(got, local)
            }
            Kind::Insert => {
                let (secs, got) = b.timed("wire.insert", span, op, || {
                    served.client.insert(&q.arena, q.root)
                });
                let Ok(got) = got.map_err(|e| b.fail(format!("request {op}: {e}"))) else {
                    continue;
                };
                let us = secs * 1e6;
                out.op_us.push(us);
                out.insert_us.push(us);
                out.ingest_s += secs;
                let nodes = q.arena.subtree_size(q.root) as u64;
                out.ingest_nodes += nodes;
                served.nodes += nodes;
                let local = served.mirror.insert(&q.arena, q.root);
                let labelled = q
                    .copies
                    .is_none_or(|t| got.class == served.preload_class[t] && !got.fresh);
                labelled
                    && got.fresh == local.fresh
                    && served.same_class(Some(got.class), Some(local.class))
            }
            Kind::Update => {
                let t = &served.targets[q.target];
                let (remote_term, local_term, path) = (t.remote, t.local, t.path.clone());
                let (secs, got) = b.timed("wire.update", span, op, || {
                    served.client.update(remote_term, &path, &q.arena, q.root)
                });
                let Ok(got) = got.map_err(|e| b.fail(format!("request {op}: {e}"))) else {
                    continue;
                };
                let us = secs * 1e6;
                out.op_us.push(us);
                out.update_us.push(us);
                let rewrite = Rewrite {
                    path: &path,
                    arena: &q.arena,
                    root: q.root,
                };
                let Ok(local) = served
                    .mirror
                    .try_update(local_term, rewrite)
                    .map_err(|e| b.fail(format!("in-process update {op}: {e}")))
                else {
                    continue;
                };
                got.fresh == local.fresh && served.same_class(Some(got.class), Some(local.class))
            }
        };
        if !ok {
            b.fail(format!(
                "request {op}: the reply differs from the in-process answer"
            ));
        }
    }
    let at = b.phase_end();
    out.at = PhaseAt {
        ingest: at,
        lookup: at,
        contains: at,
        ops: at,
        recovery: at,
    };
    out.phases.push((out.op_us.iter().sum::<f64>() * 1e-6, at));
    out.ops = out.op_us.len() as u64;
    let store = Arc::clone(served.store());
    require_exact(&store, "during the mix")?;
    out.obs = ObsSnap::read(&store.obs_report()).since(&before);
    out.nodes = served.nodes;
    if r == 0 {
        b.obs_json = store.obs_report().to_json();
    }
    b.trace.end(span);
    Ok(out)
}
