//! `subexpr_index`: every node hashed, canonicalised and interned, by
//! two ingest threads contending on the canon table, then whole-term
//! lookups and `contains_batch` probes. The WAL and the wire do no work.

use super::common::{builder, check_ingest, check_probe, hash_replay, probe_replay, require_exact};
use super::{Bench, Replays, Round};
use crate::corpus::{Corpus, Probes, Shape};
use crate::layers::ObsSnap;
use crate::trace::{SpanId, Tracer};
use alpha_store::{AlphaStore, ClassId, StoreBuilder};
use lambda_lang::arena::NodeId;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::time::Instant;

/// Ingest threads (the benchmark box has two cores).
pub const THREADS: usize = 2;
/// Subexpressions below this many nodes are not indexed.
const MIN_NODES: usize = 3;
/// Terms per `insert_batch` call.
const CHUNK: usize = 16;
/// Probes per `contains_batch` call.
const CONTAINS_CHUNK: usize = 64;
/// One probe in this many is absent.
const ABSENT_EVERY: usize = 2;
/// A round's duration on the reference box, s: `--seconds` / this is
/// the number of rounds a run makes.
const NOMINAL_ROUND_S: f64 = 0.9;

fn subexpr_builder() -> StoreBuilder<u64> {
    builder().subexpressions(MIN_NODES)
}

/// One round's ingest order for a worker: the store to fill and the
/// span to parent its calls to.
struct Job {
    store: Arc<AlphaStore<u64>>,
    parent: Option<SpanId>,
    req: u64,
}

/// An ingest worker: for each job, inserts every `THREADS`-th corpus
/// term from `t` on, in chunks, and reports where each landed. The
/// workers live for the whole run, so every round sees the same threads.
fn worker(
    t: usize,
    corpus: &Corpus,
    trace: &Tracer,
    jobs: Receiver<Job>,
    done: Sender<Vec<(usize, ClassId)>>,
) {
    let mine: Vec<usize> = (t..corpus.roots.len()).step_by(THREADS).collect();
    for job in jobs {
        let mut placed = Vec::with_capacity(mine.len());
        for idx in mine.chunks(CHUNK) {
            let roots: Vec<NodeId> = idx.iter().map(|&i| corpus.roots[i]).collect();
            let id = trace.begin("store.insert_batch", job.parent, job.req);
            let outcomes = job.store.insert_batch(&corpus.arena, &roots);
            trace.end(id);
            placed.extend(idx.iter().zip(&outcomes).map(|(&i, o)| (i, o.class)));
        }
        drop(job);
        if done.send(placed).is_err() {
            return;
        }
    }
}

pub(super) fn run(b: &mut Bench) -> Result<(Vec<Round>, Replays), String> {
    let cfg = b.cfg;
    let s = cfg.sizes;
    let (corpus, probes) = b.setup(|| {
        let corpus = Corpus::generate(
            cfg.seed,
            s.subexpr_classes,
            s.subexpr_copies,
            Shape::Program,
        );
        let probes = Probes::generate(
            cfg.seed,
            &corpus,
            s.subexpr_probes,
            ABSENT_EVERY,
            Shape::Program,
        );
        Ok((corpus, probes))
    })?;
    let want_classes = {
        let reference = subexpr_builder().build();
        reference.insert_batch(&corpus.arena, &corpus.roots);
        require_exact(&reference, "in the reference build")?;
        reference.num_classes()
    };
    let trace = b.trace;
    let rounds = std::thread::scope(|scope| {
        let (done_tx, done) = channel();
        let mut jobs = Vec::with_capacity(THREADS);
        for t in 0..THREADS {
            let (tx, rx) = channel();
            jobs.push(tx);
            let done_tx = done_tx.clone();
            let corpus = &corpus;
            scope.spawn(move || worker(t, corpus, trace, rx, done_tx));
        }
        let pool = Pool { jobs, done };
        b.rounds(NOMINAL_ROUND_S, |b, r| {
            round(b, r, &pool, &corpus, &probes, want_classes)
        })
        // Dropping `pool` hangs up the job channels; the workers exit.
    })?;
    let replays = Replays {
        hash_ns_per_node: hash_replay(&corpus.arena, &corpus.roots),
        probe_replay_us: probe_replay(&probes.arena, &probes.roots),
        ..Replays::default()
    };
    Ok((rounds, replays))
}

/// The ingest workers' channels.
struct Pool {
    jobs: Vec<Sender<Job>>,
    done: Receiver<Vec<(usize, ClassId)>>,
}

fn round(
    b: &mut Bench,
    r: usize,
    pool: &Pool,
    corpus: &Corpus,
    probes: &Probes,
    want_classes: usize,
) -> Result<Round, String> {
    let req = r as u64;
    let span = b.trace.begin("round", None, req);
    let store: Arc<AlphaStore<u64>> = Arc::new(subexpr_builder().build());
    let before = ObsSnap::read(&store.obs_report());
    let mut out = Round::default();

    let ingest = b.trace.begin("ingest", span, req);
    let n = corpus.roots.len();
    let start = Instant::now();
    for tx in &pool.jobs {
        tx.send(Job {
            store: Arc::clone(&store),
            parent: ingest,
            req,
        })
        .map_err(|_| "an ingest worker exited".to_owned())?;
    }
    let mut classes: Vec<Option<ClassId>> = vec![None; n];
    for _ in 0..THREADS {
        let placed = pool
            .done
            .recv()
            .map_err(|_| "an ingest worker exited".to_owned())?;
        for (i, class) in placed {
            classes[i] = Some(class);
        }
    }
    out.ingest_s = start.elapsed().as_secs_f64();
    b.trace.end(ingest);
    out.at.ingest = b.phase_end();
    out.phases.push((out.ingest_s, out.at.ingest));
    out.ingest_nodes = corpus.nodes;
    b.outcome.attempted += n as u64;
    let classes: Vec<ClassId> = classes
        .into_iter()
        .collect::<Option<_>>()
        .ok_or("a corpus term was not ingested")?;

    for (i, &root) in probes.roots.iter().enumerate() {
        let (secs, got) = b.timed("store.lookup", span, req, || {
            store.lookup(&probes.arena, root)
        });
        out.lookup_us.push(secs * 1e6);
        check_probe(b, "lookup", probes, i, &classes, got);
    }
    out.at.lookup = b.phase_end();
    out.phases
        .push((out.lookup_us.iter().sum::<f64>() * 1e-6, out.at.lookup));

    for (k, chunk) in probes.roots.chunks(CONTAINS_CHUNK).enumerate() {
        let (secs, got) = b.timed("store.contains_batch", span, req, || {
            store.contains_batch(&probes.arena, chunk)
        });
        out.contains_s += secs;
        for (j, got) in got.into_iter().enumerate() {
            check_probe(b, "contains", probes, k * CONTAINS_CHUNK + j, &classes, got);
        }
    }
    out.at.contains = b.phase_end();
    out.phases.push((out.contains_s, out.at.contains));
    out.contains_n = probes.roots.len() as u64;
    b.outcome.attempted += 2 * probes.roots.len() as u64;
    out.ops = n as u64 + out.contains_n + out.lookup_us.len() as u64;

    let check = b.trace.begin("check", span, req);
    check_ingest(b, corpus, &classes);
    require_exact(&store, "after ingest")?;
    if store.num_classes() != want_classes {
        b.gate(format!(
            "round {r}: {} classes, a fresh single-thread build has {want_classes}",
            store.num_classes()
        ));
    }
    out.obs = ObsSnap::read(&store.obs_report()).since(&before);
    out.nodes = corpus.nodes;
    if r == 0 {
        b.obs_json = store.obs_report().to_json();
    }
    b.trace.end(check);
    b.timed("store.drop", span, req, || drop(store));
    b.trace.end(span);
    Ok(out)
}
