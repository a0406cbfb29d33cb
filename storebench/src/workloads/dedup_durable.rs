//! `dedup_durable`: the production write path end to end (prepare →
//! frontier/hot-cache confirm → shard apply → WAL group commit) and the
//! crash-restart path, on an in-process durable `Roots` store.

use super::common::{
    builder, check_ingest, check_probe, hash_replay, probe_replay, require_exact, Census,
};
use super::{Bench, Replays, Round};
use crate::corpus::{Corpus, Probes, Shape};
use crate::layers::ObsSnap;
use alpha_store::AlphaStore;
use std::time::Instant;

/// Terms per `insert_batch` call.
const CHUNK: usize = 1024;
/// Probes per `contains_batch` call.
const CONTAINS_CHUNK: usize = 256;
/// One probe in this many is absent.
const ABSENT_EVERY: usize = 4;
/// A round's duration on the reference box, s: `--seconds` / this is
/// the number of rounds a run makes.
const NOMINAL_ROUND_S: f64 = 0.65;

pub(super) fn run(b: &mut Bench) -> Result<(Vec<Round>, Replays), String> {
    let cfg = b.cfg;
    let s = cfg.sizes;
    let (corpus, probes) = b.setup(|| {
        let corpus = Corpus::generate(cfg.seed, s.dedup_classes, s.dedup_copies, Shape::Small);
        let probes = Probes::generate(
            cfg.seed,
            &corpus,
            s.dedup_probes,
            ABSENT_EVERY,
            Shape::Small,
        );
        Ok((corpus, probes))
    })?;
    let want_classes = {
        let reference = builder().build();
        reference.insert_batch(&corpus.arena, &corpus.roots);
        require_exact(&reference, "in the reference build")?;
        reference.num_classes()
    };
    std::fs::create_dir_all(&cfg.data_dir)
        .map_err(|e| format!("create {}: {e}", cfg.data_dir.display()))?;
    let rounds = b.rounds(NOMINAL_ROUND_S, |b, r| {
        round(b, r, &corpus, &probes, want_classes)
    })?;
    let replays = Replays {
        hash_ns_per_node: hash_replay(&corpus.arena, &corpus.roots),
        probe_replay_us: probe_replay(&probes.arena, &probes.roots),
        ..Replays::default()
    };
    Ok((rounds, replays))
}

fn round(
    b: &mut Bench,
    r: usize,
    corpus: &Corpus,
    probes: &Probes,
    want_classes: usize,
) -> Result<Round, String> {
    let dir = b.cfg.data_dir.join(format!("dedup_durable-{r}"));
    let _ = std::fs::remove_dir_all(&dir);
    let req = r as u64;
    let span = b.trace.begin("round", None, req);
    let store = builder()
        .open_durable(&dir)
        .map_err(|e| format!("open_durable {}: {e}", dir.display()))?;
    let before = ObsSnap::read(&store.obs_report());
    let mut out = Round::default();

    let start = Instant::now();
    let mut classes = Vec::with_capacity(corpus.roots.len());
    for chunk in corpus.roots.chunks(CHUNK) {
        let (_, outcomes) = b.timed("store.insert_batch", span, req, || {
            store.insert_batch(&corpus.arena, chunk)
        });
        classes.extend(outcomes.iter().map(|o| o.class));
    }
    out.ingest_s = start.elapsed().as_secs_f64();
    out.at.ingest = b.phase_end();
    out.phases.push((out.ingest_s, out.at.ingest));
    out.ingest_nodes = corpus.nodes;
    b.outcome.attempted += corpus.roots.len() as u64;

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
    out.ops = corpus.roots.len() as u64 + out.contains_n + out.lookup_us.len() as u64;

    let check = b.trace.begin("check", span, req);
    check_ingest(b, corpus, &classes);
    require_exact(&store, "after ingest")?;
    if store.num_classes() != want_classes {
        b.gate(format!(
            "round {r}: {} classes, a fresh single-thread build has {want_classes}",
            store.num_classes()
        ));
    }
    let census = Census::of(&store);
    out.obs = ObsSnap::read(&store.obs_report()).since(&before);
    out.nodes = corpus.nodes;
    if r == 0 {
        b.obs_json = store.obs_report().to_json();
    }
    b.trace.end(check);

    // Crash-restart: drop without a checkpoint, then replay the WAL.
    b.timed("store.drop", span, req, || drop(store));
    let (secs, reopened) = b.timed("store.open", span, req, || AlphaStore::<u64>::open(&dir));
    let reopened = reopened.map_err(|e| format!("reopen {}: {e}", dir.display()))?;
    b.outcome.attempted += 1;
    out.recovery_s = Some(secs);
    out.at.recovery = b.phase_end();
    out.replay_s = Some(ObsSnap::read(&reopened.obs_report()).secs("recovery_replay_ns"));
    require_exact(&reopened, "after WAL replay")?;
    if Census::of(&reopened) != census {
        b.gate(format!(
            "round {r}: the census after WAL replay differs from the one before"
        ));
        b.outcome.failed += 1;
    }
    drop(reopened);
    b.trace.end(span);
    let _ = std::fs::remove_dir_all(&dir);
    Ok(out)
}
