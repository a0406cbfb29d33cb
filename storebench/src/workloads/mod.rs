//! The three workloads, the per-round records they produce, and the
//! aggregation of those records into end-to-end and per-layer figures.

mod common;
mod dedup_durable;
mod subexpr_index;
mod wire_mix;

use crate::calib::{Calibrator, REFERENCE_US};
use crate::layers::ObsSnap;
use crate::stats::{median, peak_rss_mib, quantile};
use crate::trace::Tracer;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

/// Which workload to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// In-process durable `Roots` store: batched ingest, lookups,
    /// contains probes, drop without checkpoint, WAL replay.
    DedupDurable,
    /// In-memory `Subexpressions { min_nodes: 3 }` store fed by two
    /// ingest threads, then lookups and `contains_batch` probes.
    SubexprIndex,
    /// Loopback daemon over an in-memory `Roots` store: one closed-loop
    /// client, linger 0, a lookup/contains/insert/update mix.
    WireMix,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [
        Workload::DedupDurable,
        Workload::SubexprIndex,
        Workload::WireMix,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::DedupDurable => "dedup_durable",
            Workload::SubexprIndex => "subexpr_index",
            Workload::WireMix => "wire_mix",
        }
    }

    /// Parses a command-line workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input sizes. [`Sizes::full`] is what the benchmark runs;
/// [`Sizes::tiny`] keeps the benchmark's own tests fast.
#[derive(Clone, Copy, Debug)]
pub struct Sizes {
    /// `dedup_durable`: generated classes (terms = classes × copies).
    pub dedup_classes: u64,
    /// `dedup_durable`: copies per class.
    pub dedup_copies: u64,
    /// `dedup_durable`: probes in the shared query arena.
    pub dedup_probes: usize,
    /// `subexpr_index`: generated classes.
    pub subexpr_classes: u64,
    /// `subexpr_index`: copies per class.
    pub subexpr_copies: u64,
    /// `subexpr_index`: probes.
    pub subexpr_probes: usize,
    /// `wire_mix`: generated classes preloaded (10 copies each).
    pub wire_classes: u64,
    /// `wire_mix`: requests per round.
    pub wire_round_ops: u64,
    /// `wire_mix`: hot terms (updates stay in the incremental-hasher
    /// cache).
    pub wire_hot: usize,
    /// `wire_mix`: cold terms (more than the 64-entry cache holds).
    pub wire_cold: usize,
}

impl Sizes {
    /// The benchmark's sizes.
    pub fn full() -> Sizes {
        Sizes {
            dedup_classes: 2_000,
            dedup_copies: 10,
            dedup_probes: 4_000,
            subexpr_classes: 90,
            subexpr_copies: 3,
            subexpr_probes: 450,
            wire_classes: 1_500,
            wire_round_ops: 1_000,
            wire_hot: 8,
            wire_cold: 256,
        }
    }

    /// Small sizes for tests.
    pub fn tiny() -> Sizes {
        Sizes {
            dedup_classes: 60,
            dedup_copies: 4,
            dedup_probes: 80,
            subexpr_classes: 12,
            subexpr_copies: 3,
            subexpr_probes: 24,
            wire_classes: 40,
            wire_round_ops: 200,
            wire_hot: 4,
            wire_cold: 80,
        }
    }
}

/// One run's configuration.
#[derive(Clone, Debug)]
pub struct Config {
    /// The workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Seconds of measurement at the workload's nominal round time:
    /// fixes how many rounds the run makes.
    pub seconds: f64,
    /// Record spans and report per-layer figures.
    pub trace: bool,
    /// Input sizes.
    pub sizes: Sizes,
    /// Directory for durable stores (created and removed by the run).
    pub data_dir: PathBuf,
}

/// Rounds every run makes at least, so a traced run has both traced and
/// untraced rounds.
const MIN_ROUNDS: usize = 2;

/// Set-up passes per untraced run: at least this many, and more while
/// they add up to under [`SETUP_MIN_S`] (at most [`SETUP_MAX_REPS`]);
/// `setup_s` is their median.
const SETUP_REPS: usize = 5;
const SETUP_MIN_S: f64 = 1.0;
const SETUP_MAX_REPS: usize = 25;

/// A named figure with its unit and sample count.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Number of samples behind the value.
    pub samples: u64,
}

/// Everything one run found.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed or returned a wrong answer.
    pub failed: u64,
    /// Correctness-gate violations other than single operations.
    pub gate_errors: Vec<String>,
    /// The gated end-to-end figures (untraced run).
    pub end_to_end: Vec<Metric>,
    /// Every end-to-end figure this workload has, gated or not.
    pub detail: Vec<Metric>,
    /// Per-layer figures (traced run).
    pub per_layer: Vec<Metric>,
    /// Deterministic work counters of the first round.
    pub counters: BTreeMap<String, u64>,
    /// Regime diagnostic: median calibration-kernel time, µs.
    pub calib_us: f64,
    /// Spans and obs snapshot, as JSON (traced run).
    pub trace_json: Option<String>,
}

impl Outcome {
    /// Whether every check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.gate_errors.is_empty()
    }
}

/// The gated end-to-end metrics: every workload reports each of them.
/// `lookup_p99_us` is reported but not gated: on `dedup_durable` its
/// run-to-run spread is wider than any bound the benchmark may set.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("ingest_nodes_per_s", "nodes/s"),
    ("lookup_p50_us", "us"),
    ("contains_per_s", "1/s"),
    ("ops_per_s", "1/s"),
    ("canon_bytes_per_node", "bytes/node"),
    ("peak_rss_mib", "MiB"),
];

/// One measured round: a fixed unit of work, so its counters repeat.
#[derive(Clone, Debug, Default)]
pub struct Round {
    /// Whether spans were recorded during this round.
    pub traced: bool,
    /// Wall time of the ingest phase (or summed insert latency), s.
    pub ingest_s: f64,
    /// Nodes ingested in that time.
    pub ingest_nodes: u64,
    /// Per-lookup latencies, µs.
    pub lookup_us: Vec<f64>,
    /// Time spent answering contains probes, s.
    pub contains_s: f64,
    /// Contains probes answered.
    pub contains_n: u64,
    /// Per-insert latencies, µs (single-term inserts only).
    pub insert_us: Vec<f64>,
    /// Per-update latencies, µs.
    pub update_us: Vec<f64>,
    /// Every individually timed operation's latency, µs.
    pub op_us: Vec<f64>,
    /// The measured phases' durations, s, each with its midpoint (see
    /// [`PhaseAt`]).
    pub phases: Vec<(f64, f64)>,
    /// Operations in those phases.
    pub ops: u64,
    /// Time to reopen the store after dropping it, s.
    pub recovery_s: Option<f64>,
    /// WAL replay time reported by the reopened store, s.
    pub replay_s: Option<f64>,
    /// When each phase ran.
    pub at: PhaseAt,
    /// Store obs figures for the round.
    pub obs: ObsSnap,
    /// Nodes the store holds after the round (denominator of per-node
    /// figures).
    pub nodes: u64,
}

impl Round {
    /// Total measured time of the round, s.
    pub fn busy_s(&self) -> f64 {
        self.phases.iter().map(|&(secs, _)| secs).sum()
    }
}

/// The midpoint of each kind of phase, in seconds since the run's
/// calibrator started: the calibration reads the machine's speed there.
#[derive(Clone, Copy, Debug, Default)]
pub struct PhaseAt {
    /// The ingest phase (or, on `wire_mix`, the whole round).
    pub ingest: f64,
    /// The lookups.
    pub lookup: f64,
    /// The contains probes.
    pub contains: f64,
    /// The inserts, updates and other single requests.
    pub ops: f64,
    /// The reopen.
    pub recovery: f64,
}

/// Per-phase calibration bookkeeping shared by the workloads.
pub(crate) struct Bench<'a> {
    pub cfg: &'a Config,
    pub trace: &'a Tracer,
    pub calib: Calibrator,
    /// When the current phase began, s since the calibrator started.
    pub phase_start: f64,
    /// Each set-up pass's duration, s, with its midpoint.
    pub setup_passes: Vec<(f64, f64)>,
    pub outcome: Outcome,
    /// One `obs_report()` snapshot of the workload's store, as JSON.
    pub obs_json: String,
}

impl Bench<'_> {
    /// Records a wrong answer or failed operation.
    pub fn fail(&mut self, what: impl Into<String>) {
        self.outcome.failed += 1;
        if self.outcome.failed <= 8 {
            let what = what.into();
            eprintln!("storebench: failed operation: {what}");
        }
    }

    /// Records a failed whole-run check.
    pub fn gate(&mut self, what: impl Into<String>) {
        let what = what.into();
        eprintln!("storebench: correctness gate: {what}");
        self.outcome.gate_errors.push(what);
    }

    /// Ends a measured phase: takes a calibration sample and returns
    /// the phase's midpoint, the time its calibration is read at.
    pub fn phase_end(&mut self) -> f64 {
        let mid = (self.phase_start + self.calib.now()) / 2.0;
        self.calib.sample();
        self.phase_start = self.calib.now();
        mid
    }

    /// Runs a fixed number of rounds: `--seconds` worth at the
    /// workload's nominal round time `nominal_s` (at least
    /// [`MIN_ROUNDS`]), so every run does the same work whatever its
    /// speed. A traced run alternates traced and untraced rounds. A run
    /// far slower than nominal stops early rather than overrun.
    pub fn rounds(
        &mut self,
        nominal_s: f64,
        mut round: impl FnMut(&mut Self, usize) -> Result<Round, String>,
    ) -> Result<Vec<Round>, String> {
        let planned = ((self.cfg.seconds / nominal_s).ceil() as usize).max(MIN_ROUNDS);
        let limit = 3.0 * self.cfg.seconds.max(nominal_s);
        let start = Instant::now();
        let mut rounds = Vec::with_capacity(planned);
        self.calib.sample();
        self.phase_start = self.calib.now();
        for r in 0..planned {
            if start.elapsed().as_secs_f64() > limit {
                eprintln!("storebench: stopped after {r} of {planned} rounds: over {limit} s");
                break;
            }
            let traced = self.cfg.trace && r % 2 == 0;
            self.trace.set_on(traced);
            let mut round = round(self, r)?;
            self.trace.set_on(false);
            round.traced = traced;
            rounds.push(round);
        }
        Ok(rounds)
    }

    /// Times `f` in a span named `name`.
    pub fn timed<T>(
        &self,
        name: &'static str,
        parent: Option<crate::trace::SpanId>,
        req: u64,
        f: impl FnOnce() -> T,
    ) -> (f64, T) {
        let id = self.trace.begin(name, parent, req);
        let start = Instant::now();
        let out = f();
        let secs = start.elapsed().as_secs_f64();
        self.trace.end(id);
        (secs, out)
    }

    /// Times `setup` [`SETUP_REPS`] or more times (once in a traced run),
    /// with a calibration sample after each pass, and keeps the last
    /// result.
    pub fn setup<T>(&mut self, mut setup: impl FnMut() -> Result<T, String>) -> Result<T, String> {
        let mut last = None;
        self.calib.sample();
        self.phase_start = self.calib.now();
        while last.is_none()
            || (!self.cfg.trace
                && (self.setup_passes.len() < SETUP_REPS
                    || (self.setup_passes.iter().map(|p| p.0).sum::<f64>() < SETUP_MIN_S
                        && self.setup_passes.len() < SETUP_MAX_REPS)))
        {
            drop(last.take());
            let start = Instant::now();
            last = Some(setup()?);
            let secs = start.elapsed().as_secs_f64();
            let mid = self.phase_end();
            self.setup_passes.push((secs, mid));
        }
        Ok(last.expect("at least one set-up pass"))
    }
}

/// Runs one workload.
pub fn run(cfg: &Config) -> Result<Outcome, String> {
    let trace = Tracer::new(false);
    let mut bench = Bench {
        cfg,
        trace: &trace,
        calib: Calibrator::default(),
        phase_start: 0.0,
        setup_passes: Vec::new(),
        outcome: Outcome::default(),
        obs_json: String::new(),
    };
    let (rounds, layers) = match cfg.workload {
        Workload::DedupDurable => dedup_durable::run(&mut bench)?,
        Workload::SubexprIndex => subexpr_index::run(&mut bench)?,
        Workload::WireMix => wire_mix::run(&mut bench)?,
    };
    let mut outcome = std::mem::take(&mut bench.outcome);
    outcome.calib_us = median(&bench.calib.times());
    let first = &rounds[0];
    outcome.counters = work_counters(&first.obs);
    let untraced: Vec<&Round> = rounds.iter().filter(|r| !r.traced).collect();
    let passes = &bench.setup_passes;
    let raw_setup: Vec<f64> = passes.iter().map(|&(secs, _)| secs).collect();
    let cal_setup: Vec<f64> = passes
        .iter()
        .map(|&(secs, at)| secs * REFERENCE_US / bench.calib.around(at))
        .collect();
    let setup = (median(&cal_setup), passes.len());
    let calibrated = calibrate(&untraced, &bench.calib);
    let figures = figures(&calibrated.iter().collect::<Vec<_>>(), setup, first);
    outcome.detail = figures.clone();
    for mut m in self::figures(&untraced, (median(&raw_setup), passes.len()), first) {
        if m.unit != "bytes/node" && m.unit != "MiB" {
            m.name.push_str(".raw");
            outcome.detail.push(m);
        }
    }
    outcome.end_to_end = END_TO_END
        .iter()
        .map(|&(name, unit)| {
            figures
                .iter()
                .find(|m| m.name == name)
                .cloned()
                .unwrap_or_else(|| panic!("workload did not measure {name} ({unit})"))
        })
        .collect();
    if cfg.trace {
        let traced: Vec<&Round> = rounds.iter().filter(|r| r.traced).collect();
        outcome.per_layer = per_layer(
            &trace,
            &traced,
            &untraced,
            setup,
            first,
            layers,
            &bench.calib,
        );
        outcome.trace_json = Some(format!(
            "{{\"workload\": \"{}\", \"seed\": {}, \"obs_report\": {},\n\"spans\": {}}}\n",
            cfg.workload.name(),
            cfg.seed,
            if bench.obs_json.is_empty() {
                "null"
            } else {
                &bench.obs_json
            },
            trace.spans_json()
        ));
    }
    Ok(outcome)
}

/// Figures a workload computes outside its rounds (replays), for the
/// per-layer report.
#[derive(Clone, Debug, Default)]
pub(crate) struct Replays {
    /// `hash_expr` replayed over the workload's terms: ns per node.
    pub hash_ns_per_node: f64,
    /// Fresh `Preparer` + `hash_and_canon` per probe: median µs.
    pub probe_replay_us: f64,
    /// `wire::put_term` replayed on the requests: ns per term.
    pub encode_ns_per_term: f64,
    /// `wire::take_term` replayed on the requests: ns per term.
    pub decode_ns_per_term: f64,
}

/// The deterministic work counters of one round (ROADMAP item 1c).
fn work_counters(obs: &ObsSnap) -> BTreeMap<String, u64> {
    [
        ("hash_nodes", "hash_nodes"),
        ("canon_intern_hits", "canon_intern_hits"),
        ("canon_intern_misses", "canon_intern_misses"),
        ("merge_confirm_ref", "merge_confirm_ref"),
        ("merge_confirm_walk", "merge_confirm_walk"),
        ("merge_confirm_cached", "merge_confirm_cached"),
        ("frontier_walk_nodes", "frontier_walk_nodes.sum"),
        ("wal_bytes", "wal_bytes_since_checkpoint"),
        ("wal_commits", "wal_commit_ns.count"),
        ("updates_applied", "updates_applied"),
        ("spine_nodes_rehashed", "spine_nodes_rehashed"),
        ("classes_created", "classes_created"),
        ("canon_resident_nodes", "canon_resident_nodes"),
        ("canon_resident_bytes", "canon_resident_bytes"),
    ]
    .into_iter()
    .map(|(name, key)| (name.to_owned(), obs.get(key)))
    .collect()
}

fn metric(name: &str, value: f64, unit: &'static str, samples: usize) -> Metric {
    Metric {
        name: name.to_owned(),
        value,
        unit,
        samples: samples as u64,
    }
}

/// Median over rounds of a per-round rate, skipping rounds where the
/// rate is undefined.
fn rate(rounds: &[&Round], f: impl Fn(&Round) -> (f64, f64)) -> (f64, usize) {
    let v: Vec<f64> = rounds
        .iter()
        .map(|r| f(r))
        .filter(|&(_, secs)| secs > 0.0)
        .map(|(n, secs)| n / secs)
        .collect();
    (median(&v), v.len())
}

fn pooled(rounds: &[&Round], f: impl Fn(&Round) -> &Vec<f64>) -> Vec<f64> {
    rounds.iter().flat_map(|r| f(r).iter().copied()).collect()
}

/// Each round with its timings scaled to the reference machine speed:
/// each phase's × [`REFERENCE_US`] / the kernel time around it.
fn calibrate(rounds: &[&Round], calib: &Calibrator) -> Vec<Round> {
    rounds
        .iter()
        .map(|r| {
            let f = |at: f64| REFERENCE_US / calib.around(at);
            let mut s = (*r).clone();
            s.ingest_s *= f(r.at.ingest);
            s.contains_s *= f(r.at.contains);
            let lookup = f(r.at.lookup);
            s.lookup_us.iter_mut().for_each(|x| *x *= lookup);
            let ops = f(r.at.ops);
            for v in [&mut s.insert_us, &mut s.update_us, &mut s.op_us] {
                v.iter_mut().for_each(|x| *x *= ops);
            }
            s.phases.iter_mut().for_each(|(secs, at)| *secs *= f(*at));
            s.recovery_s = s.recovery_s.map(|x| x * f(r.at.recovery));
            s
        })
        .collect()
}

/// Every end-to-end figure the rounds support.
fn figures(rounds: &[&Round], setup: (f64, usize), first: &Round) -> Vec<Metric> {
    let mut out = vec![metric("setup_s", setup.0, "s", setup.1)];
    let (v, n) = rate(rounds, |r| (r.ingest_nodes as f64, r.ingest_s));
    out.push(metric("ingest_nodes_per_s", v, "nodes/s", n));
    let lookups = pooled(rounds, |r| &r.lookup_us);
    out.push(metric(
        "lookup_p50_us",
        quantile(&lookups, 0.5),
        "us",
        lookups.len(),
    ));
    out.push(metric(
        "lookup_p99_us",
        quantile(&lookups, 0.99),
        "us",
        lookups.len(),
    ));
    let (v, n) = rate(rounds, |r| (r.contains_n as f64, r.contains_s));
    out.push(metric("contains_per_s", v, "1/s", n));
    let (v, n) = rate(rounds, |r| (r.ops as f64, r.busy_s()));
    out.push(metric("ops_per_s", v, "1/s", n));
    let nodes = first.nodes.max(1) as f64;
    out.push(metric(
        "canon_bytes_per_node",
        first.obs.get("canon_resident_bytes") as f64 / nodes,
        "bytes/node",
        1,
    ));
    out.push(metric("peak_rss_mib", peak_rss_mib(), "MiB", 1));
    // Figures only some workloads have; reported, not gated.
    for (name, f) in [
        (
            "insert_p50_us",
            (|r: &Round| &r.insert_us) as fn(&Round) -> &Vec<f64>,
        ),
        ("update_p50_us", |r: &Round| &r.update_us),
    ] {
        let v = pooled(rounds, f);
        if !v.is_empty() {
            out.push(metric(name, quantile(&v, 0.5), "us", v.len()));
        }
    }
    let ops = pooled(rounds, |r| &r.op_us);
    if !ops.is_empty() {
        out.push(metric("op_p99_us", quantile(&ops, 0.99), "us", ops.len()));
    }
    let rec: Vec<f64> = rounds.iter().filter_map(|r| r.recovery_s).collect();
    if !rec.is_empty() {
        out.push(metric("recovery_s", median(&rec), "s", rec.len()));
        let wal = first.obs.get("wal_bytes_since_checkpoint") as f64;
        out.push(metric("wal_bytes_per_node", wal / nodes, "bytes/node", 1));
    }
    out
}

/// Every per-layer figure, in a fixed order; 0 where the workload does
/// not exercise the layer.
fn per_layer(
    trace: &Tracer,
    traced: &[&Round],
    untraced: &[&Round],
    setup: (f64, usize),
    first: &Round,
    replays: Replays,
    calib: &Calibrator,
) -> Vec<Metric> {
    let n = traced.len().max(1);
    let mean_secs = |key: &str| traced.iter().map(|r| r.obs.secs(key)).sum::<f64>() / n as f64;
    let o = &first.obs;
    let totals = trace.totals();
    let span_per_round = |name: &str| totals.get(name).map_or(0.0, |t| t.total_s) / n as f64;
    let span_median_us = |name: &str| median(&trace.durations(name)) * 1e6;
    let hits = o.get("canon_intern_hits") as f64;
    let misses = o.get("canon_intern_misses") as f64;
    let prep_nodes: u64 = traced.iter().map(|r| r.obs.get("prepare_nodes.sum")).sum();
    let prep_ns: u64 = traced.iter().map(|r| r.obs.get("prepare_ns.sum")).sum();
    let applied = o.get("updates_applied");
    let replay: Vec<f64> = traced.iter().filter_map(|r| r.replay_s).collect();
    let spine_per_update = if applied == 0 {
        0.0
    } else {
        o.get("spine_nodes_rehashed") as f64 / applied as f64
    };
    let mut out = vec![
        metric("core.hash_ns_per_node", replays.hash_ns_per_node, "ns", 1),
        metric("core.hash_nodes", o.get("hash_nodes") as f64, "count", 1),
        metric(
            "core.name_cache_misses",
            o.get("name_cache_misses") as f64,
            "count",
            1,
        ),
        metric("prepare.busy_s", mean_secs("prepare_ns"), "s", n),
        metric(
            "prepare.ns_per_node",
            if prep_nodes == 0 {
                0.0
            } else {
                prep_ns as f64 / prep_nodes as f64
            },
            "ns",
            n,
        ),
        metric("prepare.probe_replay_us", replays.probe_replay_us, "us", 1),
        metric("canon.intern_hits", hits, "count", 1),
        metric("canon.intern_misses", misses, "count", 1),
        metric(
            "canon.hit_ratio",
            if hits + misses == 0.0 {
                0.0
            } else {
                hits / (hits + misses)
            },
            "ratio",
            1,
        ),
        metric(
            "canon.resident_nodes",
            o.get("canon_resident_nodes") as f64,
            "count",
            1,
        ),
        metric("shard.apply_busy_s", mean_secs("apply_ns"), "s", n),
        metric("shard.lock_wait_s", mean_secs("shard_lock_wait_ns"), "s", n),
        metric(
            "merge.confirm_ref",
            o.get("merge_confirm_ref") as f64,
            "count",
            1,
        ),
        metric(
            "merge.confirm_walk",
            o.get("merge_confirm_walk") as f64,
            "count",
            1,
        ),
        metric(
            "merge.confirm_cached",
            o.get("merge_confirm_cached") as f64,
            "count",
            1,
        ),
        metric(
            "merge.walk_nodes",
            o.get("frontier_walk_nodes.sum") as f64,
            "count",
            1,
        ),
        metric(
            "query.lookup_busy_s",
            span_per_round("store.lookup"),
            "s",
            n,
        ),
        metric(
            "query.contains_busy_s",
            span_per_round("store.contains_batch"),
            "s",
            n,
        ),
        metric("query.find_busy_s", mean_secs("probe_ns"), "s", n),
        metric(
            "wal.commits",
            o.get("wal_commit_ns.count") as f64,
            "count",
            1,
        ),
        metric("wal.commit_busy_s", mean_secs("wal_commit_ns"), "s", n),
        metric("wal.append_busy_s", mean_secs("wal_append_ns"), "s", n),
        metric(
            "wal.bytes",
            o.get("wal_bytes_since_checkpoint") as f64,
            "bytes",
            1,
        ),
        metric(
            "wal.bytes_per_node",
            o.get("wal_bytes_since_checkpoint") as f64 / first.nodes.max(1) as f64,
            "bytes/node",
            1,
        ),
        metric("recovery.replay_s", median(&replay), "s", replay.len()),
        metric(
            "recovery.open_s",
            median(&trace.durations("store.open")),
            "s",
            replay.len(),
        ),
        metric(
            "wire.encode_ns_per_term",
            replays.encode_ns_per_term,
            "ns",
            1,
        ),
        metric(
            "wire.decode_ns_per_term",
            replays.decode_ns_per_term,
            "ns",
            1,
        ),
    ];
    for op in ["lookup", "contains", "insert", "update"] {
        let name = format!("wire.rtt_us.{op}");
        let span: &'static str = match op {
            "lookup" => "wire.lookup",
            "contains" => "wire.contains",
            "insert" => "wire.insert",
            _ => "wire.update",
        };
        let d = trace.durations(span);
        out.push(Metric {
            name,
            value: span_median_us(span),
            unit: "us",
            samples: d.len() as u64,
        });
    }
    out.push(metric("update.applied", applied as f64, "count", 1));
    out.push(metric(
        "update.spine_nodes_per_update",
        spine_per_update,
        "nodes",
        1,
    ));
    for &span in SPANS {
        let t = totals.get(span).copied().unwrap_or_default();
        out.push(Metric {
            name: format!("self.{span}_s"),
            value: t.self_s / n as f64,
            unit: "s",
            samples: t.count,
        });
    }
    // Tracing overhead: how much worse the traced rounds' figures are
    // than the untraced rounds' of the same run, in percent.
    let t = figures(
        &calibrate(traced, calib).iter().collect::<Vec<_>>(),
        setup,
        first,
    );
    let u = figures(
        &calibrate(untraced, calib).iter().collect::<Vec<_>>(),
        setup,
        first,
    );
    for (name, rate) in [
        ("ingest_nodes_per_s", true),
        ("lookup_p50_us", false),
        ("contains_per_s", true),
        ("ops_per_s", true),
    ] {
        let tv = t.iter().find(|m| m.name == name).map_or(0.0, |m| m.value);
        let uv = u.iter().find(|m| m.name == name).map_or(0.0, |m| m.value);
        let (worse, base) = if rate { (uv, tv) } else { (tv, uv) };
        let pct = if base == 0.0 {
            0.0
        } else {
            (worse / base - 1.0) * 100.0
        };
        out.push(metric(
            &format!("trace.overhead.{name}_pct"),
            pct,
            "%",
            traced.len(),
        ));
    }
    let calib_us = calib.times();
    out.push(metric(
        "regime.calib_us",
        median(&calib_us),
        "us",
        calib_us.len(),
    ));
    out
}

/// Every span name the workloads record; each gets a self-time figure.
pub const SPANS: &[&str] = &[
    "round",
    "ingest",
    "store.insert_batch",
    "store.lookup",
    "store.contains_batch",
    "store.drop",
    "store.open",
    "wire.lookup",
    "wire.contains",
    "wire.insert",
    "wire.update",
    "check",
];
