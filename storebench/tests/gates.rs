//! The benchmark's own checks, at small sizes: every workload passes its
//! correctness gate on both seeds, the work counters repeat exactly for
//! one seed, and a traced run reports every per-layer metric.

use std::path::PathBuf;
use storebench::workloads::{END_TO_END, SPANS};
use storebench::{run, Config, Outcome, Sizes, Workload};

/// The seed the benchmark was tuned on, and one held out from tuning.
const SEEDS: [u64; 2] = [storebench::TUNING_SEED, storebench::HELD_OUT_SEED];

fn run_tiny(workload: Workload, seed: u64, trace: bool, tag: &str) -> Outcome {
    let data_dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("{}-{seed}-{tag}", workload.name()));
    let cfg = Config {
        workload,
        seed,
        seconds: 0.0,
        trace,
        sizes: Sizes::tiny(),
        data_dir: data_dir.clone(),
    };
    let outcome = run(&cfg).unwrap_or_else(|e| panic!("{} seed {seed}: {e}", workload.name()));
    let _ = std::fs::remove_dir_all(&data_dir);
    outcome
}

#[test]
fn every_workload_passes_its_gate_on_both_seeds() {
    for workload in Workload::ALL {
        for seed in SEEDS {
            let o = run_tiny(workload, seed, false, "gate");
            assert!(o.attempted > 0);
            assert_eq!(
                o.failed,
                0,
                "{} seed {seed}: {:?}",
                workload.name(),
                o.gate_errors
            );
            assert!(
                o.gate_errors.is_empty(),
                "{} seed {seed}: {:?}",
                workload.name(),
                o.gate_errors
            );
            let names: Vec<&str> = o.end_to_end.iter().map(|m| m.name.as_str()).collect();
            let want: Vec<&str> = END_TO_END.iter().map(|&(n, _)| n).collect();
            assert_eq!(names, want);
            for m in &o.end_to_end {
                assert!(
                    m.value.is_finite() && m.value > 0.0,
                    "{} {}: {}",
                    workload.name(),
                    m.name,
                    m.value
                );
            }
        }
    }
}

/// The counters are the first round's, and every one of them repeats,
/// on every workload:
/// - `subexpr_index` ingests on two threads, but canon interning is
///   exact hash-consing under a stripe lock (one miss per distinct node,
///   whichever thread gets there first) and subexpression entries are
///   always confirmed by ref compare, so the totals do not depend on the
///   interleaving;
/// - `wire_mix`'s incremental-hasher cache evicts in `HashMap` order,
///   randomised per map, but the first round updates fewer distinct
///   terms than the cache holds, so nothing is evicted yet.
#[test]
fn work_counters_repeat_exactly_for_one_seed() {
    for workload in Workload::ALL {
        let a = run_tiny(workload, storebench::TUNING_SEED, false, "a").counters;
        let b = run_tiny(workload, storebench::TUNING_SEED, false, "b").counters;
        assert_eq!(a, b, "{}", workload.name());
        assert!(a["hash_nodes"] > 0, "{}", workload.name());
    }
}

#[test]
fn a_traced_run_reports_every_per_layer_metric() {
    let mut names: Option<Vec<String>> = None;
    for workload in Workload::ALL {
        let o = run_tiny(workload, storebench::TUNING_SEED, true, "trace");
        assert!(o.correct(), "{}", workload.name());
        let these: Vec<String> = o.per_layer.iter().map(|m| m.name.clone()).collect();
        for span in SPANS {
            assert!(these.contains(&format!("self.{span}_s")));
        }
        if let Some(names) = &names {
            assert_eq!(
                names, &these,
                "every workload reports the same per-layer names"
            );
        }
        names = Some(these);
        let value = |name: &str| {
            o.per_layer
                .iter()
                .find(|m| m.name == name)
                .map(|m| m.value)
                .unwrap()
        };
        assert!(value("core.hash_nodes") > 0.0);
        assert!(value("prepare.busy_s") > 0.0);
        match workload {
            Workload::DedupDurable => {
                assert!(value("wal.bytes") > 0.0 && value("recovery.open_s") > 0.0);
                assert_eq!(value("wire.rtt_us.lookup"), 0.0);
            }
            Workload::SubexprIndex => {
                assert_eq!(value("wal.bytes"), 0.0);
                assert!(value("query.contains_busy_s") > 0.0);
            }
            Workload::WireMix => {
                assert_eq!(value("wal.bytes"), 0.0);
                assert!(value("wire.rtt_us.update") > 0.0 && value("update.applied") > 0.0);
                assert!(value("wire.encode_ns_per_term") > 0.0);
            }
        }
        let trace = o.trace_json.expect("a traced run keeps its spans");
        assert!(trace.contains("\"spans\"") && trace.contains("alpha_store_hash_nodes"));
    }
}
