//! `storebench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints, as the last line of standard output,
//! `{"correct", "attempted", "failed", "metrics"}`: the end-to-end
//! metrics for `--trace 0`, the per-layer metrics for `--trace 1`. The
//! line before it carries every figure with its sample count, the work
//! counters and the regime diagnostic. A traced run also writes its
//! spans and an `obs_report()` snapshot under `.bench_out/`.

use std::path::PathBuf;
use std::process::ExitCode;
use storebench::workloads::Metric;
use storebench::{run, Config, Outcome, Sizes, Workload};

const USAGE: &str = "usage: storebench --workload <dedup_durable|subexpr_index|wire_mix> \
                     --seed <n> --seconds <s> --trace <0|1>";

fn parse_args() -> Result<Config, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    for pair in args.chunks(2) {
        let [flag, value] = pair else {
            return Err(format!("flag {} has no value", pair[0]));
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|e| format!("--seed {value}: {e}"))?,
                )
            }
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds {value}: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {value} is not in (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value} is not 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Config {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        sizes: Sizes::full(),
        data_dir: PathBuf::from(".bench_data").join(format!(
            "{}-{}",
            workload.name(),
            std::process::id()
        )),
    })
}

/// Restricts this thread, and every thread it starts afterwards, to the
/// lowest-numbered CPU it may run on. Returns that CPU, or `None` if the
/// affinity calls failed (the run then proceeds unpinned and says so).
fn pin_to_one_cpu() -> Option<usize> {
    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }
    let mut mask = [0u64; 16];
    let size = std::mem::size_of_val(&mask);
    // SAFETY: `mask` is a writable buffer of exactly `size` bytes, the
    // size of glibc's `cpu_set_t`; pid 0 names the calling thread.
    if unsafe { sched_getaffinity(0, size, mask.as_mut_ptr()) } != 0 {
        return None;
    }
    let word = mask.iter().position(|&w| w != 0)?;
    let cpu = word * 64 + mask[word].trailing_zeros() as usize;
    let mut one = [0u64; 16];
    one[word] = 1 << (cpu % 64);
    // SAFETY: `one` is a readable buffer of exactly `size` bytes naming
    // a CPU the thread is already allowed on; pid 0 is this thread.
    (unsafe { sched_setaffinity(0, size, one.as_ptr()) } == 0).then_some(cpu)
}

fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_owned()
    }
}

fn metrics_json(metrics: &[Metric], samples: bool) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|m| {
            let extra = if samples {
                format!(", \"samples\": {}", m.samples)
            } else {
                String::new()
            };
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"{extra}}}",
                m.name,
                num(m.value),
                m.unit
            )
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

fn detail_json(cfg: &Config, o: &Outcome, pinned: Option<usize>) -> String {
    let counters: Vec<String> = o
        .counters
        .iter()
        .map(|(k, v)| format!("\"{k}\": {v}"))
        .collect();
    let gates: Vec<String> = o.gate_errors.iter().map(|e| format!("{e:?}")).collect();
    format!(
        "{{\"storebench\": {{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"pinned_cpu\": {}, \
         \"calib_us\": {}, \"figures\": {}, \"counters\": {{{}}}, \"gate_errors\": [{}]}}}}",
        cfg.workload.name(),
        cfg.seed,
        cfg.trace,
        pinned.map_or("null".to_owned(), |c| c.to_string()),
        num(o.calib_us),
        metrics_json(&o.detail, true),
        counters.join(", "),
        gates.join(", ")
    )
}

fn main() -> ExitCode {
    let cfg = match parse_args() {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("storebench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // The single-threaded workloads run on one CPU, the one their
    // calibration kernel runs on. For `wire_mix` this also makes the
    // daemon's thread hand-off a context switch on that CPU, so the
    // figures measure the program's per-request work rather than the
    // host's cross-CPU wake-up latency, which swings with host load.
    let pinned = if cfg.workload == Workload::SubexprIndex {
        None
    } else {
        pin_to_one_cpu()
    };
    if cfg.workload != Workload::SubexprIndex && pinned.is_none() {
        eprintln!(
            "storebench: could not pin {} to one CPU; running unpinned",
            cfg.workload.name()
        );
    }
    let result = run(&cfg);
    let _ = std::fs::remove_dir_all(&cfg.data_dir);
    let outcome = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("storebench: aborted: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("{}", detail_json(&cfg, &outcome, pinned));
    if let Some(trace) = &outcome.trace_json {
        let path = PathBuf::from(".bench_out").join(format!(
            "trace-{}-seed{}.json",
            cfg.workload.name(),
            cfg.seed
        ));
        let written =
            std::fs::create_dir_all(".bench_out").and_then(|()| std::fs::write(&path, trace));
        if let Err(e) = written {
            eprintln!("storebench: writing {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        println!("{{\"trace_file\": \"{}\"}}", path.display());
    }
    let metrics = if cfg.trace {
        &outcome.per_layer
    } else {
        &outcome.end_to_end
    };
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.correct(),
        outcome.attempted.max(1),
        outcome.failed,
        metrics_json(metrics, false)
    );
    ExitCode::SUCCESS
}
