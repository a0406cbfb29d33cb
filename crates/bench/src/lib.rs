//! # alpha-hash-bench
//!
//! The benchmark harness regenerating every table and figure of the
//! paper's evaluation (§7 and Appendix B):
//!
//! | Artifact | Binary | Criterion bench |
//! |----------|--------|-----------------|
//! | Table 1 (algorithm properties) | `table1` | — |
//! | Figure 2 (balanced/unbalanced sweeps) | `fig2` | `fig2_small` |
//! | Table 2 (MNIST/GMM/BERT timings) | `table2` | `table2_models` |
//! | Figure 3 (BERT layer sweep) | `fig3` | — |
//! | Figure 4 (collision study, b=16) | `fig4_collisions` | — |
//! | Ablations (design choices) | — | `ablation_merge`, `ablation_xor`, `ablation_linear`, `incremental` |
//! | Raw hashing throughput (nodes/s) | `hash_throughput` | — |
//!
//! The store tier is measured by `storebench` (see `storebench/README.md`).
//!
//! This library holds the shared pieces: the [`Algorithm`] dispatcher over
//! the four hashers of Table 1, a self-calibrating [`measure`] timer, and
//! the [`store_corpus`] / [`parallel_ingest`] pair the examples and
//! integration tests share.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use alpha_hash::combine::HashScheme;
use alpha_hash::hashed::SubtreeHashes;
use lambda_lang::arena::{ExprArena, NodeId};
use std::time::Instant;

/// The four algorithms of Table 1.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Algorithm {
    /// §2.3 — syntactic hashing (incorrect baseline).
    Structural,
    /// §2.4 — de Bruijn hashing (incorrect baseline).
    DeBruijn,
    /// §2.5 — locally nameless (correct, O(n² log n)).
    LocallyNameless,
    /// §3–§5 — this paper's algorithm.
    Ours,
}

impl Algorithm {
    /// All four, in the paper's Table 1 order.
    pub const ALL: [Algorithm; 4] = [
        Algorithm::Structural,
        Algorithm::DeBruijn,
        Algorithm::LocallyNameless,
        Algorithm::Ours,
    ];

    /// Display name matching the paper (asterisk = incorrect baseline).
    pub fn name(self) -> &'static str {
        match self {
            Algorithm::Structural => "Structural*",
            Algorithm::DeBruijn => "De Bruijn*",
            Algorithm::LocallyNameless => "Locally Nameless",
            Algorithm::Ours => "Ours",
        }
    }

    /// Worst-case complexity, as listed in Table 1.
    pub fn complexity(self) -> &'static str {
        match self {
            Algorithm::Structural => "O(n)",
            Algorithm::DeBruijn => "O(n log n)",
            Algorithm::LocallyNameless => "O(n^2 log n)",
            Algorithm::Ours => "O(n (log n)^2)",
        }
    }

    /// Whether this algorithm meets the §3 specification (Table 1's
    /// true-positive *and* true-negative columns).
    pub fn is_correct(self) -> bool {
        matches!(self, Algorithm::LocallyNameless | Algorithm::Ours)
    }

    /// Hashes all subexpressions with this algorithm.
    pub fn run(
        self,
        arena: &ExprArena,
        root: NodeId,
        scheme: &HashScheme<u64>,
    ) -> SubtreeHashes<u64> {
        match self {
            Algorithm::Structural => hash_baselines::hash_all_structural(arena, root, scheme),
            Algorithm::DeBruijn => hash_baselines::hash_all_debruijn(arena, root, scheme),
            Algorithm::LocallyNameless => {
                hash_baselines::hash_all_locally_nameless(arena, root, scheme)
            }
            Algorithm::Ours => alpha_hash::hash_all_subexpressions(arena, root, scheme),
        }
    }

    /// The exponent used to extrapolate run time to bigger inputs when
    /// deciding whether a measurement fits the time budget.
    pub fn growth_exponent(self) -> f64 {
        match self {
            Algorithm::Structural => 1.05,
            Algorithm::DeBruijn => 1.15,
            Algorithm::LocallyNameless => 2.1,
            Algorithm::Ours => 1.3,
        }
    }
}

/// The corpus of `hash_throughput`, the store examples and tests: `count`
/// terms drawn from `seed_pool` distinct generator seeds (so alpha-level
/// duplicates occur at rate `count / seed_pool`), mixing the three
/// workload families, with every other term alpha-renamed.
///
/// # Panics
///
/// Panics if `seed_pool` is zero.
pub fn store_corpus(arena: &mut ExprArena, count: usize, seed_pool: u64) -> Vec<NodeId> {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    assert!(seed_pool > 0, "seed_pool must be at least 1");
    let mut roots = Vec::with_capacity(count);
    for i in 0..count {
        // All variety (family, size, randomness) derives from the pooled
        // seed, so the corpus has at most `seed_pool` distinct classes and
        // dedup rate is controlled by `count / seed_pool`. Plain `i mod
        // pool` cycles through every residue, whatever the pool size.
        let seed = i as u64 % seed_pool;
        let mut rng = StdRng::seed_from_u64(seed);
        let size = 10 + (seed as usize % 4) * 15;
        // Each term is built in a scratch arena, then copied over — the
        // shared arena is only ever a copy target, keeping corpus
        // construction linear in total corpus size.
        let mut scratch = ExprArena::new();
        let root = match seed % 3 {
            0 => expr_gen::balanced(&mut scratch, size, &mut rng),
            1 => expr_gen::arithmetic(&mut scratch, size, &mut rng),
            _ => expr_gen::unbalanced(&mut scratch, size, &mut rng),
        };
        if i % 2 == 0 {
            // Alpha-renamed copy: same class, fresh binder names.
            roots.push(lambda_lang::uniquify::uniquify_into(&scratch, root, arena));
        } else {
            roots.push(arena.import_subtree(&scratch, root));
        }
    }
    roots
}

/// Ingests `roots` into `store` from `threads` scoped threads, one
/// contiguous batch per thread — the canonical multi-threaded ingest
/// driver shared by the `corpus_dedup` example and the integration tests,
/// so they all exercise the same path.
///
/// # Panics
///
/// Panics if `threads` is zero.
pub fn parallel_ingest<H: alpha_hash::combine::HashWord>(
    store: &alpha_store::AlphaStore<H>,
    arena: &ExprArena,
    roots: &[NodeId],
    threads: usize,
) {
    assert!(threads > 0, "threads must be at least 1");
    if roots.is_empty() {
        return;
    }
    std::thread::scope(|scope| {
        for chunk in roots.chunks(roots.len().div_ceil(threads)) {
            scope.spawn(|| store.insert_batch(arena, chunk));
        }
    });
}

/// Wall-clock seconds for one run of `f` (the result is returned to keep
/// the work observable).
pub fn time_once<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let start = Instant::now();
    let value = f();
    (start.elapsed().as_secs_f64(), value)
}

/// Best-of-`reps` wall-clock seconds for `f` — the throughput binaries'
/// standard reducer (minimum over repetitions filters scheduler noise).
pub fn best_of(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let (secs, ()) = time_once(&mut f);
        best = best.min(secs);
    }
    best
}

/// Self-calibrating measurement: runs `f` once for warmup, then repeats
/// until `min_total_secs` of measurement accumulate (max `max_reps`),
/// returning the mean seconds per run.
pub fn measure(mut f: impl FnMut(), min_total_secs: f64, max_reps: usize) -> f64 {
    f(); // warmup
    let mut reps = 0usize;
    let start = Instant::now();
    loop {
        f();
        reps += 1;
        let elapsed = start.elapsed().as_secs_f64();
        if elapsed >= min_total_secs || reps >= max_reps {
            return elapsed / reps as f64;
        }
    }
}

/// Formats seconds the way the paper's Table 2 does (milliseconds with
/// sensible precision).
pub fn format_ms(secs: f64) -> String {
    let ms = secs * 1e3;
    if ms < 0.1 {
        format!("{ms:.3} ms")
    } else if ms < 10.0 {
        format!("{ms:.2} ms")
    } else {
        format!("{ms:.1} ms")
    }
}

/// Log-spaced sizes (two points per decade) from `lo` to `hi` inclusive.
pub fn half_decade_sizes(lo: usize, hi: usize) -> Vec<usize> {
    let mut sizes = Vec::new();
    let mut exponent = (lo as f64).log10();
    loop {
        let n = 10f64.powf(exponent).round() as usize;
        if n > hi {
            break;
        }
        if n >= lo {
            sizes.push(n);
        }
        exponent += 0.5;
    }
    if sizes.last() != Some(&hi) {
        sizes.push(hi);
    }
    sizes.dedup();
    sizes
}

/// A tiny deterministic argv parser for the figure binaries: flags are
/// `--name value` pairs.
pub struct Args {
    pairs: Vec<(String, String)>,
}

impl Args {
    /// Parses the process arguments.
    ///
    /// # Panics
    ///
    /// Panics (with usage help) on a dangling flag.
    pub fn parse() -> Self {
        let raw: Vec<String> = std::env::args().skip(1).collect();
        let mut pairs = Vec::new();
        let mut i = 0;
        while i < raw.len() {
            let name = raw[i]
                .strip_prefix("--")
                .unwrap_or_else(|| panic!("expected --flag, found {:?}", raw[i]))
                .to_owned();
            let value = raw
                .get(i + 1)
                .unwrap_or_else(|| panic!("flag --{name} needs a value"))
                .clone();
            pairs.push((name, value));
            i += 2;
        }
        Args { pairs }
    }

    /// String flag with default.
    pub fn get(&self, name: &str, default: &str) -> String {
        self.pairs
            .iter()
            .rev()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.clone())
            .unwrap_or_else(|| default.to_owned())
    }

    /// Numeric flag with default.
    pub fn get_usize(&self, name: &str, default: usize) -> usize {
        self.get(name, &default.to_string())
            .parse()
            .unwrap_or_else(|e| {
                panic!("flag --{name} expects an integer: {e}");
            })
    }

    /// Float flag with default.
    pub fn get_f64(&self, name: &str, default: f64) -> f64 {
        self.get(name, &default.to_string())
            .parse()
            .unwrap_or_else(|e| {
                panic!("flag --{name} expects a number: {e}");
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lambda_lang::parse::parse;

    #[test]
    fn all_algorithms_run_and_agree_on_whole_expr_modulo_alpha_where_correct() {
        let mut a = ExprArena::new();
        let e1 = parse(&mut a, r"\x. x + free").unwrap();
        let e2 = parse(&mut a, r"\y. y + free").unwrap();
        let scheme = HashScheme::new(3);
        for alg in Algorithm::ALL {
            let h1 = alg.run(&a, e1, &scheme).get(e1);
            let h2 = alg.run(&a, e2, &scheme).get(e2);
            match alg {
                Algorithm::Structural => assert_ne!(h1, h2, "{}", alg.name()),
                // De Bruijn, LN and Ours all equate whole-expression
                // alpha-variants.
                _ => assert_eq!(h1, h2, "{}", alg.name()),
            }
        }
    }

    #[test]
    fn half_decade_sizes_are_log_spaced() {
        let sizes = half_decade_sizes(10, 100_000);
        assert_eq!(sizes.first(), Some(&10));
        assert_eq!(sizes.last(), Some(&100_000));
        assert!(sizes.windows(2).all(|w| w[0] < w[1]));
        assert!(sizes.contains(&316) || sizes.contains(&3162));
    }

    #[test]
    fn measure_returns_positive_time() {
        let t = measure(
            || {
                std::hint::black_box((0..1000).sum::<u64>());
            },
            0.001,
            50,
        );
        assert!(t > 0.0);
    }

    #[test]
    fn format_ms_scales() {
        assert!(format_ms(0.00001).contains("0.010 ms"));
        assert!(format_ms(0.0036).contains("3.60 ms"));
        assert!(format_ms(0.82).contains("820.0 ms"));
    }
}
