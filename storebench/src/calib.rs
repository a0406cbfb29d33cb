//! The regime diagnostic: a fixed CPU-and-cache kernel that lives in
//! the benchmark's own code, so no change to the program can move it.
//!
//! The kernel is timed before the first round and after every measured
//! phase. Its median is reported with every run (`calib_us`), which
//! makes runs taken while the machine is in a slow regime recognisable.
//! The end-to-end timings are reported at a reference machine speed:
//! each phase's measured time × [`REFERENCE_US`] / the median kernel time
//! within a second of the phase (see `README.md`).

use std::hint::black_box;
use std::time::Instant;

/// The kernel time, in µs, that calibrated timings are scaled to: the
/// kernel's typical time on the two-core box the bounds were set on.
pub const REFERENCE_US: f64 = 1900.0;

/// Elements the kernel sorts: 64 Ki `u64`s, 512 KiB, about 2 ms.
const KERNEL_LEN: usize = 1 << 16;

/// One kernel pass: fill a buffer from an xorshift stream, sort it and
/// fold it. Returns the fold so the work cannot be optimised away.
fn kernel(buf: &mut Vec<u64>) -> u64 {
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    buf.clear();
    buf.extend((0..KERNEL_LEN).map(|_| {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    }));
    buf.sort_unstable();
    buf.iter().fold(0u64, |a, &b| a.wrapping_add(b))
}

/// Half-width, in seconds, of the window of samples that calibrates a
/// phase: the regime a phase ran in is read from the kernel times taken
/// within a second of its midpoint.
const WINDOW_S: f64 = 1.0;

/// Times the kernel at phase boundaries and keeps every sample with the
/// time it was taken.
pub struct Calibrator {
    start: Instant,
    buf: Vec<u64>,
    /// (seconds since the calibrator started, kernel µs)
    samples: Vec<(f64, f64)>,
}

impl Default for Calibrator {
    fn default() -> Self {
        Calibrator {
            start: Instant::now(),
            buf: Vec::new(),
            samples: Vec::new(),
        }
    }
}

impl Calibrator {
    /// Seconds since the calibrator started.
    pub fn now(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }

    /// Runs the kernel twice and records the faster pass in microseconds.
    pub fn sample(&mut self) {
        let mut best = f64::INFINITY;
        let at = self.now();
        for _ in 0..2 {
            let start = Instant::now();
            black_box(kernel(black_box(&mut self.buf)));
            best = best.min(start.elapsed().as_secs_f64() * 1e6);
        }
        self.samples.push((at, best));
    }

    /// Every sample's kernel time so far, in microseconds.
    pub fn times(&self) -> Vec<f64> {
        self.samples.iter().map(|&(_, us)| us).collect()
    }

    /// The kernel time at `at` (seconds since start): the median of the
    /// samples within [`WINDOW_S`] of it, or of the three nearest if
    /// fewer lie there.
    pub fn around(&self, at: f64) -> f64 {
        let mut near: Vec<(f64, f64)> = self
            .samples
            .iter()
            .map(|&(t, us)| ((t - at).abs(), us))
            .collect();
        near.sort_by(|a, b| a.0.total_cmp(&b.0));
        let inside = near
            .iter()
            .take_while(|&&(d, _)| d <= WINDOW_S)
            .count()
            .max(3);
        let times: Vec<f64> = near.iter().take(inside).map(|&(_, us)| us).collect();
        crate::stats::median(&times)
    }
}
