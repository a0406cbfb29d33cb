//! # storebench
//!
//! The alpha-store tier's benchmark: three workloads that drive the
//! store, the prepare step, the hasher, the WAL/snapshot code and the
//! daemon only through their public functions, and report end-to-end
//! figures (untraced run) or per-layer figures (traced run).
//!
//! See `README.md` in this directory for each workload's purpose and
//! sizes, the metric catalogue and the layer → metric map.

#![forbid(unsafe_code)]

pub mod calib;
pub mod corpus;
pub mod layers;
pub mod stats;
pub mod trace;
pub mod workloads;

pub use workloads::{run, Config, Outcome, Sizes, Workload};

/// The seed the benchmark's sizes and bounds were tuned on.
pub const TUNING_SEED: u64 = 1;

/// A seed held out from tuning, for re-checking later claims on data
/// the tuning never saw.
pub const HELD_OUT_SEED: u64 = 7919;
