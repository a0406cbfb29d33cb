//! `alpha-obs`: zero-dependency metrics and tracing primitives.
//!
//! The observability layer for the alpha-hash workspace, hand-rolled on
//! `std` alone in the same spirit as `crates/compat` — no registry
//! crates, no macros, no global state. Three pieces:
//!
//! - **Metrics** ([`metrics`], [`hist`]): relaxed-atomic [`Counter`]s
//!   and [`Gauge`]s, and striped lock-free log2-bucket [`Histogram`]s
//!   from which p50/p90/p99/max are derived at snapshot time. Recording
//!   is wait-free and safe inside any critical section.
//! - **Tracing** ([`trace`]): a [`Tracer`] that stamps caller-timed
//!   events with static call-site names into a bounded ring of recent
//!   events.
//! - **Export** ([`export`]): a [`Registry`] of named instruments whose
//!   [`Report`] snapshot renders to Prometheus text format or JSON and
//!   offers typed accessors for programmatic reads.
//!
//! The instrumented component (see `alpha-store`'s `obs` module)
//! decides *what* to measure; this crate only provides the mechanics.
//! Nothing here can be switched off: every instrument records on every
//! call.
//!
//! [`Counter`]: metrics::Counter
//! [`Gauge`]: metrics::Gauge
//! [`Histogram`]: hist::Histogram
//! [`Tracer`]: trace::Tracer
//! [`Registry`]: export::Registry
//! [`Report`]: export::Report

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod export;
pub mod hist;
pub mod metrics;
pub mod trace;

pub use export::{Desc, Registry, Report, Sample};
pub use hist::{Histogram, HistogramSnapshot};
pub use metrics::{Counter, Gauge};
pub use trace::{Event, Tracer};
