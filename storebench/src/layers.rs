//! Reads the store's exported `obs_report()` — the same snapshot
//! production exports — into a flat map of the figures the benchmark
//! uses, and takes differences between two snapshots.

use alpha_store::alpha_obs::Report;
use std::collections::BTreeMap;

/// Counters read from the report (monotonic: differenced).
const COUNTERS: &[&str] = &[
    "alpha_store_hash_nodes",
    "alpha_store_name_cache_misses",
    "alpha_store_canon_intern_hits",
    "alpha_store_canon_intern_misses",
    "alpha_store_merge_confirm_ref",
    "alpha_store_merge_confirm_walk",
    "alpha_store_merge_confirm_cached",
    "alpha_store_merges_confirmed",
    "alpha_store_unconfirmed_merges",
    "alpha_store_terms_ingested",
    "alpha_store_classes_created",
    "alpha_store_subterms_indexed",
    "alpha_store_updates_applied",
    "alpha_store_spine_nodes_rehashed",
];

/// Gauges read from the report (levels: kept as the later value).
const GAUGES: &[&str] = &[
    "alpha_store_canon_resident_nodes",
    "alpha_store_canon_resident_bytes",
    "alpha_store_wal_bytes_since_checkpoint",
    "alpha_store_wal_records",
];

/// Histograms read from the report: their sample count and sum.
const HISTOGRAMS: &[&str] = &[
    "alpha_store_prepare_ns",
    "alpha_store_prepare_nodes",
    "alpha_store_shard_lock_wait_ns",
    "alpha_store_apply_ns",
    "alpha_store_wal_commit_ns",
    "alpha_store_wal_append_ns",
    "alpha_store_frontier_walk_nodes",
    "alpha_store_probe_ns",
    "alpha_store_recovery_replay_ns",
];

/// A flat view of one report: `name` for counters and gauges,
/// `name.count` and `name.sum` for histograms. The `alpha_store_`
/// prefix is dropped.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ObsSnap {
    counts: BTreeMap<String, u64>,
    levels: BTreeMap<String, u64>,
}

fn short(name: &str) -> &str {
    name.strip_prefix("alpha_store_").unwrap_or(name)
}

impl ObsSnap {
    /// Reads the figures this benchmark uses out of `report`.
    pub fn read(report: &Report) -> Self {
        let mut snap = ObsSnap::default();
        for &name in COUNTERS {
            snap.counts
                .insert(short(name).to_owned(), report.counter(name).unwrap_or(0));
        }
        for &name in GAUGES {
            snap.levels
                .insert(short(name).to_owned(), report.gauge(name).unwrap_or(0));
        }
        for &name in HISTOGRAMS {
            let (count, sum) = report.histogram(name).map_or((0, 0), |h| (h.count, h.sum));
            snap.counts.insert(format!("{}.count", short(name)), count);
            snap.counts.insert(format!("{}.sum", short(name)), sum);
        }
        snap
    }

    /// The named figure (0 if absent).
    pub fn get(&self, key: &str) -> u64 {
        self.counts
            .get(key)
            .or_else(|| self.levels.get(key))
            .copied()
            .unwrap_or(0)
    }

    /// Histogram sum in seconds, for `_ns` histograms.
    pub fn secs(&self, hist: &str) -> f64 {
        self.get(&format!("{hist}.sum")) as f64 * 1e-9
    }

    /// What happened between `earlier` and `self`: counters and
    /// histograms differenced, gauges as of `self`.
    pub fn since(&self, earlier: &ObsSnap) -> ObsSnap {
        ObsSnap {
            counts: self
                .counts
                .iter()
                .map(|(k, &v)| (k.clone(), v.saturating_sub(earlier.get(k))))
                .collect(),
            levels: self.levels.clone(),
        }
    }
}
