//! Engine telemetry: a pre-wired [`Registry`] for the serving paths.
//!
//! [`EngineMetrics`] owns a `dbsvec-obs` telemetry registry with every
//! serving metric pre-registered from tables of `(name, help, value)`
//! rows: lifetime counters showing [`EngineStats`] fields (the quality
//! monitor's window and alert counts among them), health gauges showing
//! [`HealthSnapshot`] fields, the attached quality monitor's gauges, and
//! per-call latency histograms.
//!
//! * **Counters and gauges** are never incremented per call.
//!   [`EngineMetrics::refresh`] overwrites them from the engine's
//!   [`EngineStats`] — a view of the engine's own event fold, so the
//!   registry, the stats and a replayed trace read one source — from its
//!   current [`HealthSnapshot`], and from its monitor, if it has one. All
//!   are authoritative, so any refresh cadence gives the same numbers.
//! * **Latency histograms** are the only per-call state. The engine fills
//!   the assignment histogram itself, one sample per row of
//!   [`Engine::assign_many`]; every other sample comes from the caller
//!   that timed the call (the HTTP router and the CLI time each ingest and
//!   removal) through [`EngineMetrics::record_ingest`] /
//!   [`EngineMetrics::record_remove`]. The single-call `assign` / `ingest`
//!   / `remove` paths never touch telemetry, so the disabled-telemetry
//!   cost is exactly zero — the bench overhead guard pins this.
//! * **Snapshot I/O** is counted by explicit
//!   [`EngineMetrics::inc_snapshot_write`] /
//!   [`EngineMetrics::inc_snapshot_load`] calls at the persistence call
//!   sites, because no engine operation performs it.

use std::time::Duration;

use dbsvec_obs::telemetry::{CounterId, GaugeId, Histogram, HistogramId, HistogramMetric};
use dbsvec_obs::Registry;

use crate::engine::{Engine, EngineStats, HealthSnapshot, RemoveOutcome};
use crate::monitor::QualityMonitor;

/// One metric: name, help text, and how to read its value from `S`.
type Row<S, T> = (&'static str, &'static str, fn(&S) -> T);

/// Lifetime counters, in registration (and so exposition) order.
const STAT_COUNTERS: [Row<EngineStats, u64>; 12] = [
    ("dbsvec_assigns_total", "Assignments answered.", |s| {
        s.assigns
    }),
    (
        "dbsvec_assign_hits_total",
        "Assignments that landed in a cluster.",
        |s| s.assign_hits,
    ),
    (
        "dbsvec_ingests_total",
        "Observations ingested (including duplicates).",
        |s| s.ingests,
    ),
    (
        "dbsvec_ingest_duplicates_total",
        "Ingests dropped as exact duplicates.",
        |s| s.duplicates,
    ),
    (
        "dbsvec_promotions_total",
        "Points promoted to core (at ingest or from the buffer).",
        |s| s.promotions,
    ),
    (
        "dbsvec_new_clusters_total",
        "Promotions that spawned a brand-new cluster.",
        |s| s.new_clusters,
    ),
    (
        "dbsvec_merges_total",
        "Cluster merges caused by promotions.",
        |s| s.merges,
    ),
    (
        "dbsvec_removals_total",
        "Tracked observations removed (found).",
        |s| s.removals,
    ),
    (
        "dbsvec_remove_misses_total",
        "Removal requests for untracked points.",
        |s| s.remove_misses,
    ),
    (
        "dbsvec_demotions_total",
        "Cores demoted below MinPts by removals.",
        |s| s.demotions,
    ),
    (
        "dbsvec_splits_total",
        "Extra cluster pieces created by removal repairs.",
        |s| s.splits,
    ),
    (
        "dbsvec_tree_rebuilds_total",
        "Core kd-tree rebuilds folding in the promotion tail.",
        |s| s.tree_rebuilds,
    ),
];

/// The quality monitor's counters, registered after the snapshot I/O
/// counters. Like the other counters they show [`EngineStats`] fields, so
/// the router's shard sum carries them too.
const MONITOR_COUNTERS: [Row<EngineStats, u64>; 2] = [
    (
        "dbsvec_quality_windows_total",
        "Quality-monitor tumbling windows completed.",
        |s| s.quality_windows,
    ),
    (
        "dbsvec_drift_alerts_total",
        "Windows whose smoothed drift score crossed the threshold.",
        |s| s.drift_alerts,
    ),
];

/// Point-in-time health gauges.
const HEALTH_GAUGES: [Row<HealthSnapshot, f64>; 6] = [
    (
        "dbsvec_staleness_ratio",
        "Accumulated topology drift per fitted core point.",
        |h| h.staleness,
    ),
    (
        "dbsvec_refit_recommended",
        "1 when drift passed the re-fit threshold, else 0.",
        |h| f64::from(h.refit_recommended),
    ),
    (
        "dbsvec_core_points",
        "Current core points (fitted + promoted).",
        |h| h.core_points as f64,
    ),
    (
        "dbsvec_tail_length",
        "Promoted cores awaiting the next kd-tree rebuild.",
        |h| h.tail_length as f64,
    ),
    ("dbsvec_clusters", "Current number of clusters.", |h| {
        h.clusters as f64
    }),
    (
        "dbsvec_buffered_points",
        "Observations buffered below the density threshold.",
        |h| h.buffered_points as f64,
    ),
];

/// The quality monitor's gauges; the drift signals read 0 until a window
/// with a baseline completes.
const MONITOR_GAUGES: [Row<QualityMonitor, f64>; 7] = [
    (
        "dbsvec_quality_baseline_present",
        "1 when the monitor scores against a fit-time baseline, 0 in degraded mode.",
        |m| f64::from(m.has_baseline()),
    ),
    (
        "dbsvec_drift_score",
        "Raw combined drift score of the last completed window.",
        |m| m.signals().map_or(0.0, |s| s.score),
    ),
    (
        "dbsvec_drift_score_smoothed",
        "EWMA-smoothed drift score (the alerting quantity).",
        |m| m.signals().map_or(0.0, |s| s.smoothed_score),
    ),
    (
        "dbsvec_drift_hist_distance",
        "Assign-distance histogram drift vs the baseline, last window.",
        |m| m.signals().map_or(0.0, |s| s.hist_distance),
    ),
    (
        "dbsvec_drift_occupancy_shift",
        "Occupancy-share total variation vs the baseline, last window.",
        |m| m.signals().map_or(0.0, |s| s.occupancy_shift),
    ),
    (
        "dbsvec_drift_noise_delta",
        "Absolute noise-rate change vs the baseline, last window.",
        |m| m.signals().map_or(0.0, |s| s.noise_delta),
    ),
    (
        "dbsvec_noise_rate_window",
        "Noise rate of the last completed window.",
        |m| m.window_noise_rate().unwrap_or(0.0),
    ),
];

/// A telemetry registry pre-wired with the engine's serving metrics.
#[derive(Clone, Debug)]
pub struct EngineMetrics {
    reg: Registry,
    /// Registry ids of each table above, same order.
    stat_counters: [CounterId; STAT_COUNTERS.len()],
    monitor_counters: [CounterId; MONITOR_COUNTERS.len()],
    health_gauges: [GaugeId; HEALTH_GAUGES.len()],
    monitor_gauges: [GaugeId; MONITOR_GAUGES.len()],
    snapshot_writes: CounterId,
    snapshot_loads: CounterId,
    assign_latency: HistogramId,
    ingest_latency: HistogramId,
    remove_latency: HistogramId,
    split_latency: HistogramId,
    /// Per-cluster occupancy gauges (`dbsvec_cluster_occupancy_c<N>`),
    /// registered lazily as clusters appear in completed windows.
    cluster_occupancy: Vec<GaugeId>,
}

impl Default for EngineMetrics {
    fn default() -> Self {
        Self::new()
    }
}

impl EngineMetrics {
    /// Creates the metrics set with every metric registered under
    /// `dbsvec_*` names.
    pub fn new() -> Self {
        let mut reg = Registry::new();
        let stat_counters = STAT_COUNTERS.map(|(name, help, _)| reg.counter(name, help));
        let snapshot_writes = reg.counter(
            "dbsvec_snapshot_writes_total",
            "Model snapshots serialized.",
        );
        let snapshot_loads = reg.counter(
            "dbsvec_snapshot_loads_total",
            "Model snapshots deserialized.",
        );
        let monitor_counters = MONITOR_COUNTERS.map(|(name, help, _)| reg.counter(name, help));
        let health_gauges = HEALTH_GAUGES.map(|(name, help, _)| reg.gauge(name, help));
        let monitor_gauges = MONITOR_GAUGES.map(|(name, help, _)| reg.gauge(name, help));
        let mut latency = |name: &str, help: &str| reg.histogram(name, help, 1e9);
        let assign_latency = latency(
            "dbsvec_assign_latency_seconds",
            "Per-call assignment latency.",
        );
        let ingest_latency = latency("dbsvec_ingest_latency_seconds", "Per-call ingest latency.");
        let remove_latency = latency(
            "dbsvec_remove_latency_seconds",
            "Per-call removal latency (repair included).",
        );
        let split_latency = latency(
            "dbsvec_split_repair_latency_seconds",
            "Latency of removals whose repair split a cluster.",
        );
        Self {
            reg,
            stat_counters,
            monitor_counters,
            health_gauges,
            monitor_gauges,
            snapshot_writes,
            snapshot_loads,
            assign_latency,
            ingest_latency,
            remove_latency,
            split_latency,
            cluster_occupancy: Vec::new(),
        }
    }

    /// Overwrites counters from the engine's cumulative [`EngineStats`]
    /// (window and alert counts included) and gauges from its current
    /// [`HealthSnapshot`] (whose refit gauge carries the monitor's drift
    /// evidence). With a monitor attached, also publishes its state:
    /// per-signal drift gauges, windowed noise rate, and lazily registered
    /// per-cluster occupancy gauges (`dbsvec_cluster_occupancy_c<N>`, the
    /// registry has no label support). Safe to call at any cadence; every
    /// source is authoritative.
    pub fn refresh(&mut self, engine: &Engine) {
        self.refresh_from_parts(&engine.stats(), &engine.health());
        let Some(monitor) = engine.monitor() else {
            return;
        };
        for (&id, (_, _, value)) in self.monitor_gauges.iter().zip(&MONITOR_GAUGES) {
            self.reg.set(id, value(monitor));
        }
        let shares = monitor.window_shares();
        while self.cluster_occupancy.len() < shares.len() {
            let c = self.cluster_occupancy.len();
            self.cluster_occupancy.push(self.reg.gauge(
                &format!("dbsvec_cluster_occupancy_c{c}"),
                &format!("Occupancy share of cluster {c} in the last completed window."),
            ));
        }
        for (&id, &share) in self.cluster_occupancy.iter().zip(shares) {
            self.reg.set(id, share);
        }
    }

    /// [`EngineMetrics::refresh`] from already-captured parts. The HTTP
    /// router uses this to publish one aggregate registry over N shards:
    /// it sums the shards' [`EngineStats`] (all counters are additive) and
    /// folds their [`HealthSnapshot`]s (counts sum, staleness takes the
    /// max, refit ORs) before refreshing.
    pub fn refresh_from_parts(&mut self, s: &EngineStats, h: &HealthSnapshot) {
        for (&id, (_, _, value)) in self.stat_counters.iter().zip(&STAT_COUNTERS) {
            self.reg.set_counter(id, value(s));
        }
        for (&id, (_, _, value)) in self.monitor_counters.iter().zip(&MONITOR_COUNTERS) {
            self.reg.set_counter(id, value(s));
        }
        for (&id, (_, _, value)) in self.health_gauges.iter().zip(&HEALTH_GAUGES) {
            self.reg.set(id, value(h));
        }
    }

    /// Records one assignment's wall-clock latency.
    pub fn record_assign(&mut self, d: Duration) {
        self.reg.observe_duration(self.assign_latency, d);
    }

    /// Records one ingest's wall-clock latency.
    pub fn record_ingest(&mut self, d: Duration) {
        self.reg.observe_duration(self.ingest_latency, d);
    }

    /// Records one removal's wall-clock latency, and the same reading in
    /// the split-repair histogram when the removal split a cluster.
    pub fn record_remove(&mut self, d: Duration, outcome: RemoveOutcome) {
        self.reg.observe_duration(self.remove_latency, d);
        if let RemoveOutcome::Removed { splits: 1.., .. } = outcome {
            self.reg.observe_duration(self.split_latency, d);
        }
    }

    /// Folds a histogram of assignment latencies (nanosecond ticks) into
    /// the registry — the merge half of the batch fan-out, and of
    /// multi-shard exposition.
    pub fn merge_assign_latencies(&mut self, local: &Histogram) {
        self.reg.merge_histogram(self.assign_latency, local);
    }

    /// Folds a histogram of ingest latencies (nanosecond ticks) into the
    /// registry — the aggregation half of multi-shard exposition.
    pub fn merge_ingest_latencies(&mut self, local: &Histogram) {
        self.reg.merge_histogram(self.ingest_latency, local);
    }

    /// Folds a histogram of removal latencies into the registry.
    pub fn merge_remove_latencies(&mut self, local: &Histogram) {
        self.reg.merge_histogram(self.remove_latency, local);
    }

    /// Folds a histogram of split-repair latencies into the registry.
    pub fn merge_split_latencies(&mut self, local: &Histogram) {
        self.reg.merge_histogram(self.split_latency, local);
    }

    /// Counts one snapshot serialization.
    pub fn inc_snapshot_write(&mut self) {
        self.reg.inc(self.snapshot_writes);
    }

    /// Counts one snapshot deserialization.
    pub fn inc_snapshot_load(&mut self) {
        self.reg.inc(self.snapshot_loads);
    }

    /// Overwrites the snapshot I/O counters (for aggregating registries
    /// that sum per-shard counts, matching the overwrite discipline of
    /// [`EngineMetrics::refresh`]).
    pub fn set_snapshot_counts(&mut self, writes: u64, loads: u64) {
        self.reg.set_counter(self.snapshot_writes, writes);
        self.reg.set_counter(self.snapshot_loads, loads);
    }

    /// The assignment-latency histogram.
    pub fn assign_latency(&self) -> &HistogramMetric {
        self.reg.histogram_at(self.assign_latency)
    }

    /// The ingest-latency histogram.
    pub fn ingest_latency(&self) -> &HistogramMetric {
        self.reg.histogram_at(self.ingest_latency)
    }

    /// The removal-latency histogram.
    pub fn remove_latency(&self) -> &HistogramMetric {
        self.reg.histogram_at(self.remove_latency)
    }

    /// The split-repair-latency histogram.
    pub fn split_latency(&self) -> &HistogramMetric {
        self.reg.histogram_at(self.split_latency)
    }

    /// The underlying registry (for exposition).
    pub fn registry(&self) -> &Registry {
        &self.reg
    }

    /// Mutable registry access (to add process-level metrics alongside).
    pub fn registry_mut(&mut self) -> &mut Registry {
        &mut self.reg
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::artifact::ModelArtifact;
    use dbsvec_geometry::PointSet;

    fn two_cluster_artifact() -> ModelArtifact {
        let mut cores = PointSet::new(2);
        let mut labels = Vec::new();
        for i in 0..5 {
            cores.push(&[i as f64, 0.0]);
            labels.push(0);
        }
        for i in 0..5 {
            cores.push(&[i as f64, 100.0]);
            labels.push(1);
        }
        ModelArtifact {
            eps: 1.5,
            min_pts: 3,
            num_clusters: 2,
            cores,
            core_labels: labels,
            boundaries: None,
            quality: None,
            sampling: None,
        }
    }

    #[test]
    fn refresh_mirrors_stats_and_health() {
        let mut engine = Engine::new(&two_cluster_artifact());
        let mut m = EngineMetrics::new();
        engine.assign(&[2.0, 0.5]);
        engine.assign(&[2.0, 50.0]);
        engine.ingest(&[2.0, 0.5]);
        m.refresh(&engine);
        let reg = m.registry();
        assert_eq!(reg.counter_value("dbsvec_assigns_total"), Some(2));
        assert_eq!(reg.counter_value("dbsvec_assign_hits_total"), Some(1));
        assert_eq!(reg.counter_value("dbsvec_ingests_total"), Some(1));
        assert_eq!(reg.counter_value("dbsvec_promotions_total"), Some(1));
        assert_eq!(reg.gauge_value("dbsvec_core_points"), Some(11.0));
        assert_eq!(reg.gauge_value("dbsvec_clusters"), Some(2.0));
        assert_eq!(
            reg.gauge_value("dbsvec_staleness_ratio"),
            Some(engine.staleness())
        );
        // Refresh is idempotent — counters come from a cumulative source.
        m.refresh(&engine);
        assert_eq!(m.registry().counter_value("dbsvec_assigns_total"), Some(2));
    }

    #[test]
    fn fan_out_width_enforces_the_amortization_floor() {
        let floor = Engine::SPAWN_AMORTIZATION_FLOOR;
        // Small batches never fan out, whatever was requested.
        assert_eq!(Engine::fan_out_width(floor - 1, 8), 1);
        assert_eq!(Engine::fan_out_width(1, 8), 1);
        assert_eq!(Engine::fan_out_width(0, 8), 1);
        // threads <= 1 never fans out, whatever the batch size.
        assert_eq!(Engine::fan_out_width(10 * floor, 1), 1);
        assert_eq!(Engine::fan_out_width(10 * floor, 0), 1);
        // Width grows with the batch but each worker keeps >= floor.
        assert_eq!(Engine::fan_out_width(2 * floor, 8), 2);
        assert_eq!(Engine::fan_out_width(8 * floor, 8), 8);
        assert_eq!(Engine::fan_out_width(8 * floor, 4), 4);
    }

    #[test]
    fn assign_many_matches_classify_and_meters_every_row() {
        let mut engine = Engine::new(&two_cluster_artifact());
        let rows: Vec<Vec<f64>> = (0..40)
            .map(|i| vec![(i % 7) as f64, (i % 3) as f64 * 50.0])
            .collect();
        let expected: Vec<_> = rows.iter().map(|r| engine.classify(r)).collect();
        for threads in [1, 4] {
            let mut m = EngineMetrics::new();
            let before = engine.stats().assigns;
            let got = engine.assign_many(&rows, threads, &mut m);
            assert_eq!(got, expected);
            assert_eq!(m.assign_latency().histogram().count(), 40);
            assert_eq!(engine.stats().assigns, before + 40);
        }
        // Large enough to cross the fan-out floor: same answers.
        let big: Vec<Vec<f64>> = (0..(2 * Engine::SPAWN_AMORTIZATION_FLOOR))
            .map(|i| vec![(i % 7) as f64, (i % 3) as f64 * 50.0])
            .collect();
        let expected: Vec<_> = big.iter().map(|r| engine.classify(r)).collect();
        let mut m = EngineMetrics::new();
        let got = engine.assign_many(&big, 2, &mut m);
        assert_eq!(got, expected);
        assert_eq!(m.assign_latency().histogram().count(), big.len() as u64);
    }

    #[test]
    fn refresh_from_parts_and_set_snapshot_counts_aggregate() {
        let mut engine_a = Engine::new(&two_cluster_artifact());
        let mut engine_b = Engine::new(&two_cluster_artifact());
        engine_a.assign(&[2.0, 0.5]);
        engine_a.assign(&[2.0, 50.0]);
        engine_b.assign(&[3.0, 0.5]);
        let mut stats = engine_a.stats();
        let b = engine_b.stats();
        stats.assigns += b.assigns;
        stats.assign_hits += b.assign_hits;
        let mut health = engine_a.health();
        let hb = engine_b.health();
        health.core_points += hb.core_points;
        health.clusters += hb.clusters;
        health.staleness = health.staleness.max(hb.staleness);
        let mut m = EngineMetrics::new();
        m.refresh_from_parts(&stats, &health);
        m.set_snapshot_counts(3, 2);
        let reg = m.registry();
        assert_eq!(reg.counter_value("dbsvec_assigns_total"), Some(3));
        assert_eq!(reg.counter_value("dbsvec_assign_hits_total"), Some(2));
        assert_eq!(reg.gauge_value("dbsvec_core_points"), Some(20.0));
        assert_eq!(reg.counter_value("dbsvec_snapshot_writes_total"), Some(3));
        assert_eq!(reg.counter_value("dbsvec_snapshot_loads_total"), Some(2));
    }

    #[test]
    fn refresh_publishes_the_monitor_drift_gauges() {
        use crate::engine::EngineConfig;
        use crate::monitor::MonitorConfig;

        let mut cores = PointSet::new(2);
        for i in 0..5 {
            cores.push(&[i as f64, 0.0]);
        }
        let artifact = ModelArtifact {
            eps: 1.5,
            min_pts: 3,
            num_clusters: 1,
            cores: cores.clone(),
            core_labels: vec![0; 5],
            boundaries: None,
            quality: None,
            sampling: None,
        };
        let points = cores;
        let clustering = dbsvec_core::Clustering::from_assignments(vec![Some(0); 5]);
        let artifact = artifact.with_quality(&points, &clustering);
        let config = EngineConfig::new().with_monitor(
            MonitorConfig::new()
                .with_window(4)
                .with_drift_threshold(0.3)
                .with_ewma_alpha(1.0),
        );
        let mut engine = Engine::with_config(&artifact, config);
        let mut m = EngineMetrics::new();
        // Before any window: baseline present, everything else zero.
        m.refresh(&engine);
        let reg = m.registry();
        assert_eq!(
            reg.gauge_value("dbsvec_quality_baseline_present"),
            Some(1.0)
        );
        assert_eq!(reg.counter_value("dbsvec_quality_windows_total"), Some(0));
        assert_eq!(reg.gauge_value("dbsvec_drift_score"), Some(0.0));
        assert!(reg.gauge_value("dbsvec_cluster_occupancy_c0").is_none());

        // An all-noise window: maximal noise delta, alert, occupancy gauge.
        for _ in 0..4 {
            engine.assign(&[50.0, 50.0]);
        }
        m.refresh(&engine);
        let reg = m.registry();
        assert_eq!(reg.counter_value("dbsvec_quality_windows_total"), Some(1));
        assert_eq!(reg.counter_value("dbsvec_drift_alerts_total"), Some(1));
        let score = reg.gauge_value("dbsvec_drift_score_smoothed").unwrap();
        assert!(score >= 0.3, "{score}");
        assert_eq!(reg.gauge_value("dbsvec_noise_rate_window"), Some(1.0));
        assert_eq!(reg.gauge_value("dbsvec_drift_noise_delta"), Some(1.0));
        assert_eq!(reg.gauge_value("dbsvec_refit_recommended"), Some(1.0));
        assert_eq!(reg.gauge_value("dbsvec_cluster_occupancy_c0"), Some(0.0));
    }

    #[test]
    fn record_remove_files_a_splitting_removal_under_both_histograms() {
        let mut m = EngineMetrics::new();
        let d = Duration::from_micros(40);
        m.record_remove(d, RemoveOutcome::NotFound);
        let removed = |splits| RemoveOutcome::Removed {
            was_core: true,
            demoted: 0,
            splits,
        };
        m.record_remove(d, removed(0));
        m.record_remove(d, removed(2));
        assert_eq!(m.remove_latency().histogram().count(), 3);
        let split = m.split_latency().histogram();
        assert_eq!(split.count(), 1);
        // One clock reading feeds both histograms.
        assert_eq!(split.p50(), m.remove_latency().histogram().p50());
    }

    #[test]
    fn snapshot_counters_are_explicit() {
        let mut m = EngineMetrics::new();
        m.inc_snapshot_load();
        m.inc_snapshot_write();
        m.inc_snapshot_write();
        assert_eq!(
            m.registry().counter_value("dbsvec_snapshot_writes_total"),
            Some(2)
        );
        assert_eq!(
            m.registry().counter_value("dbsvec_snapshot_loads_total"),
            Some(1)
        );
    }
}
