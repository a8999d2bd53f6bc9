//! Byte pin for the engine's Prometheus exposition after a scripted run
//! that moves the serving counters: assigns (hits and noise), ingests (a
//! duplicate, a spawned cluster, and a bridge whose keystone spawns a
//! cluster that its two ripened ends merge with both grids), and removes
//! (a miss, then tearing the keystone out, which demotes both ends and
//! splits the cluster). No latency is recorded, so nothing depends on the
//! clock.

use dbsvec_engine::{Engine, EngineMetrics, ModelArtifact, RemoveOutcome};
use dbsvec_geometry::PointSet;
use dbsvec_obs::telemetry::render_prometheus;

/// Two 3×3 unit grids six apart (ε 1.2, MinPts 3), one cluster each.
fn two_grids() -> ModelArtifact {
    let mut cores = PointSet::new(2);
    let mut core_labels = Vec::new();
    for (label, x0) in [(0u32, 0.0), (1, 6.0)] {
        for x in 0..3 {
            for y in 0..3 {
                cores.push(&[x0 + x as f64, y as f64]);
                core_labels.push(label);
            }
        }
    }
    ModelArtifact {
        eps: 1.2,
        min_pts: 3,
        num_clusters: 2,
        cores,
        core_labels,
        boundaries: None,
        quality: None,
        sampling: None,
    }
}

#[test]
fn engine_metrics_exposition_is_pinned() {
    let mut engine = Engine::new(&two_grids());
    for q in [[1.0, 1.0], [0.5, 0.5], [7.0, 1.5], [3.0, 9.0], [1.5, 2.5]] {
        engine.assign(&q);
    }
    engine.ingest(&[1.0, 1.0]); // a duplicate of a fitted core
    for p in [[20.0, 20.0], [20.5, 20.0], [20.2, 20.2]] {
        engine.ingest(&p); // buffers twice, then spawns a cluster
    }
    for p in [[3.0, 1.0], [5.0, 1.0], [4.0, 1.0]] {
        engine.ingest(&p); // the keystone promotes and bridges the grids
    }
    assert_eq!(engine.remove(&[400.0, 0.0]), RemoveOutcome::NotFound);
    assert_eq!(
        engine.remove(&[4.0, 1.0]),
        RemoveOutcome::Removed {
            was_core: true,
            demoted: 2,
            splits: 1,
        }
    );
    let mut m = EngineMetrics::new();
    m.refresh(&engine);
    m.inc_snapshot_write();
    let text = render_prometheus(m.registry());
    let expected = "\
# HELP dbsvec_assigns_total Assignments answered.
# TYPE dbsvec_assigns_total counter
dbsvec_assigns_total 5
# HELP dbsvec_assign_hits_total Assignments that landed in a cluster.
# TYPE dbsvec_assign_hits_total counter
dbsvec_assign_hits_total 4
# HELP dbsvec_ingests_total Observations ingested (including duplicates).
# TYPE dbsvec_ingests_total counter
dbsvec_ingests_total 7
# HELP dbsvec_ingest_duplicates_total Ingests dropped as exact duplicates.
# TYPE dbsvec_ingest_duplicates_total counter
dbsvec_ingest_duplicates_total 1
# HELP dbsvec_promotions_total Points promoted to core (at ingest or from the buffer).
# TYPE dbsvec_promotions_total counter
dbsvec_promotions_total 6
# HELP dbsvec_new_clusters_total Promotions that spawned a brand-new cluster.
# TYPE dbsvec_new_clusters_total counter
dbsvec_new_clusters_total 2
# HELP dbsvec_merges_total Cluster merges caused by promotions.
# TYPE dbsvec_merges_total counter
dbsvec_merges_total 2
# HELP dbsvec_removals_total Tracked observations removed (found).
# TYPE dbsvec_removals_total counter
dbsvec_removals_total 1
# HELP dbsvec_remove_misses_total Removal requests for untracked points.
# TYPE dbsvec_remove_misses_total counter
dbsvec_remove_misses_total 1
# HELP dbsvec_demotions_total Cores demoted below MinPts by removals.
# TYPE dbsvec_demotions_total counter
dbsvec_demotions_total 2
# HELP dbsvec_splits_total Extra cluster pieces created by removal repairs.
# TYPE dbsvec_splits_total counter
dbsvec_splits_total 1
# HELP dbsvec_tree_rebuilds_total Core kd-tree rebuilds folding in the promotion tail.
# TYPE dbsvec_tree_rebuilds_total counter
dbsvec_tree_rebuilds_total 0
# HELP dbsvec_snapshot_writes_total Model snapshots serialized.
# TYPE dbsvec_snapshot_writes_total counter
dbsvec_snapshot_writes_total 1
# HELP dbsvec_snapshot_loads_total Model snapshots deserialized.
# TYPE dbsvec_snapshot_loads_total counter
dbsvec_snapshot_loads_total 0
# HELP dbsvec_quality_windows_total Quality-monitor tumbling windows completed.
# TYPE dbsvec_quality_windows_total counter
dbsvec_quality_windows_total 0
# HELP dbsvec_drift_alerts_total Windows whose smoothed drift score crossed the threshold.
# TYPE dbsvec_drift_alerts_total counter
dbsvec_drift_alerts_total 0
# HELP dbsvec_staleness_ratio Accumulated topology drift per fitted core point.
# TYPE dbsvec_staleness_ratio gauge
dbsvec_staleness_ratio 0.7777777777777778
# HELP dbsvec_refit_recommended 1 when drift passed the re-fit threshold, else 0.
# TYPE dbsvec_refit_recommended gauge
dbsvec_refit_recommended 1
# HELP dbsvec_core_points Current core points (fitted + promoted).
# TYPE dbsvec_core_points gauge
dbsvec_core_points 21
# HELP dbsvec_tail_length Promoted cores awaiting the next kd-tree rebuild.
# TYPE dbsvec_tail_length gauge
dbsvec_tail_length 6
# HELP dbsvec_clusters Current number of clusters.
# TYPE dbsvec_clusters gauge
dbsvec_clusters 3
# HELP dbsvec_buffered_points Observations buffered below the density threshold.
# TYPE dbsvec_buffered_points gauge
dbsvec_buffered_points 2
# HELP dbsvec_quality_baseline_present 1 when the monitor scores against a fit-time baseline, 0 in degraded mode.
# TYPE dbsvec_quality_baseline_present gauge
dbsvec_quality_baseline_present 0
# HELP dbsvec_drift_score Raw combined drift score of the last completed window.
# TYPE dbsvec_drift_score gauge
dbsvec_drift_score 0
# HELP dbsvec_drift_score_smoothed EWMA-smoothed drift score (the alerting quantity).
# TYPE dbsvec_drift_score_smoothed gauge
dbsvec_drift_score_smoothed 0
# HELP dbsvec_drift_hist_distance Assign-distance histogram drift vs the baseline, last window.
# TYPE dbsvec_drift_hist_distance gauge
dbsvec_drift_hist_distance 0
# HELP dbsvec_drift_occupancy_shift Occupancy-share total variation vs the baseline, last window.
# TYPE dbsvec_drift_occupancy_shift gauge
dbsvec_drift_occupancy_shift 0
# HELP dbsvec_drift_noise_delta Absolute noise-rate change vs the baseline, last window.
# TYPE dbsvec_drift_noise_delta gauge
dbsvec_drift_noise_delta 0
# HELP dbsvec_noise_rate_window Noise rate of the last completed window.
# TYPE dbsvec_noise_rate_window gauge
dbsvec_noise_rate_window 0
# HELP dbsvec_assign_latency_seconds Per-call assignment latency.
# TYPE dbsvec_assign_latency_seconds summary
dbsvec_assign_latency_seconds_sum 0
dbsvec_assign_latency_seconds_count 0
# HELP dbsvec_ingest_latency_seconds Per-call ingest latency.
# TYPE dbsvec_ingest_latency_seconds summary
dbsvec_ingest_latency_seconds_sum 0
dbsvec_ingest_latency_seconds_count 0
# HELP dbsvec_remove_latency_seconds Per-call removal latency (repair included).
# TYPE dbsvec_remove_latency_seconds summary
dbsvec_remove_latency_seconds_sum 0
dbsvec_remove_latency_seconds_count 0
# HELP dbsvec_split_repair_latency_seconds Latency of removals whose repair split a cluster.
# TYPE dbsvec_split_repair_latency_seconds summary
dbsvec_split_repair_latency_seconds_sum 0
dbsvec_split_repair_latency_seconds_count 0
";
    assert_eq!(text, expected);
}
