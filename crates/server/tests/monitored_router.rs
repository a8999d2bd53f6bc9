//! Pins the router's monitored path: one shard with a quality monitor,
//! served a batch of noise and a run of isolated ingests. Every response
//! body, the health answer and the drift series of the aggregate registry
//! are asserted to the exact value, so a change to how the router drives
//! a monitored engine cannot move any of them unnoticed.

use dbsvec_core::Clustering;
use dbsvec_engine::{ModelArtifact, MonitorConfig};
use dbsvec_geometry::PointSet;
use dbsvec_server::{point_shard, Router};

/// Two rows of five cores (y = 0 and y = 100), ε = 1.5, MinPts = 3,
/// with the fit-time quality baseline taken from the cores themselves.
fn baselined_artifact() -> ModelArtifact {
    let mut cores = PointSet::new(2);
    let mut labels = Vec::new();
    for (label, y) in [(0u32, 0.0), (1, 100.0)] {
        for i in 0..5 {
            cores.push(&[i as f64, y]);
            labels.push(label);
        }
    }
    let clustering = Clustering::from_assignments(labels.iter().map(|&l| Some(l)).collect());
    let points = cores.clone();
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
    .with_quality(&points, &clustering)
}

#[test]
fn monitored_shard_windows_alerts_and_reports_exact_values() {
    let mut router = Router::new();
    router.add_model(
        "m",
        "m.dbm",
        &baselined_artifact(),
        1,
        Some(
            MonitorConfig::new()
                .with_window(4)
                .with_drift_threshold(0.3)
                .with_ewma_alpha(1.0),
        ),
    );

    // Eight points far from every core: two all-noise windows, each
    // scoring the maximal noise delta against a 0%-noise fit.
    let noise: Vec<String> = (0..8).map(|i| format!("[{},50.0]", 50 + 3 * i)).collect();
    let body = format!("{{\"points\":[{}]}}", noise.join(","));
    let (resp, n) = router.assign("m", body.as_bytes()).unwrap();
    assert_eq!(n, 8);
    assert_eq!(
        resp.to_string(),
        "{\"model\":\"m\",\"count\":8,\
         \"clusters\":[null,null,null,null,null,null,null,null]}"
    );

    // Drift alone recommends the refit: nothing changed the topology yet.
    assert_eq!(
        router.health("m").unwrap().to_string(),
        "{\"model\":\"m\",\"shards\":1,\"dirty_shards\":0,\"core_points\":10,\
         \"clusters\":2,\"buffered_points\":0,\"tail_length\":0,\"staleness\":0.0,\
         \"refit_recommended\":true}"
    );

    // Four isolated arrivals: each is buffered, and together they fill a
    // third window.
    for i in 0..4 {
        let body = format!("{{\"point\":[{},30.0]}}", 30 + 8 * i);
        let (resp, n) = router.ingest("m", body.as_bytes()).unwrap();
        assert_eq!(n, 1);
        assert_eq!(
            resp.to_string(),
            "{\"model\":\"m\",\"outcome\":\"buffered\"}"
        );
    }
    assert_eq!(
        router.health("m").unwrap().to_string(),
        "{\"model\":\"m\",\"shards\":1,\"dirty_shards\":1,\"core_points\":10,\
         \"clusters\":2,\"buffered_points\":4,\"tail_length\":0,\"staleness\":0.4,\
         \"refit_recommended\":true}"
    );

    let agg = router.aggregate_metrics();
    let reg = agg.registry();
    assert_eq!(reg.counter_value("dbsvec_quality_windows_total"), Some(3));
    assert_eq!(reg.counter_value("dbsvec_drift_alerts_total"), Some(3));
    assert_eq!(reg.gauge_value("dbsvec_noise_rate_window"), Some(1.0));
    assert_eq!(reg.gauge_value("dbsvec_drift_noise_delta"), Some(1.0));
    assert_eq!(reg.gauge_value("dbsvec_drift_score_smoothed"), Some(1.0));
    assert_eq!(
        reg.gauge_value("dbsvec_quality_baseline_present"),
        Some(1.0)
    );
    assert_eq!(reg.gauge_value("dbsvec_cluster_occupancy_c0"), Some(0.0));
    assert_eq!(reg.gauge_value("dbsvec_refit_recommended"), Some(1.0));
    assert_eq!(reg.gauge_value("dbsvec_buffered_points"), Some(4.0));
    assert_eq!(reg.counter_value("dbsvec_assigns_total"), Some(8));
    assert_eq!(reg.counter_value("dbsvec_ingests_total"), Some(4));
    assert_eq!(agg.assign_latency().histogram().count(), 8);
    assert_eq!(agg.ingest_latency().histogram().count(), 4);
}

#[test]
fn monitored_shards_sum_their_window_and_alert_counts() {
    let mut router = Router::new();
    router.add_model(
        "m",
        "m.dbm",
        &baselined_artifact(),
        2,
        Some(
            MonitorConfig::new()
                .with_window(4)
                .with_drift_threshold(0.3)
                .with_ewma_alpha(1.0),
        ),
    );

    // 32 points far from every core. Each shard windows the noise it is
    // routed on its own, and every all-noise window alerts.
    let rows: Vec<[f64; 2]> = (0..32).map(|i| [50.0 + 3.0 * i as f64, 50.0]).collect();
    let per_shard = rows.iter().fold([0u64; 2], |mut n, r| {
        n[point_shard(r, 2)] += 1;
        n
    });
    assert_eq!(per_shard, [15, 17]);
    let body = format!(
        "{{\"points\":[{}]}}",
        rows.iter()
            .map(|r| format!("[{:?},{:?}]", r[0], r[1]))
            .collect::<Vec<_>>()
            .join(",")
    );
    let (_, n) = router.assign("m", body.as_bytes()).unwrap();
    assert_eq!(n, 32);

    // 15 / 4 + 17 / 4 = 3 + 4 windows, each raising one alert.
    let agg = router.aggregate_metrics();
    let reg = agg.registry();
    assert_eq!(reg.counter_value("dbsvec_quality_windows_total"), Some(7));
    assert_eq!(reg.counter_value("dbsvec_drift_alerts_total"), Some(7));
    assert_eq!(reg.gauge_value("dbsvec_refit_recommended"), Some(1.0));
    assert_eq!(reg.counter_value("dbsvec_assigns_total"), Some(32));
    // The drift gauges come from the worst shard, and both shards saw
    // only noise: the gauges agree with the refit verdict above.
    assert_eq!(
        reg.gauge_value("dbsvec_quality_baseline_present"),
        Some(1.0)
    );
    assert_eq!(reg.gauge_value("dbsvec_drift_score_smoothed"), Some(1.0));
    assert_eq!(reg.gauge_value("dbsvec_noise_rate_window"), Some(1.0));
}

#[test]
fn the_most_drifted_shard_publishes_the_drift_gauges() {
    let monitor = MonitorConfig::new()
        .with_window(4)
        .with_drift_threshold(0.3)
        .with_ewma_alpha(1.0);
    let mut router = Router::new();
    router.add_model("calm", "calm.dbm", &baselined_artifact(), 1, Some(monitor));
    router.add_model(
        "drift",
        "drift.dbm",
        &baselined_artifact(),
        1,
        Some(monitor),
    );

    // One window of in-cluster points for the first model, one window of
    // noise for the second: the second model's shard is the worst.
    let calm = b"{\"points\":[[1.5,0.0],[2.5,0.0],[1.5,100.0],[2.5,100.0]]}";
    let drift = b"{\"points\":[[50.0,50.0],[53.0,50.0],[56.0,50.0],[59.0,50.0]]}";
    router.assign("calm", calm).unwrap();
    router.assign("drift", drift).unwrap();

    let agg = router.aggregate_metrics();
    let reg = agg.registry();
    assert_eq!(reg.counter_value("dbsvec_quality_windows_total"), Some(2));
    assert_eq!(reg.gauge_value("dbsvec_drift_score_smoothed"), Some(1.0));
    assert_eq!(reg.gauge_value("dbsvec_noise_rate_window"), Some(1.0));
    assert_eq!(reg.gauge_value("dbsvec_cluster_occupancy_c0"), Some(0.0));
}
