//! End-to-end quality monitoring through the facade: the fit-time quality
//! baseline must survive the snapshot round trip, a monitored engine must
//! separate drifted traffic from stationary traffic, its window/alert
//! events must replay from a JSONL trace to the exact live counts, a
//! threaded batch must window exactly like a per-query loop, and a
//! baseline-less (v1-era) model must degrade gracefully instead of
//! alerting on signals it cannot compute.

use dbsvec::datasets::{gaussian_mixture, standins::suggest_eps};
use dbsvec::engine::{snapshot, Engine, EngineConfig, EngineMetrics, ModelArtifact, MonitorConfig};
use dbsvec::geometry::rng::SplitMix64;
use dbsvec::obs::{Event, JsonlSink, RecordingObserver, ReplayCounts, Tee};
use dbsvec::{Dbsvec, DbsvecConfig, PointSet};

const DIMS: usize = 4;
const WINDOW: usize = 100;

/// Fits a mixture and returns (training points, eps, quality-baselined
/// artifact round-tripped through the snapshot format).
fn fitted_model(seed: u64) -> (PointSet, f64, ModelArtifact) {
    let ds = gaussian_mixture(1_500, DIMS, 3, 500.0, 1e5, seed);
    let eps = suggest_eps(&ds.points, 6, seed);
    let fit = Dbsvec::new(DbsvecConfig::new(eps, 6)).fit(&ds.points);
    let artifact = ModelArtifact::from_fit(&ds.points, fit.labels(), fit.core_points(), eps, 6)
        .expect("valid fit")
        .with_quality(&ds.points, fit.labels());
    let bytes = snapshot::encode(&artifact);
    let restored = snapshot::decode(&bytes).expect("own bytes decode");
    assert_eq!(restored, artifact, "snapshot round trip is lossless");
    assert!(
        restored.quality.is_some(),
        "the quality baseline must survive the snapshot round trip"
    );
    (ds.points, eps, restored)
}

/// Training points displaced by `offset` eps on every coordinate, with a
/// deterministic sub-eps jitter so no two queries are identical.
fn shifted_stream(points: &PointSet, eps: f64, offset: f64, seed: u64) -> PointSet {
    let mut rng = SplitMix64::new(seed);
    let mut out = PointSet::new(DIMS);
    let mut buf = vec![0.0; DIMS];
    for (_, p) in points.iter() {
        for (d, v) in buf.iter_mut().enumerate() {
            *v = p[d] + (rng.next_f64() - 0.5) * eps + offset * eps;
        }
        out.push(&buf);
    }
    out
}

#[test]
fn monitored_serving_separates_drift_and_replays_from_the_trace() {
    let (points, eps, artifact) = fitted_model(17);

    // ---- Stationary traffic: jittered training points stay quiet.
    let config = EngineConfig::new().with_monitor(MonitorConfig::new().with_window(WINDOW));
    let mut engine = Engine::with_config(&artifact, config);
    assert!(engine.monitor().unwrap().has_baseline());
    let stationary = shifted_stream(&points, eps, 0.0, 0x57a7);
    for (_, p) in stationary.iter() {
        engine.assign(p);
    }
    let monitor = engine.monitor().unwrap();
    let stats = engine.stats();
    let expected_windows = (points.len() / WINDOW) as u64;
    assert_eq!(stats.quality_windows, expected_windows);
    assert_eq!(
        stats.drift_alerts, 0,
        "in-distribution traffic must not alert"
    );
    assert!(!monitor.drift_exceeded());
    let health = engine.health();
    assert!(!health.refit_recommended, "fresh model, fresh traffic");
    let signals = health.drift.expect("windows completed, so signals exist");
    assert!(
        signals.smoothed_score < monitor.config().drift_threshold,
        "stationary smoothed score {:.3} must sit below the threshold",
        signals.smoothed_score
    );

    // ---- Drifted traffic: a 3-eps-per-coordinate population shift must
    // alert, and every window/alert event must replay from the trace.
    let mut engine = Engine::with_config(&artifact, config);
    let mut recorder = RecordingObserver::new();
    let mut sink = JsonlSink::new(Vec::new());
    let drifted = shifted_stream(&points, eps, 3.0, 0x57a7);
    for (_, p) in drifted.iter() {
        engine.assign_observed(p, &mut Tee(&mut recorder, &mut sink));
    }
    let monitor = engine.monitor().unwrap();
    let stats = engine.stats();
    assert_eq!(stats.quality_windows, expected_windows);
    assert!(
        stats.drift_alerts > 0,
        "a population shift must raise alerts"
    );
    assert!(monitor.drift_exceeded());
    let health = engine.health();
    assert!(
        health.refit_recommended,
        "drift alone must recommend a refit even with zero staleness"
    );

    let text = String::from_utf8(sink.finish().expect("in-memory sink cannot fail"))
        .expect("trace is UTF-8");
    let replayed = ReplayCounts::from_jsonl(&text).expect("trace replays");
    assert_eq!(replayed.quality_windows, stats.quality_windows);
    assert_eq!(replayed.drift_alerts, stats.drift_alerts);
    assert_eq!(replayed, recorder.replay(), "sink and recorder agree");
}

#[test]
fn baseline_less_model_monitors_in_degraded_mode() {
    // A model persisted before quality baselines existed (format v1)
    // decodes with `quality: None`; a monitor on top of it must keep
    // counting windows without ever fabricating drift evidence.
    let ds = gaussian_mixture(800, DIMS, 3, 500.0, 1e5, 41);
    let eps = suggest_eps(&ds.points, 6, 41);
    let fit = Dbsvec::new(DbsvecConfig::new(eps, 6)).fit(&ds.points);
    let artifact = ModelArtifact::from_fit(&ds.points, fit.labels(), fit.core_points(), eps, 6)
        .expect("valid fit");
    assert!(artifact.quality.is_none());

    let config = EngineConfig::new().with_monitor(MonitorConfig::new().with_window(WINDOW));
    let mut engine = Engine::with_config(&artifact, config);
    assert!(!engine.monitor().unwrap().has_baseline());
    let drifted = shifted_stream(&ds.points, eps, 3.0, 0xdead);
    for (_, p) in drifted.iter() {
        engine.assign(p);
    }
    let monitor = engine.monitor().unwrap();
    let stats = engine.stats();
    assert_eq!(stats.quality_windows, (ds.points.len() / WINDOW) as u64);
    assert_eq!(stats.drift_alerts, 0, "no baseline, no drift evidence");
    assert!(!monitor.drift_exceeded());
    assert!(monitor.signals().is_none());
    let health = engine.health();
    assert!(health.drift.is_none());
    assert!(!health.refit_recommended);
}

#[test]
fn threaded_monitored_batches_window_like_a_per_query_loop() {
    // Parts of 1,024 rows: at 2 and 4 threads the first part fans out
    // over every worker (256 queries each at least), and the windows of
    // 100 straddle the part boundary.
    const PART: usize = 1_024;
    assert_eq!(Engine::fan_out_width(PART, 4), 4);
    let (points, eps, artifact) = fitted_model(17);
    let drifted = shifted_stream(&points, eps, 3.0, 0x57a7);
    assert_eq!(drifted.len(), 1_500);
    let config = EngineConfig::new().with_monitor(MonitorConfig::new().with_window(WINDOW));

    let mut engine = Engine::with_config(&artifact, config);
    let mut expected = RecordingObserver::new();
    let expected_labels: Vec<_> = drifted
        .iter()
        .map(|(_, p)| engine.assign_observed(p, &mut expected))
        .collect();
    let monitor = engine.monitor().unwrap();
    let expected_signals = monitor.signals().expect("windows completed");
    let expected_windows = engine.stats().quality_windows;
    let expected_alerts = engine.stats().drift_alerts;
    assert_eq!(expected_windows, 15);
    assert!(expected_alerts > 0, "the shift must raise alerts");
    let expected_events: Vec<Event> = expected.events().cloned().collect();

    let rows: Vec<&[f64]> = drifted.iter().map(|(_, p)| p).collect();
    for threads in [1, 2, 4] {
        let mut engine = Engine::with_config(&artifact, config);
        let mut metrics = EngineMetrics::new();
        let mut recorder = RecordingObserver::new();
        let mut labels = Vec::new();
        for part in rows.chunks(PART) {
            labels.extend(engine.assign_many_observed(part, threads, &mut metrics, &mut recorder));
        }
        assert_eq!(labels, expected_labels, "{threads} threads");
        let events: Vec<Event> = recorder.events().cloned().collect();
        assert_eq!(events, expected_events, "{threads} threads");
        let monitor = engine.monitor().unwrap();
        assert_eq!(
            monitor.signals(),
            Some(expected_signals),
            "{threads} threads"
        );
        assert_eq!(engine.stats().quality_windows, expected_windows);
        assert_eq!(engine.stats().drift_alerts, expected_alerts);
        assert_eq!(metrics.assign_latency().histogram().count(), 1_500);
    }
}
