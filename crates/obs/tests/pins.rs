//! Byte pins for the two outward formats the event stream feeds: the jsonl
//! wire text of every [`Event`] variant, and the Prometheus rendering of a
//! [`MetricsObserver`] that has seen a fixed event sequence.
//!
//! Both are contracts with readers outside this crate (trace files on
//! disk, scrapers), so any change to a field name, a field order, a metric
//! name, a help string or a counting rule must show up here as a failing
//! diff.

use dbsvec_obs::jsonl::event_to_json;
use dbsvec_obs::replay::event_from_json;
use dbsvec_obs::telemetry::render_prometheus;
use dbsvec_obs::{Event, HttpStages, MetricsObserver, Observer};

/// One instance of every variant, each field with its own value.
fn one_of_each() -> Vec<Event> {
    vec![
        Event::Seed {
            point: 11,
            neighborhood_len: 12,
        },
        Event::RangeQuery {
            probe: 21,
            result_len: 22,
        },
        Event::SmoSolve {
            target_size: 31,
            iterations: 32,
            cache_hits: 33,
            cache_misses: 34,
            warm_started: true,
            converged: false,
            initial_kkt_violation_e6: 35,
        },
        Event::ExpansionRound {
            cluster: 41,
            round: 42,
            target_size: 43,
            n_sv: 44,
            n_core_sv: 45,
            smo_iters: 46,
        },
        Event::Merge {
            existing: 51,
            expanding: 52,
        },
        Event::NoiseVerdict {
            point: 61,
            confirmed: true,
        },
        Event::Sample {
            candidates: 71,
            total: 72,
            rate_e6: 73,
        },
        Event::Attach {
            point: 81,
            attached: false,
        },
        Event::Assign { hit: true },
        Event::Ingest {
            core: false,
            duplicate: true,
        },
        Event::Promote { cluster: 111 },
        Event::Remove {
            core: true,
            found: false,
        },
        Event::Demote { cluster: 131 },
        Event::Split { pieces: 141 },
        Event::SnapshotWrite { bytes: 1 << 40 },
        Event::SnapshotLoad { bytes: 161 },
        Event::QualityWindow {
            window: 171,
            samples: 172,
            drift_score_e6: 173,
            hist_distance_e6: 174,
            occupancy_shift_e6: 175,
            noise_delta_e6: 176,
            baseline: true,
        },
        Event::DriftAlert {
            window: 181,
            drift_score_e6: 182,
            threshold_e6: 183,
        },
        Event::HttpRequest {
            endpoint: "remove".to_string(),
            status: 503,
            points: 191,
            request_id: 192,
            duration_us: 193,
            stages: HttpStages {
                queue_us: 194,
                parse_us: 195,
                route_us: 196,
                lock_us: 197,
                engine_us: 198,
                serialize_us: 199,
                write_us: 200,
            },
        },
    ]
}

/// The pinned wire text of an instance from [`one_of_each`]. Every arm
/// names every field and there is no wildcard arm, so a new variant or a
/// new field does not compile until it is pinned here.
fn pinned_text(event: &Event) -> &'static str {
    match event {
        Event::Seed {
            point: _,
            neighborhood_len: _,
        } => r#"{"event":"seed","point":11,"neighborhood_len":12}"#,
        Event::RangeQuery {
            probe: _,
            result_len: _,
        } => r#"{"event":"range_query","probe":21,"result_len":22}"#,
        Event::SmoSolve {
            target_size: _,
            iterations: _,
            cache_hits: _,
            cache_misses: _,
            warm_started: _,
            converged: _,
            initial_kkt_violation_e6: _,
        } => concat!(
            r#"{"event":"smo_solve","target_size":31,"iterations":32,"cache_hits":33,"#,
            r#""cache_misses":34,"warm_started":true,"converged":false,"#,
            r#""initial_kkt_violation_e6":35}"#
        ),
        Event::ExpansionRound {
            cluster: _,
            round: _,
            target_size: _,
            n_sv: _,
            n_core_sv: _,
            smo_iters: _,
        } => concat!(
            r#"{"event":"expansion_round","cluster":41,"round":42,"target_size":43,"#,
            r#""n_sv":44,"n_core_sv":45,"smo_iters":46}"#
        ),
        Event::Merge {
            existing: _,
            expanding: _,
        } => r#"{"event":"merge","existing":51,"expanding":52}"#,
        Event::NoiseVerdict {
            point: _,
            confirmed: _,
        } => r#"{"event":"noise_verdict","point":61,"confirmed":true}"#,
        Event::Sample {
            candidates: _,
            total: _,
            rate_e6: _,
        } => r#"{"event":"sample","candidates":71,"total":72,"rate_e6":73}"#,
        Event::Attach {
            point: _,
            attached: _,
        } => r#"{"event":"attach","point":81,"attached":false}"#,
        Event::Assign { hit: _ } => r#"{"event":"assign","hit":true}"#,
        Event::Ingest {
            core: _,
            duplicate: _,
        } => r#"{"event":"ingest","core":false,"duplicate":true}"#,
        Event::Promote { cluster: _ } => r#"{"event":"promote","cluster":111}"#,
        Event::Remove { core: _, found: _ } => r#"{"event":"remove","core":true,"found":false}"#,
        Event::Demote { cluster: _ } => r#"{"event":"demote","cluster":131}"#,
        Event::Split { pieces: _ } => r#"{"event":"split","pieces":141}"#,
        Event::SnapshotWrite { bytes: _ } => r#"{"event":"snapshot_write","bytes":1099511627776}"#,
        Event::SnapshotLoad { bytes: _ } => r#"{"event":"snapshot_load","bytes":161}"#,
        Event::QualityWindow {
            window: _,
            samples: _,
            drift_score_e6: _,
            hist_distance_e6: _,
            occupancy_shift_e6: _,
            noise_delta_e6: _,
            baseline: _,
        } => concat!(
            r#"{"event":"quality_window","window":171,"samples":172,"drift_score_e6":173,"#,
            r#""hist_distance_e6":174,"occupancy_shift_e6":175,"noise_delta_e6":176,"#,
            r#""baseline":true}"#
        ),
        Event::DriftAlert {
            window: _,
            drift_score_e6: _,
            threshold_e6: _,
        } => r#"{"event":"drift_alert","window":181,"drift_score_e6":182,"threshold_e6":183}"#,
        Event::HttpRequest {
            endpoint: _,
            status: _,
            points: _,
            request_id: _,
            duration_us: _,
            stages: _,
        } => concat!(
            r#"{"event":"http_request","endpoint":"remove","status":503,"points":191,"#,
            r#""request_id":192,"duration_us":193,"queue_us":194,"parse_us":195,"#,
            r#""route_us":196,"lock_us":197,"engine_us":198,"serialize_us":199,"#,
            r#""write_us":200}"#
        ),
    }
}

#[test]
fn jsonl_wire_text_of_every_variant_is_pinned() {
    let events = one_of_each();
    let mut names: Vec<&str> = events.iter().map(Event::name).collect();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), 19, "one instance of each of the 19 variants");
    for event in &events {
        let json = event_to_json(event);
        assert_eq!(json.to_string(), pinned_text(event), "{}", event.name());
        assert_eq!(
            event_from_json(&json).as_ref(),
            Ok(event),
            "{} must decode back",
            event.name()
        );
    }
}

/// A fixed event sequence (no spans, so nothing depends on the clock)
/// that leaves each of the observer's 31 counters at its own non-zero
/// value, so two swapped counter rows cannot render the same text.
fn feed(m: &mut MetricsObserver) {
    let mut times = |n: u64, event: Event| {
        for _ in 0..n {
            m.event(&event);
        }
    };
    times(
        1,
        Event::Seed {
            point: 0,
            neighborhood_len: 9,
        },
    );
    times(
        2,
        Event::RangeQuery {
            probe: 0,
            result_len: 9,
        },
    );
    times(
        3,
        Event::Merge {
            existing: 0,
            expanding: 1,
        },
    );
    times(4, Event::SnapshotWrite { bytes: 64 });
    times(5, Event::SnapshotLoad { bytes: 64 });
    times(6, Event::Promote { cluster: 0 });
    times(7, Event::Demote { cluster: 0 });
    times(
        8,
        Event::QualityWindow {
            window: 1,
            samples: 256,
            drift_score_e6: 1,
            hist_distance_e6: 1,
            occupancy_shift_e6: 1,
            noise_delta_e6: 1,
            baseline: true,
        },
    );
    times(
        9,
        Event::DriftAlert {
            window: 1,
            drift_score_e6: 2,
            threshold_e6: 1,
        },
    );
    // 12 solves: 11 warm-started, 10 of them exhausted.
    let solve = |warm_started: bool, converged: bool| Event::SmoSolve {
        target_size: 77,
        iterations: 100,
        cache_hits: 5,
        cache_misses: 6,
        warm_started,
        converged,
        initial_kkt_violation_e6: 1_000,
    };
    times(10, solve(true, false));
    times(1, solve(true, true));
    times(1, solve(false, true));
    times(
        13,
        Event::ExpansionRound {
            cluster: 0,
            round: 1,
            target_size: 88,
            n_sv: 40,
            n_core_sv: 30,
            smo_iters: 100,
        },
    );
    times(
        14,
        Event::NoiseVerdict {
            point: 3,
            confirmed: true,
        },
    );
    times(
        1,
        Event::NoiseVerdict {
            point: 4,
            confirmed: false,
        },
    );
    times(
        16,
        Event::Attach {
            point: 5,
            attached: true,
        },
    );
    times(
        1,
        Event::Attach {
            point: 6,
            attached: false,
        },
    );
    times(18, Event::Assign { hit: true });
    times(1, Event::Assign { hit: false });
    times(
        20,
        Event::Ingest {
            core: false,
            duplicate: true,
        },
    );
    times(
        1,
        Event::Ingest {
            core: true,
            duplicate: false,
        },
    );
    times(
        22,
        Event::Remove {
            core: false,
            found: true,
        },
    );
    times(
        23,
        Event::Remove {
            core: false,
            found: false,
        },
    );
    times(1, Event::Split { pieces: 27 });
    times(
        1,
        Event::Sample {
            candidates: 5_000,
            total: 20_000,
            rate_e6: 250_000,
        },
    );
    // 25 requests, 24 of them errors, 100 µs apart.
    for i in 0..25u64 {
        times(
            1,
            Event::HttpRequest {
                endpoint: "assign".to_string(),
                status: if i == 0 { 200 } else { 500 },
                points: 1,
                request_id: i + 1,
                duration_us: 100 * (i + 1),
                stages: HttpStages::default(),
            },
        );
    }
}

#[test]
fn metrics_observer_exposition_is_pinned() {
    let mut m = MetricsObserver::new();
    feed(&mut m);
    let text = render_prometheus(m.registry());
    let expected = "\
# HELP dbsvec_seeds_total Sub-clusters seeded.
# TYPE dbsvec_seeds_total counter
dbsvec_seeds_total 1
# HELP dbsvec_svdd_trainings_total SVDD SMO solves.
# TYPE dbsvec_svdd_trainings_total counter
dbsvec_svdd_trainings_total 12
# HELP dbsvec_support_vectors_total Support vectors produced, summed over expansion rounds.
# TYPE dbsvec_support_vectors_total counter
dbsvec_support_vectors_total 520
# HELP dbsvec_core_support_vectors_total Support vectors that passed the core test.
# TYPE dbsvec_core_support_vectors_total counter
dbsvec_core_support_vectors_total 390
# HELP dbsvec_merges_total Cluster unions.
# TYPE dbsvec_merges_total counter
dbsvec_merges_total 3
# HELP dbsvec_noise_candidates_total Potential-noise points examined.
# TYPE dbsvec_noise_candidates_total counter
dbsvec_noise_candidates_total 15
# HELP dbsvec_noise_confirmed_total Potential-noise points confirmed as noise.
# TYPE dbsvec_noise_confirmed_total counter
dbsvec_noise_confirmed_total 14
# HELP dbsvec_range_queries_total Epsilon-range queries issued.
# TYPE dbsvec_range_queries_total counter
dbsvec_range_queries_total 2
# HELP dbsvec_expansion_rounds_total Support-vector expansion rounds completed.
# TYPE dbsvec_expansion_rounds_total counter
dbsvec_expansion_rounds_total 13
# HELP dbsvec_smo_iterations_total SMO iterations, summed over trainings.
# TYPE dbsvec_smo_iterations_total counter
dbsvec_smo_iterations_total 1200
# HELP dbsvec_warm_started_trainings_total SVDD trainings seeded from the previous round's multipliers.
# TYPE dbsvec_warm_started_trainings_total counter
dbsvec_warm_started_trainings_total 11
# HELP dbsvec_iterations_exhausted_total SVDD trainings that hit the SMO iteration cap.
# TYPE dbsvec_iterations_exhausted_total counter
dbsvec_iterations_exhausted_total 10
# HELP dbsvec_initial_kkt_violation_e6_total Initial KKT violations in microunits, summed over trainings.
# TYPE dbsvec_initial_kkt_violation_e6_total counter
dbsvec_initial_kkt_violation_e6_total 12000
# HELP dbsvec_sampled_candidates_total Core candidates drawn by sampled fits.
# TYPE dbsvec_sampled_candidates_total counter
dbsvec_sampled_candidates_total 5000
# HELP dbsvec_attachment_candidates_total Unsampled points examined by the attachment pass.
# TYPE dbsvec_attachment_candidates_total counter
dbsvec_attachment_candidates_total 17
# HELP dbsvec_attached_points_total Attachment candidates that joined a cluster.
# TYPE dbsvec_attached_points_total counter
dbsvec_attached_points_total 16
# HELP dbsvec_assigns_total Assignments answered.
# TYPE dbsvec_assigns_total counter
dbsvec_assigns_total 19
# HELP dbsvec_assign_hits_total Assignments that landed in a cluster.
# TYPE dbsvec_assign_hits_total counter
dbsvec_assign_hits_total 18
# HELP dbsvec_ingests_total Observations ingested.
# TYPE dbsvec_ingests_total counter
dbsvec_ingests_total 21
# HELP dbsvec_ingest_duplicates_total Ingests dropped as exact duplicates.
# TYPE dbsvec_ingest_duplicates_total counter
dbsvec_ingest_duplicates_total 20
# HELP dbsvec_promotions_total Points promoted to core online.
# TYPE dbsvec_promotions_total counter
dbsvec_promotions_total 6
# HELP dbsvec_removals_total Tracked points removed online.
# TYPE dbsvec_removals_total counter
dbsvec_removals_total 22
# HELP dbsvec_remove_misses_total Removal requests for untracked points.
# TYPE dbsvec_remove_misses_total counter
dbsvec_remove_misses_total 23
# HELP dbsvec_demotions_total Cores demoted below MinPts by removals.
# TYPE dbsvec_demotions_total counter
dbsvec_demotions_total 7
# HELP dbsvec_splits_total Cluster splits repaired after removals.
# TYPE dbsvec_splits_total counter
dbsvec_splits_total 26
# HELP dbsvec_snapshot_writes_total Model snapshots serialized.
# TYPE dbsvec_snapshot_writes_total counter
dbsvec_snapshot_writes_total 4
# HELP dbsvec_snapshot_loads_total Model snapshots deserialized.
# TYPE dbsvec_snapshot_loads_total counter
dbsvec_snapshot_loads_total 5
# HELP dbsvec_quality_windows_total Quality-monitor tumbling windows completed.
# TYPE dbsvec_quality_windows_total counter
dbsvec_quality_windows_total 8
# HELP dbsvec_drift_alerts_total Windows whose smoothed drift score crossed the threshold.
# TYPE dbsvec_drift_alerts_total counter
dbsvec_drift_alerts_total 9
# HELP dbsvec_http_requests_total HTTP requests handled by the serving tier.
# TYPE dbsvec_http_requests_total counter
dbsvec_http_requests_total 25
# HELP dbsvec_http_errors_total HTTP requests answered with a 4xx/5xx status.
# TYPE dbsvec_http_errors_total counter
dbsvec_http_errors_total 24
# HELP dbsvec_max_target_size Largest target set any SVDD was trained on.
# TYPE dbsvec_max_target_size gauge
dbsvec_max_target_size 88
# HELP dbsvec_http_request_duration_seconds End-to-end HTTP request wall time, all endpoints.
# TYPE dbsvec_http_request_duration_seconds summary
dbsvec_http_request_duration_seconds{quantile=\"0.5\"} 0.001344
dbsvec_http_request_duration_seconds{quantile=\"0.95\"} 0.002432
dbsvec_http_request_duration_seconds{quantile=\"0.99\"} 0.0025
dbsvec_http_request_duration_seconds_sum 0.0325
dbsvec_http_request_duration_seconds_count 25
# HELP dbsvec_phase_init_seconds Wall-clock duration of init phase spans.
# TYPE dbsvec_phase_init_seconds summary
dbsvec_phase_init_seconds_sum 0
dbsvec_phase_init_seconds_count 0
# HELP dbsvec_phase_sv_expand_seconds Wall-clock duration of sv_expand phase spans.
# TYPE dbsvec_phase_sv_expand_seconds summary
dbsvec_phase_sv_expand_seconds_sum 0
dbsvec_phase_sv_expand_seconds_count 0
# HELP dbsvec_phase_svdd_train_seconds Wall-clock duration of svdd_train phase spans.
# TYPE dbsvec_phase_svdd_train_seconds summary
dbsvec_phase_svdd_train_seconds_sum 0
dbsvec_phase_svdd_train_seconds_count 0
# HELP dbsvec_phase_merge_seconds Wall-clock duration of merge phase spans.
# TYPE dbsvec_phase_merge_seconds summary
dbsvec_phase_merge_seconds_sum 0
dbsvec_phase_merge_seconds_count 0
# HELP dbsvec_phase_noise_verify_seconds Wall-clock duration of noise_verify phase spans.
# TYPE dbsvec_phase_noise_verify_seconds summary
dbsvec_phase_noise_verify_seconds_sum 0
dbsvec_phase_noise_verify_seconds_count 0
# HELP dbsvec_phase_serve_seconds Wall-clock duration of serve phase spans.
# TYPE dbsvec_phase_serve_seconds summary
dbsvec_phase_serve_seconds_sum 0
dbsvec_phase_serve_seconds_count 0
";
    assert_eq!(text, expected);
}
