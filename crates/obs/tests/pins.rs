//! Byte pins for the jsonl wire text of every [`Event`] variant.
//!
//! Trace files on disk are a contract with readers outside this crate, so
//! any change to a field name or a field order must show up here as a
//! failing diff. The Prometheus texts the serving metrics render are
//! pinned where they are built: `dbsvec-engine`'s `metrics_exposition`
//! test and the server's `http_exposition_is_pinned`.

use dbsvec_obs::jsonl::event_to_json;
use dbsvec_obs::replay::event_from_json;
use dbsvec_obs::{Event, HttpStages};

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
