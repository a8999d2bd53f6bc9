//! Replay: fold a recorded event stream back into the run's cost counters.
//!
//! [`ReplayCounts::record`] is the one place an [`Event`] becomes counts.
//! The fit and the serving engine fold every event they emit through it,
//! and build `DbsvecStats` and `EngineStats` from that fold; the engine's
//! `EngineMetrics` counters show `EngineStats`. A trace is
//! therefore *complete* iff replaying it reproduces the run's stats, field
//! for field — `tests/` and the CLI's `--profile` path both check this.

use crate::event::Event;
use crate::json::{self, Json};

/// Cost counters reconstructed from an event stream.
///
/// Every counter the workspace reports is a view of this fold:
/// `dbsvec_core::stats::DbsvecStats` holds its fit fields, and the serving
/// engine's `EngineStats` its serving fields.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ReplayCounts {
    /// Sub-clusters seeded (count of [`Event::Seed`]).
    pub seeds: u64,
    /// SVDD trainings (count of [`Event::SmoSolve`]).
    pub svdd_trainings: u64,
    /// Support vectors produced, summed over rounds.
    pub support_vectors: u64,
    /// Support vectors that passed the core test, summed over rounds.
    pub core_support_vectors: u64,
    /// Cluster unions (count of [`Event::Merge`]).
    pub merges: u64,
    /// Potential-noise points examined (count of [`Event::NoiseVerdict`]).
    pub noise_candidates: u64,
    /// Of those, confirmed noise (`confirmed == true`).
    pub noise_confirmed: u64,
    /// ε-range queries issued (count of [`Event::RangeQuery`]).
    pub range_queries: u64,
    /// Expansion rounds completed (count of [`Event::ExpansionRound`]).
    pub expansion_rounds: u64,
    /// Largest target set ñ any SVDD was trained on.
    pub max_target_size: usize,
    /// SMO iterations, summed over trainings.
    pub smo_iterations: u64,
    /// Warm-started trainings (`warm_started == true` on [`Event::SmoSolve`]).
    pub warm_started_trainings: u64,
    /// Trainings that exhausted their iteration cap (`converged == false`).
    pub iterations_exhausted: u64,
    /// Initial KKT violations in fixed-point microunits, summed over
    /// trainings.
    pub initial_kkt_violation_e6: u64,
    /// Core candidates drawn by a sampled fit (the `candidates` field of
    /// [`Event::Sample`]; 0 on exact fits).
    pub sampled_candidates: u64,
    /// Unsampled points examined by the attachment pass (count of
    /// [`Event::Attach`]).
    pub attachment_candidates: u64,
    /// Of those, points attached to a cluster (`attached == true`).
    pub attached_points: u64,
    /// Serving: assignments answered (count of [`Event::Assign`]).
    pub assigns: u64,
    /// Of those, assignments that landed in a cluster (`hit == true`).
    pub assign_hits: u64,
    /// Serving: observations ingested (count of [`Event::Ingest`]).
    pub ingests: u64,
    /// Of those, exact duplicates of already-tracked points.
    pub ingest_duplicates: u64,
    /// Serving: online core promotions (count of [`Event::Promote`]).
    pub promotions: u64,
    /// Serving: tracked points removed ([`Event::Remove`] with
    /// `found == true`).
    pub removals: u64,
    /// Removal requests for untracked points ([`Event::Remove`] with
    /// `found == false`).
    pub remove_misses: u64,
    /// Cores demoted below MinPts by removals (count of
    /// [`Event::Demote`]).
    pub demotions: u64,
    /// Cluster splits repaired after removals: the sum of `pieces - 1`
    /// over [`Event::Split`] events.
    pub splits: u64,
    /// Model snapshots written (count of [`Event::SnapshotWrite`]).
    pub snapshot_writes: u64,
    /// Model snapshots loaded (count of [`Event::SnapshotLoad`]).
    pub snapshot_loads: u64,
    /// Quality windows completed (count of [`Event::QualityWindow`]).
    pub quality_windows: u64,
    /// Drift alerts raised (count of [`Event::DriftAlert`]).
    pub drift_alerts: u64,
    /// HTTP requests handled (count of [`Event::HttpRequest`]).
    pub http_requests: u64,
    /// Of those, requests answered with a 4xx/5xx status.
    pub http_errors: u64,
    /// End-to-end HTTP wall time, summed over requests, in microseconds.
    pub http_duration_us: u64,
}

impl ReplayCounts {
    /// Folds one event into the counters.
    pub fn record(&mut self, event: &Event) {
        match event {
            Event::Seed { .. } => self.seeds += 1,
            Event::RangeQuery { .. } => self.range_queries += 1,
            Event::SmoSolve {
                target_size,
                iterations,
                warm_started,
                converged,
                initial_kkt_violation_e6,
                ..
            } => {
                self.svdd_trainings += 1;
                self.smo_iterations += *iterations as u64;
                self.max_target_size = self.max_target_size.max(*target_size);
                self.warm_started_trainings += *warm_started as u64;
                self.iterations_exhausted += !*converged as u64;
                self.initial_kkt_violation_e6 += *initial_kkt_violation_e6;
            }
            Event::ExpansionRound {
                target_size,
                n_sv,
                n_core_sv,
                ..
            } => {
                self.expansion_rounds += 1;
                self.support_vectors += *n_sv as u64;
                self.core_support_vectors += *n_core_sv as u64;
                self.max_target_size = self.max_target_size.max(*target_size);
            }
            Event::Merge { .. } => self.merges += 1,
            Event::NoiseVerdict { confirmed, .. } => {
                self.noise_candidates += 1;
                if *confirmed {
                    self.noise_confirmed += 1;
                }
            }
            Event::Sample { candidates, .. } => self.sampled_candidates += *candidates as u64,
            Event::Attach { attached, .. } => {
                self.attachment_candidates += 1;
                if *attached {
                    self.attached_points += 1;
                }
            }
            Event::Assign { hit } => {
                self.assigns += 1;
                if *hit {
                    self.assign_hits += 1;
                }
            }
            Event::Ingest { duplicate, .. } => {
                self.ingests += 1;
                if *duplicate {
                    self.ingest_duplicates += 1;
                }
            }
            Event::Promote { .. } => self.promotions += 1,
            Event::Remove { found, .. } => {
                if *found {
                    self.removals += 1;
                } else {
                    self.remove_misses += 1;
                }
            }
            Event::Demote { .. } => self.demotions += 1,
            Event::Split { pieces } => self.splits += (*pieces as u64).saturating_sub(1),
            Event::SnapshotWrite { .. } => self.snapshot_writes += 1,
            Event::SnapshotLoad { .. } => self.snapshot_loads += 1,
            Event::QualityWindow { .. } => self.quality_windows += 1,
            Event::DriftAlert { .. } => self.drift_alerts += 1,
            Event::HttpRequest {
                status,
                duration_us,
                ..
            } => {
                self.http_requests += 1;
                if *status >= 400 {
                    self.http_errors += 1;
                }
                self.http_duration_us += *duration_us;
            }
        }
    }

    /// Builds counters from an event stream.
    pub fn from_events<'a>(events: impl IntoIterator<Item = &'a Event>) -> Self {
        let mut counts = Self::default();
        for e in events {
            counts.record(e);
        }
        counts
    }

    /// Builds counters from JSONL trace text (as written by
    /// [`crate::JsonlSink`]). Every line must be valid JSON with a `kind`
    /// of `enter`, `exit` or `event`; `kind:"event"` lines must decode to a
    /// known event. Span lines are skipped.
    pub fn from_jsonl(text: &str) -> Result<Self, String> {
        let mut counts = Self::default();
        for (lineno, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let at = |e: String| format!("line {}: {e}", lineno + 1);
            let value = json::parse(line).map_err(at)?;
            match value.get("kind") {
                Some(Json::Str(k)) if k == "event" => {
                    counts.record(&event_from_json(&value).map_err(at)?)
                }
                Some(Json::Str(k)) if k == "enter" || k == "exit" => {}
                Some(other) => return Err(at(format!("unknown kind {other}"))),
                None => return Err(at("missing \"kind\"".to_string())),
            }
        }
        Ok(counts)
    }

    /// The query-cost ratio θ = range_queries / n.
    pub fn theta(&self, n: usize) -> f64 {
        if n == 0 {
            0.0
        } else {
            self.range_queries as f64 / n as f64
        }
    }
}

/// Decodes one `kind:"event"` trace object back into an [`Event`]
/// (inverse of [`crate::jsonl::event_to_json`]).
pub fn event_from_json(value: &Json) -> Result<Event, String> {
    match value.get("event") {
        Some(Json::Str(name)) => Event::decode_fields(name, value),
        _ => Err("missing \"event\" name".to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_every_variant() {
        let events = [
            Event::Seed {
                point: 0,
                neighborhood_len: 9,
            },
            Event::RangeQuery {
                probe: 1,
                result_len: 4,
            },
            Event::RangeQuery {
                probe: 2,
                result_len: 0,
            },
            Event::SmoSolve {
                target_size: 40,
                iterations: 17,
                cache_hits: 100,
                cache_misses: 8,
                warm_started: false,
                converged: true,
                initial_kkt_violation_e6: 1_500_000,
            },
            Event::ExpansionRound {
                cluster: 0,
                round: 1,
                target_size: 40,
                n_sv: 6,
                n_core_sv: 5,
                smo_iters: 17,
            },
            Event::SmoSolve {
                target_size: 72,
                iterations: 23,
                cache_hits: 50,
                cache_misses: 2,
                warm_started: true,
                converged: false,
                initial_kkt_violation_e6: 420,
            },
            Event::ExpansionRound {
                cluster: 0,
                round: 2,
                target_size: 72,
                n_sv: 8,
                n_core_sv: 4,
                smo_iters: 23,
            },
            Event::Merge {
                existing: 0,
                expanding: 1,
            },
            Event::NoiseVerdict {
                point: 9,
                confirmed: true,
            },
            Event::NoiseVerdict {
                point: 10,
                confirmed: false,
            },
            Event::Sample {
                candidates: 120,
                total: 400,
                rate_e6: 300_000,
            },
            Event::Attach {
                point: 11,
                attached: true,
            },
            Event::Attach {
                point: 12,
                attached: false,
            },
            Event::Attach {
                point: 13,
                attached: true,
            },
        ];
        let c = ReplayCounts::from_events(events.iter());
        assert_eq!(c.seeds, 1);
        assert_eq!(c.range_queries, 2);
        assert_eq!(c.svdd_trainings, 2);
        assert_eq!(c.smo_iterations, 40);
        assert_eq!(c.warm_started_trainings, 1);
        assert_eq!(c.iterations_exhausted, 1);
        assert_eq!(c.initial_kkt_violation_e6, 1_500_420);
        assert_eq!(c.expansion_rounds, 2);
        assert_eq!(c.support_vectors, 14);
        assert_eq!(c.core_support_vectors, 9);
        assert_eq!(c.max_target_size, 72);
        assert_eq!(c.merges, 1);
        assert_eq!(c.noise_candidates, 2);
        assert_eq!(c.noise_confirmed, 1);
        assert_eq!(c.sampled_candidates, 120);
        assert_eq!(c.attachment_candidates, 3);
        assert_eq!(c.attached_points, 2);
        assert!((c.theta(20) - 0.1).abs() < 1e-12);
    }

    #[test]
    fn counts_serving_variants() {
        let events = [
            Event::Assign { hit: true },
            Event::Assign { hit: false },
            Event::Ingest {
                core: true,
                duplicate: false,
            },
            Event::Ingest {
                core: false,
                duplicate: true,
            },
            Event::Promote { cluster: 1 },
            Event::Remove {
                core: true,
                found: true,
            },
            Event::Remove {
                core: false,
                found: true,
            },
            Event::Remove {
                core: false,
                found: false,
            },
            Event::Demote { cluster: 0 },
            Event::Split { pieces: 3 },
            Event::SnapshotWrite { bytes: 128 },
            Event::SnapshotLoad { bytes: 128 },
            Event::QualityWindow {
                window: 1,
                samples: 256,
                drift_score_e6: 480_000,
                hist_distance_e6: 480_000,
                occupancy_shift_e6: 90_000,
                noise_delta_e6: 12_000,
                baseline: true,
            },
            Event::DriftAlert {
                window: 1,
                drift_score_e6: 480_000,
                threshold_e6: 350_000,
            },
            Event::HttpRequest {
                endpoint: "assign".to_string(),
                status: 200,
                points: 1,
                request_id: 1,
                duration_us: 750,
                stages: crate::event::HttpStages {
                    queue_us: 20,
                    parse_us: 100,
                    route_us: 5,
                    lock_us: 10,
                    engine_us: 500,
                    serialize_us: 45,
                    write_us: 70,
                },
            },
            Event::HttpRequest {
                endpoint: "error".to_string(),
                status: 400,
                points: 0,
                request_id: 2,
                duration_us: 90,
                stages: crate::event::HttpStages {
                    parse_us: 60,
                    write_us: 30,
                    ..Default::default()
                },
            },
        ];
        let c = ReplayCounts::from_events(events.iter());
        assert_eq!(c.assigns, 2);
        assert_eq!(c.assign_hits, 1);
        assert_eq!(c.ingests, 2);
        assert_eq!(c.ingest_duplicates, 1);
        assert_eq!(c.promotions, 1);
        assert_eq!(c.removals, 2);
        assert_eq!(c.remove_misses, 1);
        assert_eq!(c.demotions, 1);
        assert_eq!(c.splits, 2, "a 3-piece split counts as two splits");
        assert_eq!(c.snapshot_writes, 1);
        assert_eq!(c.snapshot_loads, 1);
        assert_eq!(c.quality_windows, 1);
        assert_eq!(c.drift_alerts, 1);
        assert_eq!(c.http_requests, 2);
        assert_eq!(c.http_errors, 1);
        assert_eq!(c.http_duration_us, 840);
        // Fit counters untouched by serving traffic.
        assert_eq!(c.seeds, 0);
        assert_eq!(c.range_queries, 0);
    }

    #[test]
    fn jsonl_round_trip_matches_direct_counts() {
        use crate::jsonl::event_to_json;

        let events = [
            Event::RangeQuery {
                probe: 7,
                result_len: 3,
            },
            Event::SmoSolve {
                target_size: 15,
                iterations: 4,
                cache_hits: 9,
                cache_misses: 6,
                warm_started: true,
                converged: true,
                initial_kkt_violation_e6: 77,
            },
            Event::Merge {
                existing: 2,
                expanding: 5,
            },
            Event::NoiseVerdict {
                point: 11,
                confirmed: false,
            },
            Event::Sample {
                candidates: 64,
                total: 256,
                rate_e6: 250_000,
            },
            Event::Attach {
                point: 19,
                attached: false,
            },
            Event::Remove {
                core: true,
                found: true,
            },
            Event::Demote { cluster: 4 },
            Event::Split { pieces: 2 },
            Event::QualityWindow {
                window: 3,
                samples: 512,
                drift_score_e6: 150_000,
                hist_distance_e6: 150_000,
                occupancy_shift_e6: 20_000,
                noise_delta_e6: 5_000,
                baseline: true,
            },
            Event::DriftAlert {
                window: 3,
                drift_score_e6: 150_000,
                threshold_e6: 100_000,
            },
            Event::HttpRequest {
                endpoint: "ingest".to_string(),
                status: 503,
                points: 4,
                request_id: 9,
                duration_us: 1_100,
                stages: crate::event::HttpStages {
                    queue_us: 300,
                    parse_us: 400,
                    route_us: 2,
                    lock_us: 8,
                    engine_us: 250,
                    serialize_us: 40,
                    write_us: 100,
                },
            },
        ];
        let mut text = String::new();
        // A span line mixed in must be skipped, not rejected.
        text.push_str("{\"t\":0.0,\"kind\":\"enter\",\"phase\":\"init\"}\n");
        for e in &events {
            let mut obj = vec![
                ("t".to_string(), Json::Num(0.5)),
                ("kind".to_string(), Json::str("event")),
            ];
            if let Json::Obj(fields) = event_to_json(e) {
                obj.extend(fields);
            }
            text.push_str(&Json::Obj(obj).to_string());
            text.push('\n');
        }
        let replayed = ReplayCounts::from_jsonl(&text).expect("valid trace");
        assert_eq!(replayed, ReplayCounts::from_events(events.iter()));
    }

    #[test]
    fn jsonl_rejects_bad_lines() {
        assert!(ReplayCounts::from_jsonl("not json\n").is_err());
        assert!(ReplayCounts::from_jsonl("{\"no_kind\":1}\n").is_err());
        assert!(ReplayCounts::from_jsonl("{\"kind\":\"event\",\"event\":\"mystery\"}\n").is_err());
        // A corrupted kind must not be skipped like a span line.
        let typo = "{\"kind\":\"enter\",\"phase\":\"init\"}\n\
                    {\"kind\":\"evnt\",\"event\":\"range_query\",\"probe\":1,\"result_len\":2}\n";
        let err = ReplayCounts::from_jsonl(typo).unwrap_err();
        assert!(err.starts_with("line 2:"), "{err}");
        assert!(ReplayCounts::from_jsonl(
            "{\"kind\":\"event\",\"event\":\"range_query\",\"probe\":1}\n"
        )
        .is_err());
    }

    #[test]
    fn smo_solve_lines_from_older_traces_still_replay() {
        // Traces written while the solver had active-set shrinking carry a
        // `shrunk` field on every solve; it is ignored.
        let line = "{\"t\":0.5,\"kind\":\"event\",\"event\":\"smo_solve\",\
                    \"target_size\":15,\"iterations\":4,\"cache_hits\":9,\
                    \"cache_misses\":6,\"warm_started\":true,\"converged\":false,\
                    \"shrunk\":2,\"initial_kkt_violation_e6\":77}\n";
        let replayed = ReplayCounts::from_jsonl(line).expect("an older trace line");
        let solve = Event::SmoSolve {
            target_size: 15,
            iterations: 4,
            cache_hits: 9,
            cache_misses: 6,
            warm_started: true,
            converged: false,
            initial_kkt_violation_e6: 77,
        };
        assert_eq!(replayed, ReplayCounts::from_events([&solve]));
        assert_eq!(replayed.svdd_trainings, 1);
    }
}
