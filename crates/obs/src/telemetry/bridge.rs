//! The bridge between the trace seam and the metric registry.
//!
//! [`MetricsObserver`] implements [`Observer`], so any instrumentation
//! site that can stream a trace can feed steady-state metrics through the
//! *same* callbacks — one seam, two consumers. Events map to counters
//! mirroring [`ReplayCounts`](crate::ReplayCounts) field for field (the
//! round-trip test in `tests/telemetry.rs` pins that equivalence), and
//! phase spans map to per-phase duration histograms, timed against the
//! observer's own clock like every other sink.

use std::time::Instant;

use crate::event::{Event, Phase};
use crate::observer::Observer;
use crate::telemetry::registry::{CounterId, GaugeId, HistogramId, Registry};

/// Counter ids in [`ReplayCounts`](crate::ReplayCounts) field order.
#[derive(Clone, Copy, Debug)]
struct EventCounters {
    seeds: CounterId,
    svdd_trainings: CounterId,
    support_vectors: CounterId,
    core_support_vectors: CounterId,
    merges: CounterId,
    noise_candidates: CounterId,
    noise_confirmed: CounterId,
    range_queries: CounterId,
    expansion_rounds: CounterId,
    smo_iterations: CounterId,
    warm_started_trainings: CounterId,
    iterations_exhausted: CounterId,
    initial_kkt_violation_e6: CounterId,
    sampled_candidates: CounterId,
    attachment_candidates: CounterId,
    attached_points: CounterId,
    assigns: CounterId,
    assign_hits: CounterId,
    ingests: CounterId,
    ingest_duplicates: CounterId,
    promotions: CounterId,
    removals: CounterId,
    remove_misses: CounterId,
    demotions: CounterId,
    splits: CounterId,
    snapshot_writes: CounterId,
    snapshot_loads: CounterId,
    quality_windows: CounterId,
    drift_alerts: CounterId,
    http_requests: CounterId,
    http_errors: CounterId,
}

/// An [`Observer`] that folds events into registry counters and phase
/// spans into per-phase latency histograms.
#[derive(Debug)]
pub struct MetricsObserver {
    registry: Registry,
    counters: EventCounters,
    /// Largest SVDD target set seen (a high-water mark, so a gauge).
    max_target_size: GaugeId,
    max_target_seen: usize,
    /// End-to-end HTTP request durations (all endpoints), seconds.
    http_duration: HistogramId,
    /// One duration histogram per [`Phase::ALL`] entry, same order.
    phase_hists: [HistogramId; Phase::ALL.len()],
    /// Open spans: `(phase, entered_at)`, LIFO like the trace discipline.
    stack: Vec<(Phase, Instant)>,
}

impl Default for MetricsObserver {
    fn default() -> Self {
        Self::new()
    }
}

impl MetricsObserver {
    /// Creates the observer with every metric pre-registered under
    /// `dbsvec_*` names.
    pub fn new() -> Self {
        let mut reg = Registry::new();
        let c = |reg: &mut Registry, name: &str, help: &str| reg.counter(name, help);
        let counters = EventCounters {
            seeds: c(&mut reg, "dbsvec_seeds_total", "Sub-clusters seeded."),
            svdd_trainings: c(&mut reg, "dbsvec_svdd_trainings_total", "SVDD SMO solves."),
            support_vectors: c(
                &mut reg,
                "dbsvec_support_vectors_total",
                "Support vectors produced, summed over expansion rounds.",
            ),
            core_support_vectors: c(
                &mut reg,
                "dbsvec_core_support_vectors_total",
                "Support vectors that passed the core test.",
            ),
            merges: c(&mut reg, "dbsvec_merges_total", "Cluster unions."),
            noise_candidates: c(
                &mut reg,
                "dbsvec_noise_candidates_total",
                "Potential-noise points examined.",
            ),
            noise_confirmed: c(
                &mut reg,
                "dbsvec_noise_confirmed_total",
                "Potential-noise points confirmed as noise.",
            ),
            range_queries: c(
                &mut reg,
                "dbsvec_range_queries_total",
                "Epsilon-range queries issued.",
            ),
            expansion_rounds: c(
                &mut reg,
                "dbsvec_expansion_rounds_total",
                "Support-vector expansion rounds completed.",
            ),
            smo_iterations: c(
                &mut reg,
                "dbsvec_smo_iterations_total",
                "SMO iterations, summed over trainings.",
            ),
            warm_started_trainings: c(
                &mut reg,
                "dbsvec_warm_started_trainings_total",
                "SVDD trainings seeded from the previous round's multipliers.",
            ),
            iterations_exhausted: c(
                &mut reg,
                "dbsvec_iterations_exhausted_total",
                "SVDD trainings that hit the SMO iteration cap.",
            ),
            initial_kkt_violation_e6: c(
                &mut reg,
                "dbsvec_initial_kkt_violation_e6_total",
                "Initial KKT violations in microunits, summed over trainings.",
            ),
            sampled_candidates: c(
                &mut reg,
                "dbsvec_sampled_candidates_total",
                "Core candidates drawn by sampled fits.",
            ),
            attachment_candidates: c(
                &mut reg,
                "dbsvec_attachment_candidates_total",
                "Unsampled points examined by the attachment pass.",
            ),
            attached_points: c(
                &mut reg,
                "dbsvec_attached_points_total",
                "Attachment candidates that joined a cluster.",
            ),
            assigns: c(&mut reg, "dbsvec_assigns_total", "Assignments answered."),
            assign_hits: c(
                &mut reg,
                "dbsvec_assign_hits_total",
                "Assignments that landed in a cluster.",
            ),
            ingests: c(&mut reg, "dbsvec_ingests_total", "Observations ingested."),
            ingest_duplicates: c(
                &mut reg,
                "dbsvec_ingest_duplicates_total",
                "Ingests dropped as exact duplicates.",
            ),
            promotions: c(
                &mut reg,
                "dbsvec_promotions_total",
                "Points promoted to core online.",
            ),
            removals: c(
                &mut reg,
                "dbsvec_removals_total",
                "Tracked points removed online.",
            ),
            remove_misses: c(
                &mut reg,
                "dbsvec_remove_misses_total",
                "Removal requests for untracked points.",
            ),
            demotions: c(
                &mut reg,
                "dbsvec_demotions_total",
                "Cores demoted below MinPts by removals.",
            ),
            splits: c(
                &mut reg,
                "dbsvec_splits_total",
                "Cluster splits repaired after removals.",
            ),
            snapshot_writes: c(
                &mut reg,
                "dbsvec_snapshot_writes_total",
                "Model snapshots serialized.",
            ),
            snapshot_loads: c(
                &mut reg,
                "dbsvec_snapshot_loads_total",
                "Model snapshots deserialized.",
            ),
            quality_windows: c(
                &mut reg,
                "dbsvec_quality_windows_total",
                "Quality-monitor tumbling windows completed.",
            ),
            drift_alerts: c(
                &mut reg,
                "dbsvec_drift_alerts_total",
                "Windows whose smoothed drift score crossed the threshold.",
            ),
            http_requests: c(
                &mut reg,
                "dbsvec_http_requests_total",
                "HTTP requests handled by the serving tier.",
            ),
            http_errors: c(
                &mut reg,
                "dbsvec_http_errors_total",
                "HTTP requests answered with a 4xx/5xx status.",
            ),
        };
        let max_target_size = reg.gauge(
            "dbsvec_max_target_size",
            "Largest target set any SVDD was trained on.",
        );
        let http_duration = reg.histogram(
            "dbsvec_http_request_duration_seconds",
            "End-to-end HTTP request wall time, all endpoints.",
            1e6,
        );
        let phase_hists = Phase::ALL.map(|p| {
            reg.histogram(
                &format!("dbsvec_phase_{}_seconds", p.name()),
                &format!("Wall-clock duration of {} phase spans.", p.name()),
                1e9,
            )
        });
        Self {
            registry: reg,
            counters,
            max_target_size,
            max_target_seen: 0,
            http_duration,
            phase_hists,
            stack: Vec::new(),
        }
    }

    /// The registry the observer writes into.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Mutable access (to register or update additional metrics).
    pub fn registry_mut(&mut self) -> &mut Registry {
        &mut self.registry
    }

    /// Consumes the observer, returning the registry.
    pub fn into_registry(self) -> Registry {
        self.registry
    }

    fn observe_max_target(&mut self, target_size: usize) {
        if target_size > self.max_target_seen {
            self.max_target_seen = target_size;
            self.registry.set(self.max_target_size, target_size as f64);
        }
    }
}

impl Observer for MetricsObserver {
    fn span_enter(&mut self, phase: Phase) {
        self.stack.push((phase, Instant::now()));
    }

    fn span_exit(&mut self, phase: Phase) {
        let (entered, start) = self.stack.pop().expect("span exit without matching enter");
        debug_assert_eq!(entered, phase, "span exit out of LIFO order");
        let i = Phase::ALL
            .iter()
            .position(|&p| p == phase)
            .expect("every phase is in Phase::ALL");
        self.registry
            .observe_duration(self.phase_hists[i], start.elapsed());
    }

    fn event(&mut self, event: &Event) {
        let c = self.counters;
        match event {
            Event::Seed { .. } => self.registry.inc(c.seeds),
            Event::RangeQuery { .. } => self.registry.inc(c.range_queries),
            Event::SmoSolve {
                target_size,
                iterations,
                warm_started,
                converged,
                initial_kkt_violation_e6,
                ..
            } => {
                self.registry.inc(c.svdd_trainings);
                self.registry.add(c.smo_iterations, *iterations as u64);
                self.registry
                    .add(c.warm_started_trainings, *warm_started as u64);
                self.registry
                    .add(c.iterations_exhausted, !*converged as u64);
                self.registry
                    .add(c.initial_kkt_violation_e6, *initial_kkt_violation_e6);
                self.observe_max_target(*target_size);
            }
            Event::ExpansionRound {
                target_size,
                n_sv,
                n_core_sv,
                ..
            } => {
                self.registry.inc(c.expansion_rounds);
                self.registry.add(c.support_vectors, *n_sv as u64);
                self.registry.add(c.core_support_vectors, *n_core_sv as u64);
                self.observe_max_target(*target_size);
            }
            Event::Merge { .. } => self.registry.inc(c.merges),
            Event::NoiseVerdict { confirmed, .. } => {
                self.registry.inc(c.noise_candidates);
                if *confirmed {
                    self.registry.inc(c.noise_confirmed);
                }
            }
            Event::Sample { candidates, .. } => {
                self.registry.add(c.sampled_candidates, *candidates as u64)
            }
            Event::Attach { attached, .. } => {
                self.registry.inc(c.attachment_candidates);
                if *attached {
                    self.registry.inc(c.attached_points);
                }
            }
            Event::Assign { hit } => {
                self.registry.inc(c.assigns);
                if *hit {
                    self.registry.inc(c.assign_hits);
                }
            }
            Event::Ingest { duplicate, .. } => {
                self.registry.inc(c.ingests);
                if *duplicate {
                    self.registry.inc(c.ingest_duplicates);
                }
            }
            Event::Promote { .. } => self.registry.inc(c.promotions),
            Event::Remove { found, .. } => {
                if *found {
                    self.registry.inc(c.removals);
                } else {
                    self.registry.inc(c.remove_misses);
                }
            }
            Event::Demote { .. } => self.registry.inc(c.demotions),
            Event::Split { pieces } => self
                .registry
                .add(c.splits, (*pieces as u64).saturating_sub(1)),
            Event::SnapshotWrite { .. } => self.registry.inc(c.snapshot_writes),
            Event::SnapshotLoad { .. } => self.registry.inc(c.snapshot_loads),
            Event::QualityWindow { .. } => self.registry.inc(c.quality_windows),
            Event::DriftAlert { .. } => self.registry.inc(c.drift_alerts),
            Event::HttpRequest {
                status,
                duration_us,
                ..
            } => {
                self.registry.inc(c.http_requests);
                if *status >= 400 {
                    self.registry.inc(c.http_errors);
                }
                let hist = self.http_duration;
                self.registry.observe(hist, *duration_us);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_land_in_the_matching_counters() {
        let mut m = MetricsObserver::new();
        m.event(&Event::RangeQuery {
            probe: 0,
            result_len: 3,
        });
        m.event(&Event::Assign { hit: true });
        m.event(&Event::Assign { hit: false });
        m.event(&Event::Sample {
            candidates: 30,
            total: 100,
            rate_e6: 300_000,
        });
        m.event(&Event::Attach {
            point: 5,
            attached: true,
        });
        m.event(&Event::Attach {
            point: 6,
            attached: false,
        });
        m.event(&Event::SmoSolve {
            target_size: 40,
            iterations: 17,
            cache_hits: 0,
            cache_misses: 0,
            warm_started: true,
            converged: false,
            initial_kkt_violation_e6: 250,
        });
        let reg = m.registry();
        assert_eq!(reg.counter_value("dbsvec_range_queries_total"), Some(1));
        assert_eq!(reg.counter_value("dbsvec_assigns_total"), Some(2));
        assert_eq!(reg.counter_value("dbsvec_assign_hits_total"), Some(1));
        assert_eq!(reg.counter_value("dbsvec_smo_iterations_total"), Some(17));
        assert_eq!(
            reg.counter_value("dbsvec_warm_started_trainings_total"),
            Some(1)
        );
        assert_eq!(
            reg.counter_value("dbsvec_iterations_exhausted_total"),
            Some(1)
        );
        assert_eq!(
            reg.counter_value("dbsvec_initial_kkt_violation_e6_total"),
            Some(250)
        );
        assert_eq!(reg.gauge_value("dbsvec_max_target_size"), Some(40.0));
        assert_eq!(
            reg.counter_value("dbsvec_sampled_candidates_total"),
            Some(30)
        );
        assert_eq!(
            reg.counter_value("dbsvec_attachment_candidates_total"),
            Some(2)
        );
        assert_eq!(reg.counter_value("dbsvec_attached_points_total"), Some(1));
    }

    #[test]
    fn spans_fill_the_per_phase_histograms() {
        let mut m = MetricsObserver::new();
        m.span_enter(Phase::Serve);
        m.span_enter(Phase::Init);
        m.span_exit(Phase::Init);
        m.span_exit(Phase::Serve);
        let reg = m.into_registry();
        let serve = reg
            .histogram_by_name("dbsvec_phase_serve_seconds")
            .unwrap()
            .histogram();
        assert_eq!(serve.count(), 1);
        let init = reg
            .histogram_by_name("dbsvec_phase_init_seconds")
            .unwrap()
            .histogram();
        assert_eq!(init.count(), 1);
        assert_eq!(
            reg.histogram_by_name("dbsvec_phase_merge_seconds")
                .unwrap()
                .histogram()
                .count(),
            0
        );
    }
}
