//! The bridge between the trace seam and the metric registry.
//!
//! [`MetricsObserver`] implements [`Observer`], so any instrumentation
//! site that can stream a trace can feed steady-state metrics through the
//! *same* callbacks — one seam, two consumers. Events are folded into a
//! [`ReplayCounts`], and every counter is a view of one of its fields
//! through the `COUNTERS` table, so the registry cannot disagree with a
//! replay of the same stream. Phase spans map to per-phase duration
//! histograms, timed against the observer's own clock like every other
//! sink.

use std::time::Instant;

use crate::event::{Event, Phase};
use crate::observer::Observer;
use crate::replay::ReplayCounts;
use crate::telemetry::registry::{CounterId, GaugeId, HistogramId, Registry};

/// One counter: metric name, help text, and the [`ReplayCounts`] field it
/// exposes.
type CounterRow = (&'static str, &'static str, fn(&ReplayCounts) -> u64);

/// Every counter, in registration (and so exposition) order.
const COUNTERS: [CounterRow; 31] = [
    ("dbsvec_seeds_total", "Sub-clusters seeded.", |c| c.seeds),
    ("dbsvec_svdd_trainings_total", "SVDD SMO solves.", |c| {
        c.svdd_trainings
    }),
    (
        "dbsvec_support_vectors_total",
        "Support vectors produced, summed over expansion rounds.",
        |c| c.support_vectors,
    ),
    (
        "dbsvec_core_support_vectors_total",
        "Support vectors that passed the core test.",
        |c| c.core_support_vectors,
    ),
    ("dbsvec_merges_total", "Cluster unions.", |c| c.merges),
    (
        "dbsvec_noise_candidates_total",
        "Potential-noise points examined.",
        |c| c.noise_candidates,
    ),
    (
        "dbsvec_noise_confirmed_total",
        "Potential-noise points confirmed as noise.",
        |c| c.noise_confirmed,
    ),
    (
        "dbsvec_range_queries_total",
        "Epsilon-range queries issued.",
        |c| c.range_queries,
    ),
    (
        "dbsvec_expansion_rounds_total",
        "Support-vector expansion rounds completed.",
        |c| c.expansion_rounds,
    ),
    (
        "dbsvec_smo_iterations_total",
        "SMO iterations, summed over trainings.",
        |c| c.smo_iterations,
    ),
    (
        "dbsvec_warm_started_trainings_total",
        "SVDD trainings seeded from the previous round's multipliers.",
        |c| c.warm_started_trainings,
    ),
    (
        "dbsvec_iterations_exhausted_total",
        "SVDD trainings that hit the SMO iteration cap.",
        |c| c.iterations_exhausted,
    ),
    (
        "dbsvec_initial_kkt_violation_e6_total",
        "Initial KKT violations in microunits, summed over trainings.",
        |c| c.initial_kkt_violation_e6,
    ),
    (
        "dbsvec_sampled_candidates_total",
        "Core candidates drawn by sampled fits.",
        |c| c.sampled_candidates,
    ),
    (
        "dbsvec_attachment_candidates_total",
        "Unsampled points examined by the attachment pass.",
        |c| c.attachment_candidates,
    ),
    (
        "dbsvec_attached_points_total",
        "Attachment candidates that joined a cluster.",
        |c| c.attached_points,
    ),
    ("dbsvec_assigns_total", "Assignments answered.", |c| {
        c.assigns
    }),
    (
        "dbsvec_assign_hits_total",
        "Assignments that landed in a cluster.",
        |c| c.assign_hits,
    ),
    ("dbsvec_ingests_total", "Observations ingested.", |c| {
        c.ingests
    }),
    (
        "dbsvec_ingest_duplicates_total",
        "Ingests dropped as exact duplicates.",
        |c| c.ingest_duplicates,
    ),
    (
        "dbsvec_promotions_total",
        "Points promoted to core online.",
        |c| c.promotions,
    ),
    (
        "dbsvec_removals_total",
        "Tracked points removed online.",
        |c| c.removals,
    ),
    (
        "dbsvec_remove_misses_total",
        "Removal requests for untracked points.",
        |c| c.remove_misses,
    ),
    (
        "dbsvec_demotions_total",
        "Cores demoted below MinPts by removals.",
        |c| c.demotions,
    ),
    (
        "dbsvec_splits_total",
        "Cluster splits repaired after removals.",
        |c| c.splits,
    ),
    (
        "dbsvec_snapshot_writes_total",
        "Model snapshots serialized.",
        |c| c.snapshot_writes,
    ),
    (
        "dbsvec_snapshot_loads_total",
        "Model snapshots deserialized.",
        |c| c.snapshot_loads,
    ),
    (
        "dbsvec_quality_windows_total",
        "Quality-monitor tumbling windows completed.",
        |c| c.quality_windows,
    ),
    (
        "dbsvec_drift_alerts_total",
        "Windows whose smoothed drift score crossed the threshold.",
        |c| c.drift_alerts,
    ),
    (
        "dbsvec_http_requests_total",
        "HTTP requests handled by the serving tier.",
        |c| c.http_requests,
    ),
    (
        "dbsvec_http_errors_total",
        "HTTP requests answered with a 4xx/5xx status.",
        |c| c.http_errors,
    ),
];

/// An [`Observer`] that folds events into registry counters and phase
/// spans into per-phase latency histograms.
#[derive(Debug)]
pub struct MetricsObserver {
    registry: Registry,
    /// The fold every counter (and the max-target gauge) reads.
    counts: ReplayCounts,
    /// Registry ids of [`COUNTERS`], same order.
    counters: [CounterId; COUNTERS.len()],
    /// Largest SVDD target set seen (a high-water mark, so a gauge).
    max_target_size: GaugeId,
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
        let counters = COUNTERS.map(|(name, help, _)| reg.counter(name, help));
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
            counts: ReplayCounts::default(),
            counters,
            max_target_size,
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
        self.counts.record(event);
        for (&id, (_, _, field)) in self.counters.iter().zip(&COUNTERS) {
            self.registry.set_counter(id, field(&self.counts));
        }
        self.registry
            .set(self.max_target_size, self.counts.max_target_size as f64);
        if let Event::HttpRequest { duration_us, .. } = event {
            self.registry.observe(self.http_duration, *duration_us);
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
