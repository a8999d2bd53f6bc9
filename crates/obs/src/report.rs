//! The human-readable `--profile` report: phase times + θ breakdown.

use std::fmt;
use std::time::Duration;

use crate::event::{Event, Phase};
use crate::recording::{PhaseTimings, Record, RecordingObserver};
use crate::replay::ReplayCounts;

/// A finished run's profile: per-phase wall-clock plus the replayed cost
/// counters, rendered as the table the CLI prints under `--profile`.
#[derive(Clone, Debug)]
pub struct ProfileReport {
    /// Dataset size the run clustered (for θ).
    pub n: usize,
    /// Per-phase timings in [`Phase::ALL`] order (phases that never ran
    /// report zeros).
    pub phases: Vec<(Phase, PhaseTimings)>,
    /// The counters replayed from the recorded events.
    pub counts: ReplayCounts,
    /// The fit's index build, from the [`Event::IndexBuilt`] that ends it:
    /// (points, nodes, time since the record before the event, the `init`
    /// enter).
    pub index_build: Option<(usize, usize, Duration)>,
    /// The sampled fit's candidate draw, from the [`Event::Sample`] that
    /// ends it: the time since the record before the event.
    pub draw: Option<Duration>,
}

impl ProfileReport {
    /// Builds the report from a recording of the run.
    pub fn from_recording(recorder: &RecordingObserver, n: usize) -> Self {
        let (mut index_build, mut draw) = (None, None);
        let mut before = Duration::ZERO;
        for record in recorder.records() {
            let took = record.at().saturating_sub(before);
            match record {
                Record::Event {
                    event: Event::IndexBuilt { points, nodes },
                    ..
                } => index_build = Some((*points, *nodes, took)),
                Record::Event {
                    event: Event::Sample { .. },
                    ..
                } => draw = Some(took),
                _ => {}
            }
            before = record.at();
        }
        let measured = recorder.phase_timings();
        let phases = Phase::ALL
            .iter()
            .map(|&p| {
                let t = measured
                    .iter()
                    .find(|(q, _)| *q == p)
                    .map(|(_, t)| *t)
                    .unwrap_or_default();
                (p, t)
            })
            .collect();
        Self {
            n,
            phases,
            counts: recorder.replay(),
            index_build,
            draw,
        }
    }

    /// Total observed wall-clock (sum of self-times, so nested spans are
    /// not double-counted).
    pub fn total_time(&self) -> Duration {
        self.phases.iter().map(|(_, t)| t.self_time).sum()
    }
}

fn fmt_duration(d: Duration) -> String {
    let secs = d.as_secs_f64();
    if secs >= 1.0 {
        format!("{secs:.3}s")
    } else if secs >= 1e-3 {
        format!("{:.3}ms", secs * 1e3)
    } else {
        format!("{:.1}us", secs * 1e6)
    }
}

impl fmt::Display for ProfileReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let total = self.total_time().as_secs_f64().max(f64::MIN_POSITIVE);
        writeln!(
            f,
            "{:<14} {:>6} {:>12} {:>12} {:>7}",
            "phase", "spans", "total", "self", "self%"
        )?;
        for (phase, t) in &self.phases {
            writeln!(
                f,
                "{:<14} {:>6} {:>12} {:>12} {:>6.1}%",
                phase.name(),
                t.spans,
                fmt_duration(t.total),
                fmt_duration(t.self_time),
                100.0 * t.self_time.as_secs_f64() / total
            )?;
        }
        writeln!(
            f,
            "{:<14} {:>6} {:>12} {:>12} {:>7}",
            "(sum of self)",
            "",
            "",
            fmt_duration(self.total_time()),
            "100.0%"
        )?;
        if let Some((points, nodes, took)) = self.index_build {
            writeln!(
                f,
                "{:<14} {:>6} {:>12}   {points} points, {nodes} nodes (in init)",
                "index build",
                "",
                fmt_duration(took)
            )?;
        }
        if let Some(took) = self.draw {
            writeln!(
                f,
                "{:<14} {:>6} {:>12}   (in init)",
                "candidate draw",
                "",
                fmt_duration(took)
            )?;
        }
        writeln!(f)?;
        let c = &self.counts;
        writeln!(
            f,
            "range queries  {:>10}   over n = {} points   theta = {:.4}",
            c.range_queries,
            self.n,
            c.theta(self.n)
        )?;
        writeln!(
            f,
            "seeds {} | expansion rounds {} | svdd trainings {} | smo iterations {}",
            c.seeds, c.expansion_rounds, c.svdd_trainings, c.smo_iterations
        )?;
        writeln!(
            f,
            "support vectors {} (core {}) | max target size {} | merges {}",
            c.support_vectors, c.core_support_vectors, c.max_target_size, c.merges
        )?;
        write!(
            f,
            "noise candidates {} | confirmed noise {}",
            c.noise_candidates, c.noise_confirmed
        )?;
        if c.sampled_candidates + c.attachment_candidates > 0 {
            writeln!(f)?;
            write!(
                f,
                "sampled candidates {} | attachment candidates {} | attached {}",
                c.sampled_candidates, c.attachment_candidates, c.attached_points
            )?;
        }
        if c.assigns + c.ingests + c.promotions + c.snapshot_writes + c.snapshot_loads > 0 {
            writeln!(f)?;
            write!(
                f,
                "assigns {} (hits {}) | ingests {} (dups {}) | promotions {} | snapshots w {} / r {}",
                c.assigns,
                c.assign_hits,
                c.ingests,
                c.ingest_duplicates,
                c.promotions,
                c.snapshot_writes,
                c.snapshot_loads
            )?;
        }
        if c.removals + c.remove_misses + c.demotions + c.splits > 0 {
            writeln!(f)?;
            write!(
                f,
                "removals {} (misses {}) | demotions {} | splits {}",
                c.removals, c.remove_misses, c.demotions, c.splits
            )?;
        }
        if c.quality_windows + c.drift_alerts > 0 {
            writeln!(f)?;
            write!(
                f,
                "quality windows {} | drift alerts {}",
                c.quality_windows, c.drift_alerts
            )?;
        }
        if c.http_requests > 0 {
            writeln!(f)?;
            write!(
                f,
                "http requests {} | http errors {} | http time {}",
                c.http_requests,
                c.http_errors,
                fmt_duration(Duration::from_micros(c.http_duration_us))
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Event;
    use crate::observer::Observer;

    #[test]
    fn report_lists_all_phases_and_theta() {
        let mut rec = RecordingObserver::new();
        rec.span_enter(Phase::Init);
        rec.event(&Event::RangeQuery {
            probe: 0,
            result_len: 2,
        });
        rec.event(&Event::RangeQuery {
            probe: 1,
            result_len: 0,
        });
        rec.span_exit(Phase::Init);
        let report = ProfileReport::from_recording(&rec, 8);
        assert_eq!(report.phases.len(), Phase::ALL.len());
        assert_eq!(report.counts.range_queries, 2);
        let text = report.to_string();
        for p in Phase::ALL {
            assert!(text.contains(p.name()), "missing {} in:\n{text}", p.name());
        }
        assert!(text.contains("theta = 0.2500"), "bad theta in:\n{text}");
    }

    #[test]
    fn serving_line_appears_only_with_serving_traffic() {
        let mut rec = RecordingObserver::new();
        rec.span_enter(Phase::Init);
        rec.span_exit(Phase::Init);
        let fit_only = ProfileReport::from_recording(&rec, 4).to_string();
        assert!(!fit_only.contains("assigns"), "unexpected:\n{fit_only}");

        rec.span_enter(Phase::Serve);
        rec.event(&Event::Assign { hit: true });
        rec.event(&Event::Ingest {
            core: false,
            duplicate: false,
        });
        rec.span_exit(Phase::Serve);
        let served = ProfileReport::from_recording(&rec, 4).to_string();
        assert!(
            served.contains("assigns 1 (hits 1) | ingests 1"),
            "missing serving line in:\n{served}"
        );
        assert!(!served.contains("quality windows"), "unexpected:\n{served}");

        rec.event(&Event::QualityWindow {
            window: 1,
            samples: 4,
            drift_score_e6: 600_000,
            hist_distance_e6: 600_000,
            occupancy_shift_e6: 0,
            noise_delta_e6: 0,
            baseline: true,
        });
        rec.event(&Event::DriftAlert {
            window: 1,
            drift_score_e6: 600_000,
            threshold_e6: 350_000,
        });
        let monitored = ProfileReport::from_recording(&rec, 4).to_string();
        assert!(
            monitored.contains("quality windows 1 | drift alerts 1"),
            "missing quality line in:\n{monitored}"
        );
    }

    #[test]
    fn sampling_line_appears_only_on_sampled_fits() {
        let mut rec = RecordingObserver::new();
        rec.span_enter(Phase::Init);
        rec.span_exit(Phase::Init);
        let exact = ProfileReport::from_recording(&rec, 4).to_string();
        assert!(
            !exact.contains("sampled candidates"),
            "unexpected:\n{exact}"
        );

        rec.event(&Event::Sample {
            candidates: 2,
            total: 4,
            rate_e6: 500_000,
        });
        rec.event(&Event::Attach {
            point: 3,
            attached: true,
        });
        let sampled = ProfileReport::from_recording(&rec, 4).to_string();
        assert!(
            sampled.contains("sampled candidates 2 | attachment candidates 1 | attached 1"),
            "missing sampling line in:\n{sampled}"
        );
    }

    #[test]
    fn the_build_and_the_draw_are_timed_from_their_events() {
        let mut rec = RecordingObserver::new();
        rec.span_enter(Phase::Init);
        let plain = ProfileReport::from_recording(&rec, 4).to_string();
        assert!(!plain.contains("index build"), "unexpected:\n{plain}");
        std::thread::sleep(Duration::from_millis(3));
        rec.event(&Event::IndexBuilt {
            points: 4,
            nodes: 1,
        });
        rec.event(&Event::Sample {
            candidates: 2,
            total: 4,
            rate_e6: 500_000,
        });
        rec.span_exit(Phase::Init);
        let report = ProfileReport::from_recording(&rec, 4);
        let (points, nodes, build) = report.index_build.expect("a timed build");
        assert_eq!((points, nodes), (4, 1));
        assert!(build >= Duration::from_millis(3), "{build:?}");
        assert!(report.draw.is_some(), "a timed draw");
        let text = report.to_string();
        assert!(
            text.contains("4 points, 1 nodes (in init)"),
            "missing build line in:\n{text}"
        );
        assert!(text.contains("candidate draw"), "missing draw in:\n{text}");
    }

    #[test]
    fn duration_formatting_scales() {
        assert_eq!(fmt_duration(Duration::from_secs(2)), "2.000s");
        assert_eq!(fmt_duration(Duration::from_millis(12)), "12.000ms");
        assert_eq!(fmt_duration(Duration::from_micros(7)), "7.0us");
    }
}
