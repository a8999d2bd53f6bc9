//! The in-memory observer: records everything, queryable afterwards.

use std::time::{Duration, Instant};

use crate::event::{Event, Phase};
use crate::observer::Observer;
use crate::replay::ReplayCounts;

/// One recorded callback, stamped with time since observer creation.
#[derive(Clone, Debug)]
pub enum Record {
    /// `span_enter(phase)` at `at`.
    Enter {
        /// The phase entered.
        phase: Phase,
        /// Time since the observer was created.
        at: Duration,
    },
    /// `span_exit(phase)` at `at`.
    Exit {
        /// The phase exited.
        phase: Phase,
        /// Time since the observer was created.
        at: Duration,
    },
    /// `event(e)` at `at`.
    Event {
        /// The event.
        event: Event,
        /// Time since the observer was created.
        at: Duration,
    },
}

/// Wall-clock totals for one phase, aggregated over all its spans.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PhaseTimings {
    /// Number of spans of this phase.
    pub spans: usize,
    /// Total time with the phase open (includes nested phases).
    pub total: Duration,
    /// Total time with the phase *innermost* (nested phases subtracted).
    pub self_time: Duration,
}

/// Records every callback in memory for later queries — the backing store
/// for tests and for the CLI's `--profile` report.
#[derive(Debug)]
pub struct RecordingObserver {
    start: Instant,
    records: Vec<Record>,
}

impl Default for RecordingObserver {
    fn default() -> Self {
        Self::new()
    }
}

impl RecordingObserver {
    /// Creates an empty recorder; timestamps are measured from this call.
    pub fn new() -> Self {
        Self {
            start: Instant::now(),
            records: Vec::new(),
        }
    }

    fn now(&self) -> Duration {
        self.start.elapsed()
    }

    /// Every recorded callback, in arrival order.
    pub fn records(&self) -> &[Record] {
        &self.records
    }

    /// The recorded events only, in arrival order.
    pub fn events(&self) -> impl Iterator<Item = &Event> {
        self.records.iter().filter_map(|r| match r {
            Record::Event { event, .. } => Some(event),
            _ => None,
        })
    }

    /// Replays the recorded events into cost counters (see
    /// [`ReplayCounts`]); these must match the run's `DbsvecStats` exactly.
    pub fn replay(&self) -> ReplayCounts {
        ReplayCounts::from_events(self.events())
    }

    /// Aggregated wall-clock totals per phase. Spans are matched LIFO;
    /// `self_time` subtracts the time spent in nested spans, so summing
    /// `self_time` over all phases gives total observed time without
    /// double-counting.
    ///
    /// # Panics
    ///
    /// Panics if the record stream violates span discipline (an exit
    /// without a matching enter) — that is an instrumentation bug.
    pub fn phase_timings(&self) -> Vec<(Phase, PhaseTimings)> {
        let mut totals: Vec<(Phase, PhaseTimings)> = Vec::new();
        let index = |phase: Phase, totals: &mut Vec<(Phase, PhaseTimings)>| -> usize {
            match totals.iter().position(|(p, _)| *p == phase) {
                Some(i) => i,
                None => {
                    totals.push((phase, PhaseTimings::default()));
                    totals.len() - 1
                }
            }
        };
        // Stack of (phase, entered_at, nested_time_accumulated).
        let mut stack: Vec<(Phase, Duration, Duration)> = Vec::new();
        for record in &self.records {
            match record {
                Record::Enter { phase, at } => stack.push((*phase, *at, Duration::ZERO)),
                Record::Exit { phase, at } => {
                    let (entered, start, nested) =
                        stack.pop().expect("span exit without matching enter");
                    assert_eq!(entered, *phase, "span exit out of LIFO order");
                    let total = at.saturating_sub(start);
                    let i = index(*phase, &mut totals);
                    totals[i].1.spans += 1;
                    totals[i].1.total += total;
                    totals[i].1.self_time += total.saturating_sub(nested);
                    if let Some(parent) = stack.last_mut() {
                        parent.2 += total;
                    }
                }
                Record::Event { .. } => {}
            }
        }
        totals
    }

    /// Timings for one phase (zeros if it never ran).
    pub fn phase(&self, phase: Phase) -> PhaseTimings {
        self.phase_timings()
            .into_iter()
            .find(|(p, _)| *p == phase)
            .map(|(_, t)| t)
            .unwrap_or_default()
    }
}

impl Observer for RecordingObserver {
    fn span_enter(&mut self, phase: Phase) {
        let at = self.now();
        self.records.push(Record::Enter { phase, at });
    }

    fn span_exit(&mut self, phase: Phase) {
        let at = self.now();
        self.records.push(Record::Exit { phase, at });
    }

    fn event(&mut self, event: &Event) {
        let at = self.now();
        self.records.push(Record::Event {
            event: event.clone(),
            at,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_in_order_and_replays_counts() {
        let mut obs = RecordingObserver::new();
        obs.span_enter(Phase::Init);
        obs.event(&Event::RangeQuery {
            probe: 0,
            result_len: 5,
        });
        obs.event(&Event::Seed {
            point: 0,
            neighborhood_len: 5,
        });
        obs.event(&Event::RangeQuery {
            probe: 3,
            result_len: 2,
        });
        obs.span_exit(Phase::Init);
        assert_eq!(obs.records().len(), 5);
        let replay = obs.replay();
        assert_eq!(replay.range_queries, 2);
        assert!((replay.theta(10) - 0.2).abs() < 1e-12);
        assert_eq!(replay.seeds, 1);
    }

    #[test]
    fn nested_spans_split_self_time() {
        let mut obs = RecordingObserver::new();
        obs.span_enter(Phase::Init);
        obs.span_enter(Phase::SvExpand);
        obs.span_enter(Phase::SvddTrain);
        std::thread::sleep(Duration::from_millis(2));
        obs.span_exit(Phase::SvddTrain);
        obs.span_exit(Phase::SvExpand);
        obs.span_exit(Phase::Init);

        let init = obs.phase(Phase::Init);
        let train = obs.phase(Phase::SvddTrain);
        assert_eq!(init.spans, 1);
        assert_eq!(train.spans, 1);
        // Outer total includes the inner sleep; outer self-time excludes it.
        assert!(init.total >= train.total);
        assert!(init.self_time <= init.total - train.total + Duration::from_millis(1));
        // The never-entered phase reports zeros.
        assert_eq!(obs.phase(Phase::Merge), PhaseTimings::default());
    }

    #[test]
    #[should_panic(expected = "LIFO")]
    fn out_of_order_exit_panics() {
        let mut obs = RecordingObserver::new();
        obs.span_enter(Phase::Init);
        obs.span_enter(Phase::SvExpand);
        obs.records.swap_remove(1); // corrupt the stream: drop the enter
        obs.span_enter(Phase::SvddTrain);
        obs.span_exit(Phase::SvExpand);
        let _ = obs.phase_timings();
    }
}
