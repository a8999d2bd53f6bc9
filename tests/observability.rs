//! Integration tests for the observability layer against *real* runs:
//! span-nesting invariants, replay exactness, the JSONL trace format, and
//! the index seeing exactly the traced range queries, in order.

use std::cell::RefCell;

use dbsvec::core::DbsvecStats;
use dbsvec::datasets::gaussian_mixture;
use dbsvec::index::{KdTree, LinearScan, RangeIndex};
use dbsvec::obs::{Event, JsonlSink, Phase, Record, RecordingObserver, ReplayCounts, Tee};
use dbsvec::{Dbsvec, DbsvecConfig, PointId};

fn fitted_recording() -> (RecordingObserver, dbsvec::core::DbsvecResult) {
    let ds = gaussian_mixture(2500, 8, 5, 900.0, 1e5, 11);
    let eps = dbsvec::datasets::standins::suggest_eps(&ds.points, 10, 2);
    let mut recorder = RecordingObserver::new();
    let result = Dbsvec::new(DbsvecConfig::new(eps, 10)).fit_observed(&ds.points, &mut recorder);
    assert!(result.num_clusters() >= 2, "want a multi-cluster run");
    (recorder, result)
}

#[test]
fn svdd_train_spans_nest_inside_sv_expand_inside_init() {
    let (recorder, _) = fitted_recording();
    let mut stack: Vec<Phase> = Vec::new();
    let mut trainings = 0;
    for record in recorder.records() {
        match record {
            Record::Enter { phase, .. } => {
                if *phase == Phase::SvddTrain {
                    trainings += 1;
                    assert_eq!(
                        stack.last(),
                        Some(&Phase::SvExpand),
                        "svdd_train must open inside sv_expand, stack was {stack:?}"
                    );
                    assert_eq!(stack.first(), Some(&Phase::Init));
                }
                if *phase == Phase::SvExpand {
                    assert_eq!(
                        stack.last(),
                        Some(&Phase::Init),
                        "sv_expand must open inside init, stack was {stack:?}"
                    );
                }
                stack.push(*phase);
            }
            Record::Exit { phase, .. } => {
                assert_eq!(stack.pop(), Some(*phase), "span exits must be LIFO");
            }
            Record::Event { .. } => {}
        }
    }
    assert!(stack.is_empty(), "all spans closed, leftover {stack:?}");
    assert!(trainings > 0, "a real run trains at least one SVDD");
}

#[test]
fn replayed_counters_match_the_run_stats_exactly() {
    let (recorder, result) = fitted_recording();
    let stats = result.stats();
    let replayed = recorder.replay();
    assert_eq!(replayed.seeds, stats.seeds);
    assert_eq!(replayed.svdd_trainings, stats.svdd_trainings);
    assert_eq!(replayed.support_vectors, stats.support_vectors);
    assert_eq!(replayed.core_support_vectors, stats.core_support_vectors);
    assert_eq!(replayed.merges, stats.merges);
    assert_eq!(replayed.noise_candidates, stats.noise_candidates);
    assert_eq!(replayed.noise_confirmed, stats.noise_confirmed);
    assert_eq!(replayed.range_queries, stats.range_queries);
    assert_eq!(replayed.expansion_rounds, stats.expansion_rounds);
    assert_eq!(replayed.max_target_size, stats.max_target_size);
    assert_eq!(replayed.smo_iterations, stats.smo_iterations);
    assert_eq!(
        replayed.warm_started_trainings,
        stats.warm_started_trainings
    );
    assert_eq!(replayed.iterations_exhausted, stats.iterations_exhausted);
    assert_eq!(
        replayed.initial_kkt_violation_e6,
        stats.initial_kkt_violation_e6
    );

    // θ recomputed from raw RangeQuery events agrees too.
    let n = result.labels().len();
    let raw = recorder
        .events()
        .filter(|e| matches!(e, Event::RangeQuery { .. }))
        .count() as u64;
    assert_eq!(raw, stats.range_queries);
    assert!((replayed.theta(n) - stats.theta(n)).abs() < 1e-12);
}

#[test]
fn jsonl_trace_of_a_real_run_parses_and_replays() {
    let ds = gaussian_mixture(1500, 4, 4, 800.0, 1e5, 3);
    let eps = dbsvec::datasets::standins::suggest_eps(&ds.points, 8, 1);
    let mut recorder = RecordingObserver::new();
    let mut sink = JsonlSink::new(Vec::new());
    let result = Dbsvec::new(DbsvecConfig::new(eps, 8))
        .fit_observed(&ds.points, &mut Tee(&mut recorder, &mut sink));
    let bytes = sink.finish().expect("in-memory sink cannot fail");
    let text = String::from_utf8(bytes).expect("trace is UTF-8");

    // Golden format check: every line is a standalone JSON object with a
    // timestamp and a kind.
    assert!(text.lines().count() > 10);
    for (i, line) in text.lines().enumerate() {
        let value = dbsvec::obs::json::parse(line)
            .unwrap_or_else(|e| panic!("line {} is not valid JSON ({e}): {line}", i + 1));
        assert!(value.get("t").is_some(), "line {} has no timestamp", i + 1);
        let kind = value.get("kind").expect("line has a kind");
        assert!(
            ["enter", "exit", "event"]
                .iter()
                .any(|k| *kind == dbsvec::obs::Json::str(*k)),
            "unexpected kind {kind:?}"
        );
    }

    // The written trace replays to the exact run statistics.
    let replayed = ReplayCounts::from_jsonl(&text).expect("trace replays");
    assert_eq!(replayed.range_queries, result.stats().range_queries);
    assert_eq!(replayed.seeds, result.stats().seeds);
    assert_eq!(replayed.smo_iterations, result.stats().smo_iterations);
    assert_eq!(replayed, recorder.replay());
}

/// A linear scan that logs every query point in a `RefCell`, so it is not
/// `Sync`: a fit through it compiles only because every range query runs
/// on the calling thread.
struct LoggingScan<'a> {
    inner: LinearScan<'a>,
    log: RefCell<Vec<Vec<f64>>>,
}

impl RangeIndex for LoggingScan<'_> {
    fn range(&self, query: &[f64], eps: f64, out: &mut Vec<PointId>) {
        self.log.borrow_mut().push(query.to_vec());
        self.inner.range(query, eps, out);
    }

    fn count_range(&self, query: &[f64], eps: f64) -> usize {
        self.log.borrow_mut().push(query.to_vec());
        self.inner.count_range(query, eps)
    }

    fn len(&self) -> usize {
        self.inner.len()
    }
}

#[test]
fn a_non_sync_index_sees_the_traced_probes_in_order() {
    let ds = gaussian_mixture(1200, 4, 4, 900.0, 1e5, 7);
    let eps = dbsvec::datasets::standins::suggest_eps(&ds.points, 10, 2);
    let plain = Dbsvec::new(DbsvecConfig::new(eps, 10))
        .fit_with_index(&ds.points, &LinearScan::build(&ds.points));
    assert!(plain.num_clusters() >= 2, "want a multi-cluster run");
    assert!(plain.stats().expansion_rounds > plain.stats().seeds);
    let index = LoggingScan {
        inner: LinearScan::build(&ds.points),
        log: RefCell::new(Vec::new()),
    };
    let mut recorder = RecordingObserver::new();
    let result = Dbsvec::new(DbsvecConfig::new(eps, 10)).fit_with_index_observed(
        &ds.points,
        &index,
        &mut recorder,
    );
    assert_eq!(result.labels(), plain.labels());
    let probes: Vec<Vec<f64>> = recorder
        .records()
        .iter()
        .filter_map(|r| match r {
            Record::Event {
                event: Event::RangeQuery { probe, .. },
                ..
            } => Some(ds.points.point(*probe).to_vec()),
            _ => None,
        })
        .collect();
    assert_eq!(probes.len() as u64, result.stats().range_queries);
    assert_eq!(index.log.into_inner(), probes);
}

#[test]
fn a_sampled_fit_traces_the_build_and_the_draw_before_its_first_query() {
    let ds = gaussian_mixture(2500, 8, 5, 900.0, 1e5, 11);
    let eps = dbsvec::datasets::standins::suggest_eps(&ds.points, 10, 2);
    let config = DbsvecConfig::new(eps, 10).with_uniform_sampling(0.25, 3);
    let mut recorder = RecordingObserver::new();
    let result = Dbsvec::new(config).fit_observed(&ds.points, &mut recorder);
    let opening: Vec<String> = recorder.records()[..4]
        .iter()
        .map(|record| match record {
            Record::Enter { phase, .. } => format!("enter {}", phase.name()),
            Record::Exit { phase, .. } => format!("exit {}", phase.name()),
            Record::Event { event, .. } => event.name().to_string(),
        })
        .collect();
    assert_eq!(
        opening,
        ["enter init", "index_built", "sample", "range_query"]
    );
    let Record::Event {
        event: Event::IndexBuilt { points, nodes },
        ..
    } = recorder.records()[1]
    else {
        unreachable!("checked above");
    };
    assert_eq!(points, ds.points.len());
    assert_eq!(nodes, KdTree::build(&ds.points).node_count());
    assert_eq!(DbsvecStats::from(&recorder.replay()), *result.stats());
}
