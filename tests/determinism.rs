//! Run-to-run determinism of the fit and of dynamic maintenance.
//!
//! Fitting the same data twice must produce bit-identical labels, core
//! sets, and [`dbsvec::core::DbsvecStats`] — and the recorded observer
//! trace (phase spans + typed events, including every SMO solve's
//! iteration and kernel-cache counters) must match callback for callback,
//! so a recorded trace replays exactly like a fresh run. The same holds
//! on whichever thread calls the fit, several at once included. The
//! engine's batch assignment still fans out over threads, so its
//! interleaving test also varies the thread count.

use dbsvec::core::{DbsvecResult, DbsvecStats};
use dbsvec::engine::{snapshot, Engine, EngineMetrics, ModelArtifact};
use dbsvec::geometry::rng::SplitMix64;
use dbsvec::obs::{Event, Phase, Record, RecordingObserver};
use dbsvec::{Dbsvec, DbsvecConfig, PointSet};

/// Pushes `per` points around each center; each coordinate offset is a
/// sum of 12 uniforms minus 6 (about N(0, 1)) scaled by `spread`.
fn push_blobs(
    ps: &mut PointSet,
    rng: &mut SplitMix64,
    centers: &[[f64; 2]],
    per: usize,
    spread: f64,
) {
    for c in centers {
        for _ in 0..per {
            let x: f64 = (0..12).map(|_| rng.next_f64()).sum::<f64>() - 6.0;
            let y: f64 = (0..12).map(|_| rng.next_f64()).sum::<f64>() - 6.0;
            ps.push(&[c[0] + spread * x, c[1] + spread * y]);
        }
    }
}

/// Three well-separated noisy blobs plus scattered stragglers — enough
/// structure to exercise seeding, multi-round expansion, merging, and
/// noise verification.
fn dataset(seed: u64, per_blob: usize) -> PointSet {
    let mut rng = SplitMix64::new(seed);
    let mut ps = PointSet::new(2);
    push_blobs(
        &mut ps,
        &mut rng,
        &[[0.0, 0.0], [28.0, 6.0], [5.0, 40.0]],
        per_blob,
        1.3,
    );
    for _ in 0..12 {
        ps.push(&[
            rng.next_f64_range(-60.0, 90.0),
            rng.next_f64_range(-60.0, 90.0),
        ]);
    }
    ps
}

/// Two blobs plus 30 isolated stragglers on a line: under a partial draw
/// the unsampled stragglers are never absorbed, so the sampled fit's
/// attachment pass has real work to replay.
fn straggler_set() -> PointSet {
    let mut rng = SplitMix64::new(61);
    let mut ps = PointSet::new(2);
    push_blobs(&mut ps, &mut rng, &[[0.0, 0.0], [25.0, 10.0]], 120, 1.2);
    for i in 0..30 {
        ps.push(&[200.0 + 10.0 * i as f64, -50.0]);
    }
    ps
}

/// A record with its timestamp erased — the comparable shape of a trace.
#[derive(Debug, PartialEq, Eq)]
enum Step {
    Enter(Phase),
    Exit(Phase),
    Ev(Event),
}

fn steps(recorder: &RecordingObserver) -> Vec<Step> {
    recorder
        .records()
        .iter()
        .map(|r| match r {
            Record::Enter { phase, .. } => Step::Enter(*phase),
            Record::Exit { phase, .. } => Step::Exit(*phase),
            Record::Event { event, .. } => Step::Ev(event.clone()),
        })
        .collect()
}

/// One fit with its timestamp-erased trace and the stats replayed from
/// that trace.
struct TracedFit {
    result: DbsvecResult,
    steps: Vec<Step>,
    replayed: DbsvecStats,
}

impl TracedFit {
    /// Every `SmoSolve` payload in trace order: target size, iterations,
    /// kernel-cache hits and misses, warm start, convergence, and initial
    /// KKT violation.
    fn smo_solves(&self) -> Vec<&Event> {
        self.steps
            .iter()
            .filter_map(|s| match s {
                Step::Ev(e @ Event::SmoSolve { .. }) => Some(e),
                _ => None,
            })
            .collect()
    }
}

fn fit_traced(ps: &PointSet, config: &DbsvecConfig) -> TracedFit {
    let mut recorder = RecordingObserver::new();
    let result = Dbsvec::new(config.clone()).fit_observed(ps, &mut recorder);
    TracedFit {
        result,
        steps: steps(&recorder),
        replayed: DbsvecStats::from(&recorder.replay()),
    }
}

/// Fits `ps` on the calling thread and checks the fit has structure worth
/// comparing: at least two clusters and at least one SVDD training.
fn baseline(name: &str, ps: &PointSet, config: &DbsvecConfig) -> TracedFit {
    let fit = fit_traced(ps, config);
    assert!(
        fit.result.num_clusters() >= 2,
        "{name}: dataset should cluster"
    );
    assert!(
        !fit.smo_solves().is_empty(),
        "{name}: the fit should train at least one SVDD"
    );
    fit
}

/// Starts `threads` scoped threads at once, each running `fits_per_thread`
/// fits of `ps` one after another, and returns every fit in thread order.
fn fit_on_threads(
    ps: &PointSet,
    config: &DbsvecConfig,
    threads: usize,
    fits_per_thread: usize,
) -> Vec<TracedFit> {
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    (0..fits_per_thread)
                        .map(|_| fit_traced(ps, config))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("fit must not panic"))
            .collect()
    })
}

/// Asserts two fits agree bit for bit: labels, core set, stats, and the
/// timestamp-erased trace — and that replaying the trace reproduces the
/// returned stats.
fn assert_same_fit(name: &str, expected: &TracedFit, actual: &TracedFit) {
    assert_eq!(expected.result.labels(), actual.result.labels(), "{name}");
    assert_eq!(
        expected.result.core_points(),
        actual.result.core_points(),
        "{name}"
    );
    // DbsvecStats is one struct equality: range_queries, seeds,
    // expansion rounds, SVDD trainings, SMO iterations, support
    // vectors, merges, noise and attachment counters — all must agree.
    assert_eq!(expected.result.stats(), actual.result.stats(), "{name}");
    // Callback-for-callback equality: same phase nesting, same events in
    // the same order with the same payloads — every `SmoSolve`'s
    // iterations, kernel-cache hits and misses, warm start, convergence,
    // and initial KKT violation included.
    assert_eq!(expected.steps, actual.steps, "{name}");
    assert_eq!(actual.replayed, *actual.result.stats(), "{name}");
}

/// The exact config over three blobs, and a sampled config over the
/// straggler set whose partial draw leaves the attachment pass work.
fn cases() -> [(&'static str, PointSet, DbsvecConfig); 2] {
    [
        ("exact", dataset(0xD371, 110), DbsvecConfig::new(3.0, 6)),
        (
            "sampled",
            straggler_set(),
            DbsvecConfig::new(3.0, 6).with_uniform_sampling(0.4, 17),
        ),
    ]
}

#[test]
fn refits_are_bit_identical_down_to_the_trace() {
    for (name, ps, config) in cases() {
        let first = baseline(name, &ps, &config);
        assert_same_fit(name, &first, &fit_traced(&ps, &config));
        if name == "sampled" {
            assert!(
                first.result.stats().attachment_candidates > 0,
                "the attachment pass should have points to resolve"
            );
        }
    }
}

// The fit has no thread setting: it runs on whichever thread calls it.
// The tests below pin that it keeps no state between calls or across
// threads (no thread-local caches, no process-wide counters), so callers
// may fit on any thread, several at once, and get the calling thread's
// answer.

/// Fits run on 1, 2 and 4 threads at once return the calling thread's
/// labels, core set and stats, exact and sampled.
#[test]
fn fit_is_bit_identical_across_thread_counts() {
    for (name, ps, config) in cases() {
        let base = baseline(name, &ps, &config);
        for threads in [1usize, 2, 4] {
            for run in fit_on_threads(&ps, &config, threads, 1) {
                let r = &run.result;
                assert_eq!(base.result.labels(), r.labels(), "{name} threads={threads}");
                assert_eq!(
                    base.result.core_points(),
                    r.core_points(),
                    "{name} threads={threads}"
                );
                assert_eq!(base.result.stats(), r.stats(), "{name} threads={threads}");
            }
        }
    }
}

/// As many fits as the machine has threads (at most 8), run at once,
/// match the same number of fits run one after another on the calling
/// thread, pair for pair.
#[test]
fn auto_thread_config_matches_sequential_results() {
    let ps = dataset(0xD372, 80);
    let config = DbsvecConfig::new(3.0, 6);
    let width = std::thread::available_parallelism().map_or(1, |p| p.get().min(8));
    let sequential: Vec<TracedFit> = (0..width).map(|_| fit_traced(&ps, &config)).collect();
    let concurrent = fit_on_threads(&ps, &config, width, 1);
    assert_eq!(sequential.len(), concurrent.len());
    for (i, (s, c)) in sequential.iter().zip(&concurrent).enumerate() {
        assert_same_fit(&format!("fit {i} of {width}"), s, c);
    }
}

/// The recorded trace of a fit on 2 or 4 threads at once matches the
/// calling thread's callback for callback, and replays to the same stats.
#[test]
fn recorded_traces_are_identical_across_thread_counts() {
    let ps = dataset(0xD373, 90);
    let config = DbsvecConfig::new(3.0, 6);
    let base = baseline("trace", &ps, &config);
    assert_eq!(base.replayed, *base.result.stats());
    for threads in [2usize, 4] {
        for run in fit_on_threads(&ps, &config, threads, 1) {
            assert_eq!(base.steps, run.steps, "threads={threads}");
            assert_eq!(base.replayed, run.replayed, "threads={threads}");
            assert_eq!(
                base.result.labels(),
                run.result.labels(),
                "threads={threads}"
            );
        }
    }
}

/// SMO kernel-cache counters depend on neither the thread nor what it ran
/// before: a fresh thread and threads on their second and third fit
/// report the calling thread's `SmoSolve` payloads exactly.
#[test]
fn smo_cache_counters_in_the_trace_are_thread_invariant() {
    let ps = dataset(0xD374, 100);
    let config = DbsvecConfig::new(3.0, 6);
    let base = baseline("smo", &ps, &config);
    let expected = base.smo_solves();
    for (i, run) in fit_on_threads(&ps, &config, 2, 3).iter().enumerate() {
        assert_eq!(expected, run.smo_solves(), "thread {} fit {}", i / 3, i % 3);
    }
}

/// Two 3×3 unit grids whose labels equal the geometric components at
/// ε = 1.2, MinPts = 3 — the closure-property model `tests/dynamic.rs`
/// exercises, rebuilt here as a deterministic dynamic-maintenance base.
fn two_grid_artifact() -> ModelArtifact {
    let mut cores = PointSet::new(2);
    let mut core_labels = Vec::new();
    for (x0, label) in [(0, 0u32), (6, 1)] {
        for x in x0..x0 + 3 {
            for y in 0..3 {
                cores.push(&[x as f64, y as f64]);
                core_labels.push(label);
            }
        }
    }
    ModelArtifact {
        eps: 1.2,
        min_pts: 3,
        num_clusters: 2,
        cores,
        core_labels,
        boundaries: None,
        quality: None,
        sampling: None,
    }
}

/// Dynamic maintenance is deterministic too: one fixed insert / delete /
/// assign interleaving driven at 1, 2, 4, and 8 assignment threads — and
/// replayed on a cold engine reloaded from snapshot bytes — must produce
/// the same trace callback for callback, the same replayed counters, the
/// same engine stats, and a bit-identical snapshot encoding.
#[test]
fn insert_delete_interleavings_are_bit_identical_across_threads_and_restarts() {
    let run = |artifact: &ModelArtifact, threads: usize| {
        let mut engine = Engine::new(artifact);
        let mut recorder = RecordingObserver::new();
        let mut rng = SplitMix64::new(0xD375);
        let mut inserted: Vec<Vec<f64>> = Vec::new();
        for op in 0..160 {
            match op % 4 {
                // Inserts on a half-unit lattice spanning both grids and
                // the gap: some buffer, some promote, some merge.
                0 | 1 => {
                    let p = vec![
                        (rng.next_below(19) as f64) * 0.5 - 0.5,
                        (rng.next_below(7) as f64) * 0.5 - 0.5,
                    ];
                    engine.ingest_observed(&p, &mut recorder);
                    inserted.push(p);
                }
                // Deletes of earlier inserts (occasionally already
                // removed — the miss is part of the trace under test).
                2 => {
                    let p = inserted[rng.next_below(inserted.len() as u64) as usize].clone();
                    engine.remove_observed(&p, &mut recorder);
                }
                // Threaded assign batches: `threads` changes where the
                // queries run, never what is answered or recorded.
                _ => {
                    let mut queries = PointSet::new(2);
                    for _ in 0..6 {
                        queries
                            .push(&[rng.next_f64_range(-1.0, 9.0), rng.next_f64_range(-1.0, 3.0)]);
                    }
                    let rows: Vec<&[f64]> = queries.iter().map(|(_, q)| q).collect();
                    engine.assign_many_observed(
                        &rows,
                        threads,
                        &mut EngineMetrics::new(),
                        &mut recorder,
                    );
                }
            }
        }
        let stats = engine.stats();
        (
            steps(&recorder),
            recorder.replay(),
            stats,
            snapshot::encode(&engine.snapshot()),
        )
    };

    let artifact = two_grid_artifact();
    let (base_steps, base_replay, base_stats, base_bytes) = run(&artifact, 1);
    assert!(base_replay.removals > 0, "sequence should remove points");
    assert!(base_replay.merges > 0, "sequence should merge clusters");
    for threads in [2usize, 4, 8] {
        let (s, r, st, bytes) = run(&artifact, threads);
        assert_eq!(base_steps, s, "threads={threads}");
        assert_eq!(base_replay, r, "threads={threads}");
        assert_eq!(base_stats, st, "threads={threads}");
        assert_eq!(base_bytes, bytes, "threads={threads}");
    }

    // Cold start: round-trip the base model through snapshot bytes and
    // replay the same interleaving — nothing may move.
    let reloaded = snapshot::decode(&snapshot::encode(&artifact)).expect("round-trip");
    let (s, r, st, bytes) = run(&reloaded, 4);
    assert_eq!(base_steps, s, "cold restart");
    assert_eq!(base_replay, r, "cold restart");
    assert_eq!(base_stats, st, "cold restart");
    assert_eq!(base_bytes, bytes, "cold restart");
}
