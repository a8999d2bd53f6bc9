//! Thread-count invariance of the parallel fit path.
//!
//! The tentpole guarantee: `DbsvecConfig::with_threads(n)` changes *where*
//! work runs, never *what* is computed. Fitting the same dataset at 1, 2,
//! 4, and 8 threads must produce bit-identical labels, core sets, and
//! [`dbsvec::core::DbsvecStats`] — and the recorded observer trace
//! (phase spans + typed events, including per-training SMO iteration and
//! kernel-cache counters) must match callback for callback, so a trace
//! captured from a parallel run replays exactly like a sequential one.

use dbsvec::engine::{snapshot, Engine, EngineMetrics, ModelArtifact};
use dbsvec::geometry::rng::SplitMix64;
use dbsvec::obs::{Event, Phase, Record, RecordingObserver};
use dbsvec::{Dbsvec, DbsvecConfig, PointSet};

/// Two well-separated noisy blobs plus scattered stragglers — enough
/// structure to exercise seeding, multi-round expansion, merging, and
/// noise verification.
fn dataset(seed: u64, per_blob: usize) -> PointSet {
    let mut rng = SplitMix64::new(seed);
    let mut ps = PointSet::new(2);
    for c in [[0.0, 0.0], [28.0, 6.0], [5.0, 40.0]] {
        for _ in 0..per_blob {
            let x: f64 = (0..12).map(|_| rng.next_f64()).sum::<f64>() - 6.0;
            let y: f64 = (0..12).map(|_| rng.next_f64()).sum::<f64>() - 6.0;
            ps.push(&[c[0] + 1.3 * x, c[1] + 1.3 * y]);
        }
    }
    for _ in 0..12 {
        ps.push(&[
            rng.next_f64_range(-60.0, 90.0),
            rng.next_f64_range(-60.0, 90.0),
        ]);
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

#[test]
fn fit_is_bit_identical_across_thread_counts() {
    let ps = dataset(0xD371, 110);
    let config = |threads: usize| DbsvecConfig::new(3.0, 6).with_threads(threads);
    let baseline = Dbsvec::new(config(1)).fit(&ps);
    assert!(baseline.num_clusters() >= 2, "dataset should cluster");
    for threads in [2usize, 4, 8] {
        let result = Dbsvec::new(config(threads)).fit(&ps);
        assert_eq!(baseline.labels(), result.labels(), "threads={threads}");
        assert_eq!(
            baseline.core_points(),
            result.core_points(),
            "threads={threads}"
        );
        // DbsvecStats is one struct equality: range_queries, seeds,
        // expansion rounds, SVDD trainings, SMO iterations, support
        // vectors, merges, noise counters — all must agree exactly.
        assert_eq!(baseline.stats(), result.stats(), "threads={threads}");
    }
}

#[test]
fn auto_thread_config_matches_sequential_results() {
    let ps = dataset(0xD372, 80);
    let sequential = Dbsvec::new(DbsvecConfig::new(3.0, 6).with_threads(1)).fit(&ps);
    // threads = 0 resolves to the machine's available parallelism —
    // whatever that is here, the results must not move.
    let auto = Dbsvec::new(DbsvecConfig::new(3.0, 6)).fit(&ps);
    assert_eq!(sequential.labels(), auto.labels());
    assert_eq!(sequential.stats(), auto.stats());
    assert_eq!(sequential.core_points(), auto.core_points());
}

#[test]
fn recorded_traces_are_identical_across_thread_counts() {
    let ps = dataset(0xD373, 90);
    let trace = |threads: usize| {
        let mut recorder = RecordingObserver::new();
        let result = Dbsvec::new(DbsvecConfig::new(3.0, 6).with_threads(threads))
            .fit_observed(&ps, &mut recorder);
        (steps(&recorder), recorder.replay(), result)
    };
    let (base_steps, base_replay, base_result) = trace(1);
    assert!(!base_steps.is_empty());
    for threads in [2usize, 4, 8] {
        let (par_steps, par_replay, par_result) = trace(threads);
        // Callback-for-callback equality: same phase nesting, same events
        // in the same order with the same payloads.
        assert_eq!(base_steps, par_steps, "threads={threads}");
        // Replaying either stream reproduces the same counters, and those
        // counters agree with the returned stats.
        assert_eq!(base_replay, par_replay, "threads={threads}");
        assert_eq!(
            par_replay.range_queries,
            par_result.stats().range_queries,
            "threads={threads}"
        );
        assert_eq!(base_result.labels(), par_result.labels());
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

#[test]
fn smo_cache_counters_in_the_trace_are_thread_invariant() {
    let ps = dataset(0xD374, 100);
    #[allow(clippy::type_complexity)]
    let solves = |threads: usize| -> Vec<(usize, usize, u64, u64, bool, bool, u64)> {
        let mut recorder = RecordingObserver::new();
        let _ = Dbsvec::new(DbsvecConfig::new(3.0, 6).with_threads(threads))
            .fit_observed(&ps, &mut recorder);
        recorder
            .events()
            .filter_map(|e| match e {
                Event::SmoSolve {
                    target_size,
                    iterations,
                    cache_hits,
                    cache_misses,
                    warm_started,
                    converged,
                    initial_kkt_violation_e6,
                } => Some((
                    *target_size,
                    *iterations,
                    *cache_hits,
                    *cache_misses,
                    *warm_started,
                    *converged,
                    *initial_kkt_violation_e6,
                )),
                _ => None,
            })
            .collect()
    };
    let baseline = solves(1);
    assert!(
        !baseline.is_empty(),
        "fit should have trained at least one SVDD"
    );
    for threads in [2usize, 4, 8] {
        assert_eq!(baseline, solves(threads), "threads={threads}");
    }
}
