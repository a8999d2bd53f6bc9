//! Online-serving semantics: assignment must agree with the brute-force
//! nearest-core-within-ε rule, and ingesting points the model was trained
//! on must never change anything.

use dbsvec_core::{Dbsvec, DbsvecConfig};
use dbsvec_datasets::gaussian_mixture;
use dbsvec_engine::{Assignment, Engine, EngineMetrics, IngestOutcome, ModelArtifact};
use dbsvec_geometry::{squared_euclidean, PointSet};

fn fitted(seed: u64) -> (PointSet, dbsvec_core::DbsvecResult, f64, u32) {
    let data = gaussian_mixture(800, 2, 3, 400.0, 1e5, seed);
    let min_pts = 6;
    let eps = dbsvec_datasets::standins::suggest_eps(&data.points, min_pts, seed);
    let fit = Dbsvec::new(DbsvecConfig::new(eps, min_pts)).fit(&data.points);
    (data.points, fit, eps, min_pts as u32)
}

/// Brute force: cluster of the nearest core within ε, else noise.
fn brute_force(artifact: &ModelArtifact, x: &[f64]) -> Assignment {
    let mut best: Option<(f64, u32)> = None;
    let eps_sq = artifact.eps * artifact.eps;
    for (i, core) in artifact.cores.iter() {
        let d = squared_euclidean(core, x);
        if d <= eps_sq && best.map_or(true, |(bd, _)| d < bd) {
            best = Some((d, artifact.core_labels[i as usize]));
        }
    }
    match best {
        Some((_, label)) => Assignment::Cluster(label),
        None => Assignment::Noise,
    }
}

#[test]
fn assign_agrees_with_brute_force_on_random_queries() {
    for seed in [3, 17, 91] {
        let (points, fit, eps, min_pts) = fitted(seed);
        let artifact =
            ModelArtifact::from_fit(&points, fit.labels(), fit.core_points(), eps, min_pts)
                .unwrap();
        let engine = Engine::new(&artifact);

        // Query on training points, perturbed copies, and far-out noise.
        let mut rng = dbsvec_geometry::rng::SplitMix64::new(seed * 1000 + 1);
        let mut queries = PointSet::new(2);
        for (_, p) in points.iter() {
            queries.push(p);
        }
        for _ in 0..500 {
            let q = [(rng.next_f64() - 0.5) * 3e5, (rng.next_f64() - 0.5) * 3e5];
            queries.push(&q);
        }
        for i in 0..queries.len() {
            let q = queries.point(i as u32);
            assert_eq!(
                engine.classify(q),
                brute_force(&artifact, q),
                "seed {seed}, query {i}"
            );
        }
    }
}

#[test]
fn batch_fan_out_agrees_with_brute_force() {
    let (points, fit, eps, min_pts) = fitted(5);
    let artifact =
        ModelArtifact::from_fit(&points, fit.labels(), fit.core_points(), eps, min_pts).unwrap();
    let mut engine = Engine::new(&artifact);
    let expected: Vec<Assignment> = (0..points.len())
        .map(|i| brute_force(&artifact, points.point(i as u32)))
        .collect();
    let rows: Vec<&[f64]> = points.iter().map(|(_, p)| p).collect();
    for threads in [1, 2, 4] {
        assert_eq!(
            engine.assign_many(&rows, threads, &mut EngineMetrics::new()),
            expected,
            "{threads} threads"
        );
    }
}

#[test]
fn ingesting_the_training_set_changes_no_labels() {
    let (points, fit, eps, min_pts) = fitted(29);
    let artifact =
        ModelArtifact::from_fit(&points, fit.labels(), fit.core_points(), eps, min_pts).unwrap();
    let mut engine = Engine::new(&artifact);

    // Labels of every training point before any ingest.
    let before: Vec<Assignment> = (0..points.len())
        .map(|i| engine.classify(points.point(i as u32)))
        .collect();
    let clusters_before = engine.num_clusters();
    let cores_before = engine.core_count();

    // Stream the whole training set through ingest. The engine tracks a
    // subset of the training points, so its density counts are
    // *underestimates* of the true |N_ε|. A promotion on an underestimate
    // means the point is genuinely dense — DBSVEC just never verified it
    // during the fit (it was absorbed from a core SV's neighborhood
    // without its own range query). Such promotions are allowed; what must
    // NOT happen is any topology change: a genuinely-dense training point
    // always lies within ε of a verified core of its own cluster, so no
    // promotion may spawn a cluster or merge two.
    for (_, p) in points.iter() {
        let outcome = engine.ingest(p);
        if matches!(outcome, IngestOutcome::Core { .. }) {
            // Promoted at ingest ⇒ it had a core within ε, same cluster.
            assert!(engine.num_clusters() == clusters_before);
        }
    }

    assert_eq!(engine.num_clusters(), clusters_before);
    assert_eq!(engine.stats().merges, 0, "no merges from training data");
    assert_eq!(engine.stats().new_clusters, 0, "no spawned clusters");
    assert_eq!(
        engine.core_count() as u64,
        cores_before as u64 + engine.stats().promotions
    );
    // Every fitted core point re-arrived as an exact duplicate.
    assert_eq!(engine.stats().duplicates as usize, cores_before);

    // Labels must be unchanged. The only tolerated difference is a border
    // tie-break: a point that was within ε of cores of its cluster may now
    // be *nearer* to a promoted core — but promoted cores carry the label
    // of their own cluster, so even that cannot flip a label here, and
    // noise can never become clustered (noise has no dense point within ε,
    // by the paper's Theorems 2–3).
    let after: Vec<Assignment> = (0..points.len())
        .map(|i| engine.classify(points.point(i as u32)))
        .collect();
    for i in 0..before.len() {
        match (before[i], after[i]) {
            (a, b) if a == b => {}
            (Assignment::Cluster(a), Assignment::Cluster(b)) => {
                panic!("point {i} flipped cluster {a} -> {b}")
            }
            (a, b) => panic!("point {i} changed noise status: {a:?} -> {b:?}"),
        }
    }
}

#[test]
fn training_labels_are_reproduced_modulo_border_ties() {
    let (points, fit, eps, min_pts) = fitted(41);
    let artifact =
        ModelArtifact::from_fit(&points, fit.labels(), fit.core_points(), eps, min_pts).unwrap();
    let engine = Engine::new(&artifact);
    let eps_sq = eps * eps;

    let core_set: std::collections::HashSet<u32> = fit.core_points().iter().copied().collect();
    for (i, p) in points.iter() {
        let fitted_label = fit.labels().get(i as usize);
        match engine.classify(p) {
            Assignment::Noise => {
                // Noise must match exactly: both rules are "no core within ε".
                assert_eq!(fitted_label, None, "point {i} was clustered by the fit");
            }
            Assignment::Cluster(c) => {
                if core_set.contains(&i) {
                    // Core points must keep their exact label.
                    assert_eq!(fitted_label, Some(c), "core point {i}");
                } else {
                    // Border points may tie-break between clusters, but the
                    // label must come from *some* core within ε.
                    let reachable: Vec<u32> = artifact
                        .cores
                        .iter()
                        .filter(|(_, core)| squared_euclidean(core, p) <= eps_sq)
                        .map(|(j, _)| artifact.core_labels[j as usize])
                        .collect();
                    assert!(
                        reachable.contains(&c),
                        "border point {i}: label {c} not among reachable {reachable:?}"
                    );
                    assert!(fitted_label.is_some(), "fit called point {i} noise");
                }
            }
        }
    }
}

/// Regression: [`Engine::staleness`] counts the *decremental* drift too.
/// Removals, demotions, and splits each move the model away from its
/// fitted topology exactly like promotions and merges do — a removal-only
/// workload must push staleness toward the refit threshold, and a missed
/// removal must not.
#[test]
fn staleness_counts_removals_demotions_and_splits() {
    // Two 3×3 unit grids (ε 1.2, MinPts 3): 18 fitted cores, 2 clusters.
    let mut cores = PointSet::new(2);
    let mut labels = Vec::new();
    for (x0, label) in [(0.0, 0), (6.0, 1)] {
        for x in 0..3 {
            for y in 0..3 {
                cores.push(&[x0 + x as f64, y as f64]);
                labels.push(label);
            }
        }
    }
    let artifact = ModelArtifact {
        eps: 1.2,
        min_pts: 3,
        num_clusters: 2,
        cores,
        core_labels: labels,
        boundaries: None,
        quality: None,
        sampling: None,
    };
    let mut engine = Engine::new(&artifact);
    assert_eq!(engine.staleness(), 0.0);

    // A plain core removal is one unit of drift over 18 fitted cores.
    assert!(matches!(
        engine.remove(&[0.0, 0.0]),
        dbsvec_engine::RemoveOutcome::Removed { .. }
    ));
    assert_eq!(engine.staleness(), 1.0 / 18.0);
    // A miss is not drift.
    assert_eq!(
        engine.remove(&[50.0, 50.0]),
        dbsvec_engine::RemoveOutcome::NotFound
    );
    assert_eq!(engine.staleness(), 1.0 / 18.0);

    // Bridge the grids (3 promotions + 2 merges), then tear the keystone
    // out (1 removal + 2 demotions + 1 split, leaving 2 buffered): every
    // term of the drift sum is now exercised.
    for p in [[3.0, 1.0], [5.0, 1.0], [4.0, 1.0]] {
        engine.ingest(&p);
    }
    assert_eq!(engine.staleness(), (1 + 3 + 2) as f64 / 18.0);
    assert_eq!(
        engine.remove(&[4.0, 1.0]),
        dbsvec_engine::RemoveOutcome::Removed {
            was_core: true,
            demoted: 2,
            splits: 1,
        }
    );
    let stats = engine.stats();
    assert_eq!(
        (stats.removals, stats.demotions, stats.splits),
        (2, 2, 1),
        "decremental counters feed the drift sum"
    );
    assert_eq!(engine.staleness(), (2 + 2 + 1 + 3 + 2 + 2) as f64 / 18.0);
}
