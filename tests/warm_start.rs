//! Warm-started SMO is an optimization, not a semantic change: fitting
//! with the default warm-started solver must produce the exact
//! cluster labels the `cold_start()` solver produces on the tier-1 fixture
//! datasets, with both terminating at the same KKT tolerance (no training
//! may exhaust its iteration budget).
//!
//! Labels are compared with exact equality — not recall or ARI — because
//! the warm start only changes the solver's *path* to the ε-optimal dual,
//! and the support-vector sets that drive expansion must be unaffected.

use dbsvec::core::{Clustering, DbsvecStats};
use dbsvec::datasets::{chameleon_t48k, gaussian_mixture, random_walk_clusters, RandomWalkConfig};
use dbsvec::{Dbsvec, DbsvecConfig, PointSet};

fn fit(points: &PointSet, config: DbsvecConfig) -> (Clustering, DbsvecStats) {
    let result = Dbsvec::new(config).fit(points);
    let stats = *result.stats();
    (result.into_labels(), stats)
}

/// Warm and cold fits on one dataset: exact label equality and full
/// convergence (KKT ≤ tolerance) on both sides. Core *sets* may differ by
/// a few marginal support vectors (both duals are ε-optimal, not equal);
/// the labels may not.
fn assert_equivalent(name: &str, points: &PointSet, eps: f64, min_pts: usize) {
    let (warm_labels, warm_stats) = fit(points, DbsvecConfig::new(eps, min_pts));
    let (cold_labels, cold_stats) = fit(points, DbsvecConfig::new(eps, min_pts).cold_start());

    assert_eq!(
        warm_labels, cold_labels,
        "{name}: warm start changed the cluster labels"
    );
    // Both solvers must have terminated by convergence, i.e. at KKT
    // violation ≤ the shared tolerance — never by budget exhaustion.
    assert_eq!(
        warm_stats.iterations_exhausted, 0,
        "{name}: a warm training exhausted its iteration budget"
    );
    assert_eq!(
        cold_stats.iterations_exhausted, 0,
        "{name}: a cold training exhausted its iteration budget"
    );
    // The solver-path counters must reflect the configuration: cold fits
    // never warm-start; warm fits reuse α whenever a sub-cluster trains
    // more than once.
    assert_eq!(cold_stats.warm_started_trainings, 0, "{name}");
    // One solver session per seeded sub-cluster, whose first solve is
    // necessarily cold: every remaining training must have warm-started.
    assert_eq!(
        warm_stats.warm_started_trainings,
        warm_stats.svdd_trainings - warm_stats.seeds,
        "{name}: every non-first training of a sub-cluster should warm-start",
    );
    // Note: round/query counts may differ by a hair between the two sides
    // (both duals are ε-optimal but not identical, so an SV set can differ
    // marginally and spend one extra round discovering nothing) — the
    // labels above are the contract, and they may not.
}

#[test]
fn chameleon_labels_are_identical_warm_vs_cold() {
    let ds = chameleon_t48k(42);
    let min_pts = 10;
    let eps = dbsvec::datasets::standins::suggest_eps(&ds.points, min_pts, 1);
    assert_equivalent("chameleon_t48k", &ds.points, eps, min_pts);
}

#[test]
fn gaussian_mixture_labels_are_identical_warm_vs_cold() {
    for (d, k) in [(2usize, 8usize), (9, 4), (16, 6)] {
        let ds = gaussian_mixture(1200, d, k, 1000.0, 1e5, 7 + d as u64);
        let min_pts = 8;
        let eps = dbsvec::datasets::standins::suggest_eps(&ds.points, min_pts, 2);
        assert_equivalent(&format!("gaussian d={d}"), &ds.points, eps, min_pts);
    }
}

#[test]
fn random_walk_labels_are_identical_warm_vs_cold() {
    let ds = random_walk_clusters(&RandomWalkConfig::paper_default(8000, 8), 3);
    assert_equivalent("random_walk", &ds.points, 5000.0, 100);
}
