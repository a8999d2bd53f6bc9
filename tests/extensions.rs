//! Integration tests for the beyond-the-paper extensions: out-of-sample
//! prediction through the serving engine and the SVDD boundary extraction
//! — exercised together through the facade — plus DBSVEC answered by a
//! second exact index engine.

use dbsvec::datasets::gaussian_mixture;
use dbsvec::engine::{Engine, ModelArtifact};
use dbsvec::index::KdTree;
use dbsvec::svdd::{
    decision_boundary_around_targets, kernel_width_center_radius, GaussianKernel, SvddProblem,
};
use dbsvec::{Dbsvec, DbsvecConfig};

#[test]
fn dbsvec_over_a_kd_tree_matches_the_rtree_run() {
    let ds = gaussian_mixture(1500, 16, 5, 900.0, 1e5, 3);
    let eps = dbsvec::datasets::standins::suggest_eps(&ds.points, 8, 1);
    let config = DbsvecConfig::new(eps, 8);
    let via_rtree = Dbsvec::new(config.clone()).fit(&ds.points);
    let kd = KdTree::build(&ds.points);
    let via_kd = Dbsvec::new(config).fit_with_index(&ds.points, &kd);
    // Exact engines => identical clusterings. (Run *statistics* may differ
    // in the last few support vectors: engines report neighbors in
    // different orders, which perturbs SMO tie-breaks.)
    assert_eq!(via_rtree.labels(), via_kd.labels());
    let (a, b) = (via_rtree.stats(), via_kd.stats());
    assert_eq!(a.seeds, b.seeds);
    assert!(
        (a.range_queries as f64 - b.range_queries as f64).abs() <= 0.05 * a.range_queries as f64
    );
}

#[test]
fn fitted_model_classifies_a_held_out_stream() {
    // Fit on one sample of the generator, predict a fresh sample.
    let train = gaussian_mixture(1200, 3, 4, 700.0, 1e5, 11);
    let eps = dbsvec::datasets::standins::suggest_eps(&train.points, 8, 3);
    let result = Dbsvec::new(DbsvecConfig::new(eps, 8)).fit(&train.points);
    assert_eq!(result.num_clusters(), 4);
    let artifact =
        ModelArtifact::from_fit(&train.points, result.labels(), result.core_points(), eps, 8)
            .expect("valid fit produces a valid model");
    let engine = Engine::new(&artifact);

    let test = gaussian_mixture(1200, 3, 4, 700.0, 1e5, 11); // same centers (same seed)
    let predictions: Vec<Option<u32>> = test
        .points
        .iter()
        .map(|(_, q)| engine.classify(q).cluster())
        .collect();
    // Ground-truth agreement: points of one generator cluster map to one
    // predicted cluster.
    let mut agree = 0;
    let mut total = 0;
    for i in 0..test.len() {
        for j in (i + 1)..test.len().min(i + 40) {
            let same_truth = test.truth[i] == test.truth[j];
            if let (Some(a), Some(b)) = (predictions[i], predictions[j]) {
                total += 1;
                if (a == b) == same_truth {
                    agree += 1;
                }
            }
        }
    }
    assert!(total > 1000, "too few classified pairs ({total})");
    assert!(
        agree as f64 > 0.99 * total as f64,
        "pairwise agreement {agree}/{total}"
    );
}

#[test]
fn boundary_extraction_composes_with_clustering() {
    // Cluster a mixture with DBSVEC, then describe one found cluster with
    // SVDD and check the boundary separates it from the other cluster.
    let ds = gaussian_mixture(1200, 2, 2, 2000.0, 1e5, 21);
    let eps = dbsvec::datasets::standins::suggest_eps(&ds.points, 8, 4);
    let result = Dbsvec::new(DbsvecConfig::new(eps, 8)).fit(&ds.points);
    assert_eq!(result.num_clusters(), 2);
    let members = result.labels().cluster_members();
    let cluster0 = &members[0];

    let sigma = kernel_width_center_radius(&ds.points, cluster0);
    let model = SvddProblem::new(&ds.points, cluster0, GaussianKernel::from_width(sigma))
        .with_nu(0.02)
        .solve();
    let segments = decision_boundary_around_targets(&model, &ds.points, 500.0, 120);
    assert!(!segments.is_empty());

    // Nearly all of cluster 0 inside; nearly all of cluster 1 outside.
    let inside = |ids: &[u32]| {
        ids.iter()
            .filter(|&&id| model.contains(&ds.points, ds.points.point(id)))
            .count()
    };
    let own = inside(cluster0);
    let other = inside(&members[1]);
    assert!(
        own as f64 > 0.9 * cluster0.len() as f64,
        "{own}/{}",
        cluster0.len()
    );
    assert!(
        (other as f64) < 0.1 * members[1].len() as f64,
        "{other}/{}",
        members[1].len()
    );
}
