//! Cross-algorithm consistency: the exact algorithms agree bit-for-bit,
//! the approximate ones stay within their advertised slack.

use dbsvec::baselines::{Dbscan, DbscanLsh, KMeans, NqDbscan, RhoApproxDbscan};
use dbsvec::datasets::{gaussian_mixture, random_walk_clusters, RandomWalkConfig};
use dbsvec::index::{KdTree, LinearScan, RStarTree};
use dbsvec::metrics::recall;

#[test]
fn dbscan_is_index_invariant() {
    let ds = gaussian_mixture(900, 4, 5, 800.0, 1e5, 1);
    let algo = Dbscan::new(2500.0, 6);
    let reference = algo
        .fit_with_index(&ds.points, &LinearScan::build(&ds.points))
        .clustering;
    let via_kd = algo
        .fit_with_index(&ds.points, &KdTree::build(&ds.points))
        .clustering;
    let via_rstar = algo
        .fit_with_index(&ds.points, &RStarTree::build(&ds.points))
        .clustering;
    assert_eq!(reference, via_kd);
    assert_eq!(reference, via_rstar);
}

#[test]
fn nq_dbscan_equals_dbscan_on_every_workload() {
    for seed in 0..3u64 {
        let ds = random_walk_clusters(&RandomWalkConfig::paper_default(4000, 5), seed);
        let exact = Dbscan::new(5000.0, 50).fit(&ds.points).clustering;
        let nq = NqDbscan::new(5000.0, 50).fit(&ds.points).clustering;
        assert_eq!(exact, nq, "seed {seed}");
    }
}

#[test]
fn rho_approx_recall_is_high_on_separated_data() {
    let ds = gaussian_mixture(1500, 3, 6, 900.0, 1e5, 2);
    let exact = Dbscan::new(2800.0, 8).fit(&ds.points).clustering;
    let approx = RhoApproxDbscan::new(2800.0, 8, 0.001)
        .fit(&ds.points)
        .clustering;
    let r = recall(exact.assignments(), approx.assignments());
    assert!(r > 0.99, "rho-approx recall {r}");
    assert_eq!(exact.num_clusters(), approx.num_clusters());
}

#[test]
fn lsh_recall_is_imperfect_but_useful() {
    // DBSCAN-LSH is the weakest approximation in the paper's Table III
    // (0.645–1.000); on well-separated mixtures it should stay high but it
    // may legitimately fragment clusters.
    let ds = gaussian_mixture(1500, 8, 5, 900.0, 1e5, 3);
    let exact = Dbscan::new(3500.0, 8).fit(&ds.points).clustering;
    let lsh = DbscanLsh::new(3500.0, 8, 7).fit(&ds.points).clustering;
    let r = recall(exact.assignments(), lsh.assignments());
    assert!(r > 0.5, "LSH recall collapsed: {r}");
    assert!(lsh.num_clusters() >= exact.num_clusters());
}

#[test]
fn kmeans_matches_generator_truth_on_separated_mixtures() {
    let ds = gaussian_mixture(800, 5, 4, 700.0, 1e5, 4);
    let result = KMeans::new(4, 9).fit(&ds.points);
    let r = recall(&ds.truth, result.clustering.assignments());
    assert!(r > 0.99, "k-means recall vs truth {r}");
}

#[test]
fn all_density_algorithms_see_the_same_obvious_structure() {
    let ds = gaussian_mixture(1200, 2, 4, 800.0, 1e5, 5);
    let eps = 2500.0;
    let min_pts = 8;
    let counts = [
        Dbscan::new(eps, min_pts)
            .fit(&ds.points)
            .clustering
            .num_clusters(),
        NqDbscan::new(eps, min_pts)
            .fit(&ds.points)
            .clustering
            .num_clusters(),
        RhoApproxDbscan::new(eps, min_pts, 0.001)
            .fit(&ds.points)
            .clustering
            .num_clusters(),
        dbsvec::dbsvec(&ds.points, eps, min_pts).num_clusters(),
    ];
    assert!(counts.iter().all(|&c| c == 4), "cluster counts {counts:?}");
}
