//! Table II — empirical validation of DBSVEC's O(θn) cost model.
//!
//! The paper's complexity table claims DBSVEC needs `O(θn)` time with
//! `θ = s + 1 + k + m + MinPts·l ≪ n` (§III-D), versus DBSCAN's `O(n²)`
//! (n range queries). This harness fits DBSVEC over an R\*-tree, prints
//! the θ decomposition from the fit's `DbsvecStats` (folded from its event
//! stream), and prints n as DBSCAN's count: one query per point. The
//! check that `range_queries` equals what the index saw is made by
//! `CountingIndex` in two tests,
//! `dbsvec::tests::uses_far_fewer_range_queries_than_points` and
//! `tests/pipeline.rs`'s `reported_range_queries_match_the_index_counters`.

use dbsvec_bench::harness::time;
use dbsvec_bench::parse_args;
use dbsvec_core::{Dbsvec, DbsvecConfig};
use dbsvec_datasets::{random_walk_clusters, RandomWalkConfig};
use dbsvec_index::RStarTree;

fn main() {
    let args = parse_args();
    let sizes: Vec<usize> = [100_000usize, 500_000, 2_000_000]
        .iter()
        .map(|&n| ((n as f64 * args.scale) as usize).max(5_000))
        .collect();

    println!("Table II: range-query counts validating theta << n (d=8 synthetic)");
    println!(
        "{:>9} {:>8} {:>8} {:>8} {:>8} {:>8} {:>10} {:>8} {:>10}",
        "n", "seeds", "svdd", "SVs", "merges", "noise_l", "queries", "theta", "DBSCAN_q"
    );

    for &n in &sizes {
        let ds = random_walk_clusters(&RandomWalkConfig::paper_default(n, 8), args.seed);
        let (eps, min_pts) = (5000.0, 100);
        let points = &ds.points;
        let index = RStarTree::build(points);

        let (result, _) =
            time(|| Dbsvec::new(DbsvecConfig::new(eps, min_pts)).fit_with_index(points, &index));
        let s = result.stats();
        println!(
            "{:>9} {:>8} {:>8} {:>8} {:>8} {:>8} {:>10} {:>8.4} {:>10}",
            n,
            s.seeds,
            s.svdd_trainings,
            s.support_vectors,
            s.merges,
            s.noise_candidates,
            s.range_queries,
            s.theta(n),
            n // DBSCAN issues exactly one query per point
        );
    }
    println!();
    println!("theta << 1 confirms the Table II claim: DBSVEC is O(theta n), DBSCAN O(n) queries");
}
