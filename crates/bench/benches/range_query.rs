//! Microbenchmark: the three range-query engines.
//!
//! Every algorithm in the workspace reduces to ε-range queries, so the
//! engine choice dominates end-to-end cost. Expected ordering on clustered
//! data: kd-tree ≈ R\*-tree ≪ linear scan, with build costs in the
//! opposite order. The `kdtree_nearest` rows time the kd-tree's bounded
//! nearest-neighbour search within the same ε, from the same queries
//! moved off the sample.

use dbsvec_bench::micro::{black_box, Runner};
use dbsvec_datasets::{random_walk_clusters, RandomWalkConfig};
use dbsvec_geometry::PointSet;
use dbsvec_index::{KdTree, LinearScan, RStarTree, RangeIndex};

fn main() {
    let runner = Runner::from_env("range_query");
    bench_queries(&runner);
    bench_builds(&runner);
}

fn workload(n: usize, d: usize) -> PointSet {
    random_walk_clusters(&RandomWalkConfig::paper_default(n, d), 42).points
}

fn queries(points: &PointSet, count: usize) -> Vec<Vec<f64>> {
    (0..count)
        .map(|i| points.point(((i * 97) % points.len()) as u32).to_vec())
        .collect()
}

fn bench_queries(runner: &Runner) {
    println!("range_query (50 queries per sample)");
    let eps = 5000.0;
    let sizes = if runner.is_quick() {
        vec![2_000usize]
    } else {
        vec![10_000usize, 50_000]
    };
    for &n in &sizes {
        let points = workload(n, 8);
        let qs = queries(&points, 50);
        let mut out = Vec::new();

        let linear = LinearScan::build(&points);
        runner.bench(&format!("linear/{n}"), || {
            for q in &qs {
                out.clear();
                linear.range(black_box(q), eps, &mut out);
            }
            out.len()
        });

        let kd = KdTree::build(&points);
        runner.bench(&format!("kdtree/{n}"), || {
            for q in &qs {
                out.clear();
                kd.range(black_box(q), eps, &mut out);
            }
            out.len()
        });
        // The bounded nearest-neighbour search within the same ε: the
        // assign and noise-verification rule, without materializing hits.
        // The probes are moved off the sample (ε/4 along every axis), as
        // served traffic is, so no search stops at a distance-0 hit.
        let off: Vec<Vec<f64>> = qs
            .iter()
            .map(|q| q.iter().map(|x| x + eps / 4.0).collect())
            .collect();
        runner.bench(&format!("kdtree_nearest/{n}"), || {
            off.iter()
                .filter(|q| kd.nearest_within(black_box(q), eps, |_| true).is_some())
                .count()
        });

        let rstar = RStarTree::build(&points);
        runner.bench(&format!("rstar/{n}"), || {
            for q in &qs {
                out.clear();
                rstar.range(black_box(q), eps, &mut out);
            }
            out.len()
        });
    }
}

fn bench_builds(runner: &Runner) {
    let n = runner.size(50_000, 5_000);
    println!("index_build (n={n})");
    let points = workload(n, 8);
    runner.bench("kdtree", || KdTree::build(black_box(&points)).node_count());
    runner.bench("rstar_bulk", || {
        RStarTree::build(black_box(&points)).height()
    });
}
