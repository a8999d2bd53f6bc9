//! Cross-algorithm consistency: the exact algorithms agree bit-for-bit
//! with each other and with DBSCAN's definition written as a brute-force
//! loop, the approximate ones stay within their advertised slack.

use dbsvec::baselines::{Dbscan, DbscanLsh, KMeans, NqDbscan, RhoApproxDbscan};
use dbsvec::core::Clustering;
use dbsvec::datasets::{gaussian_mixture, random_walk_clusters, RandomWalkConfig};
use dbsvec::geometry::rng::SplitMix64;
use dbsvec::index::{KdTree, LinearScan, RStarTree};
use dbsvec::metrics::recall;
use dbsvec::PointSet;

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

/// DBSCAN's definition, evaluated by brute force in O(n²) with no index.
struct DbscanOracle {
    /// Whether each point's closed ε-ball holds at least MinPts points,
    /// counting the point itself.
    core: Vec<bool>,
    /// The core points within ε of each point (itself included when core).
    core_neighbors: Vec<Vec<usize>>,
    /// Each core point's connected component in the core graph, whose
    /// edges join cores within ε of each other; `None` for non-core points.
    component: Vec<Option<usize>>,
    components: usize,
}

impl DbscanOracle {
    fn new(ps: &PointSet, eps: f64, min_pts: usize) -> Self {
        let n = ps.len();
        let eps_sq = eps * eps;
        let within = |i: usize, j: usize| ps.squared_distance(i as u32, j as u32) <= eps_sq;
        let core: Vec<bool> = (0..n)
            .map(|i| (0..n).filter(|&j| within(i, j)).count() >= min_pts)
            .collect();
        let core_neighbors: Vec<Vec<usize>> = (0..n)
            .map(|i| (0..n).filter(|&j| core[j] && within(i, j)).collect())
            .collect();
        let mut component = vec![None; n];
        let mut components = 0;
        for start in (0..n).filter(|&i| core[i]) {
            if component[start].is_some() {
                continue;
            }
            component[start] = Some(components);
            let mut stack = vec![start];
            while let Some(i) = stack.pop() {
                for &j in &core_neighbors[i] {
                    if component[j].is_none() {
                        component[j] = Some(components);
                        stack.push(j);
                    }
                }
            }
            components += 1;
        }
        Self {
            core,
            core_neighbors,
            component,
            components,
        }
    }

    /// Panics unless `labels` is a DBSCAN clustering: its clusters restricted
    /// to the core points are exactly the core graph's components, its noise
    /// is exactly the non-core points with no core within ε, and every
    /// border point carries the label of some core within ε.
    fn check(&self, labels: &Clustering, what: &str) {
        let n = self.core.len();
        assert_eq!(labels.len(), n, "{what}: label count");
        assert_eq!(labels.num_clusters(), self.components, "{what}: clusters");
        let mut label_of = vec![None; self.components];
        let mut component_of = vec![None; self.components];
        for i in 0..n {
            let Some(c) = self.component[i] else {
                continue;
            };
            let label = labels
                .get(i)
                .unwrap_or_else(|| panic!("{what}: core point {i} is noise"));
            assert!((label as usize) < self.components, "{what}: label {label}");
            assert_eq!(
                *label_of[c].get_or_insert(label),
                label,
                "{what}: component {c} split at core point {i}"
            );
            assert_eq!(
                *component_of[label as usize].get_or_insert(c),
                c,
                "{what}: label {label} joins two components at core point {i}"
            );
        }
        for i in (0..n).filter(|&i| !self.core[i]) {
            let near = &self.core_neighbors[i];
            match labels.get(i) {
                None => assert!(near.is_empty(), "{what}: border point {i} is noise"),
                Some(label) => assert!(
                    near.iter().any(|&j| labels.get(j) == Some(label)),
                    "{what}: point {i} has label {label} but no core of it within eps"
                ),
            }
        }
    }
}

/// Checks every exact DBSCAN — over the R*-tree, the kd-tree and a linear
/// scan, and NQ-DBSCAN — against the brute-force definition.
fn assert_exact_clusterers_match_the_oracle(ps: &PointSet, eps: f64, min_pts: usize, case: &str) {
    let oracle = DbscanOracle::new(ps, eps, min_pts);
    let dbscan = Dbscan::new(eps, min_pts);
    for (name, labels) in [
        ("R-DBSCAN", dbscan.fit(ps).clustering),
        (
            "kd-DBSCAN",
            dbscan.fit_with_index(ps, &KdTree::build(ps)).clustering,
        ),
        (
            "linear-scan DBSCAN",
            dbscan.fit_with_index(ps, &LinearScan::build(ps)).clustering,
        ),
        ("NQ-DBSCAN", NqDbscan::new(eps, min_pts).fit(ps).clustering),
    ] {
        oracle.check(
            &labels,
            &format!("{name} on {case}, eps {eps}, MinPts {min_pts}"),
        );
    }
}

#[test]
fn exact_clusterers_match_the_definition_on_random_sets() {
    let mut rng = SplitMix64::new(0x0AC1E);
    for round in 0..200 {
        let d = 1 + rng.next_below(3) as usize;
        let n = rng.next_below(150) as usize;
        let mut ps = PointSet::new(d);
        let mut row = vec![0.0; d];
        for _ in 0..n {
            for v in row.iter_mut() {
                *v = rng.next_f64_range(-100.0, 100.0);
            }
            ps.push(&row);
        }
        // ε in units of the mean spacing of n points in [-100, 100]^d.
        let spacing = 200.0 / (n.max(1) as f64).powf(1.0 / d as f64);
        let eps = spacing * rng.next_f64_range(0.3, 2.0);
        let min_pts = 1 + rng.next_below(8) as usize;
        assert_exact_clusterers_match_the_oracle(
            &ps,
            eps,
            min_pts,
            &format!("round {round} (n {n}, d {d})"),
        );
    }
}

#[test]
fn exact_clusterers_match_the_definition_on_edge_cases() {
    let mut rng = SplitMix64::new(0xED6E);
    for d in 1..=3usize {
        for min_pts in [1, 2] {
            let mut ps = PointSet::new(d);
            assert_exact_clusterers_match_the_oracle(&ps, 1.0, min_pts, "an empty set");
            ps.push(&vec![0.0; d]);
            assert_exact_clusterers_match_the_oracle(&ps, 1.0, min_pts, "one point");
        }

        // Integer lattices with a quarter of the sites left out: at ε = 1
        // and 2 many pairs sit exactly at ε. Every kept site is then
        // repeated up to three times.
        let side: usize = [40, 8, 4][d - 1];
        let sites: Vec<Vec<f64>> = (0..side.pow(d as u32))
            .map(|k| {
                (0..d)
                    .map(|a| ((k / side.pow(a as u32)) % side) as f64)
                    .collect()
            })
            .filter(|_| rng.next_below(4) != 0)
            .collect();
        let mut lattice = PointSet::new(d);
        let mut duplicated = PointSet::new(d);
        for site in &sites {
            lattice.push(site);
            for _ in 0..1 + rng.next_below(3) {
                duplicated.push(site);
            }
        }
        for eps in [1.0, 2.0] {
            for min_pts in [1, 2, 3, 5, 8] {
                let case = format!("a {d}-d lattice");
                assert_exact_clusterers_match_the_oracle(&lattice, eps, min_pts, &case);
                let case = format!("a {d}-d lattice of duplicates");
                assert_exact_clusterers_match_the_oracle(&duplicated, eps, min_pts, &case);
            }
        }

        // All noise: sites 3 apart, each with one twin exactly ε = 1 away.
        let mut sparse = PointSet::new(d);
        for k in 0..20 {
            let mut row = vec![0.0; d];
            row[0] = 3.0 * k as f64;
            sparse.push(&row);
            row[d - 1] += 1.0;
            sparse.push(&row);
        }
        let oracle = DbscanOracle::new(&sparse, 1.0, 3);
        assert!(oracle.core.iter().all(|&c| !c), "the sparse set has a core");
        assert_exact_clusterers_match_the_oracle(&sparse, 1.0, 3, "an all-noise set");
    }
}
