//! Randomized property tests: every engine is an exact range-query oracle.
//!
//! Deterministic SplitMix64-driven instance loops; fixed seeds make every
//! failure exactly reproducible.

use dbsvec_geometry::rng::SplitMix64;
use dbsvec_geometry::PointId;
use dbsvec_geometry::PointSet;
use dbsvec_index::{CountingIndex, KdTree, LinearScan, OwnedKdTree, RStarTree, RangeIndex};

/// Every width the kd-tree compiles its own kernels for, and one above
/// them that runs at the run-time width.
const WIDTHS: [usize; 9] = [1, 2, 3, 4, 5, 6, 7, 8, 12];

fn point_set(rng: &mut SplitMix64, max_n: usize, max_d: usize) -> PointSet {
    let d = 1 + rng.next_below(max_d as u64) as usize;
    point_set_of_width(rng, max_n, d)
}

fn point_set_of_width(rng: &mut SplitMix64, max_n: usize, d: usize) -> PointSet {
    let n = 1 + rng.next_below(max_n as u64) as usize;
    let rows: Vec<Vec<f64>> = (0..n)
        .map(|_| {
            (0..d)
                .map(|_| rng.next_f64_range(-1000.0, 1000.0))
                .collect()
        })
        .collect();
    PointSet::from_rows(&rows)
}

#[test]
fn count_equals_materialized_for_every_engine() {
    let mut rng = SplitMix64::new(0x1DEA);
    for d in WIDTHS.repeat(6) {
        let ps = point_set_of_width(&mut rng, 100, d);
        let eps = rng.next_f64_range(0.0, 500.0);
        let q = ps.point(rng.next_below(ps.len() as u64) as u32).to_vec();
        let engines: Vec<Box<dyn RangeIndex + '_>> = vec![
            Box::new(LinearScan::build(&ps)),
            Box::new(KdTree::build(&ps)),
            Box::new(RStarTree::build(&ps)),
        ];
        let expected = engines[0].range_vec(&q, eps).len();
        for engine in &engines {
            assert_eq!(engine.count_range(&q, eps), expected);
            assert_eq!(engine.range_vec(&q, eps).len(), expected);
        }
        // The query point itself is always in its own closed neighborhood.
        assert!(expected >= 1);
    }
}

#[test]
fn results_are_unique_ids() {
    let mut rng = SplitMix64::new(0x2BAD);
    for _ in 0..48 {
        let ps = point_set(&mut rng, 80, 2);
        let eps = rng.next_f64_range(0.0, 2000.0);
        let q = ps.point(0).to_vec();
        for result in [
            KdTree::build(&ps).range_vec(&q, eps),
            RStarTree::build(&ps).range_vec(&q, eps),
        ] {
            let mut sorted = result.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), result.len(), "duplicate ids reported");
        }
    }
}

#[test]
fn monotone_in_radius() {
    let mut rng = SplitMix64::new(0x3CAB);
    for _ in 0..48 {
        let ps = point_set(&mut rng, 60, 3);
        let eps = rng.next_f64_range(0.1, 300.0);
        let q = ps.point(0).to_vec();
        let tree = KdTree::build(&ps);
        let small = tree.count_range(&q, eps);
        let large = tree.count_range(&q, eps * 2.0);
        assert!(large >= small);
    }
}

#[test]
fn counting_wrapper_is_transparent() {
    let mut rng = SplitMix64::new(0x4FAB);
    for _ in 0..48 {
        let ps = point_set(&mut rng, 50, 2);
        let eps = rng.next_f64_range(0.0, 500.0);
        let q = ps.point(0).to_vec();
        let plain = KdTree::build(&ps);
        let counted = CountingIndex::new(KdTree::build(&ps));
        let mut a = plain.range_vec(&q, eps);
        let mut b = counted.range_vec(&q, eps);
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
        assert_eq!(counted.stats().queries, 1);
    }
}

/// The nearest-within-ε answer by brute force: the lexicographic minimum of
/// (squared distance, id) over the kept points in the closed ball.
fn brute_nearest(ps: &PointSet, q: &[f64], eps: f64, keep: &[bool]) -> Option<(f64, PointId)> {
    let mut best: Option<(f64, PointId)> = None;
    for id in 0..ps.len() as PointId {
        let d = ps.squared_distance_to(id, q);
        if keep[id as usize] && d <= eps * eps && best.map_or(true, |(bd, _)| d < bd) {
            best = Some((d, id));
        }
    }
    best
}

#[test]
fn nearest_within_matches_brute_force_on_both_wrappers() {
    let mut rng = SplitMix64::new(0x6E4E);
    for n in [0usize, 1, 500] {
        for d in WIDTHS {
            // Small integer coordinates, then a block of exact copies:
            // duplicated points and exact distance ties are the common case.
            let mut ps = PointSet::new(d);
            let mut row = vec![0.0; d];
            for i in 0..n {
                if i >= 4 && i % 5 == 0 {
                    let src = rng.next_below(i as u64) as PointId;
                    row.copy_from_slice(ps.point(src));
                } else {
                    for x in &mut row {
                        *x = rng.next_below(12) as f64;
                    }
                }
                ps.push(&row);
            }
            let borrowed = KdTree::build(&ps);
            let owned = OwnedKdTree::build(ps.clone());
            let all = vec![true; n];
            let some: Vec<bool> = (0..n).map(|_| rng.next_below(3) != 0).collect();
            for probe in 0..60 {
                let eps: f64 = [0.0, 0.5, 1.0, 2.0, 3.0, 1e9][(probe / 2) % 6];
                let q: Vec<f64> = if n > 0 && probe % 2 == 0 {
                    // Exactly ε from a point along one axis (all values
                    // here are exact in binary, so the squared distance is
                    // exactly ε²).
                    let mut q = ps.point(rng.next_below(n as u64) as PointId).to_vec();
                    q[rng.next_below(d as u64) as usize] += eps.min(3.0);
                    q
                } else {
                    // Half-integer probes sit equidistant from many points.
                    (0..d).map(|_| rng.next_below(24) as f64 * 0.5).collect()
                };
                for keep in [&all, &some] {
                    let want = brute_nearest(&ps, &q, eps, keep);
                    let filter = |id: PointId| keep[id as usize];
                    assert_eq!(
                        borrowed.nearest_within(&q, eps, filter),
                        want,
                        "n={n} d={d} eps={eps} q={q:?}"
                    );
                    assert_eq!(owned.nearest_within(&q, eps, filter), want);
                }
            }
        }
    }
}

/// What a range query must return, in order, from an engine whose leaves
/// hold `stored` (its ids in leaf order): a traversal of every leaf with
/// the plain push-if-within loop that the trees' branch-free leaf scan
/// must reproduce. Pruning does not change the list: the box bounds are
/// monotone in each coordinate, so a pruned box holds no point within ε
/// and a whole-reported box holds no point beyond it.
fn reference_range(ps: &PointSet, stored: &[PointId], q: &[f64], eps: f64) -> Vec<PointId> {
    let eps_sq = eps * eps;
    let mut out = Vec::new();
    for &id in stored {
        if ps.squared_distance_to(id, q) <= eps_sq {
            out.push(id);
        }
    }
    out
}

#[test]
fn tree_ranges_report_their_leaf_order_exactly() {
    type Coordinate = fn(&mut SplitMix64) -> f64;
    // Lattice coordinates and integer radii put many points exactly at ε
    // (every squared distance is an exact integer); the duplicate-heavy set
    // draws each row from eight distinct ones.
    let inputs: [(&str, Coordinate, [f64; 4]); 3] = [
        (
            "random",
            |rng| rng.next_f64_range(-100.0, 100.0),
            [0.0, 7.5, 30.0, 90.0],
        ),
        (
            "lattice",
            |rng| rng.next_below(7) as f64,
            [0.0, 1.0, 2.0, 3.0],
        ),
        (
            "duplicates",
            |rng| (rng.next_below(2) * 3) as f64,
            [0.0, 1.0, 3.0, 4.5],
        ),
    ];
    let mut rng = SplitMix64::new(0x0DE2);
    for (name, coordinate, radii) in inputs {
        for d in WIDTHS {
            for n in [1usize, 17, 300, 3_000] {
                let flat: Vec<f64> = if name == "duplicates" {
                    let rows: Vec<f64> = (0..8 * d).map(|_| coordinate(&mut rng)).collect();
                    (0..n)
                        .flat_map(|_| {
                            let r = rng.next_below(8) as usize;
                            rows[r * d..(r + 1) * d].to_vec()
                        })
                        .collect()
                } else {
                    (0..n * d).map(|_| coordinate(&mut rng)).collect()
                };
                let ps = PointSet::from_flat(d, flat);
                let engines: [(&str, Box<dyn RangeIndex + '_>); 3] = [
                    ("kdtree", Box::new(KdTree::build(&ps))),
                    ("owned kdtree", Box::new(OwnedKdTree::build(ps.clone()))),
                    ("rstar", Box::new(RStarTree::build(&ps))),
                ];
                for (engine_name, engine) in &engines {
                    // A ball covering every point reports each leaf whole,
                    // in leaf order.
                    let stored = engine.range_vec(&vec![0.0; d], 1e9);
                    let mut sorted = stored.clone();
                    sorted.sort_unstable();
                    assert_eq!(sorted, (0..n as PointId).collect::<Vec<_>>());
                    for probe in 0..24 {
                        let q: Vec<f64> = if probe % 2 == 0 {
                            ps.point(rng.next_below(n as u64) as PointId).to_vec()
                        } else {
                            (0..d).map(|_| coordinate(&mut rng)).collect()
                        };
                        let eps = radii[probe / 2 % radii.len()];
                        let mut out = vec![PointId::MAX];
                        engine.range(&q, eps, &mut out);
                        let mut want = vec![PointId::MAX];
                        want.extend(reference_range(&ps, &stored, &q, eps));
                        assert_eq!(out, want, "{name} {engine_name} d={d} n={n} eps={eps}");
                    }
                }
            }
        }
    }
}
