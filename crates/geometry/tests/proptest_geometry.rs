//! Randomized property tests for the geometric substrate.
//!
//! Deterministic SplitMix64-driven instance loops: each test draws a fixed
//! number of random instances from a fixed seed, so every failure
//! reproduces exactly with no external test-framework dependency.

use dbsvec_geometry::rng::SplitMix64;
use dbsvec_geometry::{euclidean, squared_euclidean, PointSet};

fn vector(rng: &mut SplitMix64, d: usize, lo: f64, hi: f64) -> Vec<f64> {
    (0..d).map(|_| rng.next_f64_range(lo, hi)).collect()
}

fn rows(rng: &mut SplitMix64, n: usize, d: usize, lo: f64, hi: f64) -> Vec<Vec<f64>> {
    (0..n).map(|_| vector(rng, d, lo, hi)).collect()
}

#[test]
fn distance_is_a_metric_on_samples() {
    let mut rng = SplitMix64::new(0xA11CE);
    for _ in 0..128 {
        let a = vector(&mut rng, 4, -1e6, 1e6);
        let b = vector(&mut rng, 4, -1e6, 1e6);
        let c = vector(&mut rng, 4, -1e6, 1e6);
        let ab = euclidean(&a, &b);
        let ba = euclidean(&b, &a);
        assert_eq!(ab, ba, "symmetry");
        assert!(ab >= 0.0, "non-negativity");
        assert_eq!(euclidean(&a, &a), 0.0, "identity");
        // Triangle inequality with a float-scale tolerance.
        let ac = euclidean(&a, &c);
        let cb = euclidean(&c, &b);
        assert!(ab <= ac + cb + 1e-6 * (1.0 + ab), "triangle");
    }
}

#[test]
fn squared_distance_is_consistent() {
    let mut rng = SplitMix64::new(0xB0B);
    for _ in 0..128 {
        let a = vector(&mut rng, 3, -1e6, 1e6);
        let b = vector(&mut rng, 3, -1e6, 1e6);
        let d = euclidean(&a, &b);
        let d2 = squared_euclidean(&a, &b);
        assert!((d * d - d2).abs() <= 1e-9 * (1.0 + d2));
    }
}

#[test]
fn bbox_distance_bounds_bracket_every_member() {
    let mut rng = SplitMix64::new(0xC0FFEE);
    for _ in 0..128 {
        let n = 1 + rng.next_below(59) as usize;
        let ps = PointSet::from_rows(&rows(&mut rng, n, 3, -1e3, 1e3));
        let query = vector(&mut rng, 3, -2e3, 2e3);
        let bbox = ps.bounding_box().unwrap();
        for (_, p) in ps.iter() {
            let d2 = squared_euclidean(p, &query);
            assert!(bbox.min_squared_distance(&query) <= d2 + 1e-9);
            assert!(bbox.max_squared_distance(&query) >= d2 - 1e-9);
        }
    }
}

#[test]
fn bbox_union_contains_both() {
    let mut rng = SplitMix64::new(0xD00D);
    for _ in 0..128 {
        let na = 1 + rng.next_below(19) as usize;
        let nb = 1 + rng.next_below(19) as usize;
        let pa = PointSet::from_rows(&rows(&mut rng, na, 2, -1e3, 1e3));
        let pb = PointSet::from_rows(&rows(&mut rng, nb, 2, -1e3, 1e3));
        let ba = pa.bounding_box().unwrap();
        let bb = pb.bounding_box().unwrap();
        let mut u = ba.clone();
        u.expand_to_box(&bb);
        for (_, p) in pa.iter().chain(pb.iter()) {
            assert!(u.contains_point(p));
        }
        // And no larger: the box of both sets pooled.
        let mut pooled = pa.clone();
        for (_, p) in pb.iter() {
            pooled.push(p);
        }
        assert_eq!(u, pooled.bounding_box().unwrap());
    }
}

#[test]
fn subset_round_trips_coordinates() {
    let mut rng = SplitMix64::new(0xF00);
    for _ in 0..128 {
        let n = 1 + rng.next_below(29) as usize;
        let ps = PointSet::from_rows(&rows(&mut rng, n, 2, -10.0, 10.0));
        let picks = rng.next_below(10) as usize;
        let ids: Vec<u32> = (0..picks)
            .map(|_| rng.next_below(ps.len() as u64) as u32)
            .collect();
        let sub = ps.subset(&ids);
        assert_eq!(sub.len(), ids.len());
        for (k, &id) in ids.iter().enumerate() {
            assert_eq!(sub.point(k as u32), ps.point(id));
        }
    }
}
