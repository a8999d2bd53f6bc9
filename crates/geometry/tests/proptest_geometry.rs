//! Randomized property tests for the geometric substrate.
//!
//! Deterministic SplitMix64-driven instance loops: each test draws a fixed
//! number of random instances from a fixed seed, so every failure
//! reproduces exactly with no external test-framework dependency.

use dbsvec_geometry::rng::SplitMix64;
use dbsvec_geometry::{bbox, euclidean, squared_euclidean, PointSet};

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

/// `bbox::min_squared_distance` in its branchy form, with a branch per
/// comparison: the reference the branch-free kernel must match bit for bit.
fn branchy_min_squared_distance(min: &[f64], max: &[f64], p: &[f64]) -> f64 {
    let mut acc = 0.0;
    for ((lo, hi), &x) in min.iter().zip(max).zip(p) {
        let diff = if x < *lo {
            *lo - x
        } else if x > *hi {
            x - *hi
        } else {
            0.0
        };
        acc += diff * diff;
    }
    acc
}

/// `bbox::expand_to_point` in its branchy form, with a conditional store per
/// corner coordinate.
fn branchy_expand_to_point(min: &mut [f64], max: &mut [f64], p: &[f64]) {
    for ((lo, hi), &x) in min.iter_mut().zip(max).zip(p) {
        if x < *lo {
            *lo = x;
        }
        if x > *hi {
            *hi = x;
        }
    }
}

/// Runs both kernels and their references on one box and query, and
/// asserts the same bits out of each pair. `min_squared_distance` is only
/// compared on boxes it accepts: `lo <= hi` in every dimension, or a NaN
/// corner.
fn assert_kernels_match(min: &[f64], max: &[f64], p: &[f64]) {
    let case = format!("min={min:?} max={max:?} p={p:?}");
    let valid = min
        .iter()
        .zip(max)
        .all(|(lo, hi)| lo <= hi || lo.is_nan() || hi.is_nan());
    if valid {
        assert_eq!(
            bbox::min_squared_distance(min, max, p).to_bits(),
            branchy_min_squared_distance(min, max, p).to_bits(),
            "min_squared_distance: {case}"
        );
    }
    let (mut lo, mut hi) = (min.to_vec(), max.to_vec());
    let (mut want_lo, mut want_hi) = (min.to_vec(), max.to_vec());
    bbox::expand_to_point(&mut lo, &mut hi, p);
    branchy_expand_to_point(&mut want_lo, &mut want_hi, p);
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&lo), bits(&want_lo), "expand_to_point min: {case}");
    assert_eq!(bits(&hi), bits(&want_hi), "expand_to_point max: {case}");
}

/// Coordinates at the kernels' edge cases: signed zeros, the smallest
/// subnormal, infinities, NaN, and finite values whose differences
/// overflow.
const SPECIAL: [f64; 12] = [
    f64::NEG_INFINITY,
    -f64::MAX,
    -1.5,
    -0.0,
    0.0,
    5e-324,
    1.5,
    1e300,
    f64::MAX,
    f64::INFINITY,
    f64::NAN,
    -f64::NAN,
];

#[test]
fn branch_free_box_kernels_match_the_branchy_ones_on_random_boxes() {
    let mut rng = SplitMix64::new(0xB0C5);
    for d in [1, 2, 8] {
        for _ in 0..4_000 {
            let mut min = vector(&mut rng, d, -1e3, 1e3);
            let mut max = vector(&mut rng, d, -1e3, 1e3);
            for (lo, hi) in min.iter_mut().zip(&mut max) {
                if *lo > *hi {
                    std::mem::swap(lo, hi);
                }
                // Some dimensions degenerate: the box is flat there.
                if rng.next_below(4) == 0 {
                    *hi = *lo;
                }
            }
            // Each coordinate inside, below, above, or exactly on the lower
            // or upper face; when every coordinate lands on a face the query
            // is a corner.
            let p: Vec<f64> = (0..d)
                .map(|k| match rng.next_below(5) {
                    0 => rng.next_f64_range(min[k], max[k]),
                    1 => min[k] - rng.next_f64_range(0.0, 1e3),
                    2 => max[k] + rng.next_f64_range(0.0, 1e3),
                    3 => min[k],
                    _ => max[k],
                })
                .collect();
            assert_kernels_match(&min, &max, &p);
        }
    }
}

#[test]
fn branch_free_box_kernels_match_the_branchy_ones_on_special_values() {
    // Every one-dimensional box and query over the special values: valid,
    // degenerate, inverted and NaN-cornered boxes, ±0.0 both ways round.
    for &lo in &SPECIAL {
        for &hi in &SPECIAL {
            for &x in &SPECIAL {
                assert_kernels_match(&[lo], &[hi], &[x]);
            }
        }
    }
    // Eight dimensions of them, so infinities and overflowed squares meet
    // finite terms in the running sum.
    let mut rng = SplitMix64::new(0x5EC1A1);
    let pick = |rng: &mut SplitMix64| SPECIAL[rng.next_below(SPECIAL.len() as u64) as usize];
    for _ in 0..20_000 {
        let mut min = Vec::with_capacity(8);
        let mut max = Vec::with_capacity(8);
        for _ in 0..8 {
            let (a, b) = (pick(&mut rng), pick(&mut rng));
            // Mostly valid boxes; NaN corners stay where they were drawn.
            let (lo, hi) = if b < a { (b, a) } else { (a, b) };
            min.push(lo);
            max.push(hi);
        }
        let p: Vec<f64> = (0..8)
            .map(|k| match rng.next_below(3) {
                0 => pick(&mut rng),
                1 => min[k],
                _ => max[k],
            })
            .collect();
        assert_kernels_match(&min, &max, &p);
    }
}
