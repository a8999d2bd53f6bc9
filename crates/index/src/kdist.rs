//! k-distance profiles for choosing DBSCAN's ε.
//!
//! The standard parameterization methodology (Ester et al. 1996; refined
//! by Schubert et al. 2017, which the paper cites): plot the sorted
//! distances from each point to its k-th nearest neighbor and pick ε at
//! the "knee" — the density level separating cluster interiors from noise.
//!
//! Distances are found by a doubling radius search on any [`RangeIndex`],
//! so no dedicated k-NN structure is needed.

use dbsvec_geometry::{PointId, PointSet};

use crate::traits::RangeIndex;

/// Distance from point `id` to its `k`-th nearest *other* neighbor
/// (`k = 1` is the classic nearest neighbor).
///
/// Returns `None` when the set holds fewer than `k + 1` points.
///
/// # Panics
///
/// Panics if `k == 0`.
fn kth_neighbor_distance<I: RangeIndex>(
    points: &PointSet,
    index: &I,
    id: PointId,
    k: usize,
) -> Option<f64> {
    assert!(k >= 1, "k must be at least 1");
    if points.len() <= k {
        return None;
    }
    let q = points.point(id);

    // Doubling search for a radius containing at least k+1 points
    // (the query point itself is always reported).
    let mut radius = initial_radius(points);
    let mut hits: Vec<PointId> = Vec::new();
    loop {
        hits.clear();
        index.range(q, radius, &mut hits);
        if hits.len() > k {
            break;
        }
        radius *= 2.0;
        if !radius.is_finite() {
            return None; // duplicate-only data cannot reach k distinct radii
        }
    }

    let mut dists: Vec<f64> = hits
        .iter()
        .filter(|&&j| j != id)
        .map(|&j| points.squared_distance(id, j))
        .collect();
    let kth = k - 1;
    dists.select_nth_unstable_by(kth, |a, b| a.partial_cmp(b).expect("NaN distance"));
    Some(dists[kth].sqrt())
}

/// The sorted (descending) k-distance profile over a deterministic sample
/// of at most `sample` points — the curve practitioners eyeball for the
/// knee.
///
/// # Panics
///
/// Panics if `k == 0` or `sample == 0`.
pub fn k_distance_profile<I: RangeIndex>(
    points: &PointSet,
    index: &I,
    k: usize,
    sample: usize,
) -> Vec<f64> {
    assert!(sample >= 1, "sample must be at least 1");
    let n = points.len();
    let stride = (n / sample).max(1);
    let ids: Vec<PointId> = (0..n).step_by(stride).map(|i| i as PointId).collect();
    k_distance_profile_for_ids(points, index, k, &ids)
}

/// The sorted (descending) k-distance profile over an explicit id set —
/// the entry point sampled fits use to derive ε from the drawn subsample
/// while the exact path keeps its strided default.
///
/// Each id's k-th-neighbor search still ranges over the **full** index, so
/// a candidate subset profiles the same density landscape as the classic
/// sweep, just evaluated at fewer probes. When `ids` covers every point in
/// natural order the profile is identical to
/// [`k_distance_profile`]`(…, sample = n)`, so ε derivation at sampling
/// rate 1.0 matches the exact fit bit-for-bit.
///
/// # Panics
///
/// Panics if `k == 0`.
pub fn k_distance_profile_for_ids<I: RangeIndex>(
    points: &PointSet,
    index: &I,
    k: usize,
    ids: &[PointId],
) -> Vec<f64> {
    assert!(k >= 1, "k must be at least 1");
    let mut profile: Vec<f64> = ids
        .iter()
        .filter_map(|&id| kth_neighbor_distance(points, index, id, k))
        .collect();
    profile.sort_by(|a, b| b.partial_cmp(a).expect("NaN distance"));
    profile
}

/// Picks ε from a k-distance profile by the maximum-curvature ("knee")
/// heuristic: the sorted curve's point farthest from the chord between its
/// endpoints.
///
/// Returns `None` for profiles with fewer than 3 points.
pub fn knee_epsilon(profile: &[f64]) -> Option<f64> {
    if profile.len() < 3 {
        return None;
    }
    let n = profile.len() as f64;
    let (y0, y1) = (profile[0], profile[profile.len() - 1]);
    let mut best = (0.0, profile[profile.len() / 2]);
    for (i, &y) in profile.iter().enumerate() {
        // Distance from (i, y) to the chord (0, y0) -> (n-1, y1), up to a
        // constant factor (the chord length), which is rank-irrelevant.
        let t = i as f64 / (n - 1.0);
        let chord_y = y0 + t * (y1 - y0);
        let gap = (chord_y - y).abs();
        if gap > best.0 {
            best = (gap, y);
        }
    }
    Some(best.1)
}

fn initial_radius(points: &PointSet) -> f64 {
    match points.bounding_box() {
        Some(bbox) => {
            let diag = bbox.margin();
            if diag > 0.0 {
                diag / points.len() as f64
            } else {
                1.0
            }
        }
        None => 1.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linear::LinearScan;

    fn line(n: usize, step: f64) -> PointSet {
        let mut ps = PointSet::new(1);
        for i in 0..n {
            ps.push(&[i as f64 * step]);
        }
        ps
    }

    #[test]
    fn kth_distance_on_a_uniform_line() {
        let ps = line(100, 2.0);
        let idx = LinearScan::build(&ps);
        // Interior point: 1st neighbor at 2, 2nd at 2, 3rd at 4.
        assert_eq!(kth_neighbor_distance(&ps, &idx, 50, 1), Some(2.0));
        assert_eq!(kth_neighbor_distance(&ps, &idx, 50, 2), Some(2.0));
        assert_eq!(kth_neighbor_distance(&ps, &idx, 50, 3), Some(4.0));
        // Endpoint: neighbors only on one side.
        assert_eq!(kth_neighbor_distance(&ps, &idx, 0, 3), Some(6.0));
    }

    #[test]
    fn too_few_points_is_none() {
        let ps = line(3, 1.0);
        let idx = LinearScan::build(&ps);
        assert_eq!(kth_neighbor_distance(&ps, &idx, 0, 3), None);
        assert!(kth_neighbor_distance(&ps, &idx, 0, 2).is_some());
        // A profile skips such points, so one point or none profiles empty.
        let one = line(1, 1.0);
        assert!(k_distance_profile(&one, &LinearScan::build(&one), 3, 4).is_empty());
        let empty = PointSet::new(2);
        assert!(k_distance_profile(&empty, &LinearScan::build(&empty), 1, 1).is_empty());
    }

    #[test]
    fn profile_is_sorted_descending() {
        let ps = line(60, 1.5);
        let idx = LinearScan::build(&ps);
        let profile = k_distance_profile(&ps, &idx, 4, 30);
        assert!(!profile.is_empty());
        for w in profile.windows(2) {
            assert!(w[0] >= w[1]);
        }
    }

    #[test]
    fn knee_separates_cluster_from_noise_scale() {
        // Dense cluster (spacing 1) plus sparse outliers (spacing 100):
        // the knee ε should land between the two scales.
        let mut ps = PointSet::new(1);
        for i in 0..80 {
            ps.push(&[i as f64]);
        }
        for i in 0..8 {
            ps.push(&[10_000.0 + i as f64 * 100.0]);
        }
        let idx = LinearScan::build(&ps);
        let profile = k_distance_profile(&ps, &idx, 3, 88);
        let eps = knee_epsilon(&profile).unwrap();
        assert!(eps > 2.0 && eps < 400.0, "knee eps {eps} outside the gap");
    }

    #[test]
    fn knee_needs_three_points() {
        assert_eq!(knee_epsilon(&[1.0, 0.5]), None);
        assert!(knee_epsilon(&[9.0, 3.0, 1.0]).is_some());
    }

    #[test]
    fn full_coverage_id_profile_matches_the_classic_sweep() {
        // Sampling rate 1.0 must derive the exact fit's ε: profiling every
        // id in natural order reproduces the strided sweep (stride 1) and
        // therefore the same knee.
        let mut ps = PointSet::new(2);
        for i in 0..70 {
            ps.push(&[(i % 7) as f64 * 1.2, (i / 7) as f64 * 0.9]);
        }
        for i in 0..5 {
            ps.push(&[300.0 + i as f64 * 50.0, 80.0]);
        }
        let idx = LinearScan::build(&ps);
        let classic = k_distance_profile(&ps, &idx, 4, ps.len());
        let all_ids: Vec<PointId> = (0..ps.len() as PointId).collect();
        let by_ids = k_distance_profile_for_ids(&ps, &idx, 4, &all_ids);
        assert_eq!(classic, by_ids);
        assert_eq!(knee_epsilon(&classic), knee_epsilon(&by_ids));
    }

    #[test]
    fn subset_id_profile_probes_only_the_subset() {
        let ps = line(40, 1.0);
        let idx = LinearScan::build(&ps);
        let ids: Vec<PointId> = vec![3, 11, 27];
        let profile = k_distance_profile_for_ids(&ps, &idx, 2, &ids);
        assert_eq!(profile.len(), ids.len());
        // Every probed point still sees the full index: interior spacing 1,
        // so the 2nd neighbor is at distance 1 for each chosen id.
        assert!(profile.iter().all(|&d| d == 1.0), "profile {profile:?}");
        assert!(k_distance_profile_for_ids(&ps, &idx, 2, &[]).is_empty());
    }

    #[test]
    fn duplicate_points_terminate() {
        let ps = PointSet::from_rows(&vec![vec![1.0]; 10]);
        let idx = LinearScan::build(&ps);
        // All duplicates: the k-th neighbor is at distance 0.
        assert_eq!(kth_neighbor_distance(&ps, &idx, 0, 3), Some(0.0));
    }
}
