//! Randomized property tests: exact algorithms agree on arbitrary inputs;
//! approximate ones respect their contracts.
//!
//! Deterministic SplitMix64-driven instance loops; fixed seeds make every
//! failure exactly reproducible.

use dbsvec_baselines::{Dbscan, NqDbscan, RhoApproxDbscan};
use dbsvec_geometry::rng::SplitMix64;
use dbsvec_geometry::PointSet;

fn point_set(rng: &mut SplitMix64, max_n: usize) -> PointSet {
    let d = 1 + rng.next_below(3) as usize;
    let n = 1 + rng.next_below(max_n as u64) as usize;
    let rows: Vec<Vec<f64>> = (0..n)
        .map(|_| (0..d).map(|_| rng.next_f64_range(-100.0, 100.0)).collect())
        .collect();
    PointSet::from_rows(&rows)
}

fn params(rng: &mut SplitMix64, eps_lo: f64, eps_hi: f64, mp_lo: u64, mp_hi: u64) -> (f64, usize) {
    (
        rng.next_f64_range(eps_lo, eps_hi),
        (mp_lo + rng.next_below(mp_hi - mp_lo)) as usize,
    )
}

#[test]
fn nq_dbscan_is_exactly_dbscan() {
    let mut rng = SplitMix64::new(0xAB01);
    for _ in 0..48 {
        let ps = point_set(&mut rng, 120);
        let (eps, min_pts) = params(&mut rng, 1.0, 80.0, 2, 8);
        let exact = Dbscan::new(eps, min_pts).fit(&ps).clustering;
        let nq = NqDbscan::new(eps, min_pts).fit(&ps).clustering;
        assert_eq!(exact, nq);
    }
}

#[test]
fn rho_approx_never_loses_true_core_points() {
    use dbsvec_index::{LinearScan, RangeIndex};
    let mut rng = SplitMix64::new(0xAB03);
    for _ in 0..48 {
        // ρ-approximate may over-count neighbors (by design) but its core
        // test must never reject a true core point, so every DBSCAN core
        // point must be clustered by it.
        let ps = point_set(&mut rng, 100);
        let (eps, min_pts) = params(&mut rng, 5.0, 60.0, 2, 6);
        let approx = RhoApproxDbscan::new(eps, min_pts, 0.001)
            .fit(&ps)
            .clustering;
        let scan = LinearScan::build(&ps);
        for i in 0..ps.len() {
            if scan.count_range(ps.point(i as u32), eps) >= min_pts {
                assert!(!approx.is_noise(i), "true core point {i} marked noise");
            }
        }
    }
}

#[test]
fn labels_always_cover_every_point() {
    let mut rng = SplitMix64::new(0xAB05);
    for _ in 0..48 {
        let ps = point_set(&mut rng, 80);
        let (eps, min_pts) = params(&mut rng, 1.0, 50.0, 2, 6);
        for clustering in [
            Dbscan::new(eps, min_pts).fit(&ps).clustering,
            NqDbscan::new(eps, min_pts).fit(&ps).clustering,
            RhoApproxDbscan::new(eps, min_pts, 0.001)
                .fit(&ps)
                .clustering,
        ] {
            assert_eq!(clustering.len(), ps.len());
            let total: usize = clustering.cluster_sizes().iter().sum();
            assert_eq!(total + clustering.noise_count(), ps.len());
        }
    }
}
