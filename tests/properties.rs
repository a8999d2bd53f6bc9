//! Randomized property tests over the core data structures and invariants.
//!
//! Deterministic SplitMix64-driven instance loops; fixed seeds make every
//! failure exactly reproducible.

use dbsvec::baselines::Dbscan;
use dbsvec::engine::{Assignment, Engine, ModelArtifact};
use dbsvec::geometry::rng::SplitMix64;
use dbsvec::geometry::squared_euclidean;
use dbsvec::index::{KdTree, LinearScan, RStarTree, RangeIndex};
use dbsvec::metrics::{adjusted_rand_index, recall};
use dbsvec::svdd::{GaussianKernel, SvddProblem};
use dbsvec::{Dbsvec, DbsvecConfig, PointSet};

/// A point set of 1..=max_n points in 1..=max_d dimensions with bounded
/// coordinates.
fn point_set(rng: &mut SplitMix64, max_n: usize, max_d: usize) -> PointSet {
    let d = 1 + rng.next_below(max_d as u64) as usize;
    let n = 1 + rng.next_below(max_n as u64) as usize;
    let rows: Vec<Vec<f64>> = (0..n)
        .map(|_| (0..d).map(|_| rng.next_f64_range(-100.0, 100.0)).collect())
        .collect();
    PointSet::from_rows(&rows)
}

/// A clustering assignment over n points (≈80% clustered into 5 labels).
fn assignment(rng: &mut SplitMix64, n: usize) -> Vec<Option<u32>> {
    (0..n)
        .map(|_| {
            if rng.next_f64() < 0.8 {
                Some(rng.next_below(5) as u32)
            } else {
                None
            }
        })
        .collect()
}

#[test]
fn all_indexes_agree_with_linear_scan() {
    let mut rng = SplitMix64::new(0xF001);
    for _ in 0..64 {
        let ps = point_set(&mut rng, 120, 4);
        let query: Vec<f64> = (0..ps.dims())
            .map(|_| rng.next_f64_range(-120.0, 120.0))
            .collect();
        let eps = rng.next_f64_range(0.1, 150.0);
        let mut expected = LinearScan::build(&ps).range_vec(&query, eps);
        expected.sort_unstable();

        let mut kd = KdTree::build(&ps).range_vec(&query, eps);
        kd.sort_unstable();
        assert_eq!(kd, expected);

        let mut rstar = RStarTree::build(&ps).range_vec(&query, eps);
        rstar.sort_unstable();
        assert_eq!(rstar, expected);
    }
}

#[test]
fn svdd_solution_is_a_feasible_simplex_point() {
    let mut rng = SplitMix64::new(0xF003);
    for _ in 0..64 {
        let ps = point_set(&mut rng, 60, 3);
        let nu = rng.next_f64_range(0.05, 1.0);
        let ids: Vec<u32> = (0..ps.len() as u32).collect();
        let model = SvddProblem::new(&ps, &ids, GaussianKernel::from_width(5.0))
            .with_nu(nu.max(1.0 / ids.len() as f64))
            .solve();
        let sum: f64 = model.alphas().iter().sum();
        assert!((sum - 1.0).abs() < 1e-6, "sum = {sum}");
        let c = 1.0 / (nu.max(1.0 / ids.len() as f64) * ids.len() as f64);
        for &a in model.alphas() {
            assert!(a >= -1e-12 && a <= c + 1e-9);
        }
        assert!(model.num_support_vectors() >= 1);
    }
}

#[test]
fn svdd_sphere_contains_most_mass() {
    let mut rng = SplitMix64::new(0xF004);
    for _ in 0..64 {
        // With nu = 1/n, outliers are not allowed: all points inside R².
        let ps = point_set(&mut rng, 50, 2);
        let ids: Vec<u32> = (0..ps.len() as u32).collect();
        let model = SvddProblem::new(&ps, &ids, GaussianKernel::from_width(50.0)).solve();
        // Margin: SMO stops at a 1e-4 KKT tolerance, so normal SVs sit on
        // the sphere only up to that accuracy.
        let inside = ids
            .iter()
            .filter(|&&id| model.decision(&ps, ps.point(id)) <= model.radius_sq() + 1e-3)
            .count();
        assert!(
            inside as f64 >= 0.99 * ids.len() as f64,
            "{}/{} inside",
            inside,
            ids.len()
        );
    }
}

#[test]
fn dbsvec_labels_are_complete_and_dense() {
    let mut rng = SplitMix64::new(0xF005);
    for _ in 0..64 {
        let ps = point_set(&mut rng, 150, 3);
        let result = Dbsvec::new(DbsvecConfig::new(20.0, 4)).fit(&ps);
        let labels = result.labels();
        assert_eq!(labels.len(), ps.len());
        // Cluster ids are dense 0..k.
        let k = labels.num_clusters();
        for a in labels.assignments().iter().flatten() {
            assert!((*a as usize) < k);
        }
        // Sizes sum to n - noise.
        let total: usize = labels.cluster_sizes().iter().sum();
        assert_eq!(total + labels.noise_count(), ps.len());
        // Every non-empty cluster id actually occurs.
        for (c, &size) in labels.cluster_sizes().iter().enumerate() {
            assert!(size > 0, "cluster {c} is empty");
        }
    }
}

#[test]
fn dbsvec_noise_points_really_have_no_core_neighbor() {
    let mut rng = SplitMix64::new(0xF006);
    for _ in 0..64 {
        let ps = point_set(&mut rng, 120, 2);
        let eps = 15.0;
        let min_pts = 4;
        let result = Dbsvec::new(DbsvecConfig::new(eps, min_pts)).fit(&ps);
        let scan = LinearScan::build(&ps);
        for i in 0..ps.len() {
            if result.labels().is_noise(i) {
                // DBSCAN semantics: a noise point is non-core and has no
                // core point in its eps-neighborhood.
                let neigh = scan.range_vec(ps.point(i as u32), eps);
                assert!(neigh.len() < min_pts, "noise point {i} is core");
                for &j in &neigh {
                    let jn = scan.count_range(ps.point(j), eps);
                    assert!(jn < min_pts, "noise point {i} has core neighbor {j}");
                }
            }
        }
    }
}

#[test]
fn dbsvec_theorems_hold_on_adversarial_random_data() {
    let mut rng = SplitMix64::new(0xF007);
    for _ in 0..64 {
        // Uniform random clouds connect clusters through thin single-point
        // chains — exactly the §III-C Condition 1/2 regime where DBSVEC is
        // *allowed* to split a DBSCAN cluster. What the paper guarantees
        // unconditionally (and we assert exactly) is:
        //   Theorem 1: DBSVEC never joins points DBSCAN separates;
        //   Theorem 3: the noise sets are identical.
        // Recall stays high even here; the >0.999 bound for clustered data
        // lives in tests/dbsvec_vs_dbscan.rs.
        let ps = point_set(&mut rng, 150, 3);
        let eps = 25.0;
        let min_pts = 4;
        let dbscan = Dbscan::new(eps, min_pts).fit(&ps).clustering;
        let dbsvec = Dbsvec::new(DbsvecConfig::new(eps, min_pts))
            .fit(&ps)
            .into_labels();
        let r = recall(dbscan.assignments(), dbsvec.assignments());
        assert!(r > 0.75, "recall {r} collapsed even for adversarial data");
        let (a, b) = (dbscan.assignments(), dbsvec.assignments());
        // Core flags: necessity is a statement about core points — a border
        // point in range of two clusters may legitimately land in either
        // (DBSCAN itself is order-dependent there; cf. Theorem 2's "same
        // core points" hypothesis).
        let scan = LinearScan::build(&ps);
        let core: Vec<bool> = (0..ps.len())
            .map(|i| scan.count_range(ps.point(i as u32), eps) >= min_pts)
            .collect();
        for i in 0..ps.len() {
            // Theorem 3: identical noise sets.
            assert_eq!(a[i].is_none(), b[i].is_none(), "noise mismatch at {i}");
            if !core[i] {
                continue;
            }
            // Theorem 1 (necessity) over core-core pairs.
            for j in (i + 1..ps.len()).step_by(3) {
                if core[j] && b[i].is_some() && b[i] == b[j] {
                    assert!(
                        a[i] == a[j],
                        "DBSVEC joined core points {i},{j} but DBSCAN separated them"
                    );
                }
            }
        }
    }
}

#[test]
fn dbsvec_core_points_have_dense_neighborhoods() {
    let mut rng = SplitMix64::new(0xF00C);
    for _ in 0..64 {
        let ps = point_set(&mut rng, 130, 3);
        let eps = 20.0;
        let min_pts = 4;
        let result = Dbsvec::new(DbsvecConfig::new(eps, min_pts)).fit(&ps);
        let scan = LinearScan::build(&ps);
        for &c in result.core_points() {
            let count = scan.count_range(ps.point(c), eps);
            assert!(
                count >= min_pts,
                "reported core point {c} has only {count} ε-neighbors"
            );
        }
    }
}

#[test]
fn dbsvec_clustered_points_touch_a_core_of_their_cluster() {
    let mut rng = SplitMix64::new(0xF00D);
    for _ in 0..64 {
        let ps = point_set(&mut rng, 130, 2);
        let eps = 18.0;
        let min_pts = 4;
        let result = Dbsvec::new(DbsvecConfig::new(eps, min_pts)).fit(&ps);
        let labels = result.labels();
        let scan = LinearScan::build(&ps);
        let eps_sq = eps * eps;
        for i in 0..ps.len() {
            let Some(cid) = labels.assignments()[i] else {
                continue;
            };
            // Every clustered point is density-reachable: within ε of some
            // core point carrying the same cluster label.
            let witness = scan
                .range_vec(ps.point(i as u32), eps)
                .into_iter()
                .any(|j| {
                    labels.assignments()[j as usize] == Some(cid)
                        && scan.count_range(ps.point(j), eps) >= min_pts
                        && ps.squared_distance(i as u32, j) <= eps_sq
                });
            assert!(
                witness,
                "clustered point {i} has no same-cluster core within ε"
            );
        }
    }
}

#[test]
fn dbsvec_noise_verification_never_attaches_beyond_eps() {
    let mut rng = SplitMix64::new(0xF00E);
    for _ in 0..64 {
        let ps = point_set(&mut rng, 120, 3);
        let eps = 22.0;
        let min_pts = 5;
        let result = Dbsvec::new(DbsvecConfig::new(eps, min_pts)).fit(&ps);
        let labels = result.labels();
        let scan = LinearScan::build(&ps);
        let eps_sq = eps * eps;
        for i in 0..ps.len() {
            if labels.assignments()[i].is_none() {
                continue;
            }
            if scan.count_range(ps.point(i as u32), eps) >= min_pts {
                continue; // core points carry their own cluster
            }
            // A border point (attached by noise verification or absorption)
            // must sit within ε of its *nearest* core point in particular —
            // i.e. of some core point at all.
            let nearest_core_sq = (0..ps.len() as u32)
                .filter(|&j| scan.count_range(ps.point(j), eps) >= min_pts)
                .map(|j| ps.squared_distance(i as u32, j))
                .fold(f64::INFINITY, f64::min);
            assert!(
                nearest_core_sq <= eps_sq,
                "border point {i} attached at distance² {nearest_core_sq} > ε²"
            );
        }
    }
}

/// Sampled-mode invariant: restricting core *candidacy* to a subsample
/// never weakens core *density* — every reported core still has MinPts
/// ε-neighbors counted by brute force over the full point set (candidates
/// gate who may become a core; neighborhoods are always exact).
#[test]
fn sampled_core_points_still_meet_min_pts_by_brute_force() {
    let mut rng = SplitMix64::new(0xF012);
    for round in 0..48u64 {
        let ps = point_set(&mut rng, 130, 3);
        let eps = 20.0;
        let min_pts = 4;
        let base = DbsvecConfig::new(eps, min_pts);
        let config = if round % 2 == 0 {
            base.with_uniform_sampling(rng.next_f64_range(0.2, 0.9), 0x5EED + round)
        } else {
            base.with_kcenter_sampling((ps.len() / 3).max(1), 0x5EED + round)
        };
        let result = Dbsvec::new(config).fit(&ps);
        let scan = LinearScan::build(&ps);
        for &c in result.core_points() {
            let count = scan.count_range(ps.point(c), eps);
            assert!(
                count >= min_pts,
                "sampled core {c} has only {count} ε-neighbors"
            );
        }
    }
}

/// Sampled-mode invariant: every clustered point — expanded or attached
/// by the post-pass — sits within ε of a *discovered* core carrying the
/// same cluster label. (Under sampling the discovered cores are a subset
/// of the density cores, so the witness must come from the fit itself.)
#[test]
fn sampled_attachment_stays_within_eps_of_a_same_cluster_core() {
    let mut rng = SplitMix64::new(0xF013);
    for round in 0..48u64 {
        let ps = point_set(&mut rng, 130, 2);
        let eps = 18.0;
        let min_pts = 4;
        let config = DbsvecConfig::new(eps, min_pts)
            .with_uniform_sampling(rng.next_f64_range(0.3, 0.8), 0xA77 + round);
        let result = Dbsvec::new(config).fit(&ps);
        let labels = result.labels();
        let eps_sq = eps * eps;
        for i in 0..ps.len() {
            let Some(cid) = labels.assignments()[i] else {
                continue;
            };
            let witness = result.core_points().iter().any(|&c| {
                labels.assignments()[c as usize] == Some(cid)
                    && ps.squared_distance(i as u32, c) <= eps_sq
            });
            assert!(
                witness,
                "clustered point {i} has no same-cluster discovered core within ε"
            );
        }
    }
}

/// A full-coverage draw is not "approximately" exact — it must be the
/// exact fit bit for bit: same labels, same stats, same core set.
#[test]
fn sampling_rate_one_is_bit_identical_to_exact() {
    let mut rng = SplitMix64::new(0xF014);
    for round in 0..32u64 {
        let ps = point_set(&mut rng, 120, 3);
        let exact = Dbsvec::new(DbsvecConfig::new(20.0, 4)).fit(&ps);
        let sampled =
            Dbsvec::new(DbsvecConfig::new(20.0, 4).with_uniform_sampling(1.0, 0xFACE + round))
                .fit(&ps);
        assert_eq!(exact.labels(), sampled.labels(), "round {round}");
        assert_eq!(exact.stats(), sampled.stats(), "round {round}");
        assert_eq!(exact.core_points(), sampled.core_points());
    }
}

/// A fitted engine over a random 2-D cloud plus its mirrored tracked set
/// (at load, the tracked set is exactly the fitted cores).
fn random_engine(rng: &mut SplitMix64) -> (Engine, Vec<Vec<f64>>, f64, usize) {
    let n = 60 + rng.next_below(60) as usize;
    let rows: Vec<Vec<f64>> = (0..n)
        .map(|_| {
            vec![
                rng.next_f64_range(-30.0, 30.0),
                rng.next_f64_range(-30.0, 30.0),
            ]
        })
        .collect();
    let ps = PointSet::from_rows(&rows);
    let eps = 6.0;
    let min_pts = 4;
    let result = Dbsvec::new(DbsvecConfig::new(eps, min_pts)).fit(&ps);
    let core_ids: Vec<_> = result.core_points().to_vec();
    let artifact = ModelArtifact::from_fit(&ps, result.labels(), &core_ids, eps, min_pts as u32)
        .expect("fit produces a valid artifact");
    let live: Vec<Vec<f64>> = artifact.cores.iter().map(|(_, p)| p.to_vec()).collect();
    (Engine::new(&artifact), live, eps, min_pts)
}

/// One random insert/delete interleaving step; returns whether anything
/// was removed this step.
fn dynamic_step(rng: &mut SplitMix64, engine: &mut Engine, live: &mut Vec<Vec<f64>>) -> bool {
    if rng.next_below(2) == 0 || live.is_empty() {
        let p = vec![
            rng.next_f64_range(-32.0, 32.0),
            rng.next_f64_range(-32.0, 32.0),
        ];
        if !live.contains(&p) {
            engine.ingest(&p);
            live.push(p);
        }
        false
    } else {
        let p = live.swap_remove(rng.next_below(live.len() as u64) as usize);
        engine.remove(&p);
        true
    }
}

/// Deletion invariant: a demoted core really lost its density. Every
/// buffered point — demoted cores included — must have fewer than MinPts
/// tracked points (itself included) within ε, counted by brute force over
/// the mirrored tracked set, after every removal.
#[test]
fn no_demoted_core_keeps_a_dense_neighborhood() {
    let mut rng = SplitMix64::new(0xF00F);
    for _ in 0..24 {
        let (mut engine, mut live, eps, min_pts) = random_engine(&mut rng);
        let eps_sq = eps * eps;
        for _ in 0..40 {
            if !dynamic_step(&mut rng, &mut engine, &mut live) {
                continue;
            }
            for (p, _) in engine.buffered_view() {
                let count = live
                    .iter()
                    .filter(|q| squared_euclidean(p, q) <= eps_sq)
                    .count();
                assert!(
                    count < min_pts,
                    "buffered point {p:?} has {count} ≥ MinPts tracked neighbors"
                );
            }
        }
    }
}

/// Deletion invariant: clusters stay ε-connected through repairs. After
/// every removal, each core of a multi-core cluster must still have a
/// same-cluster core within ε — a split that should have happened but
/// didn't would strand a core among ε-unreachable labelmates.
#[test]
fn every_cluster_member_keeps_a_same_cluster_core_within_eps() {
    let mut rng = SplitMix64::new(0xF010);
    for _ in 0..24 {
        let (mut engine, mut live, eps, _) = random_engine(&mut rng);
        let eps_sq = eps * eps;
        for _ in 0..40 {
            if !dynamic_step(&mut rng, &mut engine, &mut live) {
                continue;
            }
            let snap = engine.snapshot();
            let mut cluster_sizes = vec![0usize; snap.num_clusters as usize];
            for &l in &snap.core_labels {
                cluster_sizes[l as usize] += 1;
            }
            for (i, p) in snap.cores.iter() {
                let l = snap.core_labels[i as usize];
                if cluster_sizes[l as usize] < 2 {
                    continue;
                }
                let witness = snap.cores.iter().any(|(j, q)| {
                    j != i && snap.core_labels[j as usize] == l && squared_euclidean(p, q) <= eps_sq
                });
                assert!(witness, "core {p:?} stranded in cluster {l} beyond ε");
            }
        }
    }
}

/// Deletion invariant: removals never loosen the assignment rule. After
/// every removal, a query labels into a cluster iff a live core lies
/// within ε — noise can never re-attach through a stale core.
#[test]
fn noise_never_reattaches_beyond_eps_after_removals() {
    let mut rng = SplitMix64::new(0xF011);
    for _ in 0..24 {
        let (mut engine, mut live, eps, _) = random_engine(&mut rng);
        let eps_sq = eps * eps;
        for _ in 0..40 {
            if !dynamic_step(&mut rng, &mut engine, &mut live) {
                continue;
            }
            let snap = engine.snapshot();
            for _ in 0..4 {
                let q = vec![
                    rng.next_f64_range(-35.0, 35.0),
                    rng.next_f64_range(-35.0, 35.0),
                ];
                let in_range = snap
                    .cores
                    .iter()
                    .any(|(_, p)| squared_euclidean(p, &q) <= eps_sq);
                match engine.assign(&q) {
                    Assignment::Cluster(_) => {
                        assert!(in_range, "{q:?} attached with no live core within ε")
                    }
                    Assignment::Noise => {
                        assert!(!in_range, "{q:?} called noise with a live core within ε")
                    }
                }
            }
        }
    }
}

#[test]
fn metric_identities() {
    let mut rng = SplitMix64::new(0xF008);
    for _ in 0..64 {
        let labels = assignment(&mut rng, 80);
        assert_eq!(recall(&labels, &labels), 1.0);
        let ari = adjusted_rand_index(&labels, &labels);
        assert!((ari - 1.0).abs() < 1e-9);
    }
}

#[test]
fn recall_is_monotone_under_merging() {
    let mut rng = SplitMix64::new(0xF009);
    for _ in 0..64 {
        // Merging every cluster into one can never lose reference pairs.
        let labels = assignment(&mut rng, 60);
        let merged: Vec<Option<u32>> = labels.iter().map(|l| l.map(|_| 0)).collect();
        assert_eq!(recall(&labels, &merged), 1.0);
    }
}

#[test]
fn recall_matches_brute_force() {
    let mut rng = SplitMix64::new(0xF00A);
    for _ in 0..64 {
        let a = assignment(&mut rng, 40);
        let b = assignment(&mut rng, 40);
        let fast = recall(&a, &b);
        let mut denom = 0u64;
        let mut kept = 0u64;
        for i in 0..a.len() {
            for j in (i + 1)..a.len() {
                if a[i].is_some() && a[i] == a[j] {
                    denom += 1;
                    if b[i].is_some() && b[i] == b[j] {
                        kept += 1;
                    }
                }
            }
        }
        let brute = if denom == 0 {
            1.0
        } else {
            kept as f64 / denom as f64
        };
        assert!((fast - brute).abs() < 1e-12, "fast {fast} vs brute {brute}");
    }
}

#[test]
fn ari_is_symmetric() {
    let mut rng = SplitMix64::new(0xF00B);
    for _ in 0..64 {
        let a = assignment(&mut rng, 50);
        let b = assignment(&mut rng, 50);
        let ab = adjusted_rand_index(&a, &b);
        let ba = adjusted_rand_index(&b, &a);
        assert!((ab - ba).abs() < 1e-9);
        assert!(ab <= 1.0 + 1e-9);
    }
}
