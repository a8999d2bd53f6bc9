//! The DBSVEC driver (paper Algorithm 2).

use dbsvec_geometry::{PointId, PointSet};
use dbsvec_index::{KdTree, RangeIndex};
use dbsvec_obs::{Event, NoopObserver, Observer, Phase};

use crate::config::DbsvecConfig;
use crate::expand::sv_expand_cluster;
use crate::labels::Clustering;
use crate::noise::verify_noise;
use crate::runner::RunState;
use crate::stats::DbsvecStats;

/// The DBSVEC clustering algorithm.
///
/// Construct with a [`DbsvecConfig`] and call [`Dbsvec::fit`]:
///
/// ```
/// use dbsvec_core::{Dbsvec, DbsvecConfig};
/// use dbsvec_geometry::PointSet;
///
/// let mut ps = PointSet::new(2);
/// for i in 0..30 {
///     ps.push(&[i as f64 * 0.1, 0.0]);       // a dense line cluster
///     ps.push(&[i as f64 * 0.1, 100.0]);     // another, far away
/// }
/// let result = Dbsvec::new(DbsvecConfig::new(0.5, 4)).fit(&ps);
/// assert_eq!(result.num_clusters(), 2);
/// ```
#[derive(Clone, Debug)]
pub struct Dbsvec {
    config: DbsvecConfig,
}

/// Output of a DBSVEC run: the clustering plus the cost counters that back
/// the paper's complexity claims.
#[derive(Clone, Debug)]
pub struct DbsvecResult {
    clustering: Clustering,
    stats: DbsvecStats,
    core_points: Vec<PointId>,
}

impl DbsvecResult {
    /// The final cluster labels.
    pub fn labels(&self) -> &Clustering {
        &self.clustering
    }

    /// Consumes the result, keeping only the labels.
    pub fn into_labels(self) -> Clustering {
        self.clustering
    }

    /// Number of clusters found.
    pub fn num_clusters(&self) -> usize {
        self.clustering.num_clusters()
    }

    /// Run statistics (range queries, SVDD trainings, merges, ...).
    pub fn stats(&self) -> &DbsvecStats {
        &self.stats
    }

    /// Ids of the points *verified* as core during the run (seeds, core
    /// support vectors, merge/noise-verification tests). Every clustered
    /// point lies within ε of one of these — it was absorbed from such a
    /// point's neighborhood — so they are exactly what
    /// [`crate::predict::ClusterModel`] needs for out-of-sample
    /// classification.
    pub fn core_points(&self) -> &[PointId] {
        &self.core_points
    }
}

impl Dbsvec {
    /// Creates the algorithm with the given configuration.
    pub fn new(config: DbsvecConfig) -> Self {
        Self { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &DbsvecConfig {
        &self.config
    }

    /// Clusters `points`, building one [`KdTree`] for the range queries.
    ///
    /// The paper runs DBSVEC over an R-tree. Any exact ε-range engine
    /// finds the same neighbors, only reported in another order, which
    /// can move border points and the verified core set. The kd-tree is
    /// the one the fitted model and the serving engine already use, and
    /// on a 10⁶-point, 8-d fit it answers a range query about 2.5× faster
    /// than the STR-packed R\*-tree. Pass an [`dbsvec_index::RStarTree`]
    /// to [`Dbsvec::fit_with_index`] for the paper's substrate.
    pub fn fit(&self, points: &PointSet) -> DbsvecResult {
        self.fit_observed(points, &mut NoopObserver)
    }

    /// [`Dbsvec::fit`] with an observer receiving phase spans and events.
    pub fn fit_observed(&self, points: &PointSet, obs: &mut dyn Observer) -> DbsvecResult {
        let index = KdTree::build(points);
        self.fit_with_index_observed(points, &index, obs)
    }

    /// Clusters `points` using a caller-provided range-query engine. The
    /// engine must index exactly `points` (same ids).
    ///
    /// # Panics
    ///
    /// Panics if the index size disagrees with the point set.
    pub fn fit_with_index<I: RangeIndex>(&self, points: &PointSet, index: &I) -> DbsvecResult {
        self.fit_with_index_observed(points, index, &mut NoopObserver)
    }

    /// [`Dbsvec::fit_with_index`] with an observer. The observer sees five
    /// phases (`init` ⊃ `sv_expand` ⊃ `svdd_train`, then `noise_verify`,
    /// then `merge` for finalization) and every typed event the run emits.
    /// The returned [`DbsvecStats`] are built from the same events (folded
    /// by `dbsvec-obs`'s `ReplayCounts`), so a recorded stream replays to
    /// exactly them.
    pub fn fit_with_index_observed<I: RangeIndex>(
        &self,
        points: &PointSet,
        index: &I,
        obs: &mut dyn Observer,
    ) -> DbsvecResult {
        assert_eq!(
            index.len(),
            points.len(),
            "index covers {} points but the set has {}",
            index.len(),
            points.len()
        );
        // Sampled core discovery: draw the candidate subsample up front (a
        // pure function of the points and the seeded config, identical at
        // every thread count). A draw covering all n points — `Exact` mode
        // included — leaves the mask off, so the classic fit path below
        // runs untouched: bit-identical labels, stats, and traces.
        let sample = crate::sample::sample_candidates(points, &self.config.sampling);
        let mut state = RunState::new(points, index, &self.config, obs);

        // ---- Initialization + expansion (Algorithm 2 lines 2–12).
        state.obs.span_enter(Phase::Init);
        if let Some(ids) = sample {
            state.emit(Event::Sample {
                candidates: ids.len(),
                total: points.len(),
                rate_e6: ((ids.len() as f64 / points.len().max(1) as f64) * 1e6).round() as u64,
            });
            let mut mask = vec![false; points.len()];
            for &i in &ids {
                mask[i as usize] = true;
            }
            state.candidates = Some(mask);
        }
        let mut neighborhood: Vec<PointId> = Vec::new();
        for i in 0..points.len() as u32 {
            if !state.is_candidate(i) {
                // Sampled mode: unsampled points neither seed nor park on
                // the noise list — the attachment pass resolves them.
                continue;
            }
            if !state.labels.is_unclassified(i) {
                continue;
            }
            state.range_query(i, &mut neighborhood);
            if neighborhood.len() < self.config.min_pts {
                // Potential noise; keep the (small) neighborhood for the
                // verification pass (lines 13–15).
                state.labels.set_noise(i);
                state.noise_list.push((i, neighborhood.clone()));
                continue;
            }

            // Seed a new sub-cluster from the ε-neighborhood (Corollary 1).
            state.emit(Event::Seed {
                point: i,
                neighborhood_len: neighborhood.len(),
            });
            let raw_cid = state.uf.make_set();
            state.labels.set_cluster(i, raw_cid);
            let mut members = vec![i];
            let neigh = std::mem::take(&mut neighborhood);
            for &j in &neigh {
                if j != i {
                    state.absorb_or_merge(j, raw_cid, &mut members);
                }
            }
            neighborhood = neigh;

            // ---- Support vector expansion (Algorithm 3).
            sv_expand_cluster(&mut state, raw_cid, members);
        }
        state.obs.span_exit(Phase::Init);

        // ---- Noise verification (Algorithm 2 line 16).
        verify_noise(&mut state);

        // ---- Finalize: resolve merges, compact cluster ids.
        state.obs.span_enter(Phase::Merge);
        let RunState {
            labels,
            mut uf,
            counts,
            core_status,
            obs,
            ..
        } = state;
        let core_points: Vec<PointId> = core_status
            .iter()
            .enumerate()
            .filter(|(_, s)| matches!(s, crate::runner::CoreStatus::Core))
            .map(|(i, _)| i as PointId)
            .collect();
        let (compact, _) = uf.compact_labels();
        let clustering = labels.finalize(|raw| compact[raw as usize]);
        obs.span_exit(Phase::Merge);
        DbsvecResult {
            clustering,
            stats: DbsvecStats::from(&counts),
            core_points,
        }
    }
}

/// One-call convenience: DBSVEC with the paper's recommended configuration.
///
/// ```
/// use dbsvec_geometry::PointSet;
///
/// let ps = PointSet::from_rows(&[vec![0.0], vec![0.1], vec![0.2], vec![9.0]]);
/// let clustering = dbsvec_core::dbsvec(&ps, 0.3, 2);
/// assert_eq!(clustering.num_clusters(), 1);
/// assert!(clustering.is_noise(3));
/// ```
pub fn dbsvec(points: &PointSet, eps: f64, min_pts: usize) -> Clustering {
    Dbsvec::new(DbsvecConfig::new(eps, min_pts))
        .fit(points)
        .into_labels()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::NuStrategy;
    use dbsvec_geometry::rng::SplitMix64;
    use dbsvec_index::{CountingIndex, LinearScan};

    /// Brute-force reference DBSCAN used as the correctness oracle.
    fn dbscan_oracle(points: &PointSet, eps: f64, min_pts: usize) -> Vec<Option<u32>> {
        let n = points.len();
        let eps_sq = eps * eps;
        let neighbors: Vec<Vec<usize>> = (0..n)
            .map(|i| {
                (0..n)
                    .filter(|&j| points.squared_distance(i as u32, j as u32) <= eps_sq)
                    .collect()
            })
            .collect();
        let core: Vec<bool> = neighbors.iter().map(|nb| nb.len() >= min_pts).collect();
        let mut labels: Vec<Option<u32>> = vec![None; n];
        let mut visited = vec![false; n];
        let mut next_cluster = 0u32;
        for start in 0..n {
            if visited[start] || !core[start] {
                continue;
            }
            let cid = next_cluster;
            next_cluster += 1;
            let mut stack = vec![start];
            visited[start] = true;
            labels[start] = Some(cid);
            while let Some(p) = stack.pop() {
                for &q in &neighbors[p] {
                    if labels[q].is_none() {
                        labels[q] = Some(cid);
                    }
                    if core[q] && !visited[q] {
                        visited[q] = true;
                        stack.push(q);
                    }
                }
            }
        }
        labels
    }

    /// Same-cluster pair recall of `got` against the oracle (1.0 = every
    /// oracle pair preserved).
    fn pair_recall(oracle: &[Option<u32>], got: &[Option<u32>]) -> f64 {
        let n = oracle.len();
        let mut oracle_pairs = 0u64;
        let mut kept = 0u64;
        for i in 0..n {
            for j in (i + 1)..n {
                if oracle[i].is_some() && oracle[i] == oracle[j] {
                    oracle_pairs += 1;
                    if got[i].is_some() && got[i] == got[j] {
                        kept += 1;
                    }
                }
            }
        }
        if oracle_pairs == 0 {
            1.0
        } else {
            kept as f64 / oracle_pairs as f64
        }
    }

    fn blobs(centers: &[[f64; 2]], per: usize, spread: f64, seed: u64) -> PointSet {
        let mut rng = SplitMix64::new(seed);
        let mut ps = PointSet::new(2);
        for c in centers {
            for _ in 0..per {
                let x: f64 = (0..12).map(|_| rng.next_f64()).sum::<f64>() - 6.0;
                let y: f64 = (0..12).map(|_| rng.next_f64()).sum::<f64>() - 6.0;
                ps.push(&[c[0] + spread * x, c[1] + spread * y]);
            }
        }
        ps
    }

    #[test]
    fn separates_well_spaced_blobs() {
        let ps = blobs(&[[0.0, 0.0], [50.0, 0.0], [0.0, 50.0]], 80, 1.0, 42);
        let result = Dbsvec::new(DbsvecConfig::new(4.0, 8)).fit(&ps);
        assert_eq!(result.num_clusters(), 3);
        // Each blob should be (almost) one cluster.
        let sizes = result.labels().cluster_sizes();
        for &s in &sizes {
            assert!(s >= 75, "cluster sizes {sizes:?} too uneven");
        }
    }

    #[test]
    fn matches_dbscan_on_blobs() {
        let ps = blobs(&[[0.0, 0.0], [30.0, 0.0]], 100, 1.0, 7);
        let oracle = dbscan_oracle(&ps, 3.0, 8);
        let got = Dbsvec::new(DbsvecConfig::new(3.0, 8)).fit(&ps);
        let recall = pair_recall(&oracle, got.labels().assignments());
        assert!(recall > 0.999, "recall {recall} too low");
        // Theorem 3: identical noise.
        let oracle_noise: Vec<bool> = oracle.iter().map(Option::is_none).collect();
        let got_noise: Vec<bool> = got
            .labels()
            .assignments()
            .iter()
            .map(Option::is_none)
            .collect();
        assert_eq!(oracle_noise, got_noise);
    }

    #[test]
    fn necessity_guarantee_holds() {
        // Theorem 1: every DBSVEC cluster is a subset of a DBSCAN cluster.
        let ps = blobs(&[[0.0, 0.0], [14.0, 0.0], [28.0, 0.0]], 60, 1.4, 99);
        let oracle = dbscan_oracle(&ps, 2.5, 6);
        let got = Dbsvec::new(DbsvecConfig::new(2.5, 6)).fit(&ps);
        // For every pair in the same DBSVEC cluster, the oracle must agree
        // (both clustered together) unless the oracle calls one of them
        // noise — which Theorem 3 forbids, so check that too.
        let a = got.labels().assignments();
        for i in 0..ps.len() {
            for j in (i + 1)..ps.len() {
                if a[i].is_some() && a[i] == a[j] {
                    assert_eq!(
                        oracle[i], oracle[j],
                        "DBSVEC joined {i} and {j} but DBSCAN separated them"
                    );
                }
            }
        }
    }

    #[test]
    fn all_noise_dataset() {
        // Points pairwise farther than eps: everything is noise.
        let rows: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64 * 10.0, 0.0]).collect();
        let ps = PointSet::from_rows(&rows);
        let result = Dbsvec::new(DbsvecConfig::new(1.0, 3)).fit(&ps);
        assert_eq!(result.num_clusters(), 0);
        assert_eq!(result.labels().noise_count(), 20);
        assert_eq!(result.stats().noise_confirmed, 20);
    }

    #[test]
    fn single_dense_cluster_no_noise() {
        let ps = blobs(&[[0.0, 0.0]], 150, 1.0, 3);
        let result = Dbsvec::new(DbsvecConfig::new(3.0, 5)).fit(&ps);
        assert_eq!(result.num_clusters(), 1);
        assert_eq!(result.labels().noise_count(), 0);
    }

    #[test]
    fn empty_input() {
        let ps = PointSet::new(2);
        let result = Dbsvec::new(DbsvecConfig::new(1.0, 3)).fit(&ps);
        assert!(result.labels().is_empty());
        assert_eq!(result.num_clusters(), 0);
    }

    #[test]
    fn uses_far_fewer_range_queries_than_points() {
        let ps = blobs(&[[0.0, 0.0], [40.0, 40.0]], 400, 1.5, 21);
        let index = CountingIndex::new(LinearScan::build(&ps));
        let result = Dbsvec::new(DbsvecConfig::new(4.0, 10)).fit_with_index(&ps, &index);
        assert_eq!(result.num_clusters(), 2);
        let theta = result.stats().theta(ps.len());
        assert!(
            theta < 0.5,
            "θ = {theta} — support vector expansion saved nothing"
        );
        // The internal counter matches the index's own accounting.
        assert_eq!(result.stats().range_queries, index.stats().queries);
    }

    #[test]
    fn ablations_still_cluster_correctly() {
        let ps = blobs(&[[0.0, 0.0], [25.0, 0.0]], 70, 1.2, 17);
        for config in [
            DbsvecConfig::new(3.0, 6).without_weights(),
            DbsvecConfig::new(3.0, 6).without_incremental_learning(),
            DbsvecConfig::new(3.0, 6).with_random_kernel_width(5),
            DbsvecConfig::new(3.0, 6).minimal_nu(),
        ] {
            let result = Dbsvec::new(config.clone()).fit(&ps);
            let oracle = dbscan_oracle(&ps, 3.0, 6);
            let recall = pair_recall(&oracle, result.labels().assignments());
            assert!(recall > 0.95, "recall {recall} too low for {config:?}");
        }
    }

    #[test]
    fn deterministic_across_runs() {
        let ps = blobs(&[[0.0, 0.0], [20.0, 5.0]], 90, 1.3, 55);
        let a = Dbsvec::new(DbsvecConfig::new(2.5, 7)).fit(&ps);
        let b = Dbsvec::new(DbsvecConfig::new(2.5, 7)).fit(&ps);
        assert_eq!(a.labels(), b.labels());
        assert_eq!(a.stats(), b.stats());
    }

    #[test]
    fn border_points_join_their_nearest_core_cluster() {
        // A dense clump plus one border point within eps of the clump edge.
        let mut ps = PointSet::new(2);
        for i in 0..10 {
            for j in 0..10 {
                ps.push(&[i as f64 * 0.1, j as f64 * 0.1]);
            }
        }
        let border = ps.push(&[1.2, 0.45]); // within 0.4 of the (0.9, 0.45) area
        let result = Dbsvec::new(DbsvecConfig::new(0.4, 8)).fit(&ps);
        assert_eq!(result.num_clusters(), 1);
        assert!(
            !result.labels().is_noise(border as usize),
            "border point must be attached by noise verification"
        );
    }

    #[test]
    fn nu_one_degenerates_toward_dbscan() {
        // §IV-C: as ν → 1 every point becomes a support vector.
        let ps = blobs(&[[0.0, 0.0]], 60, 1.0, 9);
        let mut config = DbsvecConfig::new(3.0, 5);
        config.nu = NuStrategy::Fixed(1.0);
        let result = Dbsvec::new(config).fit(&ps);
        assert_eq!(result.num_clusters(), 1);
        // Nearly every point should have been queried.
        assert!(result.stats().support_vectors as usize >= 50);
    }

    /// Adversarial engine answering *open*-ball queries with the boundary
    /// and exact duplicates excluded — except for probes at the origin,
    /// which get the honest closed ball. A probe sitting on a pile of
    /// duplicates, or exactly ε from everything else, gets an EMPTY result
    /// — not even itself. The `RangeIndex` contract promises closed balls,
    /// so no shipped engine does this; the driver must still come back
    /// cleanly instead of indexing into a neighborhood it assumed non-empty.
    struct OpenBallIndex<'a> {
        points: &'a PointSet,
        /// When true, a probe exactly at the origin gets a closed ball, so
        /// a cluster can seed there and expansion gets to see the empty
        /// results first-hand.
        closed_at_origin: bool,
    }

    impl RangeIndex for OpenBallIndex<'_> {
        fn range(&self, query: &[f64], eps: f64, out: &mut Vec<PointId>) {
            let eps_sq = eps * eps;
            let honest = self.closed_at_origin && query.iter().all(|&c| c == 0.0);
            for j in 0..self.points.len() as PointId {
                let p = self.points.point(j);
                let d_sq: f64 = query.iter().zip(p).map(|(a, b)| (a - b) * (a - b)).sum();
                if (honest && d_sq <= eps_sq) || (d_sq > 0.0 && d_sq < eps_sq) {
                    out.push(j);
                }
            }
        }

        fn len(&self) -> usize {
            self.points.len()
        }
    }

    #[test]
    fn empty_range_results_return_cleanly() {
        // Five exact duplicates at the origin plus one point exactly ε away:
        // under the open-ball adversary every query returns nothing, at any
        // thread count. The fit must label everything noise without
        // panicking.
        let mut ps = PointSet::new(2);
        for _ in 0..5 {
            ps.push(&[0.0, 0.0]);
        }
        ps.push(&[1.0, 0.0]);
        let index = OpenBallIndex {
            points: &ps,
            closed_at_origin: false,
        };
        for threads in [1usize, 4] {
            let config = DbsvecConfig::new(1.0, 2).with_threads(threads);
            let result = Dbsvec::new(config).fit_with_index(&ps, &index);
            assert_eq!(result.num_clusters(), 0, "threads={threads}");
            assert_eq!(result.labels().noise_count(), 6, "threads={threads}");
            assert!(result.core_points().is_empty(), "threads={threads}");
        }
    }

    #[test]
    fn empty_range_results_inside_expansion_return_cleanly() {
        // Honest closed ball at the origin only: the duplicate pile seeds a
        // cluster that absorbs the boundary point, and when expansion later
        // probes that boundary point — exactly ε from the pile, excluded by
        // the open ball along with its own degenerate self-distance — the
        // query returns a genuinely EMPTY neighborhood. Expansion must treat
        // it as "non-core, moves on" rather than indexing into it, at every
        // thread count.
        let mut ps = PointSet::new(2);
        for _ in 0..3 {
            ps.push(&[0.0, 0.0]);
        }
        ps.push(&[1.0, 0.0]);
        let index = OpenBallIndex {
            points: &ps,
            closed_at_origin: true,
        };
        let baseline =
            Dbsvec::new(DbsvecConfig::new(1.0, 2).with_threads(1)).fit_with_index(&ps, &index);
        assert_eq!(baseline.num_clusters(), 1);
        assert_eq!(baseline.labels().noise_count(), 0);
        for threads in [2usize, 4] {
            let par = Dbsvec::new(DbsvecConfig::new(1.0, 2).with_threads(threads))
                .fit_with_index(&ps, &index);
            assert_eq!(baseline.labels(), par.labels(), "threads={threads}");
            assert_eq!(baseline.stats(), par.stats(), "threads={threads}");
        }
    }

    #[test]
    fn parallel_fit_is_bit_identical_to_sequential() {
        let ps = blobs(&[[0.0, 0.0], [25.0, 10.0]], 120, 1.2, 61);
        let baseline = Dbsvec::new(DbsvecConfig::new(3.0, 6).with_threads(1)).fit(&ps);
        for threads in [2usize, 4, 8] {
            let par = Dbsvec::new(DbsvecConfig::new(3.0, 6).with_threads(threads)).fit(&ps);
            assert_eq!(baseline.labels(), par.labels(), "threads={threads}");
            assert_eq!(baseline.stats(), par.stats(), "threads={threads}");
            assert_eq!(
                baseline.core_points(),
                par.core_points(),
                "threads={threads}"
            );
        }
    }

    #[test]
    fn sampled_fit_recovers_blobs_with_fewer_queries() {
        let ps = blobs(&[[0.0, 0.0], [40.0, 40.0]], 400, 1.5, 21);
        let exact = Dbsvec::new(DbsvecConfig::new(4.0, 10)).fit(&ps);
        let sampled =
            Dbsvec::new(DbsvecConfig::new(4.0, 10).with_uniform_sampling(0.3, 11)).fit(&ps);
        assert_eq!(sampled.num_clusters(), 2);
        let recall = pair_recall(exact.labels().assignments(), sampled.labels().assignments());
        assert!(recall > 0.98, "recall {recall} too low");
        assert!(
            sampled.stats().range_queries < exact.stats().range_queries,
            "sampling must save queries: {} vs {}",
            sampled.stats().range_queries,
            exact.stats().range_queries
        );
        let s = sampled.stats();
        assert!(s.sampled_candidates > 0 && (s.sampled_candidates as usize) < ps.len());
        // Unsampled points absorbed during expansion never reach the
        // attachment pass; the candidates are exactly the leftover ones.
        assert!(s.attachment_candidates <= ps.len() as u64 - s.sampled_candidates);
        assert!(s.attached_points <= s.attachment_candidates);
    }

    #[test]
    fn kcenter_sampled_fit_recovers_blobs() {
        let ps = blobs(&[[0.0, 0.0], [30.0, 0.0]], 150, 1.1, 13);
        let m = ps.len() / 5;
        let result = Dbsvec::new(DbsvecConfig::new(3.5, 8).with_kcenter_sampling(m, 5)).fit(&ps);
        assert_eq!(result.num_clusters(), 2);
        assert_eq!(result.stats().sampled_candidates, m as u64);
    }

    #[test]
    fn uniform_rate_one_is_bit_identical_to_exact() {
        let ps = blobs(&[[0.0, 0.0], [25.0, 10.0]], 100, 1.2, 77);
        let exact = Dbsvec::new(DbsvecConfig::new(3.0, 6)).fit(&ps);
        let sampled =
            Dbsvec::new(DbsvecConfig::new(3.0, 6).with_uniform_sampling(1.0, 99)).fit(&ps);
        assert_eq!(exact.labels(), sampled.labels());
        assert_eq!(exact.stats(), sampled.stats());
        assert_eq!(exact.core_points(), sampled.core_points());
        assert_eq!(sampled.stats().sampled_candidates, 0, "full draw is exact");
        assert_eq!(sampled.stats().attachment_candidates, 0);
    }

    #[test]
    fn sampled_parallel_fit_is_bit_identical_to_sequential() {
        let mut ps = blobs(&[[0.0, 0.0], [25.0, 10.0]], 120, 1.2, 61);
        // Isolated stragglers: the unsampled ones are never absorbed, so
        // the attachment pass has real work to replay deterministically.
        for i in 0..30 {
            ps.push(&[200.0 + 10.0 * i as f64, -50.0]);
        }
        let config = DbsvecConfig::new(3.0, 6).with_uniform_sampling(0.4, 17);
        let baseline = Dbsvec::new(config.clone().with_threads(1)).fit(&ps);
        assert!(baseline.stats().attachment_candidates > 0);
        for threads in [2usize, 4, 8] {
            let par = Dbsvec::new(config.clone().with_threads(threads)).fit(&ps);
            assert_eq!(baseline.labels(), par.labels(), "threads={threads}");
            assert_eq!(baseline.stats(), par.stats(), "threads={threads}");
            assert_eq!(
                baseline.core_points(),
                par.core_points(),
                "threads={threads}"
            );
        }
    }

    #[test]
    fn sampled_fits_train_svdd_on_candidates_only() {
        // A point joins one sub-cluster's target set once and trains at most
        // T + 1 times before eviction, so when only candidates enter the
        // targets the summed target sizes stay within (T + 1) · candidates.
        let ps = blobs(&[[0.0, 0.0], [40.0, 40.0]], 1000, 1.5, 21);
        for rate in [0.1, 0.2] {
            let config = DbsvecConfig::new(4.0, 10).with_uniform_sampling(rate, 5);
            let bound = u64::from(config.learning_threshold + 1);
            let mut recorder = dbsvec_obs::RecordingObserver::new();
            let result = Dbsvec::new(config).fit_observed(&ps, &mut recorder);
            let trained: u64 = recorder
                .events()
                .filter_map(|e| match e {
                    Event::SmoSolve { target_size, .. } => Some(*target_size as u64),
                    _ => None,
                })
                .sum();
            let candidates = result.stats().sampled_candidates;
            assert!(
                trained <= bound * candidates,
                "rate={rate}: {trained} trained points for {candidates} candidates"
            );
            assert_eq!(result.num_clusters(), 2, "rate={rate}");
        }
    }

    #[test]
    fn sampled_cores_are_a_subset_of_the_candidates() {
        let ps = blobs(&[[0.0, 0.0], [30.0, 0.0]], 120, 1.1, 29);
        let config = DbsvecConfig::new(3.0, 6).with_uniform_sampling(0.5, 23);
        let candidates =
            crate::sample::sample_candidates(&ps, &config.sampling).expect("a strict subsample");
        let result = Dbsvec::new(config).fit(&ps);
        for &c in result.core_points() {
            assert!(
                candidates.binary_search(&c).is_ok(),
                "core {c} was never a candidate"
            );
        }
    }

    #[test]
    fn stats_account_for_every_phase() {
        let ps = blobs(&[[0.0, 0.0], [30.0, 0.0]], 80, 1.1, 33);
        let result = Dbsvec::new(DbsvecConfig::new(3.0, 6)).fit(&ps);
        let s = result.stats();
        assert!(s.seeds >= 2);
        assert!(s.svdd_trainings >= s.seeds);
        assert!(s.support_vectors >= s.core_support_vectors);
        assert!(s.range_queries > 0);
        assert!(s.max_target_size > 0);
    }
}
