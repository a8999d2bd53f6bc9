//! One entry point per algorithm under evaluation.

use dbsvec_baselines::{Dbscan, DbscanLsh, KMeans, NqDbscan, RhoApproxDbscan};
use dbsvec_core::{Clustering, Dbsvec, DbsvecConfig};
use dbsvec_geometry::PointSet;
use dbsvec_index::KdTree;
use dbsvec_obs::{NoopObserver, Observer, Phase, PhaseTimings, RecordingObserver, ReplayCounts};

use crate::harness::time;

/// The algorithms the paper's experiments compare (§V-A).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Algorithm {
    /// DBSVEC with the adaptive ν* (the paper's "DBSVEC").
    Dbsvec,
    /// DBSVEC with ν = 1/ñ (the paper's "DBSVEC_min").
    DbsvecMin,
    /// DBSVEC with a fixed ν (the Fig. 8 sweep).
    DbsvecFixedNu(f64),
    /// DBSVEC without adaptive penalty weights (Fig. 9 "DBSVEC\WF").
    DbsvecNoWeights,
    /// DBSVEC without incremental learning (Fig. 9 "DBSVEC\IL").
    DbsvecNoIncremental,
    /// DBSVEC with random kernel widths (Fig. 9 "DBSVEC\OK").
    DbsvecRandomKernel,
    /// Exact DBSCAN over an R\*-tree ("R-DBSCAN", the ground truth).
    RDbscan,
    /// Exact DBSCAN over a kd-tree ("kd-DBSCAN").
    KdDbscan,
    /// ρ-approximate DBSCAN with ρ = 0.001 (paper default).
    RhoApprox,
    /// Hashing-based approximate DBSCAN.
    DbscanLsh,
    /// NQ-DBSCAN.
    NqDbscan,
    /// k-means with the given k.
    KMeans(usize),
}

impl Algorithm {
    /// Display name as used in the paper's figures.
    pub fn name(&self) -> String {
        match self {
            Algorithm::Dbsvec => "DBSVEC".to_string(),
            Algorithm::DbsvecMin => "DBSVEC_min".to_string(),
            Algorithm::DbsvecFixedNu(nu) => format!("DBSVEC(nu={nu})"),
            Algorithm::DbsvecNoWeights => "DBSVEC\\WF".to_string(),
            Algorithm::DbsvecNoIncremental => "DBSVEC\\IL".to_string(),
            Algorithm::DbsvecRandomKernel => "DBSVEC\\OK".to_string(),
            Algorithm::RDbscan => "R-DBSCAN".to_string(),
            Algorithm::KdDbscan => "kd-DBSCAN".to_string(),
            Algorithm::RhoApprox => "rho-Appr".to_string(),
            Algorithm::DbscanLsh => "DBSCAN-LSH".to_string(),
            Algorithm::NqDbscan => "NQ-DBSCAN".to_string(),
            Algorithm::KMeans(_) => "k-MEANS".to_string(),
        }
    }

    /// The comparison set of the efficiency figures (Fig. 6–7).
    pub fn efficiency_suite(k_for_kmeans: usize) -> Vec<Algorithm> {
        vec![
            Algorithm::RDbscan,
            Algorithm::KdDbscan,
            Algorithm::RhoApprox,
            Algorithm::DbscanLsh,
            Algorithm::NqDbscan,
            Algorithm::KMeans(k_for_kmeans),
            Algorithm::Dbsvec,
        ]
    }

    /// Whether this algorithm emits observer spans/events, i.e. whether a
    /// profiled run yields phase timings and a comparable θ.
    pub fn is_instrumented(&self) -> bool {
        !matches!(
            self,
            Algorithm::RhoApprox | Algorithm::DbscanLsh | Algorithm::KMeans(_)
        )
    }
}

/// Outcome of one timed run.
#[derive(Clone, Debug)]
pub struct RunOutcome {
    /// Which algorithm ran.
    pub algorithm: Algorithm,
    /// The labels it produced.
    pub clustering: Clustering,
    /// Wall-clock seconds.
    pub seconds: f64,
    /// Per-phase wall-clock breakdown, in [`Phase::ALL`] order. Empty
    /// unless the run was profiled ([`run_algorithm_profiled`]) and the
    /// algorithm [is instrumented](Algorithm::is_instrumented).
    pub phases: Vec<(Phase, PhaseTimings)>,
    /// Event counters replayed from the observer stream (range queries,
    /// SVDD trainings, …). All-zero unless the run was profiled.
    pub counts: ReplayCounts,
}

impl RunOutcome {
    /// θ = range queries / n from the replayed counters, if profiled.
    pub fn theta(&self) -> Option<f64> {
        if self.counts.range_queries > 0 {
            Some(self.counts.theta(self.clustering.len()))
        } else {
            None
        }
    }
}

/// The single dispatch point: runs `algorithm` once, reporting spans and
/// events to `obs` where the implementation is instrumented.
fn fit_once(
    algorithm: Algorithm,
    points: &PointSet,
    eps: f64,
    min_pts: usize,
    seed: u64,
    obs: &mut dyn Observer,
) -> Clustering {
    match algorithm {
        Algorithm::Dbsvec => Dbsvec::new(DbsvecConfig::new(eps, min_pts))
            .fit_observed(points, obs)
            .into_labels(),
        Algorithm::DbsvecMin => Dbsvec::new(DbsvecConfig::new(eps, min_pts).minimal_nu())
            .fit_observed(points, obs)
            .into_labels(),
        Algorithm::DbsvecFixedNu(nu) => Dbsvec::new(DbsvecConfig::new(eps, min_pts).with_nu(nu))
            .fit_observed(points, obs)
            .into_labels(),
        Algorithm::DbsvecNoWeights => {
            Dbsvec::new(DbsvecConfig::new(eps, min_pts).without_weights())
                .fit_observed(points, obs)
                .into_labels()
        }
        Algorithm::DbsvecNoIncremental => {
            Dbsvec::new(DbsvecConfig::new(eps, min_pts).without_incremental_learning())
                .fit_observed(points, obs)
                .into_labels()
        }
        Algorithm::DbsvecRandomKernel => {
            Dbsvec::new(DbsvecConfig::new(eps, min_pts).with_random_kernel_width(seed))
                .fit_observed(points, obs)
                .into_labels()
        }
        Algorithm::RDbscan => {
            Dbscan::new(eps, min_pts)
                .fit_observed(points, obs)
                .clustering
        }
        Algorithm::KdDbscan => {
            let index = KdTree::build(points);
            Dbscan::new(eps, min_pts)
                .fit_with_index_observed(points, &index, obs)
                .clustering
        }
        Algorithm::RhoApprox => {
            RhoApproxDbscan::new(eps, min_pts, 0.001)
                .fit(points)
                .clustering
        }
        Algorithm::DbscanLsh => DbscanLsh::new(eps, min_pts, seed).fit(points).clustering,
        Algorithm::NqDbscan => {
            NqDbscan::new(eps, min_pts)
                .fit_observed(points, obs)
                .clustering
        }
        Algorithm::KMeans(k) => KMeans::new(k, seed).fit(points).clustering,
    }
}

/// Runs one algorithm on `points` with the given DBSCAN-style parameters,
/// deterministically from `seed` (only the randomized algorithms use it).
pub fn run_algorithm(
    algorithm: Algorithm,
    points: &PointSet,
    eps: f64,
    min_pts: usize,
    seed: u64,
) -> RunOutcome {
    run_algorithm_observed(algorithm, points, eps, min_pts, seed, &mut NoopObserver)
}

/// Like [`run_algorithm`] but reports to a caller-supplied observer.
/// `phases`/`counts` in the outcome stay empty — the caller owns the
/// observer and can fold the stream however it likes.
pub fn run_algorithm_observed(
    algorithm: Algorithm,
    points: &PointSet,
    eps: f64,
    min_pts: usize,
    seed: u64,
    obs: &mut dyn Observer,
) -> RunOutcome {
    let (clustering, seconds) = time(|| fit_once(algorithm, points, eps, min_pts, seed, obs));
    RunOutcome {
        algorithm,
        clustering,
        seconds,
        phases: Vec::new(),
        counts: ReplayCounts::default(),
    }
}

/// Runs with a [`RecordingObserver`] attached and folds its stream into
/// the outcome: per-phase timings plus replayed event counters. For
/// uninstrumented algorithms this costs nothing and the extras stay empty.
pub fn run_algorithm_profiled(
    algorithm: Algorithm,
    points: &PointSet,
    eps: f64,
    min_pts: usize,
    seed: u64,
) -> RunOutcome {
    let mut recorder = RecordingObserver::new();
    let mut outcome = run_algorithm_observed(algorithm, points, eps, min_pts, seed, &mut recorder);
    outcome.phases = recorder.phase_timings();
    outcome.counts = recorder.replay();
    outcome
}

/// Profiled DBSVEC run with an explicit fit thread budget (`0` = all
/// cores, `1` = the sequential path), for the parallel-fit scalability
/// sweep. Labels, counts, and the event stream are identical at every
/// thread count; only the phase wall-clocks move.
pub fn run_dbsvec_threads_profiled(
    points: &PointSet,
    eps: f64,
    min_pts: usize,
    threads: usize,
) -> RunOutcome {
    let mut recorder = RecordingObserver::new();
    let (clustering, seconds) = time(|| {
        Dbsvec::new(DbsvecConfig::new(eps, min_pts).with_threads(threads))
            .fit_observed(points, &mut recorder)
            .into_labels()
    });
    RunOutcome {
        algorithm: Algorithm::Dbsvec,
        clustering,
        seconds,
        phases: recorder.phase_timings(),
        counts: recorder.replay(),
    }
}

/// Profiled DBSVEC run under an explicit configuration, for ablation-style
/// sweeps that toggle solver knobs (e.g. warm start) rather than
/// thread counts. Phase timings and replayed counters are folded into the
/// outcome exactly as in [`run_algorithm_profiled`].
pub fn run_dbsvec_config_profiled(points: &PointSet, config: DbsvecConfig) -> RunOutcome {
    let mut recorder = RecordingObserver::new();
    let (clustering, seconds) = time(|| {
        Dbsvec::new(config)
            .fit_observed(points, &mut recorder)
            .into_labels()
    });
    RunOutcome {
        algorithm: Algorithm::Dbsvec,
        clustering,
        seconds,
        phases: recorder.phase_timings(),
        counts: recorder.replay(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbsvec_geometry::rng::SplitMix64;

    fn blobs() -> PointSet {
        let mut rng = SplitMix64::new(1);
        let mut ps = PointSet::new(2);
        for c in [[0.0, 0.0], [60.0, 0.0]] {
            for _ in 0..60 {
                ps.push(&[c[0] + rng.next_f64() * 4.0, c[1] + rng.next_f64() * 4.0]);
            }
        }
        ps
    }

    #[test]
    fn every_algorithm_runs_and_labels_every_point() {
        let ps = blobs();
        let mut suite = Algorithm::efficiency_suite(2);
        suite.extend([
            Algorithm::DbsvecMin,
            Algorithm::DbsvecNoWeights,
            Algorithm::DbsvecNoIncremental,
            Algorithm::DbsvecRandomKernel,
            Algorithm::DbsvecFixedNu(0.5),
        ]);
        for algo in suite {
            let out = run_algorithm(algo, &ps, 2.0, 4, 7);
            assert_eq!(out.clustering.len(), ps.len(), "{}", algo.name());
            assert!(
                out.clustering.num_clusters() >= 2,
                "{} found {} clusters",
                algo.name(),
                out.clustering.num_clusters()
            );
            assert!(out.seconds >= 0.0);
        }
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(Algorithm::Dbsvec.name(), "DBSVEC");
        assert_eq!(Algorithm::RhoApprox.name(), "rho-Appr");
        assert_eq!(Algorithm::KMeans(5).name(), "k-MEANS");
        assert_eq!(Algorithm::DbsvecNoWeights.name(), "DBSVEC\\WF");
    }

    #[test]
    fn profiled_run_folds_phase_timings_and_counters() {
        let ps = blobs();
        let out = run_algorithm_profiled(Algorithm::Dbsvec, &ps, 2.0, 4, 7);
        assert!(!out.phases.is_empty());
        assert!(out.counts.range_queries > 0);
        assert!(out.counts.seeds > 0);
        let theta = out.theta().expect("instrumented run has a theta");
        assert!(theta > 0.0);
        // Phase totals are sane: the init span covers the whole scan.
        let init = out
            .phases
            .iter()
            .find(|(p, _)| *p == Phase::Init)
            .expect("init phase recorded");
        assert!(init.1.spans >= 1);

        // Uninstrumented algorithms profile to an empty stream.
        let kmeans = run_algorithm_profiled(Algorithm::KMeans(2), &ps, 2.0, 4, 7);
        assert!(kmeans.phases.is_empty());
        assert_eq!(kmeans.counts, ReplayCounts::default());
        assert!(kmeans.theta().is_none());
        assert!(!Algorithm::KMeans(2).is_instrumented());
        assert!(Algorithm::Dbsvec.is_instrumented());
    }

    #[test]
    fn threaded_profiled_run_matches_sequential() {
        let ps = blobs();
        let baseline = run_dbsvec_threads_profiled(&ps, 2.0, 4, 1);
        for threads in [2usize, 4] {
            let par = run_dbsvec_threads_profiled(&ps, 2.0, 4, threads);
            assert_eq!(baseline.clustering, par.clustering, "threads={threads}");
            assert_eq!(baseline.counts, par.counts, "threads={threads}");
            assert!(!par.phases.is_empty());
        }
    }

    #[test]
    fn config_profiled_run_compares_warm_and_cold_solvers() {
        let ps = blobs();
        let warm = run_dbsvec_config_profiled(&ps, DbsvecConfig::new(2.0, 4));
        let cold = run_dbsvec_config_profiled(&ps, DbsvecConfig::new(2.0, 4).cold_start());
        assert_eq!(warm.clustering, cold.clustering);
        assert_eq!(cold.counts.warm_started_trainings, 0);
        // Pinned: on three warm-started solves this small fit happens to
        // spend more iterations warm than cold (the sweeps compare totals).
        assert_eq!(
            (warm.counts.smo_iterations, cold.counts.smo_iterations),
            (120, 111)
        );
        assert!(!warm.phases.is_empty());
    }

    #[test]
    fn efficiency_suite_matches_figure_six() {
        let suite = Algorithm::efficiency_suite(10);
        assert_eq!(suite.len(), 7);
        assert!(suite.contains(&Algorithm::Dbsvec));
        assert!(suite.contains(&Algorithm::RDbscan));
    }
}
