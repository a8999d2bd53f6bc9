//! DBSVEC configuration, including the paper's ablation toggles.

use dbsvec_svdd::{KernelWidthStrategy, SmoOptions, WeightOptions, DEFAULT_LEARNING_THRESHOLD};

/// How the penalty fraction ν is chosen per SVDD training (paper §IV-C).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum NuStrategy {
    /// The paper's adaptive rule `ν* = d·√(log_MinPts ñ)/ñ` (Eq. 20) —
    /// the plain "DBSVEC" configuration of the experiments.
    Optimal,
    /// The minimum `ν = 1/ñ` — the paper's `DBSVEC_min` variant (Table III),
    /// trading accuracy for the fewest support vectors.
    Minimal,
    /// A fixed ν, used by the Fig. 8 penalty-factor sweep. Clamped to
    /// `[1/ñ, 1]` at training time.
    Fixed(f64),
}

/// How core candidates are drawn for the sampled fit mode (DBSCAN++-style
/// subsampled core discovery; see `crate::sample`).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum SamplingMode {
    /// Every point is a core candidate — the classic full fit.
    Exact,
    /// Each point is a candidate independently with probability `rate`
    /// (expected subsample size `rate·n`).
    Uniform {
        /// Per-point inclusion probability in `(0, 1]`.
        rate: f64,
    },
    /// Greedy farthest-first (k-center) subset of `m` candidates, the
    /// geometry-aware draw DBSCAN++ recommends for unbalanced densities.
    KCenter {
        /// Candidate budget. `m >= n` degenerates to `Exact`.
        m: usize,
    },
}

/// Default seed for sampled draws, matching the bench harness discipline.
pub const DEFAULT_SAMPLING_SEED: u64 = 20190401;

/// Seeded core-candidate subsampling for the fit.
///
/// The draw is a pure function of `(points, SamplingConfig)` via the
/// workspace's SplitMix64 stream, so a sampled fit is as deterministic as
/// an exact one: refitting reproduces its labels, stats, and traces bit
/// for bit, and a draw that covers all n points (including
/// `Uniform { rate: 1.0 }`) takes the exact fit path untouched.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SamplingConfig {
    /// How the candidate set is drawn.
    pub mode: SamplingMode,
    /// SplitMix64 seed for the draw.
    pub seed: u64,
}

impl Default for SamplingConfig {
    fn default() -> Self {
        Self {
            mode: SamplingMode::Exact,
            seed: DEFAULT_SAMPLING_SEED,
        }
    }
}

/// Full configuration of a DBSVEC run.
///
/// [`DbsvecConfig::new`] gives the paper's recommended settings; the
/// remaining fields expose every knob the evaluation section sweeps:
///
/// | field | paper experiment |
/// |---|---|
/// | `nu` | Fig. 8 (ν sweep), Table III (`DBSVEC_min`) |
/// | `weighted` = false | Fig. 9a `DBSVEC\WF` |
/// | `incremental` = false | Fig. 9a/9b `DBSVEC\IL` |
/// | `kernel_width` = `RandomRange` | Fig. 9b `DBSVEC\OK` |
/// | `learning_threshold` | §IV-B.1 (T in 2–4, default 3) |
#[derive(Clone, Debug)]
pub struct DbsvecConfig {
    /// Range-query radius ε.
    pub eps: f64,
    /// Density threshold MinPts (a point is core when its closed
    /// ε-neighborhood holds at least this many points, itself included).
    pub min_pts: usize,
    /// Penalty-fraction strategy.
    pub nu: NuStrategy,
    /// `T`: trainings a point may participate in before eviction from the
    /// SVDD target set. Ignored when `incremental` is false.
    pub learning_threshold: u32,
    /// Adaptive penalty weights (Eq. 7). `false` reproduces `DBSVEC\WF`.
    pub weighted: bool,
    /// Weight tuning (memory factor λ, weight floor).
    pub weight_options: WeightOptions,
    /// Incremental learning (§IV-B.1). `false` reproduces `DBSVEC\IL`:
    /// every training sees the whole sub-cluster.
    pub incremental: bool,
    /// Kernel width selection (§IV-B.2). `RandomRange` reproduces
    /// `DBSVEC\OK`.
    pub kernel_width: KernelWidthStrategy,
    /// SMO solver options.
    pub smo: SmoOptions,
    /// Core-candidate subsampling (default: `Exact`, the full fit).
    /// Seeding and support-vector expansion restrict themselves to the
    /// drawn candidates; unsampled points are attached to their nearest
    /// discovered core within ε afterwards or confirmed as noise.
    pub sampling: SamplingConfig,
}

impl DbsvecConfig {
    /// The paper's recommended configuration for a given ε and MinPts:
    /// adaptive ν*, adaptive weights, incremental learning with `T = 3`,
    /// and the `σ = r/√2` kernel width rule.
    ///
    /// # Panics
    ///
    /// Panics unless `eps` is positive and finite and `min_pts >= 1`.
    pub fn new(eps: f64, min_pts: usize) -> Self {
        assert!(
            eps.is_finite() && eps > 0.0,
            "eps must be positive and finite, got {eps}"
        );
        assert!(min_pts >= 1, "MinPts must be at least 1");
        Self {
            eps,
            min_pts,
            nu: NuStrategy::Optimal,
            learning_threshold: DEFAULT_LEARNING_THRESHOLD,
            weighted: true,
            weight_options: WeightOptions::default(),
            incremental: true,
            kernel_width: KernelWidthStrategy::CenterRadius,
            smo: SmoOptions::default(),
            sampling: SamplingConfig::default(),
        }
    }

    /// Restricts core discovery to a uniform candidate subsample: each
    /// point is a candidate with probability `rate`, drawn from the seeded
    /// SplitMix64 stream. `rate = 1.0` is exactly the full fit.
    ///
    /// # Panics
    ///
    /// Panics unless `rate` is finite and in `(0, 1]`.
    pub fn with_uniform_sampling(mut self, rate: f64, seed: u64) -> Self {
        assert!(
            rate.is_finite() && rate > 0.0 && rate <= 1.0,
            "sampling rate must be in (0, 1], got {rate}"
        );
        self.sampling = SamplingConfig {
            mode: SamplingMode::Uniform { rate },
            seed,
        };
        self
    }

    /// Restricts core discovery to a greedy k-center (farthest-first)
    /// subsample of `m` candidates. `m >= n` degenerates to the full fit.
    ///
    /// # Panics
    ///
    /// Panics when `m` is zero.
    pub fn with_kcenter_sampling(mut self, m: usize, seed: u64) -> Self {
        assert!(m >= 1, "k-center budget must be at least 1");
        self.sampling = SamplingConfig {
            mode: SamplingMode::KCenter { m },
            seed,
        };
        self
    }

    /// Switches to the `DBSVEC_min` penalty setting (`ν = 1/ñ`).
    pub fn minimal_nu(mut self) -> Self {
        self.nu = NuStrategy::Minimal;
        self
    }

    /// Fixes ν for penalty-factor sweeps (Fig. 8).
    pub fn with_nu(mut self, nu: f64) -> Self {
        assert!(nu > 0.0 && nu <= 1.0, "nu must be in (0, 1], got {nu}");
        self.nu = NuStrategy::Fixed(nu);
        self
    }

    /// Disables adaptive penalty weights (`DBSVEC\WF` ablation).
    pub fn without_weights(mut self) -> Self {
        self.weighted = false;
        self
    }

    /// Disables incremental learning (`DBSVEC\IL` ablation).
    pub fn without_incremental_learning(mut self) -> Self {
        self.incremental = false;
        self
    }

    /// Replaces the kernel-width rule with a seeded random draw from the
    /// pairwise-distance range (`DBSVEC\OK` ablation).
    pub fn with_random_kernel_width(mut self, seed: u64) -> Self {
        self.kernel_width = KernelWidthStrategy::RandomRange { seed };
        self
    }

    /// Overrides the learning threshold `T`.
    pub fn with_learning_threshold(mut self, t: u32) -> Self {
        self.learning_threshold = t;
        self
    }

    /// Escape hatch: disables cross-round α warm starts, so every
    /// expansion round solves its SVDD from scratch the way the
    /// pre-incremental solver did.
    pub fn cold_start(mut self) -> Self {
        self.smo.warm_start = false;
        self
    }

    /// Uses the literal Eq. 5 kernel distance for the penalty weights
    /// instead of the O(ñ) centroid proxy (see
    /// [`dbsvec_svdd::WeightOptions::exact_kernel_distance`]). Quadratic in
    /// the target size; exposed for the weight-proxy ablation bench.
    pub fn with_exact_kernel_weights(mut self) -> Self {
        self.weight_options.exact_kernel_distance = true;
        self
    }

    /// Resolves the ν strategy for a target set of size `target_size`.
    pub(crate) fn resolve_nu(&self, dims: usize, target_size: usize) -> f64 {
        let n = target_size.max(1);
        match self.nu {
            NuStrategy::Optimal => dbsvec_svdd::optimal_nu(dims, n, self.min_pts.max(2)),
            NuStrategy::Minimal => dbsvec_svdd::params::minimal_nu(n),
            NuStrategy::Fixed(nu) => nu.clamp(1.0 / n as f64, 1.0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_configuration_matches_paper() {
        let c = DbsvecConfig::new(1.5, 10);
        assert_eq!(c.eps, 1.5);
        assert_eq!(c.min_pts, 10);
        assert_eq!(c.nu, NuStrategy::Optimal);
        assert_eq!(c.learning_threshold, 3);
        assert!(c.weighted);
        assert!(c.incremental);
        assert_eq!(c.kernel_width, KernelWidthStrategy::CenterRadius);
        assert_eq!(c.sampling.mode, SamplingMode::Exact);
        assert_eq!(c.sampling.seed, DEFAULT_SAMPLING_SEED);
        // Warm starts are on by default.
        assert!(c.smo.warm_start);
    }

    #[test]
    fn cold_start_disables_warm_start() {
        let c = DbsvecConfig::new(1.0, 5).cold_start();
        assert!(!c.smo.warm_start);
    }

    #[test]
    fn ablation_builders_flip_the_right_toggles() {
        let c = DbsvecConfig::new(1.0, 5)
            .without_weights()
            .without_incremental_learning()
            .with_random_kernel_width(7)
            .with_learning_threshold(2);
        assert!(!c.weighted);
        assert!(!c.incremental);
        assert_eq!(c.kernel_width, KernelWidthStrategy::RandomRange { seed: 7 });
        assert_eq!(c.learning_threshold, 2);
    }

    #[test]
    fn exact_kernel_weights_toggle() {
        let c = DbsvecConfig::new(1.0, 5).with_exact_kernel_weights();
        assert!(c.weight_options.exact_kernel_distance);
        assert!(
            !DbsvecConfig::new(1.0, 5)
                .weight_options
                .exact_kernel_distance
        );
    }

    #[test]
    fn resolve_nu_fixed_is_clamped() {
        let c = DbsvecConfig::new(1.0, 5).with_nu(0.9);
        // With ñ = 2, 1/ñ = 0.5 <= 0.9 <= 1: unchanged.
        assert!((c.resolve_nu(2, 2) - 0.9).abs() < 1e-12);
        // Fixed below 1/ñ clamps up.
        let c2 = DbsvecConfig::new(1.0, 5).with_nu(0.001);
        assert!((c2.resolve_nu(2, 10) - 0.1).abs() < 1e-12);
    }

    #[test]
    fn resolve_nu_minimal_is_one_over_n() {
        let c = DbsvecConfig::new(1.0, 5).minimal_nu();
        assert!((c.resolve_nu(3, 40) - 1.0 / 40.0).abs() < 1e-15);
    }

    #[test]
    fn sampling_builders_set_mode_and_seed() {
        let u = DbsvecConfig::new(1.0, 5).with_uniform_sampling(0.25, 7);
        assert_eq!(u.sampling.mode, SamplingMode::Uniform { rate: 0.25 });
        assert_eq!(u.sampling.seed, 7);
        let k = DbsvecConfig::new(1.0, 5).with_kcenter_sampling(40, 11);
        assert_eq!(k.sampling.mode, SamplingMode::KCenter { m: 40 });
        assert_eq!(k.sampling.seed, 11);
    }

    #[test]
    #[should_panic(expected = "sampling rate must be in (0, 1]")]
    fn rejects_zero_sampling_rate() {
        let _ = DbsvecConfig::new(1.0, 5).with_uniform_sampling(0.0, 1);
    }

    #[test]
    #[should_panic(expected = "sampling rate must be in (0, 1]")]
    fn rejects_sampling_rate_above_one() {
        let _ = DbsvecConfig::new(1.0, 5).with_uniform_sampling(1.5, 1);
    }

    #[test]
    #[should_panic(expected = "k-center budget must be at least 1")]
    fn rejects_zero_kcenter_budget() {
        let _ = DbsvecConfig::new(1.0, 5).with_kcenter_sampling(0, 1);
    }

    #[test]
    #[should_panic(expected = "eps must be positive")]
    fn rejects_non_positive_eps() {
        let _ = DbsvecConfig::new(0.0, 5);
    }

    #[test]
    #[should_panic(expected = "nu must be in")]
    fn rejects_nu_above_one() {
        let _ = DbsvecConfig::new(1.0, 5).with_nu(1.5);
    }

    #[test]
    fn min_pts_one_resolves_nu_without_panicking() {
        let c = DbsvecConfig::new(1.0, 1);
        let nu = c.resolve_nu(2, 100);
        assert!(nu > 0.0 && nu <= 1.0);
    }
}
