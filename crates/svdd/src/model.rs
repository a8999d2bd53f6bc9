//! The trained SVDD model: multipliers, radius, and decision function.

use dbsvec_geometry::{PointId, PointSet};

use crate::kernel::GaussianKernel;
use crate::smo::RowCacheStats;

/// Classification of a target point by its multiplier (paper §II-D).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SvType {
    /// `α_i ≈ 0`: interior point, not a support vector.
    Interior,
    /// `0 < α_i < ω_i C`: normal support vector, on the sphere surface.
    Normal,
    /// `α_i ≈ ω_i C`: bounded support vector, outside the sphere.
    Bounded,
}

/// How one SMO solve went: iteration spend, termination cause, warm-start
/// quality, and kernel-row traffic.
///
/// All values are deterministic: the solver is sequential.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SolveDiagnostics {
    /// SMO iterations spent.
    pub iterations: usize,
    /// `true` when the solver stopped with KKT violation below tolerance;
    /// `false` when it exhausted [`crate::SmoOptions::max_iterations`].
    pub converged: bool,
    /// Whether the solve started from a previous round's α (a session was
    /// attached, warm starting was enabled, and a prior solve existed).
    pub warm_started: bool,
    /// The KKT violation `g_down − g_up` of the starting point, measured
    /// at the first working-set selection (0 when the start was already
    /// optimal). A warm start is good exactly when this is small.
    pub initial_kkt_violation: f64,
    /// This solve's kernel-row traffic (see [`crate::SmoOptions::cache_rows`]).
    pub cache: RowCacheStats,
}

/// A solved (weighted) SVDD description of one target set.
///
/// Produced by [`crate::SvddProblem::solve`]. The model keeps the target
/// point *ids* and multipliers; evaluating the decision function requires
/// the same [`PointSet`] the problem was built from.
#[derive(Clone, Debug)]
pub struct SvddModel {
    target_ids: Vec<PointId>,
    alpha: Vec<f64>,
    upper: Vec<f64>,
    kernel: GaussianKernel,
    /// Squared sphere radius in kernel space.
    r_sq: f64,
    /// The constant `αᵀKα` appearing in the decision function.
    alpha_k_alpha: f64,
    /// Indices (into `target_ids`) of points with `α > tol`.
    support: Vec<usize>,
    /// How the solve went (iterations, termination, cache traffic).
    diag: SolveDiagnostics,
}

/// Multipliers below this are treated as exactly zero.
pub(crate) const ALPHA_TOL: f64 = 1e-9;

impl SvddModel {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        target_ids: Vec<PointId>,
        alpha: Vec<f64>,
        upper: Vec<f64>,
        kernel: GaussianKernel,
        r_sq: f64,
        alpha_k_alpha: f64,
        support: Vec<usize>,
        diag: SolveDiagnostics,
    ) -> Self {
        debug_assert!(support.windows(2).all(|w| w[0] < w[1]));
        Self {
            target_ids,
            alpha,
            upper,
            kernel,
            r_sq,
            alpha_k_alpha,
            support,
            diag,
        }
    }

    /// Ids of the support vectors (`α_i > 0`), in target order.
    pub fn support_vectors(&self) -> Vec<PointId> {
        self.support.iter().map(|&i| self.target_ids[i]).collect()
    }

    /// Number of support vectors.
    pub fn num_support_vectors(&self) -> usize {
        self.support.len()
    }

    /// The target ids the model was trained on.
    pub fn target_ids(&self) -> &[PointId] {
        &self.target_ids
    }

    /// The Lagrange multipliers, aligned with [`SvddModel::target_ids`].
    pub fn alphas(&self) -> &[f64] {
        &self.alpha
    }

    /// Classifies target point `i` (index into [`SvddModel::target_ids`]).
    pub fn sv_type(&self, i: usize) -> SvType {
        let a = self.alpha[i];
        if a <= ALPHA_TOL {
            SvType::Interior
        } else if a >= self.upper[i] - ALPHA_TOL {
            SvType::Bounded
        } else {
            SvType::Normal
        }
    }

    /// Squared kernel-space radius `R²` of the description sphere.
    pub fn radius_sq(&self) -> f64 {
        self.r_sq
    }

    /// The constant term `αᵀKα` of the decision function — needed (along
    /// with the support vectors, α's, σ, and `R²`) to evaluate
    /// [`SvddModel::decision`] without re-solving, e.g. after persisting a
    /// trained boundary.
    pub fn alpha_k_alpha(&self) -> f64 {
        self.alpha_k_alpha
    }

    /// The kernel the model was trained with.
    pub fn kernel(&self) -> GaussianKernel {
        self.kernel
    }

    /// SMO iterations used to reach convergence.
    pub fn iterations(&self) -> usize {
        self.diag.iterations
    }

    /// Kernel-row `(hits, misses)` recorded during the solve.
    pub fn cache_stats(&self) -> (u64, u64) {
        (self.diag.cache.hits, self.diag.cache.misses)
    }

    /// Full solve diagnostics (termination, warm start, cache).
    pub fn diagnostics(&self) -> SolveDiagnostics {
        self.diag
    }

    /// Whether the solver reached the KKT tolerance (as opposed to
    /// exhausting its iteration budget).
    pub fn converged(&self) -> bool {
        self.diag.converged
    }

    /// The discrimination function `F(x) = ||Φ(x) − a||²` (paper Eq. 12):
    ///
    /// ```text
    /// F(x) = K(x,x) − 2 Σ_i α_i K(x_i, x) + αᵀKα
    /// ```
    ///
    /// `x` is inside the described domain iff `F(x) <= R²`.
    pub fn decision(&self, points: &PointSet, x: &[f64]) -> f64 {
        let mut cross = 0.0;
        for &i in &self.support {
            cross += self.alpha[i] * self.kernel.eval(points.point(self.target_ids[i]), x);
        }
        1.0 - 2.0 * cross + self.alpha_k_alpha
    }

    /// Whether `x` lies inside (or on) the description sphere.
    pub fn contains(&self, points: &PointSet, x: &[f64]) -> bool {
        self.decision(points, x) <= self.r_sq + 1e-9
    }
}
