//! Sequential Minimal Optimization for the (weighted) SVDD dual.
//!
//! The dual problem (paper Eq. 11, after dropping the constant linear term
//! `Σ α_i K_ii = 1` of the Gaussian kernel) is
//!
//! ```text
//! minimize   f(α) = αᵀ K α
//! subject to Σ_i α_i = 1,   0 <= α_i <= u_i        (u_i = ω_i C)
//! ```
//!
//! Because every coefficient in the equality constraint is `+1`, a feasible
//! direction moves mass from one multiplier to another. Each SMO iteration:
//!
//! 1. **selects** the pair with maximum first-order KKT violation —
//!    `i = argmin G_k` over `α_k < u_k` (most profitable to grow) and
//!    `j = argmax G_k` over `α_k > 0` (most profitable to shrink), where
//!    `G = 2Kα` is the gradient;
//! 2. **moves** `δ = (G_j − G_i) / (2η)` with curvature
//!    `η = K_ii + K_jj − 2K_ij = 2(1 − K_ij) > 0`, clipped to the box;
//! 3. **updates** the gradient with the two kernel rows:
//!    `G_k += 2δ (K_ik − K_jk)`.
//!
//! Convergence: the duality gap proxy `G_j − G_i` is monotone under exact
//! pair optimization (Keerthi et al.); iteration stops at
//! [`SmoOptions::tolerance`] or the iteration cap.
//!
//! # Warm starts
//!
//! During support vector expansion the same sub-cluster is solved once per
//! round over a mostly-overlapping target set. Attaching a
//! [`SolverSession`] (see [`SvddProblem::with_session`]) makes consecutive
//! solves reuse the previous round's multipliers: each carried-over α_i is
//! clipped into the *new* box `[0, u_i]` (the weights ω_i change every
//! round) and the sum is repaired back to the simplex — scaled down when
//! `Σα > 1`, greedily topped up in index order when `Σα < 1`. The repaired
//! point is feasible by construction and, because consecutive rounds differ
//! by a few boundary points, usually near-optimal: the remaining work is
//! the one O(ñ · #seeds) gradient reconstruction plus a handful of
//! iterations. [`SolveDiagnostics::initial_kkt_violation`] measures exactly
//! how good the seed was.
//!
//! # Active-set shrinking
//!
//! Most multipliers sit pinned at a bound with strongly-signed gradients
//! long before convergence (interior points at 0, outliers at u_i).
//! Shrinking drops them from working-set selection: every
//! [`SmoOptions::shrink_interval`] iterations, variables with
//! `α_k ≈ 0, G_k > G_down` or `α_k ≈ u_k, G_k < G_up` are deactivated. The
//! heuristic can be wrong, so the solver never declares convergence from a
//! shrunk state: on any stop condition it reconstructs the gradients of the
//! shrunk variables (`G_k = 2 Σ_{α_j>0} α_j K_jk`), reactivates everything,
//! and re-checks the KKT conditions over the *full* set — only a clean
//! full-set pass terminates.
//!
//! # Kernel rows
//!
//! Each solve packs its target's coordinates contiguously once and keeps
//! an LRU slab of at most [`SmoOptions::cache_rows`] kernel rows
//! `K(x_t, ·)`, evaluated at this solve's σ in target order. A row costs
//! O(ñ·d) multiply-adds and ñ `exp` calls once per miss; every read after
//! that — the initial gradient, the second-order η's, the gradient update,
//! and the shrink reconstruction — is a plain slice access, and the
//! gradient update is a contiguous axpy over the two working rows. Rows
//! never outlive the solve: DBSVEC re-resolves σ before every round, so a
//! kernel value is stale by the next one anyway.
//!
//! Cost: O(ñ) selection and update work per iteration plus O(ñ·d) per row
//! miss, in O(ñ · cache_rows) memory. With DBSVEC's small ν (few support
//! vectors) a solve takes few iterations and touches few rows, which is
//! what makes per-expansion SVDD training effectively linear in ñ (paper
//! §IV-D).

use dbsvec_geometry::{squared_euclidean, PointId, PointSet};

use crate::incremental::SolverSession;
use crate::kernel::GaussianKernel;
use crate::model::{SolveDiagnostics, SvddModel, ALPHA_TOL};
use crate::params::nu_to_c;

/// Solver configuration.
#[derive(Clone, Copy, Debug)]
pub struct SmoOptions {
    /// Stop when the maximum KKT violation `G_j − G_i` drops below this.
    /// Gradient entries live in `[0, 2]` for a Gaussian kernel, so the
    /// default `1e-3` is a relative accuracy of about 5e-4 — DBSVEC only
    /// needs the *identity* of the boundary points, not polished
    /// multipliers, and the looser stop roughly halves SMO iterations.
    pub tolerance: f64,
    /// Hard iteration cap; `0` means
    /// [`SmoOptions::MAX_ITERATIONS_PER_POINT`]` · ñ + `
    /// [`SmoOptions::MAX_ITERATIONS_FLOOR`]. Hitting the cap is surfaced as
    /// `converged == false` in [`SolveDiagnostics`], never silently.
    pub max_iterations: usize,
    /// Kernel rows one solve may hold at once; `0` means `min(ñ, 512)`,
    /// and values below 2 (the working pair) are raised to 2. Capacity
    /// changes only the hit/miss counts, never the solution.
    pub cache_rows: usize,
    /// Seed each solve from the session's previous multipliers (box
    /// projection + Σα = 1 repair) instead of a cold greedy fill. Only
    /// takes effect when a [`SolverSession`] with at least one completed
    /// solve is attached. Default `true`.
    pub warm_start: bool,
    /// Enable active-set shrinking (see module docs). Convergence is
    /// always validated by a full KKT re-scan, so the final accuracy is
    /// identical with or without it. Default `true`.
    pub shrinking: bool,
    /// Iterations between shrink passes; `0` means `min(ñ, 1000)` (the
    /// libsvm heuristic). Smaller values shrink more aggressively at the
    /// price of more reconstruction re-scans.
    pub shrink_interval: usize,
}

impl Default for SmoOptions {
    fn default() -> Self {
        Self {
            tolerance: 1e-3,
            max_iterations: 0,
            cache_rows: 0,
            warm_start: true,
            shrinking: true,
            shrink_interval: 0,
        }
    }
}

impl SmoOptions {
    /// Per-point factor of the default iteration cap. Exact pair
    /// optimization converges linearly, and observed solves take a few
    /// times the support-vector count, so 200·ñ is a generous margin — the
    /// cap exists to bound pathological inputs, not to tune accuracy.
    pub const MAX_ITERATIONS_PER_POINT: usize = 200;

    /// Additive floor of the default iteration cap, so tiny targets still
    /// get enough budget for slow tail convergence.
    pub const MAX_ITERATIONS_FLOOR: usize = 10_000;

    /// The effective iteration cap for a target of size `n`.
    pub fn resolve_max_iterations(&self, n: usize) -> usize {
        if self.max_iterations == 0 {
            Self::MAX_ITERATIONS_PER_POINT * n + Self::MAX_ITERATIONS_FLOOR
        } else {
            self.max_iterations
        }
    }

    fn resolve_shrink_interval(&self, n: usize) -> usize {
        if self.shrink_interval == 0 {
            n.clamp(1, 1000)
        } else {
            self.shrink_interval.max(1)
        }
    }
}

/// Kernel-row traffic of one solve.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RowCacheStats {
    /// Row reads served from a resident row.
    pub hits: u64,
    /// Row reads that computed the row.
    pub misses: u64,
    /// Resident rows dropped to make room (LRU order).
    pub evictions: u64,
}

/// One solve's kernel rows: an LRU slab of at most `capacity` rows, row
/// `t` holding `K(x_t, x_k)` for every target position `k`.
struct KernelRows {
    kernel: GaussianKernel,
    /// The target's coordinates, packed contiguously in target order.
    target: PointSet,
    /// Resident rows, `target.len()` values per slot.
    slab: Vec<f64>,
    /// `slot_of[t]`: the slot holding row `t`, if resident.
    slot_of: Vec<Option<usize>>,
    /// `owner[s]`: the row slot `s` holds.
    owner: Vec<usize>,
    /// `last_use[s]`: tick of slot `s`'s latest read; the LRU victim is
    /// the slot with the smallest.
    last_use: Vec<u64>,
    tick: u64,
    capacity: usize,
    stats: RowCacheStats,
}

impl KernelRows {
    fn new(points: &PointSet, ids: &[PointId], kernel: GaussianKernel, capacity: usize) -> Self {
        let n = ids.len();
        // Never more slots than rows; at least the working pair.
        let capacity = capacity.max(2).min(n.max(2));
        Self {
            kernel,
            target: points.subset(ids),
            slab: Vec::with_capacity(capacity * n),
            slot_of: vec![None; n],
            owner: Vec::with_capacity(capacity),
            last_use: Vec::with_capacity(capacity),
            tick: 0,
            capacity,
            stats: RowCacheStats::default(),
        }
    }

    /// Makes row `t` resident, with accounting, and returns its slot. The
    /// slot stays valid through the next `fetch` of another row: that read
    /// can evict only the least recently used slot, and capacity >= 2.
    fn fetch(&mut self, t: usize) -> usize {
        self.tick += 1;
        if let Some(s) = self.slot_of[t] {
            self.stats.hits += 1;
            self.last_use[s] = self.tick;
            return s;
        }
        self.stats.misses += 1;
        let n = self.slot_of.len();
        let s = if self.owner.len() < self.capacity {
            self.owner.push(t);
            self.last_use.push(self.tick);
            self.slab.resize(self.owner.len() * n, 0.0);
            self.owner.len() - 1
        } else {
            let s = (0..self.capacity)
                .min_by_key(|&s| self.last_use[s])
                .expect("capacity >= 2");
            self.slot_of[self.owner[s]] = None;
            self.stats.evictions += 1;
            self.owner[s] = t;
            self.last_use[s] = self.tick;
            s
        };
        self.slot_of[t] = Some(s);
        let xt = self.target.point(t as PointId);
        let row = &mut self.slab[s * n..(s + 1) * n];
        for (out, xk) in row
            .iter_mut()
            .zip(self.target.as_flat().chunks_exact(xt.len()))
        {
            *out = self.kernel.eval_sq_dist(squared_euclidean(xt, xk));
        }
        s
    }

    /// The row held by slot `s`.
    fn slot(&self, s: usize) -> &[f64] {
        let n = self.slot_of.len();
        &self.slab[s * n..(s + 1) * n]
    }

    /// Row `t`, with accounting.
    fn row(&mut self, t: usize) -> &[f64] {
        let s = self.fetch(t);
        self.slot(s)
    }
}

/// A weighted SVDD training problem over a subset of a [`PointSet`].
pub struct SvddProblem<'a> {
    points: &'a PointSet,
    ids: &'a [PointId],
    kernel: GaussianKernel,
    upper: Vec<f64>,
    options: SmoOptions,
    session: Option<&'a mut SolverSession>,
}

impl<'a> SvddProblem<'a> {
    /// Creates a problem over `ids` with uniform unit bounds (`C = 1`,
    /// i.e. ν = 1/ñ — the `DBSVEC_min` setting). Use [`SvddProblem::with_nu`]
    /// or [`SvddProblem::with_bounds`] to change them.
    ///
    /// # Panics
    ///
    /// Panics if `ids` is empty.
    pub fn new(points: &'a PointSet, ids: &'a [PointId], kernel: GaussianKernel) -> Self {
        assert!(!ids.is_empty(), "SVDD requires a nonempty target set");
        Self {
            points,
            ids,
            kernel,
            upper: vec![1.0; ids.len()],
            options: SmoOptions::default(),
            session: None,
        }
    }

    /// Sets uniform bounds from a penalty fraction ν: `u_i = C = 1/(ν·ñ)`.
    pub fn with_nu(mut self, nu: f64) -> Self {
        let c = nu_to_c(nu, self.ids.len());
        self.upper = vec![c; self.ids.len()];
        self
    }

    /// Sets per-point bounds `u_i = ω_i C` (the weighted dual of Eq. 11).
    ///
    /// # Panics
    ///
    /// Panics if the bound vector has the wrong length, contains
    /// non-positive entries, or sums below 1 (infeasible simplex).
    pub fn with_bounds(mut self, upper: Vec<f64>) -> Self {
        assert_eq!(upper.len(), self.ids.len(), "one bound per target point");
        assert!(
            upper.iter().all(|&u| u > 0.0 && u.is_finite()),
            "bounds must be positive"
        );
        let total: f64 = upper.iter().sum();
        assert!(
            total >= 1.0 - 1e-9,
            "Σ upper bounds = {total} < 1: dual infeasible"
        );
        self.upper = upper;
        self
    }

    /// Overrides solver options.
    pub fn with_options(mut self, options: SmoOptions) -> Self {
        self.options = options;
        self
    }

    /// Attaches a cross-round [`SolverSession`]: with
    /// [`SmoOptions::warm_start`] the previous solve's α seeds this one.
    pub fn with_session(mut self, session: &'a mut SolverSession) -> Self {
        self.session = Some(session);
        self
    }

    /// Runs SMO to convergence and returns the trained model.
    pub fn solve(self) -> SvddModel {
        let Self {
            points,
            ids,
            kernel,
            upper,
            options,
            session,
        } = self;
        match session {
            Some(session) => solve_in_session(points, ids, kernel, upper, options, session),
            // A throwaway session makes the sessionless call exactly the
            // first (cold) solve of a session — one code path to test.
            None => solve_in_session(
                points,
                ids,
                kernel,
                upper,
                options,
                &mut SolverSession::new(),
            ),
        }
    }
}

/// Rebuilds `G_k = 2 Σ_{α_j>0} α_j K_jk` for every inactive `k`,
/// accumulating in ascending source order.
fn reconstruct_shrunk_gradients(
    rows: &mut KernelRows,
    alpha: &[f64],
    active: &[bool],
    grad: &mut [f64],
) {
    let shrunk: Vec<usize> = (0..alpha.len()).filter(|&k| !active[k]).collect();
    if shrunk.is_empty() {
        return;
    }
    for &k in &shrunk {
        grad[k] = 0.0;
    }
    for (t, &a) in alpha.iter().enumerate() {
        if a > 0.0 {
            let a2 = 2.0 * a;
            let row = rows.row(t);
            for &k in &shrunk {
                grad[k] += a2 * row[k];
            }
        }
    }
}

fn solve_in_session(
    points: &PointSet,
    ids: &[PointId],
    kernel: GaussianKernel,
    upper: Vec<f64>,
    options: SmoOptions,
    session: &mut SolverSession,
) -> SvddModel {
    let n = ids.len();
    let max_iter = options.resolve_max_iterations(n);
    let cache_rows = if options.cache_rows == 0 {
        n.min(512)
    } else {
        options.cache_rows
    };
    let mut rows = KernelRows::new(points, ids, kernel, cache_rows);

    let warm = options.warm_start && session.solves > 0;
    let mut alpha = vec![0.0; n];
    if warm {
        // ---- Warm start: refill the simplex greedily over the previous
        // round's support set, strongest multiplier first, each point
        // capped by its new box. The *support* (which points carried mass)
        // transfers across rounds; the exact values do not, because σ is
        // re-resolved every round and shifts the whole Gram matrix under
        // the old optimum — so the init borrows the support and lets the
        // solver place the values.
        let mut support: Vec<(usize, f64)> = ids
            .iter()
            .enumerate()
            .filter_map(|(t, id)| {
                let a = session
                    .alpha
                    .get(id)
                    .map_or(0.0, |a| a.clamp(0.0, upper[t]));
                (a > 0.0).then_some((t, a))
            })
            .collect();
        support.sort_by(|x, y| y.1.total_cmp(&x.1).then(x.0.cmp(&y.0)));
        let mut remaining = 1.0;
        for &(t, _) in &support {
            let take = upper[t].min(remaining);
            alpha[t] = take;
            remaining -= take;
            if remaining <= 0.0 {
                break;
            }
        }
        // Survivors' caps could not absorb the whole simplex (heavy
        // eviction or shrunk bounds): top up in index order like a cold fill.
        if remaining > 0.0 {
            for (a, &u) in alpha.iter_mut().zip(&upper) {
                let take = (u - *a).min(remaining).max(0.0);
                *a += take;
                remaining -= take;
                if remaining <= 0.0 {
                    break;
                }
            }
        }
        debug_assert!(remaining <= 1e-9, "with_bounds guarantees feasibility");
    } else {
        // ---- Cold start: greedily fill bounds until Σα = 1.
        let mut remaining = 1.0;
        for (a, &u) in alpha.iter_mut().zip(&upper) {
            let take = u.min(remaining);
            *a = take;
            remaining -= take;
            if remaining <= 0.0 {
                break;
            }
        }
        debug_assert!(remaining <= 1e-9, "with_bounds guarantees feasibility");
    }

    // ---- Initial gradient G = 2Kα from the rows of nonzero multipliers,
    // accumulated in ascending source order.
    let mut grad = vec![0.0; n];
    for (t, &a) in alpha.iter().enumerate() {
        if a > 0.0 {
            let a2 = 2.0 * a;
            for (g, &k) in grad.iter_mut().zip(rows.row(t)) {
                *g += a2 * k;
            }
        }
    }

    // ---- Main loop.
    let shrinking = options.shrinking && n > 1;
    let shrink_interval = options.resolve_shrink_interval(n);
    let mut active = vec![true; n];
    let mut n_active = n;
    let mut until_shrink = shrink_interval;
    let mut iterations = 0usize;
    let mut converged = false;
    let mut initial_kkt_violation = 0.0f64;
    let mut first_selection = true;
    let mut shrunk_peak = 0usize;
    let mut rescans = 0usize;

    loop {
        // Working-set selection by maximum KKT violation over the active set.
        let mut i_up = usize::MAX; // candidate to increase
        let mut g_up = f64::INFINITY;
        let mut j_down = usize::MAX; // candidate to decrease
        let mut g_down = f64::NEG_INFINITY;
        for k in 0..n {
            if !active[k] {
                continue;
            }
            if alpha[k] < upper[k] - ALPHA_TOL && grad[k] < g_up {
                g_up = grad[k];
                i_up = k;
            }
            if alpha[k] > ALPHA_TOL && grad[k] > g_down {
                g_down = grad[k];
                j_down = k;
            }
        }
        if first_selection {
            first_selection = false;
            if i_up != usize::MAX && j_down != usize::MAX && i_up != j_down {
                initial_kkt_violation = (g_down - g_up).max(0.0);
            }
        }

        let optimal = i_up == usize::MAX
            || j_down == usize::MAX
            || i_up == j_down
            || g_down - g_up < options.tolerance;
        if optimal {
            if n_active < n {
                // The active set looks converged, but shrinking is a
                // heuristic: reconstruct the shrunk gradients and re-check
                // the KKT conditions over the full variable set.
                reconstruct_shrunk_gradients(&mut rows, &alpha, &active, &mut grad);
                active.fill(true);
                n_active = n;
                until_shrink = shrink_interval;
                rescans += 1;
                continue;
            }
            converged = true;
            break;
        }
        if iterations >= max_iter {
            break; // budget exhausted: reported via `converged == false`
        }

        let i = i_up;
        // Second-order selection of j (libsvm's WSS2): among the variables
        // that can decrease, maximize the guaranteed objective decrease
        // (G_j − G_i)²/η_ij instead of the bare violation G_j. First-order
        // selection crawls when the iterate is near-optimal everywhere —
        // exactly the regime a warm start puts the solver in — because the
        // most violating pair can have near-parallel images (η ≈ 0) and
        // admit only a tiny step. Row i is needed for the η's and is
        // reused by the gradient update below.
        let slot_i = rows.fetch(i);
        let row_i = rows.slot(slot_i);
        let mut j = j_down;
        let mut best_gain = f64::NEG_INFINITY;
        for k in 0..n {
            if !active[k] || k == i || alpha[k] <= ALPHA_TOL {
                continue;
            }
            let diff = grad[k] - g_up;
            if diff <= 0.0 {
                continue;
            }
            let eta_ik = (2.0 * (1.0 - row_i[k])).max(1e-12);
            let gain = diff * diff / eta_ik;
            if gain > best_gain {
                best_gain = gain;
                j = k;
            }
        }
        let k_ij = row_i[j];
        let eta = 2.0 * (1.0 - k_ij); // K_ii + K_jj − 2K_ij for Gaussian
        let max_step = (upper[i] - alpha[i]).min(alpha[j]);
        let delta = if eta > 1e-12 {
            ((grad[j] - g_up) / (2.0 * eta)).min(max_step)
        } else {
            // Coincident points: the objective is linear along the
            // direction; move as far as the box allows.
            max_step
        };
        if delta <= 0.0 {
            if n_active < n {
                reconstruct_shrunk_gradients(&mut rows, &alpha, &active, &mut grad);
                active.fill(true);
                n_active = n;
                until_shrink = shrink_interval;
                rescans += 1;
                continue;
            }
            converged = true; // numerically stuck; current iterate is KKT-ε optimal
            break;
        }

        alpha[i] += delta;
        alpha[j] -= delta;

        // Gradient maintenance with the two working rows, branch-free over
        // every k: an inactive entry is rebuilt by
        // `reconstruct_shrunk_gradients` before anything reads it again.
        let slot_j = rows.fetch(j);
        let two_delta = 2.0 * delta;
        for ((g, &ki), &kj) in grad
            .iter_mut()
            .zip(rows.slot(slot_i))
            .zip(rows.slot(slot_j))
        {
            *g += two_delta * (ki - kj);
        }
        iterations += 1;

        if shrinking {
            until_shrink -= 1;
            if until_shrink == 0 {
                until_shrink = shrink_interval;
                // Deactivate variables pinned at a bound whose gradient
                // sign says they want to stay there (relative to this
                // iteration's violating pair).
                for k in 0..n {
                    if !active[k] {
                        continue;
                    }
                    let at_lower = alpha[k] <= ALPHA_TOL;
                    let at_upper = alpha[k] >= upper[k] - ALPHA_TOL;
                    if (at_lower && grad[k] > g_down) || (at_upper && grad[k] < g_up) {
                        active[k] = false;
                        n_active -= 1;
                    }
                }
                shrunk_peak = shrunk_peak.max(n - n_active);
            }
        }
    }

    // Budget exhaustion can leave shrunk variables with stale gradients;
    // R² and αᵀKα below need the real ones.
    if n_active < n {
        reconstruct_shrunk_gradients(&mut rows, &alpha, &active, &mut grad);
    }

    // ---- Radius and constants.
    let alpha_k_alpha: f64 = alpha.iter().zip(&grad).map(|(&a, &g)| a * g).sum::<f64>() / 2.0;
    let decision_at = |k: usize| 1.0 - grad[k] + alpha_k_alpha;

    // KKT: every point below its cap satisfies F ≤ R² (zeros strictly
    // inside, free SVs exactly on the sphere), so their maximum is the
    // tightest radius that keeps the ε-optimal iterate KKT-consistent —
    // averaging free SVs instead would leave up to half of them outside
    // the sphere by the solver tolerance. Fall back to the bounded SVs'
    // bracket when everything sits at a cap.
    let mut max_inside = f64::NEG_INFINITY; // over α < u points (F <= R²)
    let mut min_outside = f64::INFINITY; // over bounded SVs (F >= R²)
    #[allow(clippy::needless_range_loop)] // k indexes alpha, upper, and grad together
    for k in 0..n {
        let f = decision_at(k);
        if alpha[k] >= upper[k] - ALPHA_TOL {
            min_outside = min_outside.min(f);
        } else {
            max_inside = max_inside.max(f);
        }
    }
    let r_sq = if max_inside.is_finite() {
        max_inside
    } else if min_outside.is_finite() {
        min_outside
    } else {
        0.0
    };

    // ---- Keep this round's α for the next warm start.
    session.alpha.clear();
    session
        .alpha
        .extend(ids.iter().copied().zip(alpha.iter().copied()));
    session.solves += 1;

    let diag = SolveDiagnostics {
        iterations,
        converged,
        warm_started: warm,
        initial_kkt_violation,
        shrunk_peak,
        rescans,
        cache: rows.stats,
    };

    SvddModel::new(
        ids.to_vec(),
        alpha,
        upper,
        kernel,
        r_sq,
        alpha_k_alpha,
        diag,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::SvType;
    use dbsvec_geometry::rng::SplitMix64;

    fn ring(n: usize, radius: f64) -> (PointSet, Vec<PointId>) {
        let mut ps = PointSet::new(2);
        for i in 0..n {
            let a = i as f64 / n as f64 * std::f64::consts::TAU;
            ps.push(&[radius * a.cos(), radius * a.sin()]);
        }
        (ps, (0..n as u32).collect())
    }

    fn gaussian_blob(n: usize, seed: u64) -> (PointSet, Vec<PointId>) {
        let mut rng = SplitMix64::new(seed);
        let mut ps = PointSet::new(2);
        for _ in 0..n {
            // Irwin–Hall approximate normal.
            let x: f64 = (0..12).map(|_| rng.next_f64()).sum::<f64>() - 6.0;
            let y: f64 = (0..12).map(|_| rng.next_f64()).sum::<f64>() - 6.0;
            ps.push(&[x, y]);
        }
        (ps, (0..n as u32).collect())
    }

    /// Recomputes the gradient from scratch and returns `G_down − G_up`.
    fn kkt_violation(ps: &PointSet, ids: &[PointId], model: &SvddModel) -> f64 {
        let n = ids.len();
        let kernel = model.kernel();
        let alpha = model.alphas();
        let mut grad = vec![0.0; n];
        for i in 0..n {
            for j in 0..n {
                grad[i] += 2.0 * alpha[j] * kernel.eval(ps.point(ids[i]), ps.point(ids[j]));
            }
        }
        let mut g_up = f64::INFINITY;
        let mut g_down = f64::NEG_INFINITY;
        for (k, &g) in grad.iter().enumerate() {
            match model.sv_type(k) {
                SvType::Interior => g_up = g_up.min(g),
                SvType::Bounded => g_down = g_down.max(g),
                SvType::Normal => {
                    g_up = g_up.min(g);
                    g_down = g_down.max(g);
                }
            }
        }
        g_down - g_up
    }

    #[test]
    fn alphas_form_a_simplex_point() {
        let (ps, ids) = gaussian_blob(120, 5);
        let model = SvddProblem::new(&ps, &ids, GaussianKernel::from_width(2.0))
            .with_nu(0.1)
            .solve();
        let sum: f64 = model.alphas().iter().sum();
        assert!((sum - 1.0).abs() < 1e-9, "Σα = {sum}");
        assert!(model.alphas().iter().all(|&a| (-1e-12..=1.0).contains(&a)));
    }

    #[test]
    fn two_symmetric_points_split_mass_evenly() {
        let ps = PointSet::from_rows(&[vec![-1.0], vec![1.0]]);
        let ids = [0, 1];
        let model = SvddProblem::new(&ps, &ids, GaussianKernel::from_width(1.0))
            .with_nu(0.5)
            .solve();
        assert!((model.alphas()[0] - 0.5).abs() < 1e-6);
        assert!((model.alphas()[1] - 0.5).abs() < 1e-6);
    }

    #[test]
    fn kkt_conditions_hold_at_solution() {
        let (ps, ids) = gaussian_blob(150, 7);
        let kernel = GaussianKernel::from_width(1.5);
        let model = SvddProblem::new(&ps, &ids, kernel).with_nu(0.2).solve();
        // Recompute the gradient from scratch and check the violation.
        let n = ids.len();
        let alpha = model.alphas();
        let mut grad = vec![0.0; n];
        for i in 0..n {
            for j in 0..n {
                grad[i] += 2.0 * alpha[j] * kernel.eval(ps.point(ids[i]), ps.point(ids[j]));
            }
        }
        let c = 1.0 / (0.2 * n as f64);
        let g_up = (0..n)
            .filter(|&k| alpha[k] < c - 1e-9)
            .map(|k| grad[k])
            .fold(f64::INFINITY, f64::min);
        let g_down = (0..n)
            .filter(|&k| alpha[k] > 1e-9)
            .map(|k| grad[k])
            .fold(f64::NEG_INFINITY, f64::max);
        assert!(
            g_down - g_up < 1e-3,
            "KKT violation {} too large",
            g_down - g_up
        );
    }

    #[test]
    fn support_vectors_lie_on_the_boundary_of_a_blob() {
        let (ps, ids) = gaussian_blob(200, 11);
        let model = SvddProblem::new(&ps, &ids, GaussianKernel::from_width(2.0))
            .with_nu(0.1)
            .solve();
        let centroid = ps.centroid().unwrap();
        let mean_dist: f64 = ids
            .iter()
            .map(|&id| dbsvec_geometry::euclidean(ps.point(id), &centroid))
            .sum::<f64>()
            / ids.len() as f64;
        let svs = model.support_vectors();
        assert!(!svs.is_empty());
        let sv_mean_dist: f64 = svs
            .iter()
            .map(|&id| dbsvec_geometry::euclidean(ps.point(id), &centroid))
            .sum::<f64>()
            / svs.len() as f64;
        assert!(
            sv_mean_dist > mean_dist,
            "support vectors ({sv_mean_dist:.3}) should be farther out than average ({mean_dist:.3})"
        );
    }

    #[test]
    fn decision_separates_inside_from_far_outside() {
        let (ps, ids) = ring(48, 1.0);
        let model = SvddProblem::new(&ps, &ids, GaussianKernel::from_width(1.0))
            .with_nu(0.5)
            .solve();
        let inside = model.decision(&ps, &[0.0, 0.0]);
        let on_data = model.decision(&ps, &[1.0, 0.0]);
        let outside = model.decision(&ps, &[5.0, 5.0]);
        assert!(inside < outside);
        assert!(on_data < outside);
        assert!(model.contains(&ps, &[1.0, 0.0]));
        assert!(!model.contains(&ps, &[5.0, 5.0]));
    }

    #[test]
    fn nu_controls_support_vector_count() {
        let (ps, ids) = gaussian_blob(200, 13);
        let kernel = GaussianKernel::from_width(2.0);
        let few = SvddProblem::new(&ps, &ids, kernel).with_nu(0.05).solve();
        let many = SvddProblem::new(&ps, &ids, kernel).with_nu(0.5).solve();
        assert!(
            few.num_support_vectors() < many.num_support_vectors(),
            "ν=0.05 gave {} SVs, ν=0.5 gave {}",
            few.num_support_vectors(),
            many.num_support_vectors()
        );
        // ν lower-bounds the SV fraction (Schölkopf & Smola).
        assert!(many.num_support_vectors() as f64 >= 0.5 * 200.0 * 0.9);
    }

    #[test]
    fn weighted_bounds_are_respected() {
        let (ps, ids) = gaussian_blob(60, 17);
        let mut upper = vec![0.5; 60];
        upper[0] = 1e-6; // effectively forbid point 0
        let model = SvddProblem::new(&ps, &ids, GaussianKernel::from_width(2.0))
            .with_bounds(upper)
            .solve();
        assert!(model.alphas()[0] <= 1e-6 + 1e-12);
    }

    #[test]
    fn single_point_target_is_trivial() {
        let ps = PointSet::from_rows(&[vec![3.0, 4.0]]);
        let model = SvddProblem::new(&ps, &[0], GaussianKernel::from_width(1.0)).solve();
        assert_eq!(model.alphas(), &[1.0]);
        assert_eq!(model.support_vectors(), vec![0]);
        assert!(model.contains(&ps, &[3.0, 4.0]));
    }

    #[test]
    fn duplicate_points_do_not_stall() {
        let ps = PointSet::from_rows(&vec![vec![1.0, 1.0]; 30]);
        let ids: Vec<PointId> = (0..30).collect();
        let model = SvddProblem::new(&ps, &ids, GaussianKernel::from_width(1.0))
            .with_nu(0.3)
            .solve();
        let sum: f64 = model.alphas().iter().sum();
        assert!((sum - 1.0).abs() < 1e-9);
    }

    #[test]
    fn deterministic_across_runs() {
        let (ps, ids) = gaussian_blob(100, 23);
        let kernel = GaussianKernel::from_width(1.7);
        let a = SvddProblem::new(&ps, &ids, kernel).with_nu(0.15).solve();
        let b = SvddProblem::new(&ps, &ids, kernel).with_nu(0.15).solve();
        assert_eq!(a.alphas(), b.alphas());
        assert_eq!(a.radius_sq(), b.radius_sq());
    }

    #[test]
    fn sv_types_partition_correctly() {
        let (ps, ids) = gaussian_blob(150, 29);
        let model = SvddProblem::new(&ps, &ids, GaussianKernel::from_width(2.0))
            .with_nu(0.2)
            .solve();
        let mut interior = 0;
        let mut normal = 0;
        let mut bounded = 0;
        for i in 0..ids.len() {
            match model.sv_type(i) {
                SvType::Interior => interior += 1,
                SvType::Normal => normal += 1,
                SvType::Bounded => bounded += 1,
            }
        }
        assert_eq!(interior + normal + bounded, ids.len());
        assert_eq!(normal + bounded, model.num_support_vectors());
        assert!(interior > 0, "most blob points should be interior");
    }

    #[test]
    fn solver_objective_not_worse_than_uniform() {
        let (ps, ids) = gaussian_blob(80, 31);
        let kernel = GaussianKernel::from_width(2.0);
        let model = SvddProblem::new(&ps, &ids, kernel).with_nu(0.5).solve();
        let objective = |alpha: &[f64]| {
            let mut f = 0.0;
            for i in 0..ids.len() {
                for j in 0..ids.len() {
                    f += alpha[i] * alpha[j] * kernel.eval(ps.point(ids[i]), ps.point(ids[j]));
                }
            }
            f
        };
        let uniform = vec![1.0 / ids.len() as f64; ids.len()];
        assert!(objective(model.alphas()) <= objective(&uniform) + 1e-9);
    }

    #[test]
    fn first_session_solve_matches_sessionless_solve_exactly() {
        let (ps, ids) = gaussian_blob(100, 37);
        let kernel = GaussianKernel::from_width(1.8);
        let plain = SvddProblem::new(&ps, &ids, kernel).with_nu(0.2).solve();
        let mut session = SolverSession::new();
        let first = SvddProblem::new(&ps, &ids, kernel)
            .with_nu(0.2)
            .with_session(&mut session)
            .solve();
        assert_eq!(plain.alphas(), first.alphas());
        assert_eq!(plain.iterations(), first.iterations());
        assert_eq!(plain.radius_sq(), first.radius_sq());
        assert!(!first.diagnostics().warm_started);
        assert_eq!(session.solves(), 1);
    }

    #[test]
    fn warm_start_reduces_iterations_on_regrowth() {
        // Simulate expansion rounds: the target grows, σ changes every
        // round, and the warm path should finish in fewer total iterations
        // than cold-starting each round.
        let (ps, ids) = gaussian_blob(240, 41);
        let rounds = [(160, 1.5), (200, 1.7), (240, 1.9)];
        let mut session = SolverSession::new();
        let mut warm_total = 0usize;
        let mut cold_total = 0usize;
        for (round, &(end, sigma)) in rounds.iter().enumerate() {
            let kernel = GaussianKernel::from_width(sigma);
            let warm = SvddProblem::new(&ps, &ids[..end], kernel)
                .with_nu(0.2)
                .with_session(&mut session)
                .solve();
            let cold = SvddProblem::new(&ps, &ids[..end], kernel)
                .with_nu(0.2)
                .solve();
            assert!(warm.converged() && cold.converged());
            assert_eq!(warm.diagnostics().warm_started, round > 0);
            if round > 0 {
                // The seed was near-optimal, so it must start closer to
                // KKT than a cold uniform-ish fill would.
                assert!(
                    warm.diagnostics().initial_kkt_violation
                        < cold.diagnostics().initial_kkt_violation,
                    "round {round}"
                );
            }
            assert!(
                kkt_violation(&ps, &ids[..end], &warm) < 1e-3,
                "warm round {round} violates KKT"
            );
            warm_total += warm.iterations();
            cold_total += cold.iterations();
        }
        assert!(
            warm_total < cold_total,
            "warm {warm_total} iterations vs cold {cold_total}"
        );
    }

    #[test]
    fn cache_capacity_never_changes_the_solution() {
        // Expansion-shaped session: the target grows, σ changes, and each
        // round warm-starts. A two-row slab evicts on almost every read;
        // the default never evicts. Only the traffic counters may differ.
        let (ps, ids) = gaussian_blob(180, 53);
        let solve_rounds = |cache_rows: usize| {
            let options = SmoOptions {
                cache_rows,
                ..SmoOptions::default()
            };
            let mut session = SolverSession::new();
            [(120, 1.4), (150, 1.6), (180, 1.9)]
                .into_iter()
                .map(|(end, sigma)| {
                    SvddProblem::new(&ps, &ids[..end], GaussianKernel::from_width(sigma))
                        .with_nu(0.2)
                        .with_options(options)
                        .with_session(&mut session)
                        .solve()
                })
                .collect::<Vec<_>>()
        };
        let tight = solve_rounds(2);
        let roomy = solve_rounds(0);
        for (round, (a, b)) in tight.iter().zip(&roomy).enumerate() {
            assert_eq!(a.diagnostics().warm_started, round > 0, "round {round}");
            assert_eq!(a.alphas(), b.alphas(), "round {round}");
            assert_eq!(a.iterations(), b.iterations(), "round {round}");
            assert_eq!(a.radius_sq(), b.radius_sq(), "round {round}");
            assert_eq!(a.support_vectors(), b.support_vectors(), "round {round}");
            assert!(a.diagnostics().cache.evictions > 0, "round {round}");
            assert_eq!(b.diagnostics().cache.evictions, 0, "round {round}");
            assert!(a.diagnostics().cache.misses > b.diagnostics().cache.misses);
        }
    }

    #[test]
    fn kernel_rows_match_direct_evaluation_under_eviction() {
        let mut rng = SplitMix64::new(0xCAC4E);
        for trial in 0..24 {
            let d = 1 + rng.next_below(6) as usize;
            let n = 3 + rng.next_below(20) as usize;
            let rows: Vec<Vec<f64>> = (0..n)
                .map(|_| (0..d).map(|_| rng.next_f64_range(-40.0, 40.0)).collect())
                .collect();
            let ps = PointSet::from_rows(&rows);
            // Reversed ids: row positions follow the target, not the set.
            let ids: Vec<PointId> = (0..n as u32).rev().collect();
            let kernel = GaussianKernel::from_width(rng.next_f64_range(0.05, 50.0));
            let capacity = 2 + rng.next_below(4) as usize; // heavy eviction
            let mut store = KernelRows::new(&ps, &ids, kernel, capacity);
            for _ in 0..16 {
                let t = rng.next_below(n as u64) as usize;
                let row = store.row(t).to_vec();
                for (k, &got) in row.iter().enumerate() {
                    let want = kernel.eval(ps.point(ids[t]), ps.point(ids[k]));
                    assert_eq!(got, want, "trial {trial}: K[{t}][{k}]");
                }
            }
            let s = store.stats;
            assert_eq!(s.hits + s.misses, 16, "trial {trial}");
            assert!(store.owner.len() <= capacity.min(n), "trial {trial}");
        }
    }

    #[test]
    fn kernel_rows_evict_the_least_recently_read() {
        let ps = PointSet::from_rows(&[vec![0.0], vec![1.0], vec![2.0], vec![3.0]]);
        let mut store = KernelRows::new(&ps, &[0, 1, 2, 3], GaussianKernel::from_width(1.0), 2);
        store.fetch(0);
        store.fetch(1);
        store.fetch(2); // evicts 0
        assert_eq!(store.slot_of[0], None);
        assert!(store.slot_of[1].is_some() && store.slot_of[2].is_some());
        // Read 1 again, then 3: row 2 is now the oldest and must go.
        store.fetch(1);
        store.fetch(3);
        assert!(store.slot_of[1].is_some());
        assert_eq!(store.slot_of[2], None);
        assert_eq!(
            store.stats,
            RowCacheStats {
                hits: 1,
                misses: 4,
                evictions: 2,
            }
        );
    }

    #[test]
    fn shrinking_shrinks_and_stays_correct() {
        let (ps, ids) = gaussian_blob(150, 59);
        let kernel = GaussianKernel::from_width(1.5);
        let aggressive = SmoOptions {
            shrink_interval: 5,
            ..SmoOptions::default()
        };
        let no_shrink = SmoOptions {
            shrinking: false,
            ..SmoOptions::default()
        };
        let shrunk = SvddProblem::new(&ps, &ids, kernel)
            .with_nu(0.1)
            .with_options(aggressive)
            .solve();
        let full = SvddProblem::new(&ps, &ids, kernel)
            .with_nu(0.1)
            .with_options(no_shrink)
            .solve();
        assert!(shrunk.diagnostics().shrunk_peak > 0, "never shrank");
        assert!(
            shrunk.diagnostics().rescans > 0,
            "converged without re-scan"
        );
        assert_eq!(full.diagnostics().shrunk_peak, 0);
        // Shrinking changes the trajectory, not the quality: both end
        // within the same KKT tolerance and with near-identical objectives.
        assert!(kkt_violation(&ps, &ids, &shrunk) < 1e-3);
        assert!(kkt_violation(&ps, &ids, &full) < 1e-3);
        let objective = |m: &SvddModel| m.alpha_k_alpha();
        assert!((objective(&shrunk) - objective(&full)).abs() < 1e-3);
    }

    #[test]
    fn exhausted_budget_is_reported_not_silent() {
        let (ps, ids) = gaussian_blob(100, 61);
        let starved = SmoOptions {
            max_iterations: 1,
            ..SmoOptions::default()
        };
        let model = SvddProblem::new(&ps, &ids, GaussianKernel::from_width(1.5))
            .with_nu(0.2)
            .with_options(starved)
            .solve();
        assert!(!model.converged());
        assert_eq!(model.iterations(), 1);
        assert!(model.radius_sq().is_finite());
        assert_eq!(SmoOptions::default().resolve_max_iterations(100), 30_000);
    }
}
