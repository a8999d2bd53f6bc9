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
//! # Working-set selection in O(#SV)
//!
//! Only the gradient changes everywhere in a step; the multipliers change
//! at two positions. The solver therefore keeps two pieces of selection
//! state next to α and updates them at those two positions only:
//!
//! * the **support list** — the ascending positions with `α_k > ALPHA_TOL`.
//!   `j = argmax G_k` over `α_k > 0` and the second-order choice of `j`
//!   below scan it, not the whole target;
//! * an **eligibility mask** — `0` where `α_k` can still grow, `+∞` where it
//!   sits at its cap. The next step's `i = argmin G_k + mask_k` comes from
//!   a lane-split argmin fused into the gradient update's pass.
//!
//! Every argmin and argmax keeps the first index among equal values, as a
//! plain ascending scan does; the lane-split argmin resolves a tie between
//! its lanes toward the lower position.
//!
//! # Kernel rows
//!
//! Each solve copies its target's coordinates once, column-major (one
//! contiguous column per dimension), and keeps an LRU slab of at most
//! [`SmoOptions::cache_rows`] kernel rows `K(x_t, ·)`, evaluated at this
//! solve's σ in target order. A missed row is filled one block of target
//! positions at a time: each lane accumulates the squared differences of
//! its position dimension by dimension, in the same order
//! [`dbsvec_geometry::squared_euclidean`] sums them, and
//! [`GaussianKernel::eval_sq_dist`] then maps the row to kernel values —
//! bit for bit [`GaussianKernel::eval`] on the two points. Every read after
//! that — the initial gradient, the second-order η's and the gradient
//! update — is a plain slice access, and the gradient update is a
//! contiguous axpy over the two working rows. Rows never outlive the
//! solve: DBSVEC re-resolves σ before every round, so a kernel value is
//! stale by the next one anyway.
//!
//! Cost per iteration: one O(ñ) pass that updates the gradient and
//! selects the next `i`, O(#SV) for the rest of the selection, plus
//! O(ñ·d) and ñ `exp` calls per row miss, in O(ñ · cache_rows) memory.
//! With DBSVEC's small ν (few support vectors) a solve takes few
//! iterations and touches few rows, which is what makes per-expansion
//! SVDD training effectively linear in ñ (paper §IV-D).

use dbsvec_geometry::{PointId, PointSet};

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
}

impl Default for SmoOptions {
    fn default() -> Self {
        Self {
            tolerance: 1e-3,
            max_iterations: 0,
            cache_rows: 0,
            warm_start: true,
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

/// Target positions a row fill accumulates at once, in registers.
const ROW_BLOCK: usize = 16;

/// One solve's kernel rows: an LRU slab of at most `capacity` rows, row
/// `t` holding `K(x_t, x_k)` for every target position `k`.
struct KernelRows {
    kernel: GaussianKernel,
    /// The target's coordinates, column-major: dimension `c` of target
    /// position `k` sits at `columns[c * ñ + k]`.
    columns: Vec<f64>,
    /// The coordinates of the row being filled.
    point: Vec<f64>,
    /// Resident rows, `ñ` values per slot.
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
        let mut columns = vec![0.0; points.dims() * n];
        for (k, &id) in ids.iter().enumerate() {
            for (c, &x) in points.point(id).iter().enumerate() {
                columns[c * n + k] = x;
            }
        }
        Self {
            kernel,
            columns,
            point: vec![0.0; points.dims()],
            // Grown as rows fill, not reserved up front: solves fill far
            // fewer rows than the cap, and freeing a reserved
            // `capacity · ñ` block (20 MB at ñ = 5,152) raises the
            // allocator's adaptive mmap threshold, so peak RSS ratchets up
            // fit after fit.
            slab: Vec::new(),
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
        self.fill(s, t);
        s
    }

    /// Computes row `t` into slot `s`: squared distances a block of
    /// positions at a time, each lane summing its position's dimensions in
    /// order, then the kernel over the row.
    fn fill(&mut self, s: usize, t: usize) {
        let n = self.slot_of.len();
        for (c, x) in self.point.iter_mut().enumerate() {
            *x = self.columns[c * n + t];
        }
        let row = &mut self.slab[s * n..(s + 1) * n];
        let mut blocks = row.chunks_exact_mut(ROW_BLOCK);
        for (b, block) in blocks.by_ref().enumerate() {
            let mut lanes = [0.0; ROW_BLOCK];
            for (c, &xt) in self.point.iter().enumerate() {
                let column = &self.columns[c * n + b * ROW_BLOCK..][..ROW_BLOCK];
                for (acc, &xk) in lanes.iter_mut().zip(column) {
                    let diff = xt - xk;
                    *acc += diff * diff;
                }
            }
            block.copy_from_slice(&lanes);
        }
        let tail = blocks.into_remainder();
        let start = n - tail.len();
        for (k, out) in (start..).zip(tail) {
            let mut acc = 0.0;
            for (c, &xt) in self.point.iter().enumerate() {
                let diff = xt - self.columns[c * n + k];
                acc += diff * diff;
            }
            *out = acc;
        }
        for v in row {
            *v = self.kernel.eval_sq_dist(*v);
        }
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

/// Lanes of a [`LaneArgmin`].
const LANES: usize = 4;

/// A first-index argmin over keys fed [`LANES`] at a time, in interleaved
/// lanes the compiler can vectorize. Lane `l` sees positions
/// `l, l + LANES, …` in ascending order and keeps its first minimum; the
/// lanes then combine with ties going to the lower position, and the tail
/// past the last full chunk continues with a strict `<`. The result is
/// exactly that of one ascending scan with a strict `<`.
struct LaneArgmin {
    best: [f64; LANES],
    at: [usize; LANES],
}

impl LaneArgmin {
    fn new() -> Self {
        Self {
            best: [f64::INFINITY; LANES],
            at: [usize::MAX; LANES],
        }
    }

    /// Feeds the keys of positions `base..base + LANES`.
    #[inline(always)]
    fn chunk(&mut self, base: usize, keys: [f64; LANES]) {
        for (l, &key) in keys.iter().enumerate() {
            if key < self.best[l] {
                self.best[l] = key;
                self.at[l] = base + l;
            }
        }
    }

    /// Combines the lanes, then feeds the `(position, key)` tail in
    /// ascending order; `None` when no key was below `+∞`.
    fn finish(self, tail: impl Iterator<Item = (usize, f64)>) -> Option<usize> {
        let (mut min, mut pos) = (f64::INFINITY, usize::MAX);
        for (&key, &k) in self.best.iter().zip(&self.at) {
            if key < min || (key == min && k < pos) {
                min = key;
                pos = k;
            }
        }
        for (k, key) in tail {
            if key < min {
                min = key;
                pos = k;
            }
        }
        (pos != usize::MAX).then_some(pos)
    }
}

/// The first position of the minimum of `values[k] + mask[k]`, or `None`
/// when every entry is masked out (`mask[k] = +∞`).
fn first_argmin(values: &[f64], mask: &[f64]) -> Option<usize> {
    debug_assert_eq!(values.len(), mask.len());
    let split = values.len() - values.len() % LANES;
    let mut lanes = LaneArgmin::new();
    for (c, (v, m)) in values[..split]
        .chunks_exact(LANES)
        .zip(mask[..split].chunks_exact(LANES))
        .enumerate()
    {
        lanes.chunk(c * LANES, std::array::from_fn(|l| v[l] + m[l]));
    }
    let tail = values.iter().zip(mask).map(|(&v, &m)| v + m);
    lanes.finish(tail.enumerate().skip(split))
}

/// The gradient update of one step, `G_k += two_delta · (K_ik − K_jk)`,
/// fused with [`first_argmin`] of the updated `G + mask`.
fn update_and_select(
    grad: &mut [f64],
    row_i: &[f64],
    row_j: &[f64],
    two_delta: f64,
    mask: &[f64],
) -> Option<usize> {
    let split = grad.len() - grad.len() % LANES;
    let (head, tail) = grad.split_at_mut(split);
    let mut lanes = LaneArgmin::new();
    for (c, (((g, ki), kj), m)) in head
        .chunks_exact_mut(LANES)
        .zip(row_i.chunks_exact(LANES))
        .zip(row_j.chunks_exact(LANES))
        .zip(mask.chunks_exact(LANES))
        .enumerate()
    {
        for l in 0..LANES {
            g[l] += two_delta * (ki[l] - kj[l]);
        }
        lanes.chunk(c * LANES, std::array::from_fn(|l| g[l] + m[l]));
    }
    let tail = tail.iter_mut().enumerate().map(|(t, g)| {
        let k = split + t;
        *g += two_delta * (row_i[k] - row_j[k]);
        (k, *g + mask[k])
    });
    lanes.finish(tail)
}

/// Eligibility-mask entry of one multiplier: `0` while `α < u` (it can
/// grow), `+∞` at its cap.
fn grow_mask(alpha: f64, upper: f64) -> f64 {
    if alpha < upper - ALPHA_TOL {
        0.0
    } else {
        f64::INFINITY
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

    // ---- Selection state, kept in step with α at the two positions each
    // iteration moves: the ascending support list (α > ALPHA_TOL), the
    // eligibility mask of the multipliers that can grow, and the next `i`.
    let mut support: Vec<usize> = (0..n).filter(|&k| alpha[k] > ALPHA_TOL).collect();
    let mut up_mask: Vec<f64> = alpha
        .iter()
        .zip(&upper)
        .map(|(&a, &u)| grow_mask(a, u))
        .collect();
    let mut i_up = first_argmin(&grad, &up_mask);

    // ---- Main loop.
    let mut iterations = 0usize;
    let mut converged = false;
    let mut initial_kkt_violation = 0.0f64;
    let mut first_selection = true;

    loop {
        // Working-set selection by maximum KKT violation: `i` (to grow) is
        // the gradient's argmin over α < u, `j_down` (to shrink) its argmax
        // over the support list.
        let g_up = i_up.map_or(f64::INFINITY, |i| grad[i]);
        let mut j_down = None;
        let mut g_down = f64::NEG_INFINITY;
        for &k in &support {
            if grad[k] > g_down {
                g_down = grad[k];
                j_down = Some(k);
            }
        }
        let pair = match (i_up, j_down) {
            (Some(i), Some(j)) if i != j => Some((i, j)),
            _ => None,
        };
        if first_selection {
            first_selection = false;
            if pair.is_some() {
                initial_kkt_violation = (g_down - g_up).max(0.0);
            }
        }
        let Some((i, j_down)) = pair else {
            converged = true;
            break;
        };
        if g_down - g_up < options.tolerance {
            converged = true;
            break;
        }
        if iterations >= max_iter {
            break; // budget exhausted: reported via `converged == false`
        }

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
        for &k in &support {
            if k == i {
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
            converged = true; // numerically stuck; current iterate is KKT-ε optimal
            break;
        }

        alpha[i] += delta;
        alpha[j] -= delta;
        for k in [i, j] {
            match (alpha[k] > ALPHA_TOL, support.binary_search(&k)) {
                (true, Err(at)) => support.insert(at, k),
                (false, Ok(at)) => {
                    support.remove(at);
                }
                _ => {}
            }
            up_mask[k] = grow_mask(alpha[k], upper[k]);
        }

        // Gradient maintenance with the two working rows, a branch-free
        // axpy over every k; the next `i` comes from the updated gradient.
        let slot_j = rows.fetch(j);
        i_up = update_and_select(
            &mut grad,
            rows.slot(slot_i),
            rows.slot(slot_j),
            2.0 * delta,
            &up_mask,
        );
        iterations += 1;
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
        cache: rows.stats,
    };

    SvddModel::new(
        ids.to_vec(),
        alpha,
        upper,
        kernel,
        r_sq,
        alpha_k_alpha,
        support,
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
    fn kernel_rows_match_direct_evaluation_across_blocks() {
        // Targets spanning several register blocks plus a ragged tail.
        let mut rng = SplitMix64::new(0xB10C);
        for n in [ROW_BLOCK - 1, ROW_BLOCK, ROW_BLOCK + 1, 3 * ROW_BLOCK + 5] {
            for d in [1, 3, 8] {
                let rows: Vec<Vec<f64>> = (0..n)
                    .map(|_| (0..d).map(|_| rng.next_f64_range(-40.0, 40.0)).collect())
                    .collect();
                let ps = PointSet::from_rows(&rows);
                let ids: Vec<PointId> = (0..n as u32).rev().collect();
                let kernel = GaussianKernel::from_width(rng.next_f64_range(1.0, 30.0));
                let mut store = KernelRows::new(&ps, &ids, kernel, 0);
                for t in 0..n {
                    let row = store.row(t).to_vec();
                    for (k, &got) in row.iter().enumerate() {
                        let want = kernel.eval(ps.point(ids[t]), ps.point(ids[k]));
                        assert_eq!(got, want, "n={n} d={d}: K[{t}][{k}]");
                    }
                }
            }
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
    fn lane_split_argmin_matches_a_first_index_scan() {
        // A strict `<` ascending scan: the first position of the minimum.
        let scan = |values: &[f64], mask: &[f64]| {
            let mut best = (f64::INFINITY, None);
            for (k, (&v, &m)) in values.iter().zip(mask).enumerate() {
                if m == 0.0 && v < best.0 {
                    best = (v, Some(k));
                }
            }
            best.1
        };
        let mut rng = SplitMix64::new(0xA5C1);
        for trial in 0..2000 {
            // Lengths around and between multiples of the lane count.
            let n = rng.next_below(4 * LANES as u64 + 7) as usize;
            // Few distinct values, so exact ties are the rule.
            let levels = 1 + rng.next_below(4);
            let values: Vec<f64> = (0..n)
                .map(|_| rng.next_below(levels) as f64 * 0.25)
                .collect();
            let masked = rng.next_below(4);
            let mask: Vec<f64> = (0..n)
                .map(|_| match masked {
                    0 => 0.0,
                    1 => f64::INFINITY,
                    _ if rng.next_below(3) == 0 => f64::INFINITY,
                    _ => 0.0,
                })
                .collect();
            assert_eq!(
                first_argmin(&values, &mask),
                scan(&values, &mask),
                "trial {trial}: {values:?} / {mask:?}"
            );
        }
        // The fused update selects exactly what an update, then a scan,
        // selects — and leaves the same gradient.
        for trial in 0..500 {
            let n = rng.next_below(4 * LANES as u64 + 7) as usize;
            let quarter = |rng: &mut SplitMix64| rng.next_below(4) as f64 * 0.25;
            let grad: Vec<f64> = (0..n).map(|_| quarter(&mut rng)).collect();
            let row_i: Vec<f64> = (0..n).map(|_| quarter(&mut rng)).collect();
            let row_j: Vec<f64> = (0..n).map(|_| quarter(&mut rng)).collect();
            let mask: Vec<f64> = (0..n)
                .map(|_| match rng.next_below(3) {
                    0 => f64::INFINITY,
                    _ => 0.0,
                })
                .collect();
            let two_delta = quarter(&mut rng) - 0.5;
            let mut want = grad.clone();
            for ((g, &ki), &kj) in want.iter_mut().zip(&row_i).zip(&row_j) {
                *g += two_delta * (ki - kj);
            }
            let mut got = grad;
            let selected = update_and_select(&mut got, &row_i, &row_j, two_delta, &mask);
            assert_eq!(got, want, "trial {trial}: gradient");
            assert_eq!(selected, scan(&want, &mask), "trial {trial}: selection");
        }
        // Every entry masked, at every length: nothing to select.
        for n in 0..3 * LANES {
            assert_eq!(
                first_argmin(&vec![0.5; n], &vec![f64::INFINITY; n]),
                None,
                "n={n}"
            );
        }
        // A tie between lanes and the tail goes to the lowest position.
        let values = [2.0, 1.0, 3.0, 1.0, 1.0, 5.0, 1.0, 9.0, 1.0, 1.0];
        let mask = [0.0, f64::INFINITY, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0];
        assert_eq!(first_argmin(&values, &mask), Some(3));
    }

    #[test]
    fn support_list_matches_a_brute_force_filter_after_every_step() {
        // Three locations, each repeated: coincident pairs have η = 0, so
        // steps move α all the way to a bound and positions keep entering
        // and leaving the support list.
        let mut rows = Vec::new();
        for copy in 0..12 {
            for &(x, y) in &[(0.0, 0.0), (1.0, 0.5), (0.2, 1.1)] {
                rows.push(vec![x + (copy % 2) as f64 * 0.3, y]);
            }
        }
        let ps = PointSet::from_rows(&rows);
        let ids: Vec<PointId> = (0..rows.len() as u32).collect();
        let kernel = GaussianKernel::from_width(0.8);
        let solve = |max_iterations: usize| {
            SvddProblem::new(&ps, &ids, kernel)
                .with_nu(0.3)
                .with_options(SmoOptions {
                    max_iterations,
                    ..SmoOptions::default()
                })
                .solve()
        };
        let full = solve(0);
        assert!(full.converged());
        assert!(full.iterations() > 5, "{} iterations", full.iterations());
        let (mut entered, mut left) = (0, 0);
        let mut previous: Option<Vec<PointId>> = None;
        // The solver is deterministic, so capping it at `s` iterations
        // stops it right after step `s` of the full solve.
        for s in 1..=full.iterations() {
            let model = solve(s);
            assert_eq!(model.iterations(), s);
            let want: Vec<PointId> = model
                .alphas()
                .iter()
                .zip(&ids)
                .filter(|(&a, _)| a > ALPHA_TOL)
                .map(|(_, &id)| id)
                .collect();
            assert_eq!(model.support_vectors(), want, "after step {s}");
            if let Some(prev) = &previous {
                entered += want.iter().filter(|id| !prev.contains(id)).count();
                left += prev.iter().filter(|id| !want.contains(id)).count();
            }
            previous = Some(want);
        }
        assert_eq!(solve(full.iterations()).alphas(), full.alphas());
        assert!(entered > 0 && left > 0, "entered {entered}, left {left}");
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
