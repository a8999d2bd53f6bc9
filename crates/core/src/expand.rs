//! Support vector expansion (paper Algorithm 3).
//!
//! Given a freshly seeded sub-cluster, repeatedly:
//!
//! 1. train (weighted) SVDD on the current target set,
//! 2. run ε-range queries **only on the support vectors**,
//! 3. absorb the newly discovered neighbors of *core* support vectors into
//!    the sub-cluster (merging with other sub-clusters through overlapping
//!    core points),
//!
//! until a round discovers nothing new. The paper presents this as
//! recursion; the loop below is the equivalent iteration (each round only
//! depends on the points added by the previous one), which avoids unbounded
//! stack depth on datasets whose clusters span thousands of expansion
//! rounds.

use dbsvec_geometry::PointId;
use dbsvec_index::RangeIndex;
use dbsvec_obs::{Event, Phase};
use dbsvec_svdd::{
    params::nu_to_c, penalty_weights, GaussianKernel, IncrementalTarget, SolverSession, SvddProblem,
};

use crate::runner::RunState;

/// Expands the sub-cluster `raw_cid`, seeded with `initial_members`.
///
/// On a sampled fit only candidates enter the SVDD target set. A support
/// vector outside the drawn subsample can never be core, so querying it
/// could not expand the cluster (Def. 6); training on such points would
/// only pick support vectors that are skipped. Non-candidates are still
/// absorbed and labelled from the core neighborhoods they fall in.
pub(crate) fn sv_expand_cluster<I: RangeIndex>(
    state: &mut RunState<'_, I>,
    raw_cid: u32,
    mut initial_members: Vec<PointId>,
) {
    // With incremental learning off (the DBSVEC\IL ablation) the target set
    // is the whole sub-cluster: an unreachable threshold disables eviction.
    let threshold = if state.config.incremental {
        state.config.learning_threshold
    } else {
        u32::MAX
    };
    let mut target = IncrementalTarget::new(threshold);
    initial_members.retain(|&id| state.is_candidate(id));
    target.add_new(&initial_members);
    // One solver session per sub-cluster: consecutive rounds reuse the
    // previous α (warm start).
    let mut session = SolverSession::new();

    state.obs.span_enter(Phase::SvExpand);
    let mut neighborhood: Vec<PointId> = Vec::new();
    let mut round = 0usize;
    while !target.is_empty() {
        round += 1;
        let target_size = target.len();

        state.obs.span_enter(Phase::SvddTrain);
        let model = train_svdd(state, &target, &mut session);
        state.obs.span_exit(Phase::SvddTrain);
        let diag = model.diagnostics();
        state.emit(Event::SmoSolve {
            target_size,
            iterations: model.iterations(),
            cache_hits: diag.cache.hits,
            cache_misses: diag.cache.misses,
            warm_started: diag.warm_started,
            converged: diag.converged,
            // Fixed-point microunits keep the event `Eq` and its sum exact.
            initial_kkt_violation_e6: (diag.initial_kkt_violation * 1e6).round() as u64,
        });
        let support_vectors = model.support_vectors();
        target.after_training();

        let n_sv = support_vectors.len();
        let mut n_core_sv = 0usize;
        let mut newly_added: Vec<PointId> = Vec::new();
        for sv in support_vectors {
            if state.queried[sv as usize] {
                // Already materialized and absorbed in an earlier round
                // (or as a seed): a repeat query cannot discover anything
                // new.
                continue;
            }
            state.range_query(sv, &mut neighborhood);
            // The neighborhood may legitimately be empty (an index is free
            // to report nothing inside ε, even the probe itself); the
            // min_pts gate handles that without indexing into it.
            if neighborhood.len() < state.config.min_pts {
                continue; // non-core support vector: cannot expand (Def. 6)
            }
            n_core_sv += 1;
            // The borrow checker cannot see that `absorb_or_merge` leaves
            // `neighborhood` alone, so iterate over a swap.
            let neigh = std::mem::take(&mut neighborhood);
            for &j in &neigh {
                state.absorb_or_merge(j, raw_cid, &mut newly_added);
            }
            neighborhood = neigh;
        }

        state.emit(Event::ExpansionRound {
            cluster: raw_cid,
            round,
            target_size,
            n_sv,
            n_core_sv,
            smo_iters: model.iterations(),
        });

        newly_added.retain(|&id| state.is_candidate(id));
        if newly_added.is_empty() {
            // Nothing new: the surviving target points were already trained
            // on, so another round would reproduce the same support vectors.
            break;
        }
        target.add_new(&newly_added);
    }
    state.obs.span_exit(Phase::SvExpand);
}

/// Trains one SVDD model over the current target set, honoring the
/// configuration's weighting and kernel-width choices.
fn train_svdd<I: RangeIndex>(
    state: &mut RunState<'_, I>,
    target: &IncrementalTarget,
    session: &mut SolverSession,
) -> dbsvec_svdd::SvddModel {
    let ids = target.ids();
    let sigma = state.config.kernel_width.resolve(state.points, ids);
    let kernel = GaussianKernel::from_width(sigma);
    let nu = state.config.resolve_nu(state.points.dims(), ids.len());
    let c = nu_to_c(nu, ids.len());

    let problem = SvddProblem::new(state.points, ids, kernel)
        .with_options(state.config.smo)
        .with_session(session);
    if state.config.weighted {
        let weights = penalty_weights(
            state.points,
            ids,
            target.counts(),
            kernel,
            c,
            state.config.weight_options,
        );
        let bounds: Vec<f64> = weights.into_iter().map(|w| w * c).collect();
        problem.with_bounds(bounds).solve()
    } else {
        problem.with_nu(nu).solve()
    }
}
