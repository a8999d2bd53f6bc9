//! Noise verification (paper Algorithm 2 line 16 and §III-B).
//!
//! Because DBSVEC only queries support vectors, a border point near a core
//! point that was never selected as a support vector can finish the main
//! loop still marked as potential noise. The final pass fixes this, and it
//! is what makes Theorems 2 and 3 (border/noise equivalence with DBSCAN)
//! hold: every potential noise point either has a core point in its
//! ε-neighborhood — then it is a border point and joins the cluster of its
//! *nearest* core neighbor, the smaller point id among equidistant ones
//! ([`dbsvec_index::nearer`]) — or it is confirmed as noise.
//!
//! The neighborhoods were captured during initialization (they hold fewer
//! than MinPts points each), so this pass issues at most `MinPts·l`
//! memoized core tests, matching the §III-D cost model.

use dbsvec_geometry::{PointId, PointSet};
use dbsvec_index::{nearer, KdTree, RangeIndex};
use dbsvec_obs::{Event, Phase};

use crate::runner::{CoreStatus, RunState};

/// Resolves every entry of the potential-noise list, then — on sampled
/// fits — attaches every still-unclassified (unsampled) point to the
/// cluster of its nearest discovered core within ε, or confirms it as
/// noise. Both passes apply the same nearest-core rule, which is why the
/// attachment generalization lives in this phase.
pub(crate) fn verify_noise<I: RangeIndex>(state: &mut RunState<'_, I>) {
    state.obs.span_enter(Phase::NoiseVerify);
    let noise_list = std::mem::take(&mut state.noise_list);
    for (i, neighborhood) in &noise_list {
        if !state.labels.is_noise(*i) {
            // Absorbed into a cluster by a later expansion: a border point.
            continue;
        }
        // (squared distance, core id, cluster) of the nearest core.
        let mut nearest: Option<(f64, PointId, u32)> = None;
        for &j in neighborhood {
            if j == *i {
                continue;
            }
            // Only clustered neighbors can be core (every core point is
            // clustered by the end of the main loop), so checking the label
            // first avoids wasting core tests on fellow noise points.
            let Some(cid) = state.labels.cluster(j) else {
                continue;
            };
            if !state.is_core(j) {
                continue;
            }
            let d = state.points.squared_distance(*i, j);
            if nearest.map_or(true, |(bd, bj, _)| nearer((d, j), (bd, bj))) {
                nearest = Some((d, j, cid));
            }
        }

        if let Some((_, _, cid)) = nearest {
            state.labels.set_cluster(*i, cid);
        }
        state.emit(Event::NoiseVerdict {
            point: *i,
            confirmed: nearest.is_none(),
        });
    }
    state.noise_list = noise_list;
    if state.candidates.is_some() {
        attach_unsampled(state);
    }
    state.obs.span_exit(Phase::NoiseVerify);
}

/// The sampled-mode attachment pass.
///
/// After a sampled main loop the only unclassified points are unsampled
/// ones that no expansion absorbed (candidates all ended clustered or on
/// the noise list). Each gets the out-of-sample classification rule of
/// `crate::predict`: the cluster of the nearest discovered core within ε —
/// the smaller core index among equidistant ones
/// ([`KdTree::nearest_within`]) — or noise. The lookups run in point-id
/// order against a kd-tree over the discovered cores, built once per fit.
/// No ε-range queries against the full index are issued, keeping θ
/// proportional to the subsample, not n.
fn attach_unsampled<I: RangeIndex>(state: &mut RunState<'_, I>) {
    let pending: Vec<PointId> = (0..state.points.len() as PointId)
        .filter(|&i| state.labels.is_unclassified(i))
        .collect();
    if pending.is_empty() {
        return;
    }
    let mut cores = PointSet::new(state.points.dims());
    let mut core_cids: Vec<u32> = Vec::new();
    for (i, s) in state.core_status.iter().enumerate() {
        if matches!(s, CoreStatus::Core) {
            // Every discovered core is clustered by the end of the main
            // loop; the guard keeps an adversarial index from panicking us.
            if let Some(cid) = state.labels.cluster(i as PointId) {
                cores.push(state.points.point(i as PointId));
                core_cids.push(cid);
            }
        }
    }
    let tree = KdTree::build(&cores);
    for i in pending {
        let verdict = tree
            .nearest_within(state.points.point(i), state.config.eps, |_| true)
            .map(|(_, c)| core_cids[c as usize]);
        if let Some(cid) = verdict {
            state.labels.set_cluster(i, cid);
        }
        state.emit(Event::Attach {
            point: i,
            attached: verdict.is_some(),
        });
    }
}
