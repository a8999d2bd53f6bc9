//! Shared mutable state threaded through the phases of a DBSVEC run.

use dbsvec_geometry::{PointId, PointSet};
use dbsvec_index::RangeIndex;
use dbsvec_obs::{Event, Observer, ReplayCounts};

use crate::config::DbsvecConfig;
use crate::labels::WorkingLabels;
use crate::unionfind::UnionFind;

/// Memoized core-point status.
#[derive(Clone, Copy, PartialEq, Eq)]
pub(crate) enum CoreStatus {
    Unknown,
    Core,
    NonCore,
}

/// Everything the initialization, expansion, merging, and noise phases
/// share. Borrowed mutably by each phase in turn.
pub(crate) struct RunState<'a, I: RangeIndex> {
    pub points: &'a PointSet,
    pub index: &'a I,
    pub config: &'a DbsvecConfig,
    pub labels: WorkingLabels,
    pub uf: UnionFind,
    pub core_status: Vec<CoreStatus>,
    /// Potential noise points with the ε-neighborhood captured at
    /// initialization (paper: "N_ε(NoiseList[i]) has been obtained in
    /// initialization"). Non-core neighborhoods hold < MinPts entries, so
    /// this costs O(MinPts·l) memory as §III-D states.
    pub noise_list: Vec<(PointId, Vec<PointId>)>,
    /// Points whose full ε-neighborhood has already been materialized and
    /// absorbed. Re-querying such a point is a no-op (every neighbor is
    /// already labeled into its cluster), so expansion skips it. This caps
    /// DBSVEC's materializing queries at n even in regimes where SVDD keeps
    /// re-selecting the same boundary points across rounds.
    pub queried: Vec<bool>,
    /// Core-candidacy mask for the sampled fit mode: `None` means every
    /// point is a candidate (the exact fit). Non-candidates never seed,
    /// never enter an SVDD target set (so expansion never queries them),
    /// and can never test core — they end the main loop clustered
    /// (absorbed from a candidate's neighborhood) or unclassified, and the
    /// attachment pass resolves the latter.
    pub candidates: Option<Vec<bool>>,
    /// Worker count for the sampled attachment pass (`batch_nearest_cores`),
    /// resolved once from `config.parallel`. Expansion's range queries and
    /// every SMO training run on the calling thread whatever its value.
    pub threads: usize,
    /// Every event the run has emitted, folded into counts: the one source
    /// of the returned `DbsvecStats`.
    pub counts: ReplayCounts,
    /// Observer every phase reports into. Events reach it through
    /// [`RunState::emit`] only, so a recorded stream replays to exactly
    /// [`RunState::counts`].
    pub obs: &'a mut dyn Observer,
}

impl<'a, I: RangeIndex> RunState<'a, I> {
    pub fn new(
        points: &'a PointSet,
        index: &'a I,
        config: &'a DbsvecConfig,
        obs: &'a mut dyn Observer,
    ) -> Self {
        let n = points.len();
        Self {
            points,
            index,
            config,
            labels: WorkingLabels::new(n),
            uf: UnionFind::new(),
            core_status: vec![CoreStatus::Unknown; n],
            noise_list: Vec::new(),
            queried: vec![false; n],
            candidates: None,
            threads: config.parallel.resolve(),
            counts: ReplayCounts::default(),
            obs,
        }
    }

    /// Counts `event` and forwards it to the observer.
    pub fn emit(&mut self, event: Event) {
        self.counts.record(&event);
        self.obs.event(&event);
    }

    /// Materializing ε-range query with statistics accounting and core-status
    /// memoization.
    pub fn range_query(&mut self, id: PointId, out: &mut Vec<PointId>) {
        out.clear();
        self.index
            .range(self.points.point(id), self.config.eps, out);
        self.emit(Event::RangeQuery {
            probe: id,
            result_len: out.len(),
        });
        self.queried[id as usize] = true;
        // Only candidates can hold core status: the sampled mode's density
        // estimate lives on the subsample, so the discovered core set (and
        // the `ClusterModel` built from it) is a subset of the candidates.
        let core = out.len() >= self.config.min_pts && self.is_candidate(id);
        self.core_status[id as usize] = if core {
            CoreStatus::Core
        } else {
            CoreStatus::NonCore
        };
    }

    /// Whether `id` may test core. Always true on exact fits; sampled fits
    /// restrict candidacy to the drawn subsample.
    pub fn is_candidate(&self, id: PointId) -> bool {
        self.candidates
            .as_ref()
            .map_or(true, |mask| mask[id as usize])
    }

    /// Memoized core test (issues a counting query on first use).
    /// Non-candidates answer false without a query.
    pub fn is_core(&mut self, id: PointId) -> bool {
        if !self.is_candidate(id) {
            return false;
        }
        match self.core_status[id as usize] {
            CoreStatus::Core => true,
            CoreStatus::NonCore => false,
            CoreStatus::Unknown => {
                let count = self
                    .index
                    .count_range(self.points.point(id), self.config.eps);
                self.emit(Event::RangeQuery {
                    probe: id,
                    result_len: count,
                });
                let core = count >= self.config.min_pts;
                self.core_status[id as usize] = if core {
                    CoreStatus::Core
                } else {
                    CoreStatus::NonCore
                };
                core
            }
        }
    }

    /// Handles one neighbor during initialization or expansion: absorbs
    /// unclassified/noise points into `raw_cid` (recording them in
    /// `absorbed`) and merges sub-clusters through overlapping core points
    /// (paper Lemma 3).
    pub fn absorb_or_merge(&mut self, j: PointId, raw_cid: u32, absorbed: &mut Vec<PointId>) {
        if self.labels.is_unclassified(j) || self.labels.is_noise(j) {
            self.labels.set_cluster(j, raw_cid);
            absorbed.push(j);
        } else if let Some(other) = self.labels.cluster(j) {
            if !self.uf.same(other, raw_cid) && self.is_core(j) {
                self.uf.union(other, raw_cid);
                self.emit(Event::Merge {
                    existing: other,
                    expanding: raw_cid,
                });
            }
        }
    }
}
