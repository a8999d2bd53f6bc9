//! Run statistics backing the paper's Table II cost model.
//!
//! §III-D bounds DBSVEC's range queries by `s + 1 + k + m + MinPts·l` — the
//! seeds, the core-support-vector tests, the merge tests, and the noise
//! verification — each of which is far smaller than `n`. These counters let
//! the `table2_complexity` harness (and any user) verify that θ ≪ n on
//! their own data.
//!
//! The run does not keep them by hand: every counter is a field of the
//! [`ReplayCounts`] fold of the events the run emitted, copied out once
//! when the fit returns. A recorded trace therefore replays to exactly
//! these numbers.

use dbsvec_obs::ReplayCounts;

/// Counters accumulated over one DBSVEC run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DbsvecStats {
    /// `s`: sub-cluster seeds (successful initializations).
    pub seeds: u64,
    /// SVDD trainings performed across all expansions.
    pub svdd_trainings: u64,
    /// `k`: total support vectors produced (range queries issued on them).
    pub support_vectors: u64,
    /// Support vectors that passed the core test and expanded the cluster.
    pub core_support_vectors: u64,
    /// `m`: sub-cluster merges triggered by overlapping core points.
    pub merges: u64,
    /// `l`: points that entered the potential-noise list.
    pub noise_candidates: u64,
    /// Points confirmed as noise by verification.
    pub noise_confirmed: u64,
    /// Every ε-range query issued (materializing or counting).
    pub range_queries: u64,
    /// Expansion rounds (SVDD training + SV queries) across all clusters.
    pub expansion_rounds: u64,
    /// Largest SVDD target set ñ observed.
    pub max_target_size: usize,
    /// Total SMO iterations across all trainings.
    pub smo_iterations: u64,
    /// Trainings that started from a previous round's α (warm starts).
    pub warm_started_trainings: u64,
    /// Trainings that hit the SMO iteration cap instead of converging.
    pub iterations_exhausted: u64,
    /// Sum of per-training initial KKT violations in fixed-point microunits
    /// (`round(violation · 1e6)`): integer so the stats stay `Eq`/replayable.
    /// Warm starts drive the per-training violation toward 0.
    pub initial_kkt_violation_e6: u64,
    /// Core candidates drawn by the sampled fit mode (0 on exact fits,
    /// which place every point in candidacy without drawing).
    pub sampled_candidates: u64,
    /// Unsampled points examined by the attachment pass (0 on exact fits).
    pub attachment_candidates: u64,
    /// Attachment candidates that joined the cluster of a discovered core
    /// within ε; the remainder were confirmed as noise.
    pub attached_points: u64,
}

impl DbsvecStats {
    /// The paper's θ: range queries per data point. DBSCAN has θ ≈ 1;
    /// DBSVEC's claim is θ ≪ 1 on clustered data.
    pub fn theta(&self, n: usize) -> f64 {
        if n == 0 {
            0.0
        } else {
            self.range_queries as f64 / n as f64
        }
    }
}

impl From<&ReplayCounts> for DbsvecStats {
    /// The fit fields of an event fold.
    fn from(c: &ReplayCounts) -> Self {
        Self {
            seeds: c.seeds,
            svdd_trainings: c.svdd_trainings,
            support_vectors: c.support_vectors,
            core_support_vectors: c.core_support_vectors,
            merges: c.merges,
            noise_candidates: c.noise_candidates,
            noise_confirmed: c.noise_confirmed,
            range_queries: c.range_queries,
            expansion_rounds: c.expansion_rounds,
            max_target_size: c.max_target_size,
            smo_iterations: c.smo_iterations,
            warm_started_trainings: c.warm_started_trainings,
            iterations_exhausted: c.iterations_exhausted,
            initial_kkt_violation_e6: c.initial_kkt_violation_e6,
            sampled_candidates: c.sampled_candidates,
            attachment_candidates: c.attachment_candidates,
            attached_points: c.attached_points,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn theta_is_queries_per_point() {
        let stats = DbsvecStats {
            range_queries: 250,
            ..Default::default()
        };
        assert!((stats.theta(1000) - 0.25).abs() < 1e-12);
        assert_eq!(stats.theta(0), 0.0);
    }

    #[test]
    fn default_is_all_zero() {
        let stats = DbsvecStats::default();
        assert_eq!(stats.seeds, 0);
        assert_eq!(stats.range_queries, 0);
        assert_eq!(stats.max_target_size, 0);
    }
}
