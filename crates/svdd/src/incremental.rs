//! Incremental learning for repeated SVDD training (paper §IV-B.1).
//!
//! During support vector expansion the same sub-cluster is described by
//! SVDD over and over as it grows. Points that have already participated in
//! several trainings contribute little to the next model but dominate its
//! cost, so DBSVEC bounds participation with a *learning threshold* `T`:
//! every target point carries a counter `t_i`, incremented after each
//! training, and points with `t_i > T` are evicted from the target set.
//!
//! The counters do double duty: they are the `t_i` of the penalty-weight
//! formula (Eq. 7), which is why this type hands them out alongside the ids.
//!
//! [`SolverSession`] is the other half of the incremental story: it carries
//! the previous training's multipliers of the same sub-cluster, the seed
//! of the next solve's warm start.

use std::collections::HashMap;

use dbsvec_geometry::PointId;

/// The paper's recommended learning threshold (`T = 3`, §IV-B.1: values in
/// 2–4 improve efficiency with negligible accuracy impact).
pub const DEFAULT_LEARNING_THRESHOLD: u32 = 3;

/// Cross-round solver state for repeated SVDD trainings of one sub-cluster.
///
/// A session keeps the **previous solve's multipliers** by [`PointId`] — the
/// warm-start seed. The solver projects them into the new box
/// `[0, ω_i C]` and repairs `Σα = 1` before iterating. Kernel rows are not
/// kept: σ changes every round, so each solve builds its own.
///
/// Attach one to a [`crate::SvddProblem`] with
/// [`crate::SvddProblem::with_session`]; without one the solver behaves as
/// a cold, single-shot solve.
#[derive(Debug, Default)]
pub struct SolverSession {
    /// The previous solve's α by point id. Iteration order is never used,
    /// so the map's layout cannot leak into results.
    pub(crate) alpha: HashMap<PointId, f64>,
    /// Completed solves in this session.
    pub(crate) solves: usize,
}

impl SolverSession {
    /// Creates an empty session (first solve through it is a cold start).
    pub fn new() -> Self {
        Self::default()
    }

    /// Completed solves through this session.
    pub fn solves(&self) -> usize {
        self.solves
    }
}

/// The evolving SVDD target set of one expanding sub-cluster.
#[derive(Clone, Debug)]
pub struct IncrementalTarget {
    ids: Vec<PointId>,
    counts: Vec<u32>,
    threshold: u32,
    /// Total points ever evicted (diagnostic).
    evicted: usize,
}

impl IncrementalTarget {
    /// Creates an empty target set with eviction threshold `T = threshold`.
    pub fn new(threshold: u32) -> Self {
        Self {
            ids: Vec::new(),
            counts: Vec::new(),
            threshold,
            evicted: 0,
        }
    }

    /// Adds newly discovered sub-cluster members with `t_i = 0`.
    pub fn add_new(&mut self, new_ids: &[PointId]) {
        self.ids.extend_from_slice(new_ids);
        self.counts.resize(self.ids.len(), 0);
    }

    /// Ids currently eligible for SVDD training.
    pub fn ids(&self) -> &[PointId] {
        &self.ids
    }

    /// Training-participation counters, aligned with [`IncrementalTarget::ids`].
    pub fn counts(&self) -> &[u32] {
        &self.counts
    }

    /// Current target-set size ñ.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether no points remain eligible.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Total points evicted so far.
    pub fn evicted(&self) -> usize {
        self.evicted
    }

    /// Call once after each SVDD training: increments every counter and
    /// evicts points whose count exceeds the threshold.
    pub fn after_training(&mut self) {
        let mut write = 0;
        for read in 0..self.ids.len() {
            let c = self.counts[read] + 1;
            if c <= self.threshold {
                self.ids[write] = self.ids[read];
                self.counts[write] = c;
                write += 1;
            } else {
                self.evicted += 1;
            }
        }
        self.ids.truncate(write);
        self.counts.truncate(write);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_points_start_at_zero() {
        let mut t = IncrementalTarget::new(3);
        t.add_new(&[5, 6, 7]);
        assert_eq!(t.ids(), &[5, 6, 7]);
        assert_eq!(t.counts(), &[0, 0, 0]);
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn eviction_after_threshold_trainings() {
        let mut t = IncrementalTarget::new(2);
        t.add_new(&[1, 2]);
        t.after_training(); // counts 1
        t.after_training(); // counts 2 (== T, retained)
        assert_eq!(t.len(), 2);
        t.after_training(); // counts 3 (> T, evicted)
        assert!(t.is_empty());
        assert_eq!(t.evicted(), 2);
    }

    #[test]
    fn staggered_arrivals_age_independently() {
        let mut t = IncrementalTarget::new(1);
        t.add_new(&[10]);
        t.after_training(); // 10 -> count 1
        t.add_new(&[20]);
        assert_eq!(t.counts(), &[1, 0]);
        t.after_training(); // 10 -> 2 (evicted), 20 -> 1
        assert_eq!(t.ids(), &[20]);
        assert_eq!(t.counts(), &[1]);
    }

    #[test]
    fn threshold_zero_keeps_only_fresh_points() {
        // T = 0 means "train on newly added points only" (paper §IV-B.1).
        let mut t = IncrementalTarget::new(0);
        t.add_new(&[1, 2, 3]);
        t.after_training();
        assert!(t.is_empty());
        t.add_new(&[4]);
        assert_eq!(t.ids(), &[4]);
    }

    #[test]
    fn order_is_preserved_under_compaction() {
        let mut t = IncrementalTarget::new(5);
        t.add_new(&[3, 1, 4, 1, 5]);
        t.after_training();
        assert_eq!(t.ids(), &[3, 1, 4, 1, 5]);
    }
}
