//! Out-of-sample prediction against a fitted clustering.
//!
//! DBSCAN-family clusterings are defined by their **core points**: a new
//! observation belongs to the cluster of the nearest core point within ε
//! of it, and is noise otherwise — the same rule DBSVEC's noise
//! verification applies to borderline training points. [`ClusterModel`]
//! captures the core points of a finished run so that streaming points can
//! be classified without re-clustering. It holds one kd-tree over its
//! cores, built once, and answers every query with the tree's bounded
//! nearest-neighbour search, so ties between equidistant cores go to the
//! smaller core index whichever entry point asks.

use std::fmt;

use dbsvec_geometry::{PointId, PointSet};
use dbsvec_index::{OwnedKdTree, RangeIndex};

use crate::labels::Clustering;

/// Why a [`ClusterModel`] could not be built.
///
/// A correct in-process clustering never produces these — they guard the
/// untrusted path, where core points and labels arrive from a persisted
/// snapshot that may be stale, corrupted, or hand-edited.
#[derive(Clone, Debug, PartialEq)]
pub enum ModelError {
    /// ε was not finite and positive.
    BadEps(f64),
    /// A listed core point carries no cluster label.
    NoiseCore(PointId),
    /// A core id does not refer to a training point.
    IdOutOfRange {
        /// The offending id.
        id: PointId,
        /// Number of training points.
        len: usize,
    },
    /// A core label names a cluster the model does not have.
    LabelOutOfRange {
        /// The offending label.
        label: u32,
        /// Number of clusters in the model.
        num_clusters: usize,
    },
    /// `cores` and `core_labels` disagree in length.
    LengthMismatch {
        /// Number of core points.
        cores: usize,
        /// Number of core labels.
        labels: usize,
    },
}

impl fmt::Display for ModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModelError::BadEps(eps) => write!(f, "eps must be positive and finite, got {eps}"),
            ModelError::NoiseCore(id) => write!(f, "core point {id} is unclustered (noise)"),
            ModelError::IdOutOfRange { id, len } => {
                write!(f, "core id {id} out of range for {len} points")
            }
            ModelError::LabelOutOfRange {
                label,
                num_clusters,
            } => write!(
                f,
                "core label {label} out of range for {num_clusters} clusters"
            ),
            ModelError::LengthMismatch { cores, labels } => {
                write!(f, "{cores} core points but {labels} core labels")
            }
        }
    }
}

impl std::error::Error for ModelError {}

/// A fitted density clustering reduced to its classification essentials:
/// the core points and their cluster ids.
#[derive(Clone, Debug)]
pub struct ClusterModel {
    /// A kd-tree owning the core coordinates (the model outlives the
    /// training set).
    cores: OwnedKdTree,
    /// Cluster id of each core point, aligned with the tree's points.
    core_labels: Vec<u32>,
    /// The ε the clustering was fitted with.
    eps: f64,
    num_clusters: usize,
}

impl ClusterModel {
    /// Builds a model from a finished clustering.
    ///
    /// `core_ids` are the training points that passed the core test (for
    /// DBSVEC, [`crate::DbsvecResult::core_points`]); every one of them
    /// must be clustered. Rejects noise cores, out-of-range ids, and a
    /// non-positive ε instead of panicking, so callers reconstructing a
    /// model from persisted state can surface the corruption.
    pub fn new(
        points: &PointSet,
        clustering: &Clustering,
        core_ids: &[PointId],
        eps: f64,
    ) -> Result<Self, ModelError> {
        let (cores, core_labels) = Self::core_parts(points, clustering, core_ids, eps)?;
        Ok(Self {
            cores: OwnedKdTree::build(cores),
            core_labels,
            eps,
            num_clusters: clustering.num_clusters(),
        })
    }

    /// The core coordinates and their labels that [`ClusterModel::new`]
    /// indexes, validated the same way, without building the model's
    /// kd-tree (for callers that only persist them).
    pub fn core_parts(
        points: &PointSet,
        clustering: &Clustering,
        core_ids: &[PointId],
        eps: f64,
    ) -> Result<(PointSet, Vec<u32>), ModelError> {
        if !(eps.is_finite() && eps > 0.0) {
            return Err(ModelError::BadEps(eps));
        }
        let mut cores = PointSet::with_capacity(points.dims(), core_ids.len());
        let mut core_labels = Vec::with_capacity(core_ids.len());
        for &id in core_ids {
            if (id as usize) >= points.len() {
                return Err(ModelError::IdOutOfRange {
                    id,
                    len: points.len(),
                });
            }
            let label = clustering
                .get(id as usize)
                .ok_or(ModelError::NoiseCore(id))?;
            cores.push(points.point(id));
            core_labels.push(label);
        }
        Ok((cores, core_labels))
    }

    /// Rebuilds a model from its stored parts (the snapshot-load path).
    ///
    /// Validates the same invariants [`ClusterModel::new`] derives from a
    /// live clustering: aligned lengths, labels within `num_clusters`, and
    /// a positive finite ε.
    pub fn from_parts(
        cores: PointSet,
        core_labels: Vec<u32>,
        eps: f64,
        num_clusters: usize,
    ) -> Result<Self, ModelError> {
        if !(eps.is_finite() && eps > 0.0) {
            return Err(ModelError::BadEps(eps));
        }
        if cores.len() != core_labels.len() {
            return Err(ModelError::LengthMismatch {
                cores: cores.len(),
                labels: core_labels.len(),
            });
        }
        if let Some(&label) = core_labels.iter().find(|&&l| (l as usize) >= num_clusters) {
            return Err(ModelError::LabelOutOfRange {
                label,
                num_clusters,
            });
        }
        Ok(Self {
            cores: OwnedKdTree::build(cores),
            core_labels,
            eps,
            num_clusters,
        })
    }

    /// Number of core points retained.
    pub fn core_count(&self) -> usize {
        self.cores.len()
    }

    /// The retained core points.
    pub fn cores(&self) -> &PointSet {
        self.cores.points()
    }

    /// Cluster id of each core point, aligned with [`ClusterModel::cores`].
    pub fn core_labels(&self) -> &[u32] {
        &self.core_labels
    }

    /// Number of clusters in the fitted model.
    pub fn num_clusters(&self) -> usize {
        self.num_clusters
    }

    /// The ε the model classifies with.
    pub fn eps(&self) -> f64 {
        self.eps
    }

    /// Classifies one observation: the cluster of the nearest core point
    /// within ε, or `None` (noise/outlier). Equidistant cores resolve to
    /// the one listed first ([`dbsvec_index::nearer`]).
    ///
    /// # Panics
    ///
    /// Panics if `x` has the wrong dimensionality.
    pub fn predict(&self, x: &[f64]) -> Option<u32> {
        assert_eq!(
            x.len(),
            self.cores().dims(),
            "query dimensionality mismatch"
        );
        self.cores
            .nearest_within(x, self.eps, |_| true)
            .map(|(_, id)| self.core_labels[id as usize])
    }

    /// Classifies a batch: [`ClusterModel::predict`] for every query.
    pub fn predict_batch(&self, queries: &PointSet) -> Vec<Option<u32>> {
        assert_eq!(
            queries.dims(),
            self.cores().dims(),
            "query dimensionality mismatch"
        );
        queries.iter().map(|(_, q)| self.predict(q)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Dbsvec, DbsvecConfig};

    fn fitted_model() -> (PointSet, ClusterModel) {
        let mut ps = PointSet::new(2);
        for i in 0..40 {
            ps.push(&[i as f64 * 0.1, 0.0]); // cluster 0 along y = 0
            ps.push(&[i as f64 * 0.1, 50.0]); // cluster 1 along y = 50
        }
        let result = Dbsvec::new(DbsvecConfig::new(0.5, 4)).fit(&ps);
        assert_eq!(result.num_clusters(), 2);
        let model = ClusterModel::new(&ps, result.labels(), result.core_points(), 0.5)
            .expect("valid fit produces a valid model");
        (ps, model)
    }

    #[test]
    fn predicts_cluster_membership_and_noise() {
        let (_, model) = fitted_model();
        assert_eq!(model.num_clusters(), 2);
        let near_zero = model.predict(&[2.0, 0.2]);
        let near_fifty = model.predict(&[2.0, 49.8]);
        assert!(near_zero.is_some() && near_fifty.is_some());
        assert_ne!(near_zero, near_fifty);
        assert_eq!(model.predict(&[2.0, 25.0]), None, "far point must be noise");
    }

    #[test]
    fn training_points_predict_their_own_cluster() {
        let (ps, model) = fitted_model();
        let result = Dbsvec::new(DbsvecConfig::new(0.5, 4)).fit(&ps);
        for (i, p) in ps.iter() {
            let predicted = model.predict(p);
            assert_eq!(predicted, result.labels().get(i as usize), "point {i}");
        }
    }

    #[test]
    fn batch_agrees_with_scalar_path() {
        let (_, model) = fitted_model();
        let mut queries = PointSet::new(2);
        for i in 0..300 {
            queries.push(&[(i % 50) as f64 * 0.08, (i % 3) as f64 * 25.0]);
        }
        let batch = model.predict_batch(&queries);
        for (i, q) in queries.iter() {
            assert_eq!(batch[i as usize], model.predict(q), "query {i}");
        }
    }

    #[test]
    fn nearest_core_wins_ties_toward_proximity() {
        // Two cores of different clusters; query closer to cluster 1's core.
        let ps = PointSet::from_rows(&[vec![0.0], vec![10.0]]);
        let clustering = crate::labels::Clustering::from_assignments(vec![Some(0), Some(1)]);
        let model = ClusterModel::new(&ps, &clustering, &[0, 1], 8.0).unwrap();
        assert_eq!(model.predict(&[6.5]), Some(1));
        assert_eq!(model.predict(&[3.0]), Some(0));
    }

    #[test]
    fn equidistant_cores_resolve_to_the_one_listed_first() {
        // Cores 0..=19 (cluster 0) and 22..=41 (cluster 1), cluster 1
        // listed first: 20.5 is exactly ε = 1.5 from 19 and from 22, and
        // the smallest core index among them (22's) answers.
        let rows: Vec<Vec<f64>> = (22..42).chain(0..20).map(|x| vec![x as f64]).collect();
        let labels = (0..40).map(|i| u32::from(i < 20)).collect();
        let model = ClusterModel::from_parts(PointSet::from_rows(&rows), labels, 1.5, 2).unwrap();
        assert_eq!(model.predict(&[20.5]), Some(1));
        let queries = PointSet::from_rows(&vec![vec![20.5]; 300]);
        assert!(model.predict_batch(&queries).iter().all(|&l| l == Some(1)));
    }

    #[test]
    fn construction_rejects_corrupt_inputs() {
        let ps = PointSet::from_rows(&[vec![0.0], vec![10.0]]);
        let clustering = crate::labels::Clustering::from_assignments(vec![Some(0), None]);
        assert_eq!(
            ClusterModel::new(&ps, &clustering, &[0], 0.0).unwrap_err(),
            ModelError::BadEps(0.0)
        );
        assert!(matches!(
            ClusterModel::new(&ps, &clustering, &[0], f64::NAN),
            Err(ModelError::BadEps(_))
        ));
        assert_eq!(
            ClusterModel::new(&ps, &clustering, &[1], 1.0).unwrap_err(),
            ModelError::NoiseCore(1)
        );
        assert_eq!(
            ClusterModel::new(&ps, &clustering, &[7], 1.0).unwrap_err(),
            ModelError::IdOutOfRange { id: 7, len: 2 }
        );
    }

    #[test]
    fn from_parts_round_trips_and_validates() {
        let (_, model) = fitted_model();
        let rebuilt = ClusterModel::from_parts(
            model.cores().clone(),
            model.core_labels().to_vec(),
            model.eps(),
            model.num_clusters(),
        )
        .expect("parts of a valid model are valid");
        assert_eq!(rebuilt.core_count(), model.core_count());
        assert_eq!(rebuilt.predict(&[2.0, 0.2]), model.predict(&[2.0, 0.2]));

        let cores = PointSet::from_rows(&[vec![0.0]]);
        assert_eq!(
            ClusterModel::from_parts(cores.clone(), vec![0, 1], 1.0, 2).unwrap_err(),
            ModelError::LengthMismatch {
                cores: 1,
                labels: 2
            }
        );
        assert_eq!(
            ClusterModel::from_parts(cores.clone(), vec![5], 1.0, 2).unwrap_err(),
            ModelError::LabelOutOfRange {
                label: 5,
                num_clusters: 2
            }
        );
        assert!(matches!(
            ClusterModel::from_parts(cores, vec![0], -1.0, 2).unwrap_err(),
            ModelError::BadEps(_)
        ));
    }

    #[test]
    #[should_panic(expected = "dimensionality mismatch")]
    fn rejects_wrong_dimensionality() {
        let (_, model) = fitted_model();
        let _ = model.predict(&[1.0, 2.0, 3.0]);
    }
}
