//! The persistable summary of a fitted clustering.
//!
//! [`ModelArtifact`] holds what out-of-sample classification needs from a
//! fit: the verified core points, their labels, and ε, plus the fit's
//! MinPts (the online engine needs it for promotion) and, optionally, one
//! trained SVDD boundary per cluster so a consumer can evaluate the
//! paper's decision function F(x) against a persisted model without
//! re-solving anything. [`crate::Engine`] classifies against it;
//! [`ModelArtifact::validate`] checks stored parts before they are served.

use std::fmt;

use dbsvec_core::labels::Clustering;
use dbsvec_geometry::{PointId, PointSet};
use dbsvec_index::KdTree;
use dbsvec_obs::Histogram;
use dbsvec_svdd::{kernel_width_center_radius, optimal_nu, GaussianKernel, SvddProblem};

/// Multipliers below this are not support vectors (mirrors the solver's
/// internal tolerance, so a persisted boundary evaluates the decision
/// function over exactly the support set the live model uses).
const ALPHA_TOL: f64 = 1e-9;

/// Histogram ticks per ε when recording assign distances. The log-linear
/// histogram counts integers, so continuous distances are fixed-pointed in
/// units of ε/1024 — fine enough that quantization never dominates the
/// octave-level drift comparison, coarse enough that a full ε is only ten
/// octaves.
pub const DIST_TICKS_PER_EPS: f64 = 1024.0;

/// Fixed-point mapping of a distance into histogram ticks, in units of the
/// model's ε (see [`DIST_TICKS_PER_EPS`]).
pub fn distance_ticks(distance: f64, eps: f64) -> u64 {
    let t = (distance / eps) * DIST_TICKS_PER_EPS;
    if t.is_finite() && t > 0.0 {
        t.round() as u64
    } else {
        0
    }
}

/// SVDD margins (`F(x) − R²`) are signed and small; they are clamped to
/// `±MARGIN_CLAMP`, shifted positive, and scaled by
/// [`DIST_TICKS_PER_EPS`] before recording.
pub const MARGIN_CLAMP: f64 = 8.0;

/// Fixed-point mapping of a signed SVDD margin into histogram ticks.
pub fn margin_ticks(margin: f64) -> u64 {
    let m = if margin.is_finite() {
        margin.clamp(-MARGIN_CLAMP, MARGIN_CLAMP)
    } else {
        MARGIN_CLAMP
    };
    ((m + MARGIN_CLAMP) * DIST_TICKS_PER_EPS).round() as u64
}

/// Whether two coordinate vectors are the same bit pattern, coordinate by
/// coordinate.
fn bit_equal(a: &[f64], b: &[f64]) -> bool {
    a.iter().zip(b).all(|(u, v)| u.to_bits() == v.to_bits())
}

/// Index of the first point with a NaN or infinite coordinate.
fn first_non_finite(points: &PointSet) -> Option<PointId> {
    points
        .iter()
        .find(|(_, p)| p.iter().any(|c| !c.is_finite()))
        .map(|(id, _)| id)
}

/// One cluster's SVDD description, reduced to what the decision function
/// needs: support vectors, their multipliers, the kernel width, and the
/// constants `R²` and `αᵀKα`.
#[derive(Clone, Debug, PartialEq)]
pub struct ClusterBoundary {
    /// The (compact) cluster this boundary describes.
    pub cluster: u32,
    /// Gaussian kernel width σ the SVDD was trained with.
    pub sigma: f64,
    /// Squared kernel-space radius `R²` of the description sphere.
    pub r_sq: f64,
    /// The constant `αᵀKα` of the decision function.
    pub alpha_k_alpha: f64,
    /// Support vector coordinates (owned — outlives the training set).
    pub sv: PointSet,
    /// Multipliers, aligned with `sv`.
    pub alpha: Vec<f64>,
}

impl ClusterBoundary {
    /// The discrimination function `F(x) = 1 − 2 Σ_i α_i K(x_i, x) + αᵀKα`
    /// (paper Eq. 12), evaluated from the persisted support set.
    pub fn decision(&self, x: &[f64]) -> f64 {
        let kernel = GaussianKernel::from_width(self.sigma);
        let mut cross = 0.0;
        for (i, sv) in self.sv.iter() {
            cross += self.alpha[i as usize] * kernel.eval(sv, x);
        }
        1.0 - 2.0 * cross + self.alpha_k_alpha
    }

    /// Whether `x` lies inside (or on) the description sphere, with the
    /// same tolerance as `SvddModel::contains`.
    pub fn contains(&self, x: &[f64]) -> bool {
        self.decision(x) <= self.r_sq + 1e-9
    }
}

/// Fit-time distribution summary the quality monitor compares live
/// traffic against.
///
/// Captured by [`ModelArtifact::with_quality`] and persisted in snapshot
/// format v2; models without one (old snapshots, fits that skipped the
/// step) serve fine but the monitor degrades to staleness-only mode.
#[derive(Clone, Debug, PartialEq)]
pub struct QualityBaseline {
    /// Points per cluster at fit time, indexed by compact cluster id
    /// (length equals the artifact's `num_clusters`).
    pub occupancy: Vec<u64>,
    /// Points the fit left as noise.
    pub noise_points: u64,
    /// Total points the fit saw (`Σ occupancy + noise_points`).
    pub total_points: u64,
    /// Distance from each clustered training point to its nearest core
    /// *other than itself*, in [`DIST_TICKS_PER_EPS`] ticks — the
    /// leave-one-out version of the quantity serving assignment measures.
    pub assign_dist: Histogram,
    /// SVDD margins `F(x) − R²` of clustered training points against
    /// their own cluster's boundary, in [`margin_ticks`] ticks. Present
    /// only when the artifact carried boundaries at capture time.
    pub margin: Option<Histogram>,
}

impl QualityBaseline {
    /// Per-cluster occupancy shares (fractions of `total_points`).
    pub fn shares(&self) -> Vec<f64> {
        let total = self.total_points.max(1) as f64;
        self.occupancy.iter().map(|&c| c as f64 / total).collect()
    }

    /// Fraction of fit points left as noise.
    pub fn noise_rate(&self) -> f64 {
        self.noise_points as f64 / self.total_points.max(1) as f64
    }

    /// Consistency against the owning artifact (the snapshot decoder
    /// surfaces failures as semantic corruption).
    pub fn validate(&self, num_clusters: u32) -> Result<(), String> {
        if self.occupancy.len() != num_clusters as usize {
            return Err(format!(
                "baseline tracks {} clusters, model has {num_clusters}",
                self.occupancy.len()
            ));
        }
        let clustered = self
            .occupancy
            .iter()
            .try_fold(0u64, |acc, &c| acc.checked_add(c))
            .and_then(|sum| sum.checked_add(self.noise_points));
        if clustered != Some(self.total_points) {
            return Err(format!(
                "baseline occupancy + noise {} != total {}",
                self.noise_points, self.total_points
            ));
        }
        if self.assign_dist.count() > self.total_points {
            return Err(format!(
                "baseline distance histogram holds {} samples for {} points",
                self.assign_dist.count(),
                self.total_points
            ));
        }
        Ok(())
    }
}

/// The subsampling discipline of a sampled fit, as persisted metadata.
///
/// Mirrors `dbsvec_core::SamplingMode` minus the `Exact` arm: an exact
/// fit simply carries no [`SamplingInfo`] at all.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum SampledMode {
    /// Independent Bernoulli draw: each point was a core candidate with
    /// probability `rate`.
    Uniform {
        /// Per-point inclusion probability in (0, 1].
        rate: f64,
    },
    /// Greedy farthest-first (k-center) draw of `m` candidates.
    KCenter {
        /// The candidate budget.
        m: u64,
    },
}

/// How the fit that produced this artifact drew its core-candidate
/// subsample.
///
/// Attached by sampled fits so a served model can report its provenance
/// (quality expectations differ between an exact model and one fitted on
/// a 5% subsample); exact fits and pre-v3 snapshots carry `None`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SamplingInfo {
    /// The draw discipline and its parameter.
    pub mode: SampledMode,
    /// Seed of the SplitMix64 stream that made the draw.
    pub seed: u64,
    /// Candidates the draw produced. `0` means the draw collapsed to
    /// full coverage (e.g. uniform at rate 1.0) and the fit took the
    /// exact path.
    pub candidates: u64,
    /// Points in the training set the fit saw.
    pub total: u64,
}

impl SamplingInfo {
    /// Consistency of the persisted metadata (the snapshot decoder
    /// surfaces failures as semantic corruption).
    pub fn validate(&self) -> Result<(), String> {
        match self.mode {
            SampledMode::Uniform { rate } => {
                if !(rate.is_finite() && rate > 0.0 && rate <= 1.0) {
                    return Err(format!("sampling rate must be in (0, 1], got {rate}"));
                }
            }
            SampledMode::KCenter { m } => {
                if m == 0 {
                    return Err("k-center sampling budget must be at least 1".to_string());
                }
            }
        }
        if self.candidates > self.total {
            return Err(format!(
                "sampling drew {} candidates from {} points",
                self.candidates, self.total
            ));
        }
        Ok(())
    }

    /// One-line human description, e.g. `uniform rate 0.05 (seed 7), 4983
    /// of 100000 candidates` — the health and serve summaries print this.
    pub fn describe(&self) -> String {
        let mode = match self.mode {
            SampledMode::Uniform { rate } => format!("uniform rate {rate}"),
            SampledMode::KCenter { m } => format!("k-center m {m}"),
        };
        if self.candidates == 0 {
            format!("{mode} (seed {}), full coverage", self.seed)
        } else {
            format!(
                "{mode} (seed {}), {} of {} candidates",
                self.seed, self.candidates, self.total
            )
        }
    }
}

/// Why [`ModelArtifact::from_fit`] could not build an artifact from a
/// clustering. A correct fit never produces these; they guard callers
/// whose core ids, labels and ε do not belong together.
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
}

impl fmt::Display for ModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModelError::BadEps(eps) => write!(f, "eps must be positive and finite, got {eps}"),
            ModelError::NoiseCore(id) => write!(f, "core point {id} is unclustered (noise)"),
            ModelError::IdOutOfRange { id, len } => {
                write!(f, "core id {id} out of range for {len} points")
            }
        }
    }
}

impl std::error::Error for ModelError {}

/// A fitted DBSVEC model in persistable form.
///
/// Produced by [`ModelArtifact::from_fit`], written and read by
/// [`crate::snapshot`], and served by [`crate::Engine`].
#[derive(Clone, Debug, PartialEq)]
pub struct ModelArtifact {
    /// The ε the clustering was fitted with (also the assignment radius).
    pub eps: f64,
    /// The MinPts density threshold of the fit.
    pub min_pts: u32,
    /// Number of clusters.
    pub num_clusters: u32,
    /// Coordinates of the verified core points.
    pub cores: PointSet,
    /// Compact cluster id of each core point, aligned with `cores`.
    pub core_labels: Vec<u32>,
    /// Optional per-cluster SVDD boundaries (at most one per cluster;
    /// clusters too small to train on are simply absent).
    pub boundaries: Option<Vec<ClusterBoundary>>,
    /// Optional fit-time quality baseline for serve-time drift detection.
    pub quality: Option<QualityBaseline>,
    /// How the fit drew its core-candidate subsample (`None` on exact
    /// fits).
    pub sampling: Option<SamplingInfo>,
}

impl ModelArtifact {
    /// Builds an artifact from a finished clustering.
    ///
    /// `core_ids` are the training points that passed the core test (for
    /// DBSVEC, [`dbsvec_core::DbsvecResult::core_points`]); every one of
    /// them must be clustered. Rejects a non-positive ε, noise cores and
    /// out-of-range ids instead of panicking.
    pub fn from_fit(
        points: &PointSet,
        clustering: &Clustering,
        core_ids: &[PointId],
        eps: f64,
        min_pts: u32,
    ) -> Result<Self, ModelError> {
        if !(eps.is_finite() && eps > 0.0) {
            return Err(ModelError::BadEps(eps));
        }
        let mut cores = PointSet::with_capacity(points.dims(), core_ids.len());
        let mut core_labels = Vec::with_capacity(core_ids.len());
        for &id in core_ids {
            if id as usize >= points.len() {
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
        Ok(Self {
            eps,
            min_pts,
            num_clusters: clustering.num_clusters() as u32,
            cores,
            core_labels,
            boundaries: None,
            quality: None,
            sampling: None,
        })
    }

    /// Attaches sampled-fit provenance metadata.
    pub fn with_sampling(mut self, info: SamplingInfo) -> Self {
        self.sampling = Some(info);
        self
    }

    /// Trains one SVDD per cluster over the full training set and attaches
    /// the resulting boundaries. Clusters with fewer than two members are
    /// skipped (a one-point description sphere carries no information).
    pub fn with_boundaries(mut self, points: &PointSet, clustering: &Clustering) -> Self {
        let dims = points.dims();
        let mut boundaries = Vec::new();
        for (cluster, members) in clustering.cluster_members().iter().enumerate() {
            if members.len() < 2 {
                continue;
            }
            let sigma = kernel_width_center_radius(points, members);
            let nu = optimal_nu(dims, members.len(), self.min_pts as usize);
            let model = SvddProblem::new(points, members, GaussianKernel::from_width(sigma))
                .with_nu(nu)
                .solve();
            let mut sv = PointSet::new(dims);
            let mut alpha = Vec::new();
            for (i, &id) in model.target_ids().iter().enumerate() {
                if model.alphas()[i] > ALPHA_TOL {
                    sv.push(points.point(id));
                    alpha.push(model.alphas()[i]);
                }
            }
            boundaries.push(ClusterBoundary {
                cluster: cluster as u32,
                sigma: model.kernel().sigma(),
                r_sq: model.radius_sq(),
                alpha_k_alpha: model.alpha_k_alpha(),
                sv,
                alpha,
            });
        }
        self.boundaries = Some(boundaries);
        self
    }

    /// Captures the fit-time quality baseline: per-cluster occupancy,
    /// noise rate, the leave-one-out distance-to-nearest-core histogram,
    /// and (when boundaries are attached) the SVDD margin histogram.
    ///
    /// Call after [`ModelArtifact::with_boundaries`] if margins should be
    /// part of the baseline.
    pub fn with_quality(mut self, points: &PointSet, clustering: &Clustering) -> Self {
        let tree = KdTree::build(&self.cores);
        let mut assign_dist = Histogram::new();
        for (_, x) in points.iter() {
            // Nearest core other than the point's own entry (the smallest-id
            // core bit-equal to it): a core point's distance to itself is a
            // degenerate 0 that serving traffic (fresh draws) never
            // reproduces.
            let own = tree
                .nearest_within(x, 0.0, |id| bit_equal(self.cores.point(id), x))
                .map(|(_, id)| id);
            if let Some((d_sq, _)) = tree.nearest_within(x, self.eps, |id| Some(id) != own) {
                assign_dist.record(distance_ticks(d_sq.sqrt(), self.eps));
            }
        }

        let margin = self.boundaries.as_ref().map(|bounds| {
            let mut h = Histogram::new();
            let members = clustering.cluster_members();
            for b in bounds {
                for &id in &members[b.cluster as usize] {
                    let m = b.decision(points.point(id)) - b.r_sq;
                    h.record(margin_ticks(m));
                }
            }
            h
        });

        self.quality = Some(QualityBaseline {
            occupancy: clustering
                .cluster_sizes()
                .iter()
                .map(|&s| s as u64)
                .collect(),
            noise_points: clustering.noise_count() as u64,
            total_points: clustering.len() as u64,
            assign_dist,
            margin,
        });
        self
    }

    /// Dimensionality of the model's space.
    pub fn dims(&self) -> usize {
        self.cores.dims()
    }

    /// Semantic validity beyond what the binary decoder can check
    /// structurally: aligned lengths, in-range labels, positive finite
    /// parameters, finite coordinates. Returns a human-readable reason on
    /// failure.
    pub fn validate(&self) -> Result<(), String> {
        if !(self.eps.is_finite() && self.eps > 0.0) {
            return Err(format!("eps must be positive and finite, got {}", self.eps));
        }
        if self.min_pts == 0 {
            return Err("min_pts must be at least 1".to_string());
        }
        if self.cores.len() != self.core_labels.len() {
            return Err(format!(
                "{} core points but {} labels",
                self.cores.len(),
                self.core_labels.len()
            ));
        }
        if let Some(&label) = self.core_labels.iter().find(|&&l| l >= self.num_clusters) {
            return Err(format!(
                "core label {label} out of range for {} clusters",
                self.num_clusters
            ));
        }
        // The engine's kd-tree orders points by coordinate, so a NaN would
        // abort the load instead of failing it.
        if let Some(i) = first_non_finite(&self.cores) {
            return Err(format!("core point {i} has a non-finite coordinate"));
        }
        if let Some(bounds) = &self.boundaries {
            for b in bounds {
                if b.cluster >= self.num_clusters {
                    return Err(format!(
                        "boundary for cluster {} out of range for {} clusters",
                        b.cluster, self.num_clusters
                    ));
                }
                if b.sv.dims() != self.cores.dims() {
                    return Err(format!(
                        "boundary for cluster {} has dims {}, model has {}",
                        b.cluster,
                        b.sv.dims(),
                        self.cores.dims()
                    ));
                }
                if let Some(i) = first_non_finite(&b.sv) {
                    return Err(format!(
                        "boundary for cluster {}: support vector {i} has a non-finite coordinate",
                        b.cluster
                    ));
                }
                if b.sv.len() != b.alpha.len() {
                    return Err(format!(
                        "boundary for cluster {}: {} support vectors but {} multipliers",
                        b.cluster,
                        b.sv.len(),
                        b.alpha.len()
                    ));
                }
                if !(b.sigma.is_finite() && b.sigma > 0.0) {
                    return Err(format!(
                        "boundary for cluster {} has bad kernel width {}",
                        b.cluster, b.sigma
                    ));
                }
                if !b.r_sq.is_finite() || !b.alpha_k_alpha.is_finite() {
                    return Err(format!(
                        "boundary for cluster {} has non-finite constants",
                        b.cluster
                    ));
                }
                if b.alpha.iter().any(|a| !a.is_finite() || *a < 0.0) {
                    return Err(format!(
                        "boundary for cluster {} has invalid multipliers",
                        b.cluster
                    ));
                }
            }
        }
        if let Some(q) = &self.quality {
            q.validate(self.num_clusters)?;
        }
        if let Some(s) = &self.sampling {
            s.validate()?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbsvec_core::{Dbsvec, DbsvecConfig};

    fn two_blob_fit() -> (PointSet, dbsvec_core::DbsvecResult, f64, u32) {
        let mut ps = PointSet::new(2);
        for i in 0..40 {
            ps.push(&[i as f64 * 0.1, 0.0]);
            ps.push(&[i as f64 * 0.1, 50.0]);
        }
        let eps = 0.5;
        let min_pts: u32 = 4;
        let result = Dbsvec::new(DbsvecConfig::new(eps, min_pts as usize)).fit(&ps);
        assert_eq!(result.num_clusters(), 2);
        (ps, result, eps, min_pts)
    }

    #[test]
    fn from_fit_captures_the_model() {
        let (ps, result, eps, min_pts) = two_blob_fit();
        let artifact =
            ModelArtifact::from_fit(&ps, result.labels(), result.core_points(), eps, min_pts)
                .expect("valid fit");
        assert_eq!(artifact.num_clusters, 2);
        assert_eq!(artifact.cores.len(), result.core_points().len());
        assert_eq!(artifact.min_pts, min_pts);
        artifact.validate().expect("fresh artifact validates");
        assert_eq!(
            crate::Engine::new(&artifact).core_count(),
            artifact.cores.len()
        );
    }

    #[test]
    fn from_fit_rejects_corrupt_inputs() {
        let ps = PointSet::from_rows(&[vec![0.0], vec![10.0]]);
        let clustering = Clustering::from_assignments(vec![Some(0), None]);
        let from_fit = |core_ids: &[PointId], eps| {
            ModelArtifact::from_fit(&ps, &clustering, core_ids, eps, 1).unwrap_err()
        };
        assert_eq!(from_fit(&[0], 0.0), ModelError::BadEps(0.0));
        assert!(matches!(from_fit(&[0], f64::NAN), ModelError::BadEps(_)));
        assert_eq!(from_fit(&[1], 1.0), ModelError::NoiseCore(1));
        assert_eq!(
            from_fit(&[7], 1.0),
            ModelError::IdOutOfRange { id: 7, len: 2 }
        );
    }

    #[test]
    fn boundaries_reproduce_the_live_decision_function() {
        let (ps, result, eps, min_pts) = two_blob_fit();
        let artifact =
            ModelArtifact::from_fit(&ps, result.labels(), result.core_points(), eps, min_pts)
                .unwrap()
                .with_boundaries(&ps, result.labels());
        let bounds = artifact.boundaries.as_ref().unwrap();
        assert_eq!(bounds.len(), 2);
        for b in bounds {
            // Retrain the same problem and compare decision values.
            let members = result.labels().cluster_members()[b.cluster as usize].clone();
            let sigma = kernel_width_center_radius(&ps, &members);
            let nu = optimal_nu(2, members.len(), min_pts as usize);
            let live = SvddProblem::new(&ps, &members, GaussianKernel::from_width(sigma))
                .with_nu(nu)
                .solve();
            for x in [[1.5, 0.3], [2.0, 49.0], [30.0, 25.0]] {
                let got = b.decision(&x);
                let want = live.decision(&ps, &x);
                assert!(
                    (got - want).abs() < 1e-12,
                    "cluster {}: {got} vs {want}",
                    b.cluster
                );
                assert_eq!(b.contains(&x), live.contains(&ps, &x));
            }
        }
        artifact.validate().expect("boundaries validate");
    }

    #[test]
    fn with_quality_captures_the_fit_distributions() {
        let (ps, result, eps, min_pts) = two_blob_fit();
        let artifact =
            ModelArtifact::from_fit(&ps, result.labels(), result.core_points(), eps, min_pts)
                .unwrap()
                .with_boundaries(&ps, result.labels())
                .with_quality(&ps, result.labels());
        let q = artifact.quality.as_ref().expect("baseline captured");
        assert_eq!(q.occupancy.len(), 2);
        assert_eq!(q.total_points, ps.len() as u64);
        assert_eq!(
            q.occupancy.iter().sum::<u64>() + q.noise_points,
            q.total_points
        );
        let shares = q.shares();
        assert!((shares.iter().sum::<f64>() + q.noise_rate() - 1.0).abs() < 1e-12);
        // The blobs are dense lines: every point has a nearby core, and
        // the leave-one-out distances sit well inside ε.
        assert!(q.assign_dist.count() > 0);
        assert!(q.assign_dist.max().unwrap() <= DIST_TICKS_PER_EPS as u64);
        // Boundaries were attached first, so margins are present and the
        // bulk of training points lie inside their sphere (margin <= 0,
        // i.e. ticks at or below the zero offset).
        let margin = q.margin.as_ref().expect("margin histogram");
        assert!(margin.count() > 0);
        let zero = margin_ticks(0.0);
        assert!(margin.quantile(0.5).unwrap() <= zero as f64);
        artifact.validate().expect("baseline validates");
    }

    #[test]
    fn quality_distances_are_leave_one_out() {
        // Regression: `KdTree::range` appends into its output vector, so a
        // hits buffer reused across points used to retain stale copies of a
        // core's own id — the self-skip fired once, the stale duplicate
        // recorded a degenerate zero distance, and the baseline histogram
        // skewed low enough to flag stationary traffic as drifted.
        let (ps, result, eps, min_pts) = two_blob_fit();
        let artifact =
            ModelArtifact::from_fit(&ps, result.labels(), result.core_points(), eps, min_pts)
                .unwrap()
                .with_quality(&ps, result.labels());
        let q = artifact.quality.as_ref().unwrap();
        // Every point on the 0.1-spaced lines has its nearest *other* core
        // a full grid step away, so the smallest recorded tick sits near
        // distance_ticks(0.1, eps) — and in particular is never zero.
        assert_eq!(q.assign_dist.count(), ps.len() as u64);
        let min = q.assign_dist.min().unwrap();
        assert!(
            min >= distance_ticks(0.1, eps) / 2,
            "degenerate self-distance leaked into the baseline: min tick {min}"
        );
    }

    #[test]
    fn quality_without_boundaries_skips_margins() {
        let (ps, result, eps, min_pts) = two_blob_fit();
        let artifact =
            ModelArtifact::from_fit(&ps, result.labels(), result.core_points(), eps, min_pts)
                .unwrap()
                .with_quality(&ps, result.labels());
        let q = artifact.quality.as_ref().unwrap();
        assert!(q.margin.is_none());
    }

    #[test]
    fn fixed_point_tick_mappings_are_sane() {
        assert_eq!(distance_ticks(0.0, 0.5), 0);
        assert_eq!(distance_ticks(0.5, 0.5), DIST_TICKS_PER_EPS as u64);
        assert_eq!(distance_ticks(0.25, 0.5), (DIST_TICKS_PER_EPS / 2.0) as u64);
        assert_eq!(distance_ticks(f64::NAN, 0.5), 0);
        assert_eq!(
            margin_ticks(0.0),
            (MARGIN_CLAMP * DIST_TICKS_PER_EPS) as u64
        );
        assert_eq!(margin_ticks(-1e9), 0);
        assert_eq!(
            margin_ticks(1e9),
            (2.0 * MARGIN_CLAMP * DIST_TICKS_PER_EPS) as u64
        );
        assert!(margin_ticks(-0.5) < margin_ticks(0.0));
        assert!(margin_ticks(0.5) > margin_ticks(0.0));
    }

    #[test]
    fn sampling_metadata_validates_and_describes() {
        let (ps, result, eps, min_pts) = two_blob_fit();
        let artifact =
            ModelArtifact::from_fit(&ps, result.labels(), result.core_points(), eps, min_pts)
                .unwrap();
        assert!(artifact.sampling.is_none(), "exact fits carry no metadata");

        let info = SamplingInfo {
            mode: SampledMode::Uniform { rate: 0.25 },
            seed: 7,
            candidates: 20,
            total: 80,
        };
        let sampled = artifact.clone().with_sampling(info);
        sampled.validate().expect("sampled metadata validates");
        assert_eq!(
            info.describe(),
            "uniform rate 0.25 (seed 7), 20 of 80 candidates"
        );
        let full = SamplingInfo {
            mode: SampledMode::KCenter { m: 99 },
            seed: 1,
            candidates: 0,
            total: 80,
        };
        assert_eq!(full.describe(), "k-center m 99 (seed 1), full coverage");

        let mut bad = sampled.clone();
        bad.sampling.as_mut().unwrap().mode = SampledMode::Uniform { rate: 1.5 };
        assert!(bad.validate().is_err());
        let mut bad = sampled.clone();
        bad.sampling.as_mut().unwrap().mode = SampledMode::KCenter { m: 0 };
        assert!(bad.validate().is_err());
        let mut bad = sampled;
        bad.sampling.as_mut().unwrap().candidates = 81;
        assert!(bad.validate().is_err());
    }

    #[test]
    fn validate_catches_corruption() {
        let (ps, result, eps, min_pts) = two_blob_fit();
        let good =
            ModelArtifact::from_fit(&ps, result.labels(), result.core_points(), eps, min_pts)
                .unwrap();

        let mut bad = good.clone();
        bad.eps = f64::NAN;
        assert!(bad.validate().is_err());

        let mut bad = good.clone();
        bad.min_pts = 0;
        assert!(bad.validate().is_err());

        let mut bad = good.clone();
        bad.core_labels[0] = 99;
        assert!(bad.validate().is_err());

        let mut bad = good.clone();
        bad.core_labels.pop();
        assert!(bad.validate().is_err());

        // Baseline corruption is caught too.
        let with_q = good.clone().with_quality(&ps, result.labels());
        let mut bad = with_q.clone();
        bad.quality.as_mut().unwrap().occupancy.pop();
        assert!(bad.validate().is_err());
        let mut bad = with_q.clone();
        bad.quality.as_mut().unwrap().total_points += 1;
        assert!(bad.validate().is_err());
        let mut bad = with_q;
        let q = bad.quality.as_mut().unwrap();
        for _ in 0..=q.total_points {
            q.assign_dist.record(1);
        }
        assert!(bad.validate().is_err());
    }
}
