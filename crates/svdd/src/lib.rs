//! Weighted Support Vector Domain Description (SVDD) trained by a
//! from-scratch SMO solver.
//!
//! SVDD (Tax & Duin 1999) finds the minimum hypersphere — in a Gaussian
//! kernel feature space — that encloses all or most of a target point set.
//! The points with nonzero Lagrange multipliers are the *support vectors*
//! and lie on or outside the sphere, i.e. on the boundary of the data.
//! DBSVEC (ICDE 2019) exploits exactly this: it expands a growing
//! sub-cluster by running range queries only on the support vectors of the
//! sub-cluster.
//!
//! This crate implements the paper's *improved* SVDD (§IV):
//!
//! * the **adaptively weighted dual** (Eq. 11): per-point box constraints
//!   `0 <= α_i <= ω_i C` where the penalty weight `ω_i` (Eq. 7, computed in
//!   [`weights`]) favours newly added and far-from-center points as support
//!   vectors;
//! * **Sequential Minimal Optimization** ([`smo`]): pairwise multiplier
//!   updates under the simplex constraint `Σ α_i = 1`, working-set
//!   selection by maximum KKT violation (second-order for the decreasing
//!   side) that costs O(#SV) per step beyond one gradient pass, and a
//!   per-solve LRU slab of kernel rows over a column-major copy of the
//!   target;
//! * **incremental learning** ([`incremental`]): a learning threshold `T`
//!   bounds how many trainings a point participates in, keeping the target
//!   set — and hence each SMO solve — small, and a cross-round
//!   [`SolverSession`] warm-starts each solve from the previous round's
//!   multipliers;
//! * **kernel width selection** ([`params`]): `σ = r/√2` for target radius
//!   `r`, the lower bound derived in the paper's Eq. 19 that avoids the
//!   "crater" overfitting regime, plus the penalty factor rule
//!   `ν* = d·√(log_MinPts ñ)/ñ` (Eq. 20).
//!
//! ```
//! use dbsvec_geometry::PointSet;
//! use dbsvec_svdd::{GaussianKernel, SvddProblem};
//!
//! // A ring of points: every point is on the boundary.
//! let mut ps = PointSet::new(2);
//! for i in 0..32 {
//!     let a = i as f64 / 32.0 * std::f64::consts::TAU;
//!     ps.push(&[a.cos(), a.sin()]);
//! }
//! let ids: Vec<u32> = (0..32).collect();
//! let kernel = GaussianKernel::from_width(1.0);
//! let model = SvddProblem::new(&ps, &ids, kernel).with_nu(0.5).solve();
//! assert!(!model.support_vectors().is_empty());
//! // The center of the ring is inside the described domain.
//! assert!(model.decision(&ps, &[0.0, 0.0]) <= model.radius_sq() + 1e-6);
//! ```

pub mod contour;
pub mod incremental;
pub mod kernel;
pub mod model;
pub mod params;
pub mod smo;
pub mod weights;

pub use contour::{decision_boundary_2d, decision_boundary_around_targets, Segment};
pub use incremental::{IncrementalTarget, SolverSession, DEFAULT_LEARNING_THRESHOLD};
pub use kernel::GaussianKernel;
pub use model::{SolveDiagnostics, SvType, SvddModel};
pub use params::{kernel_width_center_radius, optimal_nu, KernelWidthStrategy};
pub use smo::{RowCacheStats, SmoOptions, SvddProblem};
pub use weights::{centroid_distances, kernel_distances, penalty_weights, WeightOptions};
