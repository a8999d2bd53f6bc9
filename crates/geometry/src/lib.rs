//! Geometric substrate shared by every crate in the DBSVEC workspace.
//!
//! The central type is [`PointSet`]: a dense, row-major collection of
//! `d`-dimensional points backed by a single flat `Vec<f64>`. All clustering
//! algorithms in the workspace address points by [`PointId`] and borrow
//! coordinate slices out of one `PointSet`, which keeps hot distance loops
//! cache-friendly and avoids per-point allocations.
//!
//! The crate also provides:
//!
//! * [`distance`] — Euclidean distance kernels used by the range-query
//!   engines and the SVDD Gaussian kernel,
//! * [`bbox::BoundingBox`] — axis-aligned boxes used by the kd-tree and
//!   R\*-tree indexes,
//! * a tiny splitmix-based deterministic RNG ([`rng::SplitMix64`]) used where
//!   a dependency on `rand` would be overkill.

pub mod bbox;
pub mod distance;
pub mod pointset;
pub mod rng;

pub use bbox::BoundingBox;
pub use distance::{euclidean, squared_euclidean};
pub use pointset::{PointId, PointSet};
