//! Range-query engines for density-based clustering.
//!
//! Every DBSCAN-family algorithm in this workspace is built on one
//! primitive: the ε-range query *"give me all points within distance ε of
//! q"*. This crate provides three interchangeable engines behind the
//! [`RangeIndex`] trait:
//!
//! * [`LinearScan`] — the O(n) baseline, also the correctness oracle in
//!   tests;
//! * [`KdTree`] — median-split kd-tree with leaf buckets, the engine behind
//!   the paper's *kd-DBSCAN* baseline and DBSVEC's default fit; its owning
//!   twin [`OwnedKdTree`] and the bounded nearest-neighbour search
//!   [`KdTree::nearest_within`] serve the fitted model and the serving
//!   engine;
//! * [`RStarTree`] — an STR bulk-loaded R\*-tree, the engine behind the
//!   paper's *R-DBSCAN* ground-truth algorithm (the paper's own substrate
//!   for DBSVEC, which callers pass to `fit_with_index`).
//!
//! [`k_distance_profile`] and [`knee_epsilon`] derive ε from any engine.
//! [`CountingIndex`] wraps any engine and counts the queries and results
//! it answers: tests use it to check that a fit's reported range-query
//! count (the θ of the paper's Table II) equals what the index saw.
//!
//! All engines borrow the [`dbsvec_geometry::PointSet`] they index; they
//! never copy coordinates. Build once, query many times.
//!
//! ```
//! use dbsvec_geometry::PointSet;
//! use dbsvec_index::{KdTree, RangeIndex};
//!
//! let ps = PointSet::from_rows(&[vec![0.0, 0.0], vec![1.0, 0.0], vec![10.0, 10.0]]);
//! let tree = KdTree::build(&ps);
//! let mut hits = Vec::new();
//! tree.range(&[0.5, 0.0], 1.0, &mut hits);
//! hits.sort_unstable();
//! assert_eq!(hits, vec![0, 1]);
//! ```

pub mod kdist;
pub mod kdtree;
mod keyed;
mod leaf;
pub mod linear;
pub mod rstar;
pub mod stats;
pub mod traits;
mod width;

pub use kdist::{k_distance_profile, k_distance_profile_for_ids, knee_epsilon};
pub use kdtree::{nearer, KdTree, OwnedKdTree};
pub use linear::LinearScan;
pub use rstar::RStarTree;
pub use stats::{CountingIndex, QueryStats};
pub use traits::RangeIndex;
