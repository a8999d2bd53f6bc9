//! Every baseline algorithm of the DBSVEC paper's evaluation (§V-A).
//!
//! | paper name | here | nature |
//! |---|---|---|
//! | R-DBSCAN | [`Dbscan::fit`] (R\*-tree) | exact, the ground truth |
//! | kd-DBSCAN | [`Dbscan::fit_with_index`] + [`dbsvec_index::KdTree`] | exact |
//! | ρ-Approximate | [`RhoApproxDbscan`] | grid-based approximation |
//! | DBSCAN-LSH | [`DbscanLsh`] | hashing-based approximation |
//! | NQ-DBSCAN | [`NqDbscan`] | exact, prunes distance computations |
//! | k-MEANS | [`KMeans`] | partitioning baseline |
//!
//! All of them emit the shared [`dbsvec_core::Clustering`] label type, so
//! `dbsvec-metrics` scores any pair of them interchangeably.

pub mod dbscan;
pub mod dbscan_lsh;
pub mod kmeans;
pub mod nq_dbscan;
pub mod rho_approx;

pub use dbscan::{Dbscan, DbscanResult, DbscanStats};
pub use dbscan_lsh::{DbscanLsh, DbscanLshResult};
pub use kmeans::{KMeans, KMeansResult};
pub use nq_dbscan::{NqDbscan, NqDbscanResult, NqDbscanStats};
pub use rho_approx::{RhoApproxDbscan, RhoApproxResult, RhoApproxStats};
