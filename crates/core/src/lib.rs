//! DBSVEC — *Density-Based Clustering Using Support Vector Expansion*
//! (Wang, Zhang, Qi, Yuan — ICDE 2019).
//!
//! DBSVEC produces (nearly) the same clusters as DBSCAN while issuing range
//! queries for only a small subset of points. The key observation: once an
//! initial *sub-cluster* exists, only queries near its **boundary** can
//! discover new members — interior queries are redundant. DBSVEC finds
//! boundary points by training a Support Vector Domain Description on the
//! sub-cluster and querying only the resulting **core support vectors**
//! (support vectors whose ε-neighborhood is dense).
//!
//! The algorithm has four phases (paper Algorithms 2 & 3):
//!
//! 1. **Initialization** — scan for an unvisited core point; its
//!    ε-neighborhood seeds a sub-cluster. Non-core points are parked on a
//!    potential-noise list along with their (small) neighborhoods.
//! 2. **Support vector expansion** — train weighted SVDD on the
//!    sub-cluster's target set, range-query the support vectors, absorb
//!    newly found neighbors of core support vectors; repeat until a round
//!    adds nothing.
//! 3. **Sub-cluster merging** — when an absorbed point already belongs to
//!    another sub-cluster and is core, the two sub-clusters are one cluster
//!    (Lemma 3); a union–find tracks the merges.
//! 4. **Noise verification** — each potential noise point with a core
//!    neighbor becomes a border point of that neighbor's cluster; the rest
//!    are confirmed noise. This yields DBSCAN-identical border/noise sets
//!    (Theorems 2–3).
//!
//! Accuracy: every DBSVEC cluster is a subset of a DBSCAN cluster
//! (Theorem 1 — clusters are never wrongly merged); splitting a DBSCAN
//! cluster is possible only under the contrived conditions of §III-C and is
//! not observed in the paper's experiments or this crate's test suite.
//!
//! # Quick start
//!
//! ```
//! use dbsvec_core::{Dbsvec, DbsvecConfig};
//! use dbsvec_geometry::PointSet;
//!
//! let mut ps = PointSet::new(2);
//! for i in 0..60 {
//!     let t = i as f64 / 60.0 * std::f64::consts::TAU;
//!     ps.push(&[t.cos() * 10.0, t.sin() * 10.0]); // a ring
//!     ps.push(&[t.cos(), t.sin()]);               // a blob inside it
//! }
//! let result = Dbsvec::new(DbsvecConfig::new(2.2, 4)).fit(&ps);
//! assert_eq!(result.num_clusters(), 2);
//! println!("range queries: {}", result.stats().range_queries);
//! ```

pub mod config;
pub mod connectivity;
pub mod dbsvec;
pub mod expand;
pub mod labels;
pub mod noise;
pub(crate) mod runner;
pub mod sample;
pub mod stats;
mod unionfind;

pub use config::{DbsvecConfig, NuStrategy, SamplingConfig, SamplingMode, DEFAULT_SAMPLING_SEED};
pub use connectivity::Connectivity;
pub use dbsvec::{dbsvec, Dbsvec, DbsvecResult};
pub use labels::{Clustering, WorkingLabels};
pub use stats::DbsvecStats;
