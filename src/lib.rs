//! # DBSVEC — Density-Based Clustering Using Support Vector Expansion
//!
//! A Rust implementation of the DBSVEC algorithm (Wang, Zhang, Qi, Yuan —
//! ICDE 2019) together with the full stack of substrates and baselines the
//! paper evaluates against.
//!
//! This facade crate re-exports the workspace's public API under stable
//! paths. Most users only need [`Dbsvec`] (or [`dbsvec()`](fn@dbsvec) for the one-liner),
//! a [`PointSet`], and the evaluation helpers in [`metrics`]:
//!
//! ```
//! use dbsvec::{Dbsvec, DbsvecConfig, PointSet};
//!
//! // Two dense blobs and one straggler.
//! let mut ps = PointSet::new(2);
//! for i in 0..20 {
//!     ps.push(&[i as f64 * 0.01, 0.0]);
//!     ps.push(&[i as f64 * 0.01, 10.0]);
//! }
//! ps.push(&[100.0, 100.0]);
//!
//! let config = DbsvecConfig::new(0.5, 5);
//! let result = Dbsvec::new(config).fit(&ps);
//! assert_eq!(result.num_clusters(), 2);
//! assert!(result.labels().is_noise(40));
//! ```
//!
//! ## Workspace layout
//!
//! | re-export | crate | contents |
//! |---|---|---|
//! | [`geometry`] | `dbsvec-geometry` | [`PointSet`], distance kernels, bounding boxes |
//! | [`index`] | `dbsvec-index` | linear scan, kd-tree and R\*-tree range-query engines; k-distance profiles |
//! | [`svdd`] | `dbsvec-svdd` | weighted SVDD trained by a from-scratch SMO solver; 2-D boundary extraction |
//! | [`core`] | `dbsvec-core` | the DBSVEC algorithm and its ablation variants |
//! | [`lsh`] | `dbsvec-lsh` | p-stable LSH substrate |
//! | [`baselines`] | `dbsvec-baselines` | DBSCAN, ρ-approximate DBSCAN, DBSCAN-LSH, NQ-DBSCAN, k-means |
//! | [`metrics`] | `dbsvec-metrics` | pair recall/precision/F1, Fowlkes–Mallows, ARI, NMI, silhouette, Davies–Bouldin |
//! | [`datasets`] | `dbsvec-datasets` | deterministic synthetic generators, CSV I/O, SVG scatter plots |
//! | [`obs`] | `dbsvec-obs` | run-trace observers: phase spans, typed events, JSONL sink, replay, profiling; telemetry registry with latency histograms and Prometheus/JSON exposition |
//! | [`engine`] | `dbsvec-engine` | persistent model snapshots (`.dbm`) and the online ingest/assign serving engine, which classifies points out of sample |
//! | [`server`] | `dbsvec-server` | std-only HTTP/1.1 serving tier: sharded multi-model router, bounded thread pool, graceful shutdown |
//!
//! A command-line front end lives in the separate `dbsvec-cli` crate
//! (binary `dbsvec-cli`): cluster, compare, generate, suggest, fit,
//! serve, serve-http, and ingest subcommands over CSV files.

pub use dbsvec_baselines as baselines;
pub use dbsvec_core as core;
pub use dbsvec_datasets as datasets;
pub use dbsvec_engine as engine;
pub use dbsvec_geometry as geometry;
pub use dbsvec_index as index;
pub use dbsvec_lsh as lsh;
pub use dbsvec_metrics as metrics;
pub use dbsvec_obs as obs;
pub use dbsvec_server as server;
pub use dbsvec_svdd as svdd;

pub use dbsvec_core::{
    dbsvec, Dbsvec, DbsvecConfig, SamplingConfig, SamplingMode, DEFAULT_SAMPLING_SEED,
};
pub use dbsvec_geometry::{PointId, PointSet};
