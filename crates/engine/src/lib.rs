//! Persistent model artifacts and an online serving engine for DBSVEC.
//!
//! The paper's fitted state — core points, their cluster labels, ε/MinPts,
//! and per-cluster SVDD boundaries — is everything needed to classify new
//! observations without re-clustering. This crate makes that state
//! *operational*:
//!
//! * [`ModelArtifact`] ([`artifact`]) — the persistable summary of a fit,
//!   built with [`ModelArtifact::from_fit`] and optionally enriched with
//!   trained boundaries via [`ModelArtifact::with_boundaries`];
//! * [`snapshot`] — a versioned, checksummed, dependency-free binary
//!   format (`.dbm`) that round-trips an artifact bit-for-bit;
//! * [`Engine`] ([`engine`]) — an online ingest/assign/remove server:
//!   nearest core-within-ε assignment off a kd-tree, streaming ingest with
//!   MinPts-gated core promotion and merging, removal with exact split
//!   repair, scoped-thread batch fan-out, and a staleness heuristic that
//!   recommends re-fitting;
//! * [`EngineMetrics`] ([`metrics`]) — a pre-wired telemetry registry:
//!   counters showing [`EngineStats`] (itself a view of the engine's fold
//!   of the events it emits), health gauges showing [`HealthSnapshot`],
//!   and per-call latency histograms. Exposed as Prometheus text or JSON
//!   via `dbsvec_obs::telemetry::expo`;
//! * [`QualityMonitor`] ([`monitor`]) — online drift detection: the fit
//!   records a [`QualityBaseline`] into the artifact, and an engine built
//!   with [`EngineConfig::monitor`] windows live traffic into the same
//!   distributions and scores histogram, occupancy, and noise-rate drift,
//!   which [`Engine::health`](engine::Engine::health) reports as refit
//!   evidence beyond staleness.
//!
//! Everything observes through the `dbsvec-obs` seam (`Assign`, `Ingest`,
//! `Promote`, `SnapshotWrite`/`SnapshotLoad` events under the `serve`
//! phase), so traces and profiles cover serving exactly like fitting.
//!
//! ```
//! use dbsvec_core::{Dbsvec, DbsvecConfig};
//! use dbsvec_engine::{snapshot, Assignment, Engine, ModelArtifact};
//! use dbsvec_geometry::PointSet;
//!
//! let mut ps = PointSet::new(2);
//! for i in 0..40 {
//!     ps.push(&[i as f64 * 0.1, 0.0]);
//!     ps.push(&[i as f64 * 0.1, 50.0]);
//! }
//! let fit = Dbsvec::new(DbsvecConfig::new(0.5, 4)).fit(&ps);
//! let artifact =
//!     ModelArtifact::from_fit(&ps, fit.labels(), fit.core_points(), 0.5, 4).unwrap();
//!
//! // Round-trip through the binary snapshot format...
//! let bytes = snapshot::encode(&artifact);
//! let restored = snapshot::decode(&bytes).unwrap();
//!
//! // ...and serve assignments from it.
//! let mut engine = Engine::new(&restored);
//! assert!(matches!(engine.assign(&[2.0, 0.2]), Assignment::Cluster(_)));
//! assert_eq!(engine.assign(&[2.0, 25.0]), Assignment::Noise);
//! ```

pub mod artifact;
pub mod engine;
pub mod metrics;
pub mod monitor;
pub mod snapshot;

pub use artifact::{
    ClusterBoundary, ModelArtifact, ModelError, QualityBaseline, SampledMode, SamplingInfo,
};
pub use engine::{
    Assignment, Engine, EngineConfig, EngineStats, HealthSnapshot, IngestOutcome, RemoveOutcome,
    REFIT_THRESHOLD,
};
pub use metrics::EngineMetrics;
pub use monitor::{DriftSignals, MonitorConfig, QualityMonitor, WindowReport};
pub use snapshot::{SnapshotError, FORMAT_VERSION, MAGIC, MIN_READ_VERSION};
