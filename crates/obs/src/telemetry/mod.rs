//! Serving metrics: registry, latency histograms, and exposition.
//!
//! Traces ([`crate::jsonl`]) answer "what happened during this run";
//! telemetry answers "how is the process doing right now" — cumulative
//! counters, point-in-time gauges, and latency distributions that a
//! scraper polls. The two share one source: the serving engine folds the
//! events it emits into a [`crate::ReplayCounts`], and its
//! `EngineMetrics` registry shows that fold's counters, so a metric and a
//! replayed trace cannot disagree.
//!
//! * [`registry`] — named counters/gauges/histograms behind typed ids; the
//!   hot path is one array index, no hashing.
//! * [`hist`] — log-linear-bucket [`Histogram`]: fixed 8 KiB footprint,
//!   ≤ 6.25 % relative error, mergeable across threads, p50/p95/p99.
//! * [`expo`] — renders a registry as Prometheus text exposition format
//!   0.0.4 or as JSON, plus a validating parser for the text format
//!   (used by `metrics-report` and the CI smoke test).
//! * [`quality`] — drift math for the model-quality monitor: octave-level
//!   earth-mover distance between histograms, total-variation shift
//!   between share vectors, and EWMA smoothing.
//!
//! Everything here is hand-rolled; `DESIGN.md` explains why no
//! `prometheus`/`metrics` crate (the workspace's offline-buildable rule).

pub mod expo;
pub mod hist;
pub mod quality;
pub mod registry;

pub use expo::{parse_prometheus, render_json, render_prometheus, Sample};
pub use hist::{Histogram, HistogramSummary};
pub use quality::{hist_drift, share_shift, Ewma, DRIFT_SATURATION_OCTAVES};
pub use registry::{CounterId, GaugeId, HistogramId, HistogramMetric, Registry};
