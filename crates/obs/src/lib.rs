//! Run-trace and phase-profiling observability for the DBSVEC workspace.
//!
//! The paper's central claim (§III-D, Table II) is a *cost* claim — DBSVEC
//! issues `s + 1 + k + m + MinPts·l ≪ n` range queries. This crate makes
//! that cost observable while a run is happening, for DBSVEC and for every
//! baseline, under one schema:
//!
//! * [`Observer`] — the trait instrumented algorithms report into:
//!   span-style phase timing ([`Phase`]) plus typed [`Event`]s for range
//!   queries, expansion rounds, SMO solves, merges, noise verdicts, and
//!   the serving and HTTP tiers. Each event is declared once, in a table
//!   that also generates its name and its jsonl encoding and decoding.
//! * [`ReplayCounts`] — the one fold from events to counts. The fit and
//!   the serving engine fold every event they emit through it and build
//!   their stats from that fold, so replaying a trace reproduces them
//!   exactly.
//! * [`NoopObserver`] — the default; every callback is an empty inlineable
//!   body, so un-observed runs pay nothing.
//! * [`RecordingObserver`] — in-memory, queryable: phase timings, event
//!   slices, and their [`ReplayCounts`] for tests and `--profile`.
//! * [`JsonlSink`] — streams every callback as one JSON object per line to
//!   any `io::Write` (the CLI's `--trace out.jsonl`).
//! * [`Tee`] — fan out one instrumented run to two observers (e.g. record
//!   *and* trace).
//! * [`ProfileReport`] — renders the phase-time + θ breakdown table.
//! * [`telemetry`] — serving metrics: a [`Registry`] of named counters,
//!   gauges, and log-linear latency [`Histogram`]s, and their
//!   Prometheus/JSON exposition. The serving engine's registry shows
//!   counters read off its [`ReplayCounts`] fold.
//! * [`json`] — the hand-rolled JSON value writer everything above (and
//!   the bench harness's `BENCH_*.json` output) shares. No external
//!   dependencies anywhere in this crate.
//!
//! Why a trait-object seam instead of `tracing` is discussed in
//! `DESIGN.md`; the short version: the observer vocabulary *is* the
//! paper's cost model, the zero dependency rule keeps the workspace
//! offline-buildable, and `&mut dyn Observer` monomorphizes nothing.

pub mod event;
pub mod json;
pub mod jsonl;
pub mod observer;
pub mod recording;
pub mod replay;
pub mod report;
pub mod telemetry;

pub use event::{Event, HttpStages, Phase};
pub use json::Json;
pub use jsonl::JsonlSink;
pub use observer::{NoopObserver, Observer, Tee};
pub use recording::{PhaseTimings, Record, RecordingObserver};
pub use replay::ReplayCounts;
pub use report::ProfileReport;
pub use telemetry::{Histogram, HistogramSummary, Registry};
