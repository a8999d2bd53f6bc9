//! Library backing the `dbsvec` command-line tool.
//!
//! Thin, testable wrappers around the workspace crates:
//!
//! * `dbsvec cluster` — cluster a CSV of points with DBSVEC or any
//!   baseline, writing labels (and optionally an SVG scatter for 2-D data);
//!   ε can be derived automatically from the k-distance knee;
//! * `dbsvec compare` — run DBSVEC and exact DBSCAN side by side and
//!   report agreement (recall, ARI) and timings;
//! * `dbsvec generate` — emit one of the synthetic benchmark datasets as
//!   CSV;
//! * `dbsvec suggest` — print the k-distance-derived ε for a dataset;
//! * `dbsvec fit` — cluster with DBSVEC and persist the fitted model as a
//!   versioned binary snapshot (`.dbm`);
//! * `dbsvec serve` — load a snapshot and assign a batch of new points
//!   (optionally fanned out over threads);
//! * `dbsvec serve-http` — expose one or more snapshots over the std-only
//!   HTTP/1.1 serving tier (sharded router, graceful shutdown);
//! * `dbsvec ingest` — stream new points into a loaded model, promoting
//!   dense arrivals to cores, and report the resulting drift;
//! * `dbsvec metrics-report` — render a `--metrics-file` dump (Prometheus
//!   text or JSON) human-readably, validating it along the way;
//! * `dbsvec monitor-report` — summarize the drift metrics a monitored
//!   serve/ingest run dumped, and optionally assert the refit verdict
//!   (`--expect-refit` / `--expect-fresh`) as an exit status for CI.
//!
//! All user errors surface as [`CliError`] with a message suitable for
//! stderr; the binary in `src/bin/dbsvec.rs` is a trivial shell around
//! [`run`].

pub mod args;
pub mod commands;

use args::{ArgError, ParsedArgs};

/// A user-facing CLI failure.
#[derive(Debug)]
pub struct CliError(pub String);

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for CliError {}

impl From<ArgError> for CliError {
    fn from(e: ArgError) -> Self {
        CliError(e.0)
    }
}

impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> Self {
        CliError(e.to_string())
    }
}

/// Usage text printed for `--help` / missing subcommands.
pub const USAGE: &str = "\
dbsvec-cli — density-based clustering using support vector expansion (ICDE 2019)

USAGE:
  dbsvec-cli cluster  --input points.csv [--algorithm NAME] [--eps F] [--min-pts N]
                  [--output labels.csv] [--svg plot.svg] [--seed N] [--stats]
                  [--profile] [--trace out.jsonl]
  dbsvec-cli compare  --input points.csv [--eps F] [--min-pts N] [--seed N]
  dbsvec-cli generate --dataset NAME [--n N] [--dims D] [--seed N] --output file.csv
  dbsvec-cli suggest  --input points.csv [--min-pts N]
  dbsvec-cli fit      --input points.csv --save model.dbm [--eps F] [--min-pts N]
                  [--cold-start] [--boundaries] [--stats] [--profile]
                  [--sample-rate R | --sample-kcenter M] [--sample-seed N]
                  [--trace out.jsonl]
  dbsvec-cli serve    --model model.dbm --assign points.csv [--output labels.csv]
                  [--threads N] [--profile] [--trace out.jsonl]
                  [--metrics-file metrics.prom] [--metrics-interval N]
                  [--monitor] [--monitor-window N] [--drift-threshold F]
                  [--refit-threshold F]
  dbsvec-cli serve-http --model a.dbm[,b.dbm] [--addr HOST:PORT] [--shards N]
                  [--threads N] [--monitor] [--monitor-window N]
                  [--drift-threshold F] [--metrics-file metrics.prom]
                  [--trace out.jsonl] [--max-requests N]
                  [--slow-request-ms N] [--trace-capacity N]
  dbsvec-cli ingest   --model model.dbm --input points.csv [--save updated.dbm]
                  [--remove-ids LIST] [--trace out.jsonl] [--metrics-file metrics.prom]
                  [--metrics-interval N] [--monitor] [--monitor-window N]
                  [--drift-threshold F] [--refit-threshold F]
  dbsvec-cli metrics-report --input metrics.prom
  dbsvec-cli monitor-report --input metrics.prom [--expect-refit | --expect-fresh]

ALGORITHMS (for --algorithm):
  dbsvec (default) | dbsvec-min | dbscan | kd-dbscan | rho-approx |
  dbscan-lsh | nq-dbscan | kmeans (uses --k)

DATASETS (for --dataset):
  t48k | t710k | moons | spirals | walk (uses --n, --dims)

Omitting --eps derives it from the k-distance knee (Schubert et al. 2017);
omitting --min-pts uses a cardinality-based default.

fit --cold-start turns off the SMO solver's warm start (reusing the previous
round's alphas); labels are identical either way.

SAMPLED CORE DISCOVERY (fit):
  fit --sample-rate R draws a uniform Bernoulli subsample (each point a core
  candidate with probability R in (0, 1]) and restricts seeding, expansion,
  and the eps-derivation k-distance sweep to it; unsampled points are then
  attached to the nearest discovered core within eps or confirmed as noise.
  fit --sample-kcenter M draws M greedy farthest-first (k-center) candidates
  instead — better coverage of sparse regions at the same budget.
  --sample-seed N seeds the draw (default 20190401). At --sample-rate 1.0
  the fit is bit-identical to an exact fit. The summary prints a greppable
  `sampling:` line; the snapshot records the provenance, which serve and
  the /health endpoint report back.

SERVING:
  fit --save writes a versioned, checksummed binary snapshot (.dbm) of the
  fitted model (core points, labels, eps/MinPts; --boundaries also persists
  one trained SVDD per cluster). serve loads it and labels new points by the
  nearest-core-within-eps rule; ingest streams points in, promoting dense
  arrivals to cores, and prints a staleness-based re-fit recommendation.
  ingest --remove-ids LIST (row indices, e.g. 3,5,10-20) removes those input
  rows from the model by coordinates instead of ingesting them, in row
  order: tracked neighborhoods thin, cores falling below MinPts demote back
  to the buffer, and clusters merge or split as the core graph repairs.

HTTP SERVING (serve-http):
  serve-http exposes one or more snapshots over a std-only HTTP/1.1 server:
  POST /v1/models/{name}/assign and /ingest take {\"point\":[..]} or
  {\"points\":[[..],..]} JSON bodies (name = the .dbm file stem); DELETE
  /v1/models/{name}/points takes the same shapes and removes tracked
  points (single-point bodies naming an untracked point answer a typed
  404); GET /v1/models/{name}/health, /metrics (Prometheus text), and
  /healthz round it out. --shards N splits each model over N engines with
  consistent point-to-shard hashing (a removal lands on the shard that
  ingested the point); --threads N sizes the connection worker pool.
  SIGINT/SIGTERM (or --max-requests N) drains in-flight requests, persists
  every shard dirtied by ingest next to its source snapshot, and dumps
  final metrics to --metrics-file.

  Every request gets a monotonically increasing id and a stage-timed trace
  (queue/parse/route/lock/engine/serialize/write); GET /debug/requests
  returns the flight recorder's recent window (--trace-capacity N traces,
  default 256) with errors and slow requests tail-sampled so they survive
  the ring wrapping. --slow-request-ms N marks requests at or over N ms
  slow: each one is retained and logged as a one-line `slow request`
  report with its stage breakdown.

OBSERVABILITY (cluster, fit, serve, ingest; instrumented algorithms:
dbsvec, dbsvec-min, dbscan, kd-dbscan, nq-dbscan):
  --profile           print a per-phase wall-clock + theta breakdown after the run
  --trace out.jsonl   stream every phase span and event as one JSON object per line

TELEMETRY (serve, ingest):
  --metrics-file PATH   dump serving metrics (counters, health gauges, and
                        assign/ingest latency p50/p95/p99) to PATH; the format
                        is Prometheus text exposition unless PATH ends in
                        .json, which selects JSON
  --metrics-interval N  re-dump the file every N processed points (0 = only at
                        the end), so a scraper sees progress mid-run
  metrics-report        validate and pretty-print such a dump

QUALITY MONITORING (serve, ingest):
  fit records a quality baseline into the snapshot: per-cluster occupancy,
  the assign-distance histogram, and the noise rate of the training data.
  --monitor             window live traffic into the same distributions and
                        score the drift (histogram EMD, occupancy shift,
                        noise-rate delta); alerts and window summaries land
                        in traces and in the metrics dump. serve --threads N
                        folds answers into the windows in input order, so
                        windows and alerts are the same at every N
  --monitor-window N    observations per tumbling window (default 512)
  --drift-threshold F   smoothed-score alert threshold in (0, 1]
                        (default 0.35); at or above it, a re-fit is
                        recommended regardless of staleness
  --refit-threshold F   staleness ratio that alone recommends a re-fit
                        (default 0.25)
  monitor-report        summarize the drift metrics in such a dump;
                        --expect-refit / --expect-fresh assert the verdict
                        via the exit status (CI gate)
";

/// Entry point shared by the binary and the tests: parses `tokens`
/// (without the program name) and runs the requested command, writing
/// human-readable output through `out`.
pub fn run(tokens: Vec<String>, out: &mut dyn std::io::Write) -> Result<(), CliError> {
    let parsed = ParsedArgs::parse(tokens)?;
    if parsed.has_switch("help") {
        writeln!(out, "{USAGE}")?;
        return Ok(());
    }
    match parsed.command() {
        Some("cluster") => commands::cluster(&parsed, out),
        Some("compare") => commands::compare(&parsed, out),
        Some("generate") => commands::generate(&parsed, out),
        Some("suggest") => commands::suggest(&parsed, out),
        Some("fit") => commands::fit(&parsed, out),
        Some("serve") => commands::serve(&parsed, out),
        Some("serve-http") => commands::serve_http(&parsed, out),
        Some("ingest") => commands::ingest(&parsed, out),
        Some("metrics-report") => commands::metrics_report(&parsed, out),
        Some("monitor-report") => commands::monitor_report(&parsed, out),
        Some(other) => Err(CliError(format!("unknown command {other:?}\n\n{USAGE}"))),
        None => Err(CliError(format!("no command given\n\n{USAGE}"))),
    }
}
