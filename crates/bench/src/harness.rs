//! Shared experiment plumbing: timing, CLI parsing, table printing, and
//! the `BENCH_*.json` report writer.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use dbsvec_obs::Json;

use crate::runners::RunOutcome;

/// Schema version stamped into every `BENCH_<experiment>.json` report.
///
/// Version 1 is the implicit, unstamped era; bump this whenever a field is
/// renamed, removed, or changes meaning, so report consumers can dispatch
/// instead of sniffing keys.
pub const BENCH_SCHEMA_VERSION: u64 = 2;

/// Wall-clock stopwatch with a per-sweep budget.
///
/// The paper caps every run at 10 hours; these harnesses default to a far
/// smaller per-experiment budget so the full suite finishes on a laptop.
/// Once the budget is spent the caller is expected to print `timeout` rows,
/// mirroring how the paper reports algorithms that exceed the limit.
#[derive(Debug)]
pub struct Stopwatch {
    start: Instant,
    budget: Duration,
}

impl Stopwatch {
    /// Starts a stopwatch with the given budget.
    pub fn with_budget(budget: Duration) -> Self {
        Self {
            start: Instant::now(),
            budget,
        }
    }

    /// Elapsed time so far.
    pub fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }

    /// Whether the budget is spent.
    pub fn exhausted(&self) -> bool {
        self.elapsed() >= self.budget
    }

    /// Remaining budget (zero when exhausted).
    pub fn remaining(&self) -> Duration {
        self.budget.saturating_sub(self.elapsed())
    }
}

/// Times one closure, returning its output and the wall-clock seconds.
pub fn time<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// Common CLI arguments shared by every experiment binary.
#[derive(Clone, Debug)]
pub struct BenchArgs {
    /// Workload scale factor in `(0, 1]` relative to the paper's sizes.
    pub scale: f64,
    /// Per-sweep wall-clock budget in seconds.
    pub budget_secs: f64,
    /// Master RNG seed.
    pub seed: u64,
    /// Directory for the machine-readable `BENCH_<experiment>.json`
    /// report. Defaults to the repository root so every bench run extends
    /// the `BENCH_*` trajectory; `--json DIR` overrides the destination.
    /// `None` (not reachable from the CLI) prints tables only.
    pub json_dir: Option<String>,
    /// Free arguments (subcommands like `cardinality`).
    pub free: Vec<String>,
}

impl Default for BenchArgs {
    fn default() -> Self {
        Self {
            scale: 0.05,
            budget_secs: 120.0,
            seed: 20190401,
            json_dir: Some(default_json_dir()),
            free: Vec::new(),
        }
    }
}

/// The default `BENCH_*.json` destination: the repository root (resolved
/// relative to this crate at compile time), falling back to the current
/// directory when the build tree no longer exists at run time.
fn default_json_dir() -> String {
    let repo_root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    if Path::new(repo_root).is_dir() {
        repo_root.to_string()
    } else {
        ".".to_string()
    }
}

/// Parses `--scale`, `--budget-secs`, `--seed`, and `--json` from `std::env::args`,
/// collecting everything else into [`BenchArgs::free`]. Unknown `--flags`
/// abort with a usage message.
pub fn parse_args() -> BenchArgs {
    parse_arg_list(std::env::args().skip(1))
}

fn parse_arg_list(args: impl Iterator<Item = String>) -> BenchArgs {
    let mut out = BenchArgs::default();
    let mut args = args.peekable();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--scale" => {
                out.scale = next_value(&mut args, "--scale")
                    .parse()
                    .unwrap_or_else(|e| {
                        eprintln!("bad --scale: {e}");
                        std::process::exit(2);
                    });
                assert!(
                    out.scale > 0.0 && out.scale <= 1.0,
                    "--scale must be in (0, 1]"
                );
            }
            "--budget-secs" => {
                out.budget_secs = next_value(&mut args, "--budget-secs")
                    .parse()
                    .unwrap_or_else(|e| {
                        eprintln!("bad --budget-secs: {e}");
                        std::process::exit(2);
                    });
            }
            "--seed" => {
                out.seed = next_value(&mut args, "--seed").parse().unwrap_or_else(|e| {
                    eprintln!("bad --seed: {e}");
                    std::process::exit(2);
                });
            }
            "--json" => {
                out.json_dir = Some(next_value(&mut args, "--json"));
            }
            other if other.starts_with("--") => {
                eprintln!(
                    "unknown flag {other}; supported: --scale F --budget-secs F --seed N --json DIR"
                );
                std::process::exit(2);
            }
            other => out.free.push(other.to_string()),
        }
    }
    out
}

fn next_value<I: Iterator<Item = String>>(args: &mut std::iter::Peekable<I>, name: &str) -> String {
    args.next().unwrap_or_else(|| {
        eprintln!("missing value for {name}");
        std::process::exit(2);
    })
}

/// Prints a fixed-width table row.
pub fn print_row(cells: &[String], widths: &[usize]) {
    let mut line = String::new();
    for (cell, width) in cells.iter().zip(widths) {
        line.push_str(&format!("{cell:>width$}  ", width = width));
    }
    println!("{}", line.trim_end());
}

/// Formats seconds for tables (`-` for skipped, `timeout` for exceeded).
pub fn fmt_secs(value: Option<f64>) -> String {
    match value {
        Some(s) if s.is_finite() => format!("{s:.3}s"),
        Some(_) => "timeout".to_string(),
        None => "-".to_string(),
    }
}

/// Accumulates profiled runs into the machine-readable
/// `BENCH_<experiment>.json` report.
///
/// Each run becomes one row carrying the wall-clock time plus — when the
/// algorithm is instrumented — the per-phase cost trajectory (spans,
/// total, self time) and the replayed event counters (range queries → θ,
/// SVDD trainings, SMO iterations, …). Uninstrumented algorithms still
/// get a timing row, so the JSON mirrors the printed tables exactly.
#[derive(Debug)]
pub struct JsonReport {
    experiment: String,
    runs: Vec<Json>,
}

impl JsonReport {
    /// Starts an empty report for `experiment` (names the output file).
    pub fn new(experiment: &str) -> Self {
        Self {
            experiment: experiment.to_string(),
            runs: Vec::new(),
        }
    }

    /// Number of rows recorded so far.
    pub fn len(&self) -> usize {
        self.runs.len()
    }

    /// Whether no rows were recorded.
    pub fn is_empty(&self) -> bool {
        self.runs.is_empty()
    }

    /// Records one finished run. `group` names the sweep (e.g.
    /// `cardinality`) and `x` is the sweep variable's value (n, d, ε, …).
    pub fn push(&mut self, group: &str, x: f64, outcome: &RunOutcome) {
        let n = outcome.clustering.len();
        let mut row = vec![
            ("group".to_string(), Json::str(group)),
            ("x".to_string(), Json::Num(x)),
            ("algorithm".to_string(), Json::str(outcome.algorithm.name())),
            ("n".to_string(), Json::UInt(n as u64)),
            ("seconds".to_string(), Json::Num(outcome.seconds)),
        ];
        if !outcome.phases.is_empty() {
            let phases = outcome
                .phases
                .iter()
                .map(|(phase, t)| {
                    Json::obj([
                        ("phase", Json::str(phase.name())),
                        ("spans", Json::UInt(t.spans as u64)),
                        ("total_secs", Json::Num(t.total.as_secs_f64())),
                        ("self_secs", Json::Num(t.self_time.as_secs_f64())),
                    ])
                })
                .collect();
            row.push(("phases".to_string(), Json::Arr(phases)));
            let c = &outcome.counts;
            row.push((
                "counts".to_string(),
                Json::obj([
                    ("theta", Json::Num(c.theta(n))),
                    ("range_queries", Json::UInt(c.range_queries)),
                    ("seeds", Json::UInt(c.seeds)),
                    ("expansion_rounds", Json::UInt(c.expansion_rounds)),
                    ("svdd_trainings", Json::UInt(c.svdd_trainings)),
                    ("smo_iterations", Json::UInt(c.smo_iterations)),
                    (
                        "warm_started_trainings",
                        Json::UInt(c.warm_started_trainings),
                    ),
                    ("iterations_exhausted", Json::UInt(c.iterations_exhausted)),
                    (
                        "initial_kkt_violation_e6",
                        Json::UInt(c.initial_kkt_violation_e6),
                    ),
                    ("support_vectors", Json::UInt(c.support_vectors)),
                    ("core_support_vectors", Json::UInt(c.core_support_vectors)),
                    ("max_target_size", Json::UInt(c.max_target_size as u64)),
                    ("merges", Json::UInt(c.merges)),
                    ("noise_candidates", Json::UInt(c.noise_candidates)),
                    ("noise_confirmed", Json::UInt(c.noise_confirmed)),
                    ("sampled_candidates", Json::UInt(c.sampled_candidates)),
                    ("attachment_candidates", Json::UInt(c.attachment_candidates)),
                    ("attached_points", Json::UInt(c.attached_points)),
                ]),
            ));
        }
        self.runs.push(Json::Obj(row));
    }

    /// [`JsonReport::push`] with extra top-level key/value pairs appended
    /// to the row — used by sweeps whose x-axis needs companions (e.g. the
    /// sampled sweep records its draw rate and seed).
    pub fn push_with_extras(
        &mut self,
        group: &str,
        x: f64,
        outcome: &RunOutcome,
        extras: Vec<(String, Json)>,
    ) {
        self.push(group, x, outcome);
        if let Some(Json::Obj(row)) = self.runs.last_mut() {
            row.extend(extras);
        }
    }

    /// Records a run that was skipped or timed out, so gaps in the sweep
    /// stay visible in the JSON.
    pub fn push_skipped(&mut self, group: &str, x: f64, algorithm: &str, reason: &str) {
        self.runs.push(Json::obj([
            ("group", Json::str(group)),
            ("x", Json::Num(x)),
            ("algorithm", Json::str(algorithm)),
            ("skipped", Json::str(reason)),
        ]));
    }

    /// The whole report as one JSON value.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("version", Json::UInt(BENCH_SCHEMA_VERSION)),
            ("experiment", Json::str(&self.experiment)),
            ("runs", Json::Arr(self.runs.clone())),
        ])
    }

    /// Writes `BENCH_<experiment>.json` into `dir`, returning the path.
    pub fn write_to_dir(&self, dir: &Path) -> std::io::Result<PathBuf> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("BENCH_{}.json", self.experiment));
        std::fs::write(&path, format!("{}\n", self.to_json()))?;
        Ok(path)
    }

    /// Writes the report if `--json DIR` was given, printing where it
    /// went; quietly does nothing otherwise.
    pub fn write_if_requested(&self, args: &BenchArgs) {
        if let Some(dir) = &args.json_dir {
            match self.write_to_dir(Path::new(dir)) {
                Ok(path) => println!("json report written to {}", path.display()),
                Err(e) => eprintln!("cannot write json report to {dir}: {e}"),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(tokens: &[&str]) -> BenchArgs {
        parse_arg_list(tokens.iter().map(|s| s.to_string()))
    }

    #[test]
    fn defaults_when_no_args() {
        let args = parse(&[]);
        assert_eq!(args.scale, 0.05);
        assert_eq!(args.seed, 20190401);
        assert!(args.free.is_empty());
        // Reports land in the repo root by default, so every bench run
        // extends the BENCH_* trajectory without remembering --json.
        let dir = args.json_dir.expect("json output is on by default");
        assert!(Path::new(&dir).is_dir(), "{dir} should exist");
    }

    #[test]
    fn parses_flags_and_free_args() {
        let args = parse(&["cardinality", "--scale", "0.5", "--seed", "7"]);
        assert_eq!(args.scale, 0.5);
        assert_eq!(args.seed, 7);
        assert_eq!(args.free, vec!["cardinality"]);
    }

    #[test]
    fn stopwatch_budget() {
        let sw = Stopwatch::with_budget(Duration::from_secs(3600));
        assert!(!sw.exhausted());
        assert!(sw.remaining() > Duration::from_secs(3000));
        let spent = Stopwatch::with_budget(Duration::ZERO);
        assert!(spent.exhausted());
        assert_eq!(spent.remaining(), Duration::ZERO);
    }

    #[test]
    fn time_measures_and_returns() {
        let (value, secs) = time(|| 41 + 1);
        assert_eq!(value, 42);
        assert!(secs >= 0.0);
    }

    #[test]
    fn fmt_secs_variants() {
        assert_eq!(fmt_secs(None), "-");
        assert_eq!(fmt_secs(Some(f64::INFINITY)), "timeout");
        assert_eq!(fmt_secs(Some(1.5)), "1.500s");
    }

    #[test]
    fn parses_json_flag() {
        let args = parse(&["--json", "out"]);
        assert_eq!(args.json_dir.as_deref(), Some("out"));
        // Without the flag the default destination (repo root) remains.
        assert!(parse(&[]).json_dir.is_some());
    }

    #[test]
    fn json_report_carries_phase_trajectory_and_parses() {
        use crate::runners::{run_algorithm_profiled, Algorithm};
        use dbsvec_geometry::PointSet;

        let mut ps = PointSet::new(2);
        for c in [[0.0, 0.0], [50.0, 0.0]] {
            for i in 0..40 {
                ps.push(&[c[0] + (i % 8) as f64 * 0.3, c[1] + (i / 8) as f64 * 0.3]);
            }
        }
        let mut report = JsonReport::new("test");
        assert!(report.is_empty());
        let out = run_algorithm_profiled(Algorithm::Dbsvec, &ps, 1.5, 4, 7);
        report.push("cardinality", ps.len() as f64, &out);
        report.push_skipped("cardinality", ps.len() as f64, "R-DBSCAN", "timeout");
        assert_eq!(report.len(), 2);

        let text = report.to_json().to_string();
        let parsed = dbsvec_obs::json::parse(&text).expect("report is valid JSON");
        // The hand-rolled parser reads small non-negative integers as Int.
        assert_eq!(
            parsed.get("version"),
            Some(&Json::Int(BENCH_SCHEMA_VERSION as i64)),
            "every report must carry the schema version"
        );
        assert_eq!(parsed.get("experiment"), Some(&Json::str("test")));
        let runs = match parsed.get("runs") {
            Some(Json::Arr(rows)) => rows,
            other => panic!("runs should be an array, got {other:?}"),
        };
        assert_eq!(runs.len(), 2);
        let first = &runs[0];
        assert_eq!(first.get("algorithm"), Some(&Json::str("DBSVEC")));
        let phases = match first.get("phases") {
            Some(Json::Arr(rows)) => rows,
            other => panic!("phases should be an array, got {other:?}"),
        };
        assert!(!phases.is_empty());
        assert!(phases
            .iter()
            .any(|p| p.get("phase") == Some(&Json::str("svdd_train"))));
        let counts = first.get("counts").expect("profiled run has counts");
        assert!(matches!(counts.get("range_queries"), Some(Json::Int(n)) if *n > 0));
        assert!(matches!(counts.get("theta"), Some(Json::Num(t)) if *t > 0.0));
        assert_eq!(runs[1].get("skipped"), Some(&Json::str("timeout")));
    }
}
