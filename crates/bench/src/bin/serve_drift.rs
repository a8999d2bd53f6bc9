//! Serve-time drift detection — does the quality monitor separate
//! drifted traffic from stationary traffic?
//!
//! Fits DBSVEC on a Gaussian mixture, records the fit-time quality
//! baseline into the model, and then serves two synthetic query streams
//! through engines that own a [`QualityMonitor`] ([`Engine::assign`]):
//!
//! * **stationary** — training points jittered by at most ε/2 per
//!   coordinate, i.e. traffic drawn from the fitted distribution;
//! * **drifted** — the same jitter plus a constant 3·ε offset on every
//!   coordinate, a population shift the model has never seen.
//!
//! Each stream gets a fresh engine, and with it a fresh monitor, so the
//! two runs cannot contaminate each other. The experiment asserts —
//! unconditionally, not just under an env var — that the monitor flags
//! the drifted stream (smoothed score at or above the alert threshold)
//! while leaving the stationary stream unflagged, and writes the
//! separation evidence to `BENCH_serve_drift.json` when `--json DIR`
//! is given.

use dbsvec_bench::harness::{time, BENCH_SCHEMA_VERSION};
use dbsvec_bench::parse_args;
use dbsvec_core::{Dbsvec, DbsvecConfig};
use dbsvec_datasets::{gaussian_mixture, standins::suggest_eps};
use dbsvec_engine::{Engine, EngineConfig, ModelArtifact, MonitorConfig, QualityMonitor};
use dbsvec_geometry::rng::SplitMix64;
use dbsvec_geometry::PointSet;
use dbsvec_obs::Json;

const DIMS: usize = 8;
const CLUSTERS: usize = 5;
const MIN_PTS: usize = 8;
/// Tumbling-window size: small enough that even the quick-mode stream
/// completes several windows, large enough for stable histograms.
const WINDOW: usize = 256;
/// Per-coordinate displacement of the drifted stream, in units of ε.
/// Three ε per coordinate over 8 dimensions moves every query ~8.5 ε
/// away from its source point — far outside any core's reach.
const DRIFT_EPS_PER_DIM: f64 = 3.0;

/// What serving one stream through a monitored engine concluded.
struct StreamOutcome {
    name: &'static str,
    queries: usize,
    secs: f64,
    windows: u64,
    alerts: u64,
    smoothed_score: f64,
    dominant: &'static str,
    drift_exceeded: bool,
}

impl StreamOutcome {
    fn row(&self) -> Json {
        Json::obj([
            ("stream", Json::str(self.name)),
            ("n_queries", Json::UInt(self.queries as u64)),
            ("seconds", Json::Num(self.secs)),
            ("windows", Json::UInt(self.windows)),
            ("alerts", Json::UInt(self.alerts)),
            ("smoothed_score", Json::Num(self.smoothed_score)),
            ("dominant_signal", Json::str(self.dominant)),
            ("drift_exceeded", Json::Bool(self.drift_exceeded)),
        ])
    }
}

/// Builds a query stream from the training points: jitter of at most
/// ε/2 per coordinate, plus `offset` ε on every coordinate.
fn make_stream(points: &PointSet, n_queries: usize, eps: f64, offset: f64, seed: u64) -> PointSet {
    let mut rng = SplitMix64::new(seed);
    let mut out = PointSet::new(DIMS);
    let mut buf = vec![0.0; DIMS];
    let n = points.len();
    for i in 0..n_queries {
        let p = points.point((i % n) as u32);
        for (d, v) in buf.iter_mut().enumerate() {
            *v = p[d] + (rng.next_f64() - 0.5) * eps + offset * eps;
        }
        out.push(&buf);
    }
    out
}

/// Serves `queries` through a fresh monitored engine and summarizes
/// what the monitor saw.
fn serve_stream(
    name: &'static str,
    artifact: &ModelArtifact,
    queries: &PointSet,
    threshold: f64,
) -> StreamOutcome {
    let config = EngineConfig::new().with_monitor(
        MonitorConfig::new()
            .with_window(WINDOW)
            .with_drift_threshold(threshold),
    );
    let mut engine = Engine::with_config(artifact, config);
    let (_, secs) = time(|| {
        for i in 0..queries.len() {
            engine.assign(queries.point(i as u32));
        }
    });
    let monitor: &QualityMonitor = engine.monitor().expect("the engine was built with one");
    assert!(
        monitor.has_baseline(),
        "the artifact must carry a quality baseline for this experiment"
    );
    let signals = monitor
        .signals()
        .expect("at least one window must complete");
    let stats = engine.stats();
    StreamOutcome {
        name,
        queries: queries.len(),
        secs,
        windows: stats.quality_windows,
        alerts: stats.drift_alerts,
        smoothed_score: signals.smoothed_score,
        dominant: signals.dominant(),
        drift_exceeded: monitor.drift_exceeded(),
    }
}

fn main() {
    let args = parse_args();
    let n = ((50_000f64 * args.scale) as usize).max(2_000);
    let n_queries = n.max(4 * WINDOW);
    let threshold = 0.35;

    // ---- Fit once; the quality baseline rides in the artifact.
    let data = gaussian_mixture(n, DIMS, CLUSTERS, 400.0, 1e5, args.seed);
    let eps = suggest_eps(&data.points, MIN_PTS, args.seed);
    let (fit, fit_secs) = time(|| Dbsvec::new(DbsvecConfig::new(eps, MIN_PTS)).fit(&data.points));
    let artifact = ModelArtifact::from_fit(
        &data.points,
        fit.labels(),
        fit.core_points(),
        eps,
        MIN_PTS as u32,
    )
    .expect("fit produces a valid artifact")
    .with_quality(&data.points, fit.labels());
    println!(
        "fit: n={n}, d={DIMS}, eps={eps:.1} -> {} cores, {} clusters in {fit_secs:.3}s",
        artifact.cores.len(),
        artifact.num_clusters
    );
    println!("monitor: window {WINDOW}, drift threshold {threshold}, {n_queries} queries/stream");

    // ---- Two streams over the same model: in-distribution vs shifted.
    let stationary_queries = make_stream(&data.points, n_queries, eps, 0.0, args.seed ^ 0xd41f7);
    let drifted_queries = make_stream(
        &data.points,
        n_queries,
        eps,
        DRIFT_EPS_PER_DIM,
        args.seed ^ 0xd41f7,
    );
    let stationary = serve_stream("stationary", &artifact, &stationary_queries, threshold);
    let drifted = serve_stream("drifted", &artifact, &drifted_queries, threshold);

    println!(
        "{:>12} {:>8} {:>8} {:>8} {:>10} {:>16} {:>8}",
        "stream", "windows", "alerts", "score", "dominant", "drift_exceeded", "pts/s"
    );
    for s in [&stationary, &drifted] {
        println!(
            "{:>12} {:>8} {:>8} {:>8.3} {:>10} {:>16} {:>8.0}",
            s.name,
            s.windows,
            s.alerts,
            s.smoothed_score,
            s.dominant,
            s.drift_exceeded,
            s.queries as f64 / s.secs.max(1e-9)
        );
    }

    // ---- The claim this experiment exists to prove, asserted on every
    // run (not just under MICROBENCH_ENFORCE): the monitor must flag
    // the shifted population and stay quiet on the stationary one.
    assert!(
        drifted.drift_exceeded && drifted.smoothed_score >= threshold,
        "drifted stream must trip the monitor (smoothed {:.3} vs threshold {threshold})",
        drifted.smoothed_score
    );
    assert!(
        !stationary.drift_exceeded && stationary.smoothed_score < threshold,
        "stationary stream must stay below the threshold (smoothed {:.3} vs {threshold})",
        stationary.smoothed_score
    );
    assert!(
        drifted.smoothed_score > stationary.smoothed_score,
        "separation must be strictly ordered"
    );
    let separation = drifted.smoothed_score - stationary.smoothed_score;
    println!(
        "separation: drifted {:.3} - stationary {:.3} = {separation:.3} (threshold {threshold})",
        drifted.smoothed_score, stationary.smoothed_score
    );

    if let Some(dir) = &args.json_dir {
        let report = Json::obj([
            ("version", Json::UInt(BENCH_SCHEMA_VERSION)),
            ("experiment", Json::str("serve_drift")),
            ("n", Json::UInt(n as u64)),
            ("dims", Json::UInt(DIMS as u64)),
            ("clusters", Json::UInt(CLUSTERS as u64)),
            ("window", Json::UInt(WINDOW as u64)),
            ("drift_threshold", Json::Num(threshold)),
            ("drift_eps_per_dim", Json::Num(DRIFT_EPS_PER_DIM)),
            ("separation", Json::Num(separation)),
            ("runs", Json::Arr(vec![stationary.row(), drifted.row()])),
        ]);
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("cannot create {dir}: {e}");
            return;
        }
        let path = std::path::Path::new(dir).join("BENCH_serve_drift.json");
        match std::fs::write(&path, format!("{report}\n")) {
            Ok(()) => println!("json report written to {}", path.display()),
            Err(e) => eprintln!("cannot write json report to {dir}: {e}"),
        }
    }
}
