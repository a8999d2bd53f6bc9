//! Microbenchmark: end-to-end clustering, DBSVEC vs every baseline.
//!
//! The microbench counterpart of the Fig. 6 harness at a fixed workload —
//! useful for catching performance regressions. Expected ordering on the
//! 8-d random-walk workload: DBSVEC fastest among the density-based
//! methods, exact DBSCAN next, DBSCAN-LSH last.
//!
//! Also checks the observability overhead claims: `fit` vs
//! `fit_observed(&mut NoopObserver)`, `assign_many` vs
//! `assign_many_observed(.., &mut NoopObserver)`, and an engine without a
//! quality monitor vs one with it must be within noise (±2%) — disabled
//! instrumentation is supposed to inline away, and monitoring is meant to
//! be always-on-able. The envelope is printed on every run and
//! enforced as a hard assert under `MICROBENCH_ENFORCE=1` (quick-mode
//! sampling is too noisy for CI to assert unconditionally).

use dbsvec_baselines::{Dbscan, DbscanLsh, KMeans, NqDbscan, RhoApproxDbscan};
use dbsvec_bench::micro::{black_box, Runner};
use dbsvec_core::{Dbsvec, DbsvecConfig};
use dbsvec_datasets::{random_walk_clusters, RandomWalkConfig};
use dbsvec_engine::{Engine, EngineConfig, EngineMetrics, ModelArtifact, MonitorConfig};
use dbsvec_geometry::rng::SplitMix64;
use dbsvec_index::KdTree;
use dbsvec_obs::NoopObserver;

fn main() {
    let runner = Runner::from_env("clustering");
    bench_end_to_end(&runner);
    bench_noop_observer_overhead(&runner);
    bench_serve_telemetry_overhead(&runner);
    bench_monitor_overhead(&runner);
    bench_ablations(&runner);
}

/// Prints the overhead of `candidate` relative to `baseline` and, under
/// `MICROBENCH_ENFORCE=1`, asserts it stays inside `±pct`.
fn check_envelope(label: &str, baseline_secs: f64, candidate_secs: f64, pct: f64) {
    let delta = (candidate_secs / baseline_secs - 1.0) * 100.0;
    println!("  {label}: {delta:+.2}% (target: within +/-{pct}%)");
    if std::env::var_os("MICROBENCH_ENFORCE").is_some_and(|v| v == "1") {
        assert!(
            delta.abs() <= pct,
            "{label}: {delta:+.2}% exceeds the +/-{pct}% envelope"
        );
    }
}

fn bench_end_to_end(runner: &Runner) {
    let n = runner.size(20_000, 2_000);
    println!("clustering_{}k_8d", n / 1000);
    let ds = random_walk_clusters(&RandomWalkConfig::paper_default(n, 8), 42);
    let points = &ds.points;
    let (eps, min_pts) = (5000.0, 100);

    runner.bench("dbsvec", || {
        Dbsvec::new(DbsvecConfig::new(eps, min_pts))
            .fit(black_box(points))
            .num_clusters()
    });
    runner.bench("dbsvec_min", || {
        Dbsvec::new(DbsvecConfig::new(eps, min_pts).minimal_nu())
            .fit(black_box(points))
            .num_clusters()
    });
    runner.bench("r_dbscan", || {
        Dbscan::new(eps, min_pts)
            .fit(black_box(points))
            .clustering
            .num_clusters()
    });
    runner.bench("kd_dbscan", || {
        let index = KdTree::build(points);
        Dbscan::new(eps, min_pts)
            .fit_with_index(black_box(points), &index)
            .clustering
            .num_clusters()
    });
    runner.bench("rho_approx", || {
        RhoApproxDbscan::new(eps, min_pts, 0.001)
            .fit(black_box(points))
            .clustering
            .num_clusters()
    });
    runner.bench("nq_dbscan", || {
        NqDbscan::new(eps, min_pts)
            .fit(black_box(points))
            .clustering
            .num_clusters()
    });
    runner.bench("dbscan_lsh", || {
        DbscanLsh::new(eps, min_pts, 42)
            .fit(black_box(points))
            .clustering
            .num_clusters()
    });
    runner.bench("kmeans", || {
        KMeans::new(10, 42)
            .fit(black_box(points))
            .clustering
            .num_clusters()
    });
}

/// The acceptance check for the observer seam: the NoopObserver path must
/// cost the same as the plain path (empty callbacks inline to nothing).
fn bench_noop_observer_overhead(runner: &Runner) {
    let n = runner.size(20_000, 2_000);
    println!("noop_observer_overhead_{}k_8d", n / 1000);
    let ds = random_walk_clusters(&RandomWalkConfig::paper_default(n, 8), 42);
    let points = &ds.points;
    let (eps, min_pts) = (5000.0, 100);

    let (plain, observed) = runner.bench_pair(
        "dbsvec_fit",
        "dbsvec_fit_observed_noop",
        || {
            Dbsvec::new(DbsvecConfig::new(eps, min_pts))
                .fit(black_box(points))
                .num_clusters()
        },
        || {
            Dbsvec::new(DbsvecConfig::new(eps, min_pts))
                .fit_observed(black_box(points), &mut NoopObserver)
                .num_clusters()
        },
    );
    check_envelope("noop observer overhead", plain, observed, 2.0);
}

/// The serving counterpart: the batch assignment path with a noop
/// observer must cost the same as the unobserved one — the observer
/// seam's noop events have to inline away.
fn bench_serve_telemetry_overhead(runner: &Runner) {
    let n = runner.size(20_000, 2_000);
    println!("serve_telemetry_overhead_{}k_8d", n / 1000);
    let ds = random_walk_clusters(&RandomWalkConfig::paper_default(n, 8), 42);
    let points = &ds.points;
    let (eps, min_pts) = (5000.0, 100);

    let fit = Dbsvec::new(DbsvecConfig::new(eps, min_pts)).fit(points);
    let artifact =
        ModelArtifact::from_fit(points, fit.labels(), fit.core_points(), eps, min_pts as u32)
            .expect("fit produces a valid artifact");
    let engine = std::cell::RefCell::new(Engine::new(&artifact));
    let metrics = std::cell::RefCell::new(EngineMetrics::new());
    let rows: Vec<&[f64]> = points.iter().map(|(_, p)| p).collect();

    let (plain, observed) = runner.bench_pair(
        "engine_assign_many",
        "engine_assign_many_noop_observed",
        || {
            engine
                .borrow_mut()
                .assign_many(black_box(&rows), 1, &mut metrics.borrow_mut())
                .len()
        },
        || {
            engine
                .borrow_mut()
                .assign_many_observed(
                    black_box(&rows),
                    1,
                    &mut metrics.borrow_mut(),
                    &mut NoopObserver,
                )
                .len()
        },
    );
    check_envelope("disabled-telemetry serve overhead", plain, observed, 2.0);
}

/// The quality-monitor counterpart of the telemetry check: an engine that
/// folds every assignment into its quality monitor (histogram bump,
/// occupancy counter, amortized per-window drift math) must stay inside
/// the same ±2% envelope as an engine without one — monitoring is meant
/// to be always-on-able in serving. The ingest seam is checked on real
/// mixed traffic (promotions, borders, buffered points): each sample
/// rebuilds the engine from the artifact so every run ingests the
/// identical stream into identical state, and the rebuild cost lands on
/// both sides of the comparison equally.
fn bench_monitor_overhead(runner: &Runner) {
    let n = runner.size(20_000, 2_000);
    println!("monitor_overhead_{}k_8d", n / 1000);
    let ds = random_walk_clusters(&RandomWalkConfig::paper_default(n, 8), 42);
    let points = &ds.points;
    let (eps, min_pts) = (5000.0, 100);

    let fit = Dbsvec::new(DbsvecConfig::new(eps, min_pts)).fit(points);
    let artifact =
        ModelArtifact::from_fit(points, fit.labels(), fit.core_points(), eps, min_pts as u32)
            .expect("fit produces a valid artifact")
            .with_quality(points, fit.labels());
    let monitored_config = EngineConfig::new().with_monitor(MonitorConfig::new());
    let assign_loop = |engine: &std::cell::RefCell<Engine>| {
        let mut e = engine.borrow_mut();
        let queries = black_box(points);
        (0..queries.len())
            .filter(|&i| e.assign(queries.point(i as u32)).cluster().is_some())
            .count()
    };
    let plain_engine = std::cell::RefCell::new(Engine::new(&artifact));
    let monitored_engine =
        std::cell::RefCell::new(Engine::with_config(&artifact, monitored_config));

    let (plain, monitored) = runner.bench_pair(
        "engine_assign_loop",
        "engine_assign_monitored_loop",
        || assign_loop(&plain_engine),
        || assign_loop(&monitored_engine),
    );
    check_envelope("monitored assign overhead", plain, monitored, 2.0);

    // Fresh arrivals: sub-eps jitter keeps the stream near the fitted
    // density so ingests exercise the full promote/border/buffer mix.
    let mut rng = SplitMix64::new(0x1a9e57);
    let mut stream = dbsvec_geometry::PointSet::new(8);
    let mut buf = [0.0f64; 8];
    for i in 0..points.len() {
        let p = points.point(i as u32);
        for (d, v) in buf.iter_mut().enumerate() {
            *v = p[d] + (rng.next_f64() - 0.5) * eps;
        }
        stream.push(&buf);
    }
    let ingest_stream = |config: EngineConfig| {
        let mut e = Engine::with_config(black_box(&artifact), config);
        (0..stream.len())
            .map(|i| e.ingest(stream.point(i as u32)))
            .count()
    };
    let (plain_ingest, monitored_ingest) = runner.bench_pair(
        "engine_ingest_stream",
        "engine_ingest_monitored_stream",
        || ingest_stream(EngineConfig::new()),
        || ingest_stream(monitored_config),
    );
    check_envelope(
        "monitored ingest overhead",
        plain_ingest,
        monitored_ingest,
        2.0,
    );
}

/// Ablation bench: the design choices DESIGN.md calls out.
fn bench_ablations(runner: &Runner) {
    let n = runner.size(10_000, 2_000);
    println!("dbsvec_ablations_{}k_8d", n / 1000);
    let ds = random_walk_clusters(&RandomWalkConfig::paper_default(n, 8), 7);
    let points = &ds.points;
    let (eps, min_pts) = (5000.0, 100);

    runner.bench("full", || {
        Dbsvec::new(DbsvecConfig::new(eps, min_pts))
            .fit(black_box(points))
            .num_clusters()
    });
    runner.bench("no_weights", || {
        Dbsvec::new(DbsvecConfig::new(eps, min_pts).without_weights())
            .fit(black_box(points))
            .num_clusters()
    });
    runner.bench("no_incremental", || {
        Dbsvec::new(DbsvecConfig::new(eps, min_pts).without_incremental_learning())
            .fit(black_box(points))
            .num_clusters()
    });
    runner.bench("random_kernel", || {
        Dbsvec::new(DbsvecConfig::new(eps, min_pts).with_random_kernel_width(3))
            .fit(black_box(points))
            .num_clusters()
    });
    // Ablation of *our* substitution: literal Eq. 5 weights (O(ñ²)) vs the
    // default O(ñ) centroid proxy.
    runner.bench("exact_kernel_weights", || {
        Dbsvec::new(DbsvecConfig::new(eps, min_pts).with_exact_kernel_weights())
            .fit(black_box(points))
            .num_clusters()
    });
}
