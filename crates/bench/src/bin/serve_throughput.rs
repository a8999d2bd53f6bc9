//! Serving throughput — single-point assignment vs scoped-thread batch
//! fan-out over a persisted model.
//!
//! Fits DBSVEC once, persists the model through the binary snapshot
//! format, reloads it into an [`Engine`], and then measures how fast the
//! engine labels a stream of unseen queries: one `assign` call per point
//! versus `assign_many` at increasing thread counts. Every run records
//! per-call latency through [`EngineMetrics`] (the single-point loop times
//! each call itself; `assign_many` times every row), so the report
//! carries p50/p95/p99 alongside throughput. Writes
//! `BENCH_serve_throughput.json` when `--json DIR` is given.
//!
//! The thread sweep is capped at the machine's hardware parallelism —
//! oversubscribed runs measure scheduler noise, not the fan-out — and any
//! run using every hardware thread is marked `saturated` (its timing
//! thread competes with the workers, so treat the number as a floor).
//! `speedup_saturated` carries the mark of the batch row the reported
//! speedup comes from.

use std::time::{Duration, Instant};

use dbsvec_bench::harness::{time, Stopwatch, BENCH_SCHEMA_VERSION};
use dbsvec_bench::parse_args;
use dbsvec_core::{Dbsvec, DbsvecConfig};
use dbsvec_datasets::{gaussian_mixture, standins::suggest_eps};
use dbsvec_engine::{snapshot, Engine, EngineMetrics, ModelArtifact};
use dbsvec_geometry::rng::SplitMix64;
use dbsvec_geometry::PointSet;
use dbsvec_obs::telemetry::HistogramMetric;
use dbsvec_obs::Json;

const DIMS: usize = 8;
const CLUSTERS: usize = 5;
const MIN_PTS: usize = 8;

/// One report row: throughput plus the latency percentiles of the run.
#[allow(clippy::too_many_arguments)]
fn run_row(
    mode: &str,
    threads: usize,
    n_queries: usize,
    secs: f64,
    pps: f64,
    saturated: bool,
    latency: &HistogramMetric,
) -> Json {
    let s = latency.histogram().summary();
    Json::obj([
        ("mode", Json::str(mode)),
        ("threads", Json::UInt(threads as u64)),
        ("n_queries", Json::UInt(n_queries as u64)),
        ("seconds", Json::Num(secs)),
        ("points_per_sec", Json::Num(pps)),
        ("saturated", Json::Bool(saturated)),
        ("latency_p50_s", Json::Num(latency.scaled(s.p50))),
        ("latency_p95_s", Json::Num(latency.scaled(s.p95))),
        ("latency_p99_s", Json::Num(latency.scaled(s.p99))),
    ])
}

fn print_row(
    mode: &str,
    threads: usize,
    n_queries: usize,
    pps: f64,
    saturated: bool,
    latency: &HistogramMetric,
) {
    let s = latency.histogram().summary();
    println!(
        "{mode:>8} {threads:>8} {n_queries:>10} {pps:>12.0} pts/s  \
         p50 {:.1}us p95 {:.1}us p99 {:.1}us{}",
        latency.scaled(s.p50) * 1e6,
        latency.scaled(s.p95) * 1e6,
        latency.scaled(s.p99) * 1e6,
        if saturated { "  (saturated)" } else { "" }
    );
}

/// One removal, timed into `metrics` the way a serving caller times it.
fn remove_timed(engine: &mut Engine, metrics: &mut EngineMetrics, x: &[f64]) {
    let start = Instant::now();
    let out = engine.remove(x);
    metrics.record_remove(start.elapsed(), out);
}

fn main() {
    let args = parse_args();
    let stopwatch = Stopwatch::with_budget(Duration::from_secs_f64(args.budget_secs));
    let n = ((200_000f64 * args.scale) as usize).max(2_000);
    let n_queries = n;

    // ---- Fit once and round-trip the model through the snapshot format.
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
    .expect("fit produces a valid artifact");
    let (bytes, encode_secs) = time(|| snapshot::encode(&artifact));
    let (decoded, decode_secs) = time(|| snapshot::decode(&bytes).expect("own bytes decode"));
    println!(
        "fit: n={n}, d={DIMS}, eps={eps:.1} -> {} cores, {} clusters in {fit_secs:.3}s",
        artifact.cores.len(),
        artifact.num_clusters
    );
    println!(
        "snapshot: {} bytes, encode {:.1}ms, decode {:.1}ms",
        bytes.len(),
        encode_secs * 1e3,
        decode_secs * 1e3
    );

    // ---- Queries the model has not seen: jittered training points.
    let mut rng = SplitMix64::new(args.seed ^ 0x5e12e);
    let mut queries = PointSet::new(DIMS);
    let mut buf = vec![0.0; DIMS];
    for i in 0..n_queries {
        let p = data.points.point((i % n) as u32);
        for (d, v) in buf.iter_mut().enumerate() {
            *v = p[d] + (rng.next_f64() - 0.5) * eps;
        }
        queries.push(&buf);
    }

    let mut engine = Engine::new(&decoded);
    let mut runs: Vec<Json> = Vec::new();
    let hardware = std::thread::available_parallelism().map_or(1, |p| p.get());

    // Single-point path: one assign call per query, each timed.
    let mut single_metrics = EngineMetrics::new();
    let (hits, secs) = {
        let m = &mut single_metrics;
        let e = &mut engine;
        time(|| {
            let mut hits = 0usize;
            for i in 0..queries.len() {
                let start = Instant::now();
                let a = e.assign(queries.point(i as u32));
                m.record_assign(start.elapsed());
                if a.cluster().is_some() {
                    hits += 1;
                }
            }
            hits
        })
    };
    let single_pps = queries.len() as f64 / secs.max(1e-9);
    let saturated = hardware == 1;
    print_row(
        "single",
        1,
        queries.len(),
        single_pps,
        saturated,
        single_metrics.assign_latency(),
    );
    println!("  ({hits} clustered)");
    runs.push(run_row(
        "single",
        1,
        queries.len(),
        secs,
        single_pps,
        saturated,
        single_metrics.assign_latency(),
    ));

    // Batch path at increasing thread counts, capped at the hardware:
    // oversubscription only benchmarks the scheduler.
    let sweep: Vec<usize> = [1usize, 2, 4, 8]
        .into_iter()
        .filter(|&t| t <= hardware)
        .collect();
    let dropped: Vec<usize> = [1usize, 2, 4, 8]
        .into_iter()
        .filter(|&t| t > hardware)
        .collect();
    if !dropped.is_empty() {
        println!("thread sweep capped at {hardware} hardware thread(s); skipping {dropped:?}");
    }
    let rows: Vec<&[f64]> = queries.iter().map(|(_, p)| p).collect();
    let mut best_batch_pps: f64 = 0.0;
    let mut best_batch_saturated = false;
    for &threads in &sweep {
        if stopwatch.exhausted() {
            println!("{threads:>8}  (budget exhausted)");
            break;
        }
        let mut metrics = EngineMetrics::new();
        let (assignments, secs) = {
            let m = &mut metrics;
            let e = &mut engine;
            time(|| e.assign_many(&rows, threads, m))
        };
        let pps = assignments.len() as f64 / secs.max(1e-9);
        let saturated = threads >= hardware;
        if pps > best_batch_pps {
            best_batch_pps = pps;
            best_batch_saturated = saturated;
        }
        print_row(
            "batch",
            threads,
            assignments.len(),
            pps,
            saturated,
            metrics.assign_latency(),
        );
        runs.push(run_row(
            "batch",
            threads,
            assignments.len(),
            secs,
            pps,
            saturated,
            metrics.assign_latency(),
        ));
    }

    // Dynamic-maintenance path: interleaved ingest/remove churn over the
    // served model. Every inserted point is eventually removed, so the
    // row times the full decremental repair (demotions, connectivity
    // splits, compaction) — latency percentiles come from the removal
    // histogram, not the assign one.
    if stopwatch.exhausted() {
        println!(" dynamic  (budget exhausted)");
    } else {
        let n_dyn = (n / 10).clamp(500, 20_000).min(queries.len());
        let mut dyn_metrics = EngineMetrics::new();
        let mut tracked: Vec<Vec<f64>> = Vec::with_capacity(n_dyn);
        let (_, secs) = {
            let m = &mut dyn_metrics;
            let e = &mut engine;
            time(|| {
                for i in 0..n_dyn {
                    tracked.push(queries.point(i as u32).to_vec());
                    e.ingest(tracked.last().unwrap());
                    // Remove a point half a lifetime old: steady churn
                    // rather than build-then-teardown.
                    if i % 2 == 1 {
                        let victim = tracked.swap_remove((i / 2) % tracked.len());
                        remove_timed(e, m, &victim);
                    }
                }
                for p in tracked.drain(..) {
                    remove_timed(e, m, &p);
                }
            })
        };
        let ops = 2 * n_dyn;
        let pps = ops as f64 / secs.max(1e-9);
        print_row(
            "dynamic",
            1,
            ops,
            pps,
            hardware == 1,
            dyn_metrics.remove_latency(),
        );
        runs.push(run_row(
            "serve_dynamic",
            1,
            ops,
            secs,
            pps,
            hardware == 1,
            dyn_metrics.remove_latency(),
        ));
    }

    let speedup = best_batch_pps / single_pps.max(1e-9);
    if hardware == 1 {
        println!(
            "best batch vs single: {speedup:.2}x — every run saturated on 1 hardware thread, \
             so this measures fan-out overhead, not speedup"
        );
    } else {
        println!("best batch vs single: {speedup:.2}x on {hardware} hardware thread(s)");
    }

    if let Some(dir) = &args.json_dir {
        let report = Json::obj([
            ("version", Json::UInt(BENCH_SCHEMA_VERSION)),
            ("experiment", Json::str("serve_throughput")),
            ("n", Json::UInt(n as u64)),
            ("dims", Json::UInt(DIMS as u64)),
            ("cores", Json::UInt(artifact.cores.len() as u64)),
            ("snapshot_bytes", Json::UInt(bytes.len() as u64)),
            ("hardware_threads", Json::UInt(hardware as u64)),
            ("runs", Json::Arr(runs)),
            ("speedup_best_batch_vs_single", Json::Num(speedup)),
            // The `saturated` mark of the best batch row: a saturated
            // row's rate is a floor, so the speedup is one too.
            ("speedup_saturated", Json::Bool(best_batch_saturated)),
        ]);
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("cannot create {dir}: {e}");
            return;
        }
        let path = std::path::Path::new(dir).join("BENCH_serve_throughput.json");
        match std::fs::write(&path, format!("{report}\n")) {
            Ok(()) => println!("json report written to {}", path.display()),
            Err(e) => eprintln!("cannot write json report to {dir}: {e}"),
        }
    }
}
