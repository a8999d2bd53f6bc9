//! Fig. 6 — scalability of every algorithm.
//!
//! Subcommands (pass as a free argument; default runs all three):
//!
//! * `cardinality` — runtime vs n on 8-d synthetic data (paper Fig. 6a:
//!   100k…10M; scaled by `--scale`),
//! * `dimensionality` — runtime vs d at fixed n (paper §V-C.2: d = 2…24,
//!   n = 2M scaled; ρ-approximate deteriorates rapidly, as in the paper),
//! * `realworld` — runtime on the PAMAP2 / Sensors / Corel-Image stand-ins
//!   (paper Fig. 6b),
//! * `smo` — DBSVEC alone, warm-started solver (the default) against
//!   `cold_start()` on the Fig. 6a workloads; labels are asserted
//!   identical and total SMO iterations strictly fewer, with the results
//!   in `BENCH_fit_smo.json`.
//! * `sampled` — sampled core discovery (DBSCAN++-style uniform candidate
//!   draw) swept up to n = 10⁶, with exact fits at the overlap sizes for
//!   an `ari_vs_exact` quality gate and a fitted log-log scaling slope
//!   over the top decade, in `BENCH_fit_sampled.json`. Under
//!   `MICROBENCH_ENFORCE=1` the sweep asserts slope ≤ 1.15 and
//!   ARI ≥ 0.95 at every overlap size.
//!
//! Algorithms that exceed the per-run share of `--budget-secs` are skipped
//! at larger workloads and printed as `timeout`, mirroring the paper's
//! 10-hour rule.

use std::collections::HashSet;
use std::time::Duration;

use dbsvec_bench::harness::{fmt_secs, Stopwatch};
use dbsvec_bench::{
    parse_args, run_algorithm_profiled, run_dbsvec_config_profiled, Algorithm, BenchArgs,
    JsonReport,
};
use dbsvec_core::DbsvecConfig;
use dbsvec_datasets::{random_walk_clusters, OpenDataset, RandomWalkConfig, RandomWalkStream};
use dbsvec_geometry::PointSet;
use dbsvec_metrics::adjusted_rand_index;
use dbsvec_obs::Json;

const EPS: f64 = 5000.0;
const MIN_PTS: usize = 100;

fn main() {
    let args = parse_args();
    let which = args.free.first().map(String::as_str).unwrap_or("all");
    if which == "smo" {
        fit_smo(&args);
        return;
    }
    if which == "sampled" {
        fit_sampled(&args);
        return;
    }
    let mut report = JsonReport::new("fig6_scalability");
    match which {
        "cardinality" => cardinality(&args, &mut report),
        "dimensionality" => dimensionality(&args, &mut report),
        "realworld" => realworld(&args, &mut report),
        "all" => {
            cardinality(&args, &mut report);
            println!();
            dimensionality(&args, &mut report);
            println!();
            realworld(&args, &mut report);
        }
        other => {
            eprintln!(
                "unknown subcommand {other}; use cardinality|dimensionality|realworld|smo|sampled|all"
            );
            std::process::exit(2);
        }
    }
    report.write_if_requested(&args);
}

/// The warm-vs-cold SMO sweep (`smo` subcommand): DBSVEC with the default
/// warm-started solver against [`DbsvecConfig::cold_start`] on
/// the Fig. 6a cardinality workloads. Labels must match exactly at every
/// size, and the warm solver must spend strictly fewer total SMO
/// iterations. Writes `BENCH_fit_smo.json`.
fn fit_smo(args: &BenchArgs) {
    let hardware = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);
    println!(
        "Warm vs cold SMO: DBSVEC solver ablation (d=8, eps={EPS}, MinPts={MIN_PTS}, scale={}, \
         {hardware} hardware threads)",
        args.scale
    );
    let mut sizes: Vec<usize> = [100_000usize, 200_000, 500_000]
        .iter()
        .map(|&n| ((n as f64 * args.scale) as usize).max(2_000))
        .collect();
    sizes.dedup();

    let mut report = JsonReport::new("fit_smo");
    let (mut warm_total, mut cold_total) = (0u64, 0u64);
    let (mut warm_secs, mut cold_secs) = (0.0f64, 0.0f64);
    println!(
        "{:>10} {:>6} {:>12} {:>11} {:>10} {:>10}",
        "n", "mode", "smo_iters", "total", "warm_fits", "exhausted"
    );
    for &n in &sizes {
        let ds = random_walk_clusters(&RandomWalkConfig::paper_default(n, 8), args.seed);
        let warm = run_dbsvec_config_profiled(&ds.points, DbsvecConfig::new(EPS, MIN_PTS));
        let cold =
            run_dbsvec_config_profiled(&ds.points, DbsvecConfig::new(EPS, MIN_PTS).cold_start());
        assert_eq!(
            warm.clustering, cold.clustering,
            "n={n}: warm start changed the labels"
        );
        assert_eq!(
            cold.counts.warm_started_trainings, 0,
            "n={n}: cold_start() must never warm-start"
        );
        warm_total += warm.counts.smo_iterations;
        cold_total += cold.counts.smo_iterations;
        warm_secs += warm.seconds;
        cold_secs += cold.seconds;
        for (mode, out) in [("warm", &warm), ("cold", &cold)] {
            println!(
                "{n:>10} {mode:>6} {:>12} {:>11} {:>10} {:>10}",
                out.counts.smo_iterations,
                fmt_secs(Some(out.seconds)),
                out.counts.warm_started_trainings,
                out.counts.iterations_exhausted,
            );
            let mut extras = vec![
                ("mode".to_string(), Json::str(mode)),
                ("hardware_threads".to_string(), Json::UInt(hardware as u64)),
            ];
            if hardware == 1 {
                extras.push((
                    "note".to_string(),
                    Json::str(
                        "single hardware thread: iteration counts are the load-bearing \
                         comparison; wall-clock moves with them but carries scheduler noise",
                    ),
                ));
            }
            report.push_with_extras("fit_smo", n as f64, out, extras);
        }
    }
    assert!(
        warm_total < cold_total,
        "warm-start must save SMO iterations: warm={warm_total} cold={cold_total}"
    );
    let saved = 100.0 * (cold_total - warm_total) as f64 / cold_total as f64;
    println!(
        "total SMO iterations: warm={warm_total} cold={cold_total} ({saved:.1}% saved); \
         wall-clock warm={} cold={}",
        fmt_secs(Some(warm_secs)),
        fmt_secs(Some(cold_secs)),
    );
    report.write_if_requested(args);
}

/// Uniform candidate rate for the sampled sweep. DBSCAN++'s regime: a
/// 12.5% draw keeps ≈ 78 candidates in every ε-ball of the default
/// workload (occupancy ≈ 625), far above what core recovery needs, while
/// cutting seeding and the θ sweep by 8×.
const SAMPLE_RATE: f64 = 0.125;

/// Largest size at which the sweep also runs the exact fit for the
/// ARI-vs-exact gate; beyond it the exact fit is the cost wall the
/// sampled mode exists to avoid.
const EXACT_OVERLAP_CAP: usize = 100_000;

/// Least-squares slope of ln(seconds) against ln(n).
fn log_log_slope(rows: &[(usize, f64)]) -> f64 {
    let k = rows.len() as f64;
    let xs: Vec<f64> = rows.iter().map(|(n, _)| (*n as f64).ln()).collect();
    let ys: Vec<f64> = rows.iter().map(|(_, s)| s.max(1e-9).ln()).collect();
    let mx = xs.iter().sum::<f64>() / k;
    let my = ys.iter().sum::<f64>() / k;
    let cov: f64 = xs.iter().zip(&ys).map(|(x, y)| (x - mx) * (y - my)).sum();
    let var: f64 = xs.iter().map(|x| (x - mx) * (x - mx)).sum();
    if var > 0.0 {
        cov / var
    } else {
        0.0
    }
}

/// The sampled-core-discovery sweep (`sampled` subcommand): DBSVEC with a
/// uniform candidate draw on the Fig. 6a workload shape, swept up to
/// n = 10⁶ (scaled). Exact fits run alongside at the overlap sizes
/// (n ≤ 10⁵) to score `ari_vs_exact`; the top decade of sampled runs is
/// fitted for a log-log scaling slope. Writes `BENCH_fit_sampled.json`;
/// `MICROBENCH_ENFORCE=1` turns the quality gate into assertions.
fn fit_sampled(args: &BenchArgs) {
    let enforce = std::env::var_os("MICROBENCH_ENFORCE").is_some_and(|v| v == "1");
    let hardware = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);
    println!(
        "Sampled core discovery: DBSVEC with a uniform {SAMPLE_RATE} candidate draw \
         (d=8, eps={EPS}, MinPts={MIN_PTS}, scale={}, seed={}, {hardware} hardware threads)",
        args.scale, args.seed
    );
    let mut sizes: Vec<usize> = [10_000usize, 31_623, 100_000, 316_228, 1_000_000]
        .iter()
        .map(|&n| ((n as f64 * args.scale) as usize).max(2_000))
        .collect();
    sizes.dedup();

    let mut report = JsonReport::new("fit_sampled");
    let mut sampled_rows: Vec<(usize, f64)> = Vec::new();
    let mut aris: Vec<(usize, f64)> = Vec::new();
    let max_n = *sizes.last().expect("at least one size");
    println!(
        "{:>10} {:>11} {:>12} {:>10} {:>11} {:>8}",
        "n", "sampled", "candidates", "attached", "exact", "ari"
    );
    for &n in &sizes {
        // Stream the workload straight into a PointSet: O(walkers · d)
        // generator state, no side truth vector.
        let points = RandomWalkStream::new(&RandomWalkConfig::paper_default(n, 8), args.seed)
            .collect_points();
        let sampled = run_dbsvec_config_profiled(
            &points,
            DbsvecConfig::new(EPS, MIN_PTS).with_uniform_sampling(SAMPLE_RATE, args.seed),
        );
        sampled_rows.push((n, sampled.seconds));

        let mut extras = vec![
            ("mode".to_string(), Json::str("sampled")),
            ("sample_rate".to_string(), Json::Num(SAMPLE_RATE)),
            ("sample_seed".to_string(), Json::UInt(args.seed)),
            ("hardware_threads".to_string(), Json::UInt(hardware as u64)),
        ];
        let exact = if n <= EXACT_OVERLAP_CAP {
            let exact = run_dbsvec_config_profiled(&points, DbsvecConfig::new(EPS, MIN_PTS));
            let ari = adjusted_rand_index(
                exact.clustering.assignments(),
                sampled.clustering.assignments(),
            );
            aris.push((n, ari));
            extras.push(("ari_vs_exact".to_string(), Json::Num(ari)));
            report.push_with_extras(
                "fit_sampled",
                n as f64,
                &exact,
                vec![
                    ("mode".to_string(), Json::str("exact")),
                    ("hardware_threads".to_string(), Json::UInt(hardware as u64)),
                ],
            );
            Some((exact.seconds, ari))
        } else {
            None
        };
        if n == max_n {
            // The acceptance gate: fitted slope over the top decade of
            // sampled runs (all sizes within 10x of the largest).
            let decade: Vec<(usize, f64)> = sampled_rows
                .iter()
                .copied()
                .filter(|(m, _)| m.saturating_mul(10) >= max_n)
                .collect();
            let slope = log_log_slope(if decade.len() >= 2 {
                &decade
            } else {
                &sampled_rows
            });
            extras.push(("scaling_slope".to_string(), Json::Num(slope)));
            extras.push(("slope_points".to_string(), Json::UInt(decade.len() as u64)));
        }
        report.push_with_extras("fit_sampled", n as f64, &sampled, extras);
        println!(
            "{n:>10} {:>11} {:>12} {:>10} {:>11} {:>8}",
            fmt_secs(Some(sampled.seconds)),
            sampled.counts.sampled_candidates,
            sampled.counts.attached_points,
            fmt_secs(exact.map(|(s, _)| s)),
            exact.map_or("-".to_string(), |(_, a)| format!("{a:.4}")),
        );
    }

    let decade: Vec<(usize, f64)> = sampled_rows
        .iter()
        .copied()
        .filter(|(m, _)| m.saturating_mul(10) >= max_n)
        .collect();
    let slope = log_log_slope(if decade.len() >= 2 {
        &decade
    } else {
        &sampled_rows
    });
    let min_ari = aris.iter().map(|(_, a)| *a).fold(f64::INFINITY, f64::min);
    println!(
        "scaling slope {slope:.3} over the top decade ({} sizes); worst ari_vs_exact {}",
        decade.len().max(sampled_rows.len().min(2)),
        if aris.is_empty() {
            "-".to_string()
        } else {
            format!("{min_ari:.4}")
        },
    );
    report.write_if_requested(args);
    if enforce {
        assert!(
            slope <= 1.15,
            "sampled fit must scale near-linearly: log-log slope {slope:.3} > 1.15"
        );
        for (n, ari) in &aris {
            assert!(
                *ari >= 0.95,
                "sampled fit must track the exact labels: ari_vs_exact {ari:.4} < 0.95 at n={n}"
            );
        }
        println!("MICROBENCH_ENFORCE: slope and ARI gates passed");
    }
    println!("paper shape: sampled DBSVEC stays ~linear past the exact fit's cost wall");
}

/// Runs the full suite over one dataset, skipping algorithms that already
/// blew the per-run cap at a smaller workload.
#[allow(clippy::too_many_arguments)]
fn run_suite(
    points: &PointSet,
    eps: f64,
    min_pts: usize,
    seed: u64,
    timed_out: &mut HashSet<String>,
    per_run_cap: f64,
    report: &mut JsonReport,
    group: &str,
    x: f64,
) -> Vec<(String, Option<f64>)> {
    let mut rows = Vec::new();
    for algo in Algorithm::efficiency_suite(10) {
        let name = algo.name();
        if timed_out.contains(&name) {
            report.push_skipped(group, x, &name, "timeout");
            rows.push((name, Some(f64::INFINITY)));
            continue;
        }
        let out = run_algorithm_profiled(algo, points, eps, min_pts, seed);
        if out.seconds > per_run_cap {
            timed_out.insert(name.clone());
        }
        report.push(group, x, &out);
        rows.push((name, Some(out.seconds)));
    }
    rows
}

fn header(label: &str) {
    print!("{label:>12}");
    for algo in Algorithm::efficiency_suite(10) {
        print!(" {:>11}", algo.name());
    }
    println!();
}

fn cardinality(args: &BenchArgs, report: &mut JsonReport) {
    println!(
        "Fig. 6a: runtime vs cardinality (d=8 synthetic, eps={EPS}, MinPts={MIN_PTS}, scale={})",
        args.scale
    );
    let mut sizes: Vec<usize> = [
        100_000usize,
        200_000,
        500_000,
        1_000_000,
        2_000_000,
        5_000_000,
        10_000_000,
    ]
    .iter()
    .map(|&n| ((n as f64 * args.scale) as usize).max(2_000))
    .collect();
    sizes.dedup();
    let stopwatch = Stopwatch::with_budget(Duration::from_secs_f64(args.budget_secs));
    let per_run_cap = args.budget_secs / 8.0;
    let mut timed_out = HashSet::new();

    header("n");
    for &n in &sizes {
        if stopwatch.exhausted() {
            println!("{n:>12}  (budget exhausted)");
            continue;
        }
        let ds = random_walk_clusters(&RandomWalkConfig::paper_default(n, 8), args.seed);
        let rows = run_suite(
            &ds.points,
            EPS,
            MIN_PTS,
            args.seed,
            &mut timed_out,
            per_run_cap,
            report,
            "cardinality",
            n as f64,
        );
        print!("{n:>12}");
        for (_, secs) in rows {
            print!(" {:>11}", fmt_secs(secs));
        }
        println!();
    }
    println!("paper shape: DBSVEC grows ~linearly and stays fastest; R/kd-DBSCAN blow up first");
}

fn dimensionality(args: &BenchArgs, report: &mut JsonReport) {
    let n = ((2_000_000f64 * args.scale) as usize).max(2_000);
    println!("Fig. 6 (dimensionality): runtime vs d (n={n}, eps={EPS}, MinPts={MIN_PTS})");
    let stopwatch = Stopwatch::with_budget(Duration::from_secs_f64(args.budget_secs));
    let per_run_cap = args.budget_secs / 8.0;
    let mut timed_out = HashSet::new();

    header("d");
    for d in [2usize, 4, 8, 16, 24] {
        if stopwatch.exhausted() {
            println!("{d:>12}  (budget exhausted)");
            continue;
        }
        let ds = random_walk_clusters(&RandomWalkConfig::paper_default(n, d), args.seed);
        let rows = run_suite(
            &ds.points,
            EPS,
            MIN_PTS,
            args.seed,
            &mut timed_out,
            per_run_cap,
            report,
            "dimensionality",
            d as f64,
        );
        print!("{d:>12}");
        for (_, secs) in rows {
            print!(" {:>11}", fmt_secs(secs));
        }
        println!();
    }
    println!("paper shape: rho-Appr deteriorates rapidly with d; DBSVEC grows ~linearly");
}

fn realworld(args: &BenchArgs, report: &mut JsonReport) {
    // The paper's protocol (§V-C): coordinates normalized to [0, 10^5],
    // eps = 5000 and MinPts = 100 by default. MinPts shrinks with the
    // subsampling scale so the density threshold stays proportionate.
    let min_pts = ((MIN_PTS as f64 * args.scale).round() as usize).clamp(10, MIN_PTS);
    println!(
        "Fig. 6b: runtime on real-world dataset stand-ins (scale={}, eps={EPS}, MinPts={min_pts})",
        args.scale
    );
    let stopwatch = Stopwatch::with_budget(Duration::from_secs_f64(args.budget_secs));
    let per_run_cap = args.budget_secs / 8.0;
    let mut timed_out = HashSet::new();

    header("dataset");
    for dataset in OpenDataset::realworld() {
        if stopwatch.exhausted() {
            println!("{:>12}  (budget exhausted)", dataset.name());
            continue;
        }
        let standin = dataset.generate_scaled(args.scale, args.seed);
        let rows = run_suite(
            &standin.dataset.points,
            EPS,
            min_pts,
            args.seed,
            &mut timed_out,
            per_run_cap,
            report,
            "realworld",
            standin.dataset.points.len() as f64,
        );
        print!("{:>12}", standin.name);
        for (_, secs) in rows {
            print!(" {:>11}", fmt_secs(secs));
        }
        println!();
    }
    println!("paper shape: DBSVEC fastest on all three; rho-Appr suffers on high-d Corel-Image");
}
