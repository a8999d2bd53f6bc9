//! The CLI subcommands.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

use dbsvec_baselines::{Dbscan, DbscanLsh, KMeans, NqDbscan, RhoApproxDbscan};
use dbsvec_core::sample::sample_candidates;
use dbsvec_core::{
    Clustering, Dbsvec, DbsvecConfig, SamplingConfig, SamplingMode, DEFAULT_SAMPLING_SEED,
};
use dbsvec_datasets::io::{read_csv, write_csv};
use dbsvec_datasets::plot::write_svg_scatter;
use dbsvec_datasets::standins::{default_min_pts, suggest_eps};
use dbsvec_datasets::{
    chameleon_t48k, chameleon_t710k, random_walk_clusters, spirals, two_moons, Dataset,
    RandomWalkConfig,
};
use dbsvec_engine::{
    snapshot, Assignment, Engine, EngineConfig, EngineMetrics, EngineStats, ModelArtifact,
    MonitorConfig, QualityMonitor, SampledMode, SamplingInfo,
};
use dbsvec_geometry::{PointId, PointSet};
use dbsvec_index::{k_distance_profile, k_distance_profile_for_ids, knee_epsilon, KdTree};
use dbsvec_metrics::{adjusted_rand_index, recall};
use dbsvec_obs::telemetry::{parse_prometheus, render_json, render_prometheus};
use dbsvec_obs::{
    Event, Json, JsonlSink, NoopObserver, Observer, Phase, ProfileReport, RecordingObserver,
    Registry, Tee,
};
use dbsvec_server::{Router, Server, ServerConfig, ShutdownFlag};

use crate::args::ParsedArgs;
use crate::CliError;

/// The JSONL trace sink opened by `--trace out.jsonl`.
type TraceSink = JsonlSink<std::io::BufWriter<std::fs::File>>;

/// Opens the `--trace` sink if the flag is present.
fn open_trace(args: &ParsedArgs) -> Result<Option<TraceSink>, CliError> {
    match args.get("trace") {
        Some(path) => Ok(Some(JsonlSink::new(std::io::BufWriter::new(
            std::fs::File::create(path)
                .map_err(|e| CliError(format!("cannot create trace file {path}: {e}")))?,
        )))),
        None => Ok(None),
    }
}

/// Flushes and closes the `--trace` sink, reporting where it went.
fn finish_trace(
    args: &ParsedArgs,
    sink: Option<TraceSink>,
    out: &mut dyn Write,
) -> Result<(), CliError> {
    if let Some(sink) = sink {
        let path = args.get("trace").expect("sink implies --trace");
        sink.finish()
            .map_err(|e| CliError(format!("writing trace file {path}: {e}")))?;
        writeln!(out, "trace written to {path}")?;
    }
    Ok(())
}

/// Writes a registry dump to `path`: JSON when the extension is `.json`,
/// Prometheus text exposition format otherwise.
fn write_metrics_file(path: &str, reg: &Registry) -> Result<(), CliError> {
    let text = if path.ends_with(".json") {
        format!("{}\n", render_json(reg))
    } else {
        render_prometheus(reg)
    };
    std::fs::write(path, text)
        .map_err(|e| CliError(format!("cannot write metrics file {path}: {e}")))
}

/// Resolves `--metrics-file` / `--metrics-interval` into the dump path and
/// re-dump interval (`0` = only at the end).
fn metrics_options(args: &ParsedArgs) -> Result<(Option<String>, usize), CliError> {
    let path = args.get("metrics-file").map(str::to_string);
    let interval: usize = args.get_or("metrics-interval", 0)?;
    if path.is_none() && interval > 0 {
        return Err(CliError(
            "--metrics-interval requires --metrics-file".to_string(),
        ));
    }
    Ok((path, interval))
}

/// Refreshes `metrics` from the engine (its monitor's drift gauges
/// included) and dumps them to `path`, if one was given.
fn dump_metrics(
    metrics: &mut EngineMetrics,
    path: Option<&str>,
    engine: &Engine,
) -> Result<(), CliError> {
    if let Some(path) = path {
        metrics.refresh(engine);
        write_metrics_file(path, metrics.registry())?;
    }
    Ok(())
}

/// Final dump + note, shared by `serve` and `ingest`.
fn finish_metrics(
    metrics: &mut EngineMetrics,
    path: Option<&str>,
    engine: &Engine,
    out: &mut dyn Write,
) -> Result<(), CliError> {
    dump_metrics(metrics, path, engine)?;
    if let Some(path) = path {
        writeln!(out, "metrics written to {path}")?;
    }
    Ok(())
}

/// Resolves `--refit-threshold` and the `--monitor` flags into an engine
/// configuration.
fn engine_config(args: &ParsedArgs) -> Result<EngineConfig, CliError> {
    let config = EngineConfig {
        monitor: monitor_options(args)?,
        ..EngineConfig::default()
    };
    match args.get_parsed::<f64>("refit-threshold")? {
        None => Ok(config),
        Some(t) if t.is_finite() && t > 0.0 => Ok(config.with_refit_threshold(t)),
        Some(t) => Err(CliError(format!(
            "--refit-threshold must be a positive number, got {t}"
        ))),
    }
}

/// Resolves `--monitor` / `--monitor-window` / `--drift-threshold` into an
/// optional monitor configuration, validating before the panicking
/// builders see the values.
fn monitor_options(args: &ParsedArgs) -> Result<Option<MonitorConfig>, CliError> {
    let window: Option<usize> = args.get_parsed("monitor-window")?;
    let threshold: Option<f64> = args.get_parsed("drift-threshold")?;
    if !args.has_switch("monitor") {
        if window.is_some() || threshold.is_some() {
            return Err(CliError(
                "--monitor-window/--drift-threshold require --monitor".to_string(),
            ));
        }
        return Ok(None);
    }
    let mut config = MonitorConfig::new();
    if let Some(w) = window {
        if w == 0 {
            return Err(CliError("--monitor-window must be positive".to_string()));
        }
        config = config.with_window(w);
    }
    if let Some(t) = threshold {
        if !(t.is_finite() && t > 0.0 && t <= 1.0) {
            return Err(CliError(format!(
                "--drift-threshold must be in (0, 1], got {t}"
            )));
        }
        config = config.with_drift_threshold(t);
    }
    Ok(Some(config))
}

/// Prints the monitor's verdict after a monitored serve/ingest run, with
/// the window and alert counts from the engine's `stats`.
fn print_drift_summary(
    monitor: &QualityMonitor,
    stats: &EngineStats,
    out: &mut dyn Write,
) -> Result<(), CliError> {
    if !monitor.has_baseline() {
        writeln!(
            out,
            "drift: model has no fit-time quality baseline (snapshot predates it); \
             staleness is the only refit signal"
        )?;
    }
    match monitor.signals() {
        Some(s) => writeln!(
            out,
            "drift: {} windows, {} alerts; score {:.3} (smoothed {:.3}), dominant signal {}",
            stats.quality_windows,
            stats.drift_alerts,
            s.score,
            s.smoothed_score,
            s.dominant()
        )?,
        None => writeln!(
            out,
            "drift: {} windows completed, none scored yet \
             (window {} larger than the traffic seen?)",
            stats.quality_windows,
            monitor.config().window
        )?,
    }
    Ok(())
}

/// The refit recommendation line: staleness and (when monitored) drift,
/// each against its own threshold.
fn print_recommendation(engine: &Engine, out: &mut dyn Write) -> Result<(), CliError> {
    let refit_threshold = engine.config().refit_threshold;
    let stale = engine.staleness() >= refit_threshold;
    let drifted = engine.monitor().filter(|m| m.drift_exceeded());
    let why = match (stale, drifted) {
        (false, None) => {
            writeln!(out, "recommendation: model is still fresh")?;
            return Ok(());
        }
        (true, Some(m)) => format!(
            "staleness above {:.0}% and drift above {:.2}",
            refit_threshold * 100.0,
            m.config().drift_threshold
        ),
        (true, None) => format!("staleness above {:.0}%", refit_threshold * 100.0),
        (false, Some(m)) => format!(
            "smoothed drift score at or above {:.2}",
            m.config().drift_threshold
        ),
    };
    writeln!(out, "recommendation: re-fit from scratch ({why})")?;
    Ok(())
}

/// Resolves `--sample-rate` / `--sample-kcenter` / `--sample-seed` into a
/// sampling configuration (`Exact` when neither mode flag is present),
/// validating before the panicking core builders see the values.
fn sampling_options(args: &ParsedArgs) -> Result<SamplingConfig, CliError> {
    let rate: Option<f64> = args.get_parsed("sample-rate")?;
    let m: Option<usize> = args.get_parsed("sample-kcenter")?;
    let seed: u64 = args.get_or("sample-seed", DEFAULT_SAMPLING_SEED)?;
    let mode = match (rate, m) {
        (Some(_), Some(_)) => {
            return Err(CliError(
                "--sample-rate and --sample-kcenter are mutually exclusive".to_string(),
            ))
        }
        (Some(r), None) => {
            if !(r.is_finite() && r > 0.0 && r <= 1.0) {
                return Err(CliError(format!(
                    "--sample-rate must be in (0, 1], got {r}"
                )));
            }
            SamplingMode::Uniform { rate: r }
        }
        (None, Some(m)) => {
            if m == 0 {
                return Err(CliError("--sample-kcenter must be at least 1".to_string()));
            }
            SamplingMode::KCenter { m }
        }
        (None, None) => {
            if args.get("sample-seed").is_some() {
                return Err(CliError(
                    "--sample-seed requires --sample-rate or --sample-kcenter".to_string(),
                ));
            }
            SamplingMode::Exact
        }
    };
    Ok(SamplingConfig { mode, seed })
}

/// Reads `--min-pts`, defaulting to the cardinality-based value for `n`
/// points, and rejects 0 before the panicking core builders see it.
fn min_pts_option(args: &ParsedArgs, n: usize) -> Result<usize, CliError> {
    let min_pts = args.get_or("min-pts", default_min_pts(n))?;
    if min_pts == 0 {
        return Err(CliError("--min-pts must be at least 1".to_string()));
    }
    Ok(min_pts)
}

/// Loads points (labels in the file are ignored) and resolves (ε, MinPts):
/// explicit flags win; otherwise MinPts comes from the cardinality default
/// and ε from the k-distance knee.
fn load_with_params(
    args: &ParsedArgs,
    out: &mut dyn Write,
) -> Result<(PointSet, f64, usize), CliError> {
    load_with_params_sampled(args, &SamplingConfig::default(), out)
}

/// [`load_with_params`] for a (possibly) sampled fit: when ε must be
/// derived and a subsample is drawn, the k-distance sweep profiles the
/// drawn candidates instead of a stride over all n — the fit only seeds
/// from candidates, so the knee should reflect their density landscape
/// (and the profiling cost stays proportional to the subsample). At rate
/// 1.0 the draw collapses to full coverage and the classic sweep runs
/// unchanged, so the derived ε matches the exact fit's exactly.
fn load_with_params_sampled(
    args: &ParsedArgs,
    sampling: &SamplingConfig,
    out: &mut dyn Write,
) -> Result<(PointSet, f64, usize), CliError> {
    let input = args.require("input")?;
    let (points, _) = read_csv(Path::new(input))?;
    if points.is_empty() {
        return Err(CliError(format!("{input}: no points")));
    }
    let min_pts = min_pts_option(args, points.len())?;
    let eps = match args.get_parsed::<f64>("eps")? {
        Some(e) if e.is_finite() && e > 0.0 => e,
        Some(e) => {
            return Err(CliError(format!(
                "--eps must be positive and finite, got {e}"
            )))
        }
        None => {
            let index = KdTree::build(&points);
            let profile = match sample_candidates(&points, sampling) {
                Some(ids) => {
                    let stride = (ids.len() / 500).max(1);
                    let probes: Vec<PointId> = ids.iter().copied().step_by(stride).collect();
                    k_distance_profile_for_ids(&points, &index, min_pts, &probes)
                }
                None => k_distance_profile(&points, &index, min_pts, 500),
            };
            let eps = knee_epsilon(&profile).unwrap_or_else(|| suggest_eps(&points, min_pts, 1));
            let eps = nonzero_knee(eps, min_pts)?;
            writeln!(
                out,
                "derived eps = {eps:.6} from the {min_pts}-distance knee"
            )?;
            eps
        }
    };
    Ok((points, eps, min_pts))
}

/// A derived ε of 0 — the k-distance knee of data made of duplicate
/// points — is no usable ε, so the caller must pass one.
fn nonzero_knee(eps: f64, min_pts: usize) -> Result<f64, CliError> {
    if eps > 0.0 {
        Ok(eps)
    } else {
        Err(CliError(format!(
            "the {min_pts}-distance knee is 0 (too many duplicate points); pass --eps"
        )))
    }
}

fn print_summary(
    out: &mut dyn Write,
    name: &str,
    clustering: &Clustering,
    seconds: f64,
) -> Result<(), CliError> {
    writeln!(
        out,
        "{name}: {} clusters, {} noise of {} points in {seconds:.3}s",
        clustering.num_clusters(),
        clustering.noise_count(),
        clustering.len()
    )?;
    Ok(())
}

/// `dbsvec cluster`.
pub fn cluster(args: &ParsedArgs, out: &mut dyn Write) -> Result<(), CliError> {
    args.reject_unknown(&[
        "input",
        "algorithm",
        "eps",
        "min-pts",
        "output",
        "svg",
        "seed",
        "k",
        "stats",
        "trace",
        "profile",
        "help",
    ])?;
    let (points, eps, min_pts) = load_with_params(args, out)?;
    let seed: u64 = args.get_or("seed", 20190401)?;
    let algorithm = args.get("algorithm").unwrap_or("dbsvec");

    // Observability: --profile records in memory, --trace streams JSONL;
    // both can be active at once (the Tee fans out). Only the algorithms
    // with observed entry points (dbsvec variants, dbscan family,
    // nq-dbscan) report into it.
    let profile = args.has_switch("profile");
    let mut sink = open_trace(args)?;
    let observing = profile || sink.is_some();
    let observable = matches!(
        algorithm,
        "dbsvec" | "dbsvec-min" | "dbscan" | "kd-dbscan" | "nq-dbscan"
    );
    if observing && !observable {
        writeln!(
            out,
            "note: --trace/--profile are not instrumented for {algorithm}; running unobserved"
        )?;
    }
    let mut recorder = RecordingObserver::new();
    let mut noop = NoopObserver;
    let mut tee = Tee(&mut recorder, &mut sink);
    let obs: &mut dyn Observer = if observing { &mut tee } else { &mut noop };

    let start = Instant::now();
    let (clustering, stats_line) = match algorithm {
        "dbsvec" => {
            let result = Dbsvec::new(DbsvecConfig::new(eps, min_pts)).fit_observed(&points, obs);
            let s = *result.stats();
            (
                result.into_labels(),
                Some(format!(
                    "range queries {} (theta {:.3}), SVDD trainings {}, support vectors {}",
                    s.range_queries,
                    s.theta(points.len()),
                    s.svdd_trainings,
                    s.support_vectors
                )),
            )
        }
        "dbsvec-min" => {
            let result = Dbsvec::new(DbsvecConfig::new(eps, min_pts).minimal_nu())
                .fit_observed(&points, obs);
            let s = *result.stats();
            (
                result.into_labels(),
                Some(format!(
                    "range queries {} (theta {:.3})",
                    s.range_queries,
                    s.theta(points.len())
                )),
            )
        }
        "dbscan" => (
            Dbscan::new(eps, min_pts)
                .fit_observed(&points, obs)
                .clustering,
            None,
        ),
        "kd-dbscan" => {
            let index = KdTree::build(&points);
            (
                Dbscan::new(eps, min_pts)
                    .fit_with_index_observed(&points, &index, obs)
                    .clustering,
                None,
            )
        }
        "rho-approx" => (
            RhoApproxDbscan::new(eps, min_pts, 0.001)
                .fit(&points)
                .clustering,
            None,
        ),
        "dbscan-lsh" => (
            DbscanLsh::new(eps, min_pts, seed).fit(&points).clustering,
            None,
        ),
        "nq-dbscan" => (
            NqDbscan::new(eps, min_pts)
                .fit_observed(&points, obs)
                .clustering,
            None,
        ),
        "kmeans" => {
            let k: usize = args.get_or("k", 8)?;
            if k == 0 {
                return Err(CliError("--k must be at least 1".to_string()));
            }
            (KMeans::new(k, seed).fit(&points).clustering, None)
        }
        other => return Err(CliError(format!("unknown algorithm {other:?}"))),
    };
    let seconds = start.elapsed().as_secs_f64();

    writeln!(out, "parameters: eps = {eps:.6}, MinPts = {min_pts}")?;
    print_summary(out, algorithm, &clustering, seconds)?;
    if args.has_switch("stats") {
        if let Some(line) = stats_line {
            writeln!(out, "cost: {line}")?;
        }
    }
    if profile && observable {
        writeln!(out, "\nprofile:")?;
        writeln!(
            out,
            "{}",
            ProfileReport::from_recording(&recorder, points.len())
        )?;
    }
    finish_trace(args, sink, out)?;

    if let Some(output) = args.get("output") {
        write_csv(Path::new(output), &points, Some(clustering.assignments()))?;
        writeln!(out, "labels written to {output}")?;
    }
    if let Some(svg) = args.get("svg") {
        if points.dims() == 2 {
            write_svg_scatter(Path::new(svg), &points, clustering.assignments(), 800)?;
            writeln!(out, "plot written to {svg}")?;
        } else {
            writeln!(out, "skipping --svg: data is {}-dimensional", points.dims())?;
        }
    }
    Ok(())
}

/// `dbsvec compare`.
pub fn compare(args: &ParsedArgs, out: &mut dyn Write) -> Result<(), CliError> {
    args.reject_unknown(&["input", "eps", "min-pts", "seed", "help"])?;
    let (points, eps, min_pts) = load_with_params(args, out)?;

    let t0 = Instant::now();
    let dbscan = Dbscan::new(eps, min_pts).fit(&points);
    let dbscan_secs = t0.elapsed().as_secs_f64();

    let t1 = Instant::now();
    let dbsvec = Dbsvec::new(DbsvecConfig::new(eps, min_pts)).fit(&points);
    let dbsvec_secs = t1.elapsed().as_secs_f64();

    writeln!(out, "parameters: eps = {eps:.6}, MinPts = {min_pts}")?;
    print_summary(out, "DBSCAN", &dbscan.clustering, dbscan_secs)?;
    print_summary(out, "DBSVEC", dbsvec.labels(), dbsvec_secs)?;
    let r = recall(
        dbscan.clustering.assignments(),
        dbsvec.labels().assignments(),
    );
    let ari = adjusted_rand_index(
        dbscan.clustering.assignments(),
        dbsvec.labels().assignments(),
    );
    writeln!(
        out,
        "agreement: recall = {r:.4}, ARI = {ari:.4}; queries {} vs {}; speedup {:.2}x",
        dbsvec.stats().range_queries,
        dbscan.stats.range_queries,
        dbscan_secs / dbsvec_secs.max(1e-9)
    )?;
    Ok(())
}

/// `dbsvec generate`.
pub fn generate(args: &ParsedArgs, out: &mut dyn Write) -> Result<(), CliError> {
    args.reject_unknown(&["dataset", "n", "dims", "seed", "output", "help"])?;
    let name = args.require("dataset")?;
    let output = args.require("output")?.to_string();
    let seed: u64 = args.get_or("seed", 20190401)?;
    let n: usize = args.get_or("n", 8000)?;
    let dims: usize = args.get_or("dims", 2)?;

    let dataset: Dataset = match name {
        "t48k" => chameleon_t48k(seed),
        "t710k" => chameleon_t710k(seed),
        "moons" => two_moons(n, 0.05, seed),
        "spirals" => spirals(n, 3, 1.25, 0.015, seed),
        "walk" => random_walk_clusters(&RandomWalkConfig::paper_default(n, dims), seed),
        other => return Err(CliError(format!("unknown dataset {other:?}"))),
    };
    write_csv(Path::new(&output), &dataset.points, Some(&dataset.truth))?;
    writeln!(
        out,
        "wrote {} points ({}-d, {} ground-truth clusters) to {output}",
        dataset.len(),
        dataset.dims(),
        dataset.truth_clusters()
    )?;
    Ok(())
}

/// `dbsvec suggest`.
pub fn suggest(args: &ParsedArgs, out: &mut dyn Write) -> Result<(), CliError> {
    args.reject_unknown(&["input", "min-pts", "help"])?;
    let input = args.require("input")?;
    let (points, _) = read_csv(Path::new(input))?;
    if points.is_empty() {
        return Err(CliError(format!("{input}: no points")));
    }
    let min_pts = min_pts_option(args, points.len())?;
    let index = KdTree::build(&points);
    let profile = k_distance_profile(&points, &index, min_pts, 500);
    let knee = knee_epsilon(&profile)
        .map(|eps| nonzero_knee(eps, min_pts))
        .transpose()?;
    writeln!(
        out,
        "n = {}, d = {}, MinPts = {min_pts}",
        points.len(),
        points.dims()
    )?;
    match knee {
        Some(eps) => writeln!(out, "suggested eps = {eps:.6} (k-distance knee)")?,
        None => writeln!(out, "profile too short for a knee; try a larger sample")?,
    }
    let fallback = suggest_eps(&points, min_pts, 1);
    writeln!(out, "median-based fallback eps = {fallback:.6}")?;
    Ok(())
}

/// `dbsvec fit`: cluster with DBSVEC and persist the fitted model.
pub fn fit(args: &ParsedArgs, out: &mut dyn Write) -> Result<(), CliError> {
    args.reject_unknown(&[
        "input",
        "eps",
        "min-pts",
        "save",
        "cold-start",
        "boundaries",
        "sample-rate",
        "sample-kcenter",
        "sample-seed",
        "stats",
        "trace",
        "profile",
        "help",
    ])?;
    let sampling = sampling_options(args)?;
    let (points, eps, min_pts) = load_with_params_sampled(args, &sampling, out)?;
    let save = args.require("save")?;
    let cold_start = args.has_switch("cold-start");

    let profile = args.has_switch("profile");
    let mut sink = open_trace(args)?;
    let observing = profile || sink.is_some();
    let mut recorder = RecordingObserver::new();
    let mut noop = NoopObserver;
    let mut tee = Tee(&mut recorder, &mut sink);
    let obs: &mut dyn Observer = if observing { &mut tee } else { &mut noop };

    let start = Instant::now();
    let mut config = DbsvecConfig::new(eps, min_pts);
    config.sampling = sampling;
    if cold_start {
        config = config.cold_start();
    }
    let result = Dbsvec::new(config).fit_observed(&points, obs);
    let seconds = start.elapsed().as_secs_f64();
    let stats = *result.stats();

    let mut artifact = ModelArtifact::from_fit(
        &points,
        result.labels(),
        result.core_points(),
        eps,
        min_pts as u32,
    )
    .map_err(|e| CliError(format!("fit produced an unservable model: {e}")))?;
    if args.has_switch("boundaries") {
        artifact = artifact.with_boundaries(&points, result.labels());
    }
    // Always record the fit-time quality baseline: it is what `serve
    // --monitor` scores live traffic against, and costs one extra range
    // query per training point.
    artifact = artifact.with_quality(&points, result.labels());
    let sampling_info = match sampling.mode {
        SamplingMode::Exact => None,
        SamplingMode::Uniform { rate } => Some(SamplingInfo {
            mode: SampledMode::Uniform { rate },
            seed: sampling.seed,
            candidates: stats.sampled_candidates,
            total: points.len() as u64,
        }),
        SamplingMode::KCenter { m } => Some(SamplingInfo {
            mode: SampledMode::KCenter { m: m as u64 },
            seed: sampling.seed,
            candidates: stats.sampled_candidates,
            total: points.len() as u64,
        }),
    };
    if let Some(info) = sampling_info {
        artifact = artifact.with_sampling(info);
    }
    let bytes = snapshot::write_file(&artifact, Path::new(save))
        .map_err(|e| CliError(format!("cannot write model {save}: {e}")))?;
    obs.event(&Event::SnapshotWrite { bytes });

    writeln!(out, "parameters: eps = {eps:.6}, MinPts = {min_pts}")?;
    print_summary(out, "dbsvec", result.labels(), seconds)?;
    if let Some(info) = sampling_info {
        writeln!(
            out,
            "sampling: {}, attached {} of {} unsampled",
            info.describe(),
            stats.attached_points,
            stats.attachment_candidates
        )?;
    }
    let boundary_note = match &artifact.boundaries {
        Some(b) => format!(", {} SVDD boundaries", b.len()),
        None => String::new(),
    };
    writeln!(
        out,
        "model: {} core points, {} clusters{boundary_note}, quality baseline -> {save} ({bytes} bytes)",
        artifact.cores.len(),
        artifact.num_clusters,
    )?;
    if args.has_switch("stats") {
        writeln!(
            out,
            "cost: range queries {} (theta {:.3}), SVDD trainings {}, support vectors {}",
            stats.range_queries,
            stats.theta(points.len()),
            stats.svdd_trainings,
            stats.support_vectors
        )?;
    }
    if profile {
        writeln!(out, "\nprofile:")?;
        writeln!(
            out,
            "{}",
            ProfileReport::from_recording(&recorder, points.len())
        )?;
    }
    finish_trace(args, sink, out)?;
    Ok(())
}

/// `dbsvec serve`: load a persisted model and assign a batch of points.
pub fn serve(args: &ParsedArgs, out: &mut dyn Write) -> Result<(), CliError> {
    args.reject_unknown(&[
        "model",
        "assign",
        "output",
        "threads",
        "profile",
        "trace",
        "metrics-file",
        "metrics-interval",
        "monitor",
        "monitor-window",
        "drift-threshold",
        "refit-threshold",
        "help",
    ])?;
    let model_path = args.require("model")?;
    let assign_path = args.require("assign")?;
    let threads: usize = args.get_or("threads", 1)?;
    let (metrics_path, metrics_interval) = metrics_options(args)?;
    let config = engine_config(args)?;
    let mut metrics = EngineMetrics::new();

    let profile = args.has_switch("profile");
    let mut sink = open_trace(args)?;
    let observing = profile || sink.is_some();
    let mut recorder = RecordingObserver::new();
    let mut noop = NoopObserver;
    let mut tee = Tee(&mut recorder, &mut sink);
    let obs: &mut dyn Observer = if observing { &mut tee } else { &mut noop };

    let (artifact, bytes) = snapshot::read_file(Path::new(model_path))
        .map_err(|e| CliError(format!("cannot load model {model_path}: {e}")))?;
    obs.event(&Event::SnapshotLoad { bytes });
    metrics.inc_snapshot_load();
    let mut engine = Engine::with_config(&artifact, config);
    writeln!(
        out,
        "model: {}-d, {} core points, {} clusters, eps = {:.6}, MinPts = {} ({bytes} bytes)",
        engine.dims(),
        engine.core_count(),
        engine.num_clusters(),
        engine.eps(),
        engine.min_pts()
    )?;
    if let Some(s) = engine.sampling() {
        writeln!(out, "model sampling: {}", s.describe())?;
    }

    let (queries, _) = read_csv(Path::new(assign_path))?;
    if queries.is_empty() {
        return Err(CliError(format!("{assign_path}: no points")));
    }
    if queries.dims() != engine.dims() {
        return Err(CliError(format!(
            "{assign_path} is {}-dimensional but the model expects {}",
            queries.dims(),
            engine.dims()
        )));
    }

    obs.span_enter(Phase::Serve);
    let start = Instant::now();
    // With `--metrics-interval N` the batch runs in N-query parts and the
    // dump is re-flushed after each, so a scraper watching the file sees
    // progress mid-batch. A monitor folds every answer into its windows
    // in query order, so windows and alerts do not depend on `--threads`.
    let rows: Vec<&[f64]> = queries.iter().map(|(_, p)| p).collect();
    let part_len = if metrics_interval == 0 {
        rows.len()
    } else {
        metrics_interval
    };
    let mut assignments = Vec::with_capacity(rows.len());
    for part in rows.chunks(part_len) {
        assignments.extend(engine.assign_many_observed(part, threads, &mut metrics, obs));
        if metrics_interval > 0 {
            dump_metrics(&mut metrics, metrics_path.as_deref(), &engine)?;
        }
    }
    let seconds = start.elapsed().as_secs_f64();
    obs.span_exit(Phase::Serve);

    let hits = assignments
        .iter()
        .filter(|a| matches!(a, Assignment::Cluster(_)))
        .count();
    writeln!(
        out,
        "assigned {} points in {seconds:.3}s ({:.0} points/s, {threads} threads): {hits} clustered, {} noise",
        queries.len(),
        queries.len() as f64 / seconds.max(1e-9),
        queries.len() - hits
    )?;
    if let Some(mon) = engine.monitor() {
        print_drift_summary(mon, &engine.stats(), out)?;
        print_recommendation(&engine, out)?;
    }

    if let Some(output) = args.get("output") {
        let labels: Vec<Option<u32>> = assignments.iter().map(|a| a.cluster()).collect();
        write_csv(Path::new(output), &queries, Some(&labels))?;
        writeln!(out, "labels written to {output}")?;
    }
    if profile {
        writeln!(out, "\nprofile:")?;
        writeln!(
            out,
            "{}",
            ProfileReport::from_recording(&recorder, queries.len())
        )?;
    }
    finish_metrics(&mut metrics, metrics_path.as_deref(), &engine, out)?;
    finish_trace(args, sink, out)?;
    Ok(())
}

/// `dbsvec serve-http`: expose one or more persisted models over the
/// zero-dependency HTTP/1.1 serving tier until SIGINT/SIGTERM (or
/// `--max-requests` for scripted runs), then drain, persist dirty
/// shards, and dump final metrics.
pub fn serve_http(args: &ParsedArgs, out: &mut dyn Write) -> Result<(), CliError> {
    args.reject_unknown(&[
        "model",
        "addr",
        "shards",
        "threads",
        "max-requests",
        "slow-request-ms",
        "trace-capacity",
        "metrics-file",
        "trace",
        "monitor",
        "monitor-window",
        "drift-threshold",
        "help",
    ])?;
    let models = args.require("model")?;
    let addr = args.get("addr").unwrap_or("127.0.0.1:8080").to_string();
    let shards: usize = args.get_or("shards", 1)?;
    let threads: usize = args.get_or("threads", 1)?;
    let max_requests: Option<u64> = args.get_parsed("max-requests")?;
    let slow_request_ms: Option<u64> = args.get_parsed("slow-request-ms")?;
    let trace_capacity: usize = args.get_or("trace-capacity", 256)?;
    let metrics_path = args.get("metrics-file").map(str::to_string);
    let monitor_config = monitor_options(args)?;

    let paths: Vec<&str> = models
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .collect();
    if paths.is_empty() {
        return Err(CliError("--model needs at least one .dbm path".to_string()));
    }
    if monitor_config.is_some() && (paths.len() > 1 || shards > 1) {
        return Err(CliError(
            "--monitor aggregates drift gauges for exactly one model with --shards 1; \
             drop --monitor or serve a single unsharded model"
                .to_string(),
        ));
    }

    let mut router = Router::new();
    for path in &paths {
        router
            .load_model(Path::new(path), shards, monitor_config)
            .map_err(|e| CliError(format!("cannot load model {path}: {e}")))?;
    }
    for (i, m) in router.models().iter().enumerate() {
        if router.models()[..i].iter().any(|o| o.name() == m.name()) {
            return Err(CliError(format!(
                "duplicate model name {:?} — routing is by file stem, so stems must be unique",
                m.name()
            )));
        }
    }

    let mut sink = open_trace(args)?;
    let observing = sink.is_some();
    let mut recorder = RecordingObserver::new();
    let mut noop = NoopObserver;
    let mut tee = Tee(&mut recorder, &mut sink);
    let obs: &mut dyn Observer = if observing { &mut tee } else { &mut noop };

    let router = std::sync::Arc::new(router);
    let server = Server::bind(
        std::sync::Arc::clone(&router),
        ServerConfig {
            addr: addr.clone(),
            threads,
            max_requests,
            slow_request_ms,
            trace_capacity,
            ..ServerConfig::default()
        },
    )
    .map_err(|e| CliError(format!("cannot bind {addr}: {e}")))?;
    let local = server.local_addr()?;
    for m in router.models() {
        writeln!(out, "model {}: {} shard(s)", m.name(), m.shard_count())?;
    }
    writeln!(
        out,
        "listening on {local} ({threads} thread(s)); endpoints: \
         POST /v1/models/{{name}}/assign, POST /v1/models/{{name}}/ingest, \
         DELETE /v1/models/{{name}}/points, GET /v1/models/{{name}}/health, \
         GET /metrics, GET /healthz, GET /debug/requests"
    )?;
    if let Some(ms) = slow_request_ms {
        writeln!(
            out,
            "slow-request threshold: {ms}ms (offenders logged and retained \
             in the {trace_capacity}-trace flight recorder)"
        )?;
    }
    out.flush()?;

    let shutdown = ShutdownFlag::new();
    shutdown.install_signal_handlers();
    let report = server
        .run_logged(&shutdown, obs, &mut *out)
        .map_err(|e| CliError(format!("serving on {local}: {e}")))?;

    writeln!(
        out,
        "shutdown: {} requests handled ({} errors)",
        report.requests, report.errors
    )?;
    for (path, bytes) in &report.persisted {
        writeln!(
            out,
            "persisted dirty shard -> {} ({bytes} bytes)",
            path.display()
        )?;
    }
    if let Some(path) = metrics_path.as_deref() {
        let metrics = router.aggregate_metrics();
        write_metrics_file(path, metrics.registry())?;
        writeln!(out, "metrics written to {path}")?;
    }
    finish_trace(args, sink, out)?;
    Ok(())
}

/// Parses a `--remove-ids` list (`3,5,10-20`) into sorted, deduplicated
/// row indices below `rows`. Every id and range end is bounds-checked
/// before a range is expanded, so an oversized range is an error, not an
/// allocation.
fn parse_id_list(spec: &str, rows: usize) -> Result<Vec<usize>, CliError> {
    let number = |s: &str| {
        let id = s
            .trim()
            .parse::<usize>()
            .map_err(|_| CliError(format!("--remove-ids: {s:?} is not a row index")))?;
        if id >= rows {
            return Err(CliError(format!(
                "--remove-ids: row {id} out of range (the input has {rows} rows)"
            )));
        }
        Ok(id)
    };
    let mut ids = Vec::new();
    for part in spec.split(',') {
        match part.split_once('-') {
            Some((a, b)) => {
                let (a, b) = (number(a)?, number(b)?);
                if a > b {
                    return Err(CliError(format!("--remove-ids: backwards range {part:?}")));
                }
                ids.extend(a..=b);
            }
            None => ids.push(number(part)?),
        }
    }
    ids.sort_unstable();
    ids.dedup();
    Ok(ids)
}

/// `dbsvec ingest`: stream points into a persisted model and report drift.
pub fn ingest(args: &ParsedArgs, out: &mut dyn Write) -> Result<(), CliError> {
    args.reject_unknown(&[
        "model",
        "input",
        "save",
        "remove-ids",
        "trace",
        "metrics-file",
        "metrics-interval",
        "monitor",
        "monitor-window",
        "drift-threshold",
        "refit-threshold",
        "help",
    ])?;
    let model_path = args.require("model")?;
    let input = args.require("input")?;
    let (metrics_path, metrics_interval) = metrics_options(args)?;
    let config = engine_config(args)?;
    let mut metrics = EngineMetrics::new();

    let mut sink = open_trace(args)?;
    let observing = sink.is_some();
    let mut recorder = RecordingObserver::new();
    let mut noop = NoopObserver;
    let mut tee = Tee(&mut recorder, &mut sink);
    let obs: &mut dyn Observer = if observing { &mut tee } else { &mut noop };

    let (artifact, bytes) = snapshot::read_file(Path::new(model_path))
        .map_err(|e| CliError(format!("cannot load model {model_path}: {e}")))?;
    obs.event(&Event::SnapshotLoad { bytes });
    metrics.inc_snapshot_load();
    let mut engine = Engine::with_config(&artifact, config);

    let (points, _) = read_csv(Path::new(input))?;
    if points.is_empty() {
        return Err(CliError(format!("{input}: no points")));
    }
    if points.dims() != engine.dims() {
        return Err(CliError(format!(
            "{input} is {}-dimensional but the model expects {}",
            points.dims(),
            engine.dims()
        )));
    }
    let mut remove_row = vec![false; points.len()];
    if let Some(spec) = args.get("remove-ids") {
        for id in parse_id_list(spec, points.len())? {
            remove_row[id] = true;
        }
    }

    obs.span_enter(Phase::Serve);
    let start = Instant::now();
    for (i, p) in points.iter() {
        let t = Instant::now();
        if remove_row[i as usize] {
            let outcome = engine.remove_observed(p, obs);
            metrics.record_remove(t.elapsed(), outcome);
        } else {
            engine.ingest_observed(p, obs);
            metrics.record_ingest(t.elapsed());
        }
        if metrics_interval > 0 && (i as usize + 1) % metrics_interval == 0 {
            dump_metrics(&mut metrics, metrics_path.as_deref(), &engine)?;
        }
    }
    let seconds = start.elapsed().as_secs_f64();
    obs.span_exit(Phase::Serve);

    let s = engine.stats();
    writeln!(
        out,
        "ingested {} points in {seconds:.3}s: {} duplicates, {} promoted to core \
         ({} new clusters, {} merges), {} still buffered",
        points.len(),
        s.duplicates,
        s.promotions,
        s.new_clusters,
        s.merges,
        engine.buffered_count()
    )?;
    if s.removals + s.remove_misses + s.demotions + s.splits > 0 {
        writeln!(
            out,
            "removed {} points ({} not tracked): {} cores demoted, {} cluster splits",
            s.removals, s.remove_misses, s.demotions, s.splits
        )?;
    }
    writeln!(
        out,
        "model drift: {} -> {} cores, {} -> {} clusters, staleness {:.1}%",
        artifact.cores.len(),
        engine.core_count(),
        artifact.num_clusters,
        engine.num_clusters(),
        engine.staleness() * 100.0
    )?;
    if let Some(mon) = engine.monitor() {
        print_drift_summary(mon, &engine.stats(), out)?;
    }
    print_recommendation(&engine, out)?;

    if let Some(save) = args.get("save") {
        let snap = engine.snapshot();
        let bytes = snapshot::write_file(&snap, Path::new(save))
            .map_err(|e| CliError(format!("cannot write model {save}: {e}")))?;
        obs.event(&Event::SnapshotWrite { bytes });
        metrics.inc_snapshot_write();
        writeln!(out, "updated model written to {save} ({bytes} bytes)")?;
    }
    finish_metrics(&mut metrics, metrics_path.as_deref(), &engine, out)?;
    finish_trace(args, sink, out)?;
    Ok(())
}

/// `dbsvec metrics-report`: render a metrics dump human-readably.
///
/// Accepts either format `--metrics-file` emits: a Prometheus text dump
/// (validated by the same parser the golden tests use) or a JSON dump.
pub fn metrics_report(args: &ParsedArgs, out: &mut dyn Write) -> Result<(), CliError> {
    args.reject_unknown(&["input", "help"])?;
    let path = args.require("input")?;
    let text = std::fs::read_to_string(path)
        .map_err(|e| CliError(format!("cannot read metrics dump {path}: {e}")))?;
    if path.ends_with(".json") {
        let v = dbsvec_obs::json::parse(&text)
            .map_err(|e| CliError(format!("{path}: invalid JSON: {e}")))?;
        for section in ["counters", "gauges"] {
            if let Some(Json::Obj(pairs)) = v.get(section) {
                if pairs.is_empty() {
                    continue;
                }
                writeln!(out, "{section}:")?;
                for (name, value) in pairs {
                    writeln!(out, "  {name:<36} {value}")?;
                }
            }
        }
        if let Some(Json::Obj(pairs)) = v.get("histograms") {
            if !pairs.is_empty() {
                writeln!(out, "histograms:")?;
            }
            let field = |h: &Json, k: &str| h.get(k).cloned().unwrap_or(Json::Null);
            for (name, h) in pairs {
                writeln!(
                    out,
                    "  {name:<36} count={} p50={} p95={} p99={}",
                    field(h, "count"),
                    field(h, "p50"),
                    field(h, "p95"),
                    field(h, "p99"),
                )?;
            }
        }
    } else {
        let samples = parse_prometheus(&text).map_err(|e| CliError(format!("{path}: {e}")))?;
        writeln!(out, "{} samples in {path}", samples.len())?;
        for s in &samples {
            let labels = if s.labels.is_empty() {
                String::new()
            } else {
                let pairs: Vec<String> =
                    s.labels.iter().map(|(k, v)| format!("{k}={v:?}")).collect();
                format!("{{{}}}", pairs.join(","))
            };
            writeln!(out, "  {}{labels} = {}", s.name, s.value)?;
        }
    }
    Ok(())
}

/// Numeric value of a JSON scalar, if it is one.
fn json_num(v: &Json) -> Option<f64> {
    match v {
        Json::Int(i) => Some(*i as f64),
        Json::UInt(u) => Some(*u as f64),
        Json::Num(f) => Some(*f),
        _ => None,
    }
}

/// `dbsvec monitor-report`: summarize the drift metrics in a metrics dump
/// and optionally assert the refit verdict (for CI gates).
///
/// Reads the same Prometheus-text or JSON dumps `--metrics-file` writes,
/// extracts the quality/drift series published by `serve --monitor` /
/// `ingest --monitor`, and renders a verdict. `--expect-refit` /
/// `--expect-fresh` turn the verdict into an exit status.
pub fn monitor_report(args: &ParsedArgs, out: &mut dyn Write) -> Result<(), CliError> {
    args.reject_unknown(&["input", "expect-refit", "expect-fresh", "help"])?;
    let path = args.require("input")?;
    if args.has_switch("expect-refit") && args.has_switch("expect-fresh") {
        return Err(CliError(
            "--expect-refit and --expect-fresh are mutually exclusive".to_string(),
        ));
    }
    let text = std::fs::read_to_string(path)
        .map_err(|e| CliError(format!("cannot read metrics dump {path}: {e}")))?;

    // Flatten either dump format into (name, value) pairs.
    let values: Vec<(String, f64)> = if path.ends_with(".json") {
        let v = dbsvec_obs::json::parse(&text)
            .map_err(|e| CliError(format!("{path}: invalid JSON: {e}")))?;
        let mut pairs = Vec::new();
        for section in ["counters", "gauges"] {
            if let Some(Json::Obj(entries)) = v.get(section) {
                for (name, value) in entries {
                    if let Some(x) = json_num(value) {
                        pairs.push((name.clone(), x));
                    }
                }
            }
        }
        pairs
    } else {
        parse_prometheus(&text)
            .map_err(|e| CliError(format!("{path}: {e}")))?
            .into_iter()
            .filter(|s| s.labels.is_empty())
            .map(|s| (s.name, s.value))
            .collect()
    };
    let get = |name: &str| values.iter().find(|(n, _)| n == name).map(|(_, v)| *v);

    let windows = get("dbsvec_quality_windows_total").ok_or_else(|| {
        CliError(format!(
            "{path}: no quality metrics found; the dump must come from \
             `serve --monitor` or `ingest --monitor` with --metrics-file"
        ))
    })?;
    let alerts = get("dbsvec_drift_alerts_total").unwrap_or(0.0);
    let baseline = get("dbsvec_quality_baseline_present").unwrap_or(0.0) >= 0.5;
    let yes_no = |b: bool| if b { "yes" } else { "no" };

    writeln!(out, "monitor report for {path}:")?;
    writeln!(out, "  quality windows     {windows:>10}")?;
    writeln!(out, "  drift alerts        {alerts:>10}")?;
    writeln!(out, "  baseline present    {:>10}", yes_no(baseline))?;
    for (label, name) in [
        ("drift score", "dbsvec_drift_score"),
        ("smoothed score", "dbsvec_drift_score_smoothed"),
        ("hist distance", "dbsvec_drift_hist_distance"),
        ("occupancy shift", "dbsvec_drift_occupancy_shift"),
        ("noise delta", "dbsvec_drift_noise_delta"),
        ("window noise rate", "dbsvec_noise_rate_window"),
        ("staleness", "dbsvec_staleness_ratio"),
    ] {
        if let Some(v) = get(name) {
            writeln!(out, "  {label:<19} {v:>10.4}")?;
        }
    }
    let mut occupancy: Vec<(usize, f64)> = values
        .iter()
        .filter_map(|(n, v)| {
            n.strip_prefix("dbsvec_cluster_occupancy_c")
                .and_then(|c| c.parse().ok())
                .map(|c| (c, *v))
        })
        .collect();
    if !occupancy.is_empty() {
        occupancy.sort_by_key(|&(c, _)| c);
        let shares: Vec<String> = occupancy
            .iter()
            .map(|(c, v)| format!("c{c}={v:.3}"))
            .collect();
        writeln!(out, "  window occupancy    {}", shares.join(" "))?;
    }

    let refit = get("dbsvec_refit_recommended")
        .map(|v| v >= 0.5)
        .ok_or_else(|| CliError(format!("{path}: dbsvec_refit_recommended gauge missing")))?;
    writeln!(out, "  refit recommended   {:>10}", yes_no(refit))?;

    if args.has_switch("expect-refit") && !refit {
        return Err(CliError(format!(
            "{path}: expected a refit recommendation, but the model looks fresh"
        )));
    }
    if args.has_switch("expect-fresh") && refit {
        return Err(CliError(format!(
            "{path}: expected a fresh model, but a refit is recommended"
        )));
    }
    if args.has_switch("expect-refit") || args.has_switch("expect-fresh") {
        writeln!(out, "expectation met")?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run;

    fn tempfile(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("dbsvec-cli-test-{}-{name}", std::process::id()));
        p
    }

    fn run_ok(tokens: &[&str]) -> String {
        let mut out = Vec::new();
        run(tokens.iter().map(|s| s.to_string()).collect(), &mut out)
            .unwrap_or_else(|e| panic!("command {tokens:?} failed: {e}"));
        String::from_utf8(out).unwrap()
    }

    fn run_err(tokens: &[&str]) -> String {
        let mut out = Vec::new();
        run(tokens.iter().map(|s| s.to_string()).collect(), &mut out)
            .expect_err("command should fail")
            .0
    }

    #[test]
    fn generate_then_cluster_then_compare_round_trip() {
        let data = tempfile("roundtrip.csv");
        let labels = tempfile("roundtrip-labels.csv");
        let data_s = data.to_str().unwrap();
        let labels_s = labels.to_str().unwrap();

        let text = run_ok(&[
            "generate",
            "--dataset",
            "moons",
            "--n",
            "600",
            "--output",
            data_s,
        ]);
        assert!(text.contains("600 points"));

        let text = run_ok(&[
            "cluster",
            "--input",
            data_s,
            "--eps",
            "0.15",
            "--min-pts",
            "5",
            "--output",
            labels_s,
            "--stats",
        ]);
        assert!(text.contains("dbsvec:"), "missing summary in {text}");
        assert!(text.contains("cost:"));

        let (points, read_labels) = read_csv(&labels).unwrap();
        assert_eq!(points.len(), 600);
        assert!(read_labels.is_some());

        let text = run_ok(&[
            "compare",
            "--input",
            data_s,
            "--eps",
            "0.15",
            "--min-pts",
            "5",
        ]);
        assert!(text.contains("agreement: recall = 1.0000"), "got: {text}");

        std::fs::remove_file(&data).ok();
        std::fs::remove_file(&labels).ok();
    }

    #[test]
    fn every_algorithm_name_is_accepted() {
        let data = tempfile("algos.csv");
        let data_s = data.to_str().unwrap();
        run_ok(&[
            "generate",
            "--dataset",
            "moons",
            "--n",
            "200",
            "--output",
            data_s,
        ]);
        for algo in [
            "dbsvec",
            "dbsvec-min",
            "dbscan",
            "kd-dbscan",
            "rho-approx",
            "dbscan-lsh",
            "nq-dbscan",
            "kmeans",
        ] {
            let text = run_ok(&[
                "cluster",
                "--input",
                data_s,
                "--algorithm",
                algo,
                "--eps",
                "0.2",
                "--min-pts",
                "4",
            ]);
            assert!(text.contains(algo), "{algo} summary missing: {text}");
        }
        std::fs::remove_file(&data).ok();
    }

    #[test]
    fn profile_and_trace_outputs() {
        let data = tempfile("obs.csv");
        let trace = tempfile("obs.jsonl");
        let data_s = data.to_str().unwrap();
        let trace_s = trace.to_str().unwrap();
        run_ok(&[
            "generate",
            "--dataset",
            "moons",
            "--n",
            "400",
            "--output",
            data_s,
        ]);

        let text = run_ok(&[
            "cluster",
            "--input",
            data_s,
            "--eps",
            "0.15",
            "--min-pts",
            "5",
            "--profile",
            "--trace",
            trace_s,
        ]);
        assert!(text.contains("profile:"), "missing profile table: {text}");
        for phase in ["init", "sv_expand", "svdd_train", "merge", "noise_verify"] {
            assert!(text.contains(phase), "missing {phase} row: {text}");
        }
        assert!(text.contains("theta = "), "missing theta line: {text}");
        assert!(
            text.contains("trace written to"),
            "missing trace note: {text}"
        );

        // Every trace line parses, and the replayed counters are sane.
        let trace_text = std::fs::read_to_string(&trace).unwrap();
        let counts = dbsvec_obs::ReplayCounts::from_jsonl(&trace_text).unwrap();
        assert!(counts.range_queries > 0);
        assert!(counts.seeds > 0);

        // Un-instrumented algorithms degrade gracefully.
        let text = run_ok(&[
            "cluster",
            "--input",
            data_s,
            "--algorithm",
            "kmeans",
            "--eps",
            "0.15",
            "--profile",
        ]);
        assert!(text.contains("running unobserved"), "got: {text}");

        std::fs::remove_file(&data).ok();
        std::fs::remove_file(&trace).ok();
    }

    #[test]
    fn eps_is_derived_when_omitted() {
        let data = tempfile("derive.csv");
        let data_s = data.to_str().unwrap();
        run_ok(&[
            "generate",
            "--dataset",
            "moons",
            "--n",
            "400",
            "--output",
            data_s,
        ]);
        let text = run_ok(&["cluster", "--input", data_s, "--min-pts", "5"]);
        assert!(text.contains("derived eps"), "got: {text}");
        let text = run_ok(&["suggest", "--input", data_s, "--min-pts", "5"]);
        assert!(text.contains("suggested eps"));
        std::fs::remove_file(&data).ok();
    }

    #[test]
    fn svg_output_for_2d_data() {
        let data = tempfile("svg.csv");
        let svg = tempfile("svg.svg");
        run_ok(&[
            "generate",
            "--dataset",
            "moons",
            "--n",
            "300",
            "--output",
            data.to_str().unwrap(),
        ]);
        run_ok(&[
            "cluster",
            "--input",
            data.to_str().unwrap(),
            "--eps",
            "0.2",
            "--min-pts",
            "4",
            "--svg",
            svg.to_str().unwrap(),
        ]);
        let content = std::fs::read_to_string(&svg).unwrap();
        assert!(content.contains("</svg>"));
        std::fs::remove_file(&data).ok();
        std::fs::remove_file(&svg).ok();
    }

    #[test]
    fn helpful_errors() {
        assert!(run_err(&[]).contains("USAGE"));
        assert!(run_err(&["frobnicate"]).contains("unknown command"));
        assert!(run_err(&["cluster"]).contains("--input"));
        assert!(
            run_err(&["cluster", "--input", "/nonexistent-file.csv"]).contains("No such file")
                || run_err(&["cluster", "--input", "/nonexistent-file.csv"]).contains("(os error")
        );
        let data = tempfile("badalgo.csv");
        run_ok(&[
            "generate",
            "--dataset",
            "moons",
            "--n",
            "100",
            "--output",
            data.to_str().unwrap(),
        ]);
        assert!(run_err(&[
            "cluster",
            "--input",
            data.to_str().unwrap(),
            "--algorithm",
            "magic",
            "--eps",
            "0.2",
        ])
        .contains("unknown algorithm"));
        assert!(
            run_err(&["generate", "--dataset", "nope", "--output", "/tmp/x.csv"])
                .contains("unknown dataset")
        );
        std::fs::remove_file(&data).ok();
    }

    #[test]
    fn out_of_range_parameters_are_typed_errors() {
        let data = tempfile("ranges.csv");
        let data_s = data.to_str().unwrap();
        run_ok(&[
            "generate",
            "--dataset",
            "moons",
            "--n",
            "100",
            "--output",
            data_s,
        ]);
        let save = ["--save", "/dev/null"];
        for (command, extra) in [
            ("cluster", &[][..]),
            ("compare", &[][..]),
            ("fit", &save[..]),
        ] {
            let run = |flags: &[&str]| {
                let mut v = vec![command, "--input", data_s];
                v.extend_from_slice(flags);
                v.extend_from_slice(extra);
                run_err(&v)
            };
            for eps in ["0", "-1", "inf", "NaN"] {
                let err = run(&["--eps", eps, "--min-pts", "5"]);
                assert!(
                    err.contains("--eps must be positive and finite"),
                    "{command}: {err}"
                );
            }
            let err = run(&["--eps", "0.2", "--min-pts", "0"]);
            assert!(
                err.contains("--min-pts must be at least 1"),
                "{command}: {err}"
            );
        }
        // The knee derivation (no --eps) reads --min-pts first.
        let err = run_err(&["cluster", "--input", data_s, "--min-pts", "0"]);
        assert!(err.contains("--min-pts must be at least 1"), "{err}");
        let err = run_err(&["suggest", "--input", data_s, "--min-pts", "0"]);
        assert!(err.contains("--min-pts must be at least 1"), "{err}");
        let err = run_err(&[
            "cluster",
            "--input",
            data_s,
            "--algorithm",
            "kmeans",
            "--eps",
            "0.2",
            "--k",
            "0",
        ]);
        assert!(err.contains("--k must be at least 1"), "{err}");

        // Duplicate points put the k-distance knee at 0: no ε to derive.
        let rows = "x,y\n".to_string() + &"1,1\n".repeat(12);
        std::fs::write(&data, rows).unwrap();
        for command in ["cluster", "compare"] {
            let err = run_err(&[command, "--input", data_s]);
            assert!(err.contains("knee is 0"), "{command}: {err}");
        }
        let err = run_err(&["fit", "--input", data_s, "--save", "/dev/null"]);
        assert!(err.contains("knee is 0"), "{err}");
        let err = run_err(&["suggest", "--input", data_s]);
        assert!(err.contains("knee is 0"), "{err}");
        std::fs::remove_file(&data).ok();
    }

    #[test]
    fn help_prints_usage() {
        let text = run_ok(&["--help"]);
        assert!(text.contains("USAGE"));
        assert!(text.contains("serve"), "serving commands documented");
        assert!(text.contains("--cold-start"), "solver switch documented");
    }

    #[test]
    fn cold_start_fit_matches_the_default_fit() {
        let data = tempfile("coldstart.csv");
        let warm_model = tempfile("coldstart-warm.dbm");
        let cold_model = tempfile("coldstart-cold.dbm");
        let data_s = data.to_str().unwrap();
        run_ok(&[
            "generate",
            "--dataset",
            "moons",
            "--n",
            "400",
            "--output",
            data_s,
        ]);
        let common = [
            "--input",
            data_s,
            "--eps",
            "0.15",
            "--min-pts",
            "5",
            "--stats",
        ];
        let mut warm_args = vec!["fit"];
        warm_args.extend_from_slice(&common);
        warm_args.extend_from_slice(&["--save", warm_model.to_str().unwrap()]);
        let warm_text = run_ok(&warm_args);
        let mut cold_args = vec!["fit"];
        cold_args.extend_from_slice(&common);
        cold_args.extend_from_slice(&["--save", cold_model.to_str().unwrap(), "--cold-start"]);
        let cold_text = run_ok(&cold_args);
        // Same clusters either way; only the solver path differs, and with
        // it which support vectors get queried, so the verified core sets
        // may differ by a point (pinned).
        let model_line = |t: &str| {
            t.lines()
                .find(|l| l.starts_with("model:"))
                .map(str::to_string)
                .unwrap()
        };
        let (warm_line, cold_line) = (model_line(&warm_text), model_line(&cold_text));
        let strip_path = |l: &str| l.split(" -> ").next().unwrap().to_string();
        assert_eq!(
            strip_path(&warm_line),
            "model: 263 core points, 2 clusters, quality baseline"
        );
        assert_eq!(
            strip_path(&cold_line),
            "model: 264 core points, 2 clusters, quality baseline"
        );
        for f in [&data, &warm_model, &cold_model] {
            std::fs::remove_file(f).ok();
        }
    }

    #[test]
    fn fit_then_serve_reproduces_training_labels() {
        let data = tempfile("serve.csv");
        let model = tempfile("serve.dbm");
        let fit_labels = tempfile("serve-fit-labels.csv");
        let served_labels = tempfile("serve-labels.csv");
        let data_s = data.to_str().unwrap();
        let model_s = model.to_str().unwrap();

        run_ok(&[
            "generate",
            "--dataset",
            "moons",
            "--n",
            "600",
            "--output",
            data_s,
        ]);
        let common = ["--input", data_s, "--eps", "0.15", "--min-pts", "5"];

        // The fit's own labels, via the cluster command.
        let mut cluster_args = vec!["cluster"];
        cluster_args.extend_from_slice(&common);
        cluster_args.extend_from_slice(&["--output", fit_labels.to_str().unwrap()]);
        run_ok(&cluster_args);

        let mut fit_args = vec!["fit"];
        fit_args.extend_from_slice(&common);
        fit_args.extend_from_slice(&["--save", model_s, "--stats"]);
        let text = run_ok(&fit_args);
        assert!(text.contains("model:"), "missing model line: {text}");
        assert!(text.contains("cost:"), "missing stats line: {text}");

        let text = run_ok(&[
            "serve",
            "--model",
            model_s,
            "--assign",
            data_s,
            "--threads",
            "2",
            "--output",
            served_labels.to_str().unwrap(),
        ]);
        assert!(text.contains("assigned 600 points"), "got: {text}");

        // Served labels must reproduce the fit, modulo border tie-breaks.
        let (_, fitted) = read_csv(&fit_labels).unwrap();
        let (_, served) = read_csv(&served_labels).unwrap();
        let (fitted, served) = (fitted.unwrap(), served.unwrap());
        assert_eq!(fitted.len(), served.len());
        let noise = |l: &[Option<u32>]| l.iter().filter(|x| x.is_none()).count();
        assert_eq!(noise(&fitted), noise(&served), "noise sets must match");
        let agree = fitted.iter().zip(&served).filter(|(a, b)| a == b).count();
        assert!(
            agree as f64 >= 0.999 * fitted.len() as f64,
            "only {agree}/{} labels agree",
            fitted.len()
        );

        for f in [&data, &model, &fit_labels, &served_labels] {
            std::fs::remove_file(f).ok();
        }
    }

    #[test]
    fn sampled_fit_prints_provenance_and_serves() {
        let data = tempfile("sampled-fit.csv");
        let model = tempfile("sampled-fit.dbm");
        let data_s = data.to_str().unwrap();
        let model_s = model.to_str().unwrap();
        run_ok(&[
            "generate",
            "--dataset",
            "moons",
            "--n",
            "600",
            "--output",
            data_s,
        ]);
        let text = run_ok(&[
            "fit",
            "--input",
            data_s,
            "--eps",
            "0.15",
            "--min-pts",
            "5",
            "--save",
            model_s,
            "--sample-rate",
            "0.5",
            "--sample-seed",
            "7",
        ]);
        assert!(
            text.contains("sampling: uniform rate 0.5 (seed 7)"),
            "missing sampling line: {text}"
        );
        assert!(
            text.contains("attached"),
            "missing attachment counts: {text}"
        );

        // The persisted provenance comes back out of the snapshot.
        let text = run_ok(&["serve", "--model", model_s, "--assign", data_s]);
        assert!(
            text.contains("model sampling: uniform rate 0.5 (seed 7)"),
            "missing provenance on load: {text}"
        );

        // k-center mode and the rate-1.0 full-coverage collapse.
        let text = run_ok(&[
            "fit",
            "--input",
            data_s,
            "--eps",
            "0.15",
            "--min-pts",
            "5",
            "--save",
            model_s,
            "--sample-kcenter",
            "150",
        ]);
        assert!(
            text.contains("sampling: k-center m 150"),
            "missing k-center line: {text}"
        );
        let text = run_ok(&[
            "fit",
            "--input",
            data_s,
            "--eps",
            "0.15",
            "--min-pts",
            "5",
            "--save",
            model_s,
            "--sample-rate",
            "1.0",
        ]);
        assert!(
            text.contains("sampling: uniform rate 1") && text.contains("full coverage"),
            "rate 1.0 must report full coverage: {text}"
        );

        for f in [&data, &model] {
            std::fs::remove_file(f).ok();
        }
    }

    #[test]
    fn sampled_fits_derive_eps_from_their_candidates() {
        let data = tempfile("sampled-eps.csv");
        let data_s = data.to_str().unwrap();
        run_ok(&[
            "generate",
            "--dataset",
            "moons",
            "--n",
            "1200",
            "--output",
            data_s,
        ]);
        let derived = |extra: &[&str]| {
            let mut tokens = vec![
                "fit",
                "--input",
                data_s,
                "--min-pts",
                "5",
                "--save",
                "/dev/null",
            ];
            tokens.extend_from_slice(extra);
            let text = run_ok(&tokens);
            text.lines()
                .find(|l| l.starts_with("derived eps = "))
                .unwrap_or_else(|| panic!("no derived eps line: {text}"))
                .to_string()
        };
        let exact = derived(&[]);
        assert_eq!(exact, "derived eps = 0.057895 from the 5-distance knee");
        // Full coverage profiles every point in order: the exact sweep.
        assert_eq!(derived(&["--sample-rate", "1.0"]), exact);
        // A drawn subsample profiles only its own candidates.
        assert_eq!(
            derived(&["--sample-rate", "0.5", "--sample-seed", "7"]),
            "derived eps = 0.056094 from the 5-distance knee"
        );
        assert_eq!(
            derived(&["--sample-kcenter", "150"]),
            "derived eps = 0.085860 from the 5-distance knee"
        );
        std::fs::remove_file(&data).ok();
    }

    #[test]
    fn sampling_flags_are_validated() {
        let data = tempfile("sampled-validate.csv");
        let data_s = data.to_str().unwrap();
        run_ok(&[
            "generate",
            "--dataset",
            "moons",
            "--n",
            "100",
            "--output",
            data_s,
        ]);
        let base = [
            "fit",
            "--input",
            data_s,
            "--eps",
            "0.15",
            "--min-pts",
            "5",
            "--save",
            "/dev/null",
        ];
        let with = |extra: &[&str]| {
            let mut v: Vec<&str> = base.to_vec();
            v.extend_from_slice(extra);
            run_err(&v)
        };
        assert!(with(&["--sample-rate", "0.5", "--sample-kcenter", "10"])
            .contains("mutually exclusive"));
        assert!(with(&["--sample-rate", "0.0"]).contains("must be in (0, 1]"));
        assert!(with(&["--sample-rate", "1.5"]).contains("must be in (0, 1]"));
        assert!(with(&["--sample-kcenter", "0"]).contains("at least 1"));
        assert!(with(&["--sample-seed", "9"]).contains("requires"));
        std::fs::remove_file(&data).ok();
    }

    #[test]
    fn serve_trace_and_profile_cover_the_serve_phase() {
        let data = tempfile("serve-obs.csv");
        let model = tempfile("serve-obs.dbm");
        let trace = tempfile("serve-obs.jsonl");
        let data_s = data.to_str().unwrap();
        let model_s = model.to_str().unwrap();
        run_ok(&[
            "generate",
            "--dataset",
            "moons",
            "--n",
            "300",
            "--output",
            data_s,
        ]);
        run_ok(&[
            "fit",
            "--input",
            data_s,
            "--eps",
            "0.15",
            "--min-pts",
            "5",
            "--save",
            model_s,
        ]);

        let text = run_ok(&[
            "serve",
            "--model",
            model_s,
            "--assign",
            data_s,
            "--profile",
            "--trace",
            trace.to_str().unwrap(),
        ]);
        assert!(text.contains("profile:"), "missing profile: {text}");
        assert!(text.contains("trace written to"), "missing trace: {text}");

        let trace_text = std::fs::read_to_string(&trace).unwrap();
        let counts = dbsvec_obs::ReplayCounts::from_jsonl(&trace_text).unwrap();
        assert_eq!(counts.assigns, 300);
        assert_eq!(counts.snapshot_loads, 1);

        for f in [&data, &model, &trace] {
            std::fs::remove_file(f).ok();
        }
    }

    #[test]
    fn ingest_reports_drift_and_saves_a_servable_model() {
        let data = tempfile("ingest.csv");
        let extra = tempfile("ingest-extra.csv");
        let model = tempfile("ingest.dbm");
        let updated = tempfile("ingest-updated.dbm");
        let data_s = data.to_str().unwrap();
        let model_s = model.to_str().unwrap();
        run_ok(&[
            "generate",
            "--dataset",
            "moons",
            "--n",
            "400",
            "--output",
            data_s,
        ]);
        run_ok(&[
            "fit",
            "--input",
            data_s,
            "--eps",
            "0.15",
            "--min-pts",
            "5",
            "--save",
            model_s,
        ]);
        // A fresh batch from the same distribution.
        run_ok(&[
            "generate",
            "--dataset",
            "moons",
            "--n",
            "200",
            "--seed",
            "7",
            "--output",
            extra.to_str().unwrap(),
        ]);

        let text = run_ok(&[
            "ingest",
            "--model",
            model_s,
            "--input",
            extra.to_str().unwrap(),
            "--save",
            updated.to_str().unwrap(),
        ]);
        assert!(text.contains("ingested 200 points"), "got: {text}");
        assert!(text.contains("staleness"), "got: {text}");
        assert!(text.contains("recommendation:"), "got: {text}");
        assert!(text.contains("updated model written to"), "got: {text}");

        // The updated snapshot must itself be loadable and servable.
        let text = run_ok(&[
            "serve",
            "--model",
            updated.to_str().unwrap(),
            "--assign",
            data_s,
        ]);
        assert!(text.contains("assigned 400 points"), "got: {text}");

        for f in [&data, &extra, &model, &updated] {
            std::fs::remove_file(f).ok();
        }
    }

    #[test]
    fn remove_ids_are_bounds_checked_before_ranges_expand() {
        let data = tempfile("remove-ids.csv");
        let model = tempfile("remove-ids.dbm");
        let (data_s, model_s) = (data.to_str().unwrap(), model.to_str().unwrap());
        run_ok(&[
            "generate",
            "--dataset",
            "moons",
            "--n",
            "200",
            "--output",
            data_s,
        ]);
        run_ok(&["fit", "--input", data_s, "--save", model_s]);
        let ingest = |ids: &str| {
            let mut out = Vec::new();
            let tokens = [
                "ingest",
                "--model",
                model_s,
                "--input",
                data_s,
                "--remove-ids",
                ids,
            ];
            run(tokens.iter().map(|s| s.to_string()).collect(), &mut out)
                .map(|()| String::from_utf8(out).unwrap())
                .map_err(|e| e.0)
        };
        // A range end past the file fails typed, however large it is.
        for ids in ["0-18446744073709551615", "0-5000", "5000"] {
            let err = ingest(ids).expect_err(ids);
            assert!(
                err.contains("out of range (the input has 200 rows)"),
                "{err}"
            );
        }
        let text = ingest("3,5,10-12").expect("a valid list");
        assert!(text.contains("ingested 200 points"), "got: {text}");
        assert!(text.contains("\nremoved "), "got: {text}");
        for f in [&data, &model] {
            std::fs::remove_file(f).ok();
        }

        assert_eq!(
            parse_id_list("12,3,5-7,6", 20).unwrap(),
            vec![3, 5, 6, 7, 12]
        );
        let err = |spec: &str| parse_id_list(spec, 20).unwrap_err().0;
        assert!(err("9-3").contains("backwards range"));
        assert!(err("3,x").contains("\"x\" is not a row index"));
        assert!(err("3-").contains("is not a row index"));
        assert!(err("20").contains("row 20 out of range"));
    }

    #[test]
    fn serve_metrics_file_is_valid_prometheus_with_latency_percentiles() {
        let data = tempfile("metrics.csv");
        let model = tempfile("metrics.dbm");
        let prom = tempfile("metrics.prom");
        let json = tempfile("metrics.json");
        let data_s = data.to_str().unwrap();
        let model_s = model.to_str().unwrap();
        let prom_s = prom.to_str().unwrap();
        run_ok(&[
            "generate",
            "--dataset",
            "moons",
            "--n",
            "400",
            "--output",
            data_s,
        ]);
        run_ok(&[
            "fit",
            "--input",
            data_s,
            "--eps",
            "0.15",
            "--min-pts",
            "5",
            "--save",
            model_s,
        ]);

        let text = run_ok(&[
            "serve",
            "--model",
            model_s,
            "--assign",
            data_s,
            "--metrics-file",
            prom_s,
            "--metrics-interval",
            "150",
        ]);
        assert!(text.contains("metrics written to"), "got: {text}");

        // The dump is valid exposition format and carries the acceptance
        // metrics: assign-latency percentiles and the health gauges.
        let dump = std::fs::read_to_string(&prom).unwrap();
        for line in [
            "# TYPE dbsvec_assign_latency_seconds summary",
            "dbsvec_assign_latency_seconds{quantile=\"0.5\"}",
            "dbsvec_assign_latency_seconds{quantile=\"0.95\"}",
            "dbsvec_assign_latency_seconds{quantile=\"0.99\"}",
            "dbsvec_assign_latency_seconds_count 400",
            "dbsvec_assigns_total 400",
            "# TYPE dbsvec_staleness_ratio gauge",
            "dbsvec_tree_rebuilds_total 0",
            "dbsvec_snapshot_loads_total 1",
        ] {
            assert!(dump.contains(line), "missing {line:?} in:\n{dump}");
        }
        let samples = parse_prometheus(&dump).expect("dump must parse");
        let p95 = samples
            .iter()
            .find(|s| {
                s.name == "dbsvec_assign_latency_seconds" && s.label("quantile") == Some("0.95")
            })
            .expect("p95 sample");
        assert!(p95.value > 0.0 && p95.value < 1.0, "p95 = {}", p95.value);

        // metrics-report renders the same dump.
        let text = run_ok(&["metrics-report", "--input", prom_s]);
        assert!(text.contains("samples in"), "got: {text}");
        assert!(text.contains("dbsvec_assign_latency_seconds"), "{text}");

        // The .json extension selects the JSON rendering, which parses
        // with the shared parser and also round-trips through the report.
        run_ok(&[
            "serve",
            "--model",
            model_s,
            "--assign",
            data_s,
            "--metrics-file",
            json.to_str().unwrap(),
        ]);
        let jtext = std::fs::read_to_string(&json).unwrap();
        let v = dbsvec_obs::json::parse(&jtext).expect("valid JSON dump");
        assert!(v.get("histograms").is_some());
        let text = run_ok(&["metrics-report", "--input", json.to_str().unwrap()]);
        assert!(text.contains("histograms:"), "got: {text}");

        // --metrics-interval without --metrics-file is a user error.
        let err = run_err(&[
            "serve",
            "--model",
            model_s,
            "--assign",
            data_s,
            "--metrics-interval",
            "10",
        ]);
        assert!(err.contains("--metrics-file"), "got: {err}");

        for f in [&data, &model, &prom, &json] {
            std::fs::remove_file(f).ok();
        }
    }

    #[test]
    fn ingest_metrics_cover_latency_and_snapshot_io() {
        let data = tempfile("ingest-metrics.csv");
        let extra = tempfile("ingest-metrics-extra.csv");
        let model = tempfile("ingest-metrics.dbm");
        let updated = tempfile("ingest-metrics-updated.dbm");
        let prom = tempfile("ingest-metrics.prom");
        let data_s = data.to_str().unwrap();
        run_ok(&[
            "generate",
            "--dataset",
            "moons",
            "--n",
            "300",
            "--output",
            data_s,
        ]);
        run_ok(&[
            "fit",
            "--input",
            data_s,
            "--eps",
            "0.15",
            "--min-pts",
            "5",
            "--save",
            model.to_str().unwrap(),
        ]);
        run_ok(&[
            "generate",
            "--dataset",
            "moons",
            "--n",
            "120",
            "--seed",
            "9",
            "--output",
            extra.to_str().unwrap(),
        ]);

        let text = run_ok(&[
            "ingest",
            "--model",
            model.to_str().unwrap(),
            "--input",
            extra.to_str().unwrap(),
            "--save",
            updated.to_str().unwrap(),
            "--metrics-file",
            prom.to_str().unwrap(),
            "--metrics-interval",
            "50",
        ]);
        assert!(text.contains("metrics written to"), "got: {text}");
        let dump = std::fs::read_to_string(&prom).unwrap();
        for line in [
            "dbsvec_ingests_total 120",
            "dbsvec_ingest_latency_seconds_count 120",
            "dbsvec_snapshot_loads_total 1",
            "dbsvec_snapshot_writes_total 1",
        ] {
            assert!(dump.contains(line), "missing {line:?} in:\n{dump}");
        }
        assert!(parse_prometheus(&dump).is_ok());

        for f in [&data, &extra, &model, &updated, &prom] {
            std::fs::remove_file(f).ok();
        }
    }

    #[test]
    fn fit_records_a_quality_baseline() {
        let data = tempfile("baseline.csv");
        let model = tempfile("baseline.dbm");
        let data_s = data.to_str().unwrap();
        let model_s = model.to_str().unwrap();
        run_ok(&[
            "generate",
            "--dataset",
            "moons",
            "--n",
            "300",
            "--output",
            data_s,
        ]);
        let text = run_ok(&[
            "fit",
            "--input",
            data_s,
            "--eps",
            "0.15",
            "--min-pts",
            "5",
            "--save",
            model_s,
        ]);
        assert!(text.contains("quality baseline"), "got: {text}");
        let (artifact, _) = snapshot::read_file(&model).unwrap();
        let q = artifact.quality.expect("fit must persist a baseline");
        assert_eq!(q.total_points, 300);
        std::fs::remove_file(&data).ok();
        std::fs::remove_file(&model).ok();
    }

    #[test]
    fn monitored_serve_separates_drifted_from_stationary_traffic() {
        let train = tempfile("drift-train.csv");
        let fresh = tempfile("drift-fresh.csv");
        let shifted = tempfile("drift-shifted.csv");
        let model = tempfile("drift.dbm");
        let fresh_prom = tempfile("drift-fresh.prom");
        let shifted_json = tempfile("drift-shifted.json");
        let trace = tempfile("drift.jsonl");
        let train_s = train.to_str().unwrap();
        let model_s = model.to_str().unwrap();

        run_ok(&[
            "generate",
            "--dataset",
            "moons",
            "--n",
            "600",
            "--output",
            train_s,
        ]);
        run_ok(&[
            "fit",
            "--input",
            train_s,
            "--eps",
            "0.15",
            "--min-pts",
            "5",
            "--save",
            model_s,
        ]);
        // Stationary traffic: the same distribution, a different seed.
        run_ok(&[
            "generate",
            "--dataset",
            "moons",
            "--n",
            "600",
            "--seed",
            "99",
            "--output",
            fresh.to_str().unwrap(),
        ]);
        // Drifted traffic: a different generator entirely.
        run_ok(&[
            "generate",
            "--dataset",
            "spirals",
            "--n",
            "600",
            "--output",
            shifted.to_str().unwrap(),
        ]);

        let text = run_ok(&[
            "serve",
            "--model",
            model_s,
            "--assign",
            fresh.to_str().unwrap(),
            "--monitor",
            "--monitor-window",
            "150",
            "--metrics-file",
            fresh_prom.to_str().unwrap(),
        ]);
        assert!(text.contains("drift:"), "missing drift summary: {text}");
        assert!(
            text.contains("model is still fresh"),
            "stationary traffic must not trigger a refit: {text}"
        );

        let text = run_ok(&[
            "serve",
            "--model",
            model_s,
            "--assign",
            shifted.to_str().unwrap(),
            "--monitor",
            "--monitor-window",
            "150",
            "--metrics-file",
            shifted_json.to_str().unwrap(),
            "--trace",
            trace.to_str().unwrap(),
        ]);
        assert!(
            text.contains("re-fit from scratch"),
            "drifted traffic must recommend a refit: {text}"
        );
        assert!(text.contains("alerts"), "got: {text}");

        // The drift events stream through the trace and replay cleanly.
        let trace_text = std::fs::read_to_string(&trace).unwrap();
        let counts = dbsvec_obs::ReplayCounts::from_jsonl(&trace_text).unwrap();
        assert_eq!(counts.quality_windows, 4, "600 / 150 windows");
        assert!(counts.drift_alerts > 0, "no alerts in {counts:?}");

        // The Prometheus dump carries the drift series...
        let dump = std::fs::read_to_string(&fresh_prom).unwrap();
        for name in [
            "dbsvec_drift_score_smoothed",
            "dbsvec_quality_windows_total 4",
            "dbsvec_quality_baseline_present 1",
            "dbsvec_noise_rate_window",
            "dbsvec_cluster_occupancy_c0",
        ] {
            assert!(dump.contains(name), "missing {name:?} in:\n{dump}");
        }

        // ...and monitor-report turns the verdict into an exit status.
        let fresh_s = fresh_prom.to_str().unwrap();
        let shifted_s = shifted_json.to_str().unwrap();
        let text = run_ok(&["monitor-report", "--input", fresh_s, "--expect-fresh"]);
        assert!(text.contains("refit recommended"), "{text}");
        assert!(text.contains("expectation met"), "{text}");
        let text = run_ok(&["monitor-report", "--input", shifted_s, "--expect-refit"]);
        assert!(text.contains("expectation met"), "{text}");
        assert!(text.contains("drift score"), "{text}");
        assert!(text.contains("window occupancy"), "{text}");
        let err = run_err(&["monitor-report", "--input", shifted_s, "--expect-fresh"]);
        assert!(err.contains("refit is recommended"), "got: {err}");
        let err = run_err(&["monitor-report", "--input", fresh_s, "--expect-refit"]);
        assert!(err.contains("looks fresh"), "got: {err}");

        for f in [
            &train,
            &fresh,
            &shifted,
            &model,
            &fresh_prom,
            &shifted_json,
            &trace,
        ] {
            std::fs::remove_file(f).ok();
        }
    }

    #[test]
    fn monitored_ingest_reports_drift_and_honors_refit_threshold() {
        let data = tempfile("mon-ingest.csv");
        let extra = tempfile("mon-ingest-extra.csv");
        let model = tempfile("mon-ingest.dbm");
        let data_s = data.to_str().unwrap();
        let model_s = model.to_str().unwrap();
        run_ok(&[
            "generate",
            "--dataset",
            "moons",
            "--n",
            "400",
            "--output",
            data_s,
        ]);
        run_ok(&[
            "fit",
            "--input",
            data_s,
            "--eps",
            "0.15",
            "--min-pts",
            "5",
            "--save",
            model_s,
        ]);
        run_ok(&[
            "generate",
            "--dataset",
            "moons",
            "--n",
            "200",
            "--seed",
            "11",
            "--output",
            extra.to_str().unwrap(),
        ]);

        let text = run_ok(&[
            "ingest",
            "--model",
            model_s,
            "--input",
            extra.to_str().unwrap(),
            "--monitor",
            "--monitor-window",
            "50",
        ]);
        assert!(text.contains("drift:"), "missing drift summary: {text}");
        assert!(text.contains("recommendation:"), "got: {text}");

        // A configurable staleness threshold: low enough, any topology
        // change at all recommends a refit.
        let text = run_ok(&[
            "ingest",
            "--model",
            model_s,
            "--input",
            extra.to_str().unwrap(),
            "--refit-threshold",
            "0.0001",
        ]);
        assert!(
            text.contains("re-fit from scratch (staleness above 0%)"),
            "got: {text}"
        );

        for f in [&data, &extra, &model] {
            std::fs::remove_file(f).ok();
        }
    }

    #[test]
    fn monitor_flag_validation() {
        let data = tempfile("monflags.csv");
        let model = tempfile("monflags.dbm");
        let data_s = data.to_str().unwrap();
        let model_s = model.to_str().unwrap();
        run_ok(&[
            "generate",
            "--dataset",
            "moons",
            "--n",
            "150",
            "--output",
            data_s,
        ]);
        run_ok(&[
            "fit",
            "--input",
            data_s,
            "--eps",
            "0.15",
            "--min-pts",
            "5",
            "--save",
            model_s,
        ]);

        let base = ["serve", "--model", model_s, "--assign", data_s];
        let with = |extra: &[&'static str]| {
            let mut v = base.to_vec();
            v.extend_from_slice(extra);
            v
        };
        let err = run_err(&with(&["--monitor-window", "64"]));
        assert!(err.contains("require --monitor"), "got: {err}");
        let err = run_err(&with(&["--monitor", "--monitor-window", "0"]));
        assert!(err.contains("--monitor-window"), "got: {err}");
        let err = run_err(&with(&["--monitor", "--drift-threshold", "1.5"]));
        assert!(err.contains("(0, 1]"), "got: {err}");
        let err = run_err(&with(&["--refit-threshold", "-0.5"]));
        assert!(err.contains("--refit-threshold"), "got: {err}");
        // The monitor folds a threaded batch in query order after the join.
        let text = run_ok(&with(&["--monitor", "--threads", "4"]));
        assert!(text.contains("4 threads"), "got: {text}");
        assert!(text.contains("drift:"), "got: {text}");
        let err = run_err(&[
            "monitor-report",
            "--input",
            "x.prom",
            "--expect-refit",
            "--expect-fresh",
        ]);
        assert!(err.contains("mutually exclusive"), "got: {err}");

        // A dump without the quality series is called out, not zero-filled.
        let foreign = tempfile("monflags-foreign.prom");
        std::fs::write(&foreign, "# TYPE up gauge\nup 1\n").unwrap();
        let err = run_err(&["monitor-report", "--input", foreign.to_str().unwrap()]);
        assert!(err.contains("no quality metrics"), "got: {err}");

        for f in [&data, &model, &foreign] {
            std::fs::remove_file(f).ok();
        }
    }

    #[test]
    fn serve_rejects_non_model_files() {
        let data = tempfile("notamodel.csv");
        let data_s = data.to_str().unwrap();
        run_ok(&[
            "generate",
            "--dataset",
            "moons",
            "--n",
            "50",
            "--output",
            data_s,
        ]);
        let err = run_err(&["serve", "--model", data_s, "--assign", data_s]);
        assert!(err.contains("cannot load model"), "got: {err}");
        std::fs::remove_file(&data).ok();
    }

    /// A `Write` target shared with the thread running `serve-http`, so
    /// the test can scrape the "listening on" line for the ephemeral port.
    #[derive(Clone, Default)]
    struct SharedBuf(std::sync::Arc<std::sync::Mutex<Vec<u8>>>);

    impl Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    impl SharedBuf {
        fn text(&self) -> String {
            String::from_utf8_lossy(&self.0.lock().unwrap()).into_owned()
        }
    }

    fn http_request(addr: &str, method: &str, path: &str, body: &str) -> (u16, String) {
        use std::io::Read;
        let mut conn = std::net::TcpStream::connect(addr).unwrap();
        let head = format!(
            "{method} {path} HTTP/1.1\r\nHost: t\r\nConnection: close\r\nContent-Length: {}\r\n\r\n",
            body.len()
        );
        conn.write_all(head.as_bytes()).unwrap();
        conn.write_all(body.as_bytes()).unwrap();
        let mut raw = String::new();
        conn.read_to_string(&mut raw).unwrap();
        let status: u16 = raw.split_whitespace().nth(1).unwrap().parse().unwrap();
        let body = raw.split_once("\r\n\r\n").map(|(_, b)| b).unwrap_or("");
        (status, body.to_string())
    }

    #[test]
    fn serve_http_serves_and_stops_after_max_requests() {
        let data = tempfile("http.csv");
        let model = tempfile("http.dbm");
        let data_s = data.to_str().unwrap();
        let model_s = model.to_str().unwrap().to_string();
        let name = model.file_stem().unwrap().to_str().unwrap().to_string();
        run_ok(&[
            "generate",
            "--dataset",
            "moons",
            "--n",
            "400",
            "--output",
            data_s,
        ]);
        run_ok(&[
            "fit",
            "--input",
            data_s,
            "--eps",
            "0.15",
            "--min-pts",
            "5",
            "--save",
            &model_s,
        ]);

        let buf = SharedBuf::default();
        let mut out = buf.clone();
        let model_arg = model_s.clone();
        let handle = std::thread::spawn(move || {
            run(
                [
                    "serve-http",
                    "--model",
                    &model_arg,
                    "--addr",
                    "127.0.0.1:0",
                    "--shards",
                    "2",
                    "--threads",
                    "2",
                    "--max-requests",
                    "4",
                ]
                .iter()
                .map(|s| s.to_string())
                .collect(),
                &mut out,
            )
        });
        let addr = loop {
            if let Some(line) = buf.text().lines().find(|l| l.starts_with("listening on ")) {
                break line["listening on ".len()..]
                    .split_whitespace()
                    .next()
                    .unwrap()
                    .to_string();
            }
            std::thread::sleep(std::time::Duration::from_millis(5));
        };

        let (status, body) = http_request(&addr, "GET", "/healthz", "");
        assert_eq!(status, 200);
        assert!(body.contains(&format!("\"{name}\"")), "got: {body}");
        let (status, body) = http_request(
            &addr,
            "POST",
            &format!("/v1/models/{name}/assign"),
            "{\"points\":[[0.5,0.2],[9.0,9.0]]}",
        );
        assert_eq!(status, 200, "assign body: {body}");
        assert!(body.contains("\"clusters\""), "got: {body}");
        let (status, _) = http_request(&addr, "GET", &format!("/v1/models/{name}/health"), "");
        assert_eq!(status, 200);
        let (status, text) = http_request(&addr, "GET", "/metrics", "");
        assert_eq!(status, 200);
        assert!(text.contains("dbsvec_http_requests_total"), "got: {text}");

        handle.join().unwrap().unwrap();
        let text = buf.text();
        assert!(text.contains("4 requests handled"), "got: {text}");
        for f in [&data, &model] {
            std::fs::remove_file(f).ok();
        }
    }

    #[test]
    fn serve_http_flight_recorder_and_slow_logging() {
        let data = tempfile("http_fr.csv");
        let model = tempfile("http_fr.dbm");
        let data_s = data.to_str().unwrap();
        let model_s = model.to_str().unwrap().to_string();
        run_ok(&[
            "generate",
            "--dataset",
            "moons",
            "--n",
            "400",
            "--output",
            data_s,
        ]);
        run_ok(&[
            "fit",
            "--input",
            data_s,
            "--eps",
            "0.15",
            "--min-pts",
            "5",
            "--save",
            &model_s,
        ]);

        let buf = SharedBuf::default();
        let mut out = buf.clone();
        let model_arg = model_s.clone();
        let handle = std::thread::spawn(move || {
            run(
                [
                    "serve-http",
                    "--model",
                    &model_arg,
                    "--addr",
                    "127.0.0.1:0",
                    "--max-requests",
                    "3",
                    "--slow-request-ms",
                    "0",
                    "--trace-capacity",
                    "8",
                ]
                .iter()
                .map(|s| s.to_string())
                .collect(),
                &mut out,
            )
        });
        let addr = loop {
            if let Some(line) = buf.text().lines().find(|l| l.starts_with("listening on ")) {
                break line["listening on ".len()..]
                    .split_whitespace()
                    .next()
                    .unwrap()
                    .to_string();
            }
            std::thread::sleep(std::time::Duration::from_millis(5));
        };

        let (status, _) = http_request(&addr, "GET", "/healthz", "");
        assert_eq!(status, 200);
        let (status, body) = http_request(&addr, "GET", "/debug/requests", "");
        assert_eq!(status, 200);
        assert!(body.contains("\"endpoint\":\"healthz\""), "got: {body}");
        assert!(body.contains("\"slow\":true"), "got: {body}");
        assert!(body.contains("\"slow_threshold_ms\":0"), "got: {body}");
        let (status, _) = http_request(&addr, "GET", "/nope", "");
        assert_eq!(status, 404);

        handle.join().unwrap().unwrap();
        let text = buf.text();
        assert!(text.contains("slow-request threshold: 0ms"), "got: {text}");
        assert!(text.contains("slow request #1 healthz"), "got: {text}");
        assert!(text.contains("queue="), "got: {text}");
        for f in [&data, &model] {
            std::fs::remove_file(f).ok();
        }
    }

    #[test]
    fn serve_http_rejects_bad_flag_combinations() {
        let err = run_err(&["serve-http", "--model", "a.dbm,b.dbm", "--monitor"]);
        assert!(err.contains("--monitor"), "got: {err}");
        let err = run_err(&["serve-http", "--model", ""]);
        assert!(err.contains("at least one"), "got: {err}");
        let err = run_err(&["serve-http", "--model", "/nonexistent/x.dbm"]);
        assert!(err.contains("cannot load model"), "got: {err}");
    }
}
