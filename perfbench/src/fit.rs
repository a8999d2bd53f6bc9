//! The fit workloads: `fit_exact` and `fit_sampled`.
//!
//! Both fit the paper's Fig. 6a random-walk set with `Dbsvec::fit` at the
//! paper defaults (ν\*, T = 3, all cores). `fit_exact` is the paper's own
//! scalability workload at n = 10⁵, where SVDD solves and range queries
//! dominate and the exact-DBSCAN oracle is affordable. `fit_sampled` is the
//! same generator at n = 10⁶ with a 12.5% uniform core-candidate draw: the
//! same layers in other proportions (hundreds of seeds and sub-cluster
//! merges, thousands of SVDD solves, a larger share in the R\*-tree build).

use std::time::Instant;

use dbsvec_baselines::Dbscan;
use dbsvec_core::{Dbsvec, DbsvecConfig, DbsvecResult, DbsvecStats};
use dbsvec_datasets::{random_walk_clusters, Dataset, RandomWalkConfig};
use dbsvec_index::{KdTree, RStarTree};
use dbsvec_obs::Json;

use crate::checks;
use crate::layers::{kd_range_ns, read_probes, sq_dist_bytes, sq_dist_ns};
use crate::report::{median, peak_rss_mb, process_cpu_s, Outcome};
use crate::trace::{self, FitObserver, SmoTotals, Span, TimedIndex, Trace};

/// Read probes timed against the fitted cores by `index.kd_range_ns`.
pub const PROBES: usize = 4096;

/// One fit workload's inputs.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FitParams {
    /// Points generated.
    pub n: usize,
    /// Dimensionality.
    pub dims: usize,
    /// ε.
    pub eps: f64,
    /// MinPts.
    pub min_pts: usize,
    /// Uniform core-candidate rate (`None`: the exact fit).
    pub sample_rate: Option<f64>,
    /// Datasets per run. Timed fits go round-robin over them, so one
    /// random walk's shape moves a run's figures less.
    pub datasets: usize,
}

impl FitParams {
    /// `fit_exact`: the Fig. 6a workload at n = 10⁵.
    pub const FIT_EXACT: FitParams = FitParams {
        n: 100_000,
        dims: 8,
        eps: 5000.0,
        min_pts: 100,
        sample_rate: None,
        datasets: 4,
    };

    /// `fit_sampled`: the same generator at n = 10⁶, sampled at 12.5%.
    pub const FIT_SAMPLED: FitParams = FitParams {
        n: 1_000_000,
        sample_rate: Some(0.125),
        datasets: 1,
        ..Self::FIT_EXACT
    };

    /// The generator configuration: 10 walkers, 0.1% noise.
    pub fn walk(&self) -> RandomWalkConfig {
        RandomWalkConfig::paper_default(self.n, self.dims)
    }

    /// The generated dataset for `seed`.
    pub fn dataset(&self, seed: u64) -> Dataset {
        random_walk_clusters(&self.walk(), seed)
    }

    /// The seed of dataset `k` of the run seeded `seed` (distinct across
    /// runs and datasets).
    pub fn dataset_seed(&self, seed: u64, k: usize) -> u64 {
        seed.wrapping_mul(self.datasets as u64)
            .wrapping_add(k as u64)
    }

    /// The fit configuration: paper defaults, all cores, and the seeded
    /// candidate draw when sampled.
    pub fn config(&self, seed: u64) -> DbsvecConfig {
        let config = DbsvecConfig::new(self.eps, self.min_pts);
        match self.sample_rate {
            Some(rate) => config.with_uniform_sampling(rate, seed),
            None => config,
        }
    }

    /// The parameters as the result stamp records them.
    pub fn to_json(&self) -> Json {
        let w = self.walk();
        Json::obj([
            ("n", Json::UInt(self.n as u64)),
            ("dims", Json::UInt(self.dims as u64)),
            ("eps", Json::Num(self.eps)),
            ("min_pts", Json::UInt(self.min_pts as u64)),
            ("walkers", Json::UInt(w.clusters as u64)),
            ("noise_fraction", Json::Num(w.noise_fraction)),
            (
                "sample_rate",
                self.sample_rate.map_or(Json::Null, Json::Num),
            ),
            ("threads", Json::str("all cores")),
            ("datasets", Json::UInt(self.datasets as u64)),
        ])
    }
}

/// The layer breakdown of one traced fit.
#[derive(Clone, Debug)]
struct FitLayers {
    wall_s: f64,
    build_s: f64,
    range_calls: u64,
    range_busy_s: f64,
    range_results: u64,
    svdd_train_s: f64,
    init_self_s: f64,
    sv_expand_self_s: f64,
    noise_verify_s: f64,
    merge_s: f64,
    unattributed_s: f64,
    range_covered_s: f64,
    smo: SmoTotals,
}

/// Wall-clock covered by at least one range call, in seconds.
fn covered_seconds(calls: &[trace::RangeCall]) -> f64 {
    let mut spans: Vec<(u64, u64)> = calls.iter().map(|c| (c.start_ns, c.end_ns)).collect();
    spans.sort_unstable();
    let mut covered = 0u64;
    let mut cur: Option<(u64, u64)> = None;
    for (a, b) in spans {
        cur = match cur {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                covered += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    if let Some((ca, cb)) = cur {
        covered += cb - ca;
    }
    covered as f64 * 1e-9
}

/// A fit with every layer boundary traced: the R\*-tree build that `fit`
/// performs, each range call through a timing wrapper, and the phase spans
/// and SMO events the fit emits, all under one `fit` root span.
fn traced_fit(algo: &Dbsvec, data: &Dataset, trace: &mut Trace) -> (DbsvecResult, FitLayers) {
    let root = trace.next_id();
    let first = trace.spans.len();
    let t0 = trace.now_ns();
    let index = RStarTree::build(&data.points);
    let t1 = trace.now_ns();
    trace.push(Some(root), "index.build", t0, t1);
    let timed = TimedIndex::new(&index, trace.epoch());
    let (result, smo) = {
        let mut obs = FitObserver::new(trace, root);
        let result = algo.fit_with_index_observed(&data.points, &timed, &mut obs);
        (result, obs.smo)
    };
    let t2 = trace.now_ns();
    let calls = timed.into_calls();
    let phases: Vec<Span> = trace.spans[first..]
        .iter()
        .filter(|s| s.name != "index.build")
        .cloned()
        .collect();
    trace::attach_calls(trace, root, &phases, &calls);
    trace.spans.push(Span {
        id: root,
        parent: None,
        name: "fit",
        start_ns: t0,
        end_ns: t2,
        thread: 0,
    });
    let spans = &trace.spans[first..];
    let selfs = trace::self_times(spans);
    let secs = |name| trace::self_seconds(spans, &selfs, name);
    let layers = FitLayers {
        wall_s: (t2 - t0) as f64 * 1e-9,
        build_s: (t1 - t0) as f64 * 1e-9,
        range_calls: calls.len() as u64,
        range_busy_s: calls.iter().map(|c| c.end_ns - c.start_ns).sum::<u64>() as f64 * 1e-9,
        range_results: calls.iter().map(|c| c.results).sum(),
        svdd_train_s: secs("svdd.train"),
        init_self_s: secs("core.init"),
        sv_expand_self_s: secs("core.sv_expand"),
        noise_verify_s: secs("core.noise_verify"),
        merge_s: secs("core.merge"),
        unattributed_s: secs("fit"),
        range_covered_s: covered_seconds(&calls),
        smo,
    };
    (result, layers)
}

/// One dataset of a run and what its fits produced.
///
/// Only one dataset is in memory at a time — each fit regenerates its
/// input outside the timed region — so `peak_rss_mb` reflects one fit.
struct Input {
    seed: u64,
    algo: Dbsvec,
    /// Labels every fit of this dataset must reproduce.
    reference: Option<Vec<Option<u32>>>,
    core_points: Vec<u32>,
    ari: f64,
    walls: Vec<f64>,
    cpus: Vec<f64>,
}

/// A traced fit, the untraced fit of the same dataset just before it,
/// and what the fit reported.
struct Traced {
    layers: FitLayers,
    untraced_wall_s: f64,
    dataset: usize,
    stats: DbsvecStats,
    cores: Vec<u32>,
}

/// Checks a fit's labels against the dataset's first fit (whose labels,
/// cores and ARI against the generator it records).
fn check_labels(input: &mut Input, data: &Dataset, result: &DbsvecResult, out: &mut Outcome) {
    out.attempted += 1;
    let labels = result.labels().assignments();
    match &input.reference {
        Some(reference) => {
            if let Err(e) = checks::labels_identical(reference, labels) {
                out.fail(e);
            }
        }
        None => {
            input.ari = dbsvec_metrics::adjusted_rand_index(&data.truth, labels);
            input.reference = Some(labels.to_vec());
            input.core_points = result.core_points().to_vec();
        }
    }
}

/// The dataset's correctness check, outside every timed fit: recall 1.000
/// against exact DBSCAN for exact fits, the sampled contract otherwise.
fn check_outputs(params: &FitParams, input: &Input, threads: usize) -> Result<String, String> {
    let reference = input
        .reference
        .as_deref()
        .expect("every dataset was fitted");
    let data = params.dataset(input.seed);
    match params.sample_rate {
        None => {
            let oracle = Dbscan::new(params.eps, params.min_pts)
                .fit_with_index(&data.points, &KdTree::build(&data.points));
            checks::recall_is_one(oracle.clustering.assignments(), reference)
                .map(|r| format!("recall_vs_dbscan {r:.6} (exact DBSCAN over a kd-tree)"))
        }
        Some(_) => checks::sampled_contract(
            &data.points,
            reference,
            &input.core_points,
            params.eps,
            params.min_pts,
            threads,
        )
        .map(|()| {
            format!(
                "contract: {} cores each hold >= MinPts points within eps; every clustered \
                 point lies within eps of a core of its own cluster",
                input.core_points.len()
            )
        }),
    }
}

/// Runs a fit workload for `seconds` and checks its outputs.
///
/// Set-up is the first, untimed fit of each dataset. Timed fits then go
/// round-robin over the run's datasets until `seconds` have passed and
/// each dataset has at least one. With `traced`, each timed fit is followed by a traced
/// fit of the same dataset; the per-layer metrics come from the traced fit
/// of median wall-clock, and the spans are written to `trace_path`.
pub fn run_fit(
    params: &FitParams,
    seed: u64,
    seconds: f64,
    traced: bool,
    trace_path: Option<&std::path::Path>,
) -> Outcome {
    let mut out = Outcome::default();
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut inputs: Vec<Input> = (0..params.datasets.max(1))
        .map(|k| {
            let seed = params.dataset_seed(seed, k);
            Input {
                seed,
                algo: Dbsvec::new(params.config(seed)),
                reference: None,
                core_points: Vec::new(),
                ari: 0.0,
                walls: Vec::new(),
                cpus: Vec::new(),
            }
        })
        .collect();

    // Set-up: the first, untimed fit of each dataset (the run's very
    // first one is also cold). Several set-ups give a steadier median.
    let mut setups = Vec::with_capacity(inputs.len());
    for input in inputs.iter_mut() {
        let data = params.dataset(input.seed);
        let start = Instant::now();
        let first = input.algo.fit(&data.points);
        setups.push(start.elapsed().as_secs_f64());
        check_labels(input, &data, &first, &mut out);
    }
    let setup_s = median(&setups);

    let mut traced_runs: Vec<Traced> = Vec::new();
    let mut spans = Trace::new();
    let clock = Instant::now();
    for turn in 0.. {
        let k = turn % inputs.len();
        let input = &mut inputs[k];
        let data = params.dataset(input.seed);
        let cpu = process_cpu_s();
        let t = Instant::now();
        let result = input.algo.fit(&data.points);
        let wall = t.elapsed().as_secs_f64();
        input.cpus.push(process_cpu_s() - cpu);
        input.walls.push(wall);
        check_labels(input, &data, &result, &mut out);
        drop(result);
        if traced {
            let (result, layers) = traced_fit(&input.algo, &data, &mut spans);
            check_labels(input, &data, &result, &mut out);
            traced_runs.push(Traced {
                layers,
                untraced_wall_s: wall,
                dataset: k,
                stats: *result.stats(),
                cores: result.core_points().to_vec(),
            });
        }
        let covered = inputs.iter().all(|i| !i.walls.is_empty());
        if covered && clock.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    // The oracle and the contract check run after this read, so their
    // memory stays out of the workload's peak.
    let peak_rss = peak_rss_mb();

    // Oracles are single-threaded: check datasets side by side.
    let verdicts: Vec<Result<String, String>> = std::thread::scope(|scope| {
        let per = inputs.len().div_ceil(threads.max(1));
        let handles: Vec<_> = inputs
            .chunks(per.max(1))
            .map(|chunk| {
                scope.spawn(move || {
                    chunk
                        .iter()
                        .map(|input| check_outputs(params, input, threads))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("checks must not panic"))
            .collect()
    });
    let mut ari_sum = 0.0;
    for (input, verdict) in inputs.iter().zip(verdicts) {
        match verdict {
            Ok(note) => out
                .notes
                .push(format!("dataset seed {}: {note}", input.seed)),
            Err(e) => {
                // Every fit of the dataset produced these labels.
                let fits = input.walls.len() as u64 * (1 + traced as u64) + 1;
                out.failed = (out.failed + fits).min(out.attempted);
                out.problems
                    .push(format!("dataset seed {}: {e}", input.seed));
            }
        }
        let ari = input.ari;
        ari_sum += ari;
        out.notes.push(format!(
            "dataset seed {}: {} timed fits, median {:.4} s wall, {:.4} s cpu; {} cores; \
             ari_vs_truth {ari:.6}",
            input.seed,
            input.walls.len(),
            median(&input.walls),
            median(&input.cpus),
            input.core_points.len(),
        ));
    }
    let count = inputs.len() as f64;
    let fit_s = inputs.iter().map(|i| median(&i.walls)).sum::<f64>() / count;
    let cpu_s = inputs.iter().map(|i| median(&i.cpus)).sum::<f64>() / count;
    out.notes.push(format!(
        "fit_points_per_s {:.1} 1/s (n={} over the median fit wall-clock {fit_s:.4} s, averaged \
         over {} datasets); setup {setup_s:.4} s (median first fit per dataset)",
        params.n as f64 / fit_s,
        params.n,
        inputs.len(),
    ));

    if !traced {
        out.set("latency_p50_ms", fit_s * 1e3);
        out.set("cpu_ms_per_op", cpu_s * 1e3);
        out.set("ari_vs_truth", ari_sum / count);
        out.set("setup_s", setup_s);
        out.set("peak_rss_mb", peak_rss);
        return out;
    }

    let walls: Vec<f64> = traced_runs.iter().map(|t| t.layers.wall_s).collect();
    let overhead: Vec<f64> = traced_runs
        .iter()
        .map(|t| (t.layers.wall_s / t.untraced_wall_s - 1.0) * 100.0)
        .collect();
    let typical = traced_runs
        .iter()
        .find(|t| t.layers.wall_s == median(&walls))
        .expect("the median is one of the runs");
    let (l, stats) = (&typical.layers, &typical.stats);
    let input = &inputs[typical.dataset];
    let data = params.dataset(input.seed);
    let stats_n = data.len();
    out.set("index.build_s", l.build_s);
    out.set("index.range_calls", l.range_calls as f64);
    out.set("index.range_busy_s", l.range_busy_s);
    out.set(
        "index.range_result_mean",
        l.range_results as f64 / l.range_calls.max(1) as f64,
    );
    out.set("svdd.train_s", l.svdd_train_s);
    out.set("svdd.solves", l.smo.solves as f64);
    out.set("svdd.smo_iterations", l.smo.iterations as f64);
    out.set("svdd.max_target_size", l.smo.max_target_size as f64);
    let lookups = l.smo.cache_hits + l.smo.cache_misses;
    out.set(
        "svdd.cache_hit_ratio",
        l.smo.cache_hits as f64 / lookups.max(1) as f64,
    );
    out.set("core.theta", stats.theta(stats_n));
    out.set("core.init_self_s", l.init_self_s);
    out.set("core.sv_expand_self_s", l.sv_expand_self_s);
    out.set("core.noise_verify_s", l.noise_verify_s);
    out.set("core.merge_s", l.merge_s);
    out.set("core.seeds", stats.seeds as f64);
    out.set("core.merges", stats.merges as f64);
    out.set("obs.trace_overhead_pct", median(&overhead));
    out.set(
        "obs.accounted_pct",
        (1.0 - l.unattributed_s / l.wall_s) * 100.0,
    );
    out.set("geometry.sq_dist_ns", sq_dist_ns(&data.points));
    out.set("geometry.sq_dist_bytes", sq_dist_bytes(params.dims));
    let cores = data.points.subset(&typical.cores);
    let (probes, _) = read_probes(&data, &params.walk(), PROBES, input.seed);
    out.set(
        "index.kd_range_ns",
        kd_range_ns(&cores, &probes, params.eps),
    );
    out.notes.push(format!(
        "traced fit (dataset seed {}): wall {:.4} s = index build {:.4} + range calls {:.4} \
         (wall covered) + svdd {:.4} + init {:.4} + sv_expand {:.4} + noise_verify {:.4} \
         + merge {:.4} + unattributed {:.4}; range busy {:.4} s over {} calls; seeds {}, \
         merges {}, theta {:.4}",
        input.seed,
        l.wall_s,
        l.build_s,
        l.range_covered_s,
        l.svdd_train_s,
        l.init_self_s,
        l.sv_expand_self_s,
        l.noise_verify_s,
        l.merge_s,
        l.unattributed_s,
        l.range_busy_s,
        l.range_calls,
        stats.seeds,
        stats.merges,
        stats.theta(stats_n),
    ));
    if let Some(path) = trace_path {
        if let Err(e) = spans.write_jsonl(path, usize::MAX) {
            out.notes
                .push(format!("could not write spans to {}: {e}", path.display()));
        }
    }
    out
}
