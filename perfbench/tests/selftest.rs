//! Self-test: tiny versions of the three workloads run end to end, every
//! named metric appears with its unit, and every output check rejects a
//! deliberately wrong answer.

use std::path::PathBuf;

use dbsvec_core::Dbsvec;
use dbsvec_geometry::PointSet;
use dbsvec_obs::Json;
use dbsvec_perfbench::checks::{self, EngineCounts};
use dbsvec_perfbench::fit::FitParams;
use dbsvec_perfbench::report::{END_TO_END, PER_LAYER};
use dbsvec_perfbench::serve::{ModelSource, ServeParams};
use dbsvec_perfbench::{table, Workload};

const TINY_EXACT: FitParams = FitParams {
    n: 3000,
    dims: 8,
    eps: 5000.0,
    min_pts: 20,
    sample_rate: None,
    datasets: 2,
};

const TINY_SAMPLED: FitParams = FitParams {
    n: 6000,
    sample_rate: Some(0.25),
    datasets: 1,
    ..TINY_EXACT
};

const TINY_SERVE: ServeParams = ServeParams {
    fit: TINY_EXACT,
    probes: 256,
    setups: 2,
    warmup: 2,
    ..ServeParams::SERVE_MIXED
};

fn work_dir(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::create_dir_all(&dir).expect("test scratch dir");
    dir
}

/// Runs a tiny workload and checks the printed result against the metric
/// table: correct, nothing failed, every metric present with its unit.
fn run_tiny(name: &str, workload: Workload, seconds: f64, traced: bool) -> Json {
    let dir = work_dir(&format!("{name}-{traced}"));
    let trace_path = dir.join("trace.jsonl");
    let out = workload.run(
        7,
        seconds,
        traced,
        &dir,
        ModelSource::InProcess,
        traced.then_some(trace_path.as_path()),
    );
    assert!(
        out.correct(),
        "{name}: {:?} (notes {:?})",
        out.problems,
        out.notes
    );
    assert_eq!(out.failed, 0);
    assert!(out.attempted >= 1);
    let line = out.result_line(table(traced));
    let result = dbsvec_obs::json::parse(&line).expect("the result line is JSON");
    let Some(Json::Obj(metrics)) = result.get("metrics") else {
        panic!("{name}: no metrics object in {line}")
    };
    let names: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
    let want: Vec<&str> = table(traced).iter().map(|(n, _)| *n).collect();
    assert_eq!(names, want, "{name}: metric names");
    for ((metric, value), (_, unit)) in metrics.iter().zip(table(traced)) {
        assert_eq!(value.get("unit"), Some(&Json::str(*unit)), "{metric}");
        let Some(Json::Num(v)) = value.get("value") else {
            panic!("{name}: {metric} has no numeric value")
        };
        assert!(v.is_finite(), "{name}: {metric} = {v}");
        if !traced {
            assert!(*v > 0.0, "{name}: end-to-end {metric} must never be 0");
        }
    }
    if traced {
        let spans = std::fs::read_to_string(&trace_path).expect("spans were written");
        assert!(spans.lines().count() > 0, "{name}: empty span file");
    }
    result
}

fn metric(result: &Json, name: &str) -> f64 {
    match result
        .get("metrics")
        .and_then(|m| m.get(name))
        .and_then(|m| m.get("value"))
    {
        Some(Json::Num(v)) => *v,
        other => panic!("{name}: {other:?}"),
    }
}

#[test]
fn tiny_fit_exact_runs_end_to_end() {
    run_tiny("fit_exact", Workload::Fit(TINY_EXACT), 0.2, false);
    let traced = run_tiny("fit_exact", Workload::Fit(TINY_EXACT), 0.2, true);
    // The svdd, index and core self-times account for the traced fit.
    assert!(metric(&traced, "obs.accounted_pct") > 95.0);
    assert!(metric(&traced, "svdd.solves") > 0.0);
    assert!(metric(&traced, "index.range_calls") > 0.0);
    assert_eq!(metric(&traced, "engine.promotions"), 0.0);
}

#[test]
fn tiny_fit_sampled_runs_end_to_end() {
    run_tiny("fit_sampled", Workload::Fit(TINY_SAMPLED), 0.2, false);
    let traced = run_tiny("fit_sampled", Workload::Fit(TINY_SAMPLED), 0.2, true);
    assert!(metric(&traced, "core.seeds") > 0.0);
}

#[test]
fn tiny_serve_mixed_runs_end_to_end() {
    run_tiny("serve_mixed", Workload::Serve(TINY_SERVE), 2.0, false);
    let traced = run_tiny("serve_mixed", Workload::Serve(TINY_SERVE), 2.0, true);
    for layer in [
        "engine.promotions",
        "engine.merges",
        "engine.demotions",
        "engine.splits",
        "engine.tree_rebuilds",
        "server.router_us",
    ] {
        assert!(metric(&traced, layer) > 0.0, "{layer}");
    }
    assert_eq!(metric(&traced, "engine.remove_found_ratio"), 1.0);
    assert_eq!(metric(&traced, "svdd.solves"), 0.0);
}

#[test]
fn benchmark_json_names_every_metric_and_workload() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let spec = dbsvec_obs::json::parse(&text).expect("BENCHMARK.json parses");
    let list = |key: &str| -> Vec<(String, String)> {
        let Some(Json::Arr(items)) = spec.get(key) else {
            panic!("{key} is not a list")
        };
        items
            .iter()
            .map(|m| {
                let s = |k: &str| match m.get(k) {
                    Some(Json::Str(s)) => s.clone(),
                    _ => String::new(),
                };
                (s("name"), s("unit"))
            })
            .collect()
    };
    let own = |t: &[(&str, &str)]| -> Vec<(String, String)> {
        t.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(list("end_to_end"), own(&END_TO_END));
    assert_eq!(list("per_layer"), own(&PER_LAYER));
    for (name, _) in list("workloads") {
        assert!(Workload::named(&name).is_some(), "unknown workload {name}");
    }
}

fn tiny_fit(params: &FitParams) -> (PointSet, Vec<Option<u32>>, Vec<u32>) {
    let seed = params.dataset_seed(7, 0);
    let data = params.dataset(seed);
    let result = Dbsvec::new(params.config(seed)).fit(&data.points);
    let labels = result.labels().assignments().to_vec();
    (data.points, labels, result.core_points().to_vec())
}

#[test]
fn fit_checks_reject_a_relabelled_point() {
    let (_, labels, cores) = tiny_fit(&TINY_EXACT);
    assert!(checks::labels_identical(&labels, &labels).is_ok());
    let mut wrong = labels.clone();
    let p = cores[0] as usize;
    wrong[p] = wrong[p].map(|c| c + 1);
    assert!(checks::labels_identical(&labels, &wrong).is_err());

    assert_eq!(checks::recall_is_one(&labels, &labels), Ok(1.0));
    // Split one cluster in two: pairs across the cut are lost.
    let mut split = labels.clone();
    let fresh = split.iter().flatten().max().expect("clusters") + 1;
    for l in split.iter_mut().step_by(2) {
        if *l == Some(0) {
            *l = Some(fresh);
        }
    }
    assert!(checks::recall_is_one(&labels, &split).is_err());
}

#[test]
fn sampled_contract_rejects_wrong_cores_and_labels() {
    let p = TINY_SAMPLED;
    let (points, labels, cores) = tiny_fit(&p);
    assert!(checks::sampled_contract(&points, &labels, &cores, p.eps, p.min_pts, 2).is_ok());

    // A clustered point moved to a cluster with no core near it.
    let mut wrong = labels.clone();
    let fresh = wrong.iter().flatten().max().expect("clusters") + 1;
    let i = wrong
        .iter()
        .position(|l| l.is_some())
        .expect("a clustered point");
    wrong[i] = Some(fresh);
    assert!(checks::sampled_contract(&points, &wrong, &cores, p.eps, p.min_pts, 2).is_err());

    // A point reported as core without MinPts neighbours.
    let mut sparse = cores.clone();
    sparse.push(points.len() as u32 - 1);
    let mut far = points.clone();
    far.point_mut(points.len() as u32 - 1)[0] = 1e9;
    let mut relabelled = labels.clone();
    relabelled[points.len() - 1] = labels[cores[0] as usize];
    assert!(checks::sampled_contract(&far, &relabelled, &sparse, p.eps, p.min_pts, 2).is_err());
}

#[test]
fn serve_checks_reject_wrong_reads_and_end_states() {
    let body = r#"{"model":"model","cluster":3}"#;
    assert!(checks::read_matches(body, &[Some(3)]));
    assert!(
        !checks::read_matches(body, &[Some(4)]),
        "wrong shadow label"
    );
    assert!(!checks::read_matches(body, &[None]));
    let batch = r#"{"model":"model","count":2,"clusters":[1,null]}"#;
    assert!(checks::read_matches(batch, &[Some(1), None]));
    assert!(!checks::read_matches(batch, &[Some(1), Some(1)]));

    let counts = EngineCounts {
        core_points: 10,
        clusters: 2,
        promotions: 5,
        merges: 1,
        demotions: 3,
        splits: 1,
        removals: 4,
        remove_misses: 0,
    };
    assert!(checks::end_state_matches(&counts, &counts).is_ok());
    let off_by_one = EngineCounts {
        clusters: 3,
        ..counts
    };
    assert!(checks::end_state_matches(&off_by_one, &counts).is_err());
    assert!(checks::write_paths_exercised(&counts, 1).is_ok());
    assert!(checks::write_paths_exercised(&counts, 0).is_err());
    let no_splits = EngineCounts {
        splits: 0,
        ..counts
    };
    assert!(checks::write_paths_exercised(&no_splits, 1).is_err());

    let cores = PointSet::from_rows(&[vec![0.0, 0.0], vec![10.0, 0.0]]);
    let probes = PointSet::from_rows(&[vec![0.0, 10.0]]);
    let far: &[f64] = &[100.0, 100.0];
    let near_core: &[f64] = &[10.5, 0.0];
    let near_probe: &[f64] = &[0.0, 9.0];
    assert!(checks::writes_far([far], &cores, &probes, 2.0).is_ok());
    assert!(checks::writes_far([far, near_core], &cores, &probes, 2.0).is_err());
    assert!(checks::writes_far([near_probe], &cores, &probes, 2.0).is_err());
}
