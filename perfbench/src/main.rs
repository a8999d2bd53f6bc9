//! `perfbench --workload <name> --seed <n> --seconds <n> --trace <0|1>`
//!
//! Runs one workload and prints its stamp, a human-readable breakdown,
//! and, as the last line, the result:
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`. Workloads:
//! `fit_exact`, `fit_sampled`, `serve_mixed`. Traced runs (`--trace 1`)
//! print the per-layer metrics instead of the end-to-end ones and write
//! their spans to `.bench_work/trace-<workload>-<seed>.jsonl`.

use std::path::PathBuf;
use std::process::ExitCode;

use dbsvec_perfbench::report::stamp;
use dbsvec_perfbench::serve::{prepare_model, ModelSource, ServeParams};
use dbsvec_perfbench::{table, Workload};

const USAGE: &str =
    "usage: perfbench --workload fit_exact|fit_sampled|serve_mixed --seed N --seconds N --trace 0|1";

/// Where runs keep the served model and the trace files, relative to the
/// directory the benchmark runs in.
const WORK_DIR: &str = ".bench_work";

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    prepare_model: Option<PathBuf>,
}

fn parse() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 10.0,
        trace: false,
        prepare_model: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds.is_finite()) {
                    return Err("--seconds must be positive".to_string());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--prepare-model" => args.prepare_model = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some(path) = &args.prepare_model {
        // The serving workload fits its model in this child process, so
        // the fit's memory stays out of the server's peak RSS.
        return match prepare_model(&ServeParams::SERVE_MIXED.fit, args.seed, path) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("{e}");
                ExitCode::FAILURE
            }
        };
    }
    let Some(name) = args.workload else {
        eprintln!("--workload is required\n{USAGE}");
        return ExitCode::from(2);
    };
    let Some(workload) = Workload::named(&name) else {
        eprintln!("unknown workload {name}\n{USAGE}");
        return ExitCode::from(2);
    };
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("cannot locate this executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let run_dir =
        PathBuf::from(WORK_DIR).join(format!("{name}-{}-{}", args.seed, std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&run_dir) {
        eprintln!("cannot create {}: {e}", run_dir.display());
        return ExitCode::FAILURE;
    }
    let trace_path = PathBuf::from(WORK_DIR).join(format!("trace-{name}-{}.jsonl", args.seed));

    println!(
        "{}",
        stamp(
            &name,
            args.seed,
            args.seconds,
            args.trace,
            workload.params_json()
        )
    );
    let out = workload.run(
        args.seed,
        args.seconds,
        args.trace,
        &run_dir,
        ModelSource::Child(&exe),
        args.trace.then_some(trace_path.as_path()),
    );
    let _ = std::fs::remove_dir_all(&run_dir);
    for note in &out.notes {
        println!("# {note}");
    }
    for problem in &out.problems {
        println!("# FAILED: {problem}");
    }
    if args.trace {
        println!("# spans: {}", trace_path.display());
    }
    println!("{}", out.result_line(table(args.trace)));
    ExitCode::SUCCESS
}
