//! The repository benchmark: three workloads that load different layers
//! of the DBSVEC stack, each measured end to end (untraced) or layer by
//! layer (traced), with every output checked. See `README.md` in this
//! directory for why each workload exists and which layer metric should
//! move which end-to-end metric.

pub mod checks;
pub mod fit;
pub mod layers;
pub mod report;
pub mod serve;
pub mod trace;

use std::path::Path;

use dbsvec_obs::Json;

use crate::fit::FitParams;
use crate::report::{Outcome, END_TO_END, PER_LAYER};
use crate::serve::{ModelSource, ServeParams};

/// A workload and its inputs.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Workload {
    /// `fit_exact` or `fit_sampled`.
    Fit(FitParams),
    /// `serve_mixed`.
    Serve(ServeParams),
}

impl Workload {
    /// The workload named `name` at full size.
    pub fn named(name: &str) -> Option<Workload> {
        match name {
            "fit_exact" => Some(Workload::Fit(FitParams::FIT_EXACT)),
            "fit_sampled" => Some(Workload::Fit(FitParams::FIT_SAMPLED)),
            "serve_mixed" => Some(Workload::Serve(ServeParams::SERVE_MIXED)),
            _ => None,
        }
    }

    /// The inputs as the result stamp records them.
    pub fn params_json(&self) -> Json {
        match self {
            Workload::Fit(p) => p.to_json(),
            Workload::Serve(p) => p.to_json(),
        }
    }

    /// Runs the workload for `seconds`. `work_dir` receives the served
    /// model; `trace_path`, when traced, the spans.
    pub fn run(
        &self,
        seed: u64,
        seconds: f64,
        traced: bool,
        work_dir: &Path,
        source: ModelSource<'_>,
        trace_path: Option<&Path>,
    ) -> Outcome {
        let mut out = match self {
            Workload::Fit(p) => fit::run_fit(p, seed, seconds, traced, trace_path),
            Workload::Serve(p) => {
                serve::run_serve(p, seed, seconds, traced, work_dir, source, trace_path)
            }
        };
        if traced {
            // Layers the workload does not exercise read 0.
            out.zero_missing(&PER_LAYER);
        }
        out
    }
}

/// The metric table a run prints.
pub fn table(traced: bool) -> &'static [(&'static str, &'static str)] {
    if traced {
        &PER_LAYER
    } else {
        &END_TO_END
    }
}
