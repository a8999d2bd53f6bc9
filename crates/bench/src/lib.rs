//! Benchmark harness reproducing every table and figure of the DBSVEC
//! paper's evaluation (§V).
//!
//! Each binary in `src/bin/` regenerates one experiment and prints rows
//! directly comparable with the paper:
//!
//! | binary | paper artifact |
//! |---|---|
//! | `fig1_visual` | Fig. 1 — DBSCAN vs DBSVEC on t4.8k (+ per-point CSV) |
//! | `table2_complexity` | Table II — empirical θ decomposition |
//! | `table3_accuracy` | Table III — recall over the 11 open datasets |
//! | `table4_validation` | Table IV — compactness/separation vs k-means |
//! | `fig6_scalability` | Fig. 6 — runtime vs n / d / real-world datasets |
//! | `fig7_radius` | Fig. 7 — runtime vs ε |
//! | `fig8_penalty` | Fig. 8 — runtime vs ν |
//! | `fig9_ablation` | Fig. 9 — SVDD improvement ablations |
//!
//! Absolute timings will differ from the paper's C++/libsvm testbed; the
//! *shape* (who wins, growth trends, crossovers) is the reproduction
//! target. `EXPERIMENTS.md` records both. All binaries accept `--scale`
//! to shrink or grow the workloads and `--budget-secs` to skip algorithms
//! once a sweep's time budget is spent.

pub mod harness;
pub mod micro;
pub mod runners;

pub use harness::{parse_args, BenchArgs, JsonReport, Stopwatch};
pub use runners::{
    run_algorithm, run_algorithm_observed, run_algorithm_profiled, run_dbsvec_config_profiled,
    Algorithm, RunOutcome,
};
