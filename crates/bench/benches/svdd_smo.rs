//! Microbenchmark: the SMO solver and its supporting pieces.
//!
//! Validates the §IV-D cost claims: training time should grow roughly
//! linearly in the target size ñ when ν (and hence the active set) is
//! small, and the O(ñ) weight proxy should beat the exact O(ñ²) Eq. 5
//! kernel distance by a widening margin.

use dbsvec_bench::micro::{black_box, Runner};
use dbsvec_datasets::gaussian_mixture;
use dbsvec_geometry::{PointId, PointSet};
use dbsvec_svdd::{
    centroid_distances, kernel_distances, kernel_width_center_radius, penalty_weights,
    GaussianKernel, SmoOptions, SolverSession, SvddProblem, WeightOptions,
};

fn main() {
    let runner = Runner::from_env("svdd_smo");
    bench_smo(&runner);
    bench_warm_vs_cold(&runner);
    bench_weights(&runner);
    bench_kernel_distance(&runner);
}

fn target(n: usize) -> (PointSet, Vec<PointId>) {
    let ds = gaussian_mixture(n, 8, 1, 1000.0, 1e5, 7);
    (ds.points, (0..n as u32).collect())
}

fn bench_smo(runner: &Runner) {
    println!("smo_solve");
    let sizes = if runner.is_quick() {
        vec![200usize]
    } else {
        vec![200usize, 800, 3200]
    };
    for &n in &sizes {
        let (points, ids) = target(n);
        let sigma = kernel_width_center_radius(&points, &ids);
        let kernel = GaussianKernel::from_width(sigma);
        runner.bench(&format!("nu_small/{n}"), || {
            SvddProblem::new(black_box(&points), &ids, kernel)
                .with_nu(0.05)
                .solve()
                .num_support_vectors()
        });
        runner.bench(&format!("nu_large/{n}"), || {
            SvddProblem::new(black_box(&points), &ids, kernel)
                .with_nu(0.5)
                .solve()
                .num_support_vectors()
        });
    }
}

/// Expansion-shaped solve sequence: three rounds over a growing prefix of
/// one blob, σ re-resolved per round, sharing one [`SolverSession`] — the
/// exact access pattern `sv_expand_cluster` drives. Warm start must not
/// cost iterations versus a cold fill of the same rounds; under
/// `MICROBENCH_ENFORCE=1` that envelope is asserted, not just printed.
fn bench_warm_vs_cold(runner: &Runner) {
    println!("smo_warm_vs_cold");
    let n = runner.size(2400, 600);
    let (points, ids) = target(n);
    let rounds = [n / 2, (3 * n) / 4, n];
    let run = |options: SmoOptions| -> usize {
        let mut session = SolverSession::new();
        let mut iters = 0usize;
        for &end in &rounds {
            let ids = &ids[..end];
            let sigma = kernel_width_center_radius(&points, ids);
            let model =
                SvddProblem::new(black_box(&points), ids, GaussianKernel::from_width(sigma))
                    .with_nu(0.1)
                    .with_options(options)
                    .with_session(&mut session)
                    .solve();
            assert!(model.converged(), "round at n={end} must converge");
            iters += model.iterations();
        }
        iters
    };
    let warm_opts = SmoOptions::default();
    let cold_opts = SmoOptions {
        warm_start: false,
        ..SmoOptions::default()
    };
    let (warm_iters, cold_iters) = (run(warm_opts), run(cold_opts));
    let saved = 100.0 * (cold_iters as f64 - warm_iters as f64) / cold_iters as f64;
    println!("  iterations: warm={warm_iters} cold={cold_iters} ({saved:+.1}% saved)");
    if std::env::var_os("MICROBENCH_ENFORCE").is_some_and(|v| v == "1") {
        assert!(
            warm_iters <= cold_iters,
            "warm start must not cost iterations: warm={warm_iters} cold={cold_iters}"
        );
    }
    runner.bench("warm/3_rounds", || run(warm_opts));
    runner.bench("cold/3_rounds", || run(cold_opts));
}

fn bench_weights(runner: &Runner) {
    println!("penalty_weights");
    let sizes = if runner.is_quick() {
        vec![500usize]
    } else {
        vec![500usize, 2000]
    };
    for &n in &sizes {
        let (points, ids) = target(n);
        let kernel = GaussianKernel::from_width(kernel_width_center_radius(&points, &ids));
        let counts = vec![0u32; n];
        runner.bench(&format!("proxy_linear/{n}"), || {
            penalty_weights(
                black_box(&points),
                &ids,
                &counts,
                kernel,
                1.0,
                WeightOptions::default(),
            )
            .len()
        });
        let opts = WeightOptions {
            exact_kernel_distance: true,
            ..Default::default()
        };
        runner.bench(&format!("exact_quadratic/{n}"), || {
            penalty_weights(black_box(&points), &ids, &counts, kernel, 1.0, opts).len()
        });
    }
}

fn bench_kernel_distance(runner: &Runner) {
    let n = runner.size(1000, 300);
    println!("kernel_distance (n={n})");
    let (points, ids) = target(n);
    let kernel = GaussianKernel::from_width(kernel_width_center_radius(&points, &ids));
    runner.bench("exact_eq5", || {
        kernel_distances(black_box(&points), &ids, kernel).len()
    });
    runner.bench("centroid_proxy", || {
        centroid_distances(black_box(&points), &ids).len()
    });
}
