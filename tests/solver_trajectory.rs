//! Pins the SVDD solver's trajectory on one fixed fit, bit for bit.
//!
//! The solver's kernel storage is a performance detail: how rows are
//! cached, packed, or evicted must never change a kernel value or the
//! order of an accumulation. This test fixes the observable trace of that
//! arithmetic on the paper's random-walk workload — every SMO solve's
//! target size, iteration count, warm-start flag, termination, and
//! initial KKT violation (in microunits), plus digests of the labels and
//! the core set and every [`DbsvecStats`] counter — at 1 and 4 threads.
//! A storage change that moves any of these has changed the solver's
//! numerics, not just its speed.
//!
//! A second fit runs the same workload with every coordinate rounded to a
//! multiple of 400. Rounded coordinates tie constantly — in distances,
//! kernel values, gradients and per-dimension split keys — so that fit
//! pins the tie rules end to end: every selection keeps the first index
//! among equal values, and the kd-tree build keeps its order among equal
//! coordinates.
//!
//! The cache hit/miss counters are deliberately not pinned: they describe
//! the storage, which is free to change.

use dbsvec::core::DbsvecStats;
use dbsvec::datasets::{random_walk_clusters, RandomWalkConfig};
use dbsvec::obs::{Event, RecordingObserver};
use dbsvec::{Dbsvec, DbsvecConfig, PointSet};

/// `(target_size, iterations, warm_started, converged,
/// initial_kkt_violation_e6)` of one solve.
type Solve = (usize, usize, bool, bool, u64);

/// Each solve of the random-walk fit, in fit order.
const SOLVES: [Solve; 28] = [
    (617, 83, false, true, 882027),
    (767, 61, true, true, 811815),
    (232, 52, false, true, 1563728),
    (592, 73, true, true, 1374329),
    (773, 49, true, true, 791899),
    (407, 59, false, true, 1455955),
    (861, 53, true, true, 894275),
    (867, 30, true, true, 611532),
    (557, 59, false, true, 1299832),
    (812, 57, true, true, 921704),
    (438, 56, false, true, 1413549),
    (782, 68, true, true, 938084),
    (786, 46, true, true, 456865),
    (401, 52, false, true, 1397128),
    (790, 54, true, true, 1052051),
    (345, 53, false, true, 1469880),
    (614, 65, true, true, 1171952),
    (810, 57, true, true, 844716),
    (334, 71, false, true, 1552430),
    (789, 75, true, true, 895837),
    (192, 41, false, true, 1347910),
    (442, 58, true, true, 1156659),
    (769, 55, true, true, 801289),
    (798, 39, true, true, 704886),
    (101, 41, false, true, 1629087),
    (430, 57, true, true, 1203209),
    (755, 61, true, true, 790257),
    (798, 49, true, true, 691913),
];

/// FNV-1a of the labels, noise encoded as `u32::MAX`.
const LABELS_FNV: u64 = 0x56b7_54bd_dd4e_042e;
/// FNV-1a of `core_points()` in reported order.
const CORES_FNV: u64 = 0xd2d2_068a_edc7_4583;

const STATS: DbsvecStats = DbsvecStats {
    seeds: 10,
    svdd_trainings: 28,
    support_vectors: 1126,
    core_support_vectors: 812,
    merges: 0,
    noise_candidates: 10,
    noise_confirmed: 10,
    range_queries: 841,
    expansion_rounds: 28,
    max_target_size: 867,
    smo_iterations: 1574,
    warm_started_trainings: 18,
    iterations_exhausted: 0,
    initial_kkt_violation_e6: 30124798,
    sampled_candidates: 0,
    attachment_candidates: 0,
    attached_points: 0,
};

/// Each solve of the grid-rounded fit, in fit order.
const ROUNDED_SOLVES: [Solve; 28] = [
    (612, 83, false, true, 902899),
    (767, 43, true, true, 783824),
    (227, 53, false, true, 1651429),
    (582, 65, true, true, 1281685),
    (773, 41, true, true, 816660),
    (410, 51, false, true, 1404579),
    (865, 47, true, true, 850283),
    (867, 30, true, true, 702934),
    (555, 76, false, true, 1366794),
    (812, 59, true, true, 994161),
    (408, 45, false, true, 1350531),
    (785, 80, true, true, 957373),
    (786, 44, true, true, 519119),
    (372, 44, false, true, 1384385),
    (790, 43, true, true, 1029095),
    (358, 61, false, true, 1451632),
    (621, 75, true, true, 946482),
    (810, 57, true, true, 1007628),
    (314, 51, false, true, 1409957),
    (789, 84, true, true, 899634),
    (192, 56, false, true, 1164190),
    (449, 47, true, true, 1148841),
    (784, 57, true, true, 806957),
    (798, 33, true, true, 801712),
    (103, 31, false, true, 1579616),
    (512, 48, true, true, 1207944),
    (751, 58, true, true, 789408),
    (798, 51, true, true, 770422),
];

/// Rounding moves no point to another cluster: the digest equals
/// [`LABELS_FNV`].
const ROUNDED_LABELS_FNV: u64 = 0x56b7_54bd_dd4e_042e;
const ROUNDED_CORES_FNV: u64 = 0x08a8_5cbd_d146_8710;

const ROUNDED_STATS: DbsvecStats = DbsvecStats {
    seeds: 10,
    svdd_trainings: 28,
    support_vectors: 1072,
    core_support_vectors: 751,
    merges: 0,
    noise_candidates: 10,
    noise_confirmed: 10,
    range_queries: 778,
    expansion_rounds: 28,
    max_target_size: 867,
    smo_iterations: 1513,
    warm_started_trainings: 18,
    iterations_exhausted: 0,
    initial_kkt_violation_e6: 29980174,
    sampled_candidates: 0,
    attachment_candidates: 0,
    attached_points: 0,
};

/// FNV-1a 64 over the little-endian bytes of `words`.
fn fnv1a(words: impl IntoIterator<Item = u32>) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for word in words {
        for byte in word.to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}

/// Fits `points` at ε = 5000, MinPts = 100 on 1 and 4 threads and checks
/// the solve trajectory, the label and core digests, and the stats.
fn assert_pinned_fit(
    points: &PointSet,
    want_solves: &[Solve],
    labels_fnv: u64,
    cores_fnv: u64,
    stats: &DbsvecStats,
) {
    for threads in [1usize, 4] {
        let mut recorder = RecordingObserver::new();
        let result = Dbsvec::new(DbsvecConfig::new(5000.0, 100).with_threads(threads))
            .fit_observed(points, &mut recorder);

        let solves: Vec<Solve> = recorder
            .events()
            .filter_map(|e| match e {
                Event::SmoSolve {
                    target_size,
                    iterations,
                    warm_started,
                    converged,
                    initial_kkt_violation_e6,
                    ..
                } => Some((
                    *target_size,
                    *iterations,
                    *warm_started,
                    *converged,
                    *initial_kkt_violation_e6,
                )),
                _ => None,
            })
            .collect();
        assert_eq!(
            solves, want_solves,
            "threads={threads}: SMO solve trajectory"
        );

        let labels = result
            .labels()
            .assignments()
            .iter()
            .map(|a| a.unwrap_or(u32::MAX));
        assert_eq!(fnv1a(labels), labels_fnv, "threads={threads}: labels");
        assert_eq!(
            fnv1a(result.core_points().iter().copied()),
            cores_fnv,
            "threads={threads}: core points"
        );
        assert_eq!(result.stats(), stats, "threads={threads}: stats");
    }
}

#[test]
fn random_walk_fit_follows_the_pinned_solver_trajectory() {
    let ds = random_walk_clusters(&RandomWalkConfig::paper_default(8000, 8), 3);
    assert_pinned_fit(&ds.points, &SOLVES, LABELS_FNV, CORES_FNV, &STATS);
}

#[test]
fn grid_rounded_fit_follows_the_pinned_solver_trajectory() {
    let ds = random_walk_clusters(&RandomWalkConfig::paper_default(8000, 8), 3);
    let rounded = ds
        .points
        .as_flat()
        .iter()
        .map(|&x| (x / 400.0).round() * 400.0)
        .collect();
    let points = PointSet::from_flat(ds.points.dims(), rounded);
    assert_pinned_fit(
        &points,
        &ROUNDED_SOLVES,
        ROUNDED_LABELS_FNV,
        ROUNDED_CORES_FNV,
        &ROUNDED_STATS,
    );
}
