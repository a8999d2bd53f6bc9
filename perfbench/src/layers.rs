//! Inputs and layer timings every workload shares: the read probes, and
//! the per-call timings of the distance kernel and the kd-tree range
//! query.

use std::hint::black_box;
use std::time::Instant;

use dbsvec_datasets::{Dataset, RandomWalkConfig};
use dbsvec_geometry::rng::SplitMix64;
use dbsvec_geometry::{squared_euclidean, PointSet};
use dbsvec_index::{OwnedKdTree, RangeIndex};

use crate::report::median;

/// Salt separating the probe stream from the dataset's own seed.
const PROBE_SALT: u64 = 0x5eed_0f9e_0be5;

/// Read probes drawn from the dataset's own distribution with another
/// seed: random dataset points, each coordinate moved by up to one walk
/// step and rounded to an integer (so every probe survives the HTTP
/// round trip bit for bit). Returns the probes and the generator's label
/// of the point each came from.
pub fn read_probes(
    data: &Dataset,
    walk: &RandomWalkConfig,
    count: usize,
    seed: u64,
) -> (PointSet, Vec<Option<u32>>) {
    let mut rng = SplitMix64::new(seed ^ PROBE_SALT);
    let step = walk.step_fraction * walk.domain;
    let mut probes = PointSet::with_capacity(data.dims(), count);
    let mut truth = Vec::with_capacity(count);
    let mut row = vec![0.0; data.dims()];
    for _ in 0..count {
        let i = rng.next_below(data.len() as u64) as u32;
        for (x, &v) in row.iter_mut().zip(data.points.point(i)) {
            *x = (v + rng.next_f64_range(-step, step)).round();
        }
        probes.push(&row);
        truth.push(data.truth[i as usize]);
    }
    (probes, truth)
}

/// Median nanoseconds per `squared_euclidean` call over consecutive row
/// pairs of `points`.
pub fn sq_dist_ns(points: &PointSet) -> f64 {
    const CALLS: usize = 1 << 16;
    let n = points.len();
    if n < 2 {
        return 0.0;
    }
    let rounds: Vec<f64> = (0..15)
        .map(|_| {
            let mut i = 0;
            let mut acc = 0.0;
            let start = Instant::now();
            for _ in 0..CALLS {
                acc += squared_euclidean(
                    black_box(points.point(i as u32)),
                    black_box(points.point(i as u32 + 1)),
                );
                i += 1;
                if i + 1 == n {
                    i = 0;
                }
            }
            black_box(acc);
            start.elapsed().as_nanos() as f64 / CALLS as f64
        })
        .collect();
    median(&rounds)
}

/// Bytes one `squared_euclidean` call reads: two rows of `dims` f64s
/// (computed from the row size, not measured).
pub fn sq_dist_bytes(dims: usize) -> f64 {
    (2 * dims * std::mem::size_of::<f64>()) as f64
}

/// Median nanoseconds per `OwnedKdTree::range` call over the model's
/// cores at the read probes.
pub fn kd_range_ns(cores: &PointSet, probes: &PointSet, eps: f64) -> f64 {
    if cores.is_empty() || probes.is_empty() {
        return 0.0;
    }
    let tree = OwnedKdTree::build(cores.clone());
    let mut hits = Vec::new();
    let rounds: Vec<f64> = (0..5)
        .map(|_| {
            let start = Instant::now();
            for (_, p) in probes.iter() {
                hits.clear();
                tree.range(black_box(p), eps, &mut hits);
                black_box(hits.len());
            }
            start.elapsed().as_nanos() as f64 / probes.len() as f64
        })
        .collect();
    median(&rounds)
}
