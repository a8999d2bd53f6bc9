//! Scoped-thread fan-out for the sampled fit's attachment pass.
//!
//! Each lookup is a pure function of `(probe point, eps, core tree)` and
//! the tree is immutable once built, so a batch of lookups can run on any
//! number of worker threads and still produce exactly the results a
//! sequential loop would. Determinism comes from *where the results go*,
//! not where they are computed: probes are chunked in order, chunks are
//! joined in spawn order, and the caller consumes the merged results in
//! the original probe order. Expansion's range queries do not come here:
//! a round holds a handful of probes, too few to pay for a spawn.

use dbsvec_geometry::{PointId, PointSet};
use dbsvec_index::{KdTree, RangeIndex};

/// Nearest discovered core within ε for one probe point: the raw working
/// cluster id of the closest entry of `cores`, ties broken toward the
/// core the kd-tree reports first (a fixed order — the tree is built once
/// on the driving thread). A pure function of immutable inputs, so the
/// batched fan-out below is bit-deterministic at every thread count.
fn nearest_core_cid(
    probe: &[f64],
    cores: &PointSet,
    tree: &KdTree,
    core_cids: &[u32],
    eps: f64,
    hits: &mut Vec<PointId>,
) -> Option<u32> {
    hits.clear();
    tree.range(probe, eps, hits);
    hits.iter()
        .map(|&c| (cores.squared_distance_to(c, probe), core_cids[c as usize]))
        .min_by(|a, b| a.0.partial_cmp(&b.0).expect("NaN distance"))
        .map(|(_, cid)| cid)
}

/// Resolves the nearest-core-within-ε rule for every probe, fanning the
/// lookups out across at most `threads` scoped worker threads against a
/// kd-tree over the discovered cores. `result[i]` is the raw cluster id
/// `probes[i]` attaches to, or `None` when no core lies within ε.
///
/// `threads <= 1` or a batch of fewer than two probes stays on the calling
/// thread.
pub(crate) fn batch_nearest_cores(
    points: &PointSet,
    cores: &PointSet,
    tree: &KdTree,
    core_cids: &[u32],
    eps: f64,
    probes: &[PointId],
    threads: usize,
) -> Vec<Option<u32>> {
    if threads <= 1 || probes.len() < 2 {
        let mut hits = Vec::new();
        return probes
            .iter()
            .map(|&id| nearest_core_cid(points.point(id), cores, tree, core_cids, eps, &mut hits))
            .collect();
    }
    let workers = threads.min(probes.len());
    let chunk = probes.len().div_ceil(workers);
    std::thread::scope(|scope| {
        let handles: Vec<_> = probes
            .chunks(chunk)
            .map(|part| {
                scope.spawn(move || {
                    let mut hits = Vec::new();
                    part.iter()
                        .map(|&id| {
                            nearest_core_cid(
                                points.point(id),
                                cores,
                                tree,
                                core_cids,
                                eps,
                                &mut hits,
                            )
                        })
                        .collect::<Vec<Option<u32>>>()
                })
            })
            .collect();
        let mut merged = Vec::with_capacity(probes.len());
        for handle in handles {
            merged.extend(handle.join().expect("nearest-core worker panicked"));
        }
        merged
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid(n: usize) -> PointSet {
        let mut ps = PointSet::new(2);
        for i in 0..n {
            ps.push(&[(i % 7) as f64, (i / 7) as f64 * 1.5]);
        }
        ps
    }

    #[test]
    fn batched_nearest_cores_match_sequential_at_every_thread_count() {
        let ps = grid(60);
        // Every third point is a "core" labeled by its row.
        let mut cores = PointSet::new(2);
        let mut cids = Vec::new();
        for i in (0..ps.len() as PointId).step_by(3) {
            cores.push(ps.point(i));
            cids.push(i / 7);
        }
        let tree = KdTree::build(&cores);
        let probes: Vec<PointId> = (0..ps.len() as PointId).collect();
        let want = batch_nearest_cores(&ps, &cores, &tree, &cids, 1.2, &probes, 1);
        assert!(want.iter().any(Option::is_some));
        for threads in [2, 3, 8, 64] {
            let got = batch_nearest_cores(&ps, &cores, &tree, &cids, 1.2, &probes, threads);
            assert_eq!(got, want, "threads={threads}");
        }
    }

    #[test]
    fn nearest_core_prefers_the_closer_core() {
        let cores = PointSet::from_rows(&[vec![0.0, 0.0], vec![10.0, 0.0]]);
        let tree = KdTree::build(&cores);
        let ps = PointSet::from_rows(&[vec![4.0, 0.0], vec![6.0, 0.0], vec![50.0, 0.0]]);
        let got = batch_nearest_cores(&ps, &cores, &tree, &[7, 9], 8.0, &[0, 1, 2], 1);
        assert_eq!(got, vec![Some(7), Some(9), None]);
    }
}
