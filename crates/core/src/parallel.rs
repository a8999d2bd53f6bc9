//! Scoped-thread fan-out for the sampled fit's attachment pass, the only
//! stage of a fit that uses the thread budget.
//!
//! Each lookup is a pure function of `(probe point, eps, core tree)` and
//! the tree is immutable once built, so a batch of lookups can run on any
//! number of worker threads and still produce exactly the results a
//! sequential loop would. Determinism comes from *where the results go*,
//! not where they are computed: probes are chunked in order, chunks are
//! joined in spawn order, and the caller consumes the merged results in
//! the original probe order. Expansion's range queries and the index
//! build stay on the calling thread (DESIGN.md §5e).

use dbsvec_geometry::{PointId, PointSet};
use dbsvec_index::KdTree;

/// Resolves the nearest-core-within-ε rule for every probe, fanning the
/// lookups out across at most `threads` scoped worker threads against a
/// kd-tree over the discovered cores. `result[i]` is the raw cluster id
/// `probes[i]` attaches to — of the closest core, equidistant cores
/// resolved to the smaller core index ([`KdTree::nearest_within`]) — or
/// `None` when no core lies within ε.
///
/// `threads <= 1` or a batch of fewer than two probes stays on the calling
/// thread.
pub(crate) fn batch_nearest_cores(
    points: &PointSet,
    tree: &KdTree,
    core_cids: &[u32],
    eps: f64,
    probes: &[PointId],
    threads: usize,
) -> Vec<Option<u32>> {
    // A pure function of immutable inputs, so the fan-out below is
    // bit-deterministic at every thread count.
    let lookup = |&id: &PointId| {
        tree.nearest_within(points.point(id), eps, |_| true)
            .map(|(_, c)| core_cids[c as usize])
    };
    if threads <= 1 || probes.len() < 2 {
        return probes.iter().map(lookup).collect();
    }
    let workers = threads.min(probes.len());
    let chunk = probes.len().div_ceil(workers);
    std::thread::scope(|scope| {
        let handles: Vec<_> = probes
            .chunks(chunk)
            .map(|part| scope.spawn(move || part.iter().map(lookup).collect::<Vec<_>>()))
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
        let want = batch_nearest_cores(&ps, &tree, &cids, 1.2, &probes, 1);
        assert!(want.iter().any(Option::is_some));
        for threads in [2, 3, 8, 64] {
            let got = batch_nearest_cores(&ps, &tree, &cids, 1.2, &probes, threads);
            assert_eq!(got, want, "threads={threads}");
        }
    }

    #[test]
    fn nearest_core_prefers_the_closer_core() {
        let cores = PointSet::from_rows(&[vec![0.0, 0.0], vec![10.0, 0.0]]);
        let tree = KdTree::build(&cores);
        let ps = PointSet::from_rows(&[vec![4.0, 0.0], vec![6.0, 0.0], vec![50.0, 0.0]]);
        let got = batch_nearest_cores(&ps, &tree, &[7, 9], 8.0, &[0, 1, 2], 1);
        assert_eq!(got, vec![Some(7), Some(9), None]);
    }

    #[test]
    fn equidistant_cores_resolve_to_the_smaller_core_index() {
        // Cores 22..=41 (cluster 1) listed before 0..=19 (cluster 0):
        // 20.5 is exactly ε = 1.5 from 22 and from 19, and 22's cluster
        // answers at every thread count.
        let rows: Vec<Vec<f64>> = (22..42).chain(0..20).map(|x| vec![x as f64]).collect();
        let cores = PointSet::from_rows(&rows);
        let cids: Vec<u32> = (0..40).map(|i| u32::from(i < 20)).collect();
        let tree = KdTree::build(&cores);
        let ps = PointSet::from_rows(&[vec![20.5], vec![20.5]]);
        for threads in [1, 2] {
            let got = batch_nearest_cores(&ps, &tree, &cids, 1.5, &[0, 1], threads);
            assert_eq!(got, vec![Some(1), Some(1)], "threads={threads}");
        }
    }
}
