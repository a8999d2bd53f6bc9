//! Query-counting wrapper used by the Table II complexity experiment.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::traits::RangeIndex;
use dbsvec_geometry::PointId;

/// Counters accumulated by a [`CountingIndex`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct QueryStats {
    /// Number of `range` / `count_range` calls issued.
    pub queries: u64,
    /// Total number of result points reported across all queries.
    pub results: u64,
}

impl QueryStats {
    /// Average result-set size per query; zero when no queries ran.
    pub fn mean_result_size(&self) -> f64 {
        if self.queries == 0 {
            0.0
        } else {
            self.results as f64 / self.queries as f64
        }
    }
}

/// Wraps any [`RangeIndex`] and counts the queries flowing through it.
///
/// The paper's complexity analysis (§III-D) claims DBSVEC issues
/// `O(s + 1 + k + m + MinPts·l)` range queries versus DBSCAN's `n`; wrapping
/// both algorithms' indexes in `CountingIndex` lets the Table II harness
/// verify that claim empirically. Counters use relaxed [`AtomicU64`]s so the
/// wrapper stays usable behind the `&self` query interface *and* stays
/// `Sync` — parallel DBSCAN queries a shared index from scoped threads,
/// and the totals must still come out exact (each query increments once;
/// no ordering between queries is needed).
pub struct CountingIndex<I> {
    inner: I,
    queries: AtomicU64,
    results: AtomicU64,
}

impl<I: RangeIndex> CountingIndex<I> {
    /// Wraps an engine with zeroed counters.
    pub fn new(inner: I) -> Self {
        Self {
            inner,
            queries: AtomicU64::new(0),
            results: AtomicU64::new(0),
        }
    }

    /// Snapshot of the counters.
    pub fn stats(&self) -> QueryStats {
        QueryStats {
            queries: self.queries.load(Ordering::Relaxed),
            results: self.results.load(Ordering::Relaxed),
        }
    }

    /// Resets the counters to zero.
    pub fn reset(&self) {
        self.queries.store(0, Ordering::Relaxed);
        self.results.store(0, Ordering::Relaxed);
    }

    /// Unwraps the inner engine.
    pub fn into_inner(self) -> I {
        self.inner
    }
}

impl<I: RangeIndex> RangeIndex for CountingIndex<I> {
    fn range(&self, query: &[f64], eps: f64, out: &mut Vec<PointId>) {
        let before = out.len();
        self.inner.range(query, eps, out);
        self.queries.fetch_add(1, Ordering::Relaxed);
        self.results
            .fetch_add((out.len() - before) as u64, Ordering::Relaxed);
    }

    fn count_range(&self, query: &[f64], eps: f64) -> usize {
        let n = self.inner.count_range(query, eps);
        self.queries.fetch_add(1, Ordering::Relaxed);
        self.results.fetch_add(n as u64, Ordering::Relaxed);
        n
    }

    fn len(&self) -> usize {
        self.inner.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linear::LinearScan;
    use dbsvec_geometry::PointSet;

    #[test]
    fn counts_queries_and_results() {
        let ps = PointSet::from_rows(&[vec![0.0], vec![1.0], vec![2.0]]);
        let idx = CountingIndex::new(LinearScan::build(&ps));
        let mut out = Vec::new();
        idx.range(&[0.0], 1.0, &mut out);
        idx.range(&[0.0], 5.0, &mut out);
        let _ = idx.count_range(&[9.0], 0.5);
        let stats = idx.stats();
        assert_eq!(stats.queries, 3);
        assert_eq!(stats.results, 2 + 3);
        assert!((stats.mean_result_size() - 5.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn reset_zeroes_counters() {
        let ps = PointSet::from_rows(&[vec![0.0]]);
        let idx = CountingIndex::new(LinearScan::build(&ps));
        let _ = idx.range_vec(&[0.0], 1.0);
        idx.reset();
        assert_eq!(idx.stats(), QueryStats::default());
        assert_eq!(idx.stats().mean_result_size(), 0.0);
    }

    #[test]
    fn delegates_len() {
        let ps = PointSet::from_rows(&[vec![0.0], vec![1.0]]);
        let idx = CountingIndex::new(LinearScan::build(&ps));
        assert_eq!(idx.len(), 2);
        assert!(!idx.is_empty());
    }
}
