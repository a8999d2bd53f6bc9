//! Query-counting wrapper: the index's own count of the range queries a
//! clusterer issued.
//!
//! The fit reports its range queries in `DbsvecStats`, folded from its
//! event stream; the Table II harness (`table2_complexity`) prints those.
//! [`CountingIndex`] is the independent check that the fold matches what
//! the index actually saw, in two tests:
//! `dbsvec::tests::uses_far_fewer_range_queries_than_points` (in
//! `dbsvec-core`) and `tests/pipeline.rs`'s
//! `reported_range_queries_match_the_index_counters`.

use std::cell::Cell;

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
/// Counters are [`Cell`]s so the wrapper stays usable behind the `&self`
/// query interface.
pub struct CountingIndex<I> {
    inner: I,
    queries: Cell<u64>,
    results: Cell<u64>,
}

impl<I: RangeIndex> CountingIndex<I> {
    /// Wraps an engine with zeroed counters.
    pub fn new(inner: I) -> Self {
        Self {
            inner,
            queries: Cell::new(0),
            results: Cell::new(0),
        }
    }

    /// Snapshot of the counters.
    pub fn stats(&self) -> QueryStats {
        QueryStats {
            queries: self.queries.get(),
            results: self.results.get(),
        }
    }

    /// Resets the counters to zero.
    pub fn reset(&self) {
        self.queries.set(0);
        self.results.set(0);
    }

    /// Unwraps the inner engine.
    pub fn into_inner(self) -> I {
        self.inner
    }

    fn tally(&self, results: u64) {
        self.queries.set(self.queries.get() + 1);
        self.results.set(self.results.get() + results);
    }
}

impl<I: RangeIndex> RangeIndex for CountingIndex<I> {
    fn range(&self, query: &[f64], eps: f64, out: &mut Vec<PointId>) {
        let before = out.len();
        self.inner.range(query, eps, out);
        self.tally((out.len() - before) as u64);
    }

    fn count_range(&self, query: &[f64], eps: f64) -> usize {
        let n = self.inner.count_range(query, eps);
        self.tally(n as u64);
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
