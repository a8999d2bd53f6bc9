//! R\*-tree range-query engine.
//!
//! The paper's ground-truth algorithm *R-DBSCAN* is "the original DBSCAN
//! algorithm implementation using an in-memory R-tree" (§V-A, after
//! Beckmann et al.'s R\*-tree \[7\]). Every tree here is built by **STR
//! bulk loading** (`bulk`) — the Sort-Tile-Recursive packing of
//! Leutenegger et al., which builds a near-optimal static tree in
//! O(n log n). Every caller indexes a point set it already holds in full,
//! so the tree has no insertion path.
//!
//! Fanout is [`RStarTree::MAX_ENTRIES`] = 32, the conventional in-memory
//! configuration.

mod bulk;

use crate::traits::RangeIndex;
use dbsvec_geometry::{BoundingBox, PointId, PointSet};

pub(crate) enum Entries {
    /// Point ids stored in a leaf.
    Leaf(Vec<PointId>),
    /// Child node ids stored in an inner node.
    Inner(Vec<u32>),
}

pub(crate) struct Node {
    pub(crate) bbox: BoundingBox,
    pub(crate) entries: Entries,
}

/// An R\*-tree over a borrowed [`PointSet`].
pub struct RStarTree<'a> {
    points: &'a PointSet,
    nodes: Vec<Node>,
    root: Option<u32>,
}

impl<'a> RStarTree<'a> {
    /// Maximum entries per node (fanout M).
    pub const MAX_ENTRIES: usize = 32;

    /// Bulk-loads the whole point set with Sort-Tile-Recursive packing.
    pub fn build(points: &'a PointSet) -> Self {
        bulk::str_bulk_load(points)
    }

    /// The indexed point set.
    pub fn points(&self) -> &'a PointSet {
        self.points
    }

    /// Tree height (0 for an empty tree, 1 for a single leaf).
    pub fn height(&self) -> usize {
        let mut h = 0;
        let mut cursor = self.root;
        while let Some(n) = cursor {
            h += 1;
            cursor = match &self.nodes[n as usize].entries {
                Entries::Leaf(_) => None,
                Entries::Inner(children) => Some(children[0]),
            };
        }
        h
    }

    fn range_recursive(&self, node: u32, query: &[f64], eps_sq: f64, out: &mut Vec<PointId>) {
        let n = &self.nodes[node as usize];
        if n.bbox.max_squared_distance(query) <= eps_sq {
            self.report_subtree(node, out);
            return;
        }
        match &n.entries {
            Entries::Leaf(ids) => {
                for &id in ids {
                    if self.points.squared_distance_to(id, query) <= eps_sq {
                        out.push(id);
                    }
                }
            }
            Entries::Inner(children) => {
                for &child in children {
                    if self.nodes[child as usize].bbox.min_squared_distance(query) <= eps_sq {
                        self.range_recursive(child, query, eps_sq, out);
                    }
                }
            }
        }
    }

    fn report_subtree(&self, node: u32, out: &mut Vec<PointId>) {
        match &self.nodes[node as usize].entries {
            Entries::Leaf(ids) => out.extend_from_slice(ids),
            Entries::Inner(children) => {
                for &child in children {
                    self.report_subtree(child, out);
                }
            }
        }
    }

    fn count_recursive(&self, node: u32, query: &[f64], eps_sq: f64) -> usize {
        let n = &self.nodes[node as usize];
        if n.bbox.max_squared_distance(query) <= eps_sq {
            return self.subtree_size(node);
        }
        match &n.entries {
            Entries::Leaf(ids) => ids
                .iter()
                .filter(|&&id| self.points.squared_distance_to(id, query) <= eps_sq)
                .count(),
            Entries::Inner(children) => children
                .iter()
                .filter(|&&c| self.nodes[c as usize].bbox.min_squared_distance(query) <= eps_sq)
                .map(|&c| self.count_recursive(c, query, eps_sq))
                .sum(),
        }
    }

    fn subtree_size(&self, node: u32) -> usize {
        match &self.nodes[node as usize].entries {
            Entries::Leaf(ids) => ids.len(),
            Entries::Inner(children) => children.iter().map(|&c| self.subtree_size(c)).sum(),
        }
    }
}

impl RangeIndex for RStarTree<'_> {
    fn range(&self, query: &[f64], eps: f64, out: &mut Vec<PointId>) {
        if let Some(root) = self.root {
            let eps_sq = eps * eps;
            if self.nodes[root as usize].bbox.min_squared_distance(query) <= eps_sq {
                self.range_recursive(root, query, eps_sq, out);
            }
        }
    }

    fn count_range(&self, query: &[f64], eps: f64) -> usize {
        match self.root {
            Some(root) => {
                let eps_sq = eps * eps;
                if self.nodes[root as usize].bbox.min_squared_distance(query) <= eps_sq {
                    self.count_recursive(root, query, eps_sq)
                } else {
                    0
                }
            }
            None => 0,
        }
    }

    fn len(&self) -> usize {
        self.points.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linear::LinearScan;
    use dbsvec_geometry::rng::SplitMix64;

    fn random_points(n: usize, d: usize, seed: u64) -> PointSet {
        let mut rng = SplitMix64::new(seed);
        let mut ps = PointSet::with_capacity(d, n);
        let mut row = vec![0.0; d];
        for _ in 0..n {
            for x in &mut row {
                *x = rng.next_f64() * 100.0;
            }
            ps.push(&row);
        }
        ps
    }

    fn check_against_oracle(tree: &RStarTree<'_>, ps: &PointSet, seed: u64) {
        let oracle = LinearScan::build(ps);
        let d = ps.dims();
        let mut rng = SplitMix64::new(seed);
        for _ in 0..50 {
            let q: Vec<f64> = (0..d).map(|_| rng.next_f64() * 100.0).collect();
            let eps = rng.next_f64() * 30.0;
            let mut got = tree.range_vec(&q, eps);
            let mut want = oracle.range_vec(&q, eps);
            got.sort_unstable();
            want.sort_unstable();
            assert_eq!(got, want, "eps={eps}");
            assert_eq!(tree.count_range(&q, eps), want.len());
        }
    }

    #[test]
    fn bulk_load_matches_linear_scan() {
        for d in [1, 2, 3, 8] {
            let ps = random_points(700, d, 11 + d as u64);
            let tree = RStarTree::build(&ps);
            assert_eq!(tree.len(), 700);
            check_against_oracle(&tree, &ps, 23);
        }
    }

    #[test]
    fn empty_and_tiny_trees() {
        let ps = PointSet::new(2);
        let tree = RStarTree::build(&ps);
        assert!(tree.is_empty());
        assert_eq!(tree.height(), 0);
        assert!(tree.range_vec(&[0.0, 0.0], 5.0).is_empty());

        let ps1 = PointSet::from_rows(&[vec![1.0, 2.0]]);
        let tree1 = RStarTree::build(&ps1);
        assert_eq!(tree1.height(), 1);
        assert_eq!(tree1.range_vec(&[1.0, 2.0], 0.0), vec![0]);
    }

    #[test]
    fn bulk_load_height_is_logarithmic() {
        let ps = random_points(5000, 2, 99);
        let tree = RStarTree::build(&ps);
        // 5000 / 32 = 157 leaves; two more levels suffice at fanout 32.
        assert!(tree.height() <= 4, "height {} too tall", tree.height());
    }
}
