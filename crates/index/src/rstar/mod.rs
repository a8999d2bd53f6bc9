//! R\*-tree range-query engine.
//!
//! The paper's ground-truth algorithm *R-DBSCAN* is "the original DBSCAN
//! algorithm implementation using an in-memory R-tree" (§V-A, after
//! Beckmann et al.'s R\*-tree \[7\]). This module provides:
//!
//! * **STR bulk loading** (`bulk`) — the Sort-Tile-Recursive packing of
//!   Leutenegger et al., which builds a near-optimal static tree in
//!   O(n log n), optionally on several threads; this is how all experiment
//!   datasets are indexed,
//! * **dynamic insertion** with the R\* heuristics (`split`): ChooseSubtree
//!   minimizes overlap enlargement at the leaf level and area enlargement
//!   above it, and node splits pick the axis by minimum margin sum and the
//!   distribution by minimum overlap. Forced reinsertion is intentionally
//!   omitted — it only pays off under adversarial insertion orders, and the
//!   workspace always has bulk loading available for those.
//!
//! Fanout is [`RStarTree::MAX_ENTRIES`] = 32 with a 40% minimum fill, the
//! conventional in-memory configuration.

mod bulk;
mod split;

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

impl Node {
    fn is_leaf(&self) -> bool {
        matches!(self.entries, Entries::Leaf(_))
    }

    fn entry_count(&self) -> usize {
        match &self.entries {
            Entries::Leaf(ids) => ids.len(),
            Entries::Inner(children) => children.len(),
        }
    }
}

/// An R\*-tree over a borrowed [`PointSet`].
pub struct RStarTree<'a> {
    points: &'a PointSet,
    pub(crate) nodes: Vec<Node>,
    root: Option<u32>,
    len: usize,
}

impl<'a> RStarTree<'a> {
    /// Maximum entries per node (fanout M).
    pub const MAX_ENTRIES: usize = 32;
    /// Minimum entries per node after a split (m = 40% of M).
    pub const MIN_ENTRIES: usize = 13;

    /// Bulk-loads the whole point set with Sort-Tile-Recursive packing.
    pub fn build(points: &'a PointSet) -> Self {
        bulk::str_bulk_load(points, 1)
    }

    /// [`RStarTree::build`] with the leaf level tiled on up to `threads`
    /// scoped threads (`threads <= 1` spawns none). The tree is the same
    /// at every thread count.
    pub fn build_threaded(points: &'a PointSet, threads: usize) -> Self {
        bulk::str_bulk_load(points, threads)
    }

    /// Creates an empty tree for incremental insertion.
    pub fn new(points: &'a PointSet) -> Self {
        Self {
            points,
            nodes: Vec::new(),
            root: None,
            len: 0,
        }
    }

    /// Inserts one point by id using the R\* heuristics.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range for the underlying point set.
    pub fn insert(&mut self, id: PointId) {
        let p = self.points.point(id).to_vec();
        match self.root {
            None => {
                self.nodes.push(Node {
                    bbox: BoundingBox::around_point(&p),
                    entries: Entries::Leaf(vec![id]),
                });
                self.root = Some((self.nodes.len() - 1) as u32);
            }
            Some(root) => {
                if let Some(sibling) = self.insert_recursive(root, id, &p) {
                    // Root split: grow the tree by one level.
                    let new_bbox = self.nodes[root as usize]
                        .bbox
                        .union(&self.nodes[sibling as usize].bbox);
                    self.nodes.push(Node {
                        bbox: new_bbox,
                        entries: Entries::Inner(vec![root, sibling]),
                    });
                    self.root = Some((self.nodes.len() - 1) as u32);
                }
            }
        }
        self.len += 1;
    }

    /// Inserts below `node`; returns the id of a new sibling if `node` split.
    fn insert_recursive(&mut self, node: u32, id: PointId, p: &[f64]) -> Option<u32> {
        self.nodes[node as usize].bbox.expand_to_point(p);
        if self.nodes[node as usize].is_leaf() {
            if let Entries::Leaf(ids) = &mut self.nodes[node as usize].entries {
                ids.push(id);
            }
            if self.nodes[node as usize].entry_count() > Self::MAX_ENTRIES {
                return Some(split::split_node(self, node));
            }
            return None;
        }

        let child = split::choose_subtree(self, node, p);
        if let Some(new_child) = self.insert_recursive(child, id, p) {
            if let Entries::Inner(children) = &mut self.nodes[node as usize].entries {
                children.push(new_child);
            }
            if self.nodes[node as usize].entry_count() > Self::MAX_ENTRIES {
                return Some(split::split_node(self, node));
            }
        }
        None
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

    pub(crate) fn from_parts(points: &'a PointSet, nodes: Vec<Node>, root: Option<u32>) -> Self {
        let len = points.len();
        Self {
            points,
            nodes,
            root,
            len,
        }
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
        self.len
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
    fn incremental_insert_matches_linear_scan() {
        let ps = random_points(400, 3, 77);
        let mut tree = RStarTree::new(&ps);
        for id in 0..ps.len() as u32 {
            tree.insert(id);
        }
        assert_eq!(tree.len(), 400);
        check_against_oracle(&tree, &ps, 29);
    }

    #[test]
    fn incremental_insert_sorted_order_stays_correct() {
        // Sorted insertion is the classic worst case for R-trees.
        let rows: Vec<Vec<f64>> = (0..300)
            .map(|i| vec![i as f64, (i * i % 37) as f64])
            .collect();
        let ps = PointSet::from_rows(&rows);
        let mut tree = RStarTree::new(&ps);
        for id in 0..ps.len() as u32 {
            tree.insert(id);
        }
        check_against_oracle(&tree, &ps, 31);
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

    #[test]
    fn nodes_respect_fanout_after_inserts() {
        let ps = random_points(600, 2, 13);
        let mut tree = RStarTree::new(&ps);
        for id in 0..ps.len() as u32 {
            tree.insert(id);
        }
        for node in &tree.nodes {
            assert!(node.entry_count() <= RStarTree::MAX_ENTRIES);
        }
    }
}
