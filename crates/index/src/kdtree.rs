//! Median-split kd-tree with leaf buckets.
//!
//! This is the engine behind the paper's *kd-DBSCAN* baseline (§V-A). The
//! tree is built once over the whole dataset:
//!
//! * split dimension = widest extent of the node's bounding box (rather than
//!   cycling dimensions, which degenerates on anisotropic data),
//! * split position = median, selected in O(n) per level on a dense copy
//!   of the split coordinates (one scratch for the whole build; same
//!   comparisons, same outcomes, same permutation as selecting the ids
//!   through the point rows), giving O(n log n) total build time,
//! * leaves hold up to [`KdTree::LEAF_SIZE`] points that are scanned
//!   linearly — small leaves waste tree overhead, large leaves waste
//!   distance computations; 16 is the conventional sweet spot,
//! * nodes are plain structs in one array and their boxes sit in one flat
//!   `Vec<f64>`, so a build allocates no memory per node.
//!
//! Range queries prune subtrees whose bounding box is farther than ε from
//! the query and *bulk-report* subtrees that lie entirely inside the query
//! ball, skipping all per-point distance checks for them.
//!
//! The bounded nearest-neighbour search ([`KdTree::nearest_within`]) is the
//! workspace's one answer to "nearest core within ε" — the paper's noise
//! verification rule and the serving engine's assign rule. It visits the
//! nearer child first and prunes every box farther than the best squared
//! distance found so far (ε² at the start). Ties go to the smaller id
//! ([`nearer`]), so the answer depends on the indexed points alone, never
//! on the tree's shape or traversal order.
//!
//! Two wrappers share the same node layout and traversal:
//!
//! * [`KdTree`] borrows the [`PointSet`] it indexes — the right shape for
//!   one clustering run over data that outlives the index;
//! * [`OwnedKdTree`] owns its point set — the right shape for a long-lived
//!   serving engine that must hold the index without tying it to an outside
//!   allocation, and rebuild it as points arrive.

use crate::keyed::KeyedSort;
use crate::traits::RangeIndex;
use dbsvec_geometry::{bbox, PointId, PointSet};

/// One tree node. Every node, inner ones included, owns the contiguous run
/// `ids[start..end]` of the points under it.
#[derive(Clone, Copy, Debug)]
struct Node {
    start: u32,
    end: u32,
    /// `(left, right)` child node ids; `None` for a leaf.
    children: Option<(u32, u32)>,
}

/// The point-set-agnostic half of the tree: nodes, their boxes, the
/// leaf-permuted id array, and the traversal routines. Both tree wrappers
/// delegate here, passing in whichever `PointSet` they hold.
#[derive(Clone, Debug)]
struct TreeCore {
    /// Nodes in pre-order: the root is node 0.
    nodes: Vec<Node>,
    /// Node boxes, `2·dims` values per node: node `k`'s lower corner at
    /// `boxes[2·dims·k..][..dims]`, its upper corner right after.
    boxes: Vec<f64>,
    dims: usize,
    /// Point ids permuted so each node owns a contiguous range.
    ids: Vec<PointId>,
}

impl TreeCore {
    fn build(points: &PointSet) -> Self {
        let n = points.len();
        let mut core = Self {
            nodes: Vec::new(),
            boxes: Vec::new(),
            dims: points.dims(),
            ids: (0..n as u32).collect(),
        };
        if n > 0 {
            // One key scratch serves every median selection of the build.
            core.build_node(points, 0, n, &mut KeyedSort::default());
        }
        core
    }

    /// Builds the subtree over the non-empty run `ids[start..end]` and
    /// returns its root: a leaf of at most [`KdTree::LEAF_SIZE`] points, or
    /// a split at the median of the box's widest dimension.
    fn build_node(
        &mut self,
        points: &PointSet,
        start: usize,
        end: usize,
        sort: &mut KeyedSort,
    ) -> u32 {
        let node = self.nodes.len() as u32;
        self.nodes.push(Node {
            start: start as u32,
            end: end as u32,
            children: None,
        });
        let at = self.boxes.len();
        let first = points.point(self.ids[start]);
        self.boxes.extend_from_slice(first);
        self.boxes.extend_from_slice(first);
        let (lo, hi) = self.boxes[at..].split_at_mut(self.dims);
        for &id in &self.ids[start + 1..end] {
            bbox::expand_to_point(lo, hi, points.point(id));
        }
        let len = end - start;
        if len <= KdTree::LEAF_SIZE {
            return node;
        }
        let dim = widest_dimension(lo, hi);
        let mid = len / 2;
        sort.select_nth(&mut self.ids[start..end], mid, |id| points.point(id)[dim]);
        let left = self.build_node(points, start, start + mid, sort);
        let right = self.build_node(points, start + mid, end, sort);
        self.nodes[node as usize].children = Some((left, right));
        node
    }

    /// Node `node`'s box as (lower corner, upper corner).
    #[inline]
    fn corners(&self, node: u32) -> (&[f64], &[f64]) {
        let d = self.dims;
        self.boxes[2 * d * node as usize..][..2 * d].split_at(d)
    }

    /// Squared distance from `query` to the nearest point of `node`'s box.
    #[inline]
    fn min_sq(&self, node: u32, query: &[f64]) -> f64 {
        let (lo, hi) = self.corners(node);
        bbox::min_squared_distance(lo, hi, query)
    }

    /// Squared distance from `query` to the farthest point of `node`'s box.
    #[inline]
    fn max_sq(&self, node: u32, query: &[f64]) -> f64 {
        let (lo, hi) = self.corners(node);
        bbox::max_squared_distance(lo, hi, query)
    }

    fn range(&self, points: &PointSet, query: &[f64], eps: f64, out: &mut Vec<PointId>) {
        let eps_sq = eps * eps;
        if !self.nodes.is_empty() && self.min_sq(0, query) <= eps_sq {
            self.range_recursive(points, 0, query, eps_sq, out);
        }
    }

    fn count_range(&self, points: &PointSet, query: &[f64], eps: f64) -> usize {
        let eps_sq = eps * eps;
        if !self.nodes.is_empty() && self.min_sq(0, query) <= eps_sq {
            self.count_recursive(points, 0, query, eps_sq)
        } else {
            0
        }
    }

    fn nearest_within(
        &self,
        points: &PointSet,
        query: &[f64],
        eps: f64,
        keep: &impl Fn(PointId) -> bool,
    ) -> Option<(f64, PointId)> {
        let mut best = Best {
            bound: eps * eps,
            found: None,
        };
        if !self.nodes.is_empty() && self.min_sq(0, query) <= best.bound {
            self.nearest_recursive(points, 0, query, keep, &mut best);
        }
        best.found
    }

    fn nearest_recursive(
        &self,
        points: &PointSet,
        node: u32,
        query: &[f64],
        keep: &impl Fn(PointId) -> bool,
        best: &mut Best,
    ) {
        let Node {
            start,
            end,
            children,
        } = self.nodes[node as usize];
        match children {
            None => {
                for &id in &self.ids[start as usize..end as usize] {
                    if keep(id) {
                        best.offer(points.squared_distance_to(id, query), id);
                    }
                }
            }
            Some((left, right)) => {
                let dl = self.min_sq(left, query);
                let dr = self.min_sq(right, query);
                let ((near, d_near), (far, d_far)) = if dr < dl {
                    ((right, dr), (left, dl))
                } else {
                    ((left, dl), (right, dr))
                };
                // A box exactly at the bound may still hold a tie with a
                // smaller id, so only strictly farther boxes are pruned.
                if d_near <= best.bound {
                    self.nearest_recursive(points, near, query, keep, best);
                }
                if d_far <= best.bound {
                    self.nearest_recursive(points, far, query, keep, best);
                }
            }
        }
    }

    fn range_recursive(
        &self,
        points: &PointSet,
        node: u32,
        query: &[f64],
        eps_sq: f64,
        out: &mut Vec<PointId>,
    ) {
        let Node {
            start,
            end,
            children,
        } = self.nodes[node as usize];
        let ids = &self.ids[start as usize..end as usize];
        if self.max_sq(node, query) <= eps_sq {
            // The box lies inside the ball: report the node's run whole.
            out.extend_from_slice(ids);
            return;
        }
        match children {
            None => {
                for &id in ids {
                    if points.squared_distance_to(id, query) <= eps_sq {
                        out.push(id);
                    }
                }
            }
            Some((left, right)) => {
                for child in [left, right] {
                    if self.min_sq(child, query) <= eps_sq {
                        self.range_recursive(points, child, query, eps_sq, out);
                    }
                }
            }
        }
    }

    fn count_recursive(&self, points: &PointSet, node: u32, query: &[f64], eps_sq: f64) -> usize {
        let Node {
            start,
            end,
            children,
        } = self.nodes[node as usize];
        let ids = &self.ids[start as usize..end as usize];
        if self.max_sq(node, query) <= eps_sq {
            return ids.len();
        }
        match children {
            None => ids
                .iter()
                .filter(|&&id| points.squared_distance_to(id, query) <= eps_sq)
                .count(),
            Some((left, right)) => [left, right]
                .into_iter()
                .filter(|&child| self.min_sq(child, query) <= eps_sq)
                .map(|child| self.count_recursive(points, child, query, eps_sq))
                .sum(),
        }
    }
}

/// Whether candidate `a` answers before candidate `b`, each a (squared
/// distance, id) pair: the strictly nearer one, or on an exact distance tie
/// the smaller id. Every nearest-core answer in the workspace orders its
/// candidates this way, so the answer is a function of the candidate set
/// alone.
#[inline]
pub fn nearer(a: (f64, PointId), b: (f64, PointId)) -> bool {
    a.0 < b.0 || (a.0 == b.0 && a.1 < b.1)
}

/// The running answer of a bounded nearest-neighbour search.
struct Best {
    /// Squared distance a candidate may not exceed: ε² until the first
    /// hit, then the best hit's distance.
    bound: f64,
    found: Option<(f64, PointId)>,
}

impl Best {
    #[inline]
    fn offer(&mut self, d: f64, id: PointId) {
        let better = match self.found {
            Some(b) => nearer((d, id), b),
            None => d <= self.bound,
        };
        if better {
            self.bound = d;
            self.found = Some((d, id));
        }
    }
}

/// A static kd-tree over a borrowed [`PointSet`].
pub struct KdTree<'a> {
    points: &'a PointSet,
    core: TreeCore,
}

impl<'a> KdTree<'a> {
    /// Maximum number of points stored in one leaf bucket.
    pub const LEAF_SIZE: usize = 16;

    /// Builds the tree in O(n log n).
    pub fn build(points: &'a PointSet) -> Self {
        Self {
            points,
            core: TreeCore::build(points),
        }
    }

    /// The indexed point set.
    pub fn points(&self) -> &'a PointSet {
        self.points
    }

    /// Number of tree nodes (diagnostic).
    pub fn node_count(&self) -> usize {
        self.core.nodes.len()
    }

    /// The nearest point within `eps` of `query` among the ids `keep`
    /// accepts, as (squared distance, id), or `None` when no accepted point
    /// lies within `eps` (the closed ball, like [`RangeIndex::range`]).
    ///
    /// Ties go to the smaller id: the answer is the lexicographic minimum
    /// of (squared distance, id) over the accepted points in the ball (see
    /// [`nearer`]), whatever the tree's shape. Pass `|_| true` to accept
    /// every point.
    pub fn nearest_within(
        &self,
        query: &[f64],
        eps: f64,
        keep: impl Fn(PointId) -> bool,
    ) -> Option<(f64, PointId)> {
        self.core.nearest_within(self.points, query, eps, &keep)
    }
}

impl RangeIndex for KdTree<'_> {
    fn range(&self, query: &[f64], eps: f64, out: &mut Vec<PointId>) {
        self.core.range(self.points, query, eps, out);
    }

    fn count_range(&self, query: &[f64], eps: f64) -> usize {
        self.core.count_range(self.points, query, eps)
    }

    fn len(&self) -> usize {
        self.points.len()
    }
}

/// A kd-tree that owns the [`PointSet`] it indexes.
///
/// Same construction and traversal as [`KdTree`]; the only difference is
/// ownership. A serving engine holds one of these over its core points,
/// takes the set back out with [`OwnedKdTree::into_points`] when enough new
/// cores have accumulated, pushes them, and rebuilds.
#[derive(Clone, Debug)]
pub struct OwnedKdTree {
    points: PointSet,
    core: TreeCore,
}

impl OwnedKdTree {
    /// Builds the tree in O(n log n), taking ownership of the points.
    pub fn build(points: PointSet) -> Self {
        let core = TreeCore::build(&points);
        Self { points, core }
    }

    /// The indexed point set.
    pub fn points(&self) -> &PointSet {
        &self.points
    }

    /// Consumes the tree and returns the point set (for rebuild-after-grow).
    pub fn into_points(self) -> PointSet {
        self.points
    }

    /// Number of tree nodes (diagnostic).
    pub fn node_count(&self) -> usize {
        self.core.nodes.len()
    }

    /// [`KdTree::nearest_within`] over the owned points.
    pub fn nearest_within(
        &self,
        query: &[f64],
        eps: f64,
        keep: impl Fn(PointId) -> bool,
    ) -> Option<(f64, PointId)> {
        self.core.nearest_within(&self.points, query, eps, &keep)
    }
}

impl RangeIndex for OwnedKdTree {
    fn range(&self, query: &[f64], eps: f64, out: &mut Vec<PointId>) {
        self.core.range(&self.points, query, eps, out);
    }

    fn count_range(&self, query: &[f64], eps: f64) -> usize {
        self.core.count_range(&self.points, query, eps)
    }

    fn len(&self) -> usize {
        self.points.len()
    }
}

/// The dimension of the box's widest extent, the first among equals.
fn widest_dimension(lo: &[f64], hi: &[f64]) -> usize {
    let mut best = 0;
    let mut best_extent = f64::NEG_INFINITY;
    for (d, (lo, hi)) in lo.iter().zip(hi).enumerate() {
        let extent = hi - lo;
        if extent > best_extent {
            best_extent = extent;
            best = d;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linear::LinearScan;
    use dbsvec_geometry::rng::SplitMix64;
    use dbsvec_geometry::BoundingBox;

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

    #[test]
    fn matches_linear_scan_on_random_data() {
        for d in [1, 2, 3, 8] {
            let ps = random_points(500, d, 42 + d as u64);
            let tree = KdTree::build(&ps);
            let oracle = LinearScan::build(&ps);
            let mut rng = SplitMix64::new(7);
            for _ in 0..50 {
                let q: Vec<f64> = (0..d).map(|_| rng.next_f64() * 100.0).collect();
                let eps = rng.next_f64() * 30.0;
                let mut got = tree.range_vec(&q, eps);
                let mut want = oracle.range_vec(&q, eps);
                got.sort_unstable();
                want.sort_unstable();
                assert_eq!(got, want, "d={d} eps={eps}");
                assert_eq!(tree.count_range(&q, eps), want.len());
            }
        }
    }

    #[test]
    fn empty_tree_reports_nothing() {
        let ps = PointSet::new(3);
        let tree = KdTree::build(&ps);
        assert_eq!(tree.len(), 0);
        assert!(tree.range_vec(&[0.0, 0.0, 0.0], 10.0).is_empty());
        assert_eq!(tree.count_range(&[0.0, 0.0, 0.0], 10.0), 0);
    }

    #[test]
    fn single_point_tree() {
        let ps = PointSet::from_rows(&[vec![1.0, 1.0]]);
        let tree = KdTree::build(&ps);
        assert_eq!(tree.range_vec(&[1.0, 1.0], 0.0), vec![0]);
        assert!(tree.range_vec(&[2.0, 1.0], 0.5).is_empty());
    }

    #[test]
    fn duplicate_points_all_reported() {
        let rows = vec![vec![2.0, 2.0]; 40];
        let ps = PointSet::from_rows(&rows);
        let tree = KdTree::build(&ps);
        let mut hits = tree.range_vec(&[2.0, 2.0], 0.1);
        hits.sort_unstable();
        assert_eq!(hits, (0..40).collect::<Vec<_>>());
    }

    #[test]
    fn huge_radius_returns_everything() {
        let ps = random_points(300, 4, 5);
        let tree = KdTree::build(&ps);
        assert_eq!(tree.range_vec(&[50.0; 4], 1e6).len(), 300);
        assert_eq!(tree.count_range(&[50.0; 4], 1e6), 300);
    }

    #[test]
    fn skewed_data_still_correct() {
        // All mass on one axis; widest-dimension splitting must not loop.
        let rows: Vec<Vec<f64>> = (0..200).map(|i| vec![i as f64, 0.0]).collect();
        let ps = PointSet::from_rows(&rows);
        let tree = KdTree::build(&ps);
        let hits = tree.range_vec(&[100.0, 0.0], 2.5);
        assert_eq!(hits.len(), 5); // 98..=102
    }

    #[test]
    fn owned_tree_matches_borrowed_tree() {
        let ps = random_points(400, 3, 99);
        let borrowed = KdTree::build(&ps);
        let owned = OwnedKdTree::build(ps.clone());
        let mut rng = SplitMix64::new(11);
        for _ in 0..30 {
            let q: Vec<f64> = (0..3).map(|_| rng.next_f64() * 100.0).collect();
            let eps = rng.next_f64() * 25.0;
            let mut got = owned.range_vec(&q, eps);
            let mut want = borrowed.range_vec(&q, eps);
            got.sort_unstable();
            want.sort_unstable();
            assert_eq!(got, want);
            assert_eq!(owned.count_range(&q, eps), want.len());
        }
        assert_eq!(owned.len(), 400);
        assert_eq!(owned.node_count(), borrowed.node_count());
    }

    #[test]
    fn nearest_within_breaks_exact_ties_toward_the_smaller_id() {
        // Cores 22..=41 listed first (ids 0..20), then 0..=19 (ids 20..40):
        // query 20.5 lies exactly ε = 1.5 from 22 (id 0) and from 19
        // (id 39), and the range order of this tree reports 19 first.
        let rows: Vec<Vec<f64>> = (22..42).chain(0..20).map(|x| vec![x as f64]).collect();
        let ps = PointSet::from_rows(&rows);
        let borrowed = KdTree::build(&ps);
        let owned = OwnedKdTree::build(ps.clone());
        assert_eq!(borrowed.range_vec(&[20.5], 1.5), vec![39, 0]);
        assert_eq!(
            borrowed.nearest_within(&[20.5], 1.5, |_| true),
            Some((2.25, 0))
        );
        assert_eq!(
            owned.nearest_within(&[20.5], 1.5, |_| true),
            Some((2.25, 0))
        );
        // The filter removes the winner; the other tied point answers.
        assert_eq!(
            owned.nearest_within(&[20.5], 1.5, |id| id != 0),
            Some((2.25, 39))
        );
        assert_eq!(borrowed.nearest_within(&[20.5], 1.4, |_| true), None);
        assert_eq!(
            KdTree::build(&PointSet::new(1)).nearest_within(&[0.0], 1e9, |_| true),
            None
        );
    }

    /// A node of the recursive build the tree must reproduce: one
    /// `BoundingBox` per node, nodes numbered in post-order.
    #[derive(Debug, PartialEq)]
    enum RefNode {
        Leaf {
            bbox: BoundingBox,
            start: u32,
            end: u32,
        },
        Inner {
            bbox: BoundingBox,
            left: u32,
            right: u32,
        },
    }

    /// The recursive build before the flat layout: the box grown point by
    /// point through the rows, then the median selected on the ids with
    /// every comparison reading the point rows.
    fn reference_build(points: &PointSet) -> (Vec<RefNode>, Vec<PointId>) {
        fn recurse(
            points: &PointSet,
            ids: &mut [PointId],
            offset: usize,
            len: usize,
            nodes: &mut Vec<RefNode>,
        ) -> u32 {
            let slice = &mut ids[offset..offset + len];
            let mut bbox = BoundingBox::around_point(points.point(slice[0]));
            for &id in slice[1..].iter() {
                bbox.expand_to_point(points.point(id));
            }
            if len <= KdTree::LEAF_SIZE {
                nodes.push(RefNode::Leaf {
                    bbox,
                    start: offset as u32,
                    end: (offset + len) as u32,
                });
                return (nodes.len() - 1) as u32;
            }
            let dim = widest_dimension(bbox.min(), bbox.max());
            let mid = len / 2;
            slice.select_nth_unstable_by(mid, |&a, &b| {
                points.point(a)[dim]
                    .partial_cmp(&points.point(b)[dim])
                    .unwrap()
            });
            let left = recurse(points, ids, offset, mid, nodes);
            let right = recurse(points, ids, offset + mid, len - mid, nodes);
            nodes.push(RefNode::Inner { bbox, left, right });
            (nodes.len() - 1) as u32
        }
        let n = points.len();
        let mut ids: Vec<PointId> = (0..n as u32).collect();
        let mut nodes = Vec::new();
        if n > 0 {
            recurse(points, &mut ids, 0, n, &mut nodes);
        }
        (nodes, ids)
    }

    /// The tree's nodes in the reference layout, checking on the way that
    /// each inner node's run is the concatenation of its children's.
    fn post_order(core: &TreeCore) -> Vec<RefNode> {
        fn walk(core: &TreeCore, node: u32, out: &mut Vec<RefNode>) -> u32 {
            let Node {
                start,
                end,
                children,
            } = core.nodes[node as usize];
            let (lo, hi) = core.corners(node);
            let bbox = BoundingBox::from_corners(lo.to_vec(), hi.to_vec());
            let laid_out = match children {
                None => RefNode::Leaf { bbox, start, end },
                Some((l, r)) => {
                    let (left, right) = (core.nodes[l as usize], core.nodes[r as usize]);
                    assert_eq!((left.start, left.end, right.end), (start, right.start, end));
                    RefNode::Inner {
                        bbox,
                        left: walk(core, l, out),
                        right: walk(core, r, out),
                    }
                }
            };
            out.push(laid_out);
            (out.len() - 1) as u32
        }
        let mut out = Vec::new();
        if !core.nodes.is_empty() {
            walk(core, 0, &mut out);
        }
        assert_eq!(out.len(), core.nodes.len(), "every node is reachable");
        out
    }

    #[test]
    fn build_reproduces_the_recursive_build() {
        type Coordinate = fn(&mut SplitMix64) -> f64;
        let inputs: [(&str, Coordinate); 3] = [
            ("random", |rng| rng.next_f64() * 100.0),
            ("lattice", |rng| rng.next_below(5) as f64),
            ("identical", |_| 7.0),
        ];
        for (name, coordinate) in inputs {
            for dims in [1, 2, 3, 8] {
                for n in [0, 1, 16, 17, 5_000, 70_000] {
                    let mut rng = SplitMix64::new(n as u64 * 31 + dims as u64);
                    let flat = (0..n * dims).map(|_| coordinate(&mut rng)).collect();
                    let points = PointSet::from_flat(dims, flat);
                    let (want_nodes, want_ids) = reference_build(&points);
                    let tree = KdTree::build(&points);
                    let case = format!("{name} d={dims} n={n}");
                    assert!(tree.core.ids == want_ids, "{case}: leaf id order");
                    assert!(post_order(&tree.core) == want_nodes, "{case}: nodes");
                }
            }
        }
    }

    #[test]
    fn owned_tree_rebuild_cycle() {
        let ps = random_points(100, 2, 3);
        let owned = OwnedKdTree::build(ps);
        let mut points = owned.into_points();
        points.push(&[500.0, 500.0]);
        let rebuilt = OwnedKdTree::build(points);
        assert_eq!(rebuilt.len(), 101);
        assert_eq!(rebuilt.range_vec(&[500.0, 500.0], 1.0), vec![100]);
    }
}
