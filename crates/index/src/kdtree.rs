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
//! * nodes are plain structs in one pre-order array and their boxes sit in
//!   one flat `Vec<f64>`, both sized once from n (the tree's shape depends
//!   on n alone), so a build allocates no memory per node,
//! * a node of at least [`KdTree::SPAWN_FLOOR`] points builds its two
//!   halves at once, the right one on a scoped thread, each into its own
//!   slots of those arrays; the tree is the same at every thread count,
//! * the build and every traversal are compiled for the point width: each
//!   width from 1 to 8 gets its own kernels, with constant-length loops,
//!   and wider points run the same kernels at the run-time width
//!   (`width.rs`).
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
use crate::leaf;
use crate::traits::RangeIndex;
use crate::width::{row, width, with_width};
use dbsvec_geometry::{bbox, squared_euclidean, PointId, PointSet};

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
    /// Builds the tree on up to `available_parallelism` threads; a tree
    /// under [`KdTree::SPAWN_FLOOR`] points never asks how many there are.
    fn build(points: &PointSet) -> Self {
        let floor = KdTree::SPAWN_FLOOR;
        let threads = if points.len() >= floor {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        } else {
            1
        };
        Self::build_on(points, threads, floor)
    }

    /// Builds the tree on at most `threads` threads, the calling one
    /// included, handing the right half of every node of at least `floor`
    /// points to another thread while the budget lasts. The tree is the
    /// same at every budget and floor.
    fn build_on(points: &PointSet, threads: usize, floor: usize) -> Self {
        let (n, dims) = (points.len(), points.dims());
        let count = node_count(n);
        let leaf = Node {
            start: 0,
            end: 0,
            children: None,
        };
        let mut core = Self {
            nodes: vec![leaf; count],
            boxes: vec![0.0; 2 * dims * count],
            dims,
            ids: (0..n as u32).collect(),
        };
        if n > 0 {
            // One key scratch serves every median selection of the build;
            // each subtree orders its run in its own part of it.
            let (mut keys, mut order) = (vec![0.0; n], vec![0; n]);
            let slots = Slots {
                node: 0,
                start: 0,
                ids: &mut core.ids,
                nodes: &mut core.nodes,
                boxes: &mut core.boxes,
                sort: KeyedSort::new(&mut keys, &mut order),
            };
            with_width!(dims, D => build_subtree::<D>(points, slots, threads, floor));
        }
        core
    }

    /// Node `node`'s box as (lower corner, upper corner), at the kernel
    /// width `D`.
    #[inline]
    fn box_at<const D: usize>(&self, node: u32) -> (&[f64], &[f64]) {
        let w = width::<D>(self.dims);
        self.boxes[2 * w * node as usize..][..2 * w].split_at(w)
    }

    /// Node `node`'s box at the run-time width.
    #[cfg(test)]
    fn corners(&self, node: u32) -> (&[f64], &[f64]) {
        self.box_at::<0>(node)
    }

    /// Squared distance from `query` to the nearest point of `node`'s box.
    #[inline]
    fn min_sq<const D: usize>(&self, node: u32, query: &[f64]) -> f64 {
        let (lo, hi) = self.box_at::<D>(node);
        bbox::min_squared_distance(lo, hi, query)
    }

    /// Squared distance from `query` to the farthest point of `node`'s box.
    #[inline]
    fn max_sq<const D: usize>(&self, node: u32, query: &[f64]) -> f64 {
        let (lo, hi) = self.box_at::<D>(node);
        bbox::max_squared_distance(lo, hi, query)
    }

    /// The one width check every query passes first. The kernels slice
    /// `query` to the tree's width, so without it a longer query would be
    /// cut short silently and a shorter one would fail inside a kernel.
    fn check_width(&self, query: &[f64]) {
        assert!(
            query.len() == self.dims,
            "query has {} coordinates but the tree is {}-dimensional",
            query.len(),
            self.dims
        );
    }

    fn range(&self, points: &PointSet, query: &[f64], eps: f64, out: &mut Vec<PointId>) {
        self.check_width(query);
        let eps_sq = eps * eps;
        with_width!(self.dims, D => {
            if !self.nodes.is_empty() && self.min_sq::<D>(0, query) <= eps_sq {
                self.range_recursive::<D>(points, 0, query, eps_sq, out);
            }
        })
    }

    fn count_range(&self, points: &PointSet, query: &[f64], eps: f64) -> usize {
        self.check_width(query);
        let eps_sq = eps * eps;
        with_width!(self.dims, D => {
            if !self.nodes.is_empty() && self.min_sq::<D>(0, query) <= eps_sq {
                self.count_recursive::<D>(points, 0, query, eps_sq)
            } else {
                0
            }
        })
    }

    fn nearest_within(
        &self,
        points: &PointSet,
        query: &[f64],
        eps: f64,
        keep: &impl Fn(PointId) -> bool,
    ) -> Option<(f64, PointId)> {
        self.check_width(query);
        let mut best = Best {
            bound: eps * eps,
            found: None,
        };
        with_width!(self.dims, D => {
            if !self.nodes.is_empty() && self.min_sq::<D>(0, query) <= best.bound {
                self.nearest_recursive::<D>(points, 0, query, keep, &mut best);
            }
        });
        best.found
    }

    fn nearest_recursive<const D: usize>(
        &self,
        points: &PointSet,
        node: u32,
        query: &[f64],
        keep: &impl Fn(PointId) -> bool,
        best: &mut Best,
    ) {
        let (flat, w) = (points.as_flat(), width::<D>(self.dims));
        let query = &query[..w];
        let Node {
            start,
            end,
            children,
        } = self.nodes[node as usize];
        match children {
            None => {
                for &id in &self.ids[start as usize..end as usize] {
                    if keep(id) {
                        best.offer(squared_euclidean(row(flat, id, w), query), id);
                    }
                }
            }
            Some((left, right)) => {
                let dl = self.min_sq::<D>(left, query);
                let dr = self.min_sq::<D>(right, query);
                let ((near, d_near), (far, d_far)) = if dr < dl {
                    ((right, dr), (left, dl))
                } else {
                    ((left, dl), (right, dr))
                };
                // A box exactly at the bound may still hold a tie with a
                // smaller id, so only strictly farther boxes are pruned.
                if d_near <= best.bound {
                    self.nearest_recursive::<D>(points, near, query, keep, best);
                }
                if d_far <= best.bound {
                    self.nearest_recursive::<D>(points, far, query, keep, best);
                }
            }
        }
    }

    fn range_recursive<const D: usize>(
        &self,
        points: &PointSet,
        node: u32,
        query: &[f64],
        eps_sq: f64,
        out: &mut Vec<PointId>,
    ) {
        let query = &query[..width::<D>(self.dims)];
        let Node {
            start,
            end,
            children,
        } = self.nodes[node as usize];
        let ids = &self.ids[start as usize..end as usize];
        if self.max_sq::<D>(node, query) <= eps_sq {
            // The box lies inside the ball: report the node's run whole.
            out.extend_from_slice(ids);
            return;
        }
        match children {
            None => leaf::extend_within::<D>(points, ids, query, eps_sq, out),
            Some((left, right)) => {
                for child in [left, right] {
                    if self.min_sq::<D>(child, query) <= eps_sq {
                        self.range_recursive::<D>(points, child, query, eps_sq, out);
                    }
                }
            }
        }
    }

    fn count_recursive<const D: usize>(
        &self,
        points: &PointSet,
        node: u32,
        query: &[f64],
        eps_sq: f64,
    ) -> usize {
        let (flat, w) = (points.as_flat(), width::<D>(self.dims));
        let query = &query[..w];
        let Node {
            start,
            end,
            children,
        } = self.nodes[node as usize];
        let ids = &self.ids[start as usize..end as usize];
        if self.max_sq::<D>(node, query) <= eps_sq {
            return ids.len();
        }
        match children {
            None => ids
                .iter()
                .filter(|&&id| squared_euclidean(row(flat, id, w), query) <= eps_sq)
                .count(),
            Some((left, right)) => [left, right]
                .into_iter()
                .filter(|&child| self.min_sq::<D>(child, query) <= eps_sq)
                .map(|child| self.count_recursive::<D>(points, child, query, eps_sq))
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
///
/// # Panics
///
/// Every query ([`RangeIndex::range`], [`RangeIndex::count_range`],
/// [`KdTree::nearest_within`]) panics unless it has exactly as many
/// coordinates as the indexed points, whatever their width and even when
/// the tree is empty. The same holds for [`OwnedKdTree`].
pub struct KdTree<'a> {
    points: &'a PointSet,
    core: TreeCore,
}

impl<'a> KdTree<'a> {
    /// Maximum number of points stored in one leaf bucket.
    pub const LEAF_SIZE: usize = 16;

    /// Minimum points in a node before the build hands the node's right
    /// half to a scoped thread, given a thread budget of two or more (the
    /// budget is `std::thread::available_parallelism`). A median split
    /// leaves two equal, independent halves, so a split node builds both
    /// at once. One scoped spawn plus its join costs about 35 µs on a
    /// 2-vCPU VM (median of 2,000), and building a half of 2¹⁶ 8-d points
    /// takes about 10 ms there, so at the floor a spawn costs well under 1%
    /// of the work it moves. The floor sits above 10⁵: at 2¹⁶ the root of
    /// a 10⁵-point fit split too, and that fit got no faster end to end
    /// while its CPU time rose. A 10⁶-point fit's root splits; a serving
    /// engine's trees of a few thousand cores stay on the calling thread.
    pub const SPAWN_FLOOR: usize = 1 << 17;

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
    ///
    /// # Panics
    ///
    /// Panics if `query` is not as wide as the indexed points.
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

/// The number of nodes of the tree over `len` points. A run of at most
/// [`KdTree::LEAF_SIZE`] points is one leaf, and a longer run is one node
/// over its two halves, so the count depends on `len` alone.
fn node_count(len: usize) -> usize {
    if len == 0 {
        0
    } else {
        node_counts(len).0
    }
}

/// `(node_count(m), node_count(m + 1))` for `m ≥ 1`, in O(log m): halving
/// `m` and `m + 1` gives runs of ⌊m/2⌋ and ⌊m/2⌋ + 1 points only.
fn node_counts(m: usize) -> (usize, usize) {
    if m < KdTree::LEAF_SIZE {
        return (1, 1);
    }
    let (h, h1) = node_counts(m / 2);
    let (at_m, at_m1) = if m % 2 == 0 {
        (1 + 2 * h, 1 + h + h1)
    } else {
        (1 + h + h1, 1 + 2 * h1)
    };
    (if m <= KdTree::LEAF_SIZE { 1 } else { at_m }, at_m1)
}

/// The slices one subtree of the build writes. A median-split tree's shape
/// depends only on its number of points ([`node_count`]), so a subtree's
/// slots in the pre-order node and box arrays are known before it is
/// built, and disjoint subtrees can be built at the same time.
struct Slots<'a> {
    /// The subtree root's node id: its slot in the whole tree.
    node: usize,
    /// Where the subtree's run starts in the whole tree's id array.
    start: usize,
    /// The subtree's run of ids.
    ids: &'a mut [PointId],
    /// The subtree's nodes, its root first.
    nodes: &'a mut [Node],
    /// The subtree's node boxes, in node order.
    boxes: &'a mut [f64],
    /// Key scratch for the run's median selections.
    sort: KeyedSort<'a>,
}

impl<'a> Slots<'a> {
    /// The slots of the two subtrees below this one's root, the left one
    /// over the first `mid` ids, for `w`-wide boxes. `self` must already
    /// start one node (and one box) past the root.
    fn halves(self, mid: usize, w: usize) -> (Slots<'a>, Slots<'a>) {
        let left_nodes = node_count(mid);
        let (left_ids, right_ids) = self.ids.split_at_mut(mid);
        let (left_node_slots, right_node_slots) = self.nodes.split_at_mut(left_nodes);
        let (left_boxes, right_boxes) = self.boxes.split_at_mut(2 * w * left_nodes);
        let (left_sort, right_sort) = self.sort.split_at_mut(mid);
        (
            Slots {
                node: self.node,
                start: self.start,
                ids: left_ids,
                nodes: left_node_slots,
                boxes: left_boxes,
                sort: left_sort,
            },
            Slots {
                node: self.node + left_nodes,
                start: self.start + mid,
                ids: right_ids,
                nodes: right_node_slots,
                boxes: right_boxes,
                sort: right_sort,
            },
        )
    }
}

/// Builds the subtree over the non-empty run `slots.ids` into its slots: a
/// leaf of at most [`KdTree::LEAF_SIZE`] points, or a split at the median
/// of the box's widest dimension. A run of at least `floor` points with a
/// budget of two or more threads builds its right half on a scoped thread
/// with half the budget, and its left half on this thread with the rest.
fn build_subtree<const D: usize>(
    points: &PointSet,
    slots: Slots<'_>,
    threads: usize,
    floor: usize,
) {
    let (flat, w) = (points.as_flat(), width::<D>(points.dims()));
    let Slots {
        node,
        start,
        ids,
        nodes,
        boxes,
        mut sort,
    } = slots;
    let len = ids.len();
    let (root_box, boxes) = boxes.split_at_mut(2 * w);
    let (lo, hi) = root_box.split_at_mut(w);
    let first = row(flat, ids[0], w);
    lo.copy_from_slice(first);
    hi.copy_from_slice(first);
    for &id in &ids[1..] {
        bbox::expand_to_point(lo, hi, row(flat, id, w));
    }
    let (root, nodes) = nodes.split_first_mut().expect("a slot for the root");
    *root = Node {
        start: start as u32,
        end: (start + len) as u32,
        children: None,
    };
    if len <= KdTree::LEAF_SIZE {
        return;
    }
    let dim = widest_dimension(lo, hi);
    let mid = len / 2;
    sort.select_nth(ids, mid, |id| flat[id as usize * w + dim]);
    let below = Slots {
        node: node + 1,
        start,
        ids,
        nodes,
        boxes,
        sort,
    };
    let (left, right) = below.halves(mid, w);
    root.children = Some((left.node as u32, right.node as u32));
    if len < floor || threads < 2 {
        build_subtree::<D>(points, left, threads, floor);
        build_subtree::<D>(points, right, threads, floor);
        return;
    }
    let right_threads = threads / 2;
    std::thread::scope(|scope| {
        let worker = scope.spawn(|| build_subtree::<D>(points, right, right_threads, floor));
        build_subtree::<D>(points, left, threads - right_threads, floor);
        // Re-raise the worker's own panic (a NaN coordinate, say) rather
        // than the scope's generic one.
        if let Err(panic) = worker.join() {
            std::panic::resume_unwind(panic);
        }
    });
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
    fn build_reproduces_the_recursive_build_at_the_other_widths() {
        // The widths `build_reproduces_the_recursive_build` leaves out:
        // the other fixed-width kernels and the run-time one.
        for dims in [4, 5, 6, 7, 9, 12] {
            for n in [17, 5_000] {
                let points = random_points(n, dims, n as u64 + dims as u64);
                let (want_nodes, want_ids) = reference_build(&points);
                let tree = KdTree::build(&points);
                assert!(tree.core.ids == want_ids, "d={dims} n={n}: leaf id order");
                assert!(
                    post_order(&tree.core) == want_nodes,
                    "d={dims} n={n}: nodes"
                );
            }
        }
    }

    /// Points of `dims` coordinates drawn by `coordinate`, seeded as in
    /// `build_reproduces_the_recursive_build`.
    fn drawn_points(n: usize, dims: usize, coordinate: fn(&mut SplitMix64) -> f64) -> PointSet {
        let mut rng = SplitMix64::new(n as u64 * 31 + dims as u64);
        PointSet::from_flat(dims, (0..n * dims).map(|_| coordinate(&mut rng)).collect())
    }

    #[test]
    fn every_thread_budget_builds_the_recursive_tree() {
        type Coordinate = fn(&mut SplitMix64) -> f64;
        let inputs: [(&str, Coordinate); 3] = [
            ("random", |rng| rng.next_f64() * 100.0),
            ("lattice", |rng| rng.next_below(5) as f64),
            ("identical", |_| 7.0),
        ];
        let check =
            |core: &TreeCore, (want_nodes, want_ids): &(Vec<RefNode>, Vec<PointId>), case| {
                assert!(&core.ids == want_ids, "{case}: leaf id order");
                assert!(&post_order(core) == want_nodes, "{case}: nodes");
            };
        // With a floor of 256 points every node of 5,000 points down to
        // runs of 312 may split, so every budget spawns as many halves as
        // it allows, nested ones included, on every input and width.
        for (name, coordinate) in inputs {
            for dims in [1, 2, 8, 12] {
                let points = drawn_points(5_000, dims, coordinate);
                let want = reference_build(&points);
                for threads in [1, 2, 3, 4, 8] {
                    let case = format!("{name} d={dims} threads={threads} floor=256");
                    check(&TreeCore::build_on(&points, threads, 256), &want, case);
                }
            }
        }
        // Around the real floor: the root splits from `floor` points on,
        // and under 2·floor points nothing below it does, so every budget
        // of two or more builds these trees as two does.
        let floor = KdTree::SPAWN_FLOOR;
        for n in [70_000, floor - 1, floor, floor + 1] {
            let points = drawn_points(n, 2, inputs[0].1);
            let want = reference_build(&points);
            for threads in [1, 2] {
                let case = format!("random d=2 n={n} threads={threads}");
                check(&TreeCore::build_on(&points, threads, floor), &want, case);
            }
            if n == floor + 1 {
                // The owning tree takes the same build as the borrowing one.
                let owned = OwnedKdTree::build(points.clone());
                check(&owned.core, &want, format!("owned n={n}"));
            }
        }
    }

    #[test]
    fn the_node_count_from_n_is_the_built_count() {
        // `post_order` reaches every slot from the root, so a slot the
        // build left unfilled fails here, and a missing one panics the
        // build.
        let same = |_: &mut SplitMix64| 1.0;
        for n in (0..=4_096).chain([1_000_000]) {
            let core = TreeCore::build(&drawn_points(n, 1, same));
            assert_eq!(post_order(&core).len(), node_count(n), "n={n}");
        }
    }

    #[test]
    fn a_nan_in_a_spawned_half_panics_as_on_the_calling_thread() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        // The root splits x, and with the floor at n only the root hands
        // its right half to a worker. That half is narrow in x and wide in
        // y, so it splits y first, and its last point's y is NaN.
        let n = 1_000;
        let mut flat = Vec::with_capacity(2 * n);
        for i in 0..n {
            if i < n / 2 {
                flat.extend([i as f64 * 1e-3, (i % 7) as f64 * 0.1]);
            } else {
                flat.extend([1_000.0 + (i % 3) as f64 * 0.1, (i % 50) as f64]);
            }
        }
        flat[2 * n - 1] = f64::NAN;
        let points = PointSet::from_flat(2, flat);
        for threads in [1, 2] {
            let panic = catch_unwind(AssertUnwindSafe(|| TreeCore::build_on(&points, threads, n)))
                .expect_err("a NaN key must panic");
            let message = panic
                .downcast_ref::<&str>()
                .copied()
                .or_else(|| panic.downcast_ref::<String>().map(String::as_str));
            assert_eq!(message, Some("NaN coordinate"), "threads={threads}");
        }
    }

    #[test]
    fn a_query_of_another_width_panics_at_every_width() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        for dims in (1..=9).chain([12]) {
            let points = random_points(40, dims, dims as u64);
            let empty = PointSet::new(dims);
            let trees = [KdTree::build(&points), KdTree::build(&empty)];
            let owned = OwnedKdTree::build(points.clone());
            for len in [dims - 1, dims + 1] {
                let q = vec![50.0; len];
                let calls: [&dyn Fn() -> usize; 7] = [
                    &|| trees[0].range_vec(&q, 10.0).len(),
                    &|| trees[0].count_range(&q, 10.0),
                    &|| trees[0].nearest_within(&q, 10.0, |_| true).is_some() as usize,
                    &|| trees[1].range_vec(&q, 10.0).len(),
                    &|| owned.range_vec(&q, 10.0).len(),
                    &|| owned.count_range(&q, 10.0),
                    &|| owned.nearest_within(&q, 10.0, |_| true).is_some() as usize,
                ];
                for (k, call) in calls.into_iter().enumerate() {
                    let panic = catch_unwind(AssertUnwindSafe(call))
                        .expect_err("a query of another width must panic");
                    let message = panic.downcast_ref::<String>().expect("a formatted message");
                    let want =
                        format!("query has {len} coordinates but the tree is {dims}-dimensional");
                    assert_eq!(message, &want, "call {k}");
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
