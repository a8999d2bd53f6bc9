//! Sort-Tile-Recursive (STR) bulk loading.
//!
//! Leutenegger, Lopez & Edgington, "STR: a simple and efficient algorithm
//! for R-tree packing" (ICDE 1997). The point set is recursively sorted and
//! sliced one dimension at a time so every leaf receives a spatially compact
//! tile of at most `M` points; upper levels are packed the same way over the
//! child bounding-box centers.
//!
//! **Keyed sorts.** Every tile is sorted on a dense copy of its keys
//! ([`KeyedSort`]), which yields the order sorting its ids through the
//! point rows would, ties among equal coordinates included. A level's
//! nodes are consecutive, so their centers are indexed by offset, not
//! looked up. One scratch serves every sort of the build: a buffer per
//! stage measurably raised a fit's peak RSS by fragmenting the heap.

use std::ops::Range;

use dbsvec_geometry::{BoundingBox, PointId, PointSet};

use super::{Entries, Node, RStarTree};
use crate::keyed::KeyedSort;

/// Builds a packed tree over the whole point set.
pub(crate) fn str_bulk_load(points: &PointSet) -> RStarTree<'_> {
    let n = points.len();
    if n == 0 {
        return RStarTree {
            points,
            nodes: Vec::new(),
            root: None,
        };
    }
    let dims = points.dims();
    let coord = |id: PointId, d: usize| points.point(id)[d];

    // ---- Leaf level: tile the whole set, one leaf per final tile.
    let mut ids: Vec<PointId> = (0..n as u32).collect();
    let mut sort = KeyedSort::default();
    let mut nodes: Vec<Node> = Vec::new();
    tile_on(&mut ids, 0, dims, &coord, &mut sort, &mut |leaf| {
        nodes.push(leaf_node(points, leaf));
    });
    drop(ids);

    // ---- Upper levels: pack child nodes by bbox center until one remains.
    let mut level: Range<usize> = 0..nodes.len();
    while level.len() > 1 {
        let base = level.start;
        let centers: Vec<f64> = nodes[level.clone()]
            .iter()
            .flat_map(|node| node.bbox.center())
            .collect();
        let center = |nid: u32, d: usize| centers[(nid as usize - base) * dims + d];
        let mut members: Vec<u32> = (level.start as u32..level.end as u32).collect();
        let mut parents = Vec::new();
        tile_on(&mut members, 0, dims, &center, &mut sort, &mut |tile| {
            parents.push(inner_node(&nodes, tile));
        });
        level = nodes.len()..nodes.len() + parents.len();
        nodes.extend(parents);
    }

    RStarTree {
        points,
        nodes,
        root: Some(level.start as u32),
    }
}

/// Tiles `tile` from dimension `d` on: sorts it on `key(·, d)`, cuts it
/// into slabs and tiles each slab from `d + 1`. Past the last dimension a
/// tile is one node's entries, handed to `emit`.
fn tile_on(
    tile: &mut [u32],
    d: usize,
    dims: usize,
    key: &impl Fn(u32, usize) -> f64,
    sort: &mut KeyedSort,
    emit: &mut impl FnMut(&[u32]),
) {
    if d == dims {
        emit(tile);
        return;
    }
    sort.sort(tile, |e| key(e, d));
    for slab in tile.chunks_mut(slab_size(tile.len(), dims - d)) {
        tile_on(slab, d + 1, dims, key, sort, emit);
    }
}

/// The size of the slabs a sorted tile of `len > 0` entries is cut into:
/// `s = ceil(pages^(1/dims_remaining))` slabs with `pages = ceil(len / M)`.
/// With `dims_remaining == 1` the slabs are the `pages` nodes themselves.
fn slab_size(len: usize, dims_remaining: usize) -> usize {
    let pages = len.div_ceil(RStarTree::MAX_ENTRIES);
    let slabs = if dims_remaining <= 1 {
        pages
    } else {
        (pages as f64).powf(1.0 / dims_remaining as f64).ceil() as usize
    };
    len.div_ceil(slabs.max(1))
}

/// A leaf over `ids`.
fn leaf_node(points: &PointSet, ids: &[PointId]) -> Node {
    let mut bbox = BoundingBox::around_point(points.point(ids[0]));
    for &id in &ids[1..] {
        bbox.expand_to_point(points.point(id));
    }
    Node {
        bbox,
        entries: Entries::Leaf(ids.to_vec()),
    }
}

/// An inner node over the child nodes `children`.
fn inner_node(nodes: &[Node], children: &[u32]) -> Node {
    let mut bbox = nodes[children[0] as usize].bbox.clone();
    for &child in &children[1..] {
        bbox.expand_to_box(&nodes[child as usize].bbox);
    }
    Node {
        bbox,
        entries: Entries::Inner(children.to_vec()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbsvec_geometry::rng::SplitMix64;

    /// The level-by-level STR tiling the build must reproduce: every pass
    /// sorts each tile through the point rows and cuts it into slabs, and
    /// upper levels find centers through a map from node id.
    fn reference_nodes(points: &PointSet) -> (Vec<Node>, Option<u32>) {
        let n = points.len();
        if n == 0 {
            return (Vec::new(), None);
        }
        let m = RStarTree::MAX_ENTRIES;
        let dims = points.dims();

        let mut ids: Vec<PointId> = (0..n as u32).collect();
        let mut tiles: Vec<&mut [PointId]> = vec![&mut ids[..]];
        let coord = |id: PointId, d: usize| points.point(id)[d];
        for d in 0..dims {
            tiles = slice_tiles(tiles, m, dims - d, |a, b| {
                coord(a, d).partial_cmp(&coord(b, d)).unwrap()
            });
        }
        let mut nodes: Vec<Node> = Vec::new();
        let mut level: Vec<u32> = Vec::new();
        for tile in tiles {
            nodes.push(leaf_node(points, tile));
            level.push((nodes.len() - 1) as u32);
        }

        while level.len() > 1 {
            let centers: Vec<Vec<f64>> = level
                .iter()
                .map(|&nid| nodes[nid as usize].bbox.center())
                .collect();
            let pos: std::collections::HashMap<u32, usize> =
                level.iter().enumerate().map(|(i, &nid)| (nid, i)).collect();
            let mut current = level.clone();
            let mut tiles: Vec<&mut [u32]> = vec![&mut current[..]];
            // `d` indexes into the inner center vectors, not `centers` itself.
            #[allow(clippy::needless_range_loop)]
            for d in 0..dims {
                tiles = slice_tiles(tiles, m, dims - d, |a, b| {
                    centers[pos[&a]][d]
                        .partial_cmp(&centers[pos[&b]][d])
                        .unwrap()
                });
            }
            let mut next_level = Vec::new();
            for tile in tiles {
                nodes.push(inner_node(&nodes, tile));
                next_level.push((nodes.len() - 1) as u32);
            }
            level = next_level;
        }
        (nodes, Some(level[0]))
    }

    /// Splits every tile into `s` slabs along the current sort order, where
    /// `s = ceil(pages^(1/dims_remaining))` and `pages = ceil(len / m)`.
    fn slice_tiles<T: Copy>(
        tiles: Vec<&mut [T]>,
        m: usize,
        dims_remaining: usize,
        mut cmp: impl FnMut(T, T) -> std::cmp::Ordering,
    ) -> Vec<&mut [T]> {
        let mut out = Vec::new();
        for tile in tiles {
            tile.sort_unstable_by(|&a, &b| cmp(a, b));
            let pages = tile.len().div_ceil(m);
            let slabs = if dims_remaining <= 1 {
                pages
            } else {
                (pages as f64).powf(1.0 / dims_remaining as f64).ceil() as usize
            };
            let slab_size = tile.len().div_ceil(slabs.max(1));
            let mut rest = tile;
            while !rest.is_empty() {
                let take = slab_size.min(rest.len());
                let (head, tail) = rest.split_at_mut(take);
                out.push(head);
                rest = tail;
            }
        }
        out
    }

    /// Each node as (is leaf, entries, box).
    fn layout(nodes: &[Node]) -> Vec<(bool, Vec<u32>, BoundingBox)> {
        nodes
            .iter()
            .map(|node| match &node.entries {
                Entries::Leaf(ids) => (true, ids.clone(), node.bbox.clone()),
                Entries::Inner(children) => (false, children.clone(), node.bbox.clone()),
            })
            .collect()
    }

    #[test]
    fn build_reproduces_the_level_by_level_tiling() {
        type Coordinate = fn(&mut SplitMix64) -> f64;
        let inputs: [(&str, Coordinate); 3] = [
            ("random", |rng| rng.next_f64() * 100.0),
            ("lattice", |rng| rng.next_below(5) as f64),
            ("identical", |_| 7.0),
        ];
        for (name, coordinate) in inputs {
            for dims in [1, 2, 3, 8] {
                for n in [0, 1, 31, 32, 33, 5_000, 70_000] {
                    let mut rng = SplitMix64::new(n as u64 * 31 + dims as u64);
                    let flat = (0..n * dims).map(|_| coordinate(&mut rng)).collect();
                    let points = PointSet::from_flat(dims, flat);
                    let (want, want_root) = reference_nodes(&points);
                    let tree = str_bulk_load(&points);
                    let case = format!("{name} d={dims} n={n}");
                    assert_eq!(tree.root, want_root, "{case}: root");
                    assert!(layout(&tree.nodes) == layout(&want), "{case}: nodes");
                }
            }
        }
    }
}
