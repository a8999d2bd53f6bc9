//! Dynamic connectivity over the core graph: a spanning forest with
//! replacement-edge search.
//!
//! The fit's union–find (`unionfind::UnionFind`) answers "same
//! component?" under edge *insertions* only — exactly what sub-cluster
//! merging needs. The serving engine's decremental maintenance also needs
//! edge and vertex **deletions**: removing or demoting a core point may
//! disconnect its cluster, and the engine must discover the split (and
//! each resulting piece) exactly. [`Connectivity`] generalizes the
//! union–find into a structure that supports both directions:
//!
//! * every component is spanned by a forest (`tree` adjacency);
//! * edges that close a cycle are parked as *non-tree* edges (`extra`);
//! * deleting a vertex tears its incident tree edges out of the forest,
//!   provisionally splitting the component into pieces, then searches the
//!   pieces' non-tree edges for **replacement edges** that reconnect them.
//!   Pieces still unconnected after the search are genuine splits.
//!
//! # Amortized-cost accounting
//!
//! Insertions use the classic smaller-half argument: a merge relabels
//! only the smaller component, so each vertex is relabeled at most
//! `log₂ n` times over any insertion sequence — `O(n log n)` total, plus
//! `O(deg)` per duplicate-edge check. Deletions are **not** polylog: one
//! `remove_vertex` costs `O(|component| + incident edges)` — a BFS over
//! the component's tree edges to find the pieces, a scan of the pieces'
//! non-tree edges for replacements, and a relabel of every surviving
//! vertex. This is the right trade for DBSVEC: the paper's core-SV
//! structure keeps the core graph small relative to the dataset (the
//! whole point of support vector expansion is to query few points), so an
//! exact `O(|component|)` repair beats the constant factors of a
//! fully-dynamic structure at the component sizes the engine maintains.
//! When components grow past that regime, the upgrade path is Euler-tour
//! sequences over the spanning forest (dynamic DBSCAN via ETS,
//! arXiv:2503.08246), which makes deletions `O(polylog n)` amortized
//! behind the same interface.
//!
//! Determinism: every operation is a pure function of the operation
//! sequence — BFS visits adjacency lists in insertion order, replacement
//! search scans pieces in discovery order, and piece representatives are
//! the minimum vertex id — so identical op sequences yield identical
//! structures, labels, and split reports.

/// A spanning-forest dynamic-connectivity structure over dense `u32`
/// vertex ids.
///
/// Vertices are allocated sequentially by [`Connectivity::add_vertex`]
/// and torn down by [`Connectivity::remove_vertex`]; ids are never
/// reused (the engine compacts by rebuilding).
#[derive(Clone, Debug, Default)]
pub struct Connectivity {
    /// Spanning-forest adjacency (each edge appears in both endpoint
    /// lists).
    tree: Vec<Vec<u32>>,
    /// Non-tree (cycle-closing) adjacency, mined for replacement edges
    /// when a deletion splits the forest.
    extra: Vec<Vec<u32>>,
    /// Component representative per vertex, maintained eagerly — `rep`
    /// is a field read, never a pointer chase.
    comp: Vec<u32>,
    /// Component size, meaningful at representatives only.
    size: Vec<u32>,
    alive: Vec<bool>,
    num_components: usize,
}

impl Connectivity {
    /// An empty structure.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total vertices ever allocated (dead ones included).
    pub fn len(&self) -> usize {
        self.comp.len()
    }

    /// Whether no vertex was ever allocated.
    pub fn is_empty(&self) -> bool {
        self.comp.is_empty()
    }

    /// Whether `v` is currently alive.
    pub fn is_alive(&self, v: u32) -> bool {
        self.alive[v as usize]
    }

    /// Current number of connected components over the alive vertices.
    pub fn num_components(&self) -> usize {
        self.num_components
    }

    /// Allocates a fresh singleton vertex and returns its id.
    pub fn add_vertex(&mut self) -> u32 {
        let v = self.comp.len() as u32;
        self.tree.push(Vec::new());
        self.extra.push(Vec::new());
        self.comp.push(v);
        self.size.push(1);
        self.alive.push(true);
        self.num_components += 1;
        v
    }

    /// The representative vertex of `v`'s component (the minimum alive
    /// vertex id after deletions; an arbitrary but deterministic member
    /// after pure insertions).
    ///
    /// # Panics
    ///
    /// Panics when `v` is dead.
    pub fn rep(&self, v: u32) -> u32 {
        assert!(self.alive[v as usize], "rep() on dead vertex {v}");
        self.comp[v as usize]
    }

    /// Whether alive vertices `a` and `b` share a component.
    pub fn same(&self, a: u32, b: u32) -> bool {
        self.rep(a) == self.rep(b)
    }

    /// Number of vertices in `v`'s component.
    pub fn component_size(&self, v: u32) -> usize {
        self.size[self.rep(v) as usize] as usize
    }

    /// Adds the undirected edge `(u, v)`. Returns `true` when the edge
    /// merged two components (it joined the spanning forest), `false`
    /// when the endpoints were already connected (the edge is parked as
    /// a non-tree edge; exact duplicates are dropped).
    ///
    /// # Panics
    ///
    /// Panics on a self-loop or a dead endpoint.
    pub fn add_edge(&mut self, u: u32, v: u32) -> bool {
        assert_ne!(u, v, "self-loop on vertex {u}");
        assert!(
            self.alive[u as usize] && self.alive[v as usize],
            "edge ({u}, {v}) touches a dead vertex"
        );
        let (ru, rv) = (self.comp[u as usize], self.comp[v as usize]);
        if ru == rv {
            // Cycle edge: park it (once) for future replacement searches.
            if !self.tree[u as usize].contains(&v) && !self.extra[u as usize].contains(&v) {
                self.extra[u as usize].push(v);
                self.extra[v as usize].push(u);
            }
            return false;
        }
        // Relabel the smaller side (the amortization argument above);
        // ties keep the smaller representative id.
        let keep_u = (self.size[ru as usize], rv) > (self.size[rv as usize], ru);
        let (keep, absorb_from) = if keep_u { (ru, v) } else { (rv, u) };
        self.size[keep as usize] += self.size[self.comp[absorb_from as usize] as usize];
        let mut queue = vec![absorb_from];
        self.comp[absorb_from as usize] = keep;
        let mut head = 0;
        while head < queue.len() {
            let w = queue[head];
            head += 1;
            for i in 0..self.tree[w as usize].len() {
                let next = self.tree[w as usize][i];
                if self.comp[next as usize] != keep {
                    self.comp[next as usize] = keep;
                    queue.push(next);
                }
            }
        }
        self.tree[u as usize].push(v);
        self.tree[v as usize].push(u);
        self.num_components -= 1;
        true
    }

    /// Deletes vertex `v` and repairs the forest. Returns the sorted
    /// representatives (minimum vertex id each) of the pieces `v`'s
    /// component was left in: an empty vector when `v` was a singleton
    /// (the component vanished), one representative when the component
    /// survived connected, two or more on a genuine split.
    ///
    /// # Panics
    ///
    /// Panics when `v` is already dead.
    pub fn remove_vertex(&mut self, v: u32) -> Vec<u32> {
        assert!(self.alive[v as usize], "remove_vertex() on dead vertex {v}");
        self.alive[v as usize] = false;
        let tree_nbrs = std::mem::take(&mut self.tree[v as usize]);
        let extra_nbrs = std::mem::take(&mut self.extra[v as usize]);
        for &n in &tree_nbrs {
            self.tree[n as usize].retain(|&w| w != v);
        }
        for &n in &extra_nbrs {
            self.extra[n as usize].retain(|&w| w != v);
        }
        if tree_nbrs.is_empty() {
            // The forest spans every component, so no tree edge means v
            // was alone: its component vanishes outright.
            self.num_components -= 1;
            return Vec::new();
        }

        // Provisional pieces: BFS over the remaining tree edges from each
        // former tree neighbor of v.
        const UNSEEN: u32 = u32::MAX;
        let mut piece_of = vec![UNSEEN; self.comp.len()];
        let mut pieces: Vec<Vec<u32>> = Vec::new();
        for &start in &tree_nbrs {
            if piece_of[start as usize] != UNSEEN {
                continue;
            }
            let id = pieces.len() as u32;
            let mut members = vec![start];
            piece_of[start as usize] = id;
            let mut head = 0;
            while head < members.len() {
                let w = members[head];
                head += 1;
                for i in 0..self.tree[w as usize].len() {
                    let next = self.tree[w as usize][i];
                    if piece_of[next as usize] == UNSEEN {
                        piece_of[next as usize] = id;
                        members.push(next);
                    }
                }
            }
            pieces.push(members);
        }

        // Replacement-edge search: a non-tree edge crossing two pieces
        // reconnects them — promote it into the forest. A tiny DSU over
        // the piece ids tracks which pieces are already rejoined.
        let mut dsu: Vec<u32> = (0..pieces.len() as u32).collect();
        fn find(dsu: &mut [u32], mut x: u32) -> u32 {
            while dsu[x as usize] != x {
                dsu[x as usize] = dsu[dsu[x as usize] as usize];
                x = dsu[x as usize];
            }
            x
        }
        for piece in &pieces {
            for &w in piece {
                let mut i = 0;
                while i < self.extra[w as usize].len() {
                    let x = self.extra[w as usize][i];
                    let (pw, px) = (find(&mut dsu, piece_of[w as usize]), {
                        find(&mut dsu, piece_of[x as usize])
                    });
                    if pw == px {
                        i += 1;
                        continue;
                    }
                    // Promote (w, x) to a tree edge and rejoin the pieces.
                    self.extra[w as usize].swap_remove(i);
                    self.extra[x as usize].retain(|&y| y != w);
                    self.tree[w as usize].push(x);
                    self.tree[x as usize].push(w);
                    dsu[pw.max(px) as usize] = pw.min(px);
                }
            }
        }

        // Relabel every survivor: each rejoined group becomes one
        // component represented by its minimum vertex id.
        let mut groups: Vec<(u32, Vec<u32>)> = Vec::new();
        let mut group_of = vec![UNSEEN; pieces.len()];
        for (p, piece) in pieces.iter().enumerate() {
            let root = find(&mut dsu, p as u32);
            if group_of[root as usize] == UNSEEN {
                group_of[root as usize] = groups.len() as u32;
                groups.push((u32::MAX, Vec::new()));
            }
            let g = &mut groups[group_of[root as usize] as usize];
            for &w in piece {
                g.0 = g.0.min(w);
                g.1.push(w);
            }
        }
        for (rep, members) in &groups {
            for &w in members {
                self.comp[w as usize] = *rep;
            }
            self.size[*rep as usize] = members.len() as u32;
        }
        self.num_components += groups.len() - 1;
        let mut reps: Vec<u32> = groups.iter().map(|(rep, _)| *rep).collect();
        reps.sort_unstable();
        reps
    }

    /// Visits every edge once (`u < v`), tree edges flagged `true` — the
    /// hook the engine's storage compaction uses to rebuild the structure
    /// under remapped vertex ids.
    pub fn for_each_edge(&self, mut f: impl FnMut(u32, u32, bool)) {
        for u in 0..self.comp.len() as u32 {
            for &v in &self.tree[u as usize] {
                if u < v {
                    f(u, v, true);
                }
            }
            for &v in &self.extra[u as usize] {
                if u < v {
                    f(u, v, false);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path(n: u32) -> Connectivity {
        let mut c = Connectivity::new();
        for _ in 0..n {
            c.add_vertex();
        }
        for v in 1..n {
            assert!(c.add_edge(v - 1, v));
        }
        c
    }

    #[test]
    fn vertices_start_as_singletons() {
        let mut c = Connectivity::new();
        let a = c.add_vertex();
        let b = c.add_vertex();
        assert_eq!((a, b), (0, 1));
        assert_eq!(c.num_components(), 2);
        assert!(!c.same(a, b));
        assert_eq!(c.component_size(a), 1);
    }

    #[test]
    fn edges_merge_and_cycles_park() {
        let mut c = path(3);
        assert_eq!(c.num_components(), 1);
        assert!(c.same(0, 2));
        assert!(!c.add_edge(0, 2), "cycle edge must not merge");
        assert!(!c.add_edge(0, 2), "duplicate cycle edge is dropped");
        assert_eq!(c.component_size(1), 3);
    }

    #[test]
    fn removing_a_cut_vertex_splits() {
        let mut c = path(5);
        let reps = c.remove_vertex(2);
        assert_eq!(reps, vec![0, 3], "two pieces, min-id representatives");
        assert_eq!(c.num_components(), 2);
        assert!(c.same(0, 1));
        assert!(c.same(3, 4));
        assert!(!c.same(1, 3));
        assert!(!c.is_alive(2));
    }

    #[test]
    fn replacement_edge_prevents_a_split() {
        // A path 0-1-2-3-4 plus the chord (1, 3): removing 2 must find
        // the chord and keep the component whole.
        let mut c = path(5);
        assert!(!c.add_edge(1, 3));
        let reps = c.remove_vertex(2);
        assert_eq!(reps.len(), 1);
        assert_eq!(c.num_components(), 1);
        assert!(c.same(0, 4));
    }

    #[test]
    fn removing_a_singleton_vanishes_its_component() {
        let mut c = Connectivity::new();
        c.add_vertex();
        c.add_vertex();
        assert_eq!(c.remove_vertex(1), Vec::<u32>::new());
        assert_eq!(c.num_components(), 1);
    }

    #[test]
    fn removing_a_leaf_keeps_one_piece() {
        let mut c = path(4);
        let reps = c.remove_vertex(3);
        assert_eq!(reps, vec![0]);
        assert_eq!(c.num_components(), 1);
    }

    #[test]
    fn star_center_removal_splits_into_every_leaf() {
        let mut c = Connectivity::new();
        for _ in 0..5 {
            c.add_vertex();
        }
        for leaf in 1..5 {
            c.add_edge(0, leaf);
        }
        let reps = c.remove_vertex(0);
        assert_eq!(reps, vec![1, 2, 3, 4]);
        assert_eq!(c.num_components(), 4);
    }

    #[test]
    fn matches_a_naive_oracle_under_random_ops() {
        // Deterministic splitmix64 stream driving interleaved edge adds
        // and vertex removals; after every op, component labels must
        // match a from-scratch BFS over a mirrored edge set.
        let mut state = 0x9E3779B97F4A7C15u64;
        let mut next = move || {
            state = state.wrapping_add(0x9E3779B97F4A7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
            z ^ (z >> 31)
        };
        let n = 24u32;
        let mut c = Connectivity::new();
        for _ in 0..n {
            c.add_vertex();
        }
        let mut alive: Vec<u32> = (0..n).collect();
        let mut edges: Vec<(u32, u32)> = Vec::new();
        for _ in 0..200 {
            if alive.len() >= 2 && (alive.len() <= 3 || next() % 3 != 0) {
                let u = alive[(next() % alive.len() as u64) as usize];
                let v = alive[(next() % alive.len() as u64) as usize];
                if u != v {
                    c.add_edge(u, v);
                    if !edges.contains(&(u.min(v), u.max(v))) {
                        edges.push((u.min(v), u.max(v)));
                    }
                }
            } else if !alive.is_empty() {
                let v = alive[(next() % alive.len() as u64) as usize];
                c.remove_vertex(v);
                alive.retain(|&w| w != v);
                edges.retain(|&(a, b)| a != v && b != v);
            }
            // Oracle: BFS components over the mirrored edge set.
            let mut label = vec![u32::MAX; n as usize];
            let mut components = 0;
            for &start in &alive {
                if label[start as usize] != u32::MAX {
                    continue;
                }
                let id = components;
                components += 1;
                let mut queue = vec![start];
                label[start as usize] = id;
                while let Some(w) = queue.pop() {
                    for &(a, b) in &edges {
                        let other = if a == w {
                            b
                        } else if b == w {
                            a
                        } else {
                            continue;
                        };
                        if label[other as usize] == u32::MAX {
                            label[other as usize] = id;
                            queue.push(other);
                        }
                    }
                }
            }
            assert_eq!(c.num_components(), components as usize);
            for &a in &alive {
                for &b in &alive {
                    assert_eq!(
                        c.same(a, b),
                        label[a as usize] == label[b as usize],
                        "vertices {a} and {b} disagree with the oracle"
                    );
                }
            }
        }
    }

    #[test]
    fn for_each_edge_round_trips_the_structure() {
        let mut c = path(6);
        c.add_edge(0, 5);
        c.add_edge(1, 4);
        c.remove_vertex(2);
        let mut rebuilt = Connectivity::new();
        for _ in 0..6 {
            rebuilt.add_vertex();
        }
        c.for_each_edge(|u, v, _| {
            rebuilt.add_edge(u, v);
        });
        assert_eq!(rebuilt.num_components(), c.num_components() + 1);
        for a in [0u32, 1, 3, 4, 5] {
            for b in [0u32, 1, 3, 4, 5] {
                assert_eq!(rebuilt.same(a, b), c.same(a, b));
            }
        }
    }
}
