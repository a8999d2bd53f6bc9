//! Disjoint-set forest for sub-cluster merging.
//!
//! DBSVEC allocates a fresh raw cluster id per seed and merges ids when an
//! overlapping core point connects two sub-clusters (paper Lemma 3). A
//! union–find with union-by-size and path halving makes every merge
//! effectively O(1), so sub-cluster merging contributes only the `m` range
//! queries of the paper's cost model, not data-structure overhead.

/// Union–find over dense ids `0..len`.
#[derive(Clone, Debug, Default)]
pub struct UnionFind {
    parent: Vec<u32>,
    size: Vec<u32>,
}

impl UnionFind {
    /// Creates an empty forest.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a new singleton set and returns its id.
    pub fn make_set(&mut self) -> u32 {
        let id = self.parent.len() as u32;
        self.parent.push(id);
        self.size.push(1);
        id
    }

    /// Representative of `x`'s set, with path halving.
    pub fn find(&mut self, x: u32) -> u32 {
        let mut x = x;
        while self.parent[x as usize] != x {
            let grandparent = self.parent[self.parent[x as usize] as usize];
            self.parent[x as usize] = grandparent;
            x = grandparent;
        }
        x
    }

    /// Merges the sets of `a` and `b`; returns the surviving representative.
    pub fn union(&mut self, a: u32, b: u32) -> u32 {
        let ra = self.find(a);
        let rb = self.find(b);
        if ra == rb {
            return ra;
        }
        let (big, small) = if self.size[ra as usize] >= self.size[rb as usize] {
            (ra, rb)
        } else {
            (rb, ra)
        };
        self.parent[small as usize] = big;
        self.size[big as usize] += self.size[small as usize];
        big
    }

    /// Whether `a` and `b` are currently in the same set.
    pub fn same(&mut self, a: u32, b: u32) -> bool {
        self.find(a) == self.find(b)
    }

    /// Maps every id to a compact representative index `0..#sets`, in order
    /// of first appearance of each set's root.
    pub fn compact_labels(&mut self) -> (Vec<u32>, usize) {
        let n = self.parent.len();
        let mut mapping = vec![u32::MAX; n];
        let mut next = 0;
        let mut out = vec![0; n];
        for x in 0..n as u32 {
            let root = self.find(x);
            if mapping[root as usize] == u32::MAX {
                mapping[root as usize] = next;
                next += 1;
            }
            out[x as usize] = mapping[root as usize];
        }
        (out, next as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn singletons_are_their_own_roots() {
        let mut uf = UnionFind::new();
        let a = uf.make_set();
        let b = uf.make_set();
        assert_ne!(a, b);
        assert_eq!(uf.find(a), a);
        assert!(!uf.same(a, b));
    }

    #[test]
    fn union_connects_transitively() {
        let mut uf = UnionFind::new();
        let ids: Vec<u32> = (0..5).map(|_| uf.make_set()).collect();
        uf.union(ids[0], ids[1]);
        uf.union(ids[1], ids[2]);
        assert!(uf.same(ids[0], ids[2]));
        assert!(!uf.same(ids[0], ids[3]));
        uf.union(ids[3], ids[4]);
        uf.union(ids[2], ids[4]);
        for &i in &ids {
            assert!(uf.same(ids[0], i));
        }
    }

    #[test]
    fn union_is_idempotent() {
        let mut uf = UnionFind::new();
        let a = uf.make_set();
        let b = uf.make_set();
        let r1 = uf.union(a, b);
        let r2 = uf.union(a, b);
        assert_eq!(r1, r2);
    }

    #[test]
    fn compact_labels_are_dense_and_consistent() {
        let mut uf = UnionFind::new();
        for _ in 0..6 {
            uf.make_set();
        }
        uf.union(0, 3);
        uf.union(4, 5);
        let (labels, count) = uf.compact_labels();
        assert_eq!(count, 4); // {0,3}, {1}, {2}, {4,5}
        assert_eq!(labels[0], labels[3]);
        assert_eq!(labels[4], labels[5]);
        assert_ne!(labels[0], labels[1]);
        // Dense: every label below `count`.
        assert!(labels.iter().all(|&l| (l as usize) < count));
        // First-appearance order: id 0's set gets label 0, id 1 gets 1, ...
        assert_eq!(labels[0], 0);
        assert_eq!(labels[1], 1);
        assert_eq!(labels[2], 2);
        assert_eq!(labels[4], 3);
    }

    #[test]
    fn empty_forest_compacts_to_nothing() {
        let mut uf = UnionFind::new();
        let (labels, count) = uf.compact_labels();
        assert!(labels.is_empty());
        assert_eq!(count, 0);
    }
}
