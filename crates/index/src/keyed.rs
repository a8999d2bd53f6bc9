//! Ordering id tiles on a dense copy of their keys.
//!
//! Both tree builds order runs of `u32` ids by one coordinate (or one box
//! center) at a time: the STR bulk load sorts every tile, the kd-tree
//! selects every node's median. Reading the key through the point rows
//! costs a scattered load per comparison. [`KeyedSort`] instead copies the
//! tile's keys into one dense array, orders the positions `0..len` against
//! that array, and permutes the tile to match. Ordering `u32` positions
//! with the same standard-library routine makes exactly the comparisons,
//! with exactly the outcomes, that ordering the tile's `u32` ids by their
//! keys would, so it yields the same permutation — ties among equal keys
//! included. Only the comparisons stop reading scattered point rows.

use std::cmp::Ordering;

/// Scratch for ordering a tile on a dense copy of its keys; it grows to the
/// largest tile ordered through it and is freed with the build.
#[derive(Default)]
pub(crate) struct KeyedSort {
    keys: Vec<f64>,
    order: Vec<u32>,
}

impl KeyedSort {
    /// Sorts `tile` by `key`, leaving it in exactly the order
    /// `tile.sort_unstable_by(|a, b| key(a).partial_cmp(&key(b)))` would.
    ///
    /// # Panics
    ///
    /// Panics on a NaN key.
    pub(crate) fn sort(&mut self, tile: &mut [u32], key: impl Fn(u32) -> f64) {
        self.arrange(tile, key, |order, keys| {
            order.sort_unstable_by(|&a, &b| compare(keys, a, b));
        });
    }

    /// Partitions `tile` around position `nth`, leaving it in exactly the
    /// order `tile.select_nth_unstable_by(nth, |a, b| key(a).partial_cmp(&key(b)))`
    /// would.
    ///
    /// # Panics
    ///
    /// Panics on a NaN key, or if `nth >= tile.len()`.
    pub(crate) fn select_nth(&mut self, tile: &mut [u32], nth: usize, key: impl Fn(u32) -> f64) {
        self.arrange(tile, key, |order, keys| {
            order.select_nth_unstable_by(nth, |&a, &b| compare(keys, a, b));
        });
    }

    /// Copies the keys, lets `by` order the positions against them, and
    /// permutes `tile` to match.
    fn arrange(
        &mut self,
        tile: &mut [u32],
        key: impl Fn(u32) -> f64,
        by: impl FnOnce(&mut [u32], &[f64]),
    ) {
        self.keys.clear();
        self.keys.extend(tile.iter().map(|&e| key(e)));
        self.order.clear();
        self.order.extend(0..tile.len() as u32);
        by(&mut self.order, &self.keys);
        for p in &mut self.order {
            *p = tile[*p as usize];
        }
        tile.copy_from_slice(&self.order);
    }
}

#[inline]
fn compare(keys: &[f64], a: u32, b: u32) -> Ordering {
    keys[a as usize]
        .partial_cmp(&keys[b as usize])
        .expect("NaN coordinate")
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbsvec_geometry::rng::SplitMix64;

    #[test]
    fn keyed_sort_keeps_the_order_of_equal_keys() {
        let mut rng = SplitMix64::new(0x5EED);
        let mut sort = KeyedSort::default();
        for len in [0usize, 1, 2, 19, 20, 21, 300] {
            let keys: Vec<f64> = (0..len).map(|_| rng.next_below(3) as f64).collect();
            // Ids in scrambled order, keyed by id.
            let mut want: Vec<u32> = (0..len as u32).rev().collect();
            let mut got = want.clone();
            want.sort_unstable_by(|&a, &b| {
                keys[a as usize].partial_cmp(&keys[b as usize]).unwrap()
            });
            sort.sort(&mut got, |id| keys[id as usize]);
            assert_eq!(got, want, "len={len}");
        }
    }

    #[test]
    fn keyed_select_matches_a_select_through_the_keys() {
        let mut rng = SplitMix64::new(0xC0DE);
        let mut sort = KeyedSort::default();
        for len in [1usize, 2, 17, 33, 300, 5_000] {
            for distinct in [2u64, 1_000_000] {
                let keys: Vec<f64> = (0..len).map(|_| rng.next_below(distinct) as f64).collect();
                let ids: Vec<u32> = (0..len as u32).rev().collect();
                for nth in [0, len / 2, len - 1] {
                    let mut want = ids.clone();
                    want.select_nth_unstable_by(nth, |&a, &b| {
                        keys[a as usize].partial_cmp(&keys[b as usize]).unwrap()
                    });
                    let mut got = ids.clone();
                    sort.select_nth(&mut got, nth, |id| keys[id as usize]);
                    assert_eq!(got, want, "len={len} distinct={distinct} nth={nth}");
                }
            }
        }
    }
}
