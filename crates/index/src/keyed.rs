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

/// Scratch for ordering a tile on a dense copy of its keys: room for one
/// key and one position per id, borrowed from the caller. A build sizes it
/// once for its largest tile, and the kd-tree build hands each half of a
/// run the matching half of its parent's scratch
/// ([`KeyedSort::split_at_mut`]), so halves built on other threads need no
/// scratch of their own.
pub(crate) struct KeyedSort<'a> {
    keys: &'a mut [f64],
    order: &'a mut [u32],
}

impl<'a> KeyedSort<'a> {
    /// Scratch over `keys` and `order`, which must be equally long: the
    /// longest tile it can order.
    pub(crate) fn new(keys: &'a mut [f64], order: &'a mut [u32]) -> Self {
        assert_eq!(keys.len(), order.len(), "one key per position");
        Self { keys, order }
    }

    /// Splits the scratch into room for the first `mid` ids and room for
    /// the rest.
    pub(crate) fn split_at_mut(self, mid: usize) -> (KeyedSort<'a>, KeyedSort<'a>) {
        let (keys_left, keys_right) = self.keys.split_at_mut(mid);
        let (order_left, order_right) = self.order.split_at_mut(mid);
        (
            KeyedSort::new(keys_left, order_left),
            KeyedSort::new(keys_right, order_right),
        )
    }

    /// Sorts `tile` by `key`, leaving it in exactly the order
    /// `tile.sort_unstable_by(|a, b| key(a).partial_cmp(&key(b)))` would.
    ///
    /// # Panics
    ///
    /// Panics on a NaN key, or if `tile` is longer than the scratch.
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
    /// Panics on a NaN key, if `nth >= tile.len()`, or if `tile` is longer
    /// than the scratch.
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
        let keys = &mut self.keys[..tile.len()];
        let order = &mut self.order[..tile.len()];
        for (k, &e) in keys.iter_mut().zip(tile.iter()) {
            *k = key(e);
        }
        for (p, position) in order.iter_mut().zip(0..) {
            *p = position;
        }
        by(order, keys);
        for p in order.iter_mut() {
            *p = tile[*p as usize];
        }
        tile.copy_from_slice(order);
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
        let (mut keys_scratch, mut order_scratch) = (vec![0.0; 300], vec![0; 300]);
        let mut sort = KeyedSort::new(&mut keys_scratch, &mut order_scratch);
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
        let (mut keys_scratch, mut order_scratch) = (vec![0.0; 5_000], vec![0; 5_000]);
        let mut sort = KeyedSort::new(&mut keys_scratch, &mut order_scratch);
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
