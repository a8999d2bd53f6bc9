//! Axis-aligned bounding boxes in `R^d`.

/// An axis-aligned box `[min_0, max_0] x ... x [min_{d-1}, max_{d-1}]`.
///
/// Used by the kd-tree and R\*-tree for pruning: a subtree can be skipped for
/// an ε-range query exactly when [`BoundingBox::min_squared_distance`] to the
/// query point exceeds `ε^2`.
#[derive(Clone, Debug, PartialEq)]
pub struct BoundingBox {
    min: Vec<f64>,
    max: Vec<f64>,
}

impl BoundingBox {
    /// A degenerate box covering exactly one point.
    pub fn around_point(p: &[f64]) -> Self {
        Self {
            min: p.to_vec(),
            max: p.to_vec(),
        }
    }

    /// A box from explicit corner vectors.
    ///
    /// # Panics
    ///
    /// Panics if the corners differ in length or `min[i] > max[i]` for some i.
    pub fn from_corners(min: Vec<f64>, max: Vec<f64>) -> Self {
        assert_eq!(min.len(), max.len(), "corner dimensionality mismatch");
        for (lo, hi) in min.iter().zip(&max) {
            assert!(lo <= hi, "min corner must not exceed max corner");
        }
        Self { min, max }
    }

    /// Lower corner.
    #[inline]
    pub fn min(&self) -> &[f64] {
        &self.min
    }

    /// Upper corner.
    #[inline]
    pub fn max(&self) -> &[f64] {
        &self.max
    }

    /// Dimensionality of the box.
    #[inline]
    pub fn dims(&self) -> usize {
        self.min.len()
    }

    /// Grows the box so it covers `p`.
    pub fn expand_to_point(&mut self, p: &[f64]) {
        debug_assert_eq!(p.len(), self.dims());
        expand_to_point(&mut self.min, &mut self.max, p);
    }

    /// Grows the box so it covers `other`.
    pub fn expand_to_box(&mut self, other: &BoundingBox) {
        debug_assert_eq!(other.dims(), self.dims());
        for ((lo, hi), (olo, ohi)) in self
            .min
            .iter_mut()
            .zip(&mut self.max)
            .zip(other.min.iter().zip(&other.max))
        {
            if *olo < *lo {
                *lo = *olo;
            }
            if *ohi > *hi {
                *hi = *ohi;
            }
        }
    }

    /// Whether `p` lies inside the closed box.
    pub fn contains_point(&self, p: &[f64]) -> bool {
        self.min
            .iter()
            .zip(&self.max)
            .zip(p)
            .all(|((lo, hi), &x)| *lo <= x && x <= *hi)
    }

    /// Squared distance from `p` to the nearest point of the box
    /// (zero when `p` is inside).
    #[inline]
    pub fn min_squared_distance(&self, p: &[f64]) -> f64 {
        debug_assert_eq!(p.len(), self.dims());
        min_squared_distance(&self.min, &self.max, p)
    }

    /// Squared distance from `p` to the farthest point of the box.
    ///
    /// When this is `<= ε²` the whole box lies inside the query ball, so a
    /// range query can report an entire subtree without per-point distance
    /// checks — a large win for the wide-ε sweeps of the paper's Fig. 7.
    #[inline]
    pub fn max_squared_distance(&self, p: &[f64]) -> f64 {
        debug_assert_eq!(p.len(), self.dims());
        max_squared_distance(&self.min, &self.max, p)
    }

    /// The sum of edge lengths ("margin"), a cheap size measure: the
    /// k-distance sweep divides it by n for its first search radius.
    pub fn margin(&self) -> f64 {
        self.min.iter().zip(&self.max).map(|(lo, hi)| hi - lo).sum()
    }

    /// Center of the box.
    pub fn center(&self) -> Vec<f64> {
        self.min
            .iter()
            .zip(&self.max)
            .map(|(lo, hi)| 0.5 * (lo + hi))
            .collect()
    }
}

// The box arithmetic on bare corner slices, for indexes that keep their
// boxes in flat arrays. `BoundingBox` delegates here, so both forms give
// bit-identical answers.

/// Grows the box with corners `min` and `max` so it covers `p`.
#[inline]
pub fn expand_to_point(min: &mut [f64], max: &mut [f64], p: &[f64]) {
    for ((lo, hi), &x) in min.iter_mut().zip(max).zip(p) {
        if x < *lo {
            *lo = x;
        }
        if x > *hi {
            *hi = x;
        }
    }
}

/// [`BoundingBox::min_squared_distance`] of the box with corners `min` and
/// `max`.
#[inline]
pub fn min_squared_distance(min: &[f64], max: &[f64], p: &[f64]) -> f64 {
    let mut acc = 0.0;
    for ((lo, hi), &x) in min.iter().zip(max).zip(p) {
        let diff = if x < *lo {
            *lo - x
        } else if x > *hi {
            x - *hi
        } else {
            0.0
        };
        acc += diff * diff;
    }
    acc
}

/// [`BoundingBox::max_squared_distance`] of the box with corners `min` and
/// `max`.
#[inline]
pub fn max_squared_distance(min: &[f64], max: &[f64], p: &[f64]) -> f64 {
    let mut acc = 0.0;
    for ((lo, hi), &x) in min.iter().zip(max).zip(p) {
        let diff = (x - *lo).abs().max((x - *hi).abs());
        acc += diff * diff;
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit_box() -> BoundingBox {
        BoundingBox::from_corners(vec![0.0, 0.0], vec![1.0, 1.0])
    }

    #[test]
    fn around_point_is_degenerate() {
        let bb = BoundingBox::around_point(&[2.0, 3.0]);
        assert_eq!(bb.min(), bb.max());
        assert_eq!(bb.margin(), 0.0);
        assert!(bb.contains_point(&[2.0, 3.0]));
    }

    #[test]
    #[should_panic(expected = "min corner must not exceed")]
    fn inverted_corners_rejected() {
        let _ = BoundingBox::from_corners(vec![1.0], vec![0.0]);
    }

    #[test]
    fn expand_covers_new_points() {
        let mut bb = BoundingBox::around_point(&[0.0, 0.0]);
        bb.expand_to_point(&[-1.0, 2.0]);
        bb.expand_to_point(&[3.0, -4.0]);
        assert_eq!(bb.min(), &[-1.0, -4.0]);
        assert_eq!(bb.max(), &[3.0, 2.0]);
    }

    #[test]
    fn min_squared_distance_inside_is_zero() {
        let bb = unit_box();
        assert_eq!(bb.min_squared_distance(&[0.5, 0.5]), 0.0);
        assert_eq!(bb.min_squared_distance(&[0.0, 1.0]), 0.0);
    }

    #[test]
    fn min_squared_distance_outside_is_to_nearest_face_or_corner() {
        let bb = unit_box();
        assert!((bb.min_squared_distance(&[2.0, 0.5]) - 1.0).abs() < 1e-12);
        assert!((bb.min_squared_distance(&[2.0, 2.0]) - 2.0).abs() < 1e-12);
        assert!((bb.min_squared_distance(&[-3.0, 0.5]) - 9.0).abs() < 1e-12);
    }

    #[test]
    fn max_squared_distance_is_to_farthest_corner() {
        let bb = unit_box();
        // From the origin corner, the farthest point is (1, 1).
        assert!((bb.max_squared_distance(&[0.0, 0.0]) - 2.0).abs() < 1e-12);
        // From outside, farthest is the opposite corner.
        assert!((bb.max_squared_distance(&[2.0, 0.0]) - (4.0 + 1.0)).abs() < 1e-12);
    }

    #[test]
    fn margin_and_center() {
        let bb = BoundingBox::from_corners(vec![0.0, 0.0, 0.0], vec![1.0, 2.0, 3.0]);
        assert!((bb.margin() - 6.0).abs() < 1e-12);
        assert_eq!(bb.center(), vec![0.5, 1.0, 1.5]);
    }
}
