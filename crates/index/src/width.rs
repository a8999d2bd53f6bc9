//! The point widths the kd-tree's kernels are compiled for.
//!
//! Every box distance, box growth and leaf distance of the kd-tree loops
//! over one point's coordinates. At a width known only at run time, each
//! of those is a runtime-length loop over a bounds-checked slice. The tree
//! kernels are therefore generic over a const width `D`, and
//! [`with_width!`] picks the instantiation once per call: widths 1 to 8,
//! whose rows fill at most one 64-byte cache line, get their own, where
//! the loops unroll and the slice lengths are constants; every other width
//! runs the same code at `D = 0`, which stands for the run-time width.
//! Either way the arithmetic is the same, term by term and in the same
//! order, so every value and every result order is the same.

use dbsvec_geometry::PointId;

/// The width a kernel instantiated at `D` runs at: `D` itself, or the
/// run-time `dims` for `D = 0`.
#[inline(always)]
pub(crate) const fn width<const D: usize>(dims: usize) -> usize {
    if D == 0 {
        dims
    } else {
        D
    }
}

/// Point `id`'s row of the row-major buffer `flat` of `w`-wide points.
#[inline(always)]
pub(crate) fn row(flat: &[f64], id: PointId, w: usize) -> &[f64] {
    let start = id as usize * w;
    &flat[start..start + w]
}

/// Evaluates `$body` with the const `$d` set to the kernel width for
/// `$dims`-wide points: `$dims` itself for widths 1 to 8, 0 (the run-time
/// width, see [`width`]) for every other width.
macro_rules! with_width {
    ($dims:expr, $d:ident => $body:expr) => {
        match $dims {
            1 => {
                const $d: usize = 1;
                $body
            }
            2 => {
                const $d: usize = 2;
                $body
            }
            3 => {
                const $d: usize = 3;
                $body
            }
            4 => {
                const $d: usize = 4;
                $body
            }
            5 => {
                const $d: usize = 5;
                $body
            }
            6 => {
                const $d: usize = 6;
                $body
            }
            7 => {
                const $d: usize = 7;
                $body
            }
            8 => {
                const $d: usize = 8;
                $body
            }
            _ => {
                const $d: usize = 0;
                $body
            }
        }
    };
}
pub(crate) use with_width;
