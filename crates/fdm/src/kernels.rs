//! Flat row-slice stencil kernels — the one numerics source of truth for
//! every sweep in the workspace.
//!
//! The FDMAX PE chain streams whole rows through the array: each output
//! row is assembled from three input rows (up/center/down) plus an
//! optional offset row, with the computation-reuse factoring of paper
//! Eq. (11) (`w_v*(up+down) + w_h*(left+right) + w_s*center + b`, three
//! multiplies per output). This module mirrors that organisation in
//! software: every kernel operates on *flat row slices* pre-cut to one
//! length, so LLVM can elide bounds checks and vectorise the interior
//! loop without `unsafe` (the workspace forbids it), and every kernel
//! fuses the per-element squared-update accumulation — the software
//! analogue of the PE's DIFF register — into the sweep instead of a
//! second pass.
//!
//! All kernels evaluate [`stencil_point`]'s canonical operation order, so
//! their outputs stay bit-identical to the cycle-accurate PE model. Each
//! kernel returns the f64 sum of squared updates *of its row*; callers
//! fold the per-row partials in ascending row order. That fixed fold
//! order is what lets a banded [`crate::engine::SweepEngine`] reproduce
//! the serial sweeps' residual histories bit-for-bit at any thread
//! count.
//!
//! # SIMD lane folding
//!
//! The streaming kernels (`jacobi_row`, `residual_row`, `apply_row`,
//! `flux_*_row`) process the interior in [`SIMD_LANES`]-wide chunks of
//! fixed-size array views, which lets LLVM elide every bounds check and
//! vectorise the chunk body without `unsafe`. The per-element stencil
//! arithmetic is *unchanged* — grid outputs stay bit-identical to the
//! scalar bodies — but the squared-update accumulator becomes a
//! [`SIMD_LANES`]-lane bank folded in one fixed order
//! ([`fold_lanes`]): interior element `k` (0-based) lands in lane
//! `k % SIMD_LANES`, full chunks and the remainder alike, and the bank
//! folds pairwise `((l0+l1)+(l2+l3)) + ((l4+l5)+(l6+l7))`. The fold
//! depends only on the row's interior width — never on banding or
//! thread count — so the strip-parallel bit-identity contract is
//! preserved; the diff² *value* differs from a serial left-to-right sum
//! by rounding only (callers that need the historical serial grouping
//! use [`scalar`]). `checkerboard_row`'s stride-2 in-place update keeps
//! a scalar body (the gather defeats vectorisation) but adopts a 4-lane
//! accumulator so the dependency chain still splits.
//!
//! The pre-kernel scalar loops survive in [`baseline`] as the measured
//! floor of the `solver_throughput` benchmark, and the serial-accumulator
//! kernel bodies survive in [`scalar`] as the differential oracle.

use crate::grid::Grid2D;
use crate::pde::OffsetField;
use crate::precision::Scalar;
use crate::stencil::{stencil_point, FivePointStencil};
use core::ops::Range;

/// One row of a problem-level [`OffsetField`], borrowed as a flat slice
/// so kernels never index a 2-D structure in their inner loop.
#[derive(Clone, Copy, Debug)]
pub enum OffsetRow<'a, T> {
    /// No offset term: `b = 0` (Laplace, Heat without sources).
    None,
    /// Row of a static offset field (Poisson's folded source term).
    Static(&'a [T]),
    /// `b[j] = scale * prev[j]` — the wave equation's history term.
    Scaled {
        /// Multiplier applied to the previous-previous field.
        scale: T,
        /// Row `i` of `U^{k-1}`.
        prev: &'a [T],
    },
}

impl<'a, T: Scalar> OffsetRow<'a, T> {
    /// Borrows row `i` of `offset` (and of `prev` for the wave equation).
    ///
    /// # Panics
    ///
    /// Panics when a `ScaledPrevField` offset comes without `prev`, or
    /// when `i` is out of bounds of the offset field.
    #[must_use]
    pub fn for_row(offset: &'a OffsetField<T>, prev: Option<&'a Grid2D<T>>, i: usize) -> Self {
        match offset {
            OffsetField::None => OffsetRow::None,
            OffsetField::Static(c) => OffsetRow::Static(c.row(i)),
            OffsetField::ScaledPrevField { scale } => {
                let prev = prev.expect("ScaledPrevField requires the previous field");
                OffsetRow::Scaled {
                    scale: *scale,
                    prev: prev.row(i),
                }
            }
        }
    }

    /// The offset operand at column `j`.
    #[inline]
    fn at(&self, j: usize) -> T {
        match self {
            OffsetRow::None => T::ZERO,
            OffsetRow::Static(row) => row[j],
            OffsetRow::Scaled { scale, prev } => *scale * prev[j],
        }
    }
}

/// Chunk width of the lane-folded kernels: interior element `k` feeds
/// accumulator lane `k % SIMD_LANES`, and the streaming kernels walk the
/// row in `SIMD_LANES`-wide fixed-size array views.
pub const SIMD_LANES: usize = 8;

/// Folds a lane bank in the one fixed order every lane-folded kernel
/// uses: `((l0+l1)+(l2+l3)) + ((l4+l5)+(l6+l7))`. Unused lanes hold
/// `+0.0`, which is an exact additive identity for the non-negative
/// squares accumulated here, so short rows fold to the same bits as a
/// serial sum of up to three terms.
#[inline]
#[must_use]
pub fn fold_lanes(acc: [f64; SIMD_LANES]) -> f64 {
    ((acc[0] + acc[1]) + (acc[2] + acc[3])) + ((acc[4] + acc[5]) + (acc[6] + acc[7]))
}

/// Borrows a `SIMD_LANES`-wide window of `row` starting at `j0` as a
/// fixed-size array view — the no-`unsafe` idiom that licenses LLVM to
/// drop bounds checks and vectorise the chunk body.
#[inline(always)]
fn lane_window<T>(row: &[T], j0: usize) -> &[T; SIMD_LANES] {
    row[j0..j0 + SIMD_LANES]
        .try_into()
        .expect("window is exactly SIMD_LANES wide")
}

/// Shared Jacobi/Hybrid row body, monomorphised per offset kind so the
/// interior loop is branch-free. The interior is walked in
/// [`SIMD_LANES`]-wide chunks of fixed-size array views (all bounds
/// provable, so the chunk body vectorises without `unsafe`); the
/// squared-update accumulator is the fixed-order lane bank of
/// [`fold_lanes`]. Per-element arithmetic is exactly [`stencil_point`],
/// so grid outputs are bit-identical to the scalar body.
#[inline(always)]
fn jacobi_row_with<T: Scalar>(
    stencil: &FivePointStencil<T>,
    up: &[T],
    center: &[T],
    down: &[T],
    out: &mut [T],
    b_at: impl Fn(usize) -> T,
) -> f64 {
    let n = center.len();
    if n < 3 {
        return 0.0;
    }
    let (up, down) = (&up[..n], &down[..n]);
    let out = &mut out[..n];
    let interior = n - 2;
    let chunks = interior / SIMD_LANES;
    let mut acc = [0.0f64; SIMD_LANES];
    for c in 0..chunks {
        let j0 = 1 + c * SIMD_LANES;
        let u = lane_window(up, j0);
        let dn = lane_window(down, j0);
        let lf = lane_window(center, j0 - 1);
        let rt = lane_window(center, j0 + 1);
        let cc = lane_window(center, j0);
        let ob: &mut [T; SIMD_LANES] = (&mut out[j0..j0 + SIMD_LANES])
            .try_into()
            .expect("window is exactly SIMD_LANES wide");
        for l in 0..SIMD_LANES {
            let o = stencil_point(stencil, u[l], dn[l], lf[l], rt[l], cc[l], b_at(j0 + l));
            let d = o.to_f64() - cc[l].to_f64();
            acc[l] += d * d;
            ob[l] = o;
        }
    }
    for (l, j) in (1 + chunks * SIMD_LANES..n - 1).enumerate() {
        let c = center[j];
        let o = stencil_point(
            stencil,
            up[j],
            down[j],
            center[j - 1],
            center[j + 1],
            c,
            b_at(j),
        );
        let d = o.to_f64() - c.to_f64();
        acc[l] += d * d;
        out[j] = o;
    }
    fold_lanes(acc)
}

/// Jacobi row kernel: reads three rows of `U^k`, writes the interior of
/// `out`, returns the row's f64 sum of squared updates.
///
/// Also serves the Hybrid sweep: pass the *freshly written* output row
/// `i - 1` as `up` and the kernel computes Eq. (8)'s top-fresh update.
///
/// Boundary columns (`0` and `len - 1`) are never touched; rows shorter
/// than 3 have no interior and return `0.0`.
#[must_use]
pub fn jacobi_row<T: Scalar>(
    stencil: &FivePointStencil<T>,
    up: &[T],
    center: &[T],
    down: &[T],
    offset: OffsetRow<'_, T>,
    out: &mut [T],
) -> f64 {
    debug_assert_eq!(up.len(), center.len(), "kernel row length mismatch");
    debug_assert_eq!(down.len(), center.len(), "kernel row length mismatch");
    debug_assert_eq!(out.len(), center.len(), "kernel row length mismatch");
    match offset {
        OffsetRow::None => jacobi_row_with(stencil, up, center, down, out, |_| T::ZERO),
        OffsetRow::Static(b) => {
            let b = &b[..center.len()];
            jacobi_row_with(stencil, up, center, down, out, |j| b[j])
        }
        OffsetRow::Scaled { scale, prev } => {
            let p = &prev[..center.len()];
            jacobi_row_with(stencil, up, center, down, out, move |j| scale * p[j])
        }
    }
}

/// Matrix-free operator-application row kernel: writes the interior of
/// `out` with `(A·u)[j] = u[j] - stencil(u, b = 0)[j]` for the implicit
/// operator `A = I - S` — no assembled matrix anywhere.
///
/// Boundary columns are never touched; the caller supplies the Dirichlet
/// ring (or zeros, for the homogeneous interior operator the Krylov
/// solvers iterate on) in the input rows themselves.
pub fn apply_row<T: Scalar>(
    stencil: &FivePointStencil<T>,
    up: &[T],
    center: &[T],
    down: &[T],
    out: &mut [T],
) {
    let n = center.len();
    debug_assert_eq!(up.len(), n, "kernel row length mismatch");
    debug_assert_eq!(down.len(), n, "kernel row length mismatch");
    debug_assert_eq!(out.len(), n, "kernel row length mismatch");
    if n < 3 {
        return;
    }
    let (up, down) = (&up[..n], &down[..n]);
    let out = &mut out[..n];
    let chunks = (n - 2) / SIMD_LANES;
    for c in 0..chunks {
        let j0 = 1 + c * SIMD_LANES;
        let u = lane_window(up, j0);
        let dn = lane_window(down, j0);
        let lf = lane_window(center, j0 - 1);
        let rt = lane_window(center, j0 + 1);
        let cc = lane_window(center, j0);
        let ob: &mut [T; SIMD_LANES] = (&mut out[j0..j0 + SIMD_LANES])
            .try_into()
            .expect("window is exactly SIMD_LANES wide");
        for l in 0..SIMD_LANES {
            ob[l] = crate::stencil::apply_point(stencil, u[l], dn[l], lf[l], rt[l], cc[l]);
        }
    }
    for j in 1 + chunks * SIMD_LANES..n - 1 {
        out[j] = crate::stencil::apply_point(
            stencil,
            up[j],
            down[j],
            center[j - 1],
            center[j + 1],
            center[j],
        );
    }
}

/// Fused residual row kernel: writes `r[j] = b[j] - (A·u)[j]` (evaluated
/// as the fixed-point residual `stencil(u, b)[j] - u[j]`, the canonical
/// PE order) into the interior of `out` and returns the row's f64 sum of
/// squared residuals — `r = b - A·u` and `||r||^2` in one pass.
#[must_use]
pub fn residual_row<T: Scalar>(
    stencil: &FivePointStencil<T>,
    up: &[T],
    center: &[T],
    down: &[T],
    offset: OffsetRow<'_, T>,
    out: &mut [T],
) -> f64 {
    debug_assert_eq!(up.len(), center.len(), "kernel row length mismatch");
    debug_assert_eq!(down.len(), center.len(), "kernel row length mismatch");
    debug_assert_eq!(out.len(), center.len(), "kernel row length mismatch");
    match offset {
        OffsetRow::None => residual_row_with(stencil, up, center, down, out, |_| T::ZERO),
        OffsetRow::Static(b) => {
            let b = &b[..center.len()];
            residual_row_with(stencil, up, center, down, out, |j| b[j])
        }
        OffsetRow::Scaled { scale, prev } => {
            let p = &prev[..center.len()];
            residual_row_with(stencil, up, center, down, out, move |j| scale * p[j])
        }
    }
}

/// Shared fused-residual body, monomorphised per offset kind (same
/// chunked, lane-folded pattern as [`jacobi_row`]'s `jacobi_row_with`).
#[inline(always)]
fn residual_row_with<T: Scalar>(
    stencil: &FivePointStencil<T>,
    up: &[T],
    center: &[T],
    down: &[T],
    out: &mut [T],
    b_at: impl Fn(usize) -> T,
) -> f64 {
    let n = center.len();
    if n < 3 {
        return 0.0;
    }
    let (up, down) = (&up[..n], &down[..n]);
    let out = &mut out[..n];
    let chunks = (n - 2) / SIMD_LANES;
    let mut acc = [0.0f64; SIMD_LANES];
    for c in 0..chunks {
        let j0 = 1 + c * SIMD_LANES;
        let u = lane_window(up, j0);
        let dn = lane_window(down, j0);
        let lf = lane_window(center, j0 - 1);
        let rt = lane_window(center, j0 + 1);
        let cc = lane_window(center, j0);
        let ob: &mut [T; SIMD_LANES] = (&mut out[j0..j0 + SIMD_LANES])
            .try_into()
            .expect("window is exactly SIMD_LANES wide");
        for l in 0..SIMD_LANES {
            let r = crate::stencil::fixed_point_residual(
                stencil,
                u[l],
                dn[l],
                lf[l],
                rt[l],
                cc[l],
                b_at(j0 + l),
            );
            let rf = r.to_f64();
            acc[l] += rf * rf;
            ob[l] = r;
        }
    }
    for (l, j) in (1 + chunks * SIMD_LANES..n - 1).enumerate() {
        let r = crate::stencil::fixed_point_residual(
            stencil,
            up[j],
            down[j],
            center[j - 1],
            center[j + 1],
            center[j],
            b_at(j),
        );
        let rf = r.to_f64();
        acc[l] += rf * rf;
        out[j] = r;
    }
    fold_lanes(acc)
}

/// Variable-coefficient (flux-form) operator-application row kernel.
///
/// Face weights follow the finite-volume convention of
/// [`crate::ops::CoefficientField`]: `wv_up[j]` weighs the face between
/// this row and the row above, `wv_dn[j]` the face below, and `wh[j]`
/// the face between columns `j` and `j + 1`. The diagonal is the sum of
/// the four face weights, so the operator is symmetric positive definite
/// whenever every face weight is positive:
///
/// ```text
/// (A·u)[j] = diag*u[j] - (wv_up[j]*up[j] + wv_dn[j]*down[j])
///                      - (wh[j-1]*u[j-1] + wh[j]*u[j+1])
/// diag     = (wv_up[j] + wv_dn[j]) + (wh[j-1] + wh[j])
/// ```
#[allow(clippy::too_many_arguments)]
pub fn flux_apply_row<T: Scalar>(
    wv_up: &[T],
    wv_dn: &[T],
    wh: &[T],
    up: &[T],
    center: &[T],
    down: &[T],
    out: &mut [T],
) {
    let n = center.len();
    debug_assert_eq!(up.len(), n, "kernel row length mismatch");
    debug_assert_eq!(down.len(), n, "kernel row length mismatch");
    debug_assert_eq!(out.len(), n, "kernel row length mismatch");
    debug_assert_eq!(wv_up.len(), n, "face-weight row length mismatch");
    debug_assert_eq!(wv_dn.len(), n, "face-weight row length mismatch");
    debug_assert_eq!(wh.len(), n, "face-weight row length mismatch");
    if n < 3 {
        return;
    }
    let (up, down) = (&up[..n], &down[..n]);
    let (wv_up, wv_dn) = (&wv_up[..n], &wv_dn[..n]);
    let out = &mut out[..n];
    let chunks = (n - 2) / SIMD_LANES;
    for c in 0..chunks {
        let j0 = 1 + c * SIMD_LANES;
        let (vu, vd) = (lane_window(wv_up, j0), lane_window(wv_dn, j0));
        let (hl, hr) = (lane_window(wh, j0 - 1), lane_window(wh, j0));
        let (u, dn) = (lane_window(up, j0), lane_window(down, j0));
        let lf = lane_window(center, j0 - 1);
        let rt = lane_window(center, j0 + 1);
        let cc = lane_window(center, j0);
        let ob: &mut [T; SIMD_LANES] = (&mut out[j0..j0 + SIMD_LANES])
            .try_into()
            .expect("window is exactly SIMD_LANES wide");
        for l in 0..SIMD_LANES {
            ob[l] = flux_point(vu[l], vd[l], hl[l], hr[l], u[l], dn[l], lf[l], rt[l], cc[l]);
        }
    }
    for j in 1 + chunks * SIMD_LANES..n - 1 {
        out[j] = flux_point(
            wv_up[j],
            wv_dn[j],
            wh[j - 1],
            wh[j],
            up[j],
            down[j],
            center[j - 1],
            center[j + 1],
            center[j],
        );
    }
}

/// Fused variable-coefficient residual row kernel: writes
/// `r[j] = b[j] - (A·u)[j]` for the flux-form operator and returns the
/// row's f64 sum of squared residuals.
#[allow(clippy::too_many_arguments)]
#[must_use]
pub fn flux_residual_row<T: Scalar>(
    wv_up: &[T],
    wv_dn: &[T],
    wh: &[T],
    up: &[T],
    center: &[T],
    down: &[T],
    b: &[T],
    out: &mut [T],
) -> f64 {
    let n = center.len();
    debug_assert_eq!(up.len(), n, "kernel row length mismatch");
    debug_assert_eq!(down.len(), n, "kernel row length mismatch");
    debug_assert_eq!(out.len(), n, "kernel row length mismatch");
    debug_assert_eq!(b.len(), n, "kernel row length mismatch");
    if n < 3 {
        return 0.0;
    }
    let (up, down) = (&up[..n], &down[..n]);
    let (wv_up, wv_dn) = (&wv_up[..n], &wv_dn[..n]);
    let b = &b[..n];
    let out = &mut out[..n];
    let chunks = (n - 2) / SIMD_LANES;
    let mut acc = [0.0f64; SIMD_LANES];
    for c in 0..chunks {
        let j0 = 1 + c * SIMD_LANES;
        let (vu, vd) = (lane_window(wv_up, j0), lane_window(wv_dn, j0));
        let (hl, hr) = (lane_window(wh, j0 - 1), lane_window(wh, j0));
        let (u, dn) = (lane_window(up, j0), lane_window(down, j0));
        let lf = lane_window(center, j0 - 1);
        let rt = lane_window(center, j0 + 1);
        let cc = lane_window(center, j0);
        let bb = lane_window(b, j0);
        let ob: &mut [T; SIMD_LANES] = (&mut out[j0..j0 + SIMD_LANES])
            .try_into()
            .expect("window is exactly SIMD_LANES wide");
        for l in 0..SIMD_LANES {
            let au = flux_point(vu[l], vd[l], hl[l], hr[l], u[l], dn[l], lf[l], rt[l], cc[l]);
            let r = bb[l] - au;
            let rf = r.to_f64();
            acc[l] += rf * rf;
            ob[l] = r;
        }
    }
    for (l, j) in (1 + chunks * SIMD_LANES..n - 1).enumerate() {
        let au = flux_point(
            wv_up[j],
            wv_dn[j],
            wh[j - 1],
            wh[j],
            up[j],
            down[j],
            center[j - 1],
            center[j + 1],
            center[j],
        );
        let r = b[j] - au;
        let rf = r.to_f64();
        acc[l] += rf * rf;
        out[j] = r;
    }
    fold_lanes(acc)
}

/// One flux-form operator evaluation; fixed order (vertical pair, then
/// horizontal pair, then diagonal) shared by apply and residual so the
/// two agree bit-for-bit.
#[allow(clippy::too_many_arguments)]
#[inline]
fn flux_point<T: Scalar>(
    wv_up: T,
    wv_dn: T,
    wh_l: T,
    wh_r: T,
    up: T,
    down: T,
    left: T,
    right: T,
    center: T,
) -> T {
    let diag = (wv_up + wv_dn) + (wh_l + wh_r);
    diag * center - ((wv_up * up + wv_dn * down) + (wh_l * left + wh_r * right))
}

/// Hybrid row kernel with *hardware* seam semantics: the top operand
/// comes from `new_up` (the freshly assembled previous output row)
/// except where forwarding is impossible — the first output row of a row
/// block (`top_from_old`) and column-batch seam columns (the last column
/// of each full `seam_width` batch), which fall back to `old_up`
/// (Jacobi-style), exactly as the `R_out -> R_z-2` mux does.
#[allow(clippy::too_many_arguments)]
#[must_use]
pub fn hybrid_hw_row<T: Scalar>(
    stencil: &FivePointStencil<T>,
    old_up: &[T],
    new_up: &[T],
    center: &[T],
    down: &[T],
    offset: OffsetRow<'_, T>,
    out: &mut [T],
    top_from_old: bool,
    seam_width: usize,
) -> f64 {
    let n = center.len();
    debug_assert_eq!(old_up.len(), n, "kernel row length mismatch");
    debug_assert_eq!(new_up.len(), n, "kernel row length mismatch");
    debug_assert_eq!(down.len(), n, "kernel row length mismatch");
    debug_assert_eq!(out.len(), n, "kernel row length mismatch");
    let mut diff2 = 0.0f64;
    for j in 1..n.saturating_sub(1) {
        let top = if top_from_old || (j + 1).is_multiple_of(seam_width) {
            old_up[j]
        } else {
            new_up[j]
        };
        let c = center[j];
        let o = stencil_point(
            stencil,
            top,
            down[j],
            center[j - 1],
            center[j + 1],
            c,
            offset.at(j),
        );
        let d = o.to_f64() - c.to_f64();
        diff2 += d * d;
        out[j] = o;
    }
    diff2
}

/// Gauss-Seidel row kernel: in-place on `row`, with `up` the already
/// updated row above (latest values) and `down` the not-yet-updated row
/// below. The left neighbour is read back from `row` itself, so the
/// loop-carried dependency of Eq. (7) is preserved.
#[must_use]
pub fn gauss_seidel_row<T: Scalar>(
    stencil: &FivePointStencil<T>,
    up: &[T],
    row: &mut [T],
    down: &[T],
    offset: OffsetRow<'_, T>,
) -> f64 {
    let n = row.len();
    debug_assert_eq!(up.len(), n, "kernel row length mismatch");
    debug_assert_eq!(down.len(), n, "kernel row length mismatch");
    let mut diff2 = 0.0f64;
    for j in 1..n.saturating_sub(1) {
        let old = row[j];
        let o = stencil_point(
            stencil,
            up[j],
            down[j],
            row[j - 1],
            row[j + 1],
            old,
            offset.at(j),
        );
        let d = o.to_f64() - old.to_f64();
        diff2 += d * d;
        row[j] = o;
    }
    diff2
}

/// SOR row kernel: the Gauss-Seidel candidate blended with the old value
/// in the field's own precision, `out = (1-w)*old + w*gs`.
///
/// `w` and `one_minus_w` are precomputed by the sweep so every row uses
/// the exact same rounded factors.
#[must_use]
pub fn sor_row<T: Scalar>(
    stencil: &FivePointStencil<T>,
    up: &[T],
    row: &mut [T],
    down: &[T],
    offset: OffsetRow<'_, T>,
    w: T,
    one_minus_w: T,
) -> f64 {
    let n = row.len();
    debug_assert_eq!(up.len(), n, "kernel row length mismatch");
    debug_assert_eq!(down.len(), n, "kernel row length mismatch");
    let mut diff2 = 0.0f64;
    for j in 1..n.saturating_sub(1) {
        let old = row[j];
        let gs = stencil_point(
            stencil,
            up[j],
            down[j],
            row[j - 1],
            row[j + 1],
            old,
            offset.at(j),
        );
        let o = one_minus_w * old + w * gs;
        let d = o.to_f64() - old.to_f64();
        diff2 += d * d;
        row[j] = o;
    }
    diff2
}

/// Checkerboard (red-black) row kernel: updates every second interior
/// column of `row` in place, starting at `start` (1 or 2, chosen by the
/// sweep so `(i + j) % 2` matches the phase parity). Neighbour reads all
/// land on the opposite parity, which the current phase never writes —
/// the invariant that makes strip-parallel checkerboard exact.
#[must_use]
pub fn checkerboard_row<T: Scalar>(
    stencil: &FivePointStencil<T>,
    up: &[T],
    row: &mut [T],
    down: &[T],
    offset: OffsetRow<'_, T>,
    start: usize,
) -> f64 {
    let n = row.len();
    debug_assert_eq!(up.len(), n, "kernel row length mismatch");
    debug_assert_eq!(down.len(), n, "kernel row length mismatch");
    debug_assert!(start >= 1, "start column must be interior");
    // The stride-2 in-place gather defeats vectorisation, but a 4-lane
    // accumulator (position index % 4, folded pairwise) still splits the
    // serial f64 dependency chain. The fold depends only on `start` and
    // the row width, never on banding, so strip-parallel checkerboard
    // stays bit-identical to the serial sweep.
    let mut acc = [0.0f64; 4];
    let mut j = start;
    let mut idx = 0usize;
    while j + 1 < n {
        let old = row[j];
        let o = stencil_point(
            stencil,
            up[j],
            down[j],
            row[j - 1],
            row[j + 1],
            old,
            offset.at(j),
        );
        let d = o.to_f64() - old.to_f64();
        acc[idx & 3] += d * d;
        row[j] = o;
        j += 2;
        idx += 1;
    }
    (acc[0] + acc[1]) + (acc[2] + acc[3])
}

/// Borrows rows `i - 1`, `i` and `i + 1` of a row-major backing slice as
/// `(up, mid, down)` with only `mid` mutable — the `split_at_mut`
/// three-way view the in-place kernels need.
///
/// # Panics
///
/// Panics when `i` is zero or `data` holds fewer than `i + 2` rows.
#[must_use]
pub fn tri_rows_mut<T>(data: &mut [T], cols: usize, i: usize) -> (&[T], &mut [T], &[T]) {
    assert!(i >= 1, "tri_rows_mut needs an interior row, got {i}");
    let (head, rest) = data.split_at_mut(i * cols);
    let (mid, tail) = rest.split_at_mut(cols);
    (&head[(i - 1) * cols..], mid, &tail[..cols])
}

/// Partitions the interior rows `1..rows-1` into at most `max_bands`
/// contiguous bands — the software analogue of the elastic `1×(C·k)`
/// strip decomposition ([`row_strips`-style][strips] balancing: `base`
/// rows per band, the first `interior % bands` bands take one extra).
///
/// Returns an empty vector for grids without an interior. Never yields
/// an empty band: the count is capped at the interior height.
///
/// [strips]: crate::engine::SweepPlan::bands
#[must_use]
pub fn row_bands(rows: usize, max_bands: usize) -> Vec<Range<usize>> {
    let interior = rows.saturating_sub(2);
    if interior == 0 {
        return Vec::new();
    }
    let n = max_bands.max(1).min(interior);
    let base = interior / n;
    let extra = interior % n;
    let mut bands = Vec::with_capacity(n);
    let mut lo = 1usize;
    for b in 0..n {
        let height = base + usize::from(b < extra);
        bands.push(lo..lo + height);
        lo += height;
    }
    bands
}

/// [`row_bands`] with a minimum band height: the band count is reduced
/// until every band is at least `min(min_height, interior)` rows tall.
///
/// This is the banding a k-deep temporal wavefront requires: a band
/// narrower than the tile depth cannot legally skew a k-sweep trapezoid
/// across itself (its halo would swallow neighbouring bands' owned
/// rows), so [`crate::engine::SweepPlan::bands`] splits with
/// `min_height = k`. With `min_height <= 1` this is exactly
/// [`row_bands`].
#[must_use]
pub fn row_bands_with_min(rows: usize, max_bands: usize, min_height: usize) -> Vec<Range<usize>> {
    let interior = rows.saturating_sub(2);
    if interior == 0 {
        return Vec::new();
    }
    let widest = interior / min_height.max(1);
    row_bands(rows, max_bands.max(1).min(widest.max(1)))
}

pub mod scalar {
    //! The pre-SIMD serial-accumulator kernel bodies, kept verbatim as
    //! the differential oracle for the lane-folded kernels and as the
    //! `kernelized_serial` column of the `solver_throughput` benchmark.
    //!
    //! Grid outputs are bit-identical to the lane-folded kernels (the
    //! per-element arithmetic is the same [`stencil_point`] order); only
    //! the diff² grouping differs — serial left-to-right here, the
    //! fixed lane fold there.

    use super::OffsetRow;
    use crate::precision::Scalar;
    use crate::stencil::{stencil_point, FivePointStencil};

    /// Serial-accumulator Jacobi/Hybrid row kernel (the pre-SIMD body of
    /// [`super::jacobi_row`]).
    #[must_use]
    pub fn jacobi_row<T: Scalar>(
        stencil: &FivePointStencil<T>,
        up: &[T],
        center: &[T],
        down: &[T],
        offset: OffsetRow<'_, T>,
        out: &mut [T],
    ) -> f64 {
        let n = center.len();
        if n < 3 {
            return 0.0;
        }
        let (up, down) = (&up[..n], &down[..n]);
        let out = &mut out[..n];
        let mut diff2 = 0.0f64;
        for (k, w) in center.windows(3).enumerate() {
            let j = k + 1;
            let c = w[1];
            let o = stencil_point(stencil, up[j], down[j], w[0], w[2], c, offset.at(j));
            let d = o.to_f64() - c.to_f64();
            diff2 += d * d;
            out[j] = o;
        }
        diff2
    }

    /// Serial-accumulator fused-residual row kernel (the pre-SIMD body
    /// of [`super::residual_row`]).
    #[must_use]
    pub fn residual_row<T: Scalar>(
        stencil: &FivePointStencil<T>,
        up: &[T],
        center: &[T],
        down: &[T],
        offset: OffsetRow<'_, T>,
        out: &mut [T],
    ) -> f64 {
        let n = center.len();
        if n < 3 {
            return 0.0;
        }
        let (up, down) = (&up[..n], &down[..n]);
        let out = &mut out[..n];
        let mut diff2 = 0.0f64;
        for (k, w) in center.windows(3).enumerate() {
            let j = k + 1;
            let r = crate::stencil::fixed_point_residual(
                stencil,
                up[j],
                down[j],
                w[0],
                w[2],
                w[1],
                offset.at(j),
            );
            let rf = r.to_f64();
            diff2 += rf * rf;
            out[j] = r;
        }
        diff2
    }

    /// Serial-accumulator checkerboard row kernel (the pre-lane-bank
    /// body of [`super::checkerboard_row`]).
    #[must_use]
    pub fn checkerboard_row<T: Scalar>(
        stencil: &FivePointStencil<T>,
        up: &[T],
        row: &mut [T],
        down: &[T],
        offset: OffsetRow<'_, T>,
        start: usize,
    ) -> f64 {
        let n = row.len();
        debug_assert!(start >= 1, "start column must be interior");
        let mut diff2 = 0.0f64;
        let mut j = start;
        while j + 1 < n {
            let old = row[j];
            let o = stencil_point(
                stencil,
                up[j],
                down[j],
                row[j - 1],
                row[j + 1],
                old,
                offset.at(j),
            );
            let d = o.to_f64() - old.to_f64();
            diff2 += d * d;
            row[j] = o;
            j += 2;
        }
        diff2
    }
}

pub mod baseline {
    //! The pre-kernel scalar reference loops, kept verbatim as the
    //! measured floor of the `solver_throughput` benchmark: per-element
    //! `(i, j)` indexing with its index arithmetic and bounds checks,
    //! exactly what every sweep did before the kernel layer landed.

    use crate::grid::Grid2D;
    use crate::pde::OffsetField;
    use crate::precision::Scalar;
    use crate::stencil::{stencil_point, FivePointStencil};

    #[inline]
    fn offset_at<T: Scalar>(
        offset: &OffsetField<T>,
        prev: Option<&Grid2D<T>>,
        i: usize,
        j: usize,
    ) -> T {
        match offset {
            OffsetField::None => T::ZERO,
            OffsetField::Static(c) => c[(i, j)],
            OffsetField::ScaledPrevField { scale } => {
                let prev = prev.expect("ScaledPrevField requires the previous field");
                *scale * prev[(i, j)]
            }
        }
    }

    /// The seed scalar Jacobi sweep: double-nested indexed loop, flat
    /// f64 accumulator. Bit-identical grid outputs to the kernelized
    /// sweep; only the machine code (and the diff² grouping) differ.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ or a `ScaledPrevField` offset is used
    /// without `prev`.
    #[must_use]
    pub fn sweep_jacobi_indexed<T: Scalar>(
        stencil: &FivePointStencil<T>,
        offset: &OffsetField<T>,
        cur: &Grid2D<T>,
        prev: Option<&Grid2D<T>>,
        next: &mut Grid2D<T>,
    ) -> f64 {
        assert_eq!(cur.rows(), next.rows(), "cur/next shape mismatch");
        assert_eq!(cur.cols(), next.cols(), "cur/next shape mismatch");
        let (rows, cols) = (cur.rows(), cur.cols());
        let mut diff2 = 0.0f64;
        for i in 1..rows - 1 {
            for j in 1..cols - 1 {
                let b = offset_at(offset, prev, i, j);
                let out = stencil_point(
                    stencil,
                    cur[(i - 1, j)],
                    cur[(i + 1, j)],
                    cur[(i, j - 1)],
                    cur[(i, j + 1)],
                    cur[(i, j)],
                    b,
                );
                let d = out.to_f64() - cur[(i, j)].to_f64();
                diff2 += d * d;
                next[(i, j)] = out;
            }
        }
        diff2
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stencil() -> FivePointStencil<f32> {
        FivePointStencil::new(0.3, 0.2, 0.1)
    }

    fn wavy(rows: usize, cols: usize) -> Grid2D<f32> {
        Grid2D::from_fn(rows, cols, |i, j| ((i * 31 + j * 17) % 13) as f32 * 0.125)
    }

    #[test]
    fn jacobi_row_matches_indexed_baseline_bitwise() {
        let cur = wavy(7, 9);
        let prevg = wavy(7, 9);
        let offsets: [OffsetField<f32>; 3] = [
            OffsetField::None,
            OffsetField::Static(wavy(7, 9)),
            OffsetField::ScaledPrevField { scale: -0.5 },
        ];
        for offset in &offsets {
            let mut a = cur.clone();
            let mut b = cur.clone();
            let prev = Some(&prevg);
            let d_base = baseline::sweep_jacobi_indexed(&stencil(), offset, &cur, prev, &mut a);
            let mut d_kern = 0.0f64;
            for i in 1..cur.rows() - 1 {
                let o = OffsetRow::for_row(offset, prev, i);
                d_kern += jacobi_row(
                    &stencil(),
                    cur.row(i - 1),
                    cur.row(i),
                    cur.row(i + 1),
                    o,
                    b.row_mut(i),
                );
            }
            for i in 0..a.rows() {
                for j in 0..a.cols() {
                    assert_eq!(a[(i, j)].to_bits(), b[(i, j)].to_bits(), "({i},{j})");
                }
            }
            // Grouping differs (flat vs per-row fold) but the value is
            // the same sum of exactly representable squares here.
            assert!((d_base - d_kern).abs() <= 1e-12 * d_base.max(1.0));
        }
    }

    #[test]
    fn degenerate_rows_have_no_interior() {
        let row = [1.0f32, 2.0];
        let mut out = [0.0f32, 0.0];
        let d = jacobi_row(&stencil(), &row, &row, &row, OffsetRow::None, &mut out);
        assert_eq!(d, 0.0);
        assert_eq!(out, [0.0, 0.0], "no column written");
    }

    #[test]
    fn tri_rows_mut_views_are_correct() {
        let mut data: Vec<i32> = (0..12).collect(); // 4 rows x 3 cols
        let (up, mid, down) = tri_rows_mut(&mut data, 3, 2);
        assert_eq!(up, &[3, 4, 5]);
        assert_eq!(down, &[9, 10, 11]);
        mid[1] = 99;
        assert_eq!(data[7], 99);
    }

    #[test]
    #[should_panic(expected = "interior row")]
    fn tri_rows_mut_rejects_row_zero() {
        let mut data = [0i32; 9];
        let _ = tri_rows_mut(&mut data, 3, 0);
    }

    #[test]
    fn row_bands_tile_the_interior_exactly() {
        for rows in 3..40 {
            for req in 1..10 {
                let bands = row_bands(rows, req);
                assert_eq!(bands.len(), req.min(rows - 2));
                assert_eq!(bands.first().unwrap().start, 1);
                assert_eq!(bands.last().unwrap().end, rows - 1);
                for pair in bands.windows(2) {
                    assert_eq!(pair[0].end, pair[1].start, "contiguous");
                }
                let heights: Vec<usize> = bands.iter().map(Range::len).collect();
                let (min, max) = (
                    *heights.iter().min().unwrap(),
                    *heights.iter().max().unwrap(),
                );
                assert!(max - min <= 1, "balanced: {heights:?}");
            }
        }
        assert!(row_bands(2, 4).is_empty());
        assert!(row_bands(1, 1).is_empty());
    }

    #[test]
    fn lane_folded_kernels_match_scalar_oracle() {
        // Grid outputs bitwise, diff² to relative 1e-12, across widths
        // that exercise no-chunk, exact-chunk and chunk+tail paths.
        let s = stencil();
        for cols in [3usize, 4, 7, 9, 10, 11, 17, 18, 19, 33, 40] {
            let g = wavy(3, cols);
            let (up, center, down) = (g.row(0), g.row(1), g.row(2));
            let bgrid = wavy(3, cols);
            let offsets: [OffsetRow<'_, f32>; 3] = [
                OffsetRow::None,
                OffsetRow::Static(bgrid.row(1)),
                OffsetRow::Scaled {
                    scale: -0.5,
                    prev: bgrid.row(2),
                },
            ];
            for o in offsets {
                let mut a = vec![0.0f32; cols];
                let mut b = vec![0.0f32; cols];
                let da = jacobi_row(&s, up, center, down, o, &mut a);
                let db = scalar::jacobi_row(&s, up, center, down, o, &mut b);
                for j in 0..cols {
                    assert_eq!(a[j].to_bits(), b[j].to_bits(), "jacobi col {j} of {cols}");
                }
                assert!(
                    (da - db).abs() <= 1e-12 * db.max(1.0),
                    "{cols}: {da} vs {db}"
                );

                let mut ra = vec![0.0f32; cols];
                let mut rb = vec![0.0f32; cols];
                let dra = residual_row(&s, up, center, down, o, &mut ra);
                let drb = scalar::residual_row(&s, up, center, down, o, &mut rb);
                for j in 0..cols {
                    assert_eq!(
                        ra[j].to_bits(),
                        rb[j].to_bits(),
                        "residual col {j} of {cols}"
                    );
                }
                assert!((dra - drb).abs() <= 1e-12 * drb.max(1.0));

                for start in [1usize, 2] {
                    let mut ca: Vec<f32> = center.to_vec();
                    let mut cb: Vec<f32> = center.to_vec();
                    let dca = checkerboard_row(&s, up, &mut ca, down, o, start);
                    let dcb = scalar::checkerboard_row(&s, up, &mut cb, down, o, start);
                    for j in 0..cols {
                        assert_eq!(ca[j].to_bits(), cb[j].to_bits(), "cb col {j} of {cols}");
                    }
                    assert!((dca - dcb).abs() <= 1e-12 * dcb.max(1.0));
                }
            }
        }
    }

    #[test]
    fn lane_fold_is_exact_for_three_or_fewer_terms() {
        // Unused lanes hold +0.0, so rows with interior <= 3 fold to the
        // same bits as the serial sum — the contract the short-row
        // bitwise tests below rely on.
        let terms = [0.3f64, 1.7e-3, 42.0];
        let mut acc = [0.0f64; SIMD_LANES];
        for (k, t) in terms.iter().enumerate() {
            acc[k] = t * t;
        }
        let serial = (terms[0] * terms[0] + terms[1] * terms[1]) + terms[2] * terms[2];
        assert_eq!(fold_lanes(acc).to_bits(), serial.to_bits());
    }

    #[test]
    fn row_bands_with_min_never_emits_a_band_narrower_than_the_halo() {
        for rows in 3..40 {
            let interior = rows - 2;
            for req in 1..10 {
                for k in 1..10 {
                    let bands = row_bands_with_min(rows, req, k);
                    assert!(!bands.is_empty());
                    assert_eq!(bands.first().unwrap().start, 1);
                    assert_eq!(bands.last().unwrap().end, rows - 1);
                    for b in &bands {
                        assert!(
                            b.len() >= k.min(interior),
                            "rows={rows} req={req} k={k}: band {b:?} narrower than halo"
                        );
                    }
                    assert!(bands.len() <= req.max(1));
                }
            }
        }
        // min_height <= 1 degenerates to row_bands.
        assert_eq!(row_bands_with_min(19, 7, 1), row_bands(19, 7));
        assert_eq!(row_bands_with_min(19, 7, 0), row_bands(19, 7));
        // The ISSUE's example: a 7-way split of a 17-row interior must
        // not emit 1-row bands a k=4 wavefront cannot skew across.
        for b in row_bands_with_min(19, 7, 4) {
            assert!(b.len() >= 4);
        }
    }

    #[test]
    fn hybrid_hw_row_seam_columns_take_the_old_top() {
        let old_up: Vec<f32> = (0..8).map(|j| j as f32).collect();
        let new_up: Vec<f32> = (0..8).map(|j| j as f32 + 100.0).collect();
        let center = vec![0.5f32; 8];
        let down = vec![0.25f32; 8];
        let mut fresh = vec![0.0f32; 8];
        let mut stale = vec![0.0f32; 8];
        let s = stencil();
        let _ = hybrid_hw_row(
            &s,
            &old_up,
            &new_up,
            &center,
            &down,
            OffsetRow::None,
            &mut fresh,
            false,
            4,
        );
        let _ = hybrid_hw_row(
            &s,
            &old_up,
            &new_up,
            &center,
            &down,
            OffsetRow::None,
            &mut stale,
            true,
            4,
        );
        // Seam columns (j = 3, 7 for width 4; 7 is boundary here) agree,
        // non-seam interior columns differ by the fresh top.
        assert_eq!(fresh[3].to_bits(), stale[3].to_bits(), "seam column");
        for j in [1usize, 2, 4, 5, 6] {
            assert_ne!(fresh[j].to_bits(), stale[j].to_bits(), "column {j}");
        }
    }

    #[test]
    fn residual_row_is_jacobi_update_minus_center() {
        // r[j] = (S·u + b)[j] - u[j]: exactly the Jacobi update delta, so
        // both kernels report the same squared-update row sum bit for bit.
        let s = FivePointStencil::new(0.3f64, 0.2, 0.1);
        let up = [0.5, 1.5, -2.0, 0.25, 3.0];
        let center = [1.0, -0.5, 2.0, 0.75, -1.0];
        let down = [0.1, 0.2, 0.3, 0.4, 0.5];
        let b = [0.0, 0.7, -0.3, 0.1, 0.0];
        let mut next = [0.0f64; 5];
        let d2_jac = jacobi_row(&s, &up, &center, &down, OffsetRow::Static(&b), &mut next);
        let mut r = [0.0f64; 5];
        let d2_res = residual_row(&s, &up, &center, &down, OffsetRow::Static(&b), &mut r);
        assert_eq!(d2_jac.to_bits(), d2_res.to_bits());
        for j in 1..4 {
            assert_eq!(r[j].to_bits(), (next[j] - center[j]).to_bits(), "col {j}");
        }
        assert_eq!(r[0], 0.0, "ring untouched");
        assert_eq!(r[4], 0.0, "ring untouched");
    }

    #[test]
    fn apply_row_negates_the_zero_offset_residual() {
        let s = FivePointStencil::new(0.25f64, 0.25, 0.0);
        let up = [0.5, 1.5, -2.0, 0.25, 3.0];
        let center = [1.0, -0.5, 2.0, 0.75, -1.0];
        let down = [0.1, 0.2, 0.3, 0.4, 0.5];
        let mut au = [0.0f64; 5];
        apply_row(&s, &up, &center, &down, &mut au);
        let mut r = [0.0f64; 5];
        let _ = residual_row(&s, &up, &center, &down, OffsetRow::None, &mut r);
        for j in 1..4 {
            assert_eq!(au[j].to_bits(), (-r[j]).to_bits(), "col {j}");
        }
    }

    #[test]
    fn flux_kernels_reduce_to_constant_operator_on_uniform_faces() {
        // With every face weight w and u scaled so diag = 4w = 1, the flux
        // operator equals I - S for the constant stencil w_v = w_h = w.
        let w = 0.25f64;
        let s = FivePointStencil::new(w, w, 0.0);
        let faces = [w; 6];
        let up = [0.5, 1.5, -2.0, 0.25, 3.0, 0.9];
        let center = [1.0, -0.5, 2.0, 0.75, -1.0, 0.6];
        let down = [0.1, 0.2, 0.3, 0.4, 0.5, 0.8];
        let mut a_const = [0.0f64; 6];
        apply_row(&s, &up, &center, &down, &mut a_const);
        let mut a_flux = [0.0f64; 6];
        flux_apply_row(&faces, &faces, &faces, &up, &center, &down, &mut a_flux);
        for j in 1..5 {
            assert!(
                (a_flux[j] - a_const[j]).abs() < 1e-15,
                "col {j}: {} vs {}",
                a_flux[j],
                a_const[j]
            );
        }
    }

    #[test]
    fn flux_residual_row_is_b_minus_apply() {
        let faces_v = [0.2f64, 0.3, 0.25, 0.1, 0.4];
        let faces_h = [0.15f64, 0.35, 0.2, 0.3, 0.1];
        let up = [0.5, 1.5, -2.0, 0.25, 3.0];
        let center = [1.0, -0.5, 2.0, 0.75, -1.0];
        let down = [0.1, 0.2, 0.3, 0.4, 0.5];
        let b = [0.0, 0.7, -0.3, 0.1, 0.0];
        let mut au = [0.0f64; 5];
        flux_apply_row(&faces_v, &faces_h, &faces_v, &up, &center, &down, &mut au);
        let mut r = [0.0f64; 5];
        let d2 = flux_residual_row(
            &faces_v, &faces_h, &faces_v, &up, &center, &down, &b, &mut r,
        );
        let mut want = 0.0f64;
        for j in 1..4 {
            assert_eq!(r[j].to_bits(), (b[j] - au[j]).to_bits(), "col {j}");
            want += r[j] * r[j];
        }
        assert_eq!(d2.to_bits(), want.to_bits());
    }
}
