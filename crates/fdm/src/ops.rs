//! Composable matrix-free stencil operators — one operator algebra under
//! the sweeps, the Krylov solvers and multigrid.
//!
//! The FDMAX array is a single hardware substrate that many update
//! methods time-share; this module is the software mirror of that idea.
//! Every solver in the crate composes the same small set of matrix-free
//! operations instead of hand-rolling its own loops:
//!
//! * [`StencilOp::apply`] — `A·u` through the stencil, no assembled
//!   matrix anywhere (`A = I - S` for constant coefficients, the
//!   flux-form finite-volume operator for variable coefficients);
//! * [`StencilOp::residual_axpy`] — the fused `r = b - A·u` plus
//!   `||r||²` in one pass over the grid (the PE's DIFF register,
//!   expressed as an operator);
//! * [`restrict`] / [`prolong_add`] — multigrid's full-weighting
//!   restriction and bilinear prolongation;
//! * [`dot`] / [`norm`] / [`axpy`] / [`fold_partials`] — vector algebra
//!   with *fixed-order* folding, so residual histories are reproducible
//!   bit-for-bit regardless of which engine produced them.
//!
//! Everything is built on the row-slice kernels of [`crate::kernels`];
//! the hand-indexed `(i, j)` loops live *here and only here*, so the
//! solver layers above ([`crate::solver::krylov`],
//! [`crate::solver::multigrid`], the engines) contain none.
//!
//! # Coefficient fields: variable-coefficient PDEs as a data plug-in
//!
//! [`CoefficientField`] abstracts what the operator's entries are:
//!
//! * [`CoefficientField::Constant`] — one [`FivePointStencil`]; the
//!   operator is exactly the crate's fixed-point `A = I - S` with a unit
//!   diagonal, bit-compatible with the assembled
//!   [`CsrMatrix`](crate::sparse::CsrMatrix) route and the PE model.
//! * [`CoefficientField::PerAxis`] — one weight per vertical face row
//!   and per horizontal face column (separable coefficients, graded
//!   meshes). Lowered to per-cell faces at construction.
//! * [`CoefficientField::PerCell`] — full face-weight grids: `w_v[(i, j)]`
//!   weighs the face between cells `(i, j)` and `(i + 1, j)`, and
//!   `w_h[(i, j)]` the face between `(i, j)` and `(i, j + 1)`. The
//!   diagonal is the sum of each cell's four face weights, so the
//!   operator is symmetric positive definite whenever every face weight
//!   is positive — plain CG solves variable-coefficient Poisson problems
//!   with **no new solver code**.
//!
//! # Which identities are bit-exact
//!
//! * Per-point values of [`StencilOp::residual_axpy`] equal
//!   [`crate::stencil::fixed_point_residual`] bit-for-bit (same canonical
//!   order), and [`StencilOp::apply`] is its exact negation at `b = 0`.
//! * Norms fold per-row f64 partials in ascending row order — the same
//!   contract as the banded [`crate::engine::SweepEngine`] — so they are
//!   thread-count-invariant, but *not* bit-identical to a flat
//!   element-order sum.
//! * Matrix-free vs assembled-CSR operator application agrees to
//!   rounding (different summation orders), which the equivalence suite
//!   checks differentially; converged solutions agree to solver
//!   tolerance.

use crate::grid::Grid2D;
use crate::kernels;
use crate::pde::{OffsetField, ProblemError, StencilProblem};
use crate::precision::Scalar;
use crate::stencil::FivePointStencil;

/// What the operator's coefficients are — the data plug-in that turns
/// one solver stack into a family of PDEs. See the module docs for the
/// face-weight convention.
#[derive(Clone, Debug)]
pub enum CoefficientField<T> {
    /// One stencil for the whole grid: the fixed-point operator
    /// `A = I - S` (unit diagonal).
    Constant(FivePointStencil<T>),
    /// Separable face weights: `vertical[i]` weighs every face between
    /// rows `i` and `i + 1`, `horizontal[j]` every face between columns
    /// `j` and `j + 1`. Flux-form operator (diagonal = face-weight sum).
    PerAxis {
        /// Per-row vertical face weights, length `rows` (last unused).
        vertical: Vec<T>,
        /// Per-column horizontal face weights, length `cols` (last
        /// unused).
        horizontal: Vec<T>,
    },
    /// Fully general per-cell face weights (flux form).
    PerCell {
        /// `w_v[(i, j)]` weighs the face between `(i, j)` and
        /// `(i + 1, j)`; the last row is unused.
        w_v: Grid2D<T>,
        /// `w_h[(i, j)]` weighs the face between `(i, j)` and
        /// `(i, j + 1)`; the last column is unused.
        w_h: Grid2D<T>,
    },
}

impl<T: Scalar> CoefficientField<T> {
    /// Builds per-cell face weights for the diffusion operator
    /// `-∇·(κ∇u)` on the unit square with an `rows x cols` grid:
    /// `κ` is sampled at each face midpoint and scaled by `1/dy²`
    /// (vertical faces) or `1/dx²` (horizontal faces).
    ///
    /// Any strictly positive `κ` yields a symmetric positive definite
    /// operator, so conjugate gradients applies unchanged.
    pub fn diffusion(rows: usize, cols: usize, kappa: impl Fn(f64, f64) -> f64) -> Self {
        let dx = 1.0 / (cols.max(2) - 1) as f64;
        let dy = 1.0 / (rows.max(2) - 1) as f64;
        let w_v = Grid2D::from_fn(rows, cols, |i, j| {
            let x = j as f64 * dx;
            let y = (i as f64 + 0.5) * dy;
            T::from_f64(kappa(x, y) / (dy * dy))
        });
        let w_h = Grid2D::from_fn(rows, cols, |i, j| {
            let x = (j as f64 + 0.5) * dx;
            let y = i as f64 * dy;
            T::from_f64(kappa(x, y) / (dx * dx))
        });
        CoefficientField::PerCell { w_v, w_h }
    }
}

/// The operator's lowered internal form: constant stays symbolic (two
/// scalar weights beat two grids), per-axis/per-cell become face grids.
#[derive(Clone, Debug)]
enum OpKind<T> {
    Constant(FivePointStencil<T>),
    Flux { w_v: Grid2D<T>, w_h: Grid2D<T> },
}

/// A matrix-free stencil operator on an `rows x cols` grid.
///
/// `apply`/`residual_axpy` touch interior points only; the callers own
/// the boundary ring (Dirichlet data on solution grids, zeros on Krylov
/// direction grids and multigrid error grids).
#[derive(Clone, Debug)]
pub struct StencilOp<T> {
    rows: usize,
    cols: usize,
    kind: OpKind<T>,
    /// One zero row, lent to the flux kernels when the offset is absent.
    zeros: Vec<T>,
}

impl<T: Scalar> StencilOp<T> {
    /// Builds the operator for a coefficient field.
    ///
    /// # Errors
    ///
    /// [`ProblemError::GridTooSmall`] when the grid has no interior,
    /// [`ProblemError::ShapeMismatch`] when a per-axis/per-cell field's
    /// dimensions do not match the grid.
    pub fn new(rows: usize, cols: usize, coeff: CoefficientField<T>) -> Result<Self, ProblemError> {
        if rows < 3 || cols < 3 {
            return Err(ProblemError::GridTooSmall { rows, cols });
        }
        let kind = match coeff {
            CoefficientField::Constant(stencil) => OpKind::Constant(stencil),
            CoefficientField::PerAxis {
                vertical,
                horizontal,
            } => {
                if vertical.len() != rows || horizontal.len() != cols {
                    return Err(ProblemError::ShapeMismatch {
                        expected: (rows, cols),
                        got: (vertical.len(), horizontal.len()),
                    });
                }
                let w_v = Grid2D::from_fn(rows, cols, |i, _| vertical[i]);
                let w_h = Grid2D::from_fn(rows, cols, |_, j| horizontal[j]);
                OpKind::Flux { w_v, w_h }
            }
            CoefficientField::PerCell { w_v, w_h } => {
                if w_v.rows() != rows
                    || w_v.cols() != cols
                    || w_h.rows() != rows
                    || w_h.cols() != cols
                {
                    return Err(ProblemError::ShapeMismatch {
                        expected: (rows, cols),
                        got: (w_v.rows(), w_v.cols()),
                    });
                }
                OpKind::Flux { w_v, w_h }
            }
        };
        Ok(StencilOp {
            rows,
            cols,
            kind,
            zeros: vec![T::ZERO; cols],
        })
    }

    /// The constant-coefficient operator `A = I - S` of a problem's
    /// stencil (any problem kind — the operator ignores the offset).
    ///
    /// # Panics
    ///
    /// Panics when the problem grid has no interior.
    #[must_use]
    pub fn from_problem(problem: &StencilProblem<T>) -> Self {
        StencilOp::new(
            problem.rows(),
            problem.cols(),
            CoefficientField::Constant(problem.stencil),
        )
        .expect("a built problem always has an interior")
    }

    /// Grid rows.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Grid columns.
    #[must_use]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `true` for the constant-coefficient (`A = I - S`) form.
    #[must_use]
    pub fn is_constant(&self) -> bool {
        matches!(self.kind, OpKind::Constant(_))
    }

    /// `A·u` into `out` (interior only; `out`'s ring is never touched).
    ///
    /// # Panics
    ///
    /// Panics when `u` or `out` do not match the operator's dimensions.
    pub fn apply(&self, u: &Grid2D<T>, out: &mut Grid2D<T>) {
        self.check_dims(u);
        self.check_dims(out);
        for i in 1..self.rows - 1 {
            let (up, mid, down) = (u.row(i - 1), u.row(i), u.row(i + 1));
            match &self.kind {
                OpKind::Constant(s) => {
                    kernels::apply_row(s, up, mid, down, out.row_mut(i));
                }
                OpKind::Flux { w_v, w_h } => {
                    kernels::flux_apply_row(
                        w_v.row(i - 1),
                        w_v.row(i),
                        w_h.row(i),
                        up,
                        mid,
                        down,
                        out.row_mut(i),
                    );
                }
            }
        }
    }

    /// Fused residual: writes `r = b - A·u` into `r`'s interior and
    /// returns `||r||²` as per-row f64 partials folded in ascending row
    /// order. The right-hand side `b` comes from the problem-level
    /// offset field (`prev` backs the wave equation's history term on
    /// the constant path).
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatches, and on a `ScaledPrevField` offset
    /// for a variable-coefficient (flux) operator — those are
    /// steady-state only.
    pub fn residual_axpy(
        &self,
        offset: &OffsetField<T>,
        prev: Option<&Grid2D<T>>,
        u: &Grid2D<T>,
        r: &mut Grid2D<T>,
    ) -> f64 {
        self.check_dims(u);
        self.check_dims(r);
        let mut norm2 = 0.0f64;
        for i in 1..self.rows - 1 {
            let (up, mid, down) = (u.row(i - 1), u.row(i), u.row(i + 1));
            let partial = match &self.kind {
                OpKind::Constant(s) => kernels::residual_row(
                    s,
                    up,
                    mid,
                    down,
                    kernels::OffsetRow::for_row(offset, prev, i),
                    r.row_mut(i),
                ),
                OpKind::Flux { w_v, w_h } => {
                    let b = match offset {
                        OffsetField::None => self.zeros.as_slice(),
                        OffsetField::Static(c) => c.row(i),
                        OffsetField::ScaledPrevField { .. } => {
                            panic!("variable-coefficient operators are steady-state only")
                        }
                    };
                    kernels::flux_residual_row(
                        w_v.row(i - 1),
                        w_v.row(i),
                        w_h.row(i),
                        up,
                        mid,
                        down,
                        b,
                        r.row_mut(i),
                    )
                }
            };
            norm2 += partial;
        }
        norm2
    }

    /// `||b - A·u||²` without materialising the residual field (one
    /// scratch row).
    #[must_use]
    pub fn residual_norm2(
        &self,
        offset: &OffsetField<T>,
        prev: Option<&Grid2D<T>>,
        u: &Grid2D<T>,
    ) -> f64 {
        self.check_dims(u);
        let mut scratch = vec![T::ZERO; self.cols];
        let mut norm2 = 0.0f64;
        for i in 1..self.rows - 1 {
            let (up, mid, down) = (u.row(i - 1), u.row(i), u.row(i + 1));
            let partial = match &self.kind {
                OpKind::Constant(s) => kernels::residual_row(
                    s,
                    up,
                    mid,
                    down,
                    kernels::OffsetRow::for_row(offset, prev, i),
                    &mut scratch,
                ),
                OpKind::Flux { w_v, w_h } => {
                    let b = match offset {
                        OffsetField::None => self.zeros.as_slice(),
                        OffsetField::Static(c) => c.row(i),
                        OffsetField::ScaledPrevField { .. } => {
                            panic!("variable-coefficient operators are steady-state only")
                        }
                    };
                    kernels::flux_residual_row(
                        w_v.row(i - 1),
                        w_v.row(i),
                        w_h.row(i),
                        up,
                        mid,
                        down,
                        b,
                        &mut scratch,
                    )
                }
            };
            norm2 += partial;
        }
        norm2
    }

    /// The operator's diagonal as a grid (ring filled with ones so a
    /// Jacobi preconditioner can divide anywhere): `1 - w_s` for the
    /// constant form, the face-weight sum for the flux form.
    #[must_use]
    pub fn diagonal(&self) -> Grid2D<T> {
        match &self.kind {
            OpKind::Constant(s) => {
                let d = T::ONE - s.w_s;
                let mut g = Grid2D::filled(self.rows, self.cols, T::ONE);
                for i in 1..self.rows - 1 {
                    for v in &mut g.row_mut(i)[1..self.cols - 1] {
                        *v = d;
                    }
                }
                g
            }
            OpKind::Flux { w_v, w_h } => Grid2D::from_fn(self.rows, self.cols, |i, j| {
                if i == 0 || j == 0 || i == self.rows - 1 || j == self.cols - 1 {
                    T::ONE
                } else {
                    (w_v[(i - 1, j)] + w_v[(i, j)]) + (w_h[(i, j - 1)] + w_h[(i, j)])
                }
            }),
        }
    }

    /// The right-hand side of the interior linear system `A·x = b` with
    /// the grid's Dirichlet ring folded in: `b = c + (coupling to the
    /// boundary values)`, zero ring. Evaluated in f64 — this feeds the
    /// Krylov solvers, which iterate in f64 regardless of the problem's
    /// storage precision.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatches or a `ScaledPrevField` offset (no
    /// steady-state system exists for time-stepped problems).
    #[must_use]
    pub fn dirichlet_rhs(&self, offset: &OffsetField<T>, boundary: &Grid2D<T>) -> Grid2D<f64> {
        self.check_dims(boundary);
        let rows = self.rows;
        let cols = self.cols;
        let mut b = Grid2D::zeros(rows, cols);
        for i in 1..rows - 1 {
            for j in 1..cols - 1 {
                let mut v = match offset {
                    OffsetField::None => 0.0,
                    OffsetField::Static(c) => c[(i, j)].to_f64(),
                    OffsetField::ScaledPrevField { .. } => {
                        panic!("no steady-state right-hand side for a time-dependent offset")
                    }
                };
                match &self.kind {
                    OpKind::Constant(s) => {
                        if i == 1 {
                            v += s.w_v.to_f64() * boundary[(0, j)].to_f64();
                        }
                        if i == rows - 2 {
                            v += s.w_v.to_f64() * boundary[(rows - 1, j)].to_f64();
                        }
                        if j == 1 {
                            v += s.w_h.to_f64() * boundary[(i, 0)].to_f64();
                        }
                        if j == cols - 2 {
                            v += s.w_h.to_f64() * boundary[(i, cols - 1)].to_f64();
                        }
                    }
                    OpKind::Flux { w_v, w_h } => {
                        if i == 1 {
                            v += w_v[(0, j)].to_f64() * boundary[(0, j)].to_f64();
                        }
                        if i == rows - 2 {
                            v += w_v[(rows - 2, j)].to_f64() * boundary[(rows - 1, j)].to_f64();
                        }
                        if j == 1 {
                            v += w_h[(i, 0)].to_f64() * boundary[(i, 0)].to_f64();
                        }
                        if j == cols - 2 {
                            v += w_h[(i, cols - 2)].to_f64() * boundary[(i, cols - 1)].to_f64();
                        }
                    }
                }
                b[(i, j)] = v;
            }
        }
        b
    }

    fn check_dims(&self, g: &Grid2D<T>) {
        assert_eq!(
            (g.rows(), g.cols()),
            (self.rows, self.cols),
            "operator/grid dimension mismatch"
        );
    }
}

// ------------------------------------------------------------------
// Fixed-order vector algebra (f64 Krylov space).
// ------------------------------------------------------------------

/// Dot product with a strict left-to-right fold — the fixed order every
/// Krylov path shares, so iteration histories are reproducible.
#[must_use]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len(), "dot length mismatch");
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// L2 norm via [`dot`] (same fold order).
#[must_use]
pub fn norm(a: &[f64]) -> f64 {
    dot(a, a).sqrt()
}

/// `y += alpha * x`, element order.
pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    debug_assert_eq!(x.len(), y.len(), "axpy length mismatch");
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi += alpha * xi;
    }
}

/// `y = x + beta * y`, element order (the CG direction update).
pub fn xpby(x: &[f64], beta: f64, y: &mut [f64]) {
    debug_assert_eq!(x.len(), y.len(), "xpby length mismatch");
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi = xi + beta * *yi;
    }
}

/// Folds per-row (or per-band) f64 partial sums in ascending order — the
/// one fold the serial and banded [`crate::engine::SweepEngine`] sweeps
/// and the operator layer all share, which is what makes residual histories
/// thread-count-invariant bit for bit.
#[must_use]
pub fn fold_partials(partials: &[f64]) -> f64 {
    fold_partials_from(0.0, partials)
}

/// [`fold_partials`] continued from a running total — for multi-phase
/// sweeps (checkerboard) whose serial accumulator never resets between
/// phases. `fold_partials_from(acc, p)` reproduces `for v in p { acc += v }`
/// exactly, so phase boundaries introduce no regrouping.
#[must_use]
pub fn fold_partials_from(acc: f64, partials: &[f64]) -> f64 {
    let mut total = acc;
    for &v in partials {
        total += v;
    }
    total
}

// ------------------------------------------------------------------
// Grid embedding / flattening between solver spaces.
// ------------------------------------------------------------------

/// Clones `frame` and overwrites its interior with `values` (converted
/// through f64) — scatters a Krylov iterate back onto its Dirichlet
/// ring.
#[must_use]
pub fn embed_interior<S: Scalar, T: Scalar>(values: &Grid2D<S>, frame: &Grid2D<T>) -> Grid2D<T> {
    assert_eq!(
        (values.rows(), values.cols()),
        (frame.rows(), frame.cols()),
        "embed dimension mismatch"
    );
    let mut out = frame.clone();
    for i in out.interior_rows() {
        let src = values.row(i);
        let dst = out.row_mut(i);
        let hi = src.len() - 1;
        for (d, s) in dst[1..hi].iter_mut().zip(&src[1..hi]) {
            *d = T::from_f64(s.to_f64());
        }
    }
    out
}

/// The interior of a grid as a flat row-major vector (the classic
/// Krylov unknown ordering, matching the assembled CSR system).
#[must_use]
pub fn interior_to_vec(g: &Grid2D<f64>) -> Vec<f64> {
    let cols = g.cols();
    let mut out = Vec::with_capacity(g.rows().saturating_sub(2) * cols.saturating_sub(2));
    for i in g.interior_rows() {
        out.extend_from_slice(&g.row(i)[1..cols - 1]);
    }
    out
}

// ------------------------------------------------------------------
// Inter-grid transfer operators (multigrid).
// ------------------------------------------------------------------

/// Full-weighting restriction onto the `(n+1)/2` grid (boundary zero):
/// centre `1/4`, edges `1/8`, corners `1/16`. Adjoint (up to the factor
/// 4 grid-transfer scaling) of [`prolong_add`].
#[must_use]
pub fn restrict<T: Scalar>(fine: &Grid2D<T>) -> Grid2D<T> {
    let rc = fine.rows().div_ceil(2);
    let cc = fine.cols().div_ceil(2);
    let quarter = T::from_f64(0.25);
    let eighth = T::from_f64(0.125);
    let sixteenth = T::from_f64(0.0625);
    let mut coarse = Grid2D::zeros(rc, cc);
    for i in 1..rc - 1 {
        for j in 1..cc - 1 {
            let (fi, fj) = (2 * i, 2 * j);
            let centre = quarter * fine[(fi, fj)];
            let edges = eighth
                * (fine[(fi - 1, fj)]
                    + fine[(fi + 1, fj)]
                    + fine[(fi, fj - 1)]
                    + fine[(fi, fj + 1)]);
            let corners = sixteenth
                * (fine[(fi - 1, fj - 1)]
                    + fine[(fi - 1, fj + 1)]
                    + fine[(fi + 1, fj - 1)]
                    + fine[(fi + 1, fj + 1)]);
            coarse[(i, j)] = centre + edges + corners;
        }
    }
    coarse
}

/// Bilinear prolongation: adds the interpolated coarse correction onto
/// the fine grid's interior. Out-of-range coarse neighbours read as zero
/// (the error grids' homogeneous boundary).
pub fn prolong_add<T: Scalar>(coarse: &Grid2D<T>, fine: &mut Grid2D<T>) {
    let half = T::from_f64(0.5);
    let quarter = T::from_f64(0.25);
    let (rc, cc) = (coarse.rows(), coarse.cols());
    let at = |i: isize, j: isize| -> T {
        if i < 0 || j < 0 || i as usize >= rc || j as usize >= cc {
            T::ZERO
        } else {
            coarse[(i as usize, j as usize)]
        }
    };
    for i in 1..fine.rows() - 1 {
        for j in 1..fine.cols() - 1 {
            let (ci, cj) = ((i / 2) as isize, (j / 2) as isize);
            let add = match (i % 2, j % 2) {
                (0, 0) => at(ci, cj),
                (1, 0) => half * (at(ci, cj) + at(ci + 1, cj)),
                (0, 1) => half * (at(ci, cj) + at(ci, cj + 1)),
                _ => quarter * (at(ci, cj) + at(ci + 1, cj) + at(ci, cj + 1) + at(ci + 1, cj + 1)),
            };
            fine[(i, j)] = fine[(i, j)] + add;
        }
    }
}

/// `u += e` on the interior, row slices.
pub fn add_assign_interior<T: Scalar>(u: &mut Grid2D<T>, e: &Grid2D<T>) {
    assert_eq!(
        (u.rows(), u.cols()),
        (e.rows(), e.cols()),
        "add dimension mismatch"
    );
    let cols = u.cols();
    for i in u.interior_rows() {
        let src = e.row(i);
        for (d, s) in u.row_mut(i)[1..cols - 1].iter_mut().zip(&src[1..cols - 1]) {
            *d = *d + *s;
        }
    }
}

/// Scales every element of a grid in place.
pub fn scale<T: Scalar>(g: &mut Grid2D<T>, factor: T) {
    for v in g.as_mut_slice() {
        *v = factor * *v;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::boundary::DirichletBoundary;
    use crate::pde::{LaplaceProblem, PoissonProblem};
    use crate::sparse::StencilSystem;

    fn laplace(n: usize) -> StencilProblem<f64> {
        LaplaceProblem::builder(n, n)
            .boundary(DirichletBoundary::sine_top(1.0))
            .build()
            .unwrap()
            .discretize::<f64>()
    }

    #[test]
    fn constant_apply_matches_assembled_spmv_to_rounding() {
        let sp = laplace(12);
        let sys = StencilSystem::assemble(&sp).unwrap();
        let op = StencilOp::from_problem(&sp);
        // An arbitrary zero-ring iterate.
        let u = Grid2D::from_fn(12, 12, |i, j| {
            if i == 0 || j == 0 || i == 11 || j == 11 {
                0.0
            } else {
                ((i * 7 + j * 3) % 11) as f64 * 0.125 - 0.5
            }
        });
        let mut au = Grid2D::zeros(12, 12);
        op.apply(&u, &mut au);
        let flat = interior_to_vec(&u);
        let csr = sys.matrix.spmv(&flat);
        for (a, b) in interior_to_vec(&au).iter().zip(&csr) {
            assert!((a - b).abs() < 1e-12, "{a} vs {b}");
        }
    }

    #[test]
    fn residual_axpy_matches_b_minus_apply() {
        let sp = PoissonProblem::builder(10, 10)
            .source_fn(|x, y| x - y)
            .build()
            .unwrap()
            .discretize::<f64>();
        let op = StencilOp::from_problem(&sp);
        let u = Grid2D::from_fn(10, 10, |i, j| (i + 2 * j) as f64 * 0.01);
        let mut r = Grid2D::zeros(10, 10);
        let norm2 = op.residual_axpy(&sp.offset, None, &u, &mut r);
        let mut au = Grid2D::zeros(10, 10);
        op.apply(&u, &mut au);
        let b = match &sp.offset {
            crate::pde::OffsetField::Static(c) => c.clone(),
            _ => unreachable!("poisson offset is static"),
        };
        let mut want2 = 0.0f64;
        for i in 1..9 {
            // Reproduce the kernel's within-row lane fold (interior
            // element k lands in lane k % SIMD_LANES), then the per-row
            // partials fold in ascending row order.
            let mut acc = [0.0f64; crate::kernels::SIMD_LANES];
            for j in 1..9 {
                let want = b[(i, j)] - au[(i, j)];
                assert!((r[(i, j)] - want).abs() < 1e-12);
                acc[(j - 1) % crate::kernels::SIMD_LANES] += r[(i, j)] * r[(i, j)];
            }
            want2 += crate::kernels::fold_lanes(acc);
        }
        assert_eq!(norm2.to_bits(), want2.to_bits(), "per-row ascending fold");
        assert_eq!(
            op.residual_norm2(&sp.offset, None, &u).to_bits(),
            norm2.to_bits()
        );
    }

    #[test]
    fn per_axis_lowers_to_per_cell() {
        let vertical = vec![0.5f64, 0.25, 0.75, 0.125, 0.0];
        let horizontal = vec![0.1f64, 0.2, 0.3, 0.4, 0.0];
        let pa = StencilOp::new(
            5,
            5,
            CoefficientField::PerAxis {
                vertical: vertical.clone(),
                horizontal: horizontal.clone(),
            },
        )
        .unwrap();
        let pc = StencilOp::new(
            5,
            5,
            CoefficientField::PerCell {
                w_v: Grid2D::from_fn(5, 5, |i, _| vertical[i]),
                w_h: Grid2D::from_fn(5, 5, |_, j| horizontal[j]),
            },
        )
        .unwrap();
        let u = Grid2D::from_fn(5, 5, |i, j| (i * 5 + j) as f64 * 0.1);
        let mut a = Grid2D::zeros(5, 5);
        let mut b = Grid2D::zeros(5, 5);
        pa.apply(&u, &mut a);
        pc.apply(&u, &mut b);
        assert_eq!(a.diff_max(&b), 0.0);
    }

    #[test]
    fn flux_operator_is_symmetric() {
        // <A·u, v> == <u, A·v> for random-ish zero-ring fields.
        let coeff = CoefficientField::diffusion(9, 9, |x, y| 1.0 + 2.0 * x + y * y);
        let op = StencilOp::new(9, 9, coeff).unwrap();
        let zr = |f: fn(usize, usize) -> f64| {
            Grid2D::from_fn(9, 9, move |i, j| {
                if i == 0 || j == 0 || i == 8 || j == 8 {
                    0.0
                } else {
                    f(i, j)
                }
            })
        };
        let u = zr(|i, j| ((i * 13 + j * 5) % 7) as f64 - 3.0);
        let v = zr(|i, j| ((i * 3 + j * 11) % 5) as f64 * 0.5 - 1.0);
        let mut au = Grid2D::zeros(9, 9);
        let mut av = Grid2D::zeros(9, 9);
        op.apply(&u, &mut au);
        op.apply(&v, &mut av);
        let lhs = dot(au.as_slice(), v.as_slice());
        let rhs = dot(u.as_slice(), av.as_slice());
        assert!(
            (lhs - rhs).abs() < 1e-9 * lhs.abs().max(1.0),
            "{lhs} vs {rhs}"
        );
    }

    #[test]
    fn dirichlet_rhs_matches_assembled_rhs() {
        let sp = laplace(9);
        let sys = StencilSystem::assemble(&sp).unwrap();
        let op = StencilOp::from_problem(&sp);
        let b = op.dirichlet_rhs(&sp.offset, &sp.initial);
        let flat = interior_to_vec(&b);
        assert_eq!(flat.len(), sys.rhs.len());
        for (got, want) in flat.iter().zip(&sys.rhs) {
            assert!((got - want).abs() < 1e-15, "{got} vs {want}");
        }
    }

    #[test]
    fn operator_construction_validates_shapes() {
        assert!(matches!(
            StencilOp::new(
                2,
                8,
                CoefficientField::Constant(FivePointStencil::new(0.25f64, 0.25, 0.0))
            ),
            Err(ProblemError::GridTooSmall { rows: 2, cols: 8 })
        ));
        assert!(matches!(
            StencilOp::new(
                5,
                5,
                CoefficientField::PerAxis {
                    vertical: vec![0.1f64; 4],
                    horizontal: vec![0.1; 5],
                }
            ),
            Err(ProblemError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn fold_and_vector_algebra_orders() {
        let a = [1e16, 1.0, -1e16, 1.0];
        // Left-to-right: (1e16 + 1) loses the 1, then cancels, then + 1.
        assert_eq!(fold_partials(&a), 1.0);
        assert_eq!(dot(&a, &[1.0, 1.0, 1.0, 1.0]), 1.0);
        let mut y = [1.0, 2.0];
        axpy(0.5, &[2.0, 4.0], &mut y);
        assert_eq!(y, [2.0, 4.0]);
        xpby(&[1.0, 1.0], 0.5, &mut y);
        assert_eq!(y, [2.0, 3.0]);
        assert!((norm(&[3.0, 4.0]) - 5.0).abs() < 1e-15);
    }

    #[test]
    fn embed_and_flatten_round_trip() {
        let frame = Grid2D::filled(4, 5, 9.0f32);
        let values = Grid2D::from_fn(4, 5, |i, j| (i * 5 + j) as f64);
        let g = embed_interior(&values, &frame);
        for j in 0..5 {
            assert_eq!(g[(0, j)], 9.0, "ring preserved");
            assert_eq!(g[(3, j)], 9.0, "ring preserved");
        }
        assert_eq!(g[(1, 1)], 6.0);
        assert_eq!(g[(2, 3)], 13.0);
        let flat = interior_to_vec(&values);
        assert_eq!(flat, vec![6.0, 7.0, 8.0, 11.0, 12.0, 13.0]);
    }

    #[test]
    fn restrict_and_prolong_preserve_constants() {
        // Mirrors the multigrid transfer contract: restriction of a
        // constant-3 interior is 3 away from the boundary.
        let mut fine = Grid2D::zeros(17, 17);
        for i in 1..16 {
            for j in 1..16 {
                fine[(i, j)] = 3.0f64;
            }
        }
        let coarse = restrict(&fine);
        assert_eq!(coarse.rows(), 9);
        assert!((coarse[(4, 4)] - 3.0).abs() < 1e-12);
        let mut out = Grid2D::<f64>::zeros(17, 17);
        prolong_add(&Grid2D::zeros(9, 9), &mut out);
        assert_eq!(out.norm_l2(), 0.0);
    }

    #[test]
    fn add_assign_and_scale_touch_expected_elements() {
        let mut u = Grid2D::filled(4, 4, 1.0f64);
        let e = Grid2D::filled(4, 4, 2.0f64);
        add_assign_interior(&mut u, &e);
        assert_eq!(u[(1, 1)], 3.0);
        assert_eq!(u[(0, 0)], 1.0, "ring untouched");
        scale(&mut u, 2.0);
        assert_eq!(u[(1, 1)], 6.0);
        assert_eq!(u[(0, 0)], 2.0, "scale is whole-grid");
    }
}
