//! Finite Difference Method (FDM) numerics substrate for the FDMAX
//! reproduction.
//!
//! This crate provides everything the accelerator model and the baseline
//! platform models need that is *pure numerics*:
//!
//! * dense 2-D [`grid::Grid2D`] storage with Dirichlet boundary handling,
//! * PDE problem definitions ([`pde`]) for the four benchmark equations of
//!   the paper (Laplace, Poisson, Heat, Wave) and their FDM discretization
//!   into the five-point stencil abstraction of Eq. (11),
//! * the canonical [`stencil`] evaluation whose floating-point operation
//!   order is shared bit-for-bit with the cycle-accurate PE model,
//! * software iterative solvers ([`solver`]): Jacobi, Gauss-Seidel, Hybrid,
//!   Checkerboard (red-black) and SOR,
//! * a matrix-free stencil-operator algebra ([`ops`]): [`ops::StencilOp`]
//!   applies `A = I - S` through the row kernels with constant, per-axis or
//!   per-cell [`ops::CoefficientField`] coefficients, plus fused residuals
//!   and multigrid grid transfers,
//! * Krylov-space solvers (CG, Jacobi-preconditioned PCG, BiCG-STAB) running
//!   matrix-free on that algebra by default ([`solver::krylov`]), with CSR
//!   assembly ([`sparse`]) kept as the differential oracle and to derive the
//!   iteration counts of the `MemAccel` and Alrescha baselines,
//! * residual/stop-condition machinery ([`convergence`]),
//! * the unified solve-engine layer ([`engine`]): the [`engine::SolveEngine`]
//!   trait and the generic [`engine::Session`] driver every backend
//!   (software, hardware model, analytic) runs through, with one
//!   [`engine::SweepEngine`] whose [`engine::SweepPlan`] picks the
//!   serial, banded or temporally tiled ([`tiled`]) sweep schedule,
//! * a software-emulated IEEE half precision type ([`precision::F16`]) for
//!   the Fig. 1(a) precision study,
//! * analytic reference solutions ([`analytic`]) and benchmark workload
//!   generators ([`workload`]).
//!
//! # Example
//!
//! Solve the Laplace equation on a 64x64 grid with a heated top edge:
//!
//! ```
//! use fdm::prelude::*;
//!
//! let problem = LaplaceProblem::builder(64, 64)
//!     .boundary(DirichletBoundary::hot_top(1.0))
//!     .build()
//!     .expect("valid problem");
//! let stencil_problem = problem.discretize::<f64>();
//! let result = solve(
//!     &stencil_problem,
//!     UpdateMethod::Jacobi,
//!     &StopCondition::tolerance(1e-6, 100_000),
//! );
//! assert!(result.converged());
//! ```

pub mod analytic;
pub mod boundary;
pub mod convergence;
pub mod engine;
pub mod grid;
pub mod io;
pub mod kernels;
pub mod ops;
pub mod pde;
pub mod precision;
pub mod solver;
pub mod sparse;
pub mod stencil;
pub mod theory;
pub mod tiled;
pub mod volume;
pub mod workload;

/// Convenient re-exports of the most commonly used items.
pub mod prelude {
    pub use crate::boundary::DirichletBoundary;
    pub use crate::convergence::{ResidualHistory, StopCondition};
    pub use crate::engine::{
        Budget, CancelToken, ResiliencePolicy, Session, SolveEngine, StepOutcome, SweepEngine,
        SweepPlan,
    };
    pub use crate::grid::Grid2D;
    pub use crate::ops::{CoefficientField, StencilOp};
    pub use crate::pde::{
        HeatProblem, LaplaceProblem, PdeKind, PoissonProblem, StencilProblem, WaveProblem,
    };
    pub use crate::precision::{Scalar, F16};
    pub use crate::solver::krylov::KrylovEngine;
    pub use crate::solver::{solve, SolveResult, UpdateMethod};
    pub use crate::stencil::FivePointStencil;
}
