//! Cross-engine equivalence matrix.
//!
//! Every backend of the unified engine layer — software sweeps
//! (`fdm::engine::SweepEngine`), the hardware-semantics reference
//! (`fdmax::engine::HwReferenceEngine`), the cycle-accurate simulator
//! (`fdmax::sim::DetailedSim`) and the analytic estimator
//! (`fdmax::engine::EstimateEngine`) — runs through the same generic
//! `Session` driver. This suite pins the contracts between them, per
//! benchmark PDE:
//!
//! * Jacobi: software == reference == simulator, bit for bit;
//! * Hybrid: reference == simulator in every elastic configuration, and
//!   both == software Hybrid when the configuration has no seams;
//! * estimator: event counters and cycles identical to the simulated run.

use detrng::DetRng;
use fdm::convergence::StopCondition;
use fdm::engine::{Session, SolveEngine, SweepEngine, SweepPlan};
use fdm::grid::Grid2D;
use fdm::ops::{self, StencilOp};
use fdm::pde::{PdeKind, StencilProblem};
use fdm::precision::Scalar;
use fdm::solver::krylov::{conjugate_gradient, matrix_free_cg};
use fdm::solver::UpdateMethod;
use fdm::sparse::StencilSystem;
use fdm::workload::benchmark_problem;
use fdmax::accelerator::{Accelerator, HwUpdateMethod};
use fdmax::config::FdmaxConfig;
use fdmax::elastic::ElasticConfig;
use fdmax::engine::solve_reference;
use fdmax::sim::DetailedSim;

/// One equivalence point per benchmark PDE: odd sizes exercise uneven
/// strip/batch seams, Heat/Wave run their time-stepped datapaths.
const POINTS: [(PdeKind, usize, usize); 4] = [
    (PdeKind::Laplace, 30, 6),
    (PdeKind::Poisson, 27, 6),
    (PdeKind::Heat, 33, 6),
    (PdeKind::Wave, 26, 7),
];

fn assert_bit_identical(a: &Grid2D<f32>, b: &Grid2D<f32>, what: &str) {
    for i in 0..a.rows() {
        for j in 0..a.cols() {
            assert_eq!(
                a[(i, j)].to_bits(),
                b[(i, j)].to_bits(),
                "{what}: mismatch at ({i},{j}): {} vs {}",
                a[(i, j)],
                b[(i, j)]
            );
        }
    }
}

/// Runs a software sweep engine through the generic driver.
fn software_solution(sp: &StencilProblem<f32>, method: UpdateMethod, steps: usize) -> Grid2D<f32> {
    let mut session = Session::new(
        SweepEngine::new(sp, method),
        StopCondition::fixed_steps(steps),
    );
    session.run().expect("no policy, no failure");
    let (engine, _history) = session.into_parts();
    engine.into_solution()
}

/// Runs the cycle-accurate simulator through the generic driver.
fn simulated(
    cfg: FdmaxConfig,
    sp: &StencilProblem<f32>,
    method: HwUpdateMethod,
    elastic: ElasticConfig,
    steps: usize,
) -> DetailedSim {
    let mut sim = DetailedSim::with_elastic(cfg, sp, method, elastic).expect("valid config");
    let mut session = Session::new(&mut sim, StopCondition::fixed_steps(steps));
    session.run().expect("no policy, no failure");
    drop(session);
    sim
}

#[test]
fn jacobi_matrix_software_reference_simulator() {
    let cfg = FdmaxConfig::paper_default();
    for (kind, n, steps) in POINTS {
        let sp: StencilProblem<f32> = benchmark_problem(kind, n, steps).unwrap();
        let sw = software_solution(&sp, UpdateMethod::Jacobi, steps);
        let elastic = ElasticConfig::plan(&cfg, n, n);
        let reference = solve_reference(
            &cfg,
            &sp,
            HwUpdateMethod::Jacobi,
            elastic,
            &StopCondition::fixed_steps(steps),
        );
        let sim = simulated(cfg, &sp, HwUpdateMethod::Jacobi, elastic, steps);
        assert_bit_identical(
            reference.solution(),
            &sw,
            &format!("{kind}: reference vs sw"),
        );
        assert_bit_identical(sim.solution(), &sw, &format!("{kind}: sim vs sw"));
        assert_eq!(sim.iterations(), steps);
        assert_eq!(reference.iterations(), steps);
    }
}

#[test]
fn hybrid_matrix_reference_vs_simulator_in_every_elastic_config() {
    let cfg = FdmaxConfig::paper_default();
    for (kind, n, steps) in POINTS {
        let sp: StencilProblem<f32> = benchmark_problem(kind, n, steps).unwrap();
        for e in ElasticConfig::options(&cfg) {
            let reference = solve_reference(
                &cfg,
                &sp,
                HwUpdateMethod::Hybrid,
                e,
                &StopCondition::fixed_steps(steps),
            );
            let sim = simulated(cfg, &sp, HwUpdateMethod::Hybrid, e, steps);
            assert_bit_identical(
                sim.solution(),
                reference.solution(),
                &format!("{kind} hybrid on {e}"),
            );
        }
    }
}

#[test]
fn hybrid_matrix_seam_free_config_matches_software() {
    // A monolithic 1 x 64 chain with a deep sub-FIFO has no block/batch
    // seams on these grids: hardware Hybrid == software Hybrid.
    let cfg = FdmaxConfig::paper_default();
    let e = ElasticConfig {
        subarrays: 1,
        width: 64,
    };
    for (kind, n, steps) in POINTS {
        if n > 64 {
            continue;
        }
        let sp: StencilProblem<f32> = benchmark_problem(kind, n, steps).unwrap();
        let sw = software_solution(&sp, UpdateMethod::Hybrid, steps);
        let sim = simulated(cfg, &sp, HwUpdateMethod::Hybrid, e, steps);
        assert_bit_identical(sim.solution(), &sw, &format!("{kind} seam-free hybrid"));
    }
}

#[test]
fn parallel_matrix_strip_engine_matches_serial_software() {
    // The strip-parallel engine joins the matrix with the strongest
    // contract: bit-identical solutions AND bit-identical residual
    // histories at every thread count, for both parity-free methods.
    for (kind, n, steps) in POINTS {
        let sp: StencilProblem<f32> = benchmark_problem(kind, n, steps).unwrap();
        for method in [UpdateMethod::Jacobi, UpdateMethod::Checkerboard] {
            let mut serial = Session::new(
                SweepEngine::new(&sp, method),
                StopCondition::fixed_steps(steps),
            );
            serial.run().expect("no policy, no failure");
            let (serial_engine, serial_history) = serial.into_parts();
            let serial_solution = serial_engine.into_solution();
            for threads in [1, 2, 4, 7] {
                let plan = SweepPlan {
                    threads,
                    tile_depth: 1,
                };
                let mut par = Session::new(
                    SweepEngine::with_plan(&sp, method, plan),
                    StopCondition::fixed_steps(steps),
                );
                par.run().expect("no policy, no failure");
                let (engine, history) = par.into_parts();
                assert_eq!(engine.iterations(), steps);
                assert_eq!(history.len(), serial_history.len());
                for i in 0..history.len() {
                    let s = serial_history.get(i).unwrap();
                    let p = history.get(i).unwrap();
                    assert_eq!(
                        s.to_bits(),
                        p.to_bits(),
                        "{kind} {method:?} threads={threads} norm {i}: {s} vs {p}"
                    );
                }
                assert_bit_identical(
                    engine.solution(),
                    &serial_solution,
                    &format!("{kind} {method:?} threads={threads}"),
                );
            }
        }
    }
}

#[test]
fn estimator_matrix_counters_match_the_simulator_exactly() {
    let cfg = FdmaxConfig::paper_default();
    let accel = Accelerator::new(cfg).unwrap();
    for (kind, n, steps) in POINTS {
        let sp: StencilProblem<f32> = benchmark_problem(kind, n, steps).unwrap();
        let simulated = accel
            .solve_with(
                &sp,
                HwUpdateMethod::Jacobi,
                &StopCondition::fixed_steps(steps),
            )
            .unwrap();
        let offset_present = matches!(kind, PdeKind::Poisson | PdeKind::Wave);
        let self_term = matches!(kind, PdeKind::Heat | PdeKind::Wave);
        let estimated = accel.estimate(n, n, offset_present, self_term, steps as u64);
        assert_eq!(
            estimated.counters(),
            simulated.report.counters(),
            "{kind}: estimator and simulator ledgers must be identical"
        );
        assert_eq!(estimated.cycles(), simulated.report.cycles());
        assert_eq!(estimated.elastic(), simulated.report.elastic());
        assert_eq!(estimated.iterations(), steps);
    }
}

// ------------------------------------------------------------------
// Matrix-free operator layer (`fdm::ops`) vs the assembled CSR oracle.
// The `ops_` prefix is the CI `ops-equivalence` job's test filter.
// ------------------------------------------------------------------

/// Fills the interior of `frame` with deterministic values in [-1, 1],
/// keeping the frame's (Dirichlet) ring intact.
fn randomized_interior<T: Scalar>(rng: &mut DetRng, frame: &Grid2D<T>) -> Grid2D<T> {
    let mut g = frame.clone();
    for i in 1..g.rows() - 1 {
        for j in 1..g.cols() - 1 {
            g[(i, j)] = T::from_f64(rng.gen_f64(-1.0, 1.0));
        }
    }
    g
}

/// Interior unknowns of a `T` grid as the f64 vector the CSR oracle
/// operates on (row-major, matching `StencilSystem` ordering).
fn interior_f64<T: Scalar>(g: &Grid2D<T>) -> Vec<f64> {
    let (rows, cols) = (g.rows(), g.cols());
    let mut out = Vec::with_capacity((rows - 2) * (cols - 2));
    for i in 1..rows - 1 {
        for j in 1..cols - 1 {
            out.push(g[(i, j)].to_f64());
        }
    }
    out
}

/// `StencilOp::apply` against the assembled `A = I - S` operator matrix,
/// for every benchmark PDE kind in both precisions. The oracle makes no
/// steady-state restriction, so Heat and Wave are covered too.
fn apply_differential<T: Scalar>(tol: f64) {
    let mut rng = DetRng::seed_from_u64(0x0950_0001);
    for (kind, n, steps) in POINTS {
        let sp: StencilProblem<T> = benchmark_problem(kind, n, steps).unwrap();
        let op = StencilOp::from_problem(&sp);
        let a = StencilSystem::operator_matrix(&sp).unwrap();
        // Zero ring: the CSR operator covers only the interior unknowns
        // (boundary contributions live in the right-hand side).
        let u = randomized_interior(&mut rng, &Grid2D::<T>::zeros(n, n));
        let mut out = Grid2D::zeros(n, n);
        op.apply(&u, &mut out);
        let oracle = a.spmv(&interior_f64(&u));
        let got = interior_f64(&out);
        for (k, (want, got)) in oracle.iter().zip(&got).enumerate() {
            assert!(
                (want - got).abs() <= tol * want.abs().max(1.0),
                "{kind}: A*u row {k}: op {got} vs csr {want}"
            );
        }
        // `apply` never touches the output ring.
        assert!(out.row(0).iter().all(|v| v.to_f64() == 0.0));
    }
}

#[test]
fn ops_apply_matches_the_csr_operator_oracle_f64() {
    apply_differential::<f64>(1e-12);
}

#[test]
fn ops_apply_matches_the_csr_operator_oracle_f32() {
    apply_differential::<f32>(1e-5);
}

/// Fused `residual_axpy` against `r = b - A*x` computed with the fully
/// assembled system, for the steady-state kinds in both precisions. The
/// returned scalar must be the squared norm of the residual it wrote.
fn residual_differential<T: Scalar>(tol: f64) {
    let mut rng = DetRng::seed_from_u64(0x0950_0002);
    for kind in [PdeKind::Laplace, PdeKind::Poisson] {
        let n = 21;
        let sp: StencilProblem<T> = benchmark_problem(kind, n, 0).unwrap();
        let op = StencilOp::from_problem(&sp);
        let sys = StencilSystem::assemble(&sp).unwrap();
        let u = randomized_interior(&mut rng, &sp.initial);
        let mut r = Grid2D::zeros(n, n);
        let norm2 = op.residual_axpy(&sp.offset, None, &u, &mut r);

        let mut oracle = sys.rhs.clone();
        let au = sys.matrix.spmv(&interior_f64(&u));
        for (b, au) in oracle.iter_mut().zip(&au) {
            *b -= au;
        }
        let got = interior_f64(&r);
        for (k, (want, got)) in oracle.iter().zip(&got).enumerate() {
            assert!(
                (want - got).abs() <= tol * want.abs().max(1.0),
                "{kind}: residual row {k}: op {got} vs csr {want}"
            );
        }
        let oracle_norm2 = ops::dot(&got, &got);
        assert!(
            (norm2 - oracle_norm2).abs() <= tol * oracle_norm2.max(1.0),
            "{kind}: fused norm {norm2} vs {oracle_norm2}"
        );
    }
}

#[test]
fn ops_residual_axpy_matches_the_assembled_system_f64() {
    residual_differential::<f64>(1e-12);
}

#[test]
fn ops_residual_axpy_matches_the_assembled_system_f32() {
    residual_differential::<f32>(1e-5);
}

/// End to end: matrix-free CG reaches the assembled oracle's solution on
/// the steady-state kinds, in both precisions, and keeps the Dirichlet
/// ring bit-intact.
fn solution_differential<T: Scalar>(tol: f64) {
    for kind in [PdeKind::Laplace, PdeKind::Poisson] {
        let n = 24;
        let sp: StencilProblem<T> = benchmark_problem(kind, n, 0).unwrap();
        let sys = StencilSystem::assemble(&sp).unwrap();
        let oracle = conjugate_gradient(&sys.matrix, &sys.rhs, 1e-12, 10_000);
        let (x, free) = matrix_free_cg(&sp, 1e-12, 10_000);
        assert!(oracle.converged && free.converged, "{kind}: both converge");
        let worst = oracle
            .solution
            .iter()
            .zip(&free.solution)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f64, f64::max);
        assert!(worst <= tol, "{kind}: solutions disagree by {worst}");
        for j in 0..n {
            assert_eq!(
                x[(0, j)].to_f64(),
                sp.initial[(0, j)].to_f64(),
                "{kind}: Dirichlet ring must survive the solve"
            );
        }
    }
}

#[test]
fn ops_matrix_free_cg_matches_the_assembled_oracle_f64() {
    solution_differential::<f64>(1e-9);
}

#[test]
fn ops_matrix_free_cg_matches_the_assembled_oracle_f32() {
    solution_differential::<f32>(1e-9);
}

/// Full-weighting restriction and bilinear prolongation are adjoint up
/// to the 2-D grid-transfer factor 4: `<R f, c> = <f, P c> / 4` for every
/// fine field `f` and coarse correction `c` with a zero ring. Random
/// fields over square and non-square, odd-sized grids stand witness.
#[test]
fn ops_restrict_prolong_adjoint_property() {
    let mut rng = DetRng::seed_from_u64(0x0950_0003);
    for (rows, cols) in [(17usize, 17usize), (33, 33), (17, 33)] {
        let frame = Grid2D::<f64>::zeros(rows, cols);
        let f = randomized_interior(&mut rng, &frame);
        let coarse_frame = Grid2D::<f64>::zeros(rows.div_ceil(2), cols.div_ceil(2));
        let c = randomized_interior(&mut rng, &coarse_frame);

        let rf = ops::restrict(&f);
        let lhs = ops::dot(rf.as_slice(), c.as_slice());

        let mut pc = Grid2D::<f64>::zeros(rows, cols);
        ops::prolong_add(&c, &mut pc);
        let rhs = ops::dot(f.as_slice(), pc.as_slice()) / 4.0;

        assert!(
            (lhs - rhs).abs() <= 1e-12 * lhs.abs().max(1.0),
            "{rows}x{cols}: <Rf,c> = {lhs} but <f,Pc>/4 = {rhs}"
        );
    }
}

#[test]
fn session_histories_agree_between_software_and_simulator() {
    // The Session records the same residual trajectory whichever backend
    // produced it (ECU norms match software norms to summation order).
    let cfg = FdmaxConfig::paper_default();
    let (kind, n, steps) = POINTS[0];
    let sp: StencilProblem<f32> = benchmark_problem(kind, n, steps).unwrap();
    let mut sw_session = Session::new(
        SweepEngine::new(&sp, UpdateMethod::Jacobi),
        StopCondition::fixed_steps(steps),
    );
    sw_session.run().expect("no policy, no failure");
    let (_, sw_history) = sw_session.into_parts();

    let mut sim = DetailedSim::new(cfg, &sp, HwUpdateMethod::Jacobi).unwrap();
    let mut hw_session = Session::new(&mut sim, StopCondition::fixed_steps(steps));
    hw_session.run().expect("no policy, no failure");
    let (_, hw_history) = hw_session.into_parts();

    assert_eq!(sw_history.len(), steps);
    assert_eq!(hw_history.len(), steps);
    for i in 0..steps {
        let sw = sw_history.get(i).unwrap();
        let hw = hw_history.get(i).unwrap();
        assert!(
            (sw - hw).abs() <= 1e-9 * sw.max(1.0),
            "norm {i}: software {sw} vs simulator {hw}"
        );
    }
}

/// The temporally tiled engine joins the matrix with a *tolerance*
/// contract: a `SweepEngine` on a tiled plan run to the same total sweep count as
/// the serial software engine matches its field within 1e-12 relative
/// (f64) / 1e-5 (f32) at every tile depth, band count and benchmark
/// PDE — and its epoch-granular residual history is the serial history
/// sampled at tile-epoch boundaries. (The current schedule is in fact
/// bit-identical — the tiled property suite pins that — but this matrix
/// states the documented contract, which permits intra-epoch
/// regrouping.)
fn tiled_matrix<T: Scalar>(tol: f64) {
    for (kind, n, steps) in POINTS {
        let sp: StencilProblem<T> = benchmark_problem(kind, n, steps).unwrap();
        for method in [UpdateMethod::Jacobi, UpdateMethod::Checkerboard] {
            let mut serial = Session::new(
                SweepEngine::new(&sp, method),
                StopCondition::fixed_steps(steps),
            );
            serial.run().expect("no policy, no failure");
            let (serial_engine, serial_history) = serial.into_parts();
            let serial_solution = serial_engine.into_solution();
            for k in [2usize, 4] {
                for threads in [1usize, 4] {
                    let plan = SweepPlan {
                        threads,
                        tile_depth: k,
                    };
                    // The session caps the final epoch at the step count.
                    let engine = SweepEngine::with_plan(&sp, method, plan);
                    let mut tiled = Session::new(engine, StopCondition::fixed_steps(steps));
                    tiled.run().expect("no policy, no failure");
                    let (engine, history) = tiled.into_parts();
                    let what = format!("{kind} {method:?} k={k} threads={threads}");
                    assert_eq!(engine.iterations(), steps, "{what}: lands on the cap");
                    // Field: tolerance-equivalent to the serial engine.
                    let (a, b) = (engine.solution(), &serial_solution);
                    for i in 0..a.rows() {
                        for j in 0..a.cols() {
                            let (x, y) = (a[(i, j)].to_f64(), b[(i, j)].to_f64());
                            let e = (x - y).abs() / x.abs().max(y.abs()).max(1.0);
                            assert!(e <= tol, "{what}: ({i},{j}): {x} vs {y} (rel {e:.3e})");
                        }
                    }
                    // History: one entry per epoch, each the serial norm
                    // at that epoch's closing sweep.
                    assert_eq!(
                        history.len(),
                        steps.div_ceil(k),
                        "{what}: epoch granularity"
                    );
                    for e in 0..history.len() {
                        let closing = ((e + 1) * k).min(steps);
                        let want = serial_history.get(closing - 1).unwrap();
                        let got = history.get(e).unwrap();
                        let err = (want - got).abs() / want.abs().max(1.0);
                        assert!(
                            err <= tol,
                            "{what}: epoch {e} norm {got} vs serial sweep {closing}'s {want}"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn tiled_matrix_fused_epochs_match_serial_software_f64() {
    tiled_matrix::<f64>(1e-12);
}

#[test]
fn tiled_matrix_fused_epochs_match_serial_software_f32() {
    tiled_matrix::<f32>(1e-5);
}
