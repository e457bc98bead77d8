//! Soundness of the static solve-plan analyzer (`fdmax::analysis`)
//! against measured runs — the §14 contract of DESIGN.md.
//!
//! Three claims, each over ≥100 DetRng-sampled configurations:
//!
//! 1. **Bounds bracket reality** — for tolerance jobs, the sweep-rung
//!    iteration interval `[lb, ub]` from [`sweep_iteration_bounds`]
//!    contains the measured iteration count of the software sweep.
//! 2. **Admission verdicts hold** — a plan the analyzer proves feasible
//!    (no FDX015 finding) converges inside its budget; a plan it rejects
//!    as infeasible (FDX015 at Error) provably does not.
//! 3. **Race-freedom certification is sound** — every band plan
//!    [`BandPlan::from_sweep_plan`] derives certifies clean, and the
//!    sweep engine on that plan (banded, or tiled at k = 2 and 4)
//!    reproduces the serial engine's residual history bitwise and its
//!    field exactly.

use detrng::DetRng;
use fdm::convergence::StopCondition;
use fdm::engine::{SolveEngine, SweepEngine, SweepPlan};
use fdm::pde::PdeKind;
use fdm::solver::solve;
use fdm::workload::benchmark_problem;
use fdmax::accelerator::HwUpdateMethod;
use fdmax::analysis::{
    analyze_plan, certify_band_plan, sweep_iteration_bounds, BandPlan, PrecisionClass, SolvePlan,
};
use fdmax::config::FdmaxConfig;
use fdmax::lint::{DiagCode, ServiceSpec, Severity};

fn random_tolerance_plan(rng: &mut DetRng) -> SolvePlan {
    let n = rng.gen_range(8, 21);
    SolvePlan {
        rows: n,
        cols: n,
        method: if rng.gen_bool(0.5) {
            HwUpdateMethod::Jacobi
        } else {
            HwUpdateMethod::Hybrid
        },
        // Tolerances the f64 software sweep can honestly reach.
        tolerance: Some(10f64.powi(-(rng.gen_range(2, 7) as i32))),
        requested_iterations: 1_000_000,
        precision: PrecisionClass::F64,
        steady_state: true,
        scale: 1.0, // sine_top(1.0): the initial field's max magnitude
        parallel_threads: 4,
        tile_depth: 1,
    }
}

fn spec_with_deadline(deadline: u64) -> ServiceSpec {
    ServiceSpec {
        queue_capacity: 1,
        max_job_iterations: 1_000_000,
        deadline_iterations: deadline,
        checkpoint_every: None,
        journal_dir: None,
    }
}

/// Claims 1 and 2 (feasible side): the bounds bracket the measured
/// iteration count, and an analyzer-proven budget is really enough.
#[test]
fn bounds_bracket_measured_iterations_and_proofs_hold() {
    let mut rng = DetRng::seed_from_u64(0xFD50);
    let mut checked = 0usize;
    while checked < 100 {
        let plan = random_tolerance_plan(&mut rng);
        let tol = plan.tolerance.unwrap();
        let (lb, ub) = sweep_iteration_bounds(&plan).expect("a scaled tolerance plan has bounds");
        assert!(lb <= ub, "bounds are ordered: {lb} > {ub}");

        // The analyzer proves feasibility at a budget of `ub`: no
        // FDX015 finding of any severity.
        let spec = spec_with_deadline(ub.max(1));
        let report = analyze_plan(&plan, &FdmaxConfig::paper_default(), Some(&spec));
        assert!(
            !report.lint().has(DiagCode::ConvergenceBudgetInfeasible),
            "a budget of ub={ub} is proven feasible\n{}",
            report.lint()
        );

        // Measure: the software sweep the service would run, capped just
        // above the upper bound so an unsound bound fails loudly instead
        // of spinning.
        let sp = benchmark_problem::<f64>(PdeKind::Laplace, plan.rows, 0).unwrap();
        let result = solve(
            &sp,
            plan.method.software_equivalent(),
            &StopCondition::tolerance(tol, ub as usize + 10),
        );
        assert!(
            result.converged(),
            "proven-feasible job missed its budget: {}x{} {:?} tol {tol:.1e} \
             ran {} iterations against ub {ub}",
            plan.rows,
            plan.cols,
            plan.method,
            result.iterations(),
        );
        let k = result.iterations() as u64;
        assert!(
            lb <= k && k <= ub,
            "measured {k} iterations outside [{lb}, {ub}] for {}x{} {:?} tol {tol:.1e}",
            plan.rows,
            plan.cols,
            plan.method,
        );
        checked += 1;
    }
}

/// Claim 2 (infeasible side): when the analyzer emits FDX015 at Error —
/// no rung, Krylov included, fits the budget — the sweep really does
/// fail to reach the tolerance inside that budget.
#[test]
fn infeasible_verdicts_match_measured_misses() {
    let mut rng = DetRng::seed_from_u64(0xFD51);
    let mut checked = 0usize;
    while checked < 100 {
        let plan = random_tolerance_plan(&mut rng);
        let tol = plan.tolerance.unwrap();
        // A budget below the Krylov iteration floor (interior/4) closes
        // the escape hatch; skip draws where even that tiny budget is
        // honest (loose tolerances converge absurdly fast).
        let kry_floor = ((plan.rows - 2).min(plan.cols - 2) / 4).max(1) as u64;
        if kry_floor <= 1 {
            continue;
        }
        let budget = rng.gen_range(1, kry_floor as usize) as u64;
        let spec = spec_with_deadline(budget);
        let report = analyze_plan(&plan, &FdmaxConfig::paper_default(), Some(&spec));
        let Some(diag) = report
            .lint()
            .diagnostics()
            .iter()
            .find(|d| d.code == DiagCode::ConvergenceBudgetInfeasible)
            .filter(|d| d.severity() == Severity::Error)
        else {
            // The analyzer did not reject outright (e.g. the tolerance
            // is loose enough to fit): not this claim's subject.
            continue;
        };
        assert_eq!(diag.field, "deadline_iterations");

        let sp = benchmark_problem::<f64>(PdeKind::Laplace, plan.rows, 0).unwrap();
        let result = solve(
            &sp,
            plan.method.software_equivalent(),
            &StopCondition::tolerance(tol, budget as usize),
        );
        assert!(
            !result.converged(),
            "analyzer rejected {}x{} {:?} tol {tol:.1e} at budget {budget}, \
             but the sweep converged in {} iterations: the rejection is unsound",
            plan.rows,
            plan.cols,
            plan.method,
            result.iterations(),
        );
        checked += 1;
    }
}

/// Claim 3: every derived band plan certifies clean, and the engine it
/// describes is bit-identical to the serial engine — residual history
/// and field — at every sampled thread count and tile depth. A tiled
/// step is one epoch, compared against `k` serial sweeps.
#[test]
fn certified_band_plans_have_no_cross_thread_residual_mismatch() {
    use fdm::solver::UpdateMethod::Jacobi;

    let mut rng = DetRng::seed_from_u64(0xFD52);
    for _ in 0..100 {
        let n = rng.gen_range(4, 33);
        let threads = rng.gen_range(1, 12);
        let sp = benchmark_problem::<f32>(PdeKind::Laplace, n, 0).unwrap();
        for tile_depth in [1, 2, 4] {
            let sweep_plan = SweepPlan {
                threads,
                tile_depth,
            };
            let plan = BandPlan::from_sweep_plan(n, n, sweep_plan, Jacobi);
            let report = certify_band_plan(&plan);
            assert!(
                report.is_clean(),
                "derived plan for {n}x{n} on {sweep_plan:?} flagged:\n{report}"
            );
            if tile_depth == 1 {
                assert_eq!(plan, BandPlan::from_threads(n, n, threads));
            }

            let mut par = SweepEngine::with_plan(&sp, Jacobi, sweep_plan);
            assert_eq!(
                plan.bands,
                par.bands(),
                "the certifier certified the engine's real geometry"
            );
            let mut ser = SweepEngine::new(&sp, Jacobi);
            for step in 0..4 {
                let a = par.step().norm;
                let mut b = None;
                for _ in 0..tile_depth {
                    b = ser.step().norm;
                }
                assert_eq!(
                    a.map(f64::to_bits),
                    b.map(f64::to_bits),
                    "residual mismatch at step {step} for {n}x{n} on {sweep_plan:?}"
                );
            }
            assert_eq!(par.solution(), ser.solution(), "fields diverged");
        }
    }
}
