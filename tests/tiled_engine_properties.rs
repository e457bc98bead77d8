//! Property test pinning the temporally tiled plans to the serial
//! sweeps.
//!
//! A [`SweepEngine`] on a plan with `tile_depth = k` fuses `k` whole
//! sweeps per cache pass over a skewed row wavefront. Its documented
//! contract is *tolerance* equivalence to the serial plan (the
//! wavefront may in principle regroup the diff² reduction), tightening
//! to **bit** identity at `k = 1`, plus exact iteration accounting: a
//! step advances the counter by a whole epoch, truncated only by an
//! iteration cap. This suite hammers all three promises with
//! deterministic randomness ([`DetRng`]): every benchmark PDE family,
//! both working precisions, degenerate shapes (3-row interiors,
//! non-square grids), tile depths 1/2/4/8, band counts that divide
//! the interior evenly, unevenly and not at all, and wide, short grids
//! straddling the spawn floor (epochs inline and on scoped threads).
//!
//! A state image carries no plan, so the last suite exports one
//! mid-run and restores it into an engine on a *different* plan: the
//! resumed run must still match an uninterrupted serial one.

use detrng::DetRng;
use fdm::convergence::StopCondition;
use fdm::engine::{
    Budget, EngineError, Session, SolveEngine, SweepEngine, SweepPlan, MIN_SPAWN_LUPS_PER_BAND,
};
use fdm::grid::Grid2D;
use fdm::pde::{OffsetField, PdeKind, RunMode, StencilProblem};
use fdm::precision::Scalar;
use fdm::solver::UpdateMethod;
use fdm::stencil::FivePointStencil;

const DEPTHS: [usize; 4] = [1, 2, 4, 8];
const THREADS: [usize; 3] = [1, 2, 7];
const METHODS: [UpdateMethod; 2] = [UpdateMethod::Jacobi, UpdateMethod::Checkerboard];
const KINDS: [PdeKind; 4] = [
    PdeKind::Laplace,
    PdeKind::Poisson,
    PdeKind::Heat,
    PdeKind::Wave,
];

fn random_grid<T: Scalar>(rng: &mut DetRng, rows: usize, cols: usize) -> Grid2D<T> {
    Grid2D::from_fn(rows, cols, |_, _| T::from_f64(rng.gen_f64(-1.0, 1.0)))
}

/// Builds a random problem of the given family directly from parts, so
/// the test controls the exact shape (the builders clamp small grids).
fn random_problem<T: Scalar>(
    rng: &mut DetRng,
    kind: PdeKind,
    rows: usize,
    cols: usize,
) -> StencilProblem<T> {
    let (stencil, offset, prev_initial) = match kind {
        PdeKind::Laplace => (
            FivePointStencil::new(0.25, 0.25, 0.0),
            OffsetField::None,
            None,
        ),
        PdeKind::Poisson => (
            FivePointStencil::new(0.25, 0.25, 0.0),
            OffsetField::Static(random_grid(rng, rows, cols)),
            None,
        ),
        PdeKind::Heat => (
            FivePointStencil::new(0.2, 0.2, 0.15),
            OffsetField::None,
            None,
        ),
        PdeKind::Wave => (
            FivePointStencil::new(0.4, 0.4, 1.2),
            OffsetField::ScaledPrevField {
                scale: T::from_f64(-1.0),
            },
            Some(random_grid(rng, rows, cols)),
        ),
    };
    StencilProblem {
        kind,
        stencil: FivePointStencil::new(
            T::from_f64(stencil.w_v),
            T::from_f64(stencil.w_h),
            T::from_f64(stencil.w_s),
        ),
        offset,
        initial: random_grid(rng, rows, cols),
        prev_initial,
        mode: RunMode::FixedSteps(8),
    }
}

/// Relative (or, near zero, absolute) f64 distance between two scalars.
fn rel_err(a: f64, b: f64) -> f64 {
    let denom = a.abs().max(b.abs()).max(1.0);
    (a - b).abs() / denom
}

/// Asserts the tiled field matches the serial one within `tol`
/// relative error — and bitwise when `tol` is zero.
fn assert_fields_equivalent<T: Scalar>(
    tiled: &Grid2D<T>,
    serial: &Grid2D<T>,
    tol: f64,
    what: &str,
) {
    assert_eq!(tiled.rows(), serial.rows(), "{what}: row count");
    assert_eq!(tiled.cols(), serial.cols(), "{what}: col count");
    for (idx, (x, y)) in tiled.as_slice().iter().zip(serial.as_slice()).enumerate() {
        let (x, y) = (x.to_f64(), y.to_f64());
        if tol == 0.0 {
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "{what}: element {idx}: {x} vs {y}"
            );
        } else {
            let e = rel_err(x, y);
            assert!(e <= tol, "{what}: element {idx}: {x} vs {y} (rel {e:.3e})");
        }
    }
}

/// Runs the tiled engine for three epochs against a serial engine fed
/// the same sweep count, checking field equivalence, norm equivalence
/// and exact epoch-quantized iteration accounting after every step.
fn check_epochs<T: Scalar>(
    sp: &StencilProblem<T>,
    method: UpdateMethod,
    k: usize,
    threads: usize,
    tol: f64,
) {
    let mut serial = SweepEngine::new(sp, method);
    let plan = SweepPlan {
        threads,
        tile_depth: k,
    };
    let mut tiled = SweepEngine::with_plan(sp, method, plan);
    // k = 1 epochs are plain sweeps: the engine owes bit identity.
    let tol = if k == 1 { 0.0 } else { tol };
    for epoch in 0..3 {
        let t = tiled.step();
        let mut s = serial.step();
        for _ in 1..k {
            s = serial.step();
        }
        let what = format!(
            "{:?} {method:?} {}x{} k={k} threads={threads} epoch={epoch}",
            sp.kind,
            sp.initial.rows(),
            sp.initial.cols()
        );
        assert_eq!(
            tiled.iterations(),
            (epoch + 1) * k,
            "{what}: an uncapped step is exactly one whole epoch"
        );
        assert_eq!(serial.iterations(), tiled.iterations(), "{what}: lockstep");
        match (t.norm, s.norm) {
            (Some(tn), Some(sn)) if tol == 0.0 => {
                assert_eq!(tn.to_bits(), sn.to_bits(), "{what}: norm {tn} vs {sn}");
            }
            (Some(tn), Some(sn)) => {
                let e = rel_err(tn, sn);
                assert!(e <= tol, "{what}: norm {tn} vs {sn} (rel {e:.3e})");
            }
            (t, s) => panic!("{what}: norm presence mismatch: {t:?} vs {s:?}"),
        }
        assert_fields_equivalent(tiled.solution(), serial.solution(), tol, &what);
    }
}

fn run_shape_sweep<T: Scalar>(rng: &mut DetRng, tol: f64) {
    for kind in KINDS {
        // Random interior shapes plus the degenerate strips: a 3-row
        // grid has a single interior row (the halo clamps to it), and a
        // deliberately non-square tall/wide pair.
        let n = rng.gen_range(4, 40);
        let m = rng.gen_range(4, 40);
        let shapes = [(rng.gen_range(3, 40), rng.gen_range(3, 40)), (3, n), (m, 4)];
        for (rows, cols) in shapes {
            let sp: StencilProblem<T> = random_problem(rng, kind, rows, cols);
            for method in METHODS {
                for k in DEPTHS {
                    for threads in THREADS {
                        check_epochs(&sp, method, k, threads, tol);
                    }
                }
            }
        }
    }
}

#[test]
fn tiled_epochs_are_tolerance_equivalent_to_serial_f64() {
    let mut rng = DetRng::seed_from_u64(0xFD_71_1E_01);
    for _ in 0..2 {
        run_shape_sweep::<f64>(&mut rng, 1e-12);
    }
}

#[test]
fn tiled_epochs_are_tolerance_equivalent_to_serial_f32() {
    let mut rng = DetRng::seed_from_u64(0xFD_71_1E_02);
    for _ in 0..2 {
        // f32 carries ~7 significant digits; the contract scales with
        // the working precision.
        run_shape_sweep::<f32>(&mut rng, 1e-5);
    }
}

/// Grid shapes whose `threads` bands of 4 rows each sit one column
/// short of, exactly at, and one column past the spawn floor per
/// epoch of `k` sweeps: the same rows (so the same bands) on both sides
/// of it.
fn floor_shapes(threads: usize, k: usize) -> [(usize, usize, bool); 3] {
    const BAND_ROWS: usize = 4;
    let rows = threads * BAND_ROWS + 2;
    let at = MIN_SPAWN_LUPS_PER_BAND / (BAND_ROWS * k) + 2;
    [
        (rows, at - 1, false),
        (rows, at, true),
        (rows, at + 1, true),
    ]
}

/// Wavefront epochs straddling the spawn floor (k = 2 and 4; the
/// banded suite covers k = 1): wide, short grids whose bands sit just
/// below, at and just above it, so the epochs on scoped threads stay
/// under the same contract as the inline ones. The band plan is
/// identical on both sides; only where the bands run changes.
fn run_floor_shapes<T: Scalar>(rng: &mut DetRng, tol: f64) {
    for threads in [2usize, 7] {
        for k in [2usize, 4] {
            let plan = SweepPlan {
                threads,
                tile_depth: k,
            };
            let shapes = floor_shapes(threads, k);
            for kind in KINDS {
                for (rows, cols, spawns) in shapes {
                    let sp: StencilProblem<T> = random_problem(rng, kind, rows, cols);
                    for method in METHODS {
                        assert_eq!(plan.spawns(rows, cols, method), spawns, "{rows}x{cols}");
                        assert_eq!(
                            SweepEngine::with_plan(&sp, method, plan).bands(),
                            plan.bands(shapes[0].0, method),
                            "{rows}x{cols}: bands do not depend on the floor"
                        );
                        check_epochs(&sp, method, k, threads, tol);
                    }
                }
            }
        }
    }
}

#[test]
fn tiled_epochs_straddling_the_spawn_floor_f64() {
    run_floor_shapes::<f64>(&mut DetRng::seed_from_u64(0xFD_71_1E_06), 1e-12);
}

#[test]
fn tiled_epochs_straddling_the_spawn_floor_f32() {
    run_floor_shapes::<f32>(&mut DetRng::seed_from_u64(0xFD_71_1E_07), 1e-5);
}

/// An iteration cap truncates the final epoch exactly: the counter
/// climbs in whole epochs and lands on the cap, never past it.
#[test]
fn iteration_cap_accounting_is_exact() {
    let mut rng = DetRng::seed_from_u64(0xFD_71_1E_03);
    for _ in 0..20 {
        let rows = rng.gen_range(5, 24);
        let cols = rng.gen_range(5, 24);
        let k = DEPTHS[rng.gen_range(0, DEPTHS.len())];
        let cap = rng.gen_range(1, 20);
        let sp: StencilProblem<f64> = random_problem(&mut rng, PdeKind::Laplace, rows, cols);
        let plan = SweepPlan {
            threads: 2,
            tile_depth: k,
        };
        let mut tiled =
            SweepEngine::with_plan(&sp, UpdateMethod::Jacobi, plan).with_iteration_cap(cap);
        let mut expected = 0usize;
        while expected < cap {
            tiled.step();
            expected = (expected + k).min(cap);
            assert_eq!(
                tiled.iterations(),
                expected,
                "rows={rows} cols={cols} k={k} cap={cap}"
            );
        }
        // The capped field is exactly `cap` serial sweeps.
        let mut serial = SweepEngine::new(&sp, UpdateMethod::Jacobi);
        for _ in 0..cap {
            serial.step();
        }
        assert_fields_equivalent(
            tiled.solution(),
            serial.solution(),
            1e-12,
            &format!("capped rows={rows} cols={cols} k={k} cap={cap}"),
        );
    }
}

/// The plans of the cross-plan restore matrix `{threads, tile_depth}`:
/// serial, banded at an even and an uneven split, and two tiled depths.
const RESTORE_PLANS: [(usize, usize); 5] = [(1, 1), (2, 1), (7, 1), (2, 2), (2, 4)];

/// Runs `sp` for `sweeps` sweeps, stopping a `from`-plan engine at a
/// random sweep count through its budget deadline, exporting its state
/// and finishing on a fresh `to`-plan engine restored from the image.
/// Returns the restored engine's final state image.
fn resumed_across_plans<T: Scalar>(
    rng: &mut DetRng,
    sp: &StencilProblem<T>,
    method: UpdateMethod,
    from: SweepPlan,
    to: SweepPlan,
    sweeps: usize,
    what: &str,
) -> fdm::engine::EngineStateImage {
    let stop = StopCondition::fixed_steps(sweeps);
    let at = rng.gen_range(1, sweeps);
    let mut head = Session::new(SweepEngine::with_plan(sp, method, from), stop)
        .with_budget(Budget::deadline(at));
    assert_eq!(
        head.run(),
        Err(EngineError::DeadlineExceeded { iteration: at }),
        "{what}: the deadline stops the head exactly at sweep {at}"
    );
    assert_eq!(head.sweeps_executed(), at, "{what}: billed in sweeps");
    let image = head.engine().export_state().expect("sweep engines export");
    assert_eq!(image.iterations, at, "{what}: image stamp");

    let mut tail = SweepEngine::with_plan(sp, method, to);
    assert!(tail.restore_state(&image), "{what}: restore across plans");
    let mut rest = Session::new(&mut tail, stop);
    assert!(rest.run().expect("no policy, no failure"), "{what}");
    assert_eq!(
        rest.sweeps_executed(),
        sweeps - at,
        "{what}: only the rest ran"
    );
    drop(rest);
    assert_eq!(tail.iterations(), sweeps, "{what}: lands on the stop");
    tail.export_state().expect("sweep engines export")
}

fn run_cross_plan_restores<T: Scalar>(rng: &mut DetRng, tol: f64) {
    const SWEEPS: usize = 12;
    for kind in KINDS {
        let (rows, cols) = (rng.gen_range(5, 30), rng.gen_range(5, 30));
        let sp: StencilProblem<T> = random_problem(rng, kind, rows, cols);
        for method in METHODS {
            let mut serial = SweepEngine::new(&sp, method);
            for _ in 0..SWEEPS {
                serial.step();
            }
            let want = serial.export_state().expect("sweep engines export");
            for (i, &(threads, k)) in RESTORE_PLANS.iter().enumerate() {
                // Any other plan of the matrix, chosen at random.
                let j = (i + rng.gen_range(1, RESTORE_PLANS.len())) % RESTORE_PLANS.len();
                let (to_threads, to_k) = RESTORE_PLANS[j];
                let from = SweepPlan {
                    threads,
                    tile_depth: k,
                };
                let to = SweepPlan {
                    threads: to_threads,
                    tile_depth: to_k,
                };
                let what = format!("{kind:?} {method:?} {rows}x{cols} {from:?} -> {to:?}");
                let got = resumed_across_plans(rng, &sp, method, from, to, SWEEPS, &what);
                // Bitwise when neither side fuses sweeps, else the
                // tiled tolerance contract.
                let tol = if k == 1 && to_k == 1 { 0.0 } else { tol };
                let field = |img: &fdm::engine::EngineStateImage| img.cur_grid::<T>().unwrap();
                assert_fields_equivalent(&field(&got), &field(&want), tol, &what);
                match (got.prev_grid::<T>(), want.prev_grid::<T>()) {
                    (Some(g), Some(w)) => {
                        assert_fields_equivalent(&g, &w, tol, &format!("{what}: wave history"));
                    }
                    (None, None) => {}
                    _ => panic!("{what}: wave history presence differs"),
                }
            }
        }
    }
}

/// Cross-plan restore: every PDE family (the wave equation's history
/// field included), both precisions, plans {1,1}, {2,1}, {7,1}, {2,2}
/// and {2,4}. Each case stops at a random sweep through its deadline,
/// restores the image into a fresh engine on another plan and runs to
/// the end; the result matches an uninterrupted serial run.
#[test]
fn state_images_resume_across_plans_f64() {
    let mut rng = DetRng::seed_from_u64(0xFD_71_1E_04);
    for _ in 0..2 {
        run_cross_plan_restores::<f64>(&mut rng, 1e-12);
    }
}

#[test]
fn state_images_resume_across_plans_f32() {
    let mut rng = DetRng::seed_from_u64(0xFD_71_1E_05);
    for _ in 0..2 {
        run_cross_plan_restores::<f32>(&mut rng, 1e-5);
    }
}
