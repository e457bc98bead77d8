//! Temporal wavefront tiling: fuse k sweeps per cache pass.
//!
//! `BENCH_solver.json` proves the sweep path is memory-bound — more
//! threads cannot help, only arithmetic intensity can. A plain sweep
//! streams the whole grid through DRAM once per sweep (~12 bytes per
//! lattice-point update for an f32 Jacobi pass with write-allocate
//! traffic); a [`SweepEngine`] whose [`SweepPlan`] has
//! `tile_depth = k > 1` instead advances the solve `k` sweeps per pass
//! over the grid, so the grid is streamed once per *k* sweeps and the per-sweep DRAM
//! traffic drops by ~`k`×. This module holds that schedule's kernel.
//!
//! # The wavefront
//!
//! A fused epoch of `e` sweeps is decomposed into `S` *sub-levels*
//! (`S = e` Jacobi sweeps, or `S = 2e` checkerboard phases — each phase
//! is a pure 3-row map because a phase only reads the opposite parity,
//! which it never writes). Level `ℓ` consumes level `ℓ-1`'s rows
//! `r-1..=r+1` to produce its row `r`, so the levels advance down the
//! grid as a skew-1 wavefront: at pipeline position `p`, level `ℓ`
//! computes row `p - (ℓ-1)`, levels ascending. Each intermediate level
//! keeps only a 5-row ring buffer of its most recent output rows —
//! everything in flight fits in cache — while level 0 reads the shared
//! `cur` grid and the final level writes the shared `next` grid:
//!
//! ```text
//!   position p:   level 1 computes row p        (from cur)
//!                 level 2 computes row p-1      (from level 1's ring)
//!                 level 3 computes row p-2      (from level 2's ring)
//!                 ...
//!                 level S computes row p-(S-1)  (into next)
//! ```
//!
//! The wave equation's history term threads through the same pipeline:
//! sweep `s` reads the field two sweep-levels back, which is always
//! still resident in the 5-row rings.
//!
//! # Composing with the strip decomposition
//!
//! The interior is split by [`SweepPlan::bands`] (floored at `k` rows,
//! so no band is narrower than the halo it must skew across), and each
//! band runs the full pipeline privately, recomputing a k-deep
//! *trapezoid* of halo rows (level `ℓ` extends `S - ℓ` rows past the
//! band on each side) from the shared `cur` instead of synchronising
//! per sweep. Only owned rows are written to `next` or recorded in the
//! diff² buffer, so bands stay write-disjoint and the result is
//! *independent of the band count* — the redundant halo arithmetic is
//! the price paid for k× less DRAM traffic and zero mid-epoch
//! synchronisation ([`SweepEngine::redundant_halo_rows_per_epoch`]
//! reports it; the FDX022 lint rejects geometries where it dominates).
//!
//! # Residual-history and bit-identity semantics
//!
//! One [`SolveEngine::step`] is one *epoch* of
//! `e = min(k, cap - iterations)` fused sweeps:
//! [`SolveEngine::iterations`] advances by `e`, and the reported norm is
//! the *last* fused sweep's — residual histories are epoch-granular, so
//! tolerance stops are detected at epoch boundaries (the iteration cap
//! truncates the final epoch, so a budget is never overshot). Because
//! every row is produced by the same [`crate::kernels`] row kernels in
//! the same order as the serial sweeps, and per-(sweep, row) diff²
//! partials are folded in exactly the serial order at epoch end, the
//! grids *and* per-epoch norms are bit-identical to the serial
//! schedule's at the same sweep counts — at any band count. The
//! equivalence tests nevertheless state the contract the ROADMAP allows
//! (≤1e-12 relative for f64) so future tile schedules may regroup
//! within an epoch.
//!
//! [`SweepEngine`]: crate::engine::SweepEngine
//! [`SweepPlan`]: crate::engine::SweepPlan
//! [`SweepPlan::bands`]: crate::engine::SweepPlan::bands
//! [`SweepEngine::redundant_halo_rows_per_epoch`]: crate::engine::SweepEngine::redundant_halo_rows_per_epoch
//! [`SolveEngine::step`]: crate::engine::SolveEngine::step
//! [`SolveEngine::iterations`]: crate::engine::SolveEngine::iterations

use crate::engine::{SweepEngine, SweepPlan};
use crate::grid::Grid2D;
use crate::kernels::{checkerboard_row, jacobi_row, OffsetRow};
use crate::pde::{OffsetField, StencilProblem};
use crate::precision::Scalar;
use crate::solver::UpdateMethod;
use core::ops::Range;

/// Ring depth per intermediate level: the stencil needs 3 rows of the
/// level below, and the wave history reaches at most 4 levels back in
/// the checkerboard pipeline (`2s-4` phases), whose newest row then
/// leads the consumer by 4 — so 5 resident rows always cover every read.
pub(crate) const RING: usize = 5;

/// Constructor shim for the tiled plan, kept because the `perfbench`
/// benchmark package compiles against this name. It holds no state:
/// [`TiledSweepEngine::new`] returns a [`SweepEngine`] on the plan
/// `{threads, tile_depth}`. Code in this workspace calls
/// [`SweepEngine::with_plan`].
#[derive(Debug)]
pub struct TiledSweepEngine;

impl TiledSweepEngine {
    /// `SweepEngine::with_plan(problem, method, SweepPlan { threads,
    /// tile_depth })`, for a method the wavefront can tile.
    ///
    /// # Panics
    ///
    /// Panics when `method` is not data-parallel (see
    /// [`SweepPlan::is_data_parallel`]), when `tile_depth` is zero, or
    /// as [`SweepEngine::with_plan`].
    // The name and signature are fixed by the benchmark's API.
    #[allow(clippy::new_ret_no_self)]
    pub fn new<T: Scalar>(
        problem: &StencilProblem<T>,
        method: UpdateMethod,
        tile_depth: usize,
        threads: usize,
    ) -> SweepEngine<'_, T> {
        assert!(
            SweepPlan::is_data_parallel(method),
            "temporal tiling requires a data-parallel sweep (Jacobi or checkerboard), got {method:?}"
        );
        assert!(tile_depth >= 1, "tile depth must be at least 1");
        SweepEngine::with_plan(
            problem,
            method,
            SweepPlan {
                threads,
                tile_depth,
            },
        )
    }
}

/// One band's wavefront pipeline over a full epoch: `s` sub-levels of
/// 5-row rings, positions advancing down the band's trapezoid (owned
/// rows plus the `s - ℓ`-deep halo each level needs), levels ascending
/// within a position. Writes owned rows of the final level into `out`,
/// owned rows of `stage_level` into `stage`, and owned diff² partials
/// into `d` (stride `s`). `rings` is the band's reused ring storage,
/// at least `(s - 1) · RING · cols` elements: level `ℓ < s` owns the
/// `ℓ`-th run of `RING · cols`. Every ring row is written before it is
/// read within the epoch, so what earlier epochs left there is never
/// seen.
#[allow(clippy::too_many_arguments)]
pub(crate) fn band_pipeline<T: Scalar>(
    problem: &StencilProblem<T>,
    method: UpdateMethod,
    s: usize,
    stage_level: usize,
    cur: &Grid2D<T>,
    prev: Option<&Grid2D<T>>,
    band: Range<usize>,
    out: &mut [T],
    mut stage: Option<&mut [T]>,
    d: &mut [f64],
    rings: &mut [T],
) {
    let (rows, cols) = (cur.rows(), cur.cols());
    let (lo, hi) = (band.start, band.end);
    // Level ℓ computes rows [lvl_lo(ℓ), lvl_hi(ℓ)): the owned range
    // widened by the `s - ℓ` rows the levels above still need.
    let lvl_lo = |l: usize| lo.saturating_sub(s - l).max(1);
    let lvl_hi = |l: usize| (hi + (s - l)).min(rows - 1);
    let ring = RING * cols;
    let p_min = lvl_lo(1);
    let p_max = hi - 1 + (s - 1);
    for p in p_min..=p_max {
        for l in 1..=s {
            let Some(r) = (p + 1).checked_sub(l) else {
                break; // deeper levels start even later
            };
            if r < lvl_lo(l) || r >= lvl_hi(l) {
                continue;
            }
            // Split the rings so levels below ℓ are readable while ℓ's
            // own ring (or the shared outputs) is writable.
            let (lower, upper) = rings.split_at_mut((l - 1) * ring);
            let row_at = |m: usize, rr: usize| -> &[T] {
                if rr == 0 || rr == rows - 1 || m == 0 {
                    cur.row(rr)
                } else {
                    &lower[(m - 1) * ring + (rr % RING) * cols..][..cols]
                }
            };
            let up = row_at(l - 1, r - 1);
            let mid = row_at(l - 1, r);
            let down = row_at(l - 1, r + 1);
            // The offset row: static offsets repeat per sweep; the wave
            // history reads the field two *sweep*-levels back, still
            // resident in the rings (or `cur`/`prev` at the pipe inlet).
            let b = match &problem.offset {
                OffsetField::None => OffsetRow::None,
                OffsetField::Static(c) => OffsetRow::Static(c.row(r)),
                OffsetField::ScaledPrevField { scale } => {
                    let hist_level = match method {
                        // Phase ℓ belongs to sweep ceil(ℓ/2), which
                        // reads the field after sweep s-2: phase level
                        // 2·ceil(ℓ/2) - 4.
                        UpdateMethod::Checkerboard => (l.div_ceil(2) * 2).checked_sub(4),
                        // Sweep ℓ reads the field after sweep ℓ-2.
                        _ => l.checked_sub(2),
                    };
                    let hist = match hist_level {
                        None => prev.expect("checked in new").row(r),
                        Some(0) => cur.row(r),
                        Some(m) => row_at(m, r),
                    };
                    OffsetRow::Scaled {
                        scale: *scale,
                        prev: hist,
                    }
                }
            };
            let owned = r >= lo && r < hi;
            // Output row: the final level writes the shared `next`
            // chunk; intermediate levels write their ring slot.
            let diff = if l == s {
                let row = &mut out[(r - lo) * cols..][..cols];
                compute_row(problem, method, l, r, up, mid, down, b, row)
            } else {
                let slot_start = (r % RING) * cols;
                let slot = &mut upper[slot_start..slot_start + cols];
                let diff = compute_row(problem, method, l, r, up, mid, down, b, slot);
                if owned && l == stage_level {
                    let stage = stage.as_mut().expect("stage level implies a stage");
                    stage[(r - lo) * cols..][..cols].copy_from_slice(slot);
                }
                diff
            };
            if owned {
                d[(r - lo) * s + (l - 1)] = diff;
            }
        }
    }
}

/// Computes one sub-level row into `row_out` (full row: boundary columns
/// pass through from the input, interior via the shared row kernels) and
/// returns its diff² partial.
#[allow(clippy::too_many_arguments)]
fn compute_row<T: Scalar>(
    problem: &StencilProblem<T>,
    method: UpdateMethod,
    level: usize,
    r: usize,
    up: &[T],
    mid: &[T],
    down: &[T],
    b: OffsetRow<'_, T>,
    row_out: &mut [T],
) -> f64 {
    let n = mid.len();
    match method {
        UpdateMethod::Checkerboard => {
            // A checkerboard phase is a pure map of the previous phase:
            // copy the row, then update this phase's parity in place.
            // Phase ℓ has parity (ℓ-1) % 2, and the row's first interior
            // column of that parity follows the serial sweep's rule.
            row_out.copy_from_slice(mid);
            let parity = (level - 1) % 2;
            let start = if (r + parity) % 2 == 1 { 1 } else { 2 };
            checkerboard_row(&problem.stencil, up, row_out, down, b, start)
        }
        _ => {
            // Jacobi: boundary columns pass through, interior via the
            // lane-folded row kernel.
            row_out[0] = mid[0];
            row_out[n - 1] = mid[n - 1];
            jacobi_row(&problem.stencil, up, mid, down, b, row_out)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::boundary::DirichletBoundary;
    use crate::engine::SolveEngine;
    use crate::pde::{LaplaceProblem, PdeKind, RunMode, WaveProblem};
    use crate::stencil::FivePointStencil;

    fn plan(threads: usize, tile_depth: usize) -> SweepPlan {
        SweepPlan {
            threads,
            tile_depth,
        }
    }

    fn laplace(rows: usize, cols: usize) -> StencilProblem<f64> {
        LaplaceProblem::builder(rows, cols)
            .boundary(DirichletBoundary::hot_top(1.0))
            .build()
            .unwrap()
            .discretize::<f64>()
    }

    fn wave(n: usize) -> StencilProblem<f64> {
        WaveProblem::builder(n, n)
            .time(0.5, 8)
            .build()
            .unwrap()
            .discretize::<f64>()
    }

    /// A non-square problem built from parts so the test controls the
    /// exact interior shape.
    fn from_parts(rows: usize, cols: usize) -> StencilProblem<f64> {
        StencilProblem {
            kind: PdeKind::Heat,
            stencil: FivePointStencil::new(0.2, 0.2, 0.15),
            offset: OffsetField::None,
            initial: Grid2D::from_fn(rows, cols, |i, j| ((i * 31 + j * 7) % 13) as f64 * 0.1),
            prev_initial: None,
            mode: RunMode::FixedSteps(8),
        }
    }

    fn assert_bits_equal(a: &Grid2D<f64>, b: &Grid2D<f64>, what: &str) {
        for (idx, (x, y)) in a.as_slice().iter().zip(b.as_slice()).enumerate() {
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "{what}: element {idx}: {x} vs {y}"
            );
        }
    }

    /// Serial sweeps `n` times, returning the final grid and last norm.
    fn serial_reference(
        sp: &StencilProblem<f64>,
        method: UpdateMethod,
        sweeps: usize,
    ) -> (Grid2D<f64>, f64) {
        let mut eng = SweepEngine::new(sp, method);
        let mut last = 0.0;
        for _ in 0..sweeps {
            last = eng.step().norm.expect("sweep engines report norms");
        }
        (eng.into_solution(), last)
    }

    #[test]
    fn tiled_epochs_match_serial_sweeps_bitwise() {
        for sp in [laplace(16, 16), from_parts(9, 23), from_parts(3, 12)] {
            for method in [UpdateMethod::Jacobi, UpdateMethod::Checkerboard] {
                for k in [1usize, 2, 3, 4] {
                    for threads in [1usize, 2, 5] {
                        let mut tiled = SweepEngine::with_plan(&sp, method, plan(threads, k));
                        let epochs = 3;
                        let mut last = 0.0;
                        for _ in 0..epochs {
                            last = tiled.step().norm.expect("tiled steps report norms");
                        }
                        assert_eq!(tiled.iterations(), k * epochs);
                        let what = format!(
                            "{method:?} {}x{} k={k} threads={threads}",
                            sp.rows(),
                            sp.cols()
                        );
                        let (want, want_norm) = serial_reference(&sp, method, k * epochs);
                        assert_eq!(last.to_bits(), want_norm.to_bits(), "{what}: norm");
                        assert_bits_equal(tiled.solution(), &want, &what);
                    }
                }
            }
        }
    }

    /// Two 4-row bands of a 4-sweep epoch on a 10-row grid
    /// `MIN_SPAWN_LUPS_PER_BAND / 16 + 2` columns wide sit exactly at the
    /// spawn floor, so this test (and Miri, which runs it) exercises the
    /// wavefront on scoped threads.
    #[test]
    fn tiled_epochs_spawn_at_the_floor() {
        let cols = crate::engine::MIN_SPAWN_LUPS_PER_BAND / 16 + 2;
        let sp = laplace(10, cols);
        for method in [UpdateMethod::Jacobi, UpdateMethod::Checkerboard] {
            assert!(plan(2, 4).spawns(10, cols, method));
            assert!(!plan(2, 4).spawns(10, cols - 1, method));
            let mut tiled = SweepEngine::with_plan(&sp, method, plan(2, 4));
            assert_eq!(tiled.bands(), [1..5, 5..9]);
            let mut last = 0.0;
            for _ in 0..2 {
                last = tiled.step().norm.expect("tiled steps report norms");
            }
            let (want, want_norm) = serial_reference(&sp, method, 8);
            let what = format!("{method:?} at the floor");
            assert_eq!(last.to_bits(), want_norm.to_bits(), "{what}: norm");
            assert_bits_equal(tiled.solution(), &want, &what);
        }
    }

    #[test]
    fn tiled_wave_history_threads_through_the_pipeline() {
        let sp = wave(12);
        for method in [UpdateMethod::Jacobi, UpdateMethod::Checkerboard] {
            for k in [1usize, 2, 4] {
                for threads in [1usize, 3] {
                    let mut tiled = SweepEngine::with_plan(&sp, method, plan(threads, k));
                    for _ in 0..2 {
                        tiled.step();
                    }
                    let (want, _) = serial_reference(&sp, method, 2 * k);
                    let what = format!("wave {method:?} k={k} threads={threads}");
                    assert_bits_equal(tiled.solution(), &want, &what);
                }
            }
        }
    }

    #[test]
    fn iteration_cap_truncates_the_final_epoch() {
        let sp = laplace(12, 12);
        let mut tiled =
            SweepEngine::with_plan(&sp, UpdateMethod::Jacobi, plan(2, 4)).with_iteration_cap(10);
        let counts: Vec<usize> = (0..3)
            .map(|_| {
                tiled.step();
                tiled.iterations()
            })
            .collect();
        // 4 + 4 + 2: the last epoch truncates to land exactly on the cap.
        assert_eq!(counts, vec![4, 8, 10]);
        let (want, _) = serial_reference(&sp, UpdateMethod::Jacobi, 10);
        assert_bits_equal(tiled.solution(), &want, "capped epochs");
    }

    #[test]
    fn checkpoint_rollback_and_state_image_round_trip() {
        let sp = wave(10);
        let mut tiled = SweepEngine::with_plan(&sp, UpdateMethod::Jacobi, plan(2, 2));
        tiled.step();
        tiled.checkpoint();
        let at_ckpt = tiled.solution().clone();
        let image = tiled.export_state().expect("tiled engines export state");
        tiled.step();
        assert!(tiled.rollback());
        assert_eq!(tiled.iterations(), 2);
        assert_bits_equal(tiled.solution(), &at_ckpt, "rollback");

        let mut fresh = SweepEngine::with_plan(&sp, UpdateMethod::Jacobi, plan(2, 2));
        assert!(fresh.restore_state(&image));
        assert_eq!(fresh.iterations(), 2);
        fresh.step();
        tiled.step();
        assert_bits_equal(tiled.solution(), fresh.solution(), "restore + step");
    }

    #[test]
    fn bands_respect_the_tile_halo_and_redundancy_is_reported() {
        // 19 rows / 17 interior: 7 plain bands would be thinner than a
        // k=4 halo; the tiled engine must coarsen the split instead.
        let sp = laplace(19, 8);
        let tiled = SweepEngine::with_plan(&sp, UpdateMethod::Jacobi, plan(7, 4));
        assert!(tiled.bands().iter().all(|b| b.len() >= 4));
        assert!(tiled.bands().len() <= 7);
        // A single band pays no halo recomputation; more bands do.
        let single = SweepEngine::with_plan(&sp, UpdateMethod::Jacobi, plan(1, 4));
        assert_eq!(single.redundant_halo_rows_per_epoch(), 0);
        assert!(tiled.redundant_halo_rows_per_epoch() > 0);
    }

    #[test]
    #[should_panic(expected = "temporal tiling requires a data-parallel sweep")]
    fn ordered_sweeps_are_rejected() {
        let sp = laplace(8, 8);
        let _ = TiledSweepEngine::new(&sp, UpdateMethod::GaussSeidel, 2, 1);
    }
}
