//! Solver-throughput benchmark for the software kernel layer.
//!
//! Measures sustained MLUP/s (million interior-point **l**attice
//! **up**dates per second) of the f32 Jacobi solve at paper-scale grids
//! for the whole ladder of implementations of the same arithmetic:
//!
//! * `scalar_baseline` — the pre-kernel indexed `(i, j)` loop, kept
//!   verbatim in [`fdm::kernels::baseline`];
//! * `kernelized_serial` — a manual double-buffer loop over the
//!   serial-accumulator row kernels of [`fdm::kernels::scalar`] (the
//!   pre-SIMD bodies, kept as the differential oracle);
//! * `simd_serial` — [`SweepEngine`] over the lane-folded flat-row
//!   kernels of [`fdm::kernels`];
//! * `threaded_2` / `threaded_4` — [`SweepEngine`] on the plans
//!   `{2, 1}` / `{4, 1}`, the interior strip-decomposed over scoped
//!   threads (the banded step only has the lane-folded path, so
//!   `threaded_4` doubles as the `simd_threaded` column);
//! * `tiled_k2` / `tiled_k4` / `tiled_k8` — [`SweepEngine`] on the plans
//!   `{tile_threads(), k}` (up to 4 threads), fusing k sweeps per cache pass over a skewed row
//!   wavefront. MLUP/s counts *useful* updates (`interior x k` per
//!   epoch); the halo trapezoid's redundant rows are charged to the
//!   variant, not hidden.
//!
//! A `roofline` block pins the memory-wall story: a streamed-copy probe
//! measures attainable bandwidth, the analytic traffic model prices the
//! untiled sweep at 12 bytes/LUP (f32 read + write-allocate + write)
//! and the k-deep tile at 12/k, and each variant's achieved MLUP/s is
//! reported against its attainable ceiling.
//!
//! A `crossover` block prices the spawn floor
//! ([`fdm::engine::MIN_SPAWN_LUPS_PER_BAND`]): per-sweep time of the
//! plans `SERIAL`, `{2, 1}` and `{2, 4}` for Jacobi and checkerboard on
//! grids of side 16 to 384, as median, p10 and p90 over
//! [`CROSSOVER_REPEATS`] interleaved samples, each cell tagged with
//! whether the plan spawns there. `--validate` gates one ratio taken
//! within that single run: at 16², where the bands run inline, `{2, 1}`
//! takes at most [`MAX_INLINE_OVER_SERIAL`]× the serial sweep.
//!
//! A timing-free *identity* section records residual-norm or
//! field-checksum **bit patterns** per variant, each row tagged with its
//! contract: `bitwise` rows must agree exactly (Jacobi/Checkerboard
//! across thread counts 1/2/4/7, on a grid whose bands run inline and
//! on one whose bands spawn; the final *field* across
//! baseline/scalar-rows/SIMD/threaded paths — lane-folding regroups only
//! the diff² reduction, never the field), `tolerance` rows within 1e-9
//! relative (the tiled engine's documented contract, and the CSR CG
//! oracle whose summation order CG amplifies). All rows are asserted
//! in-process and re-validated by CI (`--validate`), keeping
//! host-dependent timings out of the gate.
//!
//! Usage:
//!
//! ```text
//! solver_throughput [--smoke] [--out PATH]   # measure + write JSON
//! solver_throughput --validate PATH          # schema + identity check
//! ```

use std::time::Instant;

use fdm::convergence::StopCondition;
use fdm::engine::{Session, SolveEngine, SweepEngine, SweepPlan, MIN_SPAWN_LUPS_PER_BAND};
use fdm::grid::Grid2D;
use fdm::kernels::baseline::sweep_jacobi_indexed;
use fdm::kernels::OffsetRow;
use fdm::pde::{PdeKind, StencilProblem};
use fdm::solver::krylov::{conjugate_gradient, matrix_free_cg, KrylovEngine};
use fdm::solver::UpdateMethod;
use fdm::sparse::StencilSystem;
use fdm::workload::benchmark_problem;

/// Paper-scale measurement grids (full mode).
const FULL_SIZES: [usize; 5] = [256, 512, 1024, 2048, 4096];
/// CI smoke grids: the same code paths in a fraction of the time.
const SMOKE_SIZES: [usize; 2] = [64, 128];
/// Thread counts exercised by the identity section.
const ID_THREADS: [usize; 4] = [1, 2, 4, 7];
/// Grid and step count for the identity section (odd size: uneven
/// bands; 24 steps divide evenly into every tile depth).
const ID_GRID: usize = 65;
const ID_STEPS: usize = 24;
/// Identity grid whose bands are above the spawn floor at every thread
/// count in [`ID_THREADS`] above 1 (485 interior columns × at least 69
/// rows per band; uneven at 2, 4 and 7 bands), so the artifact still
/// witnesses the scoped-thread schedule.
const SPAWN_ID_GRID: usize = 487;
/// Grid sides of the crossover block: 384² is the one where the
/// one-sweep `{2, 1}` bands spawn too.
const CROSSOVER_SIDES: [usize; 7] = [16, 32, 64, 128, 192, 256, 384];
/// Timed samples per crossover cell.
const CROSSOVER_REPEATS: usize = 7;
/// Lattice updates each crossover sample times, so a 16² sample is long
/// enough to clock and a 384² one stays short.
const CROSSOVER_SAMPLE_LUPS: usize = 2_000_000;
/// Most the inline `{2, 1}` plan may take over the serial sweep at 16²
/// (`--validate` checks the medians the artifact records).
const MAX_INLINE_OVER_SERIAL: f64 = 1.2;
/// Tile depths measured per grid (threads from [`tile_threads`]).
const TILE_DEPTHS: [usize; 3] = [2, 4, 8];

/// Threads driving the tiled wavefront: the host's real parallelism,
/// capped at 4 so the column stays comparable to `threaded_4`. On a
/// single-core host this degrades to the serial wavefront — pure cache
/// blocking — instead of charging thread-churn to the tiling story.
fn tile_threads() -> usize {
    std::thread::available_parallelism()
        .map_or(1, std::num::NonZeroUsize::get)
        .min(4)
}

/// The strip-parallel plan `{threads, 1}`.
fn banded(threads: usize) -> SweepPlan {
    SweepPlan {
        threads,
        tile_depth: 1,
    }
}

/// The tiled plan `{tile_threads(), k}`.
fn tiled_plan(k: usize) -> SweepPlan {
    SweepPlan {
        threads: tile_threads(),
        tile_depth: k,
    }
}

/// Analytic traffic of one untiled f32 Jacobi update once the grid
/// spills the cache: read `cur` (4 B, the three-row window is streamed
/// once) + write-allocate `next` (4 B) + write back (4 B).
const BYTES_PER_LUP_UNTILED: f64 = 12.0;

/// Sweeps measured per grid: enough for a stable rate on small grids
/// without making 4096^2 take minutes on one core.
fn steps_for(n: usize) -> usize {
    (200_000_000 / (n * n)).clamp(3, 400)
}

fn problem(n: usize) -> StencilProblem<f32> {
    benchmark_problem::<f32>(PdeKind::Laplace, n, 0).expect("benchmark problem")
}

/// MLUP/s over `steps` sweeps of an `n x n` grid taking `secs` seconds.
fn mlups(n: usize, steps: usize, secs: f64) -> f64 {
    let interior = ((n - 2) * (n - 2)) as f64;
    interior * steps as f64 / secs.max(f64::MIN_POSITIVE) / 1e6
}

/// Times the seed scalar loop (manual double-buffer, like the old solver).
fn time_baseline(sp: &StencilProblem<f32>, steps: usize) -> f64 {
    let mut cur = sp.initial.clone();
    let mut next = cur.clone();
    let mut sink = 0.0f64;
    sink += sweep_jacobi_indexed(&sp.stencil, &sp.offset, &cur, None, &mut next); // warm-up
    core::mem::swap(&mut cur, &mut next);
    let t = Instant::now();
    for _ in 0..steps {
        sink += sweep_jacobi_indexed(&sp.stencil, &sp.offset, &cur, None, &mut next);
        core::mem::swap(&mut cur, &mut next);
    }
    let secs = t.elapsed().as_secs_f64();
    assert!(sink.is_finite());
    secs
}

/// One whole-grid Jacobi sweep through the serial-accumulator row
/// kernels of [`fdm::kernels::scalar`] — the pre-SIMD bodies.
fn sweep_scalar_rows(sp: &StencilProblem<f32>, cur: &Grid2D<f32>, next: &mut Grid2D<f32>) -> f64 {
    let (rows, cols) = (cur.rows(), cur.cols());
    let mut diff2 = 0.0f64;
    let src = cur.as_slice();
    let dst = next.as_mut_slice();
    for i in 1..rows.saturating_sub(1) {
        let offset = OffsetRow::for_row(&sp.offset, None, i);
        diff2 += fdm::kernels::scalar::jacobi_row(
            &sp.stencil,
            &src[(i - 1) * cols..i * cols],
            &src[i * cols..(i + 1) * cols],
            &src[(i + 1) * cols..(i + 2) * cols],
            offset,
            &mut dst[i * cols..(i + 1) * cols],
        );
    }
    diff2
}

/// Times the scalar-oracle row kernels (manual double-buffer).
fn time_scalar_rows(sp: &StencilProblem<f32>, steps: usize) -> f64 {
    let mut cur = sp.initial.clone();
    let mut next = cur.clone();
    let mut sink = sweep_scalar_rows(sp, &cur, &mut next); // warm-up
    core::mem::swap(&mut cur, &mut next);
    let t = Instant::now();
    for _ in 0..steps {
        sink += sweep_scalar_rows(sp, &cur, &mut next);
        core::mem::swap(&mut cur, &mut next);
    }
    let secs = t.elapsed().as_secs_f64();
    assert!(sink.is_finite());
    secs
}

/// Times any engine through its `step` path (one warm-up step first).
/// For the tiled engine a step is a whole epoch of `k` sweeps — the
/// caller scales the LUP count accordingly.
fn time_engine<E: SolveEngine>(mut engine: E, steps: usize) -> f64 {
    engine.step();
    let t = Instant::now();
    for _ in 0..steps {
        engine.step();
    }
    t.elapsed().as_secs_f64()
}

struct ThroughputRow {
    grid: usize,
    steps: usize,
    baseline: f64,
    scalar_rows: f64,
    simd: f64,
    threaded_2: f64,
    threaded_4: f64,
    /// MLUP/s per entry of [`TILE_DEPTHS`].
    tiled: [f64; TILE_DEPTHS.len()],
}

fn measure(sizes: &[usize]) -> Vec<ThroughputRow> {
    sizes
        .iter()
        .map(|&n| {
            let sp = problem(n);
            let steps = steps_for(n);
            let baseline = mlups(n, steps, time_baseline(&sp, steps));
            let scalar_rows = mlups(n, steps, time_scalar_rows(&sp, steps));
            let simd = mlups(
                n,
                steps,
                time_engine(SweepEngine::new(&sp, UpdateMethod::Jacobi), steps),
            );
            let threaded_2 = mlups(
                n,
                steps,
                time_engine(
                    SweepEngine::with_plan(&sp, UpdateMethod::Jacobi, banded(2)),
                    steps,
                ),
            );
            let threaded_4 = mlups(
                n,
                steps,
                time_engine(
                    SweepEngine::with_plan(&sp, UpdateMethod::Jacobi, banded(4)),
                    steps,
                ),
            );
            let mut tiled = [0.0; TILE_DEPTHS.len()];
            for (slot, k) in TILE_DEPTHS.into_iter().enumerate() {
                let epochs = (steps / k).max(1);
                tiled[slot] = mlups(
                    n,
                    epochs * k,
                    time_engine(
                        SweepEngine::with_plan(&sp, UpdateMethod::Jacobi, tiled_plan(k)),
                        epochs,
                    ),
                );
            }
            println!(
                "{n:>5}^2 ({steps:>3} sweeps): baseline {baseline:8.1} | rows {scalar_rows:8.1} | \
                 simd {simd:8.1} ({:4.2}x) | 4 threads {threaded_4:8.1} | tiled k4 {:8.1} \
                 ({:4.2}x)  MLUP/s",
                simd / baseline,
                tiled[1],
                tiled[1] / baseline,
            );
            ThroughputRow {
                grid: n,
                steps,
                baseline,
                scalar_rows,
                simd,
                threaded_2,
                threaded_4,
                tiled,
            }
        })
        .collect()
}

/// Attainable-bandwidth probe: streams a grid-sized copy and prices it
/// with the same 12 B/element convention as [`BYTES_PER_LUP_UNTILED`]
/// (read + write-allocate + write), so "attainable MLUP/s" and
/// "achieved MLUP/s" sit on the same roofline.
fn stream_bandwidth_gbps(bytes: usize) -> f64 {
    let len = (bytes / 4).max(1);
    let src = vec![1.0f32; len];
    let mut dst = vec![0.0f32; len];
    dst.copy_from_slice(&src); // warm-up: page the buffers in
    let passes = 8;
    let t = Instant::now();
    for _ in 0..passes {
        dst.copy_from_slice(&src);
        std::hint::black_box(&mut dst);
    }
    let secs = t.elapsed().as_secs_f64();
    passes as f64 * len as f64 * 12.0 / secs.max(f64::MIN_POSITIVE) / 1e9
}

struct RooflineRow {
    variant: String,
    bytes_per_lup: f64,
    attainable_mlups: f64,
    achieved_mlups: f64,
}

struct Roofline {
    grid: usize,
    stream_gbps: f64,
    rows: Vec<RooflineRow>,
}

/// Builds the roofline block from the largest measured grid: the tiled
/// variants divide the per-LUP traffic by k, lifting the bandwidth
/// ceiling in proportion.
fn roofline(rows: &[ThroughputRow]) -> Roofline {
    let top = rows.last().expect("at least one grid measured");
    let bytes = top.grid * top.grid * 4 * 2;
    let stream_gbps = stream_bandwidth_gbps(bytes);
    let attainable = |bytes_per_lup: f64| stream_gbps * 1e9 / bytes_per_lup / 1e6;
    let mut out = vec![
        RooflineRow {
            variant: "simd_serial".into(),
            bytes_per_lup: BYTES_PER_LUP_UNTILED,
            attainable_mlups: attainable(BYTES_PER_LUP_UNTILED),
            achieved_mlups: top.simd,
        },
        RooflineRow {
            variant: "simd_threaded".into(),
            bytes_per_lup: BYTES_PER_LUP_UNTILED,
            attainable_mlups: attainable(BYTES_PER_LUP_UNTILED),
            achieved_mlups: top.threaded_4,
        },
    ];
    for (slot, k) in TILE_DEPTHS.into_iter().enumerate() {
        let bpl = BYTES_PER_LUP_UNTILED / k as f64;
        out.push(RooflineRow {
            variant: format!("tiled_k{k}"),
            bytes_per_lup: bpl,
            attainable_mlups: attainable(bpl),
            achieved_mlups: top.tiled[slot],
        });
    }
    for row in &out {
        println!(
            "roofline {:>14}: {:5.2} B/LUP, attainable {:9.1} MLUP/s, achieved {:9.1} \
             ({:5.1}% of ceiling)",
            row.variant,
            row.bytes_per_lup,
            row.attainable_mlups,
            row.achieved_mlups,
            100.0 * row.achieved_mlups / row.attainable_mlups.max(f64::MIN_POSITIVE),
        );
    }
    Roofline {
        grid: top.grid,
        stream_gbps,
        rows: out,
    }
}

/// One crossover cell: a plan's per-sweep time on one grid and method.
struct CrossoverCell {
    grid: usize,
    method: &'static str,
    plan_name: &'static str,
    plan: SweepPlan,
    spawns: bool,
    /// Nanoseconds per sweep: p10, median, p90.
    ns_per_sweep: [f64; 3],
    /// Median over the serial plan's median on the same grid and method.
    over_serial: f64,
}

/// The crossover block's plans: serial, two bands, and two bands
/// fusing four sweeps per epoch.
const CROSSOVER_PLANS: [(&str, SweepPlan); 3] = [
    ("serial", SweepPlan::SERIAL),
    (
        "threads_2",
        SweepPlan {
            threads: 2,
            tile_depth: 1,
        },
    ),
    (
        "threads_2_k4",
        SweepPlan {
            threads: 2,
            tile_depth: 4,
        },
    ),
];

/// Nearest-rank quantile `q` of ascending `sorted`.
fn quantile(sorted: &[f64], q: f64) -> f64 {
    sorted[((sorted.len() - 1) as f64 * q).round() as usize]
}

/// Measures the crossover block. The plans' samples are interleaved
/// within each repeat, so host drift lands on every plan alike.
fn crossover() -> Vec<CrossoverCell> {
    let mut cells = Vec::new();
    for n in CROSSOVER_SIDES {
        let sp = problem(n);
        // Whole 4-sweep epochs, so every plan runs the same sweep count.
        let sweeps = (CROSSOVER_SAMPLE_LUPS / ((n - 2) * (n - 2))).max(4) / 4 * 4;
        for (method, name) in [
            (UpdateMethod::Jacobi, "jacobi"),
            (UpdateMethod::Checkerboard, "checkerboard"),
        ] {
            let mut engines: Vec<SweepEngine<'_, f32>> = CROSSOVER_PLANS
                .iter()
                .map(|&(_, plan)| SweepEngine::with_plan(&sp, method, plan))
                .collect();
            let mut samples = vec![Vec::with_capacity(CROSSOVER_REPEATS); engines.len()];
            for engine in &mut engines {
                engine.step(); // warm-up
            }
            for _ in 0..CROSSOVER_REPEATS {
                for (engine, out) in engines.iter_mut().zip(&mut samples) {
                    let steps = sweeps / engine.sweeps_per_step();
                    let t = Instant::now();
                    for _ in 0..steps {
                        engine.step();
                    }
                    out.push(t.elapsed().as_secs_f64() * 1e9 / sweeps as f64);
                }
            }
            let mut serial_p50 = 0.0;
            for (&(plan_name, plan), mut ns) in CROSSOVER_PLANS.iter().zip(samples) {
                ns.sort_by(f64::total_cmp);
                let ns_per_sweep = [quantile(&ns, 0.1), quantile(&ns, 0.5), quantile(&ns, 0.9)];
                if plan == SweepPlan::SERIAL {
                    serial_p50 = ns_per_sweep[1];
                }
                cells.push(CrossoverCell {
                    grid: n,
                    method: name,
                    plan_name,
                    plan,
                    spawns: plan.spawns(n, n, method),
                    ns_per_sweep,
                    over_serial: ns_per_sweep[1] / serial_p50,
                });
            }
            let row = &cells[cells.len() - CROSSOVER_PLANS.len()..];
            println!(
                "crossover {n:>3}^2 {name:>12}: ns/sweep p50 serial {:8.1} | {{2,1}} {:8.1} \
                 ({:5.2}x{}) | {{2,4}} {:8.1} ({:5.2}x{})",
                row[0].ns_per_sweep[1],
                row[1].ns_per_sweep[1],
                row[1].over_serial,
                if row[1].spawns { ", spawns" } else { "" },
                row[2].ns_per_sweep[1],
                row[2].over_serial,
                if row[2].spawns { ", spawns" } else { "" },
            );
        }
    }
    cells
}

/// Per-row agreement contract of the identity section.
#[derive(Clone, Copy, PartialEq)]
enum Contract {
    /// Every variant's bits must be exactly equal.
    Bitwise,
    /// Entries are f64 bit patterns agreeing within 1e-9 relative.
    Tolerance,
}

impl Contract {
    fn name(self) -> &'static str {
        match self {
            Contract::Bitwise => "bitwise",
            Contract::Tolerance => "tolerance",
        }
    }
}

struct IdentityRow {
    method: String,
    grid: usize,
    contract: Contract,
    /// What produced each entry (thread count or solver path).
    variants: Vec<String>,
    /// Final residual-norm (or field-checksum) bits, one per variant.
    residual_bits: Vec<u64>,
    iterations: Vec<usize>,
}

/// Order-sensitive FNV-1a over the field's f32 bit patterns in row-major
/// order: two fields checksum equal iff they are bitwise identical.
fn field_checksum(grid: &Grid2D<f32>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for x in grid.as_slice() {
        h ^= u64::from(x.to_bits());
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Runs the identity matrix on an `n`² grid and asserts bit-identical
/// results in-process (the artifact lets CI re-assert it without
/// re-running the engines). Rows are named after the method plus
/// `suffix`.
fn identity_matrix(n: usize, suffix: &str) -> Vec<IdentityRow> {
    let sp = problem(n);
    [
        (UpdateMethod::Jacobi, "jacobi"),
        (UpdateMethod::Checkerboard, "checkerboard"),
    ]
    .into_iter()
    .map(|(method, name)| {
        let name = format!("{name}{suffix}");
        let mut residual_bits = Vec::new();
        let mut iterations = Vec::new();
        for threads in ID_THREADS {
            let mut engine = SweepEngine::with_plan(&sp, method, banded(threads));
            let mut last = 0.0f64;
            for _ in 0..ID_STEPS {
                last = engine.step().norm.expect("sweeps always produce a norm");
            }
            residual_bits.push(last.to_bits());
            iterations.push(engine.iterations());
        }
        assert!(
            residual_bits.iter().all(|&b| b == residual_bits[0]),
            "{name}: residual bits differ across thread counts: {residual_bits:#018x?}"
        );
        assert!(
            iterations.iter().all(|&it| it == ID_STEPS),
            "{name}: iteration counts drifted: {iterations:?}"
        );
        let spawning: Vec<usize> = ID_THREADS
            .into_iter()
            .filter(|&t| banded(t).spawns(n, n, method))
            .collect();
        if n == SPAWN_ID_GRID {
            assert_eq!(
                spawning,
                ID_THREADS[1..],
                "{name}: every multi-band plan spawns"
            );
        }
        println!(
            "identity {name:>20}: residual bits {:#018x} at every thread count {ID_THREADS:?} \
             ({n}^2, bands spawn at {spawning:?})",
            residual_bits[0]
        );
        IdentityRow {
            method: name,
            grid: n,
            contract: Contract::Bitwise,
            variants: ID_THREADS.iter().map(|t| format!("threads_{t}")).collect(),
            residual_bits,
            iterations,
        }
    })
    .collect()
}

/// The SIMD field identity: after [`ID_STEPS`] Jacobi sweeps the final
/// *field* is bitwise identical across the baseline indexed loop, the
/// scalar-oracle row kernels, the lane-folded serial engine and the
/// strip-parallel engine — lane-folding regroups only the diff²
/// reduction, never the per-element stencil arithmetic. Recorded as an
/// order-sensitive FNV-1a checksum of the field bits.
fn simd_field_identity() -> IdentityRow {
    let sp = problem(ID_GRID);

    let mut cur = sp.initial.clone();
    let mut next = cur.clone();
    for _ in 0..ID_STEPS {
        let _ = sweep_jacobi_indexed(&sp.stencil, &sp.offset, &cur, None, &mut next);
        core::mem::swap(&mut cur, &mut next);
    }
    let baseline_sum = field_checksum(&cur);

    let mut cur = sp.initial.clone();
    let mut next = cur.clone();
    for _ in 0..ID_STEPS {
        let _ = sweep_scalar_rows(&sp, &cur, &mut next);
        core::mem::swap(&mut cur, &mut next);
    }
    let scalar_sum = field_checksum(&cur);

    let mut serial = SweepEngine::new(&sp, UpdateMethod::Jacobi);
    let mut threaded = SweepEngine::with_plan(&sp, UpdateMethod::Jacobi, banded(4));
    for _ in 0..ID_STEPS {
        serial.step();
        threaded.step();
    }

    let residual_bits = vec![
        baseline_sum,
        scalar_sum,
        field_checksum(serial.solution()),
        field_checksum(threaded.solution()),
    ];
    let iterations = vec![
        ID_STEPS,
        ID_STEPS,
        serial.iterations(),
        threaded.iterations(),
    ];
    assert!(
        residual_bits.iter().all(|&b| b == residual_bits[0]),
        "simd_field: field checksums differ across kernel paths: {residual_bits:#018x?}"
    );
    println!(
        "identity   simd_field: field checksum {:#018x} across baseline/scalar/simd/threaded",
        residual_bits[0]
    );
    IdentityRow {
        method: "simd_field".into(),
        grid: ID_GRID,
        contract: Contract::Bitwise,
        variants: [
            "baseline_indexed",
            "scalar_rows",
            "simd_serial",
            "simd_threads_4",
        ]
        .iter()
        .map(ToString::to_string)
        .collect(),
        residual_bits,
        iterations,
    }
}

/// The tiled tolerance identity: [`ID_STEPS`] sweeps through the serial
/// engine versus whole tiled epochs at every [`TILE_DEPTHS`] entry land
/// on the same final residual norm within the engine's documented 1e-12
/// relative contract (asserted here; the artifact carries the bits under
/// the looser 1e-9 `tolerance` tag CI re-checks).
fn tiled_identity() -> IdentityRow {
    let sp = problem(ID_GRID);
    let mut serial = SweepEngine::new(&sp, UpdateMethod::Jacobi);
    let mut last = 0.0f64;
    for _ in 0..ID_STEPS {
        last = serial.step().norm.expect("sweeps always produce a norm");
    }
    let mut variants = vec!["serial".to_string()];
    let mut residual_bits = vec![last.to_bits()];
    let mut iterations = vec![serial.iterations()];
    for k in TILE_DEPTHS {
        let mut tiled = SweepEngine::with_plan(&sp, UpdateMethod::Jacobi, tiled_plan(k));
        let mut norm = 0.0f64;
        for _ in 0..ID_STEPS / k {
            norm = tiled.step().norm.expect("epochs always produce a norm");
        }
        let rel = (norm - last).abs() / last.abs().max(f64::MIN_POSITIVE);
        assert!(
            rel <= 1e-12,
            "tiled_jacobi k={k}: norm {norm} vs serial {last} (rel {rel:.3e})"
        );
        variants.push(format!("tiled_k{k}_threads_{}", tile_threads()));
        residual_bits.push(norm.to_bits());
        iterations.push(tiled.iterations());
    }
    assert!(
        iterations.iter().all(|&it| it == ID_STEPS),
        "tiled_jacobi: iteration counts drifted: {iterations:?}"
    );
    println!(
        "identity tiled_jacobi: serial norm bits {:#018x}, tiled within 1e-12 at k {TILE_DEPTHS:?}",
        residual_bits[0]
    );
    IdentityRow {
        method: "tiled_jacobi".into(),
        grid: ID_GRID,
        contract: Contract::Tolerance,
        variants,
        residual_bits,
        iterations,
    }
}

/// The matrix-free CG identity: `KrylovEngine`, a re-run of it, the
/// one-shot `matrix_free_cg` function and a `Session`-driven engine all
/// report the same residual-norm bits and iteration count after
/// [`ID_STEPS`] CG iterations. The assembled-CSR oracle evaluates its
/// rows in a different floating-point order (which CG amplifies), so it
/// agrees to 1e-9 relative rather than bitwise; that bound is asserted
/// in-process.
fn matrix_free_cg_identity() -> IdentityRow {
    let sp = problem(ID_GRID);
    let engine_run = || {
        let mut e = KrylovEngine::new(&sp);
        let mut last = 0.0f64;
        for _ in 0..ID_STEPS {
            last = e.step().norm.expect("CG always yields a norm");
        }
        (last.to_bits(), e.iterations())
    };
    let (bits_a, it_a) = engine_run();
    let (bits_b, it_b) = engine_run();
    let (_, free) = matrix_free_cg(&sp, 0.0, ID_STEPS);

    let mut session = Session::new(KrylovEngine::new(&sp), StopCondition::fixed_steps(ID_STEPS));
    session.run().expect("no policy, no failure");
    let (engine, history) = session.into_parts();
    let session_bits = history.get(ID_STEPS - 1).expect("ran > 0 iters").to_bits();
    let session_iters = engine.iterations();

    let residual_bits = vec![
        bits_a,
        bits_b,
        free.residual_history
            .last()
            .expect("ran > 0 iters")
            .to_bits(),
        session_bits,
    ];
    let iterations = vec![it_a, it_b, free.iterations, session_iters];
    assert!(
        residual_bits.iter().all(|&b| b == residual_bits[0]),
        "matrix_free_cg: residual bits differ across paths: {residual_bits:#018x?}"
    );
    assert!(
        iterations.iter().all(|&it| it == ID_STEPS),
        "matrix_free_cg: iteration counts drifted: {iterations:?}"
    );

    // The CSR oracle: the same trajectory up to summation order, whose
    // last-bit differences CG amplifies over the iterations.
    let sys = StencilSystem::assemble(&sp).expect("steady Laplace assembles");
    let oracle = conjugate_gradient(&sys.matrix, &sys.rhs, 0.0, ID_STEPS);
    let free_norm = f64::from_bits(residual_bits[0]);
    let oracle_norm = *oracle.residual_history.last().expect("ran > 0 iters");
    assert!(
        (free_norm - oracle_norm).abs() <= 1e-9 * oracle_norm.max(f64::MIN_POSITIVE),
        "matrix_free_cg: drifted from the CSR oracle: {free_norm} vs {oracle_norm}"
    );

    println!(
        "identity matrix_free_cg: residual bits {:#018x} across engine/re-run/function/session \
         (CSR oracle within 1e-9: {oracle_norm})",
        residual_bits[0]
    );
    IdentityRow {
        method: "matrix_free_cg".into(),
        grid: ID_GRID,
        contract: Contract::Bitwise,
        variants: [
            "krylov_engine",
            "krylov_engine_rerun",
            "matrix_free_fn",
            "session_driver",
        ]
        .iter()
        .map(ToString::to_string)
        .collect(),
        residual_bits,
        iterations,
    }
}

fn render_json(
    mode: &str,
    rows: &[ThroughputRow],
    roof: &Roofline,
    cross: &[CrossoverCell],
    identity: &[IdentityRow],
) -> String {
    let throughput = rows
        .iter()
        .map(|r| {
            format!(
                "    {{\n      \"grid\": {},\n      \"sweeps\": {},\n      \
                 \"scalar_baseline_mlups\": {:.3},\n      \
                 \"kernelized_serial_mlups\": {:.3},\n      \
                 \"simd_serial_mlups\": {:.3},\n      \
                 \"threaded_2_mlups\": {:.3},\n      \
                 \"threaded_4_mlups\": {:.3},\n      \
                 \"simd_threaded_mlups\": {:.3},\n      \
                 \"tiled_k2_mlups\": {:.3},\n      \
                 \"tiled_k4_mlups\": {:.3},\n      \
                 \"tiled_k8_mlups\": {:.3},\n      \
                 \"speedup_kernelized\": {:.3},\n      \
                 \"speedup_simd\": {:.3},\n      \
                 \"speedup_threaded_4\": {:.3},\n      \
                 \"speedup_tiled_k4\": {:.3}\n    }}",
                r.grid,
                r.steps,
                r.baseline,
                r.scalar_rows,
                r.simd,
                r.threaded_2,
                r.threaded_4,
                r.threaded_4,
                r.tiled[0],
                r.tiled[1],
                r.tiled[2],
                r.scalar_rows / r.baseline,
                r.simd / r.baseline,
                r.threaded_4 / r.baseline,
                r.tiled[1] / r.baseline,
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");
    let roof_rows = roof
        .rows
        .iter()
        .map(|r| {
            format!(
                "      {{\n        \"variant\": \"{}\",\n        \
                 \"bytes_per_lup\": {:.3},\n        \
                 \"attainable_mlups\": {:.3},\n        \
                 \"achieved_mlups\": {:.3},\n        \
                 \"ceiling_fraction\": {:.4}\n      }}",
                r.variant,
                r.bytes_per_lup,
                r.attainable_mlups,
                r.achieved_mlups,
                r.achieved_mlups / r.attainable_mlups.max(f64::MIN_POSITIVE),
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");
    let roofline = format!(
        "  \"roofline\": {{\n    \"grid\": {},\n    \
         \"stream_bandwidth_gbps\": {:.3},\n    \"rows\": [\n{roof_rows}\n    ]\n  }}",
        roof.grid, roof.stream_gbps,
    );
    // One cell per line, so `--validate` can read a cell by its line.
    let cross_rows = cross
        .iter()
        .map(|c| {
            format!(
                "      {{\"grid\": {}, \"method\": \"{}\", \"plan\": \"{}\", \"threads\": {}, \
                 \"tile_depth\": {}, \"spawns\": {}, \"ns_per_sweep_p10\": {:.1}, \
                 \"ns_per_sweep_p50\": {:.1}, \"ns_per_sweep_p90\": {:.1}, \
                 \"over_serial_p50\": {:.3}}}",
                c.grid,
                c.method,
                c.plan_name,
                c.plan.threads,
                c.plan.tile_depth,
                c.spawns,
                c.ns_per_sweep[0],
                c.ns_per_sweep[1],
                c.ns_per_sweep[2],
                c.over_serial,
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");
    let crossover = format!(
        "  \"crossover\": {{\n    \"repeats\": {CROSSOVER_REPEATS},\n    \
         \"min_spawn_lups_per_band\": {MIN_SPAWN_LUPS_PER_BAND},\n    \
         \"rows\": [\n{cross_rows}\n    ]\n  }}"
    );
    let identity = identity
        .iter()
        .map(|row| {
            let bits = row
                .residual_bits
                .iter()
                .map(|b| format!("\"{b:#018x}\""))
                .collect::<Vec<_>>()
                .join(", ");
            let iters = row
                .iterations
                .iter()
                .map(usize::to_string)
                .collect::<Vec<_>>()
                .join(", ");
            let variants = row
                .variants
                .iter()
                .map(|v| format!("\"{v}\""))
                .collect::<Vec<_>>()
                .join(", ");
            format!(
                "    {{\n      \"method\": \"{}\",\n      \"contract\": \"{}\",\n      \
                 \"grid\": {},\n      \
                 \"steps\": {ID_STEPS},\n      \"variants\": [{variants}],\n      \
                 \"residual_bits\": [{bits}],\n      \"iterations\": [{iters}]\n    }}",
                row.method,
                row.contract.name(),
                row.grid,
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");
    format!(
        "{{\n  \"benchmark\": \"solver_throughput\",\n  \"mode\": \"{mode}\",\n  \
         \"element_type\": \"f32\",\n  \"throughput\": [\n{throughput}\n  ],\n\
         {roofline},\n{crossover},\n  \
         \"identity\": [\n{identity}\n  ]\n}}\n"
    )
}

/// Extracts every `"key": [ ... ]` array's comma-separated items.
fn json_arrays<'a>(text: &'a str, key: &str) -> Vec<Vec<&'a str>> {
    let needle = format!("\"{key}\": [");
    let mut out = Vec::new();
    let mut rest = text;
    while let Some(pos) = rest.find(&needle) {
        rest = &rest[pos + needle.len()..];
        let end = rest.find(']').expect("unterminated array");
        out.push(
            rest[..end]
                .split(',')
                .map(str::trim)
                .filter(|s| !s.is_empty())
                .collect(),
        );
        rest = &rest[end..];
    }
    out
}

/// Extracts every `"key": "value"` string in order of appearance.
fn json_strings<'a>(text: &'a str, key: &str) -> Vec<&'a str> {
    let needle = format!("\"{key}\": \"");
    let mut out = Vec::new();
    let mut rest = text;
    while let Some(pos) = rest.find(&needle) {
        rest = &rest[pos + needle.len()..];
        let end = rest.find('"').expect("unterminated string");
        out.push(&rest[..end]);
        rest = &rest[end..];
    }
    out
}

/// The number after `"key": ` on `line`.
fn json_number(line: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\": ");
    let rest = &line[line.find(&needle)? + needle.len()..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    rest[..end].trim().parse().ok()
}

/// Checks the crossover block's one gated ratio: at 16² the inline
/// `{2, 1}` plan's median sweep takes at most [`MAX_INLINE_OVER_SERIAL`]×
/// the serial one, for both methods. Both medians come from the same
/// run, so the ratio does not depend on how fast the host is.
fn validate_crossover(path: &str, text: &str) -> Result<(), String> {
    for method in ["jacobi", "checkerboard"] {
        let cell = text
            .lines()
            .find(|l| {
                l.contains("\"grid\": 16,")
                    && l.contains(&format!("\"method\": \"{method}\""))
                    && l.contains("\"plan\": \"threads_2\"")
            })
            .ok_or_else(|| format!("{path}: no 16^2 {method} threads_2 crossover cell"))?;
        let ratio = json_number(cell, "over_serial_p50")
            .ok_or_else(|| format!("{path}: 16^2 {method} cell has no over_serial_p50"))?;
        if ratio.is_nan() || ratio > MAX_INLINE_OVER_SERIAL {
            return Err(format!(
                "{path}: at 16^2 the {{2,1}} {method} sweep takes {ratio:.3}x the serial one \
                 (max {MAX_INLINE_OVER_SERIAL})"
            ));
        }
    }
    Ok(())
}

/// Validates a previously written artifact: required schema keys
/// present, every identity row honouring its tagged contract —
/// `bitwise` rows exactly variant-invariant, `tolerance` rows (tiled
/// epochs, the CSR oracle) within 1e-9 relative across their f64 norm
/// bits — and the crossover block's within-run ratio. Absolute timings
/// are deliberately **not** checked — they are host properties.
fn validate(path: &str) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    for key in [
        "\"benchmark\": \"solver_throughput\"",
        "\"throughput\":",
        "\"roofline\":",
        "\"crossover\":",
        "\"ns_per_sweep_p50\":",
        "\"identity\":",
        "\"scalar_baseline_mlups\":",
        "\"kernelized_serial_mlups\":",
        "\"simd_serial_mlups\":",
        "\"simd_threaded_mlups\":",
        "\"tiled_k2_mlups\":",
        "\"tiled_k4_mlups\":",
        "\"tiled_k8_mlups\":",
        "\"stream_bandwidth_gbps\":",
        "\"bytes_per_lup\":",
        "\"method\": \"simd_field\"",
        "\"method\": \"tiled_jacobi\"",
        "\"method\": \"matrix_free_cg\"",
        "\"method\": \"jacobi_spawned\"",
    ] {
        if !text.contains(key) {
            return Err(format!("{path}: missing {key}"));
        }
    }
    let residuals = json_arrays(&text, "residual_bits");
    let iterations = json_arrays(&text, "iterations");
    let contracts = json_strings(&text, "contract");
    if residuals.len() < 5
        || iterations.len() != residuals.len()
        || contracts.len() != residuals.len()
    {
        return Err(format!(
            "{path}: expected one residual_bits + iterations + contract per method, \
             got {}, {} and {}",
            residuals.len(),
            iterations.len(),
            contracts.len()
        ));
    }
    for (row, (bits, contract)) in residuals.iter().zip(&contracts).enumerate() {
        if bits.len() < 2 {
            return Err(format!(
                "{path}: identity row {row} has {} residual entries, wanted >= 2",
                bits.len()
            ));
        }
        match *contract {
            "bitwise" => {
                if bits.iter().any(|&b| b != bits[0]) {
                    return Err(format!(
                        "{path}: bitwise identity row {row} is not variant-invariant: {bits:?}"
                    ));
                }
            }
            "tolerance" => {
                let norms: Vec<f64> = bits
                    .iter()
                    .map(|b| {
                        let hex = b.trim_matches('"').trim_start_matches("0x");
                        u64::from_str_radix(hex, 16)
                            .map(f64::from_bits)
                            .map_err(|e| format!("{path}: row {row}: bad bit pattern {b}: {e}"))
                    })
                    .collect::<Result<_, _>>()?;
                for (v, &n) in norms.iter().enumerate() {
                    let rel = (n - norms[0]).abs() / norms[0].abs().max(f64::MIN_POSITIVE);
                    if rel > 1e-9 {
                        return Err(format!(
                            "{path}: tolerance identity row {row} variant {v} drifted: \
                             {n} vs {} (rel {rel:.3e})",
                            norms[0]
                        ));
                    }
                }
            }
            other => {
                return Err(format!(
                    "{path}: identity row {row} has unknown contract {other:?}"
                ));
            }
        }
    }
    for (row, iters) in iterations.iter().enumerate() {
        if iters.iter().any(|&it| it != iters[0]) {
            return Err(format!(
                "{path}: identity row {row} iteration counts drifted: {iters:?}"
            ));
        }
    }
    validate_crossover(path, &text)?;
    println!(
        "{path}: schema ok, {} identity rows honour their contracts ({} bitwise, {} tolerance)",
        residuals.len(),
        contracts.iter().filter(|c| **c == "bitwise").count(),
        contracts.iter().filter(|c| **c == "tolerance").count(),
    );
    Ok(())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut smoke = false;
    let mut out = String::from("BENCH_solver.json");
    let mut validate_path: Option<String> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--out" => out = it.next().expect("--out needs a path").clone(),
            "--validate" => {
                validate_path = Some(it.next().expect("--validate needs a path").clone());
            }
            other => {
                eprintln!("unknown argument: {other}");
                std::process::exit(2);
            }
        }
    }

    if let Some(path) = validate_path {
        if let Err(e) = validate(&path) {
            eprintln!("validation failed: {e}");
            std::process::exit(1);
        }
        return;
    }

    let wall = Instant::now();
    let (mode, sizes): (&str, &[usize]) = if smoke {
        ("smoke", &SMOKE_SIZES)
    } else {
        ("full", &FULL_SIZES)
    };
    let rows = measure(sizes);
    let roof = roofline(&rows);
    let cross = crossover();
    let mut identity = identity_matrix(ID_GRID, "");
    identity.push(simd_field_identity());
    identity.push(tiled_identity());
    identity.push(matrix_free_cg_identity());
    identity.extend(identity_matrix(SPAWN_ID_GRID, "_spawned"));
    let json = render_json(mode, &rows, &roof, &cross, &identity);
    std::fs::write(&out, &json).expect("write artifact");
    println!(
        "wrote {out} ({mode} mode) in {:.2}s of wall time",
        wall.elapsed().as_secs_f64()
    );
}
