//! Static solve-plan analysis: convergence-budget proofs, precision-floor
//! checks and strip-schedule race certification (FDX015–FDX019).
//!
//! The structural lints (FDX001–FDX014) answer "can this configuration
//! run at all?". This module answers the questions that actually sink
//! production jobs after the structure checks out:
//!
//! * **FDX015** — can this job converge inside its iteration budget on
//!   *any* rung of the fallback chain? The five-point Laplacian's
//!   spectral radii ([`fdm::theory`]) give sound per-rung iteration
//!   bounds from the requested tolerance alone, and
//!   [`crate::perf_model`] prices each iteration in cycles, so
//!   infeasibility is provable at admission time instead of discovered
//!   at the deadline.
//! * **FDX016** — is the tolerance even representable at the chosen
//!   precision? Update norms plateau near
//!   `machine_eps * scale * sqrt(interior)` instead of decaying to
//!   zero; a tolerance below that floor only ever ends by stall
//!   watchdog.
//! * **FDX017** — does the durability cadence do anything for jobs the
//!   budget analysis proves will finish before their first checkpoint?
//! * **FDX018** — is the strip-parallel band plan race-free? A dataflow
//!   pass over the band geometry a [`fdm::engine::SweepPlan`] gives the
//!   sweep engine proves band disjointness and fixed-order fold
//!   determinism.
//! * **FDX019** — which rungs of the fallback chain are statically dead
//!   for this job class?
//!
//! Soundness contract (DESIGN.md §14): every lower bound is *sound*
//! (never exceeds the true iteration count of the rung it bounds), and
//! every upper bound is conservative; a job is rejected only when **no**
//! rung can feasibly finish. `tests/analysis_soundness.rs` validates the
//! contract against actual solver runs over DetRng-sampled configs.

use crate::accelerator::HwUpdateMethod;
use crate::config::FdmaxConfig;
use crate::elastic::ElasticConfig;
use crate::lint::{DiagCode, Diagnostic, LintReport, ServiceSpec, Severity};
use crate::perf_model;
use core::ops::Range;
use fdm::engine::SweepPlan;
use fdm::precision::{Scalar, F16};
use fdm::theory;

/// The numeric format a solve plan runs at, for the precision-floor
/// analysis (FDX016).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum PrecisionClass {
    /// IEEE 754 binary16.
    F16,
    /// IEEE 754 binary32 — the hardware datapath format.
    F32,
    /// IEEE 754 binary64 — the Krylov rung format.
    F64,
}

impl PrecisionClass {
    /// The format's machine epsilon, widened to `f64`.
    pub fn machine_epsilon(&self) -> f64 {
        match self {
            PrecisionClass::F16 => F16::MACHINE_EPSILON,
            PrecisionClass::F32 => <f32 as Scalar>::MACHINE_EPSILON,
            PrecisionClass::F64 => <f64 as Scalar>::MACHINE_EPSILON,
        }
    }

    /// Short human-readable name (`"f16"`, `"f32"`, `"f64"`).
    pub fn name(&self) -> &'static str {
        match self {
            PrecisionClass::F16 => "f16",
            PrecisionClass::F32 => "f32",
            PrecisionClass::F64 => "f64",
        }
    }

    /// Parses a precision name (as written in lint config files).
    pub fn parse(s: &str) -> Option<PrecisionClass> {
        match s {
            "f16" => Some(PrecisionClass::F16),
            "f32" => Some(PrecisionClass::F32),
            "f64" => Some(PrecisionClass::F64),
            _ => None,
        }
    }
}

/// One concrete job as the analyzer sees it: grid, method, stop
/// condition, precision and the boundary scale of the data.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SolvePlan {
    /// Grid rows (boundary included).
    pub rows: usize,
    /// Grid columns (boundary included).
    pub cols: usize,
    /// The hardware update method of the primary rungs.
    pub method: HwUpdateMethod,
    /// Convergence threshold on the update norm; `None` for fixed-step
    /// (time-stepping) jobs.
    pub tolerance: Option<f64>,
    /// The job's own iteration cap (or exact step count for fixed-step
    /// jobs).
    pub requested_iterations: usize,
    /// Numeric format of the sweep rungs.
    pub precision: PrecisionClass,
    /// `true` for steady-state equations (Laplace/Poisson), which the
    /// Krylov rung can serve; `false` for time-stepping jobs.
    pub steady_state: bool,
    /// Magnitude of the data: the largest finite `|value|` over the
    /// initial/boundary field. `0.0` (or non-finite) means unknown, and
    /// the scale-dependent checks (FDX015/FDX016) are skipped.
    pub scale: f64,
    /// Worker threads of the strip-parallel rung.
    pub parallel_threads: usize,
    /// Fused sweeps per cache pass on the temporally tiled rung; `<= 1`
    /// means the rung is disabled.
    pub tile_depth: usize,
}

impl SolvePlan {
    /// Interior cells of the grid (zero when the grid has no interior).
    pub fn interior_cells(&self) -> usize {
        self.rows.saturating_sub(2) * self.cols.saturating_sub(2)
    }

    /// `true` when the scale-dependent analyses can run.
    fn has_scale(&self) -> bool {
        self.scale.is_finite() && self.scale > 0.0
    }

    /// `true` when the temporally tiled rung can serve this job: a depth
    /// worth fusing and a data-parallel sweep (the hardware Hybrid's
    /// software equivalent carries a row-order dependency the wavefront
    /// cannot legally reorder).
    pub fn tiled_live(&self) -> bool {
        self.tile_depth > 1 && matches!(self.method, HwUpdateMethod::Jacobi)
    }
}

/// Per-rung feasibility verdict inside an [`AnalysisReport`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RungBudget {
    /// The rung's name as the service reports it.
    pub rung: &'static str,
    /// `false` when the rung is statically dead for this job class.
    pub reachable: bool,
    /// Sound lower bound on iterations to converge (`None` when the
    /// rung never converges by itself, e.g. the analytic estimate, or
    /// when the job is fixed-step).
    pub lower_bound: Option<u64>,
    /// Conservative upper bound on iterations to converge.
    pub upper_bound: Option<u64>,
    /// Modeled cycles per iteration on this rung.
    pub cycles_per_iteration: u64,
    /// `true` when the rung provably fits the budget, `false` when it
    /// provably does not, `None` bounds leave it at `true` (cannot
    /// disprove).
    pub feasible: bool,
}

/// The analyzer's findings: the lint diagnostics plus the per-rung
/// budget table they were derived from.
#[must_use = "an analysis report changes nothing by itself; check lint() or rungs()"]
#[derive(Clone, Debug, Default, PartialEq)]
pub struct AnalysisReport {
    lint: LintReport,
    rungs: Vec<RungBudget>,
    budget: Option<u64>,
}

impl AnalysisReport {
    /// The lint findings (FDX015–FDX019).
    pub fn lint(&self) -> &LintReport {
        &self.lint
    }

    /// Consumes the report, keeping the lint findings.
    pub fn into_lint(self) -> LintReport {
        self.lint
    }

    /// The per-rung budget table the findings were derived from, in
    /// fallback-chain order.
    pub fn rungs(&self) -> &[RungBudget] {
        &self.rungs
    }

    /// The iteration budget the rungs were held against (`None` when no
    /// deadline bounds the job).
    pub fn budget(&self) -> Option<u64> {
        self.budget
    }

    /// `true` when at least one reachable rung provably fits the budget.
    pub fn some_rung_feasible(&self) -> bool {
        self.rungs.iter().any(|r| r.reachable && r.feasible)
    }
}

/// The attainable update-norm floor at `precision` on a grid with
/// `interior_cells` interior points and data of magnitude `scale`.
///
/// Each sweep commits a relative rounding error around the machine
/// epsilon per interior point; the L2 update norm therefore plateaus
/// near `eps * scale * sqrt(interior)`. The division by 4096 is a safety
/// margin — the floor the analyzer enforces is three orders of magnitude
/// *below* the plateau the solver actually measures, so FDX016 never
/// rejects a tolerance a real run could still cross (soundness, DESIGN.md
/// §14).
pub fn attainable_residual_floor(
    precision: PrecisionClass,
    scale: f64,
    interior_cells: usize,
) -> f64 {
    precision.machine_epsilon() * scale * (interior_cells as f64).sqrt() / 4096.0
}

/// Sound two-sided iteration bounds for the sweep rungs of `plan`:
/// `Some((lower, upper))`, or `None` when the job is fixed-step,
/// scale-less, or trivially convergent (tolerance at or above the
/// initial update norm).
///
/// The lower bound assumes the *fastest* plausible start (initial error
/// three orders of magnitude below the data scale) and the method's
/// asymptotic contraction from iteration one, then halves the result;
/// the upper bound assumes the worst start (`scale * sqrt(interior)`)
/// at the slower Jacobi rate and doubles it. A real solve lands in
/// between — `tests/analysis_soundness.rs` checks both sides against
/// measured iteration counts.
pub fn sweep_iteration_bounds(plan: &SolvePlan) -> Option<(u64, u64)> {
    let tol = plan.tolerance?;
    if !plan.has_scale() || tol <= 0.0 || !tol.is_finite() {
        return None;
    }
    let (m, n) = (plan.rows.saturating_sub(2), plan.cols.saturating_sub(2));
    if m == 0 || n == 0 {
        return None;
    }
    let rho_slow = theory::jacobi_spectral_radius(m, n);
    let rho_fast = match plan.method {
        HwUpdateMethod::Jacobi => rho_slow,
        HwUpdateMethod::Hybrid => theory::gauss_seidel_spectral_radius(m, n),
    };
    let r0_floor = plan.scale * 1e-3;
    let r0_ceiling = plan.scale * ((m * n) as f64).sqrt();
    if tol >= r0_ceiling {
        // The very first update norm may already satisfy the tolerance.
        return None;
    }
    let lower = if tol >= r0_floor {
        0
    } else {
        (theory::iterations_for_reduction(rho_fast, r0_floor / tol) / 2.0).floor() as u64
    };
    let upper = (2.0 * theory::iterations_for_reduction(rho_slow, r0_ceiling / tol))
        .ceil()
        .max(1.0) as u64;
    Some((lower, upper))
}

/// Sound two-sided iteration bounds for the Krylov (conjugate-gradient)
/// rung, or `None` when the rung is dead for this job (time-stepping)
/// or the job is not scale/tolerance driven.
///
/// The lower bound is information propagation: one CG iteration extends
/// the Krylov space by one, so a boundary perturbation needs on the
/// order of `min(m, n)` iterations to cross the domain; we claim a
/// quarter of that, and only when the tolerance asks for a real
/// reduction (below `scale / 100`). The upper bound is the classic
/// `(sqrt(kappa)-1)/(sqrt(kappa)+1)` energy-norm contraction, doubled.
pub fn krylov_iteration_bounds(plan: &SolvePlan) -> Option<(u64, u64)> {
    if !plan.steady_state {
        return None;
    }
    let tol = plan.tolerance?;
    if !plan.has_scale() || tol <= 0.0 || !tol.is_finite() {
        return None;
    }
    let (m, n) = (plan.rows.saturating_sub(2), plan.cols.saturating_sub(2));
    if m == 0 || n == 0 {
        return None;
    }
    let lower = if tol < plan.scale / 100.0 {
        (m.min(n) as u64 / 4).max(1)
    } else {
        1
    };
    let rho_cg = theory::cg_error_contraction(m, n);
    let r0_ceiling = plan.scale * ((m * n) as f64).sqrt();
    let upper = if tol >= r0_ceiling {
        1
    } else {
        (2.0 * theory::iterations_for_reduction(rho_cg, r0_ceiling / tol))
            .ceil()
            .max(1.0) as u64
    };
    Some((lower, upper))
}

/// Modeled cycles per sweep iteration of `plan` on `config` (the
/// planner-chosen elastic decomposition), `0` when the grid has no
/// interior to estimate.
fn sweep_cycles_per_iteration(plan: &SolvePlan, config: &FdmaxConfig) -> u64 {
    if plan.rows < 3 || plan.cols < 3 {
        return 0;
    }
    let elastic = ElasticConfig::plan(config, plan.rows, plan.cols);
    perf_model::iteration_estimate(config, &elastic, plan.rows, plan.cols, false).effective_cycles()
}

/// Modeled cycles per Krylov iteration: the matrix-free operator streams
/// the five-point stencil over the interior in f64 (two vectors read,
/// one written per point), priced at DRAM bandwidth.
fn krylov_cycles_per_iteration(plan: &SolvePlan, config: &FdmaxConfig) -> u64 {
    let interior = plan.interior_cells() as u64;
    if interior == 0 {
        return 0;
    }
    config
        .dram()
        .cycles_for_sized_elements(3 * interior, <f64 as Scalar>::BYTES as u64)
}

/// Runs the solve-plan analysis: FDX015 (convergence budget), FDX016
/// (precision floor), FDX017 (checkpoint cadence) and FDX019 (dead
/// rungs). Band-plan certification (FDX018) is separate — see
/// [`certify_band_plan`] — because the band geometry is derived from
/// thread count and grid, not carried by the plan.
pub fn analyze_plan(
    plan: &SolvePlan,
    config: &FdmaxConfig,
    service: Option<&ServiceSpec>,
) -> AnalysisReport {
    let mut report = AnalysisReport::default();

    // The iteration budget: the job's own cap, clamped by the service's
    // per-job cap and deadline when a service fronts the job.
    let mut budget = plan.requested_iterations as u64;
    if let Some(spec) = service {
        budget = budget
            .min(spec.max_job_iterations as u64)
            .min(spec.deadline_iterations);
    }
    report.budget = Some(budget);

    let sweep_bounds = sweep_iteration_bounds(plan);
    let kry_bounds = krylov_iteration_bounds(plan);
    let sweep_cycles = sweep_cycles_per_iteration(plan, config);
    let kry_cycles = krylov_cycles_per_iteration(plan, config);

    let fits = |bounds: Option<(u64, u64)>| -> bool {
        match bounds {
            Some((lower, _)) => lower <= budget,
            None => true,
        }
    };
    let proven = |bounds: Option<(u64, u64)>| -> bool {
        match bounds {
            Some((_, upper)) => upper <= budget,
            None => true,
        }
    };

    let krylov_reachable = plan.steady_state;
    let parallel_live = plan.parallel_threads > 1;
    let tiled_live = plan.tiled_live();
    // The tiled rung advances in whole epochs: a tolerance met at sweep
    // `t` is only *detected* at the next epoch boundary, so its
    // conservative upper bound rounds up to a multiple of the depth.
    // The lower bound is unchanged (fused sweeps are the same sweeps).
    let tiled_bounds = sweep_bounds.map(|(lower, upper)| {
        let k = plan.tile_depth.max(1) as u64;
        (lower, upper.div_ceil(k) * k)
    });
    for (rung, reachable, bounds, cycles) in [
        ("DetailedSim", true, sweep_bounds, sweep_cycles),
        ("HwReference", true, sweep_bounds, sweep_cycles),
        ("ParallelSweep", parallel_live, sweep_bounds, sweep_cycles),
        ("TiledSweep", tiled_live, tiled_bounds, sweep_cycles),
        ("SoftwareSweep", true, sweep_bounds, sweep_cycles),
        ("Krylov", krylov_reachable, kry_bounds, kry_cycles),
        ("Estimate", true, None, 0),
    ] {
        report.rungs.push(RungBudget {
            rung,
            reachable,
            lower_bound: bounds.map(|b| b.0),
            upper_bound: bounds.map(|b| b.1),
            cycles_per_iteration: cycles,
            feasible: fits(bounds),
        });
    }

    // FDX016 first: a tolerance below the precision floor makes the
    // budget analysis moot (the job never converges at any budget).
    let mut floor_violated = false;
    if let Some(tol) = plan.tolerance {
        if plan.has_scale() && plan.interior_cells() > 0 {
            let floor =
                attainable_residual_floor(plan.precision, plan.scale, plan.interior_cells());
            if tol < floor {
                floor_violated = true;
                report.lint.push(
                    Diagnostic::new(
                        DiagCode::PrecisionFloorViolated,
                        "tolerance",
                        format!(
                            "tolerance {tol:.3e} is below the attainable {} update-norm \
                             floor {floor:.3e} on this {}x{} grid (scale {:.3e}): the \
                             solve can only end by stall watchdog or budget exhaustion",
                            plan.precision.name(),
                            plan.rows,
                            plan.cols,
                            plan.scale,
                        ),
                    )
                    .suggest(format!(
                        "raise the tolerance above {floor:.3e} or move to a wider \
                         precision (f64 floor: {:.3e})",
                        attainable_residual_floor(
                            PrecisionClass::F64,
                            plan.scale,
                            plan.interior_cells()
                        ),
                    )),
                );
            }
        }
    }

    // FDX015: rung-by-rung budget feasibility.
    match plan.tolerance {
        Some(tol) if !floor_violated => {
            if let Some((sweep_lb, sweep_ub)) = sweep_bounds {
                let cycles_lb = sweep_lb.saturating_mul(sweep_cycles);
                let seconds_lb = cycles_lb as f64 / config.clock_hz;
                let sweep_fits = sweep_lb <= budget;
                let kry_fits = krylov_reachable && fits(kry_bounds);
                if !sweep_fits && !kry_fits {
                    let reason = if krylov_reachable {
                        format!(
                            "and the Krylov rung needs >= {} (budget {budget})",
                            kry_bounds.map_or(0, |b| b.0),
                        )
                    } else {
                        "and the Krylov rung is dead for time-stepping jobs".to_string()
                    };
                    report.lint.push(
                        Diagnostic::new(
                            DiagCode::ConvergenceBudgetInfeasible,
                            "deadline_iterations",
                            format!(
                                "no rung can reach tolerance {tol:.3e} inside the budget: \
                                 the sweep rungs need >= {sweep_lb} iterations \
                                 (>= {cycles_lb} cycles, {seconds_lb:.3}s) {reason}",
                            ),
                        )
                        .suggest(format!(
                            "raise the deadline above {sweep_ub} iterations, loosen the \
                             tolerance, or shrink the grid",
                        )),
                    );
                } else if !sweep_fits {
                    report.lint.push(
                        Diagnostic::new(
                            DiagCode::ConvergenceBudgetInfeasible,
                            "deadline_iterations",
                            format!(
                                "only the Krylov rung fits the budget: the sweep rungs \
                                 need >= {sweep_lb} iterations (budget {budget}), so every \
                                 sweep rung burns its circuit breaker before the Krylov \
                                 rung serves the job",
                            ),
                        )
                        .with_severity(Severity::Warn)
                        .suggest(format!(
                            "raise the deadline above {sweep_ub} iterations to give the \
                             sweep rungs a chance, or accept the Krylov-only chain",
                        )),
                    );
                } else if !proven(sweep_bounds) {
                    report.lint.push(
                        Diagnostic::new(
                            DiagCode::ConvergenceBudgetInfeasible,
                            "deadline_iterations",
                            format!(
                                "convergence unproven inside the budget: the sweep rungs \
                                 need between {sweep_lb} and {sweep_ub} iterations and the \
                                 budget is {budget}",
                            ),
                        )
                        .with_severity(Severity::Warn)
                        .suggest(format!(
                            "raise the deadline above {sweep_ub} iterations for a proof",
                        )),
                    );
                }
            }
        }
        None => {
            let steps = plan.requested_iterations as u64;
            if steps > budget {
                report.lint.push(
                    Diagnostic::new(
                        DiagCode::ConvergenceBudgetInfeasible,
                        "deadline_iterations",
                        format!(
                            "a fixed {steps}-step run exceeds the budget of {budget} \
                             iterations: the service will degrade the job to the \
                             analytic rung at the deadline",
                        ),
                    )
                    .with_severity(Severity::Warn)
                    .suggest(format!("raise the deadline above {steps} iterations")),
                );
            }
        }
        _ => {}
    }

    // FDX017: durability cadence vs. the expected completion window.
    // On the tiled rung checkpoints fire at epoch crossings, so the
    // cadence the job actually experiences there rounds up to a
    // multiple of the tile depth.
    if let Some(spec) = service {
        if let Some(cadence) = spec.checkpoint_every.filter(|&c| c > 0) {
            let effective_cadence = if tiled_live {
                let k = plan.tile_depth as u64;
                cadence.div_ceil(k) * k
            } else {
                cadence
            };
            let window = match (plan.tolerance, sweep_bounds) {
                (Some(_), Some((_, upper))) if upper <= budget => Some(upper),
                (None, _) => Some(plan.requested_iterations as u64),
                _ => None,
            };
            if let Some(window) = window {
                if effective_cadence >= window && cadence < spec.deadline_iterations {
                    let epoch_note = if effective_cadence != cadence {
                        format!(" (epoch-rounded to {effective_cadence} on the tiled rung)")
                    } else {
                        String::new()
                    };
                    report.lint.push(
                        Diagnostic::new(
                            DiagCode::CheckpointCadenceMismatch,
                            "checkpoint_every",
                            format!(
                                "checkpoint cadence {cadence}{epoch_note} is no faster \
                                 than the job's expected completion window of {window} \
                                 iterations: a crash always replays from iteration \
                                 zero, so durability buys nothing for this job class",
                            ),
                        )
                        .suggest(format!(
                            "checkpoint at least every {} iterations or drop \
                             durability for these jobs",
                            (window / 4).max(1),
                        )),
                    );
                }
            }
        }
    }

    // FDX019: statically dead rungs of the fallback chain.
    if !plan.steady_state {
        report.lint.push(
            Diagnostic::new(
                DiagCode::DeadFallbackRungs,
                "pde",
                "the Krylov rung is dead for this job: time-stepping equations skip \
                 it as not applicable, so the operational chain ends at the software \
                 sweep rung"
                    .to_string(),
            )
            .suggest("plan capacity for the sweep rungs alone".to_string()),
        );
    }
    if !parallel_live {
        report.lint.push(
            Diagnostic::new(
                DiagCode::DeadFallbackRungs,
                "parallel_threads",
                format!(
                    "the strip-parallel rung degenerates to the serial software rung \
                     at {} thread(s): two chain positions run the same engine",
                    plan.parallel_threads,
                ),
            )
            .suggest("run the service with parallel_threads >= 2".to_string()),
        );
    }

    // FDX022: tile depth vs. the grid/strip geometry of the tiled rung.
    if tiled_live {
        let k = plan.tile_depth;
        let interior = plan.rows.saturating_sub(2);
        if interior > 0 && k >= interior {
            report.lint.push(
                Diagnostic::new(
                    DiagCode::TileDepthGeometry,
                    "tile_depth",
                    format!(
                        "tile depth {k} is at least the interior height {interior} of \
                         this {}x{} grid: the k-deep halo trapezoid consumes the whole \
                         interior, so the tiled rung degenerates to serial \
                         recomputation with no cache reuse to show for it",
                        plan.rows, plan.cols,
                    ),
                )
                .with_severity(Severity::Error)
                .suggest(format!(
                    "lower tile_depth below {interior} or disable the rung \
                     (tile_depth = 1) for grids this small",
                )),
            );
        } else if interior > 0 && plan.parallel_threads.saturating_mul(k) > interior {
            let widest = interior / k;
            report.lint.push(
                Diagnostic::new(
                    DiagCode::TileDepthGeometry,
                    "tile_depth",
                    format!(
                        "tile depth {k} forces the halo-aware band split of the \
                         {interior}-row interior down to {} band(s), below the \
                         requested {} thread(s): the tiled rung silently sheds \
                         parallelism on this grid",
                        widest.max(1),
                        plan.parallel_threads,
                    ),
                )
                .suggest(format!(
                    "lower tile_depth to at most {} or accept the coarser split",
                    (interior / plan.parallel_threads.max(1)).max(1),
                )),
            );
        }
        if let Some(spec) = service {
            if k > spec.max_job_iterations {
                report.lint.push(
                    Diagnostic::new(
                        DiagCode::TileDepthGeometry,
                        "tile_depth",
                        format!(
                            "tile depth {k} exceeds the service's per-job iteration \
                             cap of {}: every epoch truncates below the configured \
                             depth, so the cache reuse the depth was chosen for is \
                             never achieved",
                            spec.max_job_iterations,
                        ),
                    )
                    .suggest(format!(
                        "lower tile_depth to at most {}",
                        spec.max_job_iterations.max(1),
                    )),
                );
            }
        }
    }

    report
}

/// A strip-parallel band plan as the race certifier sees it: the grid it
/// covers and the interior row ranges its workers sweep.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BandPlan {
    /// Grid rows (boundary included).
    pub rows: usize,
    /// Grid columns (boundary included).
    pub cols: usize,
    /// Worker bands over interior rows, in fold order.
    pub bands: Vec<Range<usize>>,
}

impl BandPlan {
    /// The bands [`fdm::engine::SweepEngine`] sweeps `method` in under
    /// `plan` ([`SweepPlan::bands`], tile-depth floor included) — by
    /// construction ascending, disjoint and contiguous, so it always
    /// certifies clean.
    pub fn from_sweep_plan(
        rows: usize,
        cols: usize,
        plan: SweepPlan,
        method: fdm::solver::UpdateMethod,
    ) -> Self {
        BandPlan {
            rows,
            cols,
            bands: plan.bands(rows, method),
        }
    }

    /// The Jacobi band plan of the strip-parallel plan `{threads, 1}`.
    pub fn from_threads(rows: usize, cols: usize, threads: usize) -> Self {
        let plan = SweepPlan {
            threads,
            tile_depth: 1,
        };
        Self::from_sweep_plan(rows, cols, plan, fdm::solver::UpdateMethod::Jacobi)
    }
}

/// Certifies a strip-parallel band plan race-free (FDX018).
///
/// A sound plan partitions the interior rows `1..rows-1` into non-empty,
/// strictly ascending, contiguous bands. Each violation gets its own
/// finding:
///
/// * a band touching row 0 or `rows-1` writes the Dirichlet boundary;
/// * overlapping or unordered bands alias rows — two workers write the
///   same row concurrently and the per-row diff² partials of the shared
///   rows are folded twice, so the parallel residual diverges from the
///   serial engine;
/// * gaps leave interior rows no worker sweeps;
/// * an empty band is a worker with no work (and breaks the fold-order
///   induction).
pub fn certify_band_plan(plan: &BandPlan) -> LintReport {
    let mut report = LintReport::new();
    let interior_rows = plan.rows.saturating_sub(2);
    if interior_rows == 0 || plan.cols.saturating_sub(2) == 0 {
        if !plan.bands.is_empty() {
            report.push(Diagnostic::new(
                DiagCode::BandPlanRace,
                "bands",
                format!(
                    "{} band(s) scheduled on a {}x{} grid with no interior",
                    plan.bands.len(),
                    plan.rows,
                    plan.cols,
                ),
            ));
        }
        return report;
    }
    if plan.bands.is_empty() {
        report.push(
            Diagnostic::new(
                DiagCode::BandPlanRace,
                "bands",
                format!("empty band plan: {interior_rows} interior row(s) are never swept",),
            )
            .suggest("derive the plan with BandPlan::from_threads".to_string()),
        );
        return report;
    }
    for (i, band) in plan.bands.iter().enumerate() {
        if band.start >= band.end {
            report.push(Diagnostic::new(
                DiagCode::BandPlanRace,
                "bands",
                format!(
                    "band {i} ({}..{}) is empty: a worker with no rows breaks the \
                     fixed-order fold induction",
                    band.start, band.end,
                ),
            ));
            continue;
        }
        if band.start < 1 || band.end > plan.rows - 1 {
            report.push(Diagnostic::new(
                DiagCode::BandPlanRace,
                "bands",
                format!(
                    "band {i} ({}..{}) leaves the interior 1..{}: it writes the \
                     Dirichlet boundary",
                    band.start,
                    band.end,
                    plan.rows - 1,
                ),
            ));
        }
    }
    for (i, pair) in plan.bands.windows(2).enumerate() {
        let (a, b) = (&pair[0], &pair[1]);
        if a.start >= a.end || b.start >= b.end {
            continue; // already reported as empty
        }
        if b.start < a.end {
            report.push(
                Diagnostic::new(
                    DiagCode::BandPlanRace,
                    "bands",
                    format!(
                        "bands {i} ({}..{}) and {} ({}..{}) alias rows {}..{}: two \
                         workers write the same rows and their diff-squared partials \
                         fold twice",
                        a.start,
                        a.end,
                        i + 1,
                        b.start,
                        b.end,
                        b.start.max(a.start),
                        a.end.min(b.end).max(b.start),
                    ),
                )
                .suggest("make consecutive bands contiguous and ascending".to_string()),
            );
        } else if b.start > a.end {
            report.push(Diagnostic::new(
                DiagCode::BandPlanRace,
                "bands",
                format!(
                    "gap between band {i} ({}..{}) and band {} ({}..{}): rows {}..{} \
                     are never swept",
                    a.start,
                    a.end,
                    i + 1,
                    b.start,
                    b.end,
                    a.end,
                    b.start,
                ),
            ));
        }
    }
    let non_empty: Vec<&Range<usize>> = plan.bands.iter().filter(|b| b.start < b.end).collect();
    if let (Some(first), Some(last)) = (non_empty.first(), non_empty.last()) {
        if first.start > 1 {
            report.push(Diagnostic::new(
                DiagCode::BandPlanRace,
                "bands",
                format!(
                    "rows 1..{} precede the first band and are never swept",
                    first.start,
                ),
            ));
        }
        if last.end < plan.rows - 1 {
            report.push(Diagnostic::new(
                DiagCode::BandPlanRace,
                "bands",
                format!(
                    "rows {}..{} follow the last band and are never swept",
                    last.end,
                    plan.rows - 1,
                ),
            ));
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan(rows: usize, cols: usize, tol: Option<f64>, cap: usize) -> SolvePlan {
        SolvePlan {
            rows,
            cols,
            method: HwUpdateMethod::Jacobi,
            tolerance: tol,
            requested_iterations: cap,
            precision: PrecisionClass::F32,
            steady_state: true,
            scale: 1.0,
            parallel_threads: 4,
            tile_depth: 4,
        }
    }

    #[test]
    fn generous_budget_is_clean() {
        let p = plan(48, 48, Some(1e-4), 500_000);
        let r = analyze_plan(&p, &FdmaxConfig::default(), None);
        assert!(r.lint().is_clean(), "{}", r.lint());
        assert!(r.some_rung_feasible());
    }

    #[test]
    fn impossible_budget_is_fdx015_error() {
        let mut p = plan(96, 96, Some(1e-8), 500_000);
        p.steady_state = false; // kill the Krylov escape hatch
        let spec = ServiceSpec {
            queue_capacity: 4,
            max_job_iterations: 500_000,
            deadline_iterations: 50,
            checkpoint_every: None,
            journal_dir: None,
        };
        let r = analyze_plan(&p, &FdmaxConfig::default(), Some(&spec));
        assert!(r.lint().has(DiagCode::ConvergenceBudgetInfeasible));
        assert!(r.lint().has_errors());
        assert!(!r.some_rung_feasible() || !r.rungs()[0].feasible);
    }

    #[test]
    fn krylov_escape_downgrades_fdx015_to_warn() {
        let p = plan(96, 96, Some(1e-6), 500_000);
        let spec = ServiceSpec {
            queue_capacity: 4,
            max_job_iterations: 500_000,
            deadline_iterations: 200,
            checkpoint_every: None,
            journal_dir: None,
        };
        let r = analyze_plan(&p, &FdmaxConfig::default(), Some(&spec));
        assert!(r.lint().has(DiagCode::ConvergenceBudgetInfeasible));
        assert!(!r.lint().has_errors(), "{}", r.lint());
    }

    #[test]
    fn precision_floor_is_fdx016_error() {
        let p = plan(32, 32, Some(1e-12), 500_000);
        let r = analyze_plan(&p, &FdmaxConfig::default(), None);
        assert!(r.lint().has(DiagCode::PrecisionFloorViolated));
        assert!(r.lint().has_errors());
        // The same tolerance is fine at f64.
        let mut p64 = p;
        p64.precision = PrecisionClass::F64;
        let r64 = analyze_plan(&p64, &FdmaxConfig::default(), None);
        assert!(!r64.lint().has(DiagCode::PrecisionFloorViolated));
    }

    #[test]
    fn nan_scale_skips_scale_dependent_checks() {
        let mut p = plan(32, 32, Some(1e-12), 500_000);
        p.scale = f64::NAN;
        let r = analyze_plan(&p, &FdmaxConfig::default(), None);
        assert!(!r.lint().has(DiagCode::PrecisionFloorViolated));
        assert!(!r.lint().has(DiagCode::ConvergenceBudgetInfeasible));
    }

    #[test]
    fn dead_rungs_are_fdx019() {
        let mut p = plan(32, 32, None, 100);
        p.steady_state = false;
        p.parallel_threads = 1;
        let r = analyze_plan(&p, &FdmaxConfig::default(), None);
        let dead: Vec<_> = r
            .lint()
            .diagnostics()
            .iter()
            .filter(|d| d.code == DiagCode::DeadFallbackRungs)
            .collect();
        assert_eq!(dead.len(), 2);
        assert!(!r.lint().has_errors());
    }

    #[test]
    fn checkpoint_cadence_mismatch_is_fdx017() {
        let p = plan(16, 16, Some(1e-3), 500_000);
        let spec = ServiceSpec {
            queue_capacity: 4,
            max_job_iterations: 500_000,
            deadline_iterations: 1_000_000,
            checkpoint_every: Some(500_000),
            journal_dir: Some("/tmp/j".to_string()),
        };
        let r = analyze_plan(&p, &FdmaxConfig::default(), Some(&spec));
        assert!(
            r.lint().has(DiagCode::CheckpointCadenceMismatch),
            "{}",
            r.lint()
        );
        assert!(!r.lint().has_errors());
    }

    #[test]
    fn derived_band_plans_certify_clean() {
        for rows in [3, 4, 8, 33, 100] {
            for threads in [1, 2, 3, 7, 64] {
                let plan = BandPlan::from_threads(rows, 16, threads);
                let report = certify_band_plan(&plan);
                assert!(report.is_clean(), "rows={rows} threads={threads}: {report}");
            }
        }
    }

    #[test]
    fn aliasing_bands_are_fdx018() {
        let plan = BandPlan {
            rows: 10,
            cols: 10,
            bands: vec![1..5, 4..9],
        };
        let report = certify_band_plan(&plan);
        assert!(report.has(DiagCode::BandPlanRace));
        assert!(report.has_errors());
    }

    #[test]
    // Single-band plans below really are one `Range` per plan.
    #[allow(clippy::single_range_in_vec_init)]
    fn gaps_boundary_writes_and_empty_bands_are_fdx018() {
        for bands in [
            vec![1..3, 5..9],       // gap
            vec![0..5, 5..9],       // boundary write (top)
            vec![1..5, 5..10],      // boundary write (bottom)
            vec![1..5, 5..5, 5..9], // empty band
            vec![2..9],             // uncovered prefix
            vec![1..8],             // uncovered suffix
            vec![],                 // no bands at all
        ] {
            let plan = BandPlan {
                rows: 10,
                cols: 10,
                bands,
            };
            let report = certify_band_plan(&plan);
            assert!(report.has(DiagCode::BandPlanRace), "{:?}", plan.bands);
        }
    }

    #[test]
    fn sweep_bounds_order_sanely() {
        let p = plan(40, 40, Some(1e-6), 500_000);
        let (lb, ub) = sweep_iteration_bounds(&p).unwrap();
        assert!(lb > 0 && lb < ub, "lb={lb} ub={ub}");
        let mut hybrid = p;
        hybrid.method = HwUpdateMethod::Hybrid;
        let (hlb, _) = sweep_iteration_bounds(&hybrid).unwrap();
        assert!(hlb <= lb, "Hybrid lower bound must not exceed Jacobi's");
        let (klb, kub) = krylov_iteration_bounds(&p).unwrap();
        assert!(klb <= kub);
        assert!(kub < ub, "CG upper bound should beat Jacobi's");
    }

    #[test]
    fn fixed_step_overrun_warns() {
        let p = plan(16, 16, None, 500);
        let spec = ServiceSpec {
            queue_capacity: 4,
            max_job_iterations: 1_000,
            deadline_iterations: 100,
            checkpoint_every: None,
            journal_dir: None,
        };
        let r = analyze_plan(&p, &FdmaxConfig::default(), Some(&spec));
        assert!(r.lint().has(DiagCode::ConvergenceBudgetInfeasible));
        assert!(!r.lint().has_errors());
    }
}
