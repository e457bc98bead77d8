//! Hardware-side [`SolveEngine`] backends.
//!
//! The engine *contract* (trait, driver, policy) lives in
//! [`fdm::engine`] so the pure-numerics crate can drive its own sweeps;
//! this module re-exports it and adds the accelerator-model backends:
//!
//! * [`crate::sim::DetailedSim`] — the cycle-accurate simulator
//!   (implements [`SolveEngine`] directly);
//! * [`HwReferenceEngine`] — the hardware-semantics reference sweeps of
//!   [`crate::reference`], generic over [`Scalar`];
//! * [`EstimateEngine`] — the analytic performance model as a single
//!   O(1) macro-step, so paper-sized grids cost nothing to "run".

pub use fdm::engine::{
    EngineError, EngineStateImage, ResiliencePolicy, Session, SolveEngine, StepFault, StepOutcome,
    SweepEngine, SweepPlan,
};

use crate::accelerator::HwUpdateMethod;
use crate::config::FdmaxConfig;
use crate::elastic::ElasticConfig;
use crate::reference::hybrid_hw_sweep_elastic;
use crate::report::SimReport;
use fdm::convergence::{ResidualHistory, StopCondition};
use fdm::grid::Grid2D;
use fdm::pde::{OffsetField, StencilProblem};
use fdm::precision::Scalar;
use fdm::solver::{sweep_jacobi, SolveResult};
use memmodel::EventCounters;

/// The hardware-semantics reference sweeps as a [`SolveEngine`].
///
/// One step is one full-grid sweep with exactly the operand-availability
/// semantics of the modeled array: Jacobi is seam-free; Hybrid falls
/// back to Jacobi operands at row-block and column-batch seams (see
/// [`crate::reference`]). Bit-exact with [`crate::sim::DetailedSim`] for
/// the same elastic decomposition, at a fraction of the bookkeeping.
#[derive(Debug)]
pub struct HwReferenceEngine<'p, T: Scalar> {
    problem: &'p StencilProblem<T>,
    method: HwUpdateMethod,
    cur: Grid2D<T>,
    next: Grid2D<T>,
    prev: Option<Grid2D<T>>,
    subarrays: usize,
    width: usize,
    sub_fifo_depth: usize,
    iterations: usize,
}

impl<'p, T: Scalar> HwReferenceEngine<'p, T> {
    /// Prepares a reference engine for an explicit decomposition
    /// (`subarrays` row strips, `width`-column batches, `sub_fifo_depth`
    /// rows per block).
    ///
    /// # Panics
    ///
    /// Panics when a `ScaledPrevField` offset (wave equation) comes
    /// without `prev_initial`.
    pub fn new(
        problem: &'p StencilProblem<T>,
        method: HwUpdateMethod,
        subarrays: usize,
        width: usize,
        sub_fifo_depth: usize,
    ) -> Self {
        let cur = problem.initial.clone();
        let next = cur.clone();
        let prev = problem.prev_initial.clone();
        if matches!(problem.offset, OffsetField::ScaledPrevField { .. }) {
            assert!(
                prev.is_some(),
                "a ScaledPrevField offset requires prev_initial"
            );
        }
        HwReferenceEngine {
            problem,
            method,
            cur,
            next,
            prev,
            subarrays,
            width,
            sub_fifo_depth,
            iterations: 0,
        }
    }

    /// Prepares a reference engine mirroring the decomposition a
    /// [`crate::sim::DetailedSim`] would use.
    pub fn with_elastic(
        config: &FdmaxConfig,
        problem: &'p StencilProblem<T>,
        method: HwUpdateMethod,
        elastic: ElasticConfig,
    ) -> Self {
        Self::new(
            problem,
            method,
            elastic.subarrays,
            elastic.width,
            elastic.sub_fifo_depth(config),
        )
    }

    /// The current field `U^k`.
    pub fn solution(&self) -> &Grid2D<T> {
        &self.cur
    }

    /// Consumes the engine, returning the final field.
    pub fn into_solution(self) -> Grid2D<T> {
        self.cur
    }
}

impl<T: Scalar> SolveEngine for HwReferenceEngine<'_, T> {
    fn step(&mut self) -> StepOutcome {
        let problem = self.problem;
        let diff2 = match self.method {
            HwUpdateMethod::Jacobi => sweep_jacobi(
                &problem.stencil,
                &problem.offset,
                &self.cur,
                self.prev.as_ref(),
                &mut self.next,
            ),
            HwUpdateMethod::Hybrid => hybrid_hw_sweep_elastic(
                &problem.stencil,
                &problem.offset,
                &self.cur,
                self.prev.as_ref(),
                &mut self.next,
                self.subarrays,
                self.width,
                self.sub_fifo_depth,
            ),
        };
        if let Some(prev) = self.prev.as_mut() {
            core::mem::swap(&mut self.cur, prev);
        }
        core::mem::swap(&mut self.cur, &mut self.next);
        self.iterations += 1;
        StepOutcome::clean(diff2.sqrt())
    }

    fn iterations(&self) -> usize {
        self.iterations
    }

    fn export_state(&self) -> Option<EngineStateImage> {
        Some(EngineStateImage::capture(
            self.iterations,
            &self.cur,
            self.prev.as_ref(),
        ))
    }

    fn restore_state(&mut self, image: &EngineStateImage) -> bool {
        let Some(cur) = image.cur_grid::<T>() else {
            return false;
        };
        if cur.rows() != self.cur.rows()
            || cur.cols() != self.cur.cols()
            || image.prev.is_some() != self.prev.is_some()
        {
            return false;
        }
        let prev = if self.prev.is_some() {
            match image.prev_grid::<T>() {
                Some(p) if p.rows() == cur.rows() && p.cols() == cur.cols() => Some(p),
                _ => return false,
            }
        } else {
            None
        };
        // `next` mirrors `cur`: the sweeps rewrite its interior before
        // reading it, and the boundary ring must match the field's.
        self.next = cur.clone();
        self.cur = cur;
        self.prev = prev;
        self.iterations = image.iterations;
        true
    }
}

/// Solves a problem through a [`Session`] over the hardware-semantics
/// reference, mirroring the decomposition the simulator would use.
pub fn solve_reference<T: Scalar>(
    config: &FdmaxConfig,
    problem: &StencilProblem<T>,
    method: HwUpdateMethod,
    elastic: ElasticConfig,
    stop: &StopCondition,
) -> SolveResult<T> {
    let engine = HwReferenceEngine::with_elastic(config, problem, method, elastic);
    let mut session = Session::new(engine, *stop);
    let met = session
        .run()
        .expect("budget-free session on a healthy problem cannot fail");
    let (engine, history) = session.into_parts();
    let iterations = engine.iterations();
    SolveResult::from_parts(engine.into_solution(), iterations, history, met)
}

/// The analytic performance model as a [`SolveEngine`].
///
/// The engine charges the boot DMA in [`begin`](SolveEngine::begin), all
/// requested iterations in one analytic macro-step (scaling the exact
/// per-iteration [`EventCounters`] of the validated model, so the cost is
/// O(1) in the iteration count), and the drain DMA in
/// [`finish`](SolveEngine::finish). The resulting ledger is identical to
/// what [`crate::sim::DetailedSim`] would accumulate over a real run.
#[derive(Clone, Debug)]
pub struct EstimateEngine {
    config: FdmaxConfig,
    elastic: ElasticConfig,
    offset_present: bool,
    grid_elements: u64,
    per_iteration: EventCounters,
    counters: EventCounters,
    target: u64,
    done: u64,
}

impl EstimateEngine {
    /// Plans the elastic decomposition and the per-iteration ledger for
    /// an `rows x cols` problem (`offset_present`/`self_term` select the
    /// PDE family's datapath).
    ///
    /// # Panics
    ///
    /// Panics if the grid has no interior.
    pub fn new(
        config: FdmaxConfig,
        rows: usize,
        cols: usize,
        offset_present: bool,
        self_term: bool,
        iterations: u64,
    ) -> Self {
        let elastic = ElasticConfig::plan(&config, rows, cols);
        let per_iteration = crate::perf_model::iteration_counters(
            &config,
            &elastic,
            rows,
            cols,
            offset_present,
            self_term,
        );
        EstimateEngine {
            config,
            elastic,
            offset_present,
            grid_elements: (rows * cols) as u64,
            per_iteration,
            counters: EventCounters::new(),
            target: iterations,
            done: 0,
        }
    }

    /// The accumulated ledger as a [`SimReport`].
    pub fn into_report(self) -> SimReport {
        SimReport::new(
            self.config,
            self.elastic,
            self.counters,
            ResidualHistory::new(),
            self.done as usize,
        )
    }

    fn charge_dram(&mut self, read_elements: u64, write_elements: u64) {
        let cycles = self
            .config
            .dram()
            .cycles_for_elements(read_elements + write_elements);
        self.counters.cycles += cycles;
        self.counters.dram_read += read_elements;
        self.counters.dram_write += write_elements;
        self.counters.sram_write += read_elements;
        self.counters.sram_read += write_elements;
    }
}

impl SolveEngine for EstimateEngine {
    /// One macro-step covering every remaining iteration — the analytic
    /// model has no per-iteration state, so there is nothing to gain
    /// from stepping one at a time.
    fn step(&mut self) -> StepOutcome {
        let remaining = self.target - self.done;
        self.counters += self.per_iteration.scaled(remaining);
        self.done = self.target;
        StepOutcome::silent()
    }

    fn iterations(&self) -> usize {
        self.done as usize
    }

    fn begin(&mut self) {
        let extra = if self.offset_present {
            self.grid_elements
        } else {
            0
        };
        self.charge_dram(self.grid_elements + extra, 0);
    }

    fn finish(&mut self) {
        self.charge_dram(0, self.grid_elements);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::DetailedSim;
    use fdm::boundary::DirichletBoundary;
    use fdm::pde::LaplaceProblem;

    fn laplace(n: usize) -> StencilProblem<f32> {
        LaplaceProblem::builder(n, n)
            .boundary(DirichletBoundary::hot_top(1.0))
            .build()
            .unwrap()
            .discretize::<f32>()
    }

    #[test]
    fn reference_engine_matches_detailed_sim_bitwise() {
        let sp = laplace(20);
        let cfg = FdmaxConfig::paper_default();
        for e in ElasticConfig::options(&cfg) {
            let mut sim = DetailedSim::with_elastic(cfg, &sp, HwUpdateMethod::Hybrid, e).unwrap();
            for _ in 0..4 {
                sim.step();
            }
            let r = solve_reference(
                &cfg,
                &sp,
                HwUpdateMethod::Hybrid,
                e,
                &StopCondition::fixed_steps(4),
            );
            assert_eq!(r.solution(), sim.solution(), "config {e} diverged");
        }
    }

    #[test]
    fn estimate_engine_runs_in_one_macro_step() {
        let cfg = FdmaxConfig::paper_default();
        let engine = EstimateEngine::new(cfg, 24, 24, false, false, 9);
        let mut session = Session::new(engine, StopCondition::fixed_steps(9));
        assert!(session.run().unwrap());
        let (engine, history) = session.into_parts();
        assert!(history.is_empty(), "analytic steps record no norms");
        let report = engine.into_report();
        assert_eq!(report.iterations(), 9);
        assert!(report.cycles() > 0);
    }
}
