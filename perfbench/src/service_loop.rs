//! The closed-loop client shared by the `SolveService` workloads, and
//! the correctness gate's bookkeeping and oracle.

use crate::trace::Tracer;
use fdm::convergence::StopCondition;
use fdm::engine::{Session, SweepEngine};
use fdm::grid::Grid2D;
use fdmax::accelerator::HwUpdateMethod;
use fdmax::config::FdmaxConfig;
use fdmax::elastic::ElasticConfig;
use fdmax::engine::HwReferenceEngine;
use fdmax::service::{JobSpec, Rung, ServiceReport, SolveService, SubmitError};
use std::collections::VecDeque;
use std::time::{Duration, Instant};

/// One client with a bounded number of jobs outstanding: it fills the
/// service queue to capacity, then calls `run_next` for the oldest job.
#[derive(Debug)]
pub struct ClosedLoop {
    pub svc: SolveService,
    /// `(job id, input index, harness-cancelled, submit instant)` in
    /// service (FIFO) order.
    queued: VecDeque<(u64, usize, bool, Instant)>,
}

impl ClosedLoop {
    pub fn new(svc: SolveService) -> ClosedLoop {
        ClosedLoop {
            svc,
            queued: VecDeque::new(),
        }
    }

    pub fn full(&self) -> bool {
        self.svc.queue_depth() >= self.svc.config().queue_capacity
    }

    /// Submits input `idx`; `cancel` fires its token right after
    /// admission. Refusals are returned to the caller (the gate treats
    /// them as failures: the client never offers to a full queue).
    pub fn submit(
        &mut self,
        idx: usize,
        spec: JobSpec,
        cancel: bool,
        tracer: &mut Tracer,
    ) -> Result<(), SubmitError> {
        let t = Instant::now();
        let ticket = tracer.span("service.submit", Some(idx as u64), || self.svc.submit(spec))?;
        if cancel {
            ticket.cancel.cancel();
        }
        self.queued.push_back((ticket.id.0, idx, cancel, t));
        Ok(())
    }

    /// Runs the oldest queued job: `(input index, report, latency)`.
    pub fn run_one(&mut self, tracer: &mut Tracer) -> Option<(usize, ServiceReport, Duration)> {
        let (id, idx, _, t) = self.queued.pop_front()?;
        let report = tracer
            .span("service.run_next", Some(idx as u64), || self.svc.run_next())
            .expect("queued job");
        assert_eq!(report.job.0, id, "service ran out of admission order");
        Some((idx, report, t.elapsed()))
    }

    /// Takes over jobs a recovered service re-admitted to its queue (job
    /// id = input index), so the loop keeps its pre-crash rhythm.
    pub fn adopt(&mut self, ids: impl IntoIterator<Item = u64>) {
        let now = Instant::now();
        self.queued
            .extend(ids.into_iter().map(|id| (id, id as usize, false, now)));
        assert_eq!(
            self.queued.len(),
            self.svc.queue_depth(),
            "adopted every queued job"
        );
    }

    /// `true` when a harness-cancelled job is waiting in the queue.
    pub fn cancelled_job_queued(&self) -> bool {
        self.queued.iter().any(|q| q.2)
    }
}

/// Accumulated correctness-gate findings; any finding fails the run.
#[derive(Debug, Default)]
pub struct Gate {
    pub failures: Vec<String>,
}

impl Gate {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            let msg = what();
            eprintln!("GATE FAILED: {msg}");
            self.failures.push(msg);
        }
    }

    pub fn ok(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Re-solves a served job and checks it under the serving rung's
/// documented contract (`tests/engine_equivalence.rs`): Jacobi on the
/// simulator, reference, strip-parallel and software rungs is
/// bit-identical to the serial `SweepEngine`; the tiled rung is within
/// 1e-5 relative (f32); the hardware Hybrid is bit-identical to the
/// hardware reference engine (its seams differ from software Hybrid).
/// `Ok(false)` means the rung has no sweep oracle (Krylov) and was
/// skipped.
pub fn oracle_check(
    accel: &FdmaxConfig,
    max_job_iterations: usize,
    spec: &JobSpec,
    report: &ServiceReport,
) -> Result<bool, String> {
    let (Some(rung), Some(got)) = (report.served_by(), report.solution.as_ref()) else {
        return Err("no numeric solution to check".into());
    };
    // A served fixed-step job ends at its (clamped) step count; the
    // attempt's own iteration tally also counts rollback replays.
    let steps = spec.stop.clamped(max_job_iterations).max_iterations();
    let stop = StopCondition::fixed_steps(steps);
    let problem = &spec.problem;
    let hardware_hybrid =
        spec.method == HwUpdateMethod::Hybrid && matches!(rung, Rung::Detailed | Rung::Reference);
    let want: Grid2D<f32> = if rung == Rung::Krylov {
        return Ok(false);
    } else if hardware_hybrid {
        let elastic = ElasticConfig::try_plan(accel, problem.rows(), problem.cols())
            .map_err(|e| e.to_string())?;
        let mut s = Session::new(
            HwReferenceEngine::with_elastic(accel, problem, spec.method, elastic),
            stop,
        );
        s.run().map_err(|e| e.to_string())?;
        s.into_parts().0.into_solution()
    } else {
        let mut s = Session::new(
            SweepEngine::new(problem, spec.method.software_equivalent()),
            stop,
        );
        s.run().map_err(|e| e.to_string())?;
        s.into_parts().0.into_solution()
    };
    let tolerance = if rung == Rung::Tiled { 1e-5 } else { 0.0 };
    for (k, (a, b)) in got.as_slice().iter().zip(want.as_slice()).enumerate() {
        let (x, y) = (f64::from(*a), f64::from(*b));
        let same = if tolerance == 0.0 {
            a.to_bits() == b.to_bits()
        } else {
            (x - y).abs() / x.abs().max(y.abs()).max(1.0) <= tolerance
        };
        if !same {
            return Err(format!(
                "{rung} {:?} {}x{} x{steps}: element {k} is {x}, oracle {y}",
                spec.method,
                problem.rows(),
                problem.cols()
            ));
        }
    }
    Ok(true)
}

/// Applies the oracle to a seeded sample of `(spec, report)` pairs.
pub fn oracle_sample(
    gate: &mut Gate,
    cfg: &fdmax::service::ServiceConfig,
    served: &[(&JobSpec, &ServiceReport)],
    rng: &mut detrng::DetRng,
    want: usize,
) -> u64 {
    let mut checked = 0;
    let mut pool: Vec<usize> = (0..served.len()).collect();
    while checked < want as u64 && !pool.is_empty() {
        let k = pool.swap_remove(rng.gen_range(0, pool.len()));
        let (spec, report) = served[k];
        match oracle_check(&cfg.accel, cfg.max_job_iterations, spec, report) {
            Ok(true) => checked += 1,
            Ok(false) => {}
            Err(e) => {
                checked += 1;
                gate.check(false, || format!("oracle: job {}: {e}", report.job));
            }
        }
    }
    gate.check(checked > 0, || "oracle: no served job sampled".into());
    checked
}
