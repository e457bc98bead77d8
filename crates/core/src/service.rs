//! The resilient multi-job solve service.
//!
//! Everything below this module solves exactly one problem at a time;
//! [`SolveService`] is the supervisory layer a production deployment
//! wraps around that raw compute: it owns a bounded admission queue,
//! hands every accepted job a cancellation token and an iteration
//! deadline (threaded into the engine loop as a [`Budget`]), watches for
//! stalled solves, quarantines failing backends behind per-rung circuit
//! breakers, and degrades through an ordered fallback chain
//!
//! ```text
//! DetailedSim -> HwReferenceEngine -> SweepEngine {parallel_threads, 1}
//!     -> SweepEngine {parallel_threads, tile_depth} -> SweepEngine {1, 1}
//!     -> KrylovEngine (steady-state jobs only) -> EstimateEngine
//! ```
//!
//! until something serves the job. Every admitted job terminates with a
//! definite [`ServiceReport`] naming the rung that served it (or the
//! error that ended it) and every attempt along the way. The three
//! software rungs are one [`SweepEngine`] on three [`SweepPlan`]s
//! `{threads, tile_depth}`, driven by one runner.
//!
//! # Determinism
//!
//! The service never reads wall-clock time. Deadlines and breaker
//! cool-downs are measured in *iterations executed* and *jobs
//! submitted* respectively, and each job draws its fault schedule from
//! [`FaultCampaign::for_job`] keyed by its [`JobId`] — so a run with the
//! same master seed and submission order replays bit-for-bit, which is
//! what the chaos/soak harness relies on.
//!
//! # Deadline contract
//!
//! A job admitted at service clock `t` must finish by `t +
//! deadline_iterations`. The budget gate runs *before* each engine
//! step, so an iterative rung never executes past the job's remaining
//! budget; once the budget is gone only the O(1) analytic rung can
//! serve (a degraded answer, but an on-time one). Queue wait burns the
//! same budget — a service whose `queue_capacity x max_job_iterations`
//! exceeds `deadline_iterations` can leave a tail job with nothing but
//! the analytic rung, which is exactly what the `FDX011` lint warns
//! about.

use crate::accelerator::HwUpdateMethod;
use crate::config::FdmaxConfig;
use crate::durability::{
    self, BreakerImage, DurabilityConfig, JobJournal, JournalRecord, RecoverySummary,
    ServiceStateImage,
};
use crate::elastic::ElasticConfig;
use crate::engine::{EngineStateImage, EstimateEngine, HwReferenceEngine};
use crate::resilience::{FdmaxError, RecoveryReport, ResiliencePolicy};
use crate::sim::DetailedSim;
use core::fmt;
use fdm::convergence::StopCondition;
use fdm::engine::{Budget, CancelToken, Session, SolveEngine, SweepEngine, SweepPlan};
use fdm::grid::Grid2D;
use fdm::pde::StencilProblem;
use fdm::solver::krylov::KrylovEngine;
use memmodel::faults::FaultCampaign;
use memmodel::FaultInjector;
use std::collections::VecDeque;

pub mod frontend;

/// Identifier of one submitted job, unique within a service instance.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct JobId(pub u64);

impl fmt::Display for JobId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "job#{}", self.0)
    }
}

/// Identifier of the tenant a job belongs to. The single-tenant default
/// is tenant 0; the multi-tenant front end keys its fair queues, quotas
/// and brownout ladder on this field.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TenantId(pub u64);

impl fmt::Display for TenantId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "tenant#{}", self.0)
    }
}

/// One solve request.
#[derive(Clone, Debug, PartialEq)]
pub struct JobSpec {
    /// The discretized problem to solve.
    pub problem: StencilProblem<f32>,
    /// Hardware update method for the accelerator rungs.
    pub method: HwUpdateMethod,
    /// Requested stop condition (clamped to the service's per-job
    /// iteration cap at execution time).
    pub stop: StopCondition,
    /// Overrides the service's per-job fault campaign when set (e.g. a
    /// known-clean probe); `None` derives one from the master campaign
    /// via [`FaultCampaign::for_job`].
    pub campaign: Option<FaultCampaign>,
    /// The submitting tenant (defaults to [`TenantId`] 0).
    pub tenant: TenantId,
    /// First rung of the fallback chain this job may use. The default,
    /// [`Rung::Detailed`], is the full chain; the front end's brownout
    /// ladder degrades low-priority tenants by entering lower (cheaper)
    /// rungs instead of rejecting them. Rungs above the entry are
    /// recorded as [`AttemptDisposition::SkippedBrownout`]; the
    /// terminal [`Rung::Estimate`] is always reachable.
    pub entry_rung: Rung,
}

impl JobSpec {
    /// A job with the service-derived fault campaign.
    pub fn new(problem: StencilProblem<f32>, method: HwUpdateMethod, stop: StopCondition) -> Self {
        JobSpec {
            problem,
            method,
            stop,
            campaign: None,
            tenant: TenantId::default(),
            entry_rung: Rung::Detailed,
        }
    }

    /// Pins an explicit fault campaign for this job.
    #[must_use]
    pub fn with_campaign(mut self, campaign: FaultCampaign) -> Self {
        self.campaign = Some(campaign);
        self
    }

    /// Tags the job with a tenant.
    #[must_use]
    pub fn with_tenant(mut self, tenant: TenantId) -> Self {
        self.tenant = tenant;
        self
    }

    /// Starts the fallback chain at `rung` (brownout degradation).
    #[must_use]
    pub fn with_entry_rung(mut self, rung: Rung) -> Self {
        self.entry_rung = rung;
        self
    }
}

/// Receipt for an admitted job: its id plus the cooperative
/// cancellation handle (cancel it any time; the engine loop observes
/// the token between steps).
#[derive(Clone, Debug)]
#[must_use = "the ticket holds the job's cancellation handle"]
pub struct JobTicket {
    /// The admitted job's id.
    pub id: JobId,
    /// Cancels the job; safe to trigger while queued or mid-solve.
    pub cancel: CancelToken,
}

/// Why a submission was refused at the door.
#[derive(Clone, Debug, PartialEq)]
pub enum SubmitError {
    /// The admission queue is full; retry after `retry_after_jobs` jobs
    /// have drained.
    Saturated {
        /// Jobs currently queued.
        queue_depth: usize,
        /// Completed jobs to wait for before resubmitting.
        retry_after_jobs: usize,
        /// Honest retry hint on the service clock: the expected
        /// iterations until a slot frees, derived from the measured
        /// per-job drain rate (an EWMA of completed jobs' iteration
        /// counts), not a static constant. Shrinks as the service
        /// drains faster than configured worst case.
        retry_after_iterations: u64,
    },
    /// The job can never run (e.g. a grid without an interior).
    Rejected(FdmaxError),
}

impl fmt::Display for SubmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SubmitError::Saturated {
                queue_depth,
                retry_after_jobs,
                retry_after_iterations,
            } => write!(
                f,
                "service saturated ({queue_depth} queued); retry after {retry_after_jobs} job(s) \
                 (~{retry_after_iterations} iterations)"
            ),
            SubmitError::Rejected(e) => write!(f, "job rejected: {e}"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// The ordered fallback chain, most capable first.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Rung {
    /// Cycle-accurate [`DetailedSim`] with the job's fault campaign.
    Detailed,
    /// Hardware-semantics [`HwReferenceEngine`] (bit-exact, no timing).
    Reference,
    /// Strip-parallel software sweeps: [`SweepEngine`] on the plan
    /// `{parallel_threads, 1}`, row bands on scoped threads,
    /// bit-identical to the serial sweeps.
    Parallel,
    /// Temporal wavefront tiling: [`SweepEngine`] on the plan
    /// `{parallel_threads, tile_depth}`, fusing `tile_depth` sweeps per
    /// cache pass over the strip decomposition, trading the per-sweep
    /// norm cadence (residual histories become epoch-granular) for
    /// ~`tile_depth`× less memory traffic. Only the
    /// data-parallel sweeps tile; other jobs skip through as
    /// [`AttemptDisposition::SkippedNotApplicable`].
    Tiled,
    /// Serial software sweeps: [`SweepEngine`] on [`SweepPlan::SERIAL`].
    Software,
    /// Matrix-free conjugate gradients
    /// ([`KrylovEngine`]): converges
    /// in far fewer iterations than any sweep, but only applies to
    /// steady-state jobs (time-dependent jobs skip it as
    /// [`AttemptDisposition::SkippedNotApplicable`]).
    Krylov,
    /// Analytic [`EstimateEngine`]: O(1), always on time, no numeric
    /// solution — the terminal guarantee rung.
    Estimate,
}

impl Rung {
    /// The chain in fallback order.
    pub const ALL: [Rung; 7] = [
        Rung::Detailed,
        Rung::Reference,
        Rung::Parallel,
        Rung::Tiled,
        Rung::Software,
        Rung::Krylov,
        Rung::Estimate,
    ];

    /// Position in the chain (0 = most capable).
    pub fn index(self) -> usize {
        match self {
            Rung::Detailed => 0,
            Rung::Reference => 1,
            Rung::Parallel => 2,
            Rung::Tiled => 3,
            Rung::Software => 4,
            Rung::Krylov => 5,
            Rung::Estimate => 6,
        }
    }
}

impl fmt::Display for Rung {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Rung::Detailed => "detailed-sim",
            Rung::Reference => "hw-reference",
            Rung::Parallel => "software-parallel",
            Rung::Tiled => "software-tiled",
            Rung::Software => "software",
            Rung::Krylov => "krylov",
            Rung::Estimate => "estimate",
        })
    }
}

/// Circuit-breaker states (classic closed → open → half-open machine,
/// with the cool-down measured in submitted jobs, not wall time).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum BreakerState {
    /// Healthy: jobs flow through.
    #[default]
    Closed,
    /// Quarantined after consecutive failures; the rung is skipped until
    /// the cool-down elapses.
    Open,
    /// Cool-down elapsed: the next job probes the rung; success closes
    /// the breaker, failure re-opens it.
    HalfOpen,
}

impl fmt::Display for BreakerState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            BreakerState::Closed => "closed",
            BreakerState::Open => "open",
            BreakerState::HalfOpen => "half-open",
        })
    }
}

/// Tuning of the per-rung circuit breakers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BreakerConfig {
    /// Consecutive failures that trip Closed -> Open.
    pub open_after: u32,
    /// Job submissions to wait in Open before probing (Open ->
    /// `HalfOpen`). The deterministic stand-in for a wall-clock cool-down.
    pub cooldown_jobs: u32,
    /// Consecutive probe successes that close a `HalfOpen` breaker.
    pub close_after: u32,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig {
            open_after: 3,
            cooldown_jobs: 8,
            close_after: 1,
        }
    }
}

/// One observed breaker state change, stamped with the submission clock
/// (total jobs submitted when it happened).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BreakerTransition {
    /// Jobs submitted to the service when the transition fired.
    pub at_submission: u64,
    /// The rung whose breaker moved.
    pub rung: Rung,
    /// State before.
    pub from: BreakerState,
    /// State after.
    pub to: BreakerState,
}

/// One per-rung breaker.
#[derive(Clone, Copy, Debug)]
struct CircuitBreaker {
    config: BreakerConfig,
    state: BreakerState,
    consecutive_failures: u32,
    cooldown_remaining: u32,
    probe_successes: u32,
}

impl CircuitBreaker {
    fn new(config: BreakerConfig) -> Self {
        CircuitBreaker {
            config,
            state: BreakerState::Closed,
            consecutive_failures: 0,
            cooldown_remaining: 0,
            probe_successes: 0,
        }
    }

    /// Runtime state as a persistable image (the config is not
    /// persisted; restore pairs the image with the live config).
    fn image(&self) -> BreakerImage {
        BreakerImage {
            state: match self.state {
                BreakerState::Closed => 0,
                BreakerState::Open => 1,
                BreakerState::HalfOpen => 2,
            },
            consecutive_failures: self.consecutive_failures,
            cooldown_remaining: self.cooldown_remaining,
            probe_successes: self.probe_successes,
        }
    }

    /// Rebuilds a breaker from a persisted image.
    fn restore(config: BreakerConfig, image: &BreakerImage) -> Self {
        CircuitBreaker {
            config,
            state: match image.state {
                1 => BreakerState::Open,
                2 => BreakerState::HalfOpen,
                _ => BreakerState::Closed,
            },
            consecutive_failures: image.consecutive_failures,
            cooldown_remaining: image.cooldown_remaining,
            probe_successes: image.probe_successes,
        }
    }

    fn admits(&self) -> bool {
        self.state != BreakerState::Open
    }

    /// Submission tick: Open breakers count down toward a probe.
    fn on_submit(&mut self) -> Option<(BreakerState, BreakerState)> {
        if self.state == BreakerState::Open {
            self.cooldown_remaining = self.cooldown_remaining.saturating_sub(1);
            if self.cooldown_remaining == 0 {
                self.state = BreakerState::HalfOpen;
                self.probe_successes = 0;
                return Some((BreakerState::Open, BreakerState::HalfOpen));
            }
        }
        None
    }

    /// `clean` is false when the rung served only after recovery
    /// actions: that neither counts against the rung nor proves it
    /// healthy, so the failure streak is left untouched.
    fn on_success(&mut self, clean: bool) -> Option<(BreakerState, BreakerState)> {
        match self.state {
            BreakerState::Closed => {
                if clean {
                    self.consecutive_failures = 0;
                }
                None
            }
            BreakerState::HalfOpen => {
                self.probe_successes += 1;
                if self.probe_successes >= self.config.close_after {
                    self.state = BreakerState::Closed;
                    self.consecutive_failures = 0;
                    Some((BreakerState::HalfOpen, BreakerState::Closed))
                } else {
                    None
                }
            }
            BreakerState::Open => None,
        }
    }

    fn on_failure(&mut self) -> Option<(BreakerState, BreakerState)> {
        match self.state {
            BreakerState::HalfOpen => {
                self.trip();
                Some((BreakerState::HalfOpen, BreakerState::Open))
            }
            BreakerState::Closed => {
                self.consecutive_failures += 1;
                if self.consecutive_failures >= self.config.open_after {
                    self.trip();
                    Some((BreakerState::Closed, BreakerState::Open))
                } else {
                    None
                }
            }
            BreakerState::Open => None,
        }
    }

    fn trip(&mut self) {
        self.state = BreakerState::Open;
        self.cooldown_remaining = self.config.cooldown_jobs.max(1);
    }
}

/// What happened when the service tried one rung for one job.
#[derive(Clone, Debug, PartialEq)]
pub enum AttemptDisposition {
    /// The rung produced the job's answer.
    Served,
    /// The rung's breaker was open; it was not attempted.
    SkippedBreakerOpen,
    /// The job's iteration budget was already exhausted; an iterative
    /// rung could not have finished in time.
    SkippedBudgetExhausted,
    /// The rung does not apply to this job's problem class (e.g.
    /// [`Rung::Krylov`] on a time-dependent job). Not a backend failure:
    /// the breaker is untouched.
    SkippedNotApplicable,
    /// The rung lies above the job's brownout entry rung
    /// ([`JobSpec::entry_rung`]); the front end degraded this job to a
    /// cheaper part of the chain. Not a backend failure: the breaker is
    /// untouched.
    SkippedBrownout,
    /// The rung ran as one side of a hedged race and lost: the other
    /// side produced the answer first and this attempt was cancelled.
    /// Not a backend failure: the breaker is untouched, and the side's
    /// iterations are tallied in
    /// [`ServiceStats::hedge_wasted_iterations`] rather than billed to
    /// the job's deadline clock.
    HedgeLost,
    /// The rung ran and failed with this error.
    Failed(FdmaxError),
}

/// One entry of a job's fallback trace.
#[derive(Clone, Debug, PartialEq)]
pub struct RungAttempt {
    /// The rung tried.
    pub rung: Rung,
    /// How the attempt ended.
    pub disposition: AttemptDisposition,
    /// Engine steps actually executed by this attempt (budget currency;
    /// rollback replays count, the analytic rung charges zero).
    pub iterations: u64,
}

/// Final disposition of one job.
#[derive(Clone, Debug, PartialEq)]
pub enum JobOutcome {
    /// A rung produced the answer.
    Served {
        /// The rung that served.
        rung: Rung,
        /// `true` when a rung below [`Rung::Detailed`] served.
        degraded: bool,
    },
    /// The job's cancellation token fired (while queued or mid-solve).
    Cancelled {
        /// Engine steps this job had executed when cancellation was
        /// observed.
        iteration: u64,
    },
    /// Every rung failed or was skipped; the last error is attached.
    Failed(FdmaxError),
}

/// The definite record every admitted job terminates with.
#[derive(Clone, Debug)]
#[must_use = "a service report records which rung served the job and why"]
pub struct ServiceReport {
    /// The job this report describes.
    pub job: JobId,
    /// Final disposition.
    pub outcome: JobOutcome,
    /// Every rung attempt, in chain order.
    pub attempts: Vec<RungAttempt>,
    /// Service clock (total iterations executed) at admission.
    pub admitted_at: u64,
    /// Service clock when the job was dequeued for execution.
    pub started_at: u64,
    /// Service clock when the job terminated.
    pub completed_at: u64,
    /// The job's deadline on the service clock
    /// (`admitted_at + deadline_iterations`).
    pub deadline_at: u64,
    /// Engine steps this job executed across all attempts.
    pub iterations: u64,
    /// Whether the serving rung met the job's stop-condition goal
    /// (always `false` for the analytic rung).
    pub converged: bool,
    /// Simulated-cycle cost of the job: real simulator cycles for
    /// [`Rung::Detailed`] attempts (failed ones included — burned work
    /// was still burned), analytic-model cycles for the other rungs.
    pub latency_cycles: u64,
    /// Fault/recovery activity of the detailed-simulator attempt, when
    /// one ran.
    pub recovery: Option<RecoveryReport>,
    /// The numeric solution (`None` when the analytic rung served or
    /// the job did not complete).
    pub solution: Option<Grid2D<f32>>,
}

impl ServiceReport {
    /// The rung that served, when one did.
    pub fn served_by(&self) -> Option<Rung> {
        match self.outcome {
            JobOutcome::Served { rung, .. } => Some(rung),
            _ => None,
        }
    }

    /// `true` when the job was served by a rung below the full
    /// simulator.
    pub fn degraded(&self) -> bool {
        matches!(self.outcome, JobOutcome::Served { degraded: true, .. })
    }

    /// `true` when the job terminated at or before its deadline.
    pub fn deadline_met(&self) -> bool {
        self.completed_at <= self.deadline_at
    }

    /// FNV-1a digest over the report's deterministic payload (outcome,
    /// clocks, iteration/latency ledger, fault-trace digest, and every
    /// solution bit). Two runs of the same job from the same service
    /// state — e.g. an uninterrupted run and a crash-recovered
    /// replay — produce the same digest.
    pub fn digest(&self) -> u64 {
        use crate::durability::{fnv1a, FNV_OFFSET};
        let mut h = FNV_OFFSET;
        let put = |h: u64, v: u64| fnv1a(h, &v.to_le_bytes());
        h = put(h, self.job.0);
        h = match &self.outcome {
            JobOutcome::Served { rung, degraded } => put(
                put(fnv1a(h, b"served"), rung.index() as u64),
                u64::from(*degraded),
            ),
            JobOutcome::Cancelled { iteration } => put(fnv1a(h, b"cancelled"), *iteration),
            JobOutcome::Failed(err) => fnv1a(fnv1a(h, b"failed"), err.to_string().as_bytes()),
        };
        for v in [
            self.admitted_at,
            self.started_at,
            self.completed_at,
            self.deadline_at,
            self.iterations,
            u64::from(self.converged),
            self.latency_cycles,
        ] {
            h = put(h, v);
        }
        h = put(
            h,
            self.recovery
                .as_ref()
                .and_then(|r| r.fault_trace_digest)
                .unwrap_or(0),
        );
        if let Some(solution) = &self.solution {
            h = put(h, solution.rows() as u64);
            h = put(h, solution.cols() as u64);
            for v in solution.as_slice() {
                h = fnv1a(h, &v.to_bits().to_le_bytes());
            }
        }
        h
    }
}

/// Tuning of the deterministic hedged-retry trigger.
///
/// When an attempt at a hedge-eligible rung ([`Rung::Reference`],
/// [`Rung::Parallel`], [`Rung::Software`]) has run for the configured
/// percentile of that rung's recent service times without finishing,
/// the service launches the *next* rung of the chain as a hedge and
/// interleaves both in deterministic virtual time; the first result
/// wins and the loser is cancelled through its [`CancelToken`]. Only
/// the winner's virtual completion time is billed to the job's
/// deadline clock (the hedge models a spare lane); the loser's burned
/// iterations land in [`ServiceStats::hedge_wasted_iterations`].
///
/// [`Rung::Detailed`] never hedges (its fault campaign and recovery
/// ledger belong to exactly one simulator instance) and a hedge is
/// never launched at the terminal [`Rung::Estimate`] — a chain whose
/// next rung is `Estimate` makes the hedge vacuous, which is what the
/// `FDX021` lint flags.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HedgeConfig {
    /// Percentile (1–100) of the rung's recent service times used as
    /// the hedge trigger; 90 hedges the slowest ~10% of attempts.
    pub percentile: u8,
    /// Recorded service-time samples a rung needs before hedging arms
    /// (at most the ring capacity of 8).
    pub min_samples: u8,
}

impl Default for HedgeConfig {
    fn default() -> Self {
        HedgeConfig {
            percentile: 90,
            min_samples: 4,
        }
    }
}

/// Ring of recent per-rung attempt service times (iterations) backing
/// the hedge trigger. Fixed capacity keeps the persisted service image
/// `Copy` and recovery bit-exact.
#[derive(Clone, Copy, Debug, Default)]
struct LatencyRing {
    samples: [u64; 8],
    len: u8,
    pos: u8,
}

impl LatencyRing {
    fn push(&mut self, v: u64) {
        self.samples[usize::from(self.pos)] = v;
        self.pos = (self.pos + 1) % 8;
        self.len = (self.len + 1).min(8);
    }

    /// The `pct`-th percentile of the recorded samples (nearest-rank on
    /// the sorted window); `None` while empty.
    fn percentile(&self, pct: u8) -> Option<u64> {
        if self.len == 0 {
            return None;
        }
        let mut sorted = self.samples[..usize::from(self.len)].to_vec();
        sorted.sort_unstable();
        let idx = (sorted.len() - 1) * usize::from(pct.min(100)) / 100;
        Some(sorted[idx])
    }
}

/// Tuning of a [`SolveService`].
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// The accelerator configuration every hardware rung runs on.
    pub accel: FdmaxConfig,
    /// Bounded admission queue depth; submissions beyond it are refused
    /// with [`SubmitError::Saturated`].
    pub queue_capacity: usize,
    /// Per-job deadline on the service clock, in iterations, counted
    /// from admission (queue wait included).
    pub deadline_iterations: u64,
    /// Hard cap on any single job's iteration count (clamps the
    /// requested stop condition).
    pub max_job_iterations: usize,
    /// Master fault campaign; each job runs under
    /// `campaign.for_job(id)` unless its spec pins one.
    pub campaign: FaultCampaign,
    /// Checkpoint/rollback policy for the detailed-simulator rung.
    pub policy: ResiliencePolicy,
    /// Circuit-breaker tuning, shared by all rungs.
    pub breaker: BreakerConfig,
    /// Stall-watchdog window (iterations); 0 disables the watchdog.
    /// Armed only for tolerance-mode jobs — fixed-step runs are under
    /// no obligation to decay.
    pub stall_window: usize,
    /// A solve is stalled when the norm fails to decay below
    /// `earlier * stall_min_decay` over the window.
    pub stall_min_decay: f64,
    /// Worker bands for the strip-parallel software rung. Results are
    /// thread-count invariant (bit-identical), so this only tunes
    /// throughput.
    pub parallel_threads: usize,
    /// Fused sweeps per cache pass on the [`Rung::Tiled`] rung. `<= 1`
    /// disables the rung (every job skips it as not applicable); depths
    /// incompatible with the job geometry are caught at admission by the
    /// FDX022 lint.
    pub tile_depth: usize,
    /// Durability settings: `Some` wires a write-ahead job journal and
    /// persisted checkpoints under
    /// [`DurabilityConfig::journal_dir`]; `None` keeps the service
    /// purely in-memory.
    pub durability: Option<DurabilityConfig>,
    /// Runs the static solve-plan analysis ([`crate::analysis`]) at
    /// admission and rejects jobs with Error-level findings (FDX015
    /// convergence-budget infeasibility, FDX016 precision-floor
    /// violations) instead of burning their deadline discovering the
    /// same thing dynamically. Disable to admit every structurally
    /// valid job (e.g. to exercise the watchdog paths).
    pub admission_analysis: bool,
    /// Identity of this service inside a worker pool. Stamped on every
    /// `AttemptStarted` journal record so a recovered pool can tell
    /// which worker ran what; each worker owns its own breakers, so
    /// breaker accounting is per-rung *and* per-worker.
    pub worker_id: u32,
    /// Deterministic hedged-retry policy; `None` (the default)
    /// disables hedging.
    pub hedge: Option<HedgeConfig>,
}

impl ServiceConfig {
    /// Defaults sized so the FDX011 invariant holds:
    /// `queue_capacity x max_job_iterations <= deadline_iterations`.
    pub fn new(accel: FdmaxConfig) -> Self {
        ServiceConfig {
            accel,
            queue_capacity: 16,
            deadline_iterations: 20_000,
            max_job_iterations: 1_000,
            campaign: FaultCampaign::disabled(),
            policy: ResiliencePolicy::default(),
            breaker: BreakerConfig::default(),
            stall_window: 0,
            stall_min_decay: 0.999_999,
            parallel_threads: 4,
            tile_depth: 4,
            durability: None,
            admission_analysis: true,
            worker_id: 0,
            hedge: None,
        }
    }

    /// Enables deterministic hedged retries.
    #[must_use]
    pub fn with_hedge(mut self, hedge: HedgeConfig) -> Self {
        self.hedge = Some(hedge);
        self
    }

    /// Enables the write-ahead job journal and persisted checkpoints.
    #[must_use]
    pub fn with_durability(mut self, durability: DurabilityConfig) -> Self {
        self.durability = Some(durability);
        self
    }

    /// Runs the FDX011 sizing lint over this configuration.
    ///
    /// Warns when `queue_capacity x max_job_iterations` exceeds
    /// `deadline_iterations`: a tail job behind a full queue can then
    /// burn its whole deadline budget waiting and be served only by the
    /// degraded analytic rung.
    pub fn lint(&self) -> crate::lint::LintReport {
        crate::lint::lint_service(&self.lint_spec())
    }

    /// This configuration as a [`crate::lint::ServiceSpec`], e.g. for
    /// fleet-wide linting via [`crate::lint::lint_service_fleet`].
    pub fn lint_spec(&self) -> crate::lint::ServiceSpec {
        crate::lint::ServiceSpec {
            queue_capacity: self.queue_capacity,
            max_job_iterations: self.max_job_iterations,
            deadline_iterations: self.deadline_iterations,
            checkpoint_every: self.durability.as_ref().map(|d| d.checkpoint_every),
            journal_dir: self
                .durability
                .as_ref()
                .map(|d| d.journal_dir.display().to_string()),
        }
    }
}

/// Aggregate tallies of everything the service has processed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// Jobs admitted.
    pub submitted: u64,
    /// Submissions refused (saturation or rejection).
    pub refused: u64,
    /// Jobs served (any rung).
    pub served: u64,
    /// Jobs served by each rung, indexed by [`Rung::index`].
    pub served_by: [u64; 7],
    /// Jobs that ended cancelled.
    pub cancelled: u64,
    /// Jobs that ended failed on every rung.
    pub failed: u64,
    /// Served jobs that missed their deadline (possible only when the
    /// FDX011 sizing invariant is violated).
    pub deadline_misses: u64,
    /// **Loud degradation flag**: `true` once journal I/O has
    /// exhausted its retries and the service fell back to
    /// in-memory-only mode. Jobs keep completing, but a crash from
    /// here on loses them.
    pub journal_degraded: bool,
    /// Journal/checkpoint I/O errors observed (including retries that
    /// eventually succeeded).
    pub journal_io_errors: u64,
    /// Interrupted jobs re-admitted by
    /// [`SolveService::recover`] over this service's lifetime.
    pub recovered_jobs: u64,
    /// Hedged retries launched (a slow attempt crossed its latency
    /// percentile trigger and the next rung was raced against it).
    pub hedges_launched: u64,
    /// Hedged retries where the hedge side produced the job's answer.
    pub hedge_wins: u64,
    /// Iterations burned by losing race sides. Spare-lane work: never
    /// billed to any job's deadline clock, tallied here so capacity
    /// planning sees the overhead hedging really costs.
    pub hedge_wasted_iterations: u64,
}

impl ServiceStats {
    /// Fraction of served jobs that a rung below the full simulator
    /// served.
    pub fn fallback_rate(&self) -> f64 {
        if self.served == 0 {
            return 0.0;
        }
        (self.served - self.served_by[0]) as f64 / self.served as f64
    }
}

/// Where a recovered job resumes: a persisted engine state for one
/// specific rung of the fallback chain. Rungs before it replay from
/// scratch (they are deterministic); the matching rung restores the
/// image and runs only the remaining iterations.
#[derive(Clone, Debug)]
struct ResumePoint {
    rung: Rung,
    image: EngineStateImage,
}

/// A queued job.
#[derive(Clone, Debug)]
struct Job {
    id: JobId,
    spec: JobSpec,
    cancel: CancelToken,
    admitted_at: u64,
    deadline_at: u64,
    resume: Option<ResumePoint>,
}

/// Outcome of running one rung for one job (internal).
struct RungRun {
    result: Result<(bool, Option<Grid2D<f32>>), FdmaxError>,
    executed: u64,
    cycles: u64,
    recovery: Option<RecoveryReport>,
}

/// A hedge-eligible (primary, target) rung pair. Making the pairing a
/// closed enum keeps the engine-type dispatch in
/// [`SolveService::run_hedged`] total: there is no "other" combination
/// to fall through to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum HedgePair {
    /// [`Rung::Reference`] hedged by [`Rung::Parallel`].
    ReferenceParallel,
    /// [`Rung::Parallel`] hedged by [`Rung::Software`].
    ParallelSoftware,
    /// [`Rung::Software`] hedged by [`Rung::Krylov`] (steady-state
    /// jobs only).
    SoftwareKrylov,
}

impl HedgePair {
    fn target(self) -> Rung {
        match self {
            HedgePair::ReferenceParallel => Rung::Parallel,
            HedgePair::ParallelSoftware => Rung::Software,
            HedgePair::SoftwareKrylov => Rung::Krylov,
        }
    }
}

/// Outcome of one deterministic two-engine race (internal).
struct RaceResult {
    /// The winning side's result, or the primary side's error when both
    /// sides failed.
    result: Result<(bool, Option<Grid2D<f32>>), FdmaxError>,
    /// Virtual completion time billed to the job: the winner's finish
    /// on the shared virtual clock (the hedge side starts at the
    /// trigger offset), capped by the deadline budget both sides share.
    billed: u64,
    /// Steps the primary side actually executed.
    primary_executed: u64,
    /// Steps the hedge side actually executed (0 when never launched).
    hedge_executed: u64,
    /// Whether the hedge side was launched at all.
    hedge_launched: bool,
    /// Whether the hedge side produced `result`.
    hedge_won: bool,
    /// The primary side's own error when the hedge won or both failed
    /// (`None` when it was merely cancelled as the losing side).
    primary_error: Option<FdmaxError>,
    /// The hedge side's own error when the primary won or both failed
    /// (`None` when it was merely cancelled as the losing side).
    hedge_error: Option<FdmaxError>,
}

/// Races two engines in deterministic virtual time: the primary runs
/// alone until `hedge_after` steps, then the hedge joins and the side
/// whose virtual clock trails advances next (ties go to the primary),
/// in fixed 8-step slices. The first side to terminate successfully
/// wins and cancels the other through its side-local [`CancelToken`];
/// `job_cancel` (the job's public token) cancels both. Budgets are
/// sized so neither side's virtual finish can exceed the job's
/// remaining deadline budget.
#[allow(clippy::too_many_arguments)]
fn race_engines<A: SolveEngine, B: SolveEngine>(
    stop: &StopCondition,
    job_cancel: &CancelToken,
    p_engine: A,
    p_budget: Budget,
    p_cancel: &CancelToken,
    p_solution: fn(A) -> Grid2D<f32>,
    hedge_after: u64,
    h_engine: B,
    h_budget: Budget,
    h_cancel: &CancelToken,
    h_solution: fn(B) -> Grid2D<f32>,
) -> RaceResult {
    const SLICE: usize = 8;
    let mut p_sess = Session::new(p_engine, *stop).with_budget(p_budget);
    // Phase 1: the primary runs alone up to the trigger, in slices so a
    // job-level cancellation is still observed promptly.
    let mut p_term: Option<Result<bool, FdmaxError>> = None;
    while p_term.is_none() && (p_sess.steps_executed() as u64) < hedge_after {
        if job_cancel.is_cancelled() {
            p_cancel.cancel();
        }
        let rest = (hedge_after - p_sess.steps_executed() as u64).min(SLICE as u64) as usize;
        match p_sess.run_for(rest) {
            Ok(fdm::engine::SessionPoll::Done(met)) => p_term = Some(Ok(met)),
            Ok(fdm::engine::SessionPoll::Yielded) => {}
            Err(e) => p_term = Some(Err(FdmaxError::from(e))),
        }
    }
    if let Some(terminal) = p_term {
        // Finished (or failed) before the trigger: no hedge launched.
        let primary_executed = p_sess.steps_executed() as u64;
        let (engine, _) = p_sess.into_parts();
        return RaceResult {
            result: terminal.map(|met| (met, Some(p_solution(engine)))),
            billed: primary_executed,
            primary_executed,
            hedge_executed: 0,
            hedge_launched: false,
            hedge_won: false,
            primary_error: None,
            hedge_error: None,
        };
    }

    // Phase 2: hedge launched; interleave by virtual time.
    let mut h_sess = Session::new(h_engine, *stop).with_budget(h_budget);
    let mut p_term: Option<Result<bool, FdmaxError>> = None;
    let mut h_term: Option<Result<bool, FdmaxError>> = None;
    let mut hedge_won: Option<bool> = None;
    loop {
        if job_cancel.is_cancelled() {
            p_cancel.cancel();
            h_cancel.cancel();
        }
        let p_now = p_sess.steps_executed() as u64;
        let h_now = hedge_after + h_sess.steps_executed() as u64;
        let advance_primary = match (&p_term, &h_term) {
            (Some(_), Some(_)) => break,
            (None, Some(_)) => true,
            (Some(_), None) => false,
            (None, None) => p_now <= h_now,
        };
        if advance_primary {
            match p_sess.run_for(SLICE) {
                Ok(fdm::engine::SessionPoll::Done(met)) => {
                    p_term = Some(Ok(met));
                    if hedge_won.is_none() {
                        hedge_won = Some(false);
                        h_cancel.cancel();
                    }
                }
                Ok(fdm::engine::SessionPoll::Yielded) => {}
                Err(e) => p_term = Some(Err(FdmaxError::from(e))),
            }
        } else {
            match h_sess.run_for(SLICE) {
                Ok(fdm::engine::SessionPoll::Done(met)) => {
                    h_term = Some(Ok(met));
                    if hedge_won.is_none() {
                        hedge_won = Some(true);
                        p_cancel.cancel();
                    }
                }
                Ok(fdm::engine::SessionPoll::Yielded) => {}
                Err(e) => h_term = Some(Err(FdmaxError::from(e))),
            }
        }
    }

    let primary_executed = p_sess.steps_executed() as u64;
    let hedge_executed = h_sess.steps_executed() as u64;
    let is_cancelled = |e: &FdmaxError| matches!(e, FdmaxError::Cancelled { .. });
    let side_error = |term: &Option<Result<bool, FdmaxError>>| match term {
        Some(Err(e)) if !is_cancelled(e) => Some(e.clone()),
        _ => None,
    };
    let (p_engine, _) = p_sess.into_parts();
    let (h_engine, _) = h_sess.into_parts();
    match hedge_won {
        Some(false) => {
            let met = matches!(p_term, Some(Ok(m)) if m);
            RaceResult {
                result: Ok((met, Some(p_solution(p_engine)))),
                billed: primary_executed,
                primary_executed,
                hedge_executed,
                hedge_launched: true,
                hedge_won: false,
                primary_error: None,
                hedge_error: side_error(&h_term),
            }
        }
        Some(true) => {
            let met = matches!(h_term, Some(Ok(m)) if m);
            RaceResult {
                result: Ok((met, Some(h_solution(h_engine)))),
                billed: hedge_after + hedge_executed,
                primary_executed,
                hedge_executed,
                hedge_launched: true,
                hedge_won: true,
                primary_error: side_error(&p_term),
                hedge_error: None,
            }
        }
        None => {
            // Both sides failed; the primary's error drives the chain.
            let p_err = match p_term {
                Some(Err(e)) => e,
                _ => FdmaxError::Cancelled { iteration: 0 },
            };
            RaceResult {
                result: Err(p_err),
                billed: primary_executed.max(hedge_after + hedge_executed),
                primary_executed,
                hedge_executed,
                hedge_launched: true,
                hedge_won: false,
                primary_error: None,
                hedge_error: side_error(&h_term),
            }
        }
    }
}

/// Durability context threaded into one rung attempt: the journal (if
/// still healthy), the checkpoint cadence, and an optional persisted
/// state to resume from.
struct DurCtx<'a> {
    journal: Option<&'a mut JobJournal>,
    checkpoint_every: u64,
    job_id: u64,
    rung: Rung,
    resume: Option<&'a EngineStateImage>,
}

/// The multi-job solve service.
#[derive(Debug)]
pub struct SolveService {
    config: ServiceConfig,
    queue: VecDeque<Job>,
    next_id: u64,
    submitted: u64,
    /// Total engine steps executed across all jobs — the service clock.
    clock: u64,
    breakers: [CircuitBreaker; 7],
    transitions: Vec<BreakerTransition>,
    stats: ServiceStats,
    journal: Option<JobJournal>,
    /// EWMA of completed jobs' iteration counts — the measured per-job
    /// drain rate behind [`SubmitError::Saturated`]'s
    /// `retry_after_iterations`. Seeded pessimistically with the
    /// per-job iteration cap until the first completion.
    drain_ewma: u64,
    /// Recent per-rung service times feeding the hedge trigger.
    latency: [LatencyRing; 7],
}

impl SolveService {
    /// A fresh service; nothing queued, all breakers closed, clock at
    /// zero. When the configuration carries durability settings the
    /// write-ahead journal is opened (an unwritable journal directory
    /// degrades to in-memory-only mode instead of failing).
    pub fn new(config: ServiceConfig) -> Self {
        let breaker = CircuitBreaker::new(config.breaker);
        let journal = config.durability.as_ref().map(JobJournal::open);
        let drain_ewma = config.max_job_iterations as u64;
        let mut service = SolveService {
            config,
            queue: VecDeque::new(),
            next_id: 0,
            submitted: 0,
            clock: 0,
            breakers: [breaker; 7],
            transitions: Vec::new(),
            stats: ServiceStats::default(),
            journal,
            drain_ewma,
            latency: [LatencyRing::default(); 7],
        };
        service.sync_journal_stats();
        service
    }

    /// Mirrors the journal's health into the public stats.
    fn sync_journal_stats(&mut self) {
        if let Some(journal) = &self.journal {
            self.stats.journal_degraded = journal.degraded();
            self.stats.journal_io_errors = journal.io_errors();
        }
    }

    /// The deterministic service state as a persistable image.
    fn state_image(&self) -> ServiceStateImage {
        let mut breakers = [BreakerImage::default(); 7];
        for (slot, breaker) in breakers.iter_mut().zip(&self.breakers) {
            *slot = breaker.image();
        }
        let mut latency_samples = [[0u64; 8]; 7];
        let mut latency_len = [0u8; 7];
        let mut latency_pos = [0u8; 7];
        for (i, ring) in self.latency.iter().enumerate() {
            latency_samples[i] = ring.samples;
            latency_len[i] = ring.len;
            latency_pos[i] = ring.pos;
        }
        ServiceStateImage {
            clock: self.clock,
            next_id: self.next_id,
            submitted: self.submitted,
            stats: self.stats,
            breakers,
            drain_ewma: self.drain_ewma,
            latency_samples,
            latency_len,
            latency_pos,
        }
    }

    /// The service configuration.
    pub fn config(&self) -> &ServiceConfig {
        &self.config
    }

    /// Total engine steps executed so far (the deadline clock).
    pub fn clock(&self) -> u64 {
        self.clock
    }

    /// Jobs currently waiting.
    pub fn queue_depth(&self) -> usize {
        self.queue.len()
    }

    /// Current breaker state of one rung.
    pub fn breaker_state(&self, rung: Rung) -> BreakerState {
        self.breakers[rung.index()].state
    }

    /// Every breaker transition observed so far, in order.
    pub fn transitions(&self) -> &[BreakerTransition] {
        &self.transitions
    }

    /// Aggregate tallies.
    pub fn stats(&self) -> ServiceStats {
        self.stats
    }

    /// Admits a job (bounded queue, structural validation) and ticks
    /// every open breaker's cool-down — the deterministic stand-in for
    /// elapsed time.
    ///
    /// # Errors
    ///
    /// [`SubmitError::Saturated`] when the queue is full;
    /// [`SubmitError::Rejected`] for jobs that can never run.
    pub fn submit(&mut self, spec: JobSpec) -> Result<JobTicket, SubmitError> {
        self.submit_with_deadline_budget(spec, None)
    }

    /// [`SolveService::submit`] with an explicit per-job deadline
    /// budget (iterations from admission) overriding the configured
    /// [`ServiceConfig::deadline_iterations`]. The front end uses this
    /// to charge a job's own queueing delay in *its* queues against the
    /// same deadline the job would have had at the door.
    ///
    /// # Errors
    ///
    /// As [`SolveService::submit`].
    pub fn submit_with_deadline(
        &mut self,
        spec: JobSpec,
        deadline_iterations: u64,
    ) -> Result<JobTicket, SubmitError> {
        self.submit_with_deadline_budget(spec, Some(deadline_iterations))
    }

    /// Measured per-job drain rate: the EWMA of completed jobs'
    /// iteration counts (seeded with the per-job cap until the first
    /// completion). The currency of
    /// [`SubmitError::Saturated`]'s `retry_after_iterations`.
    pub fn drain_rate(&self) -> u64 {
        self.drain_ewma
    }

    fn submit_with_deadline_budget(
        &mut self,
        spec: JobSpec,
        deadline_iterations: Option<u64>,
    ) -> Result<JobTicket, SubmitError> {
        let rows = spec.problem.rows();
        let cols = spec.problem.cols();
        if rows < 3 || cols < 3 {
            self.stats.refused += 1;
            return Err(SubmitError::Rejected(FdmaxError::GridTooSmall {
                rows,
                cols,
            }));
        }
        if self.config.admission_analysis {
            let analysis = crate::analysis::analyze_plan(
                &self.solve_plan(&spec),
                &self.config.accel,
                Some(&self.config.lint_spec()),
            );
            if analysis.lint().has_errors() {
                self.stats.refused += 1;
                return Err(SubmitError::Rejected(FdmaxError::Lint {
                    report: analysis.into_lint(),
                }));
            }
        }
        if self.queue.len() >= self.config.queue_capacity {
            self.stats.refused += 1;
            let retry_after_jobs = self.queue.len() + 1 - self.config.queue_capacity;
            return Err(SubmitError::Saturated {
                queue_depth: self.queue.len(),
                retry_after_jobs,
                retry_after_iterations: retry_after_jobs as u64 * self.drain_ewma,
            });
        }

        let id = JobId(self.next_id);
        self.next_id += 1;
        self.submitted += 1;
        self.stats.submitted += 1;

        // Cool-down tick: open breakers move toward their probe on
        // every accepted submission.
        for rung in Rung::ALL {
            if let Some((from, to)) = self.breakers[rung.index()].on_submit() {
                self.transitions.push(BreakerTransition {
                    at_submission: self.submitted,
                    rung,
                    from,
                    to,
                });
            }
        }

        let admitted_at = self.clock;
        let deadline_at =
            self.clock + deadline_iterations.unwrap_or(self.config.deadline_iterations);
        // Write-ahead: the admission is durable before the caller ever
        // sees the ticket, so every ticket has a journal record.
        if let Some(journal) = self.journal.as_mut() {
            journal.append(&JournalRecord::Submitted {
                id: id.0,
                admitted_at,
                deadline_at,
                spec: spec.clone(),
            });
        }
        self.sync_journal_stats();
        let cancel = CancelToken::new();
        self.queue.push_back(Job {
            id,
            spec,
            cancel: cancel.clone(),
            admitted_at,
            deadline_at,
            resume: None,
        });
        Ok(JobTicket { id, cancel })
    }

    /// Runs the oldest queued job through the fallback chain; `None`
    /// when the queue is empty.
    pub fn run_next(&mut self) -> Option<ServiceReport> {
        let job = self.queue.pop_front()?;
        Some(self.execute(&job))
    }

    /// Runs every queued job to completion, in admission order.
    pub fn drain(&mut self) -> Vec<ServiceReport> {
        let mut reports = Vec::with_capacity(self.queue.len());
        while let Some(report) = self.run_next() {
            reports.push(report);
        }
        reports
    }

    /// The requested stop condition clamped to the service's per-job
    /// iteration cap.
    fn effective_stop(&self, spec: &JobSpec) -> StopCondition {
        spec.stop.clamped(self.config.max_job_iterations)
    }

    /// The solve plan the admission analyzer sees for `spec`: the job's
    /// grid, method, stop condition and data scale (largest finite
    /// `|value|` of the initial field — NaN-poisoned or all-zero fields
    /// yield scale 0, which skips the scale-dependent checks).
    fn solve_plan(&self, spec: &JobSpec) -> crate::analysis::SolvePlan {
        let scale = spec
            .problem
            .initial
            .as_slice()
            .iter()
            .map(|v| f64::from(v.abs()))
            .filter(|v| v.is_finite())
            .fold(0.0_f64, f64::max);
        crate::analysis::SolvePlan {
            rows: spec.problem.rows(),
            cols: spec.problem.cols(),
            method: spec.method,
            tolerance: spec.stop.tolerance_value(),
            requested_iterations: spec.stop.max_iterations(),
            precision: crate::analysis::PrecisionClass::F32,
            steady_state: spec.problem.is_steady_state(),
            scale,
            parallel_threads: self.config.parallel_threads,
            tile_depth: self.config.tile_depth,
        }
    }

    fn budget_for(&self, job: &Job, stop: &StopCondition, remaining: u64) -> Budget {
        let mut budget = Budget::deadline(remaining as usize).with_cancel(job.cancel.clone());
        if self.config.stall_window > 0 && stop.tolerance_value().is_some() {
            budget =
                budget.with_stall_watchdog(self.config.stall_window, self.config.stall_min_decay);
        }
        budget
    }

    /// Analytic cycle cost of `iterations` iterations of this job's
    /// problem (the latency currency for the non-simulated rungs).
    fn analytic_cycles(&self, spec: &JobSpec, iterations: u64) -> u64 {
        match ElasticConfig::try_plan(&self.config.accel, spec.problem.rows(), spec.problem.cols())
        {
            Ok(_) => {
                let mut engine = EstimateEngine::new(
                    self.config.accel,
                    spec.problem.rows(),
                    spec.problem.cols(),
                    spec.problem.offset.requires_buffer(),
                    spec.problem.stencil.has_self_term(),
                    iterations,
                );
                engine.begin();
                let _ = engine.step();
                engine.finish();
                engine.into_report().cycles()
            }
            Err(_) => 0,
        }
    }

    fn run_detailed(&self, job: &Job, stop: &StopCondition, remaining: u64) -> RungRun {
        let campaign = job
            .spec
            .campaign
            .unwrap_or_else(|| self.config.campaign.for_job(job.id.0));
        let mut sim = match DetailedSim::new(self.config.accel, &job.spec.problem, job.spec.method)
        {
            Ok(sim) => sim,
            Err(e) => {
                return RungRun {
                    result: Err(e),
                    executed: 0,
                    cycles: 0,
                    recovery: None,
                }
            }
        };
        sim.enable_faults(campaign);
        let mut session = Session::new(&mut sim, *stop)
            .with_policy(self.config.policy)
            .with_budget(self.budget_for(job, stop, remaining));
        let run = session.run();
        let executed = session.steps_executed() as u64;
        drop(session);
        let digest = sim.fault_injector().map(FaultInjector::trace_digest);
        let mut recovery = RecoveryReport::from_counters(sim.counters());
        recovery.fault_trace_digest = digest;
        let cycles = sim.counters().cycles;
        RungRun {
            result: run
                .map(|met| (met, Some(sim.solution().clone())))
                .map_err(|e| FdmaxError::from(e).with_fault_trace_digest(digest)),
            executed,
            cycles,
            recovery: Some(recovery),
        }
    }

    /// Drives one deterministic engine through a [`Session`]: restores
    /// a resume image when one is supplied (the attempt then runs only
    /// the remaining iterations but reports the *total* executed, so
    /// the service clock advances exactly as an uninterrupted run
    /// would), and streams checkpoints to the journal at the
    /// configured cadence. The clock is billed in sweeps: the session
    /// converts the deadline and stall window into the steps of an
    /// engine that fuses several sweeps per step.
    fn run_engine<E: SolveEngine>(
        &self,
        job: &Job,
        stop: &StopCondition,
        remaining: u64,
        mut dur: DurCtx<'_>,
        mut engine: E,
        solution_of: fn(E) -> Grid2D<f32>,
    ) -> RungRun {
        let mut base = 0u64;
        if let Some(image) = dur.resume.take() {
            if engine.restore_state(image) {
                base = image.iterations as u64;
            }
        }
        let budget = self.budget_for(job, stop, remaining.saturating_sub(base));
        let mut session = Session::new(engine, *stop).with_budget(budget);
        if dur.checkpoint_every > 0 {
            if let Some(journal) = dur.journal.take() {
                let (job_id, rung) = (dur.job_id, dur.rung);
                session = session.with_state_sink(dur.checkpoint_every as usize, move |image| {
                    // Record only checkpoints whose file landed: a
                    // `CheckpointTaken` must always point at a
                    // complete snapshot.
                    if let Some(name) = journal.write_checkpoint(job_id, rung, image) {
                        journal.append(&JournalRecord::CheckpointTaken {
                            id: job_id,
                            rung,
                            iteration: image.iterations as u64,
                            snapshot_ref: name,
                        });
                    }
                });
            }
        }
        let run = session.run();
        let executed = base + session.sweeps_executed() as u64;
        let (engine, _history) = session.into_parts();
        RungRun {
            result: run
                .map(|met| (met, Some(solution_of(engine))))
                .map_err(FdmaxError::from),
            executed,
            cycles: self.analytic_cycles(&job.spec, executed),
            recovery: None,
        }
    }

    fn run_reference(
        &self,
        job: &Job,
        stop: &StopCondition,
        remaining: u64,
        dur: DurCtx<'_>,
    ) -> RungRun {
        let elastic = match ElasticConfig::try_plan(
            &self.config.accel,
            job.spec.problem.rows(),
            job.spec.problem.cols(),
        ) {
            Ok(e) => e,
            Err(e) => {
                return RungRun {
                    result: Err(e),
                    executed: 0,
                    cycles: 0,
                    recovery: None,
                }
            }
        };
        let engine = HwReferenceEngine::with_elastic(
            &self.config.accel,
            &job.spec.problem,
            job.spec.method,
            elastic,
        );
        self.run_engine(
            job,
            stop,
            remaining,
            dur,
            engine,
            HwReferenceEngine::into_solution,
        )
    }

    /// The [`SweepEngine`] serving one of the three software rungs, on
    /// that rung's plan.
    fn sweep_engine<'j>(&self, job: &'j Job, rung: Rung) -> SweepEngine<'j, f32> {
        let threads = self.config.parallel_threads;
        let plan = match rung {
            Rung::Parallel => SweepPlan {
                threads,
                tile_depth: 1,
            },
            Rung::Tiled => SweepPlan {
                threads,
                tile_depth: self.config.tile_depth,
            },
            _ => SweepPlan::SERIAL,
        };
        SweepEngine::with_plan(
            &job.spec.problem,
            job.spec.method.software_equivalent(),
            plan,
        )
    }

    /// Matrix-free CG on the job's steady-state system. No assembly, no
    /// checkpoints (conjugacy cannot resume from a field snapshot) — a
    /// detected fault falls through to the next rung.
    fn run_krylov(
        &self,
        job: &Job,
        stop: &StopCondition,
        remaining: u64,
        dur: DurCtx<'_>,
    ) -> RungRun {
        let engine = KrylovEngine::new(&job.spec.problem);
        self.run_engine(
            job,
            stop,
            remaining,
            dur,
            engine,
            KrylovEngine::into_solution,
        )
    }

    /// The terminal rung: an O(1) analytic report of the full requested
    /// solve. Charges no iterations, so it is always on time.
    fn run_estimate(&self, job: &Job, stop: &StopCondition) -> RungRun {
        match ElasticConfig::try_plan(
            &self.config.accel,
            job.spec.problem.rows(),
            job.spec.problem.cols(),
        ) {
            Ok(_) => RungRun {
                result: Ok((false, None)),
                executed: 0,
                cycles: self.analytic_cycles(&job.spec, stop.max_iterations() as u64),
                recovery: None,
            },
            Err(e) => RungRun {
                result: Err(e),
                executed: 0,
                cycles: 0,
                recovery: None,
            },
        }
    }

    /// The hedge pair and trigger for an attempt at `rung`, when the
    /// hedging policy arms: hedging enabled, a hedge-eligible pair, the
    /// target's breaker closed, no resume image pinning the plain
    /// checkpointed path, enough latency samples, and a trigger that
    /// leaves the hedge side a positive budget.
    fn hedge_plan(&self, job: &Job, rung: Rung, remaining: u64) -> Option<(HedgePair, u64)> {
        let hedge = self.config.hedge?;
        let pair = match rung {
            Rung::Reference => HedgePair::ReferenceParallel,
            Rung::Parallel => HedgePair::ParallelSoftware,
            Rung::Software if job.spec.problem.is_steady_state() => HedgePair::SoftwareKrylov,
            _ => return None,
        };
        if !self.breakers[pair.target().index()].admits() {
            return None;
        }
        if job.resume.is_some() {
            return None;
        }
        let ring = &self.latency[rung.index()];
        if ring.len < hedge.min_samples.min(8) {
            return None;
        }
        let trigger = ring.percentile(hedge.percentile)?;
        (trigger > 0 && trigger < remaining).then_some((pair, trigger))
    }

    /// Budget for one side of a hedged race: the side-local token
    /// replaces the job token (losing a race is not a job
    /// cancellation); stall-watchdog semantics match
    /// [`SolveService::budget_for`].
    fn side_budget(&self, stop: &StopCondition, steps: u64, cancel: CancelToken) -> Budget {
        let mut budget = Budget::deadline(steps as usize).with_cancel(cancel);
        if self.config.stall_window > 0 && stop.tolerance_value().is_some() {
            budget =
                budget.with_stall_watchdog(self.config.stall_window, self.config.stall_min_decay);
        }
        budget
    }

    /// Runs one hedged attempt: the pair's primary rung races its
    /// target with the trigger offset. Hedged attempts skip journal
    /// checkpoints (both sides are restartable from scratch and
    /// recovery replays the whole job deterministically).
    fn run_hedged(
        &self,
        job: &Job,
        stop: &StopCondition,
        remaining: u64,
        pair: HedgePair,
        trigger: u64,
    ) -> RaceResult {
        let p_cancel = CancelToken::new();
        let h_cancel = CancelToken::new();
        let p_budget = self.side_budget(stop, remaining, p_cancel.clone());
        let h_budget = self.side_budget(stop, remaining - trigger, h_cancel.clone());
        let no_launch = |result| RaceResult {
            result: Err(result),
            billed: 0,
            primary_executed: 0,
            hedge_executed: 0,
            hedge_launched: false,
            hedge_won: false,
            primary_error: None,
            hedge_error: None,
        };
        match pair {
            HedgePair::ReferenceParallel => {
                let elastic = match ElasticConfig::try_plan(
                    &self.config.accel,
                    job.spec.problem.rows(),
                    job.spec.problem.cols(),
                ) {
                    Ok(e) => e,
                    Err(e) => return no_launch(e),
                };
                let primary = HwReferenceEngine::with_elastic(
                    &self.config.accel,
                    &job.spec.problem,
                    job.spec.method,
                    elastic,
                );
                race_engines(
                    stop,
                    &job.cancel,
                    primary,
                    p_budget,
                    &p_cancel,
                    HwReferenceEngine::into_solution,
                    trigger,
                    self.sweep_engine(job, Rung::Parallel),
                    h_budget,
                    &h_cancel,
                    SweepEngine::into_solution,
                )
            }
            HedgePair::ParallelSoftware => race_engines(
                stop,
                &job.cancel,
                self.sweep_engine(job, Rung::Parallel),
                p_budget,
                &p_cancel,
                SweepEngine::into_solution,
                trigger,
                self.sweep_engine(job, Rung::Software),
                h_budget,
                &h_cancel,
                SweepEngine::into_solution,
            ),
            HedgePair::SoftwareKrylov => race_engines(
                stop,
                &job.cancel,
                self.sweep_engine(job, Rung::Software),
                p_budget,
                &p_cancel,
                SweepEngine::into_solution,
                trigger,
                KrylovEngine::new(&job.spec.problem),
                h_budget,
                &h_cancel,
                KrylovEngine::into_solution,
            ),
        }
    }

    fn execute(&mut self, job: &Job) -> ServiceReport {
        // The journal is taken out of `self` for the duration of the
        // job so rung runners can borrow it mutably alongside `&self`.
        let mut journal = self.journal.take();
        let checkpoint_every = self
            .config
            .durability
            .as_ref()
            .map_or(0, |d| d.checkpoint_every);
        let started_at = self.clock;
        let stop = self.effective_stop(&job.spec);
        let mut attempts = Vec::new();
        let mut iterations = 0u64;
        let mut latency_cycles = 0u64;
        let mut recovery: Option<RecoveryReport> = None;
        let mut last_error: Option<FdmaxError> = None;
        let mut outcome: Option<JobOutcome> = None;
        let mut converged = false;
        let mut solution = None;

        if job.cancel.is_cancelled() {
            outcome = Some(JobOutcome::Cancelled { iteration: 0 });
        }

        if outcome.is_none() {
            for rung in Rung::ALL {
                let remaining = job.deadline_at.saturating_sub(self.clock);

                // The analytic rung is the terminal guarantee: never
                // skipped for an open breaker, an exhausted budget, or
                // a brownout entry rung.
                if rung != Rung::Estimate {
                    // Brownout: the front end degraded this job to a
                    // cheaper entry; rungs above it are skipped without
                    // feeding the breakers (nothing failed).
                    if rung.index() < job.spec.entry_rung.index() {
                        attempts.push(RungAttempt {
                            rung,
                            disposition: AttemptDisposition::SkippedBrownout,
                            iterations: 0,
                        });
                        continue;
                    }
                    // Temporal tiling needs a data-parallel sweep and a
                    // depth worth fusing; anything else passes straight
                    // through without feeding the breaker (nothing
                    // failed).
                    if rung == Rung::Tiled
                        && (self.config.tile_depth <= 1
                            || !SweepPlan::is_data_parallel(job.spec.method.software_equivalent()))
                    {
                        attempts.push(RungAttempt {
                            rung,
                            disposition: AttemptDisposition::SkippedNotApplicable,
                            iterations: 0,
                        });
                        continue;
                    }
                    // Krylov methods only solve steady-state systems; a
                    // time-dependent job passes straight through without
                    // feeding the breaker (nothing failed).
                    if rung == Rung::Krylov && !job.spec.problem.is_steady_state() {
                        attempts.push(RungAttempt {
                            rung,
                            disposition: AttemptDisposition::SkippedNotApplicable,
                            iterations: 0,
                        });
                        continue;
                    }
                    if !self.breakers[rung.index()].admits() {
                        attempts.push(RungAttempt {
                            rung,
                            disposition: AttemptDisposition::SkippedBreakerOpen,
                            iterations: 0,
                        });
                        continue;
                    }
                    if remaining == 0 {
                        attempts.push(RungAttempt {
                            rung,
                            disposition: AttemptDisposition::SkippedBudgetExhausted,
                            iterations: 0,
                        });
                        continue;
                    }
                }

                if let Some(j) = journal.as_mut() {
                    j.append(&JournalRecord::AttemptStarted {
                        id: job.id.0,
                        rung,
                        clock: self.clock,
                        worker: self.config.worker_id,
                    });
                }

                // Hedged dispatch: a slow attempt at a hedge-eligible
                // rung races the next rung, first result wins.
                if let Some((pair, trigger)) = self.hedge_plan(job, rung, remaining) {
                    let race = self.run_hedged(job, &stop, remaining, pair, trigger);
                    if race.hedge_launched {
                        if let Some(j) = journal.as_mut() {
                            j.append(&JournalRecord::AttemptStarted {
                                id: job.id.0,
                                rung: pair.target(),
                                clock: self.clock + trigger,
                                worker: self.config.worker_id,
                            });
                        }
                        self.stats.hedges_launched += 1;
                        if race.hedge_won {
                            self.stats.hedge_wins += 1;
                            self.stats.hedge_wasted_iterations += race.primary_executed;
                        } else {
                            self.stats.hedge_wasted_iterations += race.hedge_executed;
                        }
                    }
                    self.clock += race.billed;
                    iterations += race.billed;
                    latency_cycles += self.analytic_cycles(&job.spec, race.billed);

                    let clean = !recovery.as_ref().is_some_and(RecoveryReport::recovered);
                    // Primary-side attempt record and breaker feed.
                    let primary_failed = match (&race.result, race.hedge_won) {
                        (Ok(_), false) => {
                            attempts.push(RungAttempt {
                                rung,
                                disposition: AttemptDisposition::Served,
                                iterations: race.primary_executed,
                            });
                            None
                        }
                        (Ok(_), true) => {
                            let disposition = match &race.primary_error {
                                Some(e) => AttemptDisposition::Failed(e.clone()),
                                None => AttemptDisposition::HedgeLost,
                            };
                            attempts.push(RungAttempt {
                                rung,
                                disposition,
                                iterations: race.primary_executed,
                            });
                            race.primary_error.clone()
                        }
                        (Err(e), _) => {
                            attempts.push(RungAttempt {
                                rung,
                                disposition: AttemptDisposition::Failed(e.clone()),
                                iterations: race.primary_executed,
                            });
                            Some(e.clone())
                        }
                    };
                    // Hedge-side attempt record and breaker feed.
                    if race.hedge_launched {
                        let target = pair.target();
                        if race.hedge_won {
                            attempts.push(RungAttempt {
                                rung: target,
                                disposition: AttemptDisposition::Served,
                                iterations: race.hedge_executed,
                            });
                            if let Some((from, to)) =
                                self.breakers[target.index()].on_success(clean)
                            {
                                self.transitions.push(BreakerTransition {
                                    at_submission: self.submitted,
                                    rung: target,
                                    from,
                                    to,
                                });
                            }
                        } else {
                            let disposition = match &race.hedge_error {
                                Some(e) => AttemptDisposition::Failed(e.clone()),
                                None => AttemptDisposition::HedgeLost,
                            };
                            attempts.push(RungAttempt {
                                rung: target,
                                disposition,
                                iterations: race.hedge_executed,
                            });
                            if let Some(err) = &race.hedge_error {
                                if !matches!(err, FdmaxError::DeadlineExceeded { .. }) {
                                    if let Some((from, to)) =
                                        self.breakers[target.index()].on_failure()
                                    {
                                        self.transitions.push(BreakerTransition {
                                            at_submission: self.submitted,
                                            rung: target,
                                            from,
                                            to,
                                        });
                                    }
                                }
                            }
                        }
                    }
                    // Primary breaker feed for a genuine failure.
                    if let Some(err) = &primary_failed {
                        match err {
                            FdmaxError::Cancelled { .. } | FdmaxError::DeadlineExceeded { .. } => {}
                            _ => {
                                if let Some((from, to)) = self.breakers[rung.index()].on_failure() {
                                    self.transitions.push(BreakerTransition {
                                        at_submission: self.submitted,
                                        rung,
                                        from,
                                        to,
                                    });
                                }
                            }
                        }
                    }

                    match race.result {
                        Ok((met, sol)) => {
                            let (winner, winner_time) = if race.hedge_won {
                                (pair.target(), race.hedge_executed)
                            } else {
                                (rung, race.primary_executed)
                            };
                            if !race.hedge_won {
                                if let Some((from, to)) =
                                    self.breakers[rung.index()].on_success(clean)
                                {
                                    self.transitions.push(BreakerTransition {
                                        at_submission: self.submitted,
                                        rung,
                                        from,
                                        to,
                                    });
                                }
                            }
                            self.latency[winner.index()].push(winner_time);
                            converged = met;
                            solution = sol;
                            outcome = Some(JobOutcome::Served {
                                rung: winner,
                                degraded: winner != Rung::Detailed,
                            });
                            break;
                        }
                        Err(err) => {
                            if matches!(err, FdmaxError::Cancelled { .. }) {
                                outcome = Some(JobOutcome::Cancelled {
                                    iteration: iterations,
                                });
                                break;
                            }
                            last_error = Some(err);
                            continue;
                        }
                    }
                }

                let dur = DurCtx {
                    journal: journal.as_mut(),
                    checkpoint_every,
                    job_id: job.id.0,
                    rung,
                    resume: job
                        .resume
                        .as_ref()
                        .filter(|r| r.rung == rung)
                        .map(|r| &r.image),
                };
                let run = match rung {
                    Rung::Detailed => self.run_detailed(job, &stop, remaining),
                    Rung::Reference => self.run_reference(job, &stop, remaining, dur),
                    Rung::Parallel | Rung::Tiled | Rung::Software => self.run_engine(
                        job,
                        &stop,
                        remaining,
                        dur,
                        self.sweep_engine(job, rung),
                        SweepEngine::into_solution,
                    ),
                    Rung::Krylov => self.run_krylov(job, &stop, remaining, dur),
                    Rung::Estimate => self.run_estimate(job, &stop),
                };
                self.clock += run.executed;
                iterations += run.executed;
                latency_cycles += run.cycles;
                if run.recovery.is_some() {
                    recovery = run.recovery;
                }

                match run.result {
                    Ok((met, sol)) => {
                        self.latency[rung.index()].push(run.executed);
                        let clean = !recovery.as_ref().is_some_and(RecoveryReport::recovered);
                        if let Some((from, to)) = self.breakers[rung.index()].on_success(clean) {
                            self.transitions.push(BreakerTransition {
                                at_submission: self.submitted,
                                rung,
                                from,
                                to,
                            });
                        }
                        attempts.push(RungAttempt {
                            rung,
                            disposition: AttemptDisposition::Served,
                            iterations: run.executed,
                        });
                        converged = met;
                        solution = sol;
                        outcome = Some(JobOutcome::Served {
                            rung,
                            degraded: rung != Rung::Detailed,
                        });
                        break;
                    }
                    Err(err) => {
                        attempts.push(RungAttempt {
                            rung,
                            disposition: AttemptDisposition::Failed(err.clone()),
                            iterations: run.executed,
                        });
                        match err {
                            FdmaxError::Cancelled { .. } => {
                                outcome = Some(JobOutcome::Cancelled {
                                    iteration: iterations,
                                });
                                break;
                            }
                            // Running out of budget is the job's problem,
                            // not the backend's: fall through without
                            // feeding the breaker.
                            FdmaxError::DeadlineExceeded { .. } => {}
                            _ => {
                                if let Some((from, to)) = self.breakers[rung.index()].on_failure() {
                                    self.transitions.push(BreakerTransition {
                                        at_submission: self.submitted,
                                        rung,
                                        from,
                                        to,
                                    });
                                }
                            }
                        }
                        last_error = Some(err);
                    }
                }
            }
        }

        let outcome = outcome.unwrap_or_else(|| {
            JobOutcome::Failed(last_error.unwrap_or(FdmaxError::GridTooSmall {
                rows: job.spec.problem.rows(),
                cols: job.spec.problem.cols(),
            }))
        });

        let report = ServiceReport {
            job: job.id,
            outcome,
            attempts,
            admitted_at: job.admitted_at,
            started_at,
            completed_at: self.clock,
            deadline_at: job.deadline_at,
            iterations,
            converged,
            latency_cycles,
            recovery,
            solution,
        };

        match &report.outcome {
            JobOutcome::Served { rung, .. } => {
                self.stats.served += 1;
                self.stats.served_by[rung.index()] += 1;
                if !report.deadline_met() {
                    self.stats.deadline_misses += 1;
                }
            }
            JobOutcome::Cancelled { .. } => self.stats.cancelled += 1,
            JobOutcome::Failed(_) => self.stats.failed += 1,
        }

        // Fold this job's cost into the measured drain rate (EWMA with
        // a 3/4 memory factor), before the state image is journaled so
        // recovery reproduces the same retry-after hints.
        self.drain_ewma = (3 * self.drain_ewma + report.iterations) / 4;

        // Every terminal path — served, failed, cancelled — writes a
        // `Completed` record, so recovery never re-runs a job the
        // caller already has a report for.
        if let Some(j) = journal.as_mut() {
            j.append(&JournalRecord::Completed {
                id: job.id.0,
                outcome_digest: report.digest(),
                image: self.state_image(),
            });
        }
        self.journal = journal;
        self.sync_journal_stats();
        report
    }

    /// Rebuilds a service from the write-ahead journal under
    /// `config.durability`: replays the journal, restores the
    /// deterministic state image of the last completed job, re-admits
    /// every interrupted job (resuming from its last persisted
    /// checkpoint when one survives) and reopens the journal for
    /// appending.
    ///
    /// Recovery never hard-fails: a missing journal yields a fresh
    /// service, an unreadable one a fresh service in degraded
    /// (in-memory-only) mode — both reported in the summary. Because
    /// fault schedules and engines are deterministic, draining the
    /// recovered service produces reports and final grids
    /// bit-identical to an uninterrupted run.
    ///
    /// Re-admitted jobs get fresh [`CancelToken`]s: cancellation is a
    /// process-local handle and does not survive a crash.
    pub fn recover(config: ServiceConfig) -> (SolveService, RecoverySummary) {
        let Some(dur_config) = config.durability.clone() else {
            return (SolveService::new(config), RecoverySummary::default());
        };
        let mut summary = RecoverySummary::default();
        let Ok(contents) = durability::read_journal(&dur_config.journal_dir) else {
            let mut service = SolveService::new(config);
            service.stats.journal_degraded = true;
            service.journal = None;
            summary.journal_degraded = true;
            return (service, summary);
        };
        summary.records_replayed = contents.records.len() as u64;
        summary.torn_tail = contents.torn;
        if contents.torn {
            // Drop the torn tail before appending anything new: a fresh
            // record written after a half-frame would be unreachable to
            // every future scan (the decoder stops at the tear).
            let _ =
                durability::truncate_journal(&dur_config.journal_dir, contents.valid_len as u64);
        }

        let mut last_image: Option<ServiceStateImage> = None;
        let mut last_completed_pos: Option<usize> = None;
        let mut completed: std::collections::HashSet<u64> = std::collections::HashSet::new();
        let mut checkpoints: std::collections::HashMap<u64, (Rung, String)> =
            std::collections::HashMap::new();
        let mut admissions: Vec<(usize, u64, u64, u64, JobSpec)> = Vec::new();
        for (pos, record) in contents.records.iter().enumerate() {
            match record {
                JournalRecord::Submitted {
                    id,
                    admitted_at,
                    deadline_at,
                    spec,
                } => admissions.push((pos, *id, *admitted_at, *deadline_at, spec.clone())),
                JournalRecord::AttemptStarted { .. } => {}
                JournalRecord::CheckpointTaken {
                    id,
                    rung,
                    snapshot_ref,
                    ..
                } => {
                    checkpoints.insert(*id, (*rung, snapshot_ref.clone()));
                }
                JournalRecord::Completed { id, image, .. } => {
                    completed.insert(*id);
                    last_image = Some(*image);
                    last_completed_pos = Some(pos);
                }
            }
        }
        summary.jobs_completed = completed.len() as u64;

        let mut service = SolveService::new(config);
        if let Some(image) = &last_image {
            service.clock = image.clock;
            service.next_id = image.next_id;
            service.submitted = image.submitted;
            let journal_degraded = service.stats.journal_degraded;
            let journal_io_errors = service.stats.journal_io_errors;
            service.stats = image.stats;
            service.stats.journal_degraded = journal_degraded;
            service.stats.journal_io_errors = journal_io_errors;
            for (slot, b) in service.breakers.iter_mut().zip(&image.breakers) {
                *slot = CircuitBreaker::restore(service.config.breaker, b);
            }
            service.drain_ewma = image.drain_ewma;
            for (i, ring) in service.latency.iter_mut().enumerate() {
                *ring = LatencyRing {
                    samples: image.latency_samples[i],
                    len: image.latency_len[i],
                    pos: image.latency_pos[i],
                };
            }
        }

        for (pos, id, admitted_at, deadline_at, spec) in admissions {
            if completed.contains(&id) {
                continue;
            }
            // Submissions after the state image re-apply their
            // admission effects (counter bumps and breaker cool-down
            // ticks); earlier ones are already folded into the image.
            if last_completed_pos.is_none_or(|c| pos > c) {
                service.submitted += 1;
                service.stats.submitted += 1;
                service.next_id = service.next_id.max(id + 1);
                for rung in Rung::ALL {
                    if let Some((from, to)) = service.breakers[rung.index()].on_submit() {
                        service.transitions.push(BreakerTransition {
                            at_submission: service.submitted,
                            rung,
                            from,
                            to,
                        });
                    }
                }
            }
            let resume = checkpoints.get(&id).and_then(|(rung, name)| {
                let bytes = std::fs::read(dur_config.journal_dir.join(name)).ok()?;
                let image = durability::decode_engine_image(&bytes)?;
                Some(ResumePoint { rung: *rung, image })
            });
            if resume.is_some() {
                summary.resumed_from_checkpoint += 1;
            }
            summary.jobs_recovered += 1;
            service.stats.recovered_jobs += 1;
            service.queue.push_back(Job {
                id: JobId(id),
                spec,
                cancel: CancelToken::new(),
                admitted_at,
                deadline_at,
                resume,
            });
        }
        summary.journal_degraded = service.stats.journal_degraded;
        (service, summary)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fdm::boundary::DirichletBoundary;
    use fdm::pde::LaplaceProblem;

    fn laplace(n: usize) -> StencilProblem<f32> {
        LaplaceProblem::builder(n, n)
            .boundary(DirichletBoundary::hot_top(1.0))
            .build()
            .unwrap()
            .discretize::<f32>()
    }

    fn service() -> SolveService {
        SolveService::new(ServiceConfig::new(FdmaxConfig::paper_default()))
    }

    fn job(n: usize, steps: usize) -> JobSpec {
        JobSpec::new(
            laplace(n),
            HwUpdateMethod::Jacobi,
            StopCondition::fixed_steps(steps),
        )
    }

    #[test]
    fn clean_job_is_served_by_the_simulator() {
        let mut svc = service();
        let ticket = svc.submit(job(16, 20)).unwrap();
        let report = svc.run_next().unwrap();
        assert_eq!(report.job, ticket.id);
        assert_eq!(report.served_by(), Some(Rung::Detailed));
        assert!(!report.degraded());
        assert!(report.converged);
        assert!(report.deadline_met());
        assert!(report.solution.is_some());
        assert_eq!(report.iterations, 20);
        assert_eq!(svc.clock(), 20);
        assert!(report.latency_cycles > 0);
        let recovery = report.recovery.unwrap();
        assert!(!recovery.recovered(), "no recovery action was needed");
        assert!(recovery.checkpoints > 0, "the policy still took insurance");
    }

    #[test]
    fn krylov_rung_serves_when_the_sweep_rungs_stall() {
        // On a 96x96 grid the Jacobi spectral radius is ~0.9995, so the
        // update norm decays by only ~2% over a 40-iteration window and
        // an armed stall watchdog fails every sweep-based rung. CG's
        // contraction is orders of magnitude faster, so the matrix-free
        // Krylov rung picks the job up and converges inside the budget.
        let mut cfg = ServiceConfig::new(FdmaxConfig::paper_default());
        cfg.stall_window = 40;
        cfg.stall_min_decay = 0.9;
        cfg.policy = ResiliencePolicy::strict();
        let mut svc = SolveService::new(cfg);
        let spec = JobSpec::new(
            laplace(96),
            HwUpdateMethod::Jacobi,
            StopCondition::tolerance(1e-8, 1_000),
        );
        let _ = svc.submit(spec).unwrap();
        let report = svc.run_next().unwrap();
        assert_eq!(report.served_by(), Some(Rung::Krylov), "{report:?}");
        assert!(report.degraded());
        assert!(report.converged, "CG in f64 reaches the tight tolerance");
        let solution = report.solution.expect("the Krylov rung returns a field");
        // Dirichlet ring preserved from the job's problem.
        assert_eq!(solution.row(0), laplace(96).initial.row(0));
        for rung in [
            Rung::Detailed,
            Rung::Reference,
            Rung::Parallel,
            Rung::Software,
        ] {
            assert!(
                report
                    .attempts
                    .iter()
                    .any(|a| a.rung == rung
                        && matches!(a.disposition, AttemptDisposition::Failed(_))),
                "{rung} should have failed before Krylov served"
            );
        }
    }

    #[test]
    fn time_dependent_jobs_skip_the_krylov_rung_as_not_applicable() {
        use fdm::pde::HeatProblem;
        // Poison the field so every numeric rung fails and the chain
        // walks past Krylov: a time-dependent job must record the
        // not-applicable skip, not a Krylov failure.
        let mut problem = HeatProblem::builder(10, 10)
            .time(0.2, 8)
            .build()
            .unwrap()
            .discretize::<f32>();
        problem.initial.as_mut_slice().fill(f32::NAN);
        let spec = JobSpec::new(
            problem,
            HwUpdateMethod::Jacobi,
            StopCondition::fixed_steps(8),
        );
        let mut svc = service();
        let _ = svc.submit(spec).unwrap();
        let report = svc.run_next().unwrap();
        assert_eq!(report.served_by(), Some(Rung::Estimate));
        let krylov = report
            .attempts
            .iter()
            .find(|a| a.rung == Rung::Krylov)
            .expect("the chain records every rung");
        assert_eq!(krylov.disposition, AttemptDisposition::SkippedNotApplicable);
        assert_eq!(krylov.iterations, 0);
        assert_eq!(svc.breaker_state(Rung::Krylov), BreakerState::Closed);
    }

    #[test]
    fn admission_is_bounded_with_retry_after() {
        let mut cfg = ServiceConfig::new(FdmaxConfig::paper_default());
        cfg.queue_capacity = 2;
        let mut svc = SolveService::new(cfg);
        let _ = svc.submit(job(8, 1)).unwrap();
        let _ = svc.submit(job(8, 1)).unwrap();
        let err = svc.submit(job(8, 1)).unwrap_err();
        assert_eq!(
            err,
            SubmitError::Saturated {
                queue_depth: 2,
                retry_after_jobs: 1,
                // Nothing has completed yet, so the drain rate is the
                // pessimistic prior: the per-job iteration cap.
                retry_after_iterations: 1_000,
            }
        );
        assert!(err.to_string().contains("saturated"));
        assert_eq!(svc.stats().refused, 1);
        // Draining one job frees one slot.
        let _ = svc.run_next().unwrap();
        let _ = svc.submit(job(8, 1)).unwrap();
    }

    #[test]
    fn retry_after_shrinks_as_the_measured_drain_rate_drops() {
        let mut cfg = ServiceConfig::new(FdmaxConfig::paper_default());
        cfg.queue_capacity = 2;
        let mut svc = SolveService::new(cfg);
        let saturated_hint = |svc: &mut SolveService| {
            let err = svc.submit(job(8, 1)).unwrap_err();
            match err {
                SubmitError::Saturated {
                    retry_after_iterations,
                    ..
                } => retry_after_iterations,
                other => panic!("expected saturation, got {other:?}"),
            }
        };
        let _ = svc.submit(job(8, 1)).unwrap();
        let _ = svc.submit(job(8, 1)).unwrap();
        let before = saturated_hint(&mut svc);
        assert_eq!(before, 1_000, "pessimistic prior before any completion");

        // Drain both 1-iteration jobs: the measured drain rate collapses
        // far below the configured worst case...
        let _ = svc.drain();
        assert!(svc.drain_rate() < 1_000);

        // ...and the retry hint with it.
        let _ = svc.submit(job(8, 1)).unwrap();
        let _ = svc.submit(job(8, 1)).unwrap();
        let after = saturated_hint(&mut svc);
        assert!(
            after < before,
            "retry_after must shrink with the drain rate ({after} !< {before})"
        );
        assert_eq!(after, svc.drain_rate(), "one excess job to wait out");
    }

    #[test]
    fn interiorless_grids_are_rejected_at_the_door() {
        // The problem builders refuse such grids themselves, so forge
        // one by shrinking the initial field of a valid problem.
        let mut spec = job(8, 1);
        spec.problem.initial = Grid2D::zeros(2, 2);
        let mut svc = service();
        let err = svc.submit(spec).unwrap_err();
        assert!(matches!(
            err,
            SubmitError::Rejected(FdmaxError::GridTooSmall { rows: 2, cols: 2 })
        ));
        assert_eq!(svc.stats().refused, 1);
    }

    #[test]
    fn statically_infeasible_jobs_are_rejected_at_admission() {
        // Tolerance below the f32 precision floor: the dynamic path
        // would burn the whole deadline stalling; the analyzer rejects
        // at the door with FDX016 instead.
        let mut svc = service();
        let err = svc
            .submit(JobSpec::new(
                laplace(16),
                HwUpdateMethod::Jacobi,
                StopCondition::tolerance(1e-30, 400),
            ))
            .unwrap_err();
        match err {
            SubmitError::Rejected(FdmaxError::Lint { report }) => {
                assert!(report.has(crate::lint::DiagCode::PrecisionFloorViolated));
                assert!(report.has_errors());
            }
            other => panic!("expected a lint rejection, got {other:?}"),
        }
        assert_eq!(svc.stats().refused, 1);
        assert_eq!(svc.stats().submitted, 0);

        // The same job with a representable tolerance is admitted.
        let _ = svc
            .submit(JobSpec::new(
                laplace(16),
                HwUpdateMethod::Jacobi,
                StopCondition::tolerance(1e-3, 400),
            ))
            .unwrap();
    }

    #[test]
    fn cancelled_while_queued_never_runs() {
        let mut svc = service();
        let ticket = svc.submit(job(16, 50)).unwrap();
        ticket.cancel.cancel();
        let report = svc.run_next().unwrap();
        assert_eq!(report.outcome, JobOutcome::Cancelled { iteration: 0 });
        assert!(report.attempts.is_empty());
        assert_eq!(svc.clock(), 0, "no work was performed");
        assert_eq!(svc.stats().cancelled, 1);
    }

    #[test]
    fn exhausted_budget_degrades_to_the_analytic_rung() {
        let mut cfg = ServiceConfig::new(FdmaxConfig::paper_default());
        cfg.deadline_iterations = 0; // every job is born out of budget
        let mut svc = SolveService::new(cfg);
        let _ = svc.submit(job(16, 50)).unwrap();
        let report = svc.run_next().unwrap();
        assert_eq!(report.served_by(), Some(Rung::Estimate));
        assert!(report.degraded());
        assert!(report.solution.is_none());
        assert!(!report.converged);
        assert!(report.latency_cycles > 0, "the estimate still costs cycles");
        assert!(report.deadline_met(), "the analytic rung is always on time");
        assert_eq!(report.iterations, 0);
        let skipped: Vec<_> = report
            .attempts
            .iter()
            .filter(|a| a.disposition == AttemptDisposition::SkippedBudgetExhausted)
            .map(|a| a.rung)
            .collect();
        assert_eq!(
            skipped,
            [
                Rung::Detailed,
                Rung::Reference,
                Rung::Parallel,
                Rung::Tiled,
                Rung::Software,
                Rung::Krylov
            ]
        );
    }

    #[test]
    fn breaker_opens_after_consecutive_failures_and_recovers() {
        let mut cfg = ServiceConfig::new(FdmaxConfig::paper_default());
        // Parity + heavy flips + zero retries: the detailed rung fails
        // deterministically on every faulted job.
        cfg.campaign = FaultCampaign {
            sram_flips_per_iteration: 5.0,
            dma_failure_prob: 0.0,
            ..FaultCampaign::harsh(11)
        };
        cfg.policy = ResiliencePolicy {
            max_retries: 0,
            ..ResiliencePolicy::default()
        };
        cfg.breaker = BreakerConfig {
            open_after: 3,
            cooldown_jobs: 2,
            close_after: 1,
        };
        let mut svc = SolveService::new(cfg);

        // Three failing jobs trip the detailed breaker.
        for _ in 0..3 {
            let _ = svc.submit(job(16, 30)).unwrap();
            let report = svc.run_next().unwrap();
            assert_eq!(report.served_by(), Some(Rung::Reference), "fell back");
            assert!(report.degraded());
        }
        assert_eq!(svc.breaker_state(Rung::Detailed), BreakerState::Open);
        assert!(svc.transitions().iter().any(|t| t.rung == Rung::Detailed
            && t.from == BreakerState::Closed
            && t.to == BreakerState::Open));

        // While open, the detailed rung is skipped outright. This
        // submission is the first cool-down tick (2 -> 1).
        let _ = svc.submit(job(16, 30)).unwrap();
        let report = svc.run_next().unwrap();
        assert_eq!(
            report.attempts[0].disposition,
            AttemptDisposition::SkippedBreakerOpen
        );
        assert_eq!(svc.breaker_state(Rung::Detailed), BreakerState::Open);

        // The second post-open submission completes the cool-down, and
        // the clean probe job closes the breaker again.
        let _ = svc
            .submit(job(16, 30).with_campaign(FaultCampaign::disabled()))
            .unwrap();
        assert_eq!(svc.breaker_state(Rung::Detailed), BreakerState::HalfOpen);
        let report = svc.run_next().unwrap();
        assert_eq!(report.served_by(), Some(Rung::Detailed));
        assert_eq!(svc.breaker_state(Rung::Detailed), BreakerState::Closed);
        assert!(svc.transitions().iter().any(|t| t.rung == Rung::Detailed
            && t.from == BreakerState::HalfOpen
            && t.to == BreakerState::Closed));
    }

    #[test]
    fn half_open_probe_failure_reopens() {
        let mut cfg = ServiceConfig::new(FdmaxConfig::paper_default());
        cfg.campaign = FaultCampaign {
            sram_flips_per_iteration: 5.0,
            dma_failure_prob: 0.0,
            ..FaultCampaign::harsh(13)
        };
        cfg.policy = ResiliencePolicy {
            max_retries: 0,
            ..ResiliencePolicy::default()
        };
        cfg.breaker = BreakerConfig {
            open_after: 1,
            cooldown_jobs: 1,
            close_after: 1,
        };
        let mut svc = SolveService::new(cfg);
        let _ = svc.submit(job(16, 30)).unwrap();
        let _ = svc.run_next().unwrap();
        assert_eq!(svc.breaker_state(Rung::Detailed), BreakerState::Open);
        // Next submission ends the 1-job cool-down; the faulty probe
        // fails and the breaker snaps back open.
        let _ = svc.submit(job(16, 30)).unwrap();
        assert_eq!(svc.breaker_state(Rung::Detailed), BreakerState::HalfOpen);
        let _ = svc.run_next().unwrap();
        assert_eq!(svc.breaker_state(Rung::Detailed), BreakerState::Open);
        assert!(svc.transitions().iter().any(|t| t.rung == Rung::Detailed
            && t.from == BreakerState::HalfOpen
            && t.to == BreakerState::Open));
    }

    #[test]
    fn deadline_is_enforced_mid_solve() {
        let mut cfg = ServiceConfig::new(FdmaxConfig::paper_default());
        cfg.deadline_iterations = 10;
        // The admission analyzer would reject this sub-floor tolerance
        // (FDX016); bypass it to exercise the dynamic deadline path.
        cfg.admission_analysis = false;
        let mut svc = SolveService::new(cfg);
        // Unreachable tolerance: the job would run to the cap without a
        // deadline.
        let _ = svc
            .submit(JobSpec::new(
                laplace(16),
                HwUpdateMethod::Jacobi,
                StopCondition::tolerance(1e-30, 1_000),
            ))
            .unwrap();
        let report = svc.run_next().unwrap();
        assert!(
            report.deadline_met(),
            "completed at {}",
            report.completed_at
        );
        assert!(report.completed_at <= report.deadline_at);
        assert_eq!(report.served_by(), Some(Rung::Estimate));
        assert_eq!(report.iterations, 10, "exactly the budget was executed");
        assert!(report.attempts.iter().any(|a| matches!(
            a.disposition,
            AttemptDisposition::Failed(FdmaxError::DeadlineExceeded { .. })
        )));
        // Deadline failures never feed the breakers.
        assert_eq!(svc.breaker_state(Rung::Detailed), BreakerState::Closed);
    }

    #[test]
    fn queue_wait_burns_the_same_deadline_budget() {
        let mut cfg = ServiceConfig::new(FdmaxConfig::paper_default());
        cfg.deadline_iterations = 25;
        let mut svc = SolveService::new(cfg);
        let _ = svc.submit(job(16, 20)).unwrap();
        let _ = svc.submit(job(16, 20)).unwrap();
        let first = svc.run_next().unwrap();
        let second = svc.run_next().unwrap();
        assert_eq!(first.served_by(), Some(Rung::Detailed));
        // Job 2 was admitted at clock 0 but started at 20: only 5 of
        // its 25-iteration budget remain, so the simulator attempt is
        // cut off and the analytic rung serves, on time.
        assert_eq!(second.started_at, 20);
        assert_eq!(second.served_by(), Some(Rung::Estimate));
        assert!(second.deadline_met());
    }

    #[test]
    fn stall_watchdog_fails_over_to_the_next_rung() {
        // Demand the norm halve every 4 iterations: Jacobi on a 16x16
        // Laplace decays far slower, so the watchdog declares the
        // detailed rung stalled and the chain moves on.
        let mut cfg = ServiceConfig::new(FdmaxConfig::paper_default());
        cfg.stall_window = 4;
        cfg.stall_min_decay = 0.5;
        // Bypass the FDX016 admission rejection to reach the watchdog.
        cfg.admission_analysis = false;
        let mut svc = SolveService::new(cfg);
        let _ = svc
            .submit(JobSpec::new(
                laplace(16),
                HwUpdateMethod::Jacobi,
                StopCondition::tolerance(1e-30, 400),
            ))
            .unwrap();
        let report = svc.run_next().unwrap();
        assert!(matches!(
            report.attempts[0].disposition,
            AttemptDisposition::Failed(FdmaxError::Stalled { .. })
        ));
        // Every iterative rung stalls the same way; the analytic rung
        // serves.
        assert_eq!(report.served_by(), Some(Rung::Estimate));
        assert!(report.deadline_met());
    }

    #[test]
    fn fallback_solution_matches_the_simulator_bitwise() {
        // Jacobi is bit-exact across DetailedSim, HwReferenceEngine and
        // SweepEngine, so a degraded answer is *identical* to the one
        // the healthy rung would have produced.
        let mut cfg = ServiceConfig::new(FdmaxConfig::paper_default());
        cfg.breaker = BreakerConfig {
            open_after: 1,
            cooldown_jobs: 100,
            close_after: 1,
        };
        cfg.campaign = FaultCampaign {
            sram_flips_per_iteration: 5.0,
            dma_failure_prob: 0.0,
            ..FaultCampaign::harsh(5)
        };
        cfg.policy = ResiliencePolicy {
            max_retries: 0,
            ..ResiliencePolicy::default()
        };
        let mut svc = SolveService::new(cfg);
        // Trip the detailed breaker.
        let _ = svc.submit(job(16, 12)).unwrap();
        let faulted = svc.run_next().unwrap();
        assert_eq!(faulted.served_by(), Some(Rung::Reference));
        // The degraded answer equals a clean simulator run bit-for-bit.
        let clean = crate::accelerator::Accelerator::new(FdmaxConfig::paper_default())
            .unwrap()
            .solve_with(
                &laplace(16),
                HwUpdateMethod::Jacobi,
                &StopCondition::fixed_steps(12),
            )
            .unwrap();
        assert_eq!(faulted.solution.as_ref().unwrap(), &clean.solution);
    }

    #[test]
    fn stats_and_fallback_rate_tally() {
        let mut cfg = ServiceConfig::new(FdmaxConfig::paper_default());
        cfg.deadline_iterations = 0;
        let mut svc = SolveService::new(cfg);
        let _ = svc.submit(job(8, 5)).unwrap();
        let _ = svc.drain();
        let stats = svc.stats();
        assert_eq!(stats.submitted, 1);
        assert_eq!(stats.served, 1);
        assert_eq!(stats.served_by[Rung::Estimate.index()], 1);
        assert!((stats.fallback_rate() - 1.0).abs() < f64::EPSILON);
        assert_eq!(stats.deadline_misses, 0);
    }

    #[test]
    fn display_types_read_well() {
        assert_eq!(JobId(7).to_string(), "job#7");
        assert_eq!(Rung::Detailed.to_string(), "detailed-sim");
        assert_eq!(BreakerState::HalfOpen.to_string(), "half-open");
        assert_eq!(Rung::ALL.len(), 7);
        assert_eq!(Rung::Tiled.index(), 3);
        assert_eq!(Rung::Krylov.index(), 5);
        assert_eq!(Rung::Estimate.index(), 6);
        assert_eq!(Rung::Krylov.to_string(), "krylov");
        assert_eq!(Rung::Tiled.to_string(), "software-tiled");
        assert_eq!(Rung::Parallel.to_string(), "software-parallel");
    }

    fn durability_tmpdir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("fdmax-service-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// A job whose initial field is poisoned with NaN: every numeric
    /// rung fails with `NonFinite` (the detailed rung exhausts its
    /// retries), so only the analytic rung can serve.
    fn poisoned_job(steps: usize) -> JobSpec {
        let mut problem = laplace(10);
        problem.initial.as_mut_slice().fill(f32::NAN);
        JobSpec::new(
            problem,
            HwUpdateMethod::Jacobi,
            StopCondition::fixed_steps(steps),
        )
    }

    #[test]
    fn poisoned_job_still_terminates_with_a_report_and_a_journal_record() {
        let dir = durability_tmpdir("poisoned");
        let config = ServiceConfig::new(FdmaxConfig::paper_default())
            .with_durability(DurabilityConfig::new(&dir));
        let mut service = SolveService::new(config);
        let _ = service.submit(poisoned_job(8)).unwrap();
        let report = service.run_next().expect("queued job must yield a report");
        // Every numeric rung fails; the analytic rung is the terminal
        // guarantee and still serves an estimate.
        assert_eq!(report.served_by(), Some(Rung::Estimate));
        assert!(report
            .attempts
            .iter()
            .filter(|a| a.rung != Rung::Estimate)
            .all(|a| matches!(a.disposition, AttemptDisposition::Failed(_))));
        // The journal holds the job's terminal `Completed` record.
        let contents = durability::read_journal(&dir).unwrap();
        assert!(contents
            .records
            .iter()
            .any(|r| matches!(r, JournalRecord::Completed { id: 0, .. })));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn all_rungs_open_breakers_still_emit_a_terminal_report() {
        let dir = durability_tmpdir("open-breakers");
        let config = ServiceConfig::new(FdmaxConfig::paper_default())
            .with_durability(DurabilityConfig::new(&dir));
        let mut service = SolveService::new(config);
        // Force every breaker open — including the analytic rung's,
        // which must be ignored (it is the terminal guarantee).
        for breaker in &mut service.breakers {
            breaker.trip();
        }
        let _ = service.submit(job(10, 6)).unwrap();
        let report = service.run_next().expect("job must terminate");
        assert_eq!(report.served_by(), Some(Rung::Estimate));
        assert!(report
            .attempts
            .iter()
            .filter(|a| a.rung != Rung::Estimate)
            .all(|a| matches!(a.disposition, AttemptDisposition::SkippedBreakerOpen)));
        assert_eq!(service.stats().served_by[Rung::Estimate.index()], 1);
        let contents = durability::read_journal(&dir).unwrap();
        assert!(contents
            .records
            .iter()
            .any(|r| matches!(r, JournalRecord::Completed { id: 0, .. })));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unwritable_journal_dir_degrades_but_jobs_still_serve() {
        let dir = durability_tmpdir("degraded-service");
        std::fs::create_dir_all(&dir).unwrap();
        let blocked = dir.join("blocked-file");
        std::fs::write(&blocked, b"file, not a dir").unwrap();
        let config = ServiceConfig::new(FdmaxConfig::paper_default())
            .with_durability(DurabilityConfig::new(&blocked));
        let mut service = SolveService::new(config);
        assert!(service.stats().journal_degraded, "flag must be loud");
        assert!(service.stats().journal_io_errors >= 1);
        let _ = service.submit(job(10, 6)).unwrap();
        let report = service.run_next().unwrap();
        assert!(matches!(report.outcome, JobOutcome::Served { .. }));
        assert!(service.stats().journal_degraded);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn recover_from_missing_journal_is_a_fresh_service() {
        let dir = durability_tmpdir("fresh-recover");
        let config = ServiceConfig::new(FdmaxConfig::paper_default())
            .with_durability(DurabilityConfig::new(&dir));
        let (mut service, summary) = SolveService::recover(config);
        assert_eq!(summary, RecoverySummary::default());
        let _ = service.submit(job(10, 6)).unwrap();
        assert!(matches!(
            service.run_next().unwrap().outcome,
            JobOutcome::Served { .. }
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn recover_resumes_interrupted_job_bit_identically() {
        let steps = 24usize;
        // Dense parity-detected flips with a zero retry budget: the
        // detailed rung fails deterministically, so the reference rung
        // serves — and the reference rung takes checkpoints.
        let mut base_config = ServiceConfig::new(FdmaxConfig::paper_default());
        base_config.campaign = FaultCampaign {
            sram_flips_per_iteration: 5.0,
            dma_failure_prob: 0.0,
            ..FaultCampaign::harsh(0x0B5E55)
        };
        base_config.policy = crate::resilience::ResiliencePolicy {
            max_retries: 0,
            ..crate::resilience::ResiliencePolicy::default()
        };

        // Baseline: no durability, uninterrupted.
        let mut baseline = SolveService::new(base_config.clone());
        let _ = baseline.submit(job(12, steps)).unwrap();
        let want = baseline.run_next().unwrap();
        assert_eq!(want.served_by(), Some(Rung::Reference));

        // Durable run with a tight checkpoint cadence, completed, then
        // "crashed" by dropping the job's Completed record: truncate
        // the journal right after its last CheckpointTaken.
        let dir = durability_tmpdir("resume");
        let config = base_config.with_durability(
            DurabilityConfig::new(&dir)
                .with_checkpoint_every(5)
                .with_fsync_policy(durability::FsyncPolicy::Never),
        );
        let mut durable = SolveService::new(config.clone());
        let _ = durable.submit(job(12, steps)).unwrap();
        let _ = durable.run_next().unwrap();
        drop(durable);

        // Find the byte offset just past the last CheckpointTaken
        // record and truncate there.
        let journal_path = dir.join(durability::JOURNAL_FILE);
        let bytes = std::fs::read(&journal_path).unwrap();
        let mut cut = 0usize;
        let mut pos = 0usize;
        while pos + 8 <= bytes.len() {
            let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap()) as usize;
            let end = pos + 8 + len;
            let record = durability::decode_journal(&bytes[pos..end]);
            if matches!(
                record.records.first(),
                Some(JournalRecord::CheckpointTaken { .. })
            ) {
                cut = end;
            }
            pos = end;
        }
        assert!(cut > 0, "expected at least one checkpoint record");
        std::fs::write(&journal_path, &bytes[..cut]).unwrap();

        let (mut recovered, summary) = SolveService::recover(config);
        assert_eq!(summary.jobs_recovered, 1);
        assert_eq!(summary.resumed_from_checkpoint, 1);
        let got = recovered.run_next().expect("re-admitted job runs");
        assert_eq!(
            got.digest(),
            want.digest(),
            "recovered run must be bit-identical"
        );
        assert_eq!(got.solution, want.solution);
        assert_eq!(got.iterations, want.iterations);
        assert_eq!(got.completed_at, want.completed_at);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
