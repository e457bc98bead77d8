//! The unified solve-engine layer.
//!
//! Every backend in the FDMAX stack — the software sweeps in
//! [`crate::solver`], multigrid, the hardware-semantics reference, the
//! cycle-accurate simulator, the analytic performance estimator and the
//! baseline platform models — iterates the same outer loop: run one step,
//! record the update norm, evaluate the [`StopCondition`], optionally
//! detect trouble and roll back to a checkpoint. This module factors that
//! loop out once:
//!
//! * [`SolveEngine`] is the backend contract: one [`step`](SolveEngine::step)
//!   advances the solve by one iteration (or one analytic macro-step) and
//!   reports an optional update norm plus any hardware fault;
//! * [`Session`] is the single generic driver owning stop-condition
//!   evaluation, the [`ResidualHistory`], divergence detection, and
//!   checkpoint/rollback per [`ResiliencePolicy`];
//! * [`SweepEngine`] adapts the software relaxation sweeps to the trait,
//!   scheduled serially, in row bands on scoped threads, or as fused
//!   wavefront epochs by a [`SweepPlan`].
//!
//! Hardware-side engines (cycle-accurate simulator, reference semantics,
//! analytic estimator) live in the `fdmax` core crate and implement the
//! same trait.

use crate::convergence::{Divergence, ResidualHistory, StopCondition};
use crate::grid::Grid2D;
use crate::kernels::{checkerboard_row, jacobi_row, row_bands, row_bands_with_min, OffsetRow};
use crate::pde::{OffsetField, StencilProblem};
use crate::precision::Scalar;
use crate::solver::{
    sweep_checkerboard, sweep_gauss_seidel, sweep_hybrid, sweep_jacobi, sweep_sor, UpdateMethod,
};
use core::fmt;
use core::ops::Range;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A hardware fault surfaced by one engine step, for the driver's
/// recovery machinery to act on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StepFault {
    /// Parity flagged corrupted buffer data during the step.
    CorruptionDetected,
    /// A DMA block transfer failed permanently during the step.
    DmaFailed,
}

/// What one [`SolveEngine::step`] produced.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct StepOutcome {
    /// The update norm `||U^{k+1} - U^k||_2` of the completed iteration,
    /// or `None` for analytic engines that advance without computing a
    /// field (nothing is recorded in the history then).
    pub norm: Option<f64>,
    /// A fault the step detected, if any.
    pub fault: Option<StepFault>,
}

impl StepOutcome {
    /// A fault-free step that produced an update norm.
    pub fn clean(norm: f64) -> Self {
        StepOutcome {
            norm: Some(norm),
            fault: None,
        }
    }

    /// A fault-free step with no norm (analytic macro-steps).
    pub fn silent() -> Self {
        StepOutcome {
            norm: None,
            fault: None,
        }
    }
}

/// Why a resilient [`Session`] gave up.
///
/// The `fdmax` core crate converts these into its `FdmaxError` surface.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum EngineError {
    /// The update norm became NaN or infinite and no recovery was
    /// possible (or allowed).
    NonFinite {
        /// Iteration (1-based) whose norm went non-finite.
        iteration: usize,
    },
    /// The update norm grew persistently and no recovery was possible.
    Diverged {
        /// Iteration at the end of the growth window.
        iteration: usize,
        /// Growth ratio over the detection window.
        ratio: f64,
    },
    /// Parity flagged corrupted buffer data and no rollback was possible
    /// (or allowed).
    CorruptionDetected {
        /// Iteration (1-based) during which parity fired.
        iteration: usize,
    },
    /// A DMA block transfer failed permanently (retry budget exhausted).
    DmaFailed {
        /// Iteration during which the transfer gave up.
        iteration: usize,
    },
    /// Rollback-and-retry was attempted `attempts` times without a clean
    /// run.
    RetriesExhausted {
        /// Recovery attempts performed.
        attempts: u32,
        /// Iteration of the checkpoint every retry rolled back to — the
        /// last state known to be good.
        checkpoint_iteration: usize,
    },
    /// The job's [`CancelToken`] was triggered between steps.
    Cancelled {
        /// Iterations completed when the cancellation was observed.
        iteration: usize,
    },
    /// The [`Budget`]'s iteration or wall-clock deadline ran out before
    /// the stop condition was satisfied.
    DeadlineExceeded {
        /// Iterations completed when the budget ran out.
        iteration: usize,
    },
    /// The [`Budget`]'s watchdog found the residual series making no
    /// progress over its window.
    Stalled {
        /// Iteration (1-based) ending the stalled window.
        iteration: usize,
    },
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::NonFinite { iteration } => {
                write!(f, "update norm became non-finite at iteration {iteration}")
            }
            EngineError::Diverged { iteration, ratio } => write!(
                f,
                "solve diverged (norm grew {ratio:.2}x) by iteration {iteration}"
            ),
            EngineError::CorruptionDetected { iteration } => write!(
                f,
                "parity detected buffer corruption at iteration {iteration}"
            ),
            EngineError::DmaFailed { iteration } => {
                write!(
                    f,
                    "DMA transfer failed permanently at iteration {iteration}"
                )
            }
            EngineError::RetriesExhausted {
                attempts,
                checkpoint_iteration,
            } => {
                write!(
                    f,
                    "recovery failed after {attempts} rollback attempts to the \
                     checkpoint at iteration {checkpoint_iteration}"
                )
            }
            EngineError::Cancelled { iteration } => {
                write!(f, "solve cancelled after {iteration} iterations")
            }
            EngineError::DeadlineExceeded { iteration } => {
                write!(f, "budget deadline exceeded after {iteration} iterations")
            }
            EngineError::Stalled { iteration } => {
                write!(f, "watchdog: no residual progress by iteration {iteration}")
            }
        }
    }
}

impl std::error::Error for EngineError {}

/// How a resilient [`Session`] checkpoints, detects trouble and recovers.
///
/// The two `allow_*` flags are consumed by orchestration layers *above*
/// the session (the accelerator's method/software fallback chain); the
/// session itself acts on the checkpoint/retry/divergence knobs.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ResiliencePolicy {
    /// Take a checkpoint every this many iterations (0 disables
    /// checkpointing, so any detected fault is fatal).
    pub checkpoint_interval: usize,
    /// Rollback-and-retry attempts *per checkpoint window* before
    /// escalating to a fallback (or giving up); reaching the next
    /// checkpoint renews the allowance.
    pub max_retries: u32,
    /// Window for residual-growth detection (0 disables growth checks;
    /// NaN/Inf are always checked).
    pub divergence_window: usize,
    /// Growth over the window that counts as divergence.
    pub divergence_factor: f64,
    /// Allow Hybrid to fall back to the Jacobi datapath once retries are
    /// exhausted.
    pub allow_method_fallback: bool,
    /// Allow the final fallback to the `fdm` software solver.
    pub allow_software_fallback: bool,
}

impl ResiliencePolicy {
    /// No checkpoints, no retries, no fallbacks: the first detected
    /// fault is a structured error.
    #[must_use]
    pub fn strict() -> Self {
        ResiliencePolicy {
            checkpoint_interval: 0,
            max_retries: 0,
            divergence_window: 0,
            divergence_factor: 1e3,
            allow_method_fallback: false,
            allow_software_fallback: false,
        }
    }
}

impl Default for ResiliencePolicy {
    fn default() -> Self {
        ResiliencePolicy {
            checkpoint_interval: 64,
            max_retries: 8,
            divergence_window: 32,
            divergence_factor: 1e3,
            allow_method_fallback: true,
            allow_software_fallback: true,
        }
    }
}

/// A shared cooperative-cancellation handle.
///
/// Cloning yields another handle to the *same* flag: a supervisor keeps
/// one clone and hands another to the [`Budget`] of a running
/// [`Session`]; triggering [`cancel`](CancelToken::cancel) makes the
/// session return [`EngineError::Cancelled`] before its next step.
/// Cancellation is one-way — there is deliberately no `reset`.
#[derive(Clone, Debug, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// A fresh, un-triggered token.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Triggers the cancellation. Idempotent.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Relaxed);
    }

    /// `true` once any clone of this token was cancelled.
    #[must_use]
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Relaxed)
    }
}

/// Hard bounds on one [`Session`] run, checked by the driver between
/// steps — the hook the `fdmax` service layer threads its per-job
/// deadlines, cancellation and watchdog through.
///
/// Unlike a [`ResiliencePolicy`], budget violations are *terminal*:
/// rolling back to a checkpoint cannot recover time already spent, so
/// the session returns the structured error immediately.
///
/// All checks default to disabled; [`Budget::default`] never fires.
#[derive(Clone, Debug)]
#[must_use]
pub struct Budget {
    /// Maximum sweeps this run may execute (`None` = unlimited).
    /// Counted in *executed* steps, so rollback replays burn budget too;
    /// the check runs before each step, which means the deadline is
    /// never overshot by even one iteration. An engine fusing `k`
    /// sweeps per step ([`SolveEngine::sweeps_per_step`]) gets
    /// `ceil(d / k)` steps, its last one truncated at the deadline.
    pub deadline_iterations: Option<usize>,
    /// Wall-clock ceiling measured from the start of
    /// [`Session::run`] (`None` = unlimited). Coarse by design — the
    /// clock is polled between steps.
    pub max_wall: Option<Duration>,
    /// Cooperative cancellation flag, polled before each step.
    pub cancel: Option<CancelToken>,
    /// Watchdog window (in iterations) for
    /// [`ResidualHistory::detect_stall`]; 0 disables the watchdog. The
    /// history of an engine fusing `k` sweeps per step holds one norm
    /// per step, so the window spans `max(ceil(w / k), 2)` entries.
    pub stall_window: usize,
    /// Decay the residual must achieve over `stall_window` iterations to
    /// count as progress (see [`ResidualHistory::detect_stall`]).
    pub stall_min_decay: f64,
}

impl Default for Budget {
    fn default() -> Self {
        Budget {
            deadline_iterations: None,
            max_wall: None,
            cancel: None,
            stall_window: 0,
            stall_min_decay: 1.0,
        }
    }
}

impl Budget {
    /// A budget with every check disabled.
    pub fn unlimited() -> Self {
        Self::default()
    }

    /// Bounds the run to at most `steps` executed engine steps.
    pub fn deadline(steps: usize) -> Self {
        Budget {
            deadline_iterations: Some(steps),
            ..Self::default()
        }
    }

    /// Adds a wall-clock ceiling.
    pub fn with_wall_clock(mut self, ceiling: Duration) -> Self {
        self.max_wall = Some(ceiling);
        self
    }

    /// Attaches a cooperative-cancellation token.
    pub fn with_cancel(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Arms the stall watchdog: the run fails with
    /// [`EngineError::Stalled`] when the residual decays by less than
    /// `min_decay` over any `window` consecutive iterations.
    pub fn with_stall_watchdog(mut self, window: usize, min_decay: f64) -> Self {
        self.stall_window = window;
        self.stall_min_decay = min_decay;
        self
    }

    /// `true` when no check is armed (the default).
    #[must_use]
    pub fn is_unlimited(&self) -> bool {
        self.deadline_iterations.is_none()
            && self.max_wall.is_none()
            && self.cancel.is_none()
            && self.stall_window == 0
    }
}

/// A portable, scalar-erased image of a solve engine's resumable state.
///
/// `cur`/`prev` hold raw IEEE 754 bit patterns
/// ([`Scalar::to_bits_u64`]), so an image round-trips bit-exactly
/// through serialization at any precision — NaN payloads included.
/// Produced by [`SolveEngine::export_state`], consumed by
/// [`SolveEngine::restore_state`], and persisted by the service layer's
/// durability journal for crash recovery.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EngineStateImage {
    /// Grid height.
    pub rows: usize,
    /// Grid width.
    pub cols: usize,
    /// Scalar width in bytes ([`Scalar::BYTES`]), a format check on
    /// restore.
    pub scalar_bytes: u8,
    /// Completed iterations at capture time.
    pub iterations: usize,
    /// Bit patterns of the current field `U^k`, row-major.
    pub cur: Vec<u64>,
    /// Bit patterns of the previous field `U^{k-1}` (wave history), when
    /// the engine carries one.
    pub prev: Option<Vec<u64>>,
}

impl EngineStateImage {
    /// Captures an image of `cur` (and optionally `prev`) at `iterations`.
    pub fn capture<T: Scalar>(
        iterations: usize,
        cur: &Grid2D<T>,
        prev: Option<&Grid2D<T>>,
    ) -> Self {
        let to_bits = |g: &Grid2D<T>| g.as_slice().iter().map(|v| v.to_bits_u64()).collect();
        EngineStateImage {
            rows: cur.rows(),
            cols: cur.cols(),
            scalar_bytes: T::BYTES as u8,
            iterations,
            cur: to_bits(cur),
            prev: prev.map(to_bits),
        }
    }

    /// Rebuilds the current field as a typed grid; `None` when the
    /// scalar width or element count disagrees with the header.
    pub fn cur_grid<T: Scalar>(&self) -> Option<Grid2D<T>> {
        self.grid_from(&self.cur)
    }

    /// Rebuilds the previous field, when one was captured.
    pub fn prev_grid<T: Scalar>(&self) -> Option<Grid2D<T>> {
        self.prev.as_ref().and_then(|p| self.grid_from(p))
    }

    fn grid_from<T: Scalar>(&self, bits: &[u64]) -> Option<Grid2D<T>> {
        if self.scalar_bytes as usize != T::BYTES
            || Some(bits.len()) != self.rows.checked_mul(self.cols)
        {
            return None;
        }
        let data = bits.iter().map(|&b| T::from_bits_u64(b)).collect();
        Grid2D::from_vec(self.rows, self.cols, data).ok()
    }
}

/// One solve backend: anything that can advance a solve by one step.
///
/// The driver ([`Session`]) calls [`begin`](SolveEngine::begin) once,
/// then [`step`](SolveEngine::step) until the stop condition is
/// satisfied (rolling back via [`rollback`](SolveEngine::rollback) when
/// the policy demands it), then [`finish`](SolveEngine::finish) once on
/// a clean exit. Engines that model I/O charge their boot/drain traffic
/// in `begin`/`finish`.
pub trait SolveEngine {
    /// Advances the solve by one iteration (or one analytic macro-step).
    fn step(&mut self) -> StepOutcome;

    /// Completed iterations so far.
    fn iterations(&self) -> usize;

    /// Sweeps one [`step`](SolveEngine::step) advances
    /// [`iterations`](SolveEngine::iterations) by (1 unless the engine
    /// fuses sweeps). A [`Session`] reads its [`Budget`]'s iteration
    /// deadline and stall window in sweeps and converts them to steps
    /// with this figure.
    fn sweeps_per_step(&self) -> usize {
        1
    }

    /// Bounds [`iterations`](SolveEngine::iterations) at `cap`: an
    /// engine fusing several sweeps per step truncates its final step
    /// there instead of overshooting. A [`Session`] calls it once per
    /// run with the ceiling of its stop condition and budget; a no-op
    /// for stride-1 engines.
    fn cap_iterations(&mut self, cap: usize) {
        let _ = cap;
    }

    /// Whether [`checkpoint`](SolveEngine::checkpoint)/
    /// [`rollback`](SolveEngine::rollback) actually snapshot state.
    fn supports_checkpoint(&self) -> bool {
        false
    }

    /// Snapshots the solve state for a later rollback.
    fn checkpoint(&mut self) {}

    /// Restores the last checkpoint; returns `false` when none exists.
    fn rollback(&mut self) -> bool {
        false
    }

    /// One-time setup before the first step (e.g. boot DMA traffic).
    fn begin(&mut self) {}

    /// One-time teardown after a clean run (e.g. drain DMA traffic).
    fn finish(&mut self) {}

    /// Exports a resumable image of the solve state, or `None` when the
    /// engine cannot resume from an image (e.g. it owns mid-stream RNG
    /// state, like the fault-injected detailed simulator — such engines
    /// recover by deterministic replay from iteration 0 instead).
    fn export_state(&self) -> Option<EngineStateImage> {
        None
    }

    /// Restores state captured by
    /// [`export_state`](SolveEngine::export_state) on the *same
    /// problem*. Returns `false` — leaving the engine untouched — when
    /// the image's shape or scalar width disagrees, or the engine does
    /// not support restoration.
    fn restore_state(&mut self, image: &EngineStateImage) -> bool {
        let _ = image;
        false
    }
}

impl<E: SolveEngine + ?Sized> SolveEngine for &mut E {
    fn step(&mut self) -> StepOutcome {
        (**self).step()
    }
    fn iterations(&self) -> usize {
        (**self).iterations()
    }
    fn sweeps_per_step(&self) -> usize {
        (**self).sweeps_per_step()
    }
    fn cap_iterations(&mut self, cap: usize) {
        (**self).cap_iterations(cap);
    }
    fn supports_checkpoint(&self) -> bool {
        (**self).supports_checkpoint()
    }
    fn checkpoint(&mut self) {
        (**self).checkpoint();
    }
    fn rollback(&mut self) -> bool {
        (**self).rollback()
    }
    fn begin(&mut self) {
        (**self).begin();
    }
    fn finish(&mut self) {
        (**self).finish();
    }
    fn export_state(&self) -> Option<EngineStateImage> {
        (**self).export_state()
    }
    fn restore_state(&mut self, image: &EngineStateImage) -> bool {
        (**self).restore_state(image)
    }
}

/// The single generic solve driver.
///
/// A session owns the outer iteration loop every backend used to
/// hand-roll: stop-condition evaluation, residual-history bookkeeping,
/// and — when a [`ResiliencePolicy`] is attached — divergence detection
/// plus checkpoint/rollback/retry.
///
/// # Example
///
/// ```
/// use fdm::prelude::*;
/// use fdm::engine::{Session, SweepEngine};
///
/// let problem = LaplaceProblem::builder(32, 32)
///     .boundary(DirichletBoundary::hot_top(1.0))
///     .build()
///     .expect("valid problem")
///     .discretize::<f64>();
/// let engine = SweepEngine::new(&problem, UpdateMethod::Jacobi);
/// let mut session = Session::new(engine, StopCondition::tolerance(1e-6, 100_000));
/// let met = session.run().expect("healthy problem, finite norms");
/// assert!(met);
/// assert!(!session.history().is_empty());
/// ```
pub struct Session<'cb, E: SolveEngine> {
    engine: E,
    stop: StopCondition,
    policy: Option<ResiliencePolicy>,
    budget: Budget,
    history: ResidualHistory,
    executed: usize,
    /// Sweeps executed by the run: `executed` weighted by how far each
    /// step advanced the engine's iteration count.
    swept: usize,
    /// Absolute-iteration period of the state sink (0 = never).
    sink_interval: usize,
    /// Observer handed a fresh [`EngineStateImage`] every
    /// `sink_interval` iterations — the durability layer's checkpoint
    /// hook. Runs on the *absolute* iteration count, so a resumed
    /// session keeps the same snapshot schedule as an uninterrupted one.
    sink: Option<StateSink<'cb>>,
    /// In-flight loop state carried across [`Session::run_for`] slices;
    /// `None` when no run is in progress.
    in_flight: Option<LoopState>,
}

/// Loop bookkeeping that survives a cooperative yield: the retry budget,
/// the rollback checkpoint coordinates and the wall-clock anchor all
/// belong to one *run*, not to one slice of it.
#[derive(Clone, Copy, Debug)]
struct LoopState {
    retries: u32,
    has_checkpoint: bool,
    ckpt_history_len: usize,
    ckpt_iteration: usize,
    wall_start: Option<Instant>,
}

/// What one [`Session::run_for`] slice produced.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SessionPoll {
    /// The run terminated; the payload is whether the stop condition's
    /// goal was met (the value [`Session::run`] would have returned).
    Done(bool),
    /// The slice's step allowance ran out before the run terminated.
    /// Call [`Session::run_for`] again to continue — the loop state
    /// (retry budget, checkpoints, budget clocks) carries over exactly.
    Yielded,
}

/// Boxed observer for [`Session::with_state_sink`].
type StateSink<'cb> = Box<dyn FnMut(&EngineStateImage) + 'cb>;

impl<E: SolveEngine + fmt::Debug> fmt::Debug for Session<'_, E> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Session")
            .field("engine", &self.engine)
            .field("stop", &self.stop)
            .field("policy", &self.policy)
            .field("budget", &self.budget)
            .field("history", &self.history)
            .field("executed", &self.executed)
            .field("swept", &self.swept)
            .field("sink_interval", &self.sink_interval)
            .field("sink", &self.sink.as_ref().map(|_| "FnMut(..)"))
            .finish()
    }
}

impl<'cb, E: SolveEngine> Session<'cb, E> {
    /// A plain session: no checkpoints, no divergence checks, no budget.
    pub fn new(engine: E, stop: StopCondition) -> Self {
        Session {
            engine,
            stop,
            policy: None,
            budget: Budget::unlimited(),
            history: ResidualHistory::new(),
            executed: 0,
            swept: 0,
            sink_interval: 0,
            sink: None,
            in_flight: None,
        }
    }

    /// Attaches a periodic state observer: every `interval` completed
    /// iterations (absolute count, so resumed runs keep the schedule)
    /// the engine's [`SolveEngine::export_state`] image is handed to
    /// `sink`. Engines that export `None` never fire the sink. An
    /// `interval` of 0 disables the sink.
    #[must_use]
    pub fn with_state_sink(
        mut self,
        interval: usize,
        sink: impl FnMut(&EngineStateImage) + 'cb,
    ) -> Self {
        self.sink_interval = interval;
        self.sink = Some(Box::new(sink));
        self
    }

    /// Attaches a resilience policy: the driver will checkpoint, watch
    /// for divergence/faults and roll back per the policy.
    #[must_use]
    pub fn with_policy(mut self, policy: ResiliencePolicy) -> Self {
        self.policy = Some(policy);
        self
    }

    /// Attaches a [`Budget`]: deadlines, cancellation and the stall
    /// watchdog are checked between steps, and a violation terminates
    /// the run with the matching structured error.
    #[must_use]
    pub fn with_budget(mut self, budget: Budget) -> Self {
        self.budget = budget;
        self
    }

    /// The engine being driven.
    pub fn engine(&self) -> &E {
        &self.engine
    }

    /// Mutable access to the engine being driven.
    pub fn engine_mut(&mut self) -> &mut E {
        &mut self.engine
    }

    /// Per-iteration update norms recorded so far.
    pub fn history(&self) -> &ResidualHistory {
        &self.history
    }

    /// Steps actually executed by the last [`Session::run`] — the budget
    /// currency. Unlike [`SolveEngine::iterations`], rollback replays
    /// count here: work discarded by a rollback was still performed.
    pub fn steps_executed(&self) -> usize {
        self.executed
    }

    /// Sweeps actually executed by the last [`Session::run`]: equal to
    /// [`Session::steps_executed`] for stride-1 engines, the summed
    /// epoch lengths for an engine fusing sweeps. Rollback replays count.
    pub fn sweeps_executed(&self) -> usize {
        self.swept
    }

    /// Consumes the session, returning the engine and the recorded
    /// history.
    pub fn into_parts(self) -> (E, ResidualHistory) {
        (self.engine, self.history)
    }

    /// Drives the engine until the stop condition is satisfied.
    ///
    /// Returns `Ok(met)` — whether the stop condition's goal was met
    /// (tolerance reached, or all fixed steps completed).
    ///
    /// # Errors
    ///
    /// Always, policy or not: [`EngineError::NonFinite`] when an update
    /// norm comes back NaN/Inf and no policy is attached to recover from
    /// it (NaN never satisfies an ordered tolerance comparison, so
    /// without this check a poisoned solve would silently spin to
    /// `max_iterations`).
    ///
    /// With a policy attached, the first unrecoverable trouble: a fault
    /// or divergence with no checkpoint to roll back to
    /// ([`EngineError::NonFinite`], [`EngineError::Diverged`],
    /// [`EngineError::CorruptionDetected`], [`EngineError::DmaFailed`]),
    /// or [`EngineError::RetriesExhausted`] once the retry budget runs
    /// out.
    ///
    /// With a budget attached, [`EngineError::Cancelled`],
    /// [`EngineError::DeadlineExceeded`] or [`EngineError::Stalled`];
    /// budget violations are terminal and never roll back (a checkpoint
    /// cannot refund spent time).
    ///
    /// On `Err` the engine's `finish` hook is *not* invoked (a failed
    /// solve does not drain its solution).
    pub fn run(&mut self) -> Result<bool, EngineError> {
        self.in_flight = None; // a fresh run, even after a partial run_for
        loop {
            match self.run_for(usize::MAX)? {
                SessionPoll::Done(met) => return Ok(met),
                SessionPoll::Yielded => {}
            }
        }
    }

    /// Cooperative-yield variant of [`Session::run`]: drives the engine
    /// for at most `max_steps` further steps, then yields control back
    /// to the caller with [`SessionPoll::Yielded`] if the run has not
    /// terminated yet.
    ///
    /// The first call begins the run (engine `begin` hook, initial
    /// policy checkpoint); subsequent calls continue it with the loop
    /// state — retry budget, rollback checkpoint, deadline and
    /// wall-clock anchors — carried over exactly, so a run executed in
    /// slices is bit-identical to one executed by a single
    /// [`Session::run`]. This is the primitive the solve service's
    /// hedged attempts interleave on: two sessions advance in
    /// alternating virtual-time slices and the first to finish cancels
    /// the other.
    ///
    /// [`Session::steps_executed`] accumulates across slices of one run
    /// and resets when a new run begins.
    ///
    /// # Errors
    ///
    /// Exactly the error surface of [`Session::run`]; an error ends the
    /// in-flight run (the next call starts a fresh one).
    pub fn run_for(&mut self, max_steps: usize) -> Result<SessionPoll, EngineError> {
        if self.in_flight.is_none() {
            self.engine.begin();
            let wall_start = self.budget.max_wall.map(|_| Instant::now());
            let mut state = LoopState {
                retries: 0,
                has_checkpoint: false,
                ckpt_history_len: self.history.len(),
                ckpt_iteration: self.engine.iterations(),
                wall_start,
            };
            if let Some(p) = &self.policy {
                if p.checkpoint_interval > 0 && self.engine.supports_checkpoint() {
                    self.engine.checkpoint();
                    state.has_checkpoint = true;
                    state.ckpt_history_len = self.history.len();
                    state.ckpt_iteration = self.engine.iterations();
                }
            }
            // A fused-sweep engine must land exactly on the stop
            // condition's cap and the deadline, not overshoot them by a
            // partial epoch.
            let max = self.stop.max_iterations();
            let base = self.engine.iterations();
            let ceiling = self
                .budget
                .deadline_iterations
                .map_or(max, |d| base.saturating_add(d).min(max));
            self.engine.cap_iterations(ceiling);
            self.executed = 0;
            self.swept = 0;
            self.in_flight = Some(state);
        }
        match self.run_slice(max_steps) {
            Ok(SessionPoll::Yielded) => Ok(SessionPoll::Yielded),
            Ok(SessionPoll::Done(met)) => {
                self.in_flight = None;
                Ok(SessionPoll::Done(met))
            }
            Err(e) => {
                self.in_flight = None;
                Err(e)
            }
        }
    }

    /// One slice of the driver loop; `self.in_flight` must be `Some`.
    fn run_slice(&mut self, max_steps: usize) -> Result<SessionPoll, EngineError> {
        let mut state = self.in_flight.take().unwrap_or(LoopState {
            retries: 0,
            has_checkpoint: false,
            ckpt_history_len: 0,
            ckpt_iteration: 0,
            wall_start: None,
        });
        let result = self.slice_loop(max_steps, &mut state);
        self.in_flight = Some(state);
        result
    }

    /// The driver loop body shared by every slice of a run.
    #[allow(clippy::too_many_lines)]
    fn slice_loop(
        &mut self,
        max_steps: usize,
        state: &mut LoopState,
    ) -> Result<SessionPoll, EngineError> {
        let max = self.stop.max_iterations();
        // Budgets count sweeps; convert them to this engine's steps.
        let k = self.engine.sweeps_per_step().max(1);
        let deadline_steps = self.budget.deadline_iterations.map(|d| d.div_ceil(k));
        let stall_window = match self.budget.stall_window {
            w if w > 0 && k > 1 => w.div_ceil(k).max(2),
            w => w,
        };
        let mut slice_steps = 0usize;
        let mut met = false;
        while self.engine.iterations() < max {
            if slice_steps >= max_steps {
                return Ok(SessionPoll::Yielded);
            }
            // Budget gate, *before* the step: a job never exceeds its
            // deadline, and a cancelled job does no further work.
            {
                let iteration = self.engine.iterations();
                let b = &self.budget;
                if b.cancel.as_ref().is_some_and(CancelToken::is_cancelled) {
                    return Err(EngineError::Cancelled { iteration });
                }
                if deadline_steps.is_some_and(|d| self.executed >= d) {
                    return Err(EngineError::DeadlineExceeded { iteration });
                }
                if let (Some(ceiling), Some(start)) = (b.max_wall, state.wall_start) {
                    if start.elapsed() >= ceiling {
                        return Err(EngineError::DeadlineExceeded { iteration });
                    }
                }
            }

            let iter_before = self.engine.iterations();
            let out = self.engine.step();
            self.executed += 1;
            slice_steps += 1;
            if let Some(norm) = out.norm {
                self.history.push(norm);
            }
            let iteration = self.engine.iterations();
            self.swept += iteration.saturating_sub(iter_before);

            if let Some(p) = &self.policy {
                let trouble = match out.fault {
                    Some(StepFault::DmaFailed) => Some(EngineError::DmaFailed { iteration }),
                    Some(StepFault::CorruptionDetected) => {
                        Some(EngineError::CorruptionDetected { iteration })
                    }
                    None => match self
                        .history
                        .detect_divergence(p.divergence_window, p.divergence_factor)
                    {
                        Some(Divergence::NonFinite { iteration }) => {
                            Some(EngineError::NonFinite { iteration })
                        }
                        Some(Divergence::Growing { iteration, ratio }) => {
                            Some(EngineError::Diverged { iteration, ratio })
                        }
                        None => None,
                    },
                };
                if let Some(err) = trouble {
                    if !state.has_checkpoint {
                        return Err(err);
                    }
                    if state.retries >= p.max_retries {
                        return Err(EngineError::RetriesExhausted {
                            attempts: state.retries,
                            checkpoint_iteration: state.ckpt_iteration,
                        });
                    }
                    state.retries += 1;
                    self.engine.rollback();
                    self.history.truncate(state.ckpt_history_len);
                    continue;
                }
            } else if out.norm.is_some_and(|n| !n.is_finite()) {
                // No policy to recover through: a non-finite norm would
                // slip past every ordered comparison below, so surface it
                // as a structured error instead of spinning to the cap.
                return Err(EngineError::NonFinite { iteration });
            }

            if stall_window > 0 {
                if let Some(at) = self
                    .history
                    .detect_stall(stall_window, self.budget.stall_min_decay)
                {
                    return Err(EngineError::Stalled { iteration: at });
                }
            }

            let norm = out.norm.unwrap_or(f64::INFINITY);
            if self.stop.should_stop(iteration, norm) {
                met = self.stop.is_met(iteration, norm);
                break;
            }

            // Interval firings use *crossing* semantics so multi-sweep
            // steps (a wavefront epoch advances `iterations` by several
            // sweeps) still fire when a step jumps over an interval
            // multiple. Stride-1 engines behave exactly as before.
            let crossed = |interval: usize| iteration / interval > iter_before / interval;

            if let Some(p) = &self.policy {
                if p.checkpoint_interval > 0
                    && self.engine.supports_checkpoint()
                    && crossed(p.checkpoint_interval)
                {
                    self.engine.checkpoint();
                    state.has_checkpoint = true;
                    state.ckpt_history_len = self.history.len();
                    state.ckpt_iteration = iteration;
                    // The budget bounds retries per checkpoint window:
                    // making it this far means real progress, so the
                    // allowance renews.
                    state.retries = 0;
                }
            }

            if self.sink_interval > 0 && crossed(self.sink_interval) {
                if let Some(sink) = &mut self.sink {
                    if let Some(image) = self.engine.export_state() {
                        sink(&image);
                    }
                }
            }
        }
        if self.engine.iterations() == max {
            met = self
                .stop
                .is_met(max, self.history.last().unwrap_or(f64::INFINITY));
        }

        self.engine.finish();
        Ok(SessionPoll::Done(met))
    }
}

/// How a [`SweepEngine`] schedules its sweeps: the software analogue of
/// FDMAX's elastic reconfiguration of one PE array into `1×(C·k)`
/// chains — one operator, with the worker count and the fused-sweep
/// depth as parameters instead of separate engine types.
///
/// | plan | Jacobi, checkerboard | Hybrid, Gauss-Seidel, SOR |
/// |---|---|---|
/// | one band, `tile_depth == 1` | serial sweeps | serial sweeps |
/// | several bands, `tile_depth == 1` | banded step on scoped threads | serial sweeps |
/// | `tile_depth > 1` | wavefront epoch of `tile_depth` fused sweeps ([`crate::tiled`]) | serial sweeps |
///
/// The serial and banded schedules are bit-identical, fields and
/// residual histories, at any thread count. The wavefront is
/// bit-identical at the same sweep counts in practice; its documented
/// contract is ≤1e-12 relative (f64), so a future tile schedule may
/// regroup within an epoch.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct SweepPlan {
    /// Most worker bands the interior is split into (0 counts as 1).
    pub threads: usize,
    /// Sweeps fused per cache pass (0 counts as 1; 1 disables temporal
    /// tiling).
    pub tile_depth: usize,
}

impl SweepPlan {
    /// One band, one sweep per step: the plain serial sweeps.
    pub const SERIAL: SweepPlan = SweepPlan {
        threads: 1,
        tile_depth: 1,
    };

    /// `true` for the data-parallel sweeps (Jacobi, checkerboard), the
    /// only ones a plan bands or tiles. The ordered sweeps (Hybrid,
    /// Gauss-Seidel, SOR) carry a loop dependency across rows that
    /// neither the bands nor the wavefront can legally reorder.
    #[must_use]
    pub fn is_data_parallel(method: UpdateMethod) -> bool {
        matches!(method, UpdateMethod::Jacobi | UpdateMethod::Checkerboard)
    }

    /// The interior row bands a `rows`-row grid is swept in: up to
    /// `threads` contiguous bands ([`row_bands`]) floored at the tile
    /// depth, so no band is narrower than the halo its wavefront skews
    /// across ([`row_bands_with_min`]); one band for the ordered
    /// methods. The race certifier (`fdmax::analysis::BandPlan`) derives
    /// its geometry here too.
    #[must_use]
    pub fn bands(self, rows: usize, method: UpdateMethod) -> Vec<Range<usize>> {
        if Self::is_data_parallel(method) {
            row_bands_with_min(rows, self.threads.max(1), self.tile_depth.max(1))
        } else {
            row_bands(rows, 1)
        }
    }
}

/// Which of the three step schedules a [`SweepEngine`]'s plan selects.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Schedule {
    /// The serial sweeps of [`crate::solver`].
    Serial,
    /// One sweep with the bands on scoped threads.
    Banded,
    /// Fused epochs over the skewed row wavefront of [`crate::tiled`].
    Wavefront,
}

/// Sub-levels of an `e`-sweep wavefront epoch: one per Jacobi sweep, two
/// per checkerboard sweep (one per parity phase).
fn levels(method: UpdateMethod, e: usize) -> usize {
    match method {
        UpdateMethod::Checkerboard => 2 * e,
        _ => e,
    }
}

/// Copies `cur`'s Dirichlet boundary ring (top/bottom rows, left/right
/// columns) into `next`.
///
/// The sweeps only write interior points, so a double-buffered write
/// target must already carry the right ring. For two-buffer rotations
/// that holds by construction, but the wave equation's *three*-buffer
/// rotation cycles `prev_initial`'s buffer back in as the write target
/// every other sweep — without this refresh its ring would leak into
/// the solution whenever `prev_initial` disagrees with `initial` on the
/// boundary (the numerics never read those cells; only the rotation
/// exposes them). A bitwise no-op when the rings agree.
fn refresh_boundary_ring<T: Scalar>(next: &mut Grid2D<T>, cur: &Grid2D<T>) {
    let (rows, cols) = (cur.rows(), cur.cols());
    if rows == 0 || cols == 0 {
        return;
    }
    let src = cur.as_slice();
    let dst = next.as_mut_slice();
    dst[..cols].copy_from_slice(&src[..cols]);
    dst[(rows - 1) * cols..].copy_from_slice(&src[(rows - 1) * cols..]);
    for i in 1..rows.saturating_sub(1) {
        dst[i * cols] = src[i * cols];
        dst[i * cols + cols - 1] = src[i * cols + cols - 1];
    }
}

/// A snapshot of a [`SweepEngine`]'s rotating buffers.
#[derive(Clone, Debug)]
struct SweepCheckpoint<T> {
    cur: Grid2D<T>,
    next: Grid2D<T>,
    prev: Option<Grid2D<T>>,
    iterations: usize,
}

/// The software relaxation sweeps as a [`SolveEngine`], scheduled by a
/// [`SweepPlan`].
///
/// Every schedule evaluates rows with the same [`crate::kernels`] row
/// kernels in the canonical stencil order (bit-exact with the hardware
/// model's f32 arithmetic) and folds diff² partials in the serial
/// accumulation order:
///
/// * **Serial** — one sweep of the chosen [`UpdateMethod`] per step.
/// * **Banded** — the interior is split into contiguous row bands, one
///   per worker, exactly as the elastic reconfiguration assigns row
///   strips to chained subarrays; the rows adjacent to a band boundary
///   play the role of the `HaloAdders`' one-row halo exchange. Bands
///   run on [`std::thread::scope`] and record per-row diff² partials
///   that are folded in ascending row order after the join. Jacobi
///   parallelises trivially (every output row depends only on the
///   previous iterate); a checkerboard phase-`p` update reads only
///   opposite-parity neighbours, which the running phase never writes,
///   so pre-phase halo snapshots stay valid for the whole phase.
/// * **Wavefront** — one step is an *epoch* of `e = min(tile_depth,
///   cap - iterations)` fused sweeps ([`crate::tiled`]):
///   [`SolveEngine::iterations`] advances by `e` and the norm is the
///   last fused sweep's, so residual histories are epoch-granular.
///
/// Buffers rotate by pointer swap; the only per-step copy is the wave
/// history snapshot, kept in a reused scratch buffer.
#[derive(Debug)]
pub struct SweepEngine<'p, T: Scalar> {
    problem: &'p StencilProblem<T>,
    method: UpdateMethod,
    plan: SweepPlan,
    schedule: Schedule,
    /// Sweeps per step: the tile depth under the wavefront, else 1.
    depth: usize,
    /// Iteration count the final wavefront epoch truncates at.
    cap: Option<usize>,
    cur: Grid2D<T>,
    next: Grid2D<T>,
    prev: Option<Grid2D<T>>,
    /// Wave-history staging, rotated into `prev` after each step: the
    /// pre-sweep field of an in-place sweep, or the field after a
    /// wavefront epoch's second-to-last sweep.
    scratch: Option<Grid2D<T>>,
    uses_prev: bool,
    iterations: usize,
    saved: Option<SweepCheckpoint<T>>,
    /// Interior row bands, fixed at construction.
    bands: Vec<Range<usize>>,
    /// Per-row (banded) or per-(row, sub-level) (wavefront, stride =
    /// the epoch's level count) diff² partials, index = absolute row.
    partials: Vec<f64>,
    /// Banded checkerboard: pre-phase snapshots of the rows above and
    /// below each band (the `HaloAdder` analogue).
    halos: Vec<(Vec<T>, Vec<T>)>,
}

impl<'p, T: Scalar> SweepEngine<'p, T> {
    /// A serial sweep engine on `problem`: [`SweepEngine::with_plan`]
    /// with [`SweepPlan::SERIAL`].
    ///
    /// # Panics
    ///
    /// As [`SweepEngine::with_plan`].
    pub fn new(problem: &'p StencilProblem<T>, method: UpdateMethod) -> Self {
        Self::with_plan(problem, method, SweepPlan::SERIAL)
    }

    /// Prepares a sweep engine on `problem` scheduled by `plan`. The
    /// ordered methods (see [`SweepPlan::is_data_parallel`]) always run
    /// the serial sweeps.
    ///
    /// # Panics
    ///
    /// Panics when an SOR factor lies outside `(0, 2)`, or when a
    /// `ScaledPrevField` offset (wave equation) comes without
    /// `prev_initial`.
    pub fn with_plan(
        problem: &'p StencilProblem<T>,
        method: UpdateMethod,
        plan: SweepPlan,
    ) -> Self {
        if let UpdateMethod::Sor { omega } = method {
            assert!(
                omega > 0.0 && omega < 2.0,
                "SOR requires omega in (0, 2), got {omega}"
            );
        }
        let uses_prev = matches!(problem.offset, OffsetField::ScaledPrevField { .. });
        assert!(
            !uses_prev || problem.prev_initial.is_some(),
            "a ScaledPrevField offset requires prev_initial"
        );
        let plan = SweepPlan {
            threads: plan.threads.max(1),
            tile_depth: plan.tile_depth.max(1),
        };
        let cur = problem.initial.clone();
        let rows = cur.rows();
        let depth = if SweepPlan::is_data_parallel(method) {
            plan.tile_depth
        } else {
            1
        };
        let bands = plan.bands(rows, method);
        let schedule = if depth > 1 {
            Schedule::Wavefront
        } else if bands.len() > 1 {
            Schedule::Banded
        } else {
            Schedule::Serial
        };
        let partials = match schedule {
            Schedule::Serial => Vec::new(),
            Schedule::Banded => vec![0.0; rows],
            Schedule::Wavefront => vec![0.0; rows * levels(method, depth)],
        };
        let halos = if schedule == Schedule::Banded && method == UpdateMethod::Checkerboard {
            let row = vec![T::ZERO; cur.cols()];
            vec![(row.clone(), row); bands.len()]
        } else {
            Vec::new()
        };
        SweepEngine {
            problem,
            method,
            plan,
            schedule,
            depth,
            cap: None,
            next: cur.clone(),
            cur,
            prev: problem.prev_initial.clone(),
            scratch: None,
            uses_prev,
            iterations: 0,
            saved: None,
            bands,
            partials,
            halos,
        }
    }

    /// Caps total iterations: the final wavefront epoch truncates to
    /// `cap - iterations` fused sweeps so the engine lands exactly on
    /// the cap (a tolerance budget or service deadline) instead of
    /// overshooting by up to `tile_depth - 1` sweeps. A [`Session`]
    /// applies its own ceiling through [`SolveEngine::cap_iterations`].
    #[must_use]
    pub fn with_iteration_cap(mut self, cap: usize) -> Self {
        self.cap = Some(cap);
        self
    }

    /// The current field `U^k`.
    pub fn solution(&self) -> &Grid2D<T> {
        &self.cur
    }

    /// Consumes the engine, returning the final field.
    pub fn into_solution(self) -> Grid2D<T> {
        self.cur
    }

    /// The update method being swept.
    pub fn method(&self) -> UpdateMethod {
        self.method
    }

    /// The plan as requested (both fields at least 1); the bands
    /// actually swept may be fewer on short grids.
    pub fn plan(&self) -> SweepPlan {
        self.plan
    }

    /// The band plan actually swept: ascending, disjoint, contiguous
    /// interior row ranges ([`SweepPlan::bands`]). The static race
    /// certifier (`fdmax::analysis`) certifies exactly this geometry.
    pub fn bands(&self) -> &[Range<usize>] {
        &self.bands
    }

    /// Row-slots each full-depth wavefront epoch computes *beyond* the
    /// owned interior — the trapezoid halo recomputation the strips pay
    /// to avoid per-sweep synchronisation (0 for the other schedules).
    /// This is the quantity the FDX022 geometry lint bounds: when it
    /// reaches the useful work (`interior × levels`), the halo has
    /// consumed the interior.
    #[must_use]
    pub fn redundant_halo_rows_per_epoch(&self) -> usize {
        if self.schedule != Schedule::Wavefront {
            return 0;
        }
        let rows = self.cur.rows();
        let s = levels(self.method, self.depth);
        let mut redundant = 0usize;
        for band in &self.bands {
            for l in 1..=s {
                let lo = band.start.saturating_sub(s - l).max(1);
                let hi = (band.end + (s - l)).min(rows - 1);
                redundant += (hi - lo) - band.len();
            }
        }
        redundant
    }

    /// Fused sweeps the next wavefront epoch will execute.
    fn epoch_len(&self) -> usize {
        match self.cap {
            Some(c) if c > self.iterations => self.depth.min(c - self.iterations),
            Some(_) => 1,
            None => self.depth,
        }
    }

    /// One serial or banded sweep, wave-history rotation included.
    fn sweep(&mut self) -> f64 {
        let problem = self.problem;
        let (stencil, offset) = (&problem.stencil, &problem.offset);
        let banded = self.schedule == Schedule::Banded;
        if matches!(self.method, UpdateMethod::Jacobi | UpdateMethod::Hybrid) {
            // The wave rotation cycles `prev_initial`'s buffer in as the
            // write target: re-pin its boundary ring to the solution's.
            if self.uses_prev {
                refresh_boundary_ring(&mut self.next, &self.cur);
            }
            let prev = self.prev.as_ref();
            let diff2 = match self.method {
                UpdateMethod::Jacobi if banded => self.banded_jacobi(),
                UpdateMethod::Jacobi => {
                    sweep_jacobi(stencil, offset, &self.cur, prev, &mut self.next)
                }
                _ => sweep_hybrid(stencil, offset, &self.cur, prev, &mut self.next),
            };
            // Double-buffered: rotate cur/next, and prev for the wave.
            if self.uses_prev {
                core::mem::swap(&mut self.cur, self.prev.as_mut().expect("checked in new"));
            }
            core::mem::swap(&mut self.cur, &mut self.next);
            return diff2;
        }
        // In-place sweeps: when the wave history is live, keep the
        // pre-sweep field in the reused scratch buffer (no per-step
        // allocation) and rotate it into `prev`.
        if self.uses_prev {
            match &mut self.scratch {
                Some(s) => s.as_mut_slice().copy_from_slice(self.cur.as_slice()),
                None => self.scratch = Some(self.cur.clone()),
            }
        }
        let diff2 = match self.method {
            UpdateMethod::Checkerboard if banded => self.banded_checkerboard(),
            UpdateMethod::Checkerboard => {
                sweep_checkerboard(stencil, offset, &mut self.cur, self.prev.as_ref())
            }
            UpdateMethod::GaussSeidel => {
                sweep_gauss_seidel(stencil, offset, &mut self.cur, self.prev.as_ref())
            }
            UpdateMethod::Sor { omega } => {
                sweep_sor(stencil, offset, &mut self.cur, self.prev.as_ref(), omega)
            }
            UpdateMethod::Jacobi | UpdateMethod::Hybrid => unreachable!("double-buffered above"),
        };
        if self.uses_prev {
            core::mem::swap(
                self.prev.as_mut().expect("checked in new"),
                self.scratch.as_mut().expect("filled above"),
            );
        }
        diff2
    }

    /// One banded Jacobi sweep: bands write disjoint chunks of `next`
    /// and of the partials; the fold after the join runs in ascending
    /// row order, matching the serial accumulation.
    fn banded_jacobi(&mut self) -> f64 {
        let problem = self.problem;
        let stencil = &problem.stencil;
        let offset = &problem.offset;
        let prev = self.prev.as_ref();
        let cur = &self.cur;
        let (rows, cols) = (cur.rows(), cur.cols());
        let mut out_rem = &mut self.next.as_mut_slice()[cols..(rows - 1) * cols];
        let mut d_rem = &mut self.partials[1..rows - 1];
        let mut work: Vec<(Range<usize>, &mut [T], &mut [f64])> =
            Vec::with_capacity(self.bands.len());
        for band in &self.bands {
            let h = band.len();
            let (out, rest) = core::mem::take(&mut out_rem).split_at_mut(h * cols);
            out_rem = rest;
            let (d, rest) = core::mem::take(&mut d_rem).split_at_mut(h);
            d_rem = rest;
            work.push((band.clone(), out, d));
        }
        let run_band = |band: Range<usize>, out: &mut [T], d: &mut [f64]| {
            for (r, i) in band.enumerate() {
                let b = OffsetRow::for_row(offset, prev, i);
                d[r] = jacobi_row(
                    stencil,
                    cur.row(i - 1),
                    cur.row(i),
                    cur.row(i + 1),
                    b,
                    &mut out[r * cols..(r + 1) * cols],
                );
            }
        };
        std::thread::scope(|s| {
            for (band, out, d) in work {
                s.spawn(move || run_band(band, out, d));
            }
        });
        crate::ops::fold_partials(&self.partials[1..rows - 1])
    }

    /// One banded checkerboard sweep, two phases. Per phase: snapshot
    /// band-edge halo rows, update all bands concurrently in place, then
    /// fold the phase's per-row partials ascending — the exact serial
    /// order `phase-0 rows 1..n, phase-1 rows 1..n`.
    fn banded_checkerboard(&mut self) -> f64 {
        let problem = self.problem;
        let stencil = &problem.stencil;
        let offset = &problem.offset;
        let (rows, cols) = (self.cur.rows(), self.cur.cols());
        let mut total = 0.0f64;
        for parity in [0usize, 1] {
            // Pre-phase halo snapshots: valid for the whole phase because
            // a phase only writes its own parity and only reads the other.
            for (band, (up, down)) in self.bands.iter().zip(&mut self.halos) {
                up.copy_from_slice(self.cur.row(band.start - 1));
                down.copy_from_slice(self.cur.row(band.end));
            }
            let prev = self.prev.as_ref();
            let mut field_rem = &mut self.cur.as_mut_slice()[cols..(rows - 1) * cols];
            let mut d_rem = &mut self.partials[1..rows - 1];
            #[allow(clippy::type_complexity)]
            let mut work: Vec<(Range<usize>, &mut [T], &mut [f64], &[T], &[T])> =
                Vec::with_capacity(self.bands.len());
            for (band, (up, down)) in self.bands.iter().zip(&self.halos) {
                let h = band.len();
                let (chunk, rest) = core::mem::take(&mut field_rem).split_at_mut(h * cols);
                field_rem = rest;
                let (d, rest) = core::mem::take(&mut d_rem).split_at_mut(h);
                d_rem = rest;
                work.push((band.clone(), chunk, d, up, down));
            }
            let run_band = |band: Range<usize>,
                            chunk: &mut [T],
                            d: &mut [f64],
                            up_halo: &[T],
                            down_halo: &[T]| {
                let h = band.len();
                for r in 0..h {
                    let i = band.start + r;
                    let b = OffsetRow::for_row(offset, prev, i);
                    let start = if (i + parity) % 2 == 1 { 1 } else { 2 };
                    let (head, rest) = chunk.split_at_mut(r * cols);
                    let (mid, tail) = rest.split_at_mut(cols);
                    let up: &[T] = if r == 0 {
                        up_halo
                    } else {
                        &head[(r - 1) * cols..]
                    };
                    let down: &[T] = if r + 1 == h { down_halo } else { &tail[..cols] };
                    d[r] = checkerboard_row(stencil, up, mid, down, b, start);
                }
            };
            std::thread::scope(|s| {
                for (band, chunk, d, up, down) in work {
                    s.spawn(move || run_band(band, chunk, d, up, down));
                }
            });
            total = crate::ops::fold_partials_from(total, &self.partials[1..rows - 1]);
        }
        total
    }

    /// One wavefront epoch of `e` fused sweeps ([`crate::tiled`]).
    /// Returns the *last* sweep's diff², folded in the exact serial
    /// accumulation order, and rotates the buffers as `e` serial sweeps
    /// would.
    fn wavefront_epoch(&mut self, e: usize) -> f64 {
        let (rows, cols) = (self.cur.rows(), self.cur.cols());
        if self.bands.is_empty() {
            return 0.0;
        }
        let method = self.method;
        let s = levels(method, e);
        // Sub-level whose field becomes the epoch's history (`prev`):
        // the field after sweep e-1, i.e. level e-1 (Jacobi) or phase
        // 2e-2 (checkerboard). Level 0 is `cur` itself.
        let stage_level = match (self.uses_prev, method) {
            (false, _) => usize::MAX,
            (true, UpdateMethod::Checkerboard) => 2 * e - 2,
            (true, _) => e - 1,
        };
        if self.uses_prev {
            let cur = &self.cur;
            let stage = self.scratch.get_or_insert_with(|| cur.clone());
            if stage_level == 0 {
                stage.as_mut_slice().copy_from_slice(cur.as_slice());
            } else {
                // Keep the stage's boundary rows in lock-step with `cur`
                // (bands only write owned interior rows).
                let (src, dst) = (cur.as_slice(), stage.as_mut_slice());
                dst[..cols].copy_from_slice(&src[..cols]);
                dst[(rows - 1) * cols..].copy_from_slice(&src[(rows - 1) * cols..]);
            }
        }

        // Split the shared outputs into per-band chunks: `next`'s owned
        // interior rows, the stage's owned rows, and the diff² slots.
        let problem = self.problem;
        let uses_stage = self.uses_prev && stage_level > 0;
        let prev = self.prev.as_ref();
        let cur = &self.cur;
        let mut out_rem = &mut self.next.as_mut_slice()[cols..(rows - 1) * cols];
        let mut stage_rem: &mut [T] = match (uses_stage, self.scratch.as_mut()) {
            (true, Some(stage)) => &mut stage.as_mut_slice()[cols..(rows - 1) * cols],
            _ => &mut [],
        };
        let mut d_rem = &mut self.partials[s..(rows - 1) * s];
        #[allow(clippy::type_complexity)]
        let mut work: Vec<(Range<usize>, &mut [T], Option<&mut [T]>, &mut [f64])> =
            Vec::with_capacity(self.bands.len());
        for band in &self.bands {
            let h = band.len();
            let (out, rest) = core::mem::take(&mut out_rem).split_at_mut(h * cols);
            out_rem = rest;
            let stage = if uses_stage {
                let (chunk, rest) = core::mem::take(&mut stage_rem).split_at_mut(h * cols);
                stage_rem = rest;
                Some(chunk)
            } else {
                None
            };
            let (d, rest) = core::mem::take(&mut d_rem).split_at_mut(h * s);
            d_rem = rest;
            work.push((band.clone(), out, stage, d));
        }
        let run = |band: Range<usize>, out: &mut [T], stage: Option<&mut [T]>, d: &mut [f64]| {
            crate::tiled::band_pipeline(
                problem,
                method,
                s,
                stage_level,
                cur,
                prev,
                band,
                out,
                stage,
                d,
            );
        };
        if work.len() == 1 {
            let (band, out, stage, d) = work.pop().expect("one band");
            run(band, out, stage, d);
        } else {
            std::thread::scope(|sc| {
                for (band, out, stage, d) in work {
                    sc.spawn(move || run(band, out, stage, d));
                }
            });
        }

        // Fold the last fused sweep's per-row partials in the serial
        // accumulation order (checkerboard: all phase-0 rows ascending,
        // then all phase-1 rows).
        let flat = &self.partials;
        let mut total = 0.0f64;
        if method == UpdateMethod::Checkerboard {
            for r in 1..rows - 1 {
                total += flat[r * s + (s - 2)];
            }
        }
        for r in 1..rows - 1 {
            total += flat[r * s + (s - 1)];
        }

        // Epoch-end rotation: prev <- field after sweep e-1, cur <-
        // field after sweep e (exactly the serial rotation, batched).
        if self.uses_prev {
            core::mem::swap(
                self.prev.as_mut().expect("checked in new"),
                self.scratch.as_mut().expect("staged above"),
            );
        }
        core::mem::swap(&mut self.cur, &mut self.next);
        total
    }
}

impl<T: Scalar> SolveEngine for SweepEngine<'_, T> {
    /// One sweep, or one wavefront epoch of `min(tile_depth, cap -
    /// iterations)` fused sweeps whose norm is the last sweep's.
    fn step(&mut self) -> StepOutcome {
        let (sweeps, diff2) = match self.schedule {
            Schedule::Wavefront => {
                let e = self.epoch_len();
                (e, self.wavefront_epoch(e))
            }
            Schedule::Serial | Schedule::Banded => (1, self.sweep()),
        };
        self.iterations += sweeps;
        StepOutcome::clean(diff2.sqrt())
    }

    fn iterations(&self) -> usize {
        self.iterations
    }

    fn sweeps_per_step(&self) -> usize {
        self.depth
    }

    fn cap_iterations(&mut self, cap: usize) {
        self.cap = Some(self.cap.map_or(cap, |c| c.min(cap)));
    }

    fn supports_checkpoint(&self) -> bool {
        true
    }

    fn checkpoint(&mut self) {
        self.saved = Some(SweepCheckpoint {
            cur: self.cur.clone(),
            next: self.next.clone(),
            prev: self.prev.clone(),
            iterations: self.iterations,
        });
    }

    fn rollback(&mut self) -> bool {
        match &self.saved {
            Some(ckpt) => {
                self.cur.as_mut_slice().copy_from_slice(ckpt.cur.as_slice());
                self.next
                    .as_mut_slice()
                    .copy_from_slice(ckpt.next.as_slice());
                match (&mut self.prev, &ckpt.prev) {
                    (Some(dst), Some(src)) => dst.as_mut_slice().copy_from_slice(src.as_slice()),
                    (dst, src) => *dst = src.clone(),
                }
                self.iterations = ckpt.iterations;
                true
            }
            None => false,
        }
    }

    fn export_state(&self) -> Option<EngineStateImage> {
        Some(EngineStateImage::capture(
            self.iterations,
            &self.cur,
            self.prev.as_ref(),
        ))
    }

    /// Validates the image shape, rewrites `cur`/`prev` from the stored
    /// bits and mirrors `cur` into `next` (sweeps only ever rewrite the
    /// interior of `next`, so its boundary ring must match `cur`).
    /// Bands, halos, partials and the scratch buffer are rewritten by
    /// every step, so only the rotating field buffers carry state — an
    /// image restores into an engine on any plan.
    fn restore_state(&mut self, image: &EngineStateImage) -> bool {
        let (cur, prev) = (&mut self.cur, &mut self.prev);
        if image.scalar_bytes as usize != T::BYTES
            || image.rows != cur.rows()
            || image.cols != cur.cols()
            || image.cur.len() != cur.as_slice().len()
            || image.prev.is_some() != prev.is_some()
            || image
                .prev
                .as_ref()
                .zip(prev.as_ref())
                .is_some_and(|(src, dst)| src.len() != dst.as_slice().len())
        {
            return false;
        }
        for (dst, &bits) in cur.as_mut_slice().iter_mut().zip(&image.cur) {
            *dst = T::from_bits_u64(bits);
        }
        if let (Some(dst), Some(src)) = (prev.as_mut(), image.prev.as_ref()) {
            for (d, &bits) in dst.as_mut_slice().iter_mut().zip(src) {
                *d = T::from_bits_u64(bits);
            }
        }
        self.next
            .as_mut_slice()
            .copy_from_slice(self.cur.as_slice());
        self.iterations = image.iterations;
        self.saved = None;
        true
    }
}

/// Constructor shim for the strip-parallel plan, kept because the
/// `perfbench` benchmark package compiles against this name. It holds
/// no state: [`ParallelSweepEngine::new`] returns a [`SweepEngine`] on
/// the plan `{threads, 1}`. Code in this workspace calls
/// [`SweepEngine::with_plan`].
#[derive(Debug)]
pub struct ParallelSweepEngine;

impl ParallelSweepEngine {
    /// `SweepEngine::with_plan(problem, method, SweepPlan { threads,
    /// tile_depth: 1 })`.
    ///
    /// # Panics
    ///
    /// As [`SweepEngine::with_plan`].
    // The name and signature are fixed by the benchmark's API.
    #[allow(clippy::new_ret_no_self)]
    pub fn new<'p, T: Scalar>(
        problem: &'p StencilProblem<T>,
        method: UpdateMethod,
        threads: usize,
    ) -> SweepEngine<'p, T> {
        SweepEngine::with_plan(
            problem,
            method,
            SweepPlan {
                threads,
                tile_depth: 1,
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::boundary::DirichletBoundary;
    use crate::pde::LaplaceProblem;
    use crate::solver::solve;

    fn banded(threads: usize) -> SweepPlan {
        SweepPlan {
            threads,
            tile_depth: 1,
        }
    }

    fn laplace(n: usize) -> StencilProblem<f64> {
        LaplaceProblem::builder(n, n)
            .boundary(DirichletBoundary::hot_top(1.0))
            .build()
            .unwrap()
            .discretize::<f64>()
    }

    #[test]
    fn session_matches_the_solve_entry_point() {
        let sp = laplace(16);
        let stop = StopCondition::tolerance(1e-8, 50_000);
        let mut session = Session::new(SweepEngine::new(&sp, UpdateMethod::Jacobi), stop);
        let met = session.run().unwrap();
        let sw = solve(&sp, UpdateMethod::Jacobi, &stop);
        assert_eq!(met, sw.converged());
        let (engine, history) = session.into_parts();
        assert_eq!(engine.iterations(), sw.iterations());
        assert_eq!(engine.solution(), sw.solution());
        assert_eq!(history.as_slice(), sw.history().as_slice());
    }

    #[test]
    fn zero_steps_is_trivially_met_for_fixed_mode_only() {
        let sp = laplace(8);
        let mut fixed = Session::new(
            SweepEngine::new(&sp, UpdateMethod::Jacobi),
            StopCondition::fixed_steps(0),
        );
        assert!(fixed.run().unwrap());
        let mut tol = Session::new(
            SweepEngine::new(&sp, UpdateMethod::Jacobi),
            StopCondition::tolerance(1e-8, 0),
        );
        assert!(!tol.run().unwrap());
    }

    #[test]
    fn borrowed_engines_drive_too() {
        let sp = laplace(8);
        let mut engine = SweepEngine::new(&sp, UpdateMethod::Jacobi);
        let mut session = Session::new(&mut engine, StopCondition::fixed_steps(3));
        assert!(session.run().unwrap());
        drop(session);
        assert_eq!(engine.iterations(), 3);
    }

    #[test]
    fn policy_detects_divergence_without_checkpoints() {
        // An engine that fabricates a growing norm series.
        struct Exploding {
            iterations: usize,
        }
        impl SolveEngine for Exploding {
            fn step(&mut self) -> StepOutcome {
                self.iterations += 1;
                StepOutcome::clean(10f64.powi(self.iterations as i32))
            }
            fn iterations(&self) -> usize {
                self.iterations
            }
        }
        let mut session = Session::new(Exploding { iterations: 0 }, StopCondition::fixed_steps(50))
            .with_policy(ResiliencePolicy {
                checkpoint_interval: 0,
                divergence_window: 2,
                divergence_factor: 10.0,
                ..ResiliencePolicy::default()
            });
        let err = session.run().unwrap_err();
        assert!(matches!(err, EngineError::Diverged { .. }));
    }

    #[test]
    fn retries_exhaust_into_a_structured_error() {
        // Every step reports corruption; rollback never helps.
        struct AlwaysCorrupt {
            iterations: usize,
        }
        impl SolveEngine for AlwaysCorrupt {
            fn step(&mut self) -> StepOutcome {
                self.iterations += 1;
                StepOutcome {
                    norm: Some(1.0),
                    fault: Some(StepFault::CorruptionDetected),
                }
            }
            fn iterations(&self) -> usize {
                self.iterations
            }
            fn supports_checkpoint(&self) -> bool {
                true
            }
            fn rollback(&mut self) -> bool {
                self.iterations -= 1;
                true
            }
        }
        let mut session = Session::new(
            AlwaysCorrupt { iterations: 0 },
            StopCondition::fixed_steps(10),
        )
        .with_policy(ResiliencePolicy {
            max_retries: 3,
            ..ResiliencePolicy::default()
        });
        assert_eq!(
            session.run().unwrap_err(),
            EngineError::RetriesExhausted {
                attempts: 3,
                checkpoint_iteration: 0
            }
        );
    }

    #[test]
    fn sweep_engine_checkpoint_round_trips() {
        let sp = laplace(12);
        let mut engine = SweepEngine::new(&sp, UpdateMethod::Jacobi);
        for _ in 0..3 {
            engine.step();
        }
        engine.checkpoint();
        let at_ckpt = engine.solution().clone();
        for _ in 0..4 {
            engine.step();
        }
        assert_ne!(engine.solution(), &at_ckpt);
        assert!(engine.rollback());
        assert_eq!(engine.solution(), &at_ckpt);
        assert_eq!(engine.iterations(), 3);
    }

    #[test]
    fn parallel_sweep_engine_is_bit_identical_to_serial() {
        let sp = laplace(17);
        for method in [UpdateMethod::Jacobi, UpdateMethod::Checkerboard] {
            for threads in [1usize, 2, 4, 7] {
                let mut serial = SweepEngine::new(&sp, method);
                let mut par = SweepEngine::with_plan(&sp, method, banded(threads));
                assert_eq!(par.plan().threads, threads.max(1));
                for step in 0..12 {
                    let a = serial.step().norm.unwrap();
                    let b = par.step().norm.unwrap();
                    assert_eq!(
                        a.to_bits(),
                        b.to_bits(),
                        "norm diverged at step {step} ({method:?}, {threads} threads)"
                    );
                }
                let (s, p) = (serial.solution(), par.solution());
                for i in 0..s.rows() {
                    for j in 0..s.cols() {
                        assert_eq!(s[(i, j)].to_bits(), p[(i, j)].to_bits());
                    }
                }
            }
        }
    }

    #[test]
    fn parallel_sweep_engine_checkpoint_round_trips() {
        let sp = laplace(12);
        let mut engine = SweepEngine::with_plan(&sp, UpdateMethod::Checkerboard, banded(3));
        for _ in 0..3 {
            engine.step();
        }
        engine.checkpoint();
        let at_ckpt = engine.solution().clone();
        for _ in 0..4 {
            engine.step();
        }
        assert_ne!(engine.solution(), &at_ckpt);
        assert!(engine.rollback());
        assert_eq!(engine.solution(), &at_ckpt);
        assert_eq!(engine.iterations(), 3);
    }

    #[test]
    fn engine_errors_display() {
        assert!(EngineError::NonFinite { iteration: 7 }
            .to_string()
            .contains("iteration 7"));
        assert!(EngineError::Diverged {
            iteration: 9,
            ratio: 12.5
        }
        .to_string()
        .contains("12.5"));
        assert!(EngineError::DmaFailed { iteration: 3 }
            .to_string()
            .contains("DMA"));
        assert!(EngineError::CorruptionDetected { iteration: 2 }
            .to_string()
            .contains("parity"));
        let e = EngineError::RetriesExhausted {
            attempts: 4,
            checkpoint_iteration: 64,
        };
        assert!(e.to_string().contains("4 rollback"));
        assert!(e.to_string().contains("iteration 64"));
        assert!(EngineError::Cancelled { iteration: 5 }
            .to_string()
            .contains("cancelled"));
        assert!(EngineError::DeadlineExceeded { iteration: 6 }
            .to_string()
            .contains("deadline"));
        assert!(EngineError::Stalled { iteration: 8 }
            .to_string()
            .contains("iteration 8"));
    }

    /// An engine whose norm turns NaN at a chosen iteration.
    struct Poisoned {
        iterations: usize,
        nan_at: usize,
    }
    impl SolveEngine for Poisoned {
        fn step(&mut self) -> StepOutcome {
            self.iterations += 1;
            if self.iterations >= self.nan_at {
                StepOutcome::clean(f64::NAN)
            } else {
                StepOutcome::clean(1.0 / self.iterations as f64)
            }
        }
        fn iterations(&self) -> usize {
            self.iterations
        }
    }

    #[test]
    fn nan_without_policy_is_a_structured_error_not_a_spin() {
        // Regression: NaN never satisfies `norm <= tol`, so before the
        // unconditional check a policy-less session looped to the cap.
        let mut session = Session::new(
            Poisoned {
                iterations: 0,
                nan_at: 4,
            },
            StopCondition::tolerance(1e-12, 1_000_000),
        );
        assert_eq!(
            session.run().unwrap_err(),
            EngineError::NonFinite { iteration: 4 }
        );
        assert_eq!(session.engine().iterations(), 4, "failed fast, no spin");
    }

    #[test]
    fn infinity_without_policy_also_errors() {
        struct Inf {
            iterations: usize,
        }
        impl SolveEngine for Inf {
            fn step(&mut self) -> StepOutcome {
                self.iterations += 1;
                StepOutcome::clean(f64::INFINITY)
            }
            fn iterations(&self) -> usize {
                self.iterations
            }
        }
        let mut session = Session::new(Inf { iterations: 0 }, StopCondition::fixed_steps(100));
        assert_eq!(
            session.run().unwrap_err(),
            EngineError::NonFinite { iteration: 1 }
        );
    }

    #[test]
    fn deadline_is_never_overshot() {
        let sp = laplace(16);
        let mut session = Session::new(
            SweepEngine::new(&sp, UpdateMethod::Jacobi),
            StopCondition::tolerance(1e-30, 100_000),
        )
        .with_budget(Budget::deadline(7));
        assert_eq!(
            session.run().unwrap_err(),
            EngineError::DeadlineExceeded { iteration: 7 }
        );
        assert_eq!(session.engine().iterations(), 7, "checked before the step");
    }

    #[test]
    fn deadline_beyond_the_stop_never_fires() {
        let sp = laplace(8);
        let mut session = Session::new(
            SweepEngine::new(&sp, UpdateMethod::Jacobi),
            StopCondition::fixed_steps(5),
        )
        .with_budget(Budget::deadline(1_000));
        assert!(session.run().unwrap());
    }

    #[test]
    fn cancellation_stops_the_run_cooperatively() {
        // The token is triggered before the run even starts: zero steps.
        let sp = laplace(8);
        let token = CancelToken::new();
        token.cancel();
        let mut session = Session::new(
            SweepEngine::new(&sp, UpdateMethod::Jacobi),
            StopCondition::fixed_steps(50),
        )
        .with_budget(Budget::unlimited().with_cancel(token.clone()));
        assert_eq!(
            session.run().unwrap_err(),
            EngineError::Cancelled { iteration: 0 }
        );
        assert!(token.is_cancelled());
        assert_eq!(session.engine().iterations(), 0, "no further work");
    }

    #[test]
    fn mid_run_cancellation_observed_between_steps() {
        // An engine that trips its own token after 3 steps, standing in
        // for an external supervisor.
        struct SelfCancelling {
            iterations: usize,
            token: CancelToken,
        }
        impl SolveEngine for SelfCancelling {
            fn step(&mut self) -> StepOutcome {
                self.iterations += 1;
                if self.iterations == 3 {
                    self.token.cancel();
                }
                StepOutcome::clean(1.0)
            }
            fn iterations(&self) -> usize {
                self.iterations
            }
        }
        let token = CancelToken::new();
        let mut session = Session::new(
            SelfCancelling {
                iterations: 0,
                token: token.clone(),
            },
            StopCondition::fixed_steps(100),
        )
        .with_budget(Budget::unlimited().with_cancel(token));
        assert_eq!(
            session.run().unwrap_err(),
            EngineError::Cancelled { iteration: 3 }
        );
    }

    #[test]
    fn stall_watchdog_flags_a_wedged_engine() {
        struct Wedged {
            iterations: usize,
        }
        impl SolveEngine for Wedged {
            fn step(&mut self) -> StepOutcome {
                self.iterations += 1;
                StepOutcome::clean(0.5) // never changes: no progress
            }
            fn iterations(&self) -> usize {
                self.iterations
            }
        }
        let mut session = Session::new(
            Wedged { iterations: 0 },
            StopCondition::tolerance(1e-9, 10_000),
        )
        .with_budget(Budget::unlimited().with_stall_watchdog(8, 1.0));
        assert_eq!(
            session.run().unwrap_err(),
            EngineError::Stalled { iteration: 9 }
        );
    }

    #[test]
    fn stall_watchdog_passes_a_converging_solve() {
        let sp = laplace(12);
        let mut session = Session::new(
            SweepEngine::new(&sp, UpdateMethod::Jacobi),
            StopCondition::tolerance(1e-8, 50_000),
        )
        .with_budget(Budget::unlimited().with_stall_watchdog(16, 1.0));
        assert!(session.run().unwrap(), "strictly decreasing norms pass");
    }

    #[test]
    fn budgets_count_sweeps_for_fused_steps() {
        /// Reports no progress, four sweeps per step.
        struct WedgedEpochs {
            iterations: usize,
        }
        impl SolveEngine for WedgedEpochs {
            fn step(&mut self) -> StepOutcome {
                self.iterations += 4;
                StepOutcome::clean(0.5)
            }
            fn iterations(&self) -> usize {
                self.iterations
            }
            fn sweeps_per_step(&self) -> usize {
                4
            }
        }

        // Depth-4 epochs under a 10-sweep deadline: 4 + 4 + 2 sweeps
        // land exactly on the deadline, billed as sweeps.
        let sp = laplace(16);
        let plan = SweepPlan {
            threads: 2,
            tile_depth: 4,
        };
        let mut session = Session::new(
            SweepEngine::with_plan(&sp, UpdateMethod::Jacobi, plan),
            StopCondition::tolerance(1e-30, 100_000),
        )
        .with_budget(Budget::deadline(10));
        assert_eq!(
            session.run().unwrap_err(),
            EngineError::DeadlineExceeded { iteration: 10 }
        );
        assert_eq!(session.steps_executed(), 3);
        assert_eq!(session.sweeps_executed(), 10);
        let mut serial = SweepEngine::new(&sp, UpdateMethod::Jacobi);
        for _ in 0..10 {
            serial.step();
        }
        assert!(grids_bit_equal(
            session.engine().solution(),
            serial.solution()
        ));

        // The stop condition's cap truncates the last epoch as well.
        let mut fixed = Session::new(
            SweepEngine::with_plan(&sp, UpdateMethod::Jacobi, plan),
            StopCondition::fixed_steps(7),
        );
        assert!(fixed.run().unwrap());
        assert_eq!(fixed.engine().iterations(), 7);
        assert_eq!(fixed.history().len(), 2, "one norm per epoch");

        // The stall window is read in sweeps: 8 sweeps span 2 epochs.
        let mut wedged = Session::new(
            WedgedEpochs { iterations: 0 },
            StopCondition::tolerance(1e-9, 10_000),
        )
        .with_budget(Budget::unlimited().with_stall_watchdog(8, 1.0));
        assert_eq!(
            wedged.run().unwrap_err(),
            EngineError::Stalled { iteration: 3 }
        );
    }

    #[test]
    fn wall_clock_ceiling_of_zero_fires_immediately() {
        let sp = laplace(8);
        let mut session = Session::new(
            SweepEngine::new(&sp, UpdateMethod::Jacobi),
            StopCondition::fixed_steps(50),
        )
        .with_budget(Budget::unlimited().with_wall_clock(std::time::Duration::ZERO));
        assert!(matches!(
            session.run().unwrap_err(),
            EngineError::DeadlineExceeded { iteration: 0 }
        ));
    }

    #[test]
    fn budget_constructors_compose() {
        assert!(Budget::unlimited().is_unlimited());
        assert!(Budget::default().is_unlimited());
        let b = Budget::deadline(10)
            .with_cancel(CancelToken::new())
            .with_stall_watchdog(4, 0.99);
        assert!(!b.is_unlimited());
        assert_eq!(b.deadline_iterations, Some(10));
        assert_eq!(b.stall_window, 4);
    }

    fn grids_bit_equal<T: Scalar>(a: &Grid2D<T>, b: &Grid2D<T>) -> bool {
        a.rows() == b.rows()
            && a.cols() == b.cols()
            && a.as_slice()
                .iter()
                .zip(b.as_slice())
                .all(|(x, y)| x.to_bits_u64() == y.to_bits_u64())
    }

    #[test]
    fn export_restore_resumes_bit_identically() {
        // Every method, including the wave equation's prev-carrying
        // update: stop at k, export, restore into a *fresh* engine,
        // finish — the final field must match an uninterrupted run bit
        // for bit.
        let wave = crate::workload::benchmark_problem::<f64>(crate::pde::PdeKind::Wave, 12, 20)
            .expect("benchmark problem");
        let laplace = laplace(12);
        for sp in [&laplace, &wave] {
            for method in [
                UpdateMethod::Jacobi,
                UpdateMethod::Hybrid,
                UpdateMethod::GaussSeidel,
                UpdateMethod::Checkerboard,
                UpdateMethod::Sor { omega: 1.5 },
            ] {
                let mut full = SweepEngine::new(sp, method);
                for _ in 0..20 {
                    full.step();
                }

                let mut head = SweepEngine::new(sp, method);
                for _ in 0..7 {
                    head.step();
                }
                let image = head.export_state().expect("sweep engines export");
                assert_eq!(image.iterations, 7);
                let mut tail = SweepEngine::new(sp, method);
                assert!(tail.restore_state(&image), "restore on the same problem");
                assert_eq!(tail.iterations(), 7);
                for _ in 0..13 {
                    tail.step();
                }
                assert!(
                    grids_bit_equal(full.solution(), tail.solution()),
                    "{method:?} resumed run diverged"
                );
            }
        }
    }

    #[test]
    fn parallel_engine_export_restore_matches_serial() {
        let sp = laplace(14);
        for method in [UpdateMethod::Jacobi, UpdateMethod::Checkerboard] {
            let mut serial = SweepEngine::new(&sp, method);
            for _ in 0..16 {
                serial.step();
            }
            let mut head = SweepEngine::with_plan(&sp, method, banded(3));
            for _ in 0..5 {
                head.step();
            }
            let image = head.export_state().expect("parallel engines export");
            let mut tail = SweepEngine::with_plan(&sp, method, banded(3));
            assert!(tail.restore_state(&image));
            for _ in 0..11 {
                tail.step();
            }
            assert!(
                grids_bit_equal(serial.solution(), tail.solution()),
                "{method:?} parallel resume diverged from serial"
            );
        }
    }

    #[test]
    fn restore_rejects_mismatched_images() {
        let sp = laplace(8);
        let other = laplace(10);
        let image = SweepEngine::new(&other, UpdateMethod::Jacobi)
            .export_state()
            .unwrap();
        let mut engine = SweepEngine::new(&sp, UpdateMethod::Jacobi);
        assert!(!engine.restore_state(&image), "wrong shape must refuse");
        assert_eq!(engine.iterations(), 0);

        let mut f32_image = SweepEngine::new(&sp, UpdateMethod::Jacobi)
            .export_state()
            .unwrap();
        f32_image.scalar_bytes = 4;
        assert!(!engine.restore_state(&f32_image), "wrong width must refuse");

        // The image helpers mirror the same checks.
        assert!(image.cur_grid::<f64>().is_some());
        assert!(image.cur_grid::<f32>().is_none());
        assert!(image.prev_grid::<f64>().is_none(), "laplace has no prev");
    }

    #[test]
    fn state_sink_fires_on_schedule_and_images_resume() {
        let sp = laplace(10);
        let mut images: Vec<EngineStateImage> = Vec::new();
        let mut session = Session::new(
            SweepEngine::new(&sp, UpdateMethod::Jacobi),
            StopCondition::fixed_steps(10),
        )
        .with_state_sink(4, |img| images.push(img.clone()));
        session.run().unwrap();
        let full = session.into_parts().0.into_solution();
        assert_eq!(
            images.iter().map(|i| i.iterations).collect::<Vec<_>>(),
            vec![4, 8],
            "sink fires on absolute multiples of the interval"
        );

        // Resuming from the last sink image reproduces the full run.
        let mut tail = SweepEngine::new(&sp, UpdateMethod::Jacobi);
        assert!(tail.restore_state(&images[1]));
        let mut resumed = Session::new(&mut tail, StopCondition::fixed_steps(10));
        resumed.run().unwrap();
        assert_eq!(resumed.steps_executed(), 2, "only the remaining steps run");
        drop(resumed);
        assert!(grids_bit_equal(&full, tail.solution()));
    }
}
