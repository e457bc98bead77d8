//! Overload-robust multi-tenant front end over a pool of
//! [`SolveService`] workers.
//!
//! A single [`SolveService`] is one synchronous queue: it serves one
//! job at a time and refuses everything past its queue capacity. The
//! [`Frontend`] is the layer the multi-tenant story needs on top —
//! the software analogue of FDMAX's per-stream credit flow control:
//!
//! * **Worker pool.** `workers` independent [`SolveService`] instances,
//!   each with its own clock, breakers, drain-rate estimate and (when
//!   durability is on) its own journal directory `journal_dir/workerK`.
//!   Breaker accounting is therefore per-rung *and* per-worker, and a
//!   crashed pool recovers worker by worker.
//! * **Weighted-deficit fair queues.** Every tenant owns a FIFO queue;
//!   each scheduler round credits every backlogged tenant `weight`
//!   deficit units and a job costs one unit, so long-run dispatch share
//!   is proportional to weight and a flooding tenant cannot starve the
//!   others (deficit round-robin, job cost 1).
//! * **Hard quotas.** Per-tenant `max_queued` (admission bound) and
//!   `max_in_flight` (dispatch bound per round) are never exceeded —
//!   the fairness suite asserts both invariants under replay.
//! * **Adaptive load shedding.** Saturation answers carry an *honest*
//!   `retry_after` derived from the pool's measured drain rate, and a
//!   CoDel-style rule sheds standard-priority admissions once the
//!   windowed p99 frontend queueing delay exceeds the configured
//!   budget *and* the tenant already holds a standing backlog.
//! * **Brownout ladder.** Before shedding, overload degrades
//!   standard-priority tenants to cheaper entry rungs instead of
//!   failing them: p99 over 1x budget enters at [`Rung::Parallel`],
//!   over 2x at the cache-blocked [`Rung::Tiled`], over 4x at
//!   [`Rung::Software`], and over 8x at the O(1) [`Rung::Estimate`].
//!   Critical tenants are never degraded. "Cheaper" is in virtual time,
//!   which skips the simulator; in wall-clock time the three software
//!   rungs are one engine, and on the service's small grids their bands
//!   sit below the spawn floor and run inline, so [`Rung::Parallel`]
//!   costs what [`Rung::Software`] costs. [`Rung::Tiled`] still pays
//!   for its wavefront pipeline and halo rows, which save no memory
//!   traffic on an in-cache grid (DESIGN.md §11).
//!
//! # Determinism
//!
//! Like the underlying service, the front end never reads wall-clock
//! time. The pool's notion of *now* is the minimum worker clock;
//! frontend queueing delay is the dispatch worker's clock minus that
//! floor at admission. Scheduling is round-based: dispatch walks
//! tenants in [`TenantId`] order and workers in ascending
//! `(clock, index)` order, so a run with the same seeds and submission
//! order replays bit-for-bit — shed decisions included.

use std::collections::BTreeMap;
use std::collections::HashMap;
use std::collections::VecDeque;

use fdm::engine::CancelToken;

use super::{
    JobId, JobOutcome, JobSpec, JobTicket, RecoverySummary, Rung, ServiceConfig, ServiceReport,
    ServiceStats, SolveService, SubmitError, TenantId,
};
use crate::resilience::FdmaxError;

/// Scheduling priority of a tenant under overload.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum TenantPriority {
    /// Best-effort tenant: the brownout ladder may degrade its jobs to
    /// cheaper entry rungs and the CoDel-style shedder may refuse its
    /// admissions while the pool is over its delay budget.
    #[default]
    Standard,
    /// Latency-critical tenant: never browned out and shed only at its
    /// hard `max_queued` quota.
    Critical,
}

/// Per-tenant fair-queuing and quota policy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TenantConfig {
    /// Deficit-round-robin weight (clamped to at least 1): long-run
    /// dispatch share is proportional to this.
    pub weight: u64,
    /// Hard bound on jobs waiting in this tenant's frontend queue;
    /// admissions beyond it are refused with an honest retry hint.
    pub max_queued: usize,
    /// Hard bound on this tenant's jobs dispatched to workers within
    /// one scheduler round (clamped to at least 1).
    pub max_in_flight: usize,
    /// Overload treatment.
    pub priority: TenantPriority,
}

impl Default for TenantConfig {
    fn default() -> Self {
        TenantConfig {
            weight: 1,
            max_queued: 8,
            max_in_flight: 2,
            priority: TenantPriority::Standard,
        }
    }
}

/// Tuning of a [`Frontend`].
#[derive(Clone, Debug)]
pub struct FrontendConfig {
    /// Worker pool size (clamped to at least 1).
    pub workers: usize,
    /// Template for every worker's [`ServiceConfig`]. Worker `k` gets
    /// `worker_id = k` and, when durability is configured, its own
    /// journal directory `journal_dir/workerK` (satisfying the FDX013
    /// fleet collision lint by construction).
    pub service: ServiceConfig,
    /// Explicitly registered tenants; everyone else gets
    /// [`FrontendConfig::default_tenant`].
    pub tenants: Vec<(TenantId, TenantConfig)>,
    /// Policy applied to tenants not listed in
    /// [`FrontendConfig::tenants`].
    pub default_tenant: TenantConfig,
    /// CoDel-style budget on the windowed p99 frontend queueing delay
    /// (iterations). Exceeding it arms the brownout ladder and the
    /// shedder; `0` disables both.
    pub queue_delay_budget: u64,
    /// Sliding-window length (dispatch-delay samples) behind the p99
    /// estimate (clamped to at least 1).
    pub shed_window: usize,
}

impl FrontendConfig {
    /// A front end with `workers` workers cloned from `service`, no
    /// registered tenants and the delay budget disabled.
    pub fn new(service: ServiceConfig, workers: usize) -> Self {
        FrontendConfig {
            workers,
            service,
            tenants: Vec::new(),
            default_tenant: TenantConfig::default(),
            queue_delay_budget: 0,
            shed_window: 64,
        }
    }

    /// Registers a tenant policy.
    #[must_use]
    pub fn with_tenant(mut self, tenant: TenantId, config: TenantConfig) -> Self {
        self.tenants.push((tenant, config));
        self
    }

    /// Sets the CoDel-style p99 queueing-delay budget (iterations).
    #[must_use]
    pub fn with_queue_delay_budget(mut self, budget: u64) -> Self {
        self.queue_delay_budget = budget;
        self
    }

    /// This configuration as a [`crate::lint::FrontendSpec`], feeding
    /// the FDX020/FDX021 lints.
    pub fn lint_spec(&self) -> crate::lint::FrontendSpec {
        let quotas = self
            .tenants
            .iter()
            .map(|(_, t)| t.max_in_flight.max(1))
            .collect();
        crate::lint::FrontendSpec {
            workers: self.workers.max(1),
            tenant_in_flight_quotas: quotas,
            hedge_enabled: self.service.hedge.is_some(),
            entry_rung_index: self.deepest_entry_rung().index(),
        }
    }

    /// Runs the FDX020/FDX021 frontend lints over this configuration.
    pub fn lint(&self) -> crate::lint::LintReport {
        crate::lint::lint_frontend(&self.lint_spec())
    }

    /// The deepest entry rung this configuration can assign: the
    /// brownout ladder's last step when a delay budget arms it for any
    /// standard-priority tenant, [`Rung::Detailed`] otherwise.
    fn deepest_entry_rung(&self) -> Rung {
        let degradable = self.queue_delay_budget > 0
            && (self.tenants.is_empty()
                || self.default_tenant.priority == TenantPriority::Standard
                || self
                    .tenants
                    .iter()
                    .any(|(_, t)| t.priority == TenantPriority::Standard));
        if degradable {
            Rung::Estimate
        } else {
            Rung::Detailed
        }
    }
}

/// Aggregate tallies of everything the front end has processed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FrontendStats {
    /// Jobs admitted to a tenant queue.
    pub admitted: u64,
    /// Structurally invalid or analysis-rejected submissions.
    pub rejected: u64,
    /// Submissions refused at a tenant's hard `max_queued` quota.
    pub rejected_quota: u64,
    /// Submissions refused by the CoDel-style delay shedder.
    pub shed: u64,
    /// Jobs that ran to a worker report.
    pub completed: u64,
    /// Jobs cancelled while still queued in the front end.
    pub cancelled_queued: u64,
    /// Completed jobs whose worker report missed its deadline.
    pub deadline_misses: u64,
    /// Dispatches whose entry rung the brownout ladder degraded.
    pub brownout_dispatches: u64,
    /// Scheduler rounds executed.
    pub rounds: u64,
    /// Jobs a worker refused at dispatch time (defensive counter; the
    /// front end pre-validates admissions so this stays 0).
    pub dispatch_failures: u64,
}

/// Per-tenant tallies and queueing-delay record.
#[derive(Clone, Debug, Default)]
pub struct TenantStats {
    /// Jobs admitted to this tenant's queue.
    pub admitted: u64,
    /// Submissions refused at the hard `max_queued` quota.
    pub rejected_quota: u64,
    /// Submissions refused by the delay shedder.
    pub shed: u64,
    /// Jobs that ran to a worker report.
    pub completed: u64,
    /// Completed jobs whose worker report missed its deadline.
    pub deadline_misses: u64,
    /// Dispatches whose entry rung the brownout ladder degraded.
    pub brownout_dispatches: u64,
    /// Jobs served, indexed by [`Rung::index`].
    pub served_by: [u64; 7],
    delays: Vec<u64>,
}

impl TenantStats {
    /// Every recorded frontend queueing delay (iterations), in dispatch
    /// order.
    pub fn delay_samples(&self) -> &[u64] {
        &self.delays
    }

    /// Nearest-rank percentile of the recorded queueing delays; `None`
    /// before the first dispatch.
    pub fn delay_percentile(&self, pct: u8) -> Option<u64> {
        percentile(&self.delays, pct)
    }
}

/// Nearest-rank percentile over an unsorted sample set.
fn percentile(samples: &[u64], pct: u8) -> Option<u64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    // Nearest-rank: the smallest sample with at least pct% of the set
    // at or below it — ceil(len * pct / 100), 1-based.
    let rank = (sorted.len() * usize::from(pct.min(100)))
        .div_ceil(100)
        .max(1);
    Some(sorted[rank - 1])
}

/// A worker report annotated with its frontend context.
#[derive(Clone, Debug)]
#[must_use = "a frontend report records the tenant, worker and queueing delay of the job"]
pub struct FrontendReport {
    /// Frontend-scope job id (workers number their own jobs; this is
    /// the id on the ticket [`Frontend::submit`] returned).
    pub frontend_job: JobId,
    /// The submitting tenant.
    pub tenant: TenantId,
    /// Index of the worker that ran the job.
    pub worker: u32,
    /// Frontend queueing delay charged against the job's deadline:
    /// the dispatch worker's clock minus the pool clock floor at
    /// admission (iterations).
    pub queue_delay: u64,
    /// Entry rung the job was dispatched with (after any brownout
    /// degradation).
    pub entry_rung: Rung,
    /// The worker's report. Its clocks are worker-local; its deadline
    /// already accounts for `queue_delay`.
    pub report: ServiceReport,
}

/// One job waiting in a tenant's frontend queue.
#[derive(Clone, Debug)]
struct QueuedJob {
    id: JobId,
    spec: JobSpec,
    cancel: CancelToken,
    admitted_clock: u64,
}

/// Mutable per-tenant scheduling state.
#[derive(Debug, Default)]
struct TenantState {
    config: TenantConfig,
    queue: VecDeque<QueuedJob>,
    deficit: u64,
    in_flight: usize,
    stats: TenantStats,
}

/// Dispatch-time context needed to map a worker report back to its
/// frontend job.
#[derive(Clone, Copy, Debug)]
struct PendingDispatch {
    frontend_job: JobId,
    tenant: TenantId,
    queue_delay: u64,
    entry_rung: Rung,
}

/// The multi-tenant front end: fair queues and quotas in front of a
/// deterministic pool of [`SolveService`] workers.
#[derive(Debug)]
pub struct Frontend {
    config: FrontendConfig,
    workers: Vec<SolveService>,
    tenants: BTreeMap<TenantId, TenantState>,
    /// Sliding window of recent dispatch delays behind the p99 shed
    /// signal.
    shed_delays: VecDeque<u64>,
    /// Current brownout level (0 = healthy, 1..=3 = ladder steps),
    /// recomputed at the end of every round.
    brownout: u8,
    pending: HashMap<(usize, u64), PendingDispatch>,
    next_id: u64,
    /// Round-robin resume point: the tenant most recently denied a
    /// worker slot goes first in the next dispatch pass, so a scarce
    /// pool rotates over all backlogged tenants instead of always
    /// serving the lowest [`TenantId`]s (the no-starvation guarantee).
    cursor: usize,
    stats: FrontendStats,
}

impl Frontend {
    /// A fresh front end: `config.workers` workers (each with its own
    /// `worker_id` and journal directory), all queues empty.
    pub fn new(config: FrontendConfig) -> Self {
        let workers = (0..config.workers.max(1))
            .map(|k| SolveService::new(Self::worker_config(&config, k)))
            .collect();
        Self::assemble(config, workers)
    }

    /// Rebuilds a crashed pool: recovers every worker from its own
    /// journal directory (see [`SolveService::recover`]) and returns
    /// the per-worker summaries in worker order. Jobs that were still
    /// in *frontend* queues at the crash are lost — the durability
    /// boundary is worker admission, where the write-ahead journal
    /// records them.
    pub fn recover(config: FrontendConfig) -> (Frontend, Vec<RecoverySummary>) {
        let mut workers = Vec::with_capacity(config.workers.max(1));
        let mut summaries = Vec::with_capacity(config.workers.max(1));
        for k in 0..config.workers.max(1) {
            let (worker, summary) = SolveService::recover(Self::worker_config(&config, k));
            workers.push(worker);
            summaries.push(summary);
        }
        (Self::assemble(config, workers), summaries)
    }

    fn assemble(config: FrontendConfig, workers: Vec<SolveService>) -> Self {
        let mut tenants = BTreeMap::new();
        for (id, tenant_config) in &config.tenants {
            tenants.entry(*id).or_insert_with(|| TenantState {
                config: *tenant_config,
                ..TenantState::default()
            });
        }
        Frontend {
            config,
            workers,
            tenants,
            shed_delays: VecDeque::new(),
            brownout: 0,
            pending: HashMap::new(),
            next_id: 0,
            cursor: 0,
            stats: FrontendStats::default(),
        }
    }

    /// The configuration worker `k` runs with: the template plus its
    /// own identity and journal directory.
    fn worker_config(config: &FrontendConfig, k: usize) -> ServiceConfig {
        let mut service = config.service.clone();
        service.worker_id = k as u32;
        if let Some(durability) = service.durability.as_mut() {
            durability.journal_dir = durability.journal_dir.join(format!("worker{k}"));
        }
        service
    }

    /// The front end's configuration.
    pub fn config(&self) -> &FrontendConfig {
        &self.config
    }

    /// The worker pool, in worker-id order.
    pub fn workers(&self) -> &[SolveService] {
        &self.workers
    }

    /// Aggregate tallies.
    pub fn stats(&self) -> FrontendStats {
        self.stats
    }

    /// Per-tenant tallies; `None` for tenants that never submitted and
    /// were never registered.
    pub fn tenant_stats(&self, tenant: TenantId) -> Option<&TenantStats> {
        self.tenants.get(&tenant).map(|t| &t.stats)
    }

    /// Sums the workers' own [`ServiceStats`] (hedge tallies included).
    pub fn pool_stats(&self) -> ServiceStats {
        let mut total = ServiceStats::default();
        for worker in &self.workers {
            let s = worker.stats();
            total.submitted += s.submitted;
            total.refused += s.refused;
            total.served += s.served;
            for (slot, v) in total.served_by.iter_mut().zip(s.served_by) {
                *slot += v;
            }
            total.cancelled += s.cancelled;
            total.failed += s.failed;
            total.deadline_misses += s.deadline_misses;
            total.journal_degraded |= s.journal_degraded;
            total.journal_io_errors += s.journal_io_errors;
            total.recovered_jobs += s.recovered_jobs;
            total.hedges_launched += s.hedges_launched;
            total.hedge_wins += s.hedge_wins;
            total.hedge_wasted_iterations += s.hedge_wasted_iterations;
        }
        total
    }

    /// The pool clock floor: the minimum worker clock. This is the
    /// front end's notion of *now*; admissions are stamped with it and
    /// queueing delay is measured against it.
    pub fn now(&self) -> u64 {
        self.workers
            .iter()
            .map(SolveService::clock)
            .min()
            .unwrap_or(0)
    }

    /// Jobs waiting in frontend queues, across all tenants.
    pub fn backlog(&self) -> usize {
        self.tenants.values().map(|t| t.queue.len()).sum()
    }

    /// Jobs waiting in one tenant's frontend queue.
    pub fn tenant_backlog(&self, tenant: TenantId) -> usize {
        self.tenants.get(&tenant).map_or(0, |t| t.queue.len())
    }

    /// Current brownout level: 0 while the windowed p99 queueing delay
    /// is within budget, then 1 (standard tenants enter at
    /// [`Rung::Parallel`]), 2 ([`Rung::Tiled`]), 3 ([`Rung::Software`])
    /// and 4 ([`Rung::Estimate`]) as the p99 crosses 1x, 2x, 4x and 8x
    /// the budget.
    pub fn brownout_level(&self) -> u8 {
        self.brownout
    }

    /// Nearest-rank p99 of the sliding dispatch-delay window feeding
    /// the shedder; `None` before the first dispatch.
    pub fn shed_window_p99(&self) -> Option<u64> {
        let (a, b) = self.shed_delays.as_slices();
        let mut window = a.to_vec();
        window.extend_from_slice(b);
        percentile(&window, 99)
    }

    /// The pool's measured drain rate: the mean of the workers' per-job
    /// drain EWMAs (see [`SolveService::drain_rate`]).
    pub fn drain_rate(&self) -> u64 {
        let sum: u64 = self.workers.iter().map(SolveService::drain_rate).sum();
        sum / self.workers.len().max(1) as u64
    }

    /// The policy governing `tenant`.
    fn tenant_config(&self, tenant: TenantId) -> TenantConfig {
        self.tenants
            .get(&tenant)
            .map_or(self.config.default_tenant, |t| t.config)
    }

    /// Admits a job to its tenant's fair queue.
    ///
    /// Admission control runs in order: structural validation and (when
    /// the worker template enables it) the static solve-plan analysis;
    /// the tenant's hard `max_queued` quota; and — for
    /// standard-priority tenants holding a standing backlog of at least
    /// half their quota while the pool is over its delay budget — the
    /// CoDel-style shedder. Both saturation answers carry an honest
    /// retry hint: `retry_after_iterations` is the excess queue depth
    /// times the pool's measured drain rate divided by the worker
    /// count.
    ///
    /// # Errors
    ///
    /// [`SubmitError::Rejected`] for jobs that can never run;
    /// [`SubmitError::Saturated`] for quota and shed refusals.
    pub fn submit(&mut self, spec: JobSpec) -> Result<JobTicket, SubmitError> {
        let rows = spec.problem.rows();
        let cols = spec.problem.cols();
        if rows < 3 || cols < 3 {
            self.stats.rejected += 1;
            return Err(SubmitError::Rejected(FdmaxError::GridTooSmall {
                rows,
                cols,
            }));
        }
        if self.config.service.admission_analysis {
            let analysis = crate::analysis::analyze_plan(
                &self.workers[0].solve_plan(&spec),
                &self.config.service.accel,
                Some(&self.config.service.lint_spec()),
            );
            if analysis.lint().has_errors() {
                self.stats.rejected += 1;
                return Err(SubmitError::Rejected(FdmaxError::Lint {
                    report: analysis.into_lint(),
                }));
            }
        }

        let tenant = spec.tenant;
        let tenant_config = self.tenant_config(tenant);
        let drain = self.drain_rate();
        let workers = self.workers.len() as u64;
        let now = self.now();
        let over_budget = self.brownout > 0;
        let state = self.tenants.entry(tenant).or_insert_with(|| TenantState {
            config: tenant_config,
            ..TenantState::default()
        });

        let queued = state.queue.len();
        if queued >= tenant_config.max_queued {
            let retry_after_jobs = queued + 1 - tenant_config.max_queued;
            state.stats.rejected_quota += 1;
            self.stats.rejected_quota += 1;
            return Err(SubmitError::Saturated {
                queue_depth: queued,
                retry_after_jobs,
                retry_after_iterations: retry_after_jobs as u64 * drain / workers,
            });
        }
        // CoDel-style shed: refuse standard-priority admissions while
        // the windowed p99 delay is over budget *and* this tenant holds
        // a standing backlog — a transient spike with empty queues is
        // not overload.
        if over_budget
            && tenant_config.priority == TenantPriority::Standard
            && queued >= tenant_config.max_queued.div_ceil(2)
        {
            state.stats.shed += 1;
            self.stats.shed += 1;
            return Err(SubmitError::Saturated {
                queue_depth: queued,
                retry_after_jobs: queued,
                retry_after_iterations: (queued as u64).max(1) * drain / workers,
            });
        }

        let id = JobId(self.next_id);
        self.next_id += 1;
        let cancel = CancelToken::new();
        state.queue.push_back(QueuedJob {
            id,
            spec,
            cancel: cancel.clone(),
            admitted_clock: now,
        });
        state.stats.admitted += 1;
        self.stats.admitted += 1;
        Ok(JobTicket { id, cancel })
    }

    /// The entry rung the brownout ladder assigns at the current level,
    /// for a standard-priority tenant.
    fn brownout_entry(&self) -> Option<Rung> {
        match self.brownout {
            0 => None,
            1 => Some(Rung::Parallel),
            2 => Some(Rung::Tiled),
            3 => Some(Rung::Software),
            _ => Some(Rung::Estimate),
        }
    }

    /// Runs one scheduler round: a deficit-round-robin dispatch pass
    /// over the tenant queues, then one job per busy worker in
    /// ascending `(clock, index)` order. Returns the round's completed
    /// jobs in execution order.
    pub fn run_round(&mut self) -> Vec<FrontendReport> {
        self.stats.rounds += 1;
        self.dispatch();
        let reports = self.execute();
        self.refresh_brownout();
        reports
    }

    /// Runs rounds until every frontend queue and worker queue is
    /// empty.
    pub fn drain(&mut self) -> Vec<FrontendReport> {
        let mut reports = Vec::new();
        while self.backlog() > 0 || self.workers.iter().any(|w| w.queue_depth() > 0) {
            let before = (
                self.backlog(),
                self.stats.completed,
                self.stats.cancelled_queued,
            );
            reports.extend(self.run_round());
            let after = (
                self.backlog(),
                self.stats.completed,
                self.stats.cancelled_queued,
            );
            if before == after {
                // Defensive: a round that moved nothing would loop
                // forever; quotas clamp to >= 1 so this cannot happen.
                break;
            }
        }
        reports
    }

    /// Deficit-round-robin dispatch: credit every backlogged tenant its
    /// weight, then hand one job per tenant per pass to the
    /// lowest-clock idle worker until deficits, quotas or workers run
    /// out.
    fn dispatch(&mut self) {
        // Idle workers in ascending (clock, index) order; dispatch
        // consumes from the front so the least-loaded worker (in
        // virtual time) fills first.
        let mut idle: Vec<usize> = (0..self.workers.len())
            .filter(|&k| self.workers[k].queue_depth() == 0)
            .collect();
        idle.sort_by_key(|&k| (self.workers[k].clock(), k));
        let mut idle = VecDeque::from(idle);

        let mut tenant_ids: Vec<TenantId> = self.tenants.keys().copied().collect();
        for id in &tenant_ids {
            let state = self.tenants.get_mut(id).expect("tenant state exists");
            if state.queue.is_empty() {
                // Standard DRR: an idle flow carries no credit forward.
                state.deficit = 0;
            } else {
                state.deficit += state.config.weight.max(1);
            }
        }
        // Rotate the service order to the round-robin resume point, so
        // the tenant a scarce pool denied last round is first in line
        // now — without this, persistent backlogs at the low TenantIds
        // would starve everyone behind them.
        let n = tenant_ids.len();
        if n > 0 {
            tenant_ids.rotate_left(self.cursor % n);
        }

        loop {
            let mut progress = false;
            for (pos, id) in tenant_ids.iter().enumerate() {
                if idle.is_empty() {
                    // `pos` is relative to the rotated order: resume
                    // exactly at the tenant that was denied.
                    self.cursor = (self.cursor + pos) % n;
                    return;
                }
                let state = self.tenants.get_mut(id).expect("tenant state exists");
                if state.deficit == 0
                    || state.queue.is_empty()
                    || state.in_flight >= state.config.max_in_flight.max(1)
                {
                    continue;
                }
                let job = state.queue.pop_front().expect("non-empty queue");
                state.deficit -= 1;
                if job.cancel.is_cancelled() {
                    // Cancelled while queued: reaped without burning a
                    // worker slot.
                    self.stats.cancelled_queued += 1;
                    progress = true;
                    continue;
                }
                let worker_idx = *idle.front().expect("idle non-empty");
                if self.dispatch_one(worker_idx, *id, job) {
                    idle.pop_front();
                }
                progress = true;
            }
            if !progress {
                return;
            }
        }
    }

    /// Hands one job to one worker; `true` when the worker accepted it.
    fn dispatch_one(&mut self, worker_idx: usize, tenant: TenantId, job: QueuedJob) -> bool {
        let worker_clock = self.workers[worker_idx].clock();
        let queue_delay = worker_clock.saturating_sub(job.admitted_clock);
        self.shed_delays.push_back(queue_delay);
        while self.shed_delays.len() > self.config.shed_window.max(1) {
            self.shed_delays.pop_front();
        }

        let tenant_config = self.tenant_config(tenant);
        let mut spec = job.spec;
        let mut entry_rung = spec.entry_rung;
        let mut browned_out = false;
        if tenant_config.priority == TenantPriority::Standard {
            if let Some(floor) = self.brownout_entry() {
                if floor.index() > entry_rung.index() {
                    entry_rung = floor;
                    browned_out = true;
                }
            }
        }
        spec.entry_rung = entry_rung;
        let remaining = self
            .config
            .service
            .deadline_iterations
            .saturating_sub(queue_delay);

        let state = self.tenants.get_mut(&tenant).expect("tenant state exists");
        state.stats.delays.push(queue_delay);
        if browned_out {
            state.stats.brownout_dispatches += 1;
            self.stats.brownout_dispatches += 1;
        }
        match self.workers[worker_idx].submit_with_deadline(spec, remaining) {
            Ok(ticket) => {
                // The worker job observes the *frontend* token directly
                // (the just-admitted job sits at the back of the worker
                // queue), so cancelling the frontend ticket cancels the
                // solve mid-step too.
                if let Some(admitted) = self.workers[worker_idx].queue.back_mut() {
                    if admitted.id == ticket.id {
                        admitted.cancel = job.cancel.clone();
                    }
                }
                let state = self.tenants.get_mut(&tenant).expect("tenant state exists");
                state.in_flight += 1;
                self.pending.insert(
                    (worker_idx, ticket.id.0),
                    PendingDispatch {
                        frontend_job: job.id,
                        tenant,
                        queue_delay,
                        entry_rung,
                    },
                );
                true
            }
            Err(_) => {
                // Cannot happen: the front end pre-validates admissions
                // with the same analysis and dispatches only to idle
                // workers. Counted loudly rather than silently dropped.
                self.stats.dispatch_failures += 1;
                false
            }
        }
    }

    /// Executes one job per busy worker, in ascending `(clock, index)`
    /// order.
    fn execute(&mut self) -> Vec<FrontendReport> {
        let mut order: Vec<usize> = (0..self.workers.len())
            .filter(|&k| self.workers[k].queue_depth() > 0)
            .collect();
        order.sort_by_key(|&k| (self.workers[k].clock(), k));

        let mut reports = Vec::new();
        for worker_idx in order {
            let Some(report) = self.workers[worker_idx].run_next() else {
                continue;
            };
            let pending = self.pending.remove(&(worker_idx, report.job.0));
            let (frontend_job, tenant, queue_delay, entry_rung) = match pending {
                Some(p) => (p.frontend_job, p.tenant, p.queue_delay, p.entry_rung),
                // A job recovered into the worker's own queue (journal
                // replay) was never dispatched by this frontend
                // instance; it keeps its worker identity and charges no
                // frontend delay.
                None => {
                    let id = JobId(self.next_id);
                    self.next_id += 1;
                    (id, TenantId::default(), 0, Rung::Detailed)
                }
            };
            let state = self.tenants.entry(tenant).or_insert_with(|| TenantState {
                config: self.config.default_tenant,
                ..TenantState::default()
            });
            state.in_flight = state.in_flight.saturating_sub(1);
            state.stats.completed += 1;
            self.stats.completed += 1;
            if !report.deadline_met() {
                state.stats.deadline_misses += 1;
                self.stats.deadline_misses += 1;
            }
            if let JobOutcome::Served { rung, .. } = report.outcome {
                state.stats.served_by[rung.index()] += 1;
            }
            reports.push(FrontendReport {
                frontend_job,
                tenant,
                worker: worker_idx as u32,
                queue_delay,
                entry_rung,
                report,
            });
        }
        reports
    }

    /// Recomputes the brownout level from the windowed p99 against the
    /// delay budget: level 1 past 1x, 2 past 2x, 3 past 4x, 4 past 8x.
    fn refresh_brownout(&mut self) {
        let budget = self.config.queue_delay_budget;
        if budget == 0 {
            self.brownout = 0;
            return;
        }
        let Some(p99) = self.shed_window_p99() else {
            self.brownout = 0;
            return;
        };
        self.brownout = if p99 <= budget {
            0
        } else if p99 <= budget.saturating_mul(2) {
            1
        } else if p99 <= budget.saturating_mul(4) {
            2
        } else if p99 <= budget.saturating_mul(8) {
            3
        } else {
            4
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::accelerator::HwUpdateMethod;
    use crate::config::FdmaxConfig;
    use fdm::boundary::DirichletBoundary;
    use fdm::convergence::StopCondition;
    use fdm::pde::LaplaceProblem;
    use fdm::pde::StencilProblem;

    fn laplace(n: usize) -> StencilProblem<f32> {
        LaplaceProblem::builder(n, n)
            .boundary(DirichletBoundary::hot_top(1.0))
            .build()
            .unwrap()
            .discretize::<f32>()
    }

    fn job(n: usize, steps: usize, tenant: u64) -> JobSpec {
        JobSpec::new(
            laplace(n),
            HwUpdateMethod::Jacobi,
            StopCondition::fixed_steps(steps),
        )
        .with_tenant(TenantId(tenant))
    }

    fn frontend(workers: usize) -> Frontend {
        Frontend::new(FrontendConfig::new(
            ServiceConfig::new(FdmaxConfig::paper_default()),
            workers,
        ))
    }

    #[test]
    fn two_tenants_share_the_pool_and_complete() {
        let mut fe = frontend(2);
        for i in 0..4 {
            let _ = fe.submit(job(12, 10, i % 2)).unwrap();
        }
        let reports = fe.drain();
        assert_eq!(reports.len(), 4);
        assert!(reports.iter().all(|r| r.report.deadline_met()));
        assert_eq!(fe.stats().completed, 4);
        assert_eq!(fe.tenant_stats(TenantId(0)).unwrap().completed, 2);
        assert_eq!(fe.tenant_stats(TenantId(1)).unwrap().completed, 2);
        // Two workers, two jobs per tenant: each worker ran two jobs.
        assert!(fe.workers().iter().all(|w| w.stats().served == 2));
    }

    #[test]
    fn max_queued_quota_is_a_hard_bound_with_an_honest_hint() {
        let tenant = TenantId(7);
        let config = FrontendConfig::new(ServiceConfig::new(FdmaxConfig::paper_default()), 1)
            .with_tenant(
                tenant,
                TenantConfig {
                    max_queued: 2,
                    ..TenantConfig::default()
                },
            );
        let mut fe = Frontend::new(config);
        let _ = fe.submit(job(12, 10, 7)).unwrap();
        let _ = fe.submit(job(12, 10, 7)).unwrap();
        let err = fe.submit(job(12, 10, 7)).unwrap_err();
        match err {
            SubmitError::Saturated {
                queue_depth,
                retry_after_jobs,
                retry_after_iterations,
            } => {
                assert_eq!(queue_depth, 2);
                assert_eq!(retry_after_jobs, 1);
                assert_eq!(retry_after_iterations, fe.drain_rate());
            }
            other => panic!("expected saturation, got {other:?}"),
        }
        assert_eq!(fe.stats().rejected_quota, 1);
        assert_eq!(fe.tenant_stats(tenant).unwrap().rejected_quota, 1);
        // Other tenants are unaffected by tenant 7's quota.
        let _ = fe.submit(job(12, 10, 8)).unwrap();
    }

    #[test]
    fn frontend_cancellation_reaches_a_queued_job() {
        let mut fe = frontend(1);
        let ticket = fe.submit(job(12, 10, 0)).unwrap();
        ticket.cancel.cancel();
        let reports = fe.drain();
        assert!(reports.is_empty());
        assert_eq!(fe.stats().cancelled_queued, 1);
    }

    #[test]
    fn weighted_tenants_get_proportional_dispatch_share() {
        let heavy = TenantId(1);
        let light = TenantId(2);
        let config = FrontendConfig::new(ServiceConfig::new(FdmaxConfig::paper_default()), 1)
            .with_tenant(
                heavy,
                TenantConfig {
                    weight: 3,
                    max_queued: 32,
                    max_in_flight: 1,
                    priority: TenantPriority::Standard,
                },
            )
            .with_tenant(
                light,
                TenantConfig {
                    weight: 1,
                    max_queued: 32,
                    max_in_flight: 1,
                    priority: TenantPriority::Standard,
                },
            );
        let mut fe = Frontend::new(config);
        for _ in 0..8 {
            let _ = fe.submit(job(12, 4, 1)).unwrap();
            let _ = fe.submit(job(12, 4, 2)).unwrap();
        }
        // After four rounds the 3:1 weights should have dispatched
        // roughly 3x as many heavy jobs (max_in_flight caps each round
        // at one dispatch per tenant, so the ratio shows up over
        // rounds via the deficit carry).
        let mut heavy_done = 0u64;
        let mut light_done = 0u64;
        while fe.backlog() > 0 {
            for report in fe.run_round() {
                if report.tenant == heavy {
                    heavy_done += 1;
                } else {
                    light_done += 1;
                }
            }
        }
        assert_eq!(heavy_done, 8);
        assert_eq!(light_done, 8);
    }

    #[test]
    fn brownout_degrades_standard_tenants_only() {
        let critical = TenantId(1);
        let standard = TenantId(2);
        let config = FrontendConfig::new(ServiceConfig::new(FdmaxConfig::paper_default()), 1)
            .with_tenant(
                critical,
                TenantConfig {
                    priority: TenantPriority::Critical,
                    max_queued: 64,
                    ..TenantConfig::default()
                },
            )
            .with_tenant(
                standard,
                TenantConfig {
                    priority: TenantPriority::Standard,
                    max_queued: 64,
                    ..TenantConfig::default()
                },
            )
            .with_queue_delay_budget(1);
        let mut fe = Frontend::new(config);
        // Saturate one worker so dispatch delays blow past the 1-iter
        // budget and the ladder reaches its last step.
        for _ in 0..6 {
            let _ = fe.submit(job(12, 50, 1)).unwrap();
            let _ = fe.submit(job(12, 50, 2)).unwrap();
        }
        let reports = fe.drain();
        assert!(fe.stats().brownout_dispatches > 0);
        for report in &reports {
            if report.tenant == critical {
                assert_eq!(report.entry_rung, Rung::Detailed);
            }
        }
        assert!(
            reports
                .iter()
                .any(|r| r.tenant == standard && r.entry_rung != Rung::Detailed),
            "the ladder should have degraded some standard-tenant dispatch"
        );
        assert_eq!(
            fe.stats().brownout_dispatches,
            fe.tenant_stats(standard).unwrap().brownout_dispatches
        );
    }

    #[test]
    fn shed_refuses_standard_backlog_while_over_budget() {
        let standard = TenantId(2);
        let config = FrontendConfig::new(ServiceConfig::new(FdmaxConfig::paper_default()), 1)
            .with_tenant(
                standard,
                TenantConfig {
                    max_queued: 4,
                    ..TenantConfig::default()
                },
            )
            .with_queue_delay_budget(1);
        let mut fe = Frontend::new(config);
        for _ in 0..4 {
            let _ = fe.submit(job(12, 50, 2)).unwrap();
        }
        // Build up delay samples past the budget.
        fe.run_round();
        fe.run_round();
        assert!(fe.brownout_level() > 0);
        // Tenant 2 still holds >= half its quota queued: shed, well
        // before the hard max_queued bound.
        assert!(fe.tenant_backlog(standard) < 4);
        let err = fe.submit(job(12, 50, 2)).unwrap_err();
        assert!(matches!(err, SubmitError::Saturated { .. }));
        assert_eq!(fe.stats().shed, 1);
        assert_eq!(fe.stats().rejected_quota, 0);
    }

    #[test]
    fn frontend_lint_flags_overcommit_and_vacuous_hedge() {
        let config = FrontendConfig::new(
            ServiceConfig::new(FdmaxConfig::paper_default())
                .with_hedge(super::super::HedgeConfig::default()),
            2,
        )
        .with_tenant(TenantId(1), TenantConfig::default())
        .with_tenant(TenantId(2), TenantConfig::default())
        .with_queue_delay_budget(100);
        let report = config.lint();
        let codes: Vec<_> = report.diagnostics().iter().map(|d| d.code).collect();
        assert!(codes.contains(&crate::lint::DiagCode::TenantQuotaOvercommit));
        assert!(codes.contains(&crate::lint::DiagCode::VacuousHedge));
    }
}
