//! `overload_frontend`: a two-worker `Frontend` with a critical, a
//! standard and an adversarial flooding tenant offered jobs at 1:1:3
//! per scheduler round. The loop is open in virtual time: five offers
//! per round whatever the backlog. Jobs are 8–16² with 4–40 steps and
//! enter at `Rung::Reference`; hedging, shedding and brownout are live
//! and there is no journal (the untimed crash pass adds one).

use crate::common::{copy_dir, percentile, Metrics, ScratchDir, Tally};
use crate::inputs::{blocked, build_problem, KINDS};
use crate::service_loop::{oracle_sample, Gate};
use crate::trace::Tracer;
use crate::{layers, service_counts, Crash, Episode, Workload};
use detrng::DetRng;
use fdm::convergence::StopCondition;
use fdmax::accelerator::HwUpdateMethod;
use fdmax::config::FdmaxConfig;
use fdmax::durability::{DurabilityConfig, RecoverySummary};
use fdmax::service::frontend::{Frontend, FrontendConfig, TenantConfig, TenantPriority};
use fdmax::service::{
    HedgeConfig, JobSpec, Rung, ServiceConfig, ServiceReport, ServiceStats, SubmitError, TenantId,
};
use std::collections::{BTreeMap, HashMap};
use std::path::Path;
use std::time::{Duration, Instant};

/// Independent scenarios per episode, each a fresh front end fed its
/// own seeded job stream. The brownout ladder is a bang-bang controller
/// that settles into different mixes of degraded rungs on different
/// streams; averaging over scenarios keeps the per-seed figures close.
const SCENARIOS: usize = 24;
/// Offers per scenario.
const OFFERS: usize = 1_000;
/// Offers of the first scenario before the crash pass's kill.
const CRASH_AFTER: usize = 500;
const WORKERS: usize = 2;
const CRITICAL: TenantId = TenantId(1);
const STANDARD: TenantId = TenantId(2);
const FLOOD: TenantId = TenantId(3);
/// One scheduler round's offers: 1 critical, 1 standard, 3 flood.
const ROUND: [TenantId; 5] = [CRITICAL, STANDARD, FLOOD, FLOOD, FLOOD];

#[derive(Debug)]
pub struct Overload;

#[derive(Debug)]
pub struct Prep {
    seed: u64,
    specs: Vec<JobSpec>,
}

pub fn service_config(journal: Option<&Path>) -> ServiceConfig {
    let mut service = ServiceConfig::new(FdmaxConfig::paper_default());
    service.max_job_iterations = 64;
    service.deadline_iterations = 4_000;
    service.parallel_threads = crate::common::bench_threads();
    service.tile_depth = 4;
    service = service.with_hedge(HedgeConfig {
        percentile: 75,
        min_samples: 4,
    });
    match journal {
        Some(dir) => service.with_durability(DurabilityConfig::new(dir).with_checkpoint_every(16)),
        None => service,
    }
}

pub fn config(journal: Option<&Path>) -> FrontendConfig {
    let tenant = |weight, priority| TenantConfig {
        weight,
        max_queued: 8,
        max_in_flight: 2,
        priority,
    };
    FrontendConfig::new(service_config(journal), WORKERS)
        .with_tenant(CRITICAL, tenant(2, TenantPriority::Critical))
        .with_tenant(STANDARD, tenant(2, TenantPriority::Standard))
        .with_tenant(FLOOD, tenant(1, TenantPriority::Standard))
        .with_queue_delay_budget(60)
}

/// Every scenario's offers, scenario after scenario.
fn specs(seed: u64, tracer: &mut Tracer) -> Vec<JobSpec> {
    let mut rng = DetRng::seed_from_u64(seed ^ 0x0F10_0D00);
    let n = SCENARIOS * OFFERS;
    let kinds = blocked(&KINDS, n, &mut rng);
    let sizes = blocked(&(8..=16).collect::<Vec<_>>(), n, &mut rng);
    let steps = blocked(&(4..=40).collect::<Vec<_>>(), n, &mut rng);
    (0..n)
        .map(|i| {
            let sp = build_problem(tracer, i, kinds[i], sizes[i], steps[i]);
            JobSpec::new(
                sp,
                HwUpdateMethod::Jacobi,
                StopCondition::fixed_steps(steps[i]),
            )
            .with_entry_rung(Rung::Reference)
            .with_tenant(ROUND[i % ROUND.len()])
        })
        .collect()
}

/// What one open-loop pass saw.
#[derive(Debug, Default)]
struct Pass {
    /// Digest per offer index (admitted offers only).
    digests: BTreeMap<usize, u64>,
    /// `(offer index, worker, report)` of every completion, if kept.
    reports: Vec<(usize, u32, ServiceReport)>,
    delays: Vec<f64>,
    admitted: u64,
}

/// Offers `specs` five per round, then (when `drain`) runs rounds until
/// every queue is empty. The inputs are cloned before the clock starts;
/// the loop's wall time is added to `tally.timed`.
fn open_loop(
    fe: &mut Frontend,
    specs: &[JobSpec],
    drain: bool,
    tracer: &mut Tracer,
    tally: &mut Tally,
    gate: &mut Gate,
    keep: bool,
) -> Pass {
    let mut pass = Pass::default();
    let mut sent: HashMap<u64, (usize, Instant)> = HashMap::new();
    let owned: Vec<JobSpec> = specs.to_vec();
    let t0 = Instant::now();
    let collect = |reports: Vec<fdmax::service::frontend::FrontendReport>,
                   sent: &mut HashMap<u64, (usize, Instant)>,
                   pass: &mut Pass,
                   tally: &mut Tally| {
        for r in reports {
            let Some((idx, t)) = sent.remove(&r.frontend_job.0) else {
                continue;
            };
            tally.record(&r.report, t.elapsed());
            pass.delays.push(r.queue_delay as f64);
            pass.digests.insert(idx, r.report.digest());
            if keep {
                pass.reports.push((idx, r.worker, r.report));
            }
        }
    };
    let mut owned = owned.into_iter().enumerate().peekable();
    while owned.peek().is_some() {
        for (idx, spec) in owned.by_ref().take(ROUND.len()) {
            let t = Instant::now();
            match tracer.span("frontend.submit", Some(idx as u64), || fe.submit(spec)) {
                Ok(ticket) => {
                    sent.insert(ticket.id.0, (idx, t));
                    pass.admitted += 1;
                }
                Err(SubmitError::Saturated { .. }) => {}
                Err(SubmitError::Rejected(e)) => {
                    gate.check(false, || format!("offer {idx} rejected: {e}"));
                }
            }
        }
        let reports = tracer.span("frontend.round", None, || fe.run_round());
        collect(reports, &mut sent, &mut pass, tally);
    }
    if drain {
        while fe.backlog() > 0 || fe.workers().iter().any(|w| w.queue_depth() > 0) {
            let reports = tracer.span("frontend.round", None, || fe.run_round());
            if reports.is_empty() && fe.backlog() > 0 {
                gate.check(false, || "a drain round made no progress".into());
                break;
            }
            collect(reports, &mut sent, &mut pass, tally);
        }
        gate.check(sent.is_empty(), || {
            format!("{} admitted jobs without a report", sent.len())
        });
    }
    tally.timed += t0.elapsed();
    pass
}

impl Workload for Overload {
    const NAME: &'static str = "overload_frontend";
    const TAIL_PCT: f64 = 99.0;
    type Prep = Prep;

    fn setup(seed: u64, _scratch: &ScratchDir, tracer: &mut Tracer, gate: &mut Gate) -> Prep {
        let cfg = config(None);
        gate.check(!cfg.lint().has_errors(), || {
            "overload config fails lint".into()
        });
        let mut fe = Frontend::new(cfg);
        let specs = specs(seed, tracer);
        // Warm-up: a few hundred offers through the fresh front end.
        open_loop(
            &mut fe,
            &specs[..300],
            true,
            &mut Tracer::new(false),
            &mut Tally::default(),
            gate,
            false,
        );
        Prep { seed, specs }
    }

    fn episode(
        prep: &Prep,
        _scratch: &ScratchDir,
        tracer: &mut Tracer,
        tally: &mut Tally,
        gate: &mut Gate,
        keep: bool,
    ) -> Episode {
        let (mut shed, mut quota, mut brownout, mut transitions) = (0, 0, 0, 0);
        let mut pool = ServiceStats::default();
        let mut delays = Vec::new();
        let mut reports = Vec::new();
        let mut digests = Vec::new();
        for (k, specs) in prep.specs.chunks(OFFERS).enumerate() {
            let mut fe = Frontend::new(config(None));
            let pass = open_loop(&mut fe, specs, true, tracer, tally, gate, keep);
            tally.offered += OFFERS as u64;
            let stats = fe.stats();
            gate.check(stats.deadline_misses == 0, || {
                format!("{} deadline misses under overload", stats.deadline_misses)
            });
            gate.check(
                OFFERS as u64 == stats.admitted + stats.shed + stats.rejected_quota,
                || "offered != admitted + shed + quota-refused".into(),
            );
            gate.check(pass.digests.len() as u64 == pass.admitted, || {
                "admitted jobs and reports disagree".into()
            });
            shed += stats.shed;
            quota += stats.rejected_quota;
            brownout += stats.brownout_dispatches;
            transitions += fe
                .workers()
                .iter()
                .map(|w| w.transitions().len() as u64)
                .sum::<u64>();
            let p = fe.pool_stats();
            pool.hedges_launched += p.hedges_launched;
            pool.hedge_wins += p.hedge_wins;
            pool.hedge_wasted_iterations += p.hedge_wasted_iterations;
            digests.extend(pass.digests.into_values());
            delays.extend(pass.delays);
            reports.extend(
                pass.reports
                    .into_iter()
                    .map(|(i, _, r)| (k * OFFERS + i, r)),
            );
        }
        let mut counts = Metrics::default();
        if keep {
            counts.count("frontend.shed", shed);
            counts.count("frontend.rejected_quota", quota);
            counts.count("frontend.brownout_dispatches", brownout);
            counts.push(
                "frontend.queue_delay_p99_iter",
                percentile(&delays, 99.0),
                "iterations",
            );
            let all: Vec<&ServiceReport> = reports.iter().map(|(_, r)| r).collect();
            service_counts(&mut counts, &all, &pool, transitions);
            reports.retain(|(_, r)| crate::common::good(r));
            let served: Vec<(&JobSpec, &ServiceReport)> =
                reports.iter().map(|(i, r)| (&prep.specs[*i], r)).collect();
            let mut rng = DetRng::seed_from_u64(prep.seed ^ 0x0AC1E);
            oracle_sample(gate, &service_config(None), &served, &mut rng, 32);
        }
        Episode {
            fold: crate::common::fold_digests(digests),
            kept: reports,
            counts,
        }
    }

    fn crash(prep: &Prep, scratch: &ScratchDir, gate: &mut Gate) -> Crash {
        let mut off = Tracer::new(false);
        let mut tally = Tally::default();
        // Ground truth per (worker, worker job id) from an uncrashed run.
        let base = scratch.fresh("truth");
        let mut fe = Frontend::new(config(Some(&base)));
        let truth_pass = open_loop(
            &mut fe,
            &prep.specs[..OFFERS],
            true,
            &mut off,
            &mut tally,
            gate,
            true,
        );
        let truth: HashMap<(u32, u64), u64> = truth_pass
            .reports
            .iter()
            .map(|(_, w, r)| ((*w, r.job.0), r.digest()))
            .collect();

        let dir = scratch.fresh("crash");
        let mut fe = Frontend::new(config(Some(&dir)));
        open_loop(
            &mut fe,
            &prep.specs[..CRASH_AFTER],
            false,
            &mut off,
            &mut tally,
            gate,
            false,
        );
        drop(fe);
        let pristine = scratch.fresh("crashed-journal");
        copy_dir(&dir, &pristine);

        // Jobs that reached a worker survive the crash; each must finish
        // with the digest the uncrashed run gave it.
        let (mut fe, summaries) = Frontend::recover(config(Some(&dir)));
        let mut summary = RecoverySummary::default();
        for s in &summaries {
            summary.records_replayed += s.records_replayed;
            summary.jobs_completed += s.jobs_completed;
            summary.jobs_recovered += s.jobs_recovered;
            summary.resumed_from_checkpoint += s.resumed_from_checkpoint;
        }
        let mut mismatched = 0;
        for r in fe.drain() {
            if truth.get(&(r.worker, r.report.job.0)) != Some(&r.report.digest()) {
                mismatched += 1;
            }
        }
        gate.check(mismatched == 0, || {
            format!("{mismatched} recovered jobs finished with a different digest")
        });
        eprintln!(
            "overload_frontend crash: after {CRASH_AFTER} offers, {} re-admitted, \
             {} resumed from a checkpoint",
            summary.jobs_recovered, summary.resumed_from_checkpoint
        );
        Crash {
            journal_dir: pristine,
            summary,
        }
    }

    fn recover(_prep: &Prep, dir: &Path) -> Duration {
        let cfg = config(Some(dir));
        let t = Instant::now();
        let recovered = Frontend::recover(cfg);
        let elapsed = t.elapsed();
        drop(recovered);
        elapsed
    }

    fn probes(
        prep: &Prep,
        first: &Episode,
        tracer: &mut Tracer,
        metrics: &mut Metrics,
        gate: &mut Gate,
    ) {
        metrics.push(
            "frontend.submit_us_p50",
            tracer.p50_us("frontend.submit"),
            "us",
        );
        metrics.push(
            "frontend.round_us_p50",
            tracer.p50_us("frontend.round"),
            "us",
        );
        let cfg = service_config(None);
        layers::analysis_probe(tracer, metrics, &prep.specs, &cfg);
        layers::service_probe(tracer, metrics, &prep.specs[..CRASH_AFTER], &cfg);
        let replay: Vec<layers::ReplayJob> = first
            .kept
            .iter()
            .step_by(24)
            .map(|(i, r)| layers::ReplayJob::new(*i, &prep.specs[*i], r, &cfg, true))
            .collect();
        layers::rung_replay(tracer, metrics, &replay, &cfg, gate);
        layers::kernel_mix(tracer, metrics, &replay, &cfg);
    }
}
