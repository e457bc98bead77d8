//! `service_chaos`: one `SolveService` under a parity-ECC SRAM-upset
//! and flaky-DMA campaign, journaling to tmpfs, fed a seeded mix of
//! Laplace/Poisson/Heat/Wave jobs at 10–21² with 8–40 fixed steps by
//! one closed-loop client. One job in three is Hybrid; every 17th is
//! cancelled right after admission. A journaled run of the same jobs is
//! killed mid-append (a torn journal tail) and its recovery checked
//! against an uncrashed run; its crashed journal feeds `recover_ms`.

use crate::common::{copy_dir, good, ScratchDir, Tally};
use crate::inputs::{blocked, build_problem, KINDS};
use crate::service_loop::{oracle_sample, ClosedLoop, Gate};
use crate::trace::Tracer;
use crate::{layers, service_counts, Crash, Episode, Workload};
use detrng::DetRng;
use fdm::convergence::StopCondition;
use fdmax::accelerator::HwUpdateMethod;
use fdmax::config::FdmaxConfig;
use fdmax::durability::{decode_journal, DurabilityConfig, JournalRecord, JOURNAL_FILE};
use fdmax::service::{JobSpec, Rung, ServiceConfig, ServiceReport, SolveService};
use memmodel::faults::{EccMode, FaultCampaign};
use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};

/// Jobs per episode.
const JOBS: usize = 1800;
const CANCEL_EVERY: usize = 17;
/// Journal checkpoint cadence (iterations) of the deterministic rungs.
const CHECKPOINT_EVERY: u64 = 8;
/// Jobs run through a throwaway service during set-up.
const WARMUP_JOBS: usize = 64;

#[derive(Debug)]
pub struct Chaos;

#[derive(Debug)]
pub struct Prep {
    seed: u64,
    specs: Vec<JobSpec>,
}

pub fn config(seed: u64, journal: Option<&Path>) -> ServiceConfig {
    let mut cfg = ServiceConfig::new(FdmaxConfig::paper_default());
    cfg.queue_capacity = 8;
    cfg.max_job_iterations = 40;
    cfg.deadline_iterations = 8 * 40;
    cfg.parallel_threads = crate::common::bench_threads();
    cfg.tile_depth = 4;
    cfg.campaign = FaultCampaign {
        seed,
        sram_flips_per_iteration: 0.05,
        ecc: EccMode::Parity,
        dma_failure_prob: 0.005,
        max_dma_retries: 4,
        dma_backoff_cycles: 16,
    };
    match journal {
        Some(dir) => {
            cfg.with_durability(DurabilityConfig::new(dir).with_checkpoint_every(CHECKPOINT_EVERY))
        }
        None => cfg,
    }
}

fn specs(seed: u64, tracer: &mut Tracer) -> Vec<JobSpec> {
    let mut rng = DetRng::seed_from_u64(seed ^ 0xC4A0_5000);
    let kinds = blocked(&KINDS, JOBS, &mut rng);
    let sizes = blocked(&(10..=21).collect::<Vec<_>>(), JOBS, &mut rng);
    let steps = blocked(&(8..=40).collect::<Vec<_>>(), JOBS, &mut rng);
    (0..JOBS)
        .map(|i| {
            let sp = build_problem(tracer, i, kinds[i], sizes[i], steps[i]);
            let method = if i % 3 == 0 {
                HwUpdateMethod::Hybrid
            } else {
                HwUpdateMethod::Jacobi
            };
            JobSpec::new(sp, method, StopCondition::fixed_steps(steps[i]))
        })
        .collect()
}

/// Drives `specs[from..]` through `cl`; `on_report` is asked after
/// every report and ends the loop early (no drain) when it returns
/// `true`. The inputs are cloned before the clock starts; the loop's
/// wall time is added to `tally.timed`.
fn drive(
    cl: &mut ClosedLoop,
    specs: &[JobSpec],
    from: usize,
    tracer: &mut Tracer,
    tally: &mut Tally,
    gate: &mut Gate,
    mut on_report: impl FnMut(usize, ServiceReport, &ClosedLoop) -> bool,
) -> bool {
    let owned: Vec<JobSpec> = specs[from..].to_vec();
    let t0 = Instant::now();
    let finished = run_loop(cl, owned, from, tracer, tally, gate, &mut on_report);
    tally.timed += t0.elapsed();
    finished
}

fn run_loop(
    cl: &mut ClosedLoop,
    owned: Vec<JobSpec>,
    from: usize,
    tracer: &mut Tracer,
    tally: &mut Tally,
    gate: &mut Gate,
    on_report: &mut impl FnMut(usize, ServiceReport, &ClosedLoop) -> bool,
) -> bool {
    for (i, spec) in owned.into_iter().enumerate().map(|(k, s)| (k + from, s)) {
        while cl.full() {
            let (idx, report, latency) = cl.run_one(tracer).expect("full queue");
            tally.record(&report, latency);
            if on_report(idx, report, cl) {
                return false;
            }
        }
        if let Err(e) = cl.submit(i, spec, i % CANCEL_EVERY == 0, tracer) {
            gate.check(false, || format!("job {i} refused: {e}"));
        }
    }
    while let Some((idx, report, latency)) = cl.run_one(tracer) {
        tally.record(&report, latency);
        if on_report(idx, report, cl) {
            return false;
        }
    }
    true
}

impl Workload for Chaos {
    const NAME: &'static str = "service_chaos";
    const TAIL_PCT: f64 = 99.0;
    type Prep = Prep;

    fn setup(seed: u64, scratch: &ScratchDir, tracer: &mut Tracer, gate: &mut Gate) -> Prep {
        let dir = scratch.fresh("setup");
        let cfg = config(seed, Some(&dir));
        gate.check(!cfg.lint().has_errors(), || {
            "chaos config fails lint".into()
        });
        let svc = SolveService::new(cfg);
        let specs = specs(seed, tracer);
        // Warm-up: the first jobs through the freshly built service.
        let mut cl = ClosedLoop::new(svc);
        let mut off = Tracer::new(false);
        drive(
            &mut cl,
            &specs[..WARMUP_JOBS],
            0,
            &mut off,
            &mut Tally::default(),
            gate,
            |_, _, _| false,
        );
        Prep { seed, specs }
    }

    fn episode(
        prep: &Prep,
        scratch: &ScratchDir,
        tracer: &mut Tracer,
        tally: &mut Tally,
        gate: &mut Gate,
        keep: bool,
    ) -> Episode {
        let dir = scratch.fresh("episode");
        let mut cl = ClosedLoop::new(SolveService::new(config(prep.seed, Some(&dir))));
        let mut dups = 0usize;
        let mut digests = vec![None; JOBS];
        let mut reports = Vec::new();
        drive(&mut cl, &prep.specs, 0, tracer, tally, gate, |idx, r, _| {
            dups += usize::from(digests[idx].replace(r.digest()).is_some());
            if keep {
                reports.push((idx, r));
            }
            false
        });
        tally.offered += JOBS as u64;
        tally.harness_cancelled += JOBS.div_ceil(CANCEL_EVERY) as u64;

        gate.check(dups == 0, || format!("{dups} jobs reported twice"));
        let missing = digests.iter().filter(|d| d.is_none()).count();
        gate.check(missing == 0, || {
            format!("{missing} admitted jobs without a report")
        });
        let stats = cl.svc.stats();
        gate.check(stats.deadline_misses == 0, || {
            format!("{} deadline misses", stats.deadline_misses)
        });
        let mut counts = crate::common::Metrics::default();
        if keep {
            let all: Vec<&ServiceReport> = reports.iter().map(|(_, r)| r).collect();
            service_counts(&mut counts, &all, &stats, cl.svc.transitions().len() as u64);
            let served: Vec<(&JobSpec, &ServiceReport)> = reports
                .iter()
                .filter(|(_, r)| good(r))
                .map(|(i, r)| (&prep.specs[*i], r))
                .collect();
            let mut rng = DetRng::seed_from_u64(prep.seed ^ 0x0AC1E);
            oracle_sample(gate, cl.svc.config(), &served, &mut rng, 24);
            reports.retain(|(_, r)| good(r));
        }
        Episode {
            fold: crate::common::fold_digests(digests.into_iter().flatten()),
            kept: reports,
            counts,
        }
    }

    fn crash(prep: &Prep, scratch: &ScratchDir, gate: &mut Gate) -> Crash {
        let mut off = Tracer::new(false);
        // Ground truth: an uncrashed durable run. It also finds the kill
        // point: a report near half the jobs of a job that was not
        // cancelled, with no harness-cancelled job queued (a recovered
        // job gets a fresh cancel token) — preferably one a
        // checkpointing rung served, so recovery resumes it from a
        // checkpoint.
        let base = scratch.fresh("truth");
        let mut truth = vec![0u64; JOBS];
        let mut kill_points = Vec::new();
        let mut reported = 0usize;
        let mut cl = ClosedLoop::new(SolveService::new(config(prep.seed, Some(&base))));
        drive(
            &mut cl,
            &prep.specs,
            0,
            &mut off,
            &mut Tally::default(),
            gate,
            |idx, r, cl| {
                truth[idx] = r.digest();
                reported += 1;
                let checkpointed = matches!(
                    r.served_by(),
                    Some(Rung::Reference | Rung::Parallel | Rung::Software)
                ) && r.iterations >= CHECKPOINT_EVERY;
                if idx % CANCEL_EVERY != 0 && !cl.cancelled_job_queued() {
                    kill_points.push((reported, checkpointed));
                }
                false
            },
        );
        let nearest = |only_checkpointed: bool| {
            kill_points
                .iter()
                .filter(|(_, c)| *c || !only_checkpointed)
                .map(|(k, _)| *k)
                .min_by_key(|k| k.abs_diff(JOBS / 2))
        };
        gate.check(!kill_points.is_empty(), || {
            "chaos crash pass found no kill point".into()
        });
        let kill_at = nearest(true)
            .filter(|k| k.abs_diff(JOBS / 2) <= 32)
            .or_else(|| nearest(false))
            .unwrap_or(JOBS / 2);

        // The doomed run dies while appending the kill point's
        // `Completed` record: that job is re-run (from its last
        // checkpoint when a checkpointing rung served it) and the queued
        // ones are re-admitted.
        let dir = scratch.fresh("crash");
        let mut seen: BTreeMap<usize, u64> = BTreeMap::new();
        let mut cl = ClosedLoop::new(SolveService::new(config(prep.seed, Some(&dir))));
        let finished = drive(
            &mut cl,
            &prep.specs,
            0,
            &mut off,
            &mut Tally::default(),
            gate,
            |idx, r, _| {
                seen.insert(idx, r.digest());
                seen.len() == kill_at
            },
        );
        gate.check(!finished, || "chaos crash pass found no kill point".into());
        drop(cl);

        // Tear the final record five bytes in, as a crash mid-append
        // would.
        let journal_path = dir.join(JOURNAL_FILE);
        let bytes = std::fs::read(&journal_path).expect("journal exists");
        let last = decode_journal(&bytes)
            .records
            .pop()
            .expect("journal records");
        gate.check(matches!(last, JournalRecord::Completed { .. }), || {
            "the crashed journal does not end in a Completed record".into()
        });
        let cut = bytes.len() - last.encode().len() + 5;
        std::fs::write(&journal_path, &bytes[..cut]).expect("tear journal");
        let pristine = scratch.fresh("crashed-journal");
        copy_dir(&dir, &pristine);

        let cfg_for = |d: &Path| config(prep.seed, Some(d));

        // Finish the recovered run and compare every digest with the
        // uncrashed run: surviving `Completed` records keep their
        // pre-crash reports, everything else is re-run or resubmitted.
        let (svc, summary) = SolveService::recover(cfg_for(&dir));
        let kept = decode_journal(&bytes[..cut]).records;
        let mut pending: Vec<u64> = Vec::new();
        let mut digests: BTreeMap<usize, u64> = BTreeMap::new();
        for record in &kept {
            match record {
                JournalRecord::Submitted { id, .. } => pending.push(*id),
                JournalRecord::Completed { id, .. } => {
                    pending.retain(|p| p != id);
                    digests.insert(*id as usize, seen[&(*id as usize)]);
                }
                _ => {}
            }
        }
        let resubmit_from = kept
            .iter()
            .filter(|r| matches!(r, JournalRecord::Submitted { .. }))
            .count();
        // Recovered jobs wait in the service queue; the client adopts
        // them and carries on where its journaled admissions ended.
        let mut cl = ClosedLoop::new(svc);
        cl.adopt(pending);
        drive(
            &mut cl,
            &prep.specs,
            resubmit_from,
            &mut off,
            &mut Tally::default(),
            gate,
            |idx, r, _| {
                digests.insert(idx, r.digest());
                false
            },
        );
        let mismatched = (0..JOBS)
            .filter(|i| digests.get(i) != Some(&truth[*i]))
            .count();
        gate.check(mismatched == 0, || {
            format!("{mismatched} digests differ after recovery")
        });
        eprintln!(
            "service_chaos crash: kill after {} reports, journal cut at {cut}/{} bytes, \
             {} re-admitted, {} resumed from a checkpoint",
            seen.len(),
            bytes.len(),
            summary.jobs_recovered,
            summary.resumed_from_checkpoint
        );
        Crash {
            journal_dir: pristine,
            summary,
        }
    }

    fn recover(prep: &Prep, dir: &Path) -> Duration {
        let cfg = config(prep.seed, Some(dir));
        let t = Instant::now();
        let recovered = SolveService::recover(cfg);
        let elapsed = t.elapsed();
        drop(recovered);
        elapsed
    }

    fn probes(
        prep: &Prep,
        first: &Episode,
        tracer: &mut Tracer,
        metrics: &mut crate::common::Metrics,
        gate: &mut Gate,
    ) {
        metrics.push(
            "service.submit_us_p50",
            tracer.p50_us("service.submit"),
            "us",
        );
        metrics.push(
            "service.run_next_us_p50",
            tracer.p50_us("service.run_next"),
            "us",
        );
        let cfg = config(prep.seed, None);
        layers::analysis_probe(tracer, metrics, &prep.specs, &cfg);
        layers::frontend_probe(tracer, metrics, &prep.specs, &cfg);
        let replay: Vec<layers::ReplayJob> = first
            .kept
            .iter()
            .map(|(i, r)| layers::ReplayJob::new(*i, &prep.specs[*i], r, &cfg, true))
            .collect();
        layers::rung_replay(tracer, metrics, &replay, &cfg, gate);
        layers::kernel_mix(tracer, metrics, &replay, &cfg);
    }
}
