//! `sweep_large`: one fault-free `SolveService` without a journal fed
//! steady Laplace and Poisson jobs at 256², 1024² and 4096² interiors
//! by one closed-loop client with one job outstanding. Every size class
//! contributes the same lattice updates per episode; Jacobi jobs
//! alternate between entering at `Rung::Parallel` and `Rung::Tiled`,
//! and a Hybrid minority (entering at `Rung::Tiled`, which does not
//! apply to it) is served by `Rung::Software`.

use crate::common::{copy_dir, good, Metrics, ScratchDir, Tally};
use crate::inputs::{build_problem, shuffle};
use crate::service_loop::{oracle_check, ClosedLoop, Gate};
use crate::trace::Tracer;
use crate::{layers, service_counts, Crash, Episode, Workload};
use detrng::DetRng;
use fdm::convergence::StopCondition;
use fdm::pde::PdeKind;
use fdmax::accelerator::HwUpdateMethod;
use fdmax::config::FdmaxConfig;
use fdmax::durability::DurabilityConfig;
use fdmax::service::{JobSpec, Rung, ServiceConfig, ServiceReport, SolveService};
use std::path::Path;
use std::time::{Duration, Instant};

use HwUpdateMethod::{Hybrid, Jacobi};
use PdeKind::{Laplace, Poisson};
use Rung::{Parallel, Tiled};

/// One size class: interior side, steps (a multiple of the tile depth)
/// and its fixed composition `(kind, method, entry rung, jobs)`. Every
/// class contributes the same lattice updates per episode; the seed only
/// orders the jobs. Hybrid jobs enter at the tiled rung, which does not
/// apply to them, and fall through to the software rung.
type Class = (
    usize,
    usize,
    &'static [(PdeKind, HwUpdateMethod, Rung, usize)],
);
const CLASSES: [Class; 3] = [
    (
        256,
        32,
        &[
            (Laplace, Hybrid, Tiled, 16),
            (Poisson, Hybrid, Tiled, 16),
            (Laplace, Jacobi, Parallel, 24),
            (Poisson, Jacobi, Parallel, 24),
            (Laplace, Jacobi, Tiled, 24),
            (Poisson, Jacobi, Tiled, 24),
        ],
    ),
    (
        1024,
        32,
        &[
            (Laplace, Hybrid, Tiled, 1),
            (Poisson, Hybrid, Tiled, 1),
            (Laplace, Jacobi, Parallel, 2),
            (Poisson, Jacobi, Parallel, 1),
            (Laplace, Jacobi, Tiled, 1),
            (Poisson, Jacobi, Tiled, 2),
        ],
    ),
    (
        4096,
        8,
        &[(Laplace, Jacobi, Parallel, 1), (Poisson, Jacobi, Tiled, 1)],
    ),
];
/// 256² jobs also replayed on the cycle-accurate and reference rungs.
const CYCLE_ACCURATE_REPLAYS: usize = 4;

#[derive(Debug)]
pub struct SweepLarge;

#[derive(Debug)]
pub struct Prep {
    seed: u64,
    specs: Vec<JobSpec>,
}

pub fn config(journal: Option<&Path>) -> ServiceConfig {
    let mut cfg = ServiceConfig::new(FdmaxConfig::paper_default());
    cfg.queue_capacity = 1;
    cfg.max_job_iterations = 1_000;
    cfg.deadline_iterations = 1_000_000;
    cfg.admission_analysis = false;
    cfg.parallel_threads = crate::common::bench_threads();
    cfg.tile_depth = 4;
    match journal {
        Some(dir) => cfg.with_durability(DurabilityConfig::new(dir).with_checkpoint_every(16)),
        None => cfg,
    }
}

fn specs(seed: u64, tracer: &mut Tracer) -> Vec<JobSpec> {
    let mut jobs = Vec::new();
    for (side, steps, mix) in CLASSES {
        for &(kind, method, entry, count) in mix {
            jobs.extend(std::iter::repeat_n(
                (side, steps, kind, method, entry),
                count,
            ));
        }
    }
    shuffle(&mut jobs, &mut DetRng::seed_from_u64(seed ^ 0x5EE9_1A26));
    jobs.into_iter()
        .enumerate()
        .map(|(i, (side, steps, kind, method, entry))| {
            let sp = build_problem(tracer, i, kind, side + 2, steps);
            JobSpec::new(sp, method, StopCondition::fixed_steps(steps)).with_entry_rung(entry)
        })
        .collect()
}

/// One job outstanding: clone the input (untimed), submit, run it.
fn drive(
    cl: &mut ClosedLoop,
    specs: &[&JobSpec],
    tracer: &mut Tracer,
    tally: &mut Tally,
    gate: &mut Gate,
    mut on_report: impl FnMut(usize, ServiceReport),
) -> Duration {
    let mut timed = Duration::ZERO;
    for (i, spec) in specs.iter().enumerate() {
        let spec = (*spec).clone();
        let t0 = Instant::now();
        if let Err(e) = cl.submit(i, spec, false, tracer) {
            gate.check(false, || format!("job {i} refused: {e}"));
            continue;
        }
        let (idx, report, latency) = cl.run_one(tracer).expect("one job outstanding");
        timed += t0.elapsed();
        tally.record(&report, latency);
        on_report(idx, report);
    }
    timed
}

impl Workload for SweepLarge {
    const NAME: &'static str = "sweep_large";
    const TAIL_PCT: f64 = 99.0;
    type Prep = Prep;

    fn setup(seed: u64, _scratch: &ScratchDir, tracer: &mut Tracer, gate: &mut Gate) -> Prep {
        let cfg = config(None);
        gate.check(!cfg.lint().has_errors(), || {
            "sweep config fails lint".into()
        });
        let mut cl = ClosedLoop::new(SolveService::new(cfg));
        let specs = specs(seed, tracer);
        // Warm-up: two 256² jobs, one per entry rung.
        let warm: Vec<&JobSpec> = specs
            .iter()
            .filter(|s| s.problem.rows() == CLASSES[0].0 + 2 && s.method == Jacobi)
            .take(2)
            .collect();
        drive(
            &mut cl,
            &warm,
            &mut Tracer::new(false),
            &mut Tally::default(),
            gate,
            |_, _| {},
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
        let mut cl = ClosedLoop::new(SolveService::new(config(None)));
        let refs: Vec<&JobSpec> = prep.specs.iter().collect();
        let mut dups = 0usize;
        let mut digests = vec![None; refs.len()];
        let mut kept = Vec::new();
        // The oracle re-solves two seeded jobs of every size class as
        // their reports arrive (outside the timed interval), so no
        // solution outlives its check.
        let mut rng = DetRng::seed_from_u64(prep.seed ^ 0x0AC1E);
        let mut sample = Vec::new();
        for (side, _, _) in CLASSES {
            let mut class: Vec<usize> = (0..refs.len())
                .filter(|&i| refs[i].problem.rows() == side + 2)
                .collect();
            shuffle(&mut class, &mut rng);
            sample.extend(class.into_iter().take(2));
        }
        let cfg = config(None);
        let mut oracle_errors = Vec::new();
        let timed = drive(&mut cl, &refs, tracer, tally, gate, |idx, mut r| {
            dups += usize::from(digests[idx].replace(r.digest()).is_some());
            if keep && good(&r) {
                if sample.contains(&idx) {
                    match oracle_check(&cfg.accel, cfg.max_job_iterations, refs[idx], &r) {
                        Ok(_) => {}
                        Err(e) => oracle_errors.push(format!("oracle: job {idx}: {e}")),
                    }
                }
                r.solution = None;
                kept.push((idx, r));
            }
        });
        tally.timed += timed;
        tally.offered += refs.len() as u64;

        gate.check(dups == 0, || format!("{dups} jobs reported twice"));
        for e in oracle_errors {
            gate.check(false, || e);
        }
        let missing = digests.iter().filter(|d| d.is_none()).count();
        gate.check(missing == 0, || {
            format!("{missing} admitted jobs without a report")
        });
        let stats = cl.svc.stats();
        let mut counts = Metrics::default();
        if keep {
            gate.check(kept.len() == refs.len(), || {
                "a sweep job got no numeric answer".into()
            });
            let all: Vec<&ServiceReport> = kept.iter().map(|(_, r)| r).collect();
            service_counts(&mut counts, &all, &stats, cl.svc.transitions().len() as u64);
        }
        Episode {
            fold: crate::common::fold_digests(digests.into_iter().flatten()),
            kept,
            counts,
        }
    }

    /// The crash pass journals the 256² and 1024² jobs only: a 4096²
    /// job's `Submitted` record is a 64–128 MiB frame, and copying it
    /// for every recover sample would dominate the run. The kill comes
    /// after the last of them is admitted and before it runs.
    fn crash(prep: &Prep, scratch: &ScratchDir, gate: &mut Gate) -> Crash {
        let small: Vec<&JobSpec> = prep
            .specs
            .iter()
            .filter(|s| s.problem.rows() <= CLASSES[1].0 + 2)
            .collect();
        let (head, last) = small.split_at(small.len() - 1);
        let mut off = Tracer::new(false);
        let mut tally = Tally::default();

        let base = scratch.fresh("truth");
        let mut cl = ClosedLoop::new(SolveService::new(config(Some(&base))));
        let mut truth = Vec::new();
        drive(&mut cl, &small, &mut off, &mut tally, gate, |_, r| {
            truth.push(r.digest());
        });
        drop(cl);

        let dir = scratch.fresh("crash");
        let mut cl = ClosedLoop::new(SolveService::new(config(Some(&dir))));
        drive(&mut cl, head, &mut off, &mut tally, gate, |_, _| {});
        let _ = cl.svc.submit(last[0].clone()).expect("admitted");
        drop(cl);
        let pristine = scratch.fresh("crashed-journal");
        copy_dir(&dir, &pristine);

        let (mut svc, summary) = SolveService::recover(config(Some(&dir)));
        let resumed = svc.drain();
        gate.check(
            resumed.len() == 1 && Some(&resumed[0].digest()) == truth.last(),
            || "the recovered 1024²/256² job finished with a different digest".into(),
        );
        Crash {
            journal_dir: pristine,
            summary,
        }
    }

    fn recover(_prep: &Prep, dir: &Path) -> Duration {
        let cfg = config(Some(dir));
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
        metrics: &mut Metrics,
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
        let cfg = config(None);
        layers::analysis_probe(tracer, metrics, &prep.specs, &cfg);
        layers::frontend_probe(tracer, metrics, &prep.specs, &cfg);
        let mut small_seen = 0;
        let replay: Vec<layers::ReplayJob> = first
            .kept
            .iter()
            .map(|(i, r)| {
                let spec = &prep.specs[*i];
                let small = spec.problem.rows() == CLASSES[0].0 + 2;
                small_seen += usize::from(small);
                let cycle_accurate = small && small_seen <= CYCLE_ACCURATE_REPLAYS;
                layers::ReplayJob::new(*i, spec, r, &cfg, cycle_accurate)
            })
            .collect();
        layers::rung_replay(tracer, metrics, &replay, &cfg, gate);
        layers::kernel_mix(tracer, metrics, &replay, &cfg);
    }
}
