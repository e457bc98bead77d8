//! Per-layer probes of the traced run. Each drives one layer's public
//! functions with the workload's own inputs inside benchmark-side
//! spans: admission analysis on every job's plan, the front end or the
//! bare service where the workload bypasses it, a replay of the served
//! jobs through every rung's public engine, the row kernels at the
//! workload's row-length mix with the memory and in-cache ceilings
//! measured beside them, and a replay of the workload's crashed
//! journal through the durability layer.

use crate::common::{median, micros, percentile, Metrics, ScratchDir};
use crate::service_loop::{ClosedLoop, Gate};
use crate::trace::Tracer;
use crate::Crash;
use fdm::convergence::StopCondition;
use fdm::engine::{ParallelSweepEngine, Session, SolveEngine, SweepEngine};
use fdm::kernels::{jacobi_row, OffsetRow};
use fdm::pde::PdeKind;
use fdm::tiled::TiledSweepEngine;
use fdmax::accelerator::HwUpdateMethod;
use fdmax::analysis::{analyze_plan, PrecisionClass, SolvePlan};
use fdmax::durability::{decode_journal, DurabilityConfig, JobJournal, JournalRecord};
use fdmax::elastic::ElasticConfig;
use fdmax::engine::{EstimateEngine, HwReferenceEngine};
use fdmax::service::frontend::{Frontend, FrontendConfig};
use fdmax::service::{JobSpec, Rung, ServiceConfig, ServiceReport, SubmitError};
use fdmax::sim::DetailedSim;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::Instant;

pub fn rung_key(rung: Rung) -> &'static str {
    match rung {
        Rung::Detailed => "detailed",
        Rung::Reference => "reference",
        Rung::Parallel => "parallel",
        Rung::Tiled => "tiled",
        Rung::Software => "software",
        Rung::Krylov => "krylov",
        Rung::Estimate => "estimate",
    }
}

/// `analyze_plan` on every job's `SolvePlan`, built as the service
/// builds it at admission.
pub fn analysis_probe(
    tracer: &mut Tracer,
    metrics: &mut Metrics,
    specs: &[JobSpec],
    cfg: &ServiceConfig,
) {
    for (i, spec) in specs.iter().enumerate() {
        let scale = spec
            .problem
            .initial
            .as_slice()
            .iter()
            .map(|v| f64::from(v.abs()))
            .filter(|v| v.is_finite())
            .fold(0.0_f64, f64::max);
        let plan = SolvePlan {
            rows: spec.problem.rows(),
            cols: spec.problem.cols(),
            method: spec.method,
            tolerance: spec.stop.tolerance_value(),
            requested_iterations: spec.stop.max_iterations(),
            precision: PrecisionClass::F32,
            steady_state: spec.problem.is_steady_state(),
            scale,
            parallel_threads: cfg.parallel_threads,
            tile_depth: cfg.tile_depth,
        };
        let lint = Some(cfg.lint_spec());
        let report = tracer.span("analysis.analyze_plan", Some(i as u64), || {
            analyze_plan(&plan, &cfg.accel, lint.as_ref())
        });
        let _ = black_box(report);
    }
    metrics.push(
        "analysis.analyze_plan_us_p50",
        tracer.p50_us("analysis.analyze_plan"),
        "us",
    );
}

/// The workload's jobs through a one-worker front end, one offer per
/// scheduler round (for workloads that bypass the front end).
pub fn frontend_probe(
    tracer: &mut Tracer,
    metrics: &mut Metrics,
    specs: &[JobSpec],
    cfg: &ServiceConfig,
) {
    let mut fe = Frontend::new(FrontendConfig::new(cfg.clone(), 1));
    let mut delays = Vec::new();
    for (i, spec) in specs.iter().enumerate() {
        let spec = spec.clone();
        let _ = tracer.span("frontend.submit", Some(i as u64), || fe.submit(spec));
        let reports = tracer.span("frontend.round", None, || fe.run_round());
        delays.extend(reports.iter().map(|r| r.queue_delay as f64));
    }
    while fe.backlog() > 0 || fe.workers().iter().any(|w| w.queue_depth() > 0) {
        let reports = tracer.span("frontend.round", None, || fe.run_round());
        if reports.is_empty() {
            break;
        }
        delays.extend(reports.iter().map(|r| r.queue_delay as f64));
    }
    let stats = fe.stats();
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
    metrics.count("frontend.shed", stats.shed);
    metrics.count("frontend.rejected_quota", stats.rejected_quota);
    metrics.count("frontend.brownout_dispatches", stats.brownout_dispatches);
    metrics.push(
        "frontend.queue_delay_p99_iter",
        percentile(&delays, 99.0),
        "iterations",
    );
}

/// The workload's jobs through a bare `SolveService` (for the workload
/// that reaches the service only through the front end).
pub fn service_probe(
    tracer: &mut Tracer,
    metrics: &mut Metrics,
    specs: &[JobSpec],
    cfg: &ServiceConfig,
) {
    let mut cl = ClosedLoop::new(fdmax::service::SolveService::new(cfg.clone()));
    for (i, spec) in specs.iter().enumerate() {
        while cl.full() {
            let _ = cl.run_one(tracer);
        }
        if let Err(SubmitError::Rejected(e)) = cl.submit(i, spec.clone(), false, tracer) {
            eprintln!("service probe: job {i} rejected: {e}");
        }
    }
    while cl.run_one(tracer).is_some() {}
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
}

/// One served job to replay.
#[derive(Debug)]
pub struct ReplayJob<'a> {
    /// The job's input index (its span job id).
    pub job: u64,
    pub spec: &'a JobSpec,
    pub steps: usize,
    pub served: Rung,
    /// Also replay on the cycle-accurate simulator and the hardware
    /// reference engine.
    pub cycle_accurate: bool,
}

impl<'a> ReplayJob<'a> {
    pub fn new(
        job: usize,
        spec: &'a JobSpec,
        report: &ServiceReport,
        cfg: &ServiceConfig,
        cycle_accurate: bool,
    ) -> Self {
        ReplayJob {
            job: job as u64,
            spec,
            steps: spec.stop.clamped(cfg.max_job_iterations).max_iterations(),
            served: report.served_by().expect("served report"),
            cycle_accurate,
        }
    }

    fn interior(&self) -> u64 {
        let p = &self.spec.problem;
        ((p.rows() - 2) * (p.cols() - 2)) as u64
    }
}

/// Replays every job through each rung's public engine for the steps
/// it was served with; reports host time per step and steps per rung.
pub fn rung_replay(
    tracer: &mut Tracer,
    metrics: &mut Metrics,
    jobs: &[ReplayJob<'_>],
    cfg: &ServiceConfig,
    gate: &mut Gate,
) {
    const RUNGS: [Rung; 5] = [
        Rung::Detailed,
        Rung::Reference,
        Rung::Parallel,
        Rung::Tiled,
        Rung::Software,
    ];
    let mut us_per_step = [0.0f64; 5];
    let (mut sim_cycles, mut sim_ns) = (0u64, 0u64);
    for (slot, rung) in RUNGS.into_iter().enumerate() {
        let (mut ns, mut steps) = (0u64, 0u64);
        for job in jobs {
            let applicable = match rung {
                Rung::Detailed | Rung::Reference => job.cycle_accurate,
                Rung::Tiled => job.spec.method == HwUpdateMethod::Jacobi,
                _ => true,
            };
            if !applicable {
                continue;
            }
            let name = match rung {
                Rung::Detailed => "rung.detailed",
                Rung::Reference => "rung.reference",
                Rung::Parallel => "rung.parallel",
                Rung::Tiled => "rung.tiled",
                _ => "rung.software",
            };
            let t = Instant::now();
            let result = tracer.span(name, Some(job.job), || replay_one(rung, job, cfg));
            let elapsed = t.elapsed().as_nanos() as u64;
            match result {
                Ok((done, cycles)) => {
                    ns += elapsed;
                    steps += done;
                    if rung == Rung::Detailed {
                        sim_cycles += cycles;
                        sim_ns += elapsed;
                    }
                }
                Err(e) => gate.check(false, || format!("{name} replay failed: {e}")),
            }
        }
        us_per_step[slot] = ns as f64 / 1e3 / steps.max(1) as f64;
        metrics.push(
            format!("rung.{}.us_per_step", rung_key(rung)),
            us_per_step[slot],
            "us",
        );
        metrics.count(format!("rung.{}.steps", rung_key(rung)), steps);
    }
    metrics.push(
        "rung.parallel.over_software",
        us_per_step[2] / us_per_step[4],
        "ratio",
    );
    metrics.push(
        "sim.detailed.sim_cycles_per_host_s",
        sim_cycles as f64 / (sim_ns as f64 / 1e9),
        "cycles/s",
    );

    let mut per_job = Vec::with_capacity(jobs.len());
    for job in jobs {
        let p = &job.spec.problem;
        let t = Instant::now();
        let cycles = tracer.span("rung.estimate", Some(job.job), || {
            let mut e = EstimateEngine::new(
                cfg.accel,
                p.rows(),
                p.cols(),
                p.offset.requires_buffer(),
                p.stencil.has_self_term(),
                job.steps as u64,
            );
            e.begin();
            let _ = e.step();
            e.finish();
            e.into_report().cycles()
        });
        per_job.push(micros(t.elapsed()));
        black_box(cycles);
    }
    metrics.push("rung.estimate.us_per_job", median(&per_job), "us");
}

/// Runs one job on one rung: `(steps executed, simulated cycles)`.
fn replay_one(rung: Rung, job: &ReplayJob<'_>, cfg: &ServiceConfig) -> Result<(u64, u64), String> {
    let p = &job.spec.problem;
    let stop = StopCondition::fixed_steps(job.steps);
    let sw = job.spec.method.software_equivalent();
    fn drive<E: SolveEngine>(engine: E, stop: StopCondition) -> Result<E, String> {
        let mut s = Session::new(engine, stop);
        s.run().map_err(|e| e.to_string())?;
        Ok(s.into_parts().0)
    }
    match rung {
        Rung::Detailed => {
            let sim = DetailedSim::new(cfg.accel, p, job.spec.method).map_err(|e| e.to_string())?;
            let sim = drive(sim, stop)?;
            Ok((sim.iterations() as u64, sim.counters().cycles))
        }
        Rung::Reference => {
            let elastic = ElasticConfig::try_plan(&cfg.accel, p.rows(), p.cols())
                .map_err(|e| e.to_string())?;
            let e = HwReferenceEngine::with_elastic(&cfg.accel, p, job.spec.method, elastic);
            Ok((drive(e, stop)?.iterations() as u64, 0))
        }
        Rung::Parallel => {
            let e = ParallelSweepEngine::new(p, sw, cfg.parallel_threads);
            Ok((drive(e, stop)?.iterations() as u64, 0))
        }
        Rung::Tiled => {
            let e = TiledSweepEngine::new(p, sw, cfg.tile_depth, cfg.parallel_threads)
                .with_iteration_cap(job.steps);
            Ok((drive(e, stop)?.iterations() as u64, 0))
        }
        _ => {
            let e = SweepEngine::new(p, sw);
            Ok((drive(e, stop)?.iterations() as u64, 0))
        }
    }
}

/// Nanoseconds per `jacobi_row` call on an L1-resident row of `len`
/// (median of five batches after a warm-up batch).
fn row_ns(len: usize) -> f64 {
    let sp =
        fdm::workload::benchmark_problem::<f32>(PdeKind::Laplace, 10, 1).expect("stencil source");
    let st = sp.stencil;
    let up: Vec<f32> = (0..len).map(|j| (j % 7) as f32 * 0.25).collect();
    let center: Vec<f32> = (0..len).map(|j| (j % 5) as f32 * 0.5).collect();
    let down: Vec<f32> = (0..len).map(|j| (j % 3) as f32 * 0.75).collect();
    let mut out = vec![0.0f32; len];
    let reps = (400_000 / len).max(16);
    let mut batches = Vec::with_capacity(5);
    for _ in 0..6 {
        let t = Instant::now();
        let mut acc = 0.0;
        for _ in 0..reps {
            acc += jacobi_row(
                &st,
                black_box(&up),
                black_box(&center),
                black_box(&down),
                OffsetRow::None,
                &mut out,
            );
        }
        black_box(acc);
        black_box(&mut out);
        batches.push(t.elapsed().as_nanos() as f64 / reps as f64);
    }
    median(&batches[1..])
}

/// Row kernels at the workload's row-length mix, and the computed
/// bytes per lattice update of the rungs that served it.
pub fn kernel_mix(
    tracer: &mut Tracer,
    metrics: &mut Metrics,
    jobs: &[ReplayJob<'_>],
    cfg: &ServiceConfig,
) {
    let mut by_len: std::collections::BTreeMap<usize, u64> = Default::default();
    let (mut lups, mut bytes) = (0u64, 0f64);
    for job in jobs {
        let p = &job.spec.problem;
        let work = job.interior() * job.steps as u64;
        *by_len.entry(p.cols()).or_insert(0) += work;
        // Streamed once per sweep: read cur, write next, read the
        // offset/history field when there is one; tiling fuses k sweeps
        // per pass.
        let arrays = 2.0 + f64::from(u8::from(p.offset.requires_buffer()));
        let fused = if job.served == Rung::Tiled {
            cfg.tile_depth.min(job.steps).max(1) as f64
        } else {
            1.0
        };
        lups += work;
        bytes += work as f64 * arrays * 4.0 / fused;
    }
    let ns_per_lup = tracer.span("kernels.row_mix", None, || {
        by_len
            .iter()
            .map(|(&len, &work)| row_ns(len) / (len - 2) as f64 * work as f64 / lups as f64)
            .sum::<f64>()
    });
    metrics.push("kernels.jacobi_row_ns_per_lup", ns_per_lup, "ns");
    metrics.push(
        "kernels.bytes_per_lup_computed",
        bytes / lups as f64,
        "bytes",
    );
}

/// The row-cost intercept, the in-cache compute ceiling, the streamed
/// copy bandwidth and the roofline fraction of the workload's achieved
/// MLUP/s against min(compute, bandwidth ÷ bytes/LUP).
pub fn kernel_ceilings(tracer: &mut Tracer, metrics: &mut Metrics, achieved_mlups: f64) {
    // Row time against interior length over 8…4096: the intercept is
    // the fixed cost every row pays.
    let pts: Vec<(f64, f64)> = tracer.span("kernels.row_sweep", None, || {
        [8usize, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096]
            .iter()
            .map(|&len| ((len - 2) as f64, row_ns(len)))
            .collect()
    });
    // Least squares on relative error (weights 1/t²), so the long rows'
    // absolute noise does not swamp the short rows that fix the
    // intercept.
    let w: Vec<f64> = pts.iter().map(|(_, y)| 1.0 / (y * y)).collect();
    let sw: f64 = w.iter().sum();
    let mx = pts.iter().zip(&w).map(|((x, _), w)| w * x).sum::<f64>() / sw;
    let my = pts.iter().zip(&w).map(|((_, y), w)| w * y).sum::<f64>() / sw;
    let sxy: f64 = pts
        .iter()
        .zip(&w)
        .map(|((x, y), w)| w * (x - mx) * (y - my))
        .sum();
    let sxx: f64 = pts
        .iter()
        .zip(&w)
        .map(|((x, _), w)| w * (x - mx) * (x - mx))
        .sum();
    let slope = sxy / sxx;
    metrics.push("kernels.row_fixed_ns", my - slope * mx, "ns");
    // L1-resident compute ceiling: a 1024-wide row (four rows, 16 KiB).
    let in_cache = tracer.span("kernels.in_cache", None, || 1022.0 / row_ns(1024) * 1e3);
    metrics.push("kernels.in_cache_mlups", in_cache, "MLUP/s");

    let llc = crate::common::llc_bytes();
    let words = (4 * llc).div_ceil(4);
    let gbs = tracer.span("memory.stream_copy", None, || {
        let src: Vec<f32> = (0..words).map(|i| i as f32).collect();
        let mut dst = vec![0.0f32; words];
        let mut rates = Vec::new();
        for _ in 0..6 {
            let t = Instant::now();
            dst.copy_from_slice(black_box(&src));
            black_box(&mut dst);
            rates.push(2.0 * (words * 4) as f64 / t.elapsed().as_secs_f64() / 1e9);
        }
        median(&rates[1..])
    });
    let array_mib = (words * 4) >> 20;
    eprintln!(
        "stream copy: two {array_mib} MiB arrays (4x the {} MiB last-level cache): {gbs:.2} GB/s",
        llc >> 20
    );
    metrics.push("memory.stream_copy_gbs", gbs, "GB/s");
    metrics.push("memory.stream_array_mib", array_mib as f64, "MiB");
    metrics.push("memory.llc_mib", (llc >> 20) as f64, "MiB");
    let bytes_per_lup = metrics
        .0
        .iter()
        .find(|m| m.name == "kernels.bytes_per_lup_computed")
        .map_or(f64::NAN, |m| m.value);
    let threads = crate::common::bench_threads() as f64;
    let attainable = (in_cache * threads).min(gbs * 1e3 / bytes_per_lup);
    metrics.push(
        "kernels.roofline_fraction",
        achieved_mlups / attainable,
        "fraction",
    );
}

/// Journal files under a (worker-pool or single-service) journal dir.
fn journal_dirs(root: &Path) -> Vec<PathBuf> {
    let mut dirs = Vec::new();
    if root.join(fdmax::durability::JOURNAL_FILE).exists() {
        dirs.push(root.to_path_buf());
    }
    let mut subs: Vec<PathBuf> = std::fs::read_dir(root)
        .map(|rd| rd.filter_map(Result::ok).map(|e| e.path()).collect())
        .unwrap_or_default();
    subs.sort();
    dirs.extend(
        subs.into_iter()
            .filter(|p| p.is_dir() && p.join(fdmax::durability::JOURNAL_FILE).exists()),
    );
    dirs
}

/// Decodes the workload's crashed journal, then re-appends every record
/// and re-writes every checkpoint into a fresh journal.
pub fn durability_probe(
    crash: &Crash,
    scratch: &ScratchDir,
    tracer: &mut Tracer,
    metrics: &mut Metrics,
    gate: &mut Gate,
) {
    let (mut records, mut checkpoints, mut submitted, mut total_bytes) = (0u64, 0u64, 0u64, 0u64);
    let mut decode_rates = Vec::new();
    for (w, dir) in journal_dirs(&crash.journal_dir).into_iter().enumerate() {
        let bytes = std::fs::read(dir.join(fdmax::durability::JOURNAL_FILE)).expect("journal");
        total_bytes += bytes.len() as u64;
        let mut decoded = None;
        for _ in 0..5 {
            let t = Instant::now();
            let c = tracer.span("durability.decode_journal", None, || decode_journal(&bytes));
            decode_rates.push(bytes.len() as f64 / t.elapsed().as_secs_f64() / 1e6);
            decoded = Some(c);
        }
        let contents = decoded.expect("decoded");
        let source = JobJournal::open(&DurabilityConfig::new(&dir));
        let target = scratch.fresh(&format!("append-replay{w}"));
        let mut journal = JobJournal::open(&DurabilityConfig::new(&target));
        for record in &contents.records {
            records += 1;
            tracer.span("durability.append", None, || journal.append(record));
            match record {
                JournalRecord::Submitted { .. } => submitted += 1,
                JournalRecord::CheckpointTaken {
                    id,
                    rung,
                    snapshot_ref,
                    ..
                } => {
                    checkpoints += 1;
                    let image = source.read_checkpoint(snapshot_ref);
                    gate.check(image.is_some(), || {
                        format!("checkpoint {snapshot_ref} unreadable")
                    });
                    if let Some(image) = image {
                        let name = tracer.span("durability.checkpoint", Some(*id), || {
                            journal.write_checkpoint(*id, *rung, &image)
                        });
                        gate.check(name.is_some(), || "checkpoint write failed".into());
                    }
                }
                _ => {}
            }
        }
        gate.check(!journal.degraded(), || "replay journal degraded".into());
    }
    gate.check(checkpoints > 0, || {
        "crashed journal holds no checkpoint".into()
    });
    metrics.push(
        "durability.append_us_p50",
        tracer.p50_us("durability.append"),
        "us",
    );
    metrics.push(
        "durability.checkpoint_us_p50",
        tracer.p50_us("durability.checkpoint"),
        "us",
    );
    metrics.push(
        "durability.decode_journal_mb_per_s",
        median(&decode_rates),
        "MB/s",
    );
    metrics.count("durability.records", records);
    metrics.count("durability.checkpoints", checkpoints);
    metrics.push(
        "durability.journal_bytes_per_job",
        total_bytes as f64 / submitted.max(1) as f64,
        "bytes",
    );
    metrics.count("durability.recovered_jobs", crash.summary.jobs_recovered);
    metrics.count(
        "durability.resumed_from_checkpoint",
        crash.summary.resumed_from_checkpoint,
    );
}
