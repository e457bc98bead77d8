//! Wall-clock benchmark of the FDMAX solve service.
//!
//! ```text
//! perfbench --workload <service_chaos|overload_frontend|sweep_large>
//!           --seed <n> --seconds <s> --trace <0|1>
//!           [--spans-out <file>] [--scratch <dir>]
//! ```
//!
//! `--scratch` is where the journal directory goes when `/dev/shm` is
//! not writable; `run.py` passes a directory next to the build output.
//!
//! Each workload runs in its own process. Set-up (config and lint,
//! building the service or front end, the journal directory, input
//! generation, warm-up) happens before the timed phase and is timed as
//! `setup_s`. The timed phase repeats identical *episodes* — one fresh
//! service or front end fed the seed's whole job list — until
//! `--seconds` of timed wall clock have accrued; anything between
//! episodes (building the next service, cloning inputs, cleaning the
//! journal directory) is outside the clock.
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` alternates
//! untraced and traced episodes, then replays the workload's jobs
//! through each layer's public functions and prints the per-layer
//! metrics. Both runs end with the correctness gate and print one JSON
//! line: `{"correct", "attempted", "failed", "metrics"}`.

mod chaos;
mod common;
mod inputs;
mod layers;
mod overload;
mod service_loop;
mod sweep;
mod trace;

use common::{median, Metrics, ScratchDir, Tally};
use fdmax::durability::RecoverySummary;
use fdmax::service::{ServiceReport, ServiceStats};
use service_loop::Gate;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use trace::Tracer;

/// Set-up repetitions whose median is `setup_s`.
const SETUP_REPEATS: usize = 5;
/// Fresh copies of the crashed journal recovered for `recover_ms`.
const RECOVER_SAMPLES: usize = 15;

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    spans_out: Option<PathBuf>,
    scratch_parent: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        spans_out: None,
        scratch_parent: std::env::temp_dir(),
    };
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => args.trace = value == "1",
            "--spans-out" => args.spans_out = Some(PathBuf::from(value)),
            "--scratch" => args.scratch_parent = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

/// One episode of a workload: the seed's whole job list through a fresh
/// service or front end.
#[derive(Debug, Default)]
pub struct Episode {
    /// Fold of every report digest, in job order.
    pub fold: u64,
    /// Served numeric reports with their input index (kept on request,
    /// for the oracle and the rung replay).
    pub kept: Vec<(usize, ServiceReport)>,
    /// Exact per-layer counts of this episode.
    pub counts: Metrics,
}

/// The crash pass: a killed run of the workload with a journal, and the
/// check that recovering it reproduces the uncrashed run.
#[derive(Debug)]
pub struct Crash {
    /// A pristine copy of the crashed journal directory.
    pub journal_dir: PathBuf,
    pub summary: RecoverySummary,
}

/// The phases every workload implements.
pub trait Workload {
    const NAME: &'static str;
    /// The highest percentile with at least ten samples beyond it.
    const TAIL_PCT: f64;
    type Prep;

    fn setup(seed: u64, scratch: &ScratchDir, tracer: &mut Tracer, gate: &mut Gate) -> Self::Prep;

    fn episode(
        prep: &Self::Prep,
        scratch: &ScratchDir,
        tracer: &mut Tracer,
        tally: &mut Tally,
        gate: &mut Gate,
        keep: bool,
    ) -> Episode;

    fn crash(prep: &Self::Prep, scratch: &ScratchDir, gate: &mut Gate) -> Crash;

    /// Times one recovery of the journal in `dir` (dropping the
    /// recovered service is not timed).
    fn recover(prep: &Self::Prep, dir: &Path) -> Duration;

    /// Per-layer probes on this workload's own inputs (traced run).
    fn probes(
        prep: &Self::Prep,
        first: &Episode,
        tracer: &mut Tracer,
        metrics: &mut Metrics,
        gate: &mut Gate,
    );
}

struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Metrics,
}

fn run_untraced<W: Workload>(args: &Args, start: Instant) -> Outcome {
    let scratch = ScratchDir::create(&args.scratch_parent, W::NAME);
    let mut gate = Gate::default();
    let mut tracer = Tracer::new(false);
    let mut setups = Vec::new();
    let mut prep = None;
    for _ in 0..SETUP_REPEATS {
        drop(prep.take());
        let t = if setups.is_empty() {
            start
        } else {
            Instant::now()
        };
        prep = Some(W::setup(args.seed, &scratch, &mut tracer, &mut gate));
        setups.push(t.elapsed().as_secs_f64());
    }
    let prep = prep.expect("set up at least once");

    let mut tally = Tally::default();
    let first = W::episode(&prep, &scratch, &mut tracer, &mut tally, &mut gate, true).fold;
    // The crashed journal is made once, outside the clock; its recover
    // samples are spread evenly over the rest of the run so that one
    // burst of host noise cannot move their median.
    let crash = W::crash(&prep, &scratch, &mut gate);
    let seconds = Duration::from_secs_f64(args.seconds);
    let mut recover_ms = Vec::with_capacity(RECOVER_SAMPLES);
    let mut episodes = 1u64;
    while tally.timed < seconds {
        let e = W::episode(&prep, &scratch, &mut tracer, &mut tally, &mut gate, false);
        gate.check(e.fold == first, || {
            format!("episode {episodes}: digest fold differs from episode 0")
        });
        episodes += 1;
        while recover_ms.len() < RECOVER_SAMPLES
            && tally.timed.as_secs_f64() * RECOVER_SAMPLES as f64
                >= seconds.as_secs_f64() * recover_ms.len() as f64
        {
            recover_ms.push(recover_sample::<W>(&prep, &crash, &scratch));
        }
    }
    while recover_ms.len() < RECOVER_SAMPLES {
        recover_ms.push(recover_sample::<W>(&prep, &crash, &scratch));
    }
    eprintln!(
        "{}: {episodes} episodes, {} jobs, {:.3} s timed, journal on {}",
        W::NAME,
        tally.terminal,
        tally.timed.as_secs_f64(),
        if scratch.on_tmpfs {
            "tmpfs"
        } else {
            "the checkout"
        }
    );

    let mut metrics = Metrics::default();
    tally.end_to_end(W::TAIL_PCT, &mut metrics);
    gate.check(tally.latencies.beyond(W::TAIL_PCT) >= 10, || {
        "fewer than ten latency samples beyond the tail percentile".into()
    });
    metrics.push("setup_s", median(&setups), "s");
    eprintln!("recover_ms samples: {recover_ms:?}");
    metrics.push("recover_ms", median(&recover_ms), "ms");
    Outcome {
        correct: gate.ok(),
        attempted: tally.offered,
        failed: tally.failed,
        metrics,
    }
}

fn run_traced<W: Workload>(args: &Args) -> Outcome {
    let scratch = ScratchDir::create(&args.scratch_parent, W::NAME);
    let mut gate = Gate::default();
    let mut tracer = Tracer::new(true);
    let prep = W::setup(args.seed, &scratch, &mut tracer, &mut gate);

    // Alternate untraced and traced episodes so host drift hits both
    // sides alike; every episode must fold to the same digest.
    let (mut plain, mut traced) = (Tally::default(), Tally::default());
    let mut first_traced: Option<Episode> = None;
    let mut untraced_fold = None;
    let budget = Duration::from_secs_f64(args.seconds / 2.0);
    let mut pairs = 0;
    while pairs < 2 || (plain.timed + traced.timed < budget && pairs < 40) {
        tracer.set_enabled(false);
        let u = W::episode(&prep, &scratch, &mut tracer, &mut plain, &mut gate, false);
        tracer.set_enabled(true);
        let mark = tracer.spans().len();
        tracer.begin("pass.episode", None);
        let t = W::episode(
            &prep,
            &scratch,
            &mut tracer,
            &mut traced,
            &mut gate,
            first_traced.is_none(),
        );
        tracer.end();
        if pairs >= 2 {
            // Later traced episodes still pay for recording (the
            // overhead is measured on all of them); only the first two
            // are kept for self time and export.
            tracer.truncate(mark);
        }
        let want = *untraced_fold.get_or_insert(u.fold);
        gate.check(u.fold == want && t.fold == want, || {
            "traced and untraced digest folds differ".into()
        });
        first_traced.get_or_insert(t);
        pairs += 1;
    }
    let first = first_traced.expect("ran at least one traced episode");

    let mut metrics = Metrics::default();
    metrics.0.extend(first.counts.0.iter().cloned());
    metrics.push(
        "setup.problem_build_us_p50",
        tracer.p50_us("setup.problem_build"),
        "us",
    );
    let layer_time = tracer.self_time_by_layer();
    let pass_ns: u64 = tracer
        .spans()
        .iter()
        .filter(|s| s.parent.is_none() && s.layer() == "pass")
        .map(trace::Span::dur_ns)
        .sum();
    let share = |layer: &str| layer_time.get(layer).copied().unwrap_or(0) as f64 / pass_ns as f64;
    metrics.push("trace.self_share.frontend", share("frontend"), "fraction");
    metrics.push("trace.self_share.service", share("service"), "fraction");
    metrics.push("trace.unattributed_fraction", share("pass"), "fraction");
    metrics.push(
        "trace.overhead_fraction",
        plain.jobs_per_s() / traced.jobs_per_s() - 1.0,
        "fraction",
    );
    let untraced_mlups = plain.lattice_updates as f64 / plain.timed.as_secs_f64() / 1e6;
    eprintln!(
        "{}: {pairs} untraced/traced episode pairs; {:.1} vs {:.1} jobs/s; self time by layer (ms): {:?}",
        W::NAME,
        plain.jobs_per_s(),
        traced.jobs_per_s(),
        layer_time
            .iter()
            .map(|(k, v)| (*k, *v as f64 / 1e6))
            .collect::<Vec<_>>()
    );

    // Layer probes and replays, each in its own spans (outside the
    // workload passes above).
    W::probes(&prep, &first, &mut tracer, &mut metrics, &mut gate);
    let crash = W::crash(&prep, &scratch, &mut gate);
    layers::durability_probe(&crash, &scratch, &mut tracer, &mut metrics, &mut gate);
    layers::kernel_ceilings(&mut tracer, &mut metrics, untraced_mlups);

    if let Some(path) = &args.spans_out {
        if let Err(e) = tracer.export(path) {
            eprintln!("could not write spans to {}: {e}", path.display());
        } else {
            eprintln!("wrote {} spans to {}", tracer.spans().len(), path.display());
        }
    }
    Outcome {
        correct: gate.ok(),
        attempted: traced.offered + plain.offered,
        failed: traced.failed + plain.failed,
        metrics,
    }
}

/// Recovers a fresh copy of the crashed journal: wall milliseconds.
fn recover_sample<W: Workload>(prep: &W::Prep, crash: &Crash, scratch: &ScratchDir) -> f64 {
    let copy = scratch.fresh("recover-sample");
    common::copy_dir(&crash.journal_dir, &copy);
    let ms = W::recover(prep, &copy).as_secs_f64() * 1e3;
    let _ = std::fs::remove_dir_all(&copy);
    ms
}

fn run<W: Workload>(args: &Args, start: Instant) -> Outcome {
    if args.trace {
        run_traced::<W>(args)
    } else {
        run_untraced::<W>(args, start)
    }
}

/// Exact service-layer counts of a set of reports.
pub fn service_counts(
    metrics: &mut Metrics,
    reports: &[&ServiceReport],
    stats: &ServiceStats,
    transitions: u64,
) {
    use fdmax::service::{AttemptDisposition, Rung};
    let mut served_by = [0u64; 7];
    let (mut ran, mut all_iters, mut useful_iters) = (0u64, 0u64, 0u64);
    for r in reports {
        if let Some(rung) = r.served_by() {
            served_by[rung.index()] += 1;
        }
        for a in &r.attempts {
            if matches!(
                a.disposition,
                AttemptDisposition::Served
                    | AttemptDisposition::Failed(_)
                    | AttemptDisposition::HedgeLost
            ) {
                ran += 1;
                all_iters += a.iterations;
            }
            if a.disposition == AttemptDisposition::Served {
                useful_iters += a.iterations;
            }
        }
    }
    let all_iters = all_iters + stats.hedge_wasted_iterations;
    let jobs = reports.len().max(1) as f64;
    metrics.push(
        "service.useful_iteration_fraction",
        useful_iters as f64 / all_iters.max(1) as f64,
        "fraction",
    );
    metrics.push("service.attempts_per_job", ran as f64 / jobs, "ratio");
    for rung in [
        Rung::Detailed,
        Rung::Reference,
        Rung::Parallel,
        Rung::Tiled,
        Rung::Software,
        Rung::Krylov,
        Rung::Estimate,
    ] {
        metrics.count(
            format!("service.served_by.{}", layers::rung_key(rung)),
            served_by[rung.index()],
        );
    }
    metrics.count("service.hedges_launched", stats.hedges_launched);
    metrics.count("service.hedge_wins", stats.hedge_wins);
    metrics.count(
        "service.hedge_wasted_iterations",
        stats.hedge_wasted_iterations,
    );
    metrics.count("service.breaker_transitions", transitions);
}

fn main() {
    let start = Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let outcome = match args.workload.as_str() {
        "service_chaos" => run::<chaos::Chaos>(&args, start),
        "overload_frontend" => run::<overload::Overload>(&args, start),
        "sweep_large" => run::<sweep::SweepLarge>(&args, start),
        other => {
            eprintln!("perfbench: unknown workload {other:?}");
            std::process::exit(2);
        }
    };
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.correct,
        outcome.attempted.max(1),
        outcome.failed,
        outcome.metrics.json()
    );
    if !outcome.correct {
        std::process::exit(1);
    }
}
