//! Differential validation of the elaboration-time lint (`fdmax::lint`)
//! against the cycle-accurate simulator.
//!
//! Two directions, both required for the lint to be trustworthy:
//!
//! 1. **Soundness of "clean"** — at least 100 randomly generated
//!    lint-clean deployments construct a [`DetailedSim`] successfully and
//!    run with **zero** FIFO backpressure/underflow events: the symbolic
//!    steady-state schedule the lint derived really is stall-free.
//! 2. **Witnesses for every code** — for each diagnostic `FDX0xx`, a
//!    configuration that trips it demonstrably misbehaves when the lint
//!    gate is bypassed (hardware-assert panic, constructor error, stalls,
//!    idle subarrays, or measurable DRAM residency), so no diagnostic is
//!    a false alarm by construction.

use detrng::DetRng;
use fdm::convergence::StopCondition;
use fdm::grid::Grid2D;
use fdm::pde::PdeKind;
use fdm::stencil::FivePointStencil;
use fdm::workload::benchmark_problem;
use fdmax::accelerator::HwUpdateMethod;
use fdmax::analysis::{analyze_plan, certify_band_plan, BandPlan, PrecisionClass, SolvePlan};
use fdmax::array::{OffsetSource, Subarray};
use fdmax::config::FdmaxConfig;
use fdmax::elastic::ElasticConfig;
use fdmax::lint::{
    lint, lint_frontend, lint_plan, lint_service, DiagCode, FrontendSpec, LintTarget, PlanSpec,
    ServiceSpec, Severity, ALL_CODES,
};
use fdmax::mapping::{col_batches, row_blocks, row_strips, ColBatch, RowRange};
use fdmax::pe::PeConfig;
use fdmax::resilience::FdmaxError;
use fdmax::sim::DetailedSim;

/// Draws a deployment from a space that mixes legal and illegal values
/// (zero knobs included) so the generator exercises both sides of the
/// lint gate.
fn random_target(rng: &mut DetRng) -> LintTarget {
    let mut config = FdmaxConfig::paper_default();
    config.pe_rows = rng.gen_range(0, 13);
    config.pe_cols = rng.gen_range(0, 13);
    config.fifo_depth = rng.gen_range(0, 65);
    config.buffer_banks = rng.gen_range(0, 65);
    config.buffer_depth = rng.gen_range(1, 65);
    let n = rng.gen_range(3, 41);
    let method = if rng.gen_bool(0.5) {
        HwUpdateMethod::Jacobi
    } else {
        HwUpdateMethod::Hybrid
    };
    LintTarget::planned(config, n, n, method)
}

/// Direction 1: the gate and the simulator agree, and lint-clean means
/// stall-free. ≥100 clean configs run with zero backpressure events;
/// every lint-rejected config is refused by the constructor.
#[test]
fn lint_clean_configs_run_without_backpressure() {
    let mut rng = DetRng::seed_from_u64(0xFD11);
    let mut clean_runs = 0usize;
    let mut rejected = 0usize;
    let mut attempts = 0usize;
    while clean_runs < 100 {
        attempts += 1;
        assert!(attempts < 5_000, "generator starved: {clean_runs} clean");
        let target = random_target(&mut rng);
        let report = lint(&target);
        let sp = benchmark_problem::<f32>(PdeKind::Laplace, target.rows, 0).unwrap();
        let built = DetailedSim::new(target.config, &sp, target.method);
        if report.has_errors() {
            assert!(
                built.is_err(),
                "lint rejected {:?} on {}x{} but the constructor accepted it:\n{report}",
                target.config,
                target.rows,
                target.cols
            );
            rejected += 1;
            continue;
        }
        let mut sim = built.unwrap_or_else(|e| {
            panic!(
                "lint-clean {:?} on {}x{} refused by the constructor: {e}",
                target.config, target.rows, target.cols
            )
        });
        sim.run(&StopCondition::fixed_steps(2));
        let c = sim.counters();
        assert_eq!(
            c.fifo_backpressure_stalls, 0,
            "lint-clean config backpressured: {:?} on {}x{}",
            target.config, target.rows, target.cols
        );
        assert!(c.fifo_push >= c.fifo_pop, "pops outran pushes (underflow)");
        clean_runs += 1;
    }
    assert!(rejected > 0, "the space never produced an illegal config");
}

/// Every diagnostic code has a generated witness somewhere in the random
/// space: the lint is reachable, not dead code.
#[test]
fn every_code_is_reachable_from_the_random_space() {
    let mut rng = DetRng::seed_from_u64(0xFD22);
    let mut seen = std::collections::BTreeSet::new();
    for _ in 0..2_000 {
        let mut target = random_target(&mut rng);
        // The planner never emits illegal elastic pairs or bad schedules,
        // so FDX002/3/4/10 need occasional hand-built inputs.
        if rng.gen_bool(0.3) {
            target.elastic = Some(ElasticConfig {
                subarrays: rng.gen_range(0, 5),
                width: rng.gen_range(0, 70),
            });
        }
        if rng.gen_bool(0.1) {
            target.rows = rng.gen_range(0, 3); // no interior -> FDX007
        }
        for d in lint(&target).diagnostics() {
            seen.insert(d.code);
        }
    }
    let plan = PlanSpec {
        width: 8,
        fifo_depth: 4,
        cols: 16,
        blocks: vec![RowRange {
            out_lo: 1,
            out_hi: 9,
        }],
        batches: vec![ColBatch { c0: 2, c1: 10 }, ColBatch { c0: 11, c1: 24 }],
    };
    for d in lint_plan(&plan).diagnostics() {
        seen.insert(d.code);
    }
    // FDX014 fires only at scales the random space (n < 41) never
    // reaches: a hand-built 8192^2 deployment stands witness.
    let huge = LintTarget::planned(
        FdmaxConfig::paper_default(),
        8192,
        8192,
        HwUpdateMethod::Jacobi,
    );
    for d in lint(&huge).diagnostics() {
        seen.insert(d.code);
    }
    // The service lint draws from its own input space.
    for _ in 0..200 {
        let spec = ServiceSpec {
            queue_capacity: rng.gen_range(1, 33),
            max_job_iterations: rng.gen_range(1, 2_000),
            deadline_iterations: rng.gen_range(1, 20_000) as u64,
            checkpoint_every: if rng.gen_bool(0.5) {
                Some(rng.gen_range(0, 30_000) as u64)
            } else {
                None
            },
            journal_dir: None,
        };
        for d in lint_service(&spec).diagnostics() {
            seen.insert(d.code);
        }
    }
    // The front-end lint (FDX020/FDX021) draws from its own sizing
    // space.
    for _ in 0..200 {
        let tenants = rng.gen_range(0, 5);
        let spec = FrontendSpec {
            workers: rng.gen_range(1, 5),
            tenant_in_flight_quotas: (0..tenants).map(|_| rng.gen_range(1, 5)).collect(),
            hedge_enabled: rng.gen_bool(0.5),
            entry_rung_index: rng.gen_range(0, 7),
        };
        for d in lint_frontend(&spec).diagnostics() {
            seen.insert(d.code);
        }
    }
    // The solve-plan analyzer (FDX015/016/017/019) draws from its own
    // job-class space.
    for _ in 0..400 {
        let plan = SolvePlan {
            rows: rng.gen_range(3, 130),
            cols: rng.gen_range(3, 130),
            method: if rng.gen_bool(0.5) {
                HwUpdateMethod::Jacobi
            } else {
                HwUpdateMethod::Hybrid
            },
            tolerance: if rng.gen_bool(0.7) {
                Some(10f64.powi(-(rng.gen_range(1, 16) as i32)))
            } else {
                None
            },
            requested_iterations: rng.gen_range(1, 2_000),
            precision: match rng.gen_range(0, 3) {
                0 => PrecisionClass::F16,
                1 => PrecisionClass::F32,
                _ => PrecisionClass::F64,
            },
            steady_state: rng.gen_bool(0.6),
            scale: 1.0,
            parallel_threads: rng.gen_range(1, 9),
            tile_depth: rng.gen_range(1, 40),
        };
        let spec = ServiceSpec {
            queue_capacity: rng.gen_range(1, 33),
            max_job_iterations: rng.gen_range(1, 2_000),
            deadline_iterations: rng.gen_range(1, 20_000) as u64,
            checkpoint_every: if rng.gen_bool(0.5) {
                Some(rng.gen_range(0, 30_000) as u64)
            } else {
                None
            },
            journal_dir: None,
        };
        let analysis = analyze_plan(&plan, &FdmaxConfig::paper_default(), Some(&spec));
        for d in analysis.into_lint().diagnostics() {
            seen.insert(d.code);
        }
    }
    // FDX018 fires only for band plans no planner derives: a hand-built
    // aliasing plan stands witness.
    for d in certify_band_plan(&BandPlan {
        rows: 12,
        cols: 12,
        bands: vec![1..7, 5..11],
    })
    .diagnostics()
    {
        seen.insert(d.code);
    }
    for code in ALL_CODES {
        assert!(seen.contains(&code), "{code} has no witness in the space");
    }
}

fn laplace_chain(width: usize, fifo_depth: usize) -> Subarray {
    Subarray::new(
        width,
        PeConfig::new(FivePointStencil::new(0.25f32, 0.25, 0.0), false, false),
        fifo_depth,
    )
}

fn grids(n: usize) -> (Grid2D<f32>, Grid2D<f32>) {
    (Grid2D::zeros(n, n), Grid2D::zeros(n, n))
}

fn panics<F: FnOnce() + std::panic::UnwindSafe>(f: F) -> bool {
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {})); // keep the expected panic quiet
    let r = std::panic::catch_unwind(f).is_err();
    std::panic::set_hook(prev);
    r
}

/// Direction 2, FDX001: a zero structural knob is refused by the gate,
/// and the bare hardware model asserts if the gate is bypassed.
#[test]
fn fdx001_witness_zero_parameter() {
    let mut cfg = FdmaxConfig::paper_default();
    cfg.fifo_depth = 0;
    let report = lint(&LintTarget::planned(cfg, 20, 20, HwUpdateMethod::Jacobi));
    assert!(report.has(DiagCode::ZeroParameter) && report.has_errors());
    let sp = benchmark_problem::<f32>(PdeKind::Laplace, 20, 0).unwrap();
    assert!(matches!(
        DetailedSim::new(cfg, &sp, HwUpdateMethod::Jacobi),
        Err(FdmaxError::Config(_))
    ));
    // Bypassing the gate: the subarray itself refuses to exist.
    assert!(panics(|| {
        laplace_chain(8, 0);
    }));
}

/// FDX002: an elastic decomposition the physical array cannot host. The
/// planner never proposes it, and the explicit-elastic constructor
/// refuses it.
#[test]
fn fdx002_witness_elastic_mismatch() {
    let cfg = FdmaxConfig::paper_default(); // 64 PEs
    let bad = ElasticConfig {
        subarrays: 3,
        width: 21, // 63 PEs, and 8 rows don't split into 3 chains
    };
    let report = lint(&LintTarget {
        config: cfg,
        elastic: Some(bad),
        rows: 20,
        cols: 20,
        method: HwUpdateMethod::Jacobi,
    });
    assert!(report.has(DiagCode::ElasticMismatch) && report.has_errors());
    assert!(
        !ElasticConfig::options(&cfg).contains(&bad),
        "the planner itself would never emit this decomposition"
    );
    let sp = benchmark_problem::<f32>(PdeKind::Laplace, 20, 0).unwrap();
    assert!(matches!(
        DetailedSim::with_elastic(cfg, &sp, HwUpdateMethod::Jacobi, bad),
        Err(FdmaxError::ElasticMismatch { .. })
    ));
}

/// FDX003: a row block taller than the sub-FIFO. The chain's push/pop
/// accounting cannot work, and the hardware assert fires on entry.
#[test]
fn fdx003_witness_fifo_depth_exceeded() {
    let plan = PlanSpec {
        width: 8,
        fifo_depth: 4,
        cols: 16,
        blocks: vec![RowRange {
            out_lo: 1,
            out_hi: 9,
        }], // 8 rows, 4-deep FIFO
        batches: col_batches(16, 8),
    };
    let report = lint_plan(&plan);
    assert!(report.has(DiagCode::FifoDepthExceeded));
    assert!(panics(|| {
        let mut sa = laplace_chain(8, 4);
        let (cur, mut next) = grids(16);
        let mut counters = Default::default();
        sa.run_block(
            plan.blocks[0],
            &plan.batches,
            &cur,
            &mut next,
            OffsetSource::None,
            &mut counters,
        );
    }));
}

/// FDX004: a batch wider than the chain (no PE, no `HaloAdder` input for
/// the overflow columns) asserts in hardware; a gap between batches
/// silently never computes the skipped columns.
#[test]
fn fdx004_witness_halo_seam_uncovered() {
    let wide = PlanSpec {
        width: 4,
        fifo_depth: 16,
        cols: 12,
        blocks: vec![RowRange {
            out_lo: 1,
            out_hi: 5,
        }],
        batches: vec![ColBatch { c0: 0, c1: 8 }], // 8 columns on a 4-PE chain
    };
    assert!(lint_plan(&wide).has(DiagCode::HaloSeamUncovered));
    assert!(panics(|| {
        let mut sa = laplace_chain(4, 16);
        let (cur, mut next) = grids(12);
        let mut counters = Default::default();
        sa.run_block(
            wide.blocks[0],
            &wide.batches,
            &cur,
            &mut next,
            OffsetSource::None,
            &mut counters,
        );
    }));

    // The gap variant: columns in the hole keep their stale value.
    let gap = PlanSpec {
        width: 4,
        fifo_depth: 16,
        cols: 12,
        blocks: vec![RowRange {
            out_lo: 1,
            out_hi: 5,
        }],
        batches: vec![ColBatch { c0: 0, c1: 4 }, ColBatch { c0: 8, c1: 12 }],
    };
    assert!(lint_plan(&gap).has(DiagCode::HaloSeamUncovered));
}

/// FDX005: more concurrent accesses than banks. The stall the lint
/// predicts shows up as real `stall_cycles` in the simulator, and
/// disappears when the banks are provisioned.
#[test]
fn fdx005_witness_bank_oversubscription() {
    let sp = benchmark_problem::<f32>(PdeKind::Laplace, 24, 0).unwrap();
    let starved = FdmaxConfig::paper_default(); // 64 PEs, 32 banks
    let report = lint(&LintTarget::planned(
        starved,
        24,
        24,
        HwUpdateMethod::Jacobi,
    ));
    let diag = report
        .diagnostics()
        .iter()
        .find(|d| d.code == DiagCode::BankOversubscribed)
        .expect("paper default warns by design");
    assert_eq!(diag.severity(), Severity::Warn, "a trade-off, not an error");

    let mut sim = DetailedSim::new(starved, &sp, HwUpdateMethod::Jacobi).unwrap();
    sim.run(&StopCondition::fixed_steps(1));
    assert!(sim.counters().stall_cycles > 0, "predicted stall is real");

    let mut banked = starved;
    banked.buffer_banks = 64;
    let clean = lint(&LintTarget::planned(banked, 24, 24, HwUpdateMethod::Jacobi));
    assert!(!clean.has(DiagCode::BankOversubscribed));
    let mut sim = DetailedSim::new(banked, &sp, HwUpdateMethod::Jacobi).unwrap();
    sim.run(&StopCondition::fixed_steps(1));
    assert_eq!(sim.counters().stall_cycles, 0, "and it is gone when banked");
}

/// FDX006: more subarrays than interior rows — the surplus chains get no
/// strip, i.e. silicon that can never be busy.
#[test]
fn fdx006_witness_dead_subarrays() {
    let cfg = FdmaxConfig::paper_default();
    let target = LintTarget {
        config: cfg,
        elastic: Some(ElasticConfig {
            subarrays: 8,
            width: 8,
        }),
        rows: 6, // 4 interior rows for 8 chains
        cols: 20,
        method: HwUpdateMethod::Jacobi,
    };
    assert!(lint(&target).has(DiagCode::DeadSubarrays));
    let strips = row_strips(6, 8);
    assert_eq!(strips.len(), 4, "4 of the 8 chains have no work at all");
}

/// FDX007: no interior. The mapping itself refuses the grid, so any
/// bypass dies immediately.
#[test]
fn fdx007_witness_grid_too_small() {
    let cfg = FdmaxConfig::paper_default();
    let report = lint(&LintTarget::planned(cfg, 2, 40, HwUpdateMethod::Jacobi));
    assert!(report.has(DiagCode::GridTooSmall) && report.has_errors());
    assert!(matches!(
        ElasticConfig::try_plan(&cfg, 2, 40),
        Err(FdmaxError::GridTooSmall { .. })
    ));
    assert!(panics(|| {
        row_strips(2, 1);
    }));
}

/// FDX008 (info): Hybrid falls back to Jacobi operands at seams; the
/// seam count follows straight from the mapping, and a seam-free
/// monolithic deployment is not flagged.
#[test]
fn fdx008_witness_hybrid_seams() {
    let cfg = FdmaxConfig::paper_default();
    let seamed = LintTarget::planned(cfg, 200, 200, HwUpdateMethod::Hybrid);
    assert!(lint(&seamed).has(DiagCode::HybridSeamFallback));
    // 198 interior rows on depth-64 sub-FIFOs: multiple blocks per strip.
    let e = ElasticConfig::plan(&cfg, 200, 200);
    let blocks: usize = row_strips(200, e.subarrays)
        .into_iter()
        .map(|s| row_blocks(s, e.sub_fifo_depth(&cfg)).len())
        .sum();
    assert!(
        blocks > 1,
        "the seams the lint reports exist in the mapping"
    );

    let jacobi = LintTarget::planned(cfg, 200, 200, HwUpdateMethod::Jacobi);
    assert!(!lint(&jacobi).has(DiagCode::HybridSeamFallback));
}

/// FDX009 (info): a grid that outgrows the on-chip buffers streams DRAM
/// every iteration — visible as nonzero DRAM traffic in the simulator.
#[test]
fn fdx009_witness_off_chip_resident() {
    let mut cfg = FdmaxConfig::paper_default();
    cfg.buffer_banks = 4;
    cfg.buffer_depth = 4; // 16-element buffers vs a 400-element grid
    let target = LintTarget::planned(cfg, 20, 20, HwUpdateMethod::Jacobi);
    assert!(lint(&target).has(DiagCode::OffChipResident));
    let sp = benchmark_problem::<f32>(PdeKind::Laplace, 20, 0).unwrap();
    let mut sim = DetailedSim::new(cfg, &sp, HwUpdateMethod::Jacobi).unwrap();
    sim.run(&StopCondition::fixed_steps(1));
    assert!(sim.counters().dram_read > 0, "the grid really streams");
}

/// FDX011: a service whose queue admits more iterations than the
/// deadline budget covers really does starve its tail job — admitted on
/// time, it reaches the executor with an exhausted budget and only the
/// degraded analytic rung serves. The compliant sizing runs the same
/// submission burst entirely on the full simulator.
#[test]
fn fdx011_witness_service_overcommit() {
    use fdmax::service::{JobSpec, Rung, ServiceConfig, SolveService};

    let mut overcommitted = ServiceConfig::new(FdmaxConfig::paper_default());
    overcommitted.queue_capacity = 3;
    overcommitted.max_job_iterations = 30;
    overcommitted.deadline_iterations = 45; // < 3 x 30
    let report = overcommitted.lint();
    let diag = report
        .diagnostics()
        .iter()
        .find(|d| d.code == DiagCode::ServiceOvercommitted)
        .expect("the sizing violates the invariant");
    assert_eq!(diag.severity(), Severity::Warn, "a hazard, not an error");
    assert_eq!(
        fdmax::lint::lint_service(&ServiceSpec {
            queue_capacity: 3,
            max_job_iterations: 30,
            deadline_iterations: 45,
            checkpoint_every: None,
            journal_dir: None,
        })
        .diagnostics()
        .len(),
        1,
        "the standalone entry point agrees"
    );

    let burst = |cfg: ServiceConfig| {
        let mut svc = SolveService::new(cfg);
        let sp = benchmark_problem::<f32>(PdeKind::Laplace, 16, 30).unwrap();
        for _ in 0..3 {
            let _ = svc
                .submit(JobSpec::new(
                    sp.clone(),
                    HwUpdateMethod::Jacobi,
                    StopCondition::fixed_steps(30),
                ))
                .unwrap();
        }
        svc.drain()
    };

    // The flagged sizing: the last job of a full-queue burst burns its
    // whole 45-iteration budget waiting behind 2 x 30 iterations of
    // work and degrades — exactly the hazard FDX011 names.
    let reports = burst(overcommitted);
    assert_eq!(reports[0].served_by(), Some(Rung::Detailed));
    let tail = reports.last().unwrap();
    assert_eq!(tail.served_by(), Some(Rung::Estimate), "tail job starved");
    assert!(tail.degraded());
    assert!(tail.deadline_met(), "degraded, but still on time");

    // The same burst under a compliant sizing is all full-fidelity.
    let mut compliant = ServiceConfig::new(FdmaxConfig::paper_default());
    compliant.queue_capacity = 3;
    compliant.max_job_iterations = 30;
    compliant.deadline_iterations = 90; // = 3 x 30
    assert!(compliant.lint().is_clean());
    let reports = burst(compliant);
    assert!(
        reports
            .iter()
            .all(|r| r.served_by() == Some(Rung::Detailed)),
        "with the invariant honoured no job degrades"
    );
}

/// FDX012 (warn): strips with fewer than 3 output rows stream mostly
/// halo. Each strip reads `height + 2` rows per iteration, so the
/// predicted overhead is real, measurable SRAM traffic: the thin-strip
/// decomposition reads strictly more on-chip memory than a monolithic
/// chain solving the same grid, while producing the same field.
#[test]
fn fdx012_witness_halo_dominated_strips() {
    let cfg = FdmaxConfig::paper_default(); // 64 PEs
    let thin = ElasticConfig {
        subarrays: 8,
        width: 8,
    };
    let mono = ElasticConfig {
        subarrays: 1,
        width: 64,
    };
    let rows = 10; // 8 interior rows: 8 strips of a single output row
    let target = LintTarget {
        config: cfg,
        elastic: Some(thin),
        rows,
        cols: rows,
        method: HwUpdateMethod::Jacobi,
    };
    let report = lint(&target);
    let diag = report
        .diagnostics()
        .iter()
        .find(|d| d.code == DiagCode::HaloDominatedStrips)
        .expect("single-row strips are the textbook FDX012 case");
    assert_eq!(diag.severity(), Severity::Warn, "a trade-off, not an error");
    let strips = row_strips(rows, thin.subarrays);
    assert!(
        strips.len() > 1 && strips.iter().all(|s| s.height() == 1),
        "every strip really is one output row between two halo rows"
    );

    // The monolithic deployment of the same silicon is not flagged.
    let coarse = LintTarget {
        elastic: Some(mono),
        ..target
    };
    assert!(!lint(&coarse).has(DiagCode::HaloDominatedStrips));

    // Differential: same problem, same answer, strictly more SRAM reads
    // for the thin strips — the halo overhead the lint predicts.
    let sp = benchmark_problem::<f32>(PdeKind::Laplace, rows, 0).unwrap();
    let run = |e: ElasticConfig| {
        let mut sim = DetailedSim::with_elastic(cfg, &sp, HwUpdateMethod::Jacobi, e).unwrap();
        sim.run(&StopCondition::fixed_steps(2));
        sim
    };
    let thin_sim = run(thin);
    let mono_sim = run(mono);
    assert_eq!(
        thin_sim.solution(),
        mono_sim.solution(),
        "the decomposition changes cost, never the answer"
    );
    assert!(
        thin_sim.counters().sram_read > mono_sim.counters().sram_read,
        "thin strips re-read halo rows: {} SRAM reads vs {} monolithic",
        thin_sim.counters().sram_read,
        mono_sim.counters().sram_read
    );
}

/// FDX010: a schedule whose first batch starts mid-grid pops seam FIFOs
/// nothing filled for those columns. Interlocked RTL deadlocks on the
/// empty FIFO; the simulator's queue model instead hands the first PE a
/// partial produced by the *same* batch's last PE one cycle earlier —
/// observable as corrupted outputs and uncomputed columns.
#[test]
fn fdx010_witness_schedule_underflow() {
    let plan = PlanSpec {
        width: 4,
        fifo_depth: 16,
        cols: 12,
        blocks: vec![RowRange {
            out_lo: 1,
            out_hi: 5,
        }],
        batches: vec![ColBatch { c0: 4, c1: 8 }, ColBatch { c0: 8, c1: 12 }],
    };
    assert!(lint_plan(&plan).has(DiagCode::ScheduleUnderflow));

    let n = 12usize;
    let mut cur = Grid2D::<f32>::zeros(n, n);
    for i in 0..n {
        for j in 0..n {
            cur[(i, j)] = (i * 13 + j) as f32 * 0.01;
        }
    }
    let run = |batches: &[ColBatch]| {
        let mut sa = laplace_chain(4, 16);
        let mut next = Grid2D::<f32>::zeros(n, n);
        let mut counters = Default::default();
        sa.run_block(
            plan.blocks[0],
            batches,
            &cur,
            &mut next,
            OffsetSource::None,
            &mut counters,
        );
        next
    };
    let good = run(&col_batches(n, 4));
    let bad = run(&plan.batches);
    assert!(
        bad[(2, 1)] == 0.0 && bad[(2, 2)] == 0.0,
        "columns before the first batch are never computed"
    );
    assert!(
        good[(2, 3)] != bad[(2, 3)] || good[(2, 4)] != bad[(2, 4)],
        "the first batch's seam columns read operands nothing produced \
         for them: the outputs are corrupt"
    );

    // The empty schedule is the degenerate deadlock: nothing ever runs.
    let empty = PlanSpec {
        batches: Vec::new(),
        ..plan.clone()
    };
    assert!(lint_plan(&empty).has(DiagCode::ScheduleUnderflow));
    let idle = run(&[]);
    assert!(
        (0..n).all(|j| idle[(2, j)] == 0.0),
        "no batches, no progress: the solve can never converge"
    );
}

/// FDX014 (warn): the footprint the lint holds against the DRAM budget
/// is the footprint assembly actually allocates (differential at small
/// sizes), an 8192^2 system really exceeds the modeled 4 GiB, and the
/// suggested fix is real: the matrix-free operator path reaches the
/// assembled oracle's answer without building a matrix at all.
#[test]
fn fdx014_witness_krylov_footprint() {
    use fdm::solver::krylov::{conjugate_gradient, matrix_free_cg};
    use fdm::sparse::{csr_footprint_bytes, StencilSystem};

    // The closed-form footprint is the real assembly footprint, byte for
    // byte: nnz entries at 16 B plus the row-pointer array.
    for n in [8usize, 13, 24] {
        let sp = benchmark_problem::<f64>(PdeKind::Poisson, n, 0).unwrap();
        let sys = StencilSystem::assemble(&sp).unwrap();
        let actual = sys.matrix.nnz() as u64 * 16 + (sys.matrix.rows() as u64 + 1) * 8;
        assert_eq!(csr_footprint_bytes(n, n), actual);
    }

    // The 8192^2 deployment trips the lint at Warn against the 4 GiB
    // capacity model...
    let cfg = FdmaxConfig::paper_default();
    let big = LintTarget::planned(cfg, 8192, 8192, HwUpdateMethod::Jacobi);
    let report = lint(&big);
    let diag = report
        .diagnostics()
        .iter()
        .find(|d| d.code == DiagCode::KrylovFootprintExceedsDram)
        .expect("an 8192^2 CSR system cannot be DRAM-resident");
    assert_eq!(diag.severity(), Severity::Warn, "avoidable, not fatal");
    assert!(csr_footprint_bytes(8192, 8192) > cfg.dram().capacity_bytes());

    // ...while the random space (n < 41) sits four decimal orders below
    // the budget, so the soundness direction never sees it.
    assert!(csr_footprint_bytes(40, 40) * 10_000 < cfg.dram().capacity_bytes());

    // The suggested fix holds: matrix-free CG solves the same problem to
    // the assembled oracle's answer with no CSR matrix anywhere.
    let sp = benchmark_problem::<f64>(PdeKind::Poisson, 24, 0).unwrap();
    let sys = StencilSystem::assemble(&sp).unwrap();
    let oracle = conjugate_gradient(&sys.matrix, &sys.rhs, 1e-12, 10_000);
    let (_, free) = matrix_free_cg(&sp, 1e-12, 10_000);
    assert!(oracle.converged && free.converged);
    let worst = oracle
        .solution
        .iter()
        .zip(&free.solution)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f64, f64::max);
    assert!(worst < 1e-9, "paths disagree by {worst}");
}

/// FDX013: both durability hazards are real, not stylistic.
///
/// * **Warn (cadence)** — a `checkpoint_every` at or beyond the deadline
///   budget can never fire inside any job: the journal of a completed
///   solve holds no `CheckpointTaken` record, so a crash would replay
///   the job from iteration zero. Lowering the cadence below the budget
///   makes checkpoints appear.
/// * **Error (shared dir)** — two services pointed at the same
///   `journal_dir` append to the same write-ahead log. Their records
///   interleave, and the shared journal ends up carrying two *different*
///   jobs under the same job id — the identity corruption recovery
///   cannot untangle.
#[test]
fn fdx013_witness_durability_misconfigured() {
    use fdmax::durability::{read_journal, DurabilityConfig, JournalRecord};
    use fdmax::lint::lint_service_fleet;
    use fdmax::resilience::ResiliencePolicy;
    use fdmax::service::{JobSpec, ServiceConfig, SolveService};
    use memmodel::faults::FaultCampaign;

    let tmpdir = |tag: &str| {
        let dir = std::env::temp_dir().join(format!("fdmax-fdx013-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    };
    // Dense parity-detected flips with a zero retry budget: the detailed
    // rung fails deterministically, so the checkpoint-taking reference
    // rung serves every job.
    let base = |dur: DurabilityConfig| {
        let mut cfg = ServiceConfig::new(FdmaxConfig::paper_default());
        cfg.campaign = FaultCampaign {
            sram_flips_per_iteration: 5.0,
            dma_failure_prob: 0.0,
            ..FaultCampaign::harsh(0x0B5E55)
        };
        cfg.policy = ResiliencePolicy {
            max_retries: 0,
            ..ResiliencePolicy::default()
        };
        cfg.with_durability(dur)
    };
    let job = |kind: PdeKind| {
        JobSpec::new(
            benchmark_problem::<f32>(kind, 12, 30).unwrap(),
            HwUpdateMethod::Jacobi,
            StopCondition::fixed_steps(30),
        )
    };
    let checkpoints = |dir: &std::path::Path| {
        read_journal(dir)
            .unwrap()
            .records
            .iter()
            .filter(|r| matches!(r, JournalRecord::CheckpointTaken { .. }))
            .count()
    };

    // Cadence at the deadline budget: flagged, and indeed no checkpoint
    // is ever persisted for a full 30-iteration solve.
    let dir = tmpdir("cadence");
    let flagged = base(DurabilityConfig::new(&dir).with_checkpoint_every(20_000));
    let diag_report = flagged.lint();
    let diag = diag_report
        .diagnostics()
        .iter()
        .find(|d| d.code == DiagCode::DurabilityMisconfigured)
        .expect("an unreachable cadence trips FDX013");
    assert_eq!(diag.severity(), Severity::Warn, "a hazard, not an error");
    let mut svc = SolveService::new(flagged);
    let _ = svc.submit(job(PdeKind::Laplace)).unwrap();
    svc.drain();
    assert_eq!(checkpoints(&dir), 0, "the cadence never fires");
    std::fs::remove_dir_all(&dir).unwrap();

    // The compliant cadence on the same workload really checkpoints.
    let dir = tmpdir("compliant");
    let compliant = base(DurabilityConfig::new(&dir).with_checkpoint_every(8));
    assert!(!compliant.lint().has(DiagCode::DurabilityMisconfigured));
    let mut svc = SolveService::new(compliant);
    let _ = svc.submit(job(PdeKind::Laplace)).unwrap();
    svc.drain();
    assert!(checkpoints(&dir) > 0, "below the budget the cadence fires");
    std::fs::remove_dir_all(&dir).unwrap();

    // Shared journal_dir: the fleet lint refuses it outright...
    let dir = tmpdir("shared");
    let a = base(DurabilityConfig::new(&dir).with_checkpoint_every(8));
    let b = base(DurabilityConfig::new(&dir).with_checkpoint_every(8));
    let fleet = lint_service_fleet(&[a.lint_spec(), b.lint_spec()]);
    assert!(
        fleet.has(DiagCode::DurabilityMisconfigured) && fleet.has_errors(),
        "a shared journal dir is an Error, not a warning"
    );

    // ...and for cause: two services drain two different jobs into the
    // same log, which then claims both under the same job id.
    let mut svc_a = SolveService::new(a);
    let mut svc_b = SolveService::new(b);
    let _ = svc_a.submit(job(PdeKind::Laplace)).unwrap();
    let _ = svc_b.submit(job(PdeKind::Poisson)).unwrap();
    svc_a.drain();
    svc_b.drain();
    let specs: Vec<_> = read_journal(&dir)
        .unwrap()
        .records
        .into_iter()
        .filter_map(|r| match r {
            JournalRecord::Submitted { id, spec, .. } => Some((id, spec)),
            _ => None,
        })
        .collect();
    assert_eq!(specs.len(), 2, "both services journalled an admission");
    assert_eq!(specs[0].0, specs[1].0, "the same job id twice");
    assert_ne!(specs[0].1, specs[1].1, "...naming two different jobs");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// FDX015: a tolerance job whose sweep *lower* bound (and Krylov lower
/// bound) exceed the deadline budget is rejected at admission — and for
/// cause: with the gate bypassed the job burns its whole budget without
/// converging and only the analytic rung serves.
#[test]
fn fdx015_witness_convergence_budget_infeasible() {
    use fdmax::service::{JobSpec, Rung, ServiceConfig, SolveService, SubmitError};

    let job = || {
        JobSpec::new(
            benchmark_problem::<f32>(PdeKind::Laplace, 96, 0).unwrap(),
            HwUpdateMethod::Jacobi,
            StopCondition::tolerance(1e-8, 100_000),
        )
    };
    let starved = || {
        let mut cfg = ServiceConfig::new(FdmaxConfig::paper_default());
        cfg.deadline_iterations = 10; // vs a >= 23-iteration Krylov floor
        cfg.max_job_iterations = 10_000;
        cfg
    };

    // The static side: the analyzer proves no rung fits and the service
    // refuses the job at the door.
    let mut svc = SolveService::new(starved());
    let err = svc.submit(job()).unwrap_err();
    let SubmitError::Rejected(FdmaxError::Lint { report }) = err else {
        panic!("expected a lint rejection, got {err}");
    };
    let diag = report
        .diagnostics()
        .iter()
        .find(|d| d.code == DiagCode::ConvergenceBudgetInfeasible)
        .expect("a 10-iteration budget cannot host a 96x96 1e-8 solve");
    assert_eq!(diag.severity(), Severity::Error, "no rung fits: an error");
    assert_eq!(svc.stats().refused, 1);
    assert_eq!(svc.stats().submitted, 0);

    // The dynamic side: bypassing the gate, the job reaches the executor,
    // exhausts the budget on the first rung, and degrades to the analytic
    // estimate without ever converging — exactly the outcome the
    // analyzer priced in.
    let mut cfg = starved();
    cfg.admission_analysis = false; // bypass the gate to observe the miss
    let mut svc = SolveService::new(cfg);
    let _ = svc.submit(job()).unwrap();
    let reports = svc.drain();
    let r = reports.last().unwrap();
    assert_eq!(
        r.served_by(),
        Some(Rung::Estimate),
        "every real rung starved"
    );
    assert!(!r.converged, "the tolerance was never reached");
    assert!(r.degraded());

    // A generous deadline admits the identical job.
    let mut roomy = starved();
    roomy.deadline_iterations = 100_000;
    let mut svc = SolveService::new(roomy);
    assert!(
        svc.submit(job()).is_ok(),
        "the budget was the only objection"
    );
}

/// FDX016: a tolerance below the f32 update-norm floor is rejected
/// statically; bypassing the gate, every f32 sweep rung stalls under the
/// watchdog at the plateau the floor predicts — the solve can only end
/// by watchdog, never by convergence on those rungs.
#[test]
fn fdx016_witness_precision_floor_violated() {
    use fdmax::resilience::ResiliencePolicy;
    use fdmax::service::{
        AttemptDisposition, JobSpec, Rung, ServiceConfig, SolveService, SubmitError,
    };
    use memmodel::faults::FaultCampaign;

    // 48x48 matters: smaller grids land on an *exact* f32 fixed point
    // (update norm identically zero), while 46^2 interior cells plateau
    // at a nonzero cycle a few orders above 1e-12 — the regime the floor
    // model prices.
    let job = |tol: f64| {
        JobSpec::new(
            benchmark_problem::<f32>(PdeKind::Laplace, 48, 0).unwrap(),
            HwUpdateMethod::Hybrid,
            StopCondition::tolerance(tol, 8_000),
        )
    };
    let base = || {
        let mut cfg = ServiceConfig::new(FdmaxConfig::paper_default());
        cfg.max_job_iterations = 8_000;
        cfg.deadline_iterations = 100_000;
        cfg.stall_window = 40;
        cfg.stall_min_decay = 0.9;
        cfg
    };

    // Statically: 1e-12 sits far below the f32 floor on a 48x48 grid.
    let mut svc = SolveService::new(base());
    let err = svc.submit(job(1e-12)).unwrap_err();
    let SubmitError::Rejected(FdmaxError::Lint { report }) = err else {
        panic!("expected a lint rejection, got {err}");
    };
    assert!(
        report.has(DiagCode::PrecisionFloorViolated) && report.has_errors(),
        "an unattainable tolerance is an error:\n{report}"
    );
    assert_eq!(svc.stats().refused, 1);

    // Dynamically: with the gate bypassed (and the detailed rung failed
    // fast by a zero-retry fault campaign so the run stays cheap), the
    // f32 sweep chain hits the plateau and the stall watchdog — not the
    // tolerance — ends every sweep attempt, so if anything serves the
    // job it is a rung past the sweeps (the f64 Krylov solver or the
    // analytic estimate).
    let mut cfg = base();
    cfg.admission_analysis = false; // bypass the gate to observe the stall
    cfg.campaign = FaultCampaign {
        sram_flips_per_iteration: 5.0,
        dma_failure_prob: 0.0,
        ..FaultCampaign::harsh(0x0B5E55)
    };
    cfg.policy = ResiliencePolicy {
        max_retries: 0,
        ..ResiliencePolicy::default()
    };
    let mut svc = SolveService::new(cfg);
    let _ = svc.submit(job(1e-12)).unwrap();
    let reports = svc.drain();
    let r = reports.last().unwrap();
    assert!(
        r.attempts.iter().any(|a| matches!(
            a.disposition,
            AttemptDisposition::Failed(FdmaxError::Stalled { .. })
        )),
        "some sweep rung stalled at the f32 plateau: {:?}",
        r.attempts
    );
    if let Some(rung) = r.served_by() {
        assert!(
            rung.index() >= Rung::Krylov.index(),
            "no f32 sweep rung can have reached 1e-12, yet {rung} served"
        );
    }

    // The same job class above the floor is admitted and served,
    // converged, by a fault-free service: the floor was the only
    // objection.
    let mut svc = SolveService::new(base());
    let _ = svc.submit(job(1e-2)).unwrap();
    let reports = svc.drain();
    assert!(reports.last().unwrap().converged);
}

/// FDX017: a checkpoint cadence that fits under the deadline (so FDX013
/// stays silent) but above the job class's completion window persists
/// zero checkpoints for every job — durability that can never pay out.
#[test]
fn fdx017_witness_checkpoint_cadence_mismatch() {
    use fdmax::durability::{read_journal, DurabilityConfig, JournalRecord};
    use fdmax::resilience::ResiliencePolicy;
    use fdmax::service::{JobSpec, ServiceConfig, SolveService};
    use memmodel::faults::FaultCampaign;

    let tmpdir = |tag: &str| {
        let dir = std::env::temp_dir().join(format!("fdmax-fdx017-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    };
    // As in the FDX013 witness: a zero-retry harsh campaign pushes every
    // job onto the checkpoint-taking reference rung.
    let base = |dur: DurabilityConfig| {
        let mut cfg = ServiceConfig::new(FdmaxConfig::paper_default());
        cfg.deadline_iterations = 20_000;
        cfg.campaign = FaultCampaign {
            sram_flips_per_iteration: 5.0,
            dma_failure_prob: 0.0,
            ..FaultCampaign::harsh(0x0B5E55)
        };
        cfg.policy = ResiliencePolicy {
            max_retries: 0,
            ..ResiliencePolicy::default()
        };
        cfg.with_durability(dur)
    };
    let job = || {
        JobSpec::new(
            benchmark_problem::<f32>(PdeKind::Laplace, 12, 30).unwrap(),
            HwUpdateMethod::Jacobi,
            StopCondition::fixed_steps(30),
        )
    };
    let checkpoints = |dir: &std::path::Path| {
        read_journal(dir)
            .unwrap()
            .records
            .iter()
            .filter(|r| matches!(r, JournalRecord::CheckpointTaken { .. }))
            .count()
    };

    // Cadence 10_000 on a 30-step job class: under the 20_000 deadline
    // (FDX013 is silent) yet far beyond the completion window. Only the
    // plan-aware analyzer sees the mismatch.
    let dir = tmpdir("mismatch");
    let flagged = base(DurabilityConfig::new(&dir).with_checkpoint_every(10_000));
    assert!(
        !flagged.lint().has(DiagCode::DurabilityMisconfigured),
        "the cadence respects the deadline, so FDX013 cannot catch this"
    );
    let plan = SolvePlan {
        rows: 12,
        cols: 12,
        method: HwUpdateMethod::Jacobi,
        tolerance: None,
        requested_iterations: 30,
        precision: PrecisionClass::F32,
        steady_state: true,
        scale: 1.0,
        parallel_threads: 4,
        tile_depth: 1,
    };
    let report = analyze_plan(
        &plan,
        &FdmaxConfig::paper_default(),
        Some(&flagged.lint_spec()),
    );
    let diag = report
        .lint()
        .diagnostics()
        .iter()
        .find(|d| d.code == DiagCode::CheckpointCadenceMismatch)
        .expect("a cadence above the completion window trips FDX017");
    assert_eq!(diag.severity(), Severity::Warn, "wasteful, not unsound");

    // And for cause: a full drain of the flagged service persists no
    // checkpoint at all, while a cadence inside the window really does.
    let mut svc = SolveService::new(flagged);
    let _ = svc.submit(job()).unwrap();
    svc.drain();
    assert_eq!(checkpoints(&dir), 0, "durability never pays out");
    std::fs::remove_dir_all(&dir).unwrap();

    let dir = tmpdir("inside-window");
    let compliant = base(DurabilityConfig::new(&dir).with_checkpoint_every(8));
    let report = analyze_plan(
        &plan,
        &FdmaxConfig::paper_default(),
        Some(&compliant.lint_spec()),
    );
    assert!(!report.lint().has(DiagCode::CheckpointCadenceMismatch));
    let mut svc = SolveService::new(compliant);
    let _ = svc.submit(job()).unwrap();
    svc.drain();
    assert!(checkpoints(&dir) > 0, "inside the window the cadence fires");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// FDX018: the race certifier is exact on both sides.
///
/// * Every band plan the engine actually derives certifies clean, and
///   the parallel engine is bit-identical to the serial one — grids and
///   residual history — at any thread count.
/// * A hand-built aliasing plan is refused, and for cause: sweeping it
///   sequentially (Jacobi writes are deterministic, so the field is
///   unchanged) still folds the shared row's diff-squared partial twice,
///   so the residual the convergence decision runs on is wrong.
#[test]
fn fdx018_witness_band_plan_race() {
    use fdm::engine::{SolveEngine, SweepEngine, SweepPlan};
    use fdm::kernels::{jacobi_row, OffsetRow};
    use fdm::solver::UpdateMethod;

    // Soundness of "clean": derived plans certify, and the parallel
    // engine they describe matches the serial engine bit for bit.
    let sp = benchmark_problem::<f32>(PdeKind::Laplace, 10, 0).unwrap();
    for threads in [1usize, 3, 8] {
        let plan = BandPlan::from_threads(10, 10, threads);
        assert!(
            certify_band_plan(&plan).is_clean(),
            "a derived plan certifies clean at {threads} thread(s)"
        );
        let banded = SweepPlan {
            threads,
            tile_depth: 1,
        };
        let mut par = SweepEngine::with_plan(&sp, UpdateMethod::Jacobi, banded);
        assert_eq!(plan.bands, par.bands(), "the certifier saw the real plan");
        let mut ser = SweepEngine::new(&sp, UpdateMethod::Jacobi);
        for _ in 0..6 {
            let a = par.step().norm;
            let b = ser.step().norm;
            assert_eq!(
                a.map(f64::to_bits),
                b.map(f64::to_bits),
                "fixed-order fold: residuals agree bitwise"
            );
        }
        assert_eq!(par.solution(), ser.solution());
    }
    // Single-band degenerate plans are sound (and separately warned as a
    // dead rung by FDX019).
    assert_eq!(BandPlan::from_threads(10, 10, 1).bands.len(), 1);

    // The aliasing plan: rejected as an error...
    let alias = BandPlan {
        rows: 10,
        cols: 10,
        bands: vec![1..5, 4..9],
    };
    let report = certify_band_plan(&alias);
    assert!(
        report.has(DiagCode::BandPlanRace) && report.has_errors(),
        "aliased rows are a correctness error:\n{report}"
    );

    // ...and for cause. Sweep a fully mixed field once under both plans:
    // the aliased fold visits row 4 twice, so the banded residual
    // diverges from the serial one even though the output field is
    // identical (the duplicated Jacobi write is deterministic).
    let mut cur = Grid2D::<f32>::zeros(10, 10);
    for i in 0..10 {
        for j in 0..10 {
            cur[(i, j)] = ((i * 31 + j * 17) % 19) as f32 * 0.05;
        }
    }
    let sweep = |bands: &[core::ops::Range<usize>]| -> (Grid2D<f32>, f64) {
        let mut next = cur.clone();
        let mut folded = 0.0f64;
        for band in bands {
            for i in band.clone() {
                let b = OffsetRow::for_row(&sp.offset, None, i);
                let mut out = cur.row(i).to_vec();
                folded += jacobi_row(
                    &sp.stencil,
                    cur.row(i - 1),
                    cur.row(i),
                    cur.row(i + 1),
                    b,
                    &mut out,
                );
                next.row_mut(i).copy_from_slice(&out);
            }
        }
        (next, folded)
    };
    let serial_band = 1..9;
    let (serial_grid, serial_residual) = sweep(std::slice::from_ref(&serial_band));
    let (alias_grid, alias_residual) = sweep(&alias.bands);
    assert_eq!(alias_grid, serial_grid, "the field itself is unharmed");
    assert!(
        alias_residual > serial_residual,
        "the shared row folds twice: {alias_residual} vs {serial_residual} \
         — the convergence decision reads a residual no serial sweep \
         would ever produce"
    );
}

/// FDX019: both dead-rung findings are operational facts, not style.
/// A time-stepping job really does skip the Krylov rung as not
/// applicable, and a single-thread service really does run the strip-
/// parallel rung as one serial band.
#[test]
fn fdx019_witness_dead_fallback_rungs() {
    use fdm::engine::{SweepEngine, SweepPlan};
    use fdm::solver::UpdateMethod;
    use fdmax::service::{AttemptDisposition, JobSpec, Rung, ServiceConfig, SolveService};

    // Statically: a transient plan and a single-thread plan each get
    // their own FDX019 finding.
    let plan = SolvePlan {
        rows: 12,
        cols: 12,
        method: HwUpdateMethod::Jacobi,
        tolerance: Some(1e-4),
        requested_iterations: 500,
        precision: PrecisionClass::F32,
        steady_state: false,
        scale: 1.0,
        parallel_threads: 1,
        tile_depth: 1,
    };
    let report = analyze_plan(&plan, &FdmaxConfig::paper_default(), None);
    let dead: Vec<_> = report
        .lint()
        .diagnostics()
        .iter()
        .filter(|d| d.code == DiagCode::DeadFallbackRungs)
        .collect();
    assert!(dead.iter().any(|d| d.field == "pde"), "the Krylov rung");
    assert!(
        dead.iter().any(|d| d.field == "parallel_threads"),
        "the degenerate parallel rung"
    );
    assert!(dead.iter().all(|d| d.severity() == Severity::Warn));

    // Dynamically (Krylov): drive a transient job down the whole chain
    // (a NaN-poisoned field fails every numeric rung) and the trace
    // shows Krylov skipped as not applicable — exactly the dead rung the
    // analyzer named.
    let mut poisoned = benchmark_problem::<f32>(PdeKind::Heat, 12, 8).unwrap();
    poisoned.initial.as_mut_slice().fill(f32::NAN);
    let mut svc = SolveService::new(ServiceConfig::new(FdmaxConfig::paper_default()));
    let _ = svc.submit(JobSpec::new(
        poisoned,
        HwUpdateMethod::Jacobi,
        StopCondition::fixed_steps(8),
    ));
    let reports = svc.drain();
    let r = reports.last().unwrap();
    assert!(
        r.attempts
            .iter()
            .any(|a| a.rung == Rung::Krylov
                && a.disposition == AttemptDisposition::SkippedNotApplicable),
        "the Krylov rung is operationally dead for transient jobs: {:?}",
        r.attempts
    );

    // Dynamically (parallel): at one thread the strip-parallel engine
    // degenerates to a single serial band.
    let sp = benchmark_problem::<f32>(PdeKind::Laplace, 12, 0).unwrap();
    let single = SweepPlan {
        threads: 1,
        tile_depth: 1,
    };
    let engine = SweepEngine::with_plan(&sp, UpdateMethod::Jacobi, single);
    assert_eq!(engine.bands().len(), 1, "one band: the same serial engine");
}

/// FDX020: the quota overcommit is an operational fact, not style. A
/// pool of 2 workers whose tenants are promised 4 concurrent jobs
/// serves at most 2 per scheduler round — the fair scheduler
/// arbitrates the shortfall — while a pool sized to the promise serves
/// every quota in the same round (and clears the lint).
#[test]
fn fdx020_witness_tenant_quota_overcommit() {
    use fdmax::service::frontend::{Frontend, FrontendConfig, TenantConfig};
    use fdmax::service::{JobSpec, ServiceConfig, TenantId};

    let build = |workers: usize| {
        let promise = TenantConfig {
            weight: 2,
            max_in_flight: 2,
            ..TenantConfig::default()
        };
        FrontendConfig::new(ServiceConfig::new(FdmaxConfig::paper_default()), workers)
            .with_tenant(TenantId(1), promise)
            .with_tenant(TenantId(2), promise)
    };

    // Statically: 2 + 2 promised on 2 workers is an overcommit warning;
    // 4 workers clears it.
    let report = build(2).lint();
    assert!(
        report.has(DiagCode::TenantQuotaOvercommit),
        "2+2 on 2 workers overcommits:\n{report}"
    );
    assert!(!build(4).lint().has(DiagCode::TenantQuotaOvercommit));
    assert!(
        report.worst() == Some(Severity::Warn),
        "arbitrated, not broken"
    );

    // Dynamically: both tenants fill their in-flight quota. The
    // overcommitted pool can serve only 2 of the 4 promised jobs in the
    // first scheduler round; the right-sized pool serves all 4 at once.
    let served_in_first_round = |workers: usize| -> usize {
        let mut fe = Frontend::new(build(workers));
        for t in [1u64, 2] {
            for _ in 0..2 {
                let sp = benchmark_problem::<f32>(PdeKind::Laplace, 12, 0).unwrap();
                let spec = JobSpec::new(sp, HwUpdateMethod::Jacobi, StopCondition::fixed_steps(6))
                    .with_tenant(TenantId(t));
                let _ = fe.submit(spec).expect("within max_queued quota");
            }
        }
        fe.run_round().len()
    };
    assert_eq!(
        served_in_first_round(2),
        2,
        "2 workers arbitrate the 4-job promise"
    );
    assert_eq!(
        served_in_first_round(4),
        4,
        "4 workers honor every quota at once"
    );
}

/// FDX021: a hedged chain entered at the Krylov rung is vacuous — the
/// hedge pairs live at Reference/Parallel/Software, so no attempt can
/// ever arm the trigger — while the identical hedge policy on a
/// Reference-entry chain demonstrably launches a race under the same
/// job mix.
#[test]
fn fdx021_witness_vacuous_hedge() {
    use fdmax::service::{HedgeConfig, JobSpec, Rung, ServiceConfig, ServiceStats, SolveService};

    // Statically: hedge + Krylov entry warns, hedge + Reference entry
    // is clean (the disabled-hedge spec is always clean).
    let spec = |entry: Rung| FrontendSpec {
        workers: 1,
        tenant_in_flight_quotas: Vec::new(),
        hedge_enabled: true,
        entry_rung_index: entry.index(),
    };
    let report = lint_frontend(&spec(Rung::Krylov));
    assert!(
        report.has(DiagCode::VacuousHedge),
        "hedge + Krylov entry is vacuous:\n{report}"
    );
    assert!(!lint_frontend(&spec(Rung::Reference)).has(DiagCode::VacuousHedge));

    // Dynamically: the same hedge policy (arm at four samples, hedge
    // the slowest half) over the same job mix — four quick solves to
    // seed the entry rung's latency ring, then one slow enough to
    // outlast the trigger.
    let hedged = |entry: Rung| -> ServiceStats {
        let config = ServiceConfig::new(FdmaxConfig::paper_default()).with_hedge(HedgeConfig {
            percentile: 50,
            min_samples: 4,
        });
        let mut svc = SolveService::new(config);
        for steps in [4, 4, 4, 4, 64] {
            let sp = benchmark_problem::<f32>(PdeKind::Laplace, 12, 0).unwrap();
            let _ = svc.submit(
                JobSpec::new(
                    sp,
                    HwUpdateMethod::Jacobi,
                    StopCondition::fixed_steps(steps),
                )
                .with_entry_rung(entry),
            );
        }
        let _ = svc.drain();
        svc.stats()
    };
    let live = hedged(Rung::Reference);
    assert!(
        live.hedges_launched >= 1,
        "the Reference-entry chain races its slow attempt: {live:?}"
    );
    let vacuous = hedged(Rung::Krylov);
    assert_eq!(
        vacuous.hedges_launched, 0,
        "the Krylov-entry chain never launches a hedge: {vacuous:?}"
    );
}

/// FDX022: the tile-depth geometry findings are operational facts.
///
/// * A depth at or past the interior height (Error) really does
///   collapse the tiled engine's halo-aware band split to one serial
///   band, whatever thread count was requested — the rung degenerates
///   exactly as the analyzer says (while staying bitwise correct).
/// * A depth that merely crowds the requested threads (Warn) sheds
///   bands below the thread count.
/// * A depth past the per-job iteration cap (Warn) truncates every
///   epoch: the engine never executes a full fused pass.
#[test]
fn fdx022_witness_tile_depth_geometry() {
    use fdm::engine::{SolveEngine, SweepEngine, SweepPlan};
    use fdm::solver::UpdateMethod;

    let plan = |rows: usize, threads: usize, k: usize| SolvePlan {
        rows,
        cols: 16,
        method: HwUpdateMethod::Jacobi,
        tolerance: None,
        requested_iterations: 64,
        precision: PrecisionClass::F32,
        steady_state: true,
        scale: 1.0,
        parallel_threads: threads,
        tile_depth: k,
    };
    let geometry = |p: &SolvePlan| -> Vec<Severity> {
        analyze_plan(p, &FdmaxConfig::paper_default(), None)
            .lint()
            .diagnostics()
            .iter()
            .filter(|d| d.code == DiagCode::TileDepthGeometry)
            .map(fdmax::lint::Diagnostic::severity)
            .collect()
    };

    // Statically: halo >= interior is an Error, a crowded band split is
    // a Warn, and a roomy grid (or a disabled rung) is clean.
    assert_eq!(geometry(&plan(10, 2, 8)), [Severity::Error]);
    assert_eq!(geometry(&plan(19, 7, 4)), [Severity::Warn]);
    assert_eq!(geometry(&plan(130, 4, 4)), []);
    assert_eq!(geometry(&plan(10, 2, 1)), [], "depth 1 disables the rung");

    // Dynamically (Error): on the 10-row grid the 8-deep halo leaves
    // room for a single band — the requested 2 threads are shed and the
    // epoch runs serially, though still bitwise correct.
    let sp = benchmark_problem::<f32>(PdeKind::Laplace, 10, 0).unwrap();
    let tiled_plan = |threads, tile_depth| SweepPlan {
        threads,
        tile_depth,
    };
    let mut tiled = SweepEngine::with_plan(&sp, UpdateMethod::Jacobi, tiled_plan(2, 8));
    assert_eq!(tiled.bands().len(), 1, "the band split is dead");
    let mut serial = SweepEngine::new(&sp, UpdateMethod::Jacobi);
    tiled.step();
    for _ in 0..8 {
        serial.step();
    }
    assert_eq!(tiled.solution(), serial.solution(), "correct, just serial");

    // Dynamically (Warn, band collapse): 17 interior rows at depth 4
    // hold at most 4 halo-safe bands, not the 7 requested.
    let sp = benchmark_problem::<f32>(PdeKind::Laplace, 19, 0).unwrap();
    let tiled = SweepEngine::with_plan(&sp, UpdateMethod::Jacobi, tiled_plan(7, 4));
    let bands = tiled.bands().len();
    assert!(
        bands <= 17 / 4,
        "the halo-aware split sheds parallelism: {bands} bands"
    );

    // Dynamically (Warn, cap): a depth-8 engine capped at 5 iterations
    // truncates its very first epoch.
    let sp = benchmark_problem::<f32>(PdeKind::Laplace, 16, 0).unwrap();
    let mut capped =
        SweepEngine::with_plan(&sp, UpdateMethod::Jacobi, tiled_plan(1, 8)).with_iteration_cap(5);
    capped.step();
    assert_eq!(
        capped.iterations(),
        5,
        "every epoch falls short of the configured depth"
    );
    let spec = ServiceSpec {
        queue_capacity: 1,
        max_job_iterations: 5,
        deadline_iterations: 20_000,
        checkpoint_every: None,
        journal_dir: None,
    };
    let report = analyze_plan(&plan(64, 1, 8), &FdmaxConfig::paper_default(), Some(&spec));
    assert!(
        report
            .lint()
            .diagnostics()
            .iter()
            .any(|d| d.code == DiagCode::TileDepthGeometry && d.severity() == Severity::Warn),
        "the cap mismatch warns"
    );
}
