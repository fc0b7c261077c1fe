//! `sim`: the simulator under the paper's shipped configuration.
//!
//! `run_workload` under `ProfConfig::Cycles` at the 60K–64K period with an
//! in-memory daemon. `dcpi-machine` and `dcpi-isa` do nearly all the work
//! and collection almost none, so a dispatch or cache-model speed-up shows
//! here and nowhere else. dss drives the same layer differently (scheduler,
//! IPIs, eight simulated CPUs on one host thread), so it is also the
//! workload's second code path (`aux_phase_ms`): a gain for single-CPU
//! chains that costs SMP shows there.

use crate::gen::Fnv64;
use crate::harness::{
    fastest_span, phase, run_phases, timed_setups, trace_overhead_pct, Ctx, Outcome, Phase, Rep,
    StageReport,
};
use crate::trace::Tracer;
use dcpi_isa::meta::side_table;
use dcpi_isa::pipeline::PipelineModel;
use dcpi_isa::uop::compile_uops;
use dcpi_machine::{DispatchMode, DispatchStats};
use dcpi_workloads::programs::StreamKind;
use dcpi_workloads::{run_workload, ProfConfig, RunOptions, RunResult, Workload};
use std::hint::black_box;

/// One program of the suite, with the phase names of its variants.
struct Program {
    workload: Workload,
    scale: u32,
    /// `[untraced, traced, base, obs]` phase names.
    names: [&'static str; 4],
    /// The per-layer throughput row.
    row: &'static str,
}

/// Scales are the smallest at which each program's steady state dominates
/// its start-up, so a round of all five stays near 0.3 s and a run fits
/// many rounds (the fastest-rep estimator wants reps, not long reps).
const SUITE: [Program; 5] = [
    Program {
        workload: Workload::McCalpin(StreamKind::Copy),
        scale: 1,
        names: [
            "mccalpin-copy",
            "mccalpin-copy.traced",
            "mccalpin-copy.base",
            "mccalpin-copy.obs",
        ],
        row: "machine.mccalpin-copy.minsn_per_s",
    },
    Program {
        workload: Workload::Gcc,
        scale: 2,
        names: ["gcc", "gcc.traced", "gcc.base", "gcc.obs"],
        row: "machine.gcc.minsn_per_s",
    },
    Program {
        workload: Workload::Wave5,
        scale: 2,
        names: ["wave5", "wave5.traced", "wave5.base", "wave5.obs"],
        row: "machine.wave5.minsn_per_s",
    },
    Program {
        workload: Workload::X11Perf,
        scale: 1,
        names: ["x11perf", "x11perf.traced", "x11perf.base", "x11perf.obs"],
        row: "machine.x11perf.minsn_per_s",
    },
    Program {
        workload: Workload::Dss,
        scale: 1,
        names: ["dss", "dss.traced", "dss.base", "dss.obs"],
        row: "machine.dss.minsn_per_s",
    },
];

fn options(p: &Program, seed: u32) -> RunOptions {
    RunOptions {
        seed,
        scale: p.scale,
        ..RunOptions::default()
    }
}

/// Set-up: one untimed audit rep per program with observability on. It
/// yields the overhead ledger behind `stage_cost` (the paper's headline
/// number) and the `(cycles, samples, retired)` triple every timed rep
/// must reproduce — with observability off, so the check also shows that
/// switching it on perturbs nothing simulated.
fn audit(seed: u32) -> Vec<RunResult> {
    SUITE
        .iter()
        .map(|p| {
            let ro = RunOptions {
                obs: true,
                ..options(p, seed)
            };
            run_workload(p.workload, ProfConfig::Cycles, &ro)
        })
        .collect()
}

fn outcome(r: &RunResult, expect: &RunResult) -> Outcome {
    let mut h = Fnv64::default();
    for v in [r.cycles, r.samples, r.retired] {
        h.write_u64(v);
    }
    let same = (r.cycles, r.samples, r.retired) == (expect.cycles, expect.samples, expect.retired);
    Outcome {
        ops: 1,
        failed: u64::from(!same),
        work: r.retired,
        digest: h.finish(),
    }
}

fn run_phase<'a>(
    name: &'static str,
    traced: bool,
    p: &'a Program,
    prof: ProfConfig,
    ro: RunOptions,
    expect: Option<&'a RunResult>,
) -> Phase<'a> {
    let body = move |rep: &mut Rep<'_>| {
        let r = rep.timed(|t| {
            let s = t.enter("workloads.run_workload");
            let r = black_box(run_workload(p.workload, prof, black_box(&ro)));
            t.exit(s);
            r
        });
        // Base runs retire a different idle tail and take no samples, so
        // they are only checked against their own first rep.
        outcome(&r, expect.unwrap_or(&r))
    };
    if traced {
        Phase::traced(name, body)
    } else {
        Phase::new(name, body)
    }
}

/// Runs the workload.
pub fn run(ctx: &Ctx<'_>, tracer: &mut Tracer) -> StageReport {
    let (audits, setups) = timed_setups(|| audit(ctx.seed));
    let mut phases: Vec<Phase<'_>> = Vec::new();
    for (p, a) in SUITE.iter().zip(&audits) {
        let ro = options(p, ctx.seed);
        phases.push(run_phase(
            p.names[0],
            false,
            p,
            ProfConfig::Cycles,
            ro.clone(),
            Some(a),
        ));
        if ctx.traced {
            phases.push(run_phase(
                p.names[1],
                true,
                p,
                ProfConfig::Cycles,
                ro.clone(),
                Some(a),
            ));
            phases.push(run_phase(
                p.names[2],
                false,
                p,
                ProfConfig::Base,
                ro.clone(),
                None,
            ));
            let obs = RunOptions { obs: true, ..ro };
            phases.push(run_phase(
                p.names[3],
                false,
                p,
                ProfConfig::Cycles,
                obs,
                Some(a),
            ));
        }
    }
    let gcc = &SUITE[1];
    if ctx.traced {
        let classic = RunOptions {
            dispatch: DispatchMode::Classic,
            ..options(gcc, ctx.seed)
        };
        phases.push(run_phase(
            "gcc.classic",
            false,
            gcc,
            ProfConfig::Cycles,
            classic,
            Some(&audits[1]),
        ));
        phases.push(Phase::new("isa.compile", |rep| {
            let model = PipelineModel::default();
            let mut h = Fnv64::default();
            let mut images = 0;
            rep.timed(|_| {
                for a in &audits {
                    for (_, image) in &a.images {
                        let insns = image.decode_all().expect("workload text decodes");
                        let meta = side_table(&insns, &model);
                        h.write_u64(black_box(compile_uops(&insns, &meta)).len() as u64);
                        images += 1;
                    }
                }
            });
            Outcome {
                ops: images,
                failed: 0,
                work: images,
                digest: h.finish(),
            }
        }));
    }
    let results = run_phases(&mut phases, ctx.horizon, tracer);
    drop(phases);

    let mut report = StageReport {
        setups,
        ..StageReport::default()
    };
    report.absorb(&results);
    let sum = |idx: usize| -> f64 {
        SUITE
            .iter()
            .map(|p| phase(&results, p.names[idx]).fastest())
            .sum()
    };
    let retired: u64 = audits.iter().map(|a| a.retired).sum();
    let cycles: u64 = audits.iter().map(|a| a.cycles).sum();
    let samples: u64 = audits.iter().map(|a| a.samples).sum();

    report.work_per_s = retired as f64 / sum(0);
    report.aux_phase_ms = phase(&results, "dss").fastest() * 1e3;
    let mut ledger = dcpi_obs::OverheadLedger::default();
    for a in &audits {
        ledger.merge(&a.overhead.expect("profiled run carries an overhead ledger"));
    }
    report.failed += u64::from(!ledger.consistent());
    report.stage_cost = ledger.fraction() * 100.0;
    report.note("sim_minsn_per_s", report.work_per_s / 1e6, "Minsn/s");
    report.note("sim_overhead_pct", report.stage_cost, "%");
    report.note("dss_ms", report.aux_phase_ms, "ms");

    if ctx.traced {
        for (p, a) in SUITE.iter().zip(&audits) {
            let wall = fastest_span(
                tracer,
                phase(&results, p.names[1]),
                "workloads.run_workload",
            );
            report.layer(p.row, a.retired as f64 / wall / 1e6);
        }
        report.layer("machine.mcycles_per_s", cycles as f64 / sum(1) / 1e6);
        report.layer("machine.base_over_profiled", sum(2) / sum(0));
        report.layer(
            "machine.classic_over_superblock",
            phase(&results, "gcc.classic").fastest() / phase(&results, "gcc").fastest(),
        );
        let mut dispatch = DispatchStats::default();
        let mut driver = dcpi_collect::driver::DriverStats::default();
        let mut daemon = dcpi_collect::daemon::DaemonStats::default();
        for a in &audits {
            dispatch.merge(&a.dispatch);
            driver.merge(&a.driver.expect("profiled run"));
            daemon.merge(&a.daemon.expect("profiled run"));
        }
        report.layer("machine.chain_fallback_rate", dispatch.fallback_rate());
        report.layer("machine.sim_cycles", cycles as f64);
        report.layer("machine.retired", retired as f64);
        report.layer("machine.samples", samples as f64);
        let compile = phase(&results, "isa.compile");
        report.layer(
            "isa.compile_us_per_image",
            compile.fastest() * 1e6 / compile.first.work as f64,
        );
        report.layer("obs.on_over_off", sum(3) / sum(0));
        report.layer(
            "collect.driver.miss_rate.gcc",
            audits[1].driver.expect("profiled run").miss_rate(),
        );
        report.layer(
            "collect.driver.handler_cycles_per_sample",
            driver.avg_cost(),
        );
        report.layer("collect.daemon.cycles_per_sample", daemon.cost_per_sample());
        report.layer(
            "bench.trace_overhead_pct.sim",
            trace_overhead_pct(sum(1), sum(0)),
        );
        report.audit_trace(tracer, &results);
        report.note_self_shares(tracer, &results);
    }
    report
}
