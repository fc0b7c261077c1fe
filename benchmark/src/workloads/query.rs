//! `query`: the read side of the stores `collect` and `ingest` write.
//!
//! Set-up profiles gcc, x11perf, wave5 and dispatch-server (with stacks)
//! into four machine databases under `ProfConfig::Default`, keeping each
//! run's ground truth, and builds a fleet database of [`FLEET_EPOCHS`]
//! merge epochs with the `ingest` generator. A rep is one analysis session
//! per machine database — `load_db` → `dcpiprof` → `analyze_procedure` on
//! every procedure with samples → `dcpicalc` + `dcpisumm`, plus
//! `load_stacks` → `dcpiprof_tree` → `dcpitop_flame` on the stacks
//! database — followed by one fleet session (`dcpifleet_top`,
//! `dcpifleet_image`). `dcpi-analyze`, `dcpi-tools` and
//! `ProfileDb::read_all` do the work; the simulator and the write path do
//! none. A store that makes merges cheaper by deferring work to readers
//! loses here.

use crate::gen::{agent_epochs, fnv64, Fnv64};
use crate::harness::{
    fastest_span, phase, run_phases, timed_setups, trace_overhead_pct, Ctx, Outcome, Phase,
    StageReport,
};
use crate::sys::{ProcIo, Scratch};
use crate::trace::Tracer;
use dcpi_analyze::analysis::{analyze_procedure, AnalysisOptions, ProcAnalysis};
use dcpi_analyze::cfg::Cfg;
use dcpi_analyze::culprit::{find_culprits, EventSamples};
use dcpi_analyze::equiv::frequency_classes;
use dcpi_analyze::export;
use dcpi_analyze::frequency::estimate_frequencies;
use dcpi_collect::uploader::{Uploader, UploaderConfig};
use dcpi_core::codec::Format;
use dcpi_core::db::ProfileDb;
use dcpi_core::{Event, ImageId};
use dcpi_isa::pipeline::PipelineModel;
use dcpi_machine::os::{KERNEL_BASE, MAIN_BASE};
use dcpi_pgo::{optimize, PgoOptions};
use dcpi_server::{IngestServer, ServerConfig};
use dcpi_stacks::{speedscope, CallTree};
use dcpi_tools::{
    dcpicalc, dcpicheck_db, dcpifleet_image, dcpifleet_top, dcpiprof, dcpiprof_tree, dcpisumm,
    dcpitop_flame, load_db, load_stacks, stack_frame_name, LoadedDb,
};
use dcpi_workloads::{
    pgo_workload, run_workload, PgoOutcome, ProfConfig, RunOptions, RunResult, Workload,
};
use std::hint::black_box;
use std::path::{Path, PathBuf};

/// Merge epochs in the fleet database: one agent, one epoch per tick,
/// merged every tick, so each is a directory of 12 profile files and a
/// stacks sidecar. ISSUE 11 asked for 64; every file costs the set-up one
/// fsync, and 832 of them made it half device wait (README.md, "Noise").
const FLEET_EPOCHS: u32 = 16;

/// Sampling period of the machine-database runs: dense enough that a few
/// dozen procedures per program clear Figure 8's sample filters.
const PERIOD: (u64, u64) = (10_000, 10_800);

/// One profiled program: its database on disk and its ground truth.
struct MachineDb {
    dir: PathBuf,
    run: RunResult,
    stacks: bool,
}

/// `[untraced, traced]` session phase names with workload and scale.
const PROGRAMS: [(Workload, u32, [&str; 2]); 4] = [
    (Workload::Gcc, 6, ["session.gcc", "session.gcc.traced"]),
    (
        Workload::X11Perf,
        3,
        ["session.x11perf", "session.x11perf.traced"],
    ),
    (
        Workload::Wave5,
        4,
        ["session.wave5", "session.wave5.traced"],
    ),
    (
        Workload::DispatchServer,
        4,
        ["session.dispatch-server", "session.dispatch-server.traced"],
    ),
];

struct Fixture {
    machines: Vec<MachineDb>,
    fleet_root: PathBuf,
    fleet_samples: u64,
    /// Read syscalls and bytes of one fleet session.
    fleet_io: ProcIo,
    /// Bytes of live profile files in the fleet database.
    fleet_db_bytes: u64,
}

/// Extras only the traced run's probes need.
struct TracedFixture {
    pgo: PgoOutcome,
    /// `pgo.estimates`, parsed: the optimizer's input.
    estimates: Vec<export::ExportedProc>,
    snapshot: dcpi_obs::Snapshot,
}

fn profile_into(scratch: &Scratch, w: Workload, scale: u32, seed: u32) -> MachineDb {
    let dir = scratch.fresh(&format!("query-{}", w.name()));
    let stacks = w == Workload::DispatchServer;
    let ro = RunOptions {
        seed,
        scale,
        period: PERIOD,
        db_path: Some(dir.clone()),
        stack_walk: stacks,
        ..RunOptions::default()
    };
    MachineDb {
        run: run_workload(w, ProfConfig::Default, &ro),
        dir,
        stacks,
    }
}

/// Builds the many-epoch fleet database through the real write path.
fn build_fleet(root: &Path, seed: u32) -> u64 {
    let mut server = IngestServer::create(ServerConfig {
        queue_cap: 4096,
        backpressure_at: 4096,
        merge_every: 1,
        ..ServerConfig::new(root)
    })
    .expect("fleet root");
    let mut uploader = Uploader::new(0, 1, UploaderConfig::default());
    let mut total = 0;
    for batch in agent_epochs(seed, 0, FLEET_EPOCHS) {
        total += batch.sample_total();
        uploader.push_epoch(batch);
    }
    let mut now = 0;
    while !uploader.idle() {
        for frame in uploader.tick(now) {
            for reply in server.on_frame(now, &frame) {
                uploader.on_frame(now, &reply);
            }
        }
        server.tick(now).expect("merge");
        now += 1;
        assert!(now < 10_000, "uploader failed to drain");
    }
    server.finish(now).expect("final merge");
    assert_eq!(server.stats.merges, u64::from(FLEET_EPOCHS));
    total
}

/// Accuracy of the frequency estimates against the simulator's exact
/// counts, with `figure8.rs`'s filters: procedures with at least 50 CYCLES
/// samples and at least two samples per instruction; instructions with a
/// sample, an estimate and a non-zero true count; each weighted by its
/// samples. Returns `(mean |error| in %, Figure 8's within-10% share in %)`,
/// an instruction's error being `estimate × mean period / true count − 1`,
/// clamped to 100% so one wild estimate cannot swamp the mean.
///
/// Printed for information only. On the runs a set-up can afford (seconds,
/// not Figure 8's minutes) both numbers depend on the seed far more than
/// on the code: over seeds 1–10 the within-10% share read either 0–2% or
/// 51–59% and the mean error 13–31%, so neither can carry a bound.
fn frequency_error(machines: &[MachineDb]) -> (f64, f64) {
    let model = PipelineModel::default();
    let opts = AnalysisOptions::default();
    let period = (PERIOD.0 + PERIOD.1) as f64 / 2.0;
    let (mut err_sum, mut within, mut total) = (0.0, 0.0, 0.0);
    for m in machines {
        let r = &m.run;
        for (id, image) in &r.images {
            let Some(profile) = r.profiles.get(*id, Event::Cycles) else {
                continue;
            };
            for sym in image.symbols() {
                if profile.range_total(sym.offset, sym.offset + sym.size) < 50 {
                    continue;
                }
                let Ok(pa) = analyze_procedure(image, sym, &r.profiles, *id, &model, &opts) else {
                    continue;
                };
                if pa.total_samples() < 2 * pa.insns.len() as u64 {
                    continue;
                }
                for ia in &pa.insns {
                    let truth = r.gt.insn_count(*id, ia.offset);
                    if ia.samples == 0 || ia.freq <= 0.0 || truth == 0 {
                        continue;
                    }
                    let err = (ia.freq * period / truth as f64 - 1.0).abs();
                    let weight = ia.samples as f64;
                    total += weight;
                    err_sum += err.min(1.0) * weight;
                    if err <= 0.10 {
                        within += weight;
                    }
                }
            }
        }
    }
    assert!(total > 0.0, "no procedure cleared Figure 8's filters");
    (err_sum / total * 100.0, within / total * 100.0)
}

fn setup(scratch: &Scratch, seed: u32) -> Fixture {
    let machines: Vec<MachineDb> = PROGRAMS
        .iter()
        .map(|&(w, scale, _)| profile_into(scratch, w, scale, seed))
        .collect();
    let fleet_root = scratch.fresh("query-fleet");
    let fleet_samples = build_fleet(&fleet_root, seed);
    // Warm-up rep of each session, which also yields the read counts.
    let mut off = Tracer::off();
    for m in &machines {
        machine_session(&mut off, m);
    }
    let io0 = ProcIo::now();
    fleet_session(&mut off, &fleet_root, fleet_samples);
    let fleet_io = ProcIo::now().since(io0);
    let fleet_db_bytes = ProfileDb::open(fleet_root.join("db"), Format::V2)
        .and_then(|db| db.disk_usage())
        .expect("fleet db");
    Fixture {
        machines,
        fleet_root,
        fleet_samples,
        fleet_io,
        fleet_db_bytes,
    }
}

fn setup_traced(seed: u32) -> TracedFixture {
    let ro = RunOptions {
        seed,
        period: (2_000, 2_200),
        ..RunOptions::default()
    };
    let pgo = pgo_workload(Workload::Gcc, &ro, 25).expect("gcc PGO loop");
    let obs = RunOptions {
        seed,
        scale: 2,
        obs: true,
        ..RunOptions::default()
    };
    let snapshot = run_workload(Workload::Gcc, ProfConfig::Cycles, &obs)
        .obs
        .expect("obs run carries a snapshot");
    TracedFixture {
        estimates: export::parse(&pgo.estimates).expect("own export parses"),
        pgo,
        snapshot,
    }
}

/// Images of a loaded database in id order (the registry is a `HashMap`).
fn images_in_order(db: &LoadedDb) -> Vec<(ImageId, &std::sync::Arc<dcpi_isa::image::Image>)> {
    let mut images: Vec<_> = db.registry.iter().collect();
    images.sort_by_key(|(id, _)| *id);
    images
}

/// One analysis session over a machine database.
fn machine_session(t: &mut Tracer, m: &MachineDb) -> Outcome {
    let model = PipelineModel::default();
    let opts = AnalysisOptions::default();
    let mut h = Fnv64::default();
    let s = t.enter("tools.load_db");
    let db = load_db(&m.dir).expect("machine db loads");
    t.exit(s);
    let s = t.enter("tools.dcpiprof");
    h.write(dcpiprof(&db.profiles, &db.registry, Event::IMiss, 20).as_bytes());
    t.exit(s);
    let (mut procs, mut failed) = (0, 0);
    for (id, image) in images_in_order(&db) {
        let Some(profile) = db.profiles.get(id, Event::Cycles) else {
            continue;
        };
        for sym in image.symbols() {
            if profile.range_total(sym.offset, sym.offset + sym.size) == 0 {
                continue;
            }
            procs += 1;
            let s = t.enter("analyze.procedure");
            let pa = analyze_procedure(image, sym, &db.profiles, id, &model, &opts);
            t.exit(s);
            let Ok(pa) = pa else {
                failed += 1;
                continue;
            };
            let s = t.enter("tools.dcpicalc");
            h.write(dcpicalc(&pa, MAIN_BASE.0).as_bytes());
            t.exit(s);
            let s = t.enter("tools.dcpisumm");
            h.write(dcpisumm(&pa).as_bytes());
            t.exit(s);
        }
    }
    if m.stacks {
        let s = t.enter("tools.load_stacks");
        let stacks = load_stacks(&m.dir).expect("stack sidecars load");
        t.exit(s);
        let s = t.enter("tools.dcpiprof_tree");
        h.write(dcpiprof_tree(&stacks, &db.registry, Event::Cycles, 0.5).as_bytes());
        t.exit(s);
        let s = t.enter("tools.dcpitop_flame");
        h.write(dcpitop_flame(&stacks, &db.registry, Event::Cycles, "query").as_bytes());
        t.exit(s);
        let s = t.enter("stacks.calltree");
        let tree = CallTree::build(&stacks, Event::Cycles);
        t.exit(s);
        failed += u64::from(tree.check_conservation().is_err() || tree.total() != m.run.samples);
    }
    failed += u64::from(db.profiles.event_total(Event::Cycles) == 0);
    Outcome {
        ops: procs,
        failed,
        work: procs,
        digest: h.finish(),
    }
}

/// One fleet session: the two `dcpifleet` queries over the fleet root.
fn fleet_session(t: &mut Tracer, root: &Path, samples: u64) -> Outcome {
    let s = t.enter("tools.dcpifleet_top");
    let top = dcpifleet_top(root, 10);
    t.exit(s);
    let s = t.enter("tools.dcpifleet_image");
    let image = dcpifleet_image(root, 1);
    t.exit(s);
    let (Ok(top), Ok(image)) = (top, image) else {
        return Outcome {
            ops: 2,
            failed: 2,
            work: 2,
            digest: 0,
        };
    };
    let ok = top.contains(&format!("{FLEET_EPOCHS} epoch(s), {samples} sample(s)"));
    Outcome {
        ops: 2,
        failed: u64::from(!ok),
        work: 2,
        digest: fnv64(top.as_bytes()) ^ fnv64(image.as_bytes()).rotate_left(1),
    }
}

/// The analyzer's phases called one by one on every sampled procedure of
/// a database, with the glue `analyze_procedure` puts between them.
fn analyze_phases(t: &mut Tracer, db: &LoadedDb) -> Outcome {
    let model = PipelineModel::default();
    let opts = AnalysisOptions::default();
    let (mut procs, mut failed, mut culprits_found) = (0, 0, 0);
    for (id, image) in images_in_order(db) {
        let Some(profile) = db.profiles.get(id, Event::Cycles) else {
            continue;
        };
        for sym in image.symbols() {
            if profile.range_total(sym.offset, sym.offset + sym.size) == 0 {
                continue;
            }
            procs += 1;
            let s = t.enter("analyze.cfg");
            let cfg = Cfg::build(image, sym);
            t.exit(s);
            let Ok(cfg) = cfg else {
                failed += 1;
                continue;
            };
            let samples: Vec<u64> = (0..cfg.insns.len() as u64)
                .map(|i| profile.get(sym.offset + i * 4))
                .collect();
            let schedules: Vec<_> = cfg
                .blocks
                .iter()
                .map(|b| {
                    let at = (b.start_word - cfg.start_word) as usize;
                    model.schedule_block(
                        u64::from(b.start_word),
                        &cfg.insns[at..at + b.len as usize],
                    )
                })
                .collect();
            let s = t.enter("analyze.equiv");
            let classes = frequency_classes(&cfg);
            t.exit(s);
            let s = t.enter("analyze.frequency");
            let freqs = estimate_frequencies(&cfg, &classes, &schedules, &samples, &opts.estimator);
            t.exit(s);
            let s = t.enter("analyze.culprit");
            let culprits = find_culprits(
                &cfg,
                &schedules,
                &freqs,
                &samples,
                &EventSamples::default(),
                &model,
                &opts.culprit,
            );
            t.exit(s);
            culprits_found += culprits.iter().map(Vec::len).sum::<usize>() as u64;
        }
    }
    Outcome {
        ops: procs,
        failed,
        work: procs,
        digest: culprits_found,
    }
}

/// Runs the workload.
pub fn run(ctx: &Ctx<'_>, tracer: &mut Tracer) -> StageReport {
    let (fx, setups) = timed_setups(|| setup(ctx.scratch, ctx.seed));
    let extras = ctx.traced.then(|| setup_traced(ctx.seed));
    let gcc = &fx.machines[0];
    let gcc_db = load_db(&gcc.dir).expect("gcc db loads");
    let dispatch_stacks = load_stacks(&fx.machines[3].dir).expect("dispatch-server stacks");

    // Input of the export probe: every gcc procedure with at least 25 samples.
    let exported: Vec<(ImageId, &str, ProcAnalysis)> = if ctx.traced {
        let model = PipelineModel::default();
        let opts = AnalysisOptions::default();
        images_in_order(&gcc_db)
            .into_iter()
            .flat_map(|(id, image)| {
                let (model, opts, profiles) = (&model, &opts, &gcc_db.profiles);
                image.symbols().iter().filter_map(move |sym| {
                    let p = profiles.get(id, Event::Cycles)?;
                    (p.range_total(sym.offset, sym.offset + sym.size) >= 25).then_some(())?;
                    let pa = analyze_procedure(image, sym, profiles, id, model, opts).ok()?;
                    Some((id, image.name(), pa))
                })
            })
            .collect()
    } else {
        Vec::new()
    };

    let mut phases: Vec<Phase<'_>> = Vec::new();
    for (m, (_, _, names)) in fx.machines.iter().zip(&PROGRAMS) {
        phases.push(Phase::new(names[0], move |rep| {
            rep.timed(|t| machine_session(t, m))
        }));
        if ctx.traced {
            phases.push(Phase::traced(names[1], move |rep| {
                rep.timed(|t| machine_session(t, m))
            }));
        }
    }
    phases.push(Phase::new("session.fleet", |rep| {
        rep.timed(|t| fleet_session(t, &fx.fleet_root, fx.fleet_samples))
    }));
    if let Some(extras) = &extras {
        phases.push(Phase::traced("session.fleet.traced", |rep| {
            rep.timed(|t| fleet_session(t, &fx.fleet_root, fx.fleet_samples))
        }));
        phases.push(Phase::traced("probe.db_read", |rep| {
            let (all, one) = rep.timed(|t| {
                let s = t.enter("core.db.open");
                let fleet =
                    ProfileDb::open(fx.fleet_root.join("db"), Format::V2).expect("fleet db");
                t.exit(s);
                let s = t.enter("core.db.read_all.fleet");
                let all = fleet.read_all().expect("fleet read_all");
                t.exit(s);
                let machine = ProfileDb::open(&gcc.dir, Format::V2).expect("gcc db");
                let s = t.enter("core.db.read_all");
                let one = machine.read_all().expect("gcc read_all");
                t.exit(s);
                (all, one)
            });
            Outcome {
                ops: 2,
                failed: u64::from(all.total_samples() != fx.fleet_samples),
                work: 2,
                digest: all.total_samples() ^ one.total_samples(),
            }
        }));
        phases.push(Phase::traced("probe.analyze_phases", |rep| {
            rep.timed(|t| analyze_phases(t, &gcc_db))
        }));
        phases.push(Phase::traced("probe.export", |rep| {
            let items: Vec<(ImageId, &str, &ProcAnalysis)> = exported
                .iter()
                .map(|(id, name, pa)| (*id, *name, pa))
                .collect();
            let (json, back) = rep.timed(|t| {
                let s = t.enter("analyze.export");
                let json = export::export(&items);
                let back = export::parse(&json);
                t.exit(s);
                (json, back)
            });
            Outcome {
                ops: 1,
                failed: u64::from(back.map_or(true, |procs| procs.len() != items.len())),
                work: items.len() as u64,
                digest: fnv64(json.as_bytes()),
            }
        }));
        phases.push(Phase::traced("probe.stacks", |rep| {
            let (tree, doc) = rep.timed(|t| {
                let s = t.enter("stacks.calltree");
                let tree = black_box(CallTree::build(&dispatch_stacks, Event::Cycles));
                t.exit(s);
                let s = t.enter("stacks.speedscope");
                let doc = speedscope::export(&dispatch_stacks, Event::Cycles, "query", &|f| {
                    stack_frame_name(&gcc_db.registry, f)
                });
                t.exit(s);
                (tree, doc)
            });
            Outcome {
                ops: 1,
                failed: u64::from(speedscope::check_schema(&doc).is_err()),
                work: 1,
                digest: fnv64(doc.as_bytes()) ^ tree.total(),
            }
        }));
        phases.push(Phase::traced("probe.check", |rep| {
            let pgo = &extras.pgo;
            let popts = PgoOptions {
                code_base: MAIN_BASE.0,
                external_floor: KERNEL_BASE.0,
                validate: false,
                ..PgoOptions::default()
            };
            let (report, tv, rewritten) = rep.timed(|t| {
                let s = t.enter("check.dcpicheck_db");
                let report = dcpicheck_db(&gcc.dir);
                t.exit(s);
                let s = t.enter("check.tv");
                let tv = dcpi_check::tv::validate_with(
                    &pgo.old_image,
                    &pgo.new_image,
                    &pgo.map,
                    &dcpi_check::tv::TvOptions {
                        code_base: MAIN_BASE.0,
                    },
                );
                t.exit(s);
                let s = t.enter("pgo.optimize");
                let rewritten = optimize(&pgo.old_image, &extras.estimates, &popts);
                t.exit(s);
                (report, tv, rewritten)
            });
            let same = rewritten.is_ok_and(|rw| rw.image.words() == pgo.new_image.words());
            Outcome {
                ops: 3,
                failed: u64::from(report.errors() > 0)
                    + u64::from(!tv.report.is_clean())
                    + u64::from(!same),
                work: 3,
                digest: tv.proved as u64,
            }
        }));
        phases.push(Phase::traced("probe.obs", |rep| {
            let (json, back) = rep.timed(|t| {
                let s = t.enter("obs.snapshot_json");
                let json = extras.snapshot.to_json();
                let back = dcpi_obs::Snapshot::parse(&json);
                t.exit(s);
                (json, back)
            });
            Outcome {
                ops: 1,
                failed: u64::from(back.is_err()),
                work: 1,
                digest: json.len() as u64,
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
    let sessions = |idx: usize| PROGRAMS.iter().map(move |(_, _, names)| names[idx]);
    let procs: u64 = sessions(0).map(|n| phase(&results, n).first.work).sum();
    let wall = |idx: usize| -> f64 { sessions(idx).map(|n| phase(&results, n).fastest()).sum() };
    report.work_per_s = procs as f64 / wall(0);
    report.aux_phase_ms = phase(&results, "session.fleet").fastest() * 1e3;
    report.stage_cost = fx.fleet_io.rchar as f64 / fx.fleet_db_bytes as f64;
    report.note("fleet_read_amp", report.stage_cost, "B/B");
    report.note("analyze_procs_per_s", report.work_per_s, "procs/s");
    report.note("fleet_query_ms", report.aux_phase_ms, "ms");
    let freq_error = frequency_error(&fx.machines);
    report.note("freq_mean_abs_err_pct", freq_error.0, "%");
    report.note("freq_within_10pct", freq_error.1, "%");
    report.note("procs_per_rep", procs as f64, "count");

    if ctx.traced {
        let span = |of: &str, name: &str| fastest_span(tracer, phase(&results, of), name);
        let sum = |name: &str| -> f64 { sessions(1).map(|p| span(p, name)).sum() };
        let gcc_procs = phase(&results, "probe.analyze_phases").first.work as f64;
        report.layer(
            "core.db.open_ms",
            span("probe.db_read", "core.db.open") * 1e3,
        );
        report.layer(
            "core.db.read_all_ms",
            span("probe.db_read", "core.db.read_all") * 1e3,
        );
        report.layer(
            "core.db.read_all_ms.fleet",
            span("probe.db_read", "core.db.read_all.fleet") * 1e3,
        );
        report.layer(
            "core.db.read_syscalls_per_query",
            fx.fleet_io.syscr as f64 / 2.0,
        );
        report.layer(
            "core.db.read_bytes_per_query",
            fx.fleet_io.rchar as f64 / 2.0,
        );
        report.layer(
            "tools.load_db_ms",
            sum("tools.load_db") * 1e3 / PROGRAMS.len() as f64,
        );
        report.layer(
            "tools.dcpiprof_ms",
            sum("tools.dcpiprof") * 1e3 / PROGRAMS.len() as f64,
        );
        report.layer(
            "analyze.procedure_us",
            sum("analyze.procedure") * 1e6 / procs as f64,
        );
        for (row, name) in [
            ("analyze.cfg_us_per_proc", "analyze.cfg"),
            ("analyze.equiv_us_per_proc", "analyze.equiv"),
            ("analyze.frequency_us_per_proc", "analyze.frequency"),
            ("analyze.culprit_us_per_proc", "analyze.culprit"),
        ] {
            report.layer(row, span("probe.analyze_phases", name) * 1e6 / gcc_procs);
        }
        report.layer(
            "tools.dcpicalc_us_per_proc",
            sum("tools.dcpicalc") * 1e6 / procs as f64,
        );
        report.layer(
            "tools.dcpisumm_us_per_proc",
            sum("tools.dcpisumm") * 1e6 / procs as f64,
        );
        report.layer(
            "analyze.export_ms",
            span("probe.export", "analyze.export") * 1e3,
        );
        report.layer(
            "stacks.calltree_ms",
            span("probe.stacks", "stacks.calltree") * 1e3,
        );
        report.layer(
            "stacks.speedscope_ms",
            span("probe.stacks", "stacks.speedscope") * 1e3,
        );
        report.layer(
            "tools.dcpiprof_tree_ms",
            span("session.dispatch-server.traced", "tools.dcpiprof_tree") * 1e3,
        );
        report.layer(
            "tools.dcpifleet_top_ms",
            span("session.fleet.traced", "tools.dcpifleet_top") * 1e3,
        );
        report.layer(
            "tools.dcpifleet_image_ms",
            span("session.fleet.traced", "tools.dcpifleet_image") * 1e3,
        );
        report.layer(
            "check.dcpicheck_db_ms",
            span("probe.check", "check.dcpicheck_db") * 1e3,
        );
        report.layer("check.tv_ms", span("probe.check", "check.tv") * 1e3);
        report.layer("pgo.optimize_ms", span("probe.check", "pgo.optimize") * 1e3);
        report.layer(
            "obs.snapshot_json_ms",
            span("probe.obs", "obs.snapshot_json") * 1e3,
        );
        report.layer(
            "bench.trace_overhead_pct.query",
            trace_overhead_pct(wall(1), wall(0)),
        );
        report.audit_trace(tracer, &results);
        report.note_self_shares(tracer, &results);
    }
    report
}
