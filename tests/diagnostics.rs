//! Everything `dcpicheck` says, held to what it said when this file was
//! recorded.
//!
//! `tests/golden/diagnostics.txt` holds the rendered text and the
//! `--json` document of damaged fixtures for all nine layers — image,
//! cfg, estimate, db, obs, pgo, tv, fleet and stacks — then one
//! `dcpicheck tv --json` document as the binary prints it, then every
//! category no fixture reaches, with the reason. The damage is the kind
//! the per-crate tests already do: a corrupted text word, a retargeted
//! CFG edge, a tampered estimate, a truncated profile, a backwards ring
//! stamp, a flipped branch sense, a tampered fleet root, a torn stack
//! sidecar. Two fixtures are smoke tests of the real pipeline as well: a
//! stack-walked deep-recursion database audits clean, and altavista's
//! PGO rewrite proves every segment.
//!
//! A change to how findings are reported must leave every line alone:
//! same text, severity, category, location and JSON bytes. Regenerate
//! with `DCPI_BLESS=1` only when changing what a diagnostic says is the
//! point of the change. Paths under the test's scratch directory are
//! written as `<tmp>`.

use dcpi::analyze::analysis::{analyze_procedure, AnalysisOptions, ProcAnalysis};
use dcpi::analyze::cfg::{BlockId, Cfg, EdgeKind};
use dcpi::analyze::equiv::frequency_classes;
use dcpi::analyze::frequency::{Confidence, EstimateSource};
use dcpi::check::{
    cfg_audit, check_image, check_obs_export, check_procedure, check_rewrite, check_snapshot, tv,
    Category, Report,
};
use dcpi::collect::daemon::write_epoch_stacks;
use dcpi::collect::faults::LossLedger;
use dcpi::collect::wire::{encode_msg, EpochBatch, Msg};
use dcpi::core::codec::Format;
use dcpi::core::db::{ProfileDb, STACKS_FILE};
use dcpi::core::{Event, ImageId, Pid, ProfileSet};
use dcpi::isa::encode::{decode, encode};
use dcpi::isa::image::{Image, Symbol};
use dcpi::isa::insn::Instruction;
use dcpi::isa::pipeline::PipelineModel;
use dcpi::isa::reg::Reg;
use dcpi::isa::rewrite::invert_cond;
use dcpi::isa::{AddressMap, Asm};
use dcpi::machine::os::MAIN_BASE;
use dcpi::server::{check_fleet, IngestServer, Journal, ServerConfig, WAL_FILE};
use dcpi::tools::{
    dcpicheck_dataflow, dcpicheck_db, dcpicheck_obs, dcpicheck_pgo, dcpicheck_report,
    dcpicheck_stacks, dcpicheck_tv, ImageRegistry,
};
use dcpi::workloads::{pgo_workload, run_workload, ProfConfig, RunOptions, Workload};
use dcpi_obs::{span_id, Component, Obs, ObsConfig, OverheadLedger, Snapshot, TimePoint};
use dcpi_stacks::{Frame, StackProfile};
use dcpi_testkit::TempRoot;
use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Categories no fixture here reaches, and why.
const UNREACHED: &[(&str, &str)] = &[(
    "stacks/stack-export",
    "a merged profile that passed the bijection and conservation audits \
     always exports a schema-clean speedscope document",
)];

fn label(c: Category) -> String {
    format!("{}/{}", c.layer(), c.name())
}

/// The golden text under construction, and which categories it reached.
struct Golden {
    out: String,
    reached: BTreeSet<String>,
}

impl Golden {
    fn report(&mut self, title: &str, report: &Report) {
        self.reached
            .extend(report.diags.iter().map(|d| label(d.category)));
        let _ = writeln!(self.out, "== {title}");
        self.out.push_str(&report.render());
        let _ = writeln!(self.out, "-- json");
        self.out.push_str(&report.to_json());
    }
}

/// `image`'s words with word `w` replaced.
fn patched(image: &Image, w: usize, word: u32) -> Image {
    let mut words = image.words().to_vec();
    words[w] = word;
    Image::new(image.name().to_string(), words, image.symbols().to_vec())
}

/// Image-layer damage: an undecodable word, a word that re-encodes
/// differently, branches that leave their procedure or the text, dead
/// code, a register read before any write, and a symbol table with a
/// degenerate and an overlapping entry (`Image::new` refuses one that
/// overruns the text).
fn lint_image() -> Image {
    let mut a = Asm::new("/fixture/lints");
    a.proc("words");
    a.addq_lit(Reg::A0, 1, Reg::V0);
    a.addq_lit(Reg::A0, 2, Reg::V0);
    a.ret(Reg::RA);
    a.proc("escapes");
    let into_callee = a.label();
    let mid_callee = a.label();
    a.beq(Reg::A0, into_callee);
    a.bsr(Reg::RA, mid_callee);
    a.addq_lit(Reg::A0, 3, Reg::V0);
    a.ret(Reg::RA);
    a.addq_lit(Reg::T0, 1, Reg::T0); // dead code after the return
    a.ret(Reg::RA);
    a.proc("callee");
    a.bind(into_callee);
    a.addq(Reg::T3, Reg::A0, Reg::V0); // t3 is never written
    a.bind(mid_callee);
    a.addq_lit(Reg::V0, 1, Reg::V0);
    a.ret(Reg::RA);
    a.proc("far");
    a.addq_lit(Reg::A0, 4, Reg::V0);
    a.ret(Reg::RA);
    let image = a.finish();
    let stray = encode(Instruction::Jmp {
        ra: Reg::ZERO,
        rb: Reg::RA,
    }) | 1;
    let image = patched(&image, 1, 0x0000_00ff); // CALL_PAL, unknown function
    let image = patched(&image, 2, stray);
    let far = image.symbol_named("far").expect("far").offset as usize / 4;
    let out_of_text = encode(Instruction::Br {
        ra: Reg::ZERO,
        disp: 1 << 19,
    });
    let image = patched(&image, far, out_of_text);
    let mut symbols = image.symbols().to_vec();
    let callee = symbols[2].clone();
    symbols.push(Symbol {
        name: "overlap".into(),
        offset: callee.offset + 4,
        size: 8,
    });
    symbols.push(Symbol {
        name: "empty".into(),
        offset: callee.offset,
        size: 0,
    });
    symbols.sort_by_key(|s| s.offset);
    Image::new(image.name().to_string(), image.words().to_vec(), symbols)
}

/// One procedure per dataflow lint.
fn dataflow_image() -> Image {
    let mut a = Asm::new("/fixture/dataflow");
    a.proc("dead");
    a.li(Reg::T0, 1);
    a.li(Reg::T0, 2);
    a.addq(Reg::T0, Reg::T0, Reg::V0);
    a.ret(Reg::RA);
    a.proc("uninit");
    a.addq(Reg::T3, Reg::A0, Reg::V0);
    a.ret(Reg::RA);
    a.proc("constant");
    let out = a.label();
    a.li(Reg::T0, 3);
    a.bne(Reg::T0, out);
    a.addq(Reg::A0, Reg::A0, Reg::V0);
    a.bind(out);
    a.ret(Reg::RA);
    a.proc("unbalanced");
    a.lda(Reg::SP, -16, Reg::SP);
    a.ret(Reg::RA);
    a.proc("clobber");
    a.li(Reg::S0, 1);
    a.ret(Reg::RA);
    a.proc("rises");
    a.lda(Reg::SP, 32, Reg::SP);
    a.lda(Reg::SP, -32, Reg::SP);
    a.ret(Reg::RA);
    a.proc("unknown");
    a.addq(Reg::SP, Reg::A0, Reg::SP);
    a.ret(Reg::RA);
    a.proc("deep");
    for _ in 0..3 {
        a.lda(Reg::SP, -32768, Reg::SP);
    }
    a.halt();
    a.finish()
}

/// `check_workloads`' counted loop.
fn loop_image() -> Image {
    let mut a = Asm::new("/fixture");
    a.proc("f");
    a.li(Reg::T0, 100);
    let top = a.here();
    a.addq_lit(Reg::T1, 3, Reg::T1);
    a.subq_lit(Reg::T0, 1, Reg::T0);
    a.bne(Reg::T0, top);
    a.halt();
    a.finish()
}

fn analyzed_loop() -> ProcAnalysis {
    let image = loop_image();
    let sym = image.symbols()[0].clone();
    let mut set = ProfileSet::new();
    set.add(ImageId(1), Event::Cycles, sym.offset, 10);
    for i in 1..4u64 {
        set.add(ImageId(1), Event::Cycles, sym.offset + i * 4, 1000);
    }
    analyze_procedure(
        &image,
        &sym,
        &set,
        ImageId(1),
        &PipelineModel::default(),
        &AnalysisOptions::default(),
    )
    .expect("analysis")
}

fn image_and_cfg_layers(g: &mut Golden, dir: &Path) {
    let lints = lint_image();
    g.report(
        "image: check_image over a damaged image",
        &check_image(&lints),
    );
    let mut registry = ImageRegistry::new();
    registry.insert(ImageId(1), Arc::new(lints.clone()));
    let mut set = ProfileSet::new();
    for sym in lints.symbols() {
        set.add(ImageId(1), Event::Cycles, sym.offset, 40);
    }
    g.report(
        "image: dcpicheck over the damaged image with samples",
        &dcpicheck_report(&set, &registry),
    );

    let flow = dir.join("dataflow.img");
    std::fs::write(&flow, dataflow_image().to_bytes()).expect("write image");
    g.report("image: dcpicheck dataflow", &dcpicheck_dataflow(&flow));
    let damaged = dir.join("lints.img");
    std::fs::write(&damaged, lints.to_bytes()).expect("write image");
    g.report(
        "image: dcpicheck dataflow over the damaged image",
        &dcpicheck_dataflow(&damaged),
    );
    let bogus = dir.join("bogus.img");
    std::fs::write(&bogus, b"not an image").expect("write bogus");
    g.report(
        "image: dcpicheck dataflow over a file that is not an image",
        &dcpicheck_dataflow(&bogus),
    );

    let image = loop_image();
    let sym = image.symbols()[0].clone();
    let built = Cfg::build(&image, &sym).expect("cfg");
    let audit = |tamper: &dyn Fn(&mut Cfg)| {
        let mut cfg = built.clone();
        tamper(&mut cfg);
        let mut report = Report::new();
        cfg_audit::check_cfg(&sym, &cfg, &mut report);
        report
    };
    let mut cfg = built.clone();
    let taken = cfg
        .edges
        .iter()
        .position(|e| e.kind == EdgeKind::Taken)
        .expect("a taken edge");
    cfg.edges[taken].to = BlockId(usize::from(cfg.edges[taken].to != BlockId(1)));
    g.report(
        "cfg: a taken edge retargeted mid-block",
        &check_procedure(&image, &sym, &cfg),
    );
    g.report(
        "cfg: block 0 overruns its successor",
        &audit(&|cfg| cfg.blocks[0].len += 1),
    );
    g.report(
        "cfg: entry, exit flags and an empty block",
        &audit(&|cfg| {
            cfg.entry = BlockId(1);
            let last = cfg.blocks.len() - 1;
            cfg.blocks[last].is_exit = false;
            let mut empty = cfg.blocks[last].clone();
            empty.start_word = empty.end_word();
            empty.len = 0;
            cfg.blocks.push(empty);
        }),
    );
    g.report(
        "cfg: edge kinds that contradict their terminators",
        &audit(&|cfg| {
            for e in &mut cfg.edges {
                e.kind = match e.kind {
                    EdgeKind::Taken => EdgeKind::FallThrough,
                    EdgeKind::FallThrough => EdgeKind::Indirect,
                    EdgeKind::Indirect => EdgeKind::Taken,
                };
            }
        }),
    );
}

fn estimate_layer(g: &mut Golden) {
    let check = |tamper: &dyn Fn(&mut ProcAnalysis)| {
        let mut pa = analyzed_loop();
        tamper(&mut pa);
        dcpi::check::check_analysis(&pa)
    };
    g.report("estimate: the untouched loop", &check(&|_| {}));
    g.report(
        "estimate: a block estimate off its class",
        &check(&|pa| {
            let b = pa
                .frequencies
                .block_freq
                .iter()
                .position(Option::is_some)
                .expect("an estimated block");
            pa.frequencies.block_freq[b]
                .as_mut()
                .expect("estimate")
                .value += 1.0;
            pa.insns[0].cpi += 1.0;
        }),
    );
    for (what, scale, shift) in [("grossly", 40.0, 1000.0), ("modestly", 1.6, 0.0)] {
        g.report(
            &format!("estimate: every edge estimate {what} off its blocks"),
            &check(&|pa| {
                let classes = frequency_classes(&pa.cfg);
                for (e, slot) in pa.frequencies.edge_freq.iter_mut().enumerate() {
                    if let Some(est) = slot.as_mut() {
                        est.value = est.value * scale + shift;
                        pa.frequencies.class_freq[classes.edge_class[e]] = *slot;
                    }
                }
            }),
        );
    }
    g.report(
        "estimate: labels, culprits, books and a NaN class",
        &check(&|pa| {
            let c = pa
                .frequencies
                .class_freq
                .iter()
                .position(|e| e.is_some_and(|e| e.source == EstimateSource::Propagated))
                .expect("a propagated class");
            pa.frequencies.class_freq[c]
                .as_mut()
                .expect("estimate")
                .confidence = Confidence::High;
            pa.insns[1].confidence = None;
            let ia = &mut pa.insns[2];
            ia.samples = (ia.freq * (ia.m as f64 + 10.0)) as u64;
            ia.culprits.clear();
            pa.insns[3].freq = 0.0;
            pa.summary.execution_pct += 7.5;
            pa.summary.total_samples += 1;
            if let Some((_, r)) = pa.summary.dynamic.first_mut() {
                r.min = -5.0;
            }
            pa.frequencies.class_freq.push(pa.frequencies.class_freq[c]);
            let last = pa.frequencies.class_freq.len() - 1;
            if let Some(est) = pa.frequencies.class_freq[last].as_mut() {
                est.value = f64::NAN;
            }
        }),
    );
}

/// `dcpicheck.rs`'s two-image database.
fn seed_db(root: &Path) {
    let mut db = ProfileDb::create(root, Format::V2).expect("create");
    db.record_image_name(ImageId(7), "/bin/app").expect("name");
    let mut set = ProfileSet::new();
    set.add(ImageId(7), Event::Cycles, 0x40, 12);
    set.add(ImageId(7), Event::IMiss, 0x44, 3);
    db.merge(&set).expect("merge");
}

fn seed_stacks(root: &Path, count: u64) {
    let db = ProfileDb::open(root, Format::V2).expect("open");
    let mut stacks = StackProfile::new();
    let f = |offset| Frame {
        image: ImageId(7),
        offset,
    };
    stacks.record(Event::Cycles.code(), Pid(1), &[f(0), f(0x40)], count);
    write_epoch_stacks(&db, db.current_epoch(), &stacks).expect("sidecar");
}

fn db_layer(g: &mut Golden, dir: &TempRoot) {
    let root = dir.subdir("damaged-db");
    seed_db(&root);
    let epoch = root.join("epoch_0000");
    let victim = epoch.join("00000007.cycles.prof");
    let data = std::fs::read(&victim).expect("profile");
    std::fs::write(&victim, &data[..data.len() / 2]).expect("truncate");
    std::fs::rename(
        epoch.join("00000007.imiss.prof"),
        epoch.join("00000007.imiss.prof.quar"),
    )
    .expect("quarantine");
    let mut db = ProfileDb::open(&root, Format::V2).expect("open");
    let mut set = ProfileSet::new();
    set.add(ImageId(9), Event::Cycles, 0x10, 5);
    db.merge(&set).expect("merge");
    std::fs::write(epoch.join("00000009.cycles.tmp"), b"partial").expect("tmp");
    std::fs::write(epoch.join("3.cycles.prof"), b"?").expect("misnamed");
    std::fs::write(epoch.join("readme"), b"?").expect("foreign");
    std::fs::create_dir(root.join("epoch_0005")).expect("gap");
    std::fs::create_dir(root.join("junk")).expect("junk dir");
    std::fs::write(root.join("notes.txt"), b"scratch").expect("notes");
    std::fs::write(root.join("images.tsv"), "7\t/bin/app\nbogus line\n").expect("names");
    g.report("db: a damaged database", &dcpicheck_db(&root));

    // `db_layout`'s one of each: one valid record under four names no
    // reader opens.
    let root = dir.subdir("one-of-each");
    seed_db(&root);
    let epoch = root.join("epoch_0000");
    let bytes = std::fs::read(epoch.join("00000007.cycles.prof")).expect("profile");
    for name in [
        "00000007.bogus.prof",
        "00000007.imiss.tmp",
        "00000007.imiss.prof.quar2",
        "notes.txt",
    ] {
        std::fs::write(epoch.join(name), &bytes).expect("plant");
    }
    std::fs::remove_file(root.join("images.tsv")).expect("unname");
    g.report("db: one of each, and no name map", &dcpicheck_db(&root));

    let empty = dir.subdir("empty-db");
    g.report("db: no epochs", &dcpicheck_db(&empty));
    g.report("db: no directory", &dcpicheck_db(&dir.join("absent")));
}

/// `obs_audit`'s sample snapshot plus whatever `more` records, wall
/// stamps masked.
fn sample_snapshot(more: impl FnOnce(&Obs)) -> Snapshot {
    let obs = Obs::new(&ObsConfig::on());
    obs.advance_cycle(100);
    obs.begin(Component::Daemon, "daemon.flush");
    obs.advance_cycle(200);
    obs.end(Component::Daemon, "daemon.flush", 5, 0);
    obs.event(Component::Driver, "driver.spill", 1, 0);
    obs.advance_cycle(300);
    obs.event(Component::Driver, "driver.spill", 2, 0);
    more(&obs);
    obs.histogram("daemon.flush_ns").observe(1000);
    let mut snap = obs.snapshot();
    snap.mask_wall();
    snap.metrics.counters.insert("driver.interrupts".into(), 42);
    snap.overhead = Some(OverheadLedger {
        total_cycles: 1_000_000,
        handler_cycles: 9_000,
        daemon_cycles: 3_000,
        walk_cycles: 0,
        samples: 20,
    });
    snap.samples = Some(dcpi_obs::LossLedger {
        generated: 20,
        attributed: 18,
        unknown: 1,
        driver_dropped: 1,
        crash_lost: 0,
        quarantined: 0,
    });
    snap
}

fn ring<'a>(snap: &'a mut Snapshot, component: &str) -> &'a mut dcpi_obs::RingSnapshot {
    snap.rings
        .iter_mut()
        .find(|r| r.component == component)
        .expect("ring")
}

/// Six sealed epochs' span chains, each broken its own way.
fn trace_snapshot() -> Snapshot {
    let obs = Obs::new(&ObsConfig::on());
    let mut events = vec![
        // (3,1): the visible lag payload disagrees with the seal tick.
        (Component::Session, "epoch.seal", 10, span_id(3, 1), 100),
        (Component::Session, "upload.send", 12, span_id(3, 1), 0),
        (Component::Server, "server.ack", 25, span_id(3, 1), 15),
        (Component::Server, "server.visible", 40, span_id(3, 1), 29),
        // (3,2): visible without a journal/ack.
        (Component::Session, "epoch.seal", 41, span_id(3, 2), 0),
        (Component::Session, "upload.send", 42, span_id(3, 2), 0),
        (Component::Server, "server.visible", 60, span_id(3, 2), 19),
        // (4,1): sealed twice, and sent before either seal.
        (Component::Session, "upload.send", 61, span_id(4, 1), 0),
        (Component::Session, "epoch.seal", 62, span_id(4, 1), 0),
        (Component::Session, "epoch.seal", 63, span_id(4, 1), 0),
        // (4,2): retried, then never visible in a quiesced fleet.
        (Component::Session, "epoch.seal", 64, span_id(4, 2), 0),
        (Component::Session, "upload.send", 65, span_id(4, 2), 0),
        (Component::Session, "upload.retry", 70, span_id(4, 2), 1),
        // (5,1): sent with no seal at all.
        (Component::Session, "upload.send", 71, span_id(5, 1), 0),
        // (5,2): acked with no send.
        (Component::Session, "epoch.seal", 72, span_id(5, 2), 0),
        (Component::Server, "server.ack", 80, span_id(5, 2), 8),
    ];
    events.sort_by_key(|e| e.2);
    for (component, name, cycle, a, b) in events {
        obs.event_at(component, name, cycle, a, b);
    }
    let mut snap = obs.snapshot();
    snap.mask_wall();
    snap.meta.insert("fleet_quiesced".into(), "true".into());
    snap
}

fn obs_layer(g: &mut Golden, dir: &Path) {
    let untouched = sample_snapshot(|_| {});
    g.report("obs: the untouched snapshot", &check_snapshot(&untouched));
    let mut snap = sample_snapshot(|obs| {
        obs.event(Component::Machine, "machine.switch", 0, 0);
        obs.begin(Component::Analyze, "analyze.cfg");
    });
    ring(&mut snap, "daemon").events[1].cycle = 0;
    ring(&mut snap, "driver").events[0].wall_ns = 7;
    let machine = ring(&mut snap, "machine");
    machine.capacity = 0;
    machine.overwritten = 3;
    snap.metrics
        .histograms
        .get_mut("daemon.flush_ns")
        .expect("histogram")
        .count += 1;
    snap.samples.as_mut().expect("ledger").generated += 5;
    snap.timeseries.capacity = 1;
    snap.timeseries.recorded = 1;
    snap.timeseries.points = vec![
        TimePoint {
            tick: 5,
            ..TimePoint::default()
        },
        TimePoint {
            tick: 3,
            ..TimePoint::default()
        },
    ];
    g.report(
        "obs: a backwards ring stamp, broken accounting, an open span",
        &check_snapshot(&snap),
    );
    let snap = sample_snapshot(|obs| obs.end(Component::Machine, "machine.quantum", 0, 0));
    g.report(
        "obs: a span that ends without a begin",
        &check_snapshot(&snap),
    );
    for (what, handler_cycles) in [
        ("inconsistent", 2_000_000),
        ("above the ceiling", 500_000),
        ("outside the band", 90_000),
    ] {
        let mut snap = sample_snapshot(|_| {});
        snap.overhead.as_mut().expect("ledger").handler_cycles = handler_cycles;
        g.report(&format!("obs: overhead {what}"), &check_snapshot(&snap));
    }
    g.report(
        "obs: six broken span chains",
        &check_snapshot(&trace_snapshot()),
    );
    g.report(
        "obs: an export that is not JSON",
        &check_obs_export("not json"),
    );
    g.report("obs: no export", &dcpicheck_obs(&dir.join("absent.json")));
}

/// Writes an (old, new, map) triple where `dcpicheck pgo|tv` read it.
fn put_rewrite(
    dir: &TempRoot,
    tag: &str,
    old: &Image,
    new: &Image,
    map: &AddressMap,
) -> [PathBuf; 3] {
    let dir = dir.subdir(tag);
    let paths = ["old.img", "new.img", "map.json"].map(|name| dir.join(name));
    std::fs::write(&paths[0], old.to_bytes()).expect("old");
    std::fs::write(&paths[1], new.to_bytes()).expect("new");
    std::fs::write(&paths[2], map.to_json()).expect("map");
    paths
}

fn pgo_and_tv_layers(g: &mut Golden, dir: &TempRoot) -> String {
    let opts = RunOptions {
        seed: 1,
        scale: 1,
        period: (2_000, 2_200),
        limit: 400_000_000,
        ..RunOptions::default()
    };
    let out = pgo_workload(Workload::AltaVista, &opts, 25).expect("altavista PGO loop");
    assert!(out.report.validated, "the rewrite must prove");
    assert!(out.report.tv_segments > 0 && out.report.tv_proved == out.report.tv_segments);
    let (old, new, map) = (out.old_image, out.new_image, out.map);
    let tv_opts = tv::TvOptions {
        code_base: MAIN_BASE.0,
    };
    let paths = put_rewrite(dir, "clean-rewrite", &old, &new, &map);
    let [o, n, m] = paths.each_ref().map(PathBuf::as_path);
    g.report("pgo: altavista's rewrite", &dcpicheck_pgo(o, n, m));
    let res = dcpicheck_tv(o, n, m);
    assert!(res.report.is_clean() && res.proved == res.segments);
    g.report("tv: altavista's rewrite", &res.report);

    // `tv_corrupt`'s three families, on the first word each applies to.
    let first = |pick: &dyn Fn(Instruction) -> Option<Instruction>| {
        new.words()
            .iter()
            .enumerate()
            .find_map(|(w, &word)| Some((w, encode(pick(decode(word).ok()?)?))))
            .expect("a word to corrupt")
    };
    let (w, flipped) = first(&|i| match i {
        Instruction::CondBr { cond, ra, disp } => Some(Instruction::CondBr {
            cond: invert_cond(cond),
            ra,
            disp,
        }),
        _ => None,
    });
    let flipped = patched(&new, w, flipped);
    let (w, dropped) = first(&|i| {
        matches!(i, Instruction::Stq { .. }).then(|| decode(encode_nop()).expect("nop"))
    });
    let dropped = patched(&new, w, dropped);
    let (w, skewed) = first(&|i| match i {
        Instruction::Br { ra, disp } if ra == Reg::ZERO => {
            Some(Instruction::Br { ra, disp: disp + 1 })
        }
        _ => None,
    });
    let skewed = patched(&new, w, skewed);
    let mut tv_doc = String::new();
    for (what, bad) in [
        ("a flipped branch sense", &flipped),
        ("a dropped store", &dropped),
        ("a skewed branch displacement", &skewed),
    ] {
        g.report(&format!("pgo: {what}"), &check_rewrite(&old, bad, &map));
        let res = tv::validate_with(&old, bad, &map, &tv_opts);
        g.report(
            &format!("tv: {what} ({}/{} proved)", res.proved, res.segments),
            &res.report,
        );
        if tv_doc.is_empty() {
            let [o, n, m] = put_rewrite(dir, "flipped-rewrite", &old, bad, &map);
            tv_doc = dcpicheck_tv(&o, &n, &m).to_json();
        }
    }

    // Maps that do not fit their images.
    let words = old.words().len();
    let mut renamed = AddressMap::identity("/elsewhere/old", "/elsewhere/new", words);
    renamed.new_words += 1;
    g.report(
        "pgo: an identity map with the wrong names and new length",
        &check_rewrite(&old, &old, &renamed),
    );
    let short = AddressMap::identity(old.name(), new.name(), words - 1);
    g.report("pgo: a short map", &check_rewrite(&old, &new, &short));
    let res = tv::validate_with(&old, &new, &short, &tv_opts);
    g.report("tv: a short map", &res.report);
    let mut shared = map.clone();
    shared.set(1, map.get(0).expect("mapped"));
    g.report(
        "pgo: two old words on one new word",
        &check_rewrite(&old, &new, &shared),
    );
    let res = tv::validate_with(&old, &new, &shared, &tv_opts);
    g.report("tv: two old words on one new word", &res.report);
    let absent = dir.join("absent");
    let missing = [
        absent.join("old.img"),
        absent.join("new.img"),
        absent.join("map.json"),
    ];
    let [o, n, m] = missing.each_ref().map(PathBuf::as_path);
    g.report("pgo: no artifacts", &dcpicheck_pgo(o, n, m));
    g.report("tv: no artifacts", &dcpicheck_tv(o, n, m).report);
    tv_doc
}

fn encode_nop() -> u32 {
    encode(Instruction::IntOp {
        op: dcpi::isa::insn::IntOp::Bis,
        ra: Reg::ZERO,
        rb: dcpi::isa::insn::RegOrLit::Reg(Reg::ZERO),
        rc: Reg::ZERO,
    })
}

fn upload(agent: u32, seq: u64, ledger: LossLedger) -> Vec<u8> {
    let batch = EpochBatch {
        profiles: vec![(ImageId(3), Event::Cycles, [(0x40, 5)].into_iter().collect())],
        image_names: vec![(ImageId(3), "/bin/app".to_owned())],
        ledger,
        ..EpochBatch::default()
    };
    encode_msg(&Msg::Upload {
        agent,
        incarnation: 1,
        seq,
        batch,
    })
}

fn fleet_layer(g: &mut Golden, dir: &TempRoot) {
    let root = dir.subdir("fleet");
    let five = LossLedger {
        generated: 5,
        attributed: 5,
        ..LossLedger::default()
    };
    let leaky = LossLedger {
        generated: 6,
        ..five
    };
    let mut server = IngestServer::create(ServerConfig::new(&root)).expect("create");
    assert_eq!(server.on_frame(0, &upload(1, 1, five)).len(), 1, "acked");
    server.merge_queue(1).expect("merge");
    drop(server);
    g.report("fleet: a clean root", &check_fleet(&root));

    let mut wal = Journal::open(&root).expect("journal");
    wal.append_frame(&upload(1, 3, five)).expect("gap");
    wal.append_frame(&upload(1, 2, leaky)).expect("repeat");
    wal.append_frame(b"not an upload").expect("garbage");
    wal.append_intent(4, &[(1, 3)]).expect("intent");
    drop(wal);
    let mut bytes = std::fs::read(root.join(WAL_FILE)).expect("wal");
    bytes.extend_from_slice(&[0xde, 0xad, 0xbe]);
    std::fs::write(root.join(WAL_FILE), bytes).expect("torn tail");
    std::fs::write(
        root.join("fleet.json"),
        "{\"conserves\": false, \"ledger\": {\"generated\": 1}}\n",
    )
    .expect("fleet.json");
    g.report("fleet: a tampered root", &check_fleet(&root));
    std::fs::write(root.join("fleet.json"), "{\"conserves\": tru").expect("fleet.json");
    std::fs::remove_dir_all(root.join("db")).expect("drop the database");
    g.report("fleet: no database, torn fleet.json", &check_fleet(&root));
    g.report("fleet: no root", &check_fleet(&dir.join("absent")));
}

fn stacks_layer(g: &mut Golden, dir: &TempRoot) {
    let deep = dir.join("deep-recursion");
    let opts = RunOptions {
        seed: 7,
        period: (6_000, 6_400),
        limit: 200_000_000,
        db_path: Some(deep.clone()),
        stack_walk: true,
        ..RunOptions::default()
    };
    let r = run_workload(Workload::DeepRecursion, ProfConfig::Cycles, &opts);
    assert!(r.samples > 0, "deep-recursion: no samples");
    let stacks = dcpicheck_stacks(&deep);
    assert!(stacks.is_clean(), "{}", stacks.render());
    g.report("stacks: deep-recursion, stack-walked", &stacks);
    let db = dcpicheck_db(&deep);
    assert!(db.is_clean(), "{}", db.render());
    g.report("db: deep-recursion, stack-walked", &db);

    let root = dir.subdir("stacks-skew");
    seed_db(&root);
    seed_stacks(&root, 9);
    g.report(
        "stacks: fewer stack samples than flat",
        &dcpicheck_stacks(&root),
    );
    let root = dir.subdir("stacks-torn");
    seed_db(&root);
    seed_stacks(&root, 12);
    let sidecar = root.join("epoch_0000").join(STACKS_FILE);
    let bytes = std::fs::read(&sidecar).expect("sidecar");
    std::fs::write(&sidecar, &bytes[..bytes.len() - 3]).expect("tear");
    g.report("stacks: a torn sidecar", &dcpicheck_stacks(&root));
    g.report("db: a torn sidecar", &dcpicheck_db(&root));
    let root = dir.subdir("stackless");
    seed_db(&root);
    g.report("stacks: no sidecars", &dcpicheck_stacks(&root));
    g.report(
        "stacks: no database",
        &dcpicheck_stacks(&dir.join("absent")),
    );
}

#[test]
fn every_layer_says_what_it_said_when_recorded() {
    let dir = TempRoot::new("diagnostics");
    let mut g = Golden {
        out: String::new(),
        reached: BTreeSet::new(),
    };
    image_and_cfg_layers(&mut g, &dir);
    estimate_layer(&mut g);
    db_layer(&mut g, &dir);
    obs_layer(&mut g, &dir);
    let tv_doc = pgo_and_tv_layers(&mut g, &dir);
    fleet_layer(&mut g, &dir);
    stacks_layer(&mut g, &dir);
    let _ = writeln!(g.out, "== dcpicheck tv --json, a flipped branch sense");
    g.out.push_str(&tv_doc);

    let all: BTreeSet<String> = Category::ALL.into_iter().map(label).collect();
    assert_eq!(all.len(), Category::ALL.len(), "category names are unique");
    let listed: BTreeSet<String> = UNREACHED.iter().map(|&(c, _)| c.to_owned()).collect();
    let unreached: BTreeSet<String> = all.difference(&g.reached).cloned().collect();
    assert_eq!(
        unreached, listed,
        "UNREACHED must list exactly what no fixture reaches"
    );
    let _ = writeln!(g.out, "== categories no fixture reaches");
    for (category, why) in UNREACHED {
        let _ = writeln!(g.out, "{category}: {why}");
    }

    let now = g.out.replace(&dir.display().to_string(), "<tmp>");
    let golden = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/diagnostics.txt");
    if std::env::var("DCPI_BLESS").is_ok() {
        std::fs::write(&golden, &now).expect("write the golden file");
    }
    let recorded = std::fs::read_to_string(&golden).expect("committed golden file");
    let first = recorded
        .lines()
        .zip(now.lines())
        .position(|(a, b)| a != b)
        .unwrap_or_else(|| recorded.lines().count().min(now.lines().count()));
    let section = now
        .lines()
        .take(first + 1)
        .filter(|l| l.starts_with("== "))
        .last()
        .unwrap_or("(before any section)");
    assert!(
        recorded == now,
        "the diagnostics moved at line {} in `{section}`:\n  recorded {:?}\n  now      {:?}",
        first + 1,
        recorded.lines().nth(first),
        now.lines().nth(first)
    );
}
