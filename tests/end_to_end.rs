//! Integration tests spanning the whole pipeline: machine → driver →
//! daemon → database → analysis → tools.

use dcpi::analyze::analysis::{analyze_procedure, AnalysisOptions};
use dcpi::analyze::culprit::DynamicCause;
use dcpi::check::{check_analysis, check_image};
use dcpi::collect::session::{ProfiledRun, SessionConfig};
use dcpi::collect::wire::{encode_msg, Msg};
use dcpi::core::db::ProfileDb;
use dcpi::core::{codec, golden, Event};
use dcpi::isa::pipeline::PipelineModel;
use dcpi::machine::counters::CounterConfig;
use dcpi::server::journal::{Journal, WAL_FILE, WAL_TMP_FILE};
use dcpi::server::{check_fleet, AgentScript, IngestServer, ServerConfig};
use dcpi::tools::{dcpicalc, dcpiprof, dcpistats, dcpisumm, ImageRegistry};
use dcpi::workloads::programs::StreamKind;
use dcpi::workloads::{run_workload, ProfConfig, RunOptions, Workload};
use dcpi_bench::program_cycles_per_sample;
use dcpi_testkit::{copy_tree, snapshot, TempRoot};
use std::path::Path;

fn quick(scale: u32, period: (u64, u64)) -> RunOptions {
    RunOptions {
        seed: 7,
        scale,
        period,
        limit: 2_000_000_000,
        ..RunOptions::default()
    }
}

/// The headline path: profile the copy loop, analyze it, and check the
/// paper's Figure 2 shapes — best-case CPI, store culprits, and a
/// frequency estimate close to the simulator's exact counts.
#[test]
fn copy_loop_full_pipeline() {
    let opts = quick(4, (20_000, 21_600));
    let r = run_workload(
        Workload::McCalpin(StreamKind::Copy),
        ProfConfig::Cycles,
        &opts,
    );
    assert!(r.samples > 300, "samples = {}", r.samples);
    let (id, image) = r
        .images
        .iter()
        .find(|(_, img)| img.name().contains("mccalpin_copy"))
        .expect("copy image");
    let sym = image.symbols()[0].clone();
    let pa = analyze_procedure(
        image,
        &sym,
        &r.profiles,
        *id,
        &PipelineModel::default(),
        &AnalysisOptions::default(),
    )
    .expect("analysis");

    // Figure 2's best-case CPI for the unrolled loop is 8/13 ≈ 0.62; our
    // procedure includes a short prologue, so allow a band.
    let best = pa.best_case_cpi();
    assert!((0.55..=0.75).contains(&best), "best-case CPI {best}");
    assert!(pa.actual_cpi() > 2.0 * best, "memory-bound loop must stall");

    // Stores must list the paper's culprits.
    let store = pa
        .insns
        .iter()
        .find(|ia| ia.insn.is_store() && !ia.culprits.is_empty())
        .expect("a stalled store");
    let causes: Vec<_> = store.culprits.iter().map(|c| c.cause).collect();
    assert!(causes.contains(&DynamicCause::WriteBuffer), "{causes:?}");
    assert!(causes.contains(&DynamicCause::DtbMiss), "{causes:?}");

    // Frequency estimates within 25% of exact counts at this density.
    let p = program_cycles_per_sample(r.overhead.as_ref().expect("profiled"));
    let hot = pa
        .insns
        .iter()
        .max_by_key(|ia| ia.samples)
        .expect("instructions");
    let truth = r.gt.insn_count(*id, hot.offset) as f64;
    let est = hot.freq * p;
    assert!(
        (est / truth - 1.0).abs() < 0.25,
        "estimate {est:.0} vs truth {truth:.0}"
    );

    // The rendered listing carries the bubbles.
    let text = dcpicalc(&pa, 0x10000);
    assert!(text.contains("(dual issue)"));
    assert!(text.contains("w = write-buffer overflow"));

    // The dcpicheck invariants hold for the image and the analysis:
    // round-trips, CFG structure, flow conservation, culprit books.
    let checked = check_image(image);
    assert!(checked.is_clean(), "{}", checked.render());
    let checked = check_analysis(&pa);
    assert!(checked.is_clean(), "{}", checked.render());
}

/// Whole-system coverage: multiple processes, shared kernel, everything
/// attributed (paper: unknown samples typically 0.05%, always < 1%).
#[test]
fn whole_system_attribution() {
    let mut cfg = SessionConfig::default();
    cfg.machine.cpus = 2;
    cfg.machine.counters = CounterConfig::cycles_only((5_000, 5_400));
    let mut run = ProfiledRun::new(cfg).expect("session");
    let img = run.register_image(dcpi::workloads::programs::compile_image(4));
    for cpu in 0..2 {
        for _ in 0..3 {
            run.spawn(cpu, img, &[], |_| {});
        }
    }
    run.run_to_completion(2_000_000_000);
    assert!(run.machine.total_samples() > 200);
    assert!(
        run.daemon.unknown_fraction() < 0.01,
        "unknown = {:.4}",
        run.daemon.unknown_fraction()
    );
    // Conservation: interrupts == samples reaching daemon + drops.
    let d = run.machine.sink.total_stats();
    assert_eq!(
        d.interrupts,
        run.daemon.stats.samples + d.dropped,
        "sample conservation"
    );
    // dcpiprof renders with kernel and app images.
    let registry = ImageRegistry::from_os(&run.machine.os);
    let text = dcpiprof(run.profiles(), &registry, Event::IMiss, 30);
    assert!(text.contains("cc1"), "{text}");
}

/// Profiles survive the on-disk database round trip and can be read by a
/// fresh handle (epochs, image names, merge-on-write).
#[test]
fn database_round_trip() {
    let dir = TempRoot::new("e2e-db");
    let mut opts = quick(2, (10_000, 10_800));
    opts.db_path = Some(dir.to_path_buf());
    let r = run_workload(Workload::X11Perf, ProfConfig::Default, &opts);
    assert!(r.disk_bytes > 0);
    // Reopen from disk and compare totals.
    let db = ProfileDb::open(&dir, codec::Format::V2).expect("open");
    let set = db.read_all().expect("read");
    assert_eq!(
        set.event_total(Event::Cycles),
        r.profiles.event_total(Event::Cycles)
    );
    assert!(db
        .image_name(r.kernel_image)
        .is_some_and(|n| n.contains("vmunix")));
}

/// dcpistats across seeds isolates the page-placement-sensitive
/// procedure, as in §3.3.
#[test]
fn wave5_variance_isolated_to_smooth() {
    let mut sets = Vec::new();
    let mut registry = ImageRegistry::new();
    for k in 0..4 {
        let mut opts = quick(2, (10_000, 10_800));
        opts.seed = 11 + 31 * k;
        let r = run_workload(Workload::Wave5, ProfConfig::Cycles, &opts);
        for (id, img) in &r.images {
            registry.insert(*id, img.clone());
        }
        sets.push(r.profiles);
    }
    let rows = dcpi::tools::dcpistats::dcpistats_rows(&sets, &registry, Event::Cycles);
    // smooth_ must rank in the top two by normalized range among
    // procedures with a meaningful share of samples.
    let significant: Vec<_> = rows.iter().filter(|r| r.sum_pct > 3.0).collect();
    let pos = significant
        .iter()
        .position(|r| r.name == "smooth_")
        .expect("smooth_ profiled");
    assert!(
        pos <= 1,
        "smooth_ should top the range%: {:?}",
        significant
            .iter()
            .map(|r| (&r.name, r.range_pct))
            .collect::<Vec<_>>()
    );
    let text = dcpistats(&sets, &registry, Event::Cycles, 25);
    assert!(text.contains("smooth_"));
}

/// Same seed ⇒ identical simulation, sampling, and profiles.
#[test]
fn runs_are_deterministic() {
    let go = || {
        let opts = quick(1, (8_000, 8_600));
        let r = run_workload(Workload::Gcc, ProfConfig::Cycles, &opts);
        (r.cycles, r.samples, r.profiles.event_total(Event::Cycles))
    };
    assert_eq!(go(), go());
}

/// Profiling overhead scales down as the sampling period grows (§5.1's
/// low-overhead claim depends on the 60K+ default period).
#[test]
fn overhead_shrinks_with_period() {
    let run_with = |period| {
        let opts = quick(2, period);
        run_workload(
            Workload::McCalpin(StreamKind::Sum),
            ProfConfig::Cycles,
            &opts,
        )
        .cycles as f64
    };
    let base = {
        let opts = quick(2, (60 * 1024, 64 * 1024));
        run_workload(Workload::McCalpin(StreamKind::Sum), ProfConfig::Base, &opts).cycles as f64
    };
    let dense = run_with((2_000, 2_200));
    let sparse = run_with((60 * 1024, 64 * 1024));
    let dense_ovh = dense / base - 1.0;
    let sparse_ovh = sparse / base - 1.0;
    assert!(
        sparse_ovh < dense_ovh / 3.0,
        "sparse {sparse_ovh:.3} vs dense {dense_ovh:.3}"
    );
    assert!(
        sparse_ovh < 0.05,
        "default-period overhead should be a few percent: {sparse_ovh:.3}"
    );
}

/// The fleet path under the Tier-1 command: two agents upload two epochs
/// each through an `IngestServer` that merges after each round. At three
/// crash points of the second round — a frame journaled but not merged,
/// the merge intent journaled, the merge landed and the checkpoint
/// written but not yet renamed over the log — the root is reopened and
/// the run finished; each must end byte-identical to the run that never
/// crashed. (`crates/server/tests/crash_points.rs` visits every point.)
#[test]
fn fleet_server_recovers_identically_at_three_crash_points() {
    let base = TempRoot::new("e2e-fleet");
    let frame = |agent: u32, seq: u64| {
        let script = AgentScript::generate(agent, 5, 2, 128);
        encode_msg(&Msg::Upload {
            agent,
            incarnation: 1,
            seq,
            batch: script.epochs[seq as usize - 1].clone(),
        })
    };
    let snap = |name: &str| base.join(name);
    let live = snap("live");
    let mut server = IngestServer::create(ServerConfig::new(&live)).unwrap();
    for agent in 0..2 {
        assert_eq!(server.on_frame(1, &frame(agent, 1)).len(), 1);
    }
    server.merge_queue(2).unwrap();
    server.on_frame(3, &frame(0, 2));
    copy_tree(&live, &snap("one-frame"));
    server.on_frame(4, &frame(1, 2));
    copy_tree(&live, &snap("queued"));
    server.finish(5).unwrap();
    let ledger = server.ledger();
    drop(server);
    let want = snapshot(&live);
    assert!(ledger.conserves() && check_fleet(&live).is_clean());

    // The intent journaled, the merge not begun.
    copy_tree(&snap("queued"), &snap("intent"));
    let journal_intent = |root: &Path| {
        let mut wal = Journal::open(root).unwrap();
        wal.append_intent(1, &[(0, 2), (1, 2)]).unwrap();
    };
    journal_intent(&snap("intent"));
    // The merge landed, the checkpoint sits in the scratch file.
    copy_tree(&live, &snap("scratch"));
    std::fs::rename(
        snap("scratch").join(WAL_FILE),
        snap("scratch").join(WAL_TMP_FILE),
    )
    .unwrap();
    std::fs::copy(
        snap("queued").join(WAL_FILE),
        snap("scratch").join(WAL_FILE),
    )
    .unwrap();
    journal_intent(&snap("scratch"));

    for (point, unsent) in [
        ("one-frame", Some(frame(1, 2))),
        ("intent", None),
        ("scratch", None),
    ] {
        let root = snap(point);
        let mut server = IngestServer::reopen(ServerConfig::new(&root), 4).unwrap();
        if let Some(frame) = unsent {
            assert_eq!(server.stats.replayed_batches, 1, "{point}");
            server.on_frame(4, &frame);
        }
        server.finish(5).unwrap();
        assert_eq!(server.ledger(), ledger, "{point}");
        drop(server);
        assert!(
            snapshot(&root) == want,
            "{point}: tree differs from the uncrashed run"
        );
        let audit = check_fleet(&root);
        assert!(audit.is_clean(), "{point}:\n{}", audit.render());
    }
}

/// The listings of the three hottest x11perf procedures of a fixed-seed
/// run match a committed golden byte for byte: the Tier-1 slice of
/// `crates/tools/tests/calc_golden.rs`, which pins every sampled
/// procedure of gcc and x11perf. Regenerate with `DCPI_BLESS=1`.
#[test]
fn three_procedure_listings_match_the_committed_golden() {
    let opts = RunOptions {
        seed: 11,
        period: (6_000, 6_400),
        limit: 400_000_000,
        ..RunOptions::default()
    };
    let r = run_workload(Workload::X11Perf, ProfConfig::Default, &opts);
    let mut procs = Vec::new();
    for (id, image) in &r.images {
        let Some(profile) = r.profiles.get(*id, Event::Cycles) else {
            continue;
        };
        for sym in image.symbols() {
            let samples = profile.range_total(sym.offset, sym.offset + sym.size);
            procs.push((std::cmp::Reverse(samples), *id, image, sym));
        }
    }
    procs.sort_by_key(|&(samples, id, _, sym)| (samples, id, sym.offset));
    let mut text = String::new();
    for &(_, id, image, sym) in &procs[..3] {
        let pa = analyze_procedure(
            image,
            sym,
            &r.profiles,
            id,
            &PipelineModel::default(),
            &AnalysisOptions::default(),
        )
        .expect("analysis");
        text.push_str(&format!("=== {} {}\n", image.name(), sym.name));
        text.push_str(&dcpicalc(&pa, dcpi::machine::os::MAIN_BASE.0));
        text.push_str(&dcpisumm(&pa));
    }
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/calc-x11perf-top3.txt");
    let moved = golden::check(&path, &text, Some("=== ")).expect("write the golden file");
    assert!(
        moved.is_empty(),
        "the listings moved:\n{}",
        moved.join("\n")
    );
}
