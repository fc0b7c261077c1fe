//! Drives the installed CLI binaries against a freshly written profile
//! database, end to end through real processes.

use dcpi_collect::faults::{CrashFault, FaultPlan, StallWindow};
use dcpi_collect::session::{ProfiledRun, SessionConfig};
use dcpi_isa::asm::Asm;
use dcpi_isa::reg::Reg;
use dcpi_machine::counters::CounterConfig;
use dcpi_obs::ObsConfig;
use dcpi_testkit::TempRoot;
use std::process::Command;

fn write_db(dir: &std::path::Path, seed: u32) {
    let mut cfg = SessionConfig::default();
    cfg.machine.counters = CounterConfig::default_config((4_000, 4_400));
    cfg.machine.seed = seed;
    cfg.daemon.db_path = Some(dir.to_path_buf());
    let mut run = ProfiledRun::new(cfg).expect("session");
    let mut a = Asm::new("/bin/cli_app");
    a.proc("hot_loop");
    a.mov(Reg::A1, Reg::T0);
    let top = a.here();
    a.ldq(Reg::T4, 0, Reg::T1);
    a.addq(Reg::T4, Reg::V0, Reg::V0);
    a.lda(Reg::T1, 64, Reg::T1);
    a.subq_lit(Reg::T0, 1, Reg::T0);
    a.bne(Reg::T0, top);
    a.ret(Reg::RA);
    a.proc("main");
    let entry = a.proc_offsets()[0].1;
    a.li(Reg::A1, 300_000);
    a.li(Reg::T12, dcpi_machine::os::MAIN_BASE.0 as i64 + entry);
    a.jsr(Reg::RA, Reg::T12);
    a.halt();
    let id = run.register_image(a.finish());
    run.spawn(0, id, &[], |_| {});
    run.run_to_completion(4_000_000_000);
    assert!(run.machine.total_samples() > 100);
}

/// Profiles a short run with observability and fault injection on, and
/// exports the snapshot as a sibling of the database directory (obs
/// exports must not live inside the db root — `dcpicheck db` flags
/// foreign files there).
fn write_obs_export(dir: &std::path::Path) -> std::path::PathBuf {
    let mut cfg = SessionConfig::default();
    // The paper-scale period keeps the audited overhead fraction small.
    cfg.machine.counters = CounterConfig::cycles_only((60_000, 64_000));
    cfg.daemon.db_path = Some(dir.to_path_buf());
    cfg.poll_quantum = 50_000;
    cfg.flush_interval = 500_000;
    cfg.obs = ObsConfig::on();
    cfg.faults = FaultPlan {
        stalls: vec![StallWindow {
            from: 2_000_000,
            until: 3_000_000,
        }],
        crashes: vec![CrashFault {
            at_cycle: 8_000_000,
            corrupt: None,
            victim_pick: 7,
            stray_tmp: false,
        }],
        notif_drop_period: 0,
        notif_delay: 0,
        torn_flushes: vec![5_000_000],
    };
    let mut run = ProfiledRun::new(cfg).expect("session");
    let mut a = Asm::new("/bin/obs_app");
    a.proc("spin");
    a.li(Reg::T0, 2_000_000);
    let top = a.here();
    a.subq_lit(Reg::T0, 1, Reg::T0);
    a.bne(Reg::T0, top);
    a.halt();
    let id = run.register_image(a.finish());
    run.spawn(0, id, &[], |_| {});
    run.run_for(20_000_000);
    run.finish();
    let path = dir.with_extension("obs.json");
    std::fs::write(&path, run.obs_snapshot().to_json()).expect("write export");
    path
}

fn bin(name: &str) -> Command {
    Command::new(env!("CARGO_BIN_EXE_dcpiprof").replace("dcpiprof", name))
}

/// Nothing typed is ignored: every tool turns an unknown flag, a surplus
/// positional, an unparsable value and a missing value into exit 2 with
/// the offending word and the usage line on stderr, nothing on stdout,
/// and nothing on disk — the command line is finished before any file
/// is touched, so none of the paths below needs to exist (or may, after).
#[test]
fn every_tool_rejects_what_it_does_not_read() {
    let root = TempRoot::new("cli-contract");
    let nowhere = root.join("nowhere");
    let p = nowhere.to_str().unwrap();
    for tool in dcpi_tools::TOOL_NAMES {
        // A well-formed command line, and one valued flag if there is any.
        // (`dcpistats` takes any number of directories, so no positional
        // is surplus to it; `dcpistat --watch`'s value is optional.)
        let (good, valued): (Vec<&str>, Option<&str>) = match *tool {
            "dcpiprof" => (vec![p], Some("--limit")),
            "dcpicalc" | "dcpisumm" | "dcpicfg" => (vec![p, "proc"], None),
            "dcpistats" | "dcpidiff" => (vec![p, p], None),
            "dcpicheck" => (vec!["db", p], None),
            "dcpistat" => (vec![p], None),
            "dcpitop" => (vec!["--flame", p, "title"], None),
            "dcpitrace" => (vec![p], Some("--epoch")),
            "dcpipgo" => (vec!["altavista", p], Some("--seed")),
            "dcpifleet" => (vec!["run", p], Some("--agents")),
            other => panic!("no contract row for {other}"),
        };
        let mut bad: Vec<(Vec<&str>, &str)> = vec![(vec!["--bogus"], "--bogus")];
        if *tool != "dcpistats" {
            bad.push((vec!["surplus-word"], "surplus-word"));
        }
        if let Some(flag) = valued {
            bad.push((vec![flag, "x!y"], "x!y"));
            bad.push((vec![flag], flag));
        }
        for (extra, word) in bad {
            let out = bin(tool).args(&good).args(&extra).output().unwrap();
            let err = String::from_utf8_lossy(&out.stderr);
            let what = format!("{tool} {good:?} {extra:?}: {err}");
            assert_eq!(out.status.code(), Some(2), "{what}");
            assert!(err.contains(word), "{what}");
            assert!(err.contains("usage: "), "{what}");
            assert!(out.stdout.is_empty(), "{what}");
            assert!(!nowhere.exists(), "{what}");
        }
    }
}

/// An obs export is `dcpistat`'s, with or without `--watch`; `dcpitop`
/// reads only `--flame`. (The repaint loop itself never returns, so it
/// is not run here.)
#[test]
fn an_obs_export_is_read_by_dcpistat_alone() {
    let root = TempRoot::new("cli-modes");
    let nowhere = root.join("fleet-obs.json");
    let p = nowhere.to_str().unwrap();
    // A surplus word without `--watch` is the contract test's.
    let cases: [(&str, Vec<&str>, &str); 3] = [
        ("dcpitop", vec![p], "dcpistat"),
        ("dcpistat", vec![p, "--watch", "x"], "`x`"),
        ("dcpistat", vec![p, "--watch", "3", "extra"], "extra"),
    ];
    for (tool, args, word) in cases {
        let out = bin(tool).args(&args).output().unwrap();
        let err = String::from_utf8_lossy(&out.stderr);
        let what = format!("{tool} {args:?}: {err}");
        assert_eq!(out.status.code(), Some(2), "{what}");
        assert!(err.contains(word), "{what}");
        assert!(err.contains("usage: "), "{what}");
        assert!(out.stdout.is_empty(), "{what}");
    }
}

/// The integers of `text` in order, words such as `p50` skipped.
fn integers(text: &str) -> Vec<u64> {
    text.split(|c: char| c.is_whitespace() || "/();".contains(c))
        .filter_map(|w| w.parse().ok())
        .collect()
}

/// One seeded fleet with a server outage, obs on: `dcpistat`'s lag
/// line, `dcpifleet run`'s `lag:` line and `fleet.json`'s `lag` object
/// carry the same p50/p95/p99/max and epoch count, all in ticks.
#[test]
fn the_one_lag_summary_reaches_every_output() {
    let root = TempRoot::new("one-lag");
    let fleet = root.join("fleet");
    let obs = root.join("fleet-obs.json");
    let (fleet_arg, obs_arg) = (fleet.to_str().unwrap(), obs.to_str().unwrap());
    let out = bin("dcpifleet")
        .args([
            "run", fleet_arg, "--agents", "6", "--seed", "5", "--obs", obs_arg,
        ])
        .output()
        .unwrap();
    let run = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{run}");
    assert!(
        !run.contains(" 0 server crash(es)"),
        "the fleet is faulted: {run}"
    );
    let lag_line = run
        .lines()
        .find(|l| l.starts_with("lag: "))
        .expect("lag line");

    let out = bin("dcpistat").arg(obs_arg).output().unwrap();
    let stat = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stat}");
    let stat_lines: Vec<&str> = stat.lines().filter(|l| l.contains("ingest lag ")).collect();
    assert_eq!(stat_lines.len(), 1, "{stat}");
    assert!(!stat.contains("stalest"), "{stat}");

    let json = std::fs::read_to_string(fleet.join("fleet.json")).unwrap();
    let doc = dcpi_core::json::parse(&json).unwrap();
    let lag = doc.get("lag").expect("a lag object");
    let keys = ["p50", "p95", "p99", "max", "samples"];
    let report: Vec<u64> = keys.iter().map(|k| lag.int(k).unwrap()).collect();
    assert!(report[4] > 0, "epochs were merged: {json}");

    assert_eq!(integers(lag_line), report, "dcpifleet: {lag_line}");
    assert_eq!(integers(&stat_lines.join("\n")), report, "dcpistat: {stat}");
    for line in std::iter::once(lag_line).chain(stat_lines) {
        assert!(line.contains("tick(s)"), "{line}");
        assert!(!line.contains("cycle"), "{line}");
    }
}

#[test]
fn cli_binaries_work_on_a_real_database() {
    let root = TempRoot::new("cli-test");
    let (dir, dir2) = (root.join("first"), root.join("second"));
    write_db(&dir, 1);
    write_db(&dir2, 2);

    // dcpiprof.
    let out = bin("dcpiprof").arg(&dir).output().expect("run dcpiprof");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("hot_loop"), "{text}");
    assert!(text.contains("/bin/cli_app"), "{text}");

    // dcpiprof --images aggregates per image.
    let out = bin("dcpiprof")
        .args([dir.to_str().unwrap(), "--images"])
        .output()
        .unwrap();
    assert!(String::from_utf8_lossy(&out.stdout).contains("/bin/cli_app"));

    // dcpicalc on the hot procedure.
    let out = bin("dcpicalc")
        .args([dir.to_str().unwrap(), "hot_loop"])
        .output()
        .expect("run dcpicalc");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("Best-case"), "{text}");
    assert!(text.contains("ldq t4, 0(t1)"), "{text}");

    // dcpisumm.
    let out = bin("dcpisumm")
        .args([dir.to_str().unwrap(), "hot_loop"])
        .output()
        .expect("run dcpisumm");
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("Total tallied"));

    // dcpistats over the two runs.
    let out = bin("dcpistats")
        .args([dir.to_str().unwrap(), dir2.to_str().unwrap()])
        .output()
        .expect("run dcpistats");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("range%"), "{text}");
    assert!(text.contains("hot_loop"), "{text}");

    // dcpidiff between the runs.
    let out = bin("dcpidiff")
        .args([dir.to_str().unwrap(), dir2.to_str().unwrap()])
        .output()
        .expect("run dcpidiff");
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("hot_loop"));

    // dcpicfg emits well-formed DOT.
    let out = bin("dcpicfg")
        .args([dir.to_str().unwrap(), "hot_loop"])
        .output()
        .expect("run dcpicfg");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.starts_with("digraph"), "{text}");
    assert!(text.contains("fillcolor"), "{text}");

    // dcpicheck verifies the database's images and estimates clean.
    let out = bin("dcpicheck")
        .arg(dir.to_str().unwrap())
        .output()
        .expect("run dcpicheck");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{text}");
    assert!(text.contains("0 error(s)"), "{text}");

    // dcpicheck db audits the on-disk database itself.
    let out = bin("dcpicheck")
        .args(["db", dir.to_str().unwrap()])
        .output()
        .expect("run dcpicheck db");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{text}");
    assert!(text.contains("0 error(s)"), "{text}");

    // ... and exits nonzero once a profile file is torn.
    let victim = std::fs::read_dir(dir.join("epoch_0000"))
        .unwrap()
        .flatten()
        .map(|e| e.path())
        .find(|p| p.extension().is_some_and(|e| e == "prof"))
        .expect("a profile file");
    let data = std::fs::read(&victim).unwrap();
    std::fs::write(&victim, &data[..data.len() / 2]).unwrap();
    let out = bin("dcpicheck")
        .args(["db", dir.to_str().unwrap()])
        .output()
        .expect("run dcpicheck db on torn file");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(!out.status.success(), "{text}");
    assert!(text.contains("file-checksum"), "{text}");

    // dcpicheck without arguments prints usage and exits 2.
    let out = bin("dcpicheck").output().expect("run dcpicheck");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage"));

    // Error paths exit nonzero with a message.
    let out = bin("dcpicalc")
        .args([dir.to_str().unwrap(), "no_such_proc"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("not found"));
    let out = bin("dcpiprof").arg("/nonexistent-db").output().unwrap();
    assert!(!out.status.success());
}

/// Builds the cli_app text (optionally with one corrupted instruction)
/// for the static-analysis CLI tests.
fn static_app(corrupt: bool) -> dcpi_isa::image::Image {
    let mut a = Asm::new("/bin/static_app");
    a.proc("hot_loop");
    a.mov(Reg::A1, Reg::T0);
    let top = a.here();
    a.ldq(Reg::T4, 0, Reg::T1);
    if corrupt {
        a.subq(Reg::T4, Reg::V0, Reg::V0);
    } else {
        a.addq(Reg::T4, Reg::V0, Reg::V0);
    }
    a.lda(Reg::T1, 64, Reg::T1);
    a.subq_lit(Reg::T0, 1, Reg::T0);
    a.bne(Reg::T0, top);
    a.ret(Reg::RA);
    a.finish()
}

#[test]
fn static_analysis_cli_works_end_to_end() {
    let dir = TempRoot::new("static-cli-test");
    let put = |name: &str, bytes: Vec<u8>| {
        let p = dir.join(name);
        std::fs::write(&p, bytes).unwrap();
        p
    };

    let old = static_app(false);
    let app = put("app.img", old.to_bytes());
    let app_arg = app.to_str().unwrap();

    // dcpicheck dataflow audits the image's procedures clean.
    let out = bin("dcpicheck")
        .args(["dataflow", app_arg])
        .output()
        .expect("run dcpicheck dataflow");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{text}");
    assert!(text.contains("0 error(s)"), "{text}");

    // ... and --json emits the machine-readable report.
    let out = bin("dcpicheck")
        .args(["dataflow", app_arg, "--json"])
        .output()
        .unwrap();
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{text}");
    assert!(text.contains("\"schema\": 1"), "{text}");
    assert!(text.contains("\"errors\": 0"), "{text}");

    // A file that is not an image exits nonzero.
    let bogus = put("bogus.img", b"not an image".to_vec());
    let out = bin("dcpicheck")
        .args(["dataflow", bogus.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));

    // dcpicheck tv proves an identity rewrite segment by segment.
    let new = dcpi_isa::image::Image::new(
        "/bin/static_app.pgo".into(),
        old.words().to_vec(),
        old.symbols().to_vec(),
    );
    let map = dcpi_isa::AddressMap::identity(old.name(), new.name(), old.words().len());
    let new_path = put("new.img", new.to_bytes());
    let map_path = put("map.json", map.to_json().into_bytes());
    let (new_arg, map_arg) = (new_path.to_str().unwrap(), map_path.to_str().unwrap());
    let out = bin("dcpicheck")
        .args(["tv", app_arg, new_arg, map_arg])
        .output()
        .expect("run dcpicheck tv");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{text}");
    assert!(text.contains("proved"), "{text}");
    assert!(text.contains("0 error(s)"), "{text}");

    // --json carries the per-segment tallies.
    let out = bin("dcpicheck")
        .args(["tv", app_arg, new_arg, map_arg, "--json"])
        .output()
        .unwrap();
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{text}");
    assert!(text.contains("\"segments\": "), "{text}");
    assert!(text.contains("\"proved\": "), "{text}");

    // A rewrite whose mapped instruction computes something else is
    // rejected with a state divergence.
    let corrupted = static_app(true);
    let corrupted = dcpi_isa::image::Image::new(
        "/bin/static_app.pgo".into(),
        corrupted.words().to_vec(),
        corrupted.symbols().to_vec(),
    );
    let corrupt_path = put("corrupt.img", corrupted.to_bytes());
    let out = bin("dcpicheck")
        .args(["tv", app_arg, corrupt_path.to_str().unwrap(), map_arg])
        .output()
        .unwrap();
    let text = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(1), "{text}");
    assert!(text.contains("tv-"), "{text}");

    // A map whose `old_words` lies about its rows is a diagnostic and
    // exit 1 — not an attempt to reserve what it claims.
    let claim = format!("\"old_words\": {},", old.words().len());
    assert!(map.to_json().contains(&claim));
    let lying = map
        .to_json()
        .replacen(&claim, "\"old_words\": 1152921504606846976,", 1);
    let lying_path = put("lying-map.json", lying.into_bytes());
    let out = bin("dcpicheck")
        .args(["tv", app_arg, new_arg, lying_path.to_str().unwrap()])
        .output()
        .unwrap();
    let text = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(1), "{text}");
    assert!(
        text.contains("old_words 1152921504606846976 disagrees with the"),
        "{text}"
    );

    // Usage errors exit 2; `tv` is the one check of a rewrite, and there
    // is no `pgo` subcommand.
    let out = bin("dcpicheck")
        .args(["pgo", app_arg, new_arg, map_arg])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    let out = bin("dcpicheck").args(["tv", app_arg]).output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    let out = bin("dcpicheck").arg("dataflow").output().unwrap();
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn obs_cli_binaries_work_on_a_real_export() {
    let dir = TempRoot::new("obs-cli-test");
    let obs = write_obs_export(&dir);
    let obs_arg = obs.to_str().unwrap();

    // dcpistat summarises the profiler's own health.
    let out = bin("dcpistat").arg(obs_arg).output().expect("run dcpistat");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{text}");
    assert!(text.contains("-- driver --"), "{text}");
    assert!(text.contains("-- faults --"), "{text}");
    assert!(text.contains("overhead:"), "{text}");

    // dcpitrace shows the fault injector firing (stall, torn flush,
    // crash) in the cycle-ordered timeline.
    let out = bin("dcpitrace")
        .arg(obs_arg)
        .output()
        .expect("run dcpitrace");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{text}");
    assert!(text.contains("fault.stall"), "{text}");
    assert!(text.contains("fault.crash"), "{text}");
    assert!(text.contains("fault.torn_flush"), "{text}");
    assert!(text.contains("session.pump"), "{text}");

    // --component restricts the timeline to one ring.
    let out = bin("dcpitrace")
        .args([obs_arg, "--component", "faults"])
        .output()
        .expect("run dcpitrace --component");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{text}");
    assert!(text.contains("fault.crash"), "{text}");
    assert!(!text.contains("session.pump"), "{text}");

    // --json emits one event object per line.
    let out = bin("dcpitrace")
        .args([obs_arg, "--json"])
        .output()
        .expect("run dcpitrace --json");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{text}");
    assert!(text.contains("\"events\": ["), "{text}");
    assert!(text.contains("\"event\": \"fault.crash\""), "{text}");

    // dcpicheck obs audits the export clean.
    let out = bin("dcpicheck")
        .args(["obs", obs_arg])
        .output()
        .expect("run dcpicheck obs");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{text}");
    assert!(text.contains("0 error(s)"), "{text}");

    // A tampered sample ledger no longer conserves and is flagged.
    let original = std::fs::read_to_string(&obs).unwrap();
    let tampered = original.replace("\"generated\": ", "\"generated\": 1");
    assert_ne!(original, tampered);
    std::fs::write(&obs, &tampered).unwrap();
    let out = bin("dcpicheck")
        .args(["obs", obs_arg])
        .output()
        .expect("run dcpicheck obs on tampered export");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(!out.status.success(), "{text}");
    assert!(text.contains("obs-ledger"), "{text}");

    // A file that is not an export at all fails with an obs-export error.
    std::fs::write(&obs, "not json\n").unwrap();
    let out = bin("dcpicheck").args(["obs", obs_arg]).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("obs-export"));

    let _ = std::fs::remove_file(&obs);
}

#[test]
fn fleet_cli_binaries_work_end_to_end() {
    let root = TempRoot::new("fleet-cli");
    let root_arg = root.to_str().unwrap().to_owned();
    let obs_path = root.with_extension("obs.json");
    let obs_arg = obs_path.to_str().unwrap().to_owned();

    // dcpifleet run: a 12-agent chaos run to quiesce, with obs export.
    let out = bin("dcpifleet")
        .args([
            "run", &root_arg, "--agents", "12", "--seed", "33", "--obs", &obs_arg,
        ])
        .output()
        .expect("run dcpifleet");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{text}{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(text.contains("fleet: 12 agent(s)"), "{text}");
    assert!(text.contains("server crash(es)"), "{text}");
    assert!(!text.contains("NOT CONSERVED"), "{text}");

    // Queries over the produced root.
    let out = bin("dcpifleet")
        .args(["top", &root_arg, "3"])
        .output()
        .expect("run dcpifleet top");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{text}");
    assert!(text.contains("fleet database"), "{text}");
    let out = bin("dcpifleet")
        .args(["agents", &root_arg])
        .output()
        .expect("run dcpifleet agents");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{text}");
    assert!(text.contains("12 agent(s) journaled"), "{text}");
    let out = bin("dcpifleet")
        .args(["image", &root_arg, "1"])
        .output()
        .expect("run dcpifleet image");
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("Cycles"));

    // dcpicheck fleet audits the root clean.
    let out = bin("dcpicheck")
        .args(["fleet", &root_arg])
        .output()
        .expect("run dcpicheck fleet");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{text}");
    assert!(text.contains("0 error(s)"), "{text}");

    // The server's trace spans are visible to dcpistat / dcpitrace.
    let out = bin("dcpistat")
        .arg(&obs_arg)
        .output()
        .expect("run dcpistat");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{text}");
    assert!(text.contains("-- server --"), "{text}");
    let out = bin("dcpitrace")
        .args([&obs_arg, "--component", "server"])
        .output()
        .expect("run dcpitrace");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{text}");
    assert!(text.contains("server.ack"), "{text}");
    assert!(text.contains("server.merge"), "{text}");
    assert!(text.contains("server.replay"), "{text}");

    // Tampering with fleet.json breaks the conservation cross-check.
    let json = root.join("fleet.json");
    let original = std::fs::read_to_string(&json).unwrap();
    let tampered = original.replace("\"generated\": ", "\"generated\": 9");
    assert_ne!(original, tampered);
    std::fs::write(&json, &tampered).unwrap();
    let out = bin("dcpicheck")
        .args(["fleet", &root_arg])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("fleet-conservation"));

    // A profile that cannot be read (here: a directory under its name)
    // fails the queries that must open it — exit 1 naming the path, no
    // partial totals — and not the one that never does.
    let blocked = root.join("db/epoch_0001/00000001.cycles.prof");
    std::fs::remove_file(&blocked).expect("image 1 is in every epoch");
    std::fs::create_dir(&blocked).unwrap();
    for query in [vec!["top", &root_arg], vec!["image", &root_arg, "1"]] {
        let out = bin("dcpifleet").args(&query).output().unwrap();
        assert_eq!(out.status.code(), Some(1), "{query:?}");
        assert!(out.stdout.is_empty(), "{query:?} printed partial totals");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(blocked.to_str().unwrap()), "{query:?}: {err}");
    }
    let out = bin("dcpifleet")
        .args(["image", &root_arg, "2"])
        .output()
        .unwrap();
    assert!(out.status.success());

    // Usage errors exit 2.
    let out = bin("dcpifleet").output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    let out = bin("dcpicheck").args(["fleet"]).output().unwrap();
    assert_eq!(out.status.code(), Some(2));

    let _ = std::fs::remove_file(&obs_path);
}
