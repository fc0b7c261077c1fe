//! What three observability exports say, pinned.
//!
//! `tests/golden/obs-exports.txt` holds, for three fixed-seed runs, the
//! counter, gauge and time-series rows of the masked `obs.json` export
//! verbatim, the `dcpistat` text (and `dcpitop` for the fleet), and one
//! FNV-64 line over the rest of the export: meta, histograms, trace
//! rings and both ledgers. The runs:
//!
//! - `profile x11perf <db> --seed 42 --obs` (the observability CI job's
//!   run): one workload under profiling with a database;
//! - a profiled run whose fault plan crashes the daemon twice, stalls it,
//!   tears a flush open and drops loader notifications;
//! - a 6-agent fleet whose fault plan kills and reopens the server.
//!
//! A change to what any layer counts, or to how its count reaches the
//! export, fails here naming the run, the section and the line.
//! Regenerate with `DCPI_BLESS=1` only when moving an exported figure is
//! the point of the change.

use dcpi::collect::faults::{CorruptKind, CrashFault, FaultPlan, StallWindow};
use dcpi::collect::{DriverConfig, ProfiledRun, SessionConfig};
use dcpi::isa::asm::Asm;
use dcpi::isa::image::Image;
use dcpi::isa::reg::Reg;
use dcpi::machine::counters::CounterConfig;
use dcpi::server::fleet::{run_fleet, FleetConfig};
use dcpi::tools::{dcpistat, dcpitop};
use dcpi::workloads::fingerprint::fnv64;
use dcpi::workloads::{run_workload, ProfConfig, RunOptions, Workload};
use dcpi_obs::{Obs, ObsConfig, Snapshot};
use dcpi_testkit::TempRoot;
use std::fmt::Write as _;
use std::path::Path;

/// The export sections recorded row by row; every other section goes
/// into the run's one FNV-64 line.
const VERBATIM: [&str; 3] = ["counters", "gauges", "timeseries"];

/// Records one run's export under `== <run>: <section>` headers.
fn record(g: &mut String, run: &str, snap: &Snapshot, tools: &[(&str, String)]) {
    let json = snap.to_json();
    let mut rest = String::new();
    let mut section = String::new();
    let mut rows: Vec<(String, Vec<&str>)> = Vec::new();
    for line in json.lines() {
        // A top-level member opens at two spaces of indent.
        if let Some(key) = line.strip_prefix("  \"") {
            section = key.split('"').next().unwrap_or("").to_owned();
        }
        if VERBATIM.contains(&section.as_str()) {
            match rows.last_mut() {
                Some((s, lines)) if *s == section => lines.push(line),
                _ => rows.push((section.clone(), vec![line])),
            }
        } else {
            rest.push_str(line);
            rest.push('\n');
        }
    }
    for (section, lines) in rows {
        let _ = writeln!(g, "== {run}: {section}");
        for line in lines {
            let _ = writeln!(g, "{line}");
        }
    }
    for (tool, text) in tools {
        let _ = writeln!(g, "== {run}: {tool}");
        g.push_str(text);
    }
    let _ = writeln!(g, "== {run}: fnv64 of meta, histograms, rings, ledgers");
    let _ = writeln!(g, "{:016x}", fnv64(&rest));
}

/// `profile x11perf <db> --seed 42 --obs obs.json`.
fn x11perf(dir: &Path) -> Snapshot {
    let opts = RunOptions {
        seed: 42,
        scale: Workload::X11Perf.default_scale(),
        period: (20_000, 21_600),
        db_path: Some(dir.join("db")),
        obs: true,
        ..RunOptions::default()
    };
    run_workload(Workload::X11Perf, ProfConfig::Cycles, &opts)
        .obs
        .expect("an obs run exports a snapshot")
}

fn spin(name: &str, n: i64) -> Image {
    let mut a = Asm::new(name);
    a.proc("main");
    a.li(Reg::T0, n);
    let top = a.here();
    a.subq_lit(Reg::T0, 1, Reg::T0);
    a.bne(Reg::T0, top);
    a.halt();
    a.finish()
}

/// A profiled run through every daemon-side fault the injector has.
fn faulted(dir: &Path) -> Snapshot {
    let mut cfg = SessionConfig::default();
    cfg.machine.cpus = 2;
    cfg.machine.counters = CounterConfig::cycles_only((1000, 1200));
    // A table of four entries and two eight-entry buffers per CPU, so
    // the run spills and, while the daemon is stalled, drops.
    cfg.driver = DriverConfig {
        buckets: 2,
        associativity: 2,
        overflow_entries: 8,
        ..DriverConfig::default()
    };
    cfg.poll_quantum = 50_000;
    cfg.flush_interval = 500_000;
    cfg.daemon.db_path = Some(dir.join("db"));
    cfg.obs = ObsConfig::on();
    cfg.faults = FaultPlan {
        stalls: vec![StallWindow {
            from: 2_000_000,
            until: 3_000_000,
        }],
        crashes: vec![
            CrashFault {
                at_cycle: 4_220_000,
                corrupt: Some(CorruptKind::Truncate { keep: 9 }),
                victim_pick: 1,
                stray_tmp: true,
            },
            CrashFault {
                at_cycle: 8_330_000,
                corrupt: None,
                victim_pick: 7,
                stray_tmp: false,
            },
        ],
        notif_drop_period: 2,
        notif_delay: 0,
        torn_flushes: vec![5_000_000],
    };
    let mut run = ProfiledRun::new(cfg).expect("session");
    for (i, name) in ["/bin/a", "/bin/b", "/bin/c", "/bin/d"].iter().enumerate() {
        let img = run.register_image(spin(name, 3_000_000));
        run.spawn(i % 2, img, &[], |_| {});
    }
    run.run_for(14_000_000);
    assert_eq!(run.injector.crashes.len(), 2, "both crashes fire");
    assert!(run.injector.notif_dropped > 0, "a notification is dropped");
    run.obs_snapshot()
}

/// `dcpifleet run <root> --agents 6 --seed 5 --obs fleet-obs.json`.
fn fleet(dir: &Path) -> Snapshot {
    let cfg = FleetConfig::new(dir.join("fleet"), 6, 5);
    assert!(
        !cfg.faults.server_crashes.is_empty(),
        "the plan kills the server"
    );
    let obs = Obs::new(&ObsConfig {
        ring_capacity: 1 << 16,
        ..ObsConfig::on()
    });
    let report = run_fleet(&cfg, &obs).expect("fleet quiesces");
    assert!(report.conserves());
    assert!(report.server_crashes > 0, "the server crash window fired");
    let mut snap = obs.snapshot();
    snap.meta.insert("tool".to_owned(), "dcpifleet".to_owned());
    snap.meta.insert("seed".to_owned(), "5".to_owned());
    snap.meta.insert("agents".to_owned(), "6".to_owned());
    snap.meta
        .insert("fleet_quiesced".to_owned(), "true".to_owned());
    snap
}

#[test]
fn three_runs_export_what_they_exported_when_recorded() {
    let dir = TempRoot::new("obs-exports");
    let mut g = String::new();

    let mut snap = x11perf(&dir.subdir("x11perf"));
    snap.mask_wall();
    let stat = dcpistat(&snap);
    record(&mut g, "x11perf", &snap, &[("dcpistat", stat)]);

    let mut snap = faulted(&dir.subdir("faults"));
    snap.mask_wall();
    for key in [
        "faults.crashes",
        "faults.stalled_pumps",
        "faults.torn_flushes",
        "faults.notif_drops",
    ] {
        assert!(
            snap.metrics.counters.get(key).is_some_and(|&v| v > 0),
            "{key} is exported"
        );
    }
    let stat = dcpistat(&snap);
    record(&mut g, "faults", &snap, &[("dcpistat", stat)]);

    let mut snap = fleet(&dir.subdir("fleet"));
    snap.mask_wall();
    let tools = [("dcpistat", dcpistat(&snap)), ("dcpitop", dcpitop(&snap))];
    record(&mut g, "fleet", &snap, &tools);

    let golden = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/obs-exports.txt");
    if std::env::var("DCPI_BLESS").is_ok() {
        std::fs::write(&golden, &g).expect("write the golden file");
    }
    let recorded = std::fs::read_to_string(&golden).expect("committed golden file");
    let first = recorded
        .lines()
        .zip(g.lines())
        .position(|(a, b)| a != b)
        .unwrap_or_else(|| recorded.lines().count().min(g.lines().count()));
    let section = g
        .lines()
        .take(first + 1)
        .filter(|l| l.starts_with("== "))
        .last()
        .unwrap_or("(before any section)");
    assert!(
        recorded == g,
        "an exported figure moved at line {} in `{section}`:\n  recorded {:?}\n  now      {:?}",
        first + 1,
        recorded.lines().nth(first),
        g.lines().nth(first)
    );
}
