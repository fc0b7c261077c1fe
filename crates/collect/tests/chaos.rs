//! Chaos suite: the paper's loss-bounding claims under injected faults.
//!
//! Every test runs a real workload through the full machine → driver →
//! daemon → database pipeline while a seeded [`FaultPlan`] stalls the
//! daemon, crashes it mid-epoch, tears profile files, swallows loader
//! notifications, and stretches §4.2.3 flush windows — then checks the
//! [`LossLedger`]: `generated = attributed + unknown + driver-dropped +
//! crash-lost + quarantined`, exactly. Extra seeds can be thrown at the
//! conservation test via `DCPI_CHAOS_SEED=<n>` (the CI chaos job does).

use dcpi_collect::driver::DriverConfig;
use dcpi_collect::faults::{Backpressure, CorruptKind, CrashFault, FaultPlan, StallWindow};
use dcpi_collect::session::{ProfiledRun, SessionConfig};
use dcpi_isa::asm::Asm;
use dcpi_isa::image::Image;
use dcpi_isa::reg::Reg;
use dcpi_machine::counters::CounterConfig;
use dcpi_testkit::{snapshot, TempRoot};
use std::path::Path;

const POLL: u64 = 10_000;
const FLUSH: u64 = 60_000;
const HORIZON: u64 = 500_000;

fn loop_image(n: i64) -> Image {
    let mut a = Asm::new("/bin/chaos-loop");
    a.proc("main");
    a.li(Reg::T0, n);
    let top = a.here();
    a.subq_lit(Reg::T0, 1, Reg::T0);
    a.bne(Reg::T0, top);
    a.halt();
    a.finish()
}

/// A session under fault injection: one CPU-bound loop, a database on
/// disk, and a deliberately tiny driver table/buffer pair so stalls
/// actually push the overflow machinery into its drop path (§4.2.1).
fn chaotic_session(dir: &Path, faults: FaultPlan, bp: Option<Backpressure>) -> ProfiledRun {
    let mut cfg = SessionConfig::default();
    cfg.machine.counters = CounterConfig::cycles_only((800, 1000));
    cfg.driver = DriverConfig {
        buckets: 1,
        associativity: 1,
        overflow_entries: 64,
        ..DriverConfig::default()
    };
    cfg.poll_quantum = POLL;
    cfg.flush_interval = FLUSH;
    cfg.daemon.db_path = Some(dir.to_path_buf());
    cfg.faults = faults;
    cfg.backpressure = bp;
    // The whole suite runs with self-observability on: every fault
    // firing and recovery path also exercises the obs probes, and
    // conservation must hold with them enabled.
    cfg.obs = dcpi_obs::ObsConfig::on();
    let mut run = ProfiledRun::new(cfg).expect("session setup");
    let img = run.register_image(loop_image(120_000));
    run.spawn(0, img, &[], |_| {});
    run
}

/// The finished run and the directory its database lives in.
fn run_plan(tag: &str, faults: FaultPlan, bp: Option<Backpressure>) -> (TempRoot, ProfiledRun) {
    let dir = TempRoot::new(&format!("chaos-{tag}"));
    let mut run = chaotic_session(&dir, faults, bp);
    run.run_to_completion(10_000_000_000);
    (dir, run)
}

fn assert_conserves_for_seed(seed: u32) {
    let plan = FaultPlan::random(seed, HORIZON);
    let (_dir, run) = run_plan(&format!("seed{seed}"), plan, None);
    let ledger = run.ledger();
    assert!(
        ledger.conserves(),
        "seed {seed}: {}\nplan: {:?}",
        ledger.render(),
        run.injector.plan()
    );
    assert!(ledger.generated > 500, "seed {seed}: too few samples");
}

#[test]
fn conservation_seed_1() {
    assert_conserves_for_seed(1);
}

#[test]
fn conservation_seed_2() {
    assert_conserves_for_seed(2);
}

#[test]
fn conservation_seed_3() {
    assert_conserves_for_seed(3);
}

#[test]
fn conservation_seed_42() {
    assert_conserves_for_seed(42);
}

#[test]
fn conservation_seed_1997() {
    assert_conserves_for_seed(1997);
}

/// The CI chaos job sweeps extra seeds through here via
/// `DCPI_CHAOS_SEED=<n>`; without the variable it is a no-op.
#[test]
fn conservation_env_seed() {
    if let Ok(s) = std::env::var("DCPI_CHAOS_SEED") {
        assert_conserves_for_seed(s.parse().expect("DCPI_CHAOS_SEED must be a u32"));
    }
}

#[test]
fn fixed_seed_is_bit_identical() {
    // The whole point of *deterministic* fault injection: the same seed
    // must reproduce the same damage, the same recovery, and the same
    // bytes on disk.
    let tree = |tag: &str| {
        let dir = TempRoot::new(&format!("chaos-{tag}"));
        let mut run = chaotic_session(&dir, FaultPlan::random(42, HORIZON), None);
        run.run_to_completion(10_000_000_000);
        let ledger = run.ledger();
        assert!(ledger.conserves(), "{}", ledger.render());
        snapshot(&dir)
    };
    let a = tree("ident-a");
    let b = tree("ident-b");
    assert_eq!(
        a.iter().map(|(path, _)| path).collect::<Vec<_>>(),
        b.iter().map(|(path, _)| path).collect::<Vec<_>>(),
        "same file set"
    );
    for ((path, x), (_, y)) in a.iter().zip(&b) {
        assert_eq!(x, y, "bytes differ: {}", path.display());
    }
}

#[test]
fn crash_loses_at_most_one_flush_interval() {
    let plan = FaultPlan {
        crashes: vec![CrashFault {
            at_cycle: 250_000,
            corrupt: None,
            victim_pick: 0,
            stray_tmp: false,
        }],
        ..FaultPlan::none()
    };
    let (_dir, run) = run_plan("crashbound", plan, None);
    let ledger = run.ledger();
    assert!(ledger.conserves(), "{}", ledger.render());
    assert_eq!(run.injector.crashes.len(), 1, "the crash fired");
    let crash = run.injector.crashes[0];
    // §4.3.3's bound: everything older than the last periodic merge was
    // already safe on disk, so the crash window never exceeds one flush
    // interval (plus the pump quantum that schedules it).
    assert!(
        crash.since_flush <= FLUSH + 2 * POLL,
        "crash window {} exceeds a flush interval",
        crash.since_flush
    );
    assert!(
        ledger.crash_lost < ledger.generated / 2,
        "a bounded crash must not dominate the run: {}",
        ledger.render()
    );
    // The database survived and still reads cleanly end to end.
    assert!(run.daemon.db().expect("db").read_all().is_ok());
}

#[test]
fn corrupt_files_are_quarantined_and_counted_not_fatal() {
    let plan = FaultPlan {
        crashes: vec![CrashFault {
            // Late crash: several merges have landed, so the victim
            // profile file is real data.
            at_cycle: 300_000,
            corrupt: Some(CorruptKind::BitFlip { byte: 13, bit: 5 }),
            victim_pick: 1,
            stray_tmp: true,
        }],
        ..FaultPlan::none()
    };
    let (_dir, run) = run_plan("quar", plan, None);
    let ledger = run.ledger();
    assert!(ledger.conserves(), "{}", ledger.render());
    assert!(
        ledger.quarantined > 0,
        "the torn file held samples: {}",
        ledger.render()
    );
    let db = run.daemon.db().expect("db");
    let set = db.read_all().expect("corruption must not abort read_all");
    assert!(set.iter().next().is_some(), "surviving profiles readable");
    assert!(
        db.damage().quarantined_count() > 0,
        "the quarantine is reported, not silent"
    );
    assert!(run.summary().contains("quarantined"));
}

#[test]
fn stalled_daemon_drops_but_conserves() {
    let plan = FaultPlan {
        stalls: vec![StallWindow {
            from: 50_000,
            until: 250_000,
        }],
        ..FaultPlan::none()
    };
    let (_dir, run) = run_plan("stall", plan, None);
    let ledger = run.ledger();
    assert!(ledger.conserves(), "{}", ledger.render());
    assert!(
        ledger.driver_dropped > 0,
        "a 2M-cycle stall must fill both tiny buffers: {}",
        ledger.render()
    );
}

#[test]
fn backpressure_raises_period_under_stall() {
    let plan = || FaultPlan {
        stalls: vec![StallWindow {
            from: 50_000,
            until: 250_000,
        }],
        ..FaultPlan::none()
    };
    let bp = Backpressure {
        drop_threshold: 0.01,
        factor: 8,
        max_period: 1 << 20,
    };
    let (_on, with_bp) = run_plan("bp-on", plan(), Some(bp));
    let ledger = with_bp.ledger();
    assert!(ledger.conserves(), "{}", ledger.render());
    assert!(with_bp.backpressure_raises > 0, "backpressure engaged");
    assert!(
        with_bp.machine.sampling_period().0 > 1000,
        "period was raised from (800, 1000): {:?}",
        with_bp.machine.sampling_period()
    );
    // Shedding load is the point: fewer interrupts than the run that
    // kept hammering the stalled daemon at full rate.
    let (_off, without) = run_plan("bp-off", plan(), None);
    assert!(
        ledger.generated < without.ledger().generated,
        "raised period must generate fewer samples"
    );
}

#[test]
fn torn_flush_window_loses_nothing() {
    let plan = FaultPlan {
        torn_flushes: vec![100_000, 220_000, 350_000],
        ..FaultPlan::none()
    };
    let dir = TempRoot::new("chaos-torn");
    let mut cfg = SessionConfig::default();
    cfg.machine.counters = CounterConfig::cycles_only((800, 1000));
    cfg.poll_quantum = POLL;
    cfg.flush_interval = FLUSH;
    cfg.daemon.db_path = Some(dir.to_path_buf());
    cfg.faults = plan;
    cfg.obs = dcpi_obs::ObsConfig::on();
    let mut run = ProfiledRun::new(cfg).expect("session setup");
    let img = run.register_image(loop_image(120_000));
    run.spawn(0, img, &[], |_| {});
    run.run_to_completion(10_000_000_000);
    let ledger = run.ledger();
    // With default-size buffers and no other fault, a stretched bypass
    // window is pure §4.2.3: every sample that bypassed the table is
    // recovered from the buffers. Zero loss of any kind.
    assert!(ledger.conserves(), "{}", ledger.render());
    assert_eq!(ledger.driver_dropped, 0, "{}", ledger.render());
    assert_eq!(ledger.crash_lost, 0);
    assert_eq!(ledger.quarantined, 0);
    assert!(ledger.generated > 500);
}

#[test]
fn dropped_notifications_go_unknown_not_missing() {
    let plan = FaultPlan {
        notif_drop_period: 1, // every ImageLoaded notification vanishes
        ..FaultPlan::none()
    };
    let (_dir, run) = run_plan("notif", plan, None);
    let ledger = run.ledger();
    assert!(ledger.conserves(), "{}", ledger.render());
    // The loop image was never announced, so its samples landed in the
    // unknown profile (§4.3.2) — accounted, not lost.
    assert!(
        ledger.unknown > 0,
        "unannounced image's samples go unknown: {}",
        ledger.render()
    );
    assert!(run.injector.notif_dropped > 0);
}

#[test]
fn empty_plan_reports_empty_fault_state() {
    let (_dir, run) = run_plan("clean", FaultPlan::none(), None);
    let ledger = run.ledger();
    assert!(ledger.conserves(), "{}", ledger.render());
    assert_eq!(ledger.crash_lost, 0);
    assert_eq!(ledger.quarantined, 0);
    assert!(run.injector.crashes.is_empty());
    assert_eq!(run.injector.notif_dropped, 0);
    assert_eq!(run.flush_failures, 0);
    assert!(!run.summary().contains("crashes"));
}
