//! End-to-end pipeline-trace audits over real fleet chaos runs.
//!
//! A seeded 100-agent run — agent crashes, server outages, every
//! network fault class armed — with tracing enabled must leave a span
//! chain for every sealed epoch: seal → send/retry → journal+ack →
//! database-visible, with stage durations telescoping to the ingest lag
//! the server computed from the wire-carried seal tick. `dcpicheck
//! obs`'s trace audit re-verifies all of it from the export alone.

use dcpi_check::{check_snapshot, Category};
use dcpi_collect::uploader::{Uploader, UploaderConfig};
use dcpi_collect::wire::EpochBatch;
use dcpi_obs::{Obs, ObsConfig, Snapshot};
use dcpi_server::fleet::{run_fleet, FleetConfig, FleetReport};
use dcpi_testkit::TempRoot;

/// Runs the seeded 100-agent chaos fleet with tracing at the given ring
/// capacity and returns the quiesced export plus the report.
fn traced_run(tag: &str, ring_capacity: usize) -> (Snapshot, FleetReport) {
    let root = TempRoot::new(&format!("fleet-trace-{tag}"));
    let cfg = FleetConfig::new(&root, 100, 7);
    let obs = Obs::new(&ObsConfig {
        ring_capacity,
        ..ObsConfig::on()
    });
    let mut report = run_fleet(&cfg, &obs).expect("fleet run");
    assert!(report.conserves(), "chaos run must conserve");
    let snap = report.obs.take().expect("an enabled handle exports");
    (snap, report)
}

#[test]
fn quiesced_chaos_run_has_a_complete_chain_per_epoch() {
    let (snap, report) = traced_run("complete", 1 << 16);
    // Big rings: nothing overwritten, so the audit checks every span
    // strictly — ordering, stage contiguity, the lag-payload cross-check
    // against the agent-side seal tick, and (because the export is
    // marked quiesced) that every sealed epoch reached visibility.
    for ring in &snap.rings {
        assert_eq!(ring.overwritten, 0, "ring {} wrapped", ring.component);
    }
    let audit = check_snapshot(&snap);
    assert!(audit.is_clean(), "{}", audit.render());
    // Every sealed epoch (tombstones included) was merged exactly once,
    // so the lag distribution covers the whole fleet.
    assert_eq!(report.lag.samples, report.epochs_sealed);
    assert!(report.lag.p50 <= report.lag.p95 && report.lag.p95 <= report.lag.p99);
    assert!(report.lag.p99 <= report.lag.max);
    let visible = snap
        .rings
        .iter()
        .flat_map(|r| r.events.iter())
        .filter(|e| e.name == "server.visible")
        .count() as u64;
    assert_eq!(visible, report.epochs_sealed);
}

#[test]
fn traced_runs_are_deterministic() {
    let (mut a, ra) = traced_run("det-a", 1 << 16);
    let (mut b, rb) = traced_run("det-b", 1 << 16);
    assert_eq!(ra.lag, rb.lag);
    a.mask_wall();
    b.mask_wall();
    assert_eq!(
        a.to_json(),
        b.to_json(),
        "same (config, seed) must trace identically"
    );
}

#[test]
fn ring_overflow_keeps_the_surviving_window_consistent() {
    // Rings far too small for ~500 epochs x several events: the oldest
    // spans are overwritten wholesale and survivors may be truncated.
    // The audit must excuse exactly the overwrite window and still hold
    // every fully-surviving span to the lag identity — cleanly, at a
    // fixed seed, over whatever window survived.
    let (snap, _) = traced_run("overflow", 256);
    let session = snap
        .rings
        .iter()
        .find(|r| r.component == "session")
        .unwrap();
    assert!(session.overwritten > 0, "overflow test must overflow");
    let audit = check_snapshot(&snap);
    assert!(audit.is_clean(), "{}", audit.render());
}

#[test]
fn unacked_epoch_terminates_at_the_faulted_stage() {
    // An uploader whose server never answers: the span chain ends at
    // send/retry. Mid-run that is a legitimate fault signature; an
    // export claiming quiesce with such a chain is an audit error.
    let obs = Obs::new(&ObsConfig::on());
    let mut up = Uploader::new(9, 1, UploaderConfig::default());
    up.attach_obs(&obs);
    up.push_epoch(EpochBatch {
        epoch: 0,
        seal_cycle: 5,
        ..EpochBatch::default()
    });
    for t in 0..200 {
        let _ = up.tick(t);
    }
    let mut snap = obs.snapshot();
    let audit = check_snapshot(&snap);
    assert!(audit.is_clean(), "{}", audit.render());
    snap.meta
        .insert("fleet_quiesced".to_owned(), "true".to_owned());
    let audit = check_snapshot(&snap);
    assert!(
        audit.diags.iter().any(|d| d.category == Category::ObsTrace
            && d.message.contains("never became database-visible")),
        "{}",
        audit.render()
    );
}

#[test]
fn fabricated_interior_hole_is_flagged() {
    // With nothing overwritten there is no excuse for a missing stage:
    // delete one span's journal/ack event and the audit must notice the
    // hole between send and visibility.
    let (mut snap, _) = traced_run("hole", 1 << 16);
    let ring = snap
        .rings
        .iter_mut()
        .find(|r| r.component == "server")
        .unwrap();
    let i = ring
        .events
        .iter()
        .position(|e| e.name == "server.ack")
        .expect("chaos run must ack something");
    ring.events.remove(i);
    ring.recorded -= 1;
    let audit = check_snapshot(&snap);
    assert!(
        audit.diags.iter().any(|d| d.category == Category::ObsTrace
            && d.message.contains("without a surviving journal/ack")),
        "{}",
        audit.render()
    );
}
