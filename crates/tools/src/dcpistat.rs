//! dcpistat: profiler status from an exported observability snapshot —
//! sample and drop rates, hash-table behavior, flush latencies, both
//! ledgers, and for a fleet server's export the ingestion pipeline:
//! epochs, backlog, uploader I/O, per-tick rates and the run's ingest
//! lag. It is the one renderer of an export's counters and gauges.

use dcpi_obs::{EventKind, Snapshot};
use std::fmt::Write as _;

fn rate(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

/// Mean host nanoseconds of the completed `daemon.flush` spans in the
/// daemon ring, each End paired with the Begin before it (0 when none
/// completed). Saturating, because the stamps come from an export.
fn flush_mean_ns(snap: &Snapshot) -> f64 {
    let (mut begun, mut total, mut spans) = (None, 0u64, 0u64);
    let events = snap
        .rings
        .iter()
        .filter(|r| r.component == "daemon")
        .flat_map(|r| &r.events)
        .filter(|e| e.name == "daemon.flush");
    for ev in events {
        match ev.kind {
            EventKind::Begin => begun = Some(ev.wall_ns),
            EventKind::End => {
                if let Some(at) = begun.take() {
                    total = total.saturating_add(ev.wall_ns.saturating_sub(at));
                    spans += 1;
                }
            }
            EventKind::Instant => {}
        }
    }
    rate(total, spans)
}

/// Renders the status report.
#[must_use]
pub fn dcpistat(snap: &Snapshot) -> String {
    let mut out = String::new();
    let c = |name: &str| snap.metrics.counters.get(name).copied().unwrap_or(0);
    let g = |name: &str| snap.metrics.gauges.get(name).copied().unwrap_or(0);
    // A run with probes disabled exports empty metric maps and
    // zero-capacity rings; say so up front instead of rendering a wall
    // of zeros that reads like a dead profiler.
    if snap.metrics.counters.is_empty()
        && snap.metrics.gauges.is_empty()
        && snap.rings.iter().all(|r| r.capacity == 0)
    {
        let _ = writeln!(
            out,
            "note: observability was disabled for this run (no metrics, \
             zero-capacity rings) — re-run with probes enabled for live data"
        );
    }
    let interrupts = c("driver.interrupts");
    let drops = c("driver.dropped_samples");
    let hits = c("driver.ht_hits");
    let _ = writeln!(out, "-- driver --");
    let _ = writeln!(
        out,
        "interrupts {interrupts}  ht-hits {hits} ({:.1}%)  misses {}  spilled {}  bypassed {}",
        rate(hits, interrupts) * 100.0,
        c("driver.ht_misses"),
        c("driver.spilled_samples"),
        c("driver.flush_bypass"),
    );
    let _ = writeln!(
        out,
        "dropped {drops} ({:.3}% of interrupts)",
        rate(drops, interrupts) * 100.0
    );
    let _ = writeln!(out, "-- daemon --");
    let _ = writeln!(
        out,
        "entries {}  samples {}  unknown {}  memory {} bytes (peak {})",
        c("daemon.entries"),
        c("daemon.samples"),
        c("daemon.unknown_samples"),
        g("daemon.memory_bytes"),
        g("daemon.peak_memory_bytes"),
    );
    let flushes = c("daemon.flushes");
    if flushes > 0 {
        let mean = flush_mean_ns(snap);
        let _ = writeln!(out, "flushes {flushes}  mean latency {mean:.0} ns");
    }
    let faults = [
        ("faults.stalled_pumps", "stalled pumps"),
        ("faults.crashes", "crashes"),
        ("faults.torn_flushes", "torn flushes"),
        ("faults.notif_drops", "dropped notifications"),
    ];
    if faults.iter().any(|(k, _)| c(k) > 0) {
        let _ = writeln!(out, "-- faults --");
        for (key, label) in faults {
            if c(key) > 0 {
                let _ = writeln!(out, "{label} {}", c(key));
            }
        }
    }
    // Fleet ingestion counters appear only in server-side exports.
    if c("server.registrations") > 0 || c("server.accepted") > 0 {
        let _ = writeln!(out, "-- server --");
        let _ = writeln!(
            out,
            "accepted {}  deduped {}  merges {}  merged batches {}  journaled samples {}",
            c("server.accepted"),
            c("server.deduped"),
            c("server.merges"),
            c("server.merged_batches"),
            c("server.journaled_samples"),
        );
        let _ = writeln!(
            out,
            "registrations {}  live agents {}  lease expiries {}  backpressure {}",
            c("server.registrations"),
            g("server.agents"),
            c("server.lease_expiries"),
            c("server.backpressure"),
        );
        let _ = writeln!(
            out,
            "queue depth {}  largest agent backlog {} unmerged batch(es)",
            g("server.queue_depth"),
            g("server.agent_lag_max"),
        );
        // The log is rotated down to one checkpoint record by every
        // merge, so this is the unmerged tail, not the upload history.
        let _ = writeln!(
            out,
            "wal {} bytes since the last of {} checkpoint(s)",
            g("server.wal_bytes"),
            c("server.checkpoints"),
        );
        let _ = writeln!(
            out,
            "io sent {}  retransmits {}  acked {}  agent backpressure {}",
            c("uploader.sent"),
            c("uploader.retransmits"),
            c("uploader.acked"),
            c("uploader.backpressure"),
        );
        let ts = &snap.timeseries;
        if ts.points.len() >= 2 {
            let _ = writeln!(
                out,
                "rates accepted {:.3}/tick  merges {:.3}/tick  sent {:.3}/tick \
                 ({} points, {} overwritten)",
                ts.rate("server.accepted"),
                ts.rate("server.merges"),
                ts.rate("uploader.sent"),
                ts.points.len(),
                ts.overwritten,
            );
        }
        // The run's one lag summary (`FleetLag`), exported as gauges.
        if let Some(epochs) = snap.metrics.gauges.get("fleet.lag_epochs") {
            let _ = writeln!(
                out,
                "ingest lag p50 {}  p95 {}  p99 {}  max {} tick(s) over {epochs} epoch(s)",
                g("fleet.lag_p50"),
                g("fleet.lag_p95"),
                g("fleet.lag_p99"),
                g("fleet.lag_max"),
            );
        }
    }
    let _ = writeln!(out, "-- ledgers --");
    match &snap.overhead {
        Some(oh) => {
            let _ = writeln!(out, "{}", oh.render());
        }
        None => {
            let _ = writeln!(out, "no overhead ledger in export");
        }
    }
    match &snap.samples {
        Some(l) => {
            let _ = writeln!(out, "{}", l.render());
        }
        None => {
            let _ = writeln!(out, "no sample ledger in export");
        }
    }
    let _ = writeln!(out, "-- rings --");
    for ring in &snap.rings {
        let _ = writeln!(
            out,
            "{:<8} {} events kept, {} recorded, {} overwritten",
            ring.component,
            ring.events.len(),
            ring.recorded,
            ring.overwritten
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcpi_obs::{Component, LossLedger, Obs, ObsConfig, OverheadLedger, SeriesRing};

    #[test]
    fn status_renders_rates_and_ledgers() {
        let obs = Obs::new(&ObsConfig::on());
        for _ in 0..2 {
            obs.begin(Component::Daemon, "daemon.flush");
            obs.end(Component::Daemon, "daemon.flush", 1, 0);
        }
        obs.event(Component::Driver, "driver.irq", 1, 2);
        let mut snap = obs.snapshot();
        // Host stamps 1000..3000 and 5000..7000: a 2000 ns mean.
        let daemon = snap.rings.iter_mut().find(|r| r.component == "daemon");
        for (ev, ns) in daemon.unwrap().events.iter_mut().zip([1, 3, 5, 7]) {
            ev.wall_ns = ns * 1_000;
        }
        let counters = &mut snap.metrics.counters;
        counters.insert("daemon.flushes".into(), 2);
        counters.insert("driver.interrupts".into(), 1000);
        counters.insert("driver.ht_hits".into(), 900);
        counters.insert("driver.dropped_samples".into(), 10);
        counters.insert("faults.crashes".into(), 1);
        snap.overhead = Some(OverheadLedger {
            total_cycles: 100,
            handler_cycles: 1,
            daemon_cycles: 1,
            walk_cycles: 0,
            samples: 1,
        });
        snap.samples = Some(LossLedger {
            generated: 1000,
            attributed: 990,
            unknown: 0,
            driver_dropped: 10,
            crash_lost: 0,
            quarantined: 0,
        });
        let text = dcpistat(&snap);
        assert!(text.contains("interrupts 1000"), "{text}");
        assert!(text.contains("(90.0%)"), "{text}");
        assert!(text.contains("dropped 10 (1.000% of interrupts)"), "{text}");
        assert!(text.contains("crashes 1"), "{text}");
        assert!(text.contains("flushes 2  mean latency 2000 ns"), "{text}");
        assert!(text.contains("overhead:"), "{text}");
        assert!(text.contains("generated 1000"), "{text}");
        assert!(text.contains("driver"), "{text}");
    }

    #[test]
    fn empty_snapshot_does_not_divide_by_zero() {
        let text = dcpistat(&Snapshot::default());
        assert!(text.contains("observability was disabled"), "{text}");
        assert!(text.contains("interrupts 0"), "{text}");
        assert!(text.contains("no overhead ledger"), "{text}");
        assert!(!text.contains("flushes"), "no flush, no flush line: {text}");
    }

    #[test]
    fn flush_latency_pairs_each_end_with_the_begin_before_it() {
        let obs = Obs::new(&ObsConfig::on());
        // An End with no Begin, a Begin overtaken by the next, then one
        // span whose End is stamped before its Begin.
        obs.end(Component::Daemon, "daemon.flush", 0, 0);
        obs.begin(Component::Daemon, "daemon.flush");
        obs.begin(Component::Daemon, "daemon.flush");
        obs.end(Component::Daemon, "daemon.flush", 0, 0);
        obs.begin(Component::Daemon, "daemon.flush");
        obs.end(Component::Daemon, "daemon.flush", 0, 0);
        let mut snap = obs.snapshot();
        let daemon = snap.rings.iter_mut().find(|r| r.component == "daemon");
        let stamps = [0, u64::MAX, 100, 700, u64::MAX, 5];
        for (ev, ns) in daemon.unwrap().events.iter_mut().zip(stamps) {
            ev.wall_ns = ns;
        }
        snap.metrics.counters.insert("daemon.flushes".into(), 2);
        let text = dcpistat(&snap);
        assert!(text.contains("flushes 2  mean latency 300 ns"), "{text}");
    }

    #[test]
    fn enabled_snapshot_has_no_disabled_notice() {
        let mut snap = Obs::new(&ObsConfig::on()).snapshot();
        snap.metrics.counters.insert("driver.interrupts".into(), 1);
        let text = dcpistat(&snap);
        assert!(!text.contains("observability was disabled"), "{text}");
    }

    #[test]
    fn server_section_reads_the_lag_gauges_and_the_series() {
        let mut m = dcpi_obs::MetricsSnapshot::default();
        for (name, v) in [
            ("server.accepted", 40),
            ("server.merges", 4),
            ("uploader.sent", 44),
        ] {
            m.counters.insert(name.into(), v);
        }
        m.gauges.insert("server.wal_bytes".into(), 512);
        m.gauges.insert("server.agent_lag_max".into(), 2);
        let mut series = SeriesRing::new(8);
        series.record(0, &m);
        m.counters.insert("server.accepted".into(), 50);
        series.record(100, &m);
        for (name, v) in [
            ("fleet.lag_p50", 16),
            ("fleet.lag_p95", 60),
            ("fleet.lag_p99", 64),
            ("fleet.lag_max", 64),
            ("fleet.lag_epochs", 3),
        ] {
            m.gauges.insert(name.into(), v);
        }
        let snap = Snapshot {
            metrics: m,
            timeseries: series.snapshot(),
            ..Snapshot::default()
        };
        let text = dcpistat(&snap);
        assert!(text.contains("wal 512 bytes"), "{text}");
        assert!(text.contains("backlog 2 unmerged batch(es)"), "{text}");
        assert!(text.contains("accepted 0.100/tick"), "{text}");
        assert!(
            text.contains("ingest lag p50 16  p95 60  p99 64  max 64 tick(s) over 3 epoch(s)"),
            "{text}"
        );
        // An export without the lag summary prints no lag line.
        let mut snap = snap;
        snap.metrics.gauges.retain(|k, _| !k.starts_with("fleet."));
        let text = dcpistat(&snap);
        assert!(!text.contains("ingest lag"), "{text}");
    }
}
