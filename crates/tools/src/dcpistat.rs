//! dcpistat: one-shot profiler status from an exported observability
//! snapshot — sample and drop rates, hash-table behavior, flush
//! latencies, and both ledgers.

use dcpi_obs::Snapshot;
use std::fmt::Write as _;

fn rate(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
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
        && snap.metrics.histograms.is_empty()
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
    if let Some(h) = snap.metrics.histograms.get("daemon.flush_ns") {
        let _ = writeln!(out, "flushes {}  mean latency {:.0} ns", h.count, h.mean());
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
            "accepted {}  deduped {}  merges {}  journaled samples {}",
            c("server.accepted"),
            c("server.deduped"),
            c("server.merges"),
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
            "queue depth {}  max agent lag {}  uploader frames sent {}",
            g("server.queue_depth"),
            g("server.agent_lag_max"),
            c("uploader.sent"),
        );
        // The log is rotated down to one checkpoint record by every
        // merge, so this is the unmerged tail, not the upload history.
        let _ = writeln!(
            out,
            "wal {} bytes since the last of {} checkpoint(s)",
            g("server.wal_bytes"),
            c("server.checkpoints"),
        );
        if let Some(h) = snap.metrics.histograms.get("server.ingest_lag_cycles") {
            if h.count > 0 {
                let _ = writeln!(
                    out,
                    "ingest lag p50 {}  p95 {}  p99 {} cycles over {} epoch(s)",
                    h.quantile(0.50),
                    h.quantile(0.95),
                    h.quantile(0.99),
                    h.count,
                );
            }
        }
        // Per-agent freshness: each agent's latest database-visible
        // epoch, from the server ring's merge-visibility events.
        let mut visible: std::collections::BTreeMap<u32, u64> = std::collections::BTreeMap::new();
        let mut newest = 0u64;
        for ring in snap.rings.iter().filter(|r| r.component == "server") {
            for ev in ring.events.iter().filter(|e| e.name == "server.visible") {
                visible.insert(dcpi_obs::span_agent(ev.a), ev.cycle);
                newest = newest.max(ev.cycle);
            }
        }
        if !visible.is_empty() {
            let stale = visible
                .iter()
                .map(|(&a, &v)| (newest - v, a))
                .max()
                .unwrap_or((0, 0));
            let _ = writeln!(
                out,
                "freshness {} agent(s) visible; stalest agent {} ({} cycles behind)",
                visible.len(),
                stale.1,
                stale.0,
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
    use dcpi_obs::{Component, LossLedger, Obs, ObsConfig, OverheadLedger};

    #[test]
    fn status_renders_rates_and_ledgers() {
        let obs = Obs::new(&ObsConfig::on());
        obs.histogram("daemon.flush_ns").observe(2_000);
        obs.event(Component::Driver, "driver.irq", 1, 2);
        let mut snap = obs.snapshot();
        let counters = &mut snap.metrics.counters;
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
    }

    #[test]
    fn enabled_snapshot_has_no_disabled_notice() {
        let mut snap = Obs::new(&ObsConfig::on()).snapshot();
        snap.metrics.counters.insert("driver.interrupts".into(), 1);
        let text = dcpistat(&snap);
        assert!(!text.contains("observability was disabled"), "{text}");
    }

    #[test]
    fn server_section_reports_lag_and_freshness() {
        let obs = Obs::new(&ObsConfig::on());
        for lag in [8, 16, 64] {
            obs.histogram("server.ingest_lag_cycles").observe(lag);
        }
        obs.event_at(
            Component::Server,
            "server.visible",
            100,
            dcpi_obs::span_id(1, 1),
            8,
        );
        obs.event_at(
            Component::Server,
            "server.visible",
            140,
            dcpi_obs::span_id(2, 1),
            16,
        );
        let mut snap = obs.snapshot();
        snap.metrics.counters.insert("server.accepted".into(), 3);
        snap.metrics.gauges.insert("server.wal_bytes".into(), 512);
        let text = dcpistat(&snap);
        assert!(text.contains("wal 512 bytes"), "{text}");
        assert!(text.contains("ingest lag p50 31"), "{text}");
        assert!(text.contains("p99 127"), "{text}");
        assert!(
            text.contains("stalest agent 1 (40 cycles behind)"),
            "{text}"
        );
    }
}
