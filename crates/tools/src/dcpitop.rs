//! dcpitop: the `top(1)` of the ingestion pipeline — a fleet-at-a-glance
//! dashboard rendered from a server-side observability export (the
//! `--obs` output of `dcpifleet run`). One call renders one frame; the
//! binary's `--watch` mode re-reads the export and repaints. The
//! `--flame` form instead emits a speedscope flamegraph document from a
//! profile database's calling-context sidecars.

use crate::dbload::stack_frame_name;
use crate::registry::ImageRegistry;
use dcpi_core::Event;
use dcpi_obs::Snapshot;
use dcpi_stacks::{speedscope, StackProfile};
use std::fmt::Write as _;

/// Renders one dashboard frame: agents up, epoch pipeline counters,
/// backlog (queue depth, WAL size), ingest-lag percentiles from the
/// server's lag histogram, per-tick rates from the time-series ring,
/// and any fault-injection counters the run recorded. Deterministic in
/// the snapshot (wall-clock fields are not consulted).
#[must_use]
pub fn dcpitop(snap: &Snapshot) -> String {
    let c = |name: &str| snap.metrics.counters.get(name).copied().unwrap_or(0);
    let g = |name: &str| snap.metrics.gauges.get(name).copied().unwrap_or(0);
    let meta = |key: &str| snap.meta.get(key).map_or("?", String::as_str);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "dcpitop — fleet ingestion (tool {}, seed {}, agents {})",
        meta("tool"),
        meta("seed"),
        meta("agents"),
    );
    let _ = writeln!(
        out,
        "agents   up {}  registrations {}  lease expiries {}",
        g("server.agents"),
        c("server.registrations"),
        c("server.lease_expiries"),
    );
    let _ = writeln!(
        out,
        "epochs   accepted {}  deduped {}  merges {}  merged batches {}",
        c("server.accepted"),
        c("server.deduped"),
        c("server.merges"),
        c("server.merged_batches"),
    );
    let _ = writeln!(
        out,
        "backlog  queue depth {}  wal {} bytes  journaled samples {}  backpressure {}",
        g("server.queue_depth"),
        g("server.wal_bytes"),
        c("server.journaled_samples"),
        c("server.backpressure"),
    );
    match snap.metrics.histograms.get("server.ingest_lag_cycles") {
        Some(h) if h.count > 0 => {
            let _ = writeln!(
                out,
                "lag      p50 {}  p95 {}  p99 {} cycles ({} epochs measured)",
                h.quantile(0.50),
                h.quantile(0.95),
                h.quantile(0.99),
                h.count,
            );
        }
        _ => {
            let _ = writeln!(out, "lag      (no ingest-lag histogram in export)");
        }
    }
    let ts = &snap.timeseries;
    if ts.points.len() >= 2 {
        let _ = writeln!(
            out,
            "rates    accepted {:.3}/tick  merges {:.3}/tick  sent {:.3}/tick \
             ({} points, {} overwritten)",
            ts.rate("server.accepted"),
            ts.rate("server.merges"),
            ts.rate("uploader.sent"),
            ts.points.len(),
            ts.overwritten,
        );
    }
    let _ = writeln!(
        out,
        "io       sent {}  retransmits {}  acked {}  agent backpressure {}",
        c("uploader.sent"),
        c("uploader.retransmits"),
        c("uploader.acked"),
        c("uploader.backpressure"),
    );
    let faults: Vec<(&String, &u64)> = snap
        .metrics
        .counters
        .iter()
        .filter(|(k, &v)| k.starts_with("faults.") && v > 0)
        .collect();
    if !faults.is_empty() {
        let _ = write!(out, "faults  ");
        for (k, v) in faults {
            let _ = write!(out, " {} {v}", k.trim_start_matches("faults."));
        }
        let _ = writeln!(out);
    }
    out
}

/// Renders `dcpitop --flame`: the speedscope JSON document for one
/// event of a merged calling-context profile, symbolized through the
/// registry. Byte-deterministic for a given profile — goldens and CI
/// artifacts diff cleanly. Open the result at
/// <https://www.speedscope.app> or with any speedscope-format viewer.
#[must_use]
pub fn dcpitop_flame(
    stacks: &StackProfile,
    registry: &ImageRegistry,
    event: Event,
    title: &str,
) -> String {
    speedscope::export(stacks, event, title, &|f| stack_frame_name(registry, f))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcpi_obs::{HistogramSnapshot, MetricsSnapshot, SeriesRing};

    #[test]
    fn dashboard_renders_pipeline_rows() {
        let mut m = MetricsSnapshot::default();
        for (name, v) in [
            ("server.accepted", 40),
            ("server.merges", 4),
            ("uploader.sent", 44),
        ] {
            m.counters.insert(name.into(), v);
        }
        m.gauges.insert("server.agents".into(), 10);
        m.gauges.insert("server.wal_bytes".into(), 4096);
        let mut series = SeriesRing::new(8);
        series.record(0, &m);
        m.counters.insert("server.accepted".into(), 50);
        series.record(100, &m);
        m.histograms.insert(
            "server.ingest_lag_cycles".into(),
            HistogramSnapshot::of(&[10, 20, 30, 400]),
        );
        let mut snap = Snapshot {
            metrics: m,
            timeseries: series.snapshot(),
            ..Snapshot::default()
        };
        snap.meta.insert("tool".into(), "dcpifleet".into());
        snap.meta.insert("agents".into(), "10".into());
        let text = dcpitop(&snap);
        assert!(text.contains("agents 10"), "{text}");
        assert!(text.contains("up 10"), "{text}");
        assert!(text.contains("accepted 50"), "{text}");
        assert!(text.contains("wal 4096 bytes"), "{text}");
        assert!(text.contains("p50 31"), "{text}"); // bucket bound of 20/30
        assert!(text.contains("p99 511"), "{text}"); // bucket bound of 400
        assert!(text.contains("accepted 0.100/tick"), "{text}");
    }

    #[test]
    fn empty_snapshot_renders_without_rates() {
        let text = dcpitop(&Snapshot::default());
        assert!(text.contains("up 0"), "{text}");
        assert!(text.contains("no ingest-lag histogram"), "{text}");
        assert!(!text.contains("rates"), "{text}");
    }

    #[test]
    fn flame_export_is_schema_clean_and_deterministic() {
        use dcpi_core::{ImageId, Pid};
        let f = |off| dcpi_stacks::Frame {
            image: ImageId(1),
            offset: off,
        };
        let mut stacks = StackProfile::new();
        stacks.record(Event::Cycles.code(), Pid(1), &[f(0), f(4)], 9);
        stacks.record(Event::Cycles.code(), Pid(2), &[f(0)], 1);
        let reg = ImageRegistry::new();
        let doc = dcpitop_flame(&stacks, &reg, Event::Cycles, "unit");
        speedscope::check_schema(&doc).unwrap();
        assert_eq!(doc, dcpitop_flame(&stacks, &reg, Event::Cycles, "unit"));
        // Unregistered images symbolize as hex, not a panic.
        assert!(doc.contains("0x4 [?]"), "{doc}");
    }
}
