//! Layer-4 audits: the profiler's own observability exports.
//!
//! `dcpistat`, `dcpitrace`, and the CI observability job all consume the
//! JSON snapshot a profiled run exports ([`dcpi_obs::Snapshot`]). This
//! module re-verifies the invariants those consumers silently assume:
//! cycle stamps within a ring never run backwards, ring overwrite
//! accounting balances, begin/end spans pair up, the sample ledger
//! conserves, and the overhead ledger is internally consistent and lands
//! inside [`AUDIT_BAND`] (the paper's 1–3% of total cycles at the
//! default sampling period, with slack).

use crate::diag::{Category, Report, Severity};
use dcpi_obs::{span_agent, span_seq, EventKind, RingSnapshot, Snapshot};
use std::collections::BTreeMap;

/// Overhead fractions above this are errors: collection charging this
/// much means a cost model or accounting bug.
const MAX_OVERHEAD: f64 = 0.10;

/// The audited overhead band `(lo, hi)` as fractions of total cycles;
/// fractions outside it warn. The paper's Table 3 puts the shipped
/// configuration at 1–3%; this band is that claim's slack, wide enough
/// for short runs.
pub const AUDIT_BAND: (f64, f64) = (0.003, 0.05);

/// Parses an exported snapshot and runs every audit over it. A text that
/// does not parse yields a single `ObsExport` error.
#[must_use]
pub fn check_obs_export(text: &str) -> Report {
    match Snapshot::parse(text) {
        Ok(snap) => check_snapshot(&snap),
        Err(e) => {
            let mut report = Report::new();
            report.flag(
                Category::ObsExport,
                "snapshot",
                format!("export does not parse: {e}"),
            );
            report
        }
    }
}

/// Runs every audit over an in-memory snapshot.
#[must_use]
pub fn check_snapshot(snap: &Snapshot) -> Report {
    let mut report = Report::new();
    for ring in &snap.rings {
        check_ring(ring, &mut report);
    }
    check_ledgers(snap, &mut report);
    check_trace_chains(snap, &mut report);
    check_timeseries(snap, &mut report);
    report
}

/// The pipeline stages a sealed epoch's span passes through, keyed by
/// the packed `span_id(agent, seq)` every stage event carries in `a`.
#[derive(Default)]
struct SpanChain {
    /// `epoch.seal` cycles (at most one per span).
    seals: Vec<u64>,
    /// `upload.send` cycles — re-sends after a nack or an agent crash
    /// legitimately repeat this stage.
    sends: Vec<u64>,
    /// `upload.retry` cycles (timeout retransmits).
    retries: Vec<u64>,
    /// `server.ack` `(cycle, lag)` — WAL append + ack (at most one: the
    /// server never re-journals a duplicate).
    acks: Vec<(u64, u64)>,
    /// `server.visible` `(cycle, lag)` — database merge (at most one).
    visibles: Vec<(u64, u64)>,
}

/// Audits the end-to-end pipeline trace: every sealed epoch's span
/// chain must walk the stages in order (seal → send/retry → journal+ack
/// → database-visible), the server-computed lag payloads must agree
/// with the lag recomputed from the trace (which proves the seal tick
/// survived wire → WAL → merge intact), and — when the export is marked
/// `fleet_quiesced` — every sealed epoch must have reached visibility.
/// Snapshots with no pipeline events are skipped entirely.
///
/// Rings that wrapped lose oldest events first, so spans sealed at or
/// before the overwrite window `W` (the latest first-surviving cycle of
/// any wrapped pipeline ring) are excused from structural checks; the
/// lag cross-checks still run on whatever stages survive.
fn check_trace_chains(snap: &Snapshot, report: &mut Report) {
    const STAGES: [&str; 6] = [
        "epoch.seal",
        "upload.send",
        "upload.retry",
        "upload.ack",
        "server.ack",
        "server.visible",
    ];
    let mut chains: BTreeMap<u64, SpanChain> = BTreeMap::new();
    let mut wrapped = false;
    let mut window = 0u64;
    for ring in &snap.rings {
        if ring.component != "session" && ring.component != "server" {
            continue;
        }
        if ring.overwritten > 0 {
            wrapped = true;
            if let Some(first) = ring.events.first() {
                window = window.max(first.cycle);
            }
        }
        for ev in &ring.events {
            if !STAGES.contains(&ev.name.as_str()) {
                continue;
            }
            let chain = chains.entry(ev.a).or_default();
            match ev.name.as_str() {
                "epoch.seal" => chain.seals.push(ev.cycle),
                "upload.send" => chain.sends.push(ev.cycle),
                "upload.retry" => chain.retries.push(ev.cycle),
                "server.ack" => chain.acks.push((ev.cycle, ev.b)),
                "server.visible" => chain.visibles.push((ev.cycle, ev.b)),
                // Agent-side ack receipt closes the retransmit loop but
                // adds no pipeline stage; duplicates are expected.
                _ => {}
            }
        }
    }
    if chains.is_empty() {
        return;
    }
    let quiesced = snap.meta.get("fleet_quiesced").map(String::as_str) == Some("true");
    for (id, chain) in &chains {
        let ctx = format!("trace/{}:{}", span_agent(*id), span_seq(*id));
        // Once-only stages can never be duplicated by ring overwrite, so
        // multiplicity is checked unconditionally.
        for (stage, n) in [
            ("epoch.seal", chain.seals.len()),
            ("server.ack", chain.acks.len()),
            ("server.visible", chain.visibles.len()),
        ] {
            if n > 1 {
                report.flag(
                    Category::ObsTrace,
                    &ctx,
                    format!("stage `{stage}` recorded {n} times"),
                );
            }
        }
        let seal = chain.seals.first().copied();
        let first_send = chain.sends.iter().min().copied();
        let ack = chain.acks.first().copied();
        let visible = chain.visibles.first().copied();
        // Lag payloads are carried data, not ring order, so they are
        // checked whenever both ends survive: the server computed them
        // from the wire-carried seal tick, and they must match the lag
        // recomputed from the agent-side seal event.
        if let Some(s) = seal {
            for (stage, pair) in [("server.ack", ack), ("server.visible", visible)] {
                if let Some((cycle, lag)) = pair {
                    if lag != cycle.saturating_sub(s) {
                        report.flag(
                            Category::ObsTrace,
                            &ctx,
                            format!(
                                "`{stage}` lag payload {lag} != {} recomputed \
                                 from the seal tick (span context corrupted in transit)",
                                cycle.saturating_sub(s)
                            ),
                        );
                    }
                }
            }
        }
        // A span sealed inside the overwrite window (or whose seal was
        // itself overwritten) may be missing arbitrary stages.
        let excused = wrapped && seal.is_none_or(|s| s <= window);
        if excused {
            continue;
        }
        // Stage-prefix contiguity: a chain may *end* early (a fault
        // stopped the epoch there) but can never skip a stage.
        if !chain.sends.is_empty() && seal.is_none() {
            report.flag(Category::ObsTrace, &ctx, "sent without a surviving seal");
        }
        if ack.is_some() && first_send.is_none() {
            report.flag(
                Category::ObsTrace,
                &ctx,
                "journaled+acked without a surviving send",
            );
        }
        if visible.is_some() && ack.is_none() {
            report.flag(
                Category::ObsTrace,
                &ctx,
                "database-visible without a surviving journal/ack",
            );
        }
        // Stage ordering, and the ingest-lag conservation identity:
        // spool-wait + transit + merge-wait must telescope to the total
        // seal→visible lag the server reported.
        if let Some(s) = seal {
            if let Some(f) = first_send {
                if f < s {
                    report.flag(
                        Category::ObsTrace,
                        &ctx,
                        format!("first send at {f} precedes seal at {s}"),
                    );
                }
            }
            for &r in &chain.retries {
                if r < s {
                    report.flag(
                        Category::ObsTrace,
                        &ctx,
                        format!("retry at {r} precedes seal at {s}"),
                    );
                }
            }
            if let (Some(f), Some((a, _))) = (first_send, ack) {
                if a < f {
                    report.flag(
                        Category::ObsTrace,
                        &ctx,
                        format!("journal/ack at {a} precedes first send at {f}"),
                    );
                }
                if let Some((v, lag)) = visible {
                    if v < a {
                        report.flag(
                            Category::ObsTrace,
                            &ctx,
                            format!("visible at {v} precedes journal/ack at {a}"),
                        );
                    }
                    let spool_wait = f.saturating_sub(s);
                    let transit = a.saturating_sub(f);
                    let merge_wait = v.saturating_sub(a);
                    let total = spool_wait
                        .saturating_add(transit)
                        .saturating_add(merge_wait);
                    if total != lag {
                        report.flag(
                            Category::ObsTrace,
                            &ctx,
                            format!(
                                "stage durations {spool_wait}+{transit}+{merge_wait} \
                                 do not sum to the reported ingest lag {lag}"
                            ),
                        );
                    }
                }
            }
        }
        if quiesced && visible.is_none() {
            let last = if ack.is_some() {
                "journal/ack"
            } else if !chain.retries.is_empty() {
                "retry"
            } else if first_send.is_some() {
                "send"
            } else {
                "seal"
            };
            report.flag(
                Category::ObsTrace,
                &ctx,
                format!("sealed epoch never became database-visible (chain ends at {last})"),
            );
        }
    }
}

/// Audits the time-series section: overwrite accounting must balance
/// (mirroring the trace-ring rule) and point ticks never run backwards.
fn check_timeseries(snap: &Snapshot, report: &mut Report) {
    let ts = &snap.timeseries;
    let len = ts.points.len() as u64;
    let ctx = "timeseries";
    if len > ts.capacity {
        report.flag(
            Category::ObsSeries,
            ctx,
            format!("{len} points exceed capacity {}", ts.capacity),
        );
    }
    if ts.recorded < len || ts.overwritten != ts.recorded - len {
        report.flag(
            Category::ObsSeries,
            ctx,
            format!(
                "overwrite accounting broken: recorded {} - kept {len} != overwritten {}",
                ts.recorded, ts.overwritten
            ),
        );
    }
    let mut last = 0u64;
    for (i, p) in ts.points.iter().enumerate() {
        if p.tick < last {
            report.flag(
                Category::ObsSeries,
                ctx,
                format!("ticks run backwards at point {i}: {} < {last}", p.tick),
            );
            break;
        }
        last = p.tick;
    }
}

fn check_ring(ring: &RingSnapshot, report: &mut Report) {
    let ctx = format!("ring/{}", ring.component);
    let len = ring.events.len() as u64;
    if len > ring.capacity {
        report.flag(
            Category::ObsRing,
            &ctx,
            format!("{len} events exceed capacity {}", ring.capacity),
        );
    }
    if ring.recorded < len || ring.overwritten != ring.recorded - len {
        report.flag(
            Category::ObsRing,
            &ctx,
            format!(
                "overwrite accounting broken: recorded {} - kept {len} != overwritten {}",
                ring.recorded, ring.overwritten
            ),
        );
    }
    let mut last_cycle = 0u64;
    let mut last_wall = 0u64;
    for (i, ev) in ring.events.iter().enumerate() {
        if ev.cycle < last_cycle {
            report.flag(
                Category::ObsRing,
                &ctx,
                format!(
                    "cycle stamps run backwards at event {i} ({}): {} < {last_cycle}",
                    ev.name, ev.cycle
                ),
            );
            break;
        }
        last_cycle = ev.cycle;
        if ev.wall_ns < last_wall {
            report.flag_as(
                Severity::Warning,
                Category::ObsRing,
                &ctx,
                format!("wall stamps run backwards at event {i} ({})", ev.name),
            );
        }
        last_wall = last_wall.max(ev.wall_ns);
    }
    // Span pairing is only checkable when nothing was overwritten: a
    // ring that wrapped may have lost a Begin whose End survives.
    if ring.overwritten == 0 {
        let mut depth: BTreeMap<&str, i64> = BTreeMap::new();
        for ev in &ring.events {
            match ev.kind {
                EventKind::Begin => *depth.entry(ev.name.as_str()).or_insert(0) += 1,
                EventKind::End => {
                    let d = depth.entry(ev.name.as_str()).or_insert(0);
                    *d -= 1;
                    if *d < 0 {
                        report.flag(
                            Category::ObsRing,
                            &ctx,
                            format!("span `{}` ends without a begin", ev.name),
                        );
                        return;
                    }
                }
                EventKind::Instant => {}
            }
        }
        for (name, d) in depth {
            if d != 0 {
                report.flag(
                    Category::ObsRing,
                    &ctx,
                    format!("span `{name}` left {d} begin(s) unclosed"),
                );
            }
        }
    }
}

fn check_ledgers(snap: &Snapshot, report: &mut Report) {
    if let Some(samples) = &snap.samples {
        if !samples.conserves() {
            report.flag(Category::ObsLedger, "samples", samples.render());
        }
    }
    if let Some(oh) = &snap.overhead {
        if !oh.consistent() {
            report.flag(
                Category::ObsLedger,
                "overhead",
                format!(
                    "collection cycles {} exceed total cycles {}",
                    oh.collection_cycles(),
                    oh.total_cycles
                ),
            );
        } else if oh.fraction() > MAX_OVERHEAD {
            report.flag(
                Category::ObsLedger,
                "overhead",
                format!(
                    "overhead fraction {:.4} exceeds the hard ceiling {:.4}",
                    oh.fraction(),
                    MAX_OVERHEAD
                ),
            );
        } else if oh.samples > 0 && !oh.in_band(AUDIT_BAND.0, AUDIT_BAND.1) {
            report.flag_as(
                Severity::Warning,
                Category::ObsLedger,
                "overhead",
                format!(
                    "overhead fraction {:.4} outside the expected band {:.3}-{:.3}",
                    oh.fraction(),
                    AUDIT_BAND.0,
                    AUDIT_BAND.1
                ),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcpi_obs::{Component, LossLedger, Obs, ObsConfig, OverheadLedger};

    fn sample_snapshot() -> Snapshot {
        let obs = Obs::new(&ObsConfig::on());
        obs.advance_cycle(100);
        obs.begin(Component::Daemon, "daemon.flush");
        obs.advance_cycle(200);
        obs.end(Component::Daemon, "daemon.flush", 5, 0);
        let mut snap = obs.snapshot();
        snap.metrics.counters.insert("driver.interrupts".into(), 42);
        snap.overhead = Some(OverheadLedger {
            total_cycles: 1_000_000,
            handler_cycles: 9_000,
            daemon_cycles: 3_000,
            walk_cycles: 0,
            samples: 20,
        });
        snap.samples = Some(LossLedger {
            generated: 20,
            attributed: 18,
            unknown: 1,
            driver_dropped: 1,
            crash_lost: 0,
            quarantined: 0,
        });
        snap
    }

    #[test]
    fn clean_snapshot_passes() {
        let report = check_snapshot(&sample_snapshot());
        assert!(report.is_clean(), "{}", report.render());
        assert_eq!(report.warnings(), 0, "{}", report.render());
    }

    #[test]
    fn export_roundtrip_passes() {
        let text = sample_snapshot().to_json();
        let report = check_obs_export(&text);
        assert!(report.is_clean(), "{}", report.render());
    }

    #[test]
    fn garbage_export_is_one_error() {
        let report = check_obs_export("not json");
        assert_eq!(report.errors(), 1);
        assert_eq!(report.diags[0].category, Category::ObsExport);
    }

    #[test]
    fn backwards_cycles_flagged() {
        let mut snap = sample_snapshot();
        snap.rings
            .iter_mut()
            .find(|r| r.component == "daemon")
            .unwrap()
            .events[1]
            .cycle = 0;
        let report = check_snapshot(&snap);
        assert!(report
            .diags
            .iter()
            .any(|d| d.category == Category::ObsRing && d.message.contains("backwards")));
    }

    #[test]
    fn overwrite_accounting_flagged() {
        let mut snap = sample_snapshot();
        let ring = snap
            .rings
            .iter_mut()
            .find(|r| r.component == "daemon")
            .unwrap();
        ring.overwritten = 7;
        let report = check_snapshot(&snap);
        assert!(!report.is_clean());
    }

    #[test]
    fn unbalanced_span_flagged() {
        let mut snap = sample_snapshot();
        let ring = snap
            .rings
            .iter_mut()
            .find(|r| r.component == "daemon")
            .unwrap();
        ring.events.remove(1); // drop the End; Begin left open
        ring.recorded -= 1;
        let report = check_snapshot(&snap);
        assert!(report.diags.iter().any(|d| d.message.contains("unclosed")));
    }

    fn fleet_snapshot(quiesced: bool) -> Snapshot {
        let obs = Obs::new(&ObsConfig::on());
        let id = dcpi_obs::span_id(3, 1);
        obs.event_at(Component::Session, "epoch.seal", 10, id, 100);
        obs.event_at(Component::Session, "upload.send", 12, id, 0);
        obs.event_at(Component::Session, "upload.retry", 20, id, 1);
        obs.event_at(Component::Server, "server.ack", 25, id, 15);
        obs.event_at(Component::Session, "upload.ack", 27, id, 0);
        obs.event_at(Component::Server, "server.visible", 40, id, 30);
        let mut snap = obs.snapshot();
        if quiesced {
            snap.meta.insert("fleet_quiesced".into(), "true".into());
        }
        snap
    }

    #[test]
    fn complete_span_chain_passes() {
        for quiesced in [false, true] {
            let report = check_snapshot(&fleet_snapshot(quiesced));
            assert!(report.is_clean(), "{}", report.render());
            assert_eq!(report.warnings(), 0, "{}", report.render());
        }
    }

    #[test]
    fn corrupted_lag_payload_flagged() {
        let mut snap = fleet_snapshot(true);
        let ring = snap
            .rings
            .iter_mut()
            .find(|r| r.component == "server")
            .unwrap();
        ring.events
            .iter_mut()
            .find(|e| e.name == "server.visible")
            .unwrap()
            .b = 29;
        let report = check_snapshot(&snap);
        assert!(report
            .diags
            .iter()
            .any(|d| d.category == Category::ObsTrace && d.message.contains("lag payload")));
    }

    #[test]
    fn skipped_stage_flagged() {
        let mut snap = fleet_snapshot(false);
        let ring = snap
            .rings
            .iter_mut()
            .find(|r| r.component == "server")
            .unwrap();
        let i = ring
            .events
            .iter()
            .position(|e| e.name == "server.ack")
            .unwrap();
        ring.events.remove(i);
        ring.recorded -= 1;
        let report = check_snapshot(&snap);
        assert!(
            report.diags.iter().any(|d| d.category == Category::ObsTrace
                && d.message.contains("without a surviving journal/ack")),
            "{}",
            report.render()
        );
    }

    #[test]
    fn quiesced_chain_must_reach_visibility() {
        let mut snap = fleet_snapshot(true);
        let ring = snap
            .rings
            .iter_mut()
            .find(|r| r.component == "server")
            .unwrap();
        ring.events.clear();
        ring.recorded = 0;
        // Mid-run (not quiesced) an incomplete chain is a fault ending
        // at its last stage, which is legitimate…
        snap.meta.remove("fleet_quiesced");
        let report = check_snapshot(&snap);
        assert!(report.is_clean(), "{}", report.render());
        // …but a quiesced fleet must have landed every sealed epoch.
        snap.meta.insert("fleet_quiesced".into(), "true".into());
        let report = check_snapshot(&snap);
        assert!(
            report
                .diags
                .iter()
                .any(|d| d.category == Category::ObsTrace
                    && d.message.contains("chain ends at retry")),
            "{}",
            report.render()
        );
    }

    #[test]
    fn overwritten_window_excuses_missing_stages() {
        let mut snap = fleet_snapshot(true);
        let ring = snap
            .rings
            .iter_mut()
            .find(|r| r.component == "session")
            .unwrap();
        // The session ring wrapped past the seal: every session-side
        // stage of the span is gone, the server-side tail survives.
        ring.events.clear();
        ring.overwritten = ring.recorded;
        let report = check_snapshot(&snap);
        assert!(report.is_clean(), "{}", report.render());
    }

    #[test]
    fn timeseries_violations_flagged() {
        use dcpi_obs::TimePoint;
        let mut snap = sample_snapshot();
        snap.timeseries.capacity = 4;
        snap.timeseries.recorded = 2;
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
        let report = check_snapshot(&snap);
        assert!(
            report
                .diags
                .iter()
                .any(|d| d.category == Category::ObsSeries && d.message.contains("backwards")),
            "{}",
            report.render()
        );
        snap.timeseries.recorded = 1;
        let report = check_snapshot(&snap);
        assert!(report
            .diags
            .iter()
            .any(|d| d.category == Category::ObsSeries && d.message.contains("accounting")));
    }

    #[test]
    fn ledger_violations_flagged() {
        let mut snap = sample_snapshot();
        snap.samples.as_mut().unwrap().generated += 5;
        let report = check_snapshot(&snap);
        assert!(report
            .diags
            .iter()
            .any(|d| d.category == Category::ObsLedger && d.severity == Severity::Error));

        let mut snap = sample_snapshot();
        snap.overhead.as_mut().unwrap().handler_cycles = 2_000_000;
        let report = check_snapshot(&snap);
        assert!(!report.is_clean(), "inconsistent overhead is an error");

        let mut snap = sample_snapshot();
        snap.overhead.as_mut().unwrap().handler_cycles = 500_000;
        let report = check_snapshot(&snap);
        assert!(!report.is_clean(), "overhead above the ceiling is an error");

        let mut snap = sample_snapshot();
        snap.overhead.as_mut().unwrap().handler_cycles = 90_000;
        let report = check_snapshot(&snap);
        assert!(report.is_clean());
        assert_eq!(report.warnings(), 1, "out-of-band overhead warns");
    }
}
