//! dcpitrace: dump and filter the cycle-stamped trace rings of an
//! exported observability snapshot, as a compact text timeline or JSON.

use dcpi_core::json::quote;
use dcpi_obs::{EventRecord, Snapshot};
use std::fmt::Write as _;

/// One timeline entry: an event plus the component ring it came from.
#[derive(Clone, Debug)]
pub struct TraceLine<'a> {
    /// The ring's component name (`machine`, `driver`, ...).
    pub component: &'a str,
    /// The event itself.
    pub event: &'a EventRecord,
}

/// Collects events across rings (optionally restricted to `component`)
/// into one timeline ordered by cycle stamp. The sort is stable, so
/// events with equal stamps keep their ring order.
#[must_use]
pub fn timeline<'a>(snap: &'a Snapshot, component: Option<&str>) -> Vec<TraceLine<'a>> {
    let mut lines: Vec<TraceLine<'a>> = snap
        .rings
        .iter()
        .filter(|r| component.is_none_or(|c| r.component == c))
        .flat_map(|r| {
            r.events.iter().map(|event| TraceLine {
                component: r.component.as_str(),
                event,
            })
        })
        .collect();
    lines.sort_by_key(|l| l.event.cycle);
    lines
}

/// The compact text timeline: one event per line, cycle-ordered.
#[must_use]
pub fn dcpitrace(snap: &Snapshot, component: Option<&str>) -> String {
    let mut out = String::new();
    for l in timeline(snap, component) {
        let e = l.event;
        let _ = writeln!(
            out,
            "{:>12}  {:<8} {:<6} {:<24} a={} b={}",
            e.cycle,
            l.component,
            e.kind.name(),
            e.name,
            e.a,
            e.b
        );
    }
    let dropped: u64 = snap
        .rings
        .iter()
        .filter(|r| component.is_none_or(|c| r.component == c))
        .map(|r| r.overwritten)
        .sum();
    if dropped > 0 {
        let _ = writeln!(out, "({dropped} earlier events overwritten in the rings)");
    }
    out
}

/// Interleaves the trace rings of several exports — typically an
/// agent-side and a server-side snapshot of the same fleet run — into
/// one cycle-ordered timeline. Each entry's source column is
/// `label:component` (or just the component when the label is empty).
/// With `epoch = Some((agent, seq))` only events carrying that epoch's
/// packed span id in `a` survive, which cuts the timeline down to one
/// epoch's seal → send → journal/ack → visible journey.
///
/// Cycle ties keep input order (snapshot order, then ring order), so
/// the interleaving is deterministic.
#[must_use]
pub fn merged_timeline<'a>(
    snaps: &[(&str, &'a Snapshot)],
    epoch: Option<(u32, u64)>,
) -> Vec<(String, &'a EventRecord)> {
    let want = epoch.map(|(a, s)| dcpi_obs::span_id(a, s));
    let mut lines: Vec<(String, &EventRecord)> = Vec::new();
    for (label, snap) in snaps {
        for r in &snap.rings {
            for event in &r.events {
                if want.is_some_and(|id| event.a != id) {
                    continue;
                }
                let source = if label.is_empty() {
                    r.component.clone()
                } else {
                    format!("{label}:{}", r.component)
                };
                lines.push((source, event));
            }
        }
    }
    lines.sort_by_key(|(_, e)| e.cycle);
    lines
}

/// The merged timeline as compact text, one event per line.
#[must_use]
pub fn dcpitrace_merged(snaps: &[(&str, &Snapshot)], epoch: Option<(u32, u64)>) -> String {
    let mut out = String::new();
    if let Some((a, s)) = epoch {
        let _ = writeln!(out, "span {a}:{s} (id {})", dcpi_obs::span_id(a, s));
    }
    for (source, e) in merged_timeline(snaps, epoch) {
        let _ = writeln!(
            out,
            "{:>12}  {:<16} {:<6} {:<24} a={} b={}",
            e.cycle,
            source,
            e.kind.name(),
            e.name,
            e.a,
            e.b
        );
    }
    let dropped: u64 = snaps
        .iter()
        .flat_map(|(_, s)| s.rings.iter())
        .map(|r| r.overwritten)
        .sum();
    if dropped > 0 {
        let _ = writeln!(out, "({dropped} earlier events overwritten in the rings)");
    }
    out
}

/// The merged timeline as JSON (one event object per line).
#[must_use]
pub fn dcpitrace_merged_json(snaps: &[(&str, &Snapshot)], epoch: Option<(u32, u64)>) -> String {
    let mut out = String::new();
    let lines = merged_timeline(snaps, epoch);
    let _ = writeln!(out, "{{");
    let _ = writeln!(out, "\"events\": [");
    for (i, (source, e)) in lines.iter().enumerate() {
        let comma = if i + 1 < lines.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "{{\"cycle\": {}, \"source\": {}, \"kind\": {}, \"event\": {}, \
             \"wall_ns\": {}, \"a\": {}, \"b\": {}}}{comma}",
            e.cycle,
            quote(source),
            quote(e.kind.name()),
            quote(&e.name),
            e.wall_ns,
            e.a,
            e.b
        );
    }
    let _ = writeln!(out, "]");
    let _ = write!(out, "}}");
    out
}

/// The timeline as JSON (one event object per line).
#[must_use]
pub fn dcpitrace_json(snap: &Snapshot, component: Option<&str>) -> String {
    let mut out = String::new();
    let lines = timeline(snap, component);
    let _ = writeln!(out, "{{");
    let _ = writeln!(out, "\"events\": [");
    for (i, l) in lines.iter().enumerate() {
        let comma = if i + 1 < lines.len() { "," } else { "" };
        let e = l.event;
        let _ = writeln!(
            out,
            "{{\"cycle\": {}, \"component\": {}, \"kind\": {}, \"event\": {}, \
             \"wall_ns\": {}, \"a\": {}, \"b\": {}}}{comma}",
            e.cycle,
            quote(l.component),
            quote(e.kind.name()),
            quote(&e.name),
            e.wall_ns,
            e.a,
            e.b
        );
    }
    let _ = writeln!(out, "]");
    let _ = write!(out, "}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcpi_obs::{Component, Obs, ObsConfig};

    fn snap() -> Snapshot {
        let obs = Obs::new(&ObsConfig::on());
        obs.event_at(Component::Driver, "driver.irq", 50, 1, 0);
        obs.event_at(Component::Daemon, "daemon.flush", 100, 2, 0);
        obs.event_at(Component::Driver, "driver.spill", 150, 3, 0);
        obs.event_at(Component::Faults, "fault.crash", 120, 4, 5);
        obs.snapshot()
    }

    #[test]
    fn timeline_is_cycle_ordered_across_rings() {
        let s = snap();
        let names: Vec<&str> = timeline(&s, None)
            .iter()
            .map(|l| l.event.name.as_str())
            .collect();
        assert_eq!(
            names,
            ["driver.irq", "daemon.flush", "fault.crash", "driver.spill"]
        );
    }

    #[test]
    fn component_filter_restricts() {
        let s = snap();
        let lines = timeline(&s, Some("driver"));
        assert_eq!(lines.len(), 2);
        assert!(lines.iter().all(|l| l.component == "driver"));
        assert!(timeline(&s, Some("nosuch")).is_empty());
    }

    #[test]
    fn text_and_json_render() {
        let s = snap();
        let text = dcpitrace(&s, None);
        assert!(text.contains("fault.crash"), "{text}");
        assert!(text.contains("a=4 b=5"), "{text}");
        let json = dcpitrace_json(&s, Some("faults"));
        assert!(json.contains("\"event\": \"fault.crash\""), "{json}");
        assert!(!json.contains("driver.irq"), "{json}");
    }

    #[test]
    fn overwritten_count_reported() {
        let obs = Obs::new(&dcpi_obs::ObsConfig {
            enabled: true,
            ring_capacity: 2,
            ..ObsConfig::default()
        });
        for i in 0..5 {
            obs.event_at(Component::Machine, "machine.sample", i * 10, 0, 0);
        }
        let text = dcpitrace(&obs.snapshot(), None);
        assert!(text.contains("3 earlier events overwritten"), "{text}");
    }

    #[test]
    fn merge_interleaves_two_exports_by_cycle() {
        let agent = Obs::new(&ObsConfig::on());
        let id = dcpi_obs::span_id(7, 3);
        agent.event_at(Component::Session, "epoch.seal", 10, id, 50);
        agent.event_at(Component::Session, "upload.send", 12, id, 0);
        let server = Obs::new(&ObsConfig::on());
        server.event_at(Component::Server, "server.ack", 11, id, 1);
        server.event_at(Component::Server, "server.visible", 20, id, 10);
        let (a, s) = (agent.snapshot(), server.snapshot());
        let snaps = [("agent", &a), ("server", &s)];
        let names: Vec<String> = merged_timeline(&snaps, None)
            .iter()
            .map(|(src, e)| format!("{src}/{}", e.name))
            .collect();
        assert_eq!(
            names,
            [
                "agent:session/epoch.seal",
                "server:server/server.ack",
                "agent:session/upload.send",
                "server:server/server.visible",
            ]
        );
        let text = dcpitrace_merged(&snaps, None);
        assert!(text.contains("agent:session"), "{text}");
        let json = dcpitrace_merged_json(&snaps, None);
        assert!(json.contains("\"source\": \"server:server\""), "{json}");
    }

    #[test]
    fn epoch_filter_keeps_one_span() {
        let obs = Obs::new(&ObsConfig::on());
        let mine = dcpi_obs::span_id(7, 3);
        let other = dcpi_obs::span_id(7, 4);
        obs.event_at(Component::Session, "epoch.seal", 10, mine, 50);
        obs.event_at(Component::Session, "epoch.seal", 11, other, 60);
        obs.event_at(Component::Server, "server.visible", 20, mine, 10);
        let s = obs.snapshot();
        let lines = merged_timeline(&[("", &s)], Some((7, 3)));
        assert_eq!(lines.len(), 2);
        assert!(lines.iter().all(|(_, e)| e.a == mine));
        let text = dcpitrace_merged(&[("", &s)], Some((7, 3)));
        assert!(text.starts_with("span 7:3"), "{text}");
    }
}
