//! dcpitrace: dump and filter the cycle-stamped trace rings of one or
//! more exported observability snapshots, as a compact text timeline or
//! JSON. There is one [`timeline`], so every filter applies to every
//! input shape.

use dcpi_core::json::Doc;
use dcpi_obs::{EventRecord, RingSnapshot, Snapshot};
use std::fmt::Write as _;

/// Which events a timeline keeps; the default keeps all of them.
#[derive(Clone, Copy, Debug, Default)]
pub struct Filter<'a> {
    /// Only the rings of this component (`machine`, `driver`, ...).
    pub component: Option<&'a str>,
    /// Only events carrying this `(agent, seq)` epoch's packed span id
    /// in `a`: one epoch's seal → send → journal/ack → visible journey.
    pub epoch: Option<(u32, u64)>,
}

/// One timeline entry: an event plus where it came from.
#[derive(Clone, Debug)]
pub struct TraceLine<'a> {
    /// The ring's component name, as `label:component` when its export
    /// was given a label.
    pub source: String,
    /// The event itself.
    pub event: &'a EventRecord,
}

/// The rings `filter.component` admits, each with its export's label.
fn rings<'a, 's>(
    snaps: &'s [(&'s str, &'a Snapshot)],
    filter: Filter<'s>,
) -> impl Iterator<Item = (&'s str, &'a RingSnapshot)> + 's {
    snaps
        .iter()
        .flat_map(|&(label, snap)| snap.rings.iter().map(move |r| (label, r)))
        .filter(move |(_, r)| filter.component.is_none_or(|c| r.component == c))
}

/// Whether any export carries a label: sources are then `label:component`
/// in a 16-wide column under the JSON key `source`, instead of the bare
/// component in an 8-wide column under `component`.
fn labelled(snaps: &[(&str, &Snapshot)]) -> bool {
    snaps.iter().any(|(label, _)| !label.is_empty())
}

/// Collects the events `filter` keeps, across the rings of every export
/// — one, or an agent-side and a server-side snapshot of the same fleet
/// run — into one timeline ordered by cycle stamp. Cycle ties keep input
/// order (snapshot order, then ring order), so the interleaving is
/// deterministic.
#[must_use]
pub fn timeline<'a>(snaps: &[(&str, &'a Snapshot)], filter: Filter) -> Vec<TraceLine<'a>> {
    let want = filter.epoch.map(|(a, s)| dcpi_obs::span_id(a, s));
    let mut lines: Vec<TraceLine<'a>> = Vec::new();
    for (label, r) in rings(snaps, filter) {
        for event in &r.events {
            if want.is_some_and(|id| event.a != id) {
                continue;
            }
            let source = if label.is_empty() {
                r.component.clone()
            } else {
                format!("{label}:{}", r.component)
            };
            lines.push(TraceLine { source, event });
        }
    }
    lines.sort_by_key(|l| l.event.cycle);
    lines
}

/// The compact text timeline: one event per line, cycle-ordered, under
/// a `span` header when filtered to one epoch.
#[must_use]
pub fn dcpitrace(snaps: &[(&str, &Snapshot)], filter: Filter) -> String {
    let mut out = String::new();
    if let Some((a, s)) = filter.epoch {
        let _ = writeln!(out, "span {a}:{s} (id {})", dcpi_obs::span_id(a, s));
    }
    let width = if labelled(snaps) { 16 } else { 8 };
    for l in timeline(snaps, filter) {
        let e = l.event;
        let _ = writeln!(
            out,
            "{:>12}  {:<width$} {:<6} {:<24} a={} b={}",
            e.cycle,
            l.source,
            e.kind.name(),
            e.name,
            e.a,
            e.b
        );
    }
    let dropped = rings(snaps, filter).fold(0u64, |n, (_, r)| n.saturating_add(r.overwritten));
    if dropped > 0 {
        let _ = writeln!(out, "({dropped} earlier events overwritten in the rings)");
    }
    out
}

/// The timeline as JSON (one event object per line).
#[must_use]
pub fn dcpitrace_json(snaps: &[(&str, &Snapshot)], filter: Filter) -> String {
    let key = if labelled(snaps) {
        "source"
    } else {
        "component"
    };
    let mut doc = Doc::new();
    doc.rows("events", |rows| {
        for l in timeline(snaps, filter) {
            let e = l.event;
            rows.row(&[
                ("cycle", e.cycle.into()),
                (key, (&l.source).into()),
                ("kind", e.kind.name().into()),
                ("event", (&e.name).into()),
                ("wall_ns", e.wall_ns.into()),
                ("a", e.a.into()),
                ("b", e.b.into()),
            ]);
        }
    });
    doc.finish()
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

    fn only(component: &str) -> Filter<'_> {
        Filter {
            component: Some(component),
            epoch: None,
        }
    }

    #[test]
    fn timeline_is_cycle_ordered_across_rings() {
        let s = snap();
        let names: Vec<&str> = timeline(&[("", &s)], Filter::default())
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
        let lines = timeline(&[("", &s)], only("driver"));
        assert_eq!(lines.len(), 2);
        assert!(lines.iter().all(|l| l.source == "driver"));
        assert!(timeline(&[("", &s)], only("nosuch")).is_empty());
    }

    #[test]
    fn text_and_json_render() {
        let s = snap();
        let text = dcpitrace(&[("", &s)], Filter::default());
        assert!(text.contains("fault.crash"), "{text}");
        assert!(text.contains("a=4 b=5"), "{text}");
        let json = dcpitrace_json(&[("", &s)], only("faults"));
        assert!(json.contains("\"component\": \"faults\""), "{json}");
        assert!(json.contains("\"event\": \"fault.crash\""), "{json}");
        assert!(!json.contains("driver.irq"), "{json}");
    }

    #[test]
    fn overwritten_count_reported() {
        let obs = Obs::new(&dcpi_obs::ObsConfig {
            enabled: true,
            ring_capacity: 2,
        });
        for i in 0..5 {
            obs.event_at(Component::Machine, "machine.sample", i * 10, 0, 0);
        }
        let text = dcpitrace(&[("", &obs.snapshot())], Filter::default());
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
        let names = |filter| -> Vec<String> {
            timeline(&snaps, filter)
                .iter()
                .map(|l| format!("{}/{}", l.source, l.event.name))
                .collect()
        };
        assert_eq!(
            names(Filter::default()),
            [
                "agent:session/epoch.seal",
                "server:server/server.ack",
                "agent:session/upload.send",
                "server:server/server.visible",
            ]
        );
        // A component filter over labelled exports keeps only `*:server`.
        assert_eq!(
            names(only("server")),
            ["server:server/server.ack", "server:server/server.visible"]
        );
        let text = dcpitrace(&snaps, only("server"));
        assert!(text.contains("server:server"), "{text}");
        assert!(!text.contains("agent:session"), "{text}");
        let json = dcpitrace_json(&snaps, Filter::default());
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
        let one = Filter {
            component: None,
            epoch: Some((7, 3)),
        };
        let lines = timeline(&[("", &s)], one);
        assert_eq!(lines.len(), 2);
        assert!(lines.iter().all(|l| l.event.a == mine));
        let text = dcpitrace(&[("", &s)], one);
        assert!(text.starts_with("span 7:3"), "{text}");
    }
}
