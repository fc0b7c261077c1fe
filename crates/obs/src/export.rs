//! JSON export/import for observability snapshots.
//!
//! The writer owns the layout — one section per top-level member, one
//! row object per line, maps packed as `name:value` pairs in one string —
//! and quotes every string through [`dcpi_core::json::quote`]; the
//! reader walks the value [`dcpi_core::json::parse`] returns, so any
//! name round-trips exactly (the one exception: a name inside a packed
//! map must not hold a space, which is its separator).
//! `dcpistat`, `dcpitrace`, and `dcpicheck obs` all consume this format.

use crate::ledger::{LossLedger, OverheadLedger};
use crate::metrics::{HistogramSnapshot, MetricsSnapshot};
use crate::timeseries::{SeriesSnapshot, TimePoint};
use crate::trace::{EventKind, EventRecord, RingSnapshot};
use dcpi_core::json::{self, quote, Json};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Schema version stamped into every export.
pub const SCHEMA: u32 = 1;

/// A complete observability export: metadata, metrics, trace rings, and
/// (when the producing layer owns them) the overhead and sample ledgers.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Snapshot {
    /// Free-form metadata (seed, workload, …).
    pub meta: BTreeMap<String, String>,
    /// Metrics registry snapshot.
    pub metrics: MetricsSnapshot,
    /// One entry per component ring.
    pub rings: Vec<RingSnapshot>,
    /// Periodic metric samples (counter deltas, gauge levels).
    pub timeseries: SeriesSnapshot,
    /// Cycles charged to collection vs. total simulated cycles.
    pub overhead: Option<OverheadLedger>,
    /// End-to-end sample conservation.
    pub samples: Option<LossLedger>,
}

impl Snapshot {
    /// Zero every wall-clock field (trace `wall_ns`). Determinism tests
    /// compare snapshots after masking, since wall time is the one
    /// legitimately non-deterministic stamp.
    pub fn mask_wall(&mut self) {
        for ring in &mut self.rings {
            for ev in &mut ring.events {
                ev.wall_ns = 0;
            }
        }
    }

    /// Merge another run's snapshot: metrics merge per their semantics,
    /// ledgers sum. Trace rings are kept from `self` (rings are per-run
    /// timelines; merged runs keep the first run's timeline).
    pub fn merge(&mut self, other: &Snapshot) {
        self.metrics.merge(&other.metrics);
        match (&mut self.overhead, &other.overhead) {
            (Some(a), Some(b)) => a.merge(b),
            (slot @ None, Some(b)) => *slot = Some(*b),
            _ => {}
        }
        match (&mut self.samples, &other.samples) {
            (Some(a), Some(b)) => a.merge(b),
            (slot @ None, Some(b)) => *slot = Some(*b),
            _ => {}
        }
    }

    /// Render the snapshot as JSON, one row object per line.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        let _ = writeln!(out, "  \"schema\": {},", SCHEMA);

        out.push_str("  \"meta\": [\n");
        let metas: Vec<String> = self
            .meta
            .iter()
            .map(|(k, v)| format!("    {{\"key\": {}, \"value\": {}}}", quote(k), quote(v)))
            .collect();
        out.push_str(&metas.join(",\n"));
        if !metas.is_empty() {
            out.push('\n');
        }
        out.push_str("  ],\n");

        out.push_str("  \"counters\": [\n");
        let rows: Vec<String> = self
            .metrics
            .counters
            .iter()
            .map(|(k, v)| format!("    {{\"name\": {}, \"value\": {}}}", quote(k), v))
            .collect();
        out.push_str(&rows.join(",\n"));
        if !rows.is_empty() {
            out.push('\n');
        }
        out.push_str("  ],\n");

        out.push_str("  \"gauges\": [\n");
        let rows: Vec<String> = self
            .metrics
            .gauges
            .iter()
            .map(|(k, v)| format!("    {{\"name\": {}, \"value\": {}}}", quote(k), v))
            .collect();
        out.push_str(&rows.join(",\n"));
        if !rows.is_empty() {
            out.push('\n');
        }
        out.push_str("  ],\n");

        out.push_str("  \"histograms\": [\n");
        let rows: Vec<String> = self
            .metrics
            .histograms
            .iter()
            .map(|(k, h)| {
                let buckets: Vec<String> =
                    h.buckets.iter().map(|(i, n)| format!("{i}:{n}")).collect();
                format!(
                    "    {{\"name\": {}, \"count\": {}, \"sum\": {}, \"buckets\": {}}}",
                    quote(k),
                    h.count,
                    h.sum,
                    quote(&buckets.join(" ")),
                )
            })
            .collect();
        out.push_str(&rows.join(",\n"));
        if !rows.is_empty() {
            out.push('\n');
        }
        out.push_str("  ],\n");

        out.push_str("  \"rings\": [\n");
        let mut rows: Vec<String> = Vec::new();
        for ring in &self.rings {
            rows.push(format!(
                "    {{\"component\": {}, \"capacity\": {}, \"recorded\": {}, \"overwritten\": {}}}",
                quote(&ring.component),
                ring.capacity,
                ring.recorded,
                ring.overwritten,
            ));
            for ev in &ring.events {
                rows.push(format!(
                    "    {{\"event\": {}, \"kind\": {}, \"cycle\": {}, \"wall_ns\": {}, \"a\": {}, \"b\": {}}}",
                    quote(&ev.name),
                    quote(ev.kind.name()),
                    ev.cycle,
                    ev.wall_ns,
                    ev.a,
                    ev.b,
                ));
            }
        }
        out.push_str(&rows.join(",\n"));
        if !rows.is_empty() {
            out.push('\n');
        }
        out.push_str("  ],\n");

        // Time series: one header row (ring accounting) then one row per
        // surviving point. Maps are packed `name:value` pairs, separated
        // by single spaces, inside one string.
        out.push_str("  \"timeseries\": [\n");
        let ts = &self.timeseries;
        let mut rows: Vec<String> = vec![format!(
            "    {{\"capacity\": {}, \"recorded\": {}, \"overwritten\": {}}}",
            ts.capacity, ts.recorded, ts.overwritten,
        )];
        for p in &ts.points {
            let pack = |m: &BTreeMap<String, u64>| {
                m.iter()
                    .map(|(k, v)| format!("{k}:{v}"))
                    .collect::<Vec<_>>()
                    .join(" ")
            };
            rows.push(format!(
                "    {{\"tick\": {}, \"counters\": {}, \"gauges\": {}}}",
                p.tick,
                quote(&pack(&p.counters)),
                quote(&pack(&p.gauges)),
            ));
        }
        out.push_str(&rows.join(",\n"));
        out.push('\n');
        out.push_str("  ],\n");

        match &self.overhead {
            Some(o) => {
                let _ = writeln!(
                    out,
                    "  \"overhead\": {{\"total_cycles\": {}, \"handler_cycles\": {}, \"daemon_cycles\": {}, \"walk_cycles\": {}, \"samples\": {}}},",
                    o.total_cycles, o.handler_cycles, o.daemon_cycles, o.walk_cycles, o.samples
                );
            }
            None => out.push_str("  \"overhead\": null,\n"),
        }
        match &self.samples {
            Some(s) => {
                let _ = writeln!(
                    out,
                    "  \"samples\": {{\"generated\": {}, \"attributed\": {}, \"unknown\": {}, \"driver_dropped\": {}, \"crash_lost\": {}, \"quarantined\": {}}}",
                    s.generated, s.attributed, s.unknown, s.driver_dropped, s.crash_lost, s.quarantined
                );
            }
            None => out.push_str("  \"samples\": null\n"),
        }
        out.push_str("}\n");
        out
    }

    /// Parse an export produced by [`Snapshot::to_json`]. An absent
    /// section is empty; a present one must be well-formed.
    pub fn parse(text: &str) -> Result<Snapshot, String> {
        let doc = json::parse(text)?;
        doc.expect_schema("obs export", SCHEMA)?;
        let mut snap = Snapshot::default();
        section(&doc, "meta", |row| {
            snap.meta
                .insert(row.string("key")?.into(), row.string("value")?.into());
            Ok(())
        })?;
        section(&doc, "counters", |row| {
            snap.metrics
                .counters
                .insert(row.string("name")?.into(), row.int("value")?);
            Ok(())
        })?;
        section(&doc, "gauges", |row| {
            snap.metrics
                .gauges
                .insert(row.string("name")?.into(), row.int("value")?);
            Ok(())
        })?;
        section(&doc, "histograms", |row| {
            snap.metrics.histograms.insert(
                row.string("name")?.into(),
                HistogramSnapshot {
                    count: row.int("count")?,
                    sum: row.int("sum")?,
                    buckets: unpack(row, "buckets")?,
                },
            );
            Ok(())
        })?;
        section(&doc, "rings", |row| {
            if row.get("component").is_some() {
                snap.rings.push(RingSnapshot {
                    component: row.string("component")?.into(),
                    capacity: row.int("capacity")?,
                    recorded: row.int("recorded")?,
                    overwritten: row.int("overwritten")?,
                    events: Vec::new(),
                });
                return Ok(());
            }
            let ring = snap
                .rings
                .last_mut()
                .ok_or("event before any ring header")?;
            ring.events.push(EventRecord {
                cycle: row.int("cycle")?,
                wall_ns: row.int("wall_ns")?,
                name: row.string("event")?.into(),
                kind: EventKind::parse(row.string("kind")?)
                    .ok_or("\"kind\" is not instant, begin or end")?,
                a: row.int("a")?,
                b: row.int("b")?,
            });
            Ok(())
        })?;
        section(&doc, "timeseries", |row| {
            if row.get("capacity").is_some() {
                snap.timeseries.capacity = row.int("capacity")?;
                snap.timeseries.recorded = row.int("recorded")?;
                snap.timeseries.overwritten = row.int("overwritten")?;
            } else {
                snap.timeseries.points.push(TimePoint {
                    tick: row.int("tick")?,
                    counters: unpack(row, "counters")?,
                    gauges: unpack(row, "gauges")?,
                });
            }
            Ok(())
        })?;
        if let Some(o) = doc.get("overhead").filter(|o| **o != Json::Null) {
            snap.overhead = Some(OverheadLedger {
                total_cycles: o.int("total_cycles")?,
                handler_cycles: o.int("handler_cycles")?,
                daemon_cycles: o.int("daemon_cycles")?,
                // Absent in exports written before the stack-walk
                // extension: default to zero rather than reject.
                walk_cycles: match o.get("walk_cycles") {
                    Some(_) => o.int("walk_cycles")?,
                    None => 0,
                },
                samples: o.int("samples")?,
            });
        }
        if let Some(s) = doc.get("samples").filter(|s| **s != Json::Null) {
            snap.samples = Some(LossLedger {
                generated: s.int("generated")?,
                attributed: s.int("attributed")?,
                unknown: s.int("unknown")?,
                driver_dropped: s.int("driver_dropped")?,
                crash_lost: s.int("crash_lost")?,
                quarantined: s.int("quarantined")?,
            });
        }
        Ok(snap)
    }
}

/// Runs `f` on each row object of section `key`; an absent section
/// has none.
fn section<'a>(
    doc: &'a Json,
    key: &str,
    f: impl FnMut(&'a Json) -> Result<(), String>,
) -> Result<(), String> {
    match doc.get(key) {
        Some(_) => doc.each(key, f),
        None => Ok(()),
    }
}

/// Unpacks a `name:value name:value` string member. Names may hold
/// colons (the value follows the last one) but not spaces.
fn unpack<K, V, C>(row: &Json, key: &str) -> Result<C, String>
where
    K: std::str::FromStr,
    V: std::str::FromStr,
    C: FromIterator<(K, V)>,
{
    let bad = || format!("\"{key}\" is not a packed name:value list");
    row.string(key)?
        .split(' ')
        .filter(|part| !part.is_empty())
        .map(|part| {
            let (k, v) = part.rsplit_once(':').ok_or_else(bad)?;
            Ok((k.parse().map_err(|_| bad())?, v.parse().map_err(|_| bad())?))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_snapshot() -> Snapshot {
        let mut s = Snapshot::default();
        s.meta.insert("workload".into(), "gcc".into());
        s.meta.insert("seed".into(), "7".into());
        s.metrics.counters.insert("driver.interrupts".into(), 1234);
        s.metrics.counters.insert("machine.samples".into(), 1200);
        s.metrics.gauges.insert("daemon.memory_bytes".into(), 65536);
        s.metrics.histograms.insert(
            "daemon.flush_ns".into(),
            HistogramSnapshot {
                count: 3,
                sum: 7000,
                buckets: vec![(11, 2), (12, 1)],
            },
        );
        s.rings.push(RingSnapshot {
            component: "driver".into(),
            capacity: 4,
            recorded: 6,
            overwritten: 2,
            events: vec![
                EventRecord {
                    cycle: 10,
                    wall_ns: 99,
                    name: "driver.irq".into(),
                    kind: EventKind::Instant,
                    a: 634,
                    b: 4096,
                },
                EventRecord {
                    cycle: 20,
                    wall_ns: 120,
                    name: "driver.spill".into(),
                    kind: EventKind::Instant,
                    a: 3,
                    b: 0,
                },
            ],
        });
        s.timeseries = SeriesSnapshot {
            capacity: 4,
            recorded: 6,
            overwritten: 4,
            points: vec![
                TimePoint {
                    tick: 100,
                    counters: [("server.accepted".to_string(), 3)].into_iter().collect(),
                    gauges: [("server.queue_depth".to_string(), 2)]
                        .into_iter()
                        .collect(),
                },
                TimePoint {
                    tick: 200,
                    counters: BTreeMap::new(),
                    gauges: [("server.queue_depth".to_string(), 0)]
                        .into_iter()
                        .collect(),
                },
            ],
        };
        s.overhead = Some(OverheadLedger {
            total_cycles: 1_000_000,
            handler_cycles: 11_000,
            daemon_cycles: 900,
            walk_cycles: 2_500,
            samples: 16,
        });
        s.samples = Some(LossLedger {
            generated: 16,
            attributed: 14,
            unknown: 1,
            driver_dropped: 1,
            crash_lost: 0,
            quarantined: 0,
        });
        s
    }

    #[test]
    fn json_roundtrips() {
        let s = sample_snapshot();
        let text = s.to_json();
        let back = Snapshot::parse(&text).unwrap();
        assert_eq!(s, back);
    }

    #[test]
    fn empty_snapshot_roundtrips() {
        let s = Snapshot::default();
        let back = Snapshot::parse(&s.to_json()).unwrap();
        assert_eq!(s, back);
    }

    #[test]
    fn mask_wall_zeroes_wall_stamps() {
        let mut s = sample_snapshot();
        s.mask_wall();
        assert!(s.rings[0].events.iter().all(|e| e.wall_ns == 0));
    }

    #[test]
    fn merge_sums_metrics_and_ledgers() {
        let mut a = sample_snapshot();
        let b = sample_snapshot();
        a.merge(&b);
        assert_eq!(a.metrics.counters["driver.interrupts"], 2468);
        assert_eq!(a.metrics.gauges["daemon.memory_bytes"], 65536); // max
        assert_eq!(a.overhead.unwrap().total_cycles, 2_000_000);
        assert_eq!(a.samples.unwrap().generated, 32);
        assert!(a.samples.unwrap().conserves());
        // Rings keep the first run's timeline.
        assert_eq!(a.rings.len(), 1);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(Snapshot::parse("hello world").is_err());
        assert!(Snapshot::parse("{}").unwrap_err().contains("schema"));
        assert!(Snapshot::parse("{\n  \"schema\": 99\n}\n").is_err());
        let truncated = "{\n  \"schema\": 1,\n  \"rings\": [\n    {\"event\": \"x\", \"kind\": \"instant\", \"cycle\": 1, \"wall_ns\": 0, \"a\": 0, \"b\": 0}\n  ]\n}\n";
        let err = Snapshot::parse(truncated).unwrap_err();
        assert!(err.contains("ring header"), "{err}");
        // A present section must be well-formed, and the error names the member.
        let err =
            Snapshot::parse("{\"schema\": 1, \"counters\": [{\"name\": \"c\"}]}").unwrap_err();
        assert_eq!(err, "counters[0]: missing \"value\"");
        assert!(Snapshot::parse("{\"schema\": 1, \"counters\": 3}").is_err());
        assert!(Snapshot::parse("{\"schema\": 1, \"samples\": {\"generated\": -1}}").is_err());
    }

    #[test]
    fn absent_sections_are_empty_and_old_overhead_rows_load() {
        assert_eq!(
            Snapshot::parse("{\"schema\": 1}").unwrap(),
            Snapshot::default()
        );
        let old = "{\"schema\": 1, \"overhead\": {\"total_cycles\": 9, \"handler_cycles\": 2, \
                   \"daemon_cycles\": 1, \"samples\": 4}, \"samples\": null}";
        let snap = Snapshot::parse(old).unwrap();
        assert_eq!(snap.overhead.unwrap().walk_cycles, 0);
        assert_eq!(snap.overhead.unwrap().total_cycles, 9);
        assert_eq!(snap.samples, None);
    }

    #[test]
    fn hostile_names_and_full_range_stamps_roundtrip_exactly() {
        let hostile = "a\"b,c{d}e\nf\\";
        let mut s = sample_snapshot();
        s.meta.insert(hostile.into(), hostile.into());
        s.metrics.counters.insert(hostile.into(), u64::MAX);
        s.metrics.gauges.insert(hostile.into(), (1 << 53) + 1);
        let h = s.metrics.histograms["daemon.flush_ns"].clone();
        s.metrics.histograms.insert(hostile.into(), h);
        s.rings[0].component = hostile.into();
        s.rings[0].events[0].name = hostile.into();
        s.rings[0].events[0].wall_ns = u64::MAX;
        s.rings[0].events[0].a = u64::MAX - 1;
        // Packed maps: anything but the separating space.
        let packed = "a\"b,c:{d}e\nf\\";
        s.timeseries.points[0]
            .counters
            .insert(packed.into(), u64::MAX);
        s.timeseries.points[0].gauges.insert(packed.into(), 0);
        let text = s.to_json();
        assert_eq!(Snapshot::parse(&text).unwrap(), s);
        assert_eq!(Snapshot::parse(&text).unwrap().to_json(), text);
    }
}
