//! JSON export/import for observability snapshots.
//!
//! The writer lists each section's keys and [`dcpi_core::json::Doc`]
//! lays them out, one section per top-level member and one row object
//! per line; maps are packed as `name:value` pairs in one string. The
//! reader walks the value [`dcpi_core::json::parse`] returns, so any
//! name round-trips exactly (the one exception: a name inside a packed
//! map must not hold a space, which is its separator).
//! `dcpistat`, `dcpitrace`, and `dcpicheck obs` all consume this format.

use crate::ledger::{LossLedger, OverheadLedger};
use crate::metrics::{HistogramSnapshot, MetricsSnapshot};
use crate::timeseries::{SeriesSnapshot, TimePoint};
use crate::trace::{EventKind, EventRecord, RingSnapshot};
use dcpi_core::json::{self, Doc, Json, Value};
use std::collections::BTreeMap;
use std::fmt::{self, Write as _};

/// Schema version stamped into every export.
pub const SCHEMA: u32 = 1;

/// A complete observability export: metadata, metrics, trace rings, and
/// (when the producing layer owns them) the overhead and sample ledgers.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Snapshot {
    /// Free-form metadata (seed, workload, …).
    pub meta: BTreeMap<String, String>,
    /// Published counters and gauges, and the registry's histograms.
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
    /// Zero every wall-clock field: trace `wall_ns` stamps, and the host
    /// nanoseconds of every histogram named `*_ns` (its observations
    /// move to bucket 0, so the count survives). Determinism tests
    /// compare snapshots after masking, since wall time is the one
    /// legitimately non-deterministic stamp.
    pub fn mask_wall(&mut self) {
        for ring in &mut self.rings {
            for ev in &mut ring.events {
                ev.wall_ns = 0;
            }
        }
        for (name, h) in &mut self.metrics.histograms {
            if name.ends_with("_ns") {
                h.sum = 0;
                h.buckets = (h.count > 0).then_some((0, h.count)).into_iter().collect();
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
        let (m, ts) = (&self.metrics, &self.timeseries);
        let mut doc = Doc::new();
        doc.field("schema", SCHEMA)
            .rows("meta", |rows| {
                for (k, v) in &self.meta {
                    rows.row(&[("key", k.into()), ("value", v.into())]);
                }
            })
            .rows("counters", |rows| {
                for (k, &v) in &m.counters {
                    rows.row(&[("name", k.into()), ("value", v.into())]);
                }
            })
            .rows("gauges", |rows| {
                for (k, &v) in &m.gauges {
                    rows.row(&[("name", k.into()), ("value", v.into())]);
                }
            })
            .rows("histograms", |rows| {
                for (k, h) in &m.histograms {
                    rows.row(&[
                        ("name", k.into()),
                        ("count", h.count.into()),
                        ("sum", h.sum.into()),
                        (
                            "buckets",
                            (&pack(h.buckets.iter().map(|(i, n)| (i, n)))).into(),
                        ),
                    ]);
                }
            })
            // Each ring's header row, then its events.
            .rows("rings", |rows| {
                for ring in &self.rings {
                    rows.row(&[
                        ("component", (&ring.component).into()),
                        ("capacity", ring.capacity.into()),
                        ("recorded", ring.recorded.into()),
                        ("overwritten", ring.overwritten.into()),
                    ]);
                    for ev in &ring.events {
                        rows.row(&[
                            ("event", (&ev.name).into()),
                            ("kind", ev.kind.name().into()),
                            ("cycle", ev.cycle.into()),
                            ("wall_ns", ev.wall_ns.into()),
                            ("a", ev.a.into()),
                            ("b", ev.b.into()),
                        ]);
                    }
                }
            })
            // One header row (ring accounting), then one row per
            // surviving point.
            .rows("timeseries", |rows| {
                rows.row(&[
                    ("capacity", ts.capacity.into()),
                    ("recorded", ts.recorded.into()),
                    ("overwritten", ts.overwritten.into()),
                ]);
                for p in &ts.points {
                    rows.row(&[
                        ("tick", p.tick.into()),
                        ("counters", (&pack(&p.counters)).into()),
                        ("gauges", (&pack(&p.gauges)).into()),
                    ]);
                }
            });
        match &self.overhead {
            Some(o) => doc.field(
                "overhead",
                Value::Obj(&[
                    ("total_cycles", o.total_cycles.into()),
                    ("handler_cycles", o.handler_cycles.into()),
                    ("daemon_cycles", o.daemon_cycles.into()),
                    ("walk_cycles", o.walk_cycles.into()),
                    ("samples", o.samples.into()),
                ]),
            ),
            None => doc.field("overhead", Value::Null),
        };
        match &self.samples {
            Some(s) => doc.field(
                "samples",
                Value::Obj(&[
                    ("generated", s.generated.into()),
                    ("attributed", s.attributed.into()),
                    ("unknown", s.unknown.into()),
                    ("driver_dropped", s.driver_dropped.into()),
                    ("crash_lost", s.crash_lost.into()),
                    ("quarantined", s.quarantined.into()),
                ]),
            ),
            None => doc.field("samples", Value::Null),
        };
        doc.finish()
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

/// A map packed into one string: `name:value` pairs separated by single
/// spaces.
fn pack<K: fmt::Display, V: fmt::Display>(pairs: impl IntoIterator<Item = (K, V)>) -> String {
    let mut out = String::new();
    for (k, v) in pairs {
        if !out.is_empty() {
            out.push(' ');
        }
        let _ = write!(out, "{k}:{v}");
    }
    out
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
