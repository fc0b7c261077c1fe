//! Metrics: published counts and levels.
//!
//! Nothing is counted here. Each component keeps its own typed stats
//! and names the figures it publishes once, in a [`Published`] list next
//! to the stats type; the owner reads its stats into a
//! [`MetricsSnapshot`] when someone asks ([`MetricsSnapshot::publish`]),
//! so an export can never disagree with the count it reports. A
//! distribution is summarized by its owner and published the same way,
//! as levels (the fleet's ingest lag is `FleetLag`'s gauges).

use std::collections::BTreeMap;

/// One figure a component publishes: its export name and how to read it
/// from the component.
pub type Metric<T> = (&'static str, fn(&T) -> u64);

/// Everything one stats type publishes, by kind. The lists are the only
/// place a component spells its export names.
#[derive(Debug)]
pub struct Published<T: 'static> {
    /// Counts exported whether or not anything happened yet.
    pub counters: &'static [Metric<T>],
    /// Counts of incidents, exported once the first one happened.
    pub incidents: &'static [Metric<T>],
    /// Levels at the moment of reading.
    pub gauges: &'static [Metric<T>],
}

impl<T> Published<T> {
    /// Publishes nothing; the base for a list's struct update.
    pub const NONE: Published<T> = Published {
        counters: &[],
        incidents: &[],
        gauges: &[],
    };
}

/// Deterministic point-in-time view of every published metric.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, u64>,
}

impl MetricsSnapshot {
    /// Publishes what `src` counts under the names `list` gives it:
    /// counters as they stand, incidents once nonzero, gauges at their
    /// current level. A name published again takes the newer value.
    pub fn publish<T>(&mut self, list: &Published<T>, src: &T) {
        for &(name, read) in list.counters {
            self.counters.insert(name.to_owned(), read(src));
        }
        for &(name, read) in list.incidents {
            let n = read(src);
            if n > 0 {
                self.counters.insert(name.to_owned(), n);
            }
        }
        for &(name, read) in list.gauges {
            self.gauges.insert(name.to_owned(), read(src));
        }
    }

    /// Merge another snapshot: counters sum, gauges take the maximum
    /// (they are levels, not totals).
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        for (k, v) in &other.counters {
            *self.counters.entry(k.clone()).or_insert(0) += v;
        }
        for (k, v) in &other.gauges {
            let e = self.gauges.entry(k.clone()).or_insert(0);
            *e = (*e).max(*v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Stats {
        seen: u64,
        lost: u64,
        level: u64,
    }

    const PUBLISHED: Published<Stats> = Published {
        counters: &[("t.seen", |s| s.seen)],
        incidents: &[("t.lost", |s| s.lost)],
        gauges: &[("t.level", |s| s.level)],
    };

    #[test]
    fn publish_reads_each_name_once_by_kind() {
        let mut m = MetricsSnapshot::default();
        let quiet = Stats {
            seen: 0,
            lost: 0,
            level: 0,
        };
        m.publish(&PUBLISHED, &quiet);
        // A counter is exported at zero, an incident only once it happened.
        assert_eq!(m.counters.get("t.seen"), Some(&0));
        assert!(!m.counters.contains_key("t.lost"));
        assert_eq!(m.gauges.get("t.level"), Some(&0));
        let busy = Stats {
            seen: 9,
            lost: 2,
            level: 5,
        };
        m.publish(&PUBLISHED, &busy);
        assert_eq!(m.counters.get("t.seen"), Some(&9), "newer value wins");
        assert_eq!(m.counters.get("t.lost"), Some(&2));
        assert_eq!(m.gauges.get("t.level"), Some(&5));
        m.publish(&Published::NONE, &busy);
        assert_eq!(m.counters.len() + m.gauges.len(), 3);
    }

    #[test]
    fn snapshot_merge_semantics() {
        let mut a = MetricsSnapshot::default();
        a.counters.insert("c".into(), 3);
        a.gauges.insert("g".into(), 7);
        let mut b = MetricsSnapshot::default();
        b.counters.insert("c".into(), 4);
        b.counters.insert("d".into(), 1);
        b.gauges.insert("g".into(), 5);
        a.merge(&b);
        assert_eq!(a.counters["c"], 7);
        assert_eq!(a.counters["d"], 1);
        assert_eq!(a.gauges["g"], 7);
    }
}
