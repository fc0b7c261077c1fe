//! Metrics: published counts, levels and distributions.
//!
//! Nothing is counted here. Each component keeps its own typed stats
//! and names the figures it publishes once, in a [`Published`] list next
//! to the stats type; the owner reads its stats into a
//! [`MetricsSnapshot`] when someone asks ([`MetricsSnapshot::publish`]),
//! so an export can never disagree with the count it reports. A
//! distribution is published the same way: its owner keeps the values
//! and builds the log2 [`HistogramSnapshot`] from them
//! ([`HistogramSnapshot::of`]) when the export is made.

use std::collections::BTreeMap;

/// Number of log2 histogram buckets (bucket `i` holds values needing `i`
/// bits, i.e. `2^(i-1) < v <= 2^i - …`; bucket 0 holds zero).
const HIST_BUCKETS: usize = 65;

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

/// Bucket index for a value: the number of bits needed to represent it.
fn bucket_of(v: u64) -> usize {
    (u64::BITS - v.leading_zeros()) as usize
}

/// A log2-bucketed histogram (values spanning 18 decimal orders in 65
/// buckets — plenty for cycle counts).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Total observations.
    pub count: u64,
    /// Sum of observed values.
    pub sum: u64,
    /// `(bucket index, observations)` for non-empty buckets, ascending.
    pub buckets: Vec<(u32, u64)>,
}

impl HistogramSnapshot {
    /// The histogram of `values`: their count, their (saturating) sum,
    /// and one log2 bucket per bit length present.
    pub fn of(values: &[u64]) -> HistogramSnapshot {
        let mut buckets = [0u64; HIST_BUCKETS];
        let mut sum = 0u64;
        for &v in values {
            buckets[bucket_of(v)] += 1;
            sum = sum.saturating_add(v);
        }
        HistogramSnapshot {
            count: values.len() as u64,
            sum,
            buckets: (0u32..).zip(buckets).filter(|&(_, n)| n > 0).collect(),
        }
    }

    /// The `q`-quantile (`0.0..=1.0`) as the upper bound of the log2
    /// bucket containing it: walk the cumulative bucket counts until at
    /// least `ceil(q * count)` observations are covered and return that
    /// bucket's largest representable value (`2^i - 1`; bucket 0 holds
    /// only zero). Returns 0 when the histogram is empty. The answer is
    /// an upper bound, never an underestimate — the right direction for
    /// SLO guards.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        #[allow(
            clippy::cast_possible_truncation,
            clippy::cast_sign_loss,
            clippy::cast_precision_loss
        )]
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let bound = |i: u32| match i {
            0 => 0,
            i if i >= 64 => u64::MAX,
            i => (1u64 << i) - 1,
        };
        let mut seen = 0u64;
        for &(i, n) in &self.buckets {
            seen = seen.saturating_add(n);
            if seen >= rank {
                return bound(i);
            }
        }
        // Unreachable when buckets sum to count; fall back to the last
        // bucket's bound so a malformed snapshot still answers.
        self.buckets.last().map_or(0, |&(i, _)| bound(i))
    }

    /// Merge another snapshot into this one (bucket-wise sum).
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        self.count += other.count;
        self.sum += other.sum;
        let mut map: BTreeMap<u32, u64> = self.buckets.iter().copied().collect();
        for &(i, n) in &other.buckets {
            *map.entry(i).or_insert(0) += n;
        }
        self.buckets = map.into_iter().collect();
    }
}

/// Deterministic point-in-time view of every published metric.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, u64>,
    /// Histogram snapshots by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
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

    /// Merge another snapshot: counters and histograms sum, gauges take
    /// the maximum (they are levels, not totals).
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        for (k, v) in &other.counters {
            *self.counters.entry(k.clone()).or_insert(0) += v;
        }
        for (k, v) in &other.gauges {
            let e = self.gauges.entry(k.clone()).or_insert(0);
            *e = (*e).max(*v);
        }
        for (k, v) in &other.histograms {
            self.histograms.entry(k.clone()).or_default().merge(v);
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
    fn histogram_buckets() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(1024), 11);
        let s = HistogramSnapshot::of(&[0, 3, 3]);
        assert_eq!(s.count, 3);
        assert_eq!(s.sum, 6);
        assert_eq!(s.buckets, vec![(0, 1), (2, 2)]);
    }

    #[test]
    fn quantiles_walk_cumulative_buckets() {
        let empty = HistogramSnapshot::of(&[]);
        assert_eq!(empty, HistogramSnapshot::default());
        assert_eq!(empty.quantile(0.95), 0, "empty histogram");
        let s = HistogramSnapshot::of(&[0, 1, 3, 3, 7, 100, 1000]);
        // 7 observations: rank(0.5)=4 -> 4th smallest (3) lives in
        // bucket 2, bound 3; rank(0.99)=7 -> bucket 10, bound 1023.
        assert_eq!(s.quantile(0.0), 0);
        assert_eq!(s.quantile(0.5), 3);
        assert_eq!(s.quantile(0.99), 1023);
        assert_eq!(s.quantile(1.0), 1023);
        // The top bucket saturates at u64::MAX instead of overflowing.
        let big = HistogramSnapshot::of(&[u64::MAX, 1]);
        assert_eq!(big.buckets, vec![(1, 1), (64, 1)]);
        assert_eq!(big.sum, u64::MAX, "the sum saturates");
        assert_eq!(big.quantile(1.0), u64::MAX);
        // Bucket counts read from a hostile export cannot overflow the walk.
        let hostile = HistogramSnapshot {
            count: u64::MAX,
            sum: 0,
            buckets: vec![(1, u64::MAX), (2, u64::MAX)],
        };
        assert_eq!(hostile.quantile(1.0), 1);
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
        b.histograms.insert(
            "h".into(),
            HistogramSnapshot {
                count: 1,
                sum: 2,
                buckets: vec![(2, 1)],
            },
        );
        a.merge(&b);
        assert_eq!(a.counters["c"], 7);
        assert_eq!(a.counters["d"], 1);
        assert_eq!(a.gauges["g"], 7);
        assert_eq!(a.histograms["h"].count, 1);
    }
}
