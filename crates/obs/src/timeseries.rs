//! Periodic metric time series: counter deltas and gauge levels sampled
//! into a fixed-capacity segmented ring.
//!
//! The trace rings answer "what happened to this epoch"; the series ring
//! answers "how did the fleet evolve over the run". A driver (the fleet
//! harness) reads its components' stats every N ticks and hands the
//! published values to [`crate::Obs::record_point`]; each point stores
//! the counter *deltas* since the previous point — so rates fall out as
//! `delta / interval` at render time — plus the gauge levels at the
//! point. The series is computed from the components' own counts, so it
//! cannot drift from them. Like [`crate::trace::TraceRing`], the
//! ring never allocates past its capacity: old points are overwritten and
//! the loss is accounted, which `dcpicheck obs` audits.

use crate::metrics::MetricsSnapshot;
use std::collections::BTreeMap;

/// One sampled point on the fleet timeline.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TimePoint {
    /// Simulated tick (cycle clock) at which the point was taken.
    pub tick: u64,
    /// Counter increments since the previous point (zero deltas elided).
    pub counters: BTreeMap<String, u64>,
    /// Gauge levels at the point.
    pub gauges: BTreeMap<String, u64>,
}

/// Fixed-capacity ring of [`TimePoint`]s with overwrite accounting.
#[derive(Debug)]
pub struct SeriesRing {
    cap: usize,
    buf: Vec<TimePoint>,
    /// Index of the oldest point once the ring has wrapped.
    head: usize,
    /// All-time number of points recorded (≥ `buf.len()`).
    recorded: u64,
    /// Counter levels at the previous point, for delta computation.
    last_counters: BTreeMap<String, u64>,
}

impl SeriesRing {
    /// A ring holding at most `cap` points (0 = record nothing).
    pub fn new(cap: usize) -> SeriesRing {
        SeriesRing {
            cap,
            buf: Vec::with_capacity(cap),
            head: 0,
            recorded: 0,
            last_counters: BTreeMap::new(),
        }
    }

    /// Sample one point from a metrics snapshot: counter deltas since the
    /// previous call, gauge levels verbatim.
    pub fn record(&mut self, tick: u64, metrics: &MetricsSnapshot) {
        if self.cap == 0 {
            return;
        }
        let counters = metrics
            .counters
            .iter()
            .filter_map(|(k, v)| {
                let delta = v.saturating_sub(self.last_counters.get(k).copied().unwrap_or(0));
                (delta > 0).then(|| (k.clone(), delta))
            })
            .collect();
        self.last_counters = metrics.counters.clone();
        let point = TimePoint {
            tick,
            counters,
            gauges: metrics.gauges.clone(),
        };
        if self.buf.len() < self.cap {
            self.buf.push(point);
        } else {
            self.buf[self.head] = point;
            self.head = (self.head + 1) % self.cap;
        }
        self.recorded += 1;
    }

    /// Snapshot the ring in oldest-first order.
    pub fn snapshot(&self) -> SeriesSnapshot {
        let mut points = Vec::with_capacity(self.buf.len());
        for i in 0..self.buf.len() {
            points.push(self.buf[(self.head + i) % self.buf.len().max(1)].clone());
        }
        SeriesSnapshot {
            capacity: self.cap as u64,
            recorded: self.recorded,
            overwritten: self.recorded - self.buf.len() as u64,
            points,
        }
    }
}

/// Exported view of the series ring.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SeriesSnapshot {
    /// Ring capacity.
    pub capacity: u64,
    /// All-time points recorded.
    pub recorded: u64,
    /// Points lost to overwrite (`recorded - points.len()`).
    pub overwritten: u64,
    /// Surviving points, oldest first.
    pub points: Vec<TimePoint>,
}

impl SeriesSnapshot {
    /// Rate of a counter over the surviving window, per tick: summed
    /// deltas divided by the tick span. 0.0 when fewer than two points.
    pub fn rate(&self, counter: &str) -> f64 {
        let (Some(first), Some(last)) = (self.points.first(), self.points.last()) else {
            return 0.0;
        };
        let span = last.tick.saturating_sub(first.tick);
        if span == 0 {
            return 0.0;
        }
        let total: u64 = self
            .points
            .iter()
            .skip(1) // the first point's deltas accrued before the window
            .filter_map(|p| p.counters.get(counter))
            .sum();
        #[allow(clippy::cast_precision_loss)]
        {
            total as f64 / span as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metrics(counters: &[(&str, u64)], gauges: &[(&str, u64)]) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: counters.iter().map(|(k, v)| (k.to_string(), *v)).collect(),
            gauges: gauges.iter().map(|(k, v)| (k.to_string(), *v)).collect(),
            histograms: BTreeMap::new(),
        }
    }

    #[test]
    fn points_store_deltas_not_levels() {
        let mut r = SeriesRing::new(8);
        r.record(10, &metrics(&[("sent", 5)], &[("depth", 2)]));
        r.record(20, &metrics(&[("sent", 9)], &[("depth", 1)]));
        r.record(30, &metrics(&[("sent", 9)], &[("depth", 0)]));
        let s = r.snapshot();
        assert_eq!(s.points.len(), 3);
        assert_eq!(s.points[0].counters["sent"], 5);
        assert_eq!(s.points[1].counters["sent"], 4);
        assert!(
            !s.points[2].counters.contains_key("sent"),
            "zero deltas are elided"
        );
        assert_eq!(s.points[2].gauges["depth"], 0);
    }

    #[test]
    fn ring_overwrites_oldest_and_accounts() {
        let mut r = SeriesRing::new(2);
        for t in 1..=5u64 {
            r.record(t * 10, &metrics(&[("c", t)], &[]));
        }
        let s = r.snapshot();
        assert_eq!(s.capacity, 2);
        assert_eq!(s.recorded, 5);
        assert_eq!(s.overwritten, 3);
        assert_eq!(
            s.points.iter().map(|p| p.tick).collect::<Vec<_>>(),
            vec![40, 50]
        );
    }

    #[test]
    fn zero_capacity_records_nothing() {
        let mut r = SeriesRing::new(0);
        r.record(1, &metrics(&[("c", 1)], &[]));
        assert_eq!(r.snapshot().recorded, 0);
    }

    #[test]
    fn rate_spans_the_surviving_window() {
        let mut r = SeriesRing::new(8);
        r.record(0, &metrics(&[("c", 0)], &[]));
        r.record(100, &metrics(&[("c", 50)], &[]));
        r.record(200, &metrics(&[("c", 150)], &[]));
        let s = r.snapshot();
        assert!((s.rate("c") - 0.75).abs() < 1e-12, "{}", s.rate("c"));
        assert_eq!(SeriesSnapshot::default().rate("c"), 0.0);
    }
}
