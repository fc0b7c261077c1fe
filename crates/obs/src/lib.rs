//! Self-observability for the profiler itself.
//!
//! DCPI's headline claim is that continuous profiling is cheap (1–3% total
//! overhead, §2 of the paper) and trustworthy (bounded sample loss). This
//! crate lets the reproduction *watch itself* make good on that claim:
//!
//! * [`metrics`]: the counters and gauges an export carries. Each
//!   component publishes them from its own stats ([`Published`] lists,
//!   read at export time), so nothing is counted twice and [`Obs`]
//!   itself holds no metric;
//! * a [`timeseries`] ring of counter deltas and gauge levels, owned by
//!   the run that samples it (the fleet harness);
//! * [`trace`] spans and instant events in fixed-size per-component ring
//!   buffers, stamped with both simulated machine cycles and monotonic
//!   wall time;
//! * an [`ledger::OverheadLedger`] reconciling cycles charged to
//!   collection (interrupt handler + daemon) against total simulated
//!   cycles, the [`ledger::LossLedger`] every layer accounts its
//!   samples in, and the [`ledger::FleetLedger`] a fleet carries it in;
//! * a JSON [`export`] (written and read through `dcpi_core::json`)
//!   consumed by `dcpistat`, `dcpitrace`, and `dcpicheck obs`;
//! * a [`report::Reporter`] giving `profile`'s status output one
//!   text/JSON/quiet formatting path.
//!
//! The central handle is [`Obs`]: a cheap clone (one `Arc`) that every
//! instrumented component holds. It is the switch, the simulated-cycle
//! clock, the wall-clock epoch and the trace rings, and nothing else:
//! every count, level and series in an export is put there
//! by the component that owns the run. A **disabled** probe costs
//! exactly one relaxed `AtomicBool` load and a branch — no locks, no
//! allocation — so the simulator hot path can keep a handle permanently.

pub mod export;
pub mod ledger;
pub mod metrics;
pub mod report;
pub mod timeseries;
pub mod trace;

pub use export::Snapshot;
pub use ledger::{FleetLedger, LossLedger, OverheadLedger};
pub use metrics::{Metric, MetricsSnapshot, Published};
pub use report::Reporter;
pub use timeseries::{SeriesRing, SeriesSnapshot, TimePoint};
pub use trace::{span_agent, span_id, span_seq};
pub use trace::{Component, EventKind, EventRecord, RingSnapshot, TraceRing};

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Configuration for an [`Obs`] instance.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ObsConfig {
    /// Master switch. When false every probe is a single atomic load.
    pub enabled: bool,
    /// Capacity of each per-component trace ring (events). Older events
    /// are overwritten once a ring is full; the overwrite count is kept.
    pub ring_capacity: usize,
}

impl Default for ObsConfig {
    fn default() -> Self {
        ObsConfig {
            enabled: false,
            ring_capacity: 1024,
        }
    }
}

impl ObsConfig {
    /// An enabled configuration with the default ring capacity.
    pub fn on() -> Self {
        ObsConfig {
            enabled: true,
            ..ObsConfig::default()
        }
    }
}

#[derive(Debug)]
struct ObsCore {
    enabled: AtomicBool,
    /// Simulated-cycle clock, advanced monotonically with `fetch_max` so
    /// interleaved per-CPU progress can never move it backwards.
    cycle: AtomicU64,
    /// Wall-clock zero for `wall_ns` stamps.
    epoch: Instant,
    /// One ring per [`Component`], indexed by `Component::index()`.
    rings: Vec<Mutex<TraceRing>>,
}

/// Shared observability handle. Cloning is one `Arc` bump; all clones see
/// the same rings and cycle clock.
#[derive(Clone, Debug)]
pub struct Obs {
    core: Arc<ObsCore>,
}

impl Default for Obs {
    fn default() -> Self {
        Obs::disabled()
    }
}

impl Obs {
    /// Build an instance from a configuration.
    pub fn new(cfg: &ObsConfig) -> Obs {
        let cap = if cfg.enabled { cfg.ring_capacity } else { 0 };
        let rings = Component::ALL
            .iter()
            .map(|_| Mutex::new(TraceRing::new(cap)))
            .collect();
        Obs {
            core: Arc::new(ObsCore {
                enabled: AtomicBool::new(cfg.enabled),
                cycle: AtomicU64::new(0),
                epoch: Instant::now(),
                rings,
            }),
        }
    }

    /// A disabled instance: probes compile down to a load + branch.
    pub fn disabled() -> Obs {
        Obs::new(&ObsConfig::default())
    }

    /// Is instrumentation live? This is the gate every probe checks first.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.core.enabled.load(Ordering::Relaxed)
    }

    /// Advance the simulated-cycle clock (monotonic; never moves back).
    #[inline]
    pub fn advance_cycle(&self, cycle: u64) {
        if self.is_enabled() {
            self.core.cycle.fetch_max(cycle, Ordering::Relaxed);
        }
    }

    /// Current simulated-cycle clock reading.
    pub fn cycle(&self) -> u64 {
        self.core.cycle.load(Ordering::Relaxed)
    }

    fn wall_ns(&self) -> u64 {
        u64::try_from(self.core.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    fn push(
        &self,
        comp: Component,
        name: &'static str,
        kind: EventKind,
        cycle: u64,
        a: u64,
        b: u64,
    ) {
        let wall = self.wall_ns();
        let mut ring = self.core.rings[comp.index()].lock().unwrap();
        ring.push(cycle, wall, name, kind, a, b);
    }

    /// Record an instant event stamped with the current cycle clock.
    #[inline]
    pub fn event(&self, comp: Component, name: &'static str, a: u64, b: u64) {
        if !self.is_enabled() {
            return;
        }
        self.push(comp, name, EventKind::Instant, self.cycle(), a, b);
    }

    /// Record an instant event at an explicit simulated cycle (also
    /// advances the shared cycle clock).
    #[inline]
    pub fn event_at(&self, comp: Component, name: &'static str, cycle: u64, a: u64, b: u64) {
        if !self.is_enabled() {
            return;
        }
        self.core.cycle.fetch_max(cycle, Ordering::Relaxed);
        self.push(comp, name, EventKind::Instant, cycle, a, b);
    }

    /// Open a span (close it with [`Obs::end`] using the same name).
    #[inline]
    pub fn begin(&self, comp: Component, name: &'static str) {
        if !self.is_enabled() {
            return;
        }
        self.push(comp, name, EventKind::Begin, self.cycle(), 0, 0);
    }

    /// Close a span opened with [`Obs::begin`].
    #[inline]
    pub fn end(&self, comp: Component, name: &'static str, a: u64, b: u64) {
        if !self.is_enabled() {
            return;
        }
        self.push(comp, name, EventKind::End, self.cycle(), a, b);
    }

    /// Snapshot the trace rings. Metrics, the time series and the
    /// ledgers are added by the layer that owns the run (the collection
    /// session, the fleet harness).
    pub fn snapshot(&self) -> Snapshot {
        let rings = Component::ALL
            .iter()
            .map(|c| {
                self.core.rings[c.index()]
                    .lock()
                    .unwrap()
                    .snapshot(c.name())
            })
            .collect();
        Snapshot {
            rings,
            ..Snapshot::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_probes_are_inert() {
        let obs = Obs::disabled();
        assert!(!obs.is_enabled());
        obs.event(Component::Driver, "driver.irq", 1, 2);
        obs.begin(Component::Daemon, "daemon.flush");
        obs.end(Component::Daemon, "daemon.flush", 0, 0);
        obs.advance_cycle(500);
        let snap = obs.snapshot();
        assert_eq!(snap.rings.iter().map(|r| r.events.len()).sum::<usize>(), 0);
        assert!(snap.rings.iter().all(|r| r.capacity == 0));
        assert_eq!(obs.cycle(), 0);
    }

    #[test]
    fn cycle_clock_is_monotonic() {
        let obs = Obs::new(&ObsConfig::on());
        obs.advance_cycle(100);
        obs.advance_cycle(40); // stale CPU progress must not rewind
        assert_eq!(obs.cycle(), 100);
        obs.event_at(Component::Machine, "machine.sample", 250, 0, 0);
        assert_eq!(obs.cycle(), 250);
    }

    #[test]
    fn events_land_in_component_rings() {
        let obs = Obs::new(&ObsConfig::on());
        obs.event_at(Component::Driver, "driver.irq", 10, 634, 0);
        obs.begin(Component::Analyze, "analyze.cfg");
        obs.end(Component::Analyze, "analyze.cfg", 7, 0);
        let snap = obs.snapshot();
        let driver = snap.rings.iter().find(|r| r.component == "driver").unwrap();
        assert_eq!(driver.events.len(), 1);
        assert_eq!(driver.events[0].name, "driver.irq");
        assert_eq!(driver.events[0].a, 634);
        let analyze = snap
            .rings
            .iter()
            .find(|r| r.component == "analyze")
            .unwrap();
        assert_eq!(analyze.events.len(), 2);
        assert_eq!(analyze.events[0].kind, EventKind::Begin);
        assert_eq!(analyze.events[1].kind, EventKind::End);
    }

    #[test]
    fn clones_share_state() {
        let obs = Obs::new(&ObsConfig::on());
        let clone = obs.clone();
        clone.event_at(Component::Daemon, "daemon.flush", 5, 0, 0);
        assert_eq!(obs.cycle(), 5);
        let snap = obs.snapshot();
        let daemon = snap.rings.iter().find(|r| r.component == "daemon").unwrap();
        assert_eq!(daemon.events.len(), 1);
        // The handle holds rings and nothing else.
        assert_eq!(snap.metrics, MetricsSnapshot::default());
        assert_eq!(snap.timeseries, SeriesSnapshot::default());
    }
}
