//! Deterministic fault injection and end-to-end loss accounting.
//!
//! DCPI is engineered around *partial* failure: the paired overflow
//! buffers drop samples when the daemon falls behind (§4.2.1), samples
//! that cannot be attributed land in the unknown profile (§4.3.2), and
//! the flush epochs bound how much a daemon crash can lose (§4.3.3).
//! This module makes those claims testable. A [`FaultPlan`] is a seeded,
//! fully reproducible schedule of daemon stalls, dropped or delayed
//! loader notifications, daemon crashes (optionally tearing on-disk
//! profile files or leaving a stale `.tmp` behind), and stretched
//! §4.2.3 flush windows. The session harness consults a
//! [`FaultInjector`] while pumping and reports a [`LossLedger`] that
//! must *conserve*: every sample the machine generated is attributed,
//! unknown, dropped by the driver, lost to a crash, or quarantined with
//! a corrupt file — nothing vanishes without a line item.

use dcpi_core::db::{self, Entry};
use dcpi_core::prng::CartaRng;
use dcpi_core::{codec, fsfault};
use dcpi_machine::os::OsEvent;
/// The one sample ledger and its overflow rule live in `dcpi-obs`, the
/// crate the collector and the offline tools both depend on.
pub use dcpi_obs::ledger::{ledger_add, ledger_sum, LossLedger};
use dcpi_obs::{Component, Obs, Published};
use std::collections::VecDeque;
use std::path::{Path, PathBuf};

/// How a crash tears an on-disk profile file.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CorruptKind {
    /// Truncate the victim to `keep % len` bytes (a torn write).
    Truncate {
        /// Bytes to keep, taken modulo the victim's length.
        keep: u64,
    },
    /// Flip bit `bit % 8` of byte `byte % len` (silent media corruption).
    BitFlip {
        /// Byte index, taken modulo the victim's length.
        byte: u64,
        /// Bit index, taken modulo 8.
        bit: u8,
    },
}

/// A scheduled daemon crash.
#[derive(Clone, Copy, Debug)]
pub struct CrashFault {
    /// The crash fires at the first pump at or after this cycle.
    pub at_cycle: u64,
    /// Damage done to one on-disk profile file, if any.
    pub corrupt: Option<CorruptKind>,
    /// Picks the victim file: index into the sorted list of `.prof`
    /// files, modulo its length.
    pub victim_pick: u32,
    /// Leave a stale `.tmp` next to the victim, as a crash between the
    /// merge protocol's write and rename would (§4.3.3).
    pub stray_tmp: bool,
}

/// A window of cycles during which the daemon services nothing: no
/// notification processing, no buffer drains, no disk flushes. The
/// kernel-side buffers fill and, once both halves of a pair are full,
/// samples drop (§4.2.1).
#[derive(Clone, Copy, Debug)]
pub struct StallWindow {
    /// First stalled cycle.
    pub from: u64,
    /// First cycle past the stall.
    pub until: u64,
}

impl StallWindow {
    /// True if `now` lies inside the window.
    #[must_use]
    pub fn contains(&self, now: u64) -> bool {
        (self.from..self.until).contains(&now)
    }
}

/// A seeded, reproducible schedule of faults. Identical plans applied to
/// identical sessions produce bit-identical damage and outcomes.
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    /// Daemon stall windows (may overlap; union semantics).
    pub stalls: Vec<StallWindow>,
    /// Daemon crashes, in schedule order.
    pub crashes: Vec<CrashFault>,
    /// Drop every Nth `ImageLoaded` notification (0 = never). Dropped
    /// notifications never arrive; samples from the unannounced range
    /// attribute to the unknown profile, exactly the paper's failure
    /// mode for missed loader events (§4.3.2).
    pub notif_drop_period: u64,
    /// Delay every delivered notification by this many cycles (0 =
    /// immediate). Samples that race ahead of their mapping go unknown.
    pub notif_delay: u64,
    /// Cycles at which a flush window is torn open: `begin_flush` runs
    /// at one pump and `end_flush` only at the next, stretching the
    /// §4.2.3 bypass window across a full poll quantum.
    pub torn_flushes: Vec<u64>,
}

impl FaultPlan {
    /// The empty plan: no faults. Sessions built with it behave exactly
    /// like sessions with no injector at all.
    #[must_use]
    pub fn none() -> FaultPlan {
        FaultPlan::default()
    }

    /// True if the plan schedules nothing.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.stalls.is_empty()
            && self.crashes.is_empty()
            && self.notif_drop_period == 0
            && self.notif_delay == 0
            && self.torn_flushes.is_empty()
    }

    /// Draws a randomized plan over `[0, horizon)` cycles from `seed`.
    /// The same `(seed, horizon)` always yields the same plan.
    #[must_use]
    pub fn random(seed: u32, horizon: u64) -> FaultPlan {
        let mut rng = CartaRng::new(seed);
        let h = horizon.max(16);
        let mut plan = FaultPlan::none();
        // Up to two stalls, each roughly 2–10% of the horizon.
        for _ in 0..rng.uniform(0, 2) {
            let from = rng.uniform(h / 8, h - h / 8);
            let len = rng.uniform(h / 50, h / 10);
            plan.stalls.push(StallWindow {
                from,
                until: from.saturating_add(len).min(h),
            });
        }
        // Up to two crashes in the middle-to-late run, half of them
        // tearing a profile file, a third leaving a stale tmp.
        for _ in 0..rng.uniform(0, 2) {
            let at_cycle = rng.uniform(h / 4, h - 1);
            let corrupt = match rng.uniform(0, 3) {
                0 => Some(CorruptKind::Truncate {
                    keep: rng.uniform(0, 4096),
                }),
                1 => Some(CorruptKind::BitFlip {
                    byte: rng.uniform(0, 1 << 20),
                    bit: rng.uniform(0, 7) as u8,
                }),
                _ => None,
            };
            plan.crashes.push(CrashFault {
                at_cycle,
                corrupt,
                victim_pick: rng.next_u31(),
                stray_tmp: rng.uniform(0, 2) == 0,
            });
        }
        plan.crashes.sort_by_key(|c| c.at_cycle);
        if rng.uniform(0, 2) == 0 {
            plan.notif_drop_period = rng.uniform(2, 6);
        }
        if rng.uniform(0, 2) == 0 {
            plan.notif_delay = rng.uniform(h / 100, h / 20);
        }
        for _ in 0..rng.uniform(0, 2) {
            plan.torn_flushes.push(rng.uniform(h / 8, h - 1));
        }
        plan.torn_flushes.sort_unstable();
        plan
    }
}

/// One daemon crash as it actually happened during a run.
#[derive(Clone, Copy, Debug)]
pub struct CrashRecord {
    /// Machine cycle at which the crash fired.
    pub at_cycle: u64,
    /// Samples that were only in the daemon's memory and died with it.
    pub lost: u64,
    /// Cycles since the last successful disk flush: the recovery window
    /// the paper's epoch scheme promises to bound (§4.3.3).
    pub since_flush: u64,
}

/// End-to-end fleet accounting: the [`LossLedger`] identity extended
/// through upload, retry, server journal, and fleet merge. Every
/// generated sample is, at any instant, in exactly one place:
///
/// ```text
/// generated = merged (attributed + unknown)     -- in the fleet db
///           + server_journal                    -- journaled, unmerged
///           + in_flight                         -- sealed, unacked
///           + driver_dropped + crash_lost + quarantined
/// ```
///
/// At quiesce `in_flight == 0` and `server_journal == 0`, so the base
/// conservation law holds exactly fleet-wide.
/// `retrans_duplicates_discarded` counts samples in duplicate uploads
/// the server discarded; duplicates are *copies*, so the count sits
/// outside the identity (informational — proof the dedup path ran).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FleetLedger {
    /// The per-sample buckets. `attributed`/`unknown` here mean *merged
    /// into the fleet database* (split by unknown-image).
    pub base: LossLedger,
    /// Samples in epochs sealed by agents but not yet acked by the
    /// server (spool, in transit, or awaiting retransmission).
    pub in_flight: u64,
    /// Samples journaled in the server WAL but not yet merged into the
    /// fleet database.
    pub server_journal: u64,
    /// Samples merged into the fleet database
    /// (`== base.attributed + base.unknown`; kept as a cross-check).
    pub fleet_merged: u64,
    /// Samples inside duplicate uploads the server discarded (retries
    /// after a lost ack). Outside the identity by construction.
    pub retrans_duplicates_discarded: u64,
}

impl FleetLedger {
    /// Samples accounted for, including the two transit buckets.
    #[must_use]
    pub fn accounted(&self) -> u64 {
        ledger_sum(&[self.base.accounted(), self.in_flight, self.server_journal])
    }

    /// The fleet-wide conservation law plus the merged cross-check.
    #[must_use]
    pub fn conserves(&self) -> bool {
        self.base.generated == self.accounted()
            && self.fleet_merged == ledger_sum(&[self.base.attributed, self.base.unknown])
    }

    /// A two-line summary for fleet reports.
    #[must_use]
    pub fn render(&self) -> String {
        format!(
            "fleet: generated {} = merged {} (attributed {} + unknown {}) + journal {} + in-flight {} + dropped {} + crash-lost {} + quarantined {}{}\nfleet: duplicate samples discarded {}",
            self.base.generated,
            self.fleet_merged,
            self.base.attributed,
            self.base.unknown,
            self.server_journal,
            self.in_flight,
            self.base.driver_dropped,
            self.base.crash_lost,
            self.base.quarantined,
            if self.conserves() { "" } else { "  ** NOT CONSERVED **" },
            self.retrans_duplicates_discarded,
        )
    }

    /// Merges another fleet's ledger (plain checked sums per bucket).
    pub fn merge(&mut self, other: &FleetLedger) {
        self.base.merge(&other.base);
        ledger_add(&mut self.in_flight, other.in_flight);
        ledger_add(&mut self.server_journal, other.server_journal);
        ledger_add(&mut self.fleet_merged, other.fleet_merged);
        ledger_add(
            &mut self.retrans_duplicates_discarded,
            other.retrans_duplicates_discarded,
        );
    }
}

/// Driver backpressure (the tentpole's recovery knob): when the drop
/// rate since the previous pump crosses `drop_threshold`, the sampling
/// period range is multiplied by `factor` (capped at `max_period`),
/// shedding interrupt load instead of silently losing ever more samples.
#[derive(Clone, Copy, Debug)]
pub struct Backpressure {
    /// Fraction of interrupts dropped since the last pump that triggers
    /// a period raise.
    pub drop_threshold: f64,
    /// Multiplier applied to both ends of the period range.
    pub factor: u64,
    /// Upper bound on the raised period.
    pub max_period: u64,
}

impl Default for Backpressure {
    fn default() -> Backpressure {
        Backpressure {
            drop_threshold: 0.01,
            factor: 4,
            max_period: 1 << 20,
        }
    }
}

/// Runtime state of a plan being applied to one session.
#[derive(Debug, Default)]
pub struct FaultInjector {
    plan: FaultPlan,
    next_crash: usize,
    next_torn: usize,
    notif_seen: u64,
    delayed: VecDeque<(u64, OsEvent)>,
    /// `ImageLoaded` notifications the plan swallowed.
    pub notif_dropped: u64,
    /// Pumps that found the daemon stalled.
    pub stalled_pumps: u64,
    /// Samples sealed inside files this injector corrupted (decoded
    /// from the victim *before* the damage, so the ledger knows exactly
    /// how many samples each quarantined file holds).
    pub quarantined_samples: u64,
    /// Crashes that have fired, in order.
    pub crashes: Vec<CrashRecord>,
    /// Observability handle: firings land in the `faults` trace ring.
    obs: Obs,
}

impl FaultInjector {
    /// Builds the injector for one session run.
    #[must_use]
    pub fn new(plan: FaultPlan) -> FaultInjector {
        FaultInjector {
            plan,
            ..FaultInjector::default()
        }
    }

    /// The plan being applied.
    #[must_use]
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// What the injector publishes: each kind of fault that fired, once
    /// one has.
    pub const PUBLISHED: Published<FaultInjector> = Published {
        incidents: &[
            ("faults.stalled_pumps", |f| f.stalled_pumps),
            ("faults.torn_flushes", |f| f.next_torn as u64),
            ("faults.notif_drops", |f| f.notif_dropped),
            ("faults.crashes", |f| f.crashes.len() as u64),
        ],
        ..Published::NONE
    };

    /// Attaches an observability handle so firings are traced.
    pub fn attach_obs(&mut self, obs: &Obs) {
        self.obs = obs.clone();
    }

    /// True while the daemon is stalled at `now`. Each stalled pump is
    /// counted and traced as a `fault.stall` firing.
    pub fn stalled(&mut self, now: u64) -> bool {
        let stalled = self.plan.stalls.iter().any(|w| w.contains(now));
        if stalled {
            self.stalled_pumps += 1;
            self.obs
                .event_at(Component::Faults, "fault.stall", now, 0, 0);
        }
        stalled
    }

    /// Returns the next scheduled crash if it is due at `now`, advancing
    /// past it. At most one crash fires per pump.
    pub fn crash_due(&mut self, now: u64) -> Option<CrashFault> {
        let c = *self.plan.crashes.get(self.next_crash)?;
        if now >= c.at_cycle {
            self.next_crash += 1;
            Some(c)
        } else {
            None
        }
    }

    /// True if a torn flush window should open at `now` (advances past
    /// the schedule entry).
    pub fn torn_flush_due(&mut self, now: u64) -> bool {
        match self.plan.torn_flushes.get(self.next_torn) {
            Some(&at) if now >= at => {
                self.next_torn += 1;
                self.obs
                    .event_at(Component::Faults, "fault.torn_flush", now, at, 0);
                true
            }
            _ => false,
        }
    }

    /// Applies the notification faults to a freshly drained event batch:
    /// every `notif_drop_period`-th `ImageLoaded` is swallowed, and the
    /// survivors are held for `notif_delay` cycles. Returns the events
    /// due for delivery at `now` (delivery order is preserved).
    pub fn admit_events(&mut self, now: u64, events: Vec<OsEvent>) -> Vec<OsEvent> {
        for ev in events {
            if self.plan.notif_drop_period > 0 {
                if let OsEvent::ImageLoaded { .. } = ev {
                    self.notif_seen += 1;
                    if self.notif_seen.is_multiple_of(self.plan.notif_drop_period) {
                        self.notif_dropped += 1;
                        self.obs.event_at(
                            Component::Faults,
                            "fault.notif_drop",
                            now,
                            self.notif_seen,
                            0,
                        );
                        continue;
                    }
                }
            }
            self.delayed.push_back((now + self.plan.notif_delay, ev));
        }
        let mut due = Vec::new();
        while let Some(&(release, _)) = self.delayed.front() {
            if release > now {
                break;
            }
            due.push(self.delayed.pop_front().expect("peeked").1);
        }
        due
    }

    /// Releases every still-delayed notification (the session's final
    /// drain delivers late rather than never).
    pub fn drain_pending(&mut self) -> Vec<OsEvent> {
        self.delayed.drain(..).map(|(_, ev)| ev).collect()
    }

    /// Records a crash that fired at `at_cycle`, losing `lost` in-memory
    /// samples, `since_flush` cycles after the last successful flush.
    pub fn record_crash(&mut self, at_cycle: u64, lost: u64, since_flush: u64) {
        self.obs.event_at(
            Component::Faults,
            "fault.crash",
            at_cycle,
            lost,
            since_flush,
        );
        self.crashes.push(CrashRecord {
            at_cycle,
            lost,
            since_flush,
        });
    }

    /// Applies a crash's filesystem damage to the database under
    /// `root`: picks the victim deterministically from the sorted list
    /// of profile files, decodes its sample total first (so the ledger
    /// can count what the quarantine seals away), then tears it and/or
    /// drops a stale `.tmp` beside it. A database with no profile files
    /// yet takes no damage.
    pub fn apply_corruption(&mut self, root: &Path, crash: &CrashFault) {
        let victims = profile_files(root);
        let Some(victim) = victims.get(crash.victim_pick as usize % victims.len().max(1)) else {
            return;
        };
        if crash.stray_tmp {
            let _ = fsfault::write_stray_tmp(victim, b"torn mid-merge");
        }
        let Some(kind) = crash.corrupt else { return };
        if let Ok(bytes) = std::fs::read(victim) {
            if let Ok((profile, _)) = codec::decode_profile(&bytes) {
                self.quarantined_samples += profile.total();
            }
        }
        match kind {
            CorruptKind::Truncate { keep } => {
                let len = std::fs::metadata(victim).map(|m| m.len()).unwrap_or(0);
                // Never a no-op: keep strictly fewer bytes than the file has.
                let keep = if len == 0 { 0 } else { keep % len };
                let _ = fsfault::truncate_file(victim, keep);
            }
            CorruptKind::BitFlip { byte, bit } => {
                let _ = fsfault::flip_bit(victim, byte, bit);
            }
        }
    }
}

/// Every profile file under a database root, sorted for deterministic
/// victim selection: the files a reader would open, listed without
/// opening a database that may already be damaged.
fn profile_files(root: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    for (epoch, entry) in db::list(root).unwrap_or_default() {
        if !matches!(entry, Entry::Epoch(_)) {
            continue;
        }
        let dir = root.join(epoch);
        for (name, entry) in db::list(&dir).unwrap_or_default() {
            if matches!(entry, Entry::Profile(_)) {
                out.push(dir.join(name));
            }
        }
    }
    out.sort();
    out
}

/// A network partition: agents with `id % modulo == remainder` are cut
/// off from the server during `[from, until)` ticks — frames in either
/// direction are dropped on the floor (the sender times out and
/// retries after the heal).
#[derive(Clone, Copy, Debug)]
pub struct Partition {
    /// First partitioned tick.
    pub from: u64,
    /// First tick past the partition.
    pub until: u64,
    /// Subset selector modulus (≥ 1).
    pub modulo: u32,
    /// Subset selector remainder (`< modulo`).
    pub remainder: u32,
}

impl Partition {
    /// True if `agent` is cut off at `now`.
    #[must_use]
    pub fn cuts(&self, now: u64, agent: u32) -> bool {
        (self.from..self.until).contains(&now) && agent % self.modulo.max(1) == self.remainder
    }
}

/// A seeded, reproducible schedule of *network* faults for the fleet
/// upload path, the transport-layer sibling of [`FaultPlan`]. Period
/// fields count frames fleet-wide (0 = never); the transport applies
/// them deterministically in send order, so the same plan over the
/// same traffic yields bit-identical damage.
#[derive(Clone, Debug)]
pub struct NetFaultPlan {
    /// Drop every Nth frame outright.
    pub drop_period: u64,
    /// Deliver every Nth frame twice (the copy lands `delay` later).
    pub dup_period: u64,
    /// Delay every Nth frame past its successor (reordering).
    pub reorder_period: u64,
    /// Truncate every Nth frame mid-record; the receiver's CRC check
    /// rejects it, which behaves like a drop with extra decode work.
    pub truncate_period: u64,
    /// Base one-way latency in ticks.
    pub delay: u64,
    /// Seeded extra delay in `[0, jitter]` per frame.
    pub jitter: u64,
    /// Link-wide stall windows: nothing is delivered while one is open
    /// (frames queue and arrive after the window closes).
    pub stalls: Vec<StallWindow>,
    /// Agent-subset partitions.
    pub partitions: Vec<Partition>,
    /// Tick after which no further faults fire (the heal point); frames
    /// sent at or past it sail through. `u64::MAX` = never heal.
    pub heal_at: u64,
}

impl Default for NetFaultPlan {
    fn default() -> NetFaultPlan {
        NetFaultPlan {
            drop_period: 0,
            dup_period: 0,
            reorder_period: 0,
            truncate_period: 0,
            delay: 1,
            jitter: 0,
            stalls: Vec::new(),
            partitions: Vec::new(),
            heal_at: u64::MAX,
        }
    }
}

impl NetFaultPlan {
    /// The clean network: fixed 1-tick latency, no faults.
    #[must_use]
    pub fn none() -> NetFaultPlan {
        NetFaultPlan::default()
    }

    /// True if the plan schedules no faults (latency alone is not a
    /// fault).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.drop_period == 0
            && self.dup_period == 0
            && self.reorder_period == 0
            && self.truncate_period == 0
            && self.jitter == 0
            && self.stalls.is_empty()
            && self.partitions.is_empty()
    }

    /// Draws a randomized plan over `[0, horizon)` ticks from `seed`.
    /// Every fault class fires: drops, duplicates, reordering,
    /// truncation, at least one stall, and at least one partition.
    #[must_use]
    pub fn random(seed: u32, horizon: u64) -> NetFaultPlan {
        let mut rng = CartaRng::new(seed);
        let h = horizon.max(64);
        // Periods are drawn from disjoint prime pools so no class
        // shadows another: earlier checks (drop, then truncate) win on
        // a shared frame index, and a dup_period that divides into
        // drop_period's multiples would never fire at all.
        let pick =
            |rng: &mut CartaRng, pool: &[u64]| pool[rng.uniform(0, pool.len() as u64 - 1) as usize];
        let mut plan = NetFaultPlan {
            drop_period: pick(&mut rng, &[7, 11, 13, 17, 19, 23]),
            dup_period: pick(&mut rng, &[29, 31, 37]),
            reorder_period: pick(&mut rng, &[41, 43, 47]),
            truncate_period: pick(&mut rng, &[53, 59, 61]),
            delay: rng.uniform(1, 4),
            jitter: rng.uniform(0, 3),
            heal_at: h,
            ..NetFaultPlan::none()
        };
        for _ in 0..rng.uniform(1, 2) {
            let from = rng.uniform(h / 8, h - h / 4);
            let len = rng.uniform(h / 40, h / 12);
            plan.stalls.push(StallWindow {
                from,
                until: from.saturating_add(len).min(h),
            });
        }
        for _ in 0..rng.uniform(1, 2) {
            let from = rng.uniform(h / 6, h - h / 4);
            let len = rng.uniform(h / 30, h / 8);
            let modulo = rng.uniform(3, 8) as u32;
            plan.partitions.push(Partition {
                from,
                until: from.saturating_add(len).min(h),
                modulo,
                remainder: rng.uniform(0, u64::from(modulo) - 1) as u32,
            });
        }
        plan
    }
}

/// What the network decided to do with one frame.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NetVerdict {
    /// The frame never arrives (drop, stall overflow, or partition).
    Drop,
    /// The frame arrives at `at`; `truncate_to` cuts it mid-record
    /// first (CRC failure at the receiver); `duplicate_at` schedules a
    /// second, intact copy.
    Deliver {
        /// Delivery tick.
        at: u64,
        /// Keep only this many bytes (mid-record truncation).
        truncate_to: Option<usize>,
        /// Delivery tick of the duplicate copy, if any.
        duplicate_at: Option<u64>,
    },
}

/// Per-class frame counters for one simulated link.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Frames offered to the network.
    pub sent: u64,
    /// Frames dropped by the drop schedule.
    pub dropped: u64,
    /// Frames delivered twice.
    pub duplicated: u64,
    /// Frames delayed past a successor.
    pub reordered: u64,
    /// Frames truncated mid-record.
    pub truncated: u64,
    /// Frames held by a stall window.
    pub stalled: u64,
    /// Frames dropped because an endpoint was partitioned.
    pub partitioned: u64,
}

/// Runtime state of a [`NetFaultPlan`] applied to one simulated
/// network. Decisions depend only on the plan, the seed, and the send
/// order, so identical traffic takes identical damage.
#[derive(Debug)]
pub struct NetFaults {
    plan: NetFaultPlan,
    rng: CartaRng,
    frames: u64,
    /// Frame counters.
    pub stats: NetStats,
}

impl NetFaults {
    /// Builds the fault engine for one network.
    #[must_use]
    pub fn new(plan: NetFaultPlan, seed: u32) -> NetFaults {
        NetFaults {
            plan,
            rng: CartaRng::new(seed.max(1)),
            frames: 0,
            stats: NetStats::default(),
        }
    }

    /// The plan being applied.
    #[must_use]
    pub fn plan(&self) -> &NetFaultPlan {
        &self.plan
    }

    /// True if `agent` is currently cut off from the server.
    #[must_use]
    pub fn partitioned(&self, now: u64, agent: u32) -> bool {
        now < self.plan.heal_at && self.plan.partitions.iter().any(|p| p.cuts(now, agent))
    }

    /// Decides the fate of a frame of `len` bytes sent at `now` on the
    /// link between `agent` and the server (either direction).
    pub fn on_frame(&mut self, now: u64, agent: u32, len: usize) -> NetVerdict {
        ledger_add(&mut self.stats.sent, 1);
        let mut at = now + self.plan.delay.max(1);
        if now >= self.plan.heal_at {
            return NetVerdict::Deliver {
                at,
                truncate_to: None,
                duplicate_at: None,
            };
        }
        if self.plan.partitions.iter().any(|p| p.cuts(now, agent)) {
            ledger_add(&mut self.stats.partitioned, 1);
            return NetVerdict::Drop;
        }
        self.frames += 1;
        let due = |period: u64, frames: u64| period > 0 && frames.is_multiple_of(period);
        if due(self.plan.drop_period, self.frames) {
            ledger_add(&mut self.stats.dropped, 1);
            return NetVerdict::Drop;
        }
        if self.plan.jitter > 0 {
            at += self.rng.uniform(0, self.plan.jitter);
        }
        // A stalled link holds the frame until the window closes.
        for w in &self.plan.stalls {
            if w.contains(now) {
                ledger_add(&mut self.stats.stalled, 1);
                at = at.max(w.until);
            }
        }
        if due(self.plan.reorder_period, self.frames) {
            // Push past the next frame's worst-case arrival.
            ledger_add(&mut self.stats.reordered, 1);
            at += self.plan.delay.max(1) + self.plan.jitter + 2;
        }
        let truncate_to = if due(self.plan.truncate_period, self.frames) && len > 2 {
            ledger_add(&mut self.stats.truncated, 1);
            Some(self.rng.uniform(1, len as u64 - 1) as usize)
        } else {
            None
        };
        // Only intact frames are worth duplicating: the copy must tickle
        // the receiver's dedup path, not its CRC check.
        let duplicate_at = if truncate_to.is_none() && due(self.plan.dup_period, self.frames) {
            ledger_add(&mut self.stats.duplicated, 1);
            Some(at + self.plan.delay.max(1) + 1)
        } else {
            None
        };
        NetVerdict::Deliver {
            at,
            truncate_to,
            duplicate_at,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcpi_core::profile::Profile;
    use dcpi_core::Event;
    use dcpi_testkit::TempRoot;

    #[test]
    fn same_seed_same_plan() {
        let a = FaultPlan::random(77, 10_000_000);
        let b = FaultPlan::random(77, 10_000_000);
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
        let c = FaultPlan::random(78, 10_000_000);
        assert_ne!(format!("{a:?}"), format!("{c:?}"));
    }

    #[test]
    fn empty_plan_injects_nothing() {
        let mut inj = FaultInjector::new(FaultPlan::none());
        assert!(inj.plan().is_empty());
        assert!(!inj.stalled(0));
        assert!(inj.crash_due(u64::MAX).is_none());
        assert!(!inj.torn_flush_due(u64::MAX));
        let evs = vec![OsEvent::ProcessCreated {
            pid: dcpi_core::Pid(1),
        }];
        assert_eq!(inj.admit_events(5, evs).len(), 1);
        assert_eq!(inj.notif_dropped, 0);
    }

    #[test]
    fn stall_windows_are_half_open() {
        let w = StallWindow {
            from: 100,
            until: 200,
        };
        assert!(!w.contains(99));
        assert!(w.contains(100));
        assert!(w.contains(199));
        assert!(!w.contains(200));
    }

    #[test]
    fn crashes_fire_once_in_order() {
        let plan = FaultPlan {
            crashes: vec![
                CrashFault {
                    at_cycle: 100,
                    corrupt: None,
                    victim_pick: 0,
                    stray_tmp: false,
                },
                CrashFault {
                    at_cycle: 300,
                    corrupt: None,
                    victim_pick: 0,
                    stray_tmp: false,
                },
            ],
            ..FaultPlan::none()
        };
        let mut inj = FaultInjector::new(plan);
        assert!(inj.crash_due(50).is_none());
        assert_eq!(inj.crash_due(150).expect("first crash").at_cycle, 100);
        assert!(inj.crash_due(150).is_none(), "second not due yet");
        assert_eq!(inj.crash_due(400).expect("second crash").at_cycle, 300);
        assert!(inj.crash_due(u64::MAX).is_none(), "schedule exhausted");
    }

    #[test]
    fn notification_drop_and_delay() {
        let load = |n: u64| OsEvent::ImageLoaded {
            pid: dcpi_core::Pid(1),
            image: dcpi_core::ImageId(n as u32),
            base: dcpi_core::Addr(n * 0x1000),
            size: 0x1000,
            path: String::new(),
        };
        let plan = FaultPlan {
            notif_drop_period: 2,
            notif_delay: 100,
            ..FaultPlan::none()
        };
        let mut inj = FaultInjector::new(plan);
        // Every 2nd ImageLoaded dropped; survivors delayed 100 cycles.
        let due = inj.admit_events(0, vec![load(1), load(2), load(3)]);
        assert!(due.is_empty(), "all survivors delayed");
        assert_eq!(inj.notif_dropped, 1);
        let due = inj.admit_events(100, Vec::new());
        assert_eq!(due.len(), 2);
        // Final drain releases anything still pending (the 4th load is
        // the period's next victim; the 5th survives into the queue).
        let due = inj.admit_events(100, vec![load(4), load(5)]);
        assert!(due.is_empty());
        assert_eq!(inj.notif_dropped, 2);
        assert_eq!(inj.drain_pending().len(), 1);
    }

    #[test]
    fn corruption_decodes_victim_totals_before_damage() {
        let dir = TempRoot::new("faults-corrupt");
        let epoch = dir.join("epoch_0000");
        std::fs::create_dir_all(&epoch).unwrap();
        let mut p = Profile::new();
        p.add(0, 41);
        p.add(8, 1);
        let bytes = codec::encode_profile(&p, Event::Cycles, codec::Format::V2);
        std::fs::write(epoch.join("00000001.cycles.prof"), &bytes).unwrap();
        let mut inj = FaultInjector::new(FaultPlan::none());
        inj.apply_corruption(
            &dir,
            &CrashFault {
                at_cycle: 0,
                corrupt: Some(CorruptKind::BitFlip { byte: 9, bit: 3 }),
                victim_pick: 5, // modulo 1 file → the only victim
                stray_tmp: true,
            },
        );
        assert_eq!(inj.quarantined_samples, 42);
        let damaged = std::fs::read(epoch.join("00000001.cycles.prof")).unwrap();
        assert!(codec::decode_profile(&damaged).is_err(), "victim is torn");
        assert!(
            epoch.join("00000001.cycles.tmp").exists(),
            "stale tmp left behind"
        );
    }

    #[test]
    fn corruption_on_empty_db_is_a_no_op() {
        let dir = TempRoot::new("faults-empty");
        std::fs::create_dir_all(dir.join("epoch_0000")).unwrap();
        let mut inj = FaultInjector::new(FaultPlan::none());
        inj.apply_corruption(
            &dir,
            &CrashFault {
                at_cycle: 0,
                corrupt: Some(CorruptKind::Truncate { keep: 3 }),
                victim_pick: 9,
                stray_tmp: true,
            },
        );
        assert_eq!(inj.quarantined_samples, 0);
    }

    #[test]
    fn fleet_ledger_conserves_through_transit_buckets() {
        let mut f = FleetLedger {
            base: LossLedger {
                generated: 1000,
                attributed: 700,
                unknown: 100,
                driver_dropped: 50,
                crash_lost: 30,
                quarantined: 20,
            },
            in_flight: 60,
            server_journal: 40,
            fleet_merged: 800,
            retrans_duplicates_discarded: 999, // outside the identity
        };
        assert!(f.conserves(), "{}", f.render());
        f.in_flight = 0;
        assert!(!f.conserves(), "in-flight samples must be accounted");
        f.in_flight = 60;
        f.fleet_merged = 799;
        assert!(!f.conserves(), "merged cross-check must hold");
        f.fleet_merged = 800;
        let mut sum = f;
        sum.merge(&f);
        assert!(sum.conserves());
        assert_eq!(sum.base.generated, 2000);
        assert_eq!(sum.retrans_duplicates_discarded, 1998);
    }

    #[test]
    fn net_same_seed_same_plan_and_verdicts() {
        let a = NetFaultPlan::random(5, 100_000);
        let b = NetFaultPlan::random(5, 100_000);
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
        assert_ne!(
            format!("{a:?}"),
            format!("{:?}", NetFaultPlan::random(6, 100_000))
        );
        let mut x = NetFaults::new(a.clone(), 11);
        let mut y = NetFaults::new(b, 11);
        for i in 0..500u64 {
            let v1 = x.on_frame(i * 3, (i % 7) as u32, 64);
            let v2 = y.on_frame(i * 3, (i % 7) as u32, 64);
            assert_eq!(v1, v2);
        }
        assert_eq!(x.stats, y.stats);
        assert!(x.stats.dropped > 0 && x.stats.duplicated > 0);
        assert!(x.stats.reordered > 0 && x.stats.truncated > 0);
    }

    #[test]
    fn net_partitions_cut_only_their_subset() {
        let plan = NetFaultPlan {
            partitions: vec![Partition {
                from: 100,
                until: 200,
                modulo: 4,
                remainder: 1,
            }],
            ..NetFaultPlan::none()
        };
        let mut net = NetFaults::new(plan, 1);
        assert!(net.partitioned(150, 5));
        assert!(!net.partitioned(150, 6));
        assert!(!net.partitioned(250, 5), "partition healed");
        assert_eq!(net.on_frame(150, 5, 32), NetVerdict::Drop);
        assert!(matches!(
            net.on_frame(150, 6, 32),
            NetVerdict::Deliver { .. }
        ));
        assert_eq!(net.stats.partitioned, 1);
    }

    #[test]
    fn net_heal_point_stops_all_faults() {
        let plan = NetFaultPlan {
            drop_period: 1, // would drop every frame
            heal_at: 50,
            ..NetFaultPlan::none()
        };
        let mut net = NetFaults::new(plan, 1);
        assert_eq!(net.on_frame(10, 0, 32), NetVerdict::Drop);
        assert!(matches!(
            net.on_frame(50, 0, 32),
            NetVerdict::Deliver {
                truncate_to: None,
                duplicate_at: None,
                ..
            }
        ));
    }

    #[test]
    fn net_stall_holds_frames_until_window_closes() {
        let plan = NetFaultPlan {
            stalls: vec![StallWindow {
                from: 10,
                until: 40,
            }],
            delay: 2,
            ..NetFaultPlan::none()
        };
        let mut net = NetFaults::new(plan, 1);
        match net.on_frame(20, 0, 32) {
            NetVerdict::Deliver { at, .. } => assert!(at >= 40, "held to window close, got {at}"),
            v => panic!("unexpected verdict {v:?}"),
        }
        match net.on_frame(50, 0, 32) {
            NetVerdict::Deliver { at, .. } => assert_eq!(at, 52),
            v => panic!("unexpected verdict {v:?}"),
        }
    }

    #[test]
    fn random_plans_stay_within_horizon() {
        for seed in 1..50 {
            let plan = FaultPlan::random(seed, 1_000_000);
            for s in &plan.stalls {
                assert!(s.from < s.until && s.until <= 1_000_000);
            }
            for c in &plan.crashes {
                assert!(c.at_cycle < 1_000_000);
            }
            for &t in &plan.torn_flushes {
                assert!(t < 1_000_000);
            }
        }
    }
}
