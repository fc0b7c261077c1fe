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

use dcpi_core::codec;
use dcpi_core::db::{self, Entry};
use dcpi_core::prng::CartaRng;
use dcpi_machine::os::OsEvent;
/// The sample and fleet ledgers and their overflow rule live in
/// `dcpi-obs`, the crate the collector and the offline tools both depend on.
pub use dcpi_obs::ledger::{ledger_add, FleetLedger, LossLedger};
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
            if let Some((_, ev)) = self.delayed.pop_front() {
                due.push(ev);
            }
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
    /// of profile files, drops a stale `.tmp` beside it, as a crash
    /// between the merge protocol's write and rename would (§4.3.3),
    /// and reads it once to decode its sample total (so the ledger can
    /// count what the quarantine seals away) before tearing it. A
    /// database with no profile files yet takes no damage, and neither
    /// does a victim an earlier crash left empty.
    pub fn apply_corruption(&mut self, root: &Path, crash: &CrashFault) {
        let victims = profile_files(root);
        let Some(victim) = victims.get(crash.victim_pick as usize % victims.len().max(1)) else {
            return;
        };
        if crash.stray_tmp {
            let _ = std::fs::write(db::tmp_path(victim), b"torn mid-merge");
        }
        let Some(kind) = crash.corrupt else { return };
        let Ok(mut bytes) = std::fs::read(victim) else {
            return;
        };
        let len = bytes.len() as u64;
        if len == 0 {
            return;
        }
        if let Ok((profile, _)) = codec::decode_profile(&bytes) {
            self.quarantined_samples += profile.total();
        }
        match kind {
            // A torn write: never a no-op, strictly fewer bytes remain.
            CorruptKind::Truncate { keep } => bytes.truncate((keep % len) as usize),
            CorruptKind::BitFlip { byte, bit } => {
                if let Some(b) = bytes.get_mut((byte % len) as usize) {
                    *b ^= 1 << (bit % 8);
                }
            }
        }
        let _ = std::fs::write(victim, &bytes);
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

    /// A database holding one 42-sample profile file: the root, the
    /// victim's path and its bytes.
    fn one_victim(tag: &str) -> (TempRoot, PathBuf, Vec<u8>) {
        let dir = TempRoot::new(tag);
        let epoch = dir.join("epoch_0000");
        std::fs::create_dir_all(&epoch).unwrap();
        let mut p = Profile::new();
        p.add(0, 41);
        p.add(8, 1);
        let bytes = codec::encode_profile(&p, Event::Cycles, codec::Format::V2);
        let victim = epoch.join("00000001.cycles.prof");
        std::fs::write(&victim, &bytes).unwrap();
        (dir, victim, bytes)
    }

    fn crash(corrupt: Option<CorruptKind>, stray_tmp: bool) -> CrashFault {
        CrashFault {
            at_cycle: 0,
            corrupt,
            victim_pick: 5, // modulo 1 file → the only victim
            stray_tmp,
        }
    }

    #[test]
    fn corruption_decodes_victim_totals_before_damage() {
        let (dir, victim, _) = one_victim("faults-corrupt");
        let mut inj = FaultInjector::new(FaultPlan::none());
        let flip = CorruptKind::BitFlip { byte: 9, bit: 3 };
        inj.apply_corruption(&dir, &crash(Some(flip), false));
        assert_eq!(inj.quarantined_samples, 42);
        let damaged = std::fs::read(&victim).unwrap();
        assert!(codec::decode_profile(&damaged).is_err(), "victim is torn");
    }

    #[test]
    fn truncation_keeps_a_strict_prefix() {
        let (dir, victim, bytes) = one_victim("faults-truncate");
        let len = bytes.len() as u64;
        let mut inj = FaultInjector::new(FaultPlan::none());
        for keep in [3, len + 3, len] {
            std::fs::write(&victim, &bytes).unwrap();
            inj.apply_corruption(&dir, &crash(Some(CorruptKind::Truncate { keep }), false));
            let kept = std::fs::read(&victim).unwrap();
            assert_eq!(kept, bytes[..(keep % len) as usize], "keep {keep}");
        }
        assert_eq!(inj.quarantined_samples, 3 * 42);
    }

    #[test]
    fn bit_flip_flips_exactly_one_bit() {
        let (dir, victim, bytes) = one_victim("faults-flip");
        let len = bytes.len() as u64;
        let mut inj = FaultInjector::new(FaultPlan::none());
        let flip = CorruptKind::BitFlip {
            byte: 2 * len + 5,
            bit: 11,
        };
        inj.apply_corruption(&dir, &crash(Some(flip), false));
        let damaged = std::fs::read(&victim).unwrap();
        let diff: Vec<(usize, u8)> = damaged
            .iter()
            .zip(&bytes)
            .enumerate()
            .filter(|(_, (a, b))| a != b)
            .map(|(i, (a, b))| (i, a ^ b))
            .collect();
        assert_eq!(diff, [(5, 1 << 3)], "byte % len, bit % 8");
    }

    #[test]
    fn stray_tmp_lands_beside_the_victim() {
        let (dir, victim, bytes) = one_victim("faults-tmp");
        let mut inj = FaultInjector::new(FaultPlan::none());
        inj.apply_corruption(&dir, &crash(None, true));
        let tmp = db::tmp_path(&victim);
        assert_eq!(std::fs::read(tmp).unwrap(), b"torn mid-merge");
        assert_eq!(std::fs::read(&victim).unwrap(), bytes, "victim untouched");
        assert_eq!(inj.quarantined_samples, 0);
    }

    #[test]
    fn emptied_victim_takes_no_further_damage() {
        // An earlier crash truncates the only profile to nothing; no
        // flush rewrites it before a later crash flips a bit in it.
        let (dir, victim, bytes) = one_victim("faults-emptied");
        let plan = FaultPlan {
            crashes: vec![
                crash(
                    Some(CorruptKind::Truncate {
                        keep: bytes.len() as u64,
                    }),
                    false,
                ),
                crash(Some(CorruptKind::BitFlip { byte: 7, bit: 2 }), false),
            ],
            ..FaultPlan::none()
        };
        let mut inj = FaultInjector::new(plan);
        while let Some(c) = inj.crash_due(0) {
            inj.apply_corruption(&dir, &c);
        }
        assert!(std::fs::read(&victim).unwrap().is_empty());
        assert_eq!(
            inj.quarantined_samples, 42,
            "only the first crash sealed samples"
        );
    }

    #[test]
    fn corruption_on_empty_db_is_a_no_op() {
        let dir = TempRoot::new("faults-empty");
        std::fs::create_dir_all(dir.join("epoch_0000")).unwrap();
        let mut inj = FaultInjector::new(FaultPlan::none());
        let truncate = CorruptKind::Truncate { keep: 3 };
        inj.apply_corruption(&dir, &crash(Some(truncate), true));
        assert_eq!(inj.quarantined_samples, 0);
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
