//! Overhead, sample-loss and fleet ledgers.
//!
//! The paper's Table 3 claims 1–3% total slowdown from continuous
//! profiling: roughly 1% for the interrupt handler (≈ 634 cycles per
//! sample at the default 60–64K-cycle period) and a fraction of a percent
//! for the daemon. [`OverheadLedger`] reconciles the cycles our simulator
//! actually charged to collection against total simulated cycles so the
//! claim is *measured*, not asserted. [`LossLedger`] is the workspace's
//! one sample ledger (`generated = attributed + unknown + driver-dropped +
//! crash-lost + quarantined`): the collector fills it, the wire and the
//! server's checkpoint carry it, and the tools read it back from an obs
//! export — it lives here, in the crate all of them already depend on.
//! [`FleetLedger`] extends it through upload, server journal and fleet
//! merge. [`ledger_add`] is their one overflow rule. Each ledger names its
//! buckets once, in a `BUCKETS` table that merging and every codec read.

use dcpi_core::json::{Json, Value};

/// One row of a ledger's bucket table: the bucket's name, which is its
/// field's name and its JSON key, and the field it reads and writes.
#[derive(Debug)]
pub struct Bucket<L> {
    /// The field's name and JSON key.
    pub name: &'static str,
    /// Reads the bucket.
    pub get: fn(&L) -> u64,
    /// The bucket's slot, for decoding and merging.
    pub slot: fn(&mut L) -> &mut u64,
    /// Exports written before the bucket existed lack it; it reads as 0.
    pub optional: bool,
}

/// The table row for field `$f`, named after it.
macro_rules! bucket {
    ($f:ident) => {
        Bucket {
            name: stringify!($f),
            get: |l| l.$f,
            slot: |l| &mut l.$f,
            optional: false,
        }
    };
}

/// Adds every bucket of `from` into `into` under [`ledger_add`].
pub fn merge_buckets<L>(table: &[Bucket<L>], into: &mut L, from: &L) {
    for b in table {
        ledger_add((b.slot)(into), (b.get)(from));
    }
}

/// `l`'s buckets as JSON members, in table order.
pub fn bucket_members<L>(table: &[Bucket<L>], l: &L) -> Vec<(&'static str, Value<'static>)> {
    table.iter().map(|b| (b.name, (b.get)(l).into())).collect()
}

/// Reads a ledger from the members of object `o`; a bucket that is
/// absent (and not optional) or not an integer is [`Json::int`]'s error.
pub fn read_buckets<L: Default>(table: &[Bucket<L>], o: &Json) -> Result<L, String> {
    let mut l = L::default();
    for b in table {
        *(b.slot)(&mut l) = match o.get(b.name) {
            None if b.optional => 0,
            _ => o.int(b.name)?,
        };
    }
    Ok(l)
}

/// Cycles charged to profiling, reconciled against total simulated time.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OverheadLedger {
    /// Total simulated machine cycles for the run.
    pub total_cycles: u64,
    /// Cycles charged by the interrupt handler (driver time).
    pub handler_cycles: u64,
    /// Cycles charged for daemon processing.
    pub daemon_cycles: u64,
    /// Cycles spent walking call stacks at sample delivery (the
    /// calling-context extension). A *subset* of `handler_cycles` —
    /// reported separately so the walk's share of the 1–3% band is
    /// visible — and therefore excluded from `collection_cycles`.
    pub walk_cycles: u64,
    /// Samples delivered (for per-sample cost).
    pub samples: u64,
}

impl OverheadLedger {
    /// The five buckets in export order. `walk_cycles` came with the
    /// stack-walk extension, so an export written before it reads as 0.
    pub const BUCKETS: [Bucket<OverheadLedger>; 5] = [
        bucket!(total_cycles),
        bucket!(handler_cycles),
        bucket!(daemon_cycles),
        Bucket {
            optional: true,
            ..bucket!(walk_cycles)
        },
        bucket!(samples),
    ];

    /// Cycles attributable to collection: handler + daemon. Saturates,
    /// because a ledger read from an export may hold any two integers.
    pub fn collection_cycles(&self) -> u64 {
        self.handler_cycles.saturating_add(self.daemon_cycles)
    }

    /// Collection cycles as a fraction of total cycles (0.0 when empty).
    pub fn fraction(&self) -> f64 {
        if self.total_cycles == 0 {
            0.0
        } else {
            self.collection_cycles() as f64 / self.total_cycles as f64
        }
    }

    /// Mean collection cycles per delivered sample.
    pub fn cycles_per_sample(&self) -> f64 {
        if self.samples == 0 {
            0.0
        } else {
            self.collection_cycles() as f64 / self.samples as f64
        }
    }

    /// Is the overhead fraction within `[lo, hi]`?
    pub fn in_band(&self, lo: f64, hi: f64) -> bool {
        let f = self.fraction();
        f >= lo && f <= hi
    }

    /// Basic sanity: collection cannot exceed total, and the walk is a
    /// subset of the handler time it was charged within.
    pub fn consistent(&self) -> bool {
        self.collection_cycles() <= self.total_cycles && self.walk_cycles <= self.handler_cycles
    }

    /// Merge another run's ledger (checked sums; fractions re-derive).
    pub fn merge(&mut self, other: &OverheadLedger) {
        merge_buckets(&Self::BUCKETS, self, other);
    }

    /// One-line human rendering.
    pub fn render(&self) -> String {
        let walk = if self.walk_cycles > 0 {
            format!(" incl. {} walk", self.walk_cycles)
        } else {
            String::new()
        };
        format!(
            "overhead: {:.2}% of {} Mcycles (handler {}{walk} + daemon {} cycles, {:.0} cyc/sample over {} samples)",
            self.fraction() * 100.0,
            self.total_cycles / 1_000_000,
            self.handler_cycles,
            self.daemon_cycles,
            self.cycles_per_sample(),
            self.samples,
        )
    }
}

/// End-to-end sample accounting: every generated sample must appear in
/// exactly one bucket. For a collection session it is valid after the
/// final drain (`ProfiledRun::finish`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LossLedger {
    /// Counter-overflow samples the machine generated.
    pub generated: u64,
    /// Samples attributed to a real image (on disk plus surviving
    /// daemon memory).
    pub attributed: u64,
    /// Samples in the unknown profile (§4.3.2).
    pub unknown: u64,
    /// Samples dropped in the kernel because both overflow buffers were
    /// full (§4.2.1).
    pub driver_dropped: u64,
    /// Samples lost from daemon memory across crashes (§4.3.3 bounds
    /// these to one flush interval each).
    pub crash_lost: u64,
    /// Samples sealed inside quarantined (corrupt) profile files.
    pub quarantined: u64,
}

/// Adds `add` into a ledger counter. Fleet-scale totals sum ledgers from
/// hundreds of agents over long horizons, where a silent wrap would turn
/// a conservation violation into a false pass (or vice versa); debug
/// builds assert, release builds saturate so the mismatch stays visible.
#[inline]
pub fn ledger_add(slot: &mut u64, add: u64) {
    debug_assert!(
        slot.checked_add(add).is_some(),
        "ledger counter overflow: {slot} + {add}"
    );
    *slot = slot.saturating_add(add);
}

/// Sums ledger buckets with the same overflow discipline as
/// [`ledger_add`].
#[inline]
#[must_use]
pub fn ledger_sum(parts: impl IntoIterator<Item = u64>) -> u64 {
    let mut total = 0u64;
    for p in parts {
        ledger_add(&mut total, p);
    }
    total
}

impl LossLedger {
    /// The six buckets in wire and JSON order: `generated` first, then
    /// the five that partition it.
    pub const BUCKETS: [Bucket<LossLedger>; 6] = [
        bucket!(generated),
        bucket!(attributed),
        bucket!(unknown),
        bucket!(driver_dropped),
        bucket!(crash_lost),
        bucket!(quarantined),
    ];

    /// The buckets that partition `generated`: every row after the first.
    fn buckets(&self) -> impl Iterator<Item = u64> + '_ {
        Self::BUCKETS[1..].iter().map(|b| (b.get)(self))
    }

    /// Samples accounted for across all loss and retention buckets.
    #[must_use]
    pub fn accounted(&self) -> u64 {
        ledger_sum(self.buckets())
    }

    /// The conservation law: nothing vanished without a line item.
    /// Buckets whose sum overflows `u64` cannot conserve; the check
    /// never panics, because a ledger read from an export may hold any
    /// integers.
    #[must_use]
    pub fn conserves(&self) -> bool {
        let sum = self.buckets().try_fold(0u64, |t, b| t.checked_add(b));
        sum == Some(self.generated)
    }

    /// A one-line summary for session reports.
    #[must_use]
    pub fn render(&self) -> String {
        format!(
            "samples: generated {} = attributed {} + unknown {} + dropped {} + crash-lost {} + quarantined {}{}",
            self.generated,
            self.attributed,
            self.unknown,
            self.driver_dropped,
            self.crash_lost,
            self.quarantined,
            if self.conserves() { "" } else { "  ** NOT CONSERVED **" }
        )
    }

    /// Merges another run's ledger (checked sums on every bucket, so the
    /// conservation law survives the merge iff both inputs conserve).
    /// This is the one correct way to combine ledgers from independent
    /// `Machine` runs in the grid experiments.
    pub fn merge(&mut self, other: &LossLedger) {
        merge_buckets(&Self::BUCKETS, self, other);
    }
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
    /// The four transit buckets, in `fleet.json` order after `base`'s.
    pub const BUCKETS: [Bucket<FleetLedger>; 4] = [
        bucket!(in_flight),
        bucket!(server_journal),
        bucket!(fleet_merged),
        bucket!(retrans_duplicates_discarded),
    ];

    /// Samples accounted for, including the two transit buckets.
    #[must_use]
    pub fn accounted(&self) -> u64 {
        ledger_sum([self.base.accounted(), self.in_flight, self.server_journal])
    }

    /// The fleet-wide conservation law plus the merged cross-check.
    #[must_use]
    pub fn conserves(&self) -> bool {
        self.base.generated == self.accounted()
            && self.fleet_merged == ledger_sum([self.base.attributed, self.base.unknown])
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
        merge_buckets(&Self::BUCKETS, self, other);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overhead_math() {
        let l = OverheadLedger {
            total_cycles: 1_000_000,
            handler_cycles: 10_000,
            daemon_cycles: 2_000,
            walk_cycles: 3_000,
            samples: 16,
        };
        assert_eq!(l.collection_cycles(), 12_000, "walk is inside handler");
        assert!((l.fraction() - 0.012).abs() < 1e-12);
        assert!(l.in_band(0.01, 0.03));
        assert!(!l.in_band(0.02, 0.03));
        assert!(l.consistent());
        assert!((l.cycles_per_sample() - 750.0).abs() < 1e-9);
        assert!(l.render().contains("incl. 3000 walk"));
        let bad = OverheadLedger {
            walk_cycles: 11_000,
            ..l
        };
        assert!(!bad.consistent(), "walk cannot exceed handler time");
        let hostile = OverheadLedger {
            handler_cycles: u64::MAX,
            daemon_cycles: 2,
            ..l
        };
        assert_eq!(hostile.collection_cycles(), u64::MAX, "saturates");
        assert!(!hostile.consistent());
        assert!(hostile.render().starts_with("overhead:"));
    }

    #[test]
    fn overhead_merge_sums() {
        let mut a = OverheadLedger {
            total_cycles: 100,
            handler_cycles: 1,
            daemon_cycles: 2,
            walk_cycles: 1,
            samples: 3,
        };
        a.merge(&a.clone());
        assert_eq!(a.total_cycles, 200);
        assert_eq!(a.samples, 6);
    }

    #[test]
    fn sample_ledger_conservation() {
        let mut l = LossLedger {
            generated: 10,
            attributed: 6,
            unknown: 1,
            driver_dropped: 1,
            crash_lost: 1,
            quarantined: 1,
        };
        assert!(l.conserves());
        l.merge(&l.clone());
        assert!(l.conserves());
        assert_eq!(l.generated, 20);
        l.generated += 1;
        assert!(!l.conserves());
        assert!(l.render().contains("NOT CONSERVED"));
    }

    #[test]
    fn empty_ledgers_are_benign() {
        let l = OverheadLedger::default();
        assert_eq!(l.fraction(), 0.0);
        assert_eq!(l.cycles_per_sample(), 0.0);
        assert!(LossLedger::default().conserves());
    }

    #[test]
    fn ledger_conservation_law() {
        let mut l = LossLedger {
            generated: 100,
            attributed: 80,
            unknown: 5,
            driver_dropped: 10,
            crash_lost: 3,
            quarantined: 2,
        };
        assert!(l.conserves());
        assert!(!l.render().contains("NOT CONSERVED"));
        l.quarantined = 1;
        assert!(!l.conserves());
        assert!(l.render().contains("NOT CONSERVED"));
        // Buckets past u64 do not conserve, even against a saturated
        // `generated`, and saying so does not panic.
        let hostile = LossLedger {
            generated: u64::MAX,
            attributed: u64::MAX,
            unknown: 1,
            ..LossLedger::default()
        };
        assert!(!hostile.conserves());
        assert!(hostile.render().contains("NOT CONSERVED"));
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
    fn ledger_add_saturates_and_asserts_in_debug() {
        let mut x = 40u64;
        ledger_add(&mut x, 2);
        assert_eq!(x, 42);
        assert_eq!(ledger_sum([1, 2, 3]), 6);
        let saturating = std::panic::catch_unwind(|| {
            let mut x = u64::MAX - 1;
            ledger_add(&mut x, 5);
            x
        });
        if cfg!(debug_assertions) {
            assert!(saturating.is_err(), "debug builds assert on overflow");
        } else {
            assert_eq!(saturating.unwrap(), u64::MAX, "release builds saturate");
        }
    }

    /// The one overflow rule, through `merge`. Were the sum to wrap,
    /// `generated` would come out as 1 and a ledger that lost every
    /// sample but one would conserve.
    #[test]
    #[cfg_attr(debug_assertions, should_panic(expected = "ledger counter overflow"))]
    fn merge_overflow_asserts_in_debug_and_stays_visible_in_release() {
        let mut l = LossLedger {
            generated: u64::MAX,
            attributed: 1,
            ..LossLedger::default()
        };
        l.merge(&LossLedger {
            generated: 2,
            ..LossLedger::default()
        });
        assert_eq!(l.generated, u64::MAX, "saturated, not wrapped");
        assert!(!l.conserves());
    }
}
