//! The device driver (§4.2): per-CPU sample aggregation.
//!
//! Each processor owns a hash table of fixed-size buckets (four entries per
//! bucket on the paper's 21164, one 64-byte cache line) that aggregates
//! samples by `(PID, PC, EVENT)`, plus a *pair* of overflow buffers so one
//! can fill while the other is copied to user space (§4.2.1). Eviction uses
//! a mod-`associativity` counter; the paper's §5.4 sweep found swap-to-front
//! with insert-at-front better by 10–20%, so both policies are implemented.
//!
//! The flush protocol models §4.2.3: a flush raises a per-CPU flag (set via
//! a simulated inter-processor interrupt); while the flag is up the
//! interrupt handler bypasses the hash table and appends samples directly
//! to the overflow buffer, so no memory barriers are needed in the handler.

use crate::faults::ledger_add;
use dcpi_core::{Addr, CpuId, Event, Pid, Sample, SampleEntry};
use dcpi_machine::machine::SampleSink;
use dcpi_obs::{Component, Obs, Published};
use dcpi_stacks::{RawStackSample, StackTable};
use std::collections::HashMap;

/// Eviction/placement policy for the driver hash table (§5.4).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum EvictPolicy {
    /// The shipped policy: evict the entry selected by a mod-associativity
    /// counter incremented on each eviction; new entries take the victim's
    /// slot.
    ModCounter,
    /// The improved policy evaluated in §5.4: swap an entry to the front
    /// of the line on a hit and insert new entries at the beginning,
    /// evicting the last entry.
    SwapToFront,
}

/// Hash function choices for the sweep (§5.4 mentions varying the hash
/// function).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum HashKind {
    /// Multiplicative hashing over the packed key (default).
    Multiplicative,
    /// A weaker xor-fold of PC and PID, prone to stride artifacts —
    /// included as the sweep's straw man.
    XorFold,
}

/// Driver tuning parameters.
#[derive(Clone, Debug)]
pub struct DriverConfig {
    /// Number of buckets per CPU (each holds `associativity` entries).
    pub buckets: usize,
    /// Entries per bucket (4 fits one 64-byte line on the 21164).
    pub associativity: usize,
    /// Entries per overflow buffer (the paper used 8K samples).
    pub overflow_entries: usize,
    /// Eviction policy.
    pub policy: EvictPolicy,
    /// Hash function.
    pub hash: HashKind,
}

impl Default for DriverConfig {
    fn default() -> DriverConfig {
        DriverConfig {
            // 4K buckets × 4 entries = 16K samples, the paper's hash
            // table size (§5.3: each hash table held 16K samples).
            buckets: 4096,
            associativity: 4,
            overflow_entries: 8192,
            policy: EvictPolicy::ModCounter,
            hash: HashKind::Multiplicative,
        }
    }
}

/// Cycle costs of the interrupt handler paths, used to charge profiling
/// overhead to the simulated CPU. The constants approximate the paper's
/// measurements (§5.2: ~214 cycles of setup/teardown; Table 4: hit paths
/// of roughly 200–550 cycles and miss paths of roughly 650–1100).
#[derive(Clone, Copy, Debug)]
pub struct CostModel {
    /// Interrupt delivery and return (outside the handler proper).
    pub setup: u64,
    /// Handler cost when the sample hits in the hash table.
    pub hit: u64,
    /// Handler cost when the sample misses (eviction + overflow append).
    pub miss: u64,
}

impl Default for CostModel {
    fn default() -> CostModel {
        CostModel {
            setup: 214,
            hit: 420,
            miss: 700,
        }
    }
}

/// Statistics of one CPU's driver instance.
#[derive(Clone, Copy, Debug, Default)]
pub struct DriverStats {
    /// Interrupts handled.
    pub interrupts: u64,
    /// Hash-table hits (sample aggregated into an existing entry).
    pub hits: u64,
    /// Hash-table misses (eviction + insert).
    pub misses: u64,
    /// Samples evicted from the table into the overflow buffer (the
    /// victims' counts).
    pub spilled: u64,
    /// Samples appended straight to the overflow buffer during a flush.
    pub flush_bypass: u64,
    /// Samples dropped because both overflow buffers were full.
    pub dropped: u64,
    /// Total handler cycles charged.
    pub handler_cycles: u64,
}

impl DriverStats {
    /// Hash-table miss rate among table-bound samples.
    #[must_use]
    pub fn miss_rate(&self) -> f64 {
        let n = self.hits + self.misses;
        if n == 0 {
            0.0
        } else {
            self.misses as f64 / n as f64
        }
    }

    /// Average handler cycles per interrupt.
    #[must_use]
    pub fn avg_cost(&self) -> f64 {
        if self.interrupts == 0 {
            0.0
        } else {
            self.handler_cycles as f64 / self.interrupts as f64
        }
    }

    /// Accumulates another stats block. Used both for per-CPU totals and
    /// for merging independent runs in the grid experiments — every field
    /// is a count, so a plain sum is the correct merge.
    pub fn merge(&mut self, other: &DriverStats) {
        ledger_add(&mut self.interrupts, other.interrupts);
        ledger_add(&mut self.hits, other.hits);
        ledger_add(&mut self.misses, other.misses);
        ledger_add(&mut self.spilled, other.spilled);
        ledger_add(&mut self.flush_bypass, other.flush_bypass);
        ledger_add(&mut self.dropped, other.dropped);
        ledger_add(&mut self.handler_cycles, other.handler_cycles);
    }

    /// What the driver publishes (Table 4's hash-table figures).
    pub const PUBLISHED: Published<DriverStats> = Published {
        counters: &[
            ("driver.interrupts", |s| s.interrupts),
            ("driver.ht_hits", |s| s.hits),
            ("driver.ht_misses", |s| s.misses),
            ("driver.spilled_samples", |s| s.spilled),
            ("driver.dropped_samples", |s| s.dropped),
            ("driver.flush_bypass", |s| s.flush_bypass),
        ],
        ..Published::NONE
    };
}

#[derive(Clone, Copy, Debug)]
struct Entry {
    sample: Sample,
    count: u64,
}

/// The per-CPU driver state.
#[derive(Debug)]
pub struct CpuDriver {
    cfg: DriverConfig,
    cost: CostModel,
    table: Vec<Option<Entry>>,
    evict_counter: usize,
    buffers: [Vec<SampleEntry>; 2],
    active: usize,
    flushing: bool,
    /// Aggregated edge samples (§7 extension): `(pid, branch pc, taken)`
    /// → count. Drained by the daemon alongside the overflow buffers.
    pub edge_samples: HashMap<(Pid, Addr, bool), u64>,
    /// Aggregated path samples from double sampling (§7): `(pid, pc1,
    /// pc2)` → count.
    pub path_samples: HashMap<(Pid, Addr, Addr), u64>,
    /// Per-CPU intern table over raw frame PCs (the calling-context
    /// extension). Walked stacks are canonicalized to a small stack ID
    /// in the interrupt path — O(depth) hash lookups, allocation-free
    /// once warm — and expanded back to frame lists only at drain time.
    pub stack_table: StackTable<u64>,
    /// Aggregated stack samples: `(pid, event code, stack id)` → count.
    pub stack_counts: HashMap<(Pid, u8, u32), u64>,
    /// Reusable frame-conversion buffer for the interrupt path.
    stack_scratch: Vec<u64>,
    /// Set when the active overflow buffer fills (the daemon's wakeup
    /// signal).
    pub buffer_full: bool,
    /// Statistics.
    pub stats: DriverStats,
    /// Observability handle (disabled unless attached; a disabled probe
    /// is one `AtomicBool` load).
    obs: Obs,
}

impl CpuDriver {
    /// Creates the driver state for one CPU.
    #[must_use]
    pub fn new(cfg: DriverConfig, cost: CostModel) -> CpuDriver {
        assert!(cfg.buckets.is_power_of_two(), "buckets must be 2^k");
        assert!(cfg.associativity >= 1);
        CpuDriver {
            table: vec![None; cfg.buckets * cfg.associativity],
            evict_counter: 0,
            buffers: [
                Vec::with_capacity(cfg.overflow_entries.min(65_536)),
                Vec::with_capacity(cfg.overflow_entries.min(65_536)),
            ],
            active: 0,
            flushing: false,
            edge_samples: HashMap::new(),
            path_samples: HashMap::new(),
            stack_table: StackTable::default(),
            stack_counts: HashMap::new(),
            stack_scratch: Vec::new(),
            buffer_full: false,
            stats: DriverStats::default(),
            obs: Obs::disabled(),
            cfg,
            cost,
        }
    }

    /// Records an interpreted conditional-branch direction (§7).
    pub fn record_edge(&mut self, pid: Pid, pc: Addr, taken: bool) {
        *self.edge_samples.entry((pid, pc, taken)).or_insert(0) += 1;
    }

    /// Drains the aggregated edge samples.
    pub fn drain_edges(&mut self) -> Vec<((Pid, Addr, bool), u64)> {
        self.edge_samples.drain().collect()
    }

    /// Records a double-sample PC pair (§7).
    pub fn record_path(&mut self, pid: Pid, pc1: Addr, pc2: Addr) {
        *self.path_samples.entry((pid, pc1, pc2)).or_insert(0) += 1;
    }

    /// Drains the aggregated path samples.
    pub fn drain_paths(&mut self) -> Vec<((Pid, Addr, Addr), u64)> {
        self.path_samples.drain().collect()
    }

    /// Records a walked call stack (leaf-first, as handed over by the
    /// machine's sample-time walker): interns it into the per-CPU stack
    /// table and bumps the `(pid, event, stack)` count.
    pub fn record_stack(&mut self, pid: Pid, event: Event, frames: &[Addr]) {
        self.stack_scratch.clear();
        self.stack_scratch.extend(frames.iter().map(|a| a.0));
        let id = self.stack_table.intern_leaf_first(&self.stack_scratch);
        *self
            .stack_counts
            .entry((pid, event.code(), id))
            .or_insert(0) += 1;
    }

    /// Drains the aggregated stack samples, expanding stack IDs back to
    /// outermost-first raw frame lists. The result is sorted — the
    /// per-CPU counts live in a `HashMap`, whose drain order would
    /// otherwise leak nondeterminism into downstream interning orders.
    /// The intern table is retained so later samples re-use warm IDs.
    pub fn drain_stacks(&mut self) -> Vec<RawStackSample> {
        let drained: Vec<((Pid, u8, u32), u64)> = self.stack_counts.drain().collect();
        let mut out: Vec<RawStackSample> = drained
            .into_iter()
            .map(|((pid, event, id), count)| RawStackSample {
                pid,
                event,
                frames: self.stack_table.frames(id),
                count,
            })
            .collect();
        out.sort();
        out
    }

    fn bucket_of(&self, s: &Sample) -> usize {
        let key = (s.pc.0 >> 2) ^ (u64::from(s.pid.0) << 40) ^ (u64::from(s.event.code()) << 56);
        let h = match self.cfg.hash {
            HashKind::Multiplicative => key.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 32,
            HashKind::XorFold => key ^ (key >> 16),
        };
        (h as usize) & (self.cfg.buckets - 1)
    }

    fn push_overflow(&mut self, e: SampleEntry, at_cycle: u64) {
        let cap = self.cfg.overflow_entries;
        let buf = &mut self.buffers[self.active];
        if buf.len() < cap {
            buf.push(e);
            if buf.len() == cap {
                self.buffer_full = true;
            }
            return;
        }
        // Active full: swap to the other buffer if it has room.
        let other = 1 - self.active;
        if self.buffers[other].len() < cap {
            self.active = other;
            self.buffers[other].push(e);
            self.buffer_full = true;
        } else {
            self.stats.dropped += e.count;
            let pc = e.sample.pc.0;
            self.obs
                .event_at(Component::Driver, "driver.drop", at_cycle, e.count, pc);
        }
    }

    /// Handles one performance-counter interrupt; returns the cycles the
    /// handler consumed. Stamps probes with the obs cycle clock — callers
    /// that know the delivery cycle should use [`CpuDriver::record_at`].
    pub fn record(&mut self, sample: Sample) -> u64 {
        let cycle = self.obs.cycle();
        self.record_at(sample, cycle)
    }

    /// Handles one performance-counter interrupt delivered at `at_cycle`;
    /// returns the cycles the handler consumed.
    pub fn record_at(&mut self, sample: Sample, at_cycle: u64) -> u64 {
        self.stats.interrupts += 1;
        let cost;
        if self.flushing {
            // §4.2.3: while the hash table is being flushed, the handler
            // writes the sample directly into the overflow buffer.
            self.push_overflow(SampleEntry::once(sample), at_cycle);
            self.stats.flush_bypass += 1;
            cost = self.cost.setup + self.cost.hit;
            self.stats.handler_cycles += cost;
            self.obs
                .event_at(Component::Driver, "driver.irq", at_cycle, cost, sample.pc.0);
            return cost;
        }
        let assoc = self.cfg.associativity;
        let base = self.bucket_of(&sample) * assoc;
        let line = &mut self.table[base..base + assoc];
        if let Some(pos) = line
            .iter()
            .position(|e| e.as_ref().is_some_and(|e| e.sample == sample))
        {
            match self.cfg.policy {
                EvictPolicy::ModCounter => {
                    line[pos].as_mut().expect("matched entry").count += 1;
                }
                EvictPolicy::SwapToFront => {
                    line[pos].as_mut().expect("matched entry").count += 1;
                    line.swap(0, pos);
                }
            }
            self.stats.hits += 1;
            cost = self.cost.setup + self.cost.hit;
        } else if let Some(pos) = line.iter().position(Option::is_none) {
            // Free slot: no eviction needed (still a miss path, minus the
            // overflow append; charge the hit cost plus a little).
            let entry = Entry { sample, count: 1 };
            match self.cfg.policy {
                EvictPolicy::ModCounter => line[pos] = Some(entry),
                EvictPolicy::SwapToFront => {
                    line[pos] = Some(entry);
                    line.swap(0, pos);
                }
            }
            self.stats.misses += 1;
            self.obs.event_at(
                Component::Driver,
                "driver.ht_insert",
                at_cycle,
                0, // no eviction
                sample.pc.0,
            );
            cost = self.cost.setup + (self.cost.hit + self.cost.miss) / 2;
        } else {
            // Eviction.
            let victim_pos = match self.cfg.policy {
                EvictPolicy::ModCounter => {
                    let p = self.evict_counter % assoc;
                    self.evict_counter = self.evict_counter.wrapping_add(1);
                    p
                }
                EvictPolicy::SwapToFront => assoc - 1,
            };
            let victim = self.table[base + victim_pos].take().expect("full line");
            self.stats.spilled += victim.count;
            let (count, pc) = (victim.count, victim.sample.pc.0);
            self.obs
                .event_at(Component::Driver, "driver.spill", at_cycle, count, pc);
            self.obs.event_at(
                Component::Driver,
                "driver.ht_insert",
                at_cycle,
                1, // evicted a victim
                sample.pc.0,
            );
            self.push_overflow(
                SampleEntry {
                    sample: victim.sample,
                    count: victim.count,
                },
                at_cycle,
            );
            let entry = Entry { sample, count: 1 };
            let line = &mut self.table[base..base + assoc];
            match self.cfg.policy {
                EvictPolicy::ModCounter => line[victim_pos] = Some(entry),
                EvictPolicy::SwapToFront => {
                    line[victim_pos] = Some(entry);
                    line.rotate_right(1);
                }
            }
            self.stats.misses += 1;
            cost = self.cost.setup + self.cost.miss;
        }
        self.stats.handler_cycles += cost;
        self.obs
            .event_at(Component::Driver, "driver.irq", at_cycle, cost, sample.pc.0);
        cost
    }

    /// Opens the flush window (§4.2.3): raises the flag (modeling the
    /// IPI) and drains the hash table into the returned vector. While the
    /// window is open, [`CpuDriver::record`] bypasses the table and
    /// appends samples straight to the overflow buffers; close the window
    /// with [`CpuDriver::end_flush`]. Splitting the two halves makes the
    /// bypass window schedulable — fault-injection harnesses stretch it
    /// to verify no samples are lost however long the daemon dawdles.
    pub fn begin_flush(&mut self) -> Vec<SampleEntry> {
        self.flushing = true;
        let mut out = Vec::new();
        for e in self.table.iter_mut() {
            if let Some(e) = e.take() {
                out.push(SampleEntry {
                    sample: e.sample,
                    count: e.count,
                });
            }
        }
        out
    }

    /// Closes the flush window: drains both overflow buffers (catching
    /// everything that bypassed the table since [`CpuDriver::begin_flush`])
    /// and lowers the flag.
    pub fn end_flush(&mut self) -> Vec<SampleEntry> {
        let mut out = Vec::new();
        for buf in &mut self.buffers {
            out.append(buf);
        }
        self.buffer_full = false;
        self.flushing = false;
        out
    }

    /// True while a flush window opened by [`CpuDriver::begin_flush`] is
    /// still open.
    #[must_use]
    pub fn mid_flush(&self) -> bool {
        self.flushing
    }

    /// A complete flush (§4.2.3): the begin/end halves back to back —
    /// table first, then both overflow buffers, ending with the flag
    /// lowered.
    pub fn flush(&mut self) -> Vec<SampleEntry> {
        let mut out = self.begin_flush();
        out.extend(self.end_flush());
        out
    }

    /// Drains only full overflow buffers (the routine the daemon runs when
    /// signalled mid-epoch); the hash table keeps aggregating.
    pub fn drain_overflow(&mut self) -> Vec<SampleEntry> {
        let mut out = Vec::new();
        for buf in &mut self.buffers {
            out.append(buf);
        }
        self.buffer_full = false;
        out
    }

    /// Approximate non-pageable kernel memory consumed (bytes): table +
    /// two overflow buffers at 16 bytes per entry, as in §5.3's 512KB per
    /// processor for 16K+16K entries... (table entries are 16 bytes).
    #[must_use]
    pub fn kernel_memory_bytes(&self) -> u64 {
        ((self.table.len() + 2 * self.cfg.overflow_entries) * 16) as u64
    }
}

/// The machine-facing driver: one [`CpuDriver`] per processor, and
/// optionally the raw sample trace for the §5.4 hash-table sweep.
#[derive(Debug)]
pub struct Driver {
    /// Per-CPU driver state.
    pub per_cpu: Vec<CpuDriver>,
    /// Logged raw samples, in delivery order (at most `trace_limit`).
    pub trace: Vec<Sample>,
    /// Log up to this many raw samples into `trace` (0 = none); set from
    /// `SessionConfig::trace_limit`.
    pub(crate) trace_limit: usize,
}

impl Driver {
    /// Creates driver state for `cpus` processors.
    #[must_use]
    pub fn new(cpus: usize, cfg: DriverConfig, cost: CostModel) -> Driver {
        Driver {
            per_cpu: (0..cpus)
                .map(|_| CpuDriver::new(cfg.clone(), cost))
                .collect(),
            trace: Vec::new(),
            trace_limit: 0,
        }
    }

    /// Aggregate stats across CPUs.
    #[must_use]
    pub fn total_stats(&self) -> DriverStats {
        let mut t = DriverStats::default();
        for c in &self.per_cpu {
            t.merge(&c.stats);
        }
        t
    }

    /// Attaches an observability handle to every per-CPU instance.
    pub fn set_obs(&mut self, obs: &Obs) {
        for c in &mut self.per_cpu {
            c.obs = obs.clone();
        }
    }
}

impl SampleSink for Driver {
    fn counter_overflow(&mut self, cpu: CpuId, sample: Sample, at_cycle: u64) -> u64 {
        if self.trace.len() < self.trace_limit {
            self.trace.push(sample);
        }
        self.per_cpu[cpu.0 as usize].record_at(sample, at_cycle)
    }

    fn edge_sample(&mut self, cpu: CpuId, pid: Pid, pc: Addr, taken: bool) {
        self.per_cpu[cpu.0 as usize].record_edge(pid, pc, taken);
    }

    fn double_sample(&mut self, cpu: CpuId, pid: Pid, pc1: Addr, pc2: Addr) {
        self.per_cpu[cpu.0 as usize].record_path(pid, pc1, pc2);
    }

    fn stack_sample(&mut self, cpu: CpuId, pid: Pid, event: Event, frames: &[Addr]) {
        self.per_cpu[cpu.0 as usize].record_stack(pid, event, frames);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcpi_core::{Addr, Event, Pid};

    fn sample(pid: u32, pc: u64) -> Sample {
        Sample {
            pid: Pid(pid),
            pc: Addr(pc),
            event: Event::Cycles,
        }
    }

    fn tiny(policy: EvictPolicy) -> CpuDriver {
        CpuDriver::new(
            DriverConfig {
                buckets: 2,
                associativity: 4,
                overflow_entries: 16,
                policy,
                hash: HashKind::Multiplicative,
            },
            CostModel::default(),
        )
    }

    #[test]
    fn aggregation_counts_repeats() {
        let mut d = tiny(EvictPolicy::ModCounter);
        for _ in 0..100 {
            let _ = d.record(sample(1, 0x1000));
        }
        assert_eq!(d.stats.hits, 99);
        assert_eq!(d.stats.misses, 1);
        let out = d.flush();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].count, 100);
    }

    #[test]
    fn conservation_across_evictions() {
        // Samples in = samples out (counts preserved), whatever the
        // hashing and eviction pattern.
        let mut d = tiny(EvictPolicy::ModCounter);
        let mut total = 0u64;
        for i in 0..5000u64 {
            let _ = d.record(sample((i % 37) as u32, (i % 211) * 4));
            total += 1;
        }
        let drained: u64 = d.flush().iter().map(|e| e.count).sum();
        assert_eq!(drained + d.stats.dropped, total);
    }

    #[test]
    fn distinct_pids_thrash_the_table() {
        // The gcc effect (§5.1): samples with distinct PIDs do not match
        // in the hash table, raising the eviction rate.
        let mk = || {
            CpuDriver::new(
                DriverConfig {
                    buckets: 64,
                    associativity: 4,
                    overflow_entries: 1 << 20,
                    policy: EvictPolicy::ModCounter,
                    hash: HashKind::Multiplicative,
                },
                CostModel::default(),
            )
        };
        let mut same = mk();
        let mut distinct = mk();
        for i in 0..4000u64 {
            let _ = same.record(sample(1, (i % 8) * 4));
            let _ = distinct.record(sample((i / 8) as u32, (i % 8) * 4));
        }
        assert!(
            distinct.stats.miss_rate() > same.stats.miss_rate() * 3.0,
            "distinct {} vs same {}",
            distinct.stats.miss_rate(),
            same.stats.miss_rate()
        );
    }

    #[test]
    fn miss_cost_exceeds_hit_cost() {
        let mut d = tiny(EvictPolicy::ModCounter);
        let c_miss = d.record(sample(1, 0));
        let c_hit = d.record(sample(1, 0));
        assert!(c_miss > c_hit);
        assert_eq!(d.stats.avg_cost(), (c_miss + c_hit) as f64 / 2.0);
    }

    #[test]
    fn overflow_buffer_pair_swaps_and_signals() {
        let mut d = tiny(EvictPolicy::ModCounter);
        // Tiny buffers: 16 entries each. Force lots of evictions with
        // unique keys.
        let mut i = 0u64;
        while !d.buffer_full {
            let _ = d.record(sample(9, i * 4));
            i += 1;
            assert!(i < 100_000, "buffer never filled");
        }
        assert!(d.buffer_full);
        let drained = d.drain_overflow();
        assert_eq!(drained.len(), 16);
        assert!(!d.buffer_full);
    }

    #[test]
    fn drops_only_when_both_buffers_full() {
        let mut d = tiny(EvictPolicy::ModCounter);
        for i in 0..100_000u64 {
            let _ = d.record(sample(9, i * 4));
        }
        // 2 buffers × 16 plus the table capacity absorbed some; the rest
        // dropped.
        assert!(d.stats.dropped > 0);
        let held: u64 = d.flush().iter().map(|e| e.count).sum();
        assert_eq!(held + d.stats.dropped, 100_000);
    }

    #[test]
    fn flush_bypass_during_flush_flag() {
        let mut d = tiny(EvictPolicy::ModCounter);
        let _ = d.record(sample(1, 0));
        d.flushing = true;
        let _ = d.record(sample(1, 0));
        assert_eq!(d.stats.flush_bypass, 1);
        d.flushing = false;
        // The bypassed sample sits in the overflow buffer.
        let out = d.drain_overflow();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].count, 1);
    }

    #[test]
    fn split_flush_window_catches_bypassed_samples() {
        let mut d = tiny(EvictPolicy::ModCounter);
        let _ = d.record(sample(1, 0x100));
        let _ = d.record(sample(1, 0x100));
        let table_part = d.begin_flush();
        assert!(d.mid_flush());
        assert_eq!(table_part.iter().map(|e| e.count).sum::<u64>(), 2);
        // Interrupts that land while the window is open bypass the table.
        let _ = d.record(sample(2, 0x200));
        let _ = d.record(sample(2, 0x204));
        assert_eq!(d.stats.flush_bypass, 2);
        let buffer_part = d.end_flush();
        assert!(!d.mid_flush());
        assert_eq!(buffer_part.iter().map(|e| e.count).sum::<u64>(), 2);
        // Nothing left behind, and nothing dropped.
        assert!(d.flush().is_empty());
        assert_eq!(d.stats.dropped, 0);
    }

    #[test]
    fn swap_to_front_keeps_hot_entries() {
        // With swap-to-front, a hot key stays resident while a stream of
        // cold keys cycles through the line; with mod-counter the hot key
        // is eventually evicted. Use one bucket to force conflicts.
        let run = |policy| {
            let mut d = CpuDriver::new(
                DriverConfig {
                    buckets: 1,
                    associativity: 4,
                    overflow_entries: 1024,
                    policy,
                    hash: HashKind::Multiplicative,
                },
                CostModel::default(),
            );
            let mut hot_misses = 0;
            for i in 0..2000u64 {
                // Hot key every other access; cold unique keys between.
                let before = d.stats.misses;
                let _ = d.record(sample(1, 0x4000));
                if d.stats.misses > before {
                    hot_misses += 1;
                }
                let _ = d.record(sample(1, 0x8000 + i * 4));
            }
            hot_misses
        };
        let mc = run(EvictPolicy::ModCounter);
        let sf = run(EvictPolicy::SwapToFront);
        assert!(
            sf < mc,
            "swap-to-front ({sf}) should miss less on the hot key than mod-counter ({mc})"
        );
        assert_eq!(sf, 1, "hot key misses only on first touch");
    }

    #[test]
    fn six_way_beats_four_way_under_conflict() {
        // §5.4: increasing associativity 4 → 6 reduces overall cost.
        let run = |assoc: usize| {
            let mut d = CpuDriver::new(
                DriverConfig {
                    buckets: 1,
                    associativity: assoc,
                    overflow_entries: 4096,
                    policy: EvictPolicy::ModCounter,
                    hash: HashKind::Multiplicative,
                },
                CostModel::default(),
            );
            // Working set of 5 keys: fits in 6 ways, thrashes 4.
            for i in 0..5000u64 {
                let _ = d.record(sample(1, (i % 5) * 4));
            }
            d.stats.miss_rate()
        };
        assert!(run(6) < run(4) / 10.0);
    }

    #[test]
    fn driver_is_a_sample_sink() {
        let mut drv = Driver::new(2, DriverConfig::default(), CostModel::default());
        let c = drv.counter_overflow(CpuId(1), sample(5, 0x100), 42);
        assert!(c > 0);
        assert_eq!(drv.per_cpu[1].stats.interrupts, 1);
        assert_eq!(drv.per_cpu[0].stats.interrupts, 0);
    }

    #[test]
    fn stack_recording_aggregates_and_drains_sorted() {
        let mut d = tiny(EvictPolicy::ModCounter);
        // Frames arrive leaf-first from the walker.
        let deep = [Addr(0x100), Addr(0x204), Addr(0x304)];
        let shallow = [Addr(0x100), Addr(0x304)];
        for _ in 0..3 {
            d.record_stack(Pid(1), Event::Cycles, &deep);
        }
        d.record_stack(Pid(1), Event::Cycles, &shallow);
        d.record_stack(Pid(2), Event::Cycles, &shallow);
        let out = d.drain_stacks();
        assert_eq!(out.len(), 3);
        assert!(out.windows(2).all(|w| w[0] <= w[1]), "drain must sort");
        assert_eq!(out.iter().map(|s| s.count).sum::<u64>(), 5);
        // Expansion is outermost-first: the walker's leaf-first order
        // reversed.
        let deep_out = out
            .iter()
            .find(|s| s.count == 3)
            .expect("aggregated deep stack");
        assert_eq!(deep_out.frames, vec![0x304, 0x204, 0x100]);
        // Counts drained, table retained: re-recording reuses warm IDs
        // without growing the table.
        let len = d.stack_table.len();
        d.record_stack(Pid(1), Event::Cycles, &deep);
        assert_eq!(d.stack_table.len(), len);
        assert_eq!(d.drain_stacks().len(), 1);
    }

    #[test]
    fn driver_sink_routes_stacks_per_cpu() {
        let mut drv = Driver::new(2, DriverConfig::default(), CostModel::default());
        drv.stack_sample(CpuId(1), Pid(7), Event::Cycles, &[Addr(0x40)]);
        assert!(drv.per_cpu[0].stack_counts.is_empty());
        assert_eq!(drv.per_cpu[1].stack_counts.len(), 1);
    }

    #[test]
    fn kernel_memory_matches_paper_figure() {
        // §5.3: 16K table entries + 2 × 8K buffer entries at 16 bytes =
        // 512KB per processor.
        let d = CpuDriver::new(DriverConfig::default(), CostModel::default());
        assert_eq!(d.kernel_memory_bytes(), 512 * 1024);
    }

    #[test]
    fn hash_kinds_differ_in_distribution() {
        // XorFold degenerates on strided PCs with equal PIDs, producing
        // more conflicts than multiplicative hashing.
        let run = |hash| {
            let mut d = CpuDriver::new(
                DriverConfig {
                    buckets: 64,
                    associativity: 4,
                    overflow_entries: 65536,
                    policy: EvictPolicy::ModCounter,
                    hash,
                },
                CostModel::default(),
            );
            for i in 0..20_000u64 {
                let _ = d.record(sample(1, (i % 600) * 4096));
            }
            d.stats.miss_rate()
        };
        assert!(run(HashKind::Multiplicative) <= run(HashKind::XorFold));
    }
}
