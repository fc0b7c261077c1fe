//! Per-CPU state and interrupt delivery.
//!
//! The simulator advances one *issue group* (one or two instructions) at a
//! time rather than one cycle at a time, which is exact for an in-order
//! machine where all stalls happen at the head of the issue queue: the
//! head instruction's issue cycle is the maximum of its constraints, and
//! everything between the previous issue and its own is, by definition,
//! time it spent at the head (§4.1.2). Performance-counter overflows are
//! resolved against these head intervals, so a CYCLES sample lands on
//! exactly the instruction that was at the head of the issue queue when
//! the (skidded) interrupt was delivered — the property the paper's
//! analysis depends on.
//!
//! The code that issues, times, executes and retires a group is the
//! micro-op walker in [`crate::dispatch`], and only that. This module
//! holds what the walker works on: the processor state ([`CpuState`]),
//! the installed process with its mapping and translated-page caches
//! ([`RunningProc`]),
//! the interrupt handler's interface ([`SampleSink`]), and `deliver_due`,
//! which hands due overflows to the sink at the end of a group.

use crate::branch::BranchPredictor;
use crate::cache::Cache;
use crate::config::MachineConfig;
use crate::counters::{CounterSet, Overflow};
use crate::dispatch::DispatchStats;
use crate::os::Os;
use crate::proc::{PageMemo, Process};
use crate::tlb::Tlb;
use dcpi_core::{Addr, CpuId, Event, ImageId, Pid, Sample};
use dcpi_isa::reg::Reg;
use dcpi_isa::uop::Uop;
use dcpi_obs::{Component, Obs};
use std::collections::VecDeque;
use std::sync::Arc;

/// Cycles charged for the kernel side of a `call_pal syscall`.
pub(crate) const SYSCALL_COST: u64 = 600;

/// Receives performance-counter overflow samples (the role of the device
/// driver's interrupt handler). Returns the handler's cost in cycles,
/// which the CPU model charges to the interrupted execution — this is how
/// profiling overhead (Tables 3–4) arises in the simulation.
pub trait SampleSink {
    /// Called at interrupt delivery with the sampled context.
    fn counter_overflow(&mut self, cpu: CpuId, sample: Sample, at_cycle: u64) -> u64;

    /// Edge sample (the paper's §7 instruction-interpretation extension):
    /// the sampled instruction is a conditional branch and the handler
    /// interpreted it to learn whether it is about to be taken. Default:
    /// ignored.
    fn edge_sample(&mut self, cpu: CpuId, pid: Pid, pc: Addr, taken: bool) {
        let _ = (cpu, pid, pc, taken);
    }

    /// Double sample (the paper's §7 second proposal): two PCs along an
    /// execution path, captured by a second interrupt immediately after
    /// the first. `pc2` is the next PC executed after `pc1`'s group —
    /// for control transfers this resolves the dynamic target, including
    /// indirect jumps. Default: ignored.
    fn double_sample(&mut self, cpu: CpuId, pid: Pid, pc1: Addr, pc2: Addr) {
        let _ = (cpu, pid, pc1, pc2);
    }

    /// Calling-context sample (the ProfileMe-style extension): the call
    /// stack captured at delivery, leaf-first (`frames[0]` is the
    /// sampled PC, the rest are return addresses outward). Called once
    /// per delivered sample when [`MachineConfig::stack_walk`] is on;
    /// samples delivered in one batch share a single walk. Default:
    /// ignored.
    fn stack_sample(&mut self, cpu: CpuId, pid: Pid, event: Event, frames: &[Addr]) {
        let _ = (cpu, pid, event, frames);
    }
}

/// A sink that drops samples at zero cost (the `base` configuration).
#[derive(Debug, Default, Clone)]
pub struct NullSink;

impl SampleSink for NullSink {
    fn counter_overflow(&mut self, _cpu: CpuId, _sample: Sample, _at_cycle: u64) -> u64 {
        0
    }
}

/// Why a walk ended.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Outcome {
    /// Issue groups retired and the process goes on.
    Ran,
    /// The process executed `call_pal halt`.
    Halted,
    /// The process yielded the CPU.
    Yielded,
    /// The PC left all mapped, decoded text (the process is killed).
    Fault,
    /// No process is installed.
    NoProcess,
}

/// The running process plus per-process fast-path caches: a one-entry
/// mapping cache for fetch, and a small direct-mapped cache of translated
/// pages shared by fetch and data.
///
/// Invalidation contract: a process's `page_table` is insert-only
/// (`Os::translate` assigns a physical page on first touch and never
/// remaps), so a cached vpage→physical-base pair can only go stale across
/// a context switch — and `CpuState::install` constructs a fresh
/// `RunningProc`, which resets every cache. The caches only ever hold
/// pages that have already been translated, so first-touch physical-page
/// allocation order is unchanged and simulation results stay bit-identical.
#[derive(Debug)]
pub struct RunningProc {
    /// The process being executed.
    pub proc: Process,
    pub(crate) cur_base: u64,
    pub(crate) cur_end: u64,
    pub(crate) cur_image: ImageId,
    /// Precompiled handler chain of the current image (one micro-op per
    /// text word), which the dispatch walker executes.
    pub(crate) cur_uops: Arc<Vec<Uop>>,
    /// OS image epoch the caches above were refreshed at; a mismatch
    /// (image hot-swapped via `Os::replace_image`) forces a refresh so no
    /// stale handler chain ever executes.
    pub(crate) seen_epoch: u64,
    /// Physical base address of recently translated virtual pages.
    translated: PageMemo<u64>,
}

impl RunningProc {
    fn new(proc: Process) -> RunningProc {
        RunningProc {
            proc,
            cur_base: 1,
            cur_end: 0,
            cur_image: ImageId(u32::MAX),
            cur_uops: Arc::new(Vec::new()),
            seen_epoch: u64::MAX,
            translated: PageMemo::new(),
        }
    }

    /// Points the mapping cache (`cur_*`) at the mapping holding `pc`,
    /// refreshing it from the OS if needed; `None` if `pc` is unmapped.
    pub(crate) fn lookup(&mut self, os: &Os, pc: Addr) -> Option<()> {
        if pc.0 < self.cur_base || pc.0 >= self.cur_end || self.seen_epoch != os.epoch() {
            let m = self.proc.mapping_at(pc)?;
            let li = os.image(m.image)?;
            self.cur_base = m.base.0;
            self.cur_end = m.base.0 + m.size;
            self.cur_image = m.image;
            self.cur_uops = Arc::clone(&li.uops);
            self.seen_epoch = os.epoch();
        }
        Some(())
    }

    /// The physical base of `vaddr`'s page, through the translated-page
    /// cache, falling back to [`Os::translate`] (which assigns a physical
    /// page on first touch). Pages are a power of two
    /// (`Machine::with_kernel` asserts it): `page_bytes == 1 << shift`.
    #[inline]
    pub(crate) fn page_base(&mut self, os: &mut Os, vaddr: u64, shift: u32) -> u64 {
        let vpage = vaddr >> shift;
        if let Some(base) = self.translated.get(vpage) {
            return base;
        }
        let base = os.translate(&mut self.proc, vaddr) >> shift << shift;
        self.translated.put(vpage, base);
        base
    }

    /// The physical base of `vaddr`'s page if it is already translated,
    /// without translating it: a side-effect-free peek.
    pub(crate) fn peek_page_base(&self, vaddr: u64, shift: u32) -> Option<u64> {
        let vpage = vaddr >> shift;
        match self.translated.get(vpage) {
            Some(base) => Some(base),
            None => Some(self.proc.page_table.get(&vpage)? << shift),
        }
    }
}

/// All architectural and micro-architectural state of one processor.
#[derive(Debug)]
pub struct CpuState {
    /// This CPU's id.
    pub id: CpuId,
    /// Time of the last issued group (absolute cycles).
    pub prev_issue: u64,
    /// The CPU is busy (interrupt handler, context switch, PAL) until
    /// this cycle.
    pub resume_at: u64,
    /// Earliest cycle the next instruction can issue due to fetch
    /// redirects (branch mispredictions).
    pub fetch_ready: u64,
    pub(crate) ready: [u64; Reg::COUNT],
    pub(crate) imul_free: u64,
    pub(crate) fdiv_free: u64,
    pub(crate) wb: VecDeque<u64>,
    /// L1 instruction cache.
    pub icache: Cache,
    /// L1 data cache.
    pub dcache: Cache,
    /// Unified board cache.
    pub bcache: Cache,
    /// Instruction TLB.
    pub itb: Tlb,
    /// Data TLB.
    pub dtb: Tlb,
    /// Branch predictor.
    pub bp: BranchPredictor,
    /// Performance counters.
    pub counters: CounterSet,
    pub(crate) pending: Vec<(u64, Event)>,
    pub(crate) overflow_scratch: Vec<Overflow>,
    /// Armed second-sample state: `(pid, pc1)` captured at the last
    /// delivery, resolved against the next executed PC.
    pub(crate) double_armed: Option<(Pid, Addr)>,
    double_countdown: u32,
    /// The installed process, if any.
    pub current: Option<RunningProc>,
    /// Cycle at which the current timeslice expires.
    pub slice_end: u64,
    /// Total samples delivered to the sink.
    pub samples_taken: u64,
    /// Total cycles consumed by the interrupt handler (profiling
    /// overhead).
    pub handler_cycles: u64,
    /// Processes installed on this CPU (context switches).
    pub ctx_switches: u64,
    /// Cycles of `handler_cycles` spent walking call stacks (the
    /// calling-context extension's share of the overhead).
    pub walk_cycles: u64,
    /// Reusable frame buffer for the stack walker (capacity persists, so
    /// a warm walk allocates nothing).
    pub(crate) walk_scratch: Vec<Addr>,
    /// Instructions retired.
    pub insns_retired: u64,
    /// Issue groups where two instructions dual-issued.
    pub dual_issues: u64,
    /// Dispatch-path accounting (groups per walk shape, walks entered).
    /// Pure telemetry: never read by the simulation itself.
    pub dstats: DispatchStats,
    /// Observability handle (disabled by default: every probe is a single
    /// `AtomicBool` load + branch, off the per-group path entirely).
    pub obs: Obs,
}

impl CpuState {
    /// Builds a CPU from the machine configuration.
    #[must_use]
    pub fn new(id: CpuId, cfg: &MachineConfig) -> CpuState {
        CpuState {
            id,
            prev_issue: 0,
            resume_at: 0,
            fetch_ready: 0,
            ready: [0; Reg::COUNT],
            imul_free: 0,
            fdiv_free: 0,
            wb: VecDeque::with_capacity(cfg.model.write_buffer_entries),
            icache: Cache::new(cfg.icache.size, cfg.icache.line, cfg.icache.ways),
            dcache: Cache::new(cfg.dcache.size, cfg.dcache.line, cfg.dcache.ways),
            bcache: Cache::new(cfg.bcache.size, cfg.bcache.line, cfg.bcache.ways),
            itb: Tlb::new(cfg.itb_entries),
            dtb: Tlb::new(cfg.dtb_entries),
            bp: BranchPredictor::new(cfg.bp_entries),
            counters: CounterSet::new(
                cfg.counters.clone(),
                cfg.seed.wrapping_add(id.0).wrapping_mul(2654435761).max(1),
                0,
            ),
            pending: Vec::new(),
            overflow_scratch: Vec::new(),
            double_armed: None,
            double_countdown: cfg.double_sample_every,
            current: None,
            slice_end: 0,
            samples_taken: 0,
            handler_cycles: 0,
            ctx_switches: 0,
            walk_cycles: 0,
            walk_scratch: Vec::new(),
            insns_retired: 0,
            dual_issues: 0,
            dstats: DispatchStats::default(),
            obs: Obs::disabled(),
        }
    }

    /// Current time: the later of the last issue and any busy period.
    #[must_use]
    pub fn now(&self) -> u64 {
        self.prev_issue.max(self.resume_at)
    }

    /// Installs a process, charging the context-switch cost and flushing
    /// the TLBs (caches stay warm, as on real hardware).
    pub fn install(&mut self, proc: Process, cfg: &MachineConfig) {
        debug_assert!(self.current.is_none(), "CPU already busy");
        let now = self.now() + cfg.ctx_switch_cost;
        self.resume_at = self.resume_at.max(now);
        self.itb.flush();
        self.dtb.flush();
        let base = self.now();
        self.ready = [base; Reg::COUNT];
        self.imul_free = self.imul_free.max(base);
        self.fdiv_free = self.fdiv_free.max(base);
        self.fetch_ready = base;
        self.slice_end = base + cfg.timeslice;
        self.ctx_switches += 1;
        self.obs.event_at(
            Component::Machine,
            "machine.ctx_switch",
            base,
            u64::from(proc.pid.0),
            cfg.ctx_switch_cost,
        );
        self.current = Some(RunningProc::new(proc));
    }

    /// Removes the current process (for rescheduling or exit).
    pub fn deschedule(&mut self) -> Option<Process> {
        self.current.take().map(|r| r.proc)
    }

    /// True once the timeslice has expired.
    #[must_use]
    pub fn slice_expired(&self) -> bool {
        self.now() >= self.slice_end
    }
}

/// Delivers pending interrupts due by `issue`, attributing the sample to
/// the instruction currently at the head of the issue queue (`head_pc`).
/// With [`MachineConfig::stack_walk`] on, the first delivery in the
/// batch also walks the interrupted call stack (one walk, charged once,
/// shared by every sample in the batch).
///
/// Kept out of line: a group with a delivery due is rare, and the
/// walker's loop is measurably faster without this body inlined into it.
#[inline(never)]
#[allow(clippy::too_many_arguments)]
pub(crate) fn deliver_due<S: SampleSink>(
    cpu: &mut CpuState,
    sink: &mut S,
    run: &RunningProc,
    os: &Os,
    cfg: &MachineConfig,
    head_pc: Addr,
    pid: Pid,
    issue: u64,
    head_taken: Option<bool>,
) {
    let double_every = cfg.double_sample_every;
    let mut walked = false;
    let mut i = 0;
    while i < cpu.pending.len() {
        let (deliver_at, event) = cpu.pending[i];
        if deliver_at <= issue {
            cpu.pending.swap_remove(i);
            let sample = Sample {
                pid,
                pc: head_pc,
                event,
            };
            let mut cost = sink.counter_overflow(cpu.id, sample, deliver_at);
            if cfg.stack_walk {
                if !walked {
                    walked = true;
                    let mut scratch = std::mem::take(&mut cpu.walk_scratch);
                    let words = crate::stackwalk::walk(&run.proc, os, head_pc, cfg, &mut scratch);
                    let wcost = crate::stackwalk::walk_cost(words, scratch.len());
                    cpu.walk_cycles += wcost;
                    cost += wcost;
                    cpu.walk_scratch = scratch;
                }
                sink.stack_sample(cpu.id, pid, event, &cpu.walk_scratch);
            }
            if let Some(taken) = head_taken {
                sink.edge_sample(cpu.id, pid, head_pc, taken);
            }
            if double_every > 0 {
                cpu.double_countdown = cpu.double_countdown.saturating_sub(1);
                if cpu.double_countdown == 0 {
                    cpu.double_countdown = double_every;
                    // The second interrupt fires as soon as the handler
                    // returns; the next executed PC closes the pair.
                    cpu.double_armed = Some((pid, head_pc));
                }
            }
            cpu.samples_taken += 1;
            cpu.handler_cycles += cost;
            cpu.obs.event_at(
                Component::Machine,
                "machine.sample",
                deliver_at,
                cost,
                head_pc.0,
            );
            cpu.resume_at = cpu.resume_at.max(issue) + cost;
        } else {
            i += 1;
        }
    }
}
