//! The issue-group walker: the one piece of code that issues, times,
//! executes and retires instructions.
//!
//! [`chain_step`] walks the current image's precompiled handler chain
//! ([`Uop`] array, built at `register_image`) one issue group after
//! another for as long as execution stays inside one mapping and the outer
//! machine loop has no reason to regain control. Both dispatch modes are
//! this walker. Under [`DispatchMode::Superblock`] a walk runs until a
//! boundary; under [`DispatchMode::Classic`] it is held to one group.
//!
//! On top of the pre-decoded operands the walk layers *memoized* fast
//! paths for the memory-system model:
//!
//! * **I-TLB / I-cache per block**: straight-line runs stay on one page
//!   and usually one line; the walk memoizes the last page/line accessed
//!   and proves the next access hits at MRU position, so the model's
//!   `access` (a linear probe plus an LRU rotate that is a no-op at MRU)
//!   collapses to a single counter bump ([`Tlb::hit_mru`],
//!   [`Cache::hit_mru`]). The memo is *walk-local* — it starts cold at
//!   every walk entry, so a one-group walk performs the full probe for
//!   every access.
//! * **D-TLB / D-cache coalescing**: the same memo trick for data.
//! * **Translation**: a memoized page also keeps its physical base, so a
//!   same-page access translates with an add; a page change asks the
//!   running process's cache of translated pages, and only a page never
//!   translated before reaches `Os::translate` (page math is shift/mask:
//!   pages are a power of two, `Machine::with_kernel` asserts it).
//!
//! Nothing else on the per-group path hashes or re-derives: dual issue's
//! static half is the senior's compiled [`Uop::pairs`] bit, so a group
//! tests only whether operands, units, fetch and memory are ready; ground
//! truth goes into the image's dense per-word slots
//! ([`GroundTruth`]), detached for the walk; process memory is reached
//! through the process's page memo.
//!
//! **Boundaries.** A walk ends exactly where the outer machine loop has
//! something to decide: when `now()` reaches the run target or the
//! timeslice end, when the PC leaves the current mapping, when a double
//! sample arms (the next walk's entry resolves it against its first PC),
//! and at `call_pal halt` / `yield`. `call_pal` is an ordinary group that
//! never pairs; `syscall` adds the kernel's time to the busy period before
//! the boundary test and `noop` does nothing.
//!
//! **Exactness contract.** There is one group body, so the two modes can
//! differ in two things only, and each has its own check:
//!
//! * *memoized `hit_mru` vs the full probe* — a memoized access must leave
//!   the cache or TLB exactly as `access` would. `hit_mru` debug-asserts
//!   its precondition (the entry is present at MRU position), so every
//!   test run in a debug build checks every memoized access;
//! * *where walks end* — counter overflows are collected and delivered
//!   once per group in both modes, so a boundary moves no sample; what it
//!   could move is when the machine loop reschedules. The dispatch-parity
//!   suite (`crates/workloads/tests/dispatch_parity.rs`) compares the two
//!   modes on every workload and holds both to fingerprints recorded from
//!   the instruction-level interpreter this walker replaced; `stale_chain`
//!   and the machine unit tests compare them on hot-swaps and PAL calls.
//!
//! [`Uop`]: dcpi_isa::uop::Uop
//! [`Tlb::hit_mru`]: crate::tlb::Tlb::hit_mru
//! [`Cache::hit_mru`]: crate::cache::Cache::hit_mru

use crate::cache::Probe;
use crate::config::{DispatchMode, MachineConfig};
use crate::cpu::{deliver_due, CpuState, Outcome, RunningProc, SampleSink, SYSCALL_COST};
use crate::os::Os;
use crate::stats::{GroundTruth, ImageTruth};
use dcpi_core::{Addr, Event};
use dcpi_isa::insn::PalFunc;
use dcpi_isa::pipeline::InsnClass;
use dcpi_isa::uop::{Uop, UopKind, NO_WRITE};
use std::sync::Arc;

/// Dispatch-path accounting, printed by `experiments report` (fallback
/// rate = `classic_groups / (classic_groups + chain_groups)`).
#[derive(Clone, Copy, Debug, Default)]
pub struct DispatchStats {
    /// Issue groups retired by one-group walks ([`DispatchMode::Classic`]);
    /// 0 under `Superblock`.
    pub classic_groups: u64,
    /// Issue groups retired inside superblock walks.
    pub chain_groups: u64,
    /// Superblock walks that retired at least one group.
    pub chain_entries: u64,
}

impl DispatchStats {
    /// Fraction of issue groups retired by one-group walks.
    #[must_use]
    pub fn fallback_rate(&self) -> f64 {
        let total = self.classic_groups + self.chain_groups;
        if total == 0 {
            0.0
        } else {
            self.classic_groups as f64 / total as f64
        }
    }

    /// Accumulates another CPU's accounting.
    pub fn merge(&mut self, other: &DispatchStats) {
        self.classic_groups += other.classic_groups;
        self.chain_groups += other.chain_groups;
        self.chain_entries += other.chain_entries;
    }
}

/// Derived shift/mask geometry, computed once per walk.
#[derive(Clone, Copy)]
struct Geom {
    page_shift: u32,
    page_mask: u64,
    iline_shift: u32,
    dline_shift: u32,
}

/// Walk-local memos: the last page/line accessed in each structure this
/// walk, and the physical base of each memoized page. `u64::MAX` = cold
/// (no physical line or vpage reaches it).
struct Memo {
    ivpage: u64,
    ipbase: u64,
    iline: u64,
    dvpage: u64,
    dpbase: u64,
    dline: u64,
}

/// Executes issue groups on `cpu` along the precompiled handler chain
/// until a boundary (see module docs) — one group under
/// [`DispatchMode::Classic`]. `target` is the clock reading at which the
/// outer machine loop wants control back.
pub fn chain_step<S: SampleSink>(
    cpu: &mut CpuState,
    os: &mut Os,
    gt: &mut GroundTruth,
    sink: &mut S,
    cfg: &MachineConfig,
    target: u64,
) -> Outcome {
    // Detach the running process so `cpu` and `run` can be borrowed
    // independently by the helpers below.
    let Some(mut run) = cpu.current.take() else {
        return Outcome::NoProcess;
    };
    let outcome = chain_inner(cpu, &mut run, os, gt, sink, cfg, target);
    cpu.current = Some(run);
    outcome
}

#[allow(clippy::too_many_lines)]
fn chain_inner<S: SampleSink>(
    cpu: &mut CpuState,
    run: &mut RunningProc,
    os: &mut Os,
    gt: &mut GroundTruth,
    sink: &mut S,
    cfg: &MachineConfig,
    target: u64,
) -> Outcome {
    // Resolve an armed double sample: this PC is the next one executed
    // after the delivery that armed it (§7), mapped or not. A walk ends at
    // the group that arms one, so entry is the only place one is pending.
    if let Some((dpid, pc1)) = cpu.double_armed.take() {
        if dpid == run.proc.pid {
            sink.double_sample(cpu.id, dpid, pc1, run.proc.pc);
        }
    }
    if run.lookup(os, run.proc.pc).is_none() {
        return Outcome::Fault;
    }
    // The mapping cannot change mid-walk (the walk breaks when the PC
    // leaves it), so these stay valid for the whole chain.
    let ops = Arc::clone(&run.cur_uops);
    let cur_base = run.cur_base;
    let cur_end = run.cur_end;
    let image = run.cur_image;
    let geom = Geom {
        page_shift: cfg.page_bytes.trailing_zeros(),
        page_mask: cfg.page_bytes - 1,
        iline_shift: cfg.icache.line.trailing_zeros(),
        dline_shift: cfg.dcache.line.trailing_zeros(),
    };
    let mut memo = Memo {
        ivpage: u64::MAX,
        ipbase: 0,
        iline: u64::MAX,
        dvpage: u64::MAX,
        dpbase: 0,
        dline: u64::MAX,
    };
    let model = &cfg.model;
    let one_group = cfg.dispatch == DispatchMode::Classic;
    // Detach the image's ground-truth counts and edges for direct
    // updates; the single exit below reattaches them.
    let mut truth = gt.take(image);
    let mut executed = 0u64;
    let outcome = loop {
        let pc = run.proc.pc;
        let w = ((pc.0 - cur_base) >> 2) as usize;
        // Mappings are created with the text's exact size, so a mapped PC
        // without a micro-op means the text was swapped for a shorter one.
        let Some(op) = ops.get(w) else {
            break Outcome::Fault;
        };
        let head_base0 = (cpu.prev_issue + 1).max(cpu.resume_at).max(cpu.fetch_ready);

        // --- instruction fetch: ITB and I-cache (memoized) ---------------
        let mut fetch_pen = 0;
        let ivpage = pc.0 >> geom.page_shift;
        if ivpage == memo.ivpage {
            cpu.itb.hit_mru(ivpage);
        } else {
            if !cpu.itb.access(ivpage) {
                fetch_pen += model.itb_miss_penalty;
                if let Some(o) = cpu.counters.count(Event::ItbMiss, head_base0) {
                    cpu.overflow_scratch.push(o);
                }
            }
            // Hit or fill, the page is now the MRU entry.
            memo.ivpage = ivpage;
            memo.ipbase = run.page_base(os, pc.0, geom.page_shift);
        }
        let ipaddr = memo.ipbase + (pc.0 & geom.page_mask);
        let iline = ipaddr >> geom.iline_shift;
        if iline == memo.iline {
            cpu.icache.hit_mru(ipaddr);
        } else {
            if cpu.icache.access(ipaddr) == Probe::Miss {
                if let Some(o) = cpu.counters.count(Event::IMiss, head_base0) {
                    cpu.overflow_scratch.push(o);
                }
                fetch_pen += if cpu.bcache.access(ipaddr) == Probe::Hit {
                    model.icache_miss_penalty
                } else {
                    model.icache_memory_penalty
                };
            }
            memo.iline = iline;
        }
        let head_base = head_base0 + fetch_pen;

        // --- senior issue time -------------------------------------------
        let mut issue = head_base;
        if op.nreads >= 1 {
            issue = issue.max(cpu.ready[op.r0 as usize]);
        }
        if op.nreads >= 2 {
            issue = issue.max(cpu.ready[op.r1 as usize]);
        }
        if op.w != NO_WRITE {
            issue = issue.max(cpu.ready[op.w as usize]);
        }
        match op.class {
            InsnClass::IntMul => issue = issue.max(cpu.imul_free),
            InsnClass::FpDiv => issue = issue.max(cpu.fdiv_free),
            _ => {}
        }
        if op.is_memory() {
            issue = uop_mem_timing(cpu, os, run, op, issue, cfg, true, geom, &mut memo);
        }

        // --- senior semantics --------------------------------------------
        let jump = exec_uop(&mut run.proc, op, pc);
        if !op.is_load() && op.w != NO_WRITE {
            cpu.ready[op.w as usize] = issue + op.result_latency;
        }
        match op.class {
            InsnClass::IntMul => cpu.imul_free = issue + model.imul_busy,
            InsnClass::FpDiv => cpu.fdiv_free = issue + model.fdiv_busy,
            _ => {}
        }
        truth.count(w);
        cpu.insns_retired += 1;

        let mut new_pc = jump.unwrap_or_else(|| pc.next());
        resolve_control_uop(
            cpu, run, op, pc, jump, new_pc, w as u32, issue, cfg, &mut truth,
        );

        // --- junior: aligned-pair dual issue -----------------------------
        // The junior is the next micro-op of this chain or nobody:
        // mapping bases are 8-byte aligned (`Process::map_image` asserts
        // it), so an even-slot senior's junior, at `4 mod 8`, can never be
        // the first word of another mapping. `pairs()` is the static half
        // of the test, compiled in; it implies a next micro-op exists and
        // that the senior is no control transfer.
        if op.pairs() && pc.0 & 4 == 0 {
            debug_assert_eq!(new_pc, pc.next(), "non-control seniors fall through");
            let jop = &ops[w + 1];
            if try_pair_uop(cpu, run, jop, pc, issue, cfg, geom, &memo) {
                if jop.is_memory() {
                    let _ = uop_mem_timing(cpu, os, run, jop, issue, cfg, false, geom, &mut memo);
                }
                let jpc = new_pc;
                let jjump = exec_uop(&mut run.proc, jop, jpc);
                if !jop.is_load() && jop.w != NO_WRITE {
                    cpu.ready[jop.w as usize] = issue + jop.result_latency;
                }
                match jop.class {
                    InsnClass::IntMul => cpu.imul_free = issue + model.imul_busy,
                    InsnClass::FpDiv => cpu.fdiv_free = issue + model.fdiv_busy,
                    _ => {}
                }
                truth.count(w + 1);
                cpu.insns_retired += 1;
                cpu.dual_issues += 1;
                new_pc = jjump.unwrap_or_else(|| jpc.next());
                resolve_control_uop(
                    cpu,
                    run,
                    jop,
                    jpc,
                    jjump,
                    new_pc,
                    (w + 1) as u32,
                    issue,
                    cfg,
                    &mut truth,
                );
            }
        }

        let pid = run.proc.pid;
        run.proc.pc = new_pc;
        // Edge-sample interpretation (§7): samples attributed to a
        // conditional branch also learn its direction.
        let senior_taken = match op.kind {
            UopKind::Cond(_) => Some(jump.is_some()),
            _ => None,
        };

        // --- counters and sampling ---------------------------------------
        // Before the next CYCLES overflow / mux rotation, and with no
        // discrete overflows collected this group, the drain is a provable
        // no-op.
        if issue >= cpu.counters.next_event_cycle() || !cpu.overflow_scratch.is_empty() {
            let mut scratch = std::mem::take(&mut cpu.overflow_scratch);
            cpu.counters.advance_cycles(issue, &mut scratch);
            for o in scratch.drain(..) {
                cpu.pending
                    .push((o.at_cycle + model.interrupt_skid, o.event));
            }
            cpu.overflow_scratch = scratch;
        }
        if !cpu.pending.is_empty() {
            deliver_due(cpu, sink, run, os, cfg, pc, pid, issue, senior_taken);
        }
        cpu.prev_issue = issue;
        executed += 1;

        // `call_pal` took effect in nothing above; act on it now that its
        // group (and any delivery charged to it) has retired.
        match op.kind {
            UopKind::Pal(PalFunc::Halt) => break Outcome::Halted,
            UopKind::Pal(PalFunc::Yield) => break Outcome::Yielded,
            UopKind::Pal(PalFunc::Syscall) => {
                cpu.resume_at = cpu.resume_at.max(issue) + SYSCALL_COST;
            }
            _ => {}
        }

        // Boundaries where the outer machine loop must regain control.
        if one_group
            || cpu.double_armed.is_some()
            || new_pc.0 < cur_base
            || new_pc.0 >= cur_end
            || cpu.now() >= target
            || cpu.now() >= cpu.slice_end
        {
            break Outcome::Ran;
        }
    };
    gt.put(image, truth);
    if one_group {
        cpu.dstats.classic_groups += executed;
    } else {
        cpu.dstats.chain_groups += executed;
        cpu.dstats.chain_entries += u64::from(executed > 0);
    }
    outcome
}

/// Computes a memory micro-op's timing: DTB, D-cache/board-cache and
/// write-buffer effects, through the walk's D-TLB/D-cache memos. Returns
/// the (possibly delayed) issue cycle for seniors; for juniors
/// (`is_senior == false`) the issue cycle is fixed and only latencies and
/// events apply.
#[allow(clippy::too_many_arguments)]
fn uop_mem_timing(
    cpu: &mut CpuState,
    os: &mut Os,
    run: &mut RunningProc,
    op: &Uop,
    mut issue: u64,
    cfg: &MachineConfig,
    is_senior: bool,
    geom: Geom,
    memo: &mut Memo,
) -> u64 {
    let model = &cfg.model;
    let vaddr = run.proc.reg_i(op.b).wrapping_add(op.disp);
    let vpage = vaddr >> geom.page_shift;
    if vpage == memo.dvpage {
        cpu.dtb.hit_mru(vpage);
    } else {
        if !cpu.dtb.access(vpage) {
            // Counted at the pre-penalty issue cycle.
            if let Some(o) = cpu.counters.count(Event::DtbMiss, issue) {
                cpu.overflow_scratch.push(o);
            }
            if is_senior {
                // The fill trap stalls the pipeline at this instruction.
                issue += model.dtb_miss_penalty;
            }
        }
        memo.dvpage = vpage;
        memo.dpbase = run.page_base(os, vaddr, geom.page_shift);
    }
    let paddr = memo.dpbase + (vaddr & geom.page_mask);
    if op.is_load() {
        let dline = paddr >> geom.dline_shift;
        let extra = if dline == memo.dline {
            cpu.dcache.hit_mru(paddr);
            0
        } else {
            let e = if cpu.dcache.access(paddr) == Probe::Miss {
                if let Some(o) = cpu.counters.count(Event::DMiss, issue) {
                    cpu.overflow_scratch.push(o);
                }
                if cpu.bcache.access(paddr) == Probe::Hit {
                    model.bcache_latency
                } else {
                    model.memory_latency
                }
            } else {
                0
            };
            // Stores never touch the D-cache, so the last load's line
            // stays MRU across them.
            memo.dline = dline;
            e
        };
        if op.w != NO_WRITE {
            // Loads commit their latency here; the walk's commit step
            // skips them.
            cpu.ready[op.w as usize] = issue + model.load_latency + extra;
        }
    } else {
        // Store: consume a write-buffer entry; stall on overflow.
        while cpu.wb.front().is_some_and(|&t| t <= issue) {
            cpu.wb.pop_front();
        }
        if cpu.wb.len() >= model.write_buffer_entries {
            let head = cpu.wb.pop_front().expect("nonempty buffer");
            if is_senior {
                issue = issue.max(head);
            }
        }
        let retire_base = cpu.wb.back().copied().unwrap_or(issue).max(issue);
        cpu.wb.push_back(retire_base + model.write_retire_cycles);
    }
    issue
}

/// Decides whether the junior can dual-issue at `issue` — the dynamic
/// half of dual issue; the static half is the senior's compiled
/// [`Uop::pairs`]. The pure peeks are short-circuited by the walk memos
/// (the memoized page/line is provably present, so the probe's answer is
/// known without the scan).
#[allow(clippy::too_many_arguments)]
fn try_pair_uop(
    cpu: &CpuState,
    run: &RunningProc,
    jop: &Uop,
    pc: Addr,
    issue: u64,
    cfg: &MachineConfig,
    geom: Geom,
    memo: &Memo,
) -> bool {
    // Junior operands and destination must be ready.
    if jop.nreads >= 1 && cpu.ready[jop.r0 as usize] > issue {
        return false;
    }
    if jop.nreads >= 2 && cpu.ready[jop.r1 as usize] > issue {
        return false;
    }
    if jop.w != NO_WRITE && cpu.ready[jop.w as usize] > issue {
        return false;
    }
    match jop.class {
        InsnClass::IntMul if cpu.imul_free > issue => return false,
        InsnClass::FpDiv if cpu.fdiv_free > issue => return false,
        _ => {}
    }
    // Junior must already be fetchable without a miss (side-effect-free
    // peeks; if it would miss, it issues alone next group and pays there).
    let jpc = pc.next();
    let jvpage = jpc.0 >> geom.page_shift;
    let jpbase = if jvpage == memo.ivpage {
        // The senior's page, translated this group: the common case.
        memo.ipbase
    } else if cpu.itb.peek(jvpage) {
        match run.peek_page_base(jpc.0, geom.page_shift) {
            Some(base) => base,
            None => return false,
        }
    } else {
        return false;
    };
    let jpaddr = jpbase + (jpc.0 & geom.page_mask);
    if (jpaddr >> geom.iline_shift) != memo.iline && !cpu.icache.peek(jpaddr) {
        return false;
    }
    // Junior memory preconditions.
    if jop.is_memory() {
        let vaddr = run.proc.reg_i(jop.b).wrapping_add(jop.disp);
        if (vaddr >> geom.page_shift) != memo.dvpage && !cpu.dtb.peek(vaddr >> geom.page_shift) {
            return false;
        }
        if jop.is_store() {
            let occupied = cpu.wb.iter().filter(|&&t| t > issue).count();
            if occupied >= cfg.model.write_buffer_entries {
                return false;
            }
        }
    }
    true
}

/// Branch prediction effects and ground-truth edges, per micro-op kind.
/// `new_pc` is the edge target in every case: the jump target when taken,
/// the fall-through otherwise. An edge is recorded when its target lies in
/// the current mapping.
///
/// Inlined by force: left to itself the optimizer outlines it from the
/// walk's loop, which costs a call per group for the two sites.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn resolve_control_uop(
    cpu: &mut CpuState,
    run: &RunningProc,
    op: &Uop,
    pc: Addr,
    jump: Option<Addr>,
    new_pc: Addr,
    word: u32,
    issue: u64,
    cfg: &MachineConfig,
    truth: &mut ImageTruth,
) {
    let model = &cfg.model;
    let mispredicted = match op.kind {
        UopKind::Cond(_) => cpu.bp.cond_branch(pc, jump.is_some()),
        UopKind::Jmp => cpu.bp.indirect(pc, new_pc),
        UopKind::Br => false,
        _ => return,
    };
    if mispredicted {
        if let Some(o) = cpu.counters.count(Event::BranchMp, issue) {
            cpu.overflow_scratch.push(o);
        }
        cpu.fetch_ready = cpu.fetch_ready.max(issue + model.mispredict_penalty);
    }
    if new_pc.0 >= run.cur_base && new_pc.0 < run.cur_end {
        truth.edge(word, ((new_pc.0 - run.cur_base) >> 2) as u32);
    }
}

/// Architectural semantics of one micro-op. Returns the jump target for
/// taken control transfers, `None` for sequential flow. `call_pal`
/// changes no register or memory; the walk acts on its function after the
/// group retires.
#[inline(always)]
fn exec_uop(proc: &mut crate::proc::Process, op: &Uop, pc: Addr) -> Option<Addr> {
    match op.kind {
        UopKind::Lda | UopKind::Ldah => {
            if op.w != NO_WRITE {
                let v = proc.reg_i(op.b).wrapping_add(op.disp);
                proc.set_reg_i(op.w, v);
            }
            None
        }
        UopKind::Ldq | UopKind::Ldt => {
            if op.w != NO_WRITE {
                // Skipping the read for a zero destination is safe:
                // reads are pure (absent pages read 0).
                let addr = proc.reg_i(op.b).wrapping_add(op.disp) & !7;
                let v = proc.read_u64_fast(addr);
                proc.set_reg_i(op.w, v);
            }
            None
        }
        UopKind::Ldl => {
            if op.w != NO_WRITE {
                let addr = proc.reg_i(op.b).wrapping_add(op.disp) & !3;
                let v = proc.read_u32_sext_fast(addr);
                proc.set_reg_i(op.w, v);
            }
            None
        }
        UopKind::Stq | UopKind::Stt => {
            let addr = proc.reg_i(op.b).wrapping_add(op.disp) & !7;
            proc.write_u64(addr, proc.reg_i(op.a));
            None
        }
        UopKind::Stl => {
            let addr = proc.reg_i(op.b).wrapping_add(op.disp) & !3;
            proc.write_u32(addr, proc.reg_i(op.a) as u32);
            None
        }
        UopKind::Int(iop) => {
            let b = if op.is_lit() {
                u64::from(op.b)
            } else {
                proc.reg_i(op.b)
            };
            let v = iop.eval(proc.reg_i(op.a), b);
            if op.w != NO_WRITE {
                proc.set_reg_i(op.w, v);
            }
            None
        }
        UopKind::Fp(fop) => {
            let v = fop.eval(proc.reg_i(op.a), proc.reg_i(op.b));
            if op.w != NO_WRITE {
                proc.set_reg_i(op.w, v);
            }
            None
        }
        UopKind::Cond(cond) => {
            if cond.test(proc.reg_i(op.a)) {
                // `disp` is the pre-multiplied byte delta; wrapping add in
                // two's complement equals `Addr::offset_insns`.
                Some(Addr(pc.0.wrapping_add(op.disp)))
            } else {
                None
            }
        }
        UopKind::Br => {
            if op.w != NO_WRITE {
                proc.set_reg_i(op.w, pc.next().0);
            }
            Some(Addr(pc.0.wrapping_add(op.disp)))
        }
        UopKind::Jmp => {
            // Target reads `rb` *before* the return-address write, as in
            // the canonical semantics (`jmp ra, (ra)` must work).
            let target = proc.reg_i(op.b) & !3;
            if op.w != NO_WRITE {
                proc.set_reg_i(op.w, pc.next().0);
            }
            Some(Addr(target))
        }
        UopKind::Pal(_) => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proc::Process;
    use dcpi_core::prng::CartaRng;
    use dcpi_core::Pid;
    use dcpi_isa::encode::{decode, encode};
    use dcpi_isa::insn::{BrCond, FpOp, Instruction, IntOp, RegOrLit};
    use dcpi_isa::meta::side_table;
    use dcpi_isa::pipeline::PipelineModel;
    use dcpi_isa::reg::Reg;
    use dcpi_isa::uop::compile_uops;

    /// What an instruction decided about control, in the reference's terms.
    #[derive(Debug, PartialEq)]
    enum Next {
        Seq,
        Jump(Addr),
        Halt,
        Yield,
        Syscall,
    }

    /// Reference semantics, straight off the `Instruction` enum: the
    /// architectural half of the instruction-level interpreter the walker
    /// replaced, kept as the oracle [`exec_uop`] is tested against. It goes
    /// through the guarded `Process::reg`/`set_reg` and the memo-less
    /// `read_u64`, so it shares nothing with the micro-op path but the
    /// operation tables (`IntOp::eval` and friends).
    fn exec_semantics(proc: &mut Process, insn: &Instruction, pc: Addr) -> Next {
        let ldl = |proc: &Process, addr: u64| {
            let q = proc.read_u64(addr & !7);
            let half = if addr & 4 != 0 { q >> 32 } else { q } as u32;
            half as i32 as i64 as u64
        };
        match *insn {
            Instruction::Lda { ra, rb, disp } => {
                let v = proc.reg(rb).wrapping_add(disp as i64 as u64);
                proc.set_reg(ra, v);
                Next::Seq
            }
            Instruction::Ldah { ra, rb, disp } => {
                let v = proc.reg(rb).wrapping_add(((disp as i64) << 16) as u64);
                proc.set_reg(ra, v);
                Next::Seq
            }
            Instruction::Ldq { ra, rb, disp } => {
                let v = proc.read_u64(proc.reg(rb).wrapping_add(disp as i64 as u64) & !7);
                proc.set_reg(ra, v);
                Next::Seq
            }
            Instruction::Ldl { ra, rb, disp } => {
                let v = ldl(proc, proc.reg(rb).wrapping_add(disp as i64 as u64) & !3);
                proc.set_reg(ra, v);
                Next::Seq
            }
            Instruction::Ldt { fa, rb, disp } => {
                let v = proc.read_u64(proc.reg(rb).wrapping_add(disp as i64 as u64) & !7);
                proc.set_reg(fa, v);
                Next::Seq
            }
            Instruction::Stq { ra, rb, disp } => {
                let addr = proc.reg(rb).wrapping_add(disp as i64 as u64) & !7;
                proc.write_u64(addr, proc.reg(ra));
                Next::Seq
            }
            Instruction::Stl { ra, rb, disp } => {
                let addr = proc.reg(rb).wrapping_add(disp as i64 as u64) & !3;
                proc.write_u32(addr, proc.reg(ra) as u32);
                Next::Seq
            }
            Instruction::Stt { fa, rb, disp } => {
                let addr = proc.reg(rb).wrapping_add(disp as i64 as u64) & !7;
                proc.write_u64(addr, proc.reg(fa));
                Next::Seq
            }
            Instruction::IntOp { op, ra, rb, rc } => {
                let b = match rb {
                    RegOrLit::Reg(r) => proc.reg(r),
                    RegOrLit::Lit(l) => u64::from(l),
                };
                let v = op.eval(proc.reg(ra), b);
                proc.set_reg(rc, v);
                Next::Seq
            }
            Instruction::FpOp { op, fa, fb, fc } => {
                let v = op.eval(proc.reg(fa), proc.reg(fb));
                proc.set_reg(fc, v);
                Next::Seq
            }
            Instruction::CondBr { cond, ra, disp } => {
                if cond.test(proc.reg(ra)) {
                    Next::Jump(pc.offset_insns(1 + i64::from(disp)))
                } else {
                    Next::Seq
                }
            }
            Instruction::Br { ra, disp } => {
                proc.set_reg(ra, pc.next().0);
                Next::Jump(pc.offset_insns(1 + i64::from(disp)))
            }
            Instruction::Jmp { ra, rb } => {
                let target = proc.reg(rb) & !3;
                proc.set_reg(ra, pc.next().0);
                Next::Jump(Addr(target))
            }
            Instruction::CallPal { func } => match func {
                PalFunc::Halt => Next::Halt,
                PalFunc::Yield => Next::Yield,
                PalFunc::Syscall => Next::Syscall,
                PalFunc::Noop => Next::Seq,
            },
        }
    }

    /// Base of the populated data pages of the differential test.
    const DATA: u64 = 0x1000_0000;
    /// Bytes of populated data (two 8 KB process pages).
    const DATA_BYTES: u64 = 2 * 8192;
    /// Number of instruction shapes (`Instruction` variants).
    const SHAPES: usize = 14;

    fn pick<T: Copy>(rng: &mut CartaRng, all: &[T]) -> T {
        all[rng.uniform(0, all.len() as u64 - 1) as usize]
    }

    /// A register of one file; one draw in four is the file's zero.
    fn reg(rng: &mut CartaRng, fp: bool) -> Reg {
        let n = if rng.uniform(0, 3) == 0 {
            31
        } else {
            rng.uniform(0, 31) as u8
        };
        if fp {
            Reg::fp(n)
        } else {
            Reg::int(n)
        }
    }

    fn word64(rng: &mut CartaRng) -> u64 {
        (u64::from(rng.next_u31()) << 40)
            ^ (u64::from(rng.next_u31()) << 20)
            ^ u64::from(rng.next_u31())
    }

    /// One random instruction of the given shape, every field drawn.
    fn random_insn(shape: usize, rng: &mut CartaRng) -> Instruction {
        let ra = reg(rng, false);
        let rb = reg(rng, false);
        let fa = reg(rng, true);
        let disp = rng.uniform(0, 0xffff) as u16 as i16;
        let bdisp = rng.uniform(0, (1 << 21) - 1) as i32 - (1 << 20);
        match shape {
            0 => Instruction::Lda { ra, rb, disp },
            1 => Instruction::Ldah { ra, rb, disp },
            2 => Instruction::Ldq { ra, rb, disp },
            3 => Instruction::Ldl { ra, rb, disp },
            4 => Instruction::Ldt { fa, rb, disp },
            5 => Instruction::Stq { ra, rb, disp },
            6 => Instruction::Stl { ra, rb, disp },
            7 => Instruction::Stt { fa, rb, disp },
            8 => Instruction::IntOp {
                op: pick(rng, &IntOp::ALL),
                ra,
                rb: if rng.uniform(0, 1) == 0 {
                    RegOrLit::Reg(rb)
                } else {
                    RegOrLit::Lit(rng.uniform(0, 255) as u8)
                },
                rc: reg(rng, false),
            },
            9 => Instruction::FpOp {
                op: pick(rng, &FpOp::ALL),
                fa,
                fb: reg(rng, true),
                fc: reg(rng, true),
            },
            10 => Instruction::CondBr {
                cond: pick(rng, &BrCond::ALL),
                ra,
                disp: bdisp,
            },
            11 => Instruction::Br { ra, disp: bdisp },
            // One jump in four links into its own target register.
            12 if rng.uniform(0, 3) == 0 => Instruction::Jmp { ra, rb: ra },
            12 => Instruction::Jmp { ra, rb },
            13 => Instruction::CallPal {
                func: pick(rng, &PalFunc::ALL),
            },
            _ => unreachable!("{SHAPES} shapes"),
        }
    }

    /// A register value: mostly an (unaligned) address inside the
    /// populated pages, else one of the values branches and shifts care
    /// about, else noise.
    fn reg_value(rng: &mut CartaRng) -> u64 {
        match rng.uniform(0, 9) {
            0 => 0,
            1 => 1,
            2 => u64::MAX,
            3 => 1 << 63,
            4 | 5 => word64(rng),
            _ => DATA + rng.uniform(0, DATA_BYTES - 1),
        }
    }

    #[test]
    fn exec_uop_matches_the_instruction_level_reference() {
        let mut rng = CartaRng::new(0x0dcf_1997);
        let model = PipelineModel::default();
        let mut base = Process::new(Pid(7));
        for off in (0..DATA_BYTES).step_by(8) {
            base.write_u64(DATA + off, word64(&mut rng));
        }
        // Corner cases random draws could starve, counted so that the test
        // fails if they do.
        let (mut halves, mut zero_dest, mut self_jumps, mut lits) = ([0u32; 2], 0u32, 0u32, 0u32);
        for shape in 0..SHAPES {
            for case in 0..1_000 {
                let insn = random_insn(shape, &mut rng);
                assert_eq!(decode(encode(insn)), Ok(insn), "encoding round-trips");
                let op = compile_uops(&[insn], &side_table(&[insn], &model))[0];
                let mut want = base.clone();
                for i in 0..Reg::COUNT as u8 {
                    want.set_reg(Reg::from_index(i), reg_value(&mut rng));
                }
                let mut got = want.clone();
                let pc = Addr(0x1_0000 + 4 * rng.uniform(0, 1 << 20));
                // Pre-execution effective address of the memory shapes
                // (they may store anywhere); any address for the others.
                let ea = if op.is_memory() {
                    got.reg_i(op.b).wrapping_add(op.disp)
                } else {
                    DATA
                };

                let want_next = exec_semantics(&mut want, &insn, pc);
                let jump = exec_uop(&mut got, &op, pc);
                let got_next = match op.kind {
                    UopKind::Pal(PalFunc::Halt) => Next::Halt,
                    UopKind::Pal(PalFunc::Yield) => Next::Yield,
                    UopKind::Pal(PalFunc::Syscall) => Next::Syscall,
                    _ => jump.map_or(Next::Seq, Next::Jump),
                };
                let ctx = format!("shape {shape} case {case}: {insn} at {pc:?}");
                assert_eq!(got_next, want_next, "{ctx}: control");
                for i in 0..Reg::COUNT as u8 {
                    let r = Reg::from_index(i);
                    assert_eq!(got.reg(r), want.reg(r), "{ctx}: {r}");
                }
                assert_eq!(got.resident_pages(), want.resident_pages(), "{ctx}");
                assert_eq!(got.read_u64(ea), want.read_u64(ea), "{ctx}: [{ea:#x}]");
                for off in (0..DATA_BYTES).step_by(8) {
                    let a = DATA + off;
                    assert_eq!(got.read_u64(a), want.read_u64(a), "{ctx}: [{a:#x}]");
                }

                if matches!(op.kind, UopKind::Ldl | UopKind::Stl) {
                    halves[(ea >> 2 & 1) as usize] += 1;
                }
                // A shape with a destination field that names a zero register.
                zero_dest += u32::from(!op.is_store() && !op.is_control() && op.w == NO_WRITE);
                self_jumps += u32::from(matches!(insn, Instruction::Jmp { ra, rb } if ra == rb));
                lits += u32::from(op.is_lit());
            }
        }
        assert!(
            halves[0] > 500 && halves[1] > 500,
            "ldl/stl halves {halves:?}"
        );
        assert!(zero_dest > 1_000, "zero-register destinations {zero_dest}");
        assert!(self_jumps > 100, "jmp ra,(ra) {self_jumps}");
        assert!((300..700).contains(&lits), "literal operands {lits}");
    }
}
