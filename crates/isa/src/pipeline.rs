//! The static pipeline model shared by the simulator and the analyzer.
//!
//! The modeled processor is an in-order dual-issue machine in the spirit of
//! the Alpha 21164 as the paper's listings present it:
//!
//! * Instructions are *slotted* in aligned two-word groups: the instruction
//!   at an even word index may issue together with the following odd-index
//!   instruction, never with an instruction from a different aligned pair.
//!   Two adjacent stores therefore cannot dual-issue (the paper's
//!   "slotting hazard" `s` bubble in Figure 2).
//! * Two integer pipes `E0`/`E1`: stores and integer multiplies only in
//!   `E0`, branches only in `E1`, loads and ordinary integer operations in
//!   either. One FP add pipe (`FA`, also hosting the non-pipelined divider)
//!   and one FP multiply pipe (`FM`).
//! * Instructions stall **only at the head of the issue queue** (§4.1.2),
//!   the invariant the entire analysis relies on.
//!
//! [`PipelineModel::schedule_block`] schedules a basic block assuming no
//! dynamic stalls, yielding each instruction's minimum head-of-queue time
//! `M_i` (§6.1.3) plus a record of every *static* stall cause (slotting,
//! operand dependencies, functional-unit contention) used both for
//! "best-case CPI" and for the static part of culprit analysis (§6.3).

use crate::insn::Instruction;

/// Issue-relevant instruction classes.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum InsnClass {
    /// Single-cycle integer operation (including `lda`/`ldah`).
    IntLight,
    /// Integer multiply: occupies the non-pipelined IMUL unit.
    IntMul,
    /// Memory load.
    Load,
    /// Memory store.
    Store,
    /// Any control transfer (conditional, unconditional, or indirect).
    Branch,
    /// FP add/subtract/compare/copy-sign (FA pipe).
    FpAdd,
    /// FP multiply (FM pipe).
    FpMul,
    /// FP divide: issues to FA, occupies the non-pipelined FDIV unit.
    FpDiv,
    /// PALcode call: issues alone and serializes.
    Pal,
}

/// Classifies an instruction.
#[must_use]
pub fn classify(insn: &Instruction) -> InsnClass {
    use crate::insn::{FpOp, IntOp};
    match insn {
        Instruction::Lda { .. } | Instruction::Ldah { .. } => InsnClass::IntLight,
        Instruction::Ldq { .. } | Instruction::Ldl { .. } | Instruction::Ldt { .. } => {
            InsnClass::Load
        }
        Instruction::Stq { .. } | Instruction::Stl { .. } | Instruction::Stt { .. } => {
            InsnClass::Store
        }
        Instruction::IntOp { op, .. } => {
            if *op == IntOp::Mulq {
                InsnClass::IntMul
            } else {
                InsnClass::IntLight
            }
        }
        Instruction::FpOp { op, .. } => match op {
            FpOp::Mult => InsnClass::FpMul,
            FpOp::Divt => InsnClass::FpDiv,
            _ => InsnClass::FpAdd,
        },
        Instruction::CondBr { .. } | Instruction::Br { .. } | Instruction::Jmp { .. } => {
            InsnClass::Branch
        }
        Instruction::CallPal { .. } => InsnClass::Pal,
    }
}

/// Execution pipes.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Pipe {
    /// Integer pipe 0 (stores, multiplies, loads, integer ops).
    E0,
    /// Integer pipe 1 (branches, loads, integer ops).
    E1,
    /// FP add pipe.
    FA,
    /// FP multiply pipe.
    FM,
}

/// The pipes an instruction class may issue to.
#[must_use]
pub fn pipes(class: InsnClass) -> &'static [Pipe] {
    match class {
        InsnClass::IntLight | InsnClass::Load => &[Pipe::E0, Pipe::E1],
        InsnClass::IntMul | InsnClass::Store | InsnClass::Pal => &[Pipe::E0],
        InsnClass::Branch => &[Pipe::E1],
        InsnClass::FpAdd | InsnClass::FpDiv => &[Pipe::FA],
        InsnClass::FpMul => &[Pipe::FM],
    }
}

/// True if two instructions of the given classes can occupy distinct pipes
/// in the same cycle.
#[must_use]
pub fn pipes_compatible(senior: InsnClass, junior: InsnClass) -> bool {
    if senior == InsnClass::Pal || junior == InsnClass::Pal {
        return false;
    }
    let sp = pipes(senior);
    let jp = pipes(junior);
    // Two-instruction bipartite matching: some assignment with distinct pipes.
    sp.iter().any(|&p1| jp.iter().any(|&p2| p1 != p2))
}

/// Static stall causes the scheduler can attribute (the static categories
/// of the paper's Figure 4 summary).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum StaticCause {
    /// Could not dual-issue with its aligned pair-mate due to a pipe
    /// conflict (bubble `s` in dcpicalc output).
    Slotting,
    /// Waited for its first source operand.
    RaDependency,
    /// Waited for its second source operand.
    RbDependency,
    /// Waited for its destination register (write-after-write).
    RcDependency,
    /// Waited for a busy non-pipelined functional unit (IMUL or FDIV).
    FuDependency,
}

impl StaticCause {
    /// Human-readable label used in procedure summaries.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            StaticCause::Slotting => "Slotting",
            StaticCause::RaDependency => "Ra dependency",
            StaticCause::RbDependency => "Rb dependency",
            StaticCause::RcDependency => "Rc dependency",
            StaticCause::FuDependency => "FU dependency",
        }
    }
}

/// One attributed static stall.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct StaticStall {
    /// Why the instruction waited.
    pub cause: StaticCause,
    /// How many cycles of `M_i` this cause explains.
    pub cycles: u64,
    /// Index (within the scheduled block) of the instruction that caused
    /// the wait, when known.
    pub culprit: Option<usize>,
}

/// Per-instruction output of the static scheduler.
#[derive(Clone, Debug)]
pub struct SchedEntry {
    /// Cycle (from block entry) at which the instruction issues.
    pub issue_cycle: u64,
    /// Minimum cycles spent at the head of the issue queue (`M_i`, §6.1.3):
    /// zero iff the instruction dual-issues with its predecessor.
    pub m: u64,
    /// The `M` value an ideal width-2 machine with no slotting or
    /// dependency constraints would achieve (1 for pair seniors, 0 for
    /// juniors); `m - m_ideal` is the instruction's static stall time.
    pub m_ideal: u64,
    /// True if this instruction issued in the same cycle as its
    /// predecessor.
    pub dual_with_prev: bool,
    /// Attributed static stalls summing to `m - m_ideal`.
    pub stalls: Vec<StaticStall>,
}

/// The schedule of one basic block under the no-dynamic-stall assumption.
#[derive(Clone, Debug)]
pub struct BlockSchedule {
    /// Per-instruction results, in program order.
    pub entries: Vec<SchedEntry>,
    /// Total best-case cycles for one execution of the block (`ΣM_i`).
    pub total_cycles: u64,
}

impl BlockSchedule {
    /// Best-case CPI of the block (`ΣM_i / n`), the first summary line of
    /// dcpicalc output (Figure 2).
    #[must_use]
    pub fn best_case_cpi(&self) -> f64 {
        if self.entries.is_empty() {
            return 0.0;
        }
        self.total_cycles as f64 / self.entries.len() as f64
    }
}

/// Timing and resource parameters of the modeled processor.
///
/// One instance is shared by the cycle-level simulator (dynamic behaviour)
/// and the analyzer (static scheduling and culprit latency bounds), so the
/// analyzer's processor model matches the "hardware" exactly — the same
/// property the paper's tools had for the 21164.
#[derive(Clone, Debug, PartialEq)]
pub struct PipelineModel {
    /// Result latency of ordinary integer operations.
    pub int_latency: u64,
    /// Load-to-use latency on a D-cache hit.
    pub load_latency: u64,
    /// Result latency of FP add/sub/compare and multiply.
    pub fp_latency: u64,
    /// Result latency of an integer multiply.
    pub imul_latency: u64,
    /// Cycles the IMUL unit stays busy per multiply (non-pipelined).
    pub imul_busy: u64,
    /// Result latency of an FP divide.
    pub fdiv_latency: u64,
    /// Cycles the FDIV unit stays busy per divide (non-pipelined).
    pub fdiv_busy: u64,
    /// Additional latency of a load that misses the D-cache but hits the
    /// board cache.
    pub bcache_latency: u64,
    /// Additional latency of a load that misses all the way to memory.
    pub memory_latency: u64,
    /// Fetch penalty of an I-cache miss that hits the board cache.
    pub icache_miss_penalty: u64,
    /// Fetch penalty of an I-cache miss that goes to memory.
    pub icache_memory_penalty: u64,
    /// Branch misprediction penalty (squash + refetch).
    pub mispredict_penalty: u64,
    /// Penalty of a data TLB miss (software fill).
    pub dtb_miss_penalty: u64,
    /// Penalty of an instruction TLB miss.
    pub itb_miss_penalty: u64,
    /// Entries in the write buffer (6 on the 21164, §3.2).
    pub write_buffer_entries: usize,
    /// Cycles to retire one write-buffer entry to the memory system.
    pub write_retire_cycles: u64,
    /// Cycles after a counter overflow before the interrupt is delivered
    /// (6 on the 21164, §4.1.2).
    pub interrupt_skid: u64,
}

impl Default for PipelineModel {
    fn default() -> PipelineModel {
        PipelineModel {
            int_latency: 1,
            load_latency: 2,
            fp_latency: 4,
            imul_latency: 8,
            imul_busy: 8,
            fdiv_latency: 30,
            fdiv_busy: 30,
            bcache_latency: 12,
            memory_latency: 80,
            icache_miss_penalty: 10,
            icache_memory_penalty: 40,
            mispredict_penalty: 5,
            dtb_miss_penalty: 40,
            itb_miss_penalty: 40,
            write_buffer_entries: 6,
            write_retire_cycles: 18,
            interrupt_skid: 6,
        }
    }
}

impl PipelineModel {
    /// Result latency of an instruction class assuming cache hits, or
    /// `None` for classes with no register result timing (stores,
    /// branches, PAL).
    #[must_use]
    pub fn result_latency(&self, class: InsnClass) -> Option<u64> {
        match class {
            InsnClass::IntLight => Some(self.int_latency),
            InsnClass::IntMul => Some(self.imul_latency),
            InsnClass::Load => Some(self.load_latency),
            InsnClass::FpAdd | InsnClass::FpMul => Some(self.fp_latency),
            InsnClass::FpDiv => Some(self.fdiv_latency),
            InsnClass::Store | InsnClass::Branch | InsnClass::Pal => None,
        }
    }

    /// Schedules a basic block assuming no dynamic stalls.
    ///
    /// `base_word` is the word index (address / 4) of the block's first
    /// instruction within its image: the aligned-pair slotting depends on
    /// instruction addresses, not positions within the block.
    #[must_use]
    pub fn schedule_block(&self, base_word: u64, insns: &[Instruction]) -> BlockSchedule {
        let n = insns.len();
        let mut entries: Vec<SchedEntry> = Vec::with_capacity(n);
        // Register scoreboard: cycle each register's value becomes
        // available, and the index of its last writer.
        let mut ready = [0u64; crate::reg::Reg::COUNT];
        let mut writer: [Option<usize>; crate::reg::Reg::COUNT] = [None; crate::reg::Reg::COUNT];
        let mut imul_free: (u64, Option<usize>) = (0, None);
        let mut fdiv_free: (u64, Option<usize>) = (0, None);
        let mut prev_issue: i64 = -1;
        let mut i = 0usize;
        while i < n {
            let insn = &insns[i];
            let class = classify(insn);
            let head_base = (prev_issue + 1) as u64;
            // Earliest cycle permitted by operands, WAW, and units; track
            // the binding constraint for cause attribution.
            let mut earliest = head_base;
            let mut cause: Option<(StaticCause, Option<usize>)> = None;
            let reads = insn.reads();
            for (k, r) in reads.iter().enumerate() {
                let t = ready[r.index()];
                if t > earliest {
                    earliest = t;
                    let c = if k == 0 {
                        StaticCause::RaDependency
                    } else {
                        StaticCause::RbDependency
                    };
                    cause = Some((c, writer[r.index()]));
                }
            }
            if let Some(w) = insn.writes() {
                let t = ready[w.index()];
                if t > earliest {
                    earliest = t;
                    cause = Some((StaticCause::RcDependency, writer[w.index()]));
                }
            }
            match class {
                InsnClass::IntMul if imul_free.0 > earliest => {
                    earliest = imul_free.0;
                    cause = Some((StaticCause::FuDependency, imul_free.1));
                }
                InsnClass::FpDiv if fdiv_free.0 > earliest => {
                    earliest = fdiv_free.0;
                    cause = Some((StaticCause::FuDependency, fdiv_free.1));
                }
                _ => {}
            }
            let issue = earliest;
            let m = (issue as i64 - prev_issue) as u64;
            // Was this instruction an aligned-pair junior that failed to
            // pair? If the only blocker was the pipe assignment, the extra
            // head cycle is a slotting stall.
            let is_junior_slot = (base_word + i as u64) % 2 == 1 && i > 0;
            let mut stalls = Vec::new();
            // The ideal width-2 machine always pairs: 1 cycle for the
            // even-slot senior, 0 for the odd-slot junior.
            let m_ideal: u64 = if is_junior_slot { 0 } else { 1 };
            let mut remaining = m.saturating_sub(m_ideal);
            // Cycles beyond the head-of-queue baseline come from the
            // binding operand/unit constraint found above.
            let beyond = issue - head_base;
            if beyond > 0 {
                let (c, culprit) = cause.expect("delayed issue without a constraint");
                let cycles = beyond.min(remaining);
                stalls.push(StaticStall {
                    cause: c,
                    cycles,
                    culprit,
                });
                remaining -= cycles;
            }
            if remaining > 0 {
                // This instruction is an aligned-pair junior the ideal
                // machine would have issued with its senior: attribute the
                // lost cycle to whatever blocked the pairing.
                debug_assert!(is_junior_slot && remaining == 1);
                let (c, culprit) = pairing_failure_cause(
                    &insns[i - 1],
                    i - 1,
                    insn,
                    prev_issue as u64,
                    &ready,
                    &writer,
                    imul_free.0,
                    fdiv_free.0,
                );
                if let Some(last) = stalls.last_mut() {
                    if last.cause == c && last.culprit == culprit {
                        last.cycles += remaining;
                        remaining = 0;
                    }
                }
                if remaining > 0 {
                    stalls.push(StaticStall {
                        cause: c,
                        cycles: remaining,
                        culprit,
                    });
                }
            }
            entries.push(SchedEntry {
                issue_cycle: issue,
                m,
                m_ideal,
                dual_with_prev: false,
                stalls,
            });
            // Commit results.
            if let Some(w) = insn.writes() {
                let lat = self.result_latency(class).unwrap_or(0);
                ready[w.index()] = issue + lat;
                writer[w.index()] = Some(i);
            }
            if class == InsnClass::IntMul {
                imul_free = (issue + self.imul_busy, Some(i));
            }
            if class == InsnClass::FpDiv {
                fdiv_free = (issue + self.fdiv_busy, Some(i));
            }
            prev_issue = issue as i64;
            i += 1;
            // Try to dual-issue the aligned pair-mate.
            if i < n && (base_word + i as u64) % 2 == 1 {
                let junior = &insns[i];
                let jclass = classify(junior);
                if may_pair(insn, junior)
                    && self.junior_ready(junior, jclass, issue, &ready, imul_free.0, fdiv_free.0)
                {
                    entries.push(SchedEntry {
                        issue_cycle: issue,
                        m: 0,
                        m_ideal: 0,
                        dual_with_prev: true,
                        stalls: Vec::new(),
                    });
                    if let Some(w) = junior.writes() {
                        let lat = self.result_latency(jclass).unwrap_or(0);
                        ready[w.index()] = issue + lat;
                        writer[w.index()] = Some(i);
                    }
                    if jclass == InsnClass::IntMul {
                        imul_free = (issue + self.imul_busy, Some(i));
                    }
                    if jclass == InsnClass::FpDiv {
                        fdiv_free = (issue + self.fdiv_busy, Some(i));
                    }
                    i += 1;
                }
            }
        }
        let total_cycles = entries.iter().map(|e| e.m).sum();
        BlockSchedule {
            entries,
            total_cycles,
        }
    }

    fn junior_ready(
        &self,
        junior: &Instruction,
        jclass: InsnClass,
        cycle: u64,
        ready: &[u64; crate::reg::Reg::COUNT],
        imul_free: u64,
        fdiv_free: u64,
    ) -> bool {
        if junior.reads().iter().any(|r| ready[r.index()] > cycle) {
            return false;
        }
        if let Some(w) = junior.writes() {
            if ready[w.index()] > cycle {
                return false;
            }
        }
        match jclass {
            InsnClass::IntMul => imul_free <= cycle,
            InsnClass::FpDiv => fdiv_free <= cycle,
            _ => true,
        }
    }
}

/// Determines why a junior failed to pair with its senior, for static
/// stall attribution. Called only when the pairing genuinely failed, with
/// the scoreboard state as of just after the senior issued at
/// `senior_issue`.
#[allow(clippy::too_many_arguments)]
fn pairing_failure_cause(
    senior: &Instruction,
    senior_idx: usize,
    junior: &Instruction,
    senior_issue: u64,
    ready: &[u64; crate::reg::Reg::COUNT],
    writer: &[Option<usize>; crate::reg::Reg::COUNT],
    imul_free: u64,
    fdiv_free: u64,
) -> (StaticCause, Option<usize>) {
    if !slots_together(senior, junior) {
        return (StaticCause::Slotting, Some(senior_idx));
    }
    let jclass = classify(junior);
    for (k, r) in junior.reads().iter().enumerate() {
        if ready[r.index()] > senior_issue {
            let c = if k == 0 {
                StaticCause::RaDependency
            } else {
                StaticCause::RbDependency
            };
            return (c, writer[r.index()]);
        }
    }
    if let Some(w) = junior.writes() {
        if ready[w.index()] > senior_issue {
            return (StaticCause::RcDependency, writer[w.index()]);
        }
    }
    if (jclass == InsnClass::IntMul && imul_free > senior_issue)
        || (jclass == InsnClass::FpDiv && fdiv_free > senior_issue)
    {
        return (StaticCause::FuDependency, None);
    }
    // Should be unreachable; fall back to slotting.
    (StaticCause::Slotting, Some(senior_idx))
}

/// The static half of dual issue, and its one definition: `junior` may
/// share `senior`'s issue cycle as far as the two instructions alone
/// decide — the senior is no control transfer, they fit distinct pipes,
/// and the junior neither reads nor rewrites the senior's result. The
/// dynamic half (an aligned pair, operands and units ready, the junior
/// fetchable, its memory preconditions) is the scheduler's and the
/// simulator's to test. The static scheduler calls this, and
/// [`compile_uops`](crate::uop::compile_uops) stores it per instruction
/// pair as [`uflag::PAIRS`](crate::uop::uflag::PAIRS) for the simulator.
#[must_use]
pub fn may_pair(senior: &Instruction, junior: &Instruction) -> bool {
    slots_together(senior, junior) && !conflicts_with_senior(senior, junior)
}

/// The slotting part of [`may_pair`]: the senior is no control transfer
/// and the two fit distinct pipes. A pair that fails only this is a
/// slotting stall; one that fails only the register conflict is charged
/// to the dependency it waits on.
fn slots_together(senior: &Instruction, junior: &Instruction) -> bool {
    !senior.is_control() && pipes_compatible(classify(senior), classify(junior))
}

/// True if `junior` has a same-cycle conflict with `senior`: it reads the
/// senior's result or both write the same register.
fn conflicts_with_senior(senior: &Instruction, junior: &Instruction) -> bool {
    if let Some(w) = senior.writes() {
        if junior.reads().contains(&w) {
            return true;
        }
        if junior.writes() == Some(w) {
            return true;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::insn::{BrCond, FpOp, Instruction, IntOp, RegOrLit};
    use crate::reg::Reg;

    fn ldq(ra: Reg, disp: i16, rb: Reg) -> Instruction {
        Instruction::Ldq { ra, rb, disp }
    }
    fn stq(ra: Reg, disp: i16, rb: Reg) -> Instruction {
        Instruction::Stq { ra, rb, disp }
    }
    fn lda(ra: Reg, disp: i16, rb: Reg) -> Instruction {
        Instruction::Lda { ra, rb, disp }
    }
    fn addq_lit(ra: Reg, lit: u8, rc: Reg) -> Instruction {
        Instruction::IntOp {
            op: IntOp::Addq,
            ra,
            rb: RegOrLit::Lit(lit),
            rc,
        }
    }
    fn cmpult(ra: Reg, rb: Reg, rc: Reg) -> Instruction {
        Instruction::IntOp {
            op: IntOp::Cmpult,
            ra,
            rb: RegOrLit::Reg(rb),
            rc,
        }
    }
    fn bne(ra: Reg, disp: i32) -> Instruction {
        Instruction::CondBr {
            cond: BrCond::Bne,
            ra,
            disp,
        }
    }

    /// The unrolled copy loop of the paper's Figure 2 / Figure 7.
    fn copy_loop() -> Vec<Instruction> {
        use Reg as R;
        vec![
            ldq(R::T4, 0, R::T1),        // 009810
            addq_lit(R::T0, 4, R::T0),   // 009814
            ldq(R::T5, 8, R::T1),        // 009818
            ldq(R::T6, 16, R::T1),       // 00981c
            ldq(R::A0, 24, R::T1),       // 009820
            lda(R::T1, 32, R::T1),       // 009824
            stq(R::T4, 0, R::T2),        // 009828
            cmpult(R::T0, R::V0, R::T4), // 00982c
            stq(R::T5, 8, R::T2),        // 009830
            stq(R::T6, 16, R::T2),       // 009834
            stq(R::A0, 24, R::T2),       // 009838
            lda(R::T2, 32, R::T2),       // 00983c
            bne(R::T4, -13),             // 009840
        ]
    }

    /// Figure 7 of the paper gives the M_i column for the copy loop:
    /// 1,0,1,0,1,0,1,0,1,1,1,0,1 — sum 8 over 13 instructions, hence
    /// the "Best-case 8/13 = 0.62CPI" line in Figure 2.
    #[test]
    fn copy_loop_m_values_match_figure_7() {
        let model = PipelineModel::default();
        // 0x9810 / 4 = word index, even (0x9810 % 8 == 0).
        let sched = model.schedule_block(0x9810 / 4, &copy_loop());
        let ms: Vec<u64> = sched.entries.iter().map(|e| e.m).collect();
        assert_eq!(ms, vec![1, 0, 1, 0, 1, 0, 1, 0, 1, 1, 1, 0, 1]);
        assert_eq!(sched.total_cycles, 8);
        let cpi = sched.best_case_cpi();
        assert!((cpi - 8.0 / 13.0).abs() < 1e-9, "cpi = {cpi}");
    }

    #[test]
    fn copy_loop_slotting_hazard_on_adjacent_stores() {
        let model = PipelineModel::default();
        let sched = model.schedule_block(0x9810 / 4, &copy_loop());
        // stq t6 (index 9) is the aligned-pair junior of stq t5 and both
        // need E0: a slotting stall.
        let stalls = &sched.entries[9].stalls;
        assert_eq!(stalls.len(), 1);
        assert_eq!(stalls[0].cause, StaticCause::Slotting);
        assert_eq!(stalls[0].cycles, 1);
        assert_eq!(stalls[0].culprit, Some(8));
        // stq a0 (index 10) is an even-slot senior: no slotting bubble,
        // exactly as Figure 2 shows.
        assert!(sched.entries[10].stalls.is_empty());
    }

    #[test]
    fn dual_issue_flags_match_figure_2() {
        let model = PipelineModel::default();
        let sched = model.schedule_block(0x9810 / 4, &copy_loop());
        let duals: Vec<bool> = sched.entries.iter().map(|e| e.dual_with_prev).collect();
        // Figure 2 marks addq, lda t1, cmpult, and lda t2 "(dual issue)";
        // ldq t6 shows 0.5cy, i.e. it also pairs.
        assert_eq!(
            duals,
            vec![
                false, true, false, true, false, true, false, true, false, false, false, true,
                false
            ]
        );
    }

    #[test]
    fn load_use_dependency_attributed_to_ra() {
        let model = PipelineModel::default();
        // ldq t0; addq t0,1,t1 — consumer in next aligned pair must wait
        // for the 2-cycle load: M = 2 with 1 cycle of Ra dependency.
        let insns = vec![
            ldq(Reg::T0, 0, Reg::T1),
            addq_lit(Reg::ZERO, 0, Reg::T2), // filler pairs with the load
            addq_lit(Reg::T0, 1, Reg::T3),
        ];
        let sched = model.schedule_block(0, &insns);
        assert_eq!(sched.entries[2].m, 2);
        let stalls = &sched.entries[2].stalls;
        assert_eq!(stalls.len(), 1);
        assert_eq!(stalls[0].cause, StaticCause::RaDependency);
        assert_eq!(stalls[0].cycles, 1);
        assert_eq!(stalls[0].culprit, Some(0));
    }

    #[test]
    fn consumer_in_same_pair_does_not_dual_issue() {
        let model = PipelineModel::default();
        let insns = vec![
            addq_lit(Reg::T0, 1, Reg::T1),
            addq_lit(Reg::T1, 1, Reg::T2), // reads senior's result
        ];
        let sched = model.schedule_block(0, &insns);
        assert!(!sched.entries[1].dual_with_prev);
        assert_eq!(sched.entries[1].m, 1);
        // The wait is the senior's 1-cycle latency: attributed as Ra.
        assert_eq!(sched.entries[1].stalls[0].cause, StaticCause::RaDependency);
    }

    #[test]
    fn imul_serializes_and_blames_fu() {
        let model = PipelineModel::default();
        let mul = |rc: Reg| Instruction::IntOp {
            op: IntOp::Mulq,
            ra: Reg::T0,
            rb: RegOrLit::Reg(Reg::T1),
            rc,
        };
        let insns = vec![mul(Reg::T2), addq_lit(Reg::ZERO, 0, Reg::T5), mul(Reg::T3)];
        let sched = model.schedule_block(0, &insns);
        // Second multiply waits for the IMUL unit (busy 8 cycles).
        assert_eq!(sched.entries[2].issue_cycle, model.imul_busy);
        let stalls = &sched.entries[2].stalls;
        assert_eq!(stalls[0].cause, StaticCause::FuDependency);
        assert_eq!(stalls[0].culprit, Some(0));
    }

    #[test]
    fn fdiv_serializes() {
        let model = PipelineModel::default();
        let div = |fc: Reg| Instruction::FpOp {
            op: FpOp::Divt,
            fa: Reg::fp(1),
            fb: Reg::fp(2),
            fc,
        };
        let insns = vec![div(Reg::fp(3)), div(Reg::fp(4))];
        let sched = model.schedule_block(0, &insns);
        assert_eq!(sched.entries[1].issue_cycle, model.fdiv_busy);
    }

    #[test]
    fn fp_add_and_mul_pair() {
        let model = PipelineModel::default();
        let insns = vec![
            Instruction::FpOp {
                op: FpOp::Addt,
                fa: Reg::fp(1),
                fb: Reg::fp(2),
                fc: Reg::fp(3),
            },
            Instruction::FpOp {
                op: FpOp::Mult,
                fa: Reg::fp(4),
                fb: Reg::fp(5),
                fc: Reg::fp(6),
            },
        ];
        let sched = model.schedule_block(0, &insns);
        assert!(sched.entries[1].dual_with_prev, "FA and FM pipes differ");
    }

    #[test]
    fn two_fp_adds_cannot_pair() {
        let model = PipelineModel::default();
        let add = |fc: Reg| Instruction::FpOp {
            op: FpOp::Addt,
            fa: Reg::fp(1),
            fb: Reg::fp(2),
            fc,
        };
        let insns = vec![add(Reg::fp(3)), add(Reg::fp(4))];
        let sched = model.schedule_block(0, &insns);
        assert!(!sched.entries[1].dual_with_prev);
        assert_eq!(sched.entries[1].stalls[0].cause, StaticCause::Slotting);
    }

    #[test]
    fn odd_base_word_shifts_pairing() {
        let model = PipelineModel::default();
        // Same two pairable instructions, but the block starts at an odd
        // word: the second instruction begins a new aligned pair and
        // cannot dual-issue with the first.
        let insns = vec![addq_lit(Reg::T0, 1, Reg::T1), addq_lit(Reg::T2, 1, Reg::T3)];
        let even = model.schedule_block(0, &insns);
        let odd = model.schedule_block(1, &insns);
        assert!(even.entries[1].dual_with_prev);
        assert!(!odd.entries[1].dual_with_prev);
        assert_eq!(odd.total_cycles, 2);
    }

    #[test]
    fn branch_never_pairs_a_junior() {
        let model = PipelineModel::default();
        let insns = vec![bne(Reg::T0, 5), addq_lit(Reg::T1, 1, Reg::T2)];
        let sched = model.schedule_block(0, &insns);
        assert!(!sched.entries[1].dual_with_prev);
    }

    #[test]
    fn branch_can_be_a_junior() {
        let model = PipelineModel::default();
        let insns = vec![addq_lit(Reg::T1, 1, Reg::T2), bne(Reg::T0, 5)];
        let sched = model.schedule_block(0, &insns);
        assert!(sched.entries[1].dual_with_prev, "int E0 + branch E1");
    }

    #[test]
    fn pal_never_pairs() {
        let model = PipelineModel::default();
        let insns = vec![
            Instruction::CallPal {
                func: crate::insn::PalFunc::Noop,
            },
            addq_lit(Reg::T1, 1, Reg::T2),
        ];
        let sched = model.schedule_block(0, &insns);
        assert!(!sched.entries[1].dual_with_prev);
    }

    #[test]
    fn waw_attributed_to_rc() {
        let model = PipelineModel::default();
        let insns = vec![
            ldq(Reg::T0, 0, Reg::T1), // t0 ready at cycle 2
            addq_lit(Reg::ZERO, 0, Reg::T5),
            Instruction::IntOp {
                op: IntOp::Addq,
                ra: Reg::T2,
                rb: RegOrLit::Lit(1),
                rc: Reg::T0, // WAW with the load
            },
        ];
        let sched = model.schedule_block(0, &insns);
        assert_eq!(sched.entries[2].m, 2);
        assert_eq!(sched.entries[2].stalls[0].cause, StaticCause::RcDependency);
    }

    #[test]
    fn m_ideal_is_one_for_seniors_zero_for_juniors() {
        let model = PipelineModel::default();
        let sched = model.schedule_block(0x9810 / 4, &copy_loop());
        let ideals: Vec<u64> = sched.entries.iter().map(|e| e.m_ideal).collect();
        assert_eq!(ideals, vec![1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1]);
    }

    #[test]
    fn empty_block_schedules_to_nothing() {
        let model = PipelineModel::default();
        let sched = model.schedule_block(0, &[]);
        assert!(sched.entries.is_empty());
        assert_eq!(sched.total_cycles, 0);
        assert_eq!(sched.best_case_cpi(), 0.0);
    }

    #[test]
    fn classify_covers_all_shapes() {
        assert_eq!(classify(&lda(Reg::T0, 0, Reg::T1)), InsnClass::IntLight);
        assert_eq!(classify(&ldq(Reg::T0, 0, Reg::T1)), InsnClass::Load);
        assert_eq!(classify(&stq(Reg::T0, 0, Reg::T1)), InsnClass::Store);
        assert_eq!(
            classify(&Instruction::Jmp {
                ra: Reg::ZERO,
                rb: Reg::RA
            }),
            InsnClass::Branch
        );
        assert_eq!(
            classify(&Instruction::FpOp {
                op: FpOp::Divt,
                fa: Reg::fp(0),
                fb: Reg::fp(1),
                fc: Reg::fp(2)
            }),
            InsnClass::FpDiv
        );
    }

    #[test]
    fn pipes_compatible_matrix() {
        assert!(pipes_compatible(InsnClass::Load, InsnClass::Load));
        assert!(pipes_compatible(InsnClass::Store, InsnClass::IntLight));
        assert!(!pipes_compatible(InsnClass::Store, InsnClass::Store));
        assert!(!pipes_compatible(InsnClass::Store, InsnClass::IntMul));
        assert!(pipes_compatible(InsnClass::IntLight, InsnClass::Branch));
        assert!(!pipes_compatible(InsnClass::Branch, InsnClass::Branch));
        assert!(!pipes_compatible(InsnClass::Pal, InsnClass::IntLight));
        assert!(pipes_compatible(InsnClass::FpAdd, InsnClass::FpMul));
        assert!(!pipes_compatible(InsnClass::FpAdd, InsnClass::FpDiv));
    }
}
