//! Stall explanation: culprit identification (§6.3).
//!
//! Static stalls come straight from the scheduler's bookkeeping (slotting,
//! operand dependencies, FU contention). For *dynamic* stalls the analysis
//! follows the paper's "guilty until proven innocent" discipline: start
//! from every possible cause and rule out those that are impossible or
//! extremely unlikely at this instruction; whatever survives is reported.
//! All surviving causes are listed — reporting just one would often be
//! misleading, since a stall aggregates many occasions with possibly
//! different causes.
//!
//! The I-cache elimination implements the paper's same-line rule: an
//! instruction is extremely unlikely to stall for an I-cache miss if it
//! lies in the same cache line as every instruction that can execute
//! immediately before it; predecessors executed much less frequently than
//! the stalled instruction are ignored. When event samples (IMISS, DMISS,
//! BRANCHMP, DTB/ITB miss) were collected, they place upper bounds on a
//! cause's possible contribution, and a zero bound rules it out.

use crate::cfg::Cfg;
use crate::frequency::ProcFrequencies;
use dcpi_isa::insn::Instruction;
use dcpi_isa::pipeline::{classify, BlockSchedule, InsnClass, PipelineModel};

/// A possible dynamic-stall cause.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum DynamicCause {
    /// Instruction-cache miss.
    ICacheMiss,
    /// Instruction TLB miss.
    ItbMiss,
    /// Data-cache miss (typically of an earlier load feeding this
    /// instruction).
    DCacheMiss,
    /// Data TLB miss.
    DtbMiss,
    /// Write-buffer overflow.
    WriteBuffer,
    /// Branch misprediction on the way here.
    BranchMispredict,
    /// The integer multiplier was busy.
    ImulBusy,
    /// The floating-point divider was busy.
    FdivBusy,
    /// Time in PAL/kernel services attributed to the following
    /// instruction (§4.1.3).
    Other,
    /// Every candidate was ruled out.
    Unexplained,
}

impl DynamicCause {
    /// The single-letter tag used in dcpicalc bubbles (Figure 2).
    #[must_use]
    pub fn letter(self) -> char {
        match self {
            DynamicCause::ICacheMiss => 'i',
            DynamicCause::ItbMiss => 'I',
            DynamicCause::DCacheMiss => 'd',
            DynamicCause::DtbMiss => 'D',
            DynamicCause::WriteBuffer => 'w',
            DynamicCause::BranchMispredict => 'p',
            DynamicCause::ImulBusy => 'm',
            DynamicCause::FdivBusy => 'f',
            DynamicCause::Other => 'o',
            DynamicCause::Unexplained => '?',
        }
    }

    /// The label used in procedure summaries (Figure 4).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            DynamicCause::ICacheMiss => "I-cache (not ITB)",
            DynamicCause::ItbMiss => "ITB/I-cache miss",
            DynamicCause::DCacheMiss => "D-cache miss",
            DynamicCause::DtbMiss => "DTB miss",
            DynamicCause::WriteBuffer => "Write buffer",
            DynamicCause::BranchMispredict => "Branch mispredict",
            DynamicCause::ImulBusy => "IMULL busy",
            DynamicCause::FdivBusy => "FDIV busy",
            DynamicCause::Other => "Other",
            DynamicCause::Unexplained => "Unexplained stall",
        }
    }
}

/// One surviving explanation for an instruction's dynamic stall.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Culprit {
    /// The cause.
    pub cause: DynamicCause,
    /// Procedure-relative index of the instruction blamed for the stall
    /// (e.g. the load whose miss starves this instruction), when known.
    pub culprit_insn: Option<usize>,
    /// Upper bound on this cause's contribution in cycles per execution,
    /// when event samples allow one (§6.3's IMISS bound).
    pub max_cycles: Option<f64>,
}

/// Per-procedure event-sample vectors (one entry per instruction), when
/// the corresponding event was monitored.
#[derive(Clone, Copy, Debug, Default)]
pub struct EventSamples<'a> {
    /// IMISS samples.
    pub imiss: Option<&'a [u64]>,
    /// DMISS samples.
    pub dmiss: Option<&'a [u64]>,
    /// BRANCHMP samples.
    pub branchmp: Option<&'a [u64]>,
    /// DTB miss samples.
    pub dtbmiss: Option<&'a [u64]>,
    /// ITB miss samples.
    pub itbmiss: Option<&'a [u64]>,
}

/// Culprit-analysis tuning.
#[derive(Clone, Copy, Debug)]
pub struct CulpritConfig {
    /// I-cache line size in bytes.
    pub icache_line: u64,
    /// Page size in bytes (for the ITB rule).
    pub page_bytes: u64,
    /// Dynamic stalls below this (cycles per execution) are not analyzed.
    pub dyn_stall_threshold: f64,
    /// Predecessors executed less than this fraction of the stalled
    /// instruction's frequency are ignored in CFG-based rules.
    pub freq_ignore_frac: f64,
    /// How many instructions back to search for a feeding load.
    pub load_window: usize,
    /// An event bound below this many cycles per execution rules the
    /// cause out entirely.
    pub bound_epsilon: f64,
}

impl Default for CulpritConfig {
    fn default() -> CulpritConfig {
        CulpritConfig {
            icache_line: 32,
            page_bytes: 8192,
            dyn_stall_threshold: 0.4,
            freq_ignore_frac: 0.1,
            load_window: 12,
            bound_epsilon: 0.05,
        }
    }
}

/// Computes, for each instruction of the procedure, its surviving dynamic
/// culprits (empty when the instruction has no significant dynamic stall).
#[must_use]
pub fn find_culprits(
    cfg: &Cfg,
    schedules: &[BlockSchedule],
    freqs: &ProcFrequencies,
    samples: &[u64],
    events: &EventSamples<'_>,
    model: &PipelineModel,
    cc: &CulpritConfig,
) -> Vec<Vec<Culprit>> {
    let n = cfg.insns.len();
    let mut out = vec![Vec::new(); n];
    for (b, blk) in cfg.blocks.iter().enumerate() {
        let base = (blk.start_word - cfg.start_word) as usize;
        let sched = &schedules[b];
        for (k, entry) in sched.entries.iter().enumerate() {
            let i = base + k;
            let f = freqs.insn_freq[i];
            if f <= 0.0 {
                continue;
            }
            let dyn_stall = samples[i] as f64 / f - entry.m as f64;
            if dyn_stall < cc.dyn_stall_threshold {
                continue;
            }
            out[i] = candidates_for(
                cfg, b, k, i, f, dyn_stall, freqs, samples, events, model, cc,
            );
        }
    }
    out
}

#[allow(clippy::too_many_arguments)]
fn candidates_for(
    cfg: &Cfg,
    b: usize,
    k: usize,
    i: usize,
    f: f64,
    dyn_stall: f64,
    freqs: &ProcFrequencies,
    samples: &[u64],
    events: &EventSamples<'_>,
    model: &PipelineModel,
    cc: &CulpritConfig,
) -> Vec<Culprit> {
    let _ = samples;
    let insn = &cfg.insns[i];
    let class = classify(insn);
    let blk = &cfg.blocks[b];
    let word = blk.start_word + k as u32;
    let addr = u64::from(word) * 4;
    let at_block_head = k == 0;
    let mut cands: Vec<Culprit> = Vec::new();

    // --- I-cache / ITB -------------------------------------------------------
    let icache_possible =
        fetch_miss_possible(cfg, b, i, at_block_head, addr, freqs, cc, cc.icache_line);
    if icache_possible {
        let bound = event_bound(events.imiss, i, 0, f, f64_from(model.icache_memory_penalty));
        if bound.is_none_or(|x| x > cc.bound_epsilon) {
            cands.push(Culprit {
                cause: DynamicCause::ICacheMiss,
                culprit_insn: None,
                max_cycles: bound,
            });
        }
    }
    let itb_possible =
        fetch_miss_possible(cfg, b, i, at_block_head, addr, freqs, cc, cc.page_bytes);
    if itb_possible {
        let bound = event_bound(events.itbmiss, i, 0, f, f64_from(model.itb_miss_penalty));
        if bound.is_none_or(|x| x > cc.bound_epsilon) {
            cands.push(Culprit {
                cause: DynamicCause::ItbMiss,
                culprit_insn: None,
                max_cycles: bound,
            });
        }
    }

    // --- D-cache miss of a feeding load --------------------------------------
    let block_base = (blk.start_word - cfg.start_word) as usize;
    let reads = insn.reads();
    let mut feeding_load = None;
    for back in 1..=cc.load_window.min(k) {
        let j = i - back;
        let prev = &cfg.insns[j];
        if prev.is_load() {
            if let Some(w) = prev.writes() {
                if reads.contains(&w) {
                    feeding_load = Some(j);
                    break;
                }
            }
        }
    }
    if let Some(j) = feeding_load {
        let window_lo = j;
        let bound = event_window_bound(
            events.dmiss,
            window_lo,
            i,
            f,
            f64_from(model.memory_latency),
        );
        if bound.is_none_or(|x| x > cc.bound_epsilon) {
            cands.push(Culprit {
                cause: DynamicCause::DCacheMiss,
                culprit_insn: Some(j),
                max_cycles: bound,
            });
        }
    }
    let _ = block_base;

    // --- DTB (memory operations only) -----------------------------------------
    if insn.is_memory() {
        let bound = event_bound(events.dtbmiss, i, 0, f, f64_from(model.dtb_miss_penalty));
        if bound.is_none_or(|x| x > cc.bound_epsilon) {
            cands.push(Culprit {
                cause: DynamicCause::DtbMiss,
                culprit_insn: None,
                max_cycles: bound,
            });
        }
    }

    // --- write buffer (stores only) --------------------------------------------
    if insn.is_store() {
        cands.push(Culprit {
            cause: DynamicCause::WriteBuffer,
            culprit_insn: None,
            max_cycles: None,
        });
    }

    // --- branch misprediction -----------------------------------------------
    if at_block_head {
        let mispredictable_pred = significant_preds(cfg, b, freqs, f, cc)
            .into_iter()
            .any(|p| {
                matches!(
                    last_insn(cfg, p),
                    Instruction::CondBr { .. } | Instruction::Jmp { .. }
                )
            });
        if mispredictable_pred {
            // The skid smears BRANCHMP samples a few instructions past
            // the branch; look at a short window from this head.
            let bound = event_window_bound(
                events.branchmp,
                i,
                (i + 2).min(cfg.insns.len() - 1),
                f,
                f64_from(model.mispredict_penalty),
            );
            if bound.is_none_or(|x| x > cc.bound_epsilon) {
                cands.push(Culprit {
                    cause: DynamicCause::BranchMispredict,
                    culprit_insn: None,
                    max_cycles: bound,
                });
            }
        }
    }

    // --- non-pipelined units ----------------------------------------------------
    if class == InsnClass::IntMul {
        if let Some(j) = recent_of_class(cfg, i, k, cc.load_window, InsnClass::IntMul) {
            cands.push(Culprit {
                cause: DynamicCause::ImulBusy,
                culprit_insn: Some(j),
                max_cycles: None,
            });
        }
    }
    if class == InsnClass::FpDiv {
        if let Some(j) = recent_of_class(cfg, i, k, cc.load_window, InsnClass::FpDiv) {
            cands.push(Culprit {
                cause: DynamicCause::FdivBusy,
                culprit_insn: Some(j),
                max_cycles: None,
            });
        }
    }

    // --- PAL blind spot -----------------------------------------------------
    if k > 0 && matches!(cfg.insns[i - 1], Instruction::CallPal { .. }) {
        cands.push(Culprit {
            cause: DynamicCause::Other,
            culprit_insn: Some(i - 1),
            max_cycles: None,
        });
    }

    if cands.is_empty() {
        cands.push(Culprit {
            cause: DynamicCause::Unexplained,
            culprit_insn: None,
            max_cycles: Some(dyn_stall),
        });
    }
    cands
}

/// The paper's fetch-miss elimination rule, parameterized by granule size
/// (I-cache line or page): a fetch miss is possible unless every
/// significant immediate predecessor instruction lies in the same granule.
#[allow(clippy::too_many_arguments)]
fn fetch_miss_possible(
    cfg: &Cfg,
    b: usize,
    i: usize,
    at_block_head: bool,
    addr: u64,
    freqs: &ProcFrequencies,
    cc: &CulpritConfig,
    granule: u64,
) -> bool {
    if !at_block_head {
        // Mid-block: sequential execution can only miss at a granule
        // boundary.
        return addr.is_multiple_of(granule);
    }
    let f = freqs.insn_freq[i].max(1e-9);
    let preds = significant_preds(cfg, b, freqs, f, cc);
    if b == cfg.entry.0 || preds.is_empty() {
        // Called (or entered) from elsewhere: cannot rule the miss out.
        return true;
    }
    preds.into_iter().any(|p| {
        let pb = &cfg.blocks[p];
        let last_addr = u64::from(pb.end_word() - 1) * 4;
        last_addr / granule != addr / granule
    })
}

/// Predecessor blocks whose frequency is significant relative to `f`.
fn significant_preds(
    cfg: &Cfg,
    b: usize,
    freqs: &ProcFrequencies,
    f: f64,
    cc: &CulpritConfig,
) -> Vec<usize> {
    cfg.in_edges(crate::cfg::BlockId(b))
        .iter()
        .copied()
        .filter(|&e| freqs.edge_freq[e].is_none_or(|est| est.value >= cc.freq_ignore_frac * f))
        .map(|e| cfg.edges[e].from.0)
        .collect()
}

fn last_insn(cfg: &Cfg, b: usize) -> &Instruction {
    let blk = &cfg.blocks[b];
    &cfg.insns[(blk.end_word() - cfg.start_word - 1) as usize]
}

fn recent_of_class(
    cfg: &Cfg,
    i: usize,
    k: usize,
    window: usize,
    class: InsnClass,
) -> Option<usize> {
    (1..=window.min(k))
        .map(|back| i - back)
        .find(|&j| classify(&cfg.insns[j]) == class)
}

fn event_bound(events: Option<&[u64]>, i: usize, _pad: usize, f: f64, penalty: f64) -> Option<f64> {
    events.map(|ev| ev.get(i).copied().unwrap_or(0) as f64 / f * penalty)
}

fn event_window_bound(
    events: Option<&[u64]>,
    lo: usize,
    hi: usize,
    f: f64,
    penalty: f64,
) -> Option<f64> {
    events.map(|ev| {
        let sum: u64 = ev[lo..=hi.min(ev.len() - 1)].iter().sum();
        sum as f64 / f * penalty
    })
}

fn f64_from(x: u64) -> f64 {
    x as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::equiv::frequency_classes;
    use crate::frequency::{estimate_frequencies, EstimatorConfig};
    use dcpi_isa::asm::Asm;
    use dcpi_isa::reg::Reg;

    /// Builds the copy loop and returns (cfg, schedules, freqs, samples).
    fn copy_loop() -> (Cfg, Vec<BlockSchedule>, ProcFrequencies, Vec<u64>) {
        use dcpi_isa::insn::{Instruction, IntOp, RegOrLit};
        let mut a = Asm::new("/t");
        a.proc("pad");
        a.halt();
        a.halt();
        a.proc("copy");
        let r = Reg::T1;
        let w = Reg::T2;
        let top = a.here();
        a.ldq(Reg::T4, 0, r);
        a.addq_lit(Reg::T0, 4, Reg::T0);
        a.ldq(Reg::T5, 8, r);
        a.ldq(Reg::T6, 16, r);
        a.ldq(Reg::A0, 24, r);
        a.lda(r, 32, r);
        a.stq(Reg::T4, 0, w);
        a.emit(Instruction::IntOp {
            op: IntOp::Cmpult,
            ra: Reg::T0,
            rb: RegOrLit::Reg(Reg::V0),
            rc: Reg::T4,
        });
        a.stq(Reg::T5, 8, w);
        a.stq(Reg::T6, 16, w);
        a.stq(Reg::A0, 24, w);
        a.lda(w, 32, w);
        a.bne(Reg::T4, top);
        a.halt();
        let image = a.finish();
        let sym = image.symbol_named("copy").unwrap().clone();
        let cfg = Cfg::build(&image, &sym).unwrap();
        let model = PipelineModel::default();
        let schedules: Vec<BlockSchedule> = cfg
            .blocks
            .iter()
            .map(|b| {
                let s = (b.start_word - cfg.start_word) as usize;
                model.schedule_block(u64::from(b.start_word), &cfg.insns[s..s + b.len as usize])
            })
            .collect();
        let classes = frequency_classes(&cfg);
        let samples = vec![
            3126, 0, 1636, 390, 1482, 0, 27766, 0, 1493, 174_727, 1548, 0, 1586, 0,
        ];
        let freqs = estimate_frequencies(
            &cfg,
            &classes,
            &schedules,
            &samples,
            &EstimatorConfig::default(),
        );
        (cfg, schedules, freqs, samples)
    }

    fn causes(culprits: &[Culprit]) -> Vec<DynamicCause> {
        culprits.iter().map(|c| c.cause).collect()
    }

    /// Figure 2: the stq at 009828 stalls with bubbles `dwD` — D-cache
    /// miss (incurred by the ldq at 009810), write-buffer overflow, and
    /// DTB miss.
    #[test]
    fn copy_loop_stq_gets_dwd() {
        let (cfg, schedules, freqs, samples) = copy_loop();
        let model = PipelineModel::default();
        let culprits = find_culprits(
            &cfg,
            &schedules,
            &freqs,
            &samples,
            &EventSamples::default(),
            &model,
            &CulpritConfig::default(),
        );
        // stq t4 is instruction 6 of the loop body.
        let c = causes(&culprits[6]);
        assert!(c.contains(&DynamicCause::DCacheMiss));
        assert!(c.contains(&DynamicCause::WriteBuffer));
        assert!(c.contains(&DynamicCause::DtbMiss));
        // The D-cache culprit is the ldq at index 0, which produced t4.
        let d = culprits[6]
            .iter()
            .find(|c| c.cause == DynamicCause::DCacheMiss)
            .unwrap();
        assert_eq!(d.culprit_insn, Some(0));
        // Same three reasons for the large stall at stq t6 (index 9):
        // its data comes from the ldq at index 3.
        let c9 = causes(&culprits[9]);
        assert!(c9.contains(&DynamicCause::DCacheMiss));
        assert!(c9.contains(&DynamicCause::WriteBuffer));
        assert!(c9.contains(&DynamicCause::DtbMiss));
        assert_eq!(
            culprits[9]
                .iter()
                .find(|c| c.cause == DynamicCause::DCacheMiss)
                .unwrap()
                .culprit_insn,
            Some(3)
        );
    }

    /// Figure 2: the loop head (ldq at 009810) shows `pD` — branch
    /// mispredict and DTB miss.
    #[test]
    fn copy_loop_head_gets_p_and_d() {
        let (cfg, schedules, freqs, samples) = copy_loop();
        let model = PipelineModel::default();
        let culprits = find_culprits(
            &cfg,
            &schedules,
            &freqs,
            &samples,
            &EventSamples::default(),
            &model,
            &CulpritConfig::default(),
        );
        let c = causes(&culprits[0]);
        assert!(c.contains(&DynamicCause::BranchMispredict));
        assert!(c.contains(&DynamicCause::DtbMiss));
        assert!(
            !c.contains(&DynamicCause::DCacheMiss),
            "no load feeds the ldq's operands"
        );
        assert!(!c.contains(&DynamicCause::WriteBuffer), "not a store");
    }

    #[test]
    fn imiss_samples_rule_out_icache() {
        let (cfg, schedules, freqs, samples) = copy_loop();
        let model = PipelineModel::default();
        let zeros = vec![0u64; cfg.insns.len()];
        let with_imiss = EventSamples {
            imiss: Some(&zeros),
            ..EventSamples::default()
        };
        let culprits = find_culprits(
            &cfg,
            &schedules,
            &freqs,
            &samples,
            &with_imiss,
            &model,
            &CulpritConfig::default(),
        );
        for cs in &culprits {
            assert!(
                !causes(cs).contains(&DynamicCause::ICacheMiss),
                "zero IMISS must eliminate the I-cache candidate"
            );
        }
    }

    #[test]
    fn dtb_samples_rule_out_dtb() {
        let (cfg, schedules, freqs, samples) = copy_loop();
        let model = PipelineModel::default();
        let zeros = vec![0u64; cfg.insns.len()];
        let ev = EventSamples {
            dtbmiss: Some(&zeros),
            ..EventSamples::default()
        };
        let culprits = find_culprits(
            &cfg,
            &schedules,
            &freqs,
            &samples,
            &ev,
            &model,
            &CulpritConfig::default(),
        );
        assert!(!causes(&culprits[6]).contains(&DynamicCause::DtbMiss));
        // Write buffer and D-cache remain.
        assert!(causes(&culprits[6]).contains(&DynamicCause::WriteBuffer));
    }

    #[test]
    fn imiss_samples_bound_icache_contribution() {
        let (cfg, schedules, freqs, samples) = copy_loop();
        let model = PipelineModel::default();
        let mut ev = vec![0u64; cfg.insns.len()];
        ev[0] = 100; // some IMISS samples at the loop head
        let es = EventSamples {
            imiss: Some(&ev),
            ..EventSamples::default()
        };
        let culprits = find_culprits(
            &cfg,
            &schedules,
            &freqs,
            &samples,
            &es,
            &model,
            &CulpritConfig::default(),
        );
        let ic = culprits[0]
            .iter()
            .find(|c| c.cause == DynamicCause::ICacheMiss)
            .expect("icache possible at loop head with IMISS evidence");
        let bound = ic.max_cycles.unwrap();
        // 100 misses / F ≈ 1549 × 40-cycle fill ≈ 2.6 cycles/execution.
        assert!(bound > 1.0 && bound < 5.0, "bound = {bound}");
    }

    #[test]
    fn unexplained_when_everything_ruled_out() {
        // A pure ALU instruction mid-line with a huge stall and all event
        // profiles zero: nothing survives → Unexplained.
        let mut a = Asm::new("/t");
        a.proc("f");
        for _ in 0..8 {
            a.addq_lit(Reg::T0, 1, Reg::T0);
        }
        a.halt();
        let image = a.finish();
        let sym = image.symbols()[0].clone();
        let cfg = Cfg::build(&image, &sym).unwrap();
        let model = PipelineModel::default();
        let schedules: Vec<BlockSchedule> = cfg
            .blocks
            .iter()
            .map(|b| {
                let s = (b.start_word - cfg.start_word) as usize;
                model.schedule_block(u64::from(b.start_word), &cfg.insns[s..s + b.len as usize])
            })
            .collect();
        let classes = frequency_classes(&cfg);
        let samples = vec![500, 500, 500, 20_000, 500, 500, 500, 500, 0];
        let freqs = estimate_frequencies(
            &cfg,
            &classes,
            &schedules,
            &samples,
            &EstimatorConfig::default(),
        );
        let zeros = vec![0u64; cfg.insns.len()];
        let ev = EventSamples {
            imiss: Some(&zeros),
            dmiss: Some(&zeros),
            branchmp: Some(&zeros),
            dtbmiss: Some(&zeros),
            itbmiss: Some(&zeros),
        };
        let culprits = find_culprits(
            &cfg,
            &schedules,
            &freqs,
            &samples,
            &ev,
            &model,
            &CulpritConfig::default(),
        );
        // Instruction 3 (not at a line boundary: word 3 of the proc...)
        // has the big stall.
        let idx = 3;
        assert_eq!(causes(&culprits[idx]), vec![DynamicCause::Unexplained]);
        let u = culprits[idx][0];
        assert!(u.max_cycles.unwrap() > 30.0);
    }

    #[test]
    fn no_culprits_without_significant_stall() {
        let (cfg, schedules, freqs, samples) = copy_loop();
        let model = PipelineModel::default();
        let culprits = find_culprits(
            &cfg,
            &schedules,
            &freqs,
            &samples,
            &EventSamples::default(),
            &model,
            &CulpritConfig::default(),
        );
        // The dual-issued addq (index 1, zero samples) has no stall.
        assert!(culprits[1].is_empty());
        // lda at index 5 also dual-issues cleanly.
        assert!(culprits[5].is_empty());
    }

    #[test]
    fn pal_blind_spot_yields_other() {
        let mut a = Asm::new("/t");
        a.proc("f");
        a.addq_lit(Reg::T0, 1, Reg::T0);
        a.syscall();
        a.addq_lit(Reg::T1, 1, Reg::T1); // absorbs kernel time
        a.halt();
        let image = a.finish();
        let sym = image.symbols()[0].clone();
        let cfg = Cfg::build(&image, &sym).unwrap();
        let model = PipelineModel::default();
        let schedules: Vec<BlockSchedule> = cfg
            .blocks
            .iter()
            .map(|b| {
                let s = (b.start_word - cfg.start_word) as usize;
                model.schedule_block(u64::from(b.start_word), &cfg.insns[s..s + b.len as usize])
            })
            .collect();
        let classes = frequency_classes(&cfg);
        let samples = vec![200, 200, 120_000, 0];
        let freqs = estimate_frequencies(
            &cfg,
            &classes,
            &schedules,
            &samples,
            &EstimatorConfig::default(),
        );
        let culprits = find_culprits(
            &cfg,
            &schedules,
            &freqs,
            &samples,
            &EventSamples::default(),
            &model,
            &CulpritConfig::default(),
        );
        let c = causes(&culprits[2]);
        assert!(c.contains(&DynamicCause::Other), "got {c:?}");
    }
}
