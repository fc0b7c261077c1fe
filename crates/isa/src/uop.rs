//! Flat pre-decoded micro-op encoding: the one executable form of an
//! instruction, and the only one the simulator issues, times and retires.
//!
//! Matching the nested [`Instruction`] enum per retire would re-decode
//! register fields, displacement sign-extension and the literal/register
//! operand split every time. A [`Uop`] packs the *complete* executable
//! form of one instruction into a flat `Copy` record computed once per
//! image at registration time (from the decoded text and its [`InsnMeta`]
//! side table, which exists only as this compiler's input):
//!
//! * operand registers as raw unified indices (`a`, `b`, `w`),
//! * the displacement pre-extended to the exact 64-bit value the ALU adds
//!   (memory byte offsets, `ldah`'s `disp << 16`, and branch targets as a
//!   byte delta relative to the branch itself, including the `+4`),
//! * an 8-bit literal second operand folded into `b` (flag [`uflag::LIT`]),
//! * the issue class, memory/control flags, scoreboard read indices, and
//!   result latency copied from the side table,
//! * whether the next instruction passes the static half of dual issue
//!   with this one as senior (flag [`uflag::PAIRS`], from
//!   [`may_pair`]) — fixed per instruction
//!   pair, so the simulator tests only the dynamic half per group.
//!
//! `call_pal` compiles to [`UopKind::Pal`] carrying its function: the
//! walker retires the group like any other and then acts on the function
//! (end the walk, charge the kernel's time). Its class stays `Pal` and it
//! is flagged as control, so it never pairs, neither as senior nor as
//! junior.
//!
//! Invariant: `compile_uops` agrees field-for-field with the canonical
//! `Instruction` accessors and `InsnMeta` — asserted over every encodable
//! instruction shape in the tests below, on the generator `meta.rs` uses.

use crate::insn::{BrCond, FpOp, Instruction, IntOp, PalFunc, RegOrLit};
use crate::meta::InsnMeta;
use crate::pipeline::{may_pair, InsnClass};
use crate::reg::Reg;

/// Sentinel for "no destination register" (same convention as the side
/// table).
pub const NO_WRITE: u8 = u8::MAX;

/// Bit flags of a micro-op's issue-relevant properties.
pub mod uflag {
    /// Memory load.
    pub const LOAD: u8 = 1 << 0;
    /// Memory store.
    pub const STORE: u8 = 1 << 1;
    /// Control transfer.
    pub const CONTROL: u8 = 1 << 2;
    /// The `b` field is an 8-bit literal, not a register index.
    pub const LIT: u8 = 1 << 3;
    /// The next instruction passes the static half of dual issue with
    /// this one as its senior ([`may_pair`](crate::pipeline::may_pair)),
    /// so the simulator tests only the dynamic half per group.
    pub const PAIRS: u8 = 1 << 4;
}

/// The monomorphic handler a micro-op runs: one flat discriminant per
/// executable shape, with the operation sub-code carried inline so the
/// dispatch loop does a single jump-table switch.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum UopKind {
    /// `lda`: `w = regs[b] + disp`.
    Lda,
    /// `ldah`: `w = regs[b] + disp` (disp pre-shifted by 16).
    Ldah,
    /// `ldq`: 64-bit load.
    Ldq,
    /// `ldl`: sign-extending 32-bit load.
    Ldl,
    /// `ldt`: FP 64-bit load.
    Ldt,
    /// `stq`: 64-bit store of `regs[a]`.
    Stq,
    /// `stl`: 32-bit store of `regs[a]`.
    Stl,
    /// `stt`: FP 64-bit store of `regs[a]`.
    Stt,
    /// Integer operate: `w = op(regs[a], b-or-lit)`.
    Int(IntOp),
    /// FP operate: `w = op(regs[a], regs[b])`.
    Fp(FpOp),
    /// Conditional branch testing `regs[a]`; taken target is `pc + disp`.
    Cond(BrCond),
    /// Unconditional branch writing the return address to `w`.
    Br,
    /// Indirect jump through `regs[b]`, return address to `w`.
    Jmp,
    /// `call_pal`: no architectural effect inside the group; the walker
    /// acts on the function once the group has retired.
    Pal(PalFunc),
}

/// One pre-decoded micro-op (32 bytes, `Copy`), positional with the
/// image's decoded text and side table.
#[derive(Clone, Copy, Debug)]
pub struct Uop {
    /// The handler discriminant.
    pub kind: UopKind,
    /// Issue class (matches the side table).
    pub class: InsnClass,
    /// [`uflag`] bits.
    pub flags: u8,
    /// First source register index (store data, tested register, `ra`/`fa`).
    pub a: u8,
    /// Base / second-source register index, or the literal when
    /// [`uflag::LIT`] is set.
    pub b: u8,
    /// Destination register index, [`NO_WRITE`] if none (zero-register
    /// writes compile to [`NO_WRITE`], so raw-index writes never touch the
    /// hardwired zeros).
    pub w: u8,
    /// Number of scoreboard read operands (`r0`, `r1` valid up to this).
    pub nreads: u8,
    /// First scoreboard read index (zero registers omitted, as in the
    /// side table).
    pub r0: u8,
    /// Second scoreboard read index.
    pub r1: u8,
    /// Pre-extended displacement: the exact 64-bit value added to the base
    /// register (memory), to the register (`lda`/`ldah`), or to the branch
    /// PC (branches: `(1 + disp) * 4` as a two's-complement byte delta).
    pub disp: u64,
    /// Register-result latency charged at commit for non-load writers.
    pub result_latency: u64,
}

impl Uop {
    /// Compiles one instruction against its side-table row.
    #[must_use]
    pub fn new(insn: &Instruction, meta: &InsnMeta) -> Uop {
        let reads = meta.reads();
        let mut flags = 0;
        if meta.is_load() {
            flags |= uflag::LOAD;
        }
        if meta.is_store() {
            flags |= uflag::STORE;
        }
        if meta.is_control() {
            flags |= uflag::CONTROL;
        }
        let mut op = Uop {
            // Placeholder: every arm of the match below sets the kind.
            kind: UopKind::Pal(PalFunc::Noop),
            class: meta.class,
            flags,
            a: Reg::ZERO.index() as u8,
            b: Reg::ZERO.index() as u8,
            w: meta.write_index().map_or(NO_WRITE, |w| w as u8),
            nreads: reads.len() as u8,
            r0: reads.first().map_or(0, |r| r.index() as u8),
            r1: reads.get(1).map_or(0, |r| r.index() as u8),
            disp: 0,
            result_latency: meta.result_latency,
        };
        let mem_disp = |d: i16| d as i64 as u64;
        let br_disp = |d: i32| ((1 + i64::from(d)) * 4) as u64;
        match *insn {
            Instruction::Lda { rb, disp, .. } => {
                op.kind = UopKind::Lda;
                op.b = rb.index() as u8;
                op.disp = mem_disp(disp);
            }
            Instruction::Ldah { rb, disp, .. } => {
                op.kind = UopKind::Ldah;
                op.b = rb.index() as u8;
                op.disp = ((i64::from(disp)) << 16) as u64;
            }
            Instruction::Ldq { rb, disp, .. } => {
                op.kind = UopKind::Ldq;
                op.b = rb.index() as u8;
                op.disp = mem_disp(disp);
            }
            Instruction::Ldl { rb, disp, .. } => {
                op.kind = UopKind::Ldl;
                op.b = rb.index() as u8;
                op.disp = mem_disp(disp);
            }
            Instruction::Ldt { rb, disp, .. } => {
                op.kind = UopKind::Ldt;
                op.b = rb.index() as u8;
                op.disp = mem_disp(disp);
            }
            Instruction::Stq { ra, rb, disp } => {
                op.kind = UopKind::Stq;
                op.a = ra.index() as u8;
                op.b = rb.index() as u8;
                op.disp = mem_disp(disp);
            }
            Instruction::Stl { ra, rb, disp } => {
                op.kind = UopKind::Stl;
                op.a = ra.index() as u8;
                op.b = rb.index() as u8;
                op.disp = mem_disp(disp);
            }
            Instruction::Stt { fa, rb, disp } => {
                op.kind = UopKind::Stt;
                op.a = fa.index() as u8;
                op.b = rb.index() as u8;
                op.disp = mem_disp(disp);
            }
            Instruction::IntOp {
                op: iop, ra, rb, ..
            } => {
                op.kind = UopKind::Int(iop);
                op.a = ra.index() as u8;
                match rb {
                    RegOrLit::Reg(r) => op.b = r.index() as u8,
                    RegOrLit::Lit(l) => {
                        op.b = l;
                        op.flags |= uflag::LIT;
                    }
                }
            }
            Instruction::FpOp {
                op: fop, fa, fb, ..
            } => {
                op.kind = UopKind::Fp(fop);
                op.a = fa.index() as u8;
                op.b = fb.index() as u8;
            }
            Instruction::CondBr { cond, ra, disp } => {
                op.kind = UopKind::Cond(cond);
                op.a = ra.index() as u8;
                op.disp = br_disp(disp);
            }
            Instruction::Br { disp, .. } => {
                op.kind = UopKind::Br;
                op.disp = br_disp(disp);
            }
            Instruction::Jmp { rb, .. } => {
                op.kind = UopKind::Jmp;
                op.b = rb.index() as u8;
            }
            Instruction::CallPal { func } => op.kind = UopKind::Pal(func),
        }
        op
    }

    /// True for loads.
    #[inline]
    #[must_use]
    pub fn is_load(&self) -> bool {
        self.flags & uflag::LOAD != 0
    }

    /// True for stores.
    #[inline]
    #[must_use]
    pub fn is_store(&self) -> bool {
        self.flags & uflag::STORE != 0
    }

    /// True for loads and stores.
    #[inline]
    #[must_use]
    pub fn is_memory(&self) -> bool {
        self.flags & (uflag::LOAD | uflag::STORE) != 0
    }

    /// True for control transfers (including `call_pal`).
    #[inline]
    #[must_use]
    pub fn is_control(&self) -> bool {
        self.flags & uflag::CONTROL != 0
    }

    /// True when `b` holds an 8-bit literal.
    #[inline]
    #[must_use]
    pub fn is_lit(&self) -> bool {
        self.flags & uflag::LIT != 0
    }

    /// True when the next micro-op may dual-issue with this one as far as
    /// static properties decide ([`uflag::PAIRS`]).
    #[inline]
    #[must_use]
    pub fn pairs(&self) -> bool {
        self.flags & uflag::PAIRS != 0
    }
}

/// Compiles the handler chain for a whole text segment (positional with
/// `insns` and `meta`), flagging every micro-op whose successor passes
/// [`may_pair`] with [`uflag::PAIRS`].
///
/// # Panics
///
/// Panics if the side table is not positional with the text.
#[must_use]
pub fn compile_uops(insns: &[Instruction], meta: &[InsnMeta]) -> Vec<Uop> {
    assert_eq!(insns.len(), meta.len(), "side table must be positional");
    let mut ops: Vec<Uop> = insns
        .iter()
        .zip(meta)
        .map(|(i, m)| Uop::new(i, m))
        .collect();
    for (op, pair) in ops.iter_mut().zip(insns.windows(2)) {
        if may_pair(&pair[0], &pair[1]) {
            op.flags |= uflag::PAIRS;
        }
    }
    ops
}

/// Histogram of straight-line chain lengths: the run lengths between
/// control transfers (each basic block's instruction count, with the
/// terminating control instruction included). Used by the dispatch stats
/// that `experiments report` prints.
#[must_use]
pub fn chain_length_histogram(ops: &[Uop]) -> std::collections::BTreeMap<usize, u64> {
    let mut hist = std::collections::BTreeMap::new();
    let mut run = 0usize;
    for op in ops {
        run += 1;
        if op.is_control() {
            *hist.entry(run).or_insert(0) += 1;
            run = 0;
        }
    }
    if run > 0 {
        *hist.entry(run).or_insert(0) += 1;
    }
    hist
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::meta::{side_table, tests::samples};
    use crate::pipeline::PipelineModel;

    #[test]
    fn uops_match_canonical_derivations() {
        let model = PipelineModel::default();
        let insns = samples();
        let meta = side_table(&insns, &model);
        let ops = compile_uops(&insns, &meta);
        for ((insn, m), op) in insns.iter().zip(&meta).zip(&ops) {
            assert_eq!(op.class, m.class, "{insn}");
            assert_eq!(op.is_load(), insn.is_load(), "{insn}");
            assert_eq!(op.is_store(), insn.is_store(), "{insn}");
            assert_eq!(op.is_memory(), insn.is_memory(), "{insn}");
            assert_eq!(op.is_control(), insn.is_control(), "{insn}");
            assert_eq!(op.result_latency, m.result_latency, "{insn}");
            // Scoreboard operands agree with the side table.
            let reads = m.reads();
            assert_eq!(op.nreads as usize, reads.len(), "{insn}");
            if let Some(r) = reads.first() {
                assert_eq!(op.r0 as usize, r.index(), "{insn}");
            }
            if let Some(r) = reads.get(1) {
                assert_eq!(op.r1 as usize, r.index(), "{insn}");
            }
            match m.write_index() {
                Some(w) => assert_eq!(op.w as usize, w, "{insn}"),
                None => assert_eq!(op.w, NO_WRITE, "{insn}"),
            }
            // `call_pal` keeps its function and nothing else becomes one.
            match *insn {
                Instruction::CallPal { func } => assert_eq!(op.kind, UopKind::Pal(func)),
                _ => assert!(!matches!(op.kind, UopKind::Pal(_)), "{insn}"),
            }
        }
    }

    #[test]
    fn pairs_flag_is_the_static_pairing_rule() {
        let model = PipelineModel::default();
        let insns = samples();
        let ops = compile_uops(&insns, &side_table(&insns, &model));
        let mut pairs = 0;
        for (w, pair) in insns.windows(2).enumerate() {
            let want = may_pair(&pair[0], &pair[1]);
            assert_eq!(ops[w].pairs(), want, "{} ; {}", pair[0], pair[1]);
            pairs += usize::from(want);
        }
        // Both verdicts occur, and the last micro-op has no successor.
        assert!(pairs > 0 && pairs < insns.len() - 1, "{pairs}");
        assert!(!ops.last().unwrap().pairs());
    }

    #[test]
    fn displacements_are_pre_extended() {
        let model = PipelineModel::default();
        let insns = vec![
            Instruction::Ldq {
                ra: Reg::T0,
                rb: Reg::T1,
                disp: -8,
            },
            Instruction::Ldah {
                ra: Reg::T0,
                rb: Reg::T1,
                disp: -1,
            },
            Instruction::CondBr {
                cond: BrCond::Bne,
                ra: Reg::T0,
                disp: -3,
            },
            Instruction::Br {
                ra: Reg::RA,
                disp: 9,
            },
        ];
        let meta = side_table(&insns, &model);
        let ops = compile_uops(&insns, &meta);
        // Memory: sign-extended byte offset.
        assert_eq!(ops[0].disp, (-8i64) as u64);
        // ldah: shifted into the upper half.
        assert_eq!(ops[1].disp, ((-1i64) << 16) as u64);
        // Branches: byte delta including the +1 word, so target = pc + disp.
        assert_eq!(ops[2].disp, ((1 - 3i64) * 4) as u64);
        assert_eq!(ops[3].disp, ((1 + 9i64) * 4) as u64);
        // Cross-check against the canonical target computation.
        let pc = dcpi_core::Addr(0x1_0040);
        assert_eq!(
            pc.0.wrapping_add(ops[2].disp),
            pc.offset_insns(1 - 3).0,
            "taken target matches offset_insns"
        );
    }

    #[test]
    fn literal_operand_is_flagged() {
        let model = PipelineModel::default();
        let insns = vec![
            Instruction::IntOp {
                op: IntOp::Addq,
                ra: Reg::T0,
                rb: RegOrLit::Lit(200),
                rc: Reg::T1,
            },
            Instruction::IntOp {
                op: IntOp::Addq,
                ra: Reg::T0,
                rb: RegOrLit::Reg(Reg::T2),
                rc: Reg::T1,
            },
        ];
        let meta = side_table(&insns, &model);
        let ops = compile_uops(&insns, &meta);
        assert!(ops[0].is_lit());
        assert_eq!(ops[0].b, 200);
        assert!(!ops[1].is_lit());
        assert_eq!(ops[1].b as usize, Reg::T2.index());
    }

    #[test]
    fn zero_register_writes_compile_to_no_write() {
        let model = PipelineModel::default();
        let insns = vec![
            Instruction::Lda {
                ra: Reg::ZERO,
                rb: Reg::T0,
                disp: 0,
            },
            Instruction::Br {
                ra: Reg::ZERO,
                disp: 1,
            },
        ];
        let meta = side_table(&insns, &model);
        let ops = compile_uops(&insns, &meta);
        assert_eq!(ops[0].w, NO_WRITE);
        assert_eq!(ops[1].w, NO_WRITE);
    }

    #[test]
    fn uop_stays_small() {
        assert!(
            std::mem::size_of::<Uop>() <= 32,
            "chain rows must stay cache-friendly: {} bytes",
            std::mem::size_of::<Uop>()
        );
    }

    #[test]
    fn histogram_counts_block_lengths() {
        let model = PipelineModel::default();
        // Two 3-instruction blocks ending in branches, one 2-instruction
        // straight-line tail.
        let insns = vec![
            Instruction::Lda {
                ra: Reg::T0,
                rb: Reg::T1,
                disp: 0,
            },
            Instruction::Lda {
                ra: Reg::T0,
                rb: Reg::T1,
                disp: 0,
            },
            Instruction::Br {
                ra: Reg::ZERO,
                disp: 0,
            },
            Instruction::Lda {
                ra: Reg::T0,
                rb: Reg::T1,
                disp: 0,
            },
            Instruction::Lda {
                ra: Reg::T0,
                rb: Reg::T1,
                disp: 0,
            },
            Instruction::CondBr {
                cond: BrCond::Beq,
                ra: Reg::T0,
                disp: -3,
            },
            Instruction::Lda {
                ra: Reg::T0,
                rb: Reg::T1,
                disp: 0,
            },
            Instruction::Lda {
                ra: Reg::T0,
                rb: Reg::T1,
                disp: 0,
            },
        ];
        let meta = side_table(&insns, &model);
        let ops = compile_uops(&insns, &meta);
        let hist = chain_length_histogram(&ops);
        assert_eq!(hist.get(&3), Some(&2));
        assert_eq!(hist.get(&2), Some(&1));
        assert_eq!(hist.values().sum::<u64>(), 3);
    }
}
