//! Precomputed per-instruction issue metadata: the input of the micro-op
//! compiler.
//!
//! The simulator's issue logic needs an instruction's issue class, read
//! and write register sets, and memory/control flags on every issue group.
//! Deriving those from the [`Instruction`] enum there would match on it
//! once per query. [`InsnMeta`] packs them into a small `Copy` record
//! computed **once per image at load time** (alongside the decoded text);
//! [`compile_uops`](crate::uop::compile_uops) copies each row into the
//! [`Uop`](crate::uop::Uop) the simulator executes, so the table itself is
//! not kept.
//!
//! The table also carries a latency hint from the [`PipelineModel`]: the
//! register-result latency the scoreboard charges when the instruction
//! commits (loads are excluded — their latency depends on the dynamic
//! cache outcome and is charged by the memory-timing path instead).
//!
//! Invariant: `InsnMeta::new(insn, model)` agrees exactly with
//! `classify(insn)`, `insn.reads()`, `insn.writes()`, and the `is_*`
//! predicates — asserted for every encodable instruction in the tests
//! below, so the executable form cannot drift from the canonical
//! derivations.

use crate::insn::{Instruction, Reads};
use crate::pipeline::{classify, InsnClass, PipelineModel};
use crate::reg::Reg;

/// Sentinel for "no destination register" in [`InsnMeta`]'s packed form.
const NO_WRITE: u8 = u8::MAX;

/// Bit flags of an instruction's issue-relevant properties.
mod flag {
    pub const LOAD: u8 = 1 << 0;
    pub const STORE: u8 = 1 << 1;
    pub const CONTROL: u8 = 1 << 2;
}

/// Precomputed issue metadata for one instruction (16 bytes, `Copy`).
#[derive(Clone, Copy, Debug)]
pub struct InsnMeta {
    /// The issue class ([`classify`]).
    pub class: InsnClass,
    /// Source registers (zero registers omitted).
    reads: Reads,
    /// Unified index of the destination register, [`NO_WRITE`] if none.
    write: u8,
    flags: u8,
    /// Register-result latency charged at commit for non-load writers
    /// (`PipelineModel::result_latency`, defaulted to 1).
    pub result_latency: u64,
}

impl InsnMeta {
    /// Derives the metadata for `insn` under `model`.
    #[must_use]
    pub fn new(insn: &Instruction, model: &PipelineModel) -> InsnMeta {
        let class = classify(insn);
        let mut flags = 0;
        if insn.is_load() {
            flags |= flag::LOAD;
        }
        if insn.is_store() {
            flags |= flag::STORE;
        }
        if insn.is_control() {
            flags |= flag::CONTROL;
        }
        InsnMeta {
            class,
            reads: insn.reads(),
            write: insn.writes().map_or(NO_WRITE, |w| w.index() as u8),
            flags,
            result_latency: model.result_latency(class).unwrap_or(1),
        }
    }

    /// The registers this instruction reads (matches [`Instruction::reads`]).
    #[inline]
    #[must_use]
    pub fn reads(&self) -> &[Reg] {
        &self.reads
    }

    /// The register this instruction writes (matches
    /// [`Instruction::writes`]).
    #[inline]
    #[must_use]
    pub fn writes(&self) -> Option<Reg> {
        (self.write != NO_WRITE).then(|| Reg::from_index(self.write))
    }

    /// Unified index of the written register without the `Reg` roundtrip,
    /// for direct scoreboard addressing.
    #[inline]
    #[must_use]
    pub fn write_index(&self) -> Option<usize> {
        (self.write != NO_WRITE).then_some(self.write as usize)
    }

    /// True for loads.
    #[inline]
    #[must_use]
    pub fn is_load(&self) -> bool {
        self.flags & flag::LOAD != 0
    }

    /// True for stores.
    #[inline]
    #[must_use]
    pub fn is_store(&self) -> bool {
        self.flags & flag::STORE != 0
    }

    /// True for loads and stores.
    #[inline]
    #[must_use]
    pub fn is_memory(&self) -> bool {
        self.flags & (flag::LOAD | flag::STORE) != 0
    }

    /// True for control transfers.
    #[inline]
    #[must_use]
    pub fn is_control(&self) -> bool {
        self.flags & flag::CONTROL != 0
    }
}

/// Builds the decoded side table for a whole text segment.
#[must_use]
pub fn side_table(insns: &[Instruction], model: &PipelineModel) -> Vec<InsnMeta> {
    insns.iter().map(|i| InsnMeta::new(i, model)).collect()
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::insn::{BrCond, FpOp, IntOp, PalFunc, RegOrLit};

    /// A generator covering every instruction shape with assorted
    /// registers, including zero-register corner cases. Shared with the
    /// micro-op tests in `uop.rs`.
    pub(crate) fn samples() -> Vec<Instruction> {
        let mut v = Vec::new();
        let regs = [Reg::V0, Reg::T0, Reg::ZERO, Reg::SP, Reg::fp(2), Reg::FZERO];
        for &ra in &regs {
            for &rb in &regs {
                v.push(Instruction::Lda { ra, rb, disp: -8 });
                v.push(Instruction::Ldah { ra, rb, disp: 2 });
                v.push(Instruction::Ldq { ra, rb, disp: 16 });
                v.push(Instruction::Ldl { ra, rb, disp: 4 });
                v.push(Instruction::Ldt {
                    fa: ra,
                    rb,
                    disp: 8,
                });
                v.push(Instruction::Stq { ra, rb, disp: 0 });
                v.push(Instruction::Stl { ra, rb, disp: 4 });
                v.push(Instruction::Stt {
                    fa: ra,
                    rb,
                    disp: 8,
                });
                v.push(Instruction::Jmp { ra, rb });
                for op in IntOp::ALL {
                    v.push(Instruction::IntOp {
                        op,
                        ra,
                        rb: RegOrLit::Reg(rb),
                        rc: Reg::T2,
                    });
                    v.push(Instruction::IntOp {
                        op,
                        ra,
                        rb: RegOrLit::Lit(7),
                        rc: Reg::ZERO,
                    });
                }
                for op in FpOp::ALL {
                    v.push(Instruction::FpOp {
                        op,
                        fa: ra,
                        fb: rb,
                        fc: Reg::fp(5),
                    });
                }
            }
            for cond in BrCond::ALL {
                v.push(Instruction::CondBr { cond, ra, disp: -3 });
            }
            v.push(Instruction::Br { ra, disp: 9 });
        }
        for func in PalFunc::ALL {
            v.push(Instruction::CallPal { func });
        }
        v
    }

    #[test]
    fn meta_matches_canonical_derivations() {
        let model = PipelineModel::default();
        for insn in samples() {
            let m = InsnMeta::new(&insn, &model);
            assert_eq!(m.class, classify(&insn), "{insn}");
            assert_eq!(m.reads(), &insn.reads()[..], "{insn}");
            assert_eq!(m.writes(), insn.writes(), "{insn}");
            assert_eq!(m.write_index(), insn.writes().map(Reg::index), "{insn}");
            assert_eq!(m.is_load(), insn.is_load(), "{insn}");
            assert_eq!(m.is_store(), insn.is_store(), "{insn}");
            assert_eq!(m.is_memory(), insn.is_memory(), "{insn}");
            assert_eq!(m.is_control(), insn.is_control(), "{insn}");
            assert_eq!(
                m.result_latency,
                model.result_latency(m.class).unwrap_or(1),
                "{insn}"
            );
        }
    }

    #[test]
    fn side_table_is_positional() {
        let model = PipelineModel::default();
        let insns = samples();
        let table = side_table(&insns, &model);
        assert_eq!(table.len(), insns.len());
        for (m, i) in table.iter().zip(&insns) {
            assert_eq!(m.class, classify(i));
        }
    }

    #[test]
    fn meta_stays_small() {
        assert!(
            std::mem::size_of::<InsnMeta>() <= 16,
            "side-table rows must stay cache-friendly: {} bytes",
            std::mem::size_of::<InsnMeta>()
        );
    }
}
