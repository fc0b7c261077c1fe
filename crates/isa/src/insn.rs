//! The instruction set: a compact Alpha-like RISC vocabulary.
//!
//! Instructions are fixed 32-bit words in four formats (memory, operate,
//! branch, jump, plus `call_pal`), mirroring the Alpha formats closely
//! enough that the paper's listings (e.g. the copy loop of Figure 2) can be
//! written verbatim. Note the Alpha operand convention the paper reminds
//! readers of: load and load-address instructions write their *first*
//! operand; three-register operators write their *third*.

use crate::reg::Reg;
use crate::rewrite::branch_target;
use std::fmt;

/// Integer operate-format opcodes.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum IntOp {
    /// 64-bit add.
    Addq,
    /// 64-bit subtract.
    Subq,
    /// 64-bit multiply (uses the non-pipelined IMUL unit).
    Mulq,
    /// Scaled add: `rc = 4*ra + rb`.
    S4Addq,
    /// Scaled add: `rc = 8*ra + rb`.
    S8Addq,
    /// Bitwise and.
    And,
    /// Bitwise or (Alpha `bis`).
    Bis,
    /// Bitwise xor.
    Xor,
    /// Bit clear: `rc = ra & !rb`.
    Bic,
    /// Shift left logical.
    Sll,
    /// Shift right logical.
    Srl,
    /// Shift right arithmetic.
    Sra,
    /// Compare equal (result 0/1).
    Cmpeq,
    /// Compare signed less-than.
    Cmplt,
    /// Compare signed less-or-equal.
    Cmple,
    /// Compare unsigned less-than.
    Cmpult,
    /// Compare unsigned less-or-equal.
    Cmpule,
}

impl IntOp {
    /// All integer ops, in encoding order.
    pub const ALL: [IntOp; 17] = [
        IntOp::Addq,
        IntOp::Subq,
        IntOp::Mulq,
        IntOp::S4Addq,
        IntOp::S8Addq,
        IntOp::And,
        IntOp::Bis,
        IntOp::Xor,
        IntOp::Bic,
        IntOp::Sll,
        IntOp::Srl,
        IntOp::Sra,
        IntOp::Cmpeq,
        IntOp::Cmplt,
        IntOp::Cmple,
        IntOp::Cmpult,
        IntOp::Cmpule,
    ];

    /// The assembler mnemonic.
    #[must_use]
    pub fn mnemonic(self) -> &'static str {
        match self {
            IntOp::Addq => "addq",
            IntOp::Subq => "subq",
            IntOp::Mulq => "mulq",
            IntOp::S4Addq => "s4addq",
            IntOp::S8Addq => "s8addq",
            IntOp::And => "and",
            IntOp::Bis => "bis",
            IntOp::Xor => "xor",
            IntOp::Bic => "bic",
            IntOp::Sll => "sll",
            IntOp::Srl => "srl",
            IntOp::Sra => "sra",
            IntOp::Cmpeq => "cmpeq",
            IntOp::Cmplt => "cmplt",
            IntOp::Cmple => "cmple",
            IntOp::Cmpult => "cmpult",
            IntOp::Cmpule => "cmpule",
        }
    }

    /// Evaluates the operation on 64-bit values.
    #[must_use]
    pub fn eval(self, a: u64, b: u64) -> u64 {
        match self {
            IntOp::Addq => a.wrapping_add(b),
            IntOp::Subq => a.wrapping_sub(b),
            IntOp::Mulq => a.wrapping_mul(b),
            IntOp::S4Addq => a.wrapping_mul(4).wrapping_add(b),
            IntOp::S8Addq => a.wrapping_mul(8).wrapping_add(b),
            IntOp::And => a & b,
            IntOp::Bis => a | b,
            IntOp::Xor => a ^ b,
            IntOp::Bic => a & !b,
            IntOp::Sll => a.wrapping_shl((b & 63) as u32),
            IntOp::Srl => a.wrapping_shr((b & 63) as u32),
            IntOp::Sra => ((a as i64).wrapping_shr((b & 63) as u32)) as u64,
            IntOp::Cmpeq => u64::from(a == b),
            IntOp::Cmplt => u64::from((a as i64) < (b as i64)),
            IntOp::Cmple => u64::from((a as i64) <= (b as i64)),
            IntOp::Cmpult => u64::from(a < b),
            IntOp::Cmpule => u64::from(a <= b),
        }
    }
}

/// Floating-point operate-format opcodes. Values are IEEE double; the
/// simulator stores them as raw bits in the FP register file.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum FpOp {
    /// Double add (FA pipe).
    Addt,
    /// Double subtract (FA pipe).
    Subt,
    /// Double multiply (FM pipe).
    Mult,
    /// Double divide (non-pipelined FDIV unit attached to FA).
    Divt,
    /// Copy sign; `cpys fa,fa,fc` is the canonical FP move (FA pipe).
    Cpys,
    /// Double compare less-than, writing a canonical 0.0/2.0 result.
    Cmptlt,
}

impl FpOp {
    /// All FP ops, in encoding order.
    pub const ALL: [FpOp; 6] = [
        FpOp::Addt,
        FpOp::Subt,
        FpOp::Mult,
        FpOp::Divt,
        FpOp::Cpys,
        FpOp::Cmptlt,
    ];

    /// The assembler mnemonic.
    #[must_use]
    pub fn mnemonic(self) -> &'static str {
        match self {
            FpOp::Addt => "addt",
            FpOp::Subt => "subt",
            FpOp::Mult => "mult",
            FpOp::Divt => "divt",
            FpOp::Cpys => "cpys",
            FpOp::Cmptlt => "cmptlt",
        }
    }

    /// Evaluates the operation on IEEE doubles given raw bit patterns.
    #[must_use]
    pub fn eval(self, a_bits: u64, b_bits: u64) -> u64 {
        let a = f64::from_bits(a_bits);
        let b = f64::from_bits(b_bits);
        let r = match self {
            FpOp::Addt => a + b,
            FpOp::Subt => a - b,
            FpOp::Mult => a * b,
            FpOp::Divt => a / b,
            FpOp::Cpys => b.copysign(a),
            FpOp::Cmptlt => {
                if a < b {
                    2.0
                } else {
                    0.0
                }
            }
        };
        r.to_bits()
    }
}

/// Conditional-branch conditions (tested against an integer register).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum BrCond {
    /// Branch if equal to zero.
    Beq,
    /// Branch if not equal to zero.
    Bne,
    /// Branch if signed less than zero.
    Blt,
    /// Branch if signed less-or-equal zero.
    Ble,
    /// Branch if signed greater than zero.
    Bgt,
    /// Branch if signed greater-or-equal zero.
    Bge,
    /// Branch if low bit clear.
    Blbc,
    /// Branch if low bit set.
    Blbs,
}

impl BrCond {
    /// All conditions, in encoding order.
    pub const ALL: [BrCond; 8] = [
        BrCond::Beq,
        BrCond::Bne,
        BrCond::Blt,
        BrCond::Ble,
        BrCond::Bgt,
        BrCond::Bge,
        BrCond::Blbc,
        BrCond::Blbs,
    ];

    /// The assembler mnemonic.
    #[must_use]
    pub fn mnemonic(self) -> &'static str {
        match self {
            BrCond::Beq => "beq",
            BrCond::Bne => "bne",
            BrCond::Blt => "blt",
            BrCond::Ble => "ble",
            BrCond::Bgt => "bgt",
            BrCond::Bge => "bge",
            BrCond::Blbc => "blbc",
            BrCond::Blbs => "blbs",
        }
    }

    /// Evaluates the condition against a register value.
    #[must_use]
    pub fn test(self, v: u64) -> bool {
        match self {
            BrCond::Beq => v == 0,
            BrCond::Bne => v != 0,
            BrCond::Blt => (v as i64) < 0,
            BrCond::Ble => (v as i64) <= 0,
            BrCond::Bgt => (v as i64) > 0,
            BrCond::Bge => (v as i64) >= 0,
            BrCond::Blbc => v & 1 == 0,
            BrCond::Blbs => v & 1 == 1,
        }
    }
}

/// PALcode functions — the miniature OS's privileged entry points (§4.1.3
/// discusses how PALcode interacts with sampling blind spots).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum PalFunc {
    /// Terminate the current process.
    Halt,
    /// Voluntarily yield the CPU to the scheduler.
    Yield,
    /// A synchronous kernel service call of moderate length (models
    /// syscalls like read/write whose time shows up after the call; §4.1.3).
    Syscall,
    /// No-op PAL call (used by tests).
    Noop,
}

impl PalFunc {
    /// All PAL functions, in encoding order.
    pub const ALL: [PalFunc; 4] = [
        PalFunc::Halt,
        PalFunc::Yield,
        PalFunc::Syscall,
        PalFunc::Noop,
    ];

    /// The assembler mnemonic suffix (`call_pal halt`, ...).
    #[must_use]
    pub fn mnemonic(self) -> &'static str {
        match self {
            PalFunc::Halt => "halt",
            PalFunc::Yield => "yield",
            PalFunc::Syscall => "syscall",
            PalFunc::Noop => "noop",
        }
    }
}

/// Second source operand of an operate-format instruction: a register or
/// an 8-bit literal, as on Alpha.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum RegOrLit {
    /// A register operand.
    Reg(Reg),
    /// A zero-extended 8-bit literal.
    Lit(u8),
}

impl fmt::Display for RegOrLit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RegOrLit::Reg(r) => write!(f, "{r}"),
            RegOrLit::Lit(v) => write!(f, "0x{v:x}"),
        }
    }
}

/// One decoded instruction.
///
/// Displacement conventions: memory-format displacements are in bytes;
/// branch displacements are in instruction *words* relative to the
/// instruction after the branch (as on Alpha).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Instruction {
    /// Load address: `ra = rb + disp` (writes its first operand).
    Lda {
        /// Destination.
        ra: Reg,
        /// Base.
        rb: Reg,
        /// Byte displacement.
        disp: i16,
    },
    /// Load address high: `ra = rb + disp * 65536`.
    Ldah {
        /// Destination.
        ra: Reg,
        /// Base.
        rb: Reg,
        /// Displacement in 64K units.
        disp: i16,
    },
    /// Load quadword: `ra = mem[rb + disp]`.
    Ldq {
        /// Destination.
        ra: Reg,
        /// Base.
        rb: Reg,
        /// Byte displacement.
        disp: i16,
    },
    /// Load longword (sign-extending 32-bit load).
    Ldl {
        /// Destination.
        ra: Reg,
        /// Base.
        rb: Reg,
        /// Byte displacement.
        disp: i16,
    },
    /// Load FP double: `fa = mem[rb + disp]`.
    Ldt {
        /// Destination (FP).
        fa: Reg,
        /// Base (integer).
        rb: Reg,
        /// Byte displacement.
        disp: i16,
    },
    /// Store quadword: `mem[rb + disp] = ra`.
    Stq {
        /// Source.
        ra: Reg,
        /// Base.
        rb: Reg,
        /// Byte displacement.
        disp: i16,
    },
    /// Store longword (low 32 bits).
    Stl {
        /// Source.
        ra: Reg,
        /// Base.
        rb: Reg,
        /// Byte displacement.
        disp: i16,
    },
    /// Store FP double: `mem[rb + disp] = fa`.
    Stt {
        /// Source (FP).
        fa: Reg,
        /// Base (integer).
        rb: Reg,
        /// Byte displacement.
        disp: i16,
    },
    /// Integer operate: `rc = op(ra, rb_or_lit)` (writes its third operand).
    IntOp {
        /// Operation.
        op: IntOp,
        /// First source.
        ra: Reg,
        /// Second source (register or literal).
        rb: RegOrLit,
        /// Destination.
        rc: Reg,
    },
    /// FP operate: `fc = op(fa, fb)`.
    FpOp {
        /// Operation.
        op: FpOp,
        /// First source (FP).
        fa: Reg,
        /// Second source (FP).
        fb: Reg,
        /// Destination (FP).
        fc: Reg,
    },
    /// Conditional branch on `ra`; target is `pc + 4 + 4*disp`.
    CondBr {
        /// Condition.
        cond: BrCond,
        /// Tested register.
        ra: Reg,
        /// Word displacement.
        disp: i32,
    },
    /// Unconditional branch, writing the return address to `ra`
    /// (use `zero` to discard). `bsr` is `Br` with a non-zero `ra` by
    /// convention.
    Br {
        /// Return-address destination.
        ra: Reg,
        /// Word displacement.
        disp: i32,
    },
    /// Indirect jump: `ra = return address; pc = rb & !3`. Covers `jmp`,
    /// `jsr`, and `ret` (distinguished only by convention).
    Jmp {
        /// Return-address destination.
        ra: Reg,
        /// Target register.
        rb: Reg,
    },
    /// PALcode call (privileged OS entry).
    CallPal {
        /// Which PAL service.
        func: PalFunc,
    },
}

impl Instruction {
    /// The canonical no-op, `bis zero, zero, zero`: what the assembler's
    /// `nop` emits and the only padding word the optimizer inserts (and
    /// its checkers accept).
    pub const NOP: Instruction = Instruction::IntOp {
        op: IntOp::Bis,
        ra: Reg::ZERO,
        rb: RegOrLit::Reg(Reg::ZERO),
        rc: Reg::ZERO,
    };

    /// Registers this instruction reads.
    ///
    /// Note stores read both their data register and their base; the zero
    /// registers are omitted (they are always ready).
    #[must_use]
    pub fn reads(&self) -> Vec<Reg> {
        let mut rs = Vec::with_capacity(2);
        match *self {
            Instruction::Lda { rb, .. } | Instruction::Ldah { rb, .. } => rs.push(rb),
            Instruction::Ldq { rb, .. }
            | Instruction::Ldl { rb, .. }
            | Instruction::Ldt { rb, .. } => rs.push(rb),
            Instruction::Stq { ra, rb, .. } | Instruction::Stl { ra, rb, .. } => {
                rs.push(ra);
                rs.push(rb);
            }
            Instruction::Stt { fa, rb, .. } => {
                rs.push(fa);
                rs.push(rb);
            }
            Instruction::IntOp { ra, rb, .. } => {
                rs.push(ra);
                if let RegOrLit::Reg(r) = rb {
                    rs.push(r);
                }
            }
            Instruction::FpOp { fa, fb, .. } => {
                rs.push(fa);
                rs.push(fb);
            }
            Instruction::CondBr { ra, .. } => rs.push(ra),
            Instruction::Br { .. } => {}
            Instruction::Jmp { rb, .. } => rs.push(rb),
            Instruction::CallPal { .. } => {}
        }
        rs.retain(|r| !r.is_zero());
        rs
    }

    /// The register this instruction writes, if any (zero registers are
    /// reported as `None` since writes to them are discarded).
    #[must_use]
    pub fn writes(&self) -> Option<Reg> {
        let w = match *self {
            Instruction::Lda { ra, .. }
            | Instruction::Ldah { ra, .. }
            | Instruction::Ldq { ra, .. }
            | Instruction::Ldl { ra, .. } => ra,
            Instruction::Ldt { fa, .. } => fa,
            Instruction::Stq { .. } | Instruction::Stl { .. } | Instruction::Stt { .. } => {
                return None
            }
            Instruction::IntOp { rc, .. } => rc,
            Instruction::FpOp { fc, .. } => fc,
            Instruction::CondBr { .. } => return None,
            Instruction::Br { ra, .. } | Instruction::Jmp { ra, .. } => ra,
            Instruction::CallPal { .. } => return None,
        };
        (!w.is_zero()).then_some(w)
    }

    /// The control transfer this instruction makes, read through the
    /// linkage convention: a `br`/`jmp` that links `zero` jumps, one that
    /// links any other register calls, and `jmp zero,(ra)` returns.
    #[must_use]
    pub fn flow(&self) -> Flow {
        match *self {
            Instruction::CondBr { disp, .. } => Flow::CondBranch { disp },
            Instruction::Br { ra, disp } if ra.is_zero() => Flow::Jump { disp },
            Instruction::Br { disp, .. } => Flow::Call { disp },
            Instruction::Jmp { ra, rb } if ra.is_zero() && rb == Reg::RA => Flow::Return,
            Instruction::Jmp { ra, rb } if ra.is_zero() => Flow::IndirectJump { rb },
            Instruction::Jmp { rb, .. } => Flow::IndirectCall { rb },
            Instruction::CallPal { func } => Flow::Pal(func),
            _ => Flow::Next,
        }
    }

    /// True for any control transfer, calls and PAL calls included:
    /// everything whose [`Instruction::flow`] is not [`Flow::Next`].
    #[must_use]
    pub fn is_control(&self) -> bool {
        self.flow() != Flow::Next
    }

    /// True for loads (memory reads into a register).
    #[must_use]
    pub fn is_load(&self) -> bool {
        matches!(
            self,
            Instruction::Ldq { .. } | Instruction::Ldl { .. } | Instruction::Ldt { .. }
        )
    }

    /// True for stores.
    #[must_use]
    pub fn is_store(&self) -> bool {
        matches!(
            self,
            Instruction::Stq { .. } | Instruction::Stl { .. } | Instruction::Stt { .. }
        )
    }

    /// True for any memory-format instruction that accesses memory (loads
    /// and stores, but not `lda`/`ldah`).
    #[must_use]
    pub fn is_memory(&self) -> bool {
        self.is_load() || self.is_store()
    }
}

/// What an instruction does to control flow: the one static reading of
/// branches, jumps, calls, returns and PAL calls that the CFG builder,
/// the optimizer, the checkers and the stack walker share. The simulator
/// executes the same words from their operands and is held to agree.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Flow {
    /// No transfer: control goes on to the next word.
    Next,
    /// A conditional branch: to its target, or on to the next word.
    CondBranch {
        /// Word displacement.
        disp: i32,
    },
    /// `br` linking `zero`: to its target only.
    Jump {
        /// Word displacement.
        disp: i32,
    },
    /// `bsr` (a `br` linking a register): to its target, returning to the
    /// next word.
    Call {
        /// Word displacement.
        disp: i32,
    },
    /// `ret`, that is `jmp zero,(ra)`: back to the caller.
    Return,
    /// `jmp zero,(rb)` through any register but `ra`.
    IndirectJump {
        /// Target register.
        rb: Reg,
    },
    /// `jsr` (a `jmp` linking a register): through `rb`, returning to the
    /// next word.
    IndirectCall {
        /// Target register.
        rb: Reg,
    },
    /// `call_pal`: every function but `halt` returns to the next word.
    Pal(PalFunc),
}

impl Flow {
    /// The word a direct transfer (branch, jump or call) at word `at`
    /// goes to; `None` for every other kind.
    #[must_use]
    pub fn target(self, at: u32) -> Option<i64> {
        match self {
            Flow::CondBranch { disp } | Flow::Jump { disp } | Flow::Call { disp } => {
                Some(branch_target(at, disp))
            }
            _ => None,
        }
    }

    /// True when execution can go on at the next word: no transfer, an
    /// untaken branch, or a return from a call or a PAL call.
    #[must_use]
    pub fn falls_through(self) -> bool {
        !matches!(
            self,
            Flow::Jump { .. } | Flow::Return | Flow::IndirectJump { .. } | Flow::Pal(PalFunc::Halt)
        )
    }
}

impl fmt::Display for Instruction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Instruction::Lda { ra, rb, disp } => write!(f, "lda {ra}, {disp}({rb})"),
            Instruction::Ldah { ra, rb, disp } => write!(f, "ldah {ra}, {disp}({rb})"),
            Instruction::Ldq { ra, rb, disp } => write!(f, "ldq {ra}, {disp}({rb})"),
            Instruction::Ldl { ra, rb, disp } => write!(f, "ldl {ra}, {disp}({rb})"),
            Instruction::Ldt { fa, rb, disp } => write!(f, "ldt {fa}, {disp}({rb})"),
            Instruction::Stq { ra, rb, disp } => write!(f, "stq {ra}, {disp}({rb})"),
            Instruction::Stl { ra, rb, disp } => write!(f, "stl {ra}, {disp}({rb})"),
            Instruction::Stt { fa, rb, disp } => write!(f, "stt {fa}, {disp}({rb})"),
            Instruction::IntOp { op, ra, rb, rc } => {
                write!(f, "{} {ra}, {rb}, {rc}", op.mnemonic())
            }
            Instruction::FpOp { op, fa, fb, fc } => {
                write!(f, "{} {fa}, {fb}, {fc}", op.mnemonic())
            }
            Instruction::CondBr { cond, ra, disp } => {
                write!(f, "{} {ra}, {disp:+}", cond.mnemonic())
            }
            Instruction::Br { ra, disp } => {
                if ra.is_zero() {
                    write!(f, "br {disp:+}")
                } else {
                    write!(f, "bsr {ra}, {disp:+}")
                }
            }
            Instruction::Jmp { ra, rb } => {
                if ra.is_zero() && rb == Reg::RA {
                    write!(f, "ret ({rb})")
                } else if ra.is_zero() {
                    write!(f, "jmp ({rb})")
                } else {
                    write!(f, "jsr {ra}, ({rb})")
                }
            }
            Instruction::CallPal { func } => write!(f, "call_pal {}", func.mnemonic()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const T0: Reg = Reg::T0;
    const T1: Reg = Reg::T1;
    const T2: Reg = Reg::T2;

    #[test]
    fn intop_eval_arithmetic() {
        assert_eq!(IntOp::Addq.eval(3, 4), 7);
        assert_eq!(IntOp::Subq.eval(3, 4), u64::MAX);
        assert_eq!(IntOp::Mulq.eval(6, 7), 42);
        assert_eq!(IntOp::S4Addq.eval(3, 1), 13);
        assert_eq!(IntOp::S8Addq.eval(3, 1), 25);
    }

    #[test]
    fn intop_eval_logic_and_shifts() {
        assert_eq!(IntOp::And.eval(0b1100, 0b1010), 0b1000);
        assert_eq!(IntOp::Bis.eval(0b1100, 0b1010), 0b1110);
        assert_eq!(IntOp::Xor.eval(0b1100, 0b1010), 0b0110);
        assert_eq!(IntOp::Bic.eval(0b1100, 0b1010), 0b0100);
        assert_eq!(IntOp::Sll.eval(1, 8), 256);
        assert_eq!(IntOp::Srl.eval(0x8000_0000_0000_0000, 63), 1);
        assert_eq!(IntOp::Sra.eval(u64::MAX, 5), u64::MAX);
    }

    #[test]
    fn intop_eval_compares() {
        assert_eq!(IntOp::Cmpeq.eval(5, 5), 1);
        assert_eq!(IntOp::Cmpeq.eval(5, 6), 0);
        assert_eq!(IntOp::Cmplt.eval(u64::MAX, 0), 1, "-1 < 0 signed");
        assert_eq!(IntOp::Cmpult.eval(u64::MAX, 0), 0, "big unsigned not < 0");
        assert_eq!(IntOp::Cmple.eval(4, 4), 1);
        assert_eq!(IntOp::Cmpule.eval(5, 4), 0);
    }

    #[test]
    fn fpop_eval() {
        let a = 6.0f64.to_bits();
        let b = 1.5f64.to_bits();
        assert_eq!(f64::from_bits(FpOp::Addt.eval(a, b)), 7.5);
        assert_eq!(f64::from_bits(FpOp::Subt.eval(a, b)), 4.5);
        assert_eq!(f64::from_bits(FpOp::Mult.eval(a, b)), 9.0);
        assert_eq!(f64::from_bits(FpOp::Divt.eval(a, b)), 4.0);
        assert_eq!(f64::from_bits(FpOp::Cmptlt.eval(b, a)), 2.0);
        assert_eq!(f64::from_bits(FpOp::Cmptlt.eval(a, b)), 0.0);
    }

    #[test]
    fn brcond_tests() {
        assert!(BrCond::Beq.test(0));
        assert!(!BrCond::Beq.test(1));
        assert!(BrCond::Bne.test(7));
        assert!(BrCond::Blt.test(u64::MAX));
        assert!(!BrCond::Blt.test(0));
        assert!(BrCond::Ble.test(0));
        assert!(BrCond::Bgt.test(1));
        assert!(BrCond::Bge.test(0));
        assert!(BrCond::Blbc.test(2));
        assert!(BrCond::Blbs.test(3));
    }

    #[test]
    fn reads_and_writes_load() {
        let i = Instruction::Ldq {
            ra: T0,
            rb: T1,
            disp: 8,
        };
        assert_eq!(i.reads(), vec![T1]);
        assert_eq!(i.writes(), Some(T0));
        assert!(i.is_load() && i.is_memory() && !i.is_store());
    }

    #[test]
    fn reads_and_writes_store() {
        let i = Instruction::Stq {
            ra: T0,
            rb: T1,
            disp: 0,
        };
        assert_eq!(i.reads(), vec![T0, T1]);
        assert_eq!(i.writes(), None);
        assert!(i.is_store() && i.is_memory());
    }

    #[test]
    fn zero_register_reads_are_omitted() {
        let i = Instruction::IntOp {
            op: IntOp::Addq,
            ra: Reg::ZERO,
            rb: RegOrLit::Reg(Reg::ZERO),
            rc: T0,
        };
        assert!(i.reads().is_empty());
    }

    #[test]
    fn zero_register_write_is_none() {
        let i = Instruction::Lda {
            ra: Reg::ZERO,
            rb: T0,
            disp: 0,
        };
        assert_eq!(i.writes(), None);
    }

    #[test]
    fn literal_operand_not_a_read() {
        let i = Instruction::IntOp {
            op: IntOp::Addq,
            ra: T0,
            rb: RegOrLit::Lit(4),
            rc: T0,
        };
        assert_eq!(i.reads(), vec![T0]);
        assert_eq!(i.writes(), Some(T0));
    }

    #[test]
    fn control_classification() {
        use Instruction::{Br, CallPal, CondBr, Jmp};
        let (z, at) = (Reg::ZERO, 10u32);
        // (instruction, flow, direct target, falls through)
        let mut table = vec![
            (Instruction::NOP, Flow::Next, None, true),
            (
                CondBr {
                    cond: BrCond::Beq,
                    ra: T0,
                    disp: -3,
                },
                Flow::CondBranch { disp: -3 },
                Some(8),
                true,
            ),
            (
                Br { ra: z, disp: 4 },
                Flow::Jump { disp: 4 },
                Some(15),
                false,
            ),
            (
                Br {
                    ra: Reg::RA,
                    disp: -11,
                },
                Flow::Call { disp: -11 },
                Some(0),
                true,
            ),
            (
                Br { ra: T0, disp: 0 },
                Flow::Call { disp: 0 },
                Some(11),
                true,
            ),
            (Jmp { ra: z, rb: Reg::RA }, Flow::Return, None, false),
            (
                Jmp {
                    ra: z,
                    rb: Reg::T12,
                },
                Flow::IndirectJump { rb: Reg::T12 },
                None,
                false,
            ),
            (
                Jmp {
                    ra: Reg::RA,
                    rb: Reg::T12,
                },
                Flow::IndirectCall { rb: Reg::T12 },
                None,
                true,
            ),
        ];
        for func in PalFunc::ALL {
            let halts = func == PalFunc::Halt;
            table.push((CallPal { func }, Flow::Pal(func), None, !halts));
        }
        for (insn, flow, target, falls) in table {
            assert_eq!(insn.flow(), flow, "{insn}");
            assert_eq!(insn.is_control(), flow != Flow::Next, "{insn}");
            assert_eq!(flow.target(at), target, "{insn}");
            assert_eq!(flow.falls_through(), falls, "{insn}");
        }
    }

    #[test]
    fn display_matches_paper_style() {
        let i = Instruction::Ldq {
            ra: Reg::T4,
            rb: Reg::T1,
            disp: 0,
        };
        assert_eq!(i.to_string(), "ldq t4, 0(t1)");
        let i = Instruction::IntOp {
            op: IntOp::Cmpult,
            ra: Reg::T0,
            rb: RegOrLit::Reg(Reg::V0),
            rc: Reg::T4,
        };
        assert_eq!(i.to_string(), "cmpult t0, v0, t4");
        let i = Instruction::Jmp {
            ra: Reg::ZERO,
            rb: Reg::RA,
        };
        assert_eq!(i.to_string(), "ret (ra)");
        let i = Instruction::IntOp {
            op: IntOp::Addq,
            ra: Reg::T0,
            rb: RegOrLit::Lit(4),
            rc: Reg::T0,
        };
        assert_eq!(i.to_string(), "addq t0, 0x4, t0");
    }

    #[test]
    fn fp_reads_writes() {
        let i = Instruction::Stt {
            fa: Reg::fp(2),
            rb: T2,
            disp: 16,
        };
        assert_eq!(i.reads(), vec![Reg::fp(2), T2]);
        assert_eq!(i.writes(), None);
        let i = Instruction::FpOp {
            op: FpOp::Mult,
            fa: Reg::fp(1),
            fb: Reg::fp(2),
            fc: Reg::fp(3),
        };
        assert_eq!(i.reads(), vec![Reg::fp(1), Reg::fp(2)]);
        assert_eq!(i.writes(), Some(Reg::fp(3)));
    }
}
