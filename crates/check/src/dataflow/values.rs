//! Forward constant / value-range propagation with widening, and the
//! `const-branch` lint.
//!
//! The lattice per register is [`AbsVal`]: unknown-as-yet (`Undef`,
//! the optimistic bottom), a single 64-bit constant, a signed interval,
//! or `Any` (top). Arithmetic folds constants through the ISA's own
//! [`IntOp::eval`]; adds and subtracts propagate intervals; everything
//! else that isn't fully constant goes to `Any`. Loads, FP results, and
//! anything live across a PAL call are `Any` — the memory model and
//! the OS are outside this abstraction.

use super::solver::{solve, Direction, Pass, Solution};
use crate::diag::{Category, Loc, Report};
use dcpi_analyze::cfg::{BlockId, Cfg};
use dcpi_isa::image::Symbol;
use dcpi_isa::insn::{BrCond, Instruction, IntOp, PalFunc, RegOrLit};
use dcpi_isa::reg::Reg;

/// The abstract value of one register.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AbsVal {
    /// No path has defined it yet (optimistic bottom).
    Undef,
    /// Exactly this 64-bit value.
    Const(u64),
    /// Within this signed interval (inclusive).
    Range(i64, i64),
    /// Anything (top).
    Any,
}

impl AbsVal {
    /// The signed interval this value is known to lie in, if bounded.
    #[must_use]
    pub fn bounds(self) -> Option<(i64, i64)> {
        match self {
            AbsVal::Const(c) => Some((c as i64, c as i64)),
            AbsVal::Range(lo, hi) => Some((lo, hi)),
            AbsVal::Undef | AbsVal::Any => None,
        }
    }

    fn from_bounds(lo: i64, hi: i64) -> AbsVal {
        if lo == hi {
            AbsVal::Const(lo as u64)
        } else {
            AbsVal::Range(lo, hi)
        }
    }

    /// The least upper bound of two values.
    #[must_use]
    pub fn join(self, other: AbsVal) -> AbsVal {
        match (self, other) {
            (AbsVal::Undef, x) | (x, AbsVal::Undef) => x,
            (AbsVal::Const(a), AbsVal::Const(b)) if a == b => AbsVal::Const(a),
            (a, b) => match (a.bounds(), b.bounds()) {
                (Some((al, ah)), Some((bl, bh))) => AbsVal::from_bounds(al.min(bl), ah.max(bh)),
                _ => AbsVal::Any,
            },
        }
    }

    fn add_const(self, k: i64) -> AbsVal {
        match self {
            AbsVal::Const(c) => AbsVal::Const(c.wrapping_add(k as u64)),
            AbsVal::Range(lo, hi) => match (lo.checked_add(k), hi.checked_add(k)) {
                (Some(l), Some(h)) => AbsVal::from_bounds(l, h),
                _ => AbsVal::Any,
            },
            AbsVal::Undef | AbsVal::Any => self,
        }
    }
}

/// Decides a branch condition over an abstract value: `Some(taken)`
/// when every concrete value in the abstraction agrees.
#[must_use]
pub fn decide(cond: BrCond, v: AbsVal) -> Option<bool> {
    if let AbsVal::Const(c) = v {
        return Some(cond.test(c));
    }
    let (lo, hi) = v.bounds()?;
    match cond {
        BrCond::Beq => (lo > 0 || hi < 0).then_some(false),
        BrCond::Bne => (lo > 0 || hi < 0).then_some(true),
        BrCond::Blt => {
            if hi < 0 {
                Some(true)
            } else if lo >= 0 {
                Some(false)
            } else {
                None
            }
        }
        BrCond::Ble => {
            if hi <= 0 {
                Some(true)
            } else if lo > 0 {
                Some(false)
            } else {
                None
            }
        }
        BrCond::Bgt => {
            if lo > 0 {
                Some(true)
            } else if hi <= 0 {
                Some(false)
            } else {
                None
            }
        }
        BrCond::Bge => {
            if lo >= 0 {
                Some(true)
            } else if hi < 0 {
                Some(false)
            } else {
                None
            }
        }
        BrCond::Blbc | BrCond::Blbs => None,
    }
}

/// One fact: an abstract value per register.
pub type RegVals = Vec<AbsVal>;

/// The constant/value-range propagation pass.
pub struct Values;

fn read(fact: &RegVals, r: Reg) -> AbsVal {
    if r.is_zero() {
        AbsVal::Const(0)
    } else {
        fact[r.index()]
    }
}

fn read_rl(fact: &RegVals, rl: RegOrLit) -> AbsVal {
    match rl {
        RegOrLit::Reg(r) => read(fact, r),
        RegOrLit::Lit(l) => AbsVal::Const(u64::from(l)),
    }
}

fn write(fact: &mut RegVals, r: Reg, v: AbsVal) {
    if !r.is_zero() {
        fact[r.index()] = v;
    }
}

/// Applies one instruction to a register-value fact.
pub fn step(fact: &mut RegVals, insn: &Instruction) {
    match *insn {
        Instruction::Lda { ra, rb, disp } => {
            let v = read(fact, rb).add_const(i64::from(disp));
            write(fact, ra, v);
        }
        Instruction::Ldah { ra, rb, disp } => {
            let v = read(fact, rb).add_const(i64::from(disp) * 65536);
            write(fact, ra, v);
        }
        Instruction::IntOp { op, ra, rb, rc } => {
            let a = read(fact, ra);
            let b = read_rl(fact, rb);
            let v = match (a, b) {
                (AbsVal::Const(x), AbsVal::Const(y)) => AbsVal::Const(op.eval(x, y)),
                _ if matches!(op, IntOp::Addq | IntOp::Subq) => match (a.bounds(), b.bounds()) {
                    (Some((al, ah)), Some((bl, bh))) => {
                        let (lo, hi) = if op == IntOp::Addq {
                            (al.checked_add(bl), ah.checked_add(bh))
                        } else {
                            (al.checked_sub(bh), ah.checked_sub(bl))
                        };
                        match (lo, hi) {
                            (Some(l), Some(h)) => AbsVal::from_bounds(l, h),
                            _ => AbsVal::Any,
                        }
                    }
                    _ => AbsVal::Any,
                },
                _ if matches!(
                    op,
                    IntOp::Cmpeq | IntOp::Cmplt | IntOp::Cmple | IntOp::Cmpult | IntOp::Cmpule
                ) =>
                {
                    AbsVal::Range(0, 1)
                }
                _ => AbsVal::Any,
            };
            write(fact, rc, v);
        }
        Instruction::FpOp { fc, .. } => write(fact, fc, AbsVal::Any),
        Instruction::Ldq { ra, .. } | Instruction::Ldl { ra, .. } => {
            write(fact, ra, AbsVal::Any);
        }
        Instruction::Ldt { fa, .. } => write(fact, fa, AbsVal::Any),
        Instruction::Br { ra, .. } | Instruction::Jmp { ra, .. } => {
            // The return address is a concrete code pointer, but its
            // value depends on where the image is loaded; Any is sound.
            write(fact, ra, AbsVal::Any);
        }
        Instruction::CallPal { func } => {
            if func != PalFunc::Halt {
                // The OS may clobber anything across a PAL call.
                for v in fact.iter_mut() {
                    *v = AbsVal::Any;
                }
            }
        }
        Instruction::Stq { .. }
        | Instruction::Stl { .. }
        | Instruction::Stt { .. }
        | Instruction::CondBr { .. } => {}
    }
}

impl Pass for Values {
    type Fact = RegVals;

    fn direction(&self) -> Direction {
        Direction::Forward
    }

    fn boundary(&self, _cfg: &Cfg) -> RegVals {
        vec![AbsVal::Any; Reg::COUNT]
    }

    fn init(&self, _cfg: &Cfg) -> RegVals {
        vec![AbsVal::Undef; Reg::COUNT]
    }

    fn join(&self, into: &mut RegVals, other: &RegVals) -> bool {
        let mut changed = false;
        for (a, &b) in into.iter_mut().zip(other.iter()) {
            let j = a.join(b);
            if j != *a {
                *a = j;
                changed = true;
            }
        }
        changed
    }

    fn transfer(&self, cfg: &Cfg, b: usize, mut fact: RegVals) -> RegVals {
        for insn in cfg.block_insns(BlockId(b)) {
            step(&mut fact, insn);
        }
        fact
    }

    fn widen(&self, old: &RegVals, new: RegVals) -> RegVals {
        // Any register still changing after WIDEN_AFTER rounds jumps
        // straight to top; intervals stop growing one bound at a time.
        old.iter()
            .zip(new)
            .map(|(&o, n)| {
                if o == n || o == AbsVal::Undef {
                    n
                } else {
                    AbsVal::Any
                }
            })
            .collect()
    }
}

/// Solves value propagation and flags conditional branches whose
/// outcome the abstraction already decides: `const-branch` warnings.
pub fn check_const_branches(sym: &Symbol, cfg: &Cfg, report: &mut Report) {
    let sol: Solution<RegVals> = solve(cfg, &Values);
    for b in 0..cfg.blocks.len() {
        let mut fact = sol.entry[b].clone();
        let insns = cfg.block_insns(BlockId(b));
        let base = (cfg.blocks[b].start_word - cfg.start_word) as usize;
        for (i, insn) in insns.iter().enumerate() {
            if let Instruction::CondBr { cond, ra, .. } = insn {
                let v = read(&fact, *ra);
                if v == AbsVal::Undef {
                    continue; // unreachable block: nothing to decide
                }
                if let Some(taken) = decide(*cond, v) {
                    let pc = sym.offset + ((base + i) as u64) * 4;
                    report.flag(
                        Category::ConstBranch,
                        Loc::at(&sym.name).pc(pc).block(b),
                        format!(
                            "conditional branch always {} ({:?} = {v:?})",
                            if taken { "taken" } else { "falls through" },
                            ra,
                        ),
                    );
                }
            }
            step(&mut fact, insn);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcpi_isa::asm::Asm;

    fn check(f: impl FnOnce(&mut Asm)) -> Report {
        let mut a = Asm::new("/t");
        f(&mut a);
        let image = a.finish();
        let sym = image.symbols()[0].clone();
        let cfg = dcpi_analyze::cfg::Cfg::build(&image, &sym).unwrap();
        let mut r = Report::new();
        check_const_branches(&sym, &cfg, &mut r);
        r
    }

    #[test]
    fn branch_on_a_known_constant_is_flagged() {
        let r = check(|a| {
            a.proc("f");
            let out = a.label();
            a.li(Reg::T0, 3);
            a.bne(Reg::T0, out); // t0 == 3: always taken
            a.addq(Reg::A0, Reg::A0, Reg::V0);
            a.bind(out);
            a.ret(Reg::RA);
        });
        assert_eq!(r.warnings(), 1, "{}", r.render());
        assert!(r.diags[0].message.contains("always taken"));
    }

    #[test]
    fn loop_counters_widen_to_unknown_and_stay_quiet() {
        let r = check(|a| {
            a.proc("f");
            a.li(Reg::T0, 10);
            let top = a.here();
            a.subq_lit(Reg::T0, 1, Reg::T0);
            a.bne(Reg::T0, top); // genuinely two-way after widening
            a.ret(Reg::RA);
        });
        assert_eq!(r.warnings(), 0, "{}", r.render());
    }

    #[test]
    fn compare_results_stay_in_the_unit_range() {
        let mut fact = vec![AbsVal::Any; Reg::COUNT];
        step(
            &mut fact,
            &Instruction::IntOp {
                op: IntOp::Cmplt,
                ra: Reg::A0,
                rb: RegOrLit::Reg(Reg::A1),
                rc: Reg::T0,
            },
        );
        assert_eq!(fact[Reg::T0.index()], AbsVal::Range(0, 1));
        assert_eq!(decide(BrCond::Bge, AbsVal::Range(0, 1)), Some(true));
    }
}
