//! Forward stack-discipline verification: balanced frame push/pop,
//! callee-save respect, and bounded frame depth — the `stack-discipline`
//! lint.
//!
//! The fact tracks the SP delta from procedure entry (`Known` when
//! every path agrees), the set of callee-saved registers that have
//! *provably* been saved to the frame on every path, and nothing else.
//! Procedures that never return (a `main` that halts) own the whole
//! machine, so the callee-save check only fires in procedures that
//! contain a `ret`.

use super::solver::{solve, Direction, Pass, Solution};
use crate::diag::{Category, Loc, Report};
use dcpi_analyze::cfg::{BlockId, Cfg};
use dcpi_isa::image::Symbol;
use dcpi_isa::insn::{Flow, Instruction};
use dcpi_isa::reg::Reg;

/// Frames deeper than this draw a warning (generous: the workloads use
/// a few hundred bytes at most).
pub const MAX_FRAME_BYTES: i64 = 1 << 16;

/// The abstract stack-pointer delta from procedure entry, in bytes.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SpDelta {
    /// No path has reached this point yet.
    Undef,
    /// Every path agrees on this delta.
    Known(i64),
    /// Paths disagree, or SP was computed non-additively.
    Unknown,
}

impl SpDelta {
    fn join(self, other: SpDelta) -> SpDelta {
        match (self, other) {
            (SpDelta::Undef, x) | (x, SpDelta::Undef) => x,
            (SpDelta::Known(a), SpDelta::Known(b)) if a == b => self,
            _ => SpDelta::Unknown,
        }
    }

    fn add(self, k: i64) -> SpDelta {
        match self {
            SpDelta::Known(d) => d.checked_add(k).map_or(SpDelta::Unknown, SpDelta::Known),
            _ => self,
        }
    }
}

/// One stack-discipline fact.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct StackFact {
    /// SP delta from entry.
    pub sp: SpDelta,
    /// Callee-saved registers stored to the frame on **every** path so
    /// far (must-analysis: the join is an intersection).
    pub saved: u64,
}

/// Callee-saved registers: integer s0–s6/fp and float f2–f9.
#[must_use]
pub fn callee_saved_mask() -> u64 {
    let mut m = 0u64;
    for r in 9..=15 {
        m |= 1 << r;
    }
    for r in 34..=41 {
        m |= 1 << r;
    }
    m
}

/// The stack-discipline pass.
pub struct StackDiscipline;

fn step(fact: &mut StackFact, insn: &Instruction) {
    match *insn {
        Instruction::Lda { ra, rb, disp } if ra == Reg::SP => {
            fact.sp = if rb == Reg::SP {
                fact.sp.add(i64::from(disp))
            } else {
                SpDelta::Unknown
            };
        }
        Instruction::Stq { ra, rb, .. } if rb == Reg::SP => {
            if callee_saved_mask() & (1 << ra.index()) != 0 {
                fact.saved |= 1 << ra.index();
            }
        }
        Instruction::Stt { fa, rb, .. } if rb == Reg::SP => {
            if callee_saved_mask() & (1 << fa.index()) != 0 {
                fact.saved |= 1 << fa.index();
            }
        }
        _ => {
            if insn.writes() == Some(Reg::SP) {
                fact.sp = SpDelta::Unknown;
            }
        }
    }
}

impl Pass for StackDiscipline {
    type Fact = StackFact;

    fn direction(&self) -> Direction {
        Direction::Forward
    }

    fn boundary(&self, _cfg: &Cfg) -> StackFact {
        StackFact {
            sp: SpDelta::Known(0),
            saved: 0,
        }
    }

    fn init(&self, _cfg: &Cfg) -> StackFact {
        StackFact {
            sp: SpDelta::Undef,
            saved: !0, // top for the must-intersection
        }
    }

    fn join(&self, into: &mut StackFact, other: &StackFact) -> bool {
        let next = StackFact {
            sp: into.sp.join(other.sp),
            saved: into.saved & other.saved,
        };
        let changed = next != *into;
        *into = next;
        changed
    }

    fn transfer(&self, cfg: &Cfg, b: usize, mut fact: StackFact) -> StackFact {
        for insn in cfg.block_insns(BlockId(b)) {
            step(&mut fact, insn);
        }
        fact
    }
}

/// Solves the pass and reports `stack-discipline` warnings: unbalanced
/// or unknown SP deltas at returns, SP above the caller frame, frames
/// deeper than [`MAX_FRAME_BYTES`], and (in procedures that return)
/// callee-saved registers overwritten without a prior save.
pub fn check_stack_discipline(sym: &Symbol, cfg: &Cfg, report: &mut Report) {
    let reachable = crate::image_lints::reachable_blocks(cfg);
    let sol: Solution<StackFact> = solve(cfg, &StackDiscipline);
    let returns = cfg.insns.iter().any(|i| i.flow() == Flow::Return);
    let callee = callee_saved_mask();
    let mut deepest = 0i64;
    let mut rose_above = false;
    let mut clobbered = 0u64;
    for (b, &live) in reachable.iter().enumerate() {
        if !live {
            continue;
        }
        let mut fact = sol.entry[b].clone();
        let base = (cfg.blocks[b].start_word - cfg.start_word) as usize;
        for (i, insn) in cfg.block_insns(BlockId(b)).iter().enumerate() {
            let pc = sym.offset + ((base + i) as u64) * 4;
            if insn.flow() == Flow::Return {
                match fact.sp {
                    SpDelta::Known(d) if d != 0 => report.flag(
                        Category::StackDiscipline,
                        Loc::at(&sym.name).pc(pc).block(b),
                        format!("returns with an unbalanced stack pointer ({d:+} bytes)"),
                    ),
                    SpDelta::Unknown => report.flag(
                        Category::StackDiscipline,
                        Loc::at(&sym.name).pc(pc).block(b),
                        "stack-pointer delta is unknown at this return",
                    ),
                    _ => {}
                }
            }
            if returns {
                if let Some(w) = insn.writes() {
                    let b_ = 1u64 << w.index();
                    if callee & b_ != 0 && fact.saved & b_ == 0 && clobbered & b_ == 0 {
                        clobbered |= b_;
                        report.flag(
                            Category::StackDiscipline,
                            Loc::at(&sym.name).pc(pc).block(b),
                            format!("callee-saved {w:?} is overwritten without a prior save"),
                        );
                    }
                }
            }
            step(&mut fact, insn);
            if let SpDelta::Known(d) = fact.sp {
                deepest = deepest.min(d);
                rose_above |= d > 0;
            }
        }
    }
    if -deepest > MAX_FRAME_BYTES {
        report.flag(
            Category::StackDiscipline,
            Loc::at(&sym.name).pc(sym.offset),
            format!(
                "frame depth {} bytes exceeds the {MAX_FRAME_BYTES}-byte bound",
                -deepest
            ),
        );
    }
    if rose_above {
        report.flag(
            Category::StackDiscipline,
            Loc::at(&sym.name).pc(sym.offset),
            "stack pointer rises above the caller's frame on some path",
        );
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
        check_stack_discipline(&sym, &cfg, &mut r);
        r
    }

    #[test]
    fn balanced_frame_with_saves_is_clean() {
        let r = check(|a| {
            a.proc("f");
            a.lda(Reg::SP, -16, Reg::SP);
            a.stq(Reg::S0, 0, Reg::SP);
            a.li(Reg::S0, 5);
            a.addq(Reg::S0, Reg::A0, Reg::V0);
            a.ldq(Reg::S0, 0, Reg::SP);
            a.lda(Reg::SP, 16, Reg::SP);
            a.ret(Reg::RA);
        });
        assert_eq!(r.warnings(), 0, "{}", r.render());
    }

    #[test]
    fn unbalanced_return_is_flagged() {
        let r = check(|a| {
            a.proc("f");
            a.lda(Reg::SP, -16, Reg::SP);
            a.ret(Reg::RA); // never popped
        });
        assert_eq!(r.warnings(), 1, "{}", r.render());
        assert!(
            r.diags[0].message.contains("-16 bytes"),
            "{}",
            r.diags[0].message
        );
    }

    #[test]
    fn clobbered_callee_save_is_flagged_only_when_returning() {
        let r = check(|a| {
            a.proc("f");
            a.li(Reg::S0, 1); // clobbers s0 without saving
            a.ret(Reg::RA);
        });
        assert_eq!(r.warnings(), 1, "{}", r.render());
        assert!(r.diags[0].message.contains("s0"));
        let r = check(|a| {
            a.proc("main");
            a.li(Reg::S0, 1); // main halts: it owns the machine
            a.halt();
        });
        assert_eq!(r.warnings(), 0, "{}", r.render());
    }

    #[test]
    fn sp_above_caller_frame_is_flagged() {
        let r = check(|a| {
            a.proc("f");
            a.lda(Reg::SP, 32, Reg::SP); // pops a frame it never pushed
            a.lda(Reg::SP, -32, Reg::SP);
            a.ret(Reg::RA);
        });
        assert_eq!(r.warnings(), 1, "{}", r.render());
        assert!(r.diags[0].message.contains("rises above"));
    }
}
