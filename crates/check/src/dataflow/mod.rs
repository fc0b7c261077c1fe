//! A small dataflow / abstract-interpretation engine over the toy ISA.
//!
//! The generic piece is [`solver`]: a worklist fixpoint over the
//! existing [`Cfg`], parameterized by a [`solver::Pass`] that supplies
//! the lattice (join, boundary, optional widening) and the per-block
//! transfer function. On top of it sit four concrete passes:
//!
//! * [`liveness`] — backward register liveness (a `u64` bitmask over
//!   the unified integer+FP register file), driving the `dead-store`
//!   lint;
//! * [`reaching`] — forward reaching definitions (sets of def sites),
//!   driving the `uninit-read` lint;
//! * [`values`] — forward constant/value-range propagation with
//!   widening, driving the `const-branch` lint;
//! * [`stack`] — forward stack-discipline verification: balanced frame
//!   push/pop, callee-save respect, and bounded frame depth.
//!
//! [`word_reachable`] is the image-wide cousin: a word-level forward
//! closure from every procedure entry, used by the PGO audit to prove
//! that unmapped padding really is unreachable, and by the translation
//! validator in [`crate::tv`].

pub mod liveness;
pub mod reaching;
pub mod solver;
pub mod stack;
pub mod values;

use crate::diag::Report;
use dcpi_analyze::cfg::Cfg;
use dcpi_isa::encode::decode;
use dcpi_isa::image::{Image, Symbol};

pub use solver::{solve, Direction, Pass, Solution};
pub use values::AbsVal;

/// Runs every dataflow lint over one procedure's CFG, appending
/// warnings to `report`. All findings here are warnings: the code is
/// suspicious, not inconsistent.
pub fn check_procedure_dataflow(sym: &Symbol, cfg: &Cfg, report: &mut Report) {
    liveness::check_dead_stores(sym, cfg, report);
    reaching::check_uninit_reads(sym, cfg, report);
    values::check_const_branches(sym, cfg, report);
    stack::check_stack_discipline(sym, cfg, report);
}

/// Which text words of `image` can possibly execute: a forward closure
/// from every symbol start. Direct branch targets and fallthroughs are
/// followed; calls are assumed to return (the word after a `bsr`/`jsr`
/// is reachable); indirect jumps contribute no edges, because their
/// legitimate targets are procedure starts, which are roots already.
/// Words that fail to decode propagate nothing.
#[must_use]
pub fn word_reachable(image: &Image) -> Vec<bool> {
    let words = image.words();
    let n = words.len();
    let mut reachable = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    for sym in image.symbols() {
        let w = (sym.offset / 4) as usize;
        if w < n && !reachable[w] {
            reachable[w] = true;
            stack.push(w);
        }
    }
    while let Some(w) = stack.pop() {
        let Ok(insn) = decode(words[w]) else {
            continue;
        };
        let flow = insn.flow();
        let next = flow.falls_through().then_some(w as i64 + 1);
        for t in [flow.target(w as u32), next].into_iter().flatten() {
            if (0..n as i64).contains(&t) && !reachable[t as usize] {
                reachable[t as usize] = true;
                stack.push(t as usize);
            }
        }
    }
    reachable
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcpi_isa::asm::Asm;
    use dcpi_isa::reg::Reg;

    #[test]
    fn reachability_follows_branches_and_stops_at_halt() {
        let mut a = Asm::new("/t");
        a.proc("main");
        let over = a.label();
        a.br(over); // word 0: jumps over the dead word
        a.addq(Reg::T0, Reg::T1, Reg::T2); // word 1: dead
        a.bind(over);
        a.halt(); // word 2
        a.addq(Reg::T0, Reg::T1, Reg::T2); // word 3: after halt, dead
        let image = a.finish();
        let r = word_reachable(&image);
        assert_eq!(r, vec![true, false, true, false]);
    }

    #[test]
    fn calls_are_assumed_to_return() {
        let mut a = Asm::new("/t");
        a.proc("main");
        a.li(Reg::T12, 0x1_0000 + 4 * 4);
        a.jsr(Reg::RA, Reg::T12); // word 2
        a.halt(); // word 3: reachable because the call returns
        a.proc("helper");
        a.ret(Reg::RA); // word 4: reachable as a symbol start
        let image = a.finish();
        let r = word_reachable(&image);
        assert!(r.iter().all(|&x| x), "{r:?}");
    }
}
