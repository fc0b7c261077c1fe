//! Forward reaching definitions, and the `uninit-read` lint.
//!
//! Facts are sets of `(register index, defining instruction index)`
//! pairs; the pseudo-site [`ENTRY_DEF`] stands for "defined by the
//! caller" and seeds every register the calling convention makes live
//! on entry. Because the join is a union (a *may* analysis), a read
//! with **no** reaching definition at all is uninitialized on **every**
//! path — a strictly stronger finding than the liveness-based
//! `use-before-def` warning, which fires when *some* path misses a
//! definition.

use super::solver::{solve, Direction, Pass, Solution};
use crate::diag::{Category, Loc, Report};
use crate::image_lints::abi_live_on_entry;
use dcpi_analyze::cfg::{BlockId, Cfg};
use dcpi_isa::image::Symbol;
use dcpi_isa::reg::Reg;
use std::collections::BTreeSet;

/// The pseudo def-site for registers defined at procedure entry.
pub const ENTRY_DEF: u32 = u32::MAX;

/// One reaching-defs fact: the def sites that may reach this point.
pub type DefSites = BTreeSet<(u8, u32)>;

/// Reaching definitions with a configurable set of entry-defined
/// registers.
pub struct ReachingDefs {
    /// Bitmask of registers seeded with [`ENTRY_DEF`] at the entry.
    pub entry_regs: u64,
}

impl ReachingDefs {
    /// Entry set from the calling convention (arguments, callee-saves,
    /// sp/gp/ra/pv/at) — the sound setting for lints.
    #[must_use]
    pub fn abi() -> ReachingDefs {
        ReachingDefs {
            entry_regs: abi_live_on_entry(),
        }
    }
}

impl Pass for ReachingDefs {
    type Fact = DefSites;

    fn direction(&self) -> Direction {
        Direction::Forward
    }

    fn boundary(&self, _cfg: &Cfg) -> DefSites {
        (0..Reg::COUNT as u8)
            .filter(|r| self.entry_regs & (1 << r) != 0)
            .map(|r| (r, ENTRY_DEF))
            .collect()
    }

    fn init(&self, _cfg: &Cfg) -> DefSites {
        DefSites::new()
    }

    fn join(&self, into: &mut DefSites, other: &DefSites) -> bool {
        let before = into.len();
        into.extend(other.iter().copied());
        into.len() != before
    }

    fn transfer(&self, cfg: &Cfg, b: usize, mut fact: DefSites) -> DefSites {
        let base = (cfg.blocks[b].start_word - cfg.start_word) as usize;
        for (i, insn) in cfg.block_insns(BlockId(b)).iter().enumerate() {
            if let Some(w) = insn.writes() {
                let r = w.index() as u8;
                fact.retain(|&(reg, _)| reg != r);
                fact.insert((r, (base + i) as u32));
            }
        }
        fact
    }
}

/// Solves ABI-seeded reaching defs and flags reads that no definition
/// can reach on any path: `uninit-read` warnings, at most one per
/// register per procedure. Unreachable blocks are skipped — their entry
/// fact is vacuously empty and they carry their own warning already.
pub fn check_uninit_reads(sym: &Symbol, cfg: &Cfg, report: &mut Report) {
    let reachable = crate::image_lints::reachable_blocks(cfg);
    let sol: Solution<DefSites> = solve(cfg, &ReachingDefs::abi());
    let mut flagged = 0u64;
    for (b, &live) in reachable.iter().enumerate() {
        if !live {
            continue;
        }
        let mut fact = sol.entry[b].clone();
        let base = (cfg.blocks[b].start_word - cfg.start_word) as usize;
        for (i, insn) in cfg.block_insns(BlockId(b)).iter().enumerate() {
            for r in insn.reads() {
                let idx = r.index() as u8;
                let has_def = fact.range((idx, 0)..=(idx, ENTRY_DEF)).next().is_some();
                if !has_def && flagged & (1 << idx) == 0 {
                    flagged |= 1 << idx;
                    let pc = sym.offset + ((base + i) as u64) * 4;
                    report.flag(
                        Category::UninitRead,
                        Loc::at(&sym.name).pc(pc).block(b),
                        format!("{r:?} is read but no definition reaches it on any path"),
                    );
                }
            }
            if let Some(w) = insn.writes() {
                let idx = w.index() as u8;
                fact.retain(|&(reg, _)| reg != idx);
                fact.insert((idx, (base + i) as u32));
            }
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
        check_uninit_reads(&sym, &cfg, &mut r);
        r
    }

    #[test]
    fn read_with_no_def_anywhere_is_flagged() {
        let r = check(|a| {
            a.proc("f");
            a.addq(Reg::T3, Reg::A0, Reg::V0); // t3: no def on any path
            a.ret(Reg::RA);
        });
        assert_eq!(r.warnings(), 1, "{}", r.render());
        assert!(r.diags[0].message.contains("t3"), "{}", r.diags[0].message);
    }

    #[test]
    fn def_on_one_path_suppresses_the_stronger_lint() {
        // use-before-def (may) fires here; uninit-read (must) must not.
        let r = check(|a| {
            a.proc("f");
            let skip = a.label();
            a.beq(Reg::A0, skip);
            a.li(Reg::T0, 7);
            a.bind(skip);
            a.addq(Reg::T0, Reg::A0, Reg::V0);
            a.ret(Reg::RA);
        });
        assert_eq!(r.warnings(), 0, "{}", r.render());
    }

    #[test]
    fn abi_registers_are_entry_defined() {
        let r = check(|a| {
            a.proc("f");
            a.addq(Reg::A0, Reg::A1, Reg::V0);
            a.ret(Reg::RA);
        });
        assert_eq!(r.warnings(), 0, "{}", r.render());
    }
}
