//! Backward register liveness over the unified 64-register file, and
//! the `dead-store` lint built on it.
//!
//! Facts are `u64` bitmasks indexed by `Reg::index()`. The lint runs
//! with *everything* live at procedure exits, so a write is only called
//! dead when **every** path overwrites it before any read — the
//! precise, low-noise variant.

use super::solver::{solve, Direction, Pass, Solution};
use crate::diag::{Category, Loc, Report};
use dcpi_analyze::cfg::{BlockId, Cfg};
use dcpi_isa::image::Symbol;
use dcpi_isa::reg::Reg;

/// Register liveness with a configurable exit mask.
pub struct Liveness {
    /// Registers considered live when the procedure is left.
    pub exit_live: u64,
}

impl Liveness {
    /// Everything live at exits: only intraprocedurally killed writes
    /// count as dead. This is the sound setting for lints.
    #[must_use]
    pub fn conservative() -> Liveness {
        Liveness { exit_live: !0 }
    }

    /// Nothing live at exits: the exact intraprocedural liveness used
    /// by the brute-force property cross-check.
    #[must_use]
    pub fn closed() -> Liveness {
        Liveness { exit_live: 0 }
    }
}

fn bit(r: Reg) -> u64 {
    1u64 << r.index()
}

impl Pass for Liveness {
    type Fact = u64;

    fn direction(&self) -> Direction {
        Direction::Backward
    }

    fn boundary(&self, _cfg: &Cfg) -> u64 {
        self.exit_live
    }

    fn init(&self, _cfg: &Cfg) -> u64 {
        0
    }

    fn join(&self, into: &mut u64, other: &u64) -> bool {
        let before = *into;
        *into |= other;
        *into != before
    }

    fn transfer(&self, cfg: &Cfg, b: usize, mut live: u64) -> u64 {
        for insn in cfg.block_insns(BlockId(b)).iter().rev() {
            if let Some(w) = insn.writes() {
                live &= !bit(w);
            }
            for r in insn.reads() {
                live |= bit(r);
            }
        }
        live
    }
}

/// Per-instruction live-after sets within block `b`, given the solved
/// live-out of the block: `v[i]` holds the registers live immediately
/// after instruction `i` of the block executes.
#[must_use]
pub fn live_after_each(cfg: &Cfg, b: usize, live_out: u64) -> Vec<u64> {
    let insns = cfg.block_insns(BlockId(b));
    let mut v = vec![0u64; insns.len()];
    let mut live = live_out;
    for (i, insn) in insns.iter().enumerate().rev() {
        v[i] = live;
        if let Some(w) = insn.writes() {
            live &= !bit(w);
        }
        for r in insn.reads() {
            live |= bit(r);
        }
    }
    v
}

/// Solves conservative liveness and flags register writes that no path
/// can read: `dead-store` warnings. Control-flow writes (the return
/// address of a call) are exempt — their reader is the callee's `ret`,
/// which this intraprocedural pass cannot see.
pub fn check_dead_stores(sym: &Symbol, cfg: &Cfg, report: &mut Report) {
    let sol: Solution<u64> = solve(cfg, &Liveness::conservative());
    for b in 0..cfg.blocks.len() {
        let after = live_after_each(cfg, b, sol.exit[b]);
        let base = (cfg.blocks[b].start_word - cfg.start_word) as usize;
        for (i, insn) in cfg.block_insns(BlockId(b)).iter().enumerate() {
            if insn.is_control() {
                continue;
            }
            let Some(w) = insn.writes() else { continue };
            if after[i] & bit(w) == 0 {
                let pc = sym.offset + ((base + i) as u64) * 4;
                report.flag(
                    Category::DeadStore,
                    Loc::at(&sym.name).pc(pc).block(b),
                    format!("{w:?} is overwritten on every path before being read"),
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcpi_isa::asm::Asm;
    use dcpi_isa::image::Image;

    fn cfg_of(f: impl FnOnce(&mut Asm)) -> (Image, Symbol) {
        let mut a = Asm::new("/t");
        f(&mut a);
        let image = a.finish();
        let sym = image.symbols()[0].clone();
        (image, sym)
    }

    #[test]
    fn killed_write_is_dead_and_used_write_is_not() {
        let (image, sym) = cfg_of(|a| {
            a.proc("f");
            a.li(Reg::T0, 1); // dead: overwritten below, never read
            a.li(Reg::T0, 2);
            a.addq(Reg::T0, Reg::T0, Reg::V0);
            a.ret(Reg::RA);
        });
        let cfg = dcpi_analyze::cfg::Cfg::build(&image, &sym).unwrap();
        let mut r = Report::new();
        check_dead_stores(&sym, &cfg, &mut r);
        let dead: Vec<_> = r
            .diags
            .iter()
            .filter(|d| d.category == Category::DeadStore)
            .collect();
        assert_eq!(dead.len(), 1, "{}", r.render());
        assert_eq!(dead[0].pc, Some(sym.offset));
    }

    #[test]
    fn write_read_on_one_path_is_not_dead() {
        let (image, sym) = cfg_of(|a| {
            a.proc("f");
            a.li(Reg::T0, 1);
            let skip = a.label();
            a.beq(Reg::A0, skip);
            a.addq(Reg::T0, Reg::A0, Reg::V0); // reads t0 on this path
            a.bind(skip);
            a.li(Reg::T0, 2);
            a.ret(Reg::RA);
        });
        let cfg = dcpi_analyze::cfg::Cfg::build(&image, &sym).unwrap();
        let mut r = Report::new();
        check_dead_stores(&sym, &cfg, &mut r);
        assert_eq!(r.warnings(), 0, "{}", r.render());
    }

    #[test]
    fn final_write_is_live_at_exit() {
        let (image, sym) = cfg_of(|a| {
            a.proc("f");
            a.li(Reg::V0, 7); // live: the caller may read v0
            a.ret(Reg::RA);
        });
        let cfg = dcpi_analyze::cfg::Cfg::build(&image, &sym).unwrap();
        let mut r = Report::new();
        check_dead_stores(&sym, &cfg, &mut r);
        assert_eq!(r.warnings(), 0, "{}", r.render());
    }
}
