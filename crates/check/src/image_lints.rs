//! Layer 1: image and ISA lints.
//!
//! * every text word inside a symbol must decode, and re-encoding the
//!   decoded instruction must reproduce the original word (the codec
//!   round-trip invariant);
//! * symbol tables must be sane (aligned, non-overlapping, in bounds);
//! * branch targets must stay inside their procedure (an escaping
//!   conditional branch breaks the CFG assumptions of §6.1.1);
//! * basic blocks unreachable from the entry are flagged;
//! * a backward liveness pass flags registers read before any definition
//!   on some path from the procedure entry (modulo the calling
//!   convention's live-on-entry set).

use crate::dataflow::liveness::Liveness;
use crate::dataflow::solve;
use crate::diag::{Category, Loc, Report, Severity};
use dcpi_analyze::cfg::Cfg;
use dcpi_isa::encode::{decode, encode};
use dcpi_isa::image::{Image, Symbol};
use dcpi_isa::insn::Flow;
use dcpi_isa::reg::Reg;

/// Registers assumed live on procedure entry by the calling convention:
/// argument registers (integer a0–a5, FP f16–f21), the callee-saved
/// registers (whose *saves* legitimately read them), and sp/gp/ra/pv/at.
pub(crate) fn abi_live_on_entry() -> u64 {
    let mut mask = 0u64;
    for r in 9..=21 {
        mask |= 1 << r; // s0-s6/fp (saved by callees) and a0-a5
    }
    for r in [26u32, 27, 28, 29, 30] {
        mask |= 1 << r; // ra, pv, at, gp, sp
    }
    for r in 34..=41 {
        mask |= 1 << r; // callee-saved f2-f9
    }
    for r in 48..=53 {
        mask |= 1 << r; // FP argument registers f16-f21
    }
    mask
}

/// Decode/encode round-trip and symbol-table lints over a whole image.
pub fn check_image_words(image: &Image, report: &mut Report) {
    let name = image.name().to_string();
    let text = image.text_bytes();
    let mut prev: Option<&Symbol> = None;
    for sym in image.symbols() {
        if sym.size == 0 || !sym.size.is_multiple_of(4) || !sym.offset.is_multiple_of(4) {
            report.flag(
                Category::SymbolTable,
                Loc::at(&name).pc(sym.offset),
                format!(
                    "symbol {} is degenerate (offset {:#x}, size {})",
                    sym.name, sym.offset, sym.size
                ),
            );
        }
        if sym.offset + sym.size > text {
            report.flag(
                Category::SymbolTable,
                Loc::at(&name).pc(sym.offset),
                format!("symbol {} extends past the text section", sym.name),
            );
        }
        if let Some(p) = prev {
            if p.offset + p.size > sym.offset {
                report.flag_as(
                    Severity::Warning,
                    Category::SymbolTable,
                    Loc::at(&name).pc(sym.offset),
                    format!("symbols {} and {} overlap", p.name, sym.name),
                );
            }
        }
        prev = Some(sym);

        // Round-trip every word the symbol covers.
        let words = image.words();
        let first = (sym.offset / 4) as usize;
        let last = ((sym.offset + sym.size) / 4) as usize;
        let covered = &words[first.min(words.len())..last.min(words.len())];
        for (w, &word) in covered.iter().enumerate() {
            let pc = ((first + w) as u64) * 4;
            match decode(word) {
                Err(e) => report.flag(
                    Category::Undecodable,
                    Loc::at(&sym.name).pc(pc),
                    format!("word {word:#010x} fails to decode: {e}"),
                ),
                Ok(insn) => {
                    let back = encode(insn);
                    if back != word {
                        report.flag(
                            Category::Roundtrip,
                            Loc::at(&sym.name).pc(pc),
                            format!(
                                "word {word:#010x} decodes to {insn:?} which re-encodes to {back:#010x}"
                            ),
                        );
                    }
                }
            }
        }
    }
}

/// Per-procedure ISA lints on a built CFG: branch escapes, unreachable
/// blocks, and the use-before-def dataflow pass.
pub fn check_procedure(image: &Image, sym: &Symbol, cfg: &Cfg, report: &mut Report) {
    check_branch_targets(image, sym, cfg, report);
    check_reachability(sym, cfg, report);
    check_use_before_def(sym, cfg, report);
}

fn check_branch_targets(image: &Image, sym: &Symbol, cfg: &Cfg, report: &mut Report) {
    let n = cfg.insns.len() as i64;
    let text_words = image.words().len() as i64;
    for (i, insn) in cfg.insns.iter().enumerate() {
        let pc = sym.offset + (i as u64) * 4;
        let flow = insn.flow();
        let Some(local) = flow.target(i as u32) else {
            continue;
        };
        let is_call = matches!(flow, Flow::Call { .. });
        if !is_call && (0..n).contains(&local) {
            continue; // ordinary in-procedure branch
        }
        let global = i64::from(cfg.start_word) + local;
        if !(0..text_words).contains(&global) {
            report.flag_as(
                Severity::Error,
                Category::EscapedBranch,
                Loc::at(&sym.name).pc(pc),
                format!("branch target word {global} is outside the image text"),
            );
            continue;
        }
        let target_off = (global as u64) * 4;
        if is_call {
            // Calls legitimately leave the procedure, but should land on
            // a procedure start.
            let at_start = image
                .symbol_at(target_off)
                .is_some_and(|s| s.offset == target_off);
            if !at_start {
                report.flag(
                    Category::EscapedBranch,
                    Loc::at(&sym.name).pc(pc),
                    format!("call target {target_off:#x} is not a procedure start"),
                );
            }
        } else {
            let into = image
                .symbol_at(target_off)
                .map_or_else(|| "unmapped text".to_string(), |s| s.name.clone());
            report.flag(
                Category::EscapedBranch,
                Loc::at(&sym.name).pc(pc),
                format!("branch escapes the procedure into {into} ({target_off:#x})"),
            );
        }
    }
}

fn check_reachability(sym: &Symbol, cfg: &Cfg, report: &mut Report) {
    let reachable = reachable_blocks(cfg);
    for b in (0..cfg.blocks.len()).filter(|&b| !reachable[b]) {
        let pc = u64::from(cfg.blocks[b].start_word) * 4;
        report.flag(
            Category::UnreachableBlock,
            Loc::at(&sym.name).pc(pc).block(b),
            "basic block is unreachable from the procedure entry",
        );
    }
}

/// Blocks reachable from the entry along CFG edges.
pub(crate) fn reachable_blocks(cfg: &Cfg) -> Vec<bool> {
    let mut seen = vec![false; cfg.blocks.len()];
    let mut stack = vec![cfg.entry.0];
    seen[cfg.entry.0] = true;
    while let Some(b) = stack.pop() {
        for e in &cfg.edges {
            if e.from.0 == b && !seen[e.to.0] {
                seen[e.to.0] = true;
                stack.push(e.to.0);
            }
        }
    }
    seen
}

fn check_use_before_def(sym: &Symbol, cfg: &Cfg, report: &mut Report) {
    // Registers live into the entry with nothing live at the exits: read
    // on some path before any write to them.
    let live_in = solve(cfg, &Liveness::closed()).entry;
    let suspicious = live_in[cfg.entry.0] & !abi_live_on_entry();
    for r in 0..Reg::COUNT {
        if suspicious & (1 << r) == 0 {
            continue;
        }
        let reg = Reg::from_index(r as u8);
        // Locate the first read for the diagnostic's position.
        let pc = cfg
            .insns
            .iter()
            .position(|i| i.reads().contains(&reg))
            .map(|i| sym.offset + (i as u64) * 4);
        report.flag(
            Category::UseBeforeDef,
            Loc::at(&sym.name).pc(pc),
            format!("{reg:?} may be read before it is ever written"),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcpi_isa::asm::Asm;
    use dcpi_isa::reg::Reg;

    fn image_of(f: impl FnOnce(&mut Asm)) -> Image {
        let mut a = Asm::new("/t");
        f(&mut a);
        a.finish()
    }

    fn check_first_proc(image: &Image) -> Report {
        let sym = image.symbols()[0].clone();
        let cfg = Cfg::build(image, &sym).unwrap();
        let mut r = Report::new();
        check_image_words(image, &mut r);
        check_procedure(image, &sym, &cfg, &mut r);
        r
    }

    #[test]
    fn clean_procedure_has_no_errors() {
        let image = image_of(|a| {
            a.proc("f");
            a.li(Reg::T0, 10);
            let top = a.here();
            a.subq_lit(Reg::T0, 1, Reg::T0);
            a.bne(Reg::T0, top);
            a.halt();
        });
        let r = check_first_proc(&image);
        assert!(r.is_clean(), "{}", r.render());
    }

    #[test]
    fn corrupted_word_fails_roundtrip_or_decode() {
        let image = image_of(|a| {
            a.proc("f");
            a.addq_lit(Reg::T0, 1, Reg::T0);
            a.halt();
        });
        let mut words = image.words().to_vec();
        words[0] = 0x0000_00ff; // CALL_PAL with an unknown function code
        let bad = Image::new("/t".into(), words, image.symbols().to_vec());
        let mut r = Report::new();
        check_image_words(&bad, &mut r);
        assert!(!r.is_clean());
    }

    #[test]
    fn unreachable_block_is_flagged() {
        let image = image_of(|a| {
            a.proc("f");
            a.ret(Reg::RA);
            a.addq_lit(Reg::T0, 1, Reg::T0); // dead code after the return
            a.halt();
        });
        let r = check_first_proc(&image);
        assert!(r
            .diags
            .iter()
            .any(|d| d.category == Category::UnreachableBlock));
        assert!(r.is_clean(), "dead code is a warning, not an error");
    }

    #[test]
    fn use_before_def_is_flagged_and_args_are_not() {
        let image = image_of(|a| {
            a.proc("f");
            a.addq(Reg::T3, Reg::A0, Reg::V0); // t3 never written
            a.ret(Reg::RA);
        });
        let r = check_first_proc(&image);
        let ubd: Vec<_> = r
            .diags
            .iter()
            .filter(|d| d.category == Category::UseBeforeDef)
            .collect();
        assert_eq!(ubd.len(), 1, "{}", r.render());
        assert!(ubd[0].message.contains("t3"), "{}", ubd[0].message);
    }

    #[test]
    fn defined_on_only_one_path_is_still_flagged() {
        let image = image_of(|a| {
            a.proc("f");
            let skip = a.label();
            a.beq(Reg::A0, skip);
            a.li(Reg::T0, 7); // defines t0 on the fall-through path only
            a.bind(skip);
            a.addq(Reg::T0, Reg::A0, Reg::V0);
            a.ret(Reg::RA);
        });
        let r = check_first_proc(&image);
        assert!(r
            .diags
            .iter()
            .any(|d| d.category == Category::UseBeforeDef && d.message.contains("t0")));
    }

    #[test]
    fn escaping_branch_is_flagged() {
        let image = image_of(|a| {
            a.proc("f");
            let out = a.label();
            a.beq(Reg::T0, out);
            a.halt();
            a.proc("g");
            a.bind(out);
            a.halt();
        });
        let sym = image.symbol_named("f").unwrap().clone();
        let cfg = Cfg::build(&image, &sym).unwrap();
        let mut r = Report::new();
        check_procedure(&image, &sym, &cfg, &mut r);
        assert!(r
            .diags
            .iter()
            .any(|d| d.category == Category::EscapedBranch && d.message.contains("into g")));
    }
}
