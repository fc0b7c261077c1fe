//! PGO rewrite audits: verify a rewritten image against its original and
//! the old→new address map `dcpi-pgo` emitted.
//!
//! The rewriter's safety argument is that it only *moves* instructions
//! (layout, packing, rescheduling), *retargets* control flow to follow
//! the moves, *inverts* branch senses when the hot edge became the
//! fallthrough, and *re-points* materialized call addresses — it never
//! invents or deletes computation. This module re-checks that argument
//! from the artifacts alone, with no access to the rewriter's internal
//! state:
//!
//! * the map is total over the old text and injective into the new text
//!   (a bijection onto the live new words);
//! * every mapped word re-decodes, and the new instruction is one of the
//!   allowed variants of the old one (identical, retargeted branch,
//!   inverted branch aimed at the old fallthrough, or a re-pointed
//!   `ldah`/`lda` address slot preserving the destination register);
//! * every branch target in the rewritten image lands on a live (mapped)
//!   instruction — i.e. a block head that exists in the old program;
//! * unmapped new words are inert glue: `nop` padding that the
//!   whole-image reachability closure proves no execution can reach,
//!   inserted unconditional branches, or the low half of an address
//!   pair sitting immediately after its mapped high half.

use crate::diag::{Category, Loc, Report, Severity};
use dcpi_isa::encode::decode;
use dcpi_isa::image::Image;
use dcpi_isa::insn::Instruction;
use dcpi_isa::reg::Reg;
use dcpi_isa::rewrite::{branch_target, invert_cond, AddressMap};

/// Checks `new` + `map` as a rewrite of `old`. See the module docs for
/// the invariants; every violation is an error-severity diagnostic.
#[must_use]
#[allow(clippy::too_many_lines)]
pub fn check_rewrite(old: &Image, new: &Image, map: &AddressMap) -> Report {
    let mut report = Report::new();
    let ctx = new.name().to_string();
    let old_n = old.words().len();
    let new_n = new.words().len();

    // --- Map shape -------------------------------------------------
    if map.len() != old_n {
        report.flag(
            Category::PgoMap,
            &ctx,
            format!("map covers {} old words, image has {old_n}", map.len()),
        );
        return report; // everything below indexes through the map
    }
    if map.new_words as usize != new_n {
        report.flag(
            Category::PgoMap,
            &ctx,
            format!("map claims {} new words, image has {new_n}", map.new_words),
        );
    }
    if map.old_name != old.name() || map.new_name != new.name() {
        report.flag_as(
            Severity::Warning,
            Category::PgoMap,
            &ctx,
            format!(
                "map names {} -> {} do not match images {} -> {}",
                map.old_name,
                map.new_name,
                old.name(),
                new.name()
            ),
        );
    }
    if let Err(w) = map.check_bijective() {
        report.flag(
            Category::PgoMap,
            &ctx,
            format!("map is not a bijection over live words (at new word {w})"),
        );
        return report;
    }
    for w in 0..old_n as u32 {
        if map.get(w).is_some_and(|p| p as usize >= new_n) {
            report.flag(
                Category::PgoMap,
                Loc::at(&ctx).pc(u64::from(w) * 4),
                format!("old word {w} maps past the new text"),
            );
            return report;
        }
    }

    // The set of live (mapped-into) new words, and the reverse map.
    let mut live: Vec<Option<u32>> = vec![None; new_n];
    for w in 0..old_n as u32 {
        if let Some(p) = map.get(w) {
            live[p as usize] = Some(w);
        }
    }

    // --- Per-word rewrite legality ---------------------------------
    for w in 0..old_n as u32 {
        let Some(p) = map.get(w) else { continue };
        let at = Loc::at(&ctx).pc(u64::from(w) * 4);
        let old_insn = match decode(old.words()[w as usize]) {
            Ok(i) => i,
            Err(e) => {
                report.flag(
                    Category::PgoRewrite,
                    at,
                    format!("old word does not decode: {e:?}"),
                );
                continue;
            }
        };
        let new_insn = match decode(new.words()[p as usize]) {
            Ok(i) => i,
            Err(e) => {
                report.flag(
                    Category::PgoRewrite,
                    at,
                    format!("new word {p} does not decode: {e:?}"),
                );
                continue;
            }
        };
        match (old_insn, new_insn) {
            // A conditional branch may keep its sense and follow its old
            // taken target, or invert and aim at the old fallthrough.
            (
                Instruction::CondBr { cond, ra, disp },
                Instruction::CondBr {
                    cond: nc,
                    ra: nra,
                    disp: ndisp,
                },
            ) => {
                let nt = branch_target(p, ndisp);
                let expect = |t: i64| -> Option<i64> {
                    u32::try_from(t)
                        .ok()
                        .and_then(|t| map.get(t))
                        .map(i64::from)
                };
                if nra != ra {
                    report.flag(
                        Category::PgoRewrite,
                        at,
                        "rewritten branch tests a different register",
                    );
                } else if nc == cond {
                    if Some(nt) != expect(branch_target(w, disp)) {
                        report.flag(
                            Category::PgoTarget,
                            at,
                            "branch target does not follow the map",
                        );
                    }
                } else if nc == invert_cond(cond) {
                    if Some(nt) != expect(i64::from(w) + 1) {
                        report.flag(
                            Category::PgoTarget,
                            at,
                            "inverted branch does not aim at the old fallthrough",
                        );
                    }
                } else {
                    report.flag(
                        Category::PgoRewrite,
                        at,
                        "rewritten branch changed to an unrelated condition",
                    );
                }
            }
            (
                Instruction::Br { ra, disp },
                Instruction::Br {
                    ra: nra,
                    disp: ndisp,
                },
            ) => {
                let want = u32::try_from(branch_target(w, disp))
                    .ok()
                    .and_then(|t| map.get(t))
                    .map(i64::from);
                if nra != ra {
                    report.flag(
                        Category::PgoRewrite,
                        at,
                        "rewritten br writes a different return register",
                    );
                } else if Some(branch_target(p, ndisp)) != want {
                    report.flag(Category::PgoTarget, at, "br target does not follow the map");
                }
            }
            // Address-materialization slots may be rewritten to re-point
            // a moved call target; the destination register must survive.
            (
                Instruction::Lda { ra, .. } | Instruction::Ldah { ra, .. },
                Instruction::Lda { ra: nra, .. } | Instruction::Ldah { ra: nra, .. },
            ) if ra == nra => {}
            // Everything else must be carried over bit-identically.
            (o, n) if o == n => {}
            (o, n) => {
                report.flag(
                    Category::PgoRewrite,
                    at,
                    format!("instruction changed beyond allowed rewrites: {o:?} -> {n:?}"),
                );
            }
        }
    }

    // --- New-image control flow lands on live words ----------------
    let reachable = crate::dataflow::word_reachable(new);
    for (p, &word) in new.words().iter().enumerate() {
        let Ok(insn) = decode(word) else {
            if live[p].is_none() {
                report.flag(
                    Category::PgoRewrite,
                    &ctx,
                    format!("unmapped new word {p} does not decode"),
                );
            }
            continue;
        };
        if let Some(t) = insn.flow().target(p as u32) {
            let ok = usize::try_from(t).is_ok_and(|t| t < new_n && live[t].is_some());
            if !ok {
                report.flag(
                    Category::PgoTarget,
                    Loc::at(&ctx).pc(p as u64 * 4),
                    format!("new-image branch targets word {t}, which is not a live instruction"),
                );
            }
        }
        // Unmapped words must be inert glue: padding that no execution
        // can reach, a straightening branch, or the low half of a
        // patched address pair right after its mapped high half.
        if live[p].is_none() {
            let ok = match insn {
                Instruction::NOP => !reachable[p],
                Instruction::Br { ra: Reg::ZERO, .. } => true,
                Instruction::Lda { ra, .. } => {
                    p > 0
                        && live[p - 1].is_some()
                        && matches!(
                            decode(new.words()[p - 1]),
                            Ok(Instruction::Ldah { ra: ha, .. }) if ha == ra
                        )
                }
                _ => false,
            };
            if !ok {
                report.flag(
                    Category::PgoRewrite,
                    Loc::at(&ctx).pc(p as u64 * 4),
                    if insn == Instruction::NOP {
                        format!("unmapped padding at new word {p} is reachable")
                    } else {
                        format!("unmapped new word is not padding or glue: {insn:?}")
                    },
                );
            }
        }
    }

    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcpi_isa::encode::encode;
    use dcpi_isa::image::Symbol;
    use dcpi_isa::insn::{BrCond, IntOp, RegOrLit};

    /// A two-block image: a cond branch over one add, then halt.
    fn small_image() -> Image {
        let insns = vec![
            Instruction::CondBr {
                cond: BrCond::Bne,
                ra: Reg::T0,
                disp: 1,
            },
            Instruction::IntOp {
                op: IntOp::Addq,
                ra: Reg::T1,
                rb: RegOrLit::Reg(Reg::T1),
                rc: Reg::T1,
            },
            Instruction::CallPal {
                func: dcpi_isa::insn::PalFunc::Halt,
            },
        ];
        let words: Vec<u32> = insns.into_iter().map(encode).collect();
        let n = words.len() as u64;
        Image::new(
            "/t/small".into(),
            words,
            vec![Symbol {
                name: "main".into(),
                offset: 0,
                size: n * 4,
            }],
        )
    }

    #[test]
    fn identity_rewrite_is_clean() {
        let img = small_image();
        let map = AddressMap::identity(img.name(), img.name(), img.words().len());
        let r = check_rewrite(&img, &img, &map);
        assert!(r.is_clean(), "{}", r.render());
    }

    #[test]
    fn non_bijective_map_is_flagged() {
        let img = small_image();
        let mut map = AddressMap::identity(img.name(), img.name(), img.words().len());
        map.set(1, 0); // two old words land on new word 0
        let r = check_rewrite(&img, &img, &map);
        assert!(!r.is_clean());
        assert!(r.render().contains("pgo-map"));
    }

    #[test]
    fn changed_instruction_is_flagged() {
        let img = small_image();
        let mut words = img.words().to_vec();
        words[1] = encode(Instruction::IntOp {
            op: IntOp::Subq,
            ra: Reg::T1,
            rb: RegOrLit::Reg(Reg::T1),
            rc: Reg::T1,
        });
        let bad = Image::new(img.name().into(), words, img.symbols().to_vec());
        let map = AddressMap::identity(img.name(), img.name(), img.words().len());
        let r = check_rewrite(&img, &bad, &map);
        assert!(!r.is_clean());
        assert!(r.render().contains("pgo-rewrite"));
    }

    #[test]
    fn misaimed_branch_is_flagged() {
        let img = small_image();
        let mut words = img.words().to_vec();
        // Retarget the branch at its own fallthrough: legal encoding, but
        // it no longer follows the (identity) map.
        words[0] = encode(Instruction::CondBr {
            cond: BrCond::Bne,
            ra: Reg::T0,
            disp: 0,
        });
        let bad = Image::new(img.name().into(), words, img.symbols().to_vec());
        let map = AddressMap::identity(img.name(), img.name(), img.words().len());
        let r = check_rewrite(&img, &bad, &map);
        assert!(!r.is_clean());
        assert!(r.render().contains("pgo-target"));
    }

    #[test]
    fn reachable_unmapped_padding_is_flagged() {
        // Insert a nop on the branch's fallthrough path: every word is
        // legally mapped, but the pad can be executed.
        let img = small_image();
        let new_words = vec![
            encode(Instruction::CondBr {
                cond: BrCond::Bne,
                ra: Reg::T0,
                disp: 2, // -> new word 3 (the halt), following the map
            }),
            encode(Instruction::IntOp {
                op: IntOp::Bis,
                ra: Reg::ZERO,
                rb: RegOrLit::Reg(Reg::ZERO),
                rc: Reg::ZERO,
            }),
            img.words()[1], // add
            img.words()[2], // halt
        ];
        let new = Image::new(
            "/t/small.pgo".into(),
            new_words,
            vec![Symbol {
                name: "main".into(),
                offset: 0,
                size: 16,
            }],
        );
        let mut map = AddressMap::identity(img.name(), "/t/small.pgo", 3);
        map.new_words = 4;
        map.set(1, 2);
        map.set(2, 3);
        let r = check_rewrite(&img, &new, &map);
        assert!(!r.is_clean(), "{}", r.render());
        assert!(r.render().contains("padding"), "{}", r.render());
    }

    #[test]
    fn unreachable_padding_and_stray_lda_rules() {
        // br +1 skips dead code; the pad sits on the dead path.
        let insns = vec![
            Instruction::Br {
                ra: Reg::ZERO,
                disp: 1, // -> word 2
            },
            Instruction::IntOp {
                op: IntOp::Addq,
                ra: Reg::T1,
                rb: RegOrLit::Reg(Reg::T1),
                rc: Reg::T1,
            },
            Instruction::CallPal {
                func: dcpi_isa::insn::PalFunc::Halt,
            },
        ];
        let words: Vec<u32> = insns.into_iter().map(encode).collect();
        let img = Image::new(
            "/t/pad".into(),
            words,
            vec![Symbol {
                name: "main".into(),
                offset: 0,
                size: 12,
            }],
        );
        let new_words = vec![
            encode(Instruction::Br {
                ra: Reg::ZERO,
                disp: 2, // -> new word 3 (the halt)
            }),
            img.words()[1], // add (unreachable in both images)
            encode(Instruction::IntOp {
                op: IntOp::Bis,
                ra: Reg::ZERO,
                rb: RegOrLit::Reg(Reg::ZERO),
                rc: Reg::ZERO,
            }),
            img.words()[2], // halt
        ];
        let new = Image::new(
            "/t/pad.pgo".into(),
            new_words,
            vec![Symbol {
                name: "main".into(),
                offset: 0,
                size: 16,
            }],
        );
        let mut map = AddressMap::identity(img.name(), "/t/pad.pgo", 3);
        map.new_words = 4;
        map.set(2, 3);
        let r = check_rewrite(&img, &new, &map);
        assert!(r.is_clean(), "{}", r.render());

        // An unmapped lda with no mapped ldah before it is not glue.
        let mut stray = new.words().to_vec();
        stray[2] = encode(Instruction::Lda {
            ra: Reg::T0,
            rb: Reg::T0,
            disp: 8,
        });
        let bad = Image::new("/t/pad.pgo".into(), stray, new.symbols().to_vec());
        let r = check_rewrite(&img, &bad, &map);
        assert!(!r.is_clean(), "{}", r.render());
    }

    #[test]
    fn inverted_branch_at_old_fallthrough_is_legal() {
        // Swap the two successor blocks and invert the branch.
        let img = small_image();
        let new_words = vec![
            encode(Instruction::CondBr {
                cond: BrCond::Beq, // inverted
                ra: Reg::T0,
                disp: 1, // -> new word 2 (the old fallthrough)
            }),
            img.words()[2], // halt (old word 2)
            img.words()[1], // add (old word 1)
            encode(Instruction::Br {
                ra: Reg::ZERO,
                disp: -3, // glue back to the halt
            }),
        ];
        let new = Image::new(
            "/t/small.pgo".into(),
            new_words,
            vec![Symbol {
                name: "main".into(),
                offset: 0,
                size: 16,
            }],
        );
        let mut map = AddressMap::identity(img.name(), "/t/small.pgo", 3);
        map.new_words = 4;
        map.set(0, 0);
        map.set(1, 2);
        map.set(2, 1);
        let r = check_rewrite(&img, &new, &map);
        assert!(r.is_clean(), "{}", r.render());
    }
}
