//! dcpicalc: per-instruction CPI and stall bubbles (§3.2, Figure 2).
//!
//! Renders a procedure analysis as the paper's annotated listing: the
//! best-case and actual CPI header, then each instruction with its sample
//! count and average cycles, with *bubble* lines above stalled
//! instructions naming the possible culprits (e.g. `dwD`) and the
//! instructions that may have caused them.

use crate::text::{column, push_fixed, push_int, SPACES};
use dcpi_analyze::analysis::ProcAnalysis;
use dcpi_analyze::culprit::DynamicCause;
use dcpi_isa::pipeline::StaticCause;

fn legend(cause: DynamicCause) -> &'static str {
    match cause {
        DynamicCause::ICacheMiss => "I-cache miss",
        DynamicCause::ItbMiss => "ITB miss",
        DynamicCause::DCacheMiss => "D-cache miss",
        DynamicCause::DtbMiss => "DTB miss",
        DynamicCause::WriteBuffer => "write-buffer overflow",
        DynamicCause::BranchMispredict => "branch mispredict",
        DynamicCause::ImulBusy => "IMUL busy",
        DynamicCause::FdivBusy => "FDIV busy",
        DynamicCause::Other => "PAL/other",
        DynamicCause::Unexplained => "unexplained",
    }
}

/// The three `***` lines dcpicalc and dcpisumm both open with; dcpisumm
/// ends the best-case line with a comma (`best_case_end`), as Figure 4 does.
pub(crate) fn write_cpi_header(out: &mut String, pa: &ProcAnalysis, best_case_end: &str) {
    let freq_sum = pa.insns.iter().map(|i| i.freq).sum::<f64>().max(1.0);
    out.push_str("*** Procedure ");
    out.push_str(&pa.name);
    out.push('\n');
    for (label, cpi, end) in [
        ("*** Best-case ", pa.best_case_cpi(), best_case_end),
        ("*** Actual    ", pa.actual_cpi(), ""),
    ] {
        out.push_str(label);
        push_fixed(out, cpi * freq_sum, 0);
        out.push('/');
        push_fixed(out, freq_sum, 0);
        out.push_str(" = ");
        push_fixed(out, cpi, 2);
        out.push_str("CPI");
        out.push_str(end);
        out.push('\n');
    }
}

/// Renders the Figure 2 style listing for a procedure. `image_base` is
/// the address at which the image is (nominally) loaded, used only for
/// the printed addresses.
#[must_use]
pub fn dcpicalc(pa: &ProcAnalysis, image_base: u64) -> String {
    // A row is about 70 bytes; stalled instructions add bubble lines.
    let mut out = String::with_capacity(256 + 96 * pa.insns.len());
    write_cpi_header(&mut out, pa, "");
    out.push_str("\n    Addr  Instruction                      Samples        CPI  Culprit\n");
    // Causes whose legend line has been printed, one bit per cause.
    let mut seen_legend = 0u16;
    let mut letters = String::new();
    for ia in &pa.insns {
        // Bubble lines for dynamic culprits.
        if !ia.culprits.is_empty() {
            letters.clear();
            letters.extend(ia.culprits.iter().map(|c| c.cause.letter()));
            for c in &ia.culprits {
                let bit = 1u16 << c.cause as u16;
                if seen_legend & bit == 0 {
                    seen_legend |= bit;
                    bubble(&mut out, &letters);
                    out.push_str("  (");
                    out.push(c.cause.letter());
                    out.push_str(" = ");
                    out.push_str(legend(c.cause));
                    out.push_str(")\n");
                }
            }
            let stall = ia.dynamic_stall();
            if stall >= 0.05 {
                bubble(&mut out, &letters);
                out.push_str("  ... ");
                push_fixed(&mut out, stall, 1);
                out.push_str("cy\n");
            }
        }
        // Bubble lines for static slotting stalls.
        for st in &ia.static_stalls {
            if st.cause == StaticCause::Slotting {
                bubble(&mut out, "s");
                out.push_str("  (s = slotting hazard)\n");
            }
        }
        // The instruction row: address, instruction padded to 30 columns,
        // samples, CPI right-aligned in 12, culprit addresses.
        column(&mut out, 8, "00000000", true, |o| {
            push_int::<16>(o, image_base + ia.offset);
        });
        out.push_str("  ");
        column(&mut out, 30, SPACES, false, |o| {
            let _ = ia.insn.write_asm(o);
        });
        out.push(' ');
        column(&mut out, 9, SPACES, true, |o| push_int::<10>(o, ia.samples));
        out.push(' ');
        column(&mut out, 12, SPACES, true, |o| {
            if ia.dual_with_prev && ia.samples == 0 {
                o.push_str("(dual issue)");
            } else if ia.freq > 0.0 {
                push_fixed(o, ia.cpi, 1);
                o.push_str("cy");
            } else if ia.samples != 0 {
                o.push('?');
            }
        });
        out.push_str("  ");
        let mut separator = "";
        for j in ia.culprits.iter().filter_map(|c| c.culprit_insn) {
            out.push_str(separator);
            push_int::<16>(&mut out, image_base + pa.start_offset + (j as u64) * 4);
            separator = " ";
        }
        out.push('\n');
    }
    out
}

/// The left part of a bubble line: its culprit letters, right-aligned
/// under the end of the instruction column (`{:>51}`).
fn bubble(out: &mut String, letters: &str) {
    column(out, 51, SPACES, true, |o| o.push_str(letters));
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcpi_analyze::analysis::{analyze_procedure, AnalysisOptions};
    use dcpi_core::{Event, ImageId, ProfileSet};
    use dcpi_isa::asm::Asm;
    use dcpi_isa::pipeline::PipelineModel;
    use dcpi_isa::reg::Reg;

    fn copy_analysis() -> ProcAnalysis {
        use dcpi_isa::insn::{Instruction, IntOp, RegOrLit};
        let mut a = Asm::new("/t");
        a.proc("pad");
        a.halt();
        a.halt();
        a.proc("copy");
        let top = a.here();
        a.ldq(Reg::T4, 0, Reg::T1);
        a.addq_lit(Reg::T0, 4, Reg::T0);
        a.ldq(Reg::T5, 8, Reg::T1);
        a.ldq(Reg::T6, 16, Reg::T1);
        a.ldq(Reg::A0, 24, Reg::T1);
        a.lda(Reg::T1, 32, Reg::T1);
        a.stq(Reg::T4, 0, Reg::T2);
        a.emit(Instruction::IntOp {
            op: IntOp::Cmpult,
            ra: Reg::T0,
            rb: RegOrLit::Reg(Reg::V0),
            rc: Reg::T4,
        });
        a.stq(Reg::T5, 8, Reg::T2);
        a.stq(Reg::T6, 16, Reg::T2);
        a.stq(Reg::A0, 24, Reg::T2);
        a.lda(Reg::T2, 32, Reg::T2);
        a.bne(Reg::T4, top);
        a.halt();
        let image = a.finish();
        let sym = image.symbol_named("copy").unwrap().clone();
        let mut set = ProfileSet::new();
        let counts = [
            3126, 0, 1636, 390, 1482, 0, 27766, 0, 1493, 174_727, 1548, 0, 1586, 0,
        ];
        for (i, &c) in counts.iter().enumerate() {
            set.add(ImageId(1), Event::Cycles, sym.offset + (i as u64) * 4, c);
        }
        analyze_procedure(
            &image,
            &sym,
            &set,
            ImageId(1),
            &PipelineModel::default(),
            &AnalysisOptions::default(),
        )
        .unwrap()
    }

    #[test]
    fn output_contains_figure_2_elements() {
        let pa = copy_analysis();
        let text = dcpicalc(&pa, 0x9800);
        assert!(text.contains("Best-case"), "{text}");
        assert!(text.contains("0.62CPI"), "{text}");
        assert!(text.contains("ldq t4, 0(t1)"));
        assert!(text.contains("(dual issue)"));
        assert!(text.contains("(d = D-cache miss)"));
        assert!(text.contains("(w = write-buffer overflow)"));
        assert!(text.contains("(D = DTB miss)"));
        assert!(text.contains("(p = branch mispredict)"));
        assert!(text.contains("(s = slotting hazard)"));
    }

    #[test]
    fn unexplained_legend_survives_an_earlier_slotting_bubble() {
        use dcpi_analyze::culprit::Culprit;
        let mut pa = copy_analysis();
        let slotted = pa
            .insns
            .iter()
            .position(|ia| {
                let mut stalls = ia.static_stalls.iter();
                stalls.any(|st| st.cause == StaticCause::Slotting)
            })
            .expect("a slotting stall");
        let last = pa.insns.len() - 1;
        assert!(slotted < last);
        pa.insns[last].culprits = vec![Culprit {
            cause: DynamicCause::Unexplained,
            culprit_insn: None,
            max_cycles: Some(3.0),
        }];
        let text = dcpicalc(&pa, 0);
        let slotting = text.find("(s = slotting hazard)").expect("slotting legend");
        let unexplained = text.find("(? = unexplained)").expect("unexplained legend");
        assert!(slotting < unexplained, "{text}");
    }

    #[test]
    fn addresses_use_image_base() {
        let pa = copy_analysis();
        let text = dcpicalc(&pa, 0x9808);
        // pad is 2 words, so copy starts at 0x9808 + 8 = 0x9810.
        assert!(text.contains("00009810"), "{text}");
    }

    #[test]
    fn stall_duration_lines_present() {
        let pa = copy_analysis();
        let text = dcpicalc(&pa, 0);
        // The 114.5cy class stall of stq t6 should appear (approximately),
        // with the d/w/D letters of Figure 2 in its bubble.
        let has_big_stall = text.lines().any(|l| {
            l.contains("cy")
                && l.contains("...")
                && l.contains('d')
                && l.contains('w')
                && l.contains('D')
        });
        assert!(has_big_stall, "{text}");
    }

    #[test]
    fn culprit_addresses_point_at_loads() {
        let pa = copy_analysis();
        let text = dcpicalc(&pa, 0x9808);
        // stq t4's row should name the ldq's address 9810 as a culprit.
        let stq_line = text
            .lines()
            .find(|l| l.contains("stq t4"))
            .expect("stq row");
        assert!(stq_line.contains("9810"), "{stq_line}");
    }
}
