//! dcpicalc: per-instruction CPI and stall bubbles (§3.2, Figure 2).
//!
//! Renders a procedure analysis as the paper's annotated listing: the
//! best-case and actual CPI header, then each instruction with its sample
//! count and average cycles, with *bubble* lines above stalled
//! instructions naming the possible culprits (e.g. `dwD`) and the
//! instructions that may have caused them.

use dcpi_analyze::analysis::ProcAnalysis;
use dcpi_analyze::culprit::DynamicCause;
use dcpi_isa::pipeline::StaticCause;
use std::fmt::Write as _;

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

/// The widest padding a row needs: the instruction column.
const SPACES: &str = "                              ";

/// One column of a row: the ASCII that `text` appends, padded to `width`
/// with a prefix of `fill` put before it (`{:>width$}`) or after it
/// (`{:<width$}`).
fn column(
    out: &mut String,
    width: usize,
    fill: &str,
    before: bool,
    text: impl FnOnce(&mut String),
) {
    let from = out.len();
    text(out);
    let fill = &fill[..width.saturating_sub(out.len() - from)];
    out.insert_str(if before { from } else { out.len() }, fill);
}

/// Appends `value` in base `RADIX` (10 or 16) without the formatter.
fn push_int<const RADIX: u64>(out: &mut String, mut value: u64) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b"0123456789abcdef"[(value % RADIX) as usize];
        value /= RADIX;
        if value == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&digits[at..]).expect("ASCII digits"));
}

/// Appends `x` as `{:.1}` prints it — one decimal, the exact binary value
/// rounded half to even — in integer arithmetic; values outside
/// `[0, 2^52)` go through the formatter.
fn push_tenths(out: &mut String, x: f64) {
    // x = mantissa × 2^-shift, so 10x = mantissa × 10 / 2^shift exactly.
    let shift = 1075 - (x.to_bits() >> 52) as i64;
    if x.is_sign_negative() || shift < 1 {
        let _ = write!(out, "{x:.1}");
        return;
    }
    let m10 = (x.to_bits() & ((1 << 52) - 1) | 1 << 52) * 10;
    // Below 2^-7 (zero and subnormals included) the value rounds to 0.0.
    let shift = shift.min(60);
    let (quotient, rest, half) = (m10 >> shift, m10 & ((1 << shift) - 1), 1 << (shift - 1));
    let tenths = quotient + u64::from(rest > half || (rest == half && quotient % 2 == 1));
    push_int::<10>(out, tenths / 10);
    out.push('.');
    push_int::<10>(out, tenths % 10);
}

/// The three `***` lines dcpicalc and dcpisumm both open with; dcpisumm
/// ends the best-case line with a comma (`best_case_end`), as Figure 4 does.
pub(crate) fn write_cpi_header(out: &mut String, pa: &ProcAnalysis, best_case_end: &str) {
    let freq_sum = pa.insns.iter().map(|i| i.freq).sum::<f64>().max(1.0);
    let (best, actual) = (pa.best_case_cpi(), pa.actual_cpi());
    let _ = writeln!(out, "*** Procedure {}", pa.name);
    let _ = writeln!(
        out,
        "*** Best-case {:.0}/{freq_sum:.0} = {best:.2}CPI{best_case_end}",
        best * freq_sum
    );
    let _ = writeln!(
        out,
        "*** Actual    {:.0}/{freq_sum:.0} = {actual:.2}CPI",
        actual * freq_sum
    );
}

/// Renders the Figure 2 style listing for a procedure. `image_base` is
/// the address at which the image is (nominally) loaded, used only for
/// the printed addresses.
#[must_use]
pub fn dcpicalc(pa: &ProcAnalysis, image_base: u64) -> String {
    // A row is about 70 bytes; stalled instructions add bubble lines.
    let mut out = String::with_capacity(256 + 96 * pa.insns.len());
    write_cpi_header(&mut out, pa, "");
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "{:>8}  {:<30} {:>9} {:>10}  Culprit",
        "Addr", "Instruction", "Samples", "CPI"
    );
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
                    let _ = writeln!(
                        out,
                        "{:>51}  ({} = {})",
                        letters,
                        c.cause.letter(),
                        legend(c.cause)
                    );
                }
            }
            let stall = ia.dynamic_stall();
            if stall >= 0.05 {
                let _ = writeln!(out, "{:>51}  ... {:.1}cy", letters, stall);
            }
        }
        // Bubble lines for static slotting stalls.
        for st in &ia.static_stalls {
            if st.cause == StaticCause::Slotting {
                let _ = writeln!(out, "{:>51}  (s = slotting hazard)", "s");
            }
        }
        // The instruction row: address, instruction padded to 30 columns,
        // samples, CPI right-aligned in 12, culprit addresses.
        column(&mut out, 8, "00000000", true, |o| {
            push_int::<16>(o, image_base + ia.offset);
        });
        out.push_str("  ");
        column(&mut out, 30, SPACES, false, |o| {
            let _ = write!(o, "{}", ia.insn);
        });
        out.push(' ');
        column(&mut out, 9, SPACES, true, |o| push_int::<10>(o, ia.samples));
        out.push(' ');
        column(&mut out, 12, SPACES, true, |o| {
            if ia.dual_with_prev && ia.samples == 0 {
                o.push_str("(dual issue)");
            } else if ia.freq > 0.0 {
                push_tenths(o, ia.cpi);
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
    fn push_tenths_matches_the_formatter() {
        let mut state = 0x7e57u64;
        let mut cases = vec![0.0, -0.0, -1.25, 0.05, 0.25, 0.75, 99.95, 1e15, 5e15, 1e300];
        cases.extend([
            f64::MIN_POSITIVE,
            5e-324,
            f64::INFINITY,
            f64::NAN,
            0.0078125,
        ]);
        for i in 0..60_000u64 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            // Sixteenths hit exact ties; raw bit patterns cover every exponent.
            cases.push((state >> 40) as f64 / 16.0);
            cases.push(f64::from_bits(state >> (i % 3)));
        }
        for x in cases {
            let mut fast = String::new();
            push_tenths(&mut fast, x);
            assert_eq!(fast, format!("{x:.1}"), "{x:e}");
        }
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
