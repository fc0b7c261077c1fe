//! dcpisumm: the procedure cycle-breakdown summary (§3.3, Figure 4).

use dcpi_analyze::analysis::ProcAnalysis;
use dcpi_analyze::culprit::DynamicCause;
use dcpi_analyze::summary::{ProcSummary, DYNAMIC_ORDER, STATIC_ORDER};

use crate::text::{column, push_fixed, push_int, SPACES};

/// Renders the Figure 4 summary for an analyzed procedure.
#[must_use]
pub fn dcpisumm(pa: &ProcAnalysis) -> String {
    let mut out = String::with_capacity(1536);
    crate::dcpicalc::write_cpi_header(&mut out, pa, ",");
    write_summary(&mut out, &pa.summary);
    out
}

/// A `***` line with nothing after it, between groups of rows.
const GAP: &str = "***\n";

/// The dashed rule above each subtotal (`*** {:-^44}`).
const RULE: &str = "*** --------------------------------------------\n";

/// Appends the category table of a [`ProcSummary`].
fn write_summary(out: &mut String, s: &ProcSummary) {
    out.push_str(GAP);
    for &cause in &DYNAMIC_ORDER {
        if cause == DynamicCause::Unexplained {
            continue;
        }
        let r = s.dynamic_range(cause);
        range_row(out, cause.label(), r.min, r.max);
    }
    out.push_str(GAP);
    let u = s.dynamic_range(DynamicCause::Unexplained);
    range_row(out, "Unexplained stall", u.min, u.max);
    let gain = s.unexplained_gain_pct;
    range_row(out, "Unexplained gain", gain, gain);
    out.push_str(RULE);
    row(out, "Subtotal dynamic", s.subtotal_dynamic_pct);
    out.push_str(GAP);
    for (cause, pct) in s.static_.iter().filter(|(c, _)| STATIC_ORDER.contains(c)) {
        row(out, cause.label(), *pct);
    }
    out.push_str(RULE);
    row(out, "Subtotal static", s.subtotal_static_pct);
    out.push_str(RULE);
    let stall = s.subtotal_dynamic_pct + s.subtotal_static_pct;
    row(out, "Total stall", stall);
    row(out, "Execution", s.execution_pct);
    row(out, "Net sampling error", s.net_error_pct);
    out.push_str(RULE);
    let total = stall + s.execution_pct + s.net_error_pct + s.unexplained_gain_pct;
    row(out, "Total tallied", total);
    out.push_str("***  (");
    push_int::<10>(out, s.tallied_samples);
    out.push_str(", ");
    push_fixed(out, s.tallied_fraction() * 100.0, 1);
    out.push_str("% of all samples)\n");
}

/// A range row: `***  {label:<22} {min:>5.1}% to {max:>5.1}%`.
fn range_row(out: &mut String, label: &str, min: f64, max: f64) {
    label_cell(out, label);
    column(out, 5, SPACES, true, |o| push_fixed(o, min, 1));
    out.push_str("% to ");
    column(out, 5, SPACES, true, |o| push_fixed(o, max, 1));
    out.push_str("%\n");
}

/// A one-figure row: `***  {label:<22} {pct:>14.1}%`.
fn row(out: &mut String, label: &str, pct: f64) {
    label_cell(out, label);
    column(out, 14, SPACES, true, |o| push_fixed(o, pct, 1));
    out.push_str("%\n");
}

/// The start of every row: `***  {label:<22} `.
fn label_cell(out: &mut String, label: &str) {
    out.push_str("***  ");
    column(out, 22, SPACES, false, |o| o.push_str(label));
    out.push(' ');
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcpi_analyze::analysis::{analyze_procedure, AnalysisOptions};
    use dcpi_core::{Event, ImageId, ProfileSet};
    use dcpi_isa::asm::Asm;
    use dcpi_isa::pipeline::PipelineModel;
    use dcpi_isa::reg::Reg;

    fn loop_analysis() -> ProcAnalysis {
        let mut a = Asm::new("/t");
        a.proc("smooth_");
        let top = a.here();
        a.ldq(Reg::T4, 0, Reg::T1);
        a.lda(Reg::T1, 8, Reg::T1);
        a.addq(Reg::V0, Reg::T4, Reg::V0);
        a.subq_lit(Reg::T0, 1, Reg::T0);
        a.bne(Reg::T0, top);
        a.ret(Reg::RA);
        let image = a.finish();
        let sym = image.symbols()[0].clone();
        let mut set = ProfileSet::new();
        // Loop with a memory stall on the addq (consumes the load).
        for (i, c) in [1000u64, 0, 9000, 1000, 1000].iter().enumerate() {
            set.add(ImageId(1), Event::Cycles, (i as u64) * 4, *c);
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
    fn summary_has_figure_4_sections() {
        let text = dcpisumm(&loop_analysis());
        assert!(text.contains("Best-case"));
        assert!(text.contains("D-cache miss"));
        assert!(text.contains("Branch mispredict"));
        assert!(text.contains("Subtotal dynamic"));
        assert!(text.contains("Slotting"));
        assert!(text.contains("Ra dependency"));
        assert!(text.contains("Subtotal static"));
        assert!(text.contains("Total stall"));
        assert!(text.contains("Execution"));
        assert!(text.contains("Net sampling error"));
        assert!(text.contains("Total tallied"));
        assert!(text.contains("of all samples"));
    }

    #[test]
    fn totals_are_near_100_percent() {
        let pa = loop_analysis();
        let text = dcpisumm(&pa);
        let line = text
            .lines()
            .find(|l| l.contains("Total tallied"))
            .expect("total line");
        // Extract the percentage.
        let pct: f64 = line
            .split_whitespace()
            .find_map(|w| w.strip_suffix('%').and_then(|x| x.parse().ok()))
            .expect("percent value");
        assert!((pct - 100.0).abs() < 0.2, "{line}");
    }

    #[test]
    fn dcache_dominates_this_loop() {
        let pa = loop_analysis();
        let r = pa
            .summary
            .dynamic_range(dcpi_analyze::culprit::DynamicCause::DCacheMiss);
        assert!(r.max > 30.0, "d-cache max = {}", r.max);
    }
}
