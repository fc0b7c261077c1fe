//! Layer 3: audits over analysis outputs.
//!
//! After `estimate_frequencies` and the rest of the §6 pipeline ran, the
//! results must obey a web of internal invariants:
//!
//! * **fan-out** — block/edge/instruction estimates are copies of their
//!   class's estimate, bit for bit;
//! * **flow conservation** — a block's frequency matches the sum of its
//!   incoming edges (except at the entry) and of its outgoing edges
//!   (except at exits), within a tolerance that allows for sampling
//!   noise on independently-estimated classes (§6.1.4);
//! * **confidence labels** — propagated estimates are always demoted
//!   below `High`, per-instruction confidence mirrors the block's;
//! * **culprit completeness** — every instruction with a significant
//!   dynamic stall carries at least one culprit (the analyzer guarantees
//!   an `Unexplained` fallback), and none below the threshold does;
//! * **summary books** — the Figure 4 percentages, recomputed here from
//!   the per-instruction data, reconcile and sum to 100%.

use crate::diag::{Category, Loc, Report, Severity};
use dcpi_analyze::analysis::ProcAnalysis;
use dcpi_analyze::cfg::BlockId;
use dcpi_analyze::culprit::CulpritConfig;
use dcpi_analyze::equiv::frequency_classes;
use dcpi_analyze::frequency::{Confidence, EstimateSource, FrequencyEstimate};

/// Flow sums below this frequency carry too few samples to compare.
const MIN_FLOW_FREQ: f64 = 2.0;
/// Relative in/out-flow error above this warns.
const FLOW_WARN_REL: f64 = 0.35;
/// Relative in/out-flow error above this (between solidly-estimated
/// quantities) is an error.
const FLOW_ERROR_REL: f64 = 0.9;
/// Absolute tolerance when reconciling summary percentages.
const BOOKS_TOLERANCE: f64 = 1e-6;

/// Runs every layer-3 audit on one procedure's analysis.
pub fn check_analysis(pa: &ProcAnalysis, report: &mut Report) {
    check_fan_out(pa, report);
    check_estimate_sanity(pa, report);
    check_flow_conservation(pa, report);
    check_confidence(pa, report);
    check_culprits(pa, report);
    check_summary_books(pa, report);
}

fn same_estimate(a: Option<FrequencyEstimate>, b: Option<FrequencyEstimate>) -> bool {
    match (a, b) {
        (None, None) => true,
        (Some(x), Some(y)) => {
            x.value.to_bits() == y.value.to_bits()
                && x.confidence == y.confidence
                && x.source == y.source
        }
        _ => false,
    }
}

/// Block, edge, and instruction estimates must be exact copies of their
/// class's estimate.
fn check_fan_out(pa: &ProcAnalysis, report: &mut Report) {
    let name = &pa.name;
    let f = &pa.frequencies;
    let classes = frequency_classes(&pa.cfg);
    let nb = pa.cfg.blocks.len();
    let ne = pa.cfg.edges.len();
    if f.block_freq.len() != nb
        || f.edge_freq.len() != ne
        || f.insn_freq.len() != pa.cfg.insns.len()
    {
        report.flag(
            Category::FanOutMismatch,
            name,
            "frequency vectors have the wrong cardinality",
        );
        return;
    }
    for b in 0..nb {
        if !same_estimate(f.block_freq[b], f.class_freq[classes.block_class[b]]) {
            report.flag(
                Category::FanOutMismatch,
                Loc::at(name).block(b),
                "block estimate differs from its class estimate",
            );
        }
    }
    for e in 0..ne {
        if !same_estimate(f.edge_freq[e], f.class_freq[classes.edge_class[e]]) {
            report.flag(
                Category::FanOutMismatch,
                Loc::at(name).block(pa.cfg.edges[e].from.0),
                format!("edge {e} estimate differs from its class estimate"),
            );
        }
    }
    for (b, blk) in pa.cfg.blocks.iter().enumerate() {
        let expect = f.block_freq[b].map_or(0.0, |e| e.value);
        let base = (blk.start_word - pa.cfg.start_word) as usize;
        for i in base..base + blk.len as usize {
            if f.insn_freq[i].to_bits() != expect.to_bits() {
                report.flag(
                    Category::FanOutMismatch,
                    Loc::at(name).pc(pa.start_offset + (i as u64) * 4).block(b),
                    "instruction frequency differs from its block frequency",
                );
            }
        }
    }
}

/// Estimates must be finite and non-negative; per-instruction CPI must be
/// `samples / freq`.
fn check_estimate_sanity(pa: &ProcAnalysis, report: &mut Report) {
    let name = &pa.name;
    for (c, est) in pa.frequencies.class_freq.iter().enumerate() {
        if let Some(e) = est {
            if !e.value.is_finite() || e.value < 0.0 {
                report.flag(
                    Category::FlowConservation,
                    name,
                    format!(
                        "class {c} has a non-finite or negative frequency {}",
                        e.value
                    ),
                );
            }
        }
    }
    for ia in &pa.insns {
        let expect = if ia.freq > 0.0 {
            ia.samples as f64 / ia.freq
        } else {
            0.0
        };
        if ia.cpi.to_bits() != expect.to_bits() {
            report.flag(
                Category::FanOutMismatch,
                Loc::at(name).pc(ia.offset),
                format!("cpi {} is not samples/frequency = {expect}", ia.cpi),
            );
        }
    }
}

/// Flow conservation at each block: in-flow and out-flow versus the block
/// frequency. Classes estimated independently from samples disagree by
/// sampling noise, so violations within [`FLOW_WARN_REL`] are accepted,
/// modest ones warn, and only gross ones err.
fn check_flow_conservation(pa: &ProcAnalysis, report: &mut Report) {
    let name = &pa.name;
    let f = &pa.frequencies;
    for (b, blk) in pa.cfg.blocks.iter().enumerate() {
        let Some(bf) = f.block_freq[b] else { continue };
        for (edges, boundary, dir) in [
            (pa.cfg.in_edges(BlockId(b)), b == pa.cfg.entry.0, "in"),
            (pa.cfg.out_edges(BlockId(b)), blk.is_exit, "out"),
        ] {
            if boundary || edges.is_empty() {
                continue; // flow may enter or leave the procedure here
            }
            let mut sum = 0.0;
            let mut all_known = true;
            for &e in edges {
                match f.edge_freq[e] {
                    Some(est) => sum += est.value,
                    None => all_known = false,
                }
            }
            if !all_known {
                // Propagation left an edge unknown: the block's flow is
                // not fully constrained, nothing to compare.
                continue;
            }
            let scale = bf.value.max(sum);
            if scale < MIN_FLOW_FREQ {
                continue; // too small for a meaningful relative error
            }
            let rel = (bf.value - sum).abs() / scale;
            // Near-zero estimates (a handful of samples) routinely sit far
            // from their neighbors' flow; only escalate to an error when
            // both sides of the comparison are solidly estimated.
            let solid = bf.value.min(sum) >= MIN_FLOW_FREQ;
            let severity = if solid && rel > FLOW_ERROR_REL {
                Severity::Error
            } else if rel > FLOW_WARN_REL {
                Severity::Warning
            } else {
                continue;
            };
            report.flag_as(
                severity,
                Category::FlowConservation,
                Loc::at(name).block(b),
                format!(
                    "{dir}-flow {sum:.1} vs block frequency {:.1} (relative error {rel:.2})",
                    bf.value
                ),
            );
        }
    }
}

/// Confidence-label invariants.
fn check_confidence(pa: &ProcAnalysis, report: &mut Report) {
    let name = &pa.name;
    for (c, est) in pa.frequencies.class_freq.iter().enumerate() {
        if let Some(e) = est {
            if e.source == EstimateSource::Propagated && e.confidence == Confidence::High {
                report.flag(
                    Category::ConfidenceLabel,
                    name,
                    format!("class {c} is propagated but labeled High confidence"),
                );
            }
        }
    }
    // Per-instruction confidence mirrors the block estimate.
    for (b, blk) in pa.cfg.blocks.iter().enumerate() {
        let expect = pa.frequencies.block_freq[b].map(|e| e.confidence);
        let base = (blk.start_word - pa.cfg.start_word) as usize;
        for k in 0..blk.len as usize {
            let off = pa.start_offset + ((base + k) as u64) * 4;
            let Some(ia) = pa.insns.iter().find(|ia| ia.offset == off) else {
                report.flag(
                    Category::FanOutMismatch,
                    Loc::at(name).pc(off).block(b),
                    "no per-instruction record for this offset",
                );
                continue;
            };
            if ia.confidence != expect {
                report.flag(
                    Category::ConfidenceLabel,
                    Loc::at(name).pc(off).block(b),
                    format!(
                        "instruction confidence {:?} differs from block confidence {expect:?}",
                        ia.confidence
                    ),
                );
            }
        }
    }
}

/// The culprit analyzer guarantees: frequency-estimated instructions
/// whose dynamic stall reaches the analyzer's threshold get at least one
/// culprit (falling back to `Unexplained`), and instructions below it get
/// none.
fn check_culprits(pa: &ProcAnalysis, report: &mut Report) {
    let name = &pa.name;
    let threshold = CulpritConfig::default().dyn_stall_threshold;
    for ia in &pa.insns {
        for c in &ia.culprits {
            if let Some(x) = c.max_cycles {
                if !x.is_finite() || x < 0.0 {
                    report.flag(
                        Category::CulpritCompleteness,
                        Loc::at(name).pc(ia.offset),
                        format!("culprit {:?} has an invalid cycle bound {x}", c.cause),
                    );
                }
            }
        }
        if ia.freq <= 0.0 {
            if !ia.culprits.is_empty() {
                report.flag(
                    Category::CulpritCompleteness,
                    Loc::at(name).pc(ia.offset),
                    "culprits assigned to an instruction with no frequency estimate",
                );
            }
            continue;
        }
        let dyn_stall = ia.samples as f64 / ia.freq - ia.m as f64;
        let significant = dyn_stall >= threshold;
        if significant && ia.culprits.is_empty() {
            report.flag(
                Category::CulpritCompleteness,
                Loc::at(name).pc(ia.offset),
                format!("dynamic stall of {dyn_stall:.2} cycles/execution has no culprit"),
            );
        }
        if !significant && !ia.culprits.is_empty() {
            report.flag(
                Category::CulpritCompleteness,
                Loc::at(name).pc(ia.offset),
                format!("culprits assigned below the stall threshold ({dyn_stall:.2} cycles)"),
            );
        }
    }
}

/// Recomputes the Figure 4 books from the per-instruction data and
/// reconciles them against the stored summary.
fn check_summary_books(pa: &ProcAnalysis, report: &mut Report) {
    let name = &pa.name;
    let s = &pa.summary;
    let tol = BOOKS_TOLERANCE;
    // Independent re-aggregation.
    let total: u64 = pa.insns.iter().map(|i| i.samples).sum();
    let tallied: u64 = pa
        .insns
        .iter()
        .filter(|i| i.freq > 0.0)
        .map(|i| i.samples)
        .sum();
    let mut exec = 0.0;
    let mut static_total = 0.0;
    let mut dynamic_total = 0.0;
    let mut gain = 0.0;
    for ia in &pa.insns {
        if ia.freq <= 0.0 {
            continue;
        }
        exec += ia.freq * ia.m_ideal as f64;
        static_total += ia
            .static_stalls
            .iter()
            .map(|st| ia.freq * st.cycles as f64)
            .sum::<f64>();
        let d = ia.samples as f64 - ia.freq * ia.m as f64;
        if d < 0.0 {
            gain += d;
        } else {
            dynamic_total += d;
        }
    }
    let denom = tallied as f64;
    let pct = |x: f64| if denom > 0.0 { x / denom * 100.0 } else { 0.0 };
    if s.total_samples != total || s.tallied_samples != tallied {
        report.flag(
            Category::SummaryBooks,
            name,
            format!(
                "sample tallies disagree: summary {}/{} vs instruction data {tallied}/{total}",
                s.tallied_samples, s.total_samples
            ),
        );
    }
    let mut complain = |what: &str, got: f64, want: f64| {
        if (got - want).abs() > tol {
            report.flag(
                Category::SummaryBooks,
                name,
                format!("{what}: summary says {got:.4} but instruction data gives {want:.4}"),
            );
        }
    };
    complain("execution%", s.execution_pct, pct(exec));
    complain("static subtotal%", s.subtotal_static_pct, pct(static_total));
    complain(
        "dynamic subtotal%",
        s.subtotal_dynamic_pct,
        pct(dynamic_total),
    );
    complain("unexplained gain%", s.unexplained_gain_pct, pct(gain));
    let books = s.execution_pct
        + s.subtotal_static_pct
        + s.subtotal_dynamic_pct
        + s.unexplained_gain_pct
        + s.net_error_pct;
    let expect_books = if denom > 0.0 { 100.0 } else { 0.0 };
    complain("books total%", books, expect_books);
    // Ranges must be ordered and non-negative.
    for (cause, r) in &s.dynamic {
        if r.min < -tol || r.max < r.min - tol {
            report.flag(
                Category::SummaryBooks,
                name,
                format!("{cause:?} range [{:.2}, {:.2}] is malformed", r.min, r.max),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcpi_analyze::analysis::{analyze_procedure, AnalysisOptions};
    use dcpi_core::{Event, ImageId, ProfileSet};
    use dcpi_isa::asm::Asm;
    use dcpi_isa::pipeline::PipelineModel;
    use dcpi_isa::reg::Reg;

    fn analyzed_loop() -> ProcAnalysis {
        let mut a = Asm::new("/t");
        a.proc("f");
        a.li(Reg::T0, 100);
        let top = a.here();
        a.addq_lit(Reg::T1, 3, Reg::T1);
        a.subq_lit(Reg::T0, 1, Reg::T0);
        a.bne(Reg::T0, top);
        a.halt();
        let image = a.finish();
        let sym = image.symbols()[0].clone();
        let mut set = ProfileSet::new();
        set.add(ImageId(1), Event::Cycles, sym.offset, 10);
        for i in 1..4u64 {
            set.add(ImageId(1), Event::Cycles, sym.offset + i * 4, 1000);
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
    fn consistent_analysis_passes() {
        let pa = analyzed_loop();
        let mut r = Report::new();
        check_analysis(&pa, &mut r);
        assert!(r.is_clean(), "{}", r.render());
    }

    #[test]
    fn tampered_block_frequency_breaks_fan_out() {
        let mut pa = analyzed_loop();
        let b = pa
            .frequencies
            .block_freq
            .iter()
            .position(|e| e.is_some())
            .unwrap();
        pa.frequencies.block_freq[b].as_mut().unwrap().value += 1.0;
        let mut r = Report::new();
        check_analysis(&pa, &mut r);
        assert!(r
            .diags
            .iter()
            .any(|d| d.category == Category::FanOutMismatch));
    }

    #[test]
    fn tampered_edge_frequency_breaks_flow_conservation() {
        let mut pa = analyzed_loop();
        // Corrupt every edge estimate and the matching class slots so the
        // fan-out check stays quiet but flow conservation cannot hold.
        let classes = frequency_classes(&pa.cfg);
        for (e, slot) in pa.frequencies.edge_freq.iter_mut().enumerate() {
            if let Some(est) = slot.as_mut() {
                est.value = est.value * 40.0 + 1000.0;
                pa.frequencies.class_freq[classes.edge_class[e]] = *slot;
            }
        }
        let mut r = Report::new();
        check_analysis(&pa, &mut r);
        assert!(
            r.diags
                .iter()
                .any(|d| d.category == Category::FlowConservation && d.severity == Severity::Error),
            "{}",
            r.render()
        );
    }

    #[test]
    fn high_confidence_propagated_estimate_is_flagged() {
        let mut pa = analyzed_loop();
        let c = pa
            .frequencies
            .class_freq
            .iter()
            .position(|e| e.is_some_and(|e| e.source == EstimateSource::Propagated))
            .expect("loop analysis propagates the back edge");
        pa.frequencies.class_freq[c].as_mut().unwrap().confidence = Confidence::High;
        let mut r = Report::new();
        check_analysis(&pa, &mut r);
        assert!(r
            .diags
            .iter()
            .any(|d| d.category == Category::ConfidenceLabel));
    }

    #[test]
    fn dropped_culprit_is_flagged() {
        let mut pa = analyzed_loop();
        let Some(ia) = pa.insns.iter_mut().find(|ia| !ia.culprits.is_empty()) else {
            // The loop has no significant dynamic stall under these
            // counts; force one.
            let ia = &mut pa.insns[1];
            ia.samples = (ia.freq * (ia.m as f64 + 10.0)) as u64;
            let mut r = Report::new();
            check_analysis(&pa, &mut r);
            assert!(r
                .diags
                .iter()
                .any(|d| d.category == Category::CulpritCompleteness));
            return;
        };
        ia.culprits.clear();
        let mut r = Report::new();
        check_analysis(&pa, &mut r);
        assert!(r
            .diags
            .iter()
            .any(|d| d.category == Category::CulpritCompleteness));
    }

    #[test]
    fn cooked_summary_books_are_flagged() {
        let mut pa = analyzed_loop();
        pa.summary.execution_pct += 7.5;
        let mut r = Report::new();
        check_analysis(&pa, &mut r);
        assert!(r.diags.iter().any(|d| d.category == Category::SummaryBooks));
    }
}
