//! dcpicfg: annotated control-flow graphs.
//!
//! The paper's tool suite "produce\[s\] formatted Postscript output of
//! annotated control-flow graphs" (§3). This is that tool with a modern
//! output format: Graphviz DOT. Each basic block node shows its
//! instructions with per-instruction samples and CPI; node fill encodes
//! relative heat; edges are labeled with estimated traversal frequencies.

use dcpi_analyze::analysis::ProcAnalysis;
use dcpi_analyze::cfg::EdgeKind;
use std::fmt::Write as _;

/// Renders a procedure analysis as a Graphviz DOT graph.
#[must_use]
pub fn dcpicfg(pa: &ProcAnalysis) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "digraph \"{}\" {{", pa.name);
    let _ = writeln!(out, "  node [shape=box, fontname=\"monospace\"];");
    let _ = writeln!(
        out,
        "  label=\"{} — best-case {:.2} CPI, actual {:.2} CPI\";",
        pa.name,
        pa.best_case_cpi(),
        pa.actual_cpi()
    );
    let max_freq = pa
        .frequencies
        .block_freq
        .iter()
        .flatten()
        .map(|e| e.value)
        .fold(0.0f64, f64::max)
        .max(1e-9);
    for (b, blk) in pa.cfg.blocks.iter().enumerate() {
        let freq = pa.frequencies.block_freq[b].map_or(0.0, |e| e.value);
        // Heat: white → red by relative frequency.
        let heat = (freq / max_freq * 9.0).round() as u32;
        let mut label = format!("block {b}  F≈{freq:.0}\\l");
        let base = (blk.start_word - pa.cfg.start_word) as usize;
        for ia in pa.insns[base..base + blk.len as usize].iter() {
            let _ = write!(
                label,
                "{:05x}: {:<24} {:>7} {:>6.1}cy\\l",
                ia.offset,
                ia.insn.to_string(),
                ia.samples,
                ia.cpi
            );
        }
        let _ = writeln!(
            out,
            "  b{b} [label=\"{label}\", style=filled, colorscheme=reds9, fillcolor={}];",
            heat.clamp(1, 9)
        );
    }
    for (e, edge) in pa.cfg.edges.iter().enumerate() {
        let freq = pa.frequencies.edge_freq[e].map_or(0.0, |x| x.value);
        let style = match edge.kind {
            EdgeKind::FallThrough => "solid",
            EdgeKind::Taken => "bold",
            EdgeKind::Indirect => "dashed",
        };
        let _ = writeln!(
            out,
            "  b{} -> b{} [label=\"{freq:.0}\", style={style}];",
            edge.from.0, edge.to.0
        );
    }
    if pa.cfg.missing_edges {
        let _ = writeln!(
            out,
            "  missing [label=\"(unresolved indirect jumps)\", shape=plaintext];"
        );
    }
    let _ = writeln!(out, "}}");
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

    fn analysis() -> ProcAnalysis {
        let mut a = Asm::new("/t");
        a.proc("looper");
        a.li(Reg::T0, 100);
        let top = a.here();
        a.addq_lit(Reg::T1, 1, Reg::T1);
        a.subq_lit(Reg::T0, 1, Reg::T0);
        a.bne(Reg::T0, top);
        a.halt();
        let image = a.finish();
        let sym = image.symbols()[0].clone();
        let mut set = ProfileSet::new();
        for (i, c) in [5u64, 800, 820, 790, 0].iter().enumerate() {
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
    fn dot_output_is_well_formed() {
        let text = dcpicfg(&analysis());
        assert!(text.starts_with("digraph"));
        assert!(text.trim_end().ends_with('}'));
        assert!(text.contains("b0 ->"), "{text}");
        assert!(text.contains("subq t0, 0x1, t0"), "{text}");
        assert!(text.contains("best-case"));
        // The loop's back edge is bold (taken).
        assert!(text.contains("style=bold"));
        // Balanced braces.
        assert_eq!(
            text.matches('{').count(),
            text.matches('}').count(),
            "{text}"
        );
    }

    #[test]
    fn hot_block_is_hotter_than_cold() {
        let text = dcpicfg(&analysis());
        // Block 1 (the loop body) must carry the highest fill level 9.
        let b1 = text
            .lines()
            .find(|l| l.trim_start().starts_with("b1 ["))
            .expect("b1 node");
        assert!(b1.contains("fillcolor=9"), "{b1}");
        let b0 = text
            .lines()
            .find(|l| l.trim_start().starts_with("b0 ["))
            .expect("b0 node");
        assert!(b0.contains("fillcolor=1"), "{b0}");
    }
}
