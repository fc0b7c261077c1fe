//! CFG edge cases driven through the whole analyze + check pipeline:
//! unresolved indirect jumps (the missing-edges fallback), single-block
//! procedures, and loops with no fall-through exit.

use dcpi_analyze::analysis::{analyze_procedure, AnalysisOptions};
use dcpi_analyze::cfg::Cfg;
use dcpi_check::{check_analysis, check_image, check_procedure};
use dcpi_core::{Event, ImageId, ProfileSet};
use dcpi_isa::asm::Asm;
use dcpi_isa::image::Image;
use dcpi_isa::pipeline::PipelineModel;
use dcpi_isa::reg::Reg;

fn samples_for(image: &Image, per_insn: u64) -> ProfileSet {
    let sym = &image.symbols()[0];
    let mut set = ProfileSet::new();
    for i in 0..sym.size / 4 {
        set.add(ImageId(1), Event::Cycles, sym.offset + i * 4, per_insn);
    }
    set
}

fn analyze(image: &Image, set: &ProfileSet) -> dcpi_analyze::analysis::ProcAnalysis {
    let sym = image.symbols()[0].clone();
    analyze_procedure(
        image,
        &sym,
        set,
        ImageId(1),
        &PipelineModel::default(),
        &AnalysisOptions::default(),
    )
    .expect("analysis")
}

/// An unresolved indirect jump: the CFG flags `missing_edges`, frequency
/// estimation falls back to trivial (per-item) classes, and the checker
/// accepts the whole degraded pipeline without errors.
#[test]
fn unresolved_indirect_jump_falls_back_cleanly() {
    let mut a = Asm::new("/t");
    a.proc("dispatch");
    a.addq_lit(Reg::A0, 0, Reg::T3);
    a.jsr(Reg::ZERO, Reg::T3); // jmp (t3): targets unknown statically
    let image = a.finish();
    let sym = image.symbols()[0].clone();

    let cfg = Cfg::build(&image, &sym).expect("cfg");
    assert!(cfg.missing_edges, "indirect jump must poison edge info");
    let report = check_procedure(&image, &sym, &cfg);
    assert!(report.is_clean(), "{}", report.render());

    let pa = analyze(&image, &samples_for(&image, 500));
    assert!(pa.cfg.missing_edges);
    let report = check_analysis(&pa);
    assert!(report.is_clean(), "{}", report.render());
}

/// A single-block procedure: one block, no edges, and the estimate
/// audits (flow conservation has nothing to compare) stay quiet.
#[test]
fn single_block_procedure_checks_clean() {
    let mut a = Asm::new("/t");
    a.proc("leaf");
    a.addq_lit(Reg::A0, 1, Reg::V0);
    a.ret(Reg::RA);
    let image = a.finish();
    let sym = image.symbols()[0].clone();

    let cfg = Cfg::build(&image, &sym).expect("cfg");
    assert_eq!(cfg.blocks.len(), 1);
    assert!(cfg.edges.is_empty());
    assert!(cfg.blocks[0].is_exit);

    let report = check_image(&image);
    assert!(report.is_clean(), "{}", report.render());

    let pa = analyze(&image, &samples_for(&image, 400));
    let report = check_analysis(&pa);
    assert!(report.is_clean(), "{}", report.render());
    assert!(pa.frequencies.block_freq[0].is_some());
}

/// A loop whose bottom is an unconditional back-branch — the only way
/// out is the taken side of the header's conditional. The equivalence
/// machinery must synthesize a pseudo-exit, and both the analyzer's
/// classes and the brute-force rederivation must agree.
#[test]
fn loop_with_no_fall_through_exit_checks_clean() {
    let mut a = Asm::new("/t");
    a.proc("drain");
    a.li(Reg::T0, 50);
    let top = a.here();
    let done = a.label();
    a.beq(Reg::T0, done);
    a.subq_lit(Reg::T0, 1, Reg::T0);
    a.br(top); // no fall-through out of the loop body
    a.bind(done);
    a.halt();
    let image = a.finish();
    let sym = image.symbols()[0].clone();

    let cfg = Cfg::build(&image, &sym).expect("cfg");
    assert!(!cfg.missing_edges);
    let report = check_procedure(&image, &sym, &cfg);
    assert!(report.is_clean(), "{}", report.render());

    let pa = analyze(&image, &samples_for(&image, 600));
    let report = check_analysis(&pa);
    assert!(report.is_clean(), "{}", report.render());
}

/// A true infinite loop (no exit block at all): the pseudo-exit loop in
/// the equivalence analysis must still terminate and agree with brute
/// force.
#[test]
fn infinite_loop_checks_clean() {
    let mut a = Asm::new("/t");
    a.proc("idle");
    let top = a.here();
    a.addq_lit(Reg::T0, 1, Reg::T0);
    a.br(top);
    let image = a.finish();
    let sym = image.symbols()[0].clone();
    let cfg = Cfg::build(&image, &sym).expect("cfg");
    assert!(cfg.exit_blocks().is_empty());
    let report = check_procedure(&image, &sym, &cfg);
    assert!(report.is_clean(), "{}", report.render());
}
