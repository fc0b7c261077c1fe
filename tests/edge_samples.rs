//! Integration tests for the §7 edge-sample extension: interpreted
//! branch directions flow from the machine through the driver and daemon
//! into the analyzer, where they sharpen edge-frequency estimates.

use dcpi::analyze::analysis::{analyze_procedure, analyze_procedure_extended, AnalysisOptions};
use dcpi::analyze::cfg::EdgeKind;
use dcpi::collect::session::{ProfiledRun, SessionConfig};
use dcpi::isa::asm::Asm;
use dcpi::isa::image::Image;
use dcpi::isa::pipeline::PipelineModel;
use dcpi::isa::reg::Reg;
use dcpi::machine::counters::CounterConfig;

/// A program whose hot loop contains a data-dependent branch taken ~1/4
/// of the time — flow constraints alone cannot split the arms' edges
/// (both arms are short and thinly sampled), but direction samples can.
fn branchy_image() -> Image {
    let mut a = Asm::new("/bin/branchy");
    a.proc("main");
    a.li(Reg::T0, 400_000);
    let top = a.here();
    a.and_lit(Reg::T0, 3, Reg::T5);
    let rare = a.label();
    let join = a.label();
    a.beq(Reg::T5, rare); // taken 1/4 of the time
    a.addq_lit(Reg::T6, 1, Reg::T6);
    a.br(join);
    a.bind(rare);
    a.addq_lit(Reg::T7, 1, Reg::T7);
    a.bind(join);
    a.subq_lit(Reg::T0, 1, Reg::T0);
    a.bne(Reg::T0, top);
    a.halt();
    a.finish()
}

#[test]
fn edge_samples_flow_end_to_end_and_split_branches() {
    let mut cfg = SessionConfig::default();
    cfg.machine.counters = CounterConfig::cycles_only((3_000, 3_300));
    let mut run = ProfiledRun::new(cfg).expect("session");
    let image = branchy_image();
    let id = run.register_image(image.clone());
    run.spawn(0, id, &[], |_| {});
    run.run_to_completion(4_000_000_000);

    // Direction samples were collected and attributed to the image.
    let edges = run.daemon.edge_profiles();
    assert!(edges.total() > 50, "edge samples = {}", edges.total());
    // The beq (found by decoding) must have both directions, at roughly
    // a 1:3 taken:fall ratio.
    let beq_word = image
        .decode_all()
        .unwrap()
        .iter()
        .position(|i| {
            matches!(
                i,
                dcpi::isa::insn::Instruction::CondBr {
                    cond: dcpi::isa::insn::BrCond::Beq,
                    ..
                }
            )
        })
        .expect("beq present") as u64;
    let (taken, fall) = edges.get(id, beq_word * 4);
    assert!(taken > 0 && fall > 0, "taken={taken} fall={fall}");
    let frac = taken as f64 / (taken + fall) as f64;
    assert!(
        (0.1..=0.45).contains(&frac),
        "taken fraction {frac} should be near 0.25"
    );

    // Analysis with direction samples gives the rare arm's edge a direct
    // estimate near F/4.
    let sym = image.symbol_named("main").unwrap().clone();
    let model = PipelineModel::default();
    let with = analyze_procedure_extended(
        &image,
        &sym,
        run.profiles(),
        Some(edges),
        None,
        id,
        &model,
        &AnalysisOptions::default(),
    )
    .expect("analysis");
    let without = analyze_procedure(
        &image,
        &sym,
        run.profiles(),
        id,
        &model,
        &AnalysisOptions::default(),
    )
    .expect("analysis");

    // Find the taken edge of the beq block.
    let beq_block = with
        .cfg
        .block_of_word(with.cfg.start_word + beq_word as u32)
        .unwrap();
    let e_taken = with
        .cfg
        .edges
        .iter()
        .position(|e| e.from == beq_block && e.kind == EdgeKind::Taken)
        .expect("taken edge");
    let head_f = with.frequencies.block_freq[beq_block.0]
        .expect("branch block estimated")
        .value;
    let est_with = with.frequencies.edge_freq[e_taken]
        .expect("estimated")
        .value;
    // The split should put roughly a quarter of the block frequency on
    // the taken edge.
    assert!(
        (est_with / head_f - 0.25).abs() < 0.1,
        "edge-informed split {est_with} of {head_f}"
    );
    // And it must be at least as close to truth as the plain estimate.
    let est_without = without.frequencies.edge_freq[e_taken].map_or(f64::NAN, |e| e.value);
    let err_with = (est_with / (head_f * 0.25) - 1.0).abs();
    let err_without = (est_without / (head_f * 0.25) - 1.0).abs();
    assert!(
        err_with <= err_without + 1e-9,
        "with={est_with} ({err_with:.2}) vs without={est_without} ({err_without:.2})"
    );
}

#[test]
fn direction_samples_absent_without_conditional_branches() {
    let mut cfg = SessionConfig::default();
    cfg.machine.counters = CounterConfig::cycles_only((2_000, 2_200));
    let mut run = ProfiledRun::new(cfg).expect("session");
    let mut a = Asm::new("/bin/straight");
    a.proc("main");
    a.li(Reg::T0, 0);
    for _ in 0..64 {
        a.addq_lit(Reg::T0, 1, Reg::T0);
    }
    // An unconditional loop via jsr back would need registers; just halt.
    a.halt();
    let id = run.register_image(a.finish());
    run.spawn(0, id, &[], |_| {});
    run.run_to_completion(1_000_000_000);
    // Straight-line code yields no direction samples for this image.
    assert_eq!(run.daemon.edge_profiles().get(id, 0), (0, 0));
}
