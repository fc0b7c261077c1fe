//! The paper's flagship example: the McCalpin copy loop of Figure 2.
//!
//! Reproduces the full §3.2 analysis — best-case vs actual CPI, the
//! `dwD` stall bubbles on the stores (D-cache miss of the feeding load,
//! write-buffer overflow, DTB miss), the slotting hazard on adjacent
//! stores, and the §6.1 frequency estimate against the simulator's exact
//! execution counts.
//!
//! Run with: `cargo run --release --example copy_loop`

use dcpi::analyze::analysis::{analyze_procedure, AnalysisOptions};
use dcpi::isa::pipeline::PipelineModel;
use dcpi::machine::os::MAIN_BASE;
use dcpi::tools::{dcpicalc, dcpisumm};
use dcpi::workloads::programs::StreamKind;
use dcpi::workloads::{run_workload, ProfConfig, RunOptions, Workload};
use dcpi_bench::program_cycles_per_sample;

fn main() {
    let opts = RunOptions {
        scale: 20,
        period: (40_000, 43_200),
        ..RunOptions::default()
    };
    println!("running the copy benchmark under CYCLES profiling...");
    let r = run_workload(
        Workload::McCalpin(StreamKind::Copy),
        ProfConfig::Cycles,
        &opts,
    );
    println!("{} cycles, {} samples\n", r.cycles, r.samples);

    let (id, image) = r
        .images
        .iter()
        .find(|(_, img)| img.name().contains("mccalpin_copy"))
        .expect("copy image");
    let sym = image.symbols()[0].clone();
    let pa = analyze_procedure(
        image,
        &sym,
        &r.profiles,
        *id,
        &PipelineModel::default(),
        &AnalysisOptions::default(),
    )
    .expect("analysis");

    println!("{}", dcpicalc(&pa, MAIN_BASE.0));
    println!();
    println!("{}", dcpisumm(&pa));

    // Convert the frequency estimate by the program cycles per sample the
    // run measured, and compare it with the simulator's ground truth.
    let hot = pa
        .insns
        .iter()
        .find(|ia| ia.insn.is_store())
        .expect("store in loop");
    let p = program_cycles_per_sample(r.overhead.as_ref().expect("profiled"));
    let est = hot.freq * p;
    let truth = r.gt.insn_count(*id, hot.offset);
    println!(
        "frequency check: estimated {est:.0} executions vs true {truth} ({:+.1}%)",
        (est / truth as f64 - 1.0) * 100.0
    );
}
