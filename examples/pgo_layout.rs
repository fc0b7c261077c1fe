//! Profile-guided code layout: the optimization-feeding use case the
//! paper was built for.
//!
//! §1: "The output of the analysis tools can be used directly by
//! programmers; it can also be fed into compilers, linkers, post-linkers,
//! and run-time optimization tools" — DIGITAL fed DCPI profiles into the
//! Spike/OM post-linker, whose signature optimization is procedure
//! placement. This example closes that loop on our substrate through the
//! harness `dcpipgo` drives:
//!
//! 1. profile a compiler-like workload whose hot passes are scattered
//!    through an image larger than the 8KB I-cache,
//! 2. analyze its hottest image and export the per-instruction estimates,
//! 3. rewrite the binary from them (`dcpi_pgo::optimize`): hot/cold block
//!    layout, procedures packed hot-first, the rewrite proved equivalent
//!    segment by segment,
//! 4. rerun the old and the new image unprofiled and compare cycles.
//!
//! Run with: `cargo run --release --example pgo_layout`

use dcpi::workloads::{pgo_workload, RunOptions, Workload};

fn main() {
    // `dcpipgo gcc`'s defaults: a dense period, for estimate quality on
    // a short run, and a 25-sample gate per procedure.
    let opts = RunOptions {
        period: (2_000, 2_200),
        ..RunOptions::default()
    };
    let out = pgo_workload(Workload::Gcc, &opts, 25).expect("the gcc PGO loop");
    println!(
        "{}: {} procedures above the sample gate analyzed",
        out.image_name, out.procs_analyzed
    );
    print!("{}", out.report.render());
    println!(
        "cycles: {} -> {} ({:.2}% fewer)",
        out.base_cycles,
        out.opt_cycles,
        out.speedup_pct()
    );
    println!(
        "equivalent: {}; proved {}/{} segments",
        out.equivalent, out.report.tv_proved, out.report.tv_segments
    );
    println!("\nthe paper's Spike post-linker performed exactly this class of");
    println!("optimization from DCPI profiles (§1, [5, 6]).");
}
