//! `dcpicheck` as the pipeline's correctness backstop: the full checker
//! must run clean (zero errors) over every built-in workload, and
//! deliberately corrupted artifacts must trigger diagnostics from each
//! of the three layers.

use dcpi::analyze::analysis::{analyze_procedure, AnalysisOptions};
use dcpi::analyze::cfg::{BlockId, Cfg, EdgeKind};
use dcpi::check::{check_analysis, check_image, check_procedure, Layer, Severity};
use dcpi::core::{Event, ImageId, ProfileSet};
use dcpi::isa::asm::Asm;
use dcpi::isa::image::Image;
use dcpi::isa::pipeline::PipelineModel;
use dcpi::isa::reg::Reg;
use dcpi::tools::{dcpicheck_report, ImageRegistry};
use dcpi::workloads::{run_workload, ProfConfig, RunOptions, Workload};
use std::sync::Arc;

/// Every workload program — user images and the kernel — passes every
/// check without a single error-severity diagnostic.
#[test]
fn dcpicheck_is_clean_on_every_workload() {
    for w in Workload::ALL {
        // Scale 1 keeps the sweep fast, but the recursion/dispatch
        // workloads are tiny programs that need their default scale to
        // clear the sample floor.
        let scale = match w {
            Workload::DeepRecursion | Workload::MutualRecursion | Workload::DispatchServer => {
                w.default_scale()
            }
            _ => 1,
        };
        let opts = RunOptions {
            seed: 11,
            scale,
            period: (20_000, 21_600),
            limit: 300_000_000,
            ..RunOptions::default()
        };
        let r = run_workload(w, ProfConfig::Cycles, &opts);
        assert!(r.samples > 100, "{}: samples = {}", w.name(), r.samples);
        let mut registry = ImageRegistry::new();
        for (id, image) in &r.images {
            registry.insert(*id, Arc::clone(image));
        }
        let report = dcpicheck_report(&r.profiles, &registry);
        assert!(
            report.is_clean(),
            "{}: dcpicheck found errors:\n{}",
            w.name(),
            report.render()
        );
    }
}

fn loop_image() -> Image {
    let mut a = Asm::new("/fixture");
    a.proc("f");
    a.li(Reg::T0, 100);
    let top = a.here();
    a.addq_lit(Reg::T1, 3, Reg::T1);
    a.subq_lit(Reg::T0, 1, Reg::T0);
    a.bne(Reg::T0, top);
    a.halt();
    a.finish()
}

/// Layer 1: a corrupted text word draws an image-layer error.
#[test]
fn corrupted_image_triggers_an_image_diagnostic() {
    let good = loop_image();
    let mut words = good.words().to_vec();
    words[1] = 0x0000_00ff; // CALL_PAL with an unknown function code
    let bad = Image::new(good.name().to_string(), words, good.symbols().to_vec());
    let report = check_image(&bad);
    assert!(
        report
            .layer(Layer::Image)
            .any(|d| d.severity == Severity::Error),
        "{}",
        report.render()
    );
}

/// Layer 2: a CFG edge retargeted mid-block draws a CFG-layer error.
#[test]
fn corrupted_cfg_triggers_a_cfg_diagnostic() {
    let image = loop_image();
    let sym = image.symbols()[0].clone();
    let mut cfg = Cfg::build(&image, &sym).expect("cfg");
    let taken = cfg
        .edges
        .iter()
        .position(|e| e.kind == EdgeKind::Taken)
        .expect("a taken edge");
    cfg.edges[taken].to = BlockId(usize::from(cfg.edges[taken].to != BlockId(1)));
    let report = check_procedure(&image, &sym, &cfg);
    assert!(
        report
            .layer(Layer::Cfg)
            .any(|d| d.severity == Severity::Error),
        "{}",
        report.render()
    );
}

/// Layer 3: a tampered frequency estimate draws an estimate-layer error.
#[test]
fn corrupted_estimates_trigger_an_estimate_diagnostic() {
    let image = loop_image();
    let sym = image.symbols()[0].clone();
    let mut set = ProfileSet::new();
    set.add(ImageId(1), Event::Cycles, sym.offset, 10);
    for i in 1..4u64 {
        set.add(ImageId(1), Event::Cycles, sym.offset + i * 4, 1000);
    }
    let mut pa = analyze_procedure(
        &image,
        &sym,
        &set,
        ImageId(1),
        &PipelineModel::default(),
        &AnalysisOptions::default(),
    )
    .expect("analysis");
    let clean = check_analysis(&pa);
    assert!(clean.is_clean(), "{}", clean.render());
    let b = pa
        .frequencies
        .block_freq
        .iter()
        .position(Option::is_some)
        .expect("an estimated block");
    pa.frequencies.block_freq[b]
        .as_mut()
        .expect("estimate")
        .value += 1.0;
    let report = check_analysis(&pa);
    assert!(
        report
            .layer(Layer::Estimate)
            .any(|d| d.severity == Severity::Error),
        "{}",
        report.render()
    );
}
