//! Beyond the paper's evaluation: ablations of three design choices
//! (randomized period §4.1.1, the clustered estimator §6.1.3, interrupt
//! skid §4.1.2) and the two §7 proposals implemented end to end (edge
//! samples and double sampling).

use crate::{
    accuracy_runs, analyze_run, edge_errors, insn_errors, program_cycles_per_sample, Cell,
    ErrorHistogram, ExpOptions, Outcome, Runs, ACCURACY_PERIOD,
};
use dcpi_analyze::analysis::{
    analyze_procedure_extended, sampled_procedures, AnalysisOptions, ProcAnalysis,
};
use dcpi_analyze::cfg::{Cfg, EdgeKind};
use dcpi_analyze::frequency::EstimatorConfig;
use dcpi_collect::session::{ProfiledRun, SessionConfig};
use dcpi_core::Event;
use dcpi_isa::pipeline::PipelineModel;
use dcpi_machine::counters::CounterConfig;
use dcpi_workloads::programs::{interp_image, interp_setup, StreamKind};
use dcpi_workloads::{ProfConfig, RunOptions, RunResult, Workload};

const COPY_LOOP: Workload = Workload::McCalpin(StreamKind::Copy);

/// The copy loop profiled at a `fixed` period, or a randomized one.
fn sampled_copy_loop(fixed: Option<u64>, seed: u32, scale: u32) -> Cell {
    let ro = RunOptions {
        seed,
        scale,
        period: fixed.map_or((4_096, 4_352), |p| (p, p)),
        ..RunOptions::default()
    };
    (COPY_LOOP, ProfConfig::Cycles, ro)
}

/// Each instruction's share of the copy loop's CYCLES samples peaks at
/// `(max share, samples)`: resonance between a fixed period and the loop
/// concentrates samples on a few offsets.
fn distribution_skew(r: &RunResult) -> (f64, u64) {
    let (id, image) = r
        .images
        .iter()
        .find(|(_, img)| img.name().contains("mccalpin"))
        .expect("image");
    let profile = r.profiles.get(*id, Event::Cycles).expect("profile");
    let counts: Vec<u64> = (0..image.words().len() as u64)
        .map(|w| profile.get(w * 4))
        .collect();
    let total: u64 = counts.iter().sum();
    let max = counts.iter().copied().max().unwrap_or(0);
    (max as f64 / total.max(1) as f64, total)
}

/// Ablation (§4.1.1): randomized vs fixed sampling periods.
///
/// The paper randomizes the inter-interrupt period to avoid systematic
/// correlation between sampling and the code being run. This experiment
/// profiles a loop and compares each instruction's sample share against
/// its true share of head-of-queue time: with a fixed period, resonance
/// between the loop length and the period skews the distribution; with a
/// randomized period the shares track the truth.
pub fn ablation_period(opts: &ExpOptions, runs: &Runs) -> Outcome {
    let mut o = Outcome::default();
    writeln!(
        o,
        "Ablation: randomized vs fixed sampling period (copy loop)"
    );
    writeln!(o);
    writeln!(
        o,
        "{:<16} {:>8} {:>18} {:>10}",
        "mode", "seed", "max sample share", "samples"
    );
    // A fixed period's harm depends on its phase relationship with the
    // loop; scan several fixed values and report the worst case, which is
    // what the paper's randomization defends against.
    // (fixed period or randomized, seed) per row.
    let fixed = [4_096, 4_100, 4_104, 4_108, 4_112].map(|p| (Some(p), opts.seed));
    let random = (0..opts.runs as u32).map(|k| (None, opts.seed + k));
    let rows: Vec<(Option<u64>, u32)> = fixed.into_iter().chain(random).collect();
    let cells = rows
        .iter()
        .map(|&(p, seed)| sampled_copy_loop(p, seed, opts.scale));
    let mut worst_fixed: f64 = 0.0;
    let mut random_shares = Vec::new();
    for ((period, seed), r) in rows.iter().zip(runs.get(cells)) {
        let (s, n) = distribution_skew(&r);
        let mode = period.map_or("randomized".to_string(), |p| format!("fixed {p}"));
        writeln!(o, "{mode:<16} {seed:>8} {:>17.1}% {n:>10}", s * 100.0);
        match period {
            Some(_) => worst_fixed = worst_fixed.max(s),
            None => random_shares.push(s),
        }
    }
    let random = random_shares.iter().sum::<f64>() / random_shares.len() as f64;
    writeln!(o);
    writeln!(
        o,
        "worst fixed max-share {:.1}% vs randomized mean {:.1}%",
        worst_fixed * 100.0,
        random * 100.0
    );
    writeln!(o);
    writeln!(
        o,
        "expected shape: the fixed period aliases with the loop and piles"
    );
    writeln!(
        o,
        "samples onto one or two instructions; randomization spreads them in"
    );
    writeln!(o, "proportion to true head-of-queue time (§4.1.1).");
    o.claim(
        "ablation_period.randomization_spreads",
        "the worst fixed period's max share above the randomized mean",
        format!("{:.1} vs {:.1} %", worst_fixed * 100.0, random * 100.0),
        worst_fixed > random,
    );
    o
}

fn estimator(name: &str) -> EstimatorConfig {
    let mut cfg = EstimatorConfig::default();
    match name {
        "clustered" => {}
        "class-sum" => cfg.min_class_samples = u64::MAX, // always ΣS/ΣM
        "min-ratio" => {
            cfg.cluster_spread = 1.000_001; // singleton clusters
            cfg.min_cluster_frac = 0.0;
            cfg.unreasonable_stall = f64::INFINITY;
        }
        _ => unreachable!(),
    }
    cfg
}

/// Ablation (§6.1.3): the frequency estimator's design choices.
///
/// Compares three estimators on the accuracy suite:
/// * `clustered` — the paper's heuristic (ratio clusters + propagation),
/// * `class-sum` — naive `ΣS/ΣM` per class (no issue-point clustering),
/// * `min-ratio` — take the single smallest issue-point ratio.
pub fn ablation_freq(opts: &ExpOptions, runs: &Runs) -> Outcome {
    const VARIANTS: [&str; 3] = ["clustered", "class-sum", "min-ratio"];
    let mut o = Outcome::default();
    writeln!(o, "Ablation: frequency estimator variants");
    writeln!(o);
    // One merged run per workload, analyzed once per variant.
    let mut hists = VARIANTS.map(|_| ErrorHistogram::new());
    for r in accuracy_runs(opts, runs, ProfConfig::Cycles, ACCURACY_PERIOD) {
        for (variant, hist) in VARIANTS.iter().zip(&mut hists) {
            let aopts = AnalysisOptions {
                estimator: estimator(variant),
                ..AnalysisOptions::default()
            };
            for (id, _, pa) in analyze_run(&r, 50, &aopts) {
                for (err, weight, _) in insn_errors(&r, id, &pa) {
                    hist.add(err, weight);
                }
            }
        }
    }
    for (variant, hist) in VARIANTS.iter().zip(&hists) {
        writeln!(
            o,
            "{:<10}  within 5%: {:>5.1}%   within 10%: {:>5.1}%   within 15%: {:>5.1}%",
            variant,
            hist.within(5.0) * 100.0,
            hist.within(10.0) * 100.0,
            hist.within(15.0) * 100.0
        );
    }
    writeln!(o);
    writeln!(
        o,
        "expected shape: the paper's clustered estimator beats both the naive"
    );
    writeln!(
        o,
        "class sum (dynamic stalls inflate ΣS) and the raw minimum (sampling"
    );
    writeln!(o, "noise deflates it).");
    let [clustered, class_sum, min_ratio] = hists.map(|h| h.within(5.0) * 100.0);
    o.claim(
        "ablation_freq.clustered_beats_naive",
        "clustered within 5 % at least 10x class-sum's, and above min-ratio's",
        format!("{clustered:.1} vs {class_sum:.1} (class-sum), {min_ratio:.1} % (min-ratio)"),
        clustered >= 10.0 * class_sum && clustered > min_ratio,
    );
    o
}

/// DMISS samples of a copy-loop run: `(offset, samples, instruction
/// text)`.
fn dmiss_profile(r: &RunResult) -> Vec<(u64, u64, String)> {
    let (id, image) = r
        .images
        .iter()
        .find(|(_, img)| img.name().contains("mccalpin"))
        .expect("image");
    let Some(p) = r.profiles.get(*id, Event::DMiss) else {
        return Vec::new();
    };
    let insns = image.decode_all().expect("decodes");
    p.iter()
        .map(|(off, c)| {
            let text = insns
                .get((off / 4) as usize)
                .map_or_else(|| "?".to_string(), ToString::to_string);
            (off, c, text)
        })
        .collect()
}

/// Ablation (§4.1.2): the six-cycle interrupt skid.
///
/// CYCLES sampling is self-correcting under the skid (it only shifts the
/// period), but discrete events like DMISS are attributed to whatever is
/// at the head of the issue queue six cycles after the event — typically
/// a few instructions downstream. This experiment profiles the copy loop
/// with DMISS monitoring at skid 0 and skid 6 and shows where the DMISS
/// samples land relative to the loads that actually missed.
pub fn ablation_skid(opts: &ExpOptions, runs: &Runs) -> Outcome {
    const SKIDS: [u64; 2] = [0, 6];
    let mut o = Outcome::default();
    writeln!(
        o,
        "Ablation: interrupt skid and DMISS attribution (copy loop)"
    );
    let cells = SKIDS.map(|skid| {
        let ro = RunOptions {
            skid: Some(skid),
            ..opts.run_options(2, (1_500, 1_700))
        };
        // `mux` rotates DMISS onto the second counter.
        (COPY_LOOP, ProfConfig::Mux, ro)
    });
    // Share of DMISS samples on loads, per skid.
    let mut on_loads_pct = [0.0; 2];
    for (slot, (skid, r)) in SKIDS.iter().zip(runs.get(cells)).enumerate() {
        writeln!(o);
        writeln!(o, "-- skid = {skid} cycles --");
        let rows = dmiss_profile(&r);
        if rows.is_empty() {
            writeln!(o, "(no DMISS samples; increase --scale)");
            on_loads_pct[slot] = f64::NAN;
            continue;
        }
        let total: u64 = rows.iter().map(|(_, c, _)| c).sum();
        let mut on_loads = 0u64;
        for (off, c, text) in &rows {
            if text.starts_with("ldq") {
                on_loads += c;
            }
            writeln!(o, "  {off:>6x}  {text:<28} {c:>8}");
        }
        on_loads_pct[slot] = on_loads as f64 / total as f64 * 100.0;
        writeln!(
            o,
            "  DMISS samples attributed to load instructions: {:.0}%",
            on_loads_pct[slot]
        );
    }
    writeln!(o);
    writeln!(
        o,
        "expected shape: with no skid, DMISS samples sit on the missing"
    );
    writeln!(
        o,
        "loads; with the 21164's six-cycle skid they smear onto instructions"
    );
    writeln!(
        o,
        "a few slots downstream — why the paper calls non-CYCLES/IMISS events"
    );
    writeln!(o, "\"less useful for detailed analysis\" (§4.1.2).");
    o.claim(
        "ablation_skid.skid0_on_loads",
        "100 % of DMISS samples on loads at skid 0",
        format!("{:.0} %", on_loads_pct[0]),
        on_loads_pct[0] == 100.0,
    );
    o.claim(
        "ablation_skid.skid6_off_loads",
        "0 % of DMISS samples on loads at skid 6",
        format!("{:.0} %", on_loads_pct[1]),
        on_loads_pct[1] == 0.0,
    );
    o
}

/// Extension experiment (§7): edge samples from instruction
/// interpretation.
///
/// The paper proposed interpreting the sampled instruction in the
/// interrupt handler: "each conditional branch can be interpreted to
/// determine whether or not the branch will be taken, yielding edge
/// samples that should prove valuable for analysis and optimization."
/// This experiment implements the proposal and measures the value: the
/// Figure 9 edge-frequency error distribution with and without direction
/// samples feeding the estimator.
pub fn extension_edges(opts: &ExpOptions, runs: &Runs) -> Outcome {
    let mut o = Outcome::default();
    // [flow propagation only, with edge samples]
    let mut hists = [ErrorHistogram::new(), ErrorHistogram::new()];
    for r in accuracy_runs(opts, runs, ProfConfig::Cycles, ACCURACY_PERIOD) {
        for (use_edges, hist) in [false, true].into_iter().zip(&mut hists) {
            for (id, image) in &r.images {
                for (sym, _) in sampled_procedures(image, &r.profiles, *id, 50) {
                    if let Ok(pa) = analyze_procedure_extended(
                        image,
                        sym,
                        &r.profiles,
                        use_edges.then_some(&r.edge_profiles),
                        None,
                        *id,
                        &PipelineModel::default(),
                        &AnalysisOptions::default(),
                    ) {
                        for (err, weight) in edge_errors(&r, *id, &pa) {
                            hist.add(err, weight);
                        }
                    }
                }
            }
        }
    }
    let within = |h: &ErrorHistogram| [5.0, 10.0, 15.0].map(|pct| h.within(pct) * 100.0);
    let [without, with] = hists.each_ref().map(within);
    writeln!(
        o,
        "Extension (§7): edge samples via instruction interpretation"
    );
    writeln!(o);
    writeln!(
        o,
        "{:<22} {:>10} {:>10} {:>10}",
        "edge estimates", "within 5%", "within 10%", "within 15%"
    );
    for (name, w) in [
        ("flow propagation only", without),
        ("with edge samples", with),
    ] {
        writeln!(
            o,
            "{:<22} {:>9.1}% {:>9.1}% {:>9.1}%",
            name, w[0], w[1], w[2]
        );
    }
    writeln!(o);
    writeln!(
        o,
        "expected shape: direction samples give branch edges direct"
    );
    writeln!(
        o,
        "measurements, improving on propagation exactly where the paper"
    );
    writeln!(o, "said they would (§7).");
    o.claim(
        "extension_edges.edge_samples_help",
        "more edge mass within 5, 10 and 15 % with edge samples",
        format!(
            "{:.1}/{:.1}/{:.1} -> {:.1}/{:.1}/{:.1} %",
            without[0], without[1], without[2], with[0], with[1], with[2]
        ),
        (0..3).all(|i| with[i] > without[i]),
    );
    o
}

/// Extension experiment (§7): double sampling.
///
/// "During selected performance-counter interrupts, a second interrupt is
/// set up to occur immediately after returning from the first, providing
/// two PC values along an execution path... directly providing edge
/// samples; two samples could also be used to form longer execution path
/// profiles." This experiment implements the proposal and uses the pairs
/// to resolve an interpreter's computed-goto dispatch — the CFG shape
/// §6.1.1's static analysis must mark "missing edges".
pub fn extension_double(opts: &ExpOptions, _runs: &Runs) -> Outcome {
    let mut o = Outcome::default();
    let period = (8_000u64, 8_600u64);
    let mut cfg = SessionConfig::default();
    cfg.machine.counters = CounterConfig::cycles_only(period);
    cfg.machine.double_sample_every = 2;
    cfg.machine.seed = opts.seed;
    let mut run = ProfiledRun::new(cfg).expect("session");
    let image = interp_image(30 * opts.scale);
    let id = run.register_image(image.clone());
    {
        let img = image.clone();
        run.spawn(0, id, &[], move |p| interp_setup(p, &img));
    }
    let cycles = run.run_to_completion(u64::MAX / 2);
    writeln!(
        o,
        "Extension (§7): double sampling on a bytecode interpreter"
    );
    writeln!(o);
    writeln!(
        o,
        "{cycles} cycles, {} CYCLES samples, {} PC-pair samples",
        run.machine.total_samples(),
        run.daemon.path_profiles().total()
    );

    let sym = image
        .symbol_named("dispatch")
        .expect("the interpreter's dispatch")
        .clone();
    let static_cfg = Cfg::build(&image, &sym).expect("static CFG");
    let paths = run.daemon.path_profiles();
    let resolved = Cfg::build_with_paths(&image, &sym, id, paths).expect("CFG with pairs");
    let indirect = resolved
        .edges
        .iter()
        .filter(|e| e.kind == EdgeKind::Indirect)
        .count();
    writeln!(o);
    writeln!(
        o,
        "static CFG:   {} blocks, {} edges, missing edges: {}",
        static_cfg.blocks.len(),
        static_cfg.edges.len(),
        static_cfg.missing_edges
    );
    writeln!(
        o,
        "with pairs:   {} blocks, {} edges ({indirect} indirect), missing edges: {}",
        resolved.blocks.len(),
        resolved.edges.len(),
        resolved.missing_edges
    );

    // Observed dispatch-target distribution vs exact edge counts.
    let jmp_off = sym.offset + 6 * 4;
    let succ = paths.successors(id, jmp_off);
    writeln!(o);
    writeln!(
        o,
        "dispatch targets (observed via pairs vs simulator exact counts):"
    );
    writeln!(
        o,
        "{:>10} {:>12} {:>12} {:>8}",
        "handler", "pair count", "true count", "share"
    );
    let total_pairs: u64 = succ.iter().map(|(_, c)| c).sum();
    for (t, c) in &succ {
        let true_count = run.machine.gt.edge_count(id, jmp_off, *t);
        writeln!(
            o,
            "{:>10x} {:>12} {:>12} {:>7.1}%",
            t,
            c,
            true_count,
            *c as f64 / total_pairs as f64 * 100.0
        );
    }

    // Edge-frequency coverage with and without the pairs.
    let analyze = |pairs| {
        analyze_procedure_extended(
            &image,
            &sym,
            run.profiles(),
            None,
            pairs,
            id,
            &PipelineModel::default(),
            &AnalysisOptions::default(),
        )
        .expect("analysis")
    };
    let coverage = |pa: &ProcAnalysis| {
        let est = pa
            .frequencies
            .edge_freq
            .iter()
            .filter(|e| e.is_some())
            .count();
        (est, pa.cfg.edges.len())
    };
    let with = analyze(Some(paths));
    let (e0, n0) = coverage(&analyze(None));
    let (e1, n1) = coverage(&with);
    writeln!(o);
    writeln!(o, "edge estimates without pairs: {e0}/{n0} CFG edges");
    writeln!(o, "edge estimates with pairs:    {e1}/{n1} CFG edges");

    // Dispatch-block frequency accuracy against exact retirement counts.
    let dispatch_word = (sym.offset / 4) as u32;
    let truth = run.machine.gt.insn_count(id, u64::from(dispatch_word) * 4);
    let p = program_cycles_per_sample(&run.overhead_ledger());
    let est = with.insns.first().map_or(0.0, |ia| ia.freq) * p;
    let err = (est / truth as f64 - 1.0) * 100.0;
    writeln!(o);
    writeln!(
        o,
        "dispatch frequency: estimated {est:.0} vs true {truth} ({err:+.1}%)"
    );
    writeln!(o);
    writeln!(
        o,
        "expected shape: static analysis degrades to missing-edge classes on"
    );
    writeln!(
        o,
        "the computed goto; PC pairs recover the handler targets and their"
    );
    writeln!(o, "relative frequencies, as §7 anticipated.");
    o.claim(
        "extension_double.pairs_resolve_dispatch",
        "missing edges statically, none with pairs, all 8 handlers found",
        format!(
            "missing {} -> {}, {} targets, {indirect} indirect edges",
            static_cfg.missing_edges,
            resolved.missing_edges,
            succ.len()
        ),
        static_cfg.missing_edges && !resolved.missing_edges && succ.len() == 8 && indirect == 8,
    );
    o.claim(
        "extension_double.dispatch_frequency",
        "the dispatch block's estimate within 10 % of its exact count",
        format!("{err:+.1} %"),
        err.abs() <= 10.0,
    );
    o
}
