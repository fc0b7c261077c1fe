//! The paper's figures: the tool listings (Figures 1–4), run-time
//! distributions (Figure 6), and the analysis-accuracy figures
//! (Figures 7–10).

use crate::tables::grid_options;
use crate::{
    accuracy_runs, analyze_run, edge_errors, insn_errors, mean_ci, pearson,
    program_cycles_per_sample, repeats, Cell, ErrorHistogram, ExpOptions, Outcome, Runs,
    ACCURACY_PERIOD,
};
use dcpi_analyze::analysis::{analyze_procedure, procedure_samples, AnalysisOptions, ProcAnalysis};
use dcpi_analyze::culprit::DynamicCause;
use dcpi_analyze::frequency::Confidence;
use dcpi_analyze::summary::DYNAMIC_ORDER;
use dcpi_core::{Event, ImageId};
use dcpi_isa::image::Symbol;
use dcpi_isa::pipeline::PipelineModel;
use dcpi_machine::os::MAIN_BASE;
use dcpi_tools::dcpiprof::dcpiprof_rows;
use dcpi_tools::{dcpicalc, dcpiprof, dcpistats, dcpisumm, ImageRegistry};
use dcpi_workloads::programs::StreamKind;
use dcpi_workloads::{ProfConfig, RunResult, Workload};

/// Analyzes the procedure `symbol` (or the image's first) of the first
/// image of `r` whose name contains `image`.
fn analyze_named(
    r: &RunResult,
    image: &str,
    symbol: Option<&str>,
) -> (ImageId, Symbol, ProcAnalysis) {
    let (id, img) = r
        .images
        .iter()
        .find(|(_, img)| img.name().contains(image))
        .expect("the workload's image");
    let sym = match symbol {
        Some(name) => img.symbol_named(name).expect("the named symbol"),
        None => &img.symbols()[0],
    };
    let pa = analyze_procedure(
        img,
        sym,
        &r.profiles,
        *id,
        &PipelineModel::default(),
        &AnalysisOptions::default(),
    )
    .expect("analysis");
    (*id, sym.clone(), pa)
}

/// Figure 1: the dcpiprof per-procedure listing for an x11perf run,
/// including kernel (`/vmunix`) and shared-library time.
pub fn figure1(opts: &ExpOptions, runs: &Runs) -> Outcome {
    let mut o = Outcome::default();
    // Denser than production for sample volume.
    let ro = opts.run_options(40, (20_000, 21_600));
    let r = runs.one((Workload::X11Perf, ProfConfig::Default, ro));
    let registry: ImageRegistry = r.images.iter().cloned().collect();
    writeln!(o, "Figure 1: dcpiprof of the x11perf-like workload");
    writeln!(o);
    o.text
        .push_str(&dcpiprof(&r.profiles, &registry, Event::IMiss, 12));
    writeln!(o);
    writeln!(
        o,
        "(samples: {}; paper shape: ffb8ZeroPolyArc dominates, kernel and",
        r.samples
    );
    writeln!(o, " shared-library procedures all visible in one profile)");
    let rows = dcpiprof_rows(&r.profiles, &registry, Event::IMiss);
    let top = &rows[0];
    o.claim(
        "figure1.ffb8_dominates",
        "ffb8ZeroPolyArc the top procedure",
        format!("{} {:.2} %", top.name, top.pct),
        top.name == "ffb8ZeroPolyArc",
    );
    let listed = &rows[..rows.len().min(12)];
    let kernel = listed.iter().filter(|r| r.image == "/vmunix").count();
    let shlib = listed
        .iter()
        .filter(|r| r.image.starts_with("/usr/shlib/"))
        .count();
    let idle = listed.iter().any(|r| r.name == "_idle_loop");
    o.claim(
        "figure1.one_profile",
        "kernel, shared-library and idle procedures in one listing",
        format!("{kernel} kernel, {shlib} shared-library rows, idle listed: {idle}"),
        kernel > 0 && shlib > 0 && idle,
    );
    o
}

/// Figure 2: dcpicalc analysis of the McCalpin copy loop — per-instruction
/// samples, CPI, dual-issue annotations, and stall bubbles with culprits.
pub fn figure2(opts: &ExpOptions, runs: &Runs) -> Outcome {
    let mut o = Outcome::default();
    let ro = opts.run_options(30, (20_000, 21_600));
    let r = runs.one((Workload::McCalpin(StreamKind::Copy), ProfConfig::Cycles, ro));
    let (_, _, pa) = analyze_named(&r, "mccalpin_copy", None);
    writeln!(
        o,
        "Figure 2: dcpicalc of the copy loop ({} samples)",
        r.samples
    );
    writeln!(o);
    o.text.push_str(&dcpicalc(&pa, MAIN_BASE.0));
    writeln!(o);
    writeln!(
        o,
        "paper shape: best-case ~0.62 CPI for the loop body, actual an order of"
    );
    writeln!(
        o,
        "magnitude higher; stores stall on D-cache misses of the feeding loads,"
    );
    writeln!(
        o,
        "write-buffer overflow, and DTB misses (the dwD bubbles); adjacent"
    );
    writeln!(o, "stores show the `s` slotting hazard.");
    let total = r.profiles.event_total(Event::Cycles);
    writeln!(o);
    writeln!(o, "(total cycles samples: {total})");
    let best = format!("{:.2}", pa.best_case_cpi());
    o.claim(
        "figure2.best_case_cpi",
        "0.62 (the paper's 8/13)",
        &best,
        best == "0.62",
    );
    o
}

/// Figure 3: dcpistats across eight runs of the wave5 workload — the
/// `smooth_` procedure's sample counts vary because its board-cache
/// conflicts depend on the physical page mapping.
pub fn figure3(opts: &ExpOptions, runs: &Runs) -> Outcome {
    let mut o = Outcome::default();
    let results = runs.get(wave5_runs(opts, ProfConfig::Cycles, opts.runs.max(2)));
    let registry: ImageRegistry = results.iter().flat_map(|r| r.images.clone()).collect();
    let sets: Vec<_> = results.iter().map(|r| r.profiles.clone()).collect();
    writeln!(
        o,
        "Figure 3: dcpistats across {} wave5 runs (randomized page placement)",
        sets.len()
    );
    writeln!(o);
    o.text
        .push_str(&dcpistats(&sets, &registry, Event::Cycles, 10));
    writeln!(o);
    writeln!(
        o,
        "paper shape: smooth_ tops the range% column by a wide margin;"
    );
    writeln!(
        o,
        "the large, stable parmvr_ shows a small normalized range."
    );
    o
}

/// `runs` wave5 runs under `config` for Figures 3 and 4, 17 seeds apart.
fn wave5_runs(opts: &ExpOptions, config: ProfConfig, runs: usize) -> impl Iterator<Item = Cell> {
    let ro = opts.run_options(8, (20_000, 21_600));
    repeats((Workload::Wave5, config, ro), runs, 17)
}

/// Figure 4: the cycle-breakdown summary of wave5's `smooth_` procedure
/// for the fastest of several runs.
pub fn figure4(opts: &ExpOptions, runs: &Runs) -> Outcome {
    let mut o = Outcome::default();
    // Run several times; keep the fastest (the paper summarizes the run
    // with the fewest samples).
    let r = runs
        .get(wave5_runs(opts, ProfConfig::Default, opts.runs))
        .into_iter()
        .min_by_key(|r| r.cycles)
        .expect("at least one run");
    let (id, sym, pa) = analyze_named(&r, "wave5", Some("smooth_"));
    writeln!(
        o,
        "Figure 4: cycle summary of smooth_ (fastest of {} runs, {} cycles)",
        opts.runs, r.cycles
    );
    writeln!(o);
    o.text.push_str(&dcpisumm(&pa));
    writeln!(o);
    writeln!(
        o,
        "paper shape: D-cache miss and DTB miss dominate the dynamic stalls;"
    );
    writeln!(o, "static stalls are a small fraction; books total ~100%.");
    writeln!(
        o,
        "(smooth_ cycles samples: {})",
        procedure_samples(&r.profiles, id, Event::Cycles, &sym).unwrap_or(0)
    );
    let s = &pa.summary;
    let dcache = s.dynamic_range(DynamicCause::DCacheMiss).max;
    let next = DYNAMIC_ORDER
        .iter()
        .filter(|c| **c != DynamicCause::DCacheMiss)
        .map(|c| s.dynamic_range(*c).max)
        .fold(0.0, f64::max);
    o.claim(
        "figure4.dcache_dominates",
        "D-cache miss the largest dynamic stall",
        format!("D-cache {dcache:.1} %, next {next:.1} %"),
        dcache > next,
    );
    o.claim(
        "figure4.static_small",
        "static stalls under 10 % of samples",
        format!("{:.1} %", s.subtotal_static_pct),
        s.subtotal_static_pct < 10.0,
    );
    let tallied = s.subtotal_dynamic_pct
        + s.subtotal_static_pct
        + s.execution_pct
        + s.net_error_pct
        + s.unexplained_gain_pct;
    o.claim(
        "figure4.books_balance",
        "the categories tally to 100 ± 1 %",
        format!("{tallied:.1} %"),
        (tallied - 100.0).abs() <= 1.0,
    );
    o
}

/// Figure 6: distributions of running times for AltaVista, gcc, and
/// wave5 under all four configurations (scatter data plus 95% CIs).
pub fn figure6(opts: &ExpOptions, runs: &Runs) -> Outcome {
    const WORKLOADS: [Workload; 3] = [Workload::AltaVista, Workload::Gcc, Workload::Wave5];
    let mut o = Outcome::default();
    writeln!(
        o,
        "Figure 6: running-time distributions ({} runs per configuration)",
        opts.runs
    );
    let cells = WORKLOADS.into_iter().flat_map(|w| {
        ProfConfig::ALL
            .into_iter()
            .flat_map(move |p| repeats((w, p, grid_options(opts, w)), opts.runs, 13))
    });
    let cycles: Vec<f64> = runs.get(cells).iter().map(|r| r.cycles as f64).collect();
    let per_config = opts.runs.max(1);
    // Per workload (in `WORKLOADS` order: altavista, gcc, wave5) and
    // config: the mean and every point, in % of base.
    let mut shapes = Vec::new();
    for (w, times) in WORKLOADS
        .iter()
        .zip(cycles.chunks(ProfConfig::ALL.len() * per_config))
    {
        writeln!(o);
        writeln!(o, "== {} ==", w.name());
        let mut base_mean = 0.0;
        let mut shape = Vec::new();
        for (p, times) in ProfConfig::ALL.iter().zip(times.chunks(per_config)) {
            let (mean, ci) = mean_ci(times);
            if *p == ProfConfig::Base {
                base_mean = mean;
            }
            let rel: Vec<f64> = times.iter().map(|t| t / base_mean * 100.0).collect();
            let points: Vec<String> = rel.iter().map(|r| format!("{r:.1}")).collect();
            writeln!(
                o,
                "{:>8}: mean {:>12.0} ±{:>9.0}  ({:>6.1}% of base)  points: {}",
                p.name(),
                mean,
                ci,
                mean / base_mean * 100.0,
                points.join(" ")
            );
            shape.push((mean / base_mean * 100.0, rel));
        }
        shapes.push(shape);
    }
    writeln!(o);
    writeln!(
        o,
        "paper shape: AltaVista tightly clustered with small overhead; gcc"
    );
    writeln!(
        o,
        "shows the largest profiling overhead; wave5's run-to-run variance"
    );
    writeln!(o, "exceeds the profiling overhead entirely.");
    let points = shapes[0][1..].iter().flat_map(|(_, rel)| rel);
    let (lo, hi) = points.fold((f64::MAX, f64::MIN), |(lo, hi), p| (lo.min(*p), hi.max(*p)));
    o.claim(
        "figure6.altavista_tight",
        "every profiled altavista run within 100-102 % of base",
        format!("{lo:.1}-{hi:.1} %"),
        lo >= 100.0 && hi <= 102.0,
    );
    let dilation = |w: usize, p: usize| shapes[w][p].0;
    o.claim(
        "figure6.gcc_largest",
        "gcc dilated most under every profiled configuration",
        format!(
            "gcc {:.1} % vs altavista {:.1} %, wave5 {:.1} % (cycles)",
            dilation(1, 1),
            dilation(0, 1),
            dilation(2, 1)
        ),
        (1..4).all(|p| dilation(1, p) > dilation(0, p) && dilation(1, p) > dilation(2, p)),
    );
    let base = &shapes[2][0].1;
    let spread =
        base.iter().fold(f64::MIN, |a, b| a.max(*b)) - base.iter().fold(f64::MAX, |a, b| a.min(*b));
    o.claim(
        "figure6.wave5_scatter",
        "wave5's base-run spread larger than its profiling overhead",
        format!(
            "spread {spread:.1} % vs overhead {:.1} %",
            dilation(2, 1) - 100.0
        ),
        spread > dilation(2, 1) - 100.0,
    );
    o
}

/// Figure 7: the frequency-estimation working for the copy loop — each
/// instruction's samples `S_i`, static head time `M_i`, the issue-point
/// ratios `S_i/M_i`, the chosen estimate, and the true frequency from the
/// simulator's exact execution counts.
pub fn figure7(opts: &ExpOptions, runs: &Runs) -> Outcome {
    let mut o = Outcome::default();
    let ro = opts.run_options(60, ACCURACY_PERIOD);
    let r = runs.one((Workload::McCalpin(StreamKind::Copy), ProfConfig::Cycles, ro));
    let (id, _, pa) = analyze_named(&r, "mccalpin_copy", None);
    writeln!(o, "Figure 7: estimating the copy-loop frequency");
    writeln!(o);
    writeln!(
        o,
        "{:>8} {:<26} {:>9} {:>4} {:>10}",
        "offset", "instruction", "S_i", "M_i", "S_i/M_i"
    );
    for ia in &pa.insns {
        let ratio = if ia.m > 0 {
            format!("{:.0}", ia.samples as f64 / ia.m as f64)
        } else {
            String::new()
        };
        writeln!(
            o,
            "{:>8x} {:<26} {:>9} {:>4} {:>10}",
            ia.offset,
            ia.insn.to_string(),
            ia.samples,
            ia.m,
            ratio
        );
    }
    // The estimate vs the simulator's ground truth for the loop body.
    let body = pa
        .insns
        .iter()
        .filter(|ia| ia.insn.is_load())
        .max_by(|a, b| a.freq.partial_cmp(&b.freq).expect("finite"))
        .expect("loop body load");
    let p = program_cycles_per_sample(r.overhead.as_ref().expect("a profiled run"));
    let est_execs = body.freq * p;
    let true_execs = r.gt.insn_count(id, body.offset);
    let err = (est_execs / true_execs as f64 - 1.0) * 100.0;
    writeln!(o);
    writeln!(
        o,
        "estimated frequency F = {:.1} (≈{est_execs:.0} executions at {p:.0} program cycles per sample)",
        body.freq
    );
    writeln!(o, "true executions (simulator ground truth) = {true_execs}");
    writeln!(o, "relative error = {err:+.1}%");
    writeln!(o);
    writeln!(o, "paper: estimate 1527 vs true 1575 for its run (-3.0%).");
    o.claim(
        "figure7.estimate_error",
        "the loop estimate within 15 % of the exact count (paper: -3.0 %)",
        format!("{err:+.1} %"),
        err.abs() <= 15.0,
    );
    o
}

/// Figure 8: distribution of errors in instruction-frequency estimates,
/// weighted by CYCLES samples and split by predicted confidence.
///
/// The paper's headline: 73% of samples within 5% of the true execution
/// counts, 87% within 10%, 92% within 15%, with nearly all >15% errors
/// flagged low-confidence. `--runs N` merges N runs before analyzing
/// (§6.2 compares 1 vs 80 runs).
pub fn figure8(opts: &ExpOptions, runs: &Runs) -> Outcome {
    let mut o = Outcome::default();
    // By confidence (low, medium, high), and all of them.
    let mut histograms: [ErrorHistogram; 3] = Default::default();
    let mut all = ErrorHistogram::new();
    let mut bad_low_conf = 0.0;
    let mut bad_total = 0.0;
    for r in accuracy_runs(opts, runs, ProfConfig::Cycles, ACCURACY_PERIOD) {
        for (id, _, pa) in analyze_run(&r, 50, &AnalysisOptions::default()) {
            for (err, weight, confidence) in insn_errors(&r, id, &pa) {
                let slot = match confidence {
                    Some(Confidence::High) => 2,
                    Some(Confidence::Medium) => 1,
                    _ => 0,
                };
                histograms[slot].add(err, weight);
                all.add(err, weight);
                if err.abs() > 0.15 {
                    bad_total += weight;
                    if confidence.is_none_or(|c| c == Confidence::Low) {
                        bad_low_conf += weight;
                    }
                }
            }
        }
    }
    writeln!(
        o,
        "Figure 8: instruction-frequency estimate errors ({} merged runs per workload)",
        opts.runs
    );
    writeln!(o);
    for (name, h) in ["low", "medium", "high"].into_iter().zip(&histograms) {
        writeln!(
            o,
            "-- {name} confidence ({:.0} sample-weight) --",
            h.total()
        );
        o.text.push_str(&h.render());
        writeln!(o);
    }
    let paper = [(5.0, 73.0), (10.0, 87.0), (15.0, 92.0)];
    let within = paper.map(|(pct, _)| all.within(pct) * 100.0);
    for ((pct, was), share) in paper.iter().zip(within) {
        writeln!(o, "within {pct:>2}%: {share:>5.1}%   (paper: {was}%)");
    }
    if bad_total > 0.0 {
        writeln!(
            o,
            "errors beyond 15% flagged low-confidence: {:>5.1}%   (paper: nearly all)",
            bad_low_conf / bad_total * 100.0
        );
    }
    o.claim(
        "figure8.within_paper",
        "within 5/10/15 % at least the paper's 73/87/92 % of samples",
        format!("{:.1}/{:.1}/{:.1} %", within[0], within[1], within[2]),
        within
            .iter()
            .zip(&paper)
            .all(|(share, (_, was))| share >= was),
    );
    o
}

/// Figure 9: distribution of errors in *edge*-frequency estimates,
/// weighted by true edge executions. Edges never receive samples, so
/// their estimates come from flow-constraint propagation and are less
/// accurate than block estimates (paper: 58% of edge executions within
/// 10%).
pub fn figure9(opts: &ExpOptions, runs: &Runs) -> Outcome {
    let mut o = Outcome::default();
    let mut hist = ErrorHistogram::new();
    for r in accuracy_runs(opts, runs, ProfConfig::Cycles, ACCURACY_PERIOD) {
        for (id, _, pa) in analyze_run(&r, 50, &AnalysisOptions::default()) {
            for (err, weight) in edge_errors(&r, id, &pa) {
                hist.add(err, weight);
            }
        }
    }
    writeln!(
        o,
        "Figure 9: edge-frequency estimate errors ({} merged runs per workload)",
        opts.runs
    );
    writeln!(o);
    o.text.push_str(&hist.render());
    writeln!(o);
    writeln!(o, "within  5%: {:>5.1}%", hist.within(5.0) * 100.0);
    writeln!(
        o,
        "within 10%: {:>5.1}%   (paper: 58%)",
        hist.within(10.0) * 100.0
    );
    writeln!(o, "within 15%: {:>5.1}%", hist.within(15.0) * 100.0);
    writeln!(o);
    writeln!(
        o,
        "paper shape: edge estimates are noticeably worse than Figure 8's"
    );
    writeln!(
        o,
        "block estimates, since edges get no samples of their own."
    );
    o
}

/// Figure 10: correlation between the number of I-cache miss stall cycles
/// attributed by the culprit analysis and the IMISS event counts, per
/// procedure. The paper reports correlation coefficients of 0.91 / 0.86 /
/// 0.90 for the top, bottom, and midpoint of the attributed ranges.
pub fn figure10(opts: &ExpOptions, runs: &Runs) -> Outcome {
    let mut o = Outcome::default();
    // Dense period: IMISS overflows need enough I-cache misses per
    // period, and our runs are short.
    let period = (4_000u64, 4_300u64);
    let mut xs = Vec::new(); // projected I-cache misses
    let mut y_top = Vec::new();
    let mut y_bot = Vec::new();
    let mut rows = Vec::new();
    // `default` config so IMISS profiles exist.
    for mut r in accuracy_runs(opts, runs, ProfConfig::Default, period) {
        // IMISS was monitored, so an image with no IMISS samples has a
        // *zero* profile, not an unknown one: materialize empty profiles
        // so the culprit analysis can rule I-cache out (§6.3).
        for (id, _) in r.images.clone() {
            r.profiles.insert(
                dcpi_core::ProfileKey {
                    image: id,
                    event: Event::IMiss,
                },
                dcpi_core::Profile::new(),
            );
        }
        for (id, sym, pa) in analyze_run(&r, 30, &AnalysisOptions::default()) {
            let imiss = procedure_samples(&r.profiles, id, Event::IMiss, &sym).unwrap_or(0);
            let s = &pa.summary;
            let range = s.dynamic_range(DynamicCause::ICacheMiss);
            let tallied = s.tallied_samples as f64;
            let top = range.max / 100.0 * tallied;
            let bot = range.min / 100.0 * tallied;
            xs.push(imiss as f64);
            y_top.push(top);
            y_bot.push(bot);
            rows.push((sym.name.clone(), imiss, bot, top));
        }
    }
    writeln!(
        o,
        "Figure 10: I-cache stall cycles vs IMISS events per procedure ({} procedures)",
        rows.len()
    );
    writeln!(o);
    writeln!(
        o,
        "{:<24} {:>12} {:>14} {:>14}",
        "procedure", "IMISS", "stall min", "stall max"
    );
    rows.sort_by_key(|r| std::cmp::Reverse(r.1));
    for (name, imiss, bot, top) in rows.iter().take(20) {
        writeln!(o, "{name:<24} {imiss:>12} {bot:>14.0} {top:>14.0}");
    }
    let y_mid: Vec<f64> = y_top
        .iter()
        .zip(&y_bot)
        .map(|(t, b)| (t + b) / 2.0)
        .collect();
    let corr = [
        ("top of range):     ", pearson(&xs, &y_top), 0.91),
        ("bottom of range):  ", pearson(&xs, &y_bot), 0.86),
        ("midpoint of range):", pearson(&xs, &y_mid), 0.90),
    ];
    writeln!(o);
    for (what, r, paper) in corr {
        writeln!(o, "correlation ({what} {r:>5.2}   (paper: {paper:.2})");
    }
    o.claim(
        "figure10.correlation",
        "top, bottom and midpoint correlations all ≥ 0.85",
        format!("{:.2}/{:.2}/{:.2}", corr[0].1, corr[1].1, corr[2].1),
        corr.iter().all(|c| c.1 >= 0.85),
    );
    o
}
