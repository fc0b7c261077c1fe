//! Every table and figure of the paper, and the ablations and extensions
//! beyond it, as one registry of experiments (see DESIGN.md §4 for the
//! index and EXPERIMENTS.md for what each reproduces).
//!
//! `experiments <name>|--all` runs them ([`EXPERIMENTS`]); each returns
//! its text and the claims that text must back ([`Outcome`]), and
//! `--check` holds the text to one golden ([`check_golden`]). This file
//! keeps what several experiments share: the run table every entry takes
//! its simulations from ([`Runs`]), the accuracy suite, and the
//! statistics they print.

use dcpi_analyze::analysis::{analyze_sampled, AnalysisOptions, ProcAnalysis};
use dcpi_analyze::cfg::EdgeKind;
use dcpi_analyze::frequency::Confidence;
use dcpi_core::{ImageId, ProfileSet};
use dcpi_isa::image::Symbol;
use dcpi_isa::insn::Instruction;
use dcpi_obs::OverheadLedger;
use dcpi_workloads::programs::StreamKind;
use dcpi_workloads::{run_indexed, run_workload, ProfConfig, RunOptions, RunResult, Workload};
use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::Arc;

mod ablations;
mod figures;
mod registry;
mod report;
mod tables;

pub use registry::{
    check_golden, golden_path, header, Claim, ExpOptions, Experiment, Invocation, Outcome,
    EXPERIMENTS, USAGE,
};

/// Mean and 95% confidence half-interval of a sample.
#[must_use]
pub fn mean_ci(xs: &[f64]) -> (f64, f64) {
    let n = xs.len() as f64;
    if xs.is_empty() {
        return (0.0, 0.0);
    }
    let mean = xs.iter().sum::<f64>() / n;
    if xs.len() < 2 {
        return (mean, 0.0);
    }
    let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1.0);
    // 1.96 σ/√n — fine for reporting purposes.
    (mean, 1.96 * (var / n).sqrt())
}

/// Pearson correlation coefficient.
#[must_use]
pub fn pearson(xs: &[f64], ys: &[f64]) -> f64 {
    assert_eq!(xs.len(), ys.len());
    let n = xs.len() as f64;
    if xs.len() < 2 {
        return 0.0;
    }
    let mx = xs.iter().sum::<f64>() / n;
    let my = ys.iter().sum::<f64>() / n;
    let mut sxy = 0.0;
    let mut sxx = 0.0;
    let mut syy = 0.0;
    for (x, y) in xs.iter().zip(ys) {
        sxy += (x - mx) * (y - my);
        sxx += (x - mx).powi(2);
        syy += (y - my).powi(2);
    }
    if sxx == 0.0 || syy == 0.0 {
        0.0
    } else {
        sxy / (sxx * syy).sqrt()
    }
}

/// A weighted error histogram over the paper's Figure 8/9 buckets:
/// 5-percentage-point bins from -45% to +45% with open tails.
#[derive(Clone, Debug)]
pub struct ErrorHistogram {
    /// Bucket labels, in display order.
    pub labels: Vec<String>,
    /// Weight accumulated per bucket.
    pub weights: Vec<f64>,
    total: f64,
}

impl Default for ErrorHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl ErrorHistogram {
    /// Creates the empty histogram.
    #[must_use]
    pub fn new() -> ErrorHistogram {
        let mut labels = vec!["<-45%".to_string()];
        for b in (-45..45).step_by(5) {
            labels.push(format!("{b}..{}%", b + 5));
        }
        labels.push(">=45%".to_string());
        let n = labels.len();
        ErrorHistogram {
            labels,
            weights: vec![0.0; n],
            total: 0.0,
        }
    }

    /// Adds a sample with relative error `err` (e.g. `-0.07` for -7%) and
    /// the given weight.
    pub fn add(&mut self, err: f64, weight: f64) {
        let pct = err * 100.0;
        let last = self.weights.len() - 1;
        let idx = if pct < -45.0 {
            0
        } else if pct >= 45.0 {
            last
        } else {
            1 + ((pct + 45.0) / 5.0).floor() as usize
        };
        self.weights[idx.min(last)] += weight;
        self.total += weight;
    }

    /// Fraction of weight with |error| ≤ `pct` percent (for the paper's
    /// "73% of samples within 5%" style summaries).
    #[must_use]
    pub fn within(&self, pct: f64) -> f64 {
        if self.total == 0.0 {
            return 0.0;
        }
        let lo = 1 + ((-pct + 45.0) / 5.0).floor() as usize;
        let hi = 1 + ((pct + 45.0) / 5.0).ceil() as usize;
        let s: f64 = self.weights[lo..hi.min(self.weights.len() - 1)]
            .iter()
            .sum();
        s / self.total
    }

    /// Renders an ASCII histogram.
    #[must_use]
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let max = self.weights.iter().cloned().fold(0.0, f64::max).max(1e-12);
        for (label, w) in self.labels.iter().zip(&self.weights) {
            let pct = if self.total > 0.0 {
                w / self.total * 100.0
            } else {
                0.0
            };
            let bar = "#".repeat((w / max * 50.0).round() as usize);
            let _ = writeln!(out, "{label:>10} {pct:>6.2}% {bar}");
        }
        out
    }

    /// Total accumulated weight.
    #[must_use]
    pub fn total(&self) -> f64 {
        self.total
    }
}

/// Analyzes every procedure of a run that has at least `min_samples`
/// CYCLES samples under `opts`, returning `(image, symbol, analysis)`
/// triples for those whose analysis succeeded.
#[must_use]
pub fn analyze_run(
    r: &RunResult,
    min_samples: u64,
    opts: &AnalysisOptions,
) -> Vec<(ImageId, Symbol, ProcAnalysis)> {
    let mut out = Vec::new();
    for (id, image) in &r.images {
        for (sym, _, pa) in analyze_sampled(image, &r.profiles, *id, min_samples, opts) {
            if let Ok(pa) = pa {
                out.push((*id, sym.clone(), pa));
            }
        }
    }
    out
}

/// The program cycles behind each CYCLES sample of a run, which turn a
/// frequency estimate in `S/M` units into an execution count: the run's
/// cycles less the handler's (the stack walk's among them) and the
/// daemon's, over its samples. The counter runs through both (DESIGN.md
/// §6, Driver). A merged run's ledger sums, so it converts a merged
/// profile; one timeline makes it exact for single-CPU runs only.
///
/// # Panics
///
/// Panics if the ledger has no samples or is not [`OverheadLedger::consistent`].
#[must_use]
pub fn program_cycles_per_sample(ledger: &OverheadLedger) -> f64 {
    assert!(ledger.samples > 0, "no samples to convert by: {ledger:?}");
    assert!(ledger.consistent(), "inconsistent ledger: {ledger:?}");
    (ledger.total_cycles - ledger.collection_cycles()) as f64 / ledger.samples as f64
}

/// The sampling-adequacy filter: fewer than two CYCLES samples per
/// instruction is too thin for any estimator (EXPERIMENTS.md, Figure 8).
fn thinly_sampled(pa: &ProcAnalysis) -> bool {
    pa.total_samples() < 2 * pa.insns.len() as u64
}

/// Figure 8's rows for one analyzed procedure of `r`: each sampled
/// instruction that ran gives its relative error against the simulator's
/// exact count (`-0.07` for −7 %), its CYCLES samples as weight, and its
/// predicted confidence. A thinly sampled procedure gives none.
pub fn insn_errors<'a>(
    r: &'a RunResult,
    id: ImageId,
    pa: &'a ProcAnalysis,
) -> impl Iterator<Item = (f64, f64, Option<Confidence>)> + 'a {
    let thin = thinly_sampled(pa);
    let p = program_cycles_per_sample(r.overhead.as_ref().expect("a profiled run"));
    pa.insns.iter().filter_map(move |ia| {
        if thin || ia.samples == 0 || ia.freq <= 0.0 {
            return None;
        }
        let true_execs = r.gt.insn_count(id, ia.offset);
        (true_execs > 0).then(|| {
            let err = ia.freq * p / true_execs as f64 - 1.0;
            (err, ia.samples as f64, ia.confidence)
        })
    })
}

/// Figure 9's rows for one analyzed procedure of `r`: each estimated CFG
/// edge that ran gives its relative error and its exact count as weight.
/// A thinly sampled procedure gives none.
pub fn edge_errors<'a>(
    r: &'a RunResult,
    id: ImageId,
    pa: &'a ProcAnalysis,
) -> impl Iterator<Item = (f64, f64)> + 'a {
    let thin = thinly_sampled(pa);
    let p = program_cycles_per_sample(r.overhead.as_ref().expect("a profiled run"));
    let estimates = pa.cfg.edges.iter().zip(&pa.frequencies.edge_freq);
    estimates.filter_map(move |(edge, est)| {
        let est = est.filter(|_| !thin)?;
        let last_word = pa.cfg.blocks[edge.from.0].end_word() - 1;
        let last_insn = &pa.cfg.insns[(last_word - pa.cfg.start_word) as usize];
        let to_word = pa.cfg.blocks[edge.to.0].start_word;
        // Control transfers are recorded directly; a fall-through from a
        // non-branch block equals the last instruction's count.
        let true_execs = match (edge.kind, last_insn) {
            (EdgeKind::FallThrough, Instruction::CondBr { .. })
            | (EdgeKind::Taken | EdgeKind::Indirect, _) => {
                r.gt.edge_count(id, u64::from(last_word) * 4, u64::from(to_word) * 4)
            }
            (EdgeKind::FallThrough, _) => r.gt.insn_count(id, u64::from(last_word) * 4),
        };
        (true_execs > 0).then(|| {
            let err = est.value * p / true_execs as f64 - 1.0;
            (err, true_execs as f64)
        })
    })
}

/// The workload suite used for the estimate-accuracy experiments
/// (Figures 8–10): a mix of integer, FP, memory-bound, call-heavy, and
/// multi-process programs, each with a scale that yields a few thousand
/// samples at [`ACCURACY_PERIOD`].
const ACCURACY_SUITE: [(Workload, u32); 5] = [
    (Workload::McCalpin(StreamKind::Copy), 24),
    (Workload::McCalpin(StreamKind::Sum), 16),
    (Workload::X11Perf, 80),
    (Workload::Gcc, 60),
    (Workload::Wave5, 20),
];

/// The accuracy suite under `config` at `period`, each workload merged
/// over `opts.runs` runs ([`Runs::merged`]), in suite order.
pub fn accuracy_runs(
    opts: &ExpOptions,
    runs: &Runs,
    config: ProfConfig,
    period: (u64, u64),
) -> Vec<RunResult> {
    ACCURACY_SUITE
        .into_iter()
        .map(|(w, scale)| runs.merged((w, config, opts.run_options(scale, period)), opts.runs))
        .collect()
}

/// Sampling period for the estimate-accuracy experiments, where handler
/// and daemon time sit at about the paper's 1-2 %. The scorers convert by
/// each run's measured program cycles per sample, so a denser period
/// would not bias them; this one is kept until a seed sweep shows which
/// period holds the claims at every seed.
pub const ACCURACY_PERIOD: (u64, u64) = (40_000, 43_200);

/// One simulation: the full input of [`run_workload`].
pub type Cell = (Workload, ProfConfig, RunOptions);

/// `runs` copies of a cell (at least one), copy `k` at seed
/// `base.seed + k*step`.
pub fn repeats((w, config, base): Cell, runs: usize, step: u32) -> impl Iterator<Item = Cell> {
    (0..runs.max(1) as u32).map(move |k| {
        let ro = RunOptions {
            seed: base.seed + k * step,
            ..base.clone()
        };
        (w, config, ro)
    })
}

/// The run table of one `experiments` invocation: every entry asks it
/// for cells, each distinct cell is simulated once on its one pool of
/// `threads` workers, and the result is shared by every entry that asks
/// for it until the invocation ends.
///
/// A cell's result depends on the cell alone, so what an entry reads is
/// the same for any thread count and whichever entry ran the cell first.
#[derive(Debug)]
pub struct Runs {
    threads: usize,
    done: RefCell<HashMap<Cell, Arc<RunResult>>>,
}

impl Runs {
    /// An empty table whose runs go onto `threads` workers (`1` runs
    /// them serially on the caller's thread).
    #[must_use]
    pub fn new(threads: usize) -> Runs {
        Runs {
            threads,
            done: RefCell::default(),
        }
    }

    /// The results of `cells`, in request order; the cells not run yet
    /// are run first, each once however often it is asked for.
    pub fn get(&self, cells: impl IntoIterator<Item = Cell>) -> Vec<Arc<RunResult>> {
        let cells: Vec<Cell> = cells.into_iter().collect();
        let mut missing: Vec<&Cell> = Vec::new();
        for c in &cells {
            if !self.done.borrow().contains_key(c) && !missing.contains(&c) {
                missing.push(c);
            }
        }
        let ran = run_indexed(missing.len(), self.threads, |i| {
            let (w, config, ro) = missing[i];
            run_workload(*w, *config, ro)
        });
        let mut done = self.done.borrow_mut();
        for (c, r) in missing.into_iter().zip(ran) {
            done.insert(c.clone(), Arc::new(r));
        }
        cells.iter().map(|c| Arc::clone(&done[c])).collect()
    }

    /// The result of one cell.
    pub fn one(&self, cell: Cell) -> Arc<RunResult> {
        self.get([cell]).swap_remove(0)
    }

    /// A cell run `runs` times and merged (the paper's 1-run vs 80-run
    /// comparison, §6.2). Run `k` is the cell at seed `seed + k*97`, so
    /// a longer merge reuses a shorter one's runs.
    ///
    /// Every accumulator of the result is merged, not just the profiles:
    /// driver and daemon statistics, cycles, retired instructions, and the
    /// sample/overhead ledgers all sum across runs, so per-run rates and
    /// the conservation law stay meaningful for the merged result.
    ///
    /// # Panics
    ///
    /// Panics if the merged sample ledger fails conservation — that means
    /// a run lost samples without a line item, which is a collection bug.
    #[must_use]
    pub fn merged(&self, cell: Cell, runs: usize) -> RunResult {
        let results = self.get(repeats(cell, runs, 97));
        let (first, rest) = results.split_first().expect("at least one run");
        let mut acc = RunResult::clone(first);
        let parts = results.iter().flat_map(|r| r.profiles.iter());
        acc.profiles = ProfileSet::sum(parts.map(|(key, profile)| (*key, profile)));
        for r in rest {
            acc.edge_profiles.merge(&r.edge_profiles);
            acc.stacks.merge(&r.stacks);
            acc.gt.merge(&r.gt);
            acc.samples += r.samples;
            acc.cycles += r.cycles;
            acc.retired += r.retired;
            acc.disk_bytes += r.disk_bytes;
            acc.driver_kernel_bytes = acc.driver_kernel_bytes.max(r.driver_kernel_bytes);
            merge_present(&mut acc.driver, r.driver.as_ref(), |a, b| a.merge(b));
            merge_present(&mut acc.daemon, r.daemon.as_ref(), |a, b| a.merge(b));
            merge_present(&mut acc.ledger, r.ledger.as_ref(), |a, b| a.merge(b));
            merge_present(&mut acc.overhead, r.overhead.as_ref(), |a, b| a.merge(b));
            merge_present(&mut acc.obs, r.obs.as_ref(), |a, b| a.merge(b));
        }
        if let Some(ledger) = &acc.ledger {
            assert!(
                ledger.conserves(),
                "merged ledger violates conservation: {}",
                ledger.render()
            );
        }
        acc
    }
}

/// Merges `other` into `slot`, or copies it there if `slot` is empty.
fn merge_present<T: Clone>(slot: &mut Option<T>, other: Option<&T>, merge: fn(&mut T, &T)) {
    match (slot, other) {
        (Some(a), Some(b)) => merge(a, b),
        (slot @ None, Some(b)) => *slot = Some(b.clone()),
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcpi_core::cli::{Args, Stop};

    #[test]
    fn mean_ci_basics() {
        let (m, ci) = mean_ci(&[1.0, 2.0, 3.0]);
        assert!((m - 2.0).abs() < 1e-12);
        assert!(ci > 0.0);
        assert_eq!(mean_ci(&[]), (0.0, 0.0));
        assert_eq!(mean_ci(&[5.0]).1, 0.0);
    }

    #[test]
    fn pearson_perfect_and_anti() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        let ys = [2.0, 4.0, 6.0, 8.0];
        assert!((pearson(&xs, &ys) - 1.0).abs() < 1e-12);
        let zs = [8.0, 6.0, 4.0, 2.0];
        assert!((pearson(&xs, &zs) + 1.0).abs() < 1e-12);
        assert_eq!(pearson(&[1.0], &[1.0]), 0.0);
    }

    #[test]
    fn histogram_buckets_and_within() {
        let mut h = ErrorHistogram::new();
        h.add(0.01, 10.0); // 0..5%
        h.add(-0.03, 10.0); // -5..0%
        h.add(0.30, 5.0); // 30..35%
        h.add(-0.99, 1.0); // <-45%
        h.add(0.99, 1.0); // >=45%
        assert!((h.within(5.0) - 20.0 / 27.0).abs() < 1e-9);
        assert!((h.total() - 27.0).abs() < 1e-12);
        let text = h.render();
        assert!(text.contains("<-45%"));
        assert!(text.contains(">=45%"));
    }

    #[test]
    fn histogram_bucket_count_matches_labels() {
        let h = ErrorHistogram::new();
        assert_eq!(h.labels.len(), h.weights.len());
        assert_eq!(h.labels.len(), 20);
    }

    #[test]
    fn samples_convert_by_the_program_cycles_between_them() {
        let ledger = OverheadLedger {
            total_cycles: 1_000_000,
            handler_cycles: 30_000,
            daemon_cycles: 20_000,
            walk_cycles: 10_000,
            samples: 25,
        };
        // (1 000 000 − 30 000 − 20 000) / 25; the walk is inside the
        // handler's 30 000 and is not subtracted again.
        assert_eq!(program_cycles_per_sample(&ledger), 38_000.0);
    }

    #[test]
    #[should_panic(expected = "no samples to convert by")]
    fn a_ledger_without_samples_converts_nothing() {
        let _ = program_cycles_per_sample(&OverheadLedger {
            total_cycles: 4_000,
            ..OverheadLedger::default()
        });
    }

    #[test]
    fn a_thinly_sampled_procedure_scores_no_rows() {
        let ro = RunOptions {
            period: (4_000, 4_300),
            ..RunOptions::default()
        };
        let r = run_workload(
            Workload::McCalpin(StreamKind::Copy),
            ProfConfig::Cycles,
            &ro,
        );
        let (id, _, mut pa) = analyze_run(&r, 50, &AnalysisOptions::default())
            .into_iter()
            .next()
            .expect("the copy loop, sampled");
        assert!(insn_errors(&r, id, &pa).count() > 0);
        assert!(edge_errors(&r, id, &pa).count() > 0);
        // One sample per sampled instruction: half of what the filter asks.
        for ia in &mut pa.insns {
            ia.samples = ia.samples.min(1);
        }
        assert!(pa.insns.iter().any(|ia| ia.samples == 1 && ia.freq > 0.0));
        assert_eq!(insn_errors(&r, id, &pa).count(), 0);
        assert_eq!(edge_errors(&r, id, &pa).count(), 0);
    }

    #[test]
    fn run_merged_sums_stats_and_ledgers() {
        let w = Workload::McCalpin(StreamKind::Copy);
        let base = RunOptions {
            period: (6_000, 6_400),
            limit: 200_000_000,
            obs: true,
            ..RunOptions::default()
        };
        let runs = Runs::new(2);
        let merged = runs.merged((w, ProfConfig::Cycles, base.clone()), 2);
        let single = |seed| {
            let ro = RunOptions {
                seed,
                ..base.clone()
            };
            runs.one((w, ProfConfig::Cycles, ro))
        };
        let a = single(base.seed);
        let b = single(base.seed + 97);
        assert_eq!(
            runs.done.borrow().len(),
            2,
            "the merge ran exactly these two"
        );
        assert_eq!(merged.samples, a.samples + b.samples);
        assert_eq!(merged.cycles, a.cycles + b.cycles);
        assert_eq!(merged.retired, a.retired + b.retired);
        let (da, db, dm) = (a.driver.unwrap(), b.driver.unwrap(), merged.driver.unwrap());
        assert_eq!(dm.interrupts, da.interrupts + db.interrupts);
        assert_eq!(dm.dropped, da.dropped + db.dropped);
        assert_eq!(dm.handler_cycles, da.handler_cycles + db.handler_cycles);
        let (na, nb, nm) = (a.daemon.unwrap(), b.daemon.unwrap(), merged.daemon.unwrap());
        assert_eq!(nm.samples, na.samples + nb.samples);
        assert_eq!(nm.entries, na.entries + nb.entries);
        let lm = merged.ledger.unwrap();
        assert!(lm.conserves(), "{}", lm.render());
        assert_eq!(
            lm.generated,
            a.ledger.unwrap().generated + b.ledger.unwrap().generated
        );
        let om = merged.overhead.unwrap();
        assert_eq!(
            om.total_cycles,
            a.overhead.unwrap().total_cycles + b.overhead.unwrap().total_cycles
        );
        assert!(om.consistent());
        let snap = merged.obs.unwrap();
        let ledger = snap.samples.unwrap();
        assert_eq!(ledger.generated, lm.generated, "snapshot ledger merged");
    }

    #[test]
    fn a_repeated_cell_is_simulated_once() {
        let w = Workload::McCalpin(StreamKind::Copy);
        let base = RunOptions {
            period: (6_000, 6_400),
            limit: 1_000_000,
            ..RunOptions::default()
        };
        let cell = |config| (w, config, base.clone());
        let same = |a: &[Arc<RunResult>], b: &[Arc<RunResult>]| {
            a.len() == b.len() && a.iter().zip(b).all(|(x, y)| Arc::ptr_eq(x, y))
        };
        let runs = Runs::new(2);
        // The same cells twice, and a cell twice within one request.
        let first = runs.get([cell(ProfConfig::Base), cell(ProfConfig::Cycles)]);
        let again = runs.get([cell(ProfConfig::Base), cell(ProfConfig::Cycles)]);
        assert!(same(&first, &again));
        let twice = runs.get([cell(ProfConfig::Mux), cell(ProfConfig::Mux)]);
        assert!(Arc::ptr_eq(&twice[0], &twice[1]));
        assert_eq!(runs.done.borrow().len(), 3);
        // Two requests that overlap in one cell.
        let overlap = runs.get([cell(ProfConfig::Cycles), cell(ProfConfig::Default)]);
        assert!(same(&first[1..], &overlap[..1]));
        assert_eq!(runs.done.borrow().len(), 4);
        // A 3-run merge after a 2-run merge with the same base.
        let runs = Runs::new(2);
        let two = runs.merged(cell(ProfConfig::Cycles), 2);
        let cells = |n| repeats(cell(ProfConfig::Cycles), n, 97);
        let two_runs = runs.get(cells(2));
        assert_eq!(runs.done.borrow().len(), 2);
        let three = runs.merged(cell(ProfConfig::Cycles), 3);
        let three_runs = runs.get(cells(3));
        assert_eq!(runs.done.borrow().len(), 3);
        assert!(same(&two_runs, &three_runs[..2]));
        assert_eq!(three.samples, two.samples + three_runs[2].samples);
    }

    fn options(argv: &[&str]) -> ExpOptions {
        let inv = Invocation::parse(Args::new(argv.iter().copied())).unwrap();
        inv.options(inv.selected[0])
    }

    #[test]
    fn parse_known_flags() {
        let argv = [
            "figure8",
            "--runs",
            "7",
            "--scale",
            "3",
            "--seed",
            "42",
            "--threads",
            "2",
        ];
        let o = options(&argv);
        assert_eq!(o.runs, 7);
        assert_eq!(o.scale, 3);
        assert_eq!(o.seed, 42);
        assert!(!o.quick);
        let inv = Invocation::parse(Args::new(argv)).unwrap();
        assert_eq!(inv.table.threads, 2, "the run table's pool");
    }

    #[test]
    fn parse_defaults() {
        let o = options(&["figure3"]);
        assert_eq!(o.runs, 8, "figure3's own default");
        assert_eq!(o.scale, 1);
        assert_eq!(o.seed, 1);
        let inv = Invocation::parse(Args::new(["figure3"])).unwrap();
        assert!(inv.table.threads >= 1, "defaults to available parallelism");
        assert_eq!(options(&["table4"]).runs, 1, "an experiment that runs once");
        let all = Invocation::parse(Args::new(["--all"])).unwrap();
        assert_eq!(all.selected.len(), EXPERIMENTS.len());
    }

    #[test]
    fn quick_clamps_runs() {
        let o = options(&["--quick", "figure8", "--runs", "50"]);
        assert!(o.quick);
        assert_eq!(o.runs, 2);
        assert_eq!(options(&["figure3", "--quick"]).runs, 2);
    }

    #[test]
    fn a_mistyped_experiment_does_not_start() {
        // An unknown flag, an unparsable value, a flag given another flag
        // where its value belongs, an unknown or missing experiment, and
        // `--runs` for an experiment that never reads it: each names the
        // offending word.
        for (argv, word) in [
            (&["figure8", "--bogus", "--runs", "3"][..], "--bogus"),
            (&["figure8", "--runs", "lots"], "lots"),
            (&["figure8", "--runs", "--quick"], "--runs"),
            (&["figure5"], "figure5"),
            (&["--quick"], "--all"),
            (&["figure8", "--all"], "figure8"),
            (&["figure8", "figure9"], "figure9"),
            (&["figure1", "--runs", "3"], "figure1"),
            (&["--all", "--runs", "3"], "table4"),
            (&["figure8", "--check"], "--quick"),
            (&["figure8", "--check", "--quick", "--seed", "2"], "--seed"),
        ] {
            match Invocation::parse(Args::new(argv.iter().copied())) {
                Err(Stop::Usage(msg)) => assert!(msg.contains(word), "{argv:?}: {msg}"),
                other => panic!("{argv:?}: expected a usage error, got {other:?}"),
            }
        }
        for e in EXPERIMENTS.iter().filter(|e| e.runs.is_none()) {
            match Invocation::parse(Args::new([e.name, "--runs", "2"])) {
                Err(Stop::Usage(msg)) => {
                    assert!(msg.contains("--runs") && msg.contains(e.name), "{msg}");
                }
                other => panic!("{}: `--runs` accepted: {other:?}", e.name),
            }
        }
        // `DCPI_QUICK` is no option: only `--quick` shrinks a run.
        std::env::set_var("DCPI_QUICK", "1");
        let o = options(&["figure8"]);
        std::env::remove_var("DCPI_QUICK");
        assert!(!o.quick);
        assert_eq!(o.runs, 3);
    }
}
