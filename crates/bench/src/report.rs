//! The whole pipeline's deterministic facts in one experiment: the
//! simulator on the speed suite, the §5.2 collection-overhead ledger,
//! the PGO loop and its translation validation, a chaos fleet run, and
//! the dispatch accounting. Every number here is simulated, so the golden
//! holds each one exactly; host time is `benchmark/`'s to measure.

use crate::{ExpOptions, Outcome, Runs, ACCURACY_PERIOD};
use dcpi_isa::meta::side_table;
use dcpi_isa::pipeline::PipelineModel;
use dcpi_isa::uop::{chain_length_histogram, compile_uops};
use dcpi_workloads::programs::StreamKind;
use dcpi_workloads::{pgo_workload, ProfConfig, RunOptions, Workload};
use std::collections::BTreeMap;

/// Runs the report; `--runs` sets the merged-run row's run count.
pub fn report(opts: &ExpOptions, runs: &Runs) -> Outcome {
    let mut o = Outcome::default();
    // `--quick` divides the speed suite's scales.
    let div = if opts.quick { 4 } else { 1 };
    let suite = [
        (Workload::McCalpin(StreamKind::Copy), "mccalpin-copy", 8),
        (Workload::Gcc, "gcc", 8),
        (Workload::Wave5, "wave5", 4),
    ]
    .map(|(w, name, scale)| (w, name, (scale / div).max(1)));
    let speed = runs.get(suite.map(|(w, _, scale)| {
        (
            w,
            ProfConfig::Cycles,
            opts.run_options(scale, (20_000, 21_600)),
        )
    }));
    let mut totals = [0u64; 3];
    let mut dispatch = Vec::new();
    for ((_, name, scale), r) in suite.iter().zip(&speed) {
        writeln!(
            o,
            "{name:<18} scale {}: {} cycles, {} samples, {} retired",
            scale * opts.scale,
            r.cycles,
            r.samples,
            r.retired
        );
        for (t, x) in totals.iter_mut().zip([r.cycles, r.samples, r.retired]) {
            *t += x;
        }
        // Static superblock-length histogram over the workload's images,
        // plus the run's dynamic dispatch-path accounting.
        let mut hist = BTreeMap::new();
        for (_, image) in &r.images {
            let insns = image.decode_all().expect("image text must decode");
            let meta = side_table(&insns, &PipelineModel::default());
            for (len, n) in chain_length_histogram(&compile_uops(&insns, &meta)) {
                *hist.entry(len).or_insert(0u64) += n;
            }
        }
        dispatch.push((name, r.dispatch, hist));
    }
    let [cycles, samples, retired] = totals;
    writeln!(
        o,
        "{:<18} {cycles} cycles, {samples} samples, {retired} retired",
        "suite total"
    );

    // The §5.2 overhead ledger: the same workloads re-run at the paper's
    // default 60K-64K sampling period (the speed suite's dense 20K period
    // triples the overhead and would sit outside Table 3's band).
    // Collection overhead — interrupt handlers plus daemon processing —
    // reconciled against total simulated cycles must land in the paper's
    // 1-3% band per workload.
    let ledger_cells = suite.map(|(w, _, scale)| {
        let ro = opts.run_options(scale, RunOptions::default().period);
        (w, ProfConfig::Cycles, ro)
    });
    let mut ledgers: Vec<_> = suite
        .iter()
        .zip(runs.get(ledger_cells))
        .map(|((_, name, _), r)| (*name, r.overhead.expect("profiled run has a ledger")))
        .collect();
    // The calling-context extension's ledger: a call-heavy workload at
    // the same default period with stack walking on. The walk charges
    // real handler cycles per delivered sample (metered separately as
    // walk cycles), and the row must stay inside the same 1-3% band —
    // the paper's overhead argument has to survive the extension on a
    // realistic call mix (walk and canonicalization cost scale with
    // stack depth, so a pathological depth-48 recursion sits above the
    // band by design; ordinary call chains do not). Not shrunk under
    // `--quick`: at tiny scales the daemon's fixed per-flush cost
    // dominates the fraction and drowns the walk signal.
    let ro = RunOptions {
        stack_walk: true,
        ..opts.run_options(
            Workload::X11Perf.default_scale() * 4,
            RunOptions::default().period,
        )
    };
    let r = runs.one((Workload::X11Perf, ProfConfig::Cycles, ro));
    assert_eq!(
        r.stacks.total(),
        r.samples,
        "stack walking must capture one stack per delivered sample"
    );
    ledgers.push((
        "x11perf-stacks",
        r.overhead.expect("profiled run has a ledger"),
    ));
    for (name, l) in &ledgers {
        writeln!(
            o,
            "overhead {name:<18} {:.5} of {} cycles: handler {} (walk {}) + daemon {} over {} samples",
            l.fraction(),
            l.total_cycles,
            l.handler_cycles,
            l.walk_cycles,
            l.daemon_cycles,
            l.samples
        );
    }

    // The PGO loop (DESIGN.md §10): profile, rewrite the hottest image
    // from the exported estimates, re-measure, and prove the rewrite
    // segment by segment.
    let mut pgo = Vec::new();
    let mut tv = Vec::new();
    for (w, name) in [
        (Workload::Gcc, "gcc"),
        (Workload::AltaVista, "altavista"),
        (Workload::Dss, "dss"),
    ] {
        match pgo_workload(w, &opts.run_options(1, (2_000, 2_200)), 25) {
            Ok(out) => {
                writeln!(
                    o,
                    "pgo {name:<14} {} -> {} cycles ({:+.4}%), equivalent: {}",
                    out.base_cycles,
                    out.opt_cycles,
                    -out.speedup_pct(),
                    out.equivalent
                );
                pgo.push((name, out.speedup_pct(), out.equivalent));
                // `optimize` proved the rewrite already: a TV error would
                // have been its `Err`, so `validated` means clean.
                let r = &out.report;
                writeln!(
                    o,
                    "tv  {name:<14} proved {}/{} segments, clean: {}",
                    r.tv_proved, r.tv_segments, r.validated
                );
                tv.push((name, r.tv_proved, r.tv_segments, r.validated));
            }
            Err(e) => writeln!(o, "pgo {name:<14} skipped: {e}"),
        }
    }

    // One representative multi-run experiment: the accuracy suite's
    // McCalpin copy cell, merged across `opts.runs` runs — the shape every
    // figure-8/9/10 experiment fans out.
    let ew = Workload::McCalpin(StreamKind::Copy);
    let ro = opts.run_options(if opts.quick { 6 } else { 24 }, ACCURACY_PERIOD);
    let escale = ro.scale;
    let merged = runs.merged((ew, ProfConfig::Cycles, ro), opts.runs);
    writeln!(
        o,
        "run_merged {}-scale{escale} x{}: {} samples",
        ew.name(),
        opts.runs,
        merged.samples
    );

    // A full chaos fleet (DESIGN.md §12): agent and server crashes, every
    // network fault class armed. Not shrunk under `--quick`: the whole run
    // takes well under a second.
    let agents = 100;
    let root = std::env::temp_dir().join(format!("dcpi-bench-fleet-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let fleet = dcpi_server::run_fleet(
        &dcpi_server::FleetConfig::new(&root, agents, opts.seed),
        &dcpi_obs::Obs::default(),
    )
    .expect("fleet run");
    let _ = std::fs::remove_dir_all(&root);
    writeln!(
        o,
        "fleet {agents} agents: {} epochs, {} samples",
        fleet.epochs_sealed, fleet.ledger.base.generated
    );
    o.text.push_str(&fleet.ledger.render());
    writeln!(o);
    writeln!(
        o,
        "fleet ingest lag p95 {} tick(s) (p50 {}, p99 {}, max {})",
        fleet.lag.p95, fleet.lag.p50, fleet.lag.p99, fleet.lag.max
    );

    // Per-workload dispatch accounting: how long the precompiled chains
    // are and how the groups divide between superblock walks and
    // one-group walks.
    for (name, stats, hist) in &dispatch {
        writeln!(
            o,
            "dispatch {name:<18} {} chain groups, {} classic, {} chain entries, fallback {:.6}",
            stats.chain_groups,
            stats.classic_groups,
            stats.chain_entries,
            stats.fallback_rate()
        );
        let lengths: Vec<String> = hist.iter().map(|(len, n)| format!("{len}:{n}")).collect();
        writeln!(
            o,
            "dispatch {name:<18} chains by length {}",
            lengths.join(" ")
        );
    }

    let fractions: Vec<String> = ledgers
        .iter()
        .map(|(_, l)| format!("{:.2}", l.fraction() * 100.0))
        .collect();
    o.claim(
        "report.overhead_band",
        "every ledger row within 1-3 % of total cycles",
        format!("{} %", fractions.join("/")),
        ledgers.iter().all(|(_, l)| l.in_band(0.01, 0.03)),
    );
    let gains: Vec<String> = pgo
        .iter()
        .map(|(name, pct, _)| format!("{name} {pct:.2} %"))
        .collect();
    o.claim(
        "report.pgo_gain",
        "≥ 3 % fewer cycles on altavista and dss, every rewrite equivalent",
        gains.join(", "),
        ["altavista", "dss"]
            .iter()
            .all(|w| pgo.iter().any(|(n, pct, _)| n == w && *pct >= 3.0))
            && pgo.iter().all(|p| p.2),
    );
    let proved: Vec<String> = tv.iter().map(|(_, p, s, _)| format!("{p}/{s}")).collect();
    o.claim(
        "report.tv_proved",
        "every segment of every rewrite proved",
        proved.join(", "),
        tv.len() == pgo.len() && tv.iter().all(|(_, p, s, clean)| p == s && *clean),
    );
    o.claim(
        "report.fleet_conserves",
        "the fleet's sample ledger conserves",
        if fleet.conserves() {
            "conserved"
        } else {
            "NOT CONSERVED"
        },
        fleet.conserves(),
    );
    let classic: u64 = dispatch.iter().map(|(_, s, _)| s.classic_groups).sum();
    o.claim(
        "report.classic_groups",
        "0 issue groups retired by one-group walks under Superblock",
        classic,
        classic == 0,
    );
    o
}
