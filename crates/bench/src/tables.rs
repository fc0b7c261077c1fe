//! The paper's tables: Table 2 (base runtimes), Table 3 (slowdown),
//! Table 4 (time overhead components), Table 5 (space overhead), and the
//! §5.4 hash-table design sweep.

use crate::{mean_ci, repeats, ExpOptions, Outcome, Runs};
use dcpi_collect::driver::{CostModel, DriverConfig, EvictPolicy};
use dcpi_collect::htsim::{default_sweep, sweep};
use dcpi_workloads::programs::StreamKind;
use dcpi_workloads::{ProfConfig, RunOptions, Workload};

const PROFILED: [ProfConfig; 3] = [ProfConfig::Cycles, ProfConfig::Default, ProfConfig::Mux];

/// Table 2: workload descriptions and base running times.
///
/// The paper reports mean base runtimes with 95% confidence intervals
/// over ≥10 runs; we do the same in simulated cycles (the simulated clock
/// is 333 MHz nominal, so seconds = cycles / 333e6).
pub fn table2(opts: &ExpOptions, runs: &Runs) -> Outcome {
    let mut o = Outcome::default();
    writeln!(
        o,
        "Table 2: workloads and base runtimes ({} runs each)",
        opts.runs
    );
    writeln!(o);
    writeln!(
        o,
        "{:<18} {:>4} {:>16} {:>12}  description",
        "workload", "cpus", "mean cycles", "95% CI"
    );
    let cells = Workload::ALL
        .into_iter()
        .flat_map(|w| repeats((w, ProfConfig::Base, grid_options(opts, w)), opts.runs, 1));
    let cycles: Vec<f64> = runs.get(cells).iter().map(|r| r.cycles as f64).collect();
    let mut varying = Vec::new();
    for (w, times) in Workload::ALL.iter().zip(cycles.chunks(opts.runs.max(1))) {
        let (mean, ci) = mean_ci(times);
        if ci > 0.0 {
            varying.push(w.name());
        }
        writeln!(
            o,
            "{:<18} {:>4} {:>16.0} {:>11.0}  {}",
            w.name(),
            w.cpus(),
            mean,
            ci,
            description(*w)
        );
    }
    o.claim(
        "table2.only_wave5_varies",
        "a nonzero CI for wave5 alone (randomized page placement)",
        format!("nonzero for [{}]", varying.join(", ")),
        varying == ["wave5"],
    );
    o
}

/// The options of a grid cell of Tables 2, 3 and 5 and Figure 6: `w` at
/// its default scale and the default period.
pub(crate) fn grid_options(opts: &ExpOptions, w: Workload) -> RunOptions {
    opts.run_options(w.default_scale(), RunOptions::default().period)
}

fn description(w: Workload) -> &'static str {
    match w {
        Workload::McCalpin(_) => "McCalpin STREAMS memory-bandwidth loop",
        Workload::X11Perf => "CPU-bound X server rendering mix",
        Workload::Gcc => "14 short-lived compiler processes",
        Workload::Wave5 => "FP code with page-mapping-sensitive smooth_",
        Workload::AltaVista => "search: 8 outstanding queries on 4 CPUs",
        Workload::Dss => "decision-support query on 8 CPUs",
        Workload::ParallelFp => "parallelized FP kernels on 4 CPUs",
        Workload::Timesharing => "uneven multi-user mix with idle tails",
        Workload::DeepRecursion => "depth-48 recursion (stack-walk stress)",
        Workload::MutualRecursion => "mutual even/odd recursion",
        Workload::DispatchServer => "indirect-dispatch server on 2 CPUs",
    }
}

/// Table 3: overall slowdown (percent) per workload under the `cycles`,
/// `default`, and `mux` configurations relative to `base`.
pub fn table3(opts: &ExpOptions, runs: &Runs) -> Outcome {
    const CONFIGS: [ProfConfig; 4] = [
        ProfConfig::Base,
        ProfConfig::Cycles,
        ProfConfig::Default,
        ProfConfig::Mux,
    ];
    let mut o = Outcome::default();
    writeln!(
        o,
        "Table 3: overall slowdown in percent ({} runs per cell; paper: 1-3% typical, gcc highest)",
        opts.runs
    );
    writeln!(o);
    writeln!(
        o,
        "{:<18} {:>16} {:>16} {:>16}",
        "workload", "cycles (%)", "default (%)", "mux (%)"
    );
    let cells = Workload::ALL.into_iter().flat_map(|w| {
        CONFIGS
            .into_iter()
            .flat_map(move |p| repeats((w, p, grid_options(opts, w)), opts.runs, 1))
    });
    let cycles: Vec<f64> = runs.get(cells).iter().map(|r| r.cycles as f64).collect();
    let per_config = opts.runs.max(1);
    // (workload, [(slowdown %, its 95% error)] per profiled config)
    let mut rows = Vec::new();
    for (w, times) in Workload::ALL
        .iter()
        .zip(cycles.chunks(CONFIGS.len() * per_config))
    {
        let mut times = times.chunks(per_config).map(mean_ci);
        let (base, base_ci) = times.next().expect("the base configuration");
        let cells: Vec<(f64, f64)> = times
            .map(|(t, ci95)| ((t / base - 1.0) * 100.0, (ci95 + base_ci) / base * 100.0))
            .collect();
        let cell = |c: usize| format!("{:>6.1} ±{:>4.1}", cells[c].0, cells[c].1);
        writeln!(
            o,
            "{:<18} {:>16} {:>16} {:>16}",
            w.name(),
            cell(0),
            cell(1),
            cell(2)
        );
        rows.push((*w, cells));
    }
    writeln!(o);
    writeln!(o, "(base mean per workload measured over the same seeds)");
    let slow = |w: Workload, c: usize| rows.iter().find(|r| r.0 == w).map_or(0.0, |r| r.1[c].0);
    let next = |c: usize| {
        rows.iter()
            .filter(|r| r.0 != Workload::Gcc)
            .map(|r| r.1[c].0)
            .fold(f64::MIN, f64::max)
    };
    o.claim(
        "table3.gcc_outlier",
        "gcc's slowdown the largest under cycles, default and mux",
        format!(
            "gcc {:.1}/{:.1}/{:.1} %, next {:.1}/{:.1}/{:.1} %",
            slow(Workload::Gcc, 0),
            slow(Workload::Gcc, 1),
            slow(Workload::Gcc, 2),
            next(0),
            next(1),
            next(2)
        ),
        (0..3).all(|c| slow(Workload::Gcc, c) > next(c)),
    );
    let all = rows.iter().flat_map(|r| r.1.iter().map(|c| c.0));
    let (lo, hi) = all.fold((f64::MAX, f64::MIN), |(lo, hi), s| (lo.min(s), hi.max(s)));
    o.claim(
        "table3.low_single_digits",
        "every mean slowdown within 0.5-3 %",
        format!("{lo:.1}-{hi:.1} %"),
        lo >= 0.5 && hi <= 3.0,
    );
    let wave5 = &rows
        .iter()
        .find(|r| r.0 == Workload::Wave5)
        .expect("wave5 row")
        .1;
    o.claim(
        "table3.wave5_noise",
        "wave5's run-to-run error larger than its slowdown in every configuration",
        format!("cycles {:.1} ±{:.1} %", wave5[0].0, wave5[0].1),
        wave5.iter().all(|(s, err)| err > s),
    );
    o
}

/// Table 4: time overhead components per workload and configuration —
/// hash-table miss rate, average interrupt (handler) cost with hit/miss
/// breakdown, and the daemon's per-sample processing cost.
pub fn table4(opts: &ExpOptions, runs: &Runs) -> Outcome {
    let mut o = Outcome::default();
    let cost = CostModel::default();
    let n_w = Workload::ALL.len();
    let cells = PROFILED.into_iter().flat_map(|p| {
        Workload::ALL.into_iter().map(move |w| {
            // Sampling density is scaled with our shortened workloads
            // (paper: 5-minute runs at 60K-cycle periods; ours: ~30M-cycle
            // runs at 6K), so per-process sample counts relate to hot-key
            // footprints the way they did in the paper — the regime where
            // hash-table behaviour differentiates workloads.
            (w, p, opts.run_options(w.default_scale(), (6_000, 6_400)))
        })
    });
    let results: Vec<(Workload, [f64; 4])> = runs
        .get(cells)
        .iter()
        .map(|r| {
            let d = r.driver.expect("profiled run has driver stats");
            let day = r.daemon.expect("profiled run has daemon stats");
            let row = [
                d.miss_rate(),
                d.avg_cost(),
                day.cost_per_sample(),
                day.aggregation_factor(),
            ];
            (r.workload, row)
        })
        .collect();
    for (prof, rows) in PROFILED.iter().zip(results.chunks(n_w)) {
        writeln!(o, "Table 4 — configuration `{}`:", prof.name());
        writeln!(
            o,
            "{:<18} {:>9} {:>20} {:>12} {:>8}",
            "workload", "miss rate", "intr cost (hit/miss)", "daemon/sample", "agg"
        );
        for (w, [miss, intr, daemon, agg]) in rows {
            writeln!(
                o,
                "{:<18} {:>8.1}% {:>9.0} ({:.0}/{:.0}) {:>12.0} {:>8.1}",
                w.name(),
                miss * 100.0,
                intr,
                (cost.setup + cost.hit) as f64,
                (cost.setup + cost.miss) as f64,
                daemon,
                agg,
            );
        }
        writeln!(o);
    }
    writeln!(
        o,
        "paper shapes: gcc's distinct PIDs give the worst miss rate and the"
    );
    writeln!(
        o,
        "highest per-interrupt and per-sample daemon costs; well-aggregating"
    );
    writeln!(o, "workloads (AltaVista, DSS) have tiny daemon costs.");
    // Column `c` of workload `w` over the three configurations, folded
    // by `f` (`f64::min` or `f64::max`).
    let col = |w: Workload, c: usize, f: fn(f64, f64) -> f64| {
        results
            .iter()
            .filter(|r| r.0 == w)
            .map(|r| r.1[c])
            .reduce(f)
            .expect("a row per configuration")
    };
    // gcc against every other workload in each configuration: higher in
    // the three costs, lower in aggregation.
    let gcc_worst = results.chunks(n_w).all(|rows| {
        let gcc = rows
            .iter()
            .find(|r| r.0 == Workload::Gcc)
            .expect("gcc row")
            .1;
        rows.iter()
            .filter(|r| r.0 != Workload::Gcc)
            .all(|(_, row)| (0..3).all(|c| gcc[c] > row[c]) && gcc[3] < row[3])
    });
    o.claim(
        "table4.gcc_worst",
        "gcc worst in miss rate, interrupt cost, daemon cost and aggregation in every configuration",
        format!(
            "gcc ≥ {:.1} % miss, ≥ {:.0} cycles/interrupt, ≥ {:.0} cycles/sample, ≤ {:.1}x",
            col(Workload::Gcc, 0, f64::min) * 100.0,
            col(Workload::Gcc, 1, f64::min),
            col(Workload::Gcc, 2, f64::min),
            col(Workload::Gcc, 3, f64::max)
        ),
        gcc_worst,
    );
    let (min_agg, min_w) = results
        .iter()
        .filter(|(w, _)| !matches!(w, Workload::Gcc | Workload::DispatchServer))
        .map(|(w, row)| (row[3], w.name()))
        .min_by(|a, b| a.0.total_cmp(&b.0))
        .expect("aggregating workloads");
    let (dlo, dhi) = (
        col(Workload::DispatchServer, 3, f64::min),
        col(Workload::DispatchServer, 3, f64::max),
    );
    o.claim(
        "table4.aggregation",
        "≥ 10x for every workload but gcc and dispatch-server",
        format!("least {min_agg:.1}x ({min_w}); dispatch-server {dlo:.1}-{dhi:.1}x"),
        min_agg >= 10.0,
    );
    let cheap = col(Workload::AltaVista, 2, f64::max).max(col(Workload::Dss, 2, f64::max));
    let dear = col(Workload::Gcc, 2, f64::min);
    o.claim(
        "table4.aggregators_cheap",
        "altavista and dss daemon cost/sample under 5 % of gcc's",
        format!("at most {cheap:.0} vs gcc's {dear:.0} cycles"),
        cheap < 0.05 * dear,
    );
    o
}

/// Table 5: daemon space overhead — uptime, average/peak daemon memory,
/// and on-disk profile database size — per workload and configuration.
pub fn table5(opts: &ExpOptions, runs: &Runs) -> Outcome {
    let mut o = Outcome::default();
    let n_w = Workload::ALL.len();
    // Each cell writes its own uniquely-named temp database.
    let cells: Vec<_> = PROFILED
        .into_iter()
        .flat_map(|prof| {
            Workload::ALL.into_iter().map(move |w| {
                let db = std::env::temp_dir().join(format!(
                    "dcpi-table5-{}-{}-{}",
                    std::process::id(),
                    w.name(),
                    prof.name()
                ));
                let _ = std::fs::remove_dir_all(&db);
                let ro = RunOptions {
                    db_path: Some(db),
                    ..grid_options(opts, w)
                };
                (w, prof, ro)
            })
        })
        .collect();
    let results = runs.get(cells.iter().cloned());
    for db in cells.iter().filter_map(|(_, _, ro)| ro.db_path.as_ref()) {
        let _ = std::fs::remove_dir_all(db);
    }
    let mut per_cpu = true;
    for (prof, rows) in PROFILED.iter().zip(results.chunks(n_w)) {
        writeln!(o, "Table 5 — configuration `{}`:", prof.name());
        writeln!(
            o,
            "{:<18} {:>14} {:>12} {:>12} {:>12} {:>12}",
            "workload", "uptime (cyc)", "mem (KB)", "peak (KB)", "disk (B)", "drv kern KB"
        );
        for r in rows {
            let w = r.workload;
            let day = r.daemon.as_ref().expect("daemon stats");
            per_cpu &= r.driver_kernel_bytes == 512 * 1024 * w.cpus() as u64;
            writeln!(
                o,
                "{:<18} {:>14} {:>12} {:>12} {:>12} {:>12}",
                w.name(),
                r.cycles,
                day.memory_bytes / 1024,
                day.peak_memory_bytes / 1024,
                r.disk_bytes,
                r.driver_kernel_bytes / 1024,
            );
        }
        writeln!(o);
    }
    writeln!(
        o,
        "paper shapes: profiles are far smaller than their images (ours are"
    );
    writeln!(
        o,
        "bytes: the toy programs have few distinct sampled PCs); the driver"
    );
    writeln!(
        o,
        "holds 512KB per CPU; daemon memory grows with live processes/images."
    );
    o.claim(
        "table5.driver_512kb_per_cpu",
        "driver kernel memory exactly 512 KB per CPU on every row",
        if per_cpu {
            "every row"
        } else {
            "a row differs"
        },
        per_cpu,
    );
    o
}

/// §5.4: the trace-driven hash-table design sweep — associativity 4 vs 6,
/// mod-counter vs swap-to-front replacement, table sizes, and hash
/// functions. The paper found 6-way + swap-to-front reduces overall
/// collection cost by 10–20%.
pub fn table_htsweep(opts: &ExpOptions, runs: &Runs) -> Outcome {
    let mut o = Outcome::default();
    // Log sample traces from workloads with contrasting locality; gcc's
    // distinct PIDs and large text generate the key diversity that makes
    // table design matter (§5.1).
    let cells = [
        (Workload::Gcc, 40),
        (Workload::X11Perf, 40),
        (Workload::Timesharing, 4),
        (Workload::McCalpin(StreamKind::Copy), 8),
    ]
    .map(|(w, scale)| {
        let ro = RunOptions {
            trace_limit: 400_000,
            ..opts.run_options(scale, (2_000, 2_200))
        };
        (w, ProfConfig::Cycles, ro)
    });
    let mut trace = Vec::new();
    for r in runs.get(cells) {
        writeln!(
            o,
            "logged {} samples from {}",
            r.trace.len(),
            r.workload.name()
        );
        trace.extend_from_slice(&r.trace);
    }
    writeln!(o);
    // Our traces are orders of magnitude shorter than a production day,
    // so the capacity-pressure part of the sweep uses proportionally
    // smaller tables alongside the paper's shipped 4096×4 geometry.
    let mut configs = default_sweep();
    for buckets in [64usize, 128, 256] {
        for (assoc, policy) in [
            (4usize, EvictPolicy::ModCounter),
            (6, EvictPolicy::ModCounter),
            (4, EvictPolicy::SwapToFront),
            (6, EvictPolicy::SwapToFront),
        ] {
            let name = match policy {
                EvictPolicy::ModCounter => "mod",
                EvictPolicy::SwapToFront => "s2f",
            };
            configs.push((
                format!("{buckets}x{assoc} {name} mult"),
                DriverConfig {
                    buckets,
                    associativity: assoc,
                    policy,
                    ..DriverConfig::default()
                },
            ));
        }
    }
    let results = sweep(&trace, &configs, CostModel::default());
    writeln!(
        o,
        "{:<22} {:>10} {:>12} {:>12} {:>10}",
        "configuration", "miss rate", "avg cost", "evictions", "vs default"
    );
    let baseline = results
        .iter()
        .find(|r| r.label == "4096x4 mod mult")
        .map_or(1.0, |r| r.avg_cost);
    let mut sorted = results.clone();
    sorted.sort_by(|a, b| a.avg_cost.partial_cmp(&b.avg_cost).expect("finite"));
    for r in &sorted {
        writeln!(
            o,
            "{:<22} {:>9.2}% {:>12.1} {:>12} {:>+9.1}%",
            r.label,
            r.miss_rate * 100.0,
            r.avg_cost,
            r.evictions,
            (r.avg_cost / baseline - 1.0) * 100.0
        );
    }
    writeln!(o);
    writeln!(
        o,
        "paper shape: 6-way and swap-to-front both beat the shipped 4-way"
    );
    writeln!(
        o,
        "mod-counter configuration; combined they reduce cost 10-20%."
    );
    // Pairs of labels differing in one word, e.g. `256x4 mod mult` vs
    // `256x6 mod mult`: (cost of the first, cost of the second).
    let cost = |label: &str| {
        results
            .iter()
            .find(|r| r.label == label)
            .map(|r| r.avg_cost)
    };
    let pairs = |from: &str, to: &str| -> Vec<(f64, f64)> {
        results
            .iter()
            .filter(|r| r.label.contains(from))
            .filter_map(|r| Some((r.avg_cost, cost(&r.label.replace(from, to))?)))
            .collect()
    };
    let assoc = pairs("x4 ", "x6 ");
    o.claim(
        "table_htsweep.six_way_beats_four_way",
        "6-way costs no more than 4-way at every size, policy and hash",
        format!(
            "{}/{} geometries",
            assoc.iter().filter(|(four, six)| six <= four).count(),
            assoc.len()
        ),
        assoc.iter().all(|(four, six)| six <= four),
    );
    let policy = pairs(" mod ", " s2f ");
    let gap = policy
        .iter()
        .map(|(m, s)| (s / m - 1.0).abs() * 100.0)
        .fold(0.0, f64::max);
    o.claim(
        "table_htsweep.policy_ties",
        "swap-to-front within 0.5 % of mod-counter at every geometry",
        format!("at most {gap:.2} % apart over {} geometries", policy.len()),
        gap <= 0.5,
    );
    o
}
