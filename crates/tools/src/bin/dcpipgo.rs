//! `dcpipgo <workload> <workdir> [options]` — run the full PGO loop on a
//! Table 2 workload: profile it, rewrite its hottest image from the
//! exported estimates, prove the rewrite by translation validation,
//! re-measure, and write every artifact (`old.img`, `new.img`,
//! `map.json`, `estimates.json`, `delta.json`) into the working
//! directory.
//!
//! Options:
//! * `--seed N` — master seed (default 1).
//! * `--scale N` — work multiplier (default 1).
//! * `--period N` — sampling period low bound; high bound is `N + N/10`
//!   (default 2000 — dense, for estimate quality on short runs).
//! * `--min-samples N` — per-procedure analysis gate (default 25).
//! * `--min-speedup PCT` — exit nonzero below this speedup (default 0).
//! * `--json` — print the delta JSON instead of the report.
//!
//! Exits nonzero when the rewrite is not architecturally equivalent,
//! translation validation did not prove it, or the speedup misses the
//! floor.

use dcpi_core::cli::{run, Stop};
use dcpi_tools::dcpipgo::{delta_json, parse_workload, render, write_artifacts};
use dcpi_workloads::{pgo_workload, RunOptions};
use std::path::Path;
use std::process::ExitCode;

const USAGE: &str = "usage: dcpipgo <workload> <workdir> [--seed N] [--scale N] [--period N] \
     [--min-samples N] [--min-speedup PCT] [--json]";

fn main() -> ExitCode {
    run("dcpipgo", USAGE, |mut args| {
        let defaults = RunOptions::default();
        let period: u64 = args.value("--period")?.unwrap_or(2_000);
        let opts = RunOptions {
            seed: args.value("--seed")?.unwrap_or(defaults.seed),
            scale: args.value("--scale")?.unwrap_or(defaults.scale),
            period: (period, period + period / 10),
            ..defaults
        };
        let min_samples = args.value("--min-samples")?.unwrap_or(25);
        let min_speedup: f64 = args.value("--min-speedup")?.unwrap_or(0.0);
        let json = args.flag("--json");
        let wname = args.positional("<workload>")?;
        let workdir = args.positional("<workdir>")?;
        args.finish()?;
        let w = parse_workload(&wname)
            .ok_or_else(|| Stop::Usage(format!("unknown workload `{wname}`")))?;

        let out = pgo_workload(w, &opts, min_samples)?;
        write_artifacts(Path::new(&workdir), &out)?;
        if json {
            print!("{}", delta_json(&out));
        } else {
            print!("{}", render(&out));
        }
        if !out.equivalent {
            return Err("rewritten image is NOT architecturally equivalent".into());
        }
        if !out.report.validated {
            return Err("translation validation did NOT prove the rewrite".into());
        }
        if out.speedup_pct() < min_speedup {
            let got = out.speedup_pct();
            return Err(format!("speedup {got:.2}% below the required {min_speedup:.2}%").into());
        }
        Ok(())
    })
}
