//! Measures simulator throughput (cycles simulated per wall second).
//! Takes no arguments: any word on the command line is exit 2, and
//! nothing is simulated.

use dcpi_core::cli;
use dcpi_workloads::programs::StreamKind;
use dcpi_workloads::{run_workload, ProfConfig, RunOptions, Workload};
use std::process::ExitCode;
use std::time::Instant;

fn main() -> ExitCode {
    cli::run("speedtest", "usage: speedtest", |args| {
        args.finish()?;
        for (w, scale) in [
            (Workload::McCalpin(StreamKind::Copy), 8),
            (Workload::Gcc, 8),
            (Workload::Wave5, 4),
        ] {
            let t = Instant::now();
            let ro = RunOptions {
                scale,
                period: (20_000, 21_600),
                ..RunOptions::default()
            };
            let r = run_workload(w, ProfConfig::Cycles, &ro);
            let dt = t.elapsed().as_secs_f64();
            println!(
                "{:<18} scale {scale}: {} cycles, {} samples, {} retired in {dt:.2}s = {:.1}M cyc/s",
                w.name(),
                r.cycles,
                r.samples,
                r.retired,
                r.cycles as f64 / dt / 1e6
            );
        }
        Ok(())
    })
}
