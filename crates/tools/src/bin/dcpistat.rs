//! `dcpistat <obs.json>` — one-shot profiler status from an exported
//! observability snapshot (write one with `profile ... --obs PATH`):
//! sample and drop rates, hash-table behavior, flush latencies, fault
//! counts, and the overhead/sample ledgers. For a fleet server's export
//! the `-- server --` section's `wal N bytes` is the log since the last
//! checkpoint: it falls back to one record after every merge.

use dcpi_core::cli::run;
use dcpi_tools::{dcpistat, load_snapshot};
use std::process::ExitCode;

const USAGE: &str = "usage: dcpistat <obs.json>\n  \
     (-- server --: `wal N bytes` counts the log since the last checkpoint; \
     it falls after every merge)";

fn main() -> ExitCode {
    run("dcpistat", USAGE, |mut args| {
        let path = args.positional("<obs.json>")?;
        args.finish()?;
        print!("{}", dcpistat(&load_snapshot(&path)?));
        Ok(())
    })
}
