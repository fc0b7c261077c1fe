//! `dcpistat <obs.json> [--watch [seconds]]` — profiler status from an
//! exported observability snapshot (write one with `profile ... --obs
//! PATH` or `dcpifleet run ... --obs PATH`): sample and drop rates,
//! hash-table behavior, flush latencies, fault counts, the
//! overhead/sample ledgers, and for a fleet server's export the
//! ingestion pipeline and the run's ingest lag. One-shot by default;
//! `--watch` clears the screen and repaints from a fresh read of the
//! export every interval (default 2s) until interrupted. The `-- server
//! --` section's `wal N bytes` is the log since the last checkpoint: it
//! falls back to one record after every merge.

use dcpi_core::cli::{parse, run};
use dcpi_tools::{dcpistat, load_snapshot};
use std::process::ExitCode;

const USAGE: &str = "usage: dcpistat <obs.json> [--watch [seconds]]\n  \
     (-- server --: `wal N bytes` counts the log since the last checkpoint; \
     it falls after every merge)";

fn main() -> ExitCode {
    run("dcpistat", USAGE, |mut args| {
        let watch = args.flag("--watch");
        let path = args.positional("<obs.json>")?;
        // The interval is optional: the word after the path, if any.
        let secs = match watch.then(|| args.optional()).flatten() {
            Some(word) => parse::<u64>("--watch seconds", &word)?.max(1),
            None => 2,
        };
        args.finish()?;
        let frame = || load_snapshot(&path).map(|snap| dcpistat(&snap));
        if !watch {
            print!("{}", frame()?);
            return Ok(());
        }
        loop {
            // Clear screen + home, then repaint; a vanished or
            // half-written export renders as a note, not an exit, so
            // the watch survives the producer rewriting the file.
            match frame() {
                Ok(out) => print!("\x1b[2J\x1b[H{out}"),
                Err(e) => println!("\x1b[2J\x1b[Hdcpistat: {e}"),
            }
            std::thread::sleep(std::time::Duration::from_secs(secs));
        }
    })
}
