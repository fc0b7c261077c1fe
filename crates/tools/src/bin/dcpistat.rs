//! `dcpistat <obs.json>` — one-shot profiler status from an exported
//! observability snapshot (write one with `profile ... --obs PATH`):
//! sample and drop rates, hash-table behavior, flush latencies, fault
//! counts, and the overhead/sample ledgers. For a fleet server's export
//! the `-- server --` section's `wal N bytes` is the log since the last
//! checkpoint: it falls back to one record after every merge.

use dcpi_obs::Snapshot;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let Some(path) = args.get(1) else {
        eprintln!("usage: dcpistat <obs.json>");
        eprintln!(
            "  (-- server --: `wal N bytes` counts the log since the last checkpoint; \
             it falls after every merge)"
        );
        std::process::exit(2);
    };
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("dcpistat: cannot read {path}: {e}");
            std::process::exit(1);
        }
    };
    let snap = match Snapshot::parse(&text) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("dcpistat: {path} is not an observability export: {e}");
            std::process::exit(1);
        }
    };
    print!("{}", dcpi_tools::dcpistat(&snap));
}
