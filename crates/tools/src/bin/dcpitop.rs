//! `dcpitop <obs.json> [--watch [seconds]]` — fleet-at-a-glance
//! dashboard from a server-side observability export. One-shot by
//! default; `--watch` clears the screen and repaints from a fresh read
//! of the export every interval (default 2s) until interrupted.
//!
//! `dcpitop --flame <db-dir> [title]` — emit a speedscope flamegraph
//! document (JSON on stdout) for the CYCLES calling-context profile of
//! a database directory; open it at <https://www.speedscope.app>.

use dcpi_core::cli::{parse, run, Stop};
use dcpi_tools::{dcpitop, dcpitop_flame, load_db, load_snapshot, load_stacks};
use std::process::ExitCode;

const USAGE: &str =
    "usage: dcpitop <obs.json> [--watch [seconds]] | dcpitop --flame <db-dir> [title]";

fn flame(dir: &str, title: &str) -> Result<String, Stop> {
    let db = load_db(dir)?;
    let stacks = load_stacks(dir)?;
    if stacks.is_empty() {
        return Err(Stop::Failed(format!(
            "{dir} has no calling-context data: the run was collected without stack walking"
        )));
    }
    let event = dcpi_core::Event::Cycles;
    Ok(dcpitop_flame(&stacks, &db.registry, event, title))
}

fn main() -> ExitCode {
    run("dcpitop", USAGE, |mut args| {
        if args.flag("--flame") {
            let dir = args.positional("<db-dir>")?;
            let title = args.optional();
            args.finish()?;
            print!("{}", flame(&dir, title.as_deref().unwrap_or("dcpi"))?);
            return Ok(());
        }
        let watch = args.flag("--watch");
        let path = args.positional("<obs.json>")?;
        // The interval is optional: the word after the path, if any.
        let secs = match watch.then(|| args.optional()).flatten() {
            Some(word) => parse::<u64>("--watch seconds", &word)?.max(1),
            None => 2,
        };
        args.finish()?;
        let frame = || load_snapshot(&path).map(|snap| dcpitop(&snap));
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
                Err(e) => println!("\x1b[2J\x1b[Hdcpitop: {e}"),
            }
            std::thread::sleep(std::time::Duration::from_secs(secs));
        }
    })
}
