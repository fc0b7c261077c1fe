//! `dcpitop --flame <db-dir> [title]` — emit a speedscope flamegraph
//! document (JSON on stdout) for the CYCLES calling-context profile of
//! a database directory; open it at <https://www.speedscope.app>.
//!
//! An observability export (`obs.json`) is rendered by `dcpistat`,
//! once or with `--watch`; `dcpitop` given one is a usage error.

use dcpi_core::cli::{run, Stop};
use dcpi_tools::{dcpitop_flame, load_db, load_stacks};
use std::process::ExitCode;

const USAGE: &str = "usage: dcpitop --flame <db-dir> [title]\n  \
     (an obs.json export is rendered by `dcpistat <obs.json> [--watch [seconds]]`)";

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
        if !args.flag("--flame") {
            return Err(Stop::Usage(
                "`--flame` is dcpitop's one mode; `dcpistat` renders an obs export".to_owned(),
            ));
        }
        let dir = args.positional("<db-dir>")?;
        let title = args.optional();
        args.finish()?;
        print!("{}", flame(&dir, title.as_deref().unwrap_or("dcpi"))?);
        Ok(())
    })
}
