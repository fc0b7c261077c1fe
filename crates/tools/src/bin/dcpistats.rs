//! `dcpistats <db-dir>...` — per-procedure variance across several
//! database directories (one per run), sorted by normalized range
//! (§3.3, Figure 3).

use dcpi_core::cli::{run, Stop};
use dcpi_core::Event;
use dcpi_tools::{dcpistats, load_db, ImageRegistry};
use std::process::ExitCode;

const USAGE: &str = "usage: dcpistats <db-dir> <db-dir> [more...]";

fn main() -> ExitCode {
    run("dcpistats", USAGE, |mut args| {
        let dirs: Vec<String> = std::iter::from_fn(|| args.optional()).collect();
        args.finish()?;
        if dirs.len() < 2 {
            return Err(Stop::Usage("variance needs at least two <db-dir>".into()));
        }
        let mut sets = Vec::new();
        let mut registry = ImageRegistry::new();
        for dir in &dirs {
            let db = load_db(dir).map_err(|e| format!("{dir}: {e}"))?;
            registry.extend(db.registry.iter().map(|(id, img)| (id, img.clone())));
            sets.push(db.profiles);
        }
        print!("{}", dcpistats(&sets, &registry, Event::Cycles, 30));
        Ok(())
    })
}
