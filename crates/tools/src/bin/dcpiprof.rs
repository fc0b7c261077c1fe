//! `dcpiprof <db-dir> [--images] [--limit N]` — samples per procedure or
//! per image, from an on-disk profile database (§3.1, Figure 1).
//!
//! `dcpiprof <db-dir> --tree [--min PCT]` — the CYCLES call tree from
//! the database's calling-context sidecars, inclusive counts down the
//! indentation, subtrees below PCT% of the total pruned (default 0.5).

use dcpi_core::cli::run;
use dcpi_core::Event;
use dcpi_tools::{dcpiprof, dcpiprof_images, dcpiprof_tree, load_db, load_stacks};
use std::process::ExitCode;

const USAGE: &str =
    "usage: dcpiprof <db-dir> [--images] [--limit N] | dcpiprof <db-dir> --tree [--min PCT]";

fn main() -> ExitCode {
    run("dcpiprof", USAGE, |mut args| {
        // Each form takes only the flags it reads, so the other form's
        // are left for `finish()` to reject.
        let tree = args.flag("--tree");
        let min_pct = if tree { args.value("--min")? } else { None }.unwrap_or(0.5);
        let by_image = !tree && args.flag("--images");
        let limit = if tree { None } else { args.value("--limit")? }.unwrap_or(30);
        let dir = args.positional("<db-dir>")?;
        args.finish()?;
        let db = load_db(&dir)?;
        let text = if tree {
            dcpiprof_tree(&load_stacks(&dir)?, &db.registry, Event::Cycles, min_pct)
        } else if by_image {
            dcpiprof_images(&db.profiles, &db.registry, Event::IMiss, limit)
        } else {
            dcpiprof(&db.profiles, &db.registry, Event::IMiss, limit)
        };
        print!("{text}");
        Ok(())
    })
}
