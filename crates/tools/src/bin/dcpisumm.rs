//! `dcpisumm <db-dir> <procedure>` — the Figure 4 cycle breakdown for one
//! procedure, from an on-disk database.

use dcpi_core::cli::run;
use dcpi_tools::{analyze_named, dcpisumm};
use std::process::ExitCode;

const USAGE: &str = "usage: dcpisumm <db-dir> <procedure>";

fn main() -> ExitCode {
    run("dcpisumm", USAGE, |mut args| {
        let dir = args.positional("<db-dir>")?;
        let name = args.positional("<procedure>")?;
        args.finish()?;
        print!("{}", dcpisumm(&analyze_named(&dir, &name)?));
        Ok(())
    })
}
