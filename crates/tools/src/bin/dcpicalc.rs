//! `dcpicalc <db-dir> <procedure>` — instruction-level CPI and stall
//! bubbles for one procedure, from an on-disk database (§3.2, Figure 2).

use dcpi_core::cli::run;
use dcpi_tools::{analyze_named, dcpicalc};
use std::process::ExitCode;

const USAGE: &str = "usage: dcpicalc <db-dir> <procedure>";

fn main() -> ExitCode {
    run("dcpicalc", USAGE, |mut args| {
        let dir = args.positional("<db-dir>")?;
        let name = args.positional("<procedure>")?;
        args.finish()?;
        let pa = analyze_named(&dir, &name)?;
        print!("{}", dcpicalc(&pa, dcpi_machine::os::MAIN_BASE.0));
        Ok(())
    })
}
