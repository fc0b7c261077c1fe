//! `dcpicfg <db-dir> <procedure>` — emit an annotated control-flow graph
//! in Graphviz DOT format (render with `dot -Tsvg`).

use dcpi_core::cli::run;
use dcpi_tools::{analyze_named, dcpicfg};
use std::process::ExitCode;

const USAGE: &str = "usage: dcpicfg <db-dir> <procedure>";

fn main() -> ExitCode {
    run("dcpicfg", USAGE, |mut args| {
        let dir = args.positional("<db-dir>")?;
        let name = args.positional("<procedure>")?;
        args.finish()?;
        print!("{}", dcpicfg(&analyze_named(&dir, &name)?));
        Ok(())
    })
}
