//! Runs experiments from the registry by name, or all of them, printing
//! each one's text under a `# experiment <name>` line. A claim that fails
//! is named on stderr with its expected and actual values, and exits 1;
//! so does, under `--check`, any line that moved from the golden.

use dcpi_bench::{check_golden, golden_path, header, Invocation, USAGE};
use dcpi_core::cli::{self, Stop};
use std::process::ExitCode;

fn main() -> ExitCode {
    cli::run("experiments", USAGE, |args| {
        let inv = Invocation::parse(args)?;
        let mut ran = Vec::new();
        let mut failed = false;
        for e in &inv.selected {
            let out = inv.run(e);
            print!("{}{}", header(e.name), out.text);
            for c in out.claims.iter().filter(|c| !c.holds) {
                eprintln!(
                    "experiments: {}: claim {} failed: expected {}, actual {}",
                    e.name, c.name, c.expected, c.actual
                );
                failed = true;
            }
            ran.push((e.name, out.text));
        }
        if inv.check {
            for moved in check_golden(&golden_path(), &ran)? {
                eprintln!("experiments: {moved}");
                failed = true;
            }
        }
        if failed {
            Err(Stop::Found)
        } else {
            Ok(())
        }
    })
}
