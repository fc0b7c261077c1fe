//! `dcpidiff <db-before> <db-after>` — per-procedure share changes
//! between two profiles of the same program (§3's comparison tool).
//!
//! `dcpidiff --pgo <db-before> <db-after>` — compare a pre-optimization
//! profile with a profile of the PGO-rewritten program: per-procedure
//! CPI and dominant stall culprits, paired by procedure name.

use dcpi_core::cli::run;
use dcpi_core::Event;
use dcpi_tools::{dcpidiff, dcpidiff_pgo, load_db, ImageRegistry};
use std::process::ExitCode;

const USAGE: &str = "usage: dcpidiff [--pgo] <db-before> <db-after>";

fn main() -> ExitCode {
    run("dcpidiff", USAGE, |mut args| {
        let pgo = args.flag("--pgo");
        let before = args.positional("<db-before>")?;
        let after = args.positional("<db-after>")?;
        args.finish()?;
        let b = load_db(before)?;
        let a = load_db(after)?;
        let text = if pgo {
            dcpidiff_pgo(
                (&b.profiles, &b.registry),
                (&a.profiles, &a.registry),
                25,
                30,
            )
        } else {
            let both = b.registry.iter().chain(a.registry.iter());
            let registry: ImageRegistry = both.map(|(id, img)| (id, img.clone())).collect();
            dcpidiff(&b.profiles, &a.profiles, &registry, Event::Cycles, 30)
        };
        print!("{text}");
        Ok(())
    })
}
