//! `dcpitrace <obs.json> [--merge <other.json>] [--epoch A:S]
//! [--component C] [--json]` — dump the cycle-stamped trace rings of an
//! exported observability snapshot as a compact timeline (or JSON),
//! optionally restricted to one component (`machine`, `driver`,
//! `daemon`, `session`, `faults`, `analyze`, `server`).
//!
//! `--merge` interleaves a second export (e.g. the server side of the
//! same fleet run) into one cycle-ordered timeline, labeling each line
//! with its source. `--epoch agent:seq` filters the timeline down to
//! one sealed epoch's span — its seal → send → journal/ack → visible
//! journey through the pipeline. The filters compose with each other
//! and with `--merge`.

use dcpi_core::cli::{run, Stop};
use dcpi_tools::{dcpitrace, dcpitrace_json, load_snapshot, Filter};
use std::process::ExitCode;

const USAGE: &str = "usage: dcpitrace <obs.json> [--merge <other.json>] [--epoch A:S] \
     [--component C] [--json]";

fn main() -> ExitCode {
    run("dcpitrace", USAGE, |mut args| {
        let component = args.text("--component")?;
        let merge = args.text("--merge")?;
        let epoch = match args.text("--epoch")? {
            None => None,
            Some(spec) => Some(
                spec.split_once(':')
                    .and_then(|(a, s)| Some((a.parse().ok()?, s.parse().ok()?)))
                    .ok_or_else(|| Stop::Usage(format!("cannot parse --epoch `{spec}`")))?,
            ),
        };
        let json = args.flag("--json");
        let path = args.positional("<obs.json>")?;
        args.finish()?;
        let snap = load_snapshot(&path)?;
        let other = merge.as_deref().map(load_snapshot).transpose()?;
        let snaps = match &other {
            Some(o) => vec![("a", &snap), ("b", o)],
            None => vec![("", &snap)],
        };
        let filter = Filter {
            component: component.as_deref(),
            epoch,
        };
        let out = if json {
            dcpitrace_json(&snaps, filter)
        } else {
            dcpitrace(&snaps, filter)
        };
        print!("{out}");
        Ok(())
    })
}
