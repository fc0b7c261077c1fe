//! `dcpicheck <db-dir>` — static analysis and invariant verification
//! over every image in a profile database.
//!
//! `dcpicheck db <db-dir>` — audit the on-disk database itself: profile
//! file checksums, epoch directory structure, stale `.tmp` leftovers,
//! quarantined files, and image-name records.
//!
//! `dcpicheck obs <obs.json>` — audit an exported observability
//! snapshot: monotonic cycle stamps, ring overwrite accounting, span
//! pairing, epoch trace chains and lags, time-series ticks, sample-ledger
//! conservation, and the overhead fraction against the paper's band.
//!
//! `dcpicheck dataflow <image>` — run only the dataflow lint family over
//! one serialized image: dead stores, uninitialized reads, constant
//! branches, and stack-discipline violations.
//!
//! `dcpicheck tv <old.img> <new.img> <map.json>` — translation
//! validation, the static check of a PGO rewrite: symbolically prove
//! the rewrite equivalent to the original, segment by segment, without
//! executing either image.
//!
//! `dcpicheck fleet <server-root>` — audit a fleet server root: WAL
//! record structure, per-agent upload-sequence contiguity, merge-intent
//! vs database agreement, and fleet-wide sample-conservation over the
//! journaled ledger deltas (cross-checked against `fleet.json`).
//!
//! `dcpicheck stacks <db-dir>` — audit the calling-context sidecars:
//! every `stacks.dcst` must decode, intern bijectively, and build call
//! trees whose inclusive totals conserve; the merged profile must
//! export a schema-clean speedscope document. Stack-vs-flat total skew
//! is reported at warning severity.
//!
//! `--json` switches any form to machine-readable output. All forms
//! exit 0 when clean, 1 when any error-severity diagnostic is found, and
//! 2 on usage errors — before anything is audited.

use dcpi_check::Report;
use dcpi_core::cli::{run, Stop};
use dcpi_tools::{
    dcpicheck_dataflow, dcpicheck_db, dcpicheck_obs, dcpicheck_report, dcpicheck_stacks,
    dcpicheck_tv, load_db,
};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: dcpicheck <db-dir> | dcpicheck db <db-dir> | dcpicheck obs <obs.json> \
     | dcpicheck dataflow <image> | dcpicheck tv <old.img> <new.img> <map.json> \
     | dcpicheck fleet <server-root> | dcpicheck stacks <db-dir>  [--json]";

fn main() -> ExitCode {
    run("dcpicheck", USAGE, |mut args| {
        let json = args.flag("--json");
        let first = args.positional("<db-dir> or a subcommand")?;
        // Every operand of the subcommand is taken, and the command line
        // finished, before anything is audited.
        let operands: &[&str] = match first.as_str() {
            "db" | "stacks" => &["<db-dir>"],
            "fleet" => &["<server-root>"],
            "obs" => &["<obs.json>"],
            "dataflow" => &["<image>"],
            "tv" => &["<old.img>", "<new.img>", "<map.json>"],
            _ => &[],
        };
        let mut paths = Vec::new();
        for what in operands {
            paths.push(PathBuf::from(args.positional(what)?));
        }
        args.finish()?;
        let report = match (first.as_str(), paths.as_slice()) {
            // `tv` carries per-segment tallies alongside the report.
            ("tv", [old, new, map]) => {
                let tv = dcpicheck_tv(old, new, map);
                let out = if json { tv.to_json() } else { tv.render() };
                print!("{out}");
                return verdict(&tv.report);
            }
            ("db", [dir]) => dcpicheck_db(dir),
            ("stacks", [dir]) => dcpicheck_stacks(dir),
            ("fleet", [root]) => dcpi_server::check_fleet(root),
            ("obs", [path]) => dcpicheck_obs(path),
            ("dataflow", [image]) => dcpicheck_dataflow(image),
            (dir, _) => {
                let db = load_db(dir)?;
                dcpicheck_report(&db.profiles, &db.registry)
            }
        };
        let out = if json {
            report.to_json()
        } else {
            report.render()
        };
        print!("{out}");
        verdict(&report)
    })
}

/// Exit 1 when the audit found an error.
fn verdict(report: &Report) -> Result<(), Stop> {
    if report.is_clean() {
        Ok(())
    } else {
        Err(Stop::Found)
    }
}
