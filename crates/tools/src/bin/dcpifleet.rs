//! `dcpifleet run <root> [--agents N] [--seed S] [--obs <out.json>]` —
//! drive a simulated fleet (agents, faulty network, ingestion server)
//! to quiesce, leaving `wal.log`, `db/`, and `fleet.json` under the
//! root. Prints the conservation report; exits 1 if the fleet-wide
//! sample-conservation identity failed, 2 on usage errors.
//!
//! `dcpifleet top <root> [n]` — fleet-wide top-N images by samples.
//!
//! `dcpifleet agents <root>` — per-agent upload accounting, re-derived
//! from the server WAL.
//!
//! `dcpifleet image <root> <image-id>` — one image's per-event totals
//! across the fleet.
//!
//! `--obs <out.json>` on `run` exports the observability snapshot
//! (server counters, upload/ack/merge/replay trace spans) for
//! `dcpistat` / `dcpitrace`.

use dcpi_core::cli::{parse, run, Args, Stop};
use dcpi_obs::{Obs, ObsConfig};
use dcpi_server::fleet::{run_fleet, FleetConfig};
use dcpi_tools::{dcpifleet_agents, dcpifleet_image, dcpifleet_top};
use std::path::Path;
use std::process::ExitCode;

const USAGE: &str = "usage: dcpifleet run <root> [--agents N] [--seed S] [--obs <out.json>] \
     | dcpifleet top <root> [n] | dcpifleet agents <root> | dcpifleet image <root> <image-id>";

fn run_cmd(mut args: Args) -> Result<(), Stop> {
    let agents = args.value("--agents")?.unwrap_or(100);
    let seed = args.value("--seed")?.unwrap_or(1);
    let obs_out = args.text("--obs")?;
    let root = args.positional("<root>")?;
    args.finish()?;
    let cfg = FleetConfig::new(&root, agents, seed);
    let obs = if obs_out.is_some() {
        // Big rings: a 100-agent chaos run seals hundreds of epochs and
        // every epoch's span is several events, so the default ring
        // capacity would overwrite most of the pipeline trace that
        // `dcpicheck obs` and `dcpitrace --merge` want to see.
        Obs::new(&ObsConfig {
            ring_capacity: 1 << 16,
            ..ObsConfig::on()
        })
    } else {
        Obs::default()
    };
    let mut report = run_fleet(&cfg, &obs)?;
    if let (Some(path), Some(mut snap)) = (obs_out, report.obs.take()) {
        snap.meta.insert("tool".to_owned(), "dcpifleet".to_owned());
        snap.meta.insert("seed".to_owned(), seed.to_string());
        snap.meta.insert("agents".to_owned(), agents.to_string());
        std::fs::write(&path, snap.to_json()).map_err(|e| format!("writing {path}: {e}"))?;
    }
    println!(
        "fleet: {} agent(s), {} epoch(s) sealed ({} tombstones), \
         {} tick(s) to quiesce",
        report.agents, report.epochs_sealed, report.tombstones, report.ticks
    );
    println!(
        "chaos: {} agent crash(es), {} server crash(es), net \
         drop/dup/reorder/trunc/stall/part = {}/{}/{}/{}/{}/{}",
        report.agent_crashes,
        report.server_crashes,
        report.net_stats.dropped,
        report.net_stats.duplicated,
        report.net_stats.reordered,
        report.net_stats.truncated,
        report.net_stats.stalled,
        report.net_stats.partitioned,
    );
    println!(
        "lag: p50/p95/p99/max = {}/{}/{}/{} tick(s) over {} epoch(s)",
        report.lag.p50, report.lag.p95, report.lag.p99, report.lag.max, report.lag.samples,
    );
    println!("{}", report.ledger.render());
    println!("report: {}", Path::new(&root).join("fleet.json").display());
    if report.conserves() {
        Ok(())
    } else {
        Err("fleet-wide sample conservation FAILED".into())
    }
}

fn main() -> ExitCode {
    run("dcpifleet", USAGE, |mut args| {
        // The subcommand is the first word; only `run` has flags.
        let cmd = args.positional("a subcommand")?;
        if cmd == "run" {
            return run_cmd(args);
        }
        let root = args.positional("<root>")?;
        let root = Path::new(&root);
        let out = match cmd.as_str() {
            "top" => {
                let n = args.optional().map_or(Ok(10), |w| parse("[n]", &w))?;
                args.finish()?;
                dcpifleet_top(root, n)
            }
            "agents" => {
                args.finish()?;
                dcpifleet_agents(root)
            }
            "image" => {
                let id = parse("<image-id>", &args.positional("<image-id>")?)?;
                args.finish()?;
                dcpifleet_image(root, id)
            }
            _ => return Err(Stop::Usage(format!("unknown subcommand `{cmd}`"))),
        };
        print!("{}", out?);
        Ok(())
    })
}
