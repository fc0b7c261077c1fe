//! `profile <workload> <db-dir> [--seed N] [--scale N]
//! [--config base|cycles|default|mux] [--dispatch classic|superblock]
//! [--stacks] [--obs PATH] [--quiet] [--json]` — runs a named workload
//! under continuous profiling and writes the profile database (with
//! saved images) that the dcpi* tools consume. With `--obs PATH` the
//! run's observability snapshot (metrics, trace rings, ledgers) is
//! exported as JSON for `dcpistat`, `dcpitrace`, and `dcpicheck obs`.
//! `--dispatch` selects the execution core (CI diffs the two databases
//! to prove the superblock path changes nothing observable). `--stacks`
//! walks the call stack at every sample, writing per-epoch
//! calling-context sidecars for `dcpiprof --tree`, `dcpitop --flame`,
//! and `dcpicheck stacks`.

use dcpi_core::cli::{run, Stop};
use dcpi_machine::DispatchMode;
use dcpi_obs::Reporter;
use dcpi_workloads::{run_workload, ProfConfig, RunOptions, Workload};
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut usage = "usage: profile <workload> <db-dir> [--seed N] [--scale N] [--config CFG] \
         [--dispatch classic|superblock] [--stacks] [--obs PATH] [--quiet] [--json]\nworkloads:"
        .to_owned();
    for w in Workload::ALL {
        usage += &format!("\n  {}", w.name());
    }
    usage += "\nconfigs: cycles (default), default, mux, base";
    run("profile", &usage, |mut args| {
        let seed = args.value("--seed")?;
        let scale: u32 = args.value("--scale")?.unwrap_or(1);
        let config = match args.text("--config")? {
            None => ProfConfig::Cycles,
            Some(name) => ProfConfig::ALL
                .into_iter()
                .find(|c| c.name() == name)
                .ok_or_else(|| Stop::Usage(format!("unknown config `{name}`")))?,
        };
        let dispatch = match args.text("--dispatch")?.as_deref() {
            None => DispatchMode::default(),
            Some("classic") => DispatchMode::Classic,
            Some("superblock") => DispatchMode::Superblock,
            Some(other) => return Err(Stop::Usage(format!("unknown dispatch `{other}`"))),
        };
        let obs_path = args.text("--obs")?;
        let stack_walk = args.flag("--stacks");
        let rep = Reporter::new(args.flag("--quiet"), args.flag("--json"));
        let name = args.positional("<workload>")?;
        let dir = args.positional("<db-dir>")?;
        args.finish()?;
        let workload = Workload::ALL
            .into_iter()
            .find(|w| w.name() == name)
            .ok_or_else(|| Stop::Usage(format!("unknown workload `{name}`")))?;
        let db_path = std::path::PathBuf::from(&dir);
        if db_path.exists() {
            return Err(format!("{dir} already exists; choose a fresh directory").into());
        }
        let defaults = RunOptions::default();
        let opts = RunOptions {
            seed: seed.unwrap_or(defaults.seed),
            scale: workload.default_scale() * scale,
            period: (20_000, 21_600),
            db_path: Some(db_path),
            obs: obs_path.is_some(),
            dispatch,
            stack_walk,
            ..defaults
        };
        let r = run_workload(workload, config, &opts);
        if config == ProfConfig::Base {
            // Base disables monitoring entirely: no samples, no database.
            rep.record(
                "profile.base",
                &[
                    ("workload", (&workload.name()).into()),
                    ("cycles", r.cycles.into()),
                ],
            );
            return Ok(());
        }
        rep.record(
            "profile.run",
            &[
                ("workload", (&workload.name()).into()),
                ("config", config.name().into()),
                ("cycles", r.cycles.into()),
                ("samples", r.samples.into()),
                ("db_bytes", r.disk_bytes.into()),
                ("db", (&dir).into()),
            ],
        );
        if opts.stack_walk {
            rep.record(
                "profile.stacks",
                &[
                    ("stack_samples", r.stacks.total().into()),
                    ("contexts", r.stacks.table.len().into()),
                ],
            );
        }
        if let Some(l) = r.ledger {
            rep.status(&l.render());
        }
        if let Some(oh) = r.overhead {
            rep.status(&oh.render());
        }
        if let Some(path) = obs_path {
            let snap = r.obs.expect("obs snapshot requested");
            std::fs::write(&path, snap.to_json())
                .map_err(|e| format!("cannot write {path}: {e}"))?;
            rep.record("profile.obs", &[("path", (&path).into())]);
        }
        if r.samples == 0 {
            rep.warn("no samples collected; increase --scale");
        }
        Ok(())
    })
}
