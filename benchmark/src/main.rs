//! The repo's host-time benchmark. See `README.md` for the metric and
//! workload definitions and `../BENCHMARK.json` for the driver's contract.
//!
//! ```text
//! dcpi-benchmark --workload sim|collect|ingest|query [--seed N] [--seconds N] [--trace 0|1]
//! dcpi-benchmark --all [--seed N] [--seconds N] [--traced]
//! dcpi-benchmark --repeat-check [--seed N] [--seconds N]
//! dcpi-benchmark --list | --contract
//! ```
//!
//! A single-workload run prints every metric as `name value unit` and, as
//! its last line, the contract's JSON object; it exits non-zero if any
//! correctness check failed. `--all` and `--repeat-check` run each
//! workload in a child process of its own, so peak memory and the
//! `/proc/self/io` counts belong to one workload. `--list` prints the
//! metric registry and `--contract` the text of `../BENCHMARK.json`.

mod estimator;
mod gen;
mod harness;
mod metrics;
mod results;
mod sys;
mod trace;
mod workloads;

use harness::{Ctx, StageReport};
use metrics::{Better, END_TO_END, LAYERS, RUN_SECONDS, WORKLOADS};
use results::{Metric, RunRecord};
use std::process::ExitCode;
use std::time::Duration;

/// Room for every span of the longest traced run (about 100 K); beyond
/// it spans are counted as dropped and the run fails its self-check.
const SPAN_CAPACITY: usize = 1 << 19;

#[derive(Clone, Debug, PartialEq, Eq)]
enum Mode {
    One(String),
    All,
    RepeatCheck,
    List,
    Contract,
}

#[derive(Clone, Debug)]
struct Args {
    mode: Mode,
    seed: u32,
    seconds: u64,
    traced: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut mode = None;
    let mut args = Args {
        mode: Mode::All,
        seed: 1,
        seconds: RUN_SECONDS,
        traced: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} expects {what}"));
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                if metrics::workload(name).is_none() {
                    return Err(format!("unknown workload {name:?}"));
                }
                mode = Some(Mode::One(name.clone()));
            }
            "--all" => mode = Some(Mode::All),
            "--repeat-check" => mode = Some(Mode::RepeatCheck),
            "--list" => mode = Some(Mode::List),
            "--contract" => mode = Some(Mode::Contract),
            "--traced" => args.traced = true,
            "--trace" => {
                args.traced = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace expects 0 or 1, got {other:?}")),
                }
            }
            "--seed" => {
                let v = value("a number")?;
                args.seed = v.parse().map_err(|_| format!("bad --seed {v:?}"))?;
            }
            "--seconds" => {
                let v = value("a number")?;
                args.seconds = v.parse().map_err(|_| format!("bad --seconds {v:?}"))?;
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    args.mode = mode
        .ok_or("one of --workload NAME, --all, --repeat-check, --list or --contract is required")?;
    Ok(args)
}

/// Runs one workload in this process and returns its record.
fn run_one(name: &str, args: &Args) -> std::io::Result<RunRecord> {
    let scratch = sys::Scratch::create()?;
    let ctx = Ctx {
        seed: args.seed,
        horizon: Duration::from_secs(args.seconds),
        traced: args.traced,
        scratch: &scratch,
    };
    let mut tracer = if args.traced {
        trace::Tracer::with_capacity(SPAN_CAPACITY)
    } else {
        trace::Tracer::off()
    };
    let report: StageReport = match name {
        "sim" => workloads::sim::run(&ctx, &mut tracer),
        "collect" => workloads::collect::run(&ctx, &mut tracer),
        "ingest" => workloads::ingest::run(&ctx, &mut tracer),
        "query" => workloads::query::run(&ctx, &mut tracer),
        other => unreachable!("parse_args admitted {other}"),
    };
    drop(scratch);
    let mut info = report.info;
    let metrics = if args.traced {
        let path = sys::out_dir().join(format!("{name}.trace.json"));
        std::fs::write(&path, trace::to_json(tracer.spans()))?;
        LAYERS
            .iter()
            .map(|l| {
                let measured = report.layers.iter().find(|(n, _)| *n == l.name);
                assert_eq!(
                    measured.is_some(),
                    l.workload == name,
                    "{name} must report exactly its own group; {} is off",
                    l.name
                );
                // 0 = this workload never enters that layer.
                Metric::new(l.name, measured.map_or(0.0, |&(_, v)| v), l.unit)
            })
            .collect()
    } else {
        for (i, s) in report.setups.iter().enumerate() {
            info.push(Metric::new(&format!("setup.{i}"), *s, "s"));
        }
        let setup = estimator::estimate(&report.setups);
        info.push(Metric::new("setup.median", setup.median, "s"));
        let value = |m: &str| match m {
            "setup_s" => setup.fastest,
            "work_per_s" => report.work_per_s,
            "aux_phase_ms" => report.aux_phase_ms,
            "stage_cost" => report.stage_cost,
            "peak_rss_mb" => sys::peak_rss_mb(),
            other => unreachable!("no source for {other}"),
        };
        END_TO_END
            .iter()
            .map(|m| Metric::new(m.name, value(m.name), m.unit))
            .collect()
    };
    info.push(Metric::new(
        "ops_attempted",
        report.attempted as f64,
        "count",
    ));
    info.push(Metric::new("ops_failed", report.failed as f64, "count"));
    Ok(RunRecord {
        workload: name.to_string(),
        seed: args.seed,
        seconds: args.seconds,
        traced: args.traced,
        correct: report.failed == 0,
        attempted: report.attempted.max(1),
        failed: report.failed,
        metrics,
        info,
    })
}

fn print_record(r: &RunRecord) {
    println!(
        "# workload {} seed {} seconds {} traced {}",
        r.workload, r.seed, r.seconds, r.traced
    );
    for m in r.info.iter().chain(&r.metrics) {
        println!("{} {} {}", m.name, m.value, m.unit);
    }
}

/// Runs `name` in a child process and reads back the record it stored in
/// `out/results.json`.
fn run_child(name: &str, args: &Args) -> Result<RunRecord, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = std::process::Command::new(exe)
        .args(["--workload", name])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if args.traced { "1" } else { "0" }])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| e.to_string())?;
    let record = results::load(name, args.traced);
    match record {
        Ok(r) if out.status.success() && r.correct && r.seed == args.seed => Ok(r),
        _ => {
            print!("{}", String::from_utf8_lossy(&out.stdout));
            Err(format!("{name}: run failed ({})", out.status))
        }
    }
}

fn all(args: &Args) -> Result<Vec<RunRecord>, String> {
    WORKLOADS
        .iter()
        .map(|w| {
            let r = run_child(w.name, args)?;
            print_record(&r);
            Ok(r)
        })
        .collect()
}

/// Two full untraced sets of the same build, compared against the
/// benchmark's own bounds. `stage_cost` is a count and must match exactly.
fn repeat_check(args: &Args) -> Result<bool, String> {
    let args = Args {
        traced: false,
        ..args.clone()
    };
    let (first, second) = (all(&args)?, all(&args)?);
    let mut pass = true;
    println!(
        "{:<10} {:<14} {:>16} {:>16} {:>9} {:>7}  verdict",
        "workload", "metric", "set 1", "set 2", "worse by", "bound"
    );
    for (a, b) in first.iter().zip(&second) {
        for (def, (ma, mb)) in END_TO_END.iter().zip(a.metrics.iter().zip(&b.metrics)) {
            assert_eq!((def.name, def.name), (ma.name.as_str(), mb.name.as_str()));
            // Relative worsening of the second set against the first.
            let worse = match def.better {
                Better::Lower => mb.value / ma.value - 1.0,
                Better::Higher => ma.value / mb.value - 1.0,
            };
            let ok = if def.name == "stage_cost" {
                ma.value == mb.value
            } else {
                worse.abs() <= def.bound
            };
            pass &= ok;
            println!(
                "{:<10} {:<14} {:>16.6} {:>16.6} {:>8.2}% {:>6.0}%  {}",
                a.workload,
                def.name,
                ma.value,
                mb.value,
                worse * 100.0,
                def.bound * 100.0,
                if ok { "PASS" } else { "FAIL" }
            );
        }
    }
    Ok(pass)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("dcpi-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let ok = match &args.mode {
        Mode::One(name) => match run_one(name, &args) {
            Ok(record) => {
                print_record(&record);
                if let Err(e) = results::store(record.clone()) {
                    eprintln!("dcpi-benchmark: cannot write results.json: {e}");
                    return ExitCode::FAILURE;
                }
                println!("{}", record.contract_line());
                record.correct
            }
            Err(e) => {
                eprintln!("dcpi-benchmark: {e}");
                false
            }
        },
        Mode::All => all(&args).map(|_| true).unwrap_or_else(|e| {
            eprintln!("dcpi-benchmark: {e}");
            false
        }),
        Mode::RepeatCheck => repeat_check(&args).unwrap_or_else(|e| {
            eprintln!("dcpi-benchmark: {e}");
            false
        }),
        Mode::List => {
            print!("{}", metrics::describe());
            true
        }
        Mode::Contract => {
            print!("{}", metrics::contract_json());
            true
        }
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_driver_command_line() {
        let a = parse_args(&argv("--workload ingest --seed 42 --seconds 7 --trace 1")).unwrap();
        assert_eq!(a.mode, Mode::One("ingest".into()));
        assert_eq!((a.seed, a.seconds, a.traced), (42, 7, true));
        let a = parse_args(&argv("--workload sim --trace 0")).unwrap();
        assert_eq!((a.seed, a.seconds, a.traced), (1, RUN_SECONDS, false));
        assert!(parse_args(&argv("--all --traced")).unwrap().traced);
        assert_eq!(
            parse_args(&argv("--repeat-check")).unwrap().mode,
            Mode::RepeatCheck
        );
    }

    #[test]
    fn rejects_what_it_does_not_understand() {
        for bad in [
            "",
            "--workload nope",
            "--workload",
            "--workload sim --trace 2",
            "--workload sim --seed x",
            "--workload sim --bogus",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad:?}");
        }
    }
}
