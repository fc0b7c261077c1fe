//! The metric and workload registry: one definition of every name the
//! benchmark prints. `../BENCHMARK.json` is [`contract_json`]'s output, and
//! a test fails if the file and the registry drift.
//!
//! The benchmark contract wants every workload to report every end-to-end
//! metric, so the five end-to-end metrics are stage-generic and their
//! per-stage meaning (the names ISSUE 11 used) is fixed per workload in
//! [`WORKLOADS`]. It likewise wants every traced run to report every
//! per-layer metric, so a traced run prints its own group as measured and
//! `0` for the layers its workload never enters.

/// Direction in which a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Larger is better.
    Higher,
    /// Smaller is better.
    Lower,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    #[must_use]
    pub fn word(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// An end-to-end metric.
#[derive(Clone, Copy, Debug)]
pub struct EndToEnd {
    /// Name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Share of the parent's median by which it may worsen.
    pub bound: f64,
}

/// The end-to-end metrics, reported by every workload's untraced run.
/// Bounds were chosen from the spreads in README.md ("Measured spread").
pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "work_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "aux_phase_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "stage_cost",
        unit: "ratio",
        better: Better::Lower,
        bound: 0.10,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.20,
    },
];

/// A workload and what the stage-generic metrics mean on it.
#[derive(Clone, Copy, Debug)]
pub struct WorkloadDef {
    /// Name.
    pub name: &'static str,
    /// One line: why this workload exists.
    pub why: &'static str,
    /// The unit of work `work_per_s` counts here, and ISSUE 11's name.
    pub work: &'static str,
    /// The second code path `aux_phase_ms` times here.
    pub aux: &'static str,
    /// The deterministic count `stage_cost` reports here.
    pub cost: &'static str,
}

/// The four workloads, in pipeline order.
pub const WORKLOADS: [WorkloadDef; 4] = [
    WorkloadDef {
        name: "sim",
        why: "five programs under cycles-only profiling; dcpi-machine and dcpi-isa do nearly all the work, collection almost none, so a dispatch or cache-model speed-up shows here and nowhere else",
        work: "simulated instructions retired (sim_minsn_per_s x 1e6)",
        aux: "one dss run: 8 simulated CPUs on one host thread",
        cost: "sim_overhead_pct: handler + daemon cycles as % of simulated cycles (OverheadLedger)",
    },
    WorkloadDef {
        name: "collect",
        why: "recorded x11perf and gcc sample traces replayed through driver, daemon and read-modify-write db merge with no simulator; the hash table, attribution and ProfileDb::merge do the work",
        work: "samples pushed driver -> daemon -> on-disk db (collect_msamples_per_s x 1e6)",
        aux: "recorded call stacks through StackProfile::record -> to_bytes",
        cost: "bytes written to the db per sample replayed (wchar / samples)",
    },
    WorkloadDef {
        name: "ingest",
        why: "16 uploaders x 4 epochs pushed loss-free into one IngestServer, then reopen; the write path: DCPF codec, uploader, WAL and fresh-epoch db merge with one fsync per file do the work",
        work: "epochs acked and visible in the fleet db (ingest_epochs_per_s)",
        aux: "recover_ms: IngestServer::reopen on the rep's final root (full WAL history)",
        cost: "ingest_write_amp: bytes written (wchar) per encoded upload-frame byte",
    },
    WorkloadDef {
        name: "query",
        why: "read side of the same stores: load_db, dcpiprof, analysis, dcpicalc, dcpisumm, call trees over four machine dbs, then dcpifleet over a 16-epoch fleet db; a store deferring work to readers loses here",
        work: "procedures loaded, analysed and rendered (analyze_procs_per_s)",
        aux: "fleet_query_ms: dcpifleet_top + dcpifleet_image over the many-epoch fleet db",
        cost: "fleet read amplification: bytes read (rchar) by one fleet session per byte of live profile files in the fleet db",
    },
];

/// A per-layer metric.
#[derive(Clone, Copy, Debug)]
pub struct Layer {
    /// Name: `<crate>.<thing>`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// The workload whose traced run measures it.
    pub workload: &'static str,
    /// The end-to-end metric (and workload) it should move.
    pub moves: &'static str,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    workload: &'static str,
    moves: &'static str,
) -> Layer {
    Layer {
        name,
        unit,
        better,
        workload,
        moves,
    }
}

use Better::{Higher, Lower};

const SIM: &str = "work_per_s@sim";
const SIM_COUNT: &str = "work_per_s@sim; stage_cost@sim if the model changes";
const COLLECT: &str = "work_per_s@collect";
const STORE_W: &str = "work_per_s@collect and work_per_s@ingest";
const INGEST: &str = "work_per_s@ingest";
const RECOVER: &str = "aux_phase_ms@ingest";
const AMP: &str = "stage_cost@ingest";
const FLEET_Q: &str = "aux_phase_ms@query";
const ANALYZE: &str = "work_per_s@query";
const NONE: &str = "none: tracer self-check";

/// Every per-layer metric, grouped by the workload that measures it.
pub const LAYERS: [Layer; 77] = [
    // sim group. Nothing here should move ingest or query.
    layer(
        "machine.mccalpin-copy.minsn_per_s",
        "Minsn/s",
        Higher,
        "sim",
        SIM,
    ),
    layer("machine.gcc.minsn_per_s", "Minsn/s", Higher, "sim", SIM),
    layer("machine.wave5.minsn_per_s", "Minsn/s", Higher, "sim", SIM),
    layer("machine.x11perf.minsn_per_s", "Minsn/s", Higher, "sim", SIM),
    layer(
        "machine.dss.minsn_per_s",
        "Minsn/s",
        Higher,
        "sim",
        "work_per_s@sim and aux_phase_ms@sim",
    ),
    layer("machine.mcycles_per_s", "Mcyc/s", Higher, "sim", SIM),
    layer("machine.base_over_profiled", "ratio", Higher, "sim", SIM),
    layer(
        "machine.classic_over_superblock",
        "ratio",
        Higher,
        "sim",
        SIM,
    ),
    layer(
        "machine.chain_fallback_rate",
        "ratio",
        Lower,
        "sim",
        SIM_COUNT,
    ),
    layer("machine.sim_cycles", "count", Lower, "sim", SIM_COUNT),
    layer("machine.retired", "count", Lower, "sim", SIM_COUNT),
    layer("machine.samples", "count", Lower, "sim", SIM_COUNT),
    layer(
        "isa.compile_us_per_image",
        "us",
        Lower,
        "sim",
        "work_per_s@sim and setup_s",
    ),
    layer("obs.on_over_off", "ratio", Lower, "sim", SIM),
    layer(
        "collect.driver.miss_rate.gcc",
        "ratio",
        Lower,
        "sim",
        SIM_COUNT,
    ),
    layer(
        "collect.driver.handler_cycles_per_sample",
        "cycles",
        Lower,
        "sim",
        "stage_cost@sim",
    ),
    layer(
        "collect.daemon.cycles_per_sample",
        "cycles",
        Lower,
        "sim",
        "stage_cost@sim",
    ),
    // collect group.
    layer(
        "collect.driver.record_ns.x11perf",
        "ns",
        Lower,
        "collect",
        COLLECT,
    ),
    layer(
        "collect.driver.record_ns.gcc",
        "ns",
        Lower,
        "collect",
        COLLECT,
    ),
    layer("collect.driver.flush_us", "us", Lower, "collect", COLLECT),
    layer(
        "collect.driver.miss_rate.x11perf",
        "ratio",
        Lower,
        "collect",
        COLLECT,
    ),
    layer(
        "collect.daemon.process_entries_ns",
        "ns",
        Lower,
        "collect",
        COLLECT,
    ),
    layer(
        "collect.daemon.flush_to_disk_ms",
        "ms",
        Lower,
        "collect",
        COLLECT,
    ),
    layer(
        "collect.daemon.aggregation_factor",
        "ratio",
        Higher,
        "collect",
        COLLECT,
    ),
    layer("core.db.merge_us_per_file", "us", Lower, "collect", STORE_W),
    layer(
        "core.db.files_per_flush",
        "count",
        Lower,
        "collect",
        STORE_W,
    ),
    layer(
        "core.db.write_bytes_per_sample",
        "B",
        Lower,
        "collect",
        "stage_cost@collect",
    ),
    layer(
        "core.db.disk_bytes_per_entry",
        "B",
        Lower,
        "collect",
        STORE_W,
    ),
    layer(
        "core.codec.encode_ns_per_entry",
        "ns",
        Lower,
        "collect",
        STORE_W,
    ),
    layer(
        "core.codec.decode_ns_per_entry",
        "ns",
        Lower,
        "collect",
        STORE_W,
    ),
    layer(
        "stacks.record_ns",
        "ns",
        Lower,
        "collect",
        "aux_phase_ms@collect",
    ),
    layer(
        "stacks.dcst_encode_us",
        "us",
        Lower,
        "collect",
        "aux_phase_ms@collect",
    ),
    layer(
        "stacks.dcst_decode_us",
        "us",
        Lower,
        "collect",
        "aux_phase_ms@query",
    ),
    // ingest group.
    layer(
        "collect.wire.encode_us_per_epoch",
        "us",
        Lower,
        "ingest",
        INGEST,
    ),
    layer(
        "collect.wire.decode_us_per_epoch",
        "us",
        Lower,
        "ingest",
        "work_per_s@ingest and aux_phase_ms@ingest",
    ),
    layer("collect.wire.bytes_per_entry", "B", Lower, "ingest", AMP),
    layer(
        "collect.uploader.tick_us_per_epoch",
        "us",
        Lower,
        "ingest",
        INGEST,
    ),
    layer(
        "server.on_frame_us_per_epoch",
        "us",
        Lower,
        "ingest",
        INGEST,
    ),
    layer(
        "server.journal.append_us_per_frame",
        "us",
        Lower,
        "ingest",
        INGEST,
    ),
    layer("server.journal.scan_ms", "ms", Lower, "ingest", RECOVER),
    layer("server.merge_ms", "ms", Lower, "ingest", INGEST),
    layer(
        "core.db.merge_us_per_file.fresh",
        "us",
        Lower,
        "ingest",
        INGEST,
    ),
    layer("server.reopen_ms", "ms", Lower, "ingest", RECOVER),
    layer("server.reopen_ms_quarter", "ms", Lower, "ingest", RECOVER),
    layer("server.wal_bytes_per_epoch", "B", Lower, "ingest", AMP),
    layer(
        "server.write_syscalls_per_epoch",
        "count",
        Lower,
        "ingest",
        AMP,
    ),
    layer("server.files_per_merge", "count", Lower, "ingest", AMP),
    layer("server.merges", "count", Lower, "ingest", AMP),
    layer("stacks.merge_us_per_epoch", "us", Lower, "ingest", INGEST),
    // query group.
    layer("core.db.open_ms", "ms", Lower, "query", FLEET_Q),
    layer("core.db.read_all_ms", "ms", Lower, "query", ANALYZE),
    layer("core.db.read_all_ms.fleet", "ms", Lower, "query", FLEET_Q),
    layer(
        "core.db.read_syscalls_per_query",
        "count",
        Lower,
        "query",
        FLEET_Q,
    ),
    layer("core.db.read_bytes_per_query", "B", Lower, "query", FLEET_Q),
    layer("tools.load_db_ms", "ms", Lower, "query", ANALYZE),
    layer("tools.dcpiprof_ms", "ms", Lower, "query", ANALYZE),
    layer("analyze.procedure_us", "us", Lower, "query", ANALYZE),
    layer("analyze.cfg_us_per_proc", "us", Lower, "query", ANALYZE),
    layer("analyze.equiv_us_per_proc", "us", Lower, "query", ANALYZE),
    layer(
        "analyze.frequency_us_per_proc",
        "us",
        Lower,
        "query",
        ANALYZE,
    ),
    layer("analyze.culprit_us_per_proc", "us", Lower, "query", ANALYZE),
    layer("tools.dcpicalc_us_per_proc", "us", Lower, "query", ANALYZE),
    layer("tools.dcpisumm_us_per_proc", "us", Lower, "query", ANALYZE),
    layer("analyze.export_ms", "ms", Lower, "query", ANALYZE),
    layer("stacks.calltree_ms", "ms", Lower, "query", ANALYZE),
    layer("stacks.speedscope_ms", "ms", Lower, "query", ANALYZE),
    layer("tools.dcpiprof_tree_ms", "ms", Lower, "query", ANALYZE),
    layer("tools.dcpifleet_top_ms", "ms", Lower, "query", FLEET_Q),
    layer("tools.dcpifleet_image_ms", "ms", Lower, "query", FLEET_Q),
    layer("check.dcpicheck_db_ms", "ms", Lower, "query", ANALYZE),
    layer("check.tv_ms", "ms", Lower, "query", ANALYZE),
    layer("pgo.optimize_ms", "ms", Lower, "query", ANALYZE),
    layer("obs.snapshot_json_ms", "ms", Lower, "query", ANALYZE),
    // Every workload: traced vs untraced fastest rep.
    layer("bench.trace_overhead_pct.sim", "%", Lower, "sim", NONE),
    layer(
        "bench.trace_overhead_pct.collect",
        "%",
        Lower,
        "collect",
        NONE,
    ),
    layer(
        "bench.trace_overhead_pct.ingest",
        "%",
        Lower,
        "ingest",
        NONE,
    ),
    layer("bench.trace_overhead_pct.query", "%", Lower, "query", NONE),
];

/// Default `--seconds`, and `run_seconds` in `BENCHMARK.json`.
pub const RUN_SECONDS: u64 = 24;

/// The command `BENCHMARK.json` gives the driver, run from the repo root.
pub const COMMAND: [&str; 8] = [
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--",
];

/// Renders `BENCHMARK.json` from the registry (`--contract` prints it).
#[must_use]
pub fn contract_json() -> String {
    let quoted = |items: &[&str]| -> String {
        let q: Vec<String> = items.iter().map(|s| format!("\"{s}\"")).collect();
        q.join(", ")
    };
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|w| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
        .collect();
    let end_to_end: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name,
                m.unit,
                m.better.word(),
                m.bound
            )
        })
        .collect();
    let per_layer: Vec<String> = LAYERS
        .iter()
        .map(|l| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                l.name,
                l.unit,
                l.better.word()
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [{}],\n  \"paths\": [\"benchmark\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        quoted(&COMMAND),
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        per_layer.join(",\n"),
    )
}

/// Renders the registry for people (`--list` prints it): what each
/// stage-generic metric means per workload, and which end-to-end metric
/// each per-layer metric should move.
#[must_use]
pub fn describe() -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    for w in &WORKLOADS {
        let _ = writeln!(out, "workload {}\n  why:          {}", w.name, w.why);
        let _ = writeln!(out, "  work_per_s:   {}", w.work);
        let _ = writeln!(out, "  aux_phase_ms: {}", w.aux);
        let _ = writeln!(out, "  stage_cost:   {}", w.cost);
    }
    for m in &END_TO_END {
        let _ = writeln!(
            out,
            "end-to-end {} [{}] {} is better, bound {}",
            m.name,
            m.unit,
            m.better.word(),
            m.bound
        );
    }
    for l in &LAYERS {
        let _ = writeln!(
            out,
            "per-layer {} [{}] {} is better; measured by `{}`; moves {}",
            l.name,
            l.unit,
            l.better.word(),
            l.workload,
            l.moves
        );
    }
    out
}

/// Looks a workload up by name.
#[must_use]
pub fn workload(name: &str) -> Option<&'static WorkloadDef> {
    WORKLOADS.iter().find(|w| w.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn valid_name(s: &str) -> bool {
        s.len() <= 64
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn valid_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn names_and_units_fit_the_contract_and_are_unique() {
        let mut seen = BTreeSet::new();
        for (name, unit) in END_TO_END
            .iter()
            .map(|m| (m.name, m.unit))
            .chain(LAYERS.iter().map(|l| (l.name, l.unit)))
        {
            assert!(valid_name(name), "bad name {name}");
            assert!(valid_unit(unit), "bad unit {unit} on {name}");
            assert!(seen.insert(name), "{name} used twice");
        }
        for w in &WORKLOADS {
            assert!(valid_name(w.name) && seen.insert(w.name));
            assert!(
                w.why.len() <= 200 && !w.why.contains('\n'),
                "{}",
                w.why.len()
            );
        }
        for m in &END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25);
        }
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));
    }

    /// The `[profile.release]` table of a manifest, as sorted `key = value`
    /// lines.
    fn release_profile(manifest: &str) -> Vec<String> {
        let mut lines: Vec<String> = manifest
            .lines()
            .skip_while(|l| l.trim() != "[profile.release]")
            .skip(1)
            .take_while(|l| !l.trim_start().starts_with('['))
            .map(|l| {
                l.split('#')
                    .next()
                    .unwrap_or("")
                    .split_whitespace()
                    .collect::<String>()
            })
            .filter(|l| !l.is_empty())
            .collect();
        lines.sort();
        lines
    }

    #[test]
    fn release_profile_matches_the_root_manifest() {
        let here = release_profile(include_str!("../Cargo.toml"));
        let root = release_profile(include_str!("../../Cargo.toml"));
        assert_eq!(here, ["codegen-units=1", "lto=\"fat\""]);
        assert_eq!(
            here, root,
            "benchmark/Cargo.toml must repeat the root [profile.release]"
        );
    }

    #[test]
    fn benchmark_json_is_the_registry() {
        assert_eq!(
            include_str!("../../BENCHMARK.json"),
            contract_json(),
            "regenerate with: cargo run --manifest-path benchmark/Cargo.toml -- --contract > BENCHMARK.json"
        );
        assert!(contract_json().len() < 64 * 1024);
        assert!(dcpi_stacks::speedscope::parse_json(&contract_json()).is_ok());
    }

    #[test]
    fn every_layer_belongs_to_a_workload_and_every_crate_has_a_row() {
        for l in &LAYERS {
            assert!(
                workload(l.workload).is_some(),
                "{} -> {}",
                l.name,
                l.workload
            );
        }
        // Every crate under crates/ has at least one row, except `bench`
        // and `workloads` (the driver whose calls the machine.* rows time).
        for prefix in [
            "analyze.", "check.", "collect.", "core.", "isa.", "machine.", "obs.", "pgo.",
            "server.", "stacks.", "tools.",
        ] {
            assert!(
                LAYERS.iter().any(|l| l.name.starts_with(prefix)),
                "{prefix}"
            );
        }
    }
}
