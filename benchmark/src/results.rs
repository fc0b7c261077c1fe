//! Result records: the contract's one-line JSON, `out/results.json`, and
//! the reader that loads the latter back.

use dcpi_stacks::speedscope::{parse_json, Json};
use std::fmt::Write as _;

/// One reported number.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name as in `BENCHMARK.json` (or an informational alias).
    pub name: String,
    /// The value as measured, all digits.
    pub value: f64,
    /// Its unit.
    pub unit: String,
}

impl Metric {
    /// Builds a metric; the value must be finite to be valid JSON.
    #[must_use]
    pub fn new(name: &str, value: f64, unit: &str) -> Metric {
        assert!(value.is_finite(), "{name} is not finite: {value}");
        Metric {
            name: name.to_string(),
            value,
            unit: unit.to_string(),
        }
    }
}

/// Everything one run of one workload reported.
#[derive(Clone, Debug, PartialEq)]
pub struct RunRecord {
    /// Workload name.
    pub workload: String,
    /// `--seed`.
    pub seed: u32,
    /// `--seconds`.
    pub seconds: u64,
    /// True for the traced (per-layer) run.
    pub traced: bool,
    /// True when every correctness check passed.
    pub correct: bool,
    /// Reps × operations per rep.
    pub attempted: u64,
    /// Operations whose correctness check failed.
    pub failed: u64,
    /// The contract's metrics: every end-to-end metric untraced, every
    /// per-layer metric traced.
    pub metrics: Vec<Metric>,
    /// For information only: p5/median beside each fastest, the issue's
    /// per-stage names for the end-to-end numbers, rep counts.
    pub info: Vec<Metric>,
}

fn metric_list(out: &mut String, key: &str, list: &[Metric]) {
    let _ = writeln!(out, "      \"{key}\": [");
    for (i, m) in list.iter().enumerate() {
        let comma = if i + 1 < list.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "        {{\"name\": \"{}\", \"value\": {}, \"unit\": \"{}\"}}{comma}",
            m.name, m.value, m.unit
        );
    }
    let _ = write!(out, "      ]");
}

impl RunRecord {
    /// The last line of standard output the benchmark contract asks for.
    #[must_use]
    pub fn contract_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Serializes runs as `out/results.json`.
#[must_use]
pub fn render(runs: &[RunRecord]) -> String {
    let mut out = String::from("{\n  \"schema\": 1,\n  \"runs\": [\n");
    for (i, r) in runs.iter().enumerate() {
        let _ = writeln!(out, "    {{");
        let _ = writeln!(
            out,
            "      \"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"traced\": {},",
            r.workload, r.seed, r.seconds, r.traced
        );
        let _ = writeln!(
            out,
            "      \"correct\": {}, \"attempted\": {}, \"failed\": {},",
            r.correct, r.attempted, r.failed
        );
        metric_list(&mut out, "metrics", &r.metrics);
        out.push_str(",\n");
        metric_list(&mut out, "info", &r.info);
        out.push('\n');
        let comma = if i + 1 < runs.len() { "," } else { "" };
        let _ = writeln!(out, "    }}{comma}");
    }
    out.push_str("  ]\n}\n");
    out
}

fn metrics_of(v: Option<&Json>) -> Result<Vec<Metric>, String> {
    v.and_then(Json::items)
        .ok_or("missing metric list")?
        .iter()
        .map(|m| {
            Ok(Metric {
                name: string(m.get("name"))?,
                value: m.get("value").and_then(Json::num).ok_or("metric value")?,
                unit: string(m.get("unit"))?,
            })
        })
        .collect()
}

fn string(v: Option<&Json>) -> Result<String, String> {
    match v {
        Some(Json::Str(s)) => Ok(s.clone()),
        _ => Err("expected a string".into()),
    }
}

fn boolean(v: Option<&Json>) -> Result<bool, String> {
    match v {
        Some(Json::Bool(b)) => Ok(*b),
        _ => Err("expected a boolean".into()),
    }
}

fn whole(v: Option<&Json>) -> Result<u64, String> {
    let n = v.and_then(Json::num).ok_or("expected a number")?;
    if n < 0.0 || n.fract() != 0.0 {
        return Err(format!("expected a whole number, got {n}"));
    }
    Ok(n as u64)
}

/// Reads back what [`render`] wrote.
///
/// # Errors
///
/// Returns a message naming the first missing or mistyped field.
pub fn parse(text: &str) -> Result<Vec<RunRecord>, String> {
    let doc = parse_json(text)?;
    doc.get("runs")
        .and_then(Json::items)
        .ok_or("missing runs")?
        .iter()
        .map(|r| {
            Ok(RunRecord {
                workload: string(r.get("workload"))?,
                seed: whole(r.get("seed"))? as u32,
                seconds: whole(r.get("seconds"))?,
                traced: boolean(r.get("traced"))?,
                correct: boolean(r.get("correct"))?,
                attempted: whole(r.get("attempted"))?,
                failed: whole(r.get("failed"))?,
                metrics: metrics_of(r.get("metrics"))?,
                info: metrics_of(r.get("info"))?,
            })
        })
        .collect()
}

fn path() -> std::path::PathBuf {
    crate::sys::out_dir().join("results.json")
}

/// Puts `run` into `out/results.json`, replacing an earlier run of the
/// same workload and mode and keeping the others.
///
/// # Errors
///
/// Returns the I/O error if the file cannot be written.
pub fn store(run: RunRecord) -> std::io::Result<()> {
    std::fs::create_dir_all(crate::sys::out_dir())?;
    // An unreadable or older-schema file is simply started over.
    let mut runs = std::fs::read_to_string(path())
        .ok()
        .and_then(|t| parse(&t).ok())
        .unwrap_or_default();
    runs.retain(|r| (r.workload.as_str(), r.traced) != (run.workload.as_str(), run.traced));
    runs.push(run);
    runs.sort_by(|a, b| (&a.workload, a.traced).cmp(&(&b.workload, b.traced)));
    std::fs::write(path(), render(&runs))
}

/// The stored run of `workload` in the given mode.
///
/// # Errors
///
/// Returns a message if the file is missing, malformed or lacks the run.
pub fn load(workload: &str, traced: bool) -> Result<RunRecord, String> {
    let text = std::fs::read_to_string(path()).map_err(|e| e.to_string())?;
    parse(&text)?
        .into_iter()
        .find(|r| r.workload == workload && r.traced == traced)
        .ok_or_else(|| format!("results.json has no {workload} run"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(workload: &str, traced: bool) -> RunRecord {
        RunRecord {
            workload: workload.into(),
            seed: 7,
            seconds: 24,
            traced,
            correct: true,
            attempted: 1234,
            failed: 0,
            metrics: vec![
                Metric::new("work_per_s", 20_345_678.912_345, "1/s"),
                Metric::new("setup_s", 0.000_012_5, "s"),
            ],
            info: vec![Metric::new(
                "sim_minsn_per_s",
                20.345_678_912_345,
                "Minsn/s",
            )],
        }
    }

    #[test]
    fn results_round_trip_through_the_reader() {
        let runs = vec![sample("sim", false), sample("query", true)];
        let text = render(&runs);
        assert_eq!(parse(&text).expect("parse"), runs);
        // Empty lists survive too.
        let mut bare = sample("ingest", false);
        bare.metrics.clear();
        bare.info.clear();
        assert_eq!(parse(&render(&[bare.clone()])).expect("parse"), vec![bare]);
    }

    #[test]
    fn reader_rejects_mistyped_fields() {
        let text =
            render(&[sample("sim", false)]).replace("\"attempted\": 1234", "\"attempted\": 1.5");
        assert!(parse(&text).is_err());
        assert!(parse("{\"schema\": 1}").is_err());
        assert!(parse("not json").is_err());
    }

    #[test]
    fn contract_line_is_one_json_object_with_exactly_four_keys() {
        let line = sample("sim", false).contract_line();
        assert!(!line.contains('\n'));
        let Json::Obj(members) = parse_json(&line).expect("valid json") else {
            panic!("not an object");
        };
        let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let m = members[3].1.get("work_per_s").expect("metric");
        assert_eq!(m.get("value").and_then(Json::num), Some(20_345_678.912_345));
        assert_eq!(m.get("unit"), Some(&Json::Str("1/s".into())));
    }
}
