//! One formatting path for CLI *status* output.
//!
//! `profile` — the one binary whose stdout is a report about a run
//! rather than the run's product — prints through a [`Reporter`], which
//! is what `--quiet` and `--json` mean there: text status lines go to
//! stdout (suppressed by either flag), warnings go to stderr (suppressed
//! by `--quiet`), and structured records become one-line JSON objects
//! when `--json` is set. The `dcpi*` tools do not use it: a tool's
//! output is its product (a listing, a DOT graph, a diagnostic report),
//! and how a binary fails is `dcpi_core::cli`'s business.

use dcpi_core::json::Value;
use std::fmt::Write as _;

/// `profile`'s output policy.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Reporter {
    /// Suppress all non-essential output.
    pub quiet: bool,
    /// Emit structured records as one-line JSON instead of text.
    pub json: bool,
}

impl Reporter {
    /// Build from the common CLI flags.
    pub fn new(quiet: bool, json: bool) -> Reporter {
        Reporter { quiet, json }
    }

    /// A human status line (dropped under `--quiet` or `--json`).
    pub fn status(&self, msg: &str) {
        if !self.quiet && !self.json {
            println!("{msg}");
        }
    }

    /// A warning on stderr (dropped under `--quiet`).
    pub fn warn(&self, msg: &str) {
        if !self.quiet {
            eprintln!("warning: {msg}");
        }
    }

    /// A structured record: `record k=v …` as text, or a one-line JSON
    /// object under `--json`, each value written as the type it is.
    pub fn record(&self, name: &str, fields: &[(&str, Value)]) {
        if self.quiet {
            return;
        }
        if self.json {
            println!("{}", Self::render_json(name, fields));
        } else {
            println!("{}", Self::render_text(name, fields));
        }
    }

    /// Text rendering of a record (also used by tests): strings bare,
    /// everything else as in JSON.
    pub fn render_text(name: &str, fields: &[(&str, Value)]) -> String {
        let mut out = String::from(name);
        for (k, v) in fields {
            let _ = match v {
                Value::Str(s) => write!(out, " {k}={s}"),
                v => write!(out, " {k}={v}"),
            };
        }
        out
    }

    /// JSON rendering of a record (also used by tests).
    pub fn render_json(name: &str, fields: &[(&str, Value)]) -> String {
        let mut all = vec![("record", Value::Str(name))];
        all.extend_from_slice(fields);
        Value::Obj(&all).to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn text_record_formats_kv_pairs() {
        let s = Reporter::render_text(
            "profiled",
            &[("workload", "gcc".into()), ("samples", 120_u64.into())],
        );
        assert_eq!(s, "profiled workload=gcc samples=120");
    }

    #[test]
    fn json_record_writes_each_value_as_its_type() {
        let s = Reporter::render_json(
            "profiled",
            &[
                ("workload", "gcc".into()),
                ("samples", 120_u64.into()),
                ("overhead", Value::Fixed(1.25, 2)),
                // Strings that look like numbers stay strings.
                ("db", "2024".into()),
                ("seed", "1.5".into()),
                ("dot", "1.".into()),
            ],
        );
        assert_eq!(
            s,
            "{\"record\": \"profiled\", \"workload\": \"gcc\", \"samples\": 120, \"overhead\": 1.25, \
             \"db\": \"2024\", \"seed\": \"1.5\", \"dot\": \"1.\"}"
        );
    }

    #[test]
    fn json_record_escapes_strings() {
        let s = Reporter::render_json("r", &[("msg", "a\"b\\".into())]);
        assert_eq!(s, "{\"record\": \"r\", \"msg\": \"a\\\"b\\\\\"}");
    }
}
