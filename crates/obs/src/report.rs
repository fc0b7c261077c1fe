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

use dcpi_core::json::{self, quote, Json};

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
    /// object under `--json`. Values that look numeric are left bare in
    /// JSON; everything else is quoted.
    pub fn record(&self, name: &str, fields: &[(&str, String)]) {
        if self.quiet {
            return;
        }
        if self.json {
            println!("{}", Self::render_json(name, fields));
        } else {
            println!("{}", Self::render_text(name, fields));
        }
    }

    /// Text rendering of a record (also used by tests).
    pub fn render_text(name: &str, fields: &[(&str, String)]) -> String {
        let mut out = String::from(name);
        for (k, v) in fields {
            out.push(' ');
            out.push_str(k);
            out.push('=');
            out.push_str(v);
        }
        out
    }

    /// JSON rendering of a record (also used by tests).
    pub fn render_json(name: &str, fields: &[(&str, String)]) -> String {
        let mut out = format!("{{\"record\": {}", quote(name));
        for (k, v) in fields {
            if is_bare_json(v) {
                out.push_str(&format!(", {}: {v}", quote(k)));
            } else {
                out.push_str(&format!(", {}: {}", quote(k), quote(v)));
            }
        }
        out.push('}');
        out
    }
}

fn is_bare_json(v: &str) -> bool {
    matches!(json::parse(v), Ok(Json::Int(_) | Json::Num(_)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn text_record_formats_kv_pairs() {
        let s = Reporter::render_text(
            "profiled",
            &[
                ("workload", "gcc".to_string()),
                ("samples", "120".to_string()),
            ],
        );
        assert_eq!(s, "profiled workload=gcc samples=120");
    }

    #[test]
    fn json_record_quotes_only_non_numeric() {
        let s = Reporter::render_json(
            "profiled",
            &[
                ("workload", "gcc".to_string()),
                ("samples", "120".to_string()),
                ("overhead", "1.25".to_string()),
                ("not_json_numbers", "1. +5 007".to_string()),
                ("dot", "1.".to_string()),
            ],
        );
        assert_eq!(
            s,
            "{\"record\": \"profiled\", \"workload\": \"gcc\", \"samples\": 120, \"overhead\": 1.25, \
             \"not_json_numbers\": \"1. +5 007\", \"dot\": \"1.\"}"
        );
    }

    #[test]
    fn json_record_escapes_strings() {
        let s = Reporter::render_json("r", &[("msg", "a\"b\\".to_string())]);
        assert_eq!(s, "{\"record\": \"r\", \"msg\": \"a\\\"b\\\\\"}");
    }
}
