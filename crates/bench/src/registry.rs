//! The experiment registry: every table, figure, ablation and extension
//! by name, the claims each makes about its own output, and the one
//! golden their text is held to.
//!
//! An experiment is a `fn(&ExpOptions, &Runs) -> Outcome`: it asks the
//! invocation's run table for its simulations. Its [`Outcome`] is
//! the text it prints plus its [`Claim`]s, each of which also prints as
//! one `claim <name>: …` line of that text. `experiments --check` then
//! compares the text with the experiment's section of
//! `tests/golden/experiments.txt` (recorded with `DCPI_BLESS=1`), so a
//! claim is asserted twice: by its own comparison, and by the golden.

use crate::{ablations, figures, report, tables, Runs};
use dcpi_core::cli::{Args, Stop};
use dcpi_core::golden;
use dcpi_workloads::RunOptions;
use std::fmt::{self, Display};
use std::path::{Path, PathBuf};

/// Command-line options an experiment runs with.
#[derive(Clone, Debug)]
pub struct ExpOptions {
    /// Repetitions per measurement (`1` for an experiment that runs once).
    pub runs: usize,
    /// Workload scale multiplier.
    pub scale: u32,
    /// Base seed.
    pub seed: u32,
    /// Reduced-cost mode.
    pub quick: bool,
}

impl ExpOptions {
    /// A run at `scale` times `--scale` and the base seed, sampling every
    /// `period` cycles; the rest default.
    #[must_use]
    pub fn run_options(&self, scale: u32, period: (u64, u64)) -> RunOptions {
        RunOptions {
            seed: self.seed,
            scale: scale * self.scale,
            period,
            ..RunOptions::default()
        }
    }
}

/// One statement an experiment makes about its own result.
#[derive(Debug)]
pub struct Claim {
    /// `<experiment>.<property>`, as EXPERIMENTS.md cites it.
    pub name: &'static str,
    /// What the paper's shape requires, in words and numbers.
    pub expected: String,
    /// What this run measured.
    pub actual: String,
    /// Whether `actual` meets `expected`.
    pub holds: bool,
}

impl Display for Claim {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "claim {}: expected {}; actual {} -- {}",
            self.name,
            self.expected,
            self.actual,
            if self.holds { "ok" } else { "FAILED" }
        )
    }
}

/// What an experiment produced: the text it prints and its claims.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Everything the experiment prints, one line per claim included.
    pub text: String,
    /// The claims, in the order their lines appear in `text`.
    pub claims: Vec<Claim>,
}

impl Outcome {
    /// Appends to the text, so that `writeln!(outcome, ..)` prints a line
    /// of the experiment's output (a `String` cannot fail to grow).
    pub fn write_fmt(&mut self, args: fmt::Arguments<'_>) {
        let _ = fmt::Write::write_fmt(&mut self.text, args);
    }

    /// Records a claim and prints its line.
    pub fn claim(
        &mut self,
        name: &'static str,
        expected: impl Display,
        actual: impl Display,
        holds: bool,
    ) {
        let claim = Claim {
            name,
            expected: expected.to_string(),
            actual: actual.to_string(),
            holds,
        };
        writeln!(self, "{claim}");
        self.claims.push(claim);
    }
}

/// One registry entry.
#[derive(Debug)]
pub struct Experiment {
    /// What `experiments <name>` calls it.
    pub name: &'static str,
    /// Repetitions when `--runs` is not given; `None` for an experiment
    /// that runs once and refuses `--runs`.
    pub runs: Option<usize>,
    /// Runs it.
    pub run: fn(&ExpOptions, &Runs) -> Outcome,
}

const fn entry(
    name: &'static str,
    runs: Option<usize>,
    run: fn(&ExpOptions, &Runs) -> Outcome,
) -> Experiment {
    Experiment { name, runs, run }
}

/// Every experiment, in the order `--all` runs them and the golden
/// records them (DESIGN.md §4 maps each to the paper).
pub const EXPERIMENTS: &[Experiment] = &[
    entry("table2", Some(5), tables::table2),
    entry("table3", Some(5), tables::table3),
    entry("table4", None, tables::table4),
    entry("table5", None, tables::table5),
    entry("figure1", None, figures::figure1),
    entry("figure2", None, figures::figure2),
    entry("figure3", Some(8), figures::figure3),
    entry("figure4", Some(4), figures::figure4),
    entry("figure6", Some(6), figures::figure6),
    entry("figure7", None, figures::figure7),
    entry("figure8", Some(3), figures::figure8),
    entry("figure9", Some(3), figures::figure9),
    entry("figure10", Some(2), figures::figure10),
    entry("table_htsweep", None, tables::table_htsweep),
    entry("ablation_period", Some(3), ablations::ablation_period),
    entry("ablation_freq", Some(2), ablations::ablation_freq),
    entry("ablation_skid", None, ablations::ablation_skid),
    entry("extension_edges", Some(2), ablations::extension_edges),
    entry("extension_double", None, ablations::extension_double),
    entry("report", Some(4), report::report),
];

/// The usage line of the `experiments` binary.
pub const USAGE: &str = "usage: experiments <name>|--all [--runs N] [--scale N] [--seed N] \
                         [--threads N] [--quick] [--check]";

/// A read `experiments` command line.
#[derive(Debug)]
pub struct Invocation {
    /// The experiments to run, in registry order.
    pub selected: Vec<&'static Experiment>,
    /// Compare the text with the golden.
    pub check: bool,
    /// The run table the selected experiments share, on `--threads` workers.
    pub(crate) table: Runs,
    runs: Option<usize>,
    base: ExpOptions,
}

impl Invocation {
    /// Takes an experiment name or `--all`, the shared options and
    /// `--check` out of `args`.
    ///
    /// # Errors
    ///
    /// [`Stop::Usage`] for anything else on the command line, an unknown
    /// experiment, `--runs` for an experiment that runs once, and
    /// `--check` away from the options the golden was recorded with.
    pub fn parse(mut args: Args) -> Result<Invocation, Stop> {
        let all = args.flag("--all");
        let check = args.flag("--check");
        let quick = args.flag("--quick");
        let runs = args.value("--runs")?;
        let scale = args.value("--scale")?;
        let seed = args.value("--seed")?;
        let threads = args
            .value("--threads")?
            .unwrap_or_else(dcpi_workloads::default_threads);
        let name = args.optional();
        args.finish()?;
        let selected: Vec<&Experiment> = match (name, all) {
            (None, true) => EXPERIMENTS.iter().collect(),
            (Some(name), false) => vec![EXPERIMENTS
                .iter()
                .find(|e| e.name == name)
                .ok_or_else(|| Stop::Usage(format!("no experiment named `{name}`")))?],
            (Some(name), true) => {
                return Err(Stop::Usage(format!("`{name}` or `--all`, not both")))
            }
            (None, false) => return Err(Stop::Usage("name an experiment or give `--all`".into())),
        };
        if let Some(once) = selected.iter().find(|e| e.runs.is_none()) {
            if runs.is_some() {
                return Err(Stop::Usage(format!("`--runs`: `{}` runs once", once.name)));
            }
        }
        if check && (!quick || runs.is_some() || scale.is_some() || seed.is_some()) {
            return Err(Stop::Usage(
                "`--check` compares with the golden recorded at `--quick` and the default \
                 `--runs`, `--scale` and `--seed`"
                    .into(),
            ));
        }
        Ok(Invocation {
            selected,
            check,
            table: Runs::new(threads),
            runs,
            base: ExpOptions {
                runs: 1,
                scale: scale.unwrap_or(1),
                seed: seed.unwrap_or(1),
                quick,
            },
        })
    }

    /// The options `e` runs with: `--runs` or its default, at most 2
    /// under `--quick`.
    #[must_use]
    pub fn options(&self, e: &Experiment) -> ExpOptions {
        let runs = self.runs.or(e.runs).unwrap_or(1);
        ExpOptions {
            runs: if self.base.quick { runs.min(2) } else { runs },
            ..self.base.clone()
        }
    }

    /// Runs `e` with its options on this invocation's run table.
    pub fn run(&self, e: &Experiment) -> Outcome {
        (e.run)(&self.options(e), &self.table)
    }
}

/// The golden that `experiments --all --quick --check` output equals.
#[must_use]
pub fn golden_path() -> PathBuf {
    concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../tests/golden/experiments.txt"
    )
    .into()
}

/// The line that opens an experiment's section of the output and of the
/// golden.
#[must_use]
pub fn header(name: &str) -> String {
    format!("# experiment {name}\n")
}

/// Holds each `(name, text)` to its section of the golden at `path` by
/// [`golden::check`]; under `DCPI_BLESS` only those sections are
/// re-recorded, and every other entry's is kept.
///
/// # Errors
///
/// The golden cannot be written.
pub fn check_golden(path: &Path, ran: &[(&str, String)]) -> std::io::Result<Vec<String>> {
    let recorded = std::fs::read_to_string(path).unwrap_or_default();
    let mut now = String::new();
    for e in EXPERIMENTS {
        let head = header(e.name);
        let ran = ran.iter().find(|r| r.0 == e.name).map(|r| r.1.as_str());
        let kept = recorded.split_once(&head).map(|(_, rest)| rest);
        let kept = kept.map(|s| s.find("\n# experiment ").map_or(s, |end| &s[..=end]));
        if let Some(text) = ran.or(kept) {
            now.push_str(&head);
            now.push_str(text);
        }
    }
    golden::check(path, &now, Some("# experiment "))
}
