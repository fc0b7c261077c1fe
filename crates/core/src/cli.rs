//! The workspace's one command-line reader and its one exit-code rule.
//!
//! Every binary reads its arguments by *taking* them out of an [`Args`]:
//! [`Args::flag`], [`Args::text`], [`Args::value`], [`Args::positional`]
//! and [`Args::optional`] each remove what they recognise, and
//! [`Args::finish`] rejects whatever is left. An unknown flag, a
//! repeated flag (only its first occurrence is taken), a flag without
//! its value, a value that does not parse and a surplus positional are
//! therefore usage errors for every binary by construction; nothing a
//! user typed is ever ignored.
//!
//! Two rules for callers:
//!
//! * **Flags before positionals.** A word starting with `--` is a flag
//!   and never a value (`-1` is a value), but a flag's value looks like
//!   a positional until the flag has been taken. Take every flag, then
//!   the positionals, then `finish()`.
//! * **`finish()` before the file system.** A binary that opens, reads
//!   or writes anything before `finish()` has acted on a command line it
//!   has not finished reading.
//!
//! [`run`] gives every `main` the same three exits: 0; 1 for a run that
//! failed or found errors ([`Stop::Failed`], [`Stop::Found`]); 2 for a
//! command line that was wrong ([`Stop::Usage`]), with the usage text and
//! nothing written.

use std::fmt::Display;
use std::process::ExitCode;
use std::str::FromStr;

/// Why a binary stops short of exit 0.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Stop {
    /// The command line is wrong: exit 2 with `tool: message` and usage.
    Usage(String),
    /// The run failed: exit 1 with `tool: message`.
    Failed(String),
    /// The run completed and its own output reports errors: exit 1 with
    /// nothing more said.
    Found,
}

/// Any displayable error a body meets with `?` is a failed run.
impl<E: Display> From<E> for Stop {
    fn from(e: E) -> Stop {
        Stop::Failed(e.to_string())
    }
}

impl Stop {
    /// Says why on stderr under `tool`'s name and returns the exit status.
    #[must_use]
    pub fn report(&self, tool: &str, usage: &str) -> u8 {
        match self {
            Stop::Usage(msg) => {
                eprintln!("{tool}: {msg}\n{usage}");
                2
            }
            Stop::Failed(msg) => {
                eprintln!("{tool}: {msg}");
                1
            }
            Stop::Found => 1,
        }
    }
}

/// Parses one word of the command line; `what` names it in the error.
///
/// # Errors
///
/// [`Stop::Usage`] naming `what` and the word.
pub fn parse<T: FromStr>(what: &str, word: &str) -> Result<T, Stop> {
    word.parse()
        .map_err(|_| Stop::Usage(format!("cannot parse {what} `{word}`")))
}

/// The words of a command line not yet taken; the default is the empty
/// command line.
#[derive(Clone, Debug, Default)]
pub struct Args(Vec<String>);

impl Args {
    /// The process's arguments, program name dropped — the only read of
    /// `std::env::args` in the workspace.
    #[must_use]
    pub fn from_env() -> Args {
        Args(std::env::args().skip(1).collect())
    }

    /// An explicit command line (tests, and callers that already hold one).
    pub fn new<S: Into<String>>(words: impl IntoIterator<Item = S>) -> Args {
        Args(words.into_iter().map(Into::into).collect())
    }

    /// Takes the switch `name`; true if it was given.
    pub fn flag(&mut self, name: &str) -> bool {
        let at = self.0.iter().position(|w| w == name);
        at.map(|i| self.0.remove(i)).is_some()
    }

    /// Takes `name` and the word after it.
    ///
    /// # Errors
    ///
    /// [`Stop::Usage`] if `name` is last or followed by another flag.
    pub fn text(&mut self, name: &str) -> Result<Option<String>, Stop> {
        let Some(at) = self.0.iter().position(|w| w == name) else {
            return Ok(None);
        };
        if self.0.get(at + 1).is_none_or(|v| v.starts_with("--")) {
            return Err(Stop::Usage(format!("`{name}` needs a value")));
        }
        self.0.remove(at);
        Ok(Some(self.0.remove(at)))
    }

    /// Takes `name` and parses the word after it.
    ///
    /// # Errors
    ///
    /// As [`Args::text`], and [`Stop::Usage`] if the value does not parse.
    pub fn value<T: FromStr>(&mut self, name: &str) -> Result<Option<T>, Stop> {
        self.text(name)?.map(|v| parse(name, &v)).transpose()
    }

    /// Takes the first word that is not a flag, if any.
    pub fn optional(&mut self) -> Option<String> {
        let at = self.0.iter().position(|w| !w.starts_with("--"))?;
        Some(self.0.remove(at))
    }

    /// Takes the first word that is not a flag; `what` names it in usage
    /// terms (`<db-dir>`).
    ///
    /// # Errors
    ///
    /// [`Stop::Usage`] if there is none.
    pub fn positional(&mut self, what: &str) -> Result<String, Stop> {
        self.optional()
            .ok_or_else(|| Stop::Usage(format!("missing {what}")))
    }

    /// Ends the reading: every word must have been taken.
    ///
    /// # Errors
    ///
    /// [`Stop::Usage`] naming the first word left over.
    pub fn finish(self) -> Result<(), Stop> {
        match self.0.first() {
            None => Ok(()),
            Some(w) => Err(Stop::Usage(format!("unexpected argument `{w}`"))),
        }
    }
}

/// Runs a binary's `body` over the process's arguments and turns how it
/// stopped into the exit code: `fn main() -> ExitCode { run(..) }`.
pub fn run(tool: &str, usage: &str, body: impl FnOnce(Args) -> Result<(), Stop>) -> ExitCode {
    match body(Args::from_env()) {
        Ok(()) => ExitCode::SUCCESS,
        Err(stop) => ExitCode::from(stop.report(tool, usage)),
    }
}
