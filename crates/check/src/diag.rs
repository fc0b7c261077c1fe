//! Diagnostic types: everything `dcpicheck` reports is a [`Diagnostic`]
//! collected into a [`Report`]. One table says what each [`Category`]
//! is — its layer, its stable name and its default severity — so a check
//! only names the category, the place and what it found
//! ([`Report::flag`]).

use dcpi_core::json::Doc;
use std::fmt;

/// How bad a finding is.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum Severity {
    /// Suspicious but possibly benign (e.g. dead padding blocks).
    Warning,
    /// An invariant violation: the artifact is inconsistent.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Warning => write!(f, "warning"),
            Severity::Error => write!(f, "error"),
        }
    }
}

/// Which checking layer produced a diagnostic.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Layer {
    /// Image / ISA lints: decoding, encoding, branch targets, dataflow.
    Image,
    /// CFG structure and equivalence-class audits.
    Cfg,
    /// Frequency-estimate and summary audits.
    Estimate,
    /// On-disk profile-database audits: checksums, epoch structure,
    /// image-name records.
    Database,
    /// Observability-export audits: metrics, trace rings, ledgers.
    Obs,
    /// Translation validation: symbolic old-vs-new equivalence proofs.
    Tv,
    /// Fleet ingestion audits: server WAL structure, per-agent sequence
    /// contiguity, merge-intent/database agreement, and the fleet-wide
    /// sample-conservation ledger.
    Fleet,
    /// Calling-context audits: stack-sidecar structure, call-tree
    /// inclusive/exclusive conservation, and flamegraph exports.
    Stacks,
}

impl fmt::Display for Layer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Layer::Image => write!(f, "image"),
            Layer::Cfg => write!(f, "cfg"),
            Layer::Estimate => write!(f, "estimate"),
            Layer::Database => write!(f, "db"),
            Layer::Obs => write!(f, "obs"),
            Layer::Tv => write!(f, "tv"),
            Layer::Fleet => write!(f, "fleet"),
            Layer::Stacks => write!(f, "stacks"),
        }
    }
}

/// The specific check a diagnostic came from.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Category {
    /// A text word failed to decode.
    Undecodable,
    /// decode→encode did not reproduce the original word.
    Roundtrip,
    /// Symbol-table shape problems (overlap, misalignment, bounds).
    SymbolTable,
    /// A branch target escapes its procedure (or the whole image).
    EscapedBranch,
    /// A basic block unreachable from the procedure entry.
    UnreachableBlock,
    /// A register read before any definition on some path.
    UseBeforeDef,
    /// A register write that no path reads before overwriting it.
    DeadStore,
    /// A register read that no definition can reach on any path.
    UninitRead,
    /// A conditional branch whose outcome value-range analysis decides.
    ConstBranch,
    /// Stack-frame discipline: unbalanced push/pop, unknown SP deltas at
    /// returns, excessive frame depth, or clobbered callee-saves.
    StackDiscipline,
    /// Block partition problems: gaps, overlaps, bad entry.
    BlockStructure,
    /// An edge that contradicts its source block's terminator.
    EdgeTarget,
    /// Fall-through / exit-flag inconsistencies.
    FallThrough,
    /// Cycle-equivalence classes disagree with the brute-force rederivation.
    EquivMismatch,
    /// Block frequency inconsistent with incident edge frequencies.
    FlowConservation,
    /// Confidence labels break their invariants (e.g. High on Propagated).
    ConfidenceLabel,
    /// Class→block/edge/insn fan-out is inconsistent.
    FanOutMismatch,
    /// A significant dynamic stall with no culprit (or vice versa).
    CulpritCompleteness,
    /// The Figure 4 summary books do not reconcile.
    SummaryBooks,
    /// A profile file fails its length/checksum framing.
    FileChecksum,
    /// Epoch directory structure problems (gaps, unparseable names,
    /// foreign files).
    EpochStructure,
    /// Image-name records missing or malformed for profiled images.
    ImageNameRecord,
    /// A stale `.tmp` from an interrupted merge (§4.3.3).
    StaleTemp,
    /// A quarantined profile file: its samples are sealed off.
    QuarantinedFile,
    /// An observability export that does not parse or has a bad schema.
    ObsExport,
    /// Trace-ring invariant violations: non-monotonic cycle stamps,
    /// overwrite accounting, unbalanced spans.
    ObsRing,
    /// Ledger violations: sample conservation, overhead consistency,
    /// or an overhead fraction outside the configured band.
    ObsLedger,
    /// Pipeline-trace violations: a sealed epoch's span chain is out of
    /// order, skips a stage, carries a lag payload that disagrees with
    /// the trace, or (at quiesce) never reaches database visibility.
    ObsTrace,
    /// Time-series violations: point ticks run backwards or the point
    /// count disagrees with the ring's overwrite accounting.
    ObsSeries,
    /// Translation-validation structure: an artifact does not load, the
    /// map does not fit its images or is not injective, old/new segments
    /// interleave, glue does not resolve, or the map breaks segment
    /// contiguity.
    TvStructure,
    /// Translation-validation control flow: a branch, continuation, or
    /// fallthrough does not reach the corresponding rewritten segment.
    TvControl,
    /// Translation-validation state: registers or the store sequence
    /// diverge between the old and new segment.
    TvState,
    /// Server WAL structure: torn tails, undecodable journaled frames,
    /// non-upload frames in the journal.
    WalStructure,
    /// Per-agent upload sequence problems: gaps or a `(agent, seq)`
    /// journaled more than once (dedup failed).
    SeqGap,
    /// Merge-intent problems: an intent references a batch the journal
    /// does not hold, a batch appears in more than one intent, or
    /// intent epochs are not `0, 1, 2, …` in order.
    MergeIntent,
    /// Fleet-database disagreement: an intent's epoch is missing, or
    /// its sample totals differ from the journaled batches named by the
    /// intent; image names missing for profiled images.
    FleetDb,
    /// Fleet ledger violations: summed journaled deltas break the
    /// conservation identity, or `fleet.json` disagrees with the WAL.
    FleetConservation,
    /// Calling-context sidecar structure: a `stacks.dcst` that fails to
    /// decode, a stack table that is not a bijective parent-pointer
    /// tree, or counts referencing unknown stack IDs.
    StackStructure,
    /// Call-tree conservation violations: `inclusive != exclusive +
    /// Σ inclusive(children)` at some node, or the root's inclusive
    /// total disagreeing with the profile's per-event sample total.
    StackConservation,
    /// A flamegraph (speedscope) export that fails its schema audit.
    StackExport,
}

/// One row per category, in declaration order: the layer it belongs to,
/// its stable name in rendered output, and the severity its findings get
/// unless the check says otherwise. The rule: anything that can occur in
/// healthy code (dead padding, a one-path use-before-def, an escape into
/// the image, a quarantined file) warns; a structural inconsistency
/// errors. The few checks with a finding of each kind under one category
/// use [`Report::flag_as`] for the minority one.
#[rustfmt::skip]
const TABLE: [(Category, Layer, &str, Severity); 40] = {
    use Severity::{Error, Warning};
    [
        (Category::Undecodable,         Layer::Image,    "undecodable",          Error),
        (Category::Roundtrip,           Layer::Image,    "roundtrip",            Error),
        (Category::SymbolTable,         Layer::Image,    "symbol-table",         Error),
        (Category::EscapedBranch,       Layer::Image,    "escaped-branch",       Warning),
        (Category::UnreachableBlock,    Layer::Image,    "unreachable-block",    Warning),
        (Category::UseBeforeDef,        Layer::Image,    "use-before-def",       Warning),
        (Category::DeadStore,           Layer::Image,    "dead-store",           Warning),
        (Category::UninitRead,          Layer::Image,    "uninit-read",          Warning),
        (Category::ConstBranch,         Layer::Image,    "const-branch",         Warning),
        (Category::StackDiscipline,     Layer::Image,    "stack-discipline",     Warning),
        (Category::BlockStructure,      Layer::Cfg,      "block-structure",      Error),
        (Category::EdgeTarget,          Layer::Cfg,      "edge-target",          Error),
        (Category::FallThrough,         Layer::Cfg,      "fall-through",         Error),
        (Category::EquivMismatch,       Layer::Cfg,      "equiv-mismatch",       Error),
        (Category::FlowConservation,    Layer::Estimate, "flow-conservation",    Error),
        (Category::ConfidenceLabel,     Layer::Estimate, "confidence-label",     Error),
        (Category::FanOutMismatch,      Layer::Estimate, "fan-out-mismatch",     Error),
        (Category::CulpritCompleteness, Layer::Estimate, "culprit-completeness", Error),
        (Category::SummaryBooks,        Layer::Estimate, "summary-books",        Error),
        (Category::FileChecksum,        Layer::Database, "file-checksum",        Error),
        (Category::EpochStructure,      Layer::Database, "epoch-structure",      Error),
        (Category::ImageNameRecord,     Layer::Database, "image-name",           Warning),
        (Category::StaleTemp,           Layer::Database, "stale-temp",           Warning),
        (Category::QuarantinedFile,     Layer::Database, "quarantined-file",     Warning),
        (Category::ObsExport,           Layer::Obs,      "obs-export",           Error),
        (Category::ObsRing,             Layer::Obs,      "obs-ring",             Error),
        (Category::ObsLedger,           Layer::Obs,      "obs-ledger",           Error),
        (Category::ObsTrace,            Layer::Obs,      "obs-trace",            Error),
        (Category::ObsSeries,           Layer::Obs,      "obs-series",           Error),
        (Category::TvStructure,         Layer::Tv,       "tv-structure",         Error),
        (Category::TvControl,           Layer::Tv,       "tv-control",           Error),
        (Category::TvState,             Layer::Tv,       "tv-state",             Error),
        (Category::WalStructure,        Layer::Fleet,    "wal-structure",        Error),
        (Category::SeqGap,              Layer::Fleet,    "seq-gap",              Error),
        (Category::MergeIntent,         Layer::Fleet,    "merge-intent",         Error),
        (Category::FleetDb,             Layer::Fleet,    "fleet-db",             Error),
        (Category::FleetConservation,   Layer::Fleet,    "fleet-conservation",   Error),
        (Category::StackStructure,      Layer::Stacks,   "stack-structure",      Error),
        (Category::StackConservation,   Layer::Stacks,   "stack-conservation",   Error),
        (Category::StackExport,         Layer::Stacks,   "stack-export",         Error),
    ]
};

// Each row sits at its category's discriminant.
const _: () = {
    let mut i = 0;
    while i < TABLE.len() {
        assert!(
            TABLE[i].0 as usize == i,
            "TABLE is out of declaration order"
        );
        i += 1;
    }
};

impl Category {
    /// Every category, in declaration order.
    pub const ALL: [Category; TABLE.len()] = {
        let mut all = [Category::Undecodable; TABLE.len()];
        let mut i = 0;
        while i < TABLE.len() {
            all[i] = TABLE[i].0;
            i += 1;
        }
        all
    };

    /// The layer this category belongs to.
    #[must_use]
    pub fn layer(self) -> Layer {
        TABLE[self as usize].1
    }

    /// A short stable name used in rendered output.
    #[must_use]
    pub fn name(self) -> &'static str {
        TABLE[self as usize].2
    }

    /// The severity [`Report::flag`] gives this category's findings.
    #[must_use]
    pub fn severity(self) -> Severity {
        TABLE[self as usize].3
    }
}

/// One finding, located as precisely as the check allows.
#[derive(Clone, Debug)]
pub struct Diagnostic {
    /// Error or warning.
    pub severity: Severity,
    /// Which check fired.
    pub category: Category,
    /// The procedure (or image pathname for image-wide checks).
    pub context: String,
    /// Byte offset within the image, when the finding has one.
    pub pc: Option<u64>,
    /// Basic-block index, when the finding is block-level.
    pub block: Option<usize>,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}[{}/{}] {}",
            self.severity,
            self.category.layer(),
            self.category.name(),
            self.context
        )?;
        if let Some(pc) = self.pc {
            write!(f, "+{pc:#x}")?;
        }
        if let Some(b) = self.block {
            write!(f, " (block {b})")?;
        }
        write!(f, ": {}", self.message)
    }
}

/// Where a finding is: the procedure, image, file or ring it concerns,
/// and the pc and basic block within it when the check has them.
#[derive(Clone, Copy, Debug)]
pub struct Loc<'a> {
    context: &'a str,
    pc: Option<u64>,
    block: Option<usize>,
}

impl<'a> Loc<'a> {
    /// A finding about `context` as a whole.
    #[must_use]
    pub fn at(context: &'a str) -> Loc<'a> {
        Loc {
            context,
            pc: None,
            block: None,
        }
    }

    /// The same place, at byte offset `pc` within the image.
    #[must_use]
    pub fn pc(self, pc: impl Into<Option<u64>>) -> Loc<'a> {
        Loc {
            pc: pc.into(),
            ..self
        }
    }

    /// The same place, in basic block `block`.
    #[must_use]
    pub fn block(self, block: impl Into<Option<usize>>) -> Loc<'a> {
        Loc {
            block: block.into(),
            ..self
        }
    }
}

/// A bare context (`&str`, `&String`) is a finding about all of it.
impl<'a, S: AsRef<str> + ?Sized> From<&'a S> for Loc<'a> {
    fn from(context: &'a S) -> Loc<'a> {
        Loc::at(context.as_ref())
    }
}

/// A collection of diagnostics from one or more checks.
#[derive(Clone, Debug, Default)]
pub struct Report {
    /// The findings, in discovery order.
    pub diags: Vec<Diagnostic>,
}

impl Report {
    /// An empty report.
    #[must_use]
    pub fn new() -> Report {
        Report::default()
    }

    /// Adds a finding at its category's severity.
    pub fn flag<'a>(
        &mut self,
        category: Category,
        loc: impl Into<Loc<'a>>,
        message: impl Into<String>,
    ) {
        self.flag_as(category.severity(), category, loc, message);
    }

    /// Adds a finding at `severity` rather than its category's: for the
    /// checks whose category holds both a benign and a broken case.
    pub fn flag_as<'a>(
        &mut self,
        severity: Severity,
        category: Category,
        loc: impl Into<Loc<'a>>,
        message: impl Into<String>,
    ) {
        let Loc { context, pc, block } = loc.into();
        self.diags.push(Diagnostic {
            severity,
            category,
            context: context.to_owned(),
            pc,
            block,
            message: message.into(),
        });
    }

    /// Appends another report's findings.
    pub fn merge(&mut self, other: Report) {
        self.diags.extend(other.diags);
    }

    /// Number of error-severity findings.
    #[must_use]
    pub fn errors(&self) -> usize {
        self.diags
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .count()
    }

    /// Number of warning-severity findings.
    #[must_use]
    pub fn warnings(&self) -> usize {
        self.diags
            .iter()
            .filter(|d| d.severity == Severity::Warning)
            .count()
    }

    /// True when no error-severity findings exist.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.errors() == 0
    }

    /// Findings from one layer.
    pub fn layer(&self, layer: Layer) -> impl Iterator<Item = &Diagnostic> {
        self.diags
            .iter()
            .filter(move |d| d.category.layer() == layer)
    }

    /// JSON for machine consumers (`--json`): the tallies plus one
    /// object per finding, one per line.
    #[must_use]
    pub fn to_json(&self) -> String {
        self.json(None)
    }

    /// [`Report::to_json`], with translation validation's `(segments,
    /// proved)` tallies after the schema line when given.
    pub(crate) fn json(&self, tv: Option<(usize, usize)>) -> String {
        let mut doc = Doc::new();
        doc.field("schema", 1_u32);
        if let Some((segments, proved)) = tv {
            doc.field("segments", segments).field("proved", proved);
        }
        doc.field("errors", self.errors())
            .field("warnings", self.warnings())
            .rows("diags", |rows| {
                for d in &self.diags {
                    rows.row(&[
                        ("severity", (&d.severity.to_string()).into()),
                        ("layer", (&d.category.layer().to_string()).into()),
                        ("category", d.category.name().into()),
                        ("context", (&d.context).into()),
                        ("pc", d.pc.into()),
                        ("block", d.block.map(|b| b as u64).into()),
                        ("message", (&d.message).into()),
                    ]);
                }
            });
        doc.finish()
    }

    /// Renders every finding, one per line, plus a closing tally.
    #[must_use]
    pub fn render(&self) -> String {
        use fmt::Write as _;
        let mut out = String::new();
        for d in &self.diags {
            let _ = writeln!(out, "{d}");
        }
        let _ = writeln!(
            out,
            "dcpicheck: {} error(s), {} warning(s)",
            self.errors(),
            self.warnings()
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_location() {
        let d = Diagnostic {
            severity: Severity::Error,
            category: Category::EdgeTarget,
            context: "main".into(),
            pc: Some(0x40),
            block: Some(2),
            message: "taken edge lands mid-block".into(),
        };
        let s = d.to_string();
        assert!(s.contains("error[cfg/edge-target]"));
        assert!(s.contains("main+0x40"));
        assert!(s.contains("(block 2)"));
    }

    #[test]
    fn report_tallies() {
        let mut r = Report::new();
        assert!(r.is_clean());
        r.flag(
            Category::UnreachableBlock,
            Loc::at("f").block(1),
            "dead block",
        );
        assert!(r.is_clean());
        r.flag(Category::Roundtrip, Loc::at("/img").pc(4), "bad word");
        assert!(!r.is_clean());
        assert_eq!(r.errors(), 1);
        assert_eq!(r.warnings(), 1);
        assert_eq!(r.layer(Layer::Image).count(), 2);
        assert_eq!(r.layer(Layer::Cfg).count(), 0);
        assert!(r.render().contains("1 error(s), 1 warning(s)"));
    }

    #[test]
    fn every_category_has_a_layer_and_name() {
        let names: std::collections::BTreeSet<_> = Category::ALL.iter().map(|c| c.name()).collect();
        assert_eq!(names.len(), Category::ALL.len(), "names are unique");
        let layers = [
            Layer::Image,
            Layer::Cfg,
            Layer::Estimate,
            Layer::Database,
            Layer::Obs,
            Layer::Tv,
            Layer::Fleet,
            Layer::Stacks,
        ];
        for layer in layers {
            assert!(
                Category::ALL.iter().any(|c| c.layer() == layer),
                "{layer} has no category"
            );
        }
        for c in Category::ALL {
            let mut r = Report::new();
            r.flag(c, "f", "m");
            let want = format!("{}[{}/{}] f: m", c.severity(), c.layer(), c.name());
            assert_eq!(r.diags[0].to_string(), want);
        }
    }

    #[test]
    fn json_rendering_escapes_and_tallies() {
        let mut r = Report::new();
        let weird = Loc::at("seg \"weird\"").pc(0x10).block(3);
        r.flag(Category::TvState, weird, "r4 diverges");
        let j = r.to_json();
        assert!(j.contains("\"errors\": 1"), "{j}");
        assert!(j.contains("\"category\": \"tv-state\""), "{j}");
        assert!(j.contains("\"pc\": 16"), "{j}");
        // Strings are escaped, not mangled: an independent read gives
        // back exactly what was pushed.
        let hostile = "a\"b,c{d}e\nf\\";
        r.flag_as(Severity::Warning, Category::TvState, hostile, hostile);
        let doc = dcpi_core::json::parse(&r.to_json()).unwrap();
        let diags = doc.array("diags").unwrap();
        assert_eq!(diags[0].string("context"), Ok("seg \"weird\""));
        assert_eq!(diags[0].int::<u64>("block"), Ok(3));
        assert_eq!(diags[1].string("context"), Ok(hostile));
        assert_eq!(diags[1].string("message"), Ok(hostile));
        assert_eq!(diags[1].get("pc"), Some(&dcpi_core::json::Json::Null));
    }
}
