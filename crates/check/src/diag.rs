//! Diagnostic types: everything `dcpicheck` reports is a [`Diagnostic`]
//! collected into a [`Report`].

use dcpi_core::json::quote;
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
    /// PGO rewrite audits: address maps, branch retargeting, block-head
    /// alignment of control flow in rewritten images.
    Pgo,
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
            Layer::Pgo => write!(f, "pgo"),
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
    /// Metric invariant violations (e.g. histogram count vs buckets).
    ObsMetrics,
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
    /// Old→new address-map violations: not a bijection over live words,
    /// schema/shape problems, or maps that escape either image.
    PgoMap,
    /// A rewritten branch whose target does not land where the map says
    /// the old target moved, or lands off a block head.
    PgoTarget,
    /// Rewritten-image structure violations: undecodable words, mapped
    /// words whose instruction changed beyond the allowed rewrites, or
    /// unmapped words that are not inert padding/glue.
    PgoRewrite,
    /// Translation-validation structure: old/new segments interleave,
    /// glue does not resolve, or the map breaks segment contiguity.
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

impl Category {
    /// The layer this category belongs to.
    #[must_use]
    pub fn layer(self) -> Layer {
        match self {
            Category::Undecodable
            | Category::Roundtrip
            | Category::SymbolTable
            | Category::EscapedBranch
            | Category::UnreachableBlock
            | Category::UseBeforeDef
            | Category::DeadStore
            | Category::UninitRead
            | Category::ConstBranch
            | Category::StackDiscipline => Layer::Image,
            Category::BlockStructure
            | Category::EdgeTarget
            | Category::FallThrough
            | Category::EquivMismatch => Layer::Cfg,
            Category::FlowConservation
            | Category::ConfidenceLabel
            | Category::FanOutMismatch
            | Category::CulpritCompleteness
            | Category::SummaryBooks => Layer::Estimate,
            Category::FileChecksum
            | Category::EpochStructure
            | Category::ImageNameRecord
            | Category::StaleTemp
            | Category::QuarantinedFile => Layer::Database,
            Category::ObsExport
            | Category::ObsRing
            | Category::ObsMetrics
            | Category::ObsLedger
            | Category::ObsTrace
            | Category::ObsSeries => Layer::Obs,
            Category::PgoMap | Category::PgoTarget | Category::PgoRewrite => Layer::Pgo,
            Category::TvStructure | Category::TvControl | Category::TvState => Layer::Tv,
            Category::WalStructure
            | Category::SeqGap
            | Category::MergeIntent
            | Category::FleetDb
            | Category::FleetConservation => Layer::Fleet,
            Category::StackStructure | Category::StackConservation | Category::StackExport => {
                Layer::Stacks
            }
        }
    }

    /// A short stable name used in rendered output.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Category::Undecodable => "undecodable",
            Category::Roundtrip => "roundtrip",
            Category::SymbolTable => "symbol-table",
            Category::EscapedBranch => "escaped-branch",
            Category::UnreachableBlock => "unreachable-block",
            Category::UseBeforeDef => "use-before-def",
            Category::DeadStore => "dead-store",
            Category::UninitRead => "uninit-read",
            Category::ConstBranch => "const-branch",
            Category::StackDiscipline => "stack-discipline",
            Category::BlockStructure => "block-structure",
            Category::EdgeTarget => "edge-target",
            Category::FallThrough => "fall-through",
            Category::EquivMismatch => "equiv-mismatch",
            Category::FlowConservation => "flow-conservation",
            Category::ConfidenceLabel => "confidence-label",
            Category::FanOutMismatch => "fan-out-mismatch",
            Category::CulpritCompleteness => "culprit-completeness",
            Category::SummaryBooks => "summary-books",
            Category::FileChecksum => "file-checksum",
            Category::EpochStructure => "epoch-structure",
            Category::ImageNameRecord => "image-name",
            Category::StaleTemp => "stale-temp",
            Category::QuarantinedFile => "quarantined-file",
            Category::ObsExport => "obs-export",
            Category::ObsRing => "obs-ring",
            Category::ObsMetrics => "obs-metrics",
            Category::ObsLedger => "obs-ledger",
            Category::ObsTrace => "obs-trace",
            Category::ObsSeries => "obs-series",
            Category::PgoMap => "pgo-map",
            Category::PgoTarget => "pgo-target",
            Category::PgoRewrite => "pgo-rewrite",
            Category::TvStructure => "tv-structure",
            Category::TvControl => "tv-control",
            Category::TvState => "tv-state",
            Category::WalStructure => "wal-structure",
            Category::SeqGap => "seq-gap",
            Category::MergeIntent => "merge-intent",
            Category::FleetDb => "fleet-db",
            Category::FleetConservation => "fleet-conservation",
            Category::StackStructure => "stack-structure",
            Category::StackConservation => "stack-conservation",
            Category::StackExport => "stack-export",
        }
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

    /// Adds a finding.
    pub fn push(
        &mut self,
        severity: Severity,
        category: Category,
        context: impl Into<String>,
        pc: Option<u64>,
        block: Option<usize>,
        message: impl Into<String>,
    ) {
        self.diags.push(Diagnostic {
            severity,
            category,
            context: context.into(),
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
        use fmt::Write as _;
        fn opt(v: Option<u64>) -> String {
            v.map_or_else(|| "null".to_string(), |v| v.to_string())
        }
        let mut s = String::new();
        s.push_str("{\n");
        let _ = writeln!(s, "  \"schema\": 1,");
        let _ = writeln!(s, "  \"errors\": {},", self.errors());
        let _ = writeln!(s, "  \"warnings\": {},", self.warnings());
        let _ = writeln!(s, "  \"diags\": [");
        for (i, d) in self.diags.iter().enumerate() {
            let comma = if i + 1 < self.diags.len() { "," } else { "" };
            let _ = writeln!(
                s,
                "    {{\"severity\": {}, \"layer\": {}, \"category\": {}, \
                 \"context\": {}, \"pc\": {}, \"block\": {}, \"message\": {}}}{comma}",
                quote(&d.severity.to_string()),
                quote(&d.category.layer().to_string()),
                quote(d.category.name()),
                quote(&d.context),
                opt(d.pc),
                opt(d.block.map(|b| b as u64)),
                quote(&d.message),
            );
        }
        let _ = writeln!(s, "  ]");
        s.push_str("}\n");
        s
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
        r.push(
            Severity::Warning,
            Category::UnreachableBlock,
            "f",
            None,
            Some(1),
            "dead block",
        );
        assert!(r.is_clean());
        r.push(
            Severity::Error,
            Category::Roundtrip,
            "/img",
            Some(4),
            None,
            "bad word",
        );
        assert!(!r.is_clean());
        assert_eq!(r.errors(), 1);
        assert_eq!(r.warnings(), 1);
        assert_eq!(r.layer(Layer::Image).count(), 2);
        assert_eq!(r.layer(Layer::Cfg).count(), 0);
        assert!(r.render().contains("1 error(s), 1 warning(s)"));
    }

    #[test]
    fn every_category_has_a_layer_and_name() {
        let all = [
            Category::Undecodable,
            Category::Roundtrip,
            Category::SymbolTable,
            Category::EscapedBranch,
            Category::UnreachableBlock,
            Category::UseBeforeDef,
            Category::DeadStore,
            Category::UninitRead,
            Category::ConstBranch,
            Category::StackDiscipline,
            Category::BlockStructure,
            Category::EdgeTarget,
            Category::FallThrough,
            Category::EquivMismatch,
            Category::FlowConservation,
            Category::ConfidenceLabel,
            Category::FanOutMismatch,
            Category::CulpritCompleteness,
            Category::SummaryBooks,
            Category::FileChecksum,
            Category::EpochStructure,
            Category::ImageNameRecord,
            Category::StaleTemp,
            Category::QuarantinedFile,
            Category::ObsExport,
            Category::ObsRing,
            Category::ObsMetrics,
            Category::ObsLedger,
            Category::ObsTrace,
            Category::ObsSeries,
            Category::PgoMap,
            Category::PgoTarget,
            Category::PgoRewrite,
            Category::TvStructure,
            Category::TvControl,
            Category::TvState,
        ];
        for c in all {
            assert!(!c.name().is_empty());
            let _ = c.layer();
        }
    }

    #[test]
    fn json_rendering_escapes_and_tallies() {
        let mut r = Report::new();
        r.push(
            Severity::Error,
            Category::TvState,
            "seg \"weird\"",
            Some(0x10),
            Some(3),
            "r4 diverges",
        );
        let j = r.to_json();
        assert!(j.contains("\"errors\": 1"), "{j}");
        assert!(j.contains("\"category\": \"tv-state\""), "{j}");
        assert!(j.contains("\"pc\": 16"), "{j}");
        // Strings are escaped, not mangled: an independent read gives
        // back exactly what was pushed.
        let hostile = "a\"b,c{d}e\nf\\";
        r.push(
            Severity::Warning,
            Category::TvState,
            hostile,
            None,
            None,
            hostile,
        );
        let doc = dcpi_core::json::parse(&r.to_json()).unwrap();
        let diags = doc.array("diags").unwrap();
        assert_eq!(diags[0].string("context"), Ok("seg \"weird\""));
        assert_eq!(diags[0].int::<u64>("block"), Ok(3));
        assert_eq!(diags[1].string("context"), Ok(hostile));
        assert_eq!(diags[1].string("message"), Ok(hostile));
        assert_eq!(diags[1].get("pc"), Some(&dcpi_core::json::Json::Null));
    }
}
