//! Deterministic serialized form of per-procedure analysis results — the
//! input contract for external consumers, first among them `dcpi-pgo`.
//!
//! The estimate structs ([`ProcAnalysis`] and friends) are rich in-memory
//! objects with no stable external shape; this module flattens the parts
//! a transform needs — block/edge frequencies, per-instruction samples,
//! CPI, and culprit letters — into key lists that [`dcpi_core::json::Doc`]
//! lays out like every artifact (one section per member, one row object
//! per line) and reads it back through
//! [`dcpi_core::json::parse`]. `export` → `parse` is a lossless round
//! trip for everything in [`ExportedProc`], whatever the names hold.

use crate::analysis::ProcAnalysis;
use crate::cfg::EdgeKind;
use crate::frequency::Confidence;
use dcpi_core::json::{self, Doc, Json, Value};
use dcpi_core::types::ImageId;

/// Schema version stamped into exports.
pub const SCHEMA: u32 = 1;

/// A basic block with its estimated execution frequency.
#[derive(Clone, Debug, PartialEq)]
pub struct ExportedBlock {
    /// Absolute word index (within the image) of the first instruction.
    pub start_word: u32,
    /// Number of instructions.
    pub len: u32,
    /// Estimated frequency in `S/M` units; negative when unknown.
    pub freq: f64,
}

/// A CFG edge with its estimated traversal frequency.
#[derive(Clone, Debug, PartialEq)]
pub struct ExportedEdge {
    /// Source block index within the procedure.
    pub from: usize,
    /// Destination block index within the procedure.
    pub to: usize,
    /// How control flows.
    pub kind: EdgeKind,
    /// Estimated frequency in `S/M` units; negative when unknown.
    pub freq: f64,
}

/// One instruction's estimates.
#[derive(Clone, Debug, PartialEq)]
pub struct ExportedInsn {
    /// Byte offset within the image.
    pub offset: u64,
    /// Raw CYCLES samples attributed to the instruction.
    pub samples: u64,
    /// Static minimum head-of-queue cycles `M_i`.
    pub m: u64,
    /// Estimated frequency in `S/M` units.
    pub freq: f64,
    /// Estimated cycles per execution.
    pub cpi: f64,
    /// Estimate confidence: `"low"`, `"medium"`, `"high"`, or `"none"`.
    pub confidence: String,
    /// Concatenated dynamic-culprit letters (e.g. `"iD"`), possibly empty.
    pub culprits: String,
}

/// Everything a consumer needs to transform one procedure.
#[derive(Clone, Debug, PartialEq)]
pub struct ExportedProc {
    /// Image the procedure belongs to.
    pub image: u32,
    /// Image pathname.
    pub image_name: String,
    /// Procedure name.
    pub name: String,
    /// Absolute word index of the procedure's first instruction.
    pub start_word: u32,
    /// Procedure length in words.
    pub len_words: u32,
    /// True when the CFG has unresolved indirect flow, so frequency
    /// estimates may not balance.
    pub missing_edges: bool,
    /// Total CYCLES samples over the procedure.
    pub total_samples: u64,
    /// Blocks, in `BlockId` order.
    pub blocks: Vec<ExportedBlock>,
    /// Edges, in CFG edge order.
    pub edges: Vec<ExportedEdge>,
    /// Instructions, in address order.
    pub insns: Vec<ExportedInsn>,
}

impl ExportedProc {
    /// The exported frequency of the block starting at absolute word
    /// `start_word`, if any.
    #[must_use]
    pub fn block_freq_at(&self, start_word: u32) -> Option<f64> {
        self.blocks
            .iter()
            .find(|b| b.start_word == start_word)
            .map(|b| b.freq)
    }
}

fn kind_name(kind: EdgeKind) -> &'static str {
    match kind {
        EdgeKind::FallThrough => "fall",
        EdgeKind::Taken => "taken",
        EdgeKind::Indirect => "indirect",
    }
}

fn kind_parse(s: &str) -> Option<EdgeKind> {
    match s {
        "fall" => Some(EdgeKind::FallThrough),
        "taken" => Some(EdgeKind::Taken),
        "indirect" => Some(EdgeKind::Indirect),
        _ => None,
    }
}

fn confidence_name(c: Option<Confidence>) -> &'static str {
    match c {
        Some(Confidence::Low) => "low",
        Some(Confidence::Medium) => "medium",
        Some(Confidence::High) => "high",
        None => "none",
    }
}

/// Flattens analysis results into [`ExportedProc`]s.
#[must_use]
pub fn flatten(items: &[(ImageId, &str, &ProcAnalysis)]) -> Vec<ExportedProc> {
    items
        .iter()
        .map(|(id, image_name, pa)| {
            let freq_of = |est: &Option<crate::frequency::FrequencyEstimate>| {
                est.as_ref().map_or(-1.0, |e| e.value)
            };
            let blocks = pa
                .cfg
                .blocks
                .iter()
                .enumerate()
                .map(|(i, b)| ExportedBlock {
                    start_word: b.start_word,
                    len: b.len,
                    freq: freq_of(pa.frequencies.block_freq.get(i).unwrap_or(&None)),
                })
                .collect();
            let edges = pa
                .cfg
                .edges
                .iter()
                .enumerate()
                .map(|(i, e)| ExportedEdge {
                    from: e.from.0,
                    to: e.to.0,
                    kind: e.kind,
                    freq: freq_of(pa.frequencies.edge_freq.get(i).unwrap_or(&None)),
                })
                .collect();
            let insns = pa
                .insns
                .iter()
                .map(|ia| ExportedInsn {
                    offset: ia.offset,
                    samples: ia.samples,
                    m: ia.m,
                    freq: ia.freq,
                    cpi: ia.cpi,
                    confidence: confidence_name(ia.confidence).to_string(),
                    culprits: ia.culprits.iter().map(|c| c.cause.letter()).collect(),
                })
                .collect();
            ExportedProc {
                image: id.0,
                image_name: (*image_name).to_string(),
                name: pa.name.clone(),
                start_word: pa.cfg.start_word,
                len_words: pa.cfg.insns.len() as u32,
                missing_edges: pa.cfg.missing_edges,
                total_samples: pa.insns.iter().map(|i| i.samples).sum(),
                blocks,
                edges,
                insns,
            }
        })
        .collect()
}

/// Serializes flattened procedures as JSON, one row object per line.
#[must_use]
pub fn render(procs: &[ExportedProc]) -> String {
    let mut doc = Doc::new();
    doc.field("schema", SCHEMA)
        .rows("procs", |rows| {
            for (pi, p) in procs.iter().enumerate() {
                rows.row(&[
                    ("proc", pi.into()),
                    ("image", p.image.into()),
                    ("image_name", (&p.image_name).into()),
                    ("name", (&p.name).into()),
                    ("start_word", p.start_word.into()),
                    ("len_words", p.len_words.into()),
                    ("missing_edges", Value::Int(p.missing_edges.into())),
                    ("total_samples", p.total_samples.into()),
                ]);
            }
        })
        .rows("blocks", |rows| {
            for (pi, p) in procs.iter().enumerate() {
                for b in &p.blocks {
                    rows.row(&[
                        ("proc", pi.into()),
                        ("start_word", b.start_word.into()),
                        ("len", b.len.into()),
                        ("freq", estimate(b.freq)),
                    ]);
                }
            }
        })
        .rows("edges", |rows| {
            for (pi, p) in procs.iter().enumerate() {
                for e in &p.edges {
                    rows.row(&[
                        ("proc", pi.into()),
                        ("from", e.from.into()),
                        ("to", e.to.into()),
                        ("kind", kind_name(e.kind).into()),
                        ("freq", estimate(e.freq)),
                    ]);
                }
            }
        })
        .rows("insns", |rows| {
            for (pi, p) in procs.iter().enumerate() {
                for i in &p.insns {
                    rows.row(&[
                        ("proc", pi.into()),
                        ("offset", i.offset.into()),
                        ("samples", i.samples.into()),
                        ("m", i.m.into()),
                        ("freq", estimate(i.freq)),
                        ("cpi", estimate(i.cpi)),
                        ("confidence", (&i.confidence).into()),
                        ("culprits", (&i.culprits).into()),
                    ]);
                }
            }
        });
    doc.finish()
}

/// Estimates are written to six decimals.
fn estimate(x: f64) -> Value<'static> {
    Value::Fixed(x, 6)
}

/// Flattens and serializes in one step.
#[must_use]
pub fn export(items: &[(ImageId, &str, &ProcAnalysis)]) -> String {
    render(&flatten(items))
}

/// Parses a serialized export back into [`ExportedProc`]s.
///
/// # Errors
///
/// Text that is not JSON, not an export of this [`SCHEMA`], or holds a
/// malformed, out-of-order or orphaned row; the message names the
/// offending member.
pub fn parse(text: &str) -> Result<Vec<ExportedProc>, String> {
    let doc = json::parse(text)?;
    doc.expect_schema("estimates export", SCHEMA)?;
    let mut procs: Vec<ExportedProc> = Vec::new();
    doc.each("procs", |row| {
        let pi: usize = row.int("proc")?;
        if pi != procs.len() {
            return Err(format!("out-of-order proc index {pi}"));
        }
        procs.push(ExportedProc {
            image: row.int("image")?,
            image_name: row.string("image_name")?.into(),
            name: row.string("name")?.into(),
            start_word: row.int("start_word")?,
            len_words: row.int("len_words")?,
            missing_edges: row.int::<u8>("missing_edges")? != 0,
            total_samples: row.int("total_samples")?,
            blocks: Vec::new(),
            edges: Vec::new(),
            insns: Vec::new(),
        });
        Ok(())
    })?;
    // The procedure a block/edge/insn row belongs to.
    fn owner<'a>(
        procs: &'a mut [ExportedProc],
        row: &Json,
    ) -> Result<&'a mut ExportedProc, String> {
        let pi: usize = row.int("proc")?;
        procs
            .get_mut(pi)
            .ok_or_else(|| format!("row for proc {pi}, which has no header"))
    }
    doc.each("blocks", |row| {
        owner(&mut procs, row)?.blocks.push(ExportedBlock {
            start_word: row.int("start_word")?,
            len: row.int("len")?,
            freq: row.float("freq")?,
        });
        Ok(())
    })?;
    doc.each("edges", |row| {
        owner(&mut procs, row)?.edges.push(ExportedEdge {
            from: row.int("from")?,
            to: row.int("to")?,
            kind: kind_parse(row.string("kind")?)
                .ok_or("\"kind\" is not fall, taken or indirect")?,
            freq: row.float("freq")?,
        });
        Ok(())
    })?;
    doc.each("insns", |row| {
        owner(&mut procs, row)?.insns.push(ExportedInsn {
            offset: row.int("offset")?,
            samples: row.int("samples")?,
            m: row.int("m")?,
            freq: row.float("freq")?,
            cpi: row.float("cpi")?,
            confidence: row.string("confidence")?.into(),
            culprits: row.string("culprits")?.into(),
        });
        Ok(())
    })?;
    Ok(procs)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_procs() -> Vec<ExportedProc> {
        vec![
            ExportedProc {
                image: 1,
                image_name: "/bin/app".into(),
                name: "main".into(),
                start_word: 0,
                len_words: 8,
                missing_edges: false,
                total_samples: 42,
                blocks: vec![
                    ExportedBlock {
                        start_word: 0,
                        len: 5,
                        freq: 12.5,
                    },
                    ExportedBlock {
                        start_word: 5,
                        len: 3,
                        freq: -1.0,
                    },
                ],
                edges: vec![
                    ExportedEdge {
                        from: 0,
                        to: 1,
                        kind: EdgeKind::FallThrough,
                        freq: 12.0,
                    },
                    ExportedEdge {
                        from: 0,
                        to: 0,
                        kind: EdgeKind::Taken,
                        freq: 0.5,
                    },
                ],
                insns: vec![ExportedInsn {
                    offset: 0,
                    samples: 7,
                    m: 2,
                    freq: 3.5,
                    cpi: 2.0,
                    confidence: "high".into(),
                    culprits: "iD".into(),
                }],
            },
            ExportedProc {
                image: 1,
                image_name: "/bin/app".into(),
                name: "helper".into(),
                start_word: 8,
                len_words: 1,
                missing_edges: true,
                total_samples: 0,
                blocks: vec![ExportedBlock {
                    start_word: 8,
                    len: 1,
                    freq: -1.0,
                }],
                edges: vec![],
                insns: vec![],
            },
        ]
    }

    #[test]
    fn render_parse_roundtrips() {
        let procs = sample_procs();
        let json = render(&procs);
        let back = parse(&json).unwrap();
        assert_eq!(back, procs);
    }

    #[test]
    fn render_is_deterministic() {
        let procs = sample_procs();
        assert_eq!(render(&procs), render(&procs));
    }

    #[test]
    fn hostile_names_roundtrip_exactly() {
        let mut procs = sample_procs();
        procs[0].image_name = "a\"b,c{d}e\nf\\".into();
        procs[0].name = "\\\"}],\u{1}\t".into();
        procs[0].insns[0].culprits = "{\"".into();
        procs[0].insns[0].offset = u64::MAX;
        let json = render(&procs);
        assert_eq!(parse(&json).unwrap(), procs);
        assert_eq!(render(&parse(&json).unwrap()), json);
    }

    #[test]
    fn parse_rejects_what_is_not_an_export() {
        assert!(parse("garbage").is_err());
        assert!(parse("").is_err());
        assert!(parse("{}").unwrap_err().contains("schema"));
        let other_schema = render(&sample_procs()).replacen("\"schema\": 1", "\"schema\": 2", 1);
        assert!(parse(&other_schema).unwrap_err().contains("schema 2"));
        // A section gone missing is not an empty section.
        assert_eq!(parse("{\"schema\": 1}").unwrap_err(), "missing \"procs\"");
    }

    #[test]
    fn parse_rejects_orphan_and_out_of_order_rows() {
        let orphan = "{\n  \"schema\": 1,\n  \"procs\": [],\n  \"blocks\": [\n    \
                      {\"proc\": 0, \"start_word\": 0, \"len\": 1, \"freq\": 1.0}\n  ],\n  \
                      \"edges\": [],\n  \"insns\": []\n}\n";
        assert!(parse(orphan).unwrap_err().contains("no header"));
        let json = render(&sample_procs());
        let swapped = json.replacen("{\"proc\": 0,", "{\"proc\": 9,", 1).replacen(
            "{\"proc\": 1,",
            "{\"proc\": 0,",
            1,
        );
        assert!(parse(&swapped).unwrap_err().contains("out-of-order"));
    }

    #[test]
    fn block_freq_lookup_by_start_word() {
        let p = &sample_procs()[0];
        assert_eq!(p.block_freq_at(5), Some(-1.0));
        assert_eq!(p.block_freq_at(99), None);
    }
}
