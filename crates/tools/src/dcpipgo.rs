//! dcpipgo: the profile → optimize → re-profile driver.
//!
//! Runs a Table 2 workload through `dcpi-workloads`' PGO harness,
//! writes every artifact of the loop to a working directory, and renders
//! (or JSON-encodes) the delta with the translation validator's tally:
//! the harness's `optimize` has already proved the rewrite.
//! This is the tool form of the paper's stated goal — "the ultimate
//! goal is to use the profiles to improve performance" — turned into a
//! single reproducible command.

use dcpi_core::json::{Doc, Value};
use dcpi_workloads::{PgoOutcome, Workload};
use std::fmt::Write as _;
use std::path::Path;

/// Parses a workload name as printed by [`Workload::name`].
#[must_use]
pub fn parse_workload(name: &str) -> Option<Workload> {
    Workload::ALL.into_iter().find(|w| w.name() == name)
}

/// The delta artifact: one JSON object, a member per line, describing
/// what the loop measured.
#[must_use]
pub fn delta_json(out: &PgoOutcome) -> String {
    let r = &out.report;
    let mut doc = Doc::new();
    doc.field("schema", 1_u32)
        .field("workload", &out.workload.name())
        .field("image", &out.image_name)
        .field("procs_analyzed", out.procs_analyzed)
        .field("base_cycles", out.base_cycles)
        .field("opt_cycles", out.opt_cycles)
        .field("speedup_pct", Value::Fixed(out.speedup_pct(), 4))
        .field("equivalent", out.equivalent)
        .field("statically_valid", r.validated)
        .field("tv_segments", r.tv_segments)
        .field("tv_proved", r.tv_proved)
        .field("procs_laid_out", r.procs_laid_out)
        .field("packed", r.packed)
        .field("blocks_moved", r.blocks_moved)
        .field("branches_inverted", r.branches_inverted)
        .field("branches_added", r.branches_added)
        .field("pad_words", r.pad_words)
        .field("blocks_rescheduled", r.blocks_rescheduled)
        .field("call_patches", r.call_patches)
        .field("old_words", r.old_words)
        .field("new_words", r.new_words);
    doc.finish()
}

/// Writes the loop's artifacts into `dir` (created if missing):
/// `old.img`, `new.img`, `map.json`, `estimates.json`, `delta.json`.
///
/// # Errors
///
/// Any filesystem error, annotated with the file it struck.
pub fn write_artifacts(dir: &Path, out: &PgoOutcome) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let put = |name: &str, bytes: &[u8]| -> Result<(), String> {
        let path = dir.join(name);
        std::fs::write(&path, bytes).map_err(|e| format!("write {}: {e}", path.display()))
    };
    put("old.img", &out.old_image.to_bytes())?;
    put("new.img", &out.new_image.to_bytes())?;
    put("map.json", out.map.to_json().as_bytes())?;
    put("estimates.json", out.estimates.as_bytes())?;
    put("delta.json", delta_json(out).as_bytes())?;
    Ok(())
}

/// The human-readable report: what moved, what it bought, and how many
/// segments translation validation proved.
#[must_use]
pub fn render(out: &PgoOutcome) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "dcpipgo: {} ({} procs analyzed from {})",
        out.workload.name(),
        out.procs_analyzed,
        out.image_name,
    );
    s.push_str(&out.report.render());
    let _ = writeln!(
        s,
        "cycles: {} -> {} ({:+.2}%)",
        out.base_cycles,
        out.opt_cycles,
        -out.speedup_pct(),
    );
    let _ = writeln!(
        s,
        "equivalent: {}; statically valid: {} (tv proved {}/{} segments)",
        out.equivalent, out.report.validated, out.report.tv_proved, out.report.tv_segments,
    );
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcpi_isa::image::{Image, Symbol};
    use dcpi_isa::AddressMap;
    use dcpi_pgo::PgoReport;
    use dcpi_testkit::TempRoot;

    fn fake_outcome() -> PgoOutcome {
        let img = Image::new(
            "/t/app".into(),
            vec![dcpi_isa::encode::encode(dcpi_isa::Instruction::CallPal {
                func: dcpi_isa::insn::PalFunc::Halt,
            })],
            vec![Symbol {
                name: "main".into(),
                offset: 0,
                size: 4,
            }],
        );
        PgoOutcome {
            workload: Workload::Gcc,
            image_name: "/t/app".into(),
            estimates: "{}\n".into(),
            procs_analyzed: 2,
            old_image: img.clone(),
            new_image: img.clone(),
            map: AddressMap::identity("/t/app", "/t/app.pgo", 1),
            report: PgoReport {
                procs: 2,
                blocks_moved: 3,
                validated: true,
                tv_segments: 4,
                tv_proved: 4,
                ..PgoReport::default()
            },
            base_cycles: 1000,
            opt_cycles: 950,
            equivalent: true,
        }
    }

    #[test]
    fn workload_names_roundtrip() {
        for w in Workload::ALL {
            assert_eq!(parse_workload(&w.name()), Some(w));
        }
        assert_eq!(parse_workload("no-such-workload"), None);
    }

    #[test]
    fn delta_json_has_no_baseline_key() {
        let j = delta_json(&fake_outcome());
        assert!(j.contains("\"speedup_pct\": 5.0000"));
        assert!(j.contains("\"equivalent\": true"));
        assert!(j.contains("\"statically_valid\": true"));
        assert!(j.contains("\"tv_segments\": 4") && j.contains("\"tv_proved\": 4"));
        assert!(
            !j.contains("mcycles_per_s"),
            "delta rows must not look like throughput baselines"
        );
    }

    #[test]
    fn artifacts_roundtrip_from_disk() {
        let out = fake_outcome();
        let dir = TempRoot::new("dcpipgo-artifacts");
        write_artifacts(&dir, &out).unwrap();
        let old = Image::from_bytes(&std::fs::read(dir.join("old.img")).unwrap()).unwrap();
        assert_eq!(old.name(), "/t/app");
        let map =
            AddressMap::parse(&std::fs::read_to_string(dir.join("map.json")).unwrap()).unwrap();
        assert_eq!(map.len(), 1);
        assert!(dir.join("delta.json").exists() && dir.join("estimates.json").exists());
    }

    #[test]
    fn render_mentions_cycles_and_the_tv_tally() {
        let s = render(&fake_outcome());
        assert!(s.contains("1000 -> 950"));
        assert!(s.contains("equivalent: true; statically valid: true (tv proved 4/4 segments)"));
        assert!(!s.contains("audit"));
    }
}
