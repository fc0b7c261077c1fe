//! Speedscope-format JSON export.
//!
//! Serializes a [`StackProfile`] to the speedscope file format
//! (<https://www.speedscope.app/file-format-schema.json>), `"sampled"`
//! profile type: a shared frame table plus one `(samples, weights)` pair
//! per exported event. The document is built as a [`Json`] value and
//! printed in its compact form, one line, and read back through
//! [`dcpi_core::json`], whose reader is re-exported here as
//! [`parse_json`]/[`Json`] for the schema audit's callers.
//!
//! Output is byte-deterministic for a given profile: frames appear in
//! first-use order over ascending stack IDs, samples in stack-ID order,
//! and all numbers are integers.

use crate::profile::StackProfile;
use crate::table::Frame;
pub use dcpi_core::json::{parse as parse_json, Json};
use dcpi_core::Event;
use std::collections::HashMap;

const SCHEMA_URL: &str = "https://www.speedscope.app/file-format-schema.json";

/// Serializes `profile`'s counts for `event` (summed across processes)
/// to a speedscope JSON document. `frame_name` symbolizes frames; equal
/// names collapse into one shared frame entry, exactly how speedscope
/// merges flamegraph cells.
#[must_use]
pub fn export(
    profile: &StackProfile,
    event: Event,
    name: &str,
    frame_name: &dyn Fn(Frame) -> String,
) -> String {
    // Aggregate counts per stack ID for the event, in ID order.
    let code = event.code();
    let mut per_stack: Vec<(u32, u64)> = Vec::new();
    for (&(e, _pid, id), &count) in &profile.counts {
        if e != code {
            continue;
        }
        match per_stack.binary_search_by_key(&id, |&(i, _)| i) {
            Ok(at) => per_stack[at].1 += count,
            Err(at) => per_stack.insert(at, (id, count)),
        }
    }
    // Shared frame table in first-use order.
    let mut frame_index: HashMap<String, u64> = HashMap::new();
    let mut frames: Vec<Json> = Vec::new();
    let mut samples: Vec<Json> = Vec::with_capacity(per_stack.len());
    let mut weights: Vec<Json> = Vec::with_capacity(per_stack.len());
    let mut total = 0u64;
    for &(id, count) in &per_stack {
        let idxs = profile
            .table
            .frames(id)
            .into_iter()
            .map(|f| {
                let n = frame_name(f);
                let i = match frame_index.get(&n) {
                    Some(&i) => i,
                    None => {
                        let i = frames.len() as u64;
                        frame_index.insert(n.clone(), i);
                        frames.push(obj(vec![("name", Json::Str(n))]));
                        i
                    }
                };
                Json::Int(i)
            })
            .collect();
        samples.push(Json::Arr(idxs));
        weights.push(Json::Int(count));
        total += count;
    }
    obj(vec![
        ("$schema", Json::Str(SCHEMA_URL.into())),
        ("shared", obj(vec![("frames", Json::Arr(frames))])),
        (
            "profiles",
            Json::Arr(vec![obj(vec![
                ("type", Json::Str("sampled".into())),
                ("name", Json::Str(format!("{name} ({})", event.name()))),
                ("unit", Json::Str("none".into())),
                ("startValue", Json::Int(0)),
                ("endValue", Json::Int(total)),
                ("samples", Json::Arr(samples)),
                ("weights", Json::Arr(weights)),
            ])]),
        ),
        ("exporter", Json::Str("dcpi-stacks".into())),
        ("name", Json::Str(name.into())),
    ])
    .to_string()
}

/// An object from its members, in order.
fn obj(members: Vec<(&str, Json)>) -> Json {
    Json::Obj(members.into_iter().map(|(k, v)| (k.into(), v)).collect())
}

/// Structural audit of an exported speedscope document: schema URL,
/// frame-index bounds, and samples/weights length agreement.
///
/// # Errors
///
/// Returns the first structural violation found.
pub fn check_schema(doc: &str) -> Result<(), String> {
    let v = parse_json(doc)?;
    if v.string("$schema")? != SCHEMA_URL {
        return Err("wrong $schema URL".into());
    }
    let shared = v.member("shared")?;
    let frames = shared.array("frames")?;
    shared.each("frames", |f| f.string("name").map(drop))?;
    let profiles = v.array("profiles")?;
    if profiles.is_empty() {
        return Err("no profiles".into());
    }
    for p in profiles {
        if p.string("type")? != "sampled" {
            return Err("profile type must be \"sampled\"".into());
        }
        let samples = p.array("samples")?;
        let weights = p.array("weights")?;
        if samples.len() != weights.len() {
            return Err(format!(
                "samples ({}) and weights ({}) disagree",
                samples.len(),
                weights.len()
            ));
        }
        let mut total = 0u64;
        for w in weights {
            total = w
                .as_u64()
                .and_then(|w| total.checked_add(w))
                .ok_or("weights are not unsigned integers summing within u64")?;
        }
        let end: u64 = p.int("endValue")?;
        if total != end {
            return Err(format!("endValue {end} != total weight {total}"));
        }
        for s in samples {
            for idx in s.items().ok_or("sample is not an array")? {
                match idx.as_u64() {
                    Some(i) if i < frames.len() as u64 => {}
                    _ => return Err(format!("frame index {idx:?} out of bounds")),
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcpi_core::{ImageId, Pid};

    fn f(offset: u64) -> Frame {
        Frame {
            image: ImageId(0),
            offset,
        }
    }

    fn profile() -> StackProfile {
        let mut p = StackProfile::new();
        p.record(0, Pid(1), &[f(0), f(16)], 4);
        p.record(0, Pid(2), &[f(0), f(16), f(32)], 2);
        p.record(0, Pid(1), &[f(0)], 1);
        p
    }

    fn namer(fr: Frame) -> String {
        format!("proc_{}", fr.offset)
    }

    #[test]
    fn export_passes_schema_check() {
        let doc = export(&profile(), Event::Cycles, "test \"run\"", &namer);
        check_schema(&doc).unwrap();
    }

    #[test]
    fn export_is_deterministic() {
        let a = export(&profile(), Event::Cycles, "t", &namer);
        let b = export(&profile(), Event::Cycles, "t", &namer);
        assert_eq!(a, b);
    }

    #[test]
    fn export_structure_roundtrips() {
        let doc = export(&profile(), Event::Cycles, "t", &namer);
        let v = parse_json(&doc).unwrap();
        let frames = v.get("shared").unwrap().get("frames").unwrap();
        assert_eq!(frames.items().unwrap().len(), 3);
        let p = &v.get("profiles").unwrap().items().unwrap()[0];
        assert_eq!(p.get("endValue").unwrap().num(), Some(7.0));
        let samples = p.get("samples").unwrap().items().unwrap();
        let weights = p.get("weights").unwrap().items().unwrap();
        assert_eq!(samples.len(), 3);
        assert_eq!(weights.len(), 3);
        // Pids merge: the [f0,f16] stack appears once with weight 4.
        assert!(weights.contains(&Json::Int(4)));
    }

    #[test]
    fn parser_rejects_malformation() {
        assert!(parse_json("{").is_err());
        assert!(parse_json("{}x").is_err());
        assert!(parse_json("[1,]").is_err());
        assert!(parse_json("\"unterminated").is_err());
        assert!(parse_json("{\"a\"1}").is_err());
        // Nesting is capped by the reader, not by the stack.
        assert!(parse_json(&"[".repeat(200_000)).is_err());
    }

    #[test]
    fn schema_check_catches_length_mismatch() {
        let doc = export(&profile(), Event::Cycles, "t", &namer);
        let broken = doc.replacen("\"weights\":[", "\"weights\":[999,", 1);
        assert!(check_schema(&broken).is_err());
    }

    #[test]
    fn empty_event_exports_cleanly() {
        let doc = export(&profile(), Event::DMiss, "t", &namer);
        check_schema(&doc).unwrap();
        let v = parse_json(&doc).unwrap();
        let p = &v.get("profiles").unwrap().items().unwrap()[0];
        assert_eq!(p.get("endValue").unwrap().num(), Some(0.0));
    }
}
