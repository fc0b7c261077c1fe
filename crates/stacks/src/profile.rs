//! Aggregated calling-context profiles and their serialized form.
//!
//! A [`StackProfile`] is the daemon-side (and fleet-side) aggregate: a
//! canonical [`StackTable`] over `(image, offset)` frames plus counts
//! keyed by `(event, pid, stack_id)`. It serializes to a compact binary
//! form (`DCST` magic) written per epoch next to the `.prof` files in the
//! ProfileDb, and rides the DCPF wire as an optional trailing section.
//!
//! Merging two profiles **re-interns** the other table's nodes — stack
//! IDs are only meaningful relative to their own table, so cross-run and
//! cross-agent merges remap IDs through the frame lists. Merge order
//! determines the merged table's ID assignment; callers that need
//! deterministic output (the `--threads` harness, the fleet server's
//! seeded runs) merge in a deterministic order.

use crate::table::{Frame, StackTable};
use dcpi_core::codec::{get_varint, put_varint};
use dcpi_core::{Event, ImageId, Pid};
use std::collections::BTreeMap;

/// A drained, not-yet-canonical stack sample batch entry: raw virtual
/// addresses (outermost-first) with an aggregated count, as handed from
/// the driver to the daemon.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct RawStackSample {
    /// The sampled process.
    pub pid: Pid,
    /// The sampled event's [`Event::code`].
    pub event: u8,
    /// Raw frame PCs, outermost-first (caller before callee).
    pub frames: Vec<u64>,
    /// Number of samples that observed exactly this stack.
    pub count: u64,
}

/// An aggregated calling-context profile: canonical stack table plus
/// `(event, pid, stack_id) → count`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct StackProfile {
    /// The canonical-stack intern tree.
    pub table: StackTable<Frame>,
    /// Sample counts keyed `(event code, pid, stack id)`; the `BTreeMap`
    /// keeps iteration (and thus serialization) deterministic.
    pub counts: BTreeMap<(u8, u32, u32), u64>,
}

impl StackProfile {
    /// An empty profile.
    #[must_use]
    pub fn new() -> StackProfile {
        StackProfile::default()
    }

    /// True if no samples have been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.counts.is_empty()
    }

    /// Records `count` samples of the given canonical stack
    /// (outermost-first).
    pub fn record(&mut self, event: u8, pid: Pid, frames: &[Frame], count: u64) {
        let id = self.table.intern(frames);
        *self.counts.entry((event, pid.0, id)).or_insert(0) += count;
    }

    /// Total samples across all events, pids, and stacks.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.counts.values().sum()
    }

    /// Total samples for one event.
    #[must_use]
    pub fn event_total(&self, event: Event) -> u64 {
        let code = event.code();
        self.counts
            .iter()
            .filter(|((e, _, _), _)| *e == code)
            .map(|(_, c)| c)
            .sum()
    }

    /// Folds another profile into this one, re-interning its stack IDs
    /// through the frame lists.
    pub fn merge(&mut self, other: &StackProfile) {
        // Remap other's node IDs to ours. Nodes are in parent-before-child
        // order, so one pass suffices.
        let mut remap = vec![crate::table::ROOT; other.table.len() + 1];
        for (id, parent, frame) in other.table.nodes() {
            remap[id as usize] = self.table.child(remap[parent as usize], frame);
        }
        for (&(event, pid, id), &count) in &other.counts {
            let mine = remap[id as usize];
            *self.counts.entry((event, pid, mine)).or_insert(0) += count;
        }
    }

    /// Drops all counts but keeps the intern table (the daemon's
    /// per-epoch flush discipline: IDs stay stable across epochs).
    pub fn clear_counts(&mut self) {
        self.counts.clear();
    }

    /// Serializes the profile (table + counts) to the `DCST` v1 binary
    /// form. Deterministic: node order is ID order, count order is key
    /// order.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(16 + self.table.len() * 8 + self.counts.len() * 8);
        out.extend_from_slice(b"DCST\x01");
        put_varint(&mut out, self.table.len() as u64);
        for (_, parent, frame) in self.table.nodes() {
            put_varint(&mut out, u64::from(parent));
            put_varint(&mut out, u64::from(frame.image.0));
            put_varint(&mut out, frame.offset);
        }
        put_varint(&mut out, self.counts.len() as u64);
        for (&(event, pid, id), &count) in &self.counts {
            put_varint(&mut out, u64::from(event));
            put_varint(&mut out, u64::from(pid));
            put_varint(&mut out, u64::from(id));
            put_varint(&mut out, count);
        }
        out
    }

    /// Deserializes a profile written by [`StackProfile::to_bytes`].
    ///
    /// # Errors
    ///
    /// Returns a descriptive error on truncation, trailing bytes, cyclic
    /// parents, or counts referencing unknown stack IDs.
    pub fn from_bytes(data: &[u8]) -> Result<StackProfile, String> {
        let mut r = data
            .strip_prefix(b"DCST\x01")
            .ok_or("bad stack-profile magic/version")?;
        let n = usize::try_from(varint(&mut r)?).map_err(|_| "node count overflow")?;
        if n > (1 << 28) {
            return Err("unreasonable node count".into());
        }
        // A node is at least three varint bytes: the header cannot make
        // us reserve more than the input could hold.
        let mut pairs = Vec::with_capacity(n.min(r.len() / 3));
        for _ in 0..n {
            let parent = u32::try_from(varint(&mut r)?).map_err(|_| "parent overflow")?;
            let image = u32::try_from(varint(&mut r)?).map_err(|_| "image id overflow")?;
            let offset = varint(&mut r)?;
            pairs.push((
                parent,
                Frame {
                    image: ImageId(image),
                    offset,
                },
            ));
        }
        let table = StackTable::from_nodes(pairs)?;
        let nc = usize::try_from(varint(&mut r)?).map_err(|_| "count overflow")?;
        if nc > (1 << 28) {
            return Err("unreasonable count-entry count".into());
        }
        let mut counts = BTreeMap::new();
        for _ in 0..nc {
            let event = u8::try_from(varint(&mut r)?).map_err(|_| "event code overflow")?;
            let pid = u32::try_from(varint(&mut r)?).map_err(|_| "pid overflow")?;
            let id = u32::try_from(varint(&mut r)?).map_err(|_| "stack id overflow")?;
            let count = varint(&mut r)?;
            if id as usize > table.len() {
                return Err(format!("count references unknown stack id {id}"));
            }
            if counts.insert((event, pid, id), count).is_some() {
                return Err("duplicate count key".into());
            }
        }
        if !r.is_empty() {
            return Err("trailing bytes after stack profile".into());
        }
        Ok(StackProfile { table, counts })
    }
}

/// The shared LEB128 reader, with this module's `String` errors.
fn varint(r: &mut &[u8]) -> Result<u64, String> {
    get_varint(r).map_err(|e| match e {
        dcpi_core::Error::Corrupt(what) => format!("stack profile: {what}"),
        other => other.to_string(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn f(image: u32, offset: u64) -> Frame {
        Frame {
            image: ImageId(image),
            offset,
        }
    }

    fn sample_profile() -> StackProfile {
        let mut p = StackProfile::new();
        p.record(0, Pid(1), &[f(0, 0), f(0, 16)], 5);
        p.record(0, Pid(1), &[f(0, 0), f(0, 16), f(0, 32)], 3);
        p.record(1, Pid(2), &[f(1, 8)], 2);
        p
    }

    #[test]
    fn roundtrip() {
        let p = sample_profile();
        let bytes = p.to_bytes();
        let back = StackProfile::from_bytes(&bytes).unwrap();
        assert_eq!(back, p);
        back.table.check_bijective().unwrap();
    }

    #[test]
    fn serialization_is_deterministic() {
        assert_eq!(sample_profile().to_bytes(), sample_profile().to_bytes());
    }

    #[test]
    fn truncation_and_trailing_rejected() {
        let bytes = sample_profile().to_bytes();
        for cut in 0..bytes.len() {
            assert!(
                StackProfile::from_bytes(&bytes[..cut]).is_err(),
                "cut at {cut} must fail"
            );
        }
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert!(StackProfile::from_bytes(&trailing).is_err());
    }

    #[test]
    fn a_header_claiming_a_million_nodes_is_a_truncation() {
        let mut bytes = b"DCST\x01".to_vec();
        put_varint(&mut bytes, 1 << 20);
        assert_eq!(bytes.len(), 8);
        let err = StackProfile::from_bytes(&bytes).unwrap_err();
        assert!(err.contains("truncated"), "{err}");
        // Same for the count section after a valid, empty table.
        let mut bytes = b"DCST\x01\x00".to_vec();
        put_varint(&mut bytes, 1 << 20);
        let err = StackProfile::from_bytes(&bytes).unwrap_err();
        assert!(err.contains("truncated"), "{err}");
    }

    #[test]
    fn overlong_varints_are_rejected_wherever_they_sit() {
        // Ten continuation bytes then a terminator: more than 64 bits.
        let overlong = [[0xff; 10].as_slice(), &[0x01]].concat();
        // As the node count, inside a node, and as a count value.
        let node_count = [b"DCST\x01".as_slice(), &overlong].concat();
        let node_field = [b"DCST\x01\x01\x00\x00".as_slice(), &overlong].concat();
        let count_field = [b"DCST\x01\x00\x01\x00\x01\x00".as_slice(), &overlong].concat();
        for bytes in [node_count, node_field, count_field] {
            let err = StackProfile::from_bytes(&bytes).unwrap_err();
            assert!(err.contains("overflows"), "{err}");
        }
        // The largest value that does fit still decodes.
        let mut ok = b"DCST\x01\x01\x00\x00".to_vec();
        put_varint(&mut ok, u64::MAX);
        ok.push(0);
        let p = StackProfile::from_bytes(&ok).unwrap();
        assert_eq!(p.table.frames(1), vec![f(0, u64::MAX)]);
    }

    #[test]
    fn merge_reinterns_ids_and_conserves_totals() {
        let mut a = StackProfile::new();
        a.record(0, Pid(1), &[f(0, 0), f(0, 16)], 5);
        let mut b = StackProfile::new();
        // b interns in a different order, so its IDs differ from a's.
        b.record(0, Pid(1), &[f(0, 64)], 7);
        b.record(0, Pid(1), &[f(0, 0), f(0, 16)], 1);
        let total = a.total() + b.total();
        a.merge(&b);
        assert_eq!(a.total(), total);
        a.table.check_bijective().unwrap();
        // The shared stack merged into one ID: find its count.
        let shared: Vec<u64> = a
            .counts
            .iter()
            .filter(|((_, _, id), _)| a.table.frames(*id) == vec![f(0, 0), f(0, 16)])
            .map(|(_, &c)| c)
            .collect();
        assert_eq!(shared, vec![6], "5 + 1 samples of the shared stack");
    }

    #[test]
    fn merge_is_identity_on_empty() {
        let mut a = sample_profile();
        let before = a.clone();
        a.merge(&StackProfile::new());
        assert_eq!(a, before);
        let mut e = StackProfile::new();
        e.merge(&before);
        assert_eq!(e.total(), before.total());
    }

    #[test]
    fn event_totals_split() {
        let p = sample_profile();
        assert_eq!(p.event_total(Event::Cycles), 8);
        assert_eq!(p.event_total(Event::IMiss), 2);
        assert_eq!(p.total(), 10);
    }
}
