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
use dcpi_core::codec::{put_varint, Reader};
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

    /// The sum of a merge group: equal to folding [`StackProfile::merge`]
    /// over `parts` from an empty profile, byte for byte, with room for
    /// every part's nodes reserved once instead of grown part by part.
    /// The reservation is the sum of the parts' node counts, an upper
    /// bound that parts sharing prefixes do not reach.
    #[must_use]
    pub fn sum(parts: &[&StackProfile]) -> StackProfile {
        let mut acc = StackProfile::new();
        acc.table.reserve(parts.iter().map(|p| p.table.len()).sum());
        for part in parts {
            acc.merge(part);
        }
        acc
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
    /// parents, counts referencing unknown stack IDs, or count keys out
    /// of the order `to_bytes` writes them in.
    pub fn from_bytes(data: &[u8]) -> Result<StackProfile, String> {
        let mut r = Reader::new(data);
        if r.bytes(5)? != b"DCST\x01" {
            return Err("bad stack-profile magic/version".into());
        }
        // A node is three varints of at least a byte each, a count
        // entry four.
        let n = r.count(3)?;
        let mut pairs = Vec::with_capacity(n);
        for _ in 0..n {
            let parent = r.var("parent")?;
            let image = ImageId(r.var("image id")?);
            let offset = r.varint()?;
            pairs.push((parent, Frame { image, offset }));
        }
        let table = StackTable::from_nodes(pairs)?;
        let mut counts = BTreeMap::new();
        let mut last = None;
        for _ in 0..r.count(4)? {
            let key = (r.var("event code")?, r.var("pid")?, r.var("stack id")?);
            let count = r.varint()?;
            if key.2 as usize > table.len() {
                return Err(format!("count references unknown stack id {}", key.2));
            }
            // Key order is `to_bytes`'s; it also rules out a duplicate.
            if last.is_some_and(|last| last >= key) {
                return Err("count keys not strictly increasing".into());
            }
            last = Some(key);
            counts.insert(key, count);
        }
        r.finish("the stack profile")?;
        Ok(StackProfile { table, counts })
    }
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
    fn count_keys_out_of_order_are_rejected() {
        // One node; keys (0, 1, 1) then (0, 1, 0): the second spelling of
        // a map `to_bytes` writes sorted. A repeat is out of order too.
        let swapped = b"DCST\x01\x01\x00\x00\x00\x02\x00\x01\x01\x05\x00\x01\x00\x05";
        let err = StackProfile::from_bytes(swapped).unwrap_err();
        assert!(err.contains("strictly increasing"), "{err}");
        let repeated = b"DCST\x01\x01\x00\x00\x00\x02\x00\x01\x01\x05\x00\x01\x01\x05";
        assert!(StackProfile::from_bytes(repeated).is_err());
        let sorted = b"DCST\x01\x01\x00\x00\x00\x02\x00\x01\x00\x05\x00\x01\x01\x05";
        let p = StackProfile::from_bytes(sorted).unwrap();
        assert_eq!(p.to_bytes(), sorted);
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

    /// IDs are assigned in node order, so re-interning a whole profile
    /// into an empty table reproduces it — `write_epoch_stacks` writes a
    /// fresh sidecar without that pass.
    #[test]
    fn reinterning_into_empty_writes_the_same_bytes() {
        let mut p = StackProfile::new();
        p.record(0, Pid(1), &[f(0, 0), f(0, 16), f(1, 8)], 3);
        let mut other = StackProfile::new();
        other.record(1, Pid(2), &[f(2, 64)], 7);
        other.record(0, Pid(1), &[f(0, 0), f(0, 16)], 1);
        p.merge(&other);
        p.record(0, Pid(3), &[f(2, 64), f(0, 0)], 2);
        p.merge(&sample_profile());
        p.record(1, Pid(1), &[f(0, 0)], 4);
        // A kept table with cleared counts (the daemon between epochs)
        // carries nodes no count names; they are re-interned too.
        p.clear_counts();
        p.record(0, Pid(1), &[f(0, 0), f(9, 9)], 1);
        let mut fresh = StackProfile::new();
        fresh.merge(&p);
        assert_eq!(fresh.to_bytes(), p.to_bytes());
        assert_eq!(fresh, p);
    }

    #[test]
    fn sum_is_the_left_fold_of_merge() {
        let mut shares = StackProfile::new();
        shares.record(0, Pid(1), &[f(0, 0), f(0, 16), f(0, 48)], 4);
        shares.record(1, Pid(3), &[f(0, 0), f(2, 8)], 1);
        let empty = StackProfile::new();
        let groups: [&[&StackProfile]; 5] = [
            &[],
            &[&shares],
            &[&sample_profile(), &shares],
            &[&shares, &empty, &sample_profile(), &shares],
            &[&empty],
        ];
        for parts in groups {
            let mut fold = StackProfile::new();
            for part in parts {
                fold.merge(part);
            }
            let sum = StackProfile::sum(parts);
            assert_eq!(sum.to_bytes(), fold.to_bytes(), "{} parts", parts.len());
            sum.table.check_bijective().unwrap();
        }
    }

    #[test]
    fn event_totals_split() {
        let p = sample_profile();
        assert_eq!(p.event_total(Event::Cycles), 8);
        assert_eq!(p.event_total(Event::IMiss), 2);
        assert_eq!(p.total(), 10);
    }
}
