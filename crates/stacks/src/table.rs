//! The canonical-stack cache: a parent-pointer tree interning frame
//! lists into stable small integer stack IDs.
//!
//! Interning a stack of depth *d* costs at most *d* hash lookups and
//! allocates nothing once every prefix of the stack has been seen (the
//! "warm path"), which is what lets the driver capture calling context
//! inside the interrupt handler's cycle budget. Consecutive samples mostly
//! share all but a frame or two, so the table remembers the stack it
//! interned last with the ID of each of its prefixes and hashes only the
//! frames past the shared prefix. IDs are assigned densely in
//! first-encounter order, so a table filled from a deterministically
//! ordered sample stream is itself deterministic.

use dcpi_core::ImageId;
use std::collections::HashMap;
use std::hash::Hash;

/// The ID of the empty stack (the virtual root). Never stored as a node.
pub const ROOT: u32 = 0;

/// One canonical stack frame: a PC expressed as an image-relative offset,
/// exactly like the per-PC profiles.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Frame {
    /// The image the frame's PC falls in ([`dcpi_core::UNKNOWN_IMAGE`]
    /// when the daemon could not resolve it).
    pub image: ImageId,
    /// Byte offset of the PC from the image's load base.
    pub offset: u64,
}

/// A parent-pointer intern tree over frames of type `F`.
///
/// The driver uses `StackTable<u64>` over raw virtual addresses; the
/// daemon and everything downstream use `StackTable<Frame>` over
/// canonical image-relative frames. Node IDs start at 1 (0 is [`ROOT`])
/// and every node's parent ID is strictly smaller than its own, making
/// parent chains acyclic by construction.
#[derive(Clone, Debug)]
pub struct StackTable<F> {
    /// `nodes[i]` holds `(parent, frame)` for the node with ID `i + 1`.
    nodes: Vec<(u32, F)>,
    /// SipHash, not Fx: [`StackTable::from_nodes`] fills it from DCST
    /// bytes off the disk or the wire.
    index: HashMap<(u32, F), u32>,
    /// The stack interned last, outermost-first: `last[i]` is its frame
    /// `i` and the ID of the stack `frames[..=i]`. Scratch state — nodes
    /// are never removed, so a remembered ID cannot go stale.
    last: Vec<(F, u32)>,
}

impl<F> Default for StackTable<F> {
    fn default() -> StackTable<F> {
        StackTable {
            nodes: Vec::new(),
            index: HashMap::new(),
            last: Vec::new(),
        }
    }
}

// Equality is over the node list alone: the index is a derived cache and
// the remembered stack is scratch.
impl<F: PartialEq> PartialEq for StackTable<F> {
    fn eq(&self, other: &StackTable<F>) -> bool {
        self.nodes == other.nodes
    }
}

impl<F: Eq> Eq for StackTable<F> {}

impl<F: Copy + Eq + Hash + Ord> StackTable<F> {
    /// An empty table.
    #[must_use]
    pub fn new() -> StackTable<F> {
        StackTable::default()
    }

    /// Number of interned nodes (the root is not counted).
    #[must_use]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True if no stack has been interned.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Interns one child step: the stack `parent` extended by `frame`.
    ///
    /// # Panics
    ///
    /// Panics if `parent` is not [`ROOT`] or an existing node ID.
    pub fn child(&mut self, parent: u32, frame: F) -> u32 {
        assert!(
            (parent as usize) <= self.nodes.len(),
            "parent {parent} not interned"
        );
        // One hash of the key whether it hits or is new; a hit allocates
        // nothing.
        *self.index.entry((parent, frame)).or_insert_with(|| {
            self.nodes.push((parent, frame));
            self.nodes.len() as u32
        })
    }

    /// Interns a whole stack given outermost-first (caller before callee).
    pub fn intern(&mut self, frames: &[F]) -> u32 {
        self.intern_outermost_first(frames.iter().copied())
    }

    /// Interns a whole stack given leaf-first (the order a stack walk
    /// produces). Allocation-free when every prefix is already interned.
    pub fn intern_leaf_first(&mut self, frames: &[F]) -> u32 {
        self.intern_outermost_first(frames.iter().rev().copied())
    }

    /// Resumes from the deepest node the new stack shares with the one
    /// interned last and walks [`StackTable::child`] over the rest.
    fn intern_outermost_first(&mut self, frames: impl Iterator<Item = F> + Clone) -> u32 {
        let shared = frames
            .clone()
            .zip(&self.last)
            .take_while(|(f, (g, _))| f == g)
            .count();
        self.last.truncate(shared);
        let mut id = self.last.last().map_or(ROOT, |&(_, id)| id);
        for f in frames.skip(shared) {
            id = self.child(id, f);
            self.last.push((f, id));
        }
        id
    }

    /// The parent ID of `id` ([`ROOT`]'s parent is [`ROOT`]).
    #[must_use]
    pub fn parent(&self, id: u32) -> u32 {
        if id == ROOT {
            ROOT
        } else {
            self.nodes[id as usize - 1].0
        }
    }

    /// The frame at `id`, or `None` for [`ROOT`].
    #[must_use]
    pub fn frame(&self, id: u32) -> Option<F> {
        (id != ROOT).then(|| self.nodes[id as usize - 1].1)
    }

    /// The full frame list for `id`, outermost-first.
    #[must_use]
    pub fn frames(&self, id: u32) -> Vec<F> {
        let mut out = Vec::with_capacity(self.depth(id));
        let mut cur = id;
        while cur != ROOT {
            let (p, f) = self.nodes[cur as usize - 1];
            out.push(f);
            cur = p;
        }
        out.reverse();
        out
    }

    /// The number of frames in stack `id`.
    #[must_use]
    pub fn depth(&self, id: u32) -> usize {
        let mut d = 0;
        let mut cur = id;
        while cur != ROOT {
            cur = self.nodes[cur as usize - 1].0;
            d += 1;
        }
        d
    }

    /// Iterates `(id, parent, frame)` over all nodes in ID order.
    pub fn nodes(&self) -> impl Iterator<Item = (u32, u32, F)> + '_ {
        self.nodes
            .iter()
            .enumerate()
            .map(|(i, &(p, f))| (i as u32 + 1, p, f))
    }

    /// Rebuilds a table from `(parent, frame)` pairs in ID order (the
    /// on-disk/wire form). The pairs become the node list as they are,
    /// and the index is sized for them once: a decoder's count has
    /// already bounded their number by the length of its input.
    ///
    /// # Errors
    ///
    /// Rejects any node whose parent ID is not strictly smaller than its
    /// own — the acyclicity invariant.
    pub fn from_nodes(nodes: Vec<(u32, F)>) -> Result<StackTable<F>, String> {
        let mut index = HashMap::with_capacity(nodes.len());
        for (i, &(parent, frame)) in nodes.iter().enumerate() {
            let id = i as u32 + 1;
            if parent >= id {
                return Err(format!("node {id} has parent {parent} >= its own id"));
            }
            if index.insert((parent, frame), id).is_some() {
                return Err(format!("duplicate (parent, frame) pair at node {id}"));
            }
        }
        Ok(StackTable {
            nodes,
            index,
            last: Vec::new(),
        })
    }

    /// Makes room for `additional` more nodes in the node list and the
    /// index, so interning that many grows neither.
    pub(crate) fn reserve(&mut self, additional: usize) {
        self.nodes.reserve(additional);
        self.index.reserve(additional);
    }

    /// Audits the intern invariants: the `(parent, frame) → id` index and
    /// the node list must be inverse bijections, and every parent must
    /// precede its children (acyclicity).
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant.
    pub fn check_bijective(&self) -> Result<(), String> {
        if self.index.len() != self.nodes.len() {
            return Err(format!(
                "index has {} entries for {} nodes",
                self.index.len(),
                self.nodes.len()
            ));
        }
        for (id, parent, frame) in self.nodes() {
            if parent >= id {
                return Err(format!("node {id} has parent {parent} >= its own id"));
            }
            match self.index.get(&(parent, frame)) {
                Some(&got) if got == id => {}
                Some(&got) => return Err(format!("node {id} indexed as {got}")),
                None => return Err(format!("node {id} missing from the index")),
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_stable_and_shared() {
        let mut t: StackTable<u64> = StackTable::new();
        let a = t.intern(&[1, 2, 3]);
        let b = t.intern(&[1, 2, 3]);
        let c = t.intern(&[1, 2]);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(t.parent(a), c, "prefix sharing: [1,2] is [1,2,3]'s parent");
        assert_eq!(t.len(), 3, "three nodes for two stacks sharing a prefix");
    }

    #[test]
    fn leaf_first_matches_outermost_first() {
        let mut t: StackTable<u64> = StackTable::new();
        let a = t.intern(&[10, 20, 30]);
        let b = t.intern_leaf_first(&[30, 20, 10]);
        assert_eq!(a, b);
    }

    #[test]
    fn frames_roundtrip() {
        let mut t: StackTable<u64> = StackTable::new();
        let id = t.intern(&[7, 8, 9]);
        assert_eq!(t.frames(id), vec![7, 8, 9]);
        assert_eq!(t.depth(id), 3);
        assert_eq!(t.frames(ROOT), Vec::<u64>::new());
        assert_eq!(t.frame(id), Some(9));
    }

    #[test]
    fn warm_path_does_not_grow_the_table() {
        let mut t: StackTable<u64> = StackTable::new();
        t.intern(&[1, 2, 3, 4]);
        let n = t.len();
        for _ in 0..100 {
            t.intern(&[1, 2, 3, 4]);
            t.intern(&[1, 2]);
        }
        assert_eq!(t.len(), n);
    }

    #[test]
    fn bijectivity_audit_accepts_built_tables() {
        let mut t: StackTable<u64> = StackTable::new();
        for i in 0..20u64 {
            t.intern(&[i % 3, i % 5, i]);
        }
        t.check_bijective().unwrap();
    }

    #[test]
    fn from_nodes_rejects_cycles() {
        // Node 1 claiming parent 1 (itself) or a later node must fail.
        assert!(StackTable::<u64>::from_nodes(vec![(1, 5)]).is_err());
        assert!(StackTable::<u64>::from_nodes(vec![(0, 5), (2, 6)]).is_err());
        let ok = StackTable::<u64>::from_nodes(vec![(0, 5), (1, 6)]).unwrap();
        ok.check_bijective().unwrap();
        assert_eq!(ok.frames(2), vec![5, 6]);
    }

    #[test]
    fn from_nodes_rejects_duplicates() {
        assert!(StackTable::<u64>::from_nodes(vec![(0, 5), (0, 5)]).is_err());
    }
}
