//! Exact execution counts retired by the simulator.
//!
//! The paper evaluates its frequency estimates against execution counts
//! measured by pixie-style binary instrumentation (dcpix, §6.2). Our
//! simulator retires instructions anyway, so it records the same ground
//! truth directly: per-instruction retirement counts and per-CFG-edge
//! traversal counts, keyed by image and word index.

use dcpi_core::{FastMap, ImageId};

/// Exact per-instruction and per-edge execution counts. Both maps use the
/// fast deterministic hasher — there is one `insns` lookup per retired
/// instruction and one `edges` lookup per control transfer. Edges are
/// stored per image under a packed `from_word << 32 | to_word` key so the
/// inner lookup hashes a single word.
#[derive(Clone, Debug, Default)]
pub struct GroundTruth {
    insns: FastMap<ImageId, Vec<u64>>,
    edges: FastMap<ImageId, FastMap<u64, u64>>,
}

/// Packs a CFG edge into the per-image edge-map key.
#[inline]
pub(crate) fn edge_key(from_word: u32, to_word: u32) -> u64 {
    (u64::from(from_word) << 32) | u64::from(to_word)
}

impl GroundTruth {
    /// Creates an empty recorder.
    #[must_use]
    pub fn new() -> GroundTruth {
        GroundTruth::default()
    }

    /// Registers an image so its count vector has the right size.
    pub fn register_image(&mut self, image: ImageId, text_words: usize) {
        self.insns
            .entry(image)
            .or_insert_with(|| vec![0; text_words]);
    }

    /// Accommodates an image whose contents were replaced in place (the
    /// PGO hot-swap): grows the count vector if the new text is longer.
    /// Existing counts are preserved — they belong to the same image id's
    /// history, exactly as a re-`register_image` would have kept them.
    pub fn resize_image(&mut self, image: ImageId, text_words: usize) {
        let v = self.insns.entry(image).or_default();
        if v.len() < text_words {
            v.resize(text_words, 0);
        }
    }

    /// Detaches an image's count vector so the dispatch walk can index
    /// it directly (one bounds-checked index per retired instruction
    /// instead of a map lookup); restore it with
    /// [`GroundTruth::put_counts`]. An unregistered image detaches an
    /// empty vector, so counting into it is ignored.
    pub(crate) fn take_counts(&mut self, image: ImageId) -> Vec<u64> {
        self.insns
            .get_mut(&image)
            .map(std::mem::take)
            .unwrap_or_default()
    }

    /// Reattaches a count vector detached by [`GroundTruth::take_counts`].
    pub(crate) fn put_counts(&mut self, image: ImageId, counts: Vec<u64>) {
        if let Some(v) = self.insns.get_mut(&image) {
            *v = counts;
        }
    }

    /// Detaches an image's edge map for direct updates in the dispatch
    /// walk; restore it with [`GroundTruth::put_edges`].
    pub(crate) fn take_edges(&mut self, image: ImageId) -> FastMap<u64, u64> {
        self.edges
            .get_mut(&image)
            .map(std::mem::take)
            .unwrap_or_default()
    }

    /// Reattaches an edge map detached by [`GroundTruth::take_edges`]
    /// (or populated from scratch during the walk).
    pub(crate) fn put_edges(&mut self, image: ImageId, edges: FastMap<u64, u64>) {
        if !edges.is_empty() {
            self.edges.insert(image, edges);
        }
    }

    /// Execution count of the instruction at byte `offset` in `image`.
    #[must_use]
    pub fn insn_count(&self, image: ImageId, offset: u64) -> u64 {
        self.insns
            .get(&image)
            .and_then(|v| v.get((offset / 4) as usize))
            .copied()
            .unwrap_or(0)
    }

    /// Traversal count of the edge between byte offsets `from` and `to`.
    #[must_use]
    pub fn edge_count(&self, image: ImageId, from: u64, to: u64) -> u64 {
        self.edges
            .get(&image)
            .and_then(|m| m.get(&edge_key((from / 4) as u32, (to / 4) as u32)))
            .copied()
            .unwrap_or(0)
    }

    /// All recorded edges of an image as `(from_offset, to_offset, count)`.
    #[must_use]
    pub fn edges_of(&self, image: ImageId) -> Vec<(u64, u64, u64)> {
        let mut out: Vec<_> = self
            .edges
            .get(&image)
            .into_iter()
            .flatten()
            .map(|(&k, &c)| ((k >> 32) * 4, (k & 0xffff_ffff) * 4, c))
            .collect();
        out.sort_unstable();
        out
    }

    /// Total instructions retired across all images.
    #[must_use]
    pub fn total_retired(&self) -> u64 {
        self.insns.values().flatten().sum()
    }

    /// Architectural-equivalence check for rewritten images: every
    /// instruction of `image` (whose text is `text_words` long) must
    /// have retired exactly as often as the instruction `remap` sends
    /// its byte offset to in `other`'s `other_image`. An offset `remap`
    /// declines to map must have retired zero times on both sides.
    /// Returns the first diverging byte offset.
    ///
    /// # Errors
    ///
    /// The byte offset (in `image`) of the first instruction whose
    /// retirement counts differ.
    pub fn counts_match_through(
        &self,
        image: ImageId,
        text_words: usize,
        other: &GroundTruth,
        other_image: ImageId,
        remap: impl Fn(u64) -> Option<u64>,
    ) -> Result<(), u64> {
        for w in 0..text_words as u64 {
            let offset = w * 4;
            let mine = self.insn_count(image, offset);
            let theirs = remap(offset).map_or(0, |b| other.insn_count(other_image, b));
            if mine != theirs {
                return Err(offset);
            }
        }
        Ok(())
    }

    /// Merges another recorder's counts into this one (for aggregating
    /// ground truth across repeated runs, as profiles are merged).
    pub fn merge(&mut self, other: &GroundTruth) {
        for (&image, counts) in &other.insns {
            let mine = self
                .insns
                .entry(image)
                .or_insert_with(|| vec![0; counts.len()]);
            if mine.len() < counts.len() {
                mine.resize(counts.len(), 0);
            }
            for (m, c) in mine.iter_mut().zip(counts) {
                *m += c;
            }
        }
        for (&image, em) in &other.edges {
            let mine = self.edges.entry(image).or_default();
            for (&k, &c) in em {
                *mine.entry(k).or_insert(0) += c;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const IMG: ImageId = ImageId(1);

    /// What the walker does through `take_counts`/`take_edges`, one event
    /// at a time: fixtures for the tests below.
    impl GroundTruth {
        fn count_insn(&mut self, image: ImageId, word: u32) {
            if let Some(v) = self.insns.get_mut(&image) {
                if let Some(c) = v.get_mut(word as usize) {
                    *c += 1;
                }
            }
        }

        fn count_edge(&mut self, image: ImageId, from_word: u32, to_word: u32) {
            *self
                .edges
                .entry(image)
                .or_default()
                .entry(edge_key(from_word, to_word))
                .or_insert(0) += 1;
        }
    }

    #[test]
    fn insn_counts_accumulate() {
        let mut gt = GroundTruth::new();
        gt.register_image(IMG, 4);
        gt.count_insn(IMG, 0);
        gt.count_insn(IMG, 0);
        gt.count_insn(IMG, 3);
        assert_eq!(gt.insn_count(IMG, 0), 2);
        assert_eq!(gt.insn_count(IMG, 12), 1);
        assert_eq!(gt.insn_count(IMG, 8), 0);
        assert_eq!(gt.total_retired(), 3);
    }

    #[test]
    fn unregistered_image_is_ignored() {
        let mut gt = GroundTruth::new();
        gt.count_insn(IMG, 0);
        assert_eq!(gt.insn_count(IMG, 0), 0);
    }

    #[test]
    fn out_of_range_word_is_ignored() {
        let mut gt = GroundTruth::new();
        gt.register_image(IMG, 2);
        gt.count_insn(IMG, 99);
        assert_eq!(gt.total_retired(), 0);
    }

    #[test]
    fn edge_counts_by_byte_offset() {
        let mut gt = GroundTruth::new();
        gt.register_image(IMG, 8);
        gt.count_edge(IMG, 3, 0);
        gt.count_edge(IMG, 3, 0);
        gt.count_edge(IMG, 3, 4);
        assert_eq!(gt.edge_count(IMG, 12, 0), 2);
        assert_eq!(gt.edge_count(IMG, 12, 16), 1);
        assert_eq!(gt.edge_count(IMG, 0, 4), 0);
        let edges = gt.edges_of(IMG);
        assert_eq!(edges, vec![(12, 0, 2), (12, 16, 1)]);
    }

    #[test]
    fn counts_match_through_a_permutation() {
        let mut a = GroundTruth::new();
        a.register_image(IMG, 3);
        a.count_insn(IMG, 0);
        a.count_insn(IMG, 1);
        a.count_insn(IMG, 1);
        let other = ImageId(2);
        let mut b = GroundTruth::new();
        b.register_image(other, 4);
        b.count_insn(other, 2);
        b.count_insn(other, 0);
        b.count_insn(other, 0);
        // Old word 0 moved to new word 2, old word 1 to 0; old word 2
        // never ran and maps nowhere.
        let remap = |off: u64| match off {
            0 => Some(8),
            4 => Some(0),
            _ => None,
        };
        assert_eq!(a.counts_match_through(IMG, 3, &b, other, remap), Ok(()));
        b.count_insn(other, 0);
        assert_eq!(a.counts_match_through(IMG, 3, &b, other, remap), Err(4));
        // An unmapped word that did run on the old side must diverge.
        a.count_insn(IMG, 2);
        assert_eq!(a.counts_match_through(IMG, 3, &b, other, |_| None), Err(0));
    }

    #[test]
    fn edges_of_filters_by_image() {
        let mut gt = GroundTruth::new();
        gt.count_edge(ImageId(1), 0, 1);
        gt.count_edge(ImageId(2), 0, 1);
        assert_eq!(gt.edges_of(ImageId(1)).len(), 1);
    }
}
