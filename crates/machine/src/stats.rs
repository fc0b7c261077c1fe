//! Exact execution counts retired by the simulator.
//!
//! The paper evaluates its frequency estimates against execution counts
//! measured by pixie-style binary instrumentation (dcpix, §6.2). Our
//! simulator retires instructions anyway, so it records the same ground
//! truth directly: per-instruction retirement counts and per-CFG-edge
//! traversal counts, keyed by image and word index.
//!
//! Both are dense per image (`ImageTruth`), so the dispatch walk records
//! a retirement or a direct branch with an index, not a hash: the count
//! vector has a slot per text word, and so does the edge table — a word's
//! edge to the next word (a conditional branch's fall-through) and its
//! first other target with that target's count. Only an edge to a further
//! target — an indirect jump's second return site, a hot-swapped word's
//! new target — lands in a map.

use dcpi_core::{FastMap, ImageId};

/// Exact per-instruction and per-edge execution counts, by image.
#[derive(Clone, Debug, Default)]
pub struct GroundTruth {
    images: FastMap<ImageId, ImageTruth>,
}

/// The out-edges of one source word: `next` counts the edge to the word
/// after it, `taken` the edge to `target` (the first other target the
/// word reached; [`NO_TARGET`] until then).
#[derive(Clone, Copy, Debug)]
struct WordEdges {
    next: u64,
    taken: u64,
    target: u32,
}

/// [`WordEdges::target`] of a word that has reached no other target yet.
const NO_TARGET: u32 = u32::MAX;

impl Default for WordEdges {
    fn default() -> WordEdges {
        WordEdges {
            next: 0,
            taken: 0,
            target: NO_TARGET,
        }
    }
}

/// One image's counts: a retirement count and a [`WordEdges`] per text
/// word, plus a map (keyed by [`edge_key`]) for every edge the dense slot
/// does not hold. An image the recorder was never told about has no slots,
/// so its retirements are ignored and its edges all go to the map.
#[derive(Clone, Debug, Default)]
pub(crate) struct ImageTruth {
    counts: Vec<u64>,
    edges: Vec<WordEdges>,
    other: FastMap<u64, u64>,
}

/// Packs a CFG edge into the key of [`ImageTruth`]'s edge map.
fn edge_key(from_word: u32, to_word: u32) -> u64 {
    (u64::from(from_word) << 32) | u64::from(to_word)
}

impl ImageTruth {
    /// Grows the per-word slots to `text_words` (never shrinks them).
    fn grow(&mut self, text_words: usize) {
        if self.counts.len() < text_words {
            self.counts.resize(text_words, 0);
        }
        if self.edges.len() < text_words {
            self.edges.resize(text_words, WordEdges::default());
        }
    }

    /// Counts one retirement of word `w`.
    #[inline]
    pub(crate) fn count(&mut self, w: usize) {
        if let Some(c) = self.counts.get_mut(w) {
            *c += 1;
        }
    }

    /// Counts one traversal of the edge `from → to` (word indices).
    #[inline]
    pub(crate) fn edge(&mut self, from: u32, to: u32) {
        self.add_edge(from, to, 1);
    }

    fn add_edge(&mut self, from: u32, to: u32, n: u64) {
        if let Some(e) = self.edges.get_mut(from as usize) {
            if to == from.wrapping_add(1) {
                e.next += n;
                return;
            }
            if e.target == NO_TARGET {
                e.target = to;
            }
            if e.target == to {
                e.taken += n;
                return;
            }
        }
        *self.other.entry(edge_key(from, to)).or_insert(0) += n;
    }

    /// Traversal count of `from → to` (word indices).
    fn edge_count(&self, from: u32, to: u32) -> u64 {
        let dense = self.edges.get(from as usize).map_or(0, |e| {
            if to == from.wrapping_add(1) {
                e.next
            } else if e.target == to {
                e.taken
            } else {
                0
            }
        });
        dense + self.other.get(&edge_key(from, to)).copied().unwrap_or(0)
    }

    /// Every recorded edge as `(from_word, to_word, count)`, unordered; an
    /// edge may appear twice (dense and mapped) if the slots grew after
    /// it reached the map.
    fn all_edges(&self) -> impl Iterator<Item = (u32, u32, u64)> + '_ {
        let dense = self
            .edges
            .iter()
            .zip(0u32..)
            .flat_map(|(e, w)| [(w, w.wrapping_add(1), e.next), (w, e.target, e.taken)]);
        let other = self
            .other
            .iter()
            .map(|(&k, &c)| ((k >> 32) as u32, k as u32, c));
        dense.filter(|e| e.2 > 0).chain(other)
    }
}

impl GroundTruth {
    /// Creates an empty recorder.
    #[must_use]
    pub fn new() -> GroundTruth {
        GroundTruth::default()
    }

    /// Registers an image so its count and edge slots have the right size.
    pub fn register_image(&mut self, image: ImageId, text_words: usize) {
        self.images.entry(image).or_insert_with(|| {
            let mut t = ImageTruth::default();
            t.grow(text_words);
            t
        });
    }

    /// Accommodates an image whose contents were replaced in place (the
    /// PGO hot-swap): grows the slots if the new text is longer. Existing
    /// counts are preserved — they belong to the same image id's history,
    /// exactly as a re-`register_image` would have kept them.
    pub fn resize_image(&mut self, image: ImageId, text_words: usize) {
        self.images.entry(image).or_default().grow(text_words);
    }

    /// Detaches an image's counts so the dispatch walk can index them
    /// directly; restore them with [`GroundTruth::put`]. An unregistered
    /// image detaches empty slots.
    pub(crate) fn take(&mut self, image: ImageId) -> ImageTruth {
        self.images
            .get_mut(&image)
            .map(std::mem::take)
            .unwrap_or_default()
    }

    /// Reattaches counts detached by [`GroundTruth::take`].
    pub(crate) fn put(&mut self, image: ImageId, truth: ImageTruth) {
        self.images.insert(image, truth);
    }

    /// Execution count of the instruction at byte `offset` in `image`.
    #[must_use]
    pub fn insn_count(&self, image: ImageId, offset: u64) -> u64 {
        self.images
            .get(&image)
            .and_then(|t| t.counts.get((offset / 4) as usize))
            .copied()
            .unwrap_or(0)
    }

    /// Traversal count of the edge between byte offsets `from` and `to`.
    #[must_use]
    pub fn edge_count(&self, image: ImageId, from: u64, to: u64) -> u64 {
        self.images
            .get(&image)
            .map_or(0, |t| t.edge_count((from / 4) as u32, (to / 4) as u32))
    }

    /// All recorded edges of an image as `(from_offset, to_offset, count)`,
    /// sorted.
    #[must_use]
    pub fn edges_of(&self, image: ImageId) -> Vec<(u64, u64, u64)> {
        let mut out: Vec<_> = self
            .images
            .get(&image)
            .into_iter()
            .flat_map(ImageTruth::all_edges)
            .map(|(f, t, c)| (u64::from(f) * 4, u64::from(t) * 4, c))
            .collect();
        out.sort_unstable();
        out.dedup_by(|b, a| {
            let same = (a.0, a.1) == (b.0, b.1);
            if same {
                a.2 += b.2;
            }
            same
        });
        out
    }

    /// Total instructions retired across all images.
    #[must_use]
    pub fn total_retired(&self) -> u64 {
        self.images.values().flat_map(|t| &t.counts).sum()
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
        for (&image, theirs) in &other.images {
            let mine = self.images.entry(image).or_default();
            mine.grow(theirs.counts.len());
            for (m, c) in mine.counts.iter_mut().zip(&theirs.counts) {
                *m += c;
            }
            for (from, to, n) in theirs.all_edges() {
                mine.add_edge(from, to, n);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcpi_core::prng::CartaRng;
    use std::collections::BTreeMap;

    const IMG: ImageId = ImageId(1);

    /// What the walker does through `take`/`put`, one event at a time:
    /// fixtures for the tests below.
    impl GroundTruth {
        fn count_insn(&mut self, image: ImageId, word: u32) {
            let mut t = self.take(image);
            t.count(word as usize);
            self.put(image, t);
        }

        fn count_edge(&mut self, image: ImageId, from_word: u32, to_word: u32) {
            let mut t = self.take(image);
            t.edge(from_word, to_word);
            self.put(image, t);
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

    /// The recorder against a `BTreeMap` of edges: random edges — mostly
    /// to the next word or a word's usual target, some to others, some
    /// from words past the registered text — with the text growing
    /// mid-run (a hot-swap) and the usual targets moving with it, on two
    /// recorders and an unregistered image, then merged.
    #[test]
    fn dense_edges_match_a_map_model() {
        type Model = BTreeMap<(ImageId, u32, u32), u64>;
        let mut rng = CartaRng::new(0x0dcf_0e25);
        let images = [(ImageId(1), 64u32), (ImageId(2), 48), (ImageId(9), 0)];
        let mut run = |gt: &mut GroundTruth, model: &mut Model| {
            for &(image, words) in &images[..2] {
                gt.register_image(image, words as usize);
            }
            let mut usual: Vec<u32> = (0..128).map(|w| (w * 7 + 3) % 96).collect();
            for i in 0..20_000 {
                if i == 10_000 {
                    // Hot-swap: longer text, and most words branch
                    // somewhere new.
                    gt.resize_image(ImageId(1), 96);
                    for t in usual.iter_mut().step_by(3) {
                        *t = (*t + 5) % 96;
                    }
                }
                let (image, _) = images[rng.uniform(0, 2) as usize];
                let from = rng.uniform(0, 99) as u32;
                let to = match rng.uniform(0, 9) {
                    0..=3 => from + 1,
                    4..=6 => usual[from as usize],
                    7 | 8 => rng.uniform(0, 3) as u32 * 17,
                    _ => rng.uniform(0, 1 << 20) as u32,
                };
                gt.count_edge(image, from, to);
                *model.entry((image, from, to)).or_insert(0) += 1;
            }
        };
        let check = |gt: &GroundTruth, model: &Model| {
            for &(image, _) in &images {
                let want: Vec<_> = model
                    .range((image, 0, 0)..=(image, u32::MAX, u32::MAX))
                    .map(|(&(_, f, t), &c)| (u64::from(f) * 4, u64::from(t) * 4, c))
                    .collect();
                assert_eq!(gt.edges_of(image), want, "{image:?}");
                for &(f, t, c) in &want {
                    assert_eq!(gt.edge_count(image, f, t), c, "{image:?} {f}->{t}");
                }
                assert_eq!(gt.edge_count(image, 4, 4 * (1 << 21)), 0);
            }
        };
        let (mut a, mut ma) = (GroundTruth::new(), Model::new());
        let (mut b, mut mb) = (GroundTruth::new(), Model::new());
        run(&mut a, &mut ma);
        run(&mut b, &mut mb);
        check(&a, &ma);
        check(&b, &mb);
        let mut fresh = GroundTruth::new();
        fresh.merge(&b);
        check(&fresh, &mb);
        a.merge(&b);
        for (k, c) in mb {
            *ma.entry(k).or_insert(0) += c;
        }
        check(&a, &ma);
    }

    /// The three shapes the dense table must fold exactly as one map
    /// would: a conditional branch to the next word (taken and not taken
    /// are one edge), a word whose target changes under a hot-swap, and
    /// two recorders whose words reached different targets first.
    #[test]
    fn edge_shapes_fold_as_one_map_would() {
        let mut gt = GroundTruth::new();
        gt.register_image(IMG, 8);
        // `beq` at word 2 to word 3: both directions are the edge 2 → 3.
        gt.count_edge(IMG, 2, 3);
        gt.count_edge(IMG, 2, 3);
        // Word 5 branches to 1, then (swapped) to 0, then to 1 again.
        gt.count_edge(IMG, 5, 1);
        gt.resize_image(IMG, 8);
        gt.count_edge(IMG, 5, 0);
        gt.count_edge(IMG, 5, 0);
        gt.count_edge(IMG, 5, 1);
        let want = vec![(8, 12, 2), (20, 0, 2), (20, 4, 2)];
        assert_eq!(gt.edges_of(IMG), want);
        let mut other = GroundTruth::new();
        other.register_image(IMG, 8);
        other.count_edge(IMG, 5, 0);
        other.count_edge(IMG, 7, 8);
        gt.merge(&other);
        assert_eq!(
            gt.edges_of(IMG),
            vec![(8, 12, 2), (20, 0, 3), (20, 4, 2), (28, 32, 1)]
        );
        assert_eq!(gt.edge_count(IMG, 20, 0), 3);
    }
}
