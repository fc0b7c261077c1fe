//! In-memory profiles: aggregated event counts keyed by image offset.
//!
//! The daemon converts each raw sample's `(pid, pc)` to an `(image, offset)`
//! pair and merges it into the profile for that image and event (§4.3.1).
//! A separate profile file is stored per `(image, event)` combination
//! (§4.3.3); [`ProfileKey`] mirrors that organization in memory.

use crate::types::{Event, ImageId};
use std::cmp::Ordering;
use std::collections::hash_map::Entry;
use std::collections::HashMap;

/// Identifies one profile: an executable image and an event type.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct ProfileKey {
    /// The image the samples fell in.
    pub image: ImageId,
    /// The event whose counter produced the samples.
    pub event: Event,
}

/// An aggregated profile: one sorted run of `(offset, count)` pairs, the
/// offset in bytes from the start of the image text and the count the
/// samples accumulated there.
///
/// Invariant: offsets strictly increase and no count is zero. That is the
/// shape the on-disk codec delta-encodes (most executables have large
/// never-executed regions, so profiles are much smaller than their
/// images, §4.3.3), so decode, merge and encode are each one linear pass.
/// [`Profile::add`], [`Profile::merge`], [`Profile::sum`], `FromIterator`
/// and the decoder establish the invariant; everything else assumes it.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Profile {
    run: Vec<(u64, u64)>,
}

impl Profile {
    /// Creates an empty profile.
    #[must_use]
    pub fn new() -> Profile {
        Profile::default()
    }

    /// Wraps a run the caller has checked: offsets strictly increasing,
    /// no zero count (the decoder's path).
    pub(crate) fn from_sorted_run(run: Vec<(u64, u64)>) -> Profile {
        debug_assert!(run.windows(2).all(|w| w[0].0 < w[1].0));
        debug_assert!(run.iter().all(|&(_, c)| c > 0));
        Profile { run }
    }

    /// Adds `count` samples at `offset`. O(1) at or past the last offset;
    /// a new offset elsewhere shifts the tail, O(len).
    pub fn add(&mut self, offset: u64, count: u64) {
        if count == 0 {
            return;
        }
        match self.run.last_mut() {
            Some(last) if last.0 == offset => last.1 += count,
            Some(last) if last.0 > offset => {
                match self.run.binary_search_by_key(&offset, |&(o, _)| o) {
                    Ok(i) => self.run[i].1 += count,
                    Err(i) => self.run.insert(i, (offset, count)),
                }
            }
            _ => self.run.push((offset, count)),
        }
    }

    /// Returns the count at `offset` (zero if absent).
    #[must_use]
    pub fn get(&self, offset: u64) -> u64 {
        self.run
            .binary_search_by_key(&offset, |&(o, _)| o)
            .map_or(0, |i| self.run[i].1)
    }

    /// Merges another profile into this one, adding counts pointwise: a
    /// two-pointer merge-join of the two runs.
    pub fn merge(&mut self, other: &Profile) {
        if self.run.is_empty() {
            self.run.clone_from(&other.run);
            return;
        }
        if other.run.is_empty() {
            return;
        }
        let (a, b) = (std::mem::take(&mut self.run), &other.run);
        let mut out = Vec::with_capacity(a.len() + b.len());
        let (mut i, mut j) = (0, 0);
        while i < a.len() && j < b.len() {
            match a[i].0.cmp(&b[j].0) {
                Ordering::Less => {
                    out.push(a[i]);
                    i += 1;
                }
                Ordering::Greater => {
                    out.push(b[j]);
                    j += 1;
                }
                Ordering::Equal => {
                    out.push((a[i].0, a[i].1 + b[j].1));
                    i += 1;
                    j += 1;
                }
            }
        }
        out.extend_from_slice(&a[i..]);
        out.extend_from_slice(&b[j..]);
        self.run = out;
    }

    /// Sums many profiles pointwise: the left fold of [`Profile::merge`]
    /// over `runs`, visiting each input entry once instead of one
    /// merge-join per run.
    ///
    /// Each entry is added into a slot array indexed by
    /// `(offset − lo) >> shift`, where `[lo, hi]` spans every input offset
    /// and `shift` is the least that fits the span into at most
    /// `2^⌈log2 N⌉` slots for `N` input entries. So memory is bounded by
    /// the input and slot order is offset order. A slot keeps the first
    /// offset that reaches it; another offset that maps there goes to a
    /// side list, sorted and merge-joined in at the end. Many runs over
    /// one image's text hold more entries than their span has
    /// instructions, so each offset gets a slot of its own; a raw-PC span
    /// (the unknown image) collides and pays for sorting its side list.
    #[must_use]
    pub fn sum(runs: &[&Profile]) -> Profile {
        let mut nonempty = runs.iter().filter(|p| !p.is_empty());
        match (nonempty.next(), nonempty.next()) {
            (None, _) => return Profile::new(),
            (Some(only), None) => return Profile::clone(only),
            _ => {}
        }
        let ends = runs
            .iter()
            .filter_map(|p| Some((p.run.first()?.0, p.run.last()?.0)));
        let (lo, hi) = ends.fold((u64::MAX, 0), |(lo, hi), (a, z)| (lo.min(a), hi.max(z)));
        let span_bits = u64::BITS - (hi - lo).leading_zeros();
        let n: usize = runs.iter().map(|p| p.len()).sum();
        // `n >= 2`, so a span of one bit or more gets a slot bit and
        // `shift < 64`.
        let slot_bits = n.next_power_of_two().trailing_zeros().min(span_bits);
        let shift = span_bits - slot_bits;
        // A zero count marks a vacant slot: no entry has one.
        let mut slots = vec![(0u64, 0u64); 1 << slot_bits];
        let mut side = Vec::new();
        let mut filled = 0;
        for &(offset, count) in runs.iter().flat_map(|p| &p.run) {
            let slot = &mut slots[((offset - lo) >> shift) as usize];
            if slot.1 == 0 {
                *slot = (offset, count);
                filled += 1;
            } else if slot.0 == offset {
                slot.1 += count;
            } else {
                side.push((offset, count));
            }
        }
        // A slot's offset never changes once set, so no side offset
        // equals a slot's: the two lists merge without an equal case.
        side.sort_unstable_by_key(|&(o, _)| o);
        side.dedup_by(|later, kept| {
            let same = later.0 == kept.0;
            if same {
                kept.1 += later.1;
            }
            same
        });
        let mut run = Vec::with_capacity(filled + side.len());
        let mut side = side.into_iter().peekable();
        for &slot in slots.iter().filter(|s| s.1 != 0) {
            while let Some(e) = side.next_if(|e| e.0 < slot.0) {
                run.push(e);
            }
            run.push(slot);
        }
        run.extend(side);
        Profile::from_sorted_run(run)
    }

    /// Total samples across all offsets.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.run.iter().map(|&(_, c)| c).sum()
    }

    /// Number of distinct offsets with nonzero counts.
    #[must_use]
    pub fn len(&self) -> usize {
        self.run.len()
    }

    /// True if the profile holds no samples.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.run.is_empty()
    }

    /// Iterates `(offset, count)` pairs in increasing offset order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.run.iter().copied()
    }

    /// Iterates the `(offset, count)` pairs with `lo <= offset < hi`, in
    /// increasing offset order: one binary search, then a walk.
    pub fn range(&self, lo: u64, hi: u64) -> impl Iterator<Item = (u64, u64)> + '_ {
        let start = self.run.partition_point(|&(o, _)| o < lo);
        self.run[start..]
            .iter()
            .copied()
            .take_while(move |&(o, _)| o < hi)
    }

    /// Sums the counts over the half-open offset range `[lo, hi)`.
    ///
    /// Used by the analyzer to total the samples of a procedure or basic
    /// block.
    #[must_use]
    pub fn range_total(&self, lo: u64, hi: u64) -> u64 {
        self.range(lo, hi).map(|(_, c)| c).sum()
    }
}

impl FromIterator<(u64, u64)> for Profile {
    fn from_iter<T: IntoIterator<Item = (u64, u64)>>(iter: T) -> Profile {
        let mut p = Profile::new();
        for (off, cnt) in iter {
            p.add(off, cnt);
        }
        p
    }
}

/// Edge samples: per conditional branch, how many samples were taken with
/// the branch about to be taken vs about to fall through.
///
/// This implements the paper's §7 "instruction interpretation" proposal:
/// "each conditional branch can be interpreted to determine whether or
/// not the branch will be taken, yielding edge samples that should prove
/// valuable for analysis and optimization". Keys are `(image, byte offset
/// of the branch)`.
#[derive(Clone, Debug, Default)]
pub struct EdgeProfiles {
    counts: HashMap<(ImageId, u64), (u64, u64)>,
}

impl EdgeProfiles {
    /// Creates an empty set.
    #[must_use]
    pub fn new() -> EdgeProfiles {
        EdgeProfiles::default()
    }

    /// Records `count` edge samples at the branch at `offset` in `image`.
    pub fn add(&mut self, image: ImageId, offset: u64, taken: bool, count: u64) {
        let slot = self.counts.entry((image, offset)).or_insert((0, 0));
        if taken {
            slot.0 += count;
        } else {
            slot.1 += count;
        }
    }

    /// `(taken, fall-through)` counts for the branch at `offset`.
    #[must_use]
    pub fn get(&self, image: ImageId, offset: u64) -> (u64, u64) {
        self.counts.get(&(image, offset)).copied().unwrap_or((0, 0))
    }

    /// Merges another set into this one.
    pub fn merge(&mut self, other: &EdgeProfiles) {
        for (&(img, off), &(t, n)) in &other.counts {
            self.add(img, off, true, t);
            self.add(img, off, false, n);
        }
    }

    /// Total edge samples recorded.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.counts.values().map(|(t, n)| t + n).sum()
    }

    /// Iterates `((image, offset), (taken, fallthrough))`.
    pub fn iter(&self) -> impl Iterator<Item = (&(ImageId, u64), &(u64, u64))> {
        self.counts.iter()
    }
}

/// Path samples from double sampling (§7): pairs of PCs along the
/// execution path, keyed by `(image1, offset1, image2, offset2)`. Pairs
/// that span a control transfer record its dynamic target — including
/// indirect jumps, which static CFG analysis cannot resolve.
#[derive(Clone, Debug, Default)]
pub struct PathProfiles {
    counts: HashMap<(ImageId, u64, ImageId, u64), u64>,
}

impl PathProfiles {
    /// Creates an empty set.
    #[must_use]
    pub fn new() -> PathProfiles {
        PathProfiles::default()
    }

    /// Records `count` path samples from `(img1, off1)` to `(img2, off2)`.
    pub fn add(&mut self, img1: ImageId, off1: u64, img2: ImageId, off2: u64, count: u64) {
        *self.counts.entry((img1, off1, img2, off2)).or_insert(0) += count;
    }

    /// Count of the pair `(img1, off1) → (img2, off2)`.
    #[must_use]
    pub fn get(&self, img1: ImageId, off1: u64, img2: ImageId, off2: u64) -> u64 {
        self.counts
            .get(&(img1, off1, img2, off2))
            .copied()
            .unwrap_or(0)
    }

    /// All observed successors of `(image, offset)` within the same
    /// image, as `(successor offset, count)` — what the CFG augmentation
    /// consumes for indirect jumps.
    #[must_use]
    pub fn successors(&self, image: ImageId, offset: u64) -> Vec<(u64, u64)> {
        let mut v: Vec<(u64, u64)> = self
            .counts
            .iter()
            .filter(|(&(i1, o1, i2, _), _)| i1 == image && o1 == offset && i2 == image)
            .map(|(&(_, _, _, o2), &c)| (o2, c))
            .collect();
        v.sort_unstable();
        v
    }

    /// Merges another set into this one.
    pub fn merge(&mut self, other: &PathProfiles) {
        for (&k, &c) in &other.counts {
            *self.counts.entry(k).or_insert(0) += c;
        }
    }

    /// Total path samples recorded.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.counts.values().sum()
    }

    /// Iterates all pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&(ImageId, u64, ImageId, u64), &u64)> {
        self.counts.iter()
    }
}

/// A collection of profiles keyed by `(image, event)`, as held by the
/// daemon between flushes and by the analysis tools after loading an epoch.
#[derive(Clone, Debug, Default)]
pub struct ProfileSet {
    profiles: HashMap<ProfileKey, Profile>,
}

impl ProfileSet {
    /// Creates an empty set.
    #[must_use]
    pub fn new() -> ProfileSet {
        ProfileSet::default()
    }

    /// Adds `count` samples for `(image, event)` at `offset`.
    pub fn add(&mut self, image: ImageId, event: Event, offset: u64, count: u64) {
        self.profiles
            .entry(ProfileKey { image, event })
            .or_default()
            .add(offset, count);
    }

    /// Returns the profile for a key, if any samples were recorded for it.
    #[must_use]
    pub fn get(&self, image: ImageId, event: Event) -> Option<&Profile> {
        self.profiles.get(&ProfileKey { image, event })
    }

    /// Merges another set into this one.
    pub fn merge(&mut self, other: &ProfileSet) {
        for (key, prof) in &other.profiles {
            self.profiles.entry(*key).or_default().merge(prof);
        }
    }

    /// Sums `(key, profile)` parts into one set: the parts are grouped by
    /// key and each group summed once with [`Profile::sum`]. A key whose
    /// parts are all empty still gets an (empty) profile, as merging
    /// them one by one would give it.
    #[must_use]
    pub fn sum<'a>(parts: impl IntoIterator<Item = (ProfileKey, &'a Profile)>) -> ProfileSet {
        let mut groups: HashMap<ProfileKey, Vec<&Profile>> = HashMap::new();
        for (key, profile) in parts {
            groups.entry(key).or_default().push(profile);
        }
        let profiles = groups
            .into_iter()
            .map(|(key, runs)| (key, Profile::sum(&runs)))
            .collect();
        ProfileSet { profiles }
    }

    /// Inserts or merges a whole profile under `key`; a profile for a
    /// vacant key is moved in, not copied.
    pub fn insert(&mut self, key: ProfileKey, profile: Profile) {
        match self.profiles.entry(key) {
            Entry::Occupied(mut e) => e.get_mut().merge(&profile),
            Entry::Vacant(e) => {
                e.insert(profile);
            }
        }
    }

    /// Iterates all `(key, profile)` pairs in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (&ProfileKey, &Profile)> {
        self.profiles.iter()
    }

    /// Iterates keys in sorted order (stable output for tools).
    #[must_use]
    pub fn sorted_keys(&self) -> Vec<ProfileKey> {
        let mut keys: Vec<_> = self.profiles.keys().copied().collect();
        keys.sort_unstable();
        keys
    }

    /// Total samples across every `(image, event)` profile in the set —
    /// the quantity the collection pipeline's loss ledger conserves.
    #[must_use]
    pub fn total_samples(&self) -> u64 {
        self.profiles.values().map(Profile::total).sum()
    }

    /// Total samples of `event` across all images.
    #[must_use]
    pub fn event_total(&self, event: Event) -> u64 {
        self.profiles
            .iter()
            .filter(|(k, _)| k.event == event)
            .map(|(_, p)| p.total())
            .sum()
    }

    /// Number of distinct profiles (image × event combinations).
    #[must_use]
    pub fn len(&self) -> usize {
        self.profiles.len()
    }

    /// True if no profiles are present.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.profiles.is_empty()
    }

    /// Removes all profiles, keeping allocations.
    pub fn clear(&mut self) {
        self.profiles.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prng::CartaRng;
    use crate::types::{Event, ImageId};

    #[test]
    fn add_and_get() {
        let mut p = Profile::new();
        p.add(16, 3);
        p.add(16, 2);
        p.add(32, 1);
        assert_eq!(p.get(16), 5);
        assert_eq!(p.get(32), 1);
        assert_eq!(p.get(48), 0);
        assert_eq!(p.total(), 6);
        assert_eq!(p.len(), 2);
    }

    #[test]
    fn zero_count_adds_are_ignored() {
        let mut p = Profile::new();
        p.add(4, 0);
        assert!(p.is_empty());
    }

    #[test]
    fn merge_is_pointwise_sum() {
        let a: Profile = [(0, 1), (8, 2)].into_iter().collect();
        let b: Profile = [(8, 3), (12, 4)].into_iter().collect();
        let mut m = a.clone();
        m.merge(&b);
        assert_eq!(m.get(0), 1);
        assert_eq!(m.get(8), 5);
        assert_eq!(m.get(12), 4);
        assert_eq!(m.total(), a.total() + b.total());
    }

    /// The left fold [`Profile::sum`] must equal.
    fn fold(runs: &[&Profile]) -> Profile {
        runs.iter().fold(Profile::new(), |mut acc, p| {
            acc.merge(p);
            acc
        })
    }

    /// Draws one offset for [`random_profile`].
    type Draw = fn(&mut CartaRng) -> u64;

    /// Up to `max_len` entries with counts 1..=9 at offsets `offset` draws.
    fn random_profile(rng: &mut CartaRng, max_len: u32, offset: Draw) -> Profile {
        let len = rng.next_u31() % (max_len + 1);
        (0..len)
            .map(|_| (offset(rng), u64::from(rng.next_u31() % 9 + 1)))
            .collect()
    }

    #[test]
    fn sum_equals_the_left_fold_of_merge() {
        let shapes: [(&str, Draw); 5] = [
            ("aligned text", |r| 4 * u64::from(r.next_u31() % 4096)),
            ("unaligned", |r| 3 + u64::from(r.next_u31() % 5000)),
            ("lo == hi", |_| 0x4_0000),
            // Raw PCs: user text low, kernel-like PCs just under u64::MAX.
            ("raw pcs", |r| match r.next_u31() % 3 {
                0 => 0x1_0000 + 4 * u64::from(r.next_u31() % 300),
                1 => u64::MAX - u64::from(r.next_u31() % 300),
                _ => (u64::from(r.next_u31()) << 33) | u64::from(r.next_u31()),
            }),
            // With `u64::MAX` in the span, every small offset shares slot 0.
            ("one slot", |r| match r.next_u31() % 50 {
                0 => u64::MAX,
                _ => u64::from(r.next_u31() % 64),
            }),
        ];
        let mut rng = CartaRng::new(0x5_0a7);
        for (name, offset) in shapes {
            for trial in 0..40 {
                let n = match trial {
                    0 => 0,
                    1 => 1,
                    _ => 2 + rng.next_u31() % 14,
                };
                let max_len = [0, 1, 8, 300][trial % 4];
                let runs: Vec<Profile> = (0..n)
                    .map(|_| random_profile(&mut rng, max_len, offset))
                    .collect();
                let refs: Vec<&Profile> = runs.iter().collect();
                assert_eq!(Profile::sum(&refs), fold(&refs), "{name}, trial {trial}");
            }
        }
    }

    #[test]
    fn sum_allocates_its_slots_within_two_per_entry() {
        let mut rng = CartaRng::new(7);
        // Dense text fills distinct slots. With `u64::MAX` in the span,
        // every other offset maps to slot 0, so most go to the side list.
        let cases: [(bool, Draw); 2] = [
            (false, |r| 4 * u64::from(r.next_u31() % 2000)),
            (true, |r| u64::from(r.next_u31() % 100_000)),
        ];
        for (collide, offset) in cases {
            let mut runs: Vec<Profile> = (0..12)
                .map(|_| random_profile(&mut rng, 2000, offset))
                .collect();
            if collide {
                runs.push([(u64::MAX, 1)].into_iter().collect());
            }
            let refs: Vec<&Profile> = runs.iter().collect();
            let n: u64 = runs.iter().map(|p| p.len() as u64).sum();
            let (sum, allocs) = dcpi_testkit::measure(|| Profile::sum(&refs));
            assert_eq!(sum, fold(&refs));
            let (entry, out) = (16, 16 * sum.len() as u64);
            if collide {
                // The side list grows by doubling: at most two entries
                // per input entry on top of the slots.
                let bound = entry * (2 * n + 2 * n);
                assert!(allocs.peak - out <= bound, "{allocs:?} for {n} entries");
            } else {
                // The slot array and the exact-size result, nothing else.
                assert_eq!(allocs.calls, 2, "{allocs:?}");
                let bound = entry * 2 * n;
                assert!(allocs.peak - out <= bound, "{allocs:?} for {n} entries");
            }
        }
    }

    #[test]
    fn iter_is_sorted_by_offset() {
        let p: Profile = [(40, 1), (0, 1), (16, 1)].into_iter().collect();
        let offs: Vec<u64> = p.iter().map(|(o, _)| o).collect();
        assert_eq!(offs, vec![0, 16, 40]);
    }

    #[test]
    fn range_total_is_half_open() {
        let p: Profile = [(0, 1), (4, 2), (8, 4), (12, 8)].into_iter().collect();
        assert_eq!(p.range_total(4, 12), 6);
        assert_eq!(p.range_total(0, 16), 15);
        assert_eq!(p.range_total(5, 8), 0);
    }

    #[test]
    fn profile_set_add_and_event_total() {
        let mut s = ProfileSet::new();
        s.add(ImageId(1), Event::Cycles, 0, 10);
        s.add(ImageId(2), Event::Cycles, 4, 5);
        s.add(ImageId(1), Event::IMiss, 0, 2);
        assert_eq!(s.event_total(Event::Cycles), 15);
        assert_eq!(s.event_total(Event::IMiss), 2);
        assert_eq!(s.len(), 3);
        assert_eq!(s.get(ImageId(1), Event::Cycles).unwrap().total(), 10);
        assert!(s.get(ImageId(3), Event::Cycles).is_none());
    }

    #[test]
    fn profile_set_merge() {
        let mut a = ProfileSet::new();
        a.add(ImageId(1), Event::Cycles, 0, 1);
        let mut b = ProfileSet::new();
        b.add(ImageId(1), Event::Cycles, 0, 2);
        b.add(ImageId(9), Event::DMiss, 8, 3);
        a.merge(&b);
        assert_eq!(a.get(ImageId(1), Event::Cycles).unwrap().get(0), 3);
        assert_eq!(a.get(ImageId(9), Event::DMiss).unwrap().get(8), 3);
    }

    #[test]
    fn sorted_keys_are_sorted() {
        let mut s = ProfileSet::new();
        s.add(ImageId(5), Event::IMiss, 0, 1);
        s.add(ImageId(1), Event::Cycles, 0, 1);
        s.add(ImageId(5), Event::Cycles, 0, 1);
        let keys = s.sorted_keys();
        assert_eq!(keys.len(), 3);
        assert!(keys.windows(2).all(|w| w[0] <= w[1]));
    }
}
