//! A set-associative cache model with LRU replacement.
//!
//! Caches are indexed by *physical* line address: the OS's
//! virtual-to-physical page assignment therefore determines which lines
//! conflict, reproducing the paper's observation that wave5's run time
//! varies with the page mapping ("if different data items are located on
//! pages that map to the same location in the board cache, the number of
//! conflict misses will increase", §3.3).

/// A set-associative cache. Tracks only tags (the simulator stores data
/// separately), which is all timing needs.
#[derive(Clone, Debug)]
pub struct Cache {
    /// log2 of the line size in bytes.
    line_shift: u32,
    /// Number of sets (power of two).
    sets: usize,
    /// Associativity.
    ways: usize,
    /// `tags[set * ways + way]`: the line address stored plus one; 0 is
    /// an empty way, so a new cache is zeroed memory the OS maps in only
    /// as sets are touched (a 2 MB board cache touches few of its 32 768).
    tags: Vec<u64>,
    /// LRU ordering: `lru[set * ways + k]` is the way index of the k-th
    /// most recently used entry in the set.
    lru: Vec<u8>,
    hits: u64,
    misses: u64,
}

/// Result of a cache probe.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Probe {
    /// The line was present.
    Hit,
    /// The line was absent and has been filled.
    Miss,
}

impl Cache {
    /// Creates a cache of `size_bytes` with the given `line_bytes` and
    /// `ways`.
    ///
    /// # Panics
    ///
    /// Panics unless sizes are powers of two and `size_bytes` is divisible
    /// by `line_bytes * ways`.
    #[must_use]
    pub fn new(size_bytes: u64, line_bytes: u64, ways: usize) -> Cache {
        assert!(line_bytes.is_power_of_two(), "line size not a power of two");
        assert!(
            size_bytes.is_multiple_of(line_bytes * ways as u64),
            "bad geometry"
        );
        let sets = (size_bytes / line_bytes / ways as u64) as usize;
        assert!(sets.is_power_of_two(), "set count not a power of two");
        assert!(ways <= u8::MAX as usize);
        Cache {
            line_shift: line_bytes.trailing_zeros(),
            sets,
            ways,
            tags: vec![0; sets * ways],
            // Zeroed too: a direct-mapped set's one way is way 0.
            lru: if ways == 1 {
                vec![0; sets]
            } else {
                (0..sets * ways).map(|i| (i % ways) as u8).collect()
            },
            hits: 0,
            misses: 0,
        }
    }

    /// Line size in bytes.
    #[must_use]
    pub fn line_bytes(&self) -> u64 {
        1 << self.line_shift
    }

    /// Probes (and on miss, fills) the line containing physical address
    /// `paddr`.
    pub fn access(&mut self, paddr: u64) -> Probe {
        let line = paddr >> self.line_shift;
        let set = (line as usize) & (self.sets - 1);
        if self.ways == 1 {
            // Direct-mapped (every default cache): the set is one tag and
            // its LRU order a constant, so a hit changes nothing but the
            // count and a miss replaces the tag.
            let tag = &mut self.tags[set];
            if *tag == line + 1 {
                self.hits += 1;
                return Probe::Hit;
            }
            *tag = line + 1;
            self.misses += 1;
            return Probe::Miss;
        }
        let base = set * self.ways;
        let tags = &mut self.tags[base..base + self.ways];
        let lru = &mut self.lru[base..base + self.ways];
        if let Some(pos) = (0..self.ways).find(|&w| tags[w] == line + 1) {
            // Move `pos` to MRU position in the LRU order.
            let k = lru.iter().position(|&w| w as usize == pos).unwrap();
            lru[..=k].rotate_right(1);
            self.hits += 1;
            return Probe::Hit;
        }
        // Fill: evict the LRU way (last in the order).
        let victim = lru[self.ways - 1] as usize;
        tags[victim] = line + 1;
        lru.rotate_right(1);
        debug_assert_eq!(lru[0] as usize, victim);
        self.misses += 1;
        Probe::Miss
    }

    /// Records a hit for a line the caller has proven is at the MRU
    /// position of its set (because the immediately preceding access to
    /// this cache touched the same line). In that case `access` would
    /// find the line at LRU position 0 and `rotate_right` over a
    /// single-element prefix — a no-op — so bumping the hit counter is
    /// the *entire* observable effect. The superblock dispatch loop uses
    /// this to coalesce straight-line runs that stay within one line.
    pub fn hit_mru(&mut self, paddr: u64) {
        let _ = paddr;
        #[cfg(debug_assertions)]
        {
            let line = paddr >> self.line_shift;
            let set = (line as usize) & (self.sets - 1);
            let base = set * self.ways;
            let mru = self.lru[base] as usize;
            debug_assert_eq!(
                self.tags[base + mru],
                line + 1,
                "hit_mru caller invariant: line must be MRU in its set"
            );
        }
        self.hits += 1;
    }

    /// Probes without filling or updating statistics (used by analysis
    /// tooling and tests).
    #[must_use]
    pub fn peek(&self, paddr: u64) -> bool {
        let line = paddr >> self.line_shift;
        let set = (line as usize) & (self.sets - 1);
        let base = set * self.ways;
        self.tags[base..base + self.ways].contains(&(line + 1))
    }

    /// Invalidates everything (e.g. for tests).
    pub fn flush(&mut self) {
        self.tags.fill(0);
    }

    /// Total hits so far.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Total misses so far.
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.misses
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_touch_misses_then_hits() {
        let mut c = Cache::new(8192, 64, 2);
        assert_eq!(c.access(0x1000), Probe::Miss);
        assert_eq!(c.access(0x1000), Probe::Hit);
        assert_eq!(c.access(0x1008), Probe::Hit, "same line");
        assert_eq!(c.access(0x1040), Probe::Miss, "next line");
        assert_eq!(c.hits(), 2);
        assert_eq!(c.misses(), 2);
    }

    #[test]
    fn lru_evicts_least_recent() {
        // 2-way, line 64, 2 sets → set stride 128.
        let mut c = Cache::new(256, 64, 2);
        let a = 0x0000; // set 0
        let b = 0x0080; // set 0 (conflicts)
        let d = 0x0100; // set 0 (conflicts)
        assert_eq!(c.access(a), Probe::Miss);
        assert_eq!(c.access(b), Probe::Miss);
        assert_eq!(c.access(a), Probe::Hit);
        // Fill d: evicts b (LRU), not a.
        assert_eq!(c.access(d), Probe::Miss);
        assert_eq!(c.access(a), Probe::Hit);
        assert_eq!(c.access(b), Probe::Miss, "b was evicted");
    }

    #[test]
    fn sets_are_independent() {
        let mut c = Cache::new(256, 64, 2);
        assert_eq!(c.access(0x0000), Probe::Miss); // set 0
        assert_eq!(c.access(0x0040), Probe::Miss); // set 1
        assert_eq!(c.access(0x0000), Probe::Hit);
        assert_eq!(c.access(0x0040), Probe::Hit);
    }

    #[test]
    fn direct_mapped_conflicts() {
        let mut c = Cache::new(128, 64, 1);
        assert_eq!(c.access(0x0000), Probe::Miss);
        assert_eq!(c.access(0x0080), Probe::Miss); // same set, evicts
        assert_eq!(c.access(0x0000), Probe::Miss); // conflict
    }

    #[test]
    fn peek_does_not_fill() {
        let mut c = Cache::new(8192, 64, 2);
        assert!(!c.peek(0x40));
        let _ = c.access(0x40);
        assert!(c.peek(0x40));
        assert_eq!(c.hits() + c.misses(), 1, "peek not counted");
    }

    #[test]
    fn flush_empties() {
        let mut c = Cache::new(8192, 64, 2);
        let _ = c.access(0x40);
        c.flush();
        assert!(!c.peek(0x40));
    }

    #[test]
    fn full_associativity_within_set() {
        let mut c = Cache::new(4 * 64, 64, 4); // one set, 4 ways
        for i in 0..4u64 {
            assert_eq!(c.access(i * 64), Probe::Miss);
        }
        for i in 0..4u64 {
            assert_eq!(c.access(i * 64), Probe::Hit);
        }
        // Fifth line evicts the LRU (line 0 after the hit sweep? No:
        // after hitting 0,1,2,3 in order, LRU is 0).
        assert_eq!(c.access(4 * 64), Probe::Miss);
        assert_eq!(c.access(0), Probe::Miss, "line 0 was LRU");
    }

    #[test]
    #[should_panic(expected = "bad geometry")]
    fn bad_geometry_panics() {
        let _ = Cache::new(100, 64, 2);
    }

    #[test]
    fn hit_mru_is_equivalent_to_access_for_mru_line() {
        let mut a = Cache::new(8192, 64, 2);
        let _ = a.access(0x1000);
        let _ = a.access(0x2040);
        let mut b = a.clone();
        // 0x2040's line was the last one touched, so it is MRU in its set.
        a.hit_mru(0x2044);
        assert_eq!(b.access(0x2044), Probe::Hit);
        assert_eq!(format!("{a:?}"), format!("{b:?}"), "full state identical");
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "hit_mru caller invariant")]
    fn hit_mru_rejects_non_mru_line() {
        let mut c = Cache::new(8192, 64, 2);
        let _ = c.access(0x1000);
        c.hit_mru(0x2040);
    }

    /// The direct-mapped path against an independent one-way model — a
    /// tag per set, hit iff the set holds the line — on random addresses
    /// over twice the cache's span, with `peek` and `hit_mru` mixed in as
    /// the walker uses them.
    #[test]
    fn direct_mapped_path_matches_a_one_way_model() {
        let mut rng = dcpi_core::prng::CartaRng::new(0x0dcf_0c25);
        let (size, line) = (2048u64, 32u64);
        let mut c = Cache::new(size, line, 1);
        let mut model: Vec<Option<u64>> = vec![None; (size / line) as usize];
        let (mut hits, mut misses) = (0u64, 0u64);
        let mut last = None;
        for _ in 0..20_000 {
            let paddr = rng.uniform(0, 2 * size - 1);
            let (l, set) = (paddr / line, ((paddr / line) % (size / line)) as usize);
            assert_eq!(c.peek(paddr), model[set] == Some(l), "peek {paddr:#x}");
            if last == Some(l) && rng.uniform(0, 1) == 0 {
                c.hit_mru(paddr);
                hits += 1;
                continue;
            }
            let want = if model[set] == Some(l) {
                hits += 1;
                Probe::Hit
            } else {
                model[set] = Some(l);
                misses += 1;
                Probe::Miss
            };
            assert_eq!(c.access(paddr), want, "access {paddr:#x}");
            last = Some(l);
        }
        assert_eq!((c.hits(), c.misses()), (hits, misses));
        assert!(
            hits > 1_000 && misses > 1_000,
            "{hits} hits, {misses} misses"
        );
    }
}
