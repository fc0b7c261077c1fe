//! Process model: registers, virtual memory, page table, and load map.
//!
//! Memory is plain boxed pages: a page map from virtual page number to a
//! frame index, and the frames themselves in first-touch order. A small
//! direct-mapped memo (`PageMemo`) in front of the map serves reads and
//! writes alike. Frames never move and the map is insert-only, so a filled
//! memo slot can never go stale and nothing ever invalidates it; `Clone`
//! deep-copies the frames, so a clone and its original share nothing.

use dcpi_core::{Addr, FastMap, ImageId, Pid};
use dcpi_isa::reg::Reg;

/// Words per page in the process memory store.
const PAGE_WORDS_SHIFT: u64 = 10; // 1024 words = 8KB
/// Words per page, as a length.
const PAGE_WORDS: usize = 1 << PAGE_WORDS_SHIFT;
/// Slots in a [`PageMemo`] (a power of two).
const MEMO_SLOTS: usize = 16;

/// A small direct-mapped memo of page lookups: one `(page, value)` pair
/// per slot. Callers fill it only with values that never change for the
/// page (a process's frame index, a translated physical page), so a
/// filled slot is never stale and the memo needs no invalidation. An
/// empty slot holds page `u64::MAX`, which no page number reaches.
#[derive(Clone, Copy, Debug)]
pub(crate) struct PageMemo<T> {
    slots: [(u64, T); MEMO_SLOTS],
}

impl<T: Copy + Default> PageMemo<T> {
    pub(crate) fn new() -> PageMemo<T> {
        PageMemo {
            slots: [(u64::MAX, T::default()); MEMO_SLOTS],
        }
    }

    /// The slot of `page`, by Fibonacci hashing: the workloads lay arrays
    /// out at power-of-two offsets, which would share slots if the low
    /// bits of the page number picked them.
    #[inline]
    fn slot(page: u64) -> usize {
        (page.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> (64 - MEMO_SLOTS.trailing_zeros())) as usize
    }

    /// The value memoized for `page`, if its slot holds it.
    #[inline]
    pub(crate) fn get(&self, page: u64) -> Option<T> {
        let (p, v) = self.slots[Self::slot(page)];
        (p == page).then_some(v)
    }

    /// Memoizes `value` for `page`, evicting whatever shared its slot.
    #[inline]
    pub(crate) fn put(&mut self, page: u64, value: T) {
        self.slots[Self::slot(page)] = (page, value);
    }
}

/// Splits a byte address into its page number and word offset.
#[inline]
fn locate(vaddr: u64) -> (u64, usize) {
    let widx = vaddr >> 3;
    (widx >> PAGE_WORDS_SHIFT, widx as usize & (PAGE_WORDS - 1))
}

/// One mapping in a process's address space: an image's text mapped at a
/// base address.
#[derive(Clone, Debug)]
pub struct Mapping {
    /// Virtual base address of the image text.
    pub base: Addr,
    /// Mapped size in bytes.
    pub size: u64,
    /// The mapped image.
    pub image: ImageId,
}

impl Mapping {
    /// True if `pc` falls inside this mapping.
    #[must_use]
    pub fn contains(&self, pc: Addr) -> bool {
        pc.0 >= self.base.0 && pc.0 < self.base.0 + self.size
    }
}

/// Run state of a process.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ProcState {
    /// Eligible to run.
    Runnable,
    /// Exited via `call_pal halt`.
    Exited,
}

/// A simulated process.
#[derive(Clone, Debug)]
pub struct Process {
    /// Process id.
    pub pid: Pid,
    /// Program counter.
    pub pc: Addr,
    /// Unified register file (integer + FP); the zero registers are
    /// enforced by the accessors.
    regs: [u64; Reg::COUNT],
    /// Virtual memory: page number → index of its frame in `frames`.
    /// Insert-only: a touched page keeps its frame for life.
    pages: FastMap<u64, usize>,
    /// The resident pages' words, in first-touch order.
    frames: Vec<Box<[u64; PAGE_WORDS]>>,
    /// Recent `pages` lookups, shared by reads and writes. Holds resident
    /// pages only (an absent page may materialize later via a write).
    memo: PageMemo<usize>,
    /// Virtual page → physical page (for cache indexing).
    pub page_table: FastMap<u64, u64>,
    /// Images mapped into this address space, sorted by base.
    pub loadmap: Vec<Mapping>,
    /// Run state.
    pub state: ProcState,
}

impl Process {
    /// Creates an empty process.
    #[must_use]
    pub fn new(pid: Pid) -> Process {
        Process {
            pid,
            pc: Addr(0),
            regs: [0; Reg::COUNT],
            pages: FastMap::default(),
            frames: Vec::new(),
            memo: PageMemo::new(),
            page_table: FastMap::default(),
            loadmap: Vec::new(),
            state: ProcState::Runnable,
        }
    }

    /// Reads a register (zero registers read as 0).
    #[inline]
    #[must_use]
    pub fn reg(&self, r: Reg) -> u64 {
        if r.is_zero() {
            0
        } else {
            self.regs[r.index()]
        }
    }

    /// Writes a register (writes to zero registers are discarded).
    #[inline]
    pub fn set_reg(&mut self, r: Reg, v: u64) {
        if !r.is_zero() {
            self.regs[r.index()] = v;
        }
    }

    /// Reads a register by raw unified index, without the zero-register
    /// guard. Equivalent to [`Process::reg`] because the zero registers'
    /// slots are never written (both write paths discard them), so they
    /// always read 0. Used by the dispatch walker, whose micro-ops carry
    /// pre-decoded register indices.
    #[inline]
    pub(crate) fn reg_i(&self, i: u8) -> u64 {
        self.regs[i as usize]
    }

    /// Writes a register by raw unified index. Callers must have already
    /// filtered zero-register destinations (micro-ops compile those to
    /// `NO_WRITE`), preserving the invariant `reg_i` relies on.
    #[inline]
    pub(crate) fn set_reg_i(&mut self, i: u8, v: u64) {
        debug_assert!(
            !Reg::from_index(i).is_zero(),
            "zero-register writes must be compiled away"
        );
        self.regs[i as usize] = v;
    }

    /// Adds a mapping, keeping the load map sorted by base.
    ///
    /// # Panics
    ///
    /// Panics if the new mapping overlaps an existing one, or if `base` is
    /// not 8-byte aligned: instructions dual-issue as aligned pairs, and
    /// the alignment is what guarantees a pair never straddles two
    /// mappings.
    pub fn map_image(&mut self, base: Addr, size: u64, image: ImageId) {
        assert!(
            base.0.is_multiple_of(8),
            "mapping base must be 8-byte aligned, got {:#x}",
            base.0
        );
        let m = Mapping { base, size, image };
        assert!(
            !self
                .loadmap
                .iter()
                .any(|e| m.base.0 < e.base.0 + e.size && e.base.0 < m.base.0 + m.size),
            "overlapping image mapping"
        );
        let pos = self.loadmap.partition_point(|e| e.base.0 < base.0);
        self.loadmap.insert(pos, m);
    }

    /// Finds the mapping containing `pc`.
    #[must_use]
    pub fn mapping_at(&self, pc: Addr) -> Option<&Mapping> {
        let idx = self
            .loadmap
            .partition_point(|m| m.base.0 <= pc.0)
            .checked_sub(1)?;
        let m = &self.loadmap[idx];
        m.contains(pc).then_some(m)
    }

    /// The frame of resident page `vpage`, through the memo (filled on a
    /// miss); `None` if the page was never written.
    #[inline]
    fn frame(&mut self, vpage: u64) -> Option<usize> {
        if let Some(f) = self.memo.get(vpage) {
            return Some(f);
        }
        let f = *self.pages.get(&vpage)?;
        self.memo.put(vpage, f);
        Some(f)
    }

    /// Gives first-touched page `vpage` a zeroed frame.
    #[cold]
    fn touch(&mut self, vpage: u64) -> usize {
        let f = self.frames.len();
        self.frames.push(Box::new([0; PAGE_WORDS]));
        self.pages.insert(vpage, f);
        self.memo.put(vpage, f);
        f
    }

    /// Reads the 64-bit word at `vaddr` (aligned down to 8 bytes); absent
    /// pages read 0. Consults the memo but leaves it as it was.
    #[must_use]
    pub fn read_u64(&self, vaddr: u64) -> u64 {
        let (vpage, off) = locate(vaddr);
        let frame = self
            .memo
            .get(vpage)
            .or_else(|| self.pages.get(&vpage).copied());
        frame.map_or(0, |f| self.frames[f][off])
    }

    /// Reads the 64-bit word at `vaddr` as [`Process::read_u64`] does,
    /// filling the memo on a miss.
    #[inline]
    pub(crate) fn read_u64_fast(&mut self, vaddr: u64) -> u64 {
        let (vpage, off) = locate(vaddr);
        self.frame(vpage).map_or(0, |f| self.frames[f][off])
    }

    /// Reads the 32-bit longword at `vaddr` through the page memo,
    /// sign-extended (Alpha `ldl`).
    #[inline]
    pub(crate) fn read_u32_sext_fast(&mut self, vaddr: u64) -> u64 {
        let q = self.read_u64_fast(vaddr & !7);
        let half = if vaddr & 4 != 0 {
            (q >> 32) as u32
        } else {
            q as u32
        };
        half as i32 as i64 as u64
    }

    /// Writes the 64-bit word at `vaddr` (aligned down to 8 bytes).
    pub fn write_u64(&mut self, vaddr: u64, value: u64) {
        let (vpage, off) = locate(vaddr);
        let f = match self.frame(vpage) {
            Some(f) => f,
            None => self.touch(vpage),
        };
        self.frames[f][off] = value;
    }

    /// Writes the 32-bit longword at `vaddr` (Alpha `stl`).
    pub fn write_u32(&mut self, vaddr: u64, value: u32) {
        let q = self.read_u64_fast(vaddr & !7);
        let new = if vaddr & 4 != 0 {
            (q & 0x0000_0000_ffff_ffff) | (u64::from(value) << 32)
        } else {
            (q & 0xffff_ffff_0000_0000) | u64::from(value)
        };
        self.write_u64(vaddr & !7, new);
    }

    /// Number of resident virtual pages (for daemon memory accounting).
    #[must_use]
    pub fn resident_pages(&self) -> usize {
        self.frames.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcpi_core::prng::CartaRng;
    use std::collections::{BTreeMap, BTreeSet};

    fn p() -> Process {
        Process::new(Pid(1))
    }

    #[test]
    fn zero_registers_are_hardwired() {
        let mut proc = p();
        proc.set_reg(Reg::ZERO, 42);
        proc.set_reg(Reg::FZERO, 42);
        assert_eq!(proc.reg(Reg::ZERO), 0);
        assert_eq!(proc.reg(Reg::FZERO), 0);
        proc.set_reg(Reg::T0, 42);
        assert_eq!(proc.reg(Reg::T0), 42);
    }

    #[test]
    fn memory_roundtrip_u64() {
        let mut proc = p();
        proc.write_u64(0x1_0000, 0xdead_beef_cafe_f00d);
        assert_eq!(proc.read_u64(0x1_0000), 0xdead_beef_cafe_f00d);
        assert_eq!(proc.read_u64(0x1_0008), 0, "untouched is zero");
        assert_eq!(proc.read_u64(0x9_0000), 0, "unmapped page is zero");
    }

    #[test]
    fn memory_u32_halves() {
        let mut proc = p();
        proc.write_u32(0x100, 0x1111_1111);
        proc.write_u32(0x104, 0x2222_2222);
        assert_eq!(proc.read_u64(0x100), 0x2222_2222_1111_1111);
        assert_eq!(proc.read_u32_sext_fast(0x100), 0x1111_1111);
        assert_eq!(proc.read_u32_sext_fast(0x104), 0x2222_2222);
    }

    #[test]
    fn ldl_sign_extends() {
        let mut proc = p();
        proc.write_u32(0x100, 0xffff_fffe);
        assert_eq!(proc.read_u32_sext_fast(0x100) as i64, -2);
    }

    #[test]
    fn mapping_lookup() {
        let mut proc = p();
        proc.map_image(Addr(0x10000), 0x1000, ImageId(1));
        proc.map_image(Addr(0x20000), 0x800, ImageId(2));
        assert_eq!(proc.mapping_at(Addr(0x10000)).unwrap().image, ImageId(1));
        assert_eq!(proc.mapping_at(Addr(0x10fff)).unwrap().image, ImageId(1));
        assert!(proc.mapping_at(Addr(0x11000)).is_none());
        assert_eq!(proc.mapping_at(Addr(0x20004)).unwrap().image, ImageId(2));
        assert!(proc.mapping_at(Addr(0)).is_none());
    }

    #[test]
    fn mappings_stay_sorted() {
        let mut proc = p();
        proc.map_image(Addr(0x30000), 0x100, ImageId(3));
        proc.map_image(Addr(0x10000), 0x100, ImageId(1));
        proc.map_image(Addr(0x20000), 0x100, ImageId(2));
        let bases: Vec<u64> = proc.loadmap.iter().map(|m| m.base.0).collect();
        assert_eq!(bases, vec![0x10000, 0x20000, 0x30000]);
    }

    #[test]
    #[should_panic(expected = "overlapping")]
    fn overlapping_mapping_panics() {
        let mut proc = p();
        proc.map_image(Addr(0x10000), 0x1000, ImageId(1));
        proc.map_image(Addr(0x10800), 0x1000, ImageId(2));
    }

    #[test]
    #[should_panic(expected = "8-byte aligned, got 0x10004")]
    fn misaligned_mapping_base_panics() {
        p().map_image(Addr(0x10004), 0x1000, ImageId(1));
    }

    #[test]
    fn fast_read_of_absent_page_is_zero_and_unmemoized() {
        let mut proc = p();
        assert_eq!(proc.read_u64_fast(0x5_0000), 0);
        proc.write_u64(0x5_0000, 9);
        assert_eq!(proc.read_u64_fast(0x5_0000), 9, "page appeared after write");
    }

    /// One step of the differential test below, applied to a process and
    /// to its model: a word map plus the set of touched pages.
    fn step(
        rng: &mut CartaRng,
        pages: &[u64],
        proc: &mut Process,
        words: &mut BTreeMap<u64, u64>,
        touched: &mut BTreeSet<u64>,
    ) {
        let page = pages[rng.uniform(0, pages.len() as u64 - 1) as usize];
        // Any byte of the page: every path aligns down itself.
        let addr = (page << 13) + rng.uniform(0, 8191);
        let value = (u64::from(rng.next_u31()) << 33) ^ u64::from(rng.next_u31());
        let word = words.get(&(addr & !7)).copied().unwrap_or(0);
        match rng.uniform(0, 5) {
            0 => {
                proc.write_u64(addr, value);
                words.insert(addr & !7, value);
                touched.insert(page);
            }
            1 => {
                proc.write_u32(addr, value as u32);
                let new = if addr & 4 != 0 {
                    (word & 0xffff_ffff) | (value << 32)
                } else {
                    (word & !0xffff_ffff) | (value & 0xffff_ffff)
                };
                words.insert(addr & !7, new);
                touched.insert(page);
            }
            2 => assert_eq!(proc.read_u64(addr), word, "read_u64 {addr:#x}"),
            3 => {
                let half = if addr & 4 != 0 { word >> 32 } else { word } as u32;
                let want = half as i32 as i64 as u64;
                assert_eq!(proc.read_u32_sext_fast(addr), want, "ldl {addr:#x}");
            }
            _ => assert_eq!(proc.read_u64_fast(addr), word, "read_u64_fast {addr:#x}"),
        }
    }

    /// Every word the model holds, every word of every page it does not,
    /// and the resident count.
    fn assert_matches(
        proc: &Process,
        pages: &[u64],
        words: &BTreeMap<u64, u64>,
        touched: &BTreeSet<u64>,
    ) {
        for (&addr, &v) in words {
            assert_eq!(proc.read_u64(addr), v, "{addr:#x}");
        }
        for &page in pages.iter().filter(|p| !touched.contains(p)) {
            assert_eq!(proc.read_u64(page << 13), 0, "absent page {page:#x}");
        }
        assert_eq!(proc.resident_pages(), touched.len());
    }

    /// `Process` memory against a `BTreeMap<u64, u64>` of words over 40
    /// pages, four to each of ten memo slots, so slots are refilled
    /// constantly and every lookup can be a collision. A clone taken
    /// mid-run and driven on its own must leave the original untouched.
    #[test]
    fn memory_matches_a_word_map_model() {
        let mut pages = Vec::new();
        let mut per_slot = [0; MEMO_SLOTS];
        for page in (0x1000_0000 >> 13)..u64::MAX {
            let slot = PageMemo::<usize>::slot(page);
            if slot < 10 && per_slot[slot] < 4 {
                per_slot[slot] += 1;
                pages.push(page);
            }
            if pages.len() == 40 {
                break;
            }
        }
        let mut rng = CartaRng::new(0x0dcf_0025);
        let mut proc = p();
        let (mut words, mut touched) = (BTreeMap::new(), BTreeSet::new());
        for i in 0..20_000 {
            step(&mut rng, &pages, &mut proc, &mut words, &mut touched);
            if i == 10_000 {
                let mut twin = proc.clone();
                let (mut twin_words, mut twin_touched) = (words.clone(), touched.clone());
                for _ in 0..2_000 {
                    step(
                        &mut rng,
                        &pages,
                        &mut twin,
                        &mut twin_words,
                        &mut twin_touched,
                    );
                }
                assert_matches(&twin, &pages, &twin_words, &twin_touched);
                assert_matches(&proc, &pages, &words, &touched);
            }
        }
        assert_matches(&proc, &pages, &words, &touched);
        assert!(
            touched.len() > MEMO_SLOTS,
            "{} pages touched",
            touched.len()
        );
    }

    #[test]
    fn resident_pages_counts_touched_pages() {
        let mut proc = p();
        assert_eq!(proc.resident_pages(), 0);
        proc.write_u64(0, 1);
        proc.write_u64(8192, 1);
        proc.write_u64(16, 1);
        assert_eq!(proc.resident_pages(), 2);
    }
}
