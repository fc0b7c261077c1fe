//! Process model: registers, virtual memory, page table, and load map.

use dcpi_core::{Addr, FastMap, ImageId, Pid};
use dcpi_isa::reg::Reg;
use std::sync::Arc;

/// Words per page in the process memory store.
const PAGE_WORDS_SHIFT: u64 = 10; // 1024 words = 8KB

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
    /// Virtual memory: page number → page of 64-bit words. Keyed with the
    /// fast deterministic hasher: there is one lookup per simulated
    /// memory access, making this the hottest map in the simulator.
    pages: FastMap<u64, Arc<[u64]>>,
    /// Virtual page → physical page (for cache indexing).
    pub page_table: FastMap<u64, u64>,
    /// Images mapped into this address space, sorted by base.
    pub loadmap: Vec<Mapping>,
    /// Run state.
    pub state: ProcState,
    /// One-entry page memo for [`Process::read_u64_fast`]: the last page
    /// read through the fast path. Invalidated by any write to the same
    /// page, which also keeps the copy-on-write refcount check in
    /// `page_mut` from seeing the memo's clone.
    read_memo: Option<(u64, Arc<[u64]>)>,
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
            page_table: FastMap::default(),
            loadmap: Vec::new(),
            state: ProcState::Runnable,
            read_memo: None,
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

    fn page_mut(&mut self, vpage: u64) -> &mut [u64] {
        let arc = self
            .pages
            .entry(vpage)
            .or_insert_with(|| vec![0u64; 1 << PAGE_WORDS_SHIFT].into());
        // Pages are process-private; clone-on-write keeps `Process: Clone`
        // cheap for tests that snapshot processes.
        if Arc::get_mut(arc).is_none() {
            let copy: Arc<[u64]> = arc.iter().copied().collect::<Vec<_>>().into();
            *arc = copy;
        }
        Arc::get_mut(arc).expect("unique after copy-on-write")
    }

    /// Reads the 64-bit word at `vaddr` (aligned down to 8 bytes).
    #[must_use]
    pub fn read_u64(&self, vaddr: u64) -> u64 {
        let widx = vaddr >> 3;
        let vpage = widx >> PAGE_WORDS_SHIFT;
        let off = (widx & ((1 << PAGE_WORDS_SHIFT) - 1)) as usize;
        self.pages.get(&vpage).map_or(0, |p| p[off])
    }

    /// Reads the 64-bit word at `vaddr` through the one-entry page memo.
    /// Returns exactly what [`Process::read_u64`] would: consecutive
    /// reads from one page — the common case in straight-line code —
    /// skip the page-map lookup. Absent pages are not memoized (they can
    /// materialize later via a write).
    #[inline]
    pub(crate) fn read_u64_fast(&mut self, vaddr: u64) -> u64 {
        let widx = vaddr >> 3;
        let vpage = widx >> PAGE_WORDS_SHIFT;
        let off = (widx & ((1 << PAGE_WORDS_SHIFT) - 1)) as usize;
        if let Some((p, page)) = &self.read_memo {
            if *p == vpage {
                return page[off];
            }
        }
        match self.pages.get(&vpage) {
            Some(page) => {
                let v = page[off];
                self.read_memo = Some((vpage, Arc::clone(page)));
                v
            }
            None => 0,
        }
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
        let widx = vaddr >> 3;
        let vpage = widx >> PAGE_WORDS_SHIFT;
        let off = (widx & ((1 << PAGE_WORDS_SHIFT) - 1)) as usize;
        // Drop the read memo before the write: it must not serve stale
        // data, and releasing its `Arc` clone keeps `page_mut`'s
        // copy-on-write check seeing a unique page.
        if self.read_memo.as_ref().is_some_and(|(p, _)| *p == vpage) {
            self.read_memo = None;
        }
        self.page_mut(vpage)[off] = value;
    }

    /// Writes the 32-bit longword at `vaddr` (Alpha `stl`).
    pub fn write_u32(&mut self, vaddr: u64, value: u32) {
        let q = self.read_u64(vaddr & !7);
        let new = if vaddr & 4 != 0 {
            (q & 0x0000_0000_ffff_ffff) | (u64::from(value) << 32)
        } else {
            (q & 0xffff_ffff_0000_0000) | u64::from(value)
        };
        self.write_u64(vaddr & !7, new);
    }
}

impl Process {
    /// Number of resident virtual pages (for daemon memory accounting).
    #[must_use]
    pub fn resident_pages(&self) -> usize {
        self.pages.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn fast_read_memo_stays_coherent_with_writes() {
        let mut proc = p();
        proc.write_u64(0x100, 11);
        assert_eq!(proc.read_u64_fast(0x100), 11, "first read populates memo");
        assert_eq!(proc.read_u64_fast(0x108), 0, "memoized page, other word");
        proc.write_u64(0x100, 22);
        assert_eq!(proc.read_u64_fast(0x100), 22, "write invalidates the memo");
        // A write to a *different* page leaves the memo valid.
        proc.write_u64(0x10_0000, 33);
        assert_eq!(proc.read_u64_fast(0x100), 22);
        assert_eq!(proc.read_u64_fast(0x10_0000), 33);
        assert_eq!(proc.read_u32_sext_fast(0x10_0000), 33);
    }

    #[test]
    fn fast_read_of_absent_page_is_zero_and_unmemoized() {
        let mut proc = p();
        assert_eq!(proc.read_u64_fast(0x5_0000), 0);
        proc.write_u64(0x5_0000, 9);
        assert_eq!(proc.read_u64_fast(0x5_0000), 9, "page appeared after write");
    }

    #[test]
    fn fast_read_memo_does_not_defeat_copy_on_write() {
        let mut a = p();
        a.write_u64(0, 7);
        let _ = a.read_u64_fast(0); // memo now holds an Arc clone
        let mut b = a.clone();
        b.write_u64(0, 9);
        assert_eq!(a.read_u64(0), 7);
        assert_eq!(a.read_u64_fast(0), 7);
        assert_eq!(b.read_u64(0), 9);
        a.write_u64(0, 8); // write invalidates a's own memo first
        assert_eq!(a.read_u64_fast(0), 8);
        assert_eq!(b.read_u64(0), 9);
    }

    #[test]
    fn clone_is_copy_on_write() {
        let mut a = p();
        a.write_u64(0, 7);
        let mut b = a.clone();
        b.write_u64(0, 9);
        assert_eq!(a.read_u64(0), 7);
        assert_eq!(b.read_u64(0), 9);
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
