//! The miniature operating system: images, processes, scheduling, page
//! placement, and the loader notifications the profiling daemon consumes.
//!
//! The paper's daemon learns image mappings from three sources (§4.3.2): a
//! modified dynamic loader that notifies it of every loaded image, a
//! kernel exec-path recognizer for static images, and a startup scan of
//! already-active processes. This model provides the same three: spawn
//! emits [`OsEvent::ImageLoaded`] notifications (covering the first two
//! sources), and [`Os::snapshot_loadmaps`] supports the startup scan.

use crate::proc::{Mapping, ProcState, Process};
use dcpi_core::prng::CartaRng;
use dcpi_core::{Addr, ImageId, Pid};
use dcpi_isa::asm::Asm;
use dcpi_isa::image::{Image, TEXT_BASE};
use dcpi_isa::insn::Instruction;
use dcpi_isa::meta::side_table;
use dcpi_isa::pipeline::PipelineModel;
use dcpi_isa::reg::Reg;
use dcpi_isa::uop::{compile_uops, Uop};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::Arc;

/// Virtual base address at which the kernel image is mapped in every
/// process (the `vmunix` of the paper's Figure 1).
pub const KERNEL_BASE: Addr = Addr(0x7000_0000);

/// Base address where the main image of each process is mapped.
pub const MAIN_BASE: Addr = Addr(TEXT_BASE);

/// Base of the data segment (heap) of each process.
pub const DATA_BASE: u64 = 0x1000_0000;

/// Initial stack pointer of each process.
pub const STACK_TOP: u64 = 0x2000_0000;

/// An image registered with the OS, decoded once for fast fetch.
#[derive(Clone, Debug)]
pub struct LoadedImage {
    /// The image id.
    pub id: ImageId,
    /// The image file.
    pub image: Arc<Image>,
    /// Pre-decoded text (what the stack walker inspects).
    pub insns: Arc<Vec<Instruction>>,
    /// Precompiled handler chain (positional with `insns`): the fully
    /// pre-decoded micro-op form the dispatch walker executes.
    pub uops: Arc<Vec<Uop>>,
}

/// Notifications consumed by the profiling daemon (§4.3.2).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum OsEvent {
    /// An image was mapped into a process (modified loader / exec
    /// recognizer notification).
    ImageLoaded {
        /// The process.
        pid: Pid,
        /// The image.
        image: ImageId,
        /// Virtual base address.
        base: Addr,
        /// Mapped size in bytes.
        size: u64,
        /// Image pathname.
        path: String,
    },
    /// A process was created.
    ProcessCreated {
        /// The new process.
        pid: Pid,
    },
    /// A process exited; the daemon may reap its per-process state.
    ProcessExited {
        /// The exited process.
        pid: Pid,
    },
}

/// The operating system model.
#[derive(Debug)]
pub struct Os {
    // A BTreeMap so `images()` iterates in id order: experiment outputs
    // and merged-run fingerprints must not depend on hash iteration order.
    images: BTreeMap<ImageId, LoadedImage>,
    by_name: HashMap<String, ImageId>,
    run_queues: Vec<VecDeque<Process>>,
    idle: Vec<Option<Process>>,
    loadmaps: HashMap<Pid, Vec<Mapping>>,
    events: Vec<OsEvent>,
    next_pid: u32,
    next_image: u32,
    next_ppage: u64,
    page_rng: Option<CartaRng>,
    /// log2 of the page size (pages are a power of two).
    page_shift: u32,
    kernel: ImageId,
    live_processes: usize,
    model: PipelineModel,
    // Bumped whenever a registered image's contents change in place
    // (`replace_image`): CPUs compare it to invalidate cached decoded
    // text and handler chains, so a PGO hot-swap can never execute stale
    // metadata.
    epoch: u64,
}

impl Os {
    /// Creates the OS with `cpus` processors, using `kernel` as the kernel
    /// image (see [`default_kernel`]) and the given page-placement policy.
    /// `model` is the pipeline model of the CPUs the OS will run on; it is
    /// used to compile each image's micro-ops at registration.
    ///
    /// # Panics
    ///
    /// Panics if `page_bytes` is not a power of two.
    #[must_use]
    pub fn new(
        cpus: usize,
        page_bytes: u64,
        kernel: Image,
        page_alloc_seed: Option<u32>,
        model: PipelineModel,
    ) -> Os {
        assert!(page_bytes.is_power_of_two(), "page size not a power of two");
        let mut os = Os {
            images: BTreeMap::new(),
            by_name: HashMap::new(),
            run_queues: (0..cpus).map(|_| VecDeque::new()).collect(),
            idle: (0..cpus).map(|_| None).collect(),
            loadmaps: HashMap::new(),
            events: Vec::new(),
            next_pid: 100,
            next_image: 1,
            next_ppage: 0,
            page_rng: page_alloc_seed.map(CartaRng::new),
            page_shift: page_bytes.trailing_zeros(),
            kernel: ImageId(0),
            live_processes: 0,
            model,
            epoch: 0,
        };
        let kid = os.register_image(kernel);
        os.kernel = kid;
        // Per-CPU idle processes run the kernel idle loop forever; their
        // samples show up under the kernel image, as on a real system.
        let entry = os
            .kernel_proc_addr("_idle_loop")
            .expect("kernel has idle loop");
        for cpu in 0..cpus {
            let pid = Pid(cpu as u32);
            let mut p = Process::new(pid);
            os.map_kernel(&mut p);
            p.pc = entry;
            os.loadmaps.insert(pid, p.loadmap.clone());
            os.idle[cpu] = Some(p);
        }
        os
    }

    /// The kernel image id.
    #[must_use]
    pub fn kernel_image(&self) -> ImageId {
        self.kernel
    }

    /// Registers an image, deduplicating by pathname.
    ///
    /// # Panics
    ///
    /// Panics if the image text fails to decode (images built by the
    /// assembler always decode).
    pub fn register_image(&mut self, image: Image) -> ImageId {
        if let Some(&id) = self.by_name.get(image.name()) {
            return id;
        }
        let id = ImageId(self.next_image);
        self.next_image += 1;
        let insns = image.decode_all().expect("image text must decode");
        let uops = compile_uops(&insns, &side_table(&insns, &self.model));
        self.by_name.insert(image.name().to_string(), id);
        self.images.insert(
            id,
            LoadedImage {
                id,
                image: Arc::new(image),
                insns: Arc::new(insns),
                uops: Arc::new(uops),
            },
        );
        id
    }

    /// Replaces the contents of an already-registered image in place (the
    /// PGO hot-swap: same id, rewritten text), rebuilding the decoded
    /// text and handler chain and bumping the invalidation
    /// [`epoch`](Os::epoch) so every CPU's cached chain pointers refresh
    /// before the next instruction executes.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not registered or the new text fails to decode.
    pub fn replace_image(&mut self, id: ImageId, image: Image) {
        let slot = self.images.get_mut(&id).expect("replace_image: unknown id");
        let insns = image.decode_all().expect("image text must decode");
        let uops = compile_uops(&insns, &side_table(&insns, &self.model));
        let old_name = slot.image.name().to_string();
        *slot = LoadedImage {
            id,
            image: Arc::new(image),
            insns: Arc::new(insns),
            uops: Arc::new(uops),
        };
        let new_name = self.images[&id].image.name().to_string();
        if old_name != new_name {
            if self.by_name.get(&old_name) == Some(&id) {
                self.by_name.remove(&old_name);
            }
            self.by_name.insert(new_name, id);
        }
        self.epoch += 1;
    }

    /// Image-content invalidation epoch (bumped by [`Os::replace_image`]).
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Looks up a registered image.
    #[must_use]
    pub fn image(&self, id: ImageId) -> Option<&LoadedImage> {
        self.images.get(&id)
    }

    /// All registered images.
    pub fn images(&self) -> impl Iterator<Item = &LoadedImage> {
        self.images.values()
    }

    /// Address of a kernel procedure (for workloads that call into the
    /// kernel).
    #[must_use]
    pub fn kernel_proc_addr(&self, name: &str) -> Option<Addr> {
        let k = self.images.get(&self.kernel)?;
        let sym = k.image.symbol_named(name)?;
        Some(Addr(KERNEL_BASE.0 + sym.offset))
    }

    fn map_kernel(&mut self, p: &mut Process) {
        let k = &self.images[&self.kernel];
        p.map_image(KERNEL_BASE, k.image.text_bytes(), self.kernel);
    }

    /// Spawns a process on `cpu`'s run queue running `main` (already
    /// registered) at its first symbol, with any extra shared images
    /// mapped at the given bases. `setup` may initialize registers and
    /// memory. Emits the loader notifications the daemon consumes.
    pub fn spawn(
        &mut self,
        cpu: usize,
        main: ImageId,
        extra: &[(ImageId, Addr)],
        setup: impl FnOnce(&mut Process),
    ) -> Pid {
        let pid = Pid(self.next_pid);
        self.next_pid += 1;
        let mut p = Process::new(pid);
        self.map_kernel(&mut p);
        let main_img = self.images.get(&main).expect("main image registered");
        let main_size = main_img.image.text_bytes();
        // Enter at `main` when the image has one, else at the first symbol.
        let entry_off = main_img
            .image
            .symbol_named("main")
            .or_else(|| main_img.image.symbols().first())
            .map_or(0, |s| s.offset);
        let entry = Addr(MAIN_BASE.0 + entry_off);
        p.map_image(MAIN_BASE, main_size, main);
        for &(id, base) in extra {
            let size = self.images[&id].image.text_bytes();
            p.map_image(base, size, id);
        }
        p.pc = entry;
        p.set_reg(Reg::SP, STACK_TOP);
        p.set_reg(Reg::GP, DATA_BASE);
        setup(&mut p);
        self.events.push(OsEvent::ProcessCreated { pid });
        for m in &p.loadmap {
            let path = self.images[&m.image].image.name().to_string();
            self.events.push(OsEvent::ImageLoaded {
                pid,
                image: m.image,
                base: m.base,
                size: m.size,
                path,
            });
        }
        self.loadmaps.insert(pid, p.loadmap.clone());
        self.live_processes += 1;
        self.run_queues[cpu].push_back(p);
        pid
    }

    /// Takes the next runnable process for `cpu` (falling back to the idle
    /// process). Returns `None` only if the idle process is already
    /// running on the CPU.
    pub fn take_next(&mut self, cpu: usize) -> Option<Process> {
        if let Some(p) = self.run_queues[cpu].pop_front() {
            return Some(p);
        }
        self.idle[cpu].take()
    }

    /// True if `cpu` has a queued (non-idle) runnable process.
    #[must_use]
    pub fn has_runnable(&self, cpu: usize) -> bool {
        !self.run_queues[cpu].is_empty()
    }

    /// Returns a preempted or yielding process to the back of `cpu`'s
    /// queue (idle processes return to their slot).
    pub fn yield_back(&mut self, cpu: usize, p: Process) {
        if (p.pid.0 as usize) < self.idle.len() && p.pid.0 as usize == cpu {
            self.idle[cpu] = Some(p);
        } else {
            self.run_queues[cpu].push_back(p);
        }
    }

    /// Handles process exit: emits the event and drops the process.
    pub fn exit(&mut self, mut p: Process) {
        p.state = ProcState::Exited;
        self.events.push(OsEvent::ProcessExited { pid: p.pid });
        self.loadmaps.remove(&p.pid);
        self.live_processes -= 1;
    }

    /// Number of live (spawned, unexited) processes, excluding idle.
    #[must_use]
    pub fn live_processes(&self) -> usize {
        self.live_processes
    }

    /// Allocates a physical page for a first-touched virtual page.
    /// Sequential by default; pseudo-random when configured, which varies
    /// board-cache conflict patterns run to run (§3.3).
    pub fn alloc_ppage(&mut self) -> u64 {
        match &mut self.page_rng {
            Some(rng) => u64::from(rng.next_u31()) % (1 << 20),
            None => {
                let p = self.next_ppage;
                self.next_ppage += 1;
                p
            }
        }
    }

    /// Translates a virtual address for `proc`, assigning a physical page
    /// on first touch. Returns the physical address (used only for cache
    /// indexing).
    pub fn translate(&mut self, proc: &mut Process, vaddr: u64) -> u64 {
        let vpage = vaddr >> self.page_shift;
        let ppage = match proc.page_table.get(&vpage) {
            Some(&p) => p,
            None => {
                let p = self.alloc_ppage();
                proc.page_table.insert(vpage, p);
                p
            }
        };
        (ppage << self.page_shift) | (vaddr & ((1 << self.page_shift) - 1))
    }

    /// Drains pending loader/exec/exit notifications (the daemon's feed).
    pub fn drain_events(&mut self) -> Vec<OsEvent> {
        std::mem::take(&mut self.events)
    }

    /// Snapshot of all live processes' load maps (the daemon's startup
    /// scan, §4.3.2).
    #[must_use]
    pub fn snapshot_loadmaps(&self) -> Vec<(Pid, Vec<Mapping>)> {
        let mut v: Vec<_> = self
            .loadmaps
            .iter()
            .map(|(&pid, m)| (pid, m.clone()))
            .collect();
        v.sort_by_key(|(pid, _)| *pid);
        v
    }
}

/// Builds the default kernel image (`/vmunix`): an idle loop plus a few
/// kernel procedures workloads can call (`bcopy`, `in_checksum`,
/// `Dispatch`), so kernel time shows up in profiles as in the paper's
/// Figure 1.
#[must_use]
pub fn default_kernel() -> Image {
    let mut a = Asm::new("/vmunix");

    // The idle loop: an infinite loop with no exit — exercising the
    // analyzer's cycle-equivalence extension for exit-free CFGs (§6.1.1).
    a.proc("_idle_loop");
    let top = a.here();
    a.addq_lit(Reg::T0, 1, Reg::T0);
    a.addq_lit(Reg::T1, 1, Reg::T1);
    a.br(top);

    // bcopy(a0=src, a1=dst, a2=quadwords): a simple copy loop.
    a.proc("bcopy");
    let done = a.label();

    a.beq(Reg::A2, done);
    let loop_top = a.here();
    a.ldq(Reg::T0, 0, Reg::A0);
    a.lda(Reg::A0, 8, Reg::A0);
    a.stq(Reg::T0, 0, Reg::A1);
    a.lda(Reg::A1, 8, Reg::A1);
    a.subq_lit(Reg::A2, 1, Reg::A2);
    a.bne(Reg::A2, loop_top);
    a.bind(done);
    a.ret(Reg::RA);

    // in_checksum(a0=buf, a1=quadwords) -> v0: sum of quadwords.
    a.proc("in_checksum");
    a.lda(Reg::V0, 0, Reg::ZERO);
    let ck_done = a.label();
    a.beq(Reg::A1, ck_done);
    let ck_top = a.here();
    a.ldq(Reg::T0, 0, Reg::A0);
    a.lda(Reg::A0, 8, Reg::A0);
    a.addq(Reg::V0, Reg::T0, Reg::V0);
    a.subq_lit(Reg::A1, 1, Reg::A1);
    a.bne(Reg::A1, ck_top);
    a.bind(ck_done);
    a.ret(Reg::RA);

    // Dispatch: a little branchy integer work standing in for the kernel
    // dispatcher of Figure 1.
    a.proc("Dispatch");
    a.and_lit(Reg::A0, 1, Reg::T0);
    let odd = a.label();
    let out = a.label();
    a.bne(Reg::T0, odd);
    a.addq_lit(Reg::A0, 3, Reg::V0);
    a.br(out);
    a.bind(odd);
    a.sll_lit(Reg::A0, 1, Reg::V0);
    a.bind(out);
    a.ret(Reg::RA);

    a.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn os() -> Os {
        Os::new(2, 8192, default_kernel(), None, PipelineModel::default())
    }

    #[test]
    fn kernel_registered_and_idle_ready() {
        let mut os = os();
        assert!(os.kernel_proc_addr("_idle_loop").is_some());
        assert!(os.kernel_proc_addr("bcopy").is_some());
        // Idle processes exist for both CPUs.
        let idle0 = os.take_next(0).unwrap();
        assert_eq!(idle0.pid, Pid(0));
        assert!(os.take_next(0).is_none(), "idle already taken");
        os.yield_back(0, idle0);
        assert!(os.take_next(0).is_some());
    }

    #[test]
    fn register_image_dedupes_by_name() {
        let mut os = os();
        let mut a = Asm::new("/bin/x");
        a.proc("main");
        a.halt();
        let img = a.finish();
        let id1 = os.register_image(img.clone());
        let id2 = os.register_image(img);
        assert_eq!(id1, id2);
    }

    #[test]
    fn spawn_emits_loader_events() {
        let mut os = os();
        let mut a = Asm::new("/bin/hello");
        a.proc("main");
        a.halt();
        let id = os.register_image(a.finish());
        let pid = os.spawn(0, id, &[], |_| {});
        let events = os.drain_events();
        assert!(events.contains(&OsEvent::ProcessCreated { pid }));
        let image_loads = events
            .iter()
            .filter(|e| matches!(e, OsEvent::ImageLoaded { pid: p, .. } if *p == pid))
            .count();
        assert_eq!(image_loads, 2, "kernel + main image");
        assert!(os.drain_events().is_empty(), "drained");
    }

    #[test]
    fn spawned_process_is_schedulable_before_idle() {
        let mut os = os();
        let mut a = Asm::new("/bin/p");
        a.proc("main");
        a.halt();
        let id = os.register_image(a.finish());
        let pid = os.spawn(1, id, &[], |_| {});
        assert!(os.has_runnable(1));
        let p = os.take_next(1).unwrap();
        assert_eq!(p.pid, pid);
        assert_eq!(p.pc, Addr(MAIN_BASE.0));
        assert_eq!(p.reg(Reg::SP), STACK_TOP);
    }

    #[test]
    fn exit_removes_from_loadmaps_and_counts() {
        let mut os = os();
        let mut a = Asm::new("/bin/p");
        a.proc("main");
        a.halt();
        let id = os.register_image(a.finish());
        let pid = os.spawn(0, id, &[], |_| {});
        assert_eq!(os.live_processes(), 1);
        let p = os.take_next(0).unwrap();
        os.exit(p);
        assert_eq!(os.live_processes(), 0);
        assert!(!os.snapshot_loadmaps().iter().any(|(q, _)| *q == pid));
        assert!(os.drain_events().contains(&OsEvent::ProcessExited { pid }));
    }

    #[test]
    fn snapshot_includes_idle_loadmaps() {
        let os = os();
        let snap = os.snapshot_loadmaps();
        assert_eq!(snap.len(), 2, "two idle processes");
        assert!(snap.iter().all(|(_, m)| m.len() == 1));
    }

    #[test]
    fn sequential_page_allocation() {
        let mut os = os();
        assert_eq!(os.alloc_ppage(), 0);
        assert_eq!(os.alloc_ppage(), 1);
    }

    #[test]
    fn random_page_allocation_differs_by_seed() {
        let mut a = Os::new(1, 8192, default_kernel(), Some(1), PipelineModel::default());
        let mut b = Os::new(1, 8192, default_kernel(), Some(2), PipelineModel::default());
        let pa: Vec<u64> = (0..8).map(|_| a.alloc_ppage()).collect();
        let pb: Vec<u64> = (0..8).map(|_| b.alloc_ppage()).collect();
        assert_ne!(pa, pb);
    }

    #[test]
    fn translate_is_stable_per_page() {
        let mut os = os();
        let mut p = Process::new(Pid(42));
        let pa1 = os.translate(&mut p, 0x1234);
        let pa2 = os.translate(&mut p, 0x1238);
        assert_eq!(pa1 & !8191, pa2 & !8191, "same page maps together");
        assert_eq!(pa1 % 8192, 0x1234);
        let pa3 = os.translate(&mut p, 0x1234 + 8192);
        assert_ne!(pa1 & !8191, pa3 & !8191);
    }

    #[test]
    fn replace_image_rebuilds_tables_and_bumps_epoch() {
        let mut os = os();
        let mut a = Asm::new("/bin/x");
        a.proc("main");
        a.halt();
        let id = os.register_image(a.finish());
        assert_eq!(os.epoch(), 0);
        let mut b = Asm::new("/bin/x");
        b.proc("main");
        b.addq_lit(Reg::T0, 1, Reg::T0);
        b.halt();
        os.replace_image(id, b.finish());
        assert_eq!(os.epoch(), 1);
        let li = os.image(id).unwrap();
        assert_eq!(li.insns.len(), 2, "new text decoded");
        assert_eq!(li.uops.len(), 2, "chains rebuilt");
        // Name-keyed dedup still resolves to the same id.
        let mut c = Asm::new("/bin/x");
        c.proc("main");
        c.halt();
        assert_eq!(os.register_image(c.finish()), id);
    }

    #[test]
    fn kernel_image_decodes() {
        let k = default_kernel();
        assert!(k.decode_all().is_ok());
        assert!(k.symbol_named("in_checksum").is_some());
        assert!(k.symbol_named("Dispatch").is_some());
    }
}
