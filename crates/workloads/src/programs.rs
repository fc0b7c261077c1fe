//! Synthetic workload program builders.
//!
//! Every builder returns an [`Image`]; processes pass loop counts through
//! registers set up at spawn time (see [`crate::driver`]). Arrays live in
//! the data segment at [`DATA_BASE`]; loads from untouched memory read
//! zero, which is fine for timing, so only pointer-chasing workloads need
//! memory initialization.

use dcpi_core::Addr;
use dcpi_isa::asm::{Asm, Label};
use dcpi_isa::image::Image;
use dcpi_isa::reg::Reg;

/// Base of the data segment: the machine's, signed for `Asm::li`.
pub const DATA_BASE: i64 = dcpi_machine::os::DATA_BASE as i64;

/// Addresses of kernel procedures that user workloads call.
#[derive(Clone, Copy, Debug)]
pub struct KernelAddrs {
    /// `bcopy(a0=src, a1=dst, a2=quadwords)`.
    pub bcopy: Addr,
    /// `in_checksum(a0=buf, a1=quadwords) -> v0`.
    pub in_checksum: Addr,
    /// `Dispatch(a0) -> v0`.
    pub dispatch: Addr,
}

/// Which STREAM kernel to build.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum StreamKind {
    /// `c[i] = a[i]` — the integer copy loop of Figure 2, verbatim.
    Copy,
    /// `b[i] = q * c[i]`.
    Scale,
    /// `a[i] = b[i] + c[i]`.
    Sum,
    /// `a[i] = b[i] + q * c[i]`.
    Saxpy,
}

impl StreamKind {
    /// All four kernels.
    pub const ALL: [StreamKind; 4] = [
        StreamKind::Copy,
        StreamKind::Scale,
        StreamKind::Sum,
        StreamKind::Saxpy,
    ];

    /// Kernel name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            StreamKind::Copy => "copy",
            StreamKind::Scale => "scale",
            StreamKind::Sum => "sum",
            StreamKind::Saxpy => "saxpy",
        }
    }
}

/// Builds a McCalpin STREAM kernel image: `reps` passes over arrays of
/// `elems` 64-bit elements (`elems` must be a multiple of 4; arrays are
/// placed 16MB apart so they never share cache lines).
///
/// # Panics
///
/// Panics if `elems` is not a positive multiple of 4.
#[must_use]
pub fn mccalpin_image(kind: StreamKind, elems: u32, reps: u32) -> Image {
    assert!(
        elems > 0 && elems.is_multiple_of(4),
        "elems must be a multiple of 4"
    );
    let mut a = Asm::new(format!("/bin/mccalpin_{}", kind.name()));
    a.proc("main");
    a.li(Reg::S0, i64::from(reps));
    let outer = a.here();
    a.li(Reg::T0, 0);
    a.li(Reg::V0, i64::from(elems));
    a.li(Reg::T1, DATA_BASE); // src / c
    a.li(Reg::T2, DATA_BASE + 0x100_0000); // dst / b
    a.li(Reg::T3, DATA_BASE + 0x200_0000); // a (sum/saxpy)
    a.align_even();
    let top = a.here();
    match kind {
        StreamKind::Copy => {
            // Figure 2's loop, instruction for instruction.
            a.ldq(Reg::T4, 0, Reg::T1);
            a.addq_lit(Reg::T0, 4, Reg::T0);
            a.ldq(Reg::T5, 8, Reg::T1);
            a.ldq(Reg::T6, 16, Reg::T1);
            a.ldq(Reg::A0, 24, Reg::T1);
            a.lda(Reg::T1, 32, Reg::T1);
            a.stq(Reg::T4, 0, Reg::T2);
            a.cmpult(Reg::T0, Reg::V0, Reg::T4);
            a.stq(Reg::T5, 8, Reg::T2);
            a.stq(Reg::T6, 16, Reg::T2);
            a.stq(Reg::A0, 24, Reg::T2);
            a.lda(Reg::T2, 32, Reg::T2);
            a.bne(Reg::T4, top);
        }
        StreamKind::Scale => {
            for u in 0..4i16 {
                a.ldt(Reg::fp(2 + u as u8), u * 8, Reg::T1);
                a.mult(Reg::fp(1), Reg::fp(2 + u as u8), Reg::fp(10 + u as u8));
                a.stt(Reg::fp(10 + u as u8), u * 8, Reg::T2);
            }
            a.lda(Reg::T1, 32, Reg::T1);
            a.lda(Reg::T2, 32, Reg::T2);
            a.addq_lit(Reg::T0, 4, Reg::T0);
            a.cmpult(Reg::T0, Reg::V0, Reg::T4);
            a.bne(Reg::T4, top);
        }
        StreamKind::Sum => {
            for u in 0..4i16 {
                a.ldt(Reg::fp(2 + u as u8), u * 8, Reg::T1);
                a.ldt(Reg::fp(6 + u as u8), u * 8, Reg::T2);
                a.addt(
                    Reg::fp(2 + u as u8),
                    Reg::fp(6 + u as u8),
                    Reg::fp(10 + u as u8),
                );
                a.stt(Reg::fp(10 + u as u8), u * 8, Reg::T3);
            }
            a.lda(Reg::T1, 32, Reg::T1);
            a.lda(Reg::T2, 32, Reg::T2);
            a.lda(Reg::T3, 32, Reg::T3);
            a.addq_lit(Reg::T0, 4, Reg::T0);
            a.cmpult(Reg::T0, Reg::V0, Reg::T4);
            a.bne(Reg::T4, top);
        }
        StreamKind::Saxpy => {
            for u in 0..4i16 {
                a.ldt(Reg::fp(2 + u as u8), u * 8, Reg::T1);
                a.ldt(Reg::fp(6 + u as u8), u * 8, Reg::T2);
                a.mult(Reg::fp(1), Reg::fp(2 + u as u8), Reg::fp(14 + u as u8));
                a.addt(
                    Reg::fp(6 + u as u8),
                    Reg::fp(14 + u as u8),
                    Reg::fp(10 + u as u8),
                );
                a.stt(Reg::fp(10 + u as u8), u * 8, Reg::T3);
            }
            a.lda(Reg::T1, 32, Reg::T1);
            a.lda(Reg::T2, 32, Reg::T2);
            a.lda(Reg::T3, 32, Reg::T3);
            a.addq_lit(Reg::T0, 4, Reg::T0);
            a.cmpult(Reg::T0, Reg::V0, Reg::T4);
            a.bne(Reg::T4, top);
        }
    }
    a.subq_lit(Reg::S0, 1, Reg::S0);
    a.bne(Reg::S0, outer);
    a.halt();
    a.finish()
}

/// Emits a procedure `name` with a counted inner loop of `body` and
/// returns. The iteration count arrives in `a0`.
fn counted_proc(a: &mut Asm, name: &str, body: impl FnOnce(&mut Asm)) {
    a.proc(name);
    let done = a.label();
    a.beq(Reg::A0, done);
    a.align_even();
    let top = a.here();
    body(a);
    a.subq_lit(Reg::A0, 1, Reg::A0);
    a.bne(Reg::A0, top);
    a.bind(done);
    a.ret(Reg::RA);
}

/// Calls a kernel procedure whose absolute address is known.
fn call_kernel(a: &mut Asm, addr: Addr) {
    a.li(Reg::T12, addr.0 as i64);
    a.jsr(Reg::RA, Reg::T12);
}

/// Calls a procedure of the image being assembled by name, through `t12`
/// (the image is mapped at `MAIN_BASE`, so absolute addresses are known).
fn call_local(a: &mut Asm, offsets: &[(String, i64)], name: &str, iters: i64) {
    let off = offsets
        .iter()
        .find(|(n, _)| n == name)
        .map(|(_, o)| *o)
        .expect("procedure assembled earlier");
    a.li(Reg::A0, iters);
    a.li(Reg::T12, dcpi_machine::os::MAIN_BASE.0 as i64 + off);
    a.jsr(Reg::RA, Reg::T12);
}

/// Builds the x11perf-like server image: a dispatch loop over rendering
/// procedures with the skewed weights of Figure 1, plus kernel calls.
/// `scale` is the number of dispatch rounds.
#[must_use]
pub fn x11_image(kernel: &KernelAddrs, scale: u32) -> Image {
    let mut a = Asm::new("/usr/shlib/X11/lib_dec_ffb_ev5.so");

    // The heavyweight arc rasterizer: integer math plus framebuffer
    // stores.
    counted_proc(&mut a, "ffb8ZeroPolyArc", |a| {
        // A long straight-line body (8 unrolled octant steps) keeps this
        // procedure's text large, so the workload exerts real I-cache
        // pressure as the paper's rasterizer did.
        for step in 0..8u8 {
            a.s8addq(Reg::T0, Reg::T5, Reg::T6);
            a.and_lit(Reg::T6, 0xff, Reg::T6);
            a.sll_lit(Reg::T6, step % 4 + 1, Reg::T6);
            a.addq(Reg::T6, Reg::T7, Reg::T7);
            a.stq(Reg::T7, i16::from(step) * 8, Reg::T2);
            a.and_lit(Reg::T2, 0x7f, Reg::T8);
            a.xor(Reg::T8, Reg::T7, Reg::T7);
            a.addq_lit(Reg::T0, step + 3, Reg::T0);
            a.srl_lit(Reg::T0, 1, Reg::T5);
        }
        a.lda(Reg::T2, 64, Reg::T2);
    });

    // Reads client requests: sequential loads with branches.
    counted_proc(&mut a, "ReadRequestFromClient", |a| {
        a.ldq(Reg::T4, 0, Reg::T1);
        a.lda(Reg::T1, 8, Reg::T1);
        a.and_lit(Reg::T4, 1, Reg::T5);
        let skip = a.label();
        a.beq(Reg::T5, skip);
        a.addq(Reg::V0, Reg::T4, Reg::V0);
        a.bind(skip);
        a.addq_lit(Reg::T6, 1, Reg::T6);
    });

    counted_proc(&mut a, "miCreateETandAET", |a| {
        a.ldq(Reg::T4, 0, Reg::T1);
        a.stq(Reg::T4, 0, Reg::T2);
        a.lda(Reg::T1, 8, Reg::T1);
        a.lda(Reg::T2, 8, Reg::T2);
        a.addq_lit(Reg::T5, 7, Reg::T5);
    });

    counted_proc(&mut a, "miZeroArcSetup", |a| {
        a.mulq(Reg::T5, Reg::T6, Reg::T7);
        a.addq_lit(Reg::T5, 1, Reg::T5);
        a.addq(Reg::T7, Reg::T6, Reg::T6);
    });

    counted_proc(&mut a, "ffb8FillPolygon", |a| {
        for span in 0..4i16 {
            a.stq(Reg::T6, span * 16, Reg::T2);
            a.stq(Reg::T6, span * 16 + 8, Reg::T2);
            a.addq_lit(Reg::T6, 1, Reg::T6);
            a.xor(Reg::T6, Reg::T5, Reg::T5);
        }
        a.lda(Reg::T2, 64, Reg::T2);
    });

    counted_proc(&mut a, "miInsertEdgeInET", |a| {
        a.ldq(Reg::T4, 0, Reg::T1);
        a.cmplt(Reg::T4, Reg::T5, Reg::T6);
        let skip = a.label();
        a.beq(Reg::T6, skip);
        a.mov(Reg::T4, Reg::T5);
        a.bind(skip);
        a.lda(Reg::T1, 8, Reg::T1);
    });

    counted_proc(&mut a, "miX1Y1X2Y2InRegion", |a| {
        a.cmplt(Reg::T4, Reg::T5, Reg::T6);
        a.cmplt(Reg::T5, Reg::T7, Reg::T8);
        a.and(Reg::T6, Reg::T8, Reg::T6);
        a.addq(Reg::T4, Reg::T6, Reg::T4);
    });

    // The dispatch loop with Figure 1's weight ordering.
    a.proc("main");
    let offsets = a.proc_offsets();
    a.li(Reg::S0, i64::from(scale));
    let outer = a.here();
    a.li(Reg::T1, DATA_BASE);
    a.li(Reg::T2, DATA_BASE + 0x40_0000);
    for (name, iters) in [
        ("ffb8ZeroPolyArc", 560),
        ("ReadRequestFromClient", 170),
        ("miCreateETandAET", 130),
        ("miZeroArcSetup", 40),
        ("ffb8FillPolygon", 110),
        ("miInsertEdgeInET", 90),
        ("miX1Y1X2Y2InRegion", 90),
    ] {
        call_local(&mut a, &offsets, name, iters);
    }
    // Kernel work: copy a request buffer and checksum it.
    a.li(Reg::A0, DATA_BASE);
    a.li(Reg::A1, DATA_BASE + 0x10_0000);
    a.li(Reg::A2, 192);
    call_kernel(&mut a, kernel.bcopy);
    a.li(Reg::A0, DATA_BASE);
    a.li(Reg::A1, 128);
    call_kernel(&mut a, kernel.in_checksum);
    a.li(Reg::A0, 3);
    call_kernel(&mut a, kernel.dispatch);
    a.subq_lit(Reg::S0, 1, Reg::S0);
    a.bne(Reg::S0, outer);
    a.halt();
    a.finish()
}

/// Builds the gcc-like compiler image: large text (thrashing the 8KB
/// I-cache) and branchy integer work. The same image is spawned once per
/// "compilation unit" with a fresh PID, reproducing gcc's high driver
/// hash-table eviction rate (§5.1). `scale` is the per-process work
/// multiplier.
#[must_use]
pub fn compile_image(scale: u32) -> Image {
    let mut a = Asm::new("/usr/lib/cmplrs/cc1");
    let nprocs = 40usize;
    // Pass procedures: each ~120 instructions of distinct branchy work.
    for p in 0..nprocs {
        a.proc(format!("pass_{p:02}"));
        let done = a.label();
        a.beq(Reg::A0, done);
        let top = a.here();
        for k in 0..12 {
            let x = ((p * 13 + k * 7) % 200 + 1) as u8;
            a.addq_lit(Reg::T0, x, Reg::T0);
            a.xor(Reg::T0, Reg::T5, Reg::T5);
            a.srl_lit(Reg::T5, (k % 5) as u8 + 1, Reg::T6);
            a.addq(Reg::T6, Reg::T0, Reg::T0);
            let skip = a.label();
            a.and_lit(Reg::T0, 1, Reg::T7);
            a.beq(Reg::T7, skip);
            a.ldq(Reg::T8, (k as i16) * 8, Reg::T1);
            a.addq(Reg::T8, Reg::T5, Reg::T5);
            a.bind(skip);
            a.lda(Reg::T1, 16, Reg::T1);
        }
        a.subq_lit(Reg::A0, 1, Reg::A0);
        a.bne(Reg::A0, top);
        a.bind(done);
        a.ret(Reg::RA);
    }
    // main: walk all passes round-robin.
    a.proc("main");
    let offsets = a.proc_offsets();
    a.li(Reg::S0, i64::from(scale));
    let outer = a.here();
    a.li(Reg::T1, DATA_BASE);
    // Real compilers have hot kernels (scanning, register allocation)
    // and a long cold tail: alternating between the hot passes keeps
    // samples revisiting hot keys (gcc's profile shape, §5.1). The hot
    // passes sit ~8KB apart in the default layout — the same
    // direct-mapped I-cache sets — which is exactly what profile-guided
    // procedure placement fixes (`dcpi_pgo::optimize` packs procedures
    // hot-first; see `examples/pgo_layout.rs`).
    for _ in 0..6 {
        for &p in &HOT_PASSES {
            call_local(&mut a, &offsets, &format!("pass_{p:02}"), 6);
        }
    }
    for p in 0..nprocs {
        if !HOT_PASSES.contains(&p) {
            call_local(&mut a, &offsets, &format!("pass_{p:02}"), 2);
        }
    }
    a.subq_lit(Reg::S0, 1, Reg::S0);
    a.bne(Reg::S0, outer);
    a.halt();
    a.finish()
}

/// The compiler's hot passes. At 448 bytes per pass, these indices place
/// the three hot bodies on overlapping direct-mapped I-cache sets in the
/// default layout (0×448, 18×448 ≡ 8064, 37×448 ≡ 192 mod 8192), so they
/// evict each other on every alternation until a profile-guided layout
/// packs them together.
pub const HOT_PASSES: [usize; 3] = [0, 18, 37];

/// Builds the wave5-like FP image. `smooth_` repeatedly streams a working
/// set comparable to the board cache, so its conflict misses — and hence
/// its run time — depend on the physical page placement (§3.3's variance,
/// visible when the machine uses randomized page allocation).
#[must_use]
pub fn wave5_image(scale: u32) -> Image {
    let mut a = Asm::new("/bin/wave5");

    // parmvr_: the dominant FP procedure (~60% of cycles).
    counted_proc(&mut a, "parmvr_", |a| {
        a.ldt(Reg::fp(2), 0, Reg::T1);
        a.ldt(Reg::fp(3), 8, Reg::T1);
        a.mult(Reg::fp(1), Reg::fp(2), Reg::fp(4));
        a.addt(Reg::fp(4), Reg::fp(3), Reg::fp(5));
        a.stt(Reg::fp(5), 0, Reg::T2);
        a.lda(Reg::T1, 16, Reg::T1);
        a.lda(Reg::T2, 8, Reg::T2);
        a.and_lit(Reg::T1, 0xff, Reg::ZERO);
    });

    // smooth_: streams a ~1.5MB working set with a line-sized stride.
    counted_proc(&mut a, "smooth_", |a| {
        a.ldt(Reg::fp(2), 0, Reg::T1);
        a.addt(Reg::fp(6), Reg::fp(2), Reg::fp(6));
        a.lda(Reg::T1, 64, Reg::T1);
        a.cmpult(Reg::T1, Reg::T3, Reg::T4);
        let cont = a.label();
        a.bne(Reg::T4, cont);
        a.li(Reg::T1, DATA_BASE + 0x400_0000); // wrap to array start
        a.bind(cont);
    });

    counted_proc(&mut a, "fftb_", |a| {
        a.ldt(Reg::fp(2), 0, Reg::T1);
        a.mult(Reg::fp(2), Reg::fp(2), Reg::fp(3));
        a.addt(Reg::fp(3), Reg::fp(4), Reg::fp(4));
        a.lda(Reg::T1, 8, Reg::T1);
    });

    counted_proc(&mut a, "ffef_", |a| {
        a.ldt(Reg::fp(2), 0, Reg::T1);
        a.addt(Reg::fp(2), Reg::fp(5), Reg::fp(5));
        a.mult(Reg::fp(5), Reg::fp(1), Reg::fp(6));
        a.lda(Reg::T1, 8, Reg::T1);
    });

    counted_proc(&mut a, "putb_", |a| {
        a.stt(Reg::fp(6), 0, Reg::T2);
        a.stt(Reg::fp(6), 8, Reg::T2);
        a.lda(Reg::T2, 16, Reg::T2);
        a.addq_lit(Reg::T5, 1, Reg::T5);
    });

    counted_proc(&mut a, "vslvip_", |a| {
        a.ldt(Reg::fp(2), 0, Reg::T1);
        a.divt(Reg::fp(2), Reg::fp(1), Reg::fp(3));
        a.stt(Reg::fp(3), 0, Reg::T2);
        a.lda(Reg::T1, 8, Reg::T1);
        a.lda(Reg::T2, 8, Reg::T2);
    });

    a.proc("main");
    let offsets = a.proc_offsets();
    a.li(Reg::S0, i64::from(scale));
    let outer = a.here();
    // parmvr over a 256KB array.
    a.li(Reg::T1, DATA_BASE);
    a.li(Reg::T2, DATA_BASE + 0x100_0000);
    call_local(&mut a, &offsets, "parmvr_", 7000);
    // smooth over its conflict-prone working set (24K lines ≈ 1.5MB).
    a.li(Reg::T1, DATA_BASE + 0x400_0000);
    a.li(Reg::T3, DATA_BASE + 0x400_0000 + 0x18_0000);
    call_local(&mut a, &offsets, "smooth_", 72_000);
    a.li(Reg::T1, DATA_BASE + 0x20_0000);
    call_local(&mut a, &offsets, "fftb_", 900);
    a.li(Reg::T1, DATA_BASE + 0x28_0000);
    call_local(&mut a, &offsets, "ffef_", 900);
    a.li(Reg::T2, DATA_BASE + 0x30_0000);
    call_local(&mut a, &offsets, "putb_", 2500);
    a.li(Reg::T1, DATA_BASE + 0x38_0000);
    a.li(Reg::T2, DATA_BASE + 0x3c_0000);
    call_local(&mut a, &offsets, "vslvip_", 700);
    a.subq_lit(Reg::S0, 1, Reg::S0);
    a.bne(Reg::S0, outer);
    a.halt();
    a.finish()
}

/// Query workload flavor.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum QueryKind {
    /// AltaVista-like: pointer chases through an index plus posting-list
    /// scans.
    Search,
    /// DSS-like: long sequential table scans with aggregation.
    Dss,
}

/// Builds a query-serving image. Processes chase pointers through a
/// pre-initialized index (see [`init_index`]) and scan posting lists.
#[must_use]
pub fn query_image(kind: QueryKind, kernel: &KernelAddrs, scale: u32) -> Image {
    let name = match kind {
        QueryKind::Search => "/usr/bin/altavista_ni",
        QueryKind::Dss => "/usr/bin/dss_query",
    };
    let mut a = Asm::new(name);

    counted_proc(&mut a, "index_lookup", |a| {
        // t1 = current node pointer; follow the chain.
        a.ldq(Reg::T1, 0, Reg::T1);
        a.addq_lit(Reg::T6, 1, Reg::T6);
    });

    counted_proc(&mut a, "scan_postings", |a| {
        a.ldq(Reg::T4, 0, Reg::T2);
        a.ldq(Reg::T5, 8, Reg::T2);
        a.addq(Reg::V0, Reg::T4, Reg::V0);
        a.addq(Reg::V0, Reg::T5, Reg::V0);
        a.lda(Reg::T2, 16, Reg::T2);
    });

    counted_proc(&mut a, "aggregate", |a| {
        a.ldq(Reg::T4, 0, Reg::T2);
        a.and_lit(Reg::T4, 0x3f, Reg::T5);
        a.s8addq(Reg::T5, Reg::GP, Reg::T7);
        a.ldq(Reg::T8, 0, Reg::T7);
        a.addq(Reg::T8, Reg::T4, Reg::T8);
        a.stq(Reg::T8, 0, Reg::T7);
        a.lda(Reg::T2, 8, Reg::T2);
    });

    a.proc("main");
    let offsets = a.proc_offsets();
    a.li(Reg::S0, i64::from(scale));
    let outer = a.here();
    match kind {
        QueryKind::Search => {
            a.li(Reg::T1, DATA_BASE); // index head
            call_local(&mut a, &offsets, "index_lookup", 300);
            a.li(Reg::T2, DATA_BASE + 0x80_0000);
            call_local(&mut a, &offsets, "scan_postings", 700);
            // Checksum the result buffer in the kernel.
            a.li(Reg::A0, DATA_BASE + 0x80_0000);
            a.li(Reg::A1, 64);
            call_kernel(&mut a, kernel.in_checksum);
        }
        QueryKind::Dss => {
            a.li(Reg::T2, DATA_BASE + 0x80_0000);
            call_local(&mut a, &offsets, "scan_postings", 2500);
            a.li(Reg::T2, DATA_BASE + 0x100_0000);
            call_local(&mut a, &offsets, "aggregate", 900);
        }
    }
    a.subq_lit(Reg::S0, 1, Reg::S0);
    a.bne(Reg::S0, outer);
    a.halt();
    a.finish()
}

/// Initializes the pointer-chase index for [`query_image`]: a pseudo
/// random cycle of `nodes` pointers starting at [`DATA_BASE`].
pub fn init_index(proc: &mut dcpi_machine::Process, nodes: u64, seed: u64) {
    // A simple LCG permutation walk: node i points to node f(i).
    let base = DATA_BASE as u64;
    let mut order: Vec<u64> = (0..nodes).collect();
    let mut state = seed | 1;
    for i in (1..nodes as usize).rev() {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let j = (state >> 33) as usize % (i + 1);
        order.swap(i, j);
    }
    for w in 0..nodes as usize {
        let from = order[w];
        let to = order[(w + 1) % nodes as usize];
        // Node stride of 128 bytes defeats the L1 cache.
        proc.write_u64(base + from * 128, base + to * 128);
    }
}

/// Builds the parallel-SPECfp per-CPU kernel: a 3-point FP stencil.
#[must_use]
pub fn fp_kernel_image(scale: u32) -> Image {
    let mut a = Asm::new("/bin/parallel_fp");
    a.proc("main");
    a.li(Reg::S0, i64::from(scale));
    let outer = a.here();
    a.li(Reg::T1, DATA_BASE);
    a.li(Reg::T2, DATA_BASE + 0x100_0000);
    a.li(Reg::T0, 12_000);
    a.align_even();
    let top = a.here();
    a.ldt(Reg::fp(2), 0, Reg::T1);
    a.ldt(Reg::fp(3), 8, Reg::T1);
    a.ldt(Reg::fp(4), 16, Reg::T1);
    a.addt(Reg::fp(2), Reg::fp(3), Reg::fp(5));
    a.addt(Reg::fp(5), Reg::fp(4), Reg::fp(6));
    a.mult(Reg::fp(6), Reg::fp(1), Reg::fp(7));
    a.stt(Reg::fp(7), 0, Reg::T2);
    a.lda(Reg::T1, 8, Reg::T1);
    a.lda(Reg::T2, 8, Reg::T2);
    a.subq_lit(Reg::T0, 1, Reg::T0);
    a.bne(Reg::T0, top);
    a.subq_lit(Reg::S0, 1, Reg::S0);
    a.bne(Reg::S0, outer);
    a.halt();
    a.finish()
}

/// Builds a bytecode-interpreter-style image whose hot loop dispatches
/// through a *computed indirect jump* — the CFG shape static analysis
/// cannot resolve (§6.1.1's "missing edges") but §7's double sampling
/// can. Eight 32-byte handlers sit at `base + op*32`; opcodes come from
/// an in-register LCG, so handler frequencies are roughly uniform.
#[must_use]
pub fn interp_image(scale: u32) -> Image {
    let mut a = Asm::new("/bin/interp");
    a.proc("main");
    a.li(Reg::S0, i64::from(scale) * 50_000); // instructions to interpret
    a.li(Reg::T9, 12345); // LCG state
    a.li(Reg::T8, 69069); // LCG multiplier
    let done = a.label();
    a.align_even();
    a.proc("dispatch");
    let top = a.here();
    a.mulq(Reg::T9, Reg::T8, Reg::T9);
    a.lda(Reg::T9, 12345, Reg::T9);
    a.srl_lit(Reg::T9, 16, Reg::T0);
    a.and_lit(Reg::T0, 7, Reg::T0);
    a.sll_lit(Reg::T0, 5, Reg::T0); // ×32 bytes per handler
    a.addq(Reg::S1, Reg::T0, Reg::T0);
    a.jsr(Reg::ZERO, Reg::T0); // computed goto: jmp (t0)
    a.nop();
    // Eight handlers, each exactly 8 words so `base + op*32` lands on a
    // handler start. Register s1 holds the handler base (set below via
    // the known offset).
    let handlers_word = a.position();
    for op in 0..8u8 {
        debug_assert!(a.position() == handlers_word + (op as usize) * 8);
        match op % 4 {
            0 => {
                a.addq_lit(Reg::T5, op + 1, Reg::T5);
                a.xor(Reg::T5, Reg::T6, Reg::T6);
                a.srl_lit(Reg::T6, 2, Reg::T7);
            }
            1 => {
                a.ldq(Reg::T4, i16::from(op) * 8, Reg::GP);
                a.addq(Reg::T4, Reg::T5, Reg::T5);
                a.nop();
            }
            2 => {
                a.stq(Reg::T5, i16::from(op) * 8, Reg::GP);
                a.addq_lit(Reg::T6, 3, Reg::T6);
                a.nop();
            }
            _ => {
                a.sll_lit(Reg::T5, 1, Reg::T5);
                a.addq_lit(Reg::T5, op, Reg::T5);
                a.nop();
            }
        }
        a.subq_lit(Reg::S0, 1, Reg::S0);
        a.beq(Reg::S0, done);
        a.br(top);
        for _ in 0..2 {
            a.nop();
        }
    }
    a.proc("epilogue");
    a.bind(done);
    a.halt();
    let image = a.finish();
    // Patch-free base setup is impossible after `finish`; instead the
    // spawner passes the handler base in s1 (see `interp_setup`).
    let _ = handlers_word;
    image
}

/// Word index of the first interpreter handler within [`interp_image`]'s
/// text (used by the spawner to compute the handler base address).
#[must_use]
pub fn interp_handlers_offset(image: &Image) -> u64 {
    // The dispatch procedure is 8 words; handlers follow it.
    let sym = image.symbol_named("dispatch").expect("dispatch proc");
    sym.offset + 8 * 4
}

/// Register setup for [`interp_image`] processes: points `s1` at the
/// handler table.
pub fn interp_setup(proc: &mut dcpi_machine::Process, image: &Image) {
    let base = dcpi_machine::os::MAIN_BASE.0 + interp_handlers_offset(image);
    proc.set_reg(Reg::S1, base);
}

/// Builds a small timesharing job: a burst of integer work (count passed
/// in `a1` at spawn time), a kernel call, and exit.
#[must_use]
pub fn shell_image() -> Image {
    let mut a = Asm::new("/bin/sh_job");
    a.proc("main");
    a.mov(Reg::A1, Reg::T0);
    let top = a.here();
    a.addq_lit(Reg::T5, 3, Reg::T5);
    a.xor(Reg::T5, Reg::T0, Reg::T6);
    a.subq_lit(Reg::T0, 1, Reg::T0);
    a.bne(Reg::T0, top);
    a.syscall();
    a.halt();
    a.finish()
}

/// Emits a standard 16-byte frame prologue: push `sp` and save `ra`.
fn push_frame(a: &mut Asm) {
    a.lda(Reg::SP, -16, Reg::SP);
    a.stq(Reg::RA, 0, Reg::SP);
}

/// Emits the matching epilogue and returns.
fn pop_frame_ret(a: &mut Asm) {
    a.ldq(Reg::RA, 0, Reg::SP);
    a.lda(Reg::SP, 16, Reg::SP);
    a.ret(Reg::RA);
}

/// Emits a small spin loop of `iters` iterations on `t0`/`t5`.
fn spin(a: &mut Asm, iters: i64) {
    a.li(Reg::T0, iters);
    let top = a.here();
    a.addq_lit(Reg::T5, 1, Reg::T5);
    a.subq_lit(Reg::T0, 1, Reg::T0);
    a.bne(Reg::T0, top);
}

/// Call depth `recursion_image` descends to on every round (plus one
/// frame for `main`).
pub const RECURSION_DEPTH: i64 = 48;

/// Builds the deep-recursion workload: `main` repeatedly calls a
/// self-recursive `recurse(a0 = depth)` whose every activation pushes a
/// 16-byte frame (saving `ra`) and burns a short spin loop before
/// descending. Samples land at call depths up to [`RECURSION_DEPTH`] + 1,
/// so the stack walker must recover long same-procedure chains. `scale`
/// is the number of top-level descents.
#[must_use]
pub fn recursion_image(scale: u32) -> Image {
    let mut a = Asm::new("/bin/deeprec");
    a.proc("recurse");
    let entry = a.here();
    push_frame(&mut a);
    spin(&mut a, 14);
    a.subq_lit(Reg::A0, 1, Reg::A0);
    let done = a.label();
    a.beq(Reg::A0, done);
    a.bsr(Reg::RA, entry);
    a.bind(done);
    pop_frame_ret(&mut a);
    a.proc("main");
    a.li(Reg::S0, i64::from(scale) * 600);
    let outer = a.here();
    a.li(Reg::A0, RECURSION_DEPTH);
    a.bsr(Reg::RA, entry);
    a.subq_lit(Reg::S0, 1, Reg::S0);
    a.bne(Reg::S0, outer);
    a.halt();
    a.finish()
}

/// Builds the mutual-recursion workload: `even` and `odd` call each other
/// down `a0` levels, each activation with its own frame, so every stack
/// alternates between the two procedures. `scale` is the number of
/// top-level descents.
#[must_use]
pub fn mutual_image(scale: u32) -> Image {
    let mut a = Asm::new("/bin/mutualrec");
    let odd_entry = a.label();
    a.proc("even");
    let even_entry = a.here();
    push_frame(&mut a);
    spin(&mut a, 10);
    a.subq_lit(Reg::A0, 1, Reg::A0);
    let done_e = a.label();
    a.beq(Reg::A0, done_e);
    a.bsr(Reg::RA, odd_entry);
    a.bind(done_e);
    pop_frame_ret(&mut a);
    a.proc("odd");
    a.bind(odd_entry);
    push_frame(&mut a);
    spin(&mut a, 16);
    a.subq_lit(Reg::A0, 1, Reg::A0);
    let done_o = a.label();
    a.beq(Reg::A0, done_o);
    a.bsr(Reg::RA, even_entry);
    a.bind(done_o);
    pop_frame_ret(&mut a);
    a.proc("main");
    a.li(Reg::S0, i64::from(scale) * 700);
    let outer = a.here();
    a.li(Reg::A0, 40);
    a.bsr(Reg::RA, even_entry);
    a.subq_lit(Reg::S0, 1, Reg::S0);
    a.bne(Reg::S0, outer);
    a.halt();
    a.finish()
}

/// The service handlers of [`server_image`], with their spin weights.
pub const SERVER_HANDLERS: [(&str, i64); 4] = [
    ("svc_read", 60),
    ("svc_write", 40),
    ("svc_stat", 14),
    ("svc_flush", 24),
];

/// Builds the dispatch-heavy server workload: a request loop that picks
/// one of four service handlers from an in-register LCG and calls it
/// *indirectly* through `t12` (a computed `jsr`, as shared-library call
/// stubs do). Every handler pushes a frame and calls a shared `svc_csum`
/// leaf via `bsr`, so each sample carries a three-deep stack whose middle
/// frame identifies the handler — exactly what a flat PC histogram
/// cannot show. `scale` is the number of requests.
#[must_use]
pub fn server_image(scale: u32) -> Image {
    let mut a = Asm::new("/bin/dserver");
    a.proc("svc_csum");
    let csum_entry = a.here();
    a.li(Reg::T6, 12);
    let ctop = a.here();
    a.addq(Reg::T5, Reg::T6, Reg::T5);
    a.xor(Reg::T5, Reg::T6, Reg::T7);
    a.subq_lit(Reg::T6, 1, Reg::T6);
    a.bne(Reg::T6, ctop);
    a.ret(Reg::RA);
    for (name, weight) in SERVER_HANDLERS {
        a.proc(name);
        push_frame(&mut a);
        spin(&mut a, weight);
        a.bsr(Reg::RA, csum_entry);
        pop_frame_ret(&mut a);
    }
    a.proc("main");
    let offsets = a.proc_offsets();
    let handler_addr = |name: &str| -> i64 {
        let off = offsets
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, o)| *o)
            .expect("handler assembled earlier");
        dcpi_machine::os::MAIN_BASE.0 as i64 + off
    };
    a.li(Reg::S0, i64::from(scale) * 1500);
    a.li(Reg::T9, 777_777); // LCG state
    a.li(Reg::T8, 69069); // LCG multiplier
    let outer = a.here();
    a.mulq(Reg::T9, Reg::T8, Reg::T9);
    a.lda(Reg::T9, 12345, Reg::T9);
    a.srl_lit(Reg::T9, 16, Reg::T1);
    a.and_lit(Reg::T1, 3, Reg::T1);
    let next = a.label();
    let sites: Vec<Label> = (0..4).map(|_| a.label()).collect();
    for (i, site) in sites.iter().enumerate().skip(1) {
        a.cmpeq_lit(Reg::T1, i as u8, Reg::T2);
        a.bne(Reg::T2, *site);
    }
    for (i, (name, _)) in SERVER_HANDLERS.iter().enumerate() {
        a.bind(sites[i]);
        a.li(Reg::T12, handler_addr(name));
        a.jsr(Reg::RA, Reg::T12);
        a.br(next);
    }
    a.bind(next);
    a.subq_lit(Reg::S0, 1, Reg::S0);
    a.bne(Reg::S0, outer);
    a.halt();
    a.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kernel_addrs() -> KernelAddrs {
        let os = dcpi_machine::Os::new(
            1,
            8192,
            dcpi_machine::os::default_kernel(),
            None,
            dcpi_isa::pipeline::PipelineModel::default(),
        );
        KernelAddrs {
            bcopy: os.kernel_proc_addr("bcopy").unwrap(),
            in_checksum: os.kernel_proc_addr("in_checksum").unwrap(),
            dispatch: os.kernel_proc_addr("Dispatch").unwrap(),
        }
    }

    #[test]
    fn all_stream_kernels_decode() {
        for kind in StreamKind::ALL {
            let img = mccalpin_image(kind, 1024, 2);
            assert!(img.decode_all().is_ok(), "{kind:?}");
            assert_eq!(img.symbols().len(), 1);
        }
    }

    #[test]
    fn copy_kernel_contains_figure_2_loop() {
        let img = mccalpin_image(StreamKind::Copy, 2048, 1);
        let text: Vec<String> = img
            .decode_all()
            .unwrap()
            .iter()
            .map(ToString::to_string)
            .collect();
        let joined = text.join("\n");
        assert!(joined.contains("ldq t4, 0(t1)"));
        assert!(joined.contains("stq t4, 0(t2)"));
        assert!(joined.contains("cmpult t0, v0, t4"));
    }

    #[test]
    fn x11_image_has_figure_1_procedures() {
        let img = x11_image(&kernel_addrs(), 10);
        assert!(img.decode_all().is_ok());
        for name in [
            "ffb8ZeroPolyArc",
            "ReadRequestFromClient",
            "miCreateETandAET",
            "ffb8FillPolygon",
            "miInsertEdgeInET",
            "main",
        ] {
            assert!(img.symbol_named(name).is_some(), "{name}");
        }
    }

    #[test]
    fn compile_image_is_large() {
        let img = compile_image(1);
        assert!(img.decode_all().is_ok());
        assert!(
            img.text_bytes() > 16 * 1024,
            "text must exceed the 8KB I-cache: {}",
            img.text_bytes()
        );
        assert!(img.symbols().len() > 30);
    }

    #[test]
    fn wave5_has_smooth_and_parmvr() {
        let img = wave5_image(2);
        assert!(img.decode_all().is_ok());
        assert!(img.symbol_named("smooth_").is_some());
        assert!(img.symbol_named("parmvr_").is_some());
        assert!(img.symbol_named("vslvip_").is_some());
    }

    #[test]
    fn query_images_decode() {
        let k = kernel_addrs();
        for kind in [QueryKind::Search, QueryKind::Dss] {
            let img = query_image(kind, &k, 5);
            assert!(img.decode_all().is_ok(), "{kind:?}");
        }
    }

    #[test]
    fn index_init_builds_a_cycle() {
        use dcpi_core::Pid;
        let mut p = dcpi_machine::Process::new(Pid(1));
        init_index(&mut p, 64, 42);
        // The permutation is a single cycle over all 64 nodes: starting
        // from node 0's address and hopping 64 times returns to it, and
        // never earlier.
        let start = DATA_BASE as u64;
        let mut at = start;
        for hop in 0..64 {
            at = p.read_u64(at);
            assert!(hop == 63 || at != start, "cycle closed early at {hop}");
        }
        assert_eq!(at, start, "cycle must close after 64 hops");
    }

    #[test]
    fn hot_passes_conflict_in_default_layout() {
        // The premise of examples/pgo_layout.rs: in the default layout
        // the hot passes overlap mod the 8KB I-cache, which packing them
        // hot-first removes.
        // Overlap of the 8KB-direct-mapped cache sets two byte ranges
        // occupy (with wrap-around at the 8192 boundary).
        let overlap = |a: (u64, u64), b: (u64, u64)| {
            let lines = |r: (u64, u64)| -> std::collections::HashSet<u64> {
                (r.0..r.0 + r.1)
                    .step_by(32)
                    .map(|x| (x % 8192) / 32)
                    .collect()
            };
            !lines(a).is_disjoint(&lines(b))
        };
        let span = |img: &Image, p: usize| {
            let s = img.symbol_named(&format!("pass_{p:02}")).unwrap();
            (s.offset, s.size)
        };
        let img = compile_image(1);
        let mut conflicts = 0;
        for (i, &a) in HOT_PASSES.iter().enumerate() {
            for &b in &HOT_PASSES[i + 1..] {
                if overlap(span(&img, a), span(&img, b)) {
                    conflicts += 1;
                }
            }
        }
        assert!(conflicts >= 2, "default layout must conflict: {conflicts}");
    }

    #[test]
    fn interp_image_decodes_with_strided_handlers() {
        let img = interp_image(1);
        assert!(img.decode_all().is_ok());
        // Handlers follow the 8-word dispatch body at a fixed 32-byte
        // stride, so `base + op*32` lands on handler starts.
        let dispatch = img.symbol_named("dispatch").unwrap();
        assert_eq!(interp_handlers_offset(&img), dispatch.offset + 32);
        assert!(dispatch.size >= 32 + 8 * 32, "dispatch + 8 handlers");
    }

    #[test]
    fn fp_and_shell_images_decode() {
        assert!(fp_kernel_image(3).decode_all().is_ok());
        assert!(shell_image().decode_all().is_ok());
    }

    #[test]
    fn recursion_images_decode_with_expected_procedures() {
        let rec = recursion_image(1);
        assert!(rec.decode_all().is_ok());
        assert!(rec.symbol_named("recurse").is_some());
        let mutual = mutual_image(1);
        assert!(mutual.decode_all().is_ok());
        assert!(mutual.symbol_named("even").is_some());
        assert!(mutual.symbol_named("odd").is_some());
    }

    #[test]
    fn server_image_has_all_handlers() {
        let img = server_image(1);
        assert!(img.decode_all().is_ok());
        for (name, _) in SERVER_HANDLERS {
            assert!(img.symbol_named(name).is_some(), "{name}");
        }
        assert!(img.symbol_named("svc_csum").is_some());
    }

    #[test]
    fn recursion_image_runs_to_completion() {
        use dcpi_machine::counters::CounterConfig;
        use dcpi_machine::machine::{Machine, NullSink};
        use dcpi_machine::MachineConfig;
        for img in [recursion_image(1), mutual_image(1), server_image(1)] {
            let name = img.name().to_string();
            let cfg = MachineConfig::with_counters(CounterConfig::off());
            let mut m = Machine::new(cfg, NullSink);
            let id = m.register_image(img);
            m.spawn(0, id, &[], |_| {});
            m.run_to_completion(500_000, 2_000_000_000);
            assert!(m.last_exit > 0, "{name} must halt");
        }
    }
}
