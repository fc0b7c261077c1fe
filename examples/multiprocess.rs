//! Whole-system, multi-process, multi-processor profiling — the property
//! that set DCPI apart (§1): one continuous profile covering every
//! process, shared library, and the kernel.
//!
//! Spawns a mixed workload across four CPUs (queries, compilations, and
//! timesharing jobs), profiles everything at once, and prints the merged
//! per-image and per-procedure breakdowns, including `/vmunix` kernel
//! time and idle time.
//!
//! Run with: `cargo run --release --example multiprocess`

use dcpi::collect::session::{ProfiledRun, SessionConfig};
use dcpi::core::Event;
use dcpi::machine::counters::CounterConfig;
use dcpi::tools::{dcpiprof, dcpiprof_images, ImageRegistry};
use dcpi::workloads::programs::{self, QueryKind};

fn main() {
    let mut cfg = SessionConfig::default();
    cfg.machine.cpus = 4;
    cfg.machine.counters = CounterConfig::default_config((20_000, 21_600));
    let mut run = ProfiledRun::new(cfg).expect("session");

    // Kernel procedure addresses for the query workload's syscalls.
    let kernel = programs::KernelAddrs {
        bcopy: run.machine.os.kernel_proc_addr("bcopy").unwrap(),
        in_checksum: run.machine.os.kernel_proc_addr("in_checksum").unwrap(),
        dispatch: run.machine.os.kernel_proc_addr("Dispatch").unwrap(),
    };

    // CPUs 0-1: search queries with pointer chasing.
    let search = run.register_image(programs::query_image(QueryKind::Search, &kernel, 400));
    for q in 0..4 {
        let seed = 1000 + q as u64;
        run.spawn(q % 2, search, &[], move |p| {
            programs::init_index(p, 2048, seed);
        });
    }
    // CPU 2: compilations (fresh PID per unit).
    let cc1 = run.register_image(programs::compile_image(20));
    for _ in 0..4 {
        run.spawn(2, cc1, &[], |_| {});
    }
    // CPU 3: small shell jobs, leaving idle tails.
    let sh = run.register_image(programs::shell_image());
    for j in 0..3u64 {
        let work = 200_000 + 100_000 * j;
        run.spawn(3, sh, &[], move |p| {
            p.set_reg(dcpi::isa::reg::Reg::A1, work);
        });
    }

    let cycles = run.run_to_completion(10_000_000_000);
    println!(
        "profiled {} processes over {cycles} cycles on 4 CPUs, {} samples",
        11,
        run.machine.total_samples()
    );
    println!(
        "driver hash miss rate: {:.1}%, unknown samples: {:.3}%\n",
        run.machine.sink.total_stats().miss_rate() * 100.0,
        run.daemon.unknown_fraction() * 100.0
    );

    let registry = ImageRegistry::from_os(&run.machine.os);
    println!("== per image ==");
    println!(
        "{}",
        dcpiprof_images(run.profiles(), &registry, Event::IMiss, 8)
    );
    println!("== per procedure ==");
    println!("{}", dcpiprof(run.profiles(), &registry, Event::IMiss, 14));
}
