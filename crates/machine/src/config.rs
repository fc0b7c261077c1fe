//! Machine configuration.

use crate::counters::CounterConfig;
use dcpi_isa::pipeline::PipelineModel;

/// How far the execution core walks a handler chain before handing
/// control back to the machine loop. Both modes run the same walker
/// (`dispatch.rs`) over the same precompiled micro-ops.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum DispatchMode {
    /// One issue group per walk: every memo starts cold, so every cache
    /// and TLB access is the full probe. The slow, plain reading of the
    /// model that `Superblock` is compared against.
    Classic,
    /// Superblock threaded dispatch: a walk runs on through straight-line
    /// code and taken branches until a boundary, with memoized cache/TLB
    /// fast paths. Produces bit-identical outputs to `Classic` (the parity
    /// suite, its recorded fingerprints and the golden-triple determinism
    /// tests are the oracle).
    #[default]
    Superblock,
}

/// Geometry of one cache.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CacheGeom {
    /// Total size in bytes.
    pub size: u64,
    /// Line size in bytes.
    pub line: u64,
    /// Associativity.
    pub ways: usize,
}

/// Full configuration of the simulated machine.
///
/// Defaults approximate the paper's AlphaStation 500 5/333: 8KB
/// direct-mapped split L1 caches, a 2MB direct-mapped board cache (whose
/// physical indexing produces the wave5 conflict-miss variance of §3.3),
/// 64-entry TLBs, 8KB pages, and a six-cycle interrupt skid.
#[derive(Clone, Debug)]
pub struct MachineConfig {
    /// Number of processors.
    pub cpus: usize,
    /// The shared pipeline timing model.
    pub model: PipelineModel,
    /// L1 instruction cache geometry.
    pub icache: CacheGeom,
    /// L1 data cache geometry.
    pub dcache: CacheGeom,
    /// Unified board cache geometry (per CPU).
    pub bcache: CacheGeom,
    /// Instruction TLB entries.
    pub itb_entries: usize,
    /// Data TLB entries.
    pub dtb_entries: usize,
    /// Page size in bytes. Must be a power of two (`Machine::with_kernel`
    /// asserts it).
    pub page_bytes: u64,
    /// Branch predictor table entries (power of two).
    pub bp_entries: usize,
    /// Performance counter configuration.
    pub counters: CounterConfig,
    /// Scheduler timeslice in cycles.
    pub timeslice: u64,
    /// Cycles charged for a context switch (pipeline drain + kernel work).
    pub ctx_switch_cost: u64,
    /// Master seed for sampling-period randomization and page placement.
    pub seed: u32,
    /// If true, physical pages are assigned pseudo-randomly on first
    /// touch, so board-cache conflicts vary run to run (the wave5 effect);
    /// if false, pages are assigned sequentially (reproducible layout).
    pub page_alloc_random: bool,
    /// Double sampling (§7): every N-th delivered sample also captures
    /// the next PC executed, yielding `(pc1, pc2)` path samples. 0
    /// disables.
    pub double_sample_every: u32,
    /// Instruction dispatch strategy. `Superblock` (the default) and
    /// `Classic` produce bit-identical outputs at the same seed; the
    /// toggle exists for the parity suite and for bisecting.
    pub dispatch: DispatchMode,
    /// Walk the interrupted process's call stack at every sample
    /// delivery and hand the frames to the sink (the calling-context
    /// extension). Off by default: the walk charges handler cycles, so
    /// enabling it perturbs fixed-seed timing.
    pub stack_walk: bool,
    /// Maximum frames a stack walk captures (deeper stacks truncate at
    /// the outer end).
    pub stack_max_frames: usize,
}

impl Default for MachineConfig {
    fn default() -> MachineConfig {
        MachineConfig {
            cpus: 1,
            model: PipelineModel::default(),
            icache: CacheGeom {
                size: 8 * 1024,
                line: 32,
                ways: 1,
            },
            dcache: CacheGeom {
                size: 8 * 1024,
                line: 32,
                ways: 1,
            },
            bcache: CacheGeom {
                size: 2 * 1024 * 1024,
                line: 64,
                ways: 1,
            },
            itb_entries: 48,
            dtb_entries: 64,
            page_bytes: 8192,
            bp_entries: 2048,
            counters: CounterConfig::default_config((60 * 1024, 64 * 1024)),
            timeslice: 500_000,
            ctx_switch_cost: 2_000,
            seed: 1,
            page_alloc_random: false,
            double_sample_every: 0,
            dispatch: DispatchMode::default(),
            stack_walk: false,
            stack_max_frames: 64,
        }
    }
}

impl MachineConfig {
    /// A config with the given counter setup, other fields default.
    #[must_use]
    pub fn with_counters(counters: CounterConfig) -> MachineConfig {
        MachineConfig {
            counters,
            ..MachineConfig::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcpi_core::Event;

    #[test]
    fn default_matches_paper_constants() {
        let c = MachineConfig::default();
        assert_eq!(c.model.interrupt_skid, 6);
        assert_eq!(c.model.write_buffer_entries, 6);
        assert_eq!(c.page_bytes, 8192);
        assert!(c.counters.groups[0].contains(&Event::Cycles));
        assert!(c.counters.groups[0].contains(&Event::IMiss));
        assert_eq!(c.counters.period, (61_440, 65_536));
    }

    #[test]
    fn with_counters_overrides_only_counters() {
        let c = MachineConfig::with_counters(crate::counters::CounterConfig::off());
        assert!(!c.counters.enabled());
        assert_eq!(c.cpus, 1);
    }

    #[test]
    fn superblock_dispatch_is_the_default() {
        assert_eq!(MachineConfig::default().dispatch, DispatchMode::Superblock);
    }

    #[test]
    fn stack_walk_defaults_off() {
        let c = MachineConfig::default();
        assert!(
            !c.stack_walk,
            "stack walking must be opt-in: the walk charges handler cycles"
        );
        assert!(c.stack_max_frames > 0);
    }
}
