//! The fleet chaos harness: many agents, one server, one seeded run.
//!
//! [`run_fleet`] drives a whole fleet deterministically: each agent's
//! [`AgentScript`] is a pure function of the seed, and a single serial
//! tick loop moves uploaders, the simulated network, and the server in
//! lock-step. Fault schedules — network faults, agent crashes, server
//! crash/restart windows, spool corruption — all come from the seeded
//! [`FleetFaultPlan`], so one `(config, seed)` pair names one exact
//! run, byte-for-byte, fleet database included.
//!
//! Accounting is the point. Every sample an agent script generates is
//! tracked through seal → spool → wire → WAL → merge; losses (crashed
//! epochs, quarantined spool entries, driver drops) ride inside epoch
//! ledger deltas, and epochs lost to an agent crash are carried by the
//! *next* sealed batch (or a final empty "tombstone" batch if the
//! script is exhausted). At quiesce the [`FleetLedger`] identity
//!
//! ```text
//! generated = merged(attributed + unknown)
//!           + driver_dropped + crash_lost + quarantined
//! ```
//!
//! must hold exactly, with `in_flight == server_journal == 0` — and
//! `run_fleet` cross-checks `generated` against the script totals, so
//! a sample lost *anywhere* in the pipeline fails the run.

use crate::server::{IngestServer, ServerConfig, ServerStats};
use crate::transport::{Endpoint, NetFaultPlan, NetStats, SimNet};
use dcpi_collect::faults::{ledger_add, FleetLedger, LossLedger};
use dcpi_collect::uploader::{Uploader, UploaderConfig, UploaderStats};
use dcpi_collect::wire::{decode_msg, EpochBatch};
use dcpi_core::json::{Doc, Value};
use dcpi_core::prng::CartaRng;
use dcpi_core::profile::Profile;
use dcpi_core::{Event, ImageId, UNKNOWN_IMAGE};
use dcpi_obs::ledger::bucket_members;
use dcpi_obs::{MetricsSnapshot, Obs, Published, SeriesRing, Snapshot};
use std::io;
use std::path::PathBuf;

/// Everything that can go wrong in one fleet run.
#[derive(Clone, Debug, Default)]
pub struct FleetFaultPlan {
    /// Network faults (drop, duplicate, reorder, truncate, stall,
    /// partition) applied by the simulated transport.
    pub net: NetFaultPlan,
    /// `(tick, agent)`: the agent crashes at `tick` — its open epoch is
    /// lost (`crash_lost`), its spool and sequence counter survive on
    /// disk, and it re-registers with a bumped incarnation.
    pub agent_crashes: Vec<(u64, u32)>,
    /// `(kill, restart)`: the server process dies at `kill` and is
    /// reopened from its WAL at `restart`. Windows must be disjoint.
    pub server_crashes: Vec<(u64, u64)>,
    /// `(tick, agent, pick)`: spool entry `pick` on `agent` is found
    /// corrupt and quarantined (samples move to the `quarantined`
    /// bucket but the sequence number still uploads).
    pub spool_corruptions: Vec<(u64, u32, u32)>,
}

impl FleetFaultPlan {
    /// A fault-free plan (latency still applies).
    #[must_use]
    pub fn none() -> FleetFaultPlan {
        FleetFaultPlan::default()
    }

    /// Draws a plan from `seed` covering every fault class: network
    /// faults across `[0, horizon)` healing at `horizon`, a batch of
    /// agent crashes, one or two server crash/restart windows, and a
    /// few spool corruptions.
    #[must_use]
    pub fn random(seed: u32, horizon: u64, agents: u32) -> FleetFaultPlan {
        let mut rng = CartaRng::new(seed.wrapping_mul(0x0100_0193).max(1));
        let h = horizon.max(256);
        let agents = agents.max(1);
        let mut plan = FleetFaultPlan {
            net: NetFaultPlan::random(seed, h),
            ..FleetFaultPlan::none()
        };
        for _ in 0..(u64::from(agents) / 8).clamp(1, 32) {
            plan.agent_crashes.push((
                rng.uniform(h / 8, h - h / 8),
                rng.uniform(0, u64::from(agents) - 1) as u32,
            ));
        }
        plan.agent_crashes.sort_unstable();
        // One or two disjoint server outages, both healed well before
        // the horizon so the drain phase always has a live server.
        let kill1 = rng.uniform(h / 4, h / 2);
        let restart1 = kill1 + rng.uniform(8, h / 16);
        plan.server_crashes.push((kill1, restart1));
        if rng.uniform(0, 1) == 1 {
            let kill2 = rng.uniform(restart1 + h / 16, h - h / 8);
            let restart2 = kill2 + rng.uniform(8, h / 16);
            if restart2 < h {
                plan.server_crashes.push((kill2, restart2));
            }
        }
        for _ in 0..rng.uniform(1, 3) {
            plan.spool_corruptions.push((
                rng.uniform(h / 8, h - h / 8),
                rng.uniform(0, u64::from(agents) - 1) as u32,
                rng.uniform(0, 3) as u32,
            ));
        }
        plan.spool_corruptions.sort_unstable();
        plan
    }
}

/// Epochs each agent seals.
const EPOCHS_PER_AGENT: u32 = 4;
/// Rough samples per epoch.
const EPOCH_SCALE: u64 = 256;
/// Ticks between epoch seals on each agent (staggered by agent id).
const SEAL_PERIOD: u64 = 64;
/// Server merge cadence in ticks, and the time-series sampling period.
const MERGE_EVERY: u64 = 48;
/// Points an export's time series keeps; older ones are overwritten.
const SERIES_CAPACITY: usize = 256;

/// Fault horizon: all faults heal at this tick; the run then drains to
/// quiesce.
pub const HORIZON: u64 = EPOCHS_PER_AGENT as u64 * SEAL_PERIOD + 512;

/// One fleet run's shape.
#[derive(Clone, Debug)]
pub struct FleetConfig {
    /// Server root (WAL, fleet database, and `fleet.json` land here).
    pub root: PathBuf,
    /// Number of agents.
    pub agents: u32,
    /// Master seed: scripts, jitter, and fault draws all derive from it.
    pub seed: u32,
    /// The fault plan.
    pub faults: FleetFaultPlan,
}

impl FleetConfig {
    /// Defaults for `agents` agents rooted at `root`: faults drawn from
    /// the seed over [`HORIZON`].
    #[must_use]
    pub fn new(root: impl Into<PathBuf>, agents: u32, seed: u32) -> FleetConfig {
        let agents = agents.max(1);
        FleetConfig {
            root: root.into(),
            agents,
            seed,
            faults: FleetFaultPlan::random(seed, HORIZON, agents),
        }
    }

    /// The server, its queue bounds sized to the fleet.
    fn server_config(&self) -> ServerConfig {
        let agents = u64::from(self.agents);
        ServerConfig {
            root: self.root.clone(),
            queue_cap: usize::try_from(agents * 2).unwrap_or(usize::MAX),
            backpressure_at: usize::try_from(agents * 3 / 2).unwrap_or(usize::MAX),
            merge_every: MERGE_EVERY,
        }
    }
}

/// Seal→visible ingest lag for one run, in ticks: the one summary of
/// ingest lag, behind `fleet.json`, `dcpifleet run` and the export's lag
/// gauges. Lags come from every server incarnation, and the seal tick
/// rides the wire frame into the WAL, so a batch replayed after an
/// outage reports its *true* lag, outage included.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FleetLag {
    /// Merged epochs measured (sealed batches and tombstones).
    pub samples: u64,
    /// Median seal→visible lag (nearest-rank).
    pub p50: u64,
    /// 95th-percentile lag.
    pub p95: u64,
    /// 99th-percentile lag.
    pub p99: u64,
    /// Worst single epoch.
    pub max: u64,
}

/// Nearest-rank percentile of a sorted slice: the smallest element with
/// at least `pct`% of the samples at or below it.
fn nearest_rank(sorted: &[u64], pct: u64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let n = sorted.len() as u64;
    let rank = (n * pct).div_ceil(100).clamp(1, n);
    sorted[usize::try_from(rank - 1).unwrap_or(0)]
}

impl FleetLag {
    /// The summary as the obs export's gauges, in ticks, published once
    /// when the export is made.
    pub const PUBLISHED: Published<FleetLag> = Published {
        gauges: &[
            ("fleet.lag_p50", |l| l.p50),
            ("fleet.lag_p95", |l| l.p95),
            ("fleet.lag_p99", |l| l.p99),
            ("fleet.lag_max", |l| l.max),
            ("fleet.lag_epochs", |l| l.samples),
        ],
        ..Published::NONE
    };
}

/// What one fleet run did.
#[derive(Clone, Debug)]
pub struct FleetReport {
    /// The fleet ledger at quiesce (`in_flight == server_journal == 0`).
    pub ledger: FleetLedger,
    /// Samples the scripts generated — must equal `ledger.base.generated`.
    pub expected_generated: u64,
    /// Server counters summed across all server incarnations.
    pub server_stats: ServerStats,
    /// Network fault counters.
    pub net_stats: NetStats,
    /// Uploader counters summed across all agents.
    pub uploader_stats: UploaderStats,
    /// Agents simulated.
    pub agents: u32,
    /// Epochs sealed (including loss-carrying tombstones): the
    /// uploaders' `sealed` count.
    pub epochs_sealed: u64,
    /// Empty tombstone batches sealed to carry residual losses.
    pub tombstones: u64,
    /// Agent crashes injected.
    pub agent_crashes: u64,
    /// Server crash/restart cycles injected.
    pub server_crashes: u64,
    /// Ticks until quiesce.
    pub ticks: u64,
    /// Ingest-lag distribution and per-agent freshness.
    pub lag: FleetLag,
    /// Where the run's WAL, database, and `fleet.json` live.
    pub root: PathBuf,
    /// The run's observability export when the handle was enabled: the
    /// trace rings, the final counters and gauges (the lag summary's
    /// among them), the time series and the `fleet_quiesced` mark. A
    /// caller adds only its own meta.
    pub obs: Option<Snapshot>,
}

impl FleetReport {
    /// True if the fleet-wide conservation identity held exactly and
    /// the database got every script-generated sample's accounting.
    #[must_use]
    pub fn conserves(&self) -> bool {
        self.ledger.conserves()
            && self.ledger.in_flight == 0
            && self.ledger.server_journal == 0
            && self.ledger.base.generated == self.expected_generated
    }

    /// Renders the report as JSON: the run's totals, then one object per
    /// ledger and counter set.
    #[must_use]
    pub fn to_json(&self) -> String {
        let (l, s, n, u, lag) = (
            &self.ledger,
            &self.server_stats,
            &self.net_stats,
            &self.uploader_stats,
            &self.lag,
        );
        let mut ledger = bucket_members(&LossLedger::BUCKETS, &l.base);
        ledger.extend(bucket_members(&FleetLedger::BUCKETS, l));
        let mut doc = Doc::new();
        doc.field("agents", self.agents)
            .field("ticks", self.ticks)
            .field("epochs_sealed", self.epochs_sealed)
            .field("tombstones", self.tombstones)
            .field("agent_crashes", self.agent_crashes)
            .field("server_crashes", self.server_crashes)
            .field("expected_generated", self.expected_generated)
            .field("conserves", self.conserves())
            .field("ledger", Value::Obj(&ledger))
            .field(
                "server",
                Value::Obj(&[
                    ("accepted", s.accepted.into()),
                    ("deduped", s.deduped.into()),
                    ("gap_nacks", s.gap_nacks.into()),
                    ("queue_full_nacks", s.queue_full_nacks.into()),
                    ("backpressure_acks", s.backpressure_acks.into()),
                    ("merges", s.merges.into()),
                    ("replayed_batches", s.replayed_batches.into()),
                    ("lease_expiries", s.lease_expiries.into()),
                    ("corrupt_frames", s.corrupt_frames.into()),
                ]),
            )
            .field(
                "net",
                Value::Obj(&[
                    ("sent", n.sent.into()),
                    ("dropped", n.dropped.into()),
                    ("duplicated", n.duplicated.into()),
                    ("reordered", n.reordered.into()),
                    ("truncated", n.truncated.into()),
                    ("stalled", n.stalled.into()),
                    ("partitioned", n.partitioned.into()),
                ]),
            )
            .field(
                "agents_io",
                Value::Obj(&[
                    ("uploads_sent", u.uploads_sent.into()),
                    ("retransmits", u.retransmits.into()),
                    ("acks", u.acks.into()),
                    ("dup_acks", u.dup_acks.into()),
                    ("nacks", u.nacks.into()),
                    ("timeouts", u.timeouts.into()),
                    ("heartbeats", u.heartbeats.into()),
                ]),
            )
            .field(
                "lag",
                Value::Obj(&[
                    ("samples", lag.samples.into()),
                    ("p50", lag.p50.into()),
                    ("p95", lag.p95.into()),
                    ("p99", lag.p99.into()),
                    ("max", lag.max.into()),
                ]),
            );
        doc.finish()
    }
}

/// The fleet-shared image universe: ids and pathnames every agent
/// samples from (the "whole building" runs the same binaries).
pub const FLEET_IMAGES: [(u32, &str); 6] = [
    (1, "/usr/bin/mccalpin"),
    (2, "/usr/bin/gcc"),
    (3, "/usr/bin/x11server"),
    (4, "/usr/bin/altavista"),
    (5, "/usr/bin/dss"),
    (6, "/vmunix"),
];

/// One agent's scripted collection output: the epochs its daemon would
/// seal, in order.
///
/// A full cycle-level simulation per agent would dwarf the ingestion
/// path under test, so a script is the daemon-output shape of a Table
/// 2-style machine instead: per-epoch `(image, event)` profiles over
/// [`FLEET_IMAGES`] with a hot-image skew, an unknown-image residue,
/// and a driver-drop trickle. Each epoch carries its own conserving
/// [`LossLedger`] delta, which is what lets the harness prove
/// end-to-end conservation from the server's journal alone.
#[derive(Clone, Debug)]
pub struct AgentScript {
    /// Agent id.
    pub agent: u32,
    /// Sealed epochs in upload order, ledger deltas included.
    pub epochs: Vec<EpochBatch>,
}

impl AgentScript {
    /// Generates the script for `agent`: `epochs` epochs of roughly
    /// `scale` samples each. Pure in `(agent, seed, epochs, scale)`.
    #[must_use]
    pub fn generate(agent: u32, seed: u32, epochs: u32, scale: u64) -> AgentScript {
        let mut rng = CartaRng::new(
            seed.wrapping_mul(0x9e37_79b9)
                .wrapping_add(agent.wrapping_mul(0x85eb_ca6b))
                .max(1),
        );
        let scale = scale.max(8);
        let mut out = Vec::with_capacity(epochs as usize);
        for epoch in 0..epochs {
            let mut batch = EpochBatch {
                epoch,
                ..EpochBatch::default()
            };
            let mut attributed = 0u64;
            // 2–4 images per epoch; image 1 is fleet-hot (every agent,
            // every epoch), the rest drawn from the shared universe.
            let extra = rng.uniform(1, 3) as usize;
            let mut picks = vec![0usize];
            for _ in 0..extra {
                let p = rng.uniform(1, FLEET_IMAGES.len() as u64 - 1) as usize;
                if !picks.contains(&p) {
                    picks.push(p);
                }
            }
            picks.sort_unstable();
            for p in picks {
                let (id, path) = FLEET_IMAGES[p];
                let mut profile = Profile::new();
                for _ in 0..rng.uniform(3, 8) {
                    let pc = rng.uniform(0, 512) * 4;
                    let count = rng.uniform(1, scale / 4);
                    profile.add(pc, count);
                }
                attributed += profile.total();
                batch.profiles.push((ImageId(id), Event::Cycles, profile));
                if epoch == 0 {
                    batch.image_names.push((ImageId(id), path.to_owned()));
                }
            }
            // An unknown-image residue (missed loader notifications).
            let unknown = if rng.uniform(0, 3) == 0 {
                let mut profile = Profile::new();
                profile.add(rng.uniform(0, 64) * 4, rng.uniform(1, scale / 16));
                let u = profile.total();
                batch.profiles.push((UNKNOWN_IMAGE, Event::Cycles, profile));
                u
            } else {
                0
            };
            // A driver-drop trickle (overflow buffers full).
            let driver_dropped = if rng.uniform(0, 2) == 0 {
                rng.uniform(0, scale / 32)
            } else {
                0
            };
            batch.ledger = LossLedger {
                generated: attributed + unknown + driver_dropped,
                attributed,
                unknown,
                driver_dropped,
                crash_lost: 0,
                quarantined: 0,
            };
            debug_assert!(batch.ledger.conserves());
            out.push(batch);
        }
        AgentScript { agent, epochs: out }
    }

    /// Samples this script generates across all epochs (the agent's
    /// contribution to fleet `generated`).
    #[must_use]
    pub fn total_generated(&self) -> u64 {
        self.epochs.iter().map(|b| b.ledger.generated).sum()
    }
}

/// One agent in the simulation: its uploader plus the script cursor and
/// the loss ledger delta waiting for a carrier batch.
struct AgentSim {
    uploader: Uploader,
    script: AgentScript,
    next_epoch: usize,
    /// Losses accrued since the last seal (crashed epochs); carried by
    /// the next sealed batch or a final tombstone.
    pending: LossLedger,
    seal_at: u64,
    tombstoned: bool,
}

impl AgentSim {
    /// Crash: the open (next unsealed) epoch's samples are lost from
    /// daemon memory; its ledger delta moves to `pending` with the
    /// sample buckets collapsed into `crash_lost`.
    fn crash(&mut self) {
        self.uploader.crash();
        if self.next_epoch < self.script.epochs.len() {
            let d = self.script.epochs[self.next_epoch].ledger;
            ledger_add(&mut self.pending.generated, d.generated);
            ledger_add(&mut self.pending.crash_lost, d.attributed);
            ledger_add(&mut self.pending.crash_lost, d.unknown);
            ledger_add(&mut self.pending.driver_dropped, d.driver_dropped);
            self.next_epoch += 1;
        }
    }

    fn script_done(&self) -> bool {
        self.next_epoch >= self.script.epochs.len()
    }
}

/// What the run keeps of every server incarnation an outage killed or
/// quiesce retired.
#[derive(Default)]
struct Retired {
    stats: ServerStats,
    duplicates: u64,
    lags: Vec<u64>,
}

impl Retired {
    /// Folds in an incarnation's counts, duplicate samples and lags.
    fn retire(&mut self, s: &IngestServer) {
        self.stats.merge(&s.stats);
        ledger_add(
            &mut self.duplicates,
            s.ledger().retrans_duplicates_discarded,
        );
        self.lags.extend_from_slice(s.ingest_lags());
    }
}

/// Sums the fleet's counts — the server's over every incarnation (the
/// retired ones' plus the live one's), the uploaders' over the agents —
/// and publishes them with the live server's levels.
fn publish(
    retired: &Retired,
    server: Option<&IngestServer>,
    agents: &[AgentSim],
) -> (UploaderStats, MetricsSnapshot) {
    let mut server_stats = retired.stats;
    let mut uploader_stats = UploaderStats::default();
    for sim in agents {
        uploader_stats.merge(&sim.uploader.stats);
    }
    let mut m = MetricsSnapshot::default();
    if let Some(s) = server {
        server_stats.merge(&s.stats);
        m.publish(&IngestServer::PUBLISHED, s);
    }
    m.publish(&ServerStats::PUBLISHED, &server_stats);
    m.publish(&UploaderStats::PUBLISHED, &uploader_stats);
    (uploader_stats, m)
}

/// The metrics of a fleet export, kept by the run while obs is on: each
/// published name at its newest value, and the time series sampled from
/// them.
struct FleetSeries {
    held: MetricsSnapshot,
    ring: SeriesRing,
}

impl FleetSeries {
    fn new() -> FleetSeries {
        FleetSeries {
            held: MetricsSnapshot::default(),
            ring: SeriesRing::new(SERIES_CAPACITY),
        }
    }

    /// Holds what was just published and samples the held values as the
    /// point at `tick`. A name left out keeps its last value, so the
    /// server's levels stay frozen while it is down.
    fn record(&mut self, tick: u64, published: MetricsSnapshot) {
        self.held.counters.extend(published.counters);
        self.held.gauges.extend(published.gauges);
        self.ring.record(tick, &self.held);
    }

    /// The finished export: the handle's rings, the held values, the
    /// run's lag summary as gauges, and the series.
    fn export(self, obs: &Obs, lag: &FleetLag) -> Snapshot {
        let mut snap = obs.snapshot();
        snap.metrics = self.held;
        snap.metrics.publish(&FleetLag::PUBLISHED, lag);
        snap.timeseries = self.ring.snapshot();
        // The run drained to quiesce, so the trace audit may demand that
        // every sealed epoch reached database visibility.
        snap.meta
            .insert("fleet_quiesced".to_owned(), "true".to_owned());
        snap
    }
}

/// Runs one fleet to quiesce. Deterministic in `cfg` (including the
/// seed): two runs with equal configs produce byte-identical WALs,
/// fleet databases, and reports. Writes `fleet.json` under `cfg.root`.
/// With `obs` enabled the report carries the run's export
/// ([`FleetReport::obs`]).
///
/// # Errors
///
/// Returns an I/O error if the server root cannot be written, or if the
/// fleet fails to quiesce within the simulation's tick bound (a fault
/// plan that never heals, or a protocol bug).
pub fn run_fleet(cfg: &FleetConfig, obs: &Obs) -> io::Result<FleetReport> {
    let mut agents: Vec<AgentSim> = (0..cfg.agents)
        .map(|id| {
            let script = AgentScript::generate(id, cfg.seed, EPOCHS_PER_AGENT, EPOCH_SCALE);
            let mut uploader = Uploader::new(
                id,
                cfg.seed.wrapping_add(id.wrapping_mul(0x9e37_79b9)),
                UploaderConfig::default(),
            );
            uploader.attach_obs(obs);
            AgentSim {
                uploader,
                script,
                next_epoch: 0,
                // Stagger seals so the fleet does not thundering-herd.
                seal_at: 1 + u64::from(id) % SEAL_PERIOD,
                pending: LossLedger::default(),
                tombstoned: false,
            }
        })
        .collect();
    let expected_generated: u64 = agents.iter().map(|a| a.script.total_generated()).sum();

    let mut server = Some({
        let mut s = IngestServer::create(cfg.server_config())?;
        s.attach_obs(obs);
        s
    });
    let mut net = SimNet::new(cfg.faults.net.clone(), cfg.seed.wrapping_mul(31).max(1));

    // Fault schedules as cursors over the (sorted) plan vectors.
    let mut agent_crashes = cfg.faults.agent_crashes.clone();
    agent_crashes.sort_unstable();
    let mut spool_corruptions = cfg.faults.spool_corruptions.clone();
    spool_corruptions.sort_unstable();
    let mut server_windows = cfg.faults.server_crashes.clone();
    server_windows.sort_unstable();
    let (mut next_crash, mut next_corrupt, mut next_window) = (0usize, 0usize, 0usize);
    let mut in_window = false;

    let mut retired = Retired::default();
    let mut tombstones = 0u64;
    let mut agent_crash_count = 0u64;
    let mut server_crash_count = 0u64;
    let mut series = obs.is_enabled().then(FleetSeries::new);

    let max_ticks = HORIZON
        .saturating_add(u64::from(cfg.agents).saturating_mul(64))
        .saturating_add(200_000);
    // The quiesce tick and the server that was live at it.
    let mut quiesced = None;
    for t in 0..max_ticks {
        // Server outage schedule.
        if !in_window && next_window < server_windows.len() && t == server_windows[next_window].0 {
            if let Some(s) = server.take() {
                retired.retire(&s);
                server_crash_count += 1;
                in_window = true;
                // Dropping the server mid-everything IS the crash: no
                // flush, no goodbye. The WAL is all that survives.
                drop(s);
            }
        }
        if in_window && t == server_windows[next_window].1 {
            let mut s = IngestServer::reopen(cfg.server_config(), t)?;
            s.attach_obs(obs);
            server = Some(s);
            in_window = false;
            next_window += 1;
        }

        // Agent crash / spool corruption schedules.
        while next_crash < agent_crashes.len() && agent_crashes[next_crash].0 == t {
            let a = agent_crashes[next_crash].1 as usize;
            if let Some(sim) = agents.get_mut(a) {
                sim.crash();
                agent_crash_count += 1;
            }
            next_crash += 1;
        }
        while next_corrupt < spool_corruptions.len() && spool_corruptions[next_corrupt].0 == t {
            let (_, a, pick) = spool_corruptions[next_corrupt];
            if let Some(sim) = agents.get_mut(a as usize) {
                sim.uploader.quarantine_spooled(pick);
            }
            next_corrupt += 1;
        }

        // Quiesce check: past the horizon, scripts exhausted, residual
        // losses tombstoned, every uploader idle with an empty spool.
        // (An idle uploader has no unacked upload, so anything still on
        // the wire is heartbeat chatter or a stray duplicate the server
        // would discard — neither touches the WAL or the database.)
        if t >= HORIZON
            && server.is_some()
            && agents.iter().all(|sim| {
                sim.script_done() && sim.pending == LossLedger::default() && sim.uploader.idle()
            })
        {
            if let Some(srv) = server.take() {
                quiesced = Some((t, srv));
                break;
            }
        }

        // Agents: seal due epochs (carrying pending losses), tombstone
        // residuals once the script is done, emit frames.
        for sim in &mut agents {
            if !sim.script_done() && t >= sim.seal_at {
                let mut batch = sim.script.epochs[sim.next_epoch].clone();
                batch.ledger.merge(&std::mem::take(&mut sim.pending));
                // Span context: the seal tick rides the batch through
                // wire → WAL → merge, so every downstream stage (and a
                // post-outage replay) can compute true seal→now lag.
                batch.seal_cycle = t;
                sim.next_epoch += 1;
                sim.seal_at = t + SEAL_PERIOD;
                sim.uploader.push_epoch(batch);
            } else if sim.script_done() && !sim.tombstoned && sim.pending != LossLedger::default() {
                // The script ran out but losses are still unreported
                // (a crash took the final epoch): seal an empty batch
                // whose only payload is the ledger delta.
                let batch = EpochBatch {
                    epoch: sim.script.epochs.len() as u32,
                    ledger: std::mem::take(&mut sim.pending),
                    seal_cycle: t,
                    ..EpochBatch::default()
                };
                sim.uploader.push_epoch(batch);
                sim.tombstoned = true;
                tombstones += 1;
            }
            for frame in sim.uploader.tick(t) {
                net.send(
                    t,
                    Endpoint::Agent(sim.uploader.agent()),
                    Endpoint::Server,
                    frame,
                );
            }
        }

        // Network delivery.
        for (to, frame) in net.deliver_due(t) {
            match to {
                Endpoint::Server => {
                    // Frames reaching a dead server die with it; the
                    // senders' timeouts will retry.
                    if let Some(srv) = server.as_mut() {
                        for reply in srv.on_frame(t, &frame) {
                            if let Ok(msg) = decode_msg(&reply) {
                                net.send(t, Endpoint::Server, Endpoint::Agent(msg.agent()), reply);
                            }
                        }
                    }
                }
                Endpoint::Agent(a) => {
                    if let Some(sim) = agents.get_mut(a as usize) {
                        sim.uploader.on_frame(t, &frame);
                    }
                }
            }
        }

        if let Some(srv) = server.as_mut() {
            srv.tick(t)?;
        }

        // One time-series point per merge cadence, read from the stats
        // as they stand.
        if t % MERGE_EVERY == 0 {
            if let Some(series) = series.as_mut() {
                series.record(t, publish(&retired, server.as_ref(), &agents).1);
            }
        }
    }

    let Some((ticks, mut srv)) = quiesced else {
        return Err(io::Error::other(format!(
            "fleet failed to quiesce within {max_ticks} ticks \
             (in_flight {}, live server: {})",
            net.in_flight(),
            server.is_some(),
        )));
    };
    srv.finish(ticks)?;
    let (uploader_stats, published) = publish(&retired, Some(&srv), &agents);
    if let Some(series) = series.as_mut() {
        series.record(ticks, published);
    }
    retired.retire(&srv);

    let lags = &mut retired.lags;
    lags.sort_unstable();
    let lag = FleetLag {
        samples: lags.len() as u64,
        p50: nearest_rank(lags, 50),
        p95: nearest_rank(lags, 95),
        p99: nearest_rank(lags, 99),
        max: lags.last().copied().unwrap_or(0),
    };

    let mut ledger = srv.ledger();
    ledger.retrans_duplicates_discarded = retired.duplicates;
    for sim in &agents {
        ledger_add(&mut ledger.in_flight, sim.uploader.in_flight_samples());
    }

    let export = series.map(|s| s.export(obs, &lag));
    let report = FleetReport {
        ledger,
        expected_generated,
        server_stats: retired.stats,
        net_stats: net.stats(),
        epochs_sealed: uploader_stats.sealed,
        uploader_stats,
        agents: cfg.agents,
        tombstones,
        agent_crashes: agent_crash_count,
        server_crashes: server_crash_count,
        ticks,
        lag,
        root: cfg.root.clone(),
        obs: export,
    };
    std::fs::write(cfg.root.join("fleet.json"), report.to_json())?;
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scripts(agents: u32, seed: u32, epochs: u32, scale: u64) -> Vec<AgentScript> {
        (0..agents)
            .map(|a| AgentScript::generate(a, seed, epochs, scale))
            .collect()
    }

    #[test]
    fn scripts_are_deterministic_per_seed() {
        let first = scripts(12, 7, 4, 100);
        let again = scripts(12, 7, 4, 100);
        assert_eq!(first.len(), 12);
        for (a, b) in first.iter().zip(&again) {
            assert_eq!(a.agent, b.agent);
            assert_eq!(a.epochs, b.epochs);
        }
        let other = scripts(12, 8, 4, 100);
        assert_ne!(
            first[0].epochs, other[0].epochs,
            "different seed, different fleet"
        );
    }

    #[test]
    fn every_epoch_delta_conserves() {
        for script in scripts(20, 3, 5, 200) {
            assert!(script.total_generated() > 0);
            for b in &script.epochs {
                assert!(
                    b.ledger.conserves(),
                    "agent {} epoch {}",
                    script.agent,
                    b.epoch
                );
                assert_eq!(b.ledger.attributed + b.ledger.unknown, b.sample_total());
            }
        }
    }

    #[test]
    fn epoch_zero_names_the_universe() {
        let s = AgentScript::generate(0, 1, 3, 64);
        assert!(!s.epochs[0].image_names.is_empty());
        assert!(s.epochs[1].image_names.is_empty());
    }

    #[test]
    fn held_values_sample_published_deltas() {
        let mut series = FleetSeries::new();
        let mut m = MetricsSnapshot::default();
        m.counters.insert("server.accepted".into(), 3);
        m.gauges.insert("server.queue_depth".into(), 2);
        series.record(100, m);
        let mut m = MetricsSnapshot::default();
        m.counters.insert("server.accepted".into(), 7);
        series.record(200, m);
        let s = series.ring.snapshot();
        assert_eq!(s.capacity, SERIES_CAPACITY as u64);
        assert_eq!(s.recorded, 2);
        assert_eq!(s.points[0].counters["server.accepted"], 3);
        assert_eq!(s.points[1].counters["server.accepted"], 4);
        // A gauge left out of a point keeps its last published level.
        assert_eq!(s.points[1].gauges["server.queue_depth"], 2);
        let lag = FleetLag {
            samples: 3,
            p50: 16,
            max: 64,
            ..FleetLag::default()
        };
        let snap = series.export(&Obs::new(&dcpi_obs::ObsConfig::on()), &lag);
        assert_eq!(snap.metrics.counters["server.accepted"], 7);
        assert_eq!(snap.metrics.gauges["server.queue_depth"], 2);
        assert_eq!(snap.timeseries.recorded, 2);
        let g = &snap.metrics.gauges;
        assert_eq!((g["fleet.lag_epochs"], g["fleet.lag_p50"]), (3, 16));
        assert_eq!(g["fleet.lag_max"], 64);
        assert!(!g.keys().any(|k| k.starts_with("fleet.stalest")), "{g:?}");
        assert_eq!(s.points[1].gauges.get("fleet.lag_max"), None, "set once");
        assert_eq!(snap.meta["fleet_quiesced"], "true");
    }
}
