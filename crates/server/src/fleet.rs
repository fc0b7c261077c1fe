//! The fleet chaos harness: many agents, one server, one seeded run.
//!
//! [`run_fleet`] drives a whole fleet deterministically: agent scripts
//! are pre-generated in parallel (pure functions of the seed, so the
//! thread count cannot change the fleet), then a single serial tick
//! loop moves uploaders, the simulated network, and the server in
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
use crate::transport::{Endpoint, SimNet};
use dcpi_collect::faults::{ledger_add, FleetLedger, LossLedger, NetFaultPlan, NetStats};
use dcpi_collect::uploader::{Uploader, UploaderConfig, UploaderStats};
use dcpi_collect::wire::{decode_msg, EpochBatch};
use dcpi_core::json::{Doc, Value};
use dcpi_core::prng::CartaRng;
use dcpi_obs::{MetricsSnapshot, Obs};
use dcpi_workloads::fleet_feed::{fleet_scripts, AgentScript};
use std::collections::BTreeMap;
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
    /// Server ingest queue bound.
    pub queue_cap: usize,
    /// Queue depth where acks start carrying backpressure.
    pub backpressure_at: usize,
}

impl FleetConfig {
    /// Defaults for `agents` agents rooted at `root`: faults drawn from
    /// the seed over [`HORIZON`], queue bounds sized to the fleet.
    #[must_use]
    pub fn new(root: impl Into<PathBuf>, agents: u32, seed: u32) -> FleetConfig {
        let agents = agents.max(1);
        FleetConfig {
            root: root.into(),
            agents,
            seed,
            faults: FleetFaultPlan::random(seed, HORIZON, agents),
            queue_cap: usize::try_from(u64::from(agents) * 2).unwrap_or(usize::MAX),
            backpressure_at: usize::try_from(u64::from(agents) * 3 / 2).unwrap_or(usize::MAX),
        }
    }

    fn server_config(&self) -> ServerConfig {
        ServerConfig {
            root: self.root.clone(),
            queue_cap: self.queue_cap,
            backpressure_at: self.backpressure_at,
            merge_every: MERGE_EVERY,
        }
    }
}

/// Seal→database-visible ingest-lag distribution for one run, in
/// ticks, plus per-agent freshness at quiesce. Lags are harvested from
/// every server incarnation (a batch merged before a server crash keeps
/// its measurement), and because the seal tick rides the wire frame
/// into the WAL, batches replayed after an outage report their *true*
/// lag — outage included.
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
    /// Agent whose newest database-visible batch is oldest at quiesce.
    pub stalest_agent: u32,
    /// Quiesce tick minus that agent's last visible tick.
    pub stalest_staleness: u64,
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
    /// Epochs sealed (including loss-carrying tombstones).
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
        let mut doc = Doc::new();
        doc.field("agents", self.agents)
            .field("ticks", self.ticks)
            .field("epochs_sealed", self.epochs_sealed)
            .field("tombstones", self.tombstones)
            .field("agent_crashes", self.agent_crashes)
            .field("server_crashes", self.server_crashes)
            .field("expected_generated", self.expected_generated)
            .field("conserves", self.conserves())
            .field(
                "ledger",
                Value::Obj(&[
                    ("generated", l.base.generated.into()),
                    ("attributed", l.base.attributed.into()),
                    ("unknown", l.base.unknown.into()),
                    ("driver_dropped", l.base.driver_dropped.into()),
                    ("crash_lost", l.base.crash_lost.into()),
                    ("quarantined", l.base.quarantined.into()),
                    ("in_flight", l.in_flight.into()),
                    ("server_journal", l.server_journal.into()),
                    ("fleet_merged", l.fleet_merged.into()),
                    (
                        "retrans_duplicates_discarded",
                        l.retrans_duplicates_discarded.into(),
                    ),
                ]),
            )
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
                    ("stalest_agent", lag.stalest_agent.into()),
                    ("stalest_staleness", lag.stalest_staleness.into()),
                ]),
            );
        doc.finish()
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

/// Sums the fleet's counts — the server's over every incarnation (the
/// killed ones' `harvested` plus the live one's), the uploaders' over the
/// agents — and publishes them with the live server's levels as the
/// time-series point at `tick`. While the server is down its levels keep
/// their last published values.
fn record_point(
    obs: &Obs,
    tick: u64,
    harvested: &ServerStats,
    server: Option<&IngestServer>,
    agents: &[AgentSim],
) -> (ServerStats, UploaderStats) {
    let mut server_stats = *harvested;
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
    obs.record_point(tick, &m);
    (server_stats, uploader_stats)
}

/// Runs one fleet to quiesce. Deterministic in `cfg` (including the
/// seed): two runs with equal configs produce byte-identical WALs,
/// fleet databases, and reports. Writes `fleet.json` under `cfg.root`.
///
/// # Errors
///
/// Returns an I/O error if the server root cannot be written, or if the
/// fleet fails to quiesce within the simulation's tick bound (a fault
/// plan that never heals, or a protocol bug).
pub fn run_fleet(cfg: &FleetConfig, obs: &Obs) -> io::Result<FleetReport> {
    // Scripts are pure functions of the seed, so the thread count
    // cannot change the fleet.
    let scripts = fleet_scripts(
        cfg.agents,
        cfg.seed,
        EPOCHS_PER_AGENT,
        EPOCH_SCALE,
        dcpi_workloads::default_threads(),
    );
    let expected_generated: u64 = scripts.iter().map(AgentScript::total_generated).sum();

    let mut agents: Vec<AgentSim> = scripts
        .into_iter()
        .map(|script| {
            let id = script.agent;
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

    // Stats harvested from server incarnations that were killed.
    let mut harvested_stats = ServerStats::default();
    let mut harvested_dups = 0u64;
    let mut harvested_lags: Vec<u64> = Vec::new();
    let mut agent_visible: BTreeMap<u32, u64> = BTreeMap::new();
    let mut epochs_sealed = 0u64;
    let mut tombstones = 0u64;
    let mut agent_crash_count = 0u64;
    let mut server_crash_count = 0u64;

    let max_ticks = HORIZON
        .saturating_add(u64::from(cfg.agents).saturating_mul(64))
        .saturating_add(200_000);
    let mut quiesced_at = None;
    for t in 0..max_ticks {
        // Server outage schedule.
        if !in_window && next_window < server_windows.len() && t == server_windows[next_window].0 {
            if let Some(s) = server.take() {
                harvested_dups += s.ledger().retrans_duplicates_discarded;
                // Lags of batches that reached the database before the
                // crash survive the incarnation; visibility ticks only
                // move forward, so a plain overwrite merge is correct.
                harvested_lags.extend_from_slice(s.ingest_lags());
                for (&a, &v) in s.agent_visibility() {
                    agent_visible.insert(a, v);
                }
                harvested_stats.merge(&s.stats);
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
        if t >= HORIZON && server.is_some() {
            let done = agents.iter().all(|sim| {
                sim.script_done() && sim.pending == LossLedger::default() && sim.uploader.idle()
            });
            if done {
                quiesced_at = Some(t);
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
                epochs_sealed += 1;
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
                epochs_sealed += 1;
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
            record_point(obs, t, &harvested_stats, server.as_ref(), &agents);
        }
    }

    let Some(ticks) = quiesced_at else {
        return Err(io::Error::other(format!(
            "fleet failed to quiesce within {max_ticks} ticks \
             (in_flight {}, live server: {})",
            net.in_flight(),
            server.is_some(),
        )));
    };
    let mut srv = server.expect("quiesce requires a live server");
    srv.finish(ticks)?;
    let (server_stats, uploader_stats) =
        record_point(obs, ticks, &harvested_stats, Some(&srv), &agents);

    harvested_lags.extend_from_slice(srv.ingest_lags());
    for (&a, &v) in srv.agent_visibility() {
        agent_visible.insert(a, v);
    }
    harvested_lags.sort_unstable();
    let mut lag = FleetLag {
        samples: harvested_lags.len() as u64,
        p50: nearest_rank(&harvested_lags, 50),
        p95: nearest_rank(&harvested_lags, 95),
        p99: nearest_rank(&harvested_lags, 99),
        max: harvested_lags.last().copied().unwrap_or(0),
        ..FleetLag::default()
    };
    for (&a, &v) in &agent_visible {
        let stale = ticks.saturating_sub(v);
        if stale > lag.stalest_staleness {
            lag.stalest_staleness = stale;
            lag.stalest_agent = a;
        }
    }

    let mut ledger = srv.ledger();
    ledger_add(&mut ledger.retrans_duplicates_discarded, harvested_dups);
    for sim in &agents {
        ledger_add(&mut ledger.in_flight, sim.uploader.in_flight_samples());
    }

    let report = FleetReport {
        ledger,
        expected_generated,
        server_stats,
        net_stats: net.stats(),
        uploader_stats,
        agents: cfg.agents,
        epochs_sealed,
        tombstones,
        agent_crashes: agent_crash_count,
        server_crashes: server_crash_count,
        ticks,
        lag,
        root: cfg.root.clone(),
    };
    std::fs::write(cfg.root.join("fleet.json"), report.to_json())?;
    Ok(report)
}
