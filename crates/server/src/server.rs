//! The fleet ingestion server.
//!
//! One [`IngestServer`] accepts epoch uploads from many agents,
//! journals each accepted batch to the WAL *before* acknowledging it,
//! queues journaled batches in a bounded ingest queue (signaling
//! backpressure when it fills), and periodically merges queued batches
//! into the fleet-wide [`ProfileDb`] under `root/db`.
//!
//! Dedup protocol: each agent session records the highest journaled
//! sequence number. An upload is accepted only at `last_seq + 1`;
//! anything at or below `last_seq` is a retransmission (re-acked with
//! the duplicate bit, samples counted in
//! `retrans_duplicates_discarded`), and anything above is a gap nack.
//! Combined with the uploader's strict in-order sending, every sealed
//! epoch is merged exactly once, no matter how the network duplicates,
//! reorders, or how often either side crashes.
//!
//! Every merge ends by rotating the WAL down to one checkpoint record
//! (see [`crate::journal`]), so crash recovery ([`IngestServer::reopen`])
//! costs what is unmerged, not what was ever uploaded: state starts from
//! the checkpoint, the frames after it re-enter the ingest queue, and a
//! log that ends in a merge intent — a crash mid-merge — has exactly
//! that epoch rebuilt and checkpointed. Acked data therefore survives a
//! process crash at any point — the chaos suite's zero-acked-loss
//! criterion and `tests/crash_points.rs`, which visits every point.

use crate::journal::{self, AgentTotals, Checkpoint, Journal};
use dcpi_collect::daemon::{read_all_stacks, write_epoch_stacks};
use dcpi_collect::faults::{ledger_add, FleetLedger};
use dcpi_collect::wire::{decode_msg, encode_msg, EpochBatch, Msg};
use dcpi_core::codec::Format;
use dcpi_core::db::ProfileDb;
use dcpi_core::profile::{ProfileKey, ProfileSet};
use dcpi_core::{Event, ImageId, UNKNOWN_IMAGE};
use dcpi_obs::{span_id, Component, Obs, Published};
use dcpi_stacks::StackProfile;
use std::collections::{BTreeMap, VecDeque};
use std::io;
use std::path::PathBuf;

/// Ticks without hearing from an agent before its lease expires (crash
/// detection; the session state is kept for dedup).
const LEASE: u64 = 256;

/// Server tuning.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Directory holding `wal.log` and `db/`.
    pub root: PathBuf,
    /// Bounded ingest queue: uploads beyond this are nacked with the
    /// backpressure bit until a merge drains the queue.
    pub queue_cap: usize,
    /// Queue depth at which acks start carrying the backpressure bit.
    pub backpressure_at: usize,
    /// Merge the queue into the fleet database every this many ticks.
    pub merge_every: u64,
}

impl ServerConfig {
    /// Defaults rooted at `root`.
    #[must_use]
    pub fn new(root: impl Into<PathBuf>) -> ServerConfig {
        ServerConfig {
            root: root.into(),
            queue_cap: 64,
            backpressure_at: 48,
            merge_every: 64,
        }
    }

    /// The fleet database directory under the root.
    #[must_use]
    pub fn db_path(&self) -> PathBuf {
        self.root.join("db")
    }
}

/// Per-agent session state.
#[derive(Clone, Copy, Debug, Default)]
pub struct AgentSession {
    /// Latest incarnation seen.
    pub incarnation: u32,
    /// Capability bits from the latest registration (wire v1 agents
    /// advertise none). Zero until the agent registers — including
    /// after a server reopen, when everyone must re-register anyway.
    pub features: u64,
    /// What the journal holds for this agent — `last_seq` is the dedup
    /// high-water mark. The only part of a session that survives a
    /// reopen (through the checkpoint and the frames after it).
    pub journaled: AgentTotals,
    /// Last tick the agent was heard from.
    pub last_heard: u64,
    /// Duplicate uploads discarded.
    pub duplicates: u64,
    /// Times the agent re-registered with a new incarnation (crash
    /// recoveries observed).
    pub reincarnations: u64,
    /// False once the lease has expired without a heartbeat.
    pub live: bool,
}

/// Server-side counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Frames that failed to decode (network corruption).
    pub corrupt_frames: u64,
    /// Registrations processed.
    pub registrations: u64,
    /// Uploads journaled and acked.
    pub accepted: u64,
    /// Samples those uploads carried.
    pub journaled_samples: u64,
    /// Duplicate uploads discarded.
    pub deduped: u64,
    /// Uploads nacked for a sequence gap.
    pub gap_nacks: u64,
    /// Uploads nacked because the ingest queue was full.
    pub queue_full_nacks: u64,
    /// Acks carrying the backpressure bit.
    pub backpressure_acks: u64,
    /// Merges performed (each ends in a checkpoint).
    pub merges: u64,
    /// Batches those merges landed.
    pub merged_batches: u64,
    /// Batches re-queued from the WAL at reopen.
    pub replayed_batches: u64,
    /// Agent leases that expired.
    pub lease_expiries: u64,
    /// Uploads ignored for a stale incarnation.
    pub stale_incarnation: u64,
}

impl ServerStats {
    /// Adds another incarnation's counts (checked sums).
    pub fn merge(&mut self, other: &ServerStats) {
        ledger_add(&mut self.corrupt_frames, other.corrupt_frames);
        ledger_add(&mut self.registrations, other.registrations);
        ledger_add(&mut self.accepted, other.accepted);
        ledger_add(&mut self.journaled_samples, other.journaled_samples);
        ledger_add(&mut self.deduped, other.deduped);
        ledger_add(&mut self.gap_nacks, other.gap_nacks);
        ledger_add(&mut self.queue_full_nacks, other.queue_full_nacks);
        ledger_add(&mut self.backpressure_acks, other.backpressure_acks);
        ledger_add(&mut self.merges, other.merges);
        ledger_add(&mut self.merged_batches, other.merged_batches);
        ledger_add(&mut self.replayed_batches, other.replayed_batches);
        ledger_add(&mut self.lease_expiries, other.lease_expiries);
        ledger_add(&mut self.stale_incarnation, other.stale_incarnation);
    }

    /// What the server publishes: the epoch pipeline's counts, once any
    /// happened. Every merge writes one checkpoint, so both names read
    /// `merges`; `server.backpressure` is the uploads nacked for a full
    /// queue.
    pub const PUBLISHED: Published<ServerStats> = Published {
        incidents: &[
            ("server.registrations", |s| s.registrations),
            ("server.accepted", |s| s.accepted),
            ("server.journaled_samples", |s| s.journaled_samples),
            ("server.deduped", |s| s.deduped),
            ("server.backpressure", |s| s.queue_full_nacks),
            ("server.lease_expiries", |s| s.lease_expiries),
            ("server.merges", |s| s.merges),
            ("server.merged_batches", |s| s.merged_batches),
            ("server.checkpoints", |s| s.merges),
        ],
        ..Published::NONE
    };
}

/// A journaled, unmerged upload with its sample total, counted once
/// when the upload was accepted or replayed.
#[derive(Debug)]
struct Queued {
    agent: u32,
    seq: u64,
    samples: u64,
    batch: EpochBatch,
}

/// The fleet ingestion server.
#[derive(Debug)]
pub struct IngestServer {
    cfg: ServerConfig,
    wal: Journal,
    db: ProfileDb,
    sessions: BTreeMap<u32, AgentSession>,
    /// Journaled, unmerged batches in arrival order.
    queue: VecDeque<Queued>,
    /// Fleet ledger as the server knows it: `base` covers merged
    /// batches, `server_journal` the queue. `in_flight` is agent-side
    /// and stays zero here — the fleet harness fills it in.
    ledger: FleetLedger,
    /// Sample total of each merged epoch; its length is the next merge's
    /// target epoch.
    epoch_totals: Vec<u64>,
    next_merge: u64,
    /// Ingest lag (seal tick → fleet-db visibility tick) of every batch
    /// merged by this server incarnation, in merge order. The seal tick
    /// rides the wire frame ([`EpochBatch::seal_cycle`]) through the
    /// WAL, so replayed batches report their true lag including the
    /// outage. Deterministic, and the one tally of lag: the SLO
    /// percentiles in `fleet.json`, `experiments report` and the fleet
    /// export's lag histogram all come from here.
    lags: Vec<u64>,
    /// Last tick each agent had a batch become visible (freshness SLO).
    agent_visible: BTreeMap<u32, u64>,
    /// Counters.
    pub stats: ServerStats,
    obs: Obs,
    /// Deferred `server.replay` event `(at, replayed_batches)` from a
    /// reopen that ran before any obs handle existed.
    replay_note: Option<(u64, u64)>,
}

impl IngestServer {
    /// Creates a server rooted at `cfg.root` — an empty WAL and an empty
    /// fleet database. Recovery is the normal path: this is
    /// [`IngestServer::reopen`] of a root with nothing in it.
    ///
    /// # Errors
    ///
    /// Returns an I/O error if the root cannot be created.
    pub fn create(cfg: ServerConfig) -> io::Result<IngestServer> {
        std::fs::create_dir_all(&cfg.root)?;
        let mut server = IngestServer::reopen(cfg, 0)?;
        server.replay_note = None;
        Ok(server)
    }

    /// Reopens a server after a crash from one scan of the WAL: state
    /// starts from the checkpoint at its head (or empty), the frames after
    /// it rebuild the sessions and re-enter the ingest queue, and a torn
    /// tail is truncated. A log ending in a merge intent is a crash
    /// mid-merge: that epoch is swept, rebuilt from the queue and
    /// checkpointed. Nothing that was acked is lost, and a root that was
    /// shut down cleanly is not written to.
    ///
    /// # Errors
    ///
    /// Returns `InvalidData` — before touching the root — if the log is
    /// not one this build writes (see [`journal::WalScan::tail`]), a
    /// journaled frame is not the next upload of its agent, the intent
    /// does not name exactly the queued batches, or the database's newest
    /// epoch is not the one the log says was merged last (which is also
    /// what a damaged log head looks like). Returns other I/O errors if
    /// the WAL or database cannot be read.
    pub fn reopen(cfg: ServerConfig, now: u64) -> io::Result<IngestServer> {
        let scan = journal::scan(&cfg.root.join(journal::WAL_FILE))?;
        let tail = scan.tail()?;
        let ckpt = tail.checkpoint.cloned().unwrap_or_default();
        let mut sessions: BTreeMap<u32, AgentSession> = BTreeMap::new();
        for (&agent, &journaled) in &ckpt.agents {
            // `live` stays false: everyone must re-register or heartbeat.
            let session = AgentSession {
                journaled,
                ..AgentSession::default()
            };
            sessions.insert(agent, session);
        }
        let mut ledger = FleetLedger {
            base: ckpt.ledger,
            fleet_merged: ckpt.fleet_merged,
            ..FleetLedger::default()
        };
        let mut queue = VecDeque::with_capacity(tail.frames.len());
        for frame in &tail.frames {
            let (agent, seq, batch) = journal::decode_upload(frame).map_err(invalid)?;
            let s = sessions.entry(agent).or_default();
            if seq != s.journaled.last_seq + 1 {
                return Err(invalid(format!(
                    "agent {agent}: journaled seq {seq} follows seq {}",
                    s.journaled.last_seq
                )));
            }
            let samples = batch.sample_total();
            s.journaled.add(seq, samples, &batch.ledger);
            ledger_add(&mut ledger.server_journal, samples);
            queue.push_back(Queued {
                agent,
                seq,
                samples,
                batch,
            });
        }
        let merged = ckpt.epochs_merged();
        if let Some((epoch, entries)) = tail.intent {
            if epoch != merged || entries != queued_keys(&queue) {
                return Err(invalid(format!(
                    "merge intent for epoch {epoch} naming {} batch(es) follows {merged} \
                     merged epoch(s) and {} journaled batch(es)",
                    entries.len(),
                    queue.len()
                )));
            }
        }
        let db = open_db(&cfg, merged, tail.intent.is_some())?;
        let mut server = IngestServer {
            wal: Journal::resume(&cfg.root, &scan)?,
            db,
            sessions,
            ledger,
            epoch_totals: ckpt.epoch_totals,
            next_merge: now + cfg.merge_every,
            lags: Vec::new(),
            agent_visible: BTreeMap::new(),
            stats: ServerStats {
                replayed_batches: queue.len() as u64,
                ..ServerStats::default()
            },
            queue,
            obs: Obs::default(),
            replay_note: None,
            cfg,
        };
        if tail.intent.is_some() {
            server.land_merge(now)?;
        }
        server.replay_note = Some((now, server.stats.replayed_batches));
        Ok(server)
    }

    /// Attaches an observability handle. If this server was reopened
    /// from a WAL, the replay event is emitted here — the handle does
    /// not exist yet while [`IngestServer::reopen`] runs.
    pub fn attach_obs(&mut self, obs: &Obs) {
        self.obs = obs.clone();
        if let Some((at, replayed)) = self.replay_note.take() {
            self.obs.event_at(
                Component::Server,
                "server.replay",
                at,
                replayed,
                self.epoch_totals.len() as u64,
            );
        }
    }

    /// The configuration in force.
    #[must_use]
    pub fn config(&self) -> &ServerConfig {
        &self.cfg
    }

    /// The fleet database.
    #[must_use]
    pub fn db(&self) -> &ProfileDb {
        &self.db
    }

    /// Fleet-wide calling-context profile merged so far, folded from the
    /// epoch sidecars on each call — the server keeps no copy, so neither
    /// its memory nor its recovery grows with the history. Populated by
    /// agents advertising [`dcpi_collect::wire::FEATURE_STACKS`];
    /// stack-less agents still ingest normally and simply add nothing
    /// here (sample accounting stays with the flat profiles and the
    /// ledger). Queued batches contribute at their merge.
    #[must_use]
    pub fn stack_profile(&self) -> StackProfile {
        read_all_stacks(&self.db).unwrap_or_default()
    }

    /// Per-agent sessions (keyed by agent id).
    #[must_use]
    pub fn sessions(&self) -> &BTreeMap<u32, AgentSession> {
        &self.sessions
    }

    /// Journaled-but-unmerged batches currently queued.
    #[must_use]
    pub fn queue_depth(&self) -> usize {
        self.queue.len()
    }

    /// The server's view of the fleet ledger (`in_flight` is always
    /// zero here; the harness adds agent-side spool totals).
    #[must_use]
    pub fn ledger(&self) -> FleetLedger {
        self.ledger
    }

    /// Largest number of one agent's journaled batches still waiting to
    /// merge: a backlog count in batches, not a time (published as
    /// `server.agent_lag_max`; ingest lag in ticks is `FleetLag`'s).
    #[must_use]
    pub fn max_agent_lag(&self) -> u64 {
        let mut lag: BTreeMap<u32, u64> = BTreeMap::new();
        for q in &self.queue {
            *lag.entry(q.agent).or_default() += 1;
        }
        lag.values().copied().max().unwrap_or(0)
    }

    /// Ingest lags (seal tick → visibility tick) of every batch merged
    /// by this server incarnation, in merge order.
    #[must_use]
    pub fn ingest_lags(&self) -> &[u64] {
        &self.lags
    }

    /// Last tick each agent had a batch become visible in the fleet
    /// database (the freshness side of the SLO).
    #[must_use]
    pub fn agent_visibility(&self) -> &BTreeMap<u32, u64> {
        &self.agent_visible
    }

    /// WAL bytes on disk (tracked by the journal handle).
    #[must_use]
    pub fn wal_bytes(&self) -> u64 {
        self.wal.bytes()
    }

    /// The server's levels at the moment of reading: agents whose lease
    /// is live, the ingest queue, the largest per-agent backlog and the
    /// WAL.
    pub const PUBLISHED: Published<IngestServer> = Published {
        gauges: &[
            ("server.agents", |s| {
                s.sessions.values().filter(|a| a.live).count() as u64
            }),
            ("server.queue_depth", |s| s.queue_depth() as u64),
            ("server.agent_lag_max", IngestServer::max_agent_lag),
            ("server.wal_bytes", IngestServer::wal_bytes),
        ],
        ..Published::NONE
    };

    fn backpressure(&self) -> bool {
        self.queue.len() >= self.cfg.backpressure_at
    }

    /// Handles one frame as delivered by the network, returning reply
    /// frames to send back. Corrupt frames are dropped (the sender's
    /// timeout handles it).
    pub fn on_frame(&mut self, now: u64, frame: &[u8]) -> Vec<Vec<u8>> {
        let Ok(msg) = decode_msg(frame) else {
            self.stats.corrupt_frames += 1;
            return Vec::new();
        };
        match msg {
            Msg::Register {
                agent,
                incarnation,
                features,
            } => {
                self.stats.registrations += 1;
                let s = self.sessions.entry(agent).or_default();
                if incarnation > s.incarnation && s.incarnation > 0 {
                    s.reincarnations += 1;
                }
                s.incarnation = s.incarnation.max(incarnation);
                s.features = features;
                s.last_heard = now;
                s.live = true;
                let last_seq = s.journaled.last_seq;
                self.obs.event_at(
                    Component::Server,
                    "server.register",
                    now,
                    agent.into(),
                    incarnation.into(),
                );
                vec![encode_msg(&Msg::RegisterAck { agent, last_seq })]
            }
            Msg::Heartbeat { agent, incarnation } => {
                let s = self.sessions.entry(agent).or_default();
                s.incarnation = s.incarnation.max(incarnation);
                s.last_heard = now;
                s.live = true;
                let backpressure = self.backpressure();
                vec![encode_msg(&Msg::HeartbeatAck {
                    agent,
                    backpressure,
                })]
            }
            Msg::Upload {
                agent,
                incarnation,
                seq,
                batch,
            } => self.on_upload(now, frame, agent, incarnation, seq, batch),
            // Server-to-agent messages arriving here are misrouted.
            Msg::RegisterAck { .. }
            | Msg::Ack { .. }
            | Msg::Nack { .. }
            | Msg::HeartbeatAck { .. } => {
                self.stats.corrupt_frames += 1;
                Vec::new()
            }
        }
    }

    fn on_upload(
        &mut self,
        now: u64,
        frame: &[u8],
        agent: u32,
        incarnation: u32,
        seq: u64,
        batch: EpochBatch,
    ) -> Vec<Vec<u8>> {
        let s = self.sessions.entry(agent).or_default();
        if incarnation < s.incarnation {
            // A frame from a dead incarnation still rattling around the
            // network. Its content is dedup-safe, but answering it
            // could confuse the live incarnation — drop it.
            self.stats.stale_incarnation += 1;
            return Vec::new();
        }
        s.incarnation = incarnation;
        s.last_heard = now;
        s.live = true;
        if seq <= s.journaled.last_seq {
            // Retransmission of something already journaled: the ack
            // was lost. Re-ack; never re-journal.
            s.duplicates += 1;
            self.stats.deduped += 1;
            ledger_add(
                &mut self.ledger.retrans_duplicates_discarded,
                batch.sample_total(),
            );
            let backpressure = self.backpressure();
            if backpressure {
                self.stats.backpressure_acks += 1;
            }
            return vec![encode_msg(&Msg::Ack {
                agent,
                seq,
                duplicate: true,
                backpressure,
            })];
        }
        if seq > s.journaled.last_seq + 1 {
            // A gap: an earlier epoch is missing (lost upload still
            // retrying, or reordering got ahead). Refuse so the agent
            // resends in order.
            let expected = s.journaled.last_seq + 1;
            self.stats.gap_nacks += 1;
            return vec![encode_msg(&Msg::Nack {
                agent,
                seq,
                expected,
                backpressure: false,
            })];
        }
        if self.queue.len() >= self.cfg.queue_cap {
            // Bounded ingest queue is full: shed load, tell the agent
            // to widen its interval and retry this same seq later.
            self.stats.queue_full_nacks += 1;
            return vec![encode_msg(&Msg::Nack {
                agent,
                seq,
                expected: seq,
                backpressure: true,
            })];
        }
        // Journal first — the ack below is a durability promise.
        if let Err(e) = self.wal.append_frame(frame) {
            // Treat an unjournalable upload as if it never arrived; the
            // agent's timeout will retry.
            self.stats.corrupt_frames += 1;
            debug_assert!(false, "WAL append failed: {e}");
            return Vec::new();
        }
        let (samples, seal_cycle) = (batch.sample_total(), batch.seal_cycle);
        s.journaled.add(seq, samples, &batch.ledger);
        ledger_add(&mut self.ledger.server_journal, samples);
        self.queue.push_back(Queued {
            agent,
            seq,
            samples,
            batch,
        });
        self.stats.accepted += 1;
        ledger_add(&mut self.stats.journaled_samples, samples);
        let backpressure = self.backpressure();
        if backpressure {
            self.stats.backpressure_acks += 1;
        }
        // Journal + ack happen in the same tick, so one event marks both
        // stages of the epoch's span chain. `b` is the lag so far,
        // computed from the wire-carried seal tick — the trace audit
        // cross-checks it against the agent-side seal event.
        self.obs.event_at(
            Component::Server,
            "server.ack",
            now,
            span_id(agent, seq),
            now.saturating_sub(seal_cycle),
        );
        vec![encode_msg(&Msg::Ack {
            agent,
            seq,
            duplicate: false,
            backpressure,
        })]
    }

    /// Periodic work: lease expiry detection and the scheduled merge.
    ///
    /// # Errors
    ///
    /// Returns an I/O error if a merge fails.
    pub fn tick(&mut self, now: u64) -> io::Result<()> {
        for (agent, s) in &mut self.sessions {
            if s.live && now.saturating_sub(s.last_heard) > LEASE {
                s.live = false;
                self.stats.lease_expiries += 1;
                self.obs.event_at(
                    Component::Server,
                    "server.lease_expired",
                    now,
                    (*agent).into(),
                    0,
                );
            }
        }
        if now >= self.next_merge {
            self.next_merge = now + self.cfg.merge_every.max(1);
            if !self.queue.is_empty() {
                self.merge_queue(now)?;
            }
        }
        Ok(())
    }

    /// Merges everything queued into the fleet database, journaling the
    /// merge intent first and rotating the WAL down to a checkpoint once
    /// the merge has landed. Called by [`IngestServer::tick`] on schedule
    /// and by [`IngestServer::finish`] at quiesce.
    ///
    /// # Errors
    ///
    /// Returns an I/O error if the WAL or database write fails.
    pub fn merge_queue(&mut self, now: u64) -> io::Result<()> {
        if self.queue.is_empty() {
            return Ok(());
        }
        self.obs.begin(Component::Server, "server.merge");
        let epoch = self.epoch_totals.len() as u32;
        self.wal.append_intent(epoch, &queued_keys(&self.queue))?;
        self.land_merge(now)
    }

    /// The merge proper, shared by live ingest and crash replay: drains
    /// the queue into the next epoch, moves the samples from the journal
    /// bucket to the merged ones, and — the queue being empty and every
    /// file of the epoch durable — replaces the log with one checkpoint.
    fn land_merge(&mut self, now: u64) -> io::Result<()> {
        let group: Vec<Queued> = self.queue.drain(..).collect();
        let epoch = self.epoch_totals.len() as u32;
        let batches: Vec<&EpochBatch> = group.iter().map(|q| &q.batch).collect();
        apply_merge_group(&mut self.db, epoch, &batches)?;
        let mut epoch_total = 0;
        for q in &group {
            let total = q.samples;
            let j = &mut self.ledger.server_journal;
            debug_assert!(*j >= total, "journal bucket underflow");
            *j = j.saturating_sub(total);
            self.ledger.base.merge(&q.batch.ledger);
            ledger_add(&mut self.ledger.fleet_merged, total);
            ledger_add(&mut epoch_total, total);
            // The batch is now visible in the fleet database: close its
            // span and record seal→visible as this epoch's ingest lag.
            let lag = now.saturating_sub(q.batch.seal_cycle);
            self.lags.push(lag);
            self.agent_visible.insert(q.agent, now);
            self.obs.event_at(
                Component::Server,
                "server.visible",
                now,
                span_id(q.agent, q.seq),
                lag,
            );
        }
        self.epoch_totals.push(epoch_total);
        self.stats.merges += 1;
        ledger_add(&mut self.stats.merged_batches, group.len() as u64);
        let wal_bytes_dropped = self.wal.rotate(&self.checkpoint())?;
        self.obs.event_at(
            Component::Server,
            "server.checkpoint",
            now,
            epoch.into(),
            wal_bytes_dropped,
        );
        self.obs
            .end(Component::Server, "server.merge", now, group.len() as u64);
        Ok(())
    }

    /// The settled state a landed merge leaves: only what the merged
    /// uploads determine, so every crash history writes the same record.
    fn checkpoint(&self) -> Checkpoint {
        debug_assert!(self.queue.is_empty(), "checkpoint with unmerged batches");
        Checkpoint {
            epoch_totals: self.epoch_totals.clone(),
            agents: self
                .sessions
                .iter()
                .filter(|(_, s)| s.journaled.uploads > 0)
                .map(|(&agent, s)| (agent, s.journaled))
                .collect(),
            ledger: self.ledger.base,
            fleet_merged: self.ledger.fleet_merged,
        }
    }

    /// Quiesce: merges anything still queued. After this, `ledger()`
    /// has `server_journal == 0` and the database holds every acked
    /// sample.
    ///
    /// # Errors
    ///
    /// Returns an I/O error if the final merge fails.
    pub fn finish(&mut self, now: u64) -> io::Result<()> {
        self.merge_queue(now)
    }
}

/// Applies one merge group to the fleet database: opens `epoch`, sums
/// each `(image, event)` key's uploaded profiles once ([`ProfileSet::sum`])
/// and merges the sums into it, writes the epoch's calling-context
/// sidecar (the group's sections summed once, [`StackProfile::sum`]) and
/// records first-seen image names. Live ingest and WAL
/// replay both land here, so one merge intent always produces the same
/// bytes. Stack-less (v1) agents contribute empty sections and cost
/// nothing.
fn apply_merge_group(db: &mut ProfileDb, epoch: u32, batches: &[&EpochBatch]) -> io::Result<()> {
    // Epoch 0 exists from create; later merges open a new one.
    while db.current_epoch().0 < epoch {
        db.new_epoch().map_err(db_err)?;
    }
    let parts = batches.iter().flat_map(|b| &b.profiles);
    let set = ProfileSet::sum(parts.map(|(image, event, profile)| {
        let key = ProfileKey {
            image: *image,
            event: *event,
        };
        (key, profile)
    }));
    let sections: Vec<&StackProfile> = batches.iter().map(|b| &b.stacks).collect();
    let stacks = StackProfile::sum(&sections);
    db.merge(&set).map_err(db_err)?;
    if !stacks.is_empty() {
        write_epoch_stacks(db, db.current_epoch(), &stacks).map_err(db_err)?;
    }
    let names = batches.iter().flat_map(|b| &b.image_names);
    db.record_image_names(names.map(|(image, name)| (*image, name.as_str())))
        .map_err(db_err)
}

/// `(agent, seq)` of every queued batch, sorted: what a merge intent
/// for the queue names.
fn queued_keys(queue: &VecDeque<Queued>) -> Vec<(u32, u64)> {
    let mut keys: Vec<(u32, u64)> = queue.iter().map(|q| (q.agent, q.seq)).collect();
    keys.sort_unstable();
    keys
}

/// Opens the fleet database of a root whose log records `merged` landed
/// merges. With `reset_epoch` (the log ends in an intent) whatever partial
/// state a crash left in epoch `merged` is deleted, so the rebuild is
/// from scratch and the same WAL always produces the same bytes.
///
/// Fails with `InvalidData`, deleting nothing, if the database's newest
/// epoch is not the one the log implies: merging on would
/// read-modify-write into settled data.
fn open_db(cfg: &ServerConfig, merged: u32, reset_epoch: bool) -> io::Result<ProfileDb> {
    // No epoch yet is a crash before the first merge, or epoch 0 reset.
    let open = || ProfileDb::open_or_create(cfg.db_path(), Format::V2).map_err(db_err);
    let mut db = open()?;
    if reset_epoch && db.current_epoch().0 == merged {
        // The interrupted merge got as far as creating its epoch.
        std::fs::remove_dir_all(db.epoch_path(db.current_epoch()))?;
        db = open()?;
    }
    match epochs_disagree(&db, merged) {
        Some(why) => Err(invalid(why)),
        None => Ok(db),
    }
}

/// Checks the database's newest epoch against the `merged` landed merges
/// a WAL records: `epoch_{merged-1}`, or an empty `epoch_0000` when
/// nothing has merged. Returns what is wrong, naming expected and actual.
#[must_use]
pub fn epochs_disagree(db: &ProfileDb, merged: u32) -> Option<String> {
    let newest = db.current_epoch();
    let (settled, expected) = match merged.checked_sub(1) {
        Some(last) => (newest.0 == last, format!("epoch {last}")),
        None => {
            let listed = dcpi_core::db::list(&db.epoch_path(newest));
            let empty = listed.map_or(true, |d| d.is_empty());
            (newest.0 == 0 && empty, "an empty epoch 0".to_owned())
        }
    };
    (!settled).then(|| {
        format!(
            "the WAL records {merged} merged epoch(s) but the database's newest is \
             epoch {} (expected {expected}); the log is damaged or not this database's",
            newest.0
        )
    })
}

fn invalid(why: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, why)
}

fn db_err(e: dcpi_core::Error) -> io::Error {
    io::Error::other(format!("fleet db: {e}"))
}

/// `(image, samples)` sorted by image id, the grand total, and the part
/// of it attributed to no image.
pub type ImageTotals = (Vec<(ImageId, u64)>, u64, u64);

/// Totals per image in an open fleet database. Shared by the query tool
/// and the audits. Every profile file is opened once and only its total
/// kept; no merged profile is built.
///
/// # Errors
///
/// All or nothing: a database that cannot be read through yields the
/// error, never the totals of the part that could.
pub fn image_totals(db: &ProfileDb) -> dcpi_core::Result<ImageTotals> {
    let mut by_image: BTreeMap<ImageId, u64> = BTreeMap::new();
    db.scan(
        db.epochs()?,
        |_| true,
        |_, key, profile| *by_image.entry(key.image).or_default() += profile.total(),
    )?;
    let total = by_image.values().sum();
    let unknown = by_image.get(&UNKNOWN_IMAGE).copied().unwrap_or(0);
    Ok((by_image.into_iter().collect(), total, unknown))
}

/// Per-event totals for one image across the whole fleet database,
/// opening only the files named for `image`.
///
/// # Errors
///
/// All or nothing, as [`image_totals`].
pub fn image_event_totals(db: &ProfileDb, image: ImageId) -> dcpi_core::Result<Vec<(Event, u64)>> {
    let mut by_event: BTreeMap<Event, u64> = BTreeMap::new();
    db.scan(
        db.epochs()?,
        |key| key.image == image,
        |_, key, profile| *by_event.entry(key.event).or_default() += profile.total(),
    )?;
    Ok(by_event.into_iter().collect())
}
