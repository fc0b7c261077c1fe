//! The agent-side epoch uploader.
//!
//! A deterministic, tick-driven state machine that pushes sealed
//! [`EpochBatch`]es to the fleet server over an unreliable transport.
//! It owns no I/O: [`Uploader::tick`] returns the frames to transmit
//! now and [`Uploader::on_frame`] consumes whatever the network
//! delivered, so the same state machine runs under the simulated
//! fleet transport and under unit tests that hand-feed it frames.
//!
//! Reliability rules:
//!
//! * Epochs are sealed into a durable spool with a per-agent monotonic
//!   sequence number assigned at seal time ([`Uploader::push_epoch`]).
//!   The spool and the sequence counter survive agent crashes — only
//!   the open (unsealed) epoch dies with the process.
//! * One upload is outstanding at a time, strictly in sequence order.
//!   A lost frame or lost ack times out and retransmits with capped
//!   exponential backoff plus seeded jitter (herd-safe, reproducible).
//! * After a crash the agent re-registers with a bumped incarnation;
//!   the server replies with the highest sequence it has journaled and
//!   the agent discards spooled epochs at or below it — the
//!   acked-but-ack-lost window is resolved by the server's answer, not
//!   by guessing.
//! * A backpressure bit on any ack widens the upload gap
//!   multiplicatively (mirroring the driver-level
//!   [`crate::faults::Backpressure`]); clean acks narrow it again.

use crate::faults::ledger_add;
use crate::wire::{decode_msg, encode_msg, EpochBatch, Msg};
use dcpi_core::prng::CartaRng;
use dcpi_obs::{span_id, Component, Obs, Published};
use std::collections::VecDeque;

/// Tuning for one uploader.
#[derive(Clone, Copy, Debug)]
pub struct UploaderConfig {
    /// Ticks to wait for an ack before the first retransmission.
    pub ack_timeout: u64,
    /// First backoff step, doubled per attempt.
    pub backoff_base: u64,
    /// Upper bound on the backoff step.
    pub backoff_cap: u64,
    /// Seeded extra delay in `[0, jitter]` added per backoff.
    pub jitter: u64,
    /// Send a heartbeat after this many idle ticks.
    pub heartbeat_every: u64,
    /// Base minimum gap between successive uploads.
    pub upload_gap: u64,
    /// Gap multiplier applied per backpressure signal.
    pub backpressure_factor: u64,
    /// Upper bound on the widened gap.
    pub backpressure_cap: u64,
}

impl Default for UploaderConfig {
    fn default() -> UploaderConfig {
        UploaderConfig {
            ack_timeout: 16,
            backoff_base: 4,
            backoff_cap: 256,
            jitter: 3,
            heartbeat_every: 64,
            upload_gap: 1,
            backpressure_factor: 2,
            backpressure_cap: 128,
        }
    }
}

/// Counters for one uploader's lifetime (across crashes).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct UploaderStats {
    /// Epochs sealed into the spool.
    pub sealed: u64,
    /// First transmissions of an upload.
    pub uploads_sent: u64,
    /// Retransmissions after a timeout.
    pub retransmits: u64,
    /// Clean acks received.
    pub acks: u64,
    /// Duplicate acks (the server had it already).
    pub dup_acks: u64,
    /// Nacks received.
    pub nacks: u64,
    /// Ack timeouts that fired.
    pub timeouts: u64,
    /// Backpressure signals honored.
    pub backpressure_signals: u64,
    /// Heartbeats sent.
    pub heartbeats: u64,
    /// Spooled epochs discarded because the server had already
    /// journaled them (ack lost before an agent crash).
    pub spool_acked_dropped: u64,
    /// Frames ignored: corrupt, stale, or addressed elsewhere.
    pub ignored_frames: u64,
}

impl UploaderStats {
    /// Merges another uploader's counters (checked sums — fleet totals
    /// aggregate hundreds of agents).
    pub fn merge(&mut self, other: &UploaderStats) {
        use crate::faults::ledger_add;
        ledger_add(&mut self.sealed, other.sealed);
        ledger_add(&mut self.uploads_sent, other.uploads_sent);
        ledger_add(&mut self.retransmits, other.retransmits);
        ledger_add(&mut self.acks, other.acks);
        ledger_add(&mut self.dup_acks, other.dup_acks);
        ledger_add(&mut self.nacks, other.nacks);
        ledger_add(&mut self.timeouts, other.timeouts);
        ledger_add(&mut self.backpressure_signals, other.backpressure_signals);
        ledger_add(&mut self.heartbeats, other.heartbeats);
        ledger_add(&mut self.spool_acked_dropped, other.spool_acked_dropped);
        ledger_add(&mut self.ignored_frames, other.ignored_frames);
    }

    /// What an uploader publishes: upload traffic and the backpressure
    /// it honored, once any happened.
    pub const PUBLISHED: Published<UploaderStats> = Published {
        incidents: &[
            ("uploader.sent", |s| s.uploads_sent),
            ("uploader.retransmits", |s| s.retransmits),
            ("uploader.acked", |s| s.acks + s.dup_acks),
            ("uploader.backpressure", |s| s.backpressure_signals),
        ],
        ..Published::NONE
    };
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum State {
    /// Not registered (fresh start or post-crash).
    Unregistered,
    /// Register sent; retransmit at `next_retry`.
    Registering { next_retry: u64, attempt: u32 },
    /// Registered, nothing outstanding.
    Idle,
    /// Upload `seq` sent; retransmit at `next_retry`.
    AwaitAck {
        seq: u64,
        next_retry: u64,
        attempt: u32,
    },
}

/// The agent-side upload state machine.
#[derive(Debug)]
pub struct Uploader {
    agent: u32,
    incarnation: u32,
    /// Capability bits advertised on every (re-)registration.
    features: u64,
    cfg: UploaderConfig,
    rng: CartaRng,
    state: State,
    /// Sealed epochs awaiting ack, in sequence order (durable spool).
    spool: VecDeque<(u64, EpochBatch)>,
    /// Next sequence number to assign at seal time (durable).
    next_seq: u64,
    /// Current (possibly widened) gap between uploads.
    gap: u64,
    last_send: u64,
    last_activity: u64,
    /// Lifetime counters.
    pub stats: UploaderStats,
    obs: Obs,
}

impl Uploader {
    /// Builds an uploader for `agent`. The seed drives only backoff
    /// jitter; two uploaders with the same seed and the same delivered
    /// frames behave identically.
    #[must_use]
    pub fn new(agent: u32, seed: u32, cfg: UploaderConfig) -> Uploader {
        Uploader {
            agent,
            incarnation: 1,
            features: crate::wire::FEATURE_STACKS,
            cfg,
            rng: CartaRng::new(seed.max(1)),
            state: State::Unregistered,
            spool: VecDeque::new(),
            next_seq: 1,
            gap: cfg.upload_gap,
            last_send: 0,
            last_activity: 0,
            stats: UploaderStats::default(),
            obs: Obs::default(),
        }
    }

    /// Attaches an observability handle.
    pub fn attach_obs(&mut self, obs: &Obs) {
        self.obs = obs.clone();
    }

    /// Overrides the capability bits advertised at registration
    /// (defaults to [`crate::wire::FEATURE_STACKS`]; a legacy stack-less
    /// agent sets `0` and its registers encode exactly as version 1).
    pub fn set_features(&mut self, features: u64) {
        self.features = features;
    }

    /// This agent's id.
    #[must_use]
    pub fn agent(&self) -> u32 {
        self.agent
    }

    /// Current incarnation (bumps on every crash).
    #[must_use]
    pub fn incarnation(&self) -> u32 {
        self.incarnation
    }

    /// Sequence number the next sealed epoch will get.
    #[must_use]
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Sealed epochs not yet acked.
    #[must_use]
    pub fn spooled(&self) -> usize {
        self.spool.len()
    }

    /// Samples sealed in the spool but not yet acked (the agent's
    /// contribution to the fleet ledger's `in_flight` bucket).
    #[must_use]
    pub fn in_flight_samples(&self) -> u64 {
        let mut total = 0;
        for (_, b) in &self.spool {
            ledger_add(&mut total, b.sample_total());
        }
        total
    }

    /// True when there is nothing left to push or wait for.
    #[must_use]
    pub fn idle(&self) -> bool {
        self.spool.is_empty() && matches!(self.state, State::Idle)
    }

    /// Current upload gap (widened under backpressure).
    #[must_use]
    pub fn current_gap(&self) -> u64 {
        self.gap
    }

    /// Seals one epoch into the durable spool, assigning its sequence
    /// number. Returns the assigned sequence.
    pub fn push_epoch(&mut self, batch: EpochBatch) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.stats.sealed += 1;
        if self.obs.is_enabled() {
            // Span origin: the epoch enters the pipeline here. Every
            // later stage stamps the same packed span id in `a`, so the
            // chain (seal → send → retry* → ack, journal → visible on
            // the server side) is recoverable from the rings alone.
            self.obs.event_at(
                Component::Session,
                "epoch.seal",
                batch.seal_cycle,
                span_id(self.agent, seq),
                batch.sample_total(),
            );
        }
        self.spool.push_back((seq, batch));
        seq
    }

    /// Destroys the profile payload of one spooled epoch (modeling a
    /// corrupt spool file found at upload time). The tombstone keeps
    /// its sequence number and still uploads, but its samples move
    /// from `attributed`/`unknown` to `quarantined` in the carried
    /// ledger delta — conservation survives spool rot. Returns the
    /// quarantined sample count (0 if the spool is empty).
    pub fn quarantine_spooled(&mut self, pick: u32) -> u64 {
        if self.spool.is_empty() {
            return 0;
        }
        let idx = pick as usize % self.spool.len();
        let (_, batch) = &mut self.spool[idx];
        let total = batch.sample_total();
        let unknown = batch.unknown_total();
        batch.profiles.clear();
        batch.ledger.attributed -= total - unknown;
        batch.ledger.unknown -= unknown;
        ledger_add(&mut batch.ledger.quarantined, total);
        total
    }

    /// Simulates an agent crash: the process dies and restarts. The
    /// spool and sequence counter are durable; registration state and
    /// any in-flight upload are not. The open epoch (not yet pushed)
    /// is the caller's loss to account.
    pub fn crash(&mut self) {
        self.incarnation += 1;
        self.state = State::Unregistered;
        self.gap = self.cfg.upload_gap;
    }

    /// Ticks to wait for an ack before retransmission number `attempt`
    /// fires (0 = first transmission): the bare timeout, then timeout
    /// plus a capped exponential step with seeded jitter. Drawn once
    /// per transmission, so the schedule is a pure function of the
    /// seed and the retry count.
    fn wait_for(&mut self, attempt: u32) -> u64 {
        if attempt == 0 {
            return self.cfg.ack_timeout;
        }
        let step = self
            .cfg
            .backoff_base
            .checked_shl(attempt - 1)
            .unwrap_or(u64::MAX)
            .min(self.cfg.backoff_cap);
        let jitter = if self.cfg.jitter > 0 {
            self.rng.uniform(0, self.cfg.jitter)
        } else {
            0
        };
        self.cfg.ack_timeout + step + jitter
    }

    fn widen_gap(&mut self) {
        self.stats.backpressure_signals += 1;
        self.gap = (self.gap.max(1) * self.cfg.backpressure_factor.max(2))
            .min(self.cfg.backpressure_cap.max(1));
    }

    fn narrow_gap(&mut self) {
        self.gap = (self.gap / self.cfg.backpressure_factor.max(2)).max(self.cfg.upload_gap);
    }

    /// Advances the state machine to `now`, returning the frames to
    /// transmit (at most one protocol frame per tick).
    pub fn tick(&mut self, now: u64) -> Vec<Vec<u8>> {
        match self.state {
            State::Unregistered => {
                let wait = self.wait_for(0);
                self.state = State::Registering {
                    next_retry: now + wait,
                    attempt: 1,
                };
                self.last_send = now;
                vec![encode_msg(&Msg::Register {
                    agent: self.agent,
                    incarnation: self.incarnation,
                    features: self.features,
                })]
            }
            State::Registering {
                next_retry,
                attempt,
            } => {
                if now >= next_retry {
                    self.stats.timeouts += 1;
                    let wait = self.wait_for(attempt);
                    self.state = State::Registering {
                        next_retry: now + wait,
                        attempt: attempt + 1,
                    };
                    vec![encode_msg(&Msg::Register {
                        agent: self.agent,
                        incarnation: self.incarnation,
                        features: self.features,
                    })]
                } else {
                    Vec::new()
                }
            }
            State::Idle => {
                if !self.spool.is_empty() && now.saturating_sub(self.last_send) >= self.gap {
                    let (seq, batch) = self.spool.front().cloned().expect("spool non-empty");
                    self.stats.uploads_sent += 1;
                    let wait = self.wait_for(0);
                    self.state = State::AwaitAck {
                        seq,
                        next_retry: now + wait,
                        attempt: 1,
                    };
                    self.last_send = now;
                    self.obs.event_at(
                        Component::Session,
                        "upload.send",
                        now,
                        span_id(self.agent, seq),
                        0,
                    );
                    vec![encode_msg(&Msg::Upload {
                        agent: self.agent,
                        incarnation: self.incarnation,
                        seq,
                        batch,
                    })]
                } else if now.saturating_sub(self.last_activity.max(self.last_send))
                    >= self.cfg.heartbeat_every
                {
                    self.stats.heartbeats += 1;
                    self.last_send = now;
                    vec![encode_msg(&Msg::Heartbeat {
                        agent: self.agent,
                        incarnation: self.incarnation,
                    })]
                } else {
                    Vec::new()
                }
            }
            State::AwaitAck {
                seq,
                next_retry,
                attempt,
            } => {
                if now >= next_retry {
                    self.stats.timeouts += 1;
                    self.stats.retransmits += 1;
                    let wait = self.wait_for(attempt);
                    self.state = State::AwaitAck {
                        seq,
                        next_retry: now + wait,
                        attempt: attempt + 1,
                    };
                    self.last_send = now;
                    let (_, batch) = self.spool.front().cloned().expect("awaiting spool head");
                    self.obs.event_at(
                        Component::Session,
                        "upload.retry",
                        now,
                        span_id(self.agent, seq),
                        u64::from(attempt),
                    );
                    vec![encode_msg(&Msg::Upload {
                        agent: self.agent,
                        incarnation: self.incarnation,
                        seq,
                        batch,
                    })]
                } else {
                    Vec::new()
                }
            }
        }
    }

    /// Consumes one delivered frame. Corrupt frames, frames for other
    /// agents, and stale frames are counted and ignored — the network
    /// is allowed to be hostile.
    pub fn on_frame(&mut self, now: u64, frame: &[u8]) {
        let Ok(msg) = decode_msg(frame) else {
            self.stats.ignored_frames += 1;
            return;
        };
        if msg.agent() != self.agent {
            self.stats.ignored_frames += 1;
            return;
        }
        self.last_activity = now;
        match (msg, self.state) {
            (Msg::RegisterAck { last_seq, .. }, State::Registering { .. }) => {
                // Anything at or below last_seq was journaled before a
                // crash ate the ack; drop it rather than re-upload.
                while self.spool.front().is_some_and(|(s, _)| *s <= last_seq) {
                    self.spool.pop_front();
                    self.stats.spool_acked_dropped += 1;
                }
                if self.next_seq <= last_seq {
                    self.next_seq = last_seq + 1;
                }
                self.state = State::Idle;
            }
            (
                Msg::Ack {
                    seq,
                    duplicate,
                    backpressure,
                    ..
                },
                State::AwaitAck { seq: await_seq, .. },
            ) if seq == await_seq => {
                debug_assert_eq!(self.spool.front().map(|(s, _)| *s), Some(seq));
                self.spool.pop_front();
                if duplicate {
                    self.stats.dup_acks += 1;
                } else {
                    self.stats.acks += 1;
                }
                if backpressure {
                    self.widen_gap();
                } else {
                    self.narrow_gap();
                }
                self.obs.event_at(
                    Component::Session,
                    "upload.ack",
                    now,
                    span_id(self.agent, seq),
                    u64::from(duplicate),
                );
                self.state = State::Idle;
            }
            (
                Msg::Nack {
                    expected,
                    backpressure,
                    ..
                },
                State::AwaitAck { .. },
            ) => {
                self.stats.nacks += 1;
                if backpressure {
                    self.widen_gap();
                } else {
                    // A gap nack: the server is ahead of us (it saw a
                    // duplicate of a later seq, or we are stale after
                    // recovery). Drop anything it already has.
                    while self.spool.front().is_some_and(|(s, _)| *s < expected) {
                        self.spool.pop_front();
                        self.stats.spool_acked_dropped += 1;
                    }
                }
                self.state = State::Idle;
            }
            (Msg::HeartbeatAck { backpressure, .. }, _) => {
                if backpressure {
                    self.widen_gap();
                }
            }
            _ => {
                self.stats.ignored_frames += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::LossLedger;
    use dcpi_core::profile::Profile;
    use dcpi_core::{Event, ImageId};

    fn batch(samples: u64) -> EpochBatch {
        let mut p = Profile::new();
        if samples > 0 {
            p.add(0x1000, samples);
        }
        EpochBatch {
            epoch: 0,
            seal_cycle: 0,
            profiles: if samples > 0 {
                vec![(ImageId(1), Event::Cycles, p)]
            } else {
                Vec::new()
            },
            image_names: Vec::new(),
            ledger: LossLedger {
                generated: samples,
                attributed: samples,
                ..LossLedger::default()
            },
            ..EpochBatch::default()
        }
    }

    fn registered(agent: u32, seed: u32, cfg: UploaderConfig) -> Uploader {
        let mut up = Uploader::new(agent, seed, cfg);
        let frames = up.tick(0);
        assert_eq!(frames.len(), 1, "register sent");
        up.on_frame(1, &encode_msg(&Msg::RegisterAck { agent, last_seq: 0 }));
        assert!(up.idle());
        up
    }

    /// Drives `up` until it emits a frame, returning (tick, frame).
    fn next_frame(up: &mut Uploader, from: u64, limit: u64) -> (u64, Vec<u8>) {
        for now in from..from + limit {
            let mut frames = up.tick(now);
            if !frames.is_empty() {
                assert_eq!(frames.len(), 1);
                return (now, frames.pop().expect("frame"));
            }
        }
        panic!("no frame within {limit} ticks of {from}");
    }

    #[test]
    fn backoff_schedule_is_capped_exponential_and_seed_deterministic() {
        // Table: with jitter 0, retransmit waits are timeout + base<<n,
        // capped. Timeout T=10, base 4, cap 64.
        let cfg = UploaderConfig {
            ack_timeout: 10,
            backoff_base: 4,
            backoff_cap: 64,
            jitter: 0,
            upload_gap: 0,
            ..UploaderConfig::default()
        };
        let mut up = registered(1, 7, cfg);
        up.push_epoch(batch(10));
        let (t0, _) = next_frame(&mut up, 2, 4);
        // Expected waits between sends: 10, 10+4, 10+8, 10+16, 10+32,
        // 10+64, 10+64 (capped), ...
        let mut prev = t0;
        for expect in [10, 14, 18, 26, 42, 74, 74, 74] {
            let (t, _) = next_frame(&mut up, prev + 1, 200);
            assert_eq!(t - prev, expect, "wait after send at {prev}");
            prev = t;
        }
        // Seeded jitter: same seed → same schedule; different seed →
        // different schedule (checked over enough attempts to be
        // overwhelmingly likely).
        let schedule = |seed: u32| {
            let cfg = UploaderConfig {
                ack_timeout: 10,
                backoff_base: 4,
                backoff_cap: 64,
                jitter: 5,
                upload_gap: 0,
                ..UploaderConfig::default()
            };
            let mut up = registered(1, seed, cfg);
            up.push_epoch(batch(1));
            let mut times = Vec::new();
            let (mut prev, _) = next_frame(&mut up, 2, 4);
            for _ in 0..8 {
                let (t, _) = next_frame(&mut up, prev + 1, 300);
                times.push(t - prev);
                prev = t;
            }
            times
        };
        assert_eq!(schedule(42), schedule(42), "same seed, same jitter");
        assert_ne!(schedule(42), schedule(43), "different seed differs");
    }

    #[test]
    fn timeout_retry_then_dedup() {
        let cfg = UploaderConfig {
            ack_timeout: 8,
            jitter: 0,
            upload_gap: 0,
            ..UploaderConfig::default()
        };
        let mut up = registered(3, 1, cfg);
        let seq = up.push_epoch(batch(5));
        let (_, first) = next_frame(&mut up, 2, 4);
        // First copy lost; retransmit carries the same seq and bytes.
        let (_, retry) = next_frame(&mut up, 3, 100);
        assert_eq!(first, retry, "retransmit is byte-identical");
        assert_eq!(up.stats.retransmits, 1);
        // Server journaled the retry but the first ack was the one that
        // arrived — a duplicate ack resolves it either way.
        up.on_frame(
            40,
            &encode_msg(&Msg::Ack {
                agent: 3,
                seq,
                duplicate: true,
                backpressure: false,
            }),
        );
        assert!(up.idle());
        assert_eq!(up.stats.dup_acks, 1);
        assert_eq!(up.spooled(), 0);
    }

    #[test]
    fn ack_lost_after_commit_resolved_by_reregistration() {
        let cfg = UploaderConfig {
            ack_timeout: 8,
            jitter: 0,
            upload_gap: 0,
            ..UploaderConfig::default()
        };
        let mut up = registered(9, 1, cfg);
        let seq = up.push_epoch(batch(20));
        up.push_epoch(batch(30));
        let (_, _upload) = next_frame(&mut up, 2, 4);
        // The server journaled seq but its ack was lost, then the agent
        // crashed. On restart the spool still holds both epochs.
        up.crash();
        assert_eq!(up.incarnation(), 2);
        assert_eq!(up.spooled(), 2);
        let frames = up.tick(100);
        assert_eq!(frames.len(), 1, "re-register after crash");
        up.on_frame(
            101,
            &encode_msg(&Msg::RegisterAck {
                agent: 9,
                last_seq: seq,
            }),
        );
        // The journaled epoch was dropped from the spool, not re-sent.
        assert_eq!(up.spooled(), 1);
        assert_eq!(up.stats.spool_acked_dropped, 1);
        let (_, frame) = next_frame(&mut up, 102, 10);
        match decode_msg(&frame).expect("upload decodes") {
            Msg::Upload {
                seq: sent,
                incarnation,
                ..
            } => {
                assert_eq!(sent, seq + 1, "resumes at the next unjournaled seq");
                assert_eq!(incarnation, 2);
            }
            other => panic!("expected upload, got {other:?}"),
        }
    }

    #[test]
    fn partition_heal_catches_up_in_order() {
        let cfg = UploaderConfig {
            ack_timeout: 4,
            backoff_base: 2,
            backoff_cap: 8,
            jitter: 0,
            upload_gap: 0,
            ..UploaderConfig::default()
        };
        let mut up = registered(5, 1, cfg);
        for i in 0..4 {
            up.push_epoch(batch(10 + i));
        }
        // Partitioned: every frame vanishes for 200 ticks. The uploader
        // keeps retrying the *same* head-of-line seq.
        let mut seqs_tried = Vec::new();
        for now in 2..200 {
            for f in up.tick(now) {
                if let Ok(Msg::Upload { seq, .. }) = decode_msg(&f) {
                    seqs_tried.push(seq);
                }
            }
        }
        assert!(seqs_tried.len() > 3, "kept retrying under partition");
        assert!(
            seqs_tried.iter().all(|&s| s == seqs_tried[0]),
            "head-of-line seq only: {seqs_tried:?}"
        );
        // Heal: acks flow again; the spool drains strictly in order.
        let mut acked = Vec::new();
        let mut now = 200;
        while !up.idle() && now < 1000 {
            for f in up.tick(now) {
                if let Ok(Msg::Upload { seq, agent, .. }) = decode_msg(&f) {
                    acked.push(seq);
                    up.on_frame(
                        now + 1,
                        &encode_msg(&Msg::Ack {
                            agent,
                            seq,
                            duplicate: false,
                            backpressure: false,
                        }),
                    );
                }
            }
            now += 1;
        }
        assert_eq!(acked, vec![1, 2, 3, 4], "catch-up is in-order");
        assert!(up.idle());
        assert_eq!(up.in_flight_samples(), 0);
    }

    #[test]
    fn backpressure_widens_then_clean_acks_narrow() {
        let cfg = UploaderConfig {
            upload_gap: 2,
            backpressure_factor: 4,
            backpressure_cap: 32,
            ..UploaderConfig::default()
        };
        let mut up = registered(2, 1, cfg);
        assert_eq!(up.current_gap(), 2);
        up.push_epoch(batch(1));
        let (_, f) = next_frame(&mut up, 3, 10);
        let Ok(Msg::Upload { seq, .. }) = decode_msg(&f) else {
            panic!("expected upload");
        };
        up.on_frame(
            10,
            &encode_msg(&Msg::Ack {
                agent: 2,
                seq,
                duplicate: false,
                backpressure: true,
            }),
        );
        assert_eq!(up.current_gap(), 8);
        up.on_frame(
            11,
            &encode_msg(&Msg::HeartbeatAck {
                agent: 2,
                backpressure: true,
            }),
        );
        assert_eq!(up.current_gap(), 32, "capped at backpressure_cap");
        assert_eq!(up.stats.backpressure_signals, 2);
        // A clean ack narrows back toward the base gap.
        up.push_epoch(batch(1));
        let (_, f) = next_frame(&mut up, 50, 50);
        let Ok(Msg::Upload { seq, .. }) = decode_msg(&f) else {
            panic!("expected upload");
        };
        up.on_frame(
            60,
            &encode_msg(&Msg::Ack {
                agent: 2,
                seq,
                duplicate: false,
                backpressure: false,
            }),
        );
        assert_eq!(up.current_gap(), 8);
    }

    #[test]
    fn quarantined_spool_entry_keeps_seq_and_conserves() {
        let mut up = registered(4, 1, UploaderConfig::default());
        up.push_epoch(batch(100));
        let q = up.quarantine_spooled(0);
        assert_eq!(q, 100);
        assert_eq!(up.spooled(), 1, "tombstone still uploads");
        assert_eq!(up.in_flight_samples(), 0, "payload destroyed");
        let (_, b) = &up.spool[0];
        assert_eq!(b.ledger.quarantined, 100);
        assert_eq!(b.ledger.attributed, 0);
        assert_eq!(b.ledger.generated, 100, "delta still conserves");
        assert!(b.ledger.conserves());
    }

    #[test]
    fn corrupt_and_foreign_frames_ignored() {
        let mut up = registered(6, 1, UploaderConfig::default());
        up.on_frame(5, b"not a frame");
        up.on_frame(
            6,
            &encode_msg(&Msg::Ack {
                agent: 7, // someone else's ack
                seq: 1,
                duplicate: false,
                backpressure: false,
            }),
        );
        assert_eq!(up.stats.ignored_frames, 2);
        assert!(up.idle());
    }

    #[test]
    fn span_chain_lands_in_the_session_ring() {
        use dcpi_obs::{Obs, ObsConfig};
        let cfg = UploaderConfig {
            ack_timeout: 8,
            jitter: 0,
            upload_gap: 0,
            ..UploaderConfig::default()
        };
        let mut up = Uploader::new(11, 1, cfg);
        let obs = Obs::new(&ObsConfig::on());
        up.attach_obs(&obs);
        up.tick(0);
        up.on_frame(
            1,
            &encode_msg(&Msg::RegisterAck {
                agent: 11,
                last_seq: 0,
            }),
        );
        let mut b = batch(9);
        b.seal_cycle = 2;
        let seq = up.push_epoch(b);
        let (_, _send) = next_frame(&mut up, 2, 4);
        let (_, _retry) = next_frame(&mut up, 3, 100);
        up.on_frame(
            40,
            &encode_msg(&Msg::Ack {
                agent: 11,
                seq,
                duplicate: false,
                backpressure: false,
            }),
        );
        let snap = obs.snapshot();
        let session = snap
            .rings
            .iter()
            .find(|r| r.component == "session")
            .unwrap();
        let id = span_id(11, seq);
        let chain: Vec<&str> = session
            .events
            .iter()
            .filter(|e| e.a == id)
            .map(|e| e.name.as_str())
            .collect();
        assert_eq!(
            chain,
            ["epoch.seal", "upload.send", "upload.retry", "upload.ack"]
        );
        assert_eq!(session.events[0].cycle, 2, "seal stamped at seal_cycle");
        assert_eq!(session.events[0].b, 9, "seal carries the sample total");
    }

    #[test]
    fn heartbeats_fire_when_idle() {
        let cfg = UploaderConfig {
            heartbeat_every: 10,
            ..UploaderConfig::default()
        };
        let mut up = registered(8, 1, cfg);
        let (_, f) = next_frame(&mut up, 2, 20);
        assert!(matches!(decode_msg(&f), Ok(Msg::Heartbeat { .. })));
        assert_eq!(up.stats.heartbeats, 1);
    }
}
