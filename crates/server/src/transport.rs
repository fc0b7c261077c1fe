//! The deterministic simulated transport between agents and the
//! server.
//!
//! [`SimNet`] is a priority queue of frames keyed by delivery tick.
//! It applies a seeded [`NetFaultPlan`] as each frame is sent: drop,
//! delay (latency + seeded jitter, stall windows), duplicate, reorder,
//! mid-record truncation, or partition. Decisions depend only on the
//! plan, the seed, and the send order, and ties on the delivery tick
//! break by send order, so two runs over the same traffic take the
//! same damage and deliver in exactly the same order — which is what
//! makes the fleet database bit-identical across runs.

use dcpi_collect::faults::{ledger_add, StallWindow};
use dcpi_core::prng::CartaRng;
use std::collections::BTreeMap;

/// A network partition: agents with `id % modulo == remainder` are cut
/// off from the server during `[from, until)` ticks — frames in either
/// direction are dropped on the floor (the sender times out and
/// retries after the heal).
#[derive(Clone, Copy, Debug)]
pub struct Partition {
    /// First partitioned tick.
    pub from: u64,
    /// First tick past the partition.
    pub until: u64,
    /// Subset selector modulus (≥ 1).
    pub modulo: u32,
    /// Subset selector remainder (`< modulo`).
    pub remainder: u32,
}

impl Partition {
    /// True if `agent` is cut off at `now`.
    #[must_use]
    pub fn cuts(&self, now: u64, agent: u32) -> bool {
        (self.from..self.until).contains(&now) && agent % self.modulo.max(1) == self.remainder
    }
}

/// A seeded, reproducible schedule of *network* faults for the fleet
/// upload path, the transport-layer sibling of the collector's
/// `FaultPlan`. Period fields count frames fleet-wide (0 = never);
/// [`SimNet`] applies them in send order.
#[derive(Clone, Debug)]
pub struct NetFaultPlan {
    /// Drop every Nth frame outright.
    pub drop_period: u64,
    /// Deliver every Nth frame twice (the copy lands `delay` later).
    pub dup_period: u64,
    /// Delay every Nth frame past its successor (reordering).
    pub reorder_period: u64,
    /// Truncate every Nth frame mid-record; the receiver's CRC check
    /// rejects it, which behaves like a drop with extra decode work.
    pub truncate_period: u64,
    /// Base one-way latency in ticks.
    pub delay: u64,
    /// Seeded extra delay in `[0, jitter]` per frame.
    pub jitter: u64,
    /// Link-wide stall windows: nothing is delivered while one is open
    /// (frames queue and arrive after the window closes).
    pub stalls: Vec<StallWindow>,
    /// Agent-subset partitions.
    pub partitions: Vec<Partition>,
    /// Tick after which no further faults fire (the heal point); frames
    /// sent at or past it sail through. `u64::MAX` = never heal.
    pub heal_at: u64,
}

impl Default for NetFaultPlan {
    fn default() -> NetFaultPlan {
        NetFaultPlan {
            drop_period: 0,
            dup_period: 0,
            reorder_period: 0,
            truncate_period: 0,
            delay: 1,
            jitter: 0,
            stalls: Vec::new(),
            partitions: Vec::new(),
            heal_at: u64::MAX,
        }
    }
}

impl NetFaultPlan {
    /// The clean network: fixed 1-tick latency, no faults.
    #[must_use]
    pub fn none() -> NetFaultPlan {
        NetFaultPlan::default()
    }

    /// Draws a randomized plan over `[0, horizon)` ticks from `seed`.
    /// Every fault class fires: drops, duplicates, reordering,
    /// truncation, at least one stall, and at least one partition.
    #[must_use]
    pub fn random(seed: u32, horizon: u64) -> NetFaultPlan {
        let mut rng = CartaRng::new(seed);
        let h = horizon.max(64);
        // Periods are drawn from disjoint prime pools so no class
        // shadows another: earlier checks (drop, then truncate) win on
        // a shared frame index, and a dup_period that divides into
        // drop_period's multiples would never fire at all.
        let pick =
            |rng: &mut CartaRng, pool: &[u64]| pool[rng.uniform(0, pool.len() as u64 - 1) as usize];
        let mut plan = NetFaultPlan {
            drop_period: pick(&mut rng, &[7, 11, 13, 17, 19, 23]),
            dup_period: pick(&mut rng, &[29, 31, 37]),
            reorder_period: pick(&mut rng, &[41, 43, 47]),
            truncate_period: pick(&mut rng, &[53, 59, 61]),
            delay: rng.uniform(1, 4),
            jitter: rng.uniform(0, 3),
            heal_at: h,
            ..NetFaultPlan::none()
        };
        for _ in 0..rng.uniform(1, 2) {
            let from = rng.uniform(h / 8, h - h / 4);
            let len = rng.uniform(h / 40, h / 12);
            plan.stalls.push(StallWindow {
                from,
                until: from.saturating_add(len).min(h),
            });
        }
        for _ in 0..rng.uniform(1, 2) {
            let from = rng.uniform(h / 6, h - h / 4);
            let len = rng.uniform(h / 30, h / 8);
            let modulo = rng.uniform(3, 8) as u32;
            plan.partitions.push(Partition {
                from,
                until: from.saturating_add(len).min(h),
                modulo,
                remainder: rng.uniform(0, u64::from(modulo) - 1) as u32,
            });
        }
        plan
    }
}

/// Per-class frame counters for one simulated link.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Frames offered to the network.
    pub sent: u64,
    /// Frames dropped by the drop schedule.
    pub dropped: u64,
    /// Frames delivered twice.
    pub duplicated: u64,
    /// Frames delayed past a successor.
    pub reordered: u64,
    /// Frames truncated mid-record.
    pub truncated: u64,
    /// Frames held by a stall window.
    pub stalled: u64,
    /// Frames dropped because an endpoint was partitioned.
    pub partitioned: u64,
}

/// One end of the simulated network.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Endpoint {
    /// Agent `id`.
    Agent(u32),
    /// The ingestion server.
    Server,
}

/// The simulated network.
#[derive(Debug)]
pub struct SimNet {
    plan: NetFaultPlan,
    rng: CartaRng,
    /// Frames the period schedules have counted (those sent before the
    /// heal point and not partitioned).
    frames: u64,
    stats: NetStats,
    /// Frames in flight, keyed by `(delivery tick, send order)`.
    queue: BTreeMap<(u64, u64), (Endpoint, Vec<u8>)>,
    sends: u64,
}

impl SimNet {
    /// Builds the network with a fault plan and jitter seed.
    #[must_use]
    pub fn new(plan: NetFaultPlan, seed: u32) -> SimNet {
        SimNet {
            plan,
            rng: CartaRng::new(seed.max(1)),
            frames: 0,
            stats: NetStats::default(),
            queue: BTreeMap::new(),
            sends: 0,
        }
    }

    /// Frame counters.
    #[must_use]
    pub fn stats(&self) -> NetStats {
        self.stats
    }

    /// Frames still in flight.
    #[must_use]
    pub fn in_flight(&self) -> usize {
        self.queue.len()
    }

    /// Sends `frame` from `from` toward `to` at tick `now`, deciding
    /// its fate on the way in. The agent on the link (whichever
    /// endpoint is not the server) selects partition membership.
    pub fn send(&mut self, now: u64, from: Endpoint, to: Endpoint, mut frame: Vec<u8>) {
        let agent = match (from, to) {
            (Endpoint::Agent(a), _) | (Endpoint::Server, Endpoint::Agent(a)) => a,
            (Endpoint::Server, Endpoint::Server) => {
                debug_assert!(false, "server-to-server frame");
                0
            }
        };
        ledger_add(&mut self.stats.sent, 1);
        let delay = self.plan.delay.max(1);
        let mut at = now + delay;
        let mut copy = None;
        if now < self.plan.heal_at {
            if self.plan.partitions.iter().any(|p| p.cuts(now, agent)) {
                ledger_add(&mut self.stats.partitioned, 1);
                return;
            }
            self.frames += 1;
            let frames = self.frames;
            let due = |period: u64| period > 0 && frames.is_multiple_of(period);
            if due(self.plan.drop_period) {
                ledger_add(&mut self.stats.dropped, 1);
                return;
            }
            if self.plan.jitter > 0 {
                at += self.rng.uniform(0, self.plan.jitter);
            }
            // A stalled link holds the frame until the window closes.
            for w in &self.plan.stalls {
                if w.contains(now) {
                    ledger_add(&mut self.stats.stalled, 1);
                    at = at.max(w.until);
                }
            }
            if due(self.plan.reorder_period) {
                // Push past the next frame's worst-case arrival.
                ledger_add(&mut self.stats.reordered, 1);
                at += delay + self.plan.jitter + 2;
            }
            if due(self.plan.truncate_period) && frame.len() > 2 {
                ledger_add(&mut self.stats.truncated, 1);
                let keep = self.rng.uniform(1, frame.len() as u64 - 1);
                frame.truncate(keep as usize);
            } else if due(self.plan.dup_period) {
                // Only intact frames are worth duplicating: the copy
                // must tickle the receiver's dedup path, not its CRC
                // check.
                ledger_add(&mut self.stats.duplicated, 1);
                copy = Some((at + delay + 1, frame.clone()));
            }
        }
        self.enqueue(at, to, frame);
        if let Some((dup_at, frame)) = copy {
            self.enqueue(dup_at, to, frame);
        }
    }

    fn enqueue(&mut self, at: u64, to: Endpoint, frame: Vec<u8>) {
        self.sends += 1;
        self.queue.insert((at, self.sends), (to, frame));
    }

    /// Removes and returns every frame due at or before `now`, in
    /// delivery order.
    pub fn deliver_due(&mut self, now: u64) -> Vec<(Endpoint, Vec<u8>)> {
        let mut out = Vec::new();
        while let Some(first) = self.queue.first_entry() {
            if first.key().0 > now {
                break;
            }
            out.push(first.remove());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every frame the network delivers, with its delivery tick, until
    /// nothing is left in flight.
    fn drain(net: &mut SimNet) -> Vec<(u64, Endpoint, Vec<u8>)> {
        let mut got = Vec::new();
        let mut t = 0;
        while net.in_flight() > 0 {
            for (to, frame) in net.deliver_due(t) {
                got.push((t, to, frame));
            }
            t += 1;
        }
        got
    }

    #[test]
    fn delivery_order_is_deterministic() {
        // (plan seed, horizon, jitter seed): the same inputs twice give
        // the same plan, the same damage and the same delivery order.
        for (plan_seed, horizon, seed) in [(9, 1000, 3), (5, 100_000, 11)] {
            let run = || {
                let mut net = SimNet::new(NetFaultPlan::random(plan_seed, horizon), seed);
                for i in 0..500u64 {
                    net.send(
                        i * 3,
                        Endpoint::Agent((i % 7) as u32),
                        Endpoint::Server,
                        vec![i as u8; 64],
                    );
                }
                (drain(&mut net), net.stats())
            };
            let (got, stats) = run();
            assert_eq!((got, stats), run(), "plan seed {plan_seed}");
            assert!(stats.dropped > 0 && stats.duplicated > 0, "{stats:?}");
            assert!(stats.reordered > 0 && stats.truncated > 0, "{stats:?}");
        }
        assert_ne!(
            format!("{:?}", NetFaultPlan::random(5, 100_000)),
            format!("{:?}", NetFaultPlan::random(6, 100_000))
        );
    }

    #[test]
    fn clean_net_delivers_everything_in_order() {
        let mut net = SimNet::new(NetFaultPlan::none(), 1);
        for i in 0..10u64 {
            net.send(i, Endpoint::Server, Endpoint::Agent(0), vec![i as u8]);
        }
        let seen: Vec<u8> = drain(&mut net).iter().map(|(_, _, f)| f[0]).collect();
        assert_eq!(seen, (0..10u8).collect::<Vec<_>>());
        assert_eq!(net.in_flight(), 0);
    }

    #[test]
    fn truncated_frames_arrive_short() {
        let plan = NetFaultPlan {
            truncate_period: 1,
            ..NetFaultPlan::none()
        };
        let mut net = SimNet::new(plan, 7);
        net.send(0, Endpoint::Agent(1), Endpoint::Server, vec![9u8; 64]);
        let frames = net.deliver_due(100);
        assert_eq!(frames.len(), 1);
        assert!(frames[0].1.len() < 64, "frame was cut mid-record");
        assert_eq!(net.stats().truncated, 1);
    }

    #[test]
    fn partitions_cut_only_their_subset_both_ways() {
        let plan = NetFaultPlan {
            partitions: vec![Partition {
                from: 100,
                until: 200,
                modulo: 4,
                remainder: 1,
            }],
            ..NetFaultPlan::none()
        };
        let mut net = SimNet::new(plan, 1);
        for agent in [5, 6] {
            net.send(150, Endpoint::Agent(agent), Endpoint::Server, vec![1]);
            net.send(150, Endpoint::Server, Endpoint::Agent(agent), vec![2]);
        }
        net.send(250, Endpoint::Agent(5), Endpoint::Server, vec![3]);
        let got: Vec<_> = drain(&mut net)
            .into_iter()
            .map(|(t, to, f)| (t, to, f[0]))
            .collect();
        assert_eq!(
            got,
            [
                (151, Endpoint::Server, 1),
                (151, Endpoint::Agent(6), 2),
                (251, Endpoint::Server, 3),
            ],
            "agent 5 is cut both ways until the partition heals; agent 6 never is"
        );
        assert_eq!(net.stats().partitioned, 2);
    }

    #[test]
    fn nothing_fires_after_the_heal_point() {
        let plan = NetFaultPlan {
            drop_period: 2,
            truncate_period: 1,
            jitter: 5,
            partitions: vec![Partition {
                from: 0,
                until: u64::MAX,
                modulo: 4,
                remainder: 3,
            }],
            heal_at: 50,
            ..NetFaultPlan::none()
        };
        let mut net = SimNet::new(plan, 1);
        for (t, agent) in [(10, 0), (20, 0), (30, 3), (50, 3), (60, 0)] {
            net.send(t, Endpoint::Agent(agent), Endpoint::Server, vec![7; 32]);
        }
        let got = drain(&mut net);
        assert_eq!(got.len(), 3, "one drop and one partition before the heal");
        assert!(got[0].0 <= 16 && got[0].2.len() < 32, "truncated, jittered");
        assert_eq!(
            got[1..],
            [
                (51, Endpoint::Server, vec![7; 32]),
                (61, Endpoint::Server, vec![7; 32]),
            ],
            "intact, on time and uncut once healed"
        );
        let stats = net.stats();
        assert_eq!((stats.sent, stats.dropped), (5, 1));
        assert_eq!((stats.truncated, stats.partitioned), (1, 1));
    }

    #[test]
    fn stall_holds_frames_until_window_closes() {
        let plan = NetFaultPlan {
            stalls: vec![StallWindow {
                from: 10,
                until: 40,
            }],
            delay: 2,
            ..NetFaultPlan::none()
        };
        let mut net = SimNet::new(plan, 1);
        net.send(20, Endpoint::Agent(0), Endpoint::Server, vec![1]);
        net.send(50, Endpoint::Agent(0), Endpoint::Server, vec![2]);
        assert!(net.deliver_due(39).is_empty(), "held while the link stalls");
        assert_eq!(net.deliver_due(40), [(Endpoint::Server, vec![1])]);
        assert!(net.deliver_due(51).is_empty());
        assert_eq!(net.deliver_due(52), [(Endpoint::Server, vec![2])]);
        assert_eq!(net.stats().stalled, 1);
    }
}
