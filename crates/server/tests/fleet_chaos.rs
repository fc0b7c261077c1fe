//! Fleet chaos suite: the PR's acceptance gates.
//!
//! One seeded run drives ≥100 agents through every fault class at once
//! — network drop/duplicate/reorder/truncate/stall/partition, agent
//! crashes, server crash/restart, spool corruption — and must end with
//! the fleet-wide conservation identity holding *exactly*:
//!
//! ```text
//! generated = merged(attributed + unknown)
//!           + driver_dropped + crash_lost + quarantined
//! ```
//!
//! with `in_flight == server_journal == 0` and `generated` equal to
//! what the scripts produced. The same seed must reproduce the fleet
//! database byte-for-byte, and a server killed after acking must
//! recover every journaled epoch from its WAL (zero acked-sample
//! loss). Extra seeds come from `DCPI_FLEET_SEED` (the CI sweep).

use dcpi_collect::wire::{decode_msg, encode_msg, EpochBatch, Msg};
use dcpi_core::prng::CartaRng;
use dcpi_obs::{Obs, ObsConfig};
use dcpi_server::fleet::{run_fleet, FleetConfig};
use dcpi_server::{check_fleet, AgentScript, IngestServer, ServerConfig};
use dcpi_testkit::{snapshot, TempRoot};

/// Seeds every run sweeps; `DCPI_FLEET_SEED` appends one more (CI).
fn seeds() -> Vec<u32> {
    let mut s = vec![7, 101, 65537];
    if let Ok(extra) = std::env::var("DCPI_FLEET_SEED") {
        if let Ok(v) = extra.trim().parse::<u32>() {
            if !s.contains(&v) {
                s.push(v);
            }
        }
    }
    s
}

#[test]
fn hundred_agent_fleet_conserves_under_full_chaos() {
    for seed in seeds() {
        let root = TempRoot::new(&format!("chaos-hundred-{seed}"));
        let cfg = FleetConfig::new(&root, 100, seed);
        let report = run_fleet(&cfg, &Obs::new(&ObsConfig::on())).unwrap();

        // Conservation, exact, with the transit buckets drained.
        assert!(
            report.conserves(),
            "seed {seed}: {}\nexpected generated {}",
            report.ledger.render(),
            report.expected_generated,
        );
        assert_eq!(report.ledger.in_flight, 0, "seed {seed}");
        assert_eq!(report.ledger.server_journal, 0, "seed {seed}");
        assert_eq!(
            report.ledger.base.generated, report.expected_generated,
            "seed {seed}: fleet lost or invented samples"
        );
        assert_eq!(
            report.ledger.fleet_merged,
            report.ledger.base.attributed + report.ledger.base.unknown,
            "seed {seed}"
        );

        // Every fault class must actually have fired.
        let n = &report.net_stats;
        assert!(n.dropped > 0, "seed {seed}: no drops");
        assert!(n.duplicated > 0, "seed {seed}: no duplicates");
        assert!(n.truncated > 0, "seed {seed}: no truncations");
        assert!(n.partitioned > 0, "seed {seed}: no partition losses");
        assert!(report.agent_crashes > 0, "seed {seed}: no agent crashes");
        assert!(report.server_crashes > 0, "seed {seed}: no server crashes");
        assert!(
            report.ledger.base.crash_lost > 0,
            "seed {seed}: agent crashes lost nothing?"
        );
        // The retry machinery must have been exercised end to end.
        let u = &report.uploader_stats;
        assert!(u.retransmits > 0, "seed {seed}: no retransmissions");
        assert!(
            report.server_stats.deduped > 0 || u.dup_acks > 0,
            "seed {seed}: dedup path never ran"
        );
        assert!(
            report.server_stats.replayed_batches > 0 || report.server_stats.merges > 0,
            "seed {seed}: server did no work"
        );

        // The export's lag gauges are the report's one lag summary.
        let export = report.obs.as_ref().expect("an enabled handle exports");
        let g = &export.metrics.gauges;
        assert_eq!(g["fleet.lag_epochs"], report.lag.samples, "seed {seed}");
        assert_eq!(g["fleet.lag_p99"], report.lag.p99, "seed {seed}");
        assert_eq!(g["fleet.lag_max"], report.lag.max, "seed {seed}");

        // The independent offline audit agrees.
        let audit = check_fleet(&root);
        assert!(audit.is_clean(), "seed {seed}:\n{}", audit.render());
    }
}

#[test]
fn fixed_seed_reproduces_the_fleet_bit_identically() {
    let seed = 65537;
    let roots = [TempRoot::new("chaos-bits-a"), TempRoot::new("chaos-bits-b")];
    let mut reports = Vec::new();
    for root in &roots {
        let cfg = FleetConfig::new(root, 100, seed);
        reports.push(run_fleet(&cfg, &Obs::default()).unwrap());
    }
    assert_eq!(reports[0].ledger, reports[1].ledger);
    assert_eq!(reports[0].ticks, reports[1].ticks);
    let a = snapshot(&roots[0]);
    let b = snapshot(&roots[1]);
    assert_eq!(
        a.iter().map(|(p, _)| p).collect::<Vec<_>>(),
        b.iter().map(|(p, _)| p).collect::<Vec<_>>(),
        "file sets differ"
    );
    for ((pa, ba), (_, bb)) in a.iter().zip(&b) {
        assert_eq!(ba, bb, "{} differs between same-seed runs", pa.display());
    }
}

#[test]
fn acked_then_crashed_server_recovers_every_journaled_epoch() {
    let root = TempRoot::new("chaos-acked-loss");
    let cfg = ServerConfig::new(&root);
    let mut server = IngestServer::create(cfg.clone()).unwrap();

    // Three agents upload scripted epochs; every ack is a promise.
    let mut acked: Vec<(u32, u64, u64)> = Vec::new(); // (agent, seq, samples)
    let mut total = 0u64;
    for agent in 0..3u32 {
        let script = AgentScript::generate(agent, 42, 3, 128);
        server.on_frame(
            0,
            &encode_msg(&Msg::Register {
                agent,
                incarnation: 1,
                features: 0,
            }),
        );
        for (i, batch) in script.epochs.iter().enumerate() {
            let seq = i as u64 + 1;
            let frame = encode_msg(&Msg::Upload {
                agent,
                incarnation: 1,
                seq,
                batch: batch.clone(),
            });
            let replies = server.on_frame(1 + seq, &frame);
            assert_eq!(replies.len(), 1);
            match decode_msg(&replies[0]).unwrap() {
                Msg::Ack {
                    duplicate: false, ..
                } => {
                    acked.push((agent, seq, batch.sample_total()));
                    total += batch.sample_total();
                }
                other => panic!("expected a clean ack, got {other:?}"),
            }
        }
    }
    // Merge *some* of it so the crash lands with both merged epochs and
    // journaled-but-unmerged batches in play, then kill the server with
    // no goodbye.
    server.merge_queue(50).unwrap();
    let pre_merges = server.stats.merges;
    for agent in 0..2u32 {
        let batch = EpochBatch {
            epoch: 9,
            ..EpochBatch::default()
        };
        let frame = encode_msg(&Msg::Upload {
            agent,
            incarnation: 1,
            seq: 4,
            batch,
        });
        let replies = server.on_frame(60, &frame);
        assert!(matches!(
            decode_msg(&replies[0]).unwrap(),
            Msg::Ack {
                duplicate: false,
                ..
            }
        ));
        acked.push((agent, 4, 0));
    }
    drop(server);

    // Restart from the WAL alone.
    let mut revived = IngestServer::reopen(cfg, 100).unwrap();
    assert!(
        revived.stats.replayed_batches > 0,
        "the unmerged tail must be re-queued"
    );
    for (agent, seq, _) in &acked {
        let s = revived.sessions()[agent];
        assert!(
            s.journaled.last_seq >= *seq,
            "agent {agent}: acked seq {seq} forgotten after crash \
             (last_seq {})",
            s.journaled.last_seq
        );
    }
    revived.finish(101).unwrap();
    let ledger = revived.ledger();
    assert_eq!(ledger.server_journal, 0);
    assert_eq!(
        ledger.fleet_merged, total,
        "zero acked-sample loss: every journaled sample must be merged"
    );
    assert!(ledger.conserves(), "{}", ledger.render());
    assert!(revived.stats.merges + pre_merges >= 2);

    // A duplicate of an already-journaled epoch after restart still
    // dedups (the promise survives the crash too).
    let script = AgentScript::generate(0, 42, 3, 128);
    let frame = encode_msg(&Msg::Upload {
        agent: 0,
        incarnation: 1,
        seq: 1,
        batch: script.epochs[0].clone(),
    });
    let replies = revived.on_frame(102, &frame);
    assert!(matches!(
        decode_msg(&replies[0]).unwrap(),
        Msg::Ack {
            duplicate: true,
            ..
        }
    ));

    let audit = check_fleet(&root);
    assert!(audit.is_clean(), "{}", audit.render());
}

#[test]
fn backpressure_nacks_when_the_queue_fills() {
    let root = TempRoot::new("chaos-bp");
    let mut cfg = ServerConfig::new(&root);
    cfg.queue_cap = 2;
    cfg.backpressure_at = 1;
    let mut server = IngestServer::create(cfg).unwrap();
    let mut rng = CartaRng::new(5);
    let mut nacked = false;
    for agent in 0..4u32 {
        let batch = EpochBatch {
            epoch: 0,
            ledger: dcpi_collect::faults::LossLedger {
                generated: rng.uniform(1, 10),
                driver_dropped: rng.uniform(1, 10),
                ..Default::default()
            },
            ..EpochBatch::default()
        };
        let frame = encode_msg(&Msg::Upload {
            agent,
            incarnation: 1,
            seq: 1,
            batch,
        });
        for reply in server.on_frame(1, &frame) {
            match decode_msg(&reply).unwrap() {
                Msg::Nack { backpressure, .. } => {
                    assert!(backpressure, "queue-full nack must signal backpressure");
                    nacked = true;
                }
                Msg::Ack { .. } => {}
                other => panic!("unexpected {other:?}"),
            }
        }
    }
    assert!(nacked, "cap 2 with 4 uploads must shed load");
    assert!(server.stats.queue_full_nacks > 0);
}

#[test]
fn partitioned_half_catches_up_after_heal() {
    // A deterministic partition cutting the odd agents for the whole
    // fault window: the survivors make progress, the partitioned half
    // catches up during drain, and nothing is lost either way.
    let root = TempRoot::new("chaos-partition");
    let mut cfg = FleetConfig::new(&root, 12, 3);
    cfg.faults = dcpi_server::fleet::FleetFaultPlan {
        net: dcpi_server::NetFaultPlan {
            delay: 1,
            partitions: vec![dcpi_server::Partition {
                from: 0,
                until: dcpi_server::fleet::HORIZON,
                modulo: 2,
                remainder: 1,
            }],
            heal_at: dcpi_server::fleet::HORIZON,
            ..dcpi_server::NetFaultPlan::none()
        },
        ..dcpi_server::fleet::FleetFaultPlan::none()
    };
    let report = run_fleet(&cfg, &Obs::default()).unwrap();
    assert!(report.conserves(), "{}", report.ledger.render());
    assert_eq!(report.ledger.base.generated, report.expected_generated);
    assert!(report.net_stats.partitioned > 0);
    let audit = check_fleet(&root);
    assert!(audit.is_clean(), "{}", audit.render());
}
