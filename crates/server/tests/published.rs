//! What the collection and ingest layers publish is read from their own
//! stats: levels at the moment of reading, and counts whose merge is
//! the sum of what each side publishes.

use dcpi_collect::wire::{encode_msg, EpochBatch, Msg};
use dcpi_collect::{DaemonStats, DriverStats, UploaderStats};
use dcpi_obs::{MetricsSnapshot, Published};
use dcpi_server::{IngestServer, ServerConfig, ServerStats};
use dcpi_testkit::TempRoot;
use std::collections::BTreeMap;

fn published<T>(list: &Published<T>, src: &T) -> MetricsSnapshot {
    let mut m = MetricsSnapshot::default();
    m.publish(list, src);
    m
}

fn levels(server: &IngestServer) -> BTreeMap<String, u64> {
    published(&IngestServer::PUBLISHED, server).gauges
}

fn register(server: &mut IngestServer, now: u64, agent: u32) {
    server.on_frame(
        now,
        &encode_msg(&Msg::Register {
            agent,
            incarnation: 1,
            features: 0,
        }),
    );
}

#[test]
fn an_expired_lease_drops_the_exported_agent_count() {
    let root = TempRoot::new("published-levels");
    let cfg = ServerConfig::new(&root);
    let mut server = IngestServer::create(cfg.clone()).unwrap();
    register(&mut server, 0, 0);
    register(&mut server, 0, 1);
    assert_eq!(levels(&server)["server.agents"], 2);

    // Agent 1 heartbeats; agent 0 stays silent past its lease.
    server.on_frame(
        200,
        &encode_msg(&Msg::Heartbeat {
            agent: 1,
            incarnation: 1,
        }),
    );
    server.tick(300).unwrap();
    assert_eq!(server.stats.lease_expiries, 1);
    assert_eq!(levels(&server)["server.agents"], 1, "the dead agent left");

    let upload = Msg::Upload {
        agent: 1,
        incarnation: 1,
        seq: 1,
        batch: EpochBatch::default(),
    };
    server.on_frame(301, &encode_msg(&upload));
    let at_accept = levels(&server);
    assert_eq!(at_accept["server.queue_depth"], 1);
    assert_eq!(at_accept["server.agent_lag_max"], 1);
    drop(server);

    // The replayed queue is the level after a reopen, and nobody is live
    // until they are heard from again.
    let mut server = IngestServer::reopen(cfg, 400).unwrap();
    let reopened = levels(&server);
    assert_eq!(reopened["server.queue_depth"], 1);
    assert_eq!(reopened["server.agents"], 0);
    server.merge_queue(401).unwrap();
    let merged = levels(&server);
    assert_eq!(merged["server.queue_depth"], 0);
    assert_eq!(merged["server.agent_lag_max"], 0, "a merge drains the lag");
    assert_eq!(merged["server.wal_bytes"], server.wal_bytes());
}

/// Checks that the counters `list` publishes for `a.merge(b)` are the
/// pointwise sums of those it publishes for `a` and for `b`, with every
/// published counter counting something on both sides.
fn merge_publishes_the_sum<T: Copy>(list: &Published<T>, a: T, b: T, merge: impl Fn(&mut T, &T)) {
    let (pa, pb) = (published(list, &a).counters, published(list, &b).counters);
    let mut merged = a;
    merge(&mut merged, &b);
    let mut sum = pa.clone();
    for (name, v) in &pb {
        *sum.entry(name.clone()).or_insert(0) += v;
    }
    let distinct: std::collections::BTreeSet<_> = list
        .counters
        .iter()
        .chain(list.incidents)
        .map(|(name, _)| *name)
        .collect();
    assert_eq!(pa.len(), distinct.len(), "every counter counts on side a");
    assert_eq!(pb.len(), distinct.len(), "every counter counts on side b");
    assert_eq!(published(list, &merged).counters, sum);
}

fn driver(k: u64) -> DriverStats {
    DriverStats {
        interrupts: k,
        hits: 2 * k,
        misses: 3 * k,
        spilled: 5 * k,
        flush_bypass: 7 * k,
        dropped: 11 * k,
        handler_cycles: 13 * k,
    }
}

fn daemon(k: u64) -> DaemonStats {
    DaemonStats {
        entries: k,
        samples: 2 * k,
        unknown_samples: 3 * k,
        cycles: 5 * k,
        memory_bytes: 7 * k,
        peak_memory_bytes: 11 * k,
        image_write_failures: 13 * k,
        stack_samples: 17 * k,
        unknown_stack_frames: 19 * k,
        flushes: 23 * k,
    }
}

fn uploader(k: u64) -> UploaderStats {
    UploaderStats {
        sealed: k,
        uploads_sent: 2 * k,
        retransmits: 3 * k,
        acks: 5 * k,
        dup_acks: 7 * k,
        nacks: 11 * k,
        timeouts: 13 * k,
        backpressure_signals: 17 * k,
        heartbeats: 19 * k,
        spool_acked_dropped: 23 * k,
        ignored_frames: 29 * k,
    }
}

fn server(k: u64) -> ServerStats {
    ServerStats {
        corrupt_frames: k,
        registrations: 2 * k,
        accepted: 3 * k,
        journaled_samples: 5 * k,
        deduped: 7 * k,
        gap_nacks: 11 * k,
        queue_full_nacks: 13 * k,
        backpressure_acks: 17 * k,
        merges: 19 * k,
        merged_batches: 23 * k,
        replayed_batches: 29 * k,
        lease_expiries: 31 * k,
        stale_incarnation: 37 * k,
    }
}

#[test]
fn every_stats_merge_publishes_the_sum_of_its_sides() {
    merge_publishes_the_sum(
        &DriverStats::PUBLISHED,
        driver(1),
        driver(100),
        DriverStats::merge,
    );
    merge_publishes_the_sum(
        &DaemonStats::PUBLISHED,
        daemon(1),
        daemon(100),
        DaemonStats::merge,
    );
    merge_publishes_the_sum(
        &UploaderStats::PUBLISHED,
        uploader(1),
        uploader(100),
        UploaderStats::merge,
    );
    merge_publishes_the_sum(
        &ServerStats::PUBLISHED,
        server(1),
        server(100),
        ServerStats::merge,
    );
}
