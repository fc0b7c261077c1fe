//! Mixed-fleet wire compatibility (protocol v2 rollout): one agent
//! walks stacks and uploads v2 frames with calling-context sections,
//! one legacy agent speaks literal version-1 frames with no stacks.
//! Both must ingest into the same server: flat profiles merge from
//! both, the fleet stack profile comes only from the capable agent,
//! and a crash-recovered server serves the same stack view from the
//! epoch sidecars its merges wrote.

use dcpi_collect::faults::LossLedger;
use dcpi_collect::wire::{decode_msg, encode_msg, EpochBatch, Msg, FEATURE_STACKS, FRAME};
use dcpi_core::codec::Reader;
use dcpi_core::profile::Profile;
use dcpi_core::{Event, ImageId, Pid};
use dcpi_server::{IngestServer, ServerConfig};
use dcpi_stacks::{Frame, StackProfile};
use dcpi_testkit::TempRoot;

/// Re-frames a v2-encoded message as a literal version-1 frame: same
/// payload, version byte 1, CRC recomputed. Valid only for messages
/// whose payload carries no v2 trailer (featureless registers,
/// stack-less uploads) — exactly what a legacy agent produces.
fn as_v1_frame(frame: &[u8]) -> Vec<u8> {
    let (tags, payload) = FRAME.open(&mut Reader::new(frame)).unwrap();
    FRAME.seal(&[1, tags[1]], payload)
}

fn frame(image: u32, offset: u64) -> Frame {
    Frame {
        image: ImageId(image),
        offset,
    }
}

/// A batch attributing `samples` cycles samples to `image`, optionally
/// carrying a calling-context section over the same image.
fn batch(epoch: u32, image: u32, samples: u64, with_stacks: bool) -> EpochBatch {
    let mut p = Profile::new();
    p.add(0x40, samples);
    let mut stacks = StackProfile::new();
    if with_stacks {
        let code = Event::Cycles.code();
        stacks.record(
            code,
            Pid(1),
            &[frame(image, 0x10), frame(image, 0x40)],
            samples - 1,
        );
        stacks.record(code, Pid(1), &[frame(image, 0x10)], 1);
    }
    EpochBatch {
        epoch,
        seal_cycle: u64::from(epoch) * 10,
        profiles: vec![(ImageId(image), Event::Cycles, p)],
        image_names: vec![(ImageId(image), format!("/bin/img{image}"))],
        ledger: LossLedger {
            generated: samples,
            attributed: samples,
            ..LossLedger::default()
        },
        stacks,
    }
}

fn expect_ack(replies: &[Vec<u8>]) {
    assert_eq!(replies.len(), 1);
    assert!(matches!(
        decode_msg(&replies[0]).unwrap(),
        Msg::Ack {
            duplicate: false,
            ..
        }
    ));
}

#[test]
fn stack_capable_and_legacy_agents_share_one_server() {
    let root = TempRoot::new("mixed-shared");
    let cfg = ServerConfig::new(&root);
    let mut server = IngestServer::create(cfg.clone()).unwrap();

    // Agent 1: v2, advertises stacks, uploads two stacked batches.
    server.on_frame(
        0,
        &encode_msg(&Msg::Register {
            agent: 1,
            incarnation: 1,
            features: FEATURE_STACKS,
        }),
    );
    // Agent 2: legacy — every frame it sends is literal version 1.
    let reg2 = encode_msg(&Msg::Register {
        agent: 2,
        incarnation: 1,
        features: 0,
    });
    server.on_frame(0, &as_v1_frame(&reg2));

    assert_eq!(server.sessions()[&1].features, FEATURE_STACKS);
    assert_eq!(server.sessions()[&2].features, 0);

    let mut expected_stacks = StackProfile::new();
    for (seq, epoch) in [(1u64, 0u32), (2, 1)] {
        let b = batch(epoch, 1, 40, true);
        expected_stacks.merge(&b.stacks);
        let up = encode_msg(&Msg::Upload {
            agent: 1,
            incarnation: 1,
            seq,
            batch: b,
        });
        expect_ack(&server.on_frame(1 + seq, &up));
    }
    let legacy_up = encode_msg(&Msg::Upload {
        agent: 2,
        incarnation: 1,
        seq: 1,
        batch: batch(0, 2, 25, false),
    });
    expect_ack(&server.on_frame(5, &as_v1_frame(&legacy_up)));

    server.finish(60).unwrap();

    // Flat profiles merged from BOTH agents.
    let (by_image, total, _unknown) = dcpi_server::image_totals(server.db()).unwrap();
    assert_eq!(total, 105, "40 + 40 + 25 samples visible fleet-wide");
    assert!(by_image.contains(&(ImageId(1), 80)));
    assert!(by_image.contains(&(ImageId(2), 25)));

    // The calling-context profile holds exactly the capable agent's
    // stacks — conserving its sample count — and nothing from agent 2.
    let stacks = server.stack_profile();
    assert_eq!(stacks.total(), 80);
    assert_eq!(stacks.to_bytes(), expected_stacks.to_bytes());
    stacks.table.check_bijective().unwrap();

    // Kill the server with no goodbye; the recovered one must serve the
    // same stack view (the log is one checkpoint: the sidecars hold it).
    drop(server);
    let recovered = IngestServer::reopen(cfg, 100).unwrap();
    assert_eq!(
        recovered.stack_profile().to_bytes(),
        expected_stacks.to_bytes(),
        "reopen lost or reordered calling-context data"
    );
    let (_, total, _) = dcpi_server::image_totals(recovered.db()).unwrap();
    assert_eq!(total, 105);
}

#[test]
fn legacy_frames_survive_the_wal_roundtrip() {
    // A v1 frame journaled to the WAL must replay after a crash even
    // though the server re-decodes it from raw bytes: version handling
    // is in the single decode path, not per-caller.
    let root = TempRoot::new("mixed-wal-v1");
    let cfg = ServerConfig::new(&root);
    let mut server = IngestServer::create(cfg.clone()).unwrap();
    let reg = encode_msg(&Msg::Register {
        agent: 9,
        incarnation: 1,
        features: 0,
    });
    server.on_frame(0, &as_v1_frame(&reg));
    let up = encode_msg(&Msg::Upload {
        agent: 9,
        incarnation: 1,
        seq: 1,
        batch: batch(0, 3, 12, false),
    });
    expect_ack(&server.on_frame(1, &as_v1_frame(&up)));
    // Crash BEFORE any merge: the batch exists only in the WAL.
    drop(server);
    let mut recovered = IngestServer::reopen(cfg, 10).unwrap();
    assert_eq!(recovered.stats.replayed_batches, 1);
    recovered.finish(20).unwrap();
    let (by_image, total, _) = dcpi_server::image_totals(recovered.db()).unwrap();
    assert_eq!(total, 12);
    assert!(by_image.contains(&(ImageId(3), 12)));
    assert!(recovered.stack_profile().is_empty());
}
