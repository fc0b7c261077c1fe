//! Every byte the binary encoders write, pinned.
//!
//! `tests/golden/wire-bytes.txt` holds one `name hex` line per artifact
//! — a profile file in both formats, every DCPF message kind, a WAL
//! before and after rotation, a DCST section and a DCIM image — as the
//! encoders wrote them when the file was recorded. Each fixed value here
//! must still encode to exactly its line, and each line must still
//! decode to exactly its value, so a codec refactor that moves a byte on
//! disk or wire, or stops reading one an older build wrote, fails by
//! name. Regenerate with `DCPI_BLESS=1` only when a format change is the
//! point of the PR.

use dcpi::collect::faults::LossLedger;
use dcpi::collect::wire::{decode_msg, encode_msg, EpochBatch, Msg, FEATURE_STACKS};
use dcpi::core::codec::{crc32, decode_profile, encode_profile, Format};
use dcpi::core::{golden, Event, ImageId, Pid, Profile, UNKNOWN_IMAGE};
use dcpi::isa::{Image, Symbol};
use dcpi::server::journal::{AgentTotals, Checkpoint};
use dcpi::server::{scan, Journal, WalRecord, WAL_FILE};
use dcpi_stacks::{Frame, StackProfile};
use dcpi_testkit::TempRoot;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// The recorded lines, checked off as the test visits them.
struct Golden {
    path: PathBuf,
    bless: bool,
    lines: BTreeMap<String, Vec<u8>>,
    seen: Vec<(String, Vec<u8>)>,
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn unhex(text: &str) -> Vec<u8> {
    assert!(text.len().is_multiple_of(2), "odd hex length");
    (0..text.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&text[i..i + 2], 16).expect("hex digit"))
        .collect()
}

impl Golden {
    fn load() -> Golden {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/wire-bytes.txt");
        let bless = golden::blessing();
        let mut lines = BTreeMap::new();
        if !bless {
            let text = std::fs::read_to_string(&path).expect("committed golden file");
            for line in text.lines() {
                let (name, bytes) = line.split_once(' ').expect("`name hex` line");
                assert!(
                    lines.insert(name.to_owned(), unhex(bytes)).is_none(),
                    "{name} recorded twice"
                );
            }
        }
        Golden {
            path,
            bless,
            lines,
            seen: Vec::new(),
        }
    }

    /// Holds `encoded` to the line recorded under `name` and returns the
    /// recorded bytes, which the caller decodes back to its value.
    fn pin(&mut self, name: &str, encoded: Vec<u8>) -> Vec<u8> {
        let recorded = if self.bless {
            encoded.clone()
        } else {
            self.lines
                .remove(name)
                .unwrap_or_else(|| panic!("{name}: no such line in {}", self.path.display()))
        };
        assert!(
            encoded == recorded,
            "{name}: a byte moved\n  recorded {}\n  encoded  {}",
            hex(&recorded),
            hex(&encoded)
        );
        self.seen.push((name.to_owned(), encoded));
        recorded
    }

    fn finish(self) {
        if self.bless {
            let text: String = self
                .seen
                .iter()
                .map(|(name, bytes)| format!("{name} {}\n", hex(bytes)))
                .collect();
            std::fs::write(&self.path, text).expect("write the golden file");
        }
        let stale: Vec<&String> = self.lines.keys().collect();
        assert!(stale.is_empty(), "recorded but never encoded: {stale:?}");
    }
}

fn frame(image: u32, offset: u64) -> Frame {
    Frame {
        image: ImageId(image),
        offset,
    }
}

/// Aligned and unaligned offsets, one- to three-byte varints, all within
/// `u32` so the fixed-width format holds the same values.
fn fixed_profile() -> Profile {
    [
        (0u64, 7u64),
        (4, 1),
        (8, 123_456),
        (13, 2),
        (1000, 9),
        (0x10_0000, 300),
    ]
    .into_iter()
    .collect()
}

fn fixed_batch() -> EpochBatch {
    let mut unknown = Profile::new();
    unknown.add(0x2000, 3);
    EpochBatch {
        epoch: 4,
        seal_cycle: 12_345_678,
        profiles: vec![
            (ImageId(1), Event::Cycles, fixed_profile()),
            (
                ImageId(1),
                Event::IMiss,
                [(8u64, 2u64)].into_iter().collect(),
            ),
            (UNKNOWN_IMAGE, Event::Cycles, unknown),
        ],
        image_names: vec![(ImageId(1), "/bin/copy \"é\"".into())],
        ledger: LossLedger {
            generated: 123_999,
            attributed: 123_780,
            unknown: 3,
            driver_dropped: 200,
            crash_lost: 16,
            quarantined: 0,
        },
        stacks: StackProfile::new(),
    }
}

fn fixed_stacks() -> StackProfile {
    let mut s = StackProfile::new();
    let cycles = Event::Cycles.code();
    s.record(cycles, Pid(7), &[frame(1, 0x100), frame(1, 0x204)], 5);
    s.record(cycles, Pid(7), &[frame(1, 0x100)], 3);
    s.record(
        Event::DMiss.code(),
        Pid(300),
        &[frame(1, 0x100), frame(2, u64::MAX)],
        1 << 40,
    );
    s
}

fn fixed_checkpoint() -> Checkpoint {
    let totals = |n: u64| AgentTotals {
        last_seq: n,
        uploads: n,
        samples: 1000 * n,
        generated: 1100 * n,
        losses: 100 * n,
    };
    Checkpoint {
        epoch_totals: vec![3000, 0, 4000],
        agents: [(2, totals(3)), (70_000, totals(4))].into(),
        ledger: LossLedger {
            generated: 7700,
            attributed: 6900,
            unknown: 100,
            driver_dropped: 400,
            crash_lost: 200,
            quarantined: 100,
        },
        fleet_merged: 7000,
    }
}

fn fixed_image() -> Image {
    Image::new(
        "/usr/bin/\u{e9}cho".into(),
        vec![0x0800_0000, 0xdead_beef, 0, u32::MAX, 0x4be0_0400],
        vec![
            Symbol {
                name: "main".into(),
                offset: 0,
                size: 12,
            },
            Symbol {
                name: String::new(),
                offset: 12,
                size: 0,
            },
            Symbol {
                name: "exit".into(),
                offset: 12,
                size: 8,
            },
        ],
    )
}

/// The frame a version-1 agent would have sent for `msg`: the same
/// payload under version byte 1, the CRC recomputed over `[1, type]`
/// and the payload. Valid only where `msg` carries no version-2 trailer.
fn v1_shaped(msg: &Msg) -> Vec<u8> {
    let mut out = encode_msg(msg);
    out[4] = 1;
    let crc_at = 7 + out[6..].iter().take_while(|&&b| b & 0x80 != 0).count();
    let covered = [&[1, out[5]][..], &out[crc_at + 4..]].concat();
    out[crc_at..crc_at + 4].copy_from_slice(&crc32(&covered).to_le_bytes());
    out
}

#[test]
fn encoders_write_and_decoders_read_the_recorded_bytes() {
    let mut g = Golden::load();

    let profile = fixed_profile();
    for (name, format, event) in [
        ("profile.v1", Format::V1, Event::Cycles),
        ("profile.v2", Format::V2, Event::DMiss),
    ] {
        let bytes = g.pin(name, encode_profile(&profile, event, format));
        assert_eq!(
            decode_profile(&bytes).expect(name),
            (profile.clone(), event)
        );
    }

    let stacked = EpochBatch {
        stacks: fixed_stacks(),
        ..fixed_batch()
    };
    let upload = Msg::Upload {
        agent: 7,
        incarnation: 2,
        seq: 100,
        batch: fixed_batch(),
    };
    let msgs = [
        (
            "dcpf.register",
            Msg::Register {
                agent: 7,
                incarnation: 2,
                features: FEATURE_STACKS,
            },
        ),
        (
            "dcpf.register-ack",
            Msg::RegisterAck {
                agent: 7,
                last_seq: 99,
            },
        ),
        ("dcpf.upload", upload.clone()),
        (
            "dcpf.upload-stacks",
            Msg::Upload {
                agent: 70_000,
                incarnation: 3,
                seq: 1 << 33,
                batch: stacked,
            },
        ),
        (
            "dcpf.ack",
            Msg::Ack {
                agent: 7,
                seq: 100,
                duplicate: true,
                backpressure: false,
            },
        ),
        (
            "dcpf.nack",
            Msg::Nack {
                agent: 7,
                seq: 105,
                expected: 101,
                backpressure: true,
            },
        ),
        (
            "dcpf.heartbeat",
            Msg::Heartbeat {
                agent: 7,
                incarnation: 2,
            },
        ),
        (
            "dcpf.heartbeat-ack",
            Msg::HeartbeatAck {
                agent: 7,
                backpressure: true,
            },
        ),
    ];
    for (name, msg) in &msgs {
        let bytes = g.pin(name, encode_msg(msg));
        assert_eq!(&decode_msg(&bytes).expect(name), msg, "{name}");
    }
    // What a legacy agent sends still reads as the same values.
    let featureless = Msg::Register {
        agent: 9,
        incarnation: 1,
        features: 0,
    };
    for (name, msg) in [
        ("dcpf.v1.register", &featureless),
        ("dcpf.v1.upload", &upload),
    ] {
        let bytes = g.pin(name, v1_shaped(msg));
        assert_eq!(bytes[4], 1, "{name}: version byte");
        assert_eq!(&decode_msg(&bytes).expect(name), msg, "{name}");
    }

    // The WAL's three record kinds: frames and an intent, then the
    // checkpoint a rotation leaves with a frame appended after it.
    let root = TempRoot::new("wire-bytes-wal");
    let wal = root.join(WAL_FILE);
    let (frame_a, frame_b) = (encode_msg(&upload), b"opaque to the log".to_vec());
    let intent = vec![(7u32, 100u64), (70_000, 1 << 33)];
    let checkpoint = fixed_checkpoint();
    let mut journal = Journal::open(&root).expect("open the WAL");
    journal.append_frame(&frame_a).expect("append");
    journal.append_frame(&frame_b).expect("append");
    journal.append_intent(3, &intent).expect("append");
    g.pin(
        "wal.frames-intent",
        std::fs::read(&wal).expect("read the WAL"),
    );
    let s = scan(&wal).expect("scan");
    assert!(s.is_clean_tail());
    let tail = s.tail().expect("grammar");
    assert!(tail.checkpoint.is_none());
    assert_eq!(tail.frames, [&frame_a[..], &frame_b[..]]);
    assert_eq!(tail.intent, Some((3, &intent[..])));

    journal.rotate(&checkpoint).expect("rotate");
    journal.append_frame(&frame_b).expect("append");
    let bytes = g.pin(
        "wal.checkpoint-frame",
        std::fs::read(&wal).expect("read the WAL"),
    );
    assert_eq!(journal.bytes(), bytes.len() as u64);
    let s = scan(&wal).expect("scan");
    assert!(s.is_clean_tail());
    assert_eq!(s.records.len(), 2);
    assert_eq!(s.records[0], WalRecord::Checkpoint(checkpoint.clone()));
    let tail = s.tail().expect("grammar");
    assert_eq!(tail.checkpoint, Some(&checkpoint));
    assert_eq!(tail.frames, [&frame_b[..]]);
    assert!(tail.intent.is_none());
    drop(root);

    let stacks = fixed_stacks();
    let bytes = g.pin("dcst", stacks.to_bytes());
    assert_eq!(StackProfile::from_bytes(&bytes).expect("dcst"), stacks);

    let image = fixed_image();
    let bytes = g.pin("dcim", image.to_bytes());
    let back = Image::from_bytes(&bytes).expect("dcim");
    assert_eq!(back.name(), image.name());
    assert_eq!(back.words(), image.words());
    assert_eq!(back.symbols(), image.symbols());

    g.finish();
}
