//! Mutation fuzz for every binary decoder, from one table.
//!
//! Each row of [`TABLE`] names a decoder a hostile agent or a bad disk
//! can reach — profile files in both formats, DCPF messages, the WAL
//! scan, DCST sections, DCIM images, and the one text file beside them,
//! the database's name map — with a seed corpus drawn from the
//! format's own encoder and the encoder to hold accepted values to.
//! Every seed is damaged (bit flips, insertions, deletions, splices from
//! the other seeds, every truncation, counts that lie) and, for the
//! three framed formats, damaged again *inside* the frame with the CRC
//! recomputed, so the payload decoders are reached and not just the
//! checksum. Each input must come back `Ok` or `Err` with
//!
//! * no panic;
//! * no more than `alloc_factor` bytes requested from the allocator per
//!   byte of input, plus [`ALLOC_SLACK`] — a count in the input never
//!   sizes a reservation, only the input's length does;
//! * if `Ok`, the value re-encoding to exactly the bytes it was read
//!   from: every accepted input is the one spelling of its value. The
//!   deliberate exception is a version tag the encoder no longer
//!   writes: a version-1 DCPF frame decodes, and the re-encoder here
//!   seals under the version byte the input carried.
//!
//! The binary ones walk their input through `dcpi::core::codec::Reader`,
//! so a failure there is a failure of that one cursor or of a rule layered
//! on it. Seeded: a failure prints the row and the input in hex.

mod common;

use common::HOSTILE;
use dcpi::collect::faults::LossLedger;
use dcpi::collect::wire::{decode_msg, encode_msg, EpochBatch, Msg, FRAME as DCPF, WIRE_VERSION};
use dcpi::core::codec::{
    decode_profile, encode_profile, put_varint, Format, Frame, Reader, PROFILE_FRAME,
};
use dcpi::core::db::{image_name_line, parse_image_names, ProfileDb};
use dcpi::core::prng::CartaRng;
use dcpi::core::{Event, ImageId, Pid, Profile};
use dcpi::isa::{Image, Symbol};
use dcpi::server::journal::{AgentTotals, Checkpoint, RECORD as WAL_RECORD};
use dcpi::server::{scan, Journal, WAL_FILE};
use dcpi_stacks::StackProfile;
use dcpi_testkit::{measure, mutate, Allocs, TempRoot};
use std::panic::catch_unwind;

/// Flat allowance on top of each row's per-byte factor: error strings,
/// paths, the first growth step of a few containers.
const ALLOC_SLACK: u64 = 2048;

/// Bytes decoders care about, for the mutator to insert or overwrite.
const PICKS: &[u8] = &[0x00, 0x01, 0x02, 0x7f, 0x80, 0x81, 0xfe, 0xff];

/// What a decoder made of an input: how many leading bytes its value
/// accounts for (all of them, except for a log with a torn tail) and
/// the value's own encoder, to be held to exactly those bytes.
struct Accepted {
    len: usize,
    reencode: Box<dyn FnOnce() -> Vec<u8>>,
}

struct Row {
    name: &'static str,
    /// One valid input, from the format's encoder.
    seed: fn(&mut Gen) -> Vec<u8>,
    decode: fn(&[u8]) -> Result<Accepted, String>,
    /// The envelope, for the formats that have one.
    frame: Option<Frame>,
    /// Hand-made inputs that must be refused: counts that claim more
    /// than the input holds.
    lies: fn() -> Vec<Vec<u8>>,
    /// Bytes `decode` may request per byte of input.
    alloc_factor: u64,
}

static TABLE: [Row; 7] = [
    Row {
        name: "profile.v1",
        seed: |g| encode_profile(&g.profile(u64::from(u32::MAX)), g.event(), Format::V1),
        decode: profile,
        frame: Some(PROFILE_FRAME),
        lies: || profile_lies(Format::V1),
        // 16 B of run per 8 B record.
        alloc_factor: 4,
    },
    Row {
        name: "profile.v2",
        seed: |g| encode_profile(&g.profile(u64::MAX), g.event(), Format::V2),
        decode: profile,
        frame: Some(PROFILE_FRAME),
        lies: || profile_lies(Format::V2),
        // 16 B of run per 2 B record.
        alloc_factor: 16,
    },
    Row {
        name: "dcpf",
        seed: |g| {
            let sealed = encode_msg(&g.msg());
            // One frame in four as a version-1 agent would have sent it.
            match g.below(4) {
                0 => reseal(&DCPF, &sealed, |tags, _| tags[0] = 1),
                _ => sealed,
            }
        },
        decode: |input| {
            let msg = decode_msg(input).map_err(|e| e.to_string())?;
            let version = input[4];
            let reencode = move || {
                reseal(&DCPF, &encode_msg(&msg), |tags, _| {
                    assert_eq!(tags[0], WIRE_VERSION);
                    tags[0] = version;
                })
            };
            Ok(Accepted {
                len: input.len(),
                reencode: Box::new(reencode),
            })
        },
        frame: Some(DCPF),
        lies: dcpf_lies,
        // The stacks section dominates; see the DCST row.
        alloc_factor: 64,
    },
    Row {
        name: "wal",
        seed: |g| {
            let root = TempRoot::new("binary-fuzz-seed");
            let mut journal = Journal::open(&root).expect("open");
            if g.below(2) == 0 {
                journal.rotate(&g.checkpoint()).expect("rotate");
            }
            for _ in 0..g.below(4) {
                let frame = match g.below(2) {
                    0 => encode_msg(&g.msg()),
                    _ => g.bytes(40),
                };
                journal.append_frame(&frame).expect("append");
            }
            if g.below(2) == 0 {
                let entries: Vec<(u32, u64)> = (0..g.below(4))
                    .map(|_| (g.below(1 << 20) as u32, g.stamp()))
                    .collect();
                let epoch = g.below(300) as u32;
                journal.append_intent(epoch, &entries).expect("append");
            }
            std::fs::read(root.join(WAL_FILE)).expect("read")
        },
        decode: |input| {
            let root = TempRoot::new("binary-fuzz-scan");
            std::fs::write(root.join(WAL_FILE), input).expect("write");
            let scanned = scan(&root.join(WAL_FILE)).map_err(|e| e.to_string())?;
            assert_eq!(scanned.clean_bytes + scanned.torn_bytes, input.len() as u64);
            scanned.tail().map_err(|e| e.to_string())?;
            let len = scanned.clean_bytes as usize;
            // Replayed through the append handle, the records are the
            // clean prefix again.
            let reencode = move || {
                let tail = scanned.tail().expect("checked above");
                let root = TempRoot::new("binary-fuzz-replay");
                let mut journal = Journal::open(&root).expect("open");
                if let Some(checkpoint) = tail.checkpoint {
                    journal.rotate(checkpoint).expect("rotate");
                }
                for frame in tail.frames {
                    journal.append_frame(frame).expect("append");
                }
                if let Some((epoch, entries)) = tail.intent {
                    journal.append_intent(epoch, entries).expect("append");
                }
                std::fs::read(root.join(WAL_FILE)).expect("read")
            };
            Ok(Accepted {
                len,
                reencode: Box::new(reencode),
            })
        },
        frame: Some(WAL_RECORD),
        lies: || {
            // A checkpoint of 2^31 epochs, an intent of 2^60 entries.
            let mut epochs = Vec::new();
            put_varint(&mut epochs, 1 << 31);
            let mut entries = vec![0];
            put_varint(&mut entries, 1 << 60);
            vec![
                WAL_RECORD.seal(&[3], &[&epochs[..], &[1, 2, 3]].concat()),
                WAL_RECORD.seal(&[2], &[&entries[..], &[1, 2, 3]].concat()),
            ]
        },
        // The log as read, then a ~110 B record per 6 B empty frame in
        // a vector that doubles as it grows.
        alloc_factor: 48,
    },
    Row {
        name: "dcst",
        seed: |g| g.stacks().to_bytes(),
        decode: |input| {
            let stacks = StackProfile::from_bytes(input)?;
            Ok(Accepted {
                len: input.len(),
                reencode: Box::new(move || stacks.to_bytes()),
            })
        },
        frame: None,
        lies: || {
            let mut nodes = b"DCST\x01".to_vec();
            put_varint(&mut nodes, 1 << 20);
            let mut counts = b"DCST\x01\x00".to_vec();
            put_varint(&mut counts, 1 << 60);
            vec![nodes, counts]
        },
        // A 3-byte node is a 16 B pair, a 16 B table node and an index
        // entry, the last two in containers that double as they grow.
        alloc_factor: 64,
    },
    Row {
        name: "dcim",
        seed: |g| g.image().to_bytes(),
        decode: |input| {
            let image = Image::from_bytes(input)?;
            Ok(Accepted {
                len: input.len(),
                reencode: Box::new(move || image.to_bytes()),
            })
        },
        frame: None,
        lies: || {
            let words = (1u32 << 24).to_le_bytes();
            let header = [&b"DCIM\x01\0\0\0\0"[..], &words].concat();
            assert_eq!(header.len(), 13);
            let symbols = [&b"DCIM\x01\0\0\0\0\0\0\0\0"[..], &words].concat();
            vec![header, symbols]
        },
        // Words and 40 B symbols per 20 B, each copied once into its Arc.
        alloc_factor: 8,
    },
    Row {
        name: "images.tsv",
        seed: |g| {
            let mut image = 0;
            let lines = (0..g.below(6)).map(|_| {
                image += 1 + g.below(70_000) as u32;
                let name = match g.below(2) {
                    0 => format!("/usr/bin/app{image}"),
                    _ => g.hostile_name(),
                };
                image_name_line(ImageId(image), &name)
            });
            lines.collect::<String>().into_bytes()
        },
        // Like the log, a map is its leading lines that parse: the first
        // refused line ends what the input is held to.
        decode: |input| {
            let lines = input.split_inclusive(|&b| b == b'\n');
            let accepted: Vec<(usize, (ImageId, String))> = lines
                .zip(parse_image_names(input))
                .map_while(|(line, parsed)| Some((line.len(), parsed?)))
                .collect();
            let len = accepted.iter().map(|(len, _)| len).sum();
            let reencode = move || {
                let lines = accepted
                    .iter()
                    .map(|(_, (id, name))| image_name_line(*id, name));
                lines.collect::<String>().into_bytes()
            };
            Ok(Accepted {
                len,
                reencode: Box::new(reencode),
            })
        },
        frame: None,
        // No newline; second spellings of an id; a raw separator; escapes
        // the writer never writes; an id past `u32`.
        lies: || {
            let lines = [
                "7\t/bin/app",
                "+7\ta\n",
                "007\ta\n",
                "7\ta\tb\n",
                "7\ta\r\n",
                "7\ta\\x\n",
                "7\ta\\\n",
                "4294967296\ta\n",
            ];
            lines.iter().map(|l| l.as_bytes().to_vec()).collect()
        },
        // A 3-byte line is a 40 B entry of `accepted` here, in a vector
        // that doubles as it grows; the parser's own name and re-spelling
        // stay within twice their line.
        alloc_factor: 64,
    },
];

fn profile(input: &[u8]) -> Result<Accepted, String> {
    let (profile, event) = decode_profile(input).map_err(|e| e.to_string())?;
    let format = Format::from_version(input[4]).expect("decoded, so a known version");
    Ok(Accepted {
        len: input.len(),
        reencode: Box::new(move || encode_profile(&profile, event, format)),
    })
}

fn profile_lies(format: Format) -> Vec<Vec<u8>> {
    let tags = [format.version(), 0];
    let mut huge = Vec::new();
    put_varint(&mut huge, 1 << 60);
    // Three records claimed, two held.
    let held: &[u8] = match format {
        Format::V1 => &[4, 0, 0, 0, 1, 0, 0, 0, 8, 0, 0, 0, 1, 0, 0, 0],
        Format::V2 => &[2, 1, 2, 1],
    };
    let one_more = [&[3], held].concat();
    vec![
        PROFILE_FRAME.seal(&tags, &huge),
        PROFILE_FRAME.seal(&tags, &one_more),
    ]
}

fn dcpf_lies() -> Vec<Vec<u8>> {
    // An upload whose every field is one byte, so the profile count is
    // payload byte 11 and the name count byte 12.
    let empty = encode_msg(&Msg::Upload {
        agent: 1,
        incarnation: 1,
        seq: 1,
        batch: EpochBatch::default(),
    });
    let lying_count = |at: usize| {
        reseal(&DCPF, &empty, |_, payload| {
            assert_eq!((payload.len(), payload[at]), (13, 0));
            let mut claim = Vec::new();
            put_varint(&mut claim, 1 << 60);
            payload.splice(at..=at, claim);
        })
    };
    // And two second spellings too rare for the mutator to chance on:
    // a trailer that is present to say "nothing".
    let featureless = encode_msg(&Msg::Register {
        agent: 1,
        incarnation: 1,
        features: 0,
    });
    let no_stacks = StackProfile::new().to_bytes();
    vec![
        lying_count(11),
        lying_count(12),
        reseal(&DCPF, &featureless, |_, payload| payload.push(0)),
        reseal(&DCPF, &empty, |_, payload| {
            payload.push(no_stacks.len() as u8);
            payload.extend_from_slice(&no_stacks);
        }),
    ]
}

/// Opens every frame in `input`, lets `edit` at the tags and payload of
/// the first, and seals them all again: damage the checksum vouches for.
fn reseal(frame: &Frame, input: &[u8], edit: impl FnOnce(&mut Vec<u8>, &mut Vec<u8>)) -> Vec<u8> {
    let mut r = Reader::new(input);
    let (tags, payload) = frame.open(&mut r).expect("own encoding is well framed");
    let (mut tags, mut payload) = (tags.to_vec(), payload.to_vec());
    edit(&mut tags, &mut payload);
    let mut out = frame.seal(&tags, &payload);
    out.extend_from_slice(r.bytes(r.remaining()).expect("the rest"));
    out
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

struct Gen(CartaRng);

impl Gen {
    fn below(&mut self, n: u64) -> u64 {
        self.0.uniform(0, n - 1)
    }

    /// Integers where width is at stake: every varint length, `u64::MAX`.
    fn stamp(&mut self) -> u64 {
        match self.below(5) {
            0 => u64::MAX,
            1 => 0,
            2 => {
                let wide = (u64::from(self.0.next_u31()) << 33) ^ u64::from(self.0.next_u31());
                wide >> self.below(64)
            }
            _ => self.below(300),
        }
    }

    fn bytes(&mut self, max: u64) -> Vec<u8> {
        (0..self.below(max + 1))
            .map(|_| self.below(256) as u8)
            .collect()
    }

    fn name(&mut self) -> String {
        const CHARS: [char; 8] = ['a', '/', '.', '\0', '"', 'é', '😀', ' '];
        (0..self.below(8))
            .map(|_| CHARS[self.below(8) as usize])
            .collect()
    }

    fn hostile_name(&mut self) -> String {
        (0..self.below(10))
            .map(|_| HOSTILE[self.below(HOSTILE.len() as u64) as usize])
            .collect()
    }

    fn event(&mut self) -> Event {
        Event::ALL[self.below(Event::ALL.len() as u64) as usize]
    }

    /// Strictly increasing offsets below `limit`, mostly word-aligned
    /// and dense, with the odd unaligned or far-away one.
    fn profile(&mut self, limit: u64) -> Profile {
        let mut run = Vec::new();
        let mut offset = 0u64;
        for i in 0..self.below(30) {
            let step = match self.below(8) {
                0 => self.below(64),
                1 => self.stamp() >> 1,
                _ => 4 * self.below(5),
            };
            offset = match offset.checked_add(step.max(u64::from(i > 0))) {
                Some(next) if next < limit => next,
                _ => break,
            };
            run.push((offset, self.stamp().clamp(1, limit)));
        }
        run.into_iter().collect()
    }

    fn ledger(&mut self) -> LossLedger {
        LossLedger {
            generated: self.stamp(),
            attributed: self.stamp(),
            unknown: self.stamp(),
            driver_dropped: self.stamp(),
            crash_lost: self.stamp(),
            quarantined: self.stamp(),
        }
    }

    fn stacks(&mut self) -> StackProfile {
        let mut stacks = StackProfile::new();
        for _ in 0..self.below(6) {
            let frames: Vec<dcpi_stacks::Frame> = (0..=self.below(4))
                .map(|_| dcpi_stacks::Frame {
                    image: ImageId(self.below(3) as u32),
                    offset: 4 * self.below(4) + (self.stamp() & !0xff),
                })
                .collect();
            let event = self.event().code();
            let pid = Pid(self.below(3) as u32 * 40_000);
            stacks.record(event, pid, &frames, self.stamp() >> 8);
        }
        stacks
    }

    fn msg(&mut self) -> Msg {
        let agent = self.below(1 << 20) as u32;
        let incarnation = self.below(200) as u32;
        let (seq, backpressure) = (self.stamp(), self.below(2) == 0);
        match self.below(9) {
            0 => Msg::Register {
                agent,
                incarnation,
                features: self.below(2) * self.stamp(),
            },
            1 => Msg::RegisterAck {
                agent,
                last_seq: seq,
            },
            2 => Msg::Ack {
                agent,
                seq,
                duplicate: self.below(2) == 0,
                backpressure,
            },
            3 => Msg::Nack {
                agent,
                seq,
                expected: self.stamp(),
                backpressure,
            },
            4 => Msg::Heartbeat { agent, incarnation },
            5 => Msg::HeartbeatAck {
                agent,
                backpressure,
            },
            _ => Msg::Upload {
                agent,
                incarnation,
                seq,
                batch: EpochBatch {
                    epoch: self.below(1 << 20) as u32,
                    seal_cycle: self.stamp(),
                    profiles: (0..self.below(3))
                        .map(|i| (ImageId(i as u32), self.event(), self.profile(u64::MAX)))
                        .collect(),
                    image_names: (0..self.below(3))
                        .map(|i| (ImageId(i as u32), self.name()))
                        .collect(),
                    ledger: self.ledger(),
                    stacks: match self.below(2) {
                        0 => self.stacks(),
                        _ => StackProfile::new(),
                    },
                },
            },
        }
    }

    fn checkpoint(&mut self) -> Checkpoint {
        let mut agent = 0u32;
        Checkpoint {
            epoch_totals: (0..self.below(5)).map(|_| self.stamp()).collect(),
            agents: (0..self.below(4))
                .map(|_| {
                    agent += 1 + self.below(70_000) as u32;
                    let totals = AgentTotals {
                        last_seq: self.stamp(),
                        uploads: self.stamp(),
                        samples: self.stamp(),
                        generated: self.stamp(),
                        losses: self.stamp(),
                    };
                    (agent, totals)
                })
                .collect(),
            ledger: self.ledger(),
            fleet_merged: self.stamp(),
        }
    }

    fn image(&mut self) -> Image {
        let words: Vec<u32> = (0..self.below(24)).map(|_| self.0.next_u31()).collect();
        let text_bytes = 4 * words.len() as u64;
        let mut symbols = Vec::new();
        let mut offset = 0;
        for _ in 0..self.below(5) {
            offset += 4 * self.below(3);
            if offset > text_bytes {
                break;
            }
            symbols.push(Symbol {
                name: self.name(),
                offset,
                size: self.below(text_bytes - offset + 1),
            });
        }
        Image::new(self.name(), words, symbols)
    }
}

/// Decodes `input` under the row's allocation bound and holds an
/// accepted value to the bytes it came from. True if `input` was
/// accepted whole.
fn check(row: &Row, input: &[u8]) -> bool {
    let (got, Allocs { bytes, .. }) = measure(|| catch_unwind(|| (row.decode)(input)));
    let bound = row.alloc_factor * input.len() as u64 + ALLOC_SLACK;
    let name = row.name;
    let got = got.unwrap_or_else(|_| panic!("{name}: the decoder panicked on {}", hex(input)));
    assert!(
        bytes <= bound,
        "{name}: {bytes} B requested for {} B of input (bound {bound}): {}",
        input.len(),
        hex(input)
    );
    let Ok(accepted) = got else {
        return false;
    };
    let again = (accepted.reencode)();
    assert!(
        again == input[..accepted.len],
        "{name}: a second spelling was accepted\n  input     {}\n  re-encoded {}",
        hex(input),
        hex(&again)
    );
    accepted.len == input.len()
}

fn fuzz(row: &Row, seed: u32) {
    let mut g = Gen(CartaRng::new(seed));
    let name = row.name;
    let (mut accepted, mut rejected) = (0u32, 0u32);
    let mut tally = |ok: bool| *(if ok { &mut accepted } else { &mut rejected }) += 1;
    let seeds: Vec<Vec<u8>> = (0..16).map(|_| (row.seed)(&mut g)).collect();
    for (i, doc) in seeds.iter().enumerate() {
        assert!(
            check(row, doc),
            "{name}: own encoding refused: {}",
            hex(doc)
        );
        let donor = &seeds[(i + 1) % seeds.len()];
        for _ in 0..250 {
            let mut bytes = doc.clone();
            mutate(&mut bytes, PICKS, donor, &mut |n| g.below(n));
            tally(check(row, &bytes));
        }
        // The same damage behind a checksum that vouches for it. An
        // empty log has no frame to reach into.
        let Some(frame) = row.frame.filter(|_| !doc.is_empty()) else {
            continue;
        };
        for _ in 0..250 {
            let inside = reseal(&frame, doc, |tags, payload| match g.below(8) {
                0 => {
                    let at = g.below(tags.len() as u64) as usize;
                    tags[at] ^= 1 << g.below(8);
                }
                _ => mutate(payload, PICKS, donor, &mut |n| g.below(n)),
            });
            tally(check(row, &inside));
        }
        let len = reseal(&frame, doc, |_, payload| payload.clear()).len();
        for cut in 0..doc.len().saturating_sub(len) {
            tally(check(row, &reseal(&frame, doc, |_, p| p.truncate(cut))));
        }
    }
    let longest = seeds.iter().max_by_key(|doc| doc.len()).expect("seeds");
    for cut in 0..longest.len() {
        tally(check(row, &longest[..cut]));
    }
    for lie in (row.lies)() {
        assert!(
            !check(row, &lie),
            "{name}: a hand-made lie passed: {}",
            hex(&lie)
        );
    }
    assert!(
        accepted > 50 && rejected > 2_000,
        "{name}: {accepted} accepted, {rejected} rejected: the mutations are not biting"
    );
}

#[test]
fn profile_files_survive_mutation() {
    fuzz(&TABLE[0], 0xb1f0);
    fuzz(&TABLE[1], 0xb1f1);
}

#[test]
fn dcpf_messages_survive_mutation() {
    fuzz(&TABLE[2], 0xb1f2);
}

#[test]
fn wal_scan_survives_mutation() {
    fuzz(&TABLE[3], 0xb1f3);
}

#[test]
fn dcst_sections_survive_mutation() {
    fuzz(&TABLE[4], 0xb1f4);
}

#[test]
fn dcim_images_survive_mutation() {
    fuzz(&TABLE[5], 0xb1f5);
}

#[test]
fn name_maps_survive_mutation() {
    fuzz(&TABLE[6], 0xb1f6);
}

/// Whatever an agent calls an image is what the database calls it after
/// a reopen, and no name spills into another image's.
#[test]
fn hostile_names_round_trip_through_the_database() {
    let root = TempRoot::new("binary-fuzz-names");
    let mut names: Vec<String> = HOSTILE.iter().map(|c| format!("/bin/{c}app{c}")).collect();
    names.push(HOSTILE.iter().collect());
    names.push(String::new());
    let mut db = ProfileDb::create(&root, Format::V2).expect("create");
    let ids = (0u32..).step_by(3).map(ImageId);
    db.record_image_names(ids.clone().zip(names.iter().map(String::as_str)))
        .expect("record");
    let db = ProfileDb::open(&root, Format::V2).expect("open");
    for (id, name) in ids.zip(&names) {
        assert_eq!(db.image_name(id), Some(name.as_str()), "image {}", id.0);
        assert_eq!(db.image_name(ImageId(id.0 + 1)), None, "image {}", id.0 + 1);
    }
}

/// The two reservations this table was written after: a 13-byte DCIM
/// header used to reserve 64 MiB, a header-only DCST 24 MB. Both are
/// among their rows' lies; here they are held to a flat bound.
#[test]
fn a_header_alone_reserves_nothing() {
    for row in [&TABLE[4], &TABLE[5]] {
        for lie in (row.lies)() {
            assert!(lie.len() <= 17, "{}: header-only", row.name);
            let (got, Allocs { bytes, .. }) = measure(|| (row.decode)(&lie));
            assert!(got.is_err(), "{}: {} accepted", row.name, hex(&lie));
            assert!(bytes < 4096, "{}: {bytes} B for {}", row.name, hex(&lie));
        }
    }
    assert!(Reader::new(&[0x80, 0x00]).varint().is_err());
}
