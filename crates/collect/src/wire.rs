//! The fleet upload wire protocol.
//!
//! Agents push sealed collection epochs to the central `dcpi-server`
//! as [`FRAME`]s — [`dcpi_core::codec::Frame`], the envelope profile
//! files use, tagged `[version, type]` (DESIGN.md §6 has the layout) —
//! so a mid-record truncation or bit flip anywhere behind the magic is
//! detected at the receiver and the frame discarded — the transport is
//! allowed to be arbitrarily hostile (see `dcpi-server`'s
//! `NetFaultPlan`) because every corruption collapses
//! to "frame never arrived" and the retry protocol takes over.
//!
//! Reliability is end-to-end, not per-hop: uploads carry a per-agent
//! monotonic sequence number assigned when the epoch is sealed into
//! the durable spool. The server accepts exactly `last_seq + 1` from
//! each agent, re-acks anything at or below `last_seq` (a retry after
//! a lost ack), and rejects gaps — so every epoch is merged exactly
//! once no matter how often the network duplicates or the agent
//! retransmits.

use crate::faults::LossLedger;
use dcpi_core::codec::{self, put_varint, Frame, Reader};
use dcpi_core::error::{Error, Result};
use dcpi_core::profile::Profile;
use dcpi_core::{Event, ImageId};
use dcpi_stacks::StackProfile;

/// The fleet frame ("DCPI Fleet"), tagged `[version, type]`.
pub const FRAME: Frame = Frame {
    magic: b"DCPF",
    tag_bytes: 2,
};
/// Current protocol version. Version 2 added feature negotiation on
/// `Register` and an optional calling-context section on uploads; both
/// ride *after* the version-1 fields, so a v2 receiver decodes v1
/// frames unchanged (absent trailers mean "no features, no stacks").
pub const WIRE_VERSION: u8 = 2;
/// Oldest protocol version still accepted by [`decode_msg`].
pub const WIRE_VERSION_MIN: u8 = 1;

/// Feature bit: the agent walks call stacks and its uploads may carry
/// an [`EpochBatch::stacks`] section.
pub const FEATURE_STACKS: u64 = 1 << 0;

/// One sealed collection epoch, ready for upload. Carries the epoch's
/// per-`(image, event)` profiles, any image names first seen during the
/// epoch, and the agent-side [`LossLedger`] *delta* accrued since the
/// previous sealed epoch (including losses that happened between
/// epochs, e.g. a crash that destroyed an open epoch). Summing the
/// deltas of every batch the server accepted therefore reconstructs
/// the full fleet ledger from the journal alone.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct EpochBatch {
    /// Agent-local epoch number (informational; ordering is by seq).
    pub epoch: u32,
    /// Simulated tick at which the agent sealed the epoch. This is the
    /// span context's time origin: it rides the frame through the WAL to
    /// the merge, so every stage — and the server itself — can compute
    /// the epoch's ingest lag from its own clock without a side channel.
    pub seal_cycle: u64,
    /// Per-`(image, event)` profiles, sorted by `(image, event code)`.
    pub profiles: Vec<(ImageId, Event, Profile)>,
    /// Image names first recorded in this epoch.
    pub image_names: Vec<(ImageId, String)>,
    /// Agent-side ledger delta since the previous sealed epoch.
    pub ledger: LossLedger,
    /// Calling-context profile for the epoch (version 2+). Empty for
    /// stack-less agents; an empty profile is not encoded at all, so
    /// such uploads are byte-compatible with version 1.
    pub stacks: StackProfile,
}

impl EpochBatch {
    /// Total samples carried by the batch's profiles.
    #[must_use]
    pub fn sample_total(&self) -> u64 {
        self.profiles.iter().map(|(_, _, p)| p.total()).sum()
    }

    /// Samples attributed to the unknown image.
    #[must_use]
    pub fn unknown_total(&self) -> u64 {
        self.profiles
            .iter()
            .filter(|(img, _, _)| *img == dcpi_core::UNKNOWN_IMAGE)
            .map(|(_, _, p)| p.total())
            .sum()
    }
}

/// A fleet protocol message.
// `Upload` dominates wire traffic — nearly every frame is one — so the
// enum being Upload-sized wastes nothing, while boxing the batch would
// cost an allocation per epoch upload.
#[allow(clippy::large_enum_variant)]
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Msg {
    /// Agent (re-)introduces itself. `incarnation` bumps on every agent
    /// restart so the server can tell a crashed-and-recovered agent
    /// from a delayed duplicate of its former self.
    Register {
        /// Agent id.
        agent: u32,
        /// Restart counter.
        incarnation: u32,
        /// Capability bitmask ([`FEATURE_STACKS`] etc.). Version-1
        /// agents never send the field and decode as `0` — a stack-less
        /// agent ingests exactly as before.
        features: u64,
    },
    /// Server reply: the highest sequence number it has journaled for
    /// this agent. The agent drops spooled epochs at or below it (they
    /// were acked but the ack was lost) and resumes from there.
    RegisterAck {
        /// Agent id.
        agent: u32,
        /// Highest journaled sequence number (0 = none yet).
        last_seq: u64,
    },
    /// One sealed epoch.
    Upload {
        /// Agent id.
        agent: u32,
        /// Sender's incarnation (stale incarnations are ignored).
        incarnation: u32,
        /// Per-agent monotonic sequence number, assigned at seal time.
        seq: u64,
        /// The epoch payload.
        batch: EpochBatch,
    },
    /// Server accepted (or re-acknowledged) an upload. Sent only after
    /// the batch is durably journaled.
    Ack {
        /// Agent id.
        agent: u32,
        /// Sequence number acknowledged.
        seq: u64,
        /// True if this was a duplicate the server discarded.
        duplicate: bool,
        /// True if the agent should widen its upload interval.
        backpressure: bool,
    },
    /// Server rejected an upload (sequence gap or full ingest queue);
    /// `expected` tells the agent where to resume.
    Nack {
        /// Agent id.
        agent: u32,
        /// Sequence number rejected.
        seq: u64,
        /// The sequence number the server will accept next.
        expected: u64,
        /// True if the rejection was queue backpressure, not a gap.
        backpressure: bool,
    },
    /// Agent lease renewal while idle.
    Heartbeat {
        /// Agent id.
        agent: u32,
        /// Restart counter.
        incarnation: u32,
    },
    /// Server lease-renewal reply.
    HeartbeatAck {
        /// Agent id.
        agent: u32,
        /// True if the agent should widen its upload interval.
        backpressure: bool,
    },
}

impl Msg {
    /// Frame type byte.
    #[must_use]
    pub fn type_code(&self) -> u8 {
        match self {
            Msg::Register { .. } => 1,
            Msg::RegisterAck { .. } => 2,
            Msg::Upload { .. } => 3,
            Msg::Ack { .. } => 4,
            Msg::Nack { .. } => 5,
            Msg::Heartbeat { .. } => 6,
            Msg::HeartbeatAck { .. } => 7,
        }
    }

    /// The agent the message is from or for.
    #[must_use]
    pub fn agent(&self) -> u32 {
        match *self {
            Msg::Register { agent, .. }
            | Msg::RegisterAck { agent, .. }
            | Msg::Upload { agent, .. }
            | Msg::Ack { agent, .. }
            | Msg::Nack { agent, .. }
            | Msg::Heartbeat { agent, .. }
            | Msg::HeartbeatAck { agent, .. } => agent,
        }
    }
}

/// Appends a ledger as one varint per bucket, in
/// [`LossLedger::BUCKETS`] order (the `Upload` payload's encoding; the
/// server's WAL checkpoint reuses it).
pub fn put_ledger(buf: &mut Vec<u8>, l: &LossLedger) {
    for b in &LossLedger::BUCKETS {
        put_varint(buf, (b.get)(l));
    }
}

/// Takes a ledger written by [`put_ledger`].
///
/// # Errors
///
/// Returns [`Error::Corrupt`](dcpi_core::Error::Corrupt) on a truncated
/// or overlong varint.
pub fn get_ledger(r: &mut Reader) -> Result<LossLedger> {
    let mut l = LossLedger::default();
    for b in &LossLedger::BUCKETS {
        *(b.slot)(&mut l) = r.varint()?;
    }
    Ok(l)
}

fn put_prefixed(buf: &mut Vec<u8>, bytes: &[u8]) {
    put_varint(buf, bytes.len() as u64);
    buf.extend_from_slice(bytes);
}

fn put_batch(buf: &mut Vec<u8>, b: &EpochBatch) {
    put_varint(buf, u64::from(b.epoch));
    put_varint(buf, b.seal_cycle);
    put_ledger(buf, &b.ledger);
    put_varint(buf, b.profiles.len() as u64);
    for (image, event, profile) in &b.profiles {
        put_varint(buf, u64::from(image.0));
        let file = codec::encode_profile(profile, *event, codec::Format::V2);
        put_prefixed(buf, &file);
    }
    put_varint(buf, b.image_names.len() as u64);
    for (image, name) in &b.image_names {
        put_varint(buf, u64::from(image.0));
        put_prefixed(buf, name.as_bytes());
    }
    // Version-2 trailer: the epoch's calling-context section. Omitted
    // entirely when empty, so stack-less uploads stay v1-shaped.
    if !b.stacks.is_empty() {
        put_prefixed(buf, &b.stacks.to_bytes());
    }
}

fn get_batch(r: &mut Reader) -> Result<EpochBatch> {
    let epoch = r.var("epoch")?;
    let seal_cycle = r.varint()?;
    let ledger = get_ledger(r)?;
    // An entry is at least an image id and a length, a byte each.
    let mut profiles = Vec::new();
    for _ in 0..r.count(2)? {
        let image = ImageId(r.var("image id")?);
        let (profile, event) = codec::decode_profile(r.prefixed()?)?;
        profiles.push((image, event, profile));
    }
    let mut image_names = Vec::new();
    for _ in 0..r.count(2)? {
        let image = ImageId(r.var("image id")?);
        let name = std::str::from_utf8(r.prefixed()?)
            .map_err(|_| Error::Corrupt("image name is not UTF-8".into()))?;
        image_names.push((image, name.to_owned()));
    }
    // Optional v2 trailer: remaining bytes are the stacks section. A v1
    // frame ends here and decodes to an empty profile; an empty section
    // is never sent, so one that is present and empty is refused.
    let mut stacks = StackProfile::new();
    if !r.is_empty() {
        stacks = StackProfile::from_bytes(r.prefixed()?)
            .map_err(|e| Error::Corrupt(format!("bad stacks section: {e}")))?;
        if stacks.is_empty() {
            return Err(Error::Corrupt("empty stacks section".into()));
        }
    }
    Ok(EpochBatch {
        epoch,
        seal_cycle,
        profiles,
        image_names,
        ledger,
        stacks,
    })
}

/// Encodes a message into one CRC-framed wire record.
#[must_use]
pub fn encode_msg(msg: &Msg) -> Vec<u8> {
    let mut payload = Vec::new();
    let p = &mut payload;
    put_varint(p, u64::from(msg.agent()));
    match msg {
        Msg::Register {
            incarnation,
            features,
            ..
        } => {
            put_varint(p, u64::from(*incarnation));
            // v2 trailer; omitted when zero so the frame matches what a
            // featureless v1 agent would have sent.
            if *features != 0 {
                put_varint(p, *features);
            }
        }
        Msg::Heartbeat { incarnation, .. } => put_varint(p, u64::from(*incarnation)),
        Msg::RegisterAck { last_seq, .. } => put_varint(p, *last_seq),
        Msg::Upload {
            incarnation,
            seq,
            batch,
            ..
        } => {
            put_varint(p, u64::from(*incarnation));
            put_varint(p, *seq);
            put_batch(p, batch);
        }
        Msg::Ack {
            seq,
            duplicate,
            backpressure,
            ..
        } => {
            put_varint(p, *seq);
            p.extend_from_slice(&[u8::from(*duplicate), u8::from(*backpressure)]);
        }
        Msg::Nack {
            seq,
            expected,
            backpressure,
            ..
        } => {
            put_varint(p, *seq);
            put_varint(p, *expected);
            p.push(u8::from(*backpressure));
        }
        Msg::HeartbeatAck { backpressure, .. } => p.push(u8::from(*backpressure)),
    }
    FRAME.seal(&[WIRE_VERSION, msg.type_code()], &payload)
}

/// Takes a flag byte: 0 or 1, the only two [`encode_msg`] writes.
fn flag(r: &mut Reader) -> Result<bool> {
    match r.u8()? {
        0 => Ok(false),
        1 => Ok(true),
        other => Err(Error::Corrupt(format!("flag byte {other}"))),
    }
}

/// Decodes one wire record.
///
/// # Errors
///
/// Returns [`Error::Corrupt`] on a bad magic, unknown version or type,
/// truncation anywhere, a CRC mismatch, or trailing bytes — every way a
/// hostile network can mangle a frame maps onto an error here, which
/// the receiver treats as "frame never arrived".
pub fn decode_msg(data: &[u8]) -> Result<Msg> {
    let mut frame = Reader::new(data);
    let (tags, payload) = FRAME.open(&mut frame)?;
    frame.finish("the fleet frame")?;
    let (version, ty) = (tags[0], tags[1]);
    if !(WIRE_VERSION_MIN..=WIRE_VERSION).contains(&version) {
        return Err(Error::Corrupt(format!("unknown fleet version {version}")));
    }
    let r = &mut Reader::new(payload);
    let agent = r.var("agent id")?;
    let msg = match ty {
        1 => {
            let incarnation = r.var("incarnation")?;
            // Optional v2 trailer; absent (v1 or featureless) → 0, so no
            // trailer is ever sent to say 0.
            let trailer = !r.is_empty();
            let features = if trailer { r.varint()? } else { 0 };
            if trailer && features == 0 {
                return Err(Error::Corrupt("features trailer of zero".into()));
            }
            Msg::Register {
                agent,
                incarnation,
                features,
            }
        }
        2 => Msg::RegisterAck {
            agent,
            last_seq: r.varint()?,
        },
        3 => Msg::Upload {
            agent,
            incarnation: r.var("incarnation")?,
            seq: r.varint()?,
            batch: get_batch(r)?,
        },
        4 => Msg::Ack {
            agent,
            seq: r.varint()?,
            duplicate: flag(r)?,
            backpressure: flag(r)?,
        },
        5 => Msg::Nack {
            agent,
            seq: r.varint()?,
            expected: r.varint()?,
            backpressure: flag(r)?,
        },
        6 => Msg::Heartbeat {
            agent,
            incarnation: r.var("incarnation")?,
        },
        7 => Msg::HeartbeatAck {
            agent,
            backpressure: flag(r)?,
        },
        _ => return Err(Error::Corrupt(format!("unknown fleet frame type {ty}"))),
    };
    r.finish("the fleet payload")?;
    Ok(msg)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_batch() -> EpochBatch {
        let mut p = Profile::new();
        p.add(0x1000, 7);
        p.add(0x1008, 35);
        let mut q = Profile::new();
        q.add(0x2000, 3);
        EpochBatch {
            epoch: 4,
            seal_cycle: 12_345,
            profiles: vec![
                (ImageId(1), Event::Cycles, p),
                (dcpi_core::UNKNOWN_IMAGE, Event::Cycles, q),
            ],
            image_names: vec![(ImageId(1), "/bin/copy".into())],
            ledger: LossLedger {
                generated: 50,
                attributed: 42,
                unknown: 3,
                driver_dropped: 5,
                crash_lost: 0,
                quarantined: 0,
            },
            stacks: StackProfile::new(),
        }
    }

    fn stacked_batch() -> EpochBatch {
        use dcpi_core::Pid;
        use dcpi_stacks::Frame;
        let mut b = sample_batch();
        let frames = [
            Frame {
                image: ImageId(1),
                offset: 0x100,
            },
            Frame {
                image: ImageId(1),
                offset: 0x204,
            },
        ];
        b.stacks.record(0, Pid(7), &frames, 5);
        b.stacks.record(0, Pid(7), &frames[..1], 3);
        b
    }

    #[test]
    fn every_message_roundtrips() {
        let msgs = vec![
            Msg::Register {
                agent: 7,
                incarnation: 2,
                features: FEATURE_STACKS,
            },
            Msg::Register {
                agent: 8,
                incarnation: 1,
                features: 0,
            },
            Msg::RegisterAck {
                agent: 7,
                last_seq: 99,
            },
            Msg::Upload {
                agent: 7,
                incarnation: 2,
                seq: 100,
                batch: sample_batch(),
            },
            Msg::Upload {
                agent: 7,
                incarnation: 2,
                seq: 101,
                batch: stacked_batch(),
            },
            Msg::Ack {
                agent: 7,
                seq: 100,
                duplicate: true,
                backpressure: false,
            },
            Msg::Nack {
                agent: 7,
                seq: 105,
                expected: 101,
                backpressure: true,
            },
            Msg::Heartbeat {
                agent: 7,
                incarnation: 2,
            },
            Msg::HeartbeatAck {
                agent: 7,
                backpressure: false,
            },
        ];
        for msg in msgs {
            let bytes = encode_msg(&msg);
            assert_eq!(decode_msg(&bytes).expect("roundtrip"), msg, "{msg:?}");
        }
    }

    #[test]
    fn batch_totals_split_unknown() {
        let b = sample_batch();
        assert_eq!(b.sample_total(), 45);
        assert_eq!(b.unknown_total(), 3);
    }

    #[test]
    fn every_truncation_is_detected() {
        let bytes = encode_msg(&Msg::Upload {
            agent: 3,
            incarnation: 1,
            seq: 9,
            batch: sample_batch(),
        });
        for keep in 0..bytes.len() {
            assert!(
                decode_msg(&bytes[..keep]).is_err(),
                "truncation to {keep} bytes must not decode"
            );
        }
    }

    #[test]
    fn every_bitflip_is_detected() {
        let bytes = encode_msg(&Msg::Ack {
            agent: 1,
            seq: 5,
            duplicate: false,
            backpressure: false,
        });
        for byte in 0..bytes.len() {
            for bit in 0..8 {
                let mut bad = bytes.clone();
                bad[byte] ^= 1 << bit;
                assert!(
                    decode_msg(&bad).is_err(),
                    "bit flip at byte {byte} bit {bit} must not decode"
                );
            }
        }
    }

    fn payload(frame: &[u8]) -> &[u8] {
        FRAME.open(&mut Reader::new(frame)).expect("well framed").1
    }

    /// Re-frames an encoded message as a version-1 frame: the same
    /// payload sealed under version byte 1. Valid only for messages
    /// whose payload carries no v2 trailer.
    fn as_v1_frame(frame: &[u8]) -> Vec<u8> {
        FRAME.seal(&[1, frame[5]], payload(frame))
    }

    #[test]
    fn version_1_frames_still_decode() {
        // A stack-less agent speaks version 1: no features trailer on
        // Register, no stacks section on Upload. Both must ingest.
        let reg = Msg::Register {
            agent: 9,
            incarnation: 1,
            features: 0,
        };
        let up = Msg::Upload {
            agent: 9,
            incarnation: 1,
            seq: 1,
            batch: sample_batch(),
        };
        for msg in [reg, up] {
            let v1 = as_v1_frame(&encode_msg(&msg));
            assert_eq!(decode_msg(&v1).expect("v1 decodes"), msg, "{msg:?}");
        }
    }

    #[test]
    fn stacks_section_roundtrips_and_stays_optional() {
        let stacked = stacked_batch();
        let with = encode_msg(&Msg::Upload {
            agent: 1,
            incarnation: 1,
            seq: 1,
            batch: stacked.clone(),
        });
        let without = encode_msg(&Msg::Upload {
            agent: 1,
            incarnation: 1,
            seq: 1,
            batch: sample_batch(),
        });
        assert!(with.len() > without.len(), "stacks section adds bytes");
        match decode_msg(&with).expect("decodes") {
            Msg::Upload { batch, .. } => {
                assert_eq!(batch.stacks, stacked.stacks);
                assert_eq!(batch.stacks.total(), 8);
            }
            other => panic!("expected upload, got {other:?}"),
        }
        // An empty-stacks v2 upload carries a payload byte-identical to
        // v1: only the version byte (and thus the CRC) differ.
        let v1 = as_v1_frame(&without);
        assert_eq!(v1.len(), without.len());
        assert_eq!(payload(&v1), payload(&without), "payloads identical");
    }

    #[test]
    fn only_the_spellings_the_encoder_writes_decode() {
        // Same values, second spellings: a flag byte of 2, a features
        // trailer saying 0, a stacks section holding nothing.
        let ack = encode_msg(&Msg::Ack {
            agent: 1,
            seq: 5,
            duplicate: true,
            backpressure: false,
        });
        let body = payload(&ack);
        assert_eq!(body[body.len() - 2], 1);
        let mut loud = body.to_vec();
        loud[body.len() - 2] = 2;
        let reg = encode_msg(&Msg::Register {
            agent: 1,
            incarnation: 1,
            features: 0,
        });
        let zero_features = [payload(&reg), &[0]].concat();
        let up = encode_msg(&Msg::Upload {
            agent: 1,
            incarnation: 1,
            seq: 1,
            batch: sample_batch(),
        });
        let empty = StackProfile::new().to_bytes();
        let empty_stacks = [payload(&up), &[empty.len() as u8], &empty].concat();
        for (ty, body, what) in [
            (4, loud, "flag byte 2"),
            (1, zero_features, "features trailer"),
            (3, empty_stacks, "empty stacks"),
        ] {
            let err = decode_msg(&FRAME.seal(&[WIRE_VERSION, ty], &body)).unwrap_err();
            assert!(err.to_string().contains(what), "{err}");
        }
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = encode_msg(&Msg::Heartbeat {
            agent: 1,
            incarnation: 1,
        });
        bytes.push(0);
        assert!(decode_msg(&bytes).is_err());
    }

    use dcpi_core::profile::Profile;
}
