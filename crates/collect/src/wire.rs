//! The fleet upload wire protocol.
//!
//! Agents push sealed collection epochs to the central `dcpi-server`
//! as CRC-framed records, the network sibling of the on-disk profile
//! framing in [`dcpi_core::codec`]. Every frame is:
//!
//! ```text
//! +------+---------+------+-------------+---------+---------+
//! | DCPF | version | type | payload len | CRC-32  | payload |
//! |  4B  |   1B    |  1B  |   varint    | 4B (LE) |         |
//! +------+---------+------+-------------+---------+---------+
//! ```
//!
//! with the CRC computed over `[version, type] ++ payload`, so a
//! mid-record truncation or bit flip anywhere behind the magic is
//! detected at the receiver and the frame discarded — the transport is
//! allowed to be arbitrarily hostile (see
//! [`crate::faults::NetFaultPlan`]) because every corruption collapses
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
use dcpi_core::codec;
use dcpi_core::error::{Error, Result};
use dcpi_core::profile::Profile;
use dcpi_core::{Event, ImageId};
use dcpi_stacks::StackProfile;

/// Magic prefix of every fleet frame ("DCPI Fleet").
pub const WIRE_MAGIC: [u8; 4] = *b"DCPF";
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

/// Appends a ledger as six varints (the `Upload` payload's encoding; the
/// server's WAL checkpoint reuses it).
pub fn put_ledger(buf: &mut Vec<u8>, l: &LossLedger) {
    codec::put_varint(buf, l.generated);
    codec::put_varint(buf, l.attributed);
    codec::put_varint(buf, l.unknown);
    codec::put_varint(buf, l.driver_dropped);
    codec::put_varint(buf, l.crash_lost);
    codec::put_varint(buf, l.quarantined);
}

/// Reads a ledger written by [`put_ledger`], advancing `buf`.
///
/// # Errors
///
/// Returns [`Error::Corrupt`](dcpi_core::Error::Corrupt) on a truncated
/// or overlong varint.
pub fn get_ledger(buf: &mut &[u8]) -> Result<LossLedger> {
    Ok(LossLedger {
        generated: codec::get_varint(buf)?,
        attributed: codec::get_varint(buf)?,
        unknown: codec::get_varint(buf)?,
        driver_dropped: codec::get_varint(buf)?,
        crash_lost: codec::get_varint(buf)?,
        quarantined: codec::get_varint(buf)?,
    })
}

fn put_batch(buf: &mut Vec<u8>, b: &EpochBatch) {
    codec::put_varint(buf, u64::from(b.epoch));
    codec::put_varint(buf, b.seal_cycle);
    put_ledger(buf, &b.ledger);
    codec::put_varint(buf, b.profiles.len() as u64);
    for (image, event, profile) in &b.profiles {
        codec::put_varint(buf, u64::from(image.0));
        let bytes = codec::encode_profile(profile, *event, codec::Format::V2);
        codec::put_varint(buf, bytes.len() as u64);
        buf.extend_from_slice(&bytes);
    }
    codec::put_varint(buf, b.image_names.len() as u64);
    for (image, name) in &b.image_names {
        codec::put_varint(buf, u64::from(image.0));
        codec::put_varint(buf, name.len() as u64);
        buf.extend_from_slice(name.as_bytes());
    }
    // Version-2 trailer: the epoch's calling-context section. Omitted
    // entirely when empty, so stack-less uploads stay v1-shaped.
    if !b.stacks.is_empty() {
        let bytes = b.stacks.to_bytes();
        codec::put_varint(buf, bytes.len() as u64);
        buf.extend_from_slice(&bytes);
    }
}

fn take_bytes<'a>(buf: &mut &'a [u8], len: usize) -> Result<&'a [u8]> {
    if buf.len() < len {
        return Err(Error::Corrupt("truncated field".into()));
    }
    let (head, rest) = buf.split_at(len);
    *buf = rest;
    Ok(head)
}

fn get_batch(buf: &mut &[u8]) -> Result<EpochBatch> {
    let epoch = codec::get_varint(buf)?;
    let seal_cycle = codec::get_varint(buf)?;
    let ledger = get_ledger(buf)?;
    let n_profiles = codec::get_varint(buf)?;
    let mut profiles = Vec::new();
    for _ in 0..n_profiles {
        let image = ImageId(
            u32::try_from(codec::get_varint(buf)?)
                .map_err(|_| Error::Corrupt("image id overflows u32".into()))?,
        );
        let len = codec::get_varint(buf)? as usize;
        let bytes = take_bytes(buf, len)?;
        let (profile, event) = codec::decode_profile(bytes)?;
        profiles.push((image, event, profile));
    }
    let n_names = codec::get_varint(buf)?;
    let mut image_names = Vec::new();
    for _ in 0..n_names {
        let image = ImageId(
            u32::try_from(codec::get_varint(buf)?)
                .map_err(|_| Error::Corrupt("image id overflows u32".into()))?,
        );
        let len = codec::get_varint(buf)? as usize;
        let name = std::str::from_utf8(take_bytes(buf, len)?)
            .map_err(|_| Error::Corrupt("image name is not UTF-8".into()))?
            .to_owned();
        image_names.push((image, name));
    }
    // Optional v2 trailer: remaining bytes are the stacks section. A v1
    // frame ends here and decodes to an empty profile.
    let stacks = if buf.is_empty() {
        StackProfile::new()
    } else {
        let len = codec::get_varint(buf)? as usize;
        let bytes = take_bytes(buf, len)?;
        StackProfile::from_bytes(bytes)
            .map_err(|e| Error::Corrupt(format!("bad stacks section: {e}")))?
    };
    Ok(EpochBatch {
        epoch: u32::try_from(epoch).map_err(|_| Error::Corrupt("epoch overflows u32".into()))?,
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
    match msg {
        Msg::Register {
            agent,
            incarnation,
            features,
        } => {
            codec::put_varint(&mut payload, u64::from(*agent));
            codec::put_varint(&mut payload, u64::from(*incarnation));
            // v2 trailer; omitted when zero so the frame matches what a
            // featureless v1 agent would have sent.
            if *features != 0 {
                codec::put_varint(&mut payload, *features);
            }
        }
        Msg::Heartbeat { agent, incarnation } => {
            codec::put_varint(&mut payload, u64::from(*agent));
            codec::put_varint(&mut payload, u64::from(*incarnation));
        }
        Msg::RegisterAck { agent, last_seq } => {
            codec::put_varint(&mut payload, u64::from(*agent));
            codec::put_varint(&mut payload, *last_seq);
        }
        Msg::Upload {
            agent,
            incarnation,
            seq,
            batch,
        } => {
            codec::put_varint(&mut payload, u64::from(*agent));
            codec::put_varint(&mut payload, u64::from(*incarnation));
            codec::put_varint(&mut payload, *seq);
            put_batch(&mut payload, batch);
        }
        Msg::Ack {
            agent,
            seq,
            duplicate,
            backpressure,
        } => {
            codec::put_varint(&mut payload, u64::from(*agent));
            codec::put_varint(&mut payload, *seq);
            payload.push(u8::from(*duplicate));
            payload.push(u8::from(*backpressure));
        }
        Msg::Nack {
            agent,
            seq,
            expected,
            backpressure,
        } => {
            codec::put_varint(&mut payload, u64::from(*agent));
            codec::put_varint(&mut payload, *seq);
            codec::put_varint(&mut payload, *expected);
            payload.push(u8::from(*backpressure));
        }
        Msg::HeartbeatAck {
            agent,
            backpressure,
        } => {
            codec::put_varint(&mut payload, u64::from(*agent));
            payload.push(u8::from(*backpressure));
        }
    }
    let ty = msg.type_code();
    let mut out = Vec::with_capacity(payload.len() + 16);
    out.extend_from_slice(&WIRE_MAGIC);
    out.push(WIRE_VERSION);
    out.push(ty);
    codec::put_varint(&mut out, payload.len() as u64);
    let crc = !codec::crc32_update(codec::crc32_update(!0, &[WIRE_VERSION, ty]), &payload);
    out.extend_from_slice(&crc.to_le_bytes());
    out.extend_from_slice(&payload);
    out
}

/// Decodes one wire record.
///
/// # Errors
///
/// Returns [`Error::Corrupt`] on a bad magic, unknown version or type,
/// truncation anywhere, a CRC mismatch, or trailing bytes — every way a
/// hostile network can mangle a frame maps onto an error here, which
/// the receiver treats as "frame never arrived".
pub fn decode_msg(mut data: &[u8]) -> Result<Msg> {
    let buf = &mut data;
    let magic = take_bytes(buf, 4)?;
    if magic != WIRE_MAGIC {
        return Err(Error::Corrupt("bad fleet frame magic".into()));
    }
    let version = take_bytes(buf, 1)?[0];
    if !(WIRE_VERSION_MIN..=WIRE_VERSION).contains(&version) {
        return Err(Error::Corrupt(format!("unknown fleet version {version}")));
    }
    let ty = take_bytes(buf, 1)?[0];
    let len = codec::get_varint(buf)? as usize;
    let crc = u32::from_le_bytes(
        take_bytes(buf, 4)?
            .try_into()
            .expect("take_bytes returned 4 bytes"),
    );
    let payload = take_bytes(buf, len)?;
    if !buf.is_empty() {
        return Err(Error::Corrupt("trailing bytes after fleet frame".into()));
    }
    let actual = !codec::crc32_update(codec::crc32_update(!0, &[version, ty]), payload);
    if actual != crc {
        return Err(Error::Corrupt(format!(
            "fleet frame CRC mismatch: stored {crc:#010x}, computed {actual:#010x}"
        )));
    }
    let mut p = payload;
    let buf = &mut p;
    let agent = u32::try_from(codec::get_varint(buf)?)
        .map_err(|_| Error::Corrupt("agent id overflows u32".into()))?;
    let msg = match ty {
        1 | 6 => {
            let incarnation = u32::try_from(codec::get_varint(buf)?)
                .map_err(|_| Error::Corrupt("incarnation overflows u32".into()))?;
            if ty == 1 {
                // Optional v2 trailer; absent (v1 or featureless) → 0.
                let features = if buf.is_empty() {
                    0
                } else {
                    codec::get_varint(buf)?
                };
                Msg::Register {
                    agent,
                    incarnation,
                    features,
                }
            } else {
                Msg::Heartbeat { agent, incarnation }
            }
        }
        2 => Msg::RegisterAck {
            agent,
            last_seq: codec::get_varint(buf)?,
        },
        3 => {
            let incarnation = u32::try_from(codec::get_varint(buf)?)
                .map_err(|_| Error::Corrupt("incarnation overflows u32".into()))?;
            let seq = codec::get_varint(buf)?;
            let batch = get_batch(buf)?;
            Msg::Upload {
                agent,
                incarnation,
                seq,
                batch,
            }
        }
        4 => {
            let seq = codec::get_varint(buf)?;
            let flags = take_bytes(buf, 2)?;
            Msg::Ack {
                agent,
                seq,
                duplicate: flags[0] != 0,
                backpressure: flags[1] != 0,
            }
        }
        5 => {
            let seq = codec::get_varint(buf)?;
            let expected = codec::get_varint(buf)?;
            let backpressure = take_bytes(buf, 1)?[0] != 0;
            Msg::Nack {
                agent,
                seq,
                expected,
                backpressure,
            }
        }
        7 => Msg::HeartbeatAck {
            agent,
            backpressure: take_bytes(buf, 1)?[0] != 0,
        },
        _ => return Err(Error::Corrupt(format!("unknown fleet frame type {ty}"))),
    };
    if !buf.is_empty() {
        return Err(Error::Corrupt("trailing bytes in fleet payload".into()));
    }
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

    /// Re-frames an encoded message as a version-1 frame: patches the
    /// version byte and recomputes the CRC. Valid only for messages
    /// whose payload carries no v2 trailer.
    fn as_v1_frame(frame: &[u8]) -> Vec<u8> {
        let mut out = frame.to_vec();
        out[4] = 1;
        let ty = out[5];
        // CRC covers [version, type] ++ payload; payload starts after
        // the 4-byte CRC that follows the varint length.
        let mut rest = &out[6..];
        let len = codec::get_varint(&mut rest).expect("length varint") as usize;
        let crc_at = out.len() - rest.len();
        let payload_at = crc_at + 4;
        assert_eq!(out.len() - payload_at, len);
        let crc = !codec::crc32_update(codec::crc32_update(!0, &[1, ty]), &out[payload_at..]);
        out[crc_at..payload_at].copy_from_slice(&crc.to_le_bytes());
        out
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
        let payload = |frame: &[u8]| -> Vec<u8> {
            let mut rest = &frame[6..];
            let len = codec::get_varint(&mut rest).expect("length") as usize;
            let at = frame.len() - rest.len() + 4;
            frame[at..at + len].to_vec()
        };
        let v1 = as_v1_frame(&without);
        assert_eq!(v1.len(), without.len());
        assert_eq!(payload(&v1), payload(&without), "payloads identical");
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
