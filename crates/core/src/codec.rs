//! Binary codecs for on-disk profiles.
//!
//! The paper stores profiles "in a compact binary format" (§4.3.3) and
//! mentions "an improved format that can compress existing profiles by
//! approximately a factor of three". We implement both:
//!
//! * [`Format::V1`] — fixed-width records: each `(offset, count)` pair is a
//!   `u32` offset and `u32` count (saturated), 8 bytes per entry. This plays
//!   the role of the original format.
//! * [`Format::V2`] — the improved format: offsets are sorted and
//!   delta-encoded (divided by the 4-byte instruction word size first,
//!   since almost all sampled offsets are instruction-aligned) and both
//!   deltas and counts are LEB128 varints. Typical profiles shrink by
//!   roughly 3× relative to V1, matching the paper's claim.
//!
//! Both formats share a small framed header: magic `DCPI`, a version
//! byte, an event code byte, a varint payload length, and a CRC-32 of the
//! version/event bytes plus the payload. The payload holds a varint entry
//! count followed by the records. Framing makes corruption — truncation,
//! torn writes, bit flips — a detectable, contained condition: the
//! database layer quarantines files that fail these checks instead of
//! aborting a whole read (§4.3.3's bounded-loss story).

use crate::error::{Error, Result};
use crate::profile::Profile;
use crate::types::Event;

/// Magic bytes at the start of every profile file.
pub const MAGIC: [u8; 4] = *b"DCPI";

const CRC32_POLY: u32 = 0xedb8_8320;

/// Slicing-by-8 tables: `[0]` is the classic bytewise table and
/// `[k][b]` is the CRC of byte `b` followed by `k` zero bytes.
const fn crc32_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                (c >> 1) ^ CRC32_POLY
            } else {
                c >> 1
            };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xff) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

static CRC32_TABLES: [[u32; 256]; 8] = crc32_tables();

fn crc32_bytewise(mut state: u32, data: &[u8]) -> u32 {
    for &b in data {
        state = (state >> 8) ^ CRC32_TABLES[0][((state ^ u32::from(b)) & 0xff) as usize];
    }
    state
}

/// Feeds `data` into a running CRC-32 state (start from `!0`), eight
/// bytes per step.
#[must_use]
pub fn crc32_update(mut state: u32, data: &[u8]) -> u32 {
    let t = &CRC32_TABLES;
    let mut chunks = data.chunks_exact(8);
    for c in &mut chunks {
        let lo = state ^ u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
        state = t[7][(lo & 0xff) as usize]
            ^ t[6][((lo >> 8) & 0xff) as usize]
            ^ t[5][((lo >> 16) & 0xff) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][c[4] as usize]
            ^ t[2][c[5] as usize]
            ^ t[1][c[6] as usize]
            ^ t[0][c[7] as usize];
    }
    crc32_bytewise(state, chunks.remainder())
}

/// CRC-32 (IEEE) of `data`.
#[must_use]
pub fn crc32(data: &[u8]) -> u32 {
    !crc32_update(!0, data)
}

fn frame_crc(version: u8, event_code: u8, payload: &[u8]) -> u32 {
    !crc32_update(crc32_update(!0, &[version, event_code]), payload)
}

/// Profile file format version.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Format {
    /// Fixed-width 8-byte records (the "original" format).
    V1,
    /// Delta + varint records (the "improved" ~3× smaller format).
    V2,
}

impl Format {
    /// The version byte written to the header.
    #[must_use]
    pub fn version(self) -> u8 {
        match self {
            Format::V1 => 1,
            Format::V2 => 2,
        }
    }

    /// Inverse of [`Format::version`].
    #[must_use]
    pub fn from_version(v: u8) -> Option<Format> {
        match v {
            1 => Some(Format::V1),
            2 => Some(Format::V2),
            _ => None,
        }
    }
}

/// Appends `value` to `buf` as an unsigned LEB128 varint.
#[inline]
pub fn put_varint(buf: &mut Vec<u8>, mut value: u64) {
    loop {
        let byte = (value & 0x7f) as u8;
        value >>= 7;
        if value == 0 {
            buf.push(byte);
            return;
        }
        buf.push(byte | 0x80);
    }
}

fn take_u8(buf: &mut &[u8]) -> Option<u8> {
    let (&first, rest) = buf.split_first()?;
    *buf = rest;
    Some(first)
}

fn take_u32_le(buf: &mut &[u8]) -> Option<u32> {
    let (head, rest) = buf.split_first_chunk::<4>()?;
    *buf = rest;
    Some(u32::from_le_bytes(*head))
}

/// Reads an unsigned LEB128 varint from the front of `buf`, advancing it.
///
/// # Errors
///
/// Returns [`Error::Corrupt`] if the buffer ends mid-varint or the varint
/// overflows 64 bits.
pub fn get_varint(buf: &mut &[u8]) -> Result<u64> {
    let mut value: u64 = 0;
    let mut shift = 0u32;
    loop {
        let Some(byte) = take_u8(buf) else {
            return Err(Error::Corrupt("truncated varint".into()));
        };
        if shift == 63 && byte > 1 {
            return Err(Error::Corrupt("varint overflows u64".into()));
        }
        value |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Ok(value);
        }
        shift += 7;
        if shift > 63 {
            return Err(Error::Corrupt("varint too long".into()));
        }
    }
}

/// Serializes a profile for `event` in the requested format.
#[must_use]
pub fn encode_profile(profile: &Profile, event: Event, format: Format) -> Vec<u8> {
    let mut payload = Vec::with_capacity(4 + profile.len() * 8);
    put_varint(&mut payload, profile.len() as u64);
    match format {
        Format::V1 => {
            for (off, cnt) in profile.iter() {
                payload.extend_from_slice(&u32::try_from(off).unwrap_or(u32::MAX).to_le_bytes());
                payload.extend_from_slice(&u32::try_from(cnt).unwrap_or(u32::MAX).to_le_bytes());
            }
        }
        Format::V2 => {
            let mut prev = 0u64;
            for (off, cnt) in profile.iter() {
                let delta = off - prev;
                // Instruction offsets are 4-byte aligned; shifting the
                // delta right when possible saves a byte on dense regions.
                if delta.is_multiple_of(4) {
                    put_varint(&mut payload, (delta / 4) << 1);
                } else {
                    put_varint(&mut payload, (delta << 1) | 1);
                }
                put_varint(&mut payload, cnt);
                prev = off;
            }
        }
    }
    frame(format, event, &payload)
}

/// Wraps a record payload in the file frame: magic, version, event,
/// payload length and CRC.
fn frame(format: Format, event: Event, payload: &[u8]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(16 + payload.len());
    buf.extend_from_slice(&MAGIC);
    buf.push(format.version());
    buf.push(event.code());
    put_varint(&mut buf, payload.len() as u64);
    buf.extend_from_slice(&frame_crc(format.version(), event.code(), payload).to_le_bytes());
    buf.extend_from_slice(payload);
    buf
}

/// Deserializes a profile, returning the profile and the event it was
/// recorded for.
///
/// # Errors
///
/// Returns [`Error::Corrupt`] on bad magic, truncation, a frame-length or
/// checksum mismatch, or a record whose offset overflows, does not
/// increase or carries a zero count; [`Error::UnsupportedVersion`] on an
/// unknown version byte.
pub fn decode_profile(mut data: &[u8]) -> Result<(Profile, Event)> {
    let buf = &mut data;
    if buf.len() < 6 {
        return Err(Error::Corrupt("header truncated".into()));
    }
    let (magic, rest) = buf.split_first_chunk::<4>().expect("length checked");
    if *magic != MAGIC {
        return Err(Error::Corrupt("bad magic".into()));
    }
    *buf = rest;
    let version = take_u8(buf).expect("length checked");
    let format = Format::from_version(version).ok_or(Error::UnsupportedVersion(version))?;
    let event_code = take_u8(buf).expect("length checked");
    let event = Event::from_code(event_code)
        .ok_or_else(|| Error::Corrupt(format!("unknown event code {event_code}")))?;
    let payload_len = get_varint(buf)?;
    let Some(stored_crc) = take_u32_le(buf) else {
        return Err(Error::Corrupt("frame header truncated".into()));
    };
    if buf.len() as u64 != payload_len {
        return Err(Error::Corrupt(format!(
            "frame length mismatch: header says {payload_len} payload bytes, found {}",
            buf.len()
        )));
    }
    if frame_crc(version, event_code, buf) != stored_crc {
        return Err(Error::Corrupt("checksum mismatch".into()));
    }
    let n = get_varint(buf)?;
    // A record is 8 bytes in V1 and at least 2 in V2, so the payload
    // bounds the reservation whatever the header's `n` claims.
    let min_record = match format {
        Format::V1 => 8,
        Format::V2 => 2,
    };
    let cap = (buf.len() / min_record).min(usize::try_from(n).unwrap_or(usize::MAX));
    let mut run = Vec::with_capacity(cap);
    let mut prev: Option<u64> = None;
    for _ in 0..n {
        let (off, cnt) = match format {
            Format::V1 => {
                let (Some(off), Some(cnt)) = (take_u32_le(buf), take_u32_le(buf)) else {
                    return Err(Error::Corrupt("record truncated".into()));
                };
                (Some(u64::from(off)), u64::from(cnt))
            }
            Format::V2 => {
                let tag = get_varint(buf)?;
                let delta = if tag & 1 == 1 {
                    Some(tag >> 1)
                } else {
                    (tag >> 1).checked_mul(4)
                };
                let off = delta.and_then(|d| prev.unwrap_or(0).checked_add(d));
                (off, get_varint(buf)?)
            }
        };
        let off = off.ok_or_else(|| Error::Corrupt("offset overflows u64".into()))?;
        if prev.is_some_and(|p| off <= p) {
            return Err(Error::Corrupt("offsets not strictly increasing".into()));
        }
        if cnt == 0 {
            return Err(Error::Corrupt("zero count record".into()));
        }
        run.push((off, cnt));
        prev = Some(off);
    }
    if !buf.is_empty() {
        return Err(Error::Corrupt("trailing bytes after records".into()));
    }
    Ok((Profile::from_sorted_run(run), event))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_profile() -> Profile {
        [(0u64, 7u64), (4, 1), (8, 123_456), (64, 2), (1000, 9)]
            .into_iter()
            .collect()
    }

    #[test]
    fn varint_roundtrip_edges() {
        for v in [0u64, 1, 127, 128, 16_383, 16_384, u32::MAX as u64, u64::MAX] {
            let mut buf = Vec::new();
            put_varint(&mut buf, v);
            let mut slice = &buf[..];
            assert_eq!(get_varint(&mut slice).unwrap(), v);
            assert!(slice.is_empty());
        }
    }

    #[test]
    fn varint_truncated_fails() {
        let mut buf = Vec::new();
        put_varint(&mut buf, u64::MAX);
        let mut slice = &buf[..buf.len() - 1];
        assert!(get_varint(&mut slice).is_err());
    }

    #[test]
    fn varint_overflow_fails() {
        // 11 bytes of continuation is longer than any u64 varint.
        let data = [0xffu8; 11];
        let mut slice = &data[..];
        assert!(get_varint(&mut slice).is_err());
    }

    #[test]
    fn v1_roundtrip() {
        let p = sample_profile();
        let bytes = encode_profile(&p, Event::Cycles, Format::V1);
        let (q, ev) = decode_profile(&bytes).unwrap();
        assert_eq!(q, p);
        assert_eq!(ev, Event::Cycles);
    }

    #[test]
    fn v2_roundtrip() {
        let p = sample_profile();
        let bytes = encode_profile(&p, Event::IMiss, Format::V2);
        let (q, ev) = decode_profile(&bytes).unwrap();
        assert_eq!(q, p);
        assert_eq!(ev, Event::IMiss);
    }

    #[test]
    fn v2_roundtrip_unaligned_offsets() {
        let p: Profile = [(1u64, 1u64), (3, 2), (10, 3)].into_iter().collect();
        let bytes = encode_profile(&p, Event::DMiss, Format::V2);
        let (q, _) = decode_profile(&bytes).unwrap();
        assert_eq!(q, p);
    }

    #[test]
    fn empty_profile_roundtrips() {
        let p = Profile::new();
        for fmt in [Format::V1, Format::V2] {
            let bytes = encode_profile(&p, Event::Cycles, fmt);
            let (q, _) = decode_profile(&bytes).unwrap();
            assert!(q.is_empty());
        }
    }

    #[test]
    fn v2_is_about_three_times_smaller_on_dense_profiles() {
        // A dense instruction profile: consecutive 4-byte offsets with
        // small-to-medium counts, the common case for hot procedures.
        let mut p = Profile::new();
        for i in 0..10_000u64 {
            p.add(i * 4, 1 + (i * 37) % 200);
        }
        let v1 = encode_profile(&p, Event::Cycles, Format::V1).len();
        let v2 = encode_profile(&p, Event::Cycles, Format::V2).len();
        let ratio = v1 as f64 / v2 as f64;
        assert!(ratio > 2.5, "compression ratio {ratio:.2} too small");
    }

    #[test]
    fn bad_magic_is_rejected() {
        let p = sample_profile();
        let mut bytes = encode_profile(&p, Event::Cycles, Format::V1);
        bytes[0] = b'X';
        assert!(matches!(decode_profile(&bytes), Err(Error::Corrupt(_))));
    }

    #[test]
    fn unknown_version_is_rejected() {
        let p = sample_profile();
        let mut bytes = encode_profile(&p, Event::Cycles, Format::V1);
        bytes[4] = 99;
        assert!(matches!(
            decode_profile(&bytes),
            Err(Error::UnsupportedVersion(99))
        ));
    }

    #[test]
    fn unknown_event_is_rejected() {
        let p = sample_profile();
        let mut bytes = encode_profile(&p, Event::Cycles, Format::V1);
        bytes[5] = 77;
        assert!(matches!(decode_profile(&bytes), Err(Error::Corrupt(_))));
    }

    #[test]
    fn crc32_known_answer() {
        // The standard CRC-32 check value.
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn crc32_slicing_matches_the_bytewise_loop() {
        let mut rng = crate::prng::CartaRng::new(0xc4c32);
        for len in 0..=64usize {
            let data: Vec<u8> = (0..len).map(|_| rng.uniform(0, 255) as u8).collect();
            let seed = rng.next_u31();
            let want = crc32_bytewise(seed, &data);
            assert_eq!(crc32_update(seed, &data), want, "len {len}");
            // Streaming: any split point gives the same state.
            for cut in 0..=len {
                let (head, tail) = data.split_at(cut);
                let got = crc32_update(crc32_update(seed, head), tail);
                assert_eq!(got, want, "len {len} cut {cut}");
            }
        }
    }

    /// Frames `payload` as a CRC-valid profile file, so a decode failure
    /// can only come from the record checks.
    fn framed(format: Format, payload: &[u8]) -> Vec<u8> {
        frame(format, Event::Cycles, payload)
    }

    fn v2_payload(records: &[(u64, u64)]) -> Vec<u8> {
        let mut payload = Vec::new();
        put_varint(&mut payload, records.len() as u64);
        for &(tag, cnt) in records {
            put_varint(&mut payload, tag);
            put_varint(&mut payload, cnt);
        }
        payload
    }

    fn assert_corrupt(bytes: &[u8], what: &str) {
        match decode_profile(bytes) {
            Err(Error::Corrupt(msg)) => assert!(msg.contains(what), "{msg:?} lacks {what:?}"),
            other => panic!("expected Corrupt({what}), got {other:?}"),
        }
    }

    #[test]
    fn v2_aligned_delta_overflow_is_rejected() {
        // An even tag means (tag >> 1) * 4, which overflows here.
        let bytes = framed(Format::V2, &v2_payload(&[(u64::MAX - 1, 1)]));
        assert_corrupt(&bytes, "overflows");
    }

    #[test]
    fn v2_offset_sum_overflow_is_rejected() {
        // Odd tags carry the delta as is: u64::MAX >> 1 twice reaches
        // u64::MAX - 1, and a further delta of 2 (tag 5) would wrap to a
        // smaller offset.
        let big = u64::MAX;
        let bytes = framed(Format::V2, &v2_payload(&[(big, 1), (big, 1), (5, 1)]));
        assert_corrupt(&bytes, "overflows");
    }

    #[test]
    fn zero_count_records_are_rejected() {
        let v2 = framed(Format::V2, &v2_payload(&[(0, 3), (2, 0)]));
        assert_corrupt(&v2, "zero count");
        let mut v1 = vec![2u8];
        for (off, cnt) in [(0u32, 3u32), (4, 0)] {
            v1.extend_from_slice(&off.to_le_bytes());
            v1.extend_from_slice(&cnt.to_le_bytes());
        }
        assert_corrupt(&framed(Format::V1, &v1), "zero count");
    }

    #[test]
    fn entry_count_beyond_the_payload_reserves_nothing() {
        // A header claiming 2^60 records over an empty payload must
        // fail on the first missing record, not try to reserve for them.
        for format in [Format::V1, Format::V2] {
            let mut payload = Vec::new();
            put_varint(&mut payload, 1 << 60);
            assert!(matches!(
                decode_profile(&framed(format, &payload)),
                Err(Error::Corrupt(_))
            ));
        }
    }

    #[test]
    fn any_single_bit_flip_is_rejected() {
        let p = sample_profile();
        for fmt in [Format::V1, Format::V2] {
            let bytes = encode_profile(&p, Event::Cycles, fmt);
            for i in 0..bytes.len() {
                for bit in 0..8 {
                    let mut bad = bytes.clone();
                    bad[i] ^= 1 << bit;
                    assert!(
                        decode_profile(&bad).is_err(),
                        "flip of byte {i} bit {bit} in {fmt:?} went undetected"
                    );
                }
            }
        }
    }

    #[test]
    fn truncation_at_every_length_is_rejected() {
        let p = sample_profile();
        let bytes = encode_profile(&p, Event::Cycles, Format::V2);
        for cut in 0..bytes.len() {
            assert!(decode_profile(&bytes[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let p = sample_profile();
        let mut bytes = encode_profile(&p, Event::Cycles, Format::V2);
        bytes.push(0);
        assert!(matches!(decode_profile(&bytes), Err(Error::Corrupt(_))));
    }

    #[test]
    fn truncated_records_are_rejected() {
        let p = sample_profile();
        for fmt in [Format::V1, Format::V2] {
            let bytes = encode_profile(&p, Event::Cycles, fmt);
            let cut = &bytes[..bytes.len() - 2];
            assert!(decode_profile(cut).is_err(), "format {fmt:?}");
        }
    }
}
