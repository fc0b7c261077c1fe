//! Binary codecs: the one byte reader, the one record frame, and the
//! on-disk profile formats built on them.
//!
//! Every binary decoder in the workspace — profile files, DCPF wire
//! messages, the server's WAL, DCST stack sections, DCIM images — walks
//! its input through [`Reader`] and nothing else. The contract is the
//! one [`crate::cli::Args`] has for argv: a decoder *takes* what it
//! recognises off the front ([`Reader::u8`], [`Reader::varint`],
//! [`Reader::bytes`], …, each an error if the input ends first), asks
//! for every list length through [`Reader::count`], which refuses a
//! count the bytes left could not hold (so what a decoder reserves is
//! bounded by the length of its input, under one rule), and ends with
//! [`Reader::finish`], which refuses whatever is left over.
//!
//! The three checksummed formats share one envelope, [`Frame`]:
//! `magic | tags | varint len | crc32 LE | payload`, the CRC over
//! `tags ++ payload`. Framing makes corruption — truncation, torn
//! writes, bit flips — a detectable, contained condition: the database
//! quarantines a file that fails it instead of aborting a whole read
//! (§4.3.3's bounded-loss story), the fleet receiver treats the frame as
//! never having arrived, and the WAL scan stops there as at a torn tail.
//! DESIGN.md §6 tabulates every format.
//!
//! The paper stores profiles "in a compact binary format" (§4.3.3) and
//! mentions "an improved format that can compress existing profiles by
//! approximately a factor of three". We implement both, as the payload
//! of a [`PROFILE_FRAME`] tagged `[version, event code]` — a varint
//! entry count followed by the records:
//!
//! * [`Format::V1`] — fixed-width records: each `(offset, count)` pair is a
//!   `u32` offset and `u32` count (saturated), 8 bytes per entry. This plays
//!   the role of the original format.
//! * [`Format::V2`] — the improved format: offsets are sorted and
//!   delta-encoded (divided by the 4-byte instruction word size first,
//!   since almost all sampled offsets are instruction-aligned) and both
//!   deltas and counts are LEB128 varints. Typical profiles shrink by
//!   roughly 3× relative to V1, matching the paper's claim.

use crate::error::{Error, Result};
use crate::profile::Profile;
use crate::types::Event;

const CRC32_POLY: u32 = 0xedb8_8320;

/// Slicing-by-16 tables: `[0]` is the classic bytewise table and
/// `[k][b]` is the CRC of byte `b` followed by `k` zero bytes.
const fn crc32_tables() -> [[u32; 256]; 16] {
    let mut tables = [[0u32; 256]; 16];
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
    while k < 16 {
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

static CRC32_TABLES: [[u32; 256]; 16] = crc32_tables();

fn crc32_bytewise(mut state: u32, data: &[u8]) -> u32 {
    for &b in data {
        state = (state >> 8) ^ CRC32_TABLES[0][((state ^ u32::from(b)) & 0xff) as usize];
    }
    state
}

/// Feeds `data` into a running CRC-32 state (start from `!0`), sixteen
/// bytes per step: byte `j` of a step is looked up in table `15 - j`,
/// the first four after the state is folded into them.
fn crc32_update(mut state: u32, data: &[u8]) -> u32 {
    let t = &CRC32_TABLES;
    let (steps, tail) = data.as_chunks::<16>();
    for c in steps {
        let lo = state ^ u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
        state = t[15][(lo & 0xff) as usize]
            ^ t[14][((lo >> 8) & 0xff) as usize]
            ^ t[13][((lo >> 16) & 0xff) as usize]
            ^ t[12][(lo >> 24) as usize]
            ^ t[11][c[4] as usize]
            ^ t[10][c[5] as usize]
            ^ t[9][c[6] as usize]
            ^ t[8][c[7] as usize]
            ^ t[7][c[8] as usize]
            ^ t[6][c[9] as usize]
            ^ t[5][c[10] as usize]
            ^ t[4][c[11] as usize]
            ^ t[3][c[12] as usize]
            ^ t[2][c[13] as usize]
            ^ t[1][c[14] as usize]
            ^ t[0][c[15] as usize];
    }
    crc32_bytewise(state, tail)
}

/// CRC-32 (IEEE) of `data`.
#[must_use]
pub fn crc32(data: &[u8]) -> u32 {
    !crc32_update(!0, data)
}

/// Appends `value` to `buf` as an unsigned LEB128 varint, always in the
/// shortest form: the last byte written is zero only for the value 0,
/// so [`Reader::varint`] reads back every varint this writes and
/// refuses the padded spellings (`80 00` for 0) it never does.
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

fn corrupt<T>(what: impl Into<String>) -> Result<T> {
    Err(Error::Corrupt(what.into()))
}

/// A taking cursor over untrusted bytes; see the module docs for the
/// take / [`count`](Reader::count) / [`finish`](Reader::finish)
/// contract. A take the input cannot satisfy — it ends first, a value
/// does not fit, a varint is misspelt — returns [`Error::Corrupt`];
/// none panics or reserves memory, whatever the input.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
}

impl<'a> Reader<'a> {
    /// A cursor at the start of `data`.
    #[must_use]
    pub fn new(data: &'a [u8]) -> Reader<'a> {
        Reader { buf: data }
    }

    /// Bytes not yet taken.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.buf.len()
    }

    /// True if every byte has been taken. For a format with an optional
    /// trailer; a decoder that expects the end calls [`Reader::finish`].
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Takes the next `n` bytes.
    #[inline]
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8]> {
        let Some((head, rest)) = self.buf.split_at_checked(n) else {
            return corrupt(format!(
                "truncated: {n} bytes wanted, {} left",
                self.buf.len()
            ));
        };
        self.buf = rest;
        Ok(head)
    }

    #[inline]
    fn array<const N: usize>(&mut self) -> Result<[u8; N]> {
        Ok(*self.bytes(N)?.first_chunk().expect("bytes(N) is N long"))
    }

    /// Takes one byte.
    #[inline]
    pub fn u8(&mut self) -> Result<u8> {
        Ok(self.array::<1>()?[0])
    }

    /// Takes a little-endian `u32`.
    #[inline]
    pub fn u32_le(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    /// Takes a little-endian `u64`.
    #[inline]
    pub fn u64_le(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    /// Takes an unsigned LEB128 varint in its shortest form. A zero
    /// byte after a continuation byte spells a value [`put_varint`]
    /// writes shorter (`80 00` for 0), and accepting it would let two
    /// byte strings decode to one value: it is refused.
    ///
    /// Nearly every varint of a profile record is one byte long, so that
    /// case is a compare and a take; anything longer, and every refusal,
    /// goes through a cold loop.
    #[inline]
    pub fn varint(&mut self) -> Result<u64> {
        match self.buf.split_first() {
            Some((&byte, rest)) if byte < 0x80 => {
                self.buf = rest;
                Ok(u64::from(byte))
            }
            _ => self.varint_long(),
        }
    }

    /// [`Reader::varint`] past its one-byte case: a varint of two or
    /// more bytes, or none at all.
    #[cold]
    fn varint_long(&mut self) -> Result<u64> {
        let mut value: u64 = 0;
        let mut shift = 0u32;
        loop {
            let Some((&byte, rest)) = self.buf.split_first() else {
                return corrupt("truncated varint");
            };
            self.buf = rest;
            if shift == 63 && byte > 1 {
                return corrupt("varint overflows u64");
            }
            value |= u64::from(byte & 0x7f) << shift;
            if byte & 0x80 == 0 {
                if byte == 0 && shift > 0 {
                    return corrupt("varint is not in its shortest form");
                }
                return Ok(value);
            }
            shift += 7;
            if shift > 63 {
                return corrupt("varint too long");
            }
        }
    }

    /// Takes a varint that must fit `T`; `what` names the field in the
    /// one "`what` overflows" message.
    #[inline]
    pub fn var<T: TryFrom<u64>>(&mut self, what: &str) -> Result<T> {
        T::try_from(self.varint()?).or_else(|_| corrupt(format!("{what} overflows")))
    }

    fn holds(&self, n: u64, min_item_bytes: usize) -> Result<usize> {
        match usize::try_from(n) {
            Ok(n) if n <= self.buf.len() / min_item_bytes => Ok(n),
            _ => corrupt(format!(
                "truncated: {n} items of at least {min_item_bytes} bytes claimed, {} bytes left",
                self.buf.len()
            )),
        }
    }

    /// Takes a varint list length whose items each occupy at least
    /// `min_item_bytes` (non-zero) of what follows. The one rule for
    /// "how much may a count make me reserve": never more items than the
    /// bytes left could hold.
    #[inline]
    pub fn count(&mut self, min_item_bytes: usize) -> Result<usize> {
        let n = self.varint()?;
        self.holds(n, min_item_bytes)
    }

    /// [`Reader::count`] for a format whose lengths are fixed-width
    /// little-endian `u32`s.
    pub fn count_u32_le(&mut self, min_item_bytes: usize) -> Result<usize> {
        let n = self.u32_le()?;
        self.holds(u64::from(n), min_item_bytes)
    }

    /// Takes a varint length and that many bytes.
    pub fn prefixed(&mut self) -> Result<&'a [u8]> {
        let n = self.count(1)?;
        self.bytes(n)
    }

    /// Ends the read: `what` was decoded from exactly these bytes, so
    /// any byte not taken is an error.
    pub fn finish(&self, what: &str) -> Result<()> {
        if self.buf.is_empty() {
            return Ok(());
        }
        corrupt(format!("{} trailing bytes after {what}", self.buf.len()))
    }
}

/// The checksummed record envelope: `magic | tags | varint len | crc32
/// LE | payload`, the CRC over `tags ++ payload`. A format is a magic
/// and a number of tag bytes (version, type, event: whatever must be
/// covered by the CRC but read before the payload is interpreted).
/// Whether a frame must fill its input ([`Reader::finish`]) or is
/// followed by the next one is the caller's policy.
#[derive(Clone, Copy, Debug)]
pub struct Frame {
    /// Bytes every frame of the format starts with; may be empty.
    pub magic: &'static [u8],
    /// Number of tag bytes between the magic and the length.
    pub tag_bytes: usize,
}

/// A profile file: `DCPI`, then `[format version, event code]`.
pub const PROFILE_FRAME: Frame = Frame {
    magic: b"DCPI",
    tag_bytes: 2,
};

impl Frame {
    fn crc(tags: &[u8], payload: &[u8]) -> u32 {
        !crc32_update(crc32_update(!0, tags), payload)
    }

    /// Frames `payload` under `tags`.
    ///
    /// # Panics
    ///
    /// Panics if `tags` is not `tag_bytes` long: a bug in the caller.
    #[must_use]
    pub fn seal(&self, tags: &[u8], payload: &[u8]) -> Vec<u8> {
        assert_eq!(tags.len(), self.tag_bytes, "tag bytes of this frame format");
        let mut out = Vec::with_capacity(16 + payload.len());
        out.extend_from_slice(self.magic);
        out.extend_from_slice(tags);
        put_varint(&mut out, payload.len() as u64);
        out.extend_from_slice(&Frame::crc(tags, payload).to_le_bytes());
        out.extend_from_slice(payload);
        out
    }

    /// Takes one frame off the front of `r`, returning `(tags, payload)`
    /// borrowed from the input once the checksum has vouched for both.
    ///
    /// # Errors
    ///
    /// Fails on a wrong magic, a frame longer than the input, or a
    /// checksum mismatch; `r` is then wherever the failure was found.
    pub fn open<'a>(&self, r: &mut Reader<'a>) -> Result<(&'a [u8], &'a [u8])> {
        if r.bytes(self.magic.len())? != self.magic {
            return corrupt("bad magic");
        }
        let tags = r.bytes(self.tag_bytes)?;
        let len = r.var("frame length")?;
        let stored = r.u32_le()?;
        let payload = r.bytes(len)?;
        if Frame::crc(tags, payload) != stored {
            return corrupt("checksum mismatch");
        }
        Ok((tags, payload))
    }
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
    PROFILE_FRAME.seal(&[format.version(), event.code()], &payload)
}

/// Deserializes a profile, returning the profile and the event it was
/// recorded for.
///
/// # Errors
///
/// Returns [`Error::Corrupt`] on bad magic, truncation, a frame-length or
/// checksum mismatch, or a record whose offset overflows, does not
/// increase, is spelt the long way or carries a zero count;
/// [`Error::UnsupportedVersion`] on a well-framed file of an unknown
/// version.
pub fn decode_profile(data: &[u8]) -> Result<(Profile, Event)> {
    let mut file = Reader::new(data);
    let (tags, payload) = PROFILE_FRAME.open(&mut file)?;
    file.finish("the profile frame")?;
    let format = Format::from_version(tags[0]).ok_or(Error::UnsupportedVersion(tags[0]))?;
    let Some(event) = Event::from_code(tags[1]) else {
        return corrupt(format!("unknown event code {}", tags[1]));
    };
    let mut r = Reader::new(payload);
    let run = match format {
        Format::V1 => v1_records(&mut r)?,
        Format::V2 => v2_records(&mut r)?,
    };
    r.finish("the profile records")?;
    Ok((Profile::from_sorted_run(run), event))
}

/// The V1 records: a `u32` offset and a `u32` count, 8 bytes each.
fn v1_records(r: &mut Reader) -> Result<Vec<(u64, u64)>> {
    let n = r.count(8)?;
    let mut run = Vec::with_capacity(n);
    let mut prev = 0;
    for i in 0..n {
        let off = u64::from(r.u32_le()?);
        let cnt = u64::from(r.u32_le()?);
        if i > 0 && off <= prev {
            return corrupt("offsets not strictly increasing");
        }
        if cnt == 0 {
            return corrupt("zero count record");
        }
        run.push((off, cnt));
        prev = off;
    }
    Ok(run)
}

/// The V2 records: a delta tag and a count, varints of at least a byte
/// each. Every check refuses what V1's does, in the same order, plus the
/// spellings [`encode_profile`] never writes.
fn v2_records(r: &mut Reader) -> Result<Vec<(u64, u64)>> {
    let n = r.count(2)?;
    let mut run = Vec::with_capacity(n);
    let mut prev = 0u64;
    for i in 0..n {
        let tag = r.varint()?;
        let (delta, too_far) = if tag & 1 == 0 {
            (tag >> 1).overflowing_mul(4)
        } else if (tag >> 1).is_multiple_of(4) {
            // The encoder spells a word-aligned delta in words.
            return corrupt("aligned delta spelt in bytes");
        } else {
            (tag >> 1, false)
        };
        let cnt = r.varint()?;
        // The first record's delta is from offset 0 and may be 0.
        let (off, wrapped) = prev.overflowing_add(delta);
        if too_far || wrapped {
            return corrupt("offset overflows u64");
        }
        if i > 0 && off <= prev {
            return corrupt("offsets not strictly increasing");
        }
        if cnt == 0 {
            return corrupt("zero count record");
        }
        run.push((off, cnt));
        prev = off;
    }
    Ok(run)
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
            let mut r = Reader::new(&buf);
            assert_eq!(r.varint().unwrap(), v);
            assert!(r.is_empty());
        }
    }

    #[test]
    fn varint_truncated_fails() {
        let mut buf = Vec::new();
        put_varint(&mut buf, u64::MAX);
        assert!(Reader::new(&buf[..buf.len() - 1]).varint().is_err());
    }

    #[test]
    fn varint_overflow_fails() {
        // 11 bytes of continuation is longer than any u64 varint.
        assert!(Reader::new(&[0xffu8; 11]).varint().is_err());
    }

    #[test]
    fn varint_padded_with_a_zero_byte_fails() {
        // `80 00` would be a second spelling of 0, `85 00` of 5, and
        // `ff 80 00` of 127: one value, one byte string.
        for padded in [&[0x80, 0x00][..], &[0x85, 0x00], &[0xff, 0x80, 0x00]] {
            let err = Reader::new(padded).varint().unwrap_err();
            assert!(err.to_string().contains("shortest"), "{err}");
        }
        // A lone zero byte is 0, and the last byte of u64::MAX is 1.
        assert_eq!(Reader::new(&[0]).varint().unwrap(), 0);
    }

    #[test]
    fn reader_takes_in_order_and_refuses_what_is_left() {
        let mut data = vec![7u8];
        data.extend_from_slice(&0xdead_beef_u32.to_le_bytes());
        data.extend_from_slice(&u64::MAX.to_le_bytes());
        put_varint(&mut data, 300);
        put_varint(&mut data, 3);
        data.extend_from_slice(b"abcd");
        let mut r = Reader::new(&data);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u32_le().unwrap(), 0xdead_beef);
        assert_eq!(r.u64_le().unwrap(), u64::MAX);
        assert!(r
            .var::<u8>("a byte")
            .unwrap_err()
            .to_string()
            .contains("a byte overflows"));
        assert_eq!(r.prefixed().unwrap(), b"abc");
        assert_eq!(r.remaining(), 1);
        let err = r.finish("the test").unwrap_err().to_string();
        assert!(err.contains("1 trailing bytes after the test"), "{err}");
        assert_eq!(r.bytes(1).unwrap(), b"d");
        r.finish("the test").unwrap();
        // Nothing is left: every take is a truncation, none a panic.
        assert!(r.u8().is_err() && r.u32_le().is_err() && r.u64_le().is_err());
        assert!(r.varint().is_err() && r.bytes(1).is_err() && r.prefixed().is_err());
        assert_eq!(r.bytes(0).unwrap(), b"");
    }

    #[test]
    fn count_is_bounded_by_the_bytes_left() {
        // Ten bytes hold at most five 2-byte items, whatever is claimed.
        let body = [0u8; 10];
        for (claim, min, fits) in [
            (5u64, 2, true),
            (6, 2, false),
            (10, 1, true),
            (1 << 60, 1, false),
        ] {
            let mut data = Vec::new();
            put_varint(&mut data, claim);
            data.extend_from_slice(&body);
            assert_eq!(
                Reader::new(&data).count(min).is_ok(),
                fits,
                "{claim} x {min}"
            );
        }
        let mut fixed = (1u32 << 24).to_le_bytes().to_vec();
        fixed.extend_from_slice(&body);
        assert!(Reader::new(&fixed).count_u32_le(4).is_err());
        fixed[..4].copy_from_slice(&2u32.to_le_bytes());
        assert_eq!(Reader::new(&fixed).count_u32_le(4).unwrap(), 2);
    }

    #[test]
    fn frames_seal_open_and_chain() {
        const BARE: Frame = Frame {
            magic: b"",
            tag_bytes: 1,
        };
        // Two records back to back, the second torn: the caller loops.
        let mut log = BARE.seal(&[1], b"first");
        log.extend_from_slice(&BARE.seal(&[2], b""));
        let torn_at = log.len();
        log.extend_from_slice(&BARE.seal(&[3], b"third")[..7]);
        let mut r = Reader::new(&log);
        assert_eq!(BARE.open(&mut r).unwrap(), (&[1][..], &b"first"[..]));
        assert_eq!(BARE.open(&mut r).unwrap(), (&[2][..], &b""[..]));
        assert_eq!(log.len() - r.remaining(), torn_at);
        assert!(BARE.open(&mut r).is_err());
        // A length near usize::MAX is a truncation, not an overflow.
        let mut huge = vec![1u8];
        put_varint(&mut huge, u64::MAX);
        huge.extend_from_slice(&[0; 8]);
        assert!(BARE.open(&mut Reader::new(&huge)).is_err());
        // Tags are under the checksum.
        let mut sealed = PROFILE_FRAME.seal(&[2, 0], b"x");
        assert!(PROFILE_FRAME.open(&mut Reader::new(&sealed)).is_ok());
        sealed[5] ^= 1;
        let err = PROFILE_FRAME.open(&mut Reader::new(&sealed)).unwrap_err();
        assert!(err.to_string().contains("checksum"), "{err}");
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
        // Well framed, so the version byte can be believed.
        let bytes = PROFILE_FRAME.seal(&[99, Event::Cycles.code()], &[0]);
        assert!(matches!(
            decode_profile(&bytes),
            Err(Error::UnsupportedVersion(99))
        ));
    }

    #[test]
    fn unknown_event_is_rejected() {
        assert_corrupt(&PROFILE_FRAME.seal(&[1, 77], &[0]), "event code 77");
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
        for len in 0..=100usize {
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
        PROFILE_FRAME.seal(&[format.version(), Event::Cycles.code()], payload)
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

    fn varint_len(value: u64) -> usize {
        let mut buf = Vec::new();
        put_varint(&mut buf, value);
        buf.len()
    }

    #[test]
    fn v2_records_of_every_varint_length_roundtrip() {
        // A first record at offset 0 (tag 0), then deltas and counts whose
        // varints take 2, 5 and 10 bytes: past the one-byte fast path.
        let records = [
            (0u64, 1u64, 1usize),
            (256, 300, 2),
            (256 + (1 << 30), 1 << 30, 5),
            (256 + (1 << 30) + (1 << 62) + 1, u64::MAX, 10),
        ];
        let mut prev = 0;
        for &(off, cnt, len) in &records {
            let delta = off - prev;
            let tag = if delta.is_multiple_of(4) {
                (delta / 4) << 1
            } else {
                (delta << 1) | 1
            };
            assert_eq!((varint_len(tag), varint_len(cnt)), (len, len), "{off}");
            prev = off;
        }
        let p: Profile = records.iter().map(|&(off, cnt, _)| (off, cnt)).collect();
        let (q, _) = decode_profile(&encode_profile(&p, Event::Cycles, Format::V2)).unwrap();
        assert_eq!(q, p);
    }

    #[test]
    fn a_misspelt_varint_inside_a_record_is_refused_as_before() {
        let mut padded_count = vec![1, 0];
        padded_count.extend_from_slice(&[0x80, 0x00]);
        let mut long_tag = vec![1];
        long_tag.extend_from_slice(&[0x80; 10]);
        long_tag.extend_from_slice(&[0x01, 0x01]);
        for (payload, want) in [
            (padded_count, "varint is not in its shortest form"),
            (long_tag, "varint overflows u64"),
            (vec![1, 0, 0x80], "truncated varint"),
        ] {
            match decode_profile(&framed(Format::V2, &payload)) {
                Err(Error::Corrupt(msg)) => assert_eq!(msg, want),
                other => panic!("expected Corrupt({want}), got {other:?}"),
            }
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
    fn v2_aligned_delta_spelt_in_bytes_is_rejected() {
        // Tag 9 is "4 bytes"; the encoder writes tag 2, "1 word". Tag 1
        // is a second spelling of offset 0.
        for tag in [9, 1] {
            let bytes = framed(Format::V2, &v2_payload(&[(tag, 1)]));
            assert_corrupt(&bytes, "spelt in bytes");
        }
        let (p, _) = decode_profile(&framed(Format::V2, &v2_payload(&[(2, 1)]))).unwrap();
        assert_eq!(p.iter().collect::<Vec<_>>(), [(4, 1)]);
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
