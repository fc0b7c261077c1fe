//! The byte mutator the fuzz tests share.

/// One to three random edits of `bytes`, each one of: a bit flip; the
/// deletion of one byte or of a span of any length; an insertion or
/// overwrite with a byte from `alphabet`; a run of up to 64 bytes from
/// `donor` spliced in over up to as many bytes; a cut at any offset,
/// down to nothing; or a tail of 1–40 bytes from `alphabet`. The last
/// two are what a crash leaves of a file being appended to. `below(n)`
/// is the caller's random source, uniform in `0..n`, so a seed replays
/// the same edits. An empty input stays empty.
pub fn mutate(
    bytes: &mut Vec<u8>,
    alphabet: &[u8],
    donor: &[u8],
    below: &mut dyn FnMut(u64) -> u64,
) {
    for _ in 0..=below(3) {
        if bytes.is_empty() {
            return;
        }
        let at = below(bytes.len() as u64) as usize;
        // An insertion may also land after the last byte.
        let gap = below(bytes.len() as u64 + 1) as usize;
        let pick = alphabet[below(alphabet.len() as u64) as usize];
        match below(9) {
            0 | 1 => bytes[at] ^= 1 << below(8),
            2 => drop(bytes.remove(at)),
            3 => drop(bytes.drain(at.min(gap)..at.max(gap))),
            4 => bytes.insert(gap, pick),
            5 => bytes[at] = pick,
            6 if donor.is_empty() => {}
            6 => {
                let from = below(donor.len() as u64) as usize;
                let run = &donor[from..donor.len().min(from + 1 + below(64) as usize)];
                let end = bytes.len().min(gap + below(run.len() as u64 + 1) as usize);
                bytes.splice(gap..end, run.iter().copied());
            }
            7 => bytes.truncate(at),
            _ => {
                let tail = 1 + below(40);
                for _ in 0..tail {
                    bytes.push(alphabet[below(alphabet.len() as u64) as usize]);
                }
            }
        }
    }
}
