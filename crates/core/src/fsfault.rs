//! Filesystem fault primitives for crash and corruption injection.
//!
//! These are the low-level mutations the fault-injection layer
//! (`dcpi-collect::faults`) applies to a profile database to emulate what
//! the paper's loss-bounding machinery must survive: a torn write that
//! truncates a profile file mid-record, a media/DMA bit flip, and the
//! stale `.tmp` file a crash leaves behind between the write and the
//! rename of the merge protocol (§4.3.3). They are deterministic given
//! their arguments — seeding and victim selection belong to the caller —
//! so identical fault plans reproduce identical damage.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Truncates `path` to `keep` bytes (no-op if already shorter), emulating
/// a torn write.
///
/// # Errors
///
/// Returns any I/O error from reading or rewriting the file.
pub fn truncate_file(path: &Path, keep: u64) -> io::Result<()> {
    let data = fs::read(path)?;
    let keep = (keep as usize).min(data.len());
    fs::write(path, &data[..keep])
}

/// Flips one bit of `path`: bit `bit % 8` of byte `byte % len`, emulating
/// silent single-bit corruption. Fails on an empty file.
///
/// # Errors
///
/// Returns any I/O error, or `InvalidInput` for an empty file.
pub fn flip_bit(path: &Path, byte: u64, bit: u8) -> io::Result<()> {
    let mut data = fs::read(path)?;
    if data.is_empty() {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "cannot flip a bit of an empty file",
        ));
    }
    let idx = (byte % data.len() as u64) as usize;
    data[idx] ^= 1 << (bit % 8);
    fs::write(path, &data)
}

/// Leaves a stale `.tmp` file next to `profile_path`, as a crash between
/// the merge protocol's temporary write and its rename would. Returns the
/// temporary's path.
///
/// # Errors
///
/// Returns any I/O error from creating the file.
pub fn write_stray_tmp(profile_path: &Path, payload: &[u8]) -> io::Result<PathBuf> {
    let tmp = crate::db::tmp_path(profile_path);
    fs::write(&tmp, payload)?;
    Ok(tmp)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcpi_testkit::TempRoot;

    #[test]
    fn truncate_keeps_prefix() {
        let root = TempRoot::new("fsfault-trunc");
        let p = root.join("file");
        fs::write(&p, b"abcdefgh").unwrap();
        truncate_file(&p, 3).unwrap();
        assert_eq!(fs::read(&p).unwrap(), b"abc");
        truncate_file(&p, 100).unwrap();
        assert_eq!(fs::read(&p).unwrap(), b"abc");
    }

    #[test]
    fn flip_bit_is_its_own_inverse() {
        let root = TempRoot::new("fsfault-flip");
        let p = root.join("file");
        fs::write(&p, b"abcd").unwrap();
        flip_bit(&p, 6, 11).unwrap(); // byte 6 % 4 = 2, bit 11 % 8 = 3
        assert_ne!(fs::read(&p).unwrap(), b"abcd");
        flip_bit(&p, 6, 11).unwrap();
        assert_eq!(fs::read(&p).unwrap(), b"abcd");
    }

    #[test]
    fn flip_bit_rejects_empty_file() {
        let root = TempRoot::new("fsfault-empty");
        let p = root.join("file");
        fs::write(&p, b"").unwrap();
        assert!(flip_bit(&p, 0, 0).is_err());
    }

    #[test]
    fn stray_tmp_lands_next_to_profile() {
        let dir = TempRoot::new("fsfault-dir");
        let prof = dir.join("00000003.cycles.prof");
        let tmp = write_stray_tmp(&prof, b"half a merge").unwrap();
        assert_eq!(tmp, dir.join("00000003.cycles.tmp"));
        assert!(tmp.exists());
    }
}
