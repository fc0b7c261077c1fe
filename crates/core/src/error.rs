//! Error type shared across the workspace.

use std::fmt;
use std::io;

/// Convenient result alias used throughout DCPI-RS.
pub type Result<T> = std::result::Result<T, Error>;

/// Errors produced by the profile database, codecs, and analysis front ends.
#[derive(Debug)]
pub enum Error {
    /// An underlying I/O operation failed.
    Io(io::Error),
    /// A profile file or stream was malformed.
    Corrupt(String),
    /// A profile file used an unsupported format version.
    UnsupportedVersion(u8),
    /// A requested image, epoch, or profile does not exist.
    NotFound(String),
    /// An argument was outside its legal range.
    Invalid(String),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Io(e) => write!(f, "i/o error: {e}"),
            Error::Corrupt(msg) => write!(f, "corrupt profile data: {msg}"),
            Error::UnsupportedVersion(v) => write!(f, "unsupported profile format version {v}"),
            Error::NotFound(what) => write!(f, "not found: {what}"),
            Error::Invalid(msg) => write!(f, "invalid argument: {msg}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for Error {
    fn from(e: io::Error) -> Self {
        Error::Io(e)
    }
}

/// For the decoders whose error is a plain message (`Image::from_bytes`,
/// `StackProfile::from_bytes`): `?` on a [`crate::codec::Reader`] take
/// renders the error.
impl From<Error> for String {
    fn from(e: Error) -> String {
        e.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = Error::Corrupt("bad magic".into());
        assert!(e.to_string().contains("bad magic"));
        let e = Error::UnsupportedVersion(9);
        assert!(e.to_string().contains('9'));
    }

    #[test]
    fn io_error_converts() {
        let ioe = io::Error::new(io::ErrorKind::NotFound, "gone");
        let e: Error = ioe.into();
        assert!(matches!(e, Error::Io(_)));
        assert!(std::error::Error::source(&e).is_some());
    }
}
