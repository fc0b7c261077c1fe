//! Process-level counters read from `/proc/self`, and the scratch directory.

use std::path::{Path, PathBuf};

/// `/proc/self/io` counters. `rchar`/`wchar` are bytes passed to read and
/// write system calls and `syscr`/`syscw` the calls themselves; for one
/// thread doing the same work they repeat exactly.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ProcIo {
    /// Bytes read through system calls.
    pub rchar: u64,
    /// Bytes written through system calls.
    pub wchar: u64,
    /// Read system calls.
    pub syscr: u64,
    /// Write system calls.
    pub syscw: u64,
}

impl ProcIo {
    /// Reads the current counters.
    ///
    /// # Panics
    ///
    /// Panics if `/proc/self/io` is unavailable: the count metrics built
    /// on it would silently read 0 otherwise.
    #[must_use]
    pub fn now() -> ProcIo {
        let text = std::fs::read_to_string("/proc/self/io")
            .expect("the benchmark needs /proc/self/io for its byte and syscall counts");
        parse_io(&text)
    }

    /// Counters accrued since `earlier`.
    #[must_use]
    pub fn since(self, earlier: ProcIo) -> ProcIo {
        ProcIo {
            rchar: self.rchar - earlier.rchar,
            wchar: self.wchar - earlier.wchar,
            syscr: self.syscr - earlier.syscr,
            syscw: self.syscw - earlier.syscw,
        }
    }
}

fn parse_io(text: &str) -> ProcIo {
    let field = |key: &str| -> u64 {
        text.lines()
            .find_map(|l| l.strip_prefix(key)?.strip_prefix(':')?.trim().parse().ok())
            .unwrap_or(0)
    };
    ProcIo {
        rchar: field("rchar"),
        wchar: field("wchar"),
        syscr: field("syscr"),
        syscw: field("syscw"),
    }
}

/// Peak resident set (`VmHWM`) in MB.
///
/// # Panics
///
/// Panics if `/proc/self/status` has no `VmHWM` line.
#[must_use]
pub fn peak_rss_mb() -> f64 {
    let text = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status");
    parse_hwm_kb(&text).expect("VmHWM in /proc/self/status") as f64 / 1024.0
}

fn parse_hwm_kb(status: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// The package's `out/` directory: results, traces and scratch live here,
/// inside the checkout, and `.gitignore` names it.
#[must_use]
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// One scratch directory per process under `out/scratch/`, on the same
/// filesystem for every run; removed when dropped.
#[derive(Debug)]
pub struct Scratch(PathBuf);

impl Scratch {
    /// Creates (or empties) this process's scratch directory.
    ///
    /// # Errors
    ///
    /// Returns the I/O error if it cannot be created.
    pub fn create() -> std::io::Result<Scratch> {
        let dir = out_dir()
            .join("scratch")
            .join(std::process::id().to_string());
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(Scratch(dir))
    }

    /// A fresh, empty subdirectory path (removed first if it exists; not
    /// created, since the stores under test create their own roots).
    #[must_use]
    pub fn fresh(&self, name: &str) -> PathBuf {
        let p = self.0.join(name);
        let _ = std::fs::remove_dir_all(&p);
        p
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_proc_io_and_status() {
        let io = parse_io("rchar: 3980\nwchar: 12\nsyscr: 9\nsyscw: 1\nread_bytes: 0\n");
        assert_eq!(
            io,
            ProcIo {
                rchar: 3980,
                wchar: 12,
                syscr: 9,
                syscw: 1
            }
        );
        let later = ProcIo {
            rchar: 4000,
            wchar: 20,
            syscr: 10,
            syscw: 3,
        };
        assert_eq!(later.since(io).wchar, 8);
        assert_eq!(parse_hwm_kb("Name:\tx\nVmHWM:\t   20480 kB\n"), Some(20480));
        assert_eq!(parse_hwm_kb("Name:\tx\n"), None);
    }

    #[test]
    fn live_counters_are_readable_and_monotonic() {
        let a = ProcIo::now();
        let _ = std::fs::read_to_string("/proc/self/status");
        let b = ProcIo::now();
        assert!(b.rchar > a.rchar && b.syscr > a.syscr);
        assert!(peak_rss_mb() > 0.0);
    }
}
