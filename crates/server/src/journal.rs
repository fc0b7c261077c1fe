//! The server's checkpointed write-ahead log.
//!
//! Every accepted upload is journaled *before* it is acknowledged, so
//! an ack is a durability promise: a server crash between ack and
//! fleet-database merge loses nothing — replay re-queues the batch.
//! The log holds three record kinds and always has the shape
//! `checkpoint? frame* intent?`:
//!
//! * **Checkpoint** — the server's settled state after a merge landed:
//!   each merged epoch's sample total, per-agent journal totals, the
//!   summed loss ledger and the merged-sample count. Written by
//!   [`Journal::rotate`], which replaces the whole log with this one
//!   record, so a checkpoint is only ever the first record and recovery
//!   reads O(unmerged) bytes however long the server has run.
//! * **Frame** — one verbatim wire frame (an `Upload` message exactly
//!   as it arrived, CRC and all). Journaling the received bytes keeps
//!   the log self-verifying: replay re-runs the same decode path the
//!   live server used.
//! * **MergeIntent** — appended immediately *before* the queued batches
//!   (every frame since the checkpoint) are merged into the fleet
//!   database, naming the target epoch and the `(agent, seq)` set. It is
//!   only ever the last record: a finished merge rotates the log. A log
//!   that still ends in an intent is a crash mid-merge; reopen deletes
//!   that one partial epoch and rebuilds it from the frames, so a crash
//!   at any point between intent and rotation converges to the same
//!   database.
//!
//! Each record is a [`dcpi_core::codec::Frame`] with no magic, tagged
//! `[type]` (DESIGN.md §6 has the layout). A torn tail — a crash
//! mid-append — fails to open, which parses as "log ends here" and is
//! truncated away when the log is next opened; corruption anywhere else
//! is a structural error `dcpicheck fleet` reports.
//!
//! Durability: appends are `flush()`ed to the OS and the rotation is a
//! write-then-`rename`, neither followed by `sync_all()`. What was acked
//! survives a crash of the server *process* at any instruction; it does
//! not survive power loss or a kernel crash.

use dcpi_collect::faults::{ledger_add, LossLedger};
use dcpi_collect::wire::{self, decode_msg, EpochBatch, Msg};
use dcpi_core::codec::{put_varint, Frame, Reader};
use dcpi_core::Error;
use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::{self, Write};
use std::ops::Range;
use std::path::{Path, PathBuf};

/// File name of the WAL inside a server root.
pub const WAL_FILE: &str = "wal.log";

/// The rotation's scratch file: the next log, until it is renamed over
/// [`WAL_FILE`]. One left behind by a crash is deleted unread.
pub const WAL_TMP_FILE: &str = "wal.log.tmp";

/// What the journal has recorded for one agent.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AgentTotals {
    /// Highest journaled sequence number.
    pub last_seq: u64,
    /// Uploads journaled.
    pub uploads: u64,
    /// Profile samples journaled.
    pub samples: u64,
    /// Samples the agent's ledger deltas report as generated.
    pub generated: u64,
    /// Samples those deltas report as dropped, crash-lost or quarantined.
    pub losses: u64,
}

impl AgentTotals {
    /// Folds in one journaled upload: its sequence number, the samples
    /// its profiles carry ([`EpochBatch::sample_total`], counted once by
    /// the caller) and its ledger delta.
    pub fn add(&mut self, seq: u64, samples: u64, l: &LossLedger) {
        self.last_seq = self.last_seq.max(seq);
        self.uploads += 1;
        ledger_add(&mut self.samples, samples);
        ledger_add(&mut self.generated, l.generated);
        for loss in [l.driver_dropped, l.crash_lost, l.quarantined] {
            ledger_add(&mut self.losses, loss);
        }
    }
}

/// The server's settled state at the instant a merge landed and nothing
/// journaled was left unmerged. Everything here is a pure function of
/// the uploads merged so far, so the record is the same whichever crash
/// points the server went through on the way.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Checkpoint {
    /// Sample total of each merged fleet-database epoch, epoch 0 first.
    pub epoch_totals: Vec<u64>,
    /// Journal totals of every agent that has uploaded.
    pub agents: BTreeMap<u32, AgentTotals>,
    /// Sum of the merged batches' ledger deltas.
    pub ledger: LossLedger,
    /// Samples merged into the fleet database.
    pub fleet_merged: u64,
}

impl Checkpoint {
    /// Merges completed; also the next merge's target epoch.
    #[must_use]
    pub fn epochs_merged(&self) -> u32 {
        u32::try_from(self.epoch_totals.len()).unwrap_or(u32::MAX)
    }

    fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        put_varint(&mut out, self.epoch_totals.len() as u64);
        for &total in &self.epoch_totals {
            put_varint(&mut out, total);
        }
        put_varint(&mut out, self.agents.len() as u64);
        for (&agent, a) in &self.agents {
            let id = u64::from(agent);
            for v in [id, a.last_seq, a.uploads, a.samples, a.generated, a.losses] {
                put_varint(&mut out, v);
            }
        }
        wire::put_ledger(&mut out, &self.ledger);
        put_varint(&mut out, self.fleet_merged);
        out
    }

    fn decode(payload: &[u8]) -> dcpi_core::Result<Checkpoint> {
        let r = &mut Reader::new(payload);
        let epochs = r.count(1)?;
        let epoch_totals = (0..epochs)
            .map(|_| r.varint())
            .collect::<dcpi_core::Result<_>>()?;
        let mut agents = BTreeMap::new();
        // An agent is its id and five totals.
        for _ in 0..r.count(6)? {
            let agent = r.var("agent id")?;
            if agents.last_key_value().is_some_and(|(&a, _)| a >= agent) {
                return Err(Error::Corrupt("checkpoint agents out of order".into()));
            }
            let totals = AgentTotals {
                last_seq: r.varint()?,
                uploads: r.varint()?,
                samples: r.varint()?,
                generated: r.varint()?,
                losses: r.varint()?,
            };
            agents.insert(agent, totals);
        }
        let checkpoint = Checkpoint {
            epoch_totals,
            agents,
            ledger: wire::get_ledger(r)?,
            fleet_merged: r.varint()?,
        };
        r.finish("the checkpoint")?;
        Ok(checkpoint)
    }
}

/// One parsed WAL record.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WalRecord {
    /// A verbatim wire frame (an accepted `Upload`): its byte range in
    /// the scanned log, read through [`WalScan::frame`].
    Frame(Range<usize>),
    /// A merge about to happen: target epoch and the batches going in.
    MergeIntent {
        /// Fleet-database epoch the group merges into.
        epoch: u32,
        /// `(agent, seq)` of every batch in the group, sorted.
        entries: Vec<(u32, u64)>,
    },
    /// The state a landed merge left behind.
    Checkpoint(Checkpoint),
}

/// One log record: no magic, tagged `[type]`.
pub const RECORD: Frame = Frame {
    magic: b"",
    tag_bytes: 1,
};

const REC_FRAME: u8 = 1;
const REC_INTENT: u8 = 2;
const REC_CHECKPOINT: u8 = 3;

/// Result of scanning a WAL file.
#[derive(Clone, Debug, Default)]
pub struct WalScan {
    /// Records parsed, in append order.
    pub records: Vec<WalRecord>,
    /// Bytes of well-formed log consumed.
    pub clean_bytes: u64,
    /// Bytes abandoned at the tail (a crash mid-append). Zero for a
    /// clean log.
    pub torn_bytes: u64,
    /// The file as read; frame records point into it.
    log: Vec<u8>,
}

/// A scanned log taken apart along `checkpoint? frame* intent?`.
#[derive(Clone, Debug)]
pub struct WalTail<'a> {
    /// The checkpoint at the head of the log, if a merge ever landed.
    pub checkpoint: Option<&'a Checkpoint>,
    /// The frames journaled since, in arrival order.
    pub frames: Vec<&'a [u8]>,
    /// The intent the log ends in, if a merge was cut short:
    /// `(epoch, entries)`.
    pub intent: Option<(u32, &'a [(u32, u64)])>,
}

impl WalScan {
    /// True if the log ended cleanly.
    #[must_use]
    pub fn is_clean_tail(&self) -> bool {
        self.torn_bytes == 0
    }

    /// The wire frame a [`WalRecord::Frame`] points at.
    #[must_use]
    pub fn frame(&self, range: &Range<usize>) -> &[u8] {
        &self.log[range.clone()]
    }

    /// Splits the records into checkpoint, frames and trailing intent.
    ///
    /// # Errors
    ///
    /// Returns `InvalidData` for a log this build cannot have written: a
    /// checkpoint past the head, or any record after a merge intent.
    pub fn tail(&self) -> io::Result<WalTail<'_>> {
        let (checkpoint, rest) = match self.records.split_first() {
            Some((WalRecord::Checkpoint(c), rest)) => (Some(c), rest),
            _ => (None, &self.records[..]),
        };
        let (mut frames, mut intent) = (Vec::new(), None);
        for (i, rec) in rest.iter().enumerate() {
            match rec {
                WalRecord::Frame(range) if intent.is_none() => frames.push(self.frame(range)),
                WalRecord::MergeIntent { epoch, entries } if intent.is_none() => {
                    intent = Some((*epoch, &entries[..]));
                }
                _ => {
                    let at = i + usize::from(checkpoint.is_some());
                    let why = format!("WAL record {at} breaks `checkpoint? frame* intent?`");
                    return Err(io::Error::new(io::ErrorKind::InvalidData, why));
                }
            }
        }
        Ok(WalTail {
            checkpoint,
            frames,
            intent,
        })
    }
}

/// Decodes a journaled frame as the `Upload` it was accepted as:
/// `(agent, seq, batch)`.
///
/// # Errors
///
/// Returns a message if the frame does not decode or is another message.
pub fn decode_upload(frame: &[u8]) -> Result<(u32, u64, EpochBatch), String> {
    match decode_msg(frame) {
        Ok(Msg::Upload {
            agent, seq, batch, ..
        }) => Ok((agent, seq, batch)),
        Ok(other) => Err(format!(
            "journaled frame is not an Upload (type {})",
            other.type_code()
        )),
        Err(e) => Err(format!("journaled frame fails to decode: {e}")),
    }
}

/// Append handle for one WAL file.
#[derive(Debug)]
pub struct Journal {
    path: PathBuf,
    file: File,
    /// Bytes of well-formed log on disk (after torn-tail repair), kept
    /// current across appends so the server can export a WAL-size gauge
    /// without stat-ing the file on every upload.
    bytes: u64,
}

impl Journal {
    /// Opens (or creates) the WAL under `root` for appending: scans it
    /// and [`Journal::resume`]s from the scan.
    ///
    /// # Errors
    ///
    /// Returns an I/O error if the file cannot be read, opened or
    /// repaired.
    pub fn open(root: &Path) -> io::Result<Journal> {
        Journal::resume(root, &scan(&root.join(WAL_FILE))?)
    }

    /// Opens the WAL under `root` for appending after `scan`, which must
    /// be the scan of that file as it is now. A torn tail from a previous
    /// crash is truncated away so new records land on a clean boundary,
    /// and a rotation scratch file left by a crash before its rename is
    /// removed unread. A clean log is not written to.
    ///
    /// # Errors
    ///
    /// Returns an I/O error if the file cannot be opened or repaired.
    pub fn resume(root: &Path, scan: &WalScan) -> io::Result<Journal> {
        match std::fs::remove_file(root.join(WAL_TMP_FILE)) {
            Err(e) if e.kind() != io::ErrorKind::NotFound => return Err(e),
            _ => {}
        }
        let path = root.join(WAL_FILE);
        let file = OpenOptions::new().create(true).append(true).open(&path)?;
        if scan.torn_bytes > 0 {
            file.set_len(scan.clean_bytes)?;
        }
        Ok(Journal {
            path,
            file,
            bytes: scan.clean_bytes,
        })
    }

    /// The WAL file path.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Bytes of log on disk (tracked across appends, rotation and
    /// open-time repair; does not re-stat the file).
    #[must_use]
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    fn append(&mut self, ty: u8, payload: &[u8]) -> io::Result<()> {
        let rec = RECORD.seal(&[ty], payload);
        self.file.write_all(&rec)?;
        self.bytes += rec.len() as u64;
        self.file.flush()
    }

    /// Appends one verbatim wire frame and flushes it to the OS — the
    /// durability point the subsequent ack promises.
    ///
    /// # Errors
    ///
    /// Returns an I/O error if the append fails.
    pub fn append_frame(&mut self, frame: &[u8]) -> io::Result<()> {
        self.append(REC_FRAME, frame)
    }

    /// Appends a merge intent for `entries` going into `epoch`.
    ///
    /// # Errors
    ///
    /// Returns an I/O error if the append fails.
    pub fn append_intent(&mut self, epoch: u32, entries: &[(u32, u64)]) -> io::Result<()> {
        let mut payload = Vec::new();
        put_varint(&mut payload, u64::from(epoch));
        put_varint(&mut payload, entries.len() as u64);
        for &(agent, seq) in entries {
            put_varint(&mut payload, u64::from(agent));
            put_varint(&mut payload, seq);
        }
        self.append(REC_INTENT, &payload)
    }

    /// Replaces the log with one holding only `checkpoint`: the record is
    /// written to [`WAL_TMP_FILE`], renamed over the log, and the handle
    /// keeps appending to it. Call only when nothing journaled is
    /// unmerged — every frame and the intent in the old log are dropped.
    /// Returns the old log's size in bytes.
    ///
    /// # Errors
    ///
    /// Returns an I/O error if the write or the rename fails; the old
    /// log is then still in place and still the one appended to.
    pub fn rotate(&mut self, checkpoint: &Checkpoint) -> io::Result<u64> {
        let rec = RECORD.seal(&[REC_CHECKPOINT], &checkpoint.encode());
        let tmp = self.path.with_file_name(WAL_TMP_FILE);
        let mut file = File::create(&tmp)?;
        file.write_all(&rec)?;
        file.flush()?;
        std::fs::rename(&tmp, &self.path)?;
        // The handle follows the file through the rename, positioned at
        // its end: the next append lands right after the checkpoint.
        self.file = file;
        Ok(std::mem::replace(&mut self.bytes, rec.len() as u64))
    }
}

fn parse_intent(payload: &[u8]) -> dcpi_core::Result<WalRecord> {
    let r = &mut Reader::new(payload);
    let epoch = r.var("epoch")?;
    // An entry is an agent id and a sequence number.
    let entries = (0..r.count(2)?)
        .map(|_| Ok((r.var("agent id")?, r.varint()?)))
        .collect::<dcpi_core::Result<_>>()?;
    r.finish("the merge intent")?;
    Ok(WalRecord::MergeIntent { epoch, entries })
}

/// Takes the record at the front of `r`, a cursor over a log of
/// `log_len` bytes. The payload is borrowed, never copied.
fn parse_record(r: &mut Reader, log_len: usize) -> dcpi_core::Result<WalRecord> {
    let (tags, payload) = RECORD.open(r)?;
    let end = log_len - r.remaining();
    match tags[0] {
        REC_FRAME => Ok(WalRecord::Frame(end - payload.len()..end)),
        REC_INTENT => parse_intent(payload),
        REC_CHECKPOINT => Checkpoint::decode(payload).map(WalRecord::Checkpoint),
        ty => Err(Error::Corrupt(format!("unknown WAL record type {ty}"))),
    }
}

/// Scans a WAL file, stopping at the first malformed record (a torn
/// tail). Everything before the stop point is returned; the torn byte
/// count lets callers distinguish "clean end" from "crash mid-append".
///
/// # Errors
///
/// Returns an I/O error if the file cannot be read. A missing file
/// scans as empty.
pub fn scan(path: &Path) -> io::Result<WalScan> {
    let log = match std::fs::read(path) {
        Ok(b) => b,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(WalScan::default()),
        Err(e) => return Err(e),
    };
    let mut records = Vec::new();
    let mut r = Reader::new(&log);
    let mut at = 0;
    while !r.is_empty() {
        let Ok(rec) = parse_record(&mut r, log.len()) else {
            break;
        };
        records.push(rec);
        at = log.len() - r.remaining();
    }
    Ok(WalScan {
        records,
        clean_bytes: at as u64,
        torn_bytes: (log.len() - at) as u64,
        log,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcpi_testkit::TempRoot;

    fn sample_checkpoint() -> Checkpoint {
        let totals = |n: u64| AgentTotals {
            last_seq: n,
            uploads: n,
            samples: 1000 * n,
            generated: 1100 * n,
            losses: 100 * n,
        };
        Checkpoint {
            epoch_totals: vec![3000, 0, 4000],
            agents: [(2, totals(3)), (7, totals(4))].into(),
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

    #[test]
    fn append_scan_roundtrip() {
        let root = TempRoot::new("journal-roundtrip");
        let mut j = Journal::open(&root).unwrap();
        assert_eq!(j.bytes(), 0);
        j.append_frame(b"frame-one").unwrap();
        j.append_frame(b"frame-two").unwrap();
        j.append_intent(0, &[(1, 1), (2, 1)]).unwrap();
        let tracked = j.bytes();
        drop(j);
        assert_eq!(
            tracked,
            std::fs::metadata(root.join(WAL_FILE)).unwrap().len(),
            "byte counter tracks the file"
        );
        // Re-opening a clean log restores the counter from the scan.
        let j = Journal::open(&root).unwrap();
        assert_eq!(j.bytes(), tracked);
        drop(j);
        let scan = scan(&root.join(WAL_FILE)).unwrap();
        assert!(scan.is_clean_tail());
        assert_eq!(scan.records.len(), 3);
        let tail = scan.tail().unwrap();
        assert!(tail.checkpoint.is_none());
        assert_eq!(tail.frames, [&b"frame-one"[..], b"frame-two"]);
        assert_eq!(tail.intent, Some((0, &[(1, 1), (2, 1)][..])));
    }

    #[test]
    fn rotate_leaves_one_checkpoint_and_keeps_appending() {
        let root = TempRoot::new("journal-rotate");
        let path = root.join(WAL_FILE);
        let mut j = Journal::open(&root).unwrap();
        j.append_frame(b"merged-and-gone").unwrap();
        j.append_intent(2, &[(2, 3)]).unwrap();
        let before = j.bytes();
        let ckpt = sample_checkpoint();
        assert_eq!(j.rotate(&ckpt).unwrap(), before, "reports what it dropped");
        assert!(
            !root.join(WAL_TMP_FILE).exists(),
            "scratch file renamed away"
        );
        assert_eq!(j.bytes(), std::fs::metadata(&path).unwrap().len());
        let s = scan(&path).unwrap();
        assert_eq!(s.records, [WalRecord::Checkpoint(ckpt.clone())]);
        assert_eq!(ckpt.epochs_merged(), 3);
        // The handle followed the rename: appends land after the record.
        j.append_frame(b"next").unwrap();
        assert_eq!(j.bytes(), std::fs::metadata(&path).unwrap().len());
        let s = scan(&path).unwrap();
        let tail = s.tail().unwrap();
        assert_eq!(tail.checkpoint, Some(&ckpt));
        assert_eq!(tail.frames, [b"next"]);
        assert!(tail.intent.is_none() && s.is_clean_tail());
    }

    #[test]
    fn stale_rotation_scratch_is_removed_unread() {
        let root = TempRoot::new("journal-stale-tmp");
        let mut j = Journal::open(&root).unwrap();
        j.append_frame(b"kept").unwrap();
        drop(j);
        // A crash between the scratch write and the rename.
        std::fs::write(root.join(WAL_TMP_FILE), b"\x03garbage").unwrap();
        let j = Journal::open(&root).unwrap();
        assert!(!root.join(WAL_TMP_FILE).exists());
        let s = scan(j.path()).unwrap();
        assert_eq!(s.tail().unwrap().frames, [b"kept"]);
    }

    #[test]
    fn misplaced_records_are_invalid_data() {
        let root = TempRoot::new("journal-grammar");
        let mut j = Journal::open(&root).unwrap();
        j.append_intent(0, &[(1, 1)]).unwrap();
        j.append_intent(1, &[(1, 2)]).unwrap();
        let err = scan(j.path()).unwrap().tail().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("record 1"), "{err}");
        // A checkpoint anywhere but the head.
        j.rotate(&Checkpoint::default()).unwrap();
        j.append(REC_CHECKPOINT, &sample_checkpoint().encode())
            .unwrap();
        let err = scan(j.path()).unwrap().tail().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn lying_counts_do_not_reserve_past_the_payload() {
        // A checkpoint claiming 2^31 epochs and an intent claiming 2^60
        // entries, each in a few bytes with a valid CRC: both must parse as
        // "log ends here" without reserving what they claim.
        for (ty, claim) in [(REC_CHECKPOINT, 1u64 << 31), (REC_INTENT, 1 << 60)] {
            let mut payload = Vec::new();
            if ty == REC_INTENT {
                put_varint(&mut payload, 0);
            }
            put_varint(&mut payload, claim);
            payload.extend_from_slice(&[1, 2, 3]);
            let log = RECORD.seal(&[ty], &payload);
            assert!(parse_record(&mut Reader::new(&log), log.len()).is_err());
        }
        // Agents out of order are not a checkpoint this build writes.
        // No epochs; agents 5 then 5 again, all-zero totals; zero ledger.
        let repeated_agent = [
            &[0, 2][..],
            &[5, 0, 0, 0, 0, 0],
            &[5, 0, 0, 0, 0, 0],
            &[0; 7],
        ];
        assert!(Checkpoint::decode(&repeated_agent.concat()).is_err());
        let one_agent = [&[0, 1][..], &[5, 0, 0, 0, 0, 0], &[0; 7]].concat();
        assert!(Checkpoint::decode(&one_agent).is_ok());
        // A length that would overflow `4 + len` is a torn tail, not a panic.
        let mut log = vec![REC_FRAME];
        put_varint(&mut log, u64::MAX);
        log.extend_from_slice(&[0; 8]);
        assert!(parse_record(&mut Reader::new(&log), log.len()).is_err());
    }

    #[test]
    fn torn_tail_is_detected_and_repaired_on_open() {
        let root = TempRoot::new("journal-torn");
        let mut j = Journal::open(&root).unwrap();
        j.append_frame(b"good").unwrap();
        j.append_frame(b"will-be-torn").unwrap();
        drop(j);
        let path = root.join(WAL_FILE);
        let len = std::fs::metadata(&path).unwrap().len();
        let f = OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(len - 3).unwrap();
        drop(f);
        let scan1 = scan(&path).unwrap();
        assert!(!scan1.is_clean_tail());
        assert_eq!(scan1.records.len(), 1, "only the intact record");
        // Resuming from that scan truncates the torn tail without a second
        // read; new appends land cleanly.
        let mut j = Journal::resume(&root, &scan1).unwrap();
        assert_eq!(j.bytes(), scan1.clean_bytes);
        j.append_frame(b"after-repair").unwrap();
        drop(j);
        let scan2 = scan(&path).unwrap();
        assert!(scan2.is_clean_tail());
        assert_eq!(
            scan2.tail().unwrap().frames,
            [&b"good"[..], b"after-repair"]
        );
    }

    #[test]
    fn mid_log_bitflip_stops_the_scan() {
        let root = TempRoot::new("journal-flip");
        let mut j = Journal::open(&root).unwrap();
        j.append_frame(b"aaaa").unwrap();
        j.append_frame(b"bbbb").unwrap();
        drop(j);
        let path = root.join(WAL_FILE);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[7] ^= 0x40; // inside the first record's payload
        std::fs::write(&path, &bytes).unwrap();
        let s = scan(&path).unwrap();
        assert_eq!(s.records.len(), 0);
        assert!(s.torn_bytes > 0);
    }

    #[test]
    fn missing_file_scans_empty() {
        let root = TempRoot::new("journal-missing");
        let s = scan(&root.join(WAL_FILE)).unwrap();
        assert!(s.records.is_empty() && s.is_clean_tail());
    }
}
