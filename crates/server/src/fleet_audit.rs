//! Offline audit of a fleet server root — the `dcpicheck fleet` layer.
//!
//! Everything the server promises is re-derivable from its root
//! directory: the WAL's checkpoint records what every landed merge left
//! behind and the records after it name every batch accepted since, the
//! database holds the merges' results, and `fleet.json` (when present)
//! records the harness's own accounting. [`check_fleet`] re-derives all
//! of it independently and reports disagreements:
//!
//! * **WAL structure** — records parse in the order `checkpoint? frame*
//!   intent?`, journaled frames decode as `Upload` messages, the tail is
//!   clean (a torn tail is a warning: it is exactly what a crash
//!   mid-append leaves, and reopening repairs it).
//! * **Sequence discipline** — per agent, the sequence numbers journaled
//!   since the checkpoint are exactly `last_seq+1 ..= max`: a gap means
//!   an acked epoch vanished; a repeat means dedup failed and a batch
//!   could double-count.
//! * **Merge intent** — at most one, last, targeting the epoch after the
//!   checkpoint's and naming exactly the journaled batches, each once.
//! * **Database agreement** — the newest epoch is the one the checkpoint
//!   says merged last (anything else is a damaged log head or a foreign
//!   database) and each merged epoch holds the sample total the
//!   checkpoint recorded for it. The trailing intent's epoch is
//!   warning-only: a crash between intent and rotation is recoverable by
//!   replay.
//! * **Conservation** — the checkpoint's ledger plus the journaled
//!   deltas obeys `generated = attributed + unknown + driver_dropped +
//!   crash_lost + quarantined`, the checkpoint's own totals agree with
//!   each other, and `fleet.json`'s totals match the WAL's.

use crate::journal::{self, Checkpoint, WAL_FILE};
use crate::server::epochs_disagree;
use dcpi_check::{Category, Loc, Report, Severity};
use dcpi_collect::faults::LossLedger;
use dcpi_core::codec::Format;
use dcpi_core::db::{EpochId, ProfileDb};
use dcpi_core::json;
use std::collections::BTreeMap;
use std::path::Path;

/// Audits a fleet server root (the directory holding `wal.log`, `db/`,
/// and optionally `fleet.json`). I/O problems (an unreadable WAL) are
/// reported as diagnostics, not errors — the audit always returns.
#[must_use]
pub fn check_fleet(root: &Path) -> Report {
    let mut report = Report::new();
    let wal_path = root.join(WAL_FILE);
    let ctx = root.display().to_string();
    let unreadable = |report: &mut Report, e: std::io::Error| {
        report.flag(
            Category::WalStructure,
            &wal_path.display().to_string(),
            format!("WAL unreadable: {e}"),
        );
    };
    let scan = match journal::scan(&wal_path) {
        Ok(s) => s,
        Err(e) => {
            unreadable(&mut report, e);
            return report;
        }
    };
    let tail = match scan.tail() {
        Ok(t) => t,
        Err(e) => {
            unreadable(&mut report, e);
            return report;
        }
    };
    if !scan.is_clean_tail() {
        report.flag_as(
            Severity::Warning,
            Category::WalStructure,
            Loc::at(&ctx).pc(scan.clean_bytes),
            format!(
                "torn WAL tail: {} trailing byte(s) unparseable (crash mid-append; \
                 reopening the server repairs this)",
                scan.torn_bytes
            ),
        );
    }
    let ckpt = tail.checkpoint.cloned().unwrap_or_default();

    // Decode the frames journaled since the checkpoint. Per agent they
    // must continue its sequence exactly: last_seq+1, +2, …
    let mut last_seq: BTreeMap<u32, u64> =
        (ckpt.agents.iter().map(|(&agent, a)| (agent, a.last_seq))).collect();
    // `(agent, seq)` → sample total of each journaled batch.
    let mut batches: BTreeMap<(u32, u64), u64> = BTreeMap::new();
    let mut fleet = ckpt.ledger;
    for (i, frame) in tail.frames.iter().enumerate() {
        let record = Some(i + usize::from(tail.checkpoint.is_some()));
        match journal::decode_upload(frame) {
            Ok((agent, seq, batch)) => {
                let last = last_seq.entry(agent).or_default();
                if seq != *last + 1 {
                    let what = if seq <= *last {
                        "journaled more than once (dedup failed; samples would double-count)"
                    } else {
                        "journaled across a gap (an acked epoch vanished)"
                    };
                    report.flag(
                        Category::SeqGap,
                        Loc::at(&ctx).block(record),
                        format!("agent {agent} seq {seq} {what}: expected seq {}", *last + 1),
                    );
                }
                *last = seq.max(*last);
                fleet.merge(&batch.ledger);
                batches.insert((agent, seq), batch.sample_total());
            }
            Err(why) => report.flag(Category::WalStructure, Loc::at(&ctx).block(record), why),
        }
    }

    // The trailing intent: next epoch, exactly the journaled batches.
    let merged = ckpt.epochs_merged();
    if let Some((epoch, entries)) = tail.intent {
        let at = Loc::at(&ctx).block(merged as usize);
        if epoch != merged {
            report.flag(
                Category::MergeIntent,
                at,
                format!(
                    "merge intent targets epoch {epoch} (want {merged}, the one after \
                     the checkpoint's)"
                ),
            );
        }
        if !entries.iter().eq(batches.keys()) {
            report.flag(
                Category::MergeIntent,
                at,
                format!(
                    "intent for epoch {epoch} names {} batch(es), not exactly the {} \
                     journaled since the checkpoint (a merge drains the whole queue, \
                     each batch once)",
                    entries.len(),
                    batches.len()
                ),
            );
        }
    }

    // Database agreement: newest epoch, then per-epoch totals.
    let intent_total = tail
        .intent
        .map(|(_, entries)| entries.iter().filter_map(|key| batches.get(key)).sum());
    check_db(&mut report, root, &ctx, &ckpt, intent_total);

    // Conservation over the checkpoint plus the journaled deltas.
    if !fleet.conserves() {
        report.flag(
            Category::FleetConservation,
            &ctx,
            format!(
                "journaled ledger deltas do not conserve: {}",
                fleet.render()
            ),
        );
    }
    let by_epoch: u64 = ckpt.epoch_totals.iter().sum();
    if by_epoch != ckpt.fleet_merged {
        report.flag(
            Category::FleetConservation,
            Loc::at(&ctx).block(0),
            format!(
                "checkpoint records {} merged sample(s) but its epochs sum to {by_epoch}",
                ckpt.fleet_merged
            ),
        );
    }
    check_fleet_json(&mut report, root, &ctx, &fleet);
    report
}

/// `intent_total` is the sample total of the batches a trailing intent
/// names, if the log ends in one.
fn check_db(
    report: &mut Report,
    root: &Path,
    ctx: &str,
    ckpt: &Checkpoint,
    intent_total: Option<u64>,
) {
    let merged = ckpt.epochs_merged();
    let db = match ProfileDb::open(root.join("db"), Format::V2) {
        Ok(db) => db,
        // Nothing merged yet; an absent or epoch-less db is fine.
        Err(_) if merged == 0 && intent_total.is_none() => return,
        Err(e) => {
            report.flag(
                Category::FleetDb,
                ctx,
                format!(
                    "{merged} merged epoch(s) checkpointed but the fleet database \
                     does not open: {e}"
                ),
            );
            return;
        }
    };
    // Mid-merge the intent's epoch may or may not exist yet.
    if let Some(why) = epochs_disagree(&db, merged) {
        if intent_total.is_none() || epochs_disagree(&db, merged + 1).is_some() {
            report.flag(Category::FleetDb, ctx, why);
        }
    }
    let settled = ckpt.epoch_totals.iter().map(|&t| (false, t));
    let pending = intent_total.map(|t| (true, t));
    for (epoch, (pending, want)) in settled.chain(pending).enumerate() {
        // A crash between the intent and the rotation is recoverable by
        // replay, so the trailing intent only warns.
        let (severity, source) = if pending {
            (
                Severity::Warning,
                "the journaled batches named by its intent hold",
            )
        } else {
            (Severity::Error, "the checkpoint records")
        };
        let mut held = 0u64;
        let why = match db.scan(
            [EpochId(epoch as u32)],
            |_| true,
            |_, _, p| held += p.total(),
        ) {
            Ok(()) if held == want => continue,
            Ok(()) => format!("epoch {epoch}: database holds {held} sample(s), {source} {want}"),
            Err(e) => format!("epoch {epoch} is unreadable: {e}"),
        };
        report.flag_as(severity, Category::FleetDb, Loc::at(ctx).block(epoch), why);
    }
}

/// Cross-checks `fleet.json` (when present) against the WAL's totals,
/// reading `conserves` and `ledger.*` by path.
fn check_fleet_json(report: &mut Report, root: &Path, ctx: &str, wal_total: &LossLedger) {
    let Ok(text) = std::fs::read_to_string(root.join("fleet.json")) else {
        return; // No report file: the run never quiesced here. Fine.
    };
    let doc = match json::parse(&text) {
        Ok(doc) => doc,
        Err(e) => {
            return report.flag(
                Category::FleetConservation,
                ctx,
                format!("fleet.json is not a JSON document: {e}"),
            )
        }
    };
    match doc.flag("conserves") {
        Ok(true) => {}
        Ok(false) => report.flag(
            Category::FleetConservation,
            ctx,
            "fleet.json records a failed conservation check",
        ),
        Err(e) => report.flag(
            Category::FleetConservation,
            ctx,
            format!("fleet.json: expected \"conserves\": true, but {e}"),
        ),
    }
    let ledger = match doc.member("ledger") {
        Ok(ledger) => ledger,
        Err(e) => {
            return report.flag(
                Category::FleetConservation,
                ctx,
                format!("fleet.json: expected a \"ledger\" object, but {e}"),
            )
        }
    };
    for b in &LossLedger::BUCKETS {
        let (field, want) = (b.name, (b.get)(wal_total));
        match ledger.int::<u64>(field) {
            Ok(got) if got == want => {}
            Ok(got) => report.flag(
                Category::FleetConservation,
                ctx,
                format!(
                    "fleet.json says {field} = {got}, summing the journaled \
                     deltas gives {want}"
                ),
            ),
            Err(e) => report.flag(
                Category::FleetConservation,
                ctx,
                format!("fleet.json: expected ledger.{field} = {want}, but {e}"),
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fleet::{run_fleet, FleetConfig};
    use crate::server::{IngestServer, ServerConfig};
    use dcpi_obs::Obs;
    use dcpi_testkit::TempRoot;

    #[test]
    fn clean_run_audits_clean() {
        let root = TempRoot::new("fleet-audit-clean");
        let cfg = FleetConfig::new(&root, 8, 11);
        let report = run_fleet(&cfg, &Obs::default()).unwrap();
        assert!(report.conserves(), "{}", report.ledger.render());
        let audit = check_fleet(&root);
        assert!(audit.is_clean(), "{}", audit.render());
    }

    #[test]
    fn tampered_wal_and_json_are_caught() {
        let root = TempRoot::new("fleet-audit-tamper");
        let cfg = FleetConfig::new(&root, 6, 13);
        run_fleet(&cfg, &Obs::default()).unwrap();
        // Rewrite fleet.json's generated count: conservation mismatch.
        let json_path = root.join("fleet.json");
        let text = std::fs::read_to_string(&json_path).unwrap();
        let doc = json::parse(&text).unwrap();
        let g: u64 = doc.member("ledger").unwrap().int("generated").unwrap();
        let conservation_errors = |tampered: String| {
            assert_ne!(tampered, text);
            std::fs::write(&json_path, tampered).unwrap();
            let audit = check_fleet(&root);
            let hits: Vec<String> = audit
                .diags
                .iter()
                .filter(|d| d.category == Category::FleetConservation)
                .map(|d| d.message.clone())
                .collect();
            assert_eq!(audit.errors(), hits.len(), "{}", audit.render());
            hits
        };
        assert!(conservation_errors(text.clone() + " ").is_empty());
        let generated = format!("\"generated\": {g}");
        let hits =
            conservation_errors(text.replace(&generated, &format!("\"generated\": {}", g + 1)));
        assert_eq!(hits.len(), 1, "{hits:?}");
        // A failed check is a failed check however the file is spaced.
        for spacing in [
            "\"conserves\": false",
            "\"conserves\":  false",
            "\"conserves\":false",
        ] {
            let hits = conservation_errors(text.replace("\"conserves\": true", spacing));
            assert_eq!(hits, ["fleet.json records a failed conservation check"]);
        }
        // Unreadable, or missing what the audit reads: errors that say
        // what was expected.
        let hits = conservation_errors(text.replace("\"conserves\": true,", ""));
        assert!(hits[0].contains("expected \"conserves\": true"), "{hits:?}");
        let hits = conservation_errors(text.replace(&format!("{generated},"), ""));
        assert!(
            hits[0].contains(&format!("expected ledger.generated = {g}")),
            "{hits:?}"
        );
        let hits = conservation_errors(text[..text.len() / 2].to_owned());
        assert!(hits[0].contains("not a JSON document"), "{hits:?}");
        std::fs::write(&json_path, &text).unwrap();
        // Chop the WAL mid-record: torn-tail warning.
        let wal = root.join(WAL_FILE);
        let len = std::fs::metadata(&wal).unwrap().len();
        let f = std::fs::OpenOptions::new().write(true).open(&wal).unwrap();
        f.set_len(len - 2).unwrap();
        drop(f);
        let audit2 = check_fleet(&root);
        assert!(audit2
            .diags
            .iter()
            .any(|d| d.category == Category::WalStructure));
    }

    /// Every bucket of every ledger table, each holding a value of its
    /// own, survives every codec: the DCPF ledger varints (which the WAL
    /// checkpoint reuses), the obs export, and `fleet.json` as its audit
    /// reads it. The values are spelled here field by field, apart from
    /// the tables, so a row missing from a table fails.
    #[test]
    fn every_bucket_survives_every_codec() {
        use crate::fleet::{FleetLag, FleetReport};
        use dcpi_collect::faults::FleetLedger;
        use dcpi_collect::wire::{get_ledger, put_ledger};
        use dcpi_core::codec::Reader;
        use dcpi_obs::{OverheadLedger, Snapshot};

        let base = LossLedger {
            generated: 101,
            attributed: 102,
            unknown: 103,
            driver_dropped: 104,
            crash_lost: 105,
            quarantined: 106,
        };
        let overhead = OverheadLedger {
            total_cycles: 201,
            handler_cycles: 202,
            daemon_cycles: 203,
            walk_cycles: 204,
            samples: 205,
        };
        let fleet = FleetLedger {
            base,
            in_flight: 301,
            server_journal: 302,
            fleet_merged: 303,
            retrans_duplicates_discarded: 304,
        };

        let mut buf = Vec::new();
        put_ledger(&mut buf, &base);
        let mut r = Reader::new(&buf);
        assert_eq!(get_ledger(&mut r).unwrap(), base);
        assert!(r.is_empty());

        let snap = Snapshot {
            overhead: Some(overhead),
            samples: Some(base),
            ..Snapshot::default()
        };
        let back = Snapshot::parse(&snap.to_json()).unwrap();
        assert_eq!((back.overhead, back.samples), (Some(overhead), Some(base)));

        let root = TempRoot::new("fleet-audit-buckets");
        let report = FleetReport {
            ledger: fleet,
            expected_generated: 0,
            server_stats: Default::default(),
            net_stats: Default::default(),
            uploader_stats: Default::default(),
            agents: 0,
            epochs_sealed: 0,
            tombstones: 0,
            agent_crashes: 0,
            server_crashes: 0,
            ticks: 0,
            lag: FleetLag::default(),
            root: root.to_path_buf(),
            obs: None,
        };
        std::fs::write(root.join("fleet.json"), report.to_json()).unwrap();
        let doc = json::parse(&std::fs::read_to_string(root.join("fleet.json")).unwrap()).unwrap();
        let ledger = doc.member("ledger").unwrap();
        for (key, want) in [
            ("generated", 101),
            ("attributed", 102),
            ("unknown", 103),
            ("driver_dropped", 104),
            ("crash_lost", 105),
            ("quarantined", 106),
            ("in_flight", 301),
            ("server_journal", 302),
            ("fleet_merged", 303),
            ("retrans_duplicates_discarded", 304),
        ] {
            assert_eq!(ledger.int::<u64>(key), Ok(want), "ledger.{key}");
        }

        // The audit compares every sample bucket: the file's own totals
        // pass, and a WAL total off in any one bucket is named.
        let mismatches = |wal_total: &LossLedger| -> Vec<String> {
            let mut report = Report::new();
            check_fleet_json(&mut report, &root, "fleet", wal_total);
            let says = report.diags.into_iter().map(|d| d.message);
            says.filter(|m| m.starts_with("fleet.json says")).collect()
        };
        assert_eq!(mismatches(&base), Vec::<String>::new());
        type Slot = fn(&mut LossLedger) -> &mut u64;
        let buckets: [(&str, Slot); 6] = [
            ("generated", |l| &mut l.generated),
            ("attributed", |l| &mut l.attributed),
            ("unknown", |l| &mut l.unknown),
            ("driver_dropped", |l| &mut l.driver_dropped),
            ("crash_lost", |l| &mut l.crash_lost),
            ("quarantined", |l| &mut l.quarantined),
        ];
        for (key, slot) in buckets {
            let mut off = base;
            *slot(&mut off) += 1000;
            let hits = mismatches(&off);
            assert_eq!(hits.len(), 1, "{key}: {hits:?}");
            assert!(
                hits[0].starts_with(&format!("fleet.json says {key} = ")),
                "{hits:?}"
            );
        }
    }

    /// `reopen` must refuse the root and the audit must flag the database
    /// with an error saying `needle`.
    fn assert_refused(root: &Path, needle: &str) {
        let err = IngestServer::reopen(ServerConfig::new(root), 0).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{err}");
        assert!(err.to_string().contains(needle), "{err}");
        let audit = check_fleet(root);
        assert!(
            audit.diags.iter().any(|d| d.severity == Severity::Error
                && d.category == Category::FleetDb
                && d.message.contains(needle)),
            "{}",
            audit.render()
        );
    }

    #[test]
    fn damaged_log_head_is_refused_not_restarted_at_epoch_zero() {
        let root = TempRoot::new("fleet-audit-head");
        run_fleet(&FleetConfig::new(&root, 6, 17), &Obs::default()).unwrap();
        let wal = root.join(WAL_FILE);
        let mut bytes = std::fs::read(&wal).unwrap();
        bytes[7] ^= 0x40; // inside the checkpoint, the log's first record
        std::fs::write(&wal, &bytes).unwrap();
        let scan = journal::scan(&wal).unwrap();
        assert!(scan.records.is_empty() && scan.torn_bytes > 0);
        // Taking this for "no merge ever happened" would merge the next
        // batches into epoch 0 a second time.
        assert_refused(&root, "records 0 merged epoch(s)");
        assert_refused(&root, "expected an empty epoch 0");
        assert_eq!(
            std::fs::read(&wal).unwrap(),
            bytes,
            "refusing wrote nothing"
        );
    }

    #[test]
    fn checkpoint_and_database_must_agree_on_the_newest_epoch() {
        let root = TempRoot::new("fleet-audit-newest");
        run_fleet(&FleetConfig::new(&root, 6, 19), &Obs::default()).unwrap();
        let scan = journal::scan(&root.join(WAL_FILE)).unwrap();
        let merged = scan.tail().unwrap().checkpoint.unwrap().epochs_merged();
        assert!(merged >= 2, "{merged}");
        let epoch_dir = |e: u32| root.join(format!("db/epoch_{e:04}"));
        // An epoch the log knows nothing about.
        std::fs::create_dir(epoch_dir(merged)).unwrap();
        assert_refused(
            &root,
            &format!("newest is epoch {merged} (expected epoch {})", merged - 1),
        );
        std::fs::remove_dir(epoch_dir(merged)).unwrap();
        assert!(check_fleet(&root).is_clean());
        // The newest merged epoch gone.
        std::fs::remove_dir_all(epoch_dir(merged - 1)).unwrap();
        assert_refused(
            &root,
            &format!(
                "newest is epoch {} (expected epoch {})",
                merged - 2,
                merged - 1
            ),
        );
    }

    #[test]
    fn trailing_intent_only_warns_but_must_name_the_journal() {
        let root = TempRoot::new("fleet-audit-intent");
        let cfg = FleetConfig::new(&root, 4, 23);
        run_fleet(&cfg, &Obs::default()).unwrap();
        let merged = {
            let scan = journal::scan(&root.join(WAL_FILE)).unwrap();
            scan.tail().unwrap().checkpoint.unwrap().epochs_merged()
        };
        // A well-formed intent for the next epoch over an empty queue: the
        // crash-mid-merge shape. Its epoch does not exist yet — a warning.
        let mut wal = journal::Journal::open(&root).unwrap();
        wal.append_intent(merged, &[]).unwrap();
        let audit = check_fleet(&root);
        assert_eq!(audit.errors(), 0, "{}", audit.render());
        assert!(audit
            .diags
            .iter()
            .any(|d| d.severity == Severity::Warning && d.category == Category::FleetDb));
        // A second intent is not a log this server writes.
        wal.append_intent(merged + 1, &[(0, 99)]).unwrap();
        let audit = check_fleet(&root);
        assert!(audit
            .diags
            .iter()
            .any(|d| d.severity == Severity::Error && d.category == Category::WalStructure));
    }
}
