//! `ingest`: the fleet write path.
//!
//! [`AGENTS`] uploaders × [`EPOCHS`] epochs are pushed in-process and
//! loss-free into one `IngestServer` (`queue_cap` above the load), then
//! the server is dropped and reopened from its WAL. `collect::wire`,
//! `collect::uploader`, `server::journal`, `server::server` and the
//! fresh-epoch `ProfileDb::merge` (one fsync per file) do the work; the
//! simulator, the driver and the daemon do none. Roadmap item 2's segment
//! store and WAL checkpoint must show here.
//!
//! A rep is sized to block on the disk rarely: one merge epoch of 64
//! batches over a small image universe, about 17 fsyncs against 120 ms of
//! CPU. ISSUE 11 asked for 16 × 8 epochs, four merges and 48 images (384
//! fsyncs a rep); that rep was 55% device wait and its fastest time moved
//! by 23% between runs as the sandbox's fsync latency drifted (README.md,
//! "Noise"). The per-file cost it was meant to expose is still measured,
//! by `core.db.merge_us_per_file.fresh` and the file and byte counts.

use crate::gen::{agent_epochs, upload_frame, Fnv64};
use crate::harness::{
    fastest_span, once, phase, run_phases, timed_setups, trace_overhead_pct, Ctx, Outcome, Phase,
    Rep, StageReport,
};
use crate::sys::ProcIo;
use crate::trace::Tracer;
use dcpi_collect::faults::FleetLedger;
use dcpi_collect::uploader::{Uploader, UploaderConfig};
use dcpi_collect::wire::{decode_msg, encode_msg, EpochBatch, Msg, FEATURE_STACKS};
use dcpi_core::codec::Format;
use dcpi_core::db::ProfileDb;
use dcpi_core::ProfileSet;
use dcpi_server::{check_fleet, journal, IngestServer, Journal, ServerConfig};
use dcpi_stacks::StackProfile;
use std::cell::Cell;
use std::hint::black_box;
use std::path::{Path, PathBuf};

/// Uploading agents.
pub const AGENTS: u32 = 16;
/// Epochs each agent seals per rep.
pub const EPOCHS: u32 = 4;
/// Server ticks between merges: agents upload one epoch per tick, so a
/// rep of [`EPOCHS`] ticks is one merge epoch of 64 batches.
const MERGE_EVERY: u64 = 4;

/// Per-agent scripted epochs.
struct Scripts {
    scripts: Vec<Vec<EpochBatch>>,
    generated: u64,
}

/// The scripts plus what the set-up's untimed audit rep found.
struct Fixture {
    fx: Scripts,
    /// What the audit push left under the root.
    pushed: Pushed,
    /// Bytes and system calls the audit push wrote.
    io: ProcIo,
    audit_ok: bool,
}

/// Set-up: generate the scripts, then one untimed push that warms the
/// path, yields the byte and syscall counts, and gets the slow audits.
fn setup(seed: u32, root: &Path) -> Fixture {
    let scripts: Vec<Vec<EpochBatch>> =
        (0..AGENTS).map(|a| agent_epochs(seed, a, EPOCHS)).collect();
    let generated = scripts.iter().flatten().map(EpochBatch::sample_total).sum();
    let fx = Scripts { scripts, generated };
    let left = Cell::new(Pushed::default());
    let io0 = ProcIo::now();
    let audit = once("push", |rep| push(rep, &fx, root, EPOCHS as usize, &left));
    let io = ProcIo::now().since(io0);
    Fixture {
        audit_ok: audit.failed == 0 && audit_root(root, fx.generated),
        fx,
        pushed: left.get(),
        io,
    }
}

fn server_config(root: &Path) -> ServerConfig {
    ServerConfig {
        // Above the load: nothing is nacked, nothing carries backpressure.
        queue_cap: 4096,
        backpressure_at: 4096,
        merge_every: MERGE_EVERY,
        ..ServerConfig::new(root)
    }
}

/// What a push left behind, for the reopen phase and the count rows.
#[derive(Clone, Copy, Debug, Default)]
struct Pushed {
    ledger: FleetLedger,
    ticks: u64,
    upload_bytes: u64,
    wal_bytes: u64,
    merges: u64,
}

/// One rep: every agent's epochs through uploader and server into the
/// fleet database under `root`, first `Uploader::tick` to
/// `IngestServer::finish`. `epochs` limits each agent's script (the
/// quarter-history root uses a quarter of it).
fn push(
    rep: &mut Rep<'_>,
    fx: &Scripts,
    root: &Path,
    epochs: usize,
    left: &Cell<Pushed>,
) -> Outcome {
    let _ = std::fs::remove_dir_all(root);
    let mut server = IngestServer::create(server_config(root)).expect("fresh server root");
    let mut uploaders: Vec<Uploader> = (0..AGENTS)
        .map(|a| {
            let mut u = Uploader::new(a, a + 1, UploaderConfig::default());
            u.set_features(if a.is_multiple_of(2) {
                FEATURE_STACKS
            } else {
                0
            });
            for batch in &fx.scripts[a as usize][..epochs] {
                u.push_epoch(batch.clone());
            }
            u
        })
        .collect();
    let mut p = Pushed::default();
    let mut now = 0;
    rep.timed(|t| {
        while uploaders.iter().any(|u| !u.idle()) {
            for u in &mut uploaders {
                let s = t.enter("collect.uploader.tick");
                let frames = u.tick(now);
                t.exit(s);
                for frame in frames {
                    p.upload_bytes += frame.len() as u64;
                    let s = t.enter("server.on_frame");
                    let replies = server.on_frame(now, &frame);
                    t.exit(s);
                    let s = t.enter("collect.uploader.on_frame");
                    for reply in replies {
                        u.on_frame(now, &reply);
                    }
                    t.exit(s);
                }
            }
            let s = t.enter("server.tick");
            server.tick(now).expect("scheduled merge");
            t.exit(s);
            now += 1;
            assert!(now < 1_000, "uploaders failed to drain");
        }
        let s = t.enter("server.finish");
        server.finish(now).expect("final merge");
        t.exit(s);
    });

    p.ledger = server.ledger();
    p.ticks = now;
    p.wal_bytes = server.wal_bytes();
    p.merges = server.stats.merges;
    left.set(p);
    let expect: u64 = fx
        .scripts
        .iter()
        .flat_map(|s| &s[..epochs])
        .map(EpochBatch::sample_total)
        .sum();
    let done = u64::from(AGENTS) * epochs as u64;
    let ok = p.ledger.conserves()
        && p.ledger.fleet_merged == expect
        && p.ledger.server_journal == 0
        && server.stats.accepted == done
        && server.stats.deduped + server.stats.gap_nacks + server.stats.queue_full_nacks == 0;
    let mut h = Fnv64::default();
    for v in [
        p.ledger.fleet_merged,
        p.ledger.base.generated,
        p.wal_bytes,
        p.merges,
        p.ticks,
    ] {
        h.write_u64(v);
    }
    Outcome {
        ops: done,
        failed: if ok { 0 } else { done },
        work: done,
        digest: h.finish(),
    }
}

/// One rep of the second code path: recovery of a dropped server from the
/// root a push left behind. Idempotent, so it can repeat on one root.
fn reopen(rep: &mut Rep<'_>, root: &Path, left: &Cell<Pushed>) -> Outcome {
    let p = left.get();
    let server = rep.timed(|t| {
        let s = t.enter("server.reopen");
        let server = IngestServer::reopen(server_config(root), p.ticks).expect("reopen from WAL");
        t.exit(s);
        server
    });
    let ledger = server.ledger();
    Outcome {
        ops: 1,
        failed: u64::from(ledger != p.ledger || server.queue_depth() != 0),
        work: 1,
        digest: ledger.fleet_merged,
    }
}

/// The full audits, too slow to run every rep: the fleet root re-derived
/// from its files, and the database total read back from disk.
fn audit_root(root: &Path, expect: u64) -> bool {
    let report = check_fleet(root);
    let db = ProfileDb::open(root.join("db"), Format::V2).expect("fleet db");
    let total = db.read_all().expect("fleet db readable").total_samples();
    if !report.is_clean() {
        eprintln!("{}", report.render());
    }
    report.is_clean() && total == expect
}

fn prof_files(root: &Path) -> u64 {
    let db = ProfileDb::open(root.join("db"), Format::V2).expect("fleet db");
    let mut n = 0;
    for epoch in db.epochs().expect("epochs") {
        for entry in std::fs::read_dir(db.epoch_path(epoch))
            .expect("epoch dir")
            .flatten()
        {
            n += u64::from(entry.path().extension().is_some_and(|e| e == "prof"));
        }
    }
    n
}

/// Runs the workload.
pub fn run(ctx: &Ctx<'_>, tracer: &mut Tracer) -> StageReport {
    let full = EPOCHS as usize;
    let root: PathBuf = ctx.scratch.fresh("ingest");
    let (
        Fixture {
            fx,
            pushed,
            io,
            audit_ok,
        },
        setups,
    ) = timed_setups(|| setup(ctx.seed, &root));
    let root_traced = ctx.scratch.fresh("ingest-traced");
    let root_quarter = ctx.scratch.fresh("ingest-quarter");
    let probe_dir = ctx.scratch.fresh("ingest-probe");
    let (left, left_traced, left_quarter) = (
        Cell::new(pushed),
        Cell::new(Pushed::default()),
        Cell::new(Pushed::default()),
    );
    let epochs_per_rep = u64::from(AGENTS * EPOCHS);

    // Inputs of the probes.
    let frames: Vec<Vec<u8>> = fx
        .scripts
        .iter()
        .enumerate()
        .flat_map(|(a, s)| {
            s.iter()
                .enumerate()
                .map(move |(i, b)| upload_frame(a as u32, i as u64 + 1, b))
        })
        .collect();
    let msgs: Vec<Msg> = frames
        .iter()
        .map(|f| decode_msg(f).expect("own frame"))
        .collect();
    let entries: u64 = fx
        .scripts
        .iter()
        .flatten()
        .flat_map(|b| &b.profiles)
        .map(|(_, _, p)| p.len() as u64)
        .sum();
    // One merge group's worth of profiles.
    let mut group = ProfileSet::new();
    for b in fx.scripts.iter().flat_map(|s| &s[..MERGE_EVERY as usize]) {
        for (image, event, profile) in &b.profiles {
            for (offset, count) in profile.iter() {
                group.add(*image, *event, offset, count);
            }
        }
    }

    let mut phases: Vec<Phase<'_>> = vec![
        Phase::new("push", |t| push(t, &fx, &root, full, &left)),
        Phase::new("reopen", |t| reopen(t, &root, &left)),
    ];
    if ctx.traced {
        once("push", |rep| {
            push(rep, &fx, &root_quarter, full / 4, &left_quarter)
        });
        phases.push(Phase::traced("push.traced", |t| {
            push(t, &fx, &root_traced, full, &left_traced)
        }));
        phases.push(Phase::traced("reopen.traced", |t| {
            reopen(t, &root_traced, &left_traced)
        }));
        phases.push(Phase::traced("reopen.quarter", |t| {
            reopen(t, &root_quarter, &left_quarter)
        }));
        phases.push(Phase::traced("probe.wire", |rep| {
            let round_trips: Vec<_> = rep.timed(|t| {
                msgs.iter()
                    .map(|msg| {
                        let s = t.enter("collect.wire.encode");
                        let bytes = black_box(encode_msg(msg));
                        t.exit(s);
                        let s = t.enter("collect.wire.decode");
                        let back = black_box(decode_msg(&bytes));
                        t.exit(s);
                        (bytes, back)
                    })
                    .collect()
            });
            let mut h = Fnv64::default();
            let mut failed = 0;
            for ((bytes, back), (msg, frame)) in
                round_trips.into_iter().zip(msgs.iter().zip(&frames))
            {
                failed += u64::from(bytes != *frame || back.ok().as_ref() != Some(msg));
                h.write(&bytes);
            }
            Outcome {
                ops: msgs.len() as u64,
                failed,
                work: msgs.len() as u64,
                digest: h.finish(),
            }
        }));
        phases.push(Phase::traced("probe.journal", |rep| {
            let _ = std::fs::remove_dir_all(&probe_dir);
            std::fs::create_dir_all(&probe_dir).expect("probe dir");
            let mut wal = Journal::open(&probe_dir).expect("probe WAL");
            let scan = rep.timed(|t| {
                let s = t.enter("server.journal.append");
                for frame in &frames {
                    wal.append_frame(frame).expect("append");
                }
                t.exit(s);
                let s = t.enter("server.journal.scan");
                let scan = journal::scan(wal.path()).expect("scan");
                t.exit(s);
                scan
            });
            Outcome {
                ops: frames.len() as u64,
                failed: u64::from(scan.records.len() != frames.len() || !scan.is_clean_tail()),
                work: frames.len() as u64,
                digest: scan.clean_bytes,
            }
        }));
        phases.push(Phase::traced("probe.db_merge_fresh", |rep| {
            let dir = probe_dir.join("db");
            let _ = std::fs::remove_dir_all(&dir);
            let mut db = ProfileDb::create(&dir, Format::V2).expect("probe db");
            rep.timed(|t| {
                let s = t.enter("core.db.merge.fresh");
                db.merge(&group).expect("fresh-epoch merge");
                t.exit(s);
            });
            Outcome {
                ops: 1,
                failed: 0,
                work: group.len() as u64,
                digest: group.total_samples(),
            }
        }));
        phases.push(Phase::traced("probe.stacks_merge", |rep| {
            let mut acc = StackProfile::new();
            let mut n = 0;
            rep.timed(|t| {
                let s = t.enter("stacks.merge");
                for b in fx.scripts.iter().flatten().filter(|b| !b.stacks.is_empty()) {
                    acc.merge(&b.stacks);
                    n += 1;
                }
                t.exit(s);
            });
            Outcome {
                ops: n,
                failed: 0,
                work: n,
                digest: acc.total(),
            }
        }));
    }
    let results = run_phases(&mut phases, ctx.horizon, tracer);
    drop(phases);

    let mut report = StageReport {
        setups,
        attempted: epochs_per_rep,
        failed: if audit_ok { 0 } else { epochs_per_rep },
        ..StageReport::default()
    };
    report.absorb(&results);
    // The last rep's root gets the same full audit as the first's.
    report.attempted += 1;
    report.failed += u64::from(!audit_root(&root, fx.generated));

    let push_phase = phase(&results, "push");
    report.work_per_s = epochs_per_rep as f64 / push_phase.fastest();
    report.aux_phase_ms = phase(&results, "reopen").fastest() * 1e3;
    report.stage_cost = io.wchar as f64 / pushed.upload_bytes as f64;
    report.note("ingest_epochs_per_s", report.work_per_s, "epochs/s");
    report.note("recover_ms", report.aux_phase_ms, "ms");
    report.note("ingest_write_amp", report.stage_cost, "B/B");
    report.note(
        "upload_bytes_per_epoch",
        pushed.upload_bytes as f64 / epochs_per_rep as f64,
        "B",
    );

    if ctx.traced {
        let per_epoch = epochs_per_rep as f64;
        let span = |of: &str, name: &str| fastest_span(tracer, phase(&results, of), name);
        let wire = phase(&results, "probe.wire");
        report.layer(
            "collect.wire.encode_us_per_epoch",
            span("probe.wire", "collect.wire.encode") * 1e6 / per_epoch,
        );
        report.layer(
            "collect.wire.decode_us_per_epoch",
            span("probe.wire", "collect.wire.decode") * 1e6 / per_epoch,
        );
        report.layer(
            "collect.wire.bytes_per_entry",
            frames.iter().map(Vec::len).sum::<usize>() as f64 / entries as f64,
        );
        debug_assert_eq!(wire.first.work, epochs_per_rep);
        report.layer(
            "collect.uploader.tick_us_per_epoch",
            span("push.traced", "collect.uploader.tick") * 1e6 / per_epoch,
        );
        report.layer(
            "server.on_frame_us_per_epoch",
            span("push.traced", "server.on_frame") * 1e6 / per_epoch,
        );
        report.layer(
            "server.journal.append_us_per_frame",
            span("probe.journal", "server.journal.append") * 1e6 / per_epoch,
        );
        report.layer(
            "server.journal.scan_ms",
            span("probe.journal", "server.journal.scan") * 1e3,
        );
        report.layer(
            "server.merge_ms",
            (span("push.traced", "server.tick") + span("push.traced", "server.finish")) * 1e3
                / pushed.merges as f64,
        );
        let fresh = phase(&results, "probe.db_merge_fresh");
        report.layer(
            "core.db.merge_us_per_file.fresh",
            span("probe.db_merge_fresh", "core.db.merge.fresh") * 1e6 / fresh.first.work as f64,
        );
        report.layer(
            "server.reopen_ms",
            span("reopen.traced", "server.reopen") * 1e3,
        );
        report.layer(
            "server.reopen_ms_quarter",
            span("reopen.quarter", "server.reopen") * 1e3,
        );
        report.layer(
            "server.wal_bytes_per_epoch",
            pushed.wal_bytes as f64 / per_epoch,
        );
        report.layer(
            "server.write_syscalls_per_epoch",
            io.syscw as f64 / per_epoch,
        );
        report.layer(
            "server.files_per_merge",
            prof_files(&root) as f64 / pushed.merges as f64,
        );
        report.layer("server.merges", pushed.merges as f64);
        let stacks = phase(&results, "probe.stacks_merge");
        report.layer(
            "stacks.merge_us_per_epoch",
            span("probe.stacks_merge", "stacks.merge") * 1e6 / stacks.first.work as f64,
        );
        report.layer(
            "bench.trace_overhead_pct.ingest",
            trace_overhead_pct(
                phase(&results, "push.traced").fastest(),
                push_phase.fastest(),
            ),
        );
        report.audit_trace(tracer, &results);
        report.note_self_shares(tracer, &results);
    }
    report
}
