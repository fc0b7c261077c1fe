//! Crash-point differential oracle for the checkpointed WAL.
//!
//! A 3-agent, 3-merge script is driven once without a crash, the server
//! root snapshotted after every step. Then, for *every* point at which
//! the server process can die — after each WAL record, half-way through
//! each append, after the merge intent, after k of the epoch's n files
//! have landed for each k, after the merge but before the rotation's
//! scratch file, after the scratch file but before its rename, after the
//! rename — the root is put into exactly the state that death leaves,
//! reopened, and the rest of the script replayed. Every one of them must
//! end byte-identical to the uncrashed tree, `wal.log` included, with
//! the ledger conserving, `check_fleet` clean, and a further reopen
//! writing nothing.
//!
//! This is the test that pins DESIGN.md §12's durability model: what was
//! acked survives a crash of the server *process* at any instruction.
//! Nothing here (or anywhere) claims power-loss safety — neither the log
//! nor the rotation's rename is synced.

use dcpi_collect::faults::FleetLedger;
use dcpi_collect::wire::{decode_msg, encode_msg, EpochBatch, Msg};
use dcpi_core::codec::Format;
use dcpi_core::db::{EpochId, ProfileDb};
use dcpi_core::{Event, ImageId, Pid, Profile, ProfileKey, UNKNOWN_IMAGE};
use dcpi_server::journal::{self, Journal, WAL_FILE, WAL_TMP_FILE};
use dcpi_server::{check_fleet, AgentScript, IngestServer, ServerConfig};
use dcpi_stacks::Frame;
use dcpi_testkit::{copy_tree, snapshot, tree, TempRoot};
use std::os::unix::fs::MetadataExt;
use std::path::{Path, PathBuf};

const AGENTS: u32 = 3;

enum Step {
    Upload {
        agent: u32,
        seq: u64,
        frame: Vec<u8>,
    },
    Merge,
}

/// `merges` rounds of "every agent uploads its next epoch, then the
/// server merges". Agent 0 also carries calling-context samples, so each
/// epoch has a `stacks.dcst` sidecar among its files.
fn script(merges: u32) -> Vec<Step> {
    let mut scripts: Vec<AgentScript> = (0..AGENTS)
        .map(|a| AgentScript::generate(a, 42, merges, 128))
        .collect();
    for (i, batch) in scripts[0].epochs.iter_mut().enumerate() {
        let leaf = Frame {
            image: ImageId(1),
            offset: 0x40 + 4 * i as u64,
        };
        let root = Frame {
            image: ImageId(1),
            offset: 0x10,
        };
        batch
            .stacks
            .record(Event::Cycles.code(), Pid(1), &[root, leaf], 5);
    }
    let mut steps = Vec::new();
    for round in 0..merges as usize {
        for s in &scripts {
            let seq = round as u64 + 1;
            let frame = encode_msg(&Msg::Upload {
                agent: s.agent,
                incarnation: 1,
                seq,
                batch: s.epochs[round].clone(),
            });
            steps.push(Step::Upload {
                agent: s.agent,
                seq,
                frame,
            });
        }
        steps.push(Step::Merge);
    }
    steps
}

fn send(server: &mut IngestServer, now: u64, frame: &[u8], duplicate: bool) {
    let replies = server.on_frame(now, frame);
    assert_eq!(replies.len(), 1);
    match decode_msg(&replies[0]).unwrap() {
        Msg::Ack { duplicate: d, .. } if d == duplicate => {}
        other => panic!("expected an ack (duplicate: {duplicate}), got {other:?}"),
    }
}

fn apply(server: &mut IngestServer, now: u64, step: &Step) {
    match step {
        Step::Upload { frame, .. } => send(server, now, frame, false),
        Step::Merge => server.merge_queue(now).unwrap(),
    }
}

/// Every file and directory under `root`, with each file's bytes.
type Tree = Vec<(PathBuf, Option<Vec<u8>>)>;

fn sorted_names(dir: &Path) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    names.sort();
    names
}

fn wal_bytes(root: &Path) -> Vec<u8> {
    std::fs::read(root.join(WAL_FILE)).unwrap()
}

/// The uncrashed run: the final tree and ledger, and the root as it was
/// before step `i` in `snap(i)` (so `snap(steps.len())` is the end).
struct Golden {
    base: TempRoot,
    steps: Vec<Step>,
    tree: Tree,
    ledger: FleetLedger,
}

impl Golden {
    fn run(tag: &str, merges: u32) -> Golden {
        let base = TempRoot::new(&format!("crash-{tag}"));
        let steps = script(merges);
        let live = base.join("live");
        let mut server = IngestServer::create(ServerConfig::new(&live)).unwrap();
        copy_tree(&live, &base.join("snap-0"));
        for (i, step) in steps.iter().enumerate() {
            apply(&mut server, i as u64 + 1, step);
            copy_tree(&live, &base.join(format!("snap-{}", i + 1)));
        }
        server.finish(steps.len() as u64 + 1).unwrap();
        let ledger = server.ledger();
        assert!(ledger.conserves() && ledger.server_journal == 0);
        assert!(check_fleet(&live).is_clean());
        Golden {
            tree: snapshot(&live),
            base,
            steps,
            ledger,
        }
    }

    fn snap(&self, i: usize) -> PathBuf {
        self.base.join(format!("snap-{i}"))
    }

    /// A fresh copy of `snap(i)` to crash in.
    fn crash_root(&self, i: usize) -> PathBuf {
        let root = self.base.join("crashed");
        let _ = std::fs::remove_dir_all(&root);
        copy_tree(&self.snap(i), &root);
        root
    }

    /// Reopens the crashed `root`, replays `steps[resume_at..]`, and
    /// holds the result against the uncrashed run.
    fn recover(&self, point: &str, root: &Path, resume_at: usize) {
        let cfg = ServerConfig::new(root);
        let now = resume_at as u64 + 1;
        let mut server = IngestServer::reopen(cfg.clone(), now)
            .unwrap_or_else(|e| panic!("{point}: reopen failed: {e}"));
        // The agent whose ack the crash swallowed retransmits: still a
        // duplicate, whether its batch was merged or re-queued.
        let last_acked = self.steps[..resume_at].iter().rev().find_map(|s| match s {
            Step::Upload { frame, .. } => Some(frame),
            Step::Merge => None,
        });
        if let Some(frame) = last_acked {
            send(&mut server, now, frame, true);
        }
        for (i, step) in self.steps.iter().enumerate().skip(resume_at) {
            apply(&mut server, i as u64 + 1, step);
        }
        server.finish(self.steps.len() as u64 + 1).unwrap();
        let ledger = FleetLedger {
            retrans_duplicates_discarded: 0,
            ..server.ledger()
        };
        drop(server);
        assert_eq!(ledger, self.ledger, "{point}: ledger");
        assert!(ledger.conserves(), "{point}: {}", ledger.render());
        let got = snapshot(root);
        let names = |t: &Tree| -> Vec<PathBuf> { t.iter().map(|(p, _)| p.clone()).collect() };
        assert_eq!(names(&got), names(&self.tree), "{point}: file set");
        for ((path, a), (_, b)) in got.iter().zip(&self.tree) {
            assert!(
                a == b,
                "{point}: {} differs from the uncrashed run",
                path.display()
            );
        }
        let audit = check_fleet(root);
        assert!(audit.is_clean(), "{point}:\n{}", audit.render());

        // Reopening a settled root must not write: same inode, size and
        // mtime for every file and directory. (The pause outlasts the
        // filesystem's timestamp granularity, so a rewrite would show.)
        let stamps = |root: &Path| {
            let stamp = |p: PathBuf| {
                let m = std::fs::metadata(root.join(&p)).unwrap();
                (p, m.ino(), m.len(), m.mtime(), m.mtime_nsec())
            };
            tree(root).into_iter().map(stamp).collect::<Vec<_>>()
        };
        let before = stamps(root);
        std::thread::sleep(std::time::Duration::from_millis(12));
        let again = IngestServer::reopen(cfg, now).unwrap();
        assert_eq!(again.queue_depth(), 0, "{point}");
        assert_eq!(again.ledger(), self.ledger, "{point}: reopened ledger");
        drop(again);
        assert_eq!(stamps(root), before, "{point}: a clean reopen wrote");
    }
}

#[test]
fn every_crash_point_converges_to_the_uncrashed_tree() {
    let g = Golden::run("points", 3);
    let mut points = 0;
    let mut recover = |point: String, root: &Path, resume_at: usize| {
        g.recover(&point, root, resume_at);
        points += 1;
    };
    let mut epoch = 0u32;
    let mut since_merge: Vec<(u32, u64)> = Vec::new();
    for (i, step) in g.steps.iter().enumerate() {
        match step {
            Step::Upload { agent, seq, .. } => {
                since_merge.push((*agent, *seq));
                // Half-way through the append: never acked, so the
                // upload is sent again.
                let root = g.crash_root(i);
                let (before, after) = (wal_bytes(&root), wal_bytes(&g.snap(i + 1)));
                let record = &after[before.len()..];
                let torn = [&before[..], &record[..record.len() / 2]].concat();
                std::fs::write(root.join(WAL_FILE), torn).unwrap();
                recover(format!("step {i}: append torn"), &root, i);
                // After the record: journaled, acked or not.
                recover(
                    format!("step {i}: frame journaled"),
                    &g.crash_root(i + 1),
                    i + 1,
                );
            }
            Step::Merge => {
                since_merge.sort_unstable();
                let intent = |root: &Path| {
                    Journal::open(root)
                        .unwrap()
                        .append_intent(epoch, &since_merge)
                        .unwrap();
                };
                let epoch_dir = format!("db/epoch_{epoch:04}");
                let landed = g.snap(i + 1).join(&epoch_dir);
                let files = sorted_names(&landed);
                assert!(files.iter().any(|f| f == "stacks.dcst"), "{files:?}");
                assert!(files.len() >= 3, "{files:?}");

                let root = g.crash_root(i);
                intent(&root);
                recover(format!("merge {epoch}: intent journaled"), &root, i + 1);
                // k of n files landed; the next one still a half-written
                // `.tmp`.
                for k in 0..=files.len() {
                    let root = g.crash_root(i);
                    intent(&root);
                    std::fs::create_dir_all(root.join(&epoch_dir)).unwrap();
                    for f in &files[..k] {
                        std::fs::copy(landed.join(f), root.join(&epoch_dir).join(f)).unwrap();
                    }
                    if let Some(f) = files.get(k) {
                        let bytes = std::fs::read(landed.join(f)).unwrap();
                        let tmp = root.join(&epoch_dir).join(f).with_extension("tmp");
                        std::fs::write(tmp, &bytes[..bytes.len() / 2]).unwrap();
                    }
                    recover(
                        format!("merge {epoch}: {k} of {} files landed", files.len()),
                        &root,
                        i + 1,
                    );
                }
                // The merge landed (image names too); no scratch file yet.
                let merged = |scratch: bool| {
                    let root = g.crash_root(i + 1);
                    std::fs::copy(g.snap(i).join(WAL_FILE), root.join(WAL_FILE)).unwrap();
                    intent(&root);
                    if scratch {
                        std::fs::copy(g.snap(i + 1).join(WAL_FILE), root.join(WAL_TMP_FILE))
                            .unwrap();
                    }
                    root
                };
                recover(
                    format!("merge {epoch}: landed, not rotated"),
                    &merged(false),
                    i + 1,
                );
                recover(
                    format!("merge {epoch}: scratch written, not renamed"),
                    &merged(true),
                    i + 1,
                );
                recover(
                    format!("merge {epoch}: rotated"),
                    &g.crash_root(i + 1),
                    i + 1,
                );
                epoch += 1;
                since_merge.clear();
            }
        }
    }
    assert!(points >= 18 + 3 * 8, "only {points} crash points visited");
}

#[test]
fn reopen_cost_is_flat_in_history() {
    // The cost proxy: records the scan parses and bytes it reads. After
    // 32 merges it is one checkpoint, as after one; the record grows by a
    // varint per merged epoch and by the digits of its counters, never by
    // what was uploaded.
    let cost = |merges: u32| {
        let g = Golden::run(&format!("flat-{merges}"), merges);
        let live = g.base.join("live");
        let scan = journal::scan(&live.join(WAL_FILE)).unwrap();
        let server = IngestServer::reopen(ServerConfig::new(&live), 1_000).unwrap();
        assert_eq!(server.stats.replayed_batches, 0);
        assert_eq!(server.ledger(), g.ledger);
        let uploaded: usize = g
            .steps
            .iter()
            .map(|s| match s {
                Step::Upload { frame, .. } => frame.len(),
                Step::Merge => 0,
            })
            .sum();
        (scan.records.len(), scan.clean_bytes, uploaded as u64)
    };
    let (records_1, bytes_1, _) = cost(1);
    let (records_32, bytes_32, uploaded_32) = cost(32);
    assert_eq!((records_1, records_32), (1, 1));
    // ≤ 10 B per further epoch total, ≤ 1 B per widened counter (5 per
    // agent, 7 in the ledger, 2 lengths).
    let growth = 31 * 10 + u64::from(AGENTS) * 5 + 9;
    assert!(
        bytes_32 <= bytes_1 + growth,
        "checkpoint grew {bytes_1} -> {bytes_32} B over 31 merges"
    );
    assert!(
        bytes_32 * 20 < uploaded_32,
        "{bytes_32} B vs {uploaded_32} B"
    );
}

#[test]
fn a_raw_pc_profile_and_an_empty_one_land_the_same_by_ingest_and_by_replay() {
    // Unknown-image profiles carry raw PCs: user text low, kernel-like
    // PCs just under `u64::MAX`, so one key's span is nearly all of u64.
    let user = |i: u64| 0x1_0000 + 4 * i;
    let kernel = |i: u64| u64::MAX - 3 - 4 * i;
    let raw_pcs = |lo: u64, hi: u64| -> Profile {
        (lo..hi)
            .flat_map(|i| [(user(i), i + 1), (kernel(i), 2 * i + 1)])
            .collect()
    };
    let batch = |profiles: Vec<(ImageId, Event, Profile)>| EpochBatch {
        profiles,
        ..EpochBatch::default()
    };
    let hot = |i: u64| {
        (
            ImageId(1),
            Event::Cycles,
            [(4 * i, 3)].into_iter().collect(),
        )
    };
    let uploads = [
        batch(vec![
            hot(1),
            (ImageId(7), Event::Cycles, Profile::new()),
            (UNKNOWN_IMAGE, Event::Cycles, raw_pcs(0, 40)),
        ]),
        batch(vec![
            hot(2),
            (UNKNOWN_IMAGE, Event::Cycles, raw_pcs(20, 70)),
        ]),
        batch(vec![(UNKNOWN_IMAGE, Event::Cycles, raw_pcs(65, 66))]),
    ];
    let expected = Profile::sum(&[&raw_pcs(0, 40), &raw_pcs(20, 70), &raw_pcs(65, 66)]);
    assert_eq!(expected.len(), 140);

    let base = TempRoot::new("crash-raw-pcs");
    let live = base.join("live");
    let mut server = IngestServer::create(ServerConfig::new(&live)).unwrap();
    let mut keys = Vec::new();
    for (agent, batch) in uploads.into_iter().enumerate() {
        let agent = agent as u32;
        let frame = encode_msg(&Msg::Upload {
            agent,
            incarnation: 1,
            seq: 1,
            batch,
        });
        send(&mut server, 1, &frame, false);
        keys.push((agent, 1));
    }
    let crashed = base.join("crashed");
    copy_tree(&live, &crashed);
    server.merge_queue(2).unwrap();
    drop(server);

    // The crash: the intent is journaled, no file has landed.
    Journal::open(&crashed)
        .unwrap()
        .append_intent(0, &keys)
        .unwrap();
    let replayed = IngestServer::reopen(ServerConfig::new(&crashed), 2).unwrap();
    assert_eq!(replayed.stats.replayed_batches, 3);
    drop(replayed);
    assert!(snapshot(&crashed) == snapshot(&live), "replay differs");

    let db = ProfileDb::open(live.join("db"), Format::V2).unwrap();
    let key = |image| ProfileKey {
        image,
        event: Event::Cycles,
    };
    assert_eq!(
        db.read_profile(EpochId(0), key(UNKNOWN_IMAGE)).unwrap(),
        expected
    );
    assert!(db
        .read_profile(EpochId(0), key(ImageId(7)))
        .unwrap()
        .is_empty());
}
