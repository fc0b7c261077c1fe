//! Mutation fuzzing of the WAL reader and of recovery.
//!
//! A server root is built whose log holds all three record kinds —
//! `checkpoint frame frame frame frame intent` over a database with one
//! merged epoch — remembering the live server's state after every record.
//! Then 2 000 seeded mutants of that log (bit flips, byte deletions,
//! garbage bytes, spans spliced from elsewhere in the log, and
//! record-aligned drops, repeats and swaps)
//! are each scanned and reopened. For every one of them:
//!
//! * neither `scan` nor `reopen` panics;
//! * neither allocates more than a small multiple of the log's length;
//! * if what the scan keeps is a prefix of the original records, `reopen`
//!   reproduces exactly the state the live server had after writing that
//!   prefix — except the empty prefix, a damaged log head over a database
//!   that holds data, which must be refused;
//! * anything else is refused with the root left as it was, or — where a
//!   record-aligned edit happens to yield another log the server could
//!   have written — recovers to a state that conserves and audits clean.
//!
//! Seeds: 7 and 101, plus `DCPI_FLEET_SEED` if set (the CI sweep).

use dcpi_collect::faults::FleetLedger;
use dcpi_collect::wire::{decode_msg, encode_msg, Msg};
use dcpi_core::prng::CartaRng;
use dcpi_server::journal::{self, AgentTotals, Journal, WAL_FILE};
use dcpi_server::{check_fleet, AgentScript, IngestServer, ServerConfig};
use dcpi_testkit::{copy_tree, measure, snapshot, Probe, TempRoot};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

#[global_allocator]
static ALLOC: Probe = Probe;

/// Runs `f`, returning its result and the most heap it held at once.
fn peak_of<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let (out, allocs) = measure(f);
    (out, allocs.peak as usize)
}

/// What recovery must reproduce.
#[derive(Clone, Debug, PartialEq, Eq)]
struct State {
    ledger: FleetLedger,
    agents: BTreeMap<u32, AgentTotals>,
    queued: usize,
    wal_bytes: u64,
}

fn state_of(server: &IngestServer) -> State {
    State {
        ledger: server.ledger(),
        agents: server
            .sessions()
            .iter()
            .map(|(&a, s)| (a, s.journaled))
            .collect(),
        queued: server.queue_depth(),
        wal_bytes: server.wal_bytes(),
    }
}

/// The pristine root, its log, the log's record boundaries, and the live
/// server's state after each record (`states[k]` ↔ the first `k` records).
struct Base {
    root: PathBuf,
    log: Vec<u8>,
    bounds: Vec<usize>,
    states: Vec<Option<State>>,
}

fn build_base(dir: &Path) -> Base {
    let root = dir.join("base");
    let cfg = ServerConfig::new(&root);
    let mut server = IngestServer::create(cfg.clone()).unwrap();
    let scripts: Vec<AgentScript> = (0..3)
        .map(|a| AgentScript::generate(a, 9, 3, 128))
        .collect();
    let upload = |server: &mut IngestServer, agent: usize, seq: u64| {
        let frame = encode_msg(&Msg::Upload {
            agent: agent as u32,
            incarnation: 1,
            seq,
            batch: scripts[agent].epochs[seq as usize - 1].clone(),
        });
        let replies = server.on_frame(seq, &frame);
        assert!(matches!(
            decode_msg(&replies[0]).unwrap(),
            Msg::Ack {
                duplicate: false,
                ..
            }
        ));
    };
    for agent in 0..3 {
        upload(&mut server, agent, 1);
    }
    server.merge_queue(10).unwrap();
    // Zero records over a database that holds an epoch: refused.
    let mut states = vec![None, Some(state_of(&server))];
    let mut bounds = vec![0, server.wal_bytes() as usize];
    let mut keys = Vec::new();
    for (agent, seq) in [(0, 2), (1, 2), (2, 2), (0, 3)] {
        upload(&mut server, agent, seq);
        keys.push((agent as u32, seq));
        states.push(Some(state_of(&server)));
        bounds.push(server.wal_bytes() as usize);
    }
    drop(server);
    // The crash-mid-merge log: the intent journaled, nothing else done.
    keys.sort_unstable();
    let mut wal = Journal::open(&root).unwrap();
    wal.append_intent(1, &keys).unwrap();
    bounds.push(wal.bytes() as usize);
    drop(wal);
    // What finishing that merge leaves, from a copy.
    let done = dir.join("done");
    copy_tree(&root, &done);
    let finished = IngestServer::reopen(ServerConfig::new(&done), 20).unwrap();
    assert_eq!(finished.stats.merges, 1, "reopen completed the merge");
    states.push(Some(state_of(&finished)));
    let log = std::fs::read(root.join(WAL_FILE)).unwrap();
    assert_eq!(bounds.last(), Some(&log.len()));
    Base {
        root,
        log,
        bounds,
        states,
    }
}

fn mutate(rng: &mut CartaRng, base: &Base) -> Vec<u8> {
    let mut log = base.log.clone();
    let records = base.bounds.len() - 1;
    let record = |rng: &mut CartaRng| {
        let i = rng.uniform(0, records as u64 - 1) as usize;
        base.bounds[i]..base.bounds[i + 1]
    };
    match rng.uniform(0, 8) {
        0..=5 => {
            // Byte edits: flips, cuts, garbage and spans from elsewhere
            // in the log.
            let garbage: Vec<u8> = (0..=255).collect();
            dcpi_testkit::mutate(&mut log, &garbage, &base.log, &mut |n| {
                rng.uniform(0, n - 1)
            });
        }
        6 => {
            // Drop one whole record.
            log.drain(record(rng));
        }
        7 => {
            // Repeat one whole record at another record boundary.
            let (rec, to) = (record(rng), record(rng).start);
            let bytes = base.log[rec].to_vec();
            log.splice(to..to, bytes);
        }
        _ => {
            // Swap two whole records (rebuild the log in the new order).
            let (i, j) = (
                rng.uniform(0, records as u64 - 1) as usize,
                rng.uniform(0, records as u64 - 1) as usize,
            );
            let mut order: Vec<usize> = (0..records).collect();
            order.swap(i, j);
            log = order
                .iter()
                .flat_map(|&r| &base.log[base.bounds[r]..base.bounds[r + 1]])
                .copied()
                .collect();
        }
    }
    log
}

#[test]
fn mutated_logs_never_panic_overallocate_or_recover_wrongly() {
    let dir = TempRoot::new("walfuzz-mutants");
    let base = build_base(&dir);
    let original = journal::scan(&base.root.join(WAL_FILE)).unwrap();
    assert_eq!(original.records.len(), 6);
    let mut seeds = vec![7u32, 101];
    if let Some(extra) = std::env::var("DCPI_FLEET_SEED")
        .ok()
        .and_then(|s| s.trim().parse().ok())
    {
        seeds.push(extra);
    }

    let work = dir.join("work");
    let cfg = ServerConfig::new(&work);
    let wal_path = work.join(WAL_FILE);
    let mut dirty = true;
    let (mut exact, mut refused, mut other_valid) = (0, 0, 0);
    let (mut worst_scan, mut worst_reopen) = (0.0f64, 0.0f64);
    for seed in seeds {
        let mut rng = CartaRng::new(seed);
        for n in 0..1000 {
            let log = mutate(&mut rng, &base);
            if dirty {
                let _ = std::fs::remove_dir_all(&work);
                copy_tree(&base.root, &work);
            }
            std::fs::write(&wal_path, &log).unwrap();
            let before = snapshot(&work);
            let budget = |multiple: usize| multiple * log.len() + (16 << 10);

            let (scan, scan_peak) = peak_of(|| journal::scan(&wal_path).unwrap());
            assert!(
                scan_peak <= budget(2),
                "seed {seed} mutant {n}: scan held {scan_peak} B for a {} B log",
                log.len()
            );
            assert_eq!(scan.clean_bytes + scan.torn_bytes, log.len() as u64);
            let kept = scan.records.len();
            let is_prefix = kept <= original.records.len()
                && scan.records.iter().zip(&original.records).all(|(a, b)| {
                    use journal::WalRecord::Frame;
                    match (a, b) {
                        (Frame(x), Frame(y)) => scan.frame(x) == original.frame(y),
                        _ => a == b,
                    }
                });

            let (reopened, reopen_peak) = peak_of(|| IngestServer::reopen(cfg.clone(), 20));
            // Decoded profiles are 16 B an entry from ~3 B on the wire,
            // and recovery also holds the epoch sidecars and, mid-merge,
            // the merged set: a bounded multiple, not the header's word.
            assert!(
                reopen_peak <= budget(24),
                "seed {seed} mutant {n}: reopen held {reopen_peak} B for a {} B log",
                log.len()
            );
            if log.len() >= 512 {
                worst_scan = worst_scan.max(scan_peak as f64 / log.len() as f64);
                worst_reopen = worst_reopen.max(reopen_peak as f64 / log.len() as f64);
            }

            match reopened {
                Err(e) => {
                    assert!(
                        !is_prefix || kept == 0,
                        "seed {seed} mutant {n}: a clean prefix of {kept} record(s) refused: {e}"
                    );
                    assert_eq!(e.kind(), std::io::ErrorKind::InvalidData, "{e}");
                    assert!(
                        snapshot(&work) == before,
                        "seed {seed} mutant {n}: refused, yet wrote"
                    );
                    dirty = false;
                    refused += 1;
                }
                Ok(mut server) if is_prefix => {
                    let want = base.states[kept].as_ref();
                    assert_eq!(
                        Some(&state_of(&server)),
                        want,
                        "seed {seed} mutant {n}: wrong state from a {kept}-record prefix"
                    );
                    server.finish(30).unwrap();
                    dirty = true;
                    exact += 1;
                }
                Ok(mut server) => {
                    // Another log the server could have written (say, an
                    // agent's last frame dropped): no original to compare
                    // with, so hold it to the invariants.
                    server.finish(30).unwrap();
                    let ledger = server.ledger();
                    assert!(
                        ledger.conserves() && ledger.server_journal == 0,
                        "seed {seed} mutant {n}: {}",
                        ledger.render()
                    );
                    drop(server);
                    let audit = check_fleet(&work);
                    assert!(
                        audit.is_clean(),
                        "seed {seed} mutant {n}:\n{}",
                        audit.render()
                    );
                    dirty = true;
                    other_valid += 1;
                }
            }
        }
    }
    // The mutator must reach all three outcomes, and mostly the first two.
    assert!(
        exact > 200 && refused > 200,
        "{exact} exact, {refused} refused"
    );
    assert!(
        other_valid > 0,
        "no record-aligned edit produced a valid log"
    );
    eprintln!(
        "wal_fuzz: {exact} exact, {refused} refused, {other_valid} other-valid; \
         peak heap / log bytes: scan {worst_scan:.2}, reopen {worst_reopen:.2}"
    );
}
