//! Mutation fuzz for `dcpi_core::json` and every reader built on it.
//!
//! Each JSON artifact's writer produces valid documents from seeded
//! random values — hostile strings, `u64::MAX` stamps — which must read
//! back exactly and re-render to the same bytes. Then the documents are
//! damaged (byte flips, deletions, insertions, every truncation, a
//! spliced run of 100 000 open brackets, a lying count) and each damaged
//! text must come back `Ok` or `Err`: no panic, no stack overflow, the
//! allocator asked for no more than [`ALLOC_FACTOR`] bytes per input
//! byte, and an `Ok` value must survive its own re-rendering. Seeded, so
//! a failure reproduces from the format name and input in the message.

mod common;

use common::HOSTILE;
use dcpi::analyze::export::{self, ExportedBlock, ExportedEdge, ExportedInsn, ExportedProc};
use dcpi::analyze::EdgeKind;
use dcpi::check::{check_snapshot, Category, Loc, Report, Severity};
use dcpi::collect::faults::{FleetLedger, LossLedger};
use dcpi::core::json::{self, Json};
use dcpi::core::prng::CartaRng;
use dcpi::core::{Event, ImageId, Pid};
use dcpi::isa::AddressMap;
use dcpi::server::{FleetLag, FleetReport};
use dcpi::tools::{dcpistat, dcpitrace, Filter};
use dcpi_obs::{
    EventKind, EventRecord, OverheadLedger, RingSnapshot, SeriesSnapshot, Snapshot, TimePoint,
};
use dcpi_stacks::{speedscope, Frame, StackProfile};
use dcpi_testkit::{measure, Allocs};
use std::collections::BTreeMap;
use std::fmt::Debug;

/// Bytes a reader may request from the allocator per byte of input,
/// summed over the call: the parsed value (`json::ALLOC_FACTOR`), the
/// typed value built from it, and for speedscope a second parse.
const ALLOC_FACTOR: u64 = 3 * json::ALLOC_FACTOR as u64;
const ALLOC_SLACK: u64 = json::ALLOC_SLACK as u64;

struct Gen(CartaRng);

impl Gen {
    fn below(&mut self, n: u64) -> u64 {
        self.0.uniform(0, n - 1)
    }

    /// Integers where exactness is at stake: past 2^53, at `u64::MAX`.
    fn stamp(&mut self) -> u64 {
        match self.below(6) {
            0 => u64::MAX,
            1 => (1 << 53) + 1,
            2 => 0,
            3 => {
                (u64::from(self.0.next_u31()) << 33)
                    ^ (u64::from(self.0.next_u31()) << 16)
                    ^ u64::from(self.0.next_u31())
            }
            _ => self.below(100_000),
        }
    }

    fn name(&mut self) -> String {
        let len = self.below(10);
        (0..len)
            .map(|_| HOSTILE[self.below(HOSTILE.len() as u64) as usize])
            .collect()
    }

    /// A name for a packed `name:value` map: anything but the separator.
    fn packed_name(&mut self, names: &[&str]) -> String {
        self.known(names).replace(' ', "")
    }

    /// Half the time one of `names`, else a hostile name.
    fn known(&mut self, names: &[&str]) -> String {
        if self.below(2) == 0 {
            names[self.below(names.len() as u64) as usize].to_owned()
        } else {
            self.name()
        }
    }

    /// A float `{:.6}` prints exactly: a multiple of 1/64.
    fn freq(&mut self) -> f64 {
        (self.below(1 << 20) as f64 - 64.0) / 64.0
    }
}

/// One JSON artifact: its writer, its reader, and what ties them.
trait Format {
    const NAME: &'static str;
    type Value: PartialEq + Debug;
    /// A valid document from the artifact's own writer; asserts that it
    /// reads back to exactly the values it was written from.
    fn build(g: &mut Gen) -> String;
    fn read(text: &str) -> Result<Self::Value, String>;
    fn write(value: &Self::Value) -> String;
    /// Copies of `doc` with a count that lies; each must be rejected.
    fn lies(_doc: &str) -> Vec<String> {
        Vec::new()
    }
    /// Hands an accepted value to every consumer of the format, none of
    /// which may panic on it.
    fn consume(_value: &Self::Value) {}
}

/// Reads `text` under the allocation bound; an accepted value must
/// survive its own re-rendering. Returns whether it was accepted.
fn check<F: Format>(text: &str) -> bool {
    let (got, Allocs { bytes, .. }) = measure(|| F::read(text));
    let bound = ALLOC_FACTOR * text.len() as u64 + ALLOC_SLACK;
    assert!(
        bytes <= bound,
        "{}: {bytes} B requested for {} B of input (bound {bound}): {text:?}",
        F::NAME,
        text.len()
    );
    let Ok(value) = got else {
        return false;
    };
    F::consume(&value);
    let again = F::write(&value);
    match F::read(&again) {
        Ok(back) => assert_eq!(
            back,
            value,
            "{}: {text:?} re-rendered as {again:?}",
            F::NAME
        ),
        Err(e) => panic!("{}: {text:?} re-rendered as {again:?}: {e}", F::NAME),
    }
    true
}

/// Bytes worth inserting: structure, escapes, digits, number syntax,
/// whitespace, a control byte and broken UTF-8.
const INSERTS: &[u8] = b"\"\\{}[]:,0123456789-+.eEutfn \n\x00\x1f\x7f\xc3\xff";

/// `doc` after the kit's edits, with runs spliced from `doc` itself.
fn mutate(doc: &str, g: &mut Gen) -> String {
    let mut bytes = doc.as_bytes().to_vec();
    dcpi_testkit::mutate(&mut bytes, INSERTS, doc.as_bytes(), &mut |n| g.below(n));
    String::from_utf8_lossy(&bytes).into_owned()
}

fn fuzz<F: Format>(seed: u32) {
    let mut g = Gen(CartaRng::new(seed));
    let (mut accepted, mut rejected) = (0u32, 0u32);
    let mut tally = |ok: bool| *(if ok { &mut accepted } else { &mut rejected }) += 1;
    let mut smallest = String::new();
    // CI feeds these to a JSON reader that is not ours.
    let dump = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("json_fuzz");
    std::fs::create_dir_all(&dump).expect("create the dump directory");
    for i in 0..25 {
        let doc = F::build(&mut g);
        std::fs::write(dump.join(format!("{seed:x}-{i}.json")), &doc).expect("dump the document");
        assert!(
            check::<F>(&doc),
            "{}: own document rejected: {doc}",
            F::NAME
        );
        for _ in 0..1000 {
            tally(check::<F>(&mutate(&doc, &mut g)));
        }
        for lie in F::lies(&doc) {
            assert_ne!(lie, doc, "{}: the lie changed nothing", F::NAME);
            assert!(
                !check::<F>(&lie),
                "{}: a lying count passed: {lie}",
                F::NAME
            );
        }
        if smallest.is_empty() || doc.len() < smallest.len() {
            smallest = doc;
        }
    }
    for cut in 0..smallest.len() {
        tally(check::<F>(&String::from_utf8_lossy(
            &smallest.as_bytes()[..cut],
        )));
    }
    // A run of open containers, deeper than any stack: rejected at the
    // cap where a value may start, harmless inside a string.
    let anywhere = (0..6).map(|_| g.below(smallest.len() as u64) as usize);
    for at in std::iter::once(0).chain(anywhere).collect::<Vec<_>>() {
        for open in ["[", "{\"a\":"] {
            let mut bytes = smallest.as_bytes().to_vec();
            bytes.splice(at..at, open.repeat(100_000).into_bytes());
            let ok = check::<F>(&String::from_utf8_lossy(&bytes));
            assert!(!ok || at > 0, "{}: 100 000 x {open} accepted", F::NAME);
            tally(ok);
        }
    }
    assert!(
        accepted > 100 && rejected > 10_000,
        "{}: {accepted} accepted, {rejected} rejected: the mutations are not biting",
        F::NAME
    );
}

struct ObsExport;

/// The names the export's consumers look up: rings, span events,
/// metrics, and the quiesce mark the trace audit reads.
const OBS_NAMES: &[&str] = &[
    "daemon",
    "server",
    "session",
    "daemon.flush",
    "epoch.seal",
    "upload.send",
    "server.ack",
    "server.visible",
    "daemon.flushes",
    "server.accepted",
    "uploader.sent",
    "fleet.lag_epochs",
    "fleet_quiesced",
    "true",
];

impl Format for ObsExport {
    const NAME: &'static str = "obs.json";
    type Value = Snapshot;

    fn build(g: &mut Gen) -> String {
        let mut s = Snapshot::default();
        for _ in 0..g.below(4) {
            s.meta.insert(g.known(OBS_NAMES), g.known(OBS_NAMES));
            s.metrics.counters.insert(g.known(OBS_NAMES), g.stamp());
            s.metrics.gauges.insert(g.known(OBS_NAMES), g.stamp());
        }
        for _ in 0..g.below(4) {
            let events = (0..g.below(6))
                .map(|_| EventRecord {
                    cycle: g.stamp(),
                    wall_ns: g.stamp(),
                    name: g.known(OBS_NAMES),
                    kind: [EventKind::Instant, EventKind::Begin, EventKind::End]
                        [g.below(3) as usize],
                    a: g.stamp(),
                    b: g.stamp(),
                })
                .collect();
            s.rings.push(RingSnapshot {
                component: g.known(OBS_NAMES),
                capacity: g.stamp(),
                recorded: g.stamp(),
                overwritten: g.stamp(),
                events,
            });
        }
        let packed = |g: &mut Gen| -> BTreeMap<String, u64> {
            (0..g.below(3))
                .map(|_| (g.packed_name(OBS_NAMES), g.stamp()))
                .collect()
        };
        s.timeseries = SeriesSnapshot {
            capacity: g.stamp(),
            recorded: g.stamp(),
            overwritten: g.stamp(),
            points: (0..g.below(3))
                .map(|_| TimePoint {
                    tick: g.stamp(),
                    counters: packed(g),
                    gauges: packed(g),
                })
                .collect(),
        };
        if g.below(2) == 0 {
            s.overhead = Some(OverheadLedger {
                total_cycles: g.stamp(),
                handler_cycles: g.stamp(),
                daemon_cycles: g.stamp(),
                walk_cycles: g.stamp(),
                samples: g.stamp(),
            });
            s.samples = Some(LossLedger {
                generated: g.stamp(),
                attributed: g.stamp(),
                unknown: g.stamp(),
                driver_dropped: g.stamp(),
                crash_lost: g.stamp(),
                quarantined: g.stamp(),
            });
        }
        let doc = s.to_json();
        assert_eq!(Snapshot::parse(&doc).as_ref(), Ok(&s), "{doc}");
        assert_eq!(Snapshot::parse(&doc).unwrap().to_json(), doc);
        doc
    }

    fn read(text: &str) -> Result<Snapshot, String> {
        Snapshot::parse(text)
    }

    fn write(value: &Snapshot) -> String {
        value.to_json()
    }

    /// `dcpicheck obs`, `dcpistat` and `dcpitrace`.
    fn consume(snap: &Snapshot) {
        let _ = check_snapshot(snap);
        let _ = dcpistat(snap);
        let _ = dcpitrace(&[("", snap)], Filter::default());
    }
}

struct Estimates;

impl Format for Estimates {
    const NAME: &'static str = "estimates.json";
    /// Rendered, because `{:.6}` rounds a damaged `freq` on the way out:
    /// what must hold is that rendering is stable from then on.
    type Value = String;

    fn build(g: &mut Gen) -> String {
        let procs: Vec<ExportedProc> = (0..g.below(3))
            .map(|_| ExportedProc {
                image: g.stamp() as u32,
                image_name: g.name(),
                name: g.name(),
                start_word: g.stamp() as u32,
                len_words: g.stamp() as u32,
                missing_edges: g.below(2) == 0,
                total_samples: g.stamp(),
                blocks: (0..g.below(3))
                    .map(|_| ExportedBlock {
                        start_word: g.stamp() as u32,
                        len: g.stamp() as u32,
                        freq: g.freq(),
                    })
                    .collect(),
                edges: (0..g.below(3))
                    .map(|_| ExportedEdge {
                        from: g.stamp() as usize,
                        to: g.stamp() as usize,
                        kind: [EdgeKind::FallThrough, EdgeKind::Taken, EdgeKind::Indirect]
                            [g.below(3) as usize],
                        freq: g.freq(),
                    })
                    .collect(),
                insns: (0..g.below(3))
                    .map(|_| ExportedInsn {
                        offset: g.stamp(),
                        samples: g.stamp(),
                        m: g.stamp(),
                        freq: g.freq(),
                        cpi: g.freq(),
                        confidence: g.name(),
                        culprits: g.name(),
                    })
                    .collect(),
            })
            .collect();
        let doc = export::render(&procs);
        assert_eq!(export::parse(&doc).as_ref(), Ok(&procs), "{doc}");
        doc
    }

    fn read(text: &str) -> Result<String, String> {
        export::parse(text).map(|procs| export::render(&procs))
    }

    fn write(value: &String) -> String {
        value.clone()
    }
}

struct MapJson;

impl Format for MapJson {
    const NAME: &'static str = "map.json";
    type Value = AddressMap;

    fn build(g: &mut Gen) -> String {
        let words = g.below(12) as usize;
        let mut m = AddressMap::identity(&g.name(), &g.name(), words);
        m.new_words = g.stamp() as u32;
        for old in 0..words {
            m.set(old as u32, g.stamp() as u32);
        }
        let doc = m.to_json();
        assert_eq!(AddressMap::parse(&doc).as_ref(), Ok(&m), "{doc}");
        assert_eq!(AddressMap::parse(&doc).unwrap().to_json(), doc);
        doc
    }

    fn read(text: &str) -> Result<AddressMap, String> {
        AddressMap::parse(text)
    }

    fn write(value: &AddressMap) -> String {
        value.to_json()
    }

    fn lies(doc: &str) -> Vec<String> {
        let rows = doc.matches("\"old\":").count();
        let claim = format!("\"old_words\": {rows},");
        [
            "1152921504606846976".to_owned(),
            "3000000000".to_owned(),
            (rows + 1).to_string(),
        ]
        .iter()
        .map(|lie| doc.replacen(&claim, &format!("\"old_words\": {lie},"), 1))
        .collect()
    }
}

// The formats below have a writer but no typed reader: the value is the
// parsed document itself, re-rendered in `Json`'s compact form.

struct Flamegraph;

impl Format for Flamegraph {
    const NAME: &'static str = "flame.speedscope.json";
    type Value = Json;

    fn build(g: &mut Gen) -> String {
        let names: Vec<String> = (0..6).map(|_| g.name()).collect();
        let mut profile = StackProfile::new();
        let mut total = 0u64;
        for _ in 0..g.below(6) {
            let frames: Vec<Frame> = (0..=g.below(4))
                .map(|_| Frame {
                    image: ImageId(0),
                    offset: g.below(6) * 4,
                })
                .collect();
            // Past 2^53 each, within u64 summed.
            let count = g.stamp() >> 4;
            profile.record(Event::Cycles.code(), Pid(g.below(3) as u32), &frames, count);
            total += count;
        }
        let title = g.name();
        let doc = speedscope::export(&profile, Event::Cycles, &title, &|f| {
            names[(f.offset / 4) as usize].clone()
        });
        speedscope::check_schema(&doc).unwrap_or_else(|e| panic!("{e}: {doc}"));
        let v = json::parse(&doc).unwrap();
        assert_eq!(v.string("name"), Ok(title.as_str()));
        assert_eq!(v.array("profiles").unwrap()[0].int("endValue"), Ok(total));
        for frame in v.member("shared").unwrap().array("frames").unwrap() {
            assert!(names.iter().any(|n| Ok(n.as_str()) == frame.string("name")));
        }
        doc
    }

    fn read(text: &str) -> Result<Json, String> {
        speedscope::check_schema(text)?;
        speedscope::parse_json(text)
    }

    fn write(value: &Json) -> String {
        value.to_string()
    }

    fn lies(doc: &str) -> Vec<String> {
        let at = doc.find("\"endValue\":").expect("own export") + "\"endValue\":".len();
        vec![format!("{}1{}", &doc[..at], &doc[at..])]
    }
}

const LEDGER_FIELDS: [&str; 6] = [
    "generated",
    "attributed",
    "unknown",
    "driver_dropped",
    "crash_lost",
    "quarantined",
];

struct FleetJson;

impl Format for FleetJson {
    const NAME: &'static str = "fleet.json";
    type Value = Json;

    fn build(g: &mut Gen) -> String {
        let base = LossLedger {
            generated: g.stamp(),
            // Past 2^53 each, within u64 summed (the ledger's checked
            // sums assert in debug builds).
            attributed: g.stamp() >> 4,
            unknown: g.stamp() >> 4,
            driver_dropped: g.stamp() >> 4,
            crash_lost: g.stamp() >> 4,
            quarantined: g.stamp() >> 4,
        };
        let report = FleetReport {
            ledger: FleetLedger {
                base,
                in_flight: g.below(2),
                server_journal: g.below(2),
                fleet_merged: g.stamp() >> 4,
                retrans_duplicates_discarded: g.stamp(),
            },
            expected_generated: g.stamp(),
            server_stats: Default::default(),
            net_stats: Default::default(),
            uploader_stats: Default::default(),
            agents: g.stamp() as u32,
            epochs_sealed: g.stamp(),
            tombstones: g.stamp(),
            agent_crashes: g.stamp(),
            server_crashes: g.stamp(),
            ticks: g.stamp(),
            lag: FleetLag {
                p95: g.stamp(),
                ..FleetLag::default()
            },
            root: std::path::PathBuf::new(),
            obs: None,
        };
        let doc = report.to_json();
        let v = json::parse(&doc).unwrap();
        assert_eq!(v.flag("conserves"), Ok(false), "six random buckets");
        let ledger = v.member("ledger").unwrap();
        let want = [
            base.generated,
            base.attributed,
            base.unknown,
            base.driver_dropped,
            base.crash_lost,
            base.quarantined,
        ];
        for (field, want) in LEDGER_FIELDS.iter().zip(want) {
            assert_eq!(ledger.int(field), Ok(want), "{field}");
        }
        assert_eq!(v.member("lag").unwrap().int("p95"), Ok(report.lag.p95));
        doc
    }

    /// What `dcpicheck fleet` reads, by the paths it reads it.
    fn read(text: &str) -> Result<Json, String> {
        let doc = json::parse(text)?;
        doc.flag("conserves")?;
        for field in LEDGER_FIELDS {
            doc.member("ledger")?.int::<u64>(field)?;
        }
        Ok(doc)
    }

    fn write(value: &Json) -> String {
        value.to_string()
    }
}

struct CheckReport;

impl Format for CheckReport {
    const NAME: &'static str = "dcpicheck --json";
    type Value = Json;

    fn build(g: &mut Gen) -> String {
        let mut report = Report::new();
        let pushed: Vec<(String, String, Option<u64>)> = (0..g.below(4))
            .map(|_| (g.name(), g.name(), (g.below(2) == 0).then(|| g.stamp())))
            .collect();
        for (context, message, pc) in &pushed {
            let severity = [Severity::Warning, Severity::Error][g.below(2) as usize];
            let category = [Category::Undecodable, Category::TvState][g.below(2) as usize];
            report.flag_as(
                severity,
                category,
                Loc::at(context).pc(*pc),
                message.as_str(),
            );
        }
        let doc = report.to_json();
        let v = json::parse(&doc).unwrap();
        assert_eq!(v.int("errors"), Ok(report.errors()));
        let diags = v.array("diags").unwrap();
        assert_eq!(diags.len(), pushed.len());
        for (d, (context, message, pc)) in diags.iter().zip(&pushed) {
            assert_eq!(d.string("context"), Ok(context.as_str()));
            assert_eq!(d.string("message"), Ok(message.as_str()));
            assert_eq!(d.member("pc").unwrap().as_u64(), *pc);
        }
        doc
    }

    fn read(text: &str) -> Result<Json, String> {
        let doc = json::parse(text)?;
        doc.int::<u64>("errors")?;
        for d in doc.array("diags")? {
            d.string("context")?;
            d.string("message")?;
        }
        Ok(doc)
    }

    fn write(value: &Json) -> String {
        value.to_string()
    }
}

#[test]
fn obs_export_survives_mutation() {
    fuzz::<ObsExport>(0x0b5);
}

/// One export whose every integer a reader does arithmetic on sits at
/// the edge of `u64`: both ledgers, the lag summary's gauges,
/// the series' deltas, a flush span stamped backwards, a span chain whose
/// stages sum past `u64`, and rings claiming `u64::MAX` overwrites.
/// `Snapshot::parse` accepts it, so no reader may panic on it.
#[test]
fn edge_integers_reach_every_obs_reader_without_a_panic() {
    const MAX: u64 = u64::MAX;
    let id = dcpi_obs::span_id(3, 1);
    let event = |name: &str, kind, cycle, wall_ns, a| EventRecord {
        cycle,
        wall_ns,
        name: name.into(),
        kind,
        a,
        b: 0,
    };
    let ring = |component: &str, overwritten, events: Vec<EventRecord>| RingSnapshot {
        component: component.into(),
        capacity: 8,
        recorded: events.len() as u64,
        overwritten,
        events,
    };
    let mut s = Snapshot::default();
    s.meta.insert("fleet_quiesced".into(), "true".into());
    s.metrics.counters.insert("server.accepted".into(), MAX);
    s.metrics.counters.insert("daemon.flushes".into(), MAX);
    for (name, _) in FleetLag::PUBLISHED.gauges {
        s.metrics.gauges.insert((*name).into(), MAX);
    }
    s.rings = vec![
        ring(
            "session",
            0,
            vec![
                event("epoch.seal", EventKind::Instant, 0, 0, id),
                event("upload.send", EventKind::Instant, MAX, 0, id),
            ],
        ),
        ring(
            "server",
            0,
            vec![
                event("server.ack", EventKind::Instant, 0, 0, id),
                event("server.visible", EventKind::Instant, MAX, 0, id),
            ],
        ),
        ring(
            "daemon",
            0,
            vec![
                event("daemon.flush", EventKind::Begin, 0, MAX, 0),
                event("daemon.flush", EventKind::End, 0, 0, 0),
            ],
        ),
        ring("driver", MAX, Vec::new()),
        ring("faults", MAX, Vec::new()),
    ];
    s.timeseries = SeriesSnapshot {
        capacity: 4,
        recorded: 3,
        overwritten: 0,
        points: (0..3)
            .map(|tick| TimePoint {
                tick,
                counters: [("server.accepted".to_owned(), MAX)].into(),
                gauges: BTreeMap::new(),
            })
            .collect(),
    };
    s.overhead = Some(OverheadLedger {
        total_cycles: MAX,
        handler_cycles: MAX,
        daemon_cycles: MAX,
        walk_cycles: 0,
        samples: 1,
    });
    s.samples = Some(LossLedger {
        generated: MAX,
        attributed: MAX,
        unknown: MAX,
        ..LossLedger::default()
    });
    let snap = Snapshot::parse(&s.to_json()).expect("the reader accepts it");
    assert_eq!(snap, s);
    ObsExport::consume(&snap);
}

#[test]
fn estimates_export_survives_mutation() {
    fuzz::<Estimates>(0xe57);
}

#[test]
fn address_map_survives_mutation() {
    fuzz::<MapJson>(0x3a9);
}

#[test]
fn speedscope_export_survives_mutation() {
    fuzz::<Flamegraph>(0xf1a);
}

#[test]
fn fleet_report_survives_mutation() {
    fuzz::<FleetJson>(0xf1ee7);
}

#[test]
fn check_report_survives_mutation() {
    fuzz::<CheckReport>(0xd1a9);
}

/// The reader alone, against the bound its module states.
#[test]
fn reader_allocation_stays_within_its_stated_bound() {
    let mut g = Gen(CartaRng::new(0xa110c));
    let dense = [
        // One element past a power of two: `Vec` has just doubled.
        format!("[{}1]", "1,".repeat(1 << 16)),
        format!("{{{}\"\":1}}", "\"\":1,".repeat(20_000)),
        format!("[{}[]]", "[],".repeat(30_000)),
        format!("[{}\"\"]", "\"\",".repeat(30_000)),
        format!("[{}]", "[".repeat(63) + &"]".repeat(63)),
    ];
    let damaged = (0..2_000).map(|_| mutate(&ObsExport::build(&mut g), &mut g));
    for text in dense.into_iter().chain(damaged) {
        let (_, Allocs { bytes, .. }) = measure(|| json::parse(&text));
        let bound = (json::ALLOC_FACTOR * text.len() + json::ALLOC_SLACK) as u64;
        assert!(
            bytes <= bound,
            "{bytes} B requested for {} B of input (bound {bound})",
            text.len()
        );
    }
}
