//! Every byte the JSON writers write, pinned.
//!
//! `tests/golden/json-artifacts.txt` holds, under one `== name` header
//! each, the document every JSON writer produces for a fixed value —
//! `obs.json`, `estimates.json`, `map.json`, `fleet.json`, `delta.json`,
//! `dcpicheck --json` (plain and with `tv`'s tallies), `dcpitrace
//! --json`, a speedscope flamegraph and `profile`'s status records —
//! with hostile names and `u64::MAX` stamps wherever a writer takes
//! them. A change to how documents are written fails here, naming the
//! artifact, the line and `old → new` of every moved line. Regenerate with `DCPI_BLESS=1` only when
//! changing a document's bytes is the point of the change.

use dcpi::analyze::export::{self, ExportedBlock, ExportedEdge, ExportedInsn, ExportedProc};
use dcpi::analyze::EdgeKind;
use dcpi::check::{Category, Loc, Report, Severity, TvResult};
use dcpi::collect::faults::{FleetLedger, LossLedger};
use dcpi::core::json::{self, Value};
use dcpi::core::{golden, Event, ImageId, Pid};
use dcpi::isa::image::{Image, Symbol};
use dcpi::isa::AddressMap;
use dcpi::pgo::PgoReport;
use dcpi::server::{FleetLag, FleetReport};
use dcpi::tools::dcpipgo::delta_json;
use dcpi::tools::{dcpitrace_json, Filter};
use dcpi::workloads::{PgoOutcome, Workload};
use dcpi_obs::{
    Component, EventKind, EventRecord, Obs, ObsConfig, OverheadLedger, Reporter, RingSnapshot,
    SeriesSnapshot, Snapshot, TimePoint,
};
use dcpi_stacks::{speedscope, Frame, StackProfile};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// A name holding every character a writer must escape.
const HOSTILE: &str = "a\"b,c{d}e\nf\\\t\u{1}g";

/// The golden text under construction.
struct Golden(String);

impl Golden {
    /// Records a JSON document, which must also read back.
    fn json(&mut self, name: &str, doc: &str) {
        if let Err(e) = json::parse(doc) {
            panic!("{name} is not JSON: {e}\n{doc}");
        }
        self.doc(name, doc);
    }

    fn doc(&mut self, name: &str, doc: &str) {
        let _ = writeln!(self.0, "== {name}");
        self.0.push_str(doc);
        if !doc.ends_with('\n') {
            self.0.push_str("\n-- no newline at end\n");
        }
    }
}

fn snapshot() -> Snapshot {
    let mut s = Snapshot::default();
    s.meta.insert("workload".into(), "gcc".into());
    s.meta.insert("seed".into(), "7".into());
    s.meta.insert(HOSTILE.into(), HOSTILE.into());
    s.metrics.counters.insert("driver.interrupts".into(), 1234);
    s.metrics.counters.insert(HOSTILE.into(), u64::MAX);
    s.metrics.gauges.insert("daemon.memory_bytes".into(), 65536);
    s.rings.push(RingSnapshot {
        component: "driver".into(),
        capacity: 4,
        recorded: 6,
        overwritten: 2,
        events: vec![
            EventRecord {
                cycle: 10,
                wall_ns: u64::MAX,
                name: "driver.irq".into(),
                kind: EventKind::Instant,
                a: 634,
                b: 4096,
            },
            EventRecord {
                cycle: 20,
                wall_ns: 0,
                name: HOSTILE.into(),
                kind: EventKind::Begin,
                a: (1 << 53) + 1,
                b: 0,
            },
        ],
    });
    s.rings.push(RingSnapshot {
        component: HOSTILE.into(),
        capacity: 2,
        recorded: 0,
        overwritten: 0,
        events: Vec::new(),
    });
    s.timeseries = SeriesSnapshot {
        capacity: 4,
        recorded: 6,
        overwritten: 4,
        points: vec![
            TimePoint {
                tick: 100,
                counters: [("server.accepted".to_string(), 3), ("a:b".to_string(), 9)]
                    .into_iter()
                    .collect(),
                gauges: [("server.queue_depth".to_string(), 2)]
                    .into_iter()
                    .collect(),
            },
            TimePoint {
                tick: 200,
                counters: Default::default(),
                gauges: Default::default(),
            },
        ],
    };
    s.overhead = Some(OverheadLedger {
        total_cycles: 1_000_000,
        handler_cycles: 11_000,
        daemon_cycles: 900,
        walk_cycles: 2_500,
        samples: 16,
    });
    s.samples = Some(LossLedger {
        generated: 16,
        attributed: 14,
        unknown: 1,
        driver_dropped: 1,
        crash_lost: 0,
        quarantined: 0,
    });
    s
}

fn procs() -> Vec<ExportedProc> {
    vec![
        ExportedProc {
            image: 1,
            image_name: "/bin/app".into(),
            name: HOSTILE.into(),
            start_word: 0,
            len_words: 8,
            missing_edges: false,
            total_samples: 42,
            blocks: vec![
                ExportedBlock {
                    start_word: 0,
                    len: 5,
                    freq: 12.5,
                },
                ExportedBlock {
                    start_word: 5,
                    len: 3,
                    freq: -1.0,
                },
            ],
            edges: vec![
                ExportedEdge {
                    from: 0,
                    to: 1,
                    kind: EdgeKind::FallThrough,
                    freq: 12.0,
                },
                ExportedEdge {
                    from: 0,
                    to: 0,
                    kind: EdgeKind::Taken,
                    freq: 1.0 / 3.0,
                },
            ],
            insns: vec![ExportedInsn {
                offset: u64::MAX,
                samples: 7,
                m: 2,
                freq: 3.5,
                cpi: 2.0,
                confidence: "high".into(),
                culprits: "iD".into(),
            }],
        },
        ExportedProc {
            image: 2,
            image_name: HOSTILE.into(),
            name: "helper".into(),
            start_word: 8,
            len_words: 1,
            missing_edges: true,
            total_samples: 0,
            blocks: vec![],
            edges: vec![ExportedEdge {
                from: 0,
                to: 0,
                kind: EdgeKind::Indirect,
                freq: -0.0,
            }],
            insns: vec![],
        },
    ]
}

fn fleet_report() -> FleetReport {
    FleetReport {
        ledger: FleetLedger {
            base: LossLedger {
                generated: 100,
                attributed: 90,
                unknown: 4,
                driver_dropped: 3,
                crash_lost: 2,
                quarantined: 1,
            },
            in_flight: 0,
            server_journal: 0,
            fleet_merged: 94,
            retrans_duplicates_discarded: 5,
        },
        expected_generated: 100,
        server_stats: Default::default(),
        net_stats: Default::default(),
        uploader_stats: Default::default(),
        agents: 6,
        epochs_sealed: 40,
        tombstones: 1,
        agent_crashes: 2,
        server_crashes: 1,
        ticks: 512,
        lag: FleetLag {
            samples: 40,
            p50: 32,
            p95: 110,
            p99: 226,
            max: u64::MAX,
        },
        root: PathBuf::new(),
        obs: None,
    }
}

fn report() -> Report {
    let mut report = Report::new();
    report.flag_as(
        Severity::Error,
        Category::Undecodable,
        Loc::at("main").pc(0x40_u64).block(2_usize),
        "word 0x000000ff fails to decode",
    );
    report.flag_as(
        Severity::Warning,
        Category::TvState,
        Loc::at(HOSTILE),
        HOSTILE,
    );
    report.flag_as(
        Severity::Error,
        Category::TvState,
        Loc::at("f").pc(u64::MAX),
        "no block",
    );
    report
}

fn pgo_outcome() -> PgoOutcome {
    let image = Image::new(
        HOSTILE.into(),
        vec![0],
        vec![Symbol {
            name: "main".into(),
            offset: 0,
            size: 4,
        }],
    );
    PgoOutcome {
        workload: Workload::Gcc,
        image_name: HOSTILE.into(),
        estimates: "{}\n".into(),
        procs_analyzed: 2,
        old_image: image.clone(),
        new_image: image,
        map: AddressMap::identity("a", "b", 1),
        report: PgoReport {
            procs: 2,
            procs_laid_out: 2,
            packed: true,
            blocks_moved: 3,
            branches_inverted: 1,
            branches_added: 4,
            pad_words: 5,
            blocks_rescheduled: 6,
            call_patches: 7,
            old_words: 100,
            new_words: 104,
            tv_segments: 4,
            tv_proved: 3,
            ..PgoReport::default()
        },
        base_cycles: 1000,
        opt_cycles: 950,
        equivalent: true,
    }
}

fn traced() -> Snapshot {
    let obs = Obs::new(&ObsConfig::on());
    obs.event_at(Component::Driver, "driver.irq", 50, 1, 0);
    obs.event_at(Component::Daemon, "daemon.flush", 100, 2, u64::MAX);
    obs.event_at(Component::Faults, "fault.crash", 120, 4, 5);
    let mut snap = obs.snapshot();
    snap.mask_wall();
    snap
}

fn flamegraph() -> String {
    let f = |offset: u64| Frame {
        image: ImageId(0),
        offset,
    };
    let mut p = StackProfile::new();
    p.record(Event::Cycles.code(), Pid(1), &[f(0), f(16)], 4);
    p.record(
        Event::Cycles.code(),
        Pid(2),
        &[f(0), f(16), f(32)],
        u64::MAX >> 4,
    );
    p.record(Event::Cycles.code(), Pid(1), &[f(0)], 1);
    speedscope::export(&p, Event::Cycles, HOSTILE, &|fr| {
        if fr.offset == 16 {
            HOSTILE.to_owned()
        } else {
            format!("proc_{}", fr.offset)
        }
    })
}

fn records(g: &mut Golden) {
    let run: [(&str, Value); 6] = [
        ("workload", "gcc".into()),
        ("config", "cycles".into()),
        ("cycles", 123_456_u64.into()),
        ("samples", 0_u64.into()),
        ("db_bytes", u64::MAX.into()),
        ("db", "/tmp/db1".into()),
    ];
    let stacks: [(&str, Value); 2] = [
        ("stack_samples", 238_u64.into()),
        ("contexts", 12_usize.into()),
    ];
    let obs: [(&str, Value); 1] = [("path", HOSTILE.into())];
    let mut text = String::new();
    for (name, fields) in [
        ("profile.run", &run[..]),
        ("profile.stacks", &stacks[..]),
        ("profile.obs", &obs[..]),
    ] {
        let record = Reporter::render_json(name, fields);
        json::parse(&record).unwrap_or_else(|e| panic!("{name} is not JSON: {e}"));
        let _ = writeln!(text, "{record}");
        let _ = writeln!(text, "{}", Reporter::render_text(name, fields));
    }
    g.doc("profile --json records, then their text form", &text);
}

#[test]
fn every_writer_writes_what_it_wrote_when_recorded() {
    let mut g = Golden(String::new());
    g.json("obs.json", &snapshot().to_json());
    g.json("obs.json, empty", &Snapshot::default().to_json());
    g.json("estimates.json", &export::render(&procs()));
    g.json("estimates.json, empty", &export::render(&[]));
    let mut map = AddressMap::identity("/bin/app", HOSTILE, 3);
    map.set(1, 2);
    map.set(2, 1);
    g.json("map.json", &map.to_json());
    g.json(
        "map.json, empty",
        &AddressMap::identity("a", "b", 0).to_json(),
    );
    g.json("fleet.json", &fleet_report().to_json());
    g.json("delta.json", &delta_json(&pgo_outcome()));
    g.json("dcpicheck --json", &report().to_json());
    g.json("dcpicheck --json, clean", &Report::new().to_json());
    let tv = TvResult {
        report: report(),
        segments: 3,
        proved: 2,
    };
    g.json("dcpicheck tv --json", &tv.to_json());
    let snap = traced();
    g.json(
        "dcpitrace --json",
        &dcpitrace_json(&[("", &snap)], Filter::default()),
    );
    g.json(
        "dcpitrace --json, two labelled exports",
        &dcpitrace_json(&[("a", &snap), ("b", &snap)], Filter::default()),
    );
    let none = Filter {
        component: Some("nosuch"),
        epoch: None,
    };
    g.json(
        "dcpitrace --json, nothing kept",
        &dcpitrace_json(&[("", &snap)], none),
    );
    g.json("flame.speedscope.json", &flamegraph());
    records(&mut g);

    let now = g.0;
    let golden = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/json-artifacts.txt");
    let moved = golden::check(&golden, &now, Some("== ")).expect("write the golden file");
    assert!(
        moved.is_empty(),
        "a JSON document moved:\n{}",
        moved.join("\n")
    );
}
