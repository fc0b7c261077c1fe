//! The experiment binaries' command lines, end to end. `ExpOptions`'
//! readers are unit-tested in `lib.rs`; `speedtest` reads no options, so
//! its whole command line is checked here, on the binary.

use std::process::Command;

#[test]
fn speedtest_takes_no_arguments_and_simulates_nothing_when_given_one() {
    for (argv, word) in [
        (&["--bogus"][..], "--bogus"),
        (&["--quick"], "--quick"),
        (&["gcc"], "gcc"),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_speedtest"))
            .args(argv)
            .output()
            .expect("run speedtest");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{argv:?}: {stderr}");
        assert!(stderr.contains(word), "{argv:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{argv:?} simulated something");
    }
}
