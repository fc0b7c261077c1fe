//! `profile`'s command line, through the real binary. None of these
//! invocations reaches the simulator: a command line that is not fully
//! understood, or a database directory that already exists, stops first.

use dcpi_testkit::TempRoot;
use std::process::Command;

#[test]
fn profile_refuses_before_it_runs() {
    let base = TempRoot::new("profile-cli");
    let fresh = base.join("db");
    let db = fresh.to_str().unwrap();
    let run = |args: &[&str]| {
        let out = Command::new(env!("CARGO_BIN_EXE_profile"))
            .args(args)
            .output()
            .expect("run profile");
        let err = String::from_utf8_lossy(&out.stderr).into_owned();
        assert!(out.stdout.is_empty(), "{args:?}: {err}");
        (out.status.code(), err)
    };

    // Usage errors: exit 2, the offending word, the usage text, and no
    // database directory.
    for (args, word) in [
        (&["gcc", db, "--sed", "7"][..], "--sed"),
        (&["gcc", db, "surplus-word"], "surplus-word"),
        (&["gcc", db, "--seed", "x!y"], "x!y"),
        (&["gcc", db, "--seed"], "--seed"),
        (&["gcc", db, "--config", "nosuch"], "nosuch"),
        (&["no-such-workload", db], "no-such-workload"),
    ] {
        let (code, err) = run(args);
        assert_eq!(code, Some(2), "{args:?}: {err}");
        assert!(err.contains(word), "{args:?}: {err}");
        assert!(err.contains("usage: profile"), "{args:?}: {err}");
        assert!(err.contains("base"), "usage lists every config: {err}");
        assert!(!fresh.exists(), "{args:?} created the database");
    }

    // A run failure: the directory exists, so exit 1 and one line.
    let (code, err) = run(&["gcc", base.to_str().unwrap()]);
    assert_eq!(code, Some(1), "{err}");
    assert!(err.starts_with("profile: "), "{err}");
    assert!(err.contains("already exists"), "{err}");
    assert!(!err.contains("usage"), "{err}");
}
