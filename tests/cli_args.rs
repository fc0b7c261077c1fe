//! The command-line contract every binary inherits from
//! `dcpi::core::cli`: arguments are read by taking them, and whatever
//! nobody took is a usage error.

use dcpi::core::cli::{parse, Args, Stop};

/// The message of a usage error; anything else fails the test.
fn usage<T: std::fmt::Debug>(r: Result<T, Stop>) -> String {
    match r {
        Err(Stop::Usage(msg)) => msg,
        other => panic!("expected a usage error, got {other:?}"),
    }
}

#[test]
fn takes_in_any_order_and_finishes_clean() {
    for line in [
        "db --limit 5 --images proc",
        "--images db proc --limit 5",
        "--limit 5 db --images proc",
    ] {
        let mut args = Args::new(line.split(' '));
        assert!(args.flag("--images"), "{line}");
        assert!(!args.flag("--tree"), "{line}");
        assert_eq!(args.value::<usize>("--limit").unwrap(), Some(5), "{line}");
        assert_eq!(args.value::<f64>("--min").unwrap(), None, "{line}");
        assert_eq!(args.positional("<db-dir>").unwrap(), "db", "{line}");
        assert_eq!(args.optional().as_deref(), Some("proc"), "{line}");
        assert_eq!(args.optional(), None, "{line}");
        assert_eq!(args.finish(), Ok(()), "{line}");
    }
}

#[test]
fn whatever_nobody_took_is_a_usage_error() {
    // Unknown flag.
    let mut args = Args::new(["db", "--bogus"]);
    assert_eq!(args.positional("<db-dir>").unwrap(), "db");
    assert!(usage(args.finish()).contains("--bogus"));

    // Repeated flag: only the first occurrence is taken.
    let mut args = Args::new(["--json", "--json"]);
    assert!(args.flag("--json"));
    assert!(usage(args.finish()).contains("--json"));
    let mut args = Args::new(["--seed", "1", "--seed", "2"]);
    assert_eq!(args.value::<u32>("--seed").unwrap(), Some(1));
    assert!(usage(args.finish()).contains("--seed"));

    // Surplus positional.
    let mut args = Args::new(["db", "extra"]);
    assert_eq!(args.positional("<db-dir>").unwrap(), "db");
    assert!(usage(args.finish()).contains("extra"));

    // Missing positional.
    let mut args = Args::new(["--json"]);
    assert!(usage(args.positional("<db-dir>")).contains("<db-dir>"));
}

#[test]
fn a_valued_flag_needs_a_value_that_parses() {
    // Valueless at the end of the line.
    let mut args = Args::new(["db", "--limit"]);
    assert!(usage(args.value::<usize>("--limit")).contains("--limit"));

    // A flag is never eaten as another flag's value, and stays put.
    let mut args = Args::new(["--runs", "--quick"]);
    assert!(usage(args.value::<usize>("--runs")).contains("--runs"));
    assert!(usage(args.text("--runs")).contains("--runs"));
    assert!(args.flag("--quick"));

    // Unparsable: the error names the flag and the word.
    let mut args = Args::new(["--limit", "abc"]);
    let msg = usage(args.value::<usize>("--limit"));
    assert!(msg.contains("--limit") && msg.contains("abc"), "{msg}");
    assert!(usage(parse::<u32>("<image-id>", "x")).contains("<image-id>"));

    // `-1` is a value; `--x` is not.
    let mut args = Args::new(["--delta", "-1", "--name", "--x"]);
    assert_eq!(args.value::<i64>("--delta").unwrap(), Some(-1));
    assert!(usage(args.text("--name")).contains("--name"));
}

#[test]
fn optional_skips_flags() {
    let mut args = Args::new(["--watch", "obs.json", "--json", "5"]);
    assert_eq!(args.optional().as_deref(), Some("obs.json"));
    assert_eq!(args.optional().as_deref(), Some("5"));
    assert_eq!(args.optional(), None);
    assert!(args.flag("--watch") && args.flag("--json"));
    assert_eq!(args.finish(), Ok(()));
}

#[test]
fn any_displayable_error_is_a_failed_run() {
    let io = std::io::Error::other("disk on fire");
    assert_eq!(Stop::from(io), Stop::Failed("disk on fire".into()));
    assert_eq!(Stop::from("plain"), Stop::Failed("plain".into()));
    // Exit statuses: usage 2, failed or found 1.
    assert_eq!(Stop::Usage("u".into()).report("t", "usage: t"), 2);
    assert_eq!(Stop::Failed("f".into()).report("t", "usage: t"), 1);
    assert_eq!(Stop::Found.report("t", "usage: t"), 1);
}
