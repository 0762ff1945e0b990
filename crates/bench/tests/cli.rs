//! Every harness binary rejects a malformed flag value the way it rejects
//! an unknown flag: the problem and the usage on stderr, exit status 2, and
//! nothing run.

use std::process::Command;

#[test]
fn a_malformed_value_prints_usage_and_exits_2() {
    let repro = env!("CARGO_BIN_EXE_repro");
    let figures = env!("CARGO_BIN_EXE_figures");
    let serve = env!("CARGO_BIN_EXE_cool-serve");
    let cases: [(&str, &[&str]); 9] = [
        (repro, &["--scale", "huge"]),
        (repro, &["--apps", "bogus"]),
        (repro, &["--versions", "bogus"]),
        (repro, &["--procs", "x"]),
        (repro, &["--jobs", "x"]),
        (figures, &["--procs", "x"]),
        (figures, &["--procs", "0"]),
        (figures, &["--trace-app", "bogus"]),
        (serve, &["--seed", "abc"]),
    ];
    for (bin, args) in cases {
        let out = Command::new(bin).args(args).output().expect("run binary");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{bin} {args:?}: {stderr}");
        assert!(
            stderr.contains(&format!("error: {} takes", args[0])) && stderr.contains("usage:"),
            "{bin} {args:?}: {stderr}"
        );
        assert!(out.stdout.is_empty(), "{bin} {args:?} ran: {}", String::from_utf8_lossy(&out.stdout));
    }
}
