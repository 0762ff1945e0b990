//! Command lines the harness binaries reject or complete. Every binary
//! rejects a malformed flag value the way it rejects an unknown flag, and
//! `repro` rejects conflicting matrix selectors and the retired cache flags
//! the same way, as both binaries reject a flag the command would ignore:
//! the problem and the usage on stderr, exit status 2, and nothing run.
//! `figures` with only modifiers prints every exhibit.

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

#[test]
fn repro_rejects_conflicting_selectors_before_running() {
    let repro = env!("CARGO_BIN_EXE_repro");
    let out_dir = std::env::temp_dir().join(format!("repro-cli-{}", std::process::id()));
    let out_arg = out_dir.to_str().expect("utf-8 temp path");
    let cases: [&[&str]; 3] = [
        &["--smoke", "--scale", "full", "--out", out_arg],
        &["--full", "--apps", "gauss", "--procs", "1"],
        &["--deep", "--smoke"],
    ];
    for args in cases {
        let out = Command::new(repro).args(args).output().expect("run repro");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "repro {args:?}: {stderr}");
        assert!(
            stderr.contains("error: ") && stderr.contains("usage:"),
            "repro {args:?}: {stderr}"
        );
        assert!(
            !stderr.contains("matrix points"),
            "repro {args:?} ran: {stderr}"
        );
    }
    assert!(
        !out_dir.exists(),
        "a rejected command line wrote {}",
        out_dir.display()
    );
}

#[test]
fn repro_rejects_the_retired_cache_flags() {
    // Every sweep simulates every point; the memo cache and its flags are
    // gone, so a command line that still names them must not run.
    let repro = env!("CARGO_BIN_EXE_repro");
    let cases: [&[&str]; 2] = [&["--smoke", "--no-cache"], &["--smoke", "--cache-dir", "x"]];
    for args in cases {
        let out = Command::new(repro).args(args).output().expect("run repro");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "repro {args:?}: {stderr}");
        assert!(
            stderr.contains(&format!("error: unknown flag {}", args[1]))
                && stderr.contains("usage:"),
            "repro {args:?}: {stderr}"
        );
        assert!(
            !stderr.contains("matrix points"),
            "repro {args:?} ran: {stderr}"
        );
    }
}

#[test]
fn a_flag_the_command_would_ignore_prints_usage_and_exits_2() {
    // `cool-serve --check` validates a report and runs nothing, so it
    // would write no `--out` and check no `--require-*`; `repro` applies
    // `--tolerance` only to `--check`, and `--serial` overrides `--jobs`.
    let serve = env!("CARGO_BIN_EXE_cool-serve");
    let repro = env!("CARGO_BIN_EXE_repro");
    let dir = std::env::temp_dir().join(format!("cli-ignored-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("make temp dir");
    let report = dir.join("serve.json");
    let report_arg = report.to_str().expect("utf-8 temp path");
    let out = dir.join("out.json");
    let out_arg = out.to_str().expect("utf-8 temp path");
    let made = Command::new(serve)
        .args(["--smoke", "--faults", "--out", report_arg])
        .output()
        .expect("run cool-serve");
    assert!(
        made.status.success(),
        "{}",
        String::from_utf8_lossy(&made.stderr)
    );
    let cases: [(&str, &[&str]); 3] = [
        (
            serve,
            &[
                "--check",
                report_arg,
                "--smoke",
                "--require-shed",
                "--out",
                out_arg,
            ],
        ),
        (repro, &["--smoke", "--tolerance", "0.5"]),
        (repro, &["--smoke", "--serial", "--jobs", "3"]),
    ];
    for (bin, args) in cases {
        let run = Command::new(bin).args(args).output().expect("run binary");
        let stderr = String::from_utf8_lossy(&run.stderr);
        assert_eq!(run.status.code(), Some(2), "{bin} {args:?}: {stderr}");
        assert!(
            stderr.contains("error: ") && stderr.contains("usage:"),
            "{bin} {args:?}: {stderr}"
        );
        assert!(
            !stderr.contains("matrix points") && !stderr.contains("valid"),
            "{bin} {args:?} ran: {stderr}"
        );
        assert!(run.stdout.is_empty(), "{bin} {args:?} ran");
    }
    assert!(!out.exists(), "a rejected command line wrote {out_arg}");
    std::fs::remove_dir_all(&dir).expect("remove temp dir");
}

#[test]
fn figures_with_only_modifiers_prints_every_exhibit() {
    let out = Command::new(env!("CARGO_BIN_EXE_figures"))
        .arg("--small")
        .output()
        .expect("run figures");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        stdout.contains("# Table 1") && stdout.contains("# Headline"),
        "{stdout}"
    );
}
