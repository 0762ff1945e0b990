//! Analyze-mode driver: run every app with event recording, analyze the
//! streams, and write `analyze_findings.json`.
//!
//! Usage: `cool-analyze [OUTPUT_PATH]` (default output
//! `analyze_findings.json`). Exit status 1 if any race or lock-order cycle
//! was found, so CI can gate on it; lint findings are reported but only fail
//! CI via the committed findings file diff. (A Perfetto trace and
//! `cool-metrics-v1` summary of one app come from `figures --trace-out`.)

use std::process::ExitCode;

use apps::driver::Flags;
use cool_analyze::{analyze_all, findings_to_json};

const USAGE: &str = "usage: cool-analyze [OUTPUT_PATH]";

fn main() -> ExitCode {
    let flags = Flags::from_env(USAGE, &[], &[], 1);
    let out_path = flags
        .positional()
        .first()
        .map_or("analyze_findings.json", String::as_str);

    let findings = analyze_all();
    let mut errors = 0usize;
    for f in &findings {
        let a = &f.analysis;
        let lint_count = a.lints.len();
        println!(
            "{:<16} {:<24} {:<8} tasks={:<6} accesses={:<7} races={} cycles={} lints={}",
            f.app,
            f.version,
            f.schedule,
            a.races.tasks,
            a.races.accesses,
            a.races.races.len(),
            a.locks.cycles.len(),
            lint_count,
        );
        for r in &a.races.races {
            println!("    RACE  {}", r.describe());
        }
        for c in &a.locks.cycles {
            println!("    CYCLE {}", c.describe());
        }
        for l in &a.lints {
            println!("    LINT  {}", l.describe());
        }
        errors += a.races.races.len() + a.locks.cycles.len();
    }

    let doc = findings_to_json(&findings);
    if let Err(e) = std::fs::write(out_path, &doc) {
        eprintln!("cool-analyze: cannot write {out_path}: {e}");
        return ExitCode::FAILURE;
    }
    println!("wrote {out_path} ({} runs)", findings.len());

    if errors > 0 {
        eprintln!("cool-analyze: {errors} correctness finding(s)");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
