//! Analyze-mode driver: run every app with event recording, analyze the
//! streams, and write `analyze_findings.json`.
//!
//! Usage: `cool-analyze [OUTPUT_PATH] [--trace-out BASE [--trace-app APP]]`
//! (default output `analyze_findings.json`). Exit status 1 if any race or
//! lock-order cycle was found, so CI can gate on it; lint findings are
//! reported but only fail CI via the committed findings file diff.
//!
//! `--trace-out BASE` additionally re-runs one app (default `gauss`, pick
//! with `--trace-app`) with scheduler tracing enabled and writes
//! `BASE.trace.json` (Perfetto/Chrome trace) and `BASE.metrics.json`
//! (`cool-metrics-v1` summary).

use std::process::ExitCode;

use apps::driver::Flags;
use cool_analyze::{analyze_all, findings_to_json};

const USAGE: &str = "usage: cool-analyze [OUTPUT_PATH] [--trace-out BASE [--trace-app APP]]";

fn main() -> ExitCode {
    let flags = Flags::from_env(USAGE, &[], &["--trace-out", "--trace-app"], 1);
    let out_path = flags
        .positional()
        .first()
        .map_or("analyze_findings.json", String::as_str);
    let trace_out = flags.value("--trace-out");
    let trace_app = flags
        .parsed("--trace-app", "an app name", apps::driver::app_name)
        .unwrap_or("gauss");

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

    if let Some(base) = trace_out {
        let version = apps::Version::AffinityDistr;
        let cfg = apps::common::sim_config_small(8, version).with_trace();
        let report = apps::driver::run_app(trace_app, cfg, version, None);
        let (trace, metrics) = apps::driver::trace_artifacts(&report);
        for (suffix, doc) in [("trace", &trace), ("metrics", &metrics)] {
            let path = format!("{base}.{suffix}.json");
            if let Err(e) = std::fs::write(&path, doc) {
                eprintln!("cool-analyze: cannot write {path}: {e}");
                return ExitCode::FAILURE;
            }
            println!("wrote {path}");
        }
    }

    if errors > 0 {
        eprintln!("cool-analyze: {errors} correctness finding(s)");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
