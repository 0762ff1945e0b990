//! Run the COOL work server under an open-loop LocusRoute replay and write
//! the `cool-serve-v1` report.
//!
//! ```text
//! cargo run --release -p bench --bin cool-serve -- --smoke --faults --seed 42 \
//!     --out target/serve_smoke.json \
//!     --require-zero-lost --require-shed --require-retries
//! cargo run --release -p bench --bin cool-serve -- --check target/serve_smoke.json
//! cargo run --release -p bench --bin cool-serve -- --trace-out target/serve_obs
//! ```
//!
//! `--smoke` selects the pinned CI chaos profile (tight queues, arrivals
//! faster than the slowed service rate); the default profile is a roomier
//! fault-free replay. `--faults` arms the pinned chaos plan in either
//! profile. The `--require-*` flags turn report facts into exit-status
//! gates; `--check FILE` validates an existing document (schema, accounting
//! invariants, canonical byte form) without running anything, so it takes
//! no other flag.

use apps::driver::Flags;
use bench::serve::{run_load, smoke_config, validate_serve_json, LoadConfig, ServeReport};

const USAGE: &str = "usage: cool-serve [--smoke] [--faults] [--seed N] [--out FILE] \
[--trace-out BASE] [--require-zero-lost] [--require-shed] [--require-retries] \
| cool-serve --check FILE";

fn main() {
    let flags = Flags::from_env(
        USAGE,
        &[
            "--smoke",
            "--faults",
            "--require-zero-lost",
            "--require-shed",
            "--require-retries",
        ],
        &["--check", "--seed", "--out", "--trace-out"],
        0,
    );
    let has = |f: &str| flags.has(f);
    let opt_value = |f: &str| flags.value(f);
    let seed: u64 = flags.parsed("--seed", "an integer", |v| v.parse().ok()).unwrap_or(42);

    if let Some(path) = opt_value("--check") {
        if let Some(f) = flags.given().find(|&f| f != "--check") {
            flags.fail(&format!("--check runs nothing and takes no {f}"));
        }
        let text = std::fs::read_to_string(path)
            .unwrap_or_else(|e| die(&format!("cannot read {path}: {e}")));
        match validate_serve_json(&text) {
            Ok(r) => {
                eprintln!(
                    "{path}: valid {} report ({} requests, {} completed, {} shed)",
                    bench::serve::SERVE_SCHEMA,
                    r.requests,
                    r.completed,
                    r.shed
                );
                return;
            }
            Err(e) => die(&format!("{path}: INVALID: {e}")),
        }
    }

    let faults = has("--faults");
    let mut cfg: LoadConfig = if has("--smoke") {
        smoke_config(seed, faults)
    } else {
        LoadConfig {
            queue_capacity: 32,
            workers_per_domain: 2,
            domains: 4,
            mean_interarrival_us: 100,
            ..smoke_config(seed, faults)
        }
    };
    let trace_out = opt_value("--trace-out");
    cfg.record_trace = trace_out.is_some();

    let (report, obs) = run_load(&cfg);
    let json = report.to_json();

    if let Some(base) = trace_out {
        let trace = cool_obs::chrome_trace_json(&obs.events);
        let metrics = cool_obs::MetricsSummary::from_trace(&obs).to_json();
        cool_obs::validate_metrics_json(&metrics)
            .unwrap_or_else(|e| die(&format!("generated metrics failed validation: {e}")));
        for (suffix, doc) in [("trace", &trace), ("metrics", &metrics)] {
            let path = format!("{base}.{suffix}.json");
            std::fs::write(&path, doc)
                .unwrap_or_else(|e| die(&format!("cannot write {path}: {e}")));
            eprintln!("wrote {path}");
        }
    }

    match opt_value("--out") {
        Some(path) => {
            std::fs::write(path, &json)
                .unwrap_or_else(|e| die(&format!("cannot write {path}: {e}")));
            eprintln!("wrote {path}");
            // Producer-side gate: what we wrote must parse back and be in
            // canonical byte form.
            let back = std::fs::read_to_string(path)
                .unwrap_or_else(|e| die(&format!("cannot re-read {path}: {e}")));
            if let Err(e) = validate_serve_json(&back) {
                die(&format!("written report failed validation: {e}"));
            }
        }
        None => print!("{json}"),
    }

    check_requirements(&report, &flags);
    eprintln!(
        "cool-serve: {} submitted, {} completed, {} shed, {} retries, p99 {} us, goodput {:.0} req/s",
        report.submitted, report.completed, report.shed, report.retries, report.p99_us,
        report.goodput_rps
    );
}

/// Apply the `--require-*` exit-status gates.
fn check_requirements(report: &ServeReport, flags: &Flags) {
    let has = |f: &str| flags.has(f);
    if let Err(e) = report.validate() {
        die(&format!("report invariants violated: {e}"));
    }
    if has("--require-zero-lost") && (report.lost != 0 || report.double_executed != 0) {
        die(&format!(
            "--require-zero-lost: {} lost, {} double-executed",
            report.lost, report.double_executed
        ));
    }
    if has("--require-shed") && report.shed == 0 {
        die("--require-shed: admission control never shed");
    }
    if has("--require-retries") && report.retries == 0 {
        die("--require-retries: no retry was ever scheduled");
    }
}

fn die(msg: &str) -> ! {
    eprintln!("cool-serve: {msg}");
    std::process::exit(1);
}
