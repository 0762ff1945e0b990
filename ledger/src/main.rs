//! `ledger`: the repository benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path ledger/Cargo.toml -- \
//!     --workload <paper_dash|deep_sched|rt_panel|serve_open> \
//!     --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! With `--trace 0` a run measures the end-to-end metrics; with `--trace 1`
//! it keeps spans around each call into a layer, runs the A/B partner passes
//! and reports the per-layer metrics, writing the spans to
//! `ledger-out/<workload>-seed<n>.trace.json`. Human-readable lines come
//! first; the last line of standard output is the result object. See
//! `ledger/README.md` for the metrics, workloads and sizing.

mod report;
mod rt;
mod serve;
mod sim;
mod spans;
mod stats;

use std::process::ExitCode;
use std::time::Instant;

use report::Report;
use sim::Sweep;

/// The workloads, with why each exists.
const WORKLOADS: [(&str, &str); 4] = [
    ("paper_dash", "the 102 repro --full points on the contended DASH machine: engine- and miss-heavy (not in BENCHMARK.json: its wall time follows the host's speed, which drifts by up to 30% between runs)"),
    ("deep_sched", "the 84 deep/adaptive points on the 64-processor tree, engine off: steal- and feedback-heavy"),
    ("rt_panel", "threaded panel Cholesky on the cool-rt pool: sub-microsecond tasks, dispatch-bound; the traced run also drives the work server and one paper_dash pass for the contention engine"),
    ("serve_open", "open-loop route-requests against the work server: arrival-driven and latency-bound (not in BENCHMARK.json: its microsecond latencies vary too much between runs on a 2-CPU VM)"),
];

/// Percentiles a timing tail is chosen from (the highest with at least ten
/// samples beyond it).
pub const TAIL_LADDER: [f64; 3] = [50.0, 75.0, 90.0];

/// Set-ups made before the first timed operation, and again after the last.
const SETUP_REPS: usize = 20;

/// Parsed command line.
pub struct Args {
    /// Workload name (one of [`WORKLOADS`]).
    pub workload: String,
    /// Seed of the generated inputs (the serve arrival schedule).
    pub seed: u64,
    /// Seconds to measure for.
    pub seconds: u64,
    /// Keep spans and report the per-layer metrics.
    pub trace: bool,
}

const USAGE: &str =
    "usage: ledger --workload <paper_dash|deep_sched|rt_panel|serve_open> [--seed N] [--seconds N] [--trace 0|1]";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 20,
        trace: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} takes a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => {
                if !WORKLOADS.iter().any(|(w, _)| w == value) {
                    return Err(format!("unknown workload {value:?}"));
                }
                args.workload = value.clone();
            }
            "--seed" => args.seed = number()?,
            "--seconds" => args.seconds = number()?.max(1),
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(args)
}

/// The set-up times of one run. A run sets up [`SETUP_REPS`] times before
/// it measures and as many times after, and reports the interquartile mean:
/// the host's speed drifts between phases a fraction of a second long, and
/// a median flips between their levels where the interquartile mean moves
/// with their shares. (Set-ups between the timed operations would be
/// spread better, but they slowed the simulator passes around them by up
/// to 30%.)
pub struct Setups {
    times: Vec<f64>,
}

impl Setups {
    /// No set-ups yet.
    pub(crate) fn new() -> Self {
        Setups { times: Vec::new() }
    }

    /// Set up [`SETUP_REPS`] times and return the last result. Earlier
    /// results are dropped after the next set-up is timed.
    pub fn sample<T>(&mut self, mut f: impl FnMut() -> Result<T, String>) -> Result<T, String> {
        let mut timed = || {
            let t = Instant::now();
            let value = f()?;
            self.times.push(t.elapsed().as_secs_f64());
            Ok::<T, String>(value)
        };
        let mut value = timed()?;
        for _ in 1..SETUP_REPS {
            value = timed()?;
        }
        Ok(value)
    }

    /// The reported set-up time.
    pub fn seconds(&self) -> f64 {
        stats::interquartile_mean(&self.times)
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("ledger: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut rep = Report::new();
    if let Some((_, why)) = WORKLOADS.iter().find(|(w, _)| *w == args.workload) {
        rep.note(format!("workload: {why}"));
    }
    let outcome = match args.workload.as_str() {
        "paper_dash" => sim::run(Sweep::PaperDash, &args, &mut rep),
        "deep_sched" => sim::run(Sweep::DeepSched, &args, &mut rep),
        "rt_panel" => rt::run(&args, &mut rep),
        "serve_open" => serve::run(&args, &mut rep),
        _ => unreachable!("parse_args admits only known workloads"),
    };
    let tracer = match outcome {
        Ok(t) => t,
        Err(e) => {
            eprintln!("ledger: {}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    match report::peak_rss_mb() {
        Ok(mb) => rep.set("peak_rss_mb", mb),
        Err(e) => {
            eprintln!("ledger: {e}");
            return ExitCode::FAILURE;
        }
    }
    rep.line("setup_s", rep.get("setup_s"), "s");
    rep.line("peak_rss_mb", rep.get("peak_rss_mb"), "MB");
    rep.line("fail_frac", rep.fail_frac(), "ratio");
    rep.note(format!(
        "seed {} seconds {} trace {}",
        args.seed,
        args.seconds,
        u8::from(args.trace)
    ));
    if args.trace {
        rep.set("bench.spans", tracer.spans().len() as f64);
        let dir = std::path::Path::new("ledger-out");
        let path = dir.join(format!("{}-seed{}.trace.json", args.workload, args.seed));
        let written = std::fs::create_dir_all(dir)
            .and_then(|()| std::fs::write(&path, spans::chrome_trace(tracer.spans(), 200_000)));
        match written {
            Ok(()) => rep.note(format!("spans written to {}", path.display())),
            Err(e) => {
                eprintln!("ledger: cannot write {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        }
        for (name, secs) in spans::self_seconds_by_name(tracer.spans()) {
            rep.line(&format!("self_s.{name}"), secs, "s");
        }
    }
    print!("{}", rep.text(&args.workload));
    println!("{}", rep.json(args.trace));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn the_documented_command_line_parses() {
        let a = parse_args(&argv("--workload rt_panel --seed 7 --seconds 3 --trace 1")).unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("rt_panel", 7, 3, true)
        );
    }

    #[test]
    fn bad_command_lines_are_refused() {
        assert!(
            parse_args(&argv("--seed 1")).is_err(),
            "workload is required"
        );
        assert!(parse_args(&argv("--workload nope")).is_err());
        assert!(parse_args(&argv("--workload rt_panel --trace 2")).is_err());
        assert!(parse_args(&argv("--workload rt_panel --bogus 1")).is_err());
        assert!(parse_args(&argv("--workload rt_panel --seed")).is_err());
    }

    #[test]
    fn setups_repeat_and_return_the_last() {
        let mut setups = Setups::new();
        let mut calls = 0;
        let last = setups
            .sample(|| {
                calls += 1;
                Ok(calls)
            })
            .unwrap();
        assert_eq!((calls, last), (SETUP_REPS, SETUP_REPS));
        setups.sample(|| Ok(())).unwrap();
        assert_eq!(setups.times.len(), 2 * SETUP_REPS);
        assert!(setups.seconds() >= 0.0);
        assert!(setups
            .sample(|| Err::<(), _>("broken".to_string()))
            .is_err());
    }
}
