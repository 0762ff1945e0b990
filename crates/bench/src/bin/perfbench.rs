//! Measure the pinned reduced-scale sweep and emit one point of the perf
//! trajectory as schema'd JSON (`BENCH_*.json`).
//!
//! ```text
//! cargo run --release -p bench --bin perfbench                    # 3 repeats, JSON on stdout
//! cargo run --release -p bench --bin perfbench -- --out BENCH_8.json
//! cargo run --release -p bench --bin perfbench -- --smoke         # 1 repeat (CI)
//! cargo run --release -p bench --bin perfbench -- --smoke --baseline BENCH_8.json
//! ```
//!
//! With `--baseline`, the emitted point is checked against the committed
//! baseline: the baseline must carry the `cool-bench-v1` schema, the
//! deterministic quantities (total refs and simulated cycles) must match
//! exactly, total wall-clock must not regress more than 25%, and the
//! `machine_micro` zero-contention fast path must hold its refs/sec to
//! within 5% of the baseline.

use apps::driver::Flags;
use bench::perf;

const SCHEMA: &str = "cool-bench-v1";
/// Allowed wall-clock regression versus the committed baseline.
const MAX_REGRESSION: f64 = 1.25;
/// Budget for the zero-contention fast path: the `machine_micro` pipeline
/// throughput (refs/sec) may fall at most 5% below the committed baseline.
/// The micro stream never touches the contention engine, so this pins
/// the cost of carrying the engine alongside the legacy model.
const MICRO_MAX_REGRESSION: f64 = 1.05;

const USAGE: &str = "usage: perfbench [--smoke] [--out FILE] [--baseline FILE]";

fn main() {
    let flags = Flags::from_env(USAGE, &["--smoke"], &["--out", "--baseline"], 0);
    let has = |f: &str| flags.has(f);
    let opt = |f: &str| flags.value(f);
    // `iters` is pinned: refs totals must be comparable across runs so the
    // baseline check can demand exact equality. `--smoke` only drops repeats.
    let (repeats, iters): (u32, u32) = if has("--smoke") { (1, 16) } else { (3, 16) };
    let timings = perf::time_sweep(repeats, iters);
    // The micro stream is a ~10 ms interval and the fast-path budget is
    // tight, so sample it (with its same-process calibration) several
    // times and record the median-by-ratio sample — a typical, achievable
    // value for later runs to be held against.
    let (micro, calib) = median_fast_path_sample(if has("--smoke") { 3 } else { 5 });
    let figures_ms = perf::figures_small_wall_ms();
    let adaptive_ms = perf::adaptive_small_wall_ms();
    let json = render_json(&timings, &micro, calib, repeats, iters, figures_ms, adaptive_ms);

    match opt("--out") {
        Some(path) => {
            std::fs::write(path, &json).unwrap_or_else(|e| panic!("write {path}: {e}"));
            eprintln!("wrote {path}");
        }
        None => println!("{json}"),
    }

    if let Some(path) = opt("--baseline") {
        let baseline = std::fs::read_to_string(path)
            .unwrap_or_else(|e| panic!("read baseline {path}: {e}"));
        check_against_baseline(&json, &baseline, path);
        check_fast_path_budget(&json, &baseline, path);
        eprintln!("baseline check OK ({path})");
    }
}

/// One fast-path sample: the best-of-10 micro timing and the best-of-10
/// pure-CPU calibration from the same stretch of wall-clock. Their ratio
/// is the machine-speed-normalised fast-path throughput the budget gates.
fn fast_path_sample() -> (perf::AppTiming, f64) {
    let micro = perf::machine_micro(10);
    let calib = perf::calibration_ops_per_sec(10);
    (micro, calib)
}

/// Take `n` fast-path samples and return the one with the median
/// calibrated ratio.
fn median_fast_path_sample(n: usize) -> (perf::AppTiming, f64) {
    assert!(n >= 1);
    let mut samples: Vec<(perf::AppTiming, f64)> = (0..n).map(|_| fast_path_sample()).collect();
    samples.sort_by(|a, b| {
        let ra = a.0.refs_per_sec() / a.1;
        let rb = b.0.refs_per_sec() / b.1;
        ra.partial_cmp(&rb).expect("ratios are finite")
    });
    samples.swap_remove(samples.len() / 2)
}

fn render_json(
    timings: &[perf::AppTiming],
    micro: &perf::AppTiming,
    calib: f64,
    repeats: u32,
    iters: u32,
    figures_ms: f64,
    adaptive_ms: f64,
) -> String {
    let total_refs: u64 = timings.iter().map(|t| t.refs).sum();
    let total_cycles: u64 = timings.iter().map(|t| t.sim_cycles).sum();
    let total_ms: f64 = timings.iter().map(|t| t.wall_ms).sum();
    let total_rps = if total_ms > 0.0 {
        total_refs as f64 / (total_ms / 1000.0)
    } else {
        0.0
    };
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str(&format!("  \"schema\": \"{SCHEMA}\",\n"));
    s.push_str("  \"scale\": \"small\",\n");
    s.push_str(&format!(
        "  \"procs\": [{}],\n",
        perf::SWEEP_PROCS.map(|p| p.to_string()).join(", ")
    ));
    s.push_str(&format!(
        "  \"versions\": [{}],\n",
        perf::SWEEP_VERSIONS
            .map(|v| format!("\"{}\"", v.label()))
            .join(", ")
    ));
    s.push_str(&format!("  \"repeats\": {repeats},\n"));
    s.push_str(&format!("  \"iters\": {iters},\n"));
    s.push_str(&format!("  \"figures_small_wall_ms\": {figures_ms:.3},\n"));
    s.push_str(&format!("  \"adaptive_small_wall_ms\": {adaptive_ms:.3},\n"));
    s.push_str("  \"apps\": [\n");
    for (i, t) in timings.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"app\": \"{}\", \"refs\": {}, \"sim_cycles\": {}, \
             \"wall_ms\": {:.3}, \"refs_per_sec\": {:.0}}}{}\n",
            t.app,
            t.refs,
            t.sim_cycles,
            t.wall_ms,
            t.refs_per_sec(),
            if i + 1 < timings.len() { "," } else { "" }
        ));
    }
    s.push_str("  ],\n");
    s.push_str(&format!(
        "  \"machine_micro\": {{\"refs\": {}, \"sim_cycles\": {}, \
         \"wall_ms\": {:.3}, \"refs_per_sec\": {:.0}}},\n",
        micro.refs,
        micro.sim_cycles,
        micro.wall_ms,
        micro.refs_per_sec()
    ));
    s.push_str(&format!(
        "  \"calibration_ops_per_sec\": {calib:.0},\n"
    ));
    s.push_str(&format!(
        "  \"total\": {{\"refs\": {total_refs}, \"sim_cycles\": {total_cycles}, \
         \"wall_ms\": {total_ms:.3}, \"refs_per_sec\": {total_rps:.0}}}\n"
    ));
    s.push_str("}\n");
    s
}

/// Pull the first `"key": <number>` after position `from`. The emitted JSON
/// is flat and key order is fixed, so a scanning extractor is sufficient —
/// no JSON dependency needed offline.
fn extract_number(json: &str, key: &str, from: usize) -> Option<f64> {
    let needle = format!("\"{key}\":");
    let at = json[from..].find(&needle)? + from + needle.len();
    let rest = json[at..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == 'E'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Validate a BENCH json document's schema: required keys present and the
/// `total` block parseable. Returns the total block's (refs, sim_cycles,
/// wall_ms).
fn validate(json: &str, what: &str) -> (f64, f64, f64) {
    for key in [
        "\"schema\"",
        "\"scale\"",
        "\"procs\"",
        "\"versions\"",
        "\"repeats\"",
        "\"apps\"",
        "\"total\"",
        "\"refs_per_sec\"",
    ] {
        assert!(json.contains(key), "{what}: missing required key {key}");
    }
    assert!(
        json.contains(&format!("\"schema\": \"{SCHEMA}\"")),
        "{what}: schema is not {SCHEMA}"
    );
    let total_at = json.find("\"total\"").expect("total key just checked");
    let refs = extract_number(json, "refs", total_at)
        .unwrap_or_else(|| panic!("{what}: total.refs unparseable"));
    let cycles = extract_number(json, "sim_cycles", total_at)
        .unwrap_or_else(|| panic!("{what}: total.sim_cycles unparseable"));
    let wall = extract_number(json, "wall_ms", total_at)
        .unwrap_or_else(|| panic!("{what}: total.wall_ms unparseable"));
    assert!(wall > 0.0, "{what}: total.wall_ms must be positive");
    (refs, cycles, wall)
}

fn check_against_baseline(current: &str, baseline: &str, path: &str) {
    let (cur_refs, cur_cycles, cur_wall) = validate(current, "current run");
    let (base_refs, base_cycles, base_wall) = validate(baseline, path);
    assert!(
        cur_refs == base_refs && cur_cycles == base_cycles,
        "simulated behaviour drifted from {path}: refs {cur_refs} vs {base_refs}, \
         cycles {cur_cycles} vs {base_cycles}; if intentional, regenerate the baseline \
         with scripts/bench.sh"
    );
    assert!(
        cur_wall <= base_wall * MAX_REGRESSION,
        "wall-clock regression: {cur_wall:.1} ms vs baseline {base_wall:.1} ms \
         (> {MAX_REGRESSION}x); investigate or regenerate with scripts/bench.sh"
    );
}

/// Extract the calibrated fast-path ratio (micro refs/sec over the same
/// process's pure-CPU calibration) from a BENCH document.
fn calibrated_ratio(json: &str, what: &str) -> f64 {
    let at = json
        .find("\"machine_micro\"")
        .unwrap_or_else(|| panic!("{what}: missing machine_micro block"));
    let rps = extract_number(json, "refs_per_sec", at)
        .unwrap_or_else(|| panic!("{what}: machine_micro.refs_per_sec unparseable"));
    let calib = extract_number(json, "calibration_ops_per_sec", 0)
        .unwrap_or_else(|| panic!("{what}: calibration_ops_per_sec unparseable"));
    assert!(calib > 0.0, "{what}: calibration must be positive");
    rps / calib
}

/// The ≤5% fast-path budget. Comparing *calibrated* throughput cancels
/// run-level machine speed (frequency scaling, noisy neighbours); the
/// remaining sampling noise is handled by re-measuring up to five times
/// and taking the best observed ratio — a genuine per-reference cost
/// increase fails every attempt, a scheduling hiccup does not.
fn check_fast_path_budget(current: &str, baseline: &str, path: &str) {
    let base = calibrated_ratio(baseline, path);
    let mut best = calibrated_ratio(current, "current run");
    let mut attempts = 0;
    while best * MICRO_MAX_REGRESSION < base && attempts < 5 {
        attempts += 1;
        eprintln!(
            "fast-path ratio {best:.4} below budget vs {base:.4}; re-measuring \
             (attempt {attempts}/5)"
        );
        let (micro, calib) = fast_path_sample();
        best = best.max(micro.refs_per_sec() / calib);
    }
    assert!(
        best * MICRO_MAX_REGRESSION >= base,
        "zero-contention fast path regressed: calibrated machine_micro throughput \
         {best:.4} vs baseline {base:.4} (budget {:.0}%) after {attempts} \
         re-measurements; the legacy path must stay within 5% of the committed \
         baseline",
        (MICRO_MAX_REGRESSION - 1.0) * 100.0
    );
}
