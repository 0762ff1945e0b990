//! `cool-repro`: the paper-figure reproduction sweep engine.
//!
//! ```text
//! # full paper matrix (6 apps × version ladders × 1–32 procs), committed
//! # artifacts under results/full/:
//! cargo run --release -p bench --bin repro -- --full --out results/full
//!
//! # the CI full gate: race the parallel sweep against a serial run,
//! # check against the committed golden within a 2% band:
//! cargo run --release -p bench --bin repro -- --full --race-serial \
//!     --out target/repro-full --check results/full/records.json
//!
//! # a slice of the matrix, host-parallel, as TSV on stdout:
//! cargo run --release -p bench --bin repro -- --apps gauss,ocean --procs 1,8
//!
//! # one app's paper figure (here Figures 5–7) at full scale:
//! cargo run --release -p bench --bin repro -- --apps ocean --scale full
//! ```
//!
//! Flags:
//!
//! * `--smoke` — the pinned CI matrix (2 apps × 2 versions × {1, 4}, small
//!   scale); `--full` — the whole matrix at full (paper) scale; `--deep` —
//!   the pinned deep-topology matrix (3 apps × 5 versions × {1, 8, 32, 64}
//!   on the 3-level 64-processor machine); `--adaptive` — the pinned
//!   static-vs-adaptive comparison (3 apps × 5 versions × {1, 8, 32, 64},
//!   same deep machine, adding the feedback-driven versions). At most one
//!   of these, and none together with the slice flags below.
//! * `--apps A,B` / `--versions L1,L2` / `--procs 1,4` /
//!   `--scale small|full|deep` — build a custom slice: the given versions
//!   at the given counts, each defaulting to the paper's ladder and counts
//!   for each app (1-processor `Base` baselines are always kept). With none
//!   of them, the whole matrix at small scale.
//! * `--jobs N` — runtime servers, one host thread each (default: one per
//!   host CPU).
//! * `--serial` — run on a single server (not with `--jobs`).
//! * `--race-serial` — run the matrix twice, serially then on the runtime,
//!   assert byte-identical records, and fail unless the runtime is faster
//!   with 2 or more servers.
//! * `--out DIR` — write `records.json`, `tables.md`, `tables.tsv`;
//!   without it the TSV table goes to stdout.
//! * `--check FILE [--tolerance 0.02]` — drift-gate against a golden.
//! * `--trace-out BASE` — write the runtime's trace of the sweep (one
//!   task per point) as a Perfetto trace.
//!
//! Every run simulates every point; nothing is cached between runs.

use std::process::ExitCode;

use apps::driver::Flags;
use apps::Version;
use bench::repro::{self, drift, matrix::parse_version, records_doc};
use bench::Scale;

const USAGE: &str = "usage: repro [--smoke | --full | --deep | --adaptive | \
[--apps A,B] [--versions L1,L2] [--procs 1,4] [--scale small|full|deep]] \
[--jobs N | --serial] [--race-serial] [--out DIR] \
[--check FILE [--tolerance F]] [--trace-out BASE]";

fn main() -> ExitCode {
    let flags = Flags::from_env(
        USAGE,
        &["--smoke", "--full", "--deep", "--adaptive", "--serial", "--race-serial"],
        &[
            "--apps",
            "--versions",
            "--procs",
            "--scale",
            "--jobs",
            "--out",
            "--check",
            "--tolerance",
            "--trace-out",
        ],
        0,
    );
    let has = |f: &str| flags.has(f);
    let opt = |f: &str| flags.value(f).map(str::to_string);
    let tol = flags
        .parsed("--tolerance", "a finite non-negative fraction", repro::parse_tolerance)
        .unwrap_or(0.02);
    let scale = flags.parsed("--scale", "small|full|deep", |v| {
        [Scale::Small, Scale::Full, Scale::Deep].into_iter().find(|s| s.name() == v)
    });
    let apps = flags.parsed("--apps", "a comma list of app names", apps::driver::app_list);
    let versions = flags.parsed("--versions", "a comma list of version labels", |list| {
        list.split(',').map(parse_version).collect::<Option<Vec<Version>>>()
    });
    let procs = flags.parsed(
        "--procs",
        "a comma list of processor counts in 1..=64",
        apps::driver::proc_list,
    );
    let jobs: Option<usize> = flags.parsed("--jobs", "a number", |v| v.parse().ok());
    // A flag the run would ignore is an error, not a no-op.
    if flags.value("--tolerance").is_some() && flags.value("--check").is_none() {
        flags.fail("--tolerance is the --check band and takes effect only with --check");
    }
    if has("--serial") && jobs.is_some() {
        flags.fail("--serial runs one server and takes no --jobs");
    }

    // A preset is a pinned matrix: it takes no second preset and no slice flag.
    let presets: Vec<&str> = ["--smoke", "--full", "--deep", "--adaptive"]
        .into_iter()
        .filter(|f| has(f))
        .collect();
    let filter = ["--apps", "--versions", "--procs", "--scale"]
        .into_iter()
        .find(|f| flags.value(f).is_some());
    let (points, scale) = match (presets.as_slice(), filter) {
        ([a, b, ..], _) => flags.fail(&format!("{a} and {b} select different matrices")),
        ([preset], Some(filter)) => flags.fail(&format!(
            "{preset} is a pinned matrix and takes no {filter}"
        )),
        (["--smoke"], None) => (repro::smoke_matrix(), Scale::Small),
        (["--full"], None) => (repro::full_matrix(Scale::Full), Scale::Full),
        (["--deep"], None) => (repro::deep_matrix(), Scale::Deep),
        ([_adaptive], None) => (repro::adaptive_matrix(), Scale::Deep),
        ([], _) => {
            let scale = scale.unwrap_or(Scale::Small);
            let apps = apps.unwrap_or_else(|| apps::driver::APP_NAMES.to_vec());
            let points = repro::build_matrix(&apps, versions.as_deref(), procs.as_deref(), scale);
            (points, scale)
        }
    };
    let scale_name = scale.app_scale().name();
    eprintln!(
        "repro: {} matrix points at {scale_name} scale",
        points.len()
    );

    let jobs: usize = if has("--serial") {
        1
    } else {
        jobs.unwrap_or(0)
    };
    // The serial reference runs first, so the two sweeps never share the
    // host's CPUs.
    let serial = has("--race-serial").then(|| repro::run_serial(&points));
    let outcome = match repro::run_sweep(&points, jobs, true) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("repro: FAIL — {e}");
            return ExitCode::FAILURE;
        }
    };
    eprintln!(
        "repro: swept {} points in {:.2}s with {} workers",
        outcome.records.len(),
        outcome.wall.as_secs_f64(),
        outcome.workers,
    );
    if let Some((serial_records, serial_wall)) = serial {
        if outcome.records != serial_records {
            eprintln!("repro: FAIL — parallel sweep records differ from the serial run");
            return ExitCode::FAILURE;
        }
        let ratio = serial_wall.as_secs_f64() / outcome.wall.as_secs_f64().max(1e-9);
        eprintln!(
            "repro: race — parallel {:.2}s vs serial {:.2}s ({ratio:.2}x) with {} workers; records byte-identical",
            outcome.wall.as_secs_f64(),
            serial_wall.as_secs_f64(),
            outcome.workers,
        );
        if outcome.workers >= 2 && outcome.wall >= serial_wall {
            eprintln!(
                "repro: FAIL — parallel sweep is not faster than serial despite {} workers",
                outcome.workers
            );
            return ExitCode::FAILURE;
        }
        if outcome.workers < 2 {
            eprintln!("repro: note — single host CPU, wall-clock comparison is informational only");
        }
    }

    let tsv = repro::records_tsv(&outcome.records);
    match opt("--out") {
        Some(dir) => {
            let dir = std::path::PathBuf::from(dir);
            std::fs::create_dir_all(&dir)
                .unwrap_or_else(|e| panic!("repro: cannot create {}: {e}", dir.display()));
            let doc = records_doc(scale_name, &outcome.records);
            let md = repro::markdown_report(&outcome.records, scale_name);
            for (name, body) in [
                ("records.json", &doc),
                ("tables.md", &md),
                ("tables.tsv", &tsv),
            ] {
                let path = dir.join(name);
                std::fs::write(&path, body)
                    .unwrap_or_else(|e| panic!("repro: cannot write {}: {e}", path.display()));
                eprintln!("repro: wrote {}", path.display());
            }
        }
        None => print!("{tsv}"),
    }

    if let Some(base) = opt("--trace-out") {
        let path = format!("{base}.trace.json");
        std::fs::write(&path, cool_obs::chrome_trace_json(&outcome.trace.events))
            .unwrap_or_else(|e| panic!("repro: cannot write {path}: {e}"));
        eprintln!("repro: wrote {path} (sweep trace, {} events)", outcome.trace.events.len());
    }

    if let Some(golden_path) = opt("--check") {
        let text = std::fs::read_to_string(&golden_path)
            .unwrap_or_else(|e| panic!("repro: cannot read golden {golden_path}: {e}"));
        let golden = repro::parse_records_doc(&text)
            .unwrap_or_else(|e| panic!("repro: golden {golden_path} unparseable: {e}"));
        let problems = drift(&outcome.records, &golden, tol);
        if problems.is_empty() {
            eprintln!(
                "repro: drift gate OK — {} points within {:.1}% of {golden_path}",
                golden.len(),
                tol * 100.0
            );
        } else {
            eprintln!("repro: FAIL — drift against {golden_path}:");
            for p in &problems {
                eprintln!("  {p}");
            }
            return ExitCode::FAILURE;
        }
    }

    ExitCode::SUCCESS
}
