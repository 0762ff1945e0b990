//! `cool-repro`: the paper-figure reproduction sweep engine.
//!
//! ```text
//! # full paper matrix (6 apps × version ladders × 1–32 procs), committed
//! # artifacts under results/full/:
//! cargo run --release -p bench --bin repro -- --full --out results/full
//!
//! # the CI smoke gate: race the parallel pool against a serial run,
//! # check against the committed golden within a 2% band:
//! cargo run --release -p bench --bin repro -- --smoke --race-serial \
//!     --out target/repro-smoke --check results/smoke/records.json
//!
//! # a slice of the matrix, host-parallel, memoized:
//! cargo run --release -p bench --bin repro -- --apps gauss,ocean --procs 1,8
//! ```
//!
//! Flags:
//!
//! * `--smoke` — the pinned CI matrix (2 apps × 2 versions × {1, 4}, small
//!   scale); `--full` — the whole matrix at full (paper) scale; `--deep` —
//!   the pinned deep-topology matrix (3 apps × 5 versions × {1, 8, 32, 64}
//!   on the 3-level 64-processor machine); `--adaptive` — the pinned
//!   static-vs-adaptive comparison (3 apps × 5 versions × {1, 8, 32, 64},
//!   same deep machine, adding the feedback-driven versions).
//! * `--apps A,B` / `--versions L1,L2` / `--procs 1,4` /
//!   `--scale small|full|deep` — build a custom slice (1-processor `Base`
//!   baselines are always kept).
//! * `--jobs N` — worker threads (default: one per host CPU).
//! * `--serial` — run through a single pool worker.
//! * `--race-serial` — run the matrix twice, serially then pooled, assert
//!   byte-identical records, and log both wall-clocks.
//! * `--no-cache` / `--cache-dir DIR` — memoization control (default
//!   `target/repro-cache`).
//! * `--out DIR` — write `records.json`, `tables.md`, `tables.tsv`.
//! * `--check FILE [--tolerance 0.02]` — drift-gate against a golden.
//! * `--trace-out BASE` — write the sweep's own Perfetto trace.

use std::process::ExitCode;

use apps::driver::Flags;
use apps::Version;
use bench::repro::{
    self, drift, matrix::parse_version, records_doc, MemoCache, SweepOptions,
};
use bench::Scale;

const USAGE: &str = "usage: repro [--smoke | --full | --deep | --adaptive] \
[--apps A,B] [--versions L1,L2] [--procs 1,4] [--scale small|full|deep] \
[--jobs N] [--serial] [--race-serial] [--no-cache] [--cache-dir DIR] [--out DIR] \
[--check FILE [--tolerance F]] [--trace-out BASE]";

fn main() -> ExitCode {
    let flags = Flags::from_env(
        USAGE,
        &["--smoke", "--full", "--deep", "--adaptive", "--serial", "--race-serial", "--no-cache"],
        &[
            "--apps",
            "--versions",
            "--procs",
            "--scale",
            "--jobs",
            "--cache-dir",
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

    let scale = if has("--full") {
        Scale::Full
    } else if has("--deep") || has("--adaptive") {
        Scale::Deep
    } else {
        scale.unwrap_or(Scale::Small)
    };

    let points = if has("--smoke") {
        repro::smoke_matrix()
    } else if has("--adaptive") {
        repro::adaptive_matrix()
    } else if has("--deep") {
        repro::deep_matrix()
    } else if has("--full") || (apps.is_none() && versions.is_none() && procs.is_none()) {
        repro::full_matrix(scale)
    } else {
        let apps = apps.unwrap_or_else(|| apps::driver::APP_NAMES.to_vec());
        repro::build_matrix(&apps, versions.as_deref(), procs.as_deref(), scale)
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
    let cache = if has("--no-cache") || has("--race-serial") {
        None
    } else {
        let dir = opt("--cache-dir").map_or_else(MemoCache::default_dir, Into::into);
        match MemoCache::open(&dir) {
            Ok(c) => Some(c),
            Err(e) => {
                eprintln!("repro: cannot open cache {}: {e}; running uncached", dir.display());
                None
            }
        }
    };

    let outcome = if has("--race-serial") {
        // Serial reference first, then the pool, both uncached — the
        // wall-clock comparison and the byte-identity check the CI gate
        // relies on.
        let (serial_records, serial_wall) = repro::run_serial(&points);
        let outcome = repro::run_sweep(
            &points,
            &SweepOptions {
                jobs,
                cache: None,
                progress: true,
            },
        );
        if outcome.records != serial_records {
            eprintln!("repro: FAIL — parallel pool records differ from the serial run");
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
        outcome
    } else {
        let outcome = repro::run_sweep(
            &points,
            &SweepOptions {
                jobs,
                cache,
                progress: true,
            },
        );
        eprintln!(
            "repro: swept {} points in {:.2}s with {} workers ({} memoized, {} simulated)",
            outcome.records.len(),
            outcome.wall.as_secs_f64(),
            outcome.workers,
            outcome.cache_hits,
            outcome.cache_misses,
        );
        outcome
    };

    if let Some(dir) = opt("--out") {
        let dir = std::path::PathBuf::from(dir);
        std::fs::create_dir_all(&dir)
            .unwrap_or_else(|e| panic!("repro: cannot create {}: {e}", dir.display()));
        let doc = records_doc(scale_name, &outcome.records);
        let md = repro::markdown_report(&outcome.records, scale_name);
        let tsv = repro::records_tsv(&outcome.records);
        for (name, body) in [("records.json", &doc), ("tables.md", &md), ("tables.tsv", &tsv)] {
            let path = dir.join(name);
            std::fs::write(&path, body)
                .unwrap_or_else(|e| panic!("repro: cannot write {}: {e}", path.display()));
            eprintln!("repro: wrote {}", path.display());
        }
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
