//! Print the paper's exhibits that are not sweeps — Table 1, Figure 1, the
//! §1/§8 headline and the design-choice ablations — as TSV on stdout.
//! Figures 3 and 5–16 are sweeps: `repro --apps X --scale full` prints them.
//!
//! ```text
//! cargo run --release -p bench --bin figures                 # every exhibit
//! cargo run --release -p bench --bin figures -- --summary --procs 16
//! cargo run --release -p bench --bin figures -- --small      # quick pass
//! cargo run --release -p bench --bin figures -- --trace-out gauss_obs
//! ```
//!
//! With no exhibit named, every exhibit but the trace is printed. `--small`
//! runs Figure 1 and the headline on the scaled-down machine; the headline
//! runs at the last of `--procs` (default 32, or 8 with `--small`).
//!
//! `--trace-out BASE` runs one app (default `gauss`; pick another of the six
//! with `--trace-app NAME`) at the pinned small scale, on the contended
//! 8-processor machine `results/smoke` uses, with scheduler tracing enabled
//! and writes `BASE.trace.json` — load it in Perfetto or `chrome://tracing`
//! — plus `BASE.metrics.json`, the byte-stable `cool-metrics-v1` summary
//! the CI gate diffs.

use apps::driver::Flags;
use bench::{ablation, machine_table, summary, table1, Scale};

const USAGE: &str = "usage: figures [--all] [--table1] [--machine] [--ablations] [--summary] \
[--small] [--procs 1,4,16] [--trace-out BASE [--trace-app APP]]";

fn main() {
    let flags = Flags::from_env(
        USAGE,
        &[
            "--all",
            "--small",
            "--table1",
            "--machine",
            "--ablations",
            "--summary",
        ],
        &["--procs", "--trace-out", "--trace-app"],
        0,
    );
    let has = |f: &str| flags.has(f);
    let selected = ["--table1", "--machine", "--ablations", "--summary"]
        .into_iter()
        .any(has)
        || flags.value("--trace-out").is_some();
    let all = has("--all") || !selected;
    let scale = if has("--small") {
        Scale::Small
    } else {
        Scale::Full
    };
    let procs = flags.parsed(
        "--procs",
        "a comma list of processor counts in 1..=64",
        apps::driver::proc_list,
    );
    let app = flags.parsed("--trace-app", "an app name", apps::driver::app_name);

    if let Some(base) = flags.value("--trace-out") {
        let app = app.unwrap_or("gauss");
        let version = apps::Version::AffinityDistr;
        let cfg = Scale::Small.config(8, version).with_trace();
        let report = apps::driver::run_app(app, cfg, Scale::Small.app_scale(), version, None);
        let (trace, metrics) = apps::driver::trace_artifacts(&report);
        for (suffix, doc) in [("trace", &trace), ("metrics", &metrics)] {
            let path = format!("{base}.{suffix}.json");
            std::fs::write(&path, doc)
                .unwrap_or_else(|e| panic!("figures: cannot write {path}: {e}"));
            eprintln!("wrote {path}");
        }
    }

    if all || has("--table1") {
        println!("# Table 1: affinity hints and runtime actions");
        for [hint, action] in table1() {
            println!("{hint}\t{action}");
        }
        println!();
    }
    if all || has("--machine") {
        println!("# Figure 1: modelled DASH memory hierarchy");
        for (k, v) in machine_table(scale) {
            println!("{k}\t{v}");
        }
        println!();
    }
    if all || has("--ablations") {
        let p = 16;
        println!("# Ablations (see EXPERIMENTS.md): isolating one mechanism each, {p} procs");
        let mut rows = ablation::contention(p);
        rows.extend(ablation::placement(p));
        rows.extend(ablation::affinity_slots(8));
        rows.extend(ablation::prefetch(p));
        rows.extend(ablation::ordering(p));
        rows.extend(ablation::steal_sets(p));
        rows.extend(ablation::decomposition(p));
        rows.extend(ablation::granularity(p));
        ablation::print_ablation(&rows);
        println!();
    }
    if all || has("--summary") {
        let default = if scale == Scale::Small { 8 } else { 32 };
        let p = procs.and_then(|p| p.last().copied()).unwrap_or(default);
        println!("# Headline (Sections 1/8): improvement of hinted over Base at {p} procs");
        println!("app\timprovement%");
        for (app, gain) in summary(p, scale) {
            println!("{app}\t{:.1}", gain * 100.0);
        }
    }
}
