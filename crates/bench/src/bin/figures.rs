//! Regenerate the paper's tables and figures as TSV on stdout.
//!
//! ```text
//! cargo run --release -p bench --bin figures -- --all
//! cargo run --release -p bench --bin figures -- --ocean --panel
//! cargo run --release -p bench --bin figures -- --summary --procs 16
//! cargo run --release -p bench --bin figures -- --all --small   # quick pass
//! cargo run --release -p bench --bin figures -- --trace-out gauss_obs
//! ```
//!
//! `--trace-out BASE` runs one app (default `gauss`; pick another of the six
//! with `--trace-app NAME`) at the pinned fast scale, on the contended
//! 8-processor machine `results/smoke` uses, with scheduler tracing enabled
//! and writes `BASE.trace.json` — load it in Perfetto or `chrome://tracing`
//! — plus `BASE.metrics.json`, the byte-stable `cool-metrics-v1` summary
//! the CI gate diffs.

use apps::driver::Flags;
use bench::ablation;
use bench::{
    fig_barnes_hut, fig_block_cholesky, fig_gauss, fig_locusroute, fig_ocean,
    fig_panel_cholesky, machine_table, print_rows, summary, table1, Scale,
};

const USAGE: &str = "usage: figures [--all] [--table1] [--machine] [--gauss] [--ocean] \
[--locusroute] [--panel] [--block] [--barnes] [--ablations] [--summary] [--small] \
[--procs 1,4,16] [--trace-out BASE [--trace-app APP]]";

fn main() {
    let flags = Flags::from_env(
        USAGE,
        &[
            "--all",
            "--small",
            "--table1",
            "--machine",
            "--gauss",
            "--ocean",
            "--locusroute",
            "--panel",
            "--block",
            "--barnes",
            "--ablations",
            "--summary",
        ],
        &["--procs", "--trace-out", "--trace-app"],
        0,
    );
    let has = |f: &str| flags.has(f);
    let all = has("--all") || std::env::args().len() == 1;
    let scale = if has("--small") {
        Scale::Small
    } else {
        Scale::Full
    };
    let procs = flags
        .parsed(
            "--procs",
            "a comma list of processor counts in 1..=64",
            apps::driver::proc_list,
        )
        .unwrap_or_else(|| scale.default_procs());
    let app = flags.parsed("--trace-app", "an app name", apps::driver::app_name);

    if let Some(base) = flags.value("--trace-out") {
        let app = app.unwrap_or("gauss");
        let version = apps::Version::AffinityDistr;
        let cfg = Scale::Small.config(8, version).with_trace();
        let report = apps::driver::run_app(app, cfg, version, None);
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
    if all || has("--gauss") {
        println!("# Figure 3 example: column Gaussian elimination (TASK+OBJECT affinity)");
        print_rows(&fig_gauss(&procs, scale));
        println!();
    }
    if all || has("--ocean") {
        println!("# Figures 5-7: Ocean");
        print_rows(&fig_ocean(&procs, scale));
        println!();
    }
    if all || has("--locusroute") {
        println!("# Figures 10-11: LocusRoute");
        print_rows(&fig_locusroute(&procs, scale));
        println!();
    }
    if all || has("--panel") {
        println!("# Figures 14-15: Panel Cholesky");
        print_rows(&fig_panel_cholesky(&procs, scale));
        println!();
    }
    if all || has("--block") {
        println!("# Figure 16 (right): Block Cholesky");
        print_rows(&fig_block_cholesky(&procs, scale));
        println!();
    }
    if all || has("--barnes") {
        println!("# Figure 16 (left): Barnes-Hut");
        print_rows(&fig_barnes_hut(&procs, scale));
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
        let p = *procs.last().unwrap_or(&16);
        println!("# Headline (Sections 1/8): improvement of hinted over Base at {p} procs");
        println!("app\timprovement%");
        for (app, gain) in summary(p, scale) {
            println!("{app}\t{:.1}", gain * 100.0);
        }
    }
}
