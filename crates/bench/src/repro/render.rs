//! Renderers: matrix records → the paper-figure tables.
//!
//! Two output shapes, both deterministic down to the byte so the committed
//! artifacts under `results/` are regenerable verbatim:
//!
//! * **TSV** — one line per record: speedup, elapsed cycles, misses, the
//!   local fraction, adherence, contention wait and numeric error;
//! * **Markdown** — per application, a speedup table (processor counts ×
//!   version series, Figures 5–16) and a cache-miss breakdown table
//!   (cache / local / remote attribution, Figures 11 & 15), mapped
//!   one-to-one onto the paper's figures.

use std::collections::BTreeSet;

use super::record::ReproRecord;

/// Header of the ten-column figure TSV (`wait` is the contention
/// engine's queue-wait total; 0 in zero-contention sweeps).
pub const TSV_HEADER: &str =
    "figure\tseries\tprocs\tspeedup\telapsed\tmisses\tlocal%\tadherence\twait\tmax_err";

/// Repro records as a TSV table (header + one line per record + trailing
/// newline); the figure column is `app@scale`.
pub fn records_tsv(records: &[ReproRecord]) -> String {
    let mut out = String::from(TSV_HEADER);
    out.push('\n');
    for r in records {
        out.push_str(&format!(
            "{}@{}\t{}\t{}\t{:.3}\t{}\t{}\t{:.1}\t{:.1}\t{}\t{:.2e}\n",
            r.app,
            r.scale,
            r.series,
            r.nprocs,
            r.speedup,
            r.elapsed,
            r.misses(),
            r.local_frac() * 100.0,
            r.adherence * 100.0,
            r.wait_cycles,
            r.max_error
        ));
    }
    out
}

/// The paper exhibit an app's tables map onto.
fn exhibit(app: &str) -> &'static str {
    match app {
        "ocean" => "Figures 5–7",
        "locusroute" => "Figures 10–11",
        "panel_cholesky" => "Figures 14–15",
        "block_cholesky" => "Figure 16 (right)",
        "barnes_hut" => "Figure 16 (left)",
        "gauss" => "Figure 3 example",
        _ => "—",
    }
}

/// The distinct values of `key` over `records`, in first-appearance order
/// (for series, the ladder order the matrix enumerates).
fn distinct(records: &[ReproRecord], key: impl Fn(&ReproRecord) -> &String) -> Vec<String> {
    let mut out: Vec<String> = Vec::new();
    for r in records {
        if !out.contains(key(r)) {
            out.push(key(r).clone());
        }
    }
    out
}

fn find<'a>(
    records: &'a [ReproRecord],
    series: &str,
    nprocs: usize,
) -> Option<&'a ReproRecord> {
    records
        .iter()
        .find(|r| r.series == series && r.nprocs == nprocs)
}

/// One app's speedup table: rows = processor counts, columns = version
/// series; cells are speedup vs the 1-processor `Base` baseline.
pub fn speedup_table_md(app_records: &[ReproRecord]) -> String {
    let series = distinct(app_records, |r| &r.series);
    let procs: BTreeSet<usize> = app_records.iter().map(|r| r.nprocs).collect();
    let mut s = String::from("| procs |");
    for col in &series {
        s.push_str(&format!(" {col} |"));
    }
    s.push_str("\n|---:|");
    s.push_str(&"---:|".repeat(series.len()));
    s.push('\n');
    for &p in &procs {
        s.push_str(&format!("| {p} |"));
        for col in &series {
            match find(app_records, col, p) {
                Some(r) => s.push_str(&format!(" {:.3} |", r.speedup)),
                None => s.push_str(" — |"),
            }
        }
        s.push('\n');
    }
    s
}

/// One app's miss-breakdown table: per (series, procs), total references,
/// the fraction serviced by the caches, and the local/remote split of the
/// misses — the quantities behind the paper's execution-time breakdown
/// bars.
pub fn breakdown_table_md(app_records: &[ReproRecord]) -> String {
    let series = distinct(app_records, |r| &r.series);
    let procs: BTreeSet<usize> = app_records.iter().map(|r| r.nprocs).collect();
    let mut s = String::from(
        "| series | procs | refs | cache% | misses | local% | remote% |\n\
         |---|---:|---:|---:|---:|---:|---:|\n",
    );
    for col in &series {
        for &p in &procs {
            if let Some(r) = find(app_records, col, p) {
                s.push_str(&format!(
                    "| {} | {} | {} | {:.1} | {} | {:.1} | {:.1} |\n",
                    col,
                    p,
                    r.refs,
                    r.cache_frac() * 100.0,
                    r.misses(),
                    r.local_frac() * 100.0,
                    (1.0 - r.local_frac()) * 100.0,
                ));
            }
        }
    }
    s
}

/// The whole record set as one Markdown report: a section per app with its
/// paper-exhibit mapping, speedup table and miss breakdown.
pub fn markdown_report(records: &[ReproRecord], scale: &str) -> String {
    let mut s = format!(
        "# cool-repro sweep tables ({scale} scale)\n\n\
         Generated by `cargo run --release -p bench --bin repro` — do not edit.\n\
         Records: `records.json` (`cool-repro-v1`); speedups are vs the\n\
         1-processor `Base` run of each app.\n"
    );
    for app in distinct(records, |r| &r.app) {
        let app_records: Vec<ReproRecord> = records
            .iter()
            .filter(|r| r.app == app)
            .cloned()
            .collect();
        s.push_str(&format!("\n## {app} — {}\n\n", exhibit(&app)));
        s.push_str("### Speedup\n\n");
        s.push_str(&speedup_table_md(&app_records));
        s.push_str("\n### Memory-reference breakdown\n\n");
        s.push_str(&breakdown_table_md(&app_records));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(app: &str, series: &str, nprocs: usize, speedup: f64) -> ReproRecord {
        ReproRecord {
            app: app.into(),
            series: series.into(),
            nprocs,
            scale: "small".into(),
            config: "c".into(),
            hash: "0".into(),
            speedup,
            elapsed: 100,
            busy: 80,
            idle: 10,
            overhead: 10,
            refs: 1000,
            l1_hits: 800,
            l2_hits: 100,
            local_misses: 60,
            remote_misses: 40,
            invalidations: 0,
            wait_cycles: 0,
            peak_occ: 0,
            adherence: 1.0,
            max_error: 0.0,
        }
    }

    #[test]
    fn speedup_table_has_series_columns_and_proc_rows() {
        let recs = vec![
            rec("gauss", "Base", 1, 1.0),
            rec("gauss", "Base", 4, 2.5),
            rec("gauss", "Affinity+Distr", 4, 3.75),
        ];
        let md = speedup_table_md(&recs);
        assert!(md.starts_with("| procs | Base | Affinity+Distr |"), "{md}");
        assert!(md.contains("| 4 | 2.500 | 3.750 |"), "{md}");
        assert!(md.contains("| 1 | 1.000 | — |"), "missing cell dashed: {md}");
    }

    #[test]
    fn breakdown_percentages_sum() {
        let md = breakdown_table_md(&[rec("gauss", "Base", 4, 1.0)]);
        assert!(md.contains("| Base | 4 | 1000 | 90.0 | 100 | 60.0 | 40.0 |"), "{md}");
    }

    #[test]
    fn markdown_report_sections_per_app() {
        let recs = vec![rec("gauss", "Base", 1, 1.0), rec("ocean", "Base", 1, 1.0)];
        let md = markdown_report(&recs, "small");
        assert!(md.contains("## gauss — Figure 3 example"));
        assert!(md.contains("## ocean — Figures 5–7"));
    }

    #[test]
    fn tsv_matches_legacy_format() {
        let mut r = rec("gauss", "Base", 4, 1.684);
        r.elapsed = 27725918;
        r.local_misses = 1883748;
        r.remote_misses = 0;
        r.adherence = 0.989;
        r.wait_cycles = 512;
        assert_eq!(
            records_tsv(&[r]),
            format!(
                "{TSV_HEADER}\n\
                 gauss@small\tBase\t4\t1.684\t27725918\t1883748\t100.0\t98.9\t512\t0.00e0\n"
            )
        );
    }
}
