//! The pinned reduced-scale sweep behind the golden-run regression test.
//!
//! Everything here is deliberately frozen: the six applications, two
//! scheduling versions, two processor counts and `Scale::Small` inputs. Each
//! cell is a [`MatrixPoint`] of the reproduction matrix, run through
//! [`MatrixPoint::run`] like every other point. The golden test
//! (`tests/golden_figures.rs`) asserts the full performance-monitor
//! breakdown of this sweep byte-for-byte against a committed TSV, so any
//! change to simulated behaviour — intentional or not — shows up as a diff.
//! Nothing here measures time; the benchmark (`ledger/`) does.

use apps::Version;

use crate::repro::{self, MatrixPoint, ReproRecord};
use crate::Scale;

/// Processor counts of the pinned sweep.
pub const SWEEP_PROCS: [usize; 2] = [4, 32];

/// Scheduling versions of the pinned sweep (the two extremes of the paper's
/// ladder: no hints at all, and affinity hints plus object distribution).
pub const SWEEP_VERSIONS: [Version; 2] = [Version::Base, Version::AffinityDistr];

/// Application names of the pinned sweep, in fixed order.
pub const SWEEP_APPS: [&str; 6] = [
    "ocean",
    "locusroute",
    "panel_cholesky",
    "block_cholesky",
    "barnes_hut",
    "gauss",
];

/// One application's slice of the sweep: both versions at both counts, in
/// golden order.
fn sweep_points(app: &'static str) -> Vec<MatrixPoint> {
    let mut points = repro::build_matrix(
        &[app],
        Some(&SWEEP_VERSIONS),
        Some(&SWEEP_PROCS),
        Scale::Small,
    );
    // The sweep reports no speedups, so it leaves out the 1-processor
    // baseline every matrix carries.
    points.retain(|p| SWEEP_PROCS.contains(&p.nprocs));
    points
}

/// Run the full pinned sweep: all six apps, both versions, both counts, one
/// record per cell in golden order.
pub fn run_sweep() -> Vec<ReproRecord> {
    let points: Vec<MatrixPoint> = SWEEP_APPS.into_iter().flat_map(sweep_points).collect();
    repro::run_serial(&points).0
}

/// TSV header of the golden file.
pub const GOLDEN_HEADER: &str = "app\tseries\tprocs\trefs\tl1_hits\tl2_hits\tlocal_misses\t\
remote_misses\tinvalidations\telapsed\tbusy\tidle\toverhead\twait\tmax_err";

/// One cell's record as a golden TSV row: the full monitor breakdown plus
/// virtual cycles, formatted with no floating-point beyond the
/// numeric-error column.
pub fn golden_row(r: &ReproRecord) -> String {
    format!(
        "{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{:.3e}",
        r.app,
        r.series,
        r.nprocs,
        r.refs,
        r.l1_hits,
        r.l2_hits,
        r.local_misses,
        r.remote_misses,
        r.invalidations,
        r.elapsed,
        r.busy,
        r.idle,
        r.overhead,
        r.wait_cycles,
        r.max_error,
    )
}

/// The whole sweep as the golden TSV (header + one row per cell + newline).
pub fn golden_tsv(records: &[ReproRecord]) -> String {
    let mut out = String::from(GOLDEN_HEADER);
    out.push('\n');
    for r in records {
        out.push_str(&golden_row(r));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_covers_all_apps_versions_and_counts() {
        // One cheap cell per app suffices to prove every app runs; the full
        // sweep runs in the golden test.
        for app in SWEEP_APPS {
            let points = sweep_points(app);
            assert_eq!(points.len(), SWEEP_VERSIONS.len() * SWEEP_PROCS.len());
            let r = points[0].run();
            assert_eq!((r.series.as_str(), r.nprocs), ("Base", 4));
            assert!(r.refs > 0, "{app} issued no references");
            assert!(r.max_error < 1e-6, "{app} numerically wrong");
        }
        assert_eq!(SWEEP_APPS.len(), 6);
        assert_eq!(SWEEP_VERSIONS.len(), 2);
        assert_eq!(SWEEP_PROCS.len(), 2);
    }

    #[test]
    fn golden_rows_are_stable_format() {
        let tsv = golden_tsv(&repro::run_serial(&sweep_points("gauss")).0);
        let mut lines = tsv.lines();
        assert_eq!(lines.next(), Some(GOLDEN_HEADER));
        let first = lines.next().expect("at least one row");
        assert!(first.starts_with("gauss\tBase\t4\t"), "{first}");
        // 15 tab-separated columns.
        assert_eq!(first.split('\t').count(), 15);
    }
}
