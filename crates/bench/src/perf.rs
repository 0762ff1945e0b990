//! The pinned reduced-scale sweep behind the golden-run regression test and
//! the recorded perf trajectory (`BENCH_*.json`).
//!
//! Everything here is deliberately frozen: the six applications, two
//! scheduling versions, two processor counts and `Scale::Small` inputs. Each
//! cell is a [`MatrixPoint`] of the reproduction matrix, run through
//! [`MatrixPoint::run`] like every other point. The golden test
//! (`tests/golden_figures.rs`) asserts the full performance-monitor
//! breakdown of this sweep byte-for-byte against a committed TSV, so any
//! change to simulated behaviour — intentional or not — shows up as a diff.
//! The `perfbench` binary times the same sweep in wall-clock terms and emits
//! one point of the perf trajectory (refs/sec, wall-clock per app).

use std::time::Instant;

use apps::driver;
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

/// Wall-clock measurement of one app's slice of the sweep: total simulated
/// references, simulated cycles, and the best-of-`repeats` wall time.
#[derive(Clone, Debug)]
pub struct AppTiming {
    /// Application name (or the name of a micro workload).
    pub app: &'static str,
    /// Total simulated references issued.
    pub refs: u64,
    /// Total simulated cycles.
    pub sim_cycles: u64,
    /// Best-of-repeats wall-clock milliseconds.
    pub wall_ms: f64,
}

impl AppTiming {
    /// Simulated references per wall-clock second.
    pub fn refs_per_sec(&self) -> f64 {
        if self.wall_ms <= 0.0 {
            0.0
        } else {
            self.refs as f64 / (self.wall_ms / 1000.0)
        }
    }
}

/// Time every app's sweep slice. Each timed region runs the slice `iters`
/// times back to back (one slice alone finishes in a few milliseconds —
/// too noisy to gate CI on), and the region is repeated `repeats` times
/// keeping the fastest wall-clock (the least-noise estimator). Reference
/// and cycle counts are asserted identical across iterations — the sweep
/// is deterministic, so any drift is a bug.
pub fn time_sweep(repeats: u32, iters: u32) -> Vec<AppTiming> {
    assert!(repeats >= 1 && iters >= 1);
    let mut out = Vec::new();
    for app in SWEEP_APPS {
        let points = sweep_points(app);
        let mut best_ms = f64::INFINITY;
        let mut counts: Option<(u64, u64)> = None;
        for _ in 0..repeats {
            let t0 = Instant::now();
            for _ in 0..iters {
                let records = repro::run_serial(&points).0;
                let refs: u64 = records.iter().map(|r| r.refs).sum();
                let cycles: u64 = records.iter().map(|r| r.elapsed).sum();
                match counts {
                    None => counts = Some((refs, cycles)),
                    Some(prev) => assert_eq!(
                        prev,
                        (refs, cycles),
                        "sweep of {app} is not deterministic across repeats"
                    ),
                }
            }
            let ms = t0.elapsed().as_secs_f64() * 1000.0;
            best_ms = best_ms.min(ms);
        }
        let (refs_once, sim_cycles) = counts.expect("at least one repeat");
        out.push(AppTiming {
            app,
            refs: refs_once * u64::from(iters),
            sim_cycles,
            wall_ms: best_ms,
        });
    }
    out
}

/// Raw per-reference pipeline throughput: a deterministic mixed stream of
/// reads and writes driven straight into a `dash-sim` machine, bypassing
/// the task scheduler and the apps' native computation. This isolates
/// exactly the code the hot-path work targets — cache probe, directory,
/// classification, monitor — and is the headline number of the perf
/// trajectory. The access mix mirrors the apps: mostly short repeat
/// references to a working set (cache hits), a strided scan (misses and
/// evictions), and occasional writes from a second processor
/// (invalidations).
pub fn machine_micro(repeats: u32) -> AppTiming {
    use cool_core::ProcId;
    use dash_sim::{Machine, MachineConfig};

    assert!(repeats >= 1);
    const STREAM: u64 = 400_000;
    let mut best_ms = f64::INFINITY;
    let mut counts: Option<(u64, u64)> = None;
    for _ in 0..repeats {
        let mut m = Machine::new(MachineConfig::dash_small(32));
        let obj = m.alloc_interleaved(1 << 20);
        let t0 = Instant::now();
        let mut cycles = 0u64;
        let mut x = 0x9e3779b97f4a7c15u64;
        for i in 0..STREAM {
            // xorshift: deterministic, cheap, fixed across runs.
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let p = ProcId((x % 32) as usize);
            let off = match i % 8 {
                // Hot line: repeat hits on the processor's own region.
                0..=4 => (p.index() as u64) * 32 * 1024 + (x % 4) * 8,
                // Strided scan: capacity misses.
                5 | 6 => (i * 272) % ((1 << 20) - 64),
                // Shared line: coherence traffic.
                _ => 512 + (x % 2) * 8,
            };
            let at = obj.offset(off);
            cycles += if i % 5 == 4 {
                m.write_at(p, at, 8, cycles)
            } else {
                m.read_at(p, at, 8, cycles)
            };
        }
        let ms = t0.elapsed().as_secs_f64() * 1000.0;
        let refs = m.monitor().breakdown().refs;
        match counts {
            None => counts = Some((refs, cycles)),
            Some(prev) => assert_eq!(prev, (refs, cycles), "micro stream not deterministic"),
        }
        best_ms = best_ms.min(ms);
    }
    let (refs, sim_cycles) = counts.expect("at least one repeat");
    AppTiming {
        app: "machine_micro",
        refs,
        sim_cycles,
        wall_ms: best_ms,
    }
}

/// Machine-speed calibration: a fixed pure-CPU xorshift reduction, timed
/// best-of-`repeats`, in ops per second. The perf gate divides the
/// `machine_micro` throughput by this before comparing against the
/// baseline's ratio, so run-level machine-state noise (frequency scaling,
/// noisy neighbours) cancels and the fast-path budget can be tight.
pub fn calibration_ops_per_sec(repeats: u32) -> f64 {
    assert!(repeats >= 1);
    const OPS: u64 = 20_000_000;
    let mut best_ms = f64::INFINITY;
    for _ in 0..repeats {
        let t0 = Instant::now();
        let mut x = 0x2545f4914f6cdd1du64;
        let mut acc = 0u64;
        for _ in 0..OPS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            acc = acc.wrapping_add(x);
        }
        std::hint::black_box(acc);
        let ms = t0.elapsed().as_secs_f64() * 1000.0;
        best_ms = best_ms.min(ms);
    }
    OPS as f64 / (best_ms / 1000.0)
}

/// Wall-clock of one serial pass over every app's version ladder at 1, 2,
/// 4 and 8 processors at `Scale::Small`. (Emitted as
/// `figures_small_wall_ms`, its name in every `BENCH_*.json`, so the
/// trajectory stays comparable.)
pub fn figures_small_wall_ms() -> f64 {
    let points = repro::build_matrix(&driver::APP_NAMES, None, Some(&[1, 2, 4, 8]), Scale::Small);
    let (records, wall) = repro::run_serial(&points);
    assert!(!records.is_empty());
    wall.as_secs_f64() * 1000.0
}

/// Wall-clock of one pass over the feedback-driven ladder entries at
/// `Scale::Small`: the adaptive-steal and rebalancer versions of the three
/// deep-table apps at 8 processors. Tracks the cost of carrying the
/// closed-loop layer; emitted as its own JSON key so the static `total`
/// block (and the baseline gate over it) is untouched.
pub fn adaptive_small_wall_ms() -> f64 {
    let versions = [
        Version::AffinityDistrAdaptive,
        Version::AffinityDistrRebalance,
    ];
    let apps = ["gauss", "ocean", "panel_cholesky"];
    let mut points = repro::build_matrix(&apps, Some(&versions), Some(&[8]), Scale::Small);
    points.retain(|p| p.nprocs == 8);
    let (records, wall) = repro::run_serial(&points);
    assert!(records.iter().all(|r| r.refs > 0));
    wall.as_secs_f64() * 1000.0
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
