//! The sweep runs its matrix points as tasks on the threaded COOL runtime.
//!
//! Matrix points are independent, deterministic, CPU-bound jobs of wildly
//! different lengths (a 1-processor small Gauss run vs a 32-processor full
//! Ocean run differ by orders of magnitude). [`cool_rt::Runtime`] already
//! schedules such work the way the paper's runtime does: point `i` is
//! spawned with PROCESSOR affinity `i`, so each server's default queue is
//! seeded round-robin, popped from the front locally and stolen from the
//! back when its server runs dry.
//!
//! Each finished point is sent back to the calling thread, which folds it
//! into the [`ProgressMeter`] ETA lines and into a slot array indexed by
//! matrix position, so the records come out in matrix order whichever
//! server ran what. The runtime records its own trace, one task per point
//! labelled with the point's app, which `repro --trace-out` exports as a
//! Perfetto trace.

use std::sync::mpsc;
use std::time::{Duration, Instant};

use cool_core::EventLog;
use cool_obs::ProgressMeter;
use cool_rt::{AffinitySpec, RtConfig, RtTask, Runtime, ScopeError};

use super::matrix::MatrixPoint;
use super::record::{derive_speedups, ReproRecord};

/// What a sweep produced.
#[derive(Debug)]
pub struct SweepOutcome {
    /// One record per matrix point, in matrix order, speedups derived.
    pub records: Vec<ReproRecord>,
    /// Wall-clock of the whole sweep.
    pub wall: Duration,
    /// Runtime servers (host worker threads) actually used.
    pub workers: usize,
    /// The runtime's trace of the sweep (one task per point).
    pub trace: EventLog,
}

/// Number of workers for `jobs` requested (0 = auto) and `npoints` jobs.
pub fn effective_workers(jobs: usize, npoints: usize) -> usize {
    let auto = std::thread::available_parallelism().map_or(1, |n| n.get());
    let n = if jobs == 0 { auto } else { jobs };
    n.clamp(1, npoints.max(1))
}

/// Run every point as a task on a runtime with one server per worker
/// (`jobs` of them; 0 means one per host CPU), printing progress lines to
/// stderr when `progress` is set. A point that panics fails the sweep with
/// its panic message.
pub fn run_sweep(
    points: &[MatrixPoint],
    jobs: usize,
    progress: bool,
) -> Result<SweepOutcome, ScopeError> {
    let workers = effective_workers(jobs, points.len());
    let epoch = Instant::now();
    let rt = Runtime::new(RtConfig::new(workers).with_trace());
    let mut meter = progress.then(|| ProgressMeter::new(points.len(), 0, 2_000));
    let mut slots: Vec<Option<ReproRecord>> = vec![None; points.len()];
    let (tx, rx) = mpsc::channel();
    rt.scope(|s| {
        for (i, &point) in points.iter().enumerate() {
            let tx = tx.clone();
            s.spawn(
                RtTask::new(move |_| {
                    tx.send((i, point.run()))
                        .expect("the sweep outlives its points");
                })
                .with_affinity(AffinitySpec::processor(i))
                .with_label(point.app),
            );
        }
        // Once every point has sent or panicked, no sender is left and
        // the loop ends.
        drop(tx);
        for (i, rec) in rx {
            slots[i] = Some(rec);
            let now_ms = epoch.elapsed().as_millis() as u64;
            if let Some(line) = meter.as_mut().and_then(|m| m.finish(now_ms)) {
                eprintln!("repro: {line}");
            }
        }
    })?;
    let wall = epoch.elapsed();
    let mut records: Vec<ReproRecord> = slots
        .into_iter()
        .map(|r| r.expect("a clean scope ran every point"))
        .collect();
    derive_speedups(&mut records);
    Ok(SweepOutcome {
        records,
        wall,
        workers,
        trace: rt.take_obs(),
    })
}

/// Run the same points as a plain serial loop with no runtime and no
/// instrumentation — the reference the determinism tests and the CI
/// `--race-serial` wall-clock comparison measure the sweep against.
pub fn run_serial(points: &[MatrixPoint]) -> (Vec<ReproRecord>, Duration) {
    let t0 = Instant::now();
    let mut records: Vec<ReproRecord> = points.iter().map(MatrixPoint::run).collect();
    derive_speedups(&mut records);
    (records, t0.elapsed())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::repro::matrix::build_matrix;
    use crate::Scale;
    use cool_core::Event;

    fn tiny_matrix() -> Vec<MatrixPoint> {
        build_matrix(&["gauss"], None, Some(&[1, 2]), Scale::Small)
    }

    #[test]
    fn pool_matches_serial_in_matrix_order() {
        let points = tiny_matrix();
        let (serial, _) = run_serial(&points);
        let out = run_sweep(&points, 3, false).expect("clean sweep");
        assert_eq!(out.records, serial);
        assert_eq!(out.workers, 3);
    }

    #[test]
    fn sweep_trace_has_one_task_per_point_with_attribution() {
        let mut points = tiny_matrix();
        points.extend(build_matrix(&["ocean"], None, Some(&[2]), Scale::Small));
        let out = run_sweep(&points, 2, false).expect("clean sweep");
        let mut labels: Vec<&str> = out
            .trace
            .events
            .iter()
            .filter_map(|e| match e {
                Event::TaskBegin { label, .. } => Some(label.expect("every point is labelled")),
                _ => None,
            })
            .collect();
        let mut apps: Vec<&str> = points.iter().map(|p| p.app).collect();
        labels.sort_unstable();
        apps.sort_unstable();
        assert_eq!(labels, apps, "one task per point, labelled with its app");
    }

    #[test]
    fn a_panicking_point_fails_the_sweep_with_its_message() {
        let mut points = tiny_matrix();
        points.insert(
            1,
            MatrixPoint {
                app: "bogus",
                ..points[0]
            },
        );
        let err = run_sweep(&points, 2, false).expect_err("the bogus point panics");
        let msg = err.to_string();
        assert!(msg.starts_with("1 task(s) panicked"), "{msg}");
        assert!(msg.contains("unknown app \"bogus\""), "{msg}");
    }

    #[test]
    fn effective_workers_clamps() {
        assert_eq!(effective_workers(5, 2), 2, "never more workers than jobs");
        assert_eq!(effective_workers(3, 100), 3);
        assert!(effective_workers(0, 100) >= 1);
        assert_eq!(effective_workers(0, 0), 1);
    }
}
