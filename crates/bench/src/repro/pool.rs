//! A host-thread work-stealing job pool for the sweep.
//!
//! Matrix points are independent, deterministic, CPU-bound jobs of wildly
//! different lengths (a 1-processor small Gauss run vs a 32-processor full
//! Ocean run differ by orders of magnitude), so the pool uses the same
//! discipline the paper's runtime does: each worker owns a deque seeded
//! round-robin, pops locally from the front, and steals from the *back* of
//! the next non-empty victim when it runs dry. No job creates more jobs, so
//! termination is simply "a full victim scan found nothing".
//!
//! Every point is mirrored onto the `cool-obs` observability stream as a
//! `TaskBegin`/`TaskEnd` pair stamped with host milliseconds and carrying
//! the point's PerfMonitor breakdown as its [`MemDelta`] — which makes the
//! sweep itself exportable as a Perfetto trace and drives the
//! [`ProgressMeter`] ETA lines. Determinism is unaffected by scheduling:
//! results land in a slot array indexed by matrix position, so the output
//! record order is the matrix order regardless of which worker finished
//! what when.

use std::collections::VecDeque;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use cool_core::{Event, EventLog, MemDelta, ProcId, Recorder, Recording, TaskUid};
use cool_obs::ProgressMeter;

use super::cache::MemoCache;
use super::matrix::MatrixPoint;
use super::record::{derive_speedups, ReproRecord};

/// Pool configuration.
#[derive(Debug, Default)]
pub struct SweepOptions {
    /// Worker threads; 0 means one per available host CPU.
    pub jobs: usize,
    /// Memoization cache (`None` disables lookup *and* store).
    pub cache: Option<MemoCache>,
    /// Print progress/ETA lines to stderr as points complete.
    pub progress: bool,
}

/// What a sweep produced.
#[derive(Debug)]
pub struct SweepOutcome {
    /// One record per matrix point, in matrix order, speedups derived.
    pub records: Vec<ReproRecord>,
    /// Wall-clock of the whole sweep.
    pub wall: Duration,
    /// Worker threads actually used.
    pub workers: usize,
    /// Memoization hits (0 when the cache was disabled).
    pub cache_hits: usize,
    /// Points actually simulated.
    pub cache_misses: usize,
    /// The sweep's own trace (one task per point).
    pub trace: EventLog,
}

/// Number of workers for `jobs` requested (0 = auto) and `npoints` jobs.
pub fn effective_workers(jobs: usize, npoints: usize) -> usize {
    let auto = std::thread::available_parallelism().map_or(1, |n| n.get());
    let n = if jobs == 0 { auto } else { jobs };
    n.clamp(1, npoints.max(1))
}

/// Run every point through the pool.
pub fn run_sweep(points: &[MatrixPoint], opts: &SweepOptions) -> SweepOutcome {
    let nworkers = effective_workers(opts.jobs, points.len());
    let queues: Vec<Mutex<VecDeque<usize>>> = (0..nworkers)
        .map(|_| Mutex::new(VecDeque::new()))
        .collect();
    for (i, _) in points.iter().enumerate() {
        queues[i % nworkers].lock().unwrap().push_back(i);
    }
    let results: Mutex<Vec<Option<ReproRecord>>> = Mutex::new(vec![None; points.len()]);
    let recorder = Recorder::new(Recording::Trace, nworkers).expect("tracing is on");
    let meter = Mutex::new(ProgressMeter::new(points.len(), 0, 2_000));
    let epoch = Instant::now();

    std::thread::scope(|scope| {
        for w in 0..nworkers {
            let queues = &queues;
            let results = &results;
            let recorder = &recorder;
            let meter = &meter;
            let cache = opts.cache.as_ref();
            let progress = opts.progress;
            scope.spawn(move || {
                worker_loop(
                    w, points, queues, results, recorder, meter, cache, progress, epoch,
                );
            });
        }
    });

    let wall = epoch.elapsed();
    let mut records: Vec<ReproRecord> = results
        .into_inner()
        .unwrap()
        .into_iter()
        .enumerate()
        .map(|(i, r)| r.unwrap_or_else(|| panic!("point {} never ran", points[i].label())))
        .collect();
    derive_speedups(&mut records);
    let (cache_hits, cache_misses) = match &opts.cache {
        Some(c) => (c.hits(), c.misses()),
        None => (0, points.len()),
    };
    SweepOutcome {
        records,
        wall,
        workers: nworkers,
        cache_hits,
        cache_misses,
        trace: recorder.drain(),
    }
}

/// Run the same points as a plain serial loop with no pool, no cache and no
/// instrumentation — the reference the determinism tests and the CI
/// `--race-serial` wall-clock comparison measure the pool against.
pub fn run_serial(points: &[MatrixPoint]) -> (Vec<ReproRecord>, Duration) {
    let t0 = Instant::now();
    let mut records: Vec<ReproRecord> = points.iter().map(MatrixPoint::run).collect();
    derive_speedups(&mut records);
    (records, t0.elapsed())
}

#[allow(clippy::too_many_arguments)]
fn worker_loop(
    w: usize,
    points: &[MatrixPoint],
    queues: &[Mutex<VecDeque<usize>>],
    results: &Mutex<Vec<Option<ReproRecord>>>,
    recorder: &Recorder,
    meter: &Mutex<ProgressMeter>,
    cache: Option<&MemoCache>,
    progress: bool,
    epoch: Instant,
) {
    let now_ms = |epoch: Instant| epoch.elapsed().as_millis() as u64;
    loop {
        // Local pop from the front; steal from the back of the next
        // non-empty victim. All jobs are seeded up front, so an empty full
        // scan means everything is claimed and this worker can retire.
        let mut job = queues[w].lock().unwrap().pop_front();
        if job.is_none() {
            for k in 1..queues.len() {
                let victim = (w + k) % queues.len();
                job = queues[victim].lock().unwrap().pop_back();
                if job.is_some() {
                    break;
                }
            }
        }
        let Some(idx) = job else { break };
        let point = &points[idx];
        recorder.record(
            w,
            Event::TaskBegin {
                task: TaskUid(idx as u64 + 1),
                label: Some(point.app),
                proc: ProcId(w),
                target: ProcId(w),
                hinted: false,
                set: None,
                object: None,
                object_home: None,
                time: now_ms(epoch),
            },
        );
        let rec = match cache.and_then(|c| c.lookup(point)) {
            Some(hit) => hit,
            None => {
                let rec = point.run();
                if let Some(c) = cache {
                    if let Err(e) = c.store(&rec) {
                        eprintln!("repro: cache store failed for {}: {e}", point.label());
                    }
                }
                rec
            }
        };
        let end = Event::TaskEnd {
            task: TaskUid(idx as u64 + 1),
            proc: ProcId(w),
            mem: Some(MemDelta {
                refs: rec.refs,
                l1_hits: rec.l1_hits,
                l2_hits: rec.l2_hits,
                local_misses: rec.local_misses,
                remote_misses: rec.remote_misses,
            }),
            time: now_ms(epoch),
        };
        recorder.record(w, end.clone());
        if progress {
            if let Some(line) = meter.lock().unwrap().on_event(&end) {
                eprintln!("repro: {line}");
            }
        }
        results.lock().unwrap()[idx] = Some(rec);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::repro::matrix::build_matrix;
    use crate::Scale;

    fn tiny_matrix() -> Vec<MatrixPoint> {
        build_matrix(&["gauss"], None, Some(&[1, 2]), Scale::Small)
    }

    #[test]
    fn pool_matches_serial_in_matrix_order() {
        let points = tiny_matrix();
        let (serial, _) = run_serial(&points);
        let out = run_sweep(
            &points,
            &SweepOptions {
                jobs: 3,
                cache: None,
                progress: false,
            },
        );
        assert_eq!(out.records, serial);
        assert_eq!(out.cache_misses, points.len());
        assert_eq!(out.cache_hits, 0);
    }

    #[test]
    fn sweep_trace_has_one_task_per_point_with_attribution() {
        let points = tiny_matrix();
        let out = run_sweep(
            &points,
            &SweepOptions {
                jobs: 2,
                cache: None,
                progress: false,
            },
        );
        let begins = out
            .trace
            .events
            .iter()
            .filter(|e| matches!(e, Event::TaskBegin { .. }))
            .count();
        let mut mem = MemDelta::default();
        for e in &out.trace.events {
            if let Event::TaskEnd { mem: Some(d), .. } = e {
                mem.accumulate(d);
            }
        }
        assert_eq!(begins, points.len());
        assert_eq!(
            mem.refs,
            out.records.iter().map(|r| r.refs).sum::<u64>(),
            "trace attribution sums to the record totals"
        );
    }

    #[test]
    fn effective_workers_clamps() {
        assert_eq!(effective_workers(5, 2), 2, "never more workers than jobs");
        assert_eq!(effective_workers(3, 100), 3);
        assert!(effective_workers(0, 100) >= 1);
        assert_eq!(effective_workers(0, 0), 1);
    }
}
