//! The event stream on the threaded backend: the same `Event`
//! vocabulary as the simulator, stamped with wall-clock nanoseconds, with
//! the recording gated so a runtime built without tracing emits nothing.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use cool_core::Event;
use cool_core::{AffinitySpec, ObjRef, ProcId, TaskUid};
use cool_rt::{RtConfig, RtTask, Runtime};

/// A workload that exercises spawning into affinity sets, stealing
/// pressure, mutex contention, and migration.
fn run(rt: &Runtime) -> usize {
    let lock = rt.placement().alloc_on(ProcId(0));
    let moved = rt.placement().alloc_on(ProcId(0));
    let count = Arc::new(AtomicUsize::new(0));
    let c = count.clone();
    rt.scope(move |s| {
        for i in 0..96u64 {
            let c = c.clone();
            s.spawn(
                RtTask::new(move |_| {
                    std::hint::black_box((0..2_000).sum::<u64>());
                    c.fetch_add(1, Ordering::Relaxed);
                })
                .with_label("worker")
                .with_affinity(AffinitySpec::task(ObjRef(0x7000 + (i % 5) * 0x10))),
            );
        }
        for _ in 0..6 {
            let c = c.clone();
            s.spawn(
                RtTask::new(move |_| {
                    std::thread::sleep(std::time::Duration::from_micros(200));
                    c.fetch_add(1, Ordering::Relaxed);
                })
                .with_label("mutexed")
                .with_mutex(lock),
            );
        }
        s.spawn(RtTask::new(move |ctx| {
            ctx.migrate(moved, 1);
        }));
    })
    .unwrap();
    count.load(Ordering::Relaxed)
}

#[test]
fn disabled_tracing_records_nothing() {
    let rt = Runtime::new(RtConfig::new(4));
    assert_eq!(run(&rt), 102);
    let trace = rt.take_obs();
    assert!(trace.events.is_empty());
    assert_eq!(trace.dropped, 0);
}

#[test]
fn trace_agrees_with_scheduler_statistics() {
    let rt = Runtime::new(RtConfig::new(4).with_trace());
    assert_eq!(run(&rt), 102);
    let st = rt.stats();
    let trace = rt.take_obs();
    assert_eq!(trace.dropped, 0, "workload must fit the rings");
    assert!(!trace.events.is_empty());

    let begins = trace
        .events
        .iter()
        .filter(|e| matches!(e, Event::TaskBegin { .. }))
        .count() as u64;
    let ends = trace
        .events
        .iter()
        .filter(|e| matches!(e, Event::TaskEnd { .. }))
        .count() as u64;
    assert_eq!(begins, st.executed);
    assert_eq!(ends, st.executed);

    let stolen: u64 = trace
        .events
        .iter()
        .filter_map(|e| match e {
            Event::StealSuccess { ntasks, .. } => Some(*ntasks as u64),
            _ => None,
        })
        .sum();
    assert_eq!(stolen, st.tasks_stolen);
    let fails = trace
        .events
        .iter()
        .filter(|e| matches!(e, Event::StealFail { .. }))
        .count() as u64;
    assert_eq!(fails, st.failed_steals);
    let waits = trace
        .events
        .iter()
        .filter(|e| matches!(e, Event::MutexWait { .. }))
        .count() as u64;
    assert_eq!(waits, st.mutex_blocks, "one wait event per first block");
    assert!(
        trace
            .events
            .iter()
            .any(|e| matches!(e, Event::Migrate { to, .. } if *to == ProcId(1))),
        "migration must be traced"
    );

    // This backend has no simulated memory system to attribute.
    for ev in &trace.events {
        if let Event::TaskEnd { mem, .. } = ev {
            assert!(mem.is_none());
        }
    }
}

#[test]
fn begin_end_pairs_match_per_task() {
    let rt = Runtime::new(RtConfig::new(4).with_trace());
    run(&rt);
    let trace = rt.take_obs();
    let mut open = std::collections::HashSet::new();
    for ev in &trace.events {
        match ev {
            Event::TaskBegin { task, .. } => {
                assert!(open.insert(*task), "double begin for {task:?}");
            }
            Event::TaskEnd { task, .. } => {
                // Begin and end are emitted from the same worker thread, so
                // they land in one ring in order; the global merge preserves
                // per-ring order.
                assert!(open.remove(task), "end without begin for {task:?}");
            }
            _ => {}
        }
    }
    assert!(open.is_empty(), "unterminated tasks: {open:?}");
}

#[test]
fn task_uids_are_distinct_and_nonzero_across_servers() {
    // Tasks are spawned onto both servers, from the seed and from tasks
    // running on each server, so both servers hand out uids.
    let rt = Runtime::new(RtConfig::new(2).with_trace());
    rt.scope(|s| {
        for i in 0..32 {
            s.spawn(
                RtTask::new(move |ctx| {
                    ctx.spawn(RtTask::new(|_| {}).with_affinity(AffinitySpec::processor(i + 1)));
                })
                .with_affinity(AffinitySpec::processor(i)),
            );
        }
    })
    .unwrap();
    assert!(rt.server_stats().iter().all(|s| s.spawned == 32));
    let mut uids = std::collections::HashSet::new();
    for ev in &rt.take_obs().events {
        if let Event::TaskBegin { task, .. } = ev {
            assert_ne!(*task, TaskUid::ROOT, "a task took the root's uid");
            assert!(uids.insert(*task), "uid {task} handed out twice");
        }
    }
    assert_eq!(uids.len(), 64);
}

#[test]
fn labeled_sets_survive_into_the_trace() {
    let rt = Runtime::new(RtConfig::new(2).with_trace());
    run(&rt);
    let trace = rt.take_obs();
    let mut labels = std::collections::HashSet::new();
    let mut sets = std::collections::HashSet::new();
    for ev in &trace.events {
        if let Event::TaskBegin { label, set, .. } = ev {
            if let Some(l) = label {
                labels.insert(*l);
            }
            if let Some(s) = set {
                sets.insert(*s);
            }
        }
    }
    assert!(labels.contains("worker"));
    assert!(labels.contains("mutexed"));
    assert_eq!(sets.len(), 5, "five distinct task-affinity sets");
}
