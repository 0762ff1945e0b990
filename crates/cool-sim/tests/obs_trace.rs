//! The event stream on the simulator backend: recording must be *pure*
//! (bit-identical simulated cycles in every recording mode), the `Full`
//! stream must contain the `Trace` stream exactly, and the per-task memory
//! deltas must sum exactly to the PerfMonitor aggregates.

use cool_core::{AffinitySpec, Event, EventLog, MemDelta, ObjRef, Recording};
use cool_sim::{MachineConfig, SimConfig, SimRuntime, Task};

/// A workload that exercises every event source: hinted task-affinity sets,
/// unhinted stealable tasks, mutex contention, and real memory traffic.
fn run(cfg: SimConfig) -> (SimRuntime, EventLog) {
    let mut rt = SimRuntime::new(cfg);
    let obj = rt.machine_mut().alloc_interleaved(1 << 14);
    let lock = rt.machine_mut().alloc_on_node(cool_core::NodeId(0), 64);
    rt.reset_monitor();
    rt.run_phase(move |ctx| {
        for i in 0..48u64 {
            let o = obj.offset((i % 16) * 256);
            ctx.spawn(
                Task::new(move |c| {
                    c.read(o, 128);
                    c.compute(400 + i * 13);
                    c.write(o, 32);
                })
                .with_label("worker")
                .with_affinity(AffinitySpec::task(ObjRef(0x9000 + (i % 6) * 0x40))),
            );
        }
        for i in 0..8u64 {
            let o = obj.offset(i * 512);
            ctx.spawn(
                Task::new(move |c| {
                    c.read(o, 64);
                    c.compute(2_000);
                })
                .with_label("mutexed")
                .with_mutex(lock),
            );
        }
    });
    let trace = rt.take_obs();
    (rt, trace)
}

fn cfg(nprocs: usize) -> SimConfig {
    SimConfig::new(MachineConfig::dash_small(nprocs))
}

#[test]
fn tracing_never_changes_simulated_cycles() {
    let (plain, empty) = run(cfg(8));
    assert!(empty.events.is_empty(), "recording off records nothing");
    for recording in [Recording::Trace, Recording::Full] {
        let (traced, trace) = run(SimConfig { recording, ..cfg(8) });
        assert!(!trace.events.is_empty(), "{recording:?} records the run");
        assert_eq!(plain.elapsed(), traced.elapsed(), "{recording:?}: cycles must not drift");
        assert_eq!(plain.stats(), traced.stats(), "{recording:?}");
        assert_eq!(plain.report().mem, traced.report().mem, "{recording:?}");
    }
}

#[test]
fn full_stream_filtered_to_trace_events_is_the_trace_stream() {
    let (_, trace) = run(cfg(8).with_trace());
    let (_, full) = run(cfg(8).with_events());
    assert_eq!(trace.dropped, 0, "workload must fit the rings");
    let filtered: Vec<Event> = full.events.iter().filter(|e| e.is_trace()).cloned().collect();
    assert!(full.events.len() > filtered.len(), "Full adds the analyzer events");
    assert_eq!(filtered, trace.events, "Full is a superset of Trace, event for event");
}

#[test]
fn per_task_mem_deltas_sum_to_monitor_aggregates() {
    let (rt, trace) = run(cfg(8).with_trace());
    assert_eq!(trace.dropped, 0, "workload must fit the rings");
    let mut sum = MemDelta::default();
    let mut ends = 0;
    for ev in &trace.events {
        if let Event::TaskEnd { mem, .. } = ev {
            sum.accumulate(&mem.expect("simulator backend attributes memory"));
            ends += 1;
        }
    }
    assert_eq!(ends as u64, rt.stats().executed, "one end per executed task");
    let agg = rt.report().mem;
    assert_eq!(sum.refs, agg.refs);
    assert_eq!(sum.l1_hits, agg.l1_hits);
    assert_eq!(sum.l2_hits, agg.l2_hits);
    assert_eq!(sum.local_misses, agg.local_misses);
    assert_eq!(sum.remote_misses, agg.remote_misses);
}

#[test]
fn stream_covers_the_event_vocabulary() {
    let (rt, trace) = run(cfg(8).with_trace());
    let has = |f: &dyn Fn(&Event) -> bool| trace.events.iter().any(f);
    assert!(has(&|e| matches!(e, Event::TaskBegin { .. })));
    assert!(has(&|e| matches!(e, Event::TaskEnd { .. })));
    assert!(has(&|e| matches!(e, Event::SlotLink { .. })));
    assert!(has(&|e| matches!(e, Event::SlotDrain { .. })));
    assert!(has(&|e| matches!(e, Event::QueueDepth { .. })));
    if rt.stats().tasks_stolen > 0 {
        assert!(has(&|e| matches!(e, Event::StealSuccess { .. })));
    }
    if rt.stats().mutex_blocks > 0 {
        assert!(has(&|e| matches!(e, Event::MutexWait { .. })));
    }
    // Steal events agree with the scheduler's own statistics.
    let stolen: u64 = trace
        .events
        .iter()
        .filter_map(|e| match e {
            Event::StealSuccess { ntasks, .. } => Some(*ntasks as u64),
            _ => None,
        })
        .sum();
    assert_eq!(stolen, rt.stats().tasks_stolen);
    let fails = trace
        .events
        .iter()
        .filter(|e| matches!(e, Event::StealFail { .. }))
        .count() as u64;
    assert_eq!(fails, rt.stats().failed_steals);
}

#[test]
fn begin_end_pairs_nest_per_task() {
    let (_, trace) = run(cfg(4).with_trace());
    let mut open = std::collections::HashSet::new();
    for ev in &trace.events {
        match ev {
            Event::TaskBegin { task, .. } => {
                assert!(open.insert(*task), "double begin for {task:?}");
            }
            Event::TaskEnd { task, .. } => {
                assert!(open.remove(task), "end without begin for {task:?}");
            }
            _ => {}
        }
    }
    assert!(open.is_empty(), "unterminated tasks: {open:?}");
}
