//! Integration tests for the prefetch and trace extensions of the simulated
//! runtime.

use std::collections::HashMap;

use cool_core::{AffinitySpec, Event, NodeId, ProcId, StealPolicy};
use cool_sim::{MachineConfig, SimConfig, SimRuntime, Task};

/// One executed task, paired from its begin/end events.
#[derive(Debug, PartialEq)]
struct Interval {
    proc: ProcId,
    label: &'static str,
    start: u64,
    end: u64,
}

/// Pair the recorded stream's task begin/end events into intervals, in
/// completion order.
fn intervals(rt: &mut SimRuntime) -> Vec<Interval> {
    let mut open = HashMap::new();
    let mut out = Vec::new();
    for ev in rt.take_obs().events {
        match ev {
            Event::TaskBegin {
                task,
                label,
                proc,
                time,
                ..
            } => {
                open.insert(task, (proc, label.unwrap_or("task"), time));
            }
            Event::TaskEnd { task, time, .. } => {
                let (proc, label, start) = open.remove(&task).expect("end follows begin");
                out.push(Interval {
                    proc,
                    label,
                    start,
                    end: time,
                });
            }
            _ => {}
        }
    }
    out
}

fn quiet_config(nprocs: usize) -> SimConfig {
    SimConfig::new(MachineConfig::dash_small(nprocs)).with_policy(StealPolicy::disabled())
}

#[test]
fn prefetch_turns_remote_misses_into_hits() {
    // A task on cluster 0 reads an object homed on cluster 1. Without
    // prefetch, every line misses remotely; with prefetch, the fills are
    // issued ahead (cheap) and the reads hit.
    let run = |prefetch: bool| {
        let mut rt = SimRuntime::new(quiet_config(8));
        let obj = rt.machine_mut().alloc_on_node(NodeId(1), 4096);
        rt.reset_monitor();
        rt.run_phase(move |ctx| {
            let mut t = Task::new(move |c| {
                c.read(obj, 4096);
                c.compute(100);
            })
            .with_affinity(AffinitySpec::processor(0));
            if prefetch {
                t = t.with_prefetch(vec![(obj, 4096)]);
            }
            ctx.spawn(t);
        });
        rt.report()
    };
    let without = run(false);
    let with = run(true);
    assert!(
        with.elapsed < without.elapsed / 2,
        "prefetch should hide most of the remote latency: {} vs {}",
        with.elapsed,
        without.elapsed
    );
    // The touched lines are hits after prefetching.
    assert!(with.mem.l1_hits > 200, "{:?}", with.mem);
    assert!(without.mem.remote_misses > 200, "{:?}", without.mem);
}

#[test]
fn prefetch_preserves_results_and_task_accounting() {
    let mut rt = SimRuntime::new(quiet_config(4));
    let obj = rt.machine_mut().alloc_on_node(NodeId(0), 1024);
    let hits = std::rc::Rc::new(std::cell::Cell::new(0u32));
    let h = hits.clone();
    rt.run_phase(move |ctx| {
        for i in 0..8 {
            let h = h.clone();
            ctx.spawn(
                Task::new(move |c| {
                    c.read(obj, 1024);
                    h.set(h.get() + 1);
                })
                .with_affinity(AffinitySpec::processor(i))
                .with_prefetch(vec![(obj, 1024)]),
            );
        }
    });
    assert_eq!(hits.get(), 8);
    assert_eq!(rt.stats().executed, 9); // seed + 8
}

#[test]
fn trace_shows_back_to_back_set_service() {
    let mut rt = SimRuntime::new(quiet_config(2).with_trace());
    let tok1 = cool_core::ObjRef(0x40);
    // Pick a second token that does not collide with tok1 in a 64-slot
    // affinity array (collisions legitimately interleave sets).
    let slot = |t: cool_core::ObjRef| cool_core::affinity::hash_token(t) % 64;
    let tok2 = (1u64..)
        .map(|i| cool_core::ObjRef(0x4000 + i * 64))
        .find(|&t| slot(t) != slot(tok1))
        .unwrap();
    rt.run_phase(move |ctx| {
        // Interleave two sets; the affinity queues must serve each set as a
        // contiguous burst per server.
        for _ in 0..4 {
            ctx.spawn(
                Task::new(|c| c.compute(100))
                    .with_label("S1")
                    .with_affinity(AffinitySpec::task(tok1)),
            );
            ctx.spawn(
                Task::new(|c| c.compute(100))
                    .with_label("S2")
                    .with_affinity(AffinitySpec::task(tok2)),
            );
        }
    });
    // Per server, the sequence of labels (ignoring the seed) must be
    // grouped: all of one set, then all of the other.
    let trace = intervals(&mut rt);
    for p in 0..2 {
        let labels: Vec<&str> = trace
            .iter()
            .filter(|e| e.proc.index() == p && e.label != "task" && e.label != "phase-seed")
            .map(|e| e.label)
            .collect();
        if labels.is_empty() {
            continue;
        }
        let switches = labels.windows(2).filter(|w| w[0] != w[1]).count();
        assert!(
            switches <= 1,
            "P{p} interleaved sets: {labels:?} ({switches} switches)"
        );
    }
}

#[test]
fn trace_is_deterministic() {
    let run = || {
        let mut rt = SimRuntime::new(SimConfig::new(MachineConfig::dash_small(4)).with_trace());
        let obj = rt.machine_mut().alloc_interleaved(8192);
        rt.run_phase(move |ctx| {
            for i in 0..20u64 {
                ctx.spawn(
                    Task::new(move |c| {
                        c.read(obj.offset(i * 256), 256);
                        c.compute(50 * (i % 5));
                    })
                    .with_affinity(AffinitySpec::task(obj.offset((i % 3) * 256))),
                );
            }
        });
        rt.take_obs().events
    };
    // Whole streams: besides each task's interval this compares its target
    // server (on-target or not), hint, set, memory delta and every steal.
    let first = run();
    let begins = first
        .iter()
        .filter(|e| matches!(e, Event::TaskBegin { .. }))
        .count();
    assert_eq!(begins, 21, "seed + 20 tasks recorded");
    assert_eq!(first, run());
}
