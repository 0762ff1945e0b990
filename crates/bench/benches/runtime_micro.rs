//! Microbenchmarks of the runtime mechanisms themselves:
//!
//! * the per-server task-queue structure's O(1) enqueue/dequeue (Section 5
//!   claims "two modulo operations" placement and constant-time service);
//! * whole-set stealing;
//! * the threaded runtime's spawn/execute throughput, with and without
//!   affinity hints — the overhead a COOL program pays for hint evaluation;
//! * real back-to-back cache reuse: executing a task-affinity set that
//!   shares one buffer back to back vs interleaved with unrelated buffers
//!   (the temporal-reuse argument of Section 4.1 on the host machine).

use criterion::{criterion_group, criterion_main, Criterion};
use std::sync::Arc;

use cool_core::{AffinityKind, AffinitySpec, ObjRef, ServerQueues};
use cool_rt::{RtConfig, RtTask, Runtime, StealPolicy};

fn queue_ops(c: &mut Criterion) {
    let mut g = c.benchmark_group("queue_ops");
    g.bench_function("push_pop_affinity_64slots", |b| {
        let mut q: ServerQueues<u64> = ServerQueues::new(64);
        b.iter(|| {
            for i in 0..64u64 {
                q.push_affinity(ObjRef(i % 8), AffinityKind::Task, i);
            }
            while let Some(t) = q.pop_local() {
                std::hint::black_box(t);
            }
        });
    });
    g.bench_function("push_pop_default", |b| {
        let mut q: ServerQueues<u64> = ServerQueues::new(64);
        b.iter(|| {
            for i in 0..64u64 {
                q.push_default(AffinityKind::None, i);
            }
            while let Some(t) = q.pop_local() {
                std::hint::black_box(t);
            }
        });
    });
    g.bench_function("steal_whole_sets", |b| {
        b.iter(|| {
            let mut q: ServerQueues<u64> = ServerQueues::new(64);
            for i in 0..64u64 {
                q.push_affinity(ObjRef(i % 8), AffinityKind::Task, i);
            }
            while let Some(batch) = q.steal_with(true, true) {
                std::hint::black_box(batch.tasks.len());
            }
        });
    });
    g.finish();
}

fn spawn_throughput(c: &mut Criterion) {
    let mut g = c.benchmark_group("rt_spawn");
    g.sample_size(10);
    for (label, hinted) in [("unhinted", false), ("object_affinity", true)] {
        g.bench_function(label, |b| {
            let rt = Runtime::new(RtConfig::new(4));
            let objs: Vec<ObjRef> = (0..16).map(|i| rt.placement().alloc_on(cool_rt::ProcId(i % 4))).collect();
            b.iter(|| {
                rt.scope(|s| {
                    for i in 0..512usize {
                        let aff = if hinted {
                            AffinitySpec::simple(objs[i % 16])
                        } else {
                            AffinitySpec::none()
                        };
                        s.spawn(
                            RtTask::new(move |_| {
                                std::hint::black_box(i * i);
                            })
                            .with_affinity(aff),
                        );
                    }
                })
                .unwrap();
            });
        });
    }
    g.finish();
}

/// The temporal cache-reuse experiment: N tasks each summing one of K
/// large buffers. With TASK affinity all tasks on the same buffer run back
/// to back on one server (cache-warm); without hints they interleave across
/// buffers and servers.
fn back_to_back_reuse(c: &mut Criterion) {
    let mut g = c.benchmark_group("back_to_back_cache_reuse");
    g.sample_size(10);
    const K: usize = 8; // buffers
    const TASKS_PER: usize = 16;
    const BUF: usize = 1 << 18; // 256 KiB of u64 = 2 MiB per buffer

    let buffers: Arc<Vec<Vec<u64>>> =
        Arc::new((0..K).map(|k| vec![k as u64 + 1; BUF]).collect());

    for (label, hinted) in [("interleaved_unhinted", false), ("task_affinity_sets", true)] {
        let buffers = buffers.clone();
        g.bench_function(label, |b| {
            // One worker: isolates the back-to-back effect from parallelism.
            let rt = Runtime::new(RtConfig::new(1).with_policy(StealPolicy::disabled()));
            b.iter(|| {
                rt.scope(|s| {
                    // Interleave spawn order so only the affinity queues can
                    // restore per-buffer bursts.
                    for t in 0..TASKS_PER {
                        for k in 0..K {
                            let buffers = buffers.clone();
                            let aff = if hinted {
                                AffinitySpec::task(ObjRef(k as u64))
                            } else {
                                AffinitySpec::none()
                            };
                            s.spawn(
                                RtTask::new(move |_| {
                                    let sum: u64 =
                                        buffers[k].iter().copied().sum::<u64>() + t as u64;
                                    std::hint::black_box(sum);
                                })
                                .with_affinity(aff),
                            );
                        }
                    }
                })
                .unwrap();
            });
        });
    }
    g.finish();
}

criterion_group!(benches, queue_ops, spawn_throughput, back_to_back_reuse);
criterion_main!(benches);
