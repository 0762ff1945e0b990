//! Stress and property tests for the threaded runtime under real
//! concurrency: exactly-once execution, scope correctness, mutex exclusion
//! and policy compliance across randomised task mixes.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use cool_rt::{AffinitySpec, ObjRef, ProcId, RtConfig, RtTask, Runtime, StealPolicy};

/// Deterministic cheap PRNG so the stress mix is reproducible without
/// pulling rand into this crate.
fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

#[test]
fn randomized_mixes_execute_exactly_once() {
    for seed in 1..=5u64 {
        let mut rng = seed * 0x9E37_79B9;
        let threads = 2 + (xorshift(&mut rng) % 7) as usize;
        let rt = Runtime::new(RtConfig::new(threads));
        let objs: Vec<ObjRef> = (0..8)
            .map(|i| rt.placement().alloc_on(ProcId(i % threads)))
            .collect();
        let n = 500;
        let counts: Arc<Vec<AtomicUsize>> =
            Arc::new((0..n).map(|_| AtomicUsize::new(0)).collect());
        let c2 = counts.clone();
        rt.scope(|s| {
            for i in 0..n {
                let counts = c2.clone();
                let r = xorshift(&mut rng);
                let obj = objs[(r % 8) as usize];
                let aff = match r % 5 {
                    0 => AffinitySpec::none(),
                    1 => AffinitySpec::simple(obj),
                    2 => AffinitySpec::task(obj),
                    3 => AffinitySpec::object(obj),
                    _ => AffinitySpec::processor((r % 64) as usize),
                };
                let mut t = RtTask::new(move |_| {
                    counts[i].fetch_add(1, Ordering::SeqCst);
                })
                .with_affinity(aff);
                if r.is_multiple_of(7) {
                    t = t.with_mutex(obj);
                }
                s.spawn(t);
            }
        })
        .unwrap();
        for (i, c) in counts.iter().enumerate() {
            assert_eq!(c.load(Ordering::SeqCst), 1, "seed {seed}: task {i}");
        }
        assert_eq!(rt.stats().executed, n as u64);
    }
}

#[test]
fn deep_nesting_completes() {
    let rt = Runtime::new(RtConfig::new(4));
    let count = Arc::new(AtomicUsize::new(0));

    fn recurse(ctx: &cool_rt::RtCtx<'_>, depth: usize, count: Arc<AtomicUsize>) {
        count.fetch_add(1, Ordering::SeqCst);
        if depth == 0 {
            return;
        }
        for _ in 0..2 {
            let count = count.clone();
            ctx.spawn(RtTask::new(move |c| {
                recurse(c, depth - 1, count);
            }));
        }
    }

    let c2 = count.clone();
    rt.scope(move |s| {
        let c3 = c2.clone();
        s.spawn(RtTask::new(move |c| recurse(c, 8, c3)));
    })
    .unwrap();
    // A complete binary spawn tree of depth 8: 2^9 - 1 nodes.
    assert_eq!(count.load(Ordering::SeqCst), (1 << 9) - 1);
}

#[test]
fn mutexes_on_distinct_objects_do_not_serialize_everything() {
    let rt = Runtime::new(RtConfig::new(4));
    let objs: Vec<ObjRef> = (0..4).map(|i| rt.placement().alloc_on(ProcId(i))).collect();
    let done = Arc::new(AtomicUsize::new(0));
    let d2 = done.clone();
    let start = std::time::Instant::now();
    rt.scope(move |s| {
        for i in 0..64 {
            let done = d2.clone();
            s.spawn(
                RtTask::new(move |_| {
                    std::thread::sleep(std::time::Duration::from_micros(200));
                    done.fetch_add(1, Ordering::SeqCst);
                })
                .with_affinity(AffinitySpec::processor(i % 4))
                .with_mutex(objs[i % 4]),
            );
        }
    })
    .unwrap();
    let wall = start.elapsed();
    assert_eq!(done.load(Ordering::SeqCst), 64);
    // Fully serialised would be ≥ 64 × 200 µs = 12.8 ms; four independent
    // chains should be well under that (allow slack for CI noise).
    assert!(
        wall < std::time::Duration::from_millis(11),
        "chains appear serialised: {wall:?}"
    );
}

#[test]
fn cluster_only_policy_never_crosses_clusters() {
    let mut cfg = RtConfig::new(8);
    cfg.procs_per_cluster = 4;
    cfg.policy = StealPolicy::cluster_only();
    let rt = Runtime::new(cfg);
    let count = Arc::new(AtomicUsize::new(0));
    let c2 = count.clone();
    rt.scope(move |s| {
        for i in 0..256 {
            let count = c2.clone();
            s.spawn(
                RtTask::new(move |_| {
                    std::hint::black_box((0..2000).sum::<u64>());
                    count.fetch_add(1, Ordering::SeqCst);
                })
                .with_affinity(AffinitySpec::processor(i % 2)),
            );
        }
    })
    .unwrap();
    assert_eq!(count.load(Ordering::SeqCst), 256);
    assert_eq!(
        rt.stats().remote_steals,
        0,
        "cluster boundary must be strict"
    );
}

#[test]
fn stats_spawn_and_execute_balance_across_many_scopes() {
    let rt = Runtime::new(RtConfig::new(4));
    for round in 0..20 {
        let n = 10 + round;
        rt.scope(|s| {
            for _ in 0..n {
                s.spawn(RtTask::new(|_| {}));
            }
        })
        .unwrap();
    }
    let st = rt.stats();
    assert_eq!(st.spawned, st.executed);
    assert_eq!(st.spawned, (0..20).map(|r| 10 + r).sum::<u64>());
}

#[test]
fn per_server_spawn_counts_follow_the_target_server() {
    // Every task on server p spawns two children onto each server, mostly
    // other ones, so the spawn is counted away from the spawner. Stealing
    // is off: each server executes exactly what was spawned onto it.
    let n = 4;
    let rt = Runtime::new(RtConfig::new(n).with_policy(StealPolicy::disabled()));
    rt.scope(|s| {
        for p in 0..n {
            s.spawn(
                RtTask::new(move |ctx| {
                    let me = ctx.proc().index();
                    for k in 1..=2 * n {
                        ctx.spawn(
                            RtTask::new(|_| {}).with_affinity(AffinitySpec::processor(me + k)),
                        );
                    }
                })
                .with_affinity(AffinitySpec::processor(p)),
            );
        }
    })
    .unwrap();
    let per = rt.server_stats();
    let spawned: u64 = per.iter().map(|s| s.spawned).sum();
    let executed: u64 = per.iter().map(|s| s.executed).sum();
    assert_eq!(spawned, executed);
    for (i, s) in per.iter().enumerate() {
        assert_eq!(s.spawned, 1 + 2 * n as u64, "server {i}: {s:?}");
        assert_eq!(s.executed, s.spawned, "server {i}: {s:?}");
    }
}

#[test]
fn a_mutex_held_on_one_server_turns_its_object_away_on_another() {
    // Task A (server 0) holds `obj`'s mutex until the seed releases it;
    // the seed releases only after task B (server 1, same object) has been
    // turned away once, so B must run after A, never beside it.
    let rt = Runtime::new(RtConfig::new(2).with_policy(StealPolicy::disabled()));
    let obj = rt.placement().alloc_on(ProcId(0));
    let (inside_tx, inside_rx) = mpsc::channel();
    let (release_tx, release_rx) = mpsc::channel::<()>();
    let a_done = Arc::new(AtomicBool::new(false));
    let b_after_a = Arc::new(AtomicBool::new(false));
    rt.scope(|s| {
        let a_done2 = a_done.clone();
        s.spawn(
            RtTask::new(move |_| {
                inside_tx.send(()).unwrap();
                // Bounded, so a failing test drains instead of hanging.
                let _ = release_rx.recv_timeout(Duration::from_secs(10));
                a_done2.store(true, Ordering::SeqCst);
            })
            .with_mutex(obj)
            .with_affinity(AffinitySpec::processor(0)),
        );
        inside_rx.recv().unwrap();
        let (a_done3, b_after_a2) = (a_done.clone(), b_after_a.clone());
        s.spawn(
            RtTask::new(move |_| {
                b_after_a2.store(a_done3.load(Ordering::SeqCst), Ordering::SeqCst);
            })
            .with_mutex(obj)
            .with_affinity(AffinitySpec::processor(1)),
        );
        let t0 = Instant::now();
        while rt.server_stats()[1].mutex_blocks == 0 && t0.elapsed() < Duration::from_secs(10) {
            std::thread::yield_now();
        }
        release_tx.send(()).unwrap();
    })
    .unwrap();
    assert!(
        b_after_a.load(Ordering::SeqCst),
        "B ran while A held the mutex"
    );
    assert_eq!(rt.server_stats()[1].mutex_blocks, 1);
    assert!(rt.held_mutexes().is_empty());
}

#[test]
fn scopes_from_multiple_host_threads() {
    // The runtime is shared; two host threads run scopes concurrently.
    let rt = Arc::new(Runtime::new(RtConfig::new(4)));
    let total = Arc::new(AtomicUsize::new(0));
    let mut handles = Vec::new();
    for _ in 0..4 {
        let rt = rt.clone();
        let total = total.clone();
        handles.push(std::thread::spawn(move || {
            for _ in 0..10 {
                let t2 = total.clone();
                rt.scope(|s| {
                    for _ in 0..25 {
                        let t3 = t2.clone();
                        s.spawn(RtTask::new(move |_| {
                            t3.fetch_add(1, Ordering::SeqCst);
                        }));
                    }
                })
                .unwrap();
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(total.load(Ordering::SeqCst), 4 * 10 * 25);
}

#[test]
fn drop_idle_runtime_joins_promptly() {
    // Workers parked in their sleep loop must notice shutdown and join;
    // a lost wake notification would hang this test forever.
    let t0 = std::time::Instant::now();
    {
        let rt = Runtime::new(RtConfig::new(8));
        // Let every worker run dry and go to sleep.
        std::thread::sleep(std::time::Duration::from_millis(20));
        drop(rt);
    }
    assert!(
        t0.elapsed() < std::time::Duration::from_secs(5),
        "shutdown took {:?}",
        t0.elapsed()
    );
}

#[test]
fn drop_with_tasks_still_queued_joins_and_discards() {
    // An abandoned (timed-out) scope leaves tasks queued behind a long
    // straggler on the single worker. Dropping the runtime must still join:
    // the worker checks the shutdown flag before dequeuing, and the
    // discarded tasks' scope tickets fire on queue drop rather than being
    // lost.
    let mut cfg = RtConfig::new(1);
    cfg.policy = StealPolicy::disabled();
    let rt = Runtime::new(cfg);
    let ran = Arc::new(AtomicUsize::new(0));
    let r2 = ran.clone();
    let res = rt.scope_with_timeout(std::time::Duration::from_millis(30), move |s| {
        for i in 0..64 {
            let ran = r2.clone();
            s.spawn(RtTask::new(move |_| {
                if i == 0 {
                    // Straggler: pins the lone worker past the timeout.
                    std::thread::sleep(std::time::Duration::from_millis(300));
                }
                ran.fetch_add(1, Ordering::SeqCst);
            }));
        }
    });
    assert!(res.is_err(), "the straggler must outlive the scope timeout");
    let t0 = std::time::Instant::now();
    drop(rt);
    // Join waits for the in-flight straggler but must not drain the queue.
    assert!(
        t0.elapsed() < std::time::Duration::from_secs(5),
        "shutdown took {:?}",
        t0.elapsed()
    );
    let executed = ran.load(Ordering::SeqCst);
    assert!(executed >= 1, "the straggler itself finished");
    assert!(
        executed < 64,
        "queued tasks should be discarded at shutdown, yet all {executed} ran"
    );
}

#[test]
fn runtime_survives_abandoned_scope_and_stays_usable() {
    // After scope_with_timeout gives up, the runtime (and its scope
    // bookkeeping) must stay consistent: the straggler finishes in the
    // background and a fresh scope on the same runtime works normally.
    let mut cfg = RtConfig::new(2);
    cfg.policy = StealPolicy::disabled();
    let rt = Runtime::new(cfg);
    let res = rt.scope_with_timeout(std::time::Duration::from_millis(20), |s| {
        s.spawn(RtTask::new(|_| {
            std::thread::sleep(std::time::Duration::from_millis(120));
        }));
    });
    assert!(matches!(res, Err(cool_rt::ScopeError::Stalled { .. })));
    // Let the abandoned straggler drain so the counts below are stable.
    std::thread::sleep(std::time::Duration::from_millis(200));
    let count = Arc::new(AtomicUsize::new(0));
    let c2 = count.clone();
    rt.scope(move |s| {
        for _ in 0..100 {
            let c = c2.clone();
            s.spawn(RtTask::new(move |_| {
                c.fetch_add(1, Ordering::SeqCst);
            }));
        }
    })
    .unwrap();
    assert_eq!(count.load(Ordering::SeqCst), 100);
    assert_eq!(rt.stats().spawned, rt.stats().executed);
}

#[test]
fn deep_topology_threads_complete_and_bucket_steals_by_level() {
    // 8 threads as SMT pairs inside 4-thread domains: hoard everything on
    // thread 0 so the workers must steal, then check the per-level steal
    // accounting is consistent with the tree.
    let topo = cool_rt::Topology::tree(8, &[2, 4], 1);
    let cfg = RtConfig::new(8).with_topology(topo);
    let rt = Runtime::new(cfg);
    let count = Arc::new(AtomicUsize::new(0));
    let c2 = count.clone();
    rt.scope(move |s| {
        for _ in 0..400 {
            let c = c2.clone();
            s.spawn(
                RtTask::new(move |_| {
                    std::hint::black_box(0u64);
                    c.fetch_add(1, Ordering::SeqCst);
                })
                .with_affinity(AffinitySpec::processor(0)),
            );
        }
    })
    .unwrap();
    assert_eq!(count.load(Ordering::SeqCst), 400);
    let stats = rt.stats();
    assert_eq!(stats.spawned, stats.executed);
    // mem_level is 1, so bucket 2 (the whole machine) holds exactly the
    // cross-cluster steals; buckets past the root stay empty.
    assert_eq!(stats.steals_by_level[2], stats.remote_steals);
    assert_eq!(stats.steals_by_level[3..], [0, 0]);
    let total: u64 = stats.steals_by_level.iter().sum();
    assert_eq!(total > 0, stats.tasks_stolen > 0 || stats.sets_stolen > 0);
}

#[test]
fn cluster_only_policy_respects_deep_tree_boundaries() {
    // cluster_only on the deep tree must never record a steal above the
    // memory level, no matter how starved the far domain is.
    let topo = cool_rt::Topology::tree(8, &[2, 4], 1);
    let mut cfg = RtConfig::new(8).with_topology(topo);
    cfg.policy = StealPolicy::cluster_only();
    let rt = Runtime::new(cfg);
    let count = Arc::new(AtomicUsize::new(0));
    let c2 = count.clone();
    rt.scope(move |s| {
        for _ in 0..300 {
            let c = c2.clone();
            s.spawn(
                RtTask::new(move |_| {
                    c.fetch_add(1, Ordering::SeqCst);
                })
                .with_affinity(AffinitySpec::processor(0)),
            );
        }
    })
    .unwrap();
    assert_eq!(count.load(Ordering::SeqCst), 300);
    let stats = rt.stats();
    assert_eq!(stats.remote_steals, 0, "cluster_only crossed the tree");
    assert_eq!(stats.steals_by_level[2..], [0, 0, 0]);
}
