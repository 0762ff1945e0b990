//! Chaos tests: the threaded runtime under panics, deadlocks and injected
//! stragglers. The contract being exercised is the failure model of
//! DESIGN.md — a panicking task never takes a worker, a scope, or a mutex
//! down with it; a stalled scope produces a diagnostic dump instead of a
//! silent hang; injected faults perturb only the schedule, never the
//! results.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Duration;

use cool_core::Event;
use cool_rt::{
    AffinitySpec, FaultPlan, ProcId, RtConfig, RtTask, Runtime, ScopeError, StealPolicy,
};

#[test]
fn panic_in_task_surfaces_as_scope_error_and_runtime_survives() {
    let rt = Runtime::new(RtConfig::new(4));
    let ran = Arc::new(AtomicUsize::new(0));
    let r2 = ran.clone();
    let res = rt.scope(move |s| {
        for i in 0..100 {
            let ran = r2.clone();
            s.spawn(RtTask::new(move |_| {
                if i == 37 {
                    panic!("task 37 exploded");
                }
                ran.fetch_add(1, Ordering::SeqCst);
            }));
        }
    });
    let Err(ScopeError::Panicked(errs)) = res else {
        panic!("expected Panicked, got {res:?}");
    };
    assert_eq!(errs.len(), 1);
    assert!(errs[0].message.contains("exploded"), "{}", errs[0].message);
    assert_eq!(errs[0].mutex_on, None);
    // Every other task still ran: the panic cost one task, not the scope.
    assert_eq!(ran.load(Ordering::SeqCst), 99);
    assert_eq!(rt.stats().panics, 1);

    // The workers are all still alive and the runtime is reusable.
    let ran2 = Arc::new(AtomicUsize::new(0));
    let r3 = ran2.clone();
    rt.scope(move |s| {
        for _ in 0..200 {
            let ran = r3.clone();
            s.spawn(RtTask::new(move |_| {
                ran.fetch_add(1, Ordering::SeqCst);
            }));
        }
    })
    .unwrap();
    assert_eq!(ran2.load(Ordering::SeqCst), 200);
}

#[test]
fn panic_while_holding_mutex_releases_the_lock() {
    let rt = Runtime::new(RtConfig::new(2));
    let obj = rt.placement().alloc_on(ProcId(0));
    let after = Arc::new(AtomicUsize::new(0));
    let a2 = after.clone();
    let res = rt.scope(move |s| {
        // The first mutex task on `obj` panics while holding it.
        s.spawn(
            RtTask::new(move |_| panic!("died holding the mutex"))
                .with_affinity(AffinitySpec::simple(obj))
                .with_mutex(obj),
        );
        // Eight more mutex tasks on the same object: they can only run if
        // the panicking task's RAII guard released the lock.
        for _ in 0..8 {
            let after = a2.clone();
            s.spawn(
                RtTask::new(move |_| {
                    after.fetch_add(1, Ordering::SeqCst);
                })
                .with_affinity(AffinitySpec::simple(obj))
                .with_mutex(obj),
            );
        }
    });
    let Err(ScopeError::Panicked(errs)) = res else {
        panic!("expected Panicked, got {res:?}");
    };
    assert_eq!(errs.len(), 1);
    assert_eq!(
        errs[0].mutex_on,
        Some(obj),
        "the error must record which mutex the task held"
    );
    assert_eq!(after.load(Ordering::SeqCst), 8);
    assert!(
        rt.held_mutexes().is_empty(),
        "leaked mutexes: {:?}",
        rt.held_mutexes()
    );
}

#[test]
fn multiple_panics_are_all_collected() {
    let rt = Runtime::new(RtConfig::new(4));
    let res = rt.scope(|s| {
        for i in 0..50 {
            s.spawn(RtTask::new(move |_| {
                if i % 10 == 0 {
                    panic!("boom {i}");
                }
            }));
        }
    });
    let Err(ScopeError::Panicked(errs)) = res else {
        panic!("expected Panicked, got {res:?}");
    };
    assert_eq!(errs.len(), 5);
    let display = ScopeError::Panicked(errs).to_string();
    assert!(display.contains("5 task(s) panicked"), "{display}");
    assert_eq!(rt.stats().panics, 5);
}

#[test]
fn panic_in_scope_seed_propagates_after_spawned_tasks_drain() {
    let rt = Runtime::new(RtConfig::new(2));
    let ran = Arc::new(AtomicUsize::new(0));
    let r2 = ran.clone();
    let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let _ = rt.scope(move |s| {
            for _ in 0..20 {
                let ran = r2.clone();
                s.spawn(RtTask::new(move |_| {
                    ran.fetch_add(1, Ordering::SeqCst);
                }));
            }
            panic!("seed panicked after spawning");
        });
    }));
    assert!(caught.is_err(), "the seed panic must reach the caller");
    // The scope drained before re-raising: no task was abandoned mid-air.
    assert_eq!(ran.load(Ordering::SeqCst), 20);
    // And the runtime is still fine.
    rt.scope(|s| s.spawn(RtTask::new(|_| {}))).unwrap();
}

#[test]
fn watchdog_dumps_on_constructed_deadlock() {
    // A genuine dependency cycle: task A holds `obj`'s runtime mutex while
    // spinning on a flag that only the test sets; task B needs `obj`'s
    // mutex, so it rotates forever. No task completes, the scope cannot
    // finish — the watchdog must notice and dump, and scope_with_timeout
    // must give up with the same diagnostics instead of hanging.
    let rt = Runtime::new(
        RtConfig::new(2)
            .with_policy(StealPolicy::disabled())
            .with_stall_timeout(Duration::from_millis(40)),
    );
    let obj = rt.placement().alloc_on(ProcId(0));
    let release = Arc::new(AtomicBool::new(false));
    let rel2 = release.clone();
    let b_ran = Arc::new(AtomicBool::new(false));
    let b2 = b_ran.clone();
    let res = rt.scope_with_timeout(Duration::from_millis(400), move |s| {
        let rel = rel2.clone();
        s.spawn(
            RtTask::new(move |_| {
                while !rel.load(Ordering::SeqCst) {
                    std::thread::sleep(Duration::from_millis(1));
                }
            })
            .with_affinity(AffinitySpec::processor(0))
            .with_mutex(obj),
        );
        s.spawn(
            RtTask::new(move |_| {
                b2.store(true, Ordering::SeqCst);
            })
            .with_affinity(AffinitySpec::processor(1))
            .with_mutex(obj),
        );
    });

    // The scope gave up and handed back a dump describing the stall.
    let Err(ScopeError::Stalled { dump, waited }) = res else {
        panic!("expected Stalled, got {res:?}");
    };
    assert_eq!(waited, Duration::from_millis(400));
    assert_eq!(
        dump.held_mutexes,
        vec![obj],
        "the dump must name the held mutex"
    );
    assert!(
        dump.open_scopes >= 1,
        "the stalled scope was open at dump time"
    );
    let text = dump.to_string();
    assert!(text.contains("held mutexes"), "{text}");
    assert!(text.contains("queue depths"), "{text}");

    // The background watchdog fired too (stall_timeout < scope timeout).
    let dumps = rt.stall_dumps();
    assert!(!dumps.is_empty(), "watchdog produced no dump");
    assert_eq!(dumps[0].held_mutexes, vec![obj]);

    // Break the cycle; the abandoned tasks drain in the background and the
    // runtime shuts down cleanly.
    release.store(true, Ordering::SeqCst);
    let t0 = std::time::Instant::now();
    while !b_ran.load(Ordering::SeqCst) || !rt.held_mutexes().is_empty() {
        assert!(
            t0.elapsed() < Duration::from_secs(5),
            "blocked task never ran / mutex never released after the cycle \
             broke (held: {:?})",
            rt.held_mutexes()
        );
        std::thread::sleep(Duration::from_millis(1));
    }
}

#[test]
fn stall_dump_names_the_in_flight_task_and_its_mutex() {
    // The seed returns only once the holder is inside its body with `obj`
    // locked, so the scope's deadline always expires on that state. The
    // dump must name the holder by the uid the trace gave it.
    let rt = Runtime::new(
        RtConfig::new(2)
            .with_policy(StealPolicy::disabled())
            .with_trace(),
    );
    let obj = rt.placement().alloc_on(ProcId(0));
    let (inside_tx, inside_rx) = mpsc::channel();
    let (release_tx, release_rx) = mpsc::channel::<()>();
    let res = rt.scope_with_timeout(Duration::from_millis(100), |s| {
        s.spawn(
            RtTask::new(move |_| {
                inside_tx.send(()).unwrap();
                let _ = release_rx.recv_timeout(Duration::from_secs(10));
            })
            .with_label("holder")
            .with_mutex(obj)
            .with_affinity(AffinitySpec::processor(1)),
        );
        inside_rx.recv().unwrap();
    });
    release_tx.send(()).unwrap();
    let Err(ScopeError::Stalled { dump, .. }) = res else {
        panic!("expected Stalled, got {res:?}");
    };
    let holder = rt
        .take_obs()
        .events
        .iter()
        .find_map(|e| match e {
            Event::TaskBegin {
                task,
                label: Some("holder"),
                ..
            } => Some(task.0),
            _ => None,
        })
        .expect("the holder's begin is traced");
    assert_eq!(dump.in_flight, vec![holder]);
    assert_eq!(dump.held_mutexes, vec![obj]);
    let text = dump.to_string();
    assert!(text.contains(&format!("#{holder}")), "{text}");
}

#[test]
fn stall_timeout_during_scope_teardown_is_benign() {
    // One long task body outlives the stall interval. The watchdog's
    // liveness signal is "a task completed recently", so it cannot tell the
    // difference and fires while `scope()` is draining. The scope must
    // still complete Ok, the dumps must describe that instant truthfully
    // (scope open, nothing queued, nothing held), and once the scope has
    // closed the quiet runtime must never dump again.
    let rt = Runtime::new(RtConfig::new(2).with_stall_timeout(Duration::from_millis(25)));
    let ran = Arc::new(AtomicUsize::new(0));
    let r2 = ran.clone();
    rt.scope(move |s| {
        let ran = r2.clone();
        s.spawn(RtTask::new(move |_| {
            std::thread::sleep(Duration::from_millis(150));
            ran.fetch_add(1, Ordering::SeqCst);
        }));
    })
    .unwrap();
    assert_eq!(ran.load(Ordering::SeqCst), 1);
    let dumps = rt.stall_dumps();
    assert!(
        !dumps.is_empty(),
        "a task longer than the interval must trip the watchdog"
    );
    for d in &dumps {
        assert_eq!(d.open_scopes, 1, "the dump was taken inside the scope");
        assert_eq!(d.total_queued(), 0, "the long task was running, not queued");
        assert!(d.held_mutexes.is_empty());
        // A dump can race the very completion that ends the scope (that IS
        // the teardown case), so the counter may read 0 or 1 — never more.
        assert!(d.tasks_executed <= 1, "phantom completions in the dump");
    }
    // Scope closed, runtime idle: the watchdog must go silent even though
    // activity stays frozen (no open scope means no stall).
    std::thread::sleep(Duration::from_millis(40));
    let settled = rt.stall_dumps().len();
    std::thread::sleep(Duration::from_millis(100));
    assert_eq!(
        rt.stall_dumps().len(),
        settled,
        "watchdog dumped with no scope open"
    );
}

#[test]
fn fault_plan_events_beyond_the_run_never_fire() {
    // A plan whose last events land after the final task: a failure index
    // past the spawn count and a stall on a dispatch number no server
    // reaches. They must simply never fire — the run completes, only the
    // in-range failure is counted, and a later scope (which advances the
    // same spawn counter) still doesn't reach them.
    let plan = FaultPlan::new(1)
        .fail_task(5) // in range: 12 tasks spawned below
        .fail_task(500) // beyond both scopes combined
        .stall_server(0, 10_000, 50_000); // dispatch #10000 never happens
    let rt = Runtime::with_faults(RtConfig::new(2), plan);
    let ran = Arc::new(AtomicUsize::new(0));
    let r2 = ran.clone();
    rt.scope(move |s| {
        for _ in 0..12 {
            let ran = r2.clone();
            s.spawn(RtTask::new(move |_| {
                ran.fetch_add(1, Ordering::SeqCst);
            }));
        }
    })
    .unwrap();
    assert_eq!(ran.load(Ordering::SeqCst), 12);
    let st = rt.stats();
    assert_eq!(st.executed, 12, "the transient failure re-ran its task");
    assert_eq!(st.injected_faults, 1, "only the in-range event fired");

    // Second scope: spawn indices continue from 12 and still stay below
    // 500; the leftover plan entries remain inert.
    let ran2 = Arc::new(AtomicUsize::new(0));
    let r3 = ran2.clone();
    rt.scope(move |s| {
        for _ in 0..8 {
            let ran = r3.clone();
            s.spawn(RtTask::new(move |_| {
                ran.fetch_add(1, Ordering::SeqCst);
            }));
        }
    })
    .unwrap();
    assert_eq!(ran2.load(Ordering::SeqCst), 8);
    assert_eq!(rt.stats().injected_faults, 1);
    assert_eq!(rt.stats().executed, 20);
}

#[test]
fn stall_dump_with_all_workers_parked_shows_empty_runtime() {
    // A scope that spawns nothing: every worker parks on its condvar while
    // the seed holds the scope open past the stall interval. The dump must
    // describe the parked machine exactly — zero queue depth on every
    // server, no held mutexes, zero executed — not invent phantom work.
    let nthreads = 4;
    let rt = Runtime::new(RtConfig::new(nthreads).with_stall_timeout(Duration::from_millis(20)));
    rt.scope(move |_| {
        std::thread::sleep(Duration::from_millis(120));
    })
    .unwrap();
    let dumps = rt.stall_dumps();
    assert!(
        !dumps.is_empty(),
        "an open, idle scope must trip the watchdog"
    );
    let d = &dumps[0];
    assert_eq!(d.queue_depths, vec![0; nthreads], "all workers were parked");
    assert_eq!(d.total_queued(), 0);
    assert!(d.held_mutexes.is_empty());
    assert_eq!(d.open_scopes, 1);
    assert_eq!(d.tasks_executed, 0);
    assert_eq!(d.stats.spawned, 0);
    let text = d.to_string();
    assert!(text.contains("held mutexes: none"), "{text}");
    assert!(text.contains("0 executed since startup"), "{text}");
}

#[test]
fn injected_straggler_is_absorbed_by_stealing() {
    // Server 0 is made 2 ms slower per dispatch. All work starts on its
    // queue (spawned from the scope seed, which runs as processor 0); the
    // other three servers must steal the bulk of it, keeping the imbalance
    // bounded and the results complete.
    let n = 120u64;
    let plan = FaultPlan::new(7).slow_server(0, 2_000);
    let rt = Runtime::with_faults(RtConfig::new(4), plan);
    let ran = Arc::new(AtomicUsize::new(0));
    let r2 = ran.clone();
    rt.scope(move |s| {
        for _ in 0..n {
            let ran = r2.clone();
            s.spawn(RtTask::new(move |_| {
                std::hint::black_box((0..500).sum::<u64>());
                ran.fetch_add(1, Ordering::SeqCst);
            }));
        }
    })
    .unwrap();
    assert_eq!(ran.load(Ordering::SeqCst), n as usize);
    let per = rt.server_stats();
    let total: u64 = per.iter().map(|s| s.executed).sum();
    assert_eq!(total, n);
    assert!(
        per[0].executed < n / 2,
        "straggler executed {} of {} tasks — stealing failed to absorb it",
        per[0].executed,
        n
    );
    assert!(rt.stats().tasks_stolen > 0);
}

#[test]
fn panics_and_faults_together_still_account_for_every_task() {
    // Transient injected failures AND real panics in one scope: the panics
    // surface in the error, the injected failures stay invisible except in
    // stats, and every non-panicking task runs exactly once.
    let n = 64u64;
    let plan = FaultPlan::new(3).fail_task(5).fail_task(20).fail_task(21);
    let rt = Runtime::with_faults(RtConfig::new(4), plan);
    let counts: Arc<Vec<AtomicUsize>> =
        Arc::new((0..n as usize).map(|_| AtomicUsize::new(0)).collect());
    let c2 = counts.clone();
    let res = rt.scope(move |s| {
        for i in 0..n as usize {
            let counts = c2.clone();
            s.spawn(RtTask::new(move |_| {
                if i == 40 {
                    panic!("real failure");
                }
                counts[i].fetch_add(1, Ordering::SeqCst);
            }));
        }
    });
    let Err(ScopeError::Panicked(errs)) = res else {
        panic!("expected Panicked, got {res:?}");
    };
    assert_eq!(errs.len(), 1);
    for (i, c) in counts.iter().enumerate() {
        let want = usize::from(i != 40);
        assert_eq!(c.load(Ordering::SeqCst), want, "task {i}");
    }
    let st = rt.stats();
    assert_eq!(st.injected_faults, 3);
    assert_eq!(st.panics, 1);
    assert_eq!(st.executed, n);
}

#[test]
fn same_object_mutex_chain_survives_interleaved_panics() {
    // A long serialised chain on one mutex object where every fourth task
    // panics: exclusion must hold throughout (checked with an "inside"
    // flag) and the lock must never leak.
    let rt = Runtime::new(RtConfig::new(4));
    let obj = rt.placement().alloc_on(ProcId(0));
    let inside = Arc::new(AtomicBool::new(false));
    let ok = Arc::new(AtomicUsize::new(0));
    let (i2, o2) = (inside.clone(), ok.clone());
    let res = rt.scope(move |s| {
        for i in 0..40 {
            let (inside, ok) = (i2.clone(), o2.clone());
            s.spawn(
                RtTask::new(move |_| {
                    assert!(
                        !inside.swap(true, Ordering::SeqCst),
                        "mutual exclusion violated"
                    );
                    if i % 4 == 0 {
                        inside.store(false, Ordering::SeqCst);
                        panic!("chain task {i} panicked");
                    }
                    ok.fetch_add(1, Ordering::SeqCst);
                    inside.store(false, Ordering::SeqCst);
                })
                .with_mutex(obj),
            );
        }
    });
    let Err(ScopeError::Panicked(errs)) = res else {
        panic!("expected Panicked, got {res:?}");
    };
    assert_eq!(errs.len(), 10);
    assert!(errs.iter().all(|e| e.mutex_on == Some(obj)));
    assert_eq!(ok.load(Ordering::SeqCst), 30);
    assert!(rt.held_mutexes().is_empty());
    assert_eq!(rt.stats().panics, 10);
}
