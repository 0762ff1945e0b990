//! Seeded-defect and end-to-end tests for the analyzer.
//!
//! Each seeded test injects one deliberate defect into a tiny simulated
//! program — a write-write race, a lock-order cycle, a useless prefetch, a
//! migration ping-pong, a stale object hint — and asserts the corresponding
//! pass reports it (and nothing else). Where a canonical fix exists the test
//! also applies it and asserts the finding disappears, guarding against the
//! detector keying on the wrong edge.
//!
//! The end-to-end test runs all six case-study apps under every scheduling
//! version plus a fault-injected schedule and asserts the full matrix is
//! clean; the proptest generates random correctly-synchronised fork-join
//! DAGs and asserts no false positives.

use cool_analyze::{analyze_all, analyze_events, analyze_locks, detect_races, run_lints, LintKind};
use cool_sim::{AffinitySpec, MachineConfig, SimConfig, SimRuntime, Task, Topology};
use proptest::prelude::*;

/// A small flat machine (one processor per cluster, so every processor has
/// its own memory node and migration visibly changes an object's home).
fn flat_rt(nprocs: usize) -> SimRuntime {
    let m = MachineConfig {
        topology: Topology::flat(nprocs),
        ..MachineConfig::dash_small(nprocs)
    };
    SimRuntime::new(SimConfig::new(m).with_events())
}

#[test]
fn seeded_write_write_race_is_detected_and_mutex_fixes_it() {
    let run = |with_mutex: bool| {
        let mut rt = flat_rt(4);
        let obj = rt.machine_mut().alloc_on_proc(0, 256);
        rt.run_phase(move |ctx| {
            for _ in 0..2 {
                let mut t = Task::new(move |c| {
                    c.write(obj, 64);
                })
                .with_label("writer");
                if with_mutex {
                    t = t.with_mutex(obj);
                }
                ctx.spawn(t);
            }
        });
        detect_races(&rt.take_obs().events)
    };

    let racy = run(false);
    assert_eq!(racy.races.len(), 1, "expected exactly the seeded race");
    let d = racy.races[0].describe();
    assert!(d.contains("writer"), "race should name the task label: {d}");

    let fixed = run(true);
    assert!(
        fixed.races.is_empty(),
        "mutex serialises the writers: {:?}",
        fixed.races
    );
}

#[test]
fn seeded_lock_order_cycle_is_detected_and_consistent_order_fixes_it() {
    let run = |swap_second: bool| {
        let mut rt = flat_rt(4);
        let a = rt.machine_mut().alloc_on_proc(0, 64);
        let b = rt.machine_mut().alloc_on_proc(1, 64);
        rt.run_phase(move |ctx| {
            ctx.spawn(Task::new(|_| {}).with_mutex(a).with_mutex(b).with_label("fwd"));
            let t = if swap_second {
                Task::new(|_| {}).with_mutex(b).with_mutex(a).with_label("rev")
            } else {
                Task::new(|_| {}).with_mutex(a).with_mutex(b).with_label("fwd2")
            };
            ctx.spawn(t);
        });
        analyze_locks(&rt.take_obs().events)
    };

    let cyclic = run(true);
    assert_eq!(cyclic.cycles.len(), 1, "opposite acquisition orders deadlock");
    assert_eq!(cyclic.cycles[0].locks.len(), 2);

    let fixed = run(false);
    assert!(fixed.cycles.is_empty());
    assert!(!fixed.edges.is_empty(), "consistent order still records edges");
}

#[test]
fn seeded_unused_prefetch_is_detected() {
    let mut rt = flat_rt(4);
    let used = rt.machine_mut().alloc_on_proc(0, 256);
    let wasted = rt.machine_mut().alloc_on_proc(1, 256);
    rt.run_phase(move |ctx| {
        ctx.spawn(
            Task::new(move |c| {
                c.read(used, 64);
            })
            .with_prefetch(vec![(used, 64), (wasted, 64)])
            .with_label("reader"),
        );
    });
    let lints = run_lints(&rt.take_obs().events);
    assert_eq!(lints.len(), 1, "{lints:?}");
    assert_eq!(lints[0].kind, LintKind::UnusedPrefetch);
    assert_eq!(lints[0].obj, wasted, "only the untouched prefetch is flagged");
}

#[test]
fn seeded_migration_thrash_is_detected() {
    let mut rt = flat_rt(4);
    let obj = rt.machine_mut().alloc_on_proc(0, 4096);
    rt.run_phase(move |ctx| {
        ctx.migrate(obj, 4096, 1);
        ctx.migrate(obj, 4096, 2);
        ctx.migrate(obj, 4096, 1); // back to a node it already left
    });
    let lints = run_lints(&rt.take_obs().events);
    assert_eq!(lints.len(), 1, "{lints:?}");
    assert_eq!(lints[0].kind, LintKind::MigrationThrash);
}

#[test]
fn seeded_stale_object_hint_is_detected() {
    let mut rt = flat_rt(4);
    let obj = rt.machine_mut().alloc_on_proc(1, 256);
    rt.run_phase(move |ctx| {
        // OBJECT affinity is evaluated at spawn time (object homed on 1)...
        ctx.spawn(
            Task::new(move |c| {
                c.read(obj, 64);
            })
            .with_affinity(AffinitySpec::simple(obj))
            .with_label("stale"),
        );
        // ...but the object moves before the task is dispatched.
        ctx.migrate(obj, 256, 3);
    });
    let lints = run_lints(&rt.take_obs().events);
    assert_eq!(lints.len(), 1, "{lints:?}");
    assert_eq!(lints[0].kind, LintKind::StaleObjectHint);
}

/// The headline acceptance check: every app, every scheduling version,
/// default and fault-injected schedules — no races, no lock cycles, no
/// lints. This is the same matrix the `cool-analyze` binary serialises into
/// the committed `analyze_findings.json`.
#[test]
fn all_six_apps_are_clean_in_every_schedule() {
    let findings = analyze_all();
    assert_eq!(
        findings.len(),
        51,
        "6 apps x (7 versions + 1 faulted) + 3 service rows"
    );
    for f in &findings {
        let a = &f.analysis;
        let who = format!("{} {} {}", f.app, f.version, f.schedule);
        assert!(
            a.races.races.is_empty(),
            "{who}: races {:?}",
            a.races.races.iter().map(|r| r.describe()).collect::<Vec<_>>()
        );
        assert!(
            a.locks.cycles.is_empty(),
            "{who}: lock cycles {:?}",
            a.locks.cycles.iter().map(|c| c.describe()).collect::<Vec<_>>()
        );
        assert!(
            a.lints.is_empty(),
            "{who}: lints {:?}",
            a.lints.iter().map(|l| l.describe()).collect::<Vec<_>>()
        );
        assert!(a.races.tasks > 1 && a.races.accesses > 0, "{who}: ran nothing?");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random fork-join DAGs that are correctly synchronised by
    /// construction: levels separated by phase barriers, each task writing
    /// its own object, reading a random subset of the previous level's
    /// outputs, and optionally contending on one shared per-level object
    /// under a mutex. The analyzer must report nothing.
    #[test]
    fn random_fork_join_dags_have_no_false_positives(
        widths in prop::collection::vec(1usize..5, 1..4),
        shared_writes in any::<bool>(),
        read_mask in any::<u64>(),
    ) {
        let mut rt = flat_rt(4);
        let objs: Vec<Vec<_>> = widths
            .iter()
            .map(|&w| (0..w).map(|_| rt.machine_mut().alloc_on_proc(0, 128)).collect())
            .collect();
        let shared: Vec<_> = widths
            .iter()
            .map(|_| rt.machine_mut().alloc_on_proc(1, 64))
            .collect();

        for (lv, &width) in widths.iter().enumerate() {
            let objs = objs.clone();
            let shared_obj = shared[lv];
            rt.run_phase(move |ctx| {
                for i in 0..width {
                    let mine = objs[lv][i];
                    // Random subset of the previous level's outputs; the
                    // phase barrier orders all of them before us.
                    let inputs: Vec<_> = if lv > 0 {
                        objs[lv - 1]
                            .iter()
                            .enumerate()
                            .filter(|(j, _)| read_mask >> ((lv * 17 + i * 5 + j) % 63) & 1 == 1)
                            .map(|(_, o)| *o)
                            .collect()
                    } else {
                        Vec::new()
                    };
                    let mut t = Task::new(move |c| {
                        for inp in inputs {
                            c.read(inp, 128);
                        }
                        c.write(mine, 128);
                        if shared_writes {
                            c.read(shared_obj, 64);
                            c.write(shared_obj, 64);
                        }
                    });
                    if shared_writes {
                        t = t.with_mutex(shared_obj);
                    }
                    ctx.spawn(t);
                }
            });
        }

        let analysis = analyze_events(&rt.take_obs().events);
        prop_assert!(analysis.races.races.is_empty(), "{:?}",
            analysis.races.races.iter().map(|r| r.describe()).collect::<Vec<_>>());
        prop_assert!(analysis.locks.cycles.is_empty());
        prop_assert!(analysis.lints.is_empty());
    }
}
