//! Exhaustive behavioural matrix for the steal policies: every combination
//! of {enabled, avoid_object_affinity, steal_whole_sets, cluster-only} is
//! run over the same workload and checked against the paper's rules.

use std::cell::RefCell;
use std::rc::Rc;

use cool_core::{AffinitySpec, ObjRef, StealPolicy};
use cool_sim::{MachineConfig, SimConfig, SimRuntime, Task};

/// A hoard-on-one-server workload: 8 task-affinity sets plus 16 unhinted
/// tasks plus 8 object-affinity tasks, all initially on servers 0/1.
fn run(policy: StealPolicy) -> (cool_core::SchedStats, u64, Vec<usize>) {
    let mut cfg = SimConfig::new(MachineConfig::dash_small(8));
    cfg.policy = policy;
    let mut rt = SimRuntime::new(cfg);
    let objs: Vec<ObjRef> = (0..8)
        .map(|i| rt.machine_mut().alloc_on_proc(i % 2, 4096))
        .collect();
    let where_ran: Rc<RefCell<Vec<usize>>> = Rc::new(RefCell::new(Vec::new()));
    let w = where_ran.clone();
    rt.run_phase(move |ctx| {
        for round in 0..4 {
            for (i, &obj) in objs.iter().enumerate() {
                let _ = round;
                let w1 = w.clone();
                ctx.spawn(
                    Task::new(move |c| {
                        c.read(obj, 2048);
                        c.compute(3_000);
                        w1.borrow_mut().push(c.proc().index());
                    })
                    .with_affinity(AffinitySpec::task(obj).and_processor(i % 2)),
                );
            }
        }
        for i in 0..16 {
            let w2 = w.clone();
            ctx.spawn(
                Task::new(move |c| {
                    c.compute(3_000);
                    w2.borrow_mut().push(c.proc().index());
                })
                .with_affinity(AffinitySpec::processor(i % 2)),
            );
        }
        for &obj in objs.iter() {
            let w3 = w.clone();
            ctx.spawn(
                Task::new(move |c| {
                    c.read(obj, 2048);
                    c.compute(3_000);
                    w3.borrow_mut().push(c.proc().index());
                })
                .with_affinity(AffinitySpec::object(obj)),
            );
        }
    });
    let ran = where_ran.borrow().clone();
    (rt.stats(), rt.elapsed(), ran)
}

#[test]
fn every_policy_combination_completes_all_tasks() {
    for enabled in [false, true] {
        for avoid in [false, true] {
            for whole in [false, true] {
                for cluster in [false, true] {
                    let policy = StealPolicy {
                        enabled,
                        avoid_object_affinity: avoid,
                        steal_whole_sets: whole,
                        steal_radius: cluster.then_some(0),
                        last_resort_after: 2,
                        ..StealPolicy::default()
                    };
                    let (stats, _, ran) = run(policy);
                    assert_eq!(
                        ran.len(),
                        32 + 16 + 8,
                        "lost tasks under {policy:?}"
                    );
                    assert_eq!(stats.executed, stats.spawned, "{policy:?}");
                }
            }
        }
    }
}

#[test]
fn stealing_disabled_keeps_everything_on_the_two_hinted_servers() {
    let (stats, _, ran) = run(StealPolicy::disabled());
    assert!(ran.iter().all(|&p| p < 2), "{ran:?}");
    assert_eq!(stats.tasks_stolen, 0);
}

#[test]
fn stealing_enabled_spreads_and_speeds_up() {
    let (_, t_off, _) = run(StealPolicy::disabled());
    let (stats, t_on, ran) = run(StealPolicy::default());
    assert!(stats.tasks_stolen > 0);
    let distinct: std::collections::HashSet<usize> = ran.iter().copied().collect();
    assert!(distinct.len() > 2, "no spreading: {distinct:?}");
    assert!(
        t_on < t_off,
        "stealing should shorten the hoarded schedule: {t_on} vs {t_off}"
    );
}

#[test]
fn cluster_only_never_crosses_but_still_helps() {
    let (stats, t_on, _) = run(StealPolicy::cluster_only());
    assert_eq!(stats.remote_steals, 0);
    let (_, t_off, _) = run(StealPolicy::disabled());
    // Both hinted servers are in cluster 0 (procs 0-3 share it), so
    // in-cluster thieves alone must already improve on no stealing.
    assert!(t_on < t_off, "{t_on} vs {t_off}");
}

#[test]
fn whole_set_policy_moves_sets_single_policy_moves_tasks() {
    let whole = StealPolicy {
        steal_whole_sets: true,
        ..Default::default()
    };
    let (s_whole, _, _) = run(whole);
    let single = StealPolicy {
        steal_whole_sets: false,
        ..Default::default()
    };
    let (s_single, _, _) = run(single);
    // Whole-set mode records set steals; single mode never does.
    assert_eq!(s_single.sets_stolen, 0);
    // In whole mode, if any affinity-slot steal happened it was a set.
    if s_whole.sets_stolen > 0 {
        assert!(s_whole.tasks_stolen >= s_whole.sets_stolen);
    }
}
