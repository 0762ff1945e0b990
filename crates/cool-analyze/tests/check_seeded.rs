//! Seeded-defect exploration: every virtual-machine defect must be found
//! by the interleaving explorer on *some* schedule, in both naive and
//! sleep-set (DPOR) modes — proving the reduction never prunes away the
//! only schedule exhibiting a bug, and that each invariant actually fires.

use cool_analyze::explore;
use cool_core::{AffinityKind, PushSpec, QueueDefect, QueueMachine, StealPolicy, Topology};
use cool_rt::{ServeDefect, ServeMachine, SubmitSpec};

fn push(id: u32) -> PushSpec {
    PushSpec {
        id,
        token: None,
        kind: AffinityKind::None,
    }
}

fn spec(id: u64, shard: u64, failures: u32) -> SubmitSpec {
    SubmitSpec {
        id,
        shard,
        cost: 1,
        failures,
    }
}

/// Two servers on the runtimes' defaults: a flat machine and the default
/// steal policy.
fn queue_machine(defect: QueueDefect) -> QueueMachine {
    QueueMachine::new(
        4,
        Topology::flat(2),
        StealPolicy::default(),
        vec![vec![push(0), push(1)], vec![push(2)]],
        defect,
    )
}

/// `cool-check`'s `queue-cluster-steal` scenario: cluster stealing with
/// servers 0 and 1 in one cluster and server 2 alone in the other, each
/// cluster holding one task.
fn cluster_machine(defect: QueueDefect) -> QueueMachine {
    QueueMachine::new(
        4,
        Topology::clustered(3, 2),
        StealPolicy::cluster_only(),
        vec![vec![push(0)], vec![], vec![push(1)]],
        defect,
    )
}

/// A scenario where the defect is reachable: enough clients/requests to
/// exercise dedup, retry, drain racing and the double-enqueue ghost.
fn serve_machine(defect: ServeDefect) -> ServeMachine {
    let use_drain = matches!(
        defect,
        ServeDefect::AdmitPastDrain | ServeDefect::LoseRetry | ServeDefect::None
    );
    ServeMachine::new(
        2,
        4,
        64,
        2,
        vec![vec![spec(1, 0, 1), spec(1, 0, 0)], vec![spec(2, 1, 0)]],
        use_drain,
        defect,
    )
}

#[test]
fn clean_serve_machine_has_no_violations() {
    let m = serve_machine(ServeDefect::None);
    assert_eq!(explore(&m, false).violation_count, 0);
    assert_eq!(explore(&m, true).violation_count, 0);
}

#[test]
fn every_serve_defect_is_found_in_both_modes() {
    for defect in [
        ServeDefect::AdmitPastDrain,
        ServeDefect::DedupMiss,
        ServeDefect::LoseRetry,
        ServeDefect::DoubleEnqueue,
    ] {
        let m = serve_machine(defect);
        let naive = explore(&m, false);
        let dpor = explore(&m, true);
        assert!(naive.violation_count > 0, "{defect:?} invisible to naive");
        assert!(dpor.violation_count > 0, "{defect:?} pruned away by DPOR");
        let v = &dpor.violations[0];
        assert!(!v.trace.is_empty(), "{defect:?} violation lacks a schedule");
    }
}

#[test]
fn every_queue_defect_is_found_in_both_modes() {
    for defect in [QueueDefect::LoseOnSteal, QueueDefect::DupOnSteal] {
        for m in [queue_machine(defect), cluster_machine(defect)] {
            let naive = explore(&m, false);
            let dpor = explore(&m, true);
            assert!(naive.violation_count > 0, "{defect:?} invisible to naive");
            assert!(dpor.violation_count > 0, "{defect:?} pruned away by DPOR");
        }
    }
    // The flat machine has no ceiling to steal past.
    let m = cluster_machine(QueueDefect::StealPastCeiling);
    let (naive, dpor) = (explore(&m, false), explore(&m, true));
    assert!(naive.violation_count > 0, "breach invisible to naive");
    assert!(dpor.violation_count > 0, "breach pruned away by DPOR");
}

#[test]
fn dpor_prunes_on_every_clean_scenario() {
    let serve = serve_machine(ServeDefect::None);
    let (sn, sd) = (explore(&serve, false), explore(&serve, true));
    assert!(sd.schedules < sn.schedules, "{sn:?} vs {sd:?}");
    for queue in [
        queue_machine(QueueDefect::None),
        cluster_machine(QueueDefect::None),
    ] {
        let (qn, qd) = (explore(&queue, false), explore(&queue, true));
        assert_eq!(qn.violation_count, 0);
        assert_eq!(qd.violation_count, 0);
        assert!(qd.schedules < qn.schedules, "{qn:?} vs {qd:?}");
    }
}
