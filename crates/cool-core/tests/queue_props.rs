//! Property-based tests for the per-server task-queue structure.
//!
//! The model: the queue structure is a multiset of tasks with (a) FIFO order
//! within an affinity set, (b) back-to-back service of the head set, and
//! (c) conservation — nothing is lost or duplicated by any interleaving of
//! push / pop / steal operations.

use cool_core::affinity::AffinityKind;
use cool_core::ids::ObjRef;
use cool_core::queues::ServerQueues;
use proptest::prelude::*;

#[derive(Clone, Debug)]
enum Op {
    PushAffinity { token: u8, kind_obj: bool },
    PushDefault,
    PopLocal,
    Steal { polite: bool },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u8..16, any::<bool>()).prop_map(|(token, kind_obj)| Op::PushAffinity { token, kind_obj }),
        Just(Op::PushDefault),
        Just(Op::PopLocal),
        any::<bool>().prop_map(|polite| Op::Steal { polite }),
    ]
}

proptest! {
    /// Conservation: every pushed task is eventually produced exactly once by
    /// pop_local or steal, and the internal invariants hold after every op.
    #[test]
    fn conservation_and_invariants(
        ops in prop::collection::vec(op_strategy(), 1..200),
        array_size in 1usize..16,
    ) {
        let mut q: ServerQueues<u64> = ServerQueues::new(array_size);
        let mut next_id = 0u64;
        let mut pushed = std::collections::HashSet::new();
        let mut produced = std::collections::HashSet::new();

        for op in ops {
            match op {
                Op::PushAffinity { token, kind_obj } => {
                    let kind = if kind_obj { AffinityKind::Object } else { AffinityKind::Task };
                    q.push_affinity(ObjRef(token as u64), kind, next_id);
                    pushed.insert(next_id);
                    next_id += 1;
                }
                Op::PushDefault => {
                    q.push_default(AffinityKind::None, next_id);
                    pushed.insert(next_id);
                    next_id += 1;
                }
                Op::PopLocal => {
                    if let Some((_, t)) = q.pop_local() {
                        prop_assert!(produced.insert(t), "task {t} produced twice");
                    }
                }
                Op::Steal { polite } => {
                    if let Some(batch) = q.steal_with(polite, true) {
                        prop_assert!(!batch.tasks.is_empty());
                        for t in batch.tasks {
                            prop_assert!(produced.insert(t), "task {t} produced twice");
                        }
                    }
                }
            }
            q.check_invariants().map_err(TestCaseError::fail)?;
        }

        // Drain the remainder; everything pushed must come out exactly once.
        while let Some((_, t)) = q.pop_local() {
            prop_assert!(produced.insert(t));
        }
        prop_assert_eq!(produced, pushed);
        prop_assert!(q.is_empty());
    }

    /// FIFO per affinity set: popping locally yields each set's tasks in
    /// insertion order (sets may interleave only at set boundaries).
    #[test]
    fn fifo_within_each_set(
        tokens in prop::collection::vec(0u8..8, 1..100),
        array_size in 8usize..64,
    ) {
        let mut q: ServerQueues<(u8, u64)> = ServerQueues::new(array_size);
        for (seq, &tok) in tokens.iter().enumerate() {
            q.push_affinity(ObjRef(tok as u64), AffinityKind::Task, (tok, seq as u64));
        }
        let mut last_seen: std::collections::HashMap<u8, u64> = Default::default();
        while let Some((_, (tok, s))) = q.pop_local() {
            if let Some(&prev) = last_seen.get(&tok) {
                prop_assert!(s > prev, "set {tok}: {s} after {prev}");
            }
            last_seen.insert(tok, s);
        }
    }

    /// Polite stealing never removes an Object-affinity task.
    #[test]
    fn polite_steal_never_moves_object_tasks(
        pushes in prop::collection::vec((0u8..8, any::<bool>()), 1..100),
    ) {
        let mut q: ServerQueues<bool> = ServerQueues::new(16);
        for (tok, is_obj) in pushes {
            let kind = if is_obj { AffinityKind::Object } else { AffinityKind::Task };
            // Payload records whether this task is an Object-affinity task.
            q.push_affinity(ObjRef(tok as u64), kind, is_obj);
        }
        while let Some(batch) = q.steal_with(true, true) {
            for is_obj in batch.tasks {
                prop_assert!(!is_obj, "polite steal moved an object-affinity task");
            }
        }
    }
}
