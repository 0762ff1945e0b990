//! Property-based tests for affinity-slot *collisions*: tiny slot arrays
//! force many tokens to hash to the same slot, the configuration where the
//! old `push_stolen` appended behind a collided set and stolen sets could
//! interleave or lose their labels.
//!
//! The model: a "set" is the tasks sharing one token, wherever they sit.
//! Steal/re-insert round trips must (a) move exactly one whole set with its
//! own token, (b) keep the set contiguous — and at the *front* of service
//! order at the thief, (c) preserve FIFO order within every set, and
//! (d) keep `len` and the structural invariants exact on both sides.

use cool_core::affinity::AffinityKind;
use cool_core::ids::ObjRef;
use cool_core::queues::ServerQueues;
use proptest::prelude::*;

/// Payload: (token tag, spawn sequence number).
type Tagged = (u8, u64);

fn check(q: &ServerQueues<Tagged>) -> Result<(), TestCaseError> {
    q.check_invariants().map_err(TestCaseError::fail)
}

proptest! {
    /// Whole-set steals out of colliding slots: every batch is one complete
    /// set carrying its own token; re-inserting it at a thief with an
    /// equally tiny (colliding) array keeps it contiguous at the head of
    /// service order; per-set FIFO survives the full round trip.
    #[test]
    fn whole_set_round_trips_preserve_contiguity_and_fifo(
        tokens in prop::collection::vec(0u8..6, 1..80),
        victim_slots in 1usize..4,
        thief_slots in 1usize..4,
    ) {
        let mut victim: ServerQueues<Tagged> = ServerQueues::new(victim_slots);
        let mut thief: ServerQueues<Tagged> = ServerQueues::new(thief_slots);
        let total = tokens.len();
        for (seq, &tok) in tokens.iter().enumerate() {
            victim.push_affinity(ObjRef(tok as u64), AffinityKind::Task, (tok, seq as u64));
        }
        check(&victim)?;

        // Steal everything across, one set per round.
        while let Some(batch) = victim.steal_with(true, true) {
            let tok = batch.token;
            prop_assert!(tok.is_some(), "Task-kind sets always steal whole");
            let tok = tok.unwrap();
            let n = batch.tasks.len();
            prop_assert!(n >= 1);
            // (a) the batch is labelled with its set's token, and the victim
            // retains nothing of that set (the steal took all of it).
            for &(tag, _) in &batch.tasks {
                prop_assert_eq!(ObjRef(tag as u64), tok, "batch holds a foreign task");
            }
            prop_assert!(
                !victim.token_order().contains(&Some(tok)),
                "steal left part of set {tok:?} behind"
            );
            // (c) FIFO inside the stolen batch.
            for w in batch.tasks.windows(2) {
                prop_assert!(w[0].1 < w[1].1, "steal reordered a set");
            }
            thief.push_stolen(batch);
            // (b) the re-inserted set is contiguous at the FRONT of the
            // thief's service order, even when its slot already holds
            // collided sets.
            let order = thief.token_order();
            prop_assert!(
                order[..n].iter().all(|t| *t == Some(tok)),
                "stolen set not contiguous at head: {order:?}"
            );
            check(&victim)?;
            check(&thief)?;
            // (d) nothing lost or duplicated.
            prop_assert_eq!(victim.len() + thief.len(), total);
        }
        prop_assert!(victim.is_empty());

        // Drain the thief: per-set FIFO must have survived the round trip,
        // and every pop reports the token its set was pushed under.
        let mut last_seen: std::collections::HashMap<u8, u64> = Default::default();
        let mut drained = 0usize;
        while let Some(popped) = thief.pop_local_info() {
            let (tag, seq) = popped.payload;
            prop_assert_eq!(
                popped.token, Some(ObjRef(tag as u64)),
                "pop reported the wrong token for its entry"
            );
            if let Some(&prev) = last_seen.get(&tag) {
                prop_assert!(seq > prev, "set {tag}: {seq} popped after {prev}");
            }
            last_seen.insert(tag, seq);
            drained += 1;
        }
        prop_assert_eq!(drained, total);
        prop_assert!(thief.is_empty());
    }

    /// Mixed Task/Object sets under collisions: an Object set sharing a slot
    /// must neither pin a stealable Task set (classification is per set, not
    /// per slot) nor leak into a stolen batch; invariants and conservation
    /// hold under any interleaving of steals, re-inserts and pops.
    #[test]
    fn collided_mixed_kinds_conserve_and_label_correctly(
        pushes in prop::collection::vec((0u8..6, any::<bool>()), 1..80),
        array_size in 1usize..4,
        polite in any::<bool>(),
        whole_sets in any::<bool>(),
    ) {
        let mut victim: ServerQueues<Tagged> = ServerQueues::new(array_size);
        let mut thief: ServerQueues<Tagged> = ServerQueues::new(array_size);
        let total = pushes.len();
        let mut object_tokens = std::collections::HashSet::new();
        for (seq, &(tok, is_obj)) in pushes.iter().enumerate() {
            let kind = if is_obj { AffinityKind::Object } else { AffinityKind::Task };
            if is_obj {
                object_tokens.insert(tok);
            }
            victim.push_affinity(ObjRef(tok as u64), kind, (tok, seq as u64));
        }
        check(&victim)?;

        let mut produced = std::collections::HashSet::new();
        while let Some(batch) = victim.steal_with(polite, whole_sets) {
            match batch.token {
                Some(tok) => {
                    // A labelled batch is one whole set of one token — and a
                    // polite steal never takes a set that contains Object-
                    // affinity work.
                    for &(tag, _) in &batch.tasks {
                        prop_assert_eq!(ObjRef(tag as u64), tok);
                        if polite {
                            prop_assert!(
                                !object_tokens.contains(&tag),
                                "polite steal moved object set {tag}"
                            );
                        }
                    }
                    prop_assert!(!victim.token_order().contains(&Some(tok)));
                }
                None => prop_assert_eq!(batch.tasks.len(), 1, "unlabelled steals are singles"),
            }
            for &(_, seq) in &batch.tasks {
                prop_assert!(produced.insert(seq), "task {seq} stolen twice");
            }
            thief.push_stolen(batch);
            check(&victim)?;
            check(&thief)?;
            prop_assert_eq!(victim.len() + thief.len(), total);
        }

        // Conservation: both queues drain to exactly the pushed multiset.
        let mut seen = std::collections::HashSet::new();
        while let Some((_, (_, seq))) = victim.pop_local() {
            prop_assert!(seen.insert(seq));
        }
        while let Some((_, (_, seq))) = thief.pop_local() {
            prop_assert!(seen.insert(seq));
        }
        prop_assert_eq!(seen.len(), total);
        prop_assert!(victim.is_empty() && thief.is_empty());
    }
}
