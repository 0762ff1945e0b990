//! Property-based tests for N-level topology trees and the widening steal
//! order: every processor is visited exactly once, nearest domains come
//! first, and 2-level trees reproduce the original local-then-remote scan
//! byte-for-byte.

use cool_core::{ProcId, Topology};
use proptest::prelude::*;

/// Strategy over valid topology trees: level sizes strictly increase and
/// nest (each a multiple of the previous), `nservers` need not be a
/// multiple of the outermost domain (ragged last domains are legal), and
/// `mem_level` points at any level.
fn tree_strategy() -> impl Strategy<Value = Topology> {
    (
        1usize..5,                               // innermost domain size
        prop::collection::vec(2usize..5, 0..3),  // per-level multipliers
        1usize..4,                               // machines per outer domain
        0usize..8,                               // ragged tail processors
        0usize..16,                              // raw mem level
    )
        .prop_map(|(s0, mults, outer_q, ragged, raw_mem)| {
            let mut sizes = vec![s0];
            for m in mults {
                let next = sizes.last().unwrap() * m;
                sizes.push(next);
            }
            let outermost = *sizes.last().unwrap();
            let nservers = (outermost * outer_q + ragged).max(1);
            let mem_level = raw_mem % sizes.len();
            Topology::tree(nservers, &sizes, mem_level)
        })
}

/// The original 2-level scan this crate shipped with: one pass over
/// `(thief + k) % nservers` collecting same-cluster victims, then a second
/// collecting the rest.
fn classic_two_level_order(nservers: usize, ppc: usize, thief: ProcId) -> Vec<ProcId> {
    let cluster = |p: ProcId| p.index() / ppc;
    let mut order = Vec::with_capacity(nservers.saturating_sub(1));
    for pass in 0..2 {
        for k in 1..nservers {
            let v = ProcId((thief.index() + k) % nservers);
            let local = cluster(v) == cluster(thief);
            if (pass == 0) == local {
                order.push(v);
            }
        }
    }
    order
}

proptest! {
    /// Every other processor appears in the steal order exactly once.
    #[test]
    fn steal_order_is_a_permutation(topo in tree_strategy(), thief_raw in 0usize..512) {
        let thief = ProcId(thief_raw % topo.nservers);
        let order = topo.steal_order(thief);
        prop_assert_eq!(order.len(), topo.nservers - 1);
        let mut seen = vec![false; topo.nservers];
        seen[thief.index()] = true;
        for v in &order {
            prop_assert!(!seen[v.index()], "duplicate victim {v:?}");
            seen[v.index()] = true;
        }
        prop_assert!(seen.iter().all(|&s| s));
    }

    /// Victims are sorted by common-ancestor level: every victim sharing a
    /// nearer domain with the thief precedes every farther one.
    #[test]
    fn steal_order_widens_nearest_domain_first(
        topo in tree_strategy(),
        thief_raw in 0usize..512,
    ) {
        let thief = ProcId(thief_raw % topo.nservers);
        let order = topo.steal_order(thief);
        let mut last_level = 0;
        for v in &order {
            let lvl = topo.common_level(thief, *v);
            prop_assert!(
                lvl >= last_level,
                "victim {v:?} at level {lvl} after level {last_level}"
            );
            last_level = lvl;
        }
    }

    /// Within one level bucket, victims keep the circular
    /// `(thief + k) % nservers` scan order — the tie-break the 2-level
    /// equivalence below depends on.
    #[test]
    fn steal_order_keeps_scan_order_within_a_level(
        topo in tree_strategy(),
        thief_raw in 0usize..512,
    ) {
        let thief = ProcId(thief_raw % topo.nservers);
        let n = topo.nservers;
        let scan_pos = |v: ProcId| (v.index() + n - thief.index()) % n;
        let order = topo.steal_order(thief);
        for w in order.windows(2) {
            if topo.common_level(thief, w[0]) == topo.common_level(thief, w[1]) {
                prop_assert!(scan_pos(w[0]) < scan_pos(w[1]), "{w:?}");
            }
        }
    }

    /// 2-level trees (the classic cluster machine) reproduce the original
    /// local-then-remote scan exactly, for every thief.
    #[test]
    fn two_level_trees_match_the_classic_order(
        nservers in 1usize..48,
        ppc in 1usize..12,
    ) {
        let topo = Topology::clustered(nservers, ppc);
        for t in 0..nservers {
            let thief = ProcId(t);
            prop_assert_eq!(
                topo.steal_order(thief),
                classic_two_level_order(nservers, ppc, thief),
                "thief {}", t
            );
        }
    }

    /// The precomputed per-thief table is exactly the per-call order, and
    /// carries the same levels `common_level` reports.
    #[test]
    fn victim_orders_table_matches_per_call_orders(topo in tree_strategy()) {
        let table = topo.victim_orders();
        for t in 0..topo.nservers {
            let thief = ProcId(t);
            let fresh = topo.steal_order(thief);
            let cached = table.order(thief);
            prop_assert_eq!(cached.len(), topo.nservers - 1);
            prop_assert_eq!(cached.len(), fresh.len());
            for (i, &(v, lvl)) in cached.iter().enumerate() {
                prop_assert_eq!(v, fresh[i]);
                prop_assert_eq!(lvl as usize, topo.common_level(thief, v));
            }
        }
    }
}
