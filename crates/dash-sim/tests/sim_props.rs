//! Property-based tests for the machine simulator.

use cool_core::{NodeId, ProcId};
use dash_sim::cache::{Access, Cache};
use dash_sim::config::CacheConfig;
use dash_sim::{Machine, MachineConfig};
use proptest::prelude::*;

proptest! {
    /// A fully-associative cache of capacity C obeys the LRU stack property:
    /// a line is resident iff fewer than C distinct lines were referenced
    /// since its last reference.
    #[test]
    fn lru_stack_property(
        refs in prop::collection::vec(0u64..32, 1..300),
        cap in 1usize..8,
    ) {
        let mut c = Cache::new(CacheConfig {
            size_bytes: (cap as u64) * 16,
            line_bytes: 16,
            assoc: cap, // one set, fully associative
        });
        let mut history: Vec<u64> = Vec::new();
        for &line in &refs {
            let expected_hit = {
                let mut distinct = std::collections::HashSet::new();
                let mut hit = false;
                for &past in history.iter().rev() {
                    if past == line {
                        hit = true;
                        break;
                    }
                    distinct.insert(past);
                    if distinct.len() >= cap {
                        break;
                    }
                }
                hit
            };
            let got = matches!(c.access(line), Access::Hit);
            prop_assert_eq!(got, expected_hit, "line {} history {:?}", line, history);
            history.push(line);
        }
    }

    /// Reference conservation: every reference is classified exactly once
    /// (refs == l1 + l2 + local + remote), for any access pattern.
    #[test]
    fn references_are_conserved(
        ops in prop::collection::vec((0usize..8, 0u64..2048, any::<bool>()), 1..400),
    ) {
        let mut m = Machine::new(MachineConfig::dash_small(8));
        let obj = m.alloc_interleaved(4096);
        for (p, off, is_write) in ops {
            if is_write {
                m.write(ProcId(p), obj.offset(off), 4);
            } else {
                m.read(ProcId(p), obj.offset(off), 4);
            }
        }
        let b = m.monitor().breakdown();
        prop_assert_eq!(
            b.refs,
            b.l1_hits + b.l2_hits + b.local_misses + b.remote_misses
        );
    }

    /// Coherence safety: after any interleaving, a second read by the same
    /// processor with no intervening writes by others is always a cache hit.
    #[test]
    fn reread_without_interference_hits(
        ops in prop::collection::vec((0usize..4, 0u64..64), 1..100),
    ) {
        let mut m = Machine::new(MachineConfig::dash_small(4));
        let obj = m.alloc_on_node(NodeId(0), 64 * 16);
        for (p, line_idx) in ops {
            let addr = obj.offset(line_idx * 16);
            m.read(ProcId(p), addr, 4);
            let c = m.read(ProcId(p), addr, 4);
            prop_assert_eq!(c, m.config().lat.l1_hit, "immediate re-read must hit L1");
        }
    }

    /// Invalidation balance: invalidations sent == invalidations received,
    /// machine-wide, under any mix of reads and writes.
    #[test]
    fn invalidations_balance(
        ops in prop::collection::vec((0usize..8, 0u64..256, any::<bool>()), 1..300),
    ) {
        let mut m = Machine::new(MachineConfig::dash_small(8));
        let obj = m.alloc_on_node(NodeId(0), 4096);
        for (p, off, w) in ops {
            if w {
                m.write(ProcId(p), obj.offset(off), 4);
            } else {
                m.read(ProcId(p), obj.offset(off), 4);
            }
        }
        let t = m.monitor().total();
        prop_assert_eq!(t.invalidations_sent, t.invalidations_received);
    }

    /// home() always returns the node most recently assigned by alloc or
    /// migrate, page-aligned semantics.
    #[test]
    fn migrate_home_roundtrip(
        moves in prop::collection::vec((0u64..4, 0usize..8), 1..50),
    ) {
        let mut m = Machine::new(MachineConfig::dash_small(8));
        let page = m.config().page_bytes;
        let obj = m.alloc_on_node(NodeId(0), 4 * page);
        let nnodes = m.config().topology.nclusters();
        let mut homes = [0usize; 4];
        for (pg, node) in moves {
            let node = node % nnodes;
            m.migrate_to_node(obj.offset(pg * page), page, NodeId(node));
            homes[pg as usize] = node;
        }
        for pg in 0..4u64 {
            prop_assert_eq!(m.home_node(obj.offset(pg * page)).index(), homes[pg as usize]);
        }
    }
}
