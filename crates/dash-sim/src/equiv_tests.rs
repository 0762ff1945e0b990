//! Property tests pinning the rewritten hot path to the frozen oracle.
//!
//! Random mixed streams of reads, writes, prefetches and page migrations are
//! driven through [`crate::Machine`] (flat directory, fixed-width cache sets,
//! per-processor lookasides) and [`crate::oracle::OracleMachine`] (the
//! original implementation) in lockstep. Every access must return the same
//! latency, and after the stream the monitor counters, directory state and
//! cache contents must be identical. The streams are shaped to hit the
//! corners the lookaside makes dangerous: repeat hits, conflict evictions,
//! cross-processor invalidations, dirty-owner downgrades, first-touch
//! claiming and migration purges.
//!
//! Since the contention engine landed, these suites are also
//! the gate on *zero-contention mode*: every config here has
//! `contention: None`, which must select a code path cycle- and
//! counter-identical to the frozen oracle ([`zero_contention_mode_matches_oracle`]
//! pins the mode explicitly). Contended configs have no oracle — for them
//! the contract is determinism: identical config and reference stream give
//! byte-identical latencies, counters, contention statistics and event
//! counts ([`contended_mode_is_deterministic`]). The simulator is
//! single-threaded, so host parallelism cannot perturb it; the repro
//! harness's `--race-serial` pass proves that end-to-end.

use cool_core::{NodeId, ObjRef, ProcId};
use proptest::prelude::*;

use crate::config::{CacheConfig, MachineConfig};
use crate::oracle::OracleMachine;
use crate::Machine;

/// Bytes per test region (three regions with distinct placement policies).
const REGION: u64 = 4096;

/// Shrunken caches so random streams exercise L1 *and* L2 evictions: 16
/// direct-mapped L1 lines, 64 two-way L2 lines against a 768-line footprint.
fn small_cache_config(nprocs: usize) -> MachineConfig {
    let mut cfg = MachineConfig::dash_small(nprocs);
    cfg.l1 = CacheConfig {
        size_bytes: 16 * 16,
        line_bytes: 16,
        assoc: 1,
    };
    cfg.l2 = CacheConfig {
        size_bytes: 64 * 16,
        line_bytes: 16,
        assoc: 2,
    };
    cfg
}

/// Allocate the three regions identically in both machines: fixed placement,
/// interleaved, and first-touch (so claiming is part of the contract).
fn alloc_regions(fast: &mut Machine, slow: &mut OracleMachine) -> [ObjRef; 3] {
    let fa = fast.alloc_on_node(NodeId(0), REGION);
    let fb = fast.alloc_interleaved(REGION);
    let fc = fast.alloc_first_touch(REGION);
    let sa = slow.alloc_on_node(NodeId(0), REGION);
    let sb = slow.alloc_interleaved(REGION);
    let sc = slow.alloc_first_touch(REGION);
    assert_eq!((fa, fb, fc), (sa, sb, sc), "allocators diverged");
    [fa, fb, fc]
}

/// Compare every piece of externally observable simulator state.
fn assert_same_state(
    fast: &Machine,
    slow: &OracleMachine,
    regions: &[ObjRef; 3],
    nprocs: usize,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(
        fast.monitor().breakdown(),
        slow.monitor().breakdown(),
        "monitor breakdown diverged"
    );
    for p in 0..nprocs {
        prop_assert_eq!(
            fast.monitor().proc(p),
            slow.monitor().proc(p),
            "proc {} counters diverged",
            p
        );
    }
    prop_assert_eq!(
        fast.dir_tracked_lines(),
        slow.tracked_lines(),
        "tracked line count diverged"
    );
    for &base in regions {
        prop_assert_eq!(fast.home_node(base), slow.home_node(base));
        prop_assert_eq!(fast.home_proc(base), slow.home_proc(base));
        for line in base.0 / 16..(base.0 + REGION) / 16 {
            prop_assert_eq!(
                fast.dir_sharers(line),
                slow.sharers(line),
                "sharers of line {} diverged",
                line
            );
            for p in 0..nprocs {
                prop_assert_eq!(
                    fast.cache_contains(p, line),
                    slow.cache_contains(p, line),
                    "residency of line {} in proc {} diverged",
                    line,
                    p
                );
                prop_assert_eq!(
                    fast.dir_is_exclusive(line, p),
                    slow.is_exclusive(line, p),
                    "exclusivity of line {} for proc {} diverged",
                    line,
                    p
                );
            }
        }
    }
    for p in 0..nprocs {
        prop_assert_eq!(
            fast.cache_resident(p),
            slow.cache_resident(p),
            "resident count of proc {} diverged",
            p
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// The central contract: arbitrary mixed streams cost identical cycles
    /// and leave identical state, across processor counts and all four
    /// operation kinds (including line/page-spanning lengths).
    #[test]
    fn mixed_streams_match_oracle(
        ops in prop::collection::vec(
            (0u8..16, 0usize..32, 0usize..3, 0u64..REGION, 1u64..96),
            1..300,
        ),
        np_sel in 0usize..3,
    ) {
        let nprocs = [2, 8, 32][np_sel];
        let cfg = small_cache_config(nprocs);
        let mut fast = Machine::new(cfg);
        let mut slow = OracleMachine::new(cfg);
        let regions = alloc_regions(&mut fast, &mut slow);
        let mut now = 0u64;
        for (kind, p, region, off, len) in ops {
            let pi = p % nprocs;
            let p = ProcId(pi);
            let off = off % REGION;
            let len = len.min(REGION - off);
            let at = regions[region].offset(off);
            let (cf, cs) = match kind {
                // Reads dominate, like real reference streams.
                0..=6 => (fast.read_at(p, at, len, now), slow.read_at(p, at, len, now)),
                7..=12 => (fast.write_at(p, at, len, now), slow.write_at(p, at, len, now)),
                13 | 14 => (fast.prefetch(p, at, len, now), slow.prefetch(p, at, len, now)),
                _ => (
                    fast.migrate_to_proc(at, len, pi),
                    slow.migrate_to_proc(at, len, pi),
                ),
            };
            prop_assert_eq!(cf, cs, "cycle divergence at op on line {}", at.0 / 16);
            now += cf;
        }
        assert_same_state(&fast, &slow, &regions, nprocs)?;
    }

    /// Ping-pong sharing: two processors alternating reads and writes over a
    /// handful of lines — maximal pressure on invalidation-driven lookaside
    /// clearing and dirty-owner downgrades.
    #[test]
    fn sharing_ping_pong_matches_oracle(
        ops in prop::collection::vec((0usize..2, 0u64..4, any::<bool>()), 1..250),
    ) {
        let nprocs = 8;
        let cfg = small_cache_config(nprocs);
        let mut fast = Machine::new(cfg);
        let mut slow = OracleMachine::new(cfg);
        let regions = alloc_regions(&mut fast, &mut slow);
        let mut now = 0u64;
        for (p, line_idx, is_write) in ops {
            // Processors 0 and 4 sit in different clusters: remote dirty
            // service and the dirty penalty are both exercised.
            let p = ProcId(p * 4);
            let at = regions[0].offset(line_idx * 16);
            let (cf, cs) = if is_write {
                (fast.write_at(p, at, 8, now), slow.write_at(p, at, 8, now))
            } else {
                (fast.read_at(p, at, 8, now), slow.read_at(p, at, 8, now))
            };
            prop_assert_eq!(cf, cs, "cycle divergence on line {}", line_idx);
            now += cf;
        }
        assert_same_state(&fast, &slow, &regions, nprocs)?;
    }

    /// Conflict-eviction torture: one processor walking addresses that all
    /// collide in the same L1 set, interleaved with repeat hits — the pattern
    /// that would expose a lookaside surviving its line's eviction.
    #[test]
    fn conflict_evictions_match_oracle(
        ops in prop::collection::vec((0u64..12, any::<bool>()), 1..250),
    ) {
        let nprocs = 2;
        let cfg = small_cache_config(nprocs);
        let mut fast = Machine::new(cfg);
        let mut slow = OracleMachine::new(cfg);
        let regions = alloc_regions(&mut fast, &mut slow);
        let mut now = 0u64;
        let l1_bytes = cfg.l1.size_bytes; // stride that collides in L1
        for (way, repeat_hit) in ops {
            let off = (way * l1_bytes) % REGION;
            let at = regions[1].offset(off);
            let reps = if repeat_hit { 2 } else { 1 };
            for _ in 0..reps {
                let (cf, cs) = (
                    fast.read_at(ProcId(0), at, 8, now),
                    slow.read_at(ProcId(0), at, 8, now),
                );
                prop_assert_eq!(cf, cs, "cycle divergence at offset {}", off);
                now += cf;
            }
        }
        assert_same_state(&fast, &slow, &regions, nprocs)?;
    }

    /// Migration in the middle of hot reuse: lookasides must drop entries
    /// for moved pages, first-touch claims must agree before and after.
    #[test]
    fn migration_interleaved_matches_oracle(
        ops in prop::collection::vec((0u8..8, 0usize..4, 0u64..REGION), 1..160),
    ) {
        let nprocs = 8;
        let cfg = small_cache_config(nprocs);
        let mut fast = Machine::new(cfg);
        let mut slow = OracleMachine::new(cfg);
        let regions = alloc_regions(&mut fast, &mut slow);
        let mut now = 0u64;
        for (kind, p, off) in ops {
            let p = ProcId(p * 2);
            let off = off % REGION;
            let len = 8u64.min(REGION - off); // stay inside the allocation
            // Work on the first-touch region: migration and claiming interact.
            let at = regions[2].offset(off);
            let (cf, cs) = match kind {
                0..=4 => (fast.read_at(p, at, len, now), slow.read_at(p, at, len, now)),
                5 | 6 => (fast.write_at(p, at, len, now), slow.write_at(p, at, len, now)),
                _ => {
                    let bytes = (REGION - off).max(1);
                    (
                        fast.migrate_to_proc(at, bytes, p.index()),
                        slow.migrate_to_proc(at, bytes, p.index()),
                    )
                }
            };
            prop_assert_eq!(cf, cs, "cycle divergence at offset {}", off);
            now += cf;
        }
        assert_same_state(&fast, &slow, &regions, nprocs)?;
    }

    /// Zero-contention mode, pinned explicitly: a config without the
    /// contention engine must be the *same machine* as the frozen
    /// oracle — identical cycles, counters and state over mixed streams
    /// with migrations — and must report no contention activity at all.
    #[test]
    fn zero_contention_mode_matches_oracle(
        ops in prop::collection::vec(
            (0u8..16, 0usize..32, 0usize..3, 0u64..REGION, 1u64..96),
            1..250,
        ),
        np_sel in 0usize..3,
    ) {
        let nprocs = [2, 8, 32][np_sel];
        let cfg = small_cache_config(nprocs);
        prop_assert!(cfg.contention.is_none(), "zero-contention mode is the default");
        let mut fast = Machine::new(cfg);
        let mut slow = OracleMachine::new(cfg);
        let regions = alloc_regions(&mut fast, &mut slow);
        let mut now = 0u64;
        for (kind, p, region, off, len) in ops {
            let pi = p % nprocs;
            let p = ProcId(pi);
            let off = off % REGION;
            let len = len.min(REGION - off);
            let at = regions[region].offset(off);
            let (cf, cs) = match kind {
                0..=6 => (fast.read_at(p, at, len, now), slow.read_at(p, at, len, now)),
                7..=12 => (fast.write_at(p, at, len, now), slow.write_at(p, at, len, now)),
                13 | 14 => (fast.prefetch(p, at, len, now), slow.prefetch(p, at, len, now)),
                _ => (
                    fast.migrate_to_proc(at, len, pi),
                    slow.migrate_to_proc(at, len, pi),
                ),
            };
            prop_assert_eq!(cf, cs, "cycle divergence at op on line {}", at.0 / 16);
            now += cf;
        }
        assert_same_state(&fast, &slow, &regions, nprocs)?;
        prop_assert_eq!(fast.contention_stats(), crate::ContentionStats::default());
    }

    /// The determinism property for contended configs (no oracle exists for
    /// them): the same seed/config/stream run twice produces byte-identical
    /// per-access latencies, monitor counters and contention statistics.
    /// The engine is part of the single-threaded simulator, so this cannot
    /// depend on host parallelism.
    #[test]
    fn contended_mode_is_deterministic(
        ops in prop::collection::vec(
            (0u8..16, 0usize..32, 0usize..3, 0u64..REGION, 1u64..96),
            1..250,
        ),
        np_sel in 0usize..3,
    ) {
        let nprocs = [2, 8, 32][np_sel];
        let cfg = small_cache_config(nprocs)
            .with_contention(crate::ContentionConfig::dash());
        let run = |ops: &[(u8, usize, usize, u64, u64)]| {
            let mut m = Machine::new(cfg);
            let a = m.alloc_on_node(NodeId(0), REGION);
            let b = m.alloc_interleaved(REGION);
            let c = m.alloc_first_touch(REGION);
            let regions = [a, b, c];
            let mut now = 0u64;
            let mut costs = Vec::with_capacity(ops.len());
            for &(kind, p, region, off, len) in ops {
                let pi = p % nprocs;
                let p = ProcId(pi);
                let off = off % REGION;
                let len = len.min(REGION - off);
                let at = regions[region].offset(off);
                let cost = match kind {
                    0..=6 => m.read_at(p, at, len, now),
                    7..=12 => m.write_at(p, at, len, now),
                    13 | 14 => m.prefetch(p, at, len, now),
                    _ => m.migrate_to_proc(at, len, pi),
                };
                costs.push(cost);
                now += cost;
            }
            let counters: Vec<_> = (0..nprocs).map(|p| *m.monitor().proc(p)).collect();
            (costs, counters, m.contention_stats())
        };
        let first = run(&ops);
        let second = run(&ops);
        prop_assert_eq!(&first.0, &second.0, "per-access latencies diverged");
        prop_assert_eq!(&first.1, &second.1, "monitor counters diverged");
        prop_assert_eq!(first.2, second.2, "contention stats diverged");
        // Any reference op on a cold machine misses, so the engine must
        // have carried transactions (a stream of only migrations carries
        // none).
        if ops.iter().any(|&(kind, ..)| kind < 15) {
            prop_assert!(first.2.total_requests() > 0, "no transactions carried");
        }
    }
}
