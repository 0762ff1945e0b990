//! Behavioural guarantees of the adaptive policy layer (ISSUE 10):
//!
//! 1. the phase-boundary rebalancer recovers a deliberately bad static
//!    placement — speedup strictly improves;
//! 2. adaptive ladder versions with adaptation disabled (or configured
//!    to be inert) are cycle-identical to their static parents — the
//!    feedback instrumentation itself never perturbs the schedule;
//! 3. the `adapt=`/`rebal=` fingerprint segments key their own memo slots,
//!    so a static record can never satisfy an adaptive point (and vice
//!    versa);
//! 4. the committed `results/adaptive/` table really contains the
//!    dominance the PR claims: `Affinity+Distr+Rebalance` ≥ its static
//!    parent at every processor count on the ocean deep table, strictly
//!    better somewhere.

use apps::Version;
use bench::repro::{self, MatrixPoint, MemoCache};
use bench::Scale;
use cool_core::{AdaptiveConfig, AffinitySpec, RebalanceConfig, StealPolicy};
use cool_sim::{MachineConfig, SimConfig, SimRuntime, Task};

/// All data homed on cluster 0, all work pinned to cluster 1: the worst
/// static placement the paper's object-distribution primitives can produce.
/// Several read-heavy phases over the same arrays give the rebalancer both
/// the traffic evidence and the phase boundaries it needs. Stealing is off —
/// with it on, idle cluster-0 servers would drag the "pinned" tasks back to
/// the data and the placement would not stay bad.
fn badly_placed_run(rebalance: Option<RebalanceConfig>) -> (u64, u64) {
    let mut cfg =
        SimConfig::new(MachineConfig::dash_small(8)).with_policy(StealPolicy::disabled());
    if let Some(rb) = rebalance {
        cfg = cfg.with_rebalance(rb);
    }
    let mut rt = SimRuntime::new(cfg);
    // 64 KiB of data, all on processor 0 (cluster 0) — four times the
    // 16 KiB L2, so every phase misses all the way to memory and the
    // home-cluster distance is paid again and again.
    let objs: Vec<_> = (0..8)
        .map(|_| rt.machine_mut().alloc_on_proc(0, 8192))
        .collect();
    for _phase in 0..6 {
        let objs = objs.clone();
        rt.run_phase(move |ctx| {
            // Every task runs on cluster 1 (processors 4..8) and scans all
            // eight arrays.
            for p in 4..8 {
                let objs = objs.clone();
                ctx.spawn(
                    Task::new(move |c| {
                        for &obj in &objs {
                            c.read(obj, 8192);
                        }
                        c.compute(500);
                    })
                    .with_affinity(AffinitySpec::processor(p)),
                );
            }
        });
    }
    (rt.elapsed(), rt.stats().rebalanced_pages)
}

#[test]
fn rebalancer_recovers_bad_placement() {
    let (static_elapsed, static_moves) = badly_placed_run(None);
    assert_eq!(static_moves, 0);
    let (rebal_elapsed, rebal_moves) = badly_placed_run(Some(RebalanceConfig {
        min_remote: 8,
        margin_permille: 1000,
    }));
    assert!(rebal_moves > 0, "rebalancer never fired");
    assert!(
        rebal_elapsed < static_elapsed,
        "rebalanced run must be strictly faster: {rebal_elapsed} vs {static_elapsed}"
    );
}

#[test]
fn rebalancer_is_deterministic() {
    let rb = RebalanceConfig {
        min_remote: 8,
        margin_permille: 1000,
    };
    assert_eq!(badly_placed_run(Some(rb)), badly_placed_run(Some(rb)));
}

/// An AdaptiveConfig whose thresholds can never fire: the fail rate cannot
/// exceed 1000‰, the probe cap is disabled, and the migration throttle is
/// off. Running with it exercises every observation path while the controls
/// stay at their static values.
fn inert_adaptive() -> AdaptiveConfig {
    AdaptiveConfig {
        window: 32,
        widen_fail_permille: 1001,
        migrate_remote_permille: 0,
        probe_base: 0,
        probe_per_depth: 0,
    }
}

fn run_deep(app: &str, v: Version, cfg: SimConfig) -> (u64, u64, u64) {
    let rep = apps::driver::run_app(app, cfg, Scale::Deep.app_scale(), v, None);
    assert!(rep.max_error < 1e-6, "{app} numerically wrong");
    (rep.run.elapsed, rep.run.mem.refs, rep.run.mem.remote_misses)
}

#[test]
fn inert_adaptation_is_cycle_identical_to_static_parent() {
    for app in ["gauss", "ocean"] {
        for nprocs in [8, 32] {
            // AdaptiveSteal's static parent is ClusterSteal: with the
            // feedback configured but inert, the schedule (and therefore
            // every cycle and miss count) must match exactly.
            let parent = run_deep(
                app,
                Version::AffinityDistrCluster,
                Scale::Deep.config(nprocs, Version::AffinityDistrCluster),
            );
            let inert = run_deep(
                app,
                Version::AffinityDistrAdaptive,
                Scale::Deep
                    .config(nprocs, Version::AffinityDistrCluster)
                    .with_adaptive(inert_adaptive()),
            );
            assert_eq!(parent, inert, "{app} at {nprocs}p diverged under inert feedback");

            // Rebalance's static parent is Affinity+Distr: with the page
            // traffic monitor on but the move threshold unreachable, the
            // run must again be cycle-identical.
            let parent = run_deep(
                app,
                Version::AffinityDistr,
                Scale::Deep.config(nprocs, Version::AffinityDistr),
            );
            let inert = run_deep(
                app,
                Version::AffinityDistrRebalance,
                Scale::Deep
                    .config(nprocs, Version::AffinityDistr)
                    .with_rebalance(RebalanceConfig {
                        min_remote: u32::MAX,
                        margin_permille: 3000,
                    }),
            );
            assert_eq!(parent, inert, "{app} at {nprocs}p diverged under inert rebalancer");
        }
    }
}

#[test]
fn adaptive_fingerprint_segments_key_their_own_memo_slots() {
    let parent = MatrixPoint {
        app: "gauss",
        version: Version::AffinityDistrCluster,
        nprocs: 8,
        scale: Scale::Deep,
    };
    let adaptive = MatrixPoint {
        version: Version::AffinityDistrAdaptive,
        ..parent
    };
    let rebalance = MatrixPoint {
        version: Version::AffinityDistrRebalance,
        ..parent
    };
    assert!(adaptive.config_string().contains("adapt=w"), "{}", adaptive.config_string());
    assert!(rebalance.config_string().contains("rebal=m"), "{}", rebalance.config_string());
    assert!(!parent.config_string().contains("adapt="));
    assert!(!parent.config_string().contains("rebal="));
    assert_ne!(parent.hash_hex(), adaptive.hash_hex());
    assert_ne!(parent.hash_hex(), rebalance.hash_hex());
    assert_ne!(adaptive.hash_hex(), rebalance.hash_hex());

    // A cache warmed with the static parent's record must miss for the
    // adaptive points, and an adaptive record must round-trip under its
    // own key.
    let dir = std::env::temp_dir().join(format!(
        "cool-adaptive-memo-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let cache = MemoCache::open(&dir).expect("cache dir");
    cache.store(&parent.run()).expect("store parent");
    assert!(cache.lookup(&parent).is_some());
    assert!(cache.lookup(&adaptive).is_none(), "static record satisfied adaptive point");
    assert!(cache.lookup(&rebalance).is_none(), "static record satisfied rebalance point");
    cache.store(&adaptive.run()).expect("store adaptive");
    let hit = cache.lookup(&adaptive).expect("adaptive round-trip");
    assert!(hit.config.contains("adapt=w"));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn committed_adaptive_table_contains_the_claimed_dominance() {
    let text = std::fs::read_to_string("results/adaptive/records.json")
        .expect("committed results/adaptive/records.json");
    let records = repro::parse_records_doc(&text).expect("parseable golden");
    let speedup = |series: &str, nprocs: usize| {
        records
            .iter()
            .find(|r| r.app == "ocean" && r.series == series && r.nprocs == nprocs)
            .unwrap_or_else(|| panic!("missing ocean/{series}/{nprocs} record"))
            .speedup
    };
    let mut strictly_better = false;
    for nprocs in [1, 8, 32, 64] {
        let parent = speedup("Affinity+Distr", nprocs);
        let rebal = speedup("Affinity+Distr+Rebalance", nprocs);
        assert!(
            rebal >= parent,
            "Rebalance below parent at {nprocs}p: {rebal} vs {parent}"
        );
        if rebal > parent {
            strictly_better = true;
        }
    }
    assert!(strictly_better, "Rebalance never strictly beats its parent on ocean");
}
