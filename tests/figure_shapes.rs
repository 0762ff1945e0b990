//! Integration tests asserting the *qualitative shapes* of the paper's
//! figures at test scale: who wins, what improves, and that no scheduling
//! version ever changes a numeric result. Absolute magnitudes come from the
//! `repro` matrix (committed under `results/full`) and are recorded in
//! EXPERIMENTS.md.

use cool_repro::apps::{self, Version};
use cool_repro::cool_sim::{MachineConfig, SimConfig, Topology};

fn flat(nprocs: usize, v: Version) -> SimConfig {
    let m = MachineConfig {
        topology: Topology::flat(nprocs),
        ..MachineConfig::dash_small(nprocs)
    };
    SimConfig::new(m).with_policy(v.policy())
}

fn small(nprocs: usize, v: Version) -> SimConfig {
    SimConfig::new(MachineConfig::dash_small(nprocs)).with_policy(v.policy())
}

// ---- Ocean (Figures 5-7) ----

#[test]
fn ocean_distribution_and_affinity_beat_base() {
    let p = cool_repro::workloads::ocean::OceanParams {
        n: 32,
        num_grids: 6,
        regions: 8,
        sweeps: 3,
        seed: 3,
    };
    let base = apps::ocean::run(flat(8, Version::Base), &p, Version::Base);
    let aff = apps::ocean::run(flat(8, Version::AffinityDistr), &p, Version::AffinityDistr);
    assert!(base.max_error < 1e-12 && aff.max_error < 1e-12);
    assert!(
        aff.run.elapsed < base.run.elapsed,
        "Ocean: affinity+distr {} should beat base {}",
        aff.run.elapsed,
        base.run.elapsed
    );
    assert!(
        aff.run.mem.local_fraction() > base.run.mem.local_fraction(),
        "Ocean: distribution should raise the local fraction"
    );
}

// ---- LocusRoute (Figures 10-11) ----

fn locus_params() -> apps::locusroute::LocusParams {
    apps::locusroute::LocusParams {
        circuit: cool_repro::workloads::circuit::Circuit::generate(
            cool_repro::workloads::circuit::CircuitParams {
                width: 64,
                height: 32,
                regions: 8,
                wires_per_region: 48,
                crossing_fraction: 0.1,
            multi_pin_fraction: 0.15,
                seed: 11,
            },
        ),
        iterations: 2,
    }
}

#[test]
fn locusroute_affinity_halves_misses_and_adheres() {
    let p = locus_params();
    let base = apps::locusroute::run(small(8, Version::Base), &p, Version::Base);
    let aff = apps::locusroute::run(small(8, Version::Affinity), &p, Version::Affinity);
    assert_eq!(base.max_error, 0.0);
    assert_eq!(aff.max_error, 0.0);
    // Figure 11: "affinity scheduling nearly halves the number of cache
    // misses". Shape check: a solid reduction.
    assert!(
        (aff.run.mem.misses() as f64) < 0.75 * base.run.mem.misses() as f64,
        "misses: affinity {} vs base {}",
        aff.run.mem.misses(),
        base.run.mem.misses()
    );
    // Section 6.2: "most of the wire tasks (over 80%) in a region are routed
    // on the corresponding processor".
    assert!(
        aff.run.stats.adherence() > 0.8,
        "adherence {}",
        aff.run.stats.adherence()
    );
}

#[test]
fn locusroute_distribution_localises_misses_without_changing_their_count() {
    let p = locus_params();
    let aff = apps::locusroute::run(flat(8, Version::Affinity), &p, Version::Affinity);
    let distr = apps::locusroute::run(flat(8, Version::AffinityDistr), &p, Version::AffinityDistr);
    // Figure 11: "The number of cache misses remain unchanged but more of
    // them are serviced in local rather than remote memory."
    let ratio = distr.run.mem.misses() as f64 / aff.run.mem.misses() as f64;
    assert!(
        (0.7..1.3).contains(&ratio),
        "distribution changed miss count: {ratio}"
    );
    assert!(
        distr.run.mem.local_fraction() > aff.run.mem.local_fraction() + 0.2,
        "local fraction: distr {} vs aff {}",
        distr.run.mem.local_fraction(),
        aff.run.mem.local_fraction()
    );
}

// ---- Panel Cholesky (Figures 12-15) ----

fn panel_problem() -> apps::panel_cholesky::PanelProblem {
    apps::panel_cholesky::PanelProblem::analyse(&apps::panel_cholesky::PanelParams {
        matrix: cool_repro::workloads::matrices::grid_laplacian(12),
        max_panel_width: 4,
    })
}

#[test]
fn panel_cholesky_affinity_wins_and_all_versions_agree() {
    let prob = panel_problem();
    let mut elapsed = std::collections::HashMap::new();
    for v in Version::ALL {
        let rep = apps::panel_cholesky::run(small(8, v), &prob, v);
        assert!(rep.max_error < 1e-9, "{v:?} diverged: {}", rep.max_error);
        elapsed.insert(v.label(), rep.run.elapsed);
    }
    // Figure 14 ordering at scale: affinity versions beat Base and Distr.
    assert!(
        elapsed["Affinity+Distr"] < elapsed["Base"],
        "Affinity+Distr {} vs Base {}",
        elapsed["Affinity+Distr"],
        elapsed["Base"]
    );
    assert!(
        elapsed["Affinity+Distr"] < elapsed["Distr"],
        "Affinity+Distr {} vs Distr {}",
        elapsed["Affinity+Distr"],
        elapsed["Distr"]
    );
}

#[test]
fn panel_cholesky_affinity_cuts_misses() {
    let prob = panel_problem();
    let base = apps::panel_cholesky::run(small(8, Version::Base), &prob, Version::Base);
    let aff = apps::panel_cholesky::run(small(8, Version::AffinityDistr), &prob, Version::AffinityDistr);
    // Figure 15: affinity scheduling significantly reduces cache misses.
    assert!(
        (aff.run.mem.misses() as f64) < 0.7 * base.run.mem.misses() as f64,
        "misses: aff {} vs base {}",
        aff.run.mem.misses(),
        base.run.mem.misses()
    );
}

// ---- Gauss (Figure 3 example) ----

#[test]
fn gauss_task_object_affinity_improves_on_round_robin() {
    let p = apps::gauss::GaussParams { n: 48, seed: 7 };
    let base = apps::gauss::run(flat(8, Version::Base), &p, Version::Base);
    let aff = apps::gauss::run(flat(8, Version::AffinityDistr), &p, Version::AffinityDistr);
    assert!(base.max_error < 1e-9 && aff.max_error < 1e-9);
    assert!(
        aff.run.elapsed < base.run.elapsed,
        "GE: Figure 3 hints {} should beat round-robin {}",
        aff.run.elapsed,
        base.run.elapsed
    );
    assert!(aff.run.mem.local_fraction() > base.run.mem.local_fraction());
}

// ---- Block Cholesky & Barnes-Hut (Figure 16) ----

#[test]
fn block_cholesky_affinity_improves() {
    let p = apps::block_cholesky::BlockParams { n: 64, block: 8 };
    let base = apps::block_cholesky::run(flat(8, Version::Base), &p, Version::Base);
    let aff = apps::block_cholesky::run(flat(8, Version::AffinityDistr), &p, Version::AffinityDistr);
    assert!(base.max_error < 1e-8 && aff.max_error < 1e-8);
    assert!(
        aff.run.mem.local_fraction() > base.run.mem.local_fraction(),
        "block: locality should improve"
    );
}

#[test]
fn barnes_hut_schedule_never_changes_trajectories() {
    let p = apps::barnes_hut::BhParams {
        nbodies: 96,
        groups: 12,
        timesteps: 3,
        theta: 0.7,
        dt: 0.01,
        seed: 4,
    };
    for v in [Version::Base, Version::Distr, Version::AffinityDistr] {
        let rep = apps::barnes_hut::run(small(6, v), &p, v);
        assert!(rep.max_error < 1e-12, "{v:?}: {}", rep.max_error);
    }
}

// ---- Cross-version invariants ----

#[test]
fn speedup_grows_with_processors_for_hinted_versions() {
    let prob = panel_problem();
    let t1 = apps::panel_cholesky::run(small(1, Version::AffinityDistr), &prob, Version::AffinityDistr)
        .run
        .elapsed;
    let t4 = apps::panel_cholesky::run(small(4, Version::AffinityDistr), &prob, Version::AffinityDistr)
        .run
        .elapsed;
    assert!(
        (t4 as f64) < 0.8 * t1 as f64,
        "no parallel speedup: t1={t1} t4={t4}"
    );
}

#[test]
fn cluster_stealing_never_crosses_clusters() {
    let prob = panel_problem();
    let rep = apps::panel_cholesky::run(
        small(8, Version::AffinityDistrCluster),
        &prob,
        Version::AffinityDistrCluster,
    );
    assert_eq!(rep.run.stats.remote_steals, 0);
    assert!(rep.max_error < 1e-9);
}
