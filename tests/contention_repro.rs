//! Contention behaviour of the committed reproduction tables.
//!
//! The paper's motivation for locality-aware scheduling is that DASH's
//! buses, mesh and directories are *shared*: references that miss locally
//! do not just pay latency, they queue. With the contention engine
//! enabled (repro epoch 2), the committed `results/full/` records carry
//! per-point queue-wait totals, and this suite pins the qualitative facts
//! the figures now rest on:
//!
//! * Panel Cholesky's `Base` series — no object distribution, so every
//!   panel miss hammers the home cluster — accumulates strictly more wait
//!   cycles at every step up in processor count;
//! * at 24 processors, running Panel Cholesky with contention modelled is
//!   strictly slower than the zero-contention fast path on the identical
//!   workload (speedup degrades under contention);
//! * locality pays off *through* contention: the object-distributed Ocean
//!   series holds a far lower wait total than `Base` at 32 processors.
//!
//! The wait-monotonicity checks read the committed records, so they also
//! gate against a stale `results/full/` directory.

use bench::repro::parse_records_doc;
use bench::Scale;
use cool_repro::apps::{self, Version};
use cool_repro::cool_sim::SimConfig;

fn full_records() -> Vec<bench::repro::ReproRecord> {
    let path =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("results/full/records.json");
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
    parse_records_doc(&text).expect("committed records parse")
}

#[test]
fn panel_base_wait_cycles_strictly_increase_with_procs() {
    let recs = full_records();
    let mut series: Vec<(usize, u64)> = recs
        .iter()
        .filter(|r| r.app == "panel_cholesky" && r.series == "Base" && r.nprocs > 1)
        .map(|r| (r.nprocs, r.wait_cycles))
        .collect();
    series.sort();
    assert!(series.len() >= 4, "expected the 2–24 processor ladder: {series:?}");
    for pair in series.windows(2) {
        assert!(
            pair[1].1 > pair[0].1,
            "panel/Base wait cycles not strictly increasing: {series:?}"
        );
    }
}

#[test]
fn panel_speedup_at_24_procs_degrades_under_contention() {
    // Same workload, same machine, same policy — the only difference is
    // whether references queue on the shared resources. The contended run
    // must be strictly slower, i.e. its speedup over the (shared) serial
    // baseline strictly lower.
    let prob = apps::driver::panel_problem(Scale::Full.app_scale());
    let v = Version::Base;
    let contended = apps::panel_cholesky::run(Scale::Full.config(24, v), &prob, v);
    // `MachineConfig::dash` leaves `contention` at `None` — the fast path.
    let zero_cfg = SimConfig::new(cool_repro::cool_sim::MachineConfig::dash(24))
        .with_policy(v.policy());
    let zero = apps::panel_cholesky::run(zero_cfg, &prob, v);
    assert_eq!(
        zero.run.contention.total_wait(),
        0,
        "zero-contention run must report no waits"
    );
    assert!(contended.run.contention.total_wait() > 0);
    assert!(
        contended.run.elapsed > zero.run.elapsed,
        "contention must cost cycles at 24 processors: contended {} vs zero {}",
        contended.run.elapsed,
        zero.run.elapsed
    );
}

#[test]
fn distributed_ocean_waits_less_than_base_at_scale() {
    let recs = full_records();
    let wait = |series: &str| -> u64 {
        recs.iter()
            .find(|r| r.app == "ocean" && r.series == series && r.nprocs == 32)
            .unwrap_or_else(|| panic!("missing ocean/{series}@32"))
            .wait_cycles
    };
    let base = wait("Base");
    let distr = wait("Distr");
    assert!(
        distr * 2 < base,
        "object distribution should at least halve the wait total at 32 \
         processors: Base {base}, Distr {distr}"
    );
}

#[test]
fn committed_records_carry_the_contention_epoch() {
    let recs = full_records();
    for r in &recs {
        assert!(
            r.config.contains("epoch=2"),
            "record {}/{}@{} predates the contention epoch: {}",
            r.app,
            r.series,
            r.nprocs,
            r.config
        );
        assert!(
            r.config.contains("ctn=bus"),
            "full-scale records must run the contention engine: {}",
            r.config
        );
    }
}
