//! Determinism guarantees of the `cool-repro` sweep engine
//! (`bench::repro`).
//!
//! The reproduction pipeline rests on three promises:
//!
//! 1. a matrix point is a pure function of its config — running it twice
//!    yields byte-identical records;
//! 2. the sweep on the threaded runtime produces exactly the records the
//!    serial reference loop produces, in matrix order;
//! 3. a point's config string names everything that shaped its run — the
//!    machine tree included — so a record's provenance tells a deep-machine
//!    run from a classic one.

use bench::repro::{self, records_doc, MatrixPoint};
use bench::Scale;
use apps::Version;

fn sample_points() -> Vec<MatrixPoint> {
    repro::build_matrix(
        &["gauss", "locusroute"],
        Some(&[Version::Base, Version::AffinityDistr]),
        Some(&[1, 4]),
        Scale::Small,
    )
}

#[test]
fn same_point_twice_is_byte_identical() {
    let point = MatrixPoint {
        app: "ocean",
        version: Version::AffinityDistr,
        nprocs: 4,
        scale: Scale::Small,
    };
    let a = point.run();
    let b = point.run();
    assert_eq!(a, b);
    assert_eq!(a.to_json(0), b.to_json(0));
}

#[test]
fn pool_matches_serial_reference() {
    let points = sample_points();
    let (serial, _) = repro::run_serial(&points);
    // Force multiple workers even on a single-CPU host so the steal path
    // and out-of-order completion actually get exercised.
    let outcome = repro::run_sweep(&points, 4, false).expect("clean sweep");
    assert_eq!(outcome.records, serial);
    assert_eq!(
        records_doc("small", &outcome.records),
        records_doc("small", &serial)
    );
    // Every point produced a begin/end pair in the sweep's own trace.
    let begins = outcome
        .trace
        .events
        .iter()
        .filter(|e| matches!(e, cool_core::Event::TaskBegin { .. }))
        .count();
    assert_eq!(begins, points.len());
}

#[test]
fn deep_topology_fingerprints_separately_from_classic() {
    // The same app/version/processor-count at deep scale must carry a
    // different config string: the machine fingerprint carries the tree.
    let small = MatrixPoint {
        app: "gauss",
        version: Version::Base,
        nprocs: 8,
        scale: Scale::Small,
    };
    let deep = MatrixPoint {
        scale: Scale::Deep,
        ..small
    };
    assert_ne!(small.config_string(), deep.config_string());
    assert!(
        deep.config_string().contains("tree=2x8x32@1 rlat=100/180"),
        "{}",
        deep.config_string()
    );
    assert!(
        !small.config_string().contains("tree="),
        "{}",
        small.config_string()
    );
}

#[test]
fn speedups_are_relative_to_the_one_proc_baseline() {
    let points = repro::build_matrix(&["gauss"], None, Some(&[1, 8]), Scale::Small);
    let (records, _) = repro::run_serial(&points);
    let base = records
        .iter()
        .find(|r| r.series == "Base" && r.nprocs == 1)
        .expect("baseline present");
    assert_eq!(base.speedup, 1.0);
    for r in &records {
        if r.nprocs == 8 {
            let expect = base.elapsed as f64 / r.elapsed as f64;
            assert!(
                (r.speedup - expect).abs() < 1e-5,
                "{}/{}: speedup {} vs {}",
                r.app,
                r.series,
                r.speedup,
                expect
            );
        }
    }
}
