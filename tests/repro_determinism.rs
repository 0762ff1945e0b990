//! Determinism and memoization guarantees of the `cool-repro` sweep
//! engine (`bench::repro`).
//!
//! The reproduction pipeline rests on three promises:
//!
//! 1. a matrix point is a pure function of its config — running it twice
//!    yields byte-identical records;
//! 2. the parallel work-stealing pool produces exactly the records the
//!    serial reference loop produces, in matrix order;
//! 3. the memo cache is keyed by the full config fingerprint — a second
//!    sweep hits, a mutated config misses.

use bench::repro::{
    self, records_doc, MatrixPoint, MemoCache, ReproRecord, SweepOptions,
};
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
    let outcome = repro::run_sweep(
        &points,
        &SweepOptions {
            jobs: 4,
            cache: None,
            progress: false,
        },
    );
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
fn memoization_hits_on_repeat_and_misses_on_mutation() {
    let dir = std::env::temp_dir().join(format!(
        "cool-repro-test-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let cache = MemoCache::open(&dir).expect("cache dir");
    let points = sample_points();

    let cold = repro::run_sweep(
        &points,
        &SweepOptions {
            jobs: 2,
            cache: Some(cache),
            progress: false,
        },
    );
    assert_eq!(cold.cache_hits, 0);
    assert_eq!(cold.cache_misses, points.len());

    let cache = MemoCache::open(&dir).expect("cache dir");
    let warm = repro::run_sweep(
        &points,
        &SweepOptions {
            jobs: 2,
            cache: Some(cache),
            progress: false,
        },
    );
    assert_eq!(warm.cache_hits, points.len());
    assert_eq!(warm.cache_misses, 0);
    assert_eq!(warm.records, cold.records, "memoized records must be exact");

    // A record stored under the right hash but carrying a different config
    // string (collision / stale epoch) must degrade to a miss.
    let point = points[0];
    let mut forged: ReproRecord = point.run();
    forged.config = format!("{} | epoch=999", point.config_string());
    std::fs::write(
        dir.join(format!("{}.json", point.hash_hex())),
        forged.to_json(0),
    )
    .expect("forge cache entry");
    let cache = MemoCache::open(&dir).expect("cache dir");
    assert!(cache.lookup(&point).is_none(), "mutated config must miss");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn deep_topology_memoizes_separately_from_classic() {
    // The same app/version/processor-count at deep scale must key a
    // different cache slot: the machine fingerprint carries the tree.
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
    assert_ne!(small.hash_hex(), deep.hash_hex());
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

    // A record forged under the classic hash but carrying the deep machine
    // fingerprint must degrade to a miss, never be served for the classic
    // point.
    let dir = std::env::temp_dir().join(format!(
        "cool-repro-deeptest-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let cache = MemoCache::open(&dir).expect("cache dir");
    let mut forged: ReproRecord = small.run();
    forged.config = deep.config_string();
    std::fs::write(
        dir.join(format!("{}.json", small.hash_hex())),
        forged.to_json(0),
    )
    .expect("forge cache entry");
    assert!(
        cache.lookup(&small).is_none(),
        "deep-topology record must not satisfy a classic lookup"
    );
    let _ = std::fs::remove_dir_all(&dir);
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
