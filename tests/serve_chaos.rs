//! Chaos-under-load contracts for the `cool-serve` work server: the
//! acceptance gates of the service layer.
//!
//! * a fixed-seed faulted LocusRoute replay must shed and retry — and still
//!   lose nothing, double-run nothing, and conserve route occupancy;
//! * injected service faults are keyed by request id / shard domain, so the
//!   victim set is identical under any submission interleaving;
//! * drain-under-load (randomised over arrival schedules, queue capacities,
//!   drain points, and fault seeds): every admitted request reaches a
//!   terminal outcome, every post-drain submission is refused with the typed
//!   error, and no idempotency key's body ever succeeds twice;
//! * a drain racing a submit either refuses the request or waits for it.

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Duration;

use bench::serve::{run_load, smoke_config, validate_serve_json};
use cool_repro::cool_core::FaultPlan;
use cool_repro::cool_rt::serve::Outcome;
use cool_repro::cool_rt::{Request, ServeConfig, SubmitError, WorkServer};
use proptest::prelude::*;

/// The CI acceptance run: pinned smoke profile, chaos armed. Overload must
/// shed, injected failures must retry, and the books must still balance —
/// with the report in canonical `cool-serve-v1` byte form.
#[test]
fn fixed_seed_chaos_replay_sheds_retries_and_loses_nothing() {
    let cfg = smoke_config(42, true);
    let (report, _obs) = run_load(&cfg);
    report.validate().unwrap_or_else(|e| panic!("invariants: {e}"));
    assert!(report.completed > 0, "nothing completed: {report:?}");
    assert!(report.shed > 0, "overload never shed: {report:?}");
    assert!(report.retries > 0, "faults never retried: {report:?}");
    assert!(report.injected_failures > 0, "chaos never fired: {report:?}");
    assert!(report.intake_stalls >= 1, "intake stall never fired");
    assert_eq!(report.lost, 0);
    assert_eq!(report.double_executed, 0);
    assert_eq!(report.conservation, "ok");
    // The document round-trips byte-identically (the schema contract).
    validate_serve_json(&report.to_json()).unwrap();
}

/// Run `n` trivial requests through a fresh server under `plan`, submitting
/// in the order given by `order`, and return (victim ids that consumed an
/// injected failure, per-request completed attempts, injected count).
fn run_order(n: u64, order: &[u64], plan: &FaultPlan) -> (BTreeSet<u64>, Vec<u32>, u64) {
    let cfg = ServeConfig::new(2, 1)
        .with_capacity(n as usize * 2) // ample: nothing sheds, all admitted
        .with_retry(3, Duration::from_micros(50), Duration::from_millis(1));
    let srv = WorkServer::with_faults(cfg, plan.clone());
    for &id in order {
        srv.submit(Request::new(id, id % 2, 1, |_| Ok(())))
            .unwrap_or_else(|e| panic!("request {id} refused: {e}"));
    }
    srv.drain();
    let outcomes = srv.outcomes();
    assert_eq!(outcomes.len() as u64, n);
    let mut victims = BTreeSet::new();
    let mut attempts = vec![0u32; n as usize];
    for (id, rec) in &outcomes {
        match rec.outcome {
            Some(Outcome::Completed { attempts: a, .. }) => {
                attempts[*id as usize] = a;
                if a > 1 {
                    victims.insert(*id);
                }
            }
            ref other => panic!("request {id} not completed: {other:?}"),
        }
    }
    (victims, attempts, srv.stats().injected_failures)
}

/// Satellite contract: fault injection keys on request identity, never on
/// arrival order — forward and scrambled submission see the same victims.
#[test]
fn injected_service_faults_ignore_arrival_interleaving() {
    let n: u64 = 32;
    let plan = FaultPlan::new(7)
        .fail_request(2)
        .fail_request(5)
        .fail_request(11)
        .fail_random_requests(3, n)
        .slow_domain(1, 50);
    let expected: BTreeSet<u64> = (0..n).filter(|&id| plan.should_fail_request(id)).collect();
    assert!(expected.len() >= 3, "plan must name victims: {expected:?}");

    let forward: Vec<u64> = (0..n).collect();
    // A stride-7 permutation of 0..32 (gcd(7, 32) = 1, so it visits all).
    let scrambled: Vec<u64> = (0..n).map(|i| (i * 7) % n).collect();
    let (v1, a1, inj1) = run_order(n, &forward, &plan);
    let (v2, a2, inj2) = run_order(n, &scrambled, &plan);

    assert_eq!(v1, expected, "forward order hit the wrong victims");
    assert_eq!(v2, expected, "scrambled order hit the wrong victims");
    assert_eq!(a1, a2, "per-request attempt counts depend on interleaving");
    assert_eq!(inj1, expected.len() as u64);
    assert_eq!(inj2, inj1);
}

/// Dedup edge cases: a duplicate of an idempotency key must be refused —
/// and the original outcome preserved, its body never re-executed — both
/// while the original is *mid-retry* (failed once, sitting in backoff) and
/// after it has already completed.
#[test]
fn duplicate_mid_retry_and_after_completion_never_reexecutes() {
    let cfg = ServeConfig::new(1, 1)
        .with_capacity(8)
        // A long fixed backoff opens a wide mid-retry window between the
        // first (failing) attempt and the retry.
        .with_retry(2, Duration::from_millis(300), Duration::from_millis(300));
    let srv = WorkServer::new(cfg);
    let runs: Arc<Vec<AtomicU32>> = Arc::new((0..2).map(|_| AtomicU32::new(0)).collect());
    let body = |id: u64, fail_first: bool| {
        let runs = runs.clone();
        move |attempt: u32| {
            runs[id as usize].fetch_add(1, Ordering::SeqCst);
            if fail_first && attempt == 0 {
                Err("transient".to_string())
            } else {
                Ok(())
            }
        }
    };
    let spin_until = |cond: &dyn Fn() -> bool, what: &str| {
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while !cond() {
            assert!(std::time::Instant::now() < deadline, "timed out: {what}");
            std::thread::sleep(Duration::from_micros(200));
        }
    };

    // Request 0 fails its first attempt and retries after the backoff.
    srv.submit(Request::new(0, 0, 1, body(0, true))).unwrap();
    spin_until(&|| runs[0].load(Ordering::SeqCst) == 1, "first attempt of 0");
    // Mid-retry: attempt 1 failed, the retry is waiting out its backoff.
    match srv.submit(Request::new(0, 0, 1, body(0, false))) {
        Err(SubmitError::Duplicate(id)) => assert_eq!(id, 0),
        other => panic!("mid-retry duplicate not refused: {other:?}"),
    }

    // Request 1 completes first try; resubmit after its outcome lands.
    srv.submit(Request::new(1, 0, 1, body(1, false))).unwrap();
    spin_until(
        &|| matches!(srv.outcomes().get(&1).and_then(|r| r.outcome.clone()),
            Some(Outcome::Completed { .. })),
        "completion of 1",
    );
    match srv.submit(Request::new(1, 0, 1, body(1, false))) {
        Err(SubmitError::Duplicate(id)) => assert_eq!(id, 1),
        other => panic!("post-completion duplicate not refused: {other:?}"),
    }

    srv.drain();
    let outcomes = srv.outcomes();
    // Original outcomes stand: 0 completed on its retry, 1 on its first
    // attempt — and the duplicates added zero body executions.
    match &outcomes[&0].outcome {
        Some(Outcome::Completed { attempts: 2, .. }) => {}
        other => panic!("request 0 outcome clobbered: {other:?}"),
    }
    match &outcomes[&1].outcome {
        Some(Outcome::Completed { attempts: 1, .. }) => {}
        other => panic!("request 1 outcome clobbered: {other:?}"),
    }
    assert_eq!(runs[0].load(Ordering::SeqCst), 2, "duplicate re-ran request 0");
    assert_eq!(runs[1].load(Ordering::SeqCst), 1, "duplicate re-ran request 1");
    assert_eq!(srv.stats().duplicates, 2);
    assert_eq!(srv.stats().admitted, 2);
}

/// A drain begun while a submit is in progress must either refuse the
/// request or wait for it: if the submit was admitted, its body has
/// finished when `drain` returns. A reader looping `outcomes()` over
/// 20,000 records holds the request books for long stretches, which
/// widens any window between the submit's draining check and its
/// admission.
#[test]
fn drain_waits_for_a_request_admitted_as_it_began() {
    const RECORDS: u64 = 20_000;
    const TRIALS: usize = 8;
    let (mut admitted, mut early) = (0, 0);
    for _ in 0..TRIALS {
        let srv = WorkServer::new(ServeConfig::new(1, 1).with_capacity(RECORDS as usize));
        for id in 0..RECORDS {
            srv.submit(Request::new(id, 0, 1, |_| Ok(()))).unwrap();
        }
        while srv.outstanding() > 0 {
            std::thread::sleep(Duration::from_micros(200));
        }
        let (stop, finished) = (AtomicBool::new(false), Arc::new(AtomicBool::new(false)));
        let start = Barrier::new(2);
        let (was_admitted, finished_at_drain) = std::thread::scope(|s| {
            s.spawn(|| {
                while !stop.load(Ordering::SeqCst) {
                    std::hint::black_box(srv.outcomes());
                }
            });
            let submit = s.spawn(|| {
                let finished = finished.clone();
                start.wait();
                srv.submit(Request::new(RECORDS, 0, 1, move |_| {
                    std::thread::sleep(Duration::from_millis(2));
                    finished.store(true, Ordering::SeqCst);
                    Ok(())
                }))
                .is_ok()
            });
            start.wait();
            // A head start makes a drain that begins mid-submit likely; the
            // property must hold in every order.
            std::thread::sleep(Duration::from_micros(100));
            srv.drain();
            let finished_at_drain = finished.load(Ordering::SeqCst);
            stop.store(true, Ordering::SeqCst);
            (submit.join().unwrap(), finished_at_drain)
        });
        admitted += usize::from(was_admitted);
        early += usize::from(was_admitted && !finished_at_drain);
    }
    assert_eq!(
        early, 0,
        "drain returned while an admitted request was running in {early} of {admitted} \
         admitted trials ({TRIALS} trials)"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Drain under randomized load: whatever the arrival schedule, queue
    /// capacity, fault seed, and drain point, (a) every admitted request is
    /// terminal after `drain`, (b) every submission after `drain` is refused
    /// with [`SubmitError::Draining`], (c) a duplicate of an admitted id is
    /// refused and its body never succeeds twice, and (d) bodies run only
    /// for admitted ids.
    #[test]
    fn drain_under_load_never_loses_or_double_runs(
        seed in 0u64..1_000,
        nreq in 8u64..40,
        cap in 1usize..6,
        drain_frac in 0u64..100,
        shards in prop::collection::vec(0u64..8, 40),
    ) {
        let plan = FaultPlan::new(seed).fail_random_requests(2, nreq);
        let cfg = ServeConfig::new(2, 1)
            .with_capacity(cap)
            .with_retry(3, Duration::from_micros(50), Duration::from_micros(500));
        let srv = WorkServer::with_faults(cfg, plan);
        let runs: Arc<Vec<AtomicU32>> =
            Arc::new((0..nreq).map(|_| AtomicU32::new(0)).collect());
        let body = |id: u64| {
            let runs = runs.clone();
            move |_attempt: u32| {
                runs[id as usize].fetch_add(1, Ordering::SeqCst);
                Ok(())
            }
        };

        let drain_at = nreq * drain_frac / 100;
        let mut admitted = BTreeSet::new();
        for id in 0..drain_at {
            if srv.submit(Request::new(id, shards[id as usize], 1, body(id))).is_ok() {
                admitted.insert(id);
            }
        }
        // Duplicate of an already-admitted id must be refused by key and
        // must not enqueue another body run.
        if let Some(&dup) = admitted.iter().next() {
            match srv.submit(Request::new(dup, 0, 1, body(dup))) {
                Err(SubmitError::Duplicate(id)) => prop_assert_eq!(id, dup),
                other => {
                    return Err(TestCaseError::fail(format!(
                        "duplicate of {dup} not refused: {other:?}"
                    )))
                }
            }
        }
        srv.drain();
        // Everything submitted after the drain gets the typed refusal.
        for id in drain_at..nreq {
            match srv.submit(Request::new(id, shards[id as usize], 1, body(id))) {
                Err(SubmitError::Draining) => {}
                other => {
                    return Err(TestCaseError::fail(format!(
                        "post-drain submit of {id} not refused: {other:?}"
                    )))
                }
            }
        }

        let outcomes = srv.outcomes();
        prop_assert_eq!(outcomes.len(), admitted.len());
        for (id, rec) in &outcomes {
            prop_assert!(admitted.contains(id), "phantom record for {}", id);
            prop_assert!(rec.outcome.is_some(), "request {} lost in drain", id);
            prop_assert!(
                rec.body_successes <= 1,
                "request {} succeeded {} times",
                id,
                rec.body_successes
            );
            prop_assert_eq!(runs[*id as usize].load(Ordering::SeqCst), rec.body_runs);
        }
        for id in 0..nreq {
            if !admitted.contains(&id) {
                prop_assert_eq!(
                    runs[id as usize].load(Ordering::SeqCst),
                    0,
                    "unadmitted request {} ran",
                    id
                );
            }
        }
        let st = srv.stats();
        prop_assert_eq!(st.admitted + st.shed + st.duplicates, st.submitted);
        prop_assert_eq!(st.admitted, admitted.len() as u64);
        prop_assert_eq!(
            st.completed + st.failed + st.timed_out,
            st.admitted,
            "outcome books do not balance: {:?}",
            st
        );
    }
}
