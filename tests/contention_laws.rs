//! Queueing-theory validation of the contention engine.
//!
//! The engine's [`Resource`] is a deterministic-service FIFO server, so an
//! open-loop Poisson arrival stream through one resource is an M/D/1 queue
//! and its mean queue wait has a closed form:
//!
//! ```text
//!   Wq = rho * D / (2 * (1 - rho)),   rho = lambda * D
//! ```
//!
//! These tests drive synthetic Poisson streams straight into a `Resource`
//! (no machine, no scheduler) and assert:
//!
//! * the measured mean wait matches the M/D/1 closed form within tolerance
//!   at several offered loads;
//! * measured utilisation (busy cycles over the busy horizon) never
//!   exceeds 1.0;
//! * mean wait is strictly monotone in offered load under common random
//!   numbers (the same uniform stream scaled to each arrival rate);
//! * the engine is deterministic: identical streams produce identical
//!   statistics.
//!
//! Passing here is what justifies reading the contention counters in
//! `results/` as queueing behaviour rather than as arbitrary penalties.

use dash_sim::engine::{Hop, ResourceKind};
use dash_sim::{ContentionConfig, Engine, Resource};

/// Deterministic xorshift64* stream of uniforms in (0, 1).
struct Uniforms {
    x: u64,
}

impl Uniforms {
    fn new(seed: u64) -> Self {
        Uniforms {
            x: seed.max(1),
        }
    }

    fn next(&mut self) -> f64 {
        self.x ^= self.x << 13;
        self.x ^= self.x >> 7;
        self.x ^= self.x << 17;
        // 53 mantissa bits, offset so the value is strictly inside (0, 1).
        ((self.x >> 11) as f64 + 0.5) / 9007199254740992.0
    }
}

/// Drive `n` Poisson arrivals (rate `lambda` per cycle, from `seed`'s
/// uniform stream) through a fresh deterministic-service resource. Returns
/// `(mean wait, utilisation)` where utilisation is busy cycles over the
/// span from the first arrival to the last departure.
fn mdl_run(service: u64, lambda: f64, n: usize, seed: u64) -> (f64, f64) {
    let mut u = Uniforms::new(seed);
    let mut r = Resource::new(service);
    let mut t = 0.0f64;
    let mut last_departure = 0u64;
    for _ in 0..n {
        t += -u.next().ln() / lambda;
        let now = t as u64;
        let wait = r.acquire(now);
        last_departure = now + wait + service;
    }
    let s = r.stats();
    assert_eq!(s.requests, n as u64);
    let horizon = last_departure.max(1);
    (s.mean_wait(), s.busy_cycles as f64 / horizon as f64)
}

/// The M/D/1 mean-queue-wait closed form.
fn mdl_wq(service: u64, rho: f64) -> f64 {
    rho * service as f64 / (2.0 * (1.0 - rho))
}

#[test]
fn mean_wait_matches_md1_closed_form() {
    const SERVICE: u64 = 1000;
    const N: usize = 200_000;
    for (i, &rho) in [0.3, 0.5, 0.7].iter().enumerate() {
        let lambda = rho / SERVICE as f64;
        let (measured, util) = mdl_run(SERVICE, lambda, N, 0x5eed + i as u64);
        let predicted = mdl_wq(SERVICE, rho);
        let rel = (measured - predicted).abs() / predicted;
        assert!(
            rel < 0.10,
            "rho={rho}: measured mean wait {measured:.1}, M/D/1 predicts \
             {predicted:.1} ({:.1}% off, tolerance 10%)",
            rel * 100.0
        );
        assert!(
            util <= 1.0,
            "rho={rho}: utilisation {util:.4} exceeds 1.0"
        );
        // Sanity on the load itself: utilisation should be near rho.
        assert!(
            (util - rho).abs() < 0.05,
            "rho={rho}: utilisation {util:.4} far from offered load"
        );
    }
}

#[test]
fn utilization_saturates_at_one_under_overload() {
    // rho = 1.5: the queue grows without bound but the server can still
    // only be busy 100% of the time.
    const SERVICE: u64 = 100;
    let (_, util) = mdl_run(SERVICE, 1.5 / SERVICE as f64, 50_000, 7);
    assert!(util <= 1.0, "overloaded utilisation {util:.4} exceeds 1.0");
    assert!(util > 0.99, "overloaded server should be saturated: {util:.4}");
}

#[test]
fn mean_wait_is_monotone_in_offered_load() {
    // Common random numbers: each load replays the same uniform stream, so
    // sampling noise cancels and the comparison is load against load.
    const SERVICE: u64 = 1000;
    const N: usize = 50_000;
    let loads = [0.1, 0.2, 0.35, 0.5, 0.65, 0.8];
    let mut prev = -1.0f64;
    for &rho in &loads {
        let mut u = Uniforms::new(0xc0ffee);
        let mut r = Resource::new(SERVICE);
        let lambda = rho / SERVICE as f64;
        let mut t = 0.0f64;
        for _ in 0..N {
            t += -u.next().ln() / lambda;
            r.acquire(t as u64);
        }
        let mean = r.stats().mean_wait();
        assert!(
            mean > prev,
            "mean wait not monotone: rho={rho} gives {mean:.2} after {prev:.2}"
        );
        prev = mean;
    }
}

#[test]
fn engine_statistics_are_deterministic() {
    let run = || {
        let mut eng = Engine::new(ContentionConfig::dash(), 4);
        let mut u = Uniforms::new(42);
        let mut t = 0.0f64;
        for i in 0..10_000u64 {
            t += -u.next().ln() * 8.0;
            let now = t as u64;
            let home = (i % 4) as usize;
            let hops = [
                Hop { kind: ResourceKind::Bus, cluster: (i % 2) as usize },
                Hop { kind: ResourceKind::Net, cluster: home },
                Hop { kind: ResourceKind::Dir, cluster: home },
                Hop { kind: ResourceKind::Mem, cluster: home },
            ];
            eng.transact(now, &hops);
        }
        eng.stats()
    };
    let a = run();
    let b = run();
    assert_eq!(a, b, "identical streams must produce identical statistics");
    assert!(a.total_wait() > 0, "the stream should have contended");
}
