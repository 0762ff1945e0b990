//! The service matrix: run the `cool-rt` work server with full event
//! recording and feed the request-lifecycle streams through the same three
//! analysis passes as the batch apps.
//!
//! Each scenario is **clean by construction under every interleaving** —
//! the properties that make it so are exactly the serve happens-before
//! edges the detector models:
//!
//! * `sharded` — single-worker domains: every request of a domain runs on
//!   one worker thread, so worker program order (released by each
//!   [`Event::RequestRetry`] or [`Event::RequestDone`], acquired by the
//!   next [`Event::RequestAttempt`]) serialises all per-shard state
//!   accesses, no matter how submissions interleave;
//! * `sharded` + faulted — same, plus fault-injected transient failures:
//!   a retried request re-runs on the same single worker, so the requeue
//!   channel edge and worker order both cover its accesses;
//! * `parallel` — multi-worker domains, but every request touches only
//!   its own private byte range, so concurrent attempts never conflict.
//!
//! Shedding is disabled (ample capacity) and faults are keyed by request
//! id, so admitted/attempt counts — and therefore the serialised findings
//! — are byte-stable across runs and hosts.
//!
//! [`Event::RequestAttempt`]: cool_core::Event::RequestAttempt
//! [`Event::RequestDone`]: cool_core::Event::RequestDone
//! [`Event::RequestRetry`]: cool_core::Event::RequestRetry

use cool_core::{AccessKind, FaultPlan};
use cool_rt::{Request, ServeConfig, WorkServer};

use crate::apps_driver::analyze_events;
use crate::report::RunFindings;

/// Requests per service scenario.
const REQUESTS: u64 = 48;

/// Shard keys per scenario (several shards fold onto each domain).
const SHARDS: u64 = 12;

/// Base address of the simulated per-shard state blocks.
const SHARD_STATE_BASE: u64 = 0x5E00_0000;

/// Bytes of per-shard (or per-request) simulated state.
const STATE_BYTES: u64 = 64;

/// Build one request whose declared accesses model a read-modify-write of
/// its shard's state block.
fn shard_request(id: u64) -> Request {
    let shard = id % SHARDS;
    let addr = SHARD_STATE_BASE + shard * STATE_BYTES;
    Request::new(id, shard, 1, |_| Ok(())).with_accesses(vec![
        (addr, STATE_BYTES, AccessKind::Read),
        (addr, STATE_BYTES, AccessKind::Write),
    ])
}

/// Build one request writing only its own private block.
fn private_request(id: u64) -> Request {
    let addr = SHARD_STATE_BASE + id * STATE_BYTES;
    Request::new(id, id % SHARDS, 1, |_| Ok(()))
        .with_accesses(vec![(addr, STATE_BYTES, AccessKind::Write)])
}

/// Run one serve scenario to completion and analyze its event stream.
fn run_scenario(
    version: &str,
    schedule: &str,
    cfg: ServeConfig,
    faults: Option<FaultPlan>,
    build: impl Fn(u64) -> Request,
) -> RunFindings {
    let srv = match faults {
        Some(plan) => WorkServer::with_faults(cfg, plan),
        None => WorkServer::new(cfg),
    };
    for id in 0..REQUESTS {
        srv.submit(build(id)).expect("service scenario must not shed");
    }
    srv.drain();
    RunFindings {
        app: "serve".to_string(),
        version: version.to_string(),
        schedule: schedule.to_string(),
        analysis: analyze_events(&srv.take_obs().events),
    }
}

/// Ample capacity so admission never sheds (counts stay deterministic).
fn base_cfg(domains: usize, workers_per_domain: usize) -> ServeConfig {
    ServeConfig::new(domains, workers_per_domain)
        .with_capacity(REQUESTS as usize + 1)
        .with_events()
}

/// The retry-exercising fault plan: transient failures on a fixed set of
/// request ids (id-keyed, so the same requests retry in every run).
fn service_faults() -> FaultPlan {
    FaultPlan::new(7)
        .fail_request(5)
        .fail_request(17)
        .fail_request(29)
        .fail_request(41)
}

/// Analyze the full service matrix (rows appended to the batch findings by
/// [`analyze_all`](crate::analyze_all)).
pub fn analyze_service() -> Vec<RunFindings> {
    vec![
        run_scenario("sharded", "default", base_cfg(4, 1), None, shard_request),
        run_scenario(
            "sharded",
            "faulted",
            base_cfg(4, 1),
            Some(service_faults()),
            shard_request,
        ),
        run_scenario("parallel", "default", base_cfg(2, 3), None, private_request),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn service_matrix_is_clean_and_sized() {
        let rows = analyze_service();
        assert_eq!(rows.len(), 3);
        for f in &rows {
            let who = format!("serve {} {}", f.version, f.schedule);
            assert!(f.analysis.races.races.is_empty(), "{who}: {:?}", f.analysis.races.races);
            assert!(f.analysis.locks.cycles.is_empty(), "{who}");
            assert!(f.analysis.lints.is_empty(), "{who}");
            assert_eq!(f.analysis.races.tasks, REQUESTS, "{who}: every request admitted");
            assert!(f.analysis.races.accesses >= REQUESTS, "{who}");
        }
    }

    #[test]
    fn service_counts_are_deterministic() {
        // Injected failures never run the body, so declared accesses are
        // emitted exactly once per request in every scenario.
        let rows = analyze_service();
        assert_eq!(rows[0].analysis.races.accesses, 2 * REQUESTS);
        assert_eq!(rows[1].analysis.races.accesses, 2 * REQUESTS);
        assert_eq!(rows[2].analysis.races.accesses, REQUESTS);
    }

    #[test]
    fn unsharded_parallel_writes_would_race() {
        // Sanity check that the detector has teeth on serve streams: two
        // requests writing the same block on a multi-worker pool, forced
        // onto *different* workers by a rendezvous (each body waits for the
        // other to start, so one worker cannot run them back to back).
        use std::sync::atomic::{AtomicU32, Ordering};
        use std::sync::Arc;
        let srv = WorkServer::new(base_cfg(1, 3));
        let gate = Arc::new(AtomicU32::new(0));
        for id in 0..2u64 {
            let gate = gate.clone();
            srv.submit(
                Request::new(id, 0, 1, move |_| {
                    gate.fetch_add(1, Ordering::SeqCst);
                    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(2);
                    while gate.load(Ordering::SeqCst) < 2 && std::time::Instant::now() < deadline
                    {
                        std::hint::spin_loop();
                    }
                    Ok(())
                })
                .with_accesses(vec![(SHARD_STATE_BASE, STATE_BYTES, AccessKind::Write)]),
            )
            .unwrap();
        }
        srv.drain();
        assert_eq!(gate.load(Ordering::SeqCst), 2, "rendezvous must complete");
        let report = crate::detect_races(&srv.take_obs().events);
        assert!(
            !report.races.is_empty(),
            "concurrent same-block writes on distinct workers must race"
        );
    }
}
