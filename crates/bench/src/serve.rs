//! The `cool-serve` load harness: an open-loop generator replaying
//! LocusRoute route-requests against the `cool-rt` work server, and the
//! byte-stable `cool-serve-v1` report it produces.
//!
//! The generator is **open-loop**: arrival times come from a deterministic
//! seeded schedule, not from completions, so an overloaded server sees the
//! same offered load no matter how slowly it drains — which is what makes
//! shed rate and saturation throughput meaningful. Each request routes one
//! net of the pinned LocusRoute circuit (see [`apps::serve_adapter`]),
//! sharded by geographic region exactly as the paper's affinity hints
//! shard the batch program.
//!
//! After the drain, the harness cross-checks the server's books against the
//! application's: every admitted request must be terminal (zero *lost*), no
//! body may have succeeded twice (zero *double-executed*), and the cost
//! array's total occupancy must equal the committed cells of exactly the
//! completed requests (the conservation invariant).
//!
//! Like `cool-metrics-v1` / `cool-repro-v1`, the report writer is
//! hand-rolled with a fixed key order and canonical number formatting, the
//! reader is the flat-object parser `cool-repro-v1` records use, and
//! `parse(to_json(r)) == r` / `to_json(parse(s)) == s` are identities — the
//! CI smoke gate relies on that.

use std::time::{Duration, Instant};

use apps::driver::AppScale;
use apps::serve_adapter::RouteRequestSet;
use cool_core::{EventLog, FaultPlan};
use cool_rt::serve::{Outcome, Request, ServeConfig, SubmitError, WorkServer};

use crate::flat::{canon6, FlatObject};

/// Schema tag stamped into every report.
pub const SERVE_SCHEMA: &str = "cool-serve-v1";

/// One load-run configuration: the server shape plus the arrival process.
#[derive(Clone, Debug)]
pub struct LoadConfig {
    /// Circuit scale (pinned LocusRoute inputs from `apps::driver`).
    pub scale: AppScale,
    /// Seed for the arrival schedule (and the chaos plan, if enabled).
    pub seed: u64,
    /// Shard domains.
    pub domains: usize,
    /// Workers per domain pool.
    pub workers_per_domain: usize,
    /// Per-domain waiting-queue capacity.
    pub queue_capacity: usize,
    /// Per-domain queued-cost budget.
    pub budget_units: u64,
    /// Attempts per request.
    pub max_attempts: u32,
    /// Mean inter-arrival gap of the open-loop schedule, in microseconds.
    pub mean_interarrival_us: u64,
    /// Fault plan to run the server under (`None` = fault-free).
    pub faults: Option<FaultPlan>,
    /// Record an observability trace alongside the report.
    pub record_trace: bool,
}

/// The pinned smoke profile the CI gate runs: small circuit, two domains of
/// one worker each, a deliberately tight queue, and arrivals far faster than
/// the (chaos-slowed) service rate — so the run *must* shed, retry, and
/// still lose nothing.
pub fn smoke_config(seed: u64, faults: bool) -> LoadConfig {
    LoadConfig {
        scale: AppScale::Small,
        seed,
        domains: 2,
        workers_per_domain: 1,
        queue_capacity: 4,
        budget_units: u64::MAX,
        max_attempts: 3,
        mean_interarrival_us: 30,
        faults: faults.then(|| chaos_plan(seed)),
        record_trace: false,
    }
}

/// The pinned chaos plan for the smoke profile. Everything is keyed by
/// request id or domain (never arrival order), so the injected event set is
/// identical under any interleaving:
///
/// * requests 0–2 fail their first attempt (they arrive into empty queues,
///   so they are always admitted — guaranteeing nonzero retries even when
///   later victims get shed);
/// * six more victims drawn from the seed;
/// * domain 0's pool is slowed by 400 µs per job (the overload that forces
///   shedding against the 4-deep queue);
/// * request 3's admission stalls the intake path for 2 ms.
pub fn chaos_plan(seed: u64) -> FaultPlan {
    FaultPlan::new(seed)
        .fail_request(0)
        .fail_request(1)
        .fail_request(2)
        .fail_random_requests(6, 96)
        .slow_domain(0, 400)
        .stall_intake(3, 2_000)
}

/// Everything one load run measured, as written to / read from a
/// `cool-serve-v1` document. Latency percentiles are integer microseconds;
/// rates are canonicalized to 6 decimal places.
#[derive(Clone, Debug, PartialEq)]
pub struct ServeReport {
    /// Application replayed (currently always `locusroute`).
    pub app: String,
    /// Circuit scale name.
    pub scale: String,
    /// Seed of the arrival schedule / chaos plan.
    pub seed: u64,
    /// Route-requests in the replay.
    pub requests: u64,
    /// Shard domains.
    pub domains: u64,
    /// Workers per domain.
    pub workers_per_domain: u64,
    /// Per-domain queue capacity.
    pub queue_capacity: u64,
    /// Attempts per request.
    pub max_attempts: u64,
    /// Mean inter-arrival gap (µs).
    pub mean_interarrival_us: u64,
    /// Whether a chaos plan was active.
    pub chaos: bool,
    /// Submissions that reached admission.
    pub submitted: u64,
    /// Requests admitted.
    pub admitted: u64,
    /// Requests shed by admission control.
    pub shed: u64,
    /// Requests completed successfully.
    pub completed: u64,
    /// Requests that exhausted their attempts.
    pub failed: u64,
    /// Requests cut off by their deadline.
    pub timed_out: u64,
    /// Admitted requests with no terminal outcome after drain (must be 0).
    pub lost: u64,
    /// Requests whose body succeeded more than once (must be 0).
    pub double_executed: u64,
    /// Retry attempts scheduled.
    pub retries: u64,
    /// Injected transient request failures consumed.
    pub injected_failures: u64,
    /// Injected intake stalls consumed.
    pub intake_stalls: u64,
    /// Replacement workers started by the watchdog.
    pub pool_restarts: u64,
    /// Median completion latency (µs, admission to done).
    pub p50_us: u64,
    /// 99th-percentile completion latency (µs).
    pub p99_us: u64,
    /// 99.9th-percentile completion latency (µs).
    pub p999_us: u64,
    /// Max completion latency (µs).
    pub max_us: u64,
    /// Offered load: submissions per second of wall time.
    pub offered_rps: f64,
    /// Goodput: completions per second of wall time.
    pub goodput_rps: f64,
    /// Wall-clock time of the run, submit of the first request to end of
    /// drain (ms).
    pub wall_ms: u64,
    /// `"ok"` or the conservation-check failure description.
    pub conservation: String,
}

/// Nearest-rank percentile over an ascending-sorted slice (0 on empty).
fn percentile_us(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Run one open-loop load replay. Returns the report plus the recorded
/// observability trace (empty unless `cfg.record_trace`).
pub fn run_load(cfg: &LoadConfig) -> (ServeReport, EventLog) {
    let set = RouteRequestSet::new(cfg.scale);
    let n = set.nrequests();
    let mut serve_cfg = ServeConfig::new(cfg.domains, cfg.workers_per_domain)
        .with_capacity(cfg.queue_capacity)
        .with_budget(cfg.budget_units)
        .with_retry(
            cfg.max_attempts,
            Duration::from_micros(200),
            Duration::from_millis(10),
        )
        .with_stall_timeout(Duration::from_millis(250));
    if cfg.record_trace {
        serve_cfg = serve_cfg.with_trace();
    }
    let server = match &cfg.faults {
        Some(plan) => WorkServer::with_faults(serve_cfg, plan.clone()),
        None => WorkServer::new(serve_cfg),
    };

    // Deterministic open-loop arrival schedule: uniform gaps over
    // [0, 2 * mean], drawn from an xorshift* stream of the seed.
    let mut state = (cfg.seed ^ 0xA11C_E5ED_5EED_1E55) | 1;
    let mut gap = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        Duration::from_micros(state % (2 * cfg.mean_interarrival_us.max(1) + 1))
    };

    let start = Instant::now();
    for i in 0..n {
        std::thread::sleep(gap());
        let req = Request::new(i as u64, set.shard_of(i), set.cost_units(i), set.request_body(i));
        match server.submit(req) {
            Ok(_) | Err(SubmitError::Shed(_)) => {}
            Err(e) => panic!("unexpected submit refusal for request {i}: {e}"),
        }
    }
    server.drain();
    let wall = start.elapsed();

    let stats = server.stats();
    let outcomes = server.outcomes();
    let mut lost = 0u64;
    let mut double_executed = 0u64;
    let mut completed_ids: Vec<usize> = Vec::new();
    let mut lat_us: Vec<u64> = Vec::new();
    for (id, rec) in &outcomes {
        if rec.body_successes > 1 {
            double_executed += 1;
        }
        match &rec.outcome {
            None => lost += 1,
            Some(Outcome::Completed { latency, .. }) => {
                completed_ids.push(*id as usize);
                lat_us.push(latency.as_micros() as u64);
            }
            Some(_) => {}
        }
    }
    lat_us.sort_unstable();
    let conservation = match set.verify_conservation(&completed_ids) {
        Ok(()) => "ok".to_string(),
        Err(e) => e,
    };
    let wall_s = wall.as_secs_f64().max(1e-9);
    let report = ServeReport {
        app: "locusroute".into(),
        scale: cfg.scale.name().into(),
        seed: cfg.seed,
        requests: n as u64,
        domains: cfg.domains as u64,
        workers_per_domain: cfg.workers_per_domain as u64,
        queue_capacity: cfg.queue_capacity as u64,
        max_attempts: cfg.max_attempts as u64,
        mean_interarrival_us: cfg.mean_interarrival_us,
        chaos: cfg.faults.is_some(),
        submitted: stats.submitted,
        admitted: stats.admitted,
        shed: stats.shed,
        completed: stats.completed,
        failed: stats.failed,
        timed_out: stats.timed_out,
        lost,
        double_executed,
        retries: stats.retries,
        injected_failures: stats.injected_failures,
        intake_stalls: stats.intake_stalls,
        pool_restarts: stats.pool_restarts,
        p50_us: percentile_us(&lat_us, 0.50),
        p99_us: percentile_us(&lat_us, 0.99),
        p999_us: percentile_us(&lat_us, 0.999),
        max_us: lat_us.last().copied().unwrap_or(0),
        offered_rps: canon6(stats.submitted as f64 / wall_s),
        goodput_rps: canon6(stats.completed as f64 / wall_s),
        wall_ms: wall.as_millis() as u64,
        conservation,
    };
    (report, server.take_obs())
}

impl ServeReport {
    /// The report as a `cool-serve-v1` JSON document. Fixed key order and
    /// number formatting: equal reports produce equal bytes.
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n");
        s.push_str(&format!("  \"schema\": \"{SERVE_SCHEMA}\",\n"));
        s.push_str(&format!("  \"app\": \"{}\",\n", self.app));
        s.push_str(&format!("  \"scale\": \"{}\",\n", self.scale));
        s.push_str(&format!("  \"seed\": {},\n", self.seed));
        s.push_str(&format!("  \"requests\": {},\n", self.requests));
        s.push_str(&format!("  \"domains\": {},\n", self.domains));
        s.push_str(&format!(
            "  \"workers_per_domain\": {},\n",
            self.workers_per_domain
        ));
        s.push_str(&format!("  \"queue_capacity\": {},\n", self.queue_capacity));
        s.push_str(&format!("  \"max_attempts\": {},\n", self.max_attempts));
        s.push_str(&format!(
            "  \"mean_interarrival_us\": {},\n",
            self.mean_interarrival_us
        ));
        s.push_str(&format!("  \"chaos\": {},\n", self.chaos));
        s.push_str(&format!("  \"submitted\": {},\n", self.submitted));
        s.push_str(&format!("  \"admitted\": {},\n", self.admitted));
        s.push_str(&format!("  \"shed\": {},\n", self.shed));
        s.push_str(&format!("  \"completed\": {},\n", self.completed));
        s.push_str(&format!("  \"failed\": {},\n", self.failed));
        s.push_str(&format!("  \"timed_out\": {},\n", self.timed_out));
        s.push_str(&format!("  \"lost\": {},\n", self.lost));
        s.push_str(&format!("  \"double_executed\": {},\n", self.double_executed));
        s.push_str(&format!("  \"retries\": {},\n", self.retries));
        s.push_str(&format!(
            "  \"injected_failures\": {},\n",
            self.injected_failures
        ));
        s.push_str(&format!("  \"intake_stalls\": {},\n", self.intake_stalls));
        s.push_str(&format!("  \"pool_restarts\": {},\n", self.pool_restarts));
        s.push_str(&format!("  \"p50_us\": {},\n", self.p50_us));
        s.push_str(&format!("  \"p99_us\": {},\n", self.p99_us));
        s.push_str(&format!("  \"p999_us\": {},\n", self.p999_us));
        s.push_str(&format!("  \"max_us\": {},\n", self.max_us));
        s.push_str(&format!("  \"offered_rps\": {:.6},\n", self.offered_rps));
        s.push_str(&format!("  \"goodput_rps\": {:.6},\n", self.goodput_rps));
        s.push_str(&format!("  \"wall_ms\": {},\n", self.wall_ms));
        s.push_str(&format!("  \"conservation\": \"{}\"\n", self.conservation));
        s.push_str("}\n");
        s
    }

    /// Parse the exact shape [`ServeReport::to_json`] writes. Returns the
    /// first problem found.
    pub fn parse(text: &str) -> Result<Self, String> {
        let f = FlatObject::parse(text)?;
        let schema = f.string("schema")?;
        if schema != SERVE_SCHEMA {
            return Err(format!("schema {schema:?}, expected {SERVE_SCHEMA:?}"));
        }
        Ok(ServeReport {
            app: f.string("app")?,
            scale: f.string("scale")?,
            seed: f.scalar("seed")?,
            requests: f.scalar("requests")?,
            domains: f.scalar("domains")?,
            workers_per_domain: f.scalar("workers_per_domain")?,
            queue_capacity: f.scalar("queue_capacity")?,
            max_attempts: f.scalar("max_attempts")?,
            mean_interarrival_us: f.scalar("mean_interarrival_us")?,
            chaos: f.scalar("chaos")?,
            submitted: f.scalar("submitted")?,
            admitted: f.scalar("admitted")?,
            shed: f.scalar("shed")?,
            completed: f.scalar("completed")?,
            failed: f.scalar("failed")?,
            timed_out: f.scalar("timed_out")?,
            lost: f.scalar("lost")?,
            double_executed: f.scalar("double_executed")?,
            retries: f.scalar("retries")?,
            injected_failures: f.scalar("injected_failures")?,
            intake_stalls: f.scalar("intake_stalls")?,
            pool_restarts: f.scalar("pool_restarts")?,
            p50_us: f.scalar("p50_us")?,
            p99_us: f.scalar("p99_us")?,
            p999_us: f.scalar("p999_us")?,
            max_us: f.scalar("max_us")?,
            offered_rps: f.scalar("offered_rps")?,
            goodput_rps: f.scalar("goodput_rps")?,
            wall_ms: f.scalar("wall_ms")?,
            conservation: f.string("conservation")?,
        })
    }

    /// Structural + accounting invariants every report must satisfy,
    /// independent of chaos settings: books balance and nothing was lost or
    /// double-run. This is the schema gate CI applies.
    pub fn validate(&self) -> Result<(), String> {
        if self.admitted + self.shed != self.submitted {
            return Err(format!(
                "admission books do not balance: {} admitted + {} shed != {} submitted",
                self.admitted, self.shed, self.submitted
            ));
        }
        if self.completed + self.failed + self.timed_out + self.lost != self.admitted {
            return Err(format!(
                "outcome books do not balance: {} + {} + {} + {} != {} admitted",
                self.completed, self.failed, self.timed_out, self.lost, self.admitted
            ));
        }
        if self.lost != 0 {
            return Err(format!("{} requests lost", self.lost));
        }
        if self.double_executed != 0 {
            return Err(format!("{} requests double-executed", self.double_executed));
        }
        if self.conservation != "ok" {
            return Err(format!("conservation check failed: {}", self.conservation));
        }
        if self.completed > 0 && (self.p50_us > self.p99_us || self.p99_us > self.p999_us) {
            return Err("latency percentiles are not monotone".into());
        }
        Ok(())
    }
}

/// Validate a `cool-serve-v1` document: parses, satisfies the accounting
/// invariants, and re-serializes byte-identically (the byte-stability
/// contract shared with `cool-metrics-v1`).
pub fn validate_serve_json(text: &str) -> Result<ServeReport, String> {
    let report = ServeReport::parse(text)?;
    report.validate()?;
    let again = report.to_json();
    if again != text {
        return Err("document is not in canonical form (reserialization differs)".into());
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ServeReport {
        ServeReport {
            app: "locusroute".into(),
            scale: "small".into(),
            seed: 42,
            requests: 100,
            domains: 2,
            workers_per_domain: 1,
            queue_capacity: 4,
            max_attempts: 3,
            mean_interarrival_us: 30,
            chaos: true,
            submitted: 100,
            admitted: 80,
            shed: 20,
            completed: 78,
            failed: 1,
            timed_out: 1,
            lost: 0,
            double_executed: 0,
            retries: 9,
            injected_failures: 9,
            intake_stalls: 1,
            pool_restarts: 0,
            p50_us: 800,
            p99_us: 4_000,
            p999_us: 6_000,
            max_us: 6_500,
            offered_rps: 25_000.0,
            goodput_rps: 19_500.0,
            wall_ms: 4,
            conservation: "ok".into(),
        }
    }

    #[test]
    fn report_roundtrips_byte_identically() {
        let r = sample();
        let json = r.to_json();
        let back = ServeReport::parse(&json).unwrap();
        assert_eq!(back, r);
        assert_eq!(back.to_json(), json);
        validate_serve_json(&json).unwrap();
    }

    #[test]
    fn validation_rejects_broken_books() {
        let mut r = sample();
        r.shed = 19;
        assert!(r.validate().is_err(), "admission imbalance must fail");
        let mut r = sample();
        r.lost = 1;
        r.completed = 77;
        assert!(r.validate().is_err(), "lost requests must fail");
        let mut r = sample();
        r.double_executed = 1;
        assert!(r.validate().is_err(), "double execution must fail");
        let mut r = sample();
        r.conservation = "occupancy 10 != committed 12".into();
        assert!(r.validate().is_err(), "conservation failure must fail");
        let json = sample().to_json().replace(SERVE_SCHEMA, "cool-serve-v0");
        assert!(ServeReport::parse(&json).is_err());
    }

    #[test]
    fn percentiles_are_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile_us(&v, 0.50), 50);
        assert_eq!(percentile_us(&v, 0.99), 99);
        assert_eq!(percentile_us(&v, 0.999), 100);
        assert_eq!(percentile_us(&[], 0.5), 0);
        assert_eq!(percentile_us(&[7], 0.999), 7);
    }

    #[test]
    fn smoke_profile_is_pinned_and_chaotic() {
        let cfg = smoke_config(42, true);
        let plan = cfg.faults.as_ref().unwrap();
        assert!(plan.should_fail_request(0) && plan.should_fail_request(2));
        assert!(plan.request_fail_count() >= 3);
        assert!(plan.domain_slow_units(0) > 0);
        assert!(plan.intake_stall_units(3) > 0);
        // Chaos is seed-deterministic.
        assert_eq!(chaos_plan(42), chaos_plan(42));
    }
}
