//! cool-serve: a long-running work server over per-domain worker pools.
//!
//! The batch runtime ([`Runtime`](crate::Runtime)) answers "run these tasks
//! and wait"; this module answers the production-shape question: what does
//! the COOL scheduling model look like *as a service* that admits a sustained
//! request stream and must survive overload and faults? The building blocks:
//!
//! * **affinity-keyed sharding** — every [`Request`] carries a `shard` key;
//!   requests with the same key land on the same domain pool
//!   (`shard % domains`), the service-layer analogue of object affinity:
//!   state a shard touches stays hot in one pool's workers;
//! * **admission control + backpressure** — each domain has a bounded intake
//!   queue (`queue_capacity` waiting requests) and an estimated-service-time
//!   budget (`budget_units`); a request that would exceed either is *shed*
//!   at submit time with a typed [`Backpressure`] describing the pressure,
//!   so the submitting side can slow down instead of piling on;
//! * **retries with deadlines** — a failed attempt (injected fault, body
//!   error, or panic) is retried after a deterministic
//!   jittered-exponential backoff ([`retry_backoff`]) up to `max_attempts`,
//!   unless the per-request deadline would pass first; the request id is an
//!   idempotency key, so a retried request is re-run from its own queue slot
//!   and a duplicate *submission* of the same id is refused outright;
//! * **graceful degradation** — [`WorkServer::drain`] stops admission
//!   (new submits get [`SubmitError::Draining`]) and completes everything
//!   already accepted; a stalled pool (a stuck body, with queued work behind
//!   it) trips a watchdog that records a diagnosable [`StallDump`] — live
//!   queue depths plus the in-flight request ids — and starts a bounded
//!   number of replacement workers so the domain keeps serving;
//! * **deterministic chaos** — a [`FaultPlan`]'s service faults are keyed by
//!   request id (transient failure, intake stall) or shard domain (slow
//!   worker pool), never by arrival order, so a fixed seed injects the same
//!   event set under any submission interleaving.
//!
//! The request bookkeeping (records, counters, outstanding count, in-flight
//! ids) is one `Books` value behind one lock, taken before any domain
//! queue's lock; its `admit`, `start` and `settle` are the whole protocol,
//! and [`ServeMachine`](crate::vserve::ServeMachine) steps the same methods.
//!
//! Everything the server does is observable: admissions, sheds, retries and
//! completions flow into the shared [`Event`] stream (drained with
//! [`WorkServer::take_obs`]), so a service run exports to Perfetto exactly
//! like a batch run. With [`ServeConfig::with_events`] the stream also
//! carries each attempt, the drain barrier and the
//! [`Request::with_accesses`]-declared byte ranges. Every request event is
//! emitted under the lock that creates its happens-before edge, so
//! `cool-analyze`'s vector-clock race detector can consume the stream in
//! one forward pass.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};

use cool_core::{
    req_uid, AccessKind, Event, EventLog, FaultPlan, ObjRef, ProcId, Recorder, Recording,
    SchedStats, TaskUid,
};

use crate::runtime::panic_message;
use crate::watchdog::StallDump;

/// Configuration for a [`WorkServer`].
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Shard domains (each owns one worker pool and one intake queue).
    pub domains: usize,
    /// Worker threads per domain pool.
    pub workers_per_domain: usize,
    /// Max requests *waiting* (ready + backed off) per domain; one more is
    /// shed.
    pub queue_capacity: usize,
    /// Max estimated service units queued per domain; a request whose cost
    /// would exceed the budget is shed.
    pub budget_units: u64,
    /// Max attempts per request (1 = no retries).
    pub max_attempts: u32,
    /// Base backoff before the first retry (doubles per attempt).
    pub base_backoff: Duration,
    /// Upper bound on the exponential backoff.
    pub max_backoff: Duration,
    /// Per-request deadline, measured from admission. A request that cannot
    /// retry (or start) before its deadline is terminally timed out.
    pub deadline: Duration,
    /// If set, a watchdog thread restarts stalled pools and records
    /// [`StallDump`]s. Pick an interval longer than the longest healthy
    /// request body.
    pub stall_timeout: Option<Duration>,
    /// Max replacement workers the watchdog may start, across all domains.
    pub max_pool_restarts: usize,
    /// How much of the [`Event`] stream to record, drained with
    /// [`WorkServer::take_obs`]: `Trace` keeps admissions, sheds, retries,
    /// completions and per-attempt task slices; `Full` adds attempts, the
    /// drain barrier and declared accesses for `cool-analyze`'s race
    /// detector. Events are emitted under the same locks that create the
    /// real happens-before edges, so the stream order is consistent with
    /// them.
    pub recording: Recording,
}

impl ServeConfig {
    /// Defaults for `domains` pools of `workers_per_domain` workers.
    pub fn new(domains: usize, workers_per_domain: usize) -> Self {
        ServeConfig {
            domains,
            workers_per_domain,
            queue_capacity: 64,
            budget_units: u64::MAX,
            max_attempts: 3,
            base_backoff: Duration::from_micros(200),
            max_backoff: Duration::from_millis(20),
            deadline: Duration::from_secs(5),
            stall_timeout: None,
            max_pool_restarts: 4,
            recording: Recording::Off,
        }
    }

    /// Replace the per-domain waiting-queue capacity.
    pub fn with_capacity(mut self, cap: usize) -> Self {
        self.queue_capacity = cap;
        self
    }

    /// Bound the estimated service units queued per domain.
    pub fn with_budget(mut self, units: u64) -> Self {
        self.budget_units = units;
        self
    }

    /// Replace the retry policy.
    pub fn with_retry(mut self, max_attempts: u32, base: Duration, max: Duration) -> Self {
        assert!(max_attempts >= 1, "at least one attempt is required");
        self.max_attempts = max_attempts;
        self.base_backoff = base;
        self.max_backoff = max;
        self
    }

    /// Replace the per-request deadline.
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = deadline;
        self
    }

    /// Enable the stall watchdog (see [`ServeConfig::stall_timeout`]).
    pub fn with_stall_timeout(mut self, interval: Duration) -> Self {
        self.stall_timeout = Some(interval);
        self
    }

    /// Bound how many replacement workers the watchdog may start.
    pub fn with_max_pool_restarts(mut self, n: usize) -> Self {
        self.max_pool_restarts = n;
        self
    }

    /// Record the trace events (`Recording::Trace`, see
    /// [`ServeConfig::recording`]).
    pub fn with_trace(mut self) -> Self {
        self.recording = Recording::Trace;
        self
    }

    /// Record every event (`Recording::Full`, see
    /// [`ServeConfig::recording`]).
    pub fn with_events(mut self) -> Self {
        self.recording = Recording::Full;
        self
    }
}

/// A request body: called with the attempt number (0 = first), returns
/// `Err` to request a retry. Shared (`Arc`) so a retried attempt re-runs the
/// same closure without cloning application state.
pub type ServeBody = Arc<dyn Fn(u32) -> Result<(), String> + Send + Sync>;

/// One unit of work submitted to a [`WorkServer`].
pub struct Request {
    /// Idempotency key: a second submission of the same id is refused, and
    /// retries of an admitted id never double-run a successful body.
    pub id: u64,
    /// Affinity key: requests with equal `shard % domains` share a pool.
    pub shard: u64,
    /// Estimated service units (whatever unit the budget is expressed in).
    pub cost: u64,
    body: ServeBody,
    /// Byte ranges the body touches, declared for event recording:
    /// `(addr, len, kind)` triples mirrored as [`Event::Access`]es on
    /// every body-running attempt.
    accesses: Arc<Vec<(u64, u64, AccessKind)>>,
}

impl Request {
    /// A request with the given identity, shard key and cost estimate.
    pub fn new(
        id: u64,
        shard: u64,
        cost: u64,
        body: impl Fn(u32) -> Result<(), String> + Send + Sync + 'static,
    ) -> Self {
        Request {
            id,
            shard,
            cost,
            body: Arc::new(body),
            accesses: Arc::new(Vec::new()),
        }
    }

    /// Declare the byte ranges the body touches, for [`Event`] recording
    /// (no effect unless the server was built with
    /// [`ServeConfig::with_events`]).
    pub fn with_accesses(mut self, accesses: Vec<(u64, u64, AccessKind)>) -> Self {
        self.accesses = Arc::new(accesses);
        self
    }
}

/// Why admission shed a request, reported to the submitting side so it can
/// back off instead of piling on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Backpressure {
    /// Domain the request hashed to.
    pub domain: usize,
    /// Requests waiting on that domain at the shed decision.
    pub depth: usize,
    /// Estimated service units waiting on that domain.
    pub queued_units: u64,
}

/// Typed submission failures.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SubmitError {
    /// Admission control refused the request; the payload says how loaded
    /// the target domain was.
    Shed(Backpressure),
    /// The server is draining (or shut down) and admits nothing new.
    Draining,
    /// A request with this id was already admitted (idempotency refusal).
    Duplicate(u64),
}

impl fmt::Display for SubmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SubmitError::Shed(bp) => write!(
                f,
                "shed: domain {} at depth {} ({} units queued)",
                bp.domain, bp.depth, bp.queued_units
            ),
            SubmitError::Draining => write!(f, "server is draining"),
            SubmitError::Duplicate(id) => write!(f, "request {id} was already admitted"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// Terminal state of an admitted request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Outcome {
    /// The body returned `Ok` on some attempt.
    Completed {
        /// Attempts consumed (1 = first attempt succeeded).
        attempts: u32,
        /// Admission-to-completion latency.
        latency: Duration,
    },
    /// Every allowed attempt failed.
    Failed {
        /// Attempts consumed.
        attempts: u32,
        /// The last attempt's error.
        error: String,
    },
    /// The deadline passed before the request could start or retry.
    TimedOut {
        /// Attempts consumed before the deadline cut the request off.
        attempts: u32,
    },
}

/// Everything the server knows about one admitted request.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RequestRecord {
    /// Terminal state; `None` while the request is still in flight (a
    /// `None` after [`WorkServer::drain`] means the request was *lost* —
    /// the invariant the chaos tests assert never happens).
    pub outcome: Option<Outcome>,
    /// Times the body was invoked (any result).
    pub body_runs: u32,
    /// Times the body returned `Ok` — the never-double-execute invariant is
    /// `body_successes <= 1`.
    pub body_successes: u32,
}

/// Service counters since startup.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Submit calls that reached admission (sheds and duplicates included;
    /// drain refusals are not).
    pub submitted: u64,
    /// Requests admitted into a queue.
    pub admitted: u64,
    /// Requests shed by admission control.
    pub shed: u64,
    /// Submissions refused because the id was already admitted.
    pub duplicates: u64,
    /// Requests that reached `Outcome::Completed`.
    pub completed: u64,
    /// Requests that reached `Outcome::Failed`.
    pub failed: u64,
    /// Requests that reached `Outcome::TimedOut`.
    pub timed_out: u64,
    /// Retry attempts scheduled (with backoff) after failed attempts.
    pub retries: u64,
    /// Attempts started (body runs plus injected pre-body failures).
    pub attempts: u64,
    /// FaultPlan-injected transient request failures consumed.
    pub injected_failures: u64,
    /// FaultPlan-injected intake stalls consumed.
    pub intake_stalls: u64,
    /// Replacement workers started by the watchdog.
    pub pool_restarts: u64,
}

/// How one attempt of an admitted request ended.
pub(crate) enum Attempt {
    /// The body returned `Ok`, `latency` after admission.
    Success { latency: Duration },
    /// An injected fault, a body error or a panic; `retry_fits` says
    /// whether a retry's backoff would end before the deadline.
    Failed { error: String, retry_fits: bool },
    /// The deadline had passed before the attempt could start.
    DeadlineExceeded,
}

/// The server's request bookkeeping, kept behind one lock (see the module
/// docs). Its three methods are the whole protocol.
#[derive(Clone, Debug, Default)]
pub(crate) struct Books {
    /// Per-request records, keyed by id. The keys are the idempotency
    /// registry: every id ever admitted (a shed request leaves no record,
    /// so it may be resubmitted under the same id).
    pub(crate) records: BTreeMap<u64, RequestRecord>,
    pub(crate) stats: ServeStats,
    /// Admitted requests not yet terminal.
    pub(crate) outstanding: usize,
    /// Request ids inside an attempt (for stall dumps).
    pub(crate) in_flight: BTreeSet<u64>,
}

impl Books {
    /// Admit request `id` (`cost` units) to the domain whose waiting queue
    /// is under pressure `at`: refused while `draining` or if `id` was
    /// admitted before, shed past the queue capacity or the unit budget,
    /// otherwise recorded as outstanding. On `Ok` the caller enqueues it.
    pub(crate) fn admit(
        &mut self,
        cfg: &ServeConfig,
        id: u64,
        cost: u64,
        draining: bool,
        at: Backpressure,
    ) -> Result<(), SubmitError> {
        if draining {
            return Err(SubmitError::Draining);
        }
        self.stats.submitted += 1;
        if self.records.contains_key(&id) {
            self.stats.duplicates += 1;
            return Err(SubmitError::Duplicate(id));
        }
        if at.depth >= cfg.queue_capacity || at.queued_units.saturating_add(cost) > cfg.budget_units
        {
            self.stats.shed += 1;
            return Err(SubmitError::Shed(at));
        }
        self.records.insert(id, RequestRecord::default());
        self.stats.admitted += 1;
        self.outstanding += 1;
        Ok(())
    }

    /// An attempt of `id` begins; `runs_body` says whether the body will
    /// run (rather than a deadline cut-off or an injected failure).
    pub(crate) fn start(&mut self, id: u64, runs_body: bool) {
        self.in_flight.insert(id);
        self.stats.attempts += 1;
        if runs_body {
            self.record(id).body_runs += 1;
        }
    }

    /// Settle attempt `attempt` (0-based) of `id`. A failure with attempts
    /// left and room before the deadline is a retry (`None`: the caller
    /// requeues the job); anything else is terminal, and the outcome is
    /// returned.
    pub(crate) fn settle(
        &mut self,
        cfg: &ServeConfig,
        id: u64,
        attempt: u32,
        result: Attempt,
    ) -> Option<&Outcome> {
        self.in_flight.remove(&id);
        let attempts = attempt + 1;
        let outcome = match result {
            Attempt::Success { latency } => {
                self.record(id).body_successes += 1;
                self.stats.completed += 1;
                Outcome::Completed { attempts, latency }
            }
            Attempt::Failed { error, .. } if attempts >= cfg.max_attempts => {
                self.stats.failed += 1;
                Outcome::Failed { attempts, error }
            }
            Attempt::Failed { retry_fits: true, .. } => {
                self.stats.retries += 1;
                return None;
            }
            // No room to retry before the deadline: time the request out
            // now instead of wasting a doomed attempt.
            Attempt::Failed { .. } => {
                self.stats.timed_out += 1;
                Outcome::TimedOut { attempts }
            }
            Attempt::DeadlineExceeded => {
                self.stats.timed_out += 1;
                Outcome::TimedOut { attempts: attempt }
            }
        };
        self.outstanding -= 1;
        let rec = self.record(id);
        rec.outcome = Some(outcome);
        rec.outcome.as_ref()
    }

    fn record(&mut self, id: u64) -> &mut RequestRecord {
        self.records.get_mut(&id).expect("attempt of an unadmitted request")
    }
}

impl Outcome {
    fn attempts(&self) -> u32 {
        match *self {
            Outcome::Completed { attempts, .. }
            | Outcome::Failed { attempts, .. }
            | Outcome::TimedOut { attempts } => attempts,
        }
    }
}

/// A queued attempt of an admitted request.
struct Job {
    id: u64,
    cost: u64,
    /// Next attempt to run (0-based).
    attempt: u32,
    admitted: Instant,
    deadline: Instant,
    body: ServeBody,
    accesses: Arc<Vec<(u64, u64, AccessKind)>>,
}

/// One domain's intake: ready work plus backed-off retries.
#[derive(Default)]
struct DomainQueue {
    ready: VecDeque<Job>,
    /// Retries waiting out their backoff: `(not_before, job)`.
    deferred: Vec<(Instant, Job)>,
    /// Estimated service units across `ready` + `deferred`.
    queued_units: u64,
}

impl DomainQueue {
    fn depth(&self) -> usize {
        self.ready.len() + self.deferred.len()
    }
}

/// One shard domain: its queue, wakeup signal and liveness beacons.
struct DomainPool {
    q: Mutex<DomainQueue>,
    wake: Condvar,
    /// Jobs currently inside `run_job` on this domain.
    executing: AtomicUsize,
    /// ns-since-epoch of the last job start/finish on this domain — the
    /// liveness signal the watchdog keys off.
    last_beat: AtomicU64,
}

struct ServeInner {
    cfg: ServeConfig,
    pools: Vec<DomainPool>,
    /// Taken before any domain queue's lock.
    books: Mutex<Books>,
    /// Signalled, under the books lock, when nothing is outstanding.
    drained: Condvar,
    draining: AtomicBool,
    shutdown: AtomicBool,
    faults: Option<FaultPlan>,
    dumps: Mutex<Vec<StallDump>>,
    /// Replacement workers started by the watchdog (joined at drop).
    extra_workers: Mutex<Vec<JoinHandle<()>>>,
    /// Event recorder; `None` when `recording` is `Off`.
    recorder: Option<Recorder>,
    epoch: Instant,
    /// Per-attempt uid source for observability task slices.
    next_uid: AtomicU64,
}

impl ServeInner {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn emit(&self, ring: usize, ev: Event) {
        if let Some(rec) = &self.recorder {
            rec.record(ring, ev);
        }
    }

    /// Whether every event is being recorded (`Recording::Full`).
    fn full(&self) -> bool {
        self.cfg.recording == Recording::Full
    }

    /// The intake path records on the last ring (workers own the others).
    fn intake_ring(&self) -> usize {
        self.cfg.domains * self.cfg.workers_per_domain + self.cfg.max_pool_restarts
    }

    fn beat(&self, domain: usize) {
        self.pools[domain].last_beat.store(self.now_ns(), Ordering::SeqCst);
    }

    /// Snapshot for a stall post-mortem: per-domain waiting depths plus the
    /// request ids currently stuck inside bodies.
    fn dump(&self) -> StallDump {
        let books = self.books.lock();
        let st = books.stats;
        let stats = SchedStats {
            spawned: st.admitted,
            executed: st.attempts,
            ..SchedStats::default()
        };
        StallDump {
            queue_depths: self.pools.iter().map(|p| p.q.lock().depth()).collect(),
            held_mutexes: Vec::new(),
            stats,
            open_scopes: 0,
            tasks_executed: st.attempts,
            in_flight: books.in_flight.iter().copied().collect(),
        }
    }
}

/// Deterministic jittered exponential backoff for retry `attempt` (1-based)
/// of request `id`: the exponential level is `base * 2^(attempt-1)` capped
/// at `max`, and the jitter draws uniformly from `[level/2, level]` using an
/// xorshift* stream seeded by `(id, attempt)` — so the same request retries
/// on the same schedule in every run, but distinct requests decorrelate
/// instead of thundering back together.
pub fn retry_backoff(id: u64, attempt: u32, base: Duration, max: Duration) -> Duration {
    assert!(attempt >= 1, "attempt is 1-based");
    let base = base.max(Duration::from_micros(1));
    let max = max.max(base);
    let shift = (attempt - 1).min(20);
    let level = base.checked_mul(1u32 << shift).unwrap_or(max).min(max);
    let mut state = (id ^ 0x9E37_79B9_7F4A_7C15).wrapping_add(u64::from(attempt) << 32) | 1;
    for _ in 0..3 {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
    }
    let half = (level.as_nanos() as u64) / 2;
    let jitter = if half == 0 { 0 } else { state % (half + 1) };
    Duration::from_nanos(half + jitter)
}

/// The long-running work server. Admission happens on the submitting
/// thread; execution on `domains * workers_per_domain` pool workers (plus
/// any watchdog replacements). Dropping the server shuts the pools down;
/// call [`WorkServer::drain`] first for a graceful stop.
pub struct WorkServer {
    inner: Arc<ServeInner>,
    workers: Vec<JoinHandle<()>>,
    watchdog: Option<JoinHandle<()>>,
}

impl WorkServer {
    /// Start a server with no fault injection.
    pub fn new(cfg: ServeConfig) -> Self {
        Self::build(cfg, None)
    }

    /// Start a server whose service layer is perturbed by `plan` (one plan
    /// unit = one microsecond). Injected request failures are transient and
    /// keyed by request id; see the module docs.
    pub fn with_faults(cfg: ServeConfig, plan: FaultPlan) -> Self {
        Self::build(cfg, Some(plan))
    }

    fn build(cfg: ServeConfig, faults: Option<FaultPlan>) -> Self {
        assert!(cfg.domains >= 1, "at least one domain");
        assert!(cfg.workers_per_domain >= 1, "at least one worker per domain");
        assert!(cfg.queue_capacity >= 1, "queue capacity must be positive");
        let nrings = cfg.domains * cfg.workers_per_domain + cfg.max_pool_restarts + 1;
        let inner = Arc::new(ServeInner {
            pools: (0..cfg.domains)
                .map(|_| DomainPool {
                    q: Mutex::default(),
                    wake: Condvar::new(),
                    executing: AtomicUsize::new(0),
                    last_beat: AtomicU64::new(0),
                })
                .collect(),
            books: Mutex::new(Books::default()),
            drained: Condvar::new(),
            draining: AtomicBool::new(false),
            shutdown: AtomicBool::new(false),
            faults,
            dumps: Mutex::new(Vec::new()),
            extra_workers: Mutex::new(Vec::new()),
            recorder: Recorder::new(cfg.recording, nrings),
            epoch: Instant::now(),
            next_uid: AtomicU64::new(1),
            cfg,
        });
        let mut workers = Vec::new();
        for d in 0..inner.cfg.domains {
            for w in 0..inner.cfg.workers_per_domain {
                let windex = d * inner.cfg.workers_per_domain + w;
                let inner = inner.clone();
                workers.push(
                    std::thread::Builder::new()
                        .name(format!("cool-serve-{d}.{w}"))
                        .spawn(move || worker_loop(&inner, d, windex))
                        .expect("spawn serve worker"),
                );
            }
        }
        let watchdog = inner.cfg.stall_timeout.map(|interval| {
            let inner = inner.clone();
            std::thread::Builder::new()
                .name("cool-serve-watchdog".into())
                .spawn(move || serve_watchdog(&inner, interval))
                .expect("spawn serve watchdog")
        });
        WorkServer {
            inner,
            workers,
            watchdog,
        }
    }

    /// Submit a request. Returns the domain it was admitted to, or a typed
    /// refusal: [`SubmitError::Shed`] with backpressure detail,
    /// [`SubmitError::Duplicate`] for an already-admitted id, or
    /// [`SubmitError::Draining`] once a drain has begun.
    pub fn submit(&self, req: Request) -> Result<usize, SubmitError> {
        let inner = &self.inner;
        // Deterministic intake stall: attributable to one request id, so the
        // injected freeze lands on the same admission in every run.
        let stall = inner.faults.as_ref().map_or(0, |f| f.intake_stall_units(req.id));
        if stall > 0 {
            std::thread::sleep(Duration::from_micros(stall));
        }
        let domain = (req.shard % inner.cfg.domains as u64) as usize;
        let pool = &inner.pools[domain];
        // Held from the draining check until the request is outstanding, so
        // a drain either refuses this request or waits for it.
        let mut books = inner.books.lock();
        books.stats.intake_stalls += u64::from(stall > 0);
        let mut q = pool.q.lock();
        let at = Backpressure {
            domain,
            depth: q.depth(),
            queued_units: q.queued_units,
        };
        let draining = inner.draining.load(Ordering::SeqCst);
        if let Err(e) = books.admit(&inner.cfg, req.id, req.cost, draining, at) {
            if matches!(e, SubmitError::Shed(_)) && inner.recorder.is_some() {
                let (ring, time) = (inner.intake_ring(), inner.now_ns());
                inner.emit(
                    ring,
                    Event::RequestShed {
                        req: req.id,
                        domain,
                        depth: at.depth,
                        time,
                    },
                );
            }
            return Err(e);
        }
        drop(books);
        let now = Instant::now();
        q.queued_units += req.cost;
        q.ready.push_back(Job {
            id: req.id,
            cost: req.cost,
            attempt: 0,
            admitted: now,
            deadline: now + inner.cfg.deadline,
            body: req.body,
            accesses: req.accesses,
        });
        pool.wake.notify_one();
        // Emitted while the queue lock is held: the admit event lands in
        // the stream before any attempt event of the worker that pops it.
        if inner.recorder.is_some() {
            let (ring, time) = (inner.intake_ring(), inner.now_ns());
            inner.emit(
                ring,
                Event::RequestAdmit {
                    req: req.id,
                    domain,
                    depth: q.depth(),
                    time,
                },
            );
        }
        drop(q);
        Ok(domain)
    }

    /// Graceful shutdown, phase 1: stop admitting (new submits get
    /// [`SubmitError::Draining`]) and block until every admitted request has
    /// reached a terminal outcome — including retries still waiting out
    /// their backoff. Workers stay up until the server is dropped.
    pub fn drain(&self) {
        let inner = &self.inner;
        let mut books = inner.books.lock();
        inner.draining.store(true, Ordering::SeqCst);
        while books.outstanding > 0 {
            inner.drained.wait(&mut books);
        }
        drop(books);
        if inner.full() {
            inner.emit(inner.intake_ring(), Event::RequestDrain { time: inner.now_ns() });
        }
    }

    /// Service counters since startup.
    pub fn stats(&self) -> ServeStats {
        self.inner.books.lock().stats
    }

    /// Per-request records, keyed by id (deterministic order).
    pub fn outcomes(&self) -> BTreeMap<u64, RequestRecord> {
        self.inner.books.lock().records.clone()
    }

    /// Stall dumps recorded by the watchdog.
    pub fn stall_dumps(&self) -> Vec<StallDump> {
        self.inner.dumps.lock().clone()
    }

    /// Drain the event stream recorded so far (empty when recording is
    /// off). Call after [`WorkServer::drain`] for a `Full` stream that ends
    /// with the drain barrier.
    pub fn take_obs(&self) -> EventLog {
        self.inner.recorder.as_ref().map(Recorder::drain).unwrap_or_default()
    }

    /// Requests admitted but not yet terminal.
    pub fn outstanding(&self) -> usize {
        self.inner.books.lock().outstanding
    }
}

impl Drop for WorkServer {
    fn drop(&mut self) {
        let inner = &self.inner;
        inner.draining.store(true, Ordering::SeqCst);
        inner.shutdown.store(true, Ordering::SeqCst);
        // The watchdog first: once it has exited it can start no
        // replacement worker behind the joins below.
        if let Some(w) = self.watchdog.take() {
            let _ = w.join();
        }
        for pool in &inner.pools {
            let _q = pool.q.lock();
            pool.wake.notify_all();
        }
        let extras = std::mem::take(&mut *inner.extra_workers.lock());
        for w in self.workers.drain(..).chain(extras) {
            let _ = w.join();
        }
    }
}

/// One pool worker: pop ready work (promoting backed-off retries whose time
/// has come), run it, and park until woken or the earliest deferred retry is
/// due.
fn worker_loop(inner: &ServeInner, domain: usize, windex: usize) {
    let pool = &inner.pools[domain];
    loop {
        if inner.shutdown.load(Ordering::SeqCst) {
            return;
        }
        let job = {
            let mut q = pool.q.lock();
            let now = Instant::now();
            let mut i = 0;
            while i < q.deferred.len() {
                if q.deferred[i].0 <= now {
                    let (_, j) = q.deferred.swap_remove(i);
                    q.ready.push_back(j);
                } else {
                    i += 1;
                }
            }
            match q.ready.pop_front() {
                Some(j) => {
                    q.queued_units = q.queued_units.saturating_sub(j.cost);
                    Some(j)
                }
                None => {
                    let wake_at = q
                        .deferred
                        .iter()
                        .map(|&(t, _)| t)
                        .min()
                        .unwrap_or_else(|| now + Duration::from_millis(1));
                    pool.wake.wait_until(&mut q, wake_at);
                    None
                }
            }
        };
        if let Some(job) = job {
            run_job(inner, domain, windex, job);
        }
    }
}

fn run_job(inner: &ServeInner, domain: usize, windex: usize, mut job: Job) {
    let pool = &inner.pools[domain];
    pool.executing.fetch_add(1, Ordering::SeqCst);
    inner.beat(domain);
    let late = Instant::now() >= job.deadline;
    // Injected transient failure: consumed before the body runs, so a
    // later successful attempt is still the body's only success.
    let injected = !late
        && job.attempt == 0
        && inner.faults.as_ref().is_some_and(|f| f.should_fail_request(job.id));
    let mut books = inner.books.lock();
    books.start(job.id, !late && !injected);
    books.stats.injected_failures += u64::from(injected);
    drop(books);
    if inner.full() {
        inner.emit(
            windex,
            Event::RequestAttempt {
                req: job.id,
                attempt: job.attempt + 1,
                domain,
                proc: ProcId(windex),
                time: inner.now_ns(),
            },
        );
    }
    // `None`: the deadline passed before the attempt could start.
    let ran = if late {
        None
    } else if injected {
        Some(Err("injected transient request failure".to_string()))
    } else {
        Some(run_body(inner, domain, windex, &job))
    };
    pool.executing.fetch_sub(1, Ordering::SeqCst);
    inner.beat(domain);
    let (cfg, attempts, now) = (&inner.cfg, job.attempt + 1, Instant::now());
    // A failed attempt may retry once its backoff has passed.
    let backoff = retry_backoff(job.id, attempts, cfg.base_backoff, cfg.max_backoff);
    let result = match ran {
        None => Attempt::DeadlineExceeded,
        Some(Ok(())) => Attempt::Success {
            latency: now - job.admitted,
        },
        Some(Err(error)) => Attempt::Failed {
            error,
            retry_fits: now + backoff < job.deadline,
        },
    };
    let mut books = inner.books.lock();
    if let Some(outcome) = books.settle(cfg, job.id, job.attempt, result) {
        // Emitted under the books lock, before the drained notify, so the
        // drain barrier event follows every terminal outcome.
        if inner.recorder.is_some() {
            inner.emit(
                windex,
                Event::RequestDone {
                    req: job.id,
                    attempts: outcome.attempts(),
                    ok: matches!(outcome, Outcome::Completed { .. }),
                    latency_ns: (now - job.admitted).as_nanos() as u64,
                    domain,
                    proc: ProcId(windex),
                    time: inner.now_ns(),
                },
            );
        }
        if books.outstanding == 0 {
            inner.drained.notify_all();
        }
        return;
    }
    drop(books);
    // Emitted before the requeue is published: the next attempt's pop
    // (and its event) can only follow this retry.
    if inner.recorder.is_some() {
        inner.emit(
            windex,
            Event::RequestRetry {
                req: job.id,
                attempt: job.attempt,
                backoff_ns: backoff.as_nanos() as u64,
                domain,
                proc: ProcId(windex),
                time: inner.now_ns(),
            },
        );
    }
    job.attempt = attempts;
    let mut q = pool.q.lock();
    q.queued_units += job.cost;
    q.deferred.push((now + backoff, job));
    pool.wake.notify_one();
}

/// Run `job`'s body once, on worker `windex` of `domain`; `Err` carries
/// the body's error or panic message.
fn run_body(inner: &ServeInner, domain: usize, windex: usize, job: &Job) -> Result<(), String> {
    if let Some(f) = &inner.faults {
        // Slow pool: every job this domain executes costs extra.
        let extra = f.domain_slow_units(domain);
        if extra > 0 {
            std::thread::sleep(Duration::from_micros(extra));
        }
    }
    let traced = inner.recorder.is_some();
    let uid = TaskUid(inner.next_uid.fetch_add(1, Ordering::Relaxed));
    if traced {
        inner.emit(
            windex,
            Event::TaskBegin {
                task: uid,
                label: Some("serve"),
                proc: ProcId(windex),
                target: ProcId(windex),
                hinted: true,
                set: None,
                object: None,
                object_home: None,
                time: inner.now_ns(),
            },
        );
    }
    if inner.full() {
        for &(addr, len, kind) in job.accesses.iter() {
            inner.emit(
                windex,
                Event::Access {
                    task: req_uid(job.id),
                    obj: ObjRef(addr),
                    len,
                    kind,
                    proc: ProcId(windex),
                    time: inner.now_ns(),
                },
            );
        }
    }
    let body = job.body.clone();
    let attempt = job.attempt;
    let outcome = catch_unwind(AssertUnwindSafe(move || body(attempt)));
    if traced {
        inner.emit(
            windex,
            Event::TaskEnd {
                task: uid,
                proc: ProcId(windex),
                mem: None,
                time: inner.now_ns(),
            },
        );
    }
    outcome.unwrap_or_else(|payload| Err(panic_message(payload.as_ref())))
}

/// Pool-stall detector: a domain with work on hand (a body executing or
/// ready requests waiting) whose liveness beacon has been quiet for a full
/// `interval` gets a [`StallDump`] recorded — naming the in-flight request
/// ids — and, while the restart budget lasts, a replacement worker so the
/// queue behind the stuck body keeps draining.
fn serve_watchdog(inner: &Arc<ServeInner>, interval: Duration) {
    let poll = (interval / 4).max(Duration::from_millis(1));
    loop {
        std::thread::sleep(poll);
        if inner.shutdown.load(Ordering::SeqCst) {
            return;
        }
        let now_ns = inner.now_ns();
        for d in 0..inner.cfg.domains {
            let pool = &inner.pools[d];
            let busy =
                pool.executing.load(Ordering::SeqCst) > 0 || !pool.q.lock().ready.is_empty();
            let quiet =
                now_ns.saturating_sub(pool.last_beat.load(Ordering::SeqCst)) >= interval.as_nanos() as u64;
            if !(busy && quiet) {
                continue;
            }
            let dump = inner.dump();
            eprintln!("cool-serve watchdog: domain {d} stalled: {dump}");
            inner.dumps.lock().push(dump);
            // Reset the beacon either way so one stuck body produces one
            // dump per quiet interval, not one per poll.
            inner.beat(d);
            let mut books = inner.books.lock();
            let restarts = books.stats.pool_restarts as usize;
            if restarts < inner.cfg.max_pool_restarts {
                books.stats.pool_restarts += 1;
                drop(books);
                let windex = inner.cfg.domains * inner.cfg.workers_per_domain + restarts;
                let inner2 = inner.clone();
                let handle = std::thread::Builder::new()
                    .name(format!("cool-serve-{d}.r{restarts}"))
                    .spawn(move || worker_loop(&inner2, d, windex))
                    .expect("spawn replacement worker");
                inner.extra_workers.lock().push(handle);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::atomic::AtomicU32;

    fn counters(n: usize) -> Arc<Vec<AtomicU32>> {
        Arc::new((0..n).map(|_| AtomicU32::new(0)).collect())
    }

    #[test]
    fn completes_all_requests_exactly_once() {
        let srv = WorkServer::new(ServeConfig::new(4, 2));
        let runs = counters(64);
        for i in 0..64u64 {
            let runs = runs.clone();
            srv.submit(Request::new(i, i * 7, 1, move |_| {
                runs[i as usize].fetch_add(1, Ordering::SeqCst);
                Ok(())
            }))
            .unwrap();
        }
        srv.drain();
        for (i, c) in runs.iter().enumerate() {
            assert_eq!(c.load(Ordering::SeqCst), 1, "request {i} ran wrong # times");
        }
        let st = srv.stats();
        assert_eq!(st.admitted, 64);
        assert_eq!(st.completed, 64);
        for (id, rec) in srv.outcomes() {
            assert!(
                matches!(rec.outcome, Some(Outcome::Completed { attempts: 1, .. })),
                "request {id}: {rec:?}"
            );
            assert_eq!(rec.body_successes, 1);
        }
    }

    #[test]
    fn duplicate_ids_are_refused() {
        let srv = WorkServer::new(ServeConfig::new(1, 1));
        srv.submit(Request::new(9, 0, 1, |_| Ok(()))).unwrap();
        let err = srv.submit(Request::new(9, 0, 1, |_| Ok(()))).unwrap_err();
        assert_eq!(err, SubmitError::Duplicate(9));
        srv.drain();
        assert_eq!(srv.stats().duplicates, 1);
        assert_eq!(srv.outcomes()[&9].body_runs, 1);
    }

    #[test]
    fn overload_sheds_with_backpressure() {
        // One slow worker, capacity 2: a fast burst must shed.
        let srv = WorkServer::new(ServeConfig::new(1, 1).with_capacity(2));
        let mut shed = 0;
        for i in 0..16u64 {
            let r = srv.submit(Request::new(i, 0, 1, |_| {
                std::thread::sleep(Duration::from_millis(2));
                Ok(())
            }));
            if let Err(SubmitError::Shed(bp)) = r {
                assert_eq!(bp.domain, 0);
                assert!(bp.depth >= 2, "shed below capacity: {bp:?}");
                shed += 1;
            }
        }
        assert!(shed > 0, "burst never shed");
        srv.drain();
        let st = srv.stats();
        assert_eq!(st.shed, shed);
        assert_eq!(st.admitted + st.shed, 16);
        assert_eq!(st.completed, st.admitted);
    }

    #[test]
    fn budget_admission_counts_queued_units() {
        let srv = WorkServer::new(ServeConfig::new(1, 1).with_capacity(100).with_budget(10));
        // A blocker occupies the worker so queued units accumulate.
        srv.submit(Request::new(0, 0, 1, |_| {
            std::thread::sleep(Duration::from_millis(10));
            Ok(())
        }))
        .unwrap();
        std::thread::sleep(Duration::from_millis(2));
        let mut shed_units = false;
        for i in 1..8u64 {
            if let Err(SubmitError::Shed(_)) = srv.submit(Request::new(i, 0, 4, |_| Ok(()))) {
                shed_units = true;
            }
        }
        assert!(shed_units, "unit budget never shed");
        srv.drain();
    }

    #[test]
    fn injected_failures_retry_and_complete() {
        let plan = FaultPlan::new(1).fail_request(3).fail_request(11);
        let srv = WorkServer::with_faults(ServeConfig::new(2, 1), plan);
        let runs = counters(16);
        for i in 0..16u64 {
            let runs = runs.clone();
            srv.submit(Request::new(i, i, 1, move |_| {
                runs[i as usize].fetch_add(1, Ordering::SeqCst);
                Ok(())
            }))
            .unwrap();
        }
        srv.drain();
        let st = srv.stats();
        assert_eq!(st.injected_failures, 2);
        assert!(st.retries >= 2);
        assert_eq!(st.completed, 16);
        let out = srv.outcomes();
        for id in [3u64, 11] {
            let rec = &out[&id];
            assert!(
                matches!(rec.outcome, Some(Outcome::Completed { attempts: 2, .. })),
                "request {id}: {rec:?}"
            );
            assert_eq!(rec.body_runs, 1, "injected failure must not run the body");
            assert_eq!(rec.body_successes, 1);
        }
        for (id, rec) in &out {
            assert_eq!(rec.body_successes, 1, "request {id} double-ran");
        }
    }

    #[test]
    fn failing_bodies_exhaust_attempts() {
        let cfg = ServeConfig::new(1, 1).with_retry(
            3,
            Duration::from_micros(50),
            Duration::from_micros(200),
        );
        let srv = WorkServer::new(cfg);
        let runs = counters(1);
        let r2 = runs.clone();
        srv.submit(Request::new(0, 0, 1, move |attempt| {
            r2[0].fetch_add(1, Ordering::SeqCst);
            Err(format!("attempt {attempt} says no"))
        }))
        .unwrap();
        srv.drain();
        assert_eq!(runs[0].load(Ordering::SeqCst), 3);
        let rec = &srv.outcomes()[&0];
        match &rec.outcome {
            Some(Outcome::Failed { attempts: 3, error }) => {
                assert!(error.contains("attempt 2"), "last error survives: {error}");
            }
            other => panic!("expected Failed after 3 attempts, got {other:?}"),
        }
        assert_eq!(srv.stats().retries, 2);
    }

    #[test]
    fn deadline_times_out_instead_of_hopeless_retry() {
        // Backoff far beyond the deadline: the first failure must convert to
        // TimedOut without burning another attempt.
        let cfg = ServeConfig::new(1, 1)
            .with_retry(5, Duration::from_millis(50), Duration::from_millis(50))
            .with_deadline(Duration::from_millis(5));
        let srv = WorkServer::with_faults(cfg, FaultPlan::new(0).fail_request(0));
        let runs = counters(1);
        let r2 = runs.clone();
        srv.submit(Request::new(0, 0, 1, move |_| {
            r2[0].fetch_add(1, Ordering::SeqCst);
            Ok(())
        }))
        .unwrap();
        srv.drain();
        assert_eq!(runs[0].load(Ordering::SeqCst), 0, "doomed retry still ran");
        assert!(
            matches!(srv.outcomes()[&0].outcome, Some(Outcome::TimedOut { .. })),
            "{:?}",
            srv.outcomes()[&0]
        );
        assert_eq!(srv.stats().timed_out, 1);
    }

    #[test]
    fn drain_refuses_new_requests() {
        let srv = WorkServer::new(ServeConfig::new(2, 1));
        srv.submit(Request::new(0, 0, 1, |_| Ok(()))).unwrap();
        srv.drain();
        assert_eq!(
            srv.submit(Request::new(1, 0, 1, |_| Ok(()))).unwrap_err(),
            SubmitError::Draining
        );
        assert_eq!(srv.stats().completed, 1);
        assert_eq!(srv.outstanding(), 0);
    }

    #[test]
    fn panicking_body_is_a_failed_attempt_not_a_crash() {
        let cfg = ServeConfig::new(1, 1).with_retry(
            2,
            Duration::from_micros(50),
            Duration::from_micros(100),
        );
        let srv = WorkServer::new(cfg);
        let runs = counters(1);
        let r2 = runs.clone();
        srv.submit(Request::new(0, 0, 1, move |attempt| {
            r2[0].fetch_add(1, Ordering::SeqCst);
            if attempt == 0 {
                panic!("first attempt explodes");
            }
            Ok(())
        }))
        .unwrap();
        srv.drain();
        assert_eq!(runs[0].load(Ordering::SeqCst), 2);
        let rec = &srv.outcomes()[&0];
        assert!(
            matches!(rec.outcome, Some(Outcome::Completed { attempts: 2, .. })),
            "{rec:?}"
        );
        assert_eq!(rec.body_successes, 1);
    }

    #[test]
    fn watchdog_restarts_a_stalled_pool() {
        let cfg = ServeConfig::new(1, 1)
            .with_capacity(8)
            .with_stall_timeout(Duration::from_millis(20));
        let srv = WorkServer::new(cfg);
        let runs = counters(2);
        let r2 = runs.clone();
        // Request 0 wedges the only worker well past the stall interval.
        srv.submit(Request::new(0, 0, 1, move |_| {
            std::thread::sleep(Duration::from_millis(120));
            r2[0].fetch_add(1, Ordering::SeqCst);
            Ok(())
        }))
        .unwrap();
        std::thread::sleep(Duration::from_millis(5));
        let r2 = runs.clone();
        srv.submit(Request::new(1, 0, 1, move |_| {
            r2[1].fetch_add(1, Ordering::SeqCst);
            Ok(())
        }))
        .unwrap();
        srv.drain();
        assert_eq!(runs[0].load(Ordering::SeqCst), 1);
        assert_eq!(runs[1].load(Ordering::SeqCst), 1);
        let st = srv.stats();
        assert!(st.pool_restarts >= 1, "watchdog never restarted: {st:?}");
        let dumps = srv.stall_dumps();
        assert!(!dumps.is_empty());
        assert!(
            dumps[0].in_flight.contains(&0),
            "dump must name the stuck request: {:?}",
            dumps[0].in_flight
        );
        assert!(dumps[0].queue_depths[0] >= 1, "queued work behind the stall");
    }

    #[test]
    fn drop_joins_every_replacement_worker() {
        // A 4 ms stall timeout against a 50 ms body: the watchdog keeps
        // starting replacements for the wedged domain until the drop.
        let cfg = ServeConfig::new(1, 1)
            .with_stall_timeout(Duration::from_millis(4))
            .with_max_pool_restarts(64);
        let srv = WorkServer::new(cfg);
        srv.submit(Request::new(0, 0, 1, |_| {
            std::thread::sleep(Duration::from_millis(50));
            Ok(())
        }))
        .unwrap();
        std::thread::sleep(Duration::from_millis(20));
        let inner = Arc::downgrade(&srv.inner);
        drop(srv);
        assert_eq!(inner.strong_count(), 0, "a server thread outlived the drop");
    }

    #[test]
    fn sharding_routes_equal_keys_to_equal_domains() {
        let srv = WorkServer::new(ServeConfig::new(4, 1));
        let d1 = srv.submit(Request::new(0, 13, 1, |_| Ok(()))).unwrap();
        let d2 = srv.submit(Request::new(1, 13 + 4, 1, |_| Ok(()))).unwrap();
        let d3 = srv.submit(Request::new(2, 13, 1, |_| Ok(()))).unwrap();
        assert_eq!(d1, 13 % 4);
        assert_eq!(d1, d2);
        assert_eq!(d1, d3);
        srv.drain();
    }

    #[test]
    fn retry_backoff_is_deterministic_bounded_and_jittered() {
        let base = Duration::from_millis(1);
        let max = Duration::from_millis(8);
        for id in 0..50u64 {
            for attempt in 1..6u32 {
                let b1 = retry_backoff(id, attempt, base, max);
                let b2 = retry_backoff(id, attempt, base, max);
                assert_eq!(b1, b2, "backoff must be deterministic");
                let level = base
                    .checked_mul(1 << (attempt - 1).min(20))
                    .unwrap_or(max)
                    .min(max);
                assert!(b1 >= level / 2 && b1 <= level, "{b1:?} outside [{level:?}/2, {level:?}]");
            }
        }
        // Jitter decorrelates distinct ids at the same attempt.
        let distinct: HashSet<Duration> =
            (0..50u64).map(|id| retry_backoff(id, 3, base, max)).collect();
        assert!(distinct.len() > 10, "jitter too coarse: {}", distinct.len());
    }

    #[test]
    fn recorded_events_respect_lifecycle_order() {
        let cfg = ServeConfig::new(2, 2)
            .with_retry(3, Duration::from_micros(50), Duration::from_micros(200))
            .with_events();
        let srv = WorkServer::with_faults(cfg, FaultPlan::new(0).fail_request(3));
        for i in 0..8u64 {
            srv.submit(
                Request::new(i, i, 1, |_| Ok(()))
                    .with_accesses(vec![(0x1000 + i * 64, 8, AccessKind::Write)]),
            )
            .unwrap();
        }
        srv.drain();
        let log = srv.take_obs();
        assert_eq!(log.dropped, 0, "Full mode is lossless");
        let evs = log.events;
        assert!(matches!(evs.last(), Some(Event::RequestDrain { .. })));
        // Per request: admit strictly precedes attempt 1; a retry strictly
        // precedes the next attempt; every request has exactly one terminal
        // outcome before the drain event.
        for id in 0..8u64 {
            let admit = evs
                .iter()
                .position(|e| matches!(e, Event::RequestAdmit { req, .. } if *req == id))
                .expect("admit recorded");
            let first_attempt = evs
                .iter()
                .position(
                    |e| matches!(e, Event::RequestAttempt { req, attempt: 1, .. } if *req == id),
                )
                .expect("attempt recorded");
            assert!(admit < first_attempt, "request {id}");
        }
        // Request 3 was injected to fail once: retry then attempt 2.
        let retry = evs
            .iter()
            .position(|e| matches!(e, Event::RequestRetry { req: 3, .. }))
            .expect("retry recorded");
        let second = evs
            .iter()
            .position(|e| matches!(e, Event::RequestAttempt { req: 3, attempt: 2, .. }))
            .expect("second attempt recorded");
        assert!(retry < second);
        let accesses = evs
            .iter()
            .filter(|e| matches!(e, Event::Access { .. }))
            .count();
        assert_eq!(accesses, 8, "one declared access per body run");
        let terminals = evs
            .iter()
            .filter(|e| matches!(e, Event::RequestDone { ok: true, .. }))
            .count();
        assert_eq!(terminals, 8);
        // Drained stream: a second take is empty.
        assert!(srv.take_obs().events.is_empty());
    }

    #[test]
    fn service_events_flow_into_the_obs_stream() {
        let cfg = ServeConfig::new(1, 1).with_capacity(1).with_trace();
        let srv = WorkServer::with_faults(cfg, FaultPlan::new(0).fail_request(0));
        srv.submit(Request::new(0, 0, 1, |_| {
            std::thread::sleep(Duration::from_millis(2));
            Ok(())
        }))
        .unwrap();
        // Overfill so at least one shed is recorded.
        let mut shed = false;
        for i in 1..12u64 {
            if srv.submit(Request::new(i, 0, 1, |_| Ok(()))).is_err() {
                shed = true;
            }
        }
        assert!(shed);
        srv.drain();
        let trace = srv.take_obs();
        let has = |f: &dyn Fn(&Event) -> bool| trace.events.iter().any(f);
        assert!(has(&|e| matches!(e, Event::RequestAdmit { .. })));
        assert!(has(&|e| matches!(e, Event::RequestShed { .. })));
        assert!(has(&|e| matches!(e, Event::RequestRetry { req: 0, .. })));
        assert!(has(&|e| matches!(e, Event::RequestDone { ok: true, .. })));
        assert!(has(&|e| matches!(e, Event::TaskBegin { label: Some("serve"), .. })));
    }
}
