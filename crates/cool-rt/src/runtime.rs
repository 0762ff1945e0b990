//! The threaded runtime: worker threads, scopes, and the scheduling loop.
//!
//! ## Failure model
//!
//! A task body that panics does not take the runtime down with it. Execution
//! is wrapped in `catch_unwind`, and the two pieces of scheduler state a task
//! can hold — its slot in the enclosing `waitfor` scope and the `mutex_on`
//! object it may have locked — are released by RAII guards (`ScopeTicket`,
//! `HeldGuard`) that run on the unwind path too. The worker thread then
//! keeps scheduling; the failure is reported to the scope's waiter as a
//! [`TaskError`] inside [`ScopeError::Panicked`], and counted in
//! `SchedStats::panics`.
//!
//! Scopes that never finish are handled by the stall watchdog (see the
//! [`watchdog`](crate::watchdog) module) and by
//! [`Runtime::scope_with_timeout`].
//!
//! ## Sharing
//!
//! A task's trip through the runtime writes only two cache lines that
//! another worker also touches: the target server's queue and its scope's
//! completion counter (plus the `Arc`s and the task `Box` it carries, and
//! the placement registry's read lock when its affinity names an object).
//! Everything else a worker writes per task — statistics, the watchdog's
//! liveness count, the in-flight uid — sits on its own server's padded
//! lines, and the held-mutex set is sharded. DESIGN.md §5 ("Per-task sharing
//! rule") gives the rule and the memory orderings it relies on.

use std::collections::HashSet;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};

use cool_core::affinity::hash_token;
use cool_core::{
    AffinityKind, AffinitySpec, Event, EventLog, FaultPlan, ObjRef, ProcId, Recorder, Recording,
    SchedStats, ServerQueues, StealPolicy, TaskError, TaskUid, Topology, VictimOrders,
};

use crate::faults::FaultInjector;
use crate::pad::CachePadded;
use crate::placement::Placement;
use crate::watchdog::StallDump;

/// Shards of the held-mutex set: a power of two well above the worker
/// count, so two workers' objects seldom share a shard's lock.
const HELD_SHARDS: usize = 64;

/// Consecutive failed mutex acquisitions on one server before it stops
/// spin-requeueing and parks briefly instead.
const MUTEX_PARK_AFTER: usize = 16;

/// How long a server parks once mutex contention escalates past
/// [`MUTEX_PARK_AFTER`] consecutive rotations.
const MUTEX_PARK: Duration = Duration::from_micros(50);

/// Affinity-queue array size per server.
const AFFINITY_SLOTS: usize = 64;

/// Configuration for the threaded runtime.
#[derive(Clone, Copy, Debug)]
pub struct RtConfig {
    /// The machine tree the workers run on: one worker thread (server) per
    /// processor, `topology.nservers` of them. Its levels set the steal
    /// order and the domains the [`StealPolicy`] ceilings bound (purely
    /// logical on a UMA host).
    pub topology: Topology,
    /// Steal policy.
    pub policy: StealPolicy,
    /// If set, run a watchdog thread that dumps diagnostics whenever a scope
    /// is open but no task has completed for this long.
    pub stall_timeout: Option<Duration>,
    /// Record the trace events ([`Recording::Trace`]) into per-worker
    /// rings, drained with [`Runtime::take_obs`]. Timestamps are nanoseconds
    /// since runtime startup. Off by default: when disabled every emission
    /// site is a single branch.
    pub record_trace: bool,
}

impl RtConfig {
    /// Sensible defaults for `nthreads` workers: the classic 2-level
    /// machine of 4-processor clusters ([`Topology::clustered`]).
    pub fn new(nthreads: usize) -> Self {
        RtConfig {
            topology: Topology::clustered(nthreads, 4),
            policy: StealPolicy::default(),
            stall_timeout: None,
            record_trace: false,
        }
    }

    /// Run the workers on an explicit machine tree (builder style), e.g. an
    /// N-level [`Topology::tree`] so the per-level steal knobs of
    /// [`StealPolicy`] have levels to widen over. The worker count becomes
    /// the tree's processor count.
    pub fn with_topology(mut self, topo: Topology) -> Self {
        self.topology = topo;
        self
    }

    /// Enable scheduler-observability tracing (see [`Runtime::take_obs`]).
    pub fn with_trace(mut self) -> Self {
        self.record_trace = true;
        self
    }

    /// Replace the steal policy.
    pub fn with_policy(mut self, policy: StealPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Enable the stall watchdog. Pick an interval longer than the
    /// longest-running single task: the liveness signal is task
    /// *completions*, so one long body looks the same as a stall.
    pub fn with_stall_timeout(mut self, interval: Duration) -> Self {
        self.stall_timeout = Some(interval);
        self
    }
}

/// The body type for threaded tasks.
pub type RtBody = Box<dyn FnOnce(&RtCtx<'_>) + Send>;

/// A task for the threaded runtime (mirrors `cool_sim::Task`).
pub struct RtTask {
    body: RtBody,
    affinity: AffinitySpec,
    mutex_on: Option<ObjRef>,
    label: Option<&'static str>,
}

impl RtTask {
    /// A task with no hints.
    pub fn new(body: impl FnOnce(&RtCtx<'_>) + Send + 'static) -> Self {
        RtTask {
            body: Box::new(body),
            affinity: AffinitySpec::none(),
            mutex_on: None,
            label: None,
        }
    }

    /// Attach an affinity specification.
    pub fn with_affinity(mut self, spec: AffinitySpec) -> Self {
        self.affinity = spec;
        self
    }

    /// Declare the task a `mutex` function on `obj`.
    pub fn with_mutex(mut self, obj: ObjRef) -> Self {
        self.mutex_on = Some(obj);
        self
    }

    /// Attach a label that appears in the observability trace.
    pub fn with_label(mut self, label: &'static str) -> Self {
        self.label = Some(label);
        self
    }
}

/// A queued task bound to its scheduling decision and scope.
struct Queued {
    task: RtTask,
    target: ProcId,
    hinted: bool,
    /// Identity in the observability trace (assigned at spawn).
    uid: TaskUid,
    /// RAII membership in the enclosing scope: dropped (normally, on panic,
    /// or if the task is discarded at shutdown) it signals completion.
    ticket: ScopeTicket,
    /// This task's first dispatch must fail (transient injected fault).
    inject: bool,
    /// The task has already been through a mutex rotation (stats tell first
    /// blocks apart from retries).
    blocked_before: bool,
}

/// Scope bookkeeping for `waitfor`.
struct ScopeState {
    /// Tasks spawned into the scope that have not finished.
    remaining: AtomicUsize,
    /// The waiter's sleep. Only the waiter and the `exit` that brings
    /// `remaining` to zero take it; every other task touches the counter only.
    lock: Mutex<()>,
    done: Condvar,
    /// Panics collected from tasks in this scope.
    failures: Mutex<Vec<TaskError>>,
}

impl ScopeState {
    fn new() -> Arc<Self> {
        Arc::new(ScopeState {
            remaining: AtomicUsize::new(0),
            lock: Mutex::new(()),
            done: Condvar::new(),
            failures: Mutex::new(Vec::new()),
        })
    }

    /// Relaxed: the spawner holds a ticket of its own (or is the seed, which
    /// runs before anyone waits), so this increment never races a count that
    /// a waiter could see reach zero.
    fn enter(&self) {
        self.remaining.fetch_add(1, Ordering::Relaxed);
    }

    /// Release pairs with the waiter's Acquire load in [`Self::drained`]: a
    /// waiter that sees zero also sees every finished task's writes,
    /// including a failure recorded before the ticket dropped.
    fn exit(&self) {
        if self.remaining.fetch_sub(1, Ordering::Release) == 1 {
            // Holding the lock orders this notify after a waiter's
            // check-then-wait, so the wake-up cannot fall between the two.
            let _guard = self.lock.lock();
            self.done.notify_all();
        }
    }

    fn drained(&self) -> bool {
        self.remaining.load(Ordering::Acquire) == 0
    }

    fn record_failure(&self, err: TaskError) {
        self.failures.lock().push(err);
    }

    fn take_failures(&self) -> Vec<TaskError> {
        std::mem::take(&mut *self.failures.lock())
    }

    fn wait(&self) {
        let mut guard = self.lock.lock();
        while !self.drained() {
            self.done.wait(&mut guard);
        }
    }

    /// Wait until the scope drains or `deadline` passes; true iff drained.
    fn wait_until(&self, deadline: Instant) -> bool {
        let mut guard = self.lock.lock();
        while !self.drained() {
            if self.done.wait_until(&mut guard, deadline).timed_out() {
                return self.drained();
            }
        }
        true
    }
}

/// RAII token for one task's membership in a scope. Created at spawn time;
/// however the task ends — normal return, panic, or being dropped unrun when
/// the runtime shuts down — the drop signals the scope, so `scope()` can
/// never be left waiting on a task that no longer exists.
struct ScopeTicket {
    scope: Arc<ScopeState>,
}

impl ScopeTicket {
    fn new(scope: Arc<ScopeState>) -> Self {
        scope.enter();
        ScopeTicket { scope }
    }

    fn scope(&self) -> &Arc<ScopeState> {
        &self.scope
    }
}

impl Drop for ScopeTicket {
    fn drop(&mut self) {
        self.scope.exit();
    }
}

/// The objects whose mutex is currently held, sharded by [`hash_token`] so
/// tasks on different objects seldom write the same lock.
struct HeldSet {
    shards: [CachePadded<Mutex<HashSet<ObjRef>>>; HELD_SHARDS],
}

impl HeldSet {
    fn new() -> Self {
        HeldSet {
            shards: std::array::from_fn(|_| CachePadded::default()),
        }
    }

    /// Take `obj`'s mutex; false if another task holds it.
    fn try_acquire(&self, obj: ObjRef) -> bool {
        self.shards[held_shard(obj)].lock().insert(obj)
    }

    fn release(&self, obj: ObjRef) {
        self.shards[held_shard(obj)].lock().remove(&obj);
    }

    /// Every held object, sorted.
    fn snapshot(&self) -> Vec<ObjRef> {
        let mut v = Vec::new();
        for s in &self.shards {
            v.extend(s.lock().iter().copied());
        }
        v.sort();
        v
    }
}

/// The held-set shard `obj` belongs to.
fn held_shard(obj: ObjRef) -> usize {
    hash_token(obj) % HELD_SHARDS
}

/// RAII ownership of one object's mutex in the held set: released on drop,
/// so a panicking mutex task cannot leak the lock and wedge every later task
/// on the same object.
struct HeldGuard<'a> {
    held: &'a HeldSet,
    obj: ObjRef,
}

impl Drop for HeldGuard<'_> {
    fn drop(&mut self) {
        self.held.release(self.obj);
    }
}

/// One server, split by who writes it: `inbox` is written by every task
/// spawned onto this server, `own` only by this server's worker. Each part
/// sits on cache lines of its own.
struct Server {
    inbox: CachePadded<Inbox>,
    own: CachePadded<Own>,
}

/// The part of a server that spawners write.
struct Inbox {
    queue: Mutex<Queue>,
    /// The worker is parking. Stored (SeqCst) before the worker re-checks
    /// its queue and loaded (SeqCst) by `enqueue` after its push, so either
    /// the worker sees the task or the spawner sees the flag and wakes it.
    sleeping: AtomicBool,
    sleep_lock: Mutex<()>,
    wake: Condvar,
}

/// A server's queue structure and what is counted under its lock.
struct Queue {
    tasks: ServerQueues<Queued>,
    /// Tasks spawned onto this server (`SchedStats::spawned`), counted under
    /// the lock the push already holds. It also numbers the server's task
    /// uids.
    spawned: u64,
}

/// The part of a server only its own worker writes.
struct Own {
    /// Every counter except `spawned`, which lives in [`Queue`].
    stats: Mutex<SchedStats>,
    /// Tasks finished here: the watchdog sums these as its liveness signal.
    /// Relaxed, like `executing`: neither publishes other data.
    completed: AtomicU64,
    /// Uid of the task executing here (`u64::MAX` when idle); read by
    /// `dump()` so a stall names the bodies that are stuck, not just the
    /// queue depths around them.
    executing: AtomicU64,
}

impl Server {
    fn new() -> Self {
        Server {
            inbox: CachePadded::new(Inbox {
                queue: Mutex::new(Queue {
                    tasks: ServerQueues::new(AFFINITY_SLOTS),
                    spawned: 0,
                }),
                sleeping: AtomicBool::new(false),
                sleep_lock: Mutex::new(()),
                wake: Condvar::new(),
            }),
            own: CachePadded::new(Own {
                stats: Mutex::new(SchedStats::default()),
                completed: AtomicU64::new(0),
                executing: AtomicU64::new(u64::MAX),
            }),
        }
    }

    fn stats(&self) -> SchedStats {
        let mut st = *self.own.stats.lock();
        st.spawned = self.inbox.queue.lock().spawned;
        st
    }
}

struct Inner {
    servers: Vec<Server>,
    topology: Topology,
    /// Precomputed per-thief victim orders with common-ancestor levels
    /// (the per-scan `steal_order` allocation sat on the idle hot path).
    victims: VictimOrders,
    policy: StealPolicy,
    placement: Placement,
    held: HeldSet,
    /// Fault injection, if this runtime was built with a plan.
    faults: Option<FaultInjector>,
    /// Scopes opened since startup. With the servers' `completed` counts it
    /// makes the watchdog's liveness signal, so "unchanged for a while"
    /// means "stalled".
    opened: AtomicU64,
    /// `waitfor` scopes currently open.
    open_scopes: AtomicUsize,
    /// Diagnostic dumps produced by the watchdog thread.
    dumps: Mutex<Vec<StallDump>>,
    shutdown: AtomicBool,
    /// Event recorder (present iff `RtConfig::record_trace`).
    obs: Option<Recorder>,
    /// Epoch for observability timestamps (ns since runtime startup).
    epoch: Instant,
}

impl Inner {
    /// Observability enabled? Emission sites check this before building an
    /// event, so disabled tracing costs one branch.
    #[inline]
    fn obs_on(&self) -> bool {
        self.obs.is_some()
    }

    /// Record `ev` on `worker`'s ring (no-op when tracing is off). Workers
    /// record under their own index on the hot path; spawn-side events go to
    /// the target server's ring, which is already serialized by its queue
    /// lock.
    fn obs_emit(&self, worker: usize, ev: Event) {
        if let Some(obs) = &self.obs {
            obs.record(worker, ev);
        }
    }

    /// Observability timestamp: nanoseconds since runtime startup.
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn total_stats(&self) -> SchedStats {
        let mut total = SchedStats::default();
        for s in &self.servers {
            total += s.stats();
        }
        total
    }

    /// The watchdog's liveness signal: scopes opened plus tasks completed.
    fn activity(&self) -> u64 {
        let completed: u64 = self
            .servers
            .iter()
            .map(|s| s.own.completed.load(Ordering::Relaxed))
            .sum();
        self.opened.load(Ordering::Relaxed) + completed
    }

    /// Snapshot the state a stall post-mortem needs.
    fn dump(&self) -> StallDump {
        let stats = self.total_stats();
        let mut in_flight: Vec<u64> = self
            .servers
            .iter()
            .map(|s| s.own.executing.load(Ordering::Relaxed))
            .filter(|&u| u != u64::MAX)
            .collect();
        in_flight.sort_unstable();
        StallDump {
            queue_depths: self
                .servers
                .iter()
                .map(|s| s.inbox.queue.lock().tasks.len())
                .collect(),
            held_mutexes: self.held.snapshot(),
            tasks_executed: stats.executed,
            stats,
            open_scopes: self.open_scopes.load(Ordering::SeqCst),
            in_flight,
        }
    }
}

/// Why a `waitfor` scope did not complete cleanly.
#[derive(Debug)]
pub enum ScopeError {
    /// One or more tasks panicked. The scope still ran to completion — every
    /// non-panicking task executed — and the runtime remains usable.
    Panicked(Vec<TaskError>),
    /// The scope was still unfinished when the deadline passed. The dump
    /// shows where the unrun work and held mutexes sit.
    Stalled {
        /// Diagnostic snapshot taken when the deadline expired.
        dump: Box<StallDump>,
        /// How long the scope was given.
        waited: Duration,
    },
}

impl std::fmt::Display for ScopeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScopeError::Panicked(errs) => {
                write!(f, "{} task(s) panicked in scope", errs.len())?;
                for e in errs {
                    write!(f, "; {e}")?;
                }
                Ok(())
            }
            ScopeError::Stalled { dump, waited } => {
                write!(f, "scope stalled after {waited:?}: {dump}")
            }
        }
    }
}

impl std::error::Error for ScopeError {}

/// Result of running a `waitfor` scope.
pub type ScopeResult = Result<(), ScopeError>;

/// The threaded COOL runtime. Dropping it shuts the workers down.
pub struct Runtime {
    inner: Arc<Inner>,
    workers: Vec<JoinHandle<()>>,
    watchdog: Option<JoinHandle<()>>,
}

/// The context a threaded task body runs against.
pub struct RtCtx<'a> {
    inner: &'a Inner,
    proc: ProcId,
    /// Executing task's identity in the observability trace (`TaskUid(0)`
    /// for the scope seed).
    task: TaskUid,
    /// Borrowed from the task's ticket: only a spawn clones the `Arc`.
    scope: &'a Arc<ScopeState>,
}

/// Decrements `open_scopes` when the scope call returns by any path.
struct OpenScopeGuard<'a>(&'a Inner);

impl Drop for OpenScopeGuard<'_> {
    fn drop(&mut self) {
        self.0.open_scopes.fetch_sub(1, Ordering::SeqCst);
    }
}

impl Runtime {
    /// Start one worker per processor of `cfg.topology`.
    pub fn new(cfg: RtConfig) -> Self {
        Self::build(cfg, None)
    }

    /// Start a runtime whose scheduling is perturbed by `plan` (one plan
    /// unit = one microsecond). Injected task failures are transient: the
    /// task's first dispatch aborts before the body runs and the body is
    /// requeued, so results are unaffected.
    pub fn with_faults(cfg: RtConfig, plan: FaultPlan) -> Self {
        Self::build(cfg, Some(plan))
    }

    fn build(cfg: RtConfig, plan: Option<FaultPlan>) -> Self {
        let topology = cfg.topology;
        let nthreads = topology.nservers;
        assert!(nthreads >= 1);
        let inner = Arc::new(Inner {
            servers: (0..nthreads).map(|_| Server::new()).collect(),
            victims: topology.victim_orders(),
            topology,
            policy: cfg.policy,
            placement: Placement::new(),
            held: HeldSet::new(),
            faults: plan.map(|p| FaultInjector::new(p, nthreads)),
            opened: AtomicU64::new(0),
            open_scopes: AtomicUsize::new(0),
            dumps: Mutex::new(Vec::new()),
            shutdown: AtomicBool::new(false),
            obs: Recorder::new(
                if cfg.record_trace { Recording::Trace } else { Recording::Off },
                nthreads,
            ),
            epoch: Instant::now(),
        });
        let workers = (0..nthreads)
            .map(|p| {
                let inner = inner.clone();
                std::thread::Builder::new()
                    .name(format!("cool-server-{p}"))
                    .spawn(move || worker_loop(&inner, ProcId(p)))
                    .expect("spawn worker")
            })
            .collect();
        let watchdog = cfg.stall_timeout.map(|interval| {
            let inner = inner.clone();
            std::thread::Builder::new()
                .name("cool-watchdog".into())
                .spawn(move || watchdog_loop(&inner, interval))
                .expect("spawn watchdog")
        });
        Runtime {
            inner,
            workers,
            watchdog,
        }
    }

    /// The placement registry (`alloc_on` / `migrate` / `home`).
    pub fn placement(&self) -> &Placement {
        &self.inner.placement
    }

    /// Number of servers.
    pub fn nservers(&self) -> usize {
        self.inner.servers.len()
    }

    /// Run a `waitfor` scope: execute `seed` (on the calling thread, as
    /// creator server 0), then block until every task transitively spawned
    /// inside the scope has completed.
    ///
    /// Returns `Err(ScopeError::Panicked)` if any task body panicked; the
    /// scope still drained (panicked tasks released their scope slot and any
    /// held mutex via RAII) and the runtime stays usable. A panic in `seed`
    /// itself is propagated to the caller — after the tasks it already
    /// spawned have drained.
    pub fn scope(&self, seed: impl FnOnce(&RtCtx<'_>)) -> ScopeResult {
        self.run_scope(seed, None)
    }

    /// Like [`Runtime::scope`], but give up waiting after `timeout` and
    /// return [`ScopeError::Stalled`] with a diagnostic dump instead of
    /// blocking forever. Tasks of an abandoned scope may still run later;
    /// their scope bookkeeping stays valid.
    pub fn scope_with_timeout(
        &self,
        timeout: Duration,
        seed: impl FnOnce(&RtCtx<'_>),
    ) -> ScopeResult {
        self.run_scope(seed, Some(timeout))
    }

    fn run_scope(&self, seed: impl FnOnce(&RtCtx<'_>), timeout: Option<Duration>) -> ScopeResult {
        let scope = ScopeState::new();
        self.inner.open_scopes.fetch_add(1, Ordering::SeqCst);
        // Restart the watchdog's quiet-period clock for this scope.
        self.inner.opened.fetch_add(1, Ordering::Relaxed);
        let _open = OpenScopeGuard(&self.inner);
        let seed_result = {
            let ctx = RtCtx {
                inner: &self.inner,
                proc: ProcId(0),
                task: TaskUid(0),
                scope: &scope,
            };
            catch_unwind(AssertUnwindSafe(|| seed(&ctx)))
        };
        let completed = match timeout {
            None => {
                scope.wait();
                true
            }
            Some(t) => scope.wait_until(Instant::now() + t),
        };
        if let Err(payload) = seed_result {
            resume_unwind(payload);
        }
        if !completed {
            return Err(ScopeError::Stalled {
                dump: Box::new(self.inner.dump()),
                waited: timeout.expect("timeout present when incomplete"),
            });
        }
        let failures = scope.take_failures();
        if failures.is_empty() {
            Ok(())
        } else {
            Err(ScopeError::Panicked(failures))
        }
    }

    /// Aggregated scheduling statistics since startup.
    pub fn stats(&self) -> SchedStats {
        self.inner.total_stats()
    }

    /// Per-server scheduling statistics since startup, by server index.
    pub fn server_stats(&self) -> Vec<SchedStats> {
        self.inner.servers.iter().map(Server::stats).collect()
    }

    /// Diagnostic dumps recorded by the stall watchdog (empty unless the
    /// runtime was built with [`RtConfig::with_stall_timeout`] and a stall
    /// was detected).
    pub fn stall_dumps(&self) -> Vec<StallDump> {
        self.inner.dumps.lock().clone()
    }

    /// Drain the observability trace recorded so far (empty unless the
    /// runtime was built with [`RtConfig::with_trace`]). Timestamps are
    /// nanoseconds since startup; the stream is ordered by emission sequence.
    /// Memory deltas (`TaskEnd::mem`) are absent on this backend — the
    /// threaded runtime has no simulated memory system to attribute.
    pub fn take_obs(&self) -> EventLog {
        self.inner.obs.as_ref().map(Recorder::drain).unwrap_or_default()
    }

    /// Objects whose `mutex` is currently held (diagnostics; normally empty
    /// when no scope is running).
    pub fn held_mutexes(&self) -> Vec<ObjRef> {
        self.inner.held.snapshot()
    }
}

impl Drop for Runtime {
    fn drop(&mut self) {
        self.inner.shutdown.store(true, Ordering::SeqCst);
        for s in &self.inner.servers {
            let _guard = s.inbox.sleep_lock.lock();
            s.inbox.wake.notify_all();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        if let Some(w) = self.watchdog.take() {
            let _ = w.join();
        }
    }
}

impl RtCtx<'_> {
    /// The server executing this task (or the creator, inside `scope`).
    pub fn proc(&self) -> ProcId {
        self.proc
    }

    /// Number of servers.
    pub fn nservers(&self) -> usize {
        self.inner.servers.len()
    }

    /// Register a logical object homed on processor `p % nservers`.
    pub fn alloc_on(&self, p: usize) -> ObjRef {
        self.inner
            .placement
            .alloc_on(ProcId(p % self.inner.servers.len()))
    }

    /// `migrate()`: re-home a logical object.
    pub fn migrate(&self, obj: ObjRef, p: usize) {
        let to = ProcId(p % self.inner.servers.len());
        self.inner.placement.migrate(obj, to);
        if self.inner.obs_on() {
            self.inner.obs_emit(
                self.proc.index(),
                Event::Migrate {
                    task: self.task,
                    obj,
                    // No memory model on this backend: size unknown.
                    bytes: 0,
                    to,
                    time: self.inner.now_ns(),
                },
            );
        }
    }

    /// `home()`.
    pub fn home(&self, obj: ObjRef) -> ProcId {
        self.inner.placement.home(obj)
    }

    /// Spawn a task into the enclosing scope.
    pub fn spawn(&self, task: RtTask) {
        let ticket = ScopeTicket::new(self.scope.clone());
        enqueue(self.inner, self.proc, task, ticket);
    }
}

/// Resolve affinity and enqueue, waking the target server if it is parked.
fn enqueue(inner: &Inner, creator: ProcId, task: RtTask, ticket: ScopeTicket) {
    let spec = task.affinity;
    let n = inner.servers.len();
    let target = spec.resolve_server(n, creator, |o| inner.placement.home(o));
    let inject = inner.faults.as_ref().is_some_and(|f| f.on_spawn());
    let inbox = &inner.servers[target.index()].inbox;
    {
        let mut q = inbox.queue.lock();
        // Server t numbers its tasks t+1, t+1+n, t+1+2n, …: unique across
        // servers, never the root's `TaskUid(0)`, and no shared counter.
        let uid = TaskUid(q.spawned * n as u64 + target.index() as u64 + 1);
        q.spawned += 1;
        let queued = Queued {
            task,
            target,
            hinted: spec.is_hinted(),
            uid,
            ticket,
            inject,
            blocked_before: false,
        };
        push(inner, &mut q.tasks, target, spec.kind(), queued);
    }
    if inbox.sleeping.load(Ordering::SeqCst) {
        let _guard = inbox.sleep_lock.lock();
        inbox.wake.notify_one();
    }
}

/// Put a task at the tail of its queue class in `q`, server `proc`'s queues.
fn push(
    inner: &Inner,
    q: &mut ServerQueues<Queued>,
    proc: ProcId,
    kind: AffinityKind,
    queued: Queued,
) {
    match queued.task.affinity.queue_token() {
        Some(tok) => {
            let update = q.push_affinity(tok, kind, queued);
            if update.newly_linked && inner.obs_on() {
                inner.obs_emit(
                    proc.index(),
                    Event::SlotLink {
                        proc,
                        slot: update.slot.expect("affinity push fills a slot"),
                        token: tok,
                        time: inner.now_ns(),
                    },
                );
            }
        }
        None => q.push_default(kind, queued),
    }
}

/// Put a task back at the tail of its queue class on server `mi`.
fn requeue(inner: &Inner, mi: usize, kind: AffinityKind, queued: Queued) {
    let mut q = inner.servers[mi].inbox.queue.lock();
    push(inner, &mut q.tasks, ProcId(mi), kind, queued);
}

fn worker_loop(inner: &Inner, me: ProcId) {
    let mi = me.index();
    let server = &inner.servers[mi];
    let mut failed_scans = 0usize;
    // Consecutive mutex rotations with no task executed: drives the bounded
    // backoff that replaces a hot requeue/yield spin under contention.
    let mut mutex_rotations = 0usize;
    loop {
        // 0. Shutdown: leave promptly even with work still queued, so a
        // dropped Runtime joins. Discarded tasks notify their scopes via
        // their ScopeTicket when the queues are dropped.
        if inner.shutdown.load(Ordering::SeqCst) {
            return;
        }
        // 1. Local work.
        let popped = {
            let mut q = server.inbox.queue.lock();
            let depth = q.tasks.len();
            let popped = q.tasks.pop_local_info();
            if popped.is_some() && inner.obs_on() {
                inner.obs_emit(
                    mi,
                    Event::QueueDepth {
                        proc: me,
                        depth,
                        time: inner.now_ns(),
                    },
                );
            }
            popped
        };
        if let Some(popped) = popped {
            if popped.drained && inner.obs_on() {
                if let Some(slot) = popped.slot {
                    inner.obs_emit(
                        mi,
                        Event::SlotDrain {
                            proc: me,
                            slot,
                            time: inner.now_ns(),
                        },
                    );
                }
            }
            let (kind, queued) = (popped.kind, popped.payload);
            failed_scans = 0;
            if run_or_rotate(inner, me, kind, queued) {
                mutex_rotations = 0;
            } else {
                mutex_rotations += 1;
                if mutex_rotations >= MUTEX_PARK_AFTER {
                    // The only runnable work is blocked on a mutex another
                    // server holds: stop burning the core, nap briefly.
                    server.own.stats.lock().mutex_parks += 1;
                    std::thread::sleep(MUTEX_PARK);
                } else {
                    std::thread::yield_now();
                }
            }
            continue;
        }
        // 2. Steal. The scan locks one victim queue at a time and this
        // server's stats once, after the walk.
        let scan = inner.policy.scan(
            &inner.topology,
            inner.victims.order(me),
            &mut failed_scans,
            None,
            || server.own.stats.lock(),
            |v, avoid, whole| {
                inner.servers[v.index()]
                    .inbox
                    .queue
                    .lock()
                    .tasks
                    .steal_with(avoid, whole)
            },
        );
        if let Some(scan) = scan {
            match scan.stolen {
                Some((victim, batch)) => {
                    if inner.obs_on() {
                        inner.obs_emit(
                            mi,
                            Event::StealSuccess {
                                thief: me,
                                victim,
                                token: batch.token,
                                ntasks: batch.tasks.len(),
                                time: inner.now_ns(),
                            },
                        );
                    }
                    server.inbox.queue.lock().tasks.push_stolen(batch);
                    continue;
                }
                None if inner.obs_on() => inner.obs_emit(
                    mi,
                    Event::StealFail {
                        thief: me,
                        probes: scan.probes,
                        time: inner.now_ns(),
                    },
                ),
                None => {}
            }
        }
        // 3. Sleep until woken or shutdown.
        if inner.shutdown.load(Ordering::SeqCst) {
            return;
        }
        {
            let inbox = &server.inbox;
            let mut guard = inbox.sleep_lock.lock();
            // Announce the park, then re-check: `enqueue` loads the flag
            // after its push, so a task is never left unseen by both sides.
            inbox.sleeping.store(true, Ordering::SeqCst);
            if inbox.queue.lock().tasks.is_empty() && !inner.shutdown.load(Ordering::SeqCst) {
                inbox.wake.wait_for(&mut guard, Duration::from_millis(1));
            }
            inbox.sleeping.store(false, Ordering::Relaxed);
        }
        // Injected fault: a processor slow to notice new work.
        if let Some(inj) = &inner.faults {
            let d = inj.wakeup_delay(mi);
            if !d.is_zero() {
                std::thread::sleep(d);
            }
        }
    }
}

/// Execute a task, or set it aside if its mutex object is busy.
///
/// Returns true if the task made progress (ran, or consumed its injected
/// fault); false if it was rotated because its mutex is held — the signal
/// the worker's bounded backoff keys off.
fn run_or_rotate(inner: &Inner, me: ProcId, kind: AffinityKind, mut queued: Queued) -> bool {
    let mi = me.index();
    if queued.inject {
        // Transient injected failure: consume it before the body runs and
        // requeue the task untouched, so it still executes exactly once.
        queued.inject = false;
        inner.servers[mi].own.stats.lock().injected_faults += 1;
        requeue(inner, mi, kind, queued);
        return true;
    }
    if let Some(lock_obj) = queued.task.mutex_on {
        if !inner.held.try_acquire(lock_obj) {
            // Blocked: back of the queue; the server moves on (COOL blocks
            // the task, never the server).
            {
                let mut st = inner.servers[mi].own.stats.lock();
                if queued.blocked_before {
                    st.mutex_retries += 1;
                } else {
                    st.mutex_blocks += 1;
                }
            }
            if inner.obs_on() && !queued.blocked_before {
                // First block only: retries of the same rotation would flood
                // the ring without adding information.
                inner.obs_emit(
                    mi,
                    Event::MutexWait {
                        task: queued.uid,
                        lock: lock_obj,
                        proc: me,
                        time: inner.now_ns(),
                    },
                );
            }
            queued.blocked_before = true;
            requeue(inner, mi, kind, queued);
            return false;
        }
        // Held until end of execution — including the unwind path, so a
        // panicking mutex task cannot leak the lock.
        let held = HeldGuard {
            held: &inner.held,
            obj: lock_obj,
        };
        execute(inner, me, queued, Some(held));
    } else {
        execute(inner, me, queued, None);
    }
    true
}

/// Turn a panic payload into something printable (a `TaskError` message,
/// a failed serve attempt's error).
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

fn execute(inner: &Inner, me: ProcId, queued: Queued, held: Option<HeldGuard<'_>>) {
    let mi = me.index();
    let own = &inner.servers[mi].own;
    if let Some(inj) = &inner.faults {
        // Straggler / stall injection charges wall-clock time before the
        // body, where the simulator charges cycles.
        let d = inj.dispatch_delay(mi);
        if !d.is_zero() {
            std::thread::sleep(d);
        }
    }
    {
        let mut st = own.stats.lock();
        st.executed += 1;
        if queued.hinted {
            st.hinted += 1;
            if queued.target == me {
                st.affinity_hits += 1;
            }
        }
    }
    let traced = inner.obs_on();
    if traced {
        inner.obs_emit(
            mi,
            Event::TaskBegin {
                task: queued.uid,
                label: queued.task.label,
                proc: me,
                target: queued.target,
                hinted: queued.hinted,
                set: queued.task.affinity.queue_token(),
                object: None,
                object_home: None,
                time: inner.now_ns(),
            },
        );
    }
    let Queued { task, ticket, uid, .. } = queued;
    let mutex_on = task.mutex_on;
    let ctx = RtCtx {
        inner,
        proc: me,
        task: uid,
        scope: ticket.scope(),
    };
    let body = task.body;
    own.executing.store(uid.0, Ordering::Relaxed);
    let result = catch_unwind(AssertUnwindSafe(|| body(&ctx)));
    own.executing.store(u64::MAX, Ordering::Relaxed);
    own.completed.fetch_add(1, Ordering::Relaxed);
    if traced {
        inner.obs_emit(
            mi,
            Event::TaskEnd {
                task: uid,
                proc: me,
                mem: None,
                time: inner.now_ns(),
            },
        );
    }
    // Release the object's mutex BEFORE the scope ticket fires below: a
    // waiter that observes scope completion must find the lock free.
    drop(held);
    if let Err(payload) = result {
        own.stats.lock().panics += 1;
        // Record before the ticket drops: the scope waiter must observe the
        // failure once `remaining` reaches zero.
        ticket.scope().record_failure(TaskError {
            proc: mi,
            message: panic_message(payload.as_ref()),
            mutex_on,
        });
    }
    // `ticket` drops here: scope slot released on success and failure alike.
}

/// Background stall detector: while a scope is open, no task completing for
/// a full `interval` produces a diagnostic dump on stderr and in
/// `Runtime::stall_dumps()` (one per quiet interval, not a flood).
fn watchdog_loop(inner: &Inner, interval: Duration) {
    let poll = (interval / 4).max(Duration::from_millis(1));
    let mut last_seen = inner.activity();
    let mut last_change = Instant::now();
    while !inner.shutdown.load(Ordering::SeqCst) {
        std::thread::sleep(poll);
        let act = inner.activity();
        if act != last_seen {
            last_seen = act;
            last_change = Instant::now();
            continue;
        }
        if inner.open_scopes.load(Ordering::SeqCst) > 0 && last_change.elapsed() >= interval {
            let dump = inner.dump();
            eprintln!("cool-rt watchdog: {dump}");
            inner.dumps.lock().push(dump);
            last_change = Instant::now();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn scope_waits_for_all_tasks() {
        let rt = Runtime::new(RtConfig::new(4));
        let count = Arc::new(AtomicUsize::new(0));
        let c = count.clone();
        rt.scope(move |s| {
            for _ in 0..100 {
                let c = c.clone();
                s.spawn(RtTask::new(move |_| {
                    c.fetch_add(1, Ordering::Relaxed);
                }));
            }
        })
        .unwrap();
        assert_eq!(count.load(Ordering::Relaxed), 100);
    }

    #[test]
    fn nested_spawns_are_in_scope() {
        let rt = Runtime::new(RtConfig::new(4));
        let count = Arc::new(AtomicUsize::new(0));
        let c = count.clone();
        rt.scope(move |s| {
            for _ in 0..8 {
                let c = c.clone();
                s.spawn(RtTask::new(move |ctx| {
                    for _ in 0..8 {
                        let c = c.clone();
                        ctx.spawn(RtTask::new(move |_| {
                            c.fetch_add(1, Ordering::Relaxed);
                        }));
                    }
                }));
            }
        })
        .unwrap();
        assert_eq!(count.load(Ordering::Relaxed), 64);
    }

    #[test]
    fn sequential_scopes_are_barriers() {
        let rt = Runtime::new(RtConfig::new(4));
        let log = Arc::new(Mutex::new(Vec::new()));
        for phase in 0..3u32 {
            let log = log.clone();
            rt.scope(move |s| {
                for _ in 0..16 {
                    let log = log.clone();
                    s.spawn(RtTask::new(move |_| {
                        log.lock().push(phase);
                    }));
                }
            })
            .unwrap();
        }
        let v = log.lock();
        assert_eq!(v.len(), 48);
        assert!(v.windows(2).all(|w| w[0] <= w[1]), "phases interleaved: {v:?}");
    }

    #[test]
    fn processor_affinity_pins_without_stealing() {
        let rt = Runtime::new(RtConfig::new(4).with_policy(StealPolicy::disabled()));
        let seen = Arc::new(Mutex::new(Vec::new()));
        let s2 = seen.clone();
        rt.scope(move |s| {
            for i in 0..32 {
                let seen = s2.clone();
                s.spawn(
                    RtTask::new(move |ctx| {
                        seen.lock().push((i, ctx.proc().index()));
                    })
                    .with_affinity(AffinitySpec::processor(i % 4)),
                );
            }
        })
        .unwrap();
        for &(i, p) in seen.lock().iter() {
            assert_eq!(p, i % 4, "task {i} ran on wrong server");
        }
        assert_eq!(rt.stats().adherence(), 1.0);
    }

    #[test]
    fn object_affinity_follows_placement_and_migration() {
        let rt = Runtime::new(RtConfig::new(4).with_policy(StealPolicy::disabled()));
        let obj = rt.placement().alloc_on(ProcId(2));
        let seen = Arc::new(Mutex::new(Vec::new()));
        let s2 = seen.clone();
        rt.scope(move |s| {
            let seen = s2.clone();
            s.spawn(
                RtTask::new(move |ctx| {
                    seen.lock().push(ctx.proc().index());
                    // Migrate, then respawn: the next task must follow.
                    ctx.migrate(obj, 1);
                    let seen = seen.clone();
                    ctx.spawn(
                        RtTask::new(move |ctx| {
                            seen.lock().push(ctx.proc().index());
                        })
                        .with_affinity(AffinitySpec::object(obj)),
                    );
                })
                .with_affinity(AffinitySpec::object(obj)),
            );
        })
        .unwrap();
        assert_eq!(*seen.lock(), vec![2, 1]);
    }

    #[test]
    fn mutex_tasks_are_mutually_exclusive() {
        let rt = Runtime::new(RtConfig::new(8));
        let obj = rt.placement().alloc_on(ProcId(0));
        let in_section = Arc::new(AtomicUsize::new(0));
        let max_seen = Arc::new(AtomicUsize::new(0));
        let (i2, m2) = (in_section.clone(), max_seen.clone());
        rt.scope(move |s| {
            for _ in 0..64 {
                let (i3, m3) = (i2.clone(), m2.clone());
                s.spawn(
                    RtTask::new(move |_| {
                        let now = i3.fetch_add(1, Ordering::SeqCst) + 1;
                        m3.fetch_max(now, Ordering::SeqCst);
                        std::thread::sleep(Duration::from_micros(50));
                        i3.fetch_sub(1, Ordering::SeqCst);
                    })
                    .with_mutex(obj),
                );
            }
        })
        .unwrap();
        assert_eq!(max_seen.load(Ordering::SeqCst), 1, "mutex violated");
    }

    #[test]
    fn objects_sharing_a_held_shard_do_not_exclude_each_other() {
        // Two mutex tasks on different objects in one shard, pinned to
        // different servers: both must be inside their bodies at once.
        let rt = Runtime::new(RtConfig::new(2).with_policy(StealPolicy::disabled()));
        let a = rt.placement().alloc_on(ProcId(0));
        let b = (0..10_000)
            .map(|_| rt.placement().alloc_on(ProcId(1)))
            .find(|&b| held_shard(b) == held_shard(a))
            .expect("some object shares a's shard");
        let barrier = Arc::new(std::sync::Barrier::new(2));
        let res = rt.scope_with_timeout(Duration::from_secs(10), |s| {
            for (obj, p) in [(a, 0), (b, 1)] {
                let barrier = barrier.clone();
                s.spawn(
                    RtTask::new(move |_| {
                        barrier.wait();
                    })
                    .with_mutex(obj)
                    .with_affinity(AffinitySpec::processor(p)),
                );
            }
        });
        if res.is_err() {
            // One body waits in the barrier for good: leak the runtime
            // rather than hang joining its worker.
            std::mem::forget(rt);
            panic!("a shard neighbour's mutex blocked an unrelated object: {res:?}");
        }
        assert!(rt.held_mutexes().is_empty());
    }

    #[test]
    fn mutex_contention_escalates_to_parking() {
        // One long mutex holder + many blocked tasks on a second server:
        // the retry counter must tick, and with enough rotations the server
        // parks instead of spinning.
        let rt = Runtime::new(RtConfig::new(2).with_policy(StealPolicy::disabled()));
        let obj = rt.placement().alloc_on(ProcId(0));
        // Both waits are bounded, so a regression fails instead of hanging.
        let wait_for = |done: &dyn Fn() -> bool| {
            let deadline = Instant::now() + Duration::from_secs(10);
            while !done() && Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(1));
            }
        };
        let holding = Arc::new(AtomicBool::new(false));
        let flag = holding.clone();
        rt.scope(|s| {
            s.spawn(
                RtTask::new(move |ctx| {
                    flag.store(true, Ordering::SeqCst);
                    // Hold the lock until server 1 has parked, however slowly
                    // it rotates under load.
                    wait_for(&|| ctx.inner.total_stats().mutex_parks > 0);
                })
                .with_mutex(obj)
                .with_affinity(AffinitySpec::processor(0)),
            );
            // Spawn the rest once the holder has the lock, so they collide.
            wait_for(&|| holding.load(Ordering::SeqCst));
            for _ in 0..4 {
                s.spawn(
                    RtTask::new(|_| {})
                        .with_mutex(obj)
                        .with_affinity(AffinitySpec::processor(1)),
                );
            }
        })
        .unwrap();
        let st = rt.stats();
        assert!(st.mutex_blocks >= 1, "no first-time blocks: {st:?}");
        assert!(st.mutex_retries > 0, "no retries counted: {st:?}");
        assert!(st.mutex_parks > 0, "contention never parked: {st:?}");
        assert!(rt.held_mutexes().is_empty());
    }

    #[test]
    fn stealing_spreads_work_across_servers() {
        let rt = Runtime::new(RtConfig::new(4));
        let seen = Arc::new(Mutex::new(HashSet::new()));
        let s2 = seen.clone();
        rt.scope(move |s| {
            for _ in 0..200 {
                let seen = s2.clone();
                // Everything lands on server 0; thieves must spread it.
                s.spawn(
                    RtTask::new(move |ctx| {
                        // Enough work that stealing is worthwhile: each step
                        // goes through `black_box`, so the optimizer cannot
                        // fold the loop into a constant and server 0 cannot
                        // drain all 200 tasks before a thief wakes.
                        let mut acc = 0u64;
                        for i in 0..50_000u64 {
                            acc = std::hint::black_box(acc + i);
                        }
                        seen.lock().insert(ctx.proc().index());
                    })
                    .with_affinity(AffinitySpec::processor(0)),
                );
            }
        })
        .unwrap();
        // On a single-core host the whole batch can timeslice onto one
        // thief, so "spread across servers" is only required when stolen
        // work and leftover local work can actually run concurrently.
        assert!(
            seen.lock().len() > 1 || rt.stats().tasks_stolen > 0,
            "no stealing happened: {:?}, {:?}",
            seen.lock(),
            rt.stats()
        );
        assert!(rt.stats().tasks_stolen > 0);
    }

    #[test]
    fn exactly_once_under_stress() {
        let rt = Runtime::new(RtConfig::new(8));
        let n = 2_000usize;
        let flags: Arc<Vec<AtomicUsize>> =
            Arc::new((0..n).map(|_| AtomicUsize::new(0)).collect());
        let objs: Vec<ObjRef> = (0..16).map(|i| rt.placement().alloc_on(ProcId(i % 8))).collect();
        let f2 = flags.clone();
        rt.scope(move |s| {
            for i in 0..n {
                let flags = f2.clone();
                let aff = match i % 5 {
                    0 => AffinitySpec::none(),
                    1 => AffinitySpec::simple(objs[i % 16]),
                    2 => AffinitySpec::task(objs[i % 16]),
                    3 => AffinitySpec::object(objs[i % 16]),
                    _ => AffinitySpec::processor(i),
                };
                let mut t = RtTask::new(move |_| {
                    flags[i].fetch_add(1, Ordering::SeqCst);
                })
                .with_affinity(aff);
                if i % 7 == 0 {
                    t = t.with_mutex(objs[i % 16]);
                }
                s.spawn(t);
            }
        })
        .unwrap();
        for (i, f) in flags.iter().enumerate() {
            assert_eq!(f.load(Ordering::SeqCst), 1, "task {i} ran wrong # times");
        }
        let st = rt.stats();
        assert_eq!(st.executed, n as u64);
    }

    #[test]
    fn injected_faults_are_transient_and_counted() {
        let plan = FaultPlan::new(9).fail_task(0).fail_task(5).fail_task(31);
        let rt = Runtime::with_faults(RtConfig::new(4), plan);
        let count = Arc::new(AtomicUsize::new(0));
        let c = count.clone();
        rt.scope(move |s| {
            for _ in 0..32 {
                let c = c.clone();
                s.spawn(RtTask::new(move |_| {
                    c.fetch_add(1, Ordering::SeqCst);
                }));
            }
        })
        .unwrap();
        // Every task still ran exactly once despite the failed dispatches.
        assert_eq!(count.load(Ordering::SeqCst), 32);
        let st = rt.stats();
        assert_eq!(st.injected_faults, 3);
        assert_eq!(st.executed, 32);
    }
}
