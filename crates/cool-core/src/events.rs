//! The runtime event vocabulary: one [`Event`] enum for every fact an
//! instrumented executor records.
//!
//! The simulated runtime (`cool-sim`), the threaded batch runtime and the
//! work server (`cool-rt`) emit the same events into one
//! [`Recorder`](crate::obs::Recorder), whose mode decides how much of the
//! stream is kept (see [`crate::obs`]). Consumers — the Perfetto exporter,
//! the metrics summary, the progress meter and the `cool-analyze` passes —
//! read the one stream and ignore the variants they do not use.
//!
//! `time` is backend-defined: virtual cycles of the acting server in
//! `cool-sim`, nanoseconds since the runtime (or server) started in
//! `cool-rt`. Times are informational; the stream order carries the
//! happens-before structure.
//!
//! # Happens-before
//!
//! The simulator runs task bodies atomically (one body at a time in host
//! order, interleaved deterministically by virtual time), and the work
//! server emits each request event under the lock that creates its edge,
//! so the recorded order is consistent with the happens-before relation it
//! induces. The analyzer builds vector clocks in a single forward pass.
//! The edges (see DESIGN.md, "Happens-before model"):
//!
//! * **spawn** — everything the creator did before [`Event::Spawn`]
//!   happens-before everything the child does;
//! * **phase** — every task of phase *N* happens-before every task of phase
//!   *N+1* ([`Event::PhaseEnd`] is the `waitfor` barrier);
//! * **mutex** — a `with_mutex` body's release happens-before the next
//!   acquisition of the same lock object;
//! * **sync** — [`Event::Sync`] is a combined release-acquire on a token
//!   object, modelling the runtime-internal completion counters/flags that
//!   dataflow programs consult before spawning dependent work;
//! * **requests** — an admit releases onto its domain's queue channel, an
//!   attempt acquires the channel and its worker's program order, a retry
//!   releases both, and [`Event::RequestDrain`] joins every outcome.
//!
//! Plain [`Event::Access`]es not ordered by those edges and overlapping in
//! bytes (with at least one write, not both atomic) are data races.

use crate::ids::{ObjRef, ProcId};
use crate::obs::MemDelta;

/// Unique identity of one task instance within one run. `TaskUid(0)` is
/// reserved for the *root* context (spawns from outside any task).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct TaskUid(pub u64);

impl TaskUid {
    /// The root (external) context.
    pub const ROOT: TaskUid = TaskUid(0);
}

impl std::fmt::Display for TaskUid {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "T{}", self.0)
    }
}

/// Requests share the task-uid namespace with batch tasks: a work-server
/// request's declared [`Event::Access`]es, and the analyzer's view of its
/// request events, attribute its work to `TaskUid(REQ_UID_BASE + id)` so
/// request ids can never collide with task uids (or the root).
pub const REQ_UID_BASE: u64 = 1 << 48;

/// The task uid of work-server request `id` (see [`REQ_UID_BASE`]).
pub fn req_uid(id: u64) -> TaskUid {
    TaskUid(REQ_UID_BASE + id)
}

/// The [`ObjRef`] token the analyzer gives a work-server domain pool's
/// queue-channel happens-before edges.
pub fn domain_token(domain: usize) -> ObjRef {
    ObjRef(0xC001_0000_0000_0000 | domain as u64)
}

/// How a memory access participates in the concurrency model.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum AccessKind {
    /// Ordinary read: races with unordered overlapping writes.
    Read,
    /// Ordinary write: races with unordered overlapping accesses.
    Write,
    /// Relaxed atomic read (e.g. LocusRoute's deliberately stale CostArray
    /// lookups): never races with other atomics, still races with plain
    /// writes.
    AtomicRead,
    /// Relaxed atomic write (e.g. per-cell occupancy increments): never races
    /// with other atomics, still races with plain accesses.
    AtomicWrite,
}

impl AccessKind {
    /// Does this access modify memory?
    pub fn is_write(self) -> bool {
        matches!(self, AccessKind::Write | AccessKind::AtomicWrite)
    }

    /// Is this access an atomic (race-exempt against other atomics)?
    pub fn is_atomic(self) -> bool {
        matches!(self, AccessKind::AtomicRead | AccessKind::AtomicWrite)
    }

    /// Short label for reports.
    pub fn label(self) -> &'static str {
        match self {
            AccessKind::Read => "read",
            AccessKind::Write => "write",
            AccessKind::AtomicRead => "atomic-read",
            AccessKind::AtomicWrite => "atomic-write",
        }
    }
}

/// One runtime event (see the module docs for times and edges). The first
/// fourteen variants are the trace facts ([`Event::is_trace`]); the rest
/// are recorded only in [`Recording::Full`](crate::obs::Recording::Full).
#[derive(Clone, Debug, PartialEq)]
pub enum Event {
    /// A task body is about to run (after any mutex acquisition succeeded).
    TaskBegin {
        /// Task being dispatched.
        task: TaskUid,
        /// Human-readable task label, when the app provided one.
        label: Option<&'static str>,
        /// Server executing the task.
        proc: ProcId,
        /// Server the spawn-time affinity resolution selected (the task is
        /// on target when this equals `proc`).
        target: ProcId,
        /// Whether the task carried any affinity hint.
        hinted: bool,
        /// Task-affinity set (queue token) the task was queued under.
        set: Option<ObjRef>,
        /// OBJECT-affinity object, when it *drove placement* (no PROCESSOR
        /// override) — so `target` was this object's home at spawn time.
        object: Option<ObjRef>,
        /// The object's home server resolved *now* (dispatch time) — differs
        /// from `target` when the object migrated after the spawn.
        object_home: Option<ProcId>,
        /// Backend timestamp.
        time: u64,
    },
    /// The task body finished (after mutex release). `mem` is the
    /// PerfMonitor delta across the body (absent on backends without a
    /// memory model, i.e. `cool-rt`).
    TaskEnd {
        /// Task that finished.
        task: TaskUid,
        /// Server it ran on.
        proc: ProcId,
        /// PerfMonitor reference delta across the body, when modelled.
        mem: Option<MemDelta>,
        /// Backend timestamp.
        time: u64,
    },
    /// A steal succeeded: `ntasks` tasks moved from `victim` to `thief`.
    StealSuccess {
        /// Stealing server.
        thief: ProcId,
        /// Server the work was taken from.
        victim: ProcId,
        /// Affinity token of the stolen set (`None` for single tasks).
        token: Option<ObjRef>,
        /// Number of tasks moved.
        ntasks: usize,
        /// Backend timestamp.
        time: u64,
    },
    /// A steal scan found nothing after probing `probes` victims.
    StealFail {
        /// Scanning server.
        thief: ProcId,
        /// Victims probed before giving up.
        probes: usize,
        /// Backend timestamp.
        time: u64,
    },
    /// An empty affinity slot became linked (a new task-affinity set started
    /// queueing) on `proc`.
    SlotLink {
        /// Server owning the queue.
        proc: ProcId,
        /// Affinity-slot index.
        slot: usize,
        /// Affinity token hashed into the slot.
        token: ObjRef,
        /// Backend timestamp.
        time: u64,
    },
    /// Local service drained an affinity slot (the set ran to completion
    /// back to back).
    SlotDrain {
        /// Server owning the queue.
        proc: ProcId,
        /// Affinity-slot index.
        slot: usize,
        /// Backend timestamp.
        time: u64,
    },
    /// A task found its declared mutex held and was set aside.
    MutexWait {
        /// Waiting task.
        task: TaskUid,
        /// Contended lock object.
        lock: ObjRef,
        /// Server the task was dispatched on.
        proc: ProcId,
        /// Backend timestamp.
        time: u64,
    },
    /// `migrate()` moved `bytes` at `obj` to `to`'s local memory.
    Migrate {
        /// Task that requested the migration.
        task: TaskUid,
        /// Object that moved.
        obj: ObjRef,
        /// Bytes moved (0 on backends without a memory model).
        bytes: u64,
        /// Destination server (its cluster's local memory).
        to: ProcId,
        /// Backend timestamp.
        time: u64,
    },
    /// The phase-boundary rebalancer re-homed one page: the closing
    /// phase's traffic said the page's dominant consumer was a remote
    /// memory domain and the modelled saving beat the migration cost.
    Rebalance {
        /// First byte of the moved page.
        obj: ObjRef,
        /// Destination server (the winning domain's first processor).
        to: ProcId,
        /// Remote misses the page drew from the winning domain during the
        /// closing phase.
        misses: u64,
        /// Backend timestamp.
        time: u64,
    },
    /// Queue-depth sample on `proc`, taken at dispatch points.
    QueueDepth {
        /// Sampled server.
        proc: ProcId,
        /// Tasks queued (all slots plus the default queue).
        depth: usize,
        /// Backend timestamp.
        time: u64,
    },
    /// Work server: admission accepted a request into a domain's intake
    /// queue. Emitted under the queue lock, so it precedes the attempt that
    /// pops the request.
    ///
    /// Happens-before: spawn-style — everything the submitter did before
    /// the admit happens-before everything the request does — plus a
    /// *release* onto the domain's queue channel.
    RequestAdmit {
        /// Request (idempotency) id.
        req: u64,
        /// Shard domain the request was routed to.
        domain: usize,
        /// Outstanding requests on the domain after admission.
        depth: usize,
        /// Backend timestamp.
        time: u64,
    },
    /// Work server: admission shed a request (queue depth or service-time
    /// budget exceeded).
    RequestShed {
        /// Request (idempotency) id.
        req: u64,
        /// Shard domain the request would have landed on.
        domain: usize,
        /// Outstanding requests on the domain at the shed decision.
        depth: usize,
        /// Backend timestamp.
        time: u64,
    },
    /// Work server: a failed attempt scheduled a retry after a backoff.
    /// Emitted before the requeue is published.
    ///
    /// Happens-before: a *release* of the worker's program order and of the
    /// domain queue channel (the requeue happens-before the next attempt's
    /// pop), and into the drain barrier.
    RequestRetry {
        /// Request (idempotency) id.
        req: u64,
        /// Attempt number that failed (0-based).
        attempt: u32,
        /// Jittered backoff before the next attempt, in nanoseconds.
        backoff_ns: u64,
        /// Shard domain serving the request.
        domain: usize,
        /// Worker that ran the failed attempt.
        proc: ProcId,
        /// Backend timestamp.
        time: u64,
    },
    /// Work server: a request reached a terminal state (completed, failed
    /// permanently, or timed out past its deadline).
    ///
    /// Happens-before: a *release* of the worker's program order and into
    /// the drain barrier; a terminal failure also releases onto the domain
    /// channel.
    RequestDone {
        /// Request (idempotency) id.
        req: u64,
        /// Attempts consumed (1 = first attempt succeeded).
        attempts: u32,
        /// Whether the request completed successfully.
        ok: bool,
        /// Admission-to-completion latency in nanoseconds.
        latency_ns: u64,
        /// Shard domain that served the request.
        domain: usize,
        /// Worker that ran the last attempt.
        proc: ProcId,
        /// Backend timestamp.
        time: u64,
    },
    /// A `run_phase` began (the `waitfor` block opened).
    PhaseBegin {
        /// Phase sequence number (monotone per run).
        seq: u32,
    },
    /// The phase ran to quiescence: all transitively spawned tasks are done.
    PhaseEnd {
        /// Phase sequence number (matches the corresponding begin).
        seq: u32,
    },
    /// A task was created and enqueued. `parent` is `None` for spawns from
    /// outside any task (the root context).
    Spawn {
        /// Spawning task, or `None` for the root context.
        parent: Option<TaskUid>,
        /// Identity of the new task.
        child: TaskUid,
        /// Human-readable task label, when the app provided one.
        label: Option<&'static str>,
        /// OBJECT-affinity object, if hinted.
        object: Option<ObjRef>,
        /// Server the affinity resolution selected.
        target: ProcId,
        /// Virtual cycle of the spawning server.
        time: u64,
    },
    /// A `with_mutex` lock was acquired (emitted once per lock, in the
    /// task's declared acquisition order, right after its `TaskBegin`).
    MutexAcquire {
        /// Acquiring task.
        task: TaskUid,
        /// Lock object.
        lock: ObjRef,
        /// Virtual cycle of acquisition.
        time: u64,
    },
    /// A `with_mutex` lock was released (reverse acquisition order, right
    /// before the task's `TaskEnd`).
    MutexRelease {
        /// Releasing task.
        task: TaskUid,
        /// Lock object.
        lock: ObjRef,
        /// Virtual cycle of release.
        time: u64,
    },
    /// A mirrored memory access.
    Access {
        /// Accessing task.
        task: TaskUid,
        /// Base of the accessed range.
        obj: ObjRef,
        /// Length of the accessed range in bytes.
        len: u64,
        /// Read/write/atomic classification.
        kind: AccessKind,
        /// Server the access executed on.
        proc: ProcId,
        /// Backend timestamp.
        time: u64,
    },
    /// Release-acquire synchronisation point on `token` (zero-cost; models
    /// the runtime's completion counters — see module docs).
    Sync {
        /// Synchronising task.
        task: TaskUid,
        /// Token object carrying the release-acquire edge.
        token: ObjRef,
        /// Virtual cycle of the sync.
        time: u64,
    },
    /// A prefetch issued at task dispatch. `cost` is the cycles the issue
    /// charged (0 when the lines were already cached).
    Prefetch {
        /// Task whose dispatch issued the prefetch.
        task: TaskUid,
        /// Object being prefetched.
        obj: ObjRef,
        /// Bytes fetched.
        bytes: u64,
        /// Cycles charged for the issue (0 if already cached).
        cost: u64,
        /// Virtual cycle of the issue.
        time: u64,
    },
    /// Work server: a worker popped a request from its domain queue and is
    /// about to run one attempt of its body.
    ///
    /// Happens-before: an *acquire* of the domain queue channel (joins
    /// every earlier push: the admit, and requeues of retried requests)
    /// and of the worker's own program order.
    RequestAttempt {
        /// Request (idempotency) id.
        req: u64,
        /// 1-based attempt number.
        attempt: u32,
        /// Shard domain serving the request.
        domain: usize,
        /// Worker identity (worker threads share the proc namespace).
        proc: ProcId,
        /// Backend timestamp.
        time: u64,
    },
    /// Work server: every admitted request reached a terminal outcome and
    /// `drain()` returned.
    ///
    /// Happens-before: a barrier — every outcome emitted before this
    /// happens-before everything the drainer does after.
    RequestDrain {
        /// Backend timestamp.
        time: u64,
    },
}

impl Event {
    /// Whether a `Trace` recorder keeps this event (a `Full` one keeps
    /// every event; see [`crate::obs`]).
    pub fn is_trace(&self) -> bool {
        self.proc().is_some()
    }

    /// The processor a trace event is attributed to — the track it renders
    /// on and the ring it is recorded in: the thief for steals, the
    /// destination for migrations and rebalances, the shard domain for
    /// request events. `None` for the `Full`-only events.
    pub fn proc(&self) -> Option<ProcId> {
        match self {
            Event::TaskBegin { proc, .. }
            | Event::TaskEnd { proc, .. }
            | Event::SlotLink { proc, .. }
            | Event::SlotDrain { proc, .. }
            | Event::MutexWait { proc, .. }
            | Event::QueueDepth { proc, .. } => Some(*proc),
            Event::StealSuccess { thief, .. } | Event::StealFail { thief, .. } => Some(*thief),
            Event::Migrate { to, .. } | Event::Rebalance { to, .. } => Some(*to),
            Event::RequestAdmit { domain, .. }
            | Event::RequestShed { domain, .. }
            | Event::RequestRetry { domain, .. }
            | Event::RequestDone { domain, .. } => Some(ProcId(*domain)),
            Event::PhaseBegin { .. }
            | Event::PhaseEnd { .. }
            | Event::Spawn { .. }
            | Event::MutexAcquire { .. }
            | Event::MutexRelease { .. }
            | Event::Access { .. }
            | Event::Sync { .. }
            | Event::Prefetch { .. }
            | Event::RequestAttempt { .. }
            | Event::RequestDrain { .. } => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn access_kind_classification() {
        assert!(AccessKind::Write.is_write());
        assert!(AccessKind::AtomicWrite.is_write());
        assert!(!AccessKind::Read.is_write());
        assert!(AccessKind::AtomicRead.is_atomic());
        assert!(!AccessKind::Write.is_atomic());
        assert_eq!(AccessKind::AtomicWrite.label(), "atomic-write");
        assert_eq!(TaskUid::ROOT.to_string(), "T0");
    }
}
