//! Tasks and the execution context their bodies run against.

use cool_core::{AccessKind, AffinitySpec, Event, ObjRef, ProcId, TaskUid};

use crate::runtime::SimRuntime;

/// The body of a COOL task: real computation that mirrors its memory
/// accesses into the simulated machine via the [`TaskCtx`].
pub type TaskBody = Box<dyn FnOnce(&mut TaskCtx<'_>)>;

/// A COOL task: a parallel function invocation plus its evaluated affinity
/// block (Figure 2 of the paper).
pub struct Task {
    pub(crate) body: TaskBody,
    pub(crate) affinity: AffinitySpec,
    /// For `parallel mutex` functions: the objects requiring exclusive
    /// access, in declared acquisition order. The runtime acquires all of
    /// them before the body runs and releases them after; the *declared
    /// order* is what `cool-analyze`'s lock-order graph checks for cycles.
    pub(crate) mutexes: Vec<ObjRef>,
    /// Objects (address, bytes) to prefetch when the task is dispatched —
    /// the remote side of a multi-object affinity (Section 4.1's heuristic,
    /// Section 8's prefetching support).
    pub(crate) prefetch: Vec<(ObjRef, u64)>,
    /// Optional label carried by the task's recorded events.
    pub(crate) label: Option<&'static str>,
}

impl Task {
    /// A task with no hints (scheduled on the creating server's default
    /// queue, freely stealable).
    pub fn new(body: impl FnOnce(&mut TaskCtx<'_>) + 'static) -> Self {
        Task {
            body: Box::new(body),
            affinity: AffinitySpec::none(),
            mutexes: Vec::new(),
            prefetch: Vec::new(),
            label: None,
        }
    }

    /// Attach an affinity specification (the `[affinity(...)]` block).
    pub fn with_affinity(mut self, spec: AffinitySpec) -> Self {
        self.affinity = spec;
        self
    }

    /// Declare the task a `mutex` function on `obj`: the runtime acquires
    /// exclusive access to `obj` before running the body. May be chained to
    /// declare multiple locks; they are acquired in declaration order (the
    /// order the lock-order analyzer audits).
    pub fn with_mutex(mut self, obj: ObjRef) -> Self {
        self.mutexes.push(obj);
        self
    }

    /// Request that `(object, bytes)` pairs be prefetched into the executing
    /// processor's cache when the task is dispatched.
    pub fn with_prefetch(mut self, objects: Vec<(ObjRef, u64)>) -> Self {
        self.prefetch = objects;
        self
    }

    /// Attach a label that the recorded event stream carries (see
    /// [`crate::runtime::SimConfig::recording`]).
    pub fn with_label(mut self, label: &'static str) -> Self {
        self.label = Some(label);
        self
    }

    /// The affinity specification.
    pub fn affinity(&self) -> AffinitySpec {
        self.affinity
    }
}

impl std::fmt::Debug for Task {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Task")
            .field("affinity", &self.affinity)
            .field("mutexes", &self.mutexes)
            .finish_non_exhaustive()
    }
}

/// The context a task body executes against: the simulated processor it runs
/// on, plus the services of the runtime (memory mirroring, spawning,
/// distribution primitives).
pub struct TaskCtx<'rt> {
    pub(crate) rt: &'rt mut SimRuntime,
    pub(crate) proc: ProcId,
    /// Identity of the executing task (for the analyzer's event stream).
    pub(crate) task: TaskUid,
    /// Cycles charged by this task so far (memory + compute + spawn costs).
    pub(crate) cycles: u64,
}

impl TaskCtx<'_> {
    /// The processor (server) executing this task.
    pub fn proc(&self) -> ProcId {
        self.proc
    }

    /// Number of servers in the machine.
    pub fn nservers(&self) -> usize {
        self.rt.nservers()
    }

    fn access(&mut self, obj: ObjRef, len: u64, kind: AccessKind) {
        let now = self.rt.clock_of(self.proc) + self.cycles;
        self.cycles += match kind {
            AccessKind::Read | AccessKind::AtomicRead => {
                self.rt.machine_mut().read_at(self.proc, obj, len, now)
            }
            AccessKind::Write | AccessKind::AtomicWrite => {
                self.rt.machine_mut().write_at(self.proc, obj, len, now)
            }
        };
        if self.rt.full() {
            self.rt.emit(Event::Access {
                task: self.task,
                obj,
                len,
                kind,
                proc: self.proc,
                time: now,
            });
        }
    }

    /// Mirror a read of `len` bytes at `obj` into the machine. The access is
    /// issued at the task's current virtual time, so misses queue behind
    /// other requests contending for the servicing memory module.
    pub fn read(&mut self, obj: ObjRef, len: u64) {
        self.access(obj, len, AccessKind::Read);
    }

    /// Mirror a write of `len` bytes at `obj` into the machine.
    pub fn write(&mut self, obj: ObjRef, len: u64) {
        self.access(obj, len, AccessKind::Write);
    }

    /// Mirror a *relaxed atomic* read: same machine traffic and cost as
    /// [`TaskCtx::read`], but declared race-exempt against other atomics for
    /// the analyzer (LocusRoute's deliberately stale CostArray lookups).
    pub fn read_atomic(&mut self, obj: ObjRef, len: u64) {
        self.access(obj, len, AccessKind::AtomicRead);
    }

    /// Mirror a *relaxed atomic* write (e.g. an occupancy-count increment):
    /// same machine traffic and cost as [`TaskCtx::write`], but race-exempt
    /// against other atomics.
    pub fn write_atomic(&mut self, obj: ObjRef, len: u64) {
        self.access(obj, len, AccessKind::AtomicWrite);
    }

    /// Charge `cycles` of pure computation.
    pub fn compute(&mut self, cycles: u64) {
        self.cycles += self.rt.machine_mut().compute(self.proc, cycles);
    }

    /// A release-acquire synchronisation point on `token`, modelling the
    /// runtime-internal completion counters and ready flags a dataflow
    /// program consults before spawning dependent work. Costs no cycles and
    /// generates no machine traffic; it only informs the happens-before
    /// analysis. Call it after this task's publishing writes and before any
    /// spawn decision that observes other tasks' completion.
    pub fn sync(&mut self, token: ObjRef) {
        if self.rt.full() {
            let (task, time) = (self.task, self.rt.clock_of(self.proc) + self.cycles);
            self.rt.emit(Event::Sync { task, token, time });
        }
    }

    /// Spawn a child task (a parallel function invocation). The child's
    /// affinity block is evaluated immediately and the task enqueued on its
    /// target server; a small spawn cost is charged to the caller.
    pub fn spawn(&mut self, task: Task) {
        let parent = self.task;
        self.cycles += self.rt.spawn_from(self.proc, Some(parent), task);
    }

    /// `home()`: the server collocated with `obj`'s memory.
    pub fn home(&self, obj: ObjRef) -> ProcId {
        self.rt.home_proc(obj)
    }

    /// `migrate()`: move `bytes` at `obj` to processor `n % nservers`'s
    /// local memory, charging the migration cost to this task.
    ///
    /// Under the adaptive migration throttle ([`cool_core::feedback`]) the
    /// request is ignored while the observed remote-miss rate says the
    /// data is not actually remote — placement is a performance hint in
    /// COOL, never a correctness requirement, so dropping a `migrate` can
    /// only change costs.
    pub fn migrate(&mut self, obj: ObjRef, bytes: u64, n: usize) {
        if !self.rt.migration_gate() {
            return;
        }
        let c = self.rt.machine_mut().migrate_to_proc(obj, bytes, n);
        self.cycles += self.rt.machine_mut().compute(self.proc, c);
        if self.rt.recording() {
            self.rt.emit(Event::Migrate {
                task: self.task,
                obj,
                bytes,
                to: ProcId(n % self.rt.nservers()),
                time: self.rt.clock_of(self.proc) + self.cycles,
            });
        }
    }
}
