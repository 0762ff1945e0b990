//! The simulated runtime: servers, virtual-time event loop, scheduling.

use std::collections::HashMap;

use cool_core::{
    AdaptiveConfig, AffinityKind, ClusterId, Event, EventLog, FaultPlan, MemDelta, NodeId, ObjRef,
    PolicyFeedback, ProcId, RebalanceConfig, Recorder, Recording, SchedStats, StealPolicy,
    TaskUid, Topology, VictimOrders,
};
use dash_sim::config::{DISPATCH_OVERHEAD, PAGE_MIGRATE_COST};
use dash_sim::{Machine, MachineConfig};

use crate::report::RunReport;
use crate::sched::{BusyQueues, NextActor, Slab};
use crate::task::{Task, TaskCtx};

/// An internal scheduling invariant was violated (the simulator tried to
/// dispatch from an empty queue). Carries enough state for a post-mortem:
/// which server, what was still pending, and where the clocks stood.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SimError {
    /// Server whose dispatch failed.
    pub proc: ProcId,
    /// Tasks the scheduler still believed were queued somewhere.
    pub pending: usize,
    /// Actual queue depth per server at failure time.
    pub queue_depths: Vec<usize>,
    /// Virtual clock per server at failure time.
    pub clocks: Vec<u64>,
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "dispatch on empty queue at server {} (pending={}; depths=",
            self.proc.index(),
            self.pending
        )?;
        for (p, d) in self.queue_depths.iter().enumerate() {
            if p > 0 {
                write!(f, ",")?;
            }
            write!(f, "s{p}={d}")?;
        }
        write!(f, "; clocks=")?;
        for (p, c) in self.clocks.iter().enumerate() {
            if p > 0 {
                write!(f, ",")?;
            }
            write!(f, "s{p}={c}")?;
        }
        write!(f, ")")
    }
}

impl std::error::Error for SimError {}

/// Cycles to probe one victim's queues during a steal scan.
const STEAL_PROBE_COST: u64 = 30;
/// Cycles to transfer a stolen batch.
const STEAL_XFER_COST: u64 = 100;
/// Cycles burned when a mutex task is found blocked and set aside.
const MUTEX_RETRY_COST: u64 = 20;
/// Cycles charged to a creator per spawn (task creation is lightweight in
/// COOL; this covers descriptor setup + enqueue).
const SPAWN_COST: u64 = 20;

/// Runtime configuration: the machine plus scheduler knobs.
#[derive(Clone, Copy, Debug)]
pub struct SimConfig {
    /// The simulated machine.
    pub machine: MachineConfig,
    /// Work-stealing policy.
    pub policy: StealPolicy,
    /// Affinity-queue array size per server (Section 5: "collisions ... can
    /// be minimized by choosing a suitably large array size").
    pub affinity_slots: usize,
    /// How much of the [`Event`] stream to record: `Trace` keeps the
    /// scheduler-observability facts (task begin/end with PerfMonitor
    /// deltas, steals, slot transitions, mutex waits, queue-depth samples);
    /// `Full` adds the spawn, phase, lock, access and sync edges
    /// `cool-analyze` consumes. `Off` by default; recording is pure (it
    /// never changes simulated cycles) and a single branch when off.
    pub recording: Recording,
    /// Validate the machine's coherence invariants (SWMR, directory/cache
    /// agreement, lost invalidations, tracked-count conservation, lookaside
    /// soundness) on every coherence transition, plus a full-state sweep at
    /// each phase boundary. Violations are collected on the machine
    /// (`machine().violations()`), never panicked. Off by default; checking
    /// is an observer — it cannot change the simulated schedule.
    pub check_coherence: bool,
    /// Closed-loop policy adaptation (see [`cool_core::feedback`]): steal
    /// ceilings widen under observed starvation, `migrate` is throttled by
    /// the observed remote-miss rate, and steal scans are probe-capped by
    /// observed queue depth. `None` (the default) keeps every policy knob
    /// static and the config fingerprint byte-identical to the pre-adaptive
    /// schema.
    pub adaptive: Option<AdaptiveConfig>,
    /// Phase-boundary global rebalancer: at each `waitfor` boundary, pages
    /// whose observed cross-cluster miss traffic says they live on the
    /// wrong cluster are re-homed when the modelled cycle saving beats the
    /// migration cost by the configured margin. `None` (the default)
    /// disables the pass and keeps the fingerprint unchanged.
    pub rebalance: Option<RebalanceConfig>,
}

impl SimConfig {
    /// Defaults for a given machine.
    pub fn new(machine: MachineConfig) -> Self {
        SimConfig {
            machine,
            policy: StealPolicy::default(),
            affinity_slots: 64,
            recording: Recording::Off,
            check_coherence: false,
            adaptive: None,
            rebalance: None,
        }
    }

    /// Replace the steal policy.
    pub fn with_policy(mut self, policy: StealPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Record every event (`Recording::Full`, see [`SimConfig::recording`]).
    pub fn with_events(mut self) -> Self {
        self.recording = Recording::Full;
        self
    }

    /// Record the trace events (`Recording::Trace`, see
    /// [`SimConfig::recording`]).
    pub fn with_trace(mut self) -> Self {
        self.recording = Recording::Trace;
        self
    }

    /// Enable coherence-invariant checking (see
    /// [`SimConfig::check_coherence`]).
    pub fn with_checked(mut self) -> Self {
        self.check_coherence = true;
        self
    }

    /// Enable closed-loop policy adaptation (see [`SimConfig::adaptive`]).
    pub fn with_adaptive(mut self, adaptive: AdaptiveConfig) -> Self {
        self.adaptive = Some(adaptive);
        self
    }

    /// Enable the phase-boundary rebalancer (see [`SimConfig::rebalance`]).
    pub fn with_rebalance(mut self, rebalance: RebalanceConfig) -> Self {
        self.rebalance = Some(rebalance);
        self
    }

    /// A compact, stable fingerprint of every knob that influences the
    /// simulated schedule: the machine, the steal policy, and the scheduler
    /// cost constants. Recording and checking flags are deliberately
    /// excluded — they are observers, never inputs (recording or checking
    /// a run must not change it). `cool-repro` records it in each record's
    /// config string as provenance. The adaptive and rebalance segments are
    /// appended only when configured, so every static configuration's
    /// fingerprint stays byte-identical to the pre-adaptive schema
    /// (committed sweep records keep verifying).
    pub fn fingerprint(&self) -> String {
        let mut s = format!(
            "{} {} slots={} probe={} xfer={} mrt={} spawn={}",
            self.machine.fingerprint(),
            self.policy.fingerprint(),
            self.affinity_slots,
            STEAL_PROBE_COST,
            STEAL_XFER_COST,
            MUTEX_RETRY_COST,
            SPAWN_COST,
        );
        if let Some(a) = &self.adaptive {
            s.push(' ');
            s.push_str(&a.fingerprint());
        }
        if let Some(r) = &self.rebalance {
            s.push(' ');
            s.push_str(&r.fingerprint());
        }
        s
    }
}

/// A task bound to its scheduling decision.
struct SimTask {
    task: Task,
    /// Unique identity of this task instance (for the event stream).
    uid: TaskUid,
    /// Server the affinity hint selected (for adherence statistics).
    target: ProcId,
    /// Whether any hint was supplied.
    hinted: bool,
    /// This task's first dispatch must fail (transient injected fault).
    inject: bool,
    /// Already rotated at least once on a held mutex (stats tell first
    /// blocks apart from retries).
    blocked_before: bool,
}

/// The simulated COOL runtime. See the crate docs for the execution model.
pub struct SimRuntime {
    cfg: SimConfig,
    machine: Machine,
    /// Precomputed per-thief victim orders with common-ancestor levels
    /// (`steal_order` allocated on the idle/steal hot path).
    victims: VictimOrders,
    /// Every server's queues, with the set of servers that have work. The
    /// queues hold slots of `tasks`, where each queued task lives until it
    /// is dispatched.
    queues: BusyQueues<u32>,
    tasks: Slab<SimTask>,
    clocks: Vec<u64>,
    /// Which server acts next: a tournament tree over `clocks`.
    next_actor: NextActor,
    stats: SchedStats,
    /// Virtual time at which each mutex object's lock becomes free.
    locks: HashMap<ObjRef, u64>,
    /// Tasks currently queued anywhere (phase termination condition).
    pending: usize,
    /// Consecutive failed steal scans per server (drives last-resort mode).
    failed_scans: Vec<usize>,
    /// Consecutive blocked-rotation dispatches per server, plus the earliest
    /// lock-release time seen, to jump the clock over a convoy.
    rotations: Vec<(usize, u64)>,
    /// Fault-injection plan (one plan unit = one cycle), if set.
    faults: Option<FaultPlan>,
    /// Global spawn counter for the plan's fail-spawn indices.
    fault_spawns: u64,
    /// Per-server executed-dispatch counters for the plan's stalls.
    fault_dispatches: Vec<u64>,
    /// Event recorder (absent when `SimConfig::recording` is `Off`).
    recorder: Option<Recorder>,
    /// Next task uid (0 is the root context).
    next_uid: u64,
    /// Phase counter for `PhaseBegin`/`PhaseEnd` events.
    phase_seq: u32,
    /// Closed-loop policy aggregator, when adaptation is enabled. The
    /// virtual-time event loop is single-threaded, so one global aggregator
    /// sees the same deterministic task-boundary order on every run.
    feedback: Option<PolicyFeedback>,
    /// Reference-mix snapshot (refs, remote misses) per server at the last
    /// feedback sample, for per-task deltas.
    feedback_snap: Vec<(u64, u64)>,
}

impl SimRuntime {
    /// Build a cold runtime (cold caches, empty queues, zero clocks).
    pub fn new(cfg: SimConfig) -> Self {
        let topology = cfg.machine.topology;
        let n = topology.nservers;
        let mut machine = Machine::new(cfg.machine);
        if cfg.check_coherence {
            machine.enable_checked();
        }
        if cfg.rebalance.is_some() {
            machine.enable_traffic();
        }
        let clocks = vec![0; n];
        SimRuntime {
            machine,
            victims: topology.victim_orders(),
            queues: BusyQueues::new(n, cfg.affinity_slots),
            tasks: Slab::new(),
            next_actor: NextActor::new(&clocks),
            clocks,
            stats: SchedStats::default(),
            locks: HashMap::new(),
            pending: 0,
            failed_scans: vec![0; n],
            rotations: vec![(0, u64::MAX); n],
            faults: None,
            fault_spawns: 0,
            fault_dispatches: vec![0; n],
            recorder: Recorder::new(cfg.recording, n),
            next_uid: 1,
            phase_seq: 0,
            feedback: cfg
                .adaptive
                .map(|a| PolicyFeedback::new(a, topology.nlevels())),
            feedback_snap: vec![(0, 0); n],
            cfg,
        }
    }

    /// Whether any events are being recorded.
    #[inline]
    pub(crate) fn recording(&self) -> bool {
        self.recorder.is_some()
    }

    /// Whether every event is being recorded (`Recording::Full`): the gate
    /// for events that are costly to build and only the analyzer reads.
    #[inline]
    pub(crate) fn full(&self) -> bool {
        self.cfg.recording == Recording::Full
    }

    /// Record an event (no-op when recording is off). Trace events are
    /// ringed under the processor they are attributed to; the recorder's
    /// global sequence keeps the merged order.
    pub(crate) fn emit(&self, ev: Event) {
        if let Some(rec) = &self.recorder {
            rec.record(ev.proc().map_or(0, ProcId::index), ev);
        }
    }

    /// Drain the recorded event stream (empty when recording is off).
    /// Recording stays on with empty rings.
    pub fn take_obs(&mut self) -> EventLog {
        self.recorder.as_ref().map(Recorder::drain).unwrap_or_default()
    }

    /// Perturb subsequent scheduling with a deterministic fault plan (one
    /// plan unit = one simulated cycle). Straggler and stall delays advance
    /// the victim's virtual clock as idle time; injected task failures abort
    /// the task's first dispatch before the body runs and requeue it, so
    /// results stay correct and two same-seed runs are bit-identical.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.faults = Some(plan);
    }

    /// Number of servers (= processors).
    pub fn nservers(&self) -> usize {
        self.cfg.machine.topology.nservers
    }

    /// The scheduler topology: the simulated machine's tree.
    pub fn topology(&self) -> Topology {
        self.cfg.machine.topology
    }

    /// The simulated machine (for setup-time allocation etc.).
    pub fn machine(&self) -> &Machine {
        &self.machine
    }

    /// Mutable machine access.
    pub fn machine_mut(&mut self) -> &mut Machine {
        &mut self.machine
    }

    /// `home()` resolved to a server.
    pub fn home_proc(&self, obj: ObjRef) -> ProcId {
        self.machine.home_proc(obj)
    }

    /// The current virtual clock of one server.
    pub fn clock_of(&self, p: ProcId) -> u64 {
        self.clocks[p.index()]
    }

    /// Elapsed virtual time: the latest processor clock.
    pub fn elapsed(&self) -> u64 {
        self.clocks.iter().copied().max().unwrap_or(0)
    }

    /// Scheduling statistics so far.
    pub fn stats(&self) -> SchedStats {
        self.stats
    }

    /// Zero the machine's performance monitor (e.g. after initialisation, so
    /// reports cover only the parallel section, as the paper measures).
    pub fn reset_monitor(&mut self) {
        self.machine.monitor_mut().reset();
    }

    /// Full report of the run so far.
    pub fn report(&self) -> RunReport {
        let total = self.machine.monitor().total();
        RunReport {
            nprocs: self.nservers(),
            elapsed: self.elapsed(),
            stats: self.stats,
            mem: self.machine.monitor().breakdown(),
            busy_cycles: total.busy_cycles,
            idle_cycles: total.idle_cycles,
            overhead_cycles: total.overhead_cycles,
            coherence_transitions: self.machine.transitions_checked(),
            coherence_violations: self.machine.violation_count(),
            contention: self.machine.contention_stats(),
            topology: self.topology(),
        }
    }

    /// Spawn a task from outside any task (phase seeding). The creator is
    /// taken to be server 0.
    pub fn spawn(&mut self, task: Task) {
        self.spawn_from(ProcId(0), None, task);
    }

    /// Spawn from `creator`, resolving the affinity block to a target server
    /// and queue slot. `parent` is the spawning task's identity (`None` for
    /// external spawns). Returns the cycles to charge the creator.
    pub(crate) fn spawn_from(
        &mut self,
        creator: ProcId,
        parent: Option<TaskUid>,
        task: Task,
    ) -> u64 {
        let spec = task.affinity;
        let hinted = spec.is_hinted();
        let machine = &self.machine;
        let target = spec.resolve_server(self.nservers(), creator, |o| {
            machine.home_proc(o)
        });
        let kind = spec.kind();
        let inject = match &self.faults {
            Some(plan) => {
                let idx = self.fault_spawns;
                self.fault_spawns += 1;
                plan.should_fail(idx)
            }
            None => false,
        };
        let uid = TaskUid(self.next_uid);
        self.next_uid += 1;
        if self.full() {
            self.emit(Event::Spawn {
                parent,
                child: uid,
                label: task.label,
                object: spec.object,
                target,
                time: self.clocks[creator.index()],
            });
        }
        let st = SimTask {
            task,
            uid,
            target,
            hinted,
            inject,
            blocked_before: false,
        };
        self.push_local(target, kind, st);
        self.pending += 1;
        self.stats.spawned += 1;
        self.machine.monitor_mut().proc_mut(creator.index()).overhead_cycles += SPAWN_COST;
        SPAWN_COST
    }

    /// Enqueue a task on server `p`'s queues, emitting a slot-link event
    /// when a new task-affinity set starts queueing.
    fn push_local(&mut self, p: ProcId, kind: AffinityKind, st: SimTask) {
        let token = st.task.affinity.queue_token();
        let slot = self.tasks.insert(st);
        match token {
            Some(tok) => {
                let up = self.queues.push_affinity(p.index(), tok, kind, slot);
                if up.newly_linked {
                    if let Some(slot) = up.slot {
                        self.emit(Event::SlotLink {
                            proc: p,
                            slot,
                            token: tok,
                            time: self.clocks[p.index()],
                        });
                    }
                }
            }
            None => self.queues.push_default(p.index(), kind, slot),
        }
    }

    /// Run one phase to quiescence: execute `seed` as a task on server 0,
    /// then keep scheduling until every transitively-spawned task has
    /// completed. This is the `waitfor { ... }` construct: control returns
    /// only when the phase's task tree is done.
    ///
    /// Panics if the scheduler violates an internal invariant; use
    /// [`SimRuntime::try_run_phase`] to get the diagnostic [`SimError`]
    /// instead.
    pub fn run_phase(&mut self, seed: impl FnOnce(&mut TaskCtx<'_>) + 'static) {
        if let Err(e) = self.try_run_phase(seed) {
            panic!("simulator scheduling failed: {e}");
        }
    }

    /// Fallible form of [`SimRuntime::run_phase`]: scheduling invariant
    /// violations come back as a structured [`SimError`] carrying queue
    /// depths and clocks instead of a panic.
    pub fn try_run_phase(
        &mut self,
        seed: impl FnOnce(&mut TaskCtx<'_>) + 'static,
    ) -> Result<(), SimError> {
        self.phase_seq += 1;
        let seq = self.phase_seq;
        self.emit(Event::PhaseBegin { seq });
        self.spawn(Task::new(seed).with_label("phase-seed"));
        let out = self.drain();
        // Phase boundary: globally rebalance page homes against the phase's
        // observed traffic (a no-op unless `SimConfig::rebalance` is set).
        self.rebalance_pages();
        if self.cfg.check_coherence {
            // Phase boundary: global invariants (tracked-count
            // conservation, reverse tag agreement) on the settled state.
            self.machine.check_full();
        }
        self.emit(Event::PhaseEnd { seq });
        out
    }

    /// The event loop: repeatedly act on the earliest-clock server (ties
    /// broken by id).
    ///
    /// The tree is rebuilt on entry because the rebalancer moves clocks
    /// between phases. Within a step only the acting server's clock moves,
    /// so refreshing its leaf keeps the tree exact.
    fn drain(&mut self) -> Result<(), SimError> {
        self.next_actor.rebuild(&self.clocks);
        while self.pending > 0 {
            let pi = self.next_actor.first();
            if self.queues.is_busy(pi) {
                self.dispatch(ProcId(pi))?;
            } else {
                self.try_steal_or_idle(ProcId(pi))?;
            }
            self.next_actor.update(pi, self.clocks[pi]);
        }
        Ok(())
    }

    /// Pop and run (or rotate) the next local task on `p`.
    fn dispatch(&mut self, p: ProcId) -> Result<(), SimError> {
        let pi = p.index();
        if self.recording() {
            self.emit(Event::QueueDepth {
                proc: p,
                depth: self.queues.queue(pi).len(),
                time: self.clocks[pi],
            });
        }
        let popped = match self.queues.pop_local_info(pi) {
            Some(popped) => popped,
            None => {
                return Err(SimError {
                    proc: p,
                    pending: self.pending,
                    queue_depths: self.queues.depths(),
                    clocks: self.clocks.clone(),
                })
            }
        };
        if popped.drained {
            if let Some(slot) = popped.slot {
                self.emit(Event::SlotDrain {
                    proc: p,
                    slot,
                    time: self.clocks[pi],
                });
            }
        }
        let (kind, mut st) = (popped.kind, self.tasks.take(popped.payload));
        self.clocks[pi] += DISPATCH_OVERHEAD;
        self.machine.monitor_mut().proc_mut(pi).overhead_cycles += DISPATCH_OVERHEAD;

        // Transient injected failure: consume it before the body runs and
        // requeue the task untouched, so it still executes exactly once.
        if st.inject {
            st.inject = false;
            self.stats.injected_faults += 1;
            self.push_local(p, kind, st);
            return Ok(());
        }

        // Mutex parallel function: check the object locks (all of the task's
        // declared locks must be free; the latest release gates entry).
        if !st.task.mutexes.is_empty() {
            let free_at = st
                .task
                .mutexes
                .iter()
                .map(|l| *self.locks.get(l).unwrap_or(&0))
                .max()
                .unwrap_or(0);
            if free_at > self.clocks[pi] {
                // Blocked: set the task aside (back of its queue) and let the
                // server pick other work. COOL blocks the task, not the
                // server.
                if self.recording() {
                    // Attribute the wait to the lock gating entry (the one
                    // released last).
                    let lock = st
                        .task
                        .mutexes
                        .iter()
                        .copied()
                        .max_by_key(|l| *self.locks.get(l).unwrap_or(&0))
                        .expect("blocked task must declare a mutex");
                    self.emit(Event::MutexWait {
                        task: st.uid,
                        lock,
                        proc: p,
                        time: self.clocks[pi],
                    });
                }
                if st.blocked_before {
                    self.stats.mutex_retries += 1;
                } else {
                    self.stats.mutex_blocks += 1;
                }
                st.blocked_before = true;
                self.clocks[pi] += MUTEX_RETRY_COST;
                let (rot, earliest) = &mut self.rotations[pi];
                *rot += 1;
                *earliest = (*earliest).min(free_at);
                let full_cycle = *rot > self.queues.queue(pi).len();
                let jump_to = *earliest;
                if full_cycle {
                    // Everything runnable was tried; jump to the first lock
                    // release so we stop spinning.
                    let idle = jump_to.saturating_sub(self.clocks[pi]);
                    self.machine.monitor_mut().proc_mut(pi).idle_cycles += idle;
                    self.clocks[pi] = self.clocks[pi].max(jump_to);
                    self.rotations[pi] = (0, u64::MAX);
                }
                self.push_local(p, kind, st);
                return Ok(());
            }
        }
        self.rotations[pi] = (0, u64::MAX);
        self.failed_scans[pi] = 0;
        self.execute(p, st);
        Ok(())
    }

    /// Run a task body to completion on `p`, advancing its clock.
    fn execute(&mut self, p: ProcId, mut st: SimTask) {
        let pi = p.index();
        if let Some(plan) = &self.faults {
            // Straggler surcharge plus any one-shot stall scheduled for this
            // dispatch number, charged as idle time before the body.
            let nth = self.fault_dispatches[pi];
            self.fault_dispatches[pi] += 1;
            let delay = plan.slow_units(pi) + plan.stall_units(pi, nth);
            if delay > 0 {
                self.clocks[pi] += delay;
                self.machine.monitor_mut().proc_mut(pi).idle_cycles += delay;
            }
        }
        self.pending -= 1;
        self.stats.executed += 1;
        if st.hinted {
            self.stats.hinted += 1;
            if st.target == p {
                self.stats.affinity_hits += 1;
            }
        }
        let start = self.clocks[pi];
        // The task is consumed by this dispatch, so take its lock list rather
        // than cloning it (this runs once per executed task).
        let mutexes = std::mem::take(&mut st.task.mutexes);
        // Issue the task's prefetches before the body runs: their latency
        // overlaps the first part of the execution.
        let mut prefetch_cycles = 0;
        for (obj, bytes) in std::mem::take(&mut st.task.prefetch) {
            let cost = self.machine.prefetch(p, obj, bytes, start + prefetch_cycles);
            prefetch_cycles += cost;
            if self.full() {
                self.emit(Event::Prefetch {
                    task: st.uid,
                    obj,
                    bytes,
                    cost,
                    time: start,
                });
            }
        }
        self.clocks[pi] += prefetch_cycles;
        let start = self.clocks[pi];
        // Task begin, plus a snapshot of the processor's reference counters
        // so the end event can carry the body's exact cache/local/remote
        // delta (the counters only move inside `Machine::reference`, i.e.
        // inside task bodies).
        let ref_snap = if self.recording() {
            // The object is reported only when it actually drove placement
            // (no PROCESSOR override): then `target == home(object)` held at
            // spawn time and a mismatch at dispatch means the object
            // migrated in between.
            let object = if st.task.affinity.processor.is_none() {
                st.task.affinity.object
            } else {
                None
            };
            self.emit(Event::TaskBegin {
                task: st.uid,
                label: st.task.label,
                proc: p,
                target: st.target,
                hinted: st.hinted,
                set: st.task.affinity.queue_token(),
                object,
                object_home: object.map(|o| self.machine.home_proc(o)),
                time: start,
            });
            if self.full() {
                for &lock in &mutexes {
                    self.emit(Event::MutexAcquire {
                        task: st.uid,
                        lock,
                        time: start,
                    });
                }
            }
            Some(self.machine.monitor().proc(pi).ref_mix())
        } else {
            None
        };
        // Feedback sampling: snapshot this server's reference mix so the
        // completion boundary can feed the body's exact refs/remote-miss
        // delta into the adaptive control loop.
        if self.feedback.is_some() {
            let m = self.machine.monitor().proc(pi).ref_mix();
            self.feedback_snap[pi] = (m[0], m[4]);
        }
        let body = st.task.body;
        let mut ctx = TaskCtx {
            rt: self,
            proc: p,
            task: st.uid,
            cycles: 0,
        };
        body(&mut ctx);
        let duration = ctx.cycles;
        self.clocks[pi] = start + duration;
        for &lock_obj in &mutexes {
            self.locks.insert(lock_obj, start + duration);
        }
        if let Some(snap) = ref_snap {
            if self.full() {
                for &lock in mutexes.iter().rev() {
                    self.emit(Event::MutexRelease {
                        task: st.uid,
                        lock,
                        time: start + duration,
                    });
                }
            }
            let now = self.machine.monitor().proc(pi).ref_mix();
            self.emit(Event::TaskEnd {
                task: st.uid,
                proc: p,
                mem: Some(MemDelta {
                    refs: now[0] - snap[0],
                    l1_hits: now[1] - snap[1],
                    l2_hits: now[2] - snap[2],
                    local_misses: now[3] - snap[3],
                    remote_misses: now[4] - snap[4],
                }),
                time: start + duration,
            });
        }
        // Task-boundary feedback sample: controls only ever change here
        // (at window boundaries), so the adaptive schedule stays a pure
        // function of the deterministic task order.
        if let Some(fb) = self.feedback.as_mut() {
            let m = self.machine.monitor().proc(pi).ref_mix();
            let (refs0, rem0) = self.feedback_snap[pi];
            let depth = self.queues.queue(pi).len();
            if fb.note_task(m[0] - refs0, m[4] - rem0, depth) {
                self.stats.adaptive_widenings += 1;
            }
        }
    }

    /// The adaptive migration gate, consulted by [`TaskCtx::migrate`]:
    /// `true` means proceed; `false` means the feedback loop vetoed the
    /// move (counted into `SchedStats::throttled_migrations`).
    pub(crate) fn migration_gate(&mut self) -> bool {
        match &self.feedback {
            Some(fb) if !fb.migration_open() => {
                self.stats.throttled_migrations += 1;
                false
            }
            _ => true,
        }
    }

    /// The phase-boundary global rebalancer: re-home pages whose observed
    /// cross-cluster miss traffic says they were placed on the wrong
    /// cluster.
    ///
    /// For every page the closing phase touched, the pass compares the
    /// modelled communication cost of that traffic under the current home
    /// against the dominant requesting cluster (ties to the lowest index),
    /// using the machine's per-level latency tables — the same cost model
    /// the miss path charges. A page moves only when the modelled cycle
    /// saving clears the page-migration cost by the configured margin; the
    /// move's cycles are charged (clock and overhead) to the destination
    /// cluster's lead processor, and traffic counters reset so the next
    /// phase's decisions see only its own behaviour. Scanning traffic in
    /// page order with deterministic tie-breaks keeps the pass a pure
    /// function of the (deterministic) schedule.
    fn rebalance_pages(&mut self) {
        let Some(rb) = self.cfg.rebalance else { return };
        let mcfg = &self.cfg.machine;
        let nclusters = mcfg.topology.nclusters();
        let page_bytes = self.machine.space().page_bytes();
        // Decide first (immutable scan), then apply: the borrow of the
        // traffic table cannot overlap the migrations.
        let mut moves: Vec<(u64, usize, u64)> = Vec::new();
        if let Some(tr) = self.machine.traffic() {
            // Page 0 is the reserved null page — never allocated, never
            // moved.
            for page in 1..tr.pages() {
                let home = self.machine.space().home(ObjRef(page as u64 * page_bytes));
                let mut best = home.index();
                let mut best_count = 0u32;
                for c in 0..nclusters {
                    let n = tr.count(page, c);
                    if n > best_count {
                        best = c;
                        best_count = n;
                    }
                }
                if best == home.index() || best_count < rb.min_remote {
                    continue;
                }
                // Modelled saving of serving the phase's traffic from `best`
                // instead of `home` (the home cluster's own accesses turning
                // remote enter as a negative term).
                let mut gain = 0i64;
                for c in 0..nclusters {
                    let n = i64::from(tr.count(page, c));
                    if n == 0 {
                        continue;
                    }
                    let d_home = mcfg.cluster_distance(ClusterId(c), ClusterId(home.index()));
                    let d_best = mcfg.cluster_distance(ClusterId(c), ClusterId(best));
                    gain +=
                        n * (mcfg.mem_latency(d_home) as i64 - mcfg.mem_latency(d_best) as i64);
                }
                if gain <= 0 {
                    continue;
                }
                if (gain as u64) * 1000 < PAGE_MIGRATE_COST * u64::from(rb.margin_permille) {
                    continue;
                }
                moves.push((page as u64, best, u64::from(best_count)));
            }
        }
        for (page, dest, misses) in moves {
            let obj = ObjRef(page * page_bytes);
            let cost = self.machine.migrate_to_node(obj, page_bytes, NodeId(dest));
            let lead = self.cfg.machine.proc_of_node(NodeId(dest));
            let li = lead.index();
            self.clocks[li] += cost;
            self.machine.monitor_mut().proc_mut(li).overhead_cycles += cost;
            self.stats.rebalanced_pages += 1;
            self.emit(Event::Rebalance {
                obj,
                to: lead,
                misses,
                time: self.clocks[li],
            });
        }
        self.machine.reset_traffic();
    }

    /// Steal scan for an idle server, or advance its clock past the next
    /// event if nothing is stealable.
    fn try_steal_or_idle(&mut self, p: ProcId) -> Result<(), SimError> {
        let pi = p.index();
        if let Some(plan) = &self.faults {
            // Injected fault: a processor slow to notice new work.
            let delay = plan.wakeup_units(pi);
            if delay > 0 {
                self.clocks[pi] += delay;
                self.machine.monitor_mut().proc_mut(pi).idle_cycles += delay;
            }
        }
        let queues = &mut self.queues;
        let scan = self.cfg.policy.scan(
            &self.cfg.machine.topology,
            self.victims.order(p),
            &mut self.failed_scans[pi],
            self.feedback.as_mut(),
            || &mut self.stats,
            // An empty victim still costs its probe, but has nothing to steal.
            |v, avoid, whole| {
                let v = v.index();
                if queues.is_busy(v) {
                    queues.steal_with(v, avoid, whole)
                } else {
                    None
                }
            },
        );
        if let Some(scan) = scan {
            let mut cost = scan.probes as u64 * STEAL_PROBE_COST;
            if scan.stolen.is_some() {
                cost += STEAL_XFER_COST;
            }
            self.clocks[pi] += cost;
            self.machine.monitor_mut().proc_mut(pi).overhead_cycles += cost;
            match scan.stolen {
                Some((victim, batch)) => {
                    if self.recording() {
                        self.emit(Event::StealSuccess {
                            thief: p,
                            victim,
                            token: batch.token,
                            ntasks: batch.tasks.len(),
                            time: self.clocks[pi],
                        });
                    }
                    // Stolen tasks keep their original target for adherence
                    // accounting. Run the first one immediately. Besides
                    // matching what a real thief does, this guarantees
                    // progress: a steal always executes at least one task, so
                    // whole-set steals cannot ping-pong a set between idle
                    // servers indefinitely.
                    self.queues.push_stolen(pi, batch);
                    return self.dispatch(p);
                }
                None if self.recording() => self.emit(Event::StealFail {
                    thief: p,
                    probes: scan.probes,
                    time: self.clocks[pi],
                }),
                None => {}
            }
        }
        // Idle: advance past the earliest server that still has work, so it
        // acts first and we re-examine the world afterwards.
        let next = self.queues.busy().map(|q| self.clocks[q]).min();
        if let Some(t) = next {
            let target = t.max(self.clocks[pi]) + 1;
            self.machine.monitor_mut().proc_mut(pi).idle_cycles +=
                target - self.clocks[pi];
            self.clocks[pi] = target;
        }
        // If no queue anywhere has work, pending must be 0 and the phase
        // ends; `drain` checks on the next iteration.
        debug_assert!(next.is_some() || self.pending == 0);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cool_core::AffinitySpec;
    use std::cell::RefCell;
    use std::rc::Rc;

    fn rt(nprocs: usize) -> SimRuntime {
        SimRuntime::new(SimConfig::new(MachineConfig::dash_small(nprocs)))
    }

    #[test]
    fn single_task_runs_and_advances_clock() {
        let mut rt = rt(2);
        let ran = Rc::new(RefCell::new(false));
        let flag = ran.clone();
        rt.run_phase(move |ctx| {
            ctx.compute(100);
            *flag.borrow_mut() = true;
        });
        assert!(*ran.borrow());
        assert!(rt.elapsed() >= 100);
        assert_eq!(rt.stats().executed, 1);
    }

    #[test]
    fn object_affinity_task_runs_on_home_server() {
        let mut rt = rt(8);
        let obj = rt.machine_mut().alloc_on_node(cool_core::NodeId(1), 64);
        let where_ran = Rc::new(RefCell::new(ProcId(99)));
        let w = where_ran.clone();
        rt.run_phase(move |ctx| {
            let w = w.clone();
            ctx.spawn(
                Task::new(move |c| {
                    *w.borrow_mut() = c.proc();
                    c.compute(10);
                })
                .with_affinity(AffinitySpec::object(obj)),
            );
        });
        // Home of node 1 is processor 4 (first of cluster 1).
        assert_eq!(*where_ran.borrow(), ProcId(4));
        assert_eq!(rt.stats().adherence(), 1.0);
    }

    #[test]
    fn task_affinity_set_runs_back_to_back_on_one_server() {
        // Stealing is disabled so the property is tested in isolation; with
        // stealing enabled a set may legitimately be stolen *as a set*.
        let mut rt = SimRuntime::new(
            SimConfig::new(MachineConfig::dash_small(4)).with_policy(StealPolicy::disabled()),
        );
        let token = ObjRef(0x500);
        let trace: Rc<RefCell<Vec<(u32, ProcId)>>> = Rc::new(RefCell::new(Vec::new()));
        let t = trace.clone();
        let trace2 = trace.clone();
        rt.run_phase(move |ctx| {
            for i in 0..6u32 {
                let t = t.clone();
                // Interleave with unrelated tasks to check set cohesion.
                ctx.spawn(Task::new(move |c| {
                    c.compute(50);
                    t.borrow_mut().push((100 + i, c.proc()));
                }));
                let t2 = trace2.clone();
                ctx.spawn(
                    Task::new(move |c| {
                        c.compute(50);
                        t2.borrow_mut().push((i, c.proc()));
                    })
                    .with_affinity(AffinitySpec::task(token)),
                );
            }
        });
        let tr = trace.borrow();
        let set: Vec<(u32, ProcId)> = tr.iter().copied().filter(|&(i, _)| i < 100).collect();
        assert_eq!(set.len(), 6);
        // All on the same server...
        assert!(set.iter().all(|&(_, p)| p == set[0].1), "{set:?}");
        // ...in FIFO order (back to back service).
        let ids: Vec<u32> = set.iter().map(|&(i, _)| i).collect();
        assert_eq!(ids, vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn stealing_balances_unhinted_load() {
        let mut rt = rt(4);
        let seen: Rc<RefCell<std::collections::HashSet<usize>>> =
            Rc::new(RefCell::new(Default::default()));
        let s = seen.clone();
        rt.run_phase(move |ctx| {
            for _ in 0..64 {
                let s = s.clone();
                ctx.spawn(Task::new(move |c| {
                    c.compute(5000);
                    s.borrow_mut().insert(c.proc().index());
                }));
            }
        });
        assert!(rt.stats().tasks_stolen > 0);
        assert!(
            seen.borrow().len() >= 3,
            "work should spread: {:?}",
            seen.borrow()
        );
    }

    #[test]
    fn disabled_stealing_keeps_unhinted_tasks_on_creator() {
        let mut rt = SimRuntime::new(
            SimConfig::new(MachineConfig::dash_small(4)).with_policy(StealPolicy::disabled()),
        );
        let seen: Rc<RefCell<Vec<usize>>> = Rc::new(RefCell::new(Vec::new()));
        let s = seen.clone();
        rt.run_phase(move |ctx| {
            for _ in 0..10 {
                let s = s.clone();
                ctx.spawn(Task::new(move |c| {
                    c.compute(1000);
                    s.borrow_mut().push(c.proc().index());
                }));
            }
        });
        assert!(seen.borrow().iter().all(|&p| p == 0));
        assert_eq!(rt.stats().tasks_stolen, 0);
    }

    #[test]
    fn mutex_tasks_serialize_in_virtual_time() {
        let mut rt = rt(4);
        let obj = rt.machine_mut().alloc_on_node(cool_core::NodeId(0), 64);
        rt.run_phase(move |ctx| {
            for i in 0..4 {
                ctx.spawn(
                    Task::new(move |c| {
                        c.compute(10_000);
                    })
                    .with_affinity(AffinitySpec::processor(i))
                    .with_mutex(obj),
                );
            }
        });
        // Four 10k-cycle critical sections on one lock cannot overlap:
        // elapsed must be at least 40k cycles even with 4 processors.
        assert!(
            rt.elapsed() >= 40_000,
            "mutex sections overlapped: {}",
            rt.elapsed()
        );
        assert!(rt.stats().mutex_blocks > 0);
    }

    #[test]
    fn non_conflicting_mutex_tasks_run_in_parallel() {
        let mut rt = rt(4);
        let a = rt.machine_mut().alloc_on_node(cool_core::NodeId(0), 64);
        let b = rt.machine_mut().alloc_on_node(cool_core::NodeId(0), 64);
        rt.run_phase(move |ctx| {
            ctx.spawn(
                Task::new(|c| c.compute(10_000))
                    .with_affinity(AffinitySpec::processor(1))
                    .with_mutex(a),
            );
            ctx.spawn(
                Task::new(|c| c.compute(10_000))
                    .with_affinity(AffinitySpec::processor(2))
                    .with_mutex(b),
            );
        });
        assert!(
            rt.elapsed() < 15_000,
            "independent locks should not serialize: {}",
            rt.elapsed()
        );
    }

    #[test]
    fn nested_spawns_all_execute() {
        let mut rt = rt(4);
        let count = Rc::new(RefCell::new(0u32));
        let c0 = count.clone();
        rt.run_phase(move |ctx| {
            for _ in 0..4 {
                let c1 = c0.clone();
                ctx.spawn(Task::new(move |cx| {
                    for _ in 0..4 {
                        let c2 = c1.clone();
                        cx.spawn(Task::new(move |cy| {
                            cy.compute(10);
                            *c2.borrow_mut() += 1;
                        }));
                    }
                }));
            }
        });
        assert_eq!(*count.borrow(), 16);
        // seed + 4 + 16
        assert_eq!(rt.stats().executed, 21);
    }

    #[test]
    fn cluster_only_stealing_respects_boundary_until_desperate() {
        // 8 procs = 2 clusters. All work pinned to cluster 0 with object
        // affinity; cluster-1 thieves may only take it desperately.
        let mut rt = SimRuntime::new(
            SimConfig::new(MachineConfig::dash_small(8))
                .with_policy(StealPolicy::cluster_only()),
        );
        let obj = rt.machine_mut().alloc_on_node(cool_core::NodeId(0), 64);
        rt.run_phase(move |ctx| {
            for _ in 0..32 {
                ctx.spawn(
                    Task::new(|c| c.compute(2000)).with_affinity(AffinitySpec::object(obj)),
                );
            }
        });
        let s = rt.stats();
        // The cluster boundary is strict: no cross-cluster steals at all.
        assert_eq!(s.remote_steals, 0, "cluster boundary crossed: {s:?}");
    }

    #[test]
    fn adherence_reflects_stolen_hinted_tasks() {
        // One server hoards hinted work; with stealing, some tasks run
        // elsewhere so adherence < 1.
        let mut rt = rt(4);
        rt.run_phase(move |ctx| {
            for _ in 0..32 {
                ctx.spawn(
                    Task::new(|c| c.compute(5000)).with_affinity(AffinitySpec::processor(0)),
                );
            }
        });
        let s = rt.stats();
        assert_eq!(s.hinted, 32);
        assert!(s.adherence() < 1.0, "stealing should break some adherence");
        assert!(s.adherence() > 0.0);
    }

    /// One executed task, paired from its begin/end events.
    struct Interval {
        proc: ProcId,
        label: &'static str,
        start: u64,
        end: u64,
        on_target: bool,
    }

    /// Pair a recorded stream's task begin/end events into intervals.
    fn intervals(events: &[Event]) -> Vec<Interval> {
        let mut open = HashMap::new();
        let mut out = Vec::new();
        for ev in events {
            match ev {
                Event::TaskBegin {
                    task,
                    label,
                    proc,
                    target,
                    time,
                    ..
                } => {
                    open.insert(*task, (*proc, label.unwrap_or("task"), *time, target == proc));
                }
                Event::TaskEnd { task, time, .. } => {
                    let (proc, label, start, on_target) = open.remove(task).expect("begin");
                    out.push(Interval {
                        proc,
                        label,
                        start,
                        end: *time,
                        on_target,
                    });
                }
                _ => {}
            }
        }
        assert!(open.is_empty(), "every begin has an end");
        out
    }

    #[test]
    fn trace_records_labelled_intervals() {
        let mut rt = SimRuntime::new(
            SimConfig::new(MachineConfig::dash_small(2))
                .with_policy(StealPolicy::disabled())
                .with_trace(),
        );
        rt.run_phase(|ctx| {
            ctx.spawn(
                Task::new(|c| c.compute(100))
                    .with_label("alpha")
                    .with_affinity(AffinitySpec::processor(0)),
            );
            ctx.spawn(
                Task::new(|c| c.compute(200))
                    .with_label("beta")
                    .with_affinity(AffinitySpec::processor(1)),
            );
        });
        let trace = intervals(&rt.take_obs().events);
        // Seed + two labelled tasks.
        assert_eq!(trace.len(), 3);
        let alpha = trace.iter().find(|e| e.label == "alpha").unwrap();
        let beta = trace.iter().find(|e| e.label == "beta").unwrap();
        assert_eq!(alpha.proc, ProcId(0));
        assert_eq!(beta.proc, ProcId(1));
        assert!(alpha.end >= alpha.start + 100);
        assert!(beta.end >= beta.start + 200);
        assert!(alpha.on_target && beta.on_target);
        // Intervals never overlap on one server.
        for p in 0..2 {
            let mut evs: Vec<_> = trace.iter().filter(|e| e.proc == ProcId(p)).collect();
            evs.sort_by_key(|e| e.start);
            for w in evs.windows(2) {
                assert!(w[0].end <= w[1].start, "overlap on P{p}");
            }
        }
    }

    #[test]
    fn deterministic_replay() {
        let run = || {
            let mut rt = rt(8);
            let obj = rt.machine_mut().alloc_interleaved(4096);
            rt.run_phase(move |ctx| {
                for i in 0..40u64 {
                    ctx.spawn(
                        Task::new(move |c| {
                            c.read(obj.offset(i * 64), 64);
                            c.compute(100 + i * 7);
                            c.write(obj.offset(i * 64), 8);
                        })
                        .with_affinity(AffinitySpec::task(obj.offset((i % 5) * 64))),
                    );
                }
            });
            (rt.elapsed(), rt.stats(), rt.report().mem)
        };
        let a = run();
        let b = run();
        assert_eq!(a.0, b.0);
        assert_eq!(a.1, b.1);
        assert_eq!(a.2, b.2);
    }

    #[test]
    fn injected_faults_are_transient_and_deterministic() {
        let run = |with_plan: bool| {
            let mut rt = rt(4);
            if with_plan {
                rt.set_fault_plan(
                    FaultPlan::new(11)
                        .slow_server(1, 500)
                        .stall_server(0, 2, 10_000)
                        .fail_random_tasks(4, 20),
                );
            }
            let count = Rc::new(RefCell::new(0u32));
            let c = count.clone();
            rt.run_phase(move |ctx| {
                for _ in 0..20 {
                    let c = c.clone();
                    ctx.spawn(Task::new(move |cx| {
                        cx.compute(1000);
                        *c.borrow_mut() += 1;
                    }));
                }
            });
            let ran = *count.borrow();
            (ran, rt.elapsed(), rt.stats())
        };
        let (clean_count, clean_elapsed, clean_stats) = run(false);
        let (a_count, a_elapsed, a_stats) = run(true);
        let (b_count, b_elapsed, b_stats) = run(true);
        // Every task still runs exactly once under injection...
        assert_eq!(clean_count, 20);
        assert_eq!(a_count, 20);
        assert_eq!(a_stats.executed, clean_stats.executed);
        assert_eq!(a_stats.injected_faults, 4);
        // ...the perturbation costs virtual time...
        assert!(a_elapsed > clean_elapsed, "{a_elapsed} vs {clean_elapsed}");
        // ...and same-seed replays are bit-identical.
        assert_eq!((a_count, a_elapsed, a_stats), (b_count, b_elapsed, b_stats));
    }

    #[test]
    fn mutex_retries_counted_separately_from_first_blocks() {
        let mut rt = rt(4);
        let obj = rt.machine_mut().alloc_on_node(cool_core::NodeId(0), 64);
        rt.run_phase(move |ctx| {
            for i in 0..4 {
                ctx.spawn(
                    Task::new(move |c| c.compute(50_000))
                        .with_affinity(AffinitySpec::processor(i))
                        .with_mutex(obj),
                );
            }
        });
        let s = rt.stats();
        // Long critical sections force repeat rotations of the same task.
        assert!(s.mutex_blocks > 0, "{s:?}");
        assert!(
            s.mutex_blocks <= 3,
            "first blocks over-counted (must be per task): {s:?}"
        );
        assert!(s.mutex_retries > 0, "{s:?}");
    }

    #[test]
    fn phases_are_barriers() {
        let mut rt = rt(4);
        let log: Rc<RefCell<Vec<u8>>> = Rc::new(RefCell::new(Vec::new()));
        let l1 = log.clone();
        rt.run_phase(move |ctx| {
            for _ in 0..8 {
                let l = l1.clone();
                ctx.spawn(Task::new(move |c| {
                    c.compute(1000);
                    l.borrow_mut().push(1);
                }));
            }
        });
        let l2 = log.clone();
        rt.run_phase(move |ctx| {
            for _ in 0..8 {
                let l = l2.clone();
                ctx.spawn(Task::new(move |c| {
                    c.compute(1000);
                    l.borrow_mut().push(2);
                }));
            }
        });
        let v = log.borrow();
        let first_two = v.iter().position(|&x| x == 2).unwrap();
        assert!(
            v[..first_two].iter().all(|&x| x == 1),
            "phase 2 started before phase 1 finished: {v:?}"
        );
        assert_eq!(v.len(), 16);
    }
}
