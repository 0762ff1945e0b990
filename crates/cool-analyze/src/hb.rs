//! Happens-before race detection over a `Full` [`Event`] stream.
//!
//! The simulator runs task bodies atomically and emits events in an order
//! consistent with the happens-before relation (see `cool_core::events`), so
//! one forward pass suffices: maintain a vector clock per task, join along
//! the synchronisation edges (spawn, phase barrier, mutex chain, sync token),
//! and check every plain memory access against a bounded per-block history of
//! earlier accesses.
//!
//! Conflicts require **actual byte overlap**, not merely a shared 64-byte
//! block: false sharing (e.g. Ocean's unaligned region columns) is a
//! performance problem, not a race, and must not be reported as one.
//!
//! Serve-layer request lifecycles (`RequestAdmit`/`RequestAttempt`/
//! `RequestRetry`/`RequestDone`/`RequestDrain`) map onto the same
//! machinery, with request `id` standing for task [`req_uid`]`(id)` and
//! domain `d` for channel token [`domain_token`]`(d)`: the admit is a
//! spawn-style edge plus a release onto the domain's queue channel, each
//! attempt acquires that channel and the worker's program order, each
//! outcome releases both (the channel only on a retry or a failure,
//! modelling the requeue) and feeds the drain barrier, and the drain joins
//! everything back into the root.

use std::collections::{HashMap, HashSet};

use cool_core::{domain_token, req_uid, AccessKind, Event, ObjRef, ProcId, TaskUid};

use crate::vc::VectorClock;

/// Cache-line granularity used to index access histories. Conflicts are
/// still checked at byte granularity; this only bounds how many records an
/// access is compared against.
const BLOCK: u64 = 64;

/// Cap on retained records per block after pruning. Overflow drops the
/// oldest record — that can only *miss* a race, never invent one.
const MAX_RECORDS_PER_BLOCK: usize = 128;

/// Cap on distinct reported races (deduplicated); analysis keeps counting
/// but stops storing details past this.
const MAX_RACES: usize = 64;

/// One side of a reported race.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AccessInfo {
    /// Task that performed the access.
    pub task: TaskUid,
    /// Spawn label of the task, when it had one.
    pub label: Option<&'static str>,
    /// Read, write, or atomic flavour of the access.
    pub kind: AccessKind,
    /// Byte range `[addr, addr + len)` of the access.
    pub addr: u64,
    /// Length in bytes of the access.
    pub len: u64,
    /// Virtual time the access was issued at.
    pub time: u64,
}

/// Two overlapping, conflicting, happens-before-unordered accesses.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Race {
    /// Base address of the 64-byte block the conflict was found in.
    pub block: u64,
    /// The earlier access in the recorded stream.
    pub first: AccessInfo,
    /// The later access.
    pub second: AccessInfo,
}

impl Race {
    fn side(a: &AccessInfo) -> String {
        format!(
            "{} {} of {} bytes at {:#x} (t={})",
            a.label.unwrap_or("task"),
            a.kind.label(),
            a.len,
            a.addr,
            a.time
        )
    }

    /// Human-readable one-line description.
    pub fn describe(&self) -> String {
        format!(
            "data race in block {:#x}: {} vs {}",
            self.block,
            Race::side(&self.first),
            Race::side(&self.second)
        )
    }
}

/// Result of the happens-before pass.
#[derive(Clone, Debug, Default)]
pub struct RaceReport {
    /// Deduplicated races (capped at `MAX_RACES` stored entries).
    pub races: Vec<Race>,
    /// Total conflicting pairs found before deduplication.
    pub raw_conflicts: u64,
    /// Number of tasks seen in the stream.
    pub tasks: u64,
    /// Number of memory access events checked.
    pub accesses: u64,
}

/// Per-task analysis state: a slot in the vector-clock space, the task's own
/// counter (incremented at every release point) and its clock.
struct TaskState {
    slot: u32,
    counter: u32,
    vc: VectorClock,
}

impl TaskState {
    fn new(slot: u32, mut vc: VectorClock) -> Self {
        vc.raise(slot, 1);
        TaskState { slot, counter: 1, vc }
    }

    /// A release point: start a new epoch for this task.
    fn bump(&mut self) {
        self.counter += 1;
        let (slot, counter) = (self.slot, self.counter);
        self.vc.raise(slot, counter);
    }
}

/// One remembered access in a block history.
struct Record {
    slot: u32,
    clock: u32,
    task: TaskUid,
    kind: AccessKind,
    addr: u64,
    len: u64,
    time: u64,
}

impl Record {
    fn end(&self) -> u64 {
        self.addr + self.len
    }
}

/// Do two access kinds conflict (given overlapping bytes)?
fn conflicts(a: AccessKind, b: AccessKind) -> bool {
    (a.is_write() || b.is_write()) && !(a.is_atomic() && b.is_atomic())
}

/// Is `a`'s conflict set a subset of `b`'s? (Then a record of kind `a` can be
/// pruned in favour of an ordered-later, byte-subsuming record of kind `b`.)
fn conflict_subset(a: AccessKind, b: AccessKind) -> bool {
    const ALL: [AccessKind; 4] = [
        AccessKind::Read,
        AccessKind::Write,
        AccessKind::AtomicRead,
        AccessKind::AtomicWrite,
    ];
    ALL.iter().all(|&k| !conflicts(a, k) || conflicts(b, k))
}

/// Run the happens-before race detection pass over `events`.
pub fn detect_races(events: &[Event]) -> RaceReport {
    let mut states: HashMap<TaskUid, TaskState> = HashMap::new();
    states.insert(TaskUid::ROOT, TaskState::new(0, VectorClock::new()));
    let mut next_slot: u32 = 1;
    let mut labels: HashMap<TaskUid, &'static str> = HashMap::new();
    let mut lock_vcs: HashMap<ObjRef, VectorClock> = HashMap::new();
    let mut token_vcs: HashMap<ObjRef, VectorClock> = HashMap::new();
    // Join of every completed task's clock in the current (and earlier)
    // phases; folded into the root at each PhaseEnd barrier.
    let mut phase_join = VectorClock::new();
    // Per-worker program order for serve attempts: a worker thread runs its
    // attempts sequentially, so each outcome releases into the worker's
    // clock and the next attempt on that worker acquires it.
    let mut worker_vcs: HashMap<ProcId, VectorClock> = HashMap::new();
    // Join of every request outcome; folded into the root at ReqDrain.
    let mut drain_join = VectorClock::new();
    let mut histories: HashMap<u64, Vec<Record>> = HashMap::new();
    let mut reported: HashSet<(u64, String, &'static str, String, &'static str)> = HashSet::new();
    let mut out = RaceReport::default();

    for ev in events {
        match ev {
            Event::PhaseEnd { .. } => {
                // The waitfor barrier: the root (and everything spawned
                // after) happens-after every task of the finished phase.
                if let Some(root) = states.get_mut(&TaskUid::ROOT) {
                    root.vc.join(&phase_join);
                    root.bump();
                }
            }
            Event::Spawn {
                parent,
                child,
                label,
                ..
            } => {
                out.tasks += 1;
                if let Some(l) = label {
                    labels.insert(*child, l);
                }
                let parent_uid = parent.unwrap_or(TaskUid::ROOT);
                let inherited = match states.get_mut(&parent_uid) {
                    Some(p) => {
                        let vc = p.vc.clone();
                        p.bump();
                        vc
                    }
                    None => VectorClock::new(),
                };
                states.insert(*child, TaskState::new(next_slot, inherited));
                next_slot += 1;
            }
            Event::TaskEnd { task, .. } => {
                if let Some(st) = states.get(task) {
                    phase_join.join(&st.vc);
                }
            }
            Event::MutexAcquire { task, lock, .. } => {
                if let (Some(st), Some(lv)) = (states.get_mut(task), lock_vcs.get(lock)) {
                    st.vc.join(lv);
                }
            }
            Event::MutexRelease { task, lock, .. } => {
                if let Some(st) = states.get_mut(task) {
                    lock_vcs.insert(*lock, st.vc.clone());
                    st.bump();
                }
            }
            Event::Sync { task, token, .. } => {
                // Combined release-acquire on the token.
                if let Some(st) = states.get_mut(task) {
                    if let Some(tv) = token_vcs.get(token) {
                        st.vc.join(tv);
                    }
                    token_vcs.insert(*token, st.vc.clone());
                    st.bump();
                }
            }
            Event::Access {
                task,
                obj,
                len,
                kind,
                time,
                ..
            } => {
                out.accesses += 1;
                let Some(st) = states.get(task) else { continue };
                let (addr, len) = (obj.addr(), *len);
                if len == 0 {
                    continue;
                }
                let end = addr + len;
                let first_block = addr / BLOCK;
                let last_block = (end - 1) / BLOCK;
                for b in first_block..=last_block {
                    let hist = histories.entry(b).or_default();
                    for r in hist.iter() {
                        let overlap = r.addr < end && addr < r.end();
                        if overlap
                            && conflicts(r.kind, *kind)
                            && r.task != *task
                            && st.vc.get(r.slot) < r.clock
                        {
                            out.raw_conflicts += 1;
                            report(
                                &mut out,
                                &mut reported,
                                &labels,
                                b * BLOCK,
                                r,
                                *task,
                                *kind,
                                addr,
                                len,
                                *time,
                            );
                        }
                    }
                    // FastTrack-style pruning: drop records the new access
                    // dominates — ordered before it, byte-subsumed, and with
                    // a conflict set the new kind covers.
                    let (slot, clock, vc) = (st.slot, st.counter, &st.vc);
                    hist.retain(|r| {
                        let ordered = r.slot == slot || vc.get(r.slot) >= r.clock;
                        !(ordered
                            && addr <= r.addr
                            && r.end() <= end
                            && conflict_subset(r.kind, *kind))
                    });
                    if hist.len() >= MAX_RECORDS_PER_BLOCK {
                        hist.remove(0);
                    }
                    hist.push(Record {
                        slot,
                        clock,
                        task: *task,
                        kind: *kind,
                        addr,
                        len,
                        time: *time,
                    });
                }
            }
            Event::RequestAdmit { req, domain, .. } => {
                // Spawn-style: the submitting (root) context happens-before
                // the request; then release onto the domain queue channel so
                // the attempt that pops it acquires the admit.
                out.tasks += 1;
                let inherited = match states.get_mut(&TaskUid::ROOT) {
                    Some(p) => {
                        let vc = p.vc.clone();
                        p.bump();
                        vc
                    }
                    None => VectorClock::new(),
                };
                // The channel release carries the *submitter's* clock only —
                // joining the request's own clock would falsely order later
                // poppers after the request's first-epoch accesses.
                token_vcs.entry(domain_token(*domain)).or_default().join(&inherited);
                states.insert(req_uid(*req), TaskState::new(next_slot, inherited));
                next_slot += 1;
            }
            Event::RequestAttempt {
                req, domain, proc, ..
            } => {
                // Acquire the domain queue channel (joins the admit and any
                // retry requeues) and the worker's program order.
                if let Some(st) = states.get_mut(&req_uid(*req)) {
                    if let Some(tv) = token_vcs.get(&domain_token(*domain)) {
                        st.vc.join(tv);
                    }
                    if let Some(wv) = worker_vcs.get(proc) {
                        st.vc.join(wv);
                    }
                }
            }
            Event::RequestRetry {
                req, domain, proc, ..
            }
            | Event::RequestDone {
                req, domain, proc, ..
            } => {
                // Release the worker's program order and feed the drain
                // barrier; a retry (or failure) also releases onto the
                // domain channel (the requeue happens-before the next
                // attempt's pop).
                if let Some(st) = states.get_mut(&req_uid(*req)) {
                    worker_vcs.insert(*proc, st.vc.clone());
                    drain_join.join(&st.vc);
                    if !matches!(ev, Event::RequestDone { ok: true, .. }) {
                        token_vcs
                            .entry(domain_token(*domain))
                            .or_default()
                            .join(&st.vc);
                    }
                    st.bump();
                }
            }
            Event::RequestDrain { .. } => {
                // Barrier: the drainer happens-after every outcome so far.
                if let Some(root) = states.get_mut(&TaskUid::ROOT) {
                    root.vc.join(&drain_join);
                    root.bump();
                }
            }
            _ => {}
        }
    }
    out
}

#[allow(clippy::too_many_arguments)]
fn report(
    out: &mut RaceReport,
    reported: &mut HashSet<(u64, String, &'static str, String, &'static str)>,
    labels: &HashMap<TaskUid, &'static str>,
    block: u64,
    r: &Record,
    task: TaskUid,
    kind: AccessKind,
    addr: u64,
    len: u64,
    time: u64,
) {
    let name = |t: TaskUid| -> String {
        labels
            .get(&t)
            .map(|l| (*l).to_string())
            .unwrap_or_else(|| t.to_string())
    };
    // Unordered pair: which side came first is schedule detail, not a
    // distinct race.
    let mut a = (name(r.task), r.kind.label());
    let mut b = (name(task), kind.label());
    if b < a {
        std::mem::swap(&mut a, &mut b);
    }
    let key = (block, a.0, a.1, b.0, b.1);
    if !reported.insert(key) || out.races.len() >= MAX_RACES {
        return;
    }
    out.races.push(Race {
        block,
        first: AccessInfo {
            task: r.task,
            label: labels.get(&r.task).copied(),
            kind: r.kind,
            addr: r.addr,
            len: r.len,
            time: r.time,
        },
        second: AccessInfo {
            task,
            label: labels.get(&task).copied(),
            kind,
            addr,
            len,
            time,
        },
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use cool_core::ProcId;

    fn spawn(parent: Option<u64>, child: u64) -> Event {
        Event::Spawn {
            parent: parent.map(TaskUid),
            child: TaskUid(child),
            label: None,
            object: None,
            target: ProcId(0),
            time: 0,
        }
    }

    fn access(task: u64, addr: u64, len: u64, kind: AccessKind) -> Event {
        Event::Access {
            task: TaskUid(task),
            obj: ObjRef(addr),
            len,
            kind,
            proc: ProcId(0),
            time: 0,
        }
    }

    fn end(task: u64) -> Event {
        Event::TaskEnd {
            task: TaskUid(task),
            proc: ProcId(0),
            mem: None,
            time: 0,
        }
    }

    #[test]
    fn sibling_writes_race() {
        let evs = vec![
            spawn(None, 1),
            spawn(Some(1), 2),
            spawn(Some(1), 3),
            access(2, 0x100, 8, AccessKind::Write),
            access(3, 0x100, 8, AccessKind::Write),
        ];
        let rep = detect_races(&evs);
        assert_eq!(rep.races.len(), 1, "{rep:?}");
    }

    #[test]
    fn spawn_edge_orders_parent_before_child() {
        let evs = vec![
            spawn(None, 1),
            access(1, 0x100, 8, AccessKind::Write),
            spawn(Some(1), 2),
            access(2, 0x100, 8, AccessKind::Write),
        ];
        assert!(detect_races(&evs).races.is_empty());
    }

    #[test]
    fn parent_write_after_spawn_races_with_child() {
        let evs = vec![
            spawn(None, 1),
            spawn(Some(1), 2),
            access(1, 0x100, 8, AccessKind::Write),
            access(2, 0x100, 8, AccessKind::Write),
        ];
        assert_eq!(detect_races(&evs).races.len(), 1);
    }

    #[test]
    fn phase_barrier_orders_phases() {
        let evs = vec![
            Event::PhaseBegin { seq: 1 },
            spawn(None, 1),
            access(1, 0x100, 8, AccessKind::Write),
            end(1),
            Event::PhaseEnd { seq: 1 },
            Event::PhaseBegin { seq: 2 },
            spawn(None, 2),
            access(2, 0x100, 8, AccessKind::Write),
            end(2),
            Event::PhaseEnd { seq: 2 },
        ];
        assert!(detect_races(&evs).races.is_empty());
    }

    #[test]
    fn mutex_chain_orders_critical_sections() {
        let lock = ObjRef(0x900);
        let evs = vec![
            spawn(None, 1),
            spawn(Some(1), 2),
            spawn(Some(1), 3),
            Event::MutexAcquire { task: TaskUid(2), lock, time: 0 },
            access(2, 0x100, 8, AccessKind::Write),
            Event::MutexRelease { task: TaskUid(2), lock, time: 1 },
            Event::MutexAcquire { task: TaskUid(3), lock, time: 2 },
            access(3, 0x100, 8, AccessKind::Write),
            Event::MutexRelease { task: TaskUid(3), lock, time: 3 },
        ];
        assert!(detect_races(&evs).races.is_empty());
    }

    #[test]
    fn different_locks_do_not_order() {
        let evs = vec![
            spawn(None, 1),
            spawn(Some(1), 2),
            spawn(Some(1), 3),
            Event::MutexAcquire { task: TaskUid(2), lock: ObjRef(0x900), time: 0 },
            access(2, 0x100, 8, AccessKind::Write),
            Event::MutexRelease { task: TaskUid(2), lock: ObjRef(0x900), time: 1 },
            Event::MutexAcquire { task: TaskUid(3), lock: ObjRef(0x980), time: 2 },
            access(3, 0x100, 8, AccessKind::Write),
            Event::MutexRelease { task: TaskUid(3), lock: ObjRef(0x980), time: 3 },
        ];
        assert_eq!(detect_races(&evs).races.len(), 1);
    }

    #[test]
    fn sync_token_orders_release_acquire() {
        let tok = ObjRef(0xA00);
        let evs = vec![
            spawn(None, 1),
            spawn(Some(1), 2),
            spawn(Some(1), 3),
            access(2, 0x100, 8, AccessKind::Write),
            Event::Sync { task: TaskUid(2), token: tok, time: 1 },
            Event::Sync { task: TaskUid(3), token: tok, time: 2 },
            access(3, 0x100, 8, AccessKind::Write),
        ];
        assert!(detect_races(&evs).races.is_empty());
    }

    #[test]
    fn non_overlapping_bytes_in_one_block_do_not_race() {
        // False sharing: same 64-byte block, disjoint bytes.
        let evs = vec![
            spawn(None, 1),
            spawn(Some(1), 2),
            spawn(Some(1), 3),
            access(2, 0x100, 8, AccessKind::Write),
            access(3, 0x108, 8, AccessKind::Write),
        ];
        assert!(detect_races(&evs).races.is_empty());
    }

    #[test]
    fn reads_do_not_race_with_reads() {
        let evs = vec![
            spawn(None, 1),
            spawn(Some(1), 2),
            spawn(Some(1), 3),
            access(2, 0x100, 8, AccessKind::Read),
            access(3, 0x100, 8, AccessKind::Read),
        ];
        assert!(detect_races(&evs).races.is_empty());
    }

    #[test]
    fn atomics_do_not_race_with_atomics_but_do_with_plain() {
        let evs = vec![
            spawn(None, 1),
            spawn(Some(1), 2),
            spawn(Some(1), 3),
            access(2, 0x100, 8, AccessKind::AtomicWrite),
            access(3, 0x100, 8, AccessKind::AtomicRead),
        ];
        assert!(detect_races(&evs).races.is_empty());
        let evs = vec![
            spawn(None, 1),
            spawn(Some(1), 2),
            spawn(Some(1), 3),
            access(2, 0x100, 8, AccessKind::AtomicWrite),
            access(3, 0x100, 8, AccessKind::Read),
        ];
        assert_eq!(detect_races(&evs).races.len(), 1);
    }

    #[test]
    fn spanning_access_races_in_every_block_but_reports_once_per_block() {
        let evs = vec![
            spawn(None, 1),
            spawn(Some(1), 2),
            spawn(Some(1), 3),
            access(2, 0x100, 128, AccessKind::Write),
            access(3, 0x100, 128, AccessKind::Write),
        ];
        let rep = detect_races(&evs);
        assert_eq!(rep.races.len(), 2, "one per 64-byte block");
    }

    /// The task id request `id`'s accesses are attributed to.
    fn req(id: u64) -> u64 {
        req_uid(id).0
    }

    fn admit(req: u64, domain: usize) -> Event {
        Event::RequestAdmit {
            req,
            domain,
            depth: 0,
            time: 0,
        }
    }

    fn attempt(req: u64, n: u32, domain: usize, proc: usize) -> Event {
        Event::RequestAttempt {
            req,
            attempt: n,
            domain,
            proc: ProcId(proc),
            time: 0,
        }
    }

    /// Attempt `n` finished: terminal when `ok`, else a retry.
    fn outcome(req: u64, n: u32, ok: bool, domain: usize, proc: usize) -> Event {
        if ok {
            Event::RequestDone {
                req,
                attempts: n,
                ok,
                latency_ns: 0,
                domain,
                proc: ProcId(proc),
                time: 0,
            }
        } else {
            Event::RequestRetry {
                req,
                attempt: n - 1,
                backoff_ns: 0,
                domain,
                proc: ProcId(proc),
                time: 0,
            }
        }
    }

    #[test]
    fn admit_orders_submitter_before_attempt() {
        let evs = vec![
            access(0, 0x100, 8, AccessKind::Write), // root prepares the request
            admit(10, 0),
            attempt(10, 1, 0, 0),
            access(req(10), 0x100, 8, AccessKind::Write),
        ];
        assert!(detect_races(&evs).races.is_empty());
    }

    #[test]
    fn concurrent_requests_on_distinct_workers_race() {
        let evs = vec![
            admit(10, 0),
            admit(11, 1),
            attempt(10, 1, 0, 0),
            attempt(11, 1, 1, 1),
            access(req(10), 0x100, 8, AccessKind::Write),
            access(req(11), 0x100, 8, AccessKind::Write),
        ];
        assert_eq!(detect_races(&evs).races.len(), 1);
    }

    #[test]
    fn retry_requeue_releases_onto_the_domain_channel() {
        // Request 10's attempt 1 (worker 0) fails; the requeue releases
        // onto the domain channel, so request 11's attempt — which pops the
        // same channel on another worker — is ordered after 10's access.
        let evs = vec![
            admit(10, 0),
            admit(11, 0),
            attempt(10, 1, 0, 0),
            access(req(10), 0x100, 8, AccessKind::Write),
            outcome(10, 1, false, 0, 0),
            attempt(11, 1, 0, 1),
            access(req(11), 0x100, 8, AccessKind::Write),
            outcome(11, 1, true, 0, 1),
        ];
        assert!(detect_races(&evs).races.is_empty());
    }

    #[test]
    fn successful_outcome_does_not_release_onto_the_channel() {
        // Same shape but attempt 1 *succeeds*: no requeue, so the channel
        // carries only the admits and the two accesses race.
        let evs = vec![
            admit(10, 0),
            admit(11, 0),
            attempt(10, 1, 0, 0),
            access(req(10), 0x100, 8, AccessKind::Write),
            outcome(10, 1, true, 0, 0),
            attempt(11, 1, 0, 1),
            access(req(11), 0x100, 8, AccessKind::Write),
            outcome(11, 1, true, 0, 1),
        ];
        assert_eq!(detect_races(&evs).races.len(), 1);
    }

    #[test]
    fn worker_program_order_serializes_its_requests() {
        // Two independent requests run back-to-back on one worker: the
        // second acquires the worker clock released by the first's outcome.
        let evs = vec![
            admit(10, 0),
            admit(11, 1),
            attempt(10, 1, 0, 0),
            access(req(10), 0x100, 8, AccessKind::Write),
            outcome(10, 1, true, 0, 0),
            attempt(11, 1, 1, 0),
            access(req(11), 0x100, 8, AccessKind::Write),
            outcome(11, 1, true, 1, 0),
        ];
        assert!(detect_races(&evs).races.is_empty());
    }

    #[test]
    fn drain_barrier_orders_outcomes_before_root() {
        let evs = vec![
            admit(10, 0),
            attempt(10, 1, 0, 0),
            access(req(10), 0x100, 8, AccessKind::Write),
            outcome(10, 1, true, 0, 0),
            Event::RequestDrain { time: 1 },
            access(0, 0x100, 8, AccessKind::Write), // root reads results
        ];
        assert!(detect_races(&evs).races.is_empty());
    }

    #[test]
    fn root_access_without_drain_races_with_request() {
        let evs = vec![
            admit(10, 0),
            attempt(10, 1, 0, 0),
            access(req(10), 0x100, 8, AccessKind::Write),
            outcome(10, 1, true, 0, 0),
            access(0, 0x100, 8, AccessKind::Write), // no drain first
        ];
        assert_eq!(detect_races(&evs).races.len(), 1);
    }

    #[test]
    fn duplicate_pairs_are_deduplicated() {
        let mut evs = vec![spawn(None, 1), spawn(Some(1), 2), spawn(Some(1), 3)];
        for _ in 0..10 {
            evs.push(access(2, 0x100, 8, AccessKind::Write));
            evs.push(access(3, 0x100, 8, AccessKind::Write));
        }
        let rep = detect_races(&evs);
        assert_eq!(rep.races.len(), 1);
        assert!(rep.raw_conflicts >= 10);
    }
}
