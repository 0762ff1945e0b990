//! Virtual-scheduler abstraction for model checking.
//!
//! The concurrent machinery in this workspace — the serve admission /
//! retry / drain state machine in `cool-rt` and the affinity
//! [`ServerQueues`] steal structure here — normally runs under real
//! threads, where the schedule is whatever the OS produces. This module
//! lifts those state machines onto *explicit decision points*: a
//! [`VirtualProgram`] exposes the set of enabled operations in the
//! current state, applies one at a time, and checks its invariants after
//! every transition. An explorer (see `cool-analyze`'s `check` module)
//! can then enumerate every interleaving of a bounded configuration —
//! with sleep-set partial-order reduction — instead of sampling a few
//! random ones.
//!
//! Two programs live in the workspace:
//!
//! * [`QueueMachine`] (here) — `K` servers pushing, popping and stealing
//!   over the *real* [`ServerQueues`] structure with the *shipped* steal
//!   scan ([`StealPolicy::scan`]), asserting structural integrity, task
//!   conservation and the locality ceiling on every step;
//! * `ServeMachine` (in `cool-rt::vserve`) — scripted clients, domain
//!   queues and a drain over the work server's *shipped* request books,
//!   whose `admit`/`start`/`settle` decide admission, dedup, retries and
//!   terminal outcomes, on logical time.
//!
//! Both support *seeded defects*: deliberately broken variants of one
//! transition rule, used by tests to prove the explorer's invariants
//! actually fire.

use crate::affinity::AffinityKind;
use crate::ids::{ObjRef, ProcId};
use crate::policy::{StealPolicy, Topology, VictimOrders};
use crate::queues::ServerQueues;
use crate::stats::SchedStats;
use std::collections::VecDeque;

/// A deterministic, explorable concurrent program.
///
/// Implementations are small bounded state machines: `enabled` lists the
/// operations runnable in the current state (in a deterministic order),
/// `step` applies one, and `check` validates the program's invariants
/// after each transition. States are cloned by the explorer at every
/// branch point, so keep them compact.
pub trait VirtualProgram: Clone {
    /// One atomic operation at a scheduling decision point.
    type Op: Copy + PartialEq + Eq + std::fmt::Debug;

    /// Operations enabled in the current state, in deterministic order.
    ///
    /// An empty result means the program has terminated (the explorer
    /// then runs [`VirtualProgram::check_terminal`]).
    fn enabled(&self) -> Vec<Self::Op>;

    /// Apply one operation previously returned by [`VirtualProgram::enabled`].
    fn step(&mut self, op: Self::Op);

    /// Invariants that must hold in every reachable state.
    ///
    /// `Err` names the violated invariant; the explorer records it with
    /// the schedule that reached it.
    fn check(&self) -> Result<(), String>;

    /// Invariants that must hold in terminal states only (e.g. "nothing
    /// was lost once all work has been drained").
    fn check_terminal(&self) -> Result<(), String> {
        Ok(())
    }

    /// Whether two operations are *dependent* (their order can matter).
    ///
    /// Used by the sleep-set pruner: independent operations commute, so
    /// exploring both orders is redundant. This must over-approximate —
    /// when unsure, return `true`; claiming independence for dependent
    /// ops makes the exploration unsound.
    fn dependent(&self, a: Self::Op, b: Self::Op) -> bool;

    /// Stable fingerprint of the current state, for distinct-state
    /// counting in reports. Must be deterministic across runs.
    fn state_key(&self) -> u64;
}

/// Deterministic FNV-1a hash, used by [`VirtualProgram::state_key`]
/// implementations so reports are byte-stable across runs and hosts.
pub fn stable_hash(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A scripted push a server will perform in the [`QueueMachine`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct PushSpec {
    /// Task identity (must be unique within a scenario, and < 64 so the
    /// machine can track execution with a bitmask).
    pub id: u32,
    /// Affinity token, or `None` for the default FIFO queue.
    pub token: Option<ObjRef>,
    /// Affinity classification the task is queued with.
    pub kind: AffinityKind,
}

/// Seeded defects for the [`QueueMachine`] — each breaks exactly one
/// transition rule so tests can prove the corresponding invariant fires.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum QueueDefect {
    /// Correct behaviour.
    None,
    /// Drop the last task of every stolen batch on the floor before
    /// handing it to the thief (models the pre-PR-5 steal collision).
    /// Caught by the task-conservation invariant.
    LoseOnSteal,
    /// Duplicate the first task of every stolen batch. Caught by the
    /// exactly-once execution invariant.
    DupOnSteal,
    /// Scan as if the policy had no locality ceiling (`cluster_only` and
    /// `steal_radius` off). Caught by the steal-ceiling invariant.
    StealPastCeiling,
}

/// One scheduling operation of the [`QueueMachine`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum QueueOp {
    /// Server `server` performs its next scripted push.
    Push {
        /// Acting server.
        server: usize,
    },
    /// Server `server` pops and executes one local task.
    Pop {
        /// Acting server.
        server: usize,
    },
    /// Idle server `thief` runs one steal scan ([`StealPolicy::scan`]) over
    /// its victim order and enqueues what it takes, if anything.
    Steal {
        /// The stealing server (must be locally idle).
        thief: usize,
    },
}

/// A bounded multi-server push/pop/steal program over the real
/// [`ServerQueues`] structure and the shipped steal scan.
///
/// Each server owns a `ServerQueues<u32>` (payloads are task ids) and a
/// script of pushes it will perform; a server whose local queues are
/// empty and whose script is exhausted may run a steal scan
/// ([`StealPolicy::scan`], as both runtimes do) while another server has
/// queued work. A scan is one transition, whether it takes a batch or
/// finds nothing. Invariants checked on every transition:
///
/// * every queue's internal structure is intact
///   ([`ServerQueues::check_invariants`]);
/// * task conservation — `pushed == executed + queued` at all times;
/// * exactly-once execution — no task id is ever popped twice;
/// * steal ceiling — no steal crosses the policy's strict locality
///   boundary (`cluster_only`, `steal_radius`).
///
/// Terminal states additionally require that every pushed task was
/// executed (nothing stranded, nothing lost).
#[derive(Clone, Debug)]
pub struct QueueMachine {
    queues: Vec<ServerQueues<u32>>,
    scripts: Vec<VecDeque<PushSpec>>,
    topology: Topology,
    /// Every server's victim order on `topology`, built once.
    victims: VictimOrders,
    policy: StealPolicy,
    /// Consecutive failed scans per server.
    failed_scans: Vec<usize>,
    executed: Vec<u32>,
    executed_mask: u64,
    pushed: usize,
    double_exec: Option<u32>,
    /// First steal that crossed the strict locality boundary, as
    /// `(thief, victim)`.
    past_ceiling: Option<(usize, usize)>,
    defect: QueueDefect,
    /// Scans remaining, failed or not: two per server. Idle servers could
    /// otherwise ping-pong a batch, or keep failing scans, forever.
    steal_budget: u32,
}

impl QueueMachine {
    /// Build a machine with one queue of `array_size` affinity slots per
    /// script entry on `topology`, stealing under `policy`; `scripts[s]` is
    /// the ordered pushes server `s` will perform.
    pub fn new(
        array_size: usize,
        topology: Topology,
        policy: StealPolicy,
        scripts: Vec<Vec<PushSpec>>,
        defect: QueueDefect,
    ) -> Self {
        let n = scripts.len();
        assert_eq!(topology.nservers, n, "one script per server");
        QueueMachine {
            queues: (0..n).map(|_| ServerQueues::new(array_size)).collect(),
            scripts: scripts.into_iter().map(VecDeque::from).collect(),
            victims: topology.victim_orders(),
            topology,
            policy,
            failed_scans: vec![0; n],
            executed: Vec::new(),
            executed_mask: 0,
            pushed: 0,
            double_exec: None,
            past_ceiling: None,
            defect,
            steal_budget: 2 * n as u32,
        }
    }

    /// Task ids in the order they were executed, for post-hoc assertions.
    pub fn executed(&self) -> &[u32] {
        &self.executed
    }

    fn record_exec(&mut self, id: u32) {
        let bit = 1u64 << (id as u64 % 64);
        if self.executed_mask & bit != 0 && self.double_exec.is_none() {
            self.double_exec = Some(id);
        }
        self.executed_mask |= bit;
        self.executed.push(id);
    }
}

impl VirtualProgram for QueueMachine {
    type Op = QueueOp;

    fn enabled(&self) -> Vec<QueueOp> {
        let mut ops = Vec::new();
        for s in 0..self.queues.len() {
            if !self.scripts[s].is_empty() {
                ops.push(QueueOp::Push { server: s });
            }
            if !self.queues[s].is_empty() {
                ops.push(QueueOp::Pop { server: s });
            }
        }
        // A server scans only when it is locally idle (queue empty and
        // script exhausted) and some other server has queued work,
        // mirroring the runtimes' idle-steal loops.
        if self.steal_budget == 0 || !self.policy.enabled {
            return ops;
        }
        for thief in 0..self.queues.len() {
            let idle = self.queues[thief].is_empty() && self.scripts[thief].is_empty();
            if idle && self.queues.iter().any(|q| !q.is_empty()) {
                ops.push(QueueOp::Steal { thief });
            }
        }
        ops
    }

    fn step(&mut self, op: QueueOp) {
        match op {
            QueueOp::Push { server } => {
                let spec = self.scripts[server].pop_front().expect("push enabled");
                match spec.token {
                    Some(tok) => {
                        self.queues[server].push_affinity(tok, spec.kind, spec.id);
                    }
                    None => self.queues[server].push_default(spec.kind, spec.id),
                }
                self.pushed += 1;
            }
            QueueOp::Pop { server } => {
                let (_, id) = self.queues[server].pop_local().expect("pop enabled");
                self.record_exec(id);
            }
            QueueOp::Steal { thief } => {
                self.steal_budget = self.steal_budget.checked_sub(1).expect("steal enabled");
                let policy = match self.defect {
                    QueueDefect::StealPastCeiling => StealPolicy {
                        cluster_only: false,
                        steal_radius: None,
                        ..self.policy
                    },
                    _ => self.policy,
                };
                let mut stats = SchedStats::default();
                let queues = &mut self.queues;
                let scan = policy
                    .scan(
                        &self.topology,
                        self.victims.order(ProcId(thief)),
                        &mut self.failed_scans[thief],
                        None,
                        || &mut stats,
                        |v, avoid, whole| queues[v.index()].steal_with(avoid, whole),
                    )
                    .expect("steal enabled");
                let Some((victim, mut batch)) = scan.stolen else {
                    return;
                };
                let boundary = self.policy.allowed_level(&self.topology, usize::MAX);
                if self.topology.common_level(ProcId(thief), victim) > boundary {
                    self.past_ceiling.get_or_insert((thief, victim.index()));
                }
                match self.defect {
                    QueueDefect::LoseOnSteal => {
                        batch.tasks.pop();
                    }
                    QueueDefect::DupOnSteal => {
                        if let Some(&first) = batch.tasks.first() {
                            batch.tasks.push(first);
                        }
                    }
                    QueueDefect::None | QueueDefect::StealPastCeiling => {}
                }
                if !batch.tasks.is_empty() {
                    self.queues[thief].push_stolen(batch);
                }
            }
        }
    }

    fn check(&self) -> Result<(), String> {
        for (s, q) in self.queues.iter().enumerate() {
            q.check_invariants()
                .map_err(|e| format!("queue structure (server {s}): {e}"))?;
        }
        if let Some(id) = self.double_exec {
            return Err(format!("exactly-once execution: task {id} executed twice"));
        }
        if let Some((thief, victim)) = self.past_ceiling {
            return Err(format!(
                "steal ceiling: server {thief} stole from server {victim} past the locality boundary"
            ));
        }
        let queued: usize = self.queues.iter().map(|q| q.len()).sum();
        if queued + self.executed.len() != self.pushed {
            return Err(format!(
                "task conservation: pushed {} != queued {} + executed {}",
                self.pushed,
                queued,
                self.executed.len()
            ));
        }
        Ok(())
    }

    fn check_terminal(&self) -> Result<(), String> {
        let total: usize = self.pushed;
        if self.executed.len() != total {
            return Err(format!(
                "termination: {} of {} pushed tasks executed",
                self.executed.len(),
                total
            ));
        }
        Ok(())
    }

    fn dependent(&self, a: QueueOp, b: QueueOp) -> bool {
        if self.defect != QueueDefect::None {
            // Defective machines get full exploration: pruning assumes
            // the independence argument below, which a seeded defect may
            // invalidate.
            return true;
        }
        match (a, b) {
            (
                QueueOp::Push { server: x } | QueueOp::Pop { server: x },
                QueueOp::Push { server: y } | QueueOp::Pop { server: y },
            ) => x == y,
            // A scan reads every server's queue, so it is dependent with
            // every op on any server.
            _ => true,
        }
    }

    fn state_key(&self) -> u64 {
        // The Debug rendering covers queue contents (slot order, tokens,
        // payloads), remaining scripts, the execution log, each server's
        // failed scans and the steal budget — a faithful state fingerprint,
        // and deterministic.
        stable_hash(
            format!(
                "{:?}{:?}{:?}{:?}{}",
                self.queues, self.scripts, self.executed, self.failed_scans, self.steal_budget
            )
            .as_bytes(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(id: u32, tok: Option<u64>, kind: AffinityKind) -> PushSpec {
        PushSpec {
            id,
            token: tok.map(ObjRef),
            kind,
        }
    }

    /// A machine on the runtimes' defaults: a flat topology and the
    /// default steal policy.
    fn flat(scripts: Vec<Vec<PushSpec>>, defect: QueueDefect) -> QueueMachine {
        let topo = Topology::flat(scripts.len());
        QueueMachine::new(4, topo, StealPolicy::default(), scripts, defect)
    }

    fn run_serial(mut m: QueueMachine) -> QueueMachine {
        loop {
            let ops = m.enabled();
            match ops.first() {
                Some(&op) => {
                    m.step(op);
                    m.check().unwrap();
                }
                None => break,
            }
        }
        m.check_terminal().unwrap();
        m
    }

    #[test]
    fn serial_run_executes_everything_exactly_once() {
        let m = flat(
            vec![
                vec![
                    spec(0, Some(7), AffinityKind::Task),
                    spec(1, Some(7), AffinityKind::Task),
                    spec(2, None, AffinityKind::None),
                ],
                vec![spec(3, Some(9), AffinityKind::Object)],
            ],
            QueueDefect::None,
        );
        let m = run_serial(m);
        assert_eq!(m.executed().len(), 4);
    }

    #[test]
    fn steal_path_conserves_tasks() {
        // Server 1 has no script: it must steal server 0's set.
        let mut m = flat(
            vec![
                vec![
                    spec(0, Some(7), AffinityKind::Task),
                    spec(1, Some(7), AffinityKind::Task),
                ],
                vec![],
            ],
            QueueDefect::None,
        );
        m.step(QueueOp::Push { server: 0 });
        m.step(QueueOp::Push { server: 0 });
        m.check().unwrap();
        m.step(QueueOp::Steal { thief: 1 });
        m.check().unwrap();
        m.step(QueueOp::Pop { server: 1 });
        m.step(QueueOp::Pop { server: 1 });
        m.check().unwrap();
        m.check_terminal().unwrap();
        assert_eq!(m.executed(), &[0, 1]);
    }

    #[test]
    fn lose_on_steal_defect_breaks_conservation() {
        let mut m = flat(
            vec![vec![spec(0, Some(7), AffinityKind::Task)], vec![]],
            QueueDefect::LoseOnSteal,
        );
        m.step(QueueOp::Push { server: 0 });
        m.step(QueueOp::Steal { thief: 1 });
        let err = m.check().unwrap_err();
        assert!(err.contains("conservation"), "unexpected error: {err}");
    }

    #[test]
    fn dup_on_steal_defect_breaks_exactly_once() {
        let mut m = flat(
            vec![vec![spec(0, Some(7), AffinityKind::Task)], vec![]],
            QueueDefect::DupOnSteal,
        );
        m.step(QueueOp::Push { server: 0 });
        m.step(QueueOp::Steal { thief: 1 });
        m.step(QueueOp::Pop { server: 1 });
        m.step(QueueOp::Pop { server: 1 });
        let err = m.check().unwrap_err();
        assert!(err.contains("exactly-once"), "unexpected error: {err}");
    }

    #[test]
    fn state_key_is_deterministic_and_distinguishes_states() {
        let m1 = flat(
            vec![vec![spec(0, None, AffinityKind::None)]],
            QueueDefect::None,
        );
        let mut m2 = m1.clone();
        assert_eq!(m1.state_key(), m2.state_key());
        m2.step(QueueOp::Push { server: 0 });
        assert_ne!(m1.state_key(), m2.state_key());
    }

    #[test]
    fn object_affinity_work_waits_for_the_desperation_threshold() {
        // Server 0's only task prefers home: server 1's first
        // `last_resort_after` scans fail, the next one takes it.
        let mut m = flat(
            vec![vec![spec(0, Some(7), AffinityKind::Object)], vec![], vec![]],
            QueueDefect::None,
        );
        m.step(QueueOp::Push { server: 0 });
        for _ in 0..StealPolicy::default().last_resort_after {
            m.step(QueueOp::Steal { thief: 1 });
            assert_eq!(m.queues[1].len(), 0);
        }
        m.step(QueueOp::Steal { thief: 1 });
        assert_eq!(m.queues[1].len(), 1);
        assert_eq!(m.failed_scans, [0, 0, 0]);
        m.check().unwrap();
    }

    fn cluster_machine(defect: QueueDefect) -> QueueMachine {
        // Two clusters of two; server 2's only loaded victim is server 0,
        // in the other cluster.
        QueueMachine::new(
            4,
            Topology::clustered(4, 2),
            StealPolicy::cluster_only(),
            vec![
                vec![spec(0, None, AffinityKind::None)],
                vec![],
                vec![],
                vec![],
            ],
            defect,
        )
    }

    #[test]
    fn cluster_only_scan_holds_the_ceiling() {
        let mut m = cluster_machine(QueueDefect::None);
        m.step(QueueOp::Push { server: 0 });
        assert!(m.enabled().contains(&QueueOp::Steal { thief: 2 }));
        m.step(QueueOp::Steal { thief: 2 });
        assert_eq!(m.failed_scans[2], 1);
        m.check().unwrap();
        m.step(QueueOp::Pop { server: 0 });
        assert!(m.enabled().is_empty());
        m.check_terminal().unwrap();
    }

    #[test]
    fn steal_past_ceiling_defect_breaks_the_ceiling() {
        let mut m = cluster_machine(QueueDefect::StealPastCeiling);
        m.step(QueueOp::Push { server: 0 });
        m.step(QueueOp::Steal { thief: 2 });
        let err = m.check().unwrap_err();
        assert!(err.contains("steal ceiling"), "unexpected error: {err}");
    }
}
