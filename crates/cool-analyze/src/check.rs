//! cool-check: exhaustive schedule exploration with sleep-set (DPOR)
//! pruning over the runtime's virtual state machines.
//!
//! The runtime's concurrency-bearing state machines — the serve admission/
//! retry/drain pipeline ([`ServeMachine`](cool_rt::ServeMachine)) and the
//! affinity queue + steal protocol
//! ([`QueueMachine`](cool_core::QueueMachine)) — implement
//! [`VirtualProgram`]: explicit decision points
//! (`enabled`), deterministic transitions (`step`), and per-state
//! invariants (`check`). This module replays them over **every**
//! interleaving up to the scenario bound, in two modes:
//!
//! * **naive** — plain depth-first enumeration of all schedules; the
//!   denominator that proves pruning happened;
//! * **sleep-set DPOR** — classic sleep sets (Godefroid): when a node
//!   explores ops `o1, o2, …` in order, the subtree under `o2` need not
//!   re-explore `o1` first unless some op dependent with `o1` intervenes.
//!   Each child inherits `{s ∈ sleep ∪ explored-before : independent(s,
//!   op)}` and ops found sleeping are pruned. Independence comes from the
//!   machine's own `dependent` over-approximation, so pruned schedules are
//!   equivalent (Mazurkiewicz-trace) to an explored one and the invariant
//!   coverage is unchanged.
//!
//! Every reached state is checked; terminal states additionally pass
//! `check_terminal` (drain accounting, lost-work detection). A violation
//! records the full op trace that reached it, so seeded-defect tests can
//! assert not just *that* a defect fires but *where*.

use std::collections::HashSet;

use cool_core::VirtualProgram;

/// Exploration bounds: a hard cap on transitions so a mis-sized scenario
/// fails loudly instead of running away.
pub const MAX_TRANSITIONS: u64 = 20_000_000;

/// One invariant violation found on some schedule.
#[derive(Clone, Debug)]
pub struct ScheduleViolation {
    /// The invariant's error message.
    pub message: String,
    /// The op trace (debug-formatted) that reached the violating state.
    pub trace: Vec<String>,
    /// Whether the violation fired at a terminal state (`check_terminal`)
    /// rather than mid-schedule.
    pub terminal: bool,
}

/// Statistics of one exploration pass.
#[derive(Clone, Debug, Default)]
pub struct ExploreStats {
    /// Complete schedules executed to a terminal state.
    pub schedules: u64,
    /// Transitions stepped.
    pub transitions: u64,
    /// Distinct state keys encountered (informational; states are *not*
    /// deduplicated — sleep sets alone stay sound without covering sets).
    pub states: u64,
    /// Invariant evaluations (one `check` per reached state plus one
    /// `check_terminal` per completed schedule).
    pub invariant_checks: u64,
    /// Ops skipped because they were in the sleep set (0 in naive mode).
    pub sleep_pruned: u64,
    /// Violations found (first [`MAX_VIOLATIONS`] stored).
    pub violations: Vec<ScheduleViolation>,
    /// Total violations including ones past the storage cap.
    pub violation_count: u64,
}

/// Cap on stored violation traces.
pub const MAX_VIOLATIONS: usize = 8;

impl ExploreStats {
    fn record(&mut self, message: String, trace: &[String], terminal: bool) {
        self.violation_count += 1;
        if self.violations.len() < MAX_VIOLATIONS {
            self.violations.push(ScheduleViolation {
                message,
                trace: trace.to_vec(),
                terminal,
            });
        }
    }
}

/// Explore every schedule of `program` from its initial state. With
/// `use_sleep` the sleep-set reduction prunes interleavings that are
/// Mazurkiewicz-equivalent to explored ones; without it the full tree is
/// enumerated (the "naive" denominator). Deterministic: `enabled` order
/// fixes the DFS order, so all counts are byte-stable.
pub fn explore<P: VirtualProgram + Clone>(program: &P, use_sleep: bool) -> ExploreStats {
    let mut stats = ExploreStats::default();
    let mut seen_keys: HashSet<u64> = HashSet::new();
    let mut trace: Vec<String> = Vec::new();
    dfs(
        program,
        &Vec::new(),
        use_sleep,
        &mut stats,
        &mut seen_keys,
        &mut trace,
    );
    stats.states = seen_keys.len() as u64;
    stats
}

fn dfs<P: VirtualProgram + Clone>(
    state: &P,
    sleep: &[P::Op],
    use_sleep: bool,
    stats: &mut ExploreStats,
    seen_keys: &mut HashSet<u64>,
    trace: &mut Vec<String>,
) {
    assert!(
        stats.transitions <= MAX_TRANSITIONS,
        "exploration exceeded {MAX_TRANSITIONS} transitions; shrink the scenario"
    );
    seen_keys.insert(state.state_key());
    stats.invariant_checks += 1;
    if let Err(msg) = state.check() {
        // A violated state: record and prune (its successors would only
        // re-report the same broken invariant).
        stats.record(msg, trace, false);
        return;
    }
    let ops = state.enabled();
    if ops.is_empty() {
        stats.schedules += 1;
        stats.invariant_checks += 1;
        if let Err(msg) = state.check_terminal() {
            stats.record(msg, trace, true);
        }
        return;
    }
    let mut explored: Vec<P::Op> = Vec::new();
    for op in ops {
        if use_sleep && sleep.contains(&op) {
            stats.sleep_pruned += 1;
            continue;
        }
        // Child sleep set: everything sleeping here or already explored at
        // this node stays asleep below `op` unless `op` depends on it.
        let child_sleep: Vec<P::Op> = if use_sleep {
            sleep
                .iter()
                .chain(explored.iter())
                .filter(|s| !state.dependent(**s, op))
                .copied()
                .collect()
        } else {
            Vec::new()
        };
        let mut next = state.clone();
        next.step(op);
        stats.transitions += 1;
        trace.push(format!("{op:?}"));
        dfs(&next, &child_sleep, use_sleep, stats, seen_keys, trace);
        trace.pop();
        explored.push(op);
    }
}

/// Run both modes over one scenario and package the comparison: the DPOR
/// pass must find the same violations while executing strictly fewer
/// schedules (on any scenario with at least one independent op pair).
#[derive(Clone, Debug)]
pub struct ScenarioResult {
    /// Scenario label (stable; keys the report).
    pub name: String,
    /// Full-enumeration pass.
    pub naive: ExploreStats,
    /// Sleep-set pass.
    pub dpor: ExploreStats,
}

impl ScenarioResult {
    /// Schedules the reduction avoided executing.
    pub fn pruned(&self) -> u64 {
        self.naive.schedules.saturating_sub(self.dpor.schedules)
    }
}

/// Explore `program` both ways under `name`.
pub fn run_scenario<P: VirtualProgram + Clone>(name: &str, program: &P) -> ScenarioResult {
    ScenarioResult {
        name: name.to_string(),
        naive: explore(program, false),
        dpor: explore(program, true),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cool_core::{
        AffinityKind, PushSpec, QueueDefect, QueueMachine, StealPolicy, Topology, VirtualProgram,
    };

    fn push(id: u32) -> PushSpec {
        PushSpec {
            id,
            token: None,
            kind: AffinityKind::None,
        }
    }

    fn two_server_machine(defect: QueueDefect) -> QueueMachine {
        QueueMachine::new(
            4,
            Topology::flat(2),
            StealPolicy::default(),
            vec![vec![push(0), push(1)], vec![push(2)]],
            defect,
        )
    }

    #[test]
    fn naive_explores_all_interleavings() {
        let s = explore(&two_server_machine(QueueDefect::None), false);
        assert!(s.schedules > 1, "{s:?}");
        assert_eq!(s.sleep_pruned, 0);
        assert_eq!(s.violation_count, 0);
    }

    #[test]
    fn sleep_sets_prune_but_preserve_soundness() {
        let m = two_server_machine(QueueDefect::None);
        let naive = explore(&m, false);
        let dpor = explore(&m, true);
        assert!(dpor.schedules < naive.schedules, "{naive:?} vs {dpor:?}");
        assert!(dpor.sleep_pruned > 0);
        assert_eq!(dpor.violation_count, 0);
        // Every state the reduced search visits exists in the full search.
        assert!(dpor.states <= naive.states);
    }

    #[test]
    fn exploration_is_deterministic() {
        let m = two_server_machine(QueueDefect::None);
        let a = explore(&m, true);
        let b = explore(&m, true);
        assert_eq!(a.schedules, b.schedules);
        assert_eq!(a.transitions, b.transitions);
        assert_eq!(a.sleep_pruned, b.sleep_pruned);
        assert_eq!(a.states, b.states);
    }

    #[test]
    fn seeded_queue_defects_are_found_in_both_modes() {
        for defect in [QueueDefect::LoseOnSteal, QueueDefect::DupOnSteal] {
            let m = two_server_machine(defect);
            let naive = explore(&m, false);
            let dpor = explore(&m, true);
            assert!(naive.violation_count > 0, "{defect:?} invisible to naive");
            assert!(dpor.violation_count > 0, "{defect:?} pruned away by DPOR");
            let v = &dpor.violations[0];
            assert!(!v.trace.is_empty(), "violation must carry its schedule");
        }
    }

    #[test]
    fn violation_traces_replay_to_the_violation() {
        // The recorded trace is a real schedule: replaying it op by op on a
        // fresh machine reproduces the invariant failure.
        let m = two_server_machine(QueueDefect::LoseOnSteal);
        let dpor = explore(&m, true);
        let v = dpor.violations.first().expect("defect found");
        let mut replay = m.clone();
        let mut failed = false;
        for opname in &v.trace {
            let op = replay
                .enabled()
                .into_iter()
                .find(|o| format!("{o:?}") == *opname)
                .expect("trace op enabled during replay");
            replay.step(op);
            if replay.check().is_err() {
                failed = true;
                break;
            }
        }
        assert!(failed, "replayed schedule must reproduce the violation");
    }
}
