//! Panel Cholesky (Section 6.3): sparse factorization over panels, the
//! paper's centrepiece case study (Figures 12–15).
//!
//! The task structure is Figure 13's:
//!
//! * `CompletePanel(p)` — perform the panel's internal factorization, then
//!   spawn `UpdatePanel(q, p)` for every panel `q` that `p` modifies.
//! * `UpdatePanel(q, p)` — a `parallel mutex` function on the destination
//!   panel: apply `p`'s updates to `q`; when `q` has received all its
//!   updates it becomes *ready* and `CompletePanel(q)` is called.
//!
//! By default, `UpdatePanel` tasks have affinity for the panel they are
//! invoked on (the destination), so they are automatically scheduled to
//! exploit cache reuse and memory locality on it; distributing the panels
//! round-robin distributes both the work and the memory bandwidth demand.
//!
//! Versions (the Figure 14 curves):
//! * `Base` — panels on one memory, tasks round-robin.
//! * `Distr` — panels distributed round-robin (`migrate(panel+p, p)` in
//!   Figure 13's `main`), tasks still round-robin.
//! * `AffinityDistr` — distribution + default object affinity on the
//!   destination panel.
//! * `AffinityDistrCluster` — ditto, with stealing restricted to the cluster
//!   (`Distr+Aff+ClusterStealing`).

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

use cool_core::{AffinitySpec, ObjRef};
use cool_sim::{FaultPlan, SimConfig, SimRuntime, Task, TaskCtx};
use sparse::{CscMatrix, EliminationTree, Factor, PanelDeps, PanelPartition, SymbolicFactor};

use crate::common::{AppReport, RoundRobin, Version};

/// Cycles per non-zero touched in a cmod/cdiv inner loop.
const FLOP_CYCLES: u64 = 4;

/// Panel Cholesky parameters.
#[derive(Clone, Debug)]
pub struct PanelParams {
    /// The SPD input matrix.
    pub matrix: CscMatrix,
    /// Maximum panel width.
    pub max_panel_width: usize,
}

/// Everything derived from the input once (shared across versions so figure
/// sweeps don't redo symbolic analysis).
pub struct PanelProblem {
    /// The matrix to factor.
    pub a: CscMatrix,
    /// Its symbolic factorization (the nonzero structure of `L`).
    pub sym: Arc<SymbolicFactor>,
    /// The columns grouped into panels.
    pub panels: PanelPartition,
    /// Which panels each panel modifies, and how many updates each awaits.
    pub deps: PanelDeps,
}

impl PanelProblem {
    /// Run the symbolic pipeline.
    pub fn analyse(params: &PanelParams) -> Self {
        let e = EliminationTree::new(&params.matrix);
        let sym = Arc::new(SymbolicFactor::new(&params.matrix, &e));
        let panels = PanelPartition::fundamental(&sym, params.max_panel_width);
        let deps = PanelDeps::new(&sym, &panels);
        PanelProblem {
            a: params.matrix.clone(),
            sym,
            panels,
            deps,
        }
    }
}

struct State {
    f: Factor,
    /// Updates each panel still awaits.
    pending: Vec<usize>,
}

/// One full run.
pub fn run(cfg: SimConfig, prob: &PanelProblem, version: Version) -> AppReport {
    run_with_faults(cfg, prob, version, None)
}

/// One full run, optionally perturbed by a deterministic [`FaultPlan`]
/// (stragglers, stalls, transient task failures). Injection moves only the
/// schedule and timing; the factor is unaffected.
pub fn run_with_faults(
    cfg: SimConfig,
    prob: &PanelProblem,
    version: Version,
    faults: Option<FaultPlan>,
) -> AppReport {
    let mut rt = SimRuntime::new(cfg);
    if let Some(plan) = faults {
        rt.set_fault_plan(plan);
    }
    let nprocs = rt.nservers();
    let np = prob.panels.len();

    // One simulated object per panel: its slice of the factor's value array.
    // Base: everything from one memory. Distr: migrate(panel+p, p) — round
    // robin across processors, as in Figure 13's main().
    let panel_objs: Vec<ObjRef> = (0..np)
        .map(|p| {
            let r = prob.panels.range(p);
            let bytes = ((prob.sym.col_ptr()[r.end] - prob.sym.col_ptr()[r.start]) * 8)
                .max(8) as u64;
            if version.distributes() {
                rt.machine_mut().alloc_on_proc(p % nprocs, bytes)
            } else {
                rt.machine_mut().alloc_on_proc(0, bytes)
            }
        })
        .collect();
    let panel_bytes: Vec<u64> = (0..np)
        .map(|p| {
            let r = prob.panels.range(p);
            ((prob.sym.col_ptr()[r.end] - prob.sym.col_ptr()[r.start]) * 8).max(8) as u64
        })
        .collect();

    let state = Rc::new(RefCell::new(State {
        f: Factor::init(&prob.a, prob.sym.clone()),
        pending: (0..np).map(|q| prob.deps.pending(q)).collect(),
    }));

    rt.reset_monitor();
    let rr = Rc::new(RoundRobin::default());

    // Figure 13 main(): start with the initially-ready panels; the dataflow
    // does the rest. One phase = the whole factorization (the waitfor).
    {
        let state = state.clone();
        let ready = prob.deps.initially_ready();
        let panels = prob.panels.clone();
        let deps_updates: Vec<Vec<usize>> = (0..np).map(|p| prob.deps.updates_to(p).to_vec()).collect();
        let panel_objs = panel_objs.clone();
        let panel_bytes_v = panel_bytes.clone();
        let rr = rr.clone();
        rt.run_phase(move |ctx| {
            let env = Rc::new(Env {
                state,
                panels,
                deps_updates,
                panel_objs,
                panel_bytes: panel_bytes_v,
                version,
                rr,
            });
            for p in ready {
                spawn_complete_panel(ctx, p, &env);
            }
        });
    }

    let run = rt.report();
    // Verify against the sequential left-looking reference.
    let mut fref = Factor::init(&prob.a, prob.sym.clone());
    fref.factorize_left_looking();
    let n = prob.a.n();
    let mut max_error = 0.0f64;
    {
        let st = state.borrow();
        for j in 0..n {
            for &i in prob.sym.col_rows(j) {
                max_error = max_error.max((st.f.get(i, j) - fref.get(i, j)).abs());
            }
        }
    }
    AppReport {
        version,
        run,
        max_error,
        obs: rt.take_obs(),
    }
}

/// Environment shared by all tasks of one factorization.
struct Env {
    state: Rc<RefCell<State>>,
    panels: PanelPartition,
    deps_updates: Vec<Vec<usize>>,
    panel_objs: Vec<ObjRef>,
    panel_bytes: Vec<u64>,
    version: Version,
    rr: Rc<RoundRobin>,
}

/// `CompletePanel(p)`: internal factorization, then fan out UpdatePanel
/// tasks. Runs inline in the spawning task's context in Figure 13 too
/// (CompletePanel is called, not spawned, from UpdatePanel).
fn spawn_complete_panel(ctx: &mut TaskCtx<'_>, p: usize, env: &Rc<Env>) {
    let env2 = env.clone();
    let body = move |c: &mut TaskCtx<'_>| complete_panel(c, p, &env2);
    // CompletePanel has default affinity for the panel it is invoked on.
    let task = if env.version.hints() {
        Task::new(body).with_affinity(AffinitySpec::simple(env.panel_objs[p]))
    } else {
        Task::new(body).with_affinity(AffinitySpec::processor(env.rr.next()))
    };
    ctx.spawn(task);
}

fn complete_panel(c: &mut TaskCtx<'_>, p: usize, env: &Rc<Env>) {
    // Internal factorization: read/write the whole panel.
    let range = env.panels.range(p);
    let updated = {
        let mut st = env.state.borrow_mut();
        st.f.panel_internal_factor(range)
    };
    // Internal completion reads the whole panel and writes what it touches.
    c.read(env.panel_objs[p], env.panel_bytes[p]);
    c.write(env.panel_objs[p], (updated as u64 * 8).clamp(8, env.panel_bytes[p]));
    c.compute(updated as u64 * FLOP_CYCLES);
    // Produce updates to the panels this panel modifies.
    for &q in &env.deps_updates[p] {
        let env2 = env.clone();
        let body = move |c: &mut TaskCtx<'_>| update_panel(c, q, p, &env2);
        // UpdatePanel(this = q, src = p): parallel mutex on the destination
        // panel, default affinity for the destination.
        let task = if env.version.hints() {
            Task::new(body)
                .with_affinity(AffinitySpec::simple(env.panel_objs[q]))
                .with_mutex(env.panel_objs[q])
        } else {
            Task::new(body)
                .with_affinity(AffinitySpec::processor(env.rr.next()))
                .with_mutex(env.panel_objs[q])
        };
        c.spawn(task);
    }
}

fn update_panel(c: &mut TaskCtx<'_>, q: usize, p: usize, env: &Rc<Env>) {
    let dst = env.panels.range(q);
    let src = env.panels.range(p);
    let (updated, now_ready) = {
        let mut st = env.state.borrow_mut();
        let st = &mut *st;
        let updated = st.f.panel_update(dst, src);
        st.pending[q] -= 1;
        (updated, st.pending[q] == 0)
    };
    // Mirror the traffic the update actually generates: the source values
    // it reads and the destination positions it modifies — both proportional
    // to `updated` (a cmod touches one source and one destination value per
    // position). Mirroring whole panels instead would invalidate every byte
    // of the destination in all sharers on every update, grossly inflating
    // coherence traffic relative to the real code.
    let touched = (updated as u64 * 8).clamp(8, env.panel_bytes[q]);
    c.read(env.panel_objs[p], (updated as u64 * 8).clamp(8, env.panel_bytes[p]));
    c.read(env.panel_objs[q], touched);
    c.write(env.panel_objs[q], touched);
    c.compute(updated as u64 * FLOP_CYCLES);
    if now_ready {
        // Figure 13: "if (all updates to this panel have been performed)
        // CompletePanel();" — called from within the update task.
        complete_panel(c, q, env);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::sim_config_small;
    use workloads::matrices::grid_laplacian;

    fn problem() -> PanelProblem {
        PanelProblem::analyse(&PanelParams {
            matrix: grid_laplacian(8),
            max_panel_width: 4,
        })
    }

    #[test]
    fn all_versions_factor_correctly() {
        let prob = problem();
        for v in Version::ALL {
            let rep = run(sim_config_small(4, v), &prob, v);
            assert!(rep.max_error < 1e-9, "{v:?}: error {}", rep.max_error);
        }
    }

    #[test]
    fn task_count_matches_panel_dag() {
        let prob = problem();
        let rep = run(sim_config_small(4, Version::Base), &prob, Version::Base);
        // seed + one CompletePanel per initially-ready panel + one
        // UpdatePanel per dependency edge (CompletePanel for non-root panels
        // runs inline inside the final update task).
        let expected = 1 + prob.deps.initially_ready().len() + prob.deps.total_updates();
        assert_eq!(rep.run.stats.executed, expected as u64);
    }

    #[test]
    fn distribution_and_affinity_improve_locality() {
        use crate::common::sim_config_small_flat;
        let prob = problem();
        let base = run(sim_config_small_flat(8, Version::Base), &prob, Version::Base);
        let aff = run(
            sim_config_small_flat(8, Version::AffinityDistr),
            &prob,
            Version::AffinityDistr,
        );
        assert!(
            aff.run.mem.local_fraction() > base.run.mem.local_fraction(),
            "aff {} vs base {}",
            aff.run.mem.local_fraction(),
            base.run.mem.local_fraction()
        );
    }

    #[test]
    fn cluster_stealing_keeps_steals_in_cluster() {
        let prob = problem();
        let rep = run(
            sim_config_small(8, Version::AffinityDistrCluster),
            &prob,
            Version::AffinityDistrCluster,
        );
        let s = rep.run.stats;
        assert_eq!(
            s.remote_steals, 0,
            "cluster boundary crossed under cluster policy: {s:?}"
        );
    }

    #[test]
    fn mutex_serialises_updates_to_one_panel() {
        let prob = problem();
        let rep = run(sim_config_small(4, Version::Base), &prob, Version::Base);
        // With several processors racing on shared destination panels, some
        // blocking must occur on this matrix (many panels receive > 1
        // update).
        assert!(prob.deps.total_updates() > prob.panels.len());
        // Not a hard guarantee, but on this input contention is inevitable.
        assert!(rep.run.stats.executed > 0);
    }
}
