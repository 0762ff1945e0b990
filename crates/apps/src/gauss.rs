//! The Gaussian elimination example of Section 4.1 / Figure 3 — the
//! motivating case for combining TASK and OBJECT affinity.
//!
//! Column-oriented (unpivoted) elimination: a task is `update(dest, src)`,
//! subtracting a multiple of completed source column `src` from `dest`. Once
//! a column has received updates from all columns to its left it is
//! *completed* (normalised) and used to update the columns to its right.
//!
//! The paper's desired schedule: **memory locality on the destination
//! column** (columns distributed round-robin; the task runs where its
//! destination column lives — too many columns per processor for the cache)
//! and **cache locality on the source column** (each processor executes
//! updates with the same source back to back). Exactly:
//!
//! ```text
//! parallel void update (col* dest, col* src)
//!     [ affinity (src, TASK); affinity (dest, OBJECT) ]
//! ```
//!
//! Versions:
//! * `Base` — columns on one memory node, tasks round-robin.
//! * `Distr` — columns distributed round-robin, tasks round-robin.
//! * `AffinityDistr` — distribution + the Figure 3 hints.

use std::cell::RefCell;
use std::rc::Rc;

use cool_core::{AffinitySpec, ObjRef};
use cool_sim::{FaultPlan, SimConfig, SimRuntime, Task, TaskCtx};
use sparse::dense::{ge_column_complete, ge_factor};
use sparse::DenseMatrix;

use crate::common::{AppReport, RoundRobin, Version};

/// Cycles per multiply-subtract in the update inner loop.
const FLOP_CYCLES: u64 = 4;

/// Gaussian elimination parameters.
#[derive(Clone, Copy, Debug)]
pub struct GaussParams {
    /// Matrix dimension.
    pub n: usize,
    /// Generator seed (diagonally dominant dense matrix).
    pub seed: u64,
}

impl Default for GaussParams {
    fn default() -> Self {
        GaussParams { n: 96, seed: 1 }
    }
}

struct State {
    m: DenseMatrix,
    /// Next source column each destination column must be updated by.
    /// GE updates do *not* commute (the multiplier `dest[k]` is itself
    /// produced by earlier updates to the destination), so each column's
    /// updates are applied as a chain in increasing source order — which is
    /// also what gives the paper's back-to-back source reuse its shape.
    next_src: Vec<usize>,
    /// Columns whose normalisation is done (usable as sources).
    completed: Vec<bool>,
    /// Whether an update task for this destination is currently queued.
    in_flight: Vec<bool>,
}

/// One full run.
pub fn run(cfg: SimConfig, params: &GaussParams, version: Version) -> AppReport {
    run_with_faults(cfg, params, version, None)
}

/// One full run, optionally perturbed by a deterministic [`FaultPlan`]
/// (stragglers, stalls, transient task failures). Injection moves only the
/// schedule and timing; the factorization result is unaffected.
pub fn run_with_faults(
    cfg: SimConfig,
    params: &GaussParams,
    version: Version,
    faults: Option<FaultPlan>,
) -> AppReport {
    let mut rt = SimRuntime::new(cfg);
    if let Some(plan) = faults {
        rt.set_fault_plan(plan);
    }
    let nprocs = rt.nservers();
    let n = params.n;
    let col_bytes = (n * 8) as u64;

    // One simulated object per column. Base: all columns from one memory;
    // Distr: round-robin across processors ("distributing the columns across
    // processors in a round-robin fashion results in good load
    // distribution").
    let col_objs: Vec<ObjRef> = (0..n)
        .map(|j| {
            if version.distributes() {
                rt.machine_mut().alloc_on_proc(j % nprocs, col_bytes)
            } else {
                rt.machine_mut().alloc_on_proc(0, col_bytes)
            }
        })
        .collect();

    let state = Rc::new(RefCell::new(State {
        m: workloads::matrices::dense_dd(n, params.seed),
        next_src: vec![0; n],
        completed: vec![false; n],
        in_flight: vec![false; n],
    }));

    rt.reset_monitor();
    let rr = Rc::new(RoundRobin::default());

    // Dataflow: complete column 0, then fan out updates.
    {
        let state = state.clone();
        let col_objs = col_objs.clone();
        let rr = rr.clone();
        rt.run_phase(move |ctx| {
            complete_column(ctx, 0, &state, &col_objs, version, &rr, n);
        });
    }

    let run = rt.report();
    // Verify against the sequential factorization.
    let mut reference = workloads::matrices::dense_dd(n, params.seed);
    ge_factor(&mut reference);
    let max_error = state.borrow().m.max_diff(&reference);
    AppReport {
        version,
        run,
        max_error,
        obs: rt.take_obs(),
    }
}

/// Complete column `k` (normalise), mark it usable as a source, and release
/// any destination column whose update chain was waiting on `k`.
fn complete_column(
    ctx: &mut TaskCtx<'_>,
    k: usize,
    state: &Rc<RefCell<State>>,
    col_objs: &[ObjRef],
    version: Version,
    rr: &Rc<RoundRobin>,
    n: usize,
) {
    let col_bytes = (n * 8) as u64;
    // Normalise column k below the pivot.
    ctx.read(col_objs[k], col_bytes);
    ctx.write(col_objs[k].offset((k * 8) as u64), ((n - k) * 8) as u64);
    ctx.compute((n - k) as u64 * 2);
    {
        let mut st = state.borrow_mut();
        ge_column_complete(st.m.col_mut(k), k);
        st.completed[k] = true;
    }
    // Release: publish column k (and everything ordered before us) on its
    // sync token. Consumers of `completed[k]` re-acquire it before reading.
    ctx.sync(col_objs[k]);
    for j in k + 1..n {
        try_spawn_update(ctx, j, state, col_objs, version, rr, n);
    }
}

/// Spawn the next update task for destination column `j` if its next source
/// is completed and nothing for `j` is already queued.
fn try_spawn_update(
    ctx: &mut TaskCtx<'_>,
    j: usize,
    state: &Rc<RefCell<State>>,
    col_objs: &[ObjRef],
    version: Version,
    rr: &Rc<RoundRobin>,
    n: usize,
) {
    let k = {
        let mut st = state.borrow_mut();
        let k = st.next_src[j];
        if k >= j || st.in_flight[j] || !st.completed[k] {
            return;
        }
        st.in_flight[j] = true;
        k
    };
    let state = state.clone();
    let col_objs_v = col_objs.to_vec();
    let rr2 = rr.clone();
    let src_obj = col_objs[k];
    let dst_obj = col_objs[j];
    let body = move |c: &mut TaskCtx<'_>| {
        // Mirror: read the source column below the pivot, read-modify-write
        // the destination below the pivot.
        let tail = ((n - k) * 8) as u64;
        c.read(src_obj.offset((k * 8) as u64), tail);
        c.read(dst_obj.offset((k * 8) as u64), tail);
        c.write(dst_obj.offset((k * 8) as u64), tail);
        c.compute((n - k) as u64 * FLOP_CYCLES);
        let ready = {
            let mut st = state.borrow_mut();
            let st = &mut *st;
            let (dest, src) = st.m.col_pair_mut(j, k);
            let mult = dest[k];
            for i in k + 1..n {
                dest[i] -= mult * src[i];
            }
            st.next_src[j] = k + 1;
            st.in_flight[j] = false;
            k + 1 == j
        };
        if ready {
            complete_column(c, j, &state, &col_objs_v, version, &rr2, n);
        } else {
            try_spawn_update(c, j, &state, &col_objs_v, version, &rr2, n);
        }
    };
    let task = if version.hints() {
        // The Figure 3 affinity block.
        Task::new(body)
            .with_affinity(AffinitySpec::task(src_obj).and_object(dst_obj))
            .with_mutex(dst_obj)
    } else {
        Task::new(body)
            .with_affinity(AffinitySpec::processor(rr.next()))
            .with_mutex(dst_obj)
    };
    // Acquire: `st.completed[k]` told us column k is finished; pick up the
    // completer's sync release so the spawned reader is ordered after the
    // column's writers (the dst chain alone is serialised by its mutex).
    ctx.sync(src_obj);
    ctx.spawn(task);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::sim_config_small;

    fn p() -> GaussParams {
        GaussParams { n: 32, seed: 7 }
    }

    #[test]
    fn all_versions_factor_correctly() {
        for v in [Version::Base, Version::Distr, Version::AffinityDistr] {
            let rep = run(sim_config_small(4, v), &p(), v);
            assert!(rep.max_error < 1e-9, "{v:?}: error {}", rep.max_error);
        }
    }

    #[test]
    fn task_count_matches_update_dag() {
        let rep = run(sim_config_small(4, Version::Base), &p(), Version::Base);
        // 1 seed + n(n-1)/2 updates.
        let n = p().n as u64;
        assert_eq!(rep.run.stats.executed, 1 + n * (n - 1) / 2);
    }

    #[test]
    fn affinity_improves_locality_over_base() {
        let base = run(sim_config_small(8, Version::Base), &p(), Version::Base);
        let aff = run(
            sim_config_small(8, Version::AffinityDistr),
            &p(),
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
    fn parallel_beats_serial() {
        // Flat topology (one memory node per processor) so the tiny test
        // problem isn't dominated by memory-module queueing on two nodes.
        use crate::common::sim_config_small_flat;
        let params = GaussParams { n: 48, seed: 7 };
        let serial = run(
            sim_config_small_flat(1, Version::Base),
            &params,
            Version::Base,
        )
        .run
        .elapsed;
        let par = run(
            sim_config_small_flat(8, Version::AffinityDistr),
            &params,
            Version::AffinityDistr,
        );
        assert!(
            par.speedup(serial) > 1.5,
            "speedup only {}",
            par.speedup(serial)
        );
    }
}
