//! Block Cholesky (Section 6.4): factorization with the matrix represented
//! as a set of blocks instead of panels.
//!
//! The paper's block code is sparse; we use the dense-blocked equivalent
//! (every block stored), which preserves the scheduling structure — a
//! dataflow of `potrf` (factor diagonal block), `trsm` (triangular solve of
//! a subdiagonal block) and `gemm` (Schur update of a block by a pair of
//! completed subdiagonal blocks) tasks with per-block affinity — while the
//! `sparse` crate covers sparsity in the panel study. DESIGN.md records the
//! substitution.
//!
//! Dependencies for block (i,j) of a B×B block matrix (i ≥ j):
//! * `gemm(i,j,k)` (k < j) needs `trsm(i,k)` and `trsm(j,k)`;
//! * block (i,j) is fully updated after its j gemms;
//! * `potrf(j)` runs on fully-updated (j,j);
//! * `trsm(i,j)` runs on fully-updated (i,j) after `potrf(j)`.
//!
//! Versions: `Base` (blocks on one memory, tasks round-robin), `Distr`
//! (blocks distributed, tasks round-robin), `AffinityDistr` (distribution +
//! OBJECT affinity on the destination block, TASK affinity on the source
//! block for gemms — cache reuse of the source while collocated with the
//! destination, like the Gaussian elimination of Figure 3).

use std::cell::RefCell;
use std::rc::Rc;

use cool_core::{AffinitySpec, ObjRef};
use cool_sim::{FaultPlan, SimConfig, SimRuntime, Task, TaskCtx};
use sparse::dense::{block_gemm_sub, block_potrf, block_trsm, dense_cholesky};
use sparse::DenseMatrix;

use crate::common::{AppReport, RoundRobin, Version};

/// Cycles per fused multiply-add in the block kernels.
const FLOP_CYCLES: u64 = 2;

/// Block Cholesky parameters.
#[derive(Clone, Copy, Debug)]
pub struct BlockParams {
    /// Matrix dimension (must be a multiple of `block`).
    pub n: usize,
    /// Block edge size.
    pub block: usize,
}

impl Default for BlockParams {
    fn default() -> Self {
        BlockParams { n: 128, block: 16 }
    }
}

struct State {
    /// blocks[i][j] for i ≥ j, each `w × w` column-major.
    blocks: Vec<Vec<Vec<f64>>>,
    /// gemm updates still owed to block (i,j).
    upd_pending: Vec<Vec<usize>>,
    /// trsm(i,k) completion flags (i > k); diagonal entry = potrf done.
    done: Vec<Vec<bool>>,
}

struct Env {
    state: Rc<RefCell<State>>,
    objs: Vec<Vec<ObjRef>>,
    block_bytes: u64,
    w: usize,
    nb: usize,
    version: Version,
    rr: Rc<RoundRobin>,
}

/// One full run.
pub fn run(cfg: SimConfig, params: &BlockParams, version: Version) -> AppReport {
    run_with_faults(cfg, params, version, None)
}

/// One full run, optionally perturbed by a deterministic [`FaultPlan`]
/// (stragglers, stalls, transient task failures). Injection moves only the
/// schedule and timing; the factor is unaffected.
pub fn run_with_faults(
    cfg: SimConfig,
    params: &BlockParams,
    version: Version,
    faults: Option<FaultPlan>,
) -> AppReport {
    assert_eq!(params.n % params.block, 0, "n must be a multiple of block");
    let mut rt = SimRuntime::new(cfg);
    if let Some(plan) = faults {
        rt.set_fault_plan(plan);
    }
    let nprocs = rt.nservers();
    let (n, w) = (params.n, params.block);
    let nb = n / w;
    let a = workloads::matrices::dense_spd(n);
    let block_bytes = (w * w * 8) as u64;

    // Extract the lower-triangle blocks and allocate their simulated
    // objects (round-robin distributed in the Distr versions).
    let mut blocks = Vec::with_capacity(nb);
    let mut objs = Vec::with_capacity(nb);
    let mut idx = 0usize;
    for i in 0..nb {
        let mut brow = Vec::with_capacity(i + 1);
        let mut orow = Vec::with_capacity(i + 1);
        for j in 0..=i {
            let mut v = vec![0.0; w * w];
            for c in 0..w {
                for r in 0..w {
                    v[c * w + r] = a.get(i * w + r, j * w + c);
                }
            }
            brow.push(v);
            let target = if version.distributes() { idx % nprocs } else { 0 };
            orow.push(rt.machine_mut().alloc_on_proc(target, block_bytes));
            idx += 1;
        }
        blocks.push(brow);
        objs.push(orow);
    }

    let state = Rc::new(RefCell::new(State {
        blocks,
        upd_pending: (0..nb).map(|i| (0..=i).collect()).collect(),
        done: (0..nb).map(|i| vec![false; i + 1]).collect(),
    }));

    rt.reset_monitor();
    let env = Rc::new(Env {
        state: state.clone(),
        objs,
        block_bytes,
        w,
        nb,
        version,
        rr: Rc::new(RoundRobin::default()),
    });

    {
        let env = env.clone();
        rt.run_phase(move |ctx| {
            // Block (0,0) owes no updates: start the dataflow.
            spawn_potrf(ctx, 0, &env);
        });
    }

    let run = rt.report();
    // Verify: assemble L and compare against dense Cholesky of A.
    let mut l = DenseMatrix::zeros(n, n);
    {
        let st = state.borrow();
        for i in 0..nb {
            for j in 0..=i {
                for c in 0..w {
                    for r in 0..w {
                        l.set(i * w + r, j * w + c, st.blocks[i][j][c * w + r]);
                    }
                }
            }
        }
    }
    let lref = dense_cholesky(&a);
    AppReport {
        version,
        run,
        max_error: l.max_diff(&lref),
        obs: rt.take_obs(),
    }
}

fn affinity_for(env: &Env, dst: ObjRef, src: Option<ObjRef>) -> AffinitySpec {
    if env.version.hints() {
        match src {
            Some(s) => AffinitySpec::task(s).and_object(dst),
            None => AffinitySpec::simple(dst),
        }
    } else {
        AffinitySpec::processor(env.rr.next())
    }
}

fn spawn_potrf(ctx: &mut TaskCtx<'_>, j: usize, env: &Rc<Env>) {
    let env2 = env.clone();
    let dst = env.objs[j][j];
    let body = move |c: &mut TaskCtx<'_>| {
        let w = env2.w;
        {
            let mut st = env2.state.borrow_mut();
            block_potrf(&mut st.blocks[j][j], w);
        }
        c.read(env2.objs[j][j], env2.block_bytes);
        c.write(env2.objs[j][j], env2.block_bytes);
        c.compute((w * w * w / 3) as u64 * FLOP_CYCLES);
        // Release: publish L(j,j) on its sync token for trsms released
        // later through the `done[j][j]` flag rather than spawned by us.
        c.sync(env2.objs[j][j]);
        // potrf(j) done: release trsm(i,j) for fully-updated blocks below.
        let mut ready = Vec::new();
        {
            let mut st = env2.state.borrow_mut();
            st.done[j][j] = true;
            for i in j + 1..env2.nb {
                if st.upd_pending[i][j] == 0 {
                    ready.push(i);
                }
            }
        }
        for i in ready {
            spawn_trsm(c, i, j, &env2);
        }
    };
    let aff = affinity_for(env, dst, None);
    ctx.spawn(Task::new(body).with_affinity(aff).with_mutex(dst));
}

fn spawn_trsm(ctx: &mut TaskCtx<'_>, i: usize, k: usize, env: &Rc<Env>) {
    let env2 = env.clone();
    let dst = env.objs[i][k];
    let src = env.objs[k][k];
    let body = move |c: &mut TaskCtx<'_>| {
        let w = env2.w;
        {
            let mut st = env2.state.borrow_mut();
            let st = &mut *st;
            // Split borrow: diagonal block (k,k) is in row k, dest in row i.
            let (head, tail) = st.blocks.split_at_mut(i);
            let lkk = &head[k][k];
            block_trsm(&mut tail[0][k], lkk, w);
        }
        c.read(src, env2.block_bytes);
        c.read(dst, env2.block_bytes);
        c.write(dst, env2.block_bytes);
        c.compute((w * w * w) as u64 * FLOP_CYCLES);
        // Release: publish L(i,k) for the partner trsm that spawns the gemm.
        c.sync(dst);
        // trsm(i,k) done: spawn gemms with every finished partner column k
        // block, including the symmetric-diagonal gemm(i,i,k).
        let mut partners = Vec::new();
        {
            let mut st = env2.state.borrow_mut();
            st.done[i][k] = true;
            // A pair {i, m} is released by whichever trsm finishes second,
            // so each gemm is spawned exactly once; m == i is the
            // symmetric-diagonal update gemm(i,i,k).
            for m in k + 1..env2.nb {
                if m == i || st.done[m][k] {
                    partners.push(m);
                }
            }
        }
        for m in partners {
            // Acquire: `done[m][k]` said the partner trsm finished; pick up
            // its sync release so the gemm is ordered after both inputs.
            c.sync(env2.objs[m][k]);
            let (di, dj) = (i.max(m), i.min(m));
            spawn_gemm(c, di, dj, k, &env2);
        }
    };
    let aff = affinity_for(env, dst, Some(src));
    ctx.spawn(Task::new(body).with_affinity(aff).with_mutex(dst));
}

fn spawn_gemm(ctx: &mut TaskCtx<'_>, i: usize, j: usize, k: usize, env: &Rc<Env>) {
    let env2 = env.clone();
    let dst = env.objs[i][j];
    let src_a = env.objs[i][k];
    let body = move |c: &mut TaskCtx<'_>| {
        let w = env2.w;
        let now_ready = {
            let mut st = env2.state.borrow_mut();
            let st = &mut *st;
            // C(i,j) -= A(i,k)·B(j,k)ᵀ, all in the lower triangle (k < j ≤ i).
            let a_blk = st.blocks[i][k].clone();
            let b_blk = st.blocks[j][k].clone();
            block_gemm_sub(&mut st.blocks[i][j], &a_blk, &b_blk, w);
            st.upd_pending[i][j] -= 1;
            st.upd_pending[i][j] == 0
        };
        c.read(env2.objs[i][k], env2.block_bytes);
        c.read(env2.objs[j][k], env2.block_bytes);
        c.read(dst, env2.block_bytes);
        c.write(dst, env2.block_bytes);
        c.compute((w * w * w) as u64 * FLOP_CYCLES);
        if now_ready {
            if i == j {
                spawn_potrf(c, j, &env2);
            } else {
                let potrf_done = env2.state.borrow().done[j][j];
                if potrf_done {
                    // Acquire potrf(j)'s release before reading L(j,j).
                    c.sync(env2.objs[j][j]);
                    spawn_trsm(c, i, j, &env2);
                }
                // Otherwise potrf(j)'s completion will release it.
            }
        }
    };
    let aff = affinity_for(env, dst, Some(src_a));
    ctx.spawn(Task::new(body).with_affinity(aff).with_mutex(dst));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::sim_config_small;

    fn p() -> BlockParams {
        BlockParams { n: 48, block: 8 }
    }

    #[test]
    fn all_versions_factor_correctly() {
        for v in [Version::Base, Version::Distr, Version::AffinityDistr] {
            let rep = run(sim_config_small(4, v), &p(), v);
            assert!(rep.max_error < 1e-8, "{v:?}: error {}", rep.max_error);
        }
    }

    #[test]
    fn task_count_matches_block_dag() {
        let rep = run(sim_config_small(4, Version::Base), &p(), Version::Base);
        let nb = (p().n / p().block) as u64;
        // seed + nb potrf + nb(nb-1)/2 trsm + sum_j j·(nb-j) gemms... direct
        // count: gemm(i,j,k) for k < j ≤ i.
        let mut gemms = 0u64;
        for i in 0..nb {
            for j in 0..=i {
                gemms += j;
            }
        }
        let expected = 1 + nb + nb * (nb - 1) / 2 + gemms;
        assert_eq!(rep.run.stats.executed, expected);
    }

    #[test]
    fn affinity_improves_locality() {
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
    fn single_block_matrix_is_just_potrf() {
        let rep = run(
            sim_config_small(2, Version::Base),
            &BlockParams { n: 8, block: 8 },
            Version::Base,
        );
        assert!(rep.max_error < 1e-10);
        assert_eq!(rep.run.stats.executed, 2); // seed + potrf
    }
}
