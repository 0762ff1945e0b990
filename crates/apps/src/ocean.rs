//! Ocean (Section 6.1): grid PDE relaxation with regions distributed across
//! processors' memories.
//!
//! The program keeps `num_grids` square grids of state variables. Each phase
//! (one `waitfor { ... }` in Figure 5) updates every grid from the previous
//! values: a 5-point nearest-neighbour stencil within the grid (intra-grid
//! operation) plus an element-wise coupling with the next grid (inter-grid
//! operation), double-buffered so results are schedule-independent. Each
//! grid is partitioned into `regions` contiguous row blocks; one task
//! processes one region of one grid.
//!
//! Versions:
//! * `Base` — all grids allocated from one memory; region tasks scheduled
//!   round-robin.
//! * `Distr` — regions migrated so corresponding regions of all grids share
//!   a processor's local memory (the `distribute()` of Figure 5), but tasks
//!   still round-robin.
//! * `AffinityDistr` — distribution plus the paper's default affinity: each
//!   task is collocated with the region it updates (simple affinity on the
//!   region object). This is the published Ocean configuration.

use std::cell::RefCell;
use std::rc::Rc;

use cool_core::{AffinitySpec, ObjRef};
use cool_sim::{FaultPlan, SimConfig, SimRuntime, Task};
use workloads::ocean::{initial_grids, region_rows, OceanParams};

use crate::common::{AppReport, RoundRobin, Version};

/// How each grid is partitioned into regions.
///
/// The paper: "We chose to partition a grid into a single array of regions,
/// although rectangular block decompositions are also possible." Row blocks
/// are page-contiguous (clean placement, larger halos); rectangular blocks
/// halve the halo perimeter but stride across pages, so page-granular
/// `migrate` cannot place them cleanly — the ablation quantifies exactly
/// that trade-off.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Decomposition {
    /// Contiguous row blocks (the paper's choice): `regions` strips.
    Rows,
    /// A `br × bc` rectangular block grid (br·bc regions).
    Blocks {
        /// Block rows.
        br: usize,
        /// Block columns.
        bc: usize,
    },
}

/// How the grids' regions are placed in memory — the automatic-distribution
/// question of the paper's Sections 7/8 (compiler/OS placement vs the
/// explicit `distribute()` of Figure 5).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PlacementPolicy {
    /// Everything allocated from one processor's memory (no distribution).
    Central,
    /// The paper's explicit distribution: region r of every grid migrated to
    /// processor r (Figure 5's `distribute()`).
    Explicit,
    /// OS-style first-touch: pages homed on the cluster of their first
    /// referencing processor.
    FirstTouch,
    /// Round-robin page interleaving across memories.
    Interleaved,
}

/// Cycles charged per grid-point update (5 adds + 2 muls on an R3000-class
/// machine).
const FLOP_CYCLES_PER_POINT: u64 = 8;

struct State {
    /// Current values, one Vec per grid (row-major n×n).
    cur: Vec<Vec<f64>>,
    /// Next values (written this phase).
    next: Vec<Vec<f64>>,
}

/// One full Ocean run with the version's default placement (Central for
/// Base, Explicit for the distributing versions) and row decomposition.
pub fn run(cfg: SimConfig, params: &OceanParams, version: Version) -> AppReport {
    let placement = if version.distributes() {
        PlacementPolicy::Explicit
    } else {
        PlacementPolicy::Central
    };
    run_full(cfg, params, version, placement, Decomposition::Rows)
}

/// One full Ocean run with an explicit placement policy (the placement
/// ablation of EXPERIMENTS.md), row decomposition.
pub fn run_with_placement(
    cfg: SimConfig,
    params: &OceanParams,
    version: Version,
    placement: PlacementPolicy,
) -> AppReport {
    run_full(cfg, params, version, placement, Decomposition::Rows)
}

/// A region of the grid: a row range and a column range.
#[derive(Clone, Debug)]
struct Region {
    rows: std::ops::Range<usize>,
    cols: std::ops::Range<usize>,
}

/// Partition an `n × n` grid under the chosen decomposition.
fn regions_of(n: usize, params_regions: usize, decomp: Decomposition) -> Vec<Region> {
    match decomp {
        Decomposition::Rows => (0..params_regions)
            .map(|r| Region {
                rows: region_rows(n, params_regions, r),
                cols: 0..n,
            })
            .collect(),
        Decomposition::Blocks { br, bc } => {
            let mut out = Vec::with_capacity(br * bc);
            for i in 0..br {
                for j in 0..bc {
                    out.push(Region {
                        rows: region_rows(n, br, i),
                        cols: region_rows(n, bc, j),
                    });
                }
            }
            out
        }
    }
}

/// One full Ocean run with every knob exposed.
pub fn run_full(
    cfg: SimConfig,
    params: &OceanParams,
    version: Version,
    placement: PlacementPolicy,
    decomp: Decomposition,
) -> AppReport {
    run_full_with_faults(cfg, params, version, placement, decomp, None)
}

/// One full Ocean run with the version's default placement, optionally
/// perturbed by a deterministic [`FaultPlan`] (stragglers, stalls, transient
/// task failures). Injection moves only the schedule and timing; the
/// relaxation result is unaffected.
pub fn run_with_faults(
    cfg: SimConfig,
    params: &OceanParams,
    version: Version,
    faults: Option<FaultPlan>,
) -> AppReport {
    let placement = if version.distributes() {
        PlacementPolicy::Explicit
    } else {
        PlacementPolicy::Central
    };
    run_full_with_faults(cfg, params, version, placement, Decomposition::Rows, faults)
}

/// [`run_full`] plus an optional fault plan.
pub fn run_full_with_faults(
    cfg: SimConfig,
    params: &OceanParams,
    version: Version,
    placement: PlacementPolicy,
    decomp: Decomposition,
    faults: Option<FaultPlan>,
) -> AppReport {
    let mut rt = SimRuntime::new(cfg);
    if let Some(plan) = faults {
        rt.set_fault_plan(plan);
    }
    let nprocs = rt.nservers();
    let n = params.n;
    let g = params.num_grids;
    let grid_bytes = (n * n * 8) as u64;
    let regions = regions_of(n, params.regions, decomp);

    // Allocate the simulated grids under the chosen policy.
    let alloc = |rt: &mut SimRuntime| match placement {
        PlacementPolicy::FirstTouch => rt.machine_mut().alloc_first_touch(grid_bytes),
        PlacementPolicy::Interleaved => rt.machine_mut().alloc_interleaved(grid_bytes),
        // Central and Explicit both start from one memory; Explicit then
        // migrates below.
        _ => rt.machine_mut().alloc_on_proc(0, grid_bytes),
    };
    let cur_objs: Vec<ObjRef> = (0..g).map(|_| alloc(&mut rt)).collect();
    let next_objs: Vec<ObjRef> = (0..g).map(|_| alloc(&mut rt)).collect();

    // distribute(): migrate region r of every grid (both buffers) to
    // processor r — corresponding regions of different grids end up in the
    // same local memory (Figure 5). For row regions one migrate covers the
    // whole region; rectangular blocks migrate row by row (and the strided
    // rows share pages between blocks — the page-granularity caveat of the
    // paper's footnote 2, visible in the decomposition ablation).
    if placement == PlacementPolicy::Explicit {
        for (r, reg) in regions.iter().enumerate() {
            for objs in [&cur_objs, &next_objs] {
                for &o in objs.iter() {
                    for row in reg.rows.clone() {
                        let off = ((row * n + reg.cols.start) * 8) as u64;
                        let len = ((reg.cols.end - reg.cols.start) * 8) as u64;
                        rt.machine_mut().migrate_to_proc(o.offset(off), len, r % nprocs);
                    }
                }
            }
        }
    }

    let state = Rc::new(RefCell::new(State {
        cur: initial_grids(params),
        next: vec![vec![0.0; n * n]; g],
    }));

    // Measure only the parallel section, as the paper does.
    rt.reset_monitor();

    let rr = Rc::new(RoundRobin::default());
    for sweep in 0..params.sweeps {
        let phase_state = state.clone();
        // The Rust buffers swap between phases; swap the mirrored objects in
        // step so the simulated addresses track the semantically-current
        // buffer.
        let (cur_objs, next_objs) = if sweep % 2 == 0 {
            (cur_objs.clone(), next_objs.clone())
        } else {
            (next_objs.clone(), cur_objs.clone())
        };
        let rr = rr.clone();
        let params = *params;
        let regions2 = regions.clone();
        rt.run_phase(move |ctx| {
            for gi in 0..params.num_grids {
                for reg in &regions2 {
                    let state = phase_state.clone();
                    let n = params.n;
                    let src_obj = cur_objs[gi];
                    let couple_obj = cur_objs[(gi + 1) % params.num_grids];
                    let dst_obj = next_objs[gi];
                    let (rows2, cols2) = (reg.rows.clone(), reg.cols.clone());
                    let body = move |c: &mut cool_sim::TaskCtx<'_>| {
                        // Mirror the reads: stencil rows (with halo) of the
                        // source grid and the coupled grid's region, then the
                        // write of the destination region. Column extents
                        // mirror per row (with a one-cell halo each side).
                        let halo_start = rows2.start.saturating_sub(1);
                        let halo_end = (rows2.end + 1).min(n);
                        let c0 = cols2.start.saturating_sub(1);
                        let c1 = (cols2.end + 1).min(n);
                        for row in halo_start..halo_end {
                            c.read(
                                src_obj.offset(((row * n + c0) * 8) as u64),
                                ((c1 - c0) * 8) as u64,
                            );
                        }
                        for row in rows2.clone() {
                            c.read(
                                couple_obj.offset(((row * n + cols2.start) * 8) as u64),
                                ((cols2.end - cols2.start) * 8) as u64,
                            );
                            c.write(
                                dst_obj.offset(((row * n + cols2.start) * 8) as u64),
                                ((cols2.end - cols2.start) * 8) as u64,
                            );
                        }
                        c.compute(
                            ((rows2.end - rows2.start) * (cols2.end - cols2.start)) as u64
                                * FLOP_CYCLES_PER_POINT,
                        );
                        // The real computation.
                        let mut st = state.borrow_mut();
                        let st = &mut *st;
                        relax_region(
                            &st.cur[gi],
                            &st.cur[(gi + 1) % st.cur.len()],
                            &mut st.next[gi],
                            n,
                            rows2.clone(),
                            cols2.clone(),
                        );
                    };
                    let task = if version.hints() {
                        // Default/simple affinity on the region object
                        // being updated.
                        let region_obj = dst_obj
                            .offset(((reg.rows.start * n + reg.cols.start) * 8) as u64);
                        Task::new(body).with_affinity(AffinitySpec::simple(region_obj))
                    } else {
                        Task::new(body).with_affinity(AffinitySpec::processor(rr.next()))
                    };
                    ctx.spawn(task);
                }
            }
        });
        // Swap buffers between phases (and in the simulated space: the next
        // sweep reads what this one wrote, so swap the object handles too —
        // handled by swapping the Rust buffers and reusing objs in the same
        // order; to keep object/buffer correspondence, swap both).
        {
            let mut st = state.borrow_mut();
            let st = &mut *st;
            std::mem::swap(&mut st.cur, &mut st.next);
        }
    }

    let run = rt.report();
    let max_error = verify(params, &state.borrow().cur);
    AppReport {
        version,
        run,
        max_error,
        obs: rt.take_obs(),
    }
}

/// 5-point stencil + inter-grid coupling for one region of one grid.
/// Boundary points copy through (Dirichlet-style).
fn relax_region(
    src: &[f64],
    couple: &[f64],
    dst: &mut [f64],
    n: usize,
    rows: std::ops::Range<usize>,
    cols: std::ops::Range<usize>,
) {
    for r in rows {
        for c in cols.clone() {
            let i = r * n + c;
            dst[i] = if r == 0 || c == 0 || r == n - 1 || c == n - 1 {
                src[i]
            } else {
                0.2 * (src[i] + src[i - n] + src[i + n] + src[i - 1] + src[i + 1])
                    + 0.01 * couple[i]
            };
        }
    }
}

/// Sequential reference: rerun the whole computation single-threaded and
/// return the max deviation.
fn verify(params: &OceanParams, result: &[Vec<f64>]) -> f64 {
    let n = params.n;
    let g = params.num_grids;
    let mut cur = initial_grids(params);
    let mut next = vec![vec![0.0; n * n]; g];
    for _ in 0..params.sweeps {
        for gi in 0..g {
            let couple = cur[(gi + 1) % g].clone();
            let src = cur[gi].clone();
            relax_region(&src, &couple, &mut next[gi], n, 0..n, 0..n);
        }
        std::mem::swap(&mut cur, &mut next);
    }
    let mut err = 0.0f64;
    for gi in 0..g {
        for (a, b) in cur[gi].iter().zip(&result[gi]) {
            err = err.max((a - b).abs());
        }
    }
    err
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::sim_config_small;

    fn small_params() -> OceanParams {
        OceanParams {
            n: 24,
            num_grids: 4,
            regions: 8,
            sweeps: 2,
            seed: 3,
        }
    }

    #[test]
    fn all_versions_compute_the_same_answer() {
        for v in [Version::Base, Version::Distr, Version::AffinityDistr] {
            let rep = run(sim_config_small(4, v), &small_params(), v);
            assert!(
                rep.max_error < 1e-12,
                "{:?} diverged: {}",
                v,
                rep.max_error
            );
        }
    }

    #[test]
    fn affinity_version_adheres_and_runs_locally() {
        let rep = run(
            sim_config_small(8, Version::AffinityDistr),
            &small_params(),
            Version::AffinityDistr,
        );
        assert!(rep.run.stats.adherence() > 0.5, "{:?}", rep.run.stats);
        // Distribution + collocation ⇒ most misses serviced locally.
        assert!(
            rep.run.mem.local_fraction() > 0.5,
            "local fraction {}",
            rep.run.mem.local_fraction()
        );
    }

    #[test]
    fn distribution_improves_on_base_at_scale() {
        // Page-aligned regions (4 rows × 32 cols × 8 B = 1 KB = one small
        // page) on a flat machine, so placement is exact.
        use crate::common::sim_config_small_flat;
        let p = OceanParams {
            n: 32,
            num_grids: 6,
            regions: 8,
            sweeps: 3,
            seed: 3,
        };
        let base = run(sim_config_small_flat(8, Version::Base), &p, Version::Base);
        let distr = run(
            sim_config_small_flat(8, Version::AffinityDistr),
            &p,
            Version::AffinityDistr,
        );
        // The optimised version must not be slower; with everything homed on
        // one node, Base suffers remote misses.
        assert!(
            distr.run.elapsed <= base.run.elapsed,
            "distr {} vs base {}",
            distr.run.elapsed,
            base.run.elapsed
        );
        assert!(
            distr.run.mem.local_fraction() >= base.run.mem.local_fraction(),
            "locality did not improve"
        );
    }

    #[test]
    fn block_decomposition_computes_the_same_answer() {
        let p = small_params();
        for decomp in [
            Decomposition::Rows,
            Decomposition::Blocks { br: 2, bc: 4 },
            Decomposition::Blocks { br: 3, bc: 3 },
        ] {
            let rep = run_full(
                sim_config_small(4, Version::AffinityDistr),
                &p,
                Version::AffinityDistr,
                PlacementPolicy::Explicit,
                decomp,
            );
            assert!(rep.max_error < 1e-12, "{decomp:?}: {}", rep.max_error);
        }
    }

    #[test]
    fn block_decomposition_spawns_br_times_bc_tasks() {
        let p = small_params();
        let rep = run_full(
            sim_config_small(4, Version::Base),
            &p,
            Version::Base,
            PlacementPolicy::Central,
            Decomposition::Blocks { br: 2, bc: 2 },
        );
        let expected = (p.sweeps * (p.num_grids * 4 + 1)) as u64;
        assert_eq!(rep.run.stats.executed, expected);
    }

    #[test]
    fn every_region_task_executes() {
        let p = small_params();
        let rep = run(sim_config_small(4, Version::Base), &p, Version::Base);
        // sweeps × (grids × regions tasks + 1 seed).
        let expected = (p.sweeps * (p.num_grids * p.regions + 1)) as u64;
        assert_eq!(rep.run.stats.executed, expected);
    }
}
