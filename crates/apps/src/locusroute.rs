//! LocusRoute (Section 6.2): parallel standard-cell wire routing over a
//! shared CostArray, with processor affinity by geographic region.
//!
//! Each task routes one wire: it rips out the wire's previous route
//! (decrementing CostArray occupancy), evaluates candidate routes (the two
//! L-shaped bends plus Z-shaped routes through intermediate columns) by
//! summing the CostArray cells each would traverse, picks the cheapest, and
//! writes it back (incrementing occupancy). The program iterates until the
//! routes converge (`Number` iterations in Figure 9).
//!
//! The affinity structure is the paper's: the CostArray is viewed as
//! partitioned into vertical-strip regions; wires whose midpoint falls in a
//! region are routed on the processor conceptually assigned to that region
//! (`affinity (Region (CurrentWire), PROCESSOR)`), reusing that region of
//! the CostArray in the processor's cache. Distributing the regions across
//! memories additionally turns the remaining misses into local ones.
//!
//! Versions:
//! * `Base` — wires scheduled round-robin "without regard for locality".
//! * `Affinity` — processor-affinity hint by region (no distribution).
//! * `AffinityDistr` — hint + CostArray regions physically distributed.

use std::cell::RefCell;
use std::rc::Rc;

use cool_core::{AffinitySpec, ObjRef};
use cool_sim::{FaultPlan, SimConfig, SimRuntime, Task, TaskCtx};
use workloads::circuit::{Circuit, Net, Wire};

use crate::common::{AppReport, RoundRobin, Version};

/// A concrete route: the cells a wire occupies.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct Route {
    /// The `(x, y)` routing cells the route occupies.
    pub cells: Vec<(usize, usize)>,
}

/// Cycles charged per CostArray cell examined.
const CELL_EVAL_CYCLES: u64 = 6;

struct State {
    /// Occupancy per routing cell (the CostArray; one u32 per cell here —
    /// the paper stores horizontal+vertical counts, we keep one combined
    /// count per cell plus direction implied by path segments).
    cost: Vec<u32>,
    /// Current route of each wire (empty before the first iteration).
    routes: Vec<Route>,
}

/// LocusRoute parameters: the circuit plus iteration count.
#[derive(Clone, Debug)]
pub struct LocusParams {
    /// The circuit to route.
    pub circuit: Circuit,
    /// Routing passes over every wire (`Number` in Figure 9).
    pub iterations: usize,
}

/// One full run.
pub fn run(cfg: SimConfig, params: &LocusParams, version: Version) -> AppReport {
    run_with_faults(cfg, params, version, None)
}

/// One full run, optionally perturbed by a deterministic [`FaultPlan`]
/// (stragglers, stalls, transient task failures). Injection moves only the
/// schedule and timing; the routing result is unaffected.
pub fn run_with_faults(
    cfg: SimConfig,
    params: &LocusParams,
    version: Version,
    faults: Option<FaultPlan>,
) -> AppReport {
    let mut rt = SimRuntime::new(cfg);
    if let Some(plan) = faults {
        rt.set_fault_plan(plan);
    }
    let nprocs = rt.nservers();
    let circ = &params.circuit;
    let (w, h, nregions) = (circ.width, circ.height, circ.regions);
    let cell_bytes = 8u64; // two 32-bit counts per routing cell in the paper
    let strip = w / nregions;

    // The CostArray, column-major by strips so a region is contiguous.
    // Base/Affinity: allocated from one memory. AffinityDistr: region r
    // migrated to processor r's local memory.
    let cost_obj = rt
        .machine_mut()
        .alloc_on_proc(0, (w * h) as u64 * cell_bytes);
    if version.distributes() {
        for r in 0..nregions {
            let x0 = r * strip;
            let x1 = if r + 1 == nregions { w } else { (r + 1) * strip };
            let off = (x0 * h) as u64 * cell_bytes;
            let len = ((x1 - x0) * h) as u64 * cell_bytes;
            rt.machine_mut().migrate_to_proc(cost_obj.offset(off), len, r % nprocs);
        }
    }

    let state = Rc::new(RefCell::new(State {
        cost: vec![0; w * h],
        routes: vec![Route::default(); circ.nets.len()],
    }));

    rt.reset_monitor();
    let rr = Rc::new(RoundRobin::default());

    for _iter in 0..params.iterations {
        let state = state.clone();
        let rr = rr.clone();
        let nets = circ.nets.clone();
        let circ2 = circ.clone();
        rt.run_phase(move |ctx| {
            for (wi, net) in nets.iter().enumerate() {
                let state = state.clone();
                let net = net.clone();
                let region = circ2.region_of_net(&net);
                let body = move |c: &mut TaskCtx<'_>| {
                    route_net(c, &state, wi, &net, w, h, cost_obj, cell_bytes);
                };
                let task = if version.hints() {
                    // affinity (Region (CurrentWire), PROCESSOR) — Figure 9.
                    Task::new(body).with_affinity(AffinitySpec::processor(region))
                } else {
                    Task::new(body).with_affinity(AffinitySpec::processor(rr.next()))
                };
                ctx.spawn(task);
            }
        });
    }

    let run = rt.report();
    let max_error = verify(circ, &state.borrow()) as f64;
    AppReport {
        version,
        run,
        max_error,
        obs: rt.take_obs(),
    }
}

/// Route one net: rip out the old route, route each pin-to-pin segment of
/// the chain (evaluating candidates against the CostArray), and commit the
/// union.
#[allow(clippy::too_many_arguments)]
fn route_net(
    c: &mut TaskCtx<'_>,
    state: &Rc<RefCell<State>>,
    wi: usize,
    net: &Net,
    w: usize,
    h: usize,
    cost_obj: ObjRef,
    cell_bytes: u64,
) {
    let mut st = state.borrow_mut();
    let st = &mut *st;
    // Rip out the previous route. CostArray updates are relaxed atomics: the
    // real LocusRoute lets concurrent wire tasks read slightly stale
    // occupancy counts by design (a SPLASH "benign race"), so the accesses
    // are race-exempt against each other for the analyzer while costing the
    // same machine traffic.
    let old = std::mem::take(&mut st.routes[wi]);
    for &(x, y) in &old.cells {
        st.cost[x * h + y] -= 1;
        c.write_atomic(cost_obj.offset((x * h + y) as u64 * cell_bytes), cell_bytes);
    }
    // Route each segment of the pin chain; the net's route is the union.
    let mut cells: Vec<(usize, usize)> = Vec::new();
    let mut examined = 0u64;
    for wire in net.segments() {
        let candidates = candidate_routes(wire, w, h);
        let mut best: Option<(u64, Route)> = None;
        for cand in candidates {
            let mut total = 0u64;
            for &(x, y) in &cand.cells {
                total += st.cost[x * h + y] as u64;
                c.read_atomic(cost_obj.offset((x * h + y) as u64 * cell_bytes), cell_bytes);
                examined += 1;
            }
            // Penalise length so ties prefer shorter routes.
            total = total * 4 + cand.cells.len() as u64;
            if best.as_ref().is_none_or(|(b, _)| total < *b) {
                best = Some((total, cand));
            }
        }
        let (_, chosen) = best.expect("at least one candidate route");
        cells.extend_from_slice(&chosen.cells);
    }
    c.compute(examined * CELL_EVAL_CYCLES);
    cells.sort_unstable();
    cells.dedup();
    let chosen = Route { cells };
    for &(x, y) in &chosen.cells {
        st.cost[x * h + y] += 1;
        c.write_atomic(cost_obj.offset((x * h + y) as u64 * cell_bytes), cell_bytes);
    }
    st.routes[wi] = chosen;
}

/// Candidate routes: the two L-shaped single-bend routes and Z-shaped routes
/// with the vertical jog at a few intermediate columns. Crate-visible so the
/// service adapter routes with the same candidate generator.
pub(crate) fn candidate_routes(wire: Wire, _w: usize, _h: usize) -> Vec<Route> {
    let (x0, y0) = wire.from;
    let (x1, y1) = wire.to;
    let mut out = Vec::new();
    // L-route A: horizontal at y0 then vertical at x1.
    out.push(l_route(x0, y0, x1, y1, false));
    if x0 != x1 && y0 != y1 {
        // L-route B: vertical at x0 then horizontal at y1.
        out.push(l_route(x0, y0, x1, y1, true));
        // Z-routes: jog at up to 3 interior columns.
        let (lo, hi) = (x0.min(x1), x0.max(x1));
        if hi - lo > 1 {
            let step = ((hi - lo) / 4).max(1);
            let mut xm = lo + step;
            while xm < hi && out.len() < 5 {
                out.push(z_route(x0, y0, x1, y1, xm));
                xm += step;
            }
        }
    }
    out
}

fn hseg(y: usize, xa: usize, xb: usize) -> impl Iterator<Item = (usize, usize)> {
    let (lo, hi) = (xa.min(xb), xa.max(xb));
    (lo..=hi).map(move |x| (x, y))
}

fn vseg(x: usize, ya: usize, yb: usize) -> impl Iterator<Item = (usize, usize)> {
    let (lo, hi) = (ya.min(yb), ya.max(yb));
    (lo..=hi).map(move |y| (x, y))
}

fn l_route(x0: usize, y0: usize, x1: usize, y1: usize, vertical_first: bool) -> Route {
    let mut cells: Vec<(usize, usize)> = if vertical_first {
        vseg(x0, y0, y1).chain(hseg(y1, x0, x1)).collect()
    } else {
        hseg(y0, x0, x1).chain(vseg(x1, y0, y1)).collect()
    };
    cells.sort_unstable();
    cells.dedup();
    Route { cells }
}

fn z_route(x0: usize, y0: usize, x1: usize, y1: usize, xm: usize) -> Route {
    let mut cells: Vec<(usize, usize)> = hseg(y0, x0, xm)
        .chain(vseg(xm, y0, y1))
        .chain(hseg(y1, xm, x1))
        .collect();
    cells.sort_unstable();
    cells.dedup();
    Route { cells }
}

/// Verification: every wire has a legal route connecting its pins, and the
/// CostArray is exactly the sum of route occupancies. Returns the number of
/// violations (must be 0).
fn verify(circ: &Circuit, st: &State) -> usize {
    let (w, h) = (circ.width, circ.height);
    let mut violations = 0;
    let mut expect = vec![0u32; w * h];
    for (wi, net) in circ.nets.iter().enumerate() {
        let r = &st.routes[wi];
        if r.cells.is_empty() {
            violations += 1;
            continue;
        }
        if net.pins.iter().any(|p| !r.cells.contains(p)) {
            violations += 1;
        }
        for &(x, y) in &r.cells {
            if x >= w || y >= h {
                violations += 1;
            } else {
                expect[x * h + y] += 1;
            }
        }
        // Connectivity: the cell set must be connected (4-neighbourhood).
        if !connected(&r.cells) {
            violations += 1;
        }
    }
    if expect != st.cost {
        violations += 1;
    }
    violations
}

fn connected(cells: &[(usize, usize)]) -> bool {
    if cells.is_empty() {
        return false;
    }
    let set: std::collections::HashSet<(usize, usize)> = cells.iter().copied().collect();
    let mut seen = std::collections::HashSet::new();
    let mut stack = vec![cells[0]];
    seen.insert(cells[0]);
    while let Some((x, y)) = stack.pop() {
        let mut push = |nx: usize, ny: usize| {
            if set.contains(&(nx, ny)) && seen.insert((nx, ny)) {
                stack.push((nx, ny));
            }
        };
        if x > 0 {
            push(x - 1, y);
        }
        push(x + 1, y);
        if y > 0 {
            push(x, y - 1);
        }
        push(x, y + 1);
    }
    seen.len() == set.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::sim_config_small;
    use workloads::circuit::CircuitParams;

    fn small() -> LocusParams {
        LocusParams {
            circuit: Circuit::generate(CircuitParams {
                width: 64,
                height: 16,
                regions: 4,
                wires_per_region: 24,
                crossing_fraction: 0.1,
            multi_pin_fraction: 0.15,
                seed: 11,
            }),
            iterations: 2,
        }
    }

    #[test]
    fn routes_are_legal_in_all_versions() {
        for v in [Version::Base, Version::Affinity, Version::AffinityDistr] {
            let rep = run(sim_config_small(4, v), &small(), v);
            assert_eq!(rep.max_error, 0.0, "{v:?} produced illegal routes");
        }
    }

    #[test]
    fn affinity_routes_most_wires_on_their_region_processor() {
        // 4 regions on 4 processors: every hinted wire maps to one server.
        let rep = run(
            sim_config_small(4, Version::Affinity),
            &small(),
            Version::Affinity,
        );
        // The paper reports >80% adherence.
        assert!(
            rep.run.stats.adherence() > 0.8,
            "adherence {}",
            rep.run.stats.adherence()
        );
    }

    #[test]
    fn affinity_reduces_cache_misses() {
        let p = small();
        let base = run(sim_config_small(4, Version::Base), &p, Version::Base);
        let aff = run(sim_config_small(4, Version::Affinity), &p, Version::Affinity);
        assert!(
            aff.run.mem.misses() < base.run.mem.misses(),
            "affinity {} vs base {} misses",
            aff.run.mem.misses(),
            base.run.mem.misses()
        );
    }

    #[test]
    fn distribution_raises_local_fraction() {
        use crate::common::sim_config_small_flat;
        let p = small();
        let aff = run(sim_config_small_flat(8, Version::Affinity), &p, Version::Affinity);
        let distr = run(
            sim_config_small_flat(8, Version::AffinityDistr),
            &p,
            Version::AffinityDistr,
        );
        assert!(
            distr.run.mem.local_fraction() > aff.run.mem.local_fraction(),
            "distr {} vs aff {}",
            distr.run.mem.local_fraction(),
            aff.run.mem.local_fraction()
        );
    }

    #[test]
    fn candidate_routes_connect_pins() {
        let wire = Wire {
            from: (3, 2),
            to: (10, 9),
        };
        for r in candidate_routes(wire, 16, 16) {
            assert!(r.cells.contains(&wire.from));
            assert!(r.cells.contains(&wire.to));
            assert!(connected(&r.cells), "{r:?}");
        }
    }

    #[test]
    fn degenerate_wires_route() {
        // Same-cell wire and straight-line wire.
        for wire in [
            Wire {
                from: (5, 5),
                to: (5, 5),
            },
            Wire {
                from: (2, 7),
                to: (9, 7),
            },
        ] {
            let c = candidate_routes(wire, 16, 16);
            assert!(!c.is_empty());
            assert!(c[0].cells.contains(&wire.from) && c[0].cells.contains(&wire.to));
        }
    }
}
