//! Barnes-Hut (Section 6.4): hierarchical N-body force calculation.
//!
//! Each timestep: build the octree (sequential, it is a small fraction of
//! the work), compute forces on all bodies with the θ-criterion (the
//! dominant phase, parallelised over body groups), and advance positions.
//!
//! Groups are **costzones**, as in the SPLASH code: bodies are kept in
//! Morton (space-filling-curve) order and partitioned into contiguous
//! chunks of equal *interaction cost*, using each body's node-visit count
//! from the previous timestep. Spatial contiguity is what makes affinity
//! pay: a group's traversal revisits the same subtree each step, so running
//! the group on the same processor reuses both the bodies and that subtree
//! in its cache, and distribution keeps the body pages in local memory.
//!
//! Versions: `Base` (bodies and tree on one memory, tasks round-robin),
//! `Distr` (zones distributed + tree interleaved, tasks round-robin),
//! `AffinityDistr` (distribution + simple affinity on the zone).

use std::cell::RefCell;
use std::rc::Rc;

use cool_core::AffinitySpec;
use cool_sim::{FaultPlan, SimConfig, SimRuntime, Task, TaskCtx};
use workloads::nbody::{plummer, Body};

use crate::common::{AppReport, RoundRobin, Version};

/// Cycles per body-cell interaction evaluated.
const INTERACTION_CYCLES: u64 = 12;
/// Bytes mirrored per tree node visited.
const NODE_BYTES: u64 = 64;
/// Bytes per body (pos + vel + mass + acc).
const BODY_BYTES: u64 = 80;

/// Barnes-Hut parameters.
#[derive(Clone, Copy, Debug)]
pub struct BhParams {
    /// Number of bodies.
    pub nbodies: usize,
    /// Costzone body groups the force phase is split into.
    pub groups: usize,
    /// Simulated time steps.
    pub timesteps: usize,
    /// Opening angle; 0 degenerates to exact pairwise summation.
    pub theta: f64,
    /// Time-step length.
    pub dt: f64,
    /// Seed of the Plummer-model bodies.
    pub seed: u64,
}

impl Default for BhParams {
    fn default() -> Self {
        BhParams {
            nbodies: 512,
            groups: 32,
            timesteps: 2,
            theta: 0.6,
            dt: 0.01,
            seed: 1,
        }
    }
}

// ----- octree -----

/// One octree node: an internal cell with centre of mass, or a leaf body.
#[derive(Clone, Debug)]
enum Node {
    Leaf {
        body: usize,
    },
    Cell {
        /// Geometric centre and half-width of the cube.
        center: [f64; 3],
        half: f64,
        /// Total mass and centre of mass.
        mass: f64,
        com: [f64; 3],
        children: [Option<usize>; 8],
    },
}

/// A flat-arena octree over body positions.
pub struct Octree {
    nodes: Vec<Node>,
    root: Option<usize>,
}

impl Octree {
    /// Build the tree over the given bodies.
    pub fn build(bodies: &[Body]) -> Self {
        let mut t = Octree {
            nodes: Vec::with_capacity(bodies.len() * 2),
            root: None,
        };
        if bodies.is_empty() {
            return t;
        }
        // Bounding cube.
        let mut maxc: f64 = 1e-9;
        for b in bodies {
            for d in 0..3 {
                maxc = maxc.max(b.pos[d].abs());
            }
        }
        let root = t.new_cell([0.0; 3], maxc * 1.0001);
        t.root = Some(root);
        for (i, b) in bodies.iter().enumerate() {
            t.insert(root, i, b.pos, bodies);
        }
        t.summarize(root, bodies);
        t
    }

    fn new_cell(&mut self, center: [f64; 3], half: f64) -> usize {
        self.nodes.push(Node::Cell {
            center,
            half,
            mass: 0.0,
            com: [0.0; 3],
            children: [None; 8],
        });
        self.nodes.len() - 1
    }

    fn octant(center: &[f64; 3], p: &[f64; 3]) -> usize {
        (usize::from(p[0] >= center[0]))
            | (usize::from(p[1] >= center[1]) << 1)
            | (usize::from(p[2] >= center[2]) << 2)
    }

    fn child_center(center: &[f64; 3], half: f64, oct: usize) -> [f64; 3] {
        let q = half / 2.0;
        [
            center[0] + if oct & 1 != 0 { q } else { -q },
            center[1] + if oct & 2 != 0 { q } else { -q },
            center[2] + if oct & 4 != 0 { q } else { -q },
        ]
    }

    fn insert(&mut self, cell: usize, body: usize, pos: [f64; 3], bodies: &[Body]) {
        let (center, half, oct) = match &self.nodes[cell] {
            Node::Cell { center, half, .. } => (*center, *half, Self::octant(center, &pos)),
            Node::Leaf { .. } => unreachable!("insert target must be a cell"),
        };
        let child = match &self.nodes[cell] {
            Node::Cell { children, .. } => children[oct],
            _ => unreachable!(),
        };
        match child {
            None => {
                self.nodes.push(Node::Leaf { body });
                let leaf = self.nodes.len() - 1;
                if let Node::Cell { children, .. } = &mut self.nodes[cell] {
                    children[oct] = Some(leaf);
                }
            }
            Some(c) => match self.nodes[c] {
                Node::Cell { .. } => self.insert(c, body, pos, bodies),
                Node::Leaf { body: other } => {
                    // Split: replace the leaf with a cell and push both
                    // bodies down. (Coincident bodies would recurse forever;
                    // the Plummer generator never produces them, and we guard
                    // with a depth floor on the cell size.)
                    let cc = Self::child_center(&center, half, oct);
                    let half2 = half / 2.0;
                    if half2 < 1e-12 {
                        // Degenerate: keep the existing leaf, drop the new
                        // body into the same leaf slot (approximation).
                        return;
                    }
                    let ncell = self.new_cell(cc, half2);
                    if let Node::Cell { children, .. } = &mut self.nodes[cell] {
                        children[oct] = Some(ncell);
                    }
                    self.insert(ncell, other, bodies[other].pos, bodies);
                    self.insert(ncell, body, pos, bodies);
                }
            },
        }
    }

    /// Bottom-up mass/centre-of-mass summary.
    fn summarize(&mut self, node: usize, bodies: &[Body]) -> (f64, [f64; 3]) {
        match self.nodes[node].clone() {
            Node::Leaf { body } => (bodies[body].mass, bodies[body].pos),
            Node::Cell { children, .. } => {
                let mut m = 0.0;
                let mut com = [0.0; 3];
                for c in children.into_iter().flatten() {
                    let (cm, ccom) = self.summarize(c, bodies);
                    m += cm;
                    for d in 0..3 {
                        com[d] += cm * ccom[d];
                    }
                }
                if m > 0.0 {
                    for d in com.iter_mut() {
                        *d /= m;
                    }
                }
                if let Node::Cell { mass, com: c, .. } = &mut self.nodes[node] {
                    *mass = m;
                    *c = com;
                }
                (m, com)
            }
        }
    }

    /// Force on the body at `pos` (excluding `skip`) with opening angle
    /// `theta`. Returns (acceleration, nodes_visited).
    pub fn force(
        &self,
        pos: [f64; 3],
        skip: usize,
        theta: f64,
        bodies: &[Body],
    ) -> ([f64; 3], u64) {
        let mut acc = [0.0; 3];
        let mut visited = 0;
        if let Some(root) = self.root {
            self.force_rec(root, pos, skip, theta, bodies, &mut acc, &mut visited);
        }
        (acc, visited)
    }

    #[allow(clippy::too_many_arguments)]
    fn force_rec(
        &self,
        node: usize,
        pos: [f64; 3],
        skip: usize,
        theta: f64,
        bodies: &[Body],
        acc: &mut [f64; 3],
        visited: &mut u64,
    ) {
        *visited += 1;
        const EPS2: f64 = 1e-6;
        match &self.nodes[node] {
            Node::Leaf { body } => {
                if *body == skip {
                    return;
                }
                add_grav(acc, pos, bodies[*body].pos, bodies[*body].mass, EPS2);
            }
            Node::Cell {
                half,
                mass,
                com,
                children,
                ..
            } => {
                if *mass == 0.0 {
                    return;
                }
                let mut d2 = EPS2;
                for d in 0..3 {
                    let dx = com[d] - pos[d];
                    d2 += dx * dx;
                }
                let size = 2.0 * half;
                if size * size < theta * theta * d2 {
                    // Far enough: treat as a point mass.
                    add_grav(acc, pos, *com, *mass, EPS2);
                } else {
                    for c in children.iter().flatten() {
                        self.force_rec(*c, pos, skip, theta, bodies, acc, visited);
                    }
                }
            }
        }
    }

    /// Node count (for mirroring tree reads).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when the tree has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }
}

fn add_grav(acc: &mut [f64; 3], pos: [f64; 3], other: [f64; 3], mass: f64, eps2: f64) {
    let mut d2 = eps2;
    let mut dx = [0.0; 3];
    for d in 0..3 {
        dx[d] = other[d] - pos[d];
        d2 += dx[d] * dx[d];
    }
    let inv = mass / (d2 * d2.sqrt());
    for d in 0..3 {
        acc[d] += dx[d] * inv;
    }
}

/// Exact pairwise forces (verification reference).
pub fn direct_forces(bodies: &[Body]) -> Vec<[f64; 3]> {
    let n = bodies.len();
    let mut acc = vec![[0.0; 3]; n];
    for i in 0..n {
        for j in 0..n {
            if i != j {
                add_grav(&mut acc[i], bodies[i].pos, bodies[j].pos, bodies[j].mass, 1e-6);
            }
        }
    }
    acc
}

// ----- the COOL program -----

struct State {
    bodies: Vec<Body>,
    acc: Vec<[f64; 3]>,
    /// Interaction cost (tree nodes visited) per body, from the previous
    /// force phase; drives the costzone partition.
    cost: Vec<u64>,
    tree: Option<Rc<Octree>>,
}

/// Partition `0..n` into `groups` contiguous chunks of roughly equal total
/// cost (the costzones of SPLASH Barnes-Hut).
fn costzones(cost: &[u64], groups: usize) -> Vec<(usize, usize)> {
    let n = cost.len();
    let total: u64 = cost.iter().sum::<u64>().max(1);
    let per = total.div_ceil(groups as u64).max(1);
    let mut zones = Vec::with_capacity(groups);
    let mut lo = 0;
    let mut acc = 0u64;
    for (i, &c) in cost.iter().enumerate() {
        acc += c;
        // Close the zone once it holds its share, keeping enough bodies for
        // the remaining zones to be non-empty.
        let remaining_zones = groups - zones.len();
        if (acc >= per && n - i > remaining_zones - 1) || n - i == remaining_zones {
            zones.push((lo, i + 1));
            lo = i + 1;
            acc = 0;
            if zones.len() == groups - 1 {
                break;
            }
        }
    }
    if lo < n {
        zones.push((lo, n));
    }
    while zones.len() < groups {
        zones.push((n, n));
    }
    zones
}

/// One full run.
pub fn run(cfg: SimConfig, params: &BhParams, version: Version) -> AppReport {
    run_with_faults(cfg, params, version, None)
}

/// One full run, optionally perturbed by a deterministic [`FaultPlan`]
/// (stragglers, stalls, transient task failures). Injection moves only the
/// schedule and timing; the force results are unaffected.
pub fn run_with_faults(
    cfg: SimConfig,
    params: &BhParams,
    version: Version,
    faults: Option<FaultPlan>,
) -> AppReport {
    let mut rt = SimRuntime::new(cfg);
    if let Some(plan) = faults {
        rt.set_fault_plan(plan);
    }
    let nprocs = rt.nservers();
    let n = params.nbodies;
    let groups = params.groups.min(n);

    // Bodies live in one array, kept in Morton order for spatial contiguity
    // of the costzones. The tree is a second shared object, rebuilt per step.
    let mut bodies = plummer(n, params.seed);
    bodies.sort_by_key(|b| morton_key(b.pos));
    let bodies_bytes = (n as u64) * BODY_BYTES;
    let bodies_obj = rt.machine_mut().alloc_on_proc(0, bodies_bytes);
    // Generous arena bound: leaves (n) + internal cells (worst case ~2n for
    // clustered distributions); mirrored reads/writes are capped at this.
    let tree_bytes = (4 * n) as u64 * NODE_BYTES;
    // The tree is shared by every force task. Distributing versions
    // interleave it across memories (the SPLASH code distributes cells);
    // Base leaves it in one memory.
    let tree_obj = if version.distributes() {
        rt.machine_mut().alloc_interleaved(tree_bytes)
    } else {
        rt.machine_mut().alloc_on_proc(0, tree_bytes)
    };

    let state = Rc::new(RefCell::new(State {
        bodies,
        acc: vec![[0.0; 3]; n],
        cost: vec![1; n],
        tree: None,
    }));

    rt.reset_monitor();
    let rr = Rc::new(RoundRobin::default());

    for _step in 0..params.timesteps {
        // Costzone partition from last step's per-body costs.
        let zones = costzones(&state.borrow().cost, groups);
        // Distribute: migrate each zone's body range to its processor —
        // zones drift slowly between steps, so most pages stay put.
        // The zone→processor map is stable across steps (contiguous zones on
        // contiguous processors), so each processor revisits the same bodies
        // and subtree every timestep — the cache-reuse effect the paper's
        // hints target. Zone ranges are not page-aligned, so placement works
        // through this map rather than `home()` (the pages migrate to the
        // same processor, making most body misses local too).
        let zone_proc = |g: usize| g * nprocs / groups;
        if version.distributes() {
            for (g, &(lo, hi)) in zones.iter().enumerate() {
                if lo < hi {
                    let off = (lo as u64) * BODY_BYTES;
                    let len = ((hi - lo) as u64) * BODY_BYTES;
                    rt.machine_mut()
                        .migrate_to_proc(bodies_obj.offset(off), len, zone_proc(g));
                }
            }
        }
        // Tree build: sequential phase (the paper parallelises force
        // computation; tree build is a small fraction).
        {
            let state = state.clone();
            rt.run_phase(move |ctx| {
                let mut st = state.borrow_mut();
                let tree = Octree::build(&st.bodies);
                ctx.write(tree_obj, (tree.len() as u64 * NODE_BYTES).min(tree_bytes));
                ctx.compute(tree.len() as u64 * 20);
                st.tree = Some(Rc::new(tree));
            });
        }
        // Force phase: one task per costzone.
        {
            let state = state.clone();
            let rr = rr.clone();
            let params = *params;
            let zones = zones.clone();
            let zone_proc = move |g: usize| g * nprocs / groups;
            rt.run_phase(move |ctx| {
                for (g, &(lo, hi)) in zones.iter().enumerate() {
                    if lo >= hi {
                        continue;
                    }
                    let state = state.clone();
                    let zone_obj = bodies_obj.offset((lo as u64) * BODY_BYTES);
                    let body = move |c: &mut TaskCtx<'_>| {
                        let (visited, count) = {
                            let mut st = state.borrow_mut();
                            let st = &mut *st;
                            let tree = st.tree.as_ref().expect("tree built").clone();
                            let mut visited = 0;
                            for i in lo..hi {
                                let (a, v) =
                                    tree.force(st.bodies[i].pos, i, params.theta, &st.bodies);
                                st.acc[i] = a;
                                st.cost[i] = v;
                                visited += v;
                            }
                            (visited, (hi - lo) as u64)
                        };
                        c.read(zone_obj, count * BODY_BYTES);
                        // Tree traversal locality: every task touches the top
                        // of the tree (shared, read-only), then the subtree
                        // around its own spatial region — zones are Morton-
                        // contiguous, so a zone's traversal revisits the same
                        // subtree each timestep. Mirror that as a shared
                        // prefix plus a per-zone region scaled by the nodes
                        // actually visited.
                        c.read(tree_obj, 1024);
                        let region_off =
                            ((lo as u64) * tree_bytes / n as u64) & !63;
                        let region_len =
                            (visited * 8).min(tree_bytes - region_off).max(64);
                        c.read(tree_obj.offset(region_off), region_len);
                        c.write(zone_obj, count * 24); // accelerations
                        c.compute(visited * INTERACTION_CYCLES);
                    };
                    let task = if version.hints() {
                        Task::new(body).with_affinity(AffinitySpec::processor(zone_proc(g)))
                    } else {
                        Task::new(body).with_affinity(AffinitySpec::processor(rr.next()))
                    };
                    ctx.spawn(task);
                }
            });
        }
        // Advance phase: integrate positions (parallel over the same zones).
        {
            let state = state.clone();
            let rr = rr.clone();
            let params = *params;
            let zones = zones.clone();
            let zone_proc = move |g: usize| g * nprocs / groups;
            rt.run_phase(move |ctx| {
                for (g, &(lo, hi)) in zones.iter().enumerate() {
                    if lo >= hi {
                        continue;
                    }
                    let state = state.clone();
                    let zone_obj = bodies_obj.offset((lo as u64) * BODY_BYTES);
                    let body = move |c: &mut TaskCtx<'_>| {
                        {
                            let mut st = state.borrow_mut();
                            let st = &mut *st;
                            for i in lo..hi {
                                for d in 0..3 {
                                    st.bodies[i].vel[d] += params.dt * st.acc[i][d];
                                    st.bodies[i].pos[d] += params.dt * st.bodies[i].vel[d];
                                }
                            }
                        }
                        let count = (hi - lo) as u64;
                        c.read(zone_obj, count * BODY_BYTES);
                        c.write(zone_obj, count * BODY_BYTES);
                        c.compute(count * 12);
                    };
                    let task = if version.hints() {
                        Task::new(body).with_affinity(AffinitySpec::processor(zone_proc(g)))
                    } else {
                        Task::new(body).with_affinity(AffinitySpec::processor(rr.next()))
                    };
                    ctx.spawn(task);
                }
            });
        }
    }

    let run = rt.report();
    let max_error = verify(params, &state.borrow().bodies);
    AppReport {
        version,
        run,
        max_error,
        obs: rt.take_obs(),
    }
}

fn morton_key(pos: [f64; 3]) -> u64 {
    // Quantise to 10 bits per axis over [-25, 25] and interleave.
    let mut key = 0u64;
    for bit in 0..10 {
        for (d, p) in pos.iter().enumerate() {
            let q = (((p + 25.0) / 50.0).clamp(0.0, 0.999) * 1024.0) as u64;
            key |= ((q >> bit) & 1) << (bit * 3 + d);
        }
    }
    key
}

/// Sequential reference: same computation single-threaded; returns the max
/// position deviation. (Schedule independence: forces are double-buffered
/// into `acc`, so any schedule gives identical trajectories.)
fn verify(params: &BhParams, result: &[Body]) -> f64 {
    let mut bodies = plummer(params.nbodies, params.seed);
    bodies.sort_by_key(|b| morton_key(b.pos));
    let n = bodies.len();
    let mut acc = vec![[0.0; 3]; n];
    for _ in 0..params.timesteps {
        let tree = Octree::build(&bodies);
        for (i, a) in acc.iter_mut().enumerate() {
            *a = tree.force(bodies[i].pos, i, params.theta, &bodies).0;
        }
        for (b, a) in bodies.iter_mut().zip(&acc) {
            for (d, &ad) in a.iter().enumerate() {
                b.vel[d] += params.dt * ad;
                b.pos[d] += params.dt * b.vel[d];
            }
        }
    }
    let mut err = 0.0f64;
    for (a, b) in bodies.iter().zip(result) {
        for d in 0..3 {
            err = err.max((a.pos[d] - b.pos[d]).abs());
        }
    }
    err
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::sim_config_small;

    fn p() -> BhParams {
        BhParams {
            nbodies: 128,
            groups: 16,
            timesteps: 2,
            theta: 0.6,
            dt: 0.01,
            seed: 4,
        }
    }

    #[test]
    fn theta_zero_matches_direct_summation() {
        let bodies = plummer(64, 9);
        let tree = Octree::build(&bodies);
        let direct = direct_forces(&bodies);
        for (i, d) in direct.iter().enumerate() {
            let (a, _) = tree.force(bodies[i].pos, i, 0.0, &bodies);
            for k in 0..3 {
                assert!(
                    (a[k] - d[k]).abs() < 1e-9,
                    "body {i} axis {k}: {} vs {}",
                    a[k],
                    d[k]
                );
            }
        }
    }

    #[test]
    fn theta_point_six_approximates_direct() {
        let bodies = plummer(128, 2);
        let tree = Octree::build(&bodies);
        let direct = direct_forces(&bodies);
        let mut rel_err = 0.0f64;
        for (i, d) in direct.iter().enumerate() {
            let (a, _) = tree.force(bodies[i].pos, i, 0.6, &bodies);
            let mag: f64 = d.iter().map(|x| x * x).sum::<f64>().sqrt();
            let diff: f64 = a
                .iter()
                .zip(d)
                .map(|(x, y)| (x - y) * (x - y))
                .sum::<f64>()
                .sqrt();
            if mag > 1e-9 {
                rel_err = rel_err.max(diff / mag);
            }
        }
        assert!(rel_err < 0.1, "θ=0.6 rel error {rel_err}");
    }

    #[test]
    fn tree_mass_equals_total_mass() {
        let bodies = plummer(200, 3);
        let tree = Octree::build(&bodies);
        if let Some(root) = tree.root {
            if let Node::Cell { mass, .. } = &tree.nodes[root] {
                assert!((mass - 1.0).abs() < 1e-9);
            } else {
                panic!("root must be a cell");
            }
        }
    }

    #[test]
    fn all_versions_compute_identical_trajectories() {
        for v in [Version::Base, Version::Distr, Version::AffinityDistr] {
            let rep = run(sim_config_small(4, v), &p(), v);
            assert!(rep.max_error < 1e-12, "{v:?}: {}", rep.max_error);
        }
    }

    #[test]
    fn affinity_version_reuses_caches_better() {
        // Barnes-Hut's benefit is cache reuse across timesteps (the same
        // processor revisits the same zone and subtree), so the figure of
        // merit is misses and elapsed time, not local-memory fraction (the
        // tree is interleaved in the distributing version).
        use crate::common::sim_config_small_flat;
        let mut params = p();
        params.timesteps = 4; // reuse needs repeated steps
        let base = run(sim_config_small_flat(8, Version::Base), &params, Version::Base);
        let aff = run(
            sim_config_small_flat(8, Version::AffinityDistr),
            &params,
            Version::AffinityDistr,
        );
        assert!(
            aff.run.mem.misses() < base.run.mem.misses(),
            "affinity should reduce misses: {} vs {}",
            aff.run.mem.misses(),
            base.run.mem.misses()
        );
        assert!(
            aff.run.elapsed < base.run.elapsed,
            "affinity should be faster: {} vs {}",
            aff.run.elapsed,
            base.run.elapsed
        );
    }
}
