//! Work-stealing policy and machine topology knobs.
//!
//! Section 4.2 of the paper describes the stealing behaviour the runtime
//! layers on top of the affinity hints: idle processors steal; task-affinity
//! sets are stolen as a set; object-affinity tasks should preferably not be
//! stolen. Section 6.3 adds *cluster stealing* — an idle processor first (or
//! only) steals from processors within its own cluster so stolen tasks keep
//! referencing the destination object in local memory — controlled in the
//! paper by a runtime flag the programmer can manipulate dynamically.
//!
//! The paper evaluates on DASH's fixed 2-level machine (processors grouped
//! into clusters sharing a memory). Modern machines nest deeper — SMT pairs
//! inside cores inside chiplets inside sockets — so [`Topology`] generalizes
//! the cluster model to an N-level tree: each level groups a fixed number of
//! consecutive processors into a *domain*, domains nest, and one designated
//! level (the *memory level*) plays the role of the paper's cluster. Victim
//! scan orders widen domain by domain — nearest common ancestor first — and
//! [`StealPolicy`] gains a per-level radius and a politeness knob that widens
//! the steal domain one level per failed scan, in the spirit of the
//! bubble-scheduler line of work (Thibault et al.). A 2-level machine remains
//! a special case with byte-identical scan orders.
//!
//! [`StealPolicy::scan`] is the one steal scan: the simulator, the threaded
//! runtime and the model checker's `QueueMachine` all call it, each with
//! its own way of taking from one victim.

use std::ops::DerefMut;

use crate::feedback::PolicyFeedback;
use crate::ids::{ClusterId, ProcId};
use crate::queues::StolenBatch;
use crate::stats::SchedStats;

/// Maximum explicit levels in a machine tree (the implicit machine root sits
/// above the outermost one). Four levels model e.g. SMT pair → core cluster →
/// chiplet → socket.
pub const MAX_TOPO_LEVELS: usize = 4;

/// Machine topology as seen by the scheduler: an N-level tree of processor
/// groupings.
///
/// Level `l` (innermost first) groups `level_size(l)` consecutive processors
/// into a domain; sizes strictly increase and each divides the next, so
/// domains nest. One level — [`Topology::mem_level`] — is the *cluster*
/// level: the domains that share a local memory (the paper's DASH clusters).
/// The machine root sits implicitly above the outermost explicit level, at
/// level index [`Topology::nlevels`].
///
/// The classic 2-level DASH machine is [`Topology::clustered`]: one explicit
/// level (the cluster) under the root.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Topology {
    /// Number of server processes (one per processor).
    pub nservers: usize,
    /// Domain sizes per explicit level, innermost first; unused entries 1.
    levels: [usize; MAX_TOPO_LEVELS],
    /// Explicit levels in use.
    nlevels: u8,
    /// The level whose domains share a local memory.
    mem_level: u8,
}

impl Topology {
    /// A flat machine: every processor is its own cluster.
    pub fn flat(nservers: usize) -> Self {
        Self::clustered(nservers, 1)
    }

    /// DASH-like topology: clusters of `procs_per_cluster` processors.
    pub fn clustered(nservers: usize, procs_per_cluster: usize) -> Self {
        Self::tree(nservers, &[procs_per_cluster], 0)
    }

    /// An N-level tree. `level_sizes` are domain sizes innermost-first, each
    /// strictly larger than and divisible by the previous; `mem_level`
    /// designates which level's domains share a local memory. The processor
    /// count does not need to fill the tree — the last domain of any level
    /// may be ragged, exactly like the classic partial last cluster.
    pub fn tree(nservers: usize, level_sizes: &[usize], mem_level: usize) -> Self {
        assert!(
            !level_sizes.is_empty() && level_sizes.len() <= MAX_TOPO_LEVELS,
            "1..={MAX_TOPO_LEVELS} levels, got {}",
            level_sizes.len()
        );
        assert!(mem_level < level_sizes.len(), "mem_level out of range");
        let mut levels = [1usize; MAX_TOPO_LEVELS];
        for (l, &s) in level_sizes.iter().enumerate() {
            assert!(s > 0, "level sizes must be positive");
            if l > 0 {
                assert!(
                    s > level_sizes[l - 1] && s % level_sizes[l - 1] == 0,
                    "level sizes must strictly increase and nest: {level_sizes:?}"
                );
            }
            levels[l] = s;
        }
        Topology {
            nservers,
            levels,
            nlevels: level_sizes.len() as u8,
            mem_level: mem_level as u8,
        }
    }

    /// Explicit levels in the tree (the root above them is level `nlevels`).
    #[inline]
    pub fn nlevels(&self) -> usize {
        self.nlevels as usize
    }

    /// The level whose domains share a local memory (the paper's cluster).
    #[inline]
    pub fn mem_level(&self) -> usize {
        self.mem_level as usize
    }

    /// Domain size (processors per domain) at explicit level `l`.
    #[inline]
    pub fn level_size(&self, l: usize) -> usize {
        assert!(l < self.nlevels as usize);
        self.levels[l]
    }

    /// The domain sizes of all explicit levels, innermost first.
    pub fn level_sizes(&self) -> &[usize] {
        &self.levels[..self.nlevels as usize]
    }

    /// Processors per cluster (domain size at the memory level).
    #[inline]
    pub fn procs_per_cluster(&self) -> usize {
        self.levels[self.mem_level as usize]
    }

    /// The domain index of processor `p` at explicit level `l`.
    #[inline]
    pub fn domain_of(&self, p: ProcId, l: usize) -> usize {
        p.index() / self.levels[l]
    }

    /// Number of domains at explicit level `l` (last may be ragged).
    pub fn ndomains(&self, l: usize) -> usize {
        assert!(l < self.nlevels as usize);
        self.nservers.div_ceil(self.levels[l])
    }

    /// The cluster (memory-level domain) a processor belongs to.
    #[inline]
    pub fn cluster_of(&self, p: ProcId) -> ClusterId {
        ClusterId(p.index() / self.levels[self.mem_level as usize])
    }

    /// Number of clusters (last one may be partially populated).
    pub fn nclusters(&self) -> usize {
        self.nservers.div_ceil(self.levels[self.mem_level as usize])
    }

    /// Are two processors in the same cluster (sharing a local memory)?
    #[inline]
    pub fn same_cluster(&self, a: ProcId, b: ProcId) -> bool {
        self.cluster_of(a) == self.cluster_of(b)
    }

    /// The innermost explicit level at which `a` and `b` share a domain, or
    /// `nlevels` (the machine root) if they share none. Level 0 means the
    /// two processors are nearest neighbours; larger is farther apart.
    #[inline]
    pub fn common_level(&self, a: ProcId, b: ProcId) -> usize {
        for l in 0..self.nlevels as usize {
            if a.index() / self.levels[l] == b.index() / self.levels[l] {
                return l;
            }
        }
        self.nlevels as usize
    }

    /// Victim scan order for a thief: nearest domains first (common-ancestor
    /// level ascending), each bucket in round-robin order starting after the
    /// thief. On a 2-level machine this is exactly "same-cluster processors
    /// first, then remote" — byte-identical to the original order. A
    /// deterministic order keeps the simulation reproducible.
    pub fn steal_order(&self, thief: ProcId) -> Vec<ProcId> {
        self.order_with_levels(thief)
            .into_iter()
            .map(|(v, _)| v)
            .collect()
    }

    /// As [`Topology::steal_order`], with each victim's common-ancestor
    /// level attached.
    fn order_with_levels(&self, thief: ProcId) -> Vec<(ProcId, u8)> {
        let nl = self.nlevels as usize;
        let mut buckets: Vec<Vec<(ProcId, u8)>> = vec![Vec::new(); nl + 1];
        for k in 1..self.nservers {
            let v = ProcId((thief.index() + k) % self.nservers);
            let lvl = self.common_level(thief, v);
            buckets[lvl].push((v, lvl as u8));
        }
        buckets.concat()
    }

    /// Precompute every thief's victim order (see [`VictimOrders`]).
    pub fn victim_orders(&self) -> VictimOrders {
        VictimOrders::new(self)
    }
}

/// Precomputed victim scan orders for every thief.
///
/// [`Topology::steal_order`] allocates a fresh vector per call, and it sits
/// on the idle/steal hot path — every failed scan rebuilt the same order.
/// This table builds each order once; entries carry the victim together with
/// its common-ancestor level so level-widening policies need no per-probe
/// recomputation.
#[derive(Clone, Debug, Default)]
pub struct VictimOrders {
    /// All thieves' orders, concatenated; thief `t` owns
    /// `entries[t * stride .. (t + 1) * stride]`.
    entries: Vec<(ProcId, u8)>,
    /// Victims per thief (`nservers − 1`).
    stride: usize,
}

impl VictimOrders {
    /// Build the table for `topo` (O(nservers²) once, at runtime startup).
    pub fn new(topo: &Topology) -> Self {
        let stride = topo.nservers.saturating_sub(1);
        let mut entries = Vec::with_capacity(stride * topo.nservers);
        for t in 0..topo.nservers {
            entries.extend(topo.order_with_levels(ProcId(t)));
        }
        VictimOrders { entries, stride }
    }

    /// The scan order for `thief`: `(victim, common-ancestor level)` pairs,
    /// nearest domains first.
    #[inline]
    pub fn order(&self, thief: ProcId) -> &[(ProcId, u8)] {
        let s = thief.index() * self.stride;
        &self.entries[s..s + self.stride]
    }
}

/// Steal-policy configuration.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct StealPolicy {
    /// Master switch: disable stealing entirely (used by the round-robin
    /// "Base" versions in the case studies, which rely on even initial
    /// placement alone).
    pub enabled: bool,
    /// Thieves avoid tasks collocated with objects (OBJECT affinity).
    pub avoid_object_affinity: bool,
    /// Steal task-affinity sets as a whole (Section 4.2: "tasks scheduled
    /// with task-affinity can be stolen as a set ... and still benefit from
    /// cache locality"). When false, thieves take a single task even from
    /// affinity slots — the ablation shows the cache-reuse cost.
    pub steal_whole_sets: bool,
    /// After this many consecutive failed scans an idle server performs a
    /// last-resort steal ignoring `avoid_object_affinity`, guaranteeing
    /// progress (the locality ceiling `steal_radius` stays strict;
    /// `polite_widening` widens itself as scans fail).
    pub last_resort_after: usize,
    /// Locality ceiling: victims whose common ancestor with the thief is
    /// more than this many levels above the cluster level are never stolen
    /// from. `Some(0)` restricts stealing to the thief's cluster, so stolen
    /// tasks still reference the destination object in local memory (the
    /// `Distr+Aff+ClusterStealing` experiment of Section 6.3, see
    /// [`StealPolicy::cluster_only`]); `None` leaves the machine
    /// unrestricted.
    pub steal_radius: Option<usize>,
    /// Widen the steal domain politely, one topology level per consecutive
    /// failed scan: the first scan probes only nearest-neighbour domains,
    /// the next admits one level further out, and so on to the machine root.
    pub polite_widening: bool,
}

impl Default for StealPolicy {
    fn default() -> Self {
        StealPolicy {
            enabled: true,
            avoid_object_affinity: true,
            steal_whole_sets: true,
            last_resort_after: 2,
            steal_radius: None,
            polite_widening: false,
        }
    }
}

impl StealPolicy {
    /// A compact, stable fingerprint of the policy knobs, recorded in each
    /// `cool-repro` record's config string as provenance. A radius of 0
    /// prints as the classic `cluster=1`; topology-aware knobs (a radius of
    /// 1 or more, widening) append segments only when set, so classic
    /// policies keep their historical fingerprint.
    pub fn fingerprint(&self) -> String {
        let mut s = format!(
            "steal={} avoid={} sets={} cluster={} lr={}",
            u8::from(self.enabled),
            u8::from(self.avoid_object_affinity),
            u8::from(self.steal_whole_sets),
            u8::from(self.steal_radius == Some(0)),
            self.last_resort_after,
        );
        if let Some(r @ 1..) = self.steal_radius {
            s.push_str(&format!(" rad={r}"));
        }
        if self.polite_widening {
            s.push_str(" widen=1");
        }
        s
    }

    /// No stealing at all.
    pub fn disabled() -> Self {
        StealPolicy {
            enabled: false,
            ..Self::default()
        }
    }

    /// Default stealing restricted to the thief's cluster:
    /// [`StealPolicy::with_radius`]`(0)`.
    pub fn cluster_only() -> Self {
        Self::with_radius(0)
    }

    /// Default stealing bounded to `radius` levels above the cluster level
    /// (`with_radius(0)` is [`StealPolicy::cluster_only`]; `with_radius(1)`
    /// allows the enclosing socket, and so on).
    pub fn with_radius(radius: usize) -> Self {
        StealPolicy {
            steal_radius: Some(radius),
            ..Self::default()
        }
    }

    /// Default stealing with polite level-by-level widening.
    pub fn widening() -> Self {
        StealPolicy {
            polite_widening: true,
            ..Self::default()
        }
    }

    /// The highest common-ancestor level a thief may currently steal across:
    /// victims with [`Topology::common_level`] above this are skipped
    /// (without even a probe). `steal_radius` pins the ceiling at
    /// `mem_level + radius` (the memory level itself for cluster-only
    /// stealing) — strict, desperation never lifts a locality boundary.
    /// `polite_widening` starts the ceiling at level 0 and raises it one
    /// level per consecutive failed scan.
    #[inline]
    pub fn allowed_level(&self, topo: &Topology, failed_scans: usize) -> usize {
        let mut ceiling = usize::MAX;
        if let Some(r) = self.steal_radius {
            ceiling = topo.mem_level().saturating_add(r);
        }
        if self.polite_widening {
            ceiling = ceiling.min(failed_scans);
        }
        ceiling
    }

    /// One steal scan by an idle thief over its [`VictimOrders::order`], or
    /// `None` when stealing is disabled (nothing is probed or counted).
    ///
    /// After `last_resort_after` consecutive `failed_scans` the thief is
    /// desperate and may take object-affinity work; only `feedback` lifts
    /// the [`StealPolicy::allowed_level`] ceiling, and it also caps the
    /// probes. The walk stops above the ceiling, at the cap, or at the first
    /// batch taken; each victim walked is one probe, empty or not.
    ///
    /// `take(victim, avoid_object, whole_sets)` takes from one victim, as
    /// [`ServerQueues::steal_with`](crate::ServerQueues::steal_with) does.
    /// `stats` is called once, after the walk, so a caller never holds its
    /// stats lock while it takes from a victim.
    pub fn scan<T, S: DerefMut<Target = SchedStats>>(
        &self,
        topo: &Topology,
        order: &[(ProcId, u8)],
        failed_scans: &mut usize,
        feedback: Option<&mut PolicyFeedback>,
        stats: impl FnOnce() -> S,
        mut take: impl FnMut(ProcId, bool, bool) -> Option<StolenBatch<T>>,
    ) -> Option<Scan<T>> {
        if !self.enabled {
            return None;
        }
        let desperate = *failed_scans >= self.last_resort_after;
        let mut allowed = self.allowed_level(topo, *failed_scans);
        let mut probe_cap = usize::MAX;
        if let Some(fb) = &feedback {
            allowed = allowed.saturating_add(fb.extra_levels());
            probe_cap = fb.probe_cap();
        }
        let avoid_object = self.avoid_object_affinity && !desperate;
        let mut probes = 0;
        let mut stolen = None;
        for &(victim, lvl) in order {
            // Orders are level-sorted: past the ceiling, every remaining
            // victim is too.
            if lvl as usize > allowed || probes >= probe_cap {
                break;
            }
            probes += 1;
            if let Some(batch) = take(victim, avoid_object, self.steal_whole_sets) {
                stolen = Some((victim, lvl, batch));
                break;
            }
        }
        let mut st = stats();
        match &stolen {
            Some((_, lvl, batch)) => {
                st.tasks_stolen += batch.tasks.len() as u64;
                st.sets_stolen += u64::from(batch.token.is_some());
                st.remote_steals += u64::from(*lvl as usize > topo.mem_level());
                st.desperate_steals += u64::from(desperate);
                st.steals_by_level[*lvl as usize] += 1;
                *failed_scans = 0;
            }
            None => {
                st.failed_steals += 1;
                *failed_scans += 1;
            }
        }
        drop(st);
        if let Some(fb) = feedback {
            fb.note_scan(stolen.is_none());
        }
        Some(Scan {
            probes,
            stolen: stolen.map(|(victim, _, batch)| (victim, batch)),
        })
    }
}

/// What one [`StealPolicy::scan`] did.
#[derive(Debug)]
pub struct Scan<T> {
    /// Victims walked, empty or not: each costs the thief one probe.
    pub probes: usize,
    /// The victim robbed and the batch taken from it; `None` when the scan
    /// failed.
    pub stolen: Option<(ProcId, StolenBatch<T>)>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::feedback::AdaptiveConfig;

    /// A thief's scan state, scanning fake victims.
    #[derive(Default)]
    struct Thief {
        failed: usize,
        stats: SchedStats,
    }

    impl Thief {
        /// One scan by server `me`: each victim in `loaded` gives up one
        /// task (with `object_only`, only to a desperate thief). Returns
        /// the scan and the victims probed, in order.
        fn scan(
            &mut self,
            policy: &StealPolicy,
            topo: &Topology,
            me: usize,
            feedback: Option<&mut PolicyFeedback>,
            loaded: &[usize],
            object_only: bool,
        ) -> (Scan<usize>, Vec<usize>) {
            let orders = topo.victim_orders();
            let mut probed = Vec::new();
            let scan = policy
                .scan(
                    topo,
                    orders.order(ProcId(me)),
                    &mut self.failed,
                    feedback,
                    || &mut self.stats,
                    |v, avoid, _| {
                        probed.push(v.index());
                        let has = loaded.contains(&v.index()) && !(object_only && avoid);
                        has.then(|| StolenBatch {
                            token: None,
                            tasks: vec![v.index()],
                        })
                    },
                )
                .expect("stealing is enabled");
            (scan, probed)
        }
    }

    #[test]
    fn scan_cluster_only_probes_the_thiefs_cluster() {
        let topo = Topology::clustered(8, 4);
        let policy = StealPolicy::cluster_only();
        let mut t = Thief::default();
        // The only loaded victim is in the other cluster, and desperation
        // never lifts the boundary.
        for scan in 1..=4 {
            let (s, probed) = t.scan(&policy, &topo, 1, None, &[5], false);
            assert_eq!(probed, [2, 3, 0]);
            assert_eq!(s.probes, 3);
            assert!(s.stolen.is_none());
            assert_eq!(t.failed, scan);
        }
        assert_eq!(t.stats.failed_steals, 4);
        assert_eq!(t.stats.tasks_stolen, 0);
    }

    #[test]
    fn scan_polite_widening_admits_one_level_per_failed_scan() {
        // Thief 0 sees 1, 2, 4 and 8 victims at levels 0–3.
        let topo = Topology::tree(16, &[2, 4, 8], 1);
        let policy = StealPolicy::widening();
        let mut t = Thief::default();
        let probes: Vec<usize> = (0..5)
            .map(|_| t.scan(&policy, &topo, 0, None, &[], false).0.probes)
            .collect();
        assert_eq!(probes, [1, 3, 7, 15, 15]);
    }

    #[test]
    fn scan_obeys_feedback_probe_cap_and_widening() {
        let cfg = AdaptiveConfig {
            window: 1,
            probe_base: 2,
            probe_per_depth: 0,
            ..AdaptiveConfig::default()
        };
        let topo = Topology::clustered(8, 4);
        let dflt = StealPolicy::default();
        let mut t = Thief::default();
        let mut fb = PolicyFeedback::new(cfg, topo.nlevels());
        // Before any window closes nothing is capped.
        let (s, _) = t.scan(&dflt, &topo, 1, Some(&mut fb), &[], false);
        assert_eq!(s.probes, 7);
        // That failed scan closes the next window starved: the cap drops
        // to `probe_base` and the cluster ceiling lifts one level.
        assert!(fb.note_task(0, 0, 0));
        assert_eq!((fb.probe_cap(), fb.extra_levels()), (2, 1));
        let (s, probed) = t.scan(&dflt, &topo, 1, Some(&mut fb), &[], false);
        assert_eq!((s.probes, probed), (2, vec![2, 3]));
        let uncapped = AdaptiveConfig {
            probe_base: 0,
            ..cfg
        };
        let mut fb = PolicyFeedback::new(uncapped, topo.nlevels());
        fb.note_scan(true);
        assert!(fb.note_task(0, 0, 0));
        let co = StealPolicy::cluster_only();
        let (s, probed) = t.scan(&co, &topo, 1, Some(&mut fb), &[5], false);
        assert_eq!(probed, [2, 3, 0, 4, 5], "widened past the cluster");
        assert_eq!(s.stolen.map(|(v, _)| v), Some(ProcId(5)));
    }

    #[test]
    fn scan_turns_desperate_after_last_resort_after_failures() {
        let topo = Topology::flat(2);
        let policy = StealPolicy::default();
        let mut t = Thief::default();
        // Victim 0 holds only object-affinity work.
        for _ in 0..policy.last_resort_after {
            let (s, _) = t.scan(&policy, &topo, 1, None, &[0], true);
            assert!(s.stolen.is_none());
        }
        assert_eq!(t.stats.desperate_steals, 0);
        let (s, _) = t.scan(&policy, &topo, 1, None, &[0], true);
        assert!(s.stolen.is_some());
        assert_eq!(t.stats.desperate_steals, 1);
        assert_eq!(t.stats.failed_steals, policy.last_resort_after as u64);
    }

    #[test]
    fn scan_buckets_steals_by_victim_level() {
        // Memory level 1: levels 2 and 3 are remote.
        let topo = Topology::tree(16, &[2, 4, 8], 1);
        let policy = StealPolicy::default();
        let mut t = Thief::default();
        for victim in [1, 2, 4, 8] {
            t.scan(&policy, &topo, 0, None, &[victim], false);
        }
        assert_eq!(t.stats.steals_by_level, [1, 1, 1, 1, 0]);
        assert_eq!(t.stats.remote_steals, 2);
        assert_eq!(t.stats.tasks_stolen, 4);
        assert_eq!(t.stats.sets_stolen, 0);
        assert_eq!(t.stats.failed_steals, 0);
    }

    #[test]
    fn scan_counts_sets_and_resets_failed_scans_on_success() {
        let topo = Topology::flat(2);
        let orders = topo.victim_orders();
        let (mut failed, mut stats) = (5, SchedStats::default());
        let scan = StealPolicy::default()
            .scan(
                &topo,
                orders.order(ProcId(0)),
                &mut failed,
                None,
                || &mut stats,
                |_, _, _| {
                    Some(StolenBatch {
                        token: Some(crate::ObjRef(7)),
                        tasks: vec![1, 2],
                    })
                },
            )
            .unwrap();
        assert_eq!(scan.probes, 1);
        assert_eq!(failed, 0);
        assert_eq!((stats.tasks_stolen, stats.sets_stolen), (2, 1));
        // A disabled policy scans nothing and counts nothing.
        let off = StealPolicy::disabled().scan(
            &topo,
            orders.order(ProcId(0)),
            &mut failed,
            None,
            || &mut stats,
            |_, _, _| -> Option<StolenBatch<u32>> { panic!("probed") },
        );
        assert!(off.is_none());
        assert_eq!((failed, stats.failed_steals), (0, 0));
    }

    #[test]
    fn clusters_partition_processors() {
        let t = Topology::clustered(32, 4);
        assert_eq!(t.nclusters(), 8);
        assert_eq!(t.cluster_of(ProcId(0)), ClusterId(0));
        assert_eq!(t.cluster_of(ProcId(3)), ClusterId(0));
        assert_eq!(t.cluster_of(ProcId(4)), ClusterId(1));
        assert_eq!(t.cluster_of(ProcId(31)), ClusterId(7));
        assert!(t.same_cluster(ProcId(4), ProcId(7)));
        assert!(!t.same_cluster(ProcId(3), ProcId(4)));
    }

    #[test]
    fn flat_topology_has_singleton_clusters() {
        let t = Topology::flat(5);
        assert_eq!(t.nclusters(), 5);
        assert!(!t.same_cluster(ProcId(0), ProcId(1)));
    }

    #[test]
    fn steal_order_visits_everyone_once_cluster_first() {
        let t = Topology::clustered(8, 4);
        let order = t.steal_order(ProcId(1));
        assert_eq!(order.len(), 7);
        // First the rest of cluster 0 ...
        assert_eq!(&order[..3], &[ProcId(2), ProcId(3), ProcId(0)]);
        // ... then cluster 1.
        assert!(order[3..].iter().all(|p| p.index() >= 4));
        let mut sorted: Vec<usize> = order.iter().map(|p| p.index()).collect();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 2, 3, 4, 5, 6, 7]);
    }

    #[test]
    fn partial_last_cluster_is_counted() {
        let t = Topology::clustered(10, 4);
        assert_eq!(t.nclusters(), 3);
        assert_eq!(t.cluster_of(ProcId(9)), ClusterId(2));
    }

    #[test]
    fn deep_tree_levels_nest() {
        // SMT pairs → 8-proc chiplets (memory) → 32-proc sockets, 64 procs.
        let t = Topology::tree(64, &[2, 8, 32], 1);
        assert_eq!(t.nlevels(), 3);
        assert_eq!(t.mem_level(), 1);
        assert_eq!(t.procs_per_cluster(), 8);
        assert_eq!(t.nclusters(), 8);
        assert_eq!(t.ndomains(0), 32);
        assert_eq!(t.ndomains(2), 2);
        assert_eq!(t.common_level(ProcId(0), ProcId(1)), 0); // SMT pair
        assert_eq!(t.common_level(ProcId(0), ProcId(2)), 1); // same chiplet
        assert_eq!(t.common_level(ProcId(0), ProcId(8)), 2); // same socket
        assert_eq!(t.common_level(ProcId(0), ProcId(32)), 3); // machine root
        assert!(t.same_cluster(ProcId(0), ProcId(7)));
        assert!(!t.same_cluster(ProcId(7), ProcId(8)));
    }

    #[test]
    fn deep_steal_order_widens_nearest_first() {
        let t = Topology::tree(16, &[2, 4, 8], 1);
        let order = t.steal_order(ProcId(5));
        assert_eq!(order.len(), 15);
        // SMT sibling first, then the rest of the 4-proc chiplet, then the
        // other chiplet of the 8-proc socket, then the far socket.
        assert_eq!(order[0], ProcId(4));
        let lv: Vec<usize> = order.iter().map(|&v| t.common_level(ProcId(5), v)).collect();
        assert!(lv.windows(2).all(|w| w[0] <= w[1]), "levels ascend: {lv:?}");
        let mut sorted: Vec<usize> = order.iter().map(|p| p.index()).collect();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..16).filter(|&i| i != 5).collect::<Vec<_>>());
    }

    #[test]
    fn victim_orders_match_steal_order() {
        for topo in [
            Topology::clustered(10, 4),
            Topology::flat(3),
            Topology::tree(24, &[2, 8], 1),
        ] {
            let orders = topo.victim_orders();
            for t in 0..topo.nservers {
                let thief = ProcId(t);
                let fresh = topo.steal_order(thief);
                assert_eq!(fresh.len(), topo.nservers - 1);
                let pre: Vec<ProcId> = orders.order(thief).iter().map(|&(v, _)| v).collect();
                assert_eq!(pre, fresh, "thief {t}");
                for &(v, lvl) in orders.order(thief) {
                    assert_eq!(lvl as usize, topo.common_level(thief, v));
                }
            }
        }
    }

    #[test]
    fn allowed_level_reproduces_cluster_only_and_widens() {
        let t2 = Topology::clustered(8, 4);
        let deep = Topology::tree(64, &[2, 8, 32], 1);
        let dflt = StealPolicy::default();
        assert_eq!(dflt.allowed_level(&t2, 0), usize::MAX);
        let co = StealPolicy::cluster_only();
        // Strict at every desperation stage: cluster boundary never lifts.
        assert_eq!(co.allowed_level(&t2, 0), 0);
        assert_eq!(co.allowed_level(&t2, 99), 0);
        assert_eq!(co.allowed_level(&deep, 99), 1);
        let sock = StealPolicy::with_radius(1);
        assert_eq!(sock.allowed_level(&deep, 99), 2);
        let widen = StealPolicy::widening();
        assert_eq!(widen.allowed_level(&deep, 0), 0);
        assert_eq!(widen.allowed_level(&deep, 2), 2);
        assert_eq!(widen.allowed_level(&deep, 9), 9);
    }

    #[test]
    fn classic_policy_fingerprints_are_unchanged() {
        assert_eq!(
            StealPolicy::default().fingerprint(),
            "steal=1 avoid=1 sets=1 cluster=0 lr=2"
        );
        assert_eq!(
            StealPolicy::cluster_only().fingerprint(),
            "steal=1 avoid=1 sets=1 cluster=1 lr=2"
        );
        // Topology-aware knobs append — they never collide with classic.
        assert_eq!(
            StealPolicy::with_radius(1).fingerprint(),
            "steal=1 avoid=1 sets=1 cluster=0 lr=2 rad=1"
        );
        assert_eq!(
            StealPolicy::widening().fingerprint(),
            "steal=1 avoid=1 sets=1 cluster=0 lr=2 widen=1"
        );
    }
}
