//! Machine configuration, defaulting to the Stanford DASH prototype used in
//! Section 6 of the paper.

use cool_core::{ClusterId, NodeId, ProcId, Topology, MAX_TOPO_LEVELS};

use crate::engine::ContentionConfig;

/// An N-level machine tree layered on top of the classic cluster model.
///
/// The classic [`MachineConfig`] is 2-level: processors grouped into
/// clusters, one memory node per cluster, a single uniform remote latency.
/// A `DeepTopology` describes deeper machines — e.g. SMT pair → chiplet →
/// socket — with a per-level latency table. Level sizes are innermost-first
/// and nest (each divides the next); `mem_level` designates the level whose
/// domains own a memory node, and must agree with
/// [`MachineConfig::procs_per_cluster`] so the directory/page machinery is
/// untouched. Crossing `d` levels above the memory level costs
/// `remote_lat[d - 1]` cycles, replacing the single
/// [`Latencies::remote_mem`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DeepTopology {
    /// Domain sizes per explicit level, innermost first; unused entries 1.
    pub levels: [usize; MAX_TOPO_LEVELS],
    /// Explicit levels in use.
    pub nlevels: u8,
    /// The level whose domains each own a memory node (the cluster level).
    pub mem_level: u8,
    /// Base miss latency by distance: `remote_lat[d - 1]` for a miss
    /// serviced `d` levels above the memory level (entries past the root
    /// are unused).
    pub remote_lat: [u64; MAX_TOPO_LEVELS],
}

impl DeepTopology {
    /// Build and validate a machine tree. `remote_lat` must supply one
    /// latency per level above the memory level (up to and including the
    /// machine root).
    pub fn new(level_sizes: &[usize], mem_level: usize, remote_lat: &[u64]) -> Self {
        assert!(
            !level_sizes.is_empty() && level_sizes.len() <= MAX_TOPO_LEVELS,
            "1..={MAX_TOPO_LEVELS} levels"
        );
        assert!(mem_level < level_sizes.len(), "mem_level out of range");
        let distances = level_sizes.len() - mem_level;
        assert_eq!(
            remote_lat.len(),
            distances,
            "need one remote latency per level above the memory level \
             (incl. the root): {distances}"
        );
        let mut levels = [1usize; MAX_TOPO_LEVELS];
        for (l, &s) in level_sizes.iter().enumerate() {
            assert!(s > 0);
            if l > 0 {
                assert!(
                    s > level_sizes[l - 1] && s % level_sizes[l - 1] == 0,
                    "level sizes must strictly increase and nest"
                );
            }
            levels[l] = s;
        }
        let mut lat = [0u64; MAX_TOPO_LEVELS];
        lat[..remote_lat.len()].copy_from_slice(remote_lat);
        DeepTopology {
            levels,
            nlevels: level_sizes.len() as u8,
            mem_level: mem_level as u8,
            remote_lat: lat,
        }
    }

    /// The level sizes actually in use, innermost first.
    pub fn level_sizes(&self) -> &[usize] {
        &self.levels[..self.nlevels as usize]
    }
}

/// Parameters of one cache level.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Cache line size in bytes (16 on DASH).
    pub line_bytes: u64,
    /// Associativity (1 = direct-mapped, as on the DASH prototype).
    pub assoc: usize,
}

impl CacheConfig {
    /// Number of sets.
    pub fn sets(&self) -> u64 {
        self.size_bytes / (self.line_bytes * self.assoc as u64)
    }

    /// Total lines.
    pub fn lines(&self) -> u64 {
        self.size_bytes / self.line_bytes
    }
}

/// The latency table of the three-level hierarchy (processor cycles).
///
/// Values from Section 6: "References that are satisfied in the first-level
/// cache take a single processor cycle, while hits in the second-level cache
/// take about 14 cycles. Memory references to data in the local cluster
/// memory take nearly 30 cycles, while references to the remote memory of
/// another cluster take about 100-150 cycles."
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Latencies {
    /// First-level cache hit.
    pub l1_hit: u64,
    /// Second-level cache hit.
    pub l2_hit: u64,
    /// Miss serviced by the local cluster memory.
    pub local_mem: u64,
    /// Miss serviced by a remote cluster's memory (or a remote dirty cache).
    pub remote_mem: u64,
    /// Extra cycles when a miss must be serviced by another cache that holds
    /// the line dirty (three-hop transaction on DASH).
    pub dirty_penalty: u64,
}

impl Default for Latencies {
    fn default() -> Self {
        Latencies {
            l1_hit: 1,
            l2_hit: 14,
            local_mem: 30,
            remote_mem: 130,
            dirty_penalty: 20,
        }
    }
}

/// Scheduling overhead charged per task dispatch (enqueue + dequeue).
pub const DISPATCH_OVERHEAD: u64 = 50;

/// Cycles to migrate one page (copy + remap).
pub const PAGE_MIGRATE_COST: u64 = 2000;

/// Full machine configuration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MachineConfig {
    /// Number of processors.
    pub nprocs: usize,
    /// Processors per cluster; each cluster holds one memory node.
    pub procs_per_cluster: usize,
    /// First-level cache (64 KB on DASH).
    pub l1: CacheConfig,
    /// Second-level cache (256 KB on DASH).
    pub l2: CacheConfig,
    /// Latency table.
    pub lat: Latencies,
    /// Operating-system page size: homes are tracked per page, and `migrate`
    /// moves whole pages, matching the DASH footnote in Section 4.1.
    pub page_bytes: u64,
    /// Cycles a memory module is occupied per request it services. Requests
    /// to a busy module queue, so concentrating data on one node costs
    /// bandwidth as well as latency — the effect behind the paper's
    /// "distributing the panels improves performance due to better
    /// utilization of the available memory bandwidth". 0 disables the
    /// contention model.
    pub mem_occupancy: u64,
    /// Contention engine (see [`crate::engine`]). `None` selects the
    /// zero-contention fast path: the legacy busy-pointer model above,
    /// cycle-identical to the frozen oracle. `Some` carries every miss and
    /// prefetch fill through its per-cluster bus/net/directory/memory
    /// hops, with service times and FIFO queueing in issue order,
    /// superseding `mem_occupancy`.
    pub contention: Option<ContentionConfig>,
    /// N-level machine tree (see [`DeepTopology`]). `None` is the classic
    /// 2-level cluster machine — every existing configuration — and keeps
    /// simulated cycles and fingerprints byte-identical. `Some` generalizes
    /// remote-miss latencies and interconnect routing to the tree.
    pub deep: Option<DeepTopology>,
}

impl MachineConfig {
    /// The DASH prototype: 32 processors, 8 clusters of 4, 64 KB / 256 KB
    /// direct-mapped caches with 16-byte lines.
    pub fn dash(nprocs: usize) -> Self {
        MachineConfig {
            nprocs,
            procs_per_cluster: 4,
            l1: CacheConfig {
                size_bytes: 64 * 1024,
                line_bytes: 16,
                assoc: 1,
            },
            l2: CacheConfig {
                size_bytes: 256 * 1024,
                line_bytes: 16,
                assoc: 1,
            },
            lat: Latencies::default(),
            page_bytes: 4096,
            mem_occupancy: 3,
            contention: None,
            deep: None,
        }
    }

    /// Install the contention engine (builder style).
    pub fn with_contention(mut self, c: ContentionConfig) -> Self {
        self.contention = Some(c);
        self
    }

    /// Install an N-level machine tree (builder style). Keeps
    /// `procs_per_cluster` consistent with the tree's memory level so the
    /// page/directory machinery and the tree agree on what a cluster is.
    pub fn with_deep(mut self, t: DeepTopology) -> Self {
        self.procs_per_cluster = t.levels[t.mem_level as usize];
        self.deep = Some(t);
        self
    }

    /// A modern-shaped deep machine at DASH cache geometry: SMT pairs →
    /// 8-processor chiplets (each owning a memory node) → 32-processor
    /// sockets. Crossing chiplets within a socket costs 100 cycles,
    /// crossing sockets 180 — bracketing the paper's 100–150-cycle remote
    /// band around the depth of the crossing.
    pub fn deep(nprocs: usize) -> Self {
        Self::dash(nprocs).with_deep(DeepTopology::new(&[2, 8, 32], 1, &[100, 180]))
    }

    /// The deep machine at `dash_small` cache geometry (fast tests/sweeps).
    pub fn deep_small(nprocs: usize) -> Self {
        Self::dash_small(nprocs).with_deep(DeepTopology::new(&[2, 8, 32], 1, &[100, 180]))
    }

    /// A scaled-down DASH for fast tests: small caches magnify locality
    /// effects at small problem sizes while preserving the latency ratios.
    pub fn dash_small(nprocs: usize) -> Self {
        MachineConfig {
            l1: CacheConfig {
                size_bytes: 4 * 1024,
                line_bytes: 16,
                assoc: 1,
            },
            l2: CacheConfig {
                size_bytes: 16 * 1024,
                line_bytes: 16,
                assoc: 1,
            },
            page_bytes: 1024,
            ..Self::dash(nprocs)
        }
    }

    /// A compact, stable fingerprint of every parameter that influences
    /// simulated behaviour, the constant [`DISPATCH_OVERHEAD`] and
    /// [`PAGE_MIGRATE_COST`] included. `cool-repro` records it in each
    /// record's config string as provenance: two configs with equal
    /// fingerprints produce identical simulations, and any parameter change
    /// changes the string.
    pub fn fingerprint(&self) -> String {
        let ctn = match &self.contention {
            None => "off".to_string(),
            Some(c) => c.fingerprint(),
        };
        let mut s = format!(
            "p{}x{} l1={}/{}/{} l2={}/{}/{} lat={}/{}/{}/{}/{} pg={} do={} mig={} occ={} ctn={}",
            self.nprocs,
            self.procs_per_cluster,
            self.l1.size_bytes,
            self.l1.line_bytes,
            self.l1.assoc,
            self.l2.size_bytes,
            self.l2.line_bytes,
            self.l2.assoc,
            self.lat.l1_hit,
            self.lat.l2_hit,
            self.lat.local_mem,
            self.lat.remote_mem,
            self.lat.dirty_penalty,
            self.page_bytes,
            DISPATCH_OVERHEAD,
            PAGE_MIGRATE_COST,
            self.mem_occupancy,
            ctn,
        );
        if let Some(t) = &self.deep {
            // Appended only for deep machines: classic 2-level fingerprints
            // stay byte-identical to the epoch-2 baselines, and a deep
            // machine's config string always differs from a classic one's.
            let sizes: Vec<String> = t.level_sizes().iter().map(|s| s.to_string()).collect();
            let lats: Vec<String> = t.remote_lat[..t.nlevels as usize - t.mem_level as usize]
                .iter()
                .map(|l| l.to_string())
                .collect();
            s.push_str(&format!(
                " tree={}@{} rlat={}",
                sizes.join("x"),
                t.mem_level,
                lats.join("/")
            ));
        }
        s
    }

    /// Scheduler-facing topology.
    pub fn topology(&self) -> Topology {
        match &self.deep {
            None => Topology::clustered(self.nprocs, self.procs_per_cluster),
            Some(t) => Topology::tree(self.nprocs, t.level_sizes(), t.mem_level as usize),
        }
    }

    /// Number of clusters / memory nodes.
    pub fn nclusters(&self) -> usize {
        self.nprocs.div_ceil(self.procs_per_cluster)
    }

    /// The cluster (= memory node) of a processor.
    #[inline]
    pub fn cluster_of(&self, p: ProcId) -> ClusterId {
        ClusterId(p.index() / self.procs_per_cluster)
    }

    /// The memory node local to a processor.
    #[inline]
    pub fn node_of(&self, p: ProcId) -> NodeId {
        NodeId(self.cluster_of(p).index())
    }

    /// A representative processor for a memory node (the first in its
    /// cluster) — used to turn `home(obj)` into a server choice.
    #[inline]
    pub fn proc_of_node(&self, n: NodeId) -> ProcId {
        ProcId(n.index() * self.procs_per_cluster)
    }

    /// Topology distance between two clusters: 0 when equal, otherwise the
    /// number of levels above the memory level of their nearest common
    /// ancestor. On a classic machine every remote cluster is at distance 1.
    #[inline]
    pub fn cluster_distance(&self, a: ClusterId, b: ClusterId) -> usize {
        if a == b {
            return 0;
        }
        match &self.deep {
            None => 1,
            Some(t) => {
                let (nl, ml) = (t.nlevels as usize, t.mem_level as usize);
                let pa = a.index() * self.procs_per_cluster;
                let pb = b.index() * self.procs_per_cluster;
                for l in ml + 1..nl {
                    if pa / t.levels[l] == pb / t.levels[l] {
                        return l - ml;
                    }
                }
                nl - ml
            }
        }
    }

    /// Base miss latency for a supplier at `cluster_distance` `d`: the local
    /// memory at 0; on a classic machine the uniform `remote_mem` beyond,
    /// on a deep machine the per-level `remote_lat` table.
    #[inline]
    pub fn mem_latency(&self, d: usize) -> u64 {
        if d == 0 {
            return self.lat.local_mem;
        }
        match &self.deep {
            None => self.lat.remote_mem,
            Some(t) => t.remote_lat[d - 1],
        }
    }

    /// Number of interconnect-link resources the contention engine models:
    /// one per cluster, plus — on a deep machine — one per domain of every
    /// level strictly between the memory level and the root (the root itself
    /// has no link; a root crossing rides the lower-level links of the home
    /// side, which on a classic machine degenerates to exactly the home
    /// cluster's link).
    pub fn nnet(&self) -> usize {
        let mut n = self.nclusters();
        if let Some(t) = &self.deep {
            for l in t.mem_level as usize + 1..t.nlevels as usize {
                n += self.nprocs.div_ceil(t.levels[l]);
            }
        }
        n
    }

    /// First net-resource index of explicit level `l`'s domain links
    /// (deep machines only; level `mem_level` maps to the per-cluster links
    /// at index 0).
    fn net_base(&self, l: usize) -> usize {
        let t = self.deep.as_ref().expect("net_base on a classic machine");
        let mut base = self.nclusters();
        for j in t.mem_level as usize + 1..l {
            base += self.nprocs.div_ceil(t.levels[j]);
        }
        base
    }

    /// The net-resource indices a transaction traverses crossing from
    /// cluster `from` to cluster `to`, home-side outermost link first and
    /// the home cluster's own link last; empty when the clusters are equal.
    /// On a classic machine a crossing is exactly the home cluster's link,
    /// preserving the original hop chain byte-for-byte.
    pub fn net_path(&self, from: ClusterId, to: ClusterId, buf: &mut [usize; MAX_TOPO_LEVELS]) -> usize {
        self.net_path_at(self.cluster_distance(from, to), to, buf)
    }

    /// [`MachineConfig::net_path`] for clusters `d` apart.
    pub(crate) fn net_path_at(
        &self,
        d: usize,
        to: ClusterId,
        buf: &mut [usize; MAX_TOPO_LEVELS],
    ) -> usize {
        if d == 0 {
            return 0;
        }
        let mut n = 0;
        if let Some(t) = &self.deep {
            let ml = t.mem_level as usize;
            let pb = to.index() * self.procs_per_cluster;
            for k in (1..d).rev() {
                let l = ml + k;
                buf[n] = self.net_base(l) + pb / t.levels[l];
                n += 1;
            }
        }
        buf[n] = to.index();
        n + 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dash_defaults_match_the_paper() {
        let c = MachineConfig::dash(32);
        assert_eq!(c.nclusters(), 8);
        assert_eq!(c.l1.size_bytes, 64 * 1024);
        assert_eq!(c.l2.size_bytes, 256 * 1024);
        assert_eq!(c.lat.l1_hit, 1);
        assert_eq!(c.lat.l2_hit, 14);
        assert_eq!(c.lat.local_mem, 30);
        assert!(c.lat.remote_mem >= 100 && c.lat.remote_mem <= 150);
    }

    #[test]
    fn cache_geometry() {
        let c = CacheConfig {
            size_bytes: 64 * 1024,
            line_bytes: 16,
            assoc: 1,
        };
        assert_eq!(c.lines(), 4096);
        assert_eq!(c.sets(), 4096);
        let c2 = CacheConfig {
            size_bytes: 64 * 1024,
            line_bytes: 16,
            assoc: 4,
        };
        assert_eq!(c2.sets(), 1024);
    }

    #[test]
    fn fingerprint_distinguishes_contention_modes() {
        let base = MachineConfig::dash(8);
        let contended = base.with_contention(ContentionConfig::dash());
        assert!(base.fingerprint().ends_with("ctn=off"));
        assert_ne!(base.fingerprint(), contended.fingerprint());
        let mut tweaked = contended;
        tweaked.contention = Some(ContentionConfig {
            mem_service: 99,
            ..ContentionConfig::dash()
        });
        assert_ne!(contended.fingerprint(), tweaked.fingerprint());
    }

    #[test]
    fn node_and_proc_mapping_roundtrip() {
        let c = MachineConfig::dash(32);
        assert_eq!(c.node_of(ProcId(0)), NodeId(0));
        assert_eq!(c.node_of(ProcId(5)), NodeId(1));
        assert_eq!(c.proc_of_node(NodeId(1)), ProcId(4));
        assert_eq!(c.node_of(c.proc_of_node(NodeId(7))), NodeId(7));
    }
}
