//! Machine configuration, defaulting to the Stanford DASH prototype used in
//! Section 6 of the paper.
//!
//! The machine's shape is the scheduler's own [`Topology`]: the DASH
//! prototype is the 1-level tree (clusters of 4 under the root), a deeper
//! machine nests more levels, and the tree's memory level is the cluster
//! that owns a memory node. Cluster, distance and interconnect-link
//! arithmetic all read that one tree.

use cool_core::{ClusterId, NodeId, ProcId, Topology, MAX_TOPO_LEVELS};

use crate::engine::ContentionConfig;

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
    /// Miss serviced by a remote cluster's memory (or a remote dirty cache),
    /// at any distance unless [`MachineConfig::remote_lat`] is set.
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
    /// The machine tree: one server per processor, and the memory level's
    /// domains are the clusters, each owning one memory node.
    pub topology: Topology,
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
    /// Base miss latency by distance: `remote_lat[d - 1]` for a miss
    /// serviced `d` levels above the memory level (entries past the root
    /// are unused). `None` charges [`Latencies::remote_mem`] at every
    /// distance, as on DASH.
    pub remote_lat: Option<[u64; MAX_TOPO_LEVELS]>,
}

impl MachineConfig {
    /// The DASH prototype: 32 processors, 8 clusters of 4, 64 KB / 256 KB
    /// direct-mapped caches with 16-byte lines.
    pub fn dash(nprocs: usize) -> Self {
        MachineConfig {
            topology: Topology::clustered(nprocs, 4),
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
            remote_lat: None,
        }
    }

    /// Install the contention engine (builder style).
    pub fn with_contention(mut self, c: ContentionConfig) -> Self {
        self.contention = Some(c);
        self
    }

    /// A modern-shaped deep machine at `dash_small` cache geometry: SMT
    /// pairs → 8-processor chiplets (each owning a memory node) →
    /// 32-processor sockets. Crossing chiplets within a socket costs 100
    /// cycles, crossing sockets 180 — bracketing the paper's
    /// 100–150-cycle remote band around the depth of the crossing.
    pub fn deep_small(nprocs: usize) -> Self {
        MachineConfig {
            topology: Topology::tree(nprocs, &[2, 8, 32], 1),
            remote_lat: Some([100, 180, 0, 0]),
            ..Self::dash_small(nprocs)
        }
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
        let t = &self.topology;
        let ctn = match &self.contention {
            None => "off".to_string(),
            Some(c) => c.fingerprint(),
        };
        let mut s = format!(
            "p{}x{} l1={}/{}/{} l2={}/{}/{} lat={}/{}/{}/{}/{} pg={} do={} mig={} occ={} ctn={}",
            t.nservers,
            t.procs_per_cluster(),
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
        // Appended only past the 1-level tree and the uniform latency: the
        // DASH fingerprints stay byte-identical to the epoch-2 baselines,
        // and no other machine shares one with them.
        if t.nlevels() > 1 {
            let sizes: Vec<String> = t.level_sizes().iter().map(|s| s.to_string()).collect();
            s.push_str(&format!(" tree={}@{}", sizes.join("x"), t.mem_level()));
        }
        if let Some(lat) = &self.remote_lat {
            let lats: Vec<String> = lat[..t.nlevels() - t.mem_level()]
                .iter()
                .map(|l| l.to_string())
                .collect();
            s.push_str(&format!(" rlat={}", lats.join("/")));
        }
        s
    }

    /// The memory node local to a processor.
    #[inline]
    pub fn node_of(&self, p: ProcId) -> NodeId {
        NodeId(self.topology.cluster_of(p).index())
    }

    /// A representative processor for a memory node (the first in its
    /// cluster) — used to turn `home(obj)` into a server choice.
    #[inline]
    pub fn proc_of_node(&self, n: NodeId) -> ProcId {
        ProcId(n.index() * self.topology.procs_per_cluster())
    }

    /// Topology distance between two clusters: 0 when equal, otherwise the
    /// number of levels above the memory level of their nearest common
    /// ancestor. On the 1-level DASH tree every remote cluster is at
    /// distance 1.
    #[inline]
    pub fn cluster_distance(&self, a: ClusterId, b: ClusterId) -> usize {
        let first = |c: ClusterId| self.proc_of_node(NodeId(c.index()));
        let level = self.topology.common_level(first(a), first(b));
        level.saturating_sub(self.topology.mem_level())
    }

    /// Base miss latency for a supplier at `cluster_distance` `d`: the local
    /// memory at 0; beyond it `remote_lat[d - 1]`, or the uniform
    /// `remote_mem` without a table.
    #[inline]
    pub fn mem_latency(&self, d: usize) -> u64 {
        match (d, &self.remote_lat) {
            (0, _) => self.lat.local_mem,
            (_, None) => self.lat.remote_mem,
            (_, Some(lat)) => lat[d - 1],
        }
    }

    /// Number of interconnect-link resources the contention engine models:
    /// one per domain of every level from the memory level up to, not
    /// including, the root. A root crossing rides the lower-level links of
    /// the home side, so the 1-level DASH tree has exactly one link per
    /// cluster.
    pub fn nnet(&self) -> usize {
        self.net_base(self.topology.nlevels())
    }

    /// First net-resource index of level `l`'s domain links (the memory
    /// level's per-cluster links start at 0).
    fn net_base(&self, l: usize) -> usize {
        (self.topology.mem_level()..l)
            .map(|j| self.topology.ndomains(j))
            .sum()
    }

    /// The net-resource indices a transaction traverses crossing from
    /// cluster `from` to cluster `to`, home-side outermost link first and
    /// the home cluster's own link last; empty when the clusters are equal.
    /// On the 1-level DASH tree a crossing is exactly the home cluster's
    /// link.
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
        let ml = self.topology.mem_level();
        let pb = self.proc_of_node(NodeId(to.index()));
        for (n, k) in (1..d).rev().enumerate() {
            buf[n] = self.net_base(ml + k) + self.topology.domain_of(pb, ml + k);
        }
        buf[d - 1] = to.index();
        d
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dash_defaults_match_the_paper() {
        let c = MachineConfig::dash(32);
        assert_eq!(c.topology.nclusters(), 8);
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
