//! Test-only reference model of the pre-optimisation per-reference pipeline.
//!
//! The hot path in [`crate::machine`] was rewritten for throughput — a flat
//! directory table, fixed-width cache sets, and per-processor lookasides —
//! under the contract that **no simulated cycle changes**. This module keeps
//! the original, straightforward implementation (HashMap directory,
//! Vec-of-Vec LRU sets, no lookasides) frozen as an executable oracle, and
//! the property tests below drive random access streams through both models
//! and demand identical latencies, monitor counters, directory state and
//! cache contents.
//!
//! Nothing here is compiled into the library proper; it exists so that the
//! fast path can never silently diverge from the model the figures were
//! validated against.

use std::collections::HashMap;

use cool_core::{NodeId, ObjRef, ProcId};

use crate::cache::{Access, Level};
use crate::config::{CacheConfig, MachineConfig, PAGE_MIGRATE_COST};
use crate::directory::CoherenceOutcome;
use crate::monitor::{PerfMonitor, Service};
use crate::space::AddressSpace;

/// The original growable-Vec LRU cache.
#[derive(Debug)]
struct OldCache {
    sets: Vec<Vec<u64>>,
    assoc: usize,
    nsets: u64,
}

impl OldCache {
    fn new(cfg: CacheConfig) -> Self {
        let nsets = cfg.sets();
        assert!(nsets > 0);
        OldCache {
            sets: vec![Vec::with_capacity(cfg.assoc); nsets as usize],
            assoc: cfg.assoc,
            nsets,
        }
    }

    fn set_of(&self, line: u64) -> usize {
        (line % self.nsets) as usize
    }

    fn access(&mut self, line: u64) -> Access {
        let set = self.set_of(line);
        let ways = &mut self.sets[set];
        if let Some(pos) = ways.iter().position(|&l| l == line) {
            let l = ways.remove(pos);
            ways.insert(0, l);
            return Access::Hit;
        }
        let evicted = if ways.len() == self.assoc {
            ways.pop()
        } else {
            None
        };
        ways.insert(0, line);
        Access::Miss { evicted }
    }

    fn contains(&self, line: u64) -> bool {
        self.sets[self.set_of(line)].contains(&line)
    }

    fn invalidate(&mut self, line: u64) -> bool {
        let set = self.set_of(line);
        let ways = &mut self.sets[set];
        if let Some(pos) = ways.iter().position(|&l| l == line) {
            ways.remove(pos);
            true
        } else {
            false
        }
    }

    fn resident(&self) -> usize {
        self.sets.iter().map(Vec::len).sum()
    }
}

/// The original two-level hierarchy with inclusion.
#[derive(Debug)]
struct OldProcCache {
    l1: OldCache,
    l2: OldCache,
}

impl OldProcCache {
    fn new(l1: CacheConfig, l2: CacheConfig) -> Self {
        OldProcCache {
            l1: OldCache::new(l1),
            l2: OldCache::new(l2),
        }
    }

    fn access(&mut self, line: u64) -> Level {
        if let Access::Hit = self.l1.access(line) {
            debug_assert!(self.l2.contains(line), "inclusion violated");
            return Level::L1;
        }
        match self.l2.access(line) {
            Access::Hit => Level::L2,
            Access::Miss { evicted } => {
                if let Some(victim) = evicted {
                    self.l1.invalidate(victim);
                }
                Level::Memory { l2_victim: evicted }
            }
        }
    }

    fn invalidate(&mut self, line: u64) -> bool {
        let in_l1 = self.l1.invalidate(line);
        let in_l2 = self.l2.invalidate(line);
        in_l1 || in_l2
    }

    fn contains(&self, line: u64) -> bool {
        self.l2.contains(line)
    }
}

/// The original HashMap-backed directory.
#[derive(Clone, Copy, Debug, Default)]
struct LineState {
    sharers: u64,
    owner: Option<u8>,
}

#[derive(Debug, Default)]
struct OldDirectory {
    lines: HashMap<u64, LineState>,
}

impl OldDirectory {
    fn read_miss(&mut self, line: u64, p: usize) -> CoherenceOutcome {
        let st = self.lines.entry(line).or_default();
        let outcome = CoherenceOutcome {
            from_dirty_cache: st.owner.is_some_and(|o| o as usize != p),
            dirty_owner: st.owner.map(|o| o as usize),
            invalidations: 0,
            invalidate_procs: 0,
        };
        if st.owner.is_some_and(|o| o as usize != p) {
            st.owner = None;
        }
        st.sharers |= 1 << p;
        outcome
    }

    fn write(&mut self, line: u64, p: usize) -> CoherenceOutcome {
        let st = self.lines.entry(line).or_default();
        let others = st.sharers & !(1 << p);
        let from_dirty = st.owner.is_some_and(|o| o as usize != p);
        let dirty_owner = st.owner.map(|o| o as usize);
        let outcome = CoherenceOutcome {
            from_dirty_cache: from_dirty,
            dirty_owner,
            invalidations: others.count_ones(),
            invalidate_procs: others,
        };
        st.sharers = 1 << p;
        st.owner = Some(p as u8);
        outcome
    }

    fn is_exclusive(&self, line: u64, p: usize) -> bool {
        self.lines
            .get(&line)
            .is_some_and(|st| st.owner == Some(p as u8) && st.sharers == 1 << p)
    }

    fn evict(&mut self, line: u64, p: usize) {
        if let Some(st) = self.lines.get_mut(&line) {
            st.sharers &= !(1 << p);
            if st.owner == Some(p as u8) {
                st.owner = None;
            }
            if st.sharers == 0 && st.owner.is_none() {
                self.lines.remove(&line);
            }
        }
    }

    fn purge_line(&mut self, line: u64) {
        self.lines.remove(&line);
    }

    fn sharers(&self, line: u64) -> u64 {
        self.lines.get(&line).map_or(0, |st| st.sharers)
    }

    fn tracked_lines(&self) -> usize {
        self.lines.len()
    }
}

/// The pre-rewrite machine: same configuration, address space and monitor as
/// [`crate::Machine`], but the original per-reference pipeline.
#[derive(Debug)]
pub struct OracleMachine {
    cfg: MachineConfig,
    caches: Vec<OldProcCache>,
    space: AddressSpace,
    dir: OldDirectory,
    mon: PerfMonitor,
    node_busy: Vec<u64>,
}

impl OracleMachine {
    pub fn new(cfg: MachineConfig) -> Self {
        let caches = (0..cfg.topology.nservers)
            .map(|_| OldProcCache::new(cfg.l1, cfg.l2))
            .collect();
        OracleMachine {
            caches,
            space: AddressSpace::with_procs_per_node(
                cfg.page_bytes,
                cfg.topology.nclusters(),
                cfg.topology.procs_per_cluster(),
            ),
            dir: OldDirectory::default(),
            mon: PerfMonitor::new(cfg.topology.nservers),
            node_busy: vec![0; cfg.topology.nclusters()],
            cfg,
        }
    }

    pub fn monitor(&self) -> &PerfMonitor {
        &self.mon
    }

    pub fn sharers(&self, line: u64) -> u64 {
        self.dir.sharers(line)
    }

    pub fn tracked_lines(&self) -> usize {
        self.dir.tracked_lines()
    }

    pub fn is_exclusive(&self, line: u64, p: usize) -> bool {
        self.dir.is_exclusive(line, p)
    }

    pub fn cache_contains(&self, p: usize, line: u64) -> bool {
        self.caches[p].contains(line)
    }

    pub fn cache_resident(&self, p: usize) -> usize {
        self.caches[p].l1.resident() + self.caches[p].l2.resident()
    }

    pub fn home_node(&self, obj: ObjRef) -> NodeId {
        self.space.home(obj)
    }

    pub fn home_proc(&self, obj: ObjRef) -> ProcId {
        self.space.home_proc(obj)
    }

    pub fn alloc_on_node(&mut self, node: NodeId, bytes: u64) -> ObjRef {
        let node = NodeId(node.index() % self.cfg.topology.nclusters());
        let p = self.cfg.proc_of_node(node);
        self.space.alloc_placed(bytes, node, p)
    }

    pub fn alloc_interleaved(&mut self, bytes: u64) -> ObjRef {
        self.space.alloc_interleaved(bytes)
    }

    pub fn alloc_first_touch(&mut self, bytes: u64) -> ObjRef {
        self.space.alloc_first_touch(bytes)
    }

    pub fn migrate_to_proc(&mut self, obj: ObjRef, bytes: u64, n: usize) -> u64 {
        let p = ProcId(n % self.cfg.topology.nservers);
        let node = self.cfg.node_of(p);
        self.migrate_placed(obj, bytes, node, p)
    }

    fn migrate_placed(&mut self, obj: ObjRef, bytes: u64, node: NodeId, p: ProcId) -> u64 {
        let moved = self.space.migrate_placed(obj, bytes, node, p);
        if moved == 0 {
            return 0;
        }
        let (lo, hi) = self.space.span_pages(obj, bytes);
        let line_bytes = self.cfg.l1.line_bytes;
        let mut line = lo / line_bytes;
        let end = hi / line_bytes;
        while line < end {
            for cache in &mut self.caches {
                cache.invalidate(line);
            }
            self.dir.purge_line(line);
            line += 1;
        }
        moved * PAGE_MIGRATE_COST
    }

    pub fn read_at(&mut self, p: ProcId, obj: ObjRef, len: u64, now: u64) -> u64 {
        self.reference(p, obj, len, false, now)
    }

    pub fn write_at(&mut self, p: ProcId, obj: ObjRef, len: u64, now: u64) -> u64 {
        self.reference(p, obj, len, true, now)
    }

    pub fn prefetch(&mut self, p: ProcId, obj: ObjRef, len: u64, now: u64) -> u64 {
        const ISSUE_COST: u64 = 2;
        if len == 0 {
            return 0;
        }
        let line_bytes = self.cfg.l1.line_bytes;
        let first = obj.0 / line_bytes;
        let last = (obj.0 + len - 1) / line_bytes;
        let pi = p.index();
        let mut cycles = 0;
        for line in first..=last {
            let addr = line * line_bytes;
            if self.space.is_untouched(addr) {
                let node = self.cfg.node_of(p);
                self.space.claim_first_touch(addr, node, p);
            }
            if self.caches[pi].contains(line) {
                self.mon.proc_mut(pi).prefetch_hits += 1;
                continue;
            }
            if let Level::Memory {
                l2_victim: Some(v),
            } = self.caches[pi].access(line)
            {
                self.dir.evict(v, pi);
            }
            self.dir.read_miss(line, pi);
            if self.cfg.mem_occupancy > 0 {
                let module = self.space.home(ObjRef(addr)).index();
                let busy = &mut self.node_busy[module];
                *busy = (*busy).max(now + cycles) + self.cfg.mem_occupancy;
            }
            self.mon.proc_mut(pi).prefetches += 1;
            cycles += ISSUE_COST;
        }
        self.mon.proc_mut(pi).busy_cycles += cycles;
        cycles
    }

    fn reference(&mut self, p: ProcId, obj: ObjRef, len: u64, is_write: bool, now: u64) -> u64 {
        if len == 0 {
            return 0;
        }
        let line_bytes = self.cfg.l1.line_bytes;
        let first = obj.0 / line_bytes;
        let last = (obj.0 + len - 1) / line_bytes;
        let mut cycles = 0;
        for line in first..=last {
            let addr = line * line_bytes;
            if self.space.is_untouched(addr) {
                let node = self.cfg.node_of(p);
                self.space.claim_first_touch(addr, node, p);
            }
            let t = now + cycles;
            cycles += if is_write {
                self.write_line(p, line, t)
            } else {
                self.read_line(p, line, t)
            };
        }
        self.mon.proc_mut(p.index()).busy_cycles += cycles;
        cycles
    }

    fn read_line(&mut self, p: ProcId, line: u64, now: u64) -> u64 {
        let pi = p.index();
        let level = self.caches[pi].access(line);
        match level {
            Level::L1 => {
                self.mon.proc_mut(pi).record(Service::L1);
                self.cfg.lat.l1_hit
            }
            Level::L2 => {
                self.mon.proc_mut(pi).record(Service::L2);
                self.cfg.lat.l2_hit
            }
            Level::Memory { l2_victim } => {
                if let Some(v) = l2_victim {
                    self.dir.evict(v, pi);
                }
                let outcome = self.dir.read_miss(line, pi);
                self.service_miss(p, line, outcome.from_dirty_cache, outcome.dirty_owner, now)
            }
        }
    }

    fn write_line(&mut self, p: ProcId, line: u64, now: u64) -> u64 {
        let pi = p.index();
        let was_exclusive = self.dir.is_exclusive(line, pi);
        let level = self.caches[pi].access(line);
        if let Level::Memory {
            l2_victim: Some(v),
        } = level
        {
            self.dir.evict(v, pi);
        }
        let outcome = self.dir.write(line, pi);
        let mut bits = outcome.invalidate_procs;
        while bits != 0 {
            let q = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            self.caches[q].invalidate(line);
            self.mon.proc_mut(q).invalidations_received += 1;
        }
        self.mon.proc_mut(pi).invalidations_sent += u64::from(outcome.invalidations);
        match level {
            Level::L1 if was_exclusive => {
                self.mon.proc_mut(pi).record(Service::L1);
                self.cfg.lat.l1_hit
            }
            Level::L2 if was_exclusive => {
                self.mon.proc_mut(pi).record(Service::L2);
                self.cfg.lat.l2_hit
            }
            _ => self.service_miss(p, line, outcome.from_dirty_cache, outcome.dirty_owner, now),
        }
    }

    fn service_miss(
        &mut self,
        p: ProcId,
        line: u64,
        from_dirty: bool,
        dirty_owner: Option<usize>,
        now: u64,
    ) -> u64 {
        let pi = p.index();
        let my_cluster = self.cfg.topology.cluster_of(p);
        let supplier_cluster = if from_dirty {
            self.cfg
                .topology
                .cluster_of(ProcId(dirty_owner.expect("dirty service implies owner")))
        } else {
            let addr = line * self.cfg.l1.line_bytes;
            cool_core::ClusterId(self.space.home(ObjRef(addr)).index())
        };
        let local = supplier_cluster == my_cluster;
        let mut cycles = if local {
            self.cfg.lat.local_mem
        } else {
            self.cfg.lat.remote_mem
        };
        if from_dirty {
            cycles += self.cfg.lat.dirty_penalty;
        }
        const QUEUE_DEPTH: u64 = 32;
        if self.cfg.mem_occupancy > 0 && !from_dirty {
            let module = supplier_cluster.index();
            let busy = &mut self.node_busy[module];
            let start = (*busy).max(now);
            *busy = start + self.cfg.mem_occupancy;
            let queue_delay = (start - now).min(QUEUE_DEPTH * self.cfg.mem_occupancy);
            cycles += queue_delay;
            self.mon.proc_mut(pi).contention_cycles += queue_delay;
        }
        self.mon.proc_mut(pi).record(if local {
            Service::LocalMem
        } else {
            Service::RemoteMem
        });
        cycles
    }
}
