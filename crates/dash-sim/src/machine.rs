//! The machine façade: processors + caches + memories + directory + monitor.
//!
//! Application tasks mirror their memory accesses through [`Machine::read`] /
//! [`Machine::write`]; the machine walks the cache hierarchy and coherence
//! directory for every line touched, classifies where each reference was
//! serviced (L1 / L2 / local memory / remote memory) and returns the cycles
//! the access cost, which the scheduler adds to the issuing processor's
//! virtual clock.

use cool_core::{ClusterId, NodeId, ObjRef, ProcId, MAX_TOPO_LEVELS};

use crate::cache::{Level, ProcCache};
use crate::check::{CheckState, CoherenceViolation};
use crate::config::{MachineConfig, PAGE_MIGRATE_COST};
use crate::directory::Directory;
use crate::engine::{ContentionStats, Engine, Hop, ResourceKind};
use crate::monitor::{PerfMonitor, Service};
use crate::space::AddressSpace;

/// Sentinel line/page number for an empty lookaside slot.
const NO_LINE: u64 = u64::MAX;

/// Most hops a miss takes: a dirty three-hop on the deepest machine tree
/// (requester bus + up to `MAX_TOPO_LEVELS` links toward home + home
/// directory + up to `MAX_TOPO_LEVELS` links toward the owner + owner bus).
const MAX_MISS_HOPS: usize = 3 + 2 * MAX_TOPO_LEVELS;

/// Per-processor lookaside: short-circuits the common case of a reference
/// hitting the line the processor touched last, without walking the cache
/// sets or the directory.
///
/// Invariants (each makes the short-circuit *exactly* equivalent to the full
/// walk, not an approximation — the line is MRU in its L1 set, so the walk
/// would change no LRU, cache or directory state and charge `l1_hit`):
///
/// * `line != NO_LINE` implies the line is resident in this processor's L1
///   and is the MRU way of its set. Any access to a *different* line
///   replaces the entry, so self-evictions can never leave it stale; a
///   coherence invalidation from another processor's write clears it; a page
///   migration clears every processor's entry.
/// * `write_ok` implies this processor is the exclusive dirty owner, so a
///   repeat write is a pure hit with no ownership transaction. It is cleared
///   (downgraded) when another processor's read is serviced by this owner's
///   dirty cache. Under-claiming is always safe: the slow path recomputes.
/// * `page != NO_LINE` names a page known to be claimed (not first-touch
///   untouched). Pages only transition untouched→touched, so this is
///   one-way-safe and skips the per-line first-touch probe.
#[derive(Clone, Copy, Debug)]
struct Lookaside {
    line: u64,
    page: u64,
    write_ok: bool,
}

impl Lookaside {
    const EMPTY: Lookaside = Lookaside {
        line: NO_LINE,
        page: NO_LINE,
        write_ok: false,
    };
}

/// Gated per-page traffic monitor: memory-serviced misses counted by
/// (page, requesting cluster). Off by default — the rebalancing runtime
/// enables it — and observer-pure: counting never changes a reference's
/// cost, so enabling it cannot perturb simulated cycles.
#[derive(Clone, Debug, Default)]
pub struct PageTraffic {
    nclusters: usize,
    /// Flat `page × cluster` counters, grown lazily to the highest page
    /// observed (stride `nclusters`).
    counts: Vec<u32>,
}

impl PageTraffic {
    fn new(nclusters: usize) -> Self {
        PageTraffic {
            nclusters,
            counts: Vec::new(),
        }
    }

    /// Count one memory-serviced miss on `page` from `cluster`.
    #[inline]
    fn note(&mut self, page: usize, cluster: usize) {
        let end = (page + 1) * self.nclusters;
        if end > self.counts.len() {
            self.counts.resize(end, 0);
        }
        let c = &mut self.counts[page * self.nclusters + cluster];
        *c = c.saturating_add(1);
    }

    /// Highest observed page index plus one (pages beyond this have zero
    /// traffic).
    pub fn pages(&self) -> usize {
        self.counts.len().checked_div(self.nclusters).unwrap_or(0)
    }

    /// Misses `cluster` took on `page` since the last reset.
    pub fn count(&self, page: usize, cluster: usize) -> u32 {
        self.counts
            .get(page * self.nclusters + cluster)
            .copied()
            .unwrap_or(0)
    }

    /// Clear all counters (the rebalancer resets at each phase boundary so
    /// every decision sees one phase's traffic).
    pub fn reset(&mut self) {
        self.counts.clear();
    }
}

/// The most processors a [`Machine`] simulates (sharer sets are 64-bit).
pub const MAX_PROCS: usize = 64;

/// A simulated DASH-like multiprocessor.
#[derive(Debug)]
pub struct Machine {
    cfg: MachineConfig,
    caches: Vec<ProcCache>,
    space: AddressSpace,
    dir: Directory,
    mon: PerfMonitor,
    /// Virtual time until which each memory module (cluster memory) is
    /// occupied servicing earlier requests (legacy contention model; used
    /// only in zero-contention mode, i.e. when `engine` is `None`).
    node_busy: Vec<u64>,
    /// Contention engine (`Some` iff `cfg.contention` is).
    /// When installed, misses become multi-hop transactions queueing at
    /// per-cluster bus/net/directory/memory resources instead of taking
    /// the busy-pointer shortcut above.
    engine: Option<Engine>,
    /// Per-processor last-line/last-page lookaside (see [`Lookaside`]).
    lookaside: Vec<Lookaside>,
    /// `cfg.topology.cluster_of(p)` at index `p`, so the miss path divides
    /// nothing.
    cluster_of: Vec<ClusterId>,
    /// `cfg.cluster_distance(a, b)` at index `a * nclusters + b`.
    distance: Vec<u8>,
    nclusters: usize,
    /// `log2(line_bytes)` when the line size is a power of two (it is for
    /// every DASH configuration), so the two address→line divisions on the
    /// per-reference path compile to shifts. Zero-sentinel otherwise.
    line_shift: u32,
    /// `log2(page_bytes)` (page size is always a power of two).
    page_shift: u32,
    /// Checked-mode state (`None` when disabled — the per-reference cost
    /// is then a single branch). See [`crate::check`] for the catalogue.
    checked: Option<CheckState>,
    /// Per-page miss traffic (`Some` iff enabled by the rebalancing
    /// runtime; observer-pure, see [`PageTraffic`]).
    traffic: Option<PageTraffic>,
}

impl Machine {
    /// Build a cold machine from a configuration.
    pub fn new(cfg: MachineConfig) -> Self {
        let topo = cfg.topology;
        let nprocs = topo.nservers;
        assert!((1..=MAX_PROCS).contains(&nprocs), "1..=64 processors");
        if let Some(lat) = &cfg.remote_lat {
            let distances = topo.nlevels() - topo.mem_level();
            assert!(
                lat[..distances].iter().all(|&l| l > 0),
                "remote_lat needs a latency for each of the {distances} distances"
            );
        }
        let caches = (0..nprocs).map(|_| ProcCache::new(cfg.l1, cfg.l2)).collect();
        let nclusters = topo.nclusters();
        let distance = (0..nclusters * nclusters)
            .map(|i| cfg.cluster_distance(ClusterId(i / nclusters), ClusterId(i % nclusters)))
            .map(|d| u8::try_from(d).expect("tree depth fits u8"))
            .collect();
        Machine {
            caches,
            space: AddressSpace::with_procs_per_node(
                cfg.page_bytes,
                nclusters,
                topo.procs_per_cluster(),
            ),
            dir: Directory::new(),
            mon: PerfMonitor::new(nprocs),
            node_busy: vec![0; nclusters],
            engine: cfg
                .contention
                .map(|c| Engine::with_nets(c, nclusters, cfg.nnet())),
            lookaside: vec![Lookaside::EMPTY; nprocs],
            cluster_of: (0..nprocs).map(|p| topo.cluster_of(ProcId(p))).collect(),
            distance,
            nclusters,
            line_shift: if cfg.l1.line_bytes.is_power_of_two() {
                cfg.l1.line_bytes.trailing_zeros()
            } else {
                0
            },
            page_shift: cfg.page_bytes.trailing_zeros(),
            checked: None,
            traffic: None,
            cfg,
        }
    }

    /// Line number of `addr` (shift when the line size is 2^k).
    #[inline]
    fn line_of(&self, addr: u64) -> u64 {
        if self.line_shift != 0 {
            addr >> self.line_shift
        } else {
            addr / self.cfg.l1.line_bytes
        }
    }

    /// [`MachineConfig::cluster_distance`], read from the table.
    #[inline]
    fn distance(&self, a: ClusterId, b: ClusterId) -> usize {
        usize::from(self.distance[a.index() * self.nclusters + b.index()])
    }

    /// Machine configuration.
    pub fn config(&self) -> &MachineConfig {
        &self.cfg
    }

    /// The performance monitor (read-only).
    pub fn monitor(&self) -> &PerfMonitor {
        &self.mon
    }

    /// Mutable monitor access (scheduler charges idle/overhead cycles).
    pub fn monitor_mut(&mut self) -> &mut PerfMonitor {
        &mut self.mon
    }

    /// The address space (read-only).
    pub fn space(&self) -> &AddressSpace {
        &self.space
    }

    // ----- allocation & distribution (Section 4.1 primitives) -----

    /// `new (n) T`: allocate in the local memory of processor `n % nprocs`.
    pub fn alloc_on_proc(&mut self, n: usize, bytes: u64) -> ObjRef {
        let p = ProcId(n % self.cfg.topology.nservers);
        let node = self.cfg.node_of(p);
        self.space.alloc_placed(bytes, node, p)
    }

    /// Allocate directly on a memory node (owned by its first processor).
    pub fn alloc_on_node(&mut self, node: NodeId, bytes: u64) -> ObjRef {
        let node = NodeId(node.index() % self.nclusters);
        let p = self.cfg.proc_of_node(node);
        self.space.alloc_placed(bytes, node, p)
    }

    /// Allocate with round-robin page interleaving across memory nodes.
    pub fn alloc_interleaved(&mut self, bytes: u64) -> ObjRef {
        self.space.alloc_interleaved(bytes)
    }

    /// Allocate under the first-touch policy: each page is homed on the
    /// cluster of the first processor that references it (the automatic
    /// OS placement the paper's related work contrasts with).
    pub fn alloc_first_touch(&mut self, bytes: u64) -> ObjRef {
        self.space.alloc_first_touch(bytes)
    }

    /// `home()`: the memory node holding the object.
    pub fn home_node(&self, obj: ObjRef) -> NodeId {
        self.space.home(obj)
    }

    /// The server/processor used to collocate tasks with `obj`: the
    /// processor whose local memory was requested when the page was placed.
    /// Object-affinity scheduling resolves through this — COOL's `home()`.
    pub fn home_proc(&self, obj: ObjRef) -> ProcId {
        self.space.home_proc(obj)
    }

    /// `migrate()`: move `bytes` at `obj` to processor `n % nprocs`'s local
    /// memory. Whole pages move; cached copies of the moved pages are
    /// discarded machine-wide (the physical address changed). Returns the
    /// cycle cost to charge the calling processor.
    pub fn migrate_to_proc(&mut self, obj: ObjRef, bytes: u64, n: usize) -> u64 {
        let p = ProcId(n % self.cfg.topology.nservers);
        let node = self.cfg.node_of(p);
        self.migrate_placed(obj, bytes, node, p)
    }

    /// `migrate()` targeting a memory node directly (owned by its first
    /// processor).
    pub fn migrate_to_node(&mut self, obj: ObjRef, bytes: u64, node: NodeId) -> u64 {
        let node = NodeId(node.index() % self.nclusters);
        let p = self.cfg.proc_of_node(node);
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
            // Directory/cache agreement makes the sharer bitmap exactly the
            // set of caches holding the line (checked mode validates each
            // line below), so only those caches need the invalidation.
            let mut bits = self.dir.sharers(line);
            while bits != 0 {
                let q = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                self.caches[q].invalidate(line);
            }
            self.dir.purge_line(line);
            line += 1;
        }
        // Cached copies are gone machine-wide, so no lookaside may keep
        // promising an L1 hit on a moved line. Migration is rare; clearing
        // every entry (rather than range-testing each) keeps this simple.
        // The `page` halves stay valid: migration never un-touches a page.
        for la in &mut self.lookaside {
            la.line = NO_LINE;
            la.write_ok = false;
        }
        if self.checked.is_some() {
            let mut l = lo / line_bytes;
            while l < end {
                self.check_line(l);
                l += 1;
            }
        }
        moved * PAGE_MIGRATE_COST
    }

    // ----- memory references -----

    /// Simulate a read of `len` bytes at `obj` by processor `p`, issued at
    /// virtual time 0 (no contention context). Returns the cycles the access
    /// cost (summed over the cache lines touched).
    pub fn read(&mut self, p: ProcId, obj: ObjRef, len: u64) -> u64 {
        self.reference(p, obj, len, false, 0)
    }

    /// Simulate a write of `len` bytes at `obj` by processor `p`, issued at
    /// virtual time 0.
    pub fn write(&mut self, p: ProcId, obj: ObjRef, len: u64) -> u64 {
        self.reference(p, obj, len, true, 0)
    }

    /// As [`Machine::read`], issued at virtual time `now` — misses queue
    /// behind other requests occupying the servicing memory module.
    pub fn read_at(&mut self, p: ProcId, obj: ObjRef, len: u64, now: u64) -> u64 {
        self.reference(p, obj, len, false, now)
    }

    /// As [`Machine::write`], issued at virtual time `now`.
    pub fn write_at(&mut self, p: ProcId, obj: ObjRef, len: u64, now: u64) -> u64 {
        self.reference(p, obj, len, true, now)
    }

    /// Prefetch `len` bytes at `obj` into `p`'s caches, issued at virtual
    /// time `now` (Section 8 lists prefetching support as ongoing work; this
    /// models a non-binding prefetch whose latency overlaps computation).
    /// Each line costs only an issue overhead; lines already cached are
    /// skipped. Prefetched fills consume memory-module bandwidth like
    /// ordinary misses but their latency is hidden.
    pub fn prefetch(&mut self, p: ProcId, obj: ObjRef, len: u64, now: u64) -> u64 {
        const ISSUE_COST: u64 = 2;
        if len == 0 {
            return 0;
        }
        let line_bytes = self.cfg.l1.line_bytes;
        let first = self.line_of(obj.0);
        let last = self.line_of(obj.0 + len - 1);
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
            // Fill both levels; handle inclusion victims and coherence like
            // a read miss, but charge only the issue cost.
            if let crate::cache::Level::Memory {
                l2_victim: Some(v),
            } = self.caches[pi].access(line)
            {
                self.dir.evict(v, pi);
                if let Some(chk) = self.checked.as_mut() {
                    chk.pending.push(v);
                }
            }
            let outcome = self.dir.read_miss(line, pi);
            // A prefetch serviced by a dirty owner downgrades the owner to
            // shared: its lookaside may no longer promise exclusive writes.
            if let Some(o) = outcome.dirty_owner {
                if o != pi && self.lookaside[o].line == line {
                    self.lookaside[o].write_ok = false;
                }
            }
            // The fill may have displaced this processor's lookaside line
            // from L1; the freshly filled line is now the MRU way instead.
            self.lookaside[pi] = Lookaside {
                line,
                page: addr >> self.page_shift,
                write_ok: false,
            };
            if self.checked.is_some() {
                self.drain_checks(line);
            }
            // Bandwidth: the fill consumes memory-system capacity even
            // though its latency is hidden.
            if self.engine.is_some() {
                // The fill takes a clean miss's route at issue, reserving
                // the shared resources in issue order; its wait is hidden.
                self.contend(self.cluster_of[pi], line, None, now + cycles);
            } else if self.cfg.mem_occupancy > 0 {
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

    /// Pure computation: `cycles` of busy work on `p` with no memory traffic.
    pub fn compute(&mut self, p: ProcId, cycles: u64) -> u64 {
        self.mon.proc_mut(p.index()).busy_cycles += cycles;
        cycles
    }

    fn reference(&mut self, p: ProcId, obj: ObjRef, len: u64, is_write: bool, now: u64) -> u64 {
        if len == 0 {
            return 0;
        }
        let line_bytes = self.cfg.l1.line_bytes;
        let first = self.line_of(obj.0);
        let last = self.line_of(obj.0 + len - 1);
        let pi = p.index();
        let l1_hit = self.cfg.lat.l1_hit;
        let mut cycles = 0;
        // One walk over every line the reference spans; contiguous lines of
        // the same object share the lookaside's page entry, so the per-line
        // first-touch probe runs only on page crossings. Manual loop: a
        // `..=` range keeps an exhaustion flag the optimiser can't always
        // drop, and most references touch exactly one line.
        let mut line = first;
        loop {
            let la = self.lookaside[pi];
            if la.line == line && (!is_write || la.write_ok) {
                // Repeat access to the processor's MRU line (for writes:
                // already exclusive). The full walk would change no state
                // and charge an L1 hit; skip it.
                self.mon.proc_mut(pi).record(Service::L1);
                cycles += l1_hit;
                if line == last {
                    break;
                }
                line += 1;
                continue;
            }
            // First-touch claiming: the first reference to an untouched page
            // homes it on the referencing processor's cluster.
            let addr = line * line_bytes;
            let page = addr >> self.page_shift;
            if page != la.page && self.space.is_untouched(addr) {
                let node = self.cfg.node_of(p);
                self.space.claim_first_touch(addr, node, p);
            }
            // Time advances within the access: line i issues after the
            // previous lines completed.
            let t = now + cycles;
            let write_ok;
            cycles += if is_write {
                // A write always leaves `p` as the exclusive dirty owner.
                write_ok = true;
                self.write_line(p, line, t)
            } else {
                let c = self.read_line(p, line, t);
                // A read leaves the line in L1; it is only write-fast if `p`
                // was (and stayed) the sole sharer and dirty owner.
                write_ok = self.dir.is_exclusive(line, pi);
                c
            };
            self.lookaside[pi] = Lookaside {
                line,
                page,
                write_ok,
            };
            if self.checked.is_some() {
                self.drain_checks(line);
            }
            if line == last {
                break;
            }
            line += 1;
        }
        self.mon.proc_mut(pi).busy_cycles += cycles;
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
                    if let Some(chk) = self.checked.as_mut() {
                        chk.pending.push(v);
                    }
                }
                let outcome = self.dir.read_miss(line, pi);
                // Serviced by a dirty owner: the owner downgrades to shared,
                // so its lookaside may no longer promise exclusive writes.
                if let Some(o) = outcome.dirty_owner {
                    if o != pi && self.lookaside[o].line == line {
                        self.lookaside[o].write_ok = false;
                    }
                }
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
            if let Some(chk) = self.checked.as_mut() {
                chk.pending.push(v);
            }
        }
        let outcome = self.dir.write(line, pi);
        // Invalidate the line out of every other sharer's caches (and out of
        // their lookasides — the line is gone from their L1s).
        let mut bits = outcome.invalidate_procs;
        while bits != 0 {
            let q = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            self.caches[q].invalidate(line);
            if self.lookaside[q].line == line {
                self.lookaside[q].line = NO_LINE;
                self.lookaside[q].write_ok = false;
            }
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
            // A write hit on a shared line still needs an ownership
            // transaction through the home directory; a write miss needs the
            // data too. Both are charged (and counted) as a miss.
            _ => self.service_miss(p, line, outcome.from_dirty_cache, outcome.dirty_owner, now),
        }
    }

    /// Classify and cost a reference serviced beyond the private caches.
    fn service_miss(
        &mut self,
        p: ProcId,
        line: u64,
        from_dirty: bool,
        dirty_owner: Option<usize>,
        now: u64,
    ) -> u64 {
        let pi = p.index();
        let my_cluster = self.cluster_of[pi];
        // Data comes from the dirty owner's cache when one exists, otherwise
        // from the home memory of the line's page.
        let supplier_cluster = if from_dirty {
            self.cluster_of[dirty_owner.expect("dirty service implies owner")]
        } else {
            let addr = line * self.cfg.l1.line_bytes;
            cool_core::ClusterId(self.space.home(ObjRef(addr)).index())
        };
        // Distance 0 is the local cluster; beyond it the per-level latency
        // table applies (the 1-level DASH tree has the single uniform
        // distance 1, charging exactly `remote_mem` as before).
        let dist = self.distance(my_cluster, supplier_cluster);
        let local = dist == 0;
        let mut cycles = self.cfg.mem_latency(dist);
        if from_dirty {
            cycles += self.cfg.lat.dirty_penalty;
        }
        if self.engine.is_some() {
            // Contended mode: the miss is a multi-hop transaction through
            // per-cluster resources (see `Machine::contend`). Hop service
            // times occupy the resources — bandwidth is consumed — but only
            // the *queue wait* is charged on top of the base latency above,
            // so at zero load this mode costs exactly what the constants
            // cost.
            let owner = from_dirty.then_some(supplier_cluster);
            let wait = self.contend(my_cluster, line, owner, now);
            cycles += wait;
            self.mon.proc_mut(pi).contention_cycles += wait;
        } else if self.cfg.mem_occupancy > 0 && !from_dirty {
            // Legacy (zero-contention-mode) model: the servicing module is
            // occupied for `mem_occupancy` cycles per request; requests
            // finding it busy queue behind it. The busy pointer ratchets
            // unbounded (true FIFO bandwidth: a module can only service
            // 1/occupancy requests per cycle), but the delay *charged* to
            // any one request is capped at QUEUE_DEPTH×occupancy. The cap
            // matters because tasks execute atomically at task grain:
            // processor clocks skew within a task, and charging the raw
            // FIFO delay would let one late-clock request inflate every
            // earlier-clock request's cost without bound. With the cap, a
            // saturated module costs each request up to one full queue —
            // throughput pressure is felt — while the skew error stays
            // bounded.
            const QUEUE_DEPTH: u64 = 32;
            let module = supplier_cluster.index();
            let busy = &mut self.node_busy[module];
            let start = (*busy).max(now);
            *busy = start + self.cfg.mem_occupancy;
            let queue_delay =
                (start - now).min(QUEUE_DEPTH * self.cfg.mem_occupancy);
            cycles += queue_delay;
            self.mon.proc_mut(pi).contention_cycles += queue_delay;
        }
        if !from_dirty {
            // Memory-serviced miss: attribute it to (page, requester
            // cluster) for the phase-boundary rebalancer. Dirty-cache
            // supplies are excluded — re-homing the page would not change
            // where that data comes from.
            if let Some(tr) = self.traffic.as_mut() {
                let page = (line * self.cfg.l1.line_bytes) >> self.page_shift;
                tr.note(page as usize, my_cluster.index());
            }
        }
        self.mon.proc_mut(pi).record(if local {
            Service::LocalMem
        } else {
            Service::RemoteMem
        });
        cycles
    }

    /// Carry a miss on `line` by a processor of cluster `rc` through the
    /// contention engine at `now` and return the wait to charge (see
    /// [`Engine::transact`]). The route: the requester's bus, the
    /// interconnect links toward the line's home, the home directory, then
    /// the home memory module — or, when `owner`'s cluster holds the line
    /// dirty, the links from the home toward it and its bus (three-hop).
    /// On the 1-level DASH tree a remote crossing is exactly one hop, at
    /// the far cluster's link; on a deeper tree it descends that side's
    /// domain links.
    fn contend(&mut self, rc: ClusterId, line: u64, owner: Option<ClusterId>, now: u64) -> u64 {
        let home = ClusterId(self.space.home(ObjRef(line * self.cfg.l1.line_bytes)).index());
        let mut hops = [Hop {
            kind: ResourceKind::Bus,
            cluster: rc.index(),
        }; MAX_MISS_HOPS];
        let mut n = 1;
        let mut push = |kind, cluster| {
            hops[n] = Hop { kind, cluster };
            n += 1;
        };
        let mut path = [0usize; MAX_TOPO_LEVELS];
        let d = self.distance(rc, home);
        let np = self.cfg.net_path_at(d, home, &mut path);
        for &link in &path[..np] {
            push(ResourceKind::Net, link);
        }
        push(ResourceKind::Dir, home.index());
        match owner {
            Some(oc) => {
                let d = self.distance(home, oc);
                let np = self.cfg.net_path_at(d, oc, &mut path);
                for &link in &path[..np] {
                    push(ResourceKind::Net, link);
                }
                push(ResourceKind::Bus, oc.index());
            }
            None => push(ResourceKind::Mem, home.index()),
        }
        let eng = self.engine.as_mut().expect("contended mode");
        eng.transact(now, &hops[..n])
    }

    // ----- page-traffic monitoring (rebalancer input) -----

    /// Start counting per-page miss traffic (idempotent). The counters are
    /// observer-pure: enabling them never changes any reference's cost.
    pub fn enable_traffic(&mut self) {
        if self.traffic.is_none() {
            self.traffic = Some(PageTraffic::new(self.nclusters));
        }
    }

    /// The per-page traffic counters (`None` unless
    /// [`Machine::enable_traffic`] was called).
    pub fn traffic(&self) -> Option<&PageTraffic> {
        self.traffic.as_ref()
    }

    /// Clear the per-page traffic counters (no-op when disabled).
    pub fn reset_traffic(&mut self) {
        if let Some(tr) = self.traffic.as_mut() {
            tr.reset();
        }
    }

    // ----- checked mode (coherence-invariant validation) -----

    /// Enable checked mode: every subsequent coherence transition (miss
    /// fill, ownership write, eviction, purge) is validated against the
    /// invariant catalogue in [`crate::check`], and [`Machine::check_full`]
    /// becomes a full-state sweep. Violations are collected, not panicked,
    /// so seeded-defect tests can observe them.
    pub fn enable_checked(&mut self) {
        if self.checked.is_none() {
            self.checked = Some(CheckState::default());
        }
    }

    /// Is checked mode enabled?
    pub fn is_checked(&self) -> bool {
        self.checked.is_some()
    }

    /// Coherence transitions validated so far (0 when unchecked).
    pub fn transitions_checked(&self) -> u64 {
        self.checked.as_ref().map_or(0, |c| c.transitions)
    }

    /// Total invariant violations detected so far (0 when unchecked).
    pub fn violation_count(&self) -> u64 {
        self.checked.as_ref().map_or(0, |c| c.violation_count)
    }

    /// The first violations detected, verbatim (empty when unchecked).
    pub fn violations(&self) -> &[CoherenceViolation] {
        self.checked.as_ref().map_or(&[], |c| &c.violations)
    }

    /// Validate `line` plus any victim lines evicted by the transition
    /// (recorded in `pending` by the fill paths). Called once the
    /// reference's state updates — lookaside included — have settled.
    fn drain_checks(&mut self, line: u64) {
        self.check_line(line);
        while let Some(v) = self.checked.as_mut().and_then(|c| c.pending.pop()) {
            self.check_line(v);
        }
    }

    /// Validate one line's invariants after a coherence transition.
    fn check_line(&mut self, line: u64) {
        if self.checked.is_none() {
            return;
        }
        let mut found = Vec::new();
        self.validate_line(line, &mut found);
        let chk = self.checked.as_mut().expect("checked");
        chk.transitions += 1;
        for v in found {
            chk.record(v);
        }
    }

    /// Line-scope invariant catalogue: SWMR, directory/cache agreement in
    /// both directions, no lost invalidations, lookaside soundness.
    fn validate_line(&self, line: u64, out: &mut Vec<CoherenceViolation>) {
        let sharers = self.dir.sharers(line);
        let owner = self.dir.owner_of(line);
        if let Some(o) = owner {
            if sharers != 1 << o {
                out.push(CoherenceViolation {
                    invariant: "swmr",
                    line,
                    detail: format!("dirty owner {o} with sharer bitmap {sharers:#b}"),
                });
            }
            for q in 0..self.cfg.topology.nservers {
                if q != o && self.caches[q].contains(line) {
                    out.push(CoherenceViolation {
                        invariant: "lost-invalidation",
                        line,
                        detail: format!("cache {q} still holds a line dirty-owned by {o}"),
                    });
                }
            }
        }
        for (q, cache) in self.caches.iter().enumerate() {
            let bit = sharers & (1 << q) != 0;
            let resident = cache.contains(line);
            if bit != resident {
                out.push(CoherenceViolation {
                    invariant: "agreement",
                    line,
                    detail: format!(
                        "directory says sharer({q})={bit}, cache tag says resident={resident}"
                    ),
                });
            }
        }
        for (q, la) in self.lookaside.iter().enumerate() {
            if la.line != line {
                continue;
            }
            if !self.caches[q].l1.is_mru(line) {
                out.push(CoherenceViolation {
                    invariant: "lookaside",
                    line,
                    detail: format!("lookaside {q} promises an L1 hit but the line is not MRU"),
                });
            }
            if la.write_ok && !self.dir.is_exclusive(line, q) {
                out.push(CoherenceViolation {
                    invariant: "lookaside",
                    line,
                    detail: format!(
                        "lookaside {q} promises exclusive writes without exclusive ownership"
                    ),
                });
            }
        }
    }

    /// Full-state sweep: every tracked line's catalogue, the reverse
    /// (cache-tag → sharer-bit) direction over all resident lines, and
    /// tracked-count conservation. Run at task/phase boundaries by the
    /// scheduler; O(table + cache contents), so not per-reference. Returns
    /// the number of violations found by this sweep (0 when unchecked).
    pub fn check_full(&mut self) -> u64 {
        if self.checked.is_none() {
            return 0;
        }
        let mut found = Vec::new();
        let mut with_state = 0usize;
        for line in 0..self.dir.table_len() as u64 {
            if self.dir.sharers(line) != 0 || self.dir.owner_of(line).is_some() {
                with_state += 1;
                self.validate_line(line, &mut found);
            }
        }
        if with_state != self.dir.tracked_lines() {
            found.push(CoherenceViolation {
                invariant: "tracked-conservation",
                line: 0,
                detail: format!(
                    "directory tracks {} lines but {} have state",
                    self.dir.tracked_lines(),
                    with_state
                ),
            });
        }
        for (q, cache) in self.caches.iter().enumerate() {
            for line in cache.resident_lines() {
                if self.dir.sharers(line) & (1 << q) == 0 {
                    found.push(CoherenceViolation {
                        invariant: "agreement",
                        line,
                        detail: format!("cache {q} holds a line with no sharer bit"),
                    });
                }
            }
        }
        let n = found.len() as u64;
        let chk = self.checked.as_mut().expect("checked");
        chk.full_sweeps += 1;
        for v in found {
            chk.record(v);
        }
        n
    }

    // ----- contention engine surface -----

    /// Aggregate contention statistics (queue waits, busy cycles, peak
    /// occupancy per resource class). All zeros in zero-contention mode.
    pub fn contention_stats(&self) -> ContentionStats {
        self.engine.as_ref().map(Engine::stats).unwrap_or_default()
    }

    // ----- seeded defects (tests of the checker itself) -----

    /// Seeded defect: set a phantom sharer bit with no cached copy.
    /// Fires `agreement` (and `swmr` if the line has a dirty owner).
    #[doc(hidden)]
    pub fn defect_phantom_sharer(&mut self, line: u64, p: usize) {
        self.dir.defect_set_sharer(line, p);
    }

    /// Seeded defect: fill a cache behind the directory's back — the
    /// shape of a missed (lost) invalidation. Fires `agreement`, and
    /// `lost-invalidation` when the line has another dirty owner.
    #[doc(hidden)]
    pub fn defect_fill_cache(&mut self, p: usize, line: u64) {
        self.caches[p].access(line);
    }

    /// Seeded defect: over-count one tracked line. Fires
    /// `tracked-conservation` on the next full sweep.
    #[doc(hidden)]
    pub fn defect_bump_tracked(&mut self) {
        self.dir.defect_bump_tracked();
    }

    /// Seeded defect: force a lookaside entry to keep promising exclusive
    /// writes. Fires `lookaside` (and models a stale downgrade).
    #[doc(hidden)]
    pub fn defect_force_lookaside(&mut self, p: usize, line: u64, write_ok: bool) {
        self.lookaside[p.min(self.cfg.topology.nservers - 1)] = Lookaside {
            line,
            page: (line * self.cfg.l1.line_bytes) >> self.page_shift,
            write_ok,
        };
    }

    // ----- test-only introspection (equivalence tests against the oracle) -----

    #[cfg(test)]
    pub(crate) fn dir_sharers(&self, line: u64) -> u64 {
        self.dir.sharers(line)
    }

    #[cfg(test)]
    pub(crate) fn dir_tracked_lines(&self) -> usize {
        self.dir.tracked_lines()
    }

    #[cfg(test)]
    pub(crate) fn dir_is_exclusive(&self, line: u64, p: usize) -> bool {
        self.dir.is_exclusive(line, p)
    }

    #[cfg(test)]
    pub(crate) fn cache_contains(&self, p: usize, line: u64) -> bool {
        self.caches[p].contains(line)
    }

    #[cfg(test)]
    pub(crate) fn cache_resident(&self, p: usize) -> usize {
        self.caches[p].l1.resident() + self.caches[p].l2.resident()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn machine(nprocs: usize) -> Machine {
        // Exact-cost assertions below assume no queueing; the contention
        // model has its own tests.
        let mut cfg = MachineConfig::dash_small(nprocs);
        cfg.mem_occupancy = 0;
        Machine::new(cfg)
    }

    #[test]
    fn first_touch_misses_then_hits_in_l1() {
        let mut m = machine(4);
        let obj = m.alloc_on_node(NodeId(0), 64);
        let c1 = m.read(ProcId(0), obj, 8);
        assert_eq!(c1, m.config().lat.local_mem, "cold miss to local memory");
        let c2 = m.read(ProcId(0), obj, 8);
        assert_eq!(c2, m.config().lat.l1_hit);
        let b = m.monitor().breakdown();
        assert_eq!(b.local_misses, 1);
        assert_eq!(b.l1_hits, 1);
    }

    #[test]
    fn remote_miss_costs_remote_latency() {
        let mut m = machine(8); // clusters {0..3}, {4..7}
        let obj = m.alloc_on_node(NodeId(1), 64);
        let c = m.read(ProcId(0), obj, 4);
        assert_eq!(c, m.config().lat.remote_mem);
        assert_eq!(m.monitor().proc(0).remote_misses, 1);
    }

    #[test]
    fn same_cluster_neighbor_misses_locally() {
        let mut m = machine(8);
        let obj = m.alloc_on_node(NodeId(0), 64);
        // Processor 3 shares cluster 0's memory.
        let c = m.read(ProcId(3), obj, 4);
        assert_eq!(c, m.config().lat.local_mem);
    }

    #[test]
    fn write_invalidates_readers() {
        let mut m = machine(4);
        let obj = m.alloc_on_node(NodeId(0), 16);
        m.read(ProcId(0), obj, 4);
        m.read(ProcId(1), obj, 4);
        m.write(ProcId(0), obj, 4);
        assert_eq!(m.monitor().proc(0).invalidations_sent, 1);
        assert_eq!(m.monitor().proc(1).invalidations_received, 1);
        // Reader 1 must now miss again, serviced by owner 0's dirty cache
        // (same cluster → local + dirty penalty).
        let c = m.read(ProcId(1), obj, 4);
        assert_eq!(c, m.config().lat.local_mem + m.config().lat.dirty_penalty);
    }

    #[test]
    fn exclusive_rewrite_is_a_pure_hit() {
        let mut m = machine(4);
        let obj = m.alloc_on_node(NodeId(0), 16);
        m.write(ProcId(2), obj, 4);
        let c = m.write(ProcId(2), obj, 4);
        assert_eq!(c, m.config().lat.l1_hit);
        assert_eq!(m.monitor().proc(2).invalidations_sent, 0);
    }

    #[test]
    fn migration_changes_home_and_cost_classification() {
        let mut m = machine(8);
        let page = m.config().page_bytes;
        let obj = m.alloc_on_node(NodeId(0), page);
        assert_eq!(m.home_node(obj), NodeId(0));
        let cost = m.migrate_to_node(obj, page, NodeId(1));
        assert!(cost > 0);
        assert_eq!(m.home_node(obj), NodeId(1));
        // Processor 4 (cluster 1) now misses locally.
        let c = m.read(ProcId(4), obj, 4);
        assert_eq!(c, m.config().lat.local_mem);
    }

    #[test]
    fn migration_discards_cached_copies() {
        let mut m = machine(8);
        let page = m.config().page_bytes;
        let obj = m.alloc_on_node(NodeId(0), page);
        m.read(ProcId(0), obj, 4);
        m.migrate_to_node(obj, page, NodeId(1));
        // The old cached copy is gone: this is a miss, now remote.
        let c = m.read(ProcId(0), obj, 4);
        assert_eq!(c, m.config().lat.remote_mem);
    }

    #[test]
    fn multi_line_reference_charges_per_line() {
        let mut m = machine(4);
        let obj = m.alloc_on_node(NodeId(0), 256);
        let line = m.config().l1.line_bytes;
        let c = m.read(ProcId(0), obj, 4 * line);
        assert_eq!(c, 4 * m.config().lat.local_mem);
        assert_eq!(m.monitor().proc(0).refs, 4);
    }

    #[test]
    fn unaligned_reference_spanning_two_lines() {
        let mut m = machine(4);
        let obj = m.alloc_on_node(NodeId(0), 64);
        let line = m.config().l1.line_bytes;
        // Start 4 bytes before a line boundary, read 8 bytes.
        let c = m.read(ProcId(0), obj.offset(line - 4), 8);
        assert_eq!(c, 2 * m.config().lat.local_mem);
    }

    #[test]
    fn zero_length_reference_is_free() {
        let mut m = machine(2);
        let obj = m.alloc_on_node(NodeId(0), 16);
        assert_eq!(m.read(ProcId(0), obj, 0), 0);
        assert_eq!(m.monitor().proc(0).refs, 0);
    }

    #[test]
    fn compute_charges_busy_cycles_only() {
        let mut m = machine(2);
        assert_eq!(m.compute(ProcId(1), 500), 500);
        assert_eq!(m.monitor().proc(1).busy_cycles, 500);
        assert_eq!(m.monitor().proc(1).refs, 0);
    }

    #[test]
    fn contended_module_queues_requests() {
        let mut cfg = MachineConfig::dash_small(8);
        cfg.mem_occupancy = 15;
        let mut m = Machine::new(cfg);
        let obj = m.alloc_on_node(NodeId(0), 4096);
        // Two misses to the same module at the same instant: the second
        // queues behind the first.
        let c1 = m.read_at(ProcId(0), obj, 4, 1000);
        let c2 = m.read_at(ProcId(1), obj.offset(64), 4, 1000);
        assert_eq!(c1, m.config().lat.local_mem);
        assert_eq!(c2, m.config().lat.local_mem + 15);
        assert_eq!(m.monitor().proc(1).contention_cycles, 15);
        // Much later, the module is free again.
        let c3 = m.read_at(ProcId(2), obj.offset(128), 4, 100_000);
        assert_eq!(c3, m.config().lat.local_mem);
    }

    #[test]
    fn distinct_modules_do_not_contend() {
        let mut cfg = MachineConfig::dash_small(8);
        cfg.mem_occupancy = 15;
        let mut m = Machine::new(cfg);
        let a = m.alloc_on_node(NodeId(0), 64);
        let b = m.alloc_on_node(NodeId(1), 64);
        let c1 = m.read_at(ProcId(0), a, 4, 0);
        let c2 = m.read_at(ProcId(4), b, 4, 0);
        assert_eq!(c1, m.config().lat.local_mem);
        assert_eq!(c2, m.config().lat.local_mem, "different module, no queue");
    }

    #[test]
    fn prefetched_lines_hit_on_use() {
        let mut m = machine(4);
        let obj = m.alloc_on_node(NodeId(0), 256);
        let issue = m.prefetch(ProcId(0), obj, 64, 0);
        assert!(issue > 0 && issue < m.config().lat.local_mem);
        assert_eq!(m.monitor().proc(0).prefetches, 4); // 64 B / 16 B lines
        // The subsequent read hits in L1 at full price avoided.
        let c = m.read(ProcId(0), obj, 64);
        assert_eq!(c, 4 * m.config().lat.l1_hit);
    }

    #[test]
    fn prefetch_of_cached_line_is_counted_as_hit() {
        let mut m = machine(4);
        let obj = m.alloc_on_node(NodeId(0), 16);
        m.read(ProcId(0), obj, 4);
        m.prefetch(ProcId(0), obj, 4, 0);
        assert_eq!(m.monitor().proc(0).prefetch_hits, 1);
        assert_eq!(m.monitor().proc(0).prefetches, 0);
    }

    #[test]
    fn first_touch_claims_page_for_first_referencer() {
        let mut m = machine(8);
        let page = m.config().page_bytes;
        let obj = m.alloc_first_touch(2 * page);
        // Processor 5 (cluster 1) touches page 0 first; processor 0 touches
        // page 1 first.
        m.read(ProcId(5), obj, 4);
        m.read(ProcId(0), obj.offset(page), 4);
        assert_eq!(m.home_node(obj), NodeId(1));
        assert_eq!(m.home_proc(obj), ProcId(5));
        assert_eq!(m.home_node(obj.offset(page)), NodeId(0));
        // Claims are permanent: a later remote reader does not re-home.
        m.read(ProcId(0), obj, 4);
        assert_eq!(m.home_node(obj), NodeId(1));
    }

    #[test]
    fn migrate_overrides_first_touch() {
        let mut m = machine(8);
        let page = m.config().page_bytes;
        let obj = m.alloc_first_touch(page);
        m.migrate_to_proc(obj, page, 6);
        assert_eq!(m.home_proc(obj), ProcId(6));
        // Already claimed by the migration; first reference no longer moves it.
        m.read(ProcId(0), obj, 4);
        assert_eq!(m.home_proc(obj), ProcId(6));
    }

    #[test]
    fn busy_cycles_accumulate_memory_stalls() {
        let mut m = machine(2);
        let obj = m.alloc_on_node(NodeId(0), 16);
        let c = m.read(ProcId(0), obj, 4);
        assert_eq!(m.monitor().proc(0).busy_cycles, c);
    }

    #[test]
    fn migration_invalidates_read_lookaside() {
        // A processor repeatedly reading one line primes its lookaside; a
        // migration of that page must clear it so the next read is charged
        // the post-migration (remote) miss latency, not a phantom L1 hit.
        let mut m = machine(8);
        let page = m.config().page_bytes;
        let obj = m.alloc_on_node(NodeId(0), page);
        m.read(ProcId(0), obj, 4);
        m.read(ProcId(0), obj, 4); // lookaside now active for this line
        m.migrate_to_node(obj, page, NodeId(1));
        let c = m.read(ProcId(0), obj, 4);
        assert_eq!(c, m.config().lat.remote_mem, "must re-miss remotely");
        assert_eq!(m.monitor().proc(0).remote_misses, 1);
    }

    #[test]
    fn migration_invalidates_write_lookaside() {
        // Same for the exclusive-write fast flag: after migration the write
        // must pay a full ownership miss again.
        let mut m = machine(8);
        let page = m.config().page_bytes;
        let obj = m.alloc_on_node(NodeId(0), page);
        m.write(ProcId(1), obj, 4);
        assert_eq!(m.write(ProcId(1), obj, 4), m.config().lat.l1_hit);
        m.migrate_to_proc(obj, page, 4); // cluster 1
        let c = m.write(ProcId(1), obj, 4);
        assert_eq!(c, m.config().lat.remote_mem, "ownership must be re-fetched");
    }

    #[test]
    fn dirty_owner_downgrade_clears_write_fastpath() {
        // Owner writes (exclusive), another processor reads the dirty line
        // (owner downgrades to shared), then the owner writes again: that
        // write still hits in cache but needs an ownership transaction — it
        // must not be short-circuited as an exclusive hit.
        let mut m = machine(4);
        let obj = m.alloc_on_node(NodeId(0), 16);
        m.write(ProcId(0), obj, 4);
        let c_read = m.read(ProcId(1), obj, 4);
        assert_eq!(
            c_read,
            m.config().lat.local_mem + m.config().lat.dirty_penalty
        );
        let c = m.write(ProcId(0), obj, 4);
        assert_eq!(c, m.config().lat.local_mem, "shared hit needs ownership");
        assert_eq!(m.monitor().proc(0).invalidations_sent, 1);
        // Reader 1 lost its copy and must miss again.
        assert_eq!(
            m.read(ProcId(1), obj, 4),
            m.config().lat.local_mem + m.config().lat.dirty_penalty
        );
    }

    fn checked_machine(nprocs: usize) -> Machine {
        let mut m = machine(nprocs);
        m.enable_checked();
        m
    }

    fn fired(m: &Machine, invariant: &str) -> bool {
        m.violations().iter().any(|v| v.invariant == invariant)
    }

    #[test]
    fn checked_mode_stays_clean_under_a_coherence_workout() {
        let mut m = checked_machine(8);
        let page = m.config().page_bytes;
        let obj = m.alloc_on_node(NodeId(0), 2 * page);
        for p in 0..4 {
            m.read(ProcId(p), obj, 128);
        }
        m.write(ProcId(1), obj, 64);
        m.read(ProcId(5), obj, 64);
        m.prefetch(ProcId(2), obj.offset(page), 128, 0);
        m.migrate_to_node(obj, page, NodeId(1));
        m.write(ProcId(6), obj, 32);
        assert!(m.transitions_checked() > 0);
        assert_eq!(m.check_full(), 0);
        assert_eq!(m.violation_count(), 0, "{:?}", m.violations());
    }

    #[test]
    fn seeded_phantom_sharer_fires_agreement() {
        let mut m = checked_machine(4);
        let obj = m.alloc_on_node(NodeId(0), 16);
        m.read(ProcId(0), obj, 4);
        let line = obj.0 / m.config().l1.line_bytes;
        m.defect_phantom_sharer(line, 2);
        assert!(m.check_full() > 0);
        assert!(fired(&m, "agreement"), "{:?}", m.violations());
    }

    #[test]
    fn seeded_extra_sharer_on_dirty_line_fires_swmr() {
        let mut m = checked_machine(4);
        let obj = m.alloc_on_node(NodeId(0), 16);
        m.write(ProcId(0), obj, 4);
        let line = obj.0 / m.config().l1.line_bytes;
        // Give processor 1 both the sharer bit and a cached copy, so
        // forward agreement holds and the single-writer property is what
        // breaks (the cached copy also surfaces as a lost invalidation).
        m.defect_phantom_sharer(line, 1);
        m.defect_fill_cache(1, line);
        assert!(m.check_full() > 0);
        assert!(fired(&m, "swmr"), "{:?}", m.violations());
    }

    #[test]
    fn seeded_stale_copy_fires_lost_invalidation() {
        let mut m = checked_machine(4);
        let obj = m.alloc_on_node(NodeId(0), 16);
        m.write(ProcId(0), obj, 4);
        let line = obj.0 / m.config().l1.line_bytes;
        // A cached copy with no sharer bit behind a dirty owner: exactly
        // the state a missed invalidation leaves behind.
        m.defect_fill_cache(2, line);
        assert!(m.check_full() > 0);
        assert!(fired(&m, "lost-invalidation"), "{:?}", m.violations());
        assert!(fired(&m, "agreement"));
    }

    #[test]
    fn seeded_stale_copy_surfaces_at_migration() {
        let mut m = checked_machine(8);
        let page = m.config().page_bytes;
        let obj = m.alloc_on_node(NodeId(0), page);
        m.read(ProcId(0), obj, 4);
        let line = obj.0 / m.config().l1.line_bytes;
        // The migration discard trusts the sharer bitmap, so a copy the
        // directory does not know of survives the move; the per-line
        // check after it reports the copy.
        m.defect_fill_cache(2, line);
        assert_eq!(m.violation_count(), 0);
        m.migrate_to_node(obj, page, NodeId(1));
        assert!(fired(&m, "agreement"), "{:?}", m.violations());
    }

    #[test]
    fn seeded_tracked_bump_fires_conservation() {
        let mut m = checked_machine(4);
        let obj = m.alloc_on_node(NodeId(0), 16);
        m.read(ProcId(0), obj, 4);
        m.defect_bump_tracked();
        assert!(m.check_full() > 0);
        assert!(fired(&m, "tracked-conservation"), "{:?}", m.violations());
    }

    #[test]
    fn seeded_stale_lookaside_fires_lookaside_soundness() {
        let mut m = checked_machine(4);
        let obj = m.alloc_on_node(NodeId(0), 16);
        m.read(ProcId(0), obj, 4);
        let line = obj.0 / m.config().l1.line_bytes;
        // Promise exclusive writes that the directory never granted.
        m.defect_force_lookaside(0, line, true);
        // The next write takes the (bogus) fast path's invariant check on
        // its own transition... but the defect is visible to a sweep even
        // before any reference.
        assert!(m.check_full() > 0);
        assert!(fired(&m, "lookaside"), "{:?}", m.violations());
    }

    #[test]
    fn per_transition_checks_catch_defects_without_a_sweep() {
        let mut m = checked_machine(4);
        let obj = m.alloc_on_node(NodeId(0), 64);
        m.read(ProcId(0), obj, 4);
        let line = obj.0 / m.config().l1.line_bytes;
        m.defect_phantom_sharer(line, 3);
        // Another processor's read miss on the same line transitions it
        // and the per-transition validation fires — no full sweep needed.
        m.read(ProcId(1), obj, 4);
        assert!(m.violation_count() > 0);
        assert!(fired(&m, "agreement"), "{:?}", m.violations());
    }

    #[test]
    fn unchecked_machine_reports_nothing() {
        let mut m = machine(4);
        let obj = m.alloc_on_node(NodeId(0), 16);
        m.read(ProcId(0), obj, 4);
        assert!(!m.is_checked());
        assert_eq!(m.transitions_checked(), 0);
        assert_eq!(m.check_full(), 0);
        assert!(m.violations().is_empty());
    }

    #[test]
    fn cluster_tables_match_the_config_definitions() {
        // The last two leave their last cluster partial: 10 processors at
        // 4 per cluster, and 44 at 8 on the deep tree.
        for cfg in [
            MachineConfig::dash(32),
            MachineConfig::dash_small(8),
            MachineConfig::deep_small(64),
            MachineConfig::dash_small(10),
            MachineConfig::deep_small(44),
        ] {
            let m = Machine::new(cfg);
            let topo = cfg.topology;
            for p in 0..topo.nservers {
                assert_eq!(m.cluster_of[p], topo.cluster_of(ProcId(p)), "proc {p}");
            }
            for a in (0..topo.nclusters()).map(ClusterId) {
                for b in (0..topo.nclusters()).map(ClusterId) {
                    assert_eq!(m.distance(a, b), cfg.cluster_distance(a, b), "{a:?}->{b:?}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "remote_lat needs a latency for each of the 2 distances")]
    fn a_latency_table_must_cover_every_distance() {
        // The 3-level tree has distances 1 and 2 above its memory level.
        Machine::new(MachineConfig {
            remote_lat: Some([100, 0, 0, 0]),
            ..MachineConfig::deep_small(64)
        });
    }

    fn contended_machine(nprocs: usize) -> Machine {
        let mut cfg = MachineConfig::dash_small(nprocs);
        cfg.mem_occupancy = 0; // isolate the engine from the legacy model
        Machine::new(cfg.with_contention(crate::engine::ContentionConfig::dash()))
    }

    #[test]
    fn engine_zero_load_costs_match_the_constants() {
        // At zero load the engine charges exactly the base latency
        // table: service times occupy resources but are not added on top.
        let mut m = contended_machine(8);
        let local = m.alloc_on_node(NodeId(0), 64);
        let remote = m.alloc_on_node(NodeId(1), 64);
        assert_eq!(m.read_at(ProcId(0), local, 4, 0), m.config().lat.local_mem);
        assert_eq!(
            m.read_at(ProcId(0), remote, 4, 10_000),
            m.config().lat.remote_mem
        );
        m.write_at(ProcId(0), local, 4, 20_000);
        let c = m.read_at(ProcId(1), local, 4, 30_000);
        assert_eq!(c, m.config().lat.local_mem + m.config().lat.dirty_penalty);
        assert_eq!(m.monitor().total().contention_cycles, 0);
    }

    #[test]
    fn engine_simultaneous_misses_queue() {
        let mut m = contended_machine(8);
        let obj = m.alloc_on_node(NodeId(0), 4096);
        let c1 = m.read_at(ProcId(0), obj, 4, 1000);
        let c2 = m.read_at(ProcId(1), obj.offset(64), 4, 1000);
        assert_eq!(c1, m.config().lat.local_mem);
        assert!(c2 > c1, "second miss must queue: {c2} vs {c1}");
        assert!(m.monitor().proc(1).contention_cycles > 0);
        let s = m.contention_stats();
        assert!(s.total_wait() > 0);
        assert!(s.peak_occupancy() >= 2);
        // Much later, the resources are free again.
        let c3 = m.read_at(ProcId(2), obj.offset(128), 4, 100_000);
        assert_eq!(c3, m.config().lat.local_mem);
    }

    #[test]
    fn engine_distinct_clusters_do_not_contend() {
        let mut m = contended_machine(8);
        let a = m.alloc_on_node(NodeId(0), 64);
        let b = m.alloc_on_node(NodeId(1), 64);
        let c1 = m.read_at(ProcId(0), a, 4, 0);
        let c2 = m.read_at(ProcId(4), b, 4, 0);
        assert_eq!(c1, m.config().lat.local_mem);
        assert_eq!(c2, m.config().lat.local_mem, "different cluster, no queue");
    }

    #[test]
    fn engine_prefetch_consumes_bandwidth() {
        let mut m = contended_machine(8);
        let obj = m.alloc_on_node(NodeId(0), 4096);
        // A prefetch burst issued at cycle 0 occupies cluster 0's memory
        // system; the demand miss at the same instant queues behind it.
        m.prefetch(ProcId(3), obj, 256, 0);
        let c = m.read_at(ProcId(0), obj.offset(1024), 4, 0);
        assert!(
            c > m.config().lat.local_mem,
            "demand must queue behind prefetch fills: {c}"
        );
        let s = m.contention_stats();
        assert!(s.mem.requests >= 16, "prefetch fills serviced: {s:?}");
    }

    #[test]
    fn engine_is_deterministic_across_runs() {
        let run = || {
            let mut m = contended_machine(8);
            let obj = m.alloc_on_node(NodeId(0), 8192);
            let far = m.alloc_on_node(NodeId(1), 8192);
            let mut total = 0u64;
            for i in 0..300u64 {
                let p = ProcId((i % 8) as usize);
                let o = if i % 3 == 0 { far } else { obj };
                total += if i % 5 == 0 {
                    m.write_at(p, o.offset((i * 16) % 4096), 4, i * 7)
                } else {
                    m.read_at(p, o.offset((i * 32) % 4096), 4, i * 7)
                };
                if i % 11 == 0 {
                    m.prefetch(p, o.offset((i * 64) % 4096), 64, i * 7);
                }
            }
            (total, m.monitor().total(), m.contention_stats())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn engine_checked_workout_is_clean() {
        let mut m = contended_machine(8);
        m.enable_checked();
        let page = m.config().page_bytes;
        let obj = m.alloc_on_node(NodeId(0), 2 * page);
        for p in 0..8 {
            m.read_at(ProcId(p), obj, 128, 0);
        }
        m.write_at(ProcId(1), obj, 64, 500);
        m.read_at(ProcId(5), obj, 64, 600);
        m.prefetch(ProcId(2), obj.offset(page), 128, 700);
        m.write_at(ProcId(6), obj, 32, 800);
        assert_eq!(m.check_full(), 0);
        assert_eq!(m.violation_count(), 0, "{:?}", m.violations());
    }

    #[test]
    fn engine_prefetch_reserves_resources_in_issue_order() {
        // A prefetch folds through its hops when issued, so a demand miss
        // issued after it queues behind it even with an earlier timestamp
        // (a lagging processor clock). Service times: bus 2, dir 3, mem 12.
        let mut m = contended_machine(8);
        let obj = m.alloc_on_node(NodeId(0), 64);
        // Prefetch at 500: bus0 [500,502), dir0 [502,505), mem0 [505,517).
        m.prefetch(ProcId(3), obj, 4, 500);
        // Read at 10: bus0 free at 502, waits 492, [502,504); dir0 free at
        // 505, waits 1, [505,508); mem0 free at 517, waits 9. In all 502,
        // under the 32 × 17-cycle cap.
        let c = m.read_at(ProcId(0), obj.offset(16), 4, 10);
        assert_eq!(c, m.config().lat.local_mem + 502);
        assert_eq!(m.monitor().proc(0).contention_cycles, 502);
    }

    #[test]
    fn engine_dirty_three_hop_in_one_cluster_crosses_its_bus_twice() {
        // Processors 0 and 1 share cluster 0; the line is homed on cluster
        // 1. Service times: bus 2, net 4, dir 3, mem 12.
        let mut m = contended_machine(8);
        let obj = m.alloc_on_node(NodeId(1), 64);
        // Processor 0's write miss at 0: bus0 [0,2), net1 [2,6),
        // dir1 [6,9), mem1 [9,21). Processor 0 now owns the line dirty.
        assert_eq!(m.write_at(ProcId(0), obj, 4, 0), m.config().lat.remote_mem);
        // Processor 1's read at 0 is a dirty three-hop back into its own
        // cluster: bus0 waits 2, [2,4); net1 waits 2, [6,10); dir1 [10,13);
        // net0 [13,17); bus0 again, free since 4, [17,19). The owner is
        // local, so the base cost is local plus the dirty penalty.
        let c = m.read_at(ProcId(1), obj, 4, 0);
        let lat = m.config().lat;
        assert_eq!(c, lat.local_mem + lat.dirty_penalty + 4);
        let s = m.contention_stats();
        assert_eq!((s.bus.requests, s.bus.wait_cycles), (3, 2));
        assert_eq!((s.net.requests, s.net.wait_cycles), (3, 2));
        assert_eq!((s.dir.requests, s.mem.requests), (2, 1));
    }

    #[test]
    fn zero_contention_machine_reports_empty_stats() {
        let mut m = machine(4);
        let obj = m.alloc_on_node(NodeId(0), 64);
        m.read(ProcId(0), obj, 4);
        assert_eq!(m.contention_stats(), ContentionStats::default());
        assert_eq!(m.violation_count(), 0);
    }

    #[test]
    fn invalidation_clears_victims_lookaside() {
        // Processor 1 primes its lookaside on a line; processor 0 writes the
        // line (invalidating 1's copy); processor 1's next read must miss.
        let mut m = machine(4);
        let obj = m.alloc_on_node(NodeId(0), 16);
        m.read(ProcId(1), obj, 4);
        assert_eq!(m.read(ProcId(1), obj, 4), m.config().lat.l1_hit);
        m.write(ProcId(0), obj, 4);
        let c = m.read(ProcId(1), obj, 4);
        assert_eq!(
            c,
            m.config().lat.local_mem + m.config().lat.dirty_penalty,
            "invalidated line must be re-fetched from the dirty owner"
        );
    }
}
