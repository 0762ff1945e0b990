//! The discrete-event contention engine.
//!
//! The base cost model charges every miss a fixed DASH latency, so two
//! processors hammering one cluster's memory pay the same as two processors
//! spread across the machine — contention is approximated by the single
//! `mem_occupancy` busy-pointer in [`crate::machine`]. This module replaces
//! that approximation (when [`ContentionConfig`] is installed) with a real
//! discrete-event core:
//!
//! * every miss becomes a *transaction*: an ordered list of *hops* through
//!   the memory system (requester's cluster bus → interconnect link →
//!   home directory → home memory module, with the dirty three-hop variant
//!   detouring through the owner's cluster);
//! * each per-cluster bus, interconnect link, directory controller and
//!   memory module is a first-class [`Resource`] with a deterministic
//!   service time and bounded occupancy accounting — concurrent
//!   transactions queue FIFO and *interfere* instead of passing through
//!   each other;
//! * hop arrivals are dispatched from a monotonic event queue (a binary
//!   heap keyed on `(cycle, sequence)`; a radix heap would require
//!   monotonically non-decreasing keys, which task-grain processor-clock
//!   skew violates, so the general heap is used) — prefetch transactions
//!   posted earlier genuinely overlap demand misses arriving later.
//!
//! ## Charging model
//!
//! A transaction's *queue wait* is the sum over its hops of the cycles it
//! spent waiting for the hop's resource to free up. The wait charged to the
//! issuing processor is capped at `queue_depth ×` the transaction's total
//! service demand, for the same reason the legacy model caps its queue
//! delay: tasks execute atomically at task grain, so processor clocks skew
//! within a task and an uncapped FIFO wait would let one late-clock request
//! inflate every earlier-clock request without bound. Service times occupy
//! resources (bandwidth is consumed) but are *not* added on top of the base
//! latency constants — at zero load a contended machine therefore charges
//! exactly what the base model charges, and every extra cycle is pure,
//! emergent queueing. [`ResourceStats`] keeps the *uncapped* waits so the
//! queueing-law tests can check the M/D/1 closed form against them.
//!
//! ## Checked-mode invariants
//!
//! With checking enabled the engine validates two transaction-level
//! invariants on every drain (see [`crate::check`] for the catalogue):
//!
//! * **txn-fifo** — a resource grants transactions in arrival order within
//!   a drain: successive grants carry non-decreasing `(cycle, sequence)`
//!   arrival keys.
//! * **txn-conservation** — transactions are conserved: every transaction
//!   issued is either completed or still has exactly one hop event in the
//!   queue; none are lost or duplicated.
//!
//! Both come with seeded defects ([`Engine::defect_reorder_fifo`],
//! [`Engine::defect_leak_txn`]) proving the checks fire.

use std::collections::BinaryHeap;

use crate::check::CoherenceViolation;

/// Service times and queue bounds of the modeled memory-system resources.
///
/// All times are in processor cycles per transaction serviced. A service
/// time of 0 makes the resource infinitely fast (it never queues).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ContentionConfig {
    /// Cycles a cluster bus is occupied per transaction it carries.
    pub bus_service: u64,
    /// Cycles an interconnect link (one per cluster, modeling the cluster's
    /// network interface) is occupied per remote transaction.
    pub net_service: u64,
    /// Cycles a home directory controller is occupied per transaction.
    pub dir_service: u64,
    /// Cycles a memory module is occupied per line it supplies.
    pub mem_service: u64,
    /// Cap multiplier for the wait charged to any one transaction: at most
    /// `queue_depth ×` the transaction's total service demand (bounds the
    /// task-grain clock-skew error exactly like the legacy model's
    /// `QUEUE_DEPTH` cap).
    pub queue_depth: u64,
}

impl ContentionConfig {
    /// Service times for the DASH prototype: the 4-processor cluster bus is
    /// fast and wide, the directory and network interface add pipeline
    /// occupancy, and DRAM occupancy per 16-byte line dominates — matching
    /// the paper's observation that distributing panels "improves
    /// performance due to better utilization of the available memory
    /// bandwidth".
    pub fn dash() -> Self {
        ContentionConfig {
            bus_service: 2,
            net_service: 4,
            dir_service: 3,
            mem_service: 12,
            queue_depth: 32,
        }
    }

    /// Stable fingerprint segment (feeds `MachineConfig::fingerprint`).
    pub fn fingerprint(&self) -> String {
        format!(
            "bus{}/net{}/dir{}/mem{}/q{}",
            self.bus_service, self.net_service, self.dir_service, self.mem_service, self.queue_depth
        )
    }
}

/// Which modeled resource a hop passes through.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ResourceKind {
    /// A cluster's shared bus.
    Bus,
    /// A cluster's interconnect (network-interface) link.
    Net,
    /// A cluster's directory controller.
    Dir,
    /// A cluster's memory module.
    Mem,
}

impl ResourceKind {
    /// Human-readable name (used by violation details and metrics rows).
    pub fn name(self) -> &'static str {
        match self {
            ResourceKind::Bus => "bus",
            ResourceKind::Net => "net",
            ResourceKind::Dir => "dir",
            ResourceKind::Mem => "mem",
        }
    }
}

/// One hop of a transaction: a resource kind at a cluster.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Hop {
    /// The resource class the hop occupies.
    pub kind: ResourceKind,
    /// The cluster whose instance of the resource it occupies.
    pub cluster: usize,
}

/// Occupancy statistics of one resource (or an aggregate over resources).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ResourceStats {
    /// Transactions serviced.
    pub requests: u64,
    /// Total cycles transactions spent queued (uncapped raw waits).
    pub wait_cycles: u64,
    /// Total cycles the resource spent servicing transactions.
    pub busy_cycles: u64,
    /// Largest number of transactions simultaneously queued or in service.
    pub peak_occupancy: u64,
}

impl ResourceStats {
    /// Fold another stats block into this one (peaks combine by max).
    pub fn merge(&mut self, o: ResourceStats) {
        self.requests += o.requests;
        self.wait_cycles += o.wait_cycles;
        self.busy_cycles += o.busy_cycles;
        self.peak_occupancy = self.peak_occupancy.max(o.peak_occupancy);
    }

    /// Mean wait per request (0 when idle).
    pub fn mean_wait(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            self.wait_cycles as f64 / self.requests as f64
        }
    }
}

/// Machine-wide contention statistics, aggregated per resource class.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ContentionStats {
    /// Cluster buses.
    pub bus: ResourceStats,
    /// Interconnect links.
    pub net: ResourceStats,
    /// Directory controllers.
    pub dir: ResourceStats,
    /// Memory modules.
    pub mem: ResourceStats,
}

impl ContentionStats {
    /// Total queue-wait cycles across all resource classes (uncapped).
    pub fn total_wait(&self) -> u64 {
        self.bus.wait_cycles + self.net.wait_cycles + self.dir.wait_cycles + self.mem.wait_cycles
    }

    /// Total transactions serviced across all resource classes.
    pub fn total_requests(&self) -> u64 {
        self.bus.requests + self.net.requests + self.dir.requests + self.mem.requests
    }

    /// The largest occupancy any single resource reached.
    pub fn peak_occupancy(&self) -> u64 {
        self.bus
            .peak_occupancy
            .max(self.net.peak_occupancy)
            .max(self.dir.peak_occupancy)
            .max(self.mem.peak_occupancy)
    }

    /// The four aggregates as `(name, stats)` rows, in schema order.
    pub fn rows(&self) -> [(&'static str, ResourceStats); 4] {
        [
            ("bus", self.bus),
            ("net", self.net),
            ("dir", self.dir),
            ("mem", self.mem),
        ]
    }
}

/// A single-server FIFO queue with deterministic service time: the unit the
/// queueing-law tests validate against the M/D/1 closed form.
///
/// The resource does not store queued transactions; it is a *calendar*: the
/// cycle until which it is committed to earlier arrivals. An arrival at
/// `now` waits `max(next_free − now, 0)` cycles, then occupies the server
/// for its service time.
#[derive(Clone, Copy, Debug)]
pub struct Resource {
    /// Deterministic service time per transaction.
    service: u64,
    /// Virtual cycle until which the server is committed.
    next_free: u64,
    /// Arrival key of the most recent grant (FIFO check; reset per drain).
    last_grant: Option<(u64, u64)>,
    stats: ResourceStats,
}

impl Resource {
    /// A fresh, idle resource with the given deterministic service time.
    pub fn new(service: u64) -> Self {
        Resource {
            service,
            next_free: 0,
            last_grant: None,
            stats: ResourceStats::default(),
        }
    }

    /// The deterministic service time.
    pub fn service_time(&self) -> u64 {
        self.service
    }

    /// Admit a transaction arriving at `now`: returns the cycles it waits
    /// before service begins, and commits the server through its service.
    /// A zero-service resource is infinitely fast: it never delays an
    /// arrival, in or out of time order.
    pub fn acquire(&mut self, now: u64) -> u64 {
        self.stats.requests += 1;
        if self.service == 0 {
            self.stats.peak_occupancy = self.stats.peak_occupancy.max(1);
            return 0;
        }
        let start = self.next_free.max(now);
        let wait = start - now;
        // Occupancy at arrival: transactions ahead (whole service slots
        // still pending) plus this one.
        let queued = wait.div_ceil(self.service);
        self.next_free = start + self.service;
        self.stats.wait_cycles += wait;
        self.stats.busy_cycles += self.service;
        self.stats.peak_occupancy = self.stats.peak_occupancy.max(queued + 1);
        wait
    }

    /// Occupancy statistics so far.
    pub fn stats(&self) -> ResourceStats {
        self.stats
    }
}

/// One pending hop arrival. Orders a `BinaryHeap` as a *min*-heap on
/// `(cycle, sequence)` — sequence numbers break ties deterministically, so
/// the dispatch order is a pure function of the issue history.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Event {
    time: u64,
    seq: u64,
    txn: usize,
}

impl Ord for Event {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reversed: the max-heap pops the smallest (time, seq) first.
        (other.time, other.seq).cmp(&(self.time, self.seq))
    }
}

impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Maximum hops per transaction: a dirty three-hop on the deepest machine
/// tree (requester bus + up to `MAX_TOPO_LEVELS` links toward home + home
/// directory + up to `MAX_TOPO_LEVELS` links toward the owner + owner bus).
const MAX_HOPS: usize = 11;

/// An in-flight memory-system transaction.
#[derive(Clone, Copy, Debug)]
struct Txn {
    hops: [Hop; MAX_HOPS],
    nhops: u8,
    next: u8,
    /// Uncapped queue wait accumulated across completed hops.
    wait: u64,
    /// Demand transactions report their wait back to the issuing reference;
    /// posted (prefetch) transactions only consume bandwidth.
    demand: bool,
    live: bool,
}

/// Engine-internal cap on stored violations (mirrors `CheckState`).
const MAX_VIOLATIONS: usize = 16;

/// The discrete-event engine: per-cluster resources, the event queue, and
/// transaction bookkeeping.
#[derive(Debug)]
pub struct Engine {
    cfg: ContentionConfig,
    bus: Vec<Resource>,
    net: Vec<Resource>,
    dir: Vec<Resource>,
    mem: Vec<Resource>,
    queue: BinaryHeap<Event>,
    txns: Vec<Txn>,
    free: Vec<usize>,
    seq: u64,
    issued: u64,
    completed: u64,
    events: u64,
    /// Wait of the most recently completed demand transaction.
    demand_wait: u64,
    checked: bool,
    violations: Vec<CoherenceViolation>,
    violation_count: u64,
    defect_fifo: bool,
}

impl Engine {
    /// An engine for `nclusters` clusters, all resources idle.
    pub fn new(cfg: ContentionConfig, nclusters: usize) -> Self {
        Self::with_nets(cfg, nclusters, nclusters)
    }

    /// As [`Engine::new`], with `nnet` interconnect-link resources instead
    /// of one per cluster — deep machine trees add one link per domain of
    /// every level between the memory level and the root (see
    /// `MachineConfig::nnet`). `Hop::cluster` indexes this extended space
    /// for [`ResourceKind::Net`] hops.
    pub fn with_nets(cfg: ContentionConfig, nclusters: usize, nnet: usize) -> Self {
        assert!(nnet >= nclusters);
        Engine {
            bus: vec![Resource::new(cfg.bus_service); nclusters],
            net: vec![Resource::new(cfg.net_service); nnet],
            dir: vec![Resource::new(cfg.dir_service); nclusters],
            mem: vec![Resource::new(cfg.mem_service); nclusters],
            queue: BinaryHeap::new(),
            txns: Vec::new(),
            free: Vec::new(),
            seq: 0,
            issued: 0,
            completed: 0,
            events: 0,
            demand_wait: 0,
            checked: false,
            violations: Vec::new(),
            violation_count: 0,
            defect_fifo: false,
            cfg,
        }
    }

    /// The engine's configuration.
    pub fn config(&self) -> &ContentionConfig {
        &self.cfg
    }

    /// Enable or disable the transaction-invariant checks.
    pub fn set_checked(&mut self, on: bool) {
        self.checked = on;
    }

    /// Hop events dispatched so far.
    pub fn events_processed(&self) -> u64 {
        self.events
    }

    /// Transactions issued so far (demand + posted).
    pub fn issued(&self) -> u64 {
        self.issued
    }

    /// Transactions fully serviced so far.
    pub fn completed(&self) -> u64 {
        self.completed
    }

    /// Hop events still queued (posted transactions not yet drained).
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Total invariant violations detected (counted even past the storage
    /// cap).
    pub fn violation_count(&self) -> u64 {
        self.violation_count
    }

    /// Take the stored violations (drains the buffer; the count persists).
    pub fn take_violations(&mut self) -> Vec<CoherenceViolation> {
        std::mem::take(&mut self.violations)
    }

    /// Aggregate statistics per resource class.
    pub fn stats(&self) -> ContentionStats {
        let fold = |rs: &[Resource]| {
            let mut agg = ResourceStats::default();
            for r in rs {
                agg.merge(r.stats());
            }
            agg
        };
        ContentionStats {
            bus: fold(&self.bus),
            net: fold(&self.net),
            dir: fold(&self.dir),
            mem: fold(&self.mem),
        }
    }

    fn alloc_txn(&mut self, hops: &[Hop], demand: bool) -> usize {
        debug_assert!(!hops.is_empty() && hops.len() <= MAX_HOPS);
        let mut t = Txn {
            hops: [Hop {
                kind: ResourceKind::Bus,
                cluster: 0,
            }; MAX_HOPS],
            nhops: hops.len() as u8,
            next: 0,
            wait: 0,
            demand,
            live: true,
        };
        t.hops[..hops.len()].copy_from_slice(hops);
        self.issued += 1;
        if let Some(i) = self.free.pop() {
            self.txns[i] = t;
            i
        } else {
            self.txns.push(t);
            self.txns.len() - 1
        }
    }

    fn push_event(&mut self, time: u64, txn: usize) {
        let seq = self.seq;
        self.seq += 1;
        self.queue.push(Event { time, seq, txn });
    }

    /// Issue a demand transaction at `now` and run the event queue dry.
    /// Returns the wait to charge the issuing processor: the transaction's
    /// queue wait, capped at `queue_depth ×` its total service demand.
    pub fn transact(&mut self, now: u64, hops: &[Hop]) -> u64 {
        let txn = self.alloc_txn(hops, true);
        self.push_event(now, txn);
        self.drain();
        let total_service: u64 = hops.iter().map(|h| self.service_of(h.kind)).sum();
        self.demand_wait.min(self.cfg.queue_depth * total_service)
    }

    /// Post a transaction at `now` without waiting for it (prefetch: the
    /// latency is hidden, the bandwidth is not). Its hop events stay queued
    /// and interleave with later transactions at the next drain.
    pub fn post(&mut self, now: u64, hops: &[Hop]) {
        let txn = self.alloc_txn(hops, false);
        self.push_event(now, txn);
    }

    fn service_of(&self, kind: ResourceKind) -> u64 {
        match kind {
            ResourceKind::Bus => self.cfg.bus_service,
            ResourceKind::Net => self.cfg.net_service,
            ResourceKind::Dir => self.cfg.dir_service,
            ResourceKind::Mem => self.cfg.mem_service,
        }
    }

    fn record_violation(&mut self, invariant: &'static str, line: u64, detail: String) {
        self.violation_count += 1;
        if self.violations.len() < MAX_VIOLATIONS {
            self.violations.push(CoherenceViolation {
                invariant,
                line,
                detail,
            });
        }
    }

    /// Dispatch every queued hop event in `(cycle, sequence)` order.
    ///
    /// One drain is one coherent episode of the event calendar: the FIFO
    /// invariant is scoped to it because transactions issued *after* a
    /// drain may carry earlier timestamps (task-grain clock skew), which is
    /// expected — within a drain, though, every resource must grant in
    /// arrival order.
    pub fn drain(&mut self) {
        for r in self
            .bus
            .iter_mut()
            .chain(self.net.iter_mut())
            .chain(self.dir.iter_mut())
            .chain(self.mem.iter_mut())
        {
            r.last_grant = if self.defect_fifo {
                // Seeded defect: pretend a later arrival was already
                // granted, so the first real grant appears reordered.
                Some((u64::MAX, u64::MAX))
            } else {
                None
            };
        }
        self.defect_fifo = false;
        while let Some(ev) = self.queue.pop() {
            self.events += 1;
            let t = self.txns[ev.txn];
            debug_assert!(t.live && t.next < t.nhops);
            let hop = t.hops[t.next as usize];
            let checked = self.checked;
            let r = match hop.kind {
                ResourceKind::Bus => &mut self.bus[hop.cluster],
                ResourceKind::Net => &mut self.net[hop.cluster],
                ResourceKind::Dir => &mut self.dir[hop.cluster],
                ResourceKind::Mem => &mut self.mem[hop.cluster],
            };
            let key = (ev.time, ev.seq);
            let fifo_broken = checked && r.last_grant.is_some_and(|lg| lg > key);
            r.last_grant = Some(key);
            let wait = r.acquire(ev.time);
            let service = r.service;
            if fifo_broken {
                self.record_violation(
                    "txn-fifo",
                    ev.seq,
                    format!(
                        "{}[{}] granted arrival at cycle {} behind a later arrival",
                        hop.kind.name(),
                        hop.cluster,
                        ev.time
                    ),
                );
            }
            let txn = &mut self.txns[ev.txn];
            txn.wait += wait;
            txn.next += 1;
            if txn.next == txn.nhops {
                txn.live = false;
                self.completed += 1;
                if txn.demand {
                    self.demand_wait = txn.wait;
                }
                self.free.push(ev.txn);
            } else {
                // The transaction departs this hop once serviced and
                // arrives at the next resource.
                self.push_event(ev.time + wait + service, ev.txn);
            }
        }
        if self.checked && self.issued != self.completed + self.queue.len() as u64 {
            self.record_violation(
                "txn-conservation",
                0,
                format!(
                    "{} transactions issued but {} completed with {} in flight",
                    self.issued,
                    self.completed,
                    self.queue.len()
                ),
            );
        }
    }

    // ----- seeded defects (tests of the checker itself) -----

    /// Seeded defect: poison every resource's FIFO bookkeeping so the next
    /// drain's first grant looks reordered. Fires `txn-fifo`.
    #[doc(hidden)]
    pub fn defect_reorder_fifo(&mut self) {
        self.defect_fifo = true;
    }

    /// Seeded defect: account one transaction that never existed — the
    /// shape of a lost or duplicated in-flight transaction. Fires
    /// `txn-conservation` at the next drain.
    #[doc(hidden)]
    pub fn defect_leak_txn(&mut self) {
        self.issued += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hops_remote(rc: usize, hc: usize) -> Vec<Hop> {
        vec![
            Hop {
                kind: ResourceKind::Bus,
                cluster: rc,
            },
            Hop {
                kind: ResourceKind::Net,
                cluster: hc,
            },
            Hop {
                kind: ResourceKind::Dir,
                cluster: hc,
            },
            Hop {
                kind: ResourceKind::Mem,
                cluster: hc,
            },
        ]
    }

    #[test]
    fn idle_resources_add_no_wait() {
        let mut e = Engine::new(ContentionConfig::dash(), 4);
        assert_eq!(e.transact(100, &hops_remote(0, 1)), 0);
        assert_eq!(e.stats().total_wait(), 0);
        assert_eq!(e.completed(), 1);
    }

    #[test]
    fn simultaneous_transactions_queue_at_shared_resources() {
        let mut e = Engine::new(ContentionConfig::dash(), 4);
        let w1 = e.transact(0, &hops_remote(0, 1));
        let w2 = e.transact(0, &hops_remote(2, 1));
        assert_eq!(w1, 0);
        // The second transaction shares no bus with the first but queues
        // behind it at the home cluster's net, dir and mem.
        assert!(w2 > 0, "second transaction must queue: {w2}");
        assert!(e.stats().mem.wait_cycles > 0);
        assert_eq!(e.stats().peak_occupancy(), 2);
    }

    #[test]
    fn distinct_clusters_do_not_interfere() {
        let mut e = Engine::new(ContentionConfig::dash(), 4);
        let w1 = e.transact(0, &hops_remote(0, 1));
        let w2 = e.transact(0, &hops_remote(2, 3));
        assert_eq!((w1, w2), (0, 0));
    }

    #[test]
    fn charged_wait_is_capped_but_stats_keep_raw_waits() {
        let cfg = ContentionConfig {
            queue_depth: 2,
            ..ContentionConfig::dash()
        };
        let total_service = cfg.bus_service + cfg.net_service + cfg.dir_service + cfg.mem_service;
        let mut e = Engine::new(cfg, 2);
        let mut last = 0;
        for _ in 0..100 {
            last = e.transact(0, &hops_remote(0, 1));
        }
        assert_eq!(last, cfg.queue_depth * total_service, "cap reached");
        // Raw waits grow far past the cap (true FIFO backlog).
        assert!(e.stats().total_wait() > 100 * last);
    }

    #[test]
    fn posted_transactions_consume_bandwidth_later() {
        let mut e = Engine::new(ContentionConfig::dash(), 4);
        e.post(0, &hops_remote(0, 1));
        assert_eq!(e.pending(), 1);
        // The demand miss at the same instant queues behind the posted
        // (earlier-sequenced) transaction at every shared hop.
        let w = e.transact(0, &hops_remote(0, 1));
        assert!(w > 0, "demand must queue behind the posted txn: {w}");
        assert_eq!(e.pending(), 0);
        assert_eq!(e.completed(), 2);
    }

    #[test]
    fn earlier_timestamps_dispatch_first_regardless_of_issue_order() {
        let mut e = Engine::new(ContentionConfig::dash(), 2);
        // Posted late in issue order but earliest in simulated time.
        e.post(500, &hops_remote(0, 1));
        e.post(10, &hops_remote(0, 1));
        let w = e.transact(10_000, &hops_remote(0, 1));
        // By cycle 10000 both posted transactions have long drained.
        assert_eq!(w, 0);
        // The cycle-10 transaction was granted first: the bus backlog the
        // cycle-500 one saw proves dispatch order followed timestamps.
        let s = e.stats();
        assert_eq!(s.bus.requests, 3);
        assert_eq!(s.total_wait(), 0, "spaced arrivals never queue");
    }

    #[test]
    fn same_seed_same_history_is_byte_identical() {
        let run = || {
            let mut e = Engine::new(ContentionConfig::dash(), 4);
            let mut acc = Vec::new();
            for i in 0..200u64 {
                let rc = (i % 4) as usize;
                let hc = ((i * 7) % 4) as usize;
                if i % 3 == 0 {
                    e.post(i * 5, &hops_remote(rc, hc));
                } else {
                    acc.push(e.transact(i * 5, &hops_remote(rc, hc)));
                }
            }
            e.drain();
            (acc, e.stats(), e.events_processed())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn fifo_invariant_is_clean_on_real_schedules() {
        let mut e = Engine::new(ContentionConfig::dash(), 4);
        e.set_checked(true);
        for i in 0..50u64 {
            e.post(i % 7, &hops_remote((i % 4) as usize, ((i + 1) % 4) as usize));
        }
        e.transact(3, &hops_remote(0, 1));
        assert_eq!(e.violation_count(), 0, "{:?}", e.take_violations());
    }

    #[test]
    fn seeded_reorder_fires_txn_fifo() {
        let mut e = Engine::new(ContentionConfig::dash(), 2);
        e.set_checked(true);
        e.defect_reorder_fifo();
        e.transact(0, &hops_remote(0, 1));
        assert!(e.violation_count() > 0);
        let vs = e.take_violations();
        assert!(vs.iter().any(|v| v.invariant == "txn-fifo"), "{vs:?}");
    }

    #[test]
    fn seeded_leak_fires_txn_conservation() {
        let mut e = Engine::new(ContentionConfig::dash(), 2);
        e.set_checked(true);
        e.defect_leak_txn();
        e.transact(0, &hops_remote(0, 1));
        assert!(e.violation_count() > 0);
        let vs = e.take_violations();
        assert!(
            vs.iter().any(|v| v.invariant == "txn-conservation"),
            "{vs:?}"
        );
    }

    #[test]
    fn resource_is_a_deterministic_fifo_server() {
        let mut r = Resource::new(10);
        assert_eq!(r.acquire(0), 0); // busy until 10
        assert_eq!(r.acquire(0), 10); // busy until 20
        assert_eq!(r.acquire(5), 15); // busy until 30
        assert_eq!(r.acquire(100), 0); // idle again
        let s = r.stats();
        assert_eq!(s.requests, 4);
        assert_eq!(s.wait_cycles, 25);
        assert_eq!(s.busy_cycles, 40);
        assert_eq!(s.peak_occupancy, 3);
    }

    #[test]
    fn zero_service_resource_never_queues() {
        let mut r = Resource::new(0);
        for _ in 0..10 {
            assert_eq!(r.acquire(0), 0);
        }
        // Out of time order too: a late arrival commits nothing.
        assert_eq!(r.acquire(100), 0);
        assert_eq!(r.acquire(50), 0);
        assert_eq!(r.stats().requests, 12);
        assert_eq!(r.stats().peak_occupancy, 1);
        assert_eq!(r.stats().busy_cycles, 0);
        assert_eq!(r.stats().wait_cycles, 0);
    }

    #[test]
    fn zero_service_bus_charges_only_the_memory_wait() {
        let cfg = ContentionConfig {
            bus_service: 0,
            ..ContentionConfig::dash()
        };
        let mut e = Engine::new(cfg, 2);
        let hops = |bus: usize, mem: usize| {
            [
                Hop {
                    kind: ResourceKind::Bus,
                    cluster: bus,
                },
                Hop {
                    kind: ResourceKind::Mem,
                    cluster: mem,
                },
            ]
        };
        assert_eq!(e.transact(100, &hops(0, 1)), 0);
        // Memory 0 is busy until cycle 40 + 12.
        assert_eq!(e.transact(40, &hops(1, 0)), 0);
        // Arriving at bus 0 before the cycle-100 transaction did, this one
        // passes straight through and waits only at memory 0.
        assert_eq!(e.transact(50, &hops(0, 0)), 2);
        assert_eq!(e.stats().bus.wait_cycles, 0);
        assert_eq!(e.stats().mem.wait_cycles, 2);
    }

    #[test]
    fn stats_rows_cover_all_four_classes() {
        let mut e = Engine::new(ContentionConfig::dash(), 2);
        e.transact(0, &hops_remote(0, 1));
        let rows = e.stats().rows();
        let names: Vec<_> = rows.iter().map(|(n, _)| *n).collect();
        assert_eq!(names, ["bus", "net", "dir", "mem"]);
        assert!(rows.iter().all(|(_, s)| s.requests == 1));
    }
}
