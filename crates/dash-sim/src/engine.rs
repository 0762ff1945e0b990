//! The contention engine.
//!
//! The base cost model charges every miss a fixed DASH latency, so two
//! processors hammering one cluster's memory pay the same as two processors
//! spread across the machine — contention is approximated by the single
//! `mem_occupancy` busy-pointer in [`crate::machine`]. This module replaces
//! that approximation (when [`ContentionConfig`] is installed) with queueing
//! at the memory system's shared resources:
//!
//! * every miss is a *transaction*: an ordered list of *hops* through
//!   the memory system (requester's cluster bus → interconnect link →
//!   home directory → home memory module, with the dirty three-hop variant
//!   detouring through the owner's cluster);
//! * each per-cluster bus, interconnect link, directory controller and
//!   memory module is a first-class [`Resource`] with a deterministic
//!   service time and bounded occupancy accounting — concurrent
//!   transactions queue FIFO and *interfere* instead of passing through
//!   each other;
//! * [`Engine::transact`] folds a transaction over its hops when it is
//!   issued: each hop reaches its resource when the previous hop leaves it
//!   (`t += wait + service`). Every resource therefore grants in issue
//!   order, and every transaction is finished before `transact` returns —
//!   there is no queue of pending hops that could reorder or lose one. A
//!   prefetch takes the same fold and discards the wait: its bandwidth is
//!   used, its latency is hidden.
//!
//! ## Charging model
//!
//! A transaction's *queue wait* is the sum over its hops of the cycles it
//! spent waiting for the hop's resource to free up. The wait charged to the
//! issuing processor is capped at `queue_depth ×` the transaction's total
//! service demand, for the same reason the legacy model caps its queue
//! delay: tasks execute atomically at task grain, so processor clocks skew
//! within a task, issue times regress across processors, and an uncapped
//! FIFO wait would let one late-clock request inflate every earlier-clock
//! request without bound. Service times occupy resources (bandwidth is
//! consumed) but are *not* added on top of the base latency constants — at
//! zero load a contended machine therefore charges exactly what the base
//! model charges, and every extra cycle is pure, emergent queueing.
//! [`ResourceStats`] keeps the *uncapped* waits so the queueing-law tests
//! can check the M/D/1 closed form against them.

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
/// The resource does not store queued transactions, only the cycle until
/// which it is committed to earlier arrivals. An arrival at `now` waits
/// `max(next_free − now, 0)` cycles, then occupies the server for its
/// service time.
#[derive(Clone, Copy, Debug)]
pub struct Resource {
    /// Deterministic service time per transaction.
    service: u64,
    /// Virtual cycle until which the server is committed.
    next_free: u64,
    stats: ResourceStats,
}

impl Resource {
    /// A fresh, idle resource with the given deterministic service time.
    pub fn new(service: u64) -> Self {
        Resource {
            service,
            next_free: 0,
            stats: ResourceStats::default(),
        }
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

/// The contention engine: the per-cluster resources every transaction
/// folds through.
#[derive(Debug)]
pub struct Engine {
    cfg: ContentionConfig,
    bus: Vec<Resource>,
    net: Vec<Resource>,
    dir: Vec<Resource>,
    mem: Vec<Resource>,
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
            cfg,
        }
    }

    /// The engine's configuration.
    pub fn config(&self) -> &ContentionConfig {
        &self.cfg
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

    /// Issue a transaction at `now` and carry it through its hops in
    /// order: each hop reaches its resource when the previous hop leaves
    /// it. Returns the wait to charge the issuing processor: the summed
    /// queue wait, capped at `queue_depth ×` the total service demand.
    pub fn transact(&mut self, now: u64, hops: &[Hop]) -> u64 {
        let mut t = now;
        let mut wait = 0;
        let mut service = 0;
        for hop in hops {
            let r = match hop.kind {
                ResourceKind::Bus => &mut self.bus[hop.cluster],
                ResourceKind::Net => &mut self.net[hop.cluster],
                ResourceKind::Dir => &mut self.dir[hop.cluster],
                ResourceKind::Mem => &mut self.mem[hop.cluster],
            };
            let w = r.acquire(t);
            t += w + r.service;
            wait += w;
            service += r.service;
        }
        wait.min(self.cfg.queue_depth * service)
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
        assert_eq!(e.stats().total_requests(), 4, "one request per hop");
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
    fn second_remote_miss_to_one_home_waits_by_departure_arithmetic() {
        // Service times: bus 2, net 4, dir 3, mem 12.
        let mut e = Engine::new(ContentionConfig::dash(), 4);
        // First miss, cluster 0 → home 1, at cycle 0: bus0 [0,2),
        // net1 [2,6), dir1 [6,9), mem1 [9,21).
        assert_eq!(e.transact(0, &hops_remote(0, 1)), 0);
        // Second miss, cluster 2 → home 1, at cycle 1: bus2 [1,3) waits 0;
        // reaches net1 at 3, free at 6: waits 3, [6,10); reaches dir1 at
        // 10, free at 9: waits 0, [10,13); reaches mem1 at 13, free at 21:
        // waits 8, [21,33).
        assert_eq!(e.transact(1, &hops_remote(2, 1)), 11);
        let waits = e.stats().rows().map(|(_, s)| s.wait_cycles);
        assert_eq!(waits, [0, 3, 0, 8], "bus, net, dir, mem");
        // A third miss at cycle 33 finds every resource free again.
        assert_eq!(e.transact(33, &hops_remote(0, 1)), 0);
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
        // A prefetch folds through its hops at issue and its wait is
        // discarded.
        e.transact(0, &hops_remote(0, 1));
        // The demand miss at the same instant queues behind it at every
        // shared hop.
        let w = e.transact(0, &hops_remote(0, 1));
        assert!(w > 0, "demand must queue behind the prefetch: {w}");
        assert_eq!(e.stats().mem.requests, 2);
    }

    #[test]
    fn same_seed_same_history_is_byte_identical() {
        let run = || {
            let mut e = Engine::new(ContentionConfig::dash(), 4);
            let mut acc = Vec::new();
            for i in 0..200u64 {
                let hops = hops_remote((i % 4) as usize, ((i * 7) % 4) as usize);
                acc.push(e.transact(i * 5, &hops));
            }
            (acc, e.stats())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn fifo_invariant_is_clean_on_real_schedules() {
        // Every resource grants in issue order: of 50 transactions issued
        // together over one route, the k-th leaves the route exactly k
        // bottleneck (mem, 12-cycle) slots after the first, so it waits
        // 12·k cycles in all — under the 32 × 21-cycle cap.
        let mut e = Engine::new(ContentionConfig::dash(), 4);
        for k in 0..50u64 {
            assert_eq!(e.transact(3, &hops_remote(0, 1)), 12 * k, "transaction {k}");
        }
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
