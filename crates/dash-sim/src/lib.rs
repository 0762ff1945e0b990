//! # dash-sim — a DASH-like shared-memory multiprocessor simulator
//!
//! The paper evaluates COOL on the Stanford DASH prototype: 32 processors in
//! 8 clusters of 4, each processor with a 64 KB first-level and 256 KB
//! second-level cache, and a three-level memory hierarchy whose latencies are
//! roughly 1 cycle (L1 hit), 14 cycles (L2 hit), 30 cycles (local cluster
//! memory) and 100–150 cycles (remote cluster memory). That machine no longer
//! exists, so this crate simulates it:
//!
//! * [`config`] — machine parameters, defaulting to the DASH prototype.
//!   The machine's shape is the schedulers' own `cool_core::Topology`:
//!   DASH is the 1-level tree of 4-processor clusters, and deeper machines
//!   nest more levels above or below the clusters.
//! * [`cache`] — set-associative LRU caches.
//! * [`space`] — the simulated shared address space: page-granular homes,
//!   placement-aware allocation (`new` with a processor argument), `migrate`,
//!   and `home` (Section 4.1's object-distribution primitives).
//! * [`directory`] — an invalidation-based cache-coherence directory, enough
//!   to classify each reference (cache hit / local / remote) and count
//!   invalidations like the DASH hardware performance monitor did.
//! * [`monitor`] — per-processor reference and cycle counters, the software
//!   stand-in for the DASH performance monitor of Section 6.
//! * [`machine`] — the façade tying it together: `read`/`write`/`compute`
//!   charge cycles to a processor and update caches, directory and monitor.
//! * [`engine`] — the contention engine: per-cluster bus,
//!   interconnect-link, directory and memory resources with service times
//!   and FIFO queueing. Each miss folds through its hops when issued, so
//!   concurrent misses interfere instead of each paying a latency constant.
//!   Opt-in via [`MachineConfig::with_contention`]; without it the machine
//!   keeps the zero-contention fast path, cycle-identical to the frozen
//!   oracle.
//! * [`check`] — the coherence-invariant catalogue (SWMR, directory/cache
//!   agreement, lost invalidations, tracked-count conservation, lookaside
//!   soundness) validated per-transition in checked mode
//!   ([`Machine::enable_checked`]), plus an exhaustive 1-line × 2–4-cache
//!   protocol reachability pass ([`explore_protocol`]).
//!
//! The simulation is *execution-driven at task grain*: application code runs
//! natively and mirrors its memory accesses into the machine, which decides
//! where each access would have been serviced and at what cost. This is
//! exactly the information the paper's figures are built from.
//!
//! ## Example
//!
//! ```
//! use dash_sim::{Machine, MachineConfig};
//! use cool_core::ProcId;
//!
//! let mut m = Machine::new(MachineConfig::dash(8));
//! let obj = m.alloc_on_proc(0, 64);           // homed on cluster 0
//! let c_remote = m.read(ProcId(4), obj, 16);  // cluster 1: remote miss
//! let c_hit = m.read(ProcId(4), obj, 16);     // now cached
//! assert!(c_remote >= m.config().lat.remote_mem);
//! assert_eq!(c_hit, m.config().lat.l1_hit);
//! ```

#![warn(missing_docs)]

pub mod cache;
pub mod check;
pub mod config;
pub mod directory;
pub mod engine;
pub mod machine;
pub mod monitor;
pub mod space;

// Frozen pre-optimisation reference model + property tests proving the fast
// path simulates identically. Test-only: never compiled into the library.
#[cfg(test)]
mod equiv_tests;
#[cfg(test)]
mod oracle;

pub use check::{explore_protocol, CoherenceViolation, ProtoStats};
pub use config::{CacheConfig, Latencies, MachineConfig};
pub use engine::{ContentionConfig, ContentionStats, Engine, Resource, ResourceStats};
pub use machine::{Machine, PageTraffic};
pub use monitor::{MissBreakdown, PerfMonitor, ProcCounters};
pub use space::AddressSpace;
