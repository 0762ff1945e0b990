//! # cool-analyze — dynamic analysis over the deterministic simulator
//!
//! The simulated COOL runtime (`cool-sim`) can record a `Full` [`Event`]
//! stream of everything scheduling-visible a run did: spawns, phase barriers, mutex
//! acquisitions, sync points, mirrored memory accesses, prefetches and
//! migrations. Because the simulator is deterministic and runs task bodies
//! atomically, the stream is totally ordered consistently with the
//! happens-before relation it encodes — so each analysis is a single
//! forward pass, and a finding reproduces bit-identically on re-run.
//!
//! Three passes:
//!
//! * [`hb`] — a vector-clock **happens-before race detector**: plain memory
//!   accesses that overlap in bytes, conflict (at least one write, not both
//!   relaxed atomics), and are unordered by spawn/phase/mutex/sync edges are
//!   data races. Block-granular histories with byte-exact overlap checks
//!   keep false sharing from being misreported.
//! * [`locks`] — a **lock-order graph**: `with_mutex` chains declare
//!   acquisition orders; a cycle means a real runtime acquiring
//!   incrementally could deadlock (the simulator acquires lock sets
//!   atomically, so it can only *observe* the hazard, never hang on it).
//! * [`lints`] — **affinity-hint lints**: stale OBJECT-affinity placements
//!   (object migrated between spawn and dispatch), prefetches of data the
//!   task never touches, and objects ping-ponging between memory nodes.
//!
//! [`apps_driver`] runs all six case-study apps with recording on (default
//! and fault-injected schedules) and [`report`] serialises the findings to
//! the committed `analyze_findings.json` — the CI gate fails on any race,
//! lock cycle, or change in lint findings.
//!
//! [`Event`]: cool_core::Event

#![warn(missing_docs)]

pub mod apps_driver;
pub mod check;
pub mod hb;
pub mod lints;
pub mod locks;
pub mod report;
pub mod service;
pub mod vc;

pub use apps_driver::{analyze_all, analyze_app, analyze_events};
pub use check::{explore, run_scenario, ExploreStats, ScenarioResult, ScheduleViolation};
pub use service::analyze_service;
pub use hb::{detect_races, Race, RaceReport};
pub use lints::{run_lints, Lint, LintKind};
pub use locks::{analyze_locks, LockCycle, LockReport};
pub use report::{findings_to_json, Analysis, RunFindings};
pub use vc::VectorClock;
