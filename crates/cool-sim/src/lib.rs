//! # cool-sim — the simulated COOL runtime
//!
//! This crate implements the COOL runtime scheduler of Sections 4.2 and 5 of
//! the paper, executing on the simulated DASH machine from `dash-sim`:
//!
//! * one **server process per processor**, each owning the dual task-queue
//!   structure from `cool-core` (affinity-queue array + default queue);
//! * **affinity-directed placement**: a task is enqueued on the server chosen
//!   by its [`AffinitySpec`] (PROCESSOR > OBJECT-home > TASK-hash > creator),
//!   into the queue slot named by its affinity token — the paper's "two
//!   modulo operations";
//! * **back-to-back service** of task-affinity sets (a slot drains fully
//!   before the next is serviced);
//! * **work stealing** with the paper's policies: whole sets are stolen,
//!   object-affinity tasks are avoided, and stealing can be restricted to the
//!   thief's cluster (the `ClusterStealing` experiment of Section 6.3), with
//!   a last-resort override to guarantee progress;
//! * **mutex parallel functions**: a per-object lock serialises updates; a
//!   task finding its lock busy is set aside and retried, the server moving
//!   on to other work (COOL blocks the task, never the server);
//! * **waitfor** at phase granularity: [`SimRuntime::run_phase`] seeds a
//!   phase and runs the machine to quiescence, the virtual-clock equivalent
//!   of the `waitfor { ... }` construct wrapping a parallel loop.
//!
//! ## Execution model
//!
//! Tasks are real Rust closures: they perform the application's actual
//! computation on real data, and mirror their memory accesses into the
//! simulated machine through [`TaskCtx::read`]/[`TaskCtx::write`] (plus
//! [`TaskCtx::compute`] for pure ALU work). A task runs to completion at one
//! scheduling point (COOL tasks are non-preemptive) and its processor's
//! virtual clock advances by the cycles charged. The event loop always
//! resumes the earliest-clock server, so the interleaving — and therefore
//! every statistic — is deterministic.
//!
//! ## Example
//!
//! ```
//! use cool_sim::{SimRuntime, SimConfig, MachineConfig, Task, AffinitySpec};
//!
//! // An 8-processor DASH (two clusters of four).
//! let mut rt = SimRuntime::new(SimConfig::new(MachineConfig::dash(8)));
//! // new (5) T: allocate in processor 5's local memory.
//! let obj = rt.machine_mut().alloc_on_proc(5, 4096);
//! rt.run_phase(move |ctx| {
//!     // The task is collocated with the object's home and reads it there.
//!     ctx.spawn(
//!         Task::new(move |c| {
//!             c.read(obj, 4096);
//!             c.compute(1_000);
//!         })
//!         .with_affinity(AffinitySpec::simple(obj)),
//!     );
//! });
//! let report = rt.report();
//! assert_eq!(report.stats.executed, 2); // seed + task
//! assert!(report.stats.adherence() == 1.0);
//! // All misses were serviced in the object's local cluster memory.
//! assert_eq!(report.mem.remote_misses, 0);
//! ```

#![warn(missing_docs)]

pub mod report;
pub mod runtime;
mod sched;
pub mod task;

pub use report::RunReport;
pub use runtime::{SimConfig, SimError, SimRuntime};
pub use task::{Task, TaskCtx};

pub use cool_core::{
    AccessKind, AffinitySpec, Event, EventLog, FaultPlan, ObjRef, ProcId, Recording, StealPolicy,
    TaskUid, Topology,
};
pub use dash_sim::{MachineConfig, MissBreakdown};
