//! # cool-rt — a real threaded COOL runtime
//!
//! The simulated runtime (`cool-sim`) reproduces the paper's DASH numbers;
//! this crate runs the *same scheduling machinery* on real threads, so the
//! queue structure, affinity resolution and steal policies are exercised
//! under true parallelism:
//!
//! * one worker thread per server, each owning the `cool-core`
//!   [`ServerQueues`](cool_core::ServerQueues) behind a mutex;
//! * affinity-directed placement identical to `cool-sim` (PROCESSOR >
//!   OBJECT-home > TASK-hash > creator), with object homes kept in a
//!   placement registry (`alloc_on` / `migrate` / `home`);
//! * back-to-back service of task-affinity sets — which yields *real* cache
//!   reuse on the host machine, measurable with the criterion benches;
//! * work stealing with whole-set transfer, object-affinity avoidance,
//!   cluster-first victim order and last-resort override;
//! * `parallel mutex` functions via per-object locks (`try_lock`; a blocked
//!   task is set aside and the server keeps working, as in COOL);
//! * `waitfor` scopes: [`Runtime::scope`] blocks until every task spawned
//!   within the scope — including nested spawns — has completed, and reports
//!   task panics as a [`ScopeError`] instead of crashing the runtime;
//! * failure isolation: panicking tasks release their scope slot and any
//!   held `mutex` object via RAII guards, a stall watchdog
//!   ([`RtConfig::with_stall_timeout`]) turns silent hangs into diagnostic
//!   [`StallDump`]s, and deterministic fault plans
//!   ([`Runtime::with_faults`]) inject stragglers, stalls and transient
//!   task failures for chaos testing;
//! * a long-running service layer ([`serve::WorkServer`]): affinity-keyed
//!   shard pools with bounded admission and backpressure, idempotency-keyed
//!   dedup, per-request deadlines with deterministic jittered-backoff
//!   retries, drain-and-refuse shutdown, and watchdog-driven pool restarts
//!   — the same scheduling structure under sustained open-loop traffic.
//!
//! The machine here is whatever you run on (UMA, most likely), so *memory*
//! locality effects are not observable; what carries over from the paper is
//! the scheduling behaviour and cache-affinity benefits.
//!
//! ## Example
//!
//! ```
//! use cool_rt::{Runtime, RtConfig, RtTask, AffinitySpec, ProcId};
//! use std::sync::atomic::{AtomicU32, Ordering};
//! use std::sync::Arc;
//!
//! let rt = Runtime::new(RtConfig::new(4));
//! let obj = rt.placement().alloc_on(ProcId(2)); // new (2) T
//! let hits = Arc::new(AtomicU32::new(0));
//! let h = hits.clone();
//! rt.scope(move |s| {              // waitfor { ... }
//!     for _ in 0..16 {
//!         let h = h.clone();
//!         s.spawn(
//!             RtTask::new(move |_| {
//!                 h.fetch_add(1, Ordering::Relaxed);
//!             })
//!             .with_affinity(AffinitySpec::simple(obj)),
//!         );
//!     }
//! })
//! .unwrap();                       // Err(ScopeError) if a task panicked
//! assert_eq!(hits.load(Ordering::Relaxed), 16);
//! ```

#![warn(missing_docs)]

mod faults;
mod pad;
pub mod placement;
pub mod runtime;
pub mod serve;
pub mod vserve;
pub mod watchdog;

pub use placement::Placement;
pub use runtime::{RtConfig, RtCtx, RtTask, Runtime, ScopeError, ScopeResult};
pub use serve::{
    Backpressure, Outcome, Request, RequestRecord, ServeConfig, ServeStats, SubmitError,
    WorkServer,
};
pub use vserve::{ServeDefect, ServeMachine, ServeOp, SubmitSpec};
pub use watchdog::StallDump;

pub use cool_core::{
    AffinitySpec, FaultPlan, ObjRef, ProcId, SchedStats, StealPolicy, TaskError, Topology,
};
