//! Core model shared by the COOL runtimes.
//!
//! This crate contains the backend-independent pieces of the COOL
//! reproduction (Chandra, Gupta & Hennessy, *Data Locality and Load Balancing
//! in COOL*, PPoPP 1993):
//!
//! * [`ids`] — strongly-typed identifiers for processors, clusters, memory
//!   nodes, and object references.
//! * [`affinity`] — the hierarchy of affinity hints from Table 1 of the
//!   paper: smart defaults, simple affinity, TASK / OBJECT affinity, and
//!   PROCESSOR affinity, plus the rules for resolving a hint to a server and
//!   a queue slot.
//! * [`queues`] — the per-server task-queue structure from Section 5: an
//!   array of affinity queues (indexed by a modulo hash of the affinity
//!   token) threaded by an intrusive doubly-linked list of non-empty slots,
//!   plus a default FIFO queue. Provides O(1) enqueue/dequeue and
//!   back-to-back service of task-affinity sets.
//! * [`policy`] — work-stealing policy knobs from Sections 4.2 and 6.3:
//!   stealing whole task-affinity sets, avoiding object-affinity tasks, and
//!   cluster-first stealing — and [`StealPolicy::scan`], the one steal scan
//!   every executor calls.
//! * [`feedback`] — the closed-loop layer over those knobs: the
//!   [`AdaptiveConfig`]/[`RebalanceConfig`] knob sets and the deterministic
//!   [`PolicyFeedback`] aggregator that turns observed steal failures,
//!   remote-miss rates and queue depths into ceiling widening, migration
//!   throttling and probe limits (sampled at task boundaries, so adaptive
//!   runs stay schedule-deterministic).
//! * [`stats`] — scheduling statistics (tasks executed, stolen, affinity
//!   adherence) used by both runtimes and by the figure harnesses.
//! * [`error`] — failure descriptions ([`TaskError`]) surfaced when a task
//!   body panics and is isolated by the runtime.
//! * [`events`] — the one [`Event`] vocabulary every instrumented runtime
//!   emits: scheduling, synchronisation, memory and request facts.
//! * [`obs`] — the per-worker [`Recorder`] and its three [`Recording`]
//!   modes: off, bounded trace rings (exported to Chrome-trace/metrics form
//!   by `cool-obs`), and the lossless full stream the `cool-analyze`
//!   happens-before race detector and lint passes consume.
//! * [`faults`] — seeded, deterministic [`FaultPlan`] descriptions of
//!   injected perturbations (stragglers, stalls, transient task failures)
//!   consumed by both runtimes' chaos hooks.
//! * [`vsched`] — the virtual-scheduler abstraction for model checking:
//!   [`VirtualProgram`] lifts a concurrent state machine onto explicit
//!   decision points, and [`QueueMachine`] models multi-server
//!   push/pop/steal over the real [`ServerQueues`] and the shipped steal
//!   scan for the `cool-check` exhaustive-interleaving explorer.
//!
//! Both the simulated runtime (`cool-sim`, which reproduces the paper's DASH
//! numbers) and the real threaded runtime (`cool-rt`) are built on these
//! types, so the scheduling behaviour under test is literally the same code.

#![warn(missing_docs)]

pub mod affinity;
pub mod error;
pub mod events;
pub mod faults;
pub mod feedback;
pub mod ids;
pub mod obs;
pub mod policy;
pub mod queues;
pub mod stats;
pub mod vsched;

pub use affinity::{AffinityKind, AffinitySpec};
pub use error::TaskError;
pub use events::{domain_token, req_uid, AccessKind, Event, TaskUid, REQ_UID_BASE};
pub use faults::FaultPlan;
pub use feedback::{AdaptiveConfig, PolicyFeedback, RebalanceConfig};
pub use ids::{ClusterId, NodeId, ObjRef, ProcId};
pub use obs::{EventLog, MemDelta, Recorder, Recording};
pub use policy::{Scan, StealPolicy, Topology, VictimOrders, MAX_TOPO_LEVELS};
pub use queues::{Popped, ServerQueues, SlotClass, SlotUpdate, StolenBatch};
pub use stats::SchedStats;
pub use vsched::{PushSpec, QueueDefect, QueueMachine, QueueOp, VirtualProgram};
