//! Exporters for the recorded event stream.
//!
//! `cool-core::events` defines the event vocabulary and the per-worker ring
//! recorder; this crate turns a drained [`EventLog`](cool_core::EventLog)
//! into artifacts a human can open (reading its trace events and ignoring
//! the rest):
//!
//! * [`chrome`] — a Chrome-trace (Perfetto-loadable) JSON document: one
//!   duration slice per task, instants for steals / slot transitions /
//!   mutex waits / migrations, and a queue-depth counter track per server.
//! * [`metrics`] — a deterministic, byte-stable `cool-metrics-v1` summary:
//!   steal success rates and batch-size distribution, affinity hit rate,
//!   queue-depth histogram, and the per-task-affinity-set cache / local /
//!   remote breakdown attributed from PerfMonitor deltas at task
//!   boundaries (so the per-set totals sum to the end-of-run aggregates).
//!
//! * [`progress`] — a progress/ETA meter the `cool-repro` sweep engine
//!   feeds one finished matrix point at a time.
//!
//! Everything is hand-rolled string formatting over a fixed key order — no
//! JSON dependency, matching the offline build constraints and the
//! `cool-bench-v1` precedent in the bench crate.

#![warn(missing_docs)]

pub mod chrome;
pub mod metrics;
pub mod progress;

pub use chrome::chrome_trace_json;
pub use metrics::{
    validate_metrics_json, AdaptiveBlock, ContentionRow, MetricsSummary, TopologyBlock,
    METRICS_SCHEMA,
};
pub use progress::ProgressMeter;
