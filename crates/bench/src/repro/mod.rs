//! # cool-repro — the paper-figure reproduction sweep engine
//!
//! Enumerates the full experiment matrix of the paper's evaluation — six
//! applications × their scheduling-version ladders (no hints / affinity
//! hints / object distribution / +cluster stealing) × processor counts
//! 1–32 — and runs the deterministic simulations **in parallel across host
//! threads**:
//!
//! * [`matrix`] — the matrix itself: point enumeration, per-point config
//!   fingerprints, and the pinned CI smoke subset.
//! * [`pool`] — runs the points as tasks on the threaded COOL runtime
//!   (`cool_rt::Runtime`, one server per host worker) with a progress/ETA
//!   reporter; the runtime's own trace makes the sweep exportable as a
//!   Perfetto trace.
//! * [`record`] — the schema'd `cool-repro-v1` JSON record (speedup,
//!   execution-time breakdown, PerfMonitor cache/local/remote attribution,
//!   and the config string and hash that record its provenance) and its
//!   byte-stable reader/writer.
//! * [`render`] — Markdown/TSV speedup tables and miss-breakdown tables
//!   mapped one-to-one onto the paper's figures (committed under
//!   `results/`).
//! * [`check`] — the tolerance-band drift gate CI runs against the
//!   committed goldens.
//!
//! Every sweep simulates every point: nothing is cached between runs.
//! The `repro` binary (`cargo run --release -p bench --bin repro`) is the
//! command-line front end; `REPRODUCTION.md` at the repo root documents the
//! exact commands behind every committed artifact.

pub mod check;
pub mod matrix;
pub mod pool;
pub mod record;
pub mod render;

pub use check::{drift, parse_tolerance};
pub use matrix::{adaptive_matrix, build_matrix, deep_matrix, full_matrix, smoke_matrix, MatrixPoint};
pub use pool::{run_serial, run_sweep, SweepError, SweepOutcome};
pub use record::{
    derive_speedups, fnv1a64, parse_records_doc, records_doc, ReproRecord, REPRO_EPOCH,
    REPRO_SCHEMA,
};
pub use render::{markdown_report, records_tsv};
