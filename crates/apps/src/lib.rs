//! # apps — the paper's case studies (Section 6)
//!
//! Each module reimplements one SPLASH-style application as a COOL program
//! running on the simulated DASH machine, parameterised by the scheduling
//! version the paper compares:
//!
//! * [`ocean`] — Ocean (Section 6.1): grid PDE relaxation; object
//!   distribution of regions + default affinity.
//! * [`locusroute`] — LocusRoute (Section 6.2): wire routing over a shared
//!   CostArray; processor affinity by geographic region, optional
//!   distribution of the CostArray.
//! * [`panel_cholesky`] — Panel Cholesky (Section 6.3): sparse factorization
//!   with panels; round-robin panel distribution, default (object) affinity
//!   on the destination panel, and cluster stealing.
//! * [`block_cholesky`] — Block Cholesky (Section 6.4): blocked dense
//!   factorization with per-block task dataflow.
//! * [`barnes_hut`] — Barnes-Hut (Section 6.4): octree N-body with
//!   spatially-grouped force tasks.
//! * [`gauss`] — the Gaussian-elimination example of Figure 3: TASK affinity
//!   on the source column + OBJECT affinity on the destination column.
//! * [`threaded`] — the same task structures on the real threaded runtime
//!   (`cool-rt`), headlined by a genuinely parallel Panel Cholesky.
//! * [`serve_adapter`] — LocusRoute nets as route-requests for the
//!   `cool-serve` work server (region → shard key, cell evaluations →
//!   admission cost), backing the service load generator in `bench`.
//!
//! All apps share the conventions in [`common`]: every task does the real
//! computation on real data *and* mirrors its accesses into the machine, and
//! every app verifies its numeric output against a sequential reference, so
//! a scheduling bug cannot silently pass as a performance artefact.
//!
//! [`driver`] runs any app by name at a pinned fast scale and exports its
//! observability artifacts (Chrome trace + `cool-metrics-v1` summary).

#![warn(missing_docs)]

pub mod barnes_hut;
pub mod block_cholesky;
pub mod common;
pub mod driver;
pub mod gauss;
pub mod locusroute;
pub mod ocean;
pub mod panel_cholesky;
pub mod serve_adapter;
pub mod threaded;

pub use common::{apply_version, AppReport, Version};
