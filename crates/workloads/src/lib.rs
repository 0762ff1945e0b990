//! # workloads — deterministic SPLASH-style input generators
//!
//! The paper evaluates COOL on SPLASH applications with their standard
//! inputs (and, for LocusRoute, a synthetically constructed circuit: "we
//! demonstrate our technique using a synthetically constructed input
//! consisting of a dense network of wires within regions of the circuit").
//! The original inputs are not distributable, so this crate generates
//! equivalent synthetic inputs, all seeded for reproducibility:
//!
//! * [`matrices`] — sparse SPD model problems (2-D grid Laplacians, banded
//!   and random-pattern SPD matrices) for the Cholesky studies.
//! * [`circuit`] — synthetic standard-cell circuits for LocusRoute: a cost
//!   grid plus wires clustered in geographic regions, exactly the structure
//!   the paper's synthetic input had.
//! * [`ocean`] — grid-state initialisation for the Ocean PDE solver.
//! * [`nbody`] — Plummer-model particle distributions for Barnes-Hut (the
//!   standard SPLASH initialisation).

#![warn(missing_docs)]

pub mod circuit;
pub mod matrices;
pub mod nbody;
pub mod ocean;

pub use circuit::{Circuit, Wire};
pub use nbody::Body;
