//! # sparse — sparse Cholesky substrate for the Cholesky case studies
//!
//! The paper's Panel Cholesky case study (Section 6.3) factors a sparse
//! symmetric positive-definite matrix `A = L·Lᵀ` using the panel
//! representation of Rothberg & Gupta: columns with identical non-zero
//! structure are grouped into panels, updates happen between panels, and a
//! panel becomes *ready* once all updates to it are done. Reproducing that
//! requires the whole supporting stack, which this crate provides from
//! scratch:
//!
//! * [`csc`] — compressed sparse column storage for the symmetric input
//!   (lower triangle).
//! * [`etree`] — elimination tree and postorder (Liu's algorithm).
//! * [`symbolic`] — symbolic factorization: the non-zero pattern of `L`.
//! * [`supernodes`] — fundamental supernodes, capped into panels, plus the
//!   panel-to-panel update dependency structure that drives the task graph.
//! * [`numeric`] — numeric kernels (`cmod`, `cdiv`) and a sequential
//!   left-looking factorization used both as the correctness reference and
//!   as the serial baseline for speedup curves.
//! * [`ordering`] — fill-reducing orderings (reverse Cuthill-McKee, minimum
//!   degree) and symmetric permutations, the preprocessing any real sparse
//!   Cholesky pipeline starts with.
//! * [`dense`] — small dense-matrix helpers: dense Cholesky (verification),
//!   the column-oriented Gaussian elimination of Figure 3, and the blocked
//!   dense Cholesky used for the Block Cholesky case study.

#![warn(missing_docs)]

pub mod csc;
pub mod dense;
pub mod etree;
pub mod numeric;
pub mod ordering;
pub mod supernodes;
pub mod symbolic;

pub use csc::CscMatrix;
pub use dense::DenseMatrix;
pub use etree::EliminationTree;
pub use numeric::Factor;
pub use ordering::Permutation;
pub use supernodes::{PanelDeps, PanelPartition};
pub use symbolic::SymbolicFactor;
