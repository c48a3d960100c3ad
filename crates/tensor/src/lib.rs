//! Minimal CPU tensor library underpinning the GMorph reproduction.
//!
//! The paper's artifact runs on PyTorch; this crate is the from-scratch
//! substitute. It provides exactly the primitives the rest of the stack
//! needs to *train* (not just run) the computation blocks GMorph mutates:
//!
//! - [`Shape`] / [`Tensor`]: dense row-major `f32` tensors with shape math,
//! - [`gemm`]: blocked matrix multiplication (the hot path of every layer),
//! - [`conv`]: im2col-based 2D convolution with backward passes,
//! - [`pool`]: max/avg pooling with backward passes,
//! - [`interp`]: nearest/bilinear resizing (the re-scale operator inserted
//!   between shared features of mismatched shapes, §4.1 of the paper),
//! - [`ops`]: activations, softmax, and reductions,
//! - [`rng`]: deterministic seeded random number utilities,
//! - [`serialize`]: a tiny binary format for weight caching,
//! - [`checkpoint`]: a versioned, checksummed, atomically-written envelope
//!   for crash-safe snapshots of long-running jobs,
//! - [`engine`]: the shared worker pool that kernels dispatch onto.
//!
//! Hot kernels (GEMM, convolution, pooling, large elementwise ops) run on a
//! process-wide worker pool sized by `GMORPH_THREADS` (see [`engine`]).
//! Work decomposition depends only on problem shape and every reduction has
//! a fixed order, so results are bit-identical across thread counts.

pub mod buffer;
pub mod checkpoint;
pub mod conv;
pub mod engine;
pub mod error;
pub mod gemm;
pub mod interp;
pub mod ops;
pub mod pool;
pub mod rng;
pub mod serialize;
pub mod shape;
pub mod simd;
pub mod tensor;

#[cfg(test)]
#[path = "../tests/grid/mod.rs"]
mod grid;

/// Checks on the raw ChaCha12 draws behind [`rng::Rng`].
#[cfg(test)]
mod tests {
    use crate::rng::Rng;

    #[test]
    fn deterministic_and_seed_sensitive() {
        let mut a = Rng::new(42);
        let mut b = Rng::new(42);
        let mut c = Rng::new(43);
        let xa: Vec<u64> = (0..32).map(|_| a.next_u64()).collect();
        let xb: Vec<u64> = (0..32).map(|_| b.next_u64()).collect();
        let xc: Vec<u64> = (0..32).map(|_| c.next_u64()).collect();
        assert_eq!(xa, xb);
        assert_ne!(xa, xc);
    }

    #[test]
    fn floats_land_in_unit_interval() {
        let mut rng = Rng::new(7);
        for _ in 0..10_000 {
            let x = rng.next_f32();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn float_mean_is_half() {
        let mut rng = Rng::new(11);
        let n = 40_000;
        let sum: f64 = (0..n).map(|_| rng.next_f32() as f64).sum();
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }
}

pub use error::{FailureKind, FaultKind, FaultSpec, GmorphError};
pub use shape::Shape;
pub use tensor::Tensor;

use std::fmt;

/// Errors produced by tensor operations.
///
/// Shape mismatches are programming errors in most deep-learning code, but
/// GMorph *generates* graphs programmatically, so shape failures must be
/// recoverable: a bad mutation should be rejected, not abort the search.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TensorError {
    /// Two shapes that were required to match did not.
    ShapeMismatch {
        /// Context string naming the operation that failed.
        op: &'static str,
        /// Textual rendering of the left-hand shape.
        lhs: String,
        /// Textual rendering of the right-hand shape.
        rhs: String,
    },
    /// A tensor had the wrong rank for an operation.
    RankMismatch {
        /// Context string naming the operation that failed.
        op: &'static str,
        /// Expected rank.
        expected: usize,
        /// Actual rank.
        actual: usize,
    },
    /// An index was out of bounds.
    OutOfBounds {
        /// Context string naming the operation that failed.
        op: &'static str,
        /// The offending index.
        index: usize,
        /// The bound it violated.
        bound: usize,
    },
    /// An operation received an invalid argument (zero-sized dim, etc).
    InvalidArgument {
        /// Context string naming the operation that failed.
        op: &'static str,
        /// Human-readable description of the problem.
        msg: String,
    },
    /// Serialization / deserialization failure.
    Io(String),
    /// A classified evaluation failure (see [`error::FailureKind`]): caught
    /// panics, numeric-health violations, deadline and OOM-guard trips. The
    /// classification rides the ordinary `Result` plumbing so the search
    /// supervisor can decide retry vs quarantine without new signatures.
    Failed {
        /// Failure class.
        kind: error::FailureKind,
        /// Context string naming the operation that failed.
        op: &'static str,
        /// Human-readable description of the failure.
        msg: String,
    },
}

impl fmt::Display for TensorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TensorError::ShapeMismatch { op, lhs, rhs } => {
                write!(f, "{op}: shape mismatch between {lhs} and {rhs}")
            }
            TensorError::RankMismatch {
                op,
                expected,
                actual,
            } => {
                write!(f, "{op}: expected rank {expected}, got {actual}")
            }
            TensorError::OutOfBounds { op, index, bound } => {
                write!(f, "{op}: index {index} out of bounds ({bound})")
            }
            TensorError::InvalidArgument { op, msg } => write!(f, "{op}: {msg}"),
            TensorError::Io(msg) => write!(f, "io error: {msg}"),
            TensorError::Failed { kind, op, msg } => {
                write!(f, "{op}: [{}] {msg}", kind.as_str())
            }
        }
    }
}

impl std::error::Error for TensorError {}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, TensorError>;
