//! Tensor shapes and index arithmetic.

use crate::{Result, TensorError};
use std::fmt;

/// A dense, row-major tensor shape.
///
/// Shapes in this codebase are small (rank ≤ 4 in practice: `[N, C, H, W]`
/// for vision, `[N, T, D]` for sequences, `[N, D]` for features), so a
/// heap-allocated `Vec<usize>` is fine.
///
/// # Examples
///
/// ```
/// use gmorph_tensor::Shape;
///
/// let s = Shape::new(vec![2, 3, 4]);
/// assert_eq!(s.numel(), 24);
/// assert_eq!(s.rank(), 3);
/// assert_eq!(s.dim(1), 3);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Shape {
    dims: Vec<usize>,
}

impl Shape {
    /// Creates a shape from its dimensions.
    pub fn new(dims: Vec<usize>) -> Self {
        Shape { dims }
    }

    /// Returns the number of dimensions.
    pub fn rank(&self) -> usize {
        self.dims.len()
    }

    /// Returns the size of dimension `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.rank()`.
    pub fn dim(&self, i: usize) -> usize {
        self.dims[i]
    }

    /// Returns the dimensions as a slice.
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// Returns the total number of elements.
    pub fn numel(&self) -> usize {
        self.dims.iter().product()
    }

    /// Returns row-major strides for this shape.
    ///
    /// The last dimension is contiguous (stride 1).
    pub(crate) fn strides(&self) -> Vec<usize> {
        let mut strides = vec![1usize; self.dims.len()];
        for i in (0..self.dims.len().saturating_sub(1)).rev() {
            strides[i] = strides[i + 1] * self.dims[i + 1];
        }
        strides
    }

    /// Converts a multi-dimensional index to a flat offset.
    ///
    /// Returns an error if the index has the wrong rank or any coordinate is
    /// out of bounds.
    pub(crate) fn offset(&self, index: &[usize]) -> Result<usize> {
        if index.len() != self.dims.len() {
            return Err(TensorError::RankMismatch {
                op: "offset",
                expected: self.dims.len(),
                actual: index.len(),
            });
        }
        let strides = self.strides();
        let mut off = 0usize;
        for (i, (&ix, &d)) in index.iter().zip(self.dims.iter()).enumerate() {
            if ix >= d {
                return Err(TensorError::OutOfBounds {
                    op: "offset",
                    index: ix,
                    bound: d,
                });
            }
            off += ix * strides[i];
        }
        Ok(off)
    }

    /// Checks element-count compatibility for a reshape.
    pub(crate) fn can_reshape_to(&self, other: &Shape) -> bool {
        self.numel() == other.numel()
    }

    /// Returns true if any dimension equals the corresponding dimension of
    /// `other` (same rank required).
    ///
    /// This is the paper's *similar shape* predicate (§2.2.1): two feature
    /// shapes are similar when "any or all of the width, height, and channel
    /// dimensions are the same".
    pub fn shares_any_dim(&self, other: &Shape) -> bool {
        self.rank() == other.rank() && self.dims.iter().zip(other.dims.iter()).any(|(a, b)| a == b)
    }
}

impl fmt::Display for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, d) in self.dims.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{d}")?;
        }
        write!(f, "]")
    }
}

impl From<Vec<usize>> for Shape {
    fn from(dims: Vec<usize>) -> Self {
        Shape::new(dims)
    }
}

impl From<&[usize]> for Shape {
    fn from(dims: &[usize]) -> Self {
        Shape::new(dims.to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn numel_and_rank() {
        let s = Shape::new(vec![2, 3, 4]);
        assert_eq!(s.numel(), 24);
        assert_eq!(s.rank(), 3);
        assert_eq!(s.dims(), &[2, 3, 4]);
    }

    #[test]
    fn scalar_shape() {
        let s = Shape::new(Vec::new());
        assert_eq!(s.rank(), 0);
        assert_eq!(s.numel(), 1);
        assert!(s.strides().is_empty());
    }

    #[test]
    fn strides_row_major() {
        let s = Shape::new(vec![2, 3, 4]);
        assert_eq!(s.strides(), vec![12, 4, 1]);
    }

    #[test]
    fn offset_basic() {
        let s = Shape::new(vec![2, 3, 4]);
        assert_eq!(s.offset(&[0, 0, 0]).unwrap(), 0);
        assert_eq!(s.offset(&[1, 2, 3]).unwrap(), 23);
        assert_eq!(s.offset(&[0, 1, 2]).unwrap(), 6);
    }

    #[test]
    fn offset_errors() {
        let s = Shape::new(vec![2, 3]);
        assert!(matches!(
            s.offset(&[0]),
            Err(TensorError::RankMismatch { .. })
        ));
        assert!(matches!(
            s.offset(&[2, 0]),
            Err(TensorError::OutOfBounds { .. })
        ));
    }

    #[test]
    fn shares_any_dim_predicate() {
        let a = Shape::new(vec![8, 16, 16]);
        let b = Shape::new(vec![4, 16, 8]);
        let c = Shape::new(vec![3, 5, 7]);
        assert!(a.shares_any_dim(&b));
        assert!(!a.shares_any_dim(&c));
        // Different rank: never similar.
        let d = Shape::new(vec![8, 16]);
        assert!(!a.shares_any_dim(&d));
    }

    #[test]
    fn display_format() {
        assert_eq!(Shape::new(vec![1, 2]).to_string(), "[1, 2]");
        assert_eq!(Shape::new(Vec::new()).to_string(), "[]");
    }

    proptest! {
        #[test]
        fn offsets_are_dense_and_unique(dims in proptest::collection::vec(1usize..5, 1..4)) {
            let s = Shape::new(dims.clone());
            let mut seen = vec![false; s.numel()];
            // Enumerate all indices in odometer order and confirm bijectivity.
            let mut ix = vec![0usize; dims.len()];
            for _ in 0..s.numel() {
                let o2 = s.offset(&ix).unwrap();
                prop_assert!(!seen[o2]);
                seen[o2] = true;
                for d in (0..dims.len()).rev() {
                    ix[d] += 1;
                    if ix[d] < dims[d] {
                        break;
                    }
                    ix[d] = 0;
                }
            }
            prop_assert!(seen.iter().all(|&b| b));
        }
    }
}
