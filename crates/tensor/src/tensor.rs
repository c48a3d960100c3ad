//! The dense `f32` tensor type.

use crate::rng::Rng;
use crate::shape::Shape;
use crate::{Result, TensorError};
use std::fmt;

/// A dense, row-major, heap-allocated `f32` tensor.
///
/// This is the single value type that flows between all computation blocks
/// in the reproduction. It is deliberately simple: owned contiguous storage,
/// no views, no broadcasting beyond what the layer implementations need.
///
/// # Examples
///
/// ```
/// use gmorph_tensor::Tensor;
///
/// let t = Tensor::zeros(&[2, 3]);
/// assert_eq!(t.shape().dims(), &[2, 3]);
/// assert_eq!(t.data().len(), 6);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor {
    shape: Shape,
    data: Vec<f32>,
}

impl Tensor {
    /// Creates a tensor filled with zeros.
    pub fn zeros(dims: &[usize]) -> Self {
        let shape = Shape::from(dims);
        let n = shape.numel();
        Tensor {
            shape,
            data: vec![0.0; n],
        }
    }

    /// Creates a tensor filled with ones.
    pub fn ones(dims: &[usize]) -> Self {
        let shape = Shape::from(dims);
        let n = shape.numel();
        Tensor {
            shape,
            data: vec![1.0; n],
        }
    }

    /// Creates a tensor filled with `value`.
    pub fn full(dims: &[usize], value: f32) -> Self {
        let shape = Shape::from(dims);
        let n = shape.numel();
        Tensor {
            shape,
            data: vec![value; n],
        }
    }

    /// Creates a tensor from raw data, validating the element count.
    pub fn from_vec(dims: &[usize], data: Vec<f32>) -> Result<Self> {
        let shape = Shape::from(dims);
        if shape.numel() != data.len() {
            return Err(TensorError::ShapeMismatch {
                op: "from_vec",
                lhs: shape.to_string(),
                rhs: format!("[len={}]", data.len()),
            });
        }
        Ok(Tensor { shape, data })
    }

    /// Creates a tensor with elements drawn from `N(0, std^2)`.
    pub fn randn(dims: &[usize], std: f32, rng: &mut Rng) -> Self {
        let shape = Shape::from(dims);
        let n = shape.numel();
        let data = (0..n).map(|_| rng.normal() * std).collect();
        Tensor { shape, data }
    }

    /// Creates a tensor with elements drawn uniformly from `[lo, hi)`.
    pub fn rand_uniform(dims: &[usize], lo: f32, hi: f32, rng: &mut Rng) -> Self {
        let shape = Shape::from(dims);
        let n = shape.numel();
        let data = (0..n).map(|_| rng.uniform(lo, hi)).collect();
        Tensor { shape, data }
    }

    /// Returns the shape.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// Returns the dimensions as a slice.
    pub fn dims(&self) -> &[usize] {
        self.shape.dims()
    }

    /// Returns the total number of elements.
    pub fn numel(&self) -> usize {
        self.shape.numel()
    }

    /// Returns the underlying data slice.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Returns the underlying data slice mutably.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor and returns its raw data.
    pub fn into_data(self) -> Vec<f32> {
        self.data
    }

    /// Returns the element at a multi-dimensional index.
    pub fn at(&self, index: &[usize]) -> Result<f32> {
        Ok(self.data[self.shape.offset(index)?])
    }

    /// Reinterprets the tensor with a new shape of equal element count.
    pub fn reshape(&self, dims: &[usize]) -> Result<Tensor> {
        let shape = Shape::from(dims);
        if !self.shape.can_reshape_to(&shape) {
            return Err(TensorError::ShapeMismatch {
                op: "reshape",
                lhs: self.shape.to_string(),
                rhs: shape.to_string(),
            });
        }
        Ok(Tensor {
            shape,
            data: self.data.clone(),
        })
    }

    /// Applies `f` to every element, returning a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        Tensor {
            shape: self.shape.clone(),
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// Applies `f` to every element in place.
    pub(crate) fn map_in_place(&mut self, f: impl Fn(f32) -> f32) {
        for x in &mut self.data {
            *x = f(*x);
        }
    }

    /// Combines two same-shaped tensors element-wise.
    pub(crate) fn zip(&self, other: &Tensor, f: impl Fn(f32, f32) -> f32) -> Result<Tensor> {
        self.check_same_shape(other, "zip")?;
        let data = self
            .data
            .iter()
            .zip(other.data.iter())
            .map(|(&a, &b)| f(a, b))
            .collect();
        Ok(Tensor {
            shape: self.shape.clone(),
            data,
        })
    }

    /// Element-wise addition.
    pub fn add(&self, other: &Tensor) -> Result<Tensor> {
        self.zip(other, |a, b| a + b)
    }

    /// In-place `self += other`.
    pub fn add_assign(&mut self, other: &Tensor) -> Result<()> {
        self.check_same_shape(other, "add_assign")?;
        for (a, &b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += b;
        }
        Ok(())
    }

    /// Multiplies every element by a scalar, returning a new tensor.
    pub fn scale(&self, alpha: f32) -> Tensor {
        self.map(|x| x * alpha)
    }

    /// In-place scalar multiplication.
    pub fn scale_in_place(&mut self, alpha: f32) {
        self.map_in_place(|x| x * alpha);
    }

    /// Fills the tensor with zeros.
    pub fn zero_(&mut self) {
        self.data.iter_mut().for_each(|x| *x = 0.0);
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean of all elements (0 for empty tensors).
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Squared L2 norm of all elements.
    pub fn sq_norm(&self) -> f32 {
        self.data.iter().map(|&x| x * x).sum()
    }

    /// Index of the maximum element along the last dimension, per row.
    ///
    /// For a `[N, C]` tensor returns `N` indices; used for classification
    /// argmax during accuracy evaluation.
    pub fn argmax_rows(&self) -> Result<Vec<usize>> {
        if self.shape.rank() != 2 {
            return Err(TensorError::RankMismatch {
                op: "argmax_rows",
                expected: 2,
                actual: self.shape.rank(),
            });
        }
        let (n, c) = (self.shape.dim(0), self.shape.dim(1));
        let mut out = Vec::with_capacity(n);
        for i in 0..n {
            let row = &self.data[i * c..(i + 1) * c];
            let mut best = 0usize;
            for (j, &v) in row.iter().enumerate() {
                if v > row[best] {
                    best = j;
                }
            }
            out.push(best);
        }
        Ok(out)
    }

    /// Extracts row `i` from a rank-2 tensor as a new `[C]` tensor.
    pub fn row(&self, i: usize) -> Result<Tensor> {
        if self.shape.rank() != 2 {
            return Err(TensorError::RankMismatch {
                op: "row",
                expected: 2,
                actual: self.shape.rank(),
            });
        }
        let (n, c) = (self.shape.dim(0), self.shape.dim(1));
        if i >= n {
            return Err(TensorError::OutOfBounds {
                op: "row",
                index: i,
                bound: n,
            });
        }
        Tensor::from_vec(&[c], self.data[i * c..(i + 1) * c].to_vec())
    }

    /// Stacks rank-`r` tensors of identical shape into a rank-`r+1` tensor.
    pub fn stack(items: &[Tensor]) -> Result<Tensor> {
        let first = items.first().ok_or(TensorError::InvalidArgument {
            op: "stack",
            msg: "empty input".to_string(),
        })?;
        let mut dims = vec![items.len()];
        dims.extend_from_slice(first.dims());
        let mut data = Vec::with_capacity(first.numel() * items.len());
        for t in items {
            if t.shape != first.shape {
                return Err(TensorError::ShapeMismatch {
                    op: "stack",
                    lhs: first.shape.to_string(),
                    rhs: t.shape.to_string(),
                });
            }
            data.extend_from_slice(&t.data);
        }
        Tensor::from_vec(&dims, data)
    }

    /// Selects a subset of leading-dimension slices (a "batch gather").
    ///
    /// For a `[N, ...]` tensor and indices into `0..N`, returns a
    /// `[indices.len(), ...]` tensor.
    pub fn select_rows(&self, indices: &[usize]) -> Result<Tensor> {
        if self.shape.rank() == 0 {
            return Err(TensorError::RankMismatch {
                op: "select_rows",
                expected: 1,
                actual: 0,
            });
        }
        let n = self.shape.dim(0);
        let stride: usize = self.shape.dims()[1..].iter().product();
        let mut data = Vec::with_capacity(indices.len() * stride);
        for &i in indices {
            if i >= n {
                return Err(TensorError::OutOfBounds {
                    op: "select_rows",
                    index: i,
                    bound: n,
                });
            }
            data.extend_from_slice(&self.data[i * stride..(i + 1) * stride]);
        }
        let mut dims = vec![indices.len()];
        dims.extend_from_slice(&self.shape.dims()[1..]);
        Tensor::from_vec(&dims, data)
    }

    pub(crate) fn check_same_shape(&self, other: &Tensor, op: &'static str) -> Result<()> {
        if self.shape != other.shape {
            return Err(TensorError::ShapeMismatch {
                op,
                lhs: self.shape.to_string(),
                rhs: other.shape.to_string(),
            });
        }
        Ok(())
    }
}

impl fmt::Display for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor{} (", self.shape)?;
        let preview = self.data.iter().take(8);
        for (i, v) in preview.enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v:.4}")?;
        }
        if self.data.len() > 8 {
            write!(f, ", ...")?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;
    use proptest::prelude::*;

    #[test]
    fn constructors() {
        assert_eq!(Tensor::zeros(&[2, 2]).sum(), 0.0);
        assert_eq!(Tensor::ones(&[2, 2]).sum(), 4.0);
        assert_eq!(Tensor::full(&[3], 2.5).sum(), 7.5);
    }

    #[test]
    fn from_vec_validates_len() {
        assert!(Tensor::from_vec(&[2, 2], vec![1.0; 4]).is_ok());
        assert!(Tensor::from_vec(&[2, 2], vec![1.0; 3]).is_err());
    }

    #[test]
    fn elementwise_ops() {
        let a = Tensor::from_vec(&[2], vec![1.0, 2.0]).unwrap();
        let b = Tensor::from_vec(&[2], vec![3.0, 5.0]).unwrap();
        assert_eq!(a.add(&b).unwrap().data(), &[4.0, 7.0]);
    }

    #[test]
    fn shape_mismatch_is_error() {
        let a = Tensor::zeros(&[2]);
        let b = Tensor::zeros(&[3]);
        assert!(a.add(&b).is_err());
    }

    #[test]
    fn reshape_preserves_data() {
        let a = Tensor::from_vec(&[2, 3], (0..6).map(|x| x as f32).collect()).unwrap();
        let b = a.reshape(&[3, 2]).unwrap();
        assert_eq!(b.data(), a.data());
        assert!(a.reshape(&[4]).is_err());
    }

    #[test]
    fn argmax_rows_basic() {
        let t = Tensor::from_vec(&[2, 3], vec![0.1, 0.9, 0.2, 3.0, -1.0, 2.0]).unwrap();
        assert_eq!(t.argmax_rows().unwrap(), vec![1, 0]);
    }

    #[test]
    fn stack_and_select() {
        let a = Tensor::from_vec(&[2], vec![1.0, 2.0]).unwrap();
        let b = Tensor::from_vec(&[2], vec![3.0, 4.0]).unwrap();
        let s = Tensor::stack(&[a, b]).unwrap();
        assert_eq!(s.dims(), &[2, 2]);
        let sel = s.select_rows(&[1, 0, 1]).unwrap();
        assert_eq!(sel.dims(), &[3, 2]);
        assert_eq!(sel.data(), &[3.0, 4.0, 1.0, 2.0, 3.0, 4.0]);
        assert!(s.select_rows(&[2]).is_err());
    }

    #[test]
    fn randn_is_deterministic_per_seed() {
        let mut r1 = Rng::new(42);
        let mut r2 = Rng::new(42);
        let a = Tensor::randn(&[16], 1.0, &mut r1);
        let b = Tensor::randn(&[16], 1.0, &mut r2);
        assert_eq!(a.data(), b.data());
    }

    #[test]
    fn randn_statistics_sane() {
        let mut rng = Rng::new(7);
        let t = Tensor::randn(&[10_000], 1.0, &mut rng);
        let mean = t.mean();
        let var = t.map(|x| (x - mean) * (x - mean)).mean();
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.1, "var {var}");
    }

    proptest! {
        #[test]
        fn add_commutes(xs in proptest::collection::vec(-10.0f32..10.0, 1..32)) {
            let n = xs.len();
            let a = Tensor::from_vec(&[n], xs.clone()).unwrap();
            let b = Tensor::from_vec(&[n], xs.iter().map(|x| x * 0.5 + 1.0).collect()).unwrap();
            prop_assert_eq!(a.add(&b).unwrap(), b.add(&a).unwrap());
        }

        #[test]
        fn scale_distributes_over_add(xs in proptest::collection::vec(-10.0f32..10.0, 1..32)) {
            let n = xs.len();
            let a = Tensor::from_vec(&[n], xs.clone()).unwrap();
            let b = Tensor::from_vec(&[n], xs.iter().rev().cloned().collect()).unwrap();
            let lhs = a.add(&b).unwrap().scale(2.0);
            let rhs = a.scale(2.0).add(&b.scale(2.0)).unwrap();
            for (l, r) in lhs.data().iter().zip(rhs.data().iter()) {
                prop_assert!((l - r).abs() < 1e-4);
            }
        }
    }
}
