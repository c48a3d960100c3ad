//! Trainable parameters.

use gmorph_tensor::{Result, Tensor};

/// A trainable tensor with its gradient accumulator and Adam moments.
///
/// Keeping the optimizer moments inside the parameter keeps the optimizer
/// itself stateless, which matters for GMorph: candidate models are cloned
/// (weight inheritance from elite candidates, §2.2.2) and fine-tuned
/// independently; cloning a model must clone a complete training state.
#[derive(Debug, Clone)]
pub struct Parameter {
    /// The parameter value.
    pub value: Tensor,
    /// Accumulated gradient (zeroed by the optimizer after each step).
    pub grad: Tensor,
    /// Adam first-moment estimate.
    pub m: Tensor,
    /// Adam second-moment estimate.
    pub v: Tensor,
}

impl Parameter {
    /// Wraps a value tensor, allocating zeroed gradient and moment buffers.
    pub fn new(value: Tensor) -> Self {
        let grad = Tensor::zeros(value.dims());
        let m = Tensor::zeros(value.dims());
        let v = Tensor::zeros(value.dims());
        Parameter { value, grad, m, v }
    }

    /// Number of scalar parameters.
    pub fn numel(&self) -> usize {
        self.value.numel()
    }

    /// Zeroes the gradient accumulator.
    pub fn zero_grad(&mut self) {
        self.grad.zero_();
    }

    /// Accumulates `g` into the gradient.
    pub(crate) fn accumulate(&mut self, g: &Tensor) -> Result<()> {
        self.grad.add_assign(g)
    }

    /// Replaces the value, resetting gradient and moments.
    ///
    /// Used when a generated model inherits weights from a base candidate:
    /// optimizer state must not leak across candidates.
    pub(crate) fn load_value(&mut self, value: Tensor) {
        self.grad = Tensor::zeros(value.dims());
        self.m = Tensor::zeros(value.dims());
        self.v = Tensor::zeros(value.dims());
        self.value = value;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_allocates_matching_buffers() {
        let p = Parameter::new(Tensor::ones(&[2, 3]));
        assert_eq!(p.numel(), 6);
        assert_eq!(p.grad.dims(), &[2, 3]);
        assert_eq!(p.grad.sum(), 0.0);
        assert_eq!(p.m.sum(), 0.0);
    }

    #[test]
    fn accumulate_and_zero() {
        let mut p = Parameter::new(Tensor::zeros(&[4]));
        p.accumulate(&Tensor::ones(&[4])).unwrap();
        p.accumulate(&Tensor::ones(&[4])).unwrap();
        assert_eq!(p.grad.sum(), 8.0);
        p.zero_grad();
        assert_eq!(p.grad.sum(), 0.0);
        assert!(p.accumulate(&Tensor::ones(&[5])).is_err());
    }

    #[test]
    fn load_value_resets_state() {
        let mut p = Parameter::new(Tensor::zeros(&[2]));
        p.accumulate(&Tensor::ones(&[2])).unwrap();
        p.m = Tensor::ones(&[2]);
        p.load_value(Tensor::full(&[3], 7.0));
        assert_eq!(p.value.dims(), &[3]);
        assert_eq!(p.grad.sum(), 0.0);
        assert_eq!(p.m.sum(), 0.0);
    }
}
