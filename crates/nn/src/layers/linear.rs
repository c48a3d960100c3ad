//! Fully-connected layer.

use super::missing_cache;
use crate::init;
use crate::param::Parameter;
use crate::Mode;
use gmorph_tensor::ops::Activation;
use gmorph_tensor::rng::Rng;
use gmorph_tensor::{gemm, Result, Tensor, TensorError};

/// A fully-connected layer `y = x Wᵀ + b` over rank-2 inputs `[M, in]`.
///
/// Sequence inputs `[N, T, D]` are flattened to `[N*T, D]` by callers.
///
/// # Examples
///
/// ```
/// use gmorph_nn::{layers::Linear, Mode};
/// use gmorph_tensor::{rng::Rng, Tensor};
///
/// let mut rng = Rng::new(0);
/// let mut lin = Linear::new(4, 2, &mut rng);
/// let x = Tensor::ones(&[3, 4]);
/// let y = lin.forward(&x, Mode::Eval).unwrap();
/// assert_eq!(y.dims(), &[3, 2]);
/// ```
#[derive(Debug, Clone)]
pub struct Linear {
    /// Weight matrix `[out, in]`.
    pub weight: Parameter,
    /// Bias vector `[out]`.
    pub bias: Parameter,
    cache_x: Option<Tensor>,
}

impl Linear {
    /// Creates a layer with Xavier-uniform weights and zero bias.
    pub fn new(in_features: usize, out_features: usize, rng: &mut Rng) -> Self {
        Linear {
            weight: Parameter::new(init::xavier_uniform(
                &[out_features, in_features],
                in_features,
                out_features,
                rng,
            )),
            bias: Parameter::new(Tensor::zeros(&[out_features])),
            cache_x: None,
        }
    }

    /// Input feature count.
    pub(crate) fn in_features(&self) -> usize {
        self.weight.value.dims()[1]
    }

    /// Output feature count.
    pub(crate) fn out_features(&self) -> usize {
        self.weight.value.dims()[0]
    }

    /// Forward pass over `[M, in]`, producing `[M, out]`.
    pub fn forward(&mut self, x: &Tensor, mode: Mode) -> Result<Tensor> {
        let y = self.infer(x, Activation::None)?;
        if mode == Mode::Train {
            self.cache_x = Some(x.clone());
        }
        Ok(y)
    }

    /// Eval forward `act(x Wᵀ + b)`, the bias-add and `act` applied in the
    /// GEMM write loop. Caches nothing.
    pub fn infer(&self, x: &Tensor, act: Activation) -> Result<Tensor> {
        if x.shape().rank() != 2 || x.dims()[1] != self.in_features() {
            return Err(TensorError::ShapeMismatch {
                op: "Linear::forward",
                lhs: format!("[M, {}]", self.in_features()),
                rhs: x.shape().to_string(),
            });
        }
        gemm::matmul_nt_bias_act(x, &self.weight.value, Some(&self.bias.value), act)
    }

    /// Backward pass: accumulates dW, db and returns dX.
    pub fn backward(&mut self, grad_y: &Tensor) -> Result<Tensor> {
        let x = self
            .cache_x
            .as_ref()
            .ok_or_else(|| missing_cache("Linear::backward"))?;
        if grad_y.dims() != [x.dims()[0], self.out_features()] {
            return Err(TensorError::ShapeMismatch {
                op: "Linear::backward",
                lhs: format!("[{}, {}]", x.dims()[0], self.out_features()),
                rhs: grad_y.shape().to_string(),
            });
        }
        let gw = gemm::matmul_tn(grad_y, x)?; // [out, in]
        self.weight.accumulate(&gw)?;
        let gb = gemm::sum_rows(grad_y)?;
        self.bias.accumulate(&gb)?;
        gemm::matmul(grad_y, &self.weight.value) // [M, in]
    }

    /// Visits the layer's parameters.
    pub fn visit_params(&mut self, f: &mut dyn FnMut(&mut Parameter)) {
        f(&mut self.weight);
        f(&mut self.bias);
    }

    /// Read-only parameter visit, in the same order as [`visit_params`].
    ///
    /// [`visit_params`]: Linear::visit_params
    pub(crate) fn visit_params_ref(&self, f: &mut dyn FnMut(&Parameter)) {
        f(&self.weight);
        f(&self.bias);
    }

    /// Drops cached activations (used when cloning for inference).
    pub fn clear_cache(&mut self) {
        self.cache_x = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_shape_and_bias() {
        let mut rng = Rng::new(0);
        let mut lin = Linear::new(3, 2, &mut rng);
        lin.weight.value = Tensor::zeros(&[2, 3]);
        lin.bias.value = Tensor::from_vec(&[2], vec![1.0, -1.0]).unwrap();
        let y = lin.forward(&Tensor::ones(&[4, 3]), Mode::Eval).unwrap();
        assert_eq!(y.dims(), &[4, 2]);
        assert_eq!(y.at(&[0, 0]).unwrap(), 1.0);
        assert_eq!(y.at(&[3, 1]).unwrap(), -1.0);
    }

    #[test]
    fn rejects_wrong_input_width() {
        let mut rng = Rng::new(0);
        let mut lin = Linear::new(3, 2, &mut rng);
        assert!(lin.forward(&Tensor::ones(&[4, 5]), Mode::Eval).is_err());
    }

    #[test]
    fn backward_without_forward_errors() {
        let mut rng = Rng::new(0);
        let mut lin = Linear::new(3, 2, &mut rng);
        assert!(lin.backward(&Tensor::ones(&[4, 2])).is_err());
    }

    #[test]
    fn gradients_match_numerical() {
        let mut rng = Rng::new(1);
        let mut lin = Linear::new(3, 2, &mut rng);
        let x = Tensor::randn(&[4, 3], 1.0, &mut rng);

        let y = lin.forward(&x, Mode::Train).unwrap();
        let gx = lin.backward(&Tensor::ones(y.dims())).unwrap();

        let eps = 1e-3f32;
        // Weight gradient.
        for flat in 0..6 {
            let mut lp = lin.clone();
            lp.weight.value.data_mut()[flat] += eps;
            let mut lm = lin.clone();
            lm.weight.value.data_mut()[flat] -= eps;
            let num = (lp.forward(&x, Mode::Eval).unwrap().sum()
                - lm.forward(&x, Mode::Eval).unwrap().sum())
                / (2.0 * eps);
            let ana = lin.weight.grad.data()[flat];
            assert!((num - ana).abs() < 1e-2, "dW[{flat}]: {num} vs {ana}");
        }
        // Input gradient.
        for flat in 0..12 {
            let mut xp = x.clone();
            xp.data_mut()[flat] += eps;
            let mut xm = x.clone();
            xm.data_mut()[flat] -= eps;
            let mut l2 = lin.clone();
            let num = (l2.forward(&xp, Mode::Eval).unwrap().sum()
                - l2.forward(&xm, Mode::Eval).unwrap().sum())
                / (2.0 * eps);
            let ana = gx.data()[flat];
            assert!((num - ana).abs() < 1e-2, "dX[{flat}]: {num} vs {ana}");
        }
    }

    #[test]
    fn gradients_accumulate_across_batches() {
        let mut rng = Rng::new(2);
        let mut lin = Linear::new(2, 2, &mut rng);
        let x = Tensor::ones(&[1, 2]);
        for _ in 0..3 {
            let y = lin.forward(&x, Mode::Train).unwrap();
            lin.backward(&Tensor::ones(y.dims())).unwrap();
        }
        // db accumulates one per pass.
        assert_eq!(lin.bias.grad.data(), &[3.0, 3.0]);
    }
}
