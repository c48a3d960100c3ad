//! Batch and layer normalization.

use super::missing_cache;
use crate::param::Parameter;
use crate::Mode;
use gmorph_tensor::{Result, Tensor, TensorError};

const EPS: f32 = 1e-5;

/// Batch normalization over the channel dimension of NCHW tensors.
///
/// Training uses batch statistics and updates exponential running averages;
/// evaluation uses the running averages, as in PyTorch.
#[derive(Debug, Clone)]
pub struct BatchNorm2d {
    /// Scale `[C]`.
    pub gamma: Parameter,
    /// Shift `[C]`.
    pub beta: Parameter,
    /// Running mean `[C]` (not trained).
    pub running_mean: Tensor,
    /// Running variance `[C]` (not trained).
    pub running_var: Tensor,
    /// Running-average momentum.
    pub momentum: f32,
    /// True when the normalization has been folded into the preceding
    /// convolution (inference compilation): eval passes become identity.
    pub fused: bool,
    cache: Option<BnCache>,
}

#[derive(Debug, Clone)]
struct BnCache {
    xhat: Tensor,
    inv_std: Vec<f32>,
    dims: Vec<usize>,
}

impl BatchNorm2d {
    /// Creates a layer for `channels` feature maps (γ=1, β=0).
    pub fn new(channels: usize) -> Self {
        BatchNorm2d {
            gamma: Parameter::new(Tensor::ones(&[channels])),
            beta: Parameter::new(Tensor::zeros(&[channels])),
            running_mean: Tensor::zeros(&[channels]),
            running_var: Tensor::ones(&[channels]),
            momentum: 0.1,
            fused: false,
            cache: None,
        }
    }

    /// Channel count.
    pub(crate) fn channels(&self) -> usize {
        self.gamma.value.dims()[0]
    }

    /// Forward pass over `[N, C, H, W]`.
    pub fn forward(&mut self, x: &Tensor, mode: Mode) -> Result<Tensor> {
        if x.shape().rank() != 4 || x.dims()[1] != self.channels() {
            return Err(TensorError::ShapeMismatch {
                op: "BatchNorm2d::forward",
                lhs: format!("[N, {}, H, W]", self.channels()),
                rhs: x.shape().to_string(),
            });
        }
        if mode == Mode::Eval && self.fused {
            return Ok(x.clone());
        }
        let (n, c, h, w) = (x.dims()[0], x.dims()[1], x.dims()[2], x.dims()[3]);
        let plane = h * w;
        let m = (n * plane) as f32;
        let mut out = Tensor::zeros(x.dims());
        match mode {
            Mode::Train => {
                let mut xhat = Tensor::zeros(x.dims());
                let mut inv_stds = vec![0.0f32; c];
                for (ch, inv_std_slot) in inv_stds.iter_mut().enumerate() {
                    let mut sum = 0.0f32;
                    for s in 0..n {
                        let base = (s * c + ch) * plane;
                        sum += x.data()[base..base + plane].iter().sum::<f32>();
                    }
                    let mean = sum / m;
                    let mut var = 0.0f32;
                    for s in 0..n {
                        let base = (s * c + ch) * plane;
                        for &v in &x.data()[base..base + plane] {
                            var += (v - mean) * (v - mean);
                        }
                    }
                    var /= m;
                    let inv_std = 1.0 / (var + EPS).sqrt();
                    *inv_std_slot = inv_std;
                    let (g, b) = (self.gamma.value.data()[ch], self.beta.value.data()[ch]);
                    for s in 0..n {
                        let base = (s * c + ch) * plane;
                        for i in base..base + plane {
                            let xh = (x.data()[i] - mean) * inv_std;
                            xhat.data_mut()[i] = xh;
                            out.data_mut()[i] = g * xh + b;
                        }
                    }
                    // Update running statistics.
                    let rm = &mut self.running_mean.data_mut()[ch];
                    *rm = (1.0 - self.momentum) * *rm + self.momentum * mean;
                    let rv = &mut self.running_var.data_mut()[ch];
                    *rv = (1.0 - self.momentum) * *rv + self.momentum * var;
                }
                self.cache = Some(BnCache {
                    xhat,
                    inv_std: inv_stds,
                    dims: x.dims().to_vec(),
                });
            }
            Mode::Eval => {
                for ch in 0..c {
                    let mean = self.running_mean.data()[ch];
                    let inv_std = 1.0 / (self.running_var.data()[ch] + EPS).sqrt();
                    let (g, b) = (self.gamma.value.data()[ch], self.beta.value.data()[ch]);
                    for s in 0..n {
                        let base = (s * c + ch) * plane;
                        for i in base..base + plane {
                            out.data_mut()[i] = g * (x.data()[i] - mean) * inv_std + b;
                        }
                    }
                }
            }
        }
        Ok(out)
    }

    /// Backward pass (training statistics).
    pub fn backward(&mut self, grad_y: &Tensor) -> Result<Tensor> {
        let cache = self
            .cache
            .as_ref()
            .ok_or_else(|| missing_cache("BatchNorm2d::backward"))?;
        if grad_y.dims() != cache.dims.as_slice() {
            return Err(TensorError::ShapeMismatch {
                op: "BatchNorm2d::backward",
                lhs: format!("{:?}", cache.dims),
                rhs: grad_y.shape().to_string(),
            });
        }
        let (n, c, h, w) = (cache.dims[0], cache.dims[1], cache.dims[2], cache.dims[3]);
        let plane = h * w;
        let m = (n * plane) as f32;
        let mut grad_x = Tensor::zeros(grad_y.dims());
        for ch in 0..c {
            let mut sum_gy = 0.0f32;
            let mut sum_gy_xhat = 0.0f32;
            for s in 0..n {
                let base = (s * c + ch) * plane;
                for i in base..base + plane {
                    sum_gy += grad_y.data()[i];
                    sum_gy_xhat += grad_y.data()[i] * cache.xhat.data()[i];
                }
            }
            self.gamma.grad.data_mut()[ch] += sum_gy_xhat;
            self.beta.grad.data_mut()[ch] += sum_gy;
            let g = self.gamma.value.data()[ch];
            let k = g * cache.inv_std[ch] / m;
            for s in 0..n {
                let base = (s * c + ch) * plane;
                for i in base..base + plane {
                    grad_x.data_mut()[i] =
                        k * (m * grad_y.data()[i] - sum_gy - cache.xhat.data()[i] * sum_gy_xhat);
                }
            }
        }
        Ok(grad_x)
    }

    /// Visits the layer's parameters.
    pub fn visit_params(&mut self, f: &mut dyn FnMut(&mut Parameter)) {
        f(&mut self.gamma);
        f(&mut self.beta);
    }

    /// Read-only parameter visit, in the same order as [`visit_params`].
    ///
    /// [`visit_params`]: BatchNorm2d::visit_params
    pub(crate) fn visit_params_ref(&self, f: &mut dyn FnMut(&Parameter)) {
        f(&self.gamma);
        f(&self.beta);
    }

    /// Drops cached activations.
    pub fn clear_cache(&mut self) {
        self.cache = None;
    }
}

/// Layer normalization over the last dimension of rank-2 inputs `[M, D]`.
#[derive(Debug, Clone)]
pub struct LayerNorm {
    /// Scale `[D]`.
    pub gamma: Parameter,
    /// Shift `[D]`.
    pub beta: Parameter,
    cache: Option<(Tensor, Vec<f32>)>,
}

impl LayerNorm {
    /// Creates a layer for feature width `d` (γ=1, β=0).
    pub fn new(d: usize) -> Self {
        LayerNorm {
            gamma: Parameter::new(Tensor::ones(&[d])),
            beta: Parameter::new(Tensor::zeros(&[d])),
            cache: None,
        }
    }

    /// Feature width.
    pub(crate) fn width(&self) -> usize {
        self.gamma.value.dims()[0]
    }

    /// Forward pass over `[M, D]`.
    pub fn forward(&mut self, x: &Tensor, mode: Mode) -> Result<Tensor> {
        if x.shape().rank() != 2 || x.dims()[1] != self.width() {
            return Err(TensorError::ShapeMismatch {
                op: "LayerNorm::forward",
                lhs: format!("[M, {}]", self.width()),
                rhs: x.shape().to_string(),
            });
        }
        let (m, d) = (x.dims()[0], x.dims()[1]);
        let mut out = Tensor::zeros(x.dims());
        let mut xhat = Tensor::zeros(x.dims());
        let mut inv_stds = vec![0.0f32; m];
        for (i, inv_std_slot) in inv_stds.iter_mut().enumerate() {
            let row = &x.data()[i * d..(i + 1) * d];
            let mean = row.iter().sum::<f32>() / d as f32;
            let var = row.iter().map(|&v| (v - mean) * (v - mean)).sum::<f32>() / d as f32;
            let inv_std = 1.0 / (var + EPS).sqrt();
            *inv_std_slot = inv_std;
            for (j, &rv) in row.iter().enumerate() {
                let xh = (rv - mean) * inv_std;
                xhat.data_mut()[i * d + j] = xh;
                out.data_mut()[i * d + j] =
                    self.gamma.value.data()[j] * xh + self.beta.value.data()[j];
            }
        }
        if mode == Mode::Train {
            self.cache = Some((xhat, inv_stds));
        }
        Ok(out)
    }

    /// Backward pass.
    pub fn backward(&mut self, grad_y: &Tensor) -> Result<Tensor> {
        let (xhat, inv_stds) = self
            .cache
            .as_ref()
            .ok_or_else(|| missing_cache("LayerNorm::backward"))?;
        if grad_y.dims() != xhat.dims() {
            return Err(TensorError::ShapeMismatch {
                op: "LayerNorm::backward",
                lhs: xhat.shape().to_string(),
                rhs: grad_y.shape().to_string(),
            });
        }
        let (m, d) = (grad_y.dims()[0], grad_y.dims()[1]);
        let mut grad_x = Tensor::zeros(grad_y.dims());
        for (i, &row_inv_std) in inv_stds.iter().enumerate().take(m) {
            let mut sum_g = 0.0f32;
            let mut sum_g_xhat = 0.0f32;
            for j in 0..d {
                let idx = i * d + j;
                let gxh = grad_y.data()[idx] * self.gamma.value.data()[j];
                sum_g += gxh;
                sum_g_xhat += gxh * xhat.data()[idx];
                self.gamma.grad.data_mut()[j] += grad_y.data()[idx] * xhat.data()[idx];
                self.beta.grad.data_mut()[j] += grad_y.data()[idx];
            }
            let k = row_inv_std / d as f32;
            for j in 0..d {
                let idx = i * d + j;
                let gxh = grad_y.data()[idx] * self.gamma.value.data()[j];
                grad_x.data_mut()[idx] =
                    k * (d as f32 * gxh - sum_g - xhat.data()[idx] * sum_g_xhat);
            }
        }
        Ok(grad_x)
    }

    /// Visits the layer's parameters.
    pub fn visit_params(&mut self, f: &mut dyn FnMut(&mut Parameter)) {
        f(&mut self.gamma);
        f(&mut self.beta);
    }

    /// Read-only parameter visit, in the same order as [`visit_params`].
    ///
    /// [`visit_params`]: LayerNorm::visit_params
    pub(crate) fn visit_params_ref(&self, f: &mut dyn FnMut(&Parameter)) {
        f(&self.gamma);
        f(&self.beta);
    }

    /// Drops cached activations.
    pub fn clear_cache(&mut self) {
        self.cache = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gmorph_tensor::rng::Rng;

    #[test]
    fn batchnorm_train_normalizes() {
        let mut rng = Rng::new(0);
        let mut bn = BatchNorm2d::new(3);
        let x = Tensor::randn(&[4, 3, 5, 5], 3.0, &mut rng).map(|v| v + 10.0);
        let y = bn.forward(&x, Mode::Train).unwrap();
        // Per-channel output mean ≈ 0, var ≈ 1.
        let plane = 25;
        for ch in 0..3 {
            let mut vals = Vec::new();
            for s in 0..4 {
                let base = (s * 3 + ch) * plane;
                vals.extend_from_slice(&y.data()[base..base + plane]);
            }
            let mean: f32 = vals.iter().sum::<f32>() / vals.len() as f32;
            let var: f32 =
                vals.iter().map(|&v| (v - mean) * (v - mean)).sum::<f32>() / vals.len() as f32;
            assert!(mean.abs() < 1e-4, "mean {mean}");
            assert!((var - 1.0).abs() < 1e-2, "var {var}");
        }
    }

    #[test]
    fn batchnorm_eval_uses_running_stats() {
        let mut bn = BatchNorm2d::new(1);
        bn.running_mean = Tensor::from_vec(&[1], vec![2.0]).unwrap();
        bn.running_var = Tensor::from_vec(&[1], vec![4.0]).unwrap();
        let x = Tensor::full(&[1, 1, 1, 1], 4.0);
        let y = bn.forward(&x, Mode::Eval).unwrap();
        // (4 - 2) / sqrt(4) = 1.
        assert!((y.data()[0] - 1.0).abs() < 1e-3);
    }

    #[test]
    fn batchnorm_gradcheck() {
        let mut rng = Rng::new(1);
        let mut bn = BatchNorm2d::new(2);
        bn.gamma.value = Tensor::from_vec(&[2], vec![1.5, 0.5]).unwrap();
        let x = Tensor::randn(&[2, 2, 3, 3], 1.0, &mut rng);
        // Use a non-uniform downstream gradient so dX is nontrivial
        // (sum-loss gradients through BN are ~0 by mean-invariance).
        let w = Tensor::randn(&[2 * 2 * 3 * 3], 1.0, &mut rng);
        let loss = |bn: &mut BatchNorm2d, x: &Tensor| -> f32 {
            bn.forward(x, Mode::Train)
                .unwrap()
                .data()
                .iter()
                .zip(w.data())
                .map(|(a, b)| a * b)
                .sum()
        };
        let y = bn.forward(&x, Mode::Train).unwrap();
        let g = Tensor::from_vec(y.dims(), w.data().to_vec()).unwrap();
        let gx = bn.backward(&g).unwrap();
        let eps = 1e-2f32;
        for &flat in &[0usize, 7, 19, 35] {
            let mut xp = x.clone();
            xp.data_mut()[flat] += eps;
            let mut xm = x.clone();
            xm.data_mut()[flat] -= eps;
            let mut b2 = bn.clone();
            let num = (loss(&mut b2, &xp) - loss(&mut b2, &xm)) / (2.0 * eps);
            assert!(
                (num - gx.data()[flat]).abs() < 0.05,
                "dX[{flat}]: {num} vs {}",
                gx.data()[flat]
            );
        }
    }

    #[test]
    fn layernorm_normalizes_rows() {
        let mut rng = Rng::new(2);
        let mut ln = LayerNorm::new(16);
        let x = Tensor::randn(&[4, 16], 5.0, &mut rng);
        let y = ln.forward(&x, Mode::Eval).unwrap();
        for i in 0..4 {
            let row = &y.data()[i * 16..(i + 1) * 16];
            let mean: f32 = row.iter().sum::<f32>() / 16.0;
            let var: f32 = row.iter().map(|&v| (v - mean) * (v - mean)).sum::<f32>() / 16.0;
            assert!(mean.abs() < 1e-4);
            assert!((var - 1.0).abs() < 1e-2);
        }
    }

    #[test]
    fn layernorm_gradcheck() {
        let mut rng = Rng::new(3);
        let mut ln = LayerNorm::new(5);
        ln.gamma.value = Tensor::randn(&[5], 0.3, &mut rng).map(|v| v + 1.0);
        let x = Tensor::randn(&[2, 5], 1.0, &mut rng);
        let w = Tensor::randn(&[10], 1.0, &mut rng);
        let y = ln.forward(&x, Mode::Train).unwrap();
        let g = Tensor::from_vec(y.dims(), w.data().to_vec()).unwrap();
        let gx = ln.backward(&g).unwrap();
        let eps = 1e-3f32;
        let loss = |ln: &mut LayerNorm, x: &Tensor| -> f32 {
            ln.forward(x, Mode::Eval)
                .unwrap()
                .data()
                .iter()
                .zip(w.data())
                .map(|(a, b)| a * b)
                .sum()
        };
        for flat in 0..10 {
            let mut xp = x.clone();
            xp.data_mut()[flat] += eps;
            let mut xm = x.clone();
            xm.data_mut()[flat] -= eps;
            let mut l2 = ln.clone();
            let num = (loss(&mut l2, &xp) - loss(&mut l2, &xm)) / (2.0 * eps);
            assert!(
                (num - gx.data()[flat]).abs() < 0.02,
                "dX[{flat}]: {num} vs {}",
                gx.data()[flat]
            );
        }
    }

    #[test]
    fn rejects_wrong_shapes() {
        let mut bn = BatchNorm2d::new(3);
        assert!(bn
            .forward(&Tensor::zeros(&[1, 2, 4, 4]), Mode::Eval)
            .is_err());
        assert!(bn.backward(&Tensor::zeros(&[1, 3, 4, 4])).is_err());
        let mut ln = LayerNorm::new(4);
        assert!(ln.forward(&Tensor::zeros(&[2, 5]), Mode::Eval).is_err());
    }
}
