//! Trainable 2D convolution layer.

use super::missing_cache;
use crate::init;
use crate::param::Parameter;
use crate::Mode;
use gmorph_tensor::buffer;
use gmorph_tensor::conv::{
    conv2d_backward_input, conv2d_backward_params, conv2d_forward, conv2d_infer_act, Conv2dForward,
    Conv2dGeom,
};
use gmorph_tensor::ops::Activation;
use gmorph_tensor::rng::Rng;
use gmorph_tensor::{Result, Tensor};

/// A 2D convolution layer over NCHW tensors.
#[derive(Debug, Clone)]
pub struct Conv2d {
    /// Filter bank `[C_out, C_in, K, K]`.
    pub weight: Parameter,
    /// Per-output-channel bias `[C_out]`.
    pub bias: Parameter,
    /// Kernel/stride/padding geometry.
    pub geom: Conv2dGeom,
    cache: Option<(Conv2dForward, Vec<usize>)>,
}

impl Conv2d {
    /// Creates a layer with Kaiming-normal filters and zero bias.
    pub fn new(
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        stride: usize,
        padding: usize,
        rng: &mut Rng,
    ) -> Result<Self> {
        let geom = Conv2dGeom::new(kernel, stride, padding)?;
        let fan_in = in_channels * kernel * kernel;
        Ok(Conv2d {
            weight: Parameter::new(init::kaiming_normal(
                &[out_channels, in_channels, kernel, kernel],
                fan_in,
                rng,
            )),
            bias: Parameter::new(Tensor::zeros(&[out_channels])),
            geom,
            cache: None,
        })
    }

    /// Input channel count.
    pub(crate) fn in_channels(&self) -> usize {
        self.weight.value.dims()[1]
    }

    /// Output channel count.
    pub fn out_channels(&self) -> usize {
        self.weight.value.dims()[0]
    }

    /// Forward pass over `[N, C_in, H, W]`.
    pub fn forward(&mut self, x: &Tensor, mode: Mode) -> Result<Tensor> {
        if mode == Mode::Eval {
            return self.infer(x, Activation::None);
        }
        // Recycle last iteration's columns before this forward checks out
        // its own: the same-sized buffer comes straight back, so
        // steady-state epochs neither allocate nor park a second set of
        // columns in the pool.
        self.clear_cache();
        let mut fwd = conv2d_forward(x, &self.weight.value, Some(&self.bias.value), self.geom)?;
        // Backward only needs the cached im2col columns, not the output:
        // move the output out instead of cloning it.
        let out = std::mem::replace(&mut fwd.output, Tensor::zeros(&[0]));
        self.cache = Some((fwd, x.dims().to_vec()));
        Ok(out)
    }

    /// Eval forward with `act` applied in the conv epilogue, after the
    /// bias. Caches nothing.
    pub fn infer(&self, x: &Tensor, act: Activation) -> Result<Tensor> {
        let (w, b) = (&self.weight.value, Some(&self.bias.value));
        conv2d_infer_act(x, w, b, self.geom, act)
    }

    /// Backward pass: accumulates filter/bias gradients and returns dX.
    pub fn backward(&mut self, grad_y: &Tensor) -> Result<Tensor> {
        let gx = self.backward_with(grad_y, true)?;
        Ok(gx.expect("input gradient requested"))
    }

    /// Backward pass that accumulates filter/bias gradients and computes
    /// dX (its GEMM and col2im) only when `input_grad` is set. The
    /// parameter gradients do not depend on it.
    pub fn backward_with(&mut self, grad_y: &Tensor, input_grad: bool) -> Result<Option<Tensor>> {
        let (fwd, input_dims) = self
            .cache
            .as_ref()
            .ok_or_else(|| missing_cache("Conv2d::backward"))?;
        let w = &self.weight.value;
        let (gw, gb) = conv2d_backward_params(grad_y, w, input_dims, fwd, self.geom)?;
        let gx = if input_grad {
            Some(conv2d_backward_input(grad_y, w, input_dims, self.geom)?)
        } else {
            None
        };
        self.weight.accumulate(&gw)?;
        self.bias.accumulate(&gb)?;
        Ok(gx)
    }

    /// Visits the layer's parameters.
    pub fn visit_params(&mut self, f: &mut dyn FnMut(&mut Parameter)) {
        f(&mut self.weight);
        f(&mut self.bias);
    }

    /// Read-only parameter visit, in the same order as [`visit_params`].
    ///
    /// [`visit_params`]: Conv2d::visit_params
    pub(crate) fn visit_params_ref(&self, f: &mut dyn FnMut(&Parameter)) {
        f(&self.weight);
        f(&self.bias);
    }

    /// Drops cached activations, recycling the im2col columns.
    pub fn clear_cache(&mut self) {
        if let Some((old, _)) = self.cache.take() {
            buffer::recycle(old.cols);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_shapes() {
        let mut rng = Rng::new(0);
        let mut c = Conv2d::new(3, 8, 3, 1, 1, &mut rng).unwrap();
        let x = Tensor::ones(&[2, 3, 8, 8]);
        let y = c.forward(&x, Mode::Eval).unwrap();
        assert_eq!(y.dims(), &[2, 8, 8, 8]);
        assert!(c.forward(&Tensor::ones(&[2, 4, 8, 8]), Mode::Eval).is_err());
    }

    #[test]
    fn strided_conv_halves_spatial() {
        let mut rng = Rng::new(0);
        let mut c = Conv2d::new(4, 8, 3, 2, 1, &mut rng).unwrap();
        let y = c.forward(&Tensor::ones(&[1, 4, 8, 8]), Mode::Eval).unwrap();
        assert_eq!(y.dims(), &[1, 8, 4, 4]);
    }

    #[test]
    fn end_to_end_gradient_check() {
        let mut rng = Rng::new(3);
        let mut c = Conv2d::new(2, 3, 3, 1, 1, &mut rng).unwrap();
        let x = Tensor::randn(&[1, 2, 4, 4], 1.0, &mut rng);
        let y = c.forward(&x, Mode::Train).unwrap();
        let gx = c.backward(&Tensor::ones(y.dims())).unwrap();

        let eps = 1e-2f32;
        for &flat in &[0usize, 9, 23] {
            let mut cp = c.clone();
            cp.weight.value.data_mut()[flat] += eps;
            let mut cm = c.clone();
            cm.weight.value.data_mut()[flat] -= eps;
            let num = (cp.forward(&x, Mode::Eval).unwrap().sum()
                - cm.forward(&x, Mode::Eval).unwrap().sum())
                / (2.0 * eps);
            assert!((num - c.weight.grad.data()[flat]).abs() < 0.05);
        }
        for &flat in &[0usize, 13, 31] {
            let mut xp = x.clone();
            xp.data_mut()[flat] += eps;
            let mut xm = x.clone();
            xm.data_mut()[flat] -= eps;
            let mut c2 = c.clone();
            let num = (c2.forward(&xp, Mode::Eval).unwrap().sum()
                - c2.forward(&xm, Mode::Eval).unwrap().sum())
                / (2.0 * eps);
            assert!((num - gx.data()[flat]).abs() < 0.05);
        }
    }
}
