//! The optimizer.
//!
//! The paper fine-tunes with Adam (§6.1). Optimizer state (moments) lives
//! inside each [`Parameter`], so the optimizer object itself is a small
//! configuration struct that can be shared across candidates.

use crate::param::Parameter;

/// Adam (Kingma & Ba), as used by the paper for fine-tuning.
#[derive(Debug, Clone)]
pub struct Optim {
    /// Learning rate.
    lr: f32,
    /// First-moment decay.
    beta1: f32,
    /// Second-moment decay.
    beta2: f32,
    /// Numerical-stability epsilon.
    eps: f32,
    /// Step counter for bias correction.
    t: u64,
}

impl Optim {
    /// Standard Adam configuration at a given learning rate.
    pub fn adam(lr: f32) -> Self {
        Optim {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            t: 0,
        }
    }

    /// Advances the step counter; call once per batch before updates.
    pub fn begin_step(&mut self) {
        self.t += 1;
    }

    /// Applies the update rule to one parameter and zeroes its gradient.
    pub fn update(&self, p: &mut Parameter) {
        let Optim {
            lr,
            beta1,
            beta2,
            eps,
            t,
        } = *self;
        let t = t.max(1) as f32;
        let bc1 = 1.0 - beta1.powf(t);
        let bc2 = 1.0 - beta2.powf(t);
        for i in 0..p.value.numel() {
            let g = p.grad.data()[i];
            let m = beta1 * p.m.data()[i] + (1.0 - beta1) * g;
            let v = beta2 * p.v.data()[i] + (1.0 - beta2) * g * g;
            p.m.data_mut()[i] = m;
            p.v.data_mut()[i] = v;
            let mhat = m / bc1;
            let vhat = v / bc2;
            p.value.data_mut()[i] -= lr * mhat / (vhat.sqrt() + eps);
        }
        p.zero_grad();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gmorph_tensor::Tensor;

    /// Minimizes f(x) = (x - 3)^2 and checks convergence.
    fn minimize(mut opt: Optim, steps: usize) -> f32 {
        let mut p = Parameter::new(Tensor::full(&[1], 10.0));
        for _ in 0..steps {
            let x = p.value.data()[0];
            p.grad.data_mut()[0] = 2.0 * (x - 3.0);
            opt.begin_step();
            opt.update(&mut p);
        }
        p.value.data()[0]
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let x = minimize(Optim::adam(0.3), 300);
        assert!((x - 3.0).abs() < 1e-2, "x = {x}");
    }

    #[test]
    fn update_zeroes_gradient() {
        let mut p = Parameter::new(Tensor::zeros(&[2]));
        p.grad = Tensor::ones(&[2]);
        let mut opt = Optim::adam(0.01);
        opt.begin_step();
        opt.update(&mut p);
        assert_eq!(p.grad.sum(), 0.0);
    }
}
