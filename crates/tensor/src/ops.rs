//! Activation functions, softmax, and small reductions.
//!
//! Elementwise ops on large tensors and the row loops of the softmax family
//! run across the shared worker pool ([`crate::engine`]). Chunk boundaries
//! depend only on tensor shape and every element is written by exactly one
//! chunk, so results are bit-identical across thread counts.
//!
//! GELU calls no libm function. Its `exp` is in-tree and branch-free, built
//! from IEEE mul, add, div, compares and integer bit operations only, so
//! LLVM vectorizes it inside every kernel loop that applies it, and its
//! bits depend neither on the platform's libm nor on which SIMD instance
//! ([`crate::simd`]) or thread count ran it.

use crate::engine;
use crate::simd;
use crate::tensor::Tensor;
use crate::{Result, TensorError};

/// Below this element count the per-call pool dispatch outweighs the win.
const PAR_MIN: usize = 1 << 16;

/// Elements per parallel chunk for flat elementwise traversals.
const CHUNK: usize = 1 << 13;

/// Runs the in-place slice kernel `k` over a copy of `x`, in chunks on the
/// pool when the tensor is large enough.
fn par_unary(x: &Tensor, k: impl Fn(&mut [f32]) + Sync) -> Tensor {
    let mut out = x.clone();
    if x.numel() < PAR_MIN {
        k(out.data_mut());
    } else {
        engine::parallel_chunks_mut(out.data_mut(), CHUNK, |_ci, chunk| k(chunk));
    }
    out
}

/// Runs the slice kernel `k(a_chunk, b_chunk)` over a copy of `a` and the
/// matching elements of the same-shaped `b`, in chunks on the pool when
/// large.
fn par_zip(a: &Tensor, b: &Tensor, k: impl Fn(&mut [f32], &[f32]) + Sync) -> Result<Tensor> {
    a.check_same_shape(b, "zip")?;
    let mut out = a.clone();
    let bd = b.data();
    if a.numel() < PAR_MIN {
        k(out.data_mut(), bd);
    } else {
        engine::parallel_chunks_mut(out.data_mut(), CHUNK, |ci, chunk| {
            let off = ci * CHUNK;
            k(chunk, &bd[off..off + chunk.len()]);
        });
    }
    Ok(out)
}

/// An activation a fused kernel epilogue can apply while writing output.
///
/// Each variant uses the *same scalar function* as the standalone
/// elementwise pass ([`relu_forward`] / [`gelu_forward`]), so fusing it
/// into a GEMM or convolution write loop is bit-identical to running the
/// separate pass afterwards.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Activation {
    /// Identity: the epilogue applies only the bias (if any).
    #[default]
    None,
    /// `max(x, 0)`.
    Relu,
    /// GELU, tanh approximation ([`gelu_forward`]).
    Gelu,
}

impl Activation {
    /// Applies the activation to one value. Always inlined, so the scalar
    /// body is compiled into each SIMD instance of the kernel that calls it.
    #[inline(always)]
    pub(crate) fn apply(self, v: f32) -> f32 {
        match self {
            Activation::None => v,
            Activation::Relu => v.max(0.0),
            Activation::Gelu => gelu_scalar(v),
        }
    }
}

/// ReLU forward: `max(x, 0)`.
pub fn relu_forward(x: &Tensor) -> Tensor {
    par_unary(x, |vs| {
        for v in vs {
            *v = v.max(0.0);
        }
    })
}

/// ReLU backward: gradient flows where the *input* was positive.
pub fn relu_backward(grad_out: &Tensor, input: &Tensor) -> Result<Tensor> {
    par_zip(grad_out, input, |gs, xs| {
        for (g, &x) in gs.iter_mut().zip(xs) {
            *g = if x > 0.0 { *g } else { 0.0 };
        }
    })
}

/// GELU forward (tanh approximation, as used by ViT/BERT):
/// `0.5·x·(1 + tanh(u))` with `u = √(2/π)·(x + 0.044715·x³)`, computed in
/// the identical sigmoid form `x / (1 + e^(−2u))` (see [`gelu_scalar`]).
pub fn gelu_forward(x: &Tensor) -> Tensor {
    par_unary(x, gelu_slice)
}

/// GELU backward: `g · gelu'(x)` (see [`gelu_grad_scalar`]).
pub fn gelu_backward(grad_out: &Tensor, input: &Tensor) -> Result<Tensor> {
    par_zip(grad_out, input, gelu_grad_slice)
}

simd::dispatch! {
    /// `v ← gelu(v)` over a slice.
    fn gelu_slice(vs: &mut [f32]) {
        for v in vs {
            *v = gelu_scalar(*v);
        }
    }
}

simd::dispatch! {
    /// `g ← g · gelu'(x)` over a slice and the matching inputs.
    fn gelu_grad_slice(gs: &mut [f32], xs: &[f32]) {
        for (g, &x) in gs.iter_mut().zip(xs) {
            *g *= gelu_grad_scalar(x);
        }
    }
}

/// `√(2/π)`.
const GELU_C: f32 = 0.797_884_6;
/// The cubic coefficient of GELU's tanh approximation.
const GELU_A: f32 = 0.044_715;

/// GELU's tanh argument `u = √(2/π)·(x + 0.044715·x³)`.
#[inline(always)]
fn gelu_u(x: f32) -> f32 {
    GELU_C * (x + GELU_A * x * x * x)
}

/// GELU of one value: `0.5·x·(1 + tanh(u)) = x·σ(2u) = x / (1 + e^(−2u))`.
///
/// The sigmoid form has no `1 + tanh(u)` cancellation for negative `x`.
/// Against an f64 evaluation of `x·σ(2u)` its absolute error is below 1e-6
/// on [−10, 10] and its relative error within 32 ulp on [−3, 10] (the
/// `ops` tests check both). Non-finite and huge inputs fall out of [`exp`]'s
/// selects: `NaN → NaN`, `+∞ → +∞`, `−∞ → NaN`, `x ≥ 1e30 → x` and
/// `x ≤ −1e30 → −0`; `−0` keeps its sign.
#[inline(always)]
fn gelu_scalar(x: f32) -> f32 {
    x / (1.0 + exp(-2.0 * gelu_u(x)))
}

/// GELU's derivative at one value: with `s = σ(2u)`,
/// `d/dx [x·s] = s + 2x·s(1 − s)·u'` and `u' = √(2/π)·(1 + 3·0.044715·x²)`.
#[inline(always)]
fn gelu_grad_scalar(x: f32) -> f32 {
    let e = exp(-2.0 * gelu_u(x));
    let s = 1.0 / (1.0 + e);
    // 1 − s. Where s > 1/2 it is e·s, which keeps the digits that 1 − s
    // would cancel; where e overflows, e·s would be ∞·0.
    let sc = if e < 1.0 { e * s } else { 1.0 - s };
    let du = GELU_C * (1.0 + 3.0 * GELU_A * x * x);
    s + 2.0 * x * s * sc * du
}

/// `e^t` in f32 from exact IEEE operations only (mul, add, compare, integer
/// bit operations), so it vectorizes and every build computes the same
/// bits. Within 3 ulp of `e^t` wherever the result is a normal float.
///
/// Cody–Waite reduction `t = k·ln 2 + r` with `|r| ≤ ln 2 / 2`, a degree-6
/// polynomial `e^r ≈ 1 + r + r²·P(r)` (Chebyshev fit of `P`, relative error
/// about 1e-8 before rounding), and `2^k` assembled in the exponent field.
/// Above 88.37 the result is `+∞` (`2^k` would need `k = 128`), below
/// −87.34 ≈ `ln(f32::MIN_POSITIVE)` it is 0; both are selects, not
/// branches, and a NaN `t` passes through both to the result.
#[inline(always)]
fn exp(t: f32) -> f32 {
    // 1.5·2²³ + 127. Adding it rounds t·log₂e to the nearest integer k and
    // leaves k + 127, the biased exponent of 2^k, in the low mantissa bits.
    const SHIFT: f32 = 12_583_039.0;
    // ln 2 in two parts; LN2_HI has 9 significant bits, so k·LN2_HI is
    // exact for |k| ≤ 128.
    const LN2_HI: f32 = 0.693_359_4;
    const LN2_LO: f32 = -2.121_944_4e-4;
    const P: [f32; 5] = [
        0.5,
        0.166_665_73,
        0.041_666_55,
        0.008_363_774,
        0.001_392_692_7,
    ];
    const HI: f32 = 88.37;
    const LO: f32 = -87.336_55;
    let s = t * std::f32::consts::LOG2_E + SHIFT;
    let k = s - SHIFT;
    let r = (t - k * LN2_HI) - k * LN2_LO;
    let p = (((P[4] * r + P[3]) * r + P[2]) * r + P[1]) * r + P[0];
    let er = r * r * p + r + 1.0;
    let y = er * f32::from_bits(s.to_bits() << 23);
    if t > HI {
        f32::INFINITY
    } else if t < LO {
        0.0
    } else {
        y
    }
}

/// Row-wise softmax over the last dimension of a rank-2 tensor.
///
/// Numerically stabilized by subtracting the row max.
///
/// # Examples
///
/// ```
/// use gmorph_tensor::{Tensor, ops::softmax_rows};
///
/// let x = Tensor::from_vec(&[1, 3], vec![1.0, 2.0, 3.0]).unwrap();
/// let p = softmax_rows(&x).unwrap();
/// assert!((p.sum() - 1.0).abs() < 1e-5);
/// ```
pub fn softmax_rows(x: &Tensor) -> Result<Tensor> {
    if x.shape().rank() != 2 {
        return Err(TensorError::RankMismatch {
            op: "softmax_rows",
            expected: 2,
            actual: x.shape().rank(),
        });
    }
    let (n, c) = (x.dims()[0], x.dims()[1]);
    let mut out = x.clone();
    let do_row = |row: &mut [f32]| {
        let m = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let mut sum = 0.0f32;
        for v in row.iter_mut() {
            *v = (*v - m).exp();
            sum += *v;
        }
        let inv = 1.0 / sum;
        for v in row.iter_mut() {
            *v *= inv;
        }
    };
    if n * c < PAR_MIN {
        for row in out.data_mut().chunks_mut(c) {
            do_row(row);
        }
    } else {
        engine::parallel_chunks_mut(out.data_mut(), c, |_i, row| do_row(row));
    }
    Ok(out)
}

/// Backward pass of row-wise softmax given its output `p` and `dL/dp`.
///
/// Uses the Jacobian-vector product `dL/dx_j = p_j (g_j - Σ_i g_i p_i)`.
pub fn softmax_rows_backward(grad_out: &Tensor, output: &Tensor) -> Result<Tensor> {
    if grad_out.dims() != output.dims() {
        return Err(TensorError::ShapeMismatch {
            op: "softmax_rows_backward",
            lhs: grad_out.shape().to_string(),
            rhs: output.shape().to_string(),
        });
    }
    let (n, c) = (output.dims()[0], output.dims()[1]);
    let mut gi = Tensor::zeros(output.dims());
    let do_row = |i: usize, row: &mut [f32]| {
        let p = &output.data()[i * c..(i + 1) * c];
        let g = &grad_out.data()[i * c..(i + 1) * c];
        let dot: f32 = p.iter().zip(g.iter()).map(|(a, b)| a * b).sum();
        for j in 0..c {
            row[j] = p[j] * (g[j] - dot);
        }
    };
    if n * c < PAR_MIN {
        for (i, row) in gi.data_mut().chunks_mut(c).enumerate() {
            do_row(i, row);
        }
    } else {
        engine::parallel_chunks_mut(gi.data_mut(), c, do_row);
    }
    Ok(gi)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;

    fn numerical_check(fwd: impl Fn(&Tensor) -> Tensor, bwd: impl Fn(&Tensor, &Tensor) -> Tensor) {
        let mut rng = Rng::new(5);
        let x = Tensor::randn(&[8], 1.0, &mut rng);
        let ana = bwd(&Tensor::ones(&[8]), &x);
        let eps = 1e-3;
        for i in 0..8 {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let mut xm = x.clone();
            xm.data_mut()[i] -= eps;
            let num = (fwd(&xp).sum() - fwd(&xm).sum()) / (2.0 * eps);
            assert!(
                (num - ana.data()[i]).abs() < 2e-2,
                "grad[{i}]: {num} vs {}",
                ana.data()[i]
            );
        }
    }

    #[test]
    fn relu_grad_checks() {
        numerical_check(relu_forward, |g, x| relu_backward(g, x).unwrap());
    }

    #[test]
    fn gelu_grad_checks() {
        numerical_check(gelu_forward, |g, x| gelu_backward(g, x).unwrap());
    }

    /// `(gelu(x), gelu'(x))` of the tanh approximation in f64, as `x·σ(2u)`.
    fn gelu_f64(x: f64) -> (f64, f64) {
        let c = (2.0 / std::f64::consts::PI).sqrt();
        let u = c * (x + 0.044715 * x * x * x);
        let s = 1.0 / (1.0 + (-2.0 * u).exp());
        let du = c * (1.0 + 3.0 * 0.044715 * x * x);
        (x * s, s + 2.0 * x * s * (1.0 - s) * du)
    }

    /// `|got − want|` in units of the f32 spacing at `want`.
    fn ulps(got: f32, want: f64) -> f64 {
        let spacing = (want.abs() as f32).max(f32::MIN_POSITIVE);
        let spacing = f32::from_bits(spacing.to_bits() & 0x7f80_0000) as f64 * f32::EPSILON as f64;
        (got as f64 - want).abs() / spacing
    }

    #[test]
    fn gelu_is_within_its_error_bounds_on_a_dense_sweep() {
        let (mut fwd_abs, mut fwd_ulp, mut grad_abs) = (0.0f64, 0.0f64, 0.0f64);
        let step = 3.7e-5;
        for i in 0..=(20.0 / step) as usize {
            let x = (-10.0 + i as f64 * step) as f32;
            let (want, want_grad) = gelu_f64(x as f64);
            let got = gelu_scalar(x);
            fwd_abs = fwd_abs.max((got as f64 - want).abs());
            if x >= -3.0 {
                fwd_ulp = fwd_ulp.max(ulps(got, want));
            }
            grad_abs = grad_abs.max((gelu_grad_scalar(x) as f64 - want_grad).abs());
        }
        assert!(fwd_abs <= 1e-6, "forward absolute error {fwd_abs:e}");
        assert!(fwd_ulp <= 32.0, "forward error on [-3, 10]: {fwd_ulp} ulp");
        assert!(grad_abs <= 5e-6, "derivative absolute error {grad_abs:e}");
    }

    #[test]
    fn exp_is_within_3_ulp_where_normal() {
        let mut worst = 0.0f64;
        for i in 0..=1_000_000 {
            let t = (-87.0 + i as f64 * 175.0e-6) as f32;
            worst = worst.max(ulps(exp(t), (t as f64).exp()));
        }
        assert!(worst <= 3.0, "exp error {worst} ulp");
    }

    #[test]
    fn gelu_edge_cases() {
        assert!(gelu_scalar(f32::NAN).is_nan());
        assert_eq!(gelu_scalar(f32::INFINITY), f32::INFINITY);
        assert!(!gelu_scalar(f32::NEG_INFINITY).is_finite());
        assert_eq!(gelu_scalar(1e30), 1e30);
        for x in [-1e30f32, -1e38] {
            let y = gelu_scalar(x);
            assert!(y == 0.0 && y.is_sign_negative(), "gelu({x}) = {y}");
        }
        let z = gelu_scalar(-0.0);
        assert!(z == 0.0 && z.is_sign_negative(), "gelu(-0) = {z}");
        assert_eq!(exp(100.0), f32::INFINITY);
        assert_eq!(exp(-100.0), 0.0);
        assert!(exp(f32::NAN).is_nan());
        assert_eq!(exp(0.0), 1.0);
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let mut rng = Rng::new(1);
        let x = Tensor::randn(&[4, 7], 3.0, &mut rng);
        let p = softmax_rows(&x).unwrap();
        for i in 0..4 {
            let s: f32 = p.data()[i * 7..(i + 1) * 7].iter().sum();
            assert!((s - 1.0).abs() < 1e-5);
        }
        for &v in p.data() {
            assert!(v >= 0.0);
        }
    }

    #[test]
    fn softmax_is_shift_invariant() {
        let x = Tensor::from_vec(&[1, 3], vec![1.0, 2.0, 3.0]).unwrap();
        let shifted = x.map(|v| v + 100.0);
        let a = softmax_rows(&x).unwrap();
        let b = softmax_rows(&shifted).unwrap();
        for (p, q) in a.data().iter().zip(b.data().iter()) {
            assert!((p - q).abs() < 1e-5);
        }
    }

    #[test]
    fn softmax_backward_grad_checks() {
        let mut rng = Rng::new(2);
        let x = Tensor::randn(&[2, 4], 1.0, &mut rng);
        let g = Tensor::randn(&[2, 4], 1.0, &mut rng);
        let p = softmax_rows(&x).unwrap();
        let gi = softmax_rows_backward(&g, &p).unwrap();
        let eps = 1e-3;
        let loss = |t: &Tensor| -> f32 {
            softmax_rows(t)
                .unwrap()
                .data()
                .iter()
                .zip(g.data())
                .map(|(a, b)| a * b)
                .sum()
        };
        for i in 0..8 {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let mut xm = x.clone();
            xm.data_mut()[i] -= eps;
            let num = (loss(&xp) - loss(&xm)) / (2.0 * eps);
            assert!(
                (num - gi.data()[i]).abs() < 1e-2,
                "{num} vs {}",
                gi.data()[i]
            );
        }
    }
}
