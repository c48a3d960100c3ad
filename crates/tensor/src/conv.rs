//! 2D convolution via im2col + GEMM, with full backward passes.
//!
//! Layout is NCHW throughout. The lowering mirrors what cuDNN/PyTorch do on
//! the GPU: each input window becomes a column, and convolution becomes a
//! GEMM against the `[C_out, C_in·K·K]` weight matrix. The lowering is
//! batched: one call packs the weight once and runs the GEMM microkernel
//! over every sample's columns where they lie (`gemm::PackedLhs`), for the
//! forward pass (`W · col`) and for dX (`Wᵀ · dY`, then col2im); dW is one
//! batched reduction (`gemm::matmul_nt_batch_sum`). The columns of the
//! whole batch live in one `[N, C_in·K·K, OH·OW]` tensor that the backward
//! pass reuses.
//!
//! Samples are dispatched across the shared worker pool ([`crate::engine`]),
//! and every output element keeps one fixed accumulation order, so results
//! are bit-identical at any thread count — and to a per-sample lowering:
//!
//! - each GEMM element sums over its depth in ascending order from zero,
//!   split into `KC = 256`-deep blocks exactly where the per-sample GEMM
//!   dispatch would take its blocked path;
//! - dW is summed per sample first, then across samples in ascending order;
//! - col2im adds each pixel's contributions in `(ky, kx)` order.

use crate::buffer;
use crate::engine;
use crate::gemm;
use crate::ops::Activation;
use crate::simd;
use crate::tensor::Tensor;
use crate::{Result, TensorError};

/// Convolution geometry: kernel size, stride, and zero padding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Conv2dGeom {
    /// Kernel height and width (square kernels only).
    pub kernel: usize,
    /// Stride in both spatial dimensions.
    pub stride: usize,
    /// Zero padding in both spatial dimensions.
    pub padding: usize,
}

impl Conv2dGeom {
    /// Creates a geometry, validating that the kernel and stride are nonzero.
    pub fn new(kernel: usize, stride: usize, padding: usize) -> Result<Self> {
        if kernel == 0 || stride == 0 {
            return Err(TensorError::InvalidArgument {
                op: "Conv2dGeom::new",
                msg: format!("kernel ({kernel}) and stride ({stride}) must be nonzero"),
            });
        }
        Ok(Conv2dGeom {
            kernel,
            stride,
            padding,
        })
    }

    /// Output spatial size for an input spatial size.
    ///
    /// Returns an error if the padded input is smaller than the kernel.
    pub fn out_size(&self, in_size: usize) -> Result<usize> {
        let padded = in_size + 2 * self.padding;
        if padded < self.kernel {
            return Err(TensorError::InvalidArgument {
                op: "Conv2dGeom::out_size",
                msg: format!(
                    "input {in_size} + 2*{} smaller than kernel {}",
                    self.padding, self.kernel
                ),
            });
        }
        Ok((padded - self.kernel) / self.stride + 1)
    }

    /// Output positions `lo..hi` (out of `out`) whose input coordinate
    /// `o * stride + offset - padding` lies inside `0..size`; the rest read
    /// padding.
    fn valid_range(&self, offset: usize, size: usize, out: usize) -> (usize, usize) {
        let (s, p) = (self.stride, self.padding);
        let lo = p.saturating_sub(offset).div_ceil(s).min(out);
        let hi = if size + p > offset {
            ((size - 1 + p - offset) / s + 1).min(out)
        } else {
            0
        };
        (lo, hi.max(lo))
    }
}

/// One image's lowering: `c` input planes of `h x w`, the geometry, and
/// the `oh x ow` output grid.
#[derive(Clone, Copy)]
struct Lowering {
    c: usize,
    h: usize,
    w: usize,
    geom: Conv2dGeom,
    oh: usize,
    ow: usize,
}

/// Lowers one `[C, H, W]` image into a `[C*K*K, OH*OW]` column matrix,
/// writing every element: row interiors are copied whole and only the
/// positions that read padding are zeroed.
#[inline(always)]
fn im2col(lower: &Lowering, img: &[f32], col: &mut [f32]) {
    let Lowering {
        c,
        h,
        w,
        geom,
        oh,
        ow,
    } = *lower;
    let (k, s) = (geom.kernel, geom.stride);
    if h * w == 0 {
        // Every window lies entirely in the padding.
        col.fill(0.0);
        return;
    }
    let mut rows = col.chunks_exact_mut(oh * ow);
    for plane in img.chunks_exact(h * w).take(c) {
        for ky in 0..k {
            let (y_lo, y_hi) = geom.valid_range(ky, h, oh);
            for kx in 0..k {
                let (x_lo, x_hi) = geom.valid_range(kx, w, ow);
                let row = rows.next().expect("col holds C*K*K rows");
                row[..y_lo * ow].fill(0.0);
                row[y_hi * ow..].fill(0.0);
                if s == 1 && ow == w && y_lo < y_hi {
                    // Stride 1 and an output as wide as the input: the valid
                    // rows are one shifted copy of the plane. Copy them in
                    // one piece (a copy per output row costs more than the
                    // copying on these narrow maps), then zero the columns
                    // that read padding: the copy filled them from the
                    // neighbouring row, or left them unwritten at the ends.
                    let out = &mut row[y_lo * ow..y_hi * ow];
                    let shift = kx as isize - geom.padding as isize;
                    let start = ((y_lo + ky - geom.padding) * w) as isize + shift;
                    let lo = ((-start).max(0) as usize).min(out.len());
                    let end = (plane.len() as isize - start).max(0) as usize;
                    let hi = end.min(out.len());
                    if lo < hi {
                        let src = (start + lo as isize) as usize;
                        out[lo..hi].copy_from_slice(&plane[src..src + (hi - lo)]);
                    }
                    for x in (0..x_lo).chain(x_hi..ow) {
                        for v in out.iter_mut().skip(x).step_by(ow) {
                            *v = 0.0;
                        }
                    }
                    continue;
                }
                for oy in y_lo..y_hi {
                    let out = &mut row[oy * ow..(oy + 1) * ow];
                    out[..x_lo].fill(0.0);
                    out[x_hi..].fill(0.0);
                    if x_lo == x_hi {
                        continue;
                    }
                    let src = &plane[(oy * s + ky - geom.padding) * w..][..w];
                    let src = &src[x_lo * s + kx - geom.padding..];
                    let out = &mut out[x_lo..x_hi];
                    if s == 1 {
                        out.copy_from_slice(&src[..out.len()]);
                    } else {
                        for (o, v) in out.iter_mut().zip(src.iter().step_by(s)) {
                            *o = *v;
                        }
                    }
                }
            }
        }
    }
}

/// Scatters a `[C*K*K, OH*OW]` column matrix back into a zeroed `[C, H, W]`
/// image, accumulating overlapping contributions (the adjoint of im2col).
/// Each pixel receives its contributions in `(ky, kx)` order.
#[inline(always)]
fn col2im(lower: &Lowering, col: &[f32], img: &mut [f32]) {
    let Lowering {
        c,
        h,
        w,
        geom,
        oh,
        ow,
    } = *lower;
    let (k, s) = (geom.kernel, geom.stride);
    if h * w == 0 {
        return;
    }
    let mut rows = col.chunks_exact(oh * ow);
    for plane in img.chunks_exact_mut(h * w).take(c) {
        for ky in 0..k {
            let (y_lo, y_hi) = geom.valid_range(ky, h, oh);
            for kx in 0..k {
                let (x_lo, x_hi) = geom.valid_range(kx, w, ow);
                let row = rows.next().expect("col holds C*K*K rows");
                if x_lo == x_hi {
                    continue;
                }
                for oy in y_lo..y_hi {
                    let src = &row[oy * ow + x_lo..oy * ow + x_hi];
                    let dst = &mut plane[(oy * s + ky - geom.padding) * w..][..w];
                    let dst = &mut dst[x_lo * s + kx - geom.padding..];
                    if s == 1 {
                        for (d, v) in dst.iter_mut().zip(src) {
                            *d += v;
                        }
                    } else {
                        for (d, v) in dst.iter_mut().step_by(s).zip(src) {
                            *d += v;
                        }
                    }
                }
            }
        }
    }
}

simd::dispatch! {
    /// One sample of the forward lowering: im2col into `col`, `y = W · col`,
    /// then the fused epilogue (bias-add and activation on each channel row
    /// while it is hot, instead of separate passes over the output).
    fn forward_sample(
        lower: &Lowering,
        wmat: &gemm::PackedLhs,
        img: &[f32],
        bias: Option<&[f32]>,
        act: Activation,
        y: &mut [f32],
        col: &mut [f32],
    ) {
        im2col(lower, img, col);
        wmat.matmul_into(col, y);
        if bias.is_none() && act == Activation::None {
            return;
        }
        // Dispatch on the activation once, outside the element loop, so each
        // arm is a tight monomorphic pass.
        #[inline(always)]
        fn pass(y: &mut [f32], ncols: usize, bias: Option<&[f32]>, f: impl Fn(f32) -> f32) {
            for (co, row) in y.chunks_mut(ncols).enumerate() {
                let bv = bias.map_or(0.0, |b| b[co]);
                for v in row {
                    *v = f(*v + bv);
                }
            }
        }
        let ncols = lower.oh * lower.ow;
        match act {
            Activation::None => pass(y, ncols, bias, |v| v),
            Activation::Relu => pass(y, ncols, bias, |v| Activation::Relu.apply(v)),
            Activation::Gelu => pass(y, ncols, bias, |v| Activation::Gelu.apply(v)),
        }
    }
}

/// Result of a forward convolution, retaining what backward needs.
#[derive(Debug, Clone)]
pub struct Conv2dForward {
    /// The `[N, C_out, OH, OW]` output.
    pub output: Tensor,
    /// The batch's im2col matrices, `[N, C_in*K*K, OH*OW]`.
    pub cols: Tensor,
    /// Output spatial height.
    pub oh: usize,
    /// Output spatial width.
    pub ow: usize,
}

/// Computes a forward 2D convolution.
///
/// - `input`: `[N, C_in, H, W]`
/// - `weight`: `[C_out, C_in, K, K]`
/// - `bias`: `[C_out]` or `None`
///
/// # Examples
///
/// ```
/// use gmorph_tensor::{Tensor, conv::{conv2d_forward, Conv2dGeom}};
///
/// let x = Tensor::ones(&[1, 1, 3, 3]);
/// let w = Tensor::ones(&[1, 1, 3, 3]);
/// let geom = Conv2dGeom::new(3, 1, 1).unwrap();
/// let y = conv2d_forward(&x, &w, None, geom).unwrap();
/// assert_eq!(y.output.dims(), &[1, 1, 3, 3]);
/// // Center pixel sees all nine ones.
/// assert_eq!(y.output.at(&[0, 0, 1, 1]).unwrap(), 9.0);
/// ```
pub fn conv2d_forward(
    input: &Tensor,
    weight: &Tensor,
    bias: Option<&Tensor>,
    geom: Conv2dGeom,
) -> Result<Conv2dForward> {
    conv2d_forward_act(input, weight, bias, geom, Activation::None)
}

/// [`conv2d_forward`] with a fused epilogue: the activation is applied to
/// `v + bias` inside the per-channel output write loop instead of as a
/// separate elementwise pass over the output tensor.
///
/// Bit-identical to `conv2d_forward` followed by the corresponding
/// elementwise activation (the scalar sequence is the same).
pub fn conv2d_forward_act(
    input: &Tensor,
    weight: &Tensor,
    bias: Option<&Tensor>,
    geom: Conv2dGeom,
    act: Activation,
) -> Result<Conv2dForward> {
    let (output, cols) = forward_impl(input, weight, bias, geom, act, true)?;
    let (oh, ow) = (output.dims()[2], output.dims()[3]);
    Ok(Conv2dForward {
        output,
        cols: cols.expect("columns kept"),
        oh,
        ow,
    })
}

/// [`conv2d_forward_act`] for inference: returns only the output. Each
/// sample's columns live in a per-worker scratch buffer instead of a
/// batch-sized tensor kept for a backward pass. Bit-identical output.
pub fn conv2d_infer_act(
    input: &Tensor,
    weight: &Tensor,
    bias: Option<&Tensor>,
    geom: Conv2dGeom,
    act: Activation,
) -> Result<Tensor> {
    Ok(forward_impl(input, weight, bias, geom, act, false)?.0)
}

/// The batched forward lowering shared by [`conv2d_forward_act`] and
/// [`conv2d_infer_act`]; `keep_cols` chooses where the columns live.
fn forward_impl(
    input: &Tensor,
    weight: &Tensor,
    bias: Option<&Tensor>,
    geom: Conv2dGeom,
    act: Activation,
    keep_cols: bool,
) -> Result<(Tensor, Option<Tensor>)> {
    let start = gmorph_telemetry::enabled().then(std::time::Instant::now);
    if input.shape().rank() != 4 {
        return Err(TensorError::RankMismatch {
            op: "conv2d_forward input",
            expected: 4,
            actual: input.shape().rank(),
        });
    }
    let (n, c_in, h, w) = (
        input.dims()[0],
        input.dims()[1],
        input.dims()[2],
        input.dims()[3],
    );
    let (c_out, k) = check_weight(weight, c_in, geom, "conv2d_forward")?;
    let oh = geom.out_size(h)?;
    let ow = geom.out_size(w)?;
    if let Some(b) = bias {
        if b.dims() != [c_out] {
            return Err(TensorError::ShapeMismatch {
                op: "conv2d_forward bias",
                lhs: format!("[{c_out}]"),
                rhs: b.shape().to_string(),
            });
        }
    }

    if act != Activation::None {
        gmorph_telemetry::counter!("kernel.fused_dispatch");
    }
    let ckk = c_in * k * k;
    let ncols = oh * ow;
    let img_len = c_in * h * w;
    let out_len = c_out * ncols;
    let col_len = ckk * ncols;

    let wmat = gemm::PackedLhs::new(weight.data(), false, c_out, ckk, ncols);
    let lower = Lowering {
        c: c_in,
        h,
        w,
        geom,
        oh,
        ow,
    };
    let bias = bias.map(Tensor::data);
    // Samples are independent: each lowers its image, multiplies its
    // columns in place, and applies the epilogue while its output is hot.
    let sample = |s: usize, y: &mut [f32], col: &mut [f32]| {
        let img = &input.data()[s * img_len..(s + 1) * img_len];
        forward_sample(&lower, &wmat, img, bias, act, y, col);
    };
    // Every element of the output (and of the kept columns) is written
    // sample by sample, so storage can come from the pool without clearing.
    let mut out = buffer::take_uninit(n * out_len);
    let cols = if keep_cols {
        let mut cols = buffer::take_uninit(n * col_len);
        engine::parallel_chunk_pairs_mut(n, &mut out, out_len, &mut cols, col_len, sample);
        Some(Tensor::from_vec(&[n, ckk, ncols], cols)?)
    } else {
        if out_len > 0 {
            engine::parallel_chunks_mut(&mut out, out_len, |s, y| {
                let mut col = buffer::take_uninit(col_len);
                sample(s, y, &mut col);
                buffer::give(col);
            });
        }
        None
    };
    wmat.finish(n);
    if let Some(start) = start {
        let bucket = |d: usize| d.max(1).next_power_of_two();
        gmorph_telemetry::counter!("conv.calls");
        gmorph_telemetry::hist!(
            &format!(
                "conv.us.n{}c{}k{}o{}",
                bucket(n),
                bucket(c_out),
                geom.kernel,
                bucket(oh * ow)
            ),
            start.elapsed().as_nanos() as f64 / 1e3
        );
    }
    Ok((Tensor::from_vec(&[n, c_out, oh, ow], out)?, cols))
}

/// Validates a `[C_out, C_in, K, K]` filter bank against the input channel
/// count and geometry, returning `(C_out, K)`.
fn check_weight(
    weight: &Tensor,
    c_in: usize,
    geom: Conv2dGeom,
    op: &'static str,
) -> Result<(usize, usize)> {
    if weight.shape().rank() != 4 {
        return Err(TensorError::RankMismatch {
            op,
            expected: 4,
            actual: weight.shape().rank(),
        });
    }
    let d = weight.dims();
    if d[1] != c_in || d[2] != geom.kernel || d[3] != geom.kernel {
        return Err(TensorError::ShapeMismatch {
            op,
            lhs: format!("[_, {c_in}, {k}, {k}]", k = geom.kernel),
            rhs: weight.shape().to_string(),
        });
    }
    Ok((d[0], geom.kernel))
}

/// Gradients produced by a convolution backward pass.
#[derive(Debug, Clone)]
pub struct Conv2dGrads {
    /// Gradient with respect to the input, `[N, C_in, H, W]`.
    pub grad_input: Tensor,
    /// Gradient with respect to the weight, `[C_out, C_in, K, K]`.
    pub grad_weight: Tensor,
    /// Gradient with respect to the bias, `[C_out]`.
    pub grad_bias: Tensor,
}

/// Computes the backward pass of [`conv2d_forward`]: the parameter
/// gradients of [`conv2d_backward_params`] and the input gradient of
/// [`conv2d_backward_input`].
///
/// `grad_output` must have shape `[N, C_out, OH, OW]`; `forward` is the value
/// returned by the forward pass on the same input, and `geom` must be the
/// geometry used there. Inconsistent shapes (a wrong-rank input or weight,
/// or a forward cache from another batch size or geometry) are errors.
pub fn conv2d_backward_geom(
    grad_output: &Tensor,
    weight: &Tensor,
    input_dims: &[usize],
    forward: &Conv2dForward,
    geom: Conv2dGeom,
) -> Result<Conv2dGrads> {
    let (grad_weight, grad_bias) =
        conv2d_backward_params(grad_output, weight, input_dims, forward, geom)?;
    let grad_input = conv2d_backward_input(grad_output, weight, input_dims, geom)?;
    Ok(Conv2dGrads {
        grad_input,
        grad_weight,
        grad_bias,
    })
}

/// Validates a backward call's gradient, weight and input dims against each
/// other, returning `(N, C_out, lowering)`.
fn check_backward(
    grad_output: &Tensor,
    weight: &Tensor,
    input_dims: &[usize],
    geom: Conv2dGeom,
) -> Result<(usize, usize, Lowering)> {
    let &[n, c_in, h, w] = input_dims else {
        return Err(TensorError::RankMismatch {
            op: "conv2d_backward input",
            expected: 4,
            actual: input_dims.len(),
        });
    };
    let (c_out, _) = check_weight(weight, c_in, geom, "conv2d_backward weight")?;
    let (oh, ow) = (geom.out_size(h)?, geom.out_size(w)?);
    if grad_output.dims() != [n, c_out, oh, ow] {
        return Err(TensorError::ShapeMismatch {
            op: "conv2d_backward",
            lhs: format!("[{n}, {c_out}, {oh}, {ow}]"),
            rhs: grad_output.shape().to_string(),
        });
    }
    let lower = Lowering {
        c: c_in,
        h,
        w,
        geom,
        oh,
        ow,
    };
    Ok((n, c_out, lower))
}

/// The parameter gradients of a convolution, `(dW, db)` with dW shaped
/// `[C_out, C_in, K, K]` and db `[C_out]`, from the columns its forward
/// pass kept. Arguments as for [`conv2d_backward_geom`].
pub fn conv2d_backward_params(
    grad_output: &Tensor,
    weight: &Tensor,
    input_dims: &[usize],
    forward: &Conv2dForward,
    geom: Conv2dGeom,
) -> Result<(Tensor, Tensor)> {
    let (n, c_out, lower) = check_backward(grad_output, weight, input_dims, geom)?;
    let k = geom.kernel;
    let ckk = lower.c * k * k;
    let ncols = lower.oh * lower.ow;
    if (forward.oh, forward.ow) != (lower.oh, lower.ow) || forward.cols.dims() != [n, ckk, ncols] {
        return Err(TensorError::ShapeMismatch {
            op: "conv2d_backward forward cache",
            lhs: format!("[{n}, {ckk}, {ncols}]"),
            rhs: forward.cols.shape().to_string(),
        });
    }
    let god = grad_output.data();
    let go_len = c_out * ncols;

    // dW: per-sample dY · colᵀ, summed across samples in ascending order.
    let grad_weight = gemm::matmul_nt_batch_sum(god, forward.cols.data(), c_out, ncols, ckk, n)?;

    // db: per-sample row sums of dY, added in ascending sample order.
    let mut grad_bias = Tensor::zeros(&[c_out]);
    for go in god.chunks_exact(go_len.max(1)).take(n) {
        for (acc, row) in grad_bias.data_mut().iter_mut().zip(go.chunks_exact(ncols)) {
            *acc += row.iter().sum::<f32>();
        }
    }
    Ok((grad_weight.reshape(&[c_out, lower.c, k, k])?, grad_bias))
}

/// The input gradient of a convolution, `[N, C_in, H, W]`: `dCol = Wᵀ · dY`
/// per sample, scattered back through col2im. It needs no forward cache.
/// Arguments as for [`conv2d_backward_geom`].
pub fn conv2d_backward_input(
    grad_output: &Tensor,
    weight: &Tensor,
    input_dims: &[usize],
    geom: Conv2dGeom,
) -> Result<Tensor> {
    let (n, c_out, lower) = check_backward(grad_output, weight, input_dims, geom)?;
    let ckk = lower.c * geom.kernel * geom.kernel;
    let ncols = lower.oh * lower.ow;
    let god = grad_output.data();
    let go_len = c_out * ncols;
    let gi_len = lower.c * lower.h * lower.w;

    // The dCol scratch is taken per sample, so at most one per worker is
    // live. col2im accumulates, so grad_input starts zeroed.
    let mut grad_input = buffer::take(n * gi_len);
    let wt = gemm::PackedLhs::new(weight.data(), true, ckk, c_out, ncols);
    if gi_len > 0 {
        engine::parallel_chunks_mut(&mut grad_input, gi_len, |s, gi| {
            let mut gcol = buffer::take_uninit(ckk * ncols);
            let dy = &god[s * go_len..(s + 1) * go_len];
            input_grad_sample(&lower, &wt, dy, &mut gcol, gi);
            buffer::give(gcol);
        });
    }
    wt.finish(n);
    Tensor::from_vec(input_dims, grad_input)
}

simd::dispatch! {
    /// One sample of the input gradient: `gcol = Wᵀ · dy`, then col2im into
    /// the zeroed `gi`.
    fn input_grad_sample(
        lower: &Lowering,
        wt: &gemm::PackedLhs,
        dy: &[f32],
        gcol: &mut [f32],
        gi: &mut [f32],
    ) {
        wt.matmul_into(dy, gcol);
        col2im(lower, gcol, gi);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;

    /// Direct (non-lowered) convolution used as the reference.
    fn conv_ref(input: &Tensor, weight: &Tensor, geom: Conv2dGeom) -> Tensor {
        let (n, c_in, h, w) = (
            input.dims()[0],
            input.dims()[1],
            input.dims()[2],
            input.dims()[3],
        );
        let (c_out, _, k, _) = (
            weight.dims()[0],
            weight.dims()[1],
            weight.dims()[2],
            weight.dims()[3],
        );
        let oh = geom.out_size(h).unwrap();
        let ow = geom.out_size(w).unwrap();
        let mut out = Tensor::zeros(&[n, c_out, oh, ow]);
        for s in 0..n {
            for co in 0..c_out {
                for oy in 0..oh {
                    for ox in 0..ow {
                        let mut acc = 0.0;
                        for ci in 0..c_in {
                            for ky in 0..k {
                                for kx in 0..k {
                                    let iy =
                                        (oy * geom.stride + ky) as isize - geom.padding as isize;
                                    let ix =
                                        (ox * geom.stride + kx) as isize - geom.padding as isize;
                                    if iy < 0 || ix < 0 || iy as usize >= h || ix as usize >= w {
                                        continue;
                                    }
                                    acc += input.at(&[s, ci, iy as usize, ix as usize]).unwrap()
                                        * weight.at(&[co, ci, ky, kx]).unwrap();
                                }
                            }
                        }
                        let off = out.shape().offset(&[s, co, oy, ox]).unwrap();
                        out.data_mut()[off] = acc;
                    }
                }
            }
        }
        out
    }

    #[test]
    fn forward_matches_reference() {
        let mut rng = Rng::new(0);
        // (height, width, kernel, stride, padding): square and non-square
        // inputs, and maps narrower than the padding.
        let cases = [
            (6, 6, 3, 1, 1),
            (6, 6, 3, 2, 1),
            (6, 6, 3, 1, 0),
            (5, 7, 3, 1, 1),
            (4, 1, 5, 1, 2),
            (3, 1, 5, 1, 2),
            (1, 2, 5, 1, 2),
        ];
        for (h, wd, k, stride, padding) in cases {
            let geom = Conv2dGeom::new(k, stride, padding).unwrap();
            let x = Tensor::randn(&[2, 3, h, wd], 1.0, &mut rng);
            let w = Tensor::randn(&[4, 3, k, k], 0.5, &mut rng);
            let fast = conv2d_forward(&x, &w, None, geom).unwrap().output;
            let slow = conv_ref(&x, &w, geom);
            assert_eq!(fast.dims(), slow.dims());
            for (a, b) in fast.data().iter().zip(slow.data().iter()) {
                assert!((a - b).abs() < 1e-4, "{a} vs {b}");
            }
        }
    }

    #[test]
    fn im2col_writes_every_element() {
        let mut rng = Rng::new(12);
        // (height, width, kernel, stride, padding), as above plus 1×1.
        let cases = [
            (6, 6, 3, 1, 1),
            (6, 6, 3, 2, 1),
            (5, 7, 3, 1, 1),
            (4, 1, 5, 1, 2),
            (3, 1, 5, 1, 2),
            (1, 2, 5, 1, 2),
            (3, 3, 1, 1, 0),
        ];
        for (h, w, k, s, p) in cases {
            let geom = Conv2dGeom::new(k, s, p).unwrap();
            let (oh, ow) = (geom.out_size(h).unwrap(), geom.out_size(w).unwrap());
            let c = 2;
            let lower = Lowering {
                c,
                h,
                w,
                geom,
                oh,
                ow,
            };
            let img = Tensor::randn(&[c, h, w], 1.0, &mut rng);
            // NaN marks any element im2col leaves unwritten.
            let mut col = vec![f32::NAN; c * k * k * oh * ow];
            im2col(&lower, img.data(), &mut col);
            for (i, &v) in col.iter().enumerate() {
                let (row, pos) = (i / (oh * ow), i % (oh * ow));
                let (ci, ky, kx) = (row / (k * k), row / k % k, row % k);
                let iy = (pos / ow * s + ky) as isize - p as isize;
                let ix = (pos % ow * s + kx) as isize - p as isize;
                let inside = (0..h as isize).contains(&iy) && (0..w as isize).contains(&ix);
                let want = if inside {
                    img.data()[(ci * h + iy as usize) * w + ix as usize]
                } else {
                    0.0
                };
                assert_eq!(v.to_bits(), want.to_bits(), "{h}x{w} k{k} s{s} p{p} at {i}");
            }
        }
    }

    #[test]
    fn empty_image_reads_only_padding() {
        let geom = Conv2dGeom::new(1, 1, 1).unwrap();
        let x = Tensor::zeros(&[2, 3, 0, 0]);
        let w = Tensor::ones(&[2, 3, 1, 1]);
        let b = Tensor::from_vec(&[2], vec![0.5, -1.0]).unwrap();
        let fwd = conv2d_forward(&x, &w, Some(&b), geom).unwrap();
        assert_eq!(fwd.output.dims(), &[2, 2, 2, 2]);
        for (i, &v) in fwd.output.data().iter().enumerate() {
            assert_eq!(v, b.data()[(i / 4) % 2]);
        }
        let go = Tensor::ones(fwd.output.dims());
        let grads = conv2d_backward_geom(&go, &w, x.dims(), &fwd, geom).unwrap();
        assert_eq!(grads.grad_input.dims(), &[2, 3, 0, 0]);
        assert!(grads.grad_weight.data().iter().all(|&g| g == 0.0));
        assert_eq!(grads.grad_bias.data(), &[8.0, 8.0]);
    }

    #[test]
    fn bias_is_added_per_channel() {
        let geom = Conv2dGeom::new(1, 1, 0).unwrap();
        let x = Tensor::zeros(&[1, 1, 2, 2]);
        let w = Tensor::zeros(&[2, 1, 1, 1]);
        let b = Tensor::from_vec(&[2], vec![1.5, -2.0]).unwrap();
        let y = conv2d_forward(&x, &w, Some(&b), geom).unwrap().output;
        assert_eq!(y.at(&[0, 0, 0, 0]).unwrap(), 1.5);
        assert_eq!(y.at(&[0, 1, 1, 1]).unwrap(), -2.0);
    }

    #[test]
    fn out_size_math() {
        let g = Conv2dGeom::new(3, 1, 1).unwrap();
        assert_eq!(g.out_size(8).unwrap(), 8);
        let g = Conv2dGeom::new(3, 2, 1).unwrap();
        assert_eq!(g.out_size(8).unwrap(), 4);
        let g = Conv2dGeom::new(2, 2, 0).unwrap();
        assert_eq!(g.out_size(8).unwrap(), 4);
        let g = Conv2dGeom::new(5, 1, 0).unwrap();
        assert!(g.out_size(3).is_err());
    }

    #[test]
    fn rejects_invalid_geometry() {
        assert!(Conv2dGeom::new(0, 1, 0).is_err());
        assert!(Conv2dGeom::new(3, 0, 0).is_err());
    }

    #[test]
    fn forward_and_backward_identical_across_thread_counts() {
        let mut rng = Rng::new(11);
        let geom = Conv2dGeom::new(3, 1, 1).unwrap();
        let x = Tensor::randn(&[6, 3, 8, 8], 1.0, &mut rng);
        let w = Tensor::randn(&[4, 3, 3, 3], 0.5, &mut rng);
        let b = Tensor::randn(&[4], 0.1, &mut rng);

        let run = || {
            let fwd = conv2d_forward(&x, &w, Some(&b), geom).unwrap();
            let ones = Tensor::ones(fwd.output.dims());
            let grads = conv2d_backward_geom(&ones, &w, x.dims(), &fwd, geom).unwrap();
            (fwd.output, grads)
        };
        let (y1, g1) = crate::engine::with_thread_limit(1, run);
        let (y4, g4) = crate::engine::with_thread_limit(4, run);
        assert_eq!(y1.data(), y4.data(), "forward bit-identical");
        assert_eq!(g1.grad_input.data(), g4.grad_input.data());
        assert_eq!(g1.grad_weight.data(), g4.grad_weight.data());
        assert_eq!(g1.grad_bias.data(), g4.grad_bias.data());
    }

    /// A small valid forward pass plus what its backward needs.
    fn small_case() -> (Tensor, Tensor, Conv2dForward, Tensor, Conv2dGeom) {
        let mut rng = Rng::new(5);
        let geom = Conv2dGeom::new(3, 1, 1).unwrap();
        let x = Tensor::randn(&[2, 2, 4, 4], 1.0, &mut rng);
        let w = Tensor::randn(&[3, 2, 3, 3], 0.5, &mut rng);
        let fwd = conv2d_forward(&x, &w, None, geom).unwrap();
        let go = Tensor::ones(fwd.output.dims());
        (x, w, fwd, go, geom)
    }

    #[test]
    fn backward_rejects_wrong_rank_input_dims() {
        let (x, w, fwd, go, geom) = small_case();
        for dims in [&x.dims()[..3], &[2, 2, 4, 4, 1][..], &[][..]] {
            let err = conv2d_backward_geom(&go, &w, dims, &fwd, geom).unwrap_err();
            let rank_err = matches!(err, TensorError::RankMismatch { .. });
            assert!(rank_err, "{dims:?}: {err}");
        }
    }

    #[test]
    fn backward_rejects_wrong_weight() {
        let (x, w, fwd, go, geom) = small_case();
        let flat = w.reshape(&[3, 18]).unwrap();
        let err = conv2d_backward_geom(&go, &flat, x.dims(), &fwd, geom).unwrap_err();
        assert!(matches!(err, TensorError::RankMismatch { .. }), "{err}");
        let other_channels = Tensor::zeros(&[3, 1, 3, 3]);
        let err = conv2d_backward_geom(&go, &other_channels, x.dims(), &fwd, geom).unwrap_err();
        assert!(matches!(err, TensorError::ShapeMismatch { .. }), "{err}");
        let other_kernel = Tensor::zeros(&[3, 2, 1, 1]);
        let err = conv2d_backward_geom(&go, &other_kernel, x.dims(), &fwd, geom).unwrap_err();
        assert!(matches!(err, TensorError::ShapeMismatch { .. }), "{err}");
    }

    #[test]
    fn backward_rejects_forward_cache_of_another_batch() {
        let (x, w, _, _, geom) = small_case();
        // Cache from a one-sample forward, gradient and dims for two.
        let single = x.select_rows(&[0]).unwrap();
        let fwd1 = conv2d_forward(&single, &w, None, geom).unwrap();
        let go = Tensor::ones(&[2, 3, 4, 4]);
        let err = conv2d_backward_geom(&go, &w, x.dims(), &fwd1, geom).unwrap_err();
        assert!(matches!(err, TensorError::ShapeMismatch { .. }), "{err}");
        // And a cache from another geometry of the same batch.
        let strided = Conv2dGeom::new(3, 2, 1).unwrap();
        let fwd2 = conv2d_forward(&x, &w, None, strided).unwrap();
        let go2 = Tensor::ones(fwd2.output.dims());
        let err = conv2d_backward_geom(&go2, &w, x.dims(), &fwd2, geom).unwrap_err();
        assert!(matches!(err, TensorError::ShapeMismatch { .. }), "{err}");
    }

    #[test]
    fn infer_matches_forward_bitwise() {
        let mut rng = Rng::new(8);
        let x = Tensor::randn(&[3, 4, 7, 7], 1.0, &mut rng);
        let w = Tensor::randn(&[5, 4, 3, 3], 0.5, &mut rng);
        let b = Tensor::randn(&[5], 0.1, &mut rng);
        for (s, p) in [(2, 1), (1, 0)] {
            let geom = Conv2dGeom::new(3, s, p).unwrap();
            for act in [Activation::None, Activation::Relu, Activation::Gelu] {
                let fwd = conv2d_forward_act(&x, &w, Some(&b), geom, act).unwrap();
                let inf = conv2d_infer_act(&x, &w, Some(&b), geom, act).unwrap();
                assert_eq!(fwd.output.data(), inf.data(), "{geom:?} {act:?}");
            }
        }
    }

    #[test]
    fn backward_matches_numerical_gradient() {
        let mut rng = Rng::new(3);
        let geom = Conv2dGeom::new(3, 1, 1).unwrap();
        let x = Tensor::randn(&[1, 2, 4, 4], 1.0, &mut rng);
        let w = Tensor::randn(&[3, 2, 3, 3], 0.5, &mut rng);
        let b = Tensor::randn(&[3], 0.1, &mut rng);

        // Loss = sum(output); analytic gradients via backward with dY = 1.
        let fwd = conv2d_forward(&x, &w, Some(&b), geom).unwrap();
        let ones = Tensor::ones(fwd.output.dims());
        let grads = conv2d_backward_geom(&ones, &w, x.dims(), &fwd, geom).unwrap();

        let eps = 1e-2f32;
        // Check a sample of weight coordinates numerically.
        for &flat in &[0usize, 5, 17, 31, 53] {
            let mut wp = w.clone();
            wp.data_mut()[flat] += eps;
            let mut wm = w.clone();
            wm.data_mut()[flat] -= eps;
            let lp = conv2d_forward(&x, &wp, Some(&b), geom)
                .unwrap()
                .output
                .sum();
            let lm = conv2d_forward(&x, &wm, Some(&b), geom)
                .unwrap()
                .output
                .sum();
            let num = (lp - lm) / (2.0 * eps);
            let ana = grads.grad_weight.data()[flat];
            assert!((num - ana).abs() < 0.05, "dW[{flat}]: {num} vs {ana}");
        }
        // Input gradient check.
        for &flat in &[0usize, 7, 15, 31] {
            let mut xp = x.clone();
            xp.data_mut()[flat] += eps;
            let mut xm = x.clone();
            xm.data_mut()[flat] -= eps;
            let lp = conv2d_forward(&xp, &w, Some(&b), geom)
                .unwrap()
                .output
                .sum();
            let lm = conv2d_forward(&xm, &w, Some(&b), geom)
                .unwrap()
                .output
                .sum();
            let num = (lp - lm) / (2.0 * eps);
            let ana = grads.grad_input.data()[flat];
            assert!((num - ana).abs() < 0.05, "dX[{flat}]: {num} vs {ana}");
        }
        // Bias gradient is the number of output pixels per channel.
        let expect = (fwd.oh * fwd.ow) as f32;
        for &g in grads.grad_bias.data() {
            assert!((g - expect).abs() < 1e-3);
        }
    }
}
