//! Max and global-average pooling with backward passes (NCHW layout).
//!
//! Every op decomposes over `(sample, channel)` planes, which are
//! independent, so planes are dispatched across the shared worker pool
//! ([`crate::engine`]) when the tensor is large enough to pay for the trip.
//! Each plane writes a disjoint output region; results are bit-identical
//! across thread counts.

use crate::engine;
use crate::tensor::Tensor;
use crate::{Result, TensorError};

/// Below this element count, pooling runs serially: the tensors are too
/// small for pool dispatch to pay off.
const PAR_MIN: usize = 1 << 15;

fn check_nchw(t: &Tensor, op: &'static str) -> Result<(usize, usize, usize, usize)> {
    if t.shape().rank() != 4 {
        return Err(TensorError::RankMismatch {
            op,
            expected: 4,
            actual: t.shape().rank(),
        });
    }
    Ok((t.dims()[0], t.dims()[1], t.dims()[2], t.dims()[3]))
}

/// Result of a max-pooling forward pass.
#[derive(Debug, Clone)]
pub struct MaxPoolForward {
    /// Pooled `[N, C, OH, OW]` output.
    pub output: Tensor,
    /// Flat input offset of the winning element for each output element.
    pub argmax: Vec<usize>,
}

/// 2×2 (or `k`×`k`) max pooling with stride `k`.
///
/// # Examples
///
/// ```
/// use gmorph_tensor::{Tensor, pool::maxpool2d_forward};
///
/// let x = Tensor::from_vec(&[1, 1, 2, 2], vec![1.0, 5.0, 3.0, 2.0]).unwrap();
/// let y = maxpool2d_forward(&x, 2).unwrap();
/// assert_eq!(y.output.data(), &[5.0]);
/// ```
pub fn maxpool2d_forward(input: &Tensor, k: usize) -> Result<MaxPoolForward> {
    let (n, c, h, w) = check_nchw(input, "maxpool2d_forward")?;
    if k == 0 || h < k || w < k {
        return Err(TensorError::InvalidArgument {
            op: "maxpool2d_forward",
            msg: format!("kernel {k} invalid for input {h}x{w}"),
        });
    }
    let (oh, ow) = (h / k, w / k);
    let mut out = Tensor::zeros(&[n, c, oh, ow]);
    let mut argmax = vec![0usize; n * c * oh * ow];
    let data = input.data();
    let plane_out = oh * ow;

    // One closure per (sample, channel) plane, writing that plane's output
    // and argmax slices.
    let do_plane = |pi: usize, o: &mut [f32], am: &mut [usize]| {
        let plane = pi * h * w;
        let mut oi = 0usize;
        for oy in 0..oh {
            for ox in 0..ow {
                let mut best = f32::NEG_INFINITY;
                let mut best_off = 0usize;
                for ky in 0..k {
                    for kx in 0..k {
                        let off = plane + (oy * k + ky) * w + (ox * k + kx);
                        if data[off] > best {
                            best = data[off];
                            best_off = off;
                        }
                    }
                }
                o[oi] = best;
                am[oi] = best_off;
                oi += 1;
            }
        }
    };

    if input.numel() < PAR_MIN {
        for pi in 0..n * c {
            let (o, am) = (
                &mut out.data_mut()[pi * plane_out..(pi + 1) * plane_out],
                &mut argmax[pi * plane_out..(pi + 1) * plane_out],
            );
            do_plane(pi, o, am);
        }
    } else {
        let per_plane = engine::parallel_map(n * c, |pi| {
            let mut o = vec![0.0f32; plane_out];
            let mut am = vec![0usize; plane_out];
            do_plane(pi, &mut o, &mut am);
            (o, am)
        });
        for (pi, (o, am)) in per_plane.into_iter().enumerate() {
            out.data_mut()[pi * plane_out..(pi + 1) * plane_out].copy_from_slice(&o);
            argmax[pi * plane_out..(pi + 1) * plane_out].copy_from_slice(&am);
        }
    }
    Ok(MaxPoolForward {
        output: out,
        argmax,
    })
}

/// Backward pass for max pooling: routes gradients to the winners.
pub fn maxpool2d_backward(
    grad_output: &Tensor,
    input_dims: &[usize],
    forward: &MaxPoolForward,
) -> Result<Tensor> {
    if grad_output.numel() != forward.argmax.len() {
        return Err(TensorError::ShapeMismatch {
            op: "maxpool2d_backward",
            lhs: format!("[{}]", forward.argmax.len()),
            rhs: grad_output.shape().to_string(),
        });
    }
    let mut grad_input = Tensor::zeros(input_dims);
    for (i, &src) in forward.argmax.iter().enumerate() {
        grad_input.data_mut()[src] += grad_output.data()[i];
    }
    Ok(grad_input)
}

/// Global average pooling `[N, C, H, W] -> [N, C]`.
pub fn global_avgpool_forward(input: &Tensor) -> Result<Tensor> {
    let (n, c, h, w) = check_nchw(input, "global_avgpool_forward")?;
    let area = (h * w) as f32;
    let plane_mean = |pi: usize| {
        let plane = pi * h * w;
        input.data()[plane..plane + h * w].iter().sum::<f32>() / area
    };
    let means = if input.numel() < PAR_MIN {
        (0..n * c).map(plane_mean).collect()
    } else {
        engine::parallel_map(n * c, plane_mean)
    };
    Tensor::from_vec(&[n, c], means)
}

/// Backward pass for global average pooling.
pub fn global_avgpool_backward(grad_output: &Tensor, input_dims: &[usize]) -> Result<Tensor> {
    let (n, c, h, w) = (input_dims[0], input_dims[1], input_dims[2], input_dims[3]);
    if grad_output.dims() != [n, c] {
        return Err(TensorError::ShapeMismatch {
            op: "global_avgpool_backward",
            lhs: format!("[{n}, {c}]"),
            rhs: grad_output.shape().to_string(),
        });
    }
    let mut grad_input = Tensor::zeros(input_dims);
    let scale = 1.0 / (h * w) as f32;
    let go = grad_output.data();
    if grad_input.numel() < PAR_MIN {
        for (pi, plane) in grad_input.data_mut().chunks_mut(h * w).enumerate() {
            plane.fill(go[pi] * scale);
        }
    } else {
        engine::parallel_chunks_mut(grad_input.data_mut(), h * w, |pi, plane| {
            plane.fill(go[pi] * scale);
        });
    }
    Ok(grad_input)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;

    #[test]
    fn maxpool_picks_max_and_routes_grad() {
        let x = Tensor::from_vec(
            &[1, 1, 4, 4],
            vec![
                1.0, 2.0, 0.0, 0.0, //
                3.0, 4.0, 0.0, 9.0, //
                0.0, 0.0, 5.0, 6.0, //
                0.0, 0.0, 7.0, 8.0,
            ],
        )
        .unwrap();
        let fwd = maxpool2d_forward(&x, 2).unwrap();
        assert_eq!(fwd.output.data(), &[4.0, 9.0, 0.0, 8.0]);
        let go = Tensor::from_vec(&[1, 1, 2, 2], vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let gi = maxpool2d_backward(&go, x.dims(), &fwd).unwrap();
        assert_eq!(gi.at(&[0, 0, 1, 1]).unwrap(), 1.0);
        assert_eq!(gi.at(&[0, 0, 1, 3]).unwrap(), 2.0);
        assert_eq!(gi.at(&[0, 0, 3, 3]).unwrap(), 4.0);
        assert_eq!(gi.sum(), 10.0);
    }

    #[test]
    fn global_avgpool_roundtrip() {
        let mut rng = Rng::new(0);
        let x = Tensor::randn(&[2, 3, 4, 4], 1.0, &mut rng);
        let y = global_avgpool_forward(&x).unwrap();
        assert_eq!(y.dims(), &[2, 3]);
        // Matches a manual mean of one plane.
        let manual: f32 = (0..16).map(|i| x.data()[3 * 16 + 2 * 16 + i]).sum::<f32>() / 16.0;
        assert!((y.at(&[1, 2]).unwrap() - manual).abs() < 1e-5);
        // Backward spreads gradient uniformly and conserves mass.
        let go = Tensor::ones(&[2, 3]);
        let gi = global_avgpool_backward(&go, x.dims()).unwrap();
        assert!((gi.sum() - 6.0).abs() < 1e-4);
    }

    #[test]
    fn pool_rejects_bad_inputs() {
        let x = Tensor::zeros(&[2, 3]);
        assert!(maxpool2d_forward(&x, 2).is_err());
        let x = Tensor::zeros(&[1, 1, 2, 2]);
        assert!(maxpool2d_forward(&x, 0).is_err());
        assert!(maxpool2d_forward(&x, 3).is_err());
    }
}
