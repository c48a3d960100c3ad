//! Spatial resizing (nearest and bilinear) with backward passes.
//!
//! This implements the spatial half of the paper's *re-scale operator*
//! (§4.1): when a node reuses features whose width/height differ from what
//! it expects, GMorph "resizes the width and height of the features using
//! interpolation techniques" (the channel half is a 1×1 convolution, which
//! lives in `gmorph-nn`).

use crate::tensor::Tensor;
use crate::{Result, TensorError};

/// Interpolation mode for [`resize2d_forward`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InterpMode {
    /// Nearest-neighbour sampling.
    Nearest,
    /// Bilinear sampling with align_corners=false semantics.
    Bilinear,
}

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

/// Source taps and weights for one output pixel.
#[derive(Debug, Clone, Copy)]
struct Taps {
    src: [usize; 4],
    w: [f32; 4],
    n: usize,
}

fn taps_for(
    mode: InterpMode,
    oy: usize,
    ox: usize,
    h: usize,
    w: usize,
    oh: usize,
    ow: usize,
) -> Taps {
    match mode {
        InterpMode::Nearest => {
            let sy = (oy * h) / oh;
            let sx = (ox * w) / ow;
            Taps {
                src: [sy * w + sx, 0, 0, 0],
                w: [1.0, 0.0, 0.0, 0.0],
                n: 1,
            }
        }
        InterpMode::Bilinear => {
            // align_corners = false mapping, clamped to the border.
            let fy = ((oy as f32 + 0.5) * h as f32 / oh as f32 - 0.5).clamp(0.0, (h - 1) as f32);
            let fx = ((ox as f32 + 0.5) * w as f32 / ow as f32 - 0.5).clamp(0.0, (w - 1) as f32);
            let y0 = fy.floor() as usize;
            let x0 = fx.floor() as usize;
            let y1 = (y0 + 1).min(h - 1);
            let x1 = (x0 + 1).min(w - 1);
            let dy = fy - y0 as f32;
            let dx = fx - x0 as f32;
            Taps {
                src: [y0 * w + x0, y0 * w + x1, y1 * w + x0, y1 * w + x1],
                w: [
                    (1.0 - dy) * (1.0 - dx),
                    (1.0 - dy) * dx,
                    dy * (1.0 - dx),
                    dy * dx,
                ],
                n: 4,
            }
        }
    }
}

/// Resizes a `[N, C, H, W]` tensor to spatial size `(oh, ow)`.
///
/// # Examples
///
/// ```
/// use gmorph_tensor::{Tensor, interp::{resize2d_forward, InterpMode}};
///
/// let x = Tensor::ones(&[1, 2, 4, 4]);
/// let y = resize2d_forward(&x, 8, 8, InterpMode::Bilinear).unwrap();
/// assert_eq!(y.dims(), &[1, 2, 8, 8]);
/// // Interpolating a constant image stays constant.
/// assert!((y.sum() - 128.0).abs() < 1e-3);
/// ```
pub fn resize2d_forward(input: &Tensor, oh: usize, ow: usize, mode: InterpMode) -> Result<Tensor> {
    let (n, c, h, w) = check_nchw(input, "resize2d_forward")?;
    if oh == 0 || ow == 0 {
        return Err(TensorError::InvalidArgument {
            op: "resize2d_forward",
            msg: "target size must be nonzero".to_string(),
        });
    }
    if (oh, ow) == (h, w) {
        return Ok(input.clone());
    }
    let mut out = Tensor::zeros(&[n, c, oh, ow]);
    let data = input.data();
    let mut oi = 0usize;
    for s in 0..n {
        for ch in 0..c {
            let plane = (s * c + ch) * h * w;
            for oy in 0..oh {
                for ox in 0..ow {
                    let t = taps_for(mode, oy, ox, h, w, oh, ow);
                    let mut acc = 0.0f32;
                    for i in 0..t.n {
                        acc += t.w[i] * data[plane + t.src[i]];
                    }
                    out.data_mut()[oi] = acc;
                    oi += 1;
                }
            }
        }
    }
    Ok(out)
}

/// Backward pass of [`resize2d_forward`] (the adjoint scatter).
pub fn resize2d_backward(
    grad_output: &Tensor,
    input_dims: &[usize],
    mode: InterpMode,
) -> Result<Tensor> {
    let (n, c, h, w) = (input_dims[0], input_dims[1], input_dims[2], input_dims[3]);
    let (gn, gc, oh, ow) = check_nchw(grad_output, "resize2d_backward")?;
    if gn != n || gc != c {
        return Err(TensorError::ShapeMismatch {
            op: "resize2d_backward",
            lhs: format!("[{n}, {c}, ..]"),
            rhs: grad_output.shape().to_string(),
        });
    }
    if (oh, ow) == (h, w) {
        return Ok(grad_output.clone());
    }
    let mut grad_input = Tensor::zeros(input_dims);
    let god = grad_output.data();
    let mut oi = 0usize;
    for s in 0..n {
        for ch in 0..c {
            let plane = (s * c + ch) * h * w;
            for oy in 0..oh {
                for ox in 0..ow {
                    let t = taps_for(mode, oy, ox, h, w, oh, ow);
                    let g = god[oi];
                    oi += 1;
                    for i in 0..t.n {
                        grad_input.data_mut()[plane + t.src[i]] += t.w[i] * g;
                    }
                }
            }
        }
    }
    Ok(grad_input)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;
    use proptest::prelude::*;

    #[test]
    fn identity_resize_is_noop() {
        let mut rng = Rng::new(0);
        let x = Tensor::randn(&[1, 2, 3, 3], 1.0, &mut rng);
        let y = resize2d_forward(&x, 3, 3, InterpMode::Bilinear).unwrap();
        assert_eq!(x, y);
    }

    #[test]
    fn nearest_upsample_repeats() {
        let x = Tensor::from_vec(&[1, 1, 2, 2], vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let y = resize2d_forward(&x, 4, 4, InterpMode::Nearest).unwrap();
        assert_eq!(y.at(&[0, 0, 0, 0]).unwrap(), 1.0);
        assert_eq!(y.at(&[0, 0, 0, 1]).unwrap(), 1.0);
        assert_eq!(y.at(&[0, 0, 3, 3]).unwrap(), 4.0);
    }

    #[test]
    fn bilinear_preserves_constant_fields() {
        let x = Tensor::full(&[1, 1, 5, 7], 2.5);
        for &(oh, ow) in &[(3usize, 4usize), (10, 14), (1, 1), (7, 5)] {
            let y = resize2d_forward(&x, oh, ow, InterpMode::Bilinear).unwrap();
            for &v in y.data() {
                assert!((v - 2.5).abs() < 1e-5);
            }
        }
    }

    #[test]
    fn bilinear_downsample_2x_averages() {
        let x = Tensor::from_vec(&[1, 1, 2, 2], vec![0.0, 2.0, 4.0, 6.0]).unwrap();
        let y = resize2d_forward(&x, 1, 1, InterpMode::Bilinear).unwrap();
        assert!((y.data()[0] - 3.0).abs() < 1e-5);
    }

    #[test]
    fn backward_is_adjoint_of_forward() {
        // <resize(x), g> == <x, resize_backward(g)> for random x, g.
        let mut rng = Rng::new(9);
        for &mode in &[InterpMode::Nearest, InterpMode::Bilinear] {
            let x = Tensor::randn(&[1, 2, 4, 5], 1.0, &mut rng);
            let g = Tensor::randn(&[1, 2, 7, 3], 1.0, &mut rng);
            let y = resize2d_forward(&x, 7, 3, mode).unwrap();
            let gx = resize2d_backward(&g, x.dims(), mode).unwrap();
            let lhs: f32 = y.data().iter().zip(g.data()).map(|(a, b)| a * b).sum();
            let rhs: f32 = x.data().iter().zip(gx.data()).map(|(a, b)| a * b).sum();
            assert!((lhs - rhs).abs() < 1e-3, "{lhs} vs {rhs} ({mode:?})");
        }
    }

    #[test]
    fn rejects_zero_target() {
        let x = Tensor::zeros(&[1, 1, 2, 2]);
        assert!(resize2d_forward(&x, 0, 2, InterpMode::Nearest).is_err());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn output_within_input_bounds(
            h in 1usize..6, w in 1usize..6, oh in 1usize..8, ow in 1usize..8, seed in 0u64..100
        ) {
            let mut rng = Rng::new(seed);
            let x = Tensor::rand_uniform(&[1, 1, h, w], -1.0, 1.0, &mut rng);
            for mode in [InterpMode::Nearest, InterpMode::Bilinear] {
                let y = resize2d_forward(&x, oh, ow, mode).unwrap();
                let (lo, hi) = x.data().iter().fold(
                    (f32::INFINITY, f32::NEG_INFINITY),
                    |(lo, hi), &v| (lo.min(v), hi.max(v)),
                );
                for &v in y.data() {
                    prop_assert!(v >= lo - 1e-4 && v <= hi + 1e-4);
                }
            }
        }
    }
}
