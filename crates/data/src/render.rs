//! Shared rendering utilities for the synthetic vision generators.

use gmorph_tensor::interp::{resize2d_forward, InterpMode};
use gmorph_tensor::rng::Rng;
use gmorph_tensor::Tensor;

/// Generates `n` fixed low-frequency spatial bases of shape `[C, S, S]`.
///
/// Each basis is a random 4×4 field bilinearly upsampled to `S`×`S`, which
/// gives smooth, spatially coherent patterns that small convolutions can
/// learn to detect — unlike white noise.
pub(crate) fn random_bases(n: usize, channels: usize, img: usize, rng: &mut Rng) -> Vec<Vec<f32>> {
    let coarse_side = 4.min(img);
    (0..n)
        .map(|_| {
            let coarse = Tensor::randn(&[1, channels, coarse_side, coarse_side], 1.0, rng);
            resize2d_forward(&coarse, img, img, InterpMode::Bilinear)
                .expect("basis upsample cannot fail for nonzero sizes")
                .into_data()
        })
        .collect()
}

/// Adds `scale * basis` into a sample buffer.
pub(crate) fn add_scaled(sample: &mut [f32], basis: &[f32], scale: f32) {
    debug_assert_eq!(sample.len(), basis.len());
    for (s, &b) in sample.iter_mut().zip(basis.iter()) {
        *s += scale * b;
    }
}

/// Adds `scale * basis` into a sample, cyclically shifted by `(dy, dx)`.
///
/// Used by the scenes generator to place object patterns at varying
/// positions.
pub(crate) fn add_scaled_shifted(
    sample: &mut [f32],
    basis: &[f32],
    channels: usize,
    img: usize,
    dy: usize,
    dx: usize,
    scale: f32,
) {
    for c in 0..channels {
        let plane = c * img * img;
        for y in 0..img {
            let sy = (y + dy) % img;
            for x in 0..img {
                let sx = (x + dx) % img;
                sample[plane + sy * img + sx] += scale * basis[plane + y * img + x];
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bases_have_expected_size_and_determinism() {
        let mut a = Rng::new(0);
        let mut b = Rng::new(0);
        let ba = random_bases(3, 2, 8, &mut a);
        let bb = random_bases(3, 2, 8, &mut b);
        assert_eq!(ba.len(), 3);
        assert_eq!(ba[0].len(), 2 * 8 * 8);
        assert_eq!(ba, bb);
    }

    #[test]
    fn bases_are_smooth() {
        // Neighbouring pixels of an upsampled 4x4 field correlate strongly.
        let mut rng = Rng::new(1);
        let b = &random_bases(1, 1, 16, &mut rng)[0];
        let mut diff = 0.0f32;
        let mut mag = 0.0f32;
        for y in 0..16 {
            for x in 0..15 {
                diff += (b[y * 16 + x + 1] - b[y * 16 + x]).abs();
                mag += b[y * 16 + x].abs();
            }
        }
        assert!(diff < mag, "diff {diff} mag {mag}");
    }

    #[test]
    fn shifted_add_wraps() {
        let basis = vec![1.0, 0.0, 0.0, 0.0]; // 1x2x2, hot at (0,0).
        let mut sample = vec![0.0f32; 4];
        add_scaled_shifted(&mut sample, &basis, 1, 2, 1, 1, 2.0);
        assert_eq!(sample, vec![0.0, 0.0, 0.0, 2.0]);
    }
}
