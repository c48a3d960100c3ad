//! Weight initialization schemes.
//!
//! Figure 3 of the paper shows that *weight initialization alone* moves the
//! post-fine-tuning accuracy of a fixed architecture by several points,
//! which is why GMorph cannot score candidates from architecture alone.
//! Deterministic, seed-controlled init makes that experiment reproducible.

use gmorph_tensor::rng::Rng;
use gmorph_tensor::Tensor;

/// Kaiming-He normal init for layers followed by ReLU.
///
/// `fan_in` is the number of input connections per output unit.
pub(crate) fn kaiming_normal(dims: &[usize], fan_in: usize, rng: &mut Rng) -> Tensor {
    let std = (2.0 / fan_in.max(1) as f32).sqrt();
    Tensor::randn(dims, std, rng)
}

/// Xavier-Glorot uniform init for linear/attention layers.
pub(crate) fn xavier_uniform(
    dims: &[usize],
    fan_in: usize,
    fan_out: usize,
    rng: &mut Rng,
) -> Tensor {
    let bound = (6.0 / (fan_in + fan_out).max(1) as f32).sqrt();
    Tensor::rand_uniform(dims, -bound, bound, rng)
}

/// Truncated-normal-ish init for embeddings (plain normal, small std).
pub(crate) fn embedding_normal(dims: &[usize], rng: &mut Rng) -> Tensor {
    Tensor::randn(dims, 0.02, rng)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kaiming_std_scales_with_fan_in() {
        let mut rng = Rng::new(0);
        let a = kaiming_normal(&[10_000], 2, &mut rng);
        let b = kaiming_normal(&[10_000], 200, &mut rng);
        let std = |t: &Tensor| {
            let m = t.mean();
            t.map(|x| (x - m) * (x - m)).mean().sqrt()
        };
        assert!((std(&a) - 1.0).abs() < 0.1);
        assert!((std(&b) - 0.1).abs() < 0.02);
    }

    #[test]
    fn xavier_within_bound() {
        let mut rng = Rng::new(1);
        let t = xavier_uniform(&[1000], 8, 8, &mut rng);
        let bound = (6.0f32 / 16.0).sqrt();
        for &v in t.data() {
            assert!(v.abs() <= bound);
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let mut a = Rng::new(7);
        let mut b = Rng::new(7);
        assert_eq!(
            kaiming_normal(&[32], 4, &mut a).data(),
            kaiming_normal(&[32], 4, &mut b).data()
        );
    }
}
