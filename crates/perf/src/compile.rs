//! Inference compilation: the real counterpart of the `Fused` backend.
//!
//! The paper compiles baselines and fused models with TensorRT to show
//! GMorph is complementary to graph-compiler optimizations (Table 3). Our
//! analytic `Fused` backend models that; this module *implements* the most
//! impactful of the classic inference optimizations — folding batch
//! normalization into the preceding convolution — on the real engine, so
//! the complementarity claim can also be demonstrated with measured
//! wall-clock numbers:
//!
//! ```text
//! W'[o, ...] = W[o, ...] · γ_o / sqrt(σ²_o + ε)
//! b'_o       = (b_o − μ_o) · γ_o / sqrt(σ²_o + ε) + β_o
//! ```
//!
//! After folding, the batch-norm layer becomes an identity in eval mode,
//! and a `ConvBnRelu` block's eval forward is one convolution with the
//! ReLU in its epilogue.
//! The compiled model is inference-only: training it again would use the
//! stale (folded) statistics, so [`compile_for_inference`] returns a new
//! model rather than mutating in place.

use gmorph_graph::TreeModel;
use gmorph_nn::layers::{BatchNorm2d, Conv2d};
use gmorph_nn::{Block, Tensor};
use gmorph_tensor::Result;

const EPS: f32 = 1e-5;

/// Folds one batch norm into its preceding convolution.
fn fold_pair(conv: &mut Conv2d, bn: &mut BatchNorm2d) {
    let c_out = conv.out_channels();
    let per_filter = conv.weight.value.numel() / c_out;
    for o in 0..c_out {
        let inv_std = 1.0 / (bn.running_var.data()[o] + EPS).sqrt();
        let scale = bn.gamma.value.data()[o] * inv_std;
        for i in 0..per_filter {
            conv.weight.value.data_mut()[o * per_filter + i] *= scale;
        }
        let b = conv.bias.value.data()[o];
        conv.bias.value.data_mut()[o] =
            (b - bn.running_mean.data()[o]) * scale + bn.beta.value.data()[o];
    }
    // Neutralize the norm: identity in eval mode.
    bn.gamma.value = Tensor::ones(&[c_out]);
    bn.beta.value = Tensor::zeros(&[c_out]);
    bn.running_mean = Tensor::zeros(&[c_out]);
    bn.running_var = Tensor::ones(&[c_out]);
    bn.fused = true;
}

/// Folds every conv+bn pair inside one block. Returns how many batch
/// norms were folded.
pub(crate) fn fold_block(block: &mut Block) -> usize {
    match block {
        Block::ConvBnRelu { conv, bn, .. } => {
            fold_pair(conv, bn);
            1
        }
        Block::Residual {
            conv1,
            bn1,
            conv2,
            bn2,
            down,
            ..
        } => {
            fold_pair(conv1, bn1);
            fold_pair(conv2, bn2);
            let mut n = 2;
            if let Some((dc, dbn)) = down {
                fold_pair(dc, dbn);
                n += 1;
            }
            n
        }
        _ => 0,
    }
}

/// Produces an inference-compiled copy of a multi-task model with all
/// batch norms folded. Returns the model and the fold count.
pub fn compile_for_inference(model: &TreeModel) -> Result<(TreeModel, usize)> {
    let mut compiled = model.clone();
    let mut folded = 0usize;
    compiled.clear_caches();
    compiled.for_each_block_mut(&mut |b: &mut Block| folded += fold_block(b));
    Ok((compiled, folded))
}

#[cfg(test)]
mod tests {
    use super::*;
    use gmorph_nn::Mode;
    use gmorph_tensor::rng::Rng;

    /// Builds a ConvBnRelu block with non-trivial statistics.
    fn primed_block(rng: &mut Rng) -> Block {
        let mut b = Block::conv_bn_relu(3, 5, 3, 1, rng).unwrap();
        // Run a few training passes so running stats are non-trivial.
        for _ in 0..4 {
            let x = Tensor::randn(&[4, 3, 6, 6], 1.5, rng).map(|v| v + 0.3);
            b.forward(&x, Mode::Train).unwrap();
        }
        b.clear_cache();
        b
    }

    #[test]
    fn folded_block_matches_unfolded_in_eval() {
        let mut rng = Rng::new(0);
        let mut orig = primed_block(&mut rng);
        let mut folded = orig.clone();
        assert_eq!(fold_block(&mut folded), 1);
        let x = Tensor::randn(&[2, 3, 6, 6], 1.0, &mut rng);
        let y0 = orig.forward(&x, Mode::Eval).unwrap();
        let y1 = folded.forward(&x, Mode::Eval).unwrap();
        for (a, b) in y0.data().iter().zip(y1.data()) {
            assert!((a - b).abs() < 1e-4, "{a} vs {b}");
        }
    }

    #[test]
    fn residual_block_folds_all_norms() {
        let mut rng = Rng::new(1);
        let mut b = Block::residual(3, 6, 2, &mut rng).unwrap();
        for _ in 0..3 {
            let x = Tensor::randn(&[4, 3, 8, 8], 1.0, &mut rng);
            b.forward(&x, Mode::Train).unwrap();
        }
        b.clear_cache();
        let mut folded = b.clone();
        assert_eq!(fold_block(&mut folded), 3); // bn1, bn2, downsample bn.
        let x = Tensor::randn(&[2, 3, 8, 8], 1.0, &mut rng);
        let y0 = b.forward(&x, Mode::Eval).unwrap();
        let y1 = folded.forward(&x, Mode::Eval).unwrap();
        for (a, c) in y0.data().iter().zip(y1.data()) {
            assert!((a - c).abs() < 1e-3, "{a} vs {c}");
        }
    }

    #[test]
    fn non_bn_blocks_are_untouched() {
        let mut rng = Rng::new(2);
        let mut b = Block::conv_relu(3, 4, &mut rng).unwrap();
        assert_eq!(fold_block(&mut b), 0);
        let mut p = Block::maxpool(2);
        assert_eq!(fold_block(&mut p), 0);
    }

    #[test]
    fn compiled_tree_matches_original_outputs() {
        use gmorph_data::TaskSpec;
        let mut rng = Rng::new(3);
        let tasks = vec![TaskSpec::classification("a", 2)];
        let mut m = TreeModel::new(tasks);
        let stem = m.add_node((0, 0), primed_block(&mut rng), None).unwrap();
        m.add_node((0, 1), gmorph_nn::Block::head(5, 2, &mut rng), Some(stem))
            .unwrap();
        let x = Tensor::randn(&[2, 3, 6, 6], 1.0, &mut rng);
        let y0 = m.forward(&x, Mode::Eval).unwrap();
        let (mut compiled, folded) = compile_for_inference(&m).unwrap();
        assert_eq!(folded, 1);
        let y1 = compiled.forward(&x, Mode::Eval).unwrap();
        for (a, b) in y0[0].data().iter().zip(y1[0].data()) {
            assert!((a - b).abs() < 1e-4);
        }
        // The original is untouched.
        let y2 = m.forward(&x, Mode::Eval).unwrap();
        assert_eq!(y0[0], y2[0]);
    }
}
