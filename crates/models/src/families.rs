//! The four model families of Table 2, parameterized by scale.
//!
//! Topology (layer counts per stage, residual wiring, encoder depth) is
//! fixed per family member; widths and input resolution come from a scale
//! struct. "Mini" scales are trainable on one CPU core; "paper" scales
//! exist only for the analytic estimators.

use crate::model::ModelSpec;
use gmorph_data::TaskSpec;
use gmorph_nn::BlockSpec;
use gmorph_tensor::{Result, TensorError};

/// Scale parameters for convolutional models.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VisionScale {
    /// Input channels.
    pub in_channels: usize,
    /// Input image side length.
    pub img: usize,
    /// Base channel width (stage widths are multiples of this).
    pub base: usize,
}

impl VisionScale {
    /// Mini scale used for actual CPU training.
    pub fn mini() -> Self {
        VisionScale {
            in_channels: 3,
            img: 16,
            base: 4,
        }
    }

    /// Paper scale used only by the analytic estimators.
    pub fn paper() -> Self {
        VisionScale {
            in_channels: 3,
            img: 224,
            base: 64,
        }
    }
}

/// Scale parameters for transformer models.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SeqScale {
    /// Model width.
    pub d: usize,
    /// Attention heads.
    pub heads: usize,
    /// Encoder depth.
    pub depth: usize,
}

/// VGG family member.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VggDepth {
    /// VGG-11-like: 1-1-2-2 convolutions per stage.
    Vgg11,
    /// VGG-13-like: 2-2-2-2.
    Vgg13,
    /// VGG-16-like: 2-2-3-3.
    Vgg16,
}

impl VggDepth {
    fn convs_per_stage(self) -> [usize; 4] {
        match self {
            VggDepth::Vgg11 => [1, 1, 2, 2],
            VggDepth::Vgg13 => [2, 2, 2, 2],
            VggDepth::Vgg16 => [2, 2, 3, 3],
        }
    }

    /// Family-member name.
    pub fn name(self) -> &'static str {
        match self {
            VggDepth::Vgg11 => "VGG-11",
            VggDepth::Vgg13 => "VGG-13",
            VggDepth::Vgg16 => "VGG-16",
        }
    }
}

/// ResNet family member.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResNetDepth {
    /// ResNet-18-like: 2-2-2-2 residual blocks per stage.
    ResNet18,
    /// ResNet-34-like: 3-4-6-3.
    ResNet34,
}

impl ResNetDepth {
    fn blocks_per_stage(self) -> [usize; 4] {
        match self {
            ResNetDepth::ResNet18 => [2, 2, 2, 2],
            ResNetDepth::ResNet34 => [3, 4, 6, 3],
        }
    }

    /// Family-member name.
    pub fn name(self) -> &'static str {
        match self {
            ResNetDepth::ResNet18 => "ResNet-18",
            ResNetDepth::ResNet34 => "ResNet-34",
        }
    }
}

/// Builds a VGG-family model spec.
///
/// Structure: four stages of `conv3x3+relu` blocks at widths
/// `[base, 2·base, 4·base, 4·base]`, each followed by 2×2 max pooling, then
/// a global-average-pool head — VGG's conv trunk with the fully-connected
/// stack replaced by a light head (standard for small inputs).
pub fn vgg(depth: VggDepth, scale: VisionScale, task: &TaskSpec) -> Result<ModelSpec> {
    if !scale.img.is_multiple_of(16) {
        return Err(TensorError::InvalidArgument {
            op: "families::vgg",
            msg: format!("image side {} must be divisible by 16", scale.img),
        });
    }
    let widths = [scale.base, 2 * scale.base, 4 * scale.base, 4 * scale.base];
    let mut blocks = Vec::new();
    let mut c_in = scale.in_channels;
    for (stage, &n_convs) in depth.convs_per_stage().iter().enumerate() {
        for _ in 0..n_convs {
            blocks.push(BlockSpec::ConvRelu {
                c_in,
                c_out: widths[stage],
            });
            c_in = widths[stage];
        }
        blocks.push(BlockSpec::MaxPool { k: 2 });
    }
    blocks.push(BlockSpec::Head {
        features: c_in,
        classes: task.classes,
    });
    ModelSpec::new(
        format!("{}: {}", task.name, depth.name()),
        blocks,
        task.clone(),
        vec![scale.in_channels, scale.img, scale.img],
    )
}

/// Builds a ResNet-family model spec.
///
/// Structure: a `conv+bn+relu` stem, four residual stages at widths
/// `[base, 2·base, 4·base, 8·base]` with strides `[1, 2, 2, 2]`, then a
/// global-average-pool head.
pub fn resnet(depth: ResNetDepth, scale: VisionScale, task: &TaskSpec) -> Result<ModelSpec> {
    let widths = [scale.base, 2 * scale.base, 4 * scale.base, 8 * scale.base];
    let strides = [1usize, 2, 2, 2];
    let mut blocks = vec![BlockSpec::ConvBnRelu {
        c_in: scale.in_channels,
        c_out: widths[0],
        kernel: 3,
        stride: 1,
    }];
    let mut c_in = widths[0];
    for (stage, &n_blocks) in depth.blocks_per_stage().iter().enumerate() {
        for b in 0..n_blocks {
            let stride = if b == 0 { strides[stage] } else { 1 };
            blocks.push(BlockSpec::Residual {
                c_in,
                c_out: widths[stage],
                stride,
            });
            c_in = widths[stage];
        }
    }
    blocks.push(BlockSpec::Head {
        features: c_in,
        classes: task.classes,
    });
    ModelSpec::new(
        format!("{}: {}", task.name, depth.name()),
        blocks,
        task.clone(),
        vec![scale.in_channels, scale.img, scale.img],
    )
}

/// Builds a ViT-family model spec: patch embedding, `depth` encoder
/// blocks, mean-pool head.
pub(crate) fn vit(
    name: &str,
    scale: SeqScale,
    in_channels: usize,
    img: usize,
    patch: usize,
    task: &TaskSpec,
) -> Result<ModelSpec> {
    let mut blocks = vec![BlockSpec::PatchEmbed {
        channels: in_channels,
        img,
        patch,
        d: scale.d,
    }];
    for _ in 0..scale.depth {
        blocks.push(BlockSpec::Transformer {
            d: scale.d,
            heads: scale.heads,
        });
    }
    blocks.push(BlockSpec::Head {
        features: scale.d,
        classes: task.classes,
    });
    ModelSpec::new(
        format!("{}: {}", task.name, name),
        blocks,
        task.clone(),
        vec![in_channels, img, img],
    )
}

/// Builds a BERT-family model spec: token embedding, `depth` encoder
/// blocks, mean-pool head.
pub fn bert(
    name: &str,
    scale: SeqScale,
    vocab: usize,
    seq_len: usize,
    task: &TaskSpec,
) -> Result<ModelSpec> {
    let mut blocks = vec![BlockSpec::TokenEmbed {
        vocab,
        d: scale.d,
        t_max: seq_len,
    }];
    for _ in 0..scale.depth {
        blocks.push(BlockSpec::Transformer {
            d: scale.d,
            heads: scale.heads,
        });
    }
    blocks.push(BlockSpec::Head {
        features: scale.d,
        classes: task.classes,
    });
    ModelSpec::new(
        format!("{}: {}", task.name, name),
        blocks,
        task.clone(),
        vec![seq_len],
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use gmorph_nn::Mode;
    use gmorph_tensor::rng::Rng;
    use gmorph_tensor::Tensor;

    #[test]
    fn vgg_block_counts() {
        let t = TaskSpec::classification("Age", 4);
        let v11 = vgg(VggDepth::Vgg11, VisionScale::mini(), &t).unwrap();
        let v13 = vgg(VggDepth::Vgg13, VisionScale::mini(), &t).unwrap();
        let v16 = vgg(VggDepth::Vgg16, VisionScale::mini(), &t).unwrap();
        // convs + 4 pools + head.
        assert_eq!(v11.blocks.len(), 6 + 4 + 1);
        assert_eq!(v13.blocks.len(), 8 + 4 + 1);
        assert_eq!(v16.blocks.len(), 10 + 4 + 1);
        assert!(v16.capacity() > v13.capacity());
        assert!(v13.capacity() > v11.capacity());
    }

    #[test]
    fn resnet_block_counts_and_flops_order() {
        let t = TaskSpec::multilabel("Object", 6);
        let r18 = resnet(ResNetDepth::ResNet18, VisionScale::mini(), &t).unwrap();
        let r34 = resnet(ResNetDepth::ResNet34, VisionScale::mini(), &t).unwrap();
        assert_eq!(r18.blocks.len(), 1 + 8 + 1);
        assert_eq!(r34.blocks.len(), 1 + 16 + 1);
        assert!(r34.flops().unwrap() > r18.flops().unwrap());
    }

    #[test]
    fn all_families_forward_at_mini_scale() {
        let mut rng = Rng::new(0);
        let t = TaskSpec::classification("x", 3);
        let specs = vec![
            vgg(VggDepth::Vgg13, VisionScale::mini(), &t).unwrap(),
            resnet(ResNetDepth::ResNet18, VisionScale::mini(), &t).unwrap(),
            vit(
                "ViT-Base",
                SeqScale {
                    d: 16,
                    heads: 2,
                    depth: 2,
                },
                3,
                16,
                4,
                &t,
            )
            .unwrap(),
        ];
        for spec in specs {
            let mut m = spec.build(&mut rng).unwrap();
            let x = Tensor::randn(&[2, 3, 16, 16], 1.0, &mut rng);
            let y = m.forward(&x, Mode::Eval).unwrap();
            assert_eq!(y.dims(), &[2, 3], "{}", spec.name);
        }
        // BERT takes token ids.
        let bt = bert(
            "BERT-Base",
            SeqScale {
                d: 16,
                heads: 2,
                depth: 2,
            },
            32,
            12,
            &t,
        )
        .unwrap();
        let mut m = bt.build(&mut rng).unwrap();
        let ids = Tensor::from_vec(&[2, 12], vec![1.0; 24]).unwrap();
        let y = m.forward(&ids, Mode::Eval).unwrap();
        assert_eq!(y.dims(), &[2, 3]);
    }

    #[test]
    fn paper_scale_has_larger_flops() {
        let t = TaskSpec::classification("x", 4);
        let mini = vgg(VggDepth::Vgg16, VisionScale::mini(), &t).unwrap();
        let paper = vgg(VggDepth::Vgg16, VisionScale::paper(), &t).unwrap();
        // Same topology, vastly larger cost.
        assert_eq!(mini.blocks.len(), paper.blocks.len());
        assert!(paper.flops().unwrap() > mini.flops().unwrap() * 1000);
    }

    #[test]
    fn vgg_rejects_undivisible_images() {
        let t = TaskSpec::classification("x", 2);
        let bad = VisionScale {
            in_channels: 3,
            img: 20,
            base: 4,
        };
        assert!(vgg(VggDepth::Vgg11, bad, &t).is_err());
    }
}
