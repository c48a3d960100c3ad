//! Weight-free block descriptors.
//!
//! A [`BlockSpec`] describes a computation block's architecture without
//! allocating its weights. The abstract graph stores specs in its nodes,
//! which lets the search reason about *paper-scale* models (for the
//! analytic FLOPs/latency estimators) while only ever materializing weights
//! for the *mini-scale* models it actually fine-tunes. `BlockSpec::build`
//! instantiates a trainable [`Block`]; [`Block::spec`] recovers the
//! descriptor.

use crate::block::Block;
use gmorph_tensor::rng::Rng;
use gmorph_tensor::{Result, TensorError};

/// Architecture of a computation block (see module docs).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum BlockSpec {
    /// `conv3x3(s1, same) + relu`.
    ConvRelu {
        /// Input channels.
        c_in: usize,
        /// Output channels.
        c_out: usize,
    },
    /// `conv(k, s, same) + bn + relu`.
    ConvBnRelu {
        /// Input channels.
        c_in: usize,
        /// Output channels.
        c_out: usize,
        /// Kernel size.
        kernel: usize,
        /// Stride.
        stride: usize,
    },
    /// ResNet basic block.
    Residual {
        /// Input channels.
        c_in: usize,
        /// Output channels.
        c_out: usize,
        /// Stride of the first convolution.
        stride: usize,
    },
    /// `k`×`k` max pooling.
    MaxPool {
        /// Window/stride.
        k: usize,
    },
    /// Pre-LN transformer encoder block.
    Transformer {
        /// Model width.
        d: usize,
        /// Head count.
        heads: usize,
    },
    /// ViT patch-embedding stem.
    PatchEmbed {
        /// Input channels.
        channels: usize,
        /// Input image side.
        img: usize,
        /// Patch size.
        patch: usize,
        /// Embedding width.
        d: usize,
    },
    /// BERT token-embedding stem.
    TokenEmbed {
        /// Vocabulary size.
        vocab: usize,
        /// Embedding width.
        d: usize,
        /// Maximum sequence length.
        t_max: usize,
    },
    /// Task head (global pool + classifier).
    Head {
        /// Input feature width.
        features: usize,
        /// Output classes.
        classes: usize,
    },
    /// Re-scale adapter between per-sample shapes.
    Rescale {
        /// Source per-sample shape.
        from: Vec<usize>,
        /// Target per-sample shape.
        to: Vec<usize>,
    },
}

impl BlockSpec {
    /// Instantiates a trainable block with fresh weights.
    pub fn build(&self, rng: &mut Rng) -> Result<Block> {
        match self {
            BlockSpec::ConvRelu { c_in, c_out } => Block::conv_relu(*c_in, *c_out, rng),
            BlockSpec::ConvBnRelu {
                c_in,
                c_out,
                kernel,
                stride,
            } => Block::conv_bn_relu(*c_in, *c_out, *kernel, *stride, rng),
            BlockSpec::Residual {
                c_in,
                c_out,
                stride,
            } => Block::residual(*c_in, *c_out, *stride, rng),
            BlockSpec::MaxPool { k } => Ok(Block::maxpool(*k)),
            BlockSpec::Transformer { d, heads } => Block::transformer(*d, *heads, rng),
            BlockSpec::PatchEmbed {
                channels,
                img,
                patch,
                d,
            } => Block::patch_embed(*channels, *img, *patch, *d, rng),
            BlockSpec::TokenEmbed { vocab, d, t_max } => {
                Ok(Block::token_embed(*vocab, *d, *t_max, rng))
            }
            BlockSpec::Head { features, classes } => Ok(Block::head(*features, *classes, rng)),
            BlockSpec::Rescale { from, to } => Block::rescale(from, to, rng),
        }
    }

    /// Per-sample output shape for a per-sample input shape.
    pub fn out_shape(&self, in_shape: &[usize]) -> Result<Vec<usize>> {
        let bad = |msg: String| TensorError::InvalidArgument {
            op: "BlockSpec::out_shape",
            msg,
        };
        match self {
            BlockSpec::ConvRelu { c_in, c_out } => {
                if in_shape.len() != 3 || in_shape[0] != *c_in {
                    return Err(bad(format!("{self:?} on {in_shape:?}")));
                }
                Ok(vec![*c_out, in_shape[1], in_shape[2]])
            }
            BlockSpec::ConvBnRelu {
                c_in,
                c_out,
                stride,
                ..
            } => {
                if in_shape.len() != 3 || in_shape[0] != *c_in || *stride == 0 {
                    return Err(bad(format!("{self:?} on {in_shape:?}")));
                }
                Ok(vec![
                    *c_out,
                    in_shape[1].div_ceil(*stride),
                    in_shape[2].div_ceil(*stride),
                ])
            }
            BlockSpec::Residual {
                c_in,
                c_out,
                stride,
            } => {
                if in_shape.len() != 3 || in_shape[0] != *c_in || *stride == 0 {
                    return Err(bad(format!("{self:?} on {in_shape:?}")));
                }
                Ok(vec![
                    *c_out,
                    in_shape[1].div_ceil(*stride),
                    in_shape[2].div_ceil(*stride),
                ])
            }
            BlockSpec::MaxPool { k } => {
                if in_shape.len() != 3 || *k == 0 || in_shape[1] < *k || in_shape[2] < *k {
                    return Err(bad(format!("pool {k} on {in_shape:?}")));
                }
                Ok(vec![in_shape[0], in_shape[1] / k, in_shape[2] / k])
            }
            BlockSpec::Transformer { d, .. } => {
                if in_shape.len() != 2 || in_shape[1] != *d {
                    return Err(bad(format!("{self:?} on {in_shape:?}")));
                }
                Ok(in_shape.to_vec())
            }
            BlockSpec::PatchEmbed {
                channels,
                img,
                patch,
                d,
            } => {
                if in_shape != [*channels, *img, *img] || *patch == 0 {
                    return Err(bad(format!("{self:?} on {in_shape:?}")));
                }
                Ok(vec![(img / patch) * (img / patch), *d])
            }
            BlockSpec::TokenEmbed { d, t_max, .. } => {
                if in_shape.len() != 1 || in_shape[0] > *t_max {
                    return Err(bad(format!("{self:?} on {in_shape:?}")));
                }
                Ok(vec![in_shape[0], *d])
            }
            BlockSpec::Head { features, classes } => {
                let f = match in_shape.len() {
                    3 => in_shape[0],
                    2 => in_shape[1],
                    _ => return Err(bad(format!("head on {in_shape:?}"))),
                };
                if f != *features {
                    return Err(bad(format!("{self:?} on {in_shape:?}")));
                }
                Ok(vec![*classes])
            }
            BlockSpec::Rescale { from, to } => {
                if in_shape != from.as_slice() {
                    return Err(bad(format!("{self:?} on {in_shape:?}")));
                }
                Ok(to.clone())
            }
        }
    }

    /// Number of trainable scalars.
    pub fn capacity(&self) -> usize {
        match self {
            BlockSpec::ConvRelu { c_in, c_out } => c_out * c_in * 9 + c_out,
            BlockSpec::ConvBnRelu {
                c_in,
                c_out,
                kernel,
                ..
            } => c_out * c_in * kernel * kernel + c_out + 2 * c_out,
            BlockSpec::Residual {
                c_in,
                c_out,
                stride,
            } => {
                let conv1 = c_out * c_in * 9 + c_out;
                let conv2 = c_out * c_out * 9 + c_out;
                let bns = 4 * c_out;
                let down = if *stride != 1 || c_in != c_out {
                    c_out * c_in + c_out + 2 * c_out
                } else {
                    0
                };
                conv1 + conv2 + bns + down
            }
            BlockSpec::MaxPool { .. } => 0,
            BlockSpec::Transformer { d, .. } => {
                let attn = 4 * (d * d + d);
                let lns = 2 * 2 * d;
                let mlp = (4 * d * d + 4 * d) + (4 * d * d + d);
                attn + lns + mlp
            }
            BlockSpec::PatchEmbed {
                channels,
                img,
                patch,
                d,
            } => {
                let t = (img / patch) * (img / patch);
                d * channels * patch * patch + d + t * d
            }
            BlockSpec::TokenEmbed { vocab, d, t_max } => vocab * d + t_max * d,
            BlockSpec::Head { features, classes } => features * classes + classes,
            BlockSpec::Rescale { from, to } => match (from.len(), to.len()) {
                (3, 3) if from[0] != to[0] => to[0] * from[0] + to[0],
                (2, 2) if from[1] != to[1] => to[1] * from[1] + to[1],
                _ => 0,
            },
        }
    }

    /// Approximate per-sample FLOPs for the given input shape: two per
    /// multiply-add, plus the elementwise steps per output element.
    pub fn flops(&self, in_shape: &[usize]) -> Result<u64> {
        let out = self.out_shape(in_shape)?;
        let numel = |s: &[usize]| s.iter().product::<usize>() as u64;
        Ok(match self {
            BlockSpec::ConvRelu { c_in, .. } => 2 * numel(&out) * (*c_in as u64) * 9 + numel(&out),
            BlockSpec::ConvBnRelu { c_in, kernel, .. } => {
                2 * numel(&out) * (*c_in as u64) * (*kernel * *kernel) as u64 + 3 * numel(&out)
            }
            BlockSpec::Residual {
                c_in,
                c_out,
                stride,
            } => {
                let mut f = 2 * numel(&out) * (*c_in as u64) * 9; // conv1
                f += 2 * numel(&out) * (*c_out as u64) * 9; // conv2
                f += 5 * numel(&out);
                if *stride != 1 || c_in != c_out {
                    f += 2 * numel(&out) * (*c_in as u64) + 2 * numel(&out);
                }
                f
            }
            BlockSpec::MaxPool { .. } => numel(in_shape),
            BlockSpec::Transformer { d, .. } => {
                let (t, d) = (in_shape[0] as u64, *d as u64);
                let qkv = 4 * 2 * t * d * d;
                let scores = 2 * 2 * t * t * d;
                let mlp = 2 * t * d * 4 * d + 2 * t * 4 * d * d;
                qkv + scores + mlp + 8 * t * d
            }
            BlockSpec::PatchEmbed {
                channels, patch, ..
            } => 2 * numel(&out) * (*channels as u64) * (*patch * *patch) as u64 + numel(&out),
            BlockSpec::TokenEmbed { d, .. } => 2 * in_shape[0] as u64 * *d as u64,
            BlockSpec::Head { features, classes } => {
                numel(in_shape) + 2 * (features * classes) as u64
            }
            BlockSpec::Rescale { from, to } => {
                let mut f = 4 * numel(to);
                match (from.len(), to.len()) {
                    (3, 3) if from[0] != to[0] => {
                        f += 2 * numel(&to[1..]) * (from[0] as u64) * (to[0] as u64);
                    }
                    (2, 2) if from[1] != to[1] => {
                        f += 2 * (to[0] as u64) * (from[1] * to[1]) as u64;
                    }
                    _ => {}
                }
                f
            }
        })
    }

    /// Short human-readable description.
    pub fn describe(&self) -> String {
        match self {
            BlockSpec::ConvRelu { c_in, c_out } => format!("Conv+ReLU({c_in}→{c_out})"),
            BlockSpec::ConvBnRelu {
                c_in,
                c_out,
                stride,
                ..
            } => format!("Conv+BN+ReLU({c_in}→{c_out},s{stride})"),
            BlockSpec::Residual {
                c_in,
                c_out,
                stride,
            } => {
                format!("ResidualBlock({c_in}→{c_out},s{stride})")
            }
            BlockSpec::MaxPool { k } => format!("MaxPool({k}x{k})"),
            BlockSpec::Transformer { d, heads } => format!("Encoder(d={d},h={heads})"),
            BlockSpec::PatchEmbed { patch, d, .. } => format!("PatchEmbed(p={patch},d={d})"),
            BlockSpec::TokenEmbed { vocab, d, .. } => format!("TokenEmbed(v={vocab},d={d})"),
            BlockSpec::Head { features, classes } => format!("Head({features}→{classes})"),
            BlockSpec::Rescale { to, .. } => format!("Rescale(→{to:?})"),
        }
    }
}

impl Block {
    /// Recovers the architecture descriptor of this block.
    pub fn spec(&self) -> BlockSpec {
        match self {
            Block::ConvRelu { conv, .. } => BlockSpec::ConvRelu {
                c_in: conv.in_channels(),
                c_out: conv.out_channels(),
            },
            Block::ConvBnRelu { conv, .. } => BlockSpec::ConvBnRelu {
                c_in: conv.in_channels(),
                c_out: conv.out_channels(),
                kernel: conv.geom.kernel,
                stride: conv.geom.stride,
            },
            Block::Residual { conv1, .. } => BlockSpec::Residual {
                c_in: conv1.in_channels(),
                c_out: conv1.out_channels(),
                stride: conv1.geom.stride,
            },
            Block::MaxPool { k, .. } => BlockSpec::MaxPool { k: *k },
            Block::Transformer { attn, .. } => BlockSpec::Transformer {
                d: attn.width(),
                heads: attn.heads,
            },
            Block::PatchEmbedB(pe) => {
                let grid = (pe.tokens() as f64).sqrt() as usize;
                BlockSpec::PatchEmbed {
                    channels: pe.proj.in_channels(),
                    img: grid * pe.patch,
                    patch: pe.patch,
                    d: pe.width(),
                }
            }
            Block::TokenEmbedB(te) => BlockSpec::TokenEmbed {
                vocab: te.vocab(),
                d: te.width(),
                t_max: te.pos.value.dims()[0],
            },
            Block::Head { linear, .. } => BlockSpec::Head {
                features: linear.in_features(),
                classes: linear.out_features(),
            },
            Block::Rescale { source, target, .. } => BlockSpec::Rescale {
                from: source.clone(),
                to: target.clone(),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Mode;
    use gmorph_tensor::Tensor;

    /// Runs a batch-1 forward pass of `in_shape` and returns the output
    /// shape without the batch dimension.
    fn probe(block: &mut Block, in_shape: &[usize]) -> Result<Vec<usize>> {
        let mut dims = vec![1usize];
        dims.extend_from_slice(in_shape);
        let x = match block {
            // Token embeddings need integral ids.
            Block::TokenEmbedB(_) => Tensor::zeros(&dims),
            _ => Tensor::full(&dims, 0.1),
        };
        let y = block.forward(&x, Mode::Eval)?;
        Ok(y.dims()[1..].to_vec())
    }

    fn all_specs() -> Vec<(BlockSpec, Vec<usize>)> {
        vec![
            (BlockSpec::ConvRelu { c_in: 3, c_out: 8 }, vec![3, 8, 8]),
            (
                BlockSpec::ConvBnRelu {
                    c_in: 4,
                    c_out: 8,
                    kernel: 3,
                    stride: 2,
                },
                vec![4, 8, 8],
            ),
            (
                BlockSpec::Residual {
                    c_in: 4,
                    c_out: 8,
                    stride: 2,
                },
                vec![4, 8, 8],
            ),
            (
                BlockSpec::Residual {
                    c_in: 8,
                    c_out: 8,
                    stride: 1,
                },
                vec![8, 4, 4],
            ),
            (BlockSpec::MaxPool { k: 2 }, vec![3, 8, 8]),
            (BlockSpec::Transformer { d: 8, heads: 2 }, vec![4, 8]),
            (
                BlockSpec::PatchEmbed {
                    channels: 3,
                    img: 8,
                    patch: 4,
                    d: 8,
                },
                vec![3, 8, 8],
            ),
            (
                BlockSpec::TokenEmbed {
                    vocab: 16,
                    d: 8,
                    t_max: 8,
                },
                vec![6],
            ),
            (
                BlockSpec::Head {
                    features: 8,
                    classes: 3,
                },
                vec![8, 2, 2],
            ),
            (
                BlockSpec::Rescale {
                    from: vec![4, 8, 8],
                    to: vec![8, 4, 4],
                },
                vec![4, 8, 8],
            ),
            (
                BlockSpec::Rescale {
                    from: vec![6, 8],
                    to: vec![4, 12],
                },
                vec![6, 8],
            ),
        ]
    }

    #[test]
    fn build_roundtrips_spec() {
        let mut rng = Rng::new(0);
        for (spec, _) in all_specs() {
            let block = spec.build(&mut rng).unwrap();
            assert_eq!(block.spec(), spec, "{spec:?}");
        }
    }

    #[test]
    fn spec_capacity_matches_built_block() {
        let mut rng = Rng::new(1);
        for (spec, _) in all_specs() {
            let block = spec.build(&mut rng).unwrap();
            assert_eq!(block.capacity(), spec.capacity(), "{spec:?}");
        }
    }

    #[test]
    fn spec_out_shape_matches_real_forward() {
        let mut rng = Rng::new(2);
        for (spec, in_shape) in all_specs() {
            let mut block = spec.build(&mut rng).unwrap();
            let expect = spec.out_shape(&in_shape).unwrap();
            let got = probe(&mut block, &in_shape).unwrap();
            assert_eq!(got, expect, "{spec:?}");
            // The spec recovered from the block agrees too.
            assert_eq!(
                block.spec().out_shape(&in_shape).unwrap(),
                expect,
                "{spec:?}"
            );
        }
    }

    #[test]
    fn out_shape_rejects_mismatched_inputs() {
        let s = BlockSpec::ConvRelu { c_in: 3, c_out: 8 };
        assert!(s.out_shape(&[4, 8, 8]).is_err());
        assert!(s.out_shape(&[8, 8]).is_err());
        let t = BlockSpec::Transformer { d: 8, heads: 2 };
        assert!(t.out_shape(&[4, 9]).is_err());
    }

    #[test]
    fn out_shape_rejects_zero_strides_and_windows() {
        // Specs decoded from a corrupt file must fail, not divide by zero.
        for s in [
            BlockSpec::ConvBnRelu {
                c_in: 3,
                c_out: 8,
                kernel: 3,
                stride: 0,
            },
            BlockSpec::Residual {
                c_in: 3,
                c_out: 8,
                stride: 0,
            },
            BlockSpec::MaxPool { k: 0 },
        ] {
            assert!(s.out_shape(&[3, 8, 8]).is_err(), "{s:?}");
        }
        let p = BlockSpec::PatchEmbed {
            channels: 3,
            img: 8,
            patch: 0,
            d: 8,
        };
        assert!(p.out_shape(&[3, 8, 8]).is_err());
    }

    #[test]
    fn flops_scale_with_paper_scale_widths() {
        // Widening channels 16x multiplies conv FLOPs ~256x: the analytic
        // model reflects paper-scale costs without building weights.
        let mini = BlockSpec::ConvRelu { c_in: 4, c_out: 8 };
        let paper = BlockSpec::ConvRelu {
            c_in: 64,
            c_out: 128,
        };
        let f_mini = mini.flops(&[4, 16, 16]).unwrap();
        let f_paper = paper.flops(&[64, 224, 224]).unwrap();
        assert!(f_paper > f_mini * 10_000);
    }
}
