//! Computation blocks: the unit of graph mutation.
//!
//! The paper observes that "a DNN is a sequence of computation blocks, such
//! as residual blocks in ResNets or convolution layers in VGGs" (§1) and
//! builds its abstract graph over these blocks. [`Block`] is that unit
//! here: a self-contained trainable operator with a forward pass, a
//! backward pass, a per-sample shape function, a parameter count (the
//! *capacity* used by rule-based filtering, §5.1), and a FLOP count (used
//! by the FLOPs estimator and the analytic latency model).
//!
//! The [`Block::Rescale`] variant is the paper's re-scale operator (§4.1):
//! inserted by the model generator when a node reuses features whose shape
//! differs from what it expects — bilinear interpolation for width/height
//! plus a 1×1 convolution for channels (vision), or token-axis
//! interpolation plus a linear projection (transformers).

use crate::layers::{
    BatchNorm2d, Conv2d, LayerNorm, Linear, MultiHeadAttention, PatchEmbed, TokenEmbed,
};
use crate::param::Parameter;
use crate::Mode;
use gmorph_tensor::interp::{resize2d_backward, resize2d_forward, InterpMode};
use gmorph_tensor::ops::{self, Activation};
use gmorph_tensor::pool::{
    global_avgpool_backward, global_avgpool_forward, maxpool2d_backward, maxpool2d_forward,
    MaxPoolForward,
};
use gmorph_tensor::rng::Rng;
use gmorph_tensor::{Result, Tensor, TensorError};

/// Coarse operator type of a block, recorded in abstract-graph nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpType {
    /// Convolution (+ReLU, optionally +BatchNorm).
    Conv,
    /// Residual basic block.
    Residual,
    /// Max pooling.
    Pool,
    /// Transformer encoder block.
    Transformer,
    /// Patch embedding stem.
    PatchEmbed,
    /// Token embedding stem.
    TokenEmbed,
    /// Task head (pool + classifier).
    Head,
    /// Re-scale adapter inserted by the model generator.
    Rescale,
}

impl std::fmt::Display for OpType {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            OpType::Conv => "Conv",
            OpType::Residual => "Residual",
            OpType::Pool => "Pool",
            OpType::Transformer => "Transformer",
            OpType::PatchEmbed => "PatchEmbed",
            OpType::TokenEmbed => "TokenEmbed",
            OpType::Head => "Head",
            OpType::Rescale => "Rescale",
        };
        write!(f, "{s}")
    }
}

/// A trainable computation block (see module docs).
///
/// Variants intentionally hold their layers inline (not boxed): blocks are
/// built once per model and iterated, never moved in bulk, so the size
/// spread is irrelevant in practice.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
pub enum Block {
    /// `relu(conv(x))` — the VGG building block.
    ConvRelu {
        /// The convolution.
        conv: Conv2d,
        /// Cached pre-activation for the ReLU backward.
        cache_pre: Option<Tensor>,
    },
    /// `relu(bn(conv(x)))` — ResNet stems and plain conv blocks.
    ConvBnRelu {
        /// The convolution.
        conv: Conv2d,
        /// The batch norm.
        bn: BatchNorm2d,
        /// Cached pre-activation.
        cache_pre: Option<Tensor>,
    },
    /// A ResNet basic block with optional downsampling projection.
    Residual {
        /// First convolution (carries the stride).
        conv1: Conv2d,
        /// First batch norm.
        bn1: BatchNorm2d,
        /// Second convolution.
        conv2: Conv2d,
        /// Second batch norm.
        bn2: BatchNorm2d,
        /// Optional 1×1 stride-matched projection for the skip path.
        down: Option<(Conv2d, BatchNorm2d)>,
        /// Cached pre-activation of the first ReLU.
        cache_pre1: Option<Tensor>,
        /// Cached pre-activation of the final ReLU (main + skip).
        cache_pre2: Option<Tensor>,
    },
    /// `k`×`k` max pooling with stride `k`.
    MaxPool {
        /// Pooling window.
        k: usize,
        /// Cached forward state (argmax routing).
        cache: Option<(MaxPoolForward, Vec<usize>)>,
    },
    /// A pre-LN transformer encoder block (MHA + GELU MLP).
    Transformer {
        /// First layer norm (before attention).
        ln1: LayerNorm,
        /// Self-attention.
        attn: MultiHeadAttention,
        /// Second layer norm (before the MLP).
        ln2: LayerNorm,
        /// MLP expansion.
        fc1: Linear,
        /// MLP contraction.
        fc2: Linear,
        /// Cached intermediate activations for backward.
        cache: Option<TransformerCache>,
    },
    /// Patch-embedding stem (ViT).
    PatchEmbedB(PatchEmbed),
    /// Token-embedding stem (BERT).
    TokenEmbedB(TokenEmbed),
    /// Task head: global pooling followed by a linear classifier.
    Head {
        /// The classifier.
        linear: Linear,
        /// Cached input dims for the pooling backward.
        cache_dims: Option<Vec<usize>>,
    },
    /// The re-scale adapter (§4.1).
    Rescale {
        /// Source per-sample shape (`[C, H, W]` or `[T, D]`).
        source: Vec<usize>,
        /// Target per-sample shape (`[C, H, W]` or `[T, D]`).
        target: Vec<usize>,
        /// Channel/width projection (1×1 conv for vision, linear for seq).
        /// `None` when the channel/width dimension already matches.
        proj: Option<RescaleProj>,
        /// Cached input dims and intermediate for backward.
        cache: Option<(Vec<usize>, Vec<usize>)>,
    },
}

/// Cached activations of a transformer block's forward pass.
#[derive(Debug, Clone)]
pub struct TransformerCache {
    n: usize,
    t: usize,
    /// Pre-GELU activations of the MLP.
    mlp_pre: Tensor,
}

/// The learnable projection half of a [`Block::Rescale`].
#[derive(Debug, Clone)]
pub enum RescaleProj {
    /// 1×1 convolution adjusting the channel count.
    Conv(Conv2d),
    /// Linear layer adjusting the embedding width.
    Linear(Linear),
}

impl Block {
    // ------------------------------------------------------------------
    // Constructors
    // ------------------------------------------------------------------

    /// VGG-style `conv3x3 + relu` block.
    pub fn conv_relu(c_in: usize, c_out: usize, rng: &mut Rng) -> Result<Block> {
        Ok(Block::ConvRelu {
            conv: Conv2d::new(c_in, c_out, 3, 1, 1, rng)?,
            cache_pre: None,
        })
    }

    /// `conv + bn + relu` block with arbitrary kernel/stride.
    pub fn conv_bn_relu(
        c_in: usize,
        c_out: usize,
        kernel: usize,
        stride: usize,
        rng: &mut Rng,
    ) -> Result<Block> {
        Ok(Block::ConvBnRelu {
            conv: Conv2d::new(c_in, c_out, kernel, stride, kernel / 2, rng)?,
            bn: BatchNorm2d::new(c_out),
            cache_pre: None,
        })
    }

    /// ResNet basic block; `stride > 1` (or channel change) adds a
    /// projection on the skip path.
    pub fn residual(c_in: usize, c_out: usize, stride: usize, rng: &mut Rng) -> Result<Block> {
        let down = if stride != 1 || c_in != c_out {
            Some((
                Conv2d::new(c_in, c_out, 1, stride, 0, rng)?,
                BatchNorm2d::new(c_out),
            ))
        } else {
            None
        };
        Ok(Block::Residual {
            conv1: Conv2d::new(c_in, c_out, 3, stride, 1, rng)?,
            bn1: BatchNorm2d::new(c_out),
            conv2: Conv2d::new(c_out, c_out, 3, 1, 1, rng)?,
            bn2: BatchNorm2d::new(c_out),
            down,
            cache_pre1: None,
            cache_pre2: None,
        })
    }

    /// 2×2 max pooling.
    pub fn maxpool(k: usize) -> Block {
        Block::MaxPool { k, cache: None }
    }

    /// Pre-LN transformer encoder block of width `d` with `heads` heads and
    /// a 4× MLP.
    pub fn transformer(d: usize, heads: usize, rng: &mut Rng) -> Result<Block> {
        Ok(Block::Transformer {
            ln1: LayerNorm::new(d),
            attn: MultiHeadAttention::new(d, heads, rng)?,
            ln2: LayerNorm::new(d),
            fc1: Linear::new(d, 4 * d, rng),
            fc2: Linear::new(4 * d, d, rng),
            cache: None,
        })
    }

    /// ViT patch-embedding stem.
    pub(crate) fn patch_embed(
        channels: usize,
        img: usize,
        patch: usize,
        d: usize,
        rng: &mut Rng,
    ) -> Result<Block> {
        Ok(Block::PatchEmbedB(PatchEmbed::new(
            channels, img, patch, d, rng,
        )?))
    }

    /// BERT token-embedding stem.
    pub(crate) fn token_embed(vocab: usize, d: usize, t_max: usize, rng: &mut Rng) -> Block {
        Block::TokenEmbedB(TokenEmbed::new(vocab, d, t_max, rng))
    }

    /// Task head over `features` inputs producing `classes` logits.
    pub fn head(features: usize, classes: usize, rng: &mut Rng) -> Block {
        Block::Head {
            linear: Linear::new(features, classes, rng),
            cache_dims: None,
        }
    }

    /// Builds the re-scale adapter mapping `from` to `to` per-sample shapes.
    ///
    /// Returns `None` wrapped in `Ok` semantics is not used: when the shapes
    /// are identical the caller should simply not insert a block.
    pub(crate) fn rescale(from: &[usize], to: &[usize], rng: &mut Rng) -> Result<Block> {
        match (from.len(), to.len()) {
            (3, 3) => {
                let proj = if from[0] != to[0] {
                    Some(RescaleProj::Conv(Conv2d::new(
                        from[0], to[0], 1, 1, 0, rng,
                    )?))
                } else {
                    None
                };
                Ok(Block::Rescale {
                    source: from.to_vec(),
                    target: to.to_vec(),
                    proj,
                    cache: None,
                })
            }
            (2, 2) => {
                let proj = if from[1] != to[1] {
                    Some(RescaleProj::Linear(Linear::new(from[1], to[1], rng)))
                } else {
                    None
                };
                Ok(Block::Rescale {
                    source: from.to_vec(),
                    target: to.to_vec(),
                    proj,
                    cache: None,
                })
            }
            _ => Err(TensorError::InvalidArgument {
                op: "Block::rescale",
                msg: format!("unsupported rescale {from:?} -> {to:?}"),
            }),
        }
    }

    // ------------------------------------------------------------------
    // Introspection
    // ------------------------------------------------------------------

    /// Coarse operator type.
    pub fn op_type(&self) -> OpType {
        match self {
            Block::ConvRelu { .. } | Block::ConvBnRelu { .. } => OpType::Conv,
            Block::Residual { .. } => OpType::Residual,
            Block::MaxPool { .. } => OpType::Pool,
            Block::Transformer { .. } => OpType::Transformer,
            Block::PatchEmbedB(_) => OpType::PatchEmbed,
            Block::TokenEmbedB(_) => OpType::TokenEmbed,
            Block::Head { .. } => OpType::Head,
            Block::Rescale { .. } => OpType::Rescale,
        }
    }

    /// Number of trainable scalars (the paper's *capacity*).
    pub fn capacity(&self) -> usize {
        let mut n = 0usize;
        self.visit_params_ref(&mut |p: &Parameter| n += p.numel());
        n
    }

    // ------------------------------------------------------------------
    // Forward / backward
    // ------------------------------------------------------------------

    /// Forward pass over a batched tensor.
    pub fn forward(&mut self, x: &Tensor, mode: Mode) -> Result<Tensor> {
        match self {
            // Eval forwards apply the activation in the kernel epilogue;
            // training keeps the pre-activation for backward.
            Block::ConvRelu { conv, .. } if mode == Mode::Eval => conv.infer(x, Activation::Relu),
            Block::ConvRelu { conv, cache_pre } => {
                let pre = conv.forward(x, mode)?;
                let y = ops::relu_forward(&pre);
                *cache_pre = Some(pre);
                Ok(y)
            }
            // A folded norm is the identity in eval.
            Block::ConvBnRelu { conv, bn, .. } if mode == Mode::Eval && bn.fused => {
                conv.infer(x, Activation::Relu)
            }
            Block::ConvBnRelu {
                conv,
                bn,
                cache_pre,
            } => {
                let pre = bn.forward(&conv.forward(x, mode)?, mode)?;
                let y = ops::relu_forward(&pre);
                if mode == Mode::Train {
                    *cache_pre = Some(pre);
                }
                Ok(y)
            }
            Block::Residual {
                conv1,
                bn1,
                conv2,
                bn2,
                down,
                cache_pre1,
                cache_pre2,
            } => {
                let pre1 = bn1.forward(&conv1.forward(x, mode)?, mode)?;
                let h = ops::relu_forward(&pre1);
                let main = bn2.forward(&conv2.forward(&h, mode)?, mode)?;
                // Identity skips add straight from the input — no clone.
                let pre2 = match down {
                    Some((dc, dbn)) => main.add(&dbn.forward(&dc.forward(x, mode)?, mode)?)?,
                    None => main.add(x)?,
                };
                let y = ops::relu_forward(&pre2);
                if mode == Mode::Train {
                    *cache_pre1 = Some(pre1);
                    *cache_pre2 = Some(pre2);
                }
                Ok(y)
            }
            Block::MaxPool { k, cache } => {
                let mut fwd = maxpool2d_forward(x, *k)?;
                // Backward routes through the argmax indices only, so the
                // output can be moved out instead of cloned.
                let y = std::mem::replace(&mut fwd.output, Tensor::zeros(&[0]));
                if mode == Mode::Train {
                    *cache = Some((fwd, x.dims().to_vec()));
                }
                Ok(y)
            }
            Block::Transformer {
                ln1,
                attn,
                ln2,
                fc1,
                fc2,
                cache,
            } => {
                let (n, t, d) = (x.dims()[0], x.dims()[1], x.dims()[2]);
                let x2 = x.reshape(&[n * t, d])?;
                let h1 = ln1.forward(&x2, mode)?;
                let a = attn.forward(&h1.reshape(&[n, t, d])?, mode)?;
                let r1 = x2.add(&a.reshape(&[n * t, d])?)?;
                let h2 = ln2.forward(&r1, mode)?;
                let h = match mode {
                    Mode::Eval => fc1.infer(&h2, Activation::Gelu)?,
                    Mode::Train => {
                        let mlp_pre = fc1.forward(&h2, mode)?;
                        let h = ops::gelu_forward(&mlp_pre);
                        *cache = Some(TransformerCache { n, t, mlp_pre });
                        h
                    }
                };
                r1.add(&fc2.forward(&h, mode)?)?.reshape(&[n, t, d])
            }
            Block::PatchEmbedB(pe) => pe.forward(x, mode),
            Block::TokenEmbedB(te) => te.forward(x, mode),
            Block::Head { linear, cache_dims } => {
                let pooled = match x.shape().rank() {
                    4 => global_avgpool_forward(x)?,
                    3 => {
                        // Mean over the token axis.
                        let (n, t, d) = (x.dims()[0], x.dims()[1], x.dims()[2]);
                        let mut out = Tensor::zeros(&[n, d]);
                        for s in 0..n {
                            for tok in 0..t {
                                for j in 0..d {
                                    out.data_mut()[s * d + j] += x.data()[(s * t + tok) * d + j];
                                }
                            }
                        }
                        out.scale_in_place(1.0 / t as f32);
                        out
                    }
                    r => {
                        return Err(TensorError::RankMismatch {
                            op: "Head::forward",
                            expected: 4,
                            actual: r,
                        })
                    }
                };
                if mode == Mode::Train {
                    *cache_dims = Some(x.dims().to_vec());
                }
                linear.forward(&pooled, mode)
            }
            Block::Rescale {
                target,
                proj,
                cache,
                ..
            } => match target.len() {
                3 => {
                    let resized = resize2d_forward(x, target[1], target[2], InterpMode::Bilinear)?;
                    let mid_dims = resized.dims().to_vec();
                    let y = match proj {
                        Some(RescaleProj::Conv(c)) => c.forward(&resized, mode)?,
                        Some(RescaleProj::Linear(_)) => {
                            return Err(TensorError::InvalidArgument {
                                op: "Rescale::forward",
                                msg: "linear projection on vision features".to_string(),
                            })
                        }
                        None => resized,
                    };
                    if mode == Mode::Train {
                        *cache = Some((x.dims().to_vec(), mid_dims));
                    }
                    Ok(y)
                }
                2 => {
                    // Interpolate the token axis by viewing [N, 1, T, D].
                    let (n, t_in, d_in) = (x.dims()[0], x.dims()[1], x.dims()[2]);
                    let x4 = x.reshape(&[n, 1, t_in, d_in])?;
                    let resized = resize2d_forward(&x4, target[0], d_in, InterpMode::Bilinear)?;
                    let mid = resized.reshape(&[n * target[0], d_in])?;
                    let mid_dims = vec![n, 1, t_in, d_in];
                    let y = match proj {
                        Some(RescaleProj::Linear(l)) => {
                            l.forward(&mid, mode)?.reshape(&[n, target[0], target[1]])?
                        }
                        Some(RescaleProj::Conv(_)) => {
                            return Err(TensorError::InvalidArgument {
                                op: "Rescale::forward",
                                msg: "conv projection on sequence features".to_string(),
                            })
                        }
                        None => mid.reshape(&[n, target[0], target[1]])?,
                    };
                    if mode == Mode::Train {
                        *cache = Some((x.dims().to_vec(), mid_dims));
                    }
                    Ok(y)
                }
                _ => Err(TensorError::InvalidArgument {
                    op: "Rescale::forward",
                    msg: format!("unsupported target {target:?}"),
                }),
            },
        }
    }

    /// Backward pass; returns the gradient with respect to the input.
    pub fn backward(&mut self, grad_y: &Tensor) -> Result<Tensor> {
        let gx = self.backward_with(grad_y, true)?;
        Ok(gx.expect("input gradient requested"))
    }

    /// Backward pass that accumulates the parameter gradients and returns
    /// the input gradient only when `input_grad` is set. Without it, the
    /// conv-first blocks (`ConvRelu`, `ConvBnRelu`, `Residual`) skip the
    /// input-gradient lowering of the convs that read their input; other
    /// blocks compute the input gradient and drop it. Parameter gradients
    /// are the same bits either way.
    pub fn backward_with(&mut self, grad_y: &Tensor, input_grad: bool) -> Result<Option<Tensor>> {
        let gx = match self {
            Block::ConvRelu { conv, cache_pre } => {
                let pre = cache_pre.as_ref().ok_or_else(|| no_cache("ConvRelu"))?;
                let g = ops::relu_backward(grad_y, pre)?;
                return conv.backward_with(&g, input_grad);
            }
            Block::ConvBnRelu {
                conv,
                bn,
                cache_pre,
            } => {
                let pre = cache_pre.as_ref().ok_or_else(|| no_cache("ConvBnRelu"))?;
                let g = ops::relu_backward(grad_y, pre)?;
                return conv.backward_with(&bn.backward(&g)?, input_grad);
            }
            Block::Residual {
                conv1,
                bn1,
                conv2,
                bn2,
                down,
                cache_pre1,
                cache_pre2,
            } => {
                let pre1 = cache_pre1.as_ref().ok_or_else(|| no_cache("Residual"))?;
                let pre2 = cache_pre2.as_ref().ok_or_else(|| no_cache("Residual"))?;
                let g2 = ops::relu_backward(grad_y, pre2)?;
                // Main path.
                let gm = bn2.backward(&g2)?;
                let gm = conv2.backward(&gm)?;
                let gm = ops::relu_backward(&gm, pre1)?;
                let gm = bn1.backward(&gm)?;
                let gx = conv1.backward_with(&gm, input_grad)?;
                // Skip path.
                let gs = match down {
                    Some((dc, dbn)) => dc.backward_with(&dbn.backward(&g2)?, input_grad)?,
                    None => Some(g2),
                };
                let (Some(mut gx), Some(gs)) = (gx, gs) else {
                    return Ok(None);
                };
                gx.add_assign(&gs)?;
                return Ok(Some(gx));
            }
            Block::MaxPool { cache, .. } => {
                let (fwd, dims) = cache.as_ref().ok_or_else(|| no_cache("MaxPool"))?;
                maxpool2d_backward(grad_y, dims, fwd)
            }
            Block::Transformer {
                ln1,
                attn,
                ln2,
                fc1,
                fc2,
                cache,
            } => {
                let c = cache.take().ok_or_else(|| no_cache("Transformer"))?;
                let (n, t) = (c.n, c.t);
                let d = attn.width();
                let g2 = grad_y.reshape(&[n * t, d])?;
                // Through the MLP branch.
                let gm = fc2.backward(&g2)?;
                let gm = ops::gelu_backward(&gm, &c.mlp_pre)?;
                let gh2 = fc1.backward(&gm)?;
                // r1 receives the residual path and the LN2 path. f32
                // addition commutes, so accumulating into the LN2 gradient
                // (instead of into a clone of g2) is bit-identical.
                let mut gr1 = ln2.backward(&gh2)?;
                gr1.add_assign(&g2)?;
                // Through attention.
                let ga = attn.backward(&gr1.reshape(&[n, t, d])?)?;
                let gh1 = ga.reshape(&[n * t, d])?;
                let mut gx2 = gr1;
                gx2.add_assign(&ln1.backward(&gh1)?)?;
                gx2.reshape(&[n, t, d])
            }
            Block::PatchEmbedB(pe) => pe.backward(grad_y),
            Block::TokenEmbedB(te) => te.backward(grad_y),
            Block::Head { linear, cache_dims } => {
                let dims = cache_dims.as_ref().ok_or_else(|| no_cache("Head"))?;
                let gp = linear.backward(grad_y)?;
                match dims.len() {
                    4 => global_avgpool_backward(&gp, dims),
                    3 => {
                        let (n, t, d) = (dims[0], dims[1], dims[2]);
                        let mut gx = Tensor::zeros(dims);
                        let inv = 1.0 / t as f32;
                        for s in 0..n {
                            for tok in 0..t {
                                for j in 0..d {
                                    gx.data_mut()[(s * t + tok) * d + j] =
                                        gp.data()[s * d + j] * inv;
                                }
                            }
                        }
                        Ok(gx)
                    }
                    _ => Err(no_cache("Head")),
                }
            }
            Block::Rescale {
                target,
                proj,
                cache,
                ..
            } => {
                let (in_dims, mid_dims) = cache.as_ref().ok_or_else(|| no_cache("Rescale"))?;
                match target.len() {
                    3 => {
                        let g = match proj {
                            Some(RescaleProj::Conv(c)) => Some(c.backward(grad_y)?),
                            _ => None,
                        };
                        resize2d_backward(
                            g.as_ref().unwrap_or(grad_y),
                            in_dims,
                            InterpMode::Bilinear,
                        )
                    }
                    2 => {
                        let n = in_dims[0];
                        let g = match proj {
                            Some(RescaleProj::Linear(l)) => {
                                let g2 = grad_y.reshape(&[n * target[0], target[1]])?;
                                l.backward(&g2)?
                            }
                            _ => grad_y.reshape(&[n * target[0], in_dims[2]])?,
                        };
                        let g4 = g.reshape(&[n, 1, target[0], in_dims[2]])?;
                        let gx = resize2d_backward(&g4, mid_dims, InterpMode::Bilinear)?;
                        gx.reshape(in_dims)
                    }
                    _ => Err(no_cache("Rescale")),
                }
            }
        };
        gx.map(Some)
    }

    // ------------------------------------------------------------------
    // Parameter plumbing
    // ------------------------------------------------------------------

    /// Visits every trainable parameter.
    pub fn visit_params(&mut self, f: &mut dyn FnMut(&mut Parameter)) {
        match self {
            Block::ConvRelu { conv, .. } => conv.visit_params(f),
            Block::ConvBnRelu { conv, bn, .. } => {
                conv.visit_params(f);
                bn.visit_params(f);
            }
            Block::Residual {
                conv1,
                bn1,
                conv2,
                bn2,
                down,
                ..
            } => {
                conv1.visit_params(f);
                bn1.visit_params(f);
                conv2.visit_params(f);
                bn2.visit_params(f);
                if let Some((dc, dbn)) = down {
                    dc.visit_params(f);
                    dbn.visit_params(f);
                }
            }
            Block::MaxPool { .. } => {}
            Block::Transformer {
                ln1,
                attn,
                ln2,
                fc1,
                fc2,
                ..
            } => {
                ln1.visit_params(f);
                attn.visit_params(f);
                ln2.visit_params(f);
                fc1.visit_params(f);
                fc2.visit_params(f);
            }
            Block::PatchEmbedB(pe) => pe.visit_params(f),
            Block::TokenEmbedB(te) => te.visit_params(f),
            Block::Head { linear, .. } => linear.visit_params(f),
            Block::Rescale { proj, .. } => match proj {
                Some(RescaleProj::Conv(c)) => c.visit_params(f),
                Some(RescaleProj::Linear(l)) => l.visit_params(f),
                None => {}
            },
        }
    }

    /// Read-only parameter visit, in the same order as [`visit_params`].
    ///
    /// Lets introspection ([`capacity`], [`state`]) walk the parameters
    /// without cloning the whole block first.
    ///
    /// [`visit_params`]: Block::visit_params
    /// [`capacity`]: Block::capacity
    /// [`state`]: Block::state
    pub(crate) fn visit_params_ref(&self, f: &mut dyn FnMut(&Parameter)) {
        match self {
            Block::ConvRelu { conv, .. } => conv.visit_params_ref(f),
            Block::ConvBnRelu { conv, bn, .. } => {
                conv.visit_params_ref(f);
                bn.visit_params_ref(f);
            }
            Block::Residual {
                conv1,
                bn1,
                conv2,
                bn2,
                down,
                ..
            } => {
                conv1.visit_params_ref(f);
                bn1.visit_params_ref(f);
                conv2.visit_params_ref(f);
                bn2.visit_params_ref(f);
                if let Some((dc, dbn)) = down {
                    dc.visit_params_ref(f);
                    dbn.visit_params_ref(f);
                }
            }
            Block::MaxPool { .. } => {}
            Block::Transformer {
                ln1,
                attn,
                ln2,
                fc1,
                fc2,
                ..
            } => {
                ln1.visit_params_ref(f);
                attn.visit_params_ref(f);
                ln2.visit_params_ref(f);
                fc1.visit_params_ref(f);
                fc2.visit_params_ref(f);
            }
            Block::PatchEmbedB(pe) => pe.visit_params_ref(f),
            Block::TokenEmbedB(te) => te.visit_params_ref(f),
            Block::Head { linear, .. } => linear.visit_params_ref(f),
            Block::Rescale { proj, .. } => match proj {
                Some(RescaleProj::Conv(c)) => c.visit_params_ref(f),
                Some(RescaleProj::Linear(l)) => l.visit_params_ref(f),
                None => {}
            },
        }
    }

    /// Visits every persistent tensor: parameter values plus non-trainable
    /// buffers (batch-norm running statistics). Used for serialization.
    pub fn visit_state(&mut self, f: &mut dyn FnMut(&mut Tensor)) {
        // Parameters first, in visit order.
        self.visit_params(&mut |p: &mut Parameter| f(&mut p.value));
        // Then buffers.
        match self {
            Block::ConvBnRelu { bn, .. } => {
                f(&mut bn.running_mean);
                f(&mut bn.running_var);
            }
            Block::Residual { bn1, bn2, down, .. } => {
                f(&mut bn1.running_mean);
                f(&mut bn1.running_var);
                f(&mut bn2.running_mean);
                f(&mut bn2.running_var);
                if let Some((_, dbn)) = down {
                    f(&mut dbn.running_mean);
                    f(&mut dbn.running_var);
                }
            }
            _ => {}
        }
    }

    /// Read-only state visit, in the same order as [`visit_state`].
    ///
    /// [`visit_state`]: Block::visit_state
    pub(crate) fn visit_state_ref(&self, f: &mut dyn FnMut(&Tensor)) {
        // Parameters first, in visit order.
        self.visit_params_ref(&mut |p: &Parameter| f(&p.value));
        // Then buffers.
        match self {
            Block::ConvBnRelu { bn, .. } => {
                f(&bn.running_mean);
                f(&bn.running_var);
            }
            Block::Residual { bn1, bn2, down, .. } => {
                f(&bn1.running_mean);
                f(&bn1.running_var);
                f(&bn2.running_mean);
                f(&bn2.running_var);
                if let Some((_, dbn)) = down {
                    f(&dbn.running_mean);
                    f(&dbn.running_var);
                }
            }
            _ => {}
        }
    }

    /// Extracts the persistent state as an ordered list of tensors.
    pub fn state(&self) -> Vec<Tensor> {
        let mut out = Vec::new();
        self.visit_state_ref(&mut |t: &Tensor| out.push(t.clone()));
        out
    }

    /// Loads persistent state produced by [`Block::state`] from an
    /// architecturally identical block.
    pub fn load_state(&mut self, state: &[Tensor]) -> Result<()> {
        let mut idx = 0usize;
        let mut err = None;
        self.visit_state(&mut |t: &mut Tensor| {
            if err.is_some() {
                return;
            }
            match state.get(idx) {
                Some(s) if s.dims() == t.dims() => *t = s.clone(),
                Some(s) => {
                    err = Some(TensorError::ShapeMismatch {
                        op: "Block::load_state",
                        lhs: t.shape().to_string(),
                        rhs: s.shape().to_string(),
                    })
                }
                None => {
                    err = Some(TensorError::InvalidArgument {
                        op: "Block::load_state",
                        msg: "state too short".to_string(),
                    })
                }
            }
            idx += 1;
        });
        if let Some(e) = err {
            return Err(e);
        }
        if idx != state.len() {
            return Err(TensorError::InvalidArgument {
                op: "Block::load_state",
                msg: format!("state has {} tensors, block expects {}", state.len(), idx),
            });
        }
        // Loading fresh values invalidates optimizer moments.
        self.visit_params(&mut |p: &mut Parameter| {
            let v = p.value.clone();
            p.load_value(v);
        });
        Ok(())
    }

    /// Drops all cached activations (e.g. before measuring inference).
    pub fn clear_cache(&mut self) {
        match self {
            Block::ConvRelu { conv, cache_pre } => {
                conv.clear_cache();
                *cache_pre = None;
            }
            Block::ConvBnRelu {
                conv,
                bn,
                cache_pre,
            } => {
                conv.clear_cache();
                bn.clear_cache();
                *cache_pre = None;
            }
            Block::Residual {
                conv1,
                bn1,
                conv2,
                bn2,
                down,
                cache_pre1,
                cache_pre2,
            } => {
                conv1.clear_cache();
                bn1.clear_cache();
                conv2.clear_cache();
                bn2.clear_cache();
                if let Some((dc, dbn)) = down {
                    dc.clear_cache();
                    dbn.clear_cache();
                }
                *cache_pre1 = None;
                *cache_pre2 = None;
            }
            Block::MaxPool { cache, .. } => *cache = None,
            Block::Transformer {
                ln1,
                attn,
                ln2,
                fc1,
                fc2,
                cache,
            } => {
                ln1.clear_cache();
                attn.clear_cache();
                ln2.clear_cache();
                fc1.clear_cache();
                fc2.clear_cache();
                *cache = None;
            }
            Block::PatchEmbedB(pe) => pe.clear_cache(),
            Block::TokenEmbedB(te) => te.clear_cache(),
            Block::Head { linear, cache_dims } => {
                linear.clear_cache();
                *cache_dims = None;
            }
            Block::Rescale { proj, cache, .. } => {
                match proj {
                    Some(RescaleProj::Conv(c)) => c.clear_cache(),
                    Some(RescaleProj::Linear(l)) => l.clear_cache(),
                    None => {}
                }
                *cache = None;
            }
        }
    }
}

fn no_cache(which: &'static str) -> TensorError {
    TensorError::InvalidArgument {
        op: "Block::backward",
        msg: format!("{which}: backward called without a cached training forward"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gradcheck_block(block: &mut Block, x: &Tensor, tol: f32) {
        let mut rng = Rng::new(1234);
        let y = block.forward(x, Mode::Train).unwrap();
        let w = Tensor::randn(&[y.numel()], 1.0, &mut rng);
        let g = Tensor::from_vec(y.dims(), w.data().to_vec()).unwrap();
        let gx = block.backward(&g).unwrap();
        assert_eq!(gx.dims(), x.dims());
        let eps = 1e-2f32;
        let loss = |b: &mut Block, x: &Tensor| -> f32 {
            b.forward(x, Mode::Train)
                .unwrap()
                .data()
                .iter()
                .zip(w.data())
                .map(|(a, b)| a * b)
                .sum()
        };
        let count = x.numel().min(12);
        let step = (x.numel() / count).max(1);
        for i in (0..x.numel()).step_by(step).take(count) {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let mut xm = x.clone();
            xm.data_mut()[i] -= eps;
            let mut b2 = block.clone();
            let num = (loss(&mut b2, &xp) - loss(&mut b2, &xm)) / (2.0 * eps);
            assert!(
                (num - gx.data()[i]).abs() < tol,
                "dX[{i}]: {num} vs {}",
                gx.data()[i]
            );
        }
    }

    #[test]
    fn conv_relu_shapes_and_grad() {
        let mut rng = Rng::new(0);
        let mut b = Block::conv_relu(2, 4, &mut rng).unwrap();
        assert_eq!(b.spec().out_shape(&[2, 6, 6]).unwrap(), vec![4, 6, 6]);
        assert_eq!(b.op_type(), OpType::Conv);
        let x = Tensor::randn(&[1, 2, 4, 4], 1.0, &mut rng);
        gradcheck_block(&mut b, &x, 0.08);
    }

    #[test]
    fn conv_bn_relu_grad() {
        let mut rng = Rng::new(1);
        let mut b = Block::conv_bn_relu(2, 3, 3, 1, &mut rng).unwrap();
        let x = Tensor::randn(&[2, 2, 4, 4], 1.0, &mut rng);
        gradcheck_block(&mut b, &x, 0.1);
    }

    #[test]
    fn residual_block_shapes() {
        let mut rng = Rng::new(2);
        let same = Block::residual(8, 8, 1, &mut rng).unwrap();
        assert_eq!(same.spec().out_shape(&[8, 8, 8]).unwrap(), vec![8, 8, 8]);
        let down = Block::residual(8, 16, 2, &mut rng).unwrap();
        assert_eq!(down.spec().out_shape(&[8, 8, 8]).unwrap(), vec![16, 4, 4]);
        // No projection when shape is preserved.
        if let Block::Residual { down: d, .. } = &same {
            assert!(d.is_none());
        }
        if let Block::Residual { down: d, .. } = &down {
            assert!(d.is_some());
        }
    }

    #[test]
    fn skipping_the_input_gradient_keeps_parameter_gradients() {
        let mut rng = Rng::new(4);
        let blocks = [
            Block::conv_relu(3, 4, &mut rng).unwrap(),
            Block::conv_bn_relu(3, 4, 3, 2, &mut rng).unwrap(),
            Block::residual(3, 3, 1, &mut rng).unwrap(),
            Block::residual(3, 6, 2, &mut rng).unwrap(),
            Block::maxpool(2),
        ];
        let x = Tensor::randn(&[3, 3, 8, 8], 1.0, &mut rng);
        for block in blocks {
            let grads = |input_grad: bool| {
                let mut b = block.clone();
                let y = b.forward(&x, Mode::Train).unwrap();
                let g = Tensor::randn(y.dims(), 1.0, &mut Rng::new(5));
                let gx = b.backward_with(&g, input_grad).unwrap();
                let mut params = Vec::new();
                b.visit_params_ref(&mut |p| params.push(p.grad.data().to_vec()));
                (gx, params)
            };
            let (with_gx, with) = grads(true);
            let (without_gx, without) = grads(false);
            let what = block.spec().describe();
            assert_eq!(with_gx.unwrap().dims(), x.dims(), "{what}");
            let conv_first = !matches!(block, Block::MaxPool { .. });
            assert_eq!(without_gx.is_none(), conv_first, "{what}");
            assert!(!with.is_empty() || !conv_first, "{what}");
            assert_eq!(with, without, "{what}: parameter gradients differ");
        }
    }

    #[test]
    fn residual_block_grad() {
        let mut rng = Rng::new(3);
        let mut b = Block::residual(2, 4, 2, &mut rng).unwrap();
        let x = Tensor::randn(&[2, 2, 4, 4], 1.0, &mut rng);
        gradcheck_block(&mut b, &x, 0.12);
    }

    #[test]
    fn maxpool_block() {
        let mut rng = Rng::new(4);
        let mut b = Block::maxpool(2);
        assert_eq!(b.spec().out_shape(&[3, 8, 8]).unwrap(), vec![3, 4, 4]);
        assert_eq!(b.capacity(), 0);
        let x = Tensor::randn(&[1, 1, 4, 4], 1.0, &mut rng);
        gradcheck_block(&mut b, &x, 0.05);
    }

    #[test]
    fn transformer_block_grad() {
        let mut rng = Rng::new(5);
        let mut b = Block::transformer(4, 2, &mut rng).unwrap();
        assert_eq!(b.spec().out_shape(&[3, 4]).unwrap(), vec![3, 4]);
        let x = Tensor::randn(&[1, 3, 4], 0.5, &mut rng);
        gradcheck_block(&mut b, &x, 0.15);
    }

    #[test]
    fn head_vision_and_seq() {
        let mut rng = Rng::new(6);
        let mut hv = Block::head(4, 3, &mut rng);
        assert_eq!(hv.spec().out_shape(&[4, 5, 5]).unwrap(), vec![3]);
        let x = Tensor::randn(&[2, 4, 3, 3], 1.0, &mut rng);
        gradcheck_block(&mut hv, &x, 0.05);

        let mut hs = Block::head(4, 2, &mut rng);
        assert_eq!(hs.spec().out_shape(&[7, 4]).unwrap(), vec![2]);
        let xs = Tensor::randn(&[2, 3, 4], 1.0, &mut rng);
        gradcheck_block(&mut hs, &xs, 0.05);

        assert!(hs.spec().out_shape(&[5, 5]).is_err());
    }

    #[test]
    fn rescale_vision_grad() {
        let mut rng = Rng::new(7);
        let mut b = Block::rescale(&[2, 4, 4], &[3, 6, 6], &mut rng).unwrap();
        assert_eq!(b.spec().out_shape(&[2, 4, 4]).unwrap(), vec![3, 6, 6]);
        let x = Tensor::randn(&[1, 2, 4, 4], 1.0, &mut rng);
        gradcheck_block(&mut b, &x, 0.08);
    }

    #[test]
    fn rescale_seq_grad() {
        let mut rng = Rng::new(8);
        let mut b = Block::rescale(&[4, 6], &[6, 4], &mut rng).unwrap();
        assert_eq!(b.spec().out_shape(&[4, 6]).unwrap(), vec![6, 4]);
        let x = Tensor::randn(&[2, 4, 6], 1.0, &mut rng);
        gradcheck_block(&mut b, &x, 0.08);
    }

    #[test]
    fn rescale_without_channel_change_has_no_params() {
        let mut rng = Rng::new(9);
        let b = Block::rescale(&[4, 8, 8], &[4, 4, 4], &mut rng).unwrap();
        assert_eq!(b.capacity(), 0);
        let b = Block::rescale(&[4, 8, 8], &[8, 4, 4], &mut rng).unwrap();
        assert!(b.capacity() > 0);
    }

    #[test]
    fn patch_and_token_embed_shapes() {
        let mut rng = Rng::new(10);
        let pe = Block::patch_embed(3, 8, 4, 16, &mut rng).unwrap();
        assert_eq!(pe.spec().out_shape(&[3, 8, 8]).unwrap(), vec![4, 16]);
        assert!(pe.spec().out_shape(&[3, 7, 8]).is_err());
        let te = Block::token_embed(32, 8, 16, &mut rng);
        assert_eq!(te.spec().out_shape(&[10]).unwrap(), vec![10, 8]);
    }

    #[test]
    fn capacity_counts_match_layers() {
        let mut rng = Rng::new(11);
        let b = Block::conv_relu(3, 8, &mut rng).unwrap();
        assert_eq!(b.capacity(), 8 * 3 * 9 + 8);
        let h = Block::head(16, 5, &mut rng);
        assert_eq!(h.capacity(), 16 * 5 + 5);
    }

    #[test]
    fn flops_increase_with_input_size() {
        let mut rng = Rng::new(12);
        let b = Block::conv_relu(4, 8, &mut rng).unwrap();
        let small = b.spec().flops(&[4, 8, 8]).unwrap();
        let large = b.spec().flops(&[4, 16, 16]).unwrap();
        assert_eq!(large, small * 4);
    }

    #[test]
    fn state_roundtrip() {
        let mut rng = Rng::new(13);
        let src = Block::residual(2, 4, 2, &mut rng).unwrap();
        let mut dst = Block::residual(2, 4, 2, &mut rng).unwrap();
        let state = src.state();
        assert!(!state.is_empty());
        dst.load_state(&state).unwrap();
        // Same weights produce the same output.
        let x = Tensor::randn(&[1, 2, 4, 4], 1.0, &mut rng);
        let mut a = src.clone();
        let mut b = dst.clone();
        let ya = a.forward(&x, Mode::Eval).unwrap();
        let yb = b.forward(&x, Mode::Eval).unwrap();
        for (p, q) in ya.data().iter().zip(yb.data()) {
            assert!((p - q).abs() < 1e-6);
        }
        // Mismatched architecture is rejected.
        let mut other = Block::conv_relu(2, 4, &mut rng).unwrap();
        assert!(other.load_state(&state).is_err());
    }

    #[test]
    fn transformer_state_roundtrip() {
        let mut rng = Rng::new(21);
        let src = Block::transformer(8, 2, &mut rng).unwrap();
        let mut dst = Block::transformer(8, 2, &mut rng).unwrap();
        dst.load_state(&src.state()).unwrap();
        let x = Tensor::randn(&[1, 4, 8], 1.0, &mut rng);
        let ya = src.clone().forward(&x, Mode::Eval).unwrap();
        let yb = dst.forward(&x, Mode::Eval).unwrap();
        for (a, b) in ya.data().iter().zip(yb.data()) {
            assert!((a - b).abs() < 1e-5);
        }
        // Width mismatch rejected.
        let mut other = Block::transformer(4, 2, &mut rng).unwrap();
        assert!(other.load_state(&src.state()).is_err());
    }

    #[test]
    fn rescale_state_roundtrip_covers_both_projections() {
        let mut rng = Rng::new(22);
        for (from, to) in [
            (vec![4usize, 8, 8], vec![8usize, 4, 4]), // Conv projection.
            (vec![6, 8], vec![4, 12]),                // Linear projection.
        ] {
            let src = Block::rescale(&from, &to, &mut rng).unwrap();
            let mut dst = Block::rescale(&from, &to, &mut rng).unwrap();
            dst.load_state(&src.state()).unwrap();
            assert_eq!(src.state(), dst.state());
        }
    }

    #[test]
    fn clear_cache_resets_every_variant() {
        let mut rng = Rng::new(23);
        let mut blocks = vec![
            Block::conv_relu(2, 3, &mut rng).unwrap(),
            Block::conv_bn_relu(2, 3, 3, 1, &mut rng).unwrap(),
            Block::residual(2, 3, 1, &mut rng).unwrap(),
            Block::maxpool(2),
            Block::head(2, 2, &mut rng),
            Block::rescale(&[2, 4, 4], &[3, 2, 2], &mut rng).unwrap(),
        ];
        let x = Tensor::randn(&[1, 2, 4, 4], 1.0, &mut rng);
        for b in &mut blocks {
            b.forward(&x, Mode::Train).unwrap();
            b.clear_cache();
            // Backward after clearing must error (cache really dropped).
            let g = Tensor::ones(&[1]);
            assert!(b.backward(&g).is_err(), "{}", b.spec().describe());
        }
    }

    #[test]
    fn forward_eval_does_not_populate_caches() {
        let mut rng = Rng::new(24);
        let mut b = Block::conv_relu(2, 3, &mut rng).unwrap();
        let x = Tensor::randn(&[1, 2, 4, 4], 1.0, &mut rng);
        b.forward(&x, Mode::Eval).unwrap();
        assert!(b.backward(&Tensor::ones(&[1, 3, 4, 4])).is_err());
    }

    #[test]
    fn backward_without_forward_is_error() {
        let mut rng = Rng::new(14);
        let mut b = Block::conv_relu(2, 2, &mut rng).unwrap();
        assert!(b.backward(&Tensor::ones(&[1, 2, 4, 4])).is_err());
    }

    #[test]
    fn describe_is_informative() {
        let mut rng = Rng::new(15);
        let b = Block::residual(8, 16, 2, &mut rng).unwrap();
        assert!(b.spec().describe().contains("Residual"));
        assert!(b.spec().describe().contains("16"));
    }
}
