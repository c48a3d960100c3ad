//! Token and patch embeddings (the input stems of TinyBERT and TinyViT).

use super::missing_cache;
use crate::init;
use crate::layers::Conv2d;
use crate::param::Parameter;
use crate::Mode;
use gmorph_tensor::rng::Rng;
use gmorph_tensor::{Result, Tensor, TensorError};

/// Token embedding with learned positional embeddings.
///
/// Input is a `[N, T]` tensor of token ids stored as `f32` (there is one
/// tensor type in this stack); output is `[N, T, D]`. Ids must be integral
/// values in `0..vocab`.
#[derive(Debug, Clone)]
pub struct TokenEmbed {
    /// Token table `[V, D]`.
    pub table: Parameter,
    /// Positional table `[T_max, D]`.
    pub pos: Parameter,
    cache_ids: Option<Vec<usize>>,
    cache_nt: Option<(usize, usize)>,
}

impl TokenEmbed {
    /// Creates an embedding for `vocab` tokens of width `d`, positions up to
    /// `t_max`.
    pub fn new(vocab: usize, d: usize, t_max: usize, rng: &mut Rng) -> Self {
        TokenEmbed {
            table: Parameter::new(init::embedding_normal(&[vocab, d], rng)),
            pos: Parameter::new(init::embedding_normal(&[t_max, d], rng)),
            cache_ids: None,
            cache_nt: None,
        }
    }

    /// Embedding width.
    pub(crate) fn width(&self) -> usize {
        self.table.value.dims()[1]
    }

    /// Vocabulary size.
    pub(crate) fn vocab(&self) -> usize {
        self.table.value.dims()[0]
    }

    /// Forward pass: `[N, T]` ids to `[N, T, D]` embeddings.
    pub fn forward(&mut self, x: &Tensor, mode: Mode) -> Result<Tensor> {
        if x.shape().rank() != 2 {
            return Err(TensorError::RankMismatch {
                op: "TokenEmbed::forward",
                expected: 2,
                actual: x.shape().rank(),
            });
        }
        let (n, t) = (x.dims()[0], x.dims()[1]);
        if t > self.pos.value.dims()[0] {
            return Err(TensorError::OutOfBounds {
                op: "TokenEmbed::forward",
                index: t,
                bound: self.pos.value.dims()[0],
            });
        }
        let d = self.width();
        let v = self.vocab();
        let mut ids = Vec::with_capacity(n * t);
        let mut out = Tensor::zeros(&[n, t, d]);
        for s in 0..n {
            for p in 0..t {
                let raw = x.data()[s * t + p];
                let id = raw as usize;
                if raw < 0.0 || id >= v || (raw - id as f32).abs() > 1e-3 {
                    return Err(TensorError::InvalidArgument {
                        op: "TokenEmbed::forward",
                        msg: format!("token id {raw} not an integer in 0..{v}"),
                    });
                }
                ids.push(id);
                let dst = (s * t + p) * d;
                let tok = &self.table.value.data()[id * d..(id + 1) * d];
                let pos = &self.pos.value.data()[p * d..(p + 1) * d];
                for j in 0..d {
                    out.data_mut()[dst + j] = tok[j] + pos[j];
                }
            }
        }
        if mode == Mode::Train {
            self.cache_ids = Some(ids);
            self.cache_nt = Some((n, t));
        }
        Ok(out)
    }

    /// Backward pass: scatters gradients into the tables.
    ///
    /// Returns a zero gradient for the (discrete) input.
    pub fn backward(&mut self, grad_y: &Tensor) -> Result<Tensor> {
        let ids = self
            .cache_ids
            .as_ref()
            .ok_or_else(|| missing_cache("TokenEmbed::backward"))?;
        let (n, t) = self.cache_nt.expect("cache_nt set with cache_ids");
        let d = self.width();
        if grad_y.dims() != [n, t, d] {
            return Err(TensorError::ShapeMismatch {
                op: "TokenEmbed::backward",
                lhs: format!("[{n}, {t}, {d}]"),
                rhs: grad_y.shape().to_string(),
            });
        }
        for s in 0..n {
            for p in 0..t {
                let id = ids[s * t + p];
                let src = (s * t + p) * d;
                for j in 0..d {
                    let g = grad_y.data()[src + j];
                    self.table.grad.data_mut()[id * d + j] += g;
                    self.pos.grad.data_mut()[p * d + j] += g;
                }
            }
        }
        Ok(Tensor::zeros(&[n, t]))
    }

    /// Visits the layer's parameters.
    pub fn visit_params(&mut self, f: &mut dyn FnMut(&mut Parameter)) {
        f(&mut self.table);
        f(&mut self.pos);
    }

    /// Read-only parameter visit, in the same order as [`visit_params`].
    ///
    /// [`visit_params`]: TokenEmbed::visit_params
    pub(crate) fn visit_params_ref(&self, f: &mut dyn FnMut(&Parameter)) {
        f(&self.table);
        f(&self.pos);
    }

    /// Drops cached state.
    pub fn clear_cache(&mut self) {
        self.cache_ids = None;
        self.cache_nt = None;
    }
}

/// Patch embedding: non-overlapping conv + flatten + positional embedding.
///
/// Input `[N, C, H, W]`; output `[N, (H/p)*(W/p), D]`.
#[derive(Debug, Clone)]
pub struct PatchEmbed {
    /// The patch projection (kernel = stride = patch size).
    pub proj: Conv2d,
    /// Positional table `[T, D]` where `T = (H/p)*(W/p)`.
    pub pos: Parameter,
    /// Patch size.
    pub patch: usize,
    cache_grid: Option<(usize, usize, usize)>,
}

impl PatchEmbed {
    /// Creates a patch embedding for `img` × `img` inputs with `channels`
    /// input channels, `patch` patch size, width `d`.
    pub fn new(channels: usize, img: usize, patch: usize, d: usize, rng: &mut Rng) -> Result<Self> {
        if patch == 0 || !img.is_multiple_of(patch) {
            return Err(TensorError::InvalidArgument {
                op: "PatchEmbed::new",
                msg: format!("image {img} not divisible by patch {patch}"),
            });
        }
        let grid = img / patch;
        Ok(PatchEmbed {
            proj: Conv2d::new(channels, d, patch, patch, 0, rng)?,
            pos: Parameter::new(init::embedding_normal(&[grid * grid, d], rng)),
            patch,
            cache_grid: None,
        })
    }

    /// Embedding width.
    pub(crate) fn width(&self) -> usize {
        self.proj.out_channels()
    }

    /// Number of tokens produced.
    pub(crate) fn tokens(&self) -> usize {
        self.pos.value.dims()[0]
    }

    /// Forward pass: `[N, C, H, W]` to `[N, T, D]`.
    pub fn forward(&mut self, x: &Tensor, mode: Mode) -> Result<Tensor> {
        let y = self.proj.forward(x, mode)?; // [N, D, gh, gw]
        let (n, d, gh, gw) = (y.dims()[0], y.dims()[1], y.dims()[2], y.dims()[3]);
        let t = gh * gw;
        if t != self.tokens() {
            return Err(TensorError::ShapeMismatch {
                op: "PatchEmbed::forward",
                lhs: format!("[T={}]", self.tokens()),
                rhs: format!("[T={t}]"),
            });
        }
        // Transpose [N, D, T] -> [N, T, D] and add positions.
        let mut out = Tensor::zeros(&[n, t, d]);
        for s in 0..n {
            for tok in 0..t {
                for j in 0..d {
                    out.data_mut()[(s * t + tok) * d + j] =
                        y.data()[(s * d + j) * t + tok] + self.pos.value.data()[tok * d + j];
                }
            }
        }
        if mode == Mode::Train {
            self.cache_grid = Some((n, gh, gw));
        }
        Ok(out)
    }

    /// Backward pass: `[N, T, D]` gradients to `[N, C, H, W]`.
    pub fn backward(&mut self, grad_y: &Tensor) -> Result<Tensor> {
        let (n, gh, gw) = self
            .cache_grid
            .ok_or_else(|| missing_cache("PatchEmbed::backward"))?;
        let d = self.width();
        let t = gh * gw;
        if grad_y.dims() != [n, t, d] {
            return Err(TensorError::ShapeMismatch {
                op: "PatchEmbed::backward",
                lhs: format!("[{n}, {t}, {d}]"),
                rhs: grad_y.shape().to_string(),
            });
        }
        // Positional gradient + transpose back to [N, D, gh, gw].
        let mut gconv = Tensor::zeros(&[n, d, gh, gw]);
        for s in 0..n {
            for tok in 0..t {
                for j in 0..d {
                    let g = grad_y.data()[(s * t + tok) * d + j];
                    self.pos.grad.data_mut()[tok * d + j] += g;
                    gconv.data_mut()[(s * d + j) * t + tok] = g;
                }
            }
        }
        self.proj.backward(&gconv)
    }

    /// Visits the layer's parameters.
    pub fn visit_params(&mut self, f: &mut dyn FnMut(&mut Parameter)) {
        self.proj.visit_params(f);
        f(&mut self.pos);
    }

    /// Read-only parameter visit, in the same order as [`visit_params`].
    ///
    /// [`visit_params`]: PatchEmbed::visit_params
    pub(crate) fn visit_params_ref(&self, f: &mut dyn FnMut(&Parameter)) {
        self.proj.visit_params_ref(f);
        f(&self.pos);
    }

    /// Drops cached state.
    pub fn clear_cache(&mut self) {
        self.proj.clear_cache();
        self.cache_grid = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn token_embed_shapes_and_values() {
        let mut rng = Rng::new(0);
        let mut emb = TokenEmbed::new(10, 4, 8, &mut rng);
        let x = Tensor::from_vec(&[2, 3], vec![0.0, 1.0, 2.0, 3.0, 4.0, 5.0]).unwrap();
        let y = emb.forward(&x, Mode::Eval).unwrap();
        assert_eq!(y.dims(), &[2, 3, 4]);
        // Element = table[id] + pos[p].
        let expect = emb.table.value.data()[4] + emb.pos.value.data()[4];
        assert!((y.at(&[0, 1, 0]).unwrap() - expect).abs() < 1e-6);
    }

    #[test]
    fn token_embed_rejects_bad_ids() {
        let mut rng = Rng::new(0);
        let mut emb = TokenEmbed::new(4, 2, 4, &mut rng);
        let too_big = Tensor::from_vec(&[1, 1], vec![4.0]).unwrap();
        assert!(emb.forward(&too_big, Mode::Eval).is_err());
        let frac = Tensor::from_vec(&[1, 1], vec![1.5]).unwrap();
        assert!(emb.forward(&frac, Mode::Eval).is_err());
        let neg = Tensor::from_vec(&[1, 1], vec![-1.0]).unwrap();
        assert!(emb.forward(&neg, Mode::Eval).is_err());
    }

    #[test]
    fn token_embed_backward_scatters() {
        let mut rng = Rng::new(1);
        let mut emb = TokenEmbed::new(5, 2, 4, &mut rng);
        let x = Tensor::from_vec(&[1, 2], vec![3.0, 3.0]).unwrap();
        let y = emb.forward(&x, Mode::Train).unwrap();
        emb.backward(&Tensor::ones(y.dims())).unwrap();
        // Token 3 used twice: grad 2 per column; others zero.
        assert_eq!(emb.table.grad.data()[3 * 2], 2.0);
        assert_eq!(emb.table.grad.data()[0], 0.0);
        // Each position used once.
        assert_eq!(emb.pos.grad.data()[0], 1.0);
    }

    #[test]
    fn patch_embed_shapes() {
        let mut rng = Rng::new(2);
        let mut pe = PatchEmbed::new(3, 8, 4, 16, &mut rng).unwrap();
        let x = Tensor::randn(&[2, 3, 8, 8], 1.0, &mut rng);
        let y = pe.forward(&x, Mode::Eval).unwrap();
        assert_eq!(y.dims(), &[2, 4, 16]);
        assert_eq!(pe.tokens(), 4);
        assert!(PatchEmbed::new(3, 9, 4, 16, &mut rng).is_err());
    }

    #[test]
    fn patch_embed_gradcheck() {
        let mut rng = Rng::new(3);
        let mut pe = PatchEmbed::new(1, 4, 2, 3, &mut rng).unwrap();
        let x = Tensor::randn(&[1, 1, 4, 4], 1.0, &mut rng);
        let y = pe.forward(&x, Mode::Train).unwrap();
        let gx = pe.backward(&Tensor::ones(y.dims())).unwrap();
        let eps = 1e-2f32;
        for &flat in &[0usize, 5, 15] {
            let mut xp = x.clone();
            xp.data_mut()[flat] += eps;
            let mut xm = x.clone();
            xm.data_mut()[flat] -= eps;
            let mut p2 = pe.clone();
            let num = (p2.forward(&xp, Mode::Eval).unwrap().sum()
                - p2.forward(&xm, Mode::Eval).unwrap().sum())
                / (2.0 * eps);
            assert!((num - gx.data()[flat]).abs() < 0.05);
        }
    }
}
