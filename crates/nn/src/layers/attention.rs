//! Multi-head self-attention.

use super::missing_cache;
use crate::layers::Linear;
use crate::param::Parameter;
use crate::Mode;
use gmorph_tensor::engine;
use gmorph_tensor::ops::{softmax_rows, softmax_rows_backward};
use gmorph_tensor::rng::Rng;
use gmorph_tensor::{gemm, Result, Tensor, TensorError};

/// Below this much work per pass, `n·heads·t·t·dh` (the multiply-adds of
/// the score GEMMs), the heads run inline on the calling thread: handing a
/// few tiny GEMMs to the pool costs more than it saves. The heads run in the
/// same index order either way, so the switch changes no bits.
const PAR_MIN: usize = 1 << 16;

/// Multi-head self-attention over `[N, T, D]` sequences.
///
/// This is the attention used by the TinyViT/TinyBERT models in the zoo.
/// Heads are computed with explicit per-(sample, head) GEMMs, dispatched
/// across the shared worker pool when there is enough work ([`PAR_MIN`]);
/// results are gathered in `(sample, head)` order, so outputs are identical
/// at any thread count.
#[derive(Debug, Clone)]
pub struct MultiHeadAttention {
    /// Query projection.
    pub wq: Linear,
    /// Key projection.
    pub wk: Linear,
    /// Value projection.
    pub wv: Linear,
    /// Output projection.
    pub wo: Linear,
    /// Number of attention heads (must divide the model width).
    pub heads: usize,
    cache: Option<AttnCache>,
}

#[derive(Debug, Clone)]
struct AttnCache {
    q: Tensor,
    k: Tensor,
    v: Tensor,
    /// Softmax outputs, one `[T, T]` per (sample, head).
    probs: Vec<Tensor>,
    n: usize,
    t: usize,
}

impl MultiHeadAttention {
    /// Creates an attention layer of width `d` with `heads` heads.
    pub fn new(d: usize, heads: usize, rng: &mut Rng) -> Result<Self> {
        if heads == 0 || !d.is_multiple_of(heads) {
            return Err(TensorError::InvalidArgument {
                op: "MultiHeadAttention::new",
                msg: format!("width {d} not divisible by heads {heads}"),
            });
        }
        Ok(MultiHeadAttention {
            wq: Linear::new(d, d, rng),
            wk: Linear::new(d, d, rng),
            wv: Linear::new(d, d, rng),
            wo: Linear::new(d, d, rng),
            heads,
            cache: None,
        })
    }

    /// Model width.
    pub(crate) fn width(&self) -> usize {
        self.wq.in_features()
    }

    /// Computes `f(i)` for every (sample, head) index `i < n·heads`, in
    /// index order: on the worker pool when the pass reaches [`PAR_MIN`],
    /// else inline.
    fn map_heads<T: Send>(&self, n: usize, t: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
        let count = n * self.heads;
        if count * t * t * (self.width() / self.heads) < PAR_MIN {
            (0..count).map(f).collect()
        } else {
            engine::parallel_map(count, f)
        }
    }

    /// Extracts head `h` of rows `n*t .. n*t+t` from a `[N*T, D]` matrix.
    fn head_slice(m: &Tensor, n: usize, t: usize, h: usize, dh: usize) -> Tensor {
        let d = m.dims()[1];
        let mut out = Vec::with_capacity(t * dh);
        for row in 0..t {
            let base = (n * t + row) * d + h * dh;
            out.extend_from_slice(&m.data()[base..base + dh]);
        }
        Tensor::from_vec(&[t, dh], out).expect("head slice shape is consistent")
    }

    /// Adds a `[T, dh]` head matrix back into rows of a `[N*T, D]` matrix.
    fn head_scatter(m: &mut Tensor, src: &Tensor, n: usize, t: usize, h: usize, dh: usize) {
        let d = m.dims()[1];
        for row in 0..t {
            let base = (n * t + row) * d + h * dh;
            for j in 0..dh {
                m.data_mut()[base + j] += src.data()[row * dh + j];
            }
        }
    }

    /// Forward pass over `[N, T, D]`.
    pub fn forward(&mut self, x: &Tensor, mode: Mode) -> Result<Tensor> {
        if x.shape().rank() != 3 || x.dims()[2] != self.width() {
            return Err(TensorError::ShapeMismatch {
                op: "MultiHeadAttention::forward",
                lhs: format!("[N, T, {}]", self.width()),
                rhs: x.shape().to_string(),
            });
        }
        let (n, t, d) = (x.dims()[0], x.dims()[1], x.dims()[2]);
        let dh = d / self.heads;
        let scale = 1.0 / (dh as f32).sqrt();
        let x2 = x.reshape(&[n * t, d])?;
        let q = self.wq.forward(&x2, mode)?;
        let k = self.wk.forward(&x2, mode)?;
        let v = self.wv.forward(&x2, mode)?;

        // Each (sample, head) is independent; compute them across the worker
        // pool, then scatter serially in (s, h) order so the cached probs and
        // the summed context are identical at any thread count.
        let heads = self.heads;
        let per_head = self.map_heads(n, t, |i| -> Result<(Tensor, Tensor)> {
            let (s, h) = (i / heads, i % heads);
            let qh = Self::head_slice(&q, s, t, h, dh);
            let kh = Self::head_slice(&k, s, t, h, dh);
            let vh = Self::head_slice(&v, s, t, h, dh);
            let scores = gemm::matmul_nt(&qh, &kh)?.scale(scale);
            let a = softmax_rows(&scores)?;
            let out = gemm::matmul(&a, &vh)?;
            Ok((out, a))
        });

        let mut ctx = Tensor::zeros(&[n * t, d]);
        let mut probs = Vec::with_capacity(n * heads);
        for (i, res) in per_head.into_iter().enumerate() {
            let (out, a) = res?;
            let (s, h) = (i / heads, i % heads);
            Self::head_scatter(&mut ctx, &out, s, t, h, dh);
            if mode == Mode::Train {
                probs.push(a);
            }
        }
        let y2 = self.wo.forward(&ctx, mode)?;
        // Report-only numeric health: softmax over diverged scores is the
        // usual place NaNs first surface in a transformer, so a violation
        // here is a structured eval.health event (debug and release alike),
        // never an assert — the supervisor decides containment.
        crate::health::observe_slice(
            crate::health::NumericCheck::Activation,
            "MultiHeadAttention::forward",
            y2.data(),
        );
        if mode == Mode::Train {
            self.cache = Some(AttnCache {
                q,
                k,
                v,
                probs,
                n,
                t,
            });
        }
        y2.reshape(&[n, t, d])
    }

    /// Backward pass over `[N, T, D]` gradients.
    pub fn backward(&mut self, grad_y: &Tensor) -> Result<Tensor> {
        let cache = self
            .cache
            .take()
            .ok_or_else(|| missing_cache("MultiHeadAttention::backward"))?;
        let (n, t) = (cache.n, cache.t);
        let d = self.width();
        let dh = d / self.heads;
        let scale = 1.0 / (dh as f32).sqrt();
        let g2 = grad_y.reshape(&[n * t, d])?;
        let gctx = self.wo.backward(&g2)?;

        // Per-head gradients in parallel, serial scatter in (s, h) order —
        // same decomposition as forward, so results are thread-count
        // independent.
        let heads = self.heads;
        let per_head = self.map_heads(n, t, |i| -> Result<(Tensor, Tensor, Tensor)> {
            let (s, h) = (i / heads, i % heads);
            let a = &cache.probs[s * heads + h];
            let gout = Self::head_slice(&gctx, s, t, h, dh);
            let qh = Self::head_slice(&cache.q, s, t, h, dh);
            let kh = Self::head_slice(&cache.k, s, t, h, dh);
            let vh = Self::head_slice(&cache.v, s, t, h, dh);
            // dV = Aᵀ · dOut, dA = dOut · Vᵀ.
            let gvh = gemm::matmul_tn(a, &gout)?;
            let ga = gemm::matmul_nt(&gout, &vh)?;
            // Back through softmax, then dQ = dS·K·scale, dK = dSᵀ·Q·scale.
            let gs = softmax_rows_backward(&ga, a)?;
            let gqh = gemm::matmul(&gs, &kh)?.scale(scale);
            let gkh = gemm::matmul_tn(&gs, &qh)?.scale(scale);
            Ok((gqh, gkh, gvh))
        });

        let mut gq = Tensor::zeros(&[n * t, d]);
        let mut gk = Tensor::zeros(&[n * t, d]);
        let mut gv = Tensor::zeros(&[n * t, d]);
        for (i, res) in per_head.into_iter().enumerate() {
            let (gqh, gkh, gvh) = res?;
            let (s, h) = (i / heads, i % heads);
            Self::head_scatter(&mut gq, &gqh, s, t, h, dh);
            Self::head_scatter(&mut gk, &gkh, s, t, h, dh);
            Self::head_scatter(&mut gv, &gvh, s, t, h, dh);
        }
        let mut gx = self.wq.backward(&gq)?;
        gx.add_assign(&self.wk.backward(&gk)?)?;
        gx.add_assign(&self.wv.backward(&gv)?)?;
        gx.reshape(&[n, t, d])
    }

    /// Visits the layer's parameters.
    pub fn visit_params(&mut self, f: &mut dyn FnMut(&mut Parameter)) {
        self.wq.visit_params(f);
        self.wk.visit_params(f);
        self.wv.visit_params(f);
        self.wo.visit_params(f);
    }

    /// Read-only parameter visit, in the same order as [`visit_params`].
    ///
    /// [`visit_params`]: MultiHeadAttention::visit_params
    pub(crate) fn visit_params_ref(&self, f: &mut dyn FnMut(&Parameter)) {
        self.wq.visit_params_ref(f);
        self.wk.visit_params_ref(f);
        self.wv.visit_params_ref(f);
        self.wo.visit_params_ref(f);
    }

    /// Drops cached activations.
    pub fn clear_cache(&mut self) {
        self.cache = None;
        self.wq.clear_cache();
        self.wk.clear_cache();
        self.wv.clear_cache();
        self.wo.clear_cache();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_shape() {
        let mut rng = Rng::new(0);
        let mut attn = MultiHeadAttention::new(8, 2, &mut rng).unwrap();
        let x = Tensor::randn(&[2, 5, 8], 1.0, &mut rng);
        let y = attn.forward(&x, Mode::Eval).unwrap();
        assert_eq!(y.dims(), &[2, 5, 8]);
    }

    #[test]
    fn rejects_indivisible_heads() {
        let mut rng = Rng::new(0);
        assert!(MultiHeadAttention::new(8, 3, &mut rng).is_err());
        assert!(MultiHeadAttention::new(8, 0, &mut rng).is_err());
    }

    #[test]
    fn attention_is_permutation_sensitive_but_finite() {
        let mut rng = Rng::new(1);
        let mut attn = MultiHeadAttention::new(4, 1, &mut rng).unwrap();
        let x = Tensor::randn(&[1, 3, 4], 1.0, &mut rng);
        let y = attn.forward(&x, Mode::Eval).unwrap();
        for &v in y.data() {
            assert!(v.is_finite());
        }
    }

    #[test]
    fn gradient_check_input() {
        let mut rng = Rng::new(2);
        let mut attn = MultiHeadAttention::new(4, 2, &mut rng).unwrap();
        let x = Tensor::randn(&[1, 3, 4], 0.5, &mut rng);
        let w = Tensor::randn(&[12], 1.0, &mut rng);
        let loss = |a: &mut MultiHeadAttention, x: &Tensor| -> f32 {
            a.forward(x, Mode::Eval)
                .unwrap()
                .data()
                .iter()
                .zip(w.data())
                .map(|(p, q)| p * q)
                .sum()
        };
        let y = attn.forward(&x, Mode::Train).unwrap();
        let g = Tensor::from_vec(y.dims(), w.data().to_vec()).unwrap();
        let gx = attn.backward(&g).unwrap();
        let eps = 1e-2f32;
        for flat in 0..12 {
            let mut xp = x.clone();
            xp.data_mut()[flat] += eps;
            let mut xm = x.clone();
            xm.data_mut()[flat] -= eps;
            let mut a2 = attn.clone();
            let num = (loss(&mut a2, &xp) - loss(&mut a2, &xm)) / (2.0 * eps);
            assert!(
                (num - gx.data()[flat]).abs() < 0.03,
                "dX[{flat}]: {num} vs {}",
                gx.data()[flat]
            );
        }
    }

    #[test]
    fn forward_and_backward_identical_across_thread_counts() {
        let run = |threads: usize| {
            engine::with_thread_limit(threads, || {
                let mut rng = Rng::new(7);
                let mut attn = MultiHeadAttention::new(8, 4, &mut rng).unwrap();
                let x = Tensor::randn(&[3, 5, 8], 0.7, &mut rng);
                let y = attn.forward(&x, Mode::Train).unwrap();
                let gx = attn.backward(&Tensor::ones(y.dims())).unwrap();
                (y, gx)
            })
        };
        let (y1, g1) = run(1);
        let (y4, g4) = run(4);
        assert_eq!(y1.data(), y4.data(), "forward differs across thread counts");
        assert_eq!(
            g1.data(),
            g4.data(),
            "backward differs across thread counts"
        );
    }

    /// B7's BERT-Large layer at the teacher-training batch of 32 has enough
    /// head work to run on the pool; its bits must not depend on that.
    #[test]
    fn pooled_heads_identical_across_thread_counts() {
        let (n, t, d, heads) = (32, 12, 48, 4);
        assert!(n * heads * t * t * (d / heads) >= PAR_MIN);
        let run = |threads: usize| {
            engine::with_thread_limit(threads, || {
                let mut rng = Rng::new(8);
                let mut attn = MultiHeadAttention::new(d, heads, &mut rng).unwrap();
                let x = Tensor::randn(&[n, t, d], 0.7, &mut rng);
                let y = attn.forward(&x, Mode::Train).unwrap();
                let gx = attn.backward(&Tensor::ones(y.dims())).unwrap();
                (y, gx)
            })
        };
        let (y1, g1) = run(1);
        let (y4, g4) = run(4);
        assert_eq!(y1.data(), y4.data(), "forward differs");
        assert_eq!(g1.data(), g4.data(), "backward differs");
    }

    #[test]
    fn gradient_check_query_weights() {
        let mut rng = Rng::new(3);
        let mut attn = MultiHeadAttention::new(4, 1, &mut rng).unwrap();
        let x = Tensor::randn(&[1, 3, 4], 0.5, &mut rng);
        let y = attn.forward(&x, Mode::Train).unwrap();
        attn.backward(&Tensor::ones(y.dims())).unwrap();
        let eps = 1e-2f32;
        for &flat in &[0usize, 5, 11] {
            let mut ap = attn.clone();
            ap.wq.weight.value.data_mut()[flat] += eps;
            let mut am = attn.clone();
            am.wq.weight.value.data_mut()[flat] -= eps;
            let num = (ap.forward(&x, Mode::Eval).unwrap().sum()
                - am.forward(&x, Mode::Eval).unwrap().sum())
                / (2.0 * eps);
            let ana = attn.wq.weight.grad.data()[flat];
            assert!((num - ana).abs() < 0.03, "dWq[{flat}]: {num} vs {ana}");
        }
    }
}
