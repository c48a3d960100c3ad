//! Loss functions returning `(value, gradient-wrt-prediction)` pairs.
//!
//! The distillation objective of §5.2 — "the weighted sum of the ℓ1 loss
//! from all tasks, where each loss is the ℓ1 distance between the
//! multi-task model's output features and the single-task model's output
//! features" — is [`weighted_l1_multi`].
//!
//! Every loss reports a non-finite result through the numeric-health layer
//! (`crate::health::observe_loss`) — a structured `eval.health` event in
//! release builds, never a panic — so a divergent candidate is visible to
//! the search supervisor the step it diverges.

use crate::health;
use gmorph_tensor::ops::softmax_rows;
use gmorph_tensor::{Result, Tensor, TensorError};

/// Mean absolute error and its gradient.
pub(crate) fn l1_loss(pred: &Tensor, target: &Tensor) -> Result<(f32, Tensor)> {
    if pred.dims() != target.dims() {
        return Err(TensorError::ShapeMismatch {
            op: "l1_loss",
            lhs: pred.shape().to_string(),
            rhs: target.shape().to_string(),
        });
    }
    let n = pred.numel().max(1) as f32;
    let mut grad = Tensor::zeros(pred.dims());
    let mut loss = 0.0f32;
    for i in 0..pred.numel() {
        let d = pred.data()[i] - target.data()[i];
        loss += d.abs();
        // Subgradient 0 at d == 0 (f32::signum maps +0.0 to 1.0, which
        // would inject spurious gradient into already-matched outputs).
        grad.data_mut()[i] = if d > 0.0 {
            1.0
        } else if d < 0.0 {
            -1.0
        } else {
            0.0
        } / n;
    }
    health::observe_loss("l1_loss", loss / n);
    Ok((loss / n, grad))
}

/// Softmax cross-entropy over logits `[N, C]` with integer class labels.
pub fn cross_entropy(logits: &Tensor, labels: &[usize]) -> Result<(f32, Tensor)> {
    if logits.shape().rank() != 2 {
        return Err(TensorError::RankMismatch {
            op: "cross_entropy",
            expected: 2,
            actual: logits.shape().rank(),
        });
    }
    let (n, c) = (logits.dims()[0], logits.dims()[1]);
    if labels.len() != n {
        return Err(TensorError::ShapeMismatch {
            op: "cross_entropy",
            lhs: format!("[{n} labels]"),
            rhs: format!("[{} labels]", labels.len()),
        });
    }
    let probs = softmax_rows(logits)?;
    let mut loss = 0.0f32;
    let mut grad = probs.clone();
    for (i, &y) in labels.iter().enumerate() {
        if y >= c {
            return Err(TensorError::OutOfBounds {
                op: "cross_entropy",
                index: y,
                bound: c,
            });
        }
        loss -= probs.data()[i * c + y].max(1e-12).ln();
        grad.data_mut()[i * c + y] -= 1.0;
    }
    let inv = 1.0 / n as f32;
    grad.scale_in_place(inv);
    health::observe_loss("cross_entropy", loss * inv);
    Ok((loss * inv, grad))
}

/// Binary cross-entropy with logits over `[N, C]` multi-label targets in
/// `{0, 1}`; used for the multi-label object task scored with mAP.
pub fn bce_with_logits(logits: &Tensor, targets: &Tensor) -> Result<(f32, Tensor)> {
    if logits.dims() != targets.dims() {
        return Err(TensorError::ShapeMismatch {
            op: "bce_with_logits",
            lhs: logits.shape().to_string(),
            rhs: targets.shape().to_string(),
        });
    }
    let n = logits.numel().max(1) as f32;
    let mut grad = Tensor::zeros(logits.dims());
    let mut loss = 0.0f32;
    for i in 0..logits.numel() {
        let x = logits.data()[i];
        let t = targets.data()[i];
        // Numerically stable: max(x,0) - x*t + log(1 + exp(-|x|)).
        loss += x.max(0.0) - x * t + (1.0 + (-x.abs()).exp()).ln();
        let p = 1.0 / (1.0 + (-x).exp());
        grad.data_mut()[i] = (p - t) / n;
    }
    health::observe_loss("bce_with_logits", loss / n);
    Ok((loss / n, grad))
}

/// The paper's distillation objective: weighted sum of per-task ℓ1
/// distances between student outputs and teacher outputs.
///
/// Returns the scalar loss and one gradient tensor per task, ready to feed
/// into each task branch's backward pass.
pub fn weighted_l1_multi(
    preds: &[Tensor],
    targets: &[Tensor],
    weights: &[f32],
) -> Result<(f32, Vec<Tensor>)> {
    if preds.len() != targets.len() || preds.len() != weights.len() {
        return Err(TensorError::InvalidArgument {
            op: "weighted_l1_multi",
            msg: format!(
                "arity mismatch: {} preds, {} targets, {} weights",
                preds.len(),
                targets.len(),
                weights.len()
            ),
        });
    }
    let mut total = 0.0f32;
    let mut grads = Vec::with_capacity(preds.len());
    for ((p, t), &w) in preds.iter().zip(targets.iter()).zip(weights.iter()) {
        let (l, mut g) = l1_loss(p, t)?;
        total += w * l;
        g.scale_in_place(w);
        grads.push(g);
    }
    health::observe_loss("weighted_l1_multi", total);
    Ok((total, grads))
}

#[cfg(test)]
mod tests {
    use super::*;
    use gmorph_tensor::rng::Rng;

    #[test]
    fn l1_basics() {
        let p = Tensor::from_vec(&[2], vec![1.0, -1.0]).unwrap();
        let t = Tensor::from_vec(&[2], vec![0.0, 1.0]).unwrap();
        let (l, g) = l1_loss(&p, &t).unwrap();
        assert!((l - 1.5).abs() < 1e-6);
        assert_eq!(g.data(), &[0.5, -0.5]);
        assert!(l1_loss(&p, &Tensor::zeros(&[3])).is_err());
    }

    #[test]
    fn l1_zero_at_match() {
        let p = Tensor::ones(&[4]);
        let (l, _) = l1_loss(&p, &p).unwrap();
        assert_eq!(l, 0.0);
    }

    #[test]
    fn cross_entropy_gradcheck() {
        let mut rng = Rng::new(1);
        let logits = Tensor::randn(&[3, 4], 1.0, &mut rng);
        let labels = vec![0usize, 3, 2];
        let (_, g) = cross_entropy(&logits, &labels).unwrap();
        let eps = 1e-3;
        for i in 0..12 {
            let mut lp = logits.clone();
            lp.data_mut()[i] += eps;
            let mut lm = logits.clone();
            lm.data_mut()[i] -= eps;
            let num = (cross_entropy(&lp, &labels).unwrap().0
                - cross_entropy(&lm, &labels).unwrap().0)
                / (2.0 * eps);
            assert!((num - g.data()[i]).abs() < 1e-3, "{num} vs {}", g.data()[i]);
        }
    }

    #[test]
    fn cross_entropy_perfect_prediction_has_low_loss() {
        let logits = Tensor::from_vec(&[2, 2], vec![10.0, -10.0, -10.0, 10.0]).unwrap();
        let (l, _) = cross_entropy(&logits, &[0, 1]).unwrap();
        assert!(l < 1e-4);
    }

    #[test]
    fn cross_entropy_rejects_bad_labels() {
        let logits = Tensor::zeros(&[1, 3]);
        assert!(cross_entropy(&logits, &[3]).is_err());
        assert!(cross_entropy(&logits, &[0, 1]).is_err());
    }

    #[test]
    fn bce_gradcheck_and_stability() {
        let mut rng = Rng::new(2);
        let logits = Tensor::randn(&[2, 3], 2.0, &mut rng);
        let targets = Tensor::from_vec(&[2, 3], vec![1.0, 0.0, 1.0, 0.0, 0.0, 1.0]).unwrap();
        let (_, g) = bce_with_logits(&logits, &targets).unwrap();
        let eps = 1e-3;
        for i in 0..6 {
            let mut lp = logits.clone();
            lp.data_mut()[i] += eps;
            let mut lm = logits.clone();
            lm.data_mut()[i] -= eps;
            let num = (bce_with_logits(&lp, &targets).unwrap().0
                - bce_with_logits(&lm, &targets).unwrap().0)
                / (2.0 * eps);
            assert!((num - g.data()[i]).abs() < 1e-3);
        }
        // Extreme logits stay finite.
        let big = Tensor::from_vec(&[1, 2], vec![100.0, -100.0]).unwrap();
        let t = Tensor::from_vec(&[1, 2], vec![1.0, 0.0]).unwrap();
        let (l, _) = bce_with_logits(&big, &t).unwrap();
        assert!(l.is_finite() && l < 1e-4);
    }

    #[test]
    fn weighted_l1_combines_tasks() {
        let p1 = Tensor::ones(&[2]);
        let t1 = Tensor::zeros(&[2]);
        let p2 = Tensor::full(&[2], 2.0);
        let t2 = Tensor::zeros(&[2]);
        let (l, grads) = weighted_l1_multi(&[p1, p2], &[t1, t2], &[1.0, 0.5]).unwrap();
        assert!((l - (1.0 + 0.5 * 2.0)).abs() < 1e-6);
        assert_eq!(grads.len(), 2);
        assert_eq!(grads[0].data(), &[0.5, 0.5]);
        assert_eq!(grads[1].data(), &[0.25, 0.25]);
    }

    #[test]
    fn weighted_l1_rejects_arity_mismatch() {
        let p = vec![Tensor::ones(&[1])];
        let t = vec![Tensor::ones(&[1]), Tensor::ones(&[1])];
        assert!(weighted_l1_multi(&p, &t, &[1.0]).is_err());
    }
}
