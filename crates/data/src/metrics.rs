//! Task-quality metrics: accuracy, mean average precision, Matthews
//! correlation coefficient.
//!
//! These are the three scores the paper reports (Appendix A): accuracy for
//! B1-B3 and SST-2, mAP for B4-B6's ObjectNet, Matthews correlation for
//! CoLA.

use crate::dataset::Labels;
use gmorph_tensor::{Result, Tensor, TensorError};

/// Which score a task is evaluated with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Metric {
    /// Fraction of correctly classified samples.
    Accuracy,
    /// Mean average precision over classes (multi-label detection).
    MeanAp,
    /// Matthews correlation coefficient rescaled to `[0, 1]` via
    /// `(mcc + 1) / 2` so all metrics share a "higher is better in \[0,1\]"
    /// convention for threshold math.
    Matthews,
}

/// Classification accuracy from logits `[N, C]` and integer labels.
pub(crate) fn accuracy(logits: &Tensor, labels: &[usize]) -> Result<f32> {
    let preds = logits.argmax_rows()?;
    if preds.len() != labels.len() {
        return Err(TensorError::InvalidArgument {
            op: "accuracy",
            msg: format!("{} preds vs {} labels", preds.len(), labels.len()),
        });
    }
    if labels.is_empty() {
        return Ok(0.0);
    }
    let correct = preds
        .iter()
        .zip(labels.iter())
        .filter(|(p, l)| p == l)
        .count();
    Ok(correct as f32 / labels.len() as f32)
}

/// Average precision for one class from (score, is_positive) pairs.
///
/// Uses the "sum of precision at each positive" formulation.
pub(crate) fn average_precision(scores: &[f32], positives: &[bool]) -> f32 {
    let total_pos = positives.iter().filter(|&&p| p).count();
    if total_pos == 0 {
        return 0.0;
    }
    let mut order: Vec<usize> = (0..scores.len()).collect();
    order.sort_by(|&a, &b| {
        scores[b]
            .partial_cmp(&scores[a])
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    let mut hits = 0usize;
    let mut ap = 0.0f32;
    for (rank, &i) in order.iter().enumerate() {
        if positives[i] {
            hits += 1;
            ap += hits as f32 / (rank + 1) as f32;
        }
    }
    ap / total_pos as f32
}

/// Mean average precision from logits `[N, C]` and multi-hot targets
/// `[N, C]`.
pub(crate) fn mean_ap(logits: &Tensor, targets: &Tensor) -> Result<f32> {
    if logits.dims() != targets.dims() || logits.shape().rank() != 2 {
        return Err(TensorError::ShapeMismatch {
            op: "mean_ap",
            lhs: logits.shape().to_string(),
            rhs: targets.shape().to_string(),
        });
    }
    let (n, c) = (logits.dims()[0], logits.dims()[1]);
    let mut sum = 0.0f32;
    let mut counted = 0usize;
    for cls in 0..c {
        let scores: Vec<f32> = (0..n).map(|i| logits.data()[i * c + cls]).collect();
        let pos: Vec<bool> = (0..n).map(|i| targets.data()[i * c + cls] > 0.5).collect();
        if pos.iter().any(|&p| p) {
            sum += average_precision(&scores, &pos);
            counted += 1;
        }
    }
    if counted == 0 {
        return Ok(0.0);
    }
    Ok(sum / counted as f32)
}

/// Matthews correlation coefficient for binary predictions, rescaled to
/// `[0, 1]`.
pub fn matthews(logits: &Tensor, labels: &[usize]) -> Result<f32> {
    let preds = logits.argmax_rows()?;
    if preds.len() != labels.len() {
        return Err(TensorError::InvalidArgument {
            op: "matthews",
            msg: format!("{} preds vs {} labels", preds.len(), labels.len()),
        });
    }
    let (mut tp, mut tn, mut fp, mut fn_) = (0f64, 0f64, 0f64, 0f64);
    for (&p, &l) in preds.iter().zip(labels.iter()) {
        match (p, l) {
            (1, 1) => tp += 1.0,
            (0, 0) => tn += 1.0,
            (1, 0) => fp += 1.0,
            (0, 1) => fn_ += 1.0,
            _ => {
                return Err(TensorError::InvalidArgument {
                    op: "matthews",
                    msg: format!("non-binary class {p}/{l}"),
                })
            }
        }
    }
    let denom = ((tp + fp) * (tp + fn_) * (tn + fp) * (tn + fn_)).sqrt();
    let mcc = if denom == 0.0 {
        0.0
    } else {
        ((tp * tn - fp * fn_) / denom) as f32
    };
    Ok((mcc + 1.0) / 2.0)
}

/// Scores logits against labels with the given metric.
pub fn score(metric: Metric, logits: &Tensor, labels: &Labels) -> Result<f32> {
    match (metric, labels) {
        (Metric::Accuracy, Labels::Classes(ls)) => accuracy(logits, ls),
        (Metric::Matthews, Labels::Classes(ls)) => matthews(logits, ls),
        (Metric::MeanAp, Labels::MultiHot(t)) => mean_ap(logits, t),
        _ => Err(TensorError::InvalidArgument {
            op: "score",
            msg: "metric/label kind mismatch".to_string(),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn accuracy_basics() {
        let logits = Tensor::from_vec(&[3, 2], vec![1.0, 0.0, 0.0, 1.0, 1.0, 0.0]).unwrap();
        assert_eq!(accuracy(&logits, &[0, 1, 0]).unwrap(), 1.0);
        assert_eq!(accuracy(&logits, &[1, 0, 1]).unwrap(), 0.0);
        assert!((accuracy(&logits, &[0, 0, 0]).unwrap() - 2.0 / 3.0).abs() < 1e-6);
        assert!(accuracy(&logits, &[0]).is_err());
    }

    #[test]
    fn ap_perfect_ranking_is_one() {
        let scores = vec![0.9, 0.8, 0.2, 0.1];
        let pos = vec![true, true, false, false];
        assert!((average_precision(&scores, &pos) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn ap_worst_ranking() {
        let scores = vec![0.9, 0.8, 0.2, 0.1];
        let pos = vec![false, false, true, true];
        // Precisions at the two positives: 1/3 and 2/4.
        let expect = (1.0 / 3.0 + 0.5) / 2.0;
        assert!((average_precision(&scores, &pos) - expect).abs() < 1e-6);
    }

    #[test]
    fn ap_no_positives_is_zero() {
        assert_eq!(average_precision(&[0.5, 0.4], &[false, false]), 0.0);
    }

    #[test]
    fn mean_ap_perfect() {
        let logits = Tensor::from_vec(&[2, 2], vec![5.0, -5.0, -5.0, 5.0]).unwrap();
        let targets = Tensor::from_vec(&[2, 2], vec![1.0, 0.0, 0.0, 1.0]).unwrap();
        assert!((mean_ap(&logits, &targets).unwrap() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn matthews_perfect_and_inverted() {
        let perfect = Tensor::from_vec(&[4, 2], vec![1., 0., 0., 1., 1., 0., 0., 1.]).unwrap();
        let labels = [0usize, 1, 0, 1];
        assert!((matthews(&perfect, &labels).unwrap() - 1.0).abs() < 1e-6);
        let inverted = Tensor::from_vec(&[4, 2], vec![0., 1., 1., 0., 0., 1., 1., 0.]).unwrap();
        assert!(matthews(&inverted, &labels).unwrap() < 1e-6);
    }

    #[test]
    fn matthews_random_is_half() {
        // All-same predictions give mcc 0 -> rescaled 0.5.
        let logits = Tensor::from_vec(&[2, 2], vec![1., 0., 1., 0.]).unwrap();
        assert!((matthews(&logits, &[0, 1]).unwrap() - 0.5).abs() < 1e-6);
    }

    #[test]
    fn matthews_rejects_multiclass() {
        let logits = Tensor::from_vec(&[1, 3], vec![0.0, 0.0, 1.0]).unwrap();
        assert!(matthews(&logits, &[2]).is_err());
    }

    #[test]
    fn score_dispatch() {
        let logits = Tensor::from_vec(&[1, 2], vec![1.0, 0.0]).unwrap();
        let acc = score(Metric::Accuracy, &logits, &Labels::Classes(vec![0])).unwrap();
        assert_eq!(acc, 1.0);
        // Mismatched kinds error.
        assert!(score(Metric::MeanAp, &logits, &Labels::Classes(vec![0])).is_err());
    }

    proptest! {
        #[test]
        fn metrics_are_bounded(
            vals in proptest::collection::vec(-5.0f32..5.0, 8..24),
        ) {
            let n = vals.len() / 2;
            let logits = Tensor::from_vec(&[n, 2], vals[..n * 2].to_vec()).unwrap();
            let labels: Vec<usize> = (0..n).map(|i| i % 2).collect();
            let acc = accuracy(&logits, &labels).unwrap();
            prop_assert!((0.0..=1.0).contains(&acc));
            let m = matthews(&logits, &labels).unwrap();
            prop_assert!((0.0..=1.0).contains(&m));
            let targets = Tensor::from_vec(
                &[n, 2],
                (0..n * 2).map(|i| (i % 3 == 0) as u8 as f32).collect(),
            ).unwrap();
            let map = mean_ap(&logits, &targets).unwrap();
            prop_assert!((0.0..=1.0).contains(&map));
        }
    }
}
