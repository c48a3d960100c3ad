//! Numeric-health layer: gradient clipping and non-finite and divergence
//! detection for fine-tuning loops.
//!
//! GMorph fine-tunes thousands of *generated* candidate graphs, and merged
//! networks are well known to destabilize during joint retraining — a NaN
//! loss or an exploding gradient must be detected the step it happens,
//! reported as a structured [`NumericEvent`], and halt the candidate
//! instead of silently poisoning the weights (which inheritance would then
//! spread through the History Database).
//!
//! Three layers of defence, cheapest first:
//!
//! 1. **Loss checks** ([`check_loss`]) — one `is_finite` per step, always on.
//! 2. **Gradient-norm checks** ([`grad_verdict`]) — the global norm is
//!    computed anyway when clipping is enabled; a NaN anywhere in any
//!    gradient makes the norm NaN, so the norm doubles as a whole-model
//!    non-finite probe. Clipping rescales by `max_norm / norm`, a positive
//!    scalar, so gradient *direction* is preserved exactly.
//! 3. **Slice scans** ([`observe_slice`]) — O(n) scans of activations at
//!    low-frequency sites (attention outputs).
//!    Report-only: they never panic, even in debug builds, because the
//!    search intentionally feeds graphs that may misbehave; containment is
//!    the supervisor's job, not `assert!`'s.
//!
//! Every violation emits an `eval.health` telemetry point and bumps the
//! `eval.health` counter, so a run's numeric history is visible in the
//! trace artifact and survives checkpoint/resume (counters are
//! checkpointed by the search driver).

use crate::Parameter;
use gmorph_tensor::error;
use gmorph_tensor::TensorError;
use std::fmt;

/// Gradient norms above this are treated as divergence even when finite.
pub(crate) const DIVERGENCE_THRESHOLD: f32 = 1e6;

/// Numeric-health knobs threaded into fine-tuning loops.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct HealthConfig {
    /// Global-norm gradient clip threshold (`None` disables clipping).
    pub grad_clip: Option<f32>,
}

/// Which quantity a [`NumericEvent`] describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NumericCheck {
    /// A scalar training loss.
    Loss,
    /// A gradient (scanned via its global norm or element-wise).
    Gradient,
    /// A layer activation / output.
    Activation,
}

impl NumericCheck {
    /// Stable wire name used in telemetry.
    pub fn as_str(self) -> &'static str {
        match self {
            NumericCheck::Loss => "loss",
            NumericCheck::Gradient => "gradient",
            NumericCheck::Activation => "activation",
        }
    }
}

impl fmt::Display for NumericCheck {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Structured report of one numeric-health violation.
#[derive(Debug, Clone, PartialEq)]
pub struct NumericEvent {
    /// Quantity that misbehaved.
    pub check: NumericCheck,
    /// Call site (operation name) that detected it.
    pub site: &'static str,
    /// NaN element count (1 for scalar checks).
    pub nan: usize,
    /// ±Inf element count.
    pub inf: usize,
    /// Total elements scanned (1 for scalar checks).
    pub total: usize,
    /// The offending scalar: the loss value or the gradient norm. NaN when
    /// the violation was element-wise.
    pub value: f64,
}

impl NumericEvent {
    /// Emits the event as an `eval.health` telemetry point + counter.
    pub fn emit(&self) {
        gmorph_telemetry::counter!("eval.health");
        gmorph_telemetry::point!(
            "eval.health",
            check = self.check.as_str(),
            site = self.site,
            nan = self.nan as u64,
            inf = self.inf as u64,
            total = self.total as u64,
            value = self.value,
        );
    }

    /// Lowers the event into a classified non-finite failure.
    pub fn to_error(&self) -> TensorError {
        error::non_finite(
            self.site,
            format!(
                "{}: {} NaN / {} Inf of {} elements (value {})",
                self.check, self.nan, self.inf, self.total, self.value
            ),
        )
    }
}

/// Scans a slice for non-finite elements. Returns `Some` (without
/// emitting) only when a violation is present.
pub(crate) fn scan_slice(
    check: NumericCheck,
    site: &'static str,
    data: &[f32],
) -> Option<NumericEvent> {
    let mut nan = 0usize;
    let mut inf = 0usize;
    for &v in data {
        if v.is_nan() {
            nan += 1;
        } else if v.is_infinite() {
            inf += 1;
        }
    }
    (nan > 0 || inf > 0).then_some(NumericEvent {
        check,
        site,
        nan,
        inf,
        total: data.len(),
        value: f64::NAN,
    })
}

/// Report-only slice check for layer-level sites (attention outputs, loss
/// kernels): scans and emits a [`NumericEvent`] when telemetry is enabled
/// or in debug builds, and *never* panics — the search deliberately feeds
/// graphs that can misbehave, so containment belongs to the supervisor.
pub(crate) fn observe_slice(
    check: NumericCheck,
    site: &'static str,
    data: &[f32],
) -> Option<NumericEvent> {
    if !(cfg!(debug_assertions) || gmorph_telemetry::enabled()) {
        return None;
    }
    let event = scan_slice(check, site, data)?;
    event.emit();
    Some(event)
}

/// Report-only scalar-loss check (the release-mode replacement for
/// `debug_assert!(loss.is_finite())`).
pub(crate) fn observe_loss(site: &'static str, value: f32) -> Option<NumericEvent> {
    if value.is_finite() {
        return None;
    }
    let event = loss_event(site, value);
    event.emit();
    Some(event)
}

/// Enforcing scalar-loss check for training loops: emits and returns a
/// classified error when the loss is non-finite.
pub fn check_loss(site: &'static str, value: f32) -> gmorph_tensor::Result<()> {
    if value.is_finite() {
        return Ok(());
    }
    let event = loss_event(site, value);
    event.emit();
    Err(event.to_error())
}

fn loss_event(site: &'static str, value: f32) -> NumericEvent {
    NumericEvent {
        check: NumericCheck::Loss,
        site,
        nan: value.is_nan() as usize,
        inf: value.is_infinite() as usize,
        total: 1,
        value: value as f64,
    }
}

/// Sum of squared gradient elements, accumulated in `f64` in storage
/// order so the global norm is bit-identical across runs and thread
/// counts. Feed one call per parameter into a running sum.
pub fn grad_sq_sum(p: &Parameter) -> f64 {
    p.grad
        .data()
        .iter()
        .fold(0f64, |acc, &g| acc + (g as f64) * (g as f64))
}

/// Scale factor that clips `norm` to `max_norm`, or `None` when no
/// clipping is needed. The factor is a *positive* scalar, so the clipped
/// gradient is a positive multiple of the original — direction preserved.
pub fn clip_scale(norm: f32, max_norm: f32) -> Option<f32> {
    (norm.is_finite() && max_norm > 0.0 && norm > max_norm).then(|| max_norm / norm)
}

/// Multiplies a parameter's gradient in place.
pub fn scale_grad(p: &mut Parameter, scale: f32) {
    for g in p.grad.data_mut() {
        *g *= scale;
    }
}

/// What the training loop must do with this step's gradients.
#[derive(Debug, Clone, PartialEq)]
pub enum GradVerdict {
    /// Healthy: apply the optimizer step as-is.
    Ok,
    /// Multiply every gradient by this positive factor, then step.
    Clip(f32),
    /// Halt the candidate with this violation.
    Halt(NumericEvent),
}

/// Classifies a global gradient norm against the health config.
///
/// Routine clipping (finite norm above `grad_clip`) bumps the
/// `health.grad_clip` counter but is not a violation; non-finite or
/// diverged norms (above [`DIVERGENCE_THRESHOLD`]) emit an `eval.health`
/// event and halt the candidate.
pub fn grad_verdict(cfg: &HealthConfig, site: &'static str, norm: f32) -> GradVerdict {
    if !norm.is_finite() {
        let event = NumericEvent {
            check: NumericCheck::Gradient,
            site,
            nan: norm.is_nan() as usize,
            inf: norm.is_infinite() as usize,
            total: 1,
            value: norm as f64,
        };
        event.emit();
        return GradVerdict::Halt(event);
    }
    if norm > DIVERGENCE_THRESHOLD {
        let event = NumericEvent {
            check: NumericCheck::Gradient,
            site,
            nan: 0,
            inf: 0,
            total: 1,
            value: norm as f64,
        };
        event.emit();
        return GradVerdict::Halt(event);
    }
    if let Some(max) = cfg.grad_clip {
        if let Some(scale) = clip_scale(norm, max) {
            gmorph_telemetry::counter!("health.grad_clip");
            gmorph_telemetry::hist!("health.grad_norm", norm as f64);
            return GradVerdict::Clip(scale);
        }
    }
    GradVerdict::Ok
}

#[cfg(test)]
mod tests {
    use super::*;
    use gmorph_tensor::Tensor;

    fn cfg(grad_clip: Option<f32>) -> HealthConfig {
        HealthConfig { grad_clip }
    }

    #[test]
    fn scan_counts_nan_and_inf_separately() {
        let data = [1.0, f32::NAN, f32::INFINITY, -2.0, f32::NEG_INFINITY];
        let e = scan_slice(NumericCheck::Activation, "t", &data).expect("violation");
        assert_eq!((e.nan, e.inf, e.total), (1, 2, 5));
        assert!(scan_slice(NumericCheck::Activation, "t", &[1.0, -2.0]).is_none());
    }

    #[test]
    fn check_loss_classifies_as_non_finite() {
        assert!(check_loss("t", 0.5).is_ok());
        let err = check_loss("t", f32::NAN).unwrap_err();
        assert_eq!(
            gmorph_tensor::error::classify(&err),
            gmorph_tensor::error::FailureKind::NonFinite
        );
    }

    #[test]
    fn clip_scale_is_positive_and_exact() {
        assert_eq!(clip_scale(2.0, 4.0), None, "under the bound");
        let s = clip_scale(10.0, 4.0).unwrap();
        assert!(s > 0.0 && (s - 0.4).abs() < 1e-7);
        assert_eq!(clip_scale(f32::NAN, 4.0), None);
    }

    #[test]
    fn grad_verdict_follows_policy() {
        // Healthy norm, no clip configured.
        assert_eq!(grad_verdict(&cfg(None), "t", 1.0), GradVerdict::Ok);
        // Routine clipping.
        match grad_verdict(&cfg(Some(0.5)), "t", 2.0) {
            GradVerdict::Clip(s) => assert!((s - 0.25).abs() < 1e-7),
            v => panic!("expected clip, got {v:?}"),
        }
        // A NaN norm and a finite diverged norm both halt, clip or not.
        match grad_verdict(&cfg(None), "t", f32::NAN) {
            GradVerdict::Halt(e) => assert_eq!(e.check, NumericCheck::Gradient),
            v => panic!("expected halt, got {v:?}"),
        }
        match grad_verdict(&cfg(Some(1.0)), "t", 1e7) {
            GradVerdict::Halt(e) => assert_eq!(e.value, 1e7),
            v => panic!("expected halt, got {v:?}"),
        }
    }

    #[test]
    fn scale_grad_preserves_direction() {
        let mut p = Parameter::new(Tensor::zeros(&[4]));
        p.grad = Tensor::from_vec(&[4], vec![3.0, -4.0, 0.0, 1.0]).unwrap();
        let before = p.grad.data().to_vec();
        let sq: f64 = grad_sq_sum(&p);
        let norm = sq.sqrt() as f32;
        let scale = clip_scale(norm, 1.0).unwrap();
        scale_grad(&mut p, scale);
        for (b, a) in before.iter().zip(p.grad.data()) {
            assert!((a - b * scale).abs() < 1e-7);
            assert_eq!(a.signum(), (b * scale).signum());
        }
    }
}
