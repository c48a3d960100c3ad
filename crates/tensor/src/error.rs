//! Workspace-wide failure taxonomy and fault injection for resilient search.
//!
//! GMorph's search loop evaluates thousands of generated candidate graphs by
//! fine-tuning, and a single divergent candidate (NaN loss, exploding
//! gradients, a pathological graph that trains far slower than budgeted)
//! must never abort the run — it must become a *classified* failure the
//! supervisor can retry, reject, or quarantine. This module provides:
//!
//! - [`FailureKind`]: the closed classification every failure maps onto
//!   (panic, non-finite, timeout, OOM-guard, graph, io),
//! - [`GmorphError`]: the taxonomy enum layered over [`TensorError`] —
//!   lossless conversions both ways mean the existing `Result` plumbing in
//!   every crate carries the classification without signature churn,
//! - [`FaultSpec`]: `GMORPH_FAULT` fault-injection knobs (the failure-path
//!   sibling of `GMORPH_CRASH_AFTER` in [`crate::checkpoint`]) used by the
//!   resilience test-suite and the CI fault-smoke job.
//!
//! Transience: a panic or a non-finite excursion can be an unlucky
//! initialization — retrying with a reseeded init and a smaller learning
//! rate is worth bounded attempts. A timeout or an OOM-guard trip is a
//! property of the graph itself (it will be just as slow or as large on the
//! next attempt), so those are permanent and go straight to quarantine.

use crate::TensorError;
use std::fmt;

/// Closed classification of evaluation failures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FailureKind {
    /// The evaluation panicked (caught at the supervisor boundary).
    Panic,
    /// A loss, gradient, or weight went NaN/Inf (or diverged past bounds).
    NonFinite,
    /// The candidate exceeded its wall-clock or virtual-clock deadline.
    Timeout,
    /// The tensor-pool byte budget was exceeded (OOM guard). Nothing
    /// raises it any more; the wire name stays so older traces parse.
    OomGuard,
    /// A structural error: bad shapes, ranks, or graph construction.
    Graph,
    /// Serialization or filesystem failure.
    Io,
}

impl FailureKind {
    /// Stable wire name used in telemetry events and checkpoint payloads.
    pub fn as_str(self) -> &'static str {
        match self {
            FailureKind::Panic => "panic",
            FailureKind::NonFinite => "non_finite",
            FailureKind::Timeout => "timeout",
            FailureKind::OomGuard => "oom_guard",
            FailureKind::Graph => "graph",
            FailureKind::Io => "io",
        }
    }

    /// Inverse of [`as_str`](Self::as_str).
    pub fn parse(s: &str) -> Option<Self> {
        Some(match s {
            "panic" => FailureKind::Panic,
            "non_finite" => FailureKind::NonFinite,
            "timeout" => FailureKind::Timeout,
            "oom_guard" => FailureKind::OomGuard,
            "graph" => FailureKind::Graph,
            "io" => FailureKind::Io,
            _ => return None,
        })
    }

    /// Whether a retry with reseeded init / smaller LR could plausibly
    /// succeed. Timeouts and OOM trips are properties of the graph, not of
    /// the draw, so they are permanent.
    pub fn is_transient(self) -> bool {
        matches!(self, FailureKind::Panic | FailureKind::NonFinite)
    }
}

impl fmt::Display for FailureKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// The workspace failure taxonomy.
///
/// Layered over [`TensorError`] rather than replacing it: hot paths keep
/// returning `gmorph_tensor::Result`, and the supervisor lifts errors into
/// this enum (via `From`) when it needs to classify them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GmorphError {
    /// A caught panic, with the rendered payload.
    Panic {
        /// Operation at whose boundary the panic was caught.
        op: &'static str,
        /// Rendered panic payload.
        msg: String,
    },
    /// A numeric-health violation (NaN/Inf loss, gradient, or weight).
    NonFinite {
        /// Operation that detected the violation.
        op: &'static str,
        /// What went non-finite and where.
        msg: String,
    },
    /// A deadline violation (wall-clock or virtual-clock).
    Timeout {
        /// Operation that exceeded its budget.
        op: &'static str,
        /// Budget and observed cost.
        msg: String,
    },
    /// A tensor-pool byte-budget violation.
    OomGuard {
        /// Operation that tripped the guard.
        op: &'static str,
        /// Budget and requested bytes.
        msg: String,
    },
    /// Any other tensor-level error (shape, rank, bounds, io...).
    Tensor(TensorError),
}

impl GmorphError {
    /// Classify this error into the closed [`FailureKind`] set.
    pub fn kind(&self) -> FailureKind {
        match self {
            GmorphError::Panic { .. } => FailureKind::Panic,
            GmorphError::NonFinite { .. } => FailureKind::NonFinite,
            GmorphError::Timeout { .. } => FailureKind::Timeout,
            GmorphError::OomGuard { .. } => FailureKind::OomGuard,
            GmorphError::Tensor(TensorError::Io(_)) => FailureKind::Io,
            GmorphError::Tensor(_) => FailureKind::Graph,
        }
    }

    /// See [`FailureKind::is_transient`].
    pub fn is_transient(&self) -> bool {
        self.kind().is_transient()
    }
}

impl fmt::Display for GmorphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GmorphError::Panic { op, msg }
            | GmorphError::NonFinite { op, msg }
            | GmorphError::Timeout { op, msg }
            | GmorphError::OomGuard { op, msg } => {
                write!(f, "{op}: [{}] {msg}", self.kind())
            }
            GmorphError::Tensor(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for GmorphError {}

impl From<TensorError> for GmorphError {
    fn from(err: TensorError) -> Self {
        match err {
            TensorError::Failed { kind, op, msg } => match kind {
                FailureKind::Panic => GmorphError::Panic { op, msg },
                FailureKind::NonFinite => GmorphError::NonFinite { op, msg },
                FailureKind::Timeout => GmorphError::Timeout { op, msg },
                FailureKind::OomGuard => GmorphError::OomGuard { op, msg },
                // Graph/Io classified failures re-wrap losslessly enough:
                // classification is recomputed from the inner error.
                FailureKind::Graph | FailureKind::Io => {
                    GmorphError::Tensor(TensorError::InvalidArgument { op, msg })
                }
            },
            other => GmorphError::Tensor(other),
        }
    }
}

impl From<GmorphError> for TensorError {
    fn from(err: GmorphError) -> Self {
        match err {
            GmorphError::Panic { op, msg } => TensorError::Failed {
                kind: FailureKind::Panic,
                op,
                msg,
            },
            GmorphError::NonFinite { op, msg } => TensorError::Failed {
                kind: FailureKind::NonFinite,
                op,
                msg,
            },
            GmorphError::Timeout { op, msg } => TensorError::Failed {
                kind: FailureKind::Timeout,
                op,
                msg,
            },
            GmorphError::OomGuard { op, msg } => TensorError::Failed {
                kind: FailureKind::OomGuard,
                op,
                msg,
            },
            GmorphError::Tensor(e) => e,
        }
    }
}

/// Shorthand: a classified non-finite failure as a [`TensorError`].
pub fn non_finite(op: &'static str, msg: impl Into<String>) -> TensorError {
    TensorError::Failed {
        kind: FailureKind::NonFinite,
        op,
        msg: msg.into(),
    }
}

/// Shorthand: a classified timeout failure as a [`TensorError`].
pub fn timeout(op: &'static str, msg: impl Into<String>) -> TensorError {
    TensorError::Failed {
        kind: FailureKind::Timeout,
        op,
        msg: msg.into(),
    }
}

/// Shorthand: a classified caught-panic failure as a [`TensorError`].
pub fn panic_failure(op: &'static str, msg: impl Into<String>) -> TensorError {
    TensorError::Failed {
        kind: FailureKind::Panic,
        op,
        msg: msg.into(),
    }
}

/// Classify any [`TensorError`] without consuming it.
pub fn classify(err: &TensorError) -> FailureKind {
    match err {
        TensorError::Failed { kind, .. } => *kind,
        TensorError::Io(_) => FailureKind::Io,
        _ => FailureKind::Graph,
    }
}

/// Injectable fault modes, selected via `GMORPH_FAULT=<mode>:<iter>`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Poison the training loss with NaN.
    NanLoss,
    /// Blow up gradients past the divergence threshold.
    GradExplode,
    /// Make the candidate stall long enough to trip its deadline.
    SlowCandidate,
    /// Panic inside the evaluation (exercises the catch-unwind boundary).
    PanicEval,
}

impl FaultKind {
    /// Stable name used in `GMORPH_FAULT` and telemetry.
    pub fn as_str(self) -> &'static str {
        match self {
            FaultKind::NanLoss => "nan_loss",
            FaultKind::GradExplode => "grad_explode",
            FaultKind::SlowCandidate => "slow_candidate",
            FaultKind::PanicEval => "panic",
        }
    }

    /// Inverse of [`as_str`](Self::as_str).
    pub fn parse(s: &str) -> Option<Self> {
        Some(match s {
            "nan_loss" => FaultKind::NanLoss,
            "grad_explode" => FaultKind::GradExplode,
            "slow_candidate" => FaultKind::SlowCandidate,
            "panic" => FaultKind::PanicEval,
            _ => return None,
        })
    }
}

/// A parsed `GMORPH_FAULT` directive: inject `kind` into the candidate
/// evaluated at search iteration `at_iter` (every attempt — a faulty graph
/// stays faulty across retries, which is what drives it into quarantine).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultSpec {
    /// Which fault to inject.
    pub kind: FaultKind,
    /// Search iteration whose candidate is poisoned.
    pub at_iter: usize,
}

impl FaultSpec {
    /// Parse a `<mode>:<iter>` directive, e.g. `nan_loss:5`.
    pub fn parse(s: &str) -> Option<Self> {
        let (mode, iter) = s.split_once(':')?;
        Some(FaultSpec {
            kind: FaultKind::parse(mode.trim())?,
            at_iter: iter.trim().parse().ok()?,
        })
    }

    /// Read `GMORPH_FAULT` from the environment. Call once at configuration
    /// time (like `CheckpointOptions::crash_after_from_env`) — never from
    /// library hot paths, so parallel test runners sharing the process env
    /// stay isolated.
    pub fn from_env() -> Option<Self> {
        let raw = std::env::var("GMORPH_FAULT").ok()?;
        let spec = Self::parse(&raw);
        if spec.is_none() && !raw.is_empty() {
            eprintln!("gmorph: ignoring unparseable GMORPH_FAULT={raw:?} (want <mode>:<iter>)");
        }
        spec
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_wire_names_round_trip() {
        for kind in [
            FailureKind::Panic,
            FailureKind::NonFinite,
            FailureKind::Timeout,
            FailureKind::OomGuard,
            FailureKind::Graph,
            FailureKind::Io,
        ] {
            assert_eq!(FailureKind::parse(kind.as_str()), Some(kind));
        }
        assert_eq!(FailureKind::parse("weird"), None);
    }

    #[test]
    fn taxonomy_round_trips_through_tensor_error() {
        let cases = [
            GmorphError::Panic {
                op: "eval",
                msg: "boom".into(),
            },
            GmorphError::NonFinite {
                op: "finetune",
                msg: "loss=NaN".into(),
            },
            GmorphError::Timeout {
                op: "eval",
                msg: "deadline 5ms, took 40ms".into(),
            },
            GmorphError::OomGuard {
                op: "pool",
                msg: "budget 1MiB, wanted 2MiB".into(),
            },
        ];
        for err in cases {
            let lowered: TensorError = err.clone().into();
            let lifted: GmorphError = lowered.into();
            assert_eq!(lifted, err);
        }
    }

    #[test]
    fn tensor_errors_classify_as_graph_or_io() {
        let shape = TensorError::ShapeMismatch {
            op: "matmul",
            lhs: "2x3".into(),
            rhs: "4x5".into(),
        };
        assert_eq!(classify(&shape), FailureKind::Graph);
        assert!(!GmorphError::from(shape).is_transient());
        let io = TensorError::Io("disk gone".into());
        assert_eq!(classify(&io), FailureKind::Io);
        assert_eq!(classify(&non_finite("x", "y")), FailureKind::NonFinite);
    }

    #[test]
    fn transience_matches_design() {
        assert!(FailureKind::Panic.is_transient());
        assert!(FailureKind::NonFinite.is_transient());
        assert!(!FailureKind::Timeout.is_transient());
        assert!(!FailureKind::OomGuard.is_transient());
    }

    #[test]
    fn fault_spec_parses_all_modes() {
        assert_eq!(
            FaultSpec::parse("nan_loss:5"),
            Some(FaultSpec {
                kind: FaultKind::NanLoss,
                at_iter: 5
            })
        );
        assert_eq!(
            FaultSpec::parse("grad_explode:12"),
            Some(FaultSpec {
                kind: FaultKind::GradExplode,
                at_iter: 12
            })
        );
        assert_eq!(
            FaultSpec::parse("slow_candidate:0"),
            Some(FaultSpec {
                kind: FaultKind::SlowCandidate,
                at_iter: 0
            })
        );
        assert_eq!(
            FaultSpec::parse("panic:3"),
            Some(FaultSpec {
                kind: FaultKind::PanicEval,
                at_iter: 3
            })
        );
        assert_eq!(FaultSpec::parse("nan_loss"), None);
        assert_eq!(FaultSpec::parse("quantum_bitflip:2"), None);
        assert_eq!(FaultSpec::parse("nan_loss:many"), None);
    }
}
