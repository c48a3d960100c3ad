//! Resilient candidate evaluation: deadlines, retry/backoff, quarantine.
//!
//! Algorithm 1 fine-tunes thousands of *generated* candidate graphs, and
//! some of them are simply bad: they diverge to NaN, train pathologically
//! slowly, or tickle a panic in a kernel. The supervisor wraps
//! [`EvalMode::evaluate`] in a containment boundary so that a failing
//! candidate becomes a *classified, scored-as-rejected* search step instead
//! of an aborted run:
//!
//! - every attempt runs under `catch_unwind`, so a panicking candidate is
//!   caught and classified as [`FailureKind::Panic`],
//! - a wall-clock deadline ([`FinetuneConfig::wall_deadline_ms`]) is
//!   enforced both inside the fine-tune loop (epoch granularity) and as a
//!   post-check here,
//! - *transient* failures (panic, non-finite) are retried up to
//!   [`SupervisorConfig::max_retries`] times with an exponentially
//!   backed-off learning rate and a **reseeded** initialization drawn from
//!   an RNG stream disjoint from the search stream,
//! - *permanent* failures (timeouts: properties of the graph, not of the
//!   draw) skip retries entirely,
//! - exhausted candidates come back as a [`FailureReport`] the driver
//!   quarantines by graph signature digest.
//!
//! # Determinism
//!
//! Attempt 0 draws from the RNG the caller passes. With one candidate per
//! round that is the main search RNG, consumed exactly like an unsupervised
//! evaluation, so a clean run under the default config is bit-identical to
//! the pre-supervisor driver; with several candidates evaluated in parallel
//! it is the candidate's own `Rng::new(retry_seed(seed, iter, 0))`.
//! Retry attempts use fresh `Rng::new(retry_seed(..))` streams derived
//! from `(seed, iter, attempt)` — they never touch the search stream, so a
//! retried candidate perturbs nothing downstream and kill/resume at the
//! retry boundary replays bit-exactly (checkpoints snapshot the search RNG
//! per round; the retry streams are reconstructed from scratch).

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use crate::evaluator::{EvalMode, Evaluation};
use gmorph_graph::{AbsGraph, WeightStore};
use gmorph_perf::accuracy::FinetuneConfig;
use gmorph_tensor::error::{self, FailureKind, FaultSpec};
use gmorph_tensor::rng::Rng;

/// Learning-rate multiplier applied per retry attempt
/// (`lr * LR_BACKOFF^attempt`).
const LR_BACKOFF: f32 = 0.5;

/// Supervision knobs for candidate evaluation.
///
/// The default configuration is *inert*: no retries beyond the two bounded
/// re-attempts would ever trigger on a healthy candidate, no deadlines, no
/// fault injection — and attempt 0 uses the RNG it is given, so
/// default-config runs are bit-identical to unsupervised ones.
#[derive(Debug, Clone, PartialEq)]
pub struct SupervisorConfig {
    /// Bounded retry attempts after the first try (transient failures
    /// only).
    pub max_retries: usize,
    /// Fault injection (from `GMORPH_FAULT`): poisons the candidate at the
    /// configured iteration on *every* attempt — a faulty graph stays
    /// faulty, which is what drives it into quarantine.
    pub fault: Option<FaultSpec>,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        SupervisorConfig {
            max_retries: 2,
            fault: None,
        }
    }
}

/// A candidate that failed every permitted attempt, classified.
#[derive(Debug, Clone)]
pub struct FailureReport {
    /// Classification of the *final* failure.
    pub kind: FailureKind,
    /// Attempts actually made (1 for permanent failures).
    pub attempts: usize,
    /// Final failure message.
    pub message: String,
}

/// Derives the RNG seed for attempt `attempt` of iteration `iter`: retries
/// (≥ 1) always, and attempt 0 when a round evaluates several candidates
/// in parallel.
///
/// The constant salt keeps the derived seeds out of the search stream's
/// seed space (`cfg.seed ^ 0x5EA_4C4`); distinct `(iter, attempt)` pairs
/// map to distinct seeds.
pub fn retry_seed(seed: u64, iter: usize, attempt: usize) -> u64 {
    seed ^ 0xF0A1_7E57_D00D_0000u64
        ^ (iter as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ ((attempt as u64) << 48)
}

/// Derives the surrogate noise salt for retry attempt `attempt` (≥ 1):
/// perturbing the salt reseeds the analytic model's noise draw, the
/// surrogate analogue of a reseeded weight initialization.
pub(crate) fn retry_salt(noise_salt: u64, attempt: usize) -> u64 {
    noise_salt ^ (attempt as u64).wrapping_mul(0xA5A5_5A5A_1234_5678)
}

/// Renders a panic payload's message, when it carries one.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// Evaluates one candidate under supervision.
///
/// On success returns the evaluation; on exhaustion returns a
/// [`FailureReport`] the driver turns into a rejected step plus a
/// quarantine entry. This function never panics on a candidate failure and
/// never returns a raw error: every outcome is classified.
#[allow(clippy::too_many_arguments)]
pub(crate) fn evaluate_supervised(
    mode: &EvalMode,
    candidate: &AbsGraph,
    base_weights: &WeightStore,
    finetune: &FinetuneConfig,
    sup: &SupervisorConfig,
    seed: u64,
    iter: usize,
    rng: &mut Rng,
    noise_salt: u64,
) -> std::result::Result<Evaluation, FailureReport> {
    let total_attempts = 1 + sup.max_retries;
    let mut last: Option<(FailureKind, String)> = None;
    let mut attempts = 0usize;

    for attempt in 0..total_attempts {
        attempts = attempt + 1;
        let mut cfg = finetune.clone();
        if attempt > 0 {
            cfg.lr = finetune.lr * LR_BACKOFF.powi(attempt as i32);
        }
        if let Some(fault) = sup.fault {
            if fault.at_iter == iter {
                cfg.inject = Some(fault.kind);
            }
        }

        let started = Instant::now();
        let caught = if attempt == 0 {
            // First attempt: the caller's stream, bit-compatible with an
            // unsupervised evaluation.
            catch_unwind(AssertUnwindSafe(|| {
                mode.evaluate(candidate, base_weights, &cfg, rng, noise_salt)
            }))
        } else {
            // Retry: a fresh stream disjoint from the search stream, plus
            // a perturbed noise salt — a reseeded initialization.
            let mut retry_rng = Rng::new(retry_seed(seed, iter, attempt));
            let salt = retry_salt(noise_salt, attempt);
            catch_unwind(AssertUnwindSafe(|| {
                mode.evaluate(candidate, base_weights, &cfg, &mut retry_rng, salt)
            }))
        };

        let outcome = match caught {
            Ok(res) => res,
            Err(payload) => Err(error::panic_failure(
                "supervisor::evaluate",
                format!(
                    "attempt {attempt} panicked: {}",
                    panic_message(payload.as_ref())
                ),
            )),
        };
        // Post-check the wall deadline: an attempt that "succeeded" after
        // blowing its budget is still a timeout (the in-loop check only
        // fires at epoch boundaries).
        let outcome = match outcome {
            Ok(eval) => {
                let elapsed_ms = started.elapsed().as_millis() as u64;
                match cfg.wall_deadline_ms {
                    Some(limit) if elapsed_ms > limit => Err(error::timeout(
                        "supervisor::evaluate",
                        format!("attempt {attempt} took {elapsed_ms}ms, deadline {limit}ms"),
                    )),
                    _ => Ok(eval),
                }
            }
            err => err,
        };

        match outcome {
            Ok(eval) => {
                if attempt > 0 {
                    gmorph_telemetry::counter!("eval.retry_recovered");
                }
                return Ok(eval);
            }
            Err(err) => {
                let kind = error::classify(&err);
                let message = err.to_string();
                let will_retry = kind.is_transient() && attempt + 1 < total_attempts;
                gmorph_telemetry::counter!("eval.attempt_failed");
                gmorph_telemetry::point!(
                    "eval.retry",
                    iter = iter,
                    attempt = attempt,
                    kind = kind.as_str(),
                    transient = kind.is_transient(),
                    will_retry = will_retry,
                    next_lr = if will_retry {
                        (finetune.lr * LR_BACKOFF.powi(attempt as i32 + 1)) as f64
                    } else {
                        f64::NAN
                    },
                    error = message.as_str()
                );
                last = Some((kind, message));
                if !will_retry {
                    break;
                }
                gmorph_telemetry::counter!("eval.retry");
            }
        }
    }

    let (kind, message) = last.expect("at least one attempt ran");
    Err(FailureReport {
        kind,
        attempts,
        message,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluator::SurrogateContext;
    use gmorph_data::TaskSpec;
    use gmorph_graph::parser::parse_specs;
    use gmorph_graph::{mutation, pairs, CapacityVector};
    use gmorph_models::families::{vgg, VggDepth, VisionScale};
    use gmorph_perf::accuracy::SurrogateParams;
    use gmorph_tensor::error::FaultKind;

    fn test_candidate() -> (AbsGraph, WeightStore, EvalMode) {
        let t0 = TaskSpec::classification("a", 2);
        let t1 = TaskSpec::classification("b", 3);
        let g = parse_specs(&[
            vgg(VggDepth::Vgg11, VisionScale::mini(), &t0).unwrap(),
            vgg(VggDepth::Vgg11, VisionScale::mini(), &t1).unwrap(),
        ])
        .unwrap();
        let prs = pairs::shareable_pairs(&g).unwrap();
        let (m, _) = mutation::mutation_pass(&g, &[prs[0]]).unwrap();
        let mode = EvalMode::Surrogate(SurrogateContext {
            orig_capacity: CapacityVector::of(&g).unwrap(),
            params: SurrogateParams::default(),
            teacher_scores: vec![0.85, 0.80],
        });
        (m, WeightStore::new(), mode)
    }

    fn cfg() -> FinetuneConfig {
        FinetuneConfig {
            max_epochs: 10,
            eval_every: 1,
            target_drop: 0.02,
            ..Default::default()
        }
    }

    #[test]
    fn default_supervision_is_bit_identical_to_direct_eval() {
        let (cand, weights, mode) = test_candidate();
        let mut rng_a = Rng::new(99);
        let mut rng_b = Rng::new(99);
        let direct = mode
            .evaluate(&cand, &weights, &cfg(), &mut rng_a, 1234)
            .unwrap();
        let supervised = evaluate_supervised(
            &mode,
            &cand,
            &weights,
            &cfg(),
            &SupervisorConfig::default(),
            7,
            1,
            &mut rng_b,
            1234,
        )
        .unwrap();
        assert_eq!(
            direct.result.final_drop.to_bits(),
            supervised.result.final_drop.to_bits()
        );
        assert_eq!(direct.result.epochs_run, supervised.result.epochs_run);
        // The search stream advanced identically.
        assert_eq!(rng_a, rng_b);
    }

    #[test]
    fn nan_fault_exhausts_retries_and_classifies_non_finite() {
        let (cand, weights, mode) = test_candidate();
        let sup = SupervisorConfig {
            fault: Some(FaultSpec {
                kind: FaultKind::NanLoss,
                at_iter: 3,
            }),
            ..Default::default()
        };
        let mut rng = Rng::new(1);
        let report = evaluate_supervised(&mode, &cand, &weights, &cfg(), &sup, 7, 3, &mut rng, 42)
            .unwrap_err();
        assert_eq!(report.kind, FailureKind::NonFinite);
        assert_eq!(report.attempts, 1 + sup.max_retries);
    }

    #[test]
    fn fault_at_other_iteration_is_inert() {
        let (cand, weights, mode) = test_candidate();
        let sup = SupervisorConfig {
            fault: Some(FaultSpec {
                kind: FaultKind::NanLoss,
                at_iter: 3,
            }),
            ..Default::default()
        };
        let mut rng = Rng::new(1);
        assert!(
            evaluate_supervised(&mode, &cand, &weights, &cfg(), &sup, 7, 4, &mut rng, 42,).is_ok()
        );
    }

    #[test]
    fn panic_fault_is_caught_and_retried() {
        let (cand, weights, mode) = test_candidate();
        let sup = SupervisorConfig {
            max_retries: 1,
            fault: Some(FaultSpec {
                kind: FaultKind::PanicEval,
                at_iter: 2,
            }),
        };
        let mut rng = Rng::new(1);
        let report = evaluate_supervised(&mode, &cand, &weights, &cfg(), &sup, 7, 2, &mut rng, 42)
            .unwrap_err();
        assert_eq!(report.kind, FailureKind::Panic);
        assert_eq!(report.attempts, 2, "panic is transient: one retry");
    }

    #[test]
    fn slow_candidate_times_out_without_retry() {
        let (cand, weights, mode) = test_candidate();
        let sup = SupervisorConfig {
            fault: Some(FaultSpec {
                kind: FaultKind::SlowCandidate,
                at_iter: 5,
            }),
            ..Default::default()
        };
        let finetune = FinetuneConfig {
            wall_deadline_ms: Some(1),
            ..cfg()
        };
        let mut rng = Rng::new(1);
        let report =
            evaluate_supervised(&mode, &cand, &weights, &finetune, &sup, 7, 5, &mut rng, 42)
                .unwrap_err();
        assert_eq!(report.kind, FailureKind::Timeout);
        assert_eq!(report.attempts, 1, "timeouts are permanent: no retry");
    }

    #[test]
    fn retry_seeds_are_disjoint_from_search_stream() {
        // The search stream seeds as cfg.seed ^ 0x5EA_4C4; retry streams
        // must never collide with it (or with each other).
        for seed in [0u64, 7, 42, 0xFFFF_FFFF] {
            let search_seed = seed ^ 0x5EA_4C4;
            let mut seen = std::collections::HashSet::new();
            for iter in 1..20 {
                for attempt in 1..4 {
                    let rs = retry_seed(seed, iter, attempt);
                    assert_ne!(rs, search_seed);
                    assert!(seen.insert(rs), "duplicate retry seed");
                }
            }
        }
    }
}
