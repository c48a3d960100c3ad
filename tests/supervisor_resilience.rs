//! Supervisor resilience: an injected candidate fault must never abort
//! the search. The offender is retried (when transient), classified,
//! quarantined, and scored as a rejection — and the run completes with
//! exactly as many trace records as a clean run.
//!
//! Faults are injected through `SupervisorConfig::fault` directly (the
//! in-process equivalent of the `GMORPH_FAULT` environment variable,
//! which the CI fault-smoke job exercises end-to-end; tests never poke
//! the process environment because the test runner shares it).

use gmorph::models::train::TrainConfig;
use gmorph::prelude::*;
use gmorph::search::driver::{run_search_checkpointed, CandidateStatus, SearchResult};
use gmorph::search::evaluator::EvalMode;
use gmorph::search::SearchConfig;
use gmorph::telemetry::metrics::counter_value;
use gmorph::telemetry::sink::install_test_sink;
use gmorph::tensor::{FaultKind, FaultSpec};

fn smoke_session(seed: u64) -> Session {
    let bench = build_benchmark(BenchId::B1, &DataProfile::smoke(), seed).unwrap();
    Session::prepare(
        bench,
        &SessionConfig {
            teacher: TrainConfig {
                epochs: 1,
                batch: 32,
                lr: 3e-3,
                seed,
            },
            seed,
            use_cache: false,
            ..Default::default()
        },
    )
    .unwrap()
}

fn run(session: &Session, mode: &EvalMode, cfg: &SearchConfig) -> SearchResult {
    run_rounds(session, mode, cfg, 1)
}

fn run_rounds(
    session: &Session,
    mode: &EvalMode,
    cfg: &SearchConfig,
    per_round: usize,
) -> SearchResult {
    run_search_checkpointed(
        &session.mini_graph,
        &session.paper_graph,
        &session.weights,
        mode,
        cfg,
        per_round,
        None,
    )
    .unwrap()
}

fn surrogate_cfg(iterations: usize) -> SearchConfig {
    OptimizationConfig {
        iterations,
        seed: 7,
        ..Default::default()
    }
    .to_search_config()
}

/// The first iteration of a clean run whose candidate actually reached
/// evaluation (a fault at a duplicate/filtered iteration would be inert).
fn first_evaluated_iter(reference: &SearchResult) -> usize {
    reference
        .trace
        .iter()
        .find(|r| r.status == CandidateStatus::Evaluated)
        .map(|r| r.iter)
        .expect("clean run evaluated nothing: useless scenario")
}

/// Satellite (a): every fault mode completes the search with the same
/// iteration count as the clean run, quarantines the offender, and emits
/// `eval.quarantine` telemetry — with one candidate per round and with
/// four evaluated in parallel, where the fault poisons only its own
/// candidate.
#[test]
fn injected_faults_are_contained_and_search_completes() {
    let session = smoke_session(7);
    let mode = session.eval_mode(AccuracyMode::Surrogate).unwrap();
    let cfg = surrogate_cfg(16);
    for per_round in [1usize, 4] {
        let reference = run_rounds(&session, &mode, &cfg, per_round);
        assert_eq!(reference.trace.len(), 16);
        assert_eq!(reference.failed, 0);
        let fault_iter = first_evaluated_iter(&reference);

        for kind in [
            FaultKind::NanLoss,
            FaultKind::GradExplode,
            FaultKind::PanicEval,
        ] {
            let what = format!("{kind:?} per_round={per_round}");
            let mut faulted_cfg = cfg.clone();
            faulted_cfg.supervisor.fault = Some(FaultSpec {
                kind,
                at_iter: fault_iter,
            });
            let guard = install_test_sink();
            let faulted = run_rounds(&session, &mode, &faulted_cfg, per_round);
            let quarantine_events = counter_value("eval.quarantine");
            let retry_events = counter_value("eval.retry");
            drop(guard);

            // The search completed — same iteration count as the clean run.
            assert_eq!(
                faulted.trace.len(),
                reference.trace.len(),
                "{what}: search must run to completion"
            );
            assert_eq!(faulted.failed, 1, "{what}: exactly one contained failure");
            assert!(quarantine_events >= 1, "{what}: quarantine not counted");
            // NanLoss/GradExplode/Panic are all transient: retries happened.
            assert!(retry_events >= 1, "{what}: transient fault never retried");

            // The offending iteration is recorded as Failed with a NaN drop.
            let rec = faulted
                .trace
                .iter()
                .find(|r| r.iter == fault_iter)
                .expect("fault iteration missing from trace");
            assert_eq!(rec.status, CandidateStatus::Failed, "{what}");
            assert!(rec.drop.is_nan(), "{what}: failed drop must be NaN");
            assert!(!rec.met_target, "{what}");

            // Iterations before the fault replay the clean run bit-exactly
            // (default supervision does not perturb the RNG stream).
            for (a, b) in reference
                .trace
                .iter()
                .zip(&faulted.trace)
                .take_while(|(a, _)| a.iter < fault_iter)
            {
                assert_eq!(a.status, b.status, "{what}: pre-fault divergence");
                assert_eq!(
                    a.candidate_latency_ms.to_bits(),
                    b.candidate_latency_ms.to_bits(),
                    "{what}: pre-fault latency divergence"
                );
            }
        }
    }
}

/// A slow candidate trips the wall-clock deadline; timeouts are
/// permanent (machine-dependent), so there is exactly one attempt and
/// the candidate goes straight to quarantine.
#[test]
fn slow_candidate_times_out_and_is_quarantined() {
    let session = smoke_session(7);
    let mode = session.eval_mode(AccuracyMode::Surrogate).unwrap();
    let mut cfg = surrogate_cfg(12);
    let reference = run(&session, &mode, &cfg);
    let fault_iter = first_evaluated_iter(&reference);

    cfg.supervisor.fault = Some(FaultSpec {
        kind: FaultKind::SlowCandidate,
        at_iter: fault_iter,
    });
    // The injected stall sleeps 30ms; a 5ms deadline must catch it.
    cfg.finetune.wall_deadline_ms = Some(5);

    let guard = install_test_sink();
    let faulted = run(&session, &mode, &cfg);
    let retry_events = counter_value("eval.retry");
    let quarantine_events = counter_value("eval.quarantine");
    drop(guard);

    assert_eq!(faulted.trace.len(), reference.trace.len());
    assert_eq!(faulted.failed, 1);
    assert_eq!(retry_events, 0, "timeouts must not be retried");
    assert!(quarantine_events >= 1);
    let rec = faulted.trace.iter().find(|r| r.iter == fault_iter).unwrap();
    assert_eq!(rec.status, CandidateStatus::Failed);
}

/// A fault at an iteration past the end of the run never fires: the
/// faulted configuration replays the clean run bit-for-bit.
#[test]
fn out_of_range_fault_is_inert() {
    let session = smoke_session(7);
    let mode = session.eval_mode(AccuracyMode::Surrogate).unwrap();
    let cfg = surrogate_cfg(8);
    let reference = run(&session, &mode, &cfg);

    let mut faulted_cfg = cfg.clone();
    faulted_cfg.supervisor.fault = Some(FaultSpec {
        kind: FaultKind::NanLoss,
        at_iter: 999,
    });
    let faulted = run(&session, &mode, &faulted_cfg);
    assert_eq!(faulted.failed, 0);
    assert_eq!(
        faulted.best.mini.signature(),
        reference.best.mini.signature()
    );
    assert_eq!(
        faulted.best.latency_ms.to_bits(),
        reference.best.latency_ms.to_bits()
    );
    assert_eq!(faulted.speedup.to_bits(), reference.speedup.to_bits());
}

/// Real-mode containment: the fault poisons actual distillation
/// fine-tuning (NaN losses and gradients through the real training
/// loop), and the supervisor still contains it.
#[test]
fn real_mode_fault_is_contained() {
    let session = smoke_session(7);
    let mode = session.eval_mode(AccuracyMode::Real).unwrap();
    let mut cfg = OptimizationConfig {
        iterations: 4,
        max_epochs: 2,
        eval_every: 1,
        seed: 7,
        mode: AccuracyMode::Real,
        ..Default::default()
    }
    .to_search_config();

    let reference = run(&session, &mode, &cfg);
    let fault_iter = first_evaluated_iter(&reference);
    cfg.supervisor.fault = Some(FaultSpec {
        kind: FaultKind::NanLoss,
        at_iter: fault_iter,
    });

    let guard = install_test_sink();
    let faulted = run(&session, &mode, &cfg);
    let quarantine_events = counter_value("eval.quarantine");
    drop(guard);

    assert_eq!(faulted.trace.len(), reference.trace.len());
    assert_eq!(faulted.failed, 1);
    assert!(quarantine_events >= 1);
}
