//! Deterministic crash/resume replay harness.
//!
//! The checkpoint contract (DESIGN.md §12): killing a search at *any*
//! iteration and resuming from the newest on-disk snapshot must yield a
//! result bit-identical to an uninterrupted run — best configuration,
//! score, counters, per-iteration trace, and the fused model's
//! serialized state dict. Only wall-clock time is exempt.
//!
//! Crashes are injected with `CheckpointOptions::crash_after` using
//! `CrashKind::Panic`, which unwinds through the search loop exactly
//! like a real panic would (the manager's `Drop` flush runs during the
//! unwind). The CI resume-smoke job covers the `Abort` path, where the
//! process dies without unwinding.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::{Mutex, PoisonError};

use gmorph::graph::persist::encode_model_bytes;
use gmorph::models::train::TrainConfig;
use gmorph::prelude::*;
use gmorph::search::driver::run_search_checkpointed;
use gmorph::search::evaluator::EvalMode;
use gmorph::search::{CheckpointOptions, CrashKind};
use gmorph::tensor::engine;

/// Held by every test that sets `GMORPH_CACHE_DIR`, from `set_var` to its
/// end, so no two of them move the variable under each other.
static CACHE_DIR_ENV: Mutex<()> = Mutex::new(());

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gmorph-resume-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

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

fn search_cfg(session: &Session, iterations: usize) -> gmorph::search::SearchConfig {
    let mut cfg = OptimizationConfig {
        iterations,
        seed: 7,
        ..Default::default()
    }
    .to_search_config();
    cfg.virtual_throughput = session.virtual_throughput;
    cfg
}

/// Asserts two search results are bit-identical modulo wall-clock time.
fn assert_same_result(a: &SearchResult, b: &SearchResult, what: &str) {
    assert_eq!(
        a.best.mini.signature(),
        b.best.mini.signature(),
        "{what}: best mini graph"
    );
    assert_eq!(
        a.best.paper.signature(),
        b.best.paper.signature(),
        "{what}: best paper graph"
    );
    assert_eq!(
        a.best.latency_ms.to_bits(),
        b.best.latency_ms.to_bits(),
        "{what}: best latency"
    );
    assert_eq!(a.best.drop.to_bits(), b.best.drop.to_bits(), "{what}: drop");
    assert_eq!(a.best.scores.len(), b.best.scores.len(), "{what}: scores");
    for (i, (x, y)) in a.best.scores.iter().zip(&b.best.scores).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{what}: score {i}");
    }
    let a_bytes = encode_model_bytes(&a.best.mini, &a.best.weights).unwrap();
    let b_bytes = encode_model_bytes(&b.best.mini, &b.best.weights).unwrap();
    assert_eq!(a_bytes, b_bytes, "{what}: fused model state dict bytes");
    assert_eq!(
        a.original_latency_ms.to_bits(),
        b.original_latency_ms.to_bits(),
        "{what}: original latency"
    );
    assert_eq!(a.speedup.to_bits(), b.speedup.to_bits(), "{what}: speedup");
    assert_eq!(
        a.virtual_hours.to_bits(),
        b.virtual_hours.to_bits(),
        "{what}: virtual hours"
    );
    assert_eq!(a.evaluated, b.evaluated, "{what}: evaluated");
    assert_eq!(a.rule_filtered, b.rule_filtered, "{what}: rule_filtered");
    assert_eq!(
        a.early_terminated, b.early_terminated,
        "{what}: early_terminated"
    );
    assert_eq!(a.duplicates, b.duplicates, "{what}: duplicates");
    assert_eq!(a.failed, b.failed, "{what}: failed");
    assert_eq!(a.quarantined, b.quarantined, "{what}: quarantined");
    assert_eq!(a.trace.len(), b.trace.len(), "{what}: trace length");
    for (i, (x, y)) in a.trace.iter().zip(&b.trace).enumerate() {
        assert_eq!(x.iter, y.iter, "{what}: trace[{i}].iter");
        assert_eq!(x.status, y.status, "{what}: trace[{i}].status");
        assert_eq!(x.from_elite, y.from_elite, "{what}: trace[{i}].from_elite");
        assert!(
            x.drop.to_bits() == y.drop.to_bits() || (x.drop.is_nan() && y.drop.is_nan()),
            "{what}: trace[{i}].drop {} vs {}",
            x.drop,
            y.drop
        );
        assert_eq!(x.met_target, y.met_target, "{what}: trace[{i}].met_target");
        assert_eq!(
            x.candidate_latency_ms.to_bits(),
            y.candidate_latency_ms.to_bits(),
            "{what}: trace[{i}].candidate_latency_ms"
        );
        assert_eq!(
            x.best_latency_ms.to_bits(),
            y.best_latency_ms.to_bits(),
            "{what}: trace[{i}].best_latency_ms"
        );
        assert_eq!(x.epochs, y.epochs, "{what}: trace[{i}].epochs");
        assert_eq!(
            x.virtual_hours.to_bits(),
            y.virtual_hours.to_bits(),
            "{what}: trace[{i}].virtual_hours"
        );
        // wall_seconds deliberately not compared.
    }
}

/// Runs the search, `per_round` candidates per round, with a crash
/// injected at `interrupt` (after the round holding it), then resumes
/// from disk and returns the resumed result.
fn crash_and_resume(
    session: &Session,
    mode: &EvalMode,
    cfg: &gmorph::search::SearchConfig,
    per_round: usize,
    dir: PathBuf,
    interrupt: usize,
) -> SearchResult {
    let mut opts = CheckpointOptions::new(dir.clone());
    opts.every = 1;
    opts.crash_after = Some((interrupt, CrashKind::Panic));
    let crashed = catch_unwind(AssertUnwindSafe(|| {
        run_search_checkpointed(
            &session.mini_graph,
            &session.paper_graph,
            &session.weights,
            mode,
            cfg,
            per_round,
            Some(&opts),
        )
    }));
    assert!(
        crashed.is_err(),
        "crash at iteration {interrupt} must panic"
    );

    let mut resume = CheckpointOptions::new(dir);
    resume.every = 1;
    resume.resume = true;
    run_search_checkpointed(
        &session.mini_graph,
        &session.paper_graph,
        &session.weights,
        mode,
        cfg,
        per_round,
        Some(&resume),
    )
    .unwrap()
}

/// Checks, for `per_round` candidates per round, that a search crashed at
/// any of three interrupt points, at 1 and 4 kernel threads, resumes to a
/// result bit-identical to the uninterrupted one.
fn assert_resume_bit_identical(per_round: usize) {
    let session = smoke_session(7);
    let mode = session.eval_mode(AccuracyMode::Surrogate).unwrap();
    let cfg = search_cfg(&session, 24);

    let reference = run_search_checkpointed(
        &session.mini_graph,
        &session.paper_graph,
        &session.weights,
        &mode,
        &cfg,
        per_round,
        None,
    )
    .unwrap();
    assert_eq!(reference.trace.len(), 24);
    // Guard against a vacuous scenario: the replayed iterations must
    // exercise the elite-sampling path, which only happens once some
    // candidate met the accuracy target. (An earlier version of this
    // test used a configuration where nothing was ever accepted — it
    // passed even with elite arena-id restoration broken.)
    assert!(reference.speedup > 1.0, "scenario found nothing: useless");
    let first_hit = reference
        .trace
        .iter()
        .find(|r| r.met_target)
        .map(|r| r.iter)
        .expect("no candidate met the target");
    assert!(
        first_hit <= 12,
        "first accepted candidate at iter {first_hit}; interrupts must land after it"
    );

    for threads in [1usize, 4] {
        for interrupt in [3usize, 12, 20] {
            let what = format!("per_round={per_round} threads={threads} interrupt={interrupt}");
            let dir = scratch_dir(&format!("k{per_round}-t{threads}-i{interrupt}"));
            let resumed = engine::with_thread_limit(threads, || {
                crash_and_resume(&session, &mode, &cfg, per_round, dir.clone(), interrupt)
            });
            assert_same_result(&reference, &resumed, &what);
            std::fs::remove_dir_all(&dir).ok();
        }
    }
}

/// The tentpole acceptance test: ≥3 interrupt points, at 1 and 4 kernel
/// threads, one candidate per round, each resumed run bit-identical to
/// the uninterrupted one.
#[test]
fn resume_is_bit_identical_at_every_interrupt_point() {
    assert_resume_bit_identical(1);
}

/// The same contract with four candidates evaluated per round; a crash
/// lands after the round holding the interrupt iteration.
#[test]
fn batched_resume_is_bit_identical() {
    assert_resume_bit_identical(4);
}

/// A snapshot written before search schema v3 resumes under this build
/// to the uninterrupted result. The fixture is the newest file of CI's
/// resume-smoke run (`gmorph optimize --bench B1 --iterations 24 --mode
/// surrogate --seed 7 --checkpoint-dir ckpt --checkpoint-every 1`, or the
/// same keys in a `--config` file, aborted after iteration 12) as written
/// by a schema-v2 build.
#[test]
fn a_schema_v2_snapshot_resumes_bit_identically() {
    use gmorph::search::checkpoint::{
        config_fingerprint, load_latest_search, SearchSnapshot, SEARCH_KIND,
    };
    use gmorph::tensor::checkpoint::load;

    // The CLI's session: standard data, default teachers (trained afresh
    // into a private cache, as on a clean CI runner).
    let cache = scratch_dir("v2-teachers");
    let _env = CACHE_DIR_ENV.lock().unwrap_or_else(PoisonError::into_inner);
    std::env::set_var("GMORPH_CACHE_DIR", &cache);
    let bench = build_benchmark(BenchId::B1, &DataProfile::standard(), 7).unwrap();
    let session = Session::prepare(
        bench,
        &SessionConfig {
            seed: 7,
            ..Default::default()
        },
    )
    .unwrap();
    std::env::remove_var("GMORPH_CACHE_DIR");
    std::fs::remove_dir_all(&cache).ok();
    let mut cfg = OptimizationConfig {
        iterations: 24,
        seed: 7,
        mode: AccuracyMode::Surrogate,
        ..Default::default()
    };
    let reference = session.optimize(&cfg).unwrap();

    let dir = scratch_dir("v2-fixture");
    let file = dir.join("search-000012.gmck");
    std::fs::copy(
        PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("../../tests/fixtures/search-v2/search-000012.gmck"),
        &file,
    )
    .unwrap();
    assert_eq!(load(&file, SEARCH_KIND).unwrap().schema, 2);
    // Not a fresh start in disguise: the fixture is what the run resumes.
    let mut search_cfg = cfg.to_search_config();
    search_cfg.virtual_throughput = session.virtual_throughput;
    let fingerprint = config_fingerprint(&search_cfg, &session.mini_graph, &session.paper_graph);
    let mut from_v2 = load_latest_search(&dir, fingerprint)
        .unwrap()
        .expect("the fixture matches this run's fingerprint");
    assert_eq!(from_v2.state.next_iter, 13);

    // Decoding the v2 file yields the state this build snapshots at the
    // same iteration, digests of the signature text included: both encode
    // to the same v3 bytes once the wall clock is set aside.
    let own = scratch_dir("v2-own");
    let mut opts = CheckpointOptions::new(own.clone());
    opts.every = 1;
    opts.keep = 24;
    run_search_checkpointed(
        &session.mini_graph,
        &session.paper_graph,
        &session.weights,
        &session.eval_mode(AccuracyMode::Surrogate).unwrap(),
        &search_cfg,
        1,
        Some(&opts),
    )
    .unwrap();
    let mut from_v3 =
        SearchSnapshot::decode(&load(&own.join("search-000012.gmck"), SEARCH_KIND).unwrap())
            .unwrap();
    std::fs::remove_dir_all(&own).ok();
    for snap in [&mut from_v2, &mut from_v3] {
        snap.state.wall_offset = 0.0;
        for t in &mut snap.trace {
            t.wall_seconds = 0.0;
        }
    }
    assert!(
        from_v2.encode().unwrap() == from_v3.encode().unwrap(),
        "the decoded v2 snapshot differs from this build's own"
    );

    cfg.checkpoint_dir = Some(dir.clone());
    cfg.checkpoint_every = 1;
    cfg.resume = true;
    let resumed = session.optimize(&cfg).unwrap();
    assert_same_result(&reference, &resumed, "schema-v2 fixture");
    std::fs::remove_dir_all(&dir).ok();
}

/// Failure containment composes with crash/resume: a run whose candidate
/// faulted (and was retried, then quarantined) can be killed around the
/// retry boundary and resumed bit-identically — including the quarantine
/// set and the failed/quarantined counters. Both runs carry the same
/// fault configuration, mirroring a real flaky-candidate reproduction.
#[test]
fn resume_through_a_faulted_candidate_is_bit_identical() {
    use gmorph::tensor::{FaultKind, FaultSpec};

    let session = smoke_session(7);
    let mode = session.eval_mode(AccuracyMode::Surrogate).unwrap();
    let mut cfg = search_cfg(&session, 16);

    // Find an iteration that actually evaluates, then poison it.
    let clean = run_search_checkpointed(
        &session.mini_graph,
        &session.paper_graph,
        &session.weights,
        &mode,
        &cfg,
        1,
        None,
    )
    .unwrap();
    let fault_iter = clean
        .trace
        .iter()
        .find(|r| r.status == gmorph::search::driver::CandidateStatus::Evaluated)
        .map(|r| r.iter)
        .expect("clean run evaluated nothing: useless scenario");
    cfg.supervisor.fault = Some(FaultSpec {
        kind: FaultKind::NanLoss,
        at_iter: fault_iter,
    });

    let reference = run_search_checkpointed(
        &session.mini_graph,
        &session.paper_graph,
        &session.weights,
        &mode,
        &cfg,
        1,
        None,
    )
    .unwrap();
    assert_eq!(reference.failed, 1, "fault did not fire: useless scenario");

    // Kill right at the faulted iteration (snapshot covers the retry
    // exhaustion + quarantine) and one iteration after it.
    for interrupt in [fault_iter, fault_iter + 1] {
        let dir = scratch_dir(&format!("fault-i{interrupt}"));
        let resumed = crash_and_resume(&session, &mode, &cfg, 1, dir.clone(), interrupt);
        assert_same_result(
            &reference,
            &resumed,
            &format!("faulted interrupt={interrupt}"),
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// A resume against a *different* configuration must not pick up the
/// stale snapshot (fingerprint mismatch → fresh start), and the result
/// must equal a fresh uninterrupted run of the new configuration.
#[test]
fn resume_ignores_checkpoints_from_other_configs() {
    let session = smoke_session(44);
    let mode = session.eval_mode(AccuracyMode::Surrogate).unwrap();
    let cfg_a = search_cfg(&session, 6);
    let mut cfg_b = search_cfg(&session, 6);
    cfg_b.seed ^= 0xDEAD;

    let dir = scratch_dir("xconfig");
    let mut opts = CheckpointOptions::new(dir.clone());
    opts.every = 1;
    // Populate the directory with config-A snapshots.
    run_search_checkpointed(
        &session.mini_graph,
        &session.paper_graph,
        &session.weights,
        &mode,
        &cfg_a,
        1,
        Some(&opts),
    )
    .unwrap();

    let reference_b = run_search_checkpointed(
        &session.mini_graph,
        &session.paper_graph,
        &session.weights,
        &mode,
        &cfg_b,
        1,
        None,
    )
    .unwrap();

    let mut resume = CheckpointOptions::new(dir.clone());
    resume.every = 1;
    resume.resume = true;
    let resumed_b = run_search_checkpointed(
        &session.mini_graph,
        &session.paper_graph,
        &session.weights,
        &mode,
        &cfg_b,
        1,
        Some(&resume),
    )
    .unwrap();
    assert_same_result(&reference_b, &resumed_b, "fingerprint-mismatch fresh start");
    std::fs::remove_dir_all(&dir).ok();
}
