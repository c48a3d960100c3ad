//! End-to-end integration tests: teachers → parse → mutate → generate →
//! distillation fine-tune → measure, all with real training.

use gmorph::perf::estimator::measure_latency_ms;
use gmorph::prelude::*;
use gmorph::search::driver::CandidateStatus;

fn quick_session(id: BenchId, seed: u64) -> Session {
    let bench = build_benchmark(id, &DataProfile::smoke(), seed).unwrap();
    Session::prepare(
        bench,
        &SessionConfig {
            teacher: gmorph::models::train::TrainConfig {
                epochs: 2,
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

#[test]
fn real_mode_search_produces_a_valid_trained_model() {
    let session = quick_session(BenchId::B1, 5);
    let cfg = OptimizationConfig {
        accuracy_threshold: 0.05,
        iterations: 5,
        mode: AccuracyMode::Real,
        max_epochs: 3,
        eval_every: 1,
        lr: 1e-3,
        seed: 5,
        ..Default::default()
    };
    let result = session.optimize(&cfg).unwrap();
    result.best.mini.validate().unwrap();
    result.best.paper.validate().unwrap();
    assert!(result.evaluated > 0, "nothing was fine-tuned");
    assert!(result.wall_seconds > 0.0);
    // The best model materializes and runs on real data.
    let mut tree = session
        .materialize(&result.best.mini, &result.best.weights)
        .unwrap();
    let x = session.split.test.inputs.select_rows(&[0, 1]).unwrap();
    let ys = tree.forward(&x, Mode::Eval).unwrap();
    assert_eq!(ys.len(), session.bench.mini.len());
}

#[test]
fn fused_model_is_measurably_faster_when_sharing_lands() {
    let session = quick_session(BenchId::B1, 9);
    let cfg = OptimizationConfig {
        accuracy_threshold: 0.08, // Loose budget: sharing will land.
        iterations: 8,
        mode: AccuracyMode::Real,
        max_epochs: 3,
        eval_every: 1,
        lr: 1e-3,
        seed: 9,
        ..Default::default()
    };
    let result = session.optimize(&cfg).unwrap();
    if result.speedup > 1.0 {
        // Estimated speedup must be corroborated by the real engine.
        let x = session
            .split
            .test
            .inputs
            .select_rows(&[0, 1, 2, 3])
            .unwrap();
        let mut orig = session
            .materialize(&session.mini_graph, &session.weights)
            .unwrap();
        let mut fused = session
            .materialize(&result.best.mini, &result.best.weights)
            .unwrap();
        let lat_orig = measure_latency_ms(&mut orig, &x, 1, 7).unwrap();
        let lat_fused = measure_latency_ms(&mut fused, &x, 1, 7).unwrap();
        assert!(
            lat_fused < lat_orig * 1.02,
            "estimated speedup {:.2} but measured {:.2} -> {:.2} ms",
            result.speedup,
            lat_orig,
            lat_fused
        );
    }
}

#[test]
fn real_mode_drop_is_anchored_to_teacher_scores() {
    let session = quick_session(BenchId::B4, 13);
    // Teachers were just trained; their scores should be meaningful.
    for (spec, &score) in session.bench.mini.iter().zip(&session.teacher_scores) {
        assert!((0.0..=1.0).contains(&score), "{}: score {score}", spec.name);
    }
    let cfg = OptimizationConfig {
        accuracy_threshold: 0.10,
        iterations: 3,
        mode: AccuracyMode::Real,
        max_epochs: 2,
        eval_every: 1,
        lr: 1e-3,
        seed: 13,
        ..Default::default()
    };
    let result = session.optimize(&cfg).unwrap();
    for rec in &result.trace {
        if rec.status == CandidateStatus::Evaluated {
            assert!(rec.drop.is_finite());
            // Drop can't exceed the teachers' own scores.
            let max_teacher = session
                .teacher_scores
                .iter()
                .cloned()
                .fold(0.0f32, f32::max);
            assert!(rec.drop <= max_teacher + 1e-5);
        }
    }
}

#[test]
fn surrogate_and_real_agree_that_original_is_lossless() {
    // The unmutated graph must meet any nonnegative threshold under both
    // evaluation modes (it *is* the teachers).
    let session = quick_session(BenchId::B1, 17);
    for mode in [AccuracyMode::Real, AccuracyMode::Surrogate] {
        let eval = session.eval_mode(mode).unwrap();
        let cfg = gmorph::perf::accuracy::FinetuneConfig {
            max_epochs: 2,
            eval_every: 1,
            target_drop: 0.05,
            lr: 5e-4,
            batch: 32,
            ..Default::default()
        };
        let mut rng = Rng::new(0);
        let ev = eval
            .evaluate(&session.mini_graph, &session.weights, &cfg, &mut rng, 1)
            .unwrap();
        assert!(
            ev.result.met_target,
            "{mode:?}: drop {}",
            ev.result.final_drop
        );
    }
}

/// Golden CRC-32 of the all-shared B1 model's record (`encode_model_bytes`:
/// exact graph header, then the weights) after two distillation fine-tune
/// epochs on the smoke profile. The teachers it starts from are trained in
/// the same run, so this pins the bit patterns of every training-path
/// kernel (conv forward/backward above all) end to end.
const FINETUNE_MODEL_RECORD_CRC: u32 = 0xfbea_17f7;

#[test]
fn finetuned_model_bytes_match_golden_hash() {
    use gmorph::graph::parser::extract_weights;
    use gmorph::graph::persist::encode_model_bytes;
    use gmorph::perf::accuracy::{finetune, FinetuneConfig};
    use gmorph::search::evaluator::EvalMode;
    use gmorph::tensor::checkpoint::crc32;

    let bench = build_benchmark(BenchId::B1, &DataProfile::smoke(), 21).unwrap();
    let session = Session::prepare(
        bench,
        &SessionConfig {
            teacher: gmorph::models::train::TrainConfig {
                epochs: 1,
                batch: 32,
                lr: 3e-3,
                seed: 21,
            },
            seed: 21,
            use_cache: false,
            ..Default::default()
        },
    )
    .unwrap();
    let EvalMode::Real(ctx) = session.eval_mode(AccuracyMode::Real).unwrap() else {
        panic!("real eval mode expected");
    };
    let (graph, _) = session.all_shared().unwrap();
    let mut tree = session.materialize(&graph, &session.weights).unwrap();
    let cfg = FinetuneConfig {
        max_epochs: 2,
        batch: 64,
        eval_every: 2,
        target_drop: -1.0,
        early_termination: false,
        seed: 21,
        ..Default::default()
    };
    let result = finetune(
        &mut tree,
        &ctx.train_inputs,
        &ctx.targets,
        &ctx.test,
        &ctx.teacher_scores,
        &cfg,
    )
    .unwrap();
    assert_eq!(result.epochs_run, 2);
    let bytes = encode_model_bytes(&graph, &extract_weights(&tree)).unwrap();
    assert_eq!(
        crc32(&bytes),
        FINETUNE_MODEL_RECORD_CRC,
        "fine-tuned model bytes changed: 0x{:08x}",
        crc32(&bytes)
    );
}

/// CRC-32 of every field of a search result except `wall_seconds`, floats
/// by their bit patterns, the best model by its record.
fn search_result_crc(r: &SearchResult) -> u32 {
    use gmorph::graph::persist::{encode_graph_exact, encode_model_bytes};
    use gmorph::tensor::checkpoint::{crc32, ByteWriter};

    let mut w = ByteWriter::new();
    w.put_bytes(&encode_model_bytes(&r.best.mini, &r.best.weights).unwrap());
    w.put_str(&encode_graph_exact(&r.best.paper));
    w.put_f64(r.best.latency_ms);
    w.put_f32(r.best.drop);
    for &s in &r.best.scores {
        w.put_f32(s);
    }
    w.put_f64(r.original_latency_ms);
    w.put_f64(r.speedup);
    w.put_f64(r.virtual_hours);
    for n in [
        r.evaluated,
        r.rule_filtered,
        r.early_terminated,
        r.duplicates,
        r.failed,
        r.quarantined,
        r.trace.len(),
    ] {
        w.put_u64(n as u64);
    }
    for t in &r.trace {
        w.put_u64(t.iter as u64);
        w.put_str(t.status.as_str());
        w.put_u8(t.from_elite as u8);
        w.put_f32(t.drop);
        w.put_u8(t.met_target as u8);
        w.put_f64(t.candidate_latency_ms);
        w.put_f64(t.best_latency_ms);
        w.put_u64(t.epochs as u64);
        w.put_f64(t.virtual_hours);
    }
    crc32(&w.into_bytes())
}

/// Golden CRC-32s ([`search_result_crc`]) of four one-candidate-per-round
/// smoke B1 searches: plain surrogate; surrogate with rule filtering,
/// early termination and a zero budget; surrogate with a panic injected
/// at the first evaluated iteration; a 4-iteration real-mode search. They
/// pin the search loop's decisions, RNG consumption and bookkeeping.
const SEARCH_RESULT_RECORD_CRCS: [u32; 4] = [0xf980_15f7, 0x5ce5_f469, 0xf166_3955, 0x01be_e332];

#[test]
fn search_results_match_golden_hashes() {
    use gmorph::search::driver::run_search;
    use gmorph::tensor::{FaultKind, FaultSpec};

    let session = quick_session(BenchId::B1, 5);
    let surrogate = OptimizationConfig {
        accuracy_threshold: 0.02,
        iterations: 40,
        seed: 5,
        ..Default::default()
    };
    let plain = session.optimize(&surrogate).unwrap();
    let filtered = session
        .optimize(&OptimizationConfig {
            accuracy_threshold: 0.0,
            rule_filter: true,
            early_termination: true,
            ..surrogate.clone()
        })
        .unwrap();
    assert!(filtered.rule_filtered > 0 && filtered.early_terminated > 0);

    let first_evaluated = plain
        .trace
        .iter()
        .find(|t| {
            matches!(
                t.status,
                CandidateStatus::Evaluated | CandidateStatus::TerminatedEarly
            )
        })
        .expect("an evaluated iteration")
        .iter;
    let mut faulted_cfg = surrogate.to_search_config();
    faulted_cfg.iterations = 12;
    faulted_cfg.virtual_throughput = session.virtual_throughput;
    faulted_cfg.supervisor.fault = Some(FaultSpec {
        kind: FaultKind::PanicEval,
        at_iter: first_evaluated,
    });
    let faulted = run_search(
        &session.mini_graph,
        &session.paper_graph,
        &session.weights,
        &session.eval_mode(AccuracyMode::Surrogate).unwrap(),
        &faulted_cfg,
    )
    .unwrap();
    assert_eq!(faulted.failed, 1);

    let real = session
        .optimize(&OptimizationConfig {
            accuracy_threshold: 0.05,
            iterations: 4,
            mode: AccuracyMode::Real,
            max_epochs: 2,
            eval_every: 1,
            ..surrogate.clone()
        })
        .unwrap();
    assert!(real.evaluated > 0);

    let got = [&plain, &filtered, &faulted, &real].map(search_result_crc);
    assert_eq!(
        got, SEARCH_RESULT_RECORD_CRCS,
        "search results changed: {:#010x?}",
        got
    );
}
