//! Fusing *your own* models: GMorph is "more flexible and easily
//! applicable than MTL because it can fuse any set of pre-trained
//! task-specific models" (§1). This example builds two custom CNN
//! architectures that exist in no model zoo, trains them as teachers on a
//! shared synthetic stream, and fuses them with real distillation
//! fine-tuning — all through the public API.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example custom_models
//! ```

use gmorph::data::faces::{generate, FaceTask, FacesConfig};
use gmorph::graph::parser::parse_models;
use gmorph::graph::parser::parse_specs;
use gmorph::models::train::{train_teacher, TrainConfig};
use gmorph::perf::accuracy::{teacher_targets, SurrogateParams};
use gmorph::perf::estimator::{estimate_latency_ms, measure_latency_ms};
use gmorph::prelude::*;
use gmorph::search::driver::{run_search, SearchConfig};
use gmorph::search::evaluator::{EvalMode, RealContext};

fn main() -> gmorph::tensor::Result<()> {
    println!("== Fusing custom architectures ==");
    let mut rng = Rng::new(77);

    // 1. Shared data stream with two tasks.
    let cfg = FacesConfig {
        samples: 256,
        noise: 0.03,
        ..Default::default()
    };
    let ds = generate(&cfg, &[FaceTask::Gender, FaceTask::Emotion], &mut rng)?;
    let split = ds.split(0.75, &mut rng)?;

    // 2. Two hand-rolled architectures (no zoo involved): a slim strided
    //    CNN and a deeper pooled CNN with a mid-network bottleneck.
    let slim = ModelSpec::new(
        "GenderNet: SlimNet",
        vec![
            BlockSpec::ConvBnRelu {
                c_in: 3,
                c_out: 6,
                kernel: 3,
                stride: 2,
            },
            BlockSpec::ConvBnRelu {
                c_in: 6,
                c_out: 12,
                kernel: 3,
                stride: 2,
            },
            BlockSpec::ConvRelu {
                c_in: 12,
                c_out: 12,
            },
            BlockSpec::Head {
                features: 12,
                classes: ds.tasks[0].classes,
            },
        ],
        ds.tasks[0].clone(),
        vec![3, 16, 16],
    )?;
    let deep = ModelSpec::new(
        "EmotionNet: DeepNet",
        vec![
            BlockSpec::ConvRelu { c_in: 3, c_out: 8 },
            BlockSpec::MaxPool { k: 2 },
            BlockSpec::ConvRelu { c_in: 8, c_out: 8 },
            BlockSpec::ConvRelu { c_in: 8, c_out: 16 },
            BlockSpec::MaxPool { k: 2 },
            BlockSpec::ConvRelu {
                c_in: 16,
                c_out: 16,
            },
            BlockSpec::ConvRelu {
                c_in: 16,
                c_out: 16,
            },
            BlockSpec::MaxPool { k: 2 },
            BlockSpec::Head {
                features: 16,
                classes: ds.tasks[1].classes,
            },
        ],
        ds.tasks[1].clone(),
        vec![3, 16, 16],
    )?;

    // 3. Train the teachers independently (as their owners would have).
    let mut teachers = Vec::new();
    let mut teacher_scores = Vec::new();
    for (i, spec) in [slim, deep].into_iter().enumerate() {
        let mut model = spec.build(&mut rng)?;
        let report = train_teacher(
            &mut model,
            &split.train,
            &split.test,
            i,
            &TrainConfig {
                epochs: 6,
                batch: 32,
                lr: 3e-3,
                seed: 77,
            },
        )?;
        println!(
            "teacher {:<22} score {:.3}",
            model.spec.name, report.final_score
        );
        teacher_scores.push(report.final_score);
        teachers.push(model);
    }

    // 4. Parse into the abstract graph and search with real fine-tuning.
    let (mini_graph, weights) = parse_models(&teachers)?;
    let paper_graph = parse_specs(&teachers.iter().map(|t| t.spec.clone()).collect::<Vec<_>>())?;
    let targets = teacher_targets(&mut teachers, &split.train.inputs)?;
    let mode = EvalMode::Real(RealContext {
        train_inputs: split.train.inputs.clone(),
        targets,
        test: split.test.clone(),
        teacher_scores: teacher_scores.clone(),
    });
    let _ = SurrogateParams::default(); // Surrogate is available too.
    let cfg = SearchConfig {
        iterations: 16,
        finetune: gmorph::perf::accuracy::FinetuneConfig {
            max_epochs: 6,
            eval_every: 2,
            target_drop: 0.03,
            lr: 1e-3,
            batch: 32,
            ..Default::default()
        },
        seed: 77,
        ..Default::default()
    };
    println!("searching (16 iterations, real fine-tuning, 3% budget)...");
    let result = run_search(&mini_graph, &paper_graph, &weights, &mode, &cfg)?;

    // 5. Report estimated and measured gains.
    println!(
        "estimated: {:.2} ms -> {:.2} ms ({:.2}x), drop {:.2}%",
        result.original_latency_ms,
        result.best.latency_ms,
        result.speedup,
        result.best.drop.max(0.0) * 100.0
    );
    let x = split.test.inputs.select_rows(&[0, 1, 2, 3])?;
    let mut rng2 = Rng::new(1);
    let (mut orig, _) = gmorph::graph::generator::generate(&mini_graph, &weights, &mut rng2)?;
    let (mut fused, _) =
        gmorph::graph::generator::generate(&result.best.mini, &result.best.weights, &mut rng2)?;
    let lat_o = measure_latency_ms(&mut orig, &x, 1, 9)?;
    let lat_f = measure_latency_ms(&mut fused, &x, 1, 9)?;
    println!(
        "measured (batch 4): {lat_o:.2} ms -> {lat_f:.2} ms ({:.2}x)",
        lat_o / lat_f
    );
    println!(
        "eager vs fused backends agree fusion helps: {:.2}x / {:.2}x",
        result.original_latency_ms / result.best.latency_ms,
        estimate_latency_ms(&paper_graph, Backend::Fused)?
            / estimate_latency_ms(&result.best.paper, Backend::Fused)?
    );
    println!("\nfused architecture:\n{}", result.best.mini.render());
    Ok(())
}
