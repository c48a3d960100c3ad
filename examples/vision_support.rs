//! Vision Support (the paper's B1-B3 family): three face-attribute models
//! over one image stream, fused under three accuracy budgets.
//!
//! Demonstrates the accuracy/latency trade-off of Figure 7: tighter
//! budgets keep more task-specific capacity; looser budgets let GMorph
//! share deeper features and even shorten chains with in-branch mutations.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example vision_support
//! ```

use gmorph::prelude::*;

fn main() -> gmorph::tensor::Result<()> {
    println!("== Vision Support: Age/Gender/Ethnicity on one face stream ==");
    let bench = build_benchmark(BenchId::B1, &DataProfile::standard(), 7)?;
    let session = Session::prepare(
        bench,
        &SessionConfig {
            seed: 7,
            ..Default::default()
        },
    )?;
    println!(
        "original multi-DNN: {} blocks, {:.2} ms estimated (paper scale, eager)",
        session.mini_graph.len(),
        session.original_latency_ms(Backend::Eager)?
    );

    for &threshold in &[0.0f32, 0.01, 0.02] {
        let cfg = OptimizationConfig {
            accuracy_threshold: threshold,
            iterations: 60,
            mode: AccuracyMode::Surrogate,
            max_epochs: 35,
            eval_every: 5,
            seed: 7,
            ..Default::default()
        };
        let result = session.optimize(&cfg)?;
        println!(
            "budget {:>4.1}%: fused latency {:6.2} ms, speedup {:.2}x, drop {:5.2}%, {} candidates fine-tuned",
            threshold * 100.0,
            result.best.latency_ms,
            result.speedup,
            result.best.drop.max(0.0) * 100.0,
            result.evaluated
        );
        if threshold == 0.02 {
            println!(
                "\nbest model at the 2% budget:\n{}",
                result.best.mini.render()
            );
        }
    }
    Ok(())
}
