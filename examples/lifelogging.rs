//! Lifelogging (the paper's B4/B5 family): object detection + salient
//! object counting over one scene stream, with heterogeneous backbones.
//!
//! Compares GMorph's fusion against the All-shared and TreeMTL baselines
//! on the cross-family B5 setup (ResNet-34 + VGG-16), where MTL baselines
//! cannot share anything because no identical layers exist — the headline
//! advantage of model fusion (§6.3).
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example lifelogging
//! ```

use gmorph::perf::estimator::estimate_latency_ms;
use gmorph::prelude::*;

fn main() -> gmorph::tensor::Result<()> {
    println!("== Lifelogging: ObjectNet (ResNet-34) + SalientNet (VGG-16) ==");
    let bench = build_benchmark(BenchId::B5, &DataProfile::standard(), 11)?;
    let session = Session::prepare(
        bench,
        &SessionConfig {
            seed: 11,
            ..Default::default()
        },
    )?;

    let orig = session.original_latency_ms(Backend::Eager)?;
    println!("original estimated latency: {orig:.2} ms");

    // MTL baselines: the identical-prefix requirement leaves them empty-
    // handed across model families.
    let prefix = baselines::common_prefix_len(&session.bench.mini);
    println!("identical common prefix across ResNet-34 and VGG-16: {prefix} blocks");
    let (all_shared_mini, all_shared_paper) = session.all_shared()?;
    let baseline_latency = estimate_latency_ms(&all_shared_paper, Backend::Eager)?;
    println!(
        "All-shared baseline: {} blocks, {:.2} ms ({:.2}x) — no sharing possible",
        all_shared_mini.len(),
        baseline_latency,
        orig / baseline_latency
    );

    // GMorph: feature sharing across families via re-scale adapters.
    let cfg = OptimizationConfig {
        accuracy_threshold: 0.01,
        iterations: 60,
        mode: AccuracyMode::Surrogate,
        max_epochs: 35,
        eval_every: 5,
        seed: 11,
        ..Default::default()
    };
    let result = session.optimize(&cfg)?;
    println!(
        "GMorph @1%: {:.2} ms ({:.2}x), drop {:.2}%",
        result.best.latency_ms,
        result.speedup,
        result.best.drop.max(0.0) * 100.0
    );
    println!("\nfused architecture:\n{}", result.best.mini.render());
    Ok(())
}
