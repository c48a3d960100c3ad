//! Allocation benchmark: buffer pool and fused epilogues on the hot path.
//!
//! Measures the same workloads with the tensor buffer pool disabled and
//! enabled (checkout/checkin of im2col scratch, GEMM packing buffers, and
//! layer outputs), and the eval forward with activations fused into the
//! kernel epilogue versus run as separate passes. Emits `BENCH_alloc.json`
//! in the output directory:
//!
//! ```json
//! {
//!   "records": [{"op", "config", "ns_per_iter"}, ...],
//!   "speedups": {"conv_forward": x, "finetune_step": y, "fused_eval": z}
//! }
//! ```
//!
//! so CI can track the before/after numbers without parsing criterion
//! output.

use crate::common::{time_ns, write_bench_json, BenchRecord};
use crate::ExperimentOpts;
use gmorph::nn::{Block, Mode};
use gmorph::tensor::conv::{conv2d_forward, Conv2dGeom};
use gmorph::tensor::ops::{relu_forward, Activation};
use gmorph::tensor::rng::Rng;
use gmorph::tensor::{buffer, gemm, Tensor};
use std::hint::black_box;

fn record(op: &str, config: &'static str, ns_per_iter: f64) -> BenchRecord {
    BenchRecord {
        op: op.to_string(),
        config: Some(config),
        shape: None,
        threads: None,
        ns_per_iter,
    }
}

/// Runs `f` once with the pool off and once with it on (cleared first so
/// the "on" run starts cold and warms during the warmup iterations).
fn with_pool_off_on(mut f: impl FnMut() -> f64) -> (f64, f64) {
    buffer::set_enabled(Some(false));
    buffer::clear();
    let off = f();
    buffer::set_enabled(Some(true));
    buffer::clear();
    let on = f();
    buffer::set_enabled(None);
    buffer::clear();
    (off, on)
}

/// Conv forward with a large im2col footprint: without the pool every call
/// allocates (and the allocator often mmaps) ~1 MiB of scratch per sample.
fn conv_forward_records(opts: &ExperimentOpts, records: &mut Vec<BenchRecord>) -> f64 {
    let mut rng = Rng::new(opts.seed);
    let x = Tensor::randn(&[8, 32, 32, 32], 1.0, &mut rng);
    let w = Tensor::randn(&[8, 32, 3, 3], 0.5, &mut rng);
    let b = Tensor::randn(&[8], 0.1, &mut rng);
    let geom = Conv2dGeom::new(3, 1, 1).unwrap();
    let (iters, samples) = if opts.quick { (3, 3) } else { (10, 5) };

    let (off, on) = with_pool_off_on(|| {
        time_ns(iters, samples, || {
            black_box(conv2d_forward(black_box(&x), black_box(&w), Some(&b), geom).unwrap());
        })
    });
    records.push(record("conv_forward", "pool_off", off));
    records.push(record("conv_forward", "pool_on", on));
    off / on
}

/// One fine-tuning step (train forward + backward) of a small conv stack:
/// the steady-state loop the pool targets — im2col scratch, packing
/// buffers, col2im targets, and gradient buffers all recycle.
fn finetune_step_records(opts: &ExperimentOpts, records: &mut Vec<BenchRecord>) -> f64 {
    let mut rng = Rng::new(opts.seed ^ 2);
    let mut b1 = Block::conv_relu(16, 32, &mut rng).unwrap();
    let mut b2 = Block::conv_relu(32, 32, &mut rng).unwrap();
    let x = Tensor::randn(&[4, 16, 24, 24], 1.0, &mut rng);
    let (iters, samples) = if opts.quick { (2, 3) } else { (6, 10) };

    let (off, on) = with_pool_off_on(|| {
        time_ns(iters, samples, || {
            let h = b1.forward(&x, Mode::Train).unwrap();
            let y = b2.forward(&h, Mode::Train).unwrap();
            let g = b2.backward(&Tensor::ones(y.dims())).unwrap();
            black_box(b1.backward(&g).unwrap());
        })
    });
    records.push(record("finetune_step", "pool_off", off));
    records.push(record("finetune_step", "pool_on", on));
    off / on
}

/// `Linear→bias→ReLU` as three separate passes versus one fused-epilogue
/// dispatch (pool enabled for both). The thin inner dimension makes the
/// GEMM memory-bound, which is where folding the bias/activation passes
/// into the output write pays — on compute-bound shapes (or tanh-heavy
/// GELU) fusion is a wash and its value is the elided intermediate.
fn fused_eval_records(opts: &ExperimentOpts, records: &mut Vec<BenchRecord>) -> f64 {
    let mut rng = Rng::new(opts.seed ^ 3);
    let a = Tensor::randn(&[512, 16], 1.0, &mut rng);
    let w = Tensor::randn(&[512, 16], 0.5, &mut rng);
    let bias = Tensor::randn(&[512], 0.1, &mut rng);
    let (iters, samples) = if opts.quick { (20, 3) } else { (100, 5) };

    buffer::set_enabled(Some(true));
    buffer::clear();
    let unfused_ns = time_ns(iters, samples, || {
        let mut y = gemm::matmul_nt(black_box(&a), black_box(&w)).unwrap();
        gemm::add_bias_rows(&mut y, &bias).unwrap();
        black_box(relu_forward(&y));
    });
    let fused_ns = time_ns(iters, samples, || {
        black_box(
            gemm::matmul_nt_bias_act(black_box(&a), black_box(&w), Some(&bias), Activation::Relu)
                .unwrap(),
        );
    });
    buffer::set_enabled(None);
    buffer::clear();

    records.push(record("linear_relu", "unfused", unfused_ns));
    records.push(record("linear_relu", "fused", fused_ns));
    unfused_ns / fused_ns
}

/// Runs the allocation benchmarks and writes `BENCH_alloc.json`.
pub fn run(opts: &ExperimentOpts) -> gmorph::tensor::Result<()> {
    let mut records = Vec::new();
    let conv_speedup = conv_forward_records(opts, &mut records);
    let step_speedup = finetune_step_records(opts, &mut records);
    let fused_speedup = fused_eval_records(opts, &mut records);

    println!(
        "speedups: conv_forward {conv_speedup:.2}x, finetune_step {step_speedup:.2}x, \
         fused_eval {fused_speedup:.2}x"
    );
    let speedups = format!(
        "{{\"conv_forward\": {conv_speedup:.3}, \"finetune_step\": {step_speedup:.3}, \
         \"fused_eval\": {fused_speedup:.3}}}"
    );
    write_bench_json(
        &opts.out_dir,
        "BENCH_alloc.json",
        &[],
        &records,
        &[("speedups", speedups)],
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writes_machine_readable_json() {
        let dir = std::env::temp_dir().join("gmorph_bench_alloc_test");
        let opts = ExperimentOpts {
            quick: true,
            out_dir: dir.clone(),
            ..Default::default()
        };
        run(&opts).unwrap();
        let text = std::fs::read_to_string(dir.join("BENCH_alloc.json")).unwrap();
        assert!(text.trim_start().starts_with('{'));
        assert!(text.contains("\"op\": \"conv_forward\""));
        assert!(text.contains("\"config\": \"pool_on\""));
        assert!(text.contains("\"op\": \"finetune_step\""));
        assert!(text.contains("\"config\": \"fused\""));
        assert!(text.contains("\"speedups\""));
        std::fs::remove_dir_all(&dir).ok();
    }
}
