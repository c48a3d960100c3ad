//! Allocation benchmark: buffer pool and fused epilogues on the hot path.
//!
//! Measures the same workloads with the tensor buffer pool disabled and
//! enabled (checkout/checkin of im2col scratch, GEMM packing buffers, and
//! layer outputs), and the eval forward with activations fused into the
//! kernel epilogue versus run as separate passes. Emits `BENCH_alloc.json`
//! in the output directory, with the head and record schema of
//! `BENCH_kernels.json` (see [`crate::experiments::kernels`]); each pair
//! of records is one op under `config` `pool_off`/`pool_on` or
//! `unfused`/`fused`. The speedups (off/on and unfused/fused over
//! `ns_min`) are printed, and follow from the records.

use crate::common::{time_ns, write_bench_json, BenchRecord, Timing};
use crate::ExperimentOpts;
use gmorph::nn::{Block, Mode};
use gmorph::tensor::conv::{conv2d_forward, Conv2dGeom};
use gmorph::tensor::ops::{relu_forward, Activation};
use gmorph::tensor::rng::Rng;
use gmorph::tensor::{buffer, engine, gemm, Tensor};
use std::hint::black_box;

/// Records `slow` and `fast`, one op under two configs, and returns the
/// speedup of `fast` over `slow` (ratio of `ns_min`).
fn record_pair(
    records: &mut Vec<BenchRecord>,
    op: &str,
    shape: &str,
    [(slow_config, slow), (fast_config, fast)]: [(&'static str, Timing); 2],
) -> f64 {
    let threads = engine::num_threads();
    records.push(BenchRecord::new(op, slow_config, shape, threads, slow));
    records.push(BenchRecord::new(op, fast_config, shape, threads, fast));
    slow.ns_min / fast.ns_min
}

/// Runs `f` once with the pool off and once with it on (cleared first so
/// the "on" run starts cold and warms during the warmup iterations).
fn with_pool_off_on(mut f: impl FnMut() -> Timing) -> [(&'static str, Timing); 2] {
    buffer::set_enabled(Some(false));
    buffer::clear();
    let off = f();
    buffer::set_enabled(Some(true));
    buffer::clear();
    let on = f();
    buffer::set_enabled(None);
    buffer::clear();
    [("pool_off", off), ("pool_on", on)]
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

    let timings = with_pool_off_on(|| {
        time_ns(iters, samples, || {
            black_box(conv2d_forward(black_box(&x), black_box(&w), Some(&b), geom).unwrap());
        })
    });
    record_pair(records, "conv_forward", "n8c32-8s32k3", timings)
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

    let timings = with_pool_off_on(|| {
        time_ns(iters, samples, || {
            let h = b1.forward(&x, Mode::Train).unwrap();
            let y = b2.forward(&h, Mode::Train).unwrap();
            let g = b2.backward(&Tensor::ones(y.dims())).unwrap();
            black_box(b1.backward(&g).unwrap());
        })
    });
    record_pair(records, "finetune_step", "n4c16-32-32s24k3", timings)
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
    let unfused = time_ns(iters, samples, || {
        let mut y = gemm::matmul_nt(black_box(&a), black_box(&w)).unwrap();
        gemm::add_bias_rows(&mut y, &bias).unwrap();
        black_box(relu_forward(&y));
    });
    let fused = time_ns(iters, samples, || {
        black_box(
            gemm::matmul_nt_bias_act(black_box(&a), black_box(&w), Some(&bias), Activation::Relu)
                .unwrap(),
        );
    });
    buffer::set_enabled(None);
    buffer::clear();

    let timings = [("unfused", unfused), ("fused", fused)];
    record_pair(records, "linear_relu", "512x16x512", timings)
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
    write_bench_json(&opts.out_dir, "BENCH_alloc.json", &records, &[])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::tests::read_bench_json;

    #[test]
    fn writes_machine_readable_json() {
        let dir = std::env::temp_dir().join("gmorph_bench_alloc_test");
        let opts = ExperimentOpts {
            quick: true,
            out_dir: dir.clone(),
            ..Default::default()
        };
        run(&opts).unwrap();
        let records = read_bench_json(&dir.join("BENCH_alloc.json"));
        let pairs: Vec<(&str, &str)> = records
            .iter()
            .map(|(op, config)| (op.as_str(), config.as_str()))
            .collect();
        assert_eq!(
            pairs,
            [
                ("conv_forward", "pool_off"),
                ("conv_forward", "pool_on"),
                ("finetune_step", "pool_off"),
                ("finetune_step", "pool_on"),
                ("linear_relu", "unfused"),
                ("linear_relu", "fused"),
            ]
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
