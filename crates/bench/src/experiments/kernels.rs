//! Kernel-engine microbenchmark: blocked/threaded GEMM against the seed's
//! single-threaded naive loops, and the convolution forward and backward
//! passes of one B1 VGG-13 tower, written as machine-readable JSON.
//!
//! Emits `BENCH_kernels.json` in the output directory:
//!
//! ```json
//! {
//!   "nproc": 2, "threads": 2, "pool": true, "simd": "avx2",
//!   "records": [{"op", "shape", "threads", "ns_per_iter"}, ...]
//! }
//! ```
//!
//! `nproc` is the machine's available parallelism, `threads` the engine's
//! configured thread count, `pool` whether the buffer pool is on and `simd`
//! which instance of the kernel bodies runs (`"avx2"` or `"portable"`, see
//! `gmorph_tensor::simd`); each record carries the thread cap it ran
//! under. Conv records time `conv_fwd` (`conv2d_forward`) and `conv_bwd`
//! (`conv2d_backward_geom`) on each of the tower's eight layers at the
//! fine-tuning batch of 64, plus `conv_tower_fwd_bwd`, their sum.

use crate::common::{time_ns, write_bench_json, BenchRecord};
use crate::ExperimentOpts;
use gmorph::tensor::conv::{conv2d_backward_geom, conv2d_forward, Conv2dGeom};
use gmorph::tensor::rng::Rng;
use gmorph::tensor::{buffer, engine, gemm, simd, Tensor};
use std::hint::black_box;

/// The eight 3×3/s1/p1 convolutions of B1's mini-scale VGG-13 tower
/// (base width 4, 16×16 input, 2×2 pooling after every second layer):
/// `(c_in, c_out, side)`.
const VGG13_B1: [(usize, usize, usize); 8] = [
    (3, 4, 16),
    (4, 4, 16),
    (4, 8, 8),
    (8, 8, 8),
    (8, 16, 4),
    (16, 16, 4),
    (16, 16, 2),
    (16, 16, 2),
];

/// Fine-tuning batch size of B1 (§6.1).
const BATCH: usize = 64;

fn record(op: &str, shape: String, threads: usize, ns_per_iter: f64) -> BenchRecord {
    BenchRecord {
        op: op.to_string(),
        config: None,
        shape: Some(shape),
        threads: Some(threads),
        ns_per_iter,
    }
}

fn gemm_records(opts: &ExperimentOpts, records: &mut Vec<BenchRecord>) {
    let mut rng = Rng::new(opts.seed);
    let dim = if opts.quick { 128 } else { 256 };
    let a = Tensor::randn(&[dim, dim], 1.0, &mut rng);
    let b = Tensor::randn(&[dim, dim], 1.0, &mut rng);
    let shape = format!("{dim}x{dim}x{dim}");
    let (iters, samples) = if opts.quick { (2, 3) } else { (4, 5) };

    let naive_ns = time_ns(iters, samples, || {
        black_box(gemm::naive::matmul(black_box(&a), black_box(&b)).unwrap());
    });
    records.push(record("gemm_naive", shape.clone(), 1, naive_ns));
    for threads in [1usize, engine::num_threads().max(2)] {
        engine::with_thread_limit(threads, || {
            let ns = time_ns(iters, samples, || {
                black_box(gemm::matmul(black_box(&a), black_box(&b)).unwrap());
            });
            records.push(record("gemm_blocked", shape.clone(), threads, ns));
        });
    }
}

fn conv_records(opts: &ExperimentOpts, records: &mut Vec<BenchRecord>) {
    let mut rng = Rng::new(opts.seed ^ 1);
    let geom = Conv2dGeom::new(3, 1, 1).unwrap();
    let (iters, samples) = if opts.quick { (2, 3) } else { (10, 7) };
    let layers: Vec<_> = VGG13_B1
        .iter()
        .map(|&(c_in, c_out, side)| {
            let x = Tensor::randn(&[BATCH, c_in, side, side], 1.0, &mut rng);
            let w = Tensor::randn(&[c_out, c_in, 3, 3], 0.5, &mut rng);
            let b = Tensor::randn(&[c_out], 0.1, &mut rng);
            let go = Tensor::randn(&[BATCH, c_out, side, side], 1.0, &mut rng);
            (format!("n{BATCH}c{c_in}-{c_out}s{side}k3"), x, w, b, go)
        })
        .collect();
    for threads in [1usize, engine::num_threads().max(2)] {
        engine::with_thread_limit(threads, || {
            let mut tower = 0.0;
            for (shape, x, w, b, go) in &layers {
                // Training steady state: the columns and outputs go back to
                // the pool, as the nn layers recycle them.
                let fwd_ns = time_ns(iters, samples, || {
                    let f = conv2d_forward(black_box(x), black_box(w), Some(b), geom).unwrap();
                    buffer::recycle(f.output);
                    buffer::recycle(f.cols);
                });
                let fwd = conv2d_forward(x, w, Some(b), geom).unwrap();
                let bwd_ns = time_ns(iters, samples, || {
                    let g = conv2d_backward_geom(black_box(go), w, x.dims(), &fwd, geom).unwrap();
                    buffer::recycle(g.grad_input);
                });
                tower += fwd_ns + bwd_ns;
                for (op, ns) in [("conv_fwd", fwd_ns), ("conv_bwd", bwd_ns)] {
                    records.push(record(op, shape.clone(), threads, ns));
                }
            }
            let shape = format!("vgg13-b1-n{BATCH}");
            records.push(record("conv_tower_fwd_bwd", shape, threads, tower));
        });
    }
}

/// Runs the kernel microbenchmarks and writes `BENCH_kernels.json`.
pub fn run(opts: &ExperimentOpts) -> gmorph::tensor::Result<()> {
    let mut records = Vec::new();
    gemm_records(opts, &mut records);
    conv_records(opts, &mut records);

    let nproc = std::thread::available_parallelism().map_or(1, |p| p.get());
    let (threads, pool, simd) = (engine::num_threads(), buffer::enabled(), simd::instance());
    println!("nproc {nproc}, threads {threads}, pool {pool}, simd {simd}");
    let head = [
        ("nproc", nproc.to_string()),
        ("threads", threads.to_string()),
        ("pool", pool.to_string()),
        ("simd", format!("\"{simd}\"")),
    ];
    write_bench_json(&opts.out_dir, "BENCH_kernels.json", &head, &records, &[]);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writes_machine_readable_json() {
        let dir = std::env::temp_dir().join("gmorph_bench_kernels_test");
        let opts = ExperimentOpts {
            quick: true,
            out_dir: dir.clone(),
            ..Default::default()
        };
        run(&opts).unwrap();
        let text = std::fs::read_to_string(dir.join("BENCH_kernels.json")).unwrap();
        assert!(text.trim_start().starts_with('{'));
        assert!(text.contains("\"nproc\": "));
        assert!(text.contains("\"pool\": "));
        assert!(text.contains("\"simd\": \"avx2\"") || text.contains("\"simd\": \"portable\""));
        assert!(text.contains("\"op\": \"gemm_blocked\""));
        assert!(text.contains("\"op\": \"gemm_naive\""));
        assert!(text.contains("\"op\": \"conv_fwd\""));
        assert!(text.contains("\"op\": \"conv_bwd\""));
        assert!(text.contains("\"op\": \"conv_tower_fwd_bwd\""));
        assert!(text.contains("\"ns_per_iter\""));
        std::fs::remove_dir_all(&dir).ok();
    }
}
