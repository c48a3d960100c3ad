//! Bit-exactness of the fused kernel epilogues and determinism of the
//! buffer pool.
//!
//! The fused GEMM/conv variants promise *bit-identical* results to the
//! separate bias-add + activation passes (the epilogue applies the same
//! scalar sequence after full accumulation), and the buffer pool promises
//! to be invisible: same bits whether it is on or off, and for any thread
//! count. These tests pin both promises down across the naive and blocked
//! kernel paths with deliberately odd shapes.

use std::sync::Mutex;

use gmorph_tensor::conv::{conv2d_forward, conv2d_forward_act, Conv2dGeom};
use gmorph_tensor::ops::{gelu_forward, relu_forward, Activation};
use gmorph_tensor::rng::Rng;
use gmorph_tensor::{buffer, engine, gemm, Tensor};

/// Serializes tests that flip the process-wide pool switch.
static POOL_GATE: Mutex<()> = Mutex::new(());

fn separate_act(t: &Tensor, act: Activation) -> Tensor {
    match act {
        Activation::None => t.clone(),
        Activation::Relu => relu_forward(t),
        Activation::Gelu => gelu_forward(t),
    }
}

const ACTS: [Activation; 3] = [Activation::None, Activation::Relu, Activation::Gelu];

/// Shapes on both sides of the SMALL (32³) threshold, with ragged edges
/// relative to the MR=4 / NR=8 / MC=64 / KC=256 blocking.
const SHAPES: [(usize, usize, usize); 4] = [(3, 5, 7), (17, 9, 31), (65, 33, 17), (70, 300, 41)];

#[test]
fn fused_gemm_epilogue_is_bit_exact() {
    let mut rng = Rng::new(41);
    for (m, k, n) in SHAPES {
        let a = Tensor::randn(&[m, k], 1.0, &mut rng);
        let b = Tensor::randn(&[k, n], 1.0, &mut rng);
        let bias = Tensor::randn(&[n], 0.5, &mut rng);
        for act in ACTS {
            for bias in [None, Some(&bias)] {
                let fused = gemm::matmul_bias_act(&a, &b, bias, act).unwrap();
                let mut plain = gemm::matmul(&a, &b).unwrap();
                if let Some(b) = bias {
                    gemm::add_bias_rows(&mut plain, b).unwrap();
                }
                let reference = separate_act(&plain, act);
                assert_eq!(
                    fused.data(),
                    reference.data(),
                    "matmul {m}x{k}x{n} act {act:?} bias {}",
                    bias.is_some()
                );
            }
        }
    }
}

#[test]
fn fused_gemm_nt_epilogue_is_bit_exact() {
    let mut rng = Rng::new(42);
    for (m, k, n) in SHAPES {
        let a = Tensor::randn(&[m, k], 1.0, &mut rng);
        let b = Tensor::randn(&[n, k], 1.0, &mut rng);
        let bias = Tensor::randn(&[n], 0.5, &mut rng);
        for act in ACTS {
            let fused = gemm::matmul_nt_bias_act(&a, &b, Some(&bias), act).unwrap();
            let mut plain = gemm::matmul_nt(&a, &b).unwrap();
            gemm::add_bias_rows(&mut plain, &bias).unwrap();
            let reference = separate_act(&plain, act);
            assert_eq!(fused.data(), reference.data(), "nt {m}x{k}x{n} act {act:?}");
        }
    }
}

#[test]
fn fused_conv_epilogue_is_bit_exact() {
    let mut rng = Rng::new(43);
    // Odd spatial sizes, stride and padding variations.
    for (h, w, stride, padding) in [(7, 5, 1, 1), (9, 9, 2, 1), (6, 11, 1, 0)] {
        let geom = Conv2dGeom::new(3, stride, padding).unwrap();
        let x = Tensor::randn(&[2, 3, h, w], 1.0, &mut rng);
        let wt = Tensor::randn(&[5, 3, 3, 3], 0.5, &mut rng);
        let bias = Tensor::randn(&[5], 0.3, &mut rng);
        for act in ACTS {
            for bias in [None, Some(&bias)] {
                let fused = conv2d_forward_act(&x, &wt, bias, geom, act).unwrap();
                let plain = conv2d_forward(&x, &wt, bias, geom).unwrap();
                let reference = separate_act(&plain.output, act);
                assert_eq!(
                    fused.output.data(),
                    reference.data(),
                    "conv {h}x{w} s{stride} p{padding} act {act:?} bias {}",
                    bias.is_some()
                );
            }
        }
    }
}

#[test]
fn fused_gemm_rejects_bad_bias_shapes() {
    let a = Tensor::zeros(&[2, 3]);
    let b = Tensor::zeros(&[3, 4]);
    let bad = Tensor::zeros(&[5]);
    assert!(gemm::matmul_bias_act(&a, &b, Some(&bad), Activation::Relu).is_err());
    let rank2 = Tensor::zeros(&[1, 4]);
    assert!(gemm::matmul_bias_act(&a, &b, Some(&rank2), Activation::None).is_err());
}

#[test]
fn pooled_kernels_are_thread_count_invariant() {
    let _gate = POOL_GATE.lock().unwrap();
    buffer::set_enabled(Some(true));
    buffer::clear();
    let mut rng = Rng::new(44);
    let a = Tensor::randn(&[130, 70], 1.0, &mut rng);
    let b = Tensor::randn(&[70, 90], 1.0, &mut rng);
    let bias = Tensor::randn(&[90], 0.5, &mut rng);
    let x = Tensor::randn(&[6, 3, 12, 12], 1.0, &mut rng);
    let wt = Tensor::randn(&[8, 3, 3, 3], 0.5, &mut rng);
    let geom = Conv2dGeom::new(3, 1, 1).unwrap();

    let run = || {
        let g = gemm::matmul_bias_act(&a, &b, Some(&bias), Activation::Gelu).unwrap();
        let c = conv2d_forward_act(&x, &wt, None, geom, Activation::Relu).unwrap();
        (g, c.output)
    };
    // Warm the pool so the multi-threaded run actually reuses buffers.
    let _ = run();
    let (g1, c1) = engine::with_thread_limit(1, run);
    let (g4, c4) = engine::with_thread_limit(4, run);
    assert_eq!(g1.data(), g4.data(), "gemm bit-identical across threads");
    assert_eq!(c1.data(), c4.data(), "conv bit-identical across threads");
    buffer::set_enabled(None);
    buffer::clear();
}

#[test]
fn pool_on_and_off_produce_identical_bits() {
    let _gate = POOL_GATE.lock().unwrap();
    let mut rng = Rng::new(45);
    let a = Tensor::randn(&[65, 33], 1.0, &mut rng);
    let b = Tensor::randn(&[33, 17], 1.0, &mut rng);
    let bias = Tensor::randn(&[17], 0.5, &mut rng);

    buffer::set_enabled(Some(false));
    let off = gemm::matmul_bias_act(&a, &b, Some(&bias), Activation::Relu).unwrap();
    buffer::set_enabled(Some(true));
    buffer::clear();
    // Twice: the second run draws from a warm pool.
    let _ = gemm::matmul_bias_act(&a, &b, Some(&bias), Activation::Relu).unwrap();
    let on = gemm::matmul_bias_act(&a, &b, Some(&bias), Activation::Relu).unwrap();
    assert_eq!(off.data(), on.data());
    buffer::set_enabled(None);
    buffer::clear();
}

#[test]
fn disabled_pool_holds_no_bytes() {
    let _gate = POOL_GATE.lock().unwrap();
    buffer::set_enabled(Some(false));
    buffer::clear();
    let mut rng = Rng::new(46);
    let a = Tensor::randn(&[40, 40], 1.0, &mut rng);
    let b = Tensor::randn(&[40, 40], 1.0, &mut rng);
    let _ = gemm::matmul(&a, &b).unwrap();
    assert_eq!(buffer::pooled_bytes(), 0, "disabled pool must stay empty");
    buffer::set_enabled(None);
    buffer::clear();
}
