//! Parity tests for the threaded, blocked kernel engine.
//!
//! The blocked GEMM paths and the batch-parallel conv kernels must produce
//! bit-identical results to a naive triple-loop reference, at every thread
//! count. These tests sweep the shape grid `m, k, n ∈ {1, 3, 17, 64, 130}`
//! (covering sub-microkernel edges, one-block, and multi-block cases) for
//! all three GEMM variants, then check conv forward/backward at 1 vs 4
//! threads.
//!
//! The conv golden test pins CRC-32 hashes of the exact bit patterns of
//! every conv output and gradient over the geometries the model zoo builds
//! at mini scale: any change to the lowering that reorders a single
//! floating-point sum shows up as a hash mismatch.

use gmorph_tensor::checkpoint::crc32;
use gmorph_tensor::conv::{conv2d_backward_geom, conv2d_forward, Conv2dGeom};
use gmorph_tensor::rng::Rng;
use gmorph_tensor::{engine, gemm, Tensor};
use proptest::prelude::*;

mod grid;
use grid::{ConvCase, GOLDEN_BATCHES, GOLDEN_GEOMS, SIZES};

/// Naive triple-loop reference: `C = A · B` with A `[m, k]`, B `[k, n]`.
fn reference_matmul(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
    let mut out = vec![0.0f32; m * n];
    for i in 0..m {
        for p in 0..k {
            let av = a[i * k + p];
            for j in 0..n {
                out[i * n + j] += av * b[p * n + j];
            }
        }
    }
    out
}

fn fill(rng: &mut Rng, len: usize) -> Vec<f32> {
    (0..len).map(|_| rng.normal()).collect()
}

/// Transposes a row-major `[r, c]` buffer into `[c, r]`.
fn transposed(src: &[f32], r: usize, c: usize) -> Vec<f32> {
    let mut out = vec![0.0f32; r * c];
    for i in 0..r {
        for j in 0..c {
            out[j * r + i] = src[i * c + j];
        }
    }
    out
}

#[test]
fn gemm_variants_match_reference_over_size_grid() {
    let mut rng = Rng::new(0xB10C);
    for &m in &SIZES {
        for &k in &SIZES {
            for &n in &SIZES {
                let a = fill(&mut rng, m * k);
                let b = fill(&mut rng, k * n);
                let want = reference_matmul(&a, &b, m, k, n);

                let at = Tensor::from_vec(&[m, k], a.clone()).unwrap();
                let bt = Tensor::from_vec(&[k, n], b.clone()).unwrap();
                let got = gemm::matmul(&at, &bt).unwrap();
                assert_eq!(got.data(), &want[..], "matmul {m}x{k}x{n}");

                // matmul_nt takes B as [n, k] (transposed storage).
                let bnt = Tensor::from_vec(&[n, k], transposed(&b, k, n)).unwrap();
                let got_nt = gemm::matmul_nt(&at, &bnt).unwrap();
                assert_eq!(got_nt.data(), &want[..], "matmul_nt {m}x{k}x{n}");

                // matmul_tn takes A as [k, m] (transposed storage).
                let atn = Tensor::from_vec(&[k, m], transposed(&a, m, k)).unwrap();
                let got_tn = gemm::matmul_tn(&atn, &bt).unwrap();
                assert_eq!(got_tn.data(), &want[..], "matmul_tn {m}x{k}x{n}");
            }
        }
    }
}

#[test]
fn gemm_grid_identical_at_one_and_four_threads() {
    // Thread count must never change a single bit of the output.
    let mut rng = Rng::new(0x7EAD);
    for &(m, k, n) in &[(130usize, 64usize, 130usize), (64, 130, 17), (17, 17, 130)] {
        let at = Tensor::from_vec(&[m, k], fill(&mut rng, m * k)).unwrap();
        let bt = Tensor::from_vec(&[k, n], fill(&mut rng, k * n)).unwrap();
        let one = engine::with_thread_limit(1, || gemm::matmul(&at, &bt).unwrap());
        let four = engine::with_thread_limit(4, || gemm::matmul(&at, &bt).unwrap());
        assert_eq!(one.data(), four.data(), "{m}x{k}x{n}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn random_shapes_match_reference(
        m in 1usize..48,
        k in 1usize..48,
        n in 1usize..48,
        seed in 0u64..1_000_000,
    ) {
        let mut rng = Rng::new(seed);
        let a = fill(&mut rng, m * k);
        let b = fill(&mut rng, k * n);
        let want = reference_matmul(&a, &b, m, k, n);
        let at = Tensor::from_vec(&[m, k], a).unwrap();
        let bt = Tensor::from_vec(&[k, n], b).unwrap();
        let got = gemm::matmul(&at, &bt).unwrap();
        prop_assert_eq!(got.data(), &want[..]);
    }
}

/// Every golden-grid geometry (stride 2, padding 0, 1×1 kernels, odd
/// batches, `OH·OW < 8` column tails) at 1 vs 4 threads.
#[test]
fn conv_forward_backward_identical_at_one_and_four_threads() {
    for &case in &GOLDEN_GEOMS {
        for &batch in &GOLDEN_BATCHES {
            let one = engine::with_thread_limit(1, || conv_case(case, batch));
            let four = engine::with_thread_limit(4, || conv_case(case, batch));
            let what = format!("{case:?} n={batch}");
            assert_eq!(one.0.data(), four.0.data(), "forward differs: {what}");
            assert_eq!(one.1.data(), four.1.data(), "grad_input differs: {what}");
            assert_eq!(one.2.data(), four.2.data(), "grad_weight differs: {what}");
            assert_eq!(one.3.data(), four.3.data(), "grad_bias differs: {what}");
        }
    }
}

/// Runs one conv forward and backward with seeded random operands,
/// returning `(output, dX, dW, db)`.
fn conv_case(case: ConvCase, batch: usize) -> (Tensor, Tensor, Tensor, Tensor) {
    let (c_in, c_out, side, k, s, p) = case;
    let mut rng =
        Rng::new(0xC0DE ^ ((batch as u64) << 8) ^ (c_in * 131 + c_out * 17 + side) as u64);
    let geom = Conv2dGeom::new(k, s, p).unwrap();
    let x = Tensor::randn(&[batch, c_in, side, side], 1.0, &mut rng);
    let w = Tensor::randn(&[c_out, c_in, k, k], 0.5, &mut rng);
    let b = Tensor::randn(&[c_out], 0.1, &mut rng);
    let fwd = conv2d_forward(&x, &w, Some(&b), geom).unwrap();
    let go = Tensor::randn(fwd.output.dims(), 1.0, &mut rng);
    let grads = conv2d_backward_geom(&go, &w, x.dims(), &fwd, geom).unwrap();
    (
        fwd.output,
        grads.grad_input,
        grads.grad_weight,
        grads.grad_bias,
    )
}

/// CRC-32 of a tensor's little-endian `f32` bit patterns.
fn bits_hash(t: &Tensor) -> u32 {
    let bytes: Vec<u8> = t
        .data()
        .iter()
        .flat_map(|v| v.to_bits().to_le_bytes())
        .collect();
    crc32(&bytes)
}

/// Golden `[output, dX, dW, db]` hashes, one row per geometry (in
/// `GOLDEN_GEOMS` order) and batch (in `GOLDEN_BATCHES` order).
const GOLDEN_HASHES: [[u32; 4]; 51] = [
    [0x157ec46f, 0xecb2f555, 0x60d315fe, 0x4e80004f], // (3, 4, 16, 3, 1, 1) n=1
    [0x5f25b741, 0x79145f62, 0xbbe93e58, 0x268d44c1], // (3, 4, 16, 3, 1, 1) n=3
    [0xaeef0c88, 0xad7e8680, 0x7d78c264, 0x7cd91354], // (3, 4, 16, 3, 1, 1) n=64
    [0xf8996122, 0xeba8ac0d, 0x31f5e1d2, 0xb56d3b72], // (4, 4, 16, 3, 1, 1) n=1
    [0x733c1274, 0xd7346b06, 0x0a8db169, 0xfa8fd4ba], // (4, 4, 16, 3, 1, 1) n=3
    [0xa68b6fbb, 0xc4682d19, 0xcbbe4097, 0x55a9f4db], // (4, 4, 16, 3, 1, 1) n=64
    [0x0aff793e, 0x2a558c83, 0xa09677e8, 0xfb955b59], // (4, 8, 8, 3, 1, 1) n=1
    [0x3cbc5f8d, 0x383c098d, 0xd2206847, 0x92c5c61b], // (4, 8, 8, 3, 1, 1) n=3
    [0xc0ba3c5e, 0xb51fdb46, 0x18458e97, 0x3675d641], // (4, 8, 8, 3, 1, 1) n=64
    [0xebdecc9c, 0x2c552092, 0xa6c6ddbc, 0x5fd27e68], // (8, 8, 8, 3, 1, 1) n=1
    [0x744218a0, 0x6fb0f36f, 0xb6009119, 0x4c03ade2], // (8, 8, 8, 3, 1, 1) n=3
    [0x5d02c2d3, 0xb184dcf1, 0x4239b488, 0xb186ab38], // (8, 8, 8, 3, 1, 1) n=64
    [0xbf1bf3f2, 0x83113f67, 0x19b1df7f, 0x57a08e37], // (8, 16, 4, 3, 1, 1) n=1
    [0x428d650c, 0x4b2a93b6, 0xaa6b4e77, 0xe8d7845c], // (8, 16, 4, 3, 1, 1) n=3
    [0xb8f518a1, 0x09c16918, 0x8960fc6a, 0x9d95f29a], // (8, 16, 4, 3, 1, 1) n=64
    [0xd58915e9, 0x034bcc3a, 0xf74844f6, 0x31ebf0c9], // (16, 16, 4, 3, 1, 1) n=1
    [0xd9f702cc, 0xb52aeb39, 0xf6568bb4, 0xf7431426], // (16, 16, 4, 3, 1, 1) n=3
    [0x8c702c7c, 0xd9e21264, 0x48448f5a, 0x9c694ee8], // (16, 16, 4, 3, 1, 1) n=64
    [0x9f99b68e, 0xaecdfd1d, 0x364d04f4, 0x95b9ec72], // (16, 16, 2, 3, 1, 1) n=1
    [0x9d7c016d, 0xf3e18cb6, 0x4ac88756, 0x84054a42], // (16, 16, 2, 3, 1, 1) n=3
    [0x5b494de4, 0x7ad7351c, 0x865e18d2, 0x544ef6c5], // (16, 16, 2, 3, 1, 1) n=64
    [0x16994a4f, 0x07702fea, 0xf5330a39, 0xddd6c2ec], // (4, 8, 16, 3, 2, 1) n=1
    [0xfd42bc67, 0x9e18afa9, 0x5ab7cc97, 0xaa60ce8d], // (4, 8, 16, 3, 2, 1) n=3
    [0xd9bba79b, 0xedb6dcda, 0x97c2f8d7, 0xd49d10b3], // (4, 8, 16, 3, 2, 1) n=64
    [0xd2cb27ee, 0x6dbc0c40, 0xf3986ea8, 0x63b06f58], // (8, 16, 8, 3, 2, 1) n=1
    [0x6866dd60, 0xce128efb, 0xb48fb82f, 0x2f4f3350], // (8, 16, 8, 3, 2, 1) n=3
    [0xd882b9d8, 0x6bf89a3d, 0x4f5cc4f3, 0x0f0e7b94], // (8, 16, 8, 3, 2, 1) n=64
    [0xba468786, 0xacf7d01c, 0xb6574ee4, 0x66125d7a], // (16, 32, 4, 3, 2, 1) n=1
    [0x3159647b, 0x92d06ed9, 0x7566cc36, 0xb65b3005], // (16, 32, 4, 3, 2, 1) n=3
    [0x054a5f32, 0x4d03a0ad, 0xf9a94eef, 0xa27a02aa], // (16, 32, 4, 3, 2, 1) n=64
    [0xc1eae1cb, 0x90f69b58, 0x2c4e28b0, 0xef9f7eba], // (4, 8, 16, 1, 2, 0) n=1
    [0x60d8f310, 0xf82b54ab, 0xf45900f0, 0x9235c26c], // (4, 8, 16, 1, 2, 0) n=3
    [0x1d2df842, 0x6cc69010, 0xb105a50b, 0xda713185], // (4, 8, 16, 1, 2, 0) n=64
    [0x8c3611f3, 0x4c30ec65, 0xbbb3289f, 0x7beb5e40], // (8, 16, 8, 1, 2, 0) n=1
    [0x0a2c3980, 0x4d1a083e, 0x2a3c6e6c, 0x36676edc], // (8, 16, 8, 1, 2, 0) n=3
    [0x4e8caafb, 0x4faa646c, 0x6d801d7a, 0x1a4c1293], // (8, 16, 8, 1, 2, 0) n=64
    [0xac2c02d3, 0x8a6ccb6d, 0xe39418fc, 0xcc7db301], // (16, 32, 4, 1, 2, 0) n=1
    [0x094a3b0d, 0x1a4bab56, 0xf2163cfd, 0x51491650], // (16, 32, 4, 1, 2, 0) n=3
    [0xd37f82ae, 0x62129f43, 0x46a8ec10, 0xd5cf25af], // (16, 32, 4, 1, 2, 0) n=64
    [0x79cc213d, 0x95d7631d, 0x4d7915c7, 0x7f035c90], // (32, 32, 2, 3, 1, 1) n=1
    [0xa73fe539, 0x5831b005, 0xf3e70e1e, 0x1201ae5a], // (32, 32, 2, 3, 1, 1) n=3
    [0x12b228f5, 0x4803ef6a, 0x24f40670, 0x1c8fcf6d], // (32, 32, 2, 3, 1, 1) n=64
    [0xff5927c1, 0x4eed5016, 0x5d0ed535, 0x4a320393], // (4, 16, 8, 1, 1, 0) n=1
    [0x874ae647, 0x70808712, 0xea0f45fb, 0x78067865], // (4, 16, 8, 1, 1, 0) n=3
    [0x02a8149c, 0x72ca4b04, 0x1076e021, 0xe24fb422], // (4, 16, 8, 1, 1, 0) n=64
    [0x05dab846, 0x6f7e4752, 0xe6e6326b, 0x5a815234], // (3, 32, 16, 4, 4, 0) n=1
    [0x45d01cc2, 0x3869d3e9, 0x42fc1e25, 0x0b8f0fad], // (3, 32, 16, 4, 4, 0) n=3
    [0x0382a621, 0x286eeafb, 0xcc2e240d, 0xf37fbb50], // (3, 32, 16, 4, 4, 0) n=64
    [0x0a1fe95f, 0xb3e098da, 0x95f75729, 0xa9c6c7cf], // (3, 48, 16, 4, 4, 0) n=1
    [0x8918f74e, 0xf6a04946, 0xd2e1eed1, 0x0697bf5f], // (3, 48, 16, 4, 4, 0) n=3
    [0xb2381eae, 0x313839d9, 0x159246e6, 0xbd1c3aad], // (3, 48, 16, 4, 4, 0) n=64
];

#[test]
fn conv_outputs_and_gradients_match_golden_hashes() {
    let mut actual = Vec::new();
    for &case in &GOLDEN_GEOMS {
        for &batch in &GOLDEN_BATCHES {
            let (y, gx, gw, gb) = conv_case(case, batch);
            actual.push([
                bits_hash(&y),
                bits_hash(&gx),
                bits_hash(&gw),
                bits_hash(&gb),
            ]);
        }
    }
    if actual[..] != GOLDEN_HASHES[..] {
        let mut table = String::new();
        for (i, h) in actual.iter().enumerate() {
            let case = GOLDEN_GEOMS[i / GOLDEN_BATCHES.len()];
            let batch = GOLDEN_BATCHES[i % GOLDEN_BATCHES.len()];
            table.push_str(&format!(
                "    [0x{:08x}, 0x{:08x}, 0x{:08x}, 0x{:08x}], // {case:?} n={batch}\n",
                h[0], h[1], h[2], h[3]
            ));
        }
        panic!("conv bit patterns changed; actual hashes:\n{table}");
    }
}
