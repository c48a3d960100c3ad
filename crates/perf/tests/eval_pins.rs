//! Golden bit-hash pins of eval-mode block outputs.
//!
//! Each pin is the CRC-32 of the little-endian `f32` bit patterns of one
//! block's `Mode::Eval` output at batch 1 and batch 16. The blocks cover
//! every eval path that applies an activation after a kernel: a
//! `ConvRelu`, a primed `ConvBnRelu` and a primed `Residual` (each as
//! trained and as folded by [`compile_for_inference`]), and a B7-size
//! transformer block (d = 48, 4 heads, 12 tokens), plain and compiled.
//! Any change to how an eval forward orders or fuses its floating-point
//! work shows up here as a hash mismatch.

use gmorph_data::TaskSpec;
use gmorph_graph::TreeModel;
use gmorph_nn::{Block, Mode};
use gmorph_perf::compile::compile_for_inference;
use gmorph_tensor::checkpoint::crc32;
use gmorph_tensor::rng::Rng;
use gmorph_tensor::Tensor;

/// CRC-32 of a tensor's little-endian `f32` bit patterns.
fn bits_hash(t: &Tensor) -> u32 {
    let bytes: Vec<u8> = t
        .data()
        .iter()
        .flat_map(|v| v.to_bits().to_le_bytes())
        .collect();
    crc32(&bytes)
}

/// Runs a few training passes so batch-norm running statistics are not
/// the identity, then drops the caches.
fn primed(mut block: Block, input: &[usize], rng: &mut Rng) -> Block {
    for _ in 0..4 {
        let x = Tensor::randn(input, 1.5, rng).map(|v| v + 0.3);
        block.forward(&x, Mode::Train).unwrap();
    }
    block.clear_cache();
    block
}

/// The block as [`compile_for_inference`] leaves it.
fn compiled(block: &Block) -> Block {
    let mut tree = TreeModel::new(vec![TaskSpec::classification("a", 2)]);
    tree.add_node((0, 0), block.clone(), None).unwrap();
    let (compiled, _) = compile_for_inference(&tree).unwrap();
    compiled.nodes()[0].block.clone()
}

/// The pinned cases: a name, the block, and its per-sample input shape.
fn cases() -> Vec<(&'static str, Block, Vec<usize>)> {
    let mut rng = Rng::new(0xE7A1);
    let conv_relu = Block::conv_relu(3, 16, &mut rng).unwrap();
    let conv_bn = primed(
        Block::conv_bn_relu(3, 16, 3, 1, &mut rng).unwrap(),
        &[8, 3, 16, 16],
        &mut rng,
    );
    let residual = primed(
        Block::residual(8, 16, 2, &mut rng).unwrap(),
        &[8, 8, 16, 16],
        &mut rng,
    );
    let transformer = Block::transformer(48, 4, &mut rng).unwrap();
    vec![
        ("conv_relu", conv_relu, vec![3, 16, 16]),
        ("conv_bn_relu", conv_bn.clone(), vec![3, 16, 16]),
        ("conv_bn_relu folded", compiled(&conv_bn), vec![3, 16, 16]),
        ("residual", residual.clone(), vec![8, 16, 16]),
        ("residual folded", compiled(&residual), vec![8, 16, 16]),
        ("transformer", transformer.clone(), vec![12, 48]),
        ("transformer compiled", compiled(&transformer), vec![12, 48]),
    ]
}

/// Golden `[batch 1, batch 16]` output hashes, in `cases()` order.
const GOLDEN: [[u32; 2]; 7] = [
    [0x7ac841e2, 0xef01d072], // conv_relu
    [0x3f270cbf, 0x5df71e49], // conv_bn_relu
    [0x37134269, 0x84bbfaa3], // conv_bn_relu folded
    [0x089b3959, 0x8691b3df], // residual
    [0x3448fbe7, 0x2f9c7dcb], // residual folded
    [0x5b95cf1b, 0x414b7174], // transformer
    [0x5b95cf1b, 0x414b7174], // transformer compiled
];

#[test]
fn eval_outputs_match_golden_hashes() {
    let mut actual = Vec::new();
    let mut table = String::new();
    for (name, mut block, sample) in cases() {
        let mut row = [0u32; 2];
        for (slot, batch) in row.iter_mut().zip([1usize, 16]) {
            let dims: Vec<usize> = std::iter::once(batch)
                .chain(sample.iter().copied())
                .collect();
            // The same input for each variant of a block.
            let x = Tensor::randn(&dims, 1.0, &mut Rng::new(0x91E5 + batch as u64));
            *slot = bits_hash(&block.forward(&x, Mode::Eval).unwrap());
        }
        table.push_str(&format!(
            "    [0x{:08x}, 0x{:08x}], // {name}\n",
            row[0], row[1]
        ));
        actual.push(row);
    }
    assert!(
        actual[..] == GOLDEN[..],
        "eval bit patterns changed; actual hashes:\n{table}"
    );
}
