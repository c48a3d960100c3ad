//! Cross-crate property tests on the search-level invariants.

use gmorph::graph::pairs::{pairs_with, PairPolicy};
use gmorph::graph::{mutation, parser, CapacityVector};
use gmorph::prelude::*;
use gmorph::tensor::rng::Rng;
use proptest::prelude::*;

fn b3_graph() -> AbsGraph {
    let bench = build_benchmark(BenchId::B3, &DataProfile::smoke(), 1).unwrap();
    parser::parse_specs(&bench.mini).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any sequence of sampled mutation passes keeps the graph valid,
    /// keeps every task's head, and never increases FLOPs-per-shared-path
    /// beyond the original.
    #[test]
    fn mutation_passes_preserve_invariants(seed in 0u64..500, rounds in 1usize..4) {
        let mut g = b3_graph();
        let original_flops = g.flops().unwrap();
        let mut rng = Rng::new(seed);
        for _ in 0..rounds {
            let pairs = pairs_with(&g, PairPolicy::SimilarShape).unwrap();
            if pairs.is_empty() {
                break;
            }
            let chosen = pairs[rng.below(pairs.len())];
            let (next, ops) = mutation::mutation_pass(&g, &[chosen]).unwrap();
            if ops.is_empty() {
                continue;
            }
            next.validate().unwrap();
            prop_assert_eq!(next.head_of_task().unwrap().len(), 3);
            g = next;
        }
        // Sharing removes computation but may add re-scale adapters whose
        // cost is not bounded by what was removed (the search objective,
        // not an invariant, rejects such candidates). The invariant is on
        // the *original* computation: non-rescale work never grows.
        let non_rescale: u64 = g
            .iter()
            .filter(|(_, n)| !matches!(n.spec, BlockSpec::Rescale { .. }))
            .map(|(_, n)| n.spec.flops(&n.input_shape).unwrap())
            .sum();
        prop_assert!(non_rescale <= original_flops);
    }

    /// Capacity vectors shrink (weakly) under mutation: total parameters
    /// never grow except by small rescale adapters.
    #[test]
    fn mutation_never_inflates_capacity_much(seed in 0u64..500) {
        let g = b3_graph();
        let before = CapacityVector::of(&g).unwrap();
        let mut rng = Rng::new(seed);
        let pairs = pairs_with(&g, PairPolicy::SimilarShape).unwrap();
        prop_assume!(!pairs.is_empty());
        let chosen = pairs[rng.below(pairs.len())];
        let (next, ops) = mutation::mutation_pass(&g, &[chosen]).unwrap();
        prop_assume!(!ops.is_empty());
        let after = CapacityVector::of(&next).unwrap();
        // A rescale adapter is at most c_in*c_out+c_out parameters, far
        // below any removed block.
        prop_assert!(after.total <= before.total + 2 * 16 * 16 + 16);
    }

    /// The structural signature is sound: equal signatures mean equal
    /// latency estimates and capacity vectors.
    #[test]
    fn signature_soundness(seed_a in 0u64..200, seed_b in 0u64..200) {
        let g = b3_graph();
        let pairs = pairs_with(&g, PairPolicy::SimilarShape).unwrap();
        prop_assume!(pairs.len() >= 2);
        let mut ra = Rng::new(seed_a);
        let mut rb = Rng::new(seed_b);
        let (ga, _) = mutation::mutation_pass(&g, &[pairs[ra.below(pairs.len())]]).unwrap();
        let (gb, _) = mutation::mutation_pass(&g, &[pairs[rb.below(pairs.len())]]).unwrap();
        if ga.signature() == gb.signature() {
            prop_assert_eq!(ga.flops().unwrap(), gb.flops().unwrap());
            prop_assert_eq!(
                CapacityVector::of(&ga).unwrap(),
                CapacityVector::of(&gb).unwrap()
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Transformer graphs (different widths and depths, BERT-style) obey
    /// the same mutation invariants as CNN graphs, including the rule
    /// that token embeddings never receive re-scaled inputs.
    #[test]
    fn transformer_mutations_preserve_invariants(seed in 0u64..300, rounds in 1usize..4) {
        let bench = build_benchmark(BenchId::B7, &DataProfile::smoke(), 2).unwrap();
        let mut g = parser::parse_specs(&bench.mini).unwrap();
        let mut rng = Rng::new(seed);
        for _ in 0..rounds {
            let prs = pairs_with(&g, PairPolicy::SimilarShape).unwrap();
            if prs.is_empty() {
                break;
            }
            let chosen = prs[rng.below(prs.len())];
            let (next, ops) = mutation::mutation_pass(&g, &[chosen]).unwrap();
            if ops.is_empty() {
                continue;
            }
            next.validate().unwrap();
            g = next;
        }
        // Token embeddings always consume the raw input.
        for (_, n) in g.iter() {
            if matches!(n.spec, BlockSpec::TokenEmbed { .. }) {
                prop_assert_eq!(n.parent, None);
            }
        }
        prop_assert_eq!(g.head_of_task().unwrap().len(), 2);
    }

    /// Any graph reachable by legal mutations can be materialized into a
    /// runnable tree model with teacher-weight inheritance, and its
    /// forward pass emits finite logits of the right widths.
    #[test]
    fn evolved_graphs_always_materialize_and_run(seed in 0u64..200) {
        let bench = build_benchmark(BenchId::B3, &DataProfile::smoke(), 4).unwrap();
        let mut rng = Rng::new(seed);
        let teachers: Vec<_> = bench
            .mini
            .iter()
            .map(|s| s.build(&mut rng).unwrap())
            .collect();
        let (mut g, store) = parser::parse_models(&teachers).unwrap();
        for _ in 0..2 {
            let prs = pairs_with(&g, PairPolicy::SimilarShape).unwrap();
            prop_assume!(!prs.is_empty());
            let chosen = prs[rng.below(prs.len())];
            let (next, _) = mutation::mutation_pass(&g, &[chosen]).unwrap();
            g = next;
        }
        let (mut tree, _) =
            gmorph::graph::generator::generate(&g, &store, &mut rng).unwrap();
        let x = Tensor::randn(&[2, 3, 16, 16], 1.0, &mut rng);
        let ys = tree.forward(&x, Mode::Eval).unwrap();
        prop_assert_eq!(ys.len(), 3);
        for (t, y) in ys.iter().enumerate() {
            prop_assert_eq!(y.dims()[1], bench.mini[t].task.classes);
            prop_assert!(y.data().iter().all(|v| v.is_finite()));
        }
    }
}

// --- Checkpoint invariants (DESIGN.md §12) ---

use gmorph::search::driver::run_search_checkpointed;
use gmorph::search::evaluator::EvalMode;
use gmorph::search::{CheckpointOptions, CrashKind};
use gmorph::tensor::checkpoint::Envelope;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::OnceLock;

fn checkpoint_session(bench_id: BenchId, seed: u64) -> (Session, EvalMode, SearchResult) {
    let bench = build_benchmark(bench_id, &DataProfile::smoke(), seed).unwrap();
    let session = Session::prepare(
        bench,
        &SessionConfig {
            teacher: gmorph::models::train::TrainConfig {
                epochs: 1,
                batch: 32,
                lr: 3e-3,
                seed,
            },
            seed,
            use_cache: false,
            ..Default::default()
        },
    )
    .unwrap();
    let mode = session.eval_mode(AccuracyMode::Surrogate).unwrap();
    let mut cfg = OptimizationConfig {
        iterations: 10,
        seed,
        ..Default::default()
    }
    .to_search_config();
    cfg.virtual_throughput = session.virtual_throughput;
    let reference = run_search_checkpointed(
        &session.mini_graph,
        &session.paper_graph,
        &session.weights,
        &mode,
        &cfg,
        1,
        None,
    )
    .unwrap();
    (session, mode, reference)
}

static B1_FIX: OnceLock<(Session, EvalMode, SearchResult)> = OnceLock::new();
static B3_FIX: OnceLock<(Session, EvalMode, SearchResult)> = OnceLock::new();

fn resume_matches_reference(bench_id: BenchId, interrupt: usize, tag: &str) -> Result<(), String> {
    let (session, mode, reference) = match bench_id {
        BenchId::B1 => B1_FIX.get_or_init(|| checkpoint_session(BenchId::B1, 17)),
        _ => B3_FIX.get_or_init(|| checkpoint_session(BenchId::B3, 18)),
    };
    let mut cfg = OptimizationConfig {
        iterations: 10,
        seed: session.seed,
        ..Default::default()
    }
    .to_search_config();
    cfg.virtual_throughput = session.virtual_throughput;

    let dir = std::env::temp_dir().join(format!(
        "gmorph-prop-resume-{tag}-{interrupt}-{}",
        std::process::id()
    ));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let mut opts = CheckpointOptions::new(&dir);
    opts.every = 1;
    opts.crash_after = Some((interrupt, CrashKind::Panic));
    let crashed = catch_unwind(AssertUnwindSafe(|| {
        run_search_checkpointed(
            &session.mini_graph,
            &session.paper_graph,
            &session.weights,
            mode,
            &cfg,
            1,
            Some(&opts),
        )
    }));
    if crashed.is_ok() {
        return Err(format!("injected crash at {interrupt} did not fire"));
    }
    let mut resume = CheckpointOptions::new(&dir);
    resume.every = 1;
    resume.resume = true;
    let resumed = run_search_checkpointed(
        &session.mini_graph,
        &session.paper_graph,
        &session.weights,
        mode,
        &cfg,
        1,
        Some(&resume),
    )
    .map_err(|e| format!("resume failed: {e}"))?;
    std::fs::remove_dir_all(&dir).ok();

    if resumed.best.mini.signature() != reference.best.mini.signature() {
        return Err("best graph diverged after resume".to_string());
    }
    if resumed.best.latency_ms.to_bits() != reference.best.latency_ms.to_bits() {
        return Err("best latency diverged after resume".to_string());
    }
    if resumed.evaluated != reference.evaluated
        || resumed.duplicates != reference.duplicates
        || resumed.trace.len() != reference.trace.len()
    {
        return Err("counters/trace diverged after resume".to_string());
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The checkpoint envelope is a bijection: encode→decode is the
    /// identity on (kind, schema, sections) for arbitrary payloads, so
    /// no snapshot content can be silently altered by a round trip.
    #[test]
    fn checkpoint_envelope_roundtrips(
        schema in 0u32..1000,
        name_seed in 0u64..1_000_000,
        payload in proptest::collection::vec(0u8..=255u8, 0..256),
        n_sections in 1usize..6,
    ) {
        let mut env = Envelope::new("prop", schema);
        for i in 0..n_sections {
            // Distinct names; contents shifted per section.
            let bytes: Vec<u8> =
                payload.iter().map(|b| b.wrapping_add(i as u8)).collect();
            env.push(&format!("s{name_seed}-{i}"), bytes);
        }
        let bytes = env.encode();
        let back = Envelope::decode(&bytes)
            .map_err(|e| format!("decode failed: {e}"))?;
        prop_assert_eq!(&back.kind, &env.kind);
        prop_assert_eq!(back.schema, env.schema);
        prop_assert_eq!(&back.sections, &env.sections);
        // Canonical encoding: re-encoding reproduces the exact bytes.
        prop_assert_eq!(back.encode(), bytes);
    }

    /// Any single corrupting byte-flip anywhere in an encoded envelope
    /// is detected: decode either errors or (for flips inside section
    /// *names* only) cannot alter section payloads unnoticed — the CRC
    /// covers the entire body.
    #[test]
    fn envelope_detects_any_single_bit_flip(
        offset_seed in 0u64..10_000,
        bit in 0u8..8,
    ) {
        let mut env = Envelope::new("prop", 3);
        env.push("data", vec![7u8; 64]);
        let mut bytes = env.encode();
        let offset = (offset_seed as usize) % bytes.len();
        bytes[offset] ^= 1 << bit;
        // Every flip lands in magic, format, length, CRC, or the
        // CRC-covered body — all detected.
        prop_assert!(Envelope::decode(&bytes).is_err());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5))]

    /// Resuming a B1 search killed at a random iteration reproduces the
    /// uninterrupted run.
    #[test]
    fn b1_resume_at_random_iteration_matches(interrupt in 1usize..10) {
        resume_matches_reference(BenchId::B1, interrupt, "b1")?;
    }

    /// Same for B3 (three heterogeneous tasks).
    #[test]
    fn b3_resume_at_random_iteration_matches(interrupt in 1usize..10) {
        resume_matches_reference(BenchId::B3, interrupt, "b3")?;
    }
}

// --- Resilience invariants (DESIGN.md §13) ---

use gmorph::nn::health::clip_scale;
use gmorph::search::supervisor::retry_seed;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Global-norm clipping preserves gradient direction: the clip
    /// factor is always a positive scalar, so the clipped gradient is a
    /// positive multiple of the original, and its norm lands exactly on
    /// the threshold. Norms at or below the threshold are untouched.
    #[test]
    fn clipping_preserves_gradient_direction(
        grad in proptest::collection::vec(-1e3f32..1e3, 1..64),
        max_norm in 1e-3f32..1e3,
    ) {
        let norm = grad.iter().map(|g| (*g as f64).powi(2)).sum::<f64>().sqrt() as f32;
        match clip_scale(norm, max_norm) {
            None => prop_assert!(norm <= max_norm),
            Some(scale) => {
                prop_assert!(norm > max_norm);
                prop_assert!(scale > 0.0 && scale < 1.0, "scale {scale}");
                let clipped: Vec<f32> = grad.iter().map(|g| g * scale).collect();
                // Direction preserved: every component keeps its sign.
                for (g, c) in grad.iter().zip(&clipped) {
                    prop_assert!(g.signum() == c.signum() || *c == 0.0);
                }
                let new_norm = clipped
                    .iter()
                    .map(|g| (*g as f64).powi(2))
                    .sum::<f64>()
                    .sqrt() as f32;
                prop_assert!(
                    (new_norm - max_norm).abs() <= max_norm * 1e-3,
                    "clipped norm {new_norm} vs threshold {max_norm}"
                );
            }
        }
    }

    /// Retry RNG streams are disjoint from the search stream and from
    /// each other: no (iteration, attempt) pair may reseed onto the
    /// search stream (which would perturb replay determinism), and
    /// distinct retry attempts must not share a stream.
    #[test]
    fn retry_streams_are_disjoint_from_search_stream(
        seed in 0u64..u64::MAX,
        iter_a in 0usize..10_000,
        iter_b in 0usize..10_000,
        attempt_a in 0usize..16,
        attempt_b in 0usize..16,
    ) {
        let search_seed = seed ^ 0x5EA_4C4;
        let rs_a = retry_seed(seed, iter_a, attempt_a);
        let rs_b = retry_seed(seed, iter_b, attempt_b);
        prop_assert_ne!(rs_a, search_seed);
        prop_assert_ne!(rs_b, search_seed);
        if (iter_a, attempt_a) != (iter_b, attempt_b) {
            prop_assert_ne!(rs_a, rs_b);
        }
        // Disjoint seeds yield distinct streams, not just distinct seeds.
        let mut search_rng = Rng::new(search_seed);
        let mut retry_rng = Rng::new(rs_a);
        let search_draws: Vec<u32> =
            (0..4).map(|_| search_rng.below(u32::MAX as usize) as u32).collect();
        let retry_draws: Vec<u32> =
            (0..4).map(|_| retry_rng.below(u32::MAX as usize) as u32).collect();
        prop_assert_ne!(search_draws, retry_draws);
    }
}

#[test]
fn serving_tasks_cover_every_head_path() {
    let g = b3_graph();
    let serving = g.serving_tasks().unwrap();
    let heads = g.head_of_task().unwrap();
    for (task, &head) in heads.iter().enumerate() {
        assert!(serving[&head].contains(&task));
        for anc in g.ancestors(head).unwrap() {
            assert!(serving[&anc].contains(&task));
        }
    }
}
