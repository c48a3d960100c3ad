//! Failure injection: corrupted persistence, degenerate configurations,
//! and hostile inputs must produce errors (or graceful fallbacks), never
//! panics or silent corruption.

use gmorph::models::cache::load_or_train;
use gmorph::models::train::TrainConfig;
use gmorph::prelude::*;
use gmorph::tensor::serialize::{read_state_dict, save_state_dict, write_state_dict};

#[test]
fn corrupted_cache_files_fall_back_to_training() {
    let dir = std::env::temp_dir().join(format!("gmorph-corrupt-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    std::env::set_var("GMORPH_CACHE_DIR", &dir);

    let bench = build_benchmark(BenchId::B1, &DataProfile::smoke(), 901).unwrap();
    let mut rng = Rng::new(901);
    let split = bench.dataset.split(0.7, &mut rng).unwrap();
    let tc = TrainConfig {
        epochs: 1,
        batch: 32,
        lr: 1e-3,
        seed: 901,
    };
    // First call populates the cache.
    let (_, score1) = load_or_train(&bench.mini[0], &split, 0, &tc, 901).unwrap();
    // Corrupt every cache file.
    for entry in std::fs::read_dir(&dir).unwrap() {
        let path = entry.unwrap().path();
        std::fs::write(&path, b"definitely not a gmorph state dict").unwrap();
    }
    // Second call must not panic and must retrain to the same score.
    let (_, score2) = load_or_train(&bench.mini[0], &split, 0, &tc, 901).unwrap();
    assert_eq!(score1, score2);

    std::env::remove_var("GMORPH_CACHE_DIR");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn truncated_state_dicts_error_cleanly() {
    let entries = vec![("w".to_string(), Tensor::ones(&[8, 8]))];
    let mut buf = Vec::new();
    write_state_dict(&mut buf, &entries).unwrap();
    // Every truncation point must error, not panic.
    for cut in [0usize, 1, 4, 8, 12, buf.len() - 1] {
        let slice = &buf[..cut];
        assert!(read_state_dict(&mut &slice[..]).is_err(), "cut at {cut}");
    }
    // Bit-flipped magic errors.
    let mut bad = buf.clone();
    bad[0] ^= 0xFF;
    assert!(read_state_dict(&mut bad.as_slice()).is_err());
}

#[test]
fn hostile_header_values_do_not_allocate_absurdly() {
    // A fake header claiming 2^30 entries must be rejected up front.
    let mut buf = Vec::new();
    buf.extend_from_slice(&0x474D_5248u32.to_le_bytes()); // Magic.
    buf.extend_from_slice(&1u32.to_le_bytes()); // Version.
    buf.extend_from_slice(&(1u32 << 30).to_le_bytes()); // Entry count.
    assert!(read_state_dict(&mut buf.as_slice()).is_err());
}

#[test]
fn zero_iteration_search_returns_the_original() {
    let bench = build_benchmark(BenchId::B1, &DataProfile::smoke(), 902).unwrap();
    let session = Session::prepare(
        bench,
        &SessionConfig {
            teacher: TrainConfig {
                epochs: 1,
                batch: 32,
                lr: 1e-3,
                seed: 902,
            },
            seed: 902,
            use_cache: false,
            ..Default::default()
        },
    )
    .unwrap();
    let cfg = OptimizationConfig {
        iterations: 0,
        ..Default::default()
    };
    let r = session.optimize(&cfg).unwrap();
    assert_eq!(r.speedup, 1.0);
    assert!(r.trace.is_empty());
    assert_eq!(r.best.mini.signature(), session.mini_graph.signature());
}

#[test]
fn nan_inputs_do_not_crash_inference() {
    // A fused model fed NaNs must return NaNs, not panic: the engine's
    // numerics degrade gracefully.
    let bench = build_benchmark(BenchId::B1, &DataProfile::smoke(), 903).unwrap();
    let mut rng = Rng::new(903);
    let teachers: Vec<_> = bench
        .mini
        .iter()
        .map(|s| s.build(&mut rng).unwrap())
        .collect();
    let (graph, store) = gmorph::graph::parser::parse_models(&teachers).unwrap();
    let (mut tree, _) = gmorph::graph::generator::generate(&graph, &store, &mut rng).unwrap();
    let x = Tensor::full(&[1, 3, 16, 16], f32::NAN);
    let ys = tree.forward(&x, Mode::Eval).unwrap();
    assert_eq!(ys.len(), 3);
}

#[test]
fn saving_into_unwritable_location_is_nonfatal_for_cache() {
    // save_state_dict itself errors...
    let entries = vec![("w".to_string(), Tensor::ones(&[2]))];
    assert!(save_state_dict(
        std::path::Path::new("/proc/definitely/not/writable/x.gmrh"),
        &entries
    )
    .is_err());
    // ...but load_or_train treats caching as best-effort.
    std::env::set_var("GMORPH_CACHE_DIR", "/proc/definitely/not/writable");
    let bench = build_benchmark(BenchId::B1, &DataProfile::smoke(), 904).unwrap();
    let mut rng = Rng::new(904);
    let split = bench.dataset.split(0.7, &mut rng).unwrap();
    let tc = TrainConfig {
        epochs: 1,
        batch: 32,
        lr: 1e-3,
        seed: 904,
    };
    assert!(load_or_train(&bench.mini[0], &split, 0, &tc, 904).is_ok());
    std::env::remove_var("GMORPH_CACHE_DIR");
}

/// Corrupted checkpoint scenarios. Each one damages the *newest*
/// snapshot in a populated checkpoint directory and asserts the resume
/// (a) never panics, (b) lands on the same final result as an
/// uninterrupted run (fallback to the older snapshot, or a fresh start,
/// replays deterministically), and (c) bumps the `checkpoint.corrupt`
/// counter where the damage is detectable as corruption.
#[test]
fn corrupted_checkpoints_fall_back_never_panic() {
    use gmorph::search::checkpoint::{SEARCH_KIND, SEARCH_SCHEMA};
    use gmorph::search::driver::run_search_checkpointed;
    use gmorph::search::CheckpointOptions;
    use gmorph::telemetry::metrics::counter_value;
    use gmorph::telemetry::sink::install_test_sink;
    use gmorph::tensor::checkpoint::Envelope;

    let bench = build_benchmark(BenchId::B1, &DataProfile::smoke(), 905).unwrap();
    let session = Session::prepare(
        bench,
        &SessionConfig {
            teacher: TrainConfig {
                epochs: 1,
                batch: 32,
                lr: 3e-3,
                seed: 7,
            },
            seed: 7,
            use_cache: false,
            ..Default::default()
        },
    )
    .unwrap();
    let cfg = OptimizationConfig {
        iterations: 16,
        seed: 7,
        ..Default::default()
    }
    .to_search_config();
    let mode = session.eval_mode(AccuracyMode::Surrogate).unwrap();
    let run = |ckpt: Option<&CheckpointOptions>| {
        run_search_checkpointed(
            &session.mini_graph,
            &session.paper_graph,
            &session.weights,
            &mode,
            &cfg,
            1,
            ckpt,
        )
    };
    let reference = run(None).unwrap();
    // Non-vacuous scenario: elites and an improved best exist, so the
    // fallback replay exercises the full state restoration.
    assert!(reference.speedup > 1.0, "scenario found nothing: useless");

    let snapshots_in = |dir: &std::path::Path| -> Vec<std::path::PathBuf> {
        let mut files: Vec<_> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|p| p.extension().is_some_and(|e| e == "gmck"))
            .collect();
        files.sort();
        files
    };

    #[derive(Clone, Copy, Debug)]
    enum Damage {
        Truncate,
        FlipHeaderByte,
        FlipPayloadByte,
        StaleSchema,
        TmpLeftover,
        AllCorrupt,
    }
    for damage in [
        Damage::Truncate,
        Damage::FlipHeaderByte,
        Damage::FlipPayloadByte,
        Damage::StaleSchema,
        Damage::TmpLeftover,
        Damage::AllCorrupt,
    ] {
        let dir = std::env::temp_dir().join(format!(
            "gmorph-ckpt-corrupt-{damage:?}-{}",
            std::process::id()
        ));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();

        // Populate the directory by running to completion with
        // per-iteration snapshots (keep=2 → the last two survive).
        let mut opts = CheckpointOptions::new(&dir);
        opts.every = 1;
        run(Some(&opts)).unwrap();
        let files = snapshots_in(&dir);
        assert_eq!(files.len(), 2, "{damage:?}: rotation should keep 2");
        let newest = files.last().unwrap().clone();

        let corruption_expected = match damage {
            Damage::Truncate => {
                let bytes = std::fs::read(&newest).unwrap();
                std::fs::write(&newest, &bytes[..bytes.len() / 3]).unwrap();
                true
            }
            Damage::FlipHeaderByte => {
                let mut bytes = std::fs::read(&newest).unwrap();
                bytes[2] ^= 0xFF; // Inside the magic number.
                std::fs::write(&newest, bytes).unwrap();
                true
            }
            Damage::FlipPayloadByte => {
                let mut bytes = std::fs::read(&newest).unwrap();
                let mid = bytes.len() / 2;
                bytes[mid] ^= 0x01; // CRC-covered body.
                std::fs::write(&newest, bytes).unwrap();
                true
            }
            Damage::StaleSchema => {
                // A well-formed envelope from a future schema version.
                let env = Envelope::new(SEARCH_KIND, SEARCH_SCHEMA + 7);
                std::fs::write(&newest, env.encode()).unwrap();
                true
            }
            Damage::TmpLeftover => {
                // A half-written staging file from a crashed writer. The
                // loader must never even consider it.
                let tmp = dir.join("search-000099.gmck.tmp");
                std::fs::write(&tmp, b"half-written garbage").unwrap();
                false
            }
            Damage::AllCorrupt => {
                for f in &files {
                    let bytes = std::fs::read(f).unwrap();
                    std::fs::write(f, &bytes[..bytes.len() / 2]).unwrap();
                }
                true
            }
        };

        let guard = install_test_sink();
        let mut resume = CheckpointOptions::new(&dir);
        resume.every = 1;
        resume.resume = true;
        let resumed = run(Some(&resume)).unwrap(); // Must not panic or error.
        let corrupt_count = counter_value("checkpoint.corrupt");
        drop(guard);

        if corruption_expected {
            assert!(corrupt_count >= 1, "{damage:?}: corruption not counted");
        } else {
            assert_eq!(corrupt_count, 0, "{damage:?}: spurious corruption");
        }
        // Whatever snapshot (or fresh start) the fallback landed on, the
        // deterministic replay must reach the uninterrupted result.
        assert_eq!(
            resumed.best.mini.signature(),
            reference.best.mini.signature(),
            "{damage:?}: best graph"
        );
        assert_eq!(
            resumed.best.latency_ms.to_bits(),
            reference.best.latency_ms.to_bits(),
            "{damage:?}: best latency"
        );
        assert_eq!(
            resumed.speedup.to_bits(),
            reference.speedup.to_bits(),
            "{damage:?}: speedup"
        );
        assert_eq!(
            resumed.trace.len(),
            reference.trace.len(),
            "{damage:?}: trace length"
        );
        assert_eq!(resumed.evaluated, reference.evaluated, "{damage:?}: evaluated");
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn config_file_attack_surface() {
    use gmorph::configfile::parse;
    // Pathological inputs must error or parse, never panic.
    let cases = [
        "= = =",
        "iterations = -5",
        "lr = 1e999",
        "seed = 99999999999999999999999999",
        "accuracy_threshold = NaN",
        "\u{0}\u{0}\u{0}",
        "metric = latency = flops",
    ];
    for c in cases {
        let _ = parse(c); // Outcome may be Ok or Err; panics fail the test.
    }
    // NaN threshold parses as f32 NaN; searches treat it as unmeetable.
    if let Ok(cfg) = parse("accuracy_threshold = NaN") {
        assert!(cfg.accuracy_threshold.is_nan());
    }
    // Random strings over the config and JSON alphabets, through both text
    // decoders (config files, trace lines): Ok or Err, never a panic.
    const ALPHABET: &[char] = &[
        '=', '#', '\n', ' ', '-', '.', 'e', '0', '1', '9', 'a', 'N', '[', ']', '{', '}', ':',
        ',', '"', '\\', 'u', 't', 'n', 'l', 'f', '\u{0}', 'é', '\u{10FFFF}',
    ];
    let keys = ["iterations = ", "lr = ", "metric = ", "seed = ", "[", "{\"a\":"];
    let mut rng = Rng::new(315);
    for _ in 0..4000 {
        let len = rng.below(40);
        let mut text: String = (0..len).map(|_| *rng.choose(ALPHABET).unwrap()).collect();
        if rng.coin(0.5) {
            text.insert_str(0, rng.choose(&keys).unwrap());
        }
        let _ = parse(&text);
        let _ = gmorph::telemetry::json::Json::parse(&text);
    }
}

/// The schema-v2 snapshot of `tests/fixtures/search-v2` and its schema-v3
/// re-encoding: envelopes whose sections the decoder fuzz below corrupts.
fn fuzz_bases() -> [gmorph::tensor::checkpoint::Envelope; 2] {
    use gmorph::search::checkpoint::{SearchSnapshot, SEARCH_SCHEMA};
    use gmorph::tensor::checkpoint::Envelope;
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/fixtures/search-v2/search-000012.gmck");
    let v2 = Envelope::decode(&std::fs::read(path).unwrap()).unwrap();
    assert_eq!(v2.schema, 2);
    let v3 = SearchSnapshot::decode(&v2).unwrap().encode().unwrap();
    assert_eq!(v3.schema, SEARCH_SCHEMA);
    [v2, v3]
}

/// The best model of the schema-v2 fixture snapshot, saved as a model
/// file; returns the file's path and bytes. `tag` keeps concurrent
/// callers' files apart.
fn fuzz_model_file(tag: &str) -> (std::path::PathBuf, Vec<u8>) {
    use gmorph::graph::persist::save_model;
    use gmorph::search::checkpoint::SearchSnapshot;
    let best = SearchSnapshot::decode(&fuzz_bases()[0]).unwrap().best;
    let dir = std::env::temp_dir().join(format!("gmorph-model-{tag}-{}", std::process::id()));
    let path = dir.join("best.gmck");
    save_model(&path, &best.mini, &best.weights).unwrap();
    let bytes = std::fs::read(&path).unwrap();
    (path, bytes)
}

#[test]
fn model_files_reject_every_flipped_byte() {
    use gmorph::graph::persist::load_model;
    use gmorph::tensor::checkpoint::is_corruption;
    let (path, bytes) = fuzz_model_file("flip");
    load_model(&path).unwrap();
    for at in 0..bytes.len() {
        let mut flipped = bytes.clone();
        flipped[at] ^= 0xA5;
        std::fs::write(&path, &flipped).unwrap();
        match load_model(&path) {
            Ok(_) => panic!("byte {at} flipped and the model still loaded"),
            Err(e) => assert!(is_corruption(&e), "byte {at}: {e}"),
        }
    }
    std::fs::remove_dir_all(path.parent().unwrap()).ok();
}

/// Sections whose first field is a count, a length or a bounded index,
/// so random bytes in them cannot decode; `loop` and `counters` are
/// fixed-width and only have to fail on truncation.
const PREFIXED_SECTIONS: [&str; 5] = ["rng", "filter", "history", "best", "trace"];

proptest::proptest! {
    #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

    /// Random section bytes inside a valid envelope (so the CRC cannot
    /// reject them first) fail to decode at schema v2 and v3, never
    /// panic.
    #[test]
    fn random_snapshot_sections_are_rejected(
        section in 0usize..5,
        bytes in proptest::collection::vec(0u8..=255, 0..600),
    ) {
        use gmorph::search::checkpoint::SearchSnapshot;
        for mut env in fuzz_bases() {
            let name = PREFIXED_SECTIONS[section];
            let slot = env.sections.iter_mut().find(|(n, _)| n == name).unwrap();
            slot.1 = bytes.clone();
            proptest::prop_assert!(
                SearchSnapshot::decode(&env).is_err(),
                "random {} section decoded at schema v{}", name, env.schema
            );
        }
    }

    /// A flipped bit in any section never panics the decoder. It may
    /// still decode (a flipped digest bit is another valid digest), and
    /// whatever decodes must encode again. Every truncation fails.
    #[test]
    fn corrupted_snapshot_sections_never_panic(
        section in 0usize..7,
        bit in 0usize..1 << 20,
        cut in 0usize..1 << 20,
    ) {
        use gmorph::search::checkpoint::SearchSnapshot;
        for base in fuzz_bases() {
            let mut flipped = base.clone();
            let bytes = &mut flipped.sections[section].1;
            let bit = bit % (bytes.len() * 8);
            bytes[bit / 8] ^= 1 << (bit % 8);
            if let Ok(snap) = SearchSnapshot::decode(&flipped) {
                snap.encode().unwrap();
            }
            let mut truncated = base.clone();
            let (name, bytes) = &mut truncated.sections[section];
            let (name, len) = (name.clone(), cut % bytes.len());
            bytes.truncate(len);
            proptest::prop_assert!(
                SearchSnapshot::decode(&truncated).is_err(),
                "section {} cut to {} bytes decoded at schema v{}", name, len, base.schema
            );
        }
    }

    /// Inside a valid model envelope (so the CRC cannot reject them
    /// first), random record bytes and truncated records fail to load. A
    /// flipped bit never panics the loader; it may still load (a flipped
    /// weight bit is another weight), and then the model encodes again.
    #[test]
    fn corrupted_model_records_never_panic(
        bytes in proptest::collection::vec(0u8..=255, 0..600),
        bit in 0usize..1 << 20,
        cut in 0usize..1 << 20,
    ) {
        use gmorph::graph::persist::{encode_model_bytes, load_model, MODEL_KIND, MODEL_SCHEMA};
        use gmorph::tensor::checkpoint::{save_atomic, Envelope};
        let (path, file) = fuzz_model_file("record");
        let record = Envelope::decode(&file).unwrap().section("model").unwrap().to_vec();
        let save = |section: Vec<u8>| {
            let mut env = Envelope::new(MODEL_KIND, MODEL_SCHEMA);
            env.push("model", section);
            save_atomic(&path, &env).unwrap();
        };
        save(bytes);
        proptest::prop_assert!(load_model(&path).is_err(), "random record loaded");
        let mut flipped = record.clone();
        let bit = bit % (flipped.len() * 8);
        flipped[bit / 8] ^= 1 << (bit % 8);
        save(flipped);
        if let Ok((graph, weights)) = load_model(&path) {
            encode_model_bytes(&graph, &weights).unwrap();
        }
        let len = cut % record.len();
        save(record[..len].to_vec());
        proptest::prop_assert!(load_model(&path).is_err(), "record cut to {} bytes loaded", len);
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
    }
}
