//! The cached snapshot encoding equals the canonical one.
//!
//! The search driver encodes its live state by reference each iteration
//! and copies every elite's record from a cache filled the first time
//! that elite was checkpointed. A snapshot decoded from disk holds elites
//! with no cached record, so re-encoding it is the canonical encoding
//! from scratch. Every file a checkpointed search writes must equal that
//! re-encoding byte for byte, and hold the elites its trace implies.

use gmorph::models::train::TrainConfig;
use gmorph::prelude::*;
use gmorph::search::checkpoint::{SearchSnapshot, SEARCH_KIND};
use gmorph::search::driver::{run_search_checkpointed, TraceRecord};
use gmorph::search::policy::SimulatedAnnealing;
use gmorph::search::CheckpointOptions;
use gmorph::tensor::checkpoint::{snapshot_files, Envelope};

/// (latency, drop) bits of the elites a search holds after `trace`: each
/// iteration that met the target offers its candidate, and a full list
/// replaces its slowest member when the candidate is faster.
fn elites_implied_by(trace: &[TraceRecord], max_elites: usize) -> Vec<(u64, u32)> {
    let mut elites: Vec<(f64, f32)> = Vec::new();
    for t in trace.iter().filter(|t| t.met_target) {
        let offered = (t.candidate_latency_ms, t.drop);
        if elites.len() < max_elites {
            elites.push(offered);
            continue;
        }
        let (worst, _) = elites
            .iter()
            .enumerate()
            .max_by(|a, b| {
                a.1 .0
                    .partial_cmp(&b.1 .0)
                    .unwrap_or(std::cmp::Ordering::Equal)
            })
            .unwrap();
        if elites[worst].0 > offered.0 {
            elites[worst] = offered;
        }
    }
    elites
        .into_iter()
        .map(|(latency, drop)| (latency.to_bits(), drop.to_bits()))
        .collect()
}

#[test]
fn every_written_snapshot_equals_its_canonical_reencoding() {
    let seed = 7;
    let bench = build_benchmark(BenchId::B1, &DataProfile::smoke(), seed).unwrap();
    let session = Session::prepare(
        bench,
        &SessionConfig {
            teacher: TrainConfig {
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
    let iterations = 80;
    let mut cfg = OptimizationConfig {
        iterations,
        seed,
        accuracy_threshold: 0.05,
        ..Default::default()
    }
    .to_search_config();
    cfg.virtual_throughput = session.virtual_throughput;

    let dir = std::env::temp_dir().join(format!("gmorph-canonical-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let mut opts = CheckpointOptions::new(dir.clone());
    opts.every = 1;
    opts.keep = iterations;
    run_search_checkpointed(
        &session.mini_graph,
        &session.paper_graph,
        &session.weights,
        &mode,
        &cfg,
        Some(&opts),
    )
    .unwrap();

    let files = snapshot_files(&dir, SEARCH_KIND);
    assert_eq!(files.len(), iterations, "one file per iteration");
    let max_elites = SimulatedAnnealing::new().max_elites;
    let mut most_elites = 0;
    for (iter, path) in &files {
        let bytes = std::fs::read(path).unwrap();
        let snap = SearchSnapshot::decode(&Envelope::decode(&bytes).unwrap()).unwrap();
        most_elites = most_elites.max(snap.state.elites.len());
        let canonical = snap.encode().unwrap().encode();
        assert!(
            canonical == bytes,
            "snapshot of iteration {iter} differs from its canonical re-encoding"
        );
        // A stale cached record would still decode; check each elite
        // against the list the trace implies.
        let got: Vec<(u64, u32)> = snap
            .state
            .elites
            .iter()
            .map(|e| (e.latency_ms().to_bits(), e.accuracy_drop().to_bits()))
            .collect();
        assert_eq!(
            got,
            elites_implied_by(&snap.trace, max_elites),
            "elites of the snapshot of iteration {iter}"
        );
    }
    assert_eq!(most_elites, max_elites, "the elite list never filled up");
    std::fs::remove_dir_all(&dir).ok();
}
