//! The cached snapshot encoding equals the canonical one.
//!
//! The search driver encodes its live state in place each round and
//! copies every elite's record from a cache filled the first time that
//! elite was checkpointed, and the best model's section from a cache
//! filled the first time after the best changed. A snapshot
//! decoded from disk carries no cache, so re-encoding it is the
//! canonical encoding from scratch. Every file a checkpointed search
//! writes must equal that re-encoding byte for byte, and hold the elites
//! and the best model its trace implies.

use gmorph::models::train::TrainConfig;
use gmorph::prelude::*;
use gmorph::search::checkpoint::{SearchSnapshot, SEARCH_KIND};
use gmorph::search::driver::{run_search_checkpointed, TraceRecord};
use gmorph::search::policy::MAX_ELITES;
use gmorph::search::CheckpointOptions;
use gmorph::tensor::checkpoint::{crc32, snapshot_files, Envelope};

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

/// Runs a checkpointed 80-iteration B1 surrogate search with `per_round`
/// candidates per round that writes a snapshot every round and keeps them
/// all; returns the result and the files, oldest first.
fn checkpointed_search(tag: &str, per_round: usize) -> (SearchResult, Vec<(usize, Vec<u8>)>) {
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

    let dir = std::env::temp_dir().join(format!("gmorph-canonical-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let mut opts = CheckpointOptions::new(dir.clone());
    opts.every = 1;
    opts.keep = iterations;
    let result = run_search_checkpointed(
        &session.mini_graph,
        &session.paper_graph,
        &session.weights,
        &mode,
        &cfg,
        per_round,
        Some(&opts),
    )
    .unwrap();

    let mut files: Vec<(usize, Vec<u8>)> = snapshot_files(&dir, SEARCH_KIND)
        .into_iter()
        .map(|(iter, path)| (iter, std::fs::read(path).unwrap()))
        .collect();
    files.sort_by_key(|(iter, _)| *iter);
    assert_eq!(
        files.len(),
        iterations.div_ceil(per_round),
        "one file per round"
    );
    std::fs::remove_dir_all(&dir).ok();
    (result, files)
}

fn decode(bytes: &[u8]) -> SearchSnapshot {
    SearchSnapshot::decode(&Envelope::decode(bytes).unwrap()).unwrap()
}

#[test]
fn every_written_snapshot_equals_its_canonical_reencoding() {
    let (_, files) = checkpointed_search("elites", 1);
    let mut most_elites = 0;
    for (iter, bytes) in &files {
        let snap = decode(bytes);
        most_elites = most_elites.max(snap.state.history.elite_count());
        let canonical = snap.encode().unwrap().encode();
        assert!(
            canonical == *bytes,
            "snapshot of iteration {iter} differs from its canonical re-encoding"
        );
        // A stale cached record would still decode; check each elite
        // against the list the trace implies.
        let got: Vec<(u64, u32)> = snap
            .state
            .history
            .elites()
            .iter()
            .map(|e| (e.latency_ms().to_bits(), e.accuracy_drop().to_bits()))
            .collect();
        assert_eq!(
            got,
            elites_implied_by(&snap.trace, MAX_ELITES),
            "elites of the snapshot of iteration {iter}"
        );
    }
    assert_eq!(most_elites, MAX_ELITES, "the elite list never filled up");
}

/// (latency, drop) bits of the best model after `trace`: the original
/// (drop 0) until an iteration lowers the best latency, then the
/// candidate of the last iteration that did.
fn best_implied_by(trace: &[TraceRecord], original_latency_ms: f64) -> (u64, u32) {
    let mut best = (original_latency_ms, 0.0f32);
    for t in trace {
        if t.best_latency_ms < best.0 {
            best = (t.best_latency_ms, t.drop);
        }
    }
    (best.0.to_bits(), best.1.to_bits())
}

/// The driver caches the encoded best model and must drop that cache
/// whenever the best model changes. A stale record would still decode
/// and re-encode to itself, so each file's best model is checked against
/// the one its trace implies as well.
#[test]
fn the_cached_best_record_follows_every_new_best() {
    let (result, files) = checkpointed_search("best", 1);
    let mut improvements_after_first_snapshot = 0;
    let mut previous_best = None;
    for (iter, bytes) in &files {
        let snap = decode(bytes);
        assert!(
            snap.encode().unwrap().encode() == *bytes,
            "snapshot of iteration {iter} differs from its canonical re-encoding"
        );
        let got = (snap.best().latency_ms.to_bits(), snap.best().drop.to_bits());
        assert_eq!(
            got,
            best_implied_by(&snap.trace, result.original_latency_ms),
            "best model of the snapshot of iteration {iter}"
        );
        if previous_best.is_some_and(|b| b != got) {
            improvements_after_first_snapshot += 1;
        }
        previous_best = Some(got);
    }
    assert!(
        improvements_after_first_snapshot >= 2,
        "the best model changed {improvements_after_first_snapshot} times after \
         the first snapshot: the scenario cannot catch a stale cache"
    );
    let last = decode(&files.last().unwrap().1);
    assert_eq!(
        last.best().latency_ms.to_bits(),
        result.best.latency_ms.to_bits()
    );
}

/// CRC-32 of a snapshot file re-encoded with its wall-clock fields (the
/// wall offset and every trace record's `wall_seconds`) set to 0, the
/// only bytes that differ between two runs of the same search.
fn pinned_crc(bytes: &[u8]) -> u32 {
    let mut snap = decode(bytes);
    snap.state.wall_offset = 0.0;
    for t in &mut snap.trace {
        t.wall_seconds = 0.0;
    }
    crc32(&snap.encode().unwrap().encode())
}

/// [`pinned_crc`] of the one-candidate-per-round search's snapshots after
/// iterations 1, 40 and 80.
const SNAPSHOT_CRCS_K1: [(usize, u32); 3] =
    [(1, 0x29ec_6760), (40, 0xcb1d_bed8), (80, 0xc90c_fa5f)];
/// [`pinned_crc`] of the last snapshot of the same search in rounds of 4.
const LAST_SNAPSHOT_CRC_K4: u32 = 0x3a8a_1b81;

/// The snapshot bytes themselves are pinned: with the file check above
/// (file bytes = re-encoding), a change to what the driver saves or how
/// it encodes it fails here with the new values printed.
#[test]
fn snapshot_bytes_match_golden_hashes() {
    let (_, files) = checkpointed_search("pin-k1", 1);
    let got = SNAPSHOT_CRCS_K1.map(|(iter, _)| {
        let (at, bytes) = &files[iter - 1];
        assert_eq!(*at, iter);
        (iter, pinned_crc(bytes))
    });
    let (_, files) = checkpointed_search("pin-k4", 4);
    let (at, bytes) = files.last().unwrap();
    assert_eq!(*at, 80);
    let got_k4 = pinned_crc(bytes);
    assert_eq!(
        (got, got_k4),
        (SNAPSHOT_CRCS_K1, LAST_SNAPSHOT_CRC_K4),
        "snapshot bytes changed: {got:x?}, {got_k4:#x}"
    );
}
