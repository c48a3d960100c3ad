//! Crash-safe checkpoint/resume for the search loop.
//!
//! The search loop's full state — RNG stream, SA policy temperature state,
//! elite list and dedup set, capacity-rule failures, virtual clock, best
//! model, outcome counters, and the per-iteration trace — is snapshotted
//! into a [`gmorph_tensor::checkpoint`] envelope after every round and
//! written to disk when a round holds a multiple of `every` (and on
//! drop/panic unwind) by the [`CheckpointManager`]. Resuming from the newest valid snapshot replays
//! the remainder of the run *bit-exactly*: the resumed `SearchResult`
//! (everything except wall-clock seconds) and fused model bytes equal the
//! uninterrupted run's. Corrupt snapshots (truncation, bit flips, version
//! skew, leftover `.tmp` staging files) are skipped with a
//! `checkpoint.corrupt` telemetry event, falling back to the next-newest
//! valid snapshot or a clean start — never a panic.
//!
//! The search loop runs on the type it saves: the driver's state is a
//! [`SearchSnapshot`], so a checkpoint encodes it in place, with no copy
//! and no second shape of the same state. Each round's snapshot costs
//! what changed since the last one. The dedup set and the quarantine list
//! hold 128-bit signature digests, 16 bytes each on disk. Models are
//! stored as model records, the encoding of model files
//! ([`encode_model_bytes`]). An elite never changes once admitted, so
//! its record is encoded the first time a snapshot holds it, cached on
//! the [`Elite`], and copied into every later snapshot; the snapshot
//! caches its `best` section the same way until the best model changes.
//! The bytes equal a from-scratch encoding (`tests/snapshot_encoding.rs`).
//!
//! Schema v2 snapshots, written before digests, still decode: their
//! signature strings are digested on load and their models, state dicts
//! with one `f32` per exact-header byte, are read by a v2-only reader, so
//! they resume bit-identically (DESIGN.md §12).

use crate::driver::{BestModel, CandidateStatus, SearchConfig, TraceRecord};
use crate::history::{Elite, History};
use crate::policy::MAX_ELITES;
use gmorph_graph::absgraph::signature_digest;
use gmorph_graph::persist::{
    decode_graph_exact, decode_model_bytes, encode_graph_exact, encode_model_bytes,
    weights_from_entries,
};
use gmorph_graph::{AbsGraph, CapacityVector, WeightStore};
use gmorph_perf::filter::CapacityRuleFilter;
use gmorph_tensor::checkpoint::{
    fnv1a, is_corruption, load, snapshot_files, ByteReader, ByteWriter, Envelope, FNV_OFFSET,
};
use gmorph_tensor::rng::{get_rng, put_rng, Rng};
use gmorph_tensor::serialize::read_state_dict;
use gmorph_tensor::{Result, TensorError};
use std::collections::HashSet;
use std::path::Path;
use std::sync::OnceLock;

pub use gmorph_tensor::checkpoint::{CheckpointManager, CheckpointOptions, CrashKind};

/// Payload kind of search snapshots.
pub const SEARCH_KIND: &str = "search";
/// Schema version of the search snapshot payload. v2 added quarantine
/// entries to the filter section and failed/quarantined outcome counters.
/// v3 stores signature digests (16 bytes each) instead of signature text
/// and model records ([`encode_model_bytes`]) instead of state dicts with
/// one `f32` per header byte.
/// v2 snapshots still decode.
pub const SEARCH_SCHEMA: u32 = 3;
/// The older schema [`SearchSnapshot::decode`] still reads.
const SEARCH_SCHEMA_V2: u32 = 2;

/// Fingerprints a search configuration plus its input graphs.
///
/// A snapshot resumes only under the exact config and inputs it was
/// written for; anything else would silently diverge from the
/// uninterrupted run the resume claims to continue.
pub fn config_fingerprint(cfg: &SearchConfig, mini: &AbsGraph, paper: &AbsGraph) -> u64 {
    struct Fnv64(u64);
    impl std::fmt::Write for Fnv64 {
        fn write_str(&mut self, s: &str) -> std::fmt::Result {
            self.0 = fnv1a(s.as_bytes(), self.0);
            Ok(())
        }
    }
    let mut h = Fnv64(FNV_OFFSET);
    write_config_text(&mut h, cfg).expect("hashing cannot fail");
    mini.write_signature(&mut h).expect("hashing cannot fail");
    paper.write_signature(&mut h).expect("hashing cannot fail");
    h.0
}

/// Writes the config text that [`config_fingerprint`] hashes.
///
/// The text must equal, byte for byte, the derived `Debug` text that
/// snapshots were fingerprinted with, or no such snapshot resumes. That
/// text also named fields since removed, which only ever held the values
/// written here as literals: `task_weights`, the health
/// `divergence_threshold` and `policy`, `virtual_samples`, and the
/// supervisor's `virtual_deadline_hours`, `lr_backoff` and
/// `pool_byte_budget`. The supervisor's `candidate_deadline_ms` slot
/// repeats `wall_deadline_ms`: the lowering set both fields to the one
/// deadline. Each remaining value is written with `{:?}`, as
/// the derive did, so renaming a variant of `Objective`, `PolicyKind`,
/// `PairPolicy` or `FaultKind`, or a field of `FaultSpec`, also orphans
/// every snapshot.
fn write_config_text(w: &mut impl std::fmt::Write, cfg: &SearchConfig) -> std::fmt::Result {
    let f = &cfg.finetune;
    let s = &cfg.supervisor;
    write!(
        w,
        "SearchConfig {{ iterations: {:?}, objective: {:?}, policy: {:?}, \
         max_ops_per_pass: {:?}, sa_alpha: {:?}, pair_policy: {:?}, rule_filter: {:?}, ",
        cfg.iterations,
        cfg.objective,
        cfg.policy,
        cfg.max_ops_per_pass,
        cfg.sa_alpha,
        cfg.pair_policy,
        cfg.rule_filter,
    )?;
    write!(
        w,
        "finetune: FinetuneConfig {{ max_epochs: {:?}, batch: {:?}, lr: {:?}, \
         eval_every: {:?}, target_drop: {:?}, task_weights: [], early_termination: {:?}, \
         seed: {:?}, health: HealthConfig {{ grad_clip: {:?}, \
         divergence_threshold: 1000000.0, policy: HaltCandidate }}, \
         wall_deadline_ms: {:?}, inject: {:?} }}, ",
        f.max_epochs,
        f.batch,
        f.lr,
        f.eval_every,
        f.target_drop,
        f.early_termination,
        f.seed,
        f.health.grad_clip,
        f.wall_deadline_ms,
        f.inject,
    )?;
    write!(
        w,
        "virtual_samples: 20000, virtual_throughput: {:?}, seed: {:?}, \
         supervisor: SupervisorConfig {{ max_retries: {:?}, candidate_deadline_ms: {:?}, \
         virtual_deadline_hours: None, lr_backoff: 0.5, pool_byte_budget: None, \
         fault: {:?} }} }}",
        cfg.virtual_throughput, cfg.seed, s.max_retries, f.wall_deadline_ms, s.fault,
    )
}

// ---------------------------------------------------------------------
// Field-level codecs
// ---------------------------------------------------------------------

fn put_capacity(w: &mut ByteWriter, cv: &CapacityVector) {
    w.put_u64(cv.total as u64);
    w.put_u32(cv.per_task_total.len() as u32);
    for &v in &cv.per_task_total {
        w.put_u64(v as u64);
    }
    w.put_u32(cv.per_task_specific.len() as u32);
    for &v in &cv.per_task_specific {
        w.put_u64(v as u64);
    }
    w.put_u64(cv.shared as u64);
}

fn get_capacity(r: &mut ByteReader) -> Result<CapacityVector> {
    let total = r.get_u64()? as usize;
    let n = r.get_u32()? as usize;
    let mut per_task_total = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        per_task_total.push(r.get_u64()? as usize);
    }
    let m = r.get_u32()? as usize;
    let mut per_task_specific = Vec::with_capacity(m.min(1024));
    for _ in 0..m {
        per_task_specific.push(r.get_u64()? as usize);
    }
    let shared = r.get_u64()? as usize;
    Ok(CapacityVector {
        total,
        per_task_total,
        per_task_specific,
        shared,
    })
}

fn put_scores(w: &mut ByteWriter, scores: &[f32]) {
    w.put_u32(scores.len() as u32);
    for &s in scores {
        w.put_f32(s);
    }
}

fn get_scores(r: &mut ByteReader) -> Result<Vec<f32>> {
    let n = r.get_u32()? as usize;
    let mut out = Vec::with_capacity(n.min(4096));
    for _ in 0..n {
        out.push(r.get_f32()?);
    }
    Ok(out)
}

/// The payload schema a section is decoded at: v2 stored signatures as
/// text and models as state dicts, v3 digests and model records.
#[derive(Debug, Clone, Copy)]
enum Schema {
    V2,
    V3,
}

fn get_model(r: &mut ByteReader, schema: Schema) -> Result<(AbsGraph, WeightStore)> {
    let bytes = r.get_bytes()?;
    match schema {
        Schema::V2 => decode_v2_model(&bytes),
        Schema::V3 => decode_model_bytes(&bytes),
    }
}

/// Reads a schema-v2 model: a state dict whose `__graph` entry holds the
/// exact graph header, one `f32` per byte, beside the weight entries.
fn decode_v2_model(bytes: &[u8]) -> Result<(AbsGraph, WeightStore)> {
    let entries = read_state_dict(&mut ByteReader::new(bytes))?;
    let (_, header) = entries
        .iter()
        .find(|(name, _)| name == "__graph")
        .ok_or_else(|| TensorError::Io("persist: missing __graph entry".into()))?;
    let header: Vec<u8> = header.data().iter().map(|&b| b as u8).collect();
    let header = std::str::from_utf8(&header)
        .map_err(|e| TensorError::Io(format!("persist: graph header not utf8: {e}")))?;
    let graph = decode_graph_exact(header)?;
    let weights = weights_from_entries(&graph, &entries)?;
    Ok((graph, weights))
}

/// Reads one signature digest; v2 stored the signature text.
fn get_digest(r: &mut ByteReader, schema: Schema) -> Result<u128> {
    match schema {
        Schema::V2 => Ok(signature_digest(&r.get_str()?)),
        Schema::V3 => r.get_u128(),
    }
}

/// The bytes in `cache`, filled by `encode` the first time.
fn cached(cache: &OnceLock<Vec<u8>>, encode: impl FnOnce() -> Result<Vec<u8>>) -> Result<&[u8]> {
    if let Some(bytes) = cache.get() {
        return Ok(bytes);
    }
    let fresh = encode()?;
    Ok(cache.get_or_init(|| fresh))
}

/// Appends an elite's record, encoding it only the first time: an elite
/// never changes, so later snapshots copy the cached bytes.
fn put_elite(w: &mut ByteWriter, e: &Elite) -> Result<()> {
    let record = cached(&e.record, || {
        let mut r = ByteWriter::new();
        r.put_bytes(&encode_model_bytes(&e.mini, &e.weights)?);
        r.put_str(&encode_graph_exact(&e.paper));
        r.put_f32(e.drop);
        r.put_f64(e.latency_ms);
        put_scores(&mut r, &e.scores);
        Ok(r.into_bytes())
    })?;
    w.put_raw(record);
    Ok(())
}

fn get_elite(r: &mut ByteReader, schema: Schema) -> Result<Elite> {
    let (mini, weights) = get_model(r, schema)?;
    let paper = decode_graph_exact(&r.get_str()?)?;
    let drop = r.get_f32()?;
    let latency_ms = r.get_f64()?;
    let scores = get_scores(r)?;
    Ok(Elite::new(mini, paper, weights, drop, latency_ms, scores))
}

/// The `best` section.
fn encode_best(best: &BestModel) -> Result<Vec<u8>> {
    let mut w = ByteWriter::new();
    w.put_bytes(&encode_model_bytes(&best.mini, &best.weights)?);
    w.put_str(&encode_graph_exact(&best.paper));
    w.put_f64(best.latency_ms);
    w.put_f32(best.drop);
    put_scores(&mut w, &best.scores);
    Ok(w.into_bytes())
}

fn get_best(r: &mut ByteReader, schema: Schema) -> Result<BestModel> {
    let (mini, weights) = get_model(r, schema)?;
    let paper = decode_graph_exact(&r.get_str()?)?;
    let latency_ms = r.get_f64()?;
    let drop = r.get_f32()?;
    let scores = get_scores(r)?;
    Ok(BestModel {
        mini,
        paper,
        weights,
        latency_ms,
        drop,
        scores,
    })
}

fn put_trace(w: &mut ByteWriter, trace: &[TraceRecord]) {
    w.put_u64(trace.len() as u64);
    for t in trace {
        w.put_u64(t.iter as u64);
        w.put_str(t.status.as_str());
        w.put_u8(t.from_elite as u8);
        w.put_f32(t.drop);
        w.put_u8(t.met_target as u8);
        w.put_f64(t.candidate_latency_ms);
        w.put_f64(t.best_latency_ms);
        w.put_u64(t.epochs as u64);
        w.put_f64(t.virtual_hours);
        w.put_f64(t.wall_seconds);
    }
}

fn get_trace(r: &mut ByteReader) -> Result<Vec<TraceRecord>> {
    let n = r.get_len(1 << 24)?;
    let mut out = Vec::with_capacity(n.min(1 << 16));
    for _ in 0..n {
        let iter = r.get_u64()? as usize;
        let status_str = r.get_str()?;
        let status = CandidateStatus::parse(&status_str).ok_or_else(|| {
            TensorError::Io(format!("checkpoint corrupt: unknown status {status_str:?}"))
        })?;
        out.push(TraceRecord {
            iter,
            status,
            from_elite: r.get_u8()? != 0,
            drop: r.get_f32()?,
            met_target: r.get_u8()? != 0,
            candidate_latency_ms: r.get_f64()?,
            best_latency_ms: r.get_f64()?,
            epochs: r.get_u64()? as usize,
            virtual_hours: r.get_f64()?,
            wall_seconds: r.get_f64()?,
        });
    }
    Ok(out)
}

// ---------------------------------------------------------------------
// Snapshots
// ---------------------------------------------------------------------

/// The loop state a snapshot holds: everything the next round's decisions
/// depend on.
#[derive(Debug, Clone)]
pub struct LoopState {
    /// Config + input-graph fingerprint the snapshot is valid for.
    pub fingerprint: u64,
    /// First iteration the resumed run should execute.
    pub next_iter: usize,
    /// The search RNG.
    pub rng: Rng,
    /// Latest evaluated candidate's accuracy drop `Δ`, in `[0, 1]`: the SA
    /// policy's input.
    pub last_drop: f32,
    /// Virtual clock's accumulated seconds, copied from the clock before
    /// each encode.
    pub clock_seconds: f64,
    /// Wall-clock seconds spent before this snapshot (resume adds its own
    /// elapsed time on top; never part of bit-identity comparisons).
    pub wall_offset: f64,
    /// Capacity-rule failures and quarantined evaluation failures.
    pub filter: CapacityRuleFilter,
    /// Evaluated-candidate digests and the elite list.
    pub history: History,
}

/// Complete state of a [`crate::driver::run_search`] run: the search loop
/// runs on it, and a checkpoint is its encoding.
#[derive(Debug, Clone)]
pub struct SearchSnapshot {
    /// Shared loop state.
    pub state: LoopState,
    /// Best satisfying model so far; assigned only through
    /// [`SearchSnapshot::set_best`], which drops `best_record` with it.
    pub(crate) best: BestModel,
    /// The encoded `best` section, filled by the first encode after the
    /// best model changed. Decoded snapshots start without it.
    best_record: OnceLock<Vec<u8>>,
    /// Candidates fine-tuned so far.
    pub evaluated_count: usize,
    /// Candidates skipped by rule-based filtering so far.
    pub rule_filtered: usize,
    /// Candidates terminated early so far.
    pub early_terminated: usize,
    /// Duplicates skipped so far.
    pub duplicates: usize,
    /// Candidates that failed every permitted attempt so far.
    pub failed: usize,
    /// Candidates skipped by quarantine so far.
    pub quarantined_count: usize,
    /// Per-iteration trace so far.
    pub trace: Vec<TraceRecord>,
}

impl SearchSnapshot {
    /// The state of a search before its first iteration, with `best` the
    /// original model.
    pub(crate) fn start(fingerprint: u64, rng: Rng, best: BestModel) -> SearchSnapshot {
        SearchSnapshot {
            state: LoopState {
                fingerprint,
                next_iter: 1,
                rng,
                last_drop: 0.0,
                clock_seconds: 0.0,
                wall_offset: 0.0,
                filter: CapacityRuleFilter::new(),
                history: History::new(MAX_ELITES),
            },
            best,
            best_record: OnceLock::new(),
            evaluated_count: 0,
            rule_filtered: 0,
            early_terminated: 0,
            duplicates: 0,
            failed: 0,
            quarantined_count: 0,
            trace: Vec::new(),
        }
    }

    /// Best satisfying model so far.
    pub fn best(&self) -> &BestModel {
        &self.best
    }

    /// Replaces the best model and drops its cached record.
    pub(crate) fn set_best(&mut self, best: BestModel) {
        self.best = best;
        self.best_record = OnceLock::new();
    }

    /// Serializes the snapshot into an envelope. Elite records and the
    /// `best` section are copied from their caches when filled.
    pub fn encode(&self) -> Result<Envelope> {
        let mut env = Envelope::new(SEARCH_KIND, SEARCH_SCHEMA);
        let state = &self.state;
        let mut w = ByteWriter::new();
        w.put_u64(state.fingerprint);
        w.put_u64(state.next_iter as u64);
        w.put_f32(state.last_drop);
        w.put_f64(state.clock_seconds);
        w.put_f64(state.wall_offset);
        env.push("loop", w.into_bytes());

        let mut w = ByteWriter::new();
        put_rng(&mut w, &state.rng);
        env.push("rng", w.into_bytes());

        let mut w = ByteWriter::new();
        let failures = state.filter.failures();
        w.put_u32(failures.len() as u32);
        for f in failures {
            put_capacity(&mut w, f);
        }
        let quarantined = state.filter.quarantined();
        w.put_u32(quarantined.len() as u32);
        for (digest, cv) in quarantined {
            w.put_u128(*digest);
            put_capacity(&mut w, cv);
        }
        env.push("filter", w.into_bytes());

        let mut w = ByteWriter::new();
        let evaluated = state.history.evaluated_digests();
        w.put_u64(evaluated.len() as u64);
        for digest in evaluated {
            w.put_u128(digest);
        }
        let elites = state.history.elites();
        w.put_u32(elites.len() as u32);
        for e in elites {
            put_elite(&mut w, e)?;
        }
        env.push("history", w.into_bytes());

        let best = cached(&self.best_record, || encode_best(&self.best))?;
        env.push("best", best.to_vec());

        let mut w = ByteWriter::new();
        w.put_u64(self.evaluated_count as u64);
        w.put_u64(self.rule_filtered as u64);
        w.put_u64(self.early_terminated as u64);
        w.put_u64(self.duplicates as u64);
        w.put_u64(self.failed as u64);
        w.put_u64(self.quarantined_count as u64);
        env.push("counters", w.into_bytes());

        let mut w = ByteWriter::new();
        put_trace(&mut w, &self.trace);
        env.push("trace", w.into_bytes());
        Ok(env)
    }

    /// Restores a snapshot from an envelope, checking the schema version.
    /// Schema v2 snapshots decode too: their signatures are digested on
    /// load and their models go through the v2 model reader.
    pub fn decode(env: &Envelope) -> Result<SearchSnapshot> {
        let schema = match env.schema {
            SEARCH_SCHEMA => Schema::V3,
            SEARCH_SCHEMA_V2 => Schema::V2,
            other => {
                return Err(TensorError::Io(format!(
                    "checkpoint corrupt: search schema v{other} unsupported \
                     (expected v{SEARCH_SCHEMA_V2} or v{SEARCH_SCHEMA})"
                )))
            }
        };
        let mut r = ByteReader::new(env.section("loop")?);
        let fingerprint = r.get_u64()?;
        let next_iter = r.get_u64()? as usize;
        let last_drop = r.get_f32()?;
        let clock_seconds = r.get_f64()?;
        let wall_offset = r.get_f64()?;

        let rng = get_rng(&mut ByteReader::new(env.section("rng")?))?;

        let mut r = ByteReader::new(env.section("filter")?);
        let nf = r.get_u32()? as usize;
        let mut failures = Vec::with_capacity(nf.min(4096));
        for _ in 0..nf {
            failures.push(get_capacity(&mut r)?);
        }
        let nq = r.get_u32()? as usize;
        let mut quarantined = Vec::with_capacity(nq.min(4096));
        for _ in 0..nq {
            let digest = get_digest(&mut r, schema)?;
            quarantined.push((digest, get_capacity(&mut r)?));
        }

        let mut r = ByteReader::new(env.section("history")?);
        let ns = match schema {
            Schema::V2 => r.get_len(1 << 24)?,
            Schema::V3 => r.get_count(16)?,
        };
        let mut evaluated = HashSet::with_capacity(ns.min(1 << 16));
        for _ in 0..ns {
            evaluated.insert(get_digest(&mut r, schema)?);
        }
        let ne = r.get_u32()? as usize;
        let mut elites = Vec::with_capacity(ne.min(1024));
        for _ in 0..ne {
            elites.push(get_elite(&mut r, schema)?);
        }

        let best = get_best(&mut ByteReader::new(env.section("best")?), schema)?;

        let mut r = ByteReader::new(env.section("counters")?);
        let evaluated_count = r.get_u64()? as usize;
        let rule_filtered = r.get_u64()? as usize;
        let early_terminated = r.get_u64()? as usize;
        let duplicates = r.get_u64()? as usize;
        let failed = r.get_u64()? as usize;
        let quarantined_count = r.get_u64()? as usize;

        let trace = get_trace(&mut ByteReader::new(env.section("trace")?))?;

        Ok(SearchSnapshot {
            state: LoopState {
                fingerprint,
                next_iter,
                rng,
                last_drop,
                clock_seconds,
                wall_offset,
                filter: CapacityRuleFilter::from_parts(failures, quarantined),
                history: History {
                    evaluated,
                    elites,
                    max_elites: MAX_ELITES,
                },
            },
            best,
            best_record: OnceLock::new(),
            evaluated_count,
            rule_filtered,
            early_terminated,
            duplicates,
            failed,
            quarantined_count,
            trace,
        })
    }
}

// ---------------------------------------------------------------------
// Loading with corruption fallback
// ---------------------------------------------------------------------

/// Loads the newest valid [`SearchSnapshot`] whose fingerprint matches.
///
/// A snapshot of the right kind whose schema or fingerprint mismatches is
/// treated like corruption: logged, skipped, and the next-newest tried.
pub fn load_latest_search(dir: &Path, fingerprint: u64) -> Result<Option<SearchSnapshot>> {
    for (iter, path) in snapshot_files(dir, SEARCH_KIND) {
        let snap = load(&path, SEARCH_KIND).and_then(|env| SearchSnapshot::decode(&env));
        match snap {
            Ok(snap) if snap.state.fingerprint == fingerprint => {
                gmorph_telemetry::counter!("checkpoint.load");
                gmorph_telemetry::point!(
                    "checkpoint.loaded",
                    iter = iter,
                    path = path.display().to_string().as_str()
                );
                return Ok(Some(snap));
            }
            Ok(snap) => {
                gmorph_telemetry::counter!("checkpoint.fingerprint_mismatch");
                gmorph_telemetry::point!(
                    "checkpoint.rejected",
                    iter = iter,
                    path = path.display().to_string().as_str(),
                    corruption = false,
                    error = format!(
                        "config fingerprint {:#018x} does not match this run's {fingerprint:#018x}",
                        snap.state.fingerprint
                    )
                    .as_str()
                );
            }
            Err(err) => {
                gmorph_telemetry::counter!("checkpoint.corrupt");
                gmorph_telemetry::point!(
                    "checkpoint.rejected",
                    iter = iter,
                    path = path.display().to_string().as_str(),
                    corruption = is_corruption(&err),
                    error = err.to_string().as_str()
                );
            }
        }
    }
    Ok(None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::history::History;
    use gmorph_graph::WeightStore;
    use gmorph_tensor::rng::Rng;
    use std::path::PathBuf;

    fn tmp_dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("gmorph-ckpt-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    fn sample_snapshot() -> SearchSnapshot {
        let task = gmorph_data::TaskSpec::classification("t", 2);
        let spec = gmorph_models::families::vgg(
            gmorph_models::families::VggDepth::Vgg11,
            gmorph_models::families::VisionScale::mini(),
            &task,
        )
        .unwrap();
        let g = gmorph_graph::parser::parse_specs(&[spec]).unwrap();
        let mut store = WeightStore::new();
        for (_, n) in g.iter() {
            store.insert(n.key(), n.spec.clone(), Vec::new());
        }
        let mut rng = Rng::new(7);
        rng.normal();
        let best = BestModel {
            mini: g.clone(),
            paper: g.clone(),
            weights: store.clone(),
            latency_ms: 4.2,
            drop: 0.0,
            scores: vec![0.92],
        };
        let mut snap = SearchSnapshot::start(0xABCD, rng, best);
        let state = &mut snap.state;
        state.next_iter = 5;
        state.last_drop = 0.013;
        state.clock_seconds = 123.456;
        state.wall_offset = 1.5;
        state.filter = CapacityRuleFilter::from_parts(
            vec![CapacityVector {
                total: 10,
                per_task_total: vec![6, 7],
                per_task_specific: vec![4, 5],
                shared: 2,
            }],
            vec![(
                0x5169,
                CapacityVector {
                    total: 8,
                    per_task_total: vec![5, 6],
                    per_task_specific: vec![3, 4],
                    shared: 2,
                },
            )],
        );
        state.history.record_evaluated(0xA);
        state.history.record_evaluated(0xB);
        state
            .history
            .add_elite(Elite::new(g.clone(), g, store, 0.01, 3.5, vec![0.9]));
        snap.evaluated_count = 3;
        snap.rule_filtered = 1;
        snap.duplicates = 2;
        snap.failed = 1;
        snap.quarantined_count = 1;
        snap.trace.push(TraceRecord {
            iter: 1,
            status: CandidateStatus::Evaluated,
            from_elite: false,
            drop: 0.02,
            met_target: true,
            candidate_latency_ms: 5.0,
            best_latency_ms: 4.2,
            epochs: 6,
            virtual_hours: 0.25,
            wall_seconds: 0.5,
        });
        snap
    }

    #[test]
    fn search_snapshot_roundtrips() {
        let snap = sample_snapshot();
        let env = snap.encode().unwrap();
        let back = SearchSnapshot::decode(&env).unwrap();
        assert_eq!(back.state.fingerprint, snap.state.fingerprint);
        assert_eq!(back.state.next_iter, snap.state.next_iter);
        assert_eq!(back.state.rng, snap.state.rng);
        assert_eq!(
            back.state.last_drop.to_bits(),
            snap.state.last_drop.to_bits()
        );
        assert_eq!(
            back.state.clock_seconds.to_bits(),
            snap.state.clock_seconds.to_bits()
        );
        assert_eq!(back.state.filter.failures(), snap.state.filter.failures());
        assert_eq!(
            back.state.filter.quarantined(),
            snap.state.filter.quarantined()
        );
        assert_eq!(back.state.history.evaluated, snap.state.history.evaluated);
        assert_eq!(back.state.history.elite_count(), 1);
        assert_eq!(
            back.state.history.elites()[0].mini.signature(),
            snap.state.history.elites()[0].mini.signature()
        );
        assert_eq!(
            back.best.latency_ms.to_bits(),
            snap.best.latency_ms.to_bits()
        );
        assert_eq!(back.duplicates, 2);
        assert_eq!(back.failed, 1);
        assert_eq!(back.quarantined_count, 1);
        assert_eq!(back.trace.len(), 1);
        assert_eq!(back.trace[0].status, CandidateStatus::Evaluated);
    }

    #[test]
    fn an_elite_replacing_an_evicted_one_encodes_its_own_record() {
        let mut snap = sample_snapshot();
        let base = snap.state.history.elites()[0].clone();
        let elite = |latency: f64, score: f32| {
            Elite::new(
                base.mini.clone(),
                base.paper.clone(),
                base.weights.clone(),
                0.01,
                latency,
                vec![score],
            )
        };
        let history = &mut snap.state.history;
        *history = History::new(2);
        history.add_elite(elite(5.0, 0.5));
        history.add_elite(elite(3.0, 0.3));
        // Caches both records.
        snap.encode().unwrap();
        // Evicts the 5.0 elite in place.
        snap.state.history.add_elite(elite(1.0, 0.1));
        let env = snap.encode().unwrap();
        let back = SearchSnapshot::decode(&env).unwrap();
        let got: Vec<(f64, f32)> = back
            .state
            .history
            .elites()
            .iter()
            .map(|e| (e.latency_ms, e.scores[0]))
            .collect();
        assert_eq!(got, vec![(1.0, 0.1), (3.0, 0.3)]);
        // The decoded elites carry no cache: their encoding is canonical.
        assert_eq!(back.encode().unwrap(), env);
    }

    #[test]
    fn fingerprints_match_those_of_snapshots_written_before_the_budget_removal() {
        // Values computed by the build that still had
        // `SupervisorConfig::pool_byte_budget`: its snapshots must resume.
        let g = sample_snapshot().best.mini;
        let mut cfg = SearchConfig::default();
        assert_eq!(config_fingerprint(&cfg, &g, &g), 0x8eb4_b2db_072d_1921);
        cfg.supervisor.fault = Some(gmorph_tensor::FaultSpec {
            kind: gmorph_tensor::FaultKind::PanicEval,
            at_iter: 3,
        });
        assert_eq!(config_fingerprint(&cfg, &g, &g), 0xb1f2_14e6_f904_6b5f);
        // Computed by the build that still had six config fields that only
        // their defaults set.
        let cfg = SearchConfig {
            finetune: gmorph_perf::FinetuneConfig {
                inject: Some(gmorph_tensor::FaultKind::GradExplode),
                ..Default::default()
            },
            ..SearchConfig::default()
        };
        assert_eq!(config_fingerprint(&cfg, &g, &g), 0xebfe_a664_12f8_d567);
    }

    #[test]
    fn a_digest_count_beyond_the_history_section_is_rejected() {
        let base = sample_snapshot().encode().unwrap();
        let with_history = |count: u64| {
            let mut w = ByteWriter::new();
            w.put_u64(count);
            w.put_u128(1);
            w.put_u128(2);
            w.put_u32(0); // No elites.
            let mut env = base.clone();
            let slot = env
                .sections
                .iter_mut()
                .find(|(n, _)| n == "history")
                .unwrap();
            slot.1 = w.into_bytes();
            SearchSnapshot::decode(&env)
        };
        let evaluated = with_history(2).unwrap().state.history.evaluated_digests();
        assert_eq!(evaluated, vec![1, 2]);
        // 36 bytes follow the count: room for two digests, not three.
        for count in [3, u64::MAX] {
            let err = with_history(count).unwrap_err();
            assert!(
                is_corruption(&err) && err.to_string().contains("exceeds"),
                "{err}"
            );
        }
    }

    #[test]
    fn schema_skew_is_rejected() {
        let snap = sample_snapshot();
        let mut env = snap.encode().unwrap();
        env.schema = SEARCH_SCHEMA + 1;
        assert!(SearchSnapshot::decode(&env).is_err());
    }

    #[test]
    fn manager_writes_on_schedule_and_rotates() {
        let dir = tmp_dir("mgr");
        let mut opts = CheckpointOptions::new(&dir);
        opts.every = 2;
        opts.keep = 2;
        let mut mgr = CheckpointManager::new(&opts, SEARCH_KIND);
        for iter in 1..=6 {
            let mut snap = sample_snapshot();
            snap.state.next_iter = iter + 1;
            mgr.tick(iter..=iter, snap.encode().unwrap()).unwrap();
        }
        // Writes at 2, 4, 6; rotation keeps the newest 2.
        let found = snapshot_files(&dir, SEARCH_KIND);
        let iters: Vec<usize> = found.iter().map(|(i, _)| *i).collect();
        assert_eq!(iters, vec![6, 4]);
        let latest = load_latest_search(&dir, 0xABCD).unwrap().unwrap();
        assert_eq!(latest.state.next_iter, 7);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn drop_flushes_pending() {
        let dir = tmp_dir("dropflush");
        let mut opts = CheckpointOptions::new(&dir);
        opts.every = 100; // Never hits the schedule.
        {
            let mut mgr = CheckpointManager::new(&opts, SEARCH_KIND);
            mgr.tick(3..=3, sample_snapshot().encode().unwrap())
                .unwrap();
        } // Drop writes iteration 3.
        assert_eq!(snapshot_files(&dir, SEARCH_KIND).len(), 1);
        assert!(load_latest_search(&dir, 0xABCD).unwrap().is_some());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_newest_falls_back_to_older() {
        let dir = tmp_dir("fallback");
        let opts = CheckpointOptions::new(&dir);
        let mut mgr = CheckpointManager::new(&opts, SEARCH_KIND);
        let mut a = sample_snapshot();
        a.state.next_iter = 2;
        mgr.tick(1..=1, a.encode().unwrap()).unwrap();
        let mut b = sample_snapshot();
        b.state.next_iter = 3;
        mgr.tick(2..=2, b.encode().unwrap()).unwrap();
        // Corrupt the newest in place.
        let newest = dir.join(format!("{SEARCH_KIND}-000002.gmck"));
        let mut bytes = std::fs::read(&newest).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&newest, bytes).unwrap();
        let got = load_latest_search(&dir, 0xABCD).unwrap().unwrap();
        assert_eq!(got.state.next_iter, 2, "fell back to the older snapshot");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fingerprint_mismatch_is_skipped() {
        let dir = tmp_dir("fpr");
        let opts = CheckpointOptions::new(&dir);
        let mut mgr = CheckpointManager::new(&opts, SEARCH_KIND);
        mgr.tick(1..=1, sample_snapshot().encode().unwrap())
            .unwrap();
        assert!(load_latest_search(&dir, 0xDEAD).unwrap().is_none());
        assert!(load_latest_search(&dir, 0xABCD).unwrap().is_some());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn crash_env_parsing() {
        // No env poking from tests (parallel test runners share the
        // process env); exercise the parser via a direct call path by
        // checking maybe_crash is a no-op when unset.
        let opts = CheckpointOptions::new(std::env::temp_dir());
        opts.maybe_crash(5..=5); // No crash configured: must return.
        let mut with = opts.clone();
        with.crash_after = Some((3, CrashKind::Panic));
        with.maybe_crash(2..=2); // Wrong iteration: must return.
        let err = std::panic::catch_unwind(|| with.maybe_crash(3..=3)).unwrap_err();
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("simulated crash"), "{msg}");
    }
}
