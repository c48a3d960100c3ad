//! The three workloads and the end-to-end metrics of an untraced run.
//!
//! Every workload has the same shape — set-up, a search phase, a serving
//! phase — so every end-to-end metric is measured on every workload. What
//! differs is where the time goes:
//!
//! - `search_real`: B1, real-mode searches dominate (fine-tuning).
//! - `serve`: B7, closed-loop serving of the original and the recipe-fused
//!   model dominates; its search phase is a short surrogate search.
//! - `search_ckpt`: B1, checkpointed 200-iteration surrogate searches, each
//!   resumed and replayed from its snapshots, dominate; no fine-tuning.

use crate::search::{self, SearchRun};
use crate::serve::{ServeStats, Server};
use crate::setup::{self, Setup};
use crate::spans::Tracer;
use crate::util::{self, ScratchDir};
use gmorph::perf::estimator::estimate_latency_ms;
use gmorph::prelude::*;
use gmorph::tensor::Result;
use std::time::Instant;

/// End-to-end metrics with their units, as `BENCHMARK.json` lists them.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("search_s", "s"),
    ("candidates_per_hour", "1/h"),
    ("best_speedup_est", "x"),
    ("fused_p10_ms_b1", "ms"),
    ("fused_p90_ms_b1", "ms"),
    ("fused_qps_b16", "1/s"),
    ("orig_p10_ms_b1", "ms"),
    ("orig_qps_b16", "1/s"),
    ("peak_rss_mb", "MiB"),
];

/// A workload of the benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Real-mode search on B1.
    SearchReal,
    /// Serving B7, original against recipe-fused.
    Serve,
    /// Checkpointed surrogate searches on B1, each resumed and replayed.
    SearchCkpt,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [Workload::SearchReal, Workload::Serve, Workload::SearchCkpt];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SearchReal => "search_real",
            Workload::Serve => "serve",
            Workload::SearchCkpt => "search_ckpt",
        }
    }

    /// Parses a command-line name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// The paper benchmark the workload runs.
    pub fn bench(self) -> BenchId {
        match self {
            Workload::Serve => BenchId::B7,
            _ => BenchId::B1,
        }
    }

    /// Share of the measured time spent searching.
    pub fn search_share(self, size: Size) -> f64 {
        match self {
            Workload::Serve => size.search_share / 20.0,
            _ => size.search_share,
        }
    }

    /// Seed of the generated dataset (and so of the teachers). Fixed on
    /// B1: the work of a search depends on the data (fine-tuning epochs,
    /// and through the teachers' scores the surrogate's trajectory), and a
    /// fixed amount of work keeps search times comparable across runs.
    /// The workload seed still picks the served requests and the order of
    /// the searches.
    pub fn data_seed(self, seed: u64) -> u64 {
        match self {
            Workload::Serve => seed,
            _ => B1_DATA_SEED,
        }
    }

    /// The fixed search seeds a run cycles through.
    pub fn search_seeds(self) -> &'static [u64] {
        match self {
            Workload::SearchReal => &[REAL_SEARCH_SEED],
            _ => &SURROGATE_SEARCH_SEEDS,
        }
    }

    /// Seed of the `i`-th search of a run: the fixed seeds in turn,
    /// starting at one the workload seed picks.
    pub fn search_seed(self, seed: u64, i: usize) -> u64 {
        let seeds = self.search_seeds();
        seeds[(seed as usize).wrapping_add(i) % seeds.len()]
    }
}

/// How much work a run does.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    /// Set-ups per run (the fastest is reported).
    pub setups: usize,
    /// Iterations of each real-mode search.
    pub real_iters: usize,
    /// Iterations of each surrogate search.
    pub surrogate_iters: usize,
    /// Share of `--seconds` given to searching on the search workloads
    /// (`serve` searches for a twentieth of that).
    pub search_share: f64,
}

impl Size {
    /// The measured size.
    pub const FULL: Size = Size {
        setups: 3,
        real_iters: 2,
        surrogate_iters: 200,
        search_share: 0.75,
    };

    /// A tiny size for the benchmark's own tests.
    pub const TINY: Size = Size {
        setups: 1,
        real_iters: 1,
        surrogate_iters: 8,
        search_share: 0.5,
    };
}

/// The fixed search seed of `search_real`.
pub const REAL_SEARCH_SEED: u64 = 1;
/// The fixed search seeds of the surrogate searches. The work of a
/// 200-iteration search depends on its seed, so every run searches with
/// the same seeds.
pub const SURROGATE_SEARCH_SEEDS: [u64; 4] = [11, 12, 13, 14];
/// The fixed data seed of the B1 workloads.
pub const B1_DATA_SEED: u64 = 1;

/// What a run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// `(name, value, unit)` in output order.
    pub metrics: Vec<(String, f64, String)>,
    /// Operations attempted.
    pub attempted: usize,
    /// Operations failed.
    pub failed: usize,
    /// Failed correctness checks, by description.
    pub check_failures: Vec<String>,
    /// Human-readable report lines.
    pub report: Vec<String>,
    /// Spans, as JSON lines, when traced.
    pub spans: Option<String>,
}

impl Outcome {
    /// Records a metric.
    pub fn put(&mut self, name: &str, value: f64, unit: &str) {
        self.metrics
            .push((name.to_string(), value, unit.to_string()));
    }

    /// Counts a search's iterations as operations and its failed and
    /// quarantined candidates and failed checks as failures.
    pub fn count_search(&mut self, run: &SearchRun) {
        self.attempted += run.result.trace.len() + run.checks;
        self.failed += run.result.failed + run.result.quarantined + run.failures.len();
        self.check_failures.extend(run.failures.iter().cloned());
    }

    /// Counts a serving phase's requests and parity checks.
    pub fn count_serve(&mut self, st: &ServeStats) {
        self.attempted += st.requests + st.parity_checks;
        self.failed += st.failed + st.parity_failed;
        if st.failed > 0 {
            self.check_failures
                .push(format!("{} requests failed their output check", st.failed));
        }
        if st.parity_failed > 0 {
            self.check_failures.push(format!(
                "{} compiled outputs differ from the uncompiled model",
                st.parity_failed
            ));
        }
    }
}

/// Set-up repeated `n` times, each against an empty teacher cache; returns
/// the last set-up and every set-up time in seconds.
pub fn setups(
    w: Workload,
    seed: u64,
    n: usize,
    scratch: &ScratchDir,
    tr: &Tracer,
) -> Result<(Setup, Vec<f64>)> {
    let mut times = Vec::new();
    let mut last = None;
    for i in 0..n.max(1) {
        let cache = scratch.sub(&format!("cache{i}"));
        let t0 = Instant::now();
        let s = tr.time("bench.setup", i as u64, || {
            setup::setup(w.bench(), w.data_seed(seed), &cache, tr)
        })?;
        times.push(t0.elapsed().as_secs_f64());
        last = Some(s);
    }
    Ok((last.expect("at least one set-up"), times))
}

/// The `i`-th search of a run, with its correctness checks.
pub fn search_unit(
    w: Workload,
    s: &Setup,
    seed: u64,
    size: Size,
    i: usize,
    scratch: &ScratchDir,
    tr: &Tracer,
) -> Result<SearchRun> {
    let bench = w.bench();
    let search_seed = w.search_seed(seed, i);
    Ok(match w {
        Workload::SearchReal => {
            let cfg = search::paper_config(bench, AccuracyMode::Real, size.real_iters, search_seed);
            let mut run = search::run(&s.session, &cfg, tr, i as u64)?;
            search::check_real(&s.session, &mut run);
            run
        }
        Workload::Serve => {
            let cfg = search::paper_config(
                bench,
                AccuracyMode::Surrogate,
                size.surrogate_iters,
                search_seed,
            );
            search::run(&s.session, &cfg, tr, i as u64)?
        }
        Workload::SearchCkpt => {
            let cfg = OptimizationConfig {
                checkpoint_dir: Some(scratch.sub(&format!("ckpt{i}"))),
                ..search::paper_config(
                    bench,
                    AccuracyMode::Surrogate,
                    size.surrogate_iters,
                    search_seed,
                )
            };
            let mut run = search::run(&s.session, &cfg, tr, i as u64)?;
            search::check_ckpt(&s.session, &cfg, &mut run, tr, i as u64)?;
            run
        }
    })
}

/// The measured phase: searches and serving rounds interleaved so that
/// the searches take about `search_share` of the time and both see the
/// same machine. A search starts only when it is expected to end within
/// `seconds`; one search per fixed search seed always runs, and serving
/// gets at least half its share.
pub fn measure(
    w: Workload,
    s: &mut Setup,
    seed: u64,
    seconds: f64,
    size: Size,
    scratch: &ScratchDir,
    tr: &Tracer,
) -> Result<(Vec<SearchRun>, ServeStats)> {
    let share = w.search_share(size);
    let must = w.search_seeds().len();
    let mut server = Server::new(s, seed)?;
    let mut runs: Vec<SearchRun> = Vec::new();
    let (mut t_search, mut t_serve) = (0.0f64, 0.0f64);
    let t0 = Instant::now();
    loop {
        let elapsed = t0.elapsed().as_secs_f64();
        let per_search = t_search / runs.len().max(1) as f64;
        if elapsed >= seconds && runs.len() >= must && t_serve >= 0.5 * (1.0 - share) * seconds {
            return Ok((runs, server.stats));
        }
        let search_next =
            runs.len() < must || (t_search < share * elapsed && elapsed + per_search <= seconds);
        let t = Instant::now();
        if search_next {
            let i = runs.len();
            let mut run = search_unit(w, s, seed, size, i, scratch, tr)?;
            // A repeated search seed repeats the whole search, which must
            // reproduce the first one bit for bit.
            if let Some(first) = runs.get(i.wrapping_sub(must)) {
                run.checks += 1;
                if !search::same_result(&first.result, &run.result) {
                    run.failures
                        .push("repeated search is not deterministic".to_string());
                }
            }
            runs.push(run);
            t_search += t.elapsed().as_secs_f64();
        } else {
            server.round(s, tr);
            t_serve += t.elapsed().as_secs_f64();
        }
    }
}

/// Analytic Eager speedup of a fused paper-scale graph over the original.
pub fn est_speedup(s: &Setup) -> Result<f64> {
    Ok(estimate_latency_ms(&s.orig_paper, Backend::Eager)?
        / estimate_latency_ms(&s.fused_paper, Backend::Eager)?)
}

/// An untraced run: every end-to-end metric.
pub fn run(
    w: Workload,
    seed: u64,
    seconds: f64,
    size: Size,
    scratch: &ScratchDir,
) -> Result<Outcome> {
    let tr = Tracer::new(false);
    let mut out = Outcome::default();
    let (mut s, setup_times) = setups(w, seed, size.setups, scratch, &tr)?;

    let (runs, st) = measure(w, &mut s, seed, seconds, size, scratch, &tr)?;
    for r in &runs {
        out.count_search(r);
    }
    out.count_serve(&st);

    // The machine alternates between a fast and a slow state in
    // proportions that vary from run to run, so medians flip between the
    // two; timings are reported at their 10th percentile, which stays in
    // the fast state.
    let low = |mut v: Vec<f64>| util::quantile(&mut v, 0.1);
    // Per fixed search seed: the low wall time of its repeats, and the
    // result of its first search (repeats are bit-identical).
    let must = w.search_seeds().len();
    let per_seed: Vec<(f64, &SearchResult)> = (0..must)
        .map(|k| {
            let walls = runs.iter().skip(k).step_by(must).map(|r| r.wall_s);
            (low(walls.collect()), &runs[k].result)
        })
        .collect();
    let search_s = per_seed.iter().map(|(t, _)| t).sum::<f64>() / must as f64;
    let per_seed_evaluated = per_seed.iter().map(|(_, r)| r.evaluated).sum::<usize>();
    let evaluated: usize = runs.iter().map(|r| r.result.evaluated).sum();
    let best = match w {
        Workload::Serve => est_speedup(&s)?,
        _ => util::median(&mut per_seed.iter().map(|(_, r)| r.speedup).collect::<Vec<_>>()),
    };
    let qps_b16 = |ms: &[f64]| 16.0 / low(ms.to_vec()) * 1e3;
    out.put("setup_s", low(setup_times.clone()), "s");
    out.put("search_s", search_s, "s");
    out.put(
        "candidates_per_hour",
        per_seed_evaluated as f64 / (search_s * must as f64) * 3600.0,
        "1/h",
    );
    out.put("best_speedup_est", best, "x");
    out.put("fused_p10_ms_b1", low(st.fused.b1_ms.clone()), "ms");
    out.put(
        "fused_p90_ms_b1",
        util::quantile(&mut st.fused.b1_ms.clone(), 0.9),
        "ms",
    );
    out.put("fused_qps_b16", qps_b16(&st.fused.b16_ms), "1/s");
    out.put("orig_p10_ms_b1", low(st.orig.b1_ms.clone()), "ms");
    out.put("orig_qps_b16", qps_b16(&st.orig.b16_ms), "1/s");
    out.put("peak_rss_mb", util::peak_rss_mb(), "MiB");

    out.report.push(format!(
        "{}: {} set-ups, {} searches ({} evaluated), {} requests ({} batch-1 per model)",
        w.name(),
        setup_times.len(),
        runs.len(),
        evaluated,
        st.requests,
        st.fused.b1_ms.len()
    ));
    Ok(out)
}
