//! The `gmorph` command-line tool.
//!
//! ```text
//! gmorph optimize --bench B1 [--config FILE] [--threshold 0.01]
//!                 [--mode real|surrogate] [--iterations N] [--seed N]
//!                 [--batch-size K] [--throughput FLOPS] [--render]
//!                 [--trace PATH] [--quiet]
//!                 [--checkpoint-dir DIR] [--checkpoint-every K] [--resume]
//!                 [--max-retries N] [--candidate-deadline-ms MS]
//!                 [--grad-clip NORM]
//! gmorph benchmarks
//! gmorph baselines --bench B1
//! gmorph trace-validate PATH
//! gmorph checkpoint-inspect PATH
//! gmorph trace-diff A B
//! ```
//!
//! `optimize` prepares a benchmark session (training or loading cached
//! teachers) and runs graph mutation optimization; `--config` reads the
//! paper-style configuration file (see `gmorph::configfile`), with
//! command-line flags overriding file values. `--batch-size K` runs K
//! candidates per search round, fine-tuned in parallel (the paper's §7
//! parallel simulated annealing; the default 1 is sequential search).
//!
//! `--checkpoint-dir DIR` makes the search crash-safe: its full state is
//! snapshotted into DIR every `--checkpoint-every` iterations (and on
//! panic), and `--resume` continues bit-exactly from the newest valid
//! snapshot after a crash. `checkpoint-inspect` prints a snapshot's
//! header and contents; `trace-diff` compares two search-trace JSONL
//! files ignoring wall-clock fields (the resume-smoke CI check).
//!
//! `--trace PATH` (or the `GMORPH_TRACE` environment variable) enables
//! structured telemetry: every span, search iteration, and metric flush is
//! appended to PATH as JSONL, and the search trace is additionally saved
//! next to it as `PATH.trace.jsonl` for offline curve plotting.
//! `trace-validate` checks such a file against the documented schema.

use gmorph::perf::estimator::estimate_latency_ms;
use gmorph::prelude::*;
use gmorph::{baselines, configfile, telemetry};
use std::process::ExitCode;

struct Cli {
    command: String,
    bench: Option<BenchId>,
    config: Option<std::path::PathBuf>,
    threshold: Option<f32>,
    mode: Option<AccuracyMode>,
    iterations: Option<usize>,
    seed: Option<u64>,
    batch_size: Option<usize>,
    throughput: Option<f64>,
    trace: Option<std::path::PathBuf>,
    quiet: bool,
    render: bool,
    checkpoint_dir: Option<std::path::PathBuf>,
    checkpoint_every: Option<usize>,
    resume: bool,
    max_retries: Option<usize>,
    candidate_deadline_ms: Option<u64>,
    grad_clip: Option<f32>,
    /// Positional arguments (files for `trace-validate` / `trace-diff`).
    target: Option<std::path::PathBuf>,
    target2: Option<std::path::PathBuf>,
}

/// `println!` that respects `--quiet`. Progress chatter goes through this;
/// hard results and errors print unconditionally.
macro_rules! say {
    ($cli:expr, $($t:tt)*) => {
        if !$cli.quiet {
            println!($($t)*);
        }
    };
}

fn parse_cli() -> Result<Cli, String> {
    let mut args = std::env::args().skip(1);
    let command = args.next().ok_or("missing command")?;
    let mut cli = Cli {
        command,
        bench: None,
        config: None,
        threshold: None,
        mode: None,
        iterations: None,
        seed: None,
        batch_size: None,
        throughput: None,
        trace: None,
        quiet: false,
        render: false,
        checkpoint_dir: None,
        checkpoint_every: None,
        resume: false,
        max_retries: None,
        candidate_deadline_ms: None,
        grad_clip: None,
        target: None,
        target2: None,
    };
    while let Some(arg) = args.next() {
        let mut take = |what: &str| args.next().ok_or(format!("{what} needs a value"));
        match arg.as_str() {
            "--bench" => {
                let v = take("--bench")?;
                cli.bench = Some(BenchId::parse(&v).ok_or(format!("unknown benchmark {v}"))?);
            }
            "--config" => cli.config = Some(take("--config")?.into()),
            "--threshold" => {
                cli.threshold =
                    Some(take("--threshold")?.parse().map_err(|_| "bad threshold")?)
            }
            "--mode" => {
                cli.mode = Some(match take("--mode")?.as_str() {
                    "real" => AccuracyMode::Real,
                    "surrogate" => AccuracyMode::Surrogate,
                    other => return Err(format!("unknown mode {other}")),
                })
            }
            "--iterations" => {
                cli.iterations =
                    Some(take("--iterations")?.parse().map_err(|_| "bad iterations")?)
            }
            "--seed" => cli.seed = Some(take("--seed")?.parse().map_err(|_| "bad seed")?),
            "--batch-size" => {
                cli.batch_size =
                    Some(take("--batch-size")?.parse().map_err(|_| "bad batch size")?)
            }
            "--throughput" => {
                cli.throughput =
                    Some(take("--throughput")?.parse().map_err(|_| "bad throughput")?)
            }
            "--trace" => cli.trace = Some(take("--trace")?.into()),
            "--quiet" => cli.quiet = true,
            "--render" => cli.render = true,
            "--checkpoint-dir" => cli.checkpoint_dir = Some(take("--checkpoint-dir")?.into()),
            "--checkpoint-every" => {
                cli.checkpoint_every = Some(
                    take("--checkpoint-every")?
                        .parse()
                        .map_err(|_| "bad checkpoint-every")?,
                )
            }
            "--resume" => cli.resume = true,
            "--max-retries" => {
                cli.max_retries =
                    Some(take("--max-retries")?.parse().map_err(|_| "bad max-retries")?)
            }
            "--candidate-deadline-ms" => {
                cli.candidate_deadline_ms = Some(
                    take("--candidate-deadline-ms")?
                        .parse()
                        .map_err(|_| "bad candidate-deadline-ms")?,
                )
            }
            "--grad-clip" => {
                let v: f32 = take("--grad-clip")?.parse().map_err(|_| "bad grad-clip")?;
                if !v.is_finite() || v <= 0.0 {
                    return Err("grad-clip must be a positive finite norm".to_string());
                }
                cli.grad_clip = Some(v);
            }
            other if !other.starts_with('-') && cli.target.is_none() => {
                cli.target = Some(other.into());
            }
            other if !other.starts_with('-') && cli.target2.is_none() => {
                cli.target2 = Some(other.into());
            }
            other => return Err(format!("unknown option {other}")),
        }
    }
    Ok(cli)
}

fn cmd_benchmarks() {
    println!("benchmark  tasks and models (Table 2)");
    println!("---------  -----------------------------------------------");
    let rows = [
        ("B1", "Age/Gender/Ethnicity: 3x VGG-13 (SynthFaces)"),
        ("B2", "Emotion/Age/Gender: 3x VGG-16 (SynthFaces)"),
        ("B3", "Emotion/Age/Gender: VGG-13/16/11 (SynthFaces)"),
        ("B4", "Object: ResNet-34, Salient: ResNet-18 (SynthScenes)"),
        ("B5", "Object: ResNet-34, Salient: VGG-16 (SynthScenes)"),
        ("B6", "Object: ViT-Large, Salient: ViT-Base (SynthScenes)"),
        ("B7", "CoLA: BERT-Large, SST: BERT-Base (SynthText)"),
    ];
    for (id, desc) in rows {
        println!("{id:<9}  {desc}");
    }
}

fn cmd_baselines(bench: BenchId, seed: u64) -> gmorph::tensor::Result<()> {
    let b = build_benchmark(bench, &DataProfile::standard(), seed)?;
    let prefix = baselines::common_prefix_len(&b.paper);
    println!("{bench}: identical common prefix = {prefix} blocks");
    let original = gmorph::graph::parser::parse_specs(&b.paper)?;
    let orig = estimate_latency_ms(&original, Backend::Eager)?;
    println!("original latency (paper scale, eager): {orig:.2} ms");
    let shared = baselines::all_shared(&b.paper)?;
    let lat = estimate_latency_ms(&shared, Backend::Eager)?;
    println!("All-shared: {lat:.2} ms ({:.2}x)", orig / lat);
    if prefix > 0 {
        let tm = baselines::treemtl_recommend(&b.paper, 0.01)?;
        let lat = estimate_latency_ms(&tm, Backend::Eager)?;
        println!("TreeMTL @1%: {lat:.2} ms ({:.2}x)", orig / lat);
    } else {
        println!("TreeMTL @1%: not applicable (no identical layers)");
    }
    Ok(())
}

fn cmd_trace_validate(cli: &Cli) -> Result<(), String> {
    let path = cli.target.as_ref().ok_or("trace-validate needs a file path")?;
    let stats = telemetry::schema::validate_file(path)?;
    say!(cli, "{}: {} events, schema OK", path.display(), stats.lines);
    for (kind, n) in &stats.by_kind {
        say!(cli, "  {kind:<12} {n}");
    }
    say!(
        cli,
        "  {} distinct names, {} threads, {} spans balanced",
        stats.names,
        stats.threads,
        stats.spans
    );
    Ok(())
}

/// The trace path in effect: `--trace` beats the `GMORPH_TRACE` variable.
fn effective_trace(cli: &Cli) -> Option<std::path::PathBuf> {
    cli.trace
        .clone()
        .or_else(|| std::env::var_os("GMORPH_TRACE").map(Into::into))
}

fn cmd_optimize(cli: &Cli) -> Result<(), String> {
    let bench_id = cli.bench.ok_or("optimize needs --bench")?;
    let mut cfg = match &cli.config {
        Some(path) => configfile::load(path).map_err(|e| e.to_string())?,
        None => OptimizationConfig::default(),
    };
    if let Some(t) = cli.threshold {
        cfg.accuracy_threshold = t;
    }
    if let Some(m) = cli.mode {
        cfg.mode = m;
    }
    if let Some(i) = cli.iterations {
        cfg.iterations = i;
    }
    if let Some(s) = cli.seed {
        cfg.seed = s;
    }
    if let Some(dir) = &cli.checkpoint_dir {
        cfg.checkpoint_dir = Some(dir.clone());
    }
    if let Some(k) = cli.checkpoint_every {
        cfg.checkpoint_every = k;
    }
    cfg.resume = cfg.resume || cli.resume;
    if let Some(n) = cli.max_retries {
        cfg.max_retries = n;
    }
    if let Some(ms) = cli.candidate_deadline_ms {
        cfg.candidate_deadline_ms = Some(ms);
    }
    if let Some(c) = cli.grad_clip {
        cfg.grad_clip = Some(c);
    }
    if let Some(k) = cli.batch_size {
        cfg.candidates_per_round = k;
    }

    say!(cli, "preparing {bench_id} (teachers train once, then cache)...");
    let bench = build_benchmark(bench_id, &DataProfile::standard(), cfg.seed)
        .map_err(|e| e.to_string())?;
    let session = Session::prepare(
        bench,
        &SessionConfig {
            seed: cfg.seed,
            trace: cli.trace.clone(),
            quiet: cli.quiet,
            virtual_throughput: cli
                .throughput
                .unwrap_or(gmorph::perf::clock::DEFAULT_THROUGHPUT),
            ..Default::default()
        },
    )
    .map_err(|e| e.to_string())?;
    for (spec, score) in session.bench.mini.iter().zip(&session.teacher_scores) {
        say!(cli, "  teacher {:<28} score {score:.3}", spec.name);
    }

    say!(
        cli,
        "searching: {} iterations, {:?} mode, {:.1}% budget{}...",
        cfg.iterations,
        cfg.mode,
        cfg.accuracy_threshold * 100.0,
        if cfg.candidates_per_round > 1 {
            format!(", {} candidates per round", cfg.candidates_per_round)
        } else {
            String::new()
        }
    );
    let r = session.optimize(&cfg).map_err(|e| e.to_string())?;
    if let Some(path) = effective_trace(cli) {
        let artifact = path.with_extension("trace.jsonl");
        gmorph::search::persist::save_trace(&artifact, &r)
            .map_err(|e| format!("saving search trace: {e}"))?;
        say!(cli, "search trace saved to {}", artifact.display());
    }
    println!(
        "original {:.2} ms -> fused {:.2} ms ({:.2}x)",
        r.original_latency_ms, r.best.latency_ms, r.speedup
    );
    println!("accuracy drop: {:.2}%", r.best.drop.max(0.0) * 100.0);
    if cli.render {
        println!("\n{}", r.best.mini.render());
    }
    if telemetry::enabled() && !cli.quiet {
        print!("\n{}", telemetry::metrics::summary_table());
    }
    Ok(())
}

/// Prints a checkpoint file's envelope header and, for known payload
/// kinds, its decoded summary. Corrupt files report *why* they are
/// rejected — the same classification the resume fallback uses.
fn cmd_checkpoint_inspect(cli: &Cli) -> Result<(), String> {
    use gmorph::search::checkpoint::{SearchSnapshot, SEARCH_KIND};
    use gmorph::tensor::checkpoint::{is_corruption, Envelope};

    let path = cli.target.as_ref().ok_or("checkpoint-inspect needs a file path")?;
    let bytes = std::fs::read(path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    let env = Envelope::decode(&bytes).map_err(|e| {
        if is_corruption(&e) {
            format!("{}: CORRUPT — {e}", path.display())
        } else {
            format!("{}: {e}", path.display())
        }
    })?;
    println!("{}: {} bytes", path.display(), bytes.len());
    println!("  kind    {}", env.kind);
    println!("  schema  v{}", env.schema);
    for (name, data) in &env.sections {
        println!("  section {name:<10} {} bytes", data.len());
    }
    match env.kind.as_str() {
        SEARCH_KIND => {
            let snap = SearchSnapshot::decode(&env).map_err(|e| e.to_string())?;
            println!("  fingerprint   {:#018x}", snap.state.fingerprint);
            println!("  next iter     {}", snap.state.next_iter);
            println!("  evaluated     {}", snap.evaluated_count);
            println!("  rule filtered {}", snap.rule_filtered);
            println!("  duplicates    {}", snap.duplicates);
            println!("  failed        {}", snap.failed);
            println!("  quarantined   {}", snap.quarantined_count);
            println!("  elites        {}", snap.state.elites.len());
            println!("  best latency  {:.3} ms", snap.best.latency_ms);
            println!("  virtual hours {:.4}", snap.state.clock_seconds / 3600.0);
            println!("  trace records {}", snap.trace.len());
        }
        other => println!("  (no decoder for payload kind {other:?})"),
    }
    Ok(())
}

/// Compares two search-trace JSONL files, ignoring wall-clock fields
/// (`wall_seconds` is never bit-identical across runs; everything else
/// must be). This is the CI resume-smoke equality check.
fn cmd_trace_diff(cli: &Cli) -> Result<(), String> {
    let a_path = cli.target.as_ref().ok_or("trace-diff needs two file paths")?;
    let b_path = cli.target2.as_ref().ok_or("trace-diff needs two file paths")?;
    let (a_meta, a_recs) = gmorph::search::persist::load_trace(a_path)?;
    let (b_meta, b_recs) = gmorph::search::persist::load_trace(b_path)?;

    let mut diffs = Vec::new();
    if a_meta.iterations != b_meta.iterations {
        diffs.push(format!(
            "meta.iterations: {} vs {}",
            a_meta.iterations, b_meta.iterations
        ));
    }
    for (name, x, y) in [
        ("original_latency_ms", a_meta.original_latency_ms, b_meta.original_latency_ms),
        ("best_latency_ms", a_meta.best_latency_ms, b_meta.best_latency_ms),
        ("speedup", a_meta.speedup, b_meta.speedup),
        ("virtual_hours", a_meta.virtual_hours, b_meta.virtual_hours),
    ] {
        if x.to_bits() != y.to_bits() {
            diffs.push(format!("meta.{name}: {x} vs {y}"));
        }
    }
    if a_recs.len() != b_recs.len() {
        diffs.push(format!("record count: {} vs {}", a_recs.len(), b_recs.len()));
    }
    for (i, (x, y)) in a_recs.iter().zip(&b_recs).enumerate() {
        let mut field_diffs = Vec::new();
        if x.iter != y.iter {
            field_diffs.push(format!("iter {} vs {}", x.iter, y.iter));
        }
        if x.status != y.status {
            field_diffs.push(format!("status {:?} vs {:?}", x.status, y.status));
        }
        if x.from_elite != y.from_elite {
            field_diffs.push("from_elite".to_string());
        }
        if x.drop.to_bits() != y.drop.to_bits() && !(x.drop.is_nan() && y.drop.is_nan()) {
            field_diffs.push(format!("drop {} vs {}", x.drop, y.drop));
        }
        if x.met_target != y.met_target {
            field_diffs.push("met_target".to_string());
        }
        if x.candidate_latency_ms.to_bits() != y.candidate_latency_ms.to_bits()
            && !(x.candidate_latency_ms.is_nan() && y.candidate_latency_ms.is_nan())
        {
            field_diffs.push(format!(
                "candidate_latency_ms {} vs {}",
                x.candidate_latency_ms, y.candidate_latency_ms
            ));
        }
        if x.best_latency_ms.to_bits() != y.best_latency_ms.to_bits() {
            field_diffs.push(format!(
                "best_latency_ms {} vs {}",
                x.best_latency_ms, y.best_latency_ms
            ));
        }
        if x.epochs != y.epochs {
            field_diffs.push(format!("epochs {} vs {}", x.epochs, y.epochs));
        }
        if x.virtual_hours.to_bits() != y.virtual_hours.to_bits() {
            field_diffs.push(format!(
                "virtual_hours {} vs {}",
                x.virtual_hours, y.virtual_hours
            ));
        }
        // wall_seconds deliberately ignored.
        if !field_diffs.is_empty() {
            diffs.push(format!("record {i}: {}", field_diffs.join(", ")));
        }
    }
    if diffs.is_empty() {
        say!(
            cli,
            "{} and {} are identical ({} records; wall-clock ignored)",
            a_path.display(),
            b_path.display(),
            a_recs.len()
        );
        Ok(())
    } else {
        for d in diffs.iter().take(20) {
            eprintln!("  {d}");
        }
        Err(format!(
            "traces differ in {} place(s): {} vs {}",
            diffs.len(),
            a_path.display(),
            b_path.display()
        ))
    }
}

fn main() -> ExitCode {
    let cli = match parse_cli() {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: gmorph <optimize|benchmarks|baselines|trace-validate|checkpoint-inspect|trace-diff> [options]"
            );
            return ExitCode::FAILURE;
        }
    };
    let outcome = match cli.command.as_str() {
        "benchmarks" => {
            cmd_benchmarks();
            Ok(())
        }
        "baselines" => {
            let Some(bench) = cli.bench else {
                eprintln!("error: baselines needs --bench");
                return ExitCode::FAILURE;
            };
            cmd_baselines(bench, cli.seed.unwrap_or(0)).map_err(|e| e.to_string())
        }
        "optimize" => cmd_optimize(&cli),
        "trace-validate" => cmd_trace_validate(&cli),
        "checkpoint-inspect" => cmd_checkpoint_inspect(&cli),
        "trace-diff" => cmd_trace_diff(&cli),
        other => Err(format!("unknown command {other}")),
    };
    // Flush and close the telemetry sink (no-op when disabled).
    telemetry::shutdown();
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
