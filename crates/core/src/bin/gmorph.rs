//! The `gmorph` command-line tool.
//!
//! ```text
//! gmorph optimize --bench B1 [--config FILE] [--some-key VALUE]...
//!                 [--throughput FLOPS] [--render] [--trace PATH] [--quiet]
//! gmorph benchmarks
//! gmorph baselines --bench B1 [--seed N]
//! gmorph trace-validate PATH
//! gmorph checkpoint-inspect PATH
//! gmorph trace-diff A B
//! ```
//!
//! `optimize` prepares a benchmark session (training or loading cached
//! teachers) and runs graph mutation optimization. Its settings are the
//! keys of the paper-style configuration file (`gmorph::configfile` lists
//! them and their defaults). `--config FILE` reads such a file; then each
//! `--some-key VALUE` flag sets the key `some_key`, in command-line order,
//! and a boolean key's flag takes no value and sets it true (`--resume`).
//! `--candidates-per-round K` runs K candidates per search round,
//! fine-tuned in parallel (the paper's §7 parallel simulated annealing;
//! the default 1 is sequential search). `--throughput FLOPS` sets the
//! virtual clock's training throughput.
//!
//! `--checkpoint-dir DIR` makes the search crash-safe: its full state is
//! snapshotted into DIR every `--checkpoint-every` iterations (and on
//! panic), and `--resume` continues bit-exactly from the newest valid
//! snapshot after a crash. `checkpoint-inspect` prints a snapshot's
//! header and contents.
//!
//! `--trace PATH` (or the `GMORPH_TRACE` environment variable) enables
//! structured telemetry: every span, search iteration, and metric flush is
//! appended to PATH as JSONL. Its `search.iter` and `search.done` events
//! are the search trace (the data of Figure 8's curves).
//! `trace-validate` checks such a file against the documented schema;
//! `trace-diff` compares the search traces of two such files, ignoring
//! wall-clock time (the resume-smoke CI check).

use gmorph::perf::estimator::estimate_latency_ms;
use gmorph::prelude::*;
use gmorph::telemetry::{Event, EventKind, Value};
use gmorph::{baselines, configfile, telemetry};
use std::collections::{BTreeMap, BTreeSet};
use std::io::{ErrorKind, Write};
use std::process::ExitCode;

/// Why a command stopped: an error to report, or a failed write to
/// standard output (a closed pipe there is a reader that has seen enough,
/// as in `gmorph checkpoint-inspect FILE | grep -q teacher`).
enum Failure {
    Msg(String),
    Stdout(std::io::Error),
}

impl From<String> for Failure {
    fn from(msg: String) -> Self {
        Failure::Msg(msg)
    }
}

impl From<&str> for Failure {
    fn from(msg: &str) -> Self {
        Failure::Msg(msg.to_string())
    }
}

impl From<gmorph::tensor::TensorError> for Failure {
    fn from(e: gmorph::tensor::TensorError) -> Self {
        Failure::Msg(e.to_string())
    }
}

impl From<std::io::Error> for Failure {
    fn from(e: std::io::Error) -> Self {
        Failure::Stdout(e)
    }
}

#[derive(Default)]
struct Cli {
    command: String,
    bench: Option<BenchId>,
    /// The search settings: the `--config` file's, then the flags'.
    cfg: OptimizationConfig,
    /// `--throughput`, `--trace` and `--quiet`; the seed is `cfg`'s.
    session: SessionConfig,
    render: bool,
    /// Positional arguments (files for `trace-validate` / `trace-diff`).
    target: Option<std::path::PathBuf>,
    target2: Option<std::path::PathBuf>,
}

/// `writeln!` that respects `--quiet`. Progress chatter goes through this;
/// hard results and errors print unconditionally.
macro_rules! say {
    ($cli:expr, $out:expr, $($t:tt)*) => {
        if !$cli.session.quiet {
            writeln!($out, $($t)*)?;
        }
    };
}

fn parse_cli() -> Result<Cli, String> {
    let mut args = std::env::args().skip(1);
    let command = args.next().ok_or("missing command")?;
    let (cfg, rest) = configfile::parse_args(args)?;
    let mut cli = Cli {
        command,
        cfg,
        ..Default::default()
    };
    let mut args = rest.into_iter();
    while let Some(arg) = args.next() {
        let mut take = |what: &str| args.next().ok_or(format!("{what} needs a value"));
        match arg.as_str() {
            "--bench" => {
                let v = take("--bench")?;
                cli.bench = Some(BenchId::parse(&v).ok_or(format!("unknown benchmark {v}"))?);
            }
            "--throughput" => {
                let v = take("--throughput")?;
                cli.session.virtual_throughput = v.parse().map_err(|_| "bad throughput")?;
            }
            "--trace" => cli.session.trace = Some(take("--trace")?.into()),
            "--quiet" => cli.session.quiet = true,
            "--render" => cli.render = true,
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

fn cmd_benchmarks(out: &mut impl Write) -> std::io::Result<()> {
    writeln!(out, "benchmark  tasks and models (Table 2)")?;
    writeln!(
        out,
        "---------  -----------------------------------------------"
    )?;
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
        writeln!(out, "{id:<9}  {desc}")?;
    }
    Ok(())
}

fn cmd_baselines(cli: &Cli, out: &mut impl Write) -> Result<(), Failure> {
    let bench = cli.bench.ok_or("baselines needs --bench")?;
    let b = build_benchmark(bench, &DataProfile::standard(), cli.cfg.seed)?;
    let prefix = baselines::common_prefix_len(&b.paper);
    writeln!(out, "{bench}: identical common prefix = {prefix} blocks")?;
    let original = gmorph::graph::parser::parse_specs(&b.paper)?;
    let orig = estimate_latency_ms(&original, Backend::Eager)?;
    writeln!(out, "original latency (paper scale, eager): {orig:.2} ms")?;
    let shared = baselines::all_shared(&b.paper)?;
    let lat = estimate_latency_ms(&shared, Backend::Eager)?;
    writeln!(out, "All-shared: {lat:.2} ms ({:.2}x)", orig / lat)?;
    if prefix > 0 {
        let tm = baselines::treemtl_recommend(&b.paper, 0.01)?;
        let lat = estimate_latency_ms(&tm, Backend::Eager)?;
        writeln!(out, "TreeMTL @1%: {lat:.2} ms ({:.2}x)", orig / lat)?;
    } else {
        writeln!(out, "TreeMTL @1%: not applicable (no identical layers)")?;
    }
    Ok(())
}

fn cmd_trace_validate(cli: &Cli, out: &mut impl Write) -> Result<(), Failure> {
    let path = cli
        .target
        .as_ref()
        .ok_or("trace-validate needs a file path")?;
    let stats = telemetry::schema::validate_file(path)?;
    say!(
        cli,
        out,
        "{}: {} events, schema OK",
        path.display(),
        stats.lines
    );
    for (kind, n) in &stats.by_kind {
        say!(cli, out, "  {kind:<12} {n}");
    }
    say!(
        cli,
        out,
        "  {} distinct names, {} threads, {} spans balanced",
        stats.names,
        stats.threads,
        stats.spans
    );
    Ok(())
}

fn cmd_optimize(cli: &Cli, out: &mut impl Write) -> Result<(), Failure> {
    let bench_id = cli.bench.ok_or("optimize needs --bench")?;
    let cfg = &cli.cfg;
    say!(
        cli,
        out,
        "preparing {bench_id} (teachers train once, then cache)..."
    );
    let bench = build_benchmark(bench_id, &DataProfile::standard(), cfg.seed)?;
    let session = Session::prepare(
        bench,
        &SessionConfig {
            seed: cfg.seed,
            ..cli.session.clone()
        },
    )?;
    for (spec, score) in session.bench.mini.iter().zip(&session.teacher_scores) {
        say!(cli, out, "  teacher {:<28} score {score:.3}", spec.name);
    }

    say!(
        cli,
        out,
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
    let r = session.optimize(cfg)?;
    writeln!(
        out,
        "original {:.2} ms -> fused {:.2} ms ({:.2}x)",
        r.original_latency_ms, r.best.latency_ms, r.speedup
    )?;
    writeln!(out, "accuracy drop: {:.2}%", r.best.drop.max(0.0) * 100.0)?;
    if cli.render {
        writeln!(out, "\n{}", r.best.mini.render())?;
    }
    if telemetry::enabled() && !cli.session.quiet {
        write!(out, "\n{}", telemetry::metrics::summary_table())?;
    }
    Ok(())
}

/// Prints a checkpoint file's envelope header and, for known payload
/// kinds, its decoded summary. Corrupt files report *why* they are
/// rejected — the same classification the resume fallback uses.
fn cmd_checkpoint_inspect(cli: &Cli, out: &mut impl Write) -> Result<(), Failure> {
    use gmorph::search::checkpoint::{SearchSnapshot, SEARCH_KIND};
    use gmorph::tensor::checkpoint::{is_corruption, Envelope};

    let path = cli
        .target
        .as_ref()
        .ok_or("checkpoint-inspect needs a file path")?;
    let bytes = std::fs::read(path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    let env = Envelope::decode(&bytes).map_err(|e| {
        if is_corruption(&e) {
            format!("{}: CORRUPT — {e}", path.display())
        } else {
            format!("{}: {e}", path.display())
        }
    })?;
    writeln!(out, "{}: {} bytes", path.display(), bytes.len())?;
    writeln!(out, "  kind    {}", env.kind)?;
    writeln!(out, "  schema  v{}", env.schema)?;
    for (name, data) in &env.sections {
        writeln!(out, "  section {name:<10} {} bytes", data.len())?;
    }
    match env.kind.as_str() {
        SEARCH_KIND => {
            let snap = SearchSnapshot::decode(&env)?;
            writeln!(out, "  fingerprint   {:#018x}", snap.state.fingerprint)?;
            writeln!(out, "  next iter     {}", snap.state.next_iter)?;
            writeln!(out, "  evaluated     {}", snap.evaluated_count)?;
            writeln!(out, "  rule filtered {}", snap.rule_filtered)?;
            writeln!(out, "  duplicates    {}", snap.duplicates)?;
            writeln!(out, "  failed        {}", snap.failed)?;
            writeln!(out, "  quarantined   {}", snap.quarantined_count)?;
            writeln!(out, "  elites        {}", snap.state.history.elite_count())?;
            writeln!(out, "  best latency  {:.3} ms", snap.best().latency_ms)?;
            writeln!(
                out,
                "  virtual hours {:.4}",
                snap.state.clock_seconds / 3600.0
            )?;
            writeln!(out, "  trace records {}", snap.trace.len())?;
        }
        other => writeln!(out, "  (no decoder for payload kind {other:?})")?,
    }
    Ok(())
}

/// The search trace of one `GMORPH_TRACE` event file: its `search.iter`
/// events by iteration, and its `search.done` event.
type SearchEvents = (BTreeMap<usize, Event>, Event);

/// A non-negative integer field of `event`.
fn count_field(event: &Event, name: &str) -> Result<usize, String> {
    match event.field(name) {
        Some(&Value::Int(v)) if v >= 0 => Ok(v as usize),
        _ => Err(format!("{} without a count field {name:?}", event.name)),
    }
}

/// Reads the search trace of an event stream. Every line must pass the
/// schema, the stream must hold exactly one `search.done`, and the
/// `search.iter` numbers must run without a gap up to its `iterations`:
/// from 1, or from `search.resumed`'s `next_iter`, because a resumed
/// process emits only the iterations after its snapshot.
fn read_search_events(text: &str) -> Result<SearchEvents, String> {
    let mut first_iter = 1;
    let mut iters = BTreeMap::new();
    let mut done = None;
    for (i, line) in text.lines().enumerate() {
        let at = |e: String| format!("line {}: {e}", i + 1);
        if line.trim().is_empty() {
            continue;
        }
        let event = telemetry::schema::validate_line(line).map_err(at)?;
        if event.kind != EventKind::Point {
            continue;
        }
        match event.name.as_str() {
            "search.resumed" => first_iter = count_field(&event, "next_iter").map_err(at)?,
            "search.iter" => {
                let iter = count_field(&event, "iter").map_err(at)?;
                let want = first_iter + iters.len();
                if iter != want {
                    return Err(at(format!(
                        "search.iter {iter} where iteration {want} was expected"
                    )));
                }
                iters.insert(iter, event);
            }
            "search.done" if done.is_some() => return Err(at("a second search.done".to_string())),
            "search.done" => done = Some(event),
            _ => {}
        }
    }
    let done = done.ok_or("no search.done event")?;
    let iterations = count_field(&done, "iterations")?;
    let end = first_iter + iters.len();
    if end != iterations + 1 {
        return Err(format!(
            "search.done counts {iterations} iterations but the search.iter events stop before {end}"
        ));
    }
    Ok((iters, done))
}

/// The fields in which `a` and `b` differ, except `ignore`. Values
/// compare by their debug form: floats bit for bit, except that NaN
/// equals NaN.
fn field_diffs(what: &str, a: &Event, b: &Event, ignore: &[&str]) -> Vec<String> {
    let names: BTreeSet<&String> = a.fields.iter().chain(&b.fields).map(|f| &f.0).collect();
    let show = |v: Option<&Value>| v.map_or("(missing)".to_string(), |v| format!("{v:?}"));
    names
        .into_iter()
        .filter(|name| !ignore.contains(&name.as_str()))
        .map(|name| (name, show(a.field(name)), show(b.field(name))))
        .filter(|(_, x, y)| x != y)
        .map(|(name, x, y)| format!("{what}: {name} {x} vs {y}"))
        .collect()
}

/// Every difference between two search traces: each field of each
/// `search.iter` both hold, and each `search.done` field but
/// `wall_seconds`, which no two runs share.
fn diff_search_events(
    (a_iters, a_done): &SearchEvents,
    (b_iters, b_done): &SearchEvents,
) -> Vec<String> {
    let mut diffs = field_diffs("search.done", a_done, b_done, &["wall_seconds"]);
    for (iter, x) in a_iters {
        if let Some(y) = b_iters.get(iter) {
            diffs.extend(field_diffs(&format!("search.iter {iter}"), x, y, &[]));
        }
    }
    diffs
}

/// Compares the search traces of two `GMORPH_TRACE` event files (see
/// [`diff_search_events`]). A resumed run's file holds only the
/// iterations after its snapshot; `tests/checkpoint_resume.rs` checks the
/// restored ones in process.
fn cmd_trace_diff(cli: &Cli, out: &mut impl Write) -> Result<(), Failure> {
    let (Some(a_path), Some(b_path)) = (&cli.target, &cli.target2) else {
        return Err("trace-diff needs two event files".into());
    };
    let read = |path: &std::path::Path| {
        std::fs::read_to_string(path)
            .map_err(|e| e.to_string())
            .and_then(|text| read_search_events(&text))
            .map_err(|e| format!("{}: {e}", path.display()))
    };
    let diffs = diff_search_events(&read(a_path)?, &read(b_path)?);
    for d in diffs.iter().take(20) {
        eprintln!("  {d}");
    }
    if !diffs.is_empty() {
        let n = diffs.len();
        return Err(format!("the search traces differ in {n} place(s)").into());
    }
    say!(cli, out, "the search traces match (wall-clock ignored)");
    Ok(())
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
    let mut out = std::io::stdout().lock();
    let outcome = match cli.command.as_str() {
        "benchmarks" => cmd_benchmarks(&mut out).map_err(Failure::from),
        "baselines" => cmd_baselines(&cli, &mut out),
        "optimize" => cmd_optimize(&cli, &mut out),
        "trace-validate" => cmd_trace_validate(&cli, &mut out),
        "checkpoint-inspect" => cmd_checkpoint_inspect(&cli, &mut out),
        "trace-diff" => cmd_trace_diff(&cli, &mut out),
        other => Err(format!("unknown command {other}").into()),
    };
    let outcome = outcome.and_then(|()| out.flush().map_err(Failure::from));
    // Flush and close the telemetry sink (no-op when disabled).
    telemetry::shutdown();
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(Failure::Stdout(e)) if e.kind() == ErrorKind::BrokenPipe => ExitCode::SUCCESS,
        Err(Failure::Stdout(e)) => {
            eprintln!("error: writing to stdout: {e}");
            ExitCode::FAILURE
        }
        Err(Failure::Msg(e)) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(name: &str, fields: Vec<(&str, Value)>) -> String {
        Event {
            ts_us: 0,
            kind: EventKind::Point,
            name: name.to_string(),
            span: 0,
            parent: 0,
            thread: 1,
            fields: fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        }
        .to_json()
    }

    /// A `search.iter` line shaped like the driver's, with one field
    /// replaced when `edit` is given.
    fn iter_line(iter: usize, edit: Option<(&str, Value)>) -> String {
        let mut fields: Vec<(&str, Value)> = vec![
            ("iter", iter.into()),
            ("status", "evaluated".into()),
            ("reason", "accepted_elite".into()),
            ("from_elite", (iter > 3).into()),
            ("drop", Value::Float(f64::NAN)),
            ("met_target", true.into()),
            ("candidate_latency_ms", Value::Float(f64::NAN)),
            ("best_latency_ms", (10.0 - iter as f64 / 4.0).into()),
            ("epochs", 3usize.into()),
            ("virtual_hours", (iter as f64 * 0.25).into()),
            ("temperature", (1.0 / iter as f64).into()),
            ("cand_nodes", 12i64.into()),
            ("rescales", 1i64.into()),
        ];
        if let Some((name, value)) = edit {
            fields.iter_mut().find(|(k, _)| *k == name).unwrap().1 = value;
        }
        line("search.iter", fields)
    }

    fn done_line(iterations: usize, wall_seconds: f64) -> String {
        line(
            "search.done",
            vec![
                ("iterations", iterations.into()),
                ("evaluated", iterations.into()),
                ("failed", 0usize.into()),
                ("best_latency_ms", 8.5.into()),
                ("speedup", 1.2.into()),
                ("virtual_hours", 1.5.into()),
                ("wall_seconds", wall_seconds.into()),
            ],
        )
    }

    /// The event lines of a search of `iterations` iterations whose
    /// process started at iteration `first` (resumed when above 1).
    fn stream(first: usize, iterations: usize, wall_seconds: f64) -> Vec<String> {
        let mut lines = vec![line("session.ready", vec![("teachers", 3usize.into())])];
        if first > 1 {
            lines.push(line("search.resumed", vec![("next_iter", first.into())]));
        }
        lines.extend((first..=iterations).map(|i| iter_line(i, None)));
        lines.push(done_line(iterations, wall_seconds));
        lines
    }

    fn diff(a: &[String], b: &[String]) -> Result<Vec<String>, String> {
        let a = read_search_events(&a.join("\n"))?;
        let b = read_search_events(&b.join("\n"))?;
        Ok(diff_search_events(&a, &b))
    }

    #[test]
    fn identical_streams_match_except_wall_clock() {
        assert_eq!(diff(&stream(1, 6, 0.5), &stream(1, 6, 0.9)), Ok(vec![]));
    }

    #[test]
    fn a_resumed_stream_matches_the_full_one() {
        let (full, resumed) = (stream(1, 6, 0.5), stream(4, 6, 0.2));
        assert_eq!(diff(&full, &resumed), Ok(vec![]));
        assert_eq!(diff(&resumed, &full), Ok(vec![]));
        // Iteration 2 differs, but the resumed stream does not hold it.
        let mut edited = full.clone();
        edited[2] = iter_line(2, Some(("epochs", 4usize.into())));
        assert_eq!(diff(&edited, &resumed), Ok(vec![]));
    }

    #[test]
    fn a_changed_field_names_its_iteration() {
        let full = stream(1, 6, 0.5);
        let mut edited = full.clone();
        edited[3] = iter_line(3, Some(("temperature", 0.5.into())));
        let diffs = diff(&full, &edited).unwrap();
        assert_eq!(diffs.len(), 1, "{diffs:?}");
        assert!(
            diffs[0].starts_with("search.iter 3: temperature "),
            "{diffs:?}"
        );

        edited = stream(4, 6, 0.5);
        edited[3] = iter_line(5, Some(("best_latency_ms", 7.0.into())));
        let diffs = diff(&full, &edited).unwrap();
        assert_eq!(diffs.len(), 1, "{diffs:?}");
        assert!(
            diffs[0].starts_with("search.iter 5: best_latency_ms "),
            "{diffs:?}"
        );

        // A field one side lacks is a difference too.
        edited = full.clone();
        edited.pop();
        edited.push(line("search.done", vec![("iterations", 6usize.into())]));
        let diffs = diff(&full, &edited).unwrap();
        assert!(
            diffs.iter().all(|d| d.starts_with("search.done: ")),
            "{diffs:?}"
        );
        assert!(diffs
            .iter()
            .any(|d| d.contains("speedup") && d.ends_with("(missing)")));
        assert!(!diffs.iter().any(|d| d.contains("wall_seconds")));
    }

    #[test]
    fn an_iteration_gap_without_a_resume_fails() {
        let mut gapped = stream(1, 6, 0.5);
        gapped.remove(4);
        let err = diff(&gapped, &stream(1, 6, 0.5)).unwrap_err();
        assert!(err.contains("search.iter 5 where iteration 4"), "{err}");

        let mut headless = stream(4, 6, 0.5);
        headless.remove(1);
        let err = diff(&stream(1, 6, 0.5), &headless).unwrap_err();
        assert!(err.contains("search.iter 4 where iteration 1"), "{err}");

        let mut short = stream(1, 6, 0.5);
        short.remove(6);
        let err = diff(&short, &stream(1, 6, 0.5)).unwrap_err();
        assert!(err.contains("stop before 6"), "{err}");
    }

    #[test]
    fn a_stream_needs_exactly_one_search_done() {
        let mut none = stream(1, 3, 0.5);
        none.pop();
        assert_eq!(diff(&none, &none).unwrap_err(), "no search.done event");
        let mut two = stream(1, 3, 0.5);
        two.push(done_line(3, 0.5));
        let err = diff(&two, &stream(1, 3, 0.5)).unwrap_err();
        assert!(err.starts_with("line 6: a second search.done"), "{err}");
    }

    #[test]
    fn malformed_lines_are_errors_with_their_line_number() {
        let good = stream(1, 3, 0.5);
        let bad_iter = line("search.iter", vec![("iter", "two".into())]);
        let bad_resume = line("search.resumed", vec![("next_iter", (-3i64).into())]);
        for (at, bad) in [
            (2, "{\"ts_us\":0,\"kind\":".to_string()),
            (3, "[1, 2]".to_string()),
            (2, good[1].replace("\"thread\":1", "\"thread\":0")),
            (2, good[1].replace("\"name\"", "\"nom\"")),
            (2, bad_resume),
        ] {
            let mut lines = good.clone();
            lines[at - 1] = bad;
            let err = diff(&lines, &good).unwrap_err();
            assert!(err.starts_with(&format!("line {at}: ")), "{err}");
        }
        let mut lines = good.clone();
        lines[2] = bad_iter;
        let err = diff(&lines, &good).unwrap_err();
        assert!(err.contains("without a count field \"iter\""), "{err}");
    }
}
