//! Command line: parse, run one workload, print the report and the
//! result line.

use crate::probes;
use crate::util::{self, json_num, json_str, ScratchDir};
use crate::workloads::{self, Outcome, Size, Workload};
use std::path::Path;
use std::process::ExitCode;

/// Scratch space inside the checkout; every run removes its own part.
const SCRATCH_ROOT: &str = ".bench_tmp";
/// Where traced runs leave their spans.
const OUT_DIR: &str = ".bench_out";

/// Parsed arguments.
#[derive(Debug, Clone)]
pub struct Args {
    /// The workload.
    pub workload: Workload,
    /// Workload seed.
    pub seed: u64,
    /// Seconds to measure.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the timed one.
    pub trace: bool,
}

const USAGE: &str = "usage: perfbench --workload <search_real|serve|search_ckpt> \
--seed <n> --seconds <s> --trace <0|1>";

/// Parses `--key value` pairs.
pub fn parse(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 0u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(key) = it.next() {
        let val = it.next().ok_or_else(|| format!("{key} needs a value"))?;
        let bad = |what: &str| format!("bad {what}: {val}");
        match key.as_str() {
            "--workload" => workload = Some(Workload::parse(val).ok_or_else(|| bad("workload"))?),
            "--seed" => seed = val.parse().map_err(|_| bad("seed"))?,
            "--seconds" => seconds = val.parse().map_err(|_| bad("seconds"))?,
            "--trace" => {
                trace = match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("trace")),
                }
            }
            _ => return Err(format!("unknown argument {key}")),
        }
    }
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err(format!("--seconds must be positive, got {seconds}"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// Runs one workload in a private scratch directory, with the program's
/// environment hooks (tracing, fault injection, crash injection) cleared
/// and the teacher cache pointed into the scratch directory.
pub fn execute(args: &Args) -> Result<Outcome, String> {
    for var in ["GMORPH_TRACE", "GMORPH_FAULT", "GMORPH_CRASH_AFTER"] {
        std::env::remove_var(var);
    }
    let scratch = ScratchDir::new(Path::new(SCRATCH_ROOT), args.workload.name())
        .map_err(|e| format!("creating scratch directory: {e}"))?;
    std::env::set_var("GMORPH_CACHE_DIR", scratch.sub("cache"));
    let (w, seed, secs, size) = (args.workload, args.seed, args.seconds, Size::FULL);
    let out = if args.trace {
        probes::run(w, seed, secs, size, &scratch)
    } else {
        workloads::run(w, seed, secs, size, &scratch)
    };
    out.map_err(|e| format!("{} failed: {e}", w.name()))
}

/// The provenance line: what ran, where, on what.
pub fn provenance(args: &Args) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "{{\"commit\":{},\"workload\":{},\"seed\":{},\"seconds\":{},\"trace\":{},\"nproc\":{},\"threads\":{},\"pool\":{}}}",
        json_str(&util::git_commit()),
        json_str(args.workload.name()),
        args.seed,
        json_num(args.seconds),
        args.trace,
        nproc,
        gmorph::tensor::engine::num_threads(),
        gmorph::tensor::buffer::enabled()
    )
}

/// The result line.
pub fn result_json(out: &Outcome) -> String {
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|(n, v, u)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(n),
                json_num(*v),
                json_str(u)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.check_failures.is_empty(),
        out.attempted.max(1),
        out.failed,
        metrics.join(", ")
    )
}

/// Entry point; returns the process exit code.
pub fn main(argv: Vec<String>) -> ExitCode {
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let out = match execute(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let prov = provenance(&args);
    for line in &out.report {
        println!("{line}");
    }
    for (name, value, unit) in &out.metrics {
        println!("  {name:<36} {value:>14.4} {unit}");
    }
    for f in &out.check_failures {
        println!("CHECK FAILED: {f}");
    }
    println!("provenance: {prov}");
    if let Some(spans) = &out.spans {
        let file = Path::new(OUT_DIR).join(format!(
            "spans-{}-{}.jsonl",
            args.workload.name(),
            args.seed
        ));
        let written = std::fs::create_dir_all(OUT_DIR)
            .and_then(|_| std::fs::write(&file, format!("{{\"provenance\":{prov}}}\n{spans}")));
        match written {
            Ok(()) => println!("spans: {}", file.display()),
            Err(e) => eprintln!("perfbench: writing spans: {e}"),
        }
    }
    println!("{}", result_json(&out));
    if out.check_failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
