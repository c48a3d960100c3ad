//! Regenerates the paper's tables and figures.
//!
//! ```text
//! cargo run -p gmorph-bench --release --bin repro -- <experiment> [options]
//!
//! experiments:
//!   fig1 fig2 fig3 fig7 fig8 fig9 table3 table4 table5 table6 ablations batched
//!   kernels alloc all
//!
//! `kernels` times the blocked/threaded GEMM and conv kernels against the
//! naive single-threaded loops, plus attention and bilinear resize, and
//! writes `BENCH_kernels.json` to the output directory.
//!
//! `alloc` times the hot paths with the tensor buffer pool off vs on and
//! with activations fused into kernel epilogues vs separate passes, prints
//! the speedups, and writes `BENCH_alloc.json`.
//!
//! Both files hold `nproc`, `threads`, `pool`, `simd` and `records`, each
//! record `{op, config, shape, threads, ns_min, ns_median, samples}`.
//!
//! `merge` folds such files from repeated runs of two builds into one
//! before/after file whose records' `config` is `parent` or `change`
//! (see `gmorph_bench::common::merge_bench_runs`):
//!
//! repro merge --out <dir> --name <file> [--ops <op,op,...>]
//!             [--note <key>=<text>]... --parent <file>... --change <file>...
//!
//! options:
//!   --seed <u64>          experiment seed        (default 1)
//!   --iters <usize>       search rounds per cell (default 200)
//!   --mode real|surrogate accuracy estimation    (default surrogate)
//!   --out <dir>           CSV output directory   (default results/)
//!   --quick               shrink sample counts for smoke runs
//! ```

use gmorph::prelude::AccuracyMode;
use gmorph_bench::experiments;
use gmorph_bench::ExperimentOpts;
use std::path::PathBuf;
use std::process::ExitCode;

fn parse_args() -> Result<(Vec<String>, ExperimentOpts), String> {
    let mut opts = ExperimentOpts::default();
    let mut exps = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--seed" => {
                opts.seed = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or("--seed needs a u64")?;
            }
            "--iters" => {
                opts.iterations = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or("--iters needs a usize")?;
            }
            "--mode" => {
                let v = args.next();
                opts.mode = v
                    .as_deref()
                    .and_then(AccuracyMode::parse)
                    .ok_or(format!("unknown mode {v:?}"))?;
            }
            "--out" => {
                opts.out_dir = args.next().ok_or("--out needs a path")?.into();
            }
            "--quick" => opts.quick = true,
            other if !other.starts_with('-') => exps.push(other.to_string()),
            other => return Err(format!("unknown option {other}")),
        }
    }
    if exps.is_empty() {
        return Err("no experiment named; try `repro all` or see --help".to_string());
    }
    Ok((exps, opts))
}

/// `repro merge`: parses its options and writes the merged file.
fn merge(mut args: impl Iterator<Item = String>) -> Result<(), String> {
    let (mut out_dir, mut name) = (PathBuf::from("results"), None);
    let (mut ops, mut notes) = (Vec::new(), Vec::new());
    let mut sides: [(&'static str, Vec<PathBuf>); 2] = [("parent", vec![]), ("change", vec![])];
    let mut side = None;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--out" => out_dir = args.next().ok_or("--out needs a path")?.into(),
            "--name" => name = Some(args.next().ok_or("--name needs a file name")?),
            "--ops" => {
                let list = args.next().ok_or("--ops needs a list")?;
                ops = list.split(',').map(str::to_string).collect();
            }
            "--note" => {
                let note = args.next().ok_or("--note needs <key>=<text>")?;
                let (key, text) = note.split_once('=').ok_or("--note needs <key>=<text>")?;
                notes.push((key.to_string(), text.to_string()));
            }
            "--parent" => side = Some(0),
            "--change" => side = Some(1),
            file if !file.starts_with('-') => {
                let side = side.ok_or("name --parent or --change before the files")?;
                sides[side].1.push(file.into());
            }
            other => return Err(format!("unknown option {other}")),
        }
    }
    let name = name.ok_or("merge needs --name")?;
    if sides.iter().any(|(_, files)| files.is_empty()) {
        return Err("merge needs files after both --parent and --change".to_string());
    }
    gmorph_bench::common::merge_bench_runs(&out_dir, &name, &sides, &ops, &notes)
        .map_err(|e| format!("merge failed: {e}"))
}

fn run_one(name: &str, opts: &ExperimentOpts) -> Result<(), String> {
    println!("\n######## {name} ########");
    let started = std::time::Instant::now();
    let result = match name {
        "fig1" => experiments::fig1::run(opts),
        "fig2" => experiments::fig2::run(opts),
        "fig3" => experiments::fig3::run(opts),
        // fig7 also regenerates Tables 5, 7, 8, 9 (same search grid).
        "fig7" | "table5" | "table7" | "table8" | "table9" => experiments::fig7::run(opts),
        "fig8" => experiments::fig8::run(opts),
        "fig9" => experiments::fig9::run(opts),
        "table3" => experiments::table3::run(opts),
        "table4" => experiments::table4::run(opts),
        "table6" => experiments::table6::run(opts),
        "ablations" => experiments::ablations::run(opts),
        "batched" => experiments::batched::run(opts),
        "kernels" => experiments::kernels::run(opts),
        "alloc" => experiments::alloc::run(opts),
        other => return Err(format!("unknown experiment {other}")),
    };
    result.map_err(|e| format!("{name} failed: {e}"))?;
    println!("[{name} done in {:.1}s]", started.elapsed().as_secs_f64());
    Ok(())
}

fn main() -> ExitCode {
    if std::env::args().nth(1).as_deref() == Some("merge") {
        return match merge(std::env::args().skip(2)) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let (exps, opts) = match parse_args() {
        Ok(v) => v,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("usage: repro <fig1|fig2|fig3|fig7|fig8|fig9|table3|table4|table5|table6|ablations|batched|kernels|alloc|all> [--seed N] [--iters N] [--mode real|surrogate] [--out dir] [--quick]");
            return ExitCode::FAILURE;
        }
    };
    let all = [
        "kernels",
        "alloc",
        "table6",
        "fig1",
        "fig2",
        "fig3",
        "fig7",
        "fig8",
        "table3",
        "table4",
        "fig9",
        "ablations",
        "batched",
    ];
    let to_run: Vec<String> = if exps.iter().any(|e| e == "all") {
        all.iter().map(|s| s.to_string()).collect()
    } else {
        exps
    };
    for name in &to_run {
        if let Err(e) = run_one(name, &opts) {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}
