use std::process::ExitCode;

fn main() -> ExitCode {
    gmorph_perfbench::cli::main(std::env::args().skip(1).collect())
}
