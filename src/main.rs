//! `ragnar <experiment> [flags]`: runs one experiment of
//! `ragnar_bench::experiments::registry()` through the shared harness
//! command line. `ragnar --help` lists them.

fn main() -> std::process::ExitCode {
    ragnar_harness::run_main(&ragnar_bench::experiments::registry())
}
