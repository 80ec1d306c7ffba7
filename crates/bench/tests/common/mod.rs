//! The quick-sweep run and artifact digest the determinism tests share.

use ragnar_harness::executor::{self, ExecOptions, TelemetrySpec};
use ragnar_harness::hash::content_hash;
use ragnar_harness::{Cli, Experiment, Outcome, RunRecord};

/// Quick-mode CLI at seed 0, as `ragnar <experiment> --quick --seed 0`
/// parses it, plus experiment-specific extras.
pub fn quick_cli(extras: &[&str]) -> Cli {
    let mut args = vec!["--quick".to_string(), "--seed".to_string(), "0".to_string()];
    args.extend(extras.iter().map(|s| s.to_string()));
    Cli::parse(args).expect("cli parses")
}

/// Runs the experiment's quick sweep (no cache) on `threads`
/// workers under `telemetry`, and returns the records in config order.
pub fn run_quick(
    exp: &dyn Experiment,
    threads: usize,
    extras: &[&str],
    telemetry: TelemetrySpec,
) -> Vec<RunRecord> {
    let cli = quick_cli(extras);
    let configs = exp.params(&cli);
    executor::execute(
        exp,
        &configs,
        cli.seed,
        None,
        &ExecOptions {
            threads,
            telemetry,
            ..Default::default()
        },
    )
}

/// [`artifact_digest`] of the untraced quick sweep on `threads` workers.
pub fn quick_digest(exp: &dyn Experiment, threads: usize, extras: &[&str]) -> String {
    artifact_digest(&run_quick(exp, threads, extras, TelemetrySpec::default()))
}

/// Folds every artifact's canonical encoding, in config order, into one
/// content hash. Panics on a cell that did not finish.
pub fn artifact_digest(records: &[RunRecord]) -> String {
    let mut material = String::new();
    for r in records {
        match &r.outcome {
            Outcome::Done(a) => {
                material.push_str(&a.to_value().encode());
                material.push('\n');
            }
            Outcome::Failed { message, .. } => {
                panic!("config [{}] failed: {message}", r.config.label())
            }
            other => panic!("config [{}] did not finish: {other:?}", r.config.label()),
        }
    }
    content_hash(material.as_bytes())
}
