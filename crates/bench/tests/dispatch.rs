//! `ragnar <experiment> [flags]` resolves through `registry()`: a pure
//! function of the arguments, tested without starting a process.

use ragnar_bench::experiments::registry;
use ragnar_harness::{dispatch, Command};

fn resolve(args: &[&str]) -> Result<Command<'static>, String> {
    dispatch(&registry(), args.iter().map(|s| s.to_string()))
}

/// The message lists every experiment with its description.
fn lists_registry(message: &str) -> bool {
    registry()
        .iter()
        .all(|e| message.contains(e.name()) && message.contains(e.description()))
}

#[test]
fn every_registered_name_resolves_and_its_help_runs_nothing() {
    assert_eq!(registry().len(), 21);
    for exp in registry() {
        let Ok(Command::Run(found, cli)) = resolve(&[exp.name(), "--quick", "--seed", "3"]) else {
            panic!("{} does not resolve to a run", exp.name());
        };
        assert_eq!((found.name(), cli.quick, cli.seed), (exp.name(), true, 3));
        let Ok(Command::Help(usage)) = resolve(&[exp.name(), "--help"]) else {
            panic!("{} --help is not help", exp.name());
        };
        assert!(
            usage.contains(&format!("usage: ragnar {} ", exp.name())),
            "{usage}"
        );
    }
}

#[test]
fn unknown_names_and_misplaced_flags_fail_with_the_experiment_list() {
    for (args, error) in [
        (
            &["nosuch", "--quick"][..],
            "error: unknown experiment 'nosuch'",
        ),
        (
            &["--quick", "fig5_mr_uli"][..],
            "error: '--quick' is a flag; the experiment name comes first",
        ),
    ] {
        let Err(message) = resolve(args) else {
            panic!("{args:?} resolved");
        };
        assert!(
            message.starts_with(error) && lists_registry(&message),
            "{message}"
        );
    }
}

#[test]
fn no_arguments_fail_with_the_usage_that_help_prints() {
    let Err(usage) = resolve(&[]) else {
        panic!("no arguments resolved");
    };
    assert!(usage.starts_with("usage: ragnar <experiment>") && lists_registry(&usage));
    for help in ["--help", "-h"] {
        assert!(matches!(resolve(&[help]), Ok(Command::Help(text)) if text == usage));
    }
}

#[test]
fn a_bad_shared_flag_fails_with_the_experiment_usage() {
    let Err(message) = resolve(&["fig5_mr_uli", "--threads", "abc"]) else {
        panic!("--threads abc parsed");
    };
    assert!(message.starts_with("error: --threads needs an integer, got 'abc'"));
    assert!(message.contains("usage: ragnar fig5_mr_uli "), "{message}");
}
