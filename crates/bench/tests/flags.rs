//! Config-shaping flags are honored or refused, never silently ignored.
//! So is any argument an experiment does not read.
//!
//! `--topology` and the chaos flags enter cache keys through the configs
//! of the experiments that support them. An experiment whose configs
//! carry no such key must reject the flag: running anyway would serve
//! single-switch, fault-free results under the unflagged cache key.

use ragnar_bench::experiments::{cluster, covert, offset, tables};
use ragnar_harness::{run_with_cli, Cli, Experiment};

fn cli(args: &[&str]) -> Cli {
    Cli::parse(args.iter().map(|s| s.to_string())).expect("cli parses")
}

#[test]
fn experiments_without_a_fabric_reject_topology() {
    let err = run_with_cli(
        &offset::Fig6AbsOffset,
        &cli(&["--quick", "--no-cache", "--topology", "p2p:hosts=2"]),
    )
    .expect_err("fig6 has no fabric to put on a topology");
    assert!(err.contains("--topology"), "got: {err}");
    assert!(err.contains("fig6_abs_offset"), "got: {err}");
}

#[test]
fn experiments_without_fault_injection_reject_chaos_flags() {
    for flag in [["--chaos-seed", "7"], ["--chaos-plan", "missing-plan.txt"]] {
        let args = [&["--quick", "--no-cache"][..], &flag[..]].concat();
        let err =
            run_with_cli(&tables::Table23, &cli(&args)).expect_err("table2_3 injects no faults");
        assert!(err.contains(flag[0]), "got: {err}");
    }
}

#[test]
fn noisy_neighbor_still_runs_on_a_given_topology() {
    let failed = run_with_cli(
        &cluster::NoisyNeighbor,
        &cli(&[
            "--quick",
            "--no-cache",
            "--threads",
            "1",
            "--topology",
            "leaf-spine:hosts=32,leaves=4,spines=2",
            "--only",
            "attacker_qps=0 ",
        ]),
    )
    .expect("noisy_neighbor honors --topology");
    assert_eq!(failed, 0);
}

#[test]
fn arguments_no_experiment_reads_are_rejected() {
    for args in [&["--retries", "1"][..], &["--quik"][..]] {
        let err = run_with_cli(
            &offset::Fig6AbsOffset,
            &cli(&[&["--quick", "--no-cache"][..], args].concat()),
        )
        .expect_err("fig6 reads neither argument");
        assert!(err.contains(args.join(" ").as_str()), "got: {err}");
        assert!(err.contains("fig6_abs_offset"), "got: {err}");
    }
}

/// A missing or non-integer `--bits` is an error, not the default
/// payload length.
#[test]
fn malformed_bits_values_are_errors() {
    let exps: [&dyn Experiment; 2] = [&covert::Table5Covert, &cluster::BankruptCovert];
    for exp in exps {
        for (bits, want) in [
            (&["--bits", "abc"][..], "--bits needs an integer, got 'abc'"),
            (&["--bits"][..], "--bits needs a value"),
        ] {
            // The filter matches no config, so a run that ignores the
            // bad value fails fast here instead of running the sweep.
            let args = [&["--no-cache", "--only", "no-such-label"][..], bits].concat();
            let err = run_with_cli(exp, &cli(&args)).expect_err("malformed --bits");
            assert!(err.contains(want), "{} {args:?} -> {err}", exp.name());
        }
    }
}

/// `--bits` given twice is an error, whatever the second value: no run
/// silently takes the first one.
#[test]
fn repeated_bits_are_errors() {
    let exps: [&dyn Experiment; 2] = [&covert::Table5Covert, &cluster::BankruptCovert];
    for exp in exps {
        for bits in [
            ["--bits", "8", "--bits", "9"],
            ["--bits", "8", "--bits", "abc"],
        ] {
            let args = [&["--no-cache", "--only", "no-such-label"][..], &bits[..]].concat();
            let err = run_with_cli(exp, &cli(&args)).expect_err("repeated --bits");
            assert!(
                err.contains("--bits given more than once"),
                "{} {args:?} -> {err}",
                exp.name()
            );
        }
    }
}
