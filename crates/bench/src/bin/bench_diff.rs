//! `bench_diff` — the perf-regression gate.
//!
//! Compares two JSON documents (two harness `report.json`s or two
//! manifests) by flattening both to dotted-path numeric leaves and
//! flagging every leaf whose relative delta exceeds the threshold.
//! Wall-clock material (the `timing` section, `wall_ms`, cache-state
//! counts) is skipped by default, so on identical builds the
//! deterministic sections — event counts, allocation counters, merged
//! histogram counts — must match exactly and any drift is a real
//! behaviour change.
//!
//! ```text
//! usage: bench_diff <baseline.json> <candidate.json>
//!        [--threshold-pct <f>]   allowed relative delta (default 0)
//!        [--skip <substr>]...    extra path substrings to ignore
//!        [--no-default-skip]     compare wall-clock material too
//! ```
//!
//! Exit code 0 when clean, 1 on regressions or missing leaves, 2 on
//! usage/IO errors.

use std::process::ExitCode;

use ragnar_harness::diff::{diff_values, DEFAULT_SKIP};
use ragnar_harness::Value;

struct Args {
    baseline: String,
    candidate: String,
    threshold_pct: f64,
    skip: Vec<String>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut positional = Vec::new();
    let mut threshold_pct = 0.0;
    let mut skip: Vec<String> = DEFAULT_SKIP.iter().map(|s| s.to_string()).collect();
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--threshold-pct" => {
                let raw = it.next().ok_or("--threshold-pct needs a value")?;
                threshold_pct = raw
                    .parse()
                    .map_err(|_| format!("--threshold-pct needs a number, got '{raw}'"))?;
            }
            "--skip" => {
                skip.push(it.next().ok_or("--skip needs a value")?.clone());
            }
            "--no-default-skip" => {
                skip.retain(|s| !DEFAULT_SKIP.contains(&s.as_str()));
            }
            "--help" | "-h" => return Err(String::new()),
            other => positional.push(other.to_string()),
        }
    }
    if positional.len() != 2 {
        return Err(format!(
            "expected exactly two files, got {}",
            positional.len()
        ));
    }
    let mut positional = positional.into_iter();
    Ok(Args {
        baseline: positional.next().expect("checked"),
        candidate: positional.next().expect("checked"),
        threshold_pct,
        skip,
    })
}

fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    Value::parse(&text).map_err(|e| format!("{path} is not valid JSON: {e}"))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(msg) => {
            if !msg.is_empty() {
                eprintln!("error: {msg}");
            }
            eprintln!(
                "usage: bench_diff <baseline.json> <candidate.json> \
                 [--threshold-pct <f>] [--skip <substr>]... [--no-default-skip]"
            );
            return ExitCode::from(2);
        }
    };
    let (baseline, candidate) = match (load(&args.baseline), load(&args.candidate)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let skip: Vec<&str> = args.skip.iter().map(String::as_str).collect();
    let report = diff_values(&baseline, &candidate, args.threshold_pct, &skip);

    println!(
        "bench-diff: {} vs {} — {} leaves compared at {}% threshold",
        args.baseline, args.candidate, report.compared, args.threshold_pct
    );
    for miss in &report.missing {
        println!("  missing: {miss}");
    }
    for r in &report.regressions {
        println!(
            "  REGRESSION {}: {} -> {} ({:+.1}%)",
            r.path,
            r.before,
            r.after,
            if r.before == 0.0 {
                f64::INFINITY
            } else {
                (r.after - r.before) / r.before * 100.0
            }
        );
    }
    if report.is_clean() {
        println!("bench-diff: OK");
        ExitCode::SUCCESS
    } else {
        println!(
            "bench-diff: FAIL ({} regression(s), {} missing leaf/leaves)",
            report.regressions.len(),
            report.missing.len()
        );
        ExitCode::FAILURE
    }
}
