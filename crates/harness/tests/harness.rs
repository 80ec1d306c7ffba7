//! End-to-end harness guarantees, exercised through the public API the
//! `ragnar` binary uses ([`dispatch`], [`run_with_cli`]): cache hits and misses,
//! resume after an interrupted sweep, and thread-count-independent
//! determinism.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

use ragnar_harness::executor::execute;
use ragnar_harness::hash::build_fingerprint;
use ragnar_harness::{
    dispatch, run_with_cli, Artifact, Cli, Command, Config, Experiment, Manifest, ResultStore,
    Value,
};

/// A sweep whose executions are observable: every real (non-cached) run
/// bumps a counter, and each artifact mixes config and seed so identity
/// mistakes show up as digest mismatches.
struct Counted {
    cells: u64,
    runs: AtomicUsize,
}

impl Counted {
    fn new(cells: u64) -> Counted {
        Counted {
            cells,
            runs: AtomicUsize::new(0),
        }
    }
}

impl Experiment for Counted {
    fn name(&self) -> &'static str {
        "harness_itest"
    }

    fn description(&self) -> &'static str {
        "integration-test sweep"
    }

    fn params(&self, cli: &Cli) -> Vec<Config> {
        let cells = if cli.quick { 2 } else { self.cells };
        (0..cells)
            .map(|i| Config::new().with("cell", i).with("mode", "itest"))
            .collect()
    }

    fn run(&self, config: &Config, seed: u64) -> Result<Artifact, String> {
        self.runs.fetch_add(1, Ordering::SeqCst);
        let cell = config.u64("cell").ok_or("missing cell")?;
        Ok(Artifact::text(format!("cell {cell} -> {seed:#x}\n"))
            .with_metric("cell", cell)
            .with_metric("seed", seed))
    }
}

fn temp_results(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("ragnar-harness-itest-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn cli(results: &Path, threads: usize, seed: u64) -> Cli {
    let mut cli = Cli::default();
    cli.results_dir = results.to_path_buf();
    cli.threads = threads;
    cli.seed = seed;
    cli
}

fn read_manifest(results: &Path) -> Value {
    let raw = std::fs::read_to_string(results.join("harness_itest/manifest.json"))
        .expect("manifest.json exists");
    Value::parse(&raw).expect("manifest parses")
}

fn manifest_field(results: &Path, key: &str) -> i64 {
    read_manifest(results)
        .get(key)
        .and_then(Value::as_i64)
        .unwrap_or_else(|| panic!("manifest field {key}"))
}

fn manifest_digest(results: &Path) -> String {
    read_manifest(results)
        .get("artifact_digest")
        .and_then(Value::as_str)
        .expect("artifact_digest")
        .to_string()
}

#[test]
fn second_invocation_is_all_cache_hits() {
    let results = temp_results("cache-hit");
    let exp = Counted::new(12);
    run_with_cli(&exp, &cli(&results, 4, 7)).expect("first run");
    assert_eq!(exp.runs.load(Ordering::SeqCst), 12);
    assert_eq!(manifest_field(&results, "configs_executed"), 12);

    run_with_cli(&exp, &cli(&results, 4, 7)).expect("second run");
    assert_eq!(
        exp.runs.load(Ordering::SeqCst),
        12,
        "second run must not execute"
    );
    assert_eq!(manifest_field(&results, "configs_cached"), 12);
    assert_eq!(manifest_field(&results, "configs_executed"), 0);
    let _ = std::fs::remove_dir_all(&results);
}

/// A monitored sweep observes cells, so it executes every one of them
/// (cache reads bypassed) and still reproduces the cached digest.
#[test]
fn monitored_sweep_executes_every_cell() {
    let results = temp_results("monitored");
    let exp = Counted::new(6);
    run_with_cli(&exp, &cli(&results, 2, 7)).expect("first run");
    let digest = manifest_digest(&results);

    let mut monitored = cli(&results, 2, 7);
    monitored.monitors = Some(ragnar_telemetry::ViolationPolicy::Log);
    run_with_cli(&exp, &monitored).expect("monitored run");
    assert_eq!(exp.runs.load(Ordering::SeqCst), 12);
    assert_eq!(manifest_field(&results, "configs_cached"), 0);
    assert_eq!(manifest_digest(&results), digest);
    let _ = std::fs::remove_dir_all(&results);
}

#[test]
fn cache_misses_on_config_or_seed_change() {
    let results = temp_results("cache-miss");
    let mut exp = Counted::new(4);
    run_with_cli(&exp, &cli(&results, 2, 7)).expect("seed 7");
    assert_eq!(exp.runs.load(Ordering::SeqCst), 4);

    // A different master seed derives different per-config seeds: all miss.
    run_with_cli(&exp, &cli(&results, 2, 8)).expect("seed 8");
    assert_eq!(exp.runs.load(Ordering::SeqCst), 8);

    // A grown parameter space re-runs only the new configs.
    exp.cells = 6;
    run_with_cli(&exp, &cli(&results, 2, 7)).expect("grown sweep");
    assert_eq!(exp.runs.load(Ordering::SeqCst), 10, "4 cached + 2 new");
    assert_eq!(manifest_field(&results, "configs_cached"), 4);

    // --quick is just a smaller parameter space: its cells still hit.
    let mut quick = cli(&results, 2, 7);
    quick.quick = true;
    run_with_cli(&exp, &quick).expect("quick");
    assert_eq!(
        exp.runs.load(Ordering::SeqCst),
        10,
        "quick subset fully cached"
    );
    let _ = std::fs::remove_dir_all(&results);
}

#[test]
fn interrupted_sweep_resumes_incrementally() {
    let results = temp_results("resume");
    let exp = Counted::new(10);

    // Simulate an interrupted sweep: only half the cells ever stored.
    // (An interrupt between cells leaves exactly this state on disk —
    // completed cells persisted, the rest absent.)
    let store = ResultStore::open(&results, exp.name()).expect("open store");
    let full = cli(&results, 1, 3);
    let configs = exp.params(&full);
    for (i, config) in configs.iter().take(5).enumerate() {
        let seed = ragnar_harness::config_seed(3, exp.name(), config);
        let artifact = exp.run(config, seed).expect("run");
        let key = ragnar_harness::hash::cache_key(
            exp.name(),
            &config.canonical(),
            seed,
            build_fingerprint().expect("the test binary is readable"),
        );
        store
            .store(&key, config, seed, &artifact, 0.5)
            .unwrap_or_else(|e| panic!("store cell {i}: {e}"));
    }
    let pre_runs = exp.runs.load(Ordering::SeqCst);
    assert_eq!(pre_runs, 5);

    // The "resumed" invocation only executes the missing half.
    run_with_cli(&exp, &full).expect("resume");
    assert_eq!(exp.runs.load(Ordering::SeqCst), 10);
    assert_eq!(manifest_field(&results, "configs_cached"), 5);
    assert_eq!(manifest_field(&results, "configs_executed"), 5);
    let _ = std::fs::remove_dir_all(&results);
}

/// Cells persisted by another build (any other executable: changed
/// experiment code, engine or store layout) are misses, never served as
/// hits to this one.
#[test]
fn cells_of_another_build_all_miss() {
    let results = temp_results("another-build");
    let exp = Counted::new(4);
    let store = ResultStore::open(&results, exp.name()).expect("open store");
    let full = cli(&results, 1, 3);
    for config in &exp.params(&full) {
        let seed = ragnar_harness::config_seed(3, exp.name(), config);
        let artifact = exp.run(config, seed).expect("run");
        let stale_key =
            ragnar_harness::hash::cache_key(exp.name(), &config.canonical(), seed, "another-build");
        store
            .store(&stale_key, config, seed, &artifact, 0.5)
            .expect("store stale cell");
    }
    assert_eq!(exp.runs.load(Ordering::SeqCst), 4);
    assert_eq!(store.len(), 4, "the other build's cells are on disk");

    // This build must re-execute every cell.
    run_with_cli(&exp, &full).expect("run under this build");
    assert_eq!(
        exp.runs.load(Ordering::SeqCst),
        8,
        "all of the other build's cells must miss"
    );
    assert_eq!(manifest_field(&results, "configs_cached"), 0);
    assert_eq!(manifest_field(&results, "configs_executed"), 4);

    // And the re-run persisted fresh cells under this build's keys.
    run_with_cli(&exp, &full).expect("second run hits");
    assert_eq!(exp.runs.load(Ordering::SeqCst), 8);
    assert_eq!(manifest_field(&results, "configs_cached"), 4);
    let _ = std::fs::remove_dir_all(&results);
}

#[test]
fn artifact_digest_is_thread_count_invariant() {
    let results_1 = temp_results("threads-1");
    let results_8 = temp_results("threads-8");
    let exp1 = Counted::new(32);
    let exp8 = Counted::new(32);
    run_with_cli(&exp1, &cli(&results_1, 1, 42)).expect("1 thread");
    run_with_cli(&exp8, &cli(&results_8, 8, 42)).expect("8 threads");
    assert_eq!(
        manifest_digest(&results_1),
        manifest_digest(&results_8),
        "identical sweeps must produce bit-identical artifacts at any thread count"
    );
    // …and a different seed must show up in the digest.
    let results_s = temp_results("threads-seed");
    let exps = Counted::new(32);
    run_with_cli(&exps, &cli(&results_s, 8, 43)).expect("other seed");
    assert_ne!(manifest_digest(&results_1), manifest_digest(&results_s));
    let _ = std::fs::remove_dir_all(&results_1);
    let _ = std::fs::remove_dir_all(&results_8);
    let _ = std::fs::remove_dir_all(&results_s);
}

#[test]
fn failed_configs_are_isolated_and_counted() {
    struct Flaky;
    impl Experiment for Flaky {
        fn name(&self) -> &'static str {
            "harness_itest_flaky"
        }
        fn description(&self) -> &'static str {
            "panics and errors stay per-cell"
        }
        fn params(&self, _cli: &Cli) -> Vec<Config> {
            (0..6u64).map(|i| Config::new().with("cell", i)).collect()
        }
        fn run(&self, config: &Config, _seed: u64) -> Result<Artifact, String> {
            match config.u64("cell") {
                Some(2) => panic!("cell 2 exploded"),
                Some(4) => Err("cell 4 errored".to_string()),
                other => Ok(Artifact::text(format!("ok {other:?}\n"))),
            }
        }
    }
    let results = temp_results("flaky");
    let mut args = Cli::default();
    args.results_dir = results.clone();
    args.threads = 3;
    let failed = run_with_cli(&Flaky, &args).expect("sweep completes");
    assert_eq!(failed, 2, "both bad cells recorded, good cells unaffected");
    let raw = std::fs::read_to_string(results.join("harness_itest_flaky/manifest.json"))
        .expect("manifest");
    let manifest = Value::parse(&raw).expect("parse");
    assert_eq!(
        manifest.get("configs_failed").and_then(Value::as_i64),
        Some(2)
    );
    let _ = std::fs::remove_dir_all(&results);
}

#[test]
fn manifest_history_accumulates() {
    let results = temp_results("history");
    let exp = Counted::new(3);
    for _ in 0..3 {
        run_with_cli(&exp, &cli(&results, 2, 1)).expect("run");
    }
    let history = std::fs::read_to_string(results.join("harness_itest/manifest-history.jsonl"))
        .expect("history");
    assert_eq!(history.lines().count(), 3);
    // Every line is valid JSON with the digest present.
    for line in history.lines() {
        let v = Value::parse(line).expect("history line parses");
        assert!(v.get("artifact_digest").is_some());
    }
    // Manifest helper type round-trips the summary line.
    let m = Manifest::from_records("unit", 0, 1, &[], vec![], 0.0);
    assert!(m.summary_line().contains("[unit]"));
    let _ = std::fs::remove_dir_all(&results);
}

#[test]
fn only_filter_restricts_the_sweep() {
    let results = temp_results("only");
    let exp = Counted::new(8);
    let mut args = cli(&results, 2, 5);
    args.only = Some("cell=3".to_string());
    run_with_cli(&exp, &args).expect("filtered run");
    assert_eq!(exp.runs.load(Ordering::SeqCst), 1, "only one cell matches");
    assert_eq!(manifest_field(&results, "configs_total"), 1);
    // A filter that matches nothing is a usage error, not an empty sweep.
    args.only = Some("cell=99".to_string());
    let err = run_with_cli(&exp, &args).expect_err("no match");
    assert!(err.contains("cell=99"), "got: {err}");
    let _ = std::fs::remove_dir_all(&results);
}

#[test]
fn failing_cell_runs_once_and_carries_a_repro() {
    struct Failing {
        tried: AtomicUsize,
    }
    impl Experiment for Failing {
        fn name(&self) -> &'static str {
            "harness_itest_failing"
        }
        fn params(&self, _cli: &Cli) -> Vec<Config> {
            (0..3u64).map(|i| Config::new().with("cell", i)).collect()
        }
        fn run(&self, config: &Config, _seed: u64) -> Result<Artifact, String> {
            if config.u64("cell") == Some(1) {
                self.tried.fetch_add(1, Ordering::SeqCst);
                return Err("bad cell".to_string());
            }
            Ok(Artifact::text("ok\n"))
        }
    }
    let results = temp_results("failing");
    let exp = Failing {
        tried: AtomicUsize::new(0),
    };
    let failed = run_with_cli(&exp, &cli(&results, 1, 0)).expect("sweep completes");
    assert_eq!(failed, 1);
    // One attempt: nothing re-runs a failed cell.
    assert_eq!(exp.tried.load(Ordering::SeqCst), 1);
    let raw = std::fs::read_to_string(results.join("harness_itest_failing/manifest.json"))
        .expect("manifest");
    let manifest = Value::parse(&raw).expect("parse");
    let cells = match manifest.get("cells") {
        Some(Value::Array(cells)) => cells.clone(),
        other => panic!("cells missing: {other:?}"),
    };
    let repro = cells[1]
        .get("repro")
        .and_then(Value::as_str)
        .expect("repro present");
    assert_eq!(
        repro,
        "ragnar harness_itest_failing --seed 0 --no-cache --only \"cell=1\""
    );
    // Per-cell keys: no attempt count or retry verdict, and a repro
    // only on the failed cell.
    let keys = |cell: &Value| match cell {
        Value::Object(entries) => entries.iter().map(|(k, _)| k.clone()).collect::<Vec<_>>(),
        other => panic!("cell is not an object: {other:?}"),
    };
    let common = [
        "label",
        "from_cache",
        "elapsed_ms",
        "events",
        "dropped_events",
        "metric_samples",
    ];
    assert_eq!(keys(&cells[0]), common);
    assert_eq!(keys(&cells[1]), [&common[..], &["repro"]].concat());
    let _ = std::fs::remove_dir_all(&results);
}

/// A failed cell's repro, split into words as a shell splits it,
/// dispatches to the same experiment and seed and reruns that cell alone.
#[test]
fn repro_command_dispatches_to_exactly_the_failed_cell() {
    struct Labelled(AtomicUsize);
    impl Experiment for Labelled {
        fn name(&self) -> &'static str {
            "harness_itest_repro"
        }
        fn params(&self, _cli: &Cli) -> Vec<Config> {
            // Labels with a space, and "cell=1" inside cells 10 and 11.
            let cell = |i: u64| Config::new().with("cell", i).with("mode", "fast");
            (0..12).map(cell).collect()
        }
        fn run(&self, config: &Config, _seed: u64) -> Result<Artifact, String> {
            self.0.fetch_add(1, Ordering::SeqCst);
            match config.u64("cell") {
                Some(1) => Err("bad cell".to_string()),
                _ => Ok(Artifact::text("ok\n")),
            }
        }
    }
    let exp = Labelled(AtomicUsize::new(0));
    let records = execute(
        &exp,
        &exp.params(&Cli::default()),
        7,
        None,
        &Default::default(),
    );
    let repro = records.iter().find_map(|r| r.repro.clone()).expect("repro");
    assert_eq!(exp.0.swap(0, Ordering::SeqCst), 12);

    // Outside quotes split on spaces; a quoted part is one word.
    let words: Vec<String> = (repro.split('"').enumerate())
        .flat_map(|(i, part)| match i % 2 {
            0 => part.split_whitespace().map(String::from).collect(),
            _ => vec![part.to_string()],
        })
        .collect();
    assert_eq!(words[0], "ragnar", "{repro}");
    let decoy = Counted::new(1);
    let registry: [&dyn Experiment; 2] = [&decoy, &exp];
    let Ok(Command::Run(found, mut cli)) = dispatch(&registry, words[1..].to_vec()) else {
        panic!("{repro} does not dispatch to a run");
    };
    assert_eq!((found.name(), cli.seed), ("harness_itest_repro", 7));
    assert_eq!(cli.only.as_deref(), Some("cell=1 mode=fast"));
    cli.no_cache = true;
    assert_eq!(
        run_with_cli(found, &cli),
        Ok(1),
        "the failed cell fails again"
    );
    assert_eq!(exp.0.load(Ordering::SeqCst), 1, "and runs alone");
}

#[test]
fn monitor_abort_salvages_completed_cells() {
    struct Tripwire;
    impl Experiment for Tripwire {
        fn name(&self) -> &'static str {
            "harness_itest_abort"
        }
        fn params(&self, _cli: &Cli) -> Vec<Config> {
            (0..6u64).map(|i| Config::new().with("cell", i)).collect()
        }
        fn run(&self, config: &Config, _seed: u64) -> Result<Artifact, String> {
            if config.u64("cell") == Some(2) {
                panic!("[monitor-abort] arena ledger skew at event 312");
            }
            Ok(Artifact::text("ok\n"))
        }
    }
    let results = temp_results("abort");
    // threads=1 pins the schedule: cells 0 and 1 complete, 2 trips the
    // abort, 3..6 are skipped.
    let failed = run_with_cli(&Tripwire, &cli(&results, 1, 0)).expect("sweep returns");
    assert_eq!(failed, 4, "one aborting cell + three skipped");
    let raw = std::fs::read_to_string(results.join("harness_itest_abort/manifest.json"))
        .expect("manifest");
    let manifest = Value::parse(&raw).expect("parse");
    assert_eq!(manifest.get("aborted").and_then(Value::as_bool), Some(true));
    assert_eq!(
        manifest.get("configs_skipped").and_then(Value::as_i64),
        Some(3)
    );
    // Crash-consistent salvage: the cells that finished before the abort
    // are persisted and will be cache hits on the next (fixed) run.
    let store = ResultStore::open(&results, "harness_itest_abort").expect("open");
    assert_eq!(store.len(), 2, "completed cells salvaged");
    // The aborting cell carries a paste-ready repro in the manifest.
    let cells = match manifest.get("cells") {
        Some(Value::Array(cells)) => cells.clone(),
        other => panic!("cells missing: {other:?}"),
    };
    let repro = cells[2]
        .get("repro")
        .and_then(Value::as_str)
        .expect("repro present");
    assert!(
        repro.contains("harness_itest_abort") && repro.contains("--only \"cell=2\""),
        "got: {repro}"
    );
    let _ = std::fs::remove_dir_all(&results);
}
