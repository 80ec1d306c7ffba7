//! The shared experiment CLI and [`run_main`], the whole `main` of the
//! `ragnar` binary: `ragnar <experiment> [flags]` looks the experiment
//! up in a registry ([`dispatch`]) and runs it ([`run_with_cli`]).
//!
//! All experiments understand the same flags:
//!
//! ```text
//! --seed <u64>      master seed (default 0; every config derives its own)
//! --threads <n>     worker threads (default: available parallelism)
//! --quick           smaller parameter space, where the experiment has one
//! --no-cache        neither read nor write the result cache
//! --results <dir>   result-store root (default ./results)
//! --chaos-seed <u64>  generate + install a seeded fault plan (changes
//!                     cache keys)
//! --chaos-plan <file> install a fault plan from a serialized plan file
//! --topology <spec> run on a given fabric (`p2p:hosts=N`,
//!                   `leaf-spine:hosts=H,leaves=L,spines=S`,
//!                   `fat-tree:k=K`; canonicalized into configs, so it
//!                   changes cache keys)
//! --trace <path>    write a Perfetto/Chrome trace_event JSON timeline of
//!                   the whole run (telemetry; never changes cache keys)
//! --trace-filter <targets>  comma-separated layer filter for --trace
//!                   (sim-core,rnic-model,rdma-verbs,chaos,core,defense,
//!                   harness; default all)
//! --metrics         collect per-cell metrics reports next to each cell
//! --profile         enable the engine phase profiler: wall-clock per
//!                   engine phase (queue ops, execute, arena, chaos,
//!                   flush), reported in report.{json,md}; pure
//!                   observation — digests and cache keys are unchanged
//! --cell-timeout <ms>  wall-clock watchdog per cell; a cell past the
//!                   budget is recorded as timed out (never part of cache
//!                   keys)
//! --monitors <policy>  run cells under the online invariant monitors
//!                   (log, fail-cell or abort-run); like --trace and
//!                   --metrics it makes cells execute (cache reads
//!                   bypassed) but artifacts and keys are unchanged —
//!                   monitors observe, never perturb
//! --only <substr>   run only configs whose label contains the substring
//!                   (the spelling `--only "<label>"` is what failed
//!                   cells' repro commands use)
//! --help            usage
//! ```
//!
//! An experiment that ignores `--topology` or the chaos flags (none of
//! its configs carries the `topology` or `chaos_seed`/`chaos_plan` key)
//! rejects them instead of silently serving fault-free, default-fabric
//! results.
//!
//! Experiment-specific switches (fig4's `--full`, fig13's `--coarse`,
//! table5's `--bits <n>`, …) are passed through and queried via
//! [`Cli::flag`] / [`Cli::option_u64`] from `Experiment::params`. The
//! `Cli` records each query, and [`run_with_cli`] rejects any argument
//! that `params` did not read, so a typo or a flag the experiment does
//! not have is an error rather than a silently ignored argument.

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Instant;

use crate::cache::ResultStore;
use crate::executor::{self, ExecOptions, TelemetrySpec};
use crate::experiment::{Config, Experiment, Outcome, RunRecord};
use crate::manifest::Manifest;
use crate::report::RunReport;
use crate::value::Value;
use ragnar_telemetry::profile::{self, Phase};
use ragnar_telemetry::{chrome_trace_json, MonitorConfig, TargetSet, TraceCell, ViolationPolicy};
use ragnar_topology::TopologySpec;

/// Parsed shared command line.
#[derive(Debug, Clone)]
pub struct Cli {
    /// Master seed (`--seed`, default 0).
    pub seed: u64,
    /// Worker threads (`--threads`, default: available parallelism).
    pub threads: usize,
    /// Reduced parameter space (`--quick`).
    pub quick: bool,
    /// Disable the result store entirely (`--no-cache`).
    pub no_cache: bool,
    /// Result-store root (`--results`, default `results`).
    pub results_dir: PathBuf,
    /// Chaos seed for a generated fault plan (`--chaos-seed`). `None`
    /// (default) disables fault injection entirely.
    pub chaos_seed: Option<u64>,
    /// Path to a serialized fault-plan file (`--chaos-plan`); takes
    /// precedence over `--chaos-seed` in experiments that support both.
    pub chaos_plan: Option<PathBuf>,
    /// Fabric spec (`--topology`), validated at parse time and held in
    /// canonical spelling so every cell keyed on it shares one form.
    /// `None` (default) keeps each experiment's own fabric (the `p2p`
    /// crossbar unless it names one) and configs untouched.
    pub topology: Option<String>,
    /// Where to write the Perfetto/Chrome trace JSON (`--trace`). `None`
    /// (default) disables tracing. Excluded from configs and cache keys
    /// by construction: parsed into this dedicated field, never into
    /// `extras` where `Experiment::params` could fold it into a config.
    pub trace: Option<PathBuf>,
    /// Comma-separated trace-target filter (`--trace-filter`), validated
    /// in [`run_with_cli`]. `None` traces every layer.
    pub trace_filter: Option<String>,
    /// Collect per-cell metrics reports (`--metrics`). Also excluded
    /// from cache keys by construction.
    pub metrics: bool,
    /// Enable the engine phase profiler (`--profile`). Wall-clock only —
    /// it can never feed digests or cache keys, and like every
    /// observability flag it parses into this dedicated field, never
    /// into `extras`.
    pub profile: bool,
    /// Per-cell watchdog in ms (`--cell-timeout`). `None`
    /// (default) trusts cells to terminate. Excluded from cache keys by
    /// construction, like every dedicated supervision field.
    pub cell_timeout_ms: Option<u64>,
    /// Online invariant-monitor policy (`--monitors`), validated at
    /// parse time. `None` (default) runs unmonitored.
    pub monitors: Option<ViolationPolicy>,
    /// Label-substring filter (`--only`); configs whose label does not
    /// contain it are dropped before the sweep.
    pub only: Option<String>,
    /// Unrecognised arguments, available to experiments.
    extras: Vec<String>,
    /// Which `extras` a [`Cli::flag`] / [`Cli::option_u64`] query has
    /// read; [`run_with_cli`] rejects the rest.
    read: ReadMarks,
}

/// One mark per extra, set when a query reads it, and the first bad
/// value a query met. A lock rather than a `Cell` keeps `Cli` `Sync`.
#[derive(Debug, Default)]
struct ReadMarks(Mutex<Marks>);

#[derive(Debug, Default, Clone)]
struct Marks {
    read: Vec<bool>,
    error: Option<String>,
}

impl ReadMarks {
    fn lock(&self) -> MutexGuard<'_, Marks> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

impl Clone for ReadMarks {
    fn clone(&self) -> Self {
        ReadMarks(Mutex::new(self.lock().clone()))
    }
}

impl Default for Cli {
    fn default() -> Self {
        Cli {
            seed: 0,
            threads: executor::default_threads(),
            quick: false,
            no_cache: false,
            results_dir: PathBuf::from("results"),
            chaos_seed: None,
            chaos_plan: None,
            topology: None,
            trace: None,
            trace_filter: None,
            metrics: false,
            profile: false,
            cell_timeout_ms: None,
            monitors: None,
            only: None,
            extras: Vec::new(),
            read: ReadMarks::default(),
        }
    }
}

/// A fatal CLI parse problem.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CliError(pub String);

impl Cli {
    /// Parses the arguments that follow the experiment name.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Cli, CliError> {
        let mut cli = Cli::default();
        let mut it = args.into_iter();
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--seed" => cli.seed = take_u64(&mut it, "--seed")?,
                "--threads" => {
                    cli.threads = take_u64(&mut it, "--threads")?.clamp(1, 4096) as usize;
                }
                "--quick" => cli.quick = true,
                "--no-cache" => cli.no_cache = true,
                "--results" => {
                    cli.results_dir = PathBuf::from(take_value(&mut it, "--results")?);
                }
                "--chaos-seed" => cli.chaos_seed = Some(take_u64(&mut it, "--chaos-seed")?),
                "--chaos-plan" => {
                    cli.chaos_plan = Some(PathBuf::from(take_value(&mut it, "--chaos-plan")?));
                }
                "--topology" => {
                    // Validate and canonicalize at the CLI boundary, so a
                    // typo is a usage error (not a mid-sweep panic) and
                    // every downstream consumer — cache keys above all —
                    // sees one spelling per fabric.
                    let raw = take_value(&mut it, "--topology")?;
                    let spec = TopologySpec::parse(&raw)
                        .map_err(|e| CliError(format!("--topology: {e}")))?;
                    cli.topology = Some(spec.canonical());
                }
                "--trace" => cli.trace = Some(PathBuf::from(take_value(&mut it, "--trace")?)),
                "--trace-filter" => {
                    cli.trace_filter = Some(take_value(&mut it, "--trace-filter")?);
                }
                "--metrics" => cli.metrics = true,
                "--profile" => cli.profile = true,
                "--cell-timeout" => {
                    let ms = take_u64(&mut it, "--cell-timeout")?;
                    if ms == 0 {
                        return Err(CliError("--cell-timeout must be > 0 ms".to_string()));
                    }
                    cli.cell_timeout_ms = Some(ms);
                }
                "--monitors" => {
                    // Validated here so a typo is a usage error, not a
                    // surprise an hour into a sweep.
                    let raw = take_value(&mut it, "--monitors")?;
                    let policy = ViolationPolicy::parse(&raw)
                        .map_err(|e| CliError(format!("--monitors: {e}")))?;
                    cli.monitors = Some(policy);
                }
                "--only" => cli.only = Some(take_value(&mut it, "--only")?),
                _ => cli.extras.push(arg),
            }
        }
        Ok(cli)
    }

    /// Whether an experiment-specific boolean switch was passed.
    pub fn flag(&self, name: &str) -> bool {
        !self.mark_read(name, false).is_empty()
    }

    /// The value of an experiment-specific `--name <u64>` option. A
    /// missing, non-integer or repeated value reads as `None` here, and
    /// [`run_with_cli`] fails with it.
    pub fn option_u64(&self, name: &str) -> Option<u64> {
        let at = self.mark_read(name, true);
        let raw = self.extras.get(at.first()? + 1);
        let value = raw
            .and_then(|raw| raw.parse().ok())
            .filter(|_| at.len() == 1);
        if value.is_none() {
            self.read.lock().error.get_or_insert(match raw {
                _ if at.len() > 1 => format!("{name} given more than once"),
                Some(raw) => format!("{name} needs an integer, got '{raw}'"),
                None => format!("{name} needs a value"),
            });
        }
        value
    }

    /// Marks every occurrence of `name` among the extras as read, plus
    /// the argument after each one when it takes a value. Returns the
    /// positions of the occurrences.
    fn mark_read(&self, name: &str, takes_value: bool) -> Vec<usize> {
        let read = &mut self.read.lock().read;
        read.resize(self.extras.len(), false);
        let at: Vec<usize> = (0..self.extras.len())
            .filter(|&i| self.extras[i] == name)
            .collect();
        for &i in &at {
            let end = if takes_value { i + 2 } else { i + 1 };
            read[i..end.min(self.extras.len())].fill(true);
        }
        at
    }

    /// The extras no query has read, in command-line order.
    fn unread_extras(&self) -> Vec<&str> {
        let read = &self.read.lock().read;
        self.extras
            .iter()
            .enumerate()
            .filter(|&(i, _)| !read.get(i).copied().unwrap_or(false))
            .map(|(_, arg)| arg.as_str())
            .collect()
    }

    /// Extra arguments that are not shared flags. Reading them here
    /// marks none as read; experiments query through [`Cli::flag`] and
    /// [`Cli::option_u64`].
    pub fn extras(&self) -> &[String] {
        &self.extras
    }
}

fn take_value(it: &mut impl Iterator<Item = String>, flag: &str) -> Result<String, CliError> {
    it.next()
        .ok_or_else(|| CliError(format!("{flag} needs a value")))
}

fn take_u64(it: &mut impl Iterator<Item = String>, flag: &str) -> Result<u64, CliError> {
    let raw = take_value(it, flag)?;
    raw.parse()
        .map_err(|_| CliError(format!("{flag} needs an integer, got '{raw}'")))
}

fn usage(exp: &dyn Experiment) -> String {
    format!(
        "{name} — {desc}\n\n\
         usage: ragnar {name} [--seed <u64>] [--threads <n>] [--quick]\n\
         {pad}   [--no-cache] [--results <dir>]\n\
         {pad}   [--chaos-seed <u64>] [--chaos-plan <file>]\n\
         {pad}   [--topology <spec>] [--trace <path>] [--trace-filter <targets>]\n\
         {pad}   [--metrics] [--profile] [--cell-timeout <ms>]\n\
         {pad}   [--monitors <log|fail-cell|abort-run>]\n\
         {pad}   [--only <label-substring>]\n\
         {pad}   [experiment-specific flags]\n\n\
         Artifacts and the run manifest land in <results>/{name}/;\n\
         see EXPERIMENTS.md for the per-experiment flags and cache-key scheme.",
        name = exp.name(),
        desc = exp.description(),
        pad = " ".repeat(exp.name().len() + 14),
    )
}

/// The top-level usage: the synopsis and every registered experiment.
fn registry_usage(registry: &[&dyn Experiment]) -> String {
    let width = registry.iter().map(|e| e.name().len()).max().unwrap_or(0);
    let mut text = String::from(
        "usage: ragnar <experiment> [flags]\n\
         `ragnar <experiment> --help` lists an experiment's flags.\n\n\
         experiments:",
    );
    for exp in registry {
        text += &format!("\n  {:width$}  {}", exp.name(), exp.description());
    }
    text
}

/// What a `ragnar` command line asks for.
pub enum Command<'r> {
    /// Run this experiment under these flags.
    Run(&'r dyn Experiment, Box<Cli>),
    /// Print this usage and exit with success (`--help`).
    Help(String),
}

/// Resolves `ragnar <experiment> [flags]` (the arguments after the
/// program name) against `registry`: the first argument names the
/// experiment and the rest parse as its [`Cli`]. The error is the whole
/// message for stderr, usage included.
pub fn dispatch<'r>(
    registry: &[&'r dyn Experiment],
    args: impl IntoIterator<Item = String>,
) -> Result<Command<'r>, String> {
    let mut args = args.into_iter();
    let Some(name) = args.next() else {
        return Err(registry_usage(registry));
    };
    if name == "--help" || name == "-h" {
        return Ok(Command::Help(registry_usage(registry)));
    }
    let Some(&exp) = registry.iter().find(|e| e.name() == name) else {
        let why = if name.starts_with('-') {
            format!(
                "'{name}' is a flag; the experiment name comes first: ragnar <experiment> {name}"
            )
        } else {
            format!("unknown experiment '{name}'")
        };
        return Err(format!("error: {why}\n\n{}", registry_usage(registry)));
    };
    let cli = Cli::parse(args).map_err(|CliError(msg)| format!("error: {msg}\n{}", usage(exp)))?;
    if cli.flag("--help") || cli.flag("-h") {
        return Ok(Command::Help(usage(exp)));
    }
    Ok(Command::Run(exp, Box::new(cli)))
}

/// The whole `main` of the `ragnar` binary: [`dispatch`] the process
/// arguments against `registry`, then [`run_with_cli`].
pub fn run_main(registry: &[&dyn Experiment]) -> ExitCode {
    let failed = match dispatch(registry, std::env::args().skip(1)) {
        Ok(Command::Run(exp, cli)) => run_with_cli(exp, &cli).map_err(|e| format!("error: {e}")),
        Ok(Command::Help(usage)) => {
            println!("{usage}");
            Ok(0)
        }
        Err(message) => Err(message),
    };
    match failed {
        Ok(0) => ExitCode::SUCCESS,
        Ok(_) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("{message}");
            ExitCode::FAILURE
        }
    }
}

/// Library-level entry: everything `run_main` does minus process
/// concerns. Returns the number of failed configs. Used by the binary
/// (via [`run_main`]) and integration tests alike.
pub fn run_with_cli(exp: &dyn Experiment, cli: &Cli) -> Result<usize, String> {
    // The profiler is process-wide (its registry aggregates across
    // threads); the guard disarms it on every exit path so a later
    // in-process invocation (tests, batch drivers) starts clean.
    struct ProfilerReset;
    impl Drop for ProfilerReset {
        fn drop(&mut self) {
            profile::set_enabled(false);
        }
    }
    let _profiler_reset = ProfilerReset;
    if cli.profile {
        profile::reset();
        profile::set_enabled(true);
    }
    let t_start = Instant::now();
    let mut stages: Vec<(String, f64)> = Vec::new();

    let t0 = Instant::now();
    // `params` reads a copy with no extra marked yet, so a query made on
    // `cli` before this call cannot excuse an argument this one ignores.
    let fresh = Cli {
        read: ReadMarks::default(),
        ..cli.clone()
    };
    let mut configs = exp.params(&fresh);
    if let Some(error) = fresh.read.lock().error.take() {
        return Err(error);
    }
    let unread = fresh.unread_extras();
    if !unread.is_empty() {
        return Err(format!(
            "'{}' does not read {} (see --help)",
            exp.name(),
            unread.join(" ")
        ));
    }
    reject_ignored_flags(exp, cli, &configs)?;
    if let Some(needle) = &cli.only {
        configs.retain(|c| c.label().contains(needle.as_str()));
        if configs.is_empty() {
            return Err(format!(
                "--only \"{needle}\" matched no configs of '{}'",
                exp.name()
            ));
        }
    }
    stages.push(("params".into(), t0.elapsed().as_secs_f64() * 1e3));
    if configs.is_empty() {
        return Err(format!("experiment '{}' produced no configs", exp.name()));
    }

    let store = if cli.no_cache {
        None
    } else {
        Some(
            ResultStore::open(&cli.results_dir, exp.name())
                .map_err(|e| format!("cannot open result store: {e}"))?,
        )
    };

    let filter = match &cli.trace_filter {
        Some(spec) => TargetSet::parse(spec).map_err(|e| format!("--trace-filter: {e}"))?,
        None => TargetSet::ALL,
    };

    let t0 = Instant::now();
    let records = executor::execute(
        exp,
        &configs,
        cli.seed,
        store.as_ref(),
        &ExecOptions {
            threads: cli.threads,
            telemetry: TelemetrySpec {
                trace: cli.trace.is_some(),
                filter,
                metrics: cli.metrics,
                monitors: cli.monitors.map(|policy| MonitorConfig {
                    policy,
                    ..Default::default()
                }),
            },
            cell_timeout: cli.cell_timeout_ms.map(std::time::Duration::from_millis),
        },
    );
    stages.push(("execute".into(), t0.elapsed().as_secs_f64() * 1e3));

    if let Some(path) = &cli.trace {
        let _p = profile::enter(Phase::Flush);
        write_trace(&records, path)?;
    }
    if cli.metrics {
        if let Some(s) = &store {
            let _p = profile::enter(Phase::Flush);
            for r in &records {
                if let Some(m) = r.telemetry.as_ref().and_then(|t| t.metrics.as_ref()) {
                    // Salvaged telemetry (the cell failed or timed out
                    // mid-run) is tagged incomplete: its counts cover
                    // only the portion of the cell that actually ran.
                    // A failed sidecar write degrades observability only.
                    let _ =
                        s.store_metrics(&r.cache_key, &m.to_json_tagged(r.outcome.is_failure()));
                }
            }
        }
    }

    let t0 = Instant::now();
    let mut report = String::new();
    exp.summarize(&records, &mut report);
    stages.push(("summarize".into(), t0.elapsed().as_secs_f64() * 1e3));

    let manifest = Manifest::from_records(
        exp.name(),
        cli.seed,
        // The worker count the executor actually used.
        cli.threads.clamp(1, configs.len()),
        &records,
        stages,
        t_start.elapsed().as_secs_f64() * 1e3,
    );
    // The run report is assembled for every invocation; the profiler
    // snapshot (when armed) rides along in its timing section.
    let run_report = RunReport::build(&manifest, &records, cli.profile.then(profile::snapshot));
    if !cli.no_cache {
        let _p = profile::enter(Phase::Flush);
        manifest
            .write(&cli.results_dir)
            .map_err(|e| format!("cannot write manifest: {e}"))?;
        run_report
            .write(&cli.results_dir)
            .map_err(|e| format!("cannot write run report: {e}"))?;
    }

    print!("{report}");
    if let Some(p) = &run_report.profile {
        if !p.is_empty() {
            let total_ms = p.total_ns() as f64 / 1e6;
            let mut phases: Vec<_> = p.phases.iter().filter(|(_, t)| t.calls > 0).collect();
            phases.sort_by_key(|p| std::cmp::Reverse(p.1.ns));
            let breakdown: Vec<String> = phases
                .iter()
                .take(5)
                .map(|(phase, t)| format!("{} {:.1}ms", phase.name(), t.ns as f64 / 1e6))
                .collect();
            println!(
                "profile: {total_ms:.1} ms across {} phases ({})",
                phases.len(),
                breakdown.join(", ")
            );
        }
    }
    println!("\n{}", manifest.summary_line());
    for r in &records {
        match &r.outcome {
            Outcome::Done(_) => continue,
            Outcome::Failed { message, panicked } => {
                ragnar_telemetry::warn!(
                    "failed config [{}]: {}{}",
                    r.config.label(),
                    if *panicked { "panic: " } else { "" },
                    message
                );
            }
            Outcome::TimedOut { timeout_ms } => {
                ragnar_telemetry::warn!(
                    "timed-out config [{}]: past {timeout_ms} ms",
                    r.config.label()
                );
            }
            Outcome::Skipped { reason } => {
                ragnar_telemetry::warn!("skipped config [{}]: {reason}", r.config.label());
            }
        }
        if let Some(repro) = &r.repro {
            ragnar_telemetry::warn!("  repro: {repro}");
        }
    }
    Ok(manifest.failed)
}

/// Fails when a config-shaping flag was given but no config carries its
/// key: the experiment ignores that flag, and running anyway would serve
/// unflagged results under the unflagged cache key.
fn reject_ignored_flags(exp: &dyn Experiment, cli: &Cli, configs: &[Config]) -> Result<(), String> {
    const CHAOS_KEYS: &[&str] = &["chaos_seed", "chaos_plan"];
    let flags = [
        ("--topology", cli.topology.is_some(), &["topology"][..]),
        ("--chaos-seed", cli.chaos_seed.is_some(), CHAOS_KEYS),
        ("--chaos-plan", cli.chaos_plan.is_some(), CHAOS_KEYS),
    ];
    for (flag, given, keys) in flags {
        if given
            && !configs
                .iter()
                .any(|c| keys.iter().any(|k| c.get(k).is_some()))
        {
            return Err(format!(
                "{flag} is not supported by '{}' (none of its configs depends on it)",
                exp.name()
            ));
        }
    }
    Ok(())
}

/// Merges per-cell trace events (config order) into one Chrome
/// `trace_event` JSON document, self-validates it, and writes it out.
fn write_trace(records: &[RunRecord], path: &Path) -> Result<(), String> {
    let cells: Vec<TraceCell<'_>> = records
        .iter()
        .filter_map(|r| {
            r.telemetry.as_ref().map(|t| TraceCell {
                label: r.config.label(),
                index: r.index,
                events: &t.events,
            })
        })
        .collect();
    let events: usize = cells.iter().map(|c| c.events.len()).sum();
    let json = chrome_trace_json(&cells);
    // The exporter is hand-rolled; refuse to ship malformed output.
    Value::parse(&json).map_err(|e| format!("internal: trace JSON failed validation: {e}"))?;
    std::fs::write(path, &json)
        .map_err(|e| format!("cannot write trace to {}: {e}", path.display()))?;
    println!(
        "trace: {events} events from {} cells -> {}",
        cells.len(),
        path.display()
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Cli {
        Cli::parse(args.iter().map(|s| s.to_string())).expect("parse")
    }

    #[test]
    fn defaults_and_flags() {
        let cli = parse(&[]);
        assert_eq!(cli.seed, 0);
        assert!(!cli.quick && !cli.no_cache);
        assert_eq!(cli.results_dir, PathBuf::from("results"));
        assert_eq!(cli.chaos_seed, None);
        assert_eq!(cli.chaos_plan, None);
        assert_eq!(cli.topology, None);

        let cli = parse(&[
            "--seed",
            "42",
            "--threads",
            "3",
            "--quick",
            "--no-cache",
            "--results",
            "/tmp/r",
            "--chaos-seed",
            "9",
            "--chaos-plan",
            "/tmp/plan.txt",
            "--topology",
            "leaf-spine:hosts=256,leaves=8,spines=4",
            "--full",
            "--bits",
            "256",
        ]);
        assert_eq!(cli.seed, 42);
        assert_eq!(cli.threads, 3);
        assert!(cli.quick && cli.no_cache);
        assert_eq!(cli.results_dir, PathBuf::from("/tmp/r"));
        assert_eq!(cli.chaos_seed, Some(9));
        assert_eq!(cli.chaos_plan, Some(PathBuf::from("/tmp/plan.txt")));
        // Stored canonicalized: the default gbps is made explicit.
        assert_eq!(
            cli.topology.as_deref(),
            Some("leaf-spine:hosts=256,leaves=8,spines=4,gbps=100")
        );
        assert!(cli.flag("--full"));
        assert!(!cli.flag("--coarse"));
        assert_eq!(cli.option_u64("--bits"), Some(256));
        assert_eq!(cli.option_u64("--missing"), None);
    }

    #[test]
    fn bad_values_are_errors() {
        assert!(Cli::parse(["--seed".to_string()]).is_err());
        assert!(Cli::parse(["--threads".to_string(), "x".to_string()]).is_err());
        assert!(Cli::parse(["--chaos-seed".to_string(), "x".to_string()]).is_err());
        assert!(Cli::parse(["--topology".to_string()]).is_err());
        assert!(Cli::parse(["--topology".to_string(), "ring:n=8".to_string()]).is_err());
        assert!(Cli::parse([
            "--topology".to_string(),
            "leaf-spine:hosts=7,leaves=3,spines=2".to_string()
        ])
        .is_err());
        assert!(Cli::parse(["--cell-timeout".to_string(), "0".to_string()]).is_err());
        assert!(Cli::parse(["--cell-timeout".to_string(), "x".to_string()]).is_err());
        assert!(Cli::parse(["--monitors".to_string(), "verbose".to_string()]).is_err());
        assert!(Cli::parse(["--monitors".to_string()]).is_err());
        assert!(Cli::parse(["--only".to_string()]).is_err());
    }

    #[test]
    fn supervision_flags_parse_and_validate() {
        let cli = parse(&[
            "--cell-timeout",
            "5000",
            "--monitors",
            "fail-cell",
            "--only",
            "op=read",
        ]);
        assert_eq!(cli.cell_timeout_ms, Some(5000));
        assert_eq!(cli.monitors, Some(ViolationPolicy::FailCell));
        assert_eq!(cli.only.as_deref(), Some("op=read"));
        for (raw, policy) in [
            ("log", ViolationPolicy::Log),
            ("fail-cell", ViolationPolicy::FailCell),
            ("abort-run", ViolationPolicy::AbortRun),
        ] {
            assert_eq!(parse(&["--monitors", raw]).monitors, Some(policy));
        }
    }

    /// Passes only when its cell runs under `--monitors abort-run`.
    struct MonitorProbe;

    impl Experiment for MonitorProbe {
        fn name(&self) -> &'static str {
            "monitor-probe-unit"
        }
        fn params(&self, _cli: &Cli) -> Vec<Config> {
            vec![Config::new().with("i", 0u64)]
        }
        fn run(&self, _config: &Config, _seed: u64) -> Result<crate::Artifact, String> {
            match ragnar_telemetry::RunCtx::current().monitors {
                Some(m) if m.policy == ViolationPolicy::AbortRun => {
                    Ok(crate::Artifact::text("monitored\n"))
                }
                other => Err(format!("cell ran under monitors {other:?}")),
            }
        }
    }

    /// Reads `--full` and `--bits <n>`, like the cluster experiments.
    struct ExtrasReader;

    impl Experiment for ExtrasReader {
        fn name(&self) -> &'static str {
            "extras-reader-unit"
        }
        fn params(&self, cli: &Cli) -> Vec<Config> {
            let bits = cli.option_u64("--bits").unwrap_or(4);
            vec![Config::new()
                .with("bits", bits)
                .with("full", cli.flag("--full"))]
        }
        fn run(&self, _config: &Config, _seed: u64) -> Result<crate::Artifact, String> {
            Ok(crate::Artifact::text("ok\n"))
        }
    }

    #[test]
    fn extras_the_experiment_reads_still_run() {
        let cli = parse(&["--no-cache", "--threads", "1", "--bits", "8", "--full"]);
        assert_eq!(run_with_cli(&ExtrasReader, &cli), Ok(0));
    }

    #[test]
    fn extras_nothing_reads_are_rejected() {
        for (args, unread) in [
            (&["--bits", "8", "--retries", "1"][..], "--retries 1"),
            (&["stray", "--full"][..], "stray"),
            // A removed shared flag is an unknown argument like any other.
            (&["--force"][..], "--force"),
        ] {
            let cli = parse(&[&["--no-cache"][..], args].concat());
            let err = run_with_cli(&ExtrasReader, &cli).expect_err("unread argument");
            assert!(err.contains(unread), "{args:?} -> {err}");
            assert!(err.contains("extras-reader-unit"), "{err}");
        }
        // A query made on the `Cli` before the run does not count.
        let cli = parse(&["--no-cache", "--coarse"]);
        assert!(cli.flag("--coarse"));
        assert!(run_with_cli(&ExtrasReader, &cli).is_err());
    }

    /// `--monitors` reaches the cell through its run context and leaves
    /// nothing behind: at `--threads 1` the cell runs on this very
    /// thread, which carries no monitors once the sweep returns.
    #[test]
    fn monitors_reach_the_cell_and_leave_the_caller_clean() {
        let cli = parse(&["--monitors", "abort-run", "--threads", "1", "--no-cache"]);
        assert_eq!(run_with_cli(&MonitorProbe, &cli), Ok(0));
        assert_eq!(ragnar_telemetry::RunCtx::current().monitors, None);
    }
}

#[cfg(test)]
mod key_exclusion {
    use super::*;

    /// The supervision flags are all observational: they must land in
    /// dedicated fields, never in `extras`, so no experiment can fold
    /// them into a config — and hence into a cache key — by accident.
    #[test]
    fn supervision_flags_never_land_in_extras() {
        let cli = Cli::parse(
            [
                "--cell-timeout",
                "100",
                "--monitors",
                "log",
                "--only",
                "i=3",
            ]
            .iter()
            .map(|s| s.to_string()),
        )
        .expect("parse");
        assert!(
            cli.extras().is_empty(),
            "supervision flag leaked: {:?}",
            cli.extras()
        );
        for flag in ["--cell-timeout", "--monitors", "--only"] {
            assert!(!cli.flag(flag), "{flag} visible as an extra");
            assert_eq!(cli.option_u64(flag), None);
        }
    }

    /// `--profile` is observational like `--trace`: a dedicated field,
    /// never an extra, so it cannot reach configs or cache keys.
    #[test]
    fn profile_flag_never_lands_in_extras() {
        assert!(!Cli::parse(Vec::<String>::new()).expect("parse").profile);
        let cli = Cli::parse(["--profile".to_string(), "--quick".to_string()]).expect("parse");
        assert!(cli.profile && cli.quick);
        assert!(cli.extras().is_empty(), "--profile leaked into extras");
        assert!(!cli.flag("--profile"));
    }
}
