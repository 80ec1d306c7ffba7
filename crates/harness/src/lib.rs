//! # ragnar-harness — the experiment-orchestration runtime
//!
//! Every figure and table of the Ragnar reproduction runs through this
//! crate. It provides, in one place:
//!
//! * [`Experiment`] — the trait an experiment implements: a name, a
//!   parameter space ([`Experiment::params`]) and a per-config
//!   [`Experiment::run`].
//! * [`executor`] — a parallel sweep executor whose workers (the
//!   caller among them) take configs off one shared cursor, with
//!   deterministic per-config seed derivation (results are identical at
//!   any `--threads`), per-config panic isolation, an optional per-cell
//!   watchdog and a worker-printed `progress:` line for sweeps longer
//!   than 2 s. Each cell runs once: it is a pure function of its config
//!   and seed, so there is nothing a retry could change.
//! * [`cache`] — a content-addressed result store under `results/`:
//!   each cell is keyed by a hash of (experiment, config, seed, build
//!   fingerprint), making re-runs incremental and interrupted sweeps
//!   resumable.
//! * [`manifest`] — a per-invocation run manifest (wall time, per-stage
//!   timings, run/cached/failed counts, artifact digest).
//! * [`report`] — the per-invocation run report (`report.json` +
//!   `report.md`): merged counters, exact bucket-merged histograms,
//!   per-tenant SLO rows, supervision summary and — under `--profile` —
//!   the engine phase breakdown.
//! * [`cli`] — the shared command line (`--seed`, `--threads`,
//!   `--quick`, `--no-cache`, …), [`dispatch`] of `<experiment> [flags]`
//!   against a registry, and [`run_main`], the entire `main` of a
//!   binary that serves that registry.
//!
//! A minimal binary serving one experiment (`<binary> demo --seed 1`):
//!
//! ```no_run
//! use ragnar_harness::{run_main, Artifact, Cli, Config, Experiment};
//!
//! struct Demo;
//!
//! impl Experiment for Demo {
//!     fn name(&self) -> &'static str { "demo" }
//!     fn params(&self, _cli: &Cli) -> Vec<Config> {
//!         (0..4u64).map(|i| Config::new().with("i", i)).collect()
//!     }
//!     fn run(&self, config: &Config, seed: u64) -> Result<Artifact, String> {
//!         Ok(Artifact::text(format!("cell {} seed {seed}\n", config.u64("i").unwrap())))
//!     }
//! }
//!
//! fn main() -> std::process::ExitCode { run_main(&[&Demo]) }
//! ```

#![warn(missing_docs)]

pub mod cache;
pub mod cli;
pub mod executor;
pub mod experiment;
pub mod hash;
pub mod manifest;
pub mod report;
pub mod value;

pub use cache::ResultStore;
pub use cli::{dispatch, run_main, run_with_cli, Cli, Command};
pub use executor::{config_seed, ExecOptions, TelemetrySpec};
pub use experiment::{Artifact, Config, Experiment, Outcome, RunRecord};
pub use manifest::Manifest;
pub use report::RunReport;
pub use value::Value;
