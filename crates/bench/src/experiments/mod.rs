//! The experiment behind every figure and table, as
//! [`ragnar_harness::Experiment`] implementations listed in
//! [`registry`], which the `ragnar` binary serves.
//!
//! Each experiment declares its parameter space in `params` (one
//! [`Config`](ragnar_harness::Config) per independently cacheable cell)
//! and measures one cell in `run`; the harness handles scheduling,
//! seeding, caching and the run manifest. `summarize` reassembles the
//! experiment's report from its cells.

pub mod cluster;
pub mod contention;
pub mod covert;
pub mod defense;
pub mod offset;
pub mod side;
pub mod tables;
pub mod uli;

use ragnar_harness::{Cli, Config, Experiment, Outcome, RunRecord};
use rdma_verbs::{DeviceKind, FaultPlan, PlanParams};

/// Every experiment of the reproduction, in paper order.
pub fn registry() -> Vec<&'static dyn Experiment> {
    vec![
        &tables::Table23,
        &contention::Fig4Contention,
        &uli::Fig5MrUli,
        &offset::Fig6AbsOffset,
        &offset::Fig7AbsOffset1k,
        &offset::Fig8RelOffset,
        &covert::Fig9PriorityChannel,
        &uli::Fig10UliDecode,
        &uli::Fig11InterMr,
        &side::Fig12Fingerprint,
        &side::Fig13Snoop,
        &side::Fig13Classifier,
        &covert::Table5Covert,
        &covert::PythiaCompare,
        &covert::CapacityStudy,
        &covert::RobustnessStudy,
        &contention::Ablations,
        &defense::MitigationStudy,
        &defense::RocStudy,
        &cluster::NoisyNeighbor,
        &cluster::BankruptCovert,
    ]
}

/// Threads the shared chaos flags into a config, so fault plans become
/// part of the cache key (a chaos run never collides with a clean run).
/// `--chaos-plan` files are inlined as text — the key captures the plan
/// *content*, not the path; `--chaos-seed` stores the seed and the plan
/// is regenerated deterministically at run time.
///
/// # Panics
///
/// Panics if the `--chaos-plan` file cannot be read (params has no error
/// channel; a missing plan file is a fatal CLI mistake).
pub(crate) fn chaos_configs(configs: Vec<Config>, cli: &Cli) -> Vec<Config> {
    if cli.chaos_plan.is_none() && cli.chaos_seed.is_none() {
        return configs;
    }
    let text = cli.chaos_plan.as_ref().map(|path| {
        std::fs::read_to_string(path)
            .unwrap_or_else(|e| panic!("cannot read --chaos-plan {}: {e}", path.display()))
    });
    configs
        .into_iter()
        .map(|c| match &text {
            Some(t) => c.with("chaos_plan", t.as_str()),
            None => c.with("chaos_seed", cli.chaos_seed.expect("checked above")),
        })
        .collect()
}

/// Reconstructs the fault plan recorded by [`chaos_configs`], if any.
pub(crate) fn chaos_plan(config: &Config) -> Result<Option<FaultPlan>, String> {
    if let Some(text) = config.str("chaos_plan") {
        return FaultPlan::parse(text)
            .map(Some)
            .map_err(|e| format!("invalid chaos plan: {e}"));
    }
    if let Some(seed) = config.u64("chaos_seed") {
        return Ok(Some(FaultPlan::generate(seed, &PlanParams::default())));
    }
    Ok(None)
}

/// Threads `--topology` into each config, so the fabric is part of
/// every cache key (a leaf-spine run never collides with a `p2p` run,
/// and two spellings of the same fabric share cells — the CLI validated
/// and canonicalized the spec at parse time). Absent flag ⇒ configs
/// untouched ⇒ digests untouched.
pub(crate) fn topology_configs(configs: Vec<Config>, cli: &Cli) -> Vec<Config> {
    let Some(spec) = &cli.topology else {
        return configs;
    };
    configs
        .into_iter()
        .map(|c| c.with("topology", spec.as_str()))
        .collect()
}

/// Rebuilds the fabric recorded by [`topology_configs`] (`None` for
/// cells that name none, which run on the default `p2p` crossbar).
pub(crate) fn topology_from(config: &Config) -> Result<Option<rdma_verbs::Topology>, String> {
    match config.str("topology") {
        Some(s) => rdma_verbs::Topology::from_spec(s)
            .map(Some)
            .map_err(|e| e.to_string()),
        None => Ok(None),
    }
}

/// Parses a device name stored in a config ("CX-4" … "CX-6").
pub(crate) fn device_kind(name: &str) -> Result<DeviceKind, String> {
    DeviceKind::ALL
        .iter()
        .copied()
        .find(|k| k.name() == name)
        .ok_or_else(|| format!("unknown device '{name}'"))
}

/// Splits each successful record's rendered fragment on tabs, yielding
/// table rows in config order. Failed records are skipped (the harness
/// already reports them).
pub(crate) fn tab_rows<'r>(records: impl IntoIterator<Item = &'r RunRecord>) -> Vec<Vec<String>> {
    records
        .into_iter()
        .filter_map(|r| match &r.outcome {
            Outcome::Done(a) => Some(
                a.rendered
                    .trim_end_matches('\n')
                    .split('\t')
                    .map(str::to_string)
                    .collect(),
            ),
            _ => None,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_names_are_unique_and_stable() {
        let names: Vec<&str> = registry().iter().map(|e| e.name()).collect();
        let mut dedup = names.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len(), "duplicate experiment name");
        assert_eq!(names.len(), 21);
        assert!(names.contains(&"fig4_contention"));
        assert!(names.contains(&"noisy_neighbor"));
        assert!(names.contains(&"bankrupt_covert"));
    }

    #[test]
    fn every_experiment_has_params_and_description() {
        let cli = ragnar_harness::Cli::default();
        for exp in registry() {
            assert!(
                !exp.description().is_empty(),
                "{} lacks a description",
                exp.name()
            );
            assert!(
                !exp.params(&cli).is_empty(),
                "{} has an empty parameter space",
                exp.name()
            );
        }
    }

    #[test]
    fn device_kind_roundtrip() {
        for kind in DeviceKind::ALL {
            assert_eq!(device_kind(kind.name()), Ok(kind));
        }
        assert!(device_kind("CX-9").is_err());
    }
}
