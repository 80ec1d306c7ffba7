//! Fig. 4 (the Grain-I/II contention sweep) and the DESIGN.md §4
//! ablation studies.

use ragnar_core::re::contention::{measure_pair, FlowDirection, FlowSpec, GridConfig, PairConfig};
use ragnar_core::re::offset::{absolute_offset_sweep, mean_where, OffsetSweepConfig};
use ragnar_harness::{Artifact, Cli, Config, Experiment, RunRecord};
use rdma_verbs::{DeviceProfile, Opcode};
use sim_core::SimTime;

use crate::{fmt_pct, fmt_table};

fn opcode_from_str(name: &str) -> Result<Opcode, String> {
    Opcode::ALL
        .iter()
        .copied()
        .find(|op| op.to_string() == name)
        .ok_or_else(|| format!("unknown opcode '{name}'"))
}

fn direction_tag(dir: FlowDirection) -> &'static str {
    match dir {
        FlowDirection::FromClient => "client",
        FlowDirection::ReverseFromServer => "reverse",
    }
}

fn direction_from_tag(tag: &str) -> Result<FlowDirection, String> {
    match tag {
        "client" => Ok(FlowDirection::FromClient),
        "reverse" => Ok(FlowDirection::ReverseFromServer),
        other => Err(format!("unknown flow direction '{other}'")),
    }
}

/// Writes one flow of a contention pair into a config under a prefix.
fn set_flow(config: Config, prefix: &str, flow: FlowSpec) -> Config {
    config
        .with(&format!("{prefix}_op"), flow.opcode.to_string())
        .with(&format!("{prefix}_len"), flow.msg_len)
        .with(&format!("{prefix}_qp"), flow.qp_count)
        .with(&format!("{prefix}_dir"), direction_tag(flow.direction))
}

/// Reads a flow back out of a config.
fn get_flow(config: &Config, prefix: &str) -> Result<FlowSpec, String> {
    let field = |suffix: &str| format!("{prefix}_{suffix}");
    Ok(FlowSpec {
        opcode: opcode_from_str(
            config
                .str(&field("op"))
                .ok_or_else(|| format!("missing {prefix}_op"))?,
        )?,
        msg_len: config
            .u64(&field("len"))
            .ok_or_else(|| format!("missing {prefix}_len"))?,
        qp_count: config
            .u64(&field("qp"))
            .ok_or_else(|| format!("missing {prefix}_qp"))? as usize,
        direction: direction_from_tag(
            config
                .str(&field("dir"))
                .ok_or_else(|| format!("missing {prefix}_dir"))?,
        )?,
    })
}

fn phenomena() -> Vec<(&'static str, FlowSpec, FlowSpec)> {
    vec![
        (
            "\u{2460} small writes lose >50% vs reads",
            FlowSpec::client(Opcode::Write, 64, 1),
            FlowSpec::client(Opcode::Read, 512, 1),
        ),
        (
            "\u{2460} big writes crush reads (crossover \u{2265}512 B)",
            FlowSpec::client(Opcode::Read, 512, 1),
            FlowSpec::client(Opcode::Write, 2048, 1),
        ),
        (
            "\u{2461} atomics follow the write trend",
            FlowSpec::client(Opcode::AtomicFetchAdd, 8, 1),
            FlowSpec::client(Opcode::Write, 2048, 1),
        ),
        (
            "\u{2462} small-write pair: abnormal increment",
            FlowSpec::client(Opcode::Write, 64, 1),
            FlowSpec::client(Opcode::Write, 64, 1),
        ),
        (
            "\u{2463} reverse reads vs writes (Tx > Rx arbiter)",
            FlowSpec::reverse(Opcode::Read, 2048, 2),
            FlowSpec::client(Opcode::Write, 2048, 2),
        ),
    ]
}

/// Fig. 4: competition-caused bandwidth reduction across opcode pairs,
/// message sizes and QP counts — one config per highlighted phenomenon
/// and per grid cell, so the sweep parallelizes and caches cell-by-cell.
pub struct Fig4Contention;

impl Experiment for Fig4Contention {
    fn name(&self) -> &'static str {
        "fig4_contention"
    }

    fn description(&self) -> &'static str {
        "Grain-I/II contention grid and highlighted phenomena (pass --full for the >6000-combination scan)"
    }

    fn params(&self, cli: &Cli) -> Vec<Config> {
        let mut configs = Vec::new();
        for (idx, (label, a, b)) in phenomena().into_iter().enumerate() {
            let config = Config::new()
                .with("kind", "phenomenon")
                .with("idx", idx)
                .with("label", label);
            configs.push(set_flow(set_flow(config, "a", a), "b", b));
        }
        let grid = if cli.flag("--full") {
            GridConfig::default()
        } else {
            GridConfig {
                sizes: vec![64, 512, 2048],
                qp_counts: vec![1, 2],
                shapes: vec![
                    (Opcode::Read, FlowDirection::FromClient),
                    (Opcode::Write, FlowDirection::FromClient),
                ],
            }
        };
        for (a, b) in grid.combos() {
            let config = Config::new().with("kind", "cell");
            configs.push(set_flow(set_flow(config, "a", a), "b", b));
        }
        super::chaos_configs(configs, cli)
    }

    fn run(&self, config: &Config, seed: u64) -> Result<Artifact, String> {
        let a = get_flow(config, "a")?;
        let b = get_flow(config, "b")?;
        let profile = DeviceProfile::connectx4();
        let pair_cfg = PairConfig {
            seed,
            fault_plan: super::chaos_plan(config)?,
            ..PairConfig::default()
        };
        let o = measure_pair(&profile, a, b, &pair_cfg);
        let rendered = match config.str("kind") {
            Some("phenomenon") => {
                let label = config.str("label").ok_or("missing label")?;
                [
                    label.to_string(),
                    crate::fmt_bps(o.solo_a_bps),
                    crate::fmt_bps(o.duo_a_bps),
                    fmt_pct(o.reduction_a()),
                    fmt_pct(o.reduction_b()),
                    format!("{:.2}", o.total_ratio()),
                ]
                .join("\t")
            }
            _ => [
                format!("{} {}B x{}", a.opcode, a.msg_len, a.qp_count),
                format!("{} {}B x{}", b.opcode, b.msg_len, b.qp_count),
                fmt_pct(o.reduction_a()),
                fmt_pct(o.reduction_b()),
                format!("{:.2}", o.total_ratio()),
            ]
            .join("\t"),
        };
        Ok(Artifact::text(rendered)
            .with_metric("solo_a_bps", o.solo_a_bps)
            .with_metric("solo_b_bps", o.solo_b_bps)
            .with_metric("duo_a_bps", o.duo_a_bps)
            .with_metric("duo_b_bps", o.duo_b_bps)
            .with_metric("reduction_a", o.reduction_a())
            .with_metric("reduction_b", o.reduction_b())
            .with_metric("total_ratio", o.total_ratio()))
    }

    fn summarize(&self, records: &[RunRecord], out: &mut String) {
        let (phen, cells): (Vec<_>, Vec<_>) = records
            .iter()
            .partition(|r| r.config.str("kind") == Some("phenomenon"));
        out.push_str("## Fig. 4 — highlighted phenomena (CX-4)\n\n");
        out.push_str(&fmt_table(
            &[
                "phenomenon",
                "A solo",
                "A duo",
                "A loss",
                "B loss",
                "total ratio",
            ],
            &super::tab_rows(phen),
        ));
        let n_combos = cells.len();
        let scan_note = if n_combos > 1000 {
            ", full scan"
        } else {
            ", pass --full for the >6000-combination scan"
        };
        out.push_str(&format!(
            "\n## Fig. 4 — contention grid ({n_combos} combinations{scan_note})\n\n"
        ));
        out.push_str(&fmt_table(
            &[
                "induced flow (A)",
                "inducing flow (B)",
                "A loss",
                "B loss",
                "total",
            ],
            &super::tab_rows(cells),
        ));
    }
}

/// Ablation studies: each DESIGN.md §4 mechanism switched off or
/// resized, and the corresponding Key Finding re-measured. One config
/// per study.
pub struct Ablations;

impl Experiment for Ablations {
    fn name(&self) -> &'static str {
        "ablations"
    }

    fn description(&self) -> &'static str {
        "DESIGN.md ablations: arbiter burst, NoC lane, Tx priority, TPU row buffers"
    }

    fn params(&self, _cli: &Cli) -> Vec<Config> {
        (1u64..=4)
            .map(|study| Config::new().with("study", study))
            .collect()
    }

    fn run(&self, config: &Config, seed: u64) -> Result<Artifact, String> {
        let study = config.u64("study").ok_or("missing study")?;
        let pair_cfg = PairConfig {
            seed,
            ..PairConfig::default()
        };
        let mut s = String::new();
        match study {
            1 => {
                s.push_str("## Ablation 1 — bulk-burst arbiter (KF1 crossover)\n\n");
                let mut rows = Vec::new();
                for burst in [0u32, 2, 8, 16] {
                    let mut p = DeviceProfile::connectx4();
                    p.bulk_burst_segments = burst;
                    let o = measure_pair(
                        &p,
                        FlowSpec::client(Opcode::Read, 512, 1),
                        FlowSpec::client(Opcode::Write, 2048, 1),
                        &pair_cfg,
                    );
                    rows.push(vec![
                        format!("burst {burst}"),
                        fmt_pct(o.reduction_a()),
                        fmt_pct(o.reduction_b()),
                    ]);
                }
                s.push_str(&fmt_table(&["config", "read loss", "write loss"], &rows));
                s.push_str("(burst 0 removes the crossover: reads stop losing to big writes)\n\n");
            }
            2 => {
                s.push_str("## Ablation 2 — NoC activation (KF2 abnormal increment)\n\n");
                let mut rows = Vec::new();
                for (label, speedup) in
                    [("NoC lane on (x0.45)", 0.45), ("NoC lane off (x1.0)", 1.0)]
                {
                    let mut p = DeviceProfile::connectx4();
                    p.noc_speedup = speedup;
                    let o = measure_pair(
                        &p,
                        FlowSpec::client(Opcode::Write, 64, 1),
                        FlowSpec::client(Opcode::Write, 64, 1),
                        &pair_cfg,
                    );
                    rows.push(vec![label.to_string(), format!("{:.2}", o.total_ratio())]);
                }
                s.push_str(&fmt_table(&["config", "combined / solo ratio"], &rows));
                s.push_str("(without the lane the combined throughput stays below 200%)\n\n");
            }
            3 => {
                s.push_str("## Ablation 3 — Tx-over-Rx strict priority (KF3)\n\n");
                let mut rows = Vec::new();
                for (label, strict) in [("strict Tx>Rx", true), ("round-robin", false)] {
                    let mut p = DeviceProfile::connectx4();
                    p.tx_strict_priority = strict;
                    let o = measure_pair(
                        &p,
                        FlowSpec::reverse(Opcode::Read, 2048, 2),
                        FlowSpec::client(Opcode::Write, 2048, 2),
                        &pair_cfg,
                    );
                    rows.push(vec![label.to_string(), fmt_pct(o.reduction_a())]);
                }
                s.push_str(&fmt_table(
                    &["egress arbitration", "reverse-read loss"],
                    &rows,
                ));
                s.push_str("(equalizing the arbiters erases the yellow-box asymmetry)\n\n");
            }
            4 => {
                s.push_str("## Ablation 4 — TPU row buffers (KF4 2048 B periodicity)\n\n");
                let offsets: Vec<u64> = (0..18432u64).step_by(64).collect();
                let mut rows = Vec::new();
                for buffers in [1usize, 2, 4] {
                    let mut p = DeviceProfile::connectx4();
                    p.tpu_row_buffers = buffers;
                    let cfg = OffsetSweepConfig {
                        offsets: offsets.clone(),
                        horizon: SimTime::from_micros(100),
                        seed,
                        ..OffsetSweepConfig::default()
                    };
                    let points = absolute_offset_sweep(&p, &cfg);
                    // Conflict parity is relative to offset 0's row for
                    // the probe's alternating pattern; with B buffers,
                    // rows congruent to 0 mod B ping-pong against row 0.
                    let cell = if buffers == 1 {
                        "no periodicity (all rows conflict)".to_string()
                    } else {
                        let hi =
                            mean_where(&points, |o| o >= 2048 && (o / 2048) % buffers as u64 == 0);
                        let lo =
                            mean_where(&points, |o| o >= 2048 && (o / 2048) % buffers as u64 != 0);
                        format!("{:.1} ns", hi - lo)
                    };
                    rows.push(vec![format!("{buffers} row buffer(s)"), cell]);
                }
                s.push_str(&fmt_table(
                    &["TPU geometry", "2048 B-periodic ULI swing"],
                    &rows,
                ));
            }
            other => return Err(format!("unknown ablation study {other}")),
        }
        Ok(Artifact::text(s))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig4_sweeps_the_phenomena_then_the_grid() {
        // The grid's enumeration order is pinned by the fig4 golden digest.
        assert_eq!(GridConfig::default().combos().len(), 6400);
        assert_eq!(Fig4Contention.params(&Cli::default()).len(), 149);
    }
}
