//! `paper_regen`: what a user runs to regenerate every table and figure.
//!
//! In-process `ragnar_harness::run_with_cli` for every registry entry in
//! paper order with `--quick --threads 2` on a fresh result store: one
//! cold pass, then one warm pass on the same store. The cold pass sends
//! every cell through the simulator; the warm pass exercises only the
//! harness (params, cache load and checksum, summarize, manifest and
//! report writes). A unit is one `run_with_cli` call: 21 cold, then 21
//! warm.

use std::path::Path;
use std::time::Instant;

use ragnar_harness::{run_with_cli, Cli, Experiment, Value};

use crate::metrics::Report;
use crate::stats::{best_block_percentile, median};
use crate::trace::Recorder;
use crate::Opts;

/// Experiments `--smoke` regenerates: the three cheapest.
const SMOKE: [&str; 3] = ["fig5_mr_uli", "noisy_neighbor", "bankrupt_covert"];
const THREADS: usize = 2;
/// The artifacts are regenerated at the seed every figure binary
/// defaults to, whatever the benchmark seed: `pythia_compare` alone
/// takes 1.0 s at seed 0 but 45 s at seed 10, so a seed-driven regen
/// would time the seed rather than the code.
const SEED: u64 = 0;

/// What one `run_with_cli` call did, read back from its manifest.
struct Pass {
    wall_ms: f64,
    total: u64,
    cached: u64,
    failed: u64,
    digest: String,
    cells_ms: Vec<f64>,
}

impl Pass {
    fn cells_sum(&self) -> f64 {
        self.cells_ms.iter().sum()
    }

    /// Wall time no cell accounts for: wall minus the larger of the
    /// cells' time spread over the threads and the slowest cell.
    fn idle_ms(&self) -> f64 {
        let slowest = self.cells_ms.iter().copied().fold(0.0, f64::max);
        (self.wall_ms - (self.cells_sum() / THREADS as f64).max(slowest)).max(0.0)
    }
}

fn read_manifest(dir: &Path, name: &str) -> Result<Value, String> {
    let path = dir.join(name).join("manifest.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    Value::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn regenerate(
    exp: &dyn Experiment,
    cli: &Cli,
    rec: &mut Recorder,
    unit: u32,
    pass: &'static str,
) -> Result<Pass, String> {
    let span = rec.open(pass, unit);
    let t0 = Instant::now();
    let failed = rec.span("harness.run_with_cli", span, || run_with_cli(exp, cli))?;
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    let m = read_manifest(&cli.results_dir, exp.name())?;
    rec.close(span);
    let field = |k: &str| {
        m.get(k)
            .ok_or_else(|| format!("{}: manifest lacks {k}", exp.name()))
    };
    let int = |k: &str| {
        field(k)?
            .as_i64()
            .and_then(|v| u64::try_from(v).ok())
            .ok_or_else(|| format!("{}: manifest {k} is not a count", exp.name()))
    };
    let cells_ms = field("cells")?
        .as_array()
        .unwrap_or_default()
        .iter()
        .filter_map(|c| c.get("elapsed_ms").and_then(Value::as_f64))
        .collect();
    Ok(Pass {
        wall_ms,
        total: int("configs_total")?,
        cached: int("configs_cached")?,
        failed: int("configs_failed")?.max(failed as u64),
        digest: field("artifact_digest")?
            .as_str()
            .unwrap_or_default()
            .to_string(),
        cells_ms,
    })
}

/// Runs the workload with its result stores under `dir`.
pub fn run(opts: &Opts, rec: &mut Recorder, dir: &Path) -> Result<Report, String> {
    let mut report = Report::default();
    let exps: Vec<&'static dyn Experiment> = ragnar_bench::experiments::registry()
        .into_iter()
        .filter(|e| !opts.smoke || SMOKE.contains(&e.name()))
        .collect();
    let arg = |s: &str| s.to_string();
    let cli = Cli::parse([
        arg("--quick"),
        arg("--seed"),
        SEED.to_string(),
        arg("--threads"),
        THREADS.to_string(),
        arg("--results"),
        dir.join("store").display().to_string(),
    ])
    .map_err(|e| e.0)?;

    // Set-up is every experiment's parameter space. It takes a fraction
    // of a millisecond, so it is built again before every call, which
    // spreads its samples over the whole run; the first build is untimed.
    let params = || {
        let t0 = Instant::now();
        for e in &exps {
            std::hint::black_box(e.params(&cli));
        }
        t0.elapsed().as_secs_f64() * 1e3
    };
    params();
    let mut params_ms = Vec::new();
    let (mut cold, mut warm) = (Vec::new(), Vec::new());
    let n = exps.len();
    for (pass, label, offset) in [(&mut cold, "unit.cold", 0), (&mut warm, "unit.warm", n)] {
        for (i, e) in exps.iter().enumerate() {
            params_ms.push(params());
            pass.push(regenerate(*e, &cli, rec, (offset + i) as u32, label)?);
        }
    }

    for ((e, c), w) in exps.iter().zip(&cold).zip(&warm) {
        let name = e.name();
        report.gate(c.failed == 0 && w.failed == 0, || {
            format!(
                "paper_regen: {name}: {} cold and {} warm cells failed",
                c.failed, w.failed
            )
        });
        report.gate(w.cached == w.total, || {
            format!(
                "paper_regen: {name}: warm pass hit {}/{} cells",
                w.cached, w.total
            )
        });
        report.gate(!c.digest.is_empty() && c.digest == w.digest, || {
            format!(
                "paper_regen: {name}: digest {} cold vs {} warm",
                c.digest, w.digest
            )
        });
        report.attempted += c.total + w.total;
        report.failed += c.failed + w.failed;
        report.count(&format!("cells.{name}"), c.total);
        report
            .digests
            .insert(format!("artifact.{name}"), c.digest.clone());
    }

    let calls: Vec<f64> = cold.iter().chain(&warm).map(|p| p.wall_ms).collect();
    let cold_s = cold.iter().map(|p| p.wall_ms).sum::<f64>() / 1e3;
    let warm_s = warm.iter().map(|p| p.wall_ms).sum::<f64>() / 1e3;
    let params = best_block_percentile(&params_ms, 50.0, crate::BLOCKS);
    report.set("setup_s", params / 1e3, params_ms.len());
    report.set("unit_ms_p50", median(&calls), calls.len());
    crate::print_tail(&calls);
    let cells = report.attempted as f64;
    report.set("work_per_s", cells / (cold_s + warm_s), calls.len());

    if rec.enabled() {
        let warm_cells: f64 = warm.iter().map(|p| p.total as f64).sum();
        report.set("harness.params_ms", params, params_ms.len());
        report.set(
            "harness.cold_cells_ms",
            cold.iter().map(Pass::cells_sum).sum(),
            n,
        );
        report.set(
            "harness.cold_idle_ms",
            cold.iter().map(Pass::idle_ms).sum(),
            n,
        );
        report.set(
            "harness.warm_idle_ms",
            warm.iter().map(Pass::idle_ms).sum(),
            n,
        );
        report.set(
            "harness.warm_load_us_per_cell",
            warm.iter().map(Pass::cells_sum).sum::<f64>() * 1e3 / warm_cells,
            warm_cells as usize,
        );
        report.set(
            "harness.warm_hit_ratio",
            warm.iter().map(|p| p.cached as f64).sum::<f64>() / warm_cells,
            warm_cells as usize,
        );
        report.set("harness.regen_cold_s", cold_s, n);
        report.set("harness.regen_warm_s", warm_s, n);
        for (e, c) in exps.iter().zip(&cold) {
            report.set(
                &format!("experiments.{}.cells_ms", e.name()),
                c.cells_sum(),
                c.cells_ms.len(),
            );
        }
        crate::trace_overhead(&mut report, rec);

        // In-situ engine profile: the smoke experiments, cold, with the
        // harness's own `--profile` switch (it resets the profiler at
        // the start of each call, so each call is read back on its own).
        let mut profiled = cli.clone();
        profiled.profile = true;
        profiled.results_dir = dir.join("profiled");
        let mut total = ragnar_telemetry::profile::ProfileReport::default();
        let subset: Vec<_> = exps.iter().filter(|e| SMOKE.contains(&e.name())).collect();
        for e in &subset {
            run_with_cli(**e, &profiled)?;
            let snap = ragnar_telemetry::profile::snapshot();
            if total.phases.is_empty() {
                total = snap;
            } else {
                for ((_, t), (_, s)) in total.phases.iter_mut().zip(&snap.phases) {
                    t.ns += s.ns;
                    t.calls += s.calls;
                }
            }
        }
        report.set_profile(&total, subset.len());
    }
    Ok(report)
}
