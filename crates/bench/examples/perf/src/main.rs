//! `perf`: one outside-in benchmark of the Ragnar simulator.
//!
//! ```text
//! perf [--workload <name>|all] [--seed <n>] [--seconds <s>] [--trace <0|1>]
//!      [--trace-file <path>] [--json <path>]
//! perf --smoke [--trace <0|1>]
//! perf compare <base.jsonl> <new.jsonl>
//! ```
//!
//! Every simulation input is built from `--seed` (`paper_regen` always
//! regenerates the paper at seed 0; see regen.rs). Each workload runs untimed
//! warm-up units and its correctness gates, then timed units until
//! `--seconds` have passed, timing the calls into each layer's public
//! API from outside. `--trace 0` reports the end-to-end metrics,
//! `--trace 1` the per-layer ones (spans in memory, written as Chrome
//! `trace_event` JSON to `--trace-file`). The last line of standard
//! output is one JSON object per workload; `--json` appends a fuller
//! record (sample counts, work counts, digests) that `perf compare`
//! reads. Any failed gate exits 1. See README.md.

mod compare;
mod fabric;
mod metrics;
mod regen;
mod stats;
mod storm;
mod trace;

use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use ragnar_harness::Value;
use ragnar_telemetry::profile::{self, ProfileReport};
use rdma_verbs::{HostId, LinkId, Simulation};
use sim_core::{CalendarQueue, SimDuration, SimRng, SimTime};

use metrics::Report;
use stats::{best_block_percentile, median, percentile};
use trace::Recorder;

/// The workloads, in run order.
pub const WORKLOADS: [&str; 4] = [
    "nic_storm",
    "fabric_incast",
    "fabric_incast_w2",
    "paper_regen",
];

pub struct Opts {
    pub seed: u64,
    pub seconds: f64,
    /// About 1/20 of every workload, for a quick check of all gates.
    pub smoke: bool,
}

impl Opts {
    pub fn scaled(&self, full: usize, smoke: usize) -> usize {
        if self.smoke {
            smoke
        } else {
            full
        }
    }
}

/// One simulation unit: its set-up and run times and what it computed.
pub struct Unit {
    pub setup_ns: u64,
    pub run_ns: u64,
    pub counts: UnitCounts,
}

/// One simulation unit's deterministic outcome. Every unit of a run has
/// the same inputs, so every unit must produce these same values.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct UnitCounts {
    pub digest: u64,
    pub events: u64,
    pub coalesced_hops: u64,
    pub arena_allocs: u64,
    pub arena_high_water: u64,
    pub dup_clones: u64,
    pub wqes: u64,
    pub tpu_lookups: u64,
    pub cqes: u64,
    pub retransmits: u64,
    pub sent: u64,
    pub delivered: u64,
    pub dropped: u64,
    pub pfc_pauses: u64,
    pub wrs_posted: u64,
    pub wrs_completed: u64,
    /// Rejected posts plus error completions.
    pub failed: u64,
}

impl UnitCounts {
    /// Reads the simulator's own ledgers over hosts `0..hosts`.
    pub fn of(sim: &Simulation, hosts: u32) -> UnitCounts {
        let arena = sim.packet_arena_stats();
        let fabric = sim.fabric_stats();
        let mut c = UnitCounts {
            digest: sim.order_digest(),
            events: sim.events_processed(),
            coalesced_hops: sim.coalesced_hops(),
            arena_allocs: arena.allocs,
            arena_high_water: arena.high_water,
            dup_clones: arena.dup_clones,
            sent: fabric.sent,
            delivered: fabric.delivered,
            dropped: fabric.dropped,
            ..UnitCounts::default()
        };
        for h in 0..hosts {
            let n = sim.counters(HostId(h));
            c.wqes += n.wqes_fetched;
            c.tpu_lookups += n.tpu_lookups;
            c.cqes += n.cqes_delivered;
            c.retransmits += n.retransmits;
        }
        if let Some(topo) = sim.topology() {
            c.pfc_pauses = (0..topo.links().len() as u32)
                .filter_map(|i| sim.link_counters(LinkId(i)))
                .map(|p| p.pauses_taken)
                .sum();
        }
        c
    }

    fn entries(&self) -> [(&'static str, u64); 16] {
        [
            ("events_per_unit", self.events),
            ("coalesced_hops_per_unit", self.coalesced_hops),
            ("arena_allocs_per_unit", self.arena_allocs),
            ("arena_high_water", self.arena_high_water),
            ("dup_clones_per_unit", self.dup_clones),
            ("wqes_per_unit", self.wqes),
            ("tpu_lookups_per_unit", self.tpu_lookups),
            ("cqes_per_unit", self.cqes),
            ("retransmits_per_unit", self.retransmits),
            ("sent_per_unit", self.sent),
            ("delivered_per_unit", self.delivered),
            ("dropped_per_unit", self.dropped),
            ("pfc_pauses_per_unit", self.pfc_pauses),
            ("wrs_posted_per_unit", self.wrs_posted),
            ("wrs_completed_per_unit", self.wrs_completed),
            ("failed_per_unit", self.failed),
        ]
    }
}

/// Timed samples of identical work are split into this many consecutive
/// blocks (tenths of the run) and each timing is read in the
/// least-disturbed one; see [`stats::best_block_percentile`].
pub const BLOCKS: usize = 10;

/// Times units from `unit`, at least `min` and then until `--seconds`
/// have passed, and reports the end-to-end metrics, the work counts and,
/// when tracing, the per-layer rows. Every unit must repeat `first`.
pub fn timed_units(
    opts: &Opts,
    min: usize,
    first: &UnitCounts,
    report: &mut Report,
    rec: &mut Recorder,
    mut unit: impl FnMut(&mut Recorder, u32) -> Unit,
) {
    let deadline = Instant::now() + Duration::from_secs_f64(opts.seconds);
    let (mut setup, mut run) = (Vec::new(), Vec::new());
    while run.len() < min || Instant::now() < deadline {
        let u = unit(rec, run.len() as u32);
        report.gate(u.counts == *first, || {
            format!("unit {} diverged: {:?} vs {:?}", run.len(), u.counts, first)
        });
        report.attempted += u.counts.wrs_posted;
        report.failed += u.counts.failed;
        setup.push(u.setup_ns as f64 / 1e6);
        run.push(u.run_ns as f64 / 1e6);
    }
    let wall: Vec<f64> = setup.iter().zip(&run).map(|(s, r)| s + r).collect();
    let n = run.len();
    let setup_s = best_block_percentile(&setup, 50.0, BLOCKS) / 1e3;
    report.set("setup_s", setup_s, n);
    report.set("unit_ms_p50", best_block_percentile(&run, 50.0, BLOCKS), n);
    let unit_s = best_block_percentile(&wall, 50.0, BLOCKS) / 1e3;
    report.set("work_per_s", first.wrs_completed as f64 / unit_s, n);
    print_tail(&run);
    for (k, v) in first.entries() {
        report.count(k, v);
    }
    report
        .digests
        .insert("order_digest".into(), format!("{:016x}", first.digest));
    if rec.enabled() {
        trace_metrics(report, rec, n, first);
    }
}

/// Prints on stderr the highest percentile of the unit times that has at
/// least ten samples beyond it. A diagnostic, not a metric: on a shared
/// host the tail moves with other tenants more than with the code.
pub fn print_tail(units_ms: &[f64]) {
    let n = units_ms.len();
    match stats::highest_resolved_percentile(n) {
        Some(p) => eprintln!(
            "  tail: unit p{p} = {:.4} ms over {n} units",
            percentile(units_ms, p)
        ),
        None => eprintln!("  tail: {n} units are too few for a resolved percentile"),
    }
}

/// Per-layer rows of a traced simulation workload over `units` units.
fn trace_metrics(report: &mut Report, rec: &Recorder, units: usize, c: &UnitCounts) {
    let totals = rec.totals();
    let get = |name: &str| totals.get(name).copied().unwrap_or_default();
    let per_call = |(ns, calls, _): (u64, u64, u64)| {
        if calls == 0 {
            0.0
        } else {
            ns as f64 / calls as f64
        }
    };
    let u = units.max(1) as f64;
    let (run_ns, _, run_self) = {
        let (a, b) = (
            get("rdma_verbs.run_until"),
            get("rdma_verbs.run_until_workers"),
        );
        (a.0 + b.0, a.1 + b.1, a.2 + b.2)
    };
    let build_ns = ["rdma_verbs.new", "rdma_verbs.add_host", "rdma_verbs.wire"]
        .iter()
        .map(|n| get(n).0)
        .sum::<u64>();
    let rows = [
        ("sim_core.events_per_unit", c.events as f64),
        (
            "sim_core.ns_per_event",
            run_ns as f64 / (c.events as f64 * u),
        ),
        ("rnic_model.wqes_per_unit", c.wqes as f64),
        ("rnic_model.tpu_lookups_per_unit", c.tpu_lookups as f64),
        ("rnic_model.cqes_per_unit", c.cqes as f64),
        ("rnic_model.arena_allocs_per_unit", c.arena_allocs as f64),
        ("rnic_model.arena_high_water", c.arena_high_water as f64),
        (
            "rnic_model.retransmit_ratio",
            c.retransmits as f64 / c.wqes.max(1) as f64,
        ),
        (
            "rdma_verbs.run_until_ms_per_unit",
            run_self as f64 / u / 1e6,
        ),
        (
            "rdma_verbs.post_send_ns",
            per_call(get("rdma_verbs.post_send")),
        ),
        (
            "rdma_verbs.take_completions_ns",
            per_call(get("rdma_verbs.take_completions")),
        ),
        (
            "rdma_verbs.coalesced_hops_per_unit",
            c.coalesced_hops as f64,
        ),
        ("rdma_verbs.build_ms", build_ns as f64 / u / 1e6),
        (
            "rdma_verbs.add_host_us",
            per_call(get("rdma_verbs.add_host")) / 1e3,
        ),
        (
            "topology.from_spec_ms",
            get("topology.from_spec").0 as f64 / u / 1e6,
        ),
        ("topology.sent_per_unit", c.sent as f64),
        ("topology.delivered_per_unit", c.delivered as f64),
        ("topology.dropped_per_unit", c.dropped as f64),
        ("topology.pfc_pauses_per_unit", c.pfc_pauses as f64),
    ];
    for (name, v) in rows {
        report.set(name, v, units);
    }
    trace_overhead(report, rec);
}

/// The recorder's own cost and the time no layer call covers.
pub fn trace_overhead(report: &mut Report, rec: &Recorder) {
    let roots: Vec<u64> = rec
        .spans()
        .iter()
        .filter(|s| s.parent.is_none())
        .map(|s| s.dur_ns)
        .collect();
    let traced_ns = roots.iter().sum::<u64>().max(1) as f64;
    let cost_ns = rec.clock_reads() as f64 * trace::clock_read_ns();
    report.set(
        "trace.overhead_pct",
        100.0 * cost_ns / traced_ns,
        roots.len(),
    );
    report.set(
        "trace.unattributed_pct",
        rec.unattributed_pct(),
        roots.len(),
    );
}

/// Runs `f` with the engine's phase profiler armed.
pub fn profiled<R>(f: impl FnOnce() -> R) -> (R, ProfileReport) {
    profile::reset();
    profile::set_enabled(true);
    let out = f();
    profile::set_enabled(false);
    (out, profile::snapshot())
}

/// The calendar queue alone: eventcore's churn at 100k events in
/// flight. Returns ns per pop+reschedule (median of 5) and a checksum
/// of the popped payloads.
fn churn_probe() -> (f64, u64) {
    const IN_FLIGHT: u64 = 100_000;
    const OPS: u64 = 200_000;
    let mut checksum = 0;
    let times: Vec<f64> = (0..5)
        .map(|_| {
            let mut q = CalendarQueue::<u64>::new();
            let mut rng = SimRng::seed_from(42);
            let mut t = SimTime::ZERO;
            for i in 0..IN_FLIGHT {
                t += SimDuration::from_picos(rng.uniform_range(1, 20_000));
                q.schedule(t, i);
            }
            let mut acc = 0u64;
            let t0 = Instant::now();
            for _ in 0..OPS {
                let (at, v) = q.pop().expect("population stays constant");
                acc = acc.wrapping_add(v);
                q.schedule(
                    at + SimDuration::from_picos(rng.uniform_range(1, 1_000_000)),
                    v,
                );
            }
            let ns = t0.elapsed().as_nanos() as f64 / OPS as f64;
            while let Some((_, v)) = q.pop() {
                acc = acc.wrapping_add(v);
            }
            checksum = std::hint::black_box(acc);
            ns
        })
        .collect();
    (median(&times), checksum)
}

fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    stats::parse_vm_hwm_mib(&status).ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// Working directory for one workload's files, inside the build's
/// target directory (next to this executable's profile directory).
fn work_dir(workload: &str) -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let target = exe
        .parent()
        .and_then(Path::parent)
        .ok_or("executable has no target directory")?;
    let dir = target
        .join("perf-work")
        .join(format!("{workload}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(dir)
}

fn run_workload(name: &str, opts: &Opts, rec: &mut Recorder) -> Result<Report, String> {
    // Resets VmHWM, so the peak below is this workload's alone. Where
    // the kernel refuses, the peak covers the process so far.
    let _ = std::fs::write("/proc/self/clear_refs", "5");
    let mut report = match name {
        "nic_storm" => storm::run(opts, rec),
        "fabric_incast" => fabric::run(opts, 1, rec),
        "fabric_incast_w2" => fabric::run(opts, 2, rec),
        "paper_regen" => {
            let dir = work_dir(name)?;
            let out = regen::run(opts, rec, &dir);
            let _ = std::fs::remove_dir_all(&dir);
            out?
        }
        other => return Err(format!("unknown workload '{other}'")),
    };
    report.set("peak_rss_mb", peak_rss_mib()?, 1);
    if rec.enabled() {
        let (ns, checksum) = churn_probe();
        report.set("sim_core.churn_ns_per_op", ns, 5);
        report.count("churn_checksum", checksum);
    }
    Ok(report)
}

fn print_report(name: &str, opts: &Opts, traced: bool, report: &Report) {
    eprintln!(
        "== {name} (seed {}, trace {}) ==",
        opts.seed,
        u8::from(traced)
    );
    for row in metrics::rows(traced) {
        let m = report.metrics.get(&row.name).copied();
        eprintln!(
            "  {:<40} {:>16.4} {:<6} {:<6} n={}",
            row.name,
            m.map_or(0.0, |m| m.value),
            row.unit,
            row.better.name(),
            m.map_or(0, |m| m.n),
        );
    }
    eprintln!("  attempted {} failed {}", report.attempted, report.failed);
    for (k, v) in &report.counts {
        eprintln!("  count  {k:<32} {v}");
    }
    for (k, v) in &report.digests {
        eprintln!("  digest {k:<32} {v}");
    }
    for g in &report.gate_failures {
        eprintln!("  GATE FAILED: {g}");
    }
}

/// The result line the benchmark contract asks for.
fn result_line(report: &Report, traced: bool) -> Value {
    let mut v = Value::object();
    v.set("correct", report.gate_failures.is_empty());
    v.set("attempted", report.attempted);
    v.set("failed", report.failed);
    v.set("metrics", report.metrics_value(traced, false));
    v
}

/// The fuller record `--json` appends and `perf compare` reads.
fn record(name: &str, opts: &Opts, traced: bool, report: &Report) -> Value {
    let mut v = Value::object();
    v.set("workload", name);
    v.set("seed", opts.seed);
    v.set("seconds", opts.seconds);
    v.set("smoke", opts.smoke);
    v.set("trace", traced);
    v.set(
        "nproc",
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    );
    v.set("correct", report.gate_failures.is_empty());
    v.set(
        "gate_failures",
        Value::Array(
            report
                .gate_failures
                .iter()
                .map(|g| Value::from(g.as_str()))
                .collect(),
        ),
    );
    v.set("attempted", report.attempted);
    v.set("failed", report.failed);
    v.set("metrics", report.metrics_value(traced, true));
    let mut counts = Value::object();
    for (k, c) in &report.counts {
        counts.set(k, *c);
    }
    v.set("counts", counts);
    let mut digests = Value::object();
    for (k, d) in &report.digests {
        digests.set(k, d.as_str());
    }
    v.set("digests", digests);
    v
}

struct Args {
    workloads: Vec<String>,
    opts: Opts,
    traced: bool,
    trace_file: Option<PathBuf>,
    json: Option<PathBuf>,
}

const USAGE: &str = "usage: perf [--workload <nic_storm|fabric_incast|fabric_incast_w2|paper_regen|all>]\n\
                     \x20           [--seed <n>] [--seconds <s>] [--trace <0|1>] [--trace-file <path>] [--json <path>]\n\
                     \x20      perf --smoke [--trace <0|1>]\n\
                     \x20      perf compare <base.jsonl> <new.jsonl>";

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workloads: WORKLOADS.iter().map(|w| w.to_string()).collect(),
        opts: Opts {
            seed: 1,
            seconds: 15.0,
            smoke: false,
        },
        traced: false,
        trace_file: None,
        json: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let w = value()?;
                if w != "all" {
                    if !WORKLOADS.contains(&w.as_str()) {
                        return Err(format!("unknown workload '{w}'"));
                    }
                    a.workloads = vec![w.clone()];
                }
            }
            "--seed" => a.opts.seed = value()?.parse().map_err(|_| "--seed needs an integer")?,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|_| "--seconds needs a number")?;
                if !(0.0..=3600.0).contains(&s) {
                    return Err("--seconds must be within 0..=3600".into());
                }
                a.opts.seconds = s;
            }
            "--trace" => {
                a.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got '{other}'")),
                }
            }
            "--trace-file" => a.trace_file = Some(PathBuf::from(value()?)),
            "--json" => a.json = Some(PathBuf::from(value()?)),
            "--smoke" => {
                a.opts.smoke = true;
                a.opts.seconds = 0.0;
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    if a.opts.smoke {
        a.workloads = WORKLOADS.iter().map(|w| w.to_string()).collect();
    }
    Ok(a)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        return match args.as_slice() {
            [_, base, new] => match compare::compare(Path::new(base), Path::new(new)) {
                Ok(true) => ExitCode::SUCCESS,
                Ok(false) => ExitCode::FAILURE,
                Err(e) => {
                    eprintln!("error: {e}");
                    ExitCode::from(2)
                }
            },
            _ => {
                eprintln!("{USAGE}");
                ExitCode::from(2)
            }
        };
    }
    let a = match parse_args(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let started = Instant::now();
    let mut ok = true;
    let mut trace_events = Vec::new();
    for (pid, name) in a.workloads.iter().enumerate() {
        let mut rec = Recorder::new(a.traced);
        let report = match run_workload(name, &a.opts, &mut rec) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("error: {name}: {e}");
                return ExitCode::FAILURE;
            }
        };
        ok &= report.gate_failures.is_empty();
        print_report(name, &a.opts, a.traced, &report);
        if a.trace_file.is_some() {
            trace_events.extend(rec.chrome_events(pid + 1, name));
        }
        if let Some(path) = &a.json {
            let line = record(name, &a.opts, a.traced, &report).encode();
            let appended = std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(path)
                .and_then(|mut f| writeln!(f, "{line}"));
            if let Err(e) = appended {
                eprintln!("error: {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        }
        println!("{}", result_line(&report, a.traced).encode());
    }
    if let Some(path) = &a.trace_file {
        if let Err(e) = std::fs::write(path, trace::chrome_json(&trace_events)) {
            eprintln!("error: {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        eprintln!("trace: {} events -> {}", trace_events.len(), path.display());
    }
    eprintln!(
        "{} workload(s) in {:.1} s; {}",
        a.workloads.len(),
        started.elapsed().as_secs_f64(),
        if ok {
            "all gates passed"
        } else {
            "GATES FAILED"
        }
    );
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::END_TO_END;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(&list.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn arguments_parse() {
        let a = args(&[
            "--workload",
            "nic_storm",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .expect("parses");
        assert_eq!(a.workloads, ["nic_storm"]);
        assert_eq!(a.opts.seed, 7);
        assert_eq!(a.opts.seconds, 10.0);
        assert!(a.traced && !a.opts.smoke);
        assert_eq!(
            args(&[]).expect("defaults").workloads.len(),
            WORKLOADS.len()
        );
        let smoke = args(&["--smoke"]).expect("smoke");
        assert!(smoke.opts.smoke && smoke.opts.seconds == 0.0);
        for bad in [
            &["--workload", "bogus"][..],
            &["--trace", "2"],
            &["--seed"],
            &["--seconds", "-1"],
            &["--frobnicate"],
        ] {
            assert!(args(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn end_to_end_bounds_are_within_the_contract() {
        for m in &END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s");
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }
}
