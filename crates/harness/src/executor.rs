//! The parallel sweep executor.
//!
//! One shared cursor hands out configs in order: every worker
//! `fetch_add`s the next config index and stops once the cursor passes
//! the end, so a straggler config never idles the rest of the pool and
//! there is no per-worker queue to balance. `threads - 1` scoped workers
//! run beside the calling thread, which works the cursor too (at
//! `threads` 1 every cell runs inline on the caller). Determinism is
//! preserved at any thread count because each config's seed is derived
//! from the config's *content* ([`sim_core::derive_seed`] over its
//! canonical encoding), never from scheduling order.
//!
//! Sweeps that outlast `PROGRESS_AFTER` (2 s) print a `progress:` line
//! on stderr (cells done, events/s, ETA). The worker that finishes a
//! cell prints it, at most once per `PROGRESS_PERIOD` (500 ms); there is
//! no reporter thread, so the sweep returns as soon as its last cell
//! ends.
//!
//! The executor is also the harness's supervision layer:
//!
//! * A panicking config is caught, recorded as a failure, and the sweep
//!   continues — one bad combination in a 6000-cell grid costs one
//!   cell, not the run. Panic-hook suppression is scoped to the cell
//!   threads via [`sim_core::supervised_section`]; panics on threads
//!   nobody supervises stay loud.
//! * With [`ExecOptions::cell_timeout`] set, each cell runs on its own
//!   watchdog-monitored thread; a cell that overruns its budget is
//!   declared hung and the worker moves on (the hung thread is joined at
//!   sweep end, so process exit waits for it, but scheduling does not).
//! * Every cell runs exactly once: it is a pure function of its config
//!   and seed, so a second attempt would repeat the same computation.
//!   A failed or timed-out cell's record carries a ready-to-paste
//!   minimal-repro command.
//! * A panic message starting with `[monitor-abort]` (the
//!   [`ViolationPolicy::AbortRun`](ragnar_telemetry::ViolationPolicy::AbortRun)
//!   spelling) trips a
//!   sweep-wide abort: cells not yet started are recorded as
//!   [`Outcome::Skipped`], already-running cells finish, and everything
//!   completed so far is salvaged — per-cell results are persisted as
//!   they finish, so the store and manifest stay crash-consistent.

use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::Mutex;
use std::thread::Scope;
use std::time::{Duration, Instant};

use ragnar_telemetry::{
    ActorId, ArgValue, Event, EventKind, MonitorConfig, RunCtx, Session, SessionReport, Target,
    TargetSet,
};

use crate::cache::ResultStore;
use crate::experiment::{Artifact, Config, Experiment, Outcome, RunRecord};
use crate::hash;

/// Events buffered per traced cell before the ring starts evicting the
/// oldest (evictions are counted and reported, never silent).
pub const TRACE_RING_CAPACITY: usize = 1 << 20;

/// How long a sweep must run before the progress line speaks up —
/// quick sweeps finish silently.
const PROGRESS_AFTER: Duration = Duration::from_secs(2);

/// Minimum spacing between two progress lines.
const PROGRESS_PERIOD: Duration = Duration::from_millis(500);

/// What the executor should observe about each cell. None of it enters
/// configs or cache keys — it is an observer, not an input. Every
/// executed cell runs under a [`RunCtx`] built from this spec.
#[derive(Debug, Clone)]
pub struct TelemetrySpec {
    /// Buffer structured trace events per cell.
    pub trace: bool,
    /// Which layers' events to accept when tracing.
    pub filter: TargetSet,
    /// Collect a per-cell metrics report.
    pub metrics: bool,
    /// Run every simulation of the cell under the online invariant
    /// monitors (`--monitors`).
    pub monitors: Option<MonitorConfig>,
}

impl Default for TelemetrySpec {
    fn default() -> Self {
        TelemetrySpec {
            trace: false,
            filter: TargetSet::ALL,
            metrics: false,
            monitors: None,
        }
    }
}

impl TelemetrySpec {
    /// Whether any observation is requested. An observed cell always
    /// executes: a cache hit would skip the work the tracer, metrics or
    /// monitors are meant to observe.
    pub fn observes(&self) -> bool {
        self.trace || self.metrics || self.monitors.is_some()
    }

    /// The per-cell session, when trace events or metrics are kept.
    fn session(&self) -> Option<Session> {
        let filter = if self.trace {
            self.filter
        } else {
            TargetSet::EMPTY
        };
        (self.trace || self.metrics)
            .then(|| Session::new(filter, TRACE_RING_CAPACITY, self.metrics))
    }
}

/// Executor tuning knobs.
#[derive(Debug, Clone)]
pub struct ExecOptions {
    /// Worker thread count (1 = run inline on the caller).
    pub threads: usize,
    /// Per-cell observation. When it [observes](TelemetrySpec::observes)
    /// anything, cache reads are bypassed so every cell actually executes
    /// under its run context; cache writes still refresh the store, and
    /// keys are unchanged — artifacts are observation-invariant.
    pub telemetry: TelemetrySpec,
    /// Wall-clock watchdog per cell. `None` (default) trusts cells to
    /// terminate; `Some(budget)` runs each cell on its own thread and
    /// declares it hung past the budget.
    pub cell_timeout: Option<Duration>,
}

impl Default for ExecOptions {
    fn default() -> Self {
        ExecOptions {
            threads: default_threads(),
            telemetry: TelemetrySpec::default(),
            cell_timeout: None,
        }
    }
}

/// The machine's available parallelism (≥ 1).
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Derives the seed for one config of one experiment.
///
/// Depends only on `(master_seed, experiment name, config content)`, so
/// every schedule — any thread count, any cell order, a resumed
/// partial sweep — hands the config the same seed.
pub fn config_seed(master_seed: u64, experiment: &str, config: &Config) -> u64 {
    sim_core::derive_seed(master_seed, &format!("{experiment}/{}", config.canonical()))
}

/// Sweep-wide abort latch: set by the first `[monitor-abort]` panic,
/// read by workers before starting each cell.
struct AbortState(Mutex<Option<String>>);

impl AbortState {
    fn reason(&self) -> Option<String> {
        self.0
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .clone()
    }

    fn trip(&self, reason: &str) {
        self.0
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .get_or_insert_with(|| reason.to_string());
    }
}

/// Everything a worker needs to run cells, shared for the sweep.
struct SweepCtx<'env> {
    exp: &'env dyn Experiment,
    configs: &'env [Config],
    master_seed: u64,
    store: Option<&'env ResultStore>,
    /// The build fingerprint cache keys carry; empty when there is no
    /// store, since such keys are never looked up.
    build: &'static str,
    opts: &'env ExecOptions,
    slots: Vec<Mutex<Option<RunRecord>>>,
    /// Index of the next config to hand out. `Relaxed` throughout: the
    /// cursor publishes no data (records travel through `slots` and the
    /// scope join).
    cursor: AtomicUsize,
    completed: AtomicUsize,
    /// Telemetry events accepted across finished cells, for the
    /// progress line's events/s figure.
    events: AtomicU64,
    started: Instant,
    /// No progress line prints before this instant; the worker that
    /// prints one pushes it a period ahead.
    next_progress: Mutex<Instant>,
    abort: AbortState,
}

impl SweepCtx<'_> {
    /// Counts one finished cell and, past [`PROGRESS_AFTER`], prints the
    /// progress line unless another worker printed one within the last
    /// [`PROGRESS_PERIOD`]. It only reads counters — progress is
    /// wall-clock and must never become trace or artifact material.
    fn cell_done(&self) {
        let done = self.completed.fetch_add(1, Ordering::Relaxed) + 1;
        let total = self.configs.len();
        let now = Instant::now();
        // A held lock means another worker is printing right now; a
        // poisoned one ends the best-effort progress line.
        let Ok(mut due) = self.next_progress.try_lock() else {
            return;
        };
        if done >= total || now < *due {
            return;
        }
        *due = now + PROGRESS_PERIOD;
        let secs = (now - self.started).as_secs_f64();
        let eta_s = (total - done) as f64 * secs / done as f64;
        // Trace-event throughput only exists with telemetry on;
        // otherwise the line is cells+ETA.
        let events = self.events.load(Ordering::Relaxed);
        let rate_part = if events > 0 {
            format!("{:.0} ev/s, ", events as f64 / secs)
        } else {
            String::new()
        };
        ragnar_telemetry::progress(format!("{done}/{total} cells ({rate_part}ETA {eta_s:.0}s)"));
    }
}

/// How a cell's one attempt ended.
enum AttemptEnd {
    /// The attempt ran to completion (success, error or caught panic).
    Finished(
        Result<Result<Artifact, String>, Box<dyn std::any::Any + Send>>,
        Option<SessionReport>,
    ),
    /// The attempt overran the watchdog budget; its thread is still
    /// running and will be joined at sweep end. Carries whatever the
    /// cell's session had observed by the time the watchdog fired — the
    /// salvage path: partial metrics beat no metrics when diagnosing
    /// why a cell hung.
    Hung(Option<SessionReport>),
    /// The attempt thread vanished without reporting (its channel
    /// disconnected) — something outside `catch_unwind`'s reach died.
    Died(Option<SessionReport>),
}

/// Runs one attempt, inline or under the watchdog, under the run
/// context `opts.telemetry` describes.
///
/// The telemetry session is owned by the *coordinator* side and only
/// its handles cross into the attempt thread: when the watchdog fires,
/// the coordinator can still harvest everything the cell recorded up to
/// that point (the ring and registry are shared behind locks, so a
/// still-running hung thread cannot corrupt the snapshot).
fn run_attempt<'scope, 'env: 'scope>(
    exp: &'env dyn Experiment,
    config: &'env Config,
    seed: u64,
    opts: &'env ExecOptions,
    scope: &'scope Scope<'scope, 'env>,
) -> AttemptEnd {
    let session = opts.telemetry.session();
    let ctx = RunCtx {
        monitors: opts.telemetry.monitors,
        ..session.as_ref().map_or_else(RunCtx::default, Session::ctx)
    };
    let body = move || {
        // Mark the thread supervised so the gate hook stays quiet: the
        // executor reports caught panics itself, with cell context.
        let _supervised = sim_core::supervised_section();
        let _ctx = ctx.install();
        panic::catch_unwind(AssertUnwindSafe(|| exp.run(config, seed)))
    };
    match opts.cell_timeout {
        None => AttemptEnd::Finished(body(), session.map(Session::finish)),
        Some(budget) => {
            let (tx, rx) = mpsc::channel();
            scope.spawn(move || {
                // The receiver may be long gone (watchdog fired); a dead
                // channel just means the result is discarded.
                let _ = tx.send(body());
            });
            match rx.recv_timeout(budget) {
                Ok(result) => AttemptEnd::Finished(result, session.map(Session::finish)),
                Err(RecvTimeoutError::Timeout) => AttemptEnd::Hung(session.map(Session::finish)),
                Err(RecvTimeoutError::Disconnected) => {
                    AttemptEnd::Died(session.map(Session::finish))
                }
            }
        }
    }
}

/// Appends the watchdog's verdict to a timed-out cell's trace as a
/// synthesized `Target::Harness` instant. Its one field is the budget,
/// never a wall-clock reading, and it is pinned at ts 0, so traces stay
/// byte-identical at any thread count.
fn append_watchdog_timeout(telemetry: &mut SessionReport, timeout_ms: u64) {
    telemetry.events.push(Event {
        target: Target::Harness,
        name: "watchdog_timeout",
        actor: ActorId::GLOBAL,
        ts_ps: 0,
        kind: EventKind::Instant,
        args: vec![("timeout_ms", ArgValue::U64(timeout_ms))],
    });
    telemetry.total_events += 1;
}

/// Runs one cell end to end: cache probe, one attempt, record.
fn run_cell<'scope, 'env: 'scope>(
    ctx: &SweepCtx<'env>,
    index: usize,
    scope: &'scope Scope<'scope, 'env>,
) {
    let config = &ctx.configs[index];
    let exp = ctx.exp;
    let opts = ctx.opts;
    let seed = config_seed(ctx.master_seed, exp.name(), config);
    let key = hash::cache_key(exp.name(), &config.canonical(), seed, ctx.build);
    let t0 = Instant::now();

    let finish = |record: RunRecord| {
        *ctx.slots[index].lock().expect("slot poisoned") = Some(record);
        ctx.cell_done();
    };
    let record = |outcome: Outcome, from_cache: bool, telemetry: Option<SessionReport>| {
        let repro = matches!(outcome, Outcome::Failed { .. } | Outcome::TimedOut { .. });
        RunRecord {
            index,
            config: config.clone(),
            seed,
            cache_key: key.clone(),
            outcome,
            from_cache,
            elapsed_ms: t0.elapsed().as_secs_f64() * 1e3,
            telemetry,
            repro: repro.then(|| {
                format!(
                    "ragnar {} --seed {} --no-cache --only \"{}\"",
                    exp.name(),
                    ctx.master_seed,
                    config.label()
                )
            }),
        }
    };

    // A tripped abort skips everything not yet started; cells already
    // in flight on other workers run to completion and are kept.
    if let Some(reason) = ctx.abort.reason() {
        finish(record(Outcome::Skipped { reason }, false, None));
        return;
    }

    if !opts.telemetry.observes() {
        if let Some(hit) = ctx.store.and_then(|s| s.load(&key)) {
            finish(record(Outcome::Done(hit), true, None));
            return;
        }
    }

    let (outcome, mut telemetry) = match run_attempt(exp, config, seed, opts, scope) {
        AttemptEnd::Finished(Ok(Ok(artifact)), telemetry) => {
            if let Some(s) = ctx.store {
                // A failed persist degrades caching, not correctness.
                let _ = s.store(
                    &key,
                    config,
                    seed,
                    &artifact,
                    t0.elapsed().as_secs_f64() * 1e3,
                );
            }
            (Outcome::Done(artifact), telemetry)
        }
        AttemptEnd::Finished(Ok(Err(message)), telemetry) => (
            Outcome::Failed {
                message,
                panicked: false,
            },
            telemetry,
        ),
        AttemptEnd::Finished(Err(payload), telemetry) => {
            let message = sim_core::panic_payload_message(payload.as_ref());
            if message.starts_with("[monitor-abort]") {
                ctx.abort.trip(&message);
            }
            (
                Outcome::Failed {
                    message,
                    panicked: true,
                },
                telemetry,
            )
        }
        // Salvage whatever the hung cell observed: its partial session
        // report rides on the record (and into a sidecar tagged
        // incomplete) instead of vanishing with the stuck thread.
        AttemptEnd::Hung(telemetry) => {
            let timeout_ms = opts.cell_timeout.map(|d| d.as_millis() as u64).unwrap_or(0);
            (Outcome::TimedOut { timeout_ms }, telemetry)
        }
        AttemptEnd::Died(telemetry) => (
            Outcome::Failed {
                message: "attempt thread died before reporting a result".to_string(),
                panicked: true,
            },
            telemetry,
        ),
    };
    if let (true, Outcome::TimedOut { timeout_ms }, Some(t)) =
        (opts.telemetry.trace, &outcome, telemetry.as_mut())
    {
        append_watchdog_timeout(t, *timeout_ms);
    }
    if let Some(t) = &telemetry {
        ctx.events.fetch_add(t.total_events, Ordering::Relaxed);
    }
    finish(record(outcome, false, telemetry));
}

/// Takes configs off the shared cursor until it passes the end.
fn work<'scope, 'env: 'scope>(ctx: &SweepCtx<'env>, scope: &'scope Scope<'scope, 'env>) {
    loop {
        let index = ctx.cursor.fetch_add(1, Ordering::Relaxed);
        if index >= ctx.configs.len() {
            return;
        }
        run_cell(ctx, index, scope);
    }
}

/// Runs every config of `exp`, in parallel, through the cache.
///
/// Records are returned in `configs` order regardless of scheduling.
/// When `store` is `Some`, finished cells are persisted and matching
/// cells are served from disk, keyed on [`hash::build_fingerprint`];
/// without a fingerprint the store is neither read nor written.
pub fn execute(
    exp: &dyn Experiment,
    configs: &[Config],
    master_seed: u64,
    store: Option<&ResultStore>,
    opts: &ExecOptions,
) -> Vec<RunRecord> {
    let threads = opts.threads.clamp(1, configs.len().max(1));
    let build = store.and_then(|_| hash::build_fingerprint());
    let store = store.filter(|_| build.is_some());

    // Panics inside `run` are part of normal sweep operation; the gate
    // hook silences them on exactly the supervised cell threads (see
    // `sim_core::supervise`) — unsupervised threads keep the loud default.
    sim_core::install_panic_gate();
    let started = Instant::now();
    let ctx = SweepCtx {
        exp,
        configs,
        master_seed,
        store,
        build: build.unwrap_or_default(),
        opts,
        slots: configs.iter().map(|_| Mutex::new(None)).collect(),
        cursor: AtomicUsize::new(0),
        completed: AtomicUsize::new(0),
        events: AtomicU64::new(0),
        started,
        next_progress: Mutex::new(started + PROGRESS_AFTER),
        abort: AbortState(Mutex::new(None)),
    };

    std::thread::scope(|scope| {
        let ctx = &ctx;
        for _ in 1..threads {
            scope.spawn(move || work(ctx, scope));
        }
        // The caller is the last worker.
        work(ctx, scope);
    });

    ctx.slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("slot poisoned")
                .expect("every config produces a record")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cli::Cli;
    use crate::experiment::Artifact;

    struct Parity;

    impl Experiment for Parity {
        fn name(&self) -> &'static str {
            "parity-unit"
        }
        fn params(&self, _cli: &Cli) -> Vec<Config> {
            (0..64u64).map(|i| Config::new().with("i", i)).collect()
        }
        fn run(&self, config: &Config, seed: u64) -> Result<Artifact, String> {
            let i = config.u64("i").expect("i");
            if i == 13 {
                panic!("unlucky combination");
            }
            if i == 21 {
                return Err("known-bad cell".to_string());
            }
            Ok(Artifact::text(format!("cell {i}\n")).with_metric("seed", seed))
        }
    }

    fn configs() -> Vec<Config> {
        Parity.params(&Cli::default())
    }

    #[test]
    fn records_in_order_with_isolated_failures() {
        let cfgs = configs();
        let records = execute(
            &Parity,
            &cfgs,
            1,
            None,
            &ExecOptions {
                threads: 8,
                ..Default::default()
            },
        );
        assert_eq!(records.len(), 64);
        for (i, r) in records.iter().enumerate() {
            assert_eq!(r.index, i);
            assert_eq!(r.config.u64("i"), Some(i as u64));
        }
        match &records[13].outcome {
            Outcome::Failed { message, panicked } => {
                assert!(panicked);
                assert!(message.contains("unlucky"));
            }
            other => panic!("expected panic failure, got {other:?}"),
        }
        assert!(records[13]
            .repro
            .as_deref()
            .is_some_and(|r| r.contains("--only") && r.contains("i=13")));
        match &records[21].outcome {
            Outcome::Failed { message, panicked } => {
                assert!(!panicked);
                assert_eq!(message, "known-bad cell");
            }
            other => panic!("expected error failure, got {other:?}"),
        }
        assert_eq!(
            records
                .iter()
                .filter(|r| matches!(r.outcome, Outcome::Done(_)))
                .count(),
            62
        );
        assert!(records
            .iter()
            .all(|r| r.repro.is_some() == r.outcome.is_failure()));
    }

    #[test]
    fn seeds_depend_on_content_not_schedule() {
        let cfgs = configs();
        let serial = execute(
            &Parity,
            &cfgs,
            7,
            None,
            &ExecOptions {
                threads: 1,
                ..Default::default()
            },
        );
        let parallel = execute(
            &Parity,
            &cfgs,
            7,
            None,
            &ExecOptions {
                threads: 8,
                ..Default::default()
            },
        );
        for (a, b) in serial.iter().zip(&parallel) {
            assert_eq!(a.seed, b.seed);
            assert_eq!(
                a.outcome.artifact().map(|x| x.to_value().encode()),
                b.outcome.artifact().map(|x| x.to_value().encode()),
            );
        }
        // Distinct master seeds shift every cell's seed.
        let other = execute(
            &Parity,
            &cfgs,
            8,
            None,
            &ExecOptions {
                threads: 1,
                ..Default::default()
            },
        );
        assert!(serial.iter().zip(&other).all(|(a, b)| a.seed != b.seed));
    }

    /// Renders the thread each cell ran on.
    struct WhereRan;

    impl Experiment for WhereRan {
        fn name(&self) -> &'static str {
            "where-ran-unit"
        }
        fn params(&self, _cli: &Cli) -> Vec<Config> {
            (0..8u64).map(|i| Config::new().with("i", i)).collect()
        }
        fn run(&self, _config: &Config, _seed: u64) -> Result<Artifact, String> {
            Ok(Artifact::text(format!("{:?}", std::thread::current().id())))
        }
    }

    fn where_ran(threads: usize) -> Vec<RunRecord> {
        let opts = ExecOptions {
            threads,
            ..Default::default()
        };
        execute(&WhereRan, &WhereRan.params(&Cli::default()), 0, None, &opts)
    }

    /// A sweep of no-op cells returns as soon as its last cell ends:
    /// nothing in the executor sleeps or polls.
    #[test]
    fn quick_sweep_returns_without_waiting() {
        let t0 = Instant::now();
        assert_eq!(where_ran(2).len(), 8);
        let elapsed = t0.elapsed();
        assert!(
            elapsed < Duration::from_millis(250),
            "8 no-op cells took {elapsed:?}"
        );
    }

    #[test]
    fn one_thread_runs_inline_on_the_caller() {
        let caller = format!("{:?}", std::thread::current().id());
        for r in where_ran(1) {
            assert_eq!(
                r.outcome.artifact().map(|a| a.rendered.as_str()),
                Some(caller.as_str())
            );
        }
    }

    /// A cell that sleeps past the watchdog budget is recorded as
    /// `TimedOut` while the rest of the sweep completes normally.
    struct Sleeper;

    impl Experiment for Sleeper {
        fn name(&self) -> &'static str {
            "sleeper-unit"
        }
        fn params(&self, _cli: &Cli) -> Vec<Config> {
            (0..4u64).map(|i| Config::new().with("i", i)).collect()
        }
        fn run(&self, config: &Config, _seed: u64) -> Result<Artifact, String> {
            ragnar_telemetry::metrics().counter_add("sleeper.started", 1);
            if config.u64("i") == Some(2) {
                std::thread::sleep(Duration::from_millis(400));
            }
            Ok(Artifact::text("ok\n"))
        }
    }

    #[test]
    fn hung_cell_times_out_with_repro_and_sweep_continues() {
        let records = execute(
            &Sleeper,
            &Sleeper.params(&Cli::default()),
            0,
            None,
            &ExecOptions {
                threads: 2,
                cell_timeout: Some(Duration::from_millis(40)),
                ..Default::default()
            },
        );
        match &records[2].outcome {
            Outcome::TimedOut { timeout_ms } => assert_eq!(*timeout_ms, 40),
            other => panic!("expected timeout, got {other:?}"),
        }
        assert!(records[2]
            .repro
            .as_deref()
            .is_some_and(|r| r.contains("--only \"i=2\"")));
        for (i, r) in records.iter().enumerate() {
            if i != 2 {
                assert!(matches!(r.outcome, Outcome::Done(_)), "cell {i} collateral");
            }
        }
    }

    /// The salvage path: a hung cell's session is harvested by the
    /// coordinator when the watchdog fires, so whatever the cell
    /// recorded before getting stuck survives — with the executor's
    /// supervision verdicts appended as synthesized trace events.
    #[test]
    fn hung_cell_salvages_partial_telemetry() {
        let records = execute(
            &Sleeper,
            &Sleeper.params(&Cli::default()),
            0,
            None,
            &ExecOptions {
                threads: 2,
                cell_timeout: Some(Duration::from_millis(40)),
                telemetry: TelemetrySpec {
                    trace: true,
                    metrics: true,
                    ..Default::default()
                },
            },
        );
        assert!(matches!(records[2].outcome, Outcome::TimedOut { .. }));
        let t = records[2].telemetry.as_ref().expect("salvaged telemetry");
        let m = t.metrics.as_ref().expect("salvaged metrics");
        assert!(
            m.counters
                .iter()
                .any(|(k, v)| k == "sleeper.started" && *v >= 1),
            "pre-hang counter lost: {:?}",
            m.counters
        );
        let names: Vec<&str> = t.events.iter().map(|e| e.name).collect();
        assert!(names.contains(&"watchdog_timeout"), "got {names:?}");
        // Healthy cells carry no supervision verdicts.
        for i in [0usize, 1, 3] {
            let t = records[i].telemetry.as_ref().expect("telemetry");
            assert!(t.events.iter().all(|e| e.name != "watchdog_timeout"));
        }
    }

    /// The synthesized supervisor track is deterministic: the same
    /// watchdog sweep renders byte-identical trace JSON at any thread
    /// count, because the `watchdog_timeout` instant carries only the
    /// budget (never wall-clock) and is pinned at ts 0.
    #[test]
    fn supervisor_track_is_thread_count_invariant() {
        let trace = |threads: usize| {
            let records = execute(
                &Sleeper,
                &Sleeper.params(&Cli::default()),
                0,
                None,
                &ExecOptions {
                    threads,
                    cell_timeout: Some(Duration::from_millis(40)),
                    telemetry: TelemetrySpec {
                        trace: true,
                        ..Default::default()
                    },
                },
            );
            let cells: Vec<ragnar_telemetry::TraceCell<'_>> = records
                .iter()
                .filter_map(|r| {
                    r.telemetry.as_ref().map(|t| ragnar_telemetry::TraceCell {
                        label: r.config.label(),
                        index: r.index,
                        events: &t.events,
                    })
                })
                .collect();
            ragnar_telemetry::chrome_trace_json(&cells)
        };
        let serial = trace(1);
        assert!(
            serial.contains("\"watchdog_timeout\""),
            "supervisor event missing from trace"
        );
        assert_eq!(
            serial,
            trace(4),
            "supervisor track differs between --threads 1 and --threads 4"
        );
    }

    /// A `[monitor-abort]` panic stops the sweep: the offending cell is
    /// failed, and cells not yet started are skipped.
    struct Aborter;

    impl Experiment for Aborter {
        fn name(&self) -> &'static str {
            "aborter-unit"
        }
        fn params(&self, _cli: &Cli) -> Vec<Config> {
            (0..6u64).map(|i| Config::new().with("i", i)).collect()
        }
        fn run(&self, config: &Config, _seed: u64) -> Result<Artifact, String> {
            if config.u64("i") == Some(1) {
                panic!("[monitor-abort] packet conservation broken in cell 1");
            }
            Ok(Artifact::text("ok\n"))
        }
    }

    #[test]
    fn monitor_abort_fails_fast_and_skips_the_rest() {
        // threads=1 makes the schedule sequential, so exactly cells 2..6
        // are still unstarted when the abort lands.
        let records = execute(
            &Aborter,
            &Aborter.params(&Cli::default()),
            0,
            None,
            &ExecOptions {
                threads: 1,
                ..Default::default()
            },
        );
        assert!(matches!(records[0].outcome, Outcome::Done(_)));
        match &records[1].outcome {
            Outcome::Failed { message, panicked } => {
                assert!(*panicked && message.starts_with("[monitor-abort]"));
            }
            other => panic!("expected abort failure, got {other:?}"),
        }
        for r in &records[2..] {
            match &r.outcome {
                Outcome::Skipped { reason } => {
                    assert!(reason.starts_with("[monitor-abort]"), "got: {reason}");
                }
                other => panic!("cell {} should be skipped, got {other:?}", r.index),
            }
            assert!(r.repro.is_none(), "a skipped cell never ran");
        }
    }
}
