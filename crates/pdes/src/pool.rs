//! A minimal scoped worker pool built on `std::thread::scope` and
//! `std::sync::mpsc` — no unsafe, no external crates.
//!
//! Jobs and results are *owned values* shuttled over channels
//! (ownership ping-pong): the coordinator moves a shard of mutable
//! state into a job, a worker mutates it, and the result moves back.
//! Rust's ownership rules then prove data-race freedom without locks
//! around the simulation state itself.
//!
//! [`scoped_supervised`] is the one entry point: per-job
//! [`JobOutcome`]s instead of panics, worker quarantine and bounded
//! respawn ([`PoolPolicy`]), stall detection via a pool-wide reply
//! heartbeat, seed-deterministic execution-fault injection
//! ([`ExecFaultHook`]), and live [`PoolHealth`] counters. Workers run
//! jobs behind `catch_unwind`, so a panicking worker can never deadlock
//! a round: every submitted job always produces exactly one reply.
//!
//! Determinism note: job→worker assignment is demand-driven and hence
//! scheduling-dependent, but results are always returned in job
//! *submission* order, and injected faults key off `(worker, round)` —
//! so every digest downstream of the pool is independent of thread
//! scheduling.

use std::cell::Cell;
use std::collections::VecDeque;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::Duration;

use sim_core::panic_payload_message;

/// A seed-derived execution fault a worker injects on itself before
/// taking its next job (see `ragnar-chaos`'s exec-fault plans, which
/// compile to [`ExecFaultHook`]s).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InjectedExecFault {
    /// Panic before touching the job. The coordinator gets the job
    /// back ([`JobOutcome::Returned`]) and can replay it sequentially —
    /// this is what makes induced crashes digest-invisible.
    Panic,
    /// Sleep this long before working — long enough to trip the
    /// supervisor's stall heartbeat. (Threads cannot be killed in safe
    /// Rust, so injected stalls are bounded sleeps; the cell-timeout
    /// watchdog in the harness is the backstop for genuinely unbounded
    /// hangs.)
    Stall(Duration),
    /// Sleep briefly before working — a slow start that should *not*
    /// trip the heartbeat, only skew scheduling.
    SlowStart(Duration),
}

/// Decides, per `(worker, round)`, whether that worker injects a fault
/// before taking its job. Must be deterministic in its arguments —
/// fault schedules are derived from seeds so runs are reproducible.
pub type ExecFaultHook = Arc<dyn Fn(usize, u64) -> Option<InjectedExecFault> + Send + Sync>;

/// Supervision policy for [`scoped_supervised`].
#[derive(Clone, Default)]
pub struct PoolPolicy {
    /// Pool-wide reply heartbeat: if *no* worker reply arrives within
    /// this long while jobs are outstanding, every busy worker is
    /// declared stalled, quarantined, and (budget permitting)
    /// respawned. `None` disables stall detection.
    pub stall_timeout: Option<Duration>,
    /// How many replacement workers may be spawned over the pool's
    /// lifetime before quarantined slots stay dead (at which point
    /// remaining jobs degrade to inline execution on the coordinator).
    pub max_respawns: u32,
    /// Optional execution-fault injection hook (chaos testing).
    pub fault_hook: Option<ExecFaultHook>,
}

impl fmt::Debug for PoolPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PoolPolicy")
            .field("stall_timeout", &self.stall_timeout)
            .field("max_respawns", &self.max_respawns)
            .field("fault_hook", &self.fault_hook.as_ref().map(|_| "<hook>"))
            .finish()
    }
}

/// What went wrong on a worker, with enough context to debug it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerFault {
    /// Logical worker slot (0-based).
    pub worker: usize,
    /// Index of the job within its round (submission order).
    pub job: usize,
    /// 1-based round counter (one round per `run_round` call — for the
    /// parallel event engine, one round per conservative window).
    pub round: u64,
    /// What kind of failure this was.
    pub cause: FaultCause,
    /// The rendered panic payload (empty for stalls).
    pub payload: String,
}

/// Failure classification for a [`WorkerFault`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultCause {
    /// The worker panicked while holding the job.
    Panic,
    /// The worker went silent past the stall heartbeat. (Stalled jobs
    /// still complete when the worker wakes — stall faults surface via
    /// [`PoolHealth`], not job outcomes.)
    Stall,
}

impl fmt::Display for WorkerFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.cause {
            FaultCause::Panic => write!(
                f,
                "pool worker {} panicked on job {} of round {}: {}",
                self.worker, self.job, self.round, self.payload
            ),
            FaultCause::Stall => write!(
                f,
                "pool worker {} stalled on job {} of round {}",
                self.worker, self.job, self.round
            ),
        }
    }
}

/// Per-job result of a supervised round, in submission order.
#[derive(Debug)]
pub enum JobOutcome<In, Out> {
    /// The job completed normally.
    Done(Out),
    /// The worker faulted *before taking the job*, so the coordinator
    /// got it back intact — replay it (inline execution of a returned
    /// job is exactly the sequential oracle's order).
    Returned(In, WorkerFault),
    /// The worker faulted mid-job; the job's state is gone. The caller
    /// must recover at a coarser granularity (re-run the window from a
    /// snapshot, or let the harness retry the whole cell).
    Lost(WorkerFault),
}

/// Live health counters for a supervised pool, readable by the drive
/// closure between rounds (coordinator-thread only, hence `Cell`s).
#[derive(Debug, Default)]
pub struct PoolHealth {
    panics: Cell<u64>,
    stalls: Cell<u64>,
    respawns: Cell<u64>,
    quarantined: Cell<u64>,
    inline_jobs: Cell<u64>,
}

/// A plain-data copy of [`PoolHealth`] at one instant.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HealthSnapshot {
    /// Worker panics caught (injected or real).
    pub panics: u64,
    /// Stall heartbeat trips.
    pub stalls: u64,
    /// Replacement workers spawned.
    pub respawns: u64,
    /// Worker slots permanently dead (respawn budget exhausted).
    pub quarantined: u64,
    /// Jobs degraded to inline execution on the coordinator.
    pub inline_jobs: u64,
}

impl PoolHealth {
    /// Worker panics caught so far.
    pub fn panics(&self) -> u64 {
        self.panics.get()
    }
    /// Stall heartbeat trips so far.
    pub fn stalls(&self) -> u64 {
        self.stalls.get()
    }
    /// Replacement workers spawned so far.
    pub fn respawns(&self) -> u64 {
        self.respawns.get()
    }
    /// Worker slots permanently dead.
    pub fn quarantined(&self) -> u64 {
        self.quarantined.get()
    }
    /// Jobs run inline on the coordinator (full degradation).
    pub fn inline_jobs(&self) -> u64 {
        self.inline_jobs.get()
    }
    /// Copies the counters into a plain struct.
    pub fn snapshot(&self) -> HealthSnapshot {
        HealthSnapshot {
            panics: self.panics(),
            stalls: self.stalls(),
            respawns: self.respawns(),
            quarantined: self.quarantined(),
            inline_jobs: self.inline_jobs(),
        }
    }
}

enum ReplyKind<In, Out> {
    Done(Out),
    ReturnedJob(In, String),
    LostJob(String),
}

/// (slot, generation, job index, kind). The generation distinguishes a
/// quarantined worker's late reply from its replacement's.
type Reply<In, Out> = (usize, u64, usize, ReplyKind<In, Out>);

struct SlotState<In> {
    /// `None` once the slot is permanently dead.
    tx: Option<mpsc::Sender<(u64, usize, In)>>,
    /// Bumped on every quarantine, so stale replies are recognizable.
    gen: u64,
    /// Jobs sent to minus replies received from the *current* thread.
    busy: u32,
}

fn worker_loop<In, Out, W>(
    w: usize,
    gen: u64,
    rx: mpsc::Receiver<(u64, usize, In)>,
    done: mpsc::Sender<Reply<In, Out>>,
    work: &W,
    hook: Option<ExecFaultHook>,
) where
    W: Fn(usize, In) -> Out + Sync,
{
    // Supervised for the whole loop: every panic here is caught below
    // and reported by the coordinator with context, so the default
    // hook's backtrace spew would be pure noise.
    let _guard = sim_core::supervised_section();
    loop {
        // Time blocked on the job channel is the worker's barrier/idle
        // share — the profiler's measure of how starved the pool runs.
        let received = {
            let _p = ragnar_telemetry::profile::enter(ragnar_telemetry::profile::Phase::WorkerIdle);
            rx.recv()
        };
        let Ok((round, idx, job)) = received else {
            break;
        };
        let mut holder = Some(job);
        let result = {
            let holder = &mut holder;
            let hook = &hook;
            catch_unwind(AssertUnwindSafe(move || {
                if let Some(hook) = hook {
                    match hook(w, round) {
                        Some(InjectedExecFault::Panic) => {
                            panic!("[chaos-exec] injected panic: worker {w} round {round}")
                        }
                        Some(InjectedExecFault::Stall(d))
                        | Some(InjectedExecFault::SlowStart(d)) => std::thread::sleep(d),
                        None => {}
                    }
                }
                let job = holder.take().expect("job taken once");
                work(w, job)
            }))
        };
        let kind = match result {
            Ok(out) => ReplyKind::Done(out),
            Err(payload) => {
                let msg = panic_payload_message(payload.as_ref());
                match holder.take() {
                    Some(job) => ReplyKind::ReturnedJob(job, msg),
                    None => ReplyKind::LostJob(msg),
                }
            }
        };
        // A closed done channel means the coordinator is unwinding;
        // just stop.
        if done.send((w, gen, idx, kind)).is_err() {
            break;
        }
    }
}

/// Runs `drive` with a `run_round` function that executes a batch of
/// jobs across `workers` threads and returns [`JobOutcome`]s **in job
/// submission order** (the deterministic merge point — result order
/// never depends on thread scheduling).
///
/// `work(worker_idx, job)` runs on one of the pool threads; `drive`
/// also receives the live [`PoolHealth`] counters. Workers live for
/// the whole call (respawns aside), so per-round spawn cost is zero.
///
/// Failure handling, per [`PoolPolicy`]:
/// - a panicking worker is quarantined and (budget permitting)
///   respawned; its job comes back as [`JobOutcome::Returned`] if the
///   panic hit before the job was taken, [`JobOutcome::Lost`] otherwise;
/// - a stalled worker (no pool-wide reply within `stall_timeout`) is
///   quarantined and respawned, but its in-flight job is still awaited —
///   when the worker wakes the result is used normally;
/// - with every slot dead and no respawn budget, remaining jobs run
///   inline on the coordinator (slow, but the run completes).
pub fn scoped_supervised<In, Out, W, F, R>(
    workers: usize,
    policy: PoolPolicy,
    work: W,
    drive: F,
) -> R
where
    In: Send,
    Out: Send,
    W: Fn(usize, In) -> Out + Sync,
    F: FnOnce(&mut dyn FnMut(Vec<In>) -> Vec<JobOutcome<In, Out>>, &PoolHealth) -> R,
{
    let workers = workers.max(1);
    std::thread::scope(|s| {
        let work = &work;
        let (done_tx, done_rx) = mpsc::channel::<Reply<In, Out>>();
        let health = PoolHealth::default();
        let respawns_left = Cell::new(policy.max_respawns);
        let hook = policy.fault_hook.clone();
        let spawn_worker = {
            let done_tx = done_tx.clone();
            move |w: usize, gen: u64| -> mpsc::Sender<(u64, usize, In)> {
                let (tx, rx) = mpsc::channel();
                let done = done_tx.clone();
                let hook = hook.clone();
                s.spawn(move || worker_loop(w, gen, rx, done, work, hook));
                tx
            }
        };
        let mut slots: Vec<SlotState<In>> = (0..workers)
            .map(|w| SlotState {
                tx: Some(spawn_worker(w, 0)),
                gen: 0,
                busy: 0,
            })
            .collect();
        let mut round: u64 = 0;

        // Abandons slot `w`'s current thread (its channel sender drops,
        // so the thread exits once it drains) and replaces it if the
        // respawn budget allows.
        let quarantine = |slots: &mut Vec<SlotState<In>>, w: usize| {
            slots[w].tx = None;
            slots[w].gen += 1;
            slots[w].busy = 0;
            if respawns_left.get() > 0 {
                respawns_left.set(respawns_left.get() - 1);
                health.respawns.set(health.respawns.get() + 1);
                slots[w].tx = Some(spawn_worker(w, slots[w].gen));
            } else {
                health.quarantined.set(health.quarantined.get() + 1);
            }
        };

        let mut run_round = |jobs: Vec<In>| -> Vec<JobOutcome<In, Out>> {
            round += 1;
            let n = jobs.len();
            let mut pending: VecDeque<(usize, In)> = jobs.into_iter().enumerate().collect();
            let mut results: Vec<Option<JobOutcome<In, Out>>> = (0..n).map(|_| None).collect();
            let mut outstanding = n;

            // Demand-driven dispatch: one job at a time per idle live
            // slot, so a stalled worker never holds a queue of jobs
            // hostage — only its single in-flight job. Falls back to
            // inline execution when every slot is dead.
            let feed = |slots: &mut Vec<SlotState<In>>,
                        pending: &mut VecDeque<(usize, In)>,
                        results: &mut Vec<Option<JobOutcome<In, Out>>>,
                        outstanding: &mut usize,
                        round: u64| {
                while !pending.is_empty() {
                    if let Some(w) = slots.iter().position(|s| s.tx.is_some() && s.busy == 0) {
                        let (idx, job) = pending.pop_front().expect("checked non-empty");
                        slots[w]
                            .tx
                            .as_ref()
                            .expect("live slot")
                            .send((round, idx, job))
                            .expect("pool worker exited early");
                        slots[w].busy += 1;
                    } else if slots.iter().all(|s| s.tx.is_none()) {
                        let (idx, job) = pending.pop_front().expect("checked non-empty");
                        health.inline_jobs.set(health.inline_jobs.get() + 1);
                        results[idx] = Some(JobOutcome::Done(work(0, job)));
                        *outstanding -= 1;
                    } else {
                        // Live workers exist but all are busy — wait
                        // for replies before dispatching more.
                        return;
                    }
                }
            };

            feed(
                &mut slots,
                &mut pending,
                &mut results,
                &mut outstanding,
                round,
            );
            while outstanding > 0 {
                let reply = if let Some(t) = policy.stall_timeout {
                    loop {
                        match done_rx.recv_timeout(t) {
                            Ok(r) => break r,
                            Err(mpsc::RecvTimeoutError::Timeout) => {
                                // Pool-wide silence past the heartbeat:
                                // every busy slot is presumed stalled.
                                let busy: Vec<usize> = slots
                                    .iter()
                                    .enumerate()
                                    .filter(|(_, s)| s.tx.is_some() && s.busy > 0)
                                    .map(|(w, _)| w)
                                    .collect();
                                for w in busy {
                                    health.stalls.set(health.stalls.get() + 1);
                                    quarantine(&mut slots, w);
                                }
                                feed(
                                    &mut slots,
                                    &mut pending,
                                    &mut results,
                                    &mut outstanding,
                                    round,
                                );
                                if outstanding == 0 {
                                    return results
                                        .into_iter()
                                        .map(|o| o.expect("one result per job"))
                                        .collect();
                                }
                            }
                            Err(mpsc::RecvTimeoutError::Disconnected) => {
                                unreachable!("coordinator holds a done sender")
                            }
                        }
                    }
                } else {
                    done_rx.recv().expect("pool output channel closed")
                };
                let (w, gen, idx, kind) = reply;
                if slots[w].gen == gen {
                    slots[w].busy -= 1;
                }
                outstanding -= 1;
                match kind {
                    ReplyKind::Done(out) => results[idx] = Some(JobOutcome::Done(out)),
                    ReplyKind::ReturnedJob(job, payload) => {
                        health.panics.set(health.panics.get() + 1);
                        if slots[w].gen == gen {
                            quarantine(&mut slots, w);
                        }
                        let fault = WorkerFault {
                            worker: w,
                            job: idx,
                            round,
                            cause: FaultCause::Panic,
                            payload,
                        };
                        results[idx] = Some(JobOutcome::Returned(job, fault));
                    }
                    ReplyKind::LostJob(payload) => {
                        health.panics.set(health.panics.get() + 1);
                        if slots[w].gen == gen {
                            quarantine(&mut slots, w);
                        }
                        let fault = WorkerFault {
                            worker: w,
                            job: idx,
                            round,
                            cause: FaultCause::Panic,
                            payload,
                        };
                        results[idx] = Some(JobOutcome::Lost(fault));
                    }
                }
                feed(
                    &mut slots,
                    &mut pending,
                    &mut results,
                    &mut outstanding,
                    round,
                );
            }
            results
                .into_iter()
                .map(|o| o.expect("one result per job"))
                .collect()
        };
        drive(&mut run_round, &health)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Unwraps a fault-free round.
    fn done<In, Out>(outcomes: Vec<JobOutcome<In, Out>>) -> Vec<Out> {
        outcomes
            .into_iter()
            .map(|o| match o {
                JobOutcome::Done(out) => out,
                JobOutcome::Returned(_, fault) | JobOutcome::Lost(fault) => panic!("{fault}"),
            })
            .collect()
    }

    #[test]
    fn results_in_submission_order() {
        let (a, b) = scoped_supervised(
            4,
            PoolPolicy::default(),
            |_, x: u64| x * 2,
            |run, _| {
                (
                    done(run((0..100).collect())),
                    done(run((100..110).collect())),
                )
            },
        );
        assert_eq!(a, (0..100).map(|x| x * 2).collect::<Vec<_>>());
        assert_eq!(b, (100..110).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn single_worker_ok() {
        let out = scoped_supervised(
            1,
            PoolPolicy::default(),
            |_, x: u64| x + 1,
            |run, _| done(run(vec![1, 2, 3])),
        );
        assert_eq!(out.into_iter().sum::<u64>(), 9);
    }

    #[test]
    fn ownership_ping_pong() {
        // Moves a Vec out and back, mutated — the pattern the engine uses.
        let v = scoped_supervised(
            2,
            PoolPolicy::default(),
            |_, mut v: Vec<u64>| {
                v.push(99);
                v
            },
            |run, _| done(run(vec![vec![1], vec![2]])),
        );
        assert_eq!(v, vec![vec![1, 99], vec![2, 99]]);
    }

    #[test]
    fn worker_panic_is_named_not_a_deadlock() {
        // Pre-supervision this deadlocked with workers > 1: the
        // panicking worker died without replying and the other worker
        // kept the done channel open, so recv() blocked forever.
        let outcomes = scoped_supervised(
            2,
            PoolPolicy::default(),
            |_, x: u64| {
                if x == 3 {
                    panic!("boom on {x}");
                }
                x
            },
            |run, _| run((0..8).collect()),
        );
        let lost: Vec<&WorkerFault> = outcomes
            .iter()
            .filter_map(|o| match o {
                JobOutcome::Lost(fault) => Some(fault),
                _ => None,
            })
            .collect();
        assert_eq!(lost.len(), 1, "exactly the panicking job is lost");
        let fault = lost[0];
        assert!(fault.worker < 2, "{fault:?}");
        assert_eq!(
            fault.to_string(),
            format!(
                "pool worker {} panicked on job 3 of round 1: boom on 3",
                fault.worker
            )
        );
    }

    #[test]
    fn injected_panic_returns_the_job() {
        // The hook fires before the job is taken, so the job comes
        // back intact and the pool self-heals via respawn.
        let hook: ExecFaultHook =
            Arc::new(|w, round| (w == 0 && round == 1).then_some(InjectedExecFault::Panic));
        let policy = PoolPolicy {
            stall_timeout: None,
            max_respawns: 4,
            fault_hook: Some(hook),
        };
        let (outcomes, snap) = scoped_supervised(
            2,
            policy,
            |_, x: u64| x * 10,
            |run, health| {
                let first = run(vec![1, 2, 3, 4]);
                let second = run(vec![5]);
                ((first, second), health.snapshot())
            },
        );
        let (first, second) = outcomes;
        let mut returned = 0u32;
        for (i, o) in first.into_iter().enumerate() {
            match o {
                JobOutcome::Done(out) => assert_eq!(out, (i as u64 + 1) * 10),
                JobOutcome::Returned(job, fault) => {
                    assert_eq!(job, i as u64 + 1);
                    assert_eq!(fault.cause, FaultCause::Panic);
                    assert_eq!(fault.worker, 0);
                    assert!(fault.payload.contains("[chaos-exec]"), "{}", fault.payload);
                    returned += 1;
                }
                JobOutcome::Lost(f) => panic!("unexpected loss: {f}"),
            }
        }
        assert!(returned >= 1, "worker 0 must have faulted at least once");
        // Round 2 runs clean on the respawned worker.
        assert!(matches!(second[0], JobOutcome::Done(50)));
        assert_eq!(snap.panics as u32, returned);
        assert_eq!(snap.respawns as u32, returned);
        assert_eq!(snap.quarantined, 0);
    }

    #[test]
    fn stalled_worker_is_respawned_and_result_still_used() {
        let hook: ExecFaultHook = Arc::new(|w, round| {
            (w == 0 && round == 1).then_some(InjectedExecFault::Stall(Duration::from_millis(200)))
        });
        let policy = PoolPolicy {
            stall_timeout: Some(Duration::from_millis(20)),
            max_respawns: 4,
            fault_hook: Some(hook),
        };
        let (outs, snap) = scoped_supervised(
            2,
            policy,
            |_, x: u64| x + 1,
            |run, health| (run(vec![10, 20, 30, 40]), health.snapshot()),
        );
        // Every job completes despite the stall — the late result is
        // awaited and used, in submission order.
        let values: Vec<u64> = outs
            .into_iter()
            .map(|o| match o {
                JobOutcome::Done(v) => v,
                other => panic!("expected Done, got {other:?}"),
            })
            .collect();
        assert_eq!(values, vec![11, 21, 31, 41]);
        assert!(snap.stalls >= 1, "stall heartbeat must have tripped");
        assert!(snap.respawns >= 1);
    }

    #[test]
    fn respawn_exhaustion_degrades_to_inline() {
        // Every worker faults every round and there is no respawn
        // budget: after the initial panics the pool is fully dead and
        // the coordinator finishes the batch inline.
        let hook: ExecFaultHook = Arc::new(|_, _| Some(InjectedExecFault::Panic));
        let policy = PoolPolicy {
            stall_timeout: None,
            max_respawns: 0,
            fault_hook: Some(hook),
        };
        let (outs, snap) = scoped_supervised(
            2,
            policy,
            |_, x: u64| x * 3,
            |run, health| (run(vec![1, 2, 3, 4, 5, 6]), health.snapshot()),
        );
        let done = outs
            .iter()
            .filter(|o| matches!(o, JobOutcome::Done(_)))
            .count();
        let returned = outs
            .iter()
            .filter(|o| matches!(o, JobOutcome::Returned(..)))
            .count();
        assert_eq!(done + returned, 6);
        assert_eq!(snap.quarantined, 2, "both slots must die");
        assert_eq!(snap.respawns, 0);
        assert_eq!(snap.inline_jobs as usize, done);
        assert!(snap.inline_jobs >= 1, "inline degradation must engage");
        // Returned jobs carry their payload for the caller to replay.
        for o in &outs {
            if let JobOutcome::Returned(_, fault) = o {
                assert!(fault.payload.contains("injected panic"));
            }
        }
    }
}
