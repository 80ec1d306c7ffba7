//! Supervisor determinism suite: a multi-round computation driven
//! through `pool::scoped_supervised` must reproduce the fault-free
//! sequential result bit-for-bit under *any* injected worker-fault
//! schedule (panics, stalls, slow starts) at every worker count. The
//! coordinator replays every returned job inline with the same pure job
//! function, so the healing machinery (quarantine, respawn, inline
//! replay) may change wall-clock behavior only, never results.

use pdes::{pool, Digest64, HealthSnapshot, InjectedExecFault, JobOutcome, PoolPolicy};
use proptest::prelude::*;
use sim_core::derive_seed;
use std::sync::Arc;
use std::time::Duration;

/// One job: a shard's state and the round it runs in.
type Job = (u64, u64);

/// The pure job function. A worker and the coordinator replaying a
/// returned job compute the same output from the same job.
fn step((state, round): Job) -> u64 {
    let mut d = Digest64::new();
    d.fold(state);
    d.fold(round);
    d.value()
}

fn initial(seed: u64, shards: usize) -> Vec<u64> {
    (0..shards)
        .map(|i| derive_seed(seed, &format!("shard-{i}")))
        .collect()
}

/// Between rounds each shard absorbs its right neighbour's output, so a
/// misplaced or dropped result perturbs every later round.
fn merge(outs: &[u64]) -> Vec<u64> {
    let n = outs.len();
    (0..n)
        .map(|i| outs[i].rotate_left(7) ^ outs[(i + 1) % n])
        .collect()
}

/// The fault-free sequential result.
fn oracle(seed: u64, shards: usize, rounds: u64) -> Vec<u64> {
    let mut states = initial(seed, shards);
    for round in 0..rounds {
        let outs: Vec<u64> = states.iter().map(|&s| step((s, round))).collect();
        states = merge(&outs);
    }
    states
}

struct Run {
    states: Vec<u64>,
    replayed: u64,
    health: HealthSnapshot,
}

/// Runs `rounds` rounds of one job per worker under `policy`.
fn supervised(seed: u64, workers: usize, rounds: u64, policy: PoolPolicy) -> Run {
    pool::scoped_supervised(
        workers,
        policy,
        |_, job| step(job),
        |run, health| {
            let mut states = initial(seed, workers);
            let mut replayed = 0;
            for round in 0..rounds {
                let jobs = states.iter().map(|&s| (s, round)).collect();
                let outs: Vec<u64> = run(jobs)
                    .into_iter()
                    .map(|outcome| match outcome {
                        JobOutcome::Done(out) => out,
                        JobOutcome::Returned(job, _fault) => {
                            replayed += 1;
                            step(job)
                        }
                        JobOutcome::Lost(fault) => panic!("job lost: {fault}"),
                    })
                    .collect();
                states = merge(&outs);
            }
            Run {
                states,
                replayed,
                health: health.snapshot(),
            }
        },
    )
}

/// A seed-derived fault schedule: per `(worker, round)` the hook draws
/// from a stateless derived stream, so the schedule is a pure function
/// of its seed — identical across runs and independent of dispatch
/// timing.
fn fault_hook(seed: u64, rate_pct: u64) -> pdes::ExecFaultHook {
    Arc::new(move |worker, round| {
        let draw = derive_seed(seed, &format!("fault/{worker}/{round}"));
        if draw % 100 >= rate_pct {
            return None;
        }
        // Panic-heavy mix: panics are wall-clock free, while every
        // stall costs its sleep, so the suite stays fast even under a
        // dense schedule.
        Some(match draw / 100 % 4 {
            0 | 1 => InjectedExecFault::Panic,
            2 => InjectedExecFault::Stall(Duration::from_millis(5)),
            _ => InjectedExecFault::SlowStart(Duration::from_micros(300)),
        })
    })
}

fn policy(seed: u64, rate_pct: u64) -> PoolPolicy {
    PoolPolicy {
        // Short enough that every injected 5 ms stall trips the
        // watchdog; long enough that healthy sub-millisecond rounds
        // never do.
        stall_timeout: Some(Duration::from_millis(2)),
        max_respawns: 64,
        fault_hook: Some(fault_hook(seed, rate_pct)),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Random schedules under a ~25% per-(worker, round) fault rate:
    /// results must match the fault-free oracle exactly, and every
    /// panic-returned job must have been replayed.
    #[test]
    fn faulted_supervised_runs_match_oracle(seed in any::<u64>(), rounds in 4u64..48) {
        for workers in [2usize, 4, 8] {
            let run = supervised(seed, workers, rounds, policy(seed, 25));
            prop_assert_eq!(
                &run.states,
                &oracle(seed, workers, rounds),
                "results diverged under faults (workers={})",
                workers
            );
            prop_assert_eq!(
                run.replayed,
                run.health.panics,
                "replay ledger out of step with panic count (workers={})",
                workers
            );
        }
    }
}

/// A guaranteed-dense panic schedule: every worker faults on every
/// third round. The run must both heal (results match) and *record*
/// the healing (non-zero panic, replay and respawn counters).
#[test]
fn dense_panic_schedule_heals_and_is_recorded() {
    let hook: pdes::ExecFaultHook =
        Arc::new(|_worker, round| (round % 3 == 1).then_some(InjectedExecFault::Panic));
    let run = supervised(
        99,
        4,
        24,
        PoolPolicy {
            stall_timeout: Some(Duration::from_millis(50)),
            max_respawns: 64,
            fault_hook: Some(hook),
        },
    );
    assert_eq!(run.states, oracle(99, 4, 24));
    assert!(run.health.panics > 0, "schedule never fired");
    assert_eq!(run.replayed, run.health.panics);
    assert!(
        run.health.respawns > 0,
        "panicked workers were never respawned"
    );
}

/// Seed-determinism of the schedule itself: the same hook produces the
/// same results and health counters run over run (the schedule is a
/// pure function of `(worker, round)`, not of thread timing).
#[test]
fn fault_schedule_is_seed_deterministic() {
    let run = || {
        let run = supervised(
            21,
            4,
            24,
            PoolPolicy {
                // No stall injection and a generous watchdog: the only
                // nondeterministic counter source (wall-clock timeouts)
                // is out of the picture.
                stall_timeout: Some(Duration::from_secs(5)),
                max_respawns: 64,
                fault_hook: Some(Arc::new(|w, round| {
                    (round % 4 == 1 && w % 2 == 0).then_some(InjectedExecFault::Panic)
                })),
            },
        );
        (run.states, run.health.panics)
    };
    let a = run();
    let b = run();
    assert_eq!(a, b, "same seed, same schedule, different outcome");
}
