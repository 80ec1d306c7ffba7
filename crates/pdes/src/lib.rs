//! # pdes — the supervised worker pool and digest
//!
//! The machinery under `rdma-verbs`' conservative parallel event engine
//! (`Simulation::run_until_workers`):
//!
//! - [`pool::scoped_supervised`] — the safe ownership ping-pong worker
//!   pool: batches of owned jobs out, [`JobOutcome`]s back in
//!   submission order, with worker panics and stalls caught,
//!   quarantined and (per [`PoolPolicy`]) respawned.
//! - [`Digest64`] — the order-sensitive fingerprint the engine folds
//!   every executed event into, so runs compare across worker counts.
//!
//! The crate also hosts the process-wide *ambient worker count*
//! ([`set_ambient_workers`] / [`ambient_workers`]) that the harness
//! `--workers N` flag sets and the cluster scenarios read — threading
//! the knob without widening every `Experiment::run` signature (and
//! keeping it out of cache keys by construction, exactly like
//! `--threads`) — and its supervision twin
//! ([`set_ambient_supervision`] / [`ambient_supervision`]).

#![warn(missing_docs)]

mod digest;
pub mod pool;

pub use digest::Digest64;
pub use pool::{
    ExecFaultHook, FaultCause, HealthSnapshot, InjectedExecFault, JobOutcome, PoolHealth,
    PoolPolicy, WorkerFault,
};

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

static AMBIENT_WORKERS: AtomicUsize = AtomicUsize::new(1);

/// Sets the process-wide worker count scenario code should use for
/// parallel simulation runs. The harness calls this from `--workers N`
/// before dispatching experiment cells; `1` (the default) means the
/// plain sequential engine.
pub fn set_ambient_workers(n: usize) {
    AMBIENT_WORKERS.store(n.max(1), Ordering::Relaxed);
}

/// The worker count last set by [`set_ambient_workers`] (default 1).
pub fn ambient_workers() -> usize {
    AMBIENT_WORKERS.load(Ordering::Relaxed)
}

static AMBIENT_SUPERVISION: Mutex<Option<PoolPolicy>> = Mutex::new(None);

/// Installs (or clears, with `None`) the process-wide supervision
/// policy that parallel runs pick up, the same way [`ambient_workers`]
/// threads `--workers`. The harness sets this from `--cell-timeout` /
/// exec-chaos flags before dispatching cells; `None` (the default)
/// means unsupervised pools with default policy.
pub fn set_ambient_supervision(policy: Option<PoolPolicy>) {
    *AMBIENT_SUPERVISION
        .lock()
        .unwrap_or_else(PoisonError::into_inner) = policy;
}

/// The supervision policy last installed by [`set_ambient_supervision`].
pub fn ambient_supervision() -> Option<PoolPolicy> {
    AMBIENT_SUPERVISION
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .clone()
}
