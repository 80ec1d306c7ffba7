//! Process-wide panic supervision gate.
//!
//! The harness executor runs work it expects may panic and recovers
//! from it deliberately: it isolates each sweep cell behind
//! `catch_unwind`. For those *supervised* sections the
//! default panic hook's backtrace spew is pure noise — but silencing
//! the hook globally (what the executor used to do) also swallows
//! panics from threads nobody is supervising: a telemetry flush, a
//! stray detached thread, a bug in the scheduler itself.
//!
//! This module scopes the suppression to exactly the threads that asked
//! for it. [`install_panic_gate`] installs one process-wide hook (once,
//! idempotently) that delegates to the previously-installed hook unless
//! the *current thread* is inside a [`supervised_section`] guard. Every
//! supervised runner enters the guard around the `catch_unwind` it owns;
//! every other thread keeps the default loud behavior.

use std::cell::Cell;
use std::panic;
use std::sync::Once;

thread_local! {
    /// Depth of nested supervised sections on this thread.
    static SUPERVISED_DEPTH: Cell<u32> = const { Cell::new(0) };
}

static GATE: Once = Once::new();

/// Installs the gate hook (first call only; later calls are no-ops).
///
/// The hook captured at install time — normally the default hook, with
/// its message and backtrace — keeps handling panics on unsupervised
/// threads; supervised sections are silent because their supervisor
/// reports the failure itself, with better context.
pub fn install_panic_gate() {
    GATE.call_once(|| {
        let prev = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            if !thread_is_supervised() {
                prev(info);
            }
        }));
    });
}

/// Whether the current thread is inside a [`supervised_section`].
pub fn thread_is_supervised() -> bool {
    SUPERVISED_DEPTH.with(|d| d.get() > 0)
}

/// RAII guard marking the current thread as supervised; see
/// [`supervised_section`].
pub struct SupervisedGuard {
    _private: (),
}

impl Drop for SupervisedGuard {
    fn drop(&mut self) {
        SUPERVISED_DEPTH.with(|d| d.set(d.get() - 1));
    }
}

/// Marks the current thread as supervised until the returned guard
/// drops, and makes sure the gate hook is installed. Panics raised
/// while the guard is live skip the default hook — the caller is
/// expected to `catch_unwind` and report them with context.
pub fn supervised_section() -> SupervisedGuard {
    install_panic_gate();
    SUPERVISED_DEPTH.with(|d| d.set(d.get() + 1));
    SupervisedGuard { _private: () }
}

/// Renders a caught panic payload as a message string (the common
/// `&str` / `String` payloads verbatim, anything else a placeholder).
pub fn panic_payload_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic with non-string payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    #[test]
    fn guard_nests_and_restores() {
        assert!(!thread_is_supervised());
        {
            let _a = supervised_section();
            assert!(thread_is_supervised());
            {
                let _b = supervised_section();
                assert!(thread_is_supervised());
            }
            assert!(thread_is_supervised());
        }
        assert!(!thread_is_supervised());
    }

    #[test]
    fn supervised_panics_are_catchable_and_named() {
        let _guard = supervised_section();
        let err = catch_unwind(AssertUnwindSafe(|| panic!("boom {}", 7))).unwrap_err();
        assert_eq!(panic_payload_message(err.as_ref()), "boom 7");
        let err = catch_unwind(AssertUnwindSafe(|| panic!("static"))).unwrap_err();
        assert_eq!(panic_payload_message(err.as_ref()), "static");
    }

    #[test]
    fn other_threads_stay_unsupervised() {
        let _guard = supervised_section();
        let other = std::thread::spawn(thread_is_supervised)
            .join()
            .expect("probe thread");
        assert!(!other, "supervision must not leak across threads");
    }
}
