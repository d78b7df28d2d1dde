//! Bounded retry with backoff for transient IO.
//!
//! Filesystem and socket syscalls fail transiently in well-understood
//! ways — `EINTR` under signal delivery, `AlreadyExists` when racing a
//! sibling process for a claim-by-`create_new` name, `WouldBlock` on a
//! briefly saturated descriptor. Scattering ad-hoc loops around each
//! call site invites two bugs this module exists to prevent: unbounded
//! spinning (the old run-store claim loop) and silently swallowing a
//! *non*-transient error. [`with_backoff`] makes the attempt budget and
//! the retryable-error predicate explicit at every call site.
//!
//! This is **IO-boundary** machinery only: nothing in the simulation
//! pipeline may branch on it (retry here is invisible to study output,
//! like the rest of this crate). Panic recovery is a different concern
//! with a different budget — that stays in `simcore::recover`.

use std::io;
use std::thread;
use std::time::Duration;

/// True for the error kinds that signal "try the same operation again":
/// interrupted syscalls and expired/not-ready descriptors. Claim-loop
/// races (`AlreadyExists`) are *not* included — they are only
/// retryable when the caller varies the name per attempt, so such call
/// sites pass their own predicate.
pub fn is_transient(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::Interrupted | io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// Milliseconds slept before retry `attempt` (the first retry is
/// immediate; later ones back off geometrically, capped at 4 ms —
/// these are local-filesystem races, not remote calls).
fn backoff_ms(attempt: u32) -> u64 {
    match attempt {
        0 | 1 => 0,
        2 => 1,
        3 => 2,
        _ => 4,
    }
}

/// Run `op(attempt)` up to `attempts` times, sleeping `backoff_ms`
/// between tries, retrying only while `retryable` accepts the error.
/// The final error (or the first non-retryable one) is returned as-is.
/// Each retry is logged at debug level and counted in `io.retries`.
pub fn with_backoff<T>(
    label: &str,
    attempts: u32,
    retryable: impl Fn(&io::Error) -> bool,
    mut op: impl FnMut(u32) -> io::Result<T>,
) -> io::Result<T> {
    let budget = attempts.max(1);
    let mut attempt = 0;
    loop {
        match op(attempt) {
            Ok(v) => return Ok(v),
            Err(e) if attempt + 1 < budget && retryable(&e) => {
                crate::metrics::counter("io.retries").inc();
                crate::debug!("retry: {label}: attempt {attempt} failed ({e}); retrying");
                attempt += 1;
                let pause = backoff_ms(attempt);
                if pause > 0 {
                    thread::sleep(Duration::from_millis(pause));
                }
            }
            Err(e) => return Err(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Error, ErrorKind};

    #[test]
    fn first_success_returns_immediately() {
        let mut calls = 0;
        let v = with_backoff("t", 5, is_transient, |_| {
            calls += 1;
            Ok::<_, Error>(42)
        });
        assert_eq!(v.expect("ok"), 42);
        assert_eq!(calls, 1);
    }

    #[test]
    fn transient_errors_retry_up_to_budget() {
        let mut calls = 0;
        let v = with_backoff("t", 4, is_transient, |attempt| {
            calls += 1;
            if attempt < 3 {
                Err(Error::new(ErrorKind::Interrupted, "eintr"))
            } else {
                Ok(attempt)
            }
        });
        assert_eq!(v.expect("recovers"), 3);
        assert_eq!(calls, 4);
    }

    #[test]
    fn budget_exhaustion_surfaces_the_last_error() {
        let err = with_backoff("t", 3, is_transient, |_| {
            Err::<(), _>(Error::new(ErrorKind::WouldBlock, "busy"))
        })
        .expect_err("exhausts");
        assert_eq!(err.kind(), ErrorKind::WouldBlock);
    }

    #[test]
    fn non_retryable_errors_fail_fast() {
        let mut calls = 0;
        let err = with_backoff("t", 10, is_transient, |_| {
            calls += 1;
            Err::<(), _>(Error::new(ErrorKind::PermissionDenied, "denied"))
        })
        .expect_err("fails fast");
        assert_eq!(err.kind(), ErrorKind::PermissionDenied);
        assert_eq!(calls, 1);
    }

    #[test]
    fn custom_predicate_handles_claim_races() {
        let mut calls = 0;
        let v = with_backoff(
            "claim",
            8,
            |e| e.kind() == ErrorKind::AlreadyExists,
            |attempt| {
                calls += 1;
                if attempt < 2 {
                    Err(Error::new(ErrorKind::AlreadyExists, "taken"))
                } else {
                    Ok(attempt)
                }
            },
        );
        assert_eq!(v.expect("claims a free slot"), 2);
        assert_eq!(calls, 3);
    }

    #[test]
    fn zero_attempt_budget_still_runs_once() {
        let v = with_backoff("t", 0, is_transient, |_| Ok::<_, Error>(1));
        assert_eq!(v.expect("ok"), 1);
    }
}
