//! `obs` — the observability layer of the reproduction.
//!
//! Everything in this crate is a **pure side channel**: enabling,
//! disabling, or reconfiguring telemetry must never change a single
//! byte of study output. That invariant is what lets the layer stay on
//! in release builds and in every test — the pipeline's determinism
//! contract (DESIGN.md §4) is about *simulation* state, and nothing
//! here feeds back into it.
//!
//! Three pieces:
//!
//! * [`metrics`] — a registry of named counters, gauges, and
//!   fixed-bucket histograms behind relaxed atomics. Cheap enough for
//!   hot loops; snapshots are deterministically ordered.
//! * [`span`](mod@span) — guard-style wall-clock timers ([`span!`]) that nest
//!   lexically per thread (`run.generate`, `run.observe`, …) and
//!   record per-stage latency histograms. This module is the one
//!   sanctioned home of `std::time::Instant` in the workspace: the
//!   repo lint bans wall-clock primitives in simulation code and
//!   allowlists `crates/obs` precisely so timing stays quarantined
//!   here.
//! * [`manifest`] — serializes the whole registry plus a run
//!   fingerprint (seed, workers, scenario, build version) to JSON, and
//!   renders a human-readable summary table for stderr.
//!
//! Plus [`log`], a tiny leveled stderr logger (`DDOSCOVERY_LOG`), so
//! library crates never print directly and stdout stays reserved for
//! machine-readable experiment output; [`trace`], the flight recorder
//! (per-thread bounded event rings exported as Chrome trace-event
//! JSON); [`store`], the persistent run-history store backing
//! `ddoscovery runs list|show|diff`; and [`retry`], bounded
//! retry-with-backoff for transient IO (EINTR, claim-by-create races)
//! at the filesystem and socket boundary.

pub mod log;
pub mod manifest;
pub mod metrics;
pub mod retry;
pub mod span;
pub mod store;
pub mod trace;

use std::sync::atomic::{AtomicBool, Ordering};

/// Process-wide telemetry switch. On by default: recording is cheap
/// (relaxed atomics) and the output invariant makes it safe. Disabling
/// skips wall-clock reads and histogram updates; counters keep
/// counting (they cost one relaxed add and several are folded into
/// library statistics).
static ENABLED: AtomicBool = AtomicBool::new(true);

/// Is telemetry recording enabled?
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Enable or disable telemetry recording. Study output is byte-for-byte
/// identical either way — enforced by `crates/core/tests/telemetry.rs`.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// A wall-clock stopwatch that degrades to a no-op when telemetry is
/// disabled. The only way simulation crates may measure elapsed time.
#[derive(Debug)]
pub struct Stopwatch(Option<std::time::Instant>);

impl Stopwatch {
    /// Start timing now (or never, if telemetry is off).
    pub fn start() -> Stopwatch {
        Stopwatch(enabled().then(std::time::Instant::now))
    }

    /// Nanoseconds since [`Stopwatch::start`]; 0 when disabled.
    pub fn elapsed_ns(&self) -> u64 {
        self.0
            .map(|t| t.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64)
            .unwrap_or(0)
    }
}

/// Peak resident set size of this process in bytes (`VmHWM` from
/// `/proc/self/status`), or `None` where the procfs field is
/// unavailable (non-Linux platforms, restricted mounts). Like the rest
/// of this crate it is a pure side channel: a monotone high-water mark
/// the pipeline records as the `run.peak_rss` gauge after each stage.
pub fn peak_rss_bytes() -> Option<u64> {
    #[cfg(target_os = "linux")]
    {
        let status = std::fs::read_to_string("/proc/self/status").ok()?;
        parse_vm_hwm(&status)
    }
    #[cfg(not(target_os = "linux"))]
    {
        None
    }
}

/// Extract `VmHWM` (reported in kB) from a `/proc/self/status` body.
#[cfg_attr(not(target_os = "linux"), allow(dead_code))]
fn parse_vm_hwm(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: u64 = line
        .split_whitespace()
        .nth(1)?
        .parse()
        .ok()?;
    Some(kb * 1024)
}

#[cfg(test)]
mod rss_tests {
    #[test]
    fn parses_vm_hwm_lines() {
        let body = "Name:\tx\nVmPeak:\t  999 kB\nVmHWM:\t  123456 kB\nVmRSS:\t  88 kB\n";
        assert_eq!(super::parse_vm_hwm(body), Some(123_456 * 1024));
        assert_eq!(super::parse_vm_hwm("Name:\tx\n"), None);
        assert_eq!(super::parse_vm_hwm("VmHWM:\tjunk kB\n"), None);
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn reads_a_positive_peak_on_linux() {
        let peak = super::peak_rss_bytes().expect("procfs VmHWM available on Linux");
        assert!(peak > 0);
    }
}
