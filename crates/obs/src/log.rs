//! Leveled stderr logging.
//!
//! The repo convention (enforced by the repo lint,
//! `tests/repo_lint.rs`) is that library crates never call `println!`
//! or `eprintln!` directly: stdout is reserved for machine-readable
//! experiment output, and stderr diagnostics go through this module so
//! `DDOSCOVERY_LOG=error|warn|info|debug` controls verbosity uniformly.
//! This file is the one allowlisted `eprintln!` site in library code.

use std::fmt;
use std::sync::atomic::{AtomicU8, Ordering};

/// Environment variable selecting the maximum emitted level.
pub const LOG_ENV: &str = "DDOSCOVERY_LOG";

/// Log severity, most severe first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    Error = 0,
    Warn = 1,
    Info = 2,
    Debug = 3,
}

impl Level {
    fn from_u8(v: u8) -> Level {
        match v {
            0 => Level::Error,
            1 => Level::Warn,
            2 => Level::Info,
            _ => Level::Debug,
        }
    }

    /// Parse a `DDOSCOVERY_LOG` value; `None` for unrecognized input.
    pub fn parse(s: &str) -> Option<Level> {
        match s.trim().to_ascii_lowercase().as_str() {
            "error" => Some(Level::Error),
            "warn" | "warning" => Some(Level::Warn),
            "info" => Some(Level::Info),
            "debug" | "trace" => Some(Level::Debug),
            _ => None,
        }
    }

    fn tag(self) -> &'static str {
        match self {
            Level::Error => "error",
            Level::Warn => "warn",
            Level::Info => "info",
            Level::Debug => "debug",
        }
    }
}

impl fmt::Display for Level {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.tag())
    }
}

/// 255 = not yet initialized from the environment.
static MAX_LEVEL: AtomicU8 = AtomicU8::new(255);

/// The maximum level currently emitted (default: `info`).
pub fn max_level() -> Level {
    let raw = MAX_LEVEL.load(Ordering::Relaxed);
    if raw != 255 {
        return Level::from_u8(raw);
    }
    let level = std::env::var(LOG_ENV)
        .ok()
        .and_then(|v| Level::parse(&v))
        .unwrap_or(Level::Info);
    MAX_LEVEL.store(level as u8, Ordering::Relaxed);
    level
}

/// Override the emitted level (wins over the environment).
pub fn set_max_level(level: Level) {
    MAX_LEVEL.store(level as u8, Ordering::Relaxed);
}

/// Emit one record to stderr if `level` is within the configured
/// maximum. Prefer the [`crate::error!`] … [`crate::debug!`] macros.
pub fn log(level: Level, args: fmt::Arguments<'_>) {
    if level <= max_level() {
        eprintln!("[{level:5}] {args}");
    }
}

/// Write preformatted text straight to stderr, bypassing levels — for
/// deliberate human-readable artifacts like the telemetry summary
/// table, which must appear even under `DDOSCOVERY_LOG=error`.
pub fn raw_stderr(text: &str) {
    eprintln!("{text}");
}

#[macro_export]
macro_rules! error {
    ($($arg:tt)*) => { $crate::log::log($crate::log::Level::Error, format_args!($($arg)*)) };
}

#[macro_export]
macro_rules! warn {
    ($($arg:tt)*) => { $crate::log::log($crate::log::Level::Warn, format_args!($($arg)*)) };
}

#[macro_export]
macro_rules! info {
    ($($arg:tt)*) => { $crate::log::log($crate::log::Level::Info, format_args!($($arg)*)) };
}

#[macro_export]
macro_rules! debug {
    ($($arg:tt)*) => { $crate::log::log($crate::log::Level::Debug, format_args!($($arg)*)) };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_levels() {
        assert_eq!(Level::parse("warn"), Some(Level::Warn));
        assert_eq!(Level::parse(" DEBUG "), Some(Level::Debug));
        assert_eq!(Level::parse("warning"), Some(Level::Warn));
        assert_eq!(Level::parse("nope"), None);
    }

    #[test]
    fn ordering_matches_severity() {
        assert!(Level::Error < Level::Warn);
        assert!(Level::Info < Level::Debug);
    }

    #[test]
    fn set_max_level_wins() {
        set_max_level(Level::Error);
        assert_eq!(max_level(), Level::Error);
        set_max_level(Level::Info);
        assert_eq!(max_level(), Level::Info);
    }
}
