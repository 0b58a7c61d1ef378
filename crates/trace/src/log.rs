//! A tiny leveled logger: one stderr line per event, target-prefixed,
//! level-filtered by the `SPOT_LOG` environment variable.
//!
//! This replaces the ad-hoc `eprintln!` diagnostics that accumulated in
//! the serving binaries with output that is grep-stable (every line is
//! `[LEVEL target] message`) and tunable at launch without a rebuild:
//!
//! ```text
//! SPOT_LOG=debug spot-server --listen 127.0.0.1:7000 ...
//! ```
//!
//! Levels are `error < warn < info < debug`; the default is `info`.
//! The filter is parsed once on first use and cached in an atomic, so
//! the per-call cost of a suppressed line is one relaxed load and a
//! compare — the formatting arguments are never evaluated (the check
//! lives in the macros, before `format_args!`).
//!
//! Zero dependencies, no timestamps, no global state beyond the cached
//! level: a server that wants richer telemetry has the trace and its
//! per-session counters ([`crate::SessionCounters`]); this is for the
//! human tail of `stderr`.

use std::fmt;
use std::io::Write as _;
use std::sync::atomic::{AtomicU8, Ordering};

/// Log severity, ordered `Error < Warn < Info < Debug` (a level admits
/// itself and everything more severe).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum Level {
    /// The process is losing work (failed sessions, I/O errors).
    Error = 0,
    /// Degraded but continuing (admission rejects, protocol garbage).
    Warn = 1,
    /// Normal life-cycle events (session served, server listening).
    Info = 2,
    /// Per-step detail for debugging.
    Debug = 3,
}

impl Level {
    fn tag(self) -> &'static str {
        match self {
            Level::Error => "ERROR",
            Level::Warn => "WARN",
            Level::Info => "INFO",
            Level::Debug => "DEBUG",
        }
    }

    fn parse(s: &str) -> Option<Level> {
        match s.trim().to_ascii_lowercase().as_str() {
            "error" => Some(Level::Error),
            "warn" | "warning" => Some(Level::Warn),
            "info" => Some(Level::Info),
            "debug" => Some(Level::Debug),
            _ => None,
        }
    }
}

/// Cached max level + 1; 0 means "not yet initialised from SPOT_LOG".
static MAX_LEVEL: AtomicU8 = AtomicU8::new(0);

fn max_level() -> Level {
    match MAX_LEVEL.load(Ordering::Relaxed) {
        1 => Level::Error,
        2 => Level::Warn,
        3 => Level::Info,
        4 => Level::Debug,
        _ => {
            let level = std::env::var("SPOT_LOG")
                .ok()
                .and_then(|s| Level::parse(&s))
                .unwrap_or(Level::Info);
            MAX_LEVEL.store(level as u8 + 1, Ordering::Relaxed);
            level
        }
    }
}

/// Overrides the level filter (tests; normal processes configure via
/// `SPOT_LOG`).
pub fn set_max_level(level: Level) {
    MAX_LEVEL.store(level as u8 + 1, Ordering::Relaxed);
}

/// Whether a line at `level` would be emitted. The macros check this
/// before evaluating their format arguments.
#[inline]
pub fn log_enabled(level: Level) -> bool {
    level <= max_level()
}

/// Emits one `[LEVEL target] message` line to stderr. Prefer the
/// [`log_error!`](crate::log_error)/[`log_warn!`](crate::log_warn)/
/// [`log_info!`](crate::log_info)/[`log_debug!`](crate::log_debug)
/// macros, which skip argument evaluation when filtered.
pub fn log(level: Level, target: &str, args: fmt::Arguments<'_>) {
    if !log_enabled(level) {
        return;
    }
    // One write_all per line so concurrent threads do not interleave
    // mid-line; stderr's lock makes the single call atomic enough.
    let line = format!("[{} {}] {}\n", level.tag(), target, args);
    let _ = std::io::stderr().write_all(line.as_bytes());
}

/// Logs at [`Level::Error`]: `log_error!("server", "accept failed: {e}")`.
#[macro_export]
macro_rules! log_error {
    ($target:expr, $($arg:tt)*) => {
        if $crate::log::log_enabled($crate::log::Level::Error) {
            $crate::log::log($crate::log::Level::Error, $target, format_args!($($arg)*));
        }
    };
}

/// Logs at [`Level::Warn`].
#[macro_export]
macro_rules! log_warn {
    ($target:expr, $($arg:tt)*) => {
        if $crate::log::log_enabled($crate::log::Level::Warn) {
            $crate::log::log($crate::log::Level::Warn, $target, format_args!($($arg)*));
        }
    };
}

/// Logs at [`Level::Info`].
#[macro_export]
macro_rules! log_info {
    ($target:expr, $($arg:tt)*) => {
        if $crate::log::log_enabled($crate::log::Level::Info) {
            $crate::log::log($crate::log::Level::Info, $target, format_args!($($arg)*));
        }
    };
}

/// Logs at [`Level::Debug`].
#[macro_export]
macro_rules! log_debug {
    ($target:expr, $($arg:tt)*) => {
        if $crate::log::log_enabled($crate::log::Level::Debug) {
            $crate::log::log($crate::log::Level::Debug, $target, format_args!($($arg)*));
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn level_order_and_parse() {
        assert!(Level::Error < Level::Warn);
        assert!(Level::Warn < Level::Info);
        assert!(Level::Info < Level::Debug);
        assert_eq!(Level::parse("debug"), Some(Level::Debug));
        assert_eq!(Level::parse("WARN"), Some(Level::Warn));
        assert_eq!(Level::parse("warning"), Some(Level::Warn));
        assert_eq!(Level::parse(" info "), Some(Level::Info));
        assert_eq!(Level::parse("nope"), None);
    }

    #[test]
    fn filter_respects_set_level() {
        set_max_level(Level::Warn);
        assert!(log_enabled(Level::Error));
        assert!(log_enabled(Level::Warn));
        assert!(!log_enabled(Level::Info));
        assert!(!log_enabled(Level::Debug));
        set_max_level(Level::Debug);
        assert!(log_enabled(Level::Debug));
        // Reset to default for other tests in this process.
        set_max_level(Level::Info);
    }
}
