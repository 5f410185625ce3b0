//! Structured, leveled logging with a bounded flight recorder.
//!
//! Dependency-free sibling of the `log`/`tracing` crates, scoped to what
//! this workspace needs: a process-wide level filter, JSON-line records,
//! and a bounded in-memory ring (the *flight recorder*) that keeps the
//! most recent records so they can be drained after the fact — `nscd`
//! exposes the drain as its `logs` op.
//!
//! # Level filter
//!
//! The filter starts from `NSC_LOG` (`off`, `error`, `warn`, `info`,
//! `debug`, `trace`; unset means *off*), read through
//! [`crate::config`] on the first log call and cached in an atomic.
//! Binaries that want logging on by default (the daemon) install a
//! configuration whose `log` default is their preferred level.
//!
//! # Cost model
//!
//! Same discipline as [`crate::trace`] and [`crate::metrics`]: a
//! disabled call site is one relaxed atomic load and a branch — the
//! message closure never runs, nothing allocates (asserted by the
//! `metrics_noalloc` integration test). Enabled records take a short
//! mutex on the ring; log sites live on the serving path, never inside
//! the simulation, so sim results are byte-identical at any level.
//!
//! # Examples
//!
//! ```
//! use nsc_sim::log::{self, Level};
//!
//! log::set_level(Some(Level::Debug));
//! log::debug("doc", || format!("answer={}", 42));
//! let (records, dropped) = log::drain();
//! assert!(records.iter().any(|r| r.msg == "answer=42"));
//! assert_eq!(dropped, 0);
//! log::set_level(None); // leave it off for the rest of the doc tests
//! ```

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Mutex, OnceLock};

/// Severity, ordered so that a level filter admits everything at or
/// below its numeric value.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum Level {
    /// Unrecoverable or data-affecting problems.
    Error = 1,
    /// Degraded but continuing (e.g. a malformed request line).
    Warn = 2,
    /// Lifecycle events: startup, shutdown, per-request completion.
    Info = 3,
    /// Per-phase detail useful when chasing a latency report.
    Debug = 4,
    /// Everything, including per-line protocol chatter.
    Trace = 5,
}

impl Level {
    /// Lower-case label used in rendered records and `NSC_LOG`.
    pub fn label(self) -> &'static str {
        match self {
            Level::Error => "error",
            Level::Warn => "warn",
            Level::Info => "info",
            Level::Debug => "debug",
            Level::Trace => "trace",
        }
    }

    /// Parses an `NSC_LOG` value. `Some(None)` means explicitly off;
    /// `None` means unrecognized.
    pub fn parse(s: &str) -> Option<Option<Level>> {
        match s.trim().to_ascii_lowercase().as_str() {
            "" | "0" | "off" | "none" => Some(None),
            "error" | "1" => Some(Some(Level::Error)),
            "warn" | "warning" | "2" => Some(Some(Level::Warn)),
            "info" | "3" => Some(Some(Level::Info)),
            "debug" | "4" => Some(Some(Level::Debug)),
            "trace" | "5" => Some(Some(Level::Trace)),
            _ => None,
        }
    }
}

/// Sentinel meaning "not initialized yet": the first log call resolves
/// the configured level and replaces it.
const UNINIT: u8 = 0xFF;
const OFF: u8 = 0;

/// Flight-recorder capacity in records.
const FLIGHT_CAP: usize = 4096;

static LEVEL: AtomicU8 = AtomicU8::new(UNINIT);

#[cold]
fn init_from_config() -> u8 {
    let v = crate::config::get().log.map_or(OFF, |l| l as u8);
    LEVEL.store(v, Ordering::Relaxed);
    v
}

/// Forces the level filter, overriding `NSC_LOG` (tests, client tools).
pub fn set_level(level: Option<Level>) {
    LEVEL.store(level.map_or(OFF, |l| l as u8), Ordering::Relaxed);
}

/// Fast-path check: would a record at `level` be admitted?
#[inline]
pub fn enabled(level: Level) -> bool {
    let v = LEVEL.load(Ordering::Relaxed);
    if v == UNINIT {
        return init_from_config() >= level as u8;
    }
    v >= level as u8
}

/// One captured record.
#[derive(Clone, Debug)]
pub struct LogRecord {
    /// Monotonic sequence number, never reused (gaps mean drops).
    pub seq: u64,
    /// Capture time, µs since the process span epoch ([`crate::span::now_us`]).
    pub ts_us: u64,
    /// Severity.
    pub level: Level,
    /// Subsystem tag (`serve`, `nscd`, ...).
    pub target: &'static str,
    /// Rendered message.
    pub msg: String,
}

impl LogRecord {
    /// Renders the record as one line of JSON.
    pub fn render(&self) -> String {
        format!(
            "{{\"seq\":{},\"ts_us\":{},\"level\":\"{}\",\"target\":\"{}\",\"msg\":\"{}\"}}",
            self.seq,
            self.ts_us,
            self.level.label(),
            self.target,
            crate::json::escape(&self.msg)
        )
    }
}

struct Flight {
    next_seq: u64,
    /// Records evicted (ring full) since the last drain.
    dropped: u64,
    ring: VecDeque<LogRecord>,
}

static FLIGHT: OnceLock<Mutex<Flight>> = OnceLock::new();

fn flight() -> &'static Mutex<Flight> {
    FLIGHT.get_or_init(|| {
        Mutex::new(Flight { next_seq: 0, dropped: 0, ring: VecDeque::with_capacity(1024) })
    })
}

#[cold]
fn record(level: Level, target: &'static str, msg: String) {
    let ts_us = crate::span::now_us();
    let mut fl = flight().lock().unwrap_or_else(|e| e.into_inner());
    let seq = fl.next_seq;
    fl.next_seq += 1;
    let rec = LogRecord { seq, ts_us, level, target, msg };
    if fl.ring.len() == FLIGHT_CAP {
        fl.ring.pop_front();
        fl.dropped += 1;
    }
    fl.ring.push_back(rec);
}

/// Logs through a deferred closure: when the level filter rejects the
/// record, `f` never runs and nothing allocates.
#[inline]
pub fn log(level: Level, target: &'static str, f: impl FnOnce() -> String) {
    if enabled(level) {
        record(level, target, f());
    }
}

/// [`log`] at [`Level::Error`].
#[inline]
pub fn error(target: &'static str, f: impl FnOnce() -> String) {
    log(Level::Error, target, f);
}

/// [`log`] at [`Level::Warn`].
#[inline]
pub fn warn(target: &'static str, f: impl FnOnce() -> String) {
    log(Level::Warn, target, f);
}

/// [`log`] at [`Level::Info`].
#[inline]
pub fn info(target: &'static str, f: impl FnOnce() -> String) {
    log(Level::Info, target, f);
}

/// [`log`] at [`Level::Debug`].
#[inline]
pub fn debug(target: &'static str, f: impl FnOnce() -> String) {
    log(Level::Debug, target, f);
}

/// [`log`] at [`Level::Trace`].
#[inline]
pub fn trace(target: &'static str, f: impl FnOnce() -> String) {
    log(Level::Trace, target, f);
}

/// Drains the flight recorder: returns every buffered record (oldest
/// first) and the number of records evicted since the previous drain.
pub fn drain() -> (Vec<LogRecord>, u64) {
    let mut fl = flight().lock().unwrap_or_else(|e| e.into_inner());
    let dropped = std::mem::take(&mut fl.dropped);
    (fl.ring.drain(..).collect(), dropped)
}

#[cfg(test)]
mod tests {
    use super::*;

    // Level state is process-global; keep everything that mutates it in
    // one test to avoid cross-test interference.
    #[test]
    fn filter_ring_and_render() {
        set_level(Some(Level::Info));
        assert!(enabled(Level::Error));
        assert!(enabled(Level::Info));
        assert!(!enabled(Level::Debug));

        let _ = drain(); // isolate from records other tests may have left
        let mut ran = false;
        debug("test", || {
            ran = true;
            String::from("must not run")
        });
        assert!(!ran, "closure ran below the level filter");
        info("test", || format!("served rid={:x}", 0xBEEFu32));
        warn("test", || "quoted \"msg\"".to_string());

        let (recs, dropped) = drain();
        assert_eq!(dropped, 0);
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].level, Level::Info);
        assert_eq!(recs[0].target, "test");
        assert_eq!(recs[0].msg, "served rid=beef");
        assert!(recs[1].seq > recs[0].seq);
        let line = recs[1].render();
        assert!(line.contains("\"level\":\"warn\""));
        assert!(line.contains("\\\"msg\\\""), "render must escape quotes: {line}");
        crate::json::parse(&line).expect("rendered record is valid JSON");

        // Drain empties the ring.
        assert_eq!(drain().0.len(), 0);
        set_level(None);
        assert!(!enabled(Level::Error));
    }

    #[test]
    fn parse_accepts_all_spellings() {
        assert_eq!(Level::parse("off"), Some(None));
        assert_eq!(Level::parse(""), Some(None));
        assert_eq!(Level::parse("WARN"), Some(Some(Level::Warn)));
        assert_eq!(Level::parse("trace"), Some(Some(Level::Trace)));
        assert_eq!(Level::parse("5"), Some(Some(Level::Trace)));
        assert_eq!(Level::parse("verbose"), None);
    }

    #[test]
    fn labels_roundtrip() {
        for l in [Level::Error, Level::Warn, Level::Info, Level::Debug, Level::Trace] {
            assert_eq!(Level::parse(l.label()), Some(Some(l)));
        }
    }
}
