//! Client-side protocol helpers shared by `nsc-client` and the tests:
//! one-shot roundtrips, read timeouts, and a bounded retry loop with
//! seeded exponential backoff that honors the daemon's
//! `retry_after_ms` hints.
//!
//! Retries are safe because run submissions are idempotent: the daemon
//! keeps completed responses keyed by `request_id`, so resubmitting
//! the *same* request (same rid) after a lost response replays the
//! stored result instead of re-simulating. The backoff schedule is a
//! pure function of [`RetryPolicy`] (including its seed), which is
//! what makes the retry path unit-testable.

use crate::json::Obj;
use crate::{is_retryable_shed, Request};
use nsc_sim::rng::Rng;
use std::io::{self, BufRead, BufReader, Write};
use std::net::Shutdown;
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::time::Duration;

/// Sends `reqs` over one connection and collects every response line.
///
/// The write half is shut down after the batch so the daemon sees EOF
/// and the response stream terminates; responses come back in
/// submission order, so `out[i]` answers `reqs[i]`.
pub fn roundtrip(socket: &Path, reqs: &[Request]) -> io::Result<Vec<Obj>> {
    roundtrip_timeout(socket, reqs, 0)
}

/// [`roundtrip`] with a per-read timeout in milliseconds (0 = block
/// forever). A daemon that wedges mid-stream surfaces as a
/// `WouldBlock`/`TimedOut` error instead of hanging the client.
pub fn roundtrip_timeout(socket: &Path, reqs: &[Request], read_timeout_ms: u64) -> io::Result<Vec<Obj>> {
    let mut stream = UnixStream::connect(socket)?;
    if read_timeout_ms > 0 {
        stream.set_read_timeout(Some(Duration::from_millis(read_timeout_ms)))?;
        stream.set_write_timeout(Some(Duration::from_millis(read_timeout_ms)))?;
    }
    let mut payload = String::with_capacity(reqs.len() * 64);
    for r in reqs {
        payload.push_str(&r.render());
        payload.push('\n');
    }
    stream.write_all(payload.as_bytes())?;
    stream.shutdown(Shutdown::Write)?;
    let reader = BufReader::new(stream);
    let mut out = Vec::with_capacity(reqs.len());
    for line in reader.lines() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        let obj = Obj::parse(&line).ok_or_else(|| {
            io::Error::new(io::ErrorKind::InvalidData, format!("bad response line: {line:?}"))
        })?;
        out.push(obj);
    }
    Ok(out)
}

/// Bounded-retry knobs. The whole schedule — which attempt sleeps how
/// long — is a deterministic function of this struct, seed included.
#[derive(Clone, Copy, Debug)]
pub struct RetryPolicy {
    /// Retry attempts after the first try (default 3).
    pub max_retries: u32,
    /// First backoff step in ms; doubles per attempt (default 100).
    pub base_ms: u64,
    /// Backoff ceiling in ms (default 5000).
    pub cap_ms: u64,
    /// Jitter added on top of each step, as a percentage of the step
    /// (default 20).
    pub jitter_pct: u64,
    /// Seed for the jitter stream (default 1) — fixed seed,
    /// deterministic schedule.
    pub seed: u64,
    /// Per-read timeout in ms, 0 = block forever (default 30000).
    pub read_timeout_ms: u64,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_retries: 3,
            base_ms: 100,
            cap_ms: 5_000,
            jitter_pct: 20,
            seed: 1,
            read_timeout_ms: 30_000,
        }
    }
}

impl RetryPolicy {
    /// The sleep before retry number `attempt` (0-based): exponential
    /// `base_ms << attempt` capped at `cap_ms`, floored by the daemon's
    /// `retry_after_ms` hint, plus seeded jitter. Pure given `rng`'s
    /// state, so a fixed seed yields a fixed schedule.
    pub fn backoff_ms(&self, rng: &mut Rng, attempt: u32, retry_after_ms: u64) -> u64 {
        let exp = self.base_ms.saturating_mul(1u64 << attempt.min(20));
        let step = exp.min(self.cap_ms).max(retry_after_ms.min(self.cap_ms));
        let jitter_span = step.saturating_mul(self.jitter_pct) / 100;
        // `gen_range_u64` requires a non-zero bound.
        let jitter = if jitter_span == 0 { 0 } else { rng.gen_range_u64(jitter_span + 1) };
        step + jitter
    }
}

/// What [`roundtrip_retry`] produced: the terminal response for every
/// request, plus how many resubmissions it took to get there.
pub struct RetryOutcome {
    /// `resps[i]` answers `reqs[i]`; each is terminal (a result, a
    /// typed error, or — if retries ran out — the last typed shed).
    pub resps: Vec<Obj>,
    /// Total resubmitted requests across all attempts.
    pub retries: u64,
}

/// Sends `reqs`, retrying typed retryable sheds (`overloaded`,
/// `shutting_down`), connection errors, and lost responses with
/// exponential backoff until every request has a terminal response or
/// the retry budget is spent.
///
/// Lost responses are safe to resubmit because the daemon dedups on
/// `request_id`; a request whose first submission actually completed
/// gets the stored response back (marked `"deduped":true`) instead of
/// running twice. If retries run out while a request still holds only
/// a retryable shed, that shed is returned as its terminal response; a
/// request with *no* response at all turns the whole call into an
/// error.
pub fn roundtrip_retry(
    socket: &Path,
    reqs: &[Request],
    policy: &RetryPolicy,
) -> io::Result<RetryOutcome> {
    let mut rng = Rng::seed_from_u64(policy.seed);
    let mut slots: Vec<Option<Obj>> = vec![None; reqs.len()];
    let mut pending: Vec<usize> = (0..reqs.len()).collect();
    let mut retries = 0u64;
    for attempt in 0..=policy.max_retries {
        let batch: Vec<Request> = pending.iter().map(|&i| reqs[i].clone()).collect();
        let mut hint = 0u64;
        let mut next_pending: Vec<usize> = Vec::new();
        match roundtrip_timeout(socket, &batch, policy.read_timeout_ms) {
            Ok(resps) => {
                for (pos, &req_idx) in pending.iter().enumerate() {
                    match resps.get(pos) {
                        Some(r) if is_retryable_shed(r) => {
                            hint = hint.max(r.get_num("retry_after_ms").unwrap_or(0));
                            slots[req_idx] = Some(r.clone());
                            next_pending.push(req_idx);
                        }
                        Some(r) => slots[req_idx] = Some(r.clone()),
                        // The stream ended early (daemon died or the
                        // connection was rejected with fewer lines than
                        // requests): resubmit, rid-dedup makes it safe.
                        None => next_pending.push(req_idx),
                    }
                }
            }
            Err(e) => {
                if attempt == policy.max_retries {
                    return Err(e);
                }
                next_pending = pending.clone();
            }
        }
        pending = next_pending;
        if pending.is_empty() || attempt == policy.max_retries {
            break;
        }
        retries += pending.len() as u64;
        let sleep_ms = policy.backoff_ms(&mut rng, attempt, hint);
        std::thread::sleep(Duration::from_millis(sleep_ms));
    }
    let missing = slots.iter().filter(|s| s.is_none()).count();
    if missing > 0 {
        return Err(io::Error::new(
            io::ErrorKind::TimedOut,
            format!("{missing} request(s) got no terminal response after {retries} retries"),
        ));
    }
    Ok(RetryOutcome { resps: slots.into_iter().flatten().collect(), retries })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_schedule_is_deterministic_and_exponential() {
        let p = RetryPolicy { seed: 42, ..RetryPolicy::default() };
        let schedule = |seed: u64| {
            let mut rng = Rng::seed_from_u64(seed);
            (0..4).map(|a| p.backoff_ms(&mut rng, a, 0)).collect::<Vec<_>>()
        };
        let a = schedule(42);
        let b = schedule(42);
        assert_eq!(a, b, "same seed, same schedule");
        // Each step sits in [base<<n, (base<<n) * (1 + jitter_pct/100)].
        for (n, &ms) in a.iter().enumerate() {
            let step = p.base_ms << n;
            assert!(ms >= step && ms <= step + step * p.jitter_pct / 100, "step {n}: {ms}");
        }
        assert_ne!(a, schedule(7), "different seed, different jitter");
    }

    #[test]
    fn backoff_honors_retry_after_hint_and_cap() {
        let p = RetryPolicy { jitter_pct: 0, ..RetryPolicy::default() };
        let mut rng = Rng::seed_from_u64(1);
        // The daemon's hint floors the step.
        assert_eq!(p.backoff_ms(&mut rng, 0, 1_700), 1_700);
        // But never past the cap, and the exponential curve saturates
        // there too.
        assert_eq!(p.backoff_ms(&mut rng, 0, 99_999), p.cap_ms);
        assert_eq!(p.backoff_ms(&mut rng, 30, 0), p.cap_ms);
    }

    #[test]
    fn backoff_zero_jitter_span_is_safe() {
        // jitter_span of 0 must not feed gen_range_u64 a zero bound.
        let p = RetryPolicy { base_ms: 1, jitter_pct: 0, ..RetryPolicy::default() };
        let mut rng = Rng::seed_from_u64(1);
        assert_eq!(p.backoff_ms(&mut rng, 0, 0), 1);
    }
}
