//! `nsc_load` — open-loop load generator and chaos-soak harness for a
//! live `nscd` daemon.
//!
//! ```text
//! nsc_load --tiny --socket /tmp/nscd.sock --rate 300 --secs 10 --conns 4
//! ```
//!
//! Speaks the raw newline-delimited JSON protocol over Unix sockets
//! (this crate sits *below* `nsc-serve` in the dependency graph, so it
//! cannot use the daemon's own client helpers — which also keeps the
//! harness honest: it exercises the wire format, not a shared codec).
//!
//! Three phases per run:
//!
//! 1. **Cold flood** — every workload×mode key once, back to back, with
//!    a cold cache: maximal queue pressure plus cache population.
//! 2. **Steady** — open-loop Zipfian traffic at `--rate` for ¾ of
//!    `--secs`. Open-loop means send times are fixed in advance; a slow
//!    daemon does not slow the generator down, it builds queue — which
//!    is exactly the overload the daemon must shed, not absorb.
//! 3. **Burst** — the final ¼ of `--secs` at `--rate × --burst`.
//!
//! Every submitted request must come back with exactly one terminal
//! response: a result, a typed error, or a typed shed
//! (`overloaded` / `deadline_exceeded` / `shutting_down`). The harness
//! then replays retryable sheds closed-loop with bounded backoff
//! honoring the daemon's `retry_after_ms` hints — resubmitting the
//! *same* request ids, so daemon-side dedup can answer from its
//! completed store. Violations are counted and fatal:
//!
//! * `lost` — a request the daemon never answered (includes wedges:
//!   reads time out after 30s rather than hanging);
//! * `dup` — two responses for one correlation id on one connection;
//! * `mismatch` — a completed run whose result blob differs from an
//!   earlier completion of the same workload×mode key. With
//!   `NSC_FAULT_RATE` armed on the daemon this is the chaos-soak
//!   property: fault plans are derived from request content, so every
//!   completion of a key must be bit-identical.
//!
//! The report is one `key=value` line (`lost=0` is what CI greps) plus
//! a latency line with p50/p99/p999 from the shared histogram plumbing.
//! Host-time performance is measured by `benchmark/run.sh`, not here.

use near_stream::ExecMode;
use nsc_bench::{size_label, Cli};
use nsc_sim::json::{parse, Json};
use nsc_sim::rng::Rng;
use nsc_sim::stats::Histogram;
use nsc_workloads::Size;
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::Shutdown;
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// A read stalled this long means the daemon is wedged, not slow.
const WEDGE_TIMEOUT: Duration = Duration::from_secs(30);

/// One workload×mode request template.
#[derive(Clone)]
struct Key {
    workload: String,
    mode: ExecMode,
}

/// Everything the reporter needs, merged across connections.
struct Acct {
    sent: u64,
    ok: u64,
    cached: u64,
    shed_overloaded: u64,
    shed_deadline: u64,
    shed_shutdown: u64,
    errors: u64,
    lost: u64,
    dup: u64,
    mismatch: u64,
    retries: u64,
    retried_ok: u64,
    /// First-seen result blob per key index; later completions must
    /// match bit for bit.
    blobs: HashMap<usize, String>,
    /// Retryable sheds to replay closed-loop: (key idx, rid, hint ms).
    retryable: Vec<(usize, u64, u64)>,
    hist: Histogram,
}

impl Acct {
    fn new() -> Acct {
        Acct {
            sent: 0,
            ok: 0,
            cached: 0,
            shed_overloaded: 0,
            shed_deadline: 0,
            shed_shutdown: 0,
            errors: 0,
            lost: 0,
            dup: 0,
            mismatch: 0,
            retries: 0,
            retried_ok: 0,
            blobs: HashMap::new(),
            retryable: Vec::new(),
            // 1ms buckets out to 30s: under saturation the reorder
            // buffer can hold deliveries behind multi-second inline
            // work, and the tail is the interesting part.
            hist: Histogram::new(1_000.0, 30_000),
        }
    }
}

fn json_bool(v: &Json) -> Option<bool> {
    match v {
        Json::Bool(b) => Some(*b),
        _ => None,
    }
}

fn run_line(id: u64, rid: u64, key: &Key, size: Size, deadline_ms: u64) -> String {
    let mut line = format!(
        "{{\"op\":\"run\",\"id\":{id},\"request_id\":{rid},\"workload\":\"{}\",\"size\":\"{}\",\"mode\":\"{}\"",
        key.workload,
        size_label(size),
        key.mode.label(),
    );
    if deadline_ms > 0 {
        line.push_str(&format!(",\"deadline_ms\":{deadline_ms}"));
    }
    line.push('}');
    line
}

/// Cumulative-weight Zipfian sampler over `n` ranks (theta ≈ 0.9 is
/// the classic web-traffic skew). Pure function of the rng stream.
struct Zipf {
    cum: Vec<f64>,
}

impl Zipf {
    fn new(n: usize, theta: f64) -> Zipf {
        let mut cum = Vec::with_capacity(n);
        let mut total = 0.0;
        for rank in 1..=n {
            total += 1.0 / (rank as f64).powf(theta);
            cum.push(total);
        }
        Zipf { cum }
    }

    fn sample(&self, rng: &mut Rng) -> usize {
        let x = rng.gen_f64() * self.cum.last().copied().unwrap_or(1.0);
        self.cum.partition_point(|&c| c < x).min(self.cum.len() - 1)
    }
}

/// In-flight requests: id → (key idx, send time).
type Pending = HashMap<u64, (usize, Instant)>;

/// Classifies one response line into the accounting, returning the key
/// index it answered (from `pending`) when it correlates.
fn absorb_response(line: &str, pending: &mut Pending, acct: &mut Acct) {
    let Ok(resp) = parse(line) else {
        acct.errors += 1;
        return;
    };
    let id = resp.get("id").and_then(Json::as_f64).unwrap_or(0.0) as u64;
    let Some((key_idx, t_sent)) = pending.remove(&id) else {
        // id 0 with a shed reason is a connection-level reject; any
        // other uncorrelated line is a duplicate terminal response.
        if resp.get("shed").is_some() && id == 0 {
            acct.shed_overloaded += 1;
        } else {
            acct.dup += 1;
        }
        return;
    };
    acct.hist.record(t_sent.elapsed().as_micros() as f64);
    if resp.get("ok").and_then(json_bool) == Some(true) {
        acct.ok += 1;
        if resp.get("cached").and_then(json_bool) == Some(true) {
            acct.cached += 1;
        }
        if let Some(blob) = resp.get("blob").and_then(Json::as_str) {
            match acct.blobs.get(&key_idx) {
                Some(first) if first != blob => acct.mismatch += 1,
                Some(_) => {}
                None => {
                    acct.blobs.insert(key_idx, blob.to_owned());
                }
            }
        }
        return;
    }
    let rid = resp.get("request_id").and_then(Json::as_f64).unwrap_or(0.0) as u64;
    let hint = resp.get("retry_after_ms").and_then(Json::as_f64).unwrap_or(0.0) as u64;
    match resp.get("shed").and_then(Json::as_str) {
        Some("overloaded") => {
            acct.shed_overloaded += 1;
            acct.retryable.push((key_idx, rid, hint));
        }
        Some("shutting_down") => {
            acct.shed_shutdown += 1;
            acct.retryable.push((key_idx, rid, hint));
        }
        Some("deadline_exceeded") => acct.shed_deadline += 1,
        _ => acct.errors += 1,
    }
}

/// The open-loop soak's shape: cold flood, then `steady_ms` at `rate`,
/// then `burst_ms` at `rate × burst_mult`.
#[derive(Clone, Copy)]
struct PassCfg {
    rate: u64,
    steady_ms: u64,
    burst_ms: u64,
    burst_mult: u64,
    seed: u64,
    deadline_ms: u64,
}

/// One connection's worth of open-loop traffic: scheduled sends on this
/// thread, reads on a sibling, both feeding the shared accounting.
#[allow(clippy::too_many_arguments)]
fn drive_conn(
    socket: &Path,
    conn_idx: u64,
    conns: u64,
    keys: &[Key],
    size: Size,
    cfg: PassCfg,
    zipf: &Zipf,
    acct: &Arc<Mutex<Acct>>,
) {
    let stream = match UnixStream::connect(socket) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("nsc_load: conn {conn_idx}: connect {}: {e}", socket.display());
            return;
        }
    };
    let _ = stream.set_read_timeout(Some(WEDGE_TIMEOUT));
    let read_half = match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    };
    // In-flight requests on this connection.
    let pending: Arc<Mutex<Pending>> = Arc::default();
    let reader = {
        let pending = Arc::clone(&pending);
        let acct = Arc::clone(acct);
        std::thread::spawn(move || {
            let mut reader = BufReader::new(read_half);
            let mut line = String::new();
            loop {
                line.clear();
                match reader.read_line(&mut line) {
                    Ok(0) => break, // daemon closed: end of stream
                    Ok(_) => {
                        if line.trim().is_empty() {
                            continue;
                        }
                        let mut pend = pending.lock().unwrap();
                        let mut acct = acct.lock().unwrap();
                        absorb_response(line.trim_end(), &mut pend, &mut acct);
                    }
                    Err(_) => break, // wedge timeout or hard error
                }
            }
        })
    };

    let mut out = stream;
    let mut rng = Rng::seed_from_u64(cfg.seed.wrapping_mul(0x9E37_79B9).wrapping_add(conn_idx));
    let mut seq = 0u64;
    let mut send = |out: &mut UnixStream, key_idx: usize| -> bool {
        seq += 1;
        let id = seq;
        let rid = (cfg.seed << 48) ^ (conn_idx << 32) ^ seq;
        let line = run_line(id, rid.max(1), &keys[key_idx], size, cfg.deadline_ms);
        pending.lock().unwrap().insert(id, (key_idx, Instant::now()));
        acct.lock().unwrap().sent += 1;
        writeln!(out, "{line}").and_then(|()| out.flush()).is_ok()
    };

    // Phase 1 — cold flood: this connection's slice of the key space,
    // as fast as the socket accepts it.
    let mut alive = true;
    for key_idx in 0..keys.len() {
        if key_idx as u64 % conns == conn_idx {
            alive = send(&mut out, key_idx);
            if !alive {
                break;
            }
        }
    }

    // Phases 2+3 — open loop: send times are fixed by the schedule, not
    // by the daemon's progress.
    let steady = Duration::from_millis(cfg.steady_ms);
    let burst_phase = Duration::from_millis(cfg.burst_ms);
    let start = Instant::now();
    for (phase_end, phase_rate) in [
        (steady, cfg.rate),
        (steady + burst_phase, cfg.rate * cfg.burst_mult.max(1)),
    ] {
        if !alive {
            break;
        }
        let interval = Duration::from_micros(1_000_000 * conns / phase_rate.max(1));
        let mut next = start.max(Instant::now());
        while Instant::now() - start < phase_end {
            if !alive {
                break;
            }
            let now = Instant::now();
            if now < next {
                std::thread::sleep(next - now);
            }
            alive = send(&mut out, zipf.sample(&mut rng));
            next += interval;
        }
    }

    // Half-close: the daemon sees EOF, finishes delivering everything
    // admitted on this connection, then closes — the reader drains to
    // EOF and whatever is still pending afterwards was lost.
    let _ = out.shutdown(Shutdown::Write);
    let _ = reader.join();
    let stranded = pending.lock().unwrap().len() as u64;
    acct.lock().unwrap().lost += stranded;
}

/// Closed-loop replay of retryable sheds: same rids, bounded attempts,
/// backoff honoring the sheds' `retry_after_ms` hints. A rid whose
/// original submission actually completed comes back deduped — that is
/// the daemon-side idempotency the soak leans on.
fn retry_pass(
    socket: &Path,
    keys: &[Key],
    size: Size,
    deadline_ms: u64,
    max_retries: u64,
    acct: &mut Acct,
) {
    let mut work: Vec<(usize, u64, u64)> = std::mem::take(&mut acct.retryable);
    for attempt in 0..max_retries {
        if work.is_empty() {
            break;
        }
        let hint = work.iter().map(|&(_, _, h)| h).max().unwrap_or(0);
        let backoff = hint.max(20 << attempt).min(2_000);
        std::thread::sleep(Duration::from_millis(backoff));
        let Ok(mut stream) = UnixStream::connect(socket) else { break };
        let _ = stream.set_read_timeout(Some(WEDGE_TIMEOUT));
        let mut pending: Pending = HashMap::new();
        let mut payload = String::new();
        for (i, &(key_idx, rid, _)) in work.iter().enumerate() {
            let id = i as u64 + 1;
            payload.push_str(&run_line(id, rid, &keys[key_idx], size, deadline_ms));
            payload.push('\n');
            pending.insert(id, (key_idx, Instant::now()));
        }
        acct.retries += work.len() as u64;
        if stream
            .write_all(payload.as_bytes())
            .and_then(|()| stream.shutdown(Shutdown::Write))
            .is_err()
        {
            break;
        }
        let before_ok = acct.ok;
        for line in BufReader::new(stream).lines() {
            let Ok(line) = line else { break };
            if !line.trim().is_empty() {
                absorb_response(line.trim_end(), &mut pending, acct);
            }
        }
        acct.retried_ok += acct.ok - before_ok;
        work = std::mem::take(&mut acct.retryable);
    }
    // Whatever is still retryable after the budget keeps its typed shed
    // as the terminal response — reported, not lost.
    acct.retryable = work;
}

/// Runs one open-loop pass (`conns` connection threads against the
/// daemon) and returns the merged accounting plus the pass's wall time.
fn run_pass(
    socket: &Path,
    keys: &[Key],
    zipf: &Zipf,
    size: Size,
    conns: u64,
    cfg: PassCfg,
) -> (Acct, Duration) {
    let acct = Arc::new(Mutex::new(Acct::new()));
    let t0 = Instant::now();
    std::thread::scope(|scope| {
        for conn_idx in 0..conns {
            let acct = Arc::clone(&acct);
            let socket = socket.to_path_buf();
            scope.spawn(move || {
                drive_conn(&socket, conn_idx, conns, keys, size, cfg, zipf, &acct);
            });
        }
    });
    let wall = t0.elapsed();
    let acct = Arc::try_unwrap(acct)
        .unwrap_or_else(|_| panic!("connection threads still hold the accounting"))
        .into_inner()
        .unwrap();
    (acct, wall)
}

fn main() {
    let args = Cli::new("nsc_load", "open-loop load generator / chaos soak for a live nscd")
        .opt("socket", "PATH", "daemon socket (default $NSCD_SOCKET or /tmp/nscd.sock)")
        .opt("rate", "N", "steady-phase offered load, requests/s (default 200)")
        .opt("secs", "N", "total open-loop duration (default 5; last quarter bursts)")
        .opt("conns", "N", "concurrent connections (default 2)")
        .opt("burst", "N", "burst-phase rate multiplier (default 4)")
        .opt("seed", "N", "rng seed for the key mix and rids (default 1)")
        .opt("zipf", "N", "Zipf theta x100 for the key mix (default 90)")
        .opt("deadline-ms", "N", "per-request deadline after the cold flood (default 0)")
        .opt("retries", "N", "closed-loop replay budget for retryable sheds (default 4)")
        .parse();
    let socket = args.opt("socket").map_or_else(|| args.config.socket.clone(), PathBuf::from);
    let rate = args.opt_u64("rate", 200).max(1);
    let secs = args.opt_u64("secs", 5).max(1);
    let conns = args.opt_u64("conns", 2).max(1);
    let burst = args.opt_u64("burst", 4).max(1);
    let seed = args.opt_u64("seed", 1);
    let theta = args.opt_u64("zipf", 90) as f64 / 100.0;
    let deadline_ms = args.opt_u64("deadline-ms", 0);
    let max_retries = args.opt_u64("retries", 4);

    let keys: Vec<Key> = nsc_workloads::all(args.size)
        .into_iter()
        .flat_map(|w| {
            [ExecMode::Base, ExecMode::Ns]
                .into_iter()
                .map(move |mode| Key { workload: w.name.to_owned(), mode })
        })
        .collect();
    let zipf = Zipf::new(keys.len(), theta);

    eprintln!(
        "nsc_load: {} keys, {conns} conns, {rate} req/s for {}ms then x{burst} for {}ms, socket {}",
        keys.len(),
        secs * 750,
        secs * 250,
        socket.display(),
    );
    let soak_cfg = PassCfg {
        rate,
        steady_ms: secs * 750,
        burst_ms: secs * 250,
        burst_mult: burst,
        seed,
        deadline_ms,
    };
    let (mut acct, open_loop_wall) = run_pass(&socket, &keys, &zipf, args.size, conns, soak_cfg);
    retry_pass(&socket, &keys, args.size, deadline_ms, max_retries, &mut acct);

    let unresolved = acct.retryable.len();
    println!(
        "nsc_load: sent={} ok={} cached={} shed.overloaded={} shed.deadline={} shed.shutdown={} \
         errors={} retries={} retried_ok={} unresolved={} lost={} dup={} mismatch={}",
        acct.sent,
        acct.ok,
        acct.cached,
        acct.shed_overloaded,
        acct.shed_deadline,
        acct.shed_shutdown,
        acct.errors,
        acct.retries,
        acct.retried_ok,
        unresolved,
        acct.lost,
        acct.dup,
        acct.mismatch,
    );
    let p = |q: f64| acct.hist.percentile_opt(q).unwrap_or(0.0);
    println!(
        "nsc_load: wall={:.1}s throughput={:.0} req/s p50={:.0}µs p99={:.0}µs p999={:.0}µs keys_verified={}",
        open_loop_wall.as_secs_f64(),
        acct.ok as f64 / open_loop_wall.as_secs_f64().max(1e-9),
        p(50.0),
        p(99.0),
        p(99.9),
        acct.blobs.len(),
    );
    if acct.lost > 0 || acct.dup > 0 || acct.mismatch > 0 {
        eprintln!(
            "nsc_load: FAILED: lost={} dup={} mismatch={} (every accepted request must get \
             exactly one terminal response, and completed runs must be bit-identical per key)",
            acct.lost, acct.dup, acct.mismatch,
        );
        std::process::exit(1);
    }
}
