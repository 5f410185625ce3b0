//! `nscd` — the near-stream simulation daemon.
//!
//! ```text
//! nscd [--socket PATH] [--jobs N]
//! ```
//!
//! Listens on a Unix socket for newline-delimited JSON run requests
//! (see the `nsc_serve` crate docs for the protocol), batches them
//! across a shared worker pool, and consults the content-addressed
//! result cache before simulating. The cache is armed by default —
//! serving repeated requests from disk is the daemon's reason to exist
//! — set `NSC_CACHE=0` to force every request to simulate.
//!
//! Observability: the daemon logs at `info` unless `NSC_LOG` says
//! otherwise (the flight recorder is drained by `nsc-client logs`),
//! and `NSC_TRACE=1` arms per-request simulator event capture for
//! `nsc-client trace --perfetto`.
//!
//! Overload protection (see `nsc_serve::server`): `NSC_MAX_CONNS`
//! bounds live connections, `NSC_QUEUE_CAP` bounds admitted runs
//! (excess submits get typed `overloaded` sheds with a
//! `retry_after_ms` hint; cache hits are still answered in degraded
//! mode), and `NSC_DEADLINE_MS` sets a default per-run deadline
//! enforced at dequeue.

use nsc_sim::config::{self, Config};
use nsc_sim::log::Level;
use std::path::PathBuf;
use std::process::exit;

const USAGE: &str = "nscd — near-stream simulation daemon

Usage: nscd [--socket PATH] [--jobs N]

Options:
  --socket PATH  Unix socket to listen on (default $NSCD_SOCKET or /tmp/nscd.sock)
  --jobs N       worker threads (default $NSC_JOBS or all cores)
  -h, --help     print this help

Environment (README lists every NSC_* knob):
  NSC_CACHE        0 makes every request simulate (default on)
  NSC_LOG          flight-recorder level (default info)
  NSC_MAX_CONNS    live-connection limit; excess connections get one
                   typed `overloaded` line and are closed (default 64)
  NSC_QUEUE_CAP    admitted-run limit; at saturation cache hits are
                   still served, cache misses are shed with a
                   retry_after_ms hint (default 128)
  NSC_DEADLINE_MS  default per-run deadline, enforced at dequeue;
                   0 disables (default 0)
  NSC_FAULT_RATE   arm deterministic chaos for every run (content-
                   derived plans: replays are bit-identical)

Stop it with `nsc-client shutdown` (graceful: new submits are rejected
with typed `shutting_down` sheds while admitted runs drain).";

fn main() {
    // Defaults, then the environment, then flags. Unlike a library the
    // daemon arms the result cache (serving repeats from disk is its
    // reason to exist) and logs at info (without logs it is a black box).
    let mut cfg = Config { cache: true, log: Some(Level::Info), ..Config::default() }.with_env();
    let mut argv = std::env::args().skip(1);
    while let Some(a) = argv.next() {
        match a.as_str() {
            "-h" | "--help" => {
                println!("{USAGE}");
                return;
            }
            "--socket" => cfg.socket = PathBuf::from(req_val(&mut argv, "--socket")),
            "--jobs" => match req_val(&mut argv, "--jobs").parse() {
                Ok(n) if n > 0 => cfg.jobs = n,
                _ => die("--jobs wants a positive integer"),
            },
            other => die(&format!("unknown argument: {other}")),
        }
    }
    let socket = cfg.socket.clone();
    config::install(cfg);
    let cfg = nsc_serve::server::ServeConfig::from(config::get());
    let jobs = cfg.jobs;
    let cache = if nsc_sim::cache::enabled() {
        // Builds the store now, so the banner reflects exactly what the
        // serving path will use.
        let store = nsc_sim::cache::shared();
        let budget = |b: u64, zero: &str| {
            if b == 0 { zero.to_owned() } else { format!("{b}B") }
        };
        format!(
            "on (hot {}, cold {}, compress {})",
            budget(store.mem_budget(), "off"),
            budget(store.disk_budget(), "unbounded"),
            if store.compression() { "on" } else { "off" },
        )
    } else {
        "off".to_owned()
    };
    eprintln!(
        "nscd: listening on {} ({jobs} worker{}, cache {cache}, max_conns {}, queue_cap {})",
        socket.display(),
        if jobs == 1 { "" } else { "s" },
        cfg.max_conns,
        cfg.queue_cap,
    );
    if let Err(e) = nsc_serve::server::serve_with(&socket, cfg) {
        eprintln!("nscd: {e}");
        exit(1);
    }
    eprintln!("nscd: shut down");
}

fn req_val(argv: &mut impl Iterator<Item = String>, flag: &str) -> String {
    argv.next().unwrap_or_else(|| {
        die(&format!("{flag} requires a value"));
    })
}

fn die(msg: &str) -> ! {
    eprintln!("nscd: {msg}\n\n{USAGE}");
    exit(2);
}
