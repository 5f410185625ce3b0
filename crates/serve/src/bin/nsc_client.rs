//! `nsc-client` — CLI for the `nscd` simulation daemon.
//!
//! ```text
//! nsc-client submit [--socket PATH] [--size S] [--mode M] [--local] [--latency] WORKLOAD...
//! nsc-client status [--socket PATH]
//! nsc-client metrics [--socket PATH] [--prom]
//! nsc-client logs   [--socket PATH]
//! nsc-client trace  [--socket PATH] [--perfetto FILE] REQUEST_ID
//! nsc-client inspect [--socket PATH] [--key HEX] [--local]
//! nsc-client flush  [--socket PATH]
//! nsc-client shutdown [--socket PATH]
//! ```
//!
//! `submit` mints a 64-bit request id per workload (printed as
//! `rid=<hex>`); `trace` takes that hex id back and prints the request's
//! span tree, optionally writing a combined Perfetto document (serve
//! spans + that run's simulator events) with `--perfetto`.

use near_stream::ExecMode;
use nsc_serve::client::{roundtrip, roundtrip_retry, RetryPolicy};
use nsc_serve::{decode_response_blob, execute, inspect_body, InspectBody, Request, Response};
use nsc_sim::json::{parse, Json};
use nsc_workloads::Size;
use std::path::PathBuf;
use std::process::exit;

const USAGE: &str = "nsc-client — talk to the nscd simulation daemon

Usage:
  nsc-client submit [OPTIONS] WORKLOAD...   run workloads (one request each)
  nsc-client status [--socket PATH]         daemon + cache counters
  nsc-client metrics [--socket PATH]        live metrics-registry snapshot
  nsc-client logs   [--socket PATH]         drain the daemon's log flight recorder
  nsc-client trace  [OPTIONS] REQUEST_ID    one request's span tree (hex id from submit)
  nsc-client inspect [OPTIONS]              tiered result-cache report (hot/cold stats)
  nsc-client flush  [--socket PATH]         wait for in-flight runs to finish
  nsc-client shutdown [--socket PATH]       graceful daemon shutdown

Options:
  --socket PATH    daemon socket (default $NSCD_SOCKET or /tmp/nscd.sock)
  --size S         tiny | small | full   (default small)
  --mode M         execution mode label, e.g. Base, NS, NS-decouple (default NS)
  --local          run in-process instead of contacting the daemon
  --latency        print each submit's per-span latency breakdown
  --deadline-ms N  per-request deadline; expired runs come back as typed sheds
  --retries N      retry budget for overloaded/shutting_down sheds
                   (default 3; 0 disables)
  --retry-base-ms N  first backoff step, doubling per attempt (default 100)
  --retry-seed N   jitter seed — fixed seed, deterministic schedule
  --timeout-ms N   per-read socket timeout, 0 blocks forever (default 30000)
  --prom           render metrics in Prometheus text exposition format
  --perfetto FILE  (trace) also write a combined Perfetto trace document
  --key HEX        (inspect) probe one 32-hex-digit cache key's residency
  -h, --help       print this help

Retried submissions reuse their request id, so a run whose response was
lost is deduplicated by the daemon instead of simulated twice.";

struct Opts {
    socket: PathBuf,
    size: Size,
    mode: ExecMode,
    local: bool,
    latency: bool,
    deadline_ms: u64,
    retry: RetryPolicy,
    prom: bool,
    perfetto: Option<PathBuf>,
    key: Option<String>,
    words: Vec<String>,
}

fn parse_opts(mut argv: impl Iterator<Item = String>) -> Opts {
    let mut o = Opts {
        socket: nsc_sim::config::get().socket.clone(),
        size: Size::Small,
        mode: ExecMode::Ns,
        local: false,
        latency: false,
        deadline_ms: 0,
        retry: RetryPolicy::default(),
        prom: false,
        perfetto: None,
        key: None,
        words: Vec::new(),
    };
    while let Some(a) = argv.next() {
        match a.as_str() {
            "-h" | "--help" => {
                println!("{USAGE}");
                exit(0);
            }
            "--socket" => o.socket = PathBuf::from(req_val(&mut argv, "--socket")),
            "--size" => {
                let v = req_val(&mut argv, "--size");
                o.size = nsc_bench::size_from_str(&v)
                    .unwrap_or_else(|| die(&format!("unknown size: {v}")));
            }
            "--mode" => {
                let v = req_val(&mut argv, "--mode");
                o.mode = ExecMode::parse(&v)
                    .unwrap_or_else(|| die(&format!("unknown mode: {v}")));
            }
            "--local" => o.local = true,
            "--latency" => o.latency = true,
            "--deadline-ms" => o.deadline_ms = req_num(&mut argv, "--deadline-ms"),
            "--retries" => o.retry.max_retries = req_num(&mut argv, "--retries") as u32,
            "--retry-base-ms" => o.retry.base_ms = req_num(&mut argv, "--retry-base-ms"),
            "--retry-seed" => o.retry.seed = req_num(&mut argv, "--retry-seed"),
            "--timeout-ms" => o.retry.read_timeout_ms = req_num(&mut argv, "--timeout-ms"),
            "--prom" => o.prom = true,
            "--perfetto" => o.perfetto = Some(PathBuf::from(req_val(&mut argv, "--perfetto"))),
            "--key" => o.key = Some(req_val(&mut argv, "--key")),
            w if w.starts_with('-') => die(&format!("unknown flag: {w}")),
            _ => o.words.push(a),
        }
    }
    o
}

fn main() {
    let mut argv = std::env::args().skip(1);
    let Some(cmd) = argv.next() else { die("missing subcommand") };
    match cmd.as_str() {
        "-h" | "--help" => println!("{USAGE}"),
        "submit" => submit(parse_opts(argv)),
        "metrics" => metrics_cmd(parse_opts(argv)),
        "logs" => logs_cmd(parse_opts(argv)),
        "trace" => trace_cmd(parse_opts(argv)),
        "inspect" => inspect_cmd(parse_opts(argv)),
        "status" | "flush" | "shutdown" => {
            let o = parse_opts(argv);
            if !o.words.is_empty() {
                die(&format!("{cmd} takes no positional arguments"));
            }
            let req = match cmd.as_str() {
                "status" => Request::Status { id: 0 },
                "flush" => Request::Flush { id: 0 },
                _ => Request::Shutdown { id: 0 },
            };
            match roundtrip(&o.socket, &[req]) {
                Ok(resps) => {
                    for r in &resps {
                        // The raw protocol line first (scripts grep it),
                        // then a human-oriented summary for `status`.
                        println!("{}", r.render());
                        if cmd == "status" && r.get_bool("ok") == Some(true) {
                            print_status_summary(r);
                        }
                    }
                }
                Err(e) => die(&format!("{}: {e}", o.socket.display())),
            }
        }
        other => die(&format!("unknown subcommand: {other}")),
    }
}

fn print_status_summary(r: &nsc_serve::json::Obj) {
    let uptime_s = r.get_num("uptime_ms").unwrap_or(0) as f64 / 1e3;
    eprintln!(
        "  uptime {uptime_s:.1}s, {} completed, {} in flight, cache {}/{} hit/miss ({}), {} workers",
        r.get_num("served").unwrap_or(0),
        r.get_num("in_flight").unwrap_or(0),
        r.get_num("cache_hits").unwrap_or(0),
        r.get_num("cache_misses").unwrap_or(0),
        if r.get_bool("cache_enabled") == Some(true) { "enabled" } else { "disabled" },
        r.get_num("jobs").unwrap_or(0),
    );
    eprintln!(
        "  queue {}/{}, connections {}/{}",
        r.get_num("queue_depth").unwrap_or(0),
        r.get_num("queue_cap").unwrap_or(0),
        r.get_num("conns").unwrap_or(0),
        r.get_num("max_conns").unwrap_or(0),
    );
}

/// `nsc-client metrics`: one status + one metrics request; the nested
/// `nsc-metrics-v1` snapshot travels as an escaped string and is
/// re-parsed here with the full JSON parser.
fn metrics_cmd(o: Opts) {
    if !o.words.is_empty() {
        die("metrics takes no positional arguments");
    }
    let reqs = [Request::Status { id: 1 }, Request::Metrics { id: 2 }];
    let resps = match roundtrip(&o.socket, &reqs) {
        Ok(r) => r,
        Err(e) => die(&format!("{}: {e}", o.socket.display())),
    };
    let status = resps.first().filter(|r| r.get_bool("ok") == Some(true));
    let snap_line = resps
        .get(1)
        .filter(|r| r.get_bool("ok") == Some(true))
        .and_then(|r| r.get_str("snapshot"))
        .unwrap_or_else(|| die("daemon did not answer the metrics request"));
    let snap = parse(snap_line)
        .unwrap_or_else(|e| die(&format!("bad metrics snapshot from daemon: {e}")));
    if o.prom {
        print!("{}", render_prom(status, &snap));
    } else {
        print!("{}", render_human(status, &snap));
    }
}

/// `noc.byte_hops` -> `nsc_noc_byte_hops` (Prometheus metric names allow
/// `[a-zA-Z0-9_:]` only).
fn prom_name(label: &str) -> String {
    let mut out = String::with_capacity(label.len() + 4);
    out.push_str("nsc_");
    for c in label.chars() {
        out.push(if c.is_ascii_alphanumeric() { c } else { '_' });
    }
    out
}

fn obj<'a>(doc: &'a Json, key: &str) -> Option<&'a std::collections::BTreeMap<String, Json>> {
    doc.get(key).and_then(Json::as_obj)
}

fn render_prom(status: Option<&nsc_serve::json::Obj>, snap: &Json) -> String {
    let mut out = String::new();
    if let Some(st) = status {
        for key in [
            "uptime_ms",
            "served",
            "in_flight",
            "queue_depth",
            "queue_cap",
            "conns",
            "max_conns",
            "cache_hits",
            "cache_misses",
            "jobs",
        ] {
            if let Some(v) = st.get_num(key) {
                let name = prom_name(&format!("daemon.{key}"));
                out.push_str(&format!("# TYPE {name} gauge\n{name} {v}\n"));
            }
        }
    }
    for (label, v) in obj(snap, "counters").into_iter().flatten() {
        let name = prom_name(label) + "_total";
        let v = v.as_f64().unwrap_or(0.0);
        out.push_str(&format!("# TYPE {name} counter\n{name} {v}\n"));
    }
    for (label, v) in obj(snap, "gauges").into_iter().flatten() {
        let name = prom_name(label);
        let v = v.as_f64().unwrap_or(0.0);
        out.push_str(&format!("# TYPE {name} gauge\n{name} {v}\n"));
    }
    for (label, h) in obj(snap, "histograms").into_iter().flatten() {
        let name = prom_name(label);
        out.push_str(&format!("# TYPE {name} summary\n"));
        for (q, key) in [("0.5", "p50"), ("0.9", "p90"), ("0.99", "p99")] {
            if let Some(v) = h.get(key).and_then(Json::as_f64) {
                out.push_str(&format!("{name}{{quantile=\"{q}\"}} {v}\n"));
            }
        }
        out.push_str(&format!(
            "{name}_count {}\n",
            h.get("count").and_then(Json::as_f64).unwrap_or(0.0)
        ));
    }
    for (label, p) in obj(snap, "profile").into_iter().flatten() {
        let component = p.get("component").and_then(Json::as_str).unwrap_or("?");
        let sel = format!("{{kind=\"{label}\",component=\"{component}\"}}");
        out.push_str(&format!(
            "nsc_profile_events_total{sel} {}\n",
            p.get("events").and_then(Json::as_f64).unwrap_or(0.0)
        ));
        out.push_str(&format!(
            "nsc_profile_cycles_total{sel} {}\n",
            p.get("cycles").and_then(Json::as_f64).unwrap_or(0.0)
        ));
    }
    out
}

fn render_human(status: Option<&nsc_serve::json::Obj>, snap: &Json) -> String {
    let mut out = String::new();
    if let Some(st) = status {
        let uptime_s = st.get_num("uptime_ms").unwrap_or(0) as f64 / 1e3;
        out.push_str(&format!(
            "daemon: up {uptime_s:.1}s, {} completed, {} in flight, queue {}/{}, conns {}/{}, cache {}/{} hit/miss, {} workers\n",
            st.get_num("served").unwrap_or(0),
            st.get_num("in_flight").unwrap_or(0),
            st.get_num("queue_depth").unwrap_or(0),
            st.get_num("queue_cap").unwrap_or(0),
            st.get_num("conns").unwrap_or(0),
            st.get_num("max_conns").unwrap_or(0),
            st.get_num("cache_hits").unwrap_or(0),
            st.get_num("cache_misses").unwrap_or(0),
            st.get_num("jobs").unwrap_or(0),
        ));
    }
    out.push_str("counters:\n");
    for (label, v) in obj(snap, "counters").into_iter().flatten() {
        let v = v.as_f64().unwrap_or(0.0);
        if v != 0.0 {
            out.push_str(&format!("  {label:40} {v}\n"));
        }
    }
    out.push_str("gauges:\n");
    for (label, v) in obj(snap, "gauges").into_iter().flatten() {
        out.push_str(&format!("  {label:40} {}\n", v.as_f64().unwrap_or(0.0)));
    }
    out.push_str("histograms:\n");
    for (label, h) in obj(snap, "histograms").into_iter().flatten() {
        let count = h.get("count").and_then(Json::as_f64).unwrap_or(0.0);
        if count == 0.0 {
            continue;
        }
        out.push_str(&format!(
            "  {label:40} n={count} mean={:.2} p50={} p90={} p99={}\n",
            h.get("mean").and_then(Json::as_f64).unwrap_or(0.0),
            fmt_q(h.get("p50")),
            fmt_q(h.get("p90")),
            fmt_q(h.get("p99")),
        ));
    }
    out.push_str("profile:\n");
    for (label, p) in obj(snap, "profile").into_iter().flatten() {
        let events = p.get("events").and_then(Json::as_f64).unwrap_or(0.0);
        if events == 0.0 {
            continue;
        }
        out.push_str(&format!(
            "  {label:40} events={events} cycles={}\n",
            p.get("cycles").and_then(Json::as_f64).unwrap_or(0.0),
        ));
    }
    out
}

fn fmt_q(v: Option<&Json>) -> String {
    match v.and_then(Json::as_f64) {
        Some(x) => format!("{x:.1}"),
        None => "-".to_owned(),
    }
}

/// Mints client-side request ids: time- and pid-seeded so concurrent
/// clients against one daemon do not collide, never 0 (0 = "unset").
fn rid_minter() -> impl FnMut() -> u64 {
    let seed = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0)
        ^ (std::process::id() as u64).rotate_left(32);
    let mut rng = nsc_sim::rng::Rng::seed_from_u64(seed);
    move || loop {
        let rid = rng.next_u64();
        if rid != 0 {
            return rid;
        }
    }
}

fn submit(o: Opts) {
    if o.words.is_empty() {
        die("submit needs at least one workload name");
    }
    if o.local {
        for w in &o.words {
            match execute(w, o.size, o.mode) {
                Ok(out) => println!(
                    "{w:12} {:12} cycles={} cached={}",
                    o.mode.label(),
                    out.result.cycles,
                    out.cached
                ),
                Err(e) => die(&e),
            }
        }
        return;
    }
    let mut mint = rid_minter();
    let reqs: Vec<Request> = o
        .words
        .iter()
        .enumerate()
        .map(|(i, w)| Request::Run {
            id: i as u64 + 1,
            request_id: mint(),
            workload: w.clone(),
            size: o.size,
            mode: o.mode,
            deadline_ms: o.deadline_ms,
        })
        .collect();
    let outcome = match roundtrip_retry(&o.socket, &reqs, &o.retry) {
        Ok(r) => r,
        Err(e) => die(&format!("{}: {e}", o.socket.display())),
    };
    if outcome.retries > 0 {
        eprintln!("  {} request(s) resubmitted after typed sheds", outcome.retries);
    }
    let mut failed = false;
    for resp in &outcome.resps {
        if resp.get_bool("ok") == Some(true) {
            let cycles = decode_response_blob(resp)
                .map(|c| c.result.cycles)
                .or_else(|| resp.get_num("cycles"))
                .unwrap_or(0);
            println!(
                "{:12} {:12} cycles={cycles} cached={} rid={:016x}",
                resp.get_str("workload").unwrap_or("?"),
                resp.get_str("mode").unwrap_or("?"),
                resp.get_bool("cached").unwrap_or(false),
                resp.get_num("request_id").unwrap_or(0),
            );
            if o.latency {
                match resp.get_str("latency").map(parse) {
                    Some(Ok(tree)) => print!("{}", render_span_rows(&tree)),
                    _ => eprintln!("  (no latency breakdown in response)"),
                }
            }
        } else {
            failed = true;
            match resp.get_str("shed") {
                Some(reason) => eprintln!(
                    "request {} shed ({reason}): {}",
                    resp.get_num("id").unwrap_or(0),
                    resp.get_str("error").unwrap_or("unknown error"),
                ),
                None => eprintln!(
                    "request {} failed: {}",
                    resp.get_num("id").unwrap_or(0),
                    resp.get_str("error").unwrap_or("unknown error"),
                ),
            }
        }
    }
    if failed {
        exit(1);
    }
}

/// `nsc-client logs`: drain the daemon's flight recorder. Record lines
/// (one JSON object each) go to stdout; the drain summary to stderr.
fn logs_cmd(o: Opts) {
    if !o.words.is_empty() {
        die("logs takes no positional arguments");
    }
    let resps = match roundtrip(&o.socket, &[Request::Logs { id: 1 }]) {
        Ok(r) => r,
        Err(e) => die(&format!("{}: {e}", o.socket.display())),
    };
    let resp = resps
        .first()
        .filter(|r| r.get_bool("ok") == Some(true))
        .unwrap_or_else(|| die("daemon did not answer the logs request"));
    print!("{}", resp.get_str("lines").unwrap_or(""));
    eprintln!(
        "  {} records drained, {} dropped since last drain",
        resp.get_num("count").unwrap_or(0),
        resp.get_num("dropped").unwrap_or(0),
    );
}

/// `nsc-client inspect`: report the tiered result cache. The raw protocol
/// line goes to stdout (scripts grep the flat `hot_*`/`cold_*` fields); a
/// per-tier table plus the hottest keys goes to stderr. `--key HEX` probes
/// one key's residency; `--local` reads this process's cache instead of a
/// daemon's.
fn inspect_cmd(o: Opts) {
    if !o.words.is_empty() {
        die("inspect takes no positional arguments (use --key HEX to probe a key)");
    }
    let body = if o.local {
        let body = inspect_body(nsc_sim::cache::shared(), o.key.as_deref())
            .unwrap_or_else(|e| die(&e));
        println!("{}", Response::Inspect { id: 0, body: body.clone() }.render());
        body
    } else {
        let req = Request::Inspect { id: 1, key: o.key.clone() };
        let resps = match roundtrip(&o.socket, &[req]) {
            Ok(r) => r,
            Err(e) => die(&format!("{}: {e}", o.socket.display())),
        };
        let Some(resp) = resps.first() else { die("daemon did not answer the inspect request") };
        println!("{}", resp.render());
        match Response::from_obj(resp) {
            Some(Response::Inspect { body, .. }) => body,
            Some(Response::Error { error, .. }) => die(&error),
            _ => die("unexpected response to inspect"),
        }
    };
    print_inspect_summary(&body);
}

fn print_inspect_summary(b: &InspectBody) {
    let budget = |v: u64, unbounded: &str| {
        if v == 0 { unbounded.to_string() } else { v.to_string() }
    };
    eprintln!(
        "  cache {}, compression {}",
        if b.enabled { "enabled" } else { "disabled" },
        if b.compress { "on" } else { "off" },
    );
    eprintln!(
        "  {:<5} {:>9} {:>9} {:>9} {:>10} {:>8} {:>11} {:>11}",
        "tier", "hits", "misses", "stores", "evictions", "entries", "bytes", "budget",
    );
    for (name, t, budget_str) in [
        ("hot", &b.hot, budget(b.mem_budget, "off")),
        ("cold", &b.cold, budget(b.disk_budget, "unbounded")),
    ] {
        eprintln!(
            "  {:<5} {:>9} {:>9} {:>9} {:>10} {:>8} {:>11} {:>11}",
            name, t.hits, t.misses, t.stores, t.evictions, t.entries, t.bytes, budget_str,
        );
    }
    if !b.hottest.is_empty() {
        eprintln!("  hottest (key:hits): {}", b.hottest);
    }
    if let Some(k) = &b.key {
        eprintln!(
            "  key {}: hot={} cold={} bytes={} hot_hits={}",
            k.key,
            if k.in_hot { "yes" } else { "no" },
            if k.in_cold { "yes" } else { "no" },
            k.bytes,
            k.hits,
        );
    }
}

/// `nsc-client trace REQUEST_ID`: print one request's span tree as
/// awk-friendly rows; `--perfetto FILE` additionally writes a combined
/// serve-spans + sim-events Chrome trace document.
fn trace_cmd(o: Opts) {
    let [rid_word] = o.words.as_slice() else {
        die("trace takes exactly one REQUEST_ID (the hex rid printed by submit)")
    };
    let rid = u64::from_str_radix(rid_word.trim_start_matches("0x"), 16)
        .unwrap_or_else(|_| die(&format!("bad REQUEST_ID (want hex): {rid_word:?}")));
    let req = Request::Trace { id: 1, request_id: rid, perfetto: o.perfetto.is_some() };
    let resps = match roundtrip(&o.socket, &[req]) {
        Ok(r) => r,
        Err(e) => die(&format!("{}: {e}", o.socket.display())),
    };
    let Some(resp) = resps.first() else { die("daemon did not answer the trace request") };
    if resp.get_bool("ok") != Some(true) {
        die(resp.get_str("error").unwrap_or("trace request failed"));
    }
    let tree = resp
        .get_str("tree")
        .map(parse)
        .unwrap_or_else(|| die("trace response carried no tree"))
        .unwrap_or_else(|e| die(&format!("bad span tree from daemon: {e}")));
    println!(
        "request {rid:016x}: wall {}µs, {} spans, {} sim events",
        resp.get_num("wall_us").unwrap_or(0),
        resp.get_num("spans").unwrap_or(0),
        resp.get_num("sim_events").unwrap_or(0),
    );
    print!("{}", render_span_rows(&tree));
    if let Some(path) = &o.perfetto {
        let doc = resp
            .get_str("perfetto")
            .unwrap_or_else(|| die("daemon sent no perfetto document"));
        if let Err(e) = std::fs::write(path, doc) {
            die(&format!("writing {}: {e}", path.display()));
        }
        eprintln!("  wrote combined Perfetto trace to {}", path.display());
    }
}

/// One indented `name start dur` row per span of a parsed
/// `nsc-span-v1` tree.
fn render_span_rows(tree: &Json) -> String {
    let mut out = String::new();
    for s in tree.get("spans").and_then(Json::as_arr).into_iter().flatten() {
        out.push_str(&format!(
            "  {:<14} {:>8}µs {:>8}µs\n",
            s.get("name").and_then(Json::as_str).unwrap_or("?"),
            s.get("start_us").and_then(Json::as_f64).unwrap_or(0.0),
            s.get("dur_us").and_then(Json::as_f64).unwrap_or(0.0),
        ));
    }
    out
}

fn req_val(argv: &mut impl Iterator<Item = String>, flag: &str) -> String {
    argv.next().unwrap_or_else(|| die(&format!("{flag} requires a value")))
}

fn req_num(argv: &mut impl Iterator<Item = String>, flag: &str) -> u64 {
    let v = req_val(argv, flag);
    v.parse().unwrap_or_else(|_| die(&format!("{flag} wants an integer, got {v:?}")))
}

fn die(msg: &str) -> ! {
    eprintln!("nsc-client: {msg}\n\n{USAGE}");
    exit(2);
}
