//! Wire-protocol edge cases against a live daemon: every malformed or
//! hostile input must come back as a typed error *response* on the same
//! connection — never a dropped connection — and the request-tracing
//! surface (`latency` field, `trace` op, `logs` op) must hold its
//! contract end to end.

use near_stream::ExecMode;
use nsc_serve::client::roundtrip;
use nsc_serve::{server::MAX_LINE_BYTES, Request};
use nsc_sim::json::{parse, Json};
use nsc_workloads::Size;
use std::io::{BufRead, BufReader, Read, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::time::Duration;

fn temp_socket(tag: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("nscd-edge-{tag}-{}.sock", std::process::id()));
    // A stale socket file (earlier panicked run + recycled pid) would
    // satisfy `wait_for` before the daemon binds; clear it first so the
    // path can only reappear as a live listener.
    let _ = std::fs::remove_file(&path);
    path
}

fn wait_for(socket: &Path) {
    // Wait for a live listener, not just the socket file: `exists()`
    // can win the race against the daemon thread between its `bind`
    // and the accept loop coming up, and a stale file would satisfy it
    // with no listener behind it at all. The probe connection is
    // dropped unused; the daemon sees it end at EOF.
    let mut last = None;
    for _ in 0..400 {
        match UnixStream::connect(socket) {
            Ok(_) => return,
            Err(e) => last = Some(e),
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    panic!("daemon never came up on {} (last error: {last:?})", socket.display());
}

fn start_daemon(tag: &str) -> (PathBuf, std::thread::JoinHandle<std::io::Result<()>>) {
    let socket = temp_socket(tag);
    let server = {
        let socket = socket.clone();
        std::thread::spawn(move || nsc_serve::server::serve(&socket, 2))
    };
    wait_for(&socket);
    (socket, server)
}

fn shutdown(socket: &Path, server: std::thread::JoinHandle<std::io::Result<()>>) {
    let resps = roundtrip(socket, &[Request::Shutdown { id: 99 }]).expect("shutdown");
    assert_eq!(resps[0].get_bool("ok"), Some(true));
    server.join().expect("server thread").expect("serve() result");
}

/// Writes raw bytes, half-closes, and reads back all response lines —
/// the lowest-level client possible, for inputs `Request::render` could
/// never produce.
fn raw_exchange(socket: &Path, bytes: &[u8]) -> Vec<String> {
    let mut stream = UnixStream::connect(socket).expect("connect");
    stream.write_all(bytes).expect("write");
    stream.shutdown(std::net::Shutdown::Write).expect("half-close");
    let mut lines = Vec::new();
    for line in BufReader::new(stream).lines() {
        lines.push(line.expect("read response line"));
    }
    lines
}

#[test]
fn oversized_line_gets_typed_error_and_connection_survives() {
    let (socket, server) = start_daemon("oversize");
    let mut payload = Vec::new();
    payload.extend_from_slice(b"{\"op\":\"status\",\"id\":1}\n");
    payload.extend_from_slice("x".repeat(MAX_LINE_BYTES + 100).as_bytes());
    payload.extend_from_slice(b"\n{\"op\":\"status\",\"id\":3}\n");
    let lines = raw_exchange(&socket, &payload);
    assert_eq!(lines.len(), 3, "one response per line, got: {lines:?}");
    assert!(lines[0].contains("\"ok\":true"), "got: {}", lines[0]);
    assert!(lines[1].contains("\"ok\":false"), "got: {}", lines[1]);
    assert!(lines[1].contains("exceeds"), "got: {}", lines[1]);
    // The line after the oversized one is served normally: the daemon
    // resynchronized at the newline instead of dropping the connection.
    assert!(lines[2].contains("\"ok\":true"), "got: {}", lines[2]);
    assert!(lines[2].contains("\"id\":3"), "got: {}", lines[2]);
    shutdown(&socket, server);
}

#[test]
fn truncated_json_at_eof_gets_typed_error() {
    let (socket, server) = start_daemon("truncated");
    // The connection dies mid-object: no newline after the fragment.
    let lines = raw_exchange(&socket, b"{\"op\":\"status\",\"id\":1}\n{\"op\":\"run\",\"id\":2,\"work");
    assert_eq!(lines.len(), 2, "got: {lines:?}");
    assert!(lines[0].contains("\"ok\":true"));
    assert!(lines[1].contains("\"ok\":false"), "got: {}", lines[1]);
    assert!(lines[1].contains("malformed"), "got: {}", lines[1]);
    shutdown(&socket, server);
}

#[test]
fn unknown_op_gets_typed_error_with_id() {
    let (socket, server) = start_daemon("unknown-op");
    let lines = raw_exchange(&socket, b"{\"op\":\"teleport\",\"id\":7}\n");
    assert_eq!(lines.len(), 1, "got: {lines:?}");
    assert!(lines[0].contains("\"id\":7"));
    assert!(lines[0].contains("\"ok\":false"));
    assert!(lines[0].contains("unknown op"), "got: {}", lines[0]);
    shutdown(&socket, server);
}

#[test]
fn duplicate_request_id_in_one_batch_is_rejected() {
    let (socket, server) = start_daemon("dup-rid");
    let run = |id, rid| Request::Run {
        id,
        request_id: rid,
        workload: "histogram".to_owned(),
        size: Size::Tiny,
        mode: ExecMode::Ns,
        deadline_ms: 0,
    };
    let resps = roundtrip(&socket, &[run(1, 0xDEAD), run(2, 0xDEAD), run(3, 0xBEEF)])
        .expect("round trip");
    assert_eq!(resps.len(), 3);
    assert_eq!(resps[0].get_bool("ok"), Some(true), "got {}", resps[0].render());
    assert_eq!(resps[1].get_bool("ok"), Some(false), "got {}", resps[1].render());
    assert!(
        resps[1].get_str("error").unwrap_or("").contains("duplicate request_id"),
        "got {}",
        resps[1].render()
    );
    assert_eq!(resps[1].get_num("request_id"), Some(0xDEAD));
    // The batch keeps flowing after the rejection.
    assert_eq!(resps[2].get_bool("ok"), Some(true), "got {}", resps[2].render());
    shutdown(&socket, server);
}

#[test]
fn submit_then_trace_reproduces_the_latency_tree() {
    let (socket, server) = start_daemon("trace");
    let rid = 0xAB_CDEF;
    let reqs = [
        Request::Run {
            id: 1,
            request_id: rid,
            workload: "histogram".to_owned(),
            size: Size::Tiny,
            mode: ExecMode::Ns,
            deadline_ms: 0,
        },
        // Same batch: ordered delivery guarantees the run's tree is
        // sealed and stored before this trace slot is evaluated.
        Request::Trace { id: 2, request_id: rid, perfetto: false },
        Request::Trace { id: 3, request_id: 0x1234_5678, perfetto: false },
    ];
    let resps = roundtrip(&socket, &reqs).expect("round trip");

    let run = &resps[0];
    assert_eq!(run.get_bool("ok"), Some(true), "got {}", run.render());
    assert_eq!(run.get_num("request_id"), Some(rid));
    let latency = run.get_str("latency").expect("run response embeds latency");
    let tree = parse(latency).expect("latency parses");
    assert_eq!(tree.get("schema").and_then(Json::as_str), Some("nsc-span-v1"));
    assert_eq!(
        tree.get("request_id").and_then(Json::as_str),
        Some(format!("{rid:016x}").as_str()),
    );
    let spans = tree.get("spans").and_then(Json::as_arr).expect("spans array");
    assert!(spans.len() >= 6, "want ≥6 spans, got {}: {latency}", spans.len());
    for name in
        ["accept", "parse", "queue_wait", "pool_dispatch", "cache_probe", "simulate", "deliver"]
    {
        assert!(
            spans.iter().any(|s| s.get("name").and_then(Json::as_str) == Some(name)),
            "span {name} missing: {latency}"
        );
    }
    // Phases are sequential slices of the request: durations must sum
    // to within the reported wall time.
    let wall = tree.get("wall_us").and_then(Json::as_f64).expect("wall_us");
    let sum: f64 =
        spans.iter().filter_map(|s| s.get("dur_us").and_then(Json::as_f64)).sum();
    assert!(sum <= wall, "span durations ({sum}µs) exceed wall ({wall}µs): {latency}");

    // `trace` returns the *same* tree, byte for byte.
    let trace = &resps[1];
    assert_eq!(trace.get_bool("ok"), Some(true), "got {}", trace.render());
    assert_eq!(trace.get_str("tree"), Some(latency), "trace tree != submit latency");
    assert_eq!(trace.get_num("spans"), Some(spans.len() as u64));

    // An unknown rid is a typed error.
    let missing = &resps[2];
    assert_eq!(missing.get_bool("ok"), Some(false));
    assert!(missing.get_str("error").unwrap_or("").contains("unknown request_id"));
    shutdown(&socket, server);
}

#[test]
fn logs_op_drains_the_flight_recorder() {
    // Level state is process-global; this is the only test in this
    // binary that turns it on.
    nsc_sim::log::set_level(Some(nsc_sim::log::Level::Debug));
    let (socket, server) = start_daemon("logs");
    let reqs = [
        Request::Run {
            id: 1,
            request_id: 0,
            workload: "histogram".to_owned(),
            size: Size::Tiny,
            mode: ExecMode::Ns,
            deadline_ms: 0,
        },
        Request::Logs { id: 2 },
    ];
    let resps = roundtrip(&socket, &reqs).expect("round trip");
    let logs = &resps[1];
    assert_eq!(logs.get_bool("ok"), Some(true), "got {}", logs.render());
    assert!(logs.get_num("count").unwrap_or(0) > 0, "flight recorder empty");
    let lines = logs.get_str("lines").expect("lines field");
    assert!(
        lines.lines().any(|l| l.contains("\"target\":\"serve\"")),
        "no serve records in: {lines}"
    );
    // Every drained line is itself valid JSON.
    for l in lines.lines() {
        parse(l).unwrap_or_else(|e| panic!("bad log line {l:?}: {e}"));
    }
    nsc_sim::log::set_level(None);
    shutdown(&socket, server);
}

#[test]
fn disconnect_mid_stream_reaps_pending_work() {
    // Regression: a client that submits a burst and vanishes must not
    // leave the daemon simulating for a dead socket. Jobs still queued
    // when the writer notices the dead peer are shed (serve.shed), the
    // queue drains, and the daemon stays healthy for other clients.
    let socket = temp_socket("reap");
    let server = {
        let socket = socket.clone();
        let cfg = nsc_serve::server::ServeConfig {
            jobs: 1,
            max_conns: 8,
            queue_cap: 64,
            deadline_ms: 0,
        };
        std::thread::spawn(move || nsc_serve::server::serve_with(&socket, cfg))
    };
    wait_for(&socket);

    let shed_before = global_counter("serve.shed", &socket);
    // A shed is only observable if the writer hits the dead peer while
    // jobs are still queued; on one CPU the worker can race through an
    // entire tiny burst before the writer thread is ever scheduled.
    // Burst again until a shed lands — the guarded regression (the
    // daemon simulating for dead sockets without ever shedding) keeps
    // the counter flat through every round and still fails.
    let mut shed_after = shed_before;
    for _round in 0..10 {
        {
            // Submit a burst of distinct cold runs on one worker, then
            // drop the connection without reading a single response.
            // The writer hits EPIPE on the first delivery and flips the
            // `alive` flag.
            let mut stream = UnixStream::connect(&socket).expect("connect");
            let mut payload = String::new();
            for (i, w) in ["histogram", "bin_tree", "hash_join", "bfs_push", "pr_push", "sssp"]
                .iter()
                .enumerate()
            {
                payload.push_str(&format!(
                    "{{\"op\":\"run\",\"id\":{},\"workload\":\"{w}\",\"size\":\"tiny\",\"mode\":\"NS\"}}\n",
                    i + 1
                ));
            }
            stream.write_all(payload.as_bytes()).expect("write burst");
            // Dropping `stream` closes both halves.
        }

        // The queue must drain on its own: queued jobs observe the dead
        // connection at dequeue and skip their simulations.
        let mut drained = false;
        for _ in 0..400 {
            let resps = roundtrip(&socket, &[Request::Status { id: 1 }]).expect("status");
            let idle = resps[0].get_num("queue_depth") == Some(0)
                && resps[0].get_num("in_flight") == Some(0);
            if idle {
                drained = true;
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        assert!(drained, "queue never drained after client disconnect");
        shed_after = global_counter("serve.shed", &socket);
        if shed_after > shed_before {
            break;
        }
    }
    assert!(
        shed_after > shed_before,
        "disconnect must shed queued work (serve.shed {shed_before} -> {shed_after})"
    );
    shutdown(&socket, server);
}

/// Reads one global counter through the daemon's `metrics` op.
fn global_counter(label: &str, socket: &Path) -> f64 {
    let resps = roundtrip(socket, &[Request::Metrics { id: 1 }]).expect("metrics");
    let snap = parse(resps[0].get_str("snapshot").expect("snapshot")).expect("snapshot json");
    snap.get("counters")
        .and_then(Json::as_obj)
        .and_then(|c| c.get(label))
        .and_then(Json::as_f64)
        .unwrap_or(0.0)
}

#[test]
fn request_id_above_2_pow_53_survives_the_wire_exactly() {
    // Request ids are u64; a JSON layer that detoured through f64 would
    // silently round anything above 2^53. The README's doc example rid
    // (0x0123456789abcdef = 81985529216486895) and u64::MAX must both
    // round-trip bit-exactly through render → daemon → response.
    let big: u64 = 81985529216486895;
    assert!(big > (1u64 << 53));

    // Library level: render/parse round trip at the extremes.
    for rid in [big, u64::MAX] {
        let req = Request::Run {
            id: 1,
            request_id: rid,
            workload: "histogram".to_owned(),
            size: Size::Tiny,
            mode: ExecMode::Ns,
            deadline_ms: 0,
        };
        let back = Request::parse(&req.render()).expect("round trip");
        assert_eq!(back, req, "request_id {rid} mangled by render/parse");
    }

    // Wire level: the daemon must echo the exact integer back, both in
    // the run response and in the duplicate-rid rejection path.
    let (socket, server) = start_daemon("big-rid");
    let raw = format!(
        "{{\"op\":\"run\",\"id\":1,\"request_id\":{big},\"workload\":\"histogram\",\
         \"size\":\"tiny\",\"mode\":\"NS\"}}\n"
    );
    let lines = raw_exchange(&socket, raw.as_bytes());
    assert_eq!(lines.len(), 1, "got: {lines:?}");
    assert!(lines[0].contains("\"ok\":true"), "got: {}", lines[0]);
    assert!(
        lines[0].contains(&format!("\"request_id\":{big}")),
        "rid lost precision on the wire: {}",
        lines[0]
    );
    shutdown(&socket, server);
}

#[test]
fn slow_trickled_request_still_parses() {
    // A request written byte-by-byte across many writes must be
    // reassembled: the bounded reader cannot assume one write per line.
    let (socket, server) = start_daemon("trickle");
    let mut stream = UnixStream::connect(&socket).expect("connect");
    for b in b"{\"op\":\"status\",\"id\":5}\n" {
        stream.write_all(&[*b]).expect("write byte");
        stream.flush().expect("flush");
    }
    stream.shutdown(std::net::Shutdown::Write).expect("half-close");
    let mut body = String::new();
    stream.read_to_string(&mut body).expect("read");
    assert!(body.contains("\"id\":5"), "got: {body}");
    assert!(body.contains("\"ok\":true"), "got: {body}");
    shutdown(&socket, server);
}
