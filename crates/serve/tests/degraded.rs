//! Degraded cache-only mode under saturation. This test installs a
//! process configuration that arms the result cache in a private
//! directory, so it lives alone in its own test binary: the
//! configuration is process-wide and set once.

use near_stream::ExecMode;
use nsc_serve::client::roundtrip;
use nsc_serve::server::ServeConfig;
use nsc_serve::Request;
use nsc_sim::config::{self, Config};
use nsc_workloads::Size;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::time::Duration;

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

fn run(id: u64, workload: &str) -> Request {
    Request::Run {
        id,
        request_id: 0,
        workload: workload.to_owned(),
        size: Size::Tiny,
        mode: ExecMode::Ns,
        deadline_ms: 0,
    }
}

#[test]
fn saturated_queue_still_answers_cache_hits() {
    // Private cache directory: armed, but empty until this test fills it.
    let cache_dir =
        std::env::temp_dir().join(format!("nscd-degraded-cache-{}", std::process::id()));
    config::install(Config { cache: true, cache_dir: Some(cache_dir.clone()), ..Config::default() });
    let socket: PathBuf =
        std::env::temp_dir().join(format!("nscd-degraded-{}.sock", std::process::id()));
    // A stale socket file (earlier panicked run + recycled pid) would
    // satisfy `wait_for` before the daemon binds; clear it first.
    let _ = std::fs::remove_file(&socket);
    let cfg = ServeConfig { jobs: 1, max_conns: 8, queue_cap: 1, deadline_ms: 0 };
    let server = {
        let socket = socket.clone();
        std::thread::spawn(move || nsc_serve::server::serve_with(&socket, cfg))
    };
    wait_for(&socket);

    // Warm the cache: one uncontended run of the key we will replay.
    let warm = roundtrip(&socket, &[run(1, "histogram")]).expect("warm run");
    assert_eq!(warm[0].get_bool("ok"), Some(true), "got {}", warm[0].render());
    let warm_blob = warm[0].get_str("blob").expect("blob").to_owned();

    // Saturate: a cold run takes the only queue slot. Hold its
    // connection open and wait until the daemon reports the slot
    // occupied, so the probe batch below races nothing.
    let mut cold = UnixStream::connect(&socket).expect("cold conn");
    writeln!(cold, "{}", run(1, "bin_tree").render()).expect("submit cold run");
    cold.flush().expect("flush");
    let mut occupied = false;
    for _ in 0..400 {
        let st = roundtrip(&socket, &[Request::Status { id: 1 }]).expect("status");
        if st[0].get_num("queue_depth") == Some(1) {
            occupied = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    assert!(occupied, "cold run never occupied the queue slot");

    // While the slot is held, a cache-miss submit must shed and a
    // cache-hit submit must still be answered (degraded mode, inline).
    // Miss first: its probe is quick, so it runs while the slot is
    // still held; the hit's inline replay may outlast the cold run,
    // which is fine — a hit is served either way.
    let resps =
        roundtrip(&socket, &[run(3, "hash_join"), run(2, "histogram")]).expect("probe batch");
    assert_eq!(resps.len(), 2, "every submit gets a terminal response");
    let degraded = &resps[1];
    assert_eq!(
        degraded.get_bool("ok"),
        Some(true),
        "cache hit must be served at saturation: {}",
        degraded.render()
    );
    assert_eq!(degraded.get_bool("cached"), Some(true), "got {}", degraded.render());
    assert_eq!(
        degraded.get_str("blob"),
        Some(warm_blob.as_str()),
        "degraded replay must be bit-identical to the warm run"
    );
    let shed = &resps[0];
    assert_eq!(shed.get_bool("ok"), Some(false), "cache miss must shed: {}", shed.render());
    assert_eq!(shed.get_str("shed"), Some("overloaded"), "got {}", shed.render());

    // The cold run itself still completes and delivers on its own
    // connection.
    cold.shutdown(std::net::Shutdown::Write).expect("half-close");
    let mut lines = Vec::new();
    for line in BufReader::new(cold).lines() {
        lines.push(line.expect("read cold response"));
    }
    assert_eq!(lines.len(), 1, "got: {lines:?}");
    assert!(lines[0].contains("\"ok\":true"), "cold run must complete: {}", lines[0]);

    let resps = roundtrip(&socket, &[Request::Shutdown { id: 9 }]).expect("shutdown");
    assert_eq!(resps[0].get_bool("ok"), Some(true));
    server.join().expect("server thread").expect("serve() result");
    let _ = std::fs::remove_dir_all(&cache_dir);
}
