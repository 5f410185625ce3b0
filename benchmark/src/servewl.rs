//! The serving workloads: a private `nscd --jobs 1` child driven by the
//! open-loop generator at a fixed offered rate, then by a closed loop for
//! capacity; every response checked.

use crate::daemon::Daemon;
use crate::kernels::{self, Kernel, RunRecord};
use crate::layers::{ratio, set, Metrics};
use crate::load::{self, Arrival, Conn, Key, KeyDist, KeyStream, Sample, DAEMON_SPANS};
use crate::probes::TracedPass;
use crate::simwl::{layer_metrics, SETUP_ROUNDS};
use crate::span::Recorder;
use crate::stats::{median, percentile, sorted, tail};
use crate::{env, Opts, Outcome};
use near_stream::request::decode;
use near_stream::{ExecMode, RunResult, SystemConfig};
use nsc_serve::json::Obj;
use nsc_serve::{Request, Response};
use nsc_sim::rng::Rng;
use nsc_workloads::Size;
use std::collections::BTreeMap;
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// A serving workload: key set, key distribution, offered rate, latency
/// limit and the daemon's cache settings.
pub struct ServeWorkload {
    /// Workload name in `BENCHMARK.json`.
    pub name: &'static str,
    /// Modes of the key set (every Table VI kernel under each).
    pub modes: &'static [ExecMode],
    /// How keys are drawn.
    pub dist: KeyDist,
    /// Open-loop offered rate, requests per second.
    pub rate: f64,
    /// Latency limit on the tail percentile, milliseconds.
    pub limit_ms: f64,
    /// `NSC_CACHE_MEM_BYTES`, `NSC_CACHE_DISK_BYTES`, `NSC_CACHE_COMPRESS`.
    pub cache: [&'static str; 3],
}

/// The two serving workloads (see README.md for why each exists).
pub const WORKLOADS: [ServeWorkload; 2] = [
    ServeWorkload {
        name: "serve_warm",
        modes: &[ExecMode::Base, ExecMode::Ns],
        dist: KeyDist::Zipf(0.9),
        rate: 40.0,
        // The daemon's default NSC_SLO_P99_US.
        limit_ms: 50.0,
        cache: ["64m", "0", "0"],
    },
    ServeWorkload {
        name: "serve_churn",
        modes: &ExecMode::ALL,
        dist: KeyDist::Recycle { every: 4, back: 16 },
        rate: 20.0,
        limit_ms: 250.0,
        cache: ["8k", "16k", "1"],
    },
];

/// Share of `--seconds` the open loop gets; the closed loop gets the rest.
const OPEN_SHARE: f64 = 0.75;
/// Closed-loop completions per `wall_s` batch.
const BATCH: usize = 28;
/// Generator lateness (p99) above this voids the run's latency figures:
/// the offered load was not the scheduled one.
const MAX_LATENESS_US: f64 = 2000.0;
/// Offered-rate multipliers of the traced run's ladder.
const LADDER: [f64; 5] = [0.5, 0.75, 1.0, 1.25, 1.5];

/// What one generator thread does between two barriers.
#[derive(Clone)]
enum Phase {
    /// Open loop over this connection's share of a schedule.
    Open {
        arrivals: Vec<Arrival>,
        traced: bool,
    },
    /// Closed loop for a duration over this connection's key sequence.
    Closed { secs: f64, sequence: Vec<usize> },
}

/// The environment the daemon child runs under, on top of the scrubbed
/// one. Everything that shapes the measurement is set explicitly.
fn pinned_env(w: &ServeWorkload, o: &Opts) -> Vec<(String, String)> {
    let dir = |leaf: &str| o.run_dir.join(leaf).display().to_string();
    [
        ("NSC_CACHE", "1".to_owned()),
        ("NSC_CACHE_DIR", dir("cache")),
        ("NSC_RESULTS_DIR", dir("results")),
        ("NSC_CACHE_MEM_BYTES", w.cache[0].to_owned()),
        ("NSC_CACHE_DISK_BYTES", w.cache[1].to_owned()),
        ("NSC_CACHE_COMPRESS", w.cache[2].to_owned()),
        ("NSC_SAMPLE_MS", "0".to_owned()),
        ("NSC_COMPILE", "1".to_owned()),
        ("NSC_LOG", "info".to_owned()),
        ("NSC_QUEUE_CAP", "128".to_owned()),
        ("NSC_MAX_CONNS", "64".to_owned()),
        ("NSC_DEADLINE_MS", "0".to_owned()),
    ]
    .into_iter()
    .map(|(k, v)| (k.to_owned(), v))
    .collect()
}

/// What checking the responses found.
#[derive(Default)]
struct Verdict {
    sent: u64,
    ok: u64,
    cached: u64,
    lost: u64,
    mismatched: u64,
    shed: u64,
    errors: u64,
    /// First blob seen per key, decoded.
    results: BTreeMap<usize, (String, RunResult)>,
}

impl Verdict {
    fn failed(&self) -> u64 {
        self.lost + self.mismatched + self.shed + self.errors
    }

    /// Checks one sample: the response must answer this request, carry a
    /// blob that decodes, and that blob must be bit-identical to every
    /// other response for the same key.
    fn check(&mut self, keys: &[Key], s: &Sample) {
        self.sent += 1;
        let Some((_, line)) = &s.response else {
            self.lost += 1;
            return;
        };
        match Response::parse(line) {
            Some(Response::Run {
                id,
                workload,
                mode,
                blob,
                cached,
                ..
            }) => {
                let key = keys[s.key];
                let same_blob = match self.results.get(&s.key) {
                    Some((first, _)) => *first == blob,
                    None => match decode(&blob) {
                        Some(rec) => {
                            self.results.insert(s.key, (blob, rec.result));
                            true
                        }
                        None => false,
                    },
                };
                if id == s.id && workload == key.kernel && mode == key.mode && same_blob {
                    self.ok += 1;
                    self.cached += cached as u64;
                } else {
                    self.mismatched += 1;
                }
            }
            Some(Response::Shed { .. }) => self.shed += 1,
            Some(Response::Error { .. }) => self.errors += 1,
            _ => self.mismatched += 1,
        }
    }
}

/// Latencies from due time in milliseconds, ascending.
fn latencies_ms(samples: &[Sample]) -> Vec<f64> {
    sorted(samples.iter().map(|s| s.latency_ns() / 1e6).collect())
}

fn lateness_p99_us<'a>(samples: impl IntoIterator<Item = &'a Sample>) -> f64 {
    let late = sorted(samples.into_iter().map(|s| s.lateness_ns() / 1e3).collect());
    percentile(&late, 0.99)
}

/// Completions per second of an open-loop phase, from its first due time
/// to its last response.
fn achieved_rps(samples: &[Sample]) -> f64 {
    let done: Vec<Instant> = samples
        .iter()
        .filter_map(|s| s.response.as_ref().map(|(at, _)| *at))
        .collect();
    match (samples.iter().map(|s| s.due).min(), done.iter().max()) {
        (Some(first), Some(last)) if *last > first => {
            done.len() as f64 / (*last - first).as_secs_f64()
        }
        _ => 0.0,
    }
}

/// What one generator thread brings back.
struct Lane {
    /// Its samples, per phase.
    samples: Vec<Vec<Sample>>,
    /// Response lines that answered no request.
    unsolicited: u64,
    /// Spans of its traced phases.
    spans: Recorder,
}

/// One connection's phases, a barrier before each. A lane whose
/// connection fails still meets the remaining barriers, or the others
/// would wait for it for ever.
fn run_lane(
    mut conn: Conn,
    keys: &[Key],
    phases: &[Phase],
    barrier: &Barrier,
    mut spans: Recorder,
) -> Result<Lane, String> {
    let mut samples = Vec::new();
    let mut failure = None;
    for phase in phases {
        barrier.wait();
        if failure.is_some() {
            continue;
        }
        let done = match phase {
            Phase::Open { arrivals, traced } => {
                conn.open_loop(keys, arrivals, Instant::now(), |s| {
                    if *traced {
                        load::record_request(&mut spans, s);
                    }
                })
            }
            Phase::Closed { secs, sequence } => conn.closed_loop(
                keys,
                sequence,
                Instant::now() + Duration::from_secs_f64(*secs),
            ),
        };
        match done {
            Ok(s) => samples.push(s),
            Err(e) => failure = Some(format!("a generator connection failed: {e}")),
        }
    }
    match failure {
        Some(e) => Err(e),
        None => Ok(Lane {
            samples,
            unsolicited: conn.unsolicited,
            spans,
        }),
    }
}

/// Runs `phases[c]` on connection `c`, one thread per connection.
/// Returns, per phase, every connection's samples merged, and the number
/// of unsolicited response lines; traced phases' spans go into `rec`.
fn drive(
    socket: &std::path::Path,
    keys: &[Key],
    phases: &[Vec<Phase>],
    rec: &mut Recorder,
) -> Result<(Vec<Vec<Sample>>, u64), String> {
    let conns: Vec<Conn> = (0..phases.len())
        .map(|c| {
            Conn::open(socket, (c as u64 + 1) << 32)
                .map_err(|e| format!("cannot connect to nscd: {e}"))
        })
        .collect::<Result<_, _>>()?;
    let barrier = Barrier::new(conns.len());
    let lanes: Vec<Result<Lane, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .into_iter()
            .zip(phases)
            .map(|(conn, mine)| {
                let (barrier, spans) = (&barrier, rec.fork());
                scope.spawn(move || run_lane(conn, keys, mine, barrier, spans))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("a generator thread panicked".to_owned()))
            })
            .collect()
    });
    let mut merged: Vec<Vec<Sample>> = vec![Vec::new(); phases.first().map_or(0, Vec::len)];
    let mut unsolicited = 0;
    for lane in lanes {
        let lane = lane?;
        for (slot, samples) in merged.iter_mut().zip(lane.samples) {
            slot.extend(samples);
        }
        unsolicited += lane.unsolicited;
        rec.absorb(lane.spans);
    }
    Ok((merged, unsolicited))
}

/// One phase per connection from a schedule dealt round-robin.
fn open_phase(
    seed: u64,
    rate: f64,
    secs: f64,
    stream: &mut KeyStream,
    conns: usize,
    traced: bool,
) -> Vec<Phase> {
    load::deal(&load::schedule(seed, rate, secs, stream), conns)
        .into_iter()
        .map(|arrivals| Phase::Open { arrivals, traced })
        .collect()
}

/// Transposes per-phase connection lists into per-connection phase lists.
fn by_connection(phases: Vec<Vec<Phase>>, conns: usize) -> Vec<Vec<Phase>> {
    (0..conns)
        .map(|c| phases.iter().map(|p| p[c].clone()).collect())
        .collect()
}

/// Median wall time of [`BATCH`] consecutive closed-loop completions.
fn batch_wall_s(closed: &[Sample]) -> f64 {
    let mut done: Vec<Instant> = closed
        .iter()
        .filter_map(|s| s.response.as_ref().map(|(at, _)| *at))
        .collect();
    done.sort_unstable();
    let walls: Vec<f64> = done
        .chunks_exact(BATCH + 1)
        .map(|c| (c[BATCH] - c[0]).as_secs_f64())
        .collect();
    if walls.is_empty() {
        0.0
    } else {
        median(&walls)
    }
}

/// Median and tail of each daemon span over the traced responses, and
/// the wire overhead (the client's self time per request).
fn span_metrics(m: &mut Metrics, rec: &Recorder) {
    for name in DAEMON_SPANS {
        let us = sorted(rec.durations(name).iter().map(|ns| ns / 1e3).collect());
        set(m, &format!("{name}.us.p50"), percentile(&us, 0.5));
        set(m, &format!("{name}.us.p99"), tail(&us, 0.99).value);
    }
    let totals = rec.totals();
    let wire = totals
        .get("client.request")
        .map_or(0.0, |t| t.self_ns as f64 / t.count.max(1) as f64 / 1e3);
    set(m, "serve.wire_overhead_us", wire);
}

/// Sets up the kernels behind `check_keys` (ascending key indices) at
/// `tiny` scale and runs each checked key once in process.
fn in_process_records(
    rec: &mut Recorder,
    keys: &[Key],
    check_keys: &[usize],
    cfg: &SystemConfig,
) -> (Vec<Kernel>, Vec<RunRecord>) {
    let mut names: Vec<&str> = check_keys.iter().map(|&k| keys[k].kernel).collect();
    names.dedup();
    let ks = rec.time("setup", 0, |rec| kernels::setup(rec, Size::Tiny, &names));
    let records = check_keys
        .iter()
        .enumerate()
        .map(|(i, &k)| {
            let kernel = names
                .iter()
                .position(|n| *n == keys[k].kernel)
                .expect("the kernel was set up");
            kernels::run_one(rec, &ks, kernel, keys[k].mode, cfg, i as u64)
        })
        .collect();
    (ks, records)
}

/// Runs one serving workload.
pub fn run(w: &ServeWorkload, o: &Opts) -> Result<Outcome, String> {
    let io = |what: &'static str| move |e: std::io::Error| format!("{what}: {e}");
    let conns = o.nproc.clamp(1, 2);
    let keys = load::keyset(w.modes);
    let mut stream = KeyStream::new(w.dist, keys.len(), o.seed);
    let pinned = pinned_env(w, o);
    let log = o.out_dir.join(format!("{}.nscd.log", w.name));
    let _ = std::fs::remove_file(&log);
    let mut out = Outcome::default();
    let mut rec = Recorder::new(o.trace);

    // The generator and the daemon each get CPUs of their own, so that a
    // generator thread never waits behind the daemon's worker for a time
    // slice (which made sends milliseconds late on a two-CPU box).
    let cpus = env::allowed_cpus();
    let daemon_cpus = match cpus.split_first() {
        Some((first, rest)) if !rest.is_empty() && env::pin_self(*first) => Some(
            rest.iter()
                .map(usize::to_string)
                .collect::<Vec<_>>()
                .join(","),
        ),
        _ => None,
    };
    out.note(
        "cpu_pinning",
        match &daemon_cpus {
            Some(d) => format!("generator on cpu {}, nscd on cpu {d}", cpus[0]),
            None => "none (one CPU, or no taskset)".to_owned(),
        },
    );

    // Set-up: spawn the daemon on an empty cache, wait for its first
    // accept, submit every key once and wait on a flush barrier. Repeated
    // so its time is a median; the last daemon is the one measured.
    let warm_order = stream.warm_order().to_vec();
    let mut setup_s = Vec::new();
    let mut ready = None;
    for _ in 0..if o.trace { 1 } else { SETUP_ROUNDS } {
        drop(ready.take());
        let _ = std::fs::remove_dir_all(o.run_dir.join("cache"));
        let t = Instant::now();
        let daemon = Daemon::spawn(&o.nscd, &o.run_dir, &pinned, daemon_cpus.as_deref(), &log)
            .map_err(io("cannot start nscd"))?;
        let mut conn = Conn::open(daemon.socket(), 1).map_err(io("cannot connect to nscd"))?;
        let warm = conn
            .submit_all(&keys, &warm_order)
            .map_err(io("warm-up failed"))?;
        setup_s.push(t.elapsed().as_secs_f64());
        ready = Some((daemon, conn, warm));
    }
    let (daemon, mut control, warm) = ready.expect("set-up ran at least once");

    // The timed phases.
    let phases = if o.trace {
        let secs = o.seconds * 0.25;
        let mut p = vec![
            open_phase(o.seed, w.rate, secs, &mut stream, conns, false),
            open_phase(o.seed, w.rate, secs, &mut stream, conns, true),
        ];
        p.extend(LADDER.iter().map(|x| {
            open_phase(
                o.seed ^ x.to_bits(),
                w.rate * x,
                o.seconds * 0.06,
                &mut stream,
                conns,
                false,
            )
        }));
        p
    } else {
        vec![
            open_phase(
                o.seed,
                w.rate,
                o.seconds * OPEN_SHARE,
                &mut stream,
                conns,
                false,
            ),
            (0..conns)
                .map(|c| Phase::Closed {
                    secs: o.seconds * (1.0 - OPEN_SHARE),
                    sequence: stream.lane(c, conns).take(4096),
                })
                .collect(),
        ]
    };
    let (samples, unsolicited) = drive(
        daemon.socket(),
        &keys,
        &by_connection(phases, conns),
        &mut rec,
    )?;

    // Correctness. The warm-up must be clean; timed requests that were
    // lost, duplicated, mismatched, shed or answered with an error count
    // as failed.
    let mut warmup = Verdict::default();
    warm.iter().for_each(|s| warmup.check(&keys, s));
    let mut verdict = Verdict {
        results: std::mem::take(&mut warmup.results),
        ..Verdict::default()
    };
    samples
        .iter()
        .flatten()
        .for_each(|s| verdict.check(&keys, s));
    out.attempted = verdict.sent;
    out.failed = verdict.failed() + unsolicited;

    // Every key's blob must equal an in-process run's record: all keys in
    // the traced run (which simulates them anyway), three sampled keys
    // otherwise.
    let mut check_keys: Vec<usize> = (0..keys.len()).collect();
    if !o.trace {
        kernels::shuffle(&mut check_keys, &mut Rng::seed_from_u64(o.seed ^ 0x5eed));
        check_keys.truncate(3);
        check_keys.sort_unstable();
    }
    let tiny = nsc_bench::system_for(Size::Tiny);
    let (ks, records) = in_process_records(&mut rec, &keys, &check_keys, &tiny);
    let mut in_process_ok = true;
    for (&k, r) in check_keys.iter().zip(&records) {
        let served = verdict.results.get(&k).map(|(blob, _)| blob.as_str());
        if !r.digest_ok || served != Some(r.blob.as_str()) {
            in_process_ok = false;
            eprintln!(
                "benchmark: FAILED key {} {}: the daemon's record differs from an in-process run",
                keys[k].kernel,
                keys[k].mode.label()
            );
        }
    }
    out.correct = out.failed == 0
        && warmup.failed() == 0
        && verdict.results.len() == keys.len()
        && in_process_ok;

    let lateness = lateness_p99_us(&samples[0]);
    let void = lateness > MAX_LATENESS_US;
    if void {
        eprintln!("benchmark: VOID: generator lateness p99 {lateness:.0} us exceeds {MAX_LATENESS_US:.0} us");
    }
    let open = latencies_ms(&samples[0]);
    let t = tail(&open, 0.99);
    let within =
        open.iter().filter(|l| **l <= w.limit_ms).count() as f64 / open.len().max(1) as f64;
    let key_uops: f64 = verdict.results.values().map(|(_, r)| r.total_uops).sum();
    let by_key = verdict
        .results
        .iter()
        .map(|(&k, (blob, _))| (keys[k].kernel, keys[k].mode, blob.as_str()));
    out.note(
        "void",
        if void {
            "yes: the generator ran late, do not use this run's latencies"
        } else {
            "no"
        },
    );
    out.note("sim_digest", kernels::sim_digest(by_key));
    out.note("sim_uops", format!("{key_uops}"));
    out.note("connections", conns.to_string());
    out.note(
        "pinned_env",
        pinned
            .iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect::<Vec<_>>()
            .join(" "),
    );
    out.note(
        "requests",
        format!(
            "sent={} ok={} cached={} lost={} mismatched={} shed={} errors={} unsolicited={unsolicited}",
            verdict.sent, verdict.ok, verdict.cached, verdict.lost, verdict.mismatched, verdict.shed, verdict.errors
        ),
    );
    out.note(
        "lat_p99_quantile",
        format!(
            "{:.4} ({} requests, {} beyond)",
            t.quantile,
            open.len(),
            t.beyond
        ),
    );
    let ladder = [0.5, 0.75, 0.9, 0.95, 0.99, 1.0]
        .map(|q| format!("p{:.0}={:.3}", q * 100.0, percentile(&open, q)));
    out.note("lat_ms", ladder.join(" "));
    out.note(
        "within_limit",
        format!("{within:.4} of open-loop requests within {} ms", w.limit_ms),
    );

    let m = &mut out.metrics;
    if o.trace {
        let traced = latencies_ms(&samples[1]);
        set(
            m,
            "trace.overhead_pct",
            100.0 * (percentile(&traced, 0.5) / percentile(&open, 0.5) - 1.0),
        );
        span_metrics(m, &rec);
        let timed = || samples[..2].iter().flatten();
        set(m, "serve.sent", verdict.sent as f64);
        set(m, "serve.ok", verdict.ok as f64);
        set(
            m,
            "serve.cached_ratio",
            ratio(verdict.cached as f64, verdict.ok as f64),
        );
        set(m, "serve.shed", verdict.shed as f64);
        set(
            m,
            "serve.errors",
            (verdict.errors + verdict.lost + verdict.mismatched + unsolicited) as f64,
        );
        set(
            m,
            "load.offered_rps",
            timed().count() as f64 / (o.seconds * 0.5),
        );
        set(
            m,
            "load.achieved_rps",
            (achieved_rps(&samples[0]) + achieved_rps(&samples[1])) / 2.0,
        );
        set(m, "load.lateness_p99_us", lateness_p99_us(timed()));
        // The highest ladder rate that kept its tail inside the limit,
        // answered everything and did not fall behind (informational: the
        // steps are short).
        let best = LADDER
            .iter()
            .zip(&samples[2..])
            .filter(|(x, s)| {
                s.iter().all(|q| q.response.is_some())
                    && tail(&latencies_ms(s), 0.99).value <= w.limit_ms
                    && achieved_rps(s) >= 0.9 * w.rate * **x
            })
            .map(|(x, _)| w.rate * x)
            .fold(0.0, f64::max);
        set(m, "load.max_rate_in_slo_rps", best);

        let span_tree = samples[1]
            .iter()
            .find_map(|s| {
                Obj::parse(&s.response.as_ref()?.1)?
                    .get_str("latency")
                    .map(str::to_owned)
            })
            .ok_or("no traced response carried a span tree")?;
        let pass = TracedPass {
            kernels: &ks,
            records: &records,
            cfg: &tiny,
            size: Size::Tiny,
            span_tree: &span_tree,
        };
        layer_metrics(m, &rec, &pass, o);
        // The daemon's own cache counters replace the probe store's.
        let inspect = control
            .roundtrip(|id| Request::Inspect { id, key: None })
            .map_err(io("inspect failed"))?;
        let n = |k: &str| inspect.get_num(k).unwrap_or(0) as f64;
        let hits = n("hot_hits") + n("cold_hits");
        set(
            m,
            "sim.cache.hit_ratio",
            ratio(hits, hits + n("cold_misses")),
        );
        set(
            m,
            "sim.cache.evictions",
            n("hot_evictions") + n("cold_evictions"),
        );

        let path = o.out_dir.join(format!("{}.trace.json", w.name));
        std::fs::write(&path, rec.to_json(w.name))
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        out.note("trace_file", path.display().to_string());
    } else {
        // In the closed loop a request is due when it is sent, so the
        // achieved rate is the capacity.
        let capacity = achieved_rps(&samples[1]);
        set(m, "setup_s", median(&setup_s));
        set(m, "peak_rss_mb", daemon.peak_rss_mb().unwrap_or(0.0));
        set(m, "wall_s", batch_wall_s(&samples[1]));
        // Simulated work per request averaged over the key set, not over
        // the keys this seed happened to draw: the numerator repeats exactly.
        set(
            m,
            "sim_muops_per_s",
            key_uops / keys.len() as f64 * capacity / 1e6,
        );
        set(m, "lat_p50_ms", percentile(&open, 0.5));
        set(m, "lat_p99_ms", t.value);
        set(m, "capacity_rps", capacity);
        let offered = samples[0].len() as f64 / (o.seconds * OPEN_SHARE);
        let achieved = achieved_rps(&samples[0]);
        out.note("load", format!("offered {offered:.2} rps, achieved {achieved:.2} rps, lateness p99 {lateness:.0} us"));
    }
    Ok(out)
}
