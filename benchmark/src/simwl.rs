//! The simulator workloads: in-process `RunRequest::run()` over a fixed
//! set of Table VI kernels and modes, one thread, result cache disarmed,
//! all telemetry off (the traced run arms the metrics registry).

use crate::kernels::{self, Kernel, RunRecord};
use crate::layers::{self, ratio, set, Metrics, RunView};
use crate::load::{daemon_name, DAEMON_SPANS};
use crate::probes::{self, TracedPass};
use crate::span::Recorder;
use crate::stats::{median, sorted, tail};
use crate::{env, Opts, Outcome};
use near_stream::{ExecMode, SystemConfig};
use nsc_sim::rng::Rng;
use nsc_workloads::Size;
use std::time::Instant;

/// Times set-up is repeated; `setup_s` is the median.
pub const SETUP_ROUNDS: usize = 3;
/// Fewest timed passes of a simulator workload.
const MIN_PASSES: usize = 3;

/// A simulator workload: every kernel under every mode, once per pass.
pub struct SimWorkload {
    /// Workload name in `BENCHMARK.json`.
    pub name: &'static str,
    /// Table VI kernels.
    pub kernels: &'static [&'static str],
    /// Execution modes.
    pub modes: &'static [ExecMode],
}

const MODES: &[ExecMode] = &[ExecMode::Base, ExecMode::Ns, ExecMode::NsDecouple];

/// The two simulator workloads (see README.md for why each exists).
pub const WORKLOADS: [SimWorkload; 2] = [
    SimWorkload {
        name: "sim_affine",
        kernels: &["pathfinder", "srad", "hotspot3D"],
        modes: MODES,
    },
    SimWorkload {
        name: "sim_irregular",
        kernels: &["bfs_push", "sssp", "bin_tree", "hash_join"],
        modes: MODES,
    },
];

fn ms(ns: f64) -> f64 {
    ns / 1e6
}

/// One pass: every (kernel, mode) of `order` once. Run ids continue from
/// `first_id`.
fn pass(
    rec: &mut Recorder,
    ks: &[Kernel],
    order: &[(usize, ExecMode)],
    cfg: &SystemConfig,
    first_id: u64,
) -> Vec<RunRecord> {
    order
        .iter()
        .enumerate()
        .map(|(i, &(k, mode))| kernels::run_one(rec, ks, k, mode, cfg, first_id + i as u64))
        .collect()
}

fn wall_ns(records: &[RunRecord]) -> f64 {
    records.iter().map(|r| r.wall_ns as f64).sum()
}

/// Canonical-order digest of a pass's deterministic counters.
fn digest_of(ks: &[Kernel], order: &[(usize, ExecMode)], records: &[RunRecord]) -> String {
    let mut idx: Vec<usize> = (0..records.len()).collect();
    idx.sort_by_key(|&i| {
        (
            order[i].0,
            ExecMode::ALL.iter().position(|m| *m == order[i].1),
        )
    });
    kernels::sim_digest(idx.iter().map(|&i| {
        (
            ks[records[i].kernel].name(),
            records[i].mode,
            records[i].blob.as_str(),
        )
    }))
}

/// The layer metrics every traced run reports, from one traced pass (its
/// spans are in `rec`) plus the direct-call probes.
pub fn layer_metrics(m: &mut Metrics, rec: &Recorder, pass: &TracedPass<'_>, o: &Opts) {
    let (ks, records) = (pass.kernels, pass.records);
    let med = |name: &str| median(&rec.durations(name));
    set(m, "workloads.generate.ms", ms(med("workloads.generate")));
    set(m, "compiler.compile.ms", ms(med("compiler.compile")));
    set(m, "ir.golden.ms", ms(med("ir.golden")));
    set(m, "core.key.us", med("core.key") / 1e3);
    set(m, "workloads.digest.ms", ms(med("workloads.digest")));
    set(m, "core.run.ms", ms(med("core.run")));
    let streams = ks
        .iter()
        .flat_map(|k| &k.prepared.compiled.kernels)
        .map(|ck| ck.streams.len() as f64);
    set(m, "compiler.streams", streams.sum());

    let run_ns = wall_ns(records);
    let events: f64 = records.iter().map(|r| r.events as f64).sum();
    let uops: f64 = records.iter().map(|r| r.result.total_uops).sum();
    set(m, "sim.events", events);
    set(m, "core.run.ns_per_event", ratio(run_ns, events));
    set(m, "core.run.ns_per_uop", ratio(run_ns, uops));

    let views: Vec<RunView<'_>> = records
        .iter()
        .map(|r| RunView {
            kernel: ks[r.kernel].name(),
            mode: r.mode,
            result: &r.result,
        })
        .collect();
    let counts = layers::simulated(m, &views);
    probes::run(m, pass, &o.run_dir, o.seed);
    layers::est_shares(m, &counts, run_ns);
}

/// A span tree as the daemon would render it, for the format probes of a
/// workload that never talks to a daemon.
pub fn sample_span_tree() -> String {
    let mut t = nsc_sim::span::SpanTrace::begin_at(0x0123_4567_89AB_CDEF, 0);
    for (i, span) in DAEMON_SPANS.into_iter().enumerate() {
        t.push(daemon_name(span), i as u64 * 100, i as u64 * 100 + 90);
    }
    t.finish().to_json()
}

/// Runs one simulator workload.
pub fn run(w: &SimWorkload, o: &Opts) -> Result<Outcome, String> {
    let size = Size::Small;
    let cfg = nsc_bench::system_for(size);
    let mut out = Outcome::default();
    let mut rec = Recorder::new(o.trace);

    // Set-up: generate, compile, golden-digest, and fix the run order.
    // Repeated so its time is a median; the traced run sets up once.
    let mut setup_s = Vec::new();
    let mut ready = None;
    for _ in 0..if o.trace { 1 } else { SETUP_ROUNDS } {
        let t = Instant::now();
        let ks = rec.time("setup", 0, |rec| kernels::setup(rec, size, w.kernels));
        let mut order = kernels::pairs(ks.len(), w.modes);
        kernels::shuffle(&mut order, &mut Rng::seed_from_u64(o.seed));
        setup_s.push(t.elapsed().as_secs_f64());
        ready = Some((ks, order));
    }
    let (ks, order) = ready.expect("set-up ran at least once");

    let mut untraced = Recorder::new(false);
    let mut passes: Vec<Vec<RunRecord>> = Vec::new();
    let t0 = Instant::now();
    if o.trace {
        // One untraced pass for the overhead baseline, one traced.
        passes.push(pass(&mut untraced, &ks, &order, &cfg, 0));
        passes.push(pass(&mut rec, &ks, &order, &cfg, order.len() as u64));
    } else {
        while passes.len() < MIN_PASSES || t0.elapsed().as_secs_f64() < o.seconds {
            let id = (passes.len() * order.len()) as u64;
            passes.push(pass(&mut untraced, &ks, &order, &cfg, id));
        }
    }

    // Correctness: every run matches its golden digest, and every repeat
    // of a (kernel, mode) reproduces the first pass's counters exactly.
    for p in &passes {
        for (r, first) in p.iter().zip(&passes[0]) {
            out.attempted += 1;
            if !r.digest_ok || r.blob != first.blob {
                out.failed += 1;
                eprintln!(
                    "benchmark: FAILED run {} {}: digest_ok={} repeats={}",
                    ks[r.kernel].name(),
                    r.mode.label(),
                    r.digest_ok,
                    r.blob == first.blob
                );
            }
        }
    }
    out.correct = out.failed == 0;
    out.note("sim_digest", digest_of(&ks, &order, &passes[0]));
    let uops: f64 = passes[0].iter().map(|r| r.result.total_uops).sum();
    out.note("sim_uops", format!("{uops}"));
    out.note("passes", passes.len().to_string());

    let m = &mut out.metrics;
    if o.trace {
        let (base, traced) = (wall_ns(&passes[0]), wall_ns(&passes[1]));
        set(m, "trace.overhead_pct", 100.0 * (traced / base - 1.0));
        let span_tree = sample_span_tree();
        let pass = TracedPass {
            kernels: &ks,
            records: &passes[1],
            cfg: &cfg,
            size,
            span_tree: &span_tree,
        };
        layer_metrics(m, &rec, &pass, o);
        let path = o.out_dir.join(format!("{}.trace.json", w.name));
        std::fs::write(&path, rec.to_json(w.name))
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        out.note("trace_file", path.display().to_string());
    } else {
        // Each run's wall time is its median over the passes, so a burst
        // of interference costs one sample of one run, not a whole pass.
        let walls: Vec<f64> = passes.iter().map(|p| wall_ns(p) / 1e9).collect();
        let wall_s: f64 = (0..order.len())
            .map(|i| {
                median(
                    &passes
                        .iter()
                        .map(|p| p[i].wall_ns as f64 / 1e9)
                        .collect::<Vec<_>>(),
                )
            })
            .sum();
        let runs = sorted(
            passes
                .iter()
                .flatten()
                .map(|r| ms(r.wall_ns as f64))
                .collect(),
        );
        let t = tail(&runs, 0.99);
        set(m, "setup_s", median(&setup_s));
        set(
            m,
            "peak_rss_mb",
            env::peak_rss_mb(std::process::id()).unwrap_or(0.0),
        );
        set(m, "wall_s", wall_s);
        set(m, "sim_muops_per_s", uops / 1e6 / wall_s);
        set(m, "lat_p50_ms", median(&runs));
        set(m, "lat_p99_ms", t.value);
        set(m, "capacity_rps", order.len() as f64 / wall_s);
        out.note(
            "lat_p99_quantile",
            format!(
                "{:.4} ({} runs, {} beyond)",
                t.quantile,
                runs.len(),
                t.beyond
            ),
        );
        out.note(
            "pass_wall_s",
            walls
                .iter()
                .map(|w| format!("{w:.3}"))
                .collect::<Vec<_>>()
                .join(" "),
        );
    }
    Ok(out)
}
