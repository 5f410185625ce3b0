//! Direct-call layer probes: host time per operation of each layer's
//! public entry points, measured from outside on seeded inputs shaped by
//! the workload's own configuration and kernels. Every figure is the
//! median of several timed batches.

use crate::kernels::{Kernel, RunRecord};
use crate::layers::{set, Metrics};
use crate::stats::median;
use near_stream::request::{decode, encode};
use near_stream::{ExecMode, RunResult, SystemConfig};
use nsc_compiler::{op_breakdown, run_with_counts};
use nsc_energy::EnergyModel;
use nsc_ir::interp::{self, FunctionalClient};
use nsc_ir::Scalar;
use nsc_mem::{AccessKind, Addr, MemorySystem, ServedBy, LINE_BYTES};
use nsc_noc::{Mesh, MsgClass, TileId};
use nsc_serve::{Request, Response};
use nsc_sim::cache::{CacheStore, Digest, Key, TieredCache};
use nsc_sim::fault::FaultStats;
use nsc_sim::pool::ThreadPool;
use nsc_sim::rng::Rng;
use nsc_sim::{pack, Cycle, EventQueue};
use nsc_workloads::Size;
use std::hint::black_box;
use std::path::Path;
use std::sync::mpsc;
use std::time::Instant;

/// Timed batches per probe; the median is reported.
const REPS: usize = 5;

/// Median over [`REPS`] batches of the nanoseconds `batch` takes,
/// divided by the `ops` it performs.
fn ns_per_op(ops: u64, mut batch: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..REPS)
        .map(|_| {
            let t = Instant::now();
            batch();
            t.elapsed().as_nanos() as f64 / ops as f64
        })
        .collect();
    median(&samples)
}

/// [`ns_per_op`] of a batch that calls `f` `calls` times: ns per call.
fn ns_per_call(calls: u64, mut f: impl FnMut()) -> f64 {
    ns_per_op(calls, || (0..calls).for_each(|_| f()))
}

/// `sim.queue.ns_per_op`: a hold-model storm on the calendar queue (pop
/// the earliest event, schedule a successor a seeded distance ahead).
fn queue(m: &mut Metrics, rng: &mut Rng) {
    const HELD: u64 = 4096;
    const OPS: u64 = 400_000;
    let deltas: Vec<u64> = (0..OPS).map(|_| 1 + rng.gen_range_u64(2000)).collect();
    let ns = ns_per_op(2 * OPS, || {
        let mut q = EventQueue::new();
        for i in 0..HELD {
            q.push(Cycle(i), i);
        }
        for d in &deltas {
            let (now, payload) = q.pop().expect("the queue holds events");
            q.push(now + *d, payload);
        }
        black_box(q.len());
    });
    set(m, "sim.queue.ns_per_op", ns);
}

/// `noc.send.ns_per_msg` / `noc.multicast.ns_per_msg` on the workload's
/// mesh, over a seeded source/destination/class/size stream.
fn noc(m: &mut Metrics, cfg: &SystemConfig, rng: &mut Rng) {
    const MSGS: usize = 200_000;
    let tiles = cfg.mesh.tiles();
    let tile = |rng: &mut Rng| TileId(rng.gen_range_u64(tiles as u64) as u16);
    let stream: Vec<(TileId, TileId, u64, MsgClass)> = (0..MSGS)
        .map(|_| {
            let class = MsgClass::ALL[rng.gen_range_usize(3)];
            let bytes = if rng.gen_bool() { 8 } else { LINE_BYTES };
            (tile(rng), tile(rng), bytes, class)
        })
        .collect();
    let ns = ns_per_op(MSGS as u64, || {
        let mut mesh = Mesh::new(cfg.mesh.clone());
        for (i, &(src, dst, bytes, class)) in stream.iter().enumerate() {
            black_box(mesh.send(Cycle(i as u64 / OPS_PER_CYCLE), src, dst, bytes, class));
        }
    });
    set(m, "noc.send.ns_per_msg", ns);

    let fanout: Vec<[TileId; 4]> = (0..MSGS / 4)
        .map(|_| [tile(rng), tile(rng), tile(rng), tile(rng)])
        .collect();
    let ns = ns_per_op(fanout.len() as u64, || {
        let mut mesh = Mesh::new(cfg.mesh.clone());
        for (i, (dsts, &(src, ..))) in fanout.iter().zip(&stream).enumerate() {
            black_box(mesh.multicast(Cycle(i as u64), src, dsts, 8, MsgClass::Control));
        }
    });
    set(m, "noc.multicast.ns_per_msg", ns);
}

/// Operations the memory and mesh probes issue per simulated cycle: the
/// kernels keep all cores busy, so model time advances far more slowly
/// than one dependent access chain would make it (and the bandwidth
/// ledgers cost more the further apart in time their bookings are).
const OPS_PER_CYCLE: u64 = 4;

/// Seeded line addresses: `n` lines drawn from a region of `region_lines`
/// lines starting at `base_line`, in random order so no stride shows.
fn random_lines(rng: &mut Rng, base_line: u64, region_lines: u64, n: usize) -> Vec<Addr> {
    (0..n)
        .map(|_| Addr((base_line + rng.gen_range_u64(region_lines)) * LINE_BYTES))
        .collect()
}

/// Median ns per access of the demand loads `timed`, issued round-robin
/// from every core, after an untimed pass over `warm` on a fresh memory
/// system; warns when fewer than four fifths of the timed accesses were
/// served by `want`.
fn demand(cfg: &SystemConfig, warm: &[Addr], timed: &[Addr], want: ServedBy) -> f64 {
    let cores = cfg.n_cores as usize;
    let samples: Vec<f64> = (0..REPS)
        .map(|_| {
            let mut mem = MemorySystem::new(cfg.mem);
            let mut mesh = Mesh::new(cfg.mesh.clone());
            let mut ops = 0u64;
            let mut tick = || {
                ops += 1;
                Cycle(ops / OPS_PER_CYCLE)
            };
            for (i, &a) in warm.iter().enumerate() {
                mem.access(tick(), (i % cores) as u16, a, AccessKind::Load, &mut mesh);
            }
            let mut served = 0usize;
            let t = Instant::now();
            for (i, &a) in timed.iter().enumerate() {
                let (_, by) = mem.access_classified(
                    tick(),
                    (i % cores) as u16,
                    a,
                    AccessKind::Load,
                    &mut mesh,
                );
                served += (by == want) as usize;
            }
            let ns = t.elapsed().as_nanos() as f64 / timed.len() as f64;
            if served * 5 < timed.len() * 4 {
                eprintln!(
                    "benchmark: warning: only {served}/{} probe accesses were served by {want:?}",
                    timed.len()
                );
            }
            ns
        })
        .collect();
    median(&samples)
}

/// `mem.*` probes: demand accesses resident in L1, in L3 and in DRAM,
/// near-data stream accesses and near-data atomics. The prefetchers are
/// off: on the probes' random lines they would fetch whole regions per
/// access, which no kernel's access pattern makes them do.
fn mem(m: &mut Metrics, cfg: &SystemConfig, rng: &mut Rng) {
    const N: usize = 120_000;
    let mut cfg = cfg.clone();
    cfg.mem.l1_spatial_prefetch = false;
    cfg.mem.l2_stride_prefetch = false;
    let cfg = &cfg;
    let (line, cores) = (LINE_BYTES, cfg.n_cores as u64);
    let l1_lines = (cfg.mem.l1.size_bytes / line / 2).max(1);
    let l3_lines = cfg.mem.l3_bank.size_bytes / line * cfg.mem.n_banks() as u64;

    // L1: access `i` comes from core `i % cores`; each core cycles over
    // half an L1 of lines of its own.
    let hot: Vec<Addr> = (0..N as u64)
        .map(|i| Addr(((i % cores) << 20) + (i / cores % l1_lines) * line))
        .collect();
    set(
        m,
        "mem.access.l1_hit_ns",
        demand(cfg, &hot[..(l1_lines * cores) as usize], &hot, ServedBy::L1),
    );
    // L3: random lines of a quarter of the L3, filled by the untimed pass
    // (which goes to DRAM) and timed on a second; a line rarely comes
    // back to the core that holds it privately.
    let region = random_lines(rng, 1 << 20, l3_lines / 4, N);
    set(
        m,
        "mem.access.l3_hit_ns",
        demand(cfg, &region, &region[N / 2..], ServedBy::L3),
    );
    // DRAM: lines never touched before, far apart.
    let fresh = random_lines(rng, 1 << 24, 1 << 30, N / 2);
    set(
        m,
        "mem.access.dram_ns",
        demand(cfg, &[], &fresh, ServedBy::Dram),
    );

    // Near-data stream loads over the L3-resident region.
    let samples: Vec<f64> = (0..REPS)
        .map(|_| {
            let mut mem = MemorySystem::new(cfg.mem);
            let mut mesh = Mesh::new(cfg.mesh.clone());
            for (i, &a) in region.iter().enumerate() {
                mem.l3_stream_access(
                    Cycle(i as u64 / OPS_PER_CYCLE),
                    a,
                    AccessKind::Load,
                    &mut mesh,
                );
            }
            let t = Instant::now();
            for (i, &a) in region.iter().enumerate() {
                black_box(mem.l3_stream_access(
                    Cycle((N + i) as u64 / OPS_PER_CYCLE),
                    a,
                    AccessKind::Load,
                    &mut mesh,
                ));
            }
            t.elapsed().as_nanos() as f64 / N as f64
        })
        .collect();
    set(m, "mem.l3_stream.ns_per_op", median(&samples));

    // Near-data atomics over a small footprint, so MRSW locks conflict.
    let atoms: Vec<(Addr, bool)> = (0..N)
        .map(|_| (Addr(rng.gen_range_u64(4096) * 8), rng.gen_bool()))
        .collect();
    let ns = ns_per_op(N as u64, || {
        let mut mem = MemorySystem::new(cfg.mem);
        let mut mesh = Mesh::new(cfg.mesh.clone());
        for (i, &(a, modifies)) in atoms.iter().enumerate() {
            black_box(mem.l3_atomic(Cycle(i as u64 / OPS_PER_CYCLE), a, modifies, &mut mesh));
        }
    });
    set(m, "mem.l3_atomic.ns_per_op", ns);
}

/// `ir.*` probes on the workload's real kernels: a functional run of
/// every kernel through the lowered bytecode and through the tree
/// walker, both divided by the same dynamic µop count (the compiler's
/// `op_breakdown` over the statement execution counts).
fn ir(m: &mut Metrics, kernels: &[Kernel]) {
    let (mut uops, mut stmts, mut tree_stmts) = (0.0, 0u64, 0u64);
    for k in kernels {
        let w = &k.prepared.workload;
        let mut mem = w.fresh_memory();
        let counts = run_with_counts(&w.program, &mut mem, &w.params);
        for (ck, counts) in k.prepared.compiled.kernels.iter().zip(&counts) {
            uops += op_breakdown(ck, counts).total;
        }
        for (kernel, ck) in w.program.kernels.iter().zip(&k.prepared.compiled.kernels) {
            kernel.for_each_stmt(&mut |_, _| stmts += 1);
            if let Some(plan) = &ck.plan {
                tree_stmts += plan.stats.tree_stmts as u64;
            }
        }
    }
    let functional = |bytecode: bool| {
        ns_per_op(1, || {
            for k in kernels {
                let w = &k.prepared.workload;
                let mut mem = w.fresh_memory();
                for (kernel, ck) in w.program.kernels.iter().zip(&k.prepared.compiled.kernels) {
                    let trip = interp::outer_trip(kernel, &w.params);
                    let mut regs: Vec<Scalar> = Vec::new();
                    let plan = ck.plan.as_ref().filter(|_| bytecode);
                    if let Some(code) = plan {
                        code.init_regs(&mut regs, &w.params);
                    }
                    for i in 0..trip {
                        let mut client = FunctionalClient { mem: &mut mem };
                        let r = match plan {
                            Some(code) => code.exec_iteration(i, &w.params, &mut client, &mut regs),
                            None => {
                                interp::exec_iteration(kernel, i, &w.params, &mut client, &mut regs)
                            }
                        };
                        black_box(r.expect("a Table VI kernel terminates"));
                    }
                }
            }
        })
    };
    // Both walks include generating the input memory; take it out.
    let fresh_ns = ns_per_op(1, || {
        for k in kernels {
            black_box(k.prepared.workload.fresh_memory());
        }
    });
    let per_uop = |total_ns: f64| {
        if uops > 0.0 {
            (total_ns - fresh_ns).max(0.0) / uops
        } else {
            0.0
        }
    };
    set(m, "ir.bytecode.ns_per_op", per_uop(functional(true)));
    set(m, "ir.tree.ns_per_node", per_uop(functional(false)));
    set(
        m,
        "ir.bytecode.lowered_ratio",
        if stmts > 0 {
            1.0 - tree_stmts as f64 / stmts as f64
        } else {
            0.0
        },
    );
}

fn synthetic_key(i: u64) -> Key {
    let mut d = Digest::new("nsc-benchmark-probe-key-v1");
    d.u64(i);
    d.finish()
}

fn us(ns: f64) -> f64 {
    ns / 1e3
}

/// `sim.cache.*`, `sim.pack.*`: the result cache's store and lookup
/// paths on a real record, hot and cold, plain and under the churn
/// workload's tiny compressed budgets; and the codec alone.
fn cache(m: &mut Metrics, scratch: &Path, blob: &str, rng: &mut Rng) {
    const KEYS: u64 = 112;
    let keys: Vec<Key> = (0..KEYS).map(synthetic_key).collect();
    let store_at = |name: &str, mem_bytes, disk_bytes, compress| {
        TieredCache::with_config(scratch.join(name), mem_bytes, disk_bytes, compress)
    };

    let roomy = store_at("probe-roomy", 64 << 20, 0, false);
    for k in &keys {
        roomy
            .store(k, blob)
            .expect("the probe cache directory is writable");
    }
    let ns = ns_per_op(20 * KEYS, || {
        for _ in 0..20 {
            for k in &keys {
                black_box(roomy.lookup(k));
            }
        }
    });
    set(m, "sim.cache.hot_get_us", us(ns));

    let diskonly = store_at("probe-diskonly", 0, 0, false);
    for k in &keys {
        diskonly
            .store(k, blob)
            .expect("the probe cache directory is writable");
    }
    let ns = ns_per_op(KEYS, || {
        for k in &keys {
            black_box(diskonly.lookup(k));
        }
    });
    set(m, "sim.cache.cold_get_us", us(ns));

    // The churn configuration: uniform traffic over more keys than fit,
    // storing on every miss, so puts compress and evict.
    let tight = store_at("probe-tight", 8 << 10, 16 << 10, true);
    let mut put_ns = Vec::new();
    for _ in 0..600 {
        let k = &keys[rng.gen_range_usize(keys.len())];
        if tight.lookup(k).is_none() {
            let t = Instant::now();
            tight
                .store(k, blob)
                .expect("the probe cache directory is writable");
            put_ns.push(t.elapsed().as_nanos() as f64);
        }
    }
    let st = tight.stats();
    set(m, "sim.cache.put_us", us(median(&put_ns)));
    set(
        m,
        "sim.cache.hit_ratio",
        st.hits() as f64 / (st.hits() + st.misses()).max(1) as f64,
    );
    set(
        m,
        "sim.cache.evictions",
        (st.hot.evictions + st.cold.evictions) as f64,
    );

    let raw = blob.as_bytes();
    let packed = pack::compress(raw);
    let mb = raw.len() as f64 / 1e6;
    let ns = ns_per_call(200, || {
        black_box(pack::compress(black_box(raw)));
    });
    set(m, "sim.pack.compress_mb_s", mb / (ns / 1e9));
    let ns = ns_per_call(200, || {
        black_box(pack::decompress(black_box(&packed)));
    });
    set(m, "sim.pack.decompress_mb_s", mb / (ns / 1e9));
}

/// `sim.pool.dispatch_us`: from `ThreadPool::spawn` to the job's first
/// instruction on an idle one-worker pool.
fn pool(m: &mut Metrics) {
    let pool = ThreadPool::new(1);
    let (tx, rx) = mpsc::channel();
    let samples: Vec<f64> = (0..2000)
        .map(|_| {
            let tx = tx.clone();
            let t = Instant::now();
            pool.spawn(move || tx.send(t.elapsed()).expect("the probe outlives its jobs"));
            rx.recv().expect("the pool runs every job").as_nanos() as f64
        })
        .collect();
    set(m, "sim.pool.dispatch_us", us(median(&samples)));
}

/// `sim.json.parse_mb_s`, `serve.request_parse.ns`,
/// `serve.response_render.ns`, `core.encode.us`, `core.decode.us`: the
/// text formats on the serving path, on a real record and span tree.
fn formats(m: &mut Metrics, result: &RunResult, span_tree: &str) {
    let blob = encode(result, &FaultStats::default());
    let ns = ns_per_call(500, || {
        black_box(encode(black_box(result), &FaultStats::default()));
    });
    set(m, "core.encode.us", us(ns));
    let ns = ns_per_call(500, || {
        black_box(decode(black_box(&blob)));
    });
    set(m, "core.decode.us", us(ns));

    let doc = nsc_sim::metrics::Registry::new().to_json();
    let ns = ns_per_call(50, || {
        black_box(
            nsc_sim::json::parse(black_box(&doc)).expect("a registry snapshot is valid JSON"),
        );
    });
    set(
        m,
        "sim.json.parse_mb_s",
        doc.len() as f64 / 1e6 / (ns / 1e9),
    );

    let line = Request::Run {
        id: 7,
        request_id: 0,
        workload: "hotspot3D".into(),
        size: Size::Tiny,
        mode: ExecMode::NsDecouple,
        deadline_ms: 0,
    }
    .render();
    let ns = ns_per_call(2000, || {
        black_box(Request::parse(black_box(&line)).expect("a rendered request parses"));
    });
    set(m, "serve.request_parse.ns", ns);
    let resp = Response::Run {
        id: 7,
        request_id: 0x0123_4567_89AB_CDEF,
        cached: true,
        deduped: false,
        workload: "hotspot3D".into(),
        mode: ExecMode::NsDecouple,
        cycles: result.cycles,
        blob,
        latency: Some(span_tree.to_owned()),
    };
    let ns = ns_per_call(500, || {
        black_box(black_box(&resp).render());
    });
    set(m, "serve.response_render.ns", ns);
}

/// `serve.execute.hit_us` / `serve.execute.miss_us`: the daemon's backend
/// called in process on a few tiny kernels, first with the process-wide
/// result cache purged (miss), then again (hit). Needs `NSC_CACHE=1` and
/// a private `NSC_CACHE_DIR` latched in this process.
fn execute(m: &mut Metrics) {
    let store = nsc_sim::cache::shared();
    let (mut hit, mut miss) = (Vec::new(), Vec::new());
    for _ in 0..REPS {
        store
            .purge()
            .expect("the probe cache directory is writable");
        for kernel in ["pathfinder", "histogram", "sssp"] {
            for mode in [ExecMode::Base, ExecMode::Ns] {
                for samples in [&mut miss, &mut hit] {
                    let t = Instant::now();
                    let out = nsc_serve::execute(kernel, Size::Tiny, mode)
                        .expect("a Table VI kernel runs");
                    samples.push(t.elapsed().as_nanos() as f64);
                    black_box(out);
                }
            }
        }
    }
    set(m, "serve.execute.hit_us", us(median(&hit)));
    set(m, "serve.execute.miss_us", us(median(&miss)));
}

/// `energy.*`: the energy model over the workload's Base/NS result pairs.
fn energy(m: &mut Metrics, pass: &TracedPass<'_>) {
    let model = EnergyModel::default();
    let (core, tiles) = (&pass.cfg.core, pass.cfg.mesh.tiles() as u32);
    let of = |kernel: usize, mode| {
        pass.records
            .iter()
            .find(|r| r.kernel == kernel && r.mode == mode)
            .map(|r| &r.result)
    };
    let pairs: Vec<(&RunResult, &RunResult)> = (0..pass.kernels.len())
        .filter_map(|k| Some((of(k, ExecMode::Base)?, of(k, ExecMode::Ns)?)))
        .collect();
    let sample = &pass.records[0].result;
    let ns = ns_per_call(100_000, || {
        black_box(model.evaluate(black_box(sample), core, tiles));
    });
    set(m, "energy.evaluate.us", us(ns));
    let gains: Vec<f64> = pairs
        .iter()
        .map(|(b, ns)| {
            model
                .evaluate(ns, core, tiles)
                .efficiency_gain_over(&model.evaluate(b, core, tiles))
        })
        .collect();
    set(
        m,
        "energy.ns_efficiency_gain_x",
        if gains.is_empty() {
            0.0
        } else {
            nsc_bench::geomean(&gains)
        },
    );
}

/// One traced pass of a workload: what the layer metrics and the probes
/// are derived from.
pub struct TracedPass<'a> {
    /// The workload's kernels (real expressions for the `ir` probes).
    pub kernels: &'a [Kernel],
    /// The traced runs over them, each (kernel, mode) once.
    pub records: &'a [RunRecord],
    /// The system they simulated.
    pub cfg: &'a SystemConfig,
    /// Input scale of `kernels`.
    pub size: Size,
    /// A span tree as the daemon renders it, for the format probes.
    pub span_tree: &'a str,
}

/// Runs every direct-call probe into `m`, on input streams seeded by
/// `seed`, with `scratch` as the cache probes' private directory.
pub fn run(m: &mut Metrics, pass: &TracedPass<'_>, scratch: &Path, seed: u64) {
    let mut rng = Rng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15);
    let sample = &pass.records[0].result;
    queue(m, &mut rng);
    noc(m, pass.cfg, &mut rng);
    mem(m, pass.cfg, &mut rng);
    ir(m, pass.kernels);
    cache(
        m,
        scratch,
        &encode(sample, &FaultStats::default()),
        &mut rng,
    );
    pool(m);
    formats(m, sample, pass.span_tree);
    execute(m);
    energy(m, pass);
    let ns = ns_per_op(1, || {
        black_box(nsc_workloads::all(pass.size));
    });
    set(m, "workloads.all.ms", ns / 1e6);
}
