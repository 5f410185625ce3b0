//! Tier behavior of the result cache under byte budgets: forced hot- and
//! cold-tier evictions between passes must never change replayed record
//! bytes, and a shared store must be worker-count invariant. These tests
//! install a process configuration with the cache armed and drive
//! explicit tiny-budget [`TieredCache`] instances (never the
//! process-wide handle), so they live alone in their own test binary:
//! the configuration is process-wide and set once.

use near_stream::request::encode;
use near_stream::{ExecMode, RunRequest, SystemConfig};
use nsc_compiler::compile;
use nsc_ir::build::KernelBuilder;
use nsc_ir::{ElemType, Expr, Program};
use nsc_sim::cache::{CacheStore, Key, TieredCache};
use nsc_sim::config::{self, Config};
use nsc_sim::fault::FaultStats;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, Once};

/// Arms cache consultation before anything reads the configuration.
/// Every test calls this first; only the first call installs.
fn arm() {
    static ARM: Once = Once::new();
    ARM.call_once(|| config::install(Config { cache: true, ..Config::default() }));
}

fn fresh_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("nsc-tiers-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// A minimal one-kernel program; `imm` lands in an instruction
/// immediate, so each value yields a distinct cache key.
fn probe_program(imm: i64) -> Program {
    let mut p = Program::new("tier_probe");
    let a = p.array("a", ElemType::I64, 64);
    let out = p.array("out", ElemType::I64, 64);
    let mut k = KernelBuilder::new("k", 64);
    let i = k.outer_var();
    let v = k.load(a, Expr::var(i));
    k.store(out, Expr::var(i), Expr::var(v) + Expr::imm(imm));
    p.push_kernel(k.finish());
    p
}

/// Runs one request per `imm` through the cached path against `store`
/// and returns each result re-encoded in the record codec, so passes
/// can be compared byte-for-byte.
fn sweep_bytes(store: &TieredCache, imms: &[i64]) -> Vec<String> {
    imms.iter()
        .map(|&imm| {
            let p = probe_program(imm);
            let c = compile(&p);
            let cfg = SystemConfig::small();
            let r = RunRequest::new(&p)
                .compiled(&c)
                .mode(ExecMode::Ns)
                .config(&cfg)
                .try_run_cached_in(store)
                .expect("cached run");
            encode(&r, &FaultStats::default())
        })
        .collect()
}

/// Incompressible filler (random-looking hex): defeats the record
/// compressor so each filler store carries its full weight against the
/// cold tier's byte budget.
fn noise(len: usize, mut seed: u64) -> String {
    let mut s = String::with_capacity(len + 16);
    while s.len() < len {
        seed = seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        s.push_str(&format!("{seed:016x}"));
    }
    s.truncate(len);
    s
}

/// The core replay property: a warm pass over a budget-capped store must
/// reproduce the cold pass byte-for-byte even when filler stores evict
/// the sweep's records from both tiers in between. Evicted entries cost
/// a re-simulation, never a changed byte.
#[test]
fn budget_capped_tiers_replay_sweeps_byte_identically() {
    arm();
    let store = TieredCache::with_config(fresh_dir("replay"), 4096, 4096, true);
    let imms: Vec<i64> = (1..=6).collect();
    let cold = sweep_bytes(&store, &imms);

    for i in 0..4u64 {
        let key = Key::parse_hex(&format!("{i:032x}")).expect("filler key");
        store.store(&key, &noise(2048, i + 1)).expect("filler store");
    }
    let stats = store.stats();
    assert!(
        stats.cold.evictions > 0,
        "fillers must force cold-tier evictions: {stats:?}"
    );
    assert!(
        stats.hot.evictions > 0,
        "fillers must force hot-tier evictions: {stats:?}"
    );

    let warm = sweep_bytes(&store, &imms);
    assert_eq!(cold, warm, "eviction pressure changed a replayed record");
}

/// With room to spare, a doubly-warm sweep is answered entirely by the
/// in-memory hot tier: every lookup hits, nothing re-reads disk, and
/// the aggregate hit/miss split matches the legacy cold-only semantics.
#[test]
fn warm_sweep_is_served_from_the_hot_tier() {
    arm();
    let store = TieredCache::with_config(fresh_dir("hot"), 64 << 20, 0, false);
    let imms = [11, 12, 13];
    let cold = sweep_bytes(&store, &imms);
    store.reset_stats();
    let warm = sweep_bytes(&store, &imms);
    assert_eq!(cold, warm, "warm replay diverged from the cold run");
    let s = store.stats();
    assert_eq!(s.hot.hits, imms.len() as u64, "warm pass must hit hot: {s:?}");
    assert_eq!(s.hits(), imms.len() as u64);
    assert_eq!(s.misses(), 0, "a fully warm pass reports zero misses: {s:?}");
}

/// Runs the sweep with `jobs` workers racing over one shared store,
/// collecting results by submission index.
fn sweep_with_workers(dir: &Path, jobs: usize, imms: &[i64]) -> Vec<String> {
    let store = TieredCache::with_config(dir.to_path_buf(), 4096, 4096, true);
    let out: Vec<Mutex<Option<String>>> = imms.iter().map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..jobs {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= imms.len() {
                    break;
                }
                let p = probe_program(imms[i]);
                let c = compile(&p);
                let cfg = SystemConfig::small();
                let r = RunRequest::new(&p)
                    .compiled(&c)
                    .mode(ExecMode::Ns)
                    .config(&cfg)
                    .try_run_cached_in(&store)
                    .expect("cached run");
                *out[i].lock().unwrap() = Some(encode(&r, &FaultStats::default()));
            });
        }
    });
    out.into_iter()
        .map(|m| m.into_inner().unwrap().expect("every index ran"))
        .collect()
}

/// `NSC_JOBS`-style determinism: the same sweep through one worker and
/// through eight racing workers (each pass on a fresh tiny-budget store,
/// so admission/eviction interleaving differs wildly) yields identical
/// result bytes per request.
#[test]
fn shared_store_results_are_worker_count_invariant() {
    arm();
    let imms: Vec<i64> = (21..=28).collect();
    let serial = sweep_with_workers(&fresh_dir("jobs1"), 1, &imms);
    let racy = sweep_with_workers(&fresh_dir("jobs8"), 8, &imms);
    assert_eq!(serial, racy, "worker count leaked into replayed record bytes");
}
