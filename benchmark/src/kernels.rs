//! The simulator call chain, timed from outside:
//! `workloads.generate -> compiler.compile -> ir.golden` at set-up and
//! `core.key -> core.run -> workloads.digest -> core.encode` per run.
//! "Kernel" here is a paper Table VI program from `nsc_workloads`.

use crate::span::Recorder;
use near_stream::request::encode;
use near_stream::{ExecMode, RunResult, SystemConfig};
use nsc_bench::Prepared;
use nsc_sim::fault::FaultStats;
use nsc_sim::metrics::{self, Registry};
use nsc_sim::rng::Rng;
use nsc_workloads::{Size, Workload};
use std::hint::black_box;
use std::time::Instant;

/// The generator of the Table VI kernel called `name`.
pub fn generator(name: &str) -> Option<fn(Size) -> Workload> {
    use nsc_workloads as w;
    let gens: [fn(Size) -> Workload; 14] = [
        w::pathfinder,
        w::srad,
        w::hotspot,
        w::hotspot3d,
        w::histogram,
        w::scluster,
        w::svm,
        w::bfs_push,
        w::pr_push,
        w::sssp,
        w::bfs_pull,
        w::pr_pull,
        w::bin_tree,
        w::hash_join,
    ];
    w::names().iter().position(|n| *n == name).map(|i| gens[i])
}

/// A kernel ready to run: generated, compiled, with its golden digest.
pub struct Kernel {
    /// The generated program and its compilation.
    pub prepared: Prepared,
    /// Digest of the sequential functional run every mode must match.
    pub golden: u64,
}

impl Kernel {
    /// The kernel's Table VI name.
    pub fn name(&self) -> &'static str {
        self.prepared.workload.name
    }
}

/// Generates, compiles and digests each named kernel at `size`.
///
/// # Panics
///
/// Panics on a name that is not a Table VI kernel (the names are
/// constants of this benchmark).
pub fn setup(rec: &mut Recorder, size: Size, names: &[&str]) -> Vec<Kernel> {
    names
        .iter()
        .enumerate()
        .map(|(i, name)| {
            let id = i as u64;
            let gen = generator(name).unwrap_or_else(|| panic!("unknown kernel {name:?}"));
            let workload = rec.time("workloads.generate", id, |_| gen(size));
            let prepared = rec.time("compiler.compile", id, |_| nsc_bench::prepare(workload));
            let golden = rec.time("ir.golden", id, |_| prepared.workload.golden_digest());
            Kernel { prepared, golden }
        })
        .collect()
}

/// One simulated run and what was checked about it.
pub struct RunRecord {
    /// Index into the kernel list.
    pub kernel: usize,
    /// Execution mode.
    pub mode: ExecMode,
    /// Host nanoseconds inside `RunRequest::run()`.
    pub wall_ns: u64,
    /// The run's simulated statistics.
    pub result: RunResult,
    /// The result's cache record; every deterministic counter is in it.
    pub blob: String,
    /// Whether the final memory matched the golden digest.
    pub digest_ok: bool,
    /// Simulator events counted by the metrics registry (traced runs).
    pub events: u64,
}

/// Runs `kernel` under `mode`. Only `RunRequest::run()` is inside the
/// timed interval; the digest check and the encode follow it. A traced
/// run also times `core.key` and arms the metrics registry for the run.
pub fn run_one(
    rec: &mut Recorder,
    kernels: &[Kernel],
    kernel: usize,
    mode: ExecMode,
    cfg: &SystemConfig,
    id: u64,
) -> RunRecord {
    let k = &kernels[kernel];
    let req = k.prepared.request(mode, cfg);
    let traced = rec.on();
    rec.time("sim.run", id, |rec| {
        if traced {
            rec.time("core.key", id, |_| black_box(req.key()));
            metrics::install(Registry::new());
        }
        let t0 = Instant::now();
        let (result, mem) = rec.time("core.run", id, |_| req.run());
        let wall_ns = t0.elapsed().as_nanos() as u64;
        let events = metrics::uninstall().map_or(0, |reg| reg.prof_total().0);
        let digest = rec.time("workloads.digest", id, |_| k.prepared.workload.digest(&mem));
        let blob = rec.time("core.encode", id, |_| {
            encode(&result, &FaultStats::default())
        });
        RunRecord {
            kernel,
            mode,
            wall_ns,
            result,
            blob,
            digest_ok: digest == k.golden,
            events,
        }
    })
}

/// Every (kernel, mode) pair in canonical order.
pub fn pairs(n_kernels: usize, modes: &[ExecMode]) -> Vec<(usize, ExecMode)> {
    (0..n_kernels)
        .flat_map(|k| modes.iter().map(move |m| (k, *m)))
        .collect()
}

/// Fisher-Yates shuffle driven by `rng`: a pure function of the seed.
pub fn shuffle<T>(items: &mut [T], rng: &mut Rng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range_usize(i + 1));
    }
}

/// Hash of every deterministic counter of a workload: the cache records
/// of its runs, folded in canonical (unshuffled) order.
pub fn sim_digest<'a>(records: impl IntoIterator<Item = (&'a str, ExecMode, &'a str)>) -> String {
    let mut d = nsc_sim::cache::Digest::new("nsc-benchmark-sim-digest-v1");
    for (kernel, mode, blob) in records {
        d.str(kernel);
        d.str(mode.label());
        d.str(blob);
    }
    d.finish().hex()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_table_vi_kernel_has_a_generator() {
        for name in nsc_workloads::names() {
            assert_eq!(generator(name).unwrap()(Size::Tiny).name, name);
        }
        assert!(generator("nope").is_none());
    }

    #[test]
    fn shuffle_is_a_pure_function_of_the_seed() {
        let order = |seed| {
            let mut v: Vec<u32> = (0..12).collect();
            shuffle(&mut v, &mut Rng::seed_from_u64(seed));
            v
        };
        assert_eq!(order(7), order(7));
        assert_ne!(order(7), order(8));
        let mut sorted = order(7);
        sorted.sort_unstable();
        assert_eq!(sorted, (0..12).collect::<Vec<_>>());
    }

    #[test]
    fn a_tiny_run_matches_its_golden_digest_and_repeats_exactly() {
        let mut rec = Recorder::new(false);
        let ks = setup(&mut rec, Size::Tiny, &["histogram"]);
        let cfg = nsc_bench::system_for(Size::Tiny);
        let a = run_one(&mut rec, &ks, 0, ExecMode::Ns, &cfg, 0);
        let b = run_one(&mut rec, &ks, 0, ExecMode::Ns, &cfg, 1);
        assert!(a.digest_ok && b.digest_ok);
        assert_eq!(a.blob, b.blob);
        let d = |r: &RunRecord| sim_digest([("histogram", r.mode, r.blob.as_str())]);
        assert_eq!(d(&a), d(&b));
    }
}
