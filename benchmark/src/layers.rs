//! Per-layer figures derived from simulated results: counts that repeat
//! exactly (they come from `RunResult`), simulated-time figures, and the
//! estimated share of `core.run` host time each probed layer explains.

use crate::stats::clamp_shares;
use near_stream::{ExecMode, RunResult};
use nsc_bench::geomean;
use std::collections::BTreeMap;

/// Metric name -> value, filled by the workload drivers and the probes.
pub type Metrics = BTreeMap<String, f64>;

/// Sets `name` in `m`.
pub fn set(m: &mut Metrics, name: &str, value: f64) {
    m.insert(name.to_owned(), if value.is_finite() { value } else { 0.0 });
}

/// `num / den`, or 0 when there is nothing to divide by.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// One simulated result with the kernel and mode that produced it.
pub struct RunView<'a> {
    /// Table VI kernel name.
    pub kernel: &'a str,
    /// Execution mode.
    pub mode: ExecMode,
    /// The simulated statistics.
    pub result: &'a RunResult,
}

/// Summed memory-path counts of a set of runs, for [`est_shares`].
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Counts {
    /// NoC messages.
    pub messages: f64,
    /// Demand accesses (every one pays the L1 path).
    pub demand: f64,
    /// Demand accesses that missed L2 and went to an L3 bank.
    pub demand_l3: f64,
    /// L3 accesses made at the bank by stream engines (all L3 accesses
    /// that are neither demand nor prefetch).
    pub stream_l3: f64,
    /// DRAM line accesses.
    pub dram: f64,
    /// Atomics executed at L3 banks.
    pub atomics: f64,
}

/// Counts and simulated-time figures over one set of runs (each
/// (kernel, mode) once). Exact: two commits with the same model print
/// the same numbers. The simulated speed-ups are unvalidated on these
/// kernel subsets (the repo holds only the paper's 14-kernel full-scale
/// geomeans), so no error figure accompanies them.
pub fn simulated(m: &mut Metrics, runs: &[RunView<'_>]) -> Counts {
    let sum = |f: &dyn Fn(&RunResult) -> f64| runs.iter().map(|r| f(r.result)).sum::<f64>();
    let counts = Counts {
        messages: sum(&|r| r.traffic.messages as f64),
        demand: sum(&|r| (r.mem.l1_hits + r.mem.l1_misses) as f64),
        demand_l3: sum(&|r| r.mem.l2_misses as f64),
        stream_l3: sum(&|r| {
            (r.mem.l3_hits + r.mem.l3_misses).saturating_sub(r.mem.l2_misses + r.mem.prefetch_fills)
                as f64
        }),
        dram: sum(&|r| r.dram_accesses as f64),
        atomics: sum(&|r| r.mem.l3_atomics as f64),
    };
    set(m, "noc.messages", counts.messages);
    set(m, "noc.byte_hops", sum(&|r| r.traffic.total() as f64));
    set(m, "mem.l1_accesses", counts.demand);
    set(
        m,
        "mem.l3_accesses",
        sum(&|r| (r.mem.l3_hits + r.mem.l3_misses) as f64),
    );
    set(m, "mem.dram_accesses", counts.dram);
    let locks = sum(&|r| r.lock_acquisitions as f64);
    set(m, "mem.lock_acquisitions", locks);
    set(
        m,
        "mem.lock_conflict_ratio",
        ratio(sum(&|r| r.lock_conflicts as f64), locks),
    );
    set(m, "core.alias_flushes", sum(&|r| r.alias_flushes as f64));

    let of = |mode: ExecMode| runs.iter().filter(move |r| r.mode == mode);
    set(
        m,
        "core.cycles.base",
        of(ExecMode::Base).map(|r| r.result.cycles as f64).sum(),
    );
    set(
        m,
        "core.cycles.ns",
        of(ExecMode::Ns).map(|r| r.result.cycles as f64).sum(),
    );
    set(
        m,
        "core.offloaded_ratio",
        ratio(
            of(ExecMode::Ns)
                .map(|r| r.result.offloaded_elems as f64)
                .sum(),
            of(ExecMode::Ns).map(|r| r.result.stream_elems as f64).sum(),
        ),
    );
    // Base/NS pairs per kernel.
    let pairs: Vec<(&RunResult, &RunResult)> = of(ExecMode::Ns)
        .filter_map(|ns| {
            of(ExecMode::Base)
                .find(|b| b.kernel == ns.kernel)
                .map(|b| (b.result, ns.result))
        })
        .collect();
    let speedups: Vec<f64> = pairs.iter().map(|(b, ns)| ns.speedup_over(b)).collect();
    set(
        m,
        "core.ns_speedup_geomean_x",
        if speedups.is_empty() {
            0.0
        } else {
            geomean(&speedups)
        },
    );
    let (tb, tn) = pairs.iter().fold((0.0, 0.0), |(tb, tn), (b, ns)| {
        (
            tb + b.traffic.total() as f64,
            tn + ns.traffic.total() as f64,
        )
    });
    set(
        m,
        "core.traffic_reduction_pct",
        if tb > 0.0 {
            100.0 * (1.0 - tn / tb)
        } else {
            0.0
        },
    );
    counts
}

/// Host-time shares of `run_wall_ns` (summed `core.run` time) that the
/// probed per-op costs explain, from the runs' own counts: every demand
/// access at the L1-hit cost, plus the extra cost of the ones that went
/// to L3 and to DRAM, plus stream accesses and atomics at the bank. The
/// `mem` probes drive a mesh themselves, so the two estimates overlap;
/// they are clamped to sum to at most one, and what is left (engine
/// dispatch, range-sync, prefetching, everything not reachable from
/// outside) is reported as `core.engine.residual_share`.
pub fn est_shares(m: &mut Metrics, c: &Counts, run_wall_ns: f64) {
    let get = |name: &str| m.get(name).copied().unwrap_or(0.0);
    let l1 = get("mem.access.l1_hit_ns");
    let noc = get("noc.send.ns_per_msg") * c.messages;
    let mem = l1 * c.demand
        + (get("mem.access.l3_hit_ns") - l1).max(0.0) * c.demand_l3
        + (get("mem.access.dram_ns") - get("mem.access.l3_hit_ns")).max(0.0) * c.dram
        + get("mem.l3_stream.ns_per_op") * c.stream_l3
        + get("mem.l3_atomic.ns_per_op") * c.atomics;
    let (shares, residual) = clamp_shares(&[ratio(noc, run_wall_ns), ratio(mem, run_wall_ns)]);
    set(m, "noc.est_share", shares[0]);
    set(m, "mem.est_share", shares[1]);
    set(
        m,
        "core.engine.residual_share",
        if run_wall_ns > 0.0 { residual } else { 0.0 },
    );
}
