//! Cross-crate correctness: every workload computes the same result under
//! every execution mode as the golden sequential interpreter — near-data
//! offloading must be functionally invisible (the paper's programmer
//! transparency claim).
//!
//! The same runs also pin the simulated counters exactly: each kernel's
//! encoded run records over all modes fold into one digest that must equal
//! the constant at its call site. Only a deliberate timing-model change may
//! move one; re-pin it to the hex the failing assertion prints.

use near_stream::request::encode;
use near_stream::{RunRequest, ExecMode, SystemConfig};
use nsc_compiler::compile;
use nsc_sim::cache::Digest;
use nsc_sim::fault::FaultStats;
use nsc_workloads::{Size, Workload};

fn check_all_modes(w: Workload, pinned: &str) {
    let compiled = compile(&w.program);
    let cfg = SystemConfig::small();
    let golden = w.golden_digest();
    let mut counters = Digest::new("correctness-sim-counters-v1");
    for mode in ExecMode::ALL {
        let (result, mem) = RunRequest::new(&w.program).compiled(&compiled).params(&w.params).mode(mode).config(&cfg).init(&w.init).run();
        assert_eq!(
            w.digest(&mem),
            golden,
            "{} under {mode:?} diverged from golden",
            w.name
        );
        assert!(result.cycles > 0, "{} under {mode:?} took zero time", w.name);
        assert!(
            result.total_uops > 0.0,
            "{} under {mode:?} executed nothing",
            w.name
        );
        counters.str(&encode(&result, &FaultStats::default()));
    }
    let hex = counters.finish().hex();
    assert_eq!(
        hex, pinned,
        "{}: simulated counters drifted from the pinned digest; if the model change \
         is deliberate, re-pin to \"{hex}\"",
        w.name
    );
}

#[test]
fn rodinia_stencils_match_golden_in_all_modes() {
    check_all_modes(nsc_workloads::pathfinder(Size::Tiny), "aaae973db51f6a8d6d115ddfa53c4fc1");
    check_all_modes(nsc_workloads::srad(Size::Tiny), "e52303807c611d1bab10e5dafea0b477");
    check_all_modes(nsc_workloads::hotspot(Size::Tiny), "d42db07b4d0e33d5325f97057a24d8ac");
    check_all_modes(nsc_workloads::hotspot3d(Size::Tiny), "cc2c8df6019fac351bee62354be23023");
}

#[test]
fn mining_kernels_match_golden_in_all_modes() {
    check_all_modes(nsc_workloads::histogram(Size::Tiny), "80e0254a1cec732f9a442910174a4e1a");
    check_all_modes(nsc_workloads::scluster(Size::Tiny), "a7013842a395334d1aa5bbc88c6c5488");
    check_all_modes(nsc_workloads::svm(Size::Tiny), "f4bc3c0bbac758c592f85fc6367d0d37");
}

#[test]
fn graph_push_kernels_match_golden_in_all_modes() {
    check_all_modes(nsc_workloads::bfs_push(Size::Tiny), "c71ad06634166f6075ae5b72a0b95665");
    check_all_modes(nsc_workloads::pr_push(Size::Tiny), "27d66df0498045fa2a907cb3de7cad18");
    check_all_modes(nsc_workloads::sssp(Size::Tiny), "cd7cdce68376b57b44a3cf5de90ff871");
}

#[test]
fn graph_pull_kernels_match_golden_in_all_modes() {
    check_all_modes(nsc_workloads::bfs_pull(Size::Tiny), "ab9c6611ce6e124eae294d52e8219c83");
    check_all_modes(nsc_workloads::pr_pull(Size::Tiny), "eed1574131e099cfcf615d39f74dc257");
}

#[test]
fn pointer_chase_kernels_match_golden_in_all_modes() {
    check_all_modes(nsc_workloads::bin_tree(Size::Tiny), "ae1fbe54edc9ea0f7a366583466e6232");
    check_all_modes(nsc_workloads::hash_join(Size::Tiny), "d09a6ff8ec3a61d88e2eded42937a37a");
}

#[test]
fn results_are_independent_of_core_count() {
    // The same workload on 16 vs 64 cores (different interleavings and
    // chunkings) must still match golden.
    let w = nsc_workloads::pr_push(Size::Tiny);
    let compiled = compile(&w.program);
    let golden = w.golden_digest();
    for cfg in [SystemConfig::small(), SystemConfig::paper_ooo8()] {
        let (_, mem) = RunRequest::new(&w.program).compiled(&compiled).params(&w.params).mode(ExecMode::Ns).config(&cfg).init(&w.init).run();
        assert_eq!(w.digest(&mem), golden);
    }
}

#[test]
fn results_are_independent_of_se_parameters() {
    let w = nsc_workloads::sssp(Size::Tiny);
    let compiled = compile(&w.program);
    let golden = w.golden_digest();
    for (lat, rob, pe, mrsw) in [(1u64, 8u32, false, false), (16, 64, true, true)] {
        let mut cfg = SystemConfig::small();
        cfg.se.scm_issue_latency = lat;
        cfg.se.scc_rob = rob;
        cfg.se.scalar_pe = pe;
        cfg.mem.mrsw_lock = mrsw;
        let (_, mem) = RunRequest::new(&w.program).compiled(&compiled).params(&w.params).mode(ExecMode::NsDecouple).config(&cfg).init(&w.init).run();
        assert_eq!(w.digest(&mem), golden, "SE params changed the result");
    }
}
