//! Cross-crate correctness: every workload computes the same result under
//! every execution mode as the golden sequential interpreter — near-data
//! offloading must be functionally invisible (the paper's programmer
//! transparency claim).
//!
//! The same runs also pin the simulated counters exactly: each kernel's
//! encoded run records over all modes fold into one digest that must equal
//! the constant at its call site. Only a deliberate timing-model change may
//! move one; re-pin it to the hex the failing assertion prints.
//!
//! Every run executes the kernels' lowered bytecode; the tree walker is the
//! oracle it is checked against, kernel by kernel, at the `MemClient`
//! boundary.

use near_stream::request::encode;
use near_stream::{RunRequest, ExecMode, SystemConfig};
use nsc_compiler::compile;
use nsc_ir::interp::{self, ExecError, FunctionalClient};
use nsc_ir::program::{ArrayId, Field, StmtId};
use nsc_ir::types::{AtomicOp, Scalar};
use nsc_ir::{Kernel, MemClient, Memory};
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

/// One logged `MemClient` call, operands as bits (`(is_float, bits)`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Call {
    Load(StmtId, ArrayId, u64, Option<Field>),
    Store(StmtId, ArrayId, u64, Option<Field>, (bool, u64)),
    Atomic(StmtId, ArrayId, u64, Option<Field>, AtomicOp, (bool, u64), Option<(bool, u64)>),
}

fn bits(v: Scalar) -> (bool, u64) {
    match v {
        Scalar::I64(x) => (false, x as u64),
        Scalar::F64(x) => (true, x.to_bits()),
    }
}

/// Functional memory semantics plus a log of every call.
struct RecordingClient<'m> {
    inner: FunctionalClient<'m>,
    log: Vec<Call>,
}

impl MemClient for RecordingClient<'_> {
    fn load(&mut self, stmt: StmtId, array: ArrayId, index: u64, field: Option<Field>) -> Scalar {
        self.log.push(Call::Load(stmt, array, index, field));
        self.inner.load(stmt, array, index, field)
    }

    fn store(&mut self, stmt: StmtId, array: ArrayId, index: u64, field: Option<Field>, value: Scalar) {
        self.log.push(Call::Store(stmt, array, index, field, bits(value)));
        self.inner.store(stmt, array, index, field, value);
    }

    fn atomic(
        &mut self,
        stmt: StmtId,
        array: ArrayId,
        index: u64,
        field: Option<Field>,
        op: AtomicOp,
        operand: Scalar,
        expected: Option<Scalar>,
    ) -> Scalar {
        self.log.push(Call::Atomic(stmt, array, index, field, op, bits(operand), expected.map(bits)));
        self.inner.atomic(stmt, array, index, field, op, operand, expected)
    }
}

/// What one kernel run exposes: the client call log and the outer
/// reduction contribution of every iteration.
type Observed = (Vec<Call>, Vec<Option<(bool, u64)>>);

/// Runs every outer iteration of a kernel through `exec`, then writes
/// the reduction total the way the golden run does.
fn observe(
    kernel: &Kernel,
    params: &[Scalar],
    mem: &mut Memory,
    mut exec: impl FnMut(u64, &mut RecordingClient<'_>) -> Result<Option<Scalar>, ExecError>,
) -> Observed {
    let mut log = Vec::new();
    let mut contribs = Vec::new();
    let mut acc: Option<Scalar> = None;
    for i in 0..interp::outer_trip(kernel, params) {
        let mut client = RecordingClient { inner: FunctionalClient { mem }, log };
        let c = exec(i, &mut client).unwrap_or_else(|e| panic!("kernel {}: {e}", kernel.name));
        log = client.log;
        contribs.push(c.map(bits));
        if let (Some(r), Some(c)) = (&kernel.outer_reduction, c) {
            acc = Some(acc.map_or(c, |a| r.op.eval(a, c)));
        }
    }
    if let (Some(r), Some(total)) = (&kernel.outer_reduction, acc) {
        mem.write_index(r.target, 0, total);
    }
    (log, contribs)
}

fn memory_digest(mem: &Memory) -> String {
    let mut d = Digest::new("correctness-memory-image-v1");
    for a in 0..mem.n_arrays() {
        d.bytes(mem.raw(ArrayId(a as u32)));
    }
    d.finish().hex()
}

/// The tree walker is the reference semantics; the bytecode every run
/// executes must be indistinguishable from it on every Table VI kernel:
/// the same `MemClient` calls in the same order with the same operand
/// bits, the same reduction contributions, and the same final memory.
#[test]
fn bytecode_matches_tree_walker_on_every_kernel() {
    for w in nsc_workloads::all(Size::Tiny) {
        let compiled = compile(&w.program);
        let mut mem_tree = w.fresh_memory();
        let mut mem_code = w.fresh_memory();
        for (kernel, ck) in w.program.kernels.iter().zip(&compiled.kernels) {
            let mut locals = Vec::new();
            let (tree_log, tree_red) = observe(kernel, &w.params, &mut mem_tree, |i, client| {
                interp::exec_iteration(kernel, i, &w.params, client, &mut locals)
            });
            let code = ck.code();
            let mut regs = Vec::new();
            code.init_regs(&mut regs, &w.params);
            let (code_log, code_red) = observe(kernel, &w.params, &mut mem_code, |i, client| {
                code.exec_iteration(i, &w.params, client, &mut regs)
            });
            let at = format!("{} kernel {}", w.name, kernel.name);
            if let Some(n) = tree_log.iter().zip(&code_log).position(|(t, c)| t != c) {
                panic!("{at}: call {n} differs: tree {:?}, bytecode {:?}", tree_log[n], code_log[n]);
            }
            assert_eq!(tree_log.len(), code_log.len(), "{at}: call counts differ");
            assert!(!tree_log.is_empty(), "{at}: issued no memory calls");
            assert_eq!(tree_red, code_red, "{at}: reduction contributions differ");
            assert_eq!(memory_digest(&mem_tree), memory_digest(&mem_code), "{at}: memory differs");
        }
    }
}
