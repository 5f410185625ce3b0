//! The near-stream compiler: stream recognition and computation assignment
//! over the `nsc-ir` loop-nest IR (paper §III-B).
//!
//! The compiler runs five passes per kernel:
//!
//! 1. **Analysis** ([`analysis`]): one walk collecting definition sites,
//!    memory-access sites with loop context, and per-body compute µops.
//! 2. **Classification** ([`classify`]): each access's index expression is
//!    matched as affine (including the nested-stream form of Fig 4d),
//!    indirect, or pointer-chasing.
//! 3. **Assignment** ([`assign`]): computations move onto streams —
//!    reductions (loop-carried associative accumulators), store/atomic
//!    operand slices with multi-operand value dependences, RMW merges, and
//!    narrowing load closures.
//! 4. **Cost attribution** ([`cost`]): residual core work is distributed
//!    over accesses so the timing models can charge it per event.
//! 5. **Lowering**: the kernel's expression trees become register
//!    bytecode ([`nsc_ir::bytecode`]), the one form every run executes.
//!
//! # Examples
//!
//! ```
//! use nsc_compiler::compile;
//! use nsc_ir::build::KernelBuilder;
//! use nsc_ir::{ElemType, Expr, Program};
//! use nsc_ir::stream::ComputeClass;
//!
//! let mut p = Program::new("memset");
//! let a = p.array("a", ElemType::I64, 1024);
//! let mut k = KernelBuilder::new("set", 1024);
//! let i = k.outer_var();
//! k.store(a, Expr::var(i), Expr::imm(0));
//! p.push_kernel(k.finish());
//!
//! let compiled = compile(&p);
//! assert_eq!(compiled.kernels[0].streams.len(), 1);
//! assert_eq!(compiled.kernels[0].streams[0].role, ComputeClass::Store);
//! ```

pub mod analysis;
pub mod assign;
pub mod classify;
pub mod cost;
pub mod stats;

use nsc_ir::bytecode::KernelCode;
use nsc_ir::program::{Program, StmtId};
use nsc_ir::stream::{AddrPatternClass, StreamId, StreamInfo};
use nsc_ir::ElemType;
use std::collections::HashMap;
use std::sync::Arc;

pub use assign::MAX_STREAMS;
pub use cost::SiteCost;
pub use stats::{op_breakdown, run_with_counts, OpBreakdown};

/// Compiler output for one kernel.
#[derive(Clone, Debug)]
pub struct CompiledKernel {
    /// Kernel name (copied for reporting).
    pub name: String,
    /// Recognized streams, id-ordered.
    pub streams: Vec<StreamInfo>,
    /// Memory statement → serving stream.
    pub stmt_stream: HashMap<StmtId, StreamId>,
    /// Per-stream offload legality (paper §II-B eligibility rules).
    pub offloadable: Vec<bool>,
    /// Per-access core-cost attribution.
    pub site_costs: HashMap<StmtId, SiteCost>,
    /// Dense per-statement cost table (indexed by `StmtId`), for hot-path
    /// lookups in the timing engines.
    pub site_cost_vec: Vec<SiteCost>,
    /// Dense per-statement stream table (indexed by `StmtId`).
    pub stream_vec: Vec<Option<StreamId>>,
    /// `s_sync_free` pragma present.
    pub sync_free: bool,
    /// The kernel's inner work is fully captured by streams, enabling the
    /// fully-decoupled-loop optimization (paper §V, Figure 8).
    pub fully_decoupled: bool,
    /// AVX-512-style vectorization factor for the core's execution of this
    /// kernel (1 = scalar).
    pub vector_width: u32,
    /// Execution plan: the kernel lowered to register bytecode. Always
    /// `Some` (read it through [`code`](CompiledKernel::code)); the
    /// `Option` survives only for external callers that still match on it.
    /// Excluded from the `RunRequest` digest because it is a pure function
    /// of the kernel, which the digest already covers.
    pub plan: Option<Arc<KernelCode>>,
}

impl CompiledKernel {
    /// The kernel's lowered bytecode, the form every run executes.
    pub fn code(&self) -> &KernelCode {
        self.plan.as_deref().expect("compile() lowers every kernel")
    }

    /// The stream serving `stmt`, if any.
    pub fn stream_of(&self, stmt: StmtId) -> Option<&StreamInfo> {
        self.stmt_stream.get(&stmt).map(|id| &self.streams[id.0 as usize])
    }

    /// Whether the stream with `id` may be offloaded.
    pub fn is_offloadable(&self, id: StreamId) -> bool {
        self.offloadable.get(id.0 as usize).copied().unwrap_or(false)
    }
}

/// Compiler output for a whole program.
#[derive(Clone, Debug)]
pub struct CompiledProgram {
    /// One entry per kernel, in program order.
    pub kernels: Vec<CompiledKernel>,
}

/// Compiles every kernel of a program.
///
/// # Panics
///
/// Panics if the program fails validation.
pub fn compile(program: &Program) -> CompiledProgram {
    if let Err(e) = program.validate() {
        panic!("invalid program {}: {e}", program.name);
    }
    let kernels = program
        .kernels
        .iter()
        .map(|k| {
            let an = analysis::analyze(k);
            let asg = assign::assign_streams(program, k, &an);
            let site_costs = cost::site_costs(&an, &asg);

            // Fully-decoupled-loop legality (paper §V): sync-free pragma
            // plus every memory access captured by a stream.
            let all_streamed = an.sites.iter().all(|s| asg.stmt_stream.contains_key(&s.stmt));
            let fully_decoupled = k.sync_free && all_streamed && !asg.streams.is_empty();

            // Vectorization: flat affine kernels over scalar elements.
            let vectorizable = !an.sites.is_empty()
                && an.sites.iter().all(|s| {
                    matches!(
                        asg.stream_of(s.stmt).map(|st| st.pattern),
                        Some(AddrPatternClass::Affine { .. })
                    ) && !s.conditional
                })
                && an.bodies.iter().all(|b| !b.is_while);
            let vector_width = if vectorizable {
                let max_bytes = an
                    .sites
                    .iter()
                    .map(|s| {
                        s.field
                            .map(|f| f.ty.bytes())
                            .unwrap_or_else(|| program.decl(s.array).elem.bytes())
                    })
                    .max()
                    .unwrap_or(8);
                if matches!(program.decl(an.sites[0].array).elem, ElemType::Record(_)) {
                    1
                } else {
                    (64 / max_bytes as u32).clamp(1, 16)
                }
            } else {
                1
            };

            let mut site_cost_vec = vec![SiteCost::default(); k.n_stmts as usize];
            for (id, c) in &site_costs {
                site_cost_vec[id.0 as usize] = *c;
            }
            let mut stream_vec = vec![None; k.n_stmts as usize];
            for (id, s) in &asg.stmt_stream {
                stream_vec[id.0 as usize] = Some(*s);
            }
            CompiledKernel {
                name: k.name.clone(),
                streams: asg.streams,
                stmt_stream: asg.stmt_stream,
                offloadable: asg.offloadable,
                site_costs,
                site_cost_vec,
                stream_vec,
                sync_free: k.sync_free,
                fully_decoupled,
                vector_width,
                plan: Some(Arc::new(KernelCode::compile(k))),
            }
        })
        .collect();
    CompiledProgram { kernels }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nsc_ir::build::KernelBuilder;
    use nsc_ir::program::Trip;
    use nsc_ir::stream::ComputeClass;
    use nsc_ir::{AtomicOp, Expr};

    #[test]
    fn stencil_kernel_compiles_to_multiop_store() {
        let mut p = Program::new("stencil");
        let src = p.array("src", ElemType::F32, 1024);
        let dst = p.array("dst", ElemType::F32, 1024);
        let mut k = KernelBuilder::new("k", 1022);
        let i = k.outer_var();
        let l = k.load(src, Expr::var(i));
        let m = k.load(src, Expr::var(i) + Expr::imm(1));
        let r = k.load(src, Expr::var(i) + Expr::imm(2));
        k.store(
            dst,
            Expr::var(i) + Expr::imm(1),
            Expr::min(Expr::var(l), Expr::min(Expr::var(m), Expr::var(r))),
        );
        p.push_kernel(k.finish());
        let c = compile(&p);
        let ck = &c.kernels[0];
        assert_eq!(ck.streams.len(), 4);
        let store = ck.streams.iter().find(|s| s.role == ComputeClass::Store).unwrap();
        assert_eq!(store.value_deps.len(), 3);
        assert_eq!(ck.vector_width, 16); // f32 with AVX-512
    }

    #[test]
    fn graph_push_kernel_compiles_to_indirect_atomic() {
        let mut p = Program::new("push");
        let row = p.array("row", ElemType::I64, 17);
        let col = p.array("col", ElemType::I64, 64);
        let score = p.array("score", ElemType::I64, 16);
        let mut k = KernelBuilder::new("k", 16);
        let i = k.outer_var();
        let s = k.load(row, Expr::var(i));
        let e = k.load(row, Expr::var(i) + Expr::imm(1));
        let j = k.begin_loop(Trip::Expr(Expr::var(e) - Expr::var(s)));
        let v = k.load(col, Expr::var(s) + Expr::var(j));
        k.atomic(score, Expr::var(v), AtomicOp::Add, Expr::imm(1));
        k.end_loop();
        p.push_kernel(k.finish());
        let c = compile(&p);
        let ck = &c.kernels[0];
        let atomic = ck.streams.iter().find(|s| s.role == ComputeClass::Atomic).unwrap();
        assert!(matches!(atomic.pattern, AddrPatternClass::Indirect { .. }));
        assert!(ck.is_offloadable(atomic.id));
        assert_eq!(ck.vector_width, 1);
        // col is a nested affine stream.
        let col_stream = ck.streams.iter().find(|s| s.array == col).unwrap();
        assert!(matches!(col_stream.pattern, AddrPatternClass::Affine { .. }));
        assert_eq!(col_stream.loop_depth, 2);
    }

    #[test]
    fn sync_free_all_streamed_is_fully_decoupled() {
        let mut p = Program::new("t");
        let a = p.array("a", ElemType::I64, 64);
        let b = p.array("b", ElemType::I64, 64);
        let mut k = KernelBuilder::new("copy", 64);
        let i = k.outer_var();
        let v = k.load(a, Expr::var(i));
        k.store(b, Expr::var(i), Expr::var(v));
        k.sync_free();
        p.push_kernel(k.finish());
        let c = compile(&p);
        assert!(c.kernels[0].fully_decoupled);
        assert!(c.kernels[0].sync_free);
    }

    #[test]
    fn plan_is_built_and_lowers_whole_kernel() {
        let mut p = Program::new("t");
        let a = p.array("a", ElemType::I64, 64);
        let b = p.array("b", ElemType::I64, 64);
        let mut k = KernelBuilder::new("k", 64);
        let i = k.outer_var();
        let v = k.load(a, Expr::var(i));
        k.store(b, Expr::var(i), Expr::var(v) * Expr::imm(3) + Expr::imm(1));
        p.push_kernel(k.finish());
        let c = compile(&p);
        let stats = c.kernels[0].code().stats;
        assert_eq!(stats.tree_stmts, 0);
        assert!(stats.ops > 0);
    }

    #[test]
    fn without_pragma_not_decoupled() {
        let mut p = Program::new("t");
        let a = p.array("a", ElemType::I64, 64);
        let mut k = KernelBuilder::new("k", 64);
        let i = k.outer_var();
        k.store(a, Expr::var(i), Expr::imm(0));
        p.push_kernel(k.finish());
        let c = compile(&p);
        assert!(!c.kernels[0].fully_decoupled);
    }
}
