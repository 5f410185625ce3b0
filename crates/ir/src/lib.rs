//! Loop-nest intermediate representation for near-stream computing.
//!
//! The paper's compiler consumes LLVM IR of OpenMP kernels; this crate is
//! the equivalent substrate for the Rust reproduction. Workloads are written
//! as [`Program`]s — structured loop nests over typed arrays with explicit
//! loads, stores, relaxed atomics and pure compute — and:
//!
//! * the [`bytecode`] module lowers each kernel once to register bytecode,
//!   the one form every run executes, against a pluggable [`MemClient`] so
//!   the timing simulator reuses the same control engine;
//! * the [`interp`] module runs them functionally (the golden results all
//!   simulated systems must match) and keeps the tree walker the bytecode
//!   is tested against;
//! * the `nsc-compiler` crate pattern-matches address expressions into
//!   streams (affine / indirect / pointer-chasing / multi-operand) and
//!   assigns computations to them (paper §III-B);
//! * the [`stream`] module defines the stream-program representation the
//!   compiler produces and the stream engines execute;
//! * the [`encoding`] module packs stream configurations into the bit-level
//!   format of the paper's Table IV.
//!
//! # Examples
//!
//! A two-array vector sum (`c[i] = a[i] + b[i]`):
//!
//! ```
//! use nsc_ir::build::KernelBuilder;
//! use nsc_ir::{ElemType, Expr, Program, Scalar};
//!
//! let mut p = Program::new("vecadd");
//! let a = p.array("a", ElemType::I64, 128);
//! let b = p.array("b", ElemType::I64, 128);
//! let c = p.array("c", ElemType::I64, 128);
//! let mut k = KernelBuilder::new("sum", 128);
//! let i = k.outer_var();
//! let va = k.load(a, Expr::var(i));
//! let vb = k.load(b, Expr::var(i));
//! k.store(c, Expr::var(i), Expr::var(va) + Expr::var(vb));
//! p.push_kernel(k.finish());
//!
//! let mut mem = nsc_ir::Memory::for_program(&p);
//! for i in 0..128u64 {
//!     mem.write_index(a, i, Scalar::I64(i as i64));
//!     mem.write_index(b, i, Scalar::I64(1));
//! }
//! nsc_ir::interp::run_program(&p, &mut mem, &[]);
//! assert_eq!(mem.read_index(c, 5), Scalar::I64(6));
//! ```

pub mod build;
pub mod bytecode;
pub mod encoding;
pub mod expr;
pub mod interp;
pub mod memory;
pub mod program;
pub mod stream;
pub mod types;

pub use bytecode::KernelCode;
pub use expr::Expr;
pub use interp::{run_program, ExecError, MemClient};
pub use memory::Memory;
pub use program::{ArrayDecl, ArrayId, Kernel, Loop, Program, Stmt, StmtId, Trip, VarId};
pub use stream::{AddrPatternClass, ComputeClass, StreamId, StreamInfo};
pub use types::{AtomicOp, BinOp, ElemType, Scalar, UnOp};
