//! The control engine's memory-client interface and the reference tree
//! walker.
//!
//! Every run executes a kernel's lowered [`KernelCode`] against a
//! [`MemClient`]: the golden functional run ([`run_kernel`], via
//! [`FunctionalClient`]) and the timing simulation in the `near-stream`
//! crate (whose client charges cache, NoC and stream-engine time for each
//! access) share that one evaluator. This guarantees the offloaded systems
//! compute exactly the same values as the baseline.
//!
//! [`exec_iteration`] walks the `Expr` trees directly. It is the oracle
//! the bytecode equivalence tests compare against, not an execution path.

use crate::bytecode::KernelCode;
use crate::memory::Memory;
use crate::program::{ArrayId, Field, Kernel, Loop, Program, Stmt, StmtId, Trip};
use crate::types::{AtomicOp, Scalar};
use std::fmt;

/// Safety bound on data-dependent (`while`) loops: beyond this the kernel
/// is assumed non-terminating and execution fails with
/// [`ExecError::LoopCap`].
pub const WHILE_LOOP_CAP: u64 = 100_000_000;

/// A typed execution failure. Kernels are otherwise total (scalar ops never
/// trap), so the only runtime failure is a runaway data-dependent loop —
/// surfaced as an error so a server can shed the request instead of killing
/// the worker.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ExecError {
    /// A `while` loop exceeded [`WHILE_LOOP_CAP`] iterations.
    LoopCap {
        /// The configured iteration cap.
        cap: u64,
    },
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::LoopCap { cap } => {
                write!(f, "while loop exceeded {cap} iterations (assumed non-terminating)")
            }
        }
    }
}

impl std::error::Error for ExecError {}

/// Supplies memory semantics (and, for timing clients, charges time) for
/// each access the interpreter executes.
pub trait MemClient {
    /// Performs a load, returning the value.
    fn load(&mut self, stmt: StmtId, array: ArrayId, index: u64, field: Option<Field>) -> Scalar;

    /// Performs a store.
    fn store(&mut self, stmt: StmtId, array: ArrayId, index: u64, field: Option<Field>, value: Scalar);

    /// Performs an atomic read-modify-write, returning the old value.
    #[allow(clippy::too_many_arguments)]
    fn atomic(
        &mut self,
        stmt: StmtId,
        array: ArrayId,
        index: u64,
        field: Option<Field>,
        op: AtomicOp,
        operand: Scalar,
        expected: Option<Scalar>,
    ) -> Scalar;
}

/// The plain functional client: reads and writes [`Memory`] directly.
#[derive(Debug)]
pub struct FunctionalClient<'m> {
    /// The backing memory.
    pub mem: &'m mut Memory,
}

impl MemClient for FunctionalClient<'_> {
    fn load(&mut self, _stmt: StmtId, array: ArrayId, index: u64, field: Option<Field>) -> Scalar {
        self.mem.read(array, index, field)
    }

    fn store(&mut self, _stmt: StmtId, array: ArrayId, index: u64, field: Option<Field>, value: Scalar) {
        self.mem.write(array, index, field, value);
    }

    fn atomic(
        &mut self,
        _stmt: StmtId,
        array: ArrayId,
        index: u64,
        field: Option<Field>,
        op: AtomicOp,
        operand: Scalar,
        expected: Option<Scalar>,
    ) -> Scalar {
        let old = self.mem.read(array, index, field);
        let (new, _modified) = op.apply(old, operand, expected);
        self.mem.write(array, index, field, new);
        old
    }
}

fn index_of(e: &crate::expr::Expr, locals: &[Scalar], params: &[Scalar]) -> u64 {
    e.eval(locals, params).as_index()
}

fn exec_stmts(
    stmts: &[Stmt],
    locals: &mut [Scalar],
    params: &[Scalar],
    client: &mut impl MemClient,
) -> Result<(), ExecError> {
    for s in stmts {
        match s {
            Stmt::Assign { var, expr } => {
                locals[var.0 as usize] = expr.eval(locals, params);
            }
            Stmt::Load { id, var, array, index, field } => {
                let idx = index_of(index, locals, params);
                locals[var.0 as usize] = client.load(*id, *array, idx, *field);
            }
            Stmt::Store { id, array, index, field, value } => {
                let idx = index_of(index, locals, params);
                let v = value.eval(locals, params);
                client.store(*id, *array, idx, *field, v);
            }
            Stmt::Atomic { id, array, index, field, op, operand, expected, old } => {
                let idx = index_of(index, locals, params);
                let operand_v = operand.eval(locals, params);
                let expected_v = expected.as_ref().map(|e| e.eval(locals, params));
                let old_v = client.atomic(*id, *array, idx, *field, *op, operand_v, expected_v);
                if let Some(dst) = old {
                    locals[dst.0 as usize] = old_v;
                }
            }
            Stmt::If { cond, then_body, else_body } => {
                if cond.eval(locals, params).as_bool() {
                    exec_stmts(then_body, locals, params, client)?;
                } else {
                    exec_stmts(else_body, locals, params, client)?;
                }
            }
            Stmt::Loop(l) => exec_loop(l, locals, params, client)?,
        }
    }
    Ok(())
}

fn exec_loop(
    l: &Loop,
    locals: &mut [Scalar],
    params: &[Scalar],
    client: &mut impl MemClient,
) -> Result<(), ExecError> {
    match &l.trip {
        Trip::Const(n) => {
            for i in 0..*n {
                locals[l.var.0 as usize] = Scalar::I64(i as i64);
                exec_stmts(&l.body, locals, params, client)?;
            }
        }
        Trip::Expr(e) => {
            let n = e.eval(locals, params).as_i64().max(0) as u64;
            for i in 0..n {
                locals[l.var.0 as usize] = Scalar::I64(i as i64);
                exec_stmts(&l.body, locals, params, client)?;
            }
        }
        Trip::While(cond) => {
            let mut i = 0u64;
            loop {
                locals[l.var.0 as usize] = Scalar::I64(i as i64);
                if !cond.eval(locals, params).as_bool() {
                    break;
                }
                exec_stmts(&l.body, locals, params, client)?;
                i += 1;
                if i >= WHILE_LOOP_CAP {
                    return Err(ExecError::LoopCap { cap: WHILE_LOOP_CAP });
                }
            }
        }
    }
    Ok(())
}

/// Executes one iteration of a kernel's parallel outer loop on the tree
/// walker, returning the outer-reduction contribution if the kernel
/// declares one. The reference semantics [`KernelCode`] is tested against.
///
/// `locals` is a scratch buffer reused across calls (resized and zeroed
/// here).
pub fn exec_iteration(
    kernel: &Kernel,
    iter: u64,
    params: &[Scalar],
    client: &mut impl MemClient,
    locals: &mut Vec<Scalar>,
) -> Result<Option<Scalar>, ExecError> {
    locals.clear();
    locals.resize(kernel.n_locals as usize, Scalar::I64(0));
    locals[kernel.outer.var.0 as usize] = Scalar::I64(iter as i64);
    exec_stmts(&kernel.outer.body, locals, params, client)?;
    Ok(kernel
        .outer_reduction
        .as_ref()
        .map(|r| locals[r.var.0 as usize]))
}

/// Outer-loop trip count for a kernel (must not depend on locals).
///
/// # Panics
///
/// Panics if the outer trip is a `While` (parallel loops must have
/// countable bounds).
pub fn outer_trip(kernel: &Kernel, params: &[Scalar]) -> u64 {
    match &kernel.outer.trip {
        Trip::Const(n) => *n,
        Trip::Expr(e) => e.eval(&[], params).as_i64().max(0) as u64,
        Trip::While(_) => panic!("parallel outer loop cannot be a while loop"),
    }
}

/// Runs a whole kernel sequentially on its lowered bytecode (the golden
/// semantics).
///
/// # Panics
///
/// Panics on [`ExecError`] (a runaway `while` loop), naming the kernel.
pub fn run_kernel(kernel: &Kernel, params: &[Scalar], mem: &mut Memory) {
    let trip = outer_trip(kernel, params);
    let code = KernelCode::compile(kernel);
    let mut regs = Vec::new();
    code.init_regs(&mut regs, params);
    let mut acc: Option<Scalar> = None;
    for i in 0..trip {
        let mut client = FunctionalClient { mem };
        let contrib = code
            .exec_iteration(i, params, &mut client, &mut regs)
            .unwrap_or_else(|e| panic!("kernel {}: {e}", kernel.name));
        if let (Some(r), Some(c)) = (&kernel.outer_reduction, contrib) {
            acc = Some(match acc {
                None => c,
                Some(a) => r.op.eval(a, c),
            });
        }
    }
    if let (Some(r), Some(total)) = (&kernel.outer_reduction, acc) {
        mem.write_index(r.target, 0, total);
    }
}

/// Runs every kernel of a program in order against `mem` (the golden run).
///
/// # Panics
///
/// Panics if the program fails [`Program::validate`].
pub fn run_program(program: &Program, mem: &mut Memory, params: &[Scalar]) {
    if let Err(e) = program.validate() {
        panic!("invalid program {}: {e}", program.name);
    }
    for k in &program.kernels {
        run_kernel(k, params, mem);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Expr;
    use crate::program::{OuterReduction, VarId};
    use crate::types::{BinOp, ElemType};

    /// sum = Σ a[i] via outer reduction.
    #[test]
    fn outer_reduction_sums() {
        let mut p = Program::new("sum");
        let a = p.array("a", ElemType::I64, 10);
        let out = p.array("out", ElemType::I64, 1);
        let i = VarId(0);
        let v = VarId(1);
        let acc = VarId(2);
        p.push_kernel(Kernel {
            name: "sum".into(),
            outer: Loop {
                var: i,
                trip: Trip::Const(10),
                body: vec![
                    Stmt::Load { id: StmtId(0), var: v, array: a, index: Expr::var(i), field: None },
                    Stmt::Assign { var: acc, expr: Expr::var(v) },
                ],
            },
            n_locals: 3,
            n_stmts: 1,
            sync_free: false,
            outer_reduction: Some(OuterReduction { var: acc, op: BinOp::Add, target: out }),
            narrow_hints: Vec::new(),
        });
        let mut mem = Memory::for_program(&p);
        for i in 0..10 {
            mem.write_index(a, i, Scalar::I64((i + 1) as i64));
        }
        run_program(&p, &mut mem, &[]);
        assert_eq!(mem.read_index(out, 0), Scalar::I64(55));
    }

    /// Indirect RMW: b[a[i]] += 1 (a histogram).
    #[test]
    fn indirect_atomic_histogram() {
        let mut p = Program::new("hist");
        let a = p.array("a", ElemType::I32, 8);
        let b = p.array("b", ElemType::I64, 4);
        let i = VarId(0);
        let k = VarId(1);
        p.push_kernel(Kernel {
            name: "hist".into(),
            outer: Loop {
                var: i,
                trip: Trip::Const(8),
                body: vec![
                    Stmt::Load { id: StmtId(0), var: k, array: a, index: Expr::var(i), field: None },
                    Stmt::Atomic {
                        id: StmtId(1),
                        array: b,
                        index: Expr::var(k),
                        field: None,
                        op: AtomicOp::Add,
                        operand: Expr::imm(1),
                        expected: None,
                        old: None,
                    },
                ],
            },
            n_locals: 2,
            n_stmts: 2,
            sync_free: false,
            outer_reduction: None,
            narrow_hints: Vec::new(),
        });
        let mut mem = Memory::for_program(&p);
        for (i, key) in [0, 1, 1, 2, 3, 3, 3, 0].iter().enumerate() {
            mem.write_index(a, i as u64, Scalar::I64(*key));
        }
        run_program(&p, &mut mem, &[]);
        let counts: Vec<i64> = (0..4).map(|i| mem.read_index(b, i).as_i64()).collect();
        assert_eq!(counts, vec![2, 2, 1, 3]);
    }

    /// Pointer chase through a linked list laid out as records.
    #[test]
    fn while_loop_pointer_chase() {
        let mut p = Program::new("list");
        let nodes = p.array("nodes", ElemType::Record(16), 5);
        let out = p.array("out", ElemType::I64, 1);
        let val = Field { offset: 0, ty: ElemType::I64 };
        let next = Field { offset: 8, ty: ElemType::I64 };
        let (cur, acc, v, n, it) = (VarId(0), VarId(1), VarId(2), VarId(3), VarId(4));
        p.push_kernel(Kernel {
            name: "walk".into(),
            outer: Loop {
                var: VarId(5),
                trip: Trip::Const(1),
                body: vec![
                    Stmt::Assign { var: cur, expr: Expr::imm(0) },
                    Stmt::Assign { var: acc, expr: Expr::imm(0) },
                    Stmt::Loop(Loop {
                        var: it,
                        trip: Trip::While(Expr::ne(Expr::var(cur), Expr::imm(-1))),
                        body: vec![
                            Stmt::Load { id: StmtId(0), var: v, array: nodes, index: Expr::var(cur), field: Some(val) },
                            Stmt::Load { id: StmtId(1), var: n, array: nodes, index: Expr::var(cur), field: Some(next) },
                            Stmt::Assign { var: acc, expr: Expr::var(acc) + Expr::var(v) },
                            Stmt::Assign { var: cur, expr: Expr::var(n) },
                        ],
                    }),
                    Stmt::Store { id: StmtId(2), array: out, index: Expr::imm(0), field: None, value: Expr::var(acc) },
                ],
            },
            n_locals: 6,
            n_stmts: 3,
            sync_free: false,
            outer_reduction: None,
            narrow_hints: Vec::new(),
        });
        let mut mem = Memory::for_program(&p);
        // List: 0 -> 3 -> 1 -> end, values 10, 30, 100.
        let chain = [(0u64, 10i64, 3i64), (3, 30, 1), (1, 100, -1)];
        for (idx, value, nxt) in chain {
            mem.write(nodes, idx, Some(val), Scalar::I64(value));
            mem.write(nodes, idx, Some(next), Scalar::I64(nxt));
        }
        run_program(&p, &mut mem, &[]);
        assert_eq!(mem.read_index(out, 0), Scalar::I64(140));
    }

    /// Inner loop with a dynamic (expression) trip count.
    #[test]
    fn dynamic_inner_trip() {
        let mut p = Program::new("csr");
        let bounds = p.array("bounds", ElemType::I64, 4); // [0, 2, 3, 6]
        let out = p.array("out", ElemType::I64, 3);
        let (i, s, e, j, acc) = (VarId(0), VarId(1), VarId(2), VarId(3), VarId(4));
        p.push_kernel(Kernel {
            name: "rows".into(),
            outer: Loop {
                var: i,
                trip: Trip::Const(3),
                body: vec![
                    Stmt::Load { id: StmtId(0), var: s, array: bounds, index: Expr::var(i), field: None },
                    Stmt::Load { id: StmtId(1), var: e, array: bounds, index: Expr::var(i) + Expr::imm(1), field: None },
                    Stmt::Assign { var: acc, expr: Expr::imm(0) },
                    Stmt::Loop(Loop {
                        var: j,
                        trip: Trip::Expr(Expr::var(e) - Expr::var(s)),
                        body: vec![Stmt::Assign { var: acc, expr: Expr::var(acc) + Expr::imm(1) }],
                    }),
                    Stmt::Store { id: StmtId(2), array: out, index: Expr::var(i), field: None, value: Expr::var(acc) },
                ],
            },
            n_locals: 5,
            n_stmts: 3,
            sync_free: false,
            outer_reduction: None,
            narrow_hints: Vec::new(),
        });
        let mut mem = Memory::for_program(&p);
        for (i, v) in [0i64, 2, 3, 6].iter().enumerate() {
            mem.write_index(bounds, i as u64, Scalar::I64(*v));
        }
        run_program(&p, &mut mem, &[]);
        let rows: Vec<i64> = (0..3).map(|i| mem.read_index(out, i).as_i64()).collect();
        assert_eq!(rows, vec![2, 1, 3]);
    }

    #[test]
    fn if_branches() {
        let mut p = Program::new("cond");
        let a = p.array("a", ElemType::I64, 4);
        let (i, v) = (VarId(0), VarId(1));
        p.push_kernel(Kernel {
            name: "k".into(),
            outer: Loop {
                var: i,
                trip: Trip::Const(4),
                body: vec![
                    Stmt::Assign { var: v, expr: Expr::bin(BinOp::Rem, Expr::var(i), Expr::imm(2)) },
                    Stmt::If {
                        cond: Expr::eq(Expr::var(v), Expr::imm(0)),
                        then_body: vec![Stmt::Store { id: StmtId(0), array: a, index: Expr::var(i), field: None, value: Expr::imm(1) }],
                        else_body: vec![Stmt::Store { id: StmtId(1), array: a, index: Expr::var(i), field: None, value: Expr::imm(2) }],
                    },
                ],
            },
            n_locals: 2,
            n_stmts: 2,
            sync_free: false,
            outer_reduction: None,
            narrow_hints: Vec::new(),
        });
        let mut mem = Memory::for_program(&p);
        run_program(&p, &mut mem, &[]);
        let vals: Vec<i64> = (0..4).map(|i| mem.read_index(a, i).as_i64()).collect();
        assert_eq!(vals, vec![1, 2, 1, 2]);
    }

    #[test]
    fn outer_trip_from_param() {
        let mut p = Program::new("t");
        p.set_params(1);
        let k = Kernel {
            name: "k".into(),
            outer: Loop { var: VarId(0), trip: Trip::Expr(Expr::param(0)), body: vec![] },
            n_locals: 1,
            n_stmts: 0,
            sync_free: false,
            outer_reduction: None,
            narrow_hints: Vec::new(),
        };
        assert_eq!(outer_trip(&k, &[Scalar::I64(17)]), 17);
    }
}
