//! Compiled stream execution: kernel `Expr` trees lowered to register
//! bytecode.
//!
//! Walking boxed [`Expr`] nodes re-dispatches once per element per
//! statement, and expression evaluation is the hottest path in every sweep.
//! This module flattens each kernel's expressions into a compact
//! three-address bytecode over a flat register file: no `Box` chasing, no
//! recursion, no per-element allocation. It is the only form any run
//! executes; the tree walker in [`interp`](crate::interp) is the reference
//! it is tested against.
//!
//! # Register file
//!
//! One `Vec<Scalar>` per (core, kernel), laid out as
//!
//! ```text
//! [ locals 0..n_locals | params | consts + hoisted + temps ... ]
//! ```
//!
//! * **Locals** occupy the low registers, so [`VarId`] `v` *is* register
//!   `v.0`.
//! * **Params** are pinned once per kernel by [`KernelCode::init_regs`].
//! * Everything above is allocated monotonically during lowering: deduped
//!   constants (written once at init), hoisted loop-invariant results, and
//!   statement temporaries. Registers are never reused, so invariants stay
//!   warm across iterations; only `regs[..n_locals]` is re-zeroed per outer
//!   iteration (mirroring the tree walker's cleared locals).
//!
//! # Lowering
//!
//! Lowering performs constant folding (via the same [`BinOp::eval`] /
//! [`UnOp::eval`] the tree walker uses, so folded values are bit-identical),
//! common-subexpression elimination within a statement, and loop-invariant
//! hoisting by *level*: an op whose operands depend only on params/consts
//! runs once per kernel (the preamble), one that additionally reads the
//! outer loop index runs once per outer iteration, and everything else runs
//! in its statement's span. Assignments to variables no statement ever reads
//! are pruned. `Trip::Expr` counts whose ops hoist completely are
//! pre-evaluated into a pinned register ([`BStmt::LoopReg`]).
//!
//! # Determinism
//!
//! Results, `MemClient` call sequences, counters and trace events are
//! bit-identical to the tree walker: expression evaluation is pure and
//! total (division by zero yields 0, shifts mask, arithmetic wraps), so
//! evaluating an op earlier (hoisting), later, once instead of twice (CSE)
//! or unconditionally (both `Select` arms) cannot be observed — the only
//! observable effects are `MemClient` calls, which are emitted in exactly
//! the tree walker's order with exactly the tree walker's operands.
//! Commutative operands are deliberately *not* canonicalized for CSE so
//! float results keep identical bit patterns (e.g. NaN payloads).
//!
//! Lowering is total: every statement lowers. A kernel needing more than
//! [`u16::MAX`] registers panics at lowering, naming the kernel.

use crate::expr::Expr;
use crate::interp::{ExecError, MemClient, WHILE_LOOP_CAP};
use crate::program::{ArrayId, Field, Kernel, Loop, Stmt, StmtId, Trip, VarId};
use crate::types::{AtomicOp, BinOp, Scalar, UnOp};
use std::collections::HashMap;

/// A register index into the flat per-kernel register file.
pub type Reg = u16;

/// Registers stay below this; a kernel that would push past it fails to
/// lower.
const REG_LIMIT: u32 = u16::MAX as u32;

/// A three-address bytecode op. Sources and destination are registers.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Op {
    /// `regs[dst] = op(regs[a], regs[b])`.
    Bin { op: BinOp, dst: Reg, a: Reg, b: Reg },
    /// `regs[dst] = op(regs[a])`.
    Un { op: UnOp, dst: Reg, a: Reg },
    /// `regs[dst] = regs[cond] ? regs[a] : regs[b]` (both arms evaluated;
    /// expression evaluation is pure so this is unobservable).
    Select { dst: Reg, cond: Reg, a: Reg, b: Reg },
}

/// A contiguous run of ops in the kernel's shared op pool.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Span {
    lo: u32,
    hi: u32,
}

impl Span {
    fn rng(self) -> std::ops::Range<usize> {
        self.lo as usize..self.hi as usize
    }

    /// Number of ops in the span.
    pub fn len(self) -> u32 {
        self.hi - self.lo
    }

    /// Whether the span is empty.
    pub fn is_empty(self) -> bool {
        self.lo == self.hi
    }
}

/// A lowered statement. Mirrors [`Stmt`], with expressions replaced by op
/// spans plus result registers.
#[derive(Clone, Debug, PartialEq)]
pub enum BStmt {
    /// `regs[dst] = regs[src]` after running `span`.
    Assign { span: Span, dst: Reg, src: Reg },
    /// Load into `regs[dst]` from `array[regs[index]]`.
    Load { id: StmtId, array: ArrayId, field: Option<Field>, span: Span, index: Reg, dst: Reg },
    /// Store `regs[value]` to `array[regs[index]]`.
    Store { id: StmtId, array: ArrayId, field: Option<Field>, span: Span, index: Reg, value: Reg },
    /// Atomic RMW; the old value lands in `regs[old]` if requested.
    Atomic {
        id: StmtId,
        array: ArrayId,
        field: Option<Field>,
        op: AtomicOp,
        span: Span,
        index: Reg,
        operand: Reg,
        expected: Option<Reg>,
        old: Option<Reg>,
    },
    /// Branch on `regs[cond]` after running `span`.
    If { span: Span, cond: Reg, then_body: Vec<BStmt>, else_body: Vec<BStmt> },
    /// Counted loop with a compile-time trip (includes folded `Trip::Expr`).
    LoopConst { var: Reg, n: u64, body: Vec<BStmt> },
    /// Counted loop whose trip was pre-evaluated into `regs[trip]` (a
    /// hoisted/pinned register or a plain local), read at loop entry.
    LoopReg { var: Reg, trip: Reg, body: Vec<BStmt> },
    /// Counted loop whose trip needs `span` evaluated at loop entry.
    LoopExpr { var: Reg, span: Span, trip: Reg, body: Vec<BStmt> },
    /// Data-dependent loop: run `span`, test `regs[cond]`, run body.
    LoopWhile { var: Reg, span: Span, cond: Reg, body: Vec<BStmt> },
}

/// Lowering statistics, for tests and reporting.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LowerStats {
    /// Bytecode ops emitted into statement spans.
    pub ops: u32,
    /// Ops hoisted to the once-per-kernel preamble.
    pub pre_ops: u32,
    /// Dead `Assign` statements pruned.
    pub pruned_assigns: u32,
    /// `Trip::Expr` counts pre-evaluated into a pinned register.
    pub hoisted_trips: u32,
    /// Always 0: lowering is total, so no statement is left on the tree
    /// walker. Kept only because an external probe still reads it.
    pub tree_stmts: u32,
}

/// Executes a run of ops against the register file.
#[inline]
fn run_ops(ops: &[Op], regs: &mut [Scalar]) {
    for op in ops {
        match *op {
            Op::Bin { op, dst, a, b } => {
                regs[dst as usize] = op.eval(regs[a as usize], regs[b as usize]);
            }
            Op::Un { op, dst, a } => regs[dst as usize] = op.eval(regs[a as usize]),
            Op::Select { dst, cond, a, b } => {
                regs[dst as usize] =
                    if regs[cond as usize].as_bool() { regs[a as usize] } else { regs[b as usize] }
            }
        }
    }
}

/// A whole kernel compiled to bytecode.
///
/// Built once per kernel (by `nsc_compiler::compile` or by the golden
/// interpreter); executed once per outer iteration via
/// [`exec_iteration`](KernelCode::exec_iteration) against a register file
/// prepared by [`init_regs`](KernelCode::init_regs).
#[derive(Clone, Debug)]
pub struct KernelCode {
    body: Vec<BStmt>,
    /// Shared statement-span op pool.
    ops: Vec<Op>,
    /// Once per kernel: hoisted param/const-only ops.
    pre_ops: Vec<Op>,
    /// Once per outer iteration: ops also reading the outer index.
    iter_ops: Vec<Op>,
    /// Deduped constants written into their registers at init.
    const_regs: Vec<(Reg, Scalar)>,
    n_locals: u16,
    n_params: u16,
    n_regs: u16,
    outer_var: Reg,
    reduction: Option<Reg>,
    /// Lowering statistics.
    pub stats: LowerStats,
}

impl KernelCode {
    /// Lowers a whole kernel.
    ///
    /// # Panics
    ///
    /// Panics, naming the kernel, if it needs more than [`u16::MAX`]
    /// registers.
    pub fn compile(kernel: &Kernel) -> KernelCode {
        let n_params = max_param(kernel);
        assert!(
            kernel.n_locals as u32 + n_params < REG_LIMIT,
            "kernel {}: locals and params overflow the {REG_LIMIT}-register file",
            kernel.name
        );
        let mut lw = Lowerer::for_kernel(kernel, n_params as u16);
        let body = lw.lower_stmts(&kernel.outer.body);
        KernelCode {
            body,
            ops: lw.ops,
            pre_ops: lw.pre_ops,
            iter_ops: lw.iter_ops,
            const_regs: lw.const_regs,
            n_locals: kernel.n_locals,
            n_params: n_params as u16,
            n_regs: lw.next_reg,
            outer_var: kernel.outer.var.0,
            reduction: kernel.outer_reduction.as_ref().map(|r| r.var.0),
            stats: lw.stats,
        }
    }

    /// Prepares the register file: zeroes it, pins params and constants,
    /// and runs the once-per-kernel preamble.
    ///
    /// # Panics
    ///
    /// Panics if `params` is shorter than the highest `Param` index the
    /// kernel references (the tree walker panics on the same malformed
    /// input at first evaluation).
    pub fn init_regs(&self, regs: &mut Vec<Scalar>, params: &[Scalar]) {
        regs.clear();
        regs.resize(self.n_regs as usize, Scalar::I64(0));
        for i in 0..self.n_params as usize {
            regs[self.n_locals as usize + i] = params[i];
        }
        for &(r, v) in &self.const_regs {
            regs[r as usize] = v;
        }
        run_ops(&self.pre_ops, regs);
    }

    /// Executes one outer iteration, mirroring
    /// [`interp::exec_iteration`](crate::interp::exec_iteration): zeroes
    /// the locals, sets the outer index, runs the per-iteration prologue
    /// and the body, and returns the reduction contribution if the kernel
    /// declares one. The params were pinned by `init_regs`; the argument
    /// only keeps the signature parallel to the tree walker's.
    pub fn exec_iteration(
        &self,
        iter: u64,
        _params: &[Scalar],
        client: &mut impl MemClient,
        regs: &mut [Scalar],
    ) -> Result<Option<Scalar>, ExecError> {
        debug_assert_eq!(regs.len(), self.n_regs as usize);
        for r in regs[..self.n_locals as usize].iter_mut() {
            *r = Scalar::I64(0);
        }
        regs[self.outer_var as usize] = Scalar::I64(iter as i64);
        run_ops(&self.iter_ops, regs);
        self.exec_body(&self.body, regs, client)?;
        Ok(self.reduction.map(|r| regs[r as usize]))
    }

    fn exec_body(
        &self,
        stmts: &[BStmt],
        regs: &mut [Scalar],
        client: &mut impl MemClient,
    ) -> Result<(), ExecError> {
        for s in stmts {
            match s {
                BStmt::Assign { span, dst, src } => {
                    run_ops(&self.ops[span.rng()], regs);
                    regs[*dst as usize] = regs[*src as usize];
                }
                BStmt::Load { id, array, field, span, index, dst } => {
                    run_ops(&self.ops[span.rng()], regs);
                    let idx = regs[*index as usize].as_index();
                    regs[*dst as usize] = client.load(*id, *array, idx, *field);
                }
                BStmt::Store { id, array, field, span, index, value } => {
                    run_ops(&self.ops[span.rng()], regs);
                    let idx = regs[*index as usize].as_index();
                    client.store(*id, *array, idx, *field, regs[*value as usize]);
                }
                BStmt::Atomic { id, array, field, op, span, index, operand, expected, old } => {
                    run_ops(&self.ops[span.rng()], regs);
                    let idx = regs[*index as usize].as_index();
                    let operand_v = regs[*operand as usize];
                    let expected_v = expected.map(|r| regs[r as usize]);
                    let old_v = client.atomic(*id, *array, idx, *field, *op, operand_v, expected_v);
                    if let Some(dst) = old {
                        regs[*dst as usize] = old_v;
                    }
                }
                BStmt::If { span, cond, then_body, else_body } => {
                    run_ops(&self.ops[span.rng()], regs);
                    if regs[*cond as usize].as_bool() {
                        self.exec_body(then_body, regs, client)?;
                    } else {
                        self.exec_body(else_body, regs, client)?;
                    }
                }
                BStmt::LoopConst { var, n, body } => {
                    for i in 0..*n {
                        regs[*var as usize] = Scalar::I64(i as i64);
                        self.exec_body(body, regs, client)?;
                    }
                }
                BStmt::LoopReg { var, trip, body } => {
                    let n = regs[*trip as usize].as_i64().max(0) as u64;
                    for i in 0..n {
                        regs[*var as usize] = Scalar::I64(i as i64);
                        self.exec_body(body, regs, client)?;
                    }
                }
                BStmt::LoopExpr { var, span, trip, body } => {
                    run_ops(&self.ops[span.rng()], regs);
                    let n = regs[*trip as usize].as_i64().max(0) as u64;
                    for i in 0..n {
                        regs[*var as usize] = Scalar::I64(i as i64);
                        self.exec_body(body, regs, client)?;
                    }
                }
                BStmt::LoopWhile { var, span, cond, body } => {
                    let mut i = 0u64;
                    loop {
                        regs[*var as usize] = Scalar::I64(i as i64);
                        run_ops(&self.ops[span.rng()], regs);
                        if !regs[*cond as usize].as_bool() {
                            break;
                        }
                        self.exec_body(body, regs, client)?;
                        i += 1;
                        if i >= WHILE_LOOP_CAP {
                            return Err(ExecError::LoopCap { cap: WHILE_LOOP_CAP });
                        }
                    }
                }
            }
        }
        Ok(())
    }
}

/// Hoisting level of a register: how often its value must be recomputed.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Level {
    /// Params, consts, and ops over them: once per kernel.
    Pre = 0,
    /// The outer index (when nothing in the body writes it) and ops over
    /// it: once per outer iteration.
    Iter = 1,
    /// Everything else: per statement execution.
    Stmt = 2,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
enum CseKey {
    Bin(BinOp, Reg, Reg),
    Un(UnOp, Reg, Reg),
    Select(Reg, Reg, Reg),
}

struct Lowerer<'k> {
    /// The kernel being lowered, for the register-overflow panic.
    kernel: &'k str,
    ops: Vec<Op>,
    pre_ops: Vec<Op>,
    iter_ops: Vec<Op>,
    const_regs: Vec<(Reg, Scalar)>,
    const_map: HashMap<(u8, u64), Reg>,
    const_vals: HashMap<Reg, Scalar>,
    /// Per-register hoisting level, indexed by register.
    levels: Vec<Level>,
    /// Persistent CSE over hoisted (Pre/Iter) ops.
    inv_cse: HashMap<CseKey, Reg>,
    /// Per-statement CSE, cleared at each statement.
    cse: HashMap<CseKey, Reg>,
    /// Locals some expression reads (plus the reduction var); `Assign`s to
    /// other locals are dead.
    live: Vec<bool>,
    n_locals: u16,
    next_reg: u16,
    stats: LowerStats,
}

impl<'k> Lowerer<'k> {
    fn for_kernel(kernel: &'k Kernel, n_params: u16) -> Lowerer<'k> {
        let n_locals = kernel.n_locals;
        let mut levels = vec![Level::Stmt; n_locals as usize];
        // The outer index is iteration-invariant unless something in the
        // body writes it (assign/load/atomic-old dest or an inner loop var).
        if !writes_var(&kernel.outer.body, kernel.outer.var) {
            levels[kernel.outer.var.0 as usize] = Level::Iter;
        }
        levels.extend(std::iter::repeat_n(Level::Pre, n_params as usize));
        let mut live = vec![false; n_locals as usize];
        collect_live(&kernel.outer.body, &mut live);
        if let Some(r) = &kernel.outer_reduction {
            live[r.var.0 as usize] = true;
        }
        Lowerer {
            kernel: &kernel.name,
            ops: Vec::new(),
            pre_ops: Vec::new(),
            iter_ops: Vec::new(),
            const_regs: Vec::new(),
            const_map: HashMap::new(),
            const_vals: HashMap::new(),
            levels,
            inv_cse: HashMap::new(),
            cse: HashMap::new(),
            live,
            n_locals,
            next_reg: n_locals + n_params,
            stats: LowerStats::default(),
        }
    }

    fn level(&self, r: Reg) -> Level {
        self.levels[r as usize]
    }

    fn alloc(&mut self, level: Level) -> Reg {
        assert!(
            (self.next_reg as u32) + 1 < REG_LIMIT,
            "kernel {}: expressions overflow the {REG_LIMIT}-register file",
            self.kernel
        );
        let r = self.next_reg;
        self.next_reg += 1;
        self.levels.push(level);
        r
    }

    fn const_reg(&mut self, v: Scalar) -> Reg {
        let key = match v {
            Scalar::I64(x) => (0u8, x as u64),
            Scalar::F64(x) => (1u8, x.to_bits()),
        };
        if let Some(&r) = self.const_map.get(&key) {
            return r;
        }
        let r = self.alloc(Level::Pre);
        self.const_map.insert(key, r);
        self.const_regs.push((r, v));
        self.const_vals.insert(r, v);
        r
    }

    /// Emits an op at the level its operands dictate: hoisted ops go to the
    /// preamble / iteration prologue, the rest to the current statement
    /// span.
    fn emit(&mut self, key: CseKey, level: Level, build: impl FnOnce(Reg) -> Op) -> Reg {
        if let Some(&r) = self.inv_cse.get(&key).or_else(|| self.cse.get(&key)) {
            return r;
        }
        let dst = self.alloc(level);
        let op = build(dst);
        match level {
            Level::Pre => {
                self.pre_ops.push(op);
                self.stats.pre_ops += 1;
                self.inv_cse.insert(key, dst);
            }
            Level::Iter => {
                self.iter_ops.push(op);
                self.inv_cse.insert(key, dst);
            }
            Level::Stmt => {
                self.ops.push(op);
                self.stats.ops += 1;
                self.cse.insert(key, dst);
            }
        }
        dst
    }

    fn lower_expr(&mut self, e: &Expr) -> Reg {
        if let Some(v) = fold_const(e) {
            return self.const_reg(v);
        }
        match e {
            // fold_const covered Const; kept for completeness.
            Expr::Const(v) => self.const_reg(*v),
            Expr::Var(v) => {
                debug_assert!(v.0 < self.n_locals, "var {} out of {} locals", v.0, self.n_locals);
                v.0
            }
            Expr::Param(i) => self.n_locals + *i as u16,
            Expr::Binary(op, a, b) => {
                let ra = self.lower_expr(a);
                let rb = self.lower_expr(b);
                let level = self.level(ra).max(self.level(rb));
                self.emit(CseKey::Bin(*op, ra, rb), level, |dst| Op::Bin {
                    op: *op,
                    dst,
                    a: ra,
                    b: rb,
                })
            }
            Expr::Unary(op, a) => {
                let ra = self.lower_expr(a);
                let level = self.level(ra);
                self.emit(CseKey::Un(*op, ra, 0), level, |dst| Op::Un { op: *op, dst, a: ra })
            }
            Expr::Select(c, a, b) => {
                if let Some(cv) = fold_const(c) {
                    return self.lower_expr(if cv.as_bool() { a } else { b });
                }
                let rc = self.lower_expr(c);
                let ra = self.lower_expr(a);
                let rb = self.lower_expr(b);
                if ra == rb {
                    // Both arms are the same register: the select is a no-op.
                    return ra;
                }
                let level = self.level(rc).max(self.level(ra)).max(self.level(rb));
                self.emit(CseKey::Select(rc, ra, rb), level, |dst| Op::Select {
                    dst,
                    cond: rc,
                    a: ra,
                    b: rb,
                })
            }
        }
    }

    fn lower_stmts(&mut self, stmts: &[Stmt]) -> Vec<BStmt> {
        let mut out = Vec::with_capacity(stmts.len());
        for s in stmts {
            if let Stmt::Assign { var, .. } = s {
                if !self.live[var.0 as usize] {
                    self.stats.pruned_assigns += 1;
                    continue;
                }
            }
            self.cse.clear();
            out.push(self.lower_stmt(s));
        }
        out
    }

    fn lower_stmt(&mut self, s: &Stmt) -> BStmt {
        match s {
            Stmt::Assign { var, expr } => {
                let lo = self.ops.len() as u32;
                let src = self.lower_expr(expr);
                let span = Span { lo, hi: self.ops.len() as u32 };
                BStmt::Assign { span, dst: var.0, src }
            }
            Stmt::Load { id, var, array, index, field } => {
                let lo = self.ops.len() as u32;
                let idx = self.lower_expr(index);
                let span = Span { lo, hi: self.ops.len() as u32 };
                BStmt::Load { id: *id, array: *array, field: *field, span, index: idx, dst: var.0 }
            }
            Stmt::Store { id, array, index, field, value } => {
                let lo = self.ops.len() as u32;
                let idx = self.lower_expr(index);
                let val = self.lower_expr(value);
                let span = Span { lo, hi: self.ops.len() as u32 };
                BStmt::Store { id: *id, array: *array, field: *field, span, index: idx, value: val }
            }
            Stmt::Atomic { id, array, index, field, op, operand, expected, old } => {
                let lo = self.ops.len() as u32;
                let idx = self.lower_expr(index);
                let opnd = self.lower_expr(operand);
                let exp = expected.as_ref().map(|e| self.lower_expr(e));
                let span = Span { lo, hi: self.ops.len() as u32 };
                BStmt::Atomic {
                    id: *id,
                    array: *array,
                    field: *field,
                    op: *op,
                    span,
                    index: idx,
                    operand: opnd,
                    expected: exp,
                    old: old.map(|v| v.0),
                }
            }
            Stmt::If { cond, then_body, else_body } => {
                let lo = self.ops.len() as u32;
                let rc = self.lower_expr(cond);
                let span = Span { lo, hi: self.ops.len() as u32 };
                let tb = self.lower_stmts(then_body);
                let eb = self.lower_stmts(else_body);
                BStmt::If { span, cond: rc, then_body: tb, else_body: eb }
            }
            Stmt::Loop(l) => self.lower_loop(l),
        }
    }

    fn lower_loop(&mut self, l: &Loop) -> BStmt {
        let var = l.var.0;
        match &l.trip {
            Trip::Const(n) => {
                let body = self.lower_stmts(&l.body);
                BStmt::LoopConst { var, n: *n, body }
            }
            Trip::Expr(e) => {
                let lo = self.ops.len() as u32;
                let trip = self.lower_expr(e);
                let span = Span { lo, hi: self.ops.len() as u32 };
                if let Some(c) = self.const_vals.get(&trip).copied() {
                    // Fully folded: a compile-time trip count.
                    let body = self.lower_stmts(&l.body);
                    return BStmt::LoopConst { var, n: c.as_i64().max(0) as u64, body };
                }
                if span.is_empty() {
                    // The count is already in a register at loop entry: a
                    // hoisted (pre/iter) result or a plain local.
                    if self.level(trip) <= Level::Iter {
                        self.stats.hoisted_trips += 1;
                    }
                    let body = self.lower_stmts(&l.body);
                    return BStmt::LoopReg { var, trip, body };
                }
                let body = self.lower_stmts(&l.body);
                BStmt::LoopExpr { var, span, trip, body }
            }
            Trip::While(cond) => {
                let lo = self.ops.len() as u32;
                let rc = self.lower_expr(cond);
                let span = Span { lo, hi: self.ops.len() as u32 };
                let body = self.lower_stmts(&l.body);
                BStmt::LoopWhile { var, span, cond: rc, body }
            }
        }
    }
}

/// Evaluates an all-constant subtree (no vars, no params), cascading
/// through the same scalar semantics the tree walker uses.
fn fold_const(e: &Expr) -> Option<Scalar> {
    match e {
        Expr::Const(v) => Some(*v),
        Expr::Var(_) | Expr::Param(_) => None,
        Expr::Binary(op, a, b) => Some(op.eval(fold_const(a)?, fold_const(b)?)),
        Expr::Unary(op, a) => Some(op.eval(fold_const(a)?)),
        Expr::Select(c, a, b) => {
            if fold_const(c)?.as_bool() {
                fold_const(a)
            } else {
                fold_const(b)
            }
        }
    }
}

fn writes_var(stmts: &[Stmt], var: VarId) -> bool {
    stmts.iter().any(|s| match s {
        Stmt::Assign { var: v, .. } | Stmt::Load { var: v, .. } => *v == var,
        Stmt::Atomic { old, .. } => *old == Some(var),
        Stmt::Store { .. } => false,
        Stmt::If { then_body, else_body, .. } => {
            writes_var(then_body, var) || writes_var(else_body, var)
        }
        Stmt::Loop(l) => l.var == var || writes_var(&l.body, var),
    })
}

fn mark_live(e: &Expr, live: &mut [bool]) {
    let mut vars = Vec::new();
    e.collect_vars(&mut vars);
    for v in vars {
        live[v.0 as usize] = true;
    }
}

fn collect_live(stmts: &[Stmt], live: &mut [bool]) {
    for s in stmts {
        match s {
            Stmt::Assign { expr, .. } => mark_live(expr, live),
            Stmt::Load { index, .. } => mark_live(index, live),
            Stmt::Store { index, value, .. } => {
                mark_live(index, live);
                mark_live(value, live);
            }
            Stmt::Atomic { index, operand, expected, .. } => {
                mark_live(index, live);
                mark_live(operand, live);
                if let Some(e) = expected {
                    mark_live(e, live);
                }
            }
            Stmt::If { cond, then_body, else_body } => {
                mark_live(cond, live);
                collect_live(then_body, live);
                collect_live(else_body, live);
            }
            Stmt::Loop(l) => {
                match &l.trip {
                    Trip::Const(_) => {}
                    Trip::Expr(e) | Trip::While(e) => mark_live(e, live),
                }
                collect_live(&l.body, live);
            }
        }
    }
}

fn max_param_expr(e: &Expr, m: &mut u32) {
    match e {
        Expr::Const(_) | Expr::Var(_) => {}
        Expr::Param(i) => *m = (*m).max(i + 1),
        Expr::Binary(_, a, b) => {
            max_param_expr(a, m);
            max_param_expr(b, m);
        }
        Expr::Unary(_, a) => max_param_expr(a, m),
        Expr::Select(c, a, b) => {
            max_param_expr(c, m);
            max_param_expr(a, m);
            max_param_expr(b, m);
        }
    }
}

fn max_param_stmts(stmts: &[Stmt], m: &mut u32) {
    for s in stmts {
        match s {
            Stmt::Assign { expr, .. } => max_param_expr(expr, m),
            Stmt::Load { index, .. } => max_param_expr(index, m),
            Stmt::Store { index, value, .. } => {
                max_param_expr(index, m);
                max_param_expr(value, m);
            }
            Stmt::Atomic { index, operand, expected, .. } => {
                max_param_expr(index, m);
                max_param_expr(operand, m);
                if let Some(e) = expected {
                    max_param_expr(e, m);
                }
            }
            Stmt::If { cond, then_body, else_body } => {
                max_param_expr(cond, m);
                max_param_stmts(then_body, m);
                max_param_stmts(else_body, m);
            }
            Stmt::Loop(l) => {
                match &l.trip {
                    Trip::Const(_) => {}
                    Trip::Expr(e) | Trip::While(e) => max_param_expr(e, m),
                }
                max_param_stmts(&l.body, m);
            }
        }
    }
}

/// Highest `Param` index referenced by the kernel, plus one.
fn max_param(kernel: &Kernel) -> u32 {
    let mut m = 0;
    match &kernel.outer.trip {
        Trip::Const(_) => {}
        Trip::Expr(e) | Trip::While(e) => max_param_expr(e, &mut m),
    }
    max_param_stmts(&kernel.outer.body, &mut m);
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::{self, FunctionalClient};
    use crate::memory::Memory;
    use crate::program::{OuterReduction, Program};
    use crate::types::ElemType;

    fn v(i: u16) -> VarId {
        VarId(i)
    }

    /// A one-statement kernel storing `value` to `out[0]`, with the outer
    /// var 0 and `n_locals` locals.
    fn store_kernel(value: Expr, n_locals: u16) -> (Program, Kernel) {
        let mut p = Program::new("expr");
        let out = p.array("out", ElemType::I64, 1);
        let kernel = Kernel {
            name: "expr".into(),
            outer: Loop {
                var: v(0),
                trip: Trip::Const(1),
                body: vec![Stmt::Store {
                    id: StmtId(0),
                    array: out,
                    index: Expr::imm(0),
                    field: None,
                    value,
                }],
            },
            n_locals,
            n_stmts: 1,
            sync_free: false,
            outer_reduction: None,
            narrow_hints: Vec::new(),
        };
        (p, kernel)
    }

    /// Runs outer iteration `iter` of a one-kernel program through the
    /// bytecode and returns `out[0]`.
    fn run_store(p: &Program, code: &KernelCode, iter: u64, params: &[Scalar]) -> Scalar {
        let mut mem = Memory::for_program(p);
        let mut regs = Vec::new();
        code.init_regs(&mut regs, params);
        let mut client = FunctionalClient { mem: &mut mem };
        code.exec_iteration(iter, params, &mut client, &mut regs).unwrap();
        mem.read_index(ArrayId(0), 0)
    }

    #[test]
    fn expr_code_matches_tree_eval() {
        // (v1*3 + p0) * (v1*3 + p0) - repeated subtree exercises CSE. v1
        // is bound to the outer index so the ops stay in the statement.
        let sub = Expr::var(v(1)) * Expr::imm(3) + Expr::param(0);
        let e = sub.clone() * sub;
        let (p, mut kernel) = store_kernel(e.clone(), 2);
        kernel.outer.body.insert(0, Stmt::Assign { var: v(1), expr: Expr::var(v(0)) });
        let code = KernelCode::compile(&kernel);
        let params = [Scalar::I64(7)];
        for x in [0u64, 1, 100] {
            let locals = [Scalar::I64(x as i64), Scalar::I64(x as i64)];
            assert_eq!(run_store(&p, &code, x, &params), e.eval(&locals, &params));
        }
        // CSE: the squared subtree lowers its two ops once, plus the
        // multiply; the param-only leaves pin for free.
        assert_eq!(code.stats.ops, 3);
        assert_eq!(code.stats.pre_ops, 0);
    }

    #[test]
    fn const_folding_emits_no_ops() {
        let e = (Expr::imm(2) + Expr::imm(3)) * Expr::imm(4) + Expr::var(v(1));
        let (p, mut kernel) = store_kernel(e, 2);
        kernel.outer.body.insert(0, Stmt::Assign { var: v(1), expr: Expr::var(v(0)) });
        let code = KernelCode::compile(&kernel);
        // Only the final add survives: (2+3)*4 folds to 20.
        assert_eq!(code.stats.ops, 1);
        assert_eq!(code.stats.pre_ops, 0);
        assert_eq!(run_store(&p, &code, 1, &[]), Scalar::I64(21));
    }

    #[test]
    fn param_only_ops_hoist_to_preamble() {
        // p0*p1 + v1: the multiply runs once at init, not per iteration.
        let e = Expr::param(0) * Expr::param(1) + Expr::var(v(1));
        let (p, mut kernel) = store_kernel(e, 2);
        kernel.outer.body.insert(0, Stmt::Assign { var: v(1), expr: Expr::var(v(0)) });
        let code = KernelCode::compile(&kernel);
        assert_eq!(code.stats.ops, 1);
        assert_eq!(code.stats.pre_ops, 1);
        assert_eq!(run_store(&p, &code, 0, &[Scalar::I64(6), Scalar::I64(7)]), Scalar::I64(42));
    }

    fn hist_kernel() -> (Program, Kernel) {
        let mut p = Program::new("hist");
        let a = p.array("a", ElemType::I32, 8);
        let b = p.array("b", ElemType::I64, 4);
        let i = v(0);
        let k = v(1);
        let kernel = Kernel {
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
        };
        (p, kernel)
    }

    #[test]
    fn kernel_code_matches_tree_walker() {
        let (p, kernel) = hist_kernel();
        let code = KernelCode::compile(&kernel);
        let mut mem_tree = Memory::for_program(&p);
        let mut mem_bc = Memory::for_program(&p);
        let a = crate::program::ArrayId(0);
        for (i, key) in [0i64, 1, 1, 2, 3, 3, 3, 0].iter().enumerate() {
            mem_tree.write_index(a, i as u64, Scalar::I64(*key));
            mem_bc.write_index(a, i as u64, Scalar::I64(*key));
        }
        let mut locals = Vec::new();
        let mut regs = Vec::new();
        code.init_regs(&mut regs, &[]);
        for i in 0..8 {
            let mut ct = FunctionalClient { mem: &mut mem_tree };
            interp::exec_iteration(&kernel, i, &[], &mut ct, &mut locals).unwrap();
            let mut cb = FunctionalClient { mem: &mut mem_bc };
            code.exec_iteration(i, &[], &mut cb, &mut regs).unwrap();
        }
        let b = crate::program::ArrayId(1);
        for i in 0..4 {
            assert_eq!(mem_tree.read_index(b, i), mem_bc.read_index(b, i));
        }
    }

    #[test]
    fn dead_assign_is_pruned() {
        let kernel = Kernel {
            name: "dead".into(),
            outer: Loop {
                var: v(0),
                trip: Trip::Const(4),
                body: vec![
                    // v1 is never read by anything: pruned.
                    Stmt::Assign { var: v(1), expr: Expr::var(v(0)) * Expr::imm(17) },
                    Stmt::Assign { var: v(2), expr: Expr::var(v(0)) + Expr::imm(1) },
                ],
            },
            n_locals: 3,
            n_stmts: 0,
            sync_free: false,
            outer_reduction: Some(OuterReduction {
                var: v(2),
                op: BinOp::Add,
                target: ArrayId(0),
            }),
            narrow_hints: Vec::new(),
        };
        let code = KernelCode::compile(&kernel);
        assert_eq!(code.stats.pruned_assigns, 1);
        assert_eq!(code.body.len(), 1);
        struct Nop;
        impl MemClient for Nop {
            fn load(&mut self, _: StmtId, _: ArrayId, _: u64, _: Option<Field>) -> Scalar {
                Scalar::I64(0)
            }
            fn store(&mut self, _: StmtId, _: ArrayId, _: u64, _: Option<Field>, _: Scalar) {}
            fn atomic(
                &mut self,
                _: StmtId,
                _: ArrayId,
                _: u64,
                _: Option<Field>,
                _: AtomicOp,
                _: Scalar,
                _: Option<Scalar>,
            ) -> Scalar {
                Scalar::I64(0)
            }
        }
        let mut regs = Vec::new();
        code.init_regs(&mut regs, &[]);
        let c = code.exec_iteration(3, &[], &mut Nop, &mut regs).unwrap();
        assert_eq!(c, Some(Scalar::I64(4)));
    }

    #[test]
    fn param_trip_hoists_to_pinned_register() {
        // Inner loop trip p0*2 has no vars: evaluated once in the preamble.
        let kernel = Kernel {
            name: "hoist".into(),
            outer: Loop {
                var: v(0),
                trip: Trip::Const(2),
                body: vec![Stmt::Loop(Loop {
                    var: v(1),
                    trip: Trip::Expr(Expr::param(0) * Expr::imm(2)),
                    body: vec![Stmt::Assign {
                        var: v(2),
                        expr: Expr::var(v(2)) + Expr::imm(1),
                    }],
                })],
            },
            n_locals: 3,
            n_stmts: 0,
            sync_free: false,
            outer_reduction: Some(OuterReduction {
                var: v(2),
                op: BinOp::Add,
                target: ArrayId(0),
            }),
            narrow_hints: Vec::new(),
        };
        let code = KernelCode::compile(&kernel);
        assert_eq!(code.stats.hoisted_trips, 1);
        assert_eq!(code.stats.pre_ops, 1);
        let mut regs = Vec::new();
        code.init_regs(&mut regs, &[Scalar::I64(5)]);
        let mut mem = Memory::for_program(&Program::new("t"));
        let mut client = FunctionalClient { mem: &mut mem };
        let c = code.exec_iteration(0, &[Scalar::I64(5)], &mut client, &mut regs).unwrap();
        assert_eq!(c, Some(Scalar::I64(10)));
    }

    #[test]
    fn while_loop_matches_tree_walker() {
        // count-down: v1 = 5; while v1 != 0 { v1 = v1 - 1; v2 += v1 }.
        let kernel = Kernel {
            name: "countdown".into(),
            outer: Loop {
                var: v(0),
                trip: Trip::Const(1),
                body: vec![
                    Stmt::Assign { var: v(1), expr: Expr::imm(5) },
                    Stmt::Loop(Loop {
                        var: v(3),
                        trip: Trip::While(Expr::ne(Expr::var(v(1)), Expr::imm(0))),
                        body: vec![
                            Stmt::Assign { var: v(1), expr: Expr::var(v(1)) - Expr::imm(1) },
                            Stmt::Assign {
                                var: v(2),
                                expr: Expr::var(v(2)) + Expr::var(v(1)),
                            },
                        ],
                    }),
                ],
            },
            n_locals: 4,
            n_stmts: 0,
            sync_free: false,
            outer_reduction: Some(OuterReduction {
                var: v(2),
                op: BinOp::Add,
                target: ArrayId(0),
            }),
            narrow_hints: Vec::new(),
        };
        let code = KernelCode::compile(&kernel);
        let mut regs = Vec::new();
        code.init_regs(&mut regs, &[]);
        let mut mem = Memory::for_program(&Program::new("t"));
        let mut client = FunctionalClient { mem: &mut mem };
        let c = code.exec_iteration(0, &[], &mut client, &mut regs).unwrap();
        assert_eq!(c, Some(Scalar::I64(10)));
        let mut locals = Vec::new();
        let mut ct = FunctionalClient { mem: &mut mem };
        let t = interp::exec_iteration(&kernel, 0, &[], &mut ct, &mut locals).unwrap();
        assert_eq!(t, c);
    }
}
