//! Property tests: the compiled register bytecode must be observationally
//! identical to the tree-walking interpreter on *random* programs.
//!
//! Two properties, each over hundreds of seeded-random cases:
//!
//! 1. **Expression equivalence** — a random `Expr` tree lowered into a
//!    one-statement [`KernelCode`] stores the same `Scalar` as
//!    `Expr::eval` computes, compared *bit for bit* (`f64::to_bits`), so
//!    NaN payloads and signed zeros count too.
//! 2. **Kernel equivalence** — a random kernel (nested ifs, counted and
//!    data-dependent loops, loads/stores/atomics with masked indices)
//!    executed by [`KernelCode`] drives the `MemClient` with the *exact
//!    same call sequence* (kind, statement, array, index, field,
//!    operands, in order) as the tree walker, leaves memory in the same
//!    state, and returns the same reduction contributions. This is the
//!    determinism contract that lets every run execute the bytecode while
//!    the tree walker stays the reference semantics.
//!
//! The RNG is a hand-rolled xorshift (this crate has no dependencies),
//! so every case is reproducible from its printed seed.

use nsc_ir::build::KernelBuilder;
use nsc_ir::interp::{self};
use nsc_ir::program::{ArrayId, Field, StmtId, VarId};
use nsc_ir::types::{AtomicOp, BinOp, Scalar, UnOp};
use nsc_ir::program::{Loop, Stmt};
use nsc_ir::{ElemType, Expr, Kernel, KernelCode, MemClient, Memory, Program, Trip};

/// xorshift64* — tiny, deterministic, dependency-free.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng(seed.max(1))
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545F4914F6CDD1D)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}

const BINOPS: [BinOp; 16] = [
    BinOp::Add,
    BinOp::Sub,
    BinOp::Mul,
    BinOp::Div,
    BinOp::Rem,
    BinOp::Min,
    BinOp::Max,
    BinOp::And,
    BinOp::Or,
    BinOp::Xor,
    BinOp::Shr,
    BinOp::Shl,
    BinOp::Lt,
    BinOp::Le,
    BinOp::Eq,
    BinOp::Ne,
];
const UNOPS: [UnOp; 5] = [UnOp::Neg, UnOp::Not, UnOp::Abs, UnOp::Sqrt, UnOp::Exp];

const N_LOCALS: u64 = 5;
const N_PARAMS: u64 = 3;
const PARAMS: [Scalar; 3] = [Scalar::I64(7), Scalar::F64(0.375), Scalar::I64(-11)];

/// A random expression over `vars` (falling back to leaves at depth 0).
fn gen_expr(rng: &mut Rng, vars: &[VarId], depth: u32) -> Expr {
    if depth == 0 || rng.below(7) == 0 {
        return match rng.below(4) {
            0 => Expr::imm((rng.next() as i64) >> 40),
            1 => Expr::immf(((rng.next() >> 11) as f64 / (1u64 << 53) as f64) * 16.0 - 8.0),
            2 => Expr::param(rng.below(N_PARAMS) as u32),
            _ => Expr::var(vars[rng.below(vars.len() as u64) as usize]),
        };
    }
    match rng.below(10) {
        0 => Expr::un(UNOPS[rng.below(UNOPS.len() as u64) as usize], gen_expr(rng, vars, depth - 1)),
        1 => Expr::select(
            gen_expr(rng, vars, depth - 1),
            gen_expr(rng, vars, depth - 1),
            gen_expr(rng, vars, depth - 1),
        ),
        _ => Expr::bin(
            BINOPS[rng.below(BINOPS.len() as u64) as usize],
            gen_expr(rng, vars, depth - 1),
            gen_expr(rng, vars, depth - 1),
        ),
    }
}

fn bits(v: Scalar) -> (bool, u64) {
    match v {
        Scalar::I64(x) => (false, x as u64),
        Scalar::F64(x) => (true, x.to_bits()),
    }
}

/// A client whose loads return fixed scalars (one per `StmtId`) and that
/// records the one store.
struct ScalarClient {
    loads: Vec<Scalar>,
    stored: Option<Scalar>,
}

impl MemClient for ScalarClient {
    fn load(&mut self, stmt: StmtId, _: ArrayId, _: u64, _: Option<Field>) -> Scalar {
        self.loads[stmt.0 as usize]
    }

    fn store(&mut self, _: StmtId, _: ArrayId, _: u64, _: Option<Field>, value: Scalar) {
        self.stored = Some(value);
    }

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
        unreachable!("expression kernels issue no atomics")
    }
}

/// A kernel that loads locals `1..=N_LOCALS` (statements `0..N_LOCALS`)
/// and stores `e` (statement `N_LOCALS`). Local 0 is the outer var, which
/// the loads must not overwrite.
fn expr_kernel(e: Expr) -> Kernel {
    let mut body: Vec<Stmt> = (0..N_LOCALS)
        .map(|j| Stmt::Load {
            id: StmtId(j as u32),
            var: VarId(j as u16 + 1),
            array: ArrayId(0),
            index: Expr::imm(0),
            field: None,
        })
        .collect();
    body.push(Stmt::Store {
        id: StmtId(N_LOCALS as u32),
        array: ArrayId(0),
        index: Expr::imm(0),
        field: None,
        value: e,
    });
    Kernel {
        name: "expr".into(),
        outer: Loop { var: VarId(0), trip: Trip::Const(8), body },
        n_locals: N_LOCALS as u16 + 1,
        n_stmts: N_LOCALS as u32 + 1,
        sync_free: false,
        outer_reduction: None,
        narrow_hints: Vec::new(),
    }
}

/// Random expression trees: bytecode and tree walker agree bit for bit.
#[test]
fn random_exprs_eval_identically() {
    for seed in 0..400u64 {
        let mut rng = Rng::new(seed.wrapping_mul(0x9E3779B97F4A7C15) + 1);
        let vars: Vec<VarId> = (1..=N_LOCALS).map(|i| VarId(i as u16)).collect();
        let e = gen_expr(&mut rng, &vars, 6);
        let code = KernelCode::compile(&expr_kernel(e.clone()));
        let mut regs = Vec::new();
        code.init_regs(&mut regs, &PARAMS);
        for case in 0..8u64 {
            let mut loads = [Scalar::I64(0); N_LOCALS as usize];
            for (j, l) in loads.iter_mut().enumerate() {
                let x = rng.next();
                *l = if (case + j as u64).is_multiple_of(2) {
                    Scalar::I64((x as i64) >> 16)
                } else {
                    Scalar::F64(((x >> 11) as f64 / (1u64 << 53) as f64) * 32.0 - 16.0)
                };
            }
            let mut locals = vec![Scalar::I64(case as i64)];
            locals.extend(loads);
            let want = e.eval(&locals, &PARAMS);
            let mut client = ScalarClient { loads: loads.to_vec(), stored: None };
            code.exec_iteration(case, &PARAMS, &mut client, &mut regs)
                .unwrap_or_else(|err| panic!("seed {seed} case {case}: {err}"));
            let got = client.stored.expect("the kernel stores its expression");
            assert_eq!(
                bits(want),
                bits(got),
                "seed {seed} case {case}: tree {want:?} != bytecode {got:?}\nexpr: {e:?}"
            );
        }
    }
}

/// One logged `MemClient` call: every operand that crosses the client
/// boundary, bit-exact.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Call {
    Load(StmtId, ArrayId, u64, Option<Field>),
    Store(StmtId, ArrayId, u64, Option<Field>, (bool, u64)),
    Atomic(StmtId, ArrayId, u64, Option<Field>, AtomicOp, (bool, u64), Option<(bool, u64)>),
}

/// Delegates to a real [`Memory`] while logging every call.
struct RecordingClient<'m> {
    mem: &'m mut Memory,
    log: Vec<Call>,
}

impl MemClient for RecordingClient<'_> {
    fn load(&mut self, stmt: StmtId, array: ArrayId, index: u64, field: Option<Field>) -> Scalar {
        self.log.push(Call::Load(stmt, array, index, field));
        self.mem.read(array, index, field)
    }

    fn store(&mut self, stmt: StmtId, array: ArrayId, index: u64, field: Option<Field>, value: Scalar) {
        self.log.push(Call::Store(stmt, array, index, field, bits(value)));
        self.mem.write(array, index, field, value);
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
        self.log
            .push(Call::Atomic(stmt, array, index, field, op, bits(operand), expected.map(bits)));
        let old = self.mem.read(array, index, field);
        let (new, _) = op.apply(old, operand, expected);
        self.mem.write(array, index, field, new);
        old
    }
}

const ARRAY_LEN: u64 = 64;

/// Masks an index expression into `[0, ARRAY_LEN)`: `And` always yields
/// a non-negative `I64`, so any random sub-expression becomes a valid
/// index.
fn masked(e: Expr) -> Expr {
    Expr::bin(BinOp::And, e, Expr::imm(ARRAY_LEN as i64 - 1))
}

/// A random kernel over `arrays`: straight-line assigns, loads, stores,
/// atomics, plus nested ifs, counted loops, expression-trip loops and
/// terminating while loops.
fn gen_body(rng: &mut Rng, b: &mut KernelBuilder, vars: &mut Vec<VarId>, arrays: &[ArrayId], depth: u32) {
    let n = 2 + rng.below(4);
    for _ in 0..n {
        let arr = arrays[rng.below(arrays.len() as u64) as usize];
        match rng.below(if depth > 0 { 9 } else { 5 }) {
            0 | 1 => {
                let e = gen_expr(rng, vars, 3);
                let v = b.let_(e);
                vars.push(v);
            }
            2 => {
                let idx = masked(gen_expr(rng, vars, 2));
                let v = b.load(arr, idx);
                vars.push(v);
            }
            3 => {
                let idx = masked(gen_expr(rng, vars, 2));
                let val = gen_expr(rng, vars, 3);
                b.store(arr, idx, val);
            }
            4 => {
                let ops = [AtomicOp::Add, AtomicOp::Min, AtomicOp::Max, AtomicOp::Xchg];
                let op = ops[rng.below(ops.len() as u64) as usize];
                let idx = masked(gen_expr(rng, vars, 2));
                let operand = gen_expr(rng, vars, 2);
                let old = b.atomic_old(arr, idx, op, operand);
                vars.push(old);
            }
            5 => {
                let frame = vars.len();
                b.begin_if(gen_expr(rng, vars, 2));
                gen_body(rng, b, vars, arrays, depth - 1);
                vars.truncate(frame);
                b.begin_else();
                gen_body(rng, b, vars, arrays, depth - 1);
                vars.truncate(frame);
                b.end_if();
            }
            6 => {
                let frame = vars.len();
                let v = b.begin_loop(Trip::Const(1 + rng.below(3)));
                vars.push(v);
                gen_body(rng, b, vars, arrays, depth - 1);
                vars.truncate(frame);
                b.end_loop();
            }
            7 => {
                // Expression trip, masked small and non-negative.
                let frame = vars.len();
                let trip = Expr::bin(BinOp::And, gen_expr(rng, vars, 2), Expr::imm(3));
                let v = b.begin_loop(Trip::Expr(trip));
                vars.push(v);
                gen_body(rng, b, vars, arrays, depth - 1);
                vars.truncate(frame);
                b.end_loop();
            }
            _ => {
                // Guaranteed-terminating while: counts a fresh local down.
                let frame = vars.len();
                let c = b.var();
                b.assign(c, Expr::imm(1 + rng.below(3) as i64));
                let v = b.begin_while(Expr::ne(Expr::var(c), Expr::imm(0)));
                vars.push(v);
                b.assign(c, Expr::var(c) - Expr::imm(1));
                gen_body(rng, b, vars, arrays, depth - 1);
                vars.truncate(frame);
                b.end_loop();
            }
        }
    }
}

fn gen_program(seed: u64) -> (Program, Kernel) {
    let mut rng = Rng::new(seed.wrapping_mul(0xD1B54A32D192ED03) + 1);
    let mut p = Program::new("prop");
    let arrays: Vec<ArrayId> = (0..3)
        .map(|i| {
            let ty = if i == 1 { ElemType::F64 } else { ElemType::I64 };
            p.array(&format!("a{i}"), ty, ARRAY_LEN)
        })
        .collect();
    let out = p.array("out", ElemType::I64, 1);
    let mut b = KernelBuilder::new("k", 12);
    let mut vars = vec![b.outer_var()];
    gen_body(&mut rng, &mut b, &mut vars, &arrays, 2);
    if rng.below(2) == 0 {
        let acc = b.let_(gen_expr(&mut rng, &vars, 2));
        b.reduce_outer(acc, BinOp::Add, out);
    }
    let kernel = b.finish();
    (p, kernel)
}

fn init_mem(p: &Program) -> Memory {
    let mut mem = Memory::for_program(p);
    for a in 0..3u32 {
        for i in 0..ARRAY_LEN {
            let v = (i as i64).wrapping_mul(a as i64 + 3) - 17;
            let v = if a == 1 { Scalar::F64(v as f64 * 0.25) } else { Scalar::I64(v) };
            mem.write_index(ArrayId(a), i, v);
        }
    }
    mem
}

/// Runs `kernel` over every outer iteration with the given executor,
/// returning the client log, the final memory image, and the reduction
/// contributions.
/// (client call log, final memory image, per-iteration reduction bits).
type Observed = (Vec<Call>, Vec<(bool, u64)>, Vec<Option<(bool, u64)>>);

fn run_tree(p: &Program, kernel: &Kernel) -> Observed {
    let mut mem = init_mem(p);
    let mut log = Vec::new();
    let mut contribs = Vec::new();
    let mut locals = Vec::new();
    let trip = interp::outer_trip(kernel, &PARAMS);
    for i in 0..trip {
        let mut client = RecordingClient { mem: &mut mem, log: Vec::new() };
        let c = interp::exec_iteration(kernel, i, &PARAMS, &mut client, &mut locals)
            .unwrap_or_else(|e| panic!("tree walker: {e}"));
        log.extend(client.log);
        contribs.push(c.map(bits));
    }
    (log, dump(&mem), contribs)
}

fn run_bytecode(
    p: &Program,
    kernel: &Kernel,
    code: &KernelCode,
) -> Observed {
    let mut mem = init_mem(p);
    let mut log = Vec::new();
    let mut contribs = Vec::new();
    let mut regs = Vec::new();
    code.init_regs(&mut regs, &PARAMS);
    let trip = interp::outer_trip(kernel, &PARAMS);
    for i in 0..trip {
        let mut client = RecordingClient { mem: &mut mem, log: Vec::new() };
        let c = code
            .exec_iteration(i, &PARAMS, &mut client, &mut regs)
            .unwrap_or_else(|e| panic!("bytecode: {e}"));
        log.extend(client.log);
        contribs.push(c.map(bits));
    }
    (log, dump(&mem), contribs)
}

fn dump(mem: &Memory) -> Vec<(bool, u64)> {
    (0..3u32)
        .flat_map(|a| (0..ARRAY_LEN).map(move |i| (a, i)))
        .map(|(a, i)| bits(mem.read_index(ArrayId(a), i)))
        .collect()
}

/// Random kernels: identical client call sequences, memory images and
/// reduction contributions.
#[test]
fn random_kernels_drive_identical_client_sequences() {
    for seed in 0..120u64 {
        let (p, kernel) = gen_program(seed);
        let (tl, tm, tc) = run_tree(&p, &kernel);
        let code = KernelCode::compile(&kernel);
        let (bl, bm, bc) = run_bytecode(&p, &kernel, &code);
        assert_eq!(tl, bl, "seed {seed}: MemClient call sequences diverged");
        assert_eq!(tm, bm, "seed {seed}: final memory diverged");
        assert_eq!(tc, bc, "seed {seed}: reduction contributions diverged");
    }
}
