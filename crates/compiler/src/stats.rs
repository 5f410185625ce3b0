//! Dynamic µop accounting for Figure 1(a) and Figure 11.

use crate::CompiledKernel;
use nsc_ir::bytecode::KernelCode;
use nsc_ir::interp::{self, FunctionalClient, MemClient};
use nsc_ir::program::{ArrayId, Field, Program, StmtId};
use nsc_ir::stream::ComputeClass;
use nsc_ir::types::{AtomicOp, Scalar};
use nsc_ir::Memory;
use std::collections::{BTreeMap, HashMap};

/// A client that counts per-statement executions while delegating
/// semantics.
#[derive(Debug)]
pub struct CountingClient<'m> {
    inner: FunctionalClient<'m>,
    /// Executions per memory statement.
    pub counts: HashMap<StmtId, u64>,
}

impl<'m> CountingClient<'m> {
    /// Wraps a memory.
    pub fn new(mem: &'m mut Memory) -> CountingClient<'m> {
        CountingClient {
            inner: FunctionalClient { mem },
            counts: HashMap::new(),
        }
    }
}

impl MemClient for CountingClient<'_> {
    fn load(&mut self, stmt: StmtId, array: ArrayId, index: u64, field: Option<Field>) -> Scalar {
        *self.counts.entry(stmt).or_insert(0) += 1;
        self.inner.load(stmt, array, index, field)
    }

    fn store(&mut self, stmt: StmtId, array: ArrayId, index: u64, field: Option<Field>, value: Scalar) {
        *self.counts.entry(stmt).or_insert(0) += 1;
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
        *self.counts.entry(stmt).or_insert(0) += 1;
        self.inner.atomic(stmt, array, index, field, op, operand, expected)
    }
}

/// Runs the whole program once, returning per-kernel execution counts.
pub fn run_with_counts(program: &Program, mem: &mut Memory, params: &[Scalar]) -> Vec<HashMap<StmtId, u64>> {
    let mut all = Vec::with_capacity(program.kernels.len());
    for k in &program.kernels {
        let trip = interp::outer_trip(k, params);
        let code = KernelCode::compile(k);
        let mut regs = Vec::new();
        code.init_regs(&mut regs, params);
        let mut client = CountingClient::new(mem);
        let mut acc: Option<Scalar> = None;
        for i in 0..trip {
            let contrib = code
                .exec_iteration(i, params, &mut client, &mut regs)
                .unwrap_or_else(|e| panic!("kernel {}: {e}", k.name));
            if let (Some(r), Some(c)) = (&k.outer_reduction, contrib) {
                acc = Some(match acc {
                    None => c,
                    Some(a) => r.op.eval(a, c),
                });
            }
        }
        let counts = client.counts;
        if let (Some(r), Some(total)) = (&k.outer_reduction, acc) {
            mem.write_index(r.target, 0, total);
        }
        all.push(counts);
    }
    all
}

/// Dynamic µop breakdown of one kernel (Figure 1(a) categories).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct OpBreakdown {
    /// Stream-associated µops by compute class.
    pub by_role: BTreeMap<ComputeClass, f64>,
    /// µops that stay plain core work.
    pub core_only: f64,
    /// Total dynamic µops.
    pub total: f64,
}

impl OpBreakdown {
    /// Fraction of total µops associated with streams of `role`.
    pub fn fraction(&self, role: ComputeClass) -> f64 {
        if self.total == 0.0 {
            0.0
        } else {
            self.by_role.get(&role).copied().unwrap_or(0.0) / self.total
        }
    }

    /// Fraction of total µops associated with any stream.
    pub fn stream_fraction(&self) -> f64 {
        if self.total == 0.0 {
            0.0
        } else {
            self.by_role.values().sum::<f64>() / self.total
        }
    }

    /// Merges another kernel's breakdown into this one.
    pub fn merge(&mut self, other: &OpBreakdown) {
        for (k, v) in &other.by_role {
            *self.by_role.entry(*k).or_insert(0.0) += v;
        }
        self.core_only += other.core_only;
        self.total += other.total;
    }
}

/// Computes the dynamic µop breakdown for one compiled kernel given its
/// execution counts.
pub fn op_breakdown(compiled: &CompiledKernel, counts: &HashMap<StmtId, u64>) -> OpBreakdown {
    let mut out = OpBreakdown::default();
    for (stmt, &n) in counts {
        let n = n as f64;
        let cost = compiled.site_costs.get(stmt).copied().unwrap_or_default();
        let site_total = n * (1.0 + cost.addr_uops as f64 + cost.core_uops_base as f64);
        out.total += site_total;
        match compiled.stmt_stream.get(stmt) {
            Some(sid) => {
                let stream = &compiled.streams[sid.0 as usize];
                // Stream-associated: the access µop, address generation and
                // the compute absorbed onto the stream.
                let absorbed = (cost.core_uops_base - cost.core_uops_resid).max(0.0) as f64;
                let assoc = n * (1.0 + cost.addr_uops as f64 + absorbed);
                *out.by_role.entry(stream.role).or_insert(0.0) += assoc;
                out.core_only += n * cost.core_uops_resid as f64;
            }
            None => out.core_only += site_total,
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile;
    use nsc_ir::build::KernelBuilder;
    use nsc_ir::{ElemType, Expr, Program};

    fn vecadd() -> Program {
        let mut p = Program::new("vecadd");
        let a = p.array("a", ElemType::I64, 32);
        let b = p.array("b", ElemType::I64, 32);
        let c = p.array("c", ElemType::I64, 32);
        let mut k = KernelBuilder::new("k", 32);
        let i = k.outer_var();
        let va = k.load(a, Expr::var(i));
        let vb = k.load(b, Expr::var(i));
        k.store(c, Expr::var(i), Expr::var(va) + Expr::var(vb));
        p.push_kernel(k.finish());
        p
    }

    #[test]
    fn counts_track_dynamic_executions() {
        let p = vecadd();
        let mut mem = Memory::for_program(&p);
        let counts = run_with_counts(&p, &mut mem, &[]);
        assert_eq!(counts.len(), 1);
        assert_eq!(counts[0].values().sum::<u64>(), 96); // 3 accesses x 32
    }

    #[test]
    fn vecadd_is_fully_stream_associated() {
        let p = vecadd();
        let compiled = compile(&p);
        let mut mem = Memory::for_program(&p);
        let counts = run_with_counts(&p, &mut mem, &[]);
        let bd = op_breakdown(&compiled.kernels[0], &counts[0]);
        assert!(bd.stream_fraction() > 0.99, "fraction = {}", bd.stream_fraction());
        assert!(bd.fraction(ComputeClass::Store) > 0.0);
        assert!(bd.fraction(ComputeClass::Load) > 0.0);
    }

    #[test]
    fn breakdown_merge_accumulates() {
        let mut a = OpBreakdown {
            total: 10.0,
            core_only: 5.0,
            ..Default::default()
        };
        a.by_role.insert(ComputeClass::Load, 5.0);
        let mut b = OpBreakdown {
            total: 10.0,
            ..Default::default()
        };
        b.by_role.insert(ComputeClass::Load, 10.0);
        a.merge(&b);
        assert_eq!(a.total, 20.0);
        assert_eq!(a.fraction(ComputeClass::Load), 0.75);
    }
}
