//! Per-access core-cost attribution.
//!
//! The timing models charge core work per executed memory access. This
//! pass distributes each loop body's pure-compute µops over the memory
//! accesses in that body, in two variants: the full cost (baseline, where
//! the core executes everything) and the residual cost (near-stream, where
//! compute absorbed onto streams leaves the core).

use crate::analysis::KernelAnalysis;
use crate::assign::StreamAssignment;
use nsc_ir::program::StmtId;
use std::collections::HashMap;

/// Core µops attributed to one memory-access statement, per execution.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SiteCost {
    /// Share of the enclosing body's pure compute (baseline systems).
    pub core_uops_base: f32,
    /// Residual share after stream-absorbed compute leaves the core.
    pub core_uops_resid: f32,
    /// Address-generation µops (the index expression; performed by the SE
    /// when the access is streamed).
    pub addr_uops: u32,
}

/// Computes per-site costs for a kernel.
pub fn site_costs(analysis: &KernelAnalysis, assignment: &StreamAssignment) -> HashMap<StmtId, SiteCost> {
    let mut out = HashMap::new();
    for site in &analysis.sites {
        let body = &analysis.bodies[site.body];
        let n = body.n_accesses.max(1) as f32;
        let absorbed = assignment
            .absorbed_uops_per_body
            .get(&site.body)
            .copied()
            .unwrap_or(0)
            .min(body.compute_uops);
        let base = body.compute_uops as f32 / n;
        let resid = (body.compute_uops - absorbed) as f32 / n;
        out.insert(
            site.stmt,
            SiteCost {
                core_uops_base: base,
                core_uops_resid: resid,
                addr_uops: site.index.uops(),
            },
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::analyze;
    use crate::assign::assign_streams;
    use nsc_ir::build::KernelBuilder;
    use nsc_ir::{ElemType, Expr, Program};

    #[test]
    fn residual_drops_when_compute_absorbed() {
        let mut p = Program::new("t");
        let a = p.array("a", ElemType::I64, 64);
        let b = p.array("b", ElemType::I64, 64);
        let c = p.array("c", ElemType::I64, 64);
        let mut k = KernelBuilder::new("k", 64);
        let i = k.outer_var();
        let va = k.load(a, Expr::var(i));
        let vb = k.load(b, Expr::var(i));
        let sum = k.let_(Expr::var(va) + Expr::var(vb));
        k.store(c, Expr::var(i), Expr::var(sum));
        let kernel = k.finish();
        let an = analyze(&kernel);
        let asg = assign_streams(&p, &kernel, &an);
        let costs = site_costs(&an, &asg);
        let any = costs.values().next().unwrap();
        assert!(any.core_uops_base > 0.0);
        // All compute was absorbed by the store stream.
        assert_eq!(any.core_uops_resid, 0.0);
    }

    #[test]
    fn addr_uops_reflect_index_complexity() {
        let mut p = Program::new("t");
        let a = p.array("a", ElemType::I64, 4096);
        let mut k = KernelBuilder::new("k", 64);
        let i = k.outer_var();
        k.load(a, Expr::var(i) * Expr::imm(8) + Expr::imm(3));
        let kernel = k.finish();
        let an = analyze(&kernel);
        let asg = assign_streams(&p, &kernel, &an);
        let costs = site_costs(&an, &asg);
        assert_eq!(costs.values().next().unwrap().addr_uops, 2);
    }
}
