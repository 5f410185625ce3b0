//! Idealized traffic models for the paper's Figure 1(b) motivation study.
//!
//! Three abstract 64-core systems are compared on pure data traffic
//! (bytes × NoC hops), with all latencies and control messages idealized
//! away:
//!
//! * **No-Priv$** — no private caches: every access moves its bytes
//!   between the core and the line's LLC bank.
//! * **Perf-Priv$** — a perfect private cache (fully-associative,
//!   byte-granularity transfers, LRU, 256 kB, zero-cost update protocol).
//! * **Perf-Near-LLC** — computation offloaded to LLC banks: stream data
//!   never travels to the core; only operand forwarding between banks and
//!   reduced results move.

use crate::config::SystemConfig;
use nsc_compiler::CompiledProgram;
use nsc_ir::interp::outer_trip;
use nsc_ir::program::{ArrayId, Field, StmtId};
use nsc_ir::stream::{AddrPatternClass, ComputeClass};
use nsc_ir::types::{AtomicOp, Scalar};
use nsc_ir::{MemClient, Memory, Program};
use nsc_mem::{Addr, Cache, CacheConfig, ReplacePolicy};
use nsc_noc::{Mesh, MsgClass, TileId};
use nsc_sim::Cycle;

/// The abstract system to model.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IdealModel {
    /// Baseline with no private caches.
    NoPrivateCache,
    /// Perfect 256 kB private cache per core.
    PerfectPrivate,
    /// Perfect near-LLC offloading.
    PerfectNearLlc,
}

impl IdealModel {
    /// Label used in Figure 1(b) output.
    pub fn label(self) -> &'static str {
        match self {
            IdealModel::NoPrivateCache => "No-Priv$",
            IdealModel::PerfectPrivate => "Perf-Priv$",
            IdealModel::PerfectNearLlc => "Perf-Near-LLC",
        }
    }
}

struct IdealClient<'a> {
    data: &'a mut Memory,
    mesh: &'a mut Mesh,
    compiled: &'a nsc_compiler::CompiledKernel,
    model: IdealModel,
    core: u16,
    cache: Option<&'a mut Cache>,
    n_banks: u64,
    /// Load statements whose values feed offloaded consumers: their data
    /// never travels (charged as operand forwarding at the consumer).
    forward_only: &'a std::collections::HashSet<nsc_ir::program::StmtId>,
}

impl IdealClient<'_> {
    fn bank_tile(&self, addr: Addr) -> TileId {
        TileId(addr.line().bank(self.n_banks) as u16)
    }

    fn charge(&mut self, stmt: StmtId, addr: Addr, bytes: u8, is_store: bool) {
        let core_tile = TileId(self.core);
        let bank = self.bank_tile(addr);
        match self.model {
            IdealModel::NoPrivateCache => {
                self.mesh.account_only(core_tile, bank, bytes as u64, MsgClass::Data);
            }
            IdealModel::PerfectPrivate => {
                let cache = self.cache.as_mut().expect("private model has a cache");
                let hit = cache.lookup(addr.line(), Cycle::ZERO).is_some();
                if !hit {
                    cache.insert(addr.line(), false, Cycle::ZERO);
                }
                // Byte-granularity fills on miss; updates always propagate
                // (zero-cost protocol means no *control*, data still moves).
                if !hit || is_store {
                    self.mesh.account_only(core_tile, bank, bytes as u64, MsgClass::Data);
                }
            }
            IdealModel::PerfectNearLlc => {
                let Some(stream) = self.compiled.stream_of(stmt) else {
                    // Not streamed: behaves like the perfect private cache.
                    let cache = self.cache.as_mut().expect("cache");
                    let hit = cache.lookup(addr.line(), Cycle::ZERO).is_some();
                    if !hit {
                        cache.insert(addr.line(), false, Cycle::ZERO);
                        self.mesh.account_only(core_tile, bank, bytes as u64, MsgClass::Data);
                    } else if is_store {
                        self.mesh.account_only(core_tile, bank, bytes as u64, MsgClass::Data);
                    }
                    return;
                };
                match stream.role {
                    // Fully near-data: reductions, stores and RMW move no
                    // data to the core; multi-operand inputs hop between
                    // banks.
                    ComputeClass::Reduce | ComputeClass::Store | ComputeClass::Rmw => {
                        for dep in &stream.value_deps {
                            let dep_bytes = self.compiled.streams[dep.0 as usize].elem_bytes;
                            // Operands travel roughly one bank apart under
                            // 64 B interleave.
                            self.mesh.account_only(
                                TileId((bank.raw() + 1) % self.n_banks as u16),
                                bank,
                                dep_bytes as u64,
                                MsgClass::Offloaded,
                            );
                        }
                    }
                    ComputeClass::Atomic => {
                        if let AddrPatternClass::Indirect { base } = stream.pattern {
                            let op_bytes = self.compiled.streams[base.0 as usize].elem_bytes;
                            self.mesh.account_only(
                                TileId((bank.raw() + 1) % self.n_banks as u16),
                                bank,
                                op_bytes as u64,
                                MsgClass::Offloaded,
                            );
                        }
                    }
                    ComputeClass::Load => {
                        if self.forward_only.contains(&stmt) {
                            // Consumed near data: charged at the consumer.
                        } else if stream.result_bytes > 0 && stream.compute_uops > 0 {
                            self.mesh.account_only(
                                bank,
                                core_tile,
                                stream.result_bytes as u64,
                                MsgClass::Offloaded,
                            );
                        } else {
                            // Plain load stream: value still goes to core.
                            self.mesh.account_only(bank, core_tile, bytes as u64, MsgClass::Data);
                        }
                    }
                }
            }
        }
    }
}

impl MemClient for IdealClient<'_> {
    fn load(&mut self, stmt: StmtId, array: ArrayId, index: u64, field: Option<Field>) -> Scalar {
        let v = self.data.read(array, index, field);
        let addr = Addr(self.data.addr_of_field(array, index, field));
        let bytes = self.data.access_bytes(array, field);
        self.charge(stmt, addr, bytes, false);
        v
    }

    fn store(&mut self, stmt: StmtId, array: ArrayId, index: u64, field: Option<Field>, value: Scalar) {
        self.data.write(array, index, field, value);
        let addr = Addr(self.data.addr_of_field(array, index, field));
        let bytes = self.data.access_bytes(array, field);
        self.charge(stmt, addr, bytes, true);
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
        let old = self.data.read(array, index, field);
        let (new, _) = op.apply(old, operand, expected);
        self.data.write(array, index, field, new);
        let addr = Addr(self.data.addr_of_field(array, index, field));
        let bytes = self.data.access_bytes(array, field);
        self.charge(stmt, addr, bytes, true);
        old
    }
}

/// Computes total bytes × hops for `program` under one ideal model.
pub fn ideal_traffic(
    program: &Program,
    compiled: &CompiledProgram,
    params: &[Scalar],
    model: IdealModel,
    cfg: &SystemConfig,
    init: &dyn Fn(&mut Memory),
) -> u64 {
    let mut data = Memory::for_program(program);
    init(&mut data);
    let mut mesh = Mesh::new(cfg.mesh.clone());
    let n_cores = cfg.n_cores;
    let mut caches: Vec<Cache> = (0..n_cores)
        .map(|_| {
            Cache::new(CacheConfig {
                size_bytes: 256 * 1024,
                ways: 64, // near-fully-associative
                latency: Cycle(1),
                policy: ReplacePolicy::Lru,
            set_skip_bits: 0,
            })
        })
        .collect();
    let mut regs = Vec::new();
    for (kidx, kernel) in program.kernels.iter().enumerate() {
        let ck = &compiled.kernels[kidx];
        let code = ck.code();
        code.init_regs(&mut regs, params);
        let trip = outer_trip(kernel, params);
        let chunk = trip.div_ceil(n_cores as u64).max(1);
        // Loads consumed by offloaded writers (operands, indirect bases)
        // never travel to the core under near-LLC computing.
        let mut forward_only = std::collections::HashSet::new();
        for w in &ck.streams {
            if w.role.writes() || w.role == ComputeClass::Reduce {
                for d in &w.value_deps {
                    forward_only.insert(ck.streams[d.0 as usize].stmt);
                }
                if let AddrPatternClass::Indirect { base } = w.pattern {
                    forward_only.insert(ck.streams[base.0 as usize].stmt);
                }
            }
        }
        let mut acc: Option<Scalar> = None;
        for i in 0..trip {
            let core = (i / chunk).min(n_cores as u64 - 1) as u16;
            let mut client = IdealClient {
                data: &mut data,
                mesh: &mut mesh,
                compiled: ck,
                model,
                core,
                cache: Some(&mut caches[core as usize]),
                n_banks: cfg.mem.n_banks() as u64,
                forward_only: &forward_only,
            };
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
            data.write_index(r.target, 0, total);
        }
    }
    mesh.traffic().total_bytes_hops()
}

#[cfg(test)]
mod tests {
    use super::*;
    use nsc_compiler::compile;
    use nsc_ir::build::KernelBuilder;
    use nsc_ir::{ElemType, Expr};

    /// Σ a[i]: perfect near-LLC should eliminate essentially all traffic.
    #[test]
    fn reduction_traffic_ordering() {
        let mut p = Program::new("sum");
        let a = p.array("a", ElemType::I64, 1 << 16);
        let out = p.array("out", ElemType::I64, 1);
        let mut k = KernelBuilder::new("sum", 1 << 16);
        let i = k.outer_var();
        let v = k.load(a, Expr::var(i));
        let acc = k.var();
        k.assign(acc, Expr::var(acc) + Expr::var(v));
        k.reduce_outer(acc, nsc_ir::BinOp::Add, out);
        p.push_kernel(k.finish());
        let compiled = compile(&p);
        let cfg = SystemConfig::small();
        let no_priv = ideal_traffic(&p, &compiled, &[], IdealModel::NoPrivateCache, &cfg, &|_| {});
        let perf = ideal_traffic(&p, &compiled, &[], IdealModel::PerfectPrivate, &cfg, &|_| {});
        let near = ideal_traffic(&p, &compiled, &[], IdealModel::PerfectNearLlc, &cfg, &|_| {});
        // Streaming data with no reuse: a perfect private cache barely
        // helps, near-LLC eliminates the traffic.
        assert!(perf <= no_priv);
        assert!(near < perf / 100, "near = {near}, perf = {perf}");
    }

    /// Repeatedly touching a small array: a perfect private cache wins big.
    #[test]
    fn private_cache_captures_reuse() {
        let mut p = Program::new("reuse");
        let a = p.array("a", ElemType::I64, 64);
        let b = p.array("b", ElemType::I64, 1 << 14);
        let mut k = KernelBuilder::new("k", 1 << 14);
        let i = k.outer_var();
        let v = k.load(a, Expr::bin(nsc_ir::BinOp::Rem, Expr::var(i), Expr::imm(64)));
        k.store(b, Expr::var(i), Expr::var(v));
        p.push_kernel(k.finish());
        let compiled = compile(&p);
        let cfg = SystemConfig::small();
        let no_priv = ideal_traffic(&p, &compiled, &[], IdealModel::NoPrivateCache, &cfg, &|_| {});
        let perf = ideal_traffic(&p, &compiled, &[], IdealModel::PerfectPrivate, &cfg, &|_| {});
        assert!(perf < no_priv);
    }
}
