//! Full-system simulation: cores + stream engines + caches + NoC running a
//! compiled program under one execution mode.

use crate::config::{ExecMode, SystemConfig};
use crate::engine::{offload_config_handshake, CoreState, Engine, EngineRefs, RoleCounters};
use crate::policy::{fallback, offload_style, OffloadStyle, PolicyContext};
use nsc_compiler::{CompiledKernel, CompiledProgram};
use nsc_ir::interp::{outer_trip, ExecError};
use nsc_ir::stream::{AddrPatternClass, ComputeClass};
use nsc_ir::types::Scalar;
use nsc_ir::{Memory, Program};
use nsc_mem::addr::LineAddr;
use nsc_mem::{MemStats, MemorySystem};
use nsc_noc::{Mesh, MsgClass, TileId};
use nsc_sim::error::SimError;
use nsc_sim::metrics::{self, Metric};
use nsc_sim::trace::{self, SyncPhase, TraceEvent};
use nsc_sim::{fault, resource::BandwidthLedger, Cycle, Histogram, StatsTable};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashSet};

/// Traffic totals captured at the end of a run.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct TrafficSnapshot {
    /// Non-offloaded data bytes × hops.
    pub data: u64,
    /// Coherence/prefetch control bytes × hops.
    pub control: u64,
    /// Near-data coordination and data bytes × hops.
    pub offloaded: u64,
    /// Total messages.
    pub messages: u64,
}

impl TrafficSnapshot {
    /// Total bytes × hops.
    pub fn total(&self) -> u64 {
        self.data + self.control + self.offloaded
    }

    fn capture(mesh: &Mesh) -> TrafficSnapshot {
        let t = mesh.traffic();
        TrafficSnapshot {
            data: t.bytes_hops(MsgClass::Data),
            control: t.bytes_hops(MsgClass::Control),
            offloaded: t.bytes_hops(MsgClass::Offloaded),
            messages: t.total_messages(),
        }
    }
}

/// Everything measured in one simulation run.
#[derive(Clone, Debug)]
pub struct RunResult {
    /// Execution mode label.
    pub mode: ExecMode,
    /// Total simulated cycles.
    pub cycles: u64,
    /// NoC traffic.
    pub traffic: TrafficSnapshot,
    /// Memory-hierarchy counters.
    pub mem: MemStats,
    /// µops executed on core pipelines.
    pub uops_core: f64,
    /// µops executed on stream engines (address generation + scalar PEs).
    pub uops_se: f64,
    /// µops executed on SCM contexts.
    pub uops_scm: f64,
    /// Total dynamic µops (Figure 1(a)/11 denominator).
    pub total_uops: f64,
    /// Role-wise stream/offload µop counters.
    pub roles: RoleCounters,
    /// Lock acquisitions at L3 banks.
    pub lock_acquisitions: u64,
    /// Lock conflicts at L3 banks.
    pub lock_conflicts: u64,
    /// Range-sync alias flushes taken.
    pub alias_flushes: u64,
    /// PEB flushes (core stores aliasing in-core prefetched stream data).
    pub peb_flushes: u64,
    /// Elements served by near-data offload.
    pub offloaded_elems: u64,
    /// Elements associated with streams.
    pub stream_elems: u64,
    /// DRAM line accesses.
    pub dram_accesses: u64,
    /// Distribution of per-message NoC latencies (cycles).
    pub noc_latency: Histogram,
    /// Faults injected during the run (zero unless a fault plan is armed).
    pub faults_injected: u64,
    /// Configure-handshake retries taken after injected NACKs.
    pub offload_retries: u64,
    /// Streams forced back in-core after the handshake was exhausted.
    pub offload_fallbacks: u64,
    /// Stream windows drained and replayed after forced alias-filter
    /// mis-speculations.
    pub rangesync_replays: u64,
}

impl RunResult {
    /// Speedup of this run relative to `baseline` (cycles ratio).
    pub fn speedup_over(&self, baseline: &RunResult) -> f64 {
        baseline.cycles as f64 / self.cycles.max(1) as f64
    }

    /// Traffic reduction vs `baseline` in `[0, 1]` (negative if worse).
    pub fn traffic_reduction_vs(&self, baseline: &RunResult) -> f64 {
        let b = baseline.traffic.total() as f64;
        if b == 0.0 {
            0.0
        } else {
            1.0 - self.traffic.total() as f64 / b
        }
    }

    /// Fraction of stream-associated work actually offloaded (Figure 11).
    pub fn offload_fraction(&self) -> f64 {
        let assoc: f64 = self.roles.assoc.iter().sum();
        if assoc == 0.0 {
            0.0
        } else {
            self.roles.offloaded.iter().sum::<f64>() / assoc
        }
    }

    /// Renders key metrics into a [`StatsTable`].
    pub fn to_table(&self) -> StatsTable {
        let mut t = self.mem.to_table();
        t.set("cycles", self.cycles as f64);
        t.set("traffic.data", self.traffic.data as f64);
        t.set("traffic.control", self.traffic.control as f64);
        t.set("traffic.offloaded", self.traffic.offloaded as f64);
        t.set("traffic.total", self.traffic.total() as f64);
        t.set("uops.core", self.uops_core);
        t.set("uops.se", self.uops_se);
        t.set("uops.scm", self.uops_scm);
        t.set("locks.acquisitions", self.lock_acquisitions as f64);
        t.set("locks.conflicts", self.lock_conflicts as f64);
        t.set("aliases.flushes", self.alias_flushes as f64);
        t.set("fault.injected", self.faults_injected as f64);
        t.set("offload.retries", self.offload_retries as f64);
        t.set("offload.fallbacks", self.offload_fallbacks as f64);
        t.set("rangesync.replays", self.rangesync_replays as f64);
        t
    }
}

/// The simulation proper, on an already-initialized data memory. Callers
/// go through [`crate::request::RunRequest`], which owns memory
/// initialization (and content-addresses the initialized image for the
/// result cache).
pub(crate) fn simulate(
    program: &Program,
    compiled: &CompiledProgram,
    params: &[Scalar],
    mode: ExecMode,
    cfg: &SystemConfig,
    mut data: Memory,
) -> Result<(RunResult, Memory), SimError> {
    cfg.validate()?;
    let fault_mark = fault::snapshot();

    // The paper turns hardware prefetchers off in every design except the
    // baseline (§VI: "All other designs have hardware prefetchers turned
    // off"); streams subsume them.
    let mut mem_cfg = cfg.mem;
    if mode != ExecMode::Base {
        mem_cfg.l1_spatial_prefetch = false;
        mem_cfg.l2_stride_prefetch = false;
    }
    let mut mem = MemorySystem::try_new(mem_cfg)?;
    let mut mesh = Mesh::try_new(cfg.mesh.clone())?;
    // Each tile's SCM offers n_scc concurrent contexts.
    let scm_capacity = 16 * cfg.se.n_scc.max(1);
    let mut scm = vec![BandwidthLedger::new(16, scm_capacity); cfg.mesh.tiles() as usize];
    let n_cores = cfg.n_cores;
    let mut cores: Vec<CoreState> = (0..n_cores).map(CoreState::new).collect();
    let mut alias_history: HashSet<(usize, u8)> = HashSet::new();
    // Probe outcomes survive kernel re-invocations (the SE_core's
    // miss/reuse history, paper §IV-B). Keyed by the *static* kernel
    // identity — iterative programs re-instantiate the same streams per
    // step (scatter0, scatter1, ... share one configuration).
    let mut probe_history: std::collections::HashMap<(String, u8), OffloadStyle> =
        std::collections::HashMap::new();
    let mut time = Cycle::ZERO;

    for (kidx, kernel) in program.kernels.iter().enumerate() {
        let ck = &compiled.kernels[kidx];
        let trip = outer_trip(kernel, params);
        if trip == 0 {
            continue;
        }
        let chunk = trip.div_ceil(n_cores as u64);
        let decoupled = mode == ExecMode::NsDecouple && ck.fully_decoupled;
        // Honor the sync-free pragma: NsNoSync/NsDecouple require it.
        let effective_mode = match mode {
            ExecMode::NsNoSync | ExecMode::NsDecouple if !ck.sync_free => ExecMode::Ns,
            m => m,
        };

        // ---- Kernel setup per core -------------------------------------
        for c in 0..n_cores {
            let state = &mut cores[c as usize];
            state.begin_kernel_with(time, ck.streams.len(), cfg.se.alias_filter);
            configure_streams(
                state, ck, program, effective_mode, cfg, chunk, kidx, &alias_history,
                &probe_history, &data, &mut mesh, time,
            );
        }

        // ---- Interleaved execution -------------------------------------
        let mut heap: BinaryHeap<Reverse<(Cycle, u16)>> = BinaryHeap::new();
        let mut next_iter: Vec<u64> = Vec::with_capacity(n_cores as usize);
        let mut end_iter: Vec<u64> = Vec::with_capacity(n_cores as usize);
        let mut partials: Vec<Option<Scalar>> = vec![None; n_cores as usize];
        // Pin params/consts and run the bytecode preamble once per core's
        // register file.
        let code = ck.code();
        let mut regs: Vec<Vec<Scalar>> = vec![Vec::new(); n_cores as usize];
        for r in &mut regs {
            code.init_regs(r, params);
        }
        for c in 0..n_cores {
            let lo = (c as u64 * chunk).min(trip);
            let hi = ((c as u64 + 1) * chunk).min(trip);
            next_iter.push(lo);
            end_iter.push(hi);
            if lo < hi {
                heap.push(Reverse((time, c)));
            }
        }
        let ptr_streams: Vec<usize> = ck
            .streams
            .iter()
            .enumerate()
            .filter(|(_, s)| s.pattern == AddrPatternClass::PointerChase)
            .map(|(i, _)| i)
            .collect();
        while let Some(Reverse((_, c))) = heap.pop() {
            metrics::count(Metric::EngineIterations);
            let ci = c as usize;
            let iter = next_iter[ci];
            cores[ci].begin_iteration(cfg.core.rob, decoupled);
            // Each outer iteration starts fresh pointer chains (nested
            // stream instances are independent; paper §V notes multiple
            // can run simultaneously).
            for &s in &ptr_streams {
                cores[ci].streams[s].last_completion = Cycle::ZERO;
            }
            let mut refs = EngineRefs {
                data: &mut data,
                mem: &mut mem,
                mesh: &mut mesh,
                scm: &mut scm,
            };
            let mut engine = Engine {
                state: &mut cores[ci],
                refs: &mut refs,
                compiled: ck,
                mode: effective_mode,
                cfg,
                decoupled,
            };
            let contrib = code
                .exec_iteration(iter, params, &mut engine, &mut regs[ci])
                .map_err(|e| match e {
                    ExecError::LoopCap { cap } => {
                        SimError::LoopCap { kernel: kernel.name.clone(), cap }
                    }
                })?;
            cores[ci].end_iteration();
            if let (Some(r), Some(v)) = (&kernel.outer_reduction, contrib) {
                partials[ci] = Some(match partials[ci] {
                    None => v,
                    Some(a) => r.op.eval(a, v),
                });
            }
            next_iter[ci] += 1;
            if next_iter[ci] < end_iter[ci] {
                heap.push(Reverse((cores[ci].now, c)));
            }
        }

        // Watchdog: the event queue drained, so every core must have
        // finished its iteration range — anything less is a lost wakeup,
        // not forward progress.
        let pending: Vec<String> = (0..n_cores as usize)
            .filter(|&c| next_iter[c] < end_iter[c])
            .map(|c| {
                format!(
                    "{} core {c}: iteration {}/{}",
                    kernel.name, next_iter[c], end_iter[c]
                )
            })
            .collect();
        if !pending.is_empty() {
            return Err(SimError::Wedged { pending });
        }

        // ---- Kernel teardown --------------------------------------------
        let mut kernel_end = time;
        for c in 0..n_cores {
            let end = finish_kernel(&mut cores[c as usize], ck, &mut mesh, effective_mode);
            kernel_end = kernel_end.max(end);
            for (s, rt) in cores[c as usize].streams.iter().enumerate() {
                if rt.aliased {
                    alias_history.insert((kidx, s as u8));
                }
                // Record core 0's completed probe verdicts for the next
                // invocation of this kernel configuration.
                if c == 0 && rt.deferred.is_none() && rt.probe_accesses > 0 {
                    probe_history.insert((static_kernel_key(&ck.name), s as u8), rt.style);
                }
            }
        }

        // Cross-core combine of the outer reduction, in core (= iteration)
        // order so floating-point results match the golden sequential run.
        if let Some(r) = &kernel.outer_reduction {
            let mut acc: Option<Scalar> = None;
            for p in partials.iter().flatten() {
                acc = Some(match acc {
                    None => *p,
                    Some(a) => r.op.eval(a, *p),
                });
            }
            if let Some(total) = acc {
                data.write_index(r.target, 0, total);
            }
            // Log-tree combine messages.
            let mut t = kernel_end;
            let mut stride = 1u16;
            while stride < n_cores {
                let arrive = mesh.send(t, TileId(stride), TileId(0), 8, MsgClass::Data);
                t = t.max(arrive);
                stride *= 2;
            }
            kernel_end = kernel_end.max(t);
        }

        time = kernel_end;
        for c in 0..n_cores {
            cores[c as usize].now = time;
        }
    }

    // ---- Aggregate ------------------------------------------------------
    let mut roles = RoleCounters::default();
    let mut uops_core = 0.0;
    let mut uops_se = 0.0;
    let mut uops_scm = 0.0;
    let mut total_uops = 0.0;
    let mut alias_flushes = 0u64;
    let mut peb_flushes = 0u64;
    let mut offloaded_elems = 0u64;
    let mut stream_elems = 0u64;
    let mut offload_retries = 0u64;
    let mut offload_fallbacks = 0u64;
    let mut rangesync_replays = 0u64;
    for c in &cores {
        roles.merge(&c.roles);
        uops_core += c.uops_core;
        uops_se += c.uops_se;
        uops_scm += c.uops_scm;
        total_uops += c.total_uops;
        alias_flushes = alias_flushes.saturating_add(c.alias_flushes);
        peb_flushes = peb_flushes.saturating_add(c.peb_flushes);
        offloaded_elems = offloaded_elems.saturating_add(c.offloaded_elems);
        stream_elems = stream_elems.saturating_add(c.stream_elems);
        offload_retries = offload_retries.saturating_add(c.offload_retries);
        offload_fallbacks = offload_fallbacks.saturating_add(c.offload_fallbacks);
        rangesync_replays = rangesync_replays.saturating_add(c.rangesync_replays);
    }
    // Engine-level counters feed the live metrics registry once, at this
    // aggregation point: the underlying increments are split between the
    // per-core engine and `configure_streams`, and counting the summed
    // totals here keeps the registry in lock-step with `RunResult`.
    metrics::add(Metric::AliasFlushes, alias_flushes);
    metrics::add(Metric::PebFlushes, peb_flushes);
    metrics::add(Metric::RangeSyncReplays, rangesync_replays);
    metrics::add(Metric::OffloadRetries, offload_retries);
    metrics::add(Metric::OffloadFallbacks, offload_fallbacks);
    let result = RunResult {
        mode,
        cycles: time.raw(),
        traffic: TrafficSnapshot::capture(&mesh),
        mem: *mem.stats(),
        uops_core,
        uops_se,
        uops_scm,
        total_uops,
        roles,
        lock_acquisitions: mem.locks().acquisitions(),
        lock_conflicts: mem.locks().conflicts(),
        alias_flushes,
        peb_flushes,
        offloaded_elems,
        stream_elems,
        dram_accesses: mem.dram().accesses(),
        noc_latency: mesh.traffic().latency_hist().clone(),
        faults_injected: fault::snapshot().since(&fault_mark).total(),
        offload_retries,
        offload_fallbacks,
        rangesync_replays,
    };
    Ok((result, data))
}

/// The static identity of a kernel: its name with any trailing step/round
/// digits stripped (iterative programs emit `step0`, `step1`, ... for the
/// same stream configuration).
fn static_kernel_key(name: &str) -> String {
    name.trim_end_matches(|c: char| c.is_ascii_digit()).to_owned()
}

/// Applies the offload policy and charges stream-configure messages.
#[allow(clippy::too_many_arguments)]
fn configure_streams(
    state: &mut CoreState,
    ck: &CompiledKernel,
    program: &Program,
    mode: ExecMode,
    cfg: &SystemConfig,
    chunk: u64,
    kidx: usize,
    alias_history: &HashSet<(usize, u8)>,
    probe_history: &std::collections::HashMap<(String, u8), OffloadStyle>,
    data: &Memory,
    mesh: &mut Mesh,
    time: Cycle,
) {
    let n_banks = cfg.mem.n_banks() as u64;
    let core_tile = TileId(state.core);
    // Combined per-core working set of the kernel: streams compete for the
    // private cache, so the decision considers them together.
    let mut seen_arrays = std::collections::HashSet::new();
    let mut kernel_footprint = 0u64;
    for info in &ck.streams {
        if seen_arrays.insert(info.array) {
            let b = program.decl(info.array).bytes();
            kernel_footprint += match info.pattern {
                AddrPatternClass::Affine { .. } => b / cfg.n_cores as u64,
                _ => b,
            };
        }
    }
    for (s, info) in ck.streams.iter().enumerate() {
        let arr_bytes = program.decl(info.array).bytes();
        let footprint = match info.pattern {
            AddrPatternClass::Affine { .. } if info.loop_depth == 1 => {
                arr_bytes / cfg.n_cores as u64
            }
            _ => arr_bytes,
        };
        let stream_len = chunk * if info.loop_depth > 1 { 8 } else { 1 };
        let ctx = PolicyContext {
            l2_bytes: cfg.mem.l2.size_bytes,
            footprint_bytes: footprint.max(kernel_footprint / 2),
            stream_len,
            n_banks,
            aliased_before: alias_history.contains(&(kidx, s as u8)),
            offloadable: ck.offloadable.get(s).copied().unwrap_or(false),
        };
        let style = offload_style(mode, info, &ctx, &cfg.se);
        // Borderline footprints start in-core with runtime monitoring
        // (paper §IV-B): clearly-oversized streams offload immediately.
        // Indirect-target footprints are data-dependent, so irregular
        // write streams always probe on first sight.
        let borderline = ctx.footprint_bytes <= 4 * cfg.mem.l2.size_bytes
            || (info.is_irregular() && info.role.writes());
        let deferred = style.is_near_data() && borderline && mode != ExecMode::Inst;
        if let Some(&remembered) = probe_history.get(&(static_kernel_key(&ck.name), s as u8)) {
            state.streams[s].style = remembered;
        } else if deferred {
            state.streams[s].style = OffloadStyle::CoreAccess;
            state.streams[s].deferred = Some(style);
            // Probe ~1/8 of the stream's expected distinct lines, so the
            // verdict lands with most of the stream still ahead.
            let lines = stream_len * info.elem_bytes as u64 / 64;
            state.streams[s].probe_window = (lines / 8).clamp(4, 64) as u32;
        } else {
            state.streams[s].style = style;
        }
        // Co-located group leadership: the first stream over each
        // (array, depth, irregularity) combination leads; followers (other
        // fields of the same record, other taps of the same array) share
        // its configuration, migration and synchronization messages.
        let leader = !ck.streams[..s].iter().any(|prev| {
            prev.array == info.array
                && prev.loop_depth == info.loop_depth
                && prev.is_irregular() == info.is_irregular()
                && state.streams[prev.id.0 as usize].style == style
        });
        state.streams[s].sync_leader = leader;
        // Configuration: remote styles send the Table IV configure message
        // to the bank of the array base; in-core styles configure locally.
        state.streams[s].config_time = match style {
            OffloadStyle::NearStream | OffloadStyle::FloatLoad | OffloadStyle::ChainedLine => {
                let base_line = LineAddr(data.base_of(info.array) / nsc_mem::LINE_BYTES);
                let bank = base_line.bank(n_banks) as u16;
                state.streams[s].current_bank = bank;
                if leader {
                    let (outcome, retries) = offload_config_handshake(
                        mesh,
                        time,
                        core_tile,
                        bank,
                        cfg.mem.n_banks(),
                        &cfg.se,
                        s as u16,
                    );
                    state.offload_retries = state.offload_retries.saturating_add(retries);
                    match outcome {
                        Some((final_bank, t)) => {
                            state.streams[s].current_bank = final_bank;
                            t
                        }
                        None => {
                            // Handshake exhausted (injected NACKs even
                            // after migrating): transparently fall back to
                            // the in-core style the policy would have
                            // picked had offload been rejected.
                            state.offload_fallbacks = state.offload_fallbacks.saturating_add(1);
                            state.streams[s].style = fallback(info);
                            state.streams[s].deferred = None;
                            time
                        }
                    }
                } else {
                    time + 4
                }
            }
            OffloadStyle::CorePrefetch | OffloadStyle::PerIteration => time + 4,
            OffloadStyle::CoreAccess => time,
        };
        let (at, bank) = (state.streams[s].config_time, state.streams[s].current_bank);
        let (core, style_label) = (state.core, state.streams[s].style.label());
        trace::emit(|| TraceEvent::StreamConfig {
            at,
            core,
            stream: s as u16,
            bank,
            style: style_label,
        });
    }
    // Forward-only analysis: a load stream whose value feeds offloaded
    // consumers (operand forwarding or indirect address generation) sends
    // no per-element response to the core.
    for (s, info) in ck.streams.iter().enumerate() {
        if info.role != ComputeClass::Load {
            continue;
        }
        let consumed_near = ck.streams.iter().enumerate().any(|(t, other)| {
            if t == s || !state.streams[t].style.is_near_data() {
                return false;
            }
            let is_base = matches!(other.pattern, AddrPatternClass::Indirect { base } if base == info.id);
            let is_dep = other.value_deps.contains(&info.id);
            is_base || is_dep
        });
        state.streams[s].forward_only = consumed_near;
    }
}

/// End-of-kernel stream teardown: reduction collection, end messages.
fn finish_kernel(state: &mut CoreState, ck: &CompiledKernel, mesh: &mut Mesh, mode: ExecMode) -> Cycle {
    let core_tile = TileId(state.core);
    let mut end = state.now;
    for c in state.pending_completions() {
        end = end.max(c);
    }
    for (s, info) in ck.streams.iter().enumerate() {
        let rt = &state.streams[s];
        end = end.max(rt.last_completion);
        if rt.consumed > 0 {
            let (at, core, consumed) = (rt.last_completion.max(state.now), state.core, rt.consumed);
            trace::emit(|| TraceEvent::StreamEnd {
                at,
                core,
                stream: s as u16,
                consumed,
            });
        }
        if !matches!(
            rt.effective_style(),
            OffloadStyle::NearStream | OffloadStyle::FloatLoad | OffloadStyle::ChainedLine
        ) || rt.consumed == 0
        {
            continue;
        }
        match info.role {
            ComputeClass::Reduce => {
                match info.pattern {
                    AddrPatternClass::Indirect { .. } => {
                        // Partial results collected by multicast from every
                        // visited bank (paper §IV-C "Indirect Reduction").
                        let banks: Vec<TileId> =
                            rt.visited_banks.iter().map(|b| TileId(*b)).collect();
                        let t_mc = mesh.multicast(
                            rt.last_completion,
                            core_tile,
                            &banks,
                            8,
                            MsgClass::Offloaded,
                        );
                        let mut t_all = t_mc;
                        for b in &banks {
                            let t = mesh.send(t_mc, *b, core_tile, 8, MsgClass::Offloaded);
                            t_all = t_all.max(t);
                        }
                        end = end.max(t_all);
                    }
                    _ => {
                        // Final value returns from the last bank.
                        let t = mesh.send(
                            rt.last_completion,
                            TileId(rt.current_bank),
                            core_tile,
                            8,
                            MsgClass::Offloaded,
                        );
                        end = end.max(t);
                    }
                }
            }
            _ => {
                // Data-dependent-length streams are terminated with an end
                // message (known-length streams release silently).
                if info.pattern == AddrPatternClass::PointerChase {
                    let t = mesh.send(
                        state.now,
                        core_tile,
                        TileId(rt.current_bank),
                        8,
                        MsgClass::Offloaded,
                    );
                    end = end.max(t);
                }
            }
        }
        // Under range-sync, writes must collect their final done message.
        if mode.range_sync() && info.role.writes() {
            let t1 = mesh.send(state.now, core_tile, TileId(rt.current_bank), 8, MsgClass::Offloaded);
            let t2 = mesh.send(
                t1.max(rt.last_completion),
                TileId(rt.current_bank),
                core_tile,
                8,
                MsgClass::Offloaded,
            );
            end = end.max(t2);
            let core = state.core;
            trace::emit(|| TraceEvent::RangeSync {
                at: t2,
                core,
                stream: s as u16,
                phase: SyncPhase::Release,
            });
        }
    }
    end
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SystemConfig;
    use nsc_compiler::compile;
    use nsc_ir::build::KernelBuilder;
    use nsc_ir::{ElemType, Expr};

    fn memset_program(n: u64) -> Program {
        let mut p = Program::new("memset");
        let a = p.array("a", ElemType::I64, n);
        let mut k = KernelBuilder::new("set", n);
        let i = k.outer_var();
        k.store(a, Expr::var(i), Expr::var(i) * Expr::imm(3));
        k.sync_free();
        p.push_kernel(k.finish());
        p
    }

    fn run_mode(p: &Program, mode: ExecMode) -> (RunResult, Memory) {
        let compiled = compile(p);
        let cfg = SystemConfig::small();
        crate::request::RunRequest::new(p).compiled(&compiled).mode(mode).config(&cfg).run()
    }

    #[test]
    fn memset_all_modes_compute_same_result() {
        let p = memset_program(4096);
        let mut golden = Memory::for_program(&p);
        nsc_ir::interp::run_program(&p, &mut golden, &[]);
        for mode in ExecMode::ALL {
            let (_, mem) = run_mode(&p, mode);
            for i in (0..4096).step_by(97) {
                assert_eq!(
                    mem.read_index(nsc_ir::ArrayId(0), i),
                    golden.read_index(nsc_ir::ArrayId(0), i),
                    "mode {mode:?} diverged at {i}"
                );
            }
        }
    }

    #[test]
    fn ns_beats_base_on_memset() {
        let p = memset_program(64 * 1024);
        let (base, _) = run_mode(&p, ExecMode::Base);
        let (ns, _) = run_mode(&p, ExecMode::Ns);
        assert!(
            ns.cycles < base.cycles,
            "NS {} vs Base {}",
            ns.cycles,
            base.cycles
        );
        assert!(ns.traffic.total() < base.traffic.total());
        // The runtime probe window keeps the first few hundred elements
        // in-core before offloading.
        assert!(ns.offload_fraction() > 0.8, "offload fraction {}", ns.offload_fraction());
    }

    #[test]
    fn decouple_at_least_as_fast_as_ns() {
        let p = memset_program(64 * 1024);
        let (ns, _) = run_mode(&p, ExecMode::Ns);
        let (dec, _) = run_mode(&p, ExecMode::NsDecouple);
        assert!(dec.cycles <= ns.cycles);
        assert!(dec.traffic.total() <= ns.traffic.total());
    }

    #[test]
    fn try_run_rejects_invalid_config() {
        let p = memset_program(64);
        let compiled = compile(&p);
        let mut cfg = SystemConfig::small();
        cfg.n_cores = 0;
        let err = crate::request::RunRequest::new(&p)
            .compiled(&compiled)
            .mode(ExecMode::Ns)
            .config(&cfg)
            .try_run()
            .unwrap_err();
        assert!(err.to_string().contains("n_cores"), "got: {err}");
    }

    #[test]
    fn faults_are_transparent_and_counted() {
        let n = 32 * 1024;
        let p = memset_program(n);
        let compiled = compile(&p);
        let cfg = SystemConfig::small();
        let req = || {
            crate::request::RunRequest::new(&p).compiled(&compiled).mode(ExecMode::Ns).config(&cfg)
        };
        let (clean, clean_mem) = req().run();
        assert_eq!(clean.faults_injected, 0);

        nsc_sim::fault::install(nsc_sim::fault::FaultPlan::uniform(7, 0.01));
        let (faulty, faulty_mem) = req().run();
        let stats = nsc_sim::fault::uninstall().expect("injector was armed");
        assert!(stats.total() > 0, "no faults fired at rate 0.01");
        assert_eq!(faulty.faults_injected, stats.total());
        // The invariant: faults perturb timing and traffic, never data.
        for i in (0..n).step_by(61) {
            assert_eq!(
                faulty_mem.read_index(nsc_ir::ArrayId(0), i),
                clean_mem.read_index(nsc_ir::ArrayId(0), i),
                "faulty run diverged at {i}"
            );
        }
    }

    #[test]
    fn exhausted_handshake_falls_back_in_core() {
        let n = 64 * 1024;
        let p = memset_program(n);
        let compiled = compile(&p);
        let cfg = SystemConfig::small();
        let mut plan = nsc_sim::fault::FaultPlan::none();
        plan.offload_nack = 1.0; // every configure attempt is refused
        nsc_sim::fault::install(plan);
        let (res, mem) = crate::request::RunRequest::new(&p)
            .compiled(&compiled)
            .mode(ExecMode::Ns)
            .config(&cfg)
            .run();
        nsc_sim::fault::uninstall();
        assert!(res.offload_retries > 0, "no retries despite permanent NACKs");
        assert!(res.offload_fallbacks > 0, "no stream fell back");
        // Recovery is transparent: the kernel still computes the result.
        let mut golden = Memory::for_program(&p);
        nsc_ir::interp::run_program(&p, &mut golden, &[]);
        for i in (0..n).step_by(97) {
            assert_eq!(
                mem.read_index(nsc_ir::ArrayId(0), i),
                golden.read_index(nsc_ir::ArrayId(0), i)
            );
        }
        // The report surfaces the recovery counters.
        let t = res.to_table();
        assert!(t.get("offload.fallbacks").unwrap_or(0.0) > 0.0);
        assert_eq!(t.get("rangesync.replays"), Some(res.rangesync_replays as f64));
    }
}
