//! The per-core timing engine.
//!
//! An [`Engine`] implements [`nsc_ir::MemClient`]: the kernel's lowered
//! bytecode drives it through one outer-loop iteration at a time, and
//! every memory access is charged to the cache hierarchy, NoC and stream
//! engines according to the execution mode and the compiler's stream
//! assignment. Functional semantics (the actual data values) are applied
//! to the shared [`nsc_ir::Memory`], so every mode computes bit-identical
//! results.

use crate::config::{ExecMode, SystemConfig};
use crate::policy::OffloadStyle;
use crate::range_sync::{AliasFilter, AliasFilterKind};
use nsc_compiler::CompiledKernel;
use nsc_ir::program::{ArrayId, Field, StmtId};
use nsc_ir::stream::{AddrPatternClass, ComputeClass, StreamId};
use nsc_ir::types::{AtomicOp, Scalar};
use nsc_ir::{MemClient, Memory};
use nsc_mem::addr::LineAddr;
use nsc_mem::{AccessKind, Addr, MemorySystem};
use nsc_noc::{Mesh, MsgClass, TileId};
use nsc_sim::fault::{self, FaultSite};
use nsc_sim::metrics::{self, Metric, Prof};
use nsc_sim::trace::{self, SyncPhase, TraceEvent};
use nsc_sim::{resource::BandwidthLedger, Cycle};
use std::collections::{BTreeSet, VecDeque};

/// Penalty cycles to flush and restore precise state when an offloaded
/// stream aliases with a core access (paper Figure 7(b)).
pub const ALIAS_FLUSH_PENALTY: u64 = 200;

fn role_index(role: ComputeClass) -> usize {
    match role {
        ComputeClass::Load => 0,
        ComputeClass::Store => 1,
        ComputeClass::Rmw => 2,
        ComputeClass::Atomic => 3,
        ComputeClass::Reduce => 4,
    }
}

/// Dynamic µop counters by compute class (Figures 1(a) and 11).
#[derive(Clone, Copy, Debug, Default)]
pub struct RoleCounters {
    /// µops associated with streams, by role.
    pub assoc: [f64; 5],
    /// Of those, µops whose work actually executed near data.
    pub offloaded: [f64; 5],
}

impl RoleCounters {
    /// Stream-associated µops for a role.
    pub fn assoc_of(&self, role: ComputeClass) -> f64 {
        self.assoc[role_index(role)]
    }

    /// Offloaded µops for a role.
    pub fn offloaded_of(&self, role: ComputeClass) -> f64 {
        self.offloaded[role_index(role)]
    }

    /// Merges counters.
    pub fn merge(&mut self, other: &RoleCounters) {
        for i in 0..5 {
            self.assoc[i] += other.assoc[i];
            self.offloaded[i] += other.offloaded[i];
        }
    }
}

/// Per-stream runtime state within one kernel execution on one core.
#[derive(Clone, Debug)]
pub struct StreamRt {
    /// How this stream executes (from the offload policy).
    pub style: OffloadStyle,
    /// Elements consumed so far.
    pub consumed: u64,
    /// Consumption-time history for the run-ahead window.
    recent: VecDeque<Cycle>,
    /// Completion time of the most recent element at its serving location.
    pub last_completion: Cycle,
    /// Last line touched (for per-line batching of messages).
    last_line: Option<LineAddr>,
    /// Line currently held in the SE_L3 stream buffer, and when it was
    /// ready: consecutive elements of the same line are served from the
    /// buffer without re-touching the bank.
    se_line: Option<LineAddr>,
    /// Page of the SE's cached translation (one TLB access per page,
    /// paper §IV-B).
    se_page: Option<u64>,
    /// Conservative range of elements currently sitting prefetched in the
    /// PEB (in-core streams only; paper §III-C "Memory Ordering").
    peb_range: nsc_mem::addr::AddrRange,
    /// Elements recorded in the current PEB window.
    peb_count: u32,
    /// Completion time of the buffered line.
    se_line_done: Cycle,
    /// Cached per-line forwarding latency for operand streams.
    dep_lat: u64,
    /// Outer iteration of the last synchronization boundary.
    last_sync_iter: u64,
    /// Stream may not issue further work before this time (credit pacing /
    /// commit gating under range-sync).
    resume_after: Cycle,
    /// L3 banks this stream has visited.
    pub visited_banks: BTreeSet<u16>,
    /// Bank currently hosting the stream.
    pub current_bank: u16,
    /// When the stream's configuration reached the remote SE.
    pub config_time: Cycle,
    /// The stream aliased with a core access and was flushed back in-core.
    pub aliased: bool,
    /// Rolling estimate of the commit round-trip (for atomic lock windows).
    commit_rtt: u64,
    /// Commit arrival of the previous batch (commits pipeline one batch
    /// deep: the stream stalls only when two batches are uncommitted).
    pending_commit: Cycle,
    /// Fractional SCM occupancy accumulator.
    scm_frac: f64,
    /// The stream's values feed offloaded consumers only; no per-element
    /// response to the core.
    pub forward_only: bool,
    /// Sum of outer-dep consumed counts at the last element (detects when
    /// a loop-invariant operand changed and must be re-forwarded).
    outer_dep_marker: u64,
    /// Elements since the last batched result-response message.
    resp_pending: u32,
    /// Cached per-batch response latency.
    resp_lat: u64,
    /// Leader of its co-located group (streams over the same array at the
    /// same depth, e.g. the key/left/right fields of one tree node): only
    /// the leader pays configuration, migration and synchronization
    /// messages; followers ride along.
    pub sync_leader: bool,
    /// Deferred offload decision (paper §IV-B): the stream starts in-core
    /// while SE_core records its miss and reuse rate; after the probe
    /// window it switches to this style if the miss rate is high.
    pub deferred: Option<OffloadStyle>,
    /// Probe window length in distinct lines (scaled to the stream's
    /// expected length at configuration).
    pub probe_window: u32,
    /// Probe window: accesses observed so far.
    pub probe_accesses: u32,
    /// Probe window: accesses that missed the private caches.
    pub probe_misses: u32,
    /// Distinct lines seen during the probe window.
    probe_lines: std::collections::HashSet<u64>,
    /// Total accesses (incl. repeats) during the probe window.
    pub probe_total: u32,
}

impl StreamRt {
    fn new() -> StreamRt {
        StreamRt {
            style: OffloadStyle::CoreAccess,
            consumed: 0,
            recent: VecDeque::new(),
            last_completion: Cycle::ZERO,
            last_line: None,
            se_line: None,
            se_page: None,
            peb_range: nsc_mem::addr::AddrRange::empty(),
            peb_count: 0,
            se_line_done: Cycle::ZERO,
            dep_lat: 0,
            last_sync_iter: 0,
            resume_after: Cycle::ZERO,
            visited_banks: BTreeSet::new(),
            current_bank: 0,
            config_time: Cycle::ZERO,
            aliased: false,
            commit_rtt: 60,
            pending_commit: Cycle::ZERO,
            scm_frac: 0.0,
            forward_only: false,
            outer_dep_marker: u64::MAX,
            resp_pending: 0,
            resp_lat: 30,
            sync_leader: true,
            deferred: None,
            probe_window: 64,
            probe_accesses: 0,
            probe_misses: 0,
            probe_lines: std::collections::HashSet::new(),
            probe_total: 0,
        }
    }

    /// The effective style (aliased streams fall back in-core).
    pub fn effective_style(&self) -> OffloadStyle {
        if self.aliased {
            OffloadStyle::CoreAccess
        } else {
            self.style
        }
    }
}

/// Timing state of one core, persisted across iterations of a kernel.
#[derive(Clone, Debug)]
pub struct CoreState {
    /// Core id.
    pub core: u16,
    /// Issue cursor.
    pub now: Cycle,
    uop_credit: f64,
    /// Completion times of recent iterations (ROB window).
    iter_ring: VecDeque<Cycle>,
    /// Completion times of outstanding loads (LQ window).
    load_ring: VecDeque<Cycle>,
    /// Per-stream runtime state.
    pub streams: Vec<StreamRt>,
    /// Offloaded-range alias filter (range-sync).
    pub ranges: AliasFilter,
    iter_max_completion: Cycle,
    /// Outer-iteration counter within the current kernel (range-sync fires
    /// every R iterations, paper §IV-B).
    pub cur_iter: u64,
    iter_uops: f64,
    total_iter_uops: f64,
    iters_done: u64,
    /// Kernel start time (streams cannot run ahead of it).
    pub kernel_start: Cycle,
    /// µops executed by the core pipeline.
    pub uops_core: f64,
    /// µops executed by stream engines (address generation, scalar PE).
    pub uops_se: f64,
    /// µops executed by SCM thread contexts.
    pub uops_scm: f64,
    /// Total dynamic µops (denominator for fractions).
    pub total_uops: f64,
    /// Role-wise counters.
    pub roles: RoleCounters,
    /// Number of alias flushes taken.
    pub alias_flushes: u64,
    /// PEB flushes: an in-core store aliased prefetched stream data
    /// (paper §III-C: "all prefetched elements are flushed and reissued").
    pub peb_flushes: u64,
    /// Offloaded elements (for reporting).
    pub offloaded_elems: u64,
    /// Stream-associated elements.
    pub stream_elems: u64,
    /// Configure-handshake retries taken after injected NACKs.
    pub offload_retries: u64,
    /// Streams forced back in-core after the handshake was exhausted.
    pub offload_fallbacks: u64,
    /// Stream windows drained and replayed after a forced alias-filter
    /// mis-speculation.
    pub rangesync_replays: u64,
}

impl CoreState {
    /// Creates an idle core at time zero.
    pub fn new(core: u16) -> CoreState {
        CoreState {
            core,
            now: Cycle::ZERO,
            uop_credit: 0.0,
            iter_ring: VecDeque::new(),
            load_ring: VecDeque::new(),
            streams: Vec::new(),
            ranges: AliasFilter::default(),
            iter_max_completion: Cycle::ZERO,
            cur_iter: 0,
            iter_uops: 0.0,
            total_iter_uops: 0.0,
            iters_done: 0,
            kernel_start: Cycle::ZERO,
            uops_core: 0.0,
            uops_se: 0.0,
            uops_scm: 0.0,
            total_uops: 0.0,
            roles: RoleCounters::default(),
            alias_flushes: 0,
            peb_flushes: 0,
            offloaded_elems: 0,
            stream_elems: 0,
            offload_retries: 0,
            offload_fallbacks: 0,
            rangesync_replays: 0,
        }
    }

    /// Resets per-kernel state (streams, rings, ranges) at a kernel
    /// barrier; accumulated counters are kept.
    pub fn begin_kernel_with(&mut self, start: Cycle, n_streams: usize, filter: AliasFilterKind) {
        self.ranges = AliasFilter::new(filter);
        self.begin_kernel(start, n_streams);
    }

    /// Like [`CoreState::begin_kernel_with`] keeping the current filter
    /// kind.
    pub fn begin_kernel(&mut self, start: Cycle, n_streams: usize) {
        self.now = start;
        self.kernel_start = start;
        self.uop_credit = 0.0;
        self.iter_ring.clear();
        self.load_ring.clear();
        self.streams = (0..n_streams).map(|_| StreamRt::new()).collect();
        self.ranges.clear();
        self.iter_max_completion = start;
        self.cur_iter = 0;
        self.iter_uops = 0.0;
        self.total_iter_uops = 0.0;
        self.iters_done = 0;
    }

    fn charge_core_uops(&mut self, uops: f64, width: u32) {
        self.uops_core += uops;
        self.iter_uops += uops;
        self.uop_credit += uops / width as f64;
        let whole = self.uop_credit.floor();
        if whole >= 1.0 {
            self.now += whole as u64;
            self.uop_credit -= whole;
        }
    }

    /// Marks the start of an outer iteration, applying the ROB window
    /// constraint against older iterations.
    pub fn begin_iteration(&mut self, rob: u32, decoupled: bool) {
        let window = if decoupled {
            256
        } else if self.iters_done > 0 {
            let avg = self.total_iter_uops / self.iters_done as f64;
            ((rob as f64 / avg.max(1.0)) as usize).clamp(1, 64)
        } else {
            4
        };
        while self.iter_ring.len() >= window {
            let oldest = self.iter_ring.pop_front().expect("non-empty ring");
            self.now = self.now.max(oldest);
        }
        self.iter_max_completion = self.now;
        self.iter_uops = 0.0;
    }

    /// Completion times of iterations still in flight (for kernel-end
    /// accounting).
    pub fn pending_completions(&self) -> impl Iterator<Item = Cycle> + '_ {
        self.iter_ring.iter().copied()
    }

    /// Marks the end of an outer iteration (in-order commit point).
    pub fn end_iteration(&mut self) {
        let done = self.iter_max_completion.max(self.now);
        self.iter_ring.push_back(done);
        self.total_iter_uops += self.iter_uops;
        self.iters_done += 1;
        self.cur_iter += 1;
    }

    fn note_completion(&mut self, c: Cycle) {
        self.iter_max_completion = self.iter_max_completion.max(c);
    }

    fn load_slot(&mut self, lq: u32, completion: Cycle) {
        while self.load_ring.len() >= lq as usize {
            let oldest = self.load_ring.pop_front().expect("non-empty ring");
            self.now = self.now.max(oldest);
        }
        self.load_ring.push_back(completion);
    }
}

/// Shared mutable system references handed to the engine per iteration.
pub struct EngineRefs<'a> {
    /// Functional data memory.
    pub data: &'a mut Memory,
    /// The coherent cache hierarchy.
    pub mem: &'a mut MemorySystem,
    /// The NoC.
    pub mesh: &'a mut Mesh,
    /// Per-tile SCM occupancy (shared compute contexts).
    pub scm: &'a mut [BandwidthLedger],
}

/// The per-iteration execution engine: bytecode memory client plus
/// timing model.
pub struct Engine<'a, 'r> {
    /// Core timing state.
    pub state: &'a mut CoreState,
    /// Shared system references.
    pub refs: &'a mut EngineRefs<'r>,
    /// Compiler output for the running kernel.
    pub compiled: &'a CompiledKernel,
    /// Execution mode.
    pub mode: ExecMode,
    /// System configuration.
    pub cfg: &'a SystemConfig,
    /// The kernel runs fully decoupled (NSDecouple only).
    pub decoupled: bool,
}

/// Sends a stream-configure message and models the SE_L3's ack,
/// recovering from injected NACKs (chaos mode): bounded retries with
/// linear backoff, then one transparent migration to the neighbouring
/// bank, then giving up so the caller falls back to in-core execution.
///
/// Returns `(Some((bank, ack_time)), retries)` on success — `bank` is the
/// bank that finally accepted, which differs from the requested one after
/// a migration — and `(None, retries)` when the handshake was exhausted.
/// With no fault injector armed the first send always succeeds, so this
/// is timing-identical to a plain `mesh.send`.
pub(crate) fn offload_config_handshake(
    mesh: &mut Mesh,
    time: Cycle,
    core_tile: TileId,
    bank: u16,
    n_banks: u16,
    se: &crate::config::SeConfig,
    stream: u16,
) -> (Option<(u16, Cycle)>, u64) {
    let bytes = nsc_ir::encoding::ComputeConfig::config_message_bytes();
    let core = core_tile.raw();
    let mut t = time;
    let mut try_bank = bank;
    let mut migrated = false;
    let mut attempt = 0u64;
    let mut retries = 0u64;
    loop {
        let t_ack = mesh.send(t, core_tile, TileId(try_bank), bytes, MsgClass::Offloaded);
        if !fault::inject(FaultSite::OffloadNack) {
            return (Some((try_bank, t_ack)), retries);
        }
        trace::emit(|| TraceEvent::Fault {
            at: t_ack,
            core,
            site: FaultSite::OffloadNack.label(),
        });
        if attempt < se.offload_max_retries as u64 {
            attempt += 1;
            retries += 1;
            trace::emit(|| TraceEvent::Recovery { at: t_ack, core, stream, action: "retry" });
            t = t_ack + se.offload_retry_backoff * attempt;
        } else if !migrated && n_banks > 1 {
            // The bank keeps refusing: move the stream next door and start
            // the retry budget over.
            migrated = true;
            attempt = 0;
            try_bank = (try_bank + 1) % n_banks;
            trace::emit(|| TraceEvent::Recovery { at: t_ack, core, stream, action: "migrate" });
            t = t_ack + se.offload_retry_backoff;
        } else {
            trace::emit(|| TraceEvent::Recovery { at: t_ack, core, stream, action: "fallback" });
            return (None, retries);
        }
    }
}

impl Engine<'_, '_> {
    fn core_tile(&self) -> TileId {
        TileId(self.state.core)
    }

    fn vw(&self) -> f64 {
        self.compiled.vector_width as f64
    }

    /// Run-ahead issue time for the next element of a stream. In-core
    /// streams are bounded by the SE_core FIFO; offloaded streams by the
    /// SE_L3 stream buffer.
    fn runahead_issue(&mut self, sid: StreamId) -> Cycle {
        let d = match self.state.streams[sid.0 as usize].effective_style() {
            OffloadStyle::NearStream | OffloadStyle::FloatLoad | OffloadStyle::ChainedLine => {
                self.cfg.se.l3_buffer_elems as usize
            }
            _ => self.cfg.se.runahead_elems as usize,
        };
        let now = self.state.now;
        let rt = &mut self.state.streams[sid.0 as usize];
        let t = if rt.recent.len() >= d {
            rt.recent.pop_front().expect("non-empty window")
        } else {
            rt.config_time
        };
        rt.recent.push_back(now);
        let issue = t.max(rt.config_time).max(rt.resume_after);
        let depth = rt.recent.len();
        trace::sample("se.queue", self.state.core, now, || depth as f64);
        issue
    }

    /// Whether a stream's stores fully overwrite their lines (unit-stride
    /// affine store): the bank may install lines without fetching.
    fn full_line_store(&self, sid: StreamId) -> bool {
        let info = &self.compiled.streams[sid.0 as usize];
        info.role == ComputeClass::Store
            && matches!(info.pattern,
                AddrPatternClass::Affine { stride_bytes } if stride_bytes.unsigned_abs() == info.elem_bytes as u64)
    }

    /// Executes one element access at the stream's L3 bank, handling
    /// migration bookkeeping; returns completion time at the bank.
    ///
    /// Consecutive elements of one line are served from the SE_L3 stream
    /// buffer: the bank is touched once per line (the stream buffer holds
    /// operands and results until written back, paper Figure 6).
    fn l3_elem(&mut self, sid: StreamId, addr: Addr, kind: AccessKind, issue: Cycle) -> Cycle {
        let line = addr.line();
        {
            let rt = &self.state.streams[sid.0 as usize];
            if rt.se_line == Some(line) {
                return rt.se_line_done.max(issue);
            }
        }
        let bank = self.refs.mem.bank_of(line);
        let mut issue = issue;
        // Injected SE_L3 bank stall window (chaos mode): the bank is busy
        // or briefly offline, so the element waits it out.
        if fault::inject(FaultSite::BankStall) {
            let (at, core) = (issue, self.state.core);
            trace::emit(|| TraceEvent::Fault { at, core, site: FaultSite::BankStall.label() });
            issue += fault::penalty(FaultSite::BankStall);
        }
        // One TLB access per page transition; the SE caches the current
        // translation (paper §IV-B).
        let page = addr.raw() >> nsc_mem::tlb::HUGE_PAGE_BITS;
        if self.state.streams[sid.0 as usize].se_page != Some(page) {
            self.state.streams[sid.0 as usize].se_page = Some(page);
            issue = issue.max(self.refs.mem.se_translate(issue, addr));
        }
        {
            let prev = self.state.streams[sid.0 as usize].current_bank;
            let first = self.state.streams[sid.0 as usize].visited_banks.is_empty();
            if first {
                self.state.streams[sid.0 as usize].current_bank = bank;
            } else if prev != bank {
                // Stream migration: state moves to the next bank
                // (paper §IV-B "Stream Migrate & End"). Co-located group
                // followers migrate with their leader for free, and
                // indirect streams don't migrate at all — each element's
                // request (charged by the caller) carries the state.
                let is_indirect = matches!(
                    self.compiled.streams[sid.0 as usize].pattern,
                    AddrPatternClass::Indirect { .. }
                );
                if self.state.streams[sid.0 as usize].sync_leader && !is_indirect {
                    // Compact migration (paper §IV-D): banks that have seen
                    // this stream keep its configuration; only the
                    // changing fields travel.
                    let revisit = self.state.streams[sid.0 as usize].visited_banks.contains(&bank);
                    let bytes = if self.cfg.se.compact_migration && revisit { 4 } else { 16 };
                    let t = self
                        .refs
                        .mesh
                        .send(issue, TileId(prev), TileId(bank), bytes, MsgClass::Offloaded);
                    issue = issue.max(t);
                    let core = self.state.core;
                    trace::emit(|| TraceEvent::StreamMigrate {
                        at: issue,
                        core,
                        stream: sid.0 as u16,
                        from_bank: prev,
                        to_bank: bank,
                    });
                }
                self.state.streams[sid.0 as usize].current_bank = bank;
            }
            self.state.streams[sid.0 as usize].visited_banks.insert(bank);
        }
        let full_line = self.full_line_store(sid);
        let done = self
            .refs
            .mem
            .l3_stream_access_opts(issue, addr, kind, full_line, self.refs.mesh);
        let rt = &mut self.state.streams[sid.0 as usize];
        rt.se_line = Some(line);
        rt.se_line_done = done;
        done
    }

    /// Near-stream computation at the serving tile: scalar PE for simple
    /// ops, SCM contexts otherwise (paper §III-C / §IV-B "Compute in
    /// SE_L3").
    fn near_compute(&mut self, tile: u16, ready: Cycle, uops: u32, needs_scm: bool, sid: StreamId) -> Cycle {
        if uops == 0 {
            return ready;
        }
        let se = &self.cfg.se;
        if !needs_scm && se.scalar_pe {
            self.state.uops_se += uops as f64;
            let done = ready + se.scalar_pe_latency + uops as u64;
            metrics::profile(Prof::ScmCompute, done.raw().saturating_sub(ready.raw()));
            return done;
        }
        // SCM path: issue latency plus throughput bounded by the SCC ROB.
        self.state.uops_scm += uops as f64;
        let throughput = (se.scc_rob as f64 / 16.0).clamp(0.5, 4.0) * se.n_scc as f64 / 2.0;
        let occ_f = uops as f64 / throughput / self.vw();
        let rt = &mut self.state.streams[sid.0 as usize];
        rt.scm_frac += occ_f;
        let occ = rt.scm_frac.floor() as u64;
        rt.scm_frac -= occ as f64;
        let done = self.refs.scm[tile as usize].book(ready + se.scm_issue_latency, occ.max(1));
        trace::sample("se.scm_busy", tile, done, || {
            self.refs.scm[tile as usize].total_booked() as f64
        });
        metrics::profile(Prof::ScmCompute, (done + 1).raw().saturating_sub(ready.raw()));
        done + 1
    }

    /// Synchronization boundary processing every R elements
    /// (paper Figure 7(a)).
    fn sync_boundary(&mut self, sid: StreamId, role: ComputeClass, irregular: bool, elem_done: Cycle) {
        if !self.state.streams[sid.0 as usize].sync_leader {
            return;
        }
        // Boundaries every R outer iterations (paper §IV-B: "after
        // collecting ranges for a few iterations (currently 8)"); a
        // vectorized hardware iteration covers vector_width elements.
        let r = (self.cfg.se.range_granularity * self.compiled.vector_width) as u64;
        let cur = self.state.cur_iter;
        let core_tile = self.core_tile();
        let (bank, fire) = {
            let rt = &mut self.state.streams[sid.0 as usize];
            if cur.saturating_sub(rt.last_sync_iter) < r {
                (0, false)
            } else {
                rt.last_sync_iter = cur;
                (rt.current_bank, true)
            }
        };
        if !fire {
            return;
        }
        let bank_tile = TileId(bank);
        let now = self.state.now;
        let core = self.state.core;
        trace::emit(|| TraceEvent::RangeSync {
            at: now,
            core,
            stream: sid.0 as u16,
            phase: SyncPhase::Acquire,
        });
        match self.mode {
            ExecMode::Ns => {
                // Credits core -> SE_L3.
                let t_credit =
                    self.refs.mesh.send(now, core_tile, bank_tile, 8, MsgClass::Offloaded);
                metrics::profile(Prof::SyncBoundary, t_credit.raw().saturating_sub(now.raw()));
                // Range report SE_L3 -> core (affine ranges are built at
                // SE_core by default, Figure 15).
                if irregular || !self.cfg.se.affine_ranges_at_core {
                    self.refs
                        .mesh
                        .send(elem_done, bank_tile, core_tile, 16, MsgClass::Offloaded);
                }
                if role.writes() {
                    // Commit message, then a "done" reply releasing credits.
                    let t_commit = self.refs.mesh.send(
                        now.max(elem_done),
                        core_tile,
                        bank_tile,
                        8,
                        MsgClass::Offloaded,
                    );
                    let t_done =
                        self.refs
                            .mesh
                            .send(t_commit, bank_tile, core_tile, 8, MsgClass::Offloaded);
                    trace::emit(|| TraceEvent::RangeSync {
                        at: t_done,
                        core,
                        stream: sid.0 as u16,
                        phase: SyncPhase::Release,
                    });
                    let rt = &mut self.state.streams[sid.0 as usize];
                    // Double-buffered credits: this batch's commit only
                    // gates the batch after next.
                    rt.resume_after = rt.pending_commit;
                    rt.pending_commit = t_commit;
                    rt.commit_rtt = (t_done - now.max(elem_done)).raw().max(1);
                }
            }
            ExecMode::NsNoSync | ExecMode::NsDecouple => {
                // Progress/credit message only (paper §V: "streams still
                // report their progress to SE_core").
                let t_credit =
                    self.refs.mesh.send(now, core_tile, bank_tile, 8, MsgClass::Offloaded);
                metrics::profile(Prof::SyncBoundary, t_credit.raw().saturating_sub(now.raw()));
            }
            _ => {}
        }
    }

    /// Shared per-access timing dispatch. Returns when the value is
    /// available to the core (loads) or when the core may proceed.
    #[allow(clippy::too_many_arguments)]
    fn charge(
        &mut self,
        stmt: StmtId,
        addr: Addr,
        bytes: u8,
        kind: AccessKind,
        role_hint: ComputeClass,
        modifies: bool,
    ) -> Cycle {
        let cost = self
            .compiled
            .site_cost_vec
            .get(stmt.0 as usize)
            .copied()
            .unwrap_or_default();
        let sid = self
            .compiled
            .stream_vec
            .get(stmt.0 as usize)
            .copied()
            .flatten();
        let vw = self.vw();
        let base_uops = (1.0 + cost.addr_uops as f64 + cost.core_uops_base as f64) / vw;
        self.state.total_uops += base_uops;

        let style = sid
            .map(|s| self.state.streams[s.0 as usize].effective_style())
            .unwrap_or(OffloadStyle::CoreAccess);
        let stream_role = sid.map(|s| self.compiled.streams[s.0 as usize].role);

        if let (Some(s), Some(role)) = (sid, stream_role) {
            self.state.stream_elems += 1;
            let absorbed = (cost.core_uops_base - cost.core_uops_resid).max(0.0) as f64;
            let assoc = (1.0 + cost.addr_uops as f64 + absorbed) / vw;
            self.state.roles.assoc[role_index(role)] += assoc;
            if style.is_near_data() || style == OffloadStyle::FloatLoad {
                self.state.roles.offloaded[role_index(role)] += assoc;
                self.state.offloaded_elems += 1;
            }
            self.state.streams[s.0 as usize].consumed += 1;
        }

        let t0 = self.state.now;
        let done = match style {
            OffloadStyle::CoreAccess => self.do_core_access(addr, bytes, kind, cost, sid),
            OffloadStyle::CorePrefetch => self.do_core_prefetch(addr, kind, cost, sid.expect("streamed")),
            OffloadStyle::FloatLoad => self.do_float_load(addr, cost, sid.expect("streamed")),
            OffloadStyle::NearStream => {
                self.do_near_stream(addr, bytes, kind, cost, sid.expect("streamed"), modifies)
            }
            OffloadStyle::PerIteration => {
                self.do_per_iteration(addr, kind, cost, sid.expect("streamed"), modifies, role_hint)
            }
            OffloadStyle::ChainedLine => {
                self.do_chained_line(addr, kind, cost, sid.expect("streamed"), modifies)
            }
        };
        let (dm, dp) = match style {
            OffloadStyle::CoreAccess => (Metric::DispatchCoreAccess, Prof::EngineCoreAccess),
            OffloadStyle::CorePrefetch => (Metric::DispatchCorePrefetch, Prof::EngineCorePrefetch),
            OffloadStyle::FloatLoad => (Metric::DispatchFloatLoad, Prof::EngineFloatLoad),
            OffloadStyle::NearStream => (Metric::DispatchNearStream, Prof::EngineNearStream),
            OffloadStyle::PerIteration => (Metric::DispatchPerIteration, Prof::EnginePerIteration),
            OffloadStyle::ChainedLine => (Metric::DispatchChainedLine, Prof::EngineChainedLine),
        };
        metrics::count(dm);
        metrics::profile(dp, done.raw().saturating_sub(t0.raw()));
        if let Some(s) = sid {
            let core = self.state.core;
            let bank = self.state.streams[s.0 as usize].current_bank;
            let end = self.state.streams[s.0 as usize].last_completion.max(t0);
            trace::emit(|| TraceEvent::StreamStep {
                start: t0,
                end,
                core,
                stream: s.0 as u16,
                bank,
            });
        }
        done
    }

    fn do_core_access(
        &mut self,
        addr: Addr,
        bytes: u8,
        kind: AccessKind,
        cost: nsc_compiler::SiteCost,
        sid: Option<StreamId>,
    ) -> Cycle {
        // Range-sync alias check against offloaded streams (paper §IV-B
        // "Precise State").
        if self.mode.range_sync() {
            if let Some(victim) = self.state.ranges.check_core_access(addr, bytes as u64) {
                self.state.streams[victim.0 as usize].aliased = true;
                self.state.ranges.remove(victim);
                self.state.alias_flushes = self.state.alias_flushes.saturating_add(1);
                self.state.now += ALIAS_FLUSH_PENALTY;
                let (at, core) = (self.state.now, self.state.core);
                trace::emit(|| TraceEvent::RangeSync {
                    at,
                    core,
                    stream: victim.0 as u16,
                    phase: SyncPhase::Conflict,
                });
            } else if fault::inject(FaultSite::AliasMisSpec) {
                // Forced alias-filter false positive (chaos mode): drain
                // the stream's in-flight window and replay it. Unlike a
                // true alias the stream stays offloaded — the filter was
                // wrong, not the program — so only timing is lost.
                if let Some(v) = self
                    .state
                    .streams
                    .iter()
                    .position(|rt| rt.effective_style().is_near_data())
                {
                    let rt = &mut self.state.streams[v];
                    rt.recent.clear();
                    rt.se_line = None;
                    rt.last_line = None;
                    self.state.rangesync_replays = self.state.rangesync_replays.saturating_add(1);
                    self.state.now += ALIAS_FLUSH_PENALTY;
                    let (at, core) = (self.state.now, self.state.core);
                    trace::emit(|| TraceEvent::Fault {
                        at,
                        core,
                        site: FaultSite::AliasMisSpec.label(),
                    });
                    trace::emit(|| TraceEvent::Recovery {
                        at,
                        core,
                        stream: v as u16,
                        action: "replay",
                    });
                }
            }
        }
        // PEB disambiguation: a core store that aliases in-core prefetched
        // stream data flushes and reissues those elements (paper §III-C).
        if kind.is_write() && self.mode.uses_streams() {
            for rt in self.state.streams.iter_mut() {
                if rt.effective_style() == OffloadStyle::CorePrefetch
                    && rt.peb_range.touches(addr, bytes as u64)
                {
                    rt.peb_range = nsc_mem::addr::AddrRange::empty();
                    rt.peb_count = 0;
                    // Reissue: the stream loses its buffered lead.
                    rt.recent.clear();
                    rt.se_line = None;
                    self.state.peb_flushes = self.state.peb_flushes.saturating_add(1);
                    self.state.now += 20;
                }
            }
        }
        let uops = (1.0 + cost.addr_uops as f64 + cost.core_uops_base as f64) / self.vw();
        self.state.charge_core_uops(uops, self.cfg.core.width);
        let mut issue = self.state.now;
        // Dependence on an earlier stream element (indirect base value).
        if let Some(s) = sid {
            if let AddrPatternClass::Indirect { base } = self.compiled.streams[s.0 as usize].pattern {
                issue = issue.max(self.state.streams[base.0 as usize].last_completion);
            }
        }
        let (completion, served) = self
            .refs
            .mem
            .access_classified(issue, self.state.core, addr, kind, self.refs.mesh);
        if kind == AccessKind::Load {
            self.state.load_slot(self.cfg.core.lq, completion);
        }
        self.state.note_completion(completion);
        if let Some(s) = sid {
            self.state.streams[s.0 as usize].last_completion = completion;
            // Deferred offload: SE_core monitors the probe window and
            // offloads high-miss/no-reuse streams (paper §IV-B "records
            // its miss and reuse rate in the private cache").
            let rt = &mut self.state.streams[s.0 as usize];
            if let Some(target) = rt.deferred {
                // Streaming data misses once per distinct line; reused
                // data revisits lines and hits; *contended* data revisits
                // lines but keeps missing (invalidated by other cores).
                rt.probe_total += 1;
                if rt.probe_lines.insert(addr.line().raw()) {
                    rt.probe_accesses += 1;
                }
                if served > nsc_mem::ServedBy::L2 {
                    rt.probe_misses += 1;
                }
                let window_done = rt.probe_accesses >= rt.probe_window
                    || rt.probe_total >= 16 * rt.probe_window;
                if window_done {
                    // Streaming: misses track distinct lines. Contention:
                    // misses track total accesses. Reuse: neither.
                    let streaming = rt.probe_accesses >= rt.probe_window
                        && rt.probe_misses as f64 >= 0.4 * rt.probe_accesses as f64;
                    let contended = rt.probe_misses as f64 >= 0.25 * rt.probe_total as f64;
                    rt.deferred = None;
                    rt.probe_lines.clear();
                    if streaming || contended {
                        let bank = rt.current_bank;
                        let (at, core) = (self.state.now, self.state.core);
                        trace::emit(|| TraceEvent::OffloadDecision {
                            at,
                            core,
                            stream: s.0 as u16,
                            style: target.label(),
                            reason: if streaming { "probe-streaming" } else { "probe-contended" },
                        });
                        let (outcome, hs_retries) = offload_config_handshake(
                            self.refs.mesh,
                            self.state.now,
                            TileId(core),
                            bank,
                            self.cfg.mem.n_banks(),
                            &self.cfg.se,
                            s.0 as u16,
                        );
                        self.state.offload_retries = self.state.offload_retries.saturating_add(hs_retries);
                        if let Some((final_bank, t)) = outcome {
                            {
                                let rt = &mut self.state.streams[s.0 as usize];
                                rt.style = target;
                                rt.current_bank = final_bank;
                                rt.config_time = t;
                            }
                            // The verdict applies to the whole co-located
                            // group: followers share the leader's fate (a
                            // stencil's taps stand or fall together).
                            let me = &self.compiled.streams[s.0 as usize];
                            let (arr, depth, irr) = (me.array, me.loop_depth, me.is_irregular());
                            for (o, info) in self.compiled.streams.iter().enumerate() {
                                if o != s.0 as usize
                                    && info.array == arr
                                    && info.loop_depth == depth
                                    && info.is_irregular() == irr
                                    && self.state.streams[o].deferred.is_some()
                                {
                                    self.state.streams[o].deferred = None;
                                    self.state.streams[o].style = target;
                                    self.state.streams[o].config_time = t;
                                }
                            }
                        } else {
                            // Handshake exhausted: the stream keeps running
                            // in-core for the rest of this kernel.
                            self.state.offload_fallbacks = self.state.offload_fallbacks.saturating_add(1);
                        }
                    }
                }
            }
        }
        completion
    }

    fn do_core_prefetch(
        &mut self,
        addr: Addr,
        kind: AccessKind,
        cost: nsc_compiler::SiteCost,
        sid: StreamId,
    ) -> Cycle {
        // SE_core generates the address and prefetches ahead; data still
        // flows through the private caches to the core.
        self.state.uops_se += cost.addr_uops as f64 / self.vw();
        let uops = (1.0 + cost.core_uops_base as f64) / self.vw();
        self.state.charge_core_uops(uops, self.cfg.core.width);
        let mut pf_issue = self.runahead_issue(sid);
        if let AddrPatternClass::Indirect { base } = self.compiled.streams[sid.0 as usize].pattern {
            pf_issue = pf_issue.max(self.state.streams[base.0 as usize].last_completion);
        }
        if self.compiled.streams[sid.0 as usize].pattern == AddrPatternClass::PointerChase {
            pf_issue = pf_issue.max(self.state.streams[sid.0 as usize].last_completion);
        }
        let completion = self
            .refs
            .mem
            .access(pf_issue, self.state.core, addr, kind, self.refs.mesh);
        let ready = completion.max(self.state.now + self.cfg.mem.l1.latency.raw());
        if kind == AccessKind::Load {
            self.state.load_slot(self.cfg.core.lq, ready);
        }
        self.state.note_completion(ready);
        {
            // Track the window of prefetched-but-unordered elements in the
            // PEB (a logical load-queue extension; paper §III-C).
            let d = self.cfg.se.runahead_elems;
            let rt = &mut self.state.streams[sid.0 as usize];
            rt.last_completion = completion;
            if rt.peb_count >= d {
                rt.peb_range = nsc_mem::addr::AddrRange::empty();
                rt.peb_count = 0;
            }
            rt.peb_range.extend(addr, self.refs.data.access_bytes(
                self.compiled.streams[sid.0 as usize].array,
                None,
            ) as u64);
            rt.peb_count += 1;
        }
        ready
    }

    fn do_float_load(&mut self, addr: Addr, cost: nsc_compiler::SiteCost, sid: StreamId) -> Cycle {
        // Stream floated to L3: SE_L3 reads the line and forwards it to
        // the core, bypassing the private hierarchy.
        self.state.uops_se += (1.0 + cost.addr_uops as f64) / self.vw();
        let uops = (1.0 + cost.core_uops_base as f64) / self.vw();
        self.state.charge_core_uops(uops, self.cfg.core.width);
        let mut issue = self.runahead_issue(sid);
        if let AddrPatternClass::Indirect { base } = self.compiled.streams[sid.0 as usize].pattern {
            issue = issue.max(self.state.streams[base.0 as usize].last_completion);
        }
        let bank_done = self.l3_elem(sid, addr, AccessKind::Load, issue);
        let line = addr.line();
        let core_tile = self.core_tile();
        let (send_needed, bank) = {
            let rt = &mut self.state.streams[sid.0 as usize];
            let changed = rt.last_line != Some(line);
            rt.last_line = Some(line);
            (changed, rt.current_bank)
        };
        // Co-located group followers ride the leader's forwarded line.
        let leader = self.state.streams[sid.0 as usize].sync_leader;
        let arrival = if send_needed && leader {
            let t = self
                .refs
                .mesh
                .send(bank_done, TileId(bank), core_tile, 64, MsgClass::Offloaded);
            self.state.streams[sid.0 as usize].dep_lat = (t - bank_done).raw();
            t
        } else {
            let lat = self.state.streams[sid.0 as usize].dep_lat.max(24);
            bank_done + lat
        };
        self.sync_boundary_credit_only(sid);
        let ready = arrival.max(self.state.now + 1);
        self.state.load_slot(self.cfg.core.lq, ready);
        self.state.note_completion(ready);
        self.state.streams[sid.0 as usize].last_completion = bank_done;
        ready
    }

    /// Flow-control credits for floated streams (every R elements).
    fn sync_boundary_credit_only(&mut self, sid: StreamId) {
        if !self.state.streams[sid.0 as usize].sync_leader {
            return;
        }
        let r = (self.cfg.se.range_granularity * self.compiled.vector_width) as u64;
        let core_tile = self.core_tile();
        let cur = self.state.cur_iter;
        let rt = &mut self.state.streams[sid.0 as usize];
        if cur.saturating_sub(rt.last_sync_iter) >= r {
            rt.last_sync_iter = cur;
            let bank = rt.current_bank;
            self.refs
                .mesh
                .send(self.state.now, core_tile, TileId(bank), 8, MsgClass::Offloaded);
        }
    }

    fn do_near_stream(
        &mut self,
        addr: Addr,
        bytes: u8,
        kind: AccessKind,
        cost: nsc_compiler::SiteCost,
        sid: StreamId,
        modifies: bool,
    ) -> Cycle {
        // Reborrow `compiled` at its full lifetime, detached from `self`:
        // the dependence list can then be iterated while `self` is mutated,
        // without cloning a Vec on every element.
        let compiled = self.compiled;
        let info = &compiled.streams[sid.0 as usize];
        let role = info.role;
        let pattern = info.pattern;
        let compute_uops = info.compute_uops;
        let needs_scm = info.needs_scm;
        let result_bytes = info.result_bytes;
        let value_deps = &info.value_deps;
        let forward_only = self.state.streams[sid.0 as usize].forward_only;
        let irregular = info.is_irregular();

        // Residual core work: streams execute autonomously; the core only
        // steps them (s_step) and runs non-absorbed compute.
        let core_uops = if self.decoupled {
            0.05
        } else {
            (0.2 + cost.core_uops_resid as f64) / self.vw()
        };
        self.state.uops_se += (1.0 + cost.addr_uops as f64) / self.vw();
        self.state.charge_core_uops(core_uops, self.cfg.core.width);

        // Issue time: run-ahead window, plus dependences.
        let mut issue = self.runahead_issue(sid);
        match pattern {
            AddrPatternClass::Indirect { base } => {
                // The base stream's bank generates the indirect request.
                let base_done = self.state.streams[base.0 as usize].last_completion;
                let base_bank = self.state.streams[base.0 as usize].current_bank;
                let target_bank = self.refs.mem.bank_of(addr.line());
                let t = self.refs.mesh.send(
                    issue.max(base_done),
                    TileId(base_bank),
                    TileId(target_bank),
                    16,
                    MsgClass::Offloaded,
                );
                issue = t;
            }
            AddrPatternClass::PointerChase => {
                issue = issue.max(self.state.streams[sid.0 as usize].last_completion);
            }
            AddrPatternClass::Affine { .. } => {}
        }

        // Operand forwarding for multi-operand stores/RMW (Figure 2(b)).
        let line = addr.line();
        let line_changed = self.state.streams[sid.0 as usize].last_line != Some(line);
        if role.writes() && !value_deps.is_empty() {
            let target_bank = self.refs.mem.bank_of(line);
            let depth = info.loop_depth;
            let base_array = match pattern {
                AddrPatternClass::Indirect { base } => Some(self.compiled.streams[base.0 as usize].array),
                _ => None,
            };
            let outer_marker: u64 = value_deps
                .iter()
                .filter(|d| self.compiled.streams[d.0 as usize].loop_depth < depth)
                .map(|d| self.state.streams[d.0 as usize].consumed)
                .sum();
            let outer_changed = {
                let rt = &mut self.state.streams[sid.0 as usize];
                let changed = rt.outer_dep_marker != outer_marker;
                rt.outer_dep_marker = outer_marker;
                changed
            };
            for dep in value_deps {
                let dep_info = &self.compiled.streams[dep.0 as usize];
                // Values co-located with the indirect base ride the
                // indirect request itself (paper §II-B: "A[i] is included
                // in such an indirect request").
                if Some(dep_info.array) == base_array {
                    let dep_done = self.state.streams[dep.0 as usize].last_completion;
                    issue = issue.max(dep_done);
                    continue;
                }
                let dep_done = self.state.streams[dep.0 as usize].last_completion;
                let dep_bank = self.state.streams[dep.0 as usize].current_bank;
                if dep_info.loop_depth < depth {
                    // Loop-invariant for the nested stream: forwarded once
                    // per outer iteration with the configuration (Fig 4d).
                    if outer_changed {
                        let t = self.refs.mesh.send(
                            dep_done,
                            TileId(dep_bank),
                            TileId(target_bank),
                            16,
                            MsgClass::Offloaded,
                        );
                        issue = issue.max(t);
                    }
                    continue;
                }
                // Overlapping taps of one array (stencil neighbours) share
                // a single forwarded line: only the group leader pays.
                let forwards = self.state.streams[dep.0 as usize].sync_leader;
                let arrival = if line_changed && forwards {
                    // One line-worth of operand data per line of the store.
                    let t = self.refs.mesh.send(
                        dep_done,
                        TileId(dep_bank),
                        TileId(target_bank),
                        64,
                        MsgClass::Offloaded,
                    );
                    self.state.streams[sid.0 as usize].dep_lat = (t - dep_done).raw();
                    t
                } else {
                    dep_done + self.state.streams[sid.0 as usize].dep_lat
                };
                issue = issue.max(arrival);
            }
        }
        self.state.streams[sid.0 as usize].last_line = Some(line);

        // The element's memory work at its bank.
        let bank_done = match role {
            ComputeClass::Atomic => {
                
                self.l3_elem_atomic(sid, addr, issue, modifies)
            }
            _ => self.l3_elem(sid, addr, kind, issue),
        };

        // Attached computation near the data.
        let bank = self.state.streams[sid.0 as usize].current_bank;
        let computed = self.near_compute(bank, bank_done, compute_uops, needs_scm, sid);
        self.state.streams[sid.0 as usize].last_completion = computed;
        // Credit-bounded autonomy: offloaded progress is tied to the
        // core's commit point (paper Figure 7 — the core allots credits as
        // it commits, so a stream can run at most the credit window ahead).
        // Feeding element completions into the in-order commit window
        // provides exactly that backpressure.
        self.state.note_completion(computed);

        // Range bookkeeping under range-sync. Relaxed atomics are exempt
        // from alias checks (paper §III-B: they may be reordered with
        // other accesses and must not be used for synchronization).
        if self.mode.range_sync() {
            if matches!(role, ComputeClass::Store | ComputeClass::Rmw) {
                self.state.ranges.record(sid, addr, bytes as u64);
            }
            // Atomics that return a value to the core keep their line
            // locked until the commit round-trip completes (paper §IV-C:
            // "the locked window is much longer if we have to send back
            // the value"). Result-free atomics issue after the commit and
            // lock only for the operation itself.
            if role == ComputeClass::Atomic && result_bytes > 0 {
                let rtt = self.state.streams[sid.0 as usize].commit_rtt;
                self.refs
                    .mem
                    .extend_lock(computed, addr, computed + rtt, modifies);
            }
        }
        self.sync_boundary(sid, role, irregular, computed);

        // What returns to the core?
        match role {
            ComputeClass::Store | ComputeClass::Rmw | ComputeClass::Reduce => {
                // Nothing per element.
                self.state.now
            }
            ComputeClass::Atomic if result_bytes == 0 => self.state.now,
            _ => {
                if forward_only {
                    self.state.now
                } else {
                    // Results batch into one message per 16 elements (the
                    // SE accumulates them in the stream buffer).
                    const RESP_BATCH: u32 = 16;
                    let core_tile = self.core_tile();
                    let arrival = {
                        let pend = {
                            let rt = &mut self.state.streams[sid.0 as usize];
                            rt.resp_pending += 1;
                            rt.resp_pending
                        };
                        if pend >= RESP_BATCH {
                            let t = self.refs.mesh.send(
                                computed,
                                TileId(bank),
                                core_tile,
                                (result_bytes.max(1) as u64) * RESP_BATCH as u64,
                                MsgClass::Offloaded,
                            );
                            let rt = &mut self.state.streams[sid.0 as usize];
                            rt.resp_pending = 0;
                            rt.resp_lat = (t - computed).raw().max(1);
                            t
                        } else {
                            computed + self.state.streams[sid.0 as usize].resp_lat
                        }
                    };
                    let ready = arrival.max(self.state.now + 1);
                    self.state.load_slot(self.cfg.core.lq, ready);
                    self.state.note_completion(ready);
                    ready
                }
            }
        }
    }

    /// Atomic element at its L3 bank, including migration bookkeeping.
    ///
    /// Consecutive atomics from the same stream to the same line proceed
    /// without re-acquiring the lock: they are ordered by the SE_L3
    /// (paper §IV-C "Atomics from the same stream can always proceed").
    fn l3_elem_atomic(&mut self, sid: StreamId, addr: Addr, issue: Cycle, modifies: bool) -> Cycle {
        let line = addr.line();
        let bank = self.refs.mem.bank_of(line);
        {
            let rt = &mut self.state.streams[sid.0 as usize];
            rt.visited_banks.insert(bank);
            rt.current_bank = bank;
            if rt.se_line == Some(line) {
                let done = rt.se_line_done.max(issue) + self.cfg.mem.atomic_op_cycles;
                rt.se_line_done = done;
                return done;
            }
        }
        let mut issue = issue;
        if fault::inject(FaultSite::BankStall) {
            let (at, core) = (issue, self.state.core);
            trace::emit(|| TraceEvent::Fault { at, core, site: FaultSite::BankStall.label() });
            issue += fault::penalty(FaultSite::BankStall);
        }
        let done = self.refs.mem.l3_atomic(issue, addr, modifies, self.refs.mesh);
        let rt = &mut self.state.streams[sid.0 as usize];
        rt.se_line = Some(line);
        rt.se_line_done = done;
        done
    }

    fn do_per_iteration(
        &mut self,
        addr: Addr,
        kind: AccessKind,
        cost: nsc_compiler::SiteCost,
        sid: StreamId,
        modifies: bool,
        _role_hint: ComputeClass,
    ) -> Cycle {
        // INST: one offload request per element, operands shipped with the
        // request, result/ack returned — no autonomy.
        let info = &self.compiled.streams[sid.0 as usize];
        let operand_bytes: u64 = info
            .value_deps
            .iter()
            .map(|d| self.compiled.streams[d.0 as usize].elem_bytes as u64)
            .sum();
        let compute_uops = info.compute_uops;
        let needs_scm = info.needs_scm;
        let role = info.role;
        let uops = (2.0 + cost.addr_uops as f64 + cost.core_uops_resid as f64) / self.vw();
        self.state.charge_core_uops(uops, self.cfg.core.width);
        let mut issue = self.state.now;
        if let AddrPatternClass::Indirect { base } = info.pattern {
            issue = issue.max(self.state.streams[base.0 as usize].last_completion);
        }
        let target = self.refs.mem.bank_tile(addr.line());
        let core_tile = self.core_tile();
        let t_req = self
            .refs
            .mesh
            .send(issue, core_tile, target, 32 + operand_bytes, MsgClass::Offloaded);
        let t_mem = match role {
            ComputeClass::Atomic => self.refs.mem.l3_atomic(t_req, addr, modifies, self.refs.mesh),
            _ => self.refs.mem.l3_stream_access(t_req, addr, kind, self.refs.mesh),
        };
        let bank = self.refs.mem.bank_of(addr.line());
        self.state.streams[sid.0 as usize].current_bank = bank;
        let t_comp = self.near_compute(bank, t_mem, compute_uops, needs_scm, sid);
        let t_ack = self
            .refs
            .mesh
            .send(t_comp, target, core_tile, 8, MsgClass::Offloaded);
        self.state.load_slot(self.cfg.core.lq, t_ack);
        self.state.note_completion(t_ack);
        self.state.streams[sid.0 as usize].last_completion = t_comp;
        t_ack
    }

    fn do_chained_line(
        &mut self,
        addr: Addr,
        kind: AccessKind,
        cost: nsc_compiler::SiteCost,
        sid: StreamId,
        modifies: bool,
    ) -> Cycle {
        // SINGLE: chained single-cache-line functions. Autonomous — the
        // next invocation is forwarded bank-to-bank — but one line at a
        // time and with no multi-operand support.
        let info = &self.compiled.streams[sid.0 as usize];
        let compute_uops = info.compute_uops;
        let needs_scm = info.needs_scm;
        let role = info.role;
        let pattern = info.pattern;
        let uops = (0.2 + cost.core_uops_resid as f64) / self.vw();
        self.state.uops_se += (1.0 + cost.addr_uops as f64) / self.vw();
        self.state.charge_core_uops(uops, self.cfg.core.width);

        let line = addr.line();
        let target_bank = self.refs.mem.bank_of(line);
        let mut issue = self.runahead_issue(sid);
        let (line_changed, prev_bank, first) = {
            let rt = &mut self.state.streams[sid.0 as usize];
            let changed = rt.last_line != Some(line);
            let first = rt.last_line.is_none();
            (changed, rt.current_bank, first)
        };
        if pattern == AddrPatternClass::PointerChase {
            issue = issue.max(self.state.streams[sid.0 as usize].last_completion);
        }
        if line_changed && self.state.streams[sid.0 as usize].sync_leader {
            // Invocation: from the core for the first line, chained
            // bank-to-bank afterwards.
            let from = if first { self.core_tile() } else { TileId(prev_bank) };
            let chain_ready = issue.max(self.state.streams[sid.0 as usize].last_completion);
            let t = self
                .refs
                .mesh
                .send(chain_ready, from, TileId(target_bank), 16, MsgClass::Offloaded);
            issue = issue.max(t);
        }
        {
            let rt = &mut self.state.streams[sid.0 as usize];
            rt.last_line = Some(line);
            rt.current_bank = target_bank;
            rt.visited_banks.insert(target_bank);
        }
        let t_mem = match role {
            ComputeClass::Atomic => self.refs.mem.l3_atomic(issue, addr, modifies, self.refs.mesh),
            _ => {
                let cached = self.state.streams[sid.0 as usize].se_line == Some(line);
                if cached {
                    self.state.streams[sid.0 as usize].se_line_done.max(issue)
                } else {
                    let done = self.refs.mem.l3_stream_access_opts(
                        issue,
                        addr,
                        kind,
                        self.full_line_store(sid),
                        self.refs.mesh,
                    );
                    let rt = &mut self.state.streams[sid.0 as usize];
                    rt.se_line = Some(line);
                    rt.se_line_done = done;
                    done
                }
            }
        };
        let t_comp = self.near_compute(target_bank, t_mem, compute_uops, needs_scm, sid);
        self.state.streams[sid.0 as usize].last_completion = t_comp;
        self.state.note_completion(t_comp);
        // Store/RMW/reduce: nothing returns per element (sync-free).
        self.state.now
    }
}

impl MemClient for Engine<'_, '_> {
    fn load(&mut self, stmt: StmtId, array: ArrayId, index: u64, field: Option<Field>) -> Scalar {
        let value = self.refs.data.read(array, index, field);
        let addr = Addr(self.refs.data.addr_of_field(array, index, field));
        let bytes = self.refs.data.access_bytes(array, field);
        self.charge(stmt, addr, bytes, AccessKind::Load, ComputeClass::Load, false);
        value
    }

    fn store(&mut self, stmt: StmtId, array: ArrayId, index: u64, field: Option<Field>, value: Scalar) {
        self.refs.data.write(array, index, field, value);
        let addr = Addr(self.refs.data.addr_of_field(array, index, field));
        let bytes = self.refs.data.access_bytes(array, field);
        self.charge(stmt, addr, bytes, AccessKind::Store, ComputeClass::Store, true);
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
        let old = self.refs.data.read(array, index, field);
        let (new, modified) = op.apply(old, operand, expected);
        self.refs.data.write(array, index, field, new);
        let addr = Addr(self.refs.data.addr_of_field(array, index, field));
        let bytes = self.refs.data.access_bytes(array, field);
        self.charge(stmt, addr, bytes, AccessKind::Atomic, ComputeClass::Atomic, modified);
        old
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn role_counters_merge_and_query() {
        let mut a = RoleCounters::default();
        a.assoc[role_index(ComputeClass::Load)] = 3.0;
        a.offloaded[role_index(ComputeClass::Load)] = 2.0;
        let mut b = RoleCounters::default();
        b.assoc[role_index(ComputeClass::Load)] = 1.0;
        a.merge(&b);
        assert_eq!(a.assoc_of(ComputeClass::Load), 4.0);
        assert_eq!(a.offloaded_of(ComputeClass::Load), 2.0);
        assert_eq!(a.assoc_of(ComputeClass::Store), 0.0);
    }

    #[test]
    fn aliased_stream_falls_back_in_core() {
        let mut rt = StreamRt::new();
        rt.style = crate::policy::OffloadStyle::NearStream;
        assert_eq!(rt.effective_style(), crate::policy::OffloadStyle::NearStream);
        rt.aliased = true;
        assert_eq!(rt.effective_style(), crate::policy::OffloadStyle::CoreAccess);
    }

    #[test]
    fn core_uop_charging_advances_time_fractionally() {
        let mut c = CoreState::new(0);
        c.begin_kernel(Cycle(100), 0);
        for _ in 0..8 {
            c.charge_core_uops(1.0, 8); // 8-wide: one cycle per 8 uops
        }
        assert_eq!(c.now, Cycle(101));
        assert_eq!(c.uops_core, 8.0);
    }

    #[test]
    fn iteration_window_applies_backpressure() {
        let mut c = CoreState::new(0);
        c.begin_kernel(Cycle::ZERO, 0);
        // Iterations that each "complete" far in the future: once the
        // window fills, `now` must jump to the oldest completion.
        for i in 0..10u64 {
            c.begin_iteration(4, false); // tiny ROB -> small window
            c.note_completion(Cycle(1000 * (i + 1)));
            c.charge_core_uops(10.0, 4);
            c.end_iteration();
        }
        assert!(c.now >= Cycle(1000), "window never constrained: now={}", c.now);
    }

    #[test]
    fn load_slots_bound_outstanding_loads() {
        let mut c = CoreState::new(0);
        c.begin_kernel(Cycle::ZERO, 0);
        for i in 0..4u64 {
            c.load_slot(4, Cycle(500 + i));
        }
        assert_eq!(c.now, Cycle::ZERO);
        c.load_slot(4, Cycle(900)); // fifth outstanding load stalls
        assert_eq!(c.now, Cycle(500));
    }

    #[test]
    fn kernel_reset_clears_stream_state() {
        let mut c = CoreState::new(3);
        c.begin_kernel(Cycle(10), 2);
        c.streams[0].consumed = 99;
        c.streams[0].aliased = true;
        c.begin_kernel(Cycle(20), 2);
        assert_eq!(c.streams[0].consumed, 0);
        assert!(!c.streams[0].aliased);
        assert_eq!(c.now, Cycle(20));
        assert_eq!(c.kernel_start, Cycle(20));
    }
}
