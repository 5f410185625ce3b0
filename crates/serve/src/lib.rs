//! `nscd`: the near-stream simulation service.
//!
//! The evaluation harnesses call [`near_stream::RunRequest`] in
//! process; this crate puts the same engine behind a Unix socket so
//! simulations can be submitted from shell scripts, other languages, or
//! several processes at once — all sharing one worker pool and one
//! result cache. Two binaries:
//!
//! * `nscd` — the daemon ([`server::serve`]): accepts connections on a
//!   Unix socket, reads newline-delimited JSON requests, fans `run`
//!   requests across the shared [`nsc_sim::pool::ThreadPool`],
//!   consults the content-addressed result cache ([`nsc_sim::cache`])
//!   before simulating, and streams responses back **in submission
//!   order** per connection.
//! * `nsc-client` — a thin CLI ([`client`]): `submit`, `status`,
//!   `flush`, `shutdown` subcommands speaking the same protocol.
//!
//! # Wire protocol
//!
//! One JSON object per line (see [`json`] for the exact subset), client
//! to daemon:
//!
//! ```text
//! {"op":"run","id":1,"request_id":81985529216486895,"workload":"histogram","size":"tiny","mode":"NS"}
//! {"op":"status","id":2}
//! {"op":"metrics","id":3}
//! {"op":"logs","id":4}
//! {"op":"trace","id":5,"request_id":81985529216486895}
//! {"op":"inspect","id":6}
//! {"op":"inspect","id":7,"key":"00c5…32 hex digits…9e"}
//! {"op":"flush","id":8}
//! {"op":"shutdown","id":9}
//! ```
//!
//! and back, in submission order:
//!
//! ```text
//! {"id":1,"ok":true,"request_id":81985529216486895,"cached":false,"workload":"histogram","mode":"NS","blob":"schema=nsc-run-v1\n...","latency":"{...}"}
//! {"id":2,"ok":true,"served":12,"cache_hits":8,"cache_misses":4,"jobs":8,...}
//! {"id":3,"ok":true,"schema":"nsc-metrics-v1","snapshot":"{...}"}
//! {"id":4,"ok":true,"count":17,"dropped":0,"lines":"{...}\n{...}\n"}
//! {"id":5,"ok":true,"request_id":81985529216486895,"wall_us":812,"spans":9,"tree":"{...}"}
//! {"id":6,"ok":true,"enabled":true,"hot_hits":8,"hot_bytes":41320,"cold_evictions":2,...,"hottest":"00c5…9e:5 77ab…01:2"}
//! {"id":8,"ok":true,"flushed":7}
//! {"id":9,"ok":true}
//! ```
//!
//! Both sides of the protocol have typed spellings: [`Request`] for the
//! client-to-daemon lines and [`Response`] for the daemon-to-client
//! lines; each `render`s to exactly the flat object above and `parse`s
//! back losslessly. The `inspect` op reports the tiered result cache
//! (per-tier hits/misses/bytes/evictions, budgets, hottest keys, and —
//! with an optional 32-hex-digit `"key"` — one entry's residency).
//!
//! The `snapshot` of a `metrics` response is a full
//! [`nsc_sim::metrics`] registry snapshot (schema `nsc-metrics-v1`)
//! rendered as single-line JSON and carried as an escaped string field:
//! the wire protocol itself stays flat (strings/integers/booleans
//! only), and the client re-parses the nested document with
//! [`nsc_sim::json::parse`]. The `latency` of a `run` response and the
//! `tree` of a `trace` response travel the same way: they carry one
//! request's span tree ([`nsc_sim::span`], schema `nsc-span-v1`), and
//! are the *same* tree — the daemon seals it once, at delivery time.
//! The `lines` of a `logs` response is a newline-joined drain of the
//! [`nsc_sim::log`] flight recorder.
//!
//! Every `run` carries a 64-bit `request_id`, minted by the client (the
//! daemon mints one when the field is absent or zero) and echoed in the
//! response; it keys the daemon's bounded per-request trace store that
//! the `trace` op reads. A `request_id` reused within one connection is
//! rejected with a typed error. `trace` accepts an optional
//! `"perfetto":true` flag asking for a combined Chrome trace-event
//! document (serve spans + that run's sim events on one timeline).
//!
//! # Overload behavior
//!
//! A `run` may carry `"deadline_ms":N`; if the run is still queued when
//! that budget (measured from line arrival) expires, it is shed before
//! simulating. When the daemon's bounded admission queue
//! (`NSC_QUEUE_CAP`) is full, cache hits are still answered inline
//! (degraded mode) and misses get an immediate typed shed. Shed
//! responses are `ok:false` plus a `"shed"` reason — `"overloaded"`
//! (with a `"retry_after_ms"` hint), `"deadline_exceeded"`, or
//! `"shutting_down"` — see [`shed_obj`]. A completed `request_id`
//! resubmitted on a later connection is answered by replaying the
//! stored response (`"deduped":true`) instead of re-simulating, which
//! is what makes client retries after a lost response idempotent.
//!
//! The `blob` of a `run` response is the result-cache record
//! ([`near_stream::request::encode`]): every `f64` travels by bit
//! pattern, so a client-side [`near_stream::request::decode`] recovers
//! the daemon's [`RunResult`] exactly. `status` and `flush` responses
//! ride the same ordered response stream, which makes `flush` a drain
//! barrier: by the time its response arrives, every earlier `run` on
//! that connection has completed and been delivered.

pub mod client;
pub mod json;
pub mod server;

use json::Obj;
use near_stream::request::{self, CachedRun};
use near_stream::{ExecMode, RunResult};
use nsc_bench::{size_from_str, size_label};
use nsc_sim::cache::{self, CacheStore, TierStats, TieredCache};
use nsc_sim::span::SpanTrace;
use nsc_sim::fault::FaultStats;
use nsc_workloads::Size;

/// A parsed protocol request.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Simulate `workload` at `size` under `mode` (cache-aware).
    Run {
        /// Client-chosen correlation id, echoed in the response.
        id: u64,
        /// Request trace id (0 = unset; the daemon mints one). Unique
        /// per connection; keys the daemon's trace store.
        request_id: u64,
        /// Table VI workload name.
        workload: String,
        /// Input scale.
        size: Size,
        /// Execution mode.
        mode: ExecMode,
        /// Per-request deadline in milliseconds, measured from the
        /// moment the request line started arriving (0 = the daemon's
        /// `NSC_DEADLINE_MS` default, which itself defaults to none).
        /// An admitted run whose deadline has already passed at dequeue
        /// is shed with a typed `deadline_exceeded` response instead of
        /// simulating.
        deadline_ms: u64,
    },
    /// Report served/cache/pool counters.
    Status {
        /// Correlation id.
        id: u64,
    },
    /// Dump the daemon's full metrics-registry snapshot.
    Metrics {
        /// Correlation id.
        id: u64,
    },
    /// Drain the daemon's log flight recorder.
    Logs {
        /// Correlation id.
        id: u64,
    },
    /// Fetch one request's sealed span tree from the trace store.
    Trace {
        /// Correlation id.
        id: u64,
        /// The run to look up.
        request_id: u64,
        /// Also return a combined Perfetto document (serve spans + that
        /// run's simulator events).
        perfetto: bool,
    },
    /// Report tiered result-cache statistics (per-tier counters,
    /// budgets, hottest keys; optionally one key's residency).
    Inspect {
        /// Correlation id.
        id: u64,
        /// Optional 32-hex-digit cache key to probe individually.
        key: Option<String>,
    },
    /// Drain: respond once every earlier request has been answered.
    Flush {
        /// Correlation id.
        id: u64,
    },
    /// Graceful shutdown: drain in-flight runs, then stop accepting.
    Shutdown {
        /// Correlation id.
        id: u64,
    },
}

impl Request {
    /// Parses one request line. `Err((id, message))` carries the
    /// request's id when one could be extracted (0 otherwise) so the
    /// server can still correlate the error response.
    pub fn parse(line: &str) -> Result<Request, (u64, String)> {
        let obj = Obj::parse(line).ok_or((0, format!("malformed request line: {line:?}")))?;
        let id = obj.get_num("id").ok_or((0, "missing numeric \"id\"".to_owned()))?;
        let op = obj.get_str("op").ok_or((id, "missing \"op\"".to_owned()))?;
        match op {
            "run" => {
                let workload = obj
                    .get_str("workload")
                    .ok_or((id, "run needs \"workload\"".to_owned()))?
                    .to_owned();
                let size_s = obj.get_str("size").unwrap_or("small");
                let size = size_from_str(size_s)
                    .ok_or((id, format!("unknown size: {size_s:?} (want tiny|small|full)")))?;
                let mode_s = obj.get_str("mode").unwrap_or("NS");
                let mode = ExecMode::parse(mode_s)
                    .ok_or((id, format!("unknown mode: {mode_s:?}")))?;
                let request_id = obj.get_num("request_id").unwrap_or(0);
                let deadline_ms = obj.get_num("deadline_ms").unwrap_or(0);
                Ok(Request::Run { id, request_id, workload, size, mode, deadline_ms })
            }
            "status" => Ok(Request::Status { id }),
            "metrics" => Ok(Request::Metrics { id }),
            "logs" => Ok(Request::Logs { id }),
            "trace" => {
                let request_id = obj
                    .get_num("request_id")
                    .ok_or((id, "trace needs numeric \"request_id\"".to_owned()))?;
                let perfetto = obj.get_bool("perfetto").unwrap_or(false);
                Ok(Request::Trace { id, request_id, perfetto })
            }
            "inspect" => {
                let key = obj.get_str("key").map(str::to_owned);
                Ok(Request::Inspect { id, key })
            }
            "flush" => Ok(Request::Flush { id }),
            "shutdown" => Ok(Request::Shutdown { id }),
            other => Err((id, format!("unknown op: {other:?}"))),
        }
    }

    /// Renders the request as one protocol line (client side).
    pub fn render(&self) -> String {
        match self {
            Request::Run { id, request_id, workload, size, mode, deadline_ms } => {
                let mut o = Obj::new()
                    .str("op", "run")
                    .num("id", *id)
                    .str("workload", workload)
                    .str("size", size_label(*size))
                    .str("mode", mode.label());
                if *request_id != 0 {
                    o = o.num("request_id", *request_id);
                }
                if *deadline_ms != 0 {
                    o = o.num("deadline_ms", *deadline_ms);
                }
                o.render()
            }
            Request::Status { id } => Obj::new().str("op", "status").num("id", *id).render(),
            Request::Metrics { id } => Obj::new().str("op", "metrics").num("id", *id).render(),
            Request::Logs { id } => Obj::new().str("op", "logs").num("id", *id).render(),
            Request::Trace { id, request_id, perfetto } => {
                let mut o = Obj::new()
                    .str("op", "trace")
                    .num("id", *id)
                    .num("request_id", *request_id);
                if *perfetto {
                    o = o.bool("perfetto", true);
                }
                o.render()
            }
            Request::Inspect { id, key } => {
                let mut o = Obj::new().str("op", "inspect").num("id", *id);
                if let Some(k) = key {
                    o = o.str("key", k);
                }
                o.render()
            }
            Request::Flush { id } => Obj::new().str("op", "flush").num("id", *id).render(),
            Request::Shutdown { id } => Obj::new().str("op", "shutdown").num("id", *id).render(),
        }
    }

    /// The request's correlation id.
    pub fn id(&self) -> u64 {
        match self {
            Request::Run { id, .. }
            | Request::Status { id }
            | Request::Metrics { id }
            | Request::Logs { id }
            | Request::Trace { id, .. }
            | Request::Inspect { id, .. }
            | Request::Flush { id }
            | Request::Shutdown { id } => *id,
        }
    }
}

/// One key's residency in the tiered cache, as reported by `inspect`
/// with a `"key"` argument.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct KeyReport {
    /// The probed key (32 hex digits).
    pub key: String,
    /// Resident in the in-memory hot tier.
    pub in_hot: bool,
    /// Present in the on-disk cold tier.
    pub in_cold: bool,
    /// Stored size in bytes (cold file size if on disk).
    pub bytes: u64,
    /// Hot-tier hits since the key was (re)admitted.
    pub hits: u64,
}

/// The payload of an `inspect` response: the daemon's tiered
/// result-cache state, flattened onto the wire as `hot_*` / `cold_*`
/// fields plus budgets and a space-joined `"hex:hits"` hottest list.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct InspectBody {
    /// Whether cache consultation is armed in the daemon process.
    pub enabled: bool,
    /// Hot-tier (in-memory LRU) counters and occupancy.
    pub hot: TierStats,
    /// Cold-tier (on-disk) counters and occupancy.
    pub cold: TierStats,
    /// Hot-tier byte budget (`0` = tier disabled).
    pub mem_budget: u64,
    /// Cold-tier byte budget (`0` = unbounded).
    pub disk_budget: u64,
    /// Whether cold-tier records are stored compressed.
    pub compress: bool,
    /// Hottest hot-tier keys, `"<hex>:<hits>"` space-joined, hottest
    /// first (empty when the hot tier is cold or disabled).
    pub hottest: String,
    /// Residency of the individually probed key, when one was given.
    pub key: Option<KeyReport>,
}

/// A parsed protocol response — the daemon-to-client mirror of
/// [`Request`]. The daemon renders each handler's outcome through this
/// type (one flat object per line, same shapes as documented in the
/// module docs) and clients parse lines back into it losslessly.
#[derive(Clone, Debug, PartialEq)]
pub enum Response {
    /// A completed `run`: the result blob plus its provenance.
    Run {
        /// Correlation id, echoed from the request.
        id: u64,
        /// The run's trace id (client-minted or daemon-minted).
        request_id: u64,
        /// Whether the result was replayed from the result cache.
        cached: bool,
        /// Whether an idempotent resubmission replayed a stored
        /// response instead of re-simulating.
        deduped: bool,
        /// Workload name, echoed.
        workload: String,
        /// Execution mode, echoed.
        mode: ExecMode,
        /// The run's simulated cycle count.
        cycles: u64,
        /// The result-cache record ([`near_stream::request::encode`]).
        blob: String,
        /// The sealed span tree (`nsc-span-v1` JSON), appended by the
        /// daemon at delivery time; absent until then.
        latency: Option<String>,
    },
    /// Daemon counters (`status`).
    Status {
        /// Correlation id.
        id: u64,
        /// Runs completed since startup.
        served: u64,
        /// Result-cache hits (both tiers).
        cache_hits: u64,
        /// Result-cache misses (no tier could answer).
        cache_misses: u64,
        /// Worker-pool width.
        jobs: u64,
        /// Whether the result cache is armed.
        cache_enabled: bool,
        /// Milliseconds since the daemon started.
        uptime_ms: u64,
        /// Runs currently simulating.
        in_flight: u64,
        /// Runs admitted but not yet completed.
        queue_depth: u64,
        /// Admission-queue capacity.
        queue_cap: u64,
        /// Live connections.
        conns: u64,
        /// Connection cap.
        max_conns: u64,
    },
    /// A full metrics-registry snapshot (`metrics`).
    Metrics {
        /// Correlation id.
        id: u64,
        /// Snapshot schema (`nsc-metrics-v1`).
        schema: String,
        /// The registry snapshot as escaped single-line JSON.
        snapshot: String,
    },
    /// A drain of the log flight recorder (`logs`).
    Logs {
        /// Correlation id.
        id: u64,
        /// Records drained.
        count: u64,
        /// Records lost to ring overflow since the last drain.
        dropped: u64,
        /// Newline-joined rendered records.
        lines: String,
    },
    /// One request's sealed span tree (`trace`).
    Trace {
        /// Correlation id.
        id: u64,
        /// The traced run.
        request_id: u64,
        /// End-to-end wall time in microseconds.
        wall_us: u64,
        /// Span count.
        spans: u64,
        /// Simulator trace events captured for the run.
        sim_events: u64,
        /// The span tree (`nsc-span-v1` JSON).
        tree: String,
        /// Combined Chrome trace-event document, when requested.
        perfetto: Option<String>,
    },
    /// Tiered result-cache statistics (`inspect`).
    Inspect {
        /// Correlation id.
        id: u64,
        /// The cache report.
        body: InspectBody,
    },
    /// The drain barrier answered (`flush`).
    Flush {
        /// Correlation id.
        id: u64,
        /// This response's sequence number on the connection (= how
        /// many requests preceded it).
        flushed: u64,
    },
    /// Graceful-shutdown acknowledgement (`shutdown`).
    Shutdown {
        /// Correlation id.
        id: u64,
    },
    /// A typed overload shed: `ok:false` plus a machine-readable
    /// reason clients use to decide whether to retry.
    Shed {
        /// Correlation id.
        id: u64,
        /// The shed run's trace id (0 = none extracted).
        request_id: u64,
        /// `"overloaded"`, `"deadline_exceeded"`, or `"shutting_down"`.
        reason: String,
        /// Human-readable explanation.
        error: String,
        /// Backoff hint in milliseconds (0 = none).
        retry_after_ms: u64,
    },
    /// A genuine request error.
    Error {
        /// Correlation id (0 when none could be extracted).
        id: u64,
        /// The failing run's trace id (0 = not a run / none known).
        request_id: u64,
        /// What went wrong.
        error: String,
    },
}

impl Response {
    /// Builds the wire object (unrendered so the daemon can append
    /// delivery-time fields such as a `run`'s `latency`).
    pub fn to_obj(&self) -> Obj {
        match self {
            Response::Run {
                id,
                request_id,
                cached,
                deduped,
                workload,
                mode,
                cycles,
                blob,
                latency,
            } => {
                let mut o = Obj::new()
                    .num("id", *id)
                    .bool("ok", true)
                    .num("request_id", *request_id)
                    .bool("cached", *cached)
                    .str("workload", workload)
                    .str("mode", mode.label())
                    .num("cycles", *cycles)
                    .str("blob", blob);
                if let Some(l) = latency {
                    o = o.str("latency", l);
                }
                if *deduped {
                    o = o.bool("deduped", true);
                }
                o
            }
            Response::Status {
                id,
                served,
                cache_hits,
                cache_misses,
                jobs,
                cache_enabled,
                uptime_ms,
                in_flight,
                queue_depth,
                queue_cap,
                conns,
                max_conns,
            } => Obj::new()
                .num("id", *id)
                .bool("ok", true)
                .num("served", *served)
                .num("cache_hits", *cache_hits)
                .num("cache_misses", *cache_misses)
                .num("jobs", *jobs)
                .bool("cache_enabled", *cache_enabled)
                .num("uptime_ms", *uptime_ms)
                .num("in_flight", *in_flight)
                .num("queue_depth", *queue_depth)
                .num("queue_cap", *queue_cap)
                .num("conns", *conns)
                .num("max_conns", *max_conns),
            Response::Metrics { id, schema, snapshot } => Obj::new()
                .num("id", *id)
                .bool("ok", true)
                .str("schema", schema)
                .str("snapshot", snapshot),
            Response::Logs { id, count, dropped, lines } => Obj::new()
                .num("id", *id)
                .bool("ok", true)
                .num("count", *count)
                .num("dropped", *dropped)
                .str("lines", lines),
            Response::Trace {
                id,
                request_id,
                wall_us,
                spans,
                sim_events,
                tree,
                perfetto,
            } => {
                let mut o = Obj::new()
                    .num("id", *id)
                    .bool("ok", true)
                    .num("request_id", *request_id)
                    .num("wall_us", *wall_us)
                    .num("spans", *spans)
                    .num("sim_events", *sim_events)
                    .str("tree", tree);
                if let Some(p) = perfetto {
                    o = o.str("perfetto", p);
                }
                o
            }
            Response::Inspect { id, body } => {
                let mut o = Obj::new()
                    .num("id", *id)
                    .bool("ok", true)
                    .bool("enabled", body.enabled)
                    .num("hot_hits", body.hot.hits)
                    .num("hot_misses", body.hot.misses)
                    .num("hot_stores", body.hot.stores)
                    .num("hot_evictions", body.hot.evictions)
                    .num("hot_bytes", body.hot.bytes)
                    .num("hot_entries", body.hot.entries)
                    .num("mem_budget", body.mem_budget)
                    .num("cold_hits", body.cold.hits)
                    .num("cold_misses", body.cold.misses)
                    .num("cold_stores", body.cold.stores)
                    .num("cold_evictions", body.cold.evictions)
                    .num("cold_bytes", body.cold.bytes)
                    .num("cold_entries", body.cold.entries)
                    .num("disk_budget", body.disk_budget)
                    .bool("compress", body.compress)
                    .str("hottest", &body.hottest);
                if let Some(k) = &body.key {
                    o = o
                        .str("key", &k.key)
                        .bool("key_in_hot", k.in_hot)
                        .bool("key_in_cold", k.in_cold)
                        .num("key_bytes", k.bytes)
                        .num("key_hits", k.hits);
                }
                o
            }
            Response::Flush { id, flushed } => {
                Obj::new().num("id", *id).bool("ok", true).num("flushed", *flushed)
            }
            Response::Shutdown { id } => Obj::new().num("id", *id).bool("ok", true),
            Response::Shed { id, request_id, reason, error, retry_after_ms } => {
                let mut o = Obj::new()
                    .num("id", *id)
                    .bool("ok", false)
                    .str("error", error)
                    .str("shed", reason);
                if *request_id != 0 {
                    o = o.num("request_id", *request_id);
                }
                if *retry_after_ms != 0 {
                    o = o.num("retry_after_ms", *retry_after_ms);
                }
                o
            }
            Response::Error { id, request_id, error } => {
                let mut o = Obj::new().num("id", *id).bool("ok", false).str("error", error);
                if *request_id != 0 {
                    o = o.num("request_id", *request_id);
                }
                o
            }
        }
    }

    /// Renders the response as one protocol line (daemon side).
    pub fn render(&self) -> String {
        self.to_obj().render()
    }

    /// Classifies and parses one already-parsed wire object. The
    /// discriminant is structural (which fields are present), because
    /// the wire format predates this type and carries no `op` tag.
    pub fn from_obj(obj: &Obj) -> Option<Response> {
        let id = obj.get_num("id")?;
        let ok = obj.get_bool("ok")?;
        if !ok {
            let error = obj.get_str("error").unwrap_or_default().to_owned();
            let request_id = obj.get_num("request_id").unwrap_or(0);
            return Some(match obj.get_str("shed") {
                Some(reason) => Response::Shed {
                    id,
                    request_id,
                    reason: reason.to_owned(),
                    error,
                    retry_after_ms: obj.get_num("retry_after_ms").unwrap_or(0),
                },
                None => Response::Error { id, request_id, error },
            });
        }
        if let Some(blob) = obj.get_str("blob") {
            return Some(Response::Run {
                id,
                request_id: obj.get_num("request_id")?,
                cached: obj.get_bool("cached")?,
                deduped: obj.get_bool("deduped").unwrap_or(false),
                workload: obj.get_str("workload")?.to_owned(),
                mode: ExecMode::parse(obj.get_str("mode")?)?,
                cycles: obj.get_num("cycles")?,
                blob: blob.to_owned(),
                latency: obj.get_str("latency").map(str::to_owned),
            });
        }
        if let Some(snapshot) = obj.get_str("snapshot") {
            return Some(Response::Metrics {
                id,
                schema: obj.get_str("schema")?.to_owned(),
                snapshot: snapshot.to_owned(),
            });
        }
        if let Some(lines) = obj.get_str("lines") {
            return Some(Response::Logs {
                id,
                count: obj.get_num("count")?,
                dropped: obj.get_num("dropped")?,
                lines: lines.to_owned(),
            });
        }
        if let Some(tree) = obj.get_str("tree") {
            return Some(Response::Trace {
                id,
                request_id: obj.get_num("request_id")?,
                wall_us: obj.get_num("wall_us")?,
                spans: obj.get_num("spans")?,
                sim_events: obj.get_num("sim_events")?,
                tree: tree.to_owned(),
                perfetto: obj.get_str("perfetto").map(str::to_owned),
            });
        }
        if obj.get_num("hot_hits").is_some() {
            let tier = |prefix: &str| -> Option<TierStats> {
                Some(TierStats {
                    hits: obj.get_num(&format!("{prefix}_hits"))?,
                    misses: obj.get_num(&format!("{prefix}_misses"))?,
                    stores: obj.get_num(&format!("{prefix}_stores"))?,
                    evictions: obj.get_num(&format!("{prefix}_evictions"))?,
                    bytes: obj.get_num(&format!("{prefix}_bytes"))?,
                    entries: obj.get_num(&format!("{prefix}_entries"))?,
                })
            };
            let key = obj.get_str("key").map(|k| KeyReport {
                key: k.to_owned(),
                in_hot: obj.get_bool("key_in_hot").unwrap_or(false),
                in_cold: obj.get_bool("key_in_cold").unwrap_or(false),
                bytes: obj.get_num("key_bytes").unwrap_or(0),
                hits: obj.get_num("key_hits").unwrap_or(0),
            });
            return Some(Response::Inspect {
                id,
                body: InspectBody {
                    enabled: obj.get_bool("enabled")?,
                    hot: tier("hot")?,
                    cold: tier("cold")?,
                    mem_budget: obj.get_num("mem_budget")?,
                    disk_budget: obj.get_num("disk_budget")?,
                    compress: obj.get_bool("compress")?,
                    hottest: obj.get_str("hottest").unwrap_or_default().to_owned(),
                    key,
                },
            });
        }
        if let Some(flushed) = obj.get_num("flushed") {
            return Some(Response::Flush { id, flushed });
        }
        if obj.get_num("served").is_some() {
            return Some(Response::Status {
                id,
                served: obj.get_num("served")?,
                cache_hits: obj.get_num("cache_hits")?,
                cache_misses: obj.get_num("cache_misses")?,
                jobs: obj.get_num("jobs")?,
                cache_enabled: obj.get_bool("cache_enabled")?,
                uptime_ms: obj.get_num("uptime_ms")?,
                in_flight: obj.get_num("in_flight")?,
                queue_depth: obj.get_num("queue_depth")?,
                queue_cap: obj.get_num("queue_cap")?,
                conns: obj.get_num("conns")?,
                max_conns: obj.get_num("max_conns")?,
            });
        }
        Some(Response::Shutdown { id })
    }

    /// Parses one response line ([`Response::from_obj`] on the parsed
    /// object).
    pub fn parse(line: &str) -> Option<Response> {
        Response::from_obj(&Obj::parse(line)?)
    }

    /// The response's correlation id.
    pub fn id(&self) -> u64 {
        match self {
            Response::Run { id, .. }
            | Response::Status { id, .. }
            | Response::Metrics { id, .. }
            | Response::Logs { id, .. }
            | Response::Trace { id, .. }
            | Response::Inspect { id, .. }
            | Response::Flush { id, .. }
            | Response::Shutdown { id }
            | Response::Shed { id, .. }
            | Response::Error { id, .. } => *id,
        }
    }
}

/// Builds the `inspect` report from a live [`TieredCache`] handle (the
/// daemon calls this at delivery time; `nsc-client inspect --local`
/// reads the same report in process).
pub fn inspect_body(store: &TieredCache, key: Option<&str>) -> Result<InspectBody, String> {
    let key = match key {
        None => None,
        Some(hex) => {
            let k = cache::Key::parse_hex(hex)
                .ok_or_else(|| format!("bad cache key (want 32 hex digits): {hex:?}"))?;
            let p = store.probe(&k);
            Some(KeyReport {
                key: k.hex(),
                in_hot: p.in_hot,
                in_cold: p.in_cold,
                bytes: p.bytes,
                hits: p.hits,
            })
        }
    };
    let stats = store.stats();
    let hottest = store
        .hottest(5)
        .into_iter()
        .map(|(k, hits)| format!("{}:{hits}", k.hex()))
        .collect::<Vec<_>>()
        .join(" ");
    Ok(InspectBody {
        enabled: cache::enabled(),
        hot: stats.hot,
        cold: stats.cold,
        mem_budget: store.mem_budget(),
        disk_budget: store.disk_budget(),
        compress: store.compression(),
        hottest,
        key,
    })
}

/// The outcome of one `run` request, before serialization.
#[derive(Debug)]
pub struct RunOutcome {
    /// The run's metrics.
    pub result: RunResult,
    /// Whether the result was replayed from the cache.
    pub cached: bool,
}

/// Executes one run request in this process: looks the workload up,
/// compiles it, and runs it cache-aware (a stored result is replayed
/// without simulating). This is the daemon's backend, and also what
/// `nsc-client submit --local` calls.
pub fn execute(workload: &str, size: Size, mode: ExecMode) -> Result<RunOutcome, String> {
    execute_spanned(workload, size, mode, &mut SpanTrace::begin(0))
}

/// [`execute`] with per-phase attribution: records `pool_dispatch`
/// (workload lookup + kernel compilation), `cache_probe` (result-cache
/// digest + lookup) and `simulate` (the run itself, cache-aware) spans
/// into `spans`. The simulation is untouched — only wall-clock fences
/// are added around it — so results stay byte-identical with or without
/// a live trace.
pub fn execute_spanned(
    workload: &str,
    size: Size,
    mode: ExecMode,
    spans: &mut SpanTrace,
) -> Result<RunOutcome, String> {
    let t0 = nsc_sim::span::now_us();
    let found = nsc_workloads::all(size).into_iter().find(|w| w.name == workload);
    let Some(w) = found else {
        spans.push("pool_dispatch", t0, nsc_sim::span::now_us());
        let known: Vec<_> = nsc_workloads::all(size).iter().map(|w| w.name).collect();
        return Err(format!(
            "unknown workload: {workload:?} (known: {})",
            known.join(", ")
        ));
    };
    let p = nsc_bench::prepare(w);
    let cfg = nsc_bench::system_for(size);
    let req = p.request(mode, &cfg);
    spans.push("pool_dispatch", t0, nsc_sim::span::now_us());
    let cached =
        spans.time("cache_probe", || cache::enabled() && cache::shared().contains(&req.key()));
    let result = spans
        .time("simulate", || req.try_run_cached())
        .map_err(|e| e.to_string())?;
    Ok(RunOutcome { result, cached })
}

/// Builds a successful `run` response (unrendered: the daemon appends
/// the `latency` field at delivery time, once the span tree is sealed).
pub fn run_response(id: u64, request_id: u64, workload: &str, mode: ExecMode, out: &RunOutcome) -> Obj {
    Response::Run {
        id,
        request_id,
        cached: out.cached,
        deduped: false,
        workload: workload.to_owned(),
        mode,
        cycles: out.result.cycles,
        blob: request::encode(&out.result, &FaultStats::default()),
        latency: None,
    }
    .to_obj()
}

/// Builds an error response (unrendered, for callers that append fields).
pub fn error_obj(id: u64, msg: &str) -> Obj {
    Response::Error { id, request_id: 0, error: msg.to_owned() }.to_obj()
}

/// Builds a typed shed response: `ok:false` with a machine-readable
/// `shed` reason (`"overloaded"`, `"deadline_exceeded"`,
/// `"shutting_down"`) so clients can distinguish "back off and retry"
/// from a genuine request error. A non-zero `retry_after_ms` carries
/// the daemon's backoff hint (its current queue backlog times the
/// smoothed per-run wall time).
pub fn shed_obj(id: u64, request_id: u64, reason: &str, msg: &str, retry_after_ms: u64) -> Obj {
    Response::Shed {
        id,
        request_id,
        reason: reason.to_owned(),
        error: msg.to_owned(),
        retry_after_ms,
    }
    .to_obj()
}

/// Whether `response` is a shed a client may retry after backing off
/// (`overloaded` / `shutting_down`). A `deadline_exceeded` shed is
/// deliberately *not* retryable: the caller's time budget is spent.
pub fn is_retryable_shed(response: &Obj) -> bool {
    response.get_bool("ok") == Some(false)
        && matches!(response.get_str("shed"), Some("overloaded" | "shutting_down"))
}

/// Whether a run request would be answered from the result cache
/// without simulating — the saturation-time probe behind the daemon's
/// degraded mode (cache hits keep flowing while misses are shed). Any
/// fault plan installed on the calling thread participates in the key,
/// exactly as it would on the run path.
pub fn cache_would_hit(workload: &str, size: Size, mode: ExecMode) -> bool {
    if !cache::enabled() {
        return false;
    }
    let Some(w) = nsc_workloads::all(size).into_iter().find(|w| w.name == workload) else {
        return false;
    };
    let p = nsc_bench::prepare(w);
    let cfg = nsc_bench::system_for(size);
    // The shared handle answers warm probes from the hot tier without
    // touching disk, which is what keeps degraded mode cheap.
    cache::shared().contains(&p.request(mode, &cfg).key())
}

/// Renders an error response line.
pub fn error_response(id: u64, msg: &str) -> String {
    error_obj(id, msg).render()
}

/// Decodes the `blob` of a `run` response back into the daemon's exact
/// [`RunResult`].
pub fn decode_response_blob(resp: &Obj) -> Option<CachedRun> {
    request::decode(resp.get_str("blob")?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_lines_roundtrip() {
        let reqs = [
            Request::Run {
                id: 3,
                request_id: 0,
                workload: "histogram".into(),
                size: Size::Tiny,
                mode: ExecMode::Ns,
                deadline_ms: 0,
            },
            Request::Run {
                id: 8,
                request_id: 0x0123_4567_89AB_CDEF,
                workload: "bin_tree".into(),
                size: Size::Small,
                mode: ExecMode::Base,
                deadline_ms: 0,
            },
            Request::Run {
                id: 12,
                request_id: 7,
                workload: "sssp".into(),
                size: Size::Tiny,
                mode: ExecMode::Ns,
                deadline_ms: 1500,
            },
            Request::Status { id: 4 },
            Request::Metrics { id: 5 },
            Request::Logs { id: 9 },
            Request::Trace { id: 10, request_id: 77, perfetto: false },
            Request::Trace { id: 11, request_id: 78, perfetto: true },
            Request::Inspect { id: 13, key: None },
            Request::Inspect { id: 14, key: Some("00112233445566778899aabbccddeeff".into()) },
            Request::Flush { id: 6 },
            Request::Shutdown { id: 7 },
        ];
        for r in reqs {
            let line = r.render();
            assert_eq!(Request::parse(&line), Ok(r), "line: {line}");
        }
    }

    #[test]
    fn response_lines_roundtrip() {
        let tier = |seed: u64| TierStats {
            hits: seed,
            misses: seed + 1,
            stores: seed + 2,
            evictions: seed + 3,
            bytes: seed * 100,
            entries: seed + 4,
        };
        let resps = [
            Response::Run {
                id: 1,
                request_id: 0x0123_4567_89AB_CDEF,
                cached: true,
                deduped: false,
                workload: "histogram".into(),
                mode: ExecMode::Ns,
                cycles: 123_456,
                blob: "schema=nsc-run-v1\ncycles=123456\n".into(),
                latency: None,
            },
            Response::Run {
                id: 2,
                request_id: 7,
                cached: false,
                deduped: true,
                workload: "sssp".into(),
                mode: ExecMode::Base,
                cycles: 9,
                blob: "schema=nsc-run-v1\n".into(),
                latency: Some("{\"schema\":\"nsc-span-v1\"}".into()),
            },
            Response::Status {
                id: 3,
                served: 12,
                cache_hits: 8,
                cache_misses: 4,
                jobs: 8,
                cache_enabled: true,
                uptime_ms: 5000,
                in_flight: 1,
                queue_depth: 2,
                queue_cap: 64,
                conns: 3,
                max_conns: 32,
            },
            Response::Metrics {
                id: 4,
                schema: "nsc-metrics-v1".into(),
                snapshot: "{\"counters\":{}}".into(),
            },
            Response::Logs { id: 5, count: 17, dropped: 0, lines: "a\nb\n".into() },
            Response::Trace {
                id: 6,
                request_id: 77,
                wall_us: 812,
                spans: 9,
                sim_events: 40,
                tree: "{\"schema\":\"nsc-span-v1\"}".into(),
                perfetto: None,
            },
            Response::Inspect {
                id: 7,
                body: InspectBody {
                    enabled: true,
                    hot: tier(10),
                    cold: tier(20),
                    mem_budget: 64 << 20,
                    disk_budget: 0,
                    compress: true,
                    hottest: "00112233445566778899aabbccddeeff:5".into(),
                    key: None,
                },
            },
            Response::Inspect {
                id: 8,
                body: InspectBody {
                    enabled: false,
                    hot: TierStats::default(),
                    cold: TierStats::default(),
                    mem_budget: 0,
                    disk_budget: 4096,
                    compress: false,
                    hottest: String::new(),
                    key: Some(KeyReport {
                        key: "00112233445566778899aabbccddeeff".into(),
                        in_hot: true,
                        in_cold: false,
                        bytes: 812,
                        hits: 3,
                    }),
                },
            },
            Response::Flush { id: 9, flushed: 4 },
            Response::Shutdown { id: 10 },
            Response::Shed {
                id: 11,
                request_id: 0xBEEF,
                reason: "overloaded".into(),
                error: "admission queue full".into(),
                retry_after_ms: 120,
            },
            Response::Error { id: 12, request_id: 0, error: "unknown op".into() },
            Response::Error { id: 13, request_id: 55, error: "unknown request_id".into() },
        ];
        for r in resps {
            let line = r.render();
            assert_eq!(Response::parse(&line), Some(r), "line: {line}");
        }
    }

    #[test]
    fn response_id_covers_every_variant() {
        assert_eq!(Response::Shutdown { id: 42 }.id(), 42);
        assert_eq!(Response::Flush { id: 7, flushed: 1 }.id(), 7);
        assert_eq!(
            Response::Error { id: 9, request_id: 0, error: "x".into() }.id(),
            9
        );
    }

    #[test]
    fn inspect_body_rejects_bad_keys() {
        let dir = std::env::temp_dir().join(format!("nsc-inspect-{}", std::process::id()));
        let store = TieredCache::with_config(dir.clone(), 1 << 20, 0, false);
        assert!(inspect_body(&store, Some("not-hex")).is_err());
        assert!(inspect_body(&store, Some("abcd")).is_err());
        let body = inspect_body(&store, Some(&"ab".repeat(16))).expect("well-formed key");
        let k = body.key.expect("key report present");
        assert!(!k.in_hot && !k.in_cold, "unknown key is resident nowhere");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn shed_responses_are_typed_and_classified() {
        let o = shed_obj(4, 0xBEEF, "overloaded", "admission queue full", 120);
        let line = o.render();
        let back = Obj::parse(&line).unwrap();
        assert_eq!(back.get_bool("ok"), Some(false));
        assert_eq!(back.get_str("shed"), Some("overloaded"));
        assert_eq!(back.get_num("retry_after_ms"), Some(120));
        assert_eq!(back.get_num("request_id"), Some(0xBEEF));
        assert!(is_retryable_shed(&back));

        let deadline = shed_obj(5, 1, "deadline_exceeded", "expired in queue", 0);
        assert!(!is_retryable_shed(&deadline), "deadline sheds must not auto-retry");
        assert!(deadline.get_num("retry_after_ms").is_none());

        let draining = shed_obj(6, 2, "shutting_down", "daemon draining", 0);
        assert!(is_retryable_shed(&draining));

        let genuine = error_obj(7, "unknown workload");
        assert!(!is_retryable_shed(&genuine), "plain errors are not sheds");
    }

    #[test]
    fn cache_probe_is_safe_for_unknown_workloads() {
        // Regardless of cache state, probing a nonexistent workload must
        // report a miss (the run path will answer with a typed error).
        assert!(!cache_would_hit("not-a-workload", Size::Tiny, ExecMode::Ns));
    }

    #[test]
    fn trace_without_request_id_is_rejected() {
        let (id, msg) = Request::parse("{\"id\":4,\"op\":\"trace\"}").unwrap_err();
        assert_eq!(id, 4);
        assert!(msg.contains("request_id"), "got: {msg}");
    }

    #[test]
    fn bad_requests_keep_their_id() {
        assert_eq!(Request::parse("not json").unwrap_err().0, 0);
        assert_eq!(Request::parse("{\"op\":\"run\"}").unwrap_err().0, 0);
        for (line, want) in [
            ("{\"id\":9,\"op\":\"warp\"}", 9),
            ("{\"id\":5,\"op\":\"timeline\"}", 5),
            ("{\"id\":6,\"op\":\"health\"}", 6),
        ] {
            let (id, msg) = Request::parse(line).unwrap_err();
            assert_eq!(id, want, "line: {line}");
            assert!(msg.contains("unknown op"), "line: {line}, got: {msg}");
        }
        let (id, _) = Request::parse("{\"id\":9,\"op\":\"run\",\"workload\":\"x\",\"size\":\"huge\"}")
            .unwrap_err();
        assert_eq!(id, 9);
    }

    #[test]
    fn run_response_blob_is_exact() {
        let out = execute("histogram", Size::Tiny, ExecMode::Ns).expect("run");
        let line = run_response(1, 0xABCD, "histogram", ExecMode::Ns, &out).render();
        let resp = Obj::parse(&line).expect("response parses");
        assert_eq!(resp.get_bool("ok"), Some(true));
        assert_eq!(resp.get_num("request_id"), Some(0xABCD));
        let back = decode_response_blob(&resp).expect("blob decodes");
        // Bit-exact round trip: the re-encoded record matches byte for
        // byte (RunResult has no PartialEq; the codec is the equality).
        assert_eq!(
            request::encode(&back.result, &FaultStats::default()),
            request::encode(&out.result, &FaultStats::default()),
        );
    }

    #[test]
    fn execute_rejects_unknown_workload() {
        let err = execute("nope", Size::Tiny, ExecMode::Base).unwrap_err();
        assert!(err.contains("unknown workload"), "got: {err}");
    }

    #[test]
    fn execute_spanned_records_backend_phases() {
        let mut spans = SpanTrace::begin(42);
        execute_spanned("histogram", Size::Tiny, ExecMode::Ns, &mut spans).expect("run");
        let tree = spans.finish();
        for name in ["pool_dispatch", "cache_probe", "simulate"] {
            assert!(tree.span(name).is_some(), "missing span {name}");
        }
        assert!(tree.spans_total_us() <= tree.wall_us);
    }
}
