//! End-to-end observability checks: a traced simulation covers every
//! track family, the Chrome exporter produces valid Perfetto-loadable
//! JSON, and the machine-readable stats round-trip through the in-repo
//! JSON parser.

use near_stream::ExecMode;
use nsc_bench::{prepare, system_for};
use nsc_sim::json::{parse, Json};
use nsc_sim::trace::{self, chrome, RingRecorder, TraceEvent};
use nsc_sim::Histogram;
use nsc_workloads::{histogram, Size};

#[test]
fn traced_run_covers_stream_cache_noc_and_sync_tracks() {
    // `histogram` is the cheapest kernel that still exercises every track
    // family: offloaded RMW streams, line locks, migrations, range-sync.
    let p = prepare(histogram(Size::Tiny));
    let cfg = system_for(Size::Tiny);
    trace::install(RingRecorder::new(300_000), 16);
    let _ = p.run_unchecked(ExecMode::Ns, &cfg);
    let rec = trace::uninstall().expect("tracer was installed");

    let (mut config, mut step, mut end, mut cache, mut noc, mut sync, mut counter) =
        (0u64, 0u64, 0u64, 0u64, 0u64, 0u64, 0u64);
    for ev in rec.events() {
        match ev {
            TraceEvent::StreamConfig { .. } => config += 1,
            TraceEvent::StreamStep { .. } => step += 1,
            TraceEvent::StreamEnd { .. } => end += 1,
            TraceEvent::CacheAccess { .. } => cache += 1,
            TraceEvent::NocMsg { .. } => noc += 1,
            TraceEvent::RangeSync { .. } => sync += 1,
            TraceEvent::CounterSample { .. } => counter += 1,
            _ => {}
        }
    }
    assert!(config > 0, "no StreamConfig events");
    assert!(step > 0, "no StreamStep events");
    assert!(end > 0, "no StreamEnd events");
    assert!(cache > 0, "no CacheAccess events");
    assert!(noc > 0, "no NocMsg events");
    assert!(sync > 0, "no RangeSync events");
    assert!(counter > 0, "no CounterSample events");

    // The exported document is valid JSON with all Perfetto phases.
    let doc = parse(&chrome::render(rec.events())).expect("chrome trace is valid JSON");
    let list = doc.get("traceEvents").and_then(Json::as_arr).expect("traceEvents array");
    assert!(list.len() > rec.len(), "metadata events missing");
    for needed in ["X", "i", "C", "M"] {
        assert!(
            list.iter()
                .any(|e| e.get("ph").and_then(Json::as_str) == Some(needed)),
            "no {needed:?}-phase events in the trace"
        );
    }
}

#[test]
fn disabled_tracing_records_nothing_and_costs_no_allocation() {
    // No tracer installed on this thread: a full simulation runs through
    // all emit sites without a recorder to write to.
    let p = prepare(histogram(Size::Tiny));
    let cfg = system_for(Size::Tiny);
    let r = p.run_checked(ExecMode::Ns, &cfg);
    assert!(r.cycles > 0);
    assert!(trace::uninstall().is_none());
}

#[test]
fn run_result_stats_roundtrip_through_json() {
    let p = prepare(histogram(Size::Tiny));
    let cfg = system_for(Size::Tiny);
    let r = p.run_checked(ExecMode::Base, &cfg);
    let table = r.to_table();
    let doc = parse(&table.to_json()).expect("stats table is valid JSON");
    let obj = doc.as_obj().expect("flat object");
    assert_eq!(obj.len(), table.len());
    for (k, v) in table.iter() {
        assert_eq!(doc.get(k).and_then(Json::as_f64), Some(v), "stat {k} diverged");
    }
    // The conventional prefixes are all present.
    for prefix in ["traffic.", "uops.", "locks.", "aliases."] {
        assert!(
            table.iter().any(|(k, _)| k.starts_with(prefix)),
            "no {prefix}* stats"
        );
    }
}

#[test]
fn noc_latency_histogram_is_populated_with_ordered_percentiles() {
    let p = prepare(histogram(Size::Tiny));
    let cfg = system_for(Size::Tiny);
    let r = p.run_checked(ExecMode::Ns, &cfg);
    let h = &r.noc_latency;
    assert!(h.summary().count() > 0, "no NoC latencies recorded");
    let (p50, p90, p99) = (h.percentile(50.0), h.percentile(90.0), h.percentile(99.0));
    assert!(p50 > 0.0);
    assert!(p50 <= p90 && p90 <= p99, "percentiles out of order: {p50} {p90} {p99}");
    assert!(p99 <= h.summary().max().unwrap());
}

#[test]
fn histogram_clamps_negative_samples_into_bucket_zero() {
    // Regression: negative samples used to rely on `as usize` saturation;
    // the clamp is now explicit and documented.
    let mut h = Histogram::new(4.0, 8);
    h.record(-123.5);
    h.record(f64::NAN);
    h.record(2.0);
    assert_eq!(h.bucket_counts()[0], 3);
    assert_eq!(h.summary().count(), 3);
}

#[test]
fn empty_histogram_percentiles_are_null_in_results_json() {
    // Regression: empty histograms used to report p50/p90/p99 as 0, which
    // is indistinguishable from a real zero-latency measurement. They must
    // render as JSON null.
    use nsc_bench::Report;
    let mut rep = Report::new("empty_hist_regression", Size::Tiny);
    rep.hist("noc_latency_empty", &Histogram::new(8.0, 4));
    let doc = parse(&rep.render()).expect("results are valid JSON");
    let hists = doc.get("histograms").and_then(Json::as_obj).unwrap();
    let h = hists.get("noc_latency_empty").unwrap();
    assert_eq!(h.get("count").and_then(Json::as_f64), Some(0.0));
    for p in ["p50", "p90", "p99"] {
        assert_eq!(h.get(p), Some(&Json::Null), "{p} must be null when empty");
    }
    // Sanity: a populated histogram still reports numbers.
    let mut full = Histogram::new(8.0, 4);
    full.record(3.0);
    assert_eq!(full.percentile_opt(50.0), Some(full.percentile(50.0)));
}
