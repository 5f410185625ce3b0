//! `nsc_benchmark`: the repo benchmark (see `benchmark/README.md`).
//!
//! One process runs one workload once (`--workload W --trace 0|1`, the
//! form `BENCHMARK.json`'s command is called in); without `--trace` the
//! binary orchestrates: it re-runs itself once per workload, and with
//! `--check-noise` twice, comparing the two sets against the bounds.

mod daemon;
mod env;
mod kernels;
mod layers;
mod load;
mod probes;
mod servewl;
mod simwl;
mod span;
mod spec;
mod stats;

use layers::Metrics;
use nsc_sim::json::{self, escape, Json};
use spec::{MetricSpec, Spec};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

const USAGE: &str = "nsc_benchmark - the repo benchmark (normally started by benchmark/run.sh)

Usage: benchmark/run.sh [--workload NAME] [--seed N] [--seconds S] [--traced] [--check-noise]
       benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1

  --workload NAME  run one workload (default: every workload of BENCHMARK.json)
  --seed N         workload seed: run order, key sequence, arrival schedule (default 1)
  --seconds S      seconds one run measures for (default: run_seconds of BENCHMARK.json)
  --traced         after each untraced run, repeat it traced and print the per-layer metrics
  --trace 0|1      exactly one run, untraced (end-to-end metrics) or traced (per-layer metrics)
  --check-noise    run the untraced set twice and gate their difference on the bounds

Set by run.sh: --root DIR --nscd FILE --run-dir DIR --build-s SECONDS";

/// Where things are and how this run was asked for.
pub struct Opts {
    /// The `nscd` binary to measure.
    pub nscd: PathBuf,
    /// Private scratch directory (socket, cache, results); short path.
    pub run_dir: PathBuf,
    /// Where trace files and daemon logs are kept (`benchmark/out`).
    pub out_dir: PathBuf,
    /// Workload seed.
    pub seed: u64,
    /// Seconds one run measures for.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
    /// Hardware threads available before any CPU pinning.
    pub nproc: usize,
}

/// What one run of one workload produced.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted in the timed sections.
    pub attempted: u64,
    /// Operations that failed a check.
    pub failed: u64,
    /// Whether every output was correct.
    pub correct: bool,
    /// Metric values by name.
    pub metrics: Metrics,
    /// Provenance and informational values, in print order.
    pub notes: Vec<(String, String)>,
}

impl Outcome {
    /// Appends a note.
    pub fn note(&mut self, key: &str, value: impl Into<String>) {
        self.notes.push((key.to_owned(), value.into()));
    }
}

struct Args {
    root: PathBuf,
    nscd: PathBuf,
    run_dir: PathBuf,
    build_s: Option<f64>,
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: Option<bool>,
    traced: bool,
    check_noise: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        root: PathBuf::from("."),
        nscd: PathBuf::new(),
        run_dir: PathBuf::new(),
        build_s: None,
        workload: None,
        seed: 1,
        seconds: None,
        trace: None,
        traced: false,
        check_noise: false,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or_else(|| format!("{flag} needs a value"));
        let bad = |v: &str| format!("{flag}: bad value {v:?}");
        match flag.as_str() {
            "-h" | "--help" => return Err(String::new()),
            "--root" => a.root = value()?.into(),
            "--nscd" => a.nscd = value()?.into(),
            "--run-dir" => a.run_dir = value()?.into(),
            "--build-s" => a.build_s = value()?.parse().ok(),
            "--workload" => a.workload = Some(value()?),
            "--seed" => a.seed = value().and_then(|v| v.parse().map_err(|_| bad(&v)))?,
            "--seconds" => {
                a.seconds = Some(value().and_then(|v| {
                    v.parse()
                        .ok()
                        .filter(|s: &f64| *s > 0.0)
                        .ok_or_else(|| bad(&v))
                })?)
            }
            "--trace" => {
                a.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(bad(v)),
                })
            }
            "--traced" => a.traced = true,
            "--check-noise" => a.check_noise = true,
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    if a.nscd.as_os_str().is_empty() || a.run_dir.as_os_str().is_empty() {
        return Err(
            "--nscd and --run-dir are required (start the benchmark with benchmark/run.sh)"
                .to_owned(),
        );
    }
    Ok(a)
}

fn direction(m: &MetricSpec) -> &'static str {
    if m.higher_is_better {
        "higher is better"
    } else {
        "lower is better"
    }
}

/// Runs one workload once and prints its metrics; the last line of
/// standard output is the result object `BENCHMARK.json`'s contract asks
/// for.
fn run_single(
    a: &Args,
    spec: &Spec,
    name: &str,
    trace: bool,
    scrubbed: &[String],
) -> Result<(), String> {
    let out_dir = a.root.join("benchmark").join("out");
    for dir in [&a.run_dir, &out_dir] {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    }
    let o = Opts {
        nscd: a.nscd.clone(),
        run_dir: a.run_dir.clone(),
        out_dir,
        seed: a.seed,
        seconds: a.seconds.unwrap_or(spec.run_seconds as f64),
        trace,
        nproc: env::nproc(),
    };
    if trace {
        // The in-process `nsc_serve::execute` probes go through the
        // process-wide result cache; give it a private home before any
        // crate latches its settings. `RunRequest::run()` never consults it.
        std::env::set_var("NSC_CACHE", "1");
        std::env::set_var("NSC_CACHE_DIR", a.run_dir.join("probe-cache"));
        std::env::set_var("NSC_RESULTS_DIR", a.run_dir.join("results"));
    }
    let mut outcome = if let Some(w) = simwl::WORKLOADS.iter().find(|w| w.name == name) {
        simwl::run(w, &o)?
    } else if let Some(w) = servewl::WORKLOADS.iter().find(|w| w.name == name) {
        servewl::run(w, &o)?
    } else {
        return Err(format!(
            "unknown workload {name:?} (BENCHMARK.json lists: {})",
            spec.workloads
                .iter()
                .map(|w| w.0.as_str())
                .collect::<Vec<_>>()
                .join(", ")
        ));
    };

    println!(
        "== {name} (seed {}, {} s, {}) ==",
        o.seed,
        o.seconds,
        if trace {
            "traced: per-layer metrics"
        } else {
            "untraced: end-to-end metrics"
        }
    );
    if let Some((_, why)) = spec.workloads.iter().find(|w| w.0 == name) {
        println!("note why = {why}");
    }
    println!("note nproc = {}", o.nproc);
    println!("note rustc = {}", env::rustc_version());
    println!("note git_commit = {}", env::git_commit(&a.root));
    println!("note scrubbed_env = [{}]", scrubbed.join(" "));
    if let Some(b) = a.build_s {
        println!("note build_s = {b} (cargo build, not part of setup_s)");
    }
    for (k, v) in &outcome.notes {
        println!("note {k} = {v}");
    }
    let wanted = if trace {
        &spec.per_layer
    } else {
        &spec.end_to_end
    };
    let mut rendered = Vec::new();
    for ms in wanted {
        let (value, remark) = match outcome.metrics.remove(&ms.name) {
            Some(v) => {
                let bound = ms.bound.map_or(String::new(), |b| {
                    format!(", may worsen by {:.0} %", b * 100.0)
                });
                (v, format!("{}{bound}", direction(ms)))
            }
            // A per-layer metric of a layer this workload never enters.
            None if trace => (0.0, "not applicable to this workload".to_owned()),
            None => return Err(format!("the {name} run produced no {:?}", ms.name)),
        };
        println!(
            "metric {:34} {value:>16.6} {:8} ({remark})",
            ms.name, ms.unit
        );
        rendered.push(format!(
            "\"{}\":{{\"value\":{value},\"unit\":\"{}\"}}",
            escape(&ms.name),
            escape(&ms.unit)
        ));
    }
    for name in outcome.metrics.keys() {
        eprintln!("benchmark: warning: {name} was measured but BENCHMARK.json does not list it");
    }
    println!(
        "ops attempted {} failed {} correct {}",
        outcome.attempted, outcome.failed, outcome.correct
    );
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        outcome.correct,
        outcome.attempted.max(1),
        outcome.failed,
        rendered.join(",")
    );
    Ok(())
}

/// One child run of this binary: the parsed result object and notes.
struct ChildRun {
    result: Json,
    notes: BTreeMap<String, String>,
}

/// Runs one workload once in a process of its own and echoes what it
/// printed.
fn spawn_self(a: &Args, name: &str, trace: bool) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.arg("--root")
        .arg(&a.root)
        .arg("--nscd")
        .arg(&a.nscd)
        .arg("--run-dir")
        .arg(&a.run_dir);
    cmd.args([
        "--workload",
        name,
        "--seed",
        &a.seed.to_string(),
        "--trace",
        if trace { "1" } else { "0" },
    ]);
    if let Some(s) = a.seconds {
        cmd.args(["--seconds", &s.to_string()]);
    }
    if let Some(b) = a.build_s {
        cmd.args(["--build-s", &b.to_string()]);
    }
    let out = cmd
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot run {name}: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    print!("{text}");
    if !out.status.success() {
        return Err(format!("{name} exited with {}", out.status));
    }
    let last = text
        .lines()
        .last()
        .ok_or_else(|| format!("{name} printed nothing"))?;
    let notes = text
        .lines()
        .filter_map(|l| l.strip_prefix("note ")?.split_once(" = "))
        .map(|(k, v)| (k.to_owned(), v.to_owned()))
        .collect();
    Ok(ChildRun {
        result: json::parse(last).map_err(|e| format!("{name}: bad result line: {e}"))?,
        notes,
    })
}

/// `--check-noise`: the untraced set twice; every workload x end-to-end
/// metric must agree within its bound, and the simulated counters exactly.
fn check_noise(a: &Args, spec: &Spec, names: &[String]) -> Result<bool, String> {
    let mut sets: Vec<Vec<ChildRun>> = Vec::new();
    for _ in 0..2 {
        let mut set = Vec::new();
        for name in names {
            set.push(spawn_self(a, name, false)?);
        }
        sets.push(set);
    }
    let mut ok = true;
    println!("== noise check (seed {}) ==", a.seed);
    println!(
        "{:14} {:16} {:>14} {:>14} {:>8} {:>7}  verdict",
        "workload", "metric", "first", "second", "diff", "bound"
    );
    for (i, name) in names.iter().enumerate() {
        let (first, second) = (&sets[0][i], &sets[1][i]);
        for ms in &spec.end_to_end {
            let value = |run: &ChildRun| {
                run.result
                    .get("metrics")?
                    .get(&ms.name)?
                    .get("value")?
                    .as_f64()
            };
            let (Some(x), Some(y)) = (value(first), value(second)) else {
                return Err(format!("{name}: a run printed no {}", ms.name));
            };
            let (diff, bound) = (stats::rel_diff(x, y), ms.bound.unwrap_or(0.0));
            let within = diff <= bound;
            ok &= within;
            println!(
                "{name:14} {:16} {x:>14.6} {y:>14.6} {:>7.2}% {:>6.0}%  {}",
                ms.name,
                diff * 100.0,
                bound * 100.0,
                if within { "ok" } else { "EXCEEDS BOUND" }
            );
        }
        for exact in ["sim_digest", "sim_uops"] {
            let same = first.notes.contains_key(exact)
                && first.notes.get(exact) == second.notes.get(exact);
            ok &= same;
            println!(
                "{name:14} {exact:16} {}",
                if same { "identical" } else { "DIFFERS" }
            );
        }
        for run in [first, second] {
            let clean = run.result.get("failed").and_then(Json::as_f64) == Some(0.0)
                && run.notes.get("void").is_none_or(|v| v == "no");
            ok &= clean;
            if !clean {
                println!("{name:14} a run had failed operations or a late generator");
            }
        }
    }
    println!(
        "noise check: {}",
        if ok {
            "every metric repeats within its bound"
        } else {
            "FAILED"
        }
    );
    Ok(ok)
}

fn real_main() -> Result<bool, String> {
    let a = match parse_args() {
        Ok(a) => a,
        Err(e) if e.is_empty() => {
            println!("{USAGE}");
            return Ok(true);
        }
        Err(e) => return Err(format!("{e}\n\n{USAGE}")),
    };
    // Before anything reads a knob or spawns a thread.
    let scrubbed = env::scrub();
    env::check_profiles(&a.root)?;
    let spec = Spec::load(&a.root)?;
    let names: Vec<String> = match &a.workload {
        Some(w) => vec![w.clone()],
        None => spec.workloads.iter().map(|w| w.0.clone()).collect(),
    };
    if let (Some(trace), [name]) = (a.trace, names.as_slice()) {
        return run_single(&a, &spec, name, trace, &scrubbed).map(|()| true);
    }
    if a.trace.is_some() {
        return Err("--trace needs --workload".to_owned());
    }
    if a.check_noise {
        return check_noise(&a, &spec, &names);
    }
    for name in &names {
        spawn_self(&a, name, false)?;
        if a.traced {
            spawn_self(&a, name, true)?;
        }
    }
    Ok(true)
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(2),
        Err(e) => {
            eprintln!("benchmark: error: {e}");
            ExitCode::FAILURE
        }
    }
}
