//! `BENCHMARK.json`: the one place metric names, units, directions and
//! regression bounds are fixed. The binary reads it at start-up, emits
//! exactly the metrics it lists, and `--check-noise` gates on its bounds.

use nsc_sim::json::{self, Json};
use std::path::Path;

/// One metric as `BENCHMARK.json` declares it.
#[derive(Clone, Debug, PartialEq)]
pub struct MetricSpec {
    /// Metric name.
    pub name: String,
    /// Unit label.
    pub unit: String,
    /// `true` when higher is better.
    pub higher_is_better: bool,
    /// Regression bound as a share of the reference (end-to-end only).
    pub bound: Option<f64>,
}

/// The parsed benchmark definition.
#[derive(Clone, Debug, PartialEq)]
pub struct Spec {
    /// Seconds one run measures for.
    pub run_seconds: u64,
    /// Workload names with the reason each exists.
    pub workloads: Vec<(String, String)>,
    /// End-to-end metrics (untraced run).
    pub end_to_end: Vec<MetricSpec>,
    /// Per-layer metrics (traced run).
    pub per_layer: Vec<MetricSpec>,
}

fn field<'a>(obj: &'a Json, key: &str) -> Result<&'a Json, String> {
    obj.get(key)
        .ok_or_else(|| format!("BENCHMARK.json: missing {key:?}"))
}

fn text(obj: &Json, key: &str) -> Result<String, String> {
    field(obj, key)?
        .as_str()
        .map(str::to_owned)
        .ok_or_else(|| format!("BENCHMARK.json: {key:?} is not a string"))
}

fn metrics(doc: &Json, key: &str) -> Result<Vec<MetricSpec>, String> {
    let list = field(doc, key)?
        .as_arr()
        .ok_or_else(|| format!("BENCHMARK.json: {key:?} is not a list"))?;
    list.iter()
        .map(|m| {
            let better = text(m, "better")?;
            Ok(MetricSpec {
                name: text(m, "name")?,
                unit: text(m, "unit")?,
                higher_is_better: match better.as_str() {
                    "higher" => true,
                    "lower" => false,
                    other => return Err(format!("BENCHMARK.json: bad \"better\": {other:?}")),
                },
                bound: m.get("bound").and_then(Json::as_f64),
            })
        })
        .collect()
}

impl Spec {
    /// Parses the text of a `BENCHMARK.json`.
    pub fn parse(text_: &str) -> Result<Spec, String> {
        let doc = json::parse(text_).map_err(|e| format!("BENCHMARK.json: {e}"))?;
        let workloads = field(&doc, "workloads")?
            .as_arr()
            .ok_or("BENCHMARK.json: \"workloads\" is not a list")?
            .iter()
            .map(|w| Ok((text(w, "name")?, text(w, "why")?)))
            .collect::<Result<Vec<_>, String>>()?;
        Ok(Spec {
            run_seconds: field(&doc, "run_seconds")?
                .as_f64()
                .ok_or("BENCHMARK.json: bad run_seconds")? as u64,
            workloads,
            end_to_end: metrics(&doc, "end_to_end")?,
            per_layer: metrics(&doc, "per_layer")?,
        })
    }

    /// Loads `<root>/BENCHMARK.json`.
    pub fn load(root: &Path) -> Result<Spec, String> {
        let path = root.join("BENCHMARK.json");
        Spec::parse(
            &std::fs::read_to_string(&path)
                .map_err(|e| format!("cannot read {}: {e}", path.display()))?,
        )
    }
}
