//! `perfbench compare <baseline-dir> <current-dir>`: medians and
//! quartiles of every metric per workload and run kind on both sides,
//! with each metric's direction and bound read from `BENCHMARK.json`
//! when it is in the working directory.
//!
//! It refuses to compare result files whose host fingerprints differ
//! (core count, CPU model, SIMD flags, compiler or build profile): a
//! number measured on another machine or build is not a baseline.

use crate::host::Fingerprint;
use crate::report::SCHEMA;
use crate::stats;
use seaice_obs::json::{self, Value};
use std::collections::BTreeMap;
use std::path::Path;

/// One result file, reduced to what the comparison needs.
#[derive(Clone, Debug)]
pub struct ResultFile {
    /// Workload name.
    pub workload: String,
    /// Traced run.
    pub trace: bool,
    /// Host key of its fingerprint.
    pub host_key: String,
    /// Whether its outputs were correct.
    pub correct: bool,
    /// Metric name → value, from the result line's metrics and the
    /// workload's extra figures.
    pub metrics: BTreeMap<String, f64>,
}

/// Parses one result file.
pub fn parse_result(src: &str) -> Result<ResultFile, String> {
    let doc = json::parse(src)?;
    if doc.get("schema").and_then(Value::as_str) != Some(SCHEMA) {
        return Err(format!("not a {SCHEMA} result file"));
    }
    let str_field = |v: &Value, k: &str| v.get(k).and_then(Value::as_str).unwrap_or("").to_string();
    let fp = doc.get("fingerprint").ok_or("missing fingerprint")?;
    let simd: Vec<String> = fp
        .get("simd")
        .and_then(Value::as_arr)
        .unwrap_or(&[])
        .iter()
        .filter_map(|v| v.as_str().map(str::to_string))
        .collect();
    let host_key = Fingerprint {
        nproc: fp.get("nproc").and_then(Value::as_f64).unwrap_or(0.0) as usize,
        cpu_model: str_field(fp, "cpu_model"),
        simd,
        rustc: str_field(fp, "rustc"),
        profile: str_field(fp, "profile"),
        commit: str_field(fp, "commit"),
    }
    .host_key();
    let mut metrics = BTreeMap::new();
    for key in ["metrics", "extra"] {
        for (name, m) in doc.get(key).and_then(Value::as_obj).unwrap_or(&[]) {
            if let Some(v) = m.get("value").and_then(Value::as_f64) {
                metrics.insert(name.clone(), v);
            }
        }
    }
    Ok(ResultFile {
        workload: str_field(&doc, "workload"),
        trace: doc.get("trace").and_then(Value::as_f64) == Some(1.0),
        host_key,
        correct: doc.get("correct").and_then(Value::as_bool).unwrap_or(false),
        metrics,
    })
}

/// Every result file in `dir` (traces skipped).
pub fn load_dir(dir: &Path) -> Result<Vec<ResultFile>, String> {
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .map_err(|e| format!("reading {}: {e}", dir.display()))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| {
            let name = p.file_name().and_then(|n| n.to_str()).unwrap_or("");
            name.ends_with(".json") && !name.ends_with(".trace.json")
        })
        .collect();
    paths.sort();
    paths
        .iter()
        .map(|p| {
            let src =
                std::fs::read_to_string(p).map_err(|e| format!("reading {}: {e}", p.display()))?;
            parse_result(&src).map_err(|e| format!("{}: {e}", p.display()))
        })
        .collect()
}

/// Direction and bound of each metric, from `BENCHMARK.json` text.
pub fn metric_specs(benchmark_json: &str) -> BTreeMap<String, (bool, Option<f64>)> {
    let mut specs = BTreeMap::new();
    let Ok(doc) = json::parse(benchmark_json) else {
        return specs;
    };
    for key in ["end_to_end", "per_layer"] {
        for m in doc.get(key).and_then(Value::as_arr).unwrap_or(&[]) {
            if let Some(name) = m.get("name").and_then(Value::as_str) {
                let lower = m.get("better").and_then(Value::as_str) == Some("lower");
                specs.insert(
                    name.to_string(),
                    (lower, m.get("bound").and_then(Value::as_f64)),
                );
            }
        }
    }
    specs
}

/// Compares two sets of results; errors when their fingerprints differ.
pub fn compare(
    base: &[ResultFile],
    cur: &[ResultFile],
    specs: &BTreeMap<String, (bool, Option<f64>)>,
) -> Result<String, String> {
    let keys: std::collections::BTreeSet<&str> = base
        .iter()
        .chain(cur)
        .map(|r| r.host_key.as_str())
        .collect();
    if keys.len() > 1 {
        return Err(format!(
            "refusing to compare results from different hosts or builds:\n  {}",
            keys.into_iter().collect::<Vec<_>>().join("\n  ")
        ));
    }
    type Groups = BTreeMap<(String, bool, String), Vec<f64>>;
    let group = |files: &[ResultFile]| {
        let mut g: Groups = BTreeMap::new();
        for f in files {
            for (name, v) in &f.metrics {
                g.entry((f.workload.clone(), f.trace, name.clone()))
                    .or_default()
                    .push(*v);
            }
        }
        g
    };
    let (gb, gc) = (group(base), group(cur));
    let mut out = format!(
        "{:<8} {:<5} {:<34} {:>4} {:>12} {:>12} {:>9} {:>9}  verdict\n",
        "workload", "trace", "metric", "n", "base_med", "cur_med", "delta%", "base_iqr%"
    );
    for (key @ (workload, trace, name), b) in &gb {
        let Some(c) = gc.get(key) else { continue };
        let (bm, cm) = (stats::median(b), stats::median(c));
        let delta = if bm != 0.0 { (cm - bm) / bm.abs() } else { 0.0 };
        let spread = if b.len() > 1 {
            stats::relative_iqr(b)
        } else {
            f64::NAN
        };
        let verdict = match specs.get(name) {
            Some(&(lower, bound)) => {
                let worse = if lower { delta } else { -delta };
                match bound {
                    Some(bd) if worse > bd => format!("WORSE past bound {:.0}%", bd * 100.0),
                    Some(_) => "within bound".to_string(),
                    None => {
                        if worse > 0.0 {
                            "worse".into()
                        } else {
                            "not worse".into()
                        }
                    }
                }
            }
            None => String::new(),
        };
        out.push_str(&format!(
            "{workload:<8} {:<5} {name:<34} {:>4} {bm:>12.4} {cm:>12.4} {:>9.2} {:>9.2}  {verdict}\n",
            u8::from(*trace),
            b.len().min(c.len()),
            delta * 100.0,
            spread * 100.0,
        ));
    }
    let bad = base.iter().chain(cur).filter(|r| !r.correct).count();
    if bad > 0 {
        out.push_str(&format!("{bad} result file(s) report incorrect outputs\n"));
    }
    Ok(out)
}

/// The `compare` subcommand.
pub fn run(base_dir: &Path, cur_dir: &Path) -> Result<String, String> {
    let base = load_dir(base_dir)?;
    let cur = load_dir(cur_dir)?;
    if base.is_empty() || cur.is_empty() {
        return Err("both directories need at least one result file".into());
    }
    let specs = std::fs::read_to_string("BENCHMARK.json")
        .map(|s| metric_specs(&s))
        .unwrap_or_default();
    compare(&base, &cur, &specs)
}
