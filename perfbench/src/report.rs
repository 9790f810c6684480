//! What a run reports: its metrics, its output checks and its operation
//! counts, rendered as the one-line result the driver reads and as the
//! result file kept for `perfbench compare`.

use crate::host::Fingerprint;
use seaice_obs::json::{escape, fmt_f64};

/// Schema tag of result files.
pub const SCHEMA: &str = "seaice-perfbench/1";

/// One measured metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// One output check.
#[derive(Clone, Debug, PartialEq)]
pub struct Check {
    /// What was checked.
    pub name: String,
    /// Whether it held.
    pub ok: bool,
    /// Counts or the first mismatch.
    pub detail: String,
}

/// Everything a workload run produced.
#[derive(Clone, Debug, Default)]
pub struct Outcome {
    /// Operations attempted (tiles, training runs, requests, scenes…).
    pub attempted: u64,
    /// Operations that failed or failed their output check.
    pub failed: u64,
    /// Requests shed by admission control: counted against
    /// `failed_frac`, but not wrong answers.
    pub refused: u64,
    /// Metrics of this run kind (end-to-end untraced, per-layer traced).
    pub metrics: Vec<Metric>,
    /// Output checks.
    pub checks: Vec<Check>,
    /// Figures kept in the result file and the summary but not in the
    /// result line (not named in `BENCHMARK.json` for this run kind).
    pub extra: Vec<Metric>,
}

impl Outcome {
    /// Adds a metric.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    /// Adds a figure for the result file and summary only.
    pub fn extra(&mut self, name: &str, value: f64, unit: &'static str) {
        self.extra.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    /// Counts `n` operations of which `failed` failed.
    pub fn ops(&mut self, n: u64, failed: u64) {
        self.attempted += n;
        self.failed += failed;
    }

    /// Counts `n` operations refused by admission control.
    pub fn refuse(&mut self, n: u64) {
        self.refused += n;
    }

    /// Records an output check.
    pub fn check(&mut self, name: &str, ok: bool, detail: impl Into<String>) {
        self.checks.push(Check {
            name: name.to_string(),
            ok,
            detail: detail.into(),
        });
    }

    /// Every output check held and no operation failed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.checks.iter().all(|c| c.ok)
    }

    /// Operations that failed, were refused or failed their check, over
    /// operations attempted.
    pub fn failed_frac(&self) -> f64 {
        (self.failed + self.refused) as f64 / self.attempted.max(1) as f64
    }

    fn metrics_json(&self) -> String {
        metrics_json(&self.metrics)
    }

    /// The single line the driver parses.
    pub fn result_line(&self) -> String {
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            self.metrics_json()
        )
    }

    /// The result file: the result line's content plus the run's
    /// identity, host fingerprint and checks.
    pub fn result_file(&self, run: &RunId, fp: &Fingerprint) -> String {
        let checks: Vec<String> = self
            .checks
            .iter()
            .map(|c| {
                format!(
                    "{{\"name\": \"{}\", \"ok\": {}, \"detail\": \"{}\"}}",
                    escape(&c.name),
                    c.ok,
                    escape(&c.detail)
                )
            })
            .collect();
        format!(
            "{{\"schema\": \"{SCHEMA}\", \"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"fingerprint\": {}, \"correct\": {}, \"attempted\": {}, \"failed\": {}, \"refused\": {}, \"failed_frac\": {}, \"metrics\": {}, \"extra\": {}, \"checks\": [{}]}}\n",
            escape(&run.workload),
            run.seed,
            run.seconds,
            u8::from(run.trace),
            fp.to_json(),
            self.correct(),
            self.attempted,
            self.failed,
            self.refused,
            fmt_f64(self.failed_frac()),
            self.metrics_json(),
            metrics_json(&self.extra),
            checks.join(", ")
        )
    }

    /// A human-readable summary of metrics and checks.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for m in self.metrics.iter().chain(&self.extra) {
            out.push_str(&format!("  {:<36} {:>14.4} {}\n", m.name, m.value, m.unit));
        }
        for c in &self.checks {
            out.push_str(&format!(
                "  check {:<30} {} {}\n",
                c.name,
                if c.ok { "ok  " } else { "FAIL" },
                c.detail
            ));
        }
        out.push_str(&format!(
            "  operations: {} attempted, {} failed, {} refused (failed_frac {:.6})\n",
            self.attempted,
            self.failed,
            self.refused,
            self.failed_frac()
        ));
        out
    }
}

fn metrics_json(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                escape(&m.name),
                fmt_f64(m.value),
                escape(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// Which run this is.
#[derive(Clone, Debug)]
pub struct RunId {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measurement length, seconds.
    pub seconds: u64,
    /// Traced (per-layer) or untraced (end-to-end) run.
    pub trace: bool,
}

impl RunId {
    /// File stem of this run's outputs.
    pub fn stem(&self) -> String {
        format!(
            "{}-seed{}-trace{}",
            self.workload,
            self.seed,
            u8::from(self.trace)
        )
    }
}
