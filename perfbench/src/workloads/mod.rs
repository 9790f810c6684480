//! The four workloads. Each one builds its inputs from the seed, times
//! its operation through the crates' public functions for the run's
//! length, checks the outputs, and fills an [`Outcome`] with the
//! end-to-end metrics (untraced run) or the per-layer metrics (traced
//! run).

pub mod label;
pub mod serve;
pub mod stream;
pub mod train;

use crate::report::Outcome;
use crate::spans::Spans;
use crate::stats;
use std::sync::Arc;
use std::time::Instant;

/// Workload names, in `BENCHMARK.json` order.
pub const NAMES: [&str; 4] = ["label", "train", "serve", "stream"];

/// Each workload sets up at least [`SETUP_REPEATS`] times and until
/// [`SETUP_MIN_SECS`] wall seconds have passed (at most
/// [`SETUP_MAX_REPEATS`] times); `setup_s` is the median, so a cheap,
/// jittery set-up gets more samples.
pub const SETUP_REPEATS: usize = 3;
/// See [`SETUP_REPEATS`].
pub const SETUP_MIN_SECS: f64 = 2.0;
/// See [`SETUP_REPEATS`].
pub const SETUP_MAX_REPEATS: usize = 9;

/// One run's parameters. The run is traced when `spans` records.
pub struct Ctx {
    /// Input seed.
    pub seed: u64,
    /// Measurement length, seconds.
    pub seconds: f64,
    /// The run's span recorder (inert on untraced runs).
    pub spans: Arc<Spans>,
    /// An inert recorder, for the untraced repetitions of a traced run.
    pub off: Arc<Spans>,
}

impl Ctx {
    /// Whether this is a traced (per-layer) run.
    pub fn traced(&self) -> bool {
        self.spans.is_on()
    }

    /// The recorder a repetition should use.
    pub fn recorder(&self, traced: bool) -> Arc<Spans> {
        if traced {
            Arc::clone(&self.spans)
        } else {
            Arc::clone(&self.off)
        }
    }
}

/// Runs workload `name`.
pub fn run(name: &str, ctx: &Ctx) -> Result<Outcome, String> {
    match name {
        "label" => label::run(ctx),
        "train" => train::run(ctx),
        "serve" => serve::run(ctx),
        "stream" => stream::run(ctx),
        other => Err(format!(
            "unknown workload `{other}` (expected one of {})",
            NAMES.join(", ")
        )),
    }
}

/// Builds the workload's inputs repeatedly (see [`SETUP_REPEATS`]),
/// keeping the last build, and returns it with the median set-up cost in
/// process CPU seconds. CPU time rather than wall time, because on a
/// shared host the wall time of the same set-up drifts by a third
/// between quiet and busy hours while its CPU time does not.
pub fn set_up<T>(mut build: impl FnMut() -> Result<T, String>) -> Result<(T, f64), String> {
    let start = Instant::now();
    let mut cpu: Vec<f64> = Vec::new();
    let mut last = None;
    while cpu.len() < SETUP_REPEATS
        || (start.elapsed().as_secs_f64() < SETUP_MIN_SECS && cpu.len() < SETUP_MAX_REPEATS)
    {
        // Drop the previous build first so repeats do not stack memory.
        drop(last.take());
        let c0 = crate::host::cpu_secs();
        last = Some(build()?);
        cpu.push(crate::host::cpu_secs() - c0);
    }
    let built = last.ok_or("set-up never ran")?;
    Ok((built, stats::median(&cpu)))
}

/// Wall seconds, CPU seconds and peak resident memory of each
/// repetition.
#[derive(Clone, Debug, Default)]
pub struct Reps {
    /// Wall seconds per repetition.
    pub secs: Vec<f64>,
    /// Process CPU seconds per repetition.
    pub cpu_secs: Vec<f64>,
    /// Peak resident MiB reached during each repetition (the process
    /// peak when the kernel cannot reset it).
    pub peak_mib: Vec<f64>,
}

impl Reps {
    /// Runs `op` once and records it.
    pub fn measure(&mut self, op: impl FnOnce() -> Result<(), String>) -> Result<(), String> {
        crate::host::reset_peak_rss();
        let c0 = crate::host::cpu_secs();
        let t0 = Instant::now();
        op()?;
        self.secs.push(t0.elapsed().as_secs_f64());
        self.cpu_secs.push(crate::host::cpu_secs() - c0);
        self.peak_mib.push(crate::host::peak_rss_mib());
        Ok(())
    }

    /// Median CPU milliseconds per unit of work, for repetitions of
    /// `units` units each.
    pub fn cpu_ms_per(&self, units: usize) -> f64 {
        let per: Vec<f64> = self
            .cpu_secs
            .iter()
            .map(|c| c * 1e3 / units as f64)
            .collect();
        stats::median(&per)
    }

    /// Units per wall second, median over repetitions of `units` each.
    pub fn per_sec(&self, units: usize) -> f64 {
        units as f64 / stats::median(&self.secs)
    }

    /// Mean cores the repetitions kept busy.
    pub fn busy_cores(&self) -> f64 {
        stats::busy_cores(self.cpu_secs.iter().sum(), self.secs.iter().sum())
    }
}

/// Repeats `op` until `seconds` have passed (at least once).
pub fn repeat_for(
    seconds: f64,
    mut op: impl FnMut() -> Result<(), String>,
) -> Result<Reps, String> {
    let start = Instant::now();
    let mut reps = Reps::default();
    while reps.secs.is_empty() || start.elapsed().as_secs_f64() < seconds {
        reps.measure(&mut op)?;
    }
    eprintln!(
        "  repetitions: wall {:.3?} s, cpu {:.3?} s, peak {:.2?} MiB",
        reps.secs, reps.cpu_secs, reps.peak_mib
    );
    Ok(reps)
}

/// Traced runs alternate untraced and traced repetitions of the same
/// operation (untraced first) until `seconds` have passed, at least one
/// of each. Returns (untraced, traced).
pub fn repeat_pairs(
    seconds: f64,
    mut op: impl FnMut(bool) -> Result<(), String>,
) -> Result<(Reps, Reps), String> {
    let start = Instant::now();
    let (mut plain, mut traced) = (Reps::default(), Reps::default());
    while traced.secs.is_empty() || start.elapsed().as_secs_f64() < seconds {
        plain.measure(|| op(false))?;
        traced.measure(|| op(true))?;
    }
    Ok((plain, traced))
}

/// Tracing overhead: how much longer the traced repetitions took than
/// the untraced ones, as a share of the untraced median.
pub fn trace_overhead(plain_secs: &[f64], traced_secs: &[f64]) -> f64 {
    stats::median(traced_secs) / stats::median(plain_secs) - 1.0
}

/// Median of a non-empty sample, or 0 for an empty one (a span that
/// never ran).
pub fn median_or_zero(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        stats::median(values)
    }
}

/// The end-to-end metrics every workload reports on an untraced run, in
/// `BENCHMARK.json` order. Workload-specific figures go to the result
/// file's `extra`.
pub const END_TO_END: [&str; 3] = ["setup_s", "peak_rss_mb", "cpu_ms_per_op"];

/// The layers a span can belong to, in `BENCHMARK.json` order.
pub const LAYERS: [&str; 8] = [
    "s2",
    "label",
    "mapreduce",
    "nn",
    "unet",
    "core",
    "serve",
    "stream",
];

/// The per-layer metrics every workload reports on a traced run, in
/// `BENCHMARK.json` order: three run-level figures, then
/// `<layer>.self_ms_per_call` for every layer in [`LAYERS`].
pub fn per_layer_names() -> Vec<String> {
    ["ops_per_s", "cpu_busy_cores", "trace_overhead_frac"]
        .iter()
        .map(|s| s.to_string())
        .chain(LAYERS.iter().map(|l| format!("{l}.self_ms_per_call")))
        .collect()
}

/// The end-to-end metrics: median set-up CPU seconds, the median over
/// repetitions of the peak resident memory, and the median CPU
/// milliseconds per operation for repetitions of `ops` operations each.
pub fn end_to_end(out: &mut Outcome, setup_s: f64, reps: &Reps, ops: usize) {
    out.metric("setup_s", setup_s, "s");
    out.metric("peak_rss_mb", stats::median(&reps.peak_mib), "MiB");
    out.metric("cpu_ms_per_op", reps.cpu_ms_per(ops), "ms");
}

/// The per-layer metrics: operations per wall second and busy cores of
/// the untraced repetitions of `ops` operations each, the tracing
/// overhead, and the self time per call of every layer's spans (0 for a
/// layer the workload never calls).
pub fn per_layer(out: &mut Outcome, spans: &Spans, plain: &Reps, ops: usize, overhead: f64) {
    out.metric("ops_per_s", plain.per_sec(ops), "op/s");
    out.metric("cpu_busy_cores", plain.busy_cores(), "cores");
    out.metric("trace_overhead_frac", overhead, "ratio");
    let by_layer = crate::spans::layer_self(&crate::spans::table(&spans.finished()));
    for layer in LAYERS {
        let per_call = by_layer
            .get(layer)
            .map_or(0.0, |&(calls, self_ms)| self_ms / calls.max(1) as f64);
        out.metric(&format!("{layer}.self_ms_per_call"), per_call, "ms");
    }
}
