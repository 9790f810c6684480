//! The benchmark's own spans: one per call into a layer, recorded from
//! the benchmark's code around the crates' public functions, kept in
//! memory and written out as a Chrome trace when the run ends.
//!
//! A span's layer is its name up to the first `.` (`label.filter` is in
//! layer `label`); spans around the benchmark's own repetitions use
//! layer `bench`.
//! Parents link by id, so a span may nest under a span on another thread
//! (a map task under its `mapreduce.collect`). Self time is a span's
//! duration minus the part of it its children cover.
//!
//! A disabled recorder is free: `enter` returns an inert guard and reads
//! no clock.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One finished span.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Unique id within the run.
    pub id: u64,
    /// The id of the span that caused it.
    pub parent: Option<u64>,
    /// `layer.call` name.
    pub name: String,
    /// Sequential id of the thread that recorded it.
    pub tid: u64,
    /// Start, µs from the recorder's origin.
    pub start_us: f64,
    /// End, µs from the recorder's origin.
    pub end_us: f64,
}

impl Span {
    /// The span's layer: its name up to the first `.`.
    pub fn layer(&self) -> &str {
        self.name.split('.').next().unwrap_or("")
    }

    /// Duration in ms.
    pub fn dur_ms(&self) -> f64 {
        (self.end_us - self.start_us) / 1e3
    }
}

static NEXT_TID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static TID: u64 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
    /// Open span ids on this thread, innermost last.
    static OPEN: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

fn tid() -> u64 {
    TID.with(|t| *t)
}

/// The span recorder of one run.
pub struct Spans {
    on: bool,
    origin: Instant,
    next_id: AtomicU64,
    done: Mutex<Vec<Span>>,
}

impl Spans {
    /// A recorder; `on = false` makes every call a no-op.
    pub fn new(on: bool) -> Self {
        Self {
            on,
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            done: Mutex::new(Vec::new()),
        }
    }

    /// Whether spans are recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    fn us(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.origin).as_nanos() as f64 / 1e3
    }

    /// The innermost open span on this thread.
    pub fn current(&self) -> Option<u64> {
        if !self.on {
            return None;
        }
        OPEN.with(|o| o.borrow().last().copied())
    }

    /// Opens a span under this thread's innermost open span.
    pub fn enter(&self, name: &str) -> Guard<'_> {
        let parent = self.current();
        self.enter_under(name, parent)
    }

    /// Opens a span under an explicit parent (possibly on another
    /// thread).
    pub fn enter_under(&self, name: &str, parent: Option<u64>) -> Guard<'_> {
        if !self.on {
            return Guard { open: None };
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        OPEN.with(|o| o.borrow_mut().push(id));
        Guard {
            open: Some(OpenSpan {
                spans: self,
                id,
                parent,
                name: name.to_string(),
                start: Instant::now(),
            }),
        }
    }

    /// Records a finished span whose ends were observed elsewhere (a
    /// request submitted on one thread and answered on another).
    pub fn record(&self, name: &str, parent: Option<u64>, start: Instant, end: Instant) {
        if !self.on {
            return;
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.push(Span {
            id,
            parent,
            name: name.to_string(),
            tid: tid(),
            start_us: self.us(start),
            end_us: self.us(end),
        });
    }

    fn push(&self, span: Span) {
        self.done
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(span);
    }

    /// Every finished span, in start order.
    pub fn finished(&self) -> Vec<Span> {
        let mut v = self.done.lock().unwrap_or_else(|e| e.into_inner()).clone();
        v.sort_by(|a, b| a.start_us.total_cmp(&b.start_us).then(a.id.cmp(&b.id)));
        v
    }

    /// Durations in ms of every finished span called `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.done
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .filter(|s| s.name == name)
            .map(Span::dur_ms)
            .collect()
    }
}

struct OpenSpan<'a> {
    spans: &'a Spans,
    id: u64,
    parent: Option<u64>,
    name: String,
    start: Instant,
}

/// An open span; it ends when dropped.
pub struct Guard<'a> {
    open: Option<OpenSpan<'a>>,
}

impl Guard<'_> {
    /// The span's id (`None` when recording is off).
    pub fn id(&self) -> Option<u64> {
        self.open.as_ref().map(|o| o.id)
    }
}

impl Drop for Guard<'_> {
    fn drop(&mut self) {
        if let Some(o) = self.open.take() {
            let end = Instant::now();
            OPEN.with(|stack| {
                let mut stack = stack.borrow_mut();
                if let Some(pos) = stack.iter().rposition(|&i| i == o.id) {
                    stack.remove(pos);
                }
            });
            o.spans.push(Span {
                id: o.id,
                parent: o.parent,
                name: o.name,
                tid: tid(),
                start_us: o.spans.us(o.start),
                end_us: o.spans.us(end),
            });
        }
    }
}

/// Self time of every span in ms, in input order: its duration minus the
/// length of the union of its children's intervals clipped to it.
pub fn self_times_ms(spans: &[Span]) -> Vec<f64> {
    let mut children: BTreeMap<u64, Vec<(f64, f64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_us, s.end_us));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut iv: Vec<(f64, f64)> = children
                .get(&s.id)
                .map(|c| {
                    c.iter()
                        .map(|&(a, b)| (a.max(s.start_us), b.min(s.end_us)))
                        .filter(|(a, b)| b > a)
                        .collect()
                })
                .unwrap_or_default();
            iv.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut covered = 0.0;
            let mut cur: Option<(f64, f64)> = None;
            for (a, b) in iv {
                cur = match cur {
                    Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
                    Some((ca, cb)) => {
                        covered += cb - ca;
                        Some((a, b))
                    }
                    None => Some((a, b)),
                };
            }
            if let Some((ca, cb)) = cur {
                covered += cb - ca;
            }
            ((s.end_us - s.start_us) - covered).max(0.0) / 1e3
        })
        .collect()
}

/// One row of the per-call time table.
#[derive(Clone, Debug, PartialEq)]
pub struct TableRow {
    /// Layer name.
    pub layer: String,
    /// Span name.
    pub name: String,
    /// Spans of that name.
    pub calls: usize,
    /// Summed duration, ms.
    pub total_ms: f64,
    /// Summed self time, ms.
    pub self_ms: f64,
}

/// Total and self time per span name, ordered by layer then name.
pub fn table(spans: &[Span]) -> Vec<TableRow> {
    let selfs = self_times_ms(spans);
    let mut rows: BTreeMap<(String, String), TableRow> = BTreeMap::new();
    for (s, self_ms) in spans.iter().zip(selfs) {
        let row = rows
            .entry((s.layer().to_string(), s.name.clone()))
            .or_insert_with(|| TableRow {
                layer: s.layer().to_string(),
                name: s.name.clone(),
                calls: 0,
                total_ms: 0.0,
                self_ms: 0.0,
            });
        row.calls += 1;
        row.total_ms += s.dur_ms();
        row.self_ms += self_ms;
    }
    rows.into_values().collect()
}

/// Calls and summed self time (ms) per layer.
pub fn layer_self(rows: &[TableRow]) -> BTreeMap<String, (usize, f64)> {
    let mut by_layer: BTreeMap<String, (usize, f64)> = BTreeMap::new();
    for r in rows {
        let e = by_layer.entry(r.layer.clone()).or_default();
        e.0 += r.calls;
        e.1 += r.self_ms;
    }
    by_layer
}

/// Renders the table with per-layer subtotals of self time.
pub fn render_table(rows: &[TableRow]) -> String {
    let mut out = format!(
        "{:<8} {:<28} {:>8} {:>12} {:>12}\n",
        "layer", "span", "calls", "total_ms", "self_ms"
    );
    for r in rows {
        out.push_str(&format!(
            "{:<8} {:<28} {:>8} {:>12.3} {:>12.3}\n",
            r.layer, r.name, r.calls, r.total_ms, r.self_ms
        ));
    }
    for (layer, (_, ms)) in layer_self(rows) {
        out.push_str(&format!(
            "{layer:<8} {:<28} {:>8} {:>12} {ms:>12.3}\n",
            "(self, all spans)", "", ""
        ));
    }
    out
}

/// The spans as Chrome `trace_event` JSON: one complete (`X`) event per
/// span, category = layer, with `id`/`parent` args.
pub fn chrome_json(spans: &[Span]) -> String {
    let mut out = String::from("{\"traceEvents\": [");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n  {{\"name\": \"{}\", \"cat\": \"{}\", \"ph\": \"X\", \"ts\": {:.3}, \"dur\": {:.3}, \"pid\": 1, \"tid\": {}, \"args\": {{\"id\": {}, \"parent\": {}}}}}",
            seaice_obs::json::escape(&s.name),
            seaice_obs::json::escape(s.layer()),
            s.start_us,
            s.end_us - s.start_us,
            s.tid,
            s.id,
            s.parent.map_or("null".to_string(), |p| p.to_string()),
        ));
    }
    if !spans.is_empty() {
        out.push('\n');
    }
    out.push_str("]}\n");
    out
}
