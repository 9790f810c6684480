//! The benchmark's own arithmetic: order statistics, the tail percentile
//! a sample can support, the open-loop rate ladder, generator lateness
//! and `/proc` parsing. Everything here is pure so the known-answer tests
//! in `tests/known_answers.rs` can pin it.

/// Sorts a copy of `values` ascending (NaN-free input assumed; NaNs sort
/// last).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    v
}

/// The median (mean of the two middle values for even counts).
///
/// # Panics
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let v = sorted(values);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First, second and third quartile, computed exactly as Python's
/// `statistics.quantiles(values, n=4)` (its default `exclusive` method),
/// so figures here match the acceptance check's arithmetic.
///
/// # Panics
/// Panics on an empty slice.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(!values.is_empty(), "quartiles of an empty sample");
    let v = sorted(values);
    let ld = v.len();
    if ld == 1 {
        return [v[0]; 3];
    }
    let n = 4usize;
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (i, q) in (1..n).zip(out.iter_mut()) {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        *q = (v[j - 1] * (n as f64 - delta) + v[j] * delta) / n as f64;
    }
    out
}

/// Interquartile range as a share of the median: the spread the
/// acceptance check bounds.
pub fn relative_iqr(values: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(values);
    if q2 == 0.0 {
        return f64::INFINITY;
    }
    (q3 - q1) / q2.abs()
}

/// Nearest-rank percentile of an ascending sample: the smallest value
/// with at least `p`% of the sample at or below it.
///
/// # Panics
/// Panics on an empty sample or `p` outside `(0, 100]`.
pub fn percentile(sorted_values: &[f64], p: f64) -> f64 {
    assert!(!sorted_values.is_empty(), "percentile of an empty sample");
    assert!(p > 0.0 && p <= 100.0, "percentile {p} out of range");
    let n = sorted_values.len();
    let rank = ((p / 100.0) * n as f64 - 1e-9).ceil().max(1.0) as usize;
    sorted_values[rank.min(n) - 1]
}

/// How many samples lie strictly beyond the nearest-rank `p` percentile
/// position of an `n`-sample set.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    let rank = ((p / 100.0) * n as f64 - 1e-9).ceil().max(1.0) as usize;
    n - rank.min(n)
}

/// The percentiles a tail is reported at, highest first.
pub const TAIL_PERCENTILES: [f64; 7] = [99.99, 99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// The highest percentile of [`TAIL_PERCENTILES`] that keeps at least
/// `min_beyond` samples beyond it, or `None` when even the median does
/// not.
pub fn tail_percentile(n: usize, min_beyond: usize) -> Option<f64> {
    TAIL_PERCENTILES
        .iter()
        .copied()
        .find(|&p| samples_beyond(n, p) >= min_beyond)
}

/// One open-loop step of the rate ladder.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LadderStep {
    /// Offered rate, requests/s.
    pub rate: f64,
    /// The step's p99 latency in ms, failures counted as infinitely late.
    pub p99_ms: f64,
    /// Whether the backlog grew over the step.
    pub backlog_growing: bool,
}

/// The highest rate of an ascending ladder whose p99 stays within
/// `limit_ms` with no growing backlog, stopping at the first miss.
/// `None` when the lowest rate already misses.
pub fn ladder_max_rate(steps: &[LadderStep], limit_ms: f64) -> Option<f64> {
    let mut best = None;
    for s in steps {
        if s.p99_ms <= limit_ms && !s.backlog_growing {
            best = Some(s.rate);
        } else {
            break;
        }
    }
    best
}

/// A backlog grows when the median latency of the last quarter of a
/// step's requests (in send order) exceeds the first quarter's by more
/// than `slack_ms`: a queue that drains keeps both ends alike. Failures
/// are infinitely late, so a step that sheds at the end always grows.
pub fn backlog_growing(latencies_in_send_order_ms: &[f64], slack_ms: f64) -> bool {
    let n = latencies_in_send_order_ms.len();
    if n < 4 {
        return false;
    }
    let q = n / 4;
    let first = median(&latencies_in_send_order_ms[..q]);
    let last = median(&latencies_in_send_order_ms[n - q..]);
    last - first > slack_ms
}

/// How late an open-loop generator ran: the send time minus the due
/// time of every request, clamped at zero (µs in, ms out, ascending).
pub fn lateness_ms(due_us: &[f64], sent_us: &[f64]) -> Vec<f64> {
    assert_eq!(due_us.len(), sent_us.len(), "due/sent length mismatch");
    sorted(
        &due_us
            .iter()
            .zip(sent_us)
            .map(|(d, s)| ((s - d) / 1e3).max(0.0))
            .collect::<Vec<_>>(),
    )
}

/// Mean cores kept busy: CPU seconds over wall seconds.
pub fn busy_cores(cpu_secs: f64, wall_secs: f64) -> f64 {
    if wall_secs <= 0.0 {
        return 0.0;
    }
    cpu_secs / wall_secs
}

/// A `Vm*:` field of `/proc/<pid>/status`, in MiB.
pub fn parse_status_mib(status: &str, field: &str) -> Option<f64> {
    status.lines().find_map(|l| {
        let rest = l.strip_prefix(field)?.strip_prefix(':')?;
        let kb: f64 = rest.trim().trim_end_matches("kB").trim().parse().ok()?;
        Some(kb / 1024.0)
    })
}

/// FNV-1a over bytes: the digest masks are compared by.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A splitmix64 stream: the benchmark's only randomness, so every input
/// is a pure function of `--seed`.
#[derive(Clone, Debug)]
pub struct SplitMix(u64);

impl SplitMix {
    /// A stream seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_f64() * n as f64) as usize % n.max(1)
    }

    /// An exponential inter-arrival gap for a Poisson process of `rate`
    /// events per second, in seconds.
    pub fn exp_gap(&mut self, rate: f64) -> f64 {
        -(1.0 - self.next_f64()).ln() / rate
    }
}
