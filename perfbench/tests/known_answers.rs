//! Known-answer tests for the benchmark's own arithmetic: if these move,
//! every figure the benchmark reports moves with them.

use seaice_perfbench::compare::{compare, parse_result};
use seaice_perfbench::host::{cpu_secs, parse_cpuinfo, Fingerprint};
use seaice_perfbench::report::{Outcome, RunId};
use seaice_perfbench::spans::{self, Span};
use seaice_perfbench::stats::{
    backlog_growing, busy_cores, ladder_max_rate, lateness_ms, median, parse_status_mib,
    percentile, quartiles, relative_iqr, samples_beyond, tail_percentile, LadderStep, SplitMix,
};
use seaice_perfbench::workloads;
use seaice_perfbench::workloads::train::{conv_cost, conv_shapes};
use std::collections::BTreeMap;

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() < 1e-9
}

#[test]
fn median_of_odd_and_even_samples() {
    assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    assert_eq!(median(&[7.0]), 7.0);
}

#[test]
fn quartiles_match_python_statistics_quantiles() {
    // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
    let v: Vec<f64> = (1..=10).map(f64::from).collect();
    let [q1, q2, q3] = quartiles(&v);
    assert!(close(q1, 2.75) && close(q2, 5.5) && close(q3, 8.25));
    // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
    let [q1, q2, q3] = quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]);
    assert!(close(q1, 1.5) && close(q2, 3.0) && close(q3, 4.5));
    // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
    let [q1, q2, q3] = quartiles(&[10.0, 20.0]);
    assert!(close(q1, 7.5) && close(q2, 15.0) && close(q3, 22.5));
    // (8.25 - 2.75) / 5.5
    assert!(close(relative_iqr(&v), 1.0));
}

#[test]
fn tail_percentile_keeps_ten_samples_beyond_it() {
    // p99 of 1000 samples leaves exactly 10 above it; 999 samples cannot
    // support p99 and fall back to p95.
    assert_eq!(samples_beyond(1000, 99.0), 10);
    assert_eq!(tail_percentile(1000, 10), Some(99.0));
    assert_eq!(tail_percentile(999, 10), Some(95.0));
    assert_eq!(tail_percentile(10_000, 10), Some(99.9));
    assert_eq!(tail_percentile(15, 10), None);
    let v: Vec<f64> = (1..=1000).map(f64::from).collect();
    assert_eq!(percentile(&v, 99.0), 990.0);
    assert_eq!(percentile(&v, 50.0), 500.0);
    assert_eq!(percentile(&v, 100.0), 1000.0);
    // A refused request is infinitely late, so enough of them push the
    // p99 to infinity.
    let mut with_failures = v.clone();
    with_failures.truncate(985);
    with_failures.extend([f64::INFINITY; 15]);
    assert!(percentile(&with_failures, 99.0).is_infinite());
}

fn step(rate: f64, p99_ms: f64, backlog_growing: bool) -> LadderStep {
    LadderStep {
        rate,
        p99_ms,
        backlog_growing,
    }
}

#[test]
fn ladder_climbs_until_the_first_miss() {
    let ladder = [
        step(150.0, 10.0, false),
        step(300.0, 20.0, false),
        step(400.0, 49.0, false),
        step(600.0, 80.0, false),
        // A later step that meets the limit does not count after a miss.
        step(800.0, 30.0, false),
    ];
    assert_eq!(ladder_max_rate(&ladder, 50.0), Some(400.0));
    // A growing backlog is a miss even under the limit.
    let backlog = [step(150.0, 10.0, false), step(300.0, 20.0, true)];
    assert_eq!(ladder_max_rate(&backlog, 50.0), Some(150.0));
    // Failures count as infinitely late, so they are misses.
    let failed = [step(150.0, f64::INFINITY, false)];
    assert_eq!(ladder_max_rate(&failed, 50.0), None);
}

#[test]
fn backlog_grows_when_the_last_quarter_waits_longer() {
    let steady: Vec<f64> = (0..100).map(|i| 5.0 + (i % 3) as f64).collect();
    assert!(!backlog_growing(&steady, 25.0));
    let growing: Vec<f64> = (0..100).map(|i| i as f64).collect();
    // First-quarter median 12, last-quarter median 87.
    assert!(backlog_growing(&growing, 25.0));
    let mut shed = steady.clone();
    for l in shed.iter_mut().skip(75) {
        *l = f64::INFINITY;
    }
    assert!(backlog_growing(&shed, 25.0));
}

#[test]
fn generator_lateness_is_send_minus_due_clamped_at_zero() {
    let due = [0.0, 1_000.0, 2_000.0, 3_000.0];
    let sent = [500.0, 900.0, 4_000.0, 3_000.0];
    assert_eq!(lateness_ms(&due, &sent), vec![0.0, 0.0, 0.5, 2.0]);
}

#[test]
fn process_cpu_clock_and_status_parsing() {
    // The process CPU clock advances while this thread spins.
    let c0 = cpu_secs();
    let t0 = std::time::Instant::now();
    while t0.elapsed().as_millis() < 30 {
        std::hint::black_box(t0.elapsed());
    }
    assert!(cpu_secs() > c0);
    // 1.5 CPU seconds over 0.75 s of wall time: 2 cores busy.
    assert!(close(busy_cores(1.5, 0.75), 2.0));
    assert_eq!(busy_cores(1.0, 0.0), 0.0);
    let status = "Name:\tx\nVmHWM:\t    2048 kB\nVmRSS:\t  1024 kB\n";
    assert_eq!(parse_status_mib(status, "VmHWM"), Some(2.0));
    assert_eq!(parse_status_mib(status, "VmSwap"), None);
}

fn span(id: u64, parent: Option<u64>, start_us: f64, end_us: f64) -> Span {
    Span {
        id,
        parent,
        name: format!("layer.s{id}"),
        tid: 1,
        start_us,
        end_us,
    }
}

#[test]
fn self_time_subtracts_the_union_of_children() {
    let spans = [
        // Root 0..100 ms with children 10..30, 20..50 (overlapping: union
        // 40 ms) and 90..120 (clipped to 10 ms).
        span(1, None, 0.0, 100_000.0),
        span(2, Some(1), 10_000.0, 30_000.0),
        span(3, Some(1), 20_000.0, 50_000.0),
        span(4, Some(1), 90_000.0, 120_000.0),
        // A grandchild counts against its parent only.
        span(5, Some(2), 12_000.0, 18_000.0),
    ];
    let self_ms = spans::self_times_ms(&spans);
    assert!(close(self_ms[0], 50.0), "{self_ms:?}");
    assert!(close(self_ms[1], 14.0), "{self_ms:?}");
    assert!(close(self_ms[2], 30.0));
    assert!(close(self_ms[3], 30.0));
    assert!(close(self_ms[4], 6.0));
    let table = spans::table(&spans);
    assert_eq!(table.len(), 5);
    assert!(table.iter().all(|r| r.layer == "layer" && r.calls == 1));
    // Per layer: 5 calls, 50 + 14 + 30 + 30 + 6 ms of self time.
    let by_layer = spans::layer_self(&table);
    assert_eq!(by_layer.len(), 1);
    let (calls, self_total) = by_layer["layer"];
    assert_eq!(calls, 5);
    assert!(close(self_total, 130.0), "{self_total}");
}

/// The names in a `BENCHMARK.json` list, in order.
fn manifest_names(doc: &seaice_obs::json::Value, key: &str) -> Vec<String> {
    doc.get(key)
        .and_then(|v| v.as_arr())
        .expect("list")
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(|n| n.as_str())
                .expect("name")
                .to_string()
        })
        .collect()
}

#[test]
fn manifest_lists_the_metrics_every_workload_reports() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let src = std::fs::read_to_string(path).expect("BENCHMARK.json next to perfbench/");
    let doc = seaice_obs::json::parse(&src).expect("json");
    assert_eq!(manifest_names(&doc, "end_to_end"), workloads::END_TO_END);
    assert_eq!(
        manifest_names(&doc, "per_layer"),
        workloads::per_layer_names()
    );
    assert_eq!(manifest_names(&doc, "workloads"), workloads::NAMES);
}

#[test]
fn recorded_spans_nest_and_export_a_valid_chrome_trace() {
    let rec = spans::Spans::new(true);
    {
        let outer = rec.enter("bench.outer");
        let id = outer.id();
        {
            let _inner = rec.enter("s2.inner");
        }
        std::thread::scope(|s| {
            s.spawn(|| {
                let _remote = rec.enter_under("label.remote", id);
            });
        });
    }
    let done = rec.finished();
    assert_eq!(done.len(), 3);
    let outer = done.iter().find(|s| s.name == "bench.outer").map(|s| s.id);
    assert!(done
        .iter()
        .filter(|s| s.name != "bench.outer")
        .all(|s| s.parent == outer));
    let json = spans::chrome_json(&done);
    let shape = seaice_obs::trace::validate_chrome_trace(&json).expect("valid trace");
    assert_eq!(shape.complete, 3);
    // An inert recorder records nothing.
    let off = spans::Spans::new(false);
    drop(off.enter("bench.ghost"));
    assert!(off.finished().is_empty());
}

#[test]
fn conv_flops_of_the_train_model() {
    let cfg = seaice_perfbench::workloads::train::config(1).unet;
    let shapes = conv_shapes(&cfg, 32);
    // depth 2: 4 encoder + 2 bottleneck + 6 decoder + 1 head.
    assert_eq!(shapes.len(), 13);
    assert_eq!(shapes[0], (3, 8, 3, 32));
    assert_eq!(shapes[12], (8, 3, 1, 32));
    // The first conv alone: 2 · 32² · 8 · 3 · 9 FLOPs per image.
    let (flops, bytes) = conv_cost(&shapes[..1], 1);
    assert!(close(flops, 442_368.0));
    assert!(close(bytes, 4.0 * (3072.0 + 216.0 + 8.0 + 8192.0)));
}

#[test]
fn seeded_streams_repeat_and_exp_gaps_average_the_rate() {
    let (mut a, mut b) = (SplitMix::new(7), SplitMix::new(7));
    assert_eq!(a.next_u64(), b.next_u64());
    let mut r = SplitMix::new(1);
    let n = 100_000;
    let mean: f64 = (0..n).map(|_| r.exp_gap(400.0)).sum::<f64>() / n as f64;
    assert!((mean - 1.0 / 400.0).abs() < 0.02 / 400.0, "{mean}");
}

#[test]
fn cpuinfo_yields_model_and_recorded_simd_flags() {
    let info =
        "processor\t: 0\nmodel name\t: Test CPU @ 2GHz\nflags\t\t: fpu avx2 avx512f sse4_2\n";
    let (model, simd) = parse_cpuinfo(info);
    assert_eq!(model, "Test CPU @ 2GHz");
    assert_eq!(simd, vec!["avx2".to_string(), "avx512f".to_string()]);
}

fn result_file(fp: &Fingerprint, value: f64) -> String {
    let mut o = Outcome::default();
    o.metric("cpu_ms_per_op", value, "ms");
    o.ops(10, 0);
    let run = RunId {
        workload: "label".into(),
        seed: 1,
        seconds: 10,
        trace: false,
    };
    o.result_file(&run, fp)
}

#[test]
fn compare_refuses_different_hosts_and_flags_regressions() {
    let fp = Fingerprint {
        nproc: 2,
        cpu_model: "Test CPU".into(),
        simd: vec!["avx2".into()],
        rustc: "rustc 1.0".into(),
        profile: "release".into(),
        commit: "aaaa".into(),
    };
    let base = vec![parse_result(&result_file(&fp, 100.0)).expect("parses")];
    // Another commit on the same host compares.
    let other_commit = Fingerprint {
        commit: "bbbb".into(),
        ..fp.clone()
    };
    let cur = vec![parse_result(&result_file(&other_commit, 130.0)).expect("parses")];
    let mut specs = BTreeMap::new();
    specs.insert("cpu_ms_per_op".to_string(), (true, Some(0.25)));
    let report = compare(&base, &cur, &specs).expect("same host compares");
    assert!(report.contains("WORSE past bound"), "{report}");
    // Another core count does not.
    let other_host = Fingerprint { nproc: 4, ..fp };
    let cur = vec![parse_result(&result_file(&other_host, 100.0)).expect("parses")];
    let err = compare(&base, &cur, &specs).expect_err("different hosts refuse");
    assert!(err.contains("refusing"), "{err}");
}

#[test]
fn result_line_has_exactly_the_contract_keys() {
    let mut o = Outcome::default();
    o.metric("setup_s", 0.5, "s");
    o.extra("serve.low.p50_ms", 6.0, "ms");
    o.ops(4, 0);
    o.check("c", true, "");
    let line = o.result_line();
    let doc = seaice_obs::json::parse(&line).expect("json");
    let keys: Vec<&str> = doc
        .as_obj()
        .expect("object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert!(!line.contains("serve.low.p50_ms"));
    assert_eq!(doc.get("correct").and_then(|v| v.as_bool()), Some(true));
    // A refused request counts against failed_frac but is neither a
    // failed operation nor a wrong answer.
    o.ops(1, 0);
    o.refuse(1);
    assert!(o
        .result_line()
        .starts_with("{\"correct\": true, \"attempted\": 5, \"failed\": 0"));
    assert!((o.failed_frac() - 0.2).abs() < 1e-12);
    o.ops(1, 1);
    assert!(o.result_line().starts_with("{\"correct\": false"));
    o.check("broken", false, "");
    assert!(o.result_line().starts_with("{\"correct\": false"));
}
