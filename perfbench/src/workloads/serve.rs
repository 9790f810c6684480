//! `serve`: independent users in an open loop against `Engine` at its
//! default `EngineConfig::for_tile(32)` (f32, cache 1024), serving
//! `train`'s architecture with dropout 0 restored from a checkpoint.
//!
//! * Arrivals are seeded exponential gaps at fixed absolute rates; each
//!   request repeats an earlier tile of its step with probability 0.5
//!   (archive re-analysis, the regime `servebench.rs` documents).
//! * The ladder 150/300/400/600/800 req/s climbs until its first miss;
//!   the low, mid and high steps (150, 400, 600) always run. Each step
//!   sends 1000 requests, so its p99 keeps 10 samples beyond it. Each
//!   request is timed from its due time; a refused or failed request
//!   counts as infinitely late.
//! * `serve.max_rate_rps` is the highest step, climbing from 150, whose
//!   p99 stays within 50 ms with no growing backlog.
//! * An HTTP phase follows: a closed loop over `POST /classify` with
//!   `nproc` connections.
//! * Traced runs make that pass twice: untraced first, on the engine the
//!   set-up started (its figures are the ones reported), then traced, on
//!   a second engine started cold with the metrics registry on.
//!
//! The load comes from this process with at most `nproc` (= 2 on the
//! reference host) threads: the generator and one collector, or the two
//! HTTP clients.

use super::{end_to_end, per_layer, set_up, trace_overhead, Ctx, Reps};
use crate::host::nproc;
use crate::report::Outcome;
use crate::spans::Spans;
use crate::stats::{self, LadderStep, SplitMix};
use seaice_core::adapters::image_to_chw;
use seaice_imgproc::buffer::Image;
use seaice_nn::Tensor;
use seaice_s2::synth::{generate, SceneConfig};
use seaice_serve::cache::tile_key;
use seaice_serve::engine::{Engine, EngineConfig, ServeError, StatsSnapshot, Ticket};
use seaice_serve::http::HttpServer;
use seaice_unet::checkpoint::{self, Checkpoint};
use seaice_unet::{UNet, UNetConfig};
use std::collections::BTreeSet;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Tile side the engine serves.
pub const TILE: usize = 32;
/// The open-loop ladder, req/s, ascending.
pub const LADDER: [f64; 5] = [150.0, 300.0, 400.0, 600.0, 800.0];
/// Low, mid and high rates (steps of the ladder).
pub const LOW: f64 = 150.0;
/// See [`LOW`].
pub const MID: f64 = 400.0;
/// See [`LOW`].
pub const HIGH: f64 = 600.0;
/// Requests per ladder step.
pub const REQUESTS_PER_STEP: usize = 1000;
/// Requests per HTTP phase, split over the connections.
pub const HTTP_REQUESTS: usize = 2000;
/// Chance a request repeats an earlier tile of its step.
pub const REPEAT_P: f64 = 0.5;
/// Latency limit on the p99 for `serve.max_rate_rps`, ms.
pub const LIMIT_MS: f64 = 50.0;
/// Every how many requests an answer is kept for the output check.
pub const SAMPLE_EVERY: usize = 8;

/// The served model: `train`'s U-Net with dropout off.
pub fn model_config(seed: u64) -> UNetConfig {
    UNetConfig {
        dropout: 0.0,
        seed,
        ..crate::workloads::train::config(seed).unet
    }
}

/// One planned request: due offset from the step's start and the tile it
/// sends.
#[derive(Clone, Copy, Debug)]
struct Planned {
    due: Duration,
    tile: usize,
}

/// Plans `n` requests at `rate` over fresh tiles taken from `next_fresh`
/// onwards; returns the plan and the next unused tile.
fn plan(rng: &mut SplitMix, rate: f64, n: usize, mut next_fresh: usize) -> (Vec<Planned>, usize) {
    let mut t = 0.0;
    let mut used: Vec<usize> = Vec::with_capacity(n);
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        t += rng.exp_gap(rate);
        let tile = if !used.is_empty() && rng.next_f64() < REPEAT_P {
            used[rng.below(used.len())]
        } else {
            next_fresh += 1;
            used.push(next_fresh - 1);
            next_fresh - 1
        };
        out.push(Planned {
            due: Duration::from_secs_f64(t),
            tile,
        });
    }
    (out, next_fresh)
}

/// An engine and the HTTP server in front of it.
struct Server {
    engine: Arc<Engine>,
    http: HttpServer,
}

impl Server {
    fn start(ckpt: &Checkpoint) -> Result<Self, String> {
        let engine =
            Arc::new(Engine::new(ckpt, EngineConfig::for_tile(TILE)).map_err(|e| e.to_string())?);
        let http =
            HttpServer::start(Arc::clone(&engine), "127.0.0.1:0").map_err(|e| e.to_string())?;
        Ok(Self { engine, http })
    }
}

struct Inputs {
    pool: Vec<Image<u8>>,
    steps: Vec<Vec<Planned>>,
    /// Closed-loop plans: engine baseline (traced runs) and HTTP.
    engine_plan: Vec<Planned>,
    http_plan: Vec<Planned>,
    ckpt: Checkpoint,
    server: Server,
}

/// Distinct 32² tiles cut at seeded offsets from 512² scenes.
fn tile_pool(rng: &mut SplitMix, n: usize) -> Vec<Image<u8>> {
    let side = 512;
    let scenes: Vec<Image<u8>> = (0..4)
        .map(|_| generate(&SceneConfig::tiny(side), rng.next_u64()).rgb)
        .collect();
    let mut seen = BTreeSet::new();
    let mut pool = Vec::with_capacity(n);
    while pool.len() < n {
        let s = &scenes[rng.below(scenes.len())];
        let (x, y) = (rng.below(side - TILE + 1), rng.below(side - TILE + 1));
        let tile = s.crop(x, y, TILE, TILE);
        if seen.insert(tile_key(&tile)) {
            pool.push(tile);
        }
    }
    pool
}

fn setup(seed: u64) -> Result<Inputs, String> {
    let mut rng = SplitMix::new(seed);
    let mut steps = Vec::new();
    let mut next = 0;
    for rate in LADDER {
        let (p, n) = plan(&mut rng, rate, REQUESTS_PER_STEP, next);
        steps.push(p);
        next = n;
    }
    let mut closed = || {
        // Closed loops ignore due times; only the tile sequence matters.
        let (p, n) = plan(&mut rng, 1.0, HTTP_REQUESTS, next);
        next = n;
        p
    };
    let (engine_plan, http_plan) = (closed(), closed());
    let pool = tile_pool(&mut rng, next);
    let ckpt = checkpoint::snapshot(&mut UNet::new(model_config(seed)));
    let server = Server::start(&ckpt)?;
    Ok(Inputs {
        pool,
        steps,
        engine_plan,
        http_plan,
        ckpt,
        server,
    })
}

/// What one request ended as.
#[derive(Clone, Debug)]
struct Answer {
    /// Latency from due time (open loop) or send time (closed loop), ms;
    /// infinite when refused or failed.
    ms: f64,
    /// The mask, kept for every [`SAMPLE_EVERY`]th request.
    mask: Option<Arc<Vec<u8>>>,
    /// Shed by admission control (`Overloaded`, HTTP 503).
    refused: bool,
}

impl Answer {
    /// Request `i`'s reply, answered `ms` after it was due or sent.
    fn new(i: usize, reply: Result<Arc<Vec<u8>>, ServeError>, ms: f64) -> Self {
        match reply {
            Ok(mask) => Answer {
                ms,
                mask: i.is_multiple_of(SAMPLE_EVERY).then_some(mask),
                refused: false,
            },
            Err(e) => Answer {
                ms: f64::INFINITY,
                mask: None,
                refused: e == ServeError::Overloaded,
            },
        }
    }
}

/// One open-loop step.
struct StepResult {
    rate: f64,
    answers: Vec<Answer>,
    /// Generator lateness per request, ms, ascending.
    late_ms: Vec<f64>,
}

impl StepResult {
    fn latencies(&self) -> Vec<f64> {
        self.answers.iter().map(|a| a.ms).collect()
    }

    fn percentile(&self, p: f64) -> f64 {
        stats::percentile(&stats::sorted(&self.latencies()), p)
    }
}

fn ms_since(from: Instant, to: Instant) -> f64 {
    to.saturating_duration_since(from).as_secs_f64() * 1e3
}

/// Sends `plan` at its due times from this thread while one collector
/// thread waits for the answers in send order.
///
/// A cache hit is answered inside `try_submit`, so it is stamped done
/// when that call returns rather than when the collector reaches it
/// behind earlier misses. Only this thread submits during the step, so
/// a rise in the engine's hit count across the call marks a hit.
fn open_loop(
    inputs: &Inputs,
    engine: &Engine,
    rate: f64,
    plan: &[Planned],
    spans: &Spans,
) -> StepResult {
    let _step = spans.enter("bench.serve.open_loop");
    let parent = spans.current();
    let start = Instant::now() + Duration::from_millis(2);
    // A request whose answer never comes back stays failed.
    let lost = Answer::new(0, Err(ServeError::Internal(String::new())), 0.0);
    let mut answers: Vec<Answer> = vec![lost; plan.len()];
    let (mut due_us, mut sent_us) = (
        Vec::with_capacity(plan.len()),
        Vec::with_capacity(plan.len()),
    );
    let mut hits_seen = engine.stats().cache_hits;
    std::thread::scope(|scope| {
        let (tx, rx) = mpsc::channel::<(usize, Instant, Option<Instant>, Ticket)>();
        let collector = scope.spawn(move || {
            let mut got = Vec::with_capacity(plan.len());
            for (i, due, answered, ticket) in rx {
                let res = ticket.wait();
                let done = answered.unwrap_or_else(Instant::now);
                spans.record("serve.request", parent, due, done);
                got.push((i, Answer::new(i, res, ms_since(due, done))));
            }
            got
        });
        for (i, p) in plan.iter().enumerate() {
            let due = start + p.due;
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            due_us.push(ms_since(start, due) * 1e3);
            sent_us.push(ms_since(start, Instant::now()) * 1e3);
            match engine.try_submit(inputs.pool[p.tile].clone()) {
                Ok(ticket) => {
                    let returned = Instant::now();
                    let hits = engine.stats().cache_hits;
                    let answered = (hits > hits_seen).then_some(returned);
                    hits_seen = hits;
                    // The collector outlives the loop; a failed send only
                    // means it died, which leaves the answer failed.
                    drop(tx.send((i, due, answered, ticket)));
                }
                Err(e) => answers[i] = Answer::new(i, Err(e), 0.0),
            }
        }
        drop(tx);
        for (i, answer) in collector.join().unwrap_or_default() {
            answers[i] = answer;
        }
    });
    StepResult {
        rate,
        answers,
        late_ms: stats::lateness_ms(&due_us, &sent_us),
    }
}

/// One `POST /classify` round trip: the mask on HTTP 200, `Overloaded`
/// on 503, `Internal` on anything else.
fn http_classify(addr: SocketAddr, tile: &Image<u8>) -> Result<Arc<Vec<u8>>, ServeError> {
    let io = |e: std::io::Error| ServeError::Internal(e.to_string());
    let mut s = TcpStream::connect(addr).map_err(io)?;
    s.set_nodelay(true).map_err(io)?;
    let body = tile.as_slice();
    let head = format!(
        "POST /classify HTTP/1.1\r\nHost: localhost\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    s.write_all(head.as_bytes()).map_err(io)?;
    s.write_all(body).map_err(io)?;
    let mut resp = Vec::new();
    s.read_to_end(&mut resp).map_err(io)?;
    let split = resp
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or_else(|| ServeError::Internal("response without a header end".into()))?;
    match resp.get(9..12) {
        Some(b"200") => Ok(Arc::new(resp[split + 4..].to_vec())),
        Some(b"503") => Err(ServeError::Overloaded),
        _ => Err(ServeError::Internal(
            String::from_utf8_lossy(&resp[..split]).into_owned(),
        )),
    }
}

/// A closed loop over `plan` with `nproc` clients, each sending its next
/// request when the previous one is answered. Returns the answers in
/// plan order and the wall seconds.
fn closed_loop(
    inputs: &Inputs,
    server: &Server,
    plan: &[Planned],
    over_http: bool,
    spans: &Spans,
) -> (Vec<Answer>, f64) {
    let name = if over_http {
        "serve.http.request"
    } else {
        "serve.engine.request"
    };
    let _phase = spans.enter(if over_http {
        "bench.serve.http"
    } else {
        "bench.serve.engine"
    });
    let parent = spans.current();
    let clients = nproc().max(1);
    let addr = server.http.addr();
    let engine = &server.engine;
    let t0 = Instant::now();
    let mut answers = Vec::with_capacity(plan.len());
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                scope.spawn(move || {
                    let mut got = Vec::new();
                    for (i, p) in plan.iter().enumerate().skip(c).step_by(clients) {
                        let tile = &inputs.pool[p.tile];
                        let sent = Instant::now();
                        let reply = if over_http {
                            http_classify(addr, tile)
                        } else {
                            engine.classify(tile.clone())
                        };
                        let done = Instant::now();
                        spans.record(name, parent, sent, done);
                        got.push((i, Answer::new(i, reply, ms_since(sent, done))));
                    }
                    got
                })
            })
            .collect();
        for h in handles {
            answers.extend(h.join().unwrap_or_default());
        }
    });
    let wall = t0.elapsed().as_secs_f64();
    answers.sort_by_key(|(i, _)| *i);
    (answers.into_iter().map(|(_, a)| a).collect(), wall)
}

/// Checks every kept answer against a reference for the same tile:
/// `reference` when it answers, else a direct `UNet::predict_into`.
/// Returns (checked, mismatched).
fn check_answers(
    inputs: &Inputs,
    model: &mut UNet,
    plan: &[Planned],
    answers: &[Answer],
    reference: impl Fn(&mut UNet, &Image<u8>) -> Option<Arc<Vec<u8>>>,
) -> (u64, u64) {
    let (mut checked, mut bad) = (0, 0);
    let mut want = Vec::new();
    for (p, a) in plan.iter().zip(answers) {
        if let Some(mask) = &a.mask {
            let tile = &inputs.pool[p.tile];
            checked += 1;
            bad += u64::from(match reference(model, tile) {
                Some(r) => **mask != *r,
                None => {
                    let x = Tensor::from_vec(&[1, 3, TILE, TILE], image_to_chw(tile));
                    model.predict_into(&x, &mut want);
                    **mask != want
                }
            });
        }
    }
    (checked, bad)
}

/// Per-tile forward time of the served model outside the engine at
/// batch `n`, ms (median over repetitions).
fn predict_ms(inputs: &Inputs, model: &mut UNet, n: usize, reps: usize, spans: &Spans) -> f64 {
    let name = if n == 1 {
        "unet.predict.b1"
    } else {
        "unet.predict.b8"
    };
    let mut data = Vec::with_capacity(n * 3 * TILE * TILE);
    for t in &inputs.pool[..n] {
        data.extend(image_to_chw(t));
    }
    let x = Tensor::from_vec(&[n, 3, TILE, TILE], data);
    let mut out = Vec::new();
    model.predict_into(&x, &mut out);
    for _ in 0..reps {
        let _g = spans.enter(name);
        model.predict_into(&x, &mut out);
    }
    stats::median(&spans.durations_ms(name)) / n as f64
}

/// The serving metrics of one ladder + HTTP pass.
fn headline(pass: &Pass) -> Result<Vec<(&'static str, f64, &'static str)>, String> {
    let steps = &pass.steps;
    let http_lat = &sorted_ms(&pass.http_answers);
    let http_wall = pass.http_wall;
    let step = |rate: f64| {
        steps
            .iter()
            .find(|s| s.rate == rate)
            .ok_or_else(|| format!("ladder has no {rate} req/s step"))
    };
    let (low, mid, high) = (step(LOW)?, step(MID)?, step(HIGH)?);
    for n in steps
        .iter()
        .map(|s| s.answers.len())
        .chain([http_lat.len()])
    {
        if stats::tail_percentile(n, 10).is_none_or(|p| p < 99.0) {
            return Err(format!("{n} requests cannot carry a p99 with 10 beyond it"));
        }
    }
    let ladder: Vec<LadderStep> = steps
        .iter()
        .map(|s| LadderStep {
            rate: s.rate,
            p99_ms: s.percentile(99.0),
            backlog_growing: stats::backlog_growing(&s.latencies(), LIMIT_MS / 2.0),
        })
        .collect();
    Ok(vec![
        ("serve.low.p50_ms", low.percentile(50.0), "ms"),
        ("serve.low.p99_ms", low.percentile(99.0), "ms"),
        ("serve.mid.p99_ms", mid.percentile(99.0), "ms"),
        ("serve.high.p99_ms", high.percentile(99.0), "ms"),
        (
            "serve.max_rate_rps",
            stats::ladder_max_rate(&ladder, LIMIT_MS).unwrap_or(0.0),
            "req/s",
        ),
        (
            "serve.http.rps",
            http_lat.iter().filter(|l| l.is_finite()).count() as f64 / http_wall,
            "req/s",
        ),
        ("serve.http.p99_ms", stats::percentile(http_lat, 99.0), "ms"),
    ])
}

/// Books answer sets into `out` under one check: every request is an
/// operation; refusals count as refused, errors and answers that differ
/// from the reference (`verify` returns (checked, differing)) as failed,
/// and the check holds when nothing failed.
fn book(
    out: &mut Outcome,
    name: &str,
    sets: &[(&Vec<Planned>, &Vec<Answer>)],
    mut verify: impl FnMut(&[Planned], &[Answer]) -> (u64, u64),
) {
    let (mut n, mut refused, mut lost, mut checked, mut bad) = (0, 0, 0, 0, 0);
    for (plan, answers) in sets {
        let (r, f) = unanswered(answers);
        let (c, b) = verify(plan, answers);
        n += answers.len() as u64;
        refused += r;
        lost += f;
        checked += c;
        bad += b;
    }
    out.ops(n, lost + bad);
    out.refuse(refused);
    out.check(
        name,
        lost == 0 && bad == 0,
        format!(
            "{checked} sampled answers, {bad} differ; {lost} requests failed, {refused} refused"
        ),
    );
}

/// (refused, failed) requests among `answers`.
fn unanswered(answers: &[Answer]) -> (u64, u64) {
    let refused = answers.iter().filter(|a| a.refused).count() as u64;
    let lost = answers.iter().filter(|a| !a.ms.is_finite()).count() as u64;
    (refused, lost - refused)
}

fn sorted_ms(answers: &[Answer]) -> Vec<f64> {
    stats::sorted(&answers.iter().map(|a| a.ms).collect::<Vec<_>>())
}

/// One ladder climb and HTTP phase against one server.
struct Pass {
    /// The steps run, in ladder order.
    steps: Vec<StepResult>,
    /// Index into [`Inputs::steps`] of each step's plan.
    plan_of: Vec<usize>,
    /// The engine's counters after the ladder.
    ladder_stats: StatsSnapshot,
    http_answers: Vec<Answer>,
    http_wall: f64,
}

impl Pass {
    /// Requests sent: every ladder step's and the HTTP phase's.
    fn requests(&self) -> usize {
        self.steps.iter().map(|s| s.answers.len()).sum::<usize>() + self.http_answers.len()
    }
}

/// Climbs the ladder until the first miss (past it, runs only the steps
/// the fixed-rate metrics need), then runs the HTTP phase.
fn serve_pass(inputs: &Inputs, server: &Server, spans: &Spans) -> Pass {
    let mut steps = Vec::new();
    let mut plan_of = Vec::new();
    let mut missed = false;
    for (i, (&rate, plan)) in LADDER.iter().zip(&inputs.steps).enumerate() {
        if missed && ![LOW, MID, HIGH].contains(&rate) {
            continue;
        }
        let step = open_loop(inputs, &server.engine, rate, plan, spans);
        missed |= step.percentile(99.0) > LIMIT_MS
            || stats::backlog_growing(&step.latencies(), LIMIT_MS / 2.0);
        steps.push(step);
        plan_of.push(i);
    }
    let ladder_stats = server.engine.stats();
    for s in &steps {
        eprintln!(
            "  serve {:>4} req/s: p50 {:8.3} ms  p99 {:8.3} ms  generator late p99 {:6.3} ms  refused {}",
            s.rate,
            s.percentile(50.0),
            s.percentile(99.0),
            stats::percentile(&s.late_ms, 99.0),
            unanswered(&s.answers).0,
        );
    }
    let (http_answers, http_wall) = closed_loop(inputs, server, &inputs.http_plan, true, spans);
    Pass {
        steps,
        plan_of,
        ladder_stats,
        http_answers,
        http_wall,
    }
}

/// Books a pass's answers under checks named `<prefix>.…`: ladder
/// answers against a direct `UNet::predict_into`, HTTP answers against
/// the engine's own answer for the same tile.
fn book_pass(
    out: &mut Outcome,
    prefix: &str,
    inputs: &Inputs,
    model: &mut UNet,
    server: &Server,
    pass: &Pass,
) {
    let ladder: Vec<(&Vec<Planned>, &Vec<Answer>)> = pass
        .plan_of
        .iter()
        .zip(&pass.steps)
        .map(|(&i, s)| (&inputs.steps[i], &s.answers))
        .collect();
    book(
        out,
        &format!("{prefix}.engine_matches_predict_into"),
        &ladder,
        |p, a| check_answers(inputs, model, p, a, |_, _| None),
    );
    let engine = &server.engine;
    book(
        out,
        &format!("{prefix}.http_matches_engine"),
        &[(&inputs.http_plan, &pass.http_answers)],
        |p, a| {
            check_answers(inputs, model, p, a, |_, tile| {
                engine.classify_blocking(tile.clone()).ok()
            })
        },
    );
}

/// Runs the workload.
pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let (inputs, setup_s) = set_up(|| setup(ctx.seed))?;
    let mut out = Outcome::default();
    let mut model = checkpoint::restore(&inputs.ckpt);
    let mut reps = Reps::default();
    let mut measured = None;
    reps.measure(|| {
        measured = Some(serve_pass(&inputs, &inputs.server, &ctx.off));
        Ok(())
    })?;
    let plain = measured.ok_or("the serving pass never ran")?;

    let requests = plain.requests();
    for (name, value, unit) in headline(&plain)? {
        out.extra(name, value, unit);
    }
    if !ctx.traced() {
        end_to_end(&mut out, setup_s, &reps, requests);
    } else {
        let (engine_answers, _) = closed_loop(
            &inputs,
            &inputs.server,
            &inputs.engine_plan,
            false,
            &ctx.off,
        );
        // The engine's queue-wait histogram records only once the
        // registry is on, and engines capture it at construction.
        seaice_obs::enable_metrics();
        let server = Server::start(&inputs.ckpt)?;
        let traced = serve_pass(&inputs, &server, &ctx.spans);
        let queue_wait = seaice_obs::metrics()
            .histogram("serve.queue.wait_us")
            .snapshot();
        let late: Vec<f64> = plain
            .steps
            .iter()
            .flat_map(|s| s.late_ms.iter().copied())
            .collect();
        let stats = &plain.ladder_stats;
        out.extra("serve.cache_hit_rate", stats.cache_hit_rate, "ratio");
        out.extra("serve.mean_batch", stats.mean_batch_size, "requests");
        out.extra(
            "serve.queue_wait_p99_ms",
            queue_wait.map_or(0.0, |q| q.p99_us as f64 / 1e3),
            "ms",
        );
        out.extra(
            "unet.predict_ms.b1",
            predict_ms(&inputs, &mut model, 1, 200, &ctx.spans),
            "ms",
        );
        out.extra(
            "unet.predict_ms.b8",
            predict_ms(&inputs, &mut model, 8, 50, &ctx.spans),
            "ms",
        );
        out.extra(
            "serve.http.overhead_ms",
            stats::percentile(&sorted_ms(&plain.http_answers), 50.0)
                - stats::percentile(&sorted_ms(&engine_answers), 50.0),
            "ms",
        );
        out.extra(
            "serve.gen_late_p99_ms",
            stats::percentile(&stats::sorted(&late), 99.0),
            "ms",
        );
        // Tracing overhead: closed-loop HTTP time for the same requests,
        // traced against untraced.
        per_layer(
            &mut out,
            &ctx.spans,
            &reps,
            requests,
            trace_overhead(&[plain.http_wall], &[traced.http_wall]),
        );
        book(
            &mut out,
            "serve.engine_closed_loop_matches_predict_into",
            &[(&inputs.engine_plan, &engine_answers)],
            |p, a| check_answers(&inputs, &mut model, p, a, |_, _| None),
        );
        book_pass(
            &mut out,
            "serve.traced",
            &inputs,
            &mut model,
            &server,
            &traced,
        );
    }
    book_pass(
        &mut out,
        "serve",
        &inputs,
        &mut model,
        &inputs.server,
        &plain,
    );
    Ok(out)
}
