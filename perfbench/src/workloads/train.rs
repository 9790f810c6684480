//! `train`: U-Net-Auto, the paper's proposed arm, on
//! `WorkflowConfig::scaled(4, 256, 32, 2)`: 205 training tiles of 32²
//! with auto-labels, batch 8, 2 epochs at the preset's fixed model seed,
//! then an evaluation pass over the 51 validation tiles against manual
//! labels.
//!
//! Repetitions alternate between two datasets of that shape: the
//! preset's own (the reference, whose validation accuracy is pinned) and
//! one built from the run's seed. Every repetition does the same work.
//!
//! Nearly all of it is `nn` forward and backward work; `mapreduce`,
//! `serve` and `stream` are bypassed.

use super::{
    end_to_end, median_or_zero, per_layer, repeat_for, repeat_pairs, set_up, trace_overhead, Ctx,
};
use crate::report::Outcome;
use crate::spans::Spans;
use seaice_core::adapters::{tile_to_sample_scratch, InputVariant, LabelSource};
use seaice_core::WorkflowConfig;
use seaice_imgproc::buffer::Scratch;
use seaice_nn::dataloader::DataLoader;
use seaice_nn::loss::{pixel_accuracy, softmax_cross_entropy};
use seaice_nn::optim::{Adam, Optimizer};
use seaice_s2::{Dataset, Tile};
use seaice_unet::{evaluate, train, UNet, UNetConfig};

/// Batch size of the training loader (the workflow's).
pub const BATCH: usize = 8;
/// Tile side, pixels.
pub const TILE: usize = 32;

/// The workload's configuration for `seed` (the dataset varies with the
/// seed; the model seed and loader shuffle are the preset's).
pub fn config(seed: u64) -> WorkflowConfig {
    let mut cfg = reference_config();
    cfg.dataset.seed = seed;
    cfg
}

/// The preset itself: the reference dataset `train.val_accuracy` is
/// measured on.
pub fn reference_config() -> WorkflowConfig {
    WorkflowConfig::scaled(4, 256, TILE, 2)
}

/// Validation accuracy of the reference dataset after the workload's
/// training, as measured with the seed's kernels.
pub const REFERENCE_ACCURACY: f64 = 0.871151;
/// How far (absolute) the reference accuracy may sit from
/// [`REFERENCE_ACCURACY`] before the output check fails. Kernels that
/// sum in another order may move it a little; a lost feature or a broken
/// gradient moves it by far more.
pub const ACCURACY_TOLERANCE: f64 = 0.03;

/// Index of the reference dataset in [`Inputs::sets`].
const REFERENCE: usize = 0;

/// One dataset's loaders.
struct Split {
    train: DataLoader,
    val: DataLoader,
}

struct Inputs {
    cfg: WorkflowConfig,
    /// The reference dataset, then the seed's.
    sets: [Split; 2],
    train_tiles: usize,
    val_tiles: usize,
}

fn samples(
    tiles: &[Tile],
    labels: LabelSource,
    cfg: &WorkflowConfig,
) -> Vec<seaice_nn::dataloader::Sample> {
    let mut scratch = Scratch::new();
    tiles
        .iter()
        .map(|t| {
            tile_to_sample_scratch(t, InputVariant::Filtered, labels, &cfg.label, &mut scratch)
        })
        .collect()
}

fn split(cfg: &WorkflowConfig) -> (Split, usize, usize) {
    let ds = Dataset::build(cfg.dataset.clone());
    let set = Split {
        train: DataLoader::new(
            samples(&ds.train, LabelSource::Auto, cfg),
            BATCH,
            Some(cfg.unet.seed),
        ),
        val: DataLoader::new(
            samples(&ds.validation, LabelSource::Manual, cfg),
            BATCH,
            None,
        ),
    };
    (set, ds.train.len(), ds.validation.len())
}

fn setup(seed: u64) -> Result<Inputs, String> {
    let cfg = config(seed);
    let (reference, train_tiles, val_tiles) = split(&reference_config());
    let (seeded, t, v) = split(&cfg);
    if (t, v) != (train_tiles, val_tiles) {
        return Err(format!(
            "seed {seed} gives {t}/{v} train/validation tiles, the reference {train_tiles}/{val_tiles}"
        ));
    }
    Ok(Inputs {
        cfg,
        sets: [reference, seeded],
        train_tiles,
        val_tiles,
    })
}

/// What one training run produced.
#[derive(Clone, Copy, Debug, PartialEq)]
struct Trained {
    val_accuracy: f64,
    losses_finite: bool,
}

/// The workflow's own `train` + `evaluate`.
fn train_plain(cfg: &WorkflowConfig, set: &Split) -> Trained {
    let mut model = UNet::new(cfg.unet);
    let report = train(&mut model, &set.train, &cfg.train);
    let eval = evaluate(&mut model, &set.val);
    Trained {
        val_accuracy: eval.accuracy,
        losses_finite: report.epoch_losses.iter().all(|l| l.is_finite()) && eval.loss.is_finite(),
    }
}

/// The same loop as `seaice_unet::train_with_optimizer` and `evaluate`,
/// written out so each layer call gets a span. It must reach the same
/// accuracy bit for bit, which the run checks.
fn train_traced(cfg: &WorkflowConfig, set: &Split, spans: &Spans) -> Trained {
    let _run = spans.enter("bench.train.run");
    let mut model = UNet::new(cfg.unet);
    let mut adam = Adam::new(cfg.train.learning_rate);
    let mut finite = true;
    for epoch in 0..cfg.train.epochs {
        let _e = spans.enter("bench.train.epoch");
        for batch in set.train.epoch(epoch as u64) {
            let logits = {
                let _g = spans.enter("unet.fwd");
                model.forward(&batch.images, true)
            };
            let lo = {
                let _g = spans.enter("nn.loss");
                softmax_cross_entropy(&logits, &batch.targets)
            };
            finite &= lo.loss.is_finite();
            {
                let _g = spans.enter("unet.bwd");
                model.zero_grads();
                model.backward(&lo.grad);
            }
            let _g = spans.enter("nn.adam");
            adam.step(&mut model.params_mut());
        }
    }
    let _e = spans.enter("bench.train.evaluate");
    let (mut preds, mut targets) = (Vec::new(), Vec::new());
    for batch in set.val.epoch(0) {
        let logits = {
            let _g = spans.enter("unet.eval");
            model.forward(&batch.images, false)
        };
        let lo = {
            let _g = spans.enter("nn.loss");
            softmax_cross_entropy(&logits, &batch.targets)
        };
        finite &= lo.loss.is_finite();
        preds.extend(lo.predictions);
        targets.extend(batch.targets);
    }
    Trained {
        val_accuracy: pixel_accuracy(&preds, &targets),
        losses_finite: finite,
    }
}

/// One convolution of the model: (in channels, out channels, kernel,
/// output side).
pub type ConvShape = (usize, usize, usize, usize);

/// Every convolution a forward pass of `cfg` runs on `side`² inputs,
/// following the U-Net's encoder, bottleneck, decoder (upsample + conv)
/// and 1×1 head.
pub fn conv_shapes(cfg: &UNetConfig, side: usize) -> Vec<ConvShape> {
    let mut v = Vec::new();
    let mut in_c = cfg.in_channels;
    for level in 0..cfg.depth {
        let f = cfg.filters_at(level);
        let s = side >> level;
        v.push((in_c, f, 3, s));
        v.push((f, f, 3, s));
        in_c = f;
    }
    let fb = cfg.filters_at(cfg.depth);
    v.push((in_c, fb, 3, side >> cfg.depth));
    v.push((fb, fb, 3, side >> cfg.depth));
    let mut cur = fb;
    for level in (0..cfg.depth).rev() {
        let f = cfg.filters_at(level);
        let s = side >> level;
        v.push((cur, f, 3, s));
        v.push((2 * f, f, 3, s));
        v.push((f, f, 3, s));
        cur = f;
    }
    v.push((cur, cfg.num_classes, 1, side));
    v
}

/// Forward FLOPs (2 per multiply-add) and f32 bytes touched (input,
/// weights, output) of the convolutions over a batch of `n`.
pub fn conv_cost(shapes: &[ConvShape], n: usize) -> (f64, f64) {
    shapes
        .iter()
        .fold((0.0, 0.0), |(flops, bytes), &(ci, co, k, s)| {
            let f = 2.0 * (n * s * s * co * ci * k * k) as f64;
            let b = 4.0 * (n * s * s * ci + co * ci * k * k + co + n * s * s * co) as f64;
            (flops + f, bytes + b)
        })
}

/// Runs the workload.
pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let (inputs, setup_s) = set_up(|| setup(ctx.seed))?;
    let mut out = Outcome::default();
    // What each dataset's runs produced; the n-th repetition (pair, in
    // traced runs) trains on dataset n % 2, the reference first.
    let mut results: [Vec<Trained>; 2] = [Vec::new(), Vec::new()];
    let samples_per_run = inputs.train_tiles * inputs.cfg.train.epochs + inputs.val_tiles;
    let cfg = &inputs.cfg;

    if !ctx.traced() {
        let mut n = 0;
        let reps = repeat_for(ctx.seconds, || {
            let k = n % 2;
            n += 1;
            results[k].push(train_plain(cfg, &inputs.sets[k]));
            Ok(())
        })?;
        end_to_end(&mut out, setup_s, &reps, samples_per_run);
        out.extra(
            "train.samples_per_s",
            reps.per_sec(samples_per_run),
            "samples/s",
        );
        out.extra(
            "train.val_accuracy",
            results[REFERENCE][0].val_accuracy,
            "ratio",
        );
    } else {
        let mut n = 0;
        let (plain, traced) = repeat_pairs(ctx.seconds, |on| {
            let k = (n / 2) % 2;
            n += 1;
            let set = &inputs.sets[k];
            results[k].push(if on {
                train_traced(cfg, set, &ctx.spans)
            } else {
                train_plain(cfg, set)
            });
            Ok(())
        })?;
        let sp = &ctx.spans;
        let fwd = median_or_zero(&sp.durations_ms("unet.fwd"));
        let bwd = median_or_zero(&sp.durations_ms("unet.bwd"));
        let shapes = conv_shapes(&cfg.unet, TILE);
        let (flops, bytes) = conv_cost(&shapes, BATCH);
        out.extra("unet.fwd_ms", fwd, "ms");
        out.extra("unet.bwd_ms", bwd, "ms");
        out.extra(
            "nn.loss_ms",
            median_or_zero(&sp.durations_ms("nn.loss")),
            "ms",
        );
        out.extra(
            "nn.adam_ms",
            median_or_zero(&sp.durations_ms("nn.adam")),
            "ms",
        );
        out.extra(
            "unet.eval_ms",
            median_or_zero(&sp.durations_ms("unet.eval")),
            "ms",
        );
        out.extra("nn.conv2d.fwd_gflops", flops / (fwd / 1e3) / 1e9, "GFLOP/s");
        // Backward computes the input and the weight gradients: twice
        // the forward multiply-adds.
        out.extra(
            "nn.conv2d.bwd_gflops",
            2.0 * flops / (bwd / 1e3) / 1e9,
            "GFLOP/s",
        );
        out.extra("nn.conv2d.flops_per_byte", flops / bytes, "FLOP/B");
        per_layer(
            &mut out,
            sp,
            &plain,
            samples_per_run,
            trace_overhead(&plain.secs, &traced.secs),
        );
    }

    let reference = results[REFERENCE][0].val_accuracy;
    let near = (reference - REFERENCE_ACCURACY).abs() <= ACCURACY_TOLERANCE;
    let (mut attempted, mut failed) = (0u64, 0u64);
    for (k, runs) in results.iter().enumerate() {
        let pinned = runs.first().map(|r| r.val_accuracy);
        for r in runs {
            attempted += 1;
            failed += u64::from(
                !r.losses_finite || Some(r.val_accuracy) != pinned || (k == REFERENCE && !near),
            );
        }
    }
    out.ops(attempted, failed);
    out.check(
        "train.losses_finite",
        results.iter().flatten().all(|r| r.losses_finite),
        format!("{attempted} training runs"),
    );
    out.check(
        "train.val_accuracy_repeats",
        results
            .iter()
            .all(|runs| runs.iter().all(|r| r.val_accuracy == runs[0].val_accuracy)),
        format!(
            "reference runs {:?}, seeded runs {:?}",
            results[0]
                .iter()
                .map(|r| r.val_accuracy)
                .collect::<Vec<_>>(),
            results[1]
                .iter()
                .map(|r| r.val_accuracy)
                .collect::<Vec<_>>()
        ),
    );
    out.check(
        "train.val_accuracy_matches_reference",
        near,
        format!(
            "reference dataset accuracy {reference:.6}, expected {REFERENCE_ACCURACY:.6} ± {ACCURACY_TOLERANCE}"
        ),
    );
    Ok(out)
}
