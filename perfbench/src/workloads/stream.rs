//! `stream`: `run_stream` over 4 regions × 8 revisits of 256² scenes,
//! tile 32, `workers = nproc`, channel capacity 8, faults disabled —
//! 2048 tiles through catalog → tile → label → infer → changedetect,
//! checked byte for byte against a 1-worker drift series.
//!
//! The one workload where the filter, the forward pass and the stage
//! channels compete for the same cores, so a gain in one layer that
//! costs another shows here.
//!
//! The DAG's stages run inside `seaice-core`, out of the benchmark's
//! reach, so the traced run times each stage's per-item work by calling
//! the same public functions on the same inputs outside the DAG.

use super::{
    end_to_end, median_or_zero, per_layer, repeat_for, repeat_pairs, set_up, trace_overhead, Ctx,
};
use crate::host::nproc;
use crate::report::Outcome;
use crate::spans::Spans;
use seaice_core::adapters::image_to_chw;
use seaice_core::stream_workflow::{run_stream, train_stream_model, StreamWorkflowConfig};
use seaice_core::{ChangeDetector, TileObs};
use seaice_faults::FaultPlan;
use seaice_imgproc::buffer::{Image, Scratch};
use seaice_label::autolabel::{auto_label_class_mask, AutoLabelConfig};
use seaice_nn::Tensor;
use seaice_s2::catalog::crop_revisit;
use seaice_s2::tiler::tile_anchors;
use seaice_stream::{StreamPolicy, StreamReport};
use seaice_unet::checkpoint::{self, Checkpoint};
use std::sync::Arc;

/// The workload's configuration for `seed` and `workers`.
pub fn config(seed: u64, workers: usize) -> StreamWorkflowConfig {
    StreamWorkflowConfig {
        regions: 4,
        revisits: 8,
        cadence_days: 2,
        scene_side: 256,
        tile: 32,
        drift_px: 4,
        seed,
        workers,
        channel_capacity: 8,
        epochs: 2,
    }
}

/// Tiles one run classifies.
pub fn tiles(cfg: &StreamWorkflowConfig) -> usize {
    let per_axis = tile_anchors(cfg.scene_side, cfg.tile).len();
    cfg.regions * cfg.revisits as usize * per_axis * per_axis
}

struct Inputs {
    cfg: StreamWorkflowConfig,
    ckpt: Checkpoint,
}

fn policy(cfg: &StreamWorkflowConfig) -> StreamPolicy {
    StreamPolicy {
        channel_capacity: cfg.channel_capacity,
        ..StreamPolicy::default()
    }
}

fn stream_once(
    inputs: &Inputs,
    cfg: &StreamWorkflowConfig,
    spans: &Spans,
) -> Result<(Vec<u8>, StreamReport), String> {
    let _g = spans.enter("stream.run");
    let outcome = run_stream(
        cfg,
        &inputs.ckpt,
        policy(cfg),
        Arc::new(FaultPlan::disabled()),
    )
    .map_err(|e| format!("stream run failed: {e}"))?;
    Ok((outcome.series.to_bytes(), outcome.report))
}

/// Per-item cost of each stage, ms, measured on the first region's
/// revisits outside the DAG.
struct StageCosts {
    catalog_per_scene: f64,
    tile_per_scene: f64,
    label_per_tile: f64,
    infer_per_tile: f64,
    observe_per_tile: f64,
}

fn stage_costs(inputs: &Inputs, spans: &Spans) -> Result<StageCosts, String> {
    let _root = spans.enter("bench.stream.stage_costs");
    let cfg = &inputs.cfg;
    let (catalog, plan) = cfg.plan();
    let metas = catalog.revisit_stream(&plan);
    let region = metas
        .first()
        .map(|m| m.region.clone())
        .ok_or("the revisit plan is empty")?;
    let window = {
        let _g = spans.enter("s2.region_window");
        catalog.region_window(&plan, &region)
    };
    let label_cfg = AutoLabelConfig::filtered_for_tile(cfg.tile);
    let mut model = checkpoint::restore(&inputs.ckpt);
    let mut detector = ChangeDetector::new(cfg.tile);
    let anchors = tile_anchors(cfg.scene_side, cfg.tile);
    for m in metas.iter().filter(|m| m.region == region) {
        let scene = {
            let _g = spans.enter("s2.revisit_scene");
            let scene = crop_revisit(&window, m);
            catalog.revisit_cloud_layer(m).apply(&scene.rgb)
        };
        let crops: Vec<Image<u8>> = {
            let _g = spans.enter("s2.tile_crop");
            anchors
                .iter()
                .flat_map(|&y0| anchors.iter().map(move |&x0| (x0, y0)))
                .map(|(x0, y0)| scene.crop(x0, y0, cfg.tile, cfg.tile))
                .collect()
        };
        for (i, rgb) in crops.iter().enumerate() {
            let label = {
                let _g = spans.enter("label.mask");
                auto_label_class_mask(rgb, &label_cfg, &mut Scratch::new()).into_vec()
            };
            let pred = {
                let _g = spans.enter("unet.predict");
                let x = Tensor::from_vec(&[1, 3, cfg.tile, cfg.tile], image_to_chw(rgb));
                model.predict(&x)
            };
            let obs = TileObs {
                region: m.region.clone(),
                revisit: m.revisit,
                day: m.meta.day,
                tile_index: i as u32,
                pred,
                label,
            };
            let _g = spans.enter("core.change_observe");
            detector.observe(obs);
        }
    }
    let med = |name: &str| median_or_zero(&spans.durations_ms(name));
    let window_ms = spans.durations_ms("s2.region_window").iter().sum::<f64>();
    Ok(StageCosts {
        catalog_per_scene: med("s2.revisit_scene") + window_ms / f64::from(cfg.revisits.max(1)),
        tile_per_scene: med("s2.tile_crop"),
        label_per_tile: med("label.mask"),
        infer_per_tile: med("unet.predict"),
        observe_per_tile: med("core.change_observe"),
    })
}

/// Runs the workload.
pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let (inputs, setup_s) = set_up(|| {
        let cfg = config(ctx.seed, nproc());
        let ckpt = train_stream_model(&cfg);
        Ok(Inputs { cfg, ckpt })
    })?;
    let n_tiles = tiles(&inputs.cfg);
    let mut out = Outcome::default();
    let mut one = inputs.cfg.clone();
    one.workers = 1;
    let (want, _) = stream_once(&inputs, &one, &ctx.off)?;
    // Each run keeps whether its series matched, not the series, so
    // peak memory does not grow with the number of repetitions.
    let mut runs: Vec<(bool, StreamReport)> = Vec::new();
    let mut run_checked = |spans: &Spans| -> Result<(), String> {
        let (bytes, report) = stream_once(&inputs, &inputs.cfg, spans)?;
        runs.push((bytes == want, report));
        Ok(())
    };

    if !ctx.traced() {
        let reps = repeat_for(ctx.seconds, || run_checked(&ctx.off))?;
        end_to_end(&mut out, setup_s, &reps, n_tiles);
        out.extra("stream.tiles_per_s", reps.per_sec(n_tiles), "tiles/s");
    } else {
        let (plain, traced) = repeat_pairs(ctx.seconds, |on| run_checked(&ctx.recorder(on)))?;
        let costs = stage_costs(&inputs, &ctx.spans)?;
        let report = &runs[0].1;
        for s in &report.stages {
            out.extra(
                &format!("stream.{}.backpressure_waits", s.name),
                s.backpressure_waits as f64,
                "count",
            );
            out.extra(
                &format!("stream.{}.queue_high_water", s.name),
                s.queue_high_water as f64,
                "count",
            );
        }
        let per_axis = tile_anchors(inputs.cfg.scene_side, inputs.cfg.tile).len();
        let tiles_per_scene = (per_axis * per_axis) as f64;
        let workers = |name: &str| {
            report
                .stages
                .iter()
                .find(|s| s.name == name)
                .map_or(1.0, |s| s.workers.max(1) as f64)
        };
        // Tiles/s each stage could sustain alone: workers ÷ per-tile cost.
        let bound = [
            ("catalog", costs.catalog_per_scene / tiles_per_scene),
            ("tile", costs.tile_per_scene / tiles_per_scene),
            ("label", costs.label_per_tile),
            ("infer", costs.infer_per_tile),
            ("changedetect", costs.observe_per_tile),
        ]
        .iter()
        .map(|&(stage, ms)| workers(stage) / (ms / 1e3))
        .fold(f64::INFINITY, f64::min);
        out.extra("label.mask_us", costs.label_per_tile * 1e3, "us");
        out.extra("unet.predict_us", costs.infer_per_tile * 1e3, "us");
        out.extra("core.change_observe_us", costs.observe_per_tile * 1e3, "us");
        out.extra("stream.bound_tiles_per_s", bound, "tiles/s");
        per_layer(
            &mut out,
            &ctx.spans,
            &plain,
            n_tiles,
            trace_overhead(&plain.secs, &traced.secs),
        );
    }

    let mut failed = 0u64;
    for (matched, report) in &runs {
        let infer_in = report
            .stages
            .iter()
            .find(|s| s.name == "infer")
            .map_or(0, |s| s.items_in);
        let clean = report.total_failures() == 0 && report.total_retries() == 0;
        failed += u64::from(!matched || infer_in != n_tiles as u64 || !clean);
    }
    out.ops(runs.len() as u64, failed);
    out.check(
        "stream.drift_series_matches_1_worker",
        failed == 0,
        format!(
            "{} runs of {n_tiles} tiles, {failed} differ from the 1-worker series",
            runs.len()
        ),
    );
    Ok(out)
}
