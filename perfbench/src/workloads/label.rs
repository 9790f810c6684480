//! `label`: the paper's Table II archive job. Four 2048² scenes (half of
//! the acquisitions cloudy, the `DatasetConfig` default) are tiled into
//! 256 tiles of 256², which go through a `mapreduce::Session` with
//! `nproc` slots: `read` → `map(auto_label, filtered)` → `collect`.
//!
//! Work lands in the cloud/shadow filter, `s2` tiling and the mapreduce
//! executor; `nn`, `unet`, `serve` and `stream` are never called, so this
//! is the workload that must not move when those change.

use super::{
    end_to_end, median_or_zero, per_layer, repeat_for, repeat_pairs, set_up, trace_overhead, Ctx,
};
use crate::host::nproc;
use crate::report::Outcome;
use crate::spans::Spans;
use crate::stats::fnv1a;
use seaice_imgproc::buffer::{Image, Scratch};
use seaice_label::autolabel::{auto_label, auto_label_class_mask, AutoLabelConfig, LabelBackend};
use seaice_label::cloudshadow::CloudShadowFilter;
use seaice_label::fused::{segment_into, ClassLut};
use seaice_label::segment::segment_classes;
use seaice_mapreduce::{ClusterSpec, CostModel, Session};
use seaice_s2::clouds::CloudConfig;
use seaice_s2::synth::SceneConfig;
use seaice_s2::{tile_scene, Catalog, CatalogQuery, DatasetConfig, GeoExtent, SceneId, TimeRange};
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Scenes in the archive.
pub const SCENES: usize = 4;
/// Scene side, pixels (the paper's).
pub const SCENE_SIDE: usize = 2048;
/// Tile side, pixels (the paper's).
pub const TILE: usize = 256;
/// Tiles per pass.
pub const TILES: usize = SCENES * (SCENE_SIDE / TILE) * (SCENE_SIDE / TILE);

/// One acquired, cloud-degraded scene.
struct Acquired {
    id: SceneId,
    rgb: Image<u8>,
    truth: Image<u8>,
}

struct Inputs {
    scenes: Vec<Acquired>,
    session: Session,
}

/// Acquires the archive the way `Dataset::build` does (same scene and
/// cloud recipe for the scene size), stopping short of tiling, which is
/// part of the timed job.
fn acquire(seed: u64) -> Vec<Acquired> {
    let config = DatasetConfig {
        n_scenes: SCENES,
        scene_size: SCENE_SIDE,
        tile_size: TILE,
        keep_clean: false,
        seed,
        ..DatasetConfig::default()
    };
    let side = config.scene_size;
    let scene_cfg = SceneConfig {
        width: side,
        height: side,
        field_wavelength: (side as f32 / 4.0).max(2.0),
        texture_wavelength: (side as f32 / 85.0).max(2.0),
        lead_half_width: (side as f32 / 340.0).max(1.0),
        ..SceneConfig::default()
    };
    let cloud_cfg = CloudConfig {
        wavelength: (side as f32 / 5.0).max(2.0),
        shadow_offset: ((side / 42) as isize, (side / 64) as isize),
        ..CloudConfig::default()
    };
    let catalog = Catalog::new(config.seed)
        .with_scene_config(scene_cfg)
        .with_cloud_config(cloud_cfg)
        .with_cloudy_fraction(config.cloudy_fraction);
    let metas = catalog.query(&CatalogQuery {
        extent: GeoExtent::ross_sea(),
        time: TimeRange::new(0, u32::MAX / 2),
        limit: config.n_scenes,
    });
    metas
        .iter()
        .map(|meta| {
            let (scene, layer) = catalog.generate(meta);
            Acquired {
                id: meta.id,
                rgb: layer.apply(&scene.rgb),
                truth: scene.truth,
            }
        })
        .collect()
}

fn setup(seed: u64) -> Result<Inputs, String> {
    let scenes = acquire(seed);
    let spec = ClusterSpec::new(1, nproc()).map_err(|e| e.to_string())?;
    Ok(Inputs {
        scenes,
        session: Session::new(spec, CostModel::gcd_n2()),
    })
}

fn tile_archive(scenes: &[Acquired], spans: &Spans) -> Vec<Image<u8>> {
    let mut tiles = Vec::with_capacity(TILES);
    for s in scenes {
        let _g = spans.enter("s2.tile_scene");
        tiles.extend(
            tile_scene(s.id, &s.rgb, None, &s.truth, None, TILE)
                .into_iter()
                .map(|t| t.rgb),
        );
    }
    tiles
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = RefCell::new(Scratch::new());
}

/// `auto_label_class_mask` split at its filter/segment boundary into the
/// public `CloudShadowFilter::apply_keep_filtered` and `segment_into`
/// calls, so each half gets its own span; the output is the same mask.
fn traced_mask(
    img: &Image<u8>,
    cfg: &AutoLabelConfig,
    spans: &Spans,
    scratch: &mut Scratch,
) -> Image<u8> {
    let processed = {
        let _g = spans.enter("label.filter");
        match &cfg.filter {
            Some(fc) => CloudShadowFilter::new(*fc).apply_keep_filtered(img, scratch),
            None => img.clone(),
        }
    };
    let _g = spans.enter("label.segment");
    let mask = match cfg.backend {
        LabelBackend::Reference => segment_classes(&processed, &cfg.ranges),
        LabelBackend::Fused => {
            let (w, h) = processed.dimensions();
            let mut mask = scratch.take_image(w, h, 1);
            segment_into(&processed, &ClassLut::new(&cfg.ranges), &mut mask, None);
            mask
        }
    };
    scratch.recycle_image(processed);
    mask
}

/// One pass of the job; returns the mask digests in tile order. Traced
/// passes label every other tile (in task start order) with
/// `auto_label_class_mask` itself under a `label.auto_label` span, and
/// the rest through [`traced_mask`] under `label.auto_label_split`, so
/// both the library call and its two halves are timed.
fn pass(inputs: &Inputs, spans: &Arc<Spans>, busy_ns: &Arc<AtomicU64>) -> Vec<u64> {
    let _pass = spans.enter("bench.label.pass");
    let tiles = tile_archive(&inputs.scenes, spans);
    let collect = spans.enter("mapreduce.collect");
    let parent = collect.id();
    let cfg = AutoLabelConfig::filtered_for_tile(TILE);
    let (df, _) = inputs.session.read(tiles, (TILE * TILE * 3) as f64);
    let udf_spans = Arc::clone(spans);
    let busy = Arc::clone(busy_ns);
    let started = AtomicU64::new(0);
    let (lazy, _) = df.map(&inputs.session, move |img: Image<u8>| {
        SCRATCH.with(|s| {
            let scratch = &mut s.borrow_mut();
            if !udf_spans.is_on() {
                return auto_label_class_mask(&img, &cfg, scratch).into_vec();
            }
            let t0 = Instant::now();
            let mask = if started.fetch_add(1, Ordering::Relaxed).is_multiple_of(2) {
                let _task = udf_spans.enter_under("label.auto_label", parent);
                auto_label_class_mask(&img, &cfg, scratch)
            } else {
                let _task = udf_spans.enter_under("label.auto_label_split", parent);
                traced_mask(&img, &cfg, &udf_spans, scratch)
            };
            busy.fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
            mask.into_vec()
        })
    });
    let (masks, _) = lazy.collect(&inputs.session, (TILE * TILE) as f64);
    drop(collect);
    masks.iter().map(|m| fnv1a(m)).collect()
}

/// Digests of the sequential `auto_label` path over the same tiles.
/// Each of `nproc` plain threads walks its share of the tiles in order,
/// so the check costs a pass, not `nproc` passes.
fn reference_digests(inputs: &Inputs) -> Vec<u64> {
    let cfg = AutoLabelConfig::filtered_for_tile(TILE);
    let tiles = tile_archive(&inputs.scenes, &Spans::new(false));
    let share = tiles.len().div_ceil(nproc());
    std::thread::scope(|s| {
        let handles: Vec<_> = tiles
            .chunks(share.max(1))
            .map(|chunk| {
                s.spawn(|| {
                    chunk
                        .iter()
                        .map(|t| fnv1a(auto_label(t, &cfg).class_mask.as_slice()))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap_or_default())
            .collect()
    })
}

/// Runs the workload.
pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let (inputs, setup_s) = set_up(|| setup(ctx.seed))?;
    let busy_ns = Arc::new(AtomicU64::new(0));
    let mut passes: Vec<Vec<u64>> = Vec::new();
    let mut out = Outcome::default();

    if !ctx.traced() {
        let reps = repeat_for(ctx.seconds, || {
            passes.push(pass(&inputs, &ctx.off, &busy_ns));
            Ok(())
        })?;
        end_to_end(&mut out, setup_s, &reps, TILES);
        // Not bounded: see the README on wall-clock spread.
        out.extra("label.tiles_per_s", reps.per_sec(TILES), "tiles/s");
    } else {
        let (plain, traced) = repeat_pairs(ctx.seconds, |on| {
            passes.push(pass(&inputs, &ctx.recorder(on), &busy_ns));
            Ok(())
        })?;
        let sp = &ctx.spans;
        let collect_ms = sp.durations_ms("mapreduce.collect");
        let busy_s = busy_ns.load(Ordering::Relaxed) as f64 / 1e9;
        let slots = inputs.session.spec().total_slots() as f64;
        out.extra(
            "s2.tile_scene_ms",
            median_or_zero(&sp.durations_ms("s2.tile_scene")),
            "ms",
        );
        out.extra(
            "label.auto_label_ms",
            median_or_zero(&sp.durations_ms("label.auto_label")),
            "ms",
        );
        out.extra(
            "label.filter_ms",
            median_or_zero(&sp.durations_ms("label.filter")),
            "ms",
        );
        out.extra(
            "label.segment_ms",
            median_or_zero(&sp.durations_ms("label.segment")),
            "ms",
        );
        out.extra(
            "mapreduce.collect_s",
            median_or_zero(&collect_ms) / 1e3,
            "s",
        );
        out.extra(
            "mapreduce.slot_util",
            busy_s / (slots * collect_ms.iter().sum::<f64>() / 1e3),
            "ratio",
        );
        per_layer(
            &mut out,
            sp,
            &plain,
            TILES,
            trace_overhead(&plain.secs, &traced.secs),
        );
    }

    let want = reference_digests(&inputs);
    let mut mismatched = 0u64;
    for digests in &passes {
        mismatched += digests.iter().zip(&want).filter(|(a, b)| a != b).count() as u64;
        mismatched += want.len().abs_diff(digests.len()) as u64;
    }
    out.ops((passes.len() * TILES) as u64, mismatched);
    out.check(
        "label.masks_match_sequential_auto_label",
        mismatched == 0,
        format!(
            "{} passes x {TILES} tiles, {mismatched} masks differ",
            passes.len()
        ),
    );
    Ok(out)
}
