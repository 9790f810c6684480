//! Golden filter output: every field of the cloud/shadow filter's
//! `FilterOutput` is pinned by FNV-1a digest for fixed seeded cloudy
//! scenes, so a kernel rewrite under the filter (median, box blur, HSV)
//! must stay byte-for-byte identical — not merely produce the same class
//! masks, which is all `tests/golden_masks.rs` pins.
//!
//! The cases cover the sequential kernel paths (32²), the rayon paths
//! (256² and an odd-sized 65×67 crop above the parallel threshold), the
//! generic radius-2 median, a smoothing radius larger than the image, and
//! degenerate shapes (1×1, 1×N, N×1, 2×2, odd sizes).
//!
//! To regenerate after an intentional change, run with
//! `GOLDEN_FILTER_PRINT=1 cargo test --test golden_filter_output -- --nocapture`
//! and paste the printed table over `GOLDEN`.

use seaice::imgproc::buffer::{Image, Scratch};
use seaice::label::cloudshadow::{CloudShadowFilter, FilterConfig, FilterOutput};
use seaice::s2::clouds::{self, CloudConfig};
use seaice::s2::synth::{generate, SceneConfig};

/// FNV-1a 64-bit over a byte slice.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn f32_digest(img: &Image<f32>) -> u64 {
    let bytes: Vec<u8> = img
        .as_slice()
        .iter()
        .flat_map(|v| v.to_bits().to_le_bytes())
        .collect();
    fnv1a64(&bytes)
}

/// Digests of `filtered`, `haze`, `shadow_gain`, `cloud_mask`,
/// `shadow_mask` and `residual`, in that order.
fn digests(out: &FilterOutput) -> [u64; 6] {
    [
        fnv1a64(out.filtered.as_slice()),
        f32_digest(&out.haze),
        f32_digest(&out.shadow_gain),
        fnv1a64(out.cloud_mask.as_slice()),
        fnv1a64(out.shadow_mask.as_slice()),
        fnv1a64(out.residual.as_slice()),
    ]
}

/// A seeded `side`² scene under a cloud/shadow layer of `coverage`.
fn cloudy_scene(side: usize, coverage: f64, seed: u64) -> Image<u8> {
    let scene = generate(&SceneConfig::tiny(side), seed);
    let layer = clouds::generate(
        &CloudConfig {
            coverage,
            ..CloudConfig::tiny(side)
        },
        seed,
        side,
        side,
    );
    layer.apply(&scene.rgb)
}

/// The input and filter configuration of a named case.
fn case(name: &str) -> (Image<u8>, FilterConfig) {
    let crop = |x, y, w, h| cloudy_scene(96, 0.4, 31).crop(x, y, w, h);
    match name {
        "scene32_seed21" => (cloudy_scene(32, 0.35, 21), FilterConfig::for_tile(32)),
        "scene32_seed22" => (cloudy_scene(32, 0.5, 22), FilterConfig::for_tile(32)),
        "scene256_seed23" => (cloudy_scene(256, 0.35, 23), FilterConfig::for_tile(256)),
        "scene256_seed24" => (cloudy_scene(256, 0.5, 24), FilterConfig::for_tile(256)),
        "odd65x67" => (crop(7, 11, 65, 67), FilterConfig::for_tile(67)),
        "odd17x9" => (crop(40, 50, 17, 9), FilterConfig::for_tile(17)),
        "row1x40" => (crop(3, 60, 40, 1), FilterConfig::for_tile(40)),
        "col40x1" => (crop(60, 3, 1, 40), FilterConfig::for_tile(40)),
        "pix2x2" => (crop(50, 50, 2, 2), FilterConfig::for_tile(2)),
        "pix1x1" => (crop(20, 30, 1, 1), FilterConfig::for_tile(1)),
        "median_r2_48" => (
            cloudy_scene(48, 0.4, 25),
            FilterConfig {
                denoise_radius: 2,
                ..FilterConfig::for_tile(48)
            },
        ),
        "wide_radius_48" => (cloudy_scene(48, 0.4, 26), FilterConfig::default()),
        other => panic!("unknown case {other}"),
    }
}

/// (case, [filtered, haze, shadow_gain, cloud_mask, shadow_mask, residual]).
const GOLDEN: [(&str, [u64; 6]); 12] = [
    (
        "scene32_seed21",
        [
            0x7afb7d1a1768a5f0,
            0x2b64d3180eb29df9,
            0xea2182266ad14826,
            0x45e27a8bfa862296,
            0xed8b10c0ac12e866,
            0xc0e2dc0a8428117d,
        ],
    ),
    (
        "scene32_seed22",
        [
            0xb9c9ae6bdd614fe4,
            0xfca6d427e2ac3933,
            0x76fc4c292548c89e,
            0xba6ea5aa7c053620,
            0x219a2255ce441a71,
            0x291cee1daae6f32d,
        ],
    ),
    (
        "scene256_seed23",
        [
            0x7683c19131c8184a,
            0xc4971d6a62ecf81a,
            0xdc55ce465d0eb86d,
            0x48a7acea335362f0,
            0x521d1888beec3900,
            0xc3687fc0927392a3,
        ],
    ),
    (
        "scene256_seed24",
        [
            0xe17e57f307ed905d,
            0x5be66df1943efcab,
            0x749d6a9ed522ab31,
            0xe7f7bf68f09c11f8,
            0x129fceda7aa025b8,
            0x57eec947b98a3607,
        ],
    ),
    (
        "odd65x67",
        [
            0xebd1732982fe39bc,
            0x56bca6a6cc5d8220,
            0x5315a9459611eac9,
            0x9b0c0ee80b46e159,
            0x1a8434c4a19cd672,
            0x55dffe06a6dc22dc,
        ],
    ),
    (
        "odd17x9",
        [
            0x5a17dfc1efce57b5,
            0xd223bf072eb7b53f,
            0xa99d1438ec048124,
            0x6636e85d12d6bfe5,
            0xd1a6cf3dcf044250,
            0xb801d182920bb75b,
        ],
    ),
    (
        "row1x40",
        [
            0xdc70914654dd41ff,
            0x20c4ef2c7c540ae1,
            0x5a3176289c578e17,
            0x29ddd0434822a2df,
            0x730690af6b1ff520,
            0x2f538564584f7334,
        ],
    ),
    (
        "col40x1",
        [
            0x073a047d3fe86075,
            0xaef436b73a919c51,
            0x1afbca4ba66d86a7,
            0x40d69e0cf0f65c45,
            0x8991faff20fee17c,
            0x5603808183116528,
        ],
    ),
    (
        "pix2x2",
        [
            0x16f719cce3a48795,
            0x88201fb960ff6465,
            0xda7c0d8a58b9dbb5,
            0x4d25767f9dce13f5,
            0x994f76653e2a3951,
            0xcb8e176d7fc7efd4,
        ],
    ),
    (
        "pix1x1",
        [
            0xcb67ec1c5bdd3973,
            0x4d25767f9dce13f5,
            0x4b72477f9c5c2f98,
            0xaf63bd4c8601b7df,
            0xaf63bd4c8601b7df,
            0xaf63bd4c8601b7df,
        ],
    ),
    (
        "median_r2_48",
        [
            0xd9a97f83ea49c037,
            0x9e7335c6694c3e51,
            0xccc9288aeba0d8e2,
            0xe664660b31ee7b66,
            0x9a5b06140ae41b4d,
            0x943fdce4e4e19337,
        ],
    ),
    (
        "wide_radius_48",
        [
            0x8f1ed84701258713,
            0x11a924f5dff9a20b,
            0x060bb86d8e11adde,
            0xe055c8afa31835f3,
            0xb0d8fedd9cda60aa,
            0x50a70c46149bc933,
        ],
    ),
];

#[test]
fn filter_output_digests_are_pinned() {
    let print = std::env::var_os("GOLDEN_FILTER_PRINT").is_some();
    for (name, expected) in GOLDEN {
        let (img, cfg) = case(name);
        let filter = CloudShadowFilter::new(cfg);
        let out = filter.apply(&img);
        let got = digests(&out);
        if name.starts_with("scene") {
            // Seeded cloudy scenes must exercise both correction passes.
            assert!(out.cloud_mask.nonzero_fraction() > 0.0, "{name}: no cloud");
            assert!(
                out.shadow_mask.nonzero_fraction() > 0.0,
                "{name}: no shadow"
            );
        }
        if print {
            println!("    (\"{name}\", [");
            for d in got {
                println!("        {d:#018x},");
            }
            println!("    ]),");
            continue;
        }
        assert_eq!(got, expected, "FilterOutput drifted for case {name}");
        // The batch entry point must produce the same corrected image.
        let kept = filter.apply_keep_filtered(&img, &mut Scratch::new());
        assert_eq!(kept, out.filtered, "apply_keep_filtered drifted for {name}");
    }
}
