//! Spatial noise filters: separable Gaussian blur, box blur, and median
//! filtering — the "noise filtering" stage of the paper's thin-cloud and
//! shadow removal pipeline.
//!
//! Borders are handled by clamping coordinates (OpenCV's
//! `BORDER_REPLICATE`). The Gaussian and box filters are separable and
//! parallelized over rows with rayon.

use crate::buffer::Image;
use crate::PAR_THRESHOLD;
use rayon::prelude::*;

/// Builds a normalized 1-D Gaussian kernel of half-width `radius`.
///
/// `sigma <= 0` picks OpenCV's automatic sigma:
/// `0.3 * ((ksize - 1) * 0.5 - 1) + 0.8`.
pub fn gaussian_kernel(radius: usize, sigma: f32) -> Vec<f32> {
    let ksize = 2 * radius + 1;
    let sigma = if sigma > 0.0 {
        sigma
    } else {
        0.3 * ((ksize as f32 - 1.0) * 0.5 - 1.0) + 0.8
    };
    let denom = 2.0 * sigma * sigma;
    let mut k: Vec<f32> = (0..ksize)
        .map(|i| {
            let d = i as f32 - radius as f32;
            (-d * d / denom).exp()
        })
        .collect();
    let sum: f32 = k.iter().sum();
    for v in &mut k {
        *v /= sum;
    }
    k
}

/// Horizontal then vertical pass of a separable 1-D kernel over every
/// channel of an 8-bit image, with replicated borders.
fn separable_convolve(src: &Image<u8>, kernel: &[f32]) -> Image<u8> {
    let (w, h) = src.dimensions();
    let c = src.channels();
    let radius = kernel.len() / 2;
    if w == 0 || h == 0 {
        return src.clone();
    }

    // Horizontal pass into f32 to avoid double rounding.
    let mut tmp = vec![0f32; w * h * c];
    let run_h = |y: usize, dst_row: &mut [f32]| {
        let row = src.row(y);
        for x in 0..w {
            for ch in 0..c {
                let mut acc = 0f32;
                for (i, &kv) in kernel.iter().enumerate() {
                    let sx = (x + i).saturating_sub(radius).min(w - 1);
                    acc += kv * row[sx * c + ch] as f32;
                }
                dst_row[x * c + ch] = acc;
            }
        }
    };
    if w * h >= PAR_THRESHOLD {
        tmp.par_chunks_exact_mut(w * c)
            .enumerate()
            .for_each(|(y, row)| run_h(y, row));
    } else {
        for (y, row) in tmp.chunks_exact_mut(w * c).enumerate() {
            run_h(y, row);
        }
    }

    // Vertical pass back to u8.
    let mut out = Image::<u8>::new(w, h, c);
    let run_v = |y: usize, dst_row: &mut [u8]| {
        for x in 0..w {
            for ch in 0..c {
                let mut acc = 0f32;
                for (i, &kv) in kernel.iter().enumerate() {
                    let sy = (y + i).saturating_sub(radius).min(h - 1);
                    acc += kv * tmp[(sy * w + x) * c + ch];
                }
                dst_row[x * c + ch] = acc.round().clamp(0.0, 255.0) as u8;
            }
        }
    };
    if w * h >= PAR_THRESHOLD {
        out.as_mut_slice()
            .par_chunks_exact_mut(w * c)
            .enumerate()
            .for_each(|(y, row)| run_v(y, row));
    } else {
        let stride = w * c;
        for y in 0..h {
            // Split borrow: rebuild the row slice each iteration.
            let row_start = y * stride;
            let dst = &mut out.as_mut_slice()[row_start..row_start + stride];
            run_v(y, dst);
        }
    }
    out
}

/// Gaussian blur with kernel half-width `radius` and standard deviation
/// `sigma` (`sigma <= 0` selects it automatically from the kernel size).
pub fn gaussian_blur(src: &Image<u8>, radius: usize, sigma: f32) -> Image<u8> {
    if radius == 0 {
        return src.clone();
    }
    separable_convolve(src, &gaussian_kernel(radius, sigma))
}

/// Box (mean) blur with kernel half-width `radius`.
pub fn box_blur(src: &Image<u8>, radius: usize) -> Image<u8> {
    if radius == 0 {
        return src.clone();
    }
    let ksize = 2 * radius + 1;
    let kernel = vec![1.0 / ksize as f32; ksize];
    separable_convolve(src, &kernel)
}

/// Median filter over a `(2 * radius + 1)²` neighbourhood, per channel,
/// with replicated borders — OpenCV's `medianBlur`.
///
/// Radius 1 runs an exact min/max network over sorted columns; larger
/// radii select the middle of each gathered window.
pub fn median_filter(src: &Image<u8>, radius: usize) -> Image<u8> {
    let (w, h) = src.dimensions();
    if radius == 0 || w == 0 || h == 0 {
        return src.clone();
    }
    if radius == 1 {
        return median3x3(src);
    }
    median_select(src, radius)
}

/// Generic median: gathers every window and selects its middle element.
/// Also the test oracle for [`median3x3`].
fn median_select(src: &Image<u8>, radius: usize) -> Image<u8> {
    let (w, h) = src.dimensions();
    let c = src.channels();
    let mut out = Image::<u8>::new(w, h, c);
    let run_row = |y: usize, dst_row: &mut [u8]| {
        // One histogram-free window buffer reused per row (small kernels).
        let mut window = Vec::with_capacity((2 * radius + 1) * (2 * radius + 1));
        for x in 0..w {
            for ch in 0..c {
                window.clear();
                for dy in 0..=2 * radius {
                    let sy = (y + dy).saturating_sub(radius).min(h - 1);
                    for dx in 0..=2 * radius {
                        let sx = (x + dx).saturating_sub(radius).min(w - 1);
                        window.push(src.pixel(sx, sy)[ch]);
                    }
                }
                let mid = window.len() / 2;
                let (_, med, _) = window.select_nth_unstable(mid);
                dst_row[x * c + ch] = *med;
            }
        }
    };
    if w * h >= PAR_THRESHOLD {
        out.as_mut_slice()
            .par_chunks_exact_mut(w * c)
            .enumerate()
            .for_each(|(y, row)| run_row(y, row));
    } else {
        for (y, row) in out.as_mut_slice().chunks_exact_mut(w * c).enumerate() {
            run_row(y, row);
        }
    }
    out
}

#[inline(always)]
fn min3(a: u8, b: u8, c: u8) -> u8 {
    a.min(b).min(c)
}

#[inline(always)]
fn max3(a: u8, b: u8, c: u8) -> u8 {
    a.max(b).max(c)
}

#[inline(always)]
fn med3(a: u8, b: u8, c: u8) -> u8 {
    a.min(b).max(a.max(b).min(c))
}

/// One row's vertical triples, each sorted into `lo ≤ mid ≤ hi`.
struct ColumnSort {
    lo: Vec<u8>,
    mid: Vec<u8>,
    hi: Vec<u8>,
}

impl ColumnSort {
    fn new(stride: usize) -> Self {
        Self {
            lo: vec![0; stride],
            mid: vec![0; stride],
            hi: vec![0; stride],
        }
    }

    /// Sorts the samples of `above`, `row` and `below` at every index.
    fn sort(&mut self, above: &[u8], row: &[u8], below: &[u8]) {
        let sorted = self.lo.iter_mut().zip(&mut self.mid).zip(&mut self.hi);
        for (((lo, mid), hi), ((&a, &b), &c)) in sorted.zip(above.iter().zip(row).zip(below)) {
            *lo = min3(a, b, c);
            *mid = med3(a, b, c);
            *hi = max3(a, b, c);
        }
    }

    /// Writes the median of the 3×3 window around every sample: with
    /// each column sorted, it is `med3(max3(lo), med3(mid), min3(hi))`
    /// over the three columns, which sit `c` samples apart in the row.
    fn median_into(&self, c: usize, dst: &mut [u8]) {
        let n = dst.len();
        let (lo, mid, hi) = (&self.lo[..n], &self.mid[..n], &self.hi[..n]);
        let window = |l: usize, i: usize, r: usize| {
            med3(
                max3(lo[l], lo[i], lo[r]),
                med3(mid[l], mid[i], mid[r]),
                min3(hi[l], hi[i], hi[r]),
            )
        };
        if n <= c {
            // One column: the replicated border makes it its own neighbour.
            for (i, d) in dst.iter_mut().enumerate() {
                *d = window(i, i, i);
            }
            return;
        }
        for i in 0..c {
            dst[i] = window(i, i, i + c);
            dst[n - c + i] = window(n - 2 * c + i, n - c + i, n - c + i);
        }
        // Interior: three shifted views of each sorted row, so the loop is
        // branch-free u8 min/max over equal-length slices.
        let m = n - 2 * c;
        let (lo_l, lo_c, lo_r) = (&lo[..m], &lo[c..c + m], &lo[2 * c..]);
        let (mid_l, mid_c, mid_r) = (&mid[..m], &mid[c..c + m], &mid[2 * c..]);
        let (hi_l, hi_c, hi_r) = (&hi[..m], &hi[c..c + m], &hi[2 * c..]);
        for (i, d) in dst[c..n - c].iter_mut().enumerate() {
            *d = med3(
                max3(lo_l[i], lo_c[i], lo_r[i]),
                med3(mid_l[i], mid_c[i], mid_r[i]),
                min3(hi_l[i], hi_c[i], hi_r[i]),
            );
        }
    }
}

/// Exact 3×3 median with replicated borders. Each vertical triple is
/// sorted once per row; the window median then follows from the sorted
/// columns by min/max alone (see DESIGN.md, "Filter hot path").
fn median3x3(src: &Image<u8>) -> Image<u8> {
    let (w, h) = src.dimensions();
    let c = src.channels();
    let stride = w * c;
    let mut out = Image::<u8>::new(w, h, c);
    let run_row = |y: usize, cols: &mut ColumnSort, dst: &mut [u8]| {
        cols.sort(
            src.row(y.saturating_sub(1)),
            src.row(y),
            src.row((y + 1).min(h - 1)),
        );
        cols.median_into(c, dst);
    };
    if w * h >= PAR_THRESHOLD {
        out.as_mut_slice()
            .par_chunks_exact_mut(stride)
            .enumerate()
            .for_each(|(y, row)| run_row(y, &mut ColumnSort::new(stride), row));
    } else {
        let mut cols = ColumnSort::new(stride);
        for (y, row) in out.as_mut_slice().chunks_exact_mut(stride).enumerate() {
            run_row(y, &mut cols, row);
        }
    }
    out
}

/// Box (mean) blur over an `f32` plane with replicated borders, using a
/// sliding-window running sum so the cost is O(pixels) regardless of
/// radius. Large radii are common when smoothing estimated illumination /
/// haze fields.
///
/// # Panics
/// Panics if `src` is not single-channel.
pub fn box_blur_f32(src: &Image<f32>, radius: usize) -> Image<f32> {
    assert_eq!(
        src.channels(),
        1,
        "box_blur_f32 expects a single-channel image"
    );
    if radius == 0 {
        return src.clone();
    }
    let (w, h) = src.dimensions();
    if w == 0 || h == 0 {
        return src.clone();
    }
    let win = 2 * radius + 1;

    // Horizontal pass with a running sum over clamped coordinates.
    let mut tmp = vec![0f32; w * h];
    let run_h = |y: usize, dst: &mut [f32]| {
        let row = src.row(y);
        let at = |x: isize| row[x.clamp(0, w as isize - 1) as usize];
        let mut sum: f64 = 0.0;
        for i in -(radius as isize)..=(radius as isize) {
            sum += at(i) as f64;
        }
        for (x, d) in dst.iter_mut().enumerate() {
            *d = (sum / win as f64) as f32;
            sum += at(x as isize + radius as isize + 1) as f64;
            sum -= at(x as isize - radius as isize) as f64;
        }
    };
    if w * h >= PAR_THRESHOLD {
        tmp.par_chunks_exact_mut(w)
            .enumerate()
            .for_each(|(y, row)| run_h(y, row));
    } else {
        for (y, row) in tmp.chunks_exact_mut(w).enumerate() {
            run_h(y, row);
        }
    }

    // Vertical pass: one sweep down the rows, carrying a running sum per
    // column. Each column sees exactly the add/subtract sequence of a walk
    // down that column alone, so the result is independent of the loop
    // order; sweeping whole rows keeps every access sequential, which on a
    // 2048² plane beats a column-parallel walk (see DESIGN.md).
    let mut out = Image::<f32>::new(w, h, 1);
    let src_row = |y: isize| &tmp[y.clamp(0, h as isize - 1) as usize * w..][..w];
    let mut sums = vec![0f64; w];
    for i in -(radius as isize)..=(radius as isize) {
        for (s, &v) in sums.iter_mut().zip(src_row(i)) {
            *s += v as f64;
        }
    }
    for (y, dst) in out.as_mut_slice().chunks_exact_mut(w).enumerate() {
        let add = src_row(y as isize + radius as isize + 1);
        let sub = src_row(y as isize - radius as isize);
        for (((d, s), &a), &b) in dst.iter_mut().zip(&mut sums).zip(add).zip(sub) {
            *d = (*s / win as f64) as f32;
            *s += a as f64;
            *s -= b as f64;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gaussian_kernel_is_normalized_and_symmetric() {
        let k = gaussian_kernel(3, 1.2);
        assert_eq!(k.len(), 7);
        let sum: f32 = k.iter().sum();
        assert!((sum - 1.0).abs() < 1e-5);
        for i in 0..3 {
            assert!((k[i] - k[6 - i]).abs() < 1e-6);
        }
        assert!(k[3] >= k[2] && k[2] >= k[1] && k[1] >= k[0]);
    }

    #[test]
    fn blur_preserves_constant_image() {
        let mut img = Image::<u8>::new(9, 9, 3);
        img.fill(&[120, 130, 140]);
        for out in [gaussian_blur(&img, 2, 1.0), box_blur(&img, 2)] {
            assert_eq!(out.pixel(4, 4), &[120, 130, 140]);
            assert_eq!(out.pixel(0, 0), &[120, 130, 140]); // border replicate
        }
    }

    #[test]
    fn gaussian_blur_smooths_impulse() {
        let mut img = Image::<u8>::new(9, 9, 1);
        img.set(4, 4, 255);
        let out = gaussian_blur(&img, 2, 1.0);
        let center = out.get(4, 4);
        assert!(center < 255, "impulse energy must spread");
        assert!(out.get(3, 4) > 0, "neighbours must receive energy");
        assert!(out.get(3, 4) <= center);
    }

    #[test]
    fn box_blur_averages_window() {
        // 3x3 window over a single bright pixel: 255 / 9 ≈ 28.
        let mut img = Image::<u8>::new(5, 5, 1);
        img.set(2, 2, 255);
        let out = box_blur(&img, 1);
        let v = out.get(2, 2);
        assert!((27..=29).contains(&v), "got {v}");
    }

    #[test]
    fn median_removes_salt_noise() {
        let mut img = Image::<u8>::new(7, 7, 1);
        for y in 0..7 {
            for x in 0..7 {
                img.set(x, y, 100);
            }
        }
        img.set(3, 3, 255); // isolated impulse
        let out = median_filter(&img, 1);
        assert_eq!(out.get(3, 3), 100);
    }

    #[test]
    fn median_preserves_step_edge() {
        let mut img = Image::<u8>::new(8, 8, 1);
        for y in 0..8 {
            for x in 4..8 {
                img.set(x, y, 200);
            }
        }
        let out = median_filter(&img, 1);
        assert_eq!(out.get(1, 4), 0);
        assert_eq!(out.get(6, 4), 200);
    }

    /// Deterministic bytes for the differential tests (SplitMix64).
    fn noise(len: usize, seed: u64) -> Vec<u8> {
        let mut state = seed;
        (0..len)
            .map(|_| {
                state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                (z ^ (z >> 31)) as u8
            })
            .collect()
    }

    #[test]
    fn median3x3_is_exact_on_every_binary_window() {
        // The radius-1 path is a network of min/max, which commutes with
        // every threshold `v ≥ t`; by the 0-1 principle, agreeing with the
        // majority vote on all 512 binary windows proves it exact for all
        // u8 inputs.
        for bits in 0u32..512 {
            let px: Vec<u8> = (0..9)
                .map(|i| if bits >> i & 1 == 1 { 255 } else { 0 })
                .collect();
            let expected = if bits.count_ones() >= 5 { 255 } else { 0 };
            let out = median_filter(&Image::from_vec(3, 3, 1, px), 1);
            assert_eq!(out.get(1, 1), expected, "window {bits:09b}");
        }
    }

    #[test]
    fn median3x3_matches_select_path_including_borders() {
        let sides = [1usize, 2, 3, 17, 64];
        for &w in &sides {
            for &h in &sides {
                for c in [1usize, 3] {
                    let seed = (w * 1000 + h * 10 + c) as u64;
                    let img = Image::from_vec(w, h, c, noise(w * h * c, seed));
                    assert_eq!(
                        median_filter(&img, 1),
                        median_select(&img, 1),
                        "{w}x{h}x{c}"
                    );
                }
            }
        }
    }

    /// The per-column box blur `box_blur_f32` replaced: every column
    /// walked on its own, then transposed back into rows.
    fn box_blur_f32_per_column(src: &Image<f32>, radius: usize) -> Image<f32> {
        let (w, h) = src.dimensions();
        if radius == 0 || w == 0 || h == 0 {
            return src.clone();
        }
        let win = 2 * radius + 1;
        let mut tmp = vec![0f32; w * h];
        for (y, dst) in tmp.chunks_exact_mut(w).enumerate() {
            let row = src.row(y);
            let at = |x: isize| row[x.clamp(0, w as isize - 1) as usize];
            let mut sum: f64 = 0.0;
            for i in -(radius as isize)..=(radius as isize) {
                sum += at(i) as f64;
            }
            for (x, d) in dst.iter_mut().enumerate() {
                *d = (sum / win as f64) as f32;
                sum += at(x as isize + radius as isize + 1) as f64;
                sum -= at(x as isize - radius as isize) as f64;
            }
        }
        let col_sum = |x: usize, y: isize| tmp[(y.clamp(0, h as isize - 1) as usize) * w + x];
        let columns: Vec<Vec<f32>> = (0..w)
            .map(|x| {
                let mut sum: f64 = 0.0;
                for i in -(radius as isize)..=(radius as isize) {
                    sum += col_sum(x, i) as f64;
                }
                (0..h)
                    .map(|y| {
                        let v = (sum / win as f64) as f32;
                        sum += col_sum(x, y as isize + radius as isize + 1) as f64;
                        sum -= col_sum(x, y as isize - radius as isize) as f64;
                        v
                    })
                    .collect()
            })
            .collect();
        Image::from_fn(w, h, 1, |x, y| vec![columns[x][y]])
    }

    #[test]
    fn box_blur_f32_is_bit_identical_to_per_column_walk() {
        // 64×64 and 80×70 take the parallel horizontal pass; radius 100 is
        // larger than every image, so the window clamps at both borders.
        for (w, h) in [
            (1usize, 1usize),
            (1, 9),
            (9, 1),
            (13, 7),
            (64, 64),
            (80, 70),
        ] {
            let img = Image::from_vec(
                w,
                h,
                1,
                noise(w * h * 4, (w * 31 + h) as u64)
                    .chunks_exact(4)
                    .map(|b| {
                        // Random sign and mantissa, exponents spanning
                        // 2^-60..2^60: the f64 running sums round and
                        // cancel, so any reordering shows in the f32 output.
                        let bits = u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
                        let exp = 67 + (bits >> 24) % 121;
                        f32::from_bits((bits & 0x807f_ffff) | (exp << 23))
                    })
                    .collect(),
            );
            for radius in [1usize, 2, 5, 32, 100] {
                let got = box_blur_f32(&img, radius);
                let want = box_blur_f32_per_column(&img, radius);
                let bits =
                    |i: &Image<f32>| i.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&got), bits(&want), "{w}x{h} radius {radius}");
            }
        }
    }

    #[test]
    fn radius_zero_is_identity() {
        let img = Image::from_vec(3, 1, 1, vec![1u8, 2, 3]);
        assert_eq!(gaussian_blur(&img, 0, 1.0), img);
        assert_eq!(box_blur(&img, 0), img);
        assert_eq!(median_filter(&img, 0), img);
    }

    #[test]
    fn box_blur_f32_matches_naive_mean() {
        let img = Image::from_fn(10, 6, 1, |x, y| {
            vec![(x as f32 * 1.5 + y as f32 * 0.25).sin()]
        });
        let r = 2usize;
        let out = box_blur_f32(&img.map(|v| v), r);
        // Naive reference at an interior pixel.
        let (cx, cy) = (5usize, 3usize);
        let mut acc = 0f64;
        for dy in -(r as isize)..=(r as isize) {
            for dx in -(r as isize)..=(r as isize) {
                let sx = (cx as isize + dx).clamp(0, 9) as usize;
                let sy = (cy as isize + dy).clamp(0, 5) as usize;
                acc += img.get(sx, sy) as f64;
            }
        }
        let expected = (acc / 25.0) as f32;
        assert!((out.get(cx, cy) - expected).abs() < 1e-4);
    }

    #[test]
    fn box_blur_f32_constant_is_fixed_point() {
        let mut img = Image::<f32>::new(20, 20, 1);
        img.fill(&[3.25]);
        let out = box_blur_f32(&img, 7);
        assert!(out.as_slice().iter().all(|&v| (v - 3.25).abs() < 1e-5));
    }

    #[test]
    fn box_blur_f32_large_radius_converges_to_mean() {
        let img = Image::from_fn(8, 8, 1, |x, _| vec![x as f32]);
        let out = box_blur_f32(&img, 100);
        // With replication the exact value differs from the plain mean, but
        // every output must be strictly inside the input range and flat-ish.
        let spread = out
            .as_slice()
            .iter()
            .fold((f32::INFINITY, f32::NEG_INFINITY), |(mn, mx), &v| {
                (mn.min(v), mx.max(v))
            });
        assert!(spread.1 - spread.0 < 3.0);
    }

    #[test]
    fn parallel_and_sequential_paths_agree() {
        // 128x128 takes the parallel path; recompute a small crop via the
        // sequential path and compare interior pixels.
        let big = Image::from_fn(128, 128, 1, |x, y| vec![((x * 7 + y * 13) % 251) as u8]);
        let blurred_big = gaussian_blur(&big, 2, 1.0);
        let crop = big.crop(32, 32, 16, 16);
        let blurred_crop = gaussian_blur(&crop, 2, 1.0);
        // Interior pixels (away from crop borders) must agree.
        for y in 4..12 {
            for x in 4..12 {
                assert_eq!(blurred_crop.get(x, y), blurred_big.get(32 + x, 32 + y));
            }
        }
    }
}
