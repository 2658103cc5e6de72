//! Row tiling: computing 2-D convolutions on a 1-D JTC (paper §2.2).
//!
//! On-chip lenses are 1-D, so the JTC natively computes 1-D convolutions.
//! The row-tiling algorithm concatenates `R_i` input rows (optionally
//! separated by `k-1` zeros) into one long 1-D signal, tiles the kernel rows
//! at matching offsets, and reads the 2-D convolution out of the 1-D result:
//! output `(r, c)` appears at 1-D position `r·L + c`. Each pass yields
//! `R_i - k + 1` valid output rows (the paper's worked example: 8 rows in,
//! 6 out for a 3×3 kernel); rows beyond that are circular-padding artifacts
//! and are discarded.
//!
//! Two modes:
//! * [`TilingMode::Exact`] — rows are padded with `k-1` zeros, so every
//!   retained output is exact. The padding occupies waveguides but costs no
//!   conversions (zero-valued DACs are switched off).
//! * [`TilingMode::Approximate`] — no inter-row or image-border padding;
//!   more rows fit per pass. Retained *valid* columns are still exact (the
//!   seam corruption lands only on discarded columns); the approximation
//!   relative to a digital "same" convolution is at the image borders. This
//!   is the accounting the paper's §2.2 example uses (8×32 = 256
//!   waveguides, 6 passes, 1590 conversions).
//!
//! [`TilingPlan`] is the *performance* view (rows/pass, passes, conversion
//! counts) consumed by the architecture simulator; [`tiled_conv2d_valid`]
//! and [`tiled_conv2d_with`] are the *functional* view, validated against
//! direct 2-D convolution and able to route each 1-D pass through the real
//! optical JTC model.

use refocus_photonics::signal::correlate_valid;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::Range;

/// Whether rows are zero-padded for exactness or packed for density.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum TilingMode {
    /// Zero-pad each row with `k-1` zeros: exact, fewer rows per pass.
    #[default]
    Exact,
    /// No padding: denser packing; border columns approximate a "same"
    /// convolution (the paper's example accounting).
    Approximate,
}

/// Errors from tiling.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TilingError {
    /// The JTC tile cannot hold even one padded row.
    RowTooWide {
        /// Waveguides needed for one row.
        row_len: usize,
        /// Waveguides available.
        tile: usize,
    },
    /// Kernel is larger than the input.
    KernelTooLarge,
    /// Empty or ragged operand.
    BadOperand(&'static str),
}

impl fmt::Display for TilingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TilingError::RowTooWide { row_len, tile } => {
                write!(
                    f,
                    "row of {row_len} samples exceeds the {tile}-waveguide tile"
                )
            }
            TilingError::KernelTooLarge => write!(f, "kernel larger than input"),
            TilingError::BadOperand(which) => write!(f, "bad operand: {which}"),
        }
    }
}

impl std::error::Error for TilingError {}

/// Maximum non-zero kernel taps a single RFCU pass supports — the 25
/// active weight waveguides of §4 (a 5×5 kernel). Larger kernels split
/// into chunks accumulated digitally.
pub const MAX_ACTIVE_WEIGHT_TAPS: usize = 25;

/// The performance plan for executing one conv layer's single channel on a
/// `tile`-waveguide JTC.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TilingPlan {
    /// Padding mode used.
    pub mode: TilingMode,
    /// Waveguides per tiled row (`L`).
    pub row_len: usize,
    /// Input rows loaded per pass (`R_i`).
    pub rows_per_pass: usize,
    /// Valid output rows produced per pass (`R_i - k + 1`, stride-adjusted).
    pub valid_rows_per_pass: usize,
    /// JTC passes per input channel (including row-partitioning repeats and
    /// kernel chunking, but *not* pseudo-negative doubling).
    pub passes: usize,
    /// Input-DAC conversions per pass (zero padding costs nothing).
    pub input_conversions_per_pass: usize,
    /// Weight-DAC conversions per pass (`min(k², 25)` active taps).
    pub weight_conversions_per_pass: usize,
    /// `true` if the tile cannot hold `k` rows and each output row takes
    /// multiple cycles (row partitioning, first-layer territory).
    pub row_partitioned: bool,
    /// Kernel chunks when `k² > 25` active taps.
    pub kernel_chunks: usize,
    /// Output rows this plan produces in total.
    pub output_rows: usize,
}

impl TilingPlan {
    /// Plans the execution of one channel of a conv layer.
    ///
    /// * `input_hw` — the layer's raw input resolution (before conv padding).
    /// * `kernel` — square kernel size `k`.
    /// * `stride` — convolution stride.
    /// * `padding` — conv zero padding per side (ignored by
    ///   [`TilingMode::Approximate`], which is the point).
    /// * `tile` — JTC input waveguides `T`.
    ///
    /// # Errors
    ///
    /// Returns [`TilingError`] when a single row cannot fit the tile or the
    /// kernel exceeds the (padded) input.
    pub fn plan(
        input_hw: (usize, usize),
        kernel: usize,
        stride: usize,
        padding: usize,
        tile: usize,
        mode: TilingMode,
    ) -> Result<Self, TilingError> {
        if kernel == 0 || stride == 0 || tile == 0 {
            return Err(TilingError::BadOperand("zero kernel/stride/tile"));
        }
        let (h, w) = input_hw;
        let (eff_h, eff_w, row_len) = match mode {
            TilingMode::Exact => (
                h + 2 * padding,
                w + 2 * padding,
                w + 2 * padding + kernel - 1,
            ),
            TilingMode::Approximate => (h, w, w),
        };
        if kernel > eff_h || kernel > eff_w {
            return Err(TilingError::KernelTooLarge);
        }
        if row_len > tile {
            return Err(TilingError::RowTooWide { row_len, tile });
        }

        // Output rows the layer needs. Approximate mode still targets the
        // "same"-style output the padded convolution would give.
        let padded_h = h + 2 * padding;
        let output_rows = (padded_h - kernel) / stride + 1;

        let max_rows = tile / row_len;
        let rows_per_pass = max_rows.min(eff_h);
        let kernel_chunks = (kernel * kernel).div_ceil(MAX_ACTIVE_WEIGHT_TAPS);

        if rows_per_pass < kernel {
            // Row partitioning: each output row needs k input rows streamed
            // through the tile over several cycles, with digital
            // accumulation of partial products.
            let cycles_per_output_row = (kernel * row_len).div_ceil(tile);
            let passes = output_rows * cycles_per_output_row * kernel_chunks;
            return Ok(Self {
                mode,
                row_len,
                rows_per_pass,
                valid_rows_per_pass: 1,
                passes,
                input_conversions_per_pass: tile.min(kernel * eff_w),
                weight_conversions_per_pass: (kernel * kernel).min(MAX_ACTIVE_WEIGHT_TAPS),
                row_partitioned: true,
                kernel_chunks,
                output_rows,
            });
        }

        // Stride-aware valid rows: output rows whose k-row receptive field
        // fits inside the pass's rows.
        let valid_rows_per_pass = (rows_per_pass - kernel) / stride + 1;
        let passes = output_rows.div_ceil(valid_rows_per_pass) * kernel_chunks;
        // Only real (non-padding) samples cost DAC conversions.
        let data_cols = match mode {
            TilingMode::Exact => w, // horizontal conv padding is zeros too
            TilingMode::Approximate => w,
        };
        Ok(Self {
            mode,
            row_len,
            rows_per_pass,
            valid_rows_per_pass,
            passes,
            input_conversions_per_pass: rows_per_pass * data_cols,
            weight_conversions_per_pass: (kernel * kernel).min(MAX_ACTIVE_WEIGHT_TAPS),
            row_partitioned: false,
            kernel_chunks,
            output_rows,
        })
    }

    /// Total input + weight conversions over all passes — the JTC
    /// "operation count" of §2.2.
    pub fn total_conversions(&self) -> u64 {
        self.passes as u64
            * (self.input_conversions_per_pass + self.weight_conversions_per_pass) as u64
    }

    /// Waveguide utilization: fraction of the tile carrying data rows.
    pub fn utilization(&self, tile: usize) -> f64 {
        (self.rows_per_pass * self.row_len) as f64 / tile as f64
    }
}

/// Tiles a chunk of input rows into one 1-D signal.
///
/// Each row is `row_len` samples: the row's data followed by zeros.
///
/// # Panics
///
/// Panics if a row exceeds `row_len`.
pub fn tile_rows(rows: &[&[f64]], row_len: usize) -> Vec<f64> {
    let mut out = Vec::with_capacity(rows.len() * row_len);
    for row in rows {
        assert!(row.len() <= row_len, "row longer than row_len");
        out.extend_from_slice(row);
        out.extend(std::iter::repeat_n(0.0, row_len - row.len()));
    }
    out
}

/// Tiles a `k×kw` kernel into the matching 1-D kernel: row `j` of the
/// kernel at offset `j*row_len`. Length `(k-1)*row_len + kw`.
///
/// # Panics
///
/// Panics if the kernel is empty/ragged or wider than `row_len`.
pub fn tile_kernel(kernel: &[Vec<f64>], row_len: usize) -> Vec<f64> {
    assert!(!kernel.is_empty(), "empty kernel");
    let kw = kernel[0].len();
    assert!(kernel.iter().all(|r| r.len() == kw), "ragged kernel");
    assert!(kw <= row_len, "kernel wider than row_len");
    let k = kernel.len();
    let mut out = Vec::with_capacity((k - 1) * row_len + kw);
    for (j, row) in kernel.iter().enumerate() {
        out.extend_from_slice(row);
        if j + 1 < k {
            out.extend(std::iter::repeat_n(0.0, row_len - kw));
        }
    }
    out
}

/// One optical pass of a row-tiled convolution (see [`tiled_passes`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TiledPass {
    /// Input rows tiled into the pass's 1-D signal.
    pub signal_rows: Range<usize>,
    /// Kernel rows tiled into the pass's 1-D kernel.
    pub kernel_rows: Range<usize>,
    /// First output row the pass produces.
    pub out_row: usize,
    /// Output rows the pass produces, `out_row..out_row + out_rows`.
    pub out_rows: usize,
    /// A row-partitioned pass: its output is the partial sum of row
    /// `out_row` over `kernel_rows`, accumulated digitally with the other
    /// passes of that row. Otherwise every produced row is complete.
    pub partial: bool,
}

/// The passes one (input channel, kernel) convolution makes on a
/// `tile`-waveguide JTC, in execution order, with the layout that turns
/// them into 1-D operands and back.
///
/// Passes come in non-decreasing `out_row` order and no pass reads an
/// input row above its `out_row`, so a caller may drop anything it cached
/// for rows above the current pass's `out_row`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TiledPasses {
    /// Waveguides per tiled row (`L`).
    pub row_len: usize,
    /// Valid output rows at stride 1 (`h - k + 1`).
    pub out_h: usize,
    /// Valid output columns at stride 1 (`w - kw + 1`).
    pub out_w: usize,
    kernel_h: usize,
    kernel_w: usize,
    /// The passes.
    pub passes: Vec<TiledPass>,
}

/// Enumerates the JTC passes of the valid 2-D convolution of an
/// `input_hw` input with a `kernel_hw` kernel (the geometry of
/// [`tiled_conv2d_with`]), for a convolution of the given `stride`.
///
/// When the tile holds at least `k` rows, each pass loads as many rows as
/// fit and yields every valid row among them. Otherwise (row
/// partitioning) each output row takes its own `k`-row window in
/// sub-passes of at most as many rows as fit; with `stride > 1` only the
/// rows `oy % stride == 0` the stride keeps are enumerated.
///
/// # Errors
///
/// Returns [`TilingError`] for a zero dimension or stride, a kernel
/// larger than the input, or a row wider than the tile.
pub fn tiled_passes(
    input_hw: (usize, usize),
    kernel_hw: (usize, usize),
    tile: usize,
    mode: TilingMode,
    stride: usize,
) -> Result<TiledPasses, TilingError> {
    let ((h, w), (k, kw)) = (input_hw, kernel_hw);
    if h == 0 || w == 0 {
        return Err(TilingError::BadOperand("empty input"));
    }
    if k == 0 || kw == 0 {
        return Err(TilingError::BadOperand("empty kernel"));
    }
    if stride == 0 {
        return Err(TilingError::BadOperand("zero stride"));
    }
    if k > h || kw > w {
        return Err(TilingError::KernelTooLarge);
    }
    let row_len = match mode {
        TilingMode::Exact => w + kw - 1,
        TilingMode::Approximate => w,
    };
    if row_len > tile {
        return Err(TilingError::RowTooWide { row_len, tile });
    }

    let out_h = h - k + 1;
    let rows_per_pass = (tile / row_len).min(h);
    let mut passes = Vec::new();
    if rows_per_pass < k {
        // Row partitioning: compute each output row from a k-row window,
        // splitting the window across sub-passes that each fit the tile and
        // accumulating digitally.
        let rows_per_sub = rows_per_pass.max(1);
        for oy in (0..out_h).step_by(stride) {
            let mut j0 = 0;
            while j0 < k {
                let j1 = (j0 + rows_per_sub).min(k);
                passes.push(TiledPass {
                    signal_rows: oy + j0..oy + j1,
                    kernel_rows: j0..j1,
                    out_row: oy,
                    out_rows: 1,
                    partial: true,
                });
                j0 = j1;
            }
        }
    } else {
        let valid_per_pass = rows_per_pass - k + 1;
        let mut r0 = 0;
        while r0 < out_h {
            let rows_this_pass = rows_per_pass.min(h - r0);
            let valid_here = (rows_this_pass - k + 1).min(out_h - r0);
            passes.push(TiledPass {
                signal_rows: r0..r0 + rows_this_pass,
                kernel_rows: 0..k,
                out_row: r0,
                out_rows: valid_here,
                partial: false,
            });
            r0 += valid_per_pass.min(valid_here.max(1));
        }
    }
    Ok(TiledPasses {
        row_len,
        out_h,
        out_w: w - kw + 1,
        kernel_h: k,
        kernel_w: kw,
        passes,
    })
}

impl TiledPasses {
    /// Samples in the pass's 1-D signal.
    pub fn signal_len(&self, pass: &TiledPass) -> usize {
        pass.signal_rows.len() * self.row_len
    }

    /// Samples in the pass's 1-D kernel.
    pub fn kernel_len(&self, pass: &TiledPass) -> usize {
        (pass.kernel_rows.len() - 1) * self.row_len + self.kernel_w
    }

    /// The pass's 1-D signal: its input rows tiled at `row_len`.
    pub fn signal(&self, input: &[Vec<f64>], pass: &TiledPass) -> Vec<f64> {
        let rows: Vec<&[f64]> = input[pass.signal_rows.clone()]
            .iter()
            .map(Vec::as_slice)
            .collect();
        tile_rows(&rows, self.row_len)
    }

    /// The pass's 1-D kernel: its kernel rows tiled at `row_len`.
    pub fn kernel(&self, kernel: &[Vec<f64>], pass: &TiledPass) -> Vec<f64> {
        tile_kernel(&kernel[pass.kernel_rows.clone()], self.row_len)
    }

    /// A zeroed `out_h × out_w` output.
    pub fn zeros(&self) -> Vec<Vec<f64>> {
        vec![vec![0.0; self.out_w]; self.out_h]
    }

    /// Folds a pass's valid 1-D correlation `corr` into finished output
    /// rows, calling `finish(out_row, values)` for each. A complete pass
    /// finishes its rows directly; a partial pass adds into `row` (reset
    /// by the first sub-pass of each output row) and finishes the row with
    /// its last sub-pass.
    pub fn fold(
        &self,
        pass: &TiledPass,
        corr: &[f64],
        row: &mut Vec<f64>,
        mut finish: impl FnMut(usize, &[f64]),
    ) {
        if !pass.partial {
            for r in 0..pass.out_rows {
                let base = r * self.row_len;
                finish(pass.out_row + r, &corr[base..base + self.out_w]);
            }
            return;
        }
        if pass.kernel_rows.start == 0 {
            row.clear();
            row.resize(self.out_w, 0.0);
        }
        for (a, c) in row.iter_mut().zip(corr) {
            *a += c;
        }
        if pass.kernel_rows.end == self.kernel_h {
            finish(pass.out_row, row);
        }
    }

    /// Runs every pass through `correlate_1d` (see [`tiled_conv2d_with`])
    /// and hands each finished output row to `finish` (see
    /// [`TiledPasses::fold`]). A pass's result may be any view of its
    /// valid correlation, so a caller need not copy it out of a larger
    /// output.
    pub fn run<C: AsRef<[f64]>>(
        &self,
        input: &[Vec<f64>],
        kernel: &[Vec<f64>],
        mut correlate_1d: impl FnMut(&[f64], &[f64]) -> C,
        mut finish: impl FnMut(usize, &[f64]),
    ) {
        let mut row = Vec::new();
        let mut tiled_kernel: Option<(Range<usize>, Vec<f64>)> = None;
        for pass in &self.passes {
            if tiled_kernel
                .as_ref()
                .is_none_or(|(rows, _)| *rows != pass.kernel_rows)
            {
                tiled_kernel = Some((pass.kernel_rows.clone(), self.kernel(kernel, pass)));
            }
            let (_, ker_1d) = tiled_kernel.as_ref().expect("set above");
            let corr = correlate_1d(&self.signal(input, pass), ker_1d);
            self.fold(pass, corr.as_ref(), &mut row, &mut finish);
        }
    }
}

/// Computes the **valid** 2-D convolution of `input` rows with `kernel`
/// using row tiling over a `tile`-waveguide 1-D correlator, where each 1-D
/// pass is executed by `correlate_1d` (a valid 1-D cross-correlation:
/// `out[i] = Σ_k sig[i+k]·ker[k]`). The passes are those of
/// [`tiled_passes`] at stride 1.
///
/// This is the hook the architecture's functional path uses to route passes
/// through the *optical* JTC model instead of digital math.
///
/// # Errors
///
/// Returns [`TilingError`] on shape problems.
pub fn tiled_conv2d_with<F>(
    input: &[Vec<f64>],
    kernel: &[Vec<f64>],
    tile: usize,
    mode: TilingMode,
    correlate_1d: F,
) -> Result<Vec<Vec<f64>>, TilingError>
where
    F: FnMut(&[f64], &[f64]) -> Vec<f64>,
{
    if input.is_empty() || input[0].is_empty() {
        return Err(TilingError::BadOperand("empty input"));
    }
    if kernel.is_empty() || kernel[0].is_empty() {
        return Err(TilingError::BadOperand("empty kernel"));
    }
    let (h, w) = (input.len(), input[0].len());
    if input.iter().any(|r| r.len() != w) {
        return Err(TilingError::BadOperand("ragged input"));
    }
    let (k, kw) = (kernel.len(), kernel[0].len());
    if kernel.iter().any(|r| r.len() != kw) {
        return Err(TilingError::BadOperand("ragged kernel"));
    }
    let plan = tiled_passes((h, w), (k, kw), tile, mode, 1)?;
    let mut out = plan.zeros();
    plan.run(input, kernel, correlate_1d, |r, values| {
        out[r].copy_from_slice(values)
    });
    Ok(out)
}

/// [`tiled_conv2d_with`] using the digital reference 1-D correlation.
///
/// # Errors
///
/// Returns [`TilingError`] on shape problems.
pub fn tiled_conv2d_valid(
    input: &[Vec<f64>],
    kernel: &[Vec<f64>],
    tile: usize,
    mode: TilingMode,
) -> Result<Vec<Vec<f64>>, TilingError> {
    tiled_conv2d_with(input, kernel, tile, mode, correlate_valid)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conv::conv2d_valid_single;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    fn random_matrix(h: usize, w: usize, seed: u64) -> Vec<Vec<f64>> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..h)
            .map(|_| (0..w).map(|_| rng.random::<f64>()).collect())
            .collect()
    }

    fn assert_matrix_close(a: &[Vec<f64>], b: &[Vec<f64>], tol: f64) {
        assert_eq!(a.len(), b.len(), "row count");
        for (ra, rb) in a.iter().zip(b) {
            assert_eq!(ra.len(), rb.len(), "col count");
            for (x, y) in ra.iter().zip(rb) {
                assert!((x - y).abs() < tol, "{x} vs {y}");
            }
        }
    }

    #[test]
    fn paper_worked_example_section_2_2() {
        // 32x32 input, 3x3 kernel (same padding), T = 256, approximate mode:
        // 8 rows/pass, 6 valid rows, 6 passes, 1590 conversions; GPU: 9216.
        let plan = TilingPlan::plan((32, 32), 3, 1, 1, 256, TilingMode::Approximate).unwrap();
        assert_eq!(plan.row_len, 32);
        assert_eq!(plan.rows_per_pass, 8);
        assert_eq!(plan.valid_rows_per_pass, 6);
        assert_eq!(plan.output_rows, 32);
        assert_eq!(plan.passes, 6);
        assert_eq!(plan.input_conversions_per_pass, 256);
        assert_eq!(plan.weight_conversions_per_pass, 9);
        assert_eq!(plan.total_conversions(), 1590);
        // >5x fewer "operations" than the 9216-MAC GPU baseline.
        assert!(9216 / plan.total_conversions() >= 5);
    }

    #[test]
    fn exact_mode_reserves_padding_waveguides() {
        let plan = TilingPlan::plan((32, 32), 3, 1, 1, 256, TilingMode::Exact).unwrap();
        // Row = 32 + 2 (conv pad) + 2 (inter-row pad) = 36 -> 7 rows.
        assert_eq!(plan.row_len, 36);
        assert_eq!(plan.rows_per_pass, 7);
        assert_eq!(plan.valid_rows_per_pass, 5);
        assert_eq!(plan.output_rows, 32);
        assert_eq!(plan.passes, 7);
        // Conversions still only charge real data.
        assert_eq!(plan.input_conversions_per_pass, 7 * 32);
    }

    #[test]
    fn small_activation_fits_single_pass() {
        // ResNet later layers: 14x14 inputs fully fit a 256-wide tile.
        let plan = TilingPlan::plan((14, 14), 3, 1, 1, 256, TilingMode::Exact).unwrap();
        // Row = 14 + 2 + 2 = 18; 256/18 = 14 rows: whole (unpadded) image.
        assert_eq!(plan.rows_per_pass, 14);
        assert!(!plan.row_partitioned);
    }

    #[test]
    fn first_layer_row_partitioning() {
        // 224-wide first layer on a 128-waveguide tile: a single padded row
        // (224+2*3+6=236) exceeds the tile -> RowTooWide; on a 256 tile one
        // row fits but not 7 -> partitioned.
        assert!(matches!(
            TilingPlan::plan((224, 224), 7, 2, 3, 128, TilingMode::Exact),
            Err(TilingError::RowTooWide { .. })
        ));
        let plan = TilingPlan::plan((224, 224), 7, 2, 3, 256, TilingMode::Exact).unwrap();
        assert!(plan.row_partitioned);
        assert_eq!(plan.output_rows, 112);
        assert!(plan.passes > plan.output_rows);
    }

    #[test]
    fn large_kernel_chunks() {
        // 11x11 AlexNet stem: 121 taps -> 5 chunks of <=25.
        let plan = TilingPlan::plan((224, 224), 11, 4, 2, 256, TilingMode::Approximate).unwrap();
        assert_eq!(plan.kernel_chunks, 5);
        let small = TilingPlan::plan((56, 56), 3, 1, 1, 256, TilingMode::Exact).unwrap();
        assert_eq!(small.kernel_chunks, 1);
    }

    #[test]
    fn stride_reduces_output_rows() {
        let s1 = TilingPlan::plan((56, 56), 3, 1, 1, 256, TilingMode::Exact).unwrap();
        let s2 = TilingPlan::plan((56, 56), 3, 2, 1, 256, TilingMode::Exact).unwrap();
        assert_eq!(s1.output_rows, 56);
        assert_eq!(s2.output_rows, 28);
        // Fewer output rows, but each pass also yields fewer strided rows,
        // so passes shrink at most proportionally.
        assert!(s2.passes <= s1.passes);
    }

    #[test]
    fn tile_rows_layout() {
        let r0 = [1.0, 2.0];
        let r1 = [3.0, 4.0];
        let tiled = tile_rows(&[&r0, &r1], 4);
        assert_eq!(tiled, vec![1.0, 2.0, 0.0, 0.0, 3.0, 4.0, 0.0, 0.0]);
    }

    #[test]
    fn tile_kernel_layout() {
        let k = vec![vec![1.0, 2.0], vec![3.0, 4.0]];
        // row_len 5: row0 + 3 zeros + row1 (no trailing pad on last row).
        assert_eq!(tile_kernel(&k, 5), vec![1.0, 2.0, 0.0, 0.0, 0.0, 3.0, 4.0]);
    }

    #[test]
    fn tiled_exact_matches_direct_conv2d() {
        for (h, w, k, tile, seed) in [
            (8usize, 8usize, 3usize, 64usize, 1u64),
            (16, 12, 3, 64, 2),
            (10, 10, 5, 128, 3),
            (7, 9, 2, 32, 4),
            (32, 32, 3, 256, 5),
        ] {
            let input = random_matrix(h, w, seed);
            let kernel = random_matrix(k, k, seed + 50);
            let want = conv2d_valid_single(&input, &kernel);
            let got = tiled_conv2d_valid(&input, &kernel, tile, TilingMode::Exact).unwrap();
            assert_matrix_close(&got, &want, 1e-9);
        }
    }

    #[test]
    fn tiled_approximate_valid_columns_also_exact() {
        // With valid-column extraction, approximate mode is numerically
        // exact too (seam corruption only hits discarded columns).
        let input = random_matrix(16, 16, 9);
        let kernel = random_matrix(3, 3, 10);
        let want = conv2d_valid_single(&input, &kernel);
        let got = tiled_conv2d_valid(&input, &kernel, 128, TilingMode::Approximate).unwrap();
        assert_matrix_close(&got, &want, 1e-9);
    }

    #[test]
    fn tiled_with_partitioning_matches_direct() {
        // Tile holds fewer rows than the kernel height: partitioned path.
        let input = random_matrix(12, 20, 11);
        let kernel = random_matrix(5, 5, 12);
        let want = conv2d_valid_single(&input, &kernel);
        // Row len exact = 24; tile 50 holds 2 rows < k=5.
        let got = tiled_conv2d_valid(&input, &kernel, 50, TilingMode::Exact).unwrap();
        assert_matrix_close(&got, &want, 1e-9);
    }

    #[test]
    fn tiled_single_row_per_pass_partitioning() {
        let input = random_matrix(6, 10, 13);
        let kernel = random_matrix(3, 3, 14);
        let want = conv2d_valid_single(&input, &kernel);
        // Tile of 12 holds exactly one exact row (12).
        let got = tiled_conv2d_valid(&input, &kernel, 12, TilingMode::Exact).unwrap();
        assert_matrix_close(&got, &want, 1e-9);
    }

    #[test]
    fn functional_hook_is_used() {
        // Count 1-D passes through the hook and compare to the plan.
        let input = random_matrix(32, 32, 15);
        let kernel = random_matrix(3, 3, 16);
        let mut passes = 0usize;
        let got = tiled_conv2d_with(&input, &kernel, 256, TilingMode::Approximate, |s, k| {
            passes += 1;
            correlate_valid(s, k)
        })
        .unwrap();
        let want = conv2d_valid_single(&input, &kernel);
        assert_matrix_close(&got, &want, 1e-9);
        // Valid conv: 30 output rows, 6 per pass -> 5 passes.
        assert_eq!(passes, 5);
    }

    #[test]
    fn strided_partitioned_passes_keep_only_strided_rows() {
        // Exact row = 112 + 2 = 114: two rows per 256-wide pass < k = 3.
        let s1 = tiled_passes((20, 112), (3, 3), 256, TilingMode::Exact, 1).unwrap();
        let s2 = tiled_passes((20, 112), (3, 3), 256, TilingMode::Exact, 2).unwrap();
        assert_eq!((s1.out_h, s1.row_len), (18, 114));
        // Each output row: rows 0..2, then row 2, of its window.
        assert_eq!(s1.passes.len(), 18 * 2);
        assert_eq!(s2.passes.len(), 9 * 2);
        for pass in &s2.passes {
            assert_eq!(pass.out_row % 2, 0);
            assert!(pass.partial && pass.out_rows == 1);
        }
        // The kept rows' passes are exactly the stride-1 passes for them.
        let kept: Vec<_> = s1.passes.iter().filter(|p| p.out_row % 2 == 0).collect();
        assert_eq!(kept, s2.passes.iter().collect::<Vec<_>>());
        assert_eq!(s2.passes[1].signal_rows, 2..3);
        assert_eq!(s2.passes[1].kernel_rows, 2..3);
        // The analytical plan counts the same passes.
        let plan = TilingPlan::plan((18, 110), 3, 2, 1, 256, TilingMode::Exact).unwrap();
        assert_eq!(plan.passes, s2.passes.len());
    }

    #[test]
    fn multi_row_passes_ignore_the_stride() {
        let s1 = tiled_passes((32, 32), (3, 3), 256, TilingMode::Exact, 1).unwrap();
        let s2 = tiled_passes((32, 32), (3, 3), 256, TilingMode::Exact, 2).unwrap();
        assert_eq!(s1, s2);
        assert!(s1
            .passes
            .iter()
            .all(|p| !p.partial && p.kernel_rows == (0..3)));
        // 7 rows of 34 per pass, 5 valid: rows 0, 5, .., 25 start a pass.
        assert_eq!(s1.passes.len(), 6);
        assert_eq!(s1.passes[5].signal_rows, 25..32);
        assert_eq!(s1.passes[5].out_rows, 5);
    }

    #[test]
    fn passes_never_read_above_their_output_row() {
        for (h, w, k, tile, stride) in [
            (12usize, 20usize, 5usize, 50usize, 1usize),
            (12, 20, 5, 50, 3),
            (16, 12, 3, 64, 1),
            (6, 10, 3, 12, 2),
        ] {
            let plan = tiled_passes((h, w), (k, k), tile, TilingMode::Exact, stride).unwrap();
            for pair in plan.passes.windows(2) {
                assert!(pair[0].out_row <= pair[1].out_row);
            }
            for pass in &plan.passes {
                assert!(pass.signal_rows.start >= pass.out_row);
                if pass.partial {
                    assert_eq!(pass.signal_rows.len(), pass.kernel_rows.len());
                } else {
                    assert_eq!(pass.kernel_rows, 0..k);
                }
            }
        }
    }

    #[test]
    fn pass_list_rejects_bad_geometry() {
        let exact = TilingMode::Exact;
        assert_eq!(
            tiled_passes((4, 4), (3, 3), 64, exact, 0),
            Err(TilingError::BadOperand("zero stride"))
        );
        assert_eq!(
            tiled_passes((0, 4), (3, 3), 64, exact, 1),
            Err(TilingError::BadOperand("empty input"))
        );
        assert_eq!(
            tiled_passes((4, 4), (0, 3), 64, exact, 1),
            Err(TilingError::BadOperand("empty kernel"))
        );
        assert_eq!(
            tiled_passes((4, 4), (5, 5), 64, exact, 1),
            Err(TilingError::KernelTooLarge)
        );
        assert!(matches!(
            tiled_passes((4, 4), (2, 2), 4, exact, 1),
            Err(TilingError::RowTooWide { .. })
        ));
    }

    #[test]
    fn shape_errors() {
        let input = random_matrix(4, 4, 1);
        let kernel = random_matrix(5, 5, 2);
        assert_eq!(
            tiled_conv2d_valid(&input, &kernel, 64, TilingMode::Exact),
            Err(TilingError::KernelTooLarge)
        );
        assert!(matches!(
            tiled_conv2d_valid(&input, &random_matrix(2, 2, 3), 4, TilingMode::Exact),
            Err(TilingError::RowTooWide { .. })
        ));
        assert!(matches!(
            tiled_conv2d_valid(&[], &kernel, 64, TilingMode::Exact),
            Err(TilingError::BadOperand(_))
        ));
    }

    #[test]
    fn utilization_larger_for_approximate() {
        let e = TilingPlan::plan((32, 32), 3, 1, 1, 256, TilingMode::Exact).unwrap();
        let a = TilingPlan::plan((32, 32), 3, 1, 1, 256, TilingMode::Approximate).unwrap();
        assert!(a.utilization(256) >= e.utilization(256));
        assert!(a.utilization(256) <= 1.0);
    }

    #[test]
    fn error_display() {
        assert!(TilingError::KernelTooLarge.to_string().contains("larger"));
        assert!(TilingError::RowTooWide {
            row_len: 300,
            tile: 256
        }
        .to_string()
        .contains("300"));
    }
}
