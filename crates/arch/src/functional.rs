//! Functional execution: real numbers through the optical path.
//!
//! The performance/energy models trust that the optics compute the right
//! thing; this module proves it. [`OpticalExecutor`] runs a convolution
//! layer exactly the way the architecture does — pseudo-negative filter
//! split, row tiling onto the JTC plane, one optical pass per
//! (chunk, channel, filter, half), channel accumulation, pseudo-negative
//! recombination — with every 1-D pass going through the *field-level*
//! JTC model of [`refocus_photonics::jtc`], optionally with 8-bit converters and
//! feedback-buffer attenuation + weight rescaling (§4.1.1).

use crate::config::AcceleratorConfig;
use refocus_nn::conv::ConvError;
use refocus_nn::quant::PseudoNegativeSplit;
use refocus_nn::tensor::{Tensor3, Tensor4};
use refocus_nn::tiling::{tiled_passes, TiledPass, TiledPasses, TilingError, TilingMode};
use refocus_photonics::buffer::FeedbackBuffer;
use refocus_photonics::faults::FaultInjector;
use refocus_photonics::jtc::{Jtc, JtcOutput, JtcScratch, Polarity, Spectrum};
use std::fmt;
use std::ops::Range;

/// Errors from functional execution.
#[derive(Debug, Clone, PartialEq)]
pub enum FunctionalError {
    /// Input activations must be non-negative (optical powers); run the
    /// preceding ReLU first.
    NegativeActivation,
    /// Shape mismatch between input and weights.
    Shape(ConvError),
    /// The layer cannot tile onto the configured JTC.
    Tiling(TilingError),
    /// The numerical firewall caught a NaN, infinity, or out-of-bounds
    /// magnitude leaving the optical path (see [`crate::guard`]).
    NonFinite {
        /// Which guarded boundary tripped (e.g. `"jtc-output"`).
        stage: &'static str,
        /// Flat index of the offending element within the channel.
        index: usize,
    },
}

impl fmt::Display for FunctionalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FunctionalError::NegativeActivation => {
                write!(
                    f,
                    "activations must be non-negative to modulate optical power"
                )
            }
            FunctionalError::Shape(e) => write!(f, "shape error: {e}"),
            FunctionalError::Tiling(e) => write!(f, "tiling error: {e}"),
            FunctionalError::NonFinite { stage, index } => write!(
                f,
                "non-finite or out-of-bounds value at index {index} of the \
                 {stage} boundary"
            ),
        }
    }
}

impl std::error::Error for FunctionalError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FunctionalError::Shape(e) => Some(e),
            FunctionalError::Tiling(e) => Some(e),
            FunctionalError::NegativeActivation | FunctionalError::NonFinite { .. } => None,
        }
    }
}

impl From<ConvError> for FunctionalError {
    fn from(e: ConvError) -> Self {
        FunctionalError::Shape(e)
    }
}

impl From<TilingError> for FunctionalError {
    fn from(e: TilingError) -> Self {
        FunctionalError::Tiling(e)
    }
}

/// Executes convolution layers on the simulated optics.
#[derive(Debug, Clone)]
pub struct OpticalExecutor {
    jtc: Jtc,
    tile: usize,
    mode: TilingMode,
    /// Count of optical passes performed (for cross-checking the perf
    /// model's pass accounting).
    passes: std::cell::Cell<u64>,
    /// Device-fault model applied to every optical pass, if any. Interior
    /// mutability because fault state (the laser drift walk, composed
    /// noise) advances per pass while `conv2d` takes `&self`.
    faults: Option<std::cell::RefCell<FaultInjector>>,
}

impl OpticalExecutor {
    /// Builds an executor for `config` running passes through `jtc`.
    pub fn new(config: &AcceleratorConfig, jtc: Jtc) -> Self {
        Self {
            jtc,
            tile: config.tile,
            // Exact mode keeps the functional result bit-identical to the
            // digital reference irrespective of column bookkeeping.
            mode: TilingMode::Exact,
            passes: std::cell::Cell::new(0),
            faults: None,
        }
    }

    /// Attaches a device-fault model: every subsequent optical pass runs
    /// through [`Jtc::correlate_with_faults`] with this injector (stuck
    /// weight taps, dead detector pixels, laser drift, composed analog
    /// noise). A transparent injector leaves results bit-identical.
    pub fn with_faults(mut self, injector: FaultInjector) -> Self {
        self.faults = Some(std::cell::RefCell::new(injector));
        self
    }

    /// Rewinds the attached fault model's stream state (drift walk, noise)
    /// so a layer can be re-run under the identical fault realization.
    /// No-op without an attached injector.
    pub fn reset_faults(&self) {
        if let Some(faults) = &self.faults {
            faults.borrow_mut().reset();
        }
    }

    /// An executor with an ideal (noise/quantization-free) JTC and the
    /// default ReFOCUS geometry.
    pub fn ideal() -> Self {
        Self::new(&AcceleratorConfig::refocus_ff(), Jtc::ideal())
    }

    /// An executor with 8-bit DAC/ADC converters in the loop.
    pub fn quantized() -> Self {
        Self::new(&AcceleratorConfig::refocus_ff(), Jtc::quantized())
    }

    /// Optical passes performed so far.
    pub fn passes(&self) -> u64 {
        self.passes.get()
    }

    /// Computes `conv2d(input, weights)` (stride/padding like
    /// [`refocus_nn::conv::conv2d`]) entirely through optical passes.
    ///
    /// Passes follow [`tiled_passes`], which on row-partitioned layers
    /// computes only the output rows the stride keeps. Without a DAC or
    /// an ADC and without a live fault model, passes start from lens-1
    /// spectra built once per signal or kernel tile, and all passes that
    /// share an output row and a plane geometry share one readout
    /// ([`Jtc::accumulate`], [`Jtc::read_accumulated`]); otherwise each
    /// pass runs [`Jtc::correlate`] or [`Jtc::correlate_with_faults`].
    ///
    /// Output channels execute in parallel on the [`refocus_par`] pool.
    /// Results are bit-identical at every thread count: each channel
    /// derives its fault/noise stream purely from the layer's fan-out
    /// epoch and its own index (see [`FaultInjector::for_work_item`]),
    /// never from execution order.
    ///
    /// # Errors
    ///
    /// Returns [`FunctionalError`] for negative activations, shape
    /// mismatches, or untileable layers.
    pub fn conv2d(
        &self,
        input: &Tensor3,
        weights: &Tensor4,
        stride: usize,
        padding: usize,
    ) -> Result<Tensor3, FunctionalError> {
        // Reserving the epoch is the only sequential fault-state step;
        // everything downstream is a pure function of (seed, epoch, o).
        let epoch = self
            .faults
            .as_ref()
            .map_or(0, |f| f.borrow_mut().reserve_epochs(1));
        let snapshot: Option<FaultInjector> = self.faults.as_ref().map(|f| f.borrow().clone());
        let (out, passes) = Self::conv2d_core(
            &self.jtc,
            self.tile,
            self.mode,
            input,
            weights,
            stride,
            padding,
            snapshot.as_ref(),
            epoch,
        )?;
        self.passes.set(self.passes.get() + passes);
        Ok(out)
    }

    /// The cell-free convolution kernel shared by [`OpticalExecutor::conv2d`]
    /// and [`OpticalExecutor::conv2d_with_feedback_reuse`]: no interior
    /// mutability, so per-channel workers can run on pool threads. Returns
    /// the output tensor and the number of optical passes performed.
    #[allow(clippy::too_many_arguments)]
    fn conv2d_core(
        jtc: &Jtc,
        tile: usize,
        mode: TilingMode,
        input: &Tensor3,
        weights: &Tensor4,
        stride: usize,
        padding: usize,
        faults: Option<&FaultInjector>,
        epoch: u64,
    ) -> Result<(Tensor3, u64), FunctionalError> {
        if input.data().iter().any(|&v| v < 0.0) {
            return Err(FunctionalError::NegativeActivation);
        }
        if stride == 0 {
            return Err(FunctionalError::Shape(ConvError::ZeroStride));
        }
        if input.channels() != weights.in_channels() {
            return Err(FunctionalError::Shape(ConvError::ChannelMismatch {
                input: input.channels(),
                weights: weights.in_channels(),
            }));
        }

        let _conv = refocus_obs::span_with("conv2d", || {
            format!(
                "in={}x{}x{} out_ch={}",
                input.channels(),
                input.height(),
                input.width(),
                weights.out_channels()
            )
        });
        let split = PseudoNegativeSplit::of(weights);
        let padded = input.pad_spatial(padding);
        let (kh, kw) = (weights.kernel_h(), weights.kernel_w());
        let full_h =
            padded
                .height()
                .checked_sub(kh)
                .map(|v| v + 1)
                .ok_or(FunctionalError::Shape(ConvError::KernelTooLarge {
                    input: (padded.height(), padded.width()),
                    kernel: (kh, kw),
                }))?;
        let full_w =
            padded
                .width()
                .checked_sub(kw)
                .map(|v| v + 1)
                .ok_or(FunctionalError::Shape(ConvError::KernelTooLarge {
                    input: (padded.height(), padded.width()),
                    kernel: (kh, kw),
                }))?;
        let out_h = (full_h - 1) / stride + 1;
        let out_w = (full_w - 1) / stride + 1;

        // The pass list and the row extraction are identical for every
        // output channel; hoist them out of the fan-out.
        let plan = tiled_passes(
            (padded.height(), padded.width()),
            (kh, kw),
            tile,
            mode,
            stride,
        )?;
        let channel_rows: Vec<Vec<Vec<f64>>> = (0..input.channels())
            .map(|i| padded.channel_rows(i).iter().map(|r| r.to_vec()).collect())
            .collect();
        // The route rule: passes share a readout unless a DAC or ADC
        // quantizes each one or a live fault model perturbs each one.
        let accumulated =
            jtc.supports_accumulation() && faults.is_none_or(FaultInjector::is_transparent);

        let channels: Vec<usize> = (0..weights.out_channels()).collect();
        let results: Vec<Result<(Vec<f64>, u64), FunctionalError>> =
            refocus_par::par_map(&channels, |&o| {
                // One span per output-channel worker: this is the unit the
                // row-tiling fan-out distributes over pool threads.
                let _chan = refocus_obs::span_with("conv2d.channel", || format!("oc={o}"));
                let halves: Vec<[Vec<Vec<f64>>; 2]> = (0..channel_rows.len())
                    .map(|i| [split.positive.kernel(o, i), split.negative.kernel(o, i)])
                    .collect();
                let (rows, local_passes) = if accumulated {
                    accumulated_channel(jtc, &plan, &channel_rows, &halves)
                } else {
                    let mut worker_faults = faults.map(|f| f.for_work_item(epoch, o as u64));
                    direct_channel(jtc, &plan, &channel_rows, &halves, worker_faults.as_mut())
                };
                // Stride subsampling.
                let mut flat = vec![0.0; out_h * out_w];
                for oy in 0..out_h {
                    for ox in 0..out_w {
                        flat[oy * out_w + ox] = rows[oy * stride][ox * stride];
                    }
                }
                // JTC→executor firewall: a poisoned optical pass must
                // surface as a typed error here, not as NaN folded into
                // downstream accumulations and geomeans.
                crate::guard::check_finite("jtc-output", &flat).map_err(|v| {
                    FunctionalError::NonFinite {
                        stage: v.stage,
                        index: v.index,
                    }
                })?;
                Ok((flat, local_passes))
            });

        let mut out = Tensor3::zeros(weights.out_channels(), out_h, out_w);
        let mut total_passes = 0u64;
        for (o, result) in results.into_iter().enumerate() {
            // First error in channel order — deterministic regardless of
            // which worker hit it first on the wall clock.
            let (flat, local_passes) = result?;
            total_passes += local_passes;
            refocus_obs::counter("conv2d.optical_passes", local_passes);
            for oy in 0..out_h {
                for ox in 0..out_w {
                    out.set(o, oy, ox, flat[oy * out_w + ox]);
                }
            }
        }
        Ok((out, total_passes))
    }

    /// Like [`OpticalExecutor::conv2d`], but models the feedback buffer's
    /// per-replay attenuation and the §4.1.1 hardware-aware compensation:
    /// each filter `o` sees inputs attenuated by `ρ^(o mod (R+1))` and its
    /// outputs are rescaled digitally. With exact arithmetic the result
    /// equals the unattenuated convolution.
    ///
    /// # Errors
    ///
    /// Same conditions as [`OpticalExecutor::conv2d`].
    pub fn conv2d_with_feedback_reuse(
        &self,
        input: &Tensor3,
        weights: &Tensor4,
        stride: usize,
        padding: usize,
        buffer: &FeedbackBuffer,
    ) -> Result<Tensor3, FunctionalError> {
        let rescale = buffer.weight_rescale_factors();
        let period = rescale.len();
        let out_channels = weights.out_channels();
        // One epoch per single-filter convolution — the same reservation
        // the serial per-filter conv2d calls would have made, so fault
        // streams agree between this path and a filter-at-a-time run.
        let first_epoch = self
            .faults
            .as_ref()
            .map_or(0, |f| f.borrow_mut().reserve_epochs(out_channels as u64));
        let snapshot: Option<FaultInjector> = self.faults.as_ref().map(|f| f.borrow().clone());
        let jtc = &self.jtc;
        let (tile, mode) = (self.tile, self.mode);

        let channels: Vec<usize> = (0..out_channels).collect();
        let results: Vec<Result<(Tensor3, u64), FunctionalError>> =
            refocus_par::par_map(&channels, |&o| {
                let iteration = o % period;
                // Replayed light: attenuated input relative to iteration 0.
                let attenuation =
                    buffer.power_at_iteration(iteration as u32) / buffer.power_at_iteration(0);
                let mut attenuated = input.clone();
                attenuated.map_inplace(|v| v * attenuation);
                // Single-filter weight tensor.
                let mut single = Tensor4::zeros(
                    1,
                    weights.in_channels(),
                    weights.kernel_h(),
                    weights.kernel_w(),
                );
                for i in 0..weights.in_channels() {
                    for ky in 0..weights.kernel_h() {
                        for kx in 0..weights.kernel_w() {
                            single.set(0, i, ky, kx, weights.get(o, i, ky, kx));
                        }
                    }
                }
                let (mut partial, local_passes) = Self::conv2d_core(
                    jtc,
                    tile,
                    mode,
                    &attenuated,
                    &single,
                    stride,
                    padding,
                    snapshot.as_ref(),
                    first_epoch + o as u64,
                )?;
                // Digital rescale: ρ^-iteration relative to iteration 0.
                let factor = rescale[iteration] / rescale[0];
                partial.map_inplace(|v| v * factor);
                Ok((partial, local_passes))
            });

        let mut out: Option<Tensor3> = None;
        let mut total_passes = 0u64;
        for (o, result) in results.into_iter().enumerate() {
            let (partial, local_passes) = result?;
            total_passes += local_passes;
            let result = out.get_or_insert_with(|| {
                Tensor3::zeros(out_channels, partial.height(), partial.width())
            });
            for y in 0..partial.height() {
                for x in 0..partial.width() {
                    result.set(o, y, x, partial.get(0, y, x));
                }
            }
        }
        self.passes.set(self.passes.get() + total_passes);
        Ok(out.expect("at least one output filter"))
    }
}

const VALID_OPERANDS: &str = "tiling guarantees non-negative, well-sized operands";

fn add_row(acc: &mut [f64], values: &[f64]) {
    for (a, v) in acc.iter_mut().zip(values) {
        *a += v;
    }
}

/// A pass's output seen as its valid window, which the pass list folds
/// straight into the output rows.
struct ValidWindow(JtcOutput);

impl AsRef<[f64]> for ValidWindow {
    fn as_ref(&self) -> &[f64] {
        self.0.valid()
    }
}

/// One output channel on the direct route: every pass through
/// [`Jtc::correlate_in`] (on one reused [`JtcScratch`]) or
/// [`Jtc::correlate_with_faults`], each half summed over input channels in
/// pass-list order, then recombined digitally as `positive − negative`.
/// Returns the stride-1 output rows and the passes.
fn direct_channel(
    jtc: &Jtc,
    plan: &TiledPasses,
    channel_rows: &[Vec<Vec<f64>>],
    halves: &[[Vec<Vec<f64>>; 2]],
    mut faults: Option<&mut FaultInjector>,
) -> (Vec<Vec<f64>>, u64) {
    let mut passes = 0u64;
    let mut pos = plan.zeros();
    let mut neg = plan.zeros();
    let mut scratch = JtcScratch::default();
    for (rows, halves) in channel_rows.iter().zip(halves) {
        for (half, acc) in halves.iter().zip([&mut pos, &mut neg]) {
            plan.run(
                rows,
                half,
                |s, k| {
                    passes += 1;
                    let out = match faults.as_deref_mut() {
                        Some(fi) => jtc.correlate_with_faults(s, k, fi),
                        None => jtc.correlate_in(s, k, &mut scratch),
                    }
                    .expect(VALID_OPERANDS);
                    ValidWindow(out)
                },
                |r, values| add_row(&mut acc[r], values),
            );
        }
    }
    for (p, n) in pos.iter_mut().zip(&neg) {
        for (p, n) in p.iter_mut().zip(n) {
            *p -= n;
        }
    }
    (pos, passes)
}

/// The passes that share one readout on the accumulated route: runs of
/// one output row and one plane geometry (signal and kernel lengths). A
/// row-partitioned row has one group per sub-pass size; a multi-row pass
/// is a group of its own. Groups follow the pass list's order.
fn readout_groups(plan: &TiledPasses) -> impl Iterator<Item = &[TiledPass]> {
    plan.passes.chunk_by(|a, b| {
        a.out_row == b.out_row
            && plan.signal_len(a) == plan.signal_len(b)
            && plan.kernel_len(a) == plan.kernel_len(b)
    })
}

/// A cached lens-1 spectrum, keyed by the tile's rows and the other
/// operand's length, which with the tile's own length fix the geometry.
type Cached = (Range<usize>, usize, Spectrum);

/// The index of the spectrum keyed `(rows, len)` in `cache`, built by
/// `build` and appended on a miss.
fn cached(
    cache: &mut Vec<Cached>,
    rows: &Range<usize>,
    len: usize,
    build: impl FnOnce() -> Spectrum,
) -> usize {
    match cache.iter().position(|(r, l, _)| r == rows && *l == len) {
        Some(at) => at,
        None => {
            cache.push((rows.clone(), len, build()));
            cache.len() - 1
        }
    }
}

/// One output channel on the accumulated route. For each readout group
/// the signed Fourier-plane intensities of all its passes — every input
/// channel, both pseudo-negative halves, every sub-pass — go into one
/// accumulator in a fixed order, then lens 2 and the readout run once
/// (one `jtc.correlate` span per group, covering the spectrum builds).
///
/// Each signal-tile spectrum is built once per input channel and serves
/// both halves and every group reading that tile; it is dropped once the
/// groups move past its rows (at most `2k` live per channel, `k` when one
/// row fits a pass). Each kernel spectrum is built once per (input
/// channel, half, kernel rows, geometry). Returns the stride-1 output rows
/// and the passes.
fn accumulated_channel(
    jtc: &Jtc,
    plan: &TiledPasses,
    channel_rows: &[Vec<Vec<f64>>],
    halves: &[[Vec<Vec<f64>>; 2]],
) -> (Vec<Vec<f64>>, u64) {
    let mut signals: Vec<Vec<Cached>> = vec![Vec::new(); channel_rows.len()];
    let mut kernels: Vec<[Vec<Cached>; 2]> = vec![Default::default(); channel_rows.len()];
    let mut acc = JtcScratch::default();
    let mut passes = 0u64;
    let mut out = plan.zeros();
    for group in readout_groups(plan) {
        let _readout = refocus_obs::span("jtc.correlate");
        let first = &group[0];
        for (i, rows) in channel_rows.iter().enumerate() {
            let signals = &mut signals[i];
            signals.retain(|(tile, _, _)| tile.start >= first.out_row);
            for pass in group {
                let (ls, lk) = (plan.signal_len(pass), plan.kernel_len(pass));
                let signal = cached(signals, &pass.signal_rows, lk, || {
                    jtc.signal_spectrum(&plan.signal(rows, pass), lk)
                        .expect(VALID_OPERANDS)
                });
                for ((half, cache), polarity) in halves[i]
                    .iter()
                    .zip(&mut kernels[i])
                    .zip([Polarity::Positive, Polarity::Negative])
                {
                    let kernel = cached(cache, &pass.kernel_rows, ls, || {
                        jtc.kernel_spectrum(&plan.kernel(half, pass), ls)
                            .expect(VALID_OPERANDS)
                    });
                    jtc.accumulate(&signals[signal].2, &cache[kernel].2, polarity, &mut acc)
                        .expect("the route rule admits only accumulating JTCs");
                    passes += 1;
                }
            }
        }
        let readout = jtc.read_accumulated(&mut acc);
        let valid = readout.valid();
        if first.partial {
            // One output row, summed over its sub-pass groups.
            add_row(&mut out[first.out_row], valid);
        } else {
            for r in 0..first.out_rows {
                let base = r * plan.row_len;
                out[first.out_row + r].copy_from_slice(&valid[base..base + plan.out_w]);
            }
        }
    }
    (out, passes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use refocus_nn::conv::conv2d;

    fn max_diff(a: &Tensor3, b: &Tensor3) -> f64 {
        a.data()
            .iter()
            .zip(b.data())
            .map(|(x, y)| (x - y).abs())
            .fold(0.0, f64::max)
    }

    #[test]
    fn ideal_optics_match_digital_conv() {
        let exec = OpticalExecutor::ideal();
        let input = Tensor3::random(3, 10, 10, 0.0, 1.0, 1);
        let weights = Tensor4::random(4, 3, 3, 3, -1.0, 1.0, 2);
        let optical = exec
            .conv2d(&input, &weights, 1, 1)
            .expect("optical conv runs");
        let digital = conv2d(&input, &weights, 1, 1).expect("digital reference runs");
        assert_eq!(optical.shape(), digital.shape());
        assert!(
            max_diff(&optical, &digital) < 1e-7,
            "diff = {}",
            max_diff(&optical, &digital)
        );
        assert!(exec.passes() > 0);
    }

    #[test]
    fn strided_optical_conv_matches() {
        let exec = OpticalExecutor::ideal();
        let input = Tensor3::random(2, 12, 12, 0.0, 1.0, 3);
        let weights = Tensor4::random(2, 2, 3, 3, -1.0, 1.0, 4);
        let optical = exec
            .conv2d(&input, &weights, 2, 1)
            .expect("strided conv runs");
        let digital = conv2d(&input, &weights, 2, 1).expect("digital reference runs");
        assert_eq!(optical.shape(), digital.shape());
        assert!(max_diff(&optical, &digital) < 1e-7);
    }

    #[test]
    fn quantized_optics_stay_close() {
        let exec = OpticalExecutor::quantized();
        let input = Tensor3::random(2, 8, 8, 0.0, 1.0, 5);
        let weights = Tensor4::random(2, 2, 3, 3, -1.0, 1.0, 6);
        let optical = exec
            .conv2d(&input, &weights, 1, 1)
            .expect("optical conv runs");
        let digital = conv2d(&input, &weights, 1, 1).expect("digital reference runs");
        let peak = digital.data().iter().fold(0.0f64, |m, v| m.max(v.abs()));
        // 8-bit converters on every pass: a few percent of peak.
        assert!(max_diff(&optical, &digital) < 0.12 * peak);
    }

    #[test]
    fn feedback_reuse_with_rescaling_matches() {
        let exec = OpticalExecutor::ideal();
        let input = Tensor3::random(2, 6, 6, 0.0, 1.0, 7);
        // 6 filters over an R=3 buffer: iterations 0..3 wrap.
        let weights = Tensor4::random(6, 2, 3, 3, -1.0, 1.0, 8);
        let buffer = FeedbackBuffer::with_optimal_split(
            3,
            4,
            refocus_photonics::units::GigaHertz::new(10.0),
        )
        .expect("R=3 split fits the buffer");
        let reused = exec
            .conv2d_with_feedback_reuse(&input, &weights, 1, 1, &buffer)
            .expect("feedback-reuse conv runs");
        let digital = conv2d(&input, &weights, 1, 1).expect("digital reference runs");
        assert!(
            max_diff(&reused, &digital) < 1e-7,
            "diff = {}",
            max_diff(&reused, &digital)
        );
    }

    #[test]
    fn negative_activations_rejected() {
        let exec = OpticalExecutor::ideal();
        let mut input = Tensor3::zeros(1, 4, 4);
        input.set(0, 0, 0, -0.5);
        let weights = Tensor4::random(1, 1, 3, 3, -1.0, 1.0, 9);
        assert_eq!(
            exec.conv2d(&input, &weights, 1, 1),
            Err(FunctionalError::NegativeActivation)
        );
    }

    #[test]
    fn shape_errors_propagate() {
        let exec = OpticalExecutor::ideal();
        let input = Tensor3::random(2, 4, 4, 0.0, 1.0, 10);
        let weights = Tensor4::random(1, 3, 3, 3, -1.0, 1.0, 11);
        assert!(matches!(
            exec.conv2d(&input, &weights, 1, 0),
            Err(FunctionalError::Shape(ConvError::ChannelMismatch { .. }))
        ));
        let huge = Tensor4::random(1, 2, 7, 7, -1.0, 1.0, 12);
        assert!(matches!(
            exec.conv2d(&input, &huge, 1, 0),
            Err(FunctionalError::Shape(ConvError::KernelTooLarge { .. }))
        ));
    }

    #[test]
    fn pass_count_scales_with_work() {
        let small = OpticalExecutor::ideal();
        let big = OpticalExecutor::ideal();
        let input = Tensor3::random(1, 8, 8, 0.0, 1.0, 13);
        let w1 = Tensor4::random(1, 1, 3, 3, -1.0, 1.0, 14);
        let w4 = Tensor4::random(4, 1, 3, 3, -1.0, 1.0, 15);
        small.conv2d(&input, &w1, 1, 0).expect("1-filter conv runs");
        big.conv2d(&input, &w4, 1, 0).expect("4-filter conv runs");
        assert_eq!(big.passes(), 4 * small.passes());
    }

    #[test]
    fn error_display() {
        let e = FunctionalError::NegativeActivation;
        assert!(e.to_string().contains("non-negative"));
    }

    #[test]
    fn diverging_noise_trips_the_jtc_output_guard() {
        use refocus_photonics::faults::{FaultInjector, FaultSpec};
        use refocus_photonics::noise::NoiseModel;
        // A pathological noise model overflows detected outputs to ±∞;
        // the firewall must surface that as a typed error instead of
        // letting infinities (or the NaNs born of ∞ − ∞ recombination)
        // reach the caller as output data.
        let noise = NoiseModel::new(9).with_relative_sigma(f64::MAX);
        let exec = OpticalExecutor::ideal()
            .with_faults(FaultInjector::new(FaultSpec::none(), 1).with_noise(noise));
        let input = Tensor3::random(1, 6, 6, 0.0, 1.0, 22);
        let weights = Tensor4::random(1, 1, 3, 3, -1.0, 1.0, 23);
        let err = exec
            .conv2d(&input, &weights, 1, 0)
            .expect_err("divergent optics must be caught");
        assert!(
            matches!(
                err,
                FunctionalError::NonFinite {
                    stage: "jtc-output",
                    ..
                }
            ),
            "got {err:?}"
        );
        assert!(err.to_string().contains("jtc-output"));
    }

    #[test]
    fn transparent_faults_leave_conv_bit_identical() {
        use refocus_photonics::faults::{FaultInjector, FaultSpec};
        let clean = OpticalExecutor::ideal();
        let faulted =
            OpticalExecutor::ideal().with_faults(FaultInjector::new(FaultSpec::none(), 1));
        let input = Tensor3::random(2, 8, 8, 0.0, 1.0, 16);
        let weights = Tensor4::random(2, 2, 3, 3, -1.0, 1.0, 17);
        let a = clean
            .conv2d(&input, &weights, 1, 1)
            .expect("optical conv runs");
        let b = faulted
            .conv2d(&input, &weights, 1, 1)
            .expect("optical conv runs");
        assert_eq!(a.data(), b.data());
    }

    /// Every element of `strided` against the stride-1 output `full` at
    /// the rows and columns the stride keeps, bit for bit.
    fn assert_subsampled(strided: &Tensor3, full: &Tensor3, stride: usize) {
        let (c, h, w) = strided.shape();
        for o in 0..c {
            for y in 0..h {
                for x in 0..w {
                    assert_eq!(
                        strided.get(o, y, x).to_bits(),
                        full.get(o, y * stride, x * stride).to_bits(),
                        "({o}, {y}, {x})"
                    );
                }
            }
        }
    }

    #[test]
    fn strided_partitioned_rows_are_the_stride_one_rows() {
        // The default 256-waveguide tile holds two exact 116-sample rows of
        // a 112-wide, padding-1 input: fewer than k = 3, so row-partitioned.
        let input = Tensor3::random(2, 16, 112, 0.0, 1.0, 30);
        let weights = Tensor4::random(2, 2, 3, 3, -1.0, 1.0, 31);
        let config = AcceleratorConfig::refocus_ff();
        let plan = refocus_nn::tiling::TilingPlan::plan(
            (16, 112),
            3,
            2,
            1,
            config.tile,
            TilingMode::Exact,
        )
        .expect("the shape tiles");
        assert!(plan.row_partitioned);
        for exec in [OpticalExecutor::ideal(), OpticalExecutor::quantized()] {
            let full = exec.conv2d(&input, &weights, 1, 1).expect("stride 1 runs");
            let before = exec.passes();
            let strided = exec.conv2d(&input, &weights, 2, 1).expect("stride 2 runs");
            assert_subsampled(&strided, &full, 2);
            // Only the kept rows run: the analytical plan's count, per
            // (input, output) channel pair and pseudo-negative half.
            assert_eq!(exec.passes() - before, (plan.passes * 2 * 2 * 2) as u64);
        }
    }

    /// The direct route by hand: every pass through `jtc.correlate` via
    /// `tiled_conv2d_with`, each half accumulated over input channels in
    /// the executor's order, then `positive − negative`.
    fn per_pass_reference(
        jtc: &Jtc,
        input: &Tensor3,
        weights: &Tensor4,
        padding: usize,
    ) -> Tensor3 {
        let tile = AcceleratorConfig::refocus_ff().tile;
        let split = PseudoNegativeSplit::of(weights);
        let padded = input.pad_spatial(padding);
        let mut out: Option<Tensor3> = None;
        for o in 0..weights.out_channels() {
            let mut halves: [Option<Vec<Vec<f64>>>; 2] = [None, None];
            for i in 0..input.channels() {
                let rows: Vec<Vec<f64>> =
                    padded.channel_rows(i).iter().map(|r| r.to_vec()).collect();
                for (acc, half) in halves
                    .iter_mut()
                    .zip([split.positive.kernel(o, i), split.negative.kernel(o, i)])
                {
                    let partial = refocus_nn::tiling::tiled_conv2d_with(
                        &rows,
                        &half,
                        tile,
                        TilingMode::Exact,
                        |s, k| {
                            jtc.correlate(s, k)
                                .expect("valid operands")
                                .valid()
                                .to_vec()
                        },
                    )
                    .expect("the shape tiles");
                    let acc =
                        acc.get_or_insert_with(|| vec![vec![0.0; partial[0].len()]; partial.len()]);
                    for (ar, pr) in acc.iter_mut().zip(&partial) {
                        add_row(ar, pr);
                    }
                }
            }
            let [Some(pos), Some(neg)] = halves else {
                panic!("at least one input channel")
            };
            let out = out.get_or_insert_with(|| {
                Tensor3::zeros(weights.out_channels(), pos.len(), pos[0].len())
            });
            for (y, (p, n)) in pos.iter().zip(&neg).enumerate() {
                for (x, (p, n)) in p.iter().zip(n).enumerate() {
                    out.set(o, y, x, p - n);
                }
            }
        }
        out.expect("at least one output channel")
    }

    #[test]
    fn spectral_route_matches_per_pass_correlation() {
        // Row-partitioned shapes (k = 3 in a 2-row and a 1-row sub-pass,
        // k = 11 in eleven 1-row sub-passes) and multi-row ones (the last
        // 30x10 pass is shorter, a geometry of its own), with and without
        // padding, over 1, 2 and 5 input channels, and a filter whose
        // weights are all <= 0, so every output is negative.
        for (c_in, h, w, k, padding, (lo, hi), seed) in [
            (2, 6, 112, 3, 0, (-1.0, 1.0), 40),
            (2, 6, 112, 3, 1, (-1.0, 1.0), 42),
            (2, 10, 10, 3, 0, (-1.0, 1.0), 44),
            (2, 10, 10, 3, 1, (-1.0, 1.0), 46),
            (2, 12, 120, 11, 0, (-1.0, 1.0), 48),
            (2, 30, 10, 3, 0, (-1.0, 1.0), 50),
            (1, 6, 112, 3, 1, (-1.0, 1.0), 52),
            (5, 10, 10, 3, 1, (-1.0, 1.0), 54),
            (5, 6, 112, 3, 1, (-1.0, 1.0), 56),
            (2, 6, 112, 3, 1, (-1.0, 0.0), 58),
            (2, 10, 10, 3, 1, (-1.0, 0.0), 60),
        ] {
            let input = Tensor3::random(c_in, h, w, 0.0, 1.0, seed);
            let weights = Tensor4::random(2, c_in, k, k, lo, hi, seed + 1);
            let optical = OpticalExecutor::ideal()
                .conv2d(&input, &weights, 1, padding)
                .expect("optical conv runs");
            let reference = per_pass_reference(&Jtc::ideal(), &input, &weights, padding);
            assert_eq!(optical.shape(), reference.shape());
            if hi <= 0.0 {
                assert!(reference.data().iter().all(|&v| v < 0.0));
            }
            let gap = max_diff(&optical, &reference) / reference.max_abs();
            assert!(
                gap < 1e-12,
                "{c_in}x{h}x{w} k{k} p{padding}: relative gap {gap}"
            );
        }
    }

    #[test]
    fn readout_groups_share_a_row_and_a_geometry() {
        let tile = AcceleratorConfig::refocus_ff().tile;
        let groups = |hw, k| {
            let plan = tiled_passes(hw, (k, k), tile, TilingMode::Exact, 1).expect("tiles");
            readout_groups(&plan)
                .map(|g| (g[0].out_row, g.len()))
                .collect::<Vec<_>>()
        };
        // 114-sample rows: a 2-row and a 1-row sub-pass per output row.
        assert_eq!(groups((4, 112), 3), [(0, 1), (0, 1), (1, 1), (1, 1)]);
        // 130-sample rows: eleven 1-row sub-passes of one geometry.
        assert_eq!(groups((12, 120), 11), [(0, 11), (1, 11)]);
        // 12-sample rows: 21-row passes, then a shorter last one.
        assert_eq!(groups((30, 10), 3), [(0, 1), (19, 1)]);
    }

    #[test]
    fn an_adc_takes_the_direct_route_bit_for_bit() {
        use refocus_photonics::components::Adc;
        let jtc = Jtc::ideal().with_adc(Some(Adc::new()));
        let exec = OpticalExecutor::new(&AcceleratorConfig::refocus_ff(), jtc.clone());
        for (h, w, padding, seed) in [(6, 112, 1, 70), (10, 10, 1, 72)] {
            let input = Tensor3::random(2, h, w, 0.0, 1.0, seed);
            let weights = Tensor4::random(2, 2, 3, 3, -1.0, 1.0, seed + 1);
            let optical = exec
                .conv2d(&input, &weights, 1, padding)
                .expect("optical conv runs");
            let reference = per_pass_reference(&jtc, &input, &weights, padding);
            let bits = |t: &Tensor3| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&optical), bits(&reference), "{h}x{w}");
        }
    }

    #[test]
    fn fault_severity_increases_conv_error() {
        use refocus_photonics::faults::{FaultInjector, FaultSpec};
        let input = Tensor3::random(2, 8, 8, 0.0, 1.0, 18);
        let weights = Tensor4::random(2, 2, 3, 3, -1.0, 1.0, 19);
        let reference = conv2d(&input, &weights, 1, 1).expect("digital reference runs");
        let base = FaultSpec::none().with_dead_pixel_rate(0.02);
        let mut prev = 0.0;
        for severity in [0.0, 1.0, 4.0] {
            let exec =
                OpticalExecutor::ideal().with_faults(FaultInjector::new(base.scaled(severity), 77));
            let out = exec
                .conv2d(&input, &weights, 1, 1)
                .expect("optical conv runs");
            let err = max_diff(&out, &reference);
            assert!(err >= prev, "severity {severity}: error {err} < {prev}");
            prev = err;
        }
        assert!(prev > 0.0, "highest severity produced no error");
    }

    #[test]
    fn reset_faults_replays_identical_realization() {
        use refocus_photonics::faults::{FaultInjector, FaultSpec};
        let exec = OpticalExecutor::ideal().with_faults(FaultInjector::new(
            FaultSpec::none().with_laser_drift(0.01, 0.1),
            5,
        ));
        let input = Tensor3::random(1, 6, 6, 0.0, 1.0, 20);
        let weights = Tensor4::random(1, 1, 3, 3, -1.0, 1.0, 21);
        let first = exec
            .conv2d(&input, &weights, 1, 0)
            .expect("unpadded conv runs");
        let unreset = exec
            .conv2d(&input, &weights, 1, 0)
            .expect("unpadded conv runs");
        // Drift walk continued: second run differs.
        assert_ne!(first.data(), unreset.data());
        exec.reset_faults();
        let replayed = exec
            .conv2d(&input, &weights, 1, 0)
            .expect("unpadded conv runs");
        assert_eq!(first.data(), replayed.data());
    }
}
