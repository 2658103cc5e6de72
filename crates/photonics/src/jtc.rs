//! Joint Transform Correlator (JTC) field simulation.
//!
//! A 1-D on-chip JTC (paper §2.1) computes the correlation of two signals
//! with five photonic stages:
//!
//! 1. a multi-channel input beam carrying the signal `s` displaced to
//!    `+x_s` and the kernel `k` displaced to `-x_k`,
//! 2. a first on-chip lens — Fourier transform,
//! 3. a square-law nonlinearity at the Fourier plane (`|·|²`),
//! 4. a second lens — Fourier transform back,
//! 5. photodetectors reading the output plane.
//!
//! The output plane (paper Eq. 1) contains the two cross-correlation terms
//! at `±(x_s + x_k)` plus a central non-convolution term `N(x)` that is
//! spatially filtered out. This module simulates the full field pipeline
//! with [`Complex64`] arrays and extracts the correlation term, optionally
//! passing inputs/outputs through the 8-bit DAC/ADC models so end-to-end
//! numerics include quantization.
//!
//! Lens 1 is linear, so without a DAC (which normalizes by the operands'
//! joint peak) a pass may also start at the Fourier plane: build each
//! operand's spectrum once with [`Jtc::signal_spectrum`] /
//! [`Jtc::kernel_spectrum`] and pair them with [`Jtc::correlate_spectra`],
//! which runs stages 3–5 through the same code as [`Jtc::correlate`].
//!
//! Everything after the square law is linear too, so without a DAC or an
//! ADC several passes of one plane geometry may share a readout:
//! [`Jtc::accumulate`] adds each pass's Fourier-plane intensity, signed
//! by its pseudo-negative [`Polarity`], into a [`JtcScratch`], and
//! [`Jtc::read_accumulated`] runs lens 2 and the readout once for the sum.
//! [`Jtc::correlate_spectra`] is the one-pass case.
//!
//! # Examples
//!
//! ```
//! use refocus_photonics::jtc::Jtc;
//!
//! let jtc = Jtc::ideal();
//! let signal = [0.1, 0.5, 0.9, 0.3, 0.7];
//! let kernel = [0.2, 0.6, 0.2];
//! let out = jtc.correlate(&signal, &kernel).unwrap();
//! // out.valid() is the CNN-style "valid convolution" (cross-correlation):
//! let want: Vec<f64> = (0..3)
//!     .map(|i| (0..3).map(|j| signal[i + j] * kernel[j]).sum())
//!     .collect();
//! for (a, b) in out.valid().iter().zip(&want) {
//!     assert!((a - b).abs() < 1e-9);
//! }
//! ```

use crate::complex::Complex64;
use crate::components::{Adc, Dac, NonlinearMaterial};
use crate::fft::{ifft, ifft_real_into, ifft_real_window, rfft_into};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::Range;

/// Errors produced when a JTC pass cannot be computed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JtcError {
    /// One of the inputs was empty.
    EmptyInput,
    /// An input value was negative — a JTC carries optical power, which is
    /// non-negative; negative weights must use pseudo-negative processing
    /// (see `refocus_nn::quant`).
    NegativeValue {
        /// Which input held the offending value.
        which: &'static str,
    },
    /// The configured plane is too small for the requested signal + kernel.
    PlaneTooSmall {
        /// Samples required to fit both inputs and keep terms separated.
        required: usize,
        /// Samples available on the configured plane.
        available: usize,
    },
    /// Separate operand spectra were asked of a JTC whose DAC encodes the
    /// inputs against their joint peak (see [`Jtc::supports_spectra`]).
    DacEncoded,
    /// Fourier-plane accumulation was asked of a JTC whose DAC or ADC
    /// quantizes each pass on its own (see [`Jtc::supports_accumulation`]).
    Quantized,
}

impl fmt::Display for JtcError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JtcError::EmptyInput => write!(f, "signal and kernel must be non-empty"),
            JtcError::NegativeValue { which } => {
                write!(
                    f,
                    "{which} contains a negative value; JTC inputs are optical powers"
                )
            }
            JtcError::PlaneTooSmall {
                required,
                available,
            } => write!(
                f,
                "JTC plane too small: needs {required} samples, has {available}"
            ),
            JtcError::DacEncoded => write!(
                f,
                "DAC-encoded inputs share one normalization; their spectra cannot be split"
            ),
            JtcError::Quantized => write!(
                f,
                "a DAC or ADC quantizes every pass; their intensities cannot share a readout"
            ),
        }
    }
}

impl std::error::Error for JtcError {}

/// Configuration and component stack of a single 1-D JTC.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Jtc {
    /// Fixed plane size, or `None` to auto-size per call (smallest
    /// power of two that keeps all output terms separated).
    plane_size: Option<usize>,
    nonlinearity: NonlinearMaterial,
    /// Input quantizer; `None` for ideal analog inputs.
    dac: Option<Dac>,
    /// Output quantizer; `None` for ideal analog readout.
    adc: Option<Adc>,
}

impl Jtc {
    /// An ideal JTC: no quantization, ideal square-law nonlinearity,
    /// auto-sized plane. The baseline for correctness tests.
    pub fn ideal() -> Self {
        Self {
            plane_size: None,
            nonlinearity: NonlinearMaterial::new(),
            dac: None,
            adc: None,
        }
    }

    /// A JTC with the paper's 8-bit converters on inputs and outputs.
    pub fn quantized() -> Self {
        Self {
            dac: Some(Dac::new()),
            adc: Some(Adc::new()),
            ..Self::ideal()
        }
    }

    /// Fixes the simulated plane size (number of spatial samples).
    ///
    /// # Panics
    ///
    /// Panics if `size` is zero.
    pub fn with_plane_size(mut self, size: usize) -> Self {
        assert!(size > 0, "plane size must be positive");
        self.plane_size = Some(size);
        self
    }

    /// Replaces the Fourier-plane nonlinearity.
    pub fn with_nonlinearity(mut self, nl: NonlinearMaterial) -> Self {
        self.nonlinearity = nl;
        self
    }

    /// Installs (or removes) the input DAC.
    pub fn with_dac(mut self, dac: Option<Dac>) -> Self {
        self.dac = dac;
        self
    }

    /// Installs (or removes) the output ADC.
    pub fn with_adc(mut self, adc: Option<Adc>) -> Self {
        self.adc = adc;
        self
    }

    /// Performs one optical pass, correlating `signal` with `kernel`.
    ///
    /// Both inputs must be non-negative (optical powers). The result's
    /// [`JtcOutput::full`] covers every lag of the cross-correlation;
    /// [`JtcOutput::valid`] is the CNN-style valid window.
    ///
    /// # Errors
    ///
    /// Returns [`JtcError`] if an input is empty or negative, or if a fixed
    /// plane size cannot hold the inputs with adequate term separation.
    pub fn correlate(&self, signal: &[f64], kernel: &[f64]) -> Result<JtcOutput, JtcError> {
        self.correlate_in(signal, kernel, &mut JtcScratch::default())
    }

    /// [`Jtc::correlate`] with the pass's plane buffers taken from
    /// `scratch`, so a run of passes allocates them once. Bit-identical
    /// to [`Jtc::correlate`]; passes accumulated in `scratch` are left
    /// as they are.
    ///
    /// # Errors
    ///
    /// As [`Jtc::correlate`].
    pub fn correlate_in(
        &self,
        signal: &[f64],
        kernel: &[f64],
        scratch: &mut JtcScratch,
    ) -> Result<JtcOutput, JtcError> {
        let _pass = refocus_obs::span("jtc.correlate");
        refocus_obs::counter("jtc.passes", 1);
        let geometry = self.geometry(signal, kernel)?;
        let JtcScratch {
            input,
            field,
            intensity,
            plane,
            ..
        } = scratch;

        // Stage 1: compose the joint input plane, quantizing through the DAC
        // if configured. DACs encode normalized values; normalize by the
        // joint maximum and rescale after readout.
        let peak = signal
            .iter()
            .chain(kernel.iter())
            .fold(0.0_f64, |m, &v| m.max(v));
        let scale = if peak > 0.0 { peak } else { 1.0 };
        {
            let _s = refocus_obs::span("jtc.compose");
            compose(
                signal,
                kernel,
                geometry.sep,
                geometry.n,
                input,
                |v| match &self.dac {
                    Some(dac) => dac.quantize(v / scale) * scale,
                    None => v,
                },
            );
        }
        lens1_into(input, field);
        self.square_law(field, intensity);
        Ok(self.read_plane(intensity, geometry, plane, true))
    }

    /// Whether passes may start from separately built spectra
    /// ([`Jtc::signal_spectrum`], [`Jtc::kernel_spectrum`],
    /// [`Jtc::correlate_spectra`]). Lens 1 is linear, so the joint spectrum
    /// is the sum of the two operands' spectra — unless a DAC encodes the
    /// inputs: it normalizes by the *joint* peak, which couples them.
    pub fn supports_spectra(&self) -> bool {
        self.dac.is_none()
    }

    /// Whether passes may share a readout ([`Jtc::accumulate`],
    /// [`Jtc::read_accumulated`]): on top of [`Jtc::supports_spectra`],
    /// no ADC, which quantizes each pass against its own full scale.
    pub fn supports_accumulation(&self) -> bool {
        self.supports_spectra() && self.adc.is_none()
    }

    /// The plane geometry of a pass correlating a `signal_len`-sample
    /// signal with a `kernel_len`-sample kernel: auto-sized, or the fixed
    /// [`Jtc::with_plane_size`] when it is large enough.
    ///
    /// # Errors
    ///
    /// [`JtcError::EmptyInput`] for a zero length,
    /// [`JtcError::PlaneTooSmall`] when a fixed plane cannot hold the pass.
    pub fn plane_geometry(
        &self,
        signal_len: usize,
        kernel_len: usize,
    ) -> Result<PlaneGeometry, JtcError> {
        if signal_len == 0 || kernel_len == 0 {
            return Err(JtcError::EmptyInput);
        }
        let (ls, lk) = (signal_len, kernel_len);
        // Separation between kernel origin and signal origin. With the
        // kernel at 0 and the signal at `sep`, the cross term sits at lags
        // `sep - (lk-1) ..= sep + (ls-1)` of the output autocorrelation,
        // while the central N(x) term spans `±(max(ls,lk)-1)`. Keeping them
        // disjoint requires sep >= max(ls,lk) + lk - 1; one extra guard
        // sample is added.
        let sep = ls.max(lk) + lk;
        // The autocorrelation is circular with period n; the +sep and -sep
        // terms must not wrap into each other.
        let required = 2 * (sep + ls.max(lk));
        let n = match self.plane_size {
            Some(size) if size < required => {
                return Err(JtcError::PlaneTooSmall {
                    required,
                    available: size,
                })
            }
            Some(size) => size,
            None => required.next_power_of_two(),
        };
        Ok(PlaneGeometry {
            signal_len,
            kernel_len,
            sep,
            n,
        })
    }

    /// Lens 1 applied to `signal` alone, placed at the separation a pass
    /// with a `kernel_len`-sample kernel puts it. Build it once and pair it
    /// with every kernel spectrum of the same geometry.
    ///
    /// # Errors
    ///
    /// The checks of [`Jtc::correlate`] on the signal and the geometry,
    /// and [`JtcError::DacEncoded`] when [`Jtc::supports_spectra`] is false.
    pub fn signal_spectrum(&self, signal: &[f64], kernel_len: usize) -> Result<Spectrum, JtcError> {
        let geometry = self.plane_geometry(signal.len(), kernel_len)?;
        self.spectrum(signal, "signal", geometry, geometry.sep)
    }

    /// Lens 1 applied to `kernel` alone, at the plane origin, for a pass
    /// with a `signal_len`-sample signal.
    ///
    /// # Errors
    ///
    /// As [`Jtc::signal_spectrum`], for the kernel.
    pub fn kernel_spectrum(&self, kernel: &[f64], signal_len: usize) -> Result<Spectrum, JtcError> {
        let geometry = self.plane_geometry(signal_len, kernel.len())?;
        self.spectrum(kernel, "kernel", geometry, 0)
    }

    /// Stage 1–2 for one operand: `values` at `origin` on an otherwise
    /// dark plane, through lens 1, keeping the `n/2 + 1` non-redundant
    /// bins of the real field's Hermitian spectrum.
    fn spectrum(
        &self,
        values: &[f64],
        which: &'static str,
        geometry: PlaneGeometry,
        origin: usize,
    ) -> Result<Spectrum, JtcError> {
        if !self.supports_spectra() {
            return Err(JtcError::DacEncoded);
        }
        if values.iter().any(|&v| v < 0.0) {
            return Err(JtcError::NegativeValue { which });
        }
        let mut plane = vec![0.0_f64; geometry.n];
        plane[origin..origin + values.len()].copy_from_slice(values);
        let mut bins = lens1(&plane);
        bins.truncate(geometry.n / 2 + 1);
        bins.shrink_to_fit();
        Ok(Spectrum {
            bins,
            geometry,
            origin,
        })
    }

    /// One optical pass from lens-1 spectra: the joint Fourier-plane field
    /// is the sum of the two, then the square law, lens 2, readout and ADC
    /// run exactly as in [`Jtc::correlate`]. Agrees with `correlate` on the
    /// same operands to rounding (the plane's transform is split in two).
    /// This is [`Jtc::accumulate`] of one pass followed by its readout,
    /// which for a single pass clamps at zero and applies the ADC.
    ///
    /// # Panics
    ///
    /// Panics unless `signal` came from [`Jtc::signal_spectrum`] and
    /// `kernel` from [`Jtc::kernel_spectrum`] with the same geometry, or
    /// if `scratch` holds accumulated passes not yet read out.
    pub fn correlate_spectra(
        &self,
        signal: &Spectrum,
        kernel: &Spectrum,
        scratch: &mut JtcScratch,
    ) -> JtcOutput {
        assert!(
            scratch.geometry.is_none(),
            "correlate_spectra on an accumulator holding unread passes"
        );
        let _pass = refocus_obs::span("jtc.correlate");
        self.add_pass(signal, kernel, Polarity::Positive, scratch);
        self.read(scratch, true)
    }

    /// Adds one pass's Fourier-plane intensity `|S + K|²` into `acc`,
    /// with the sign of `polarity`, without reading it out. Passes added
    /// since the last [`Jtc::read_accumulated`] must share one plane
    /// geometry; their readout is the signed sum of their correlations.
    /// Counts one `jtc.passes`.
    ///
    /// # Errors
    ///
    /// [`JtcError::Quantized`] when [`Jtc::supports_accumulation`] is
    /// false: a DAC or ADC quantizes each pass separately.
    ///
    /// # Panics
    ///
    /// As [`Jtc::correlate_spectra`], and if the pass's geometry differs
    /// from that of the passes already in `acc`.
    pub fn accumulate(
        &self,
        signal: &Spectrum,
        kernel: &Spectrum,
        polarity: Polarity,
        acc: &mut JtcScratch,
    ) -> Result<(), JtcError> {
        if !self.supports_accumulation() {
            return Err(JtcError::Quantized);
        }
        self.add_pass(signal, kernel, polarity, acc);
        Ok(())
    }

    /// Lens 2 and the readout of every pass accumulated in `acc`, once:
    /// the signed sum of their cross terms, not clamped at zero (a
    /// pseudo-negative difference may be negative). Empties `acc`.
    ///
    /// # Panics
    ///
    /// Panics if no pass was accumulated since the last readout.
    pub fn read_accumulated(&self, acc: &mut JtcScratch) -> JtcOutput {
        self.read(acc, false)
    }

    /// Stage 3 from two lens-1 spectra: the square law of their sum, added
    /// into or subtracted from `acc` bin by bin.
    fn add_pass(
        &self,
        signal: &Spectrum,
        kernel: &Spectrum,
        polarity: Polarity,
        acc: &mut JtcScratch,
    ) {
        let geometry = signal.geometry;
        assert_eq!(geometry, kernel.geometry, "spectra of different passes");
        assert!(
            signal.origin == geometry.sep && kernel.origin == 0,
            "passes take (signal, kernel) spectra"
        );
        refocus_obs::counter("jtc.passes", 1);
        match acc.geometry {
            Some(held) => assert_eq!(
                held, geometry,
                "passes of different geometries share a readout"
            ),
            None => {
                acc.geometry = Some(geometry);
                acc.sum.clear();
                acc.sum.resize(signal.bins.len(), 0.0);
            }
        }
        // The joint field is the sum of the two spectra; its intensity is
        // real and, like the field, needs only the non-redundant bins.
        let _s = refocus_obs::span("jtc.square_law");
        let intensity = signal
            .bins
            .iter()
            .zip(&kernel.bins)
            .map(|(s, k)| self.nonlinearity.apply_point(*s + *k).re);
        match polarity {
            Polarity::Positive => acc.sum.iter_mut().zip(intensity).for_each(|(a, v)| *a += v),
            Polarity::Negative => acc.sum.iter_mut().zip(intensity).for_each(|(a, v)| *a -= v),
        }
    }

    /// Stages 4–5 for the passes in `acc`: mirrors the non-redundant bins
    /// into the whole (real, even) intensity plane and reads it out.
    fn read(&self, acc: &mut JtcScratch, single_pass: bool) -> JtcOutput {
        let geometry = acc
            .geometry
            .take()
            .expect("a readout needs at least one accumulated pass");
        let n = geometry.n;
        let JtcScratch {
            sum,
            intensity,
            plane,
            ..
        } = acc;
        intensity.clear();
        intensity.extend_from_slice(sum);
        for k in sum.len()..n {
            intensity.push(intensity[n - k]);
        }
        self.read_plane(intensity, geometry, plane, single_pass)
    }

    /// Checks the inputs and returns the plane geometry.
    fn geometry(&self, signal: &[f64], kernel: &[f64]) -> Result<PlaneGeometry, JtcError> {
        if signal.is_empty() || kernel.is_empty() {
            return Err(JtcError::EmptyInput);
        }
        if signal.iter().any(|&v| v < 0.0) {
            return Err(JtcError::NegativeValue { which: "signal" });
        }
        if kernel.iter().any(|&v| v < 0.0) {
            return Err(JtcError::NegativeValue { which: "kernel" });
        }
        self.plane_geometry(signal.len(), kernel.len())
    }

    /// Stage 3 on a whole Fourier-plane field: the nonlinearity's output
    /// intensity, in one pass over the field. The output is real
    /// (`NonlinearMaterial::apply_point` discards phase), which makes the
    /// second lens real-input too.
    fn square_law(&self, field: &[Complex64], intensity: &mut Vec<f64>) {
        let _s = refocus_obs::span("jtc.square_law");
        intensity.clear();
        intensity.extend(field.iter().map(|&v| self.nonlinearity.apply_point(v).re));
    }

    /// Stages 4–5, the one tail every readout runs: lens 2 on a
    /// Fourier-plane intensity, computing only the photodetectors' window
    /// of the output plane (the cross term at `+sep`), then the readout of
    /// that window. A single pass is an optical power, so its readout
    /// clamps at zero and goes through the ADC if any; an accumulated
    /// signed sum is read as it is. Counts one `jtc.readouts`.
    fn read_plane(
        &self,
        intensity: &[f64],
        geometry: PlaneGeometry,
        plane: &mut Vec<Complex64>,
        single_pass: bool,
    ) -> JtcOutput {
        let PlaneGeometry {
            signal_len: ls,
            kernel_len: lk,
            sep,
            n,
        } = geometry;
        // The cross term's lags `-(lk-1) ..= ls-1` around `sep` never wrap:
        // the geometry keeps `sep > lk - 1` and `sep + ls <= n`.
        let mut full = Vec::with_capacity(ls + lk - 1);
        lens2_window(intensity, sep + 1 - lk..sep + ls, &mut full, plane);

        let _s = refocus_obs::span("jtc.readout");
        refocus_obs::counter("jtc.readouts", 1);
        // One pass of non-negative inputs has a real, non-negative cross
        // term, which detection reads clamped at zero; an accumulated
        // pseudo-negative sum is signed and read as it is.
        if single_pass {
            for v in full.iter_mut() {
                *v = v.max(0.0);
            }
        }

        // ADC quantization against the observed full-scale.
        if let (true, Some(adc)) = (single_pass, &self.adc) {
            let fs = full.iter().fold(0.0_f64, |m, &v| m.max(v));
            if fs > 0.0 {
                for v in full.iter_mut() {
                    *v = adc.reconstruct(adc.sample(*v, fs), fs);
                }
            }
        }

        JtcOutput {
            full,
            kernel_len: lk,
            signal_len: ls,
            plane_size: n,
        }
    }

    /// Performs one optical pass under a device-fault model.
    ///
    /// Applies, in physical order: stuck MRR weight-bank taps to the
    /// kernel, the laser power drift factor for this pass to both
    /// correlands (the bilinear output therefore moves by the factor
    /// squared), the regular optical pipeline, dead-photodetector-pixel
    /// masking of the detected lags, and finally the injector's
    /// composed analog [`NoiseModel`](crate::noise::NoiseModel) if any.
    /// With a transparent injector this is exactly [`Jtc::correlate`].
    ///
    /// # Errors
    ///
    /// Same conditions as [`Jtc::correlate`].
    pub fn correlate_with_faults(
        &self,
        signal: &[f64],
        kernel: &[f64],
        injector: &mut crate::faults::FaultInjector,
    ) -> Result<JtcOutput, JtcError> {
        if injector.is_transparent() {
            return self.correlate(signal, kernel);
        }
        let mut kernel = kernel.to_vec();
        injector.corrupt_kernel(&mut kernel);
        let drift = injector.laser_drift_step();
        let signal: Vec<f64> = signal.iter().map(|v| v * drift).collect();
        for tap in kernel.iter_mut() {
            *tap *= drift;
        }
        let mut out = self.correlate(&signal, &kernel)?;
        injector.mask_dead_pixels(&mut out.full);
        injector.apply_noise(&mut out.full);
        Ok(out)
    }

    /// Returns the detected intensity over the **entire** output plane —
    /// central `N(x)` term, both cross terms, and the guard gaps — for
    /// inspection/visualization of the JTC's term geometry (Eq. 1). Also
    /// returns the separation offset at which the `+` cross term is
    /// centred.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Jtc::correlate`].
    pub fn output_plane(
        &self,
        signal: &[f64],
        kernel: &[f64],
    ) -> Result<(Vec<f64>, usize), JtcError> {
        let PlaneGeometry { sep, n, .. } = self.geometry(signal, kernel)?;
        let mut input_plane = Vec::new();
        compose(signal, kernel, sep, n, &mut input_plane, |v| v);
        let field = lens1(&input_plane);
        let (mut intensity, mut plane) = (Vec::new(), Vec::new());
        self.square_law(&field, &mut intensity);
        lens2(&intensity, &mut plane);
        Ok((plane.into_iter().map(|v| v.re.max(0.0)).collect(), sep))
    }

    /// Runs the same pipeline but **without** the Fourier-plane
    /// nonlinearity, demonstrating that the nonlinearity is what creates the
    /// convolution (§2.1): lens → lens alone reproduces the input plane.
    ///
    /// Returns the output-plane field magnitudes at the positions where the
    /// original signal was placed.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Jtc::correlate`].
    pub fn pass_without_nonlinearity(
        &self,
        signal: &[f64],
        kernel: &[f64],
    ) -> Result<Vec<f64>, JtcError> {
        let PlaneGeometry { sep, n, .. } = self.geometry(signal, kernel)?;
        let mut input_plane = Vec::new();
        compose(signal, kernel, sep, n, &mut input_plane, |v| v);
        let mut plane = lens1(&input_plane);
        ifft(&mut plane);
        Ok(plane[sep..sep + signal.len()]
            .iter()
            .map(|v| v.norm())
            .collect())
    }
}

/// Stage 2: the first lens. The input plane carries optical power — a
/// real field — so the half-length real-input transform applies.
fn lens1(input_plane: &[f64]) -> Vec<Complex64> {
    let mut field = Vec::new();
    lens1_into(input_plane, &mut field);
    field
}

/// [`lens1`] into a reused buffer.
fn lens1_into(input_plane: &[f64], field: &mut Vec<Complex64>) {
    let _s = refocus_obs::span("jtc.lens1.fft");
    field.resize(input_plane.len(), Complex64::ZERO);
    rfft_into(input_plane, field);
}

/// Stage 4: the second lens, from a Fourier-plane intensity into `plane`.
/// The inverse orientation recovers the autocorrelation theorem
/// directly: IFFT(|FFT(f)|^2) = autocorr(f).
fn lens2(intensity: &[f64], plane: &mut Vec<Complex64>) {
    let _s = refocus_obs::span("jtc.lens2.ifft");
    plane.resize(intensity.len(), Complex64::ZERO);
    ifft_real_into(intensity, plane);
}

/// Stage 4 where only the photodetectors' `window` of the output plane is
/// read: the real parts of [`lens2`]'s plane over `window`, bit for bit,
/// into `out`, without unpacking the rest (`buf` is the transform's
/// scratch).
fn lens2_window(
    intensity: &[f64],
    window: Range<usize>,
    out: &mut Vec<f64>,
    buf: &mut Vec<Complex64>,
) {
    let _s = refocus_obs::span("jtc.lens2.ifft");
    ifft_real_window(intensity, window, out, buf);
}

/// Stage 1: the joint input plane of `n` samples into `input_plane`,
/// kernel at the origin and signal at `sep`, each value passed through
/// `encode`.
fn compose(
    signal: &[f64],
    kernel: &[f64],
    sep: usize,
    n: usize,
    input_plane: &mut Vec<f64>,
    encode: impl Fn(f64) -> f64,
) {
    input_plane.clear();
    input_plane.resize(n, 0.0);
    for (p, &v) in input_plane.iter_mut().zip(kernel) {
        *p = encode(v);
    }
    for (p, &v) in input_plane[sep..].iter_mut().zip(signal) {
        *p = encode(v);
    }
}

/// Where a pass's operands sit on the JTC plane.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlaneGeometry {
    /// Signal samples.
    pub signal_len: usize,
    /// Kernel samples.
    pub kernel_len: usize,
    /// Offset of the signal from the kernel, which sits at the origin.
    pub sep: usize,
    /// Plane size in samples.
    pub n: usize,
}

/// One operand's field after lens 1 ([`Jtc::signal_spectrum`],
/// [`Jtc::kernel_spectrum`]): the `n/2 + 1` non-redundant bins.
#[derive(Debug, Clone, PartialEq)]
pub struct Spectrum {
    bins: Vec<Complex64>,
    geometry: PlaneGeometry,
    /// Plane offset of the operand: 0 for a kernel, `sep` for a signal.
    origin: usize,
}

/// The Fourier-plane accumulator of [`Jtc::accumulate`] and
/// [`Jtc::correlate_spectra`], with the plane buffers of a pass and of
/// lens 2, so a run of passes ([`Jtc::correlate_in`]) or readouts
/// allocates them once. Between readouts it holds the signed intensity
/// sum of the passes accumulated so far.
#[derive(Debug, Clone, Default)]
pub struct JtcScratch {
    /// Geometry of the accumulated passes; `None` when there are none.
    geometry: Option<PlaneGeometry>,
    /// Their signed square-law intensities, `n/2 + 1` non-redundant bins.
    sum: Vec<f64>,
    /// A direct pass's joint input plane ([`Jtc::correlate_in`]).
    input: Vec<f64>,
    /// Its Fourier-plane field after lens 1.
    field: Vec<Complex64>,
    /// The whole intensity plane lens 2 reads.
    intensity: Vec<f64>,
    /// Lens 2's transform buffer.
    plane: Vec<Complex64>,
}

/// The pseudo-negative half a pass computes: its intensity is added to
/// ([`Polarity::Positive`]) or subtracted from an accumulated readout.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Polarity {
    /// The non-negative weights' half.
    Positive,
    /// The half holding the magnitudes of the negative weights.
    Negative,
}

/// The detected output of one JTC pass.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JtcOutput {
    full: Vec<f64>,
    kernel_len: usize,
    signal_len: usize,
    plane_size: usize,
}

impl JtcOutput {
    /// The full cross-correlation, lags `-(K-1) ..= S-1` (length `S+K-1`).
    pub fn full(&self) -> &[f64] {
        &self.full
    }

    /// The "valid" window — lags `0 ..= S-K` — which is exactly a CNN's
    /// valid cross-correlation of the signal with the kernel.
    ///
    /// The lags outside this window are the circular-padding artifacts the
    /// paper discards as invalid output rows (§2.2).
    pub fn valid(&self) -> &[f64] {
        let start = self.kernel_len - 1;
        let len = self.signal_len - self.kernel_len + 1;
        &self.full[start..start + len]
    }

    /// Number of spatial samples the simulated plane used.
    pub fn plane_size(&self) -> usize {
        self.plane_size
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::signal::{correlate, correlate_valid, max_abs_diff};

    fn pseudo_random(n: usize, seed: u64) -> Vec<f64> {
        // Simple deterministic LCG in [0, 1); no RNG dependency needed here.
        let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        (0..n)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (state >> 11) as f64 / (1u64 << 53) as f64
            })
            .collect()
    }

    #[test]
    fn ideal_jtc_matches_direct_correlation() {
        let jtc = Jtc::ideal();
        for (ls, lk, seed) in [(8usize, 3usize, 1u64), (16, 5, 2), (33, 7, 3), (64, 25, 4)] {
            let s = pseudo_random(ls, seed);
            let k = pseudo_random(lk, seed + 100);
            let out = jtc.correlate(&s, &k).unwrap();
            let want = correlate(&s, &k);
            assert_eq!(out.full().len(), want.len());
            assert!(
                max_abs_diff(out.full(), &want) < 1e-8,
                "ls={ls} lk={lk}: diff {}",
                max_abs_diff(out.full(), &want)
            );
        }
    }

    #[test]
    fn valid_window_matches_cnn_convolution() {
        let jtc = Jtc::ideal();
        let s = pseudo_random(20, 7);
        let k = pseudo_random(3, 8);
        let out = jtc.correlate(&s, &k).unwrap();
        let want = correlate_valid(&s, &k);
        assert_eq!(out.valid().len(), want.len());
        assert!(max_abs_diff(out.valid(), &want) < 1e-9);
    }

    #[test]
    fn without_nonlinearity_output_equals_input() {
        // §2.1: "the output would be identical to the input without it".
        let jtc = Jtc::ideal();
        let s = pseudo_random(12, 5);
        let k = pseudo_random(4, 6);
        let through = jtc.pass_without_nonlinearity(&s, &k).unwrap();
        assert!(max_abs_diff(&through, &s) < 1e-9);
    }

    #[test]
    fn quantized_jtc_within_lsb_error() {
        let jtc = Jtc::quantized();
        let s = pseudo_random(16, 11);
        let k = pseudo_random(3, 12);
        let out = jtc.correlate(&s, &k).unwrap();
        let want = correlate(&s, &k);
        let peak = want.iter().fold(0.0_f64, |m, &v| m.max(v));
        // 8-bit DAC on both inputs plus 8-bit ADC: error stays within a few
        // percent of full scale.
        let err = max_abs_diff(out.full(), &want);
        assert!(err < 0.05 * peak, "err = {err}, peak = {peak}");
    }

    #[test]
    fn rejects_negative_inputs() {
        let jtc = Jtc::ideal();
        assert_eq!(
            jtc.correlate(&[1.0, -0.5], &[1.0]),
            Err(JtcError::NegativeValue { which: "signal" })
        );
        assert_eq!(
            jtc.correlate(&[1.0], &[-1.0]),
            Err(JtcError::NegativeValue { which: "kernel" })
        );
    }

    #[test]
    fn rejects_empty_inputs() {
        let jtc = Jtc::ideal();
        assert_eq!(jtc.correlate(&[], &[1.0]), Err(JtcError::EmptyInput));
        assert_eq!(jtc.correlate(&[1.0], &[]), Err(JtcError::EmptyInput));
    }

    #[test]
    fn fixed_plane_too_small_is_reported() {
        let jtc = Jtc::ideal().with_plane_size(16);
        let s = pseudo_random(8, 1);
        let k = pseudo_random(3, 2);
        match jtc.correlate(&s, &k) {
            Err(JtcError::PlaneTooSmall {
                required,
                available,
            }) => {
                assert_eq!(available, 16);
                assert!(required > 16);
            }
            other => panic!("expected PlaneTooSmall, got {other:?}"),
        }
    }

    #[test]
    fn fixed_plane_large_enough_works() {
        let s = pseudo_random(8, 1);
        let k = pseudo_random(3, 2);
        let jtc = Jtc::ideal().with_plane_size(64);
        let out = jtc.correlate(&s, &k).unwrap();
        assert_eq!(out.plane_size(), 64);
        assert!(max_abs_diff(out.full(), &correlate(&s, &k)) < 1e-9);
    }

    #[test]
    fn kernel_longer_than_signal_still_works() {
        let jtc = Jtc::ideal();
        let s = pseudo_random(3, 9);
        let k = pseudo_random(8, 10);
        let out = jtc.correlate(&s, &k).unwrap();
        let want = correlate(&s, &k);
        assert!(max_abs_diff(out.full(), &want) < 1e-9);
    }

    #[test]
    fn delta_kernel_is_identity() {
        let jtc = Jtc::ideal();
        let s = pseudo_random(10, 21);
        let out = jtc.correlate(&s, &[1.0]).unwrap();
        assert!(max_abs_diff(out.valid(), &s) < 1e-9);
    }

    #[test]
    fn output_scales_quadratically_with_input_scale() {
        // Both correlands scale together => output scales as the product.
        let jtc = Jtc::ideal();
        let s = pseudo_random(10, 31);
        let k = pseudo_random(3, 32);
        let s2: Vec<f64> = s.iter().map(|v| v * 2.0).collect();
        let k2: Vec<f64> = k.iter().map(|v| v * 2.0).collect();
        let a = jtc.correlate(&s, &k).unwrap();
        let b = jtc.correlate(&s2, &k2).unwrap();
        for (x, y) in a.full().iter().zip(b.full()) {
            assert!((y - 4.0 * x).abs() < 1e-8);
        }
    }

    #[test]
    fn transparent_injector_reproduces_correlate() {
        use crate::faults::{FaultInjector, FaultSpec};
        let jtc = Jtc::ideal();
        let s = pseudo_random(16, 41);
        let k = pseudo_random(3, 42);
        let mut inj = FaultInjector::new(FaultSpec::none(), 1);
        let clean = jtc.correlate(&s, &k).unwrap();
        let faulted = jtc.correlate_with_faults(&s, &k, &mut inj).unwrap();
        assert_eq!(clean, faulted);
        assert_eq!(inj.passes(), 0, "transparent path must not consume state");
    }

    #[test]
    fn dead_pixels_zero_detected_lags() {
        use crate::faults::{FaultInjector, FaultSpec};
        let jtc = Jtc::ideal();
        let s = pseudo_random(16, 43);
        let k = pseudo_random(3, 44);
        let mut inj = FaultInjector::new(FaultSpec::none().with_dead_pixel_rate(0.3), 5);
        let clean = jtc.correlate(&s, &k).unwrap();
        let faulted = jtc.correlate_with_faults(&s, &k, &mut inj).unwrap();
        let mut dead = 0;
        for (i, (f, c)) in faulted.full().iter().zip(clean.full()).enumerate() {
            if inj.pixel_is_dead(i) {
                assert_eq!(*f, 0.0);
                dead += 1;
            } else {
                assert!((f - c).abs() < 1e-12);
            }
        }
        assert!(dead > 0, "seed killed no pixels at rate 0.3");
    }

    #[test]
    fn laser_drift_scales_output_quadratically() {
        use crate::faults::{FaultInjector, FaultSpec};
        let jtc = Jtc::ideal();
        let s = pseudo_random(12, 45);
        let k = pseudo_random(3, 46);
        // Single pass: the drift walk takes exactly one step.
        let mut inj = FaultInjector::new(FaultSpec::none().with_laser_drift(0.05, 0.2), 7);
        let faulted = jtc.correlate_with_faults(&s, &k, &mut inj).unwrap();
        let mut probe = FaultInjector::new(FaultSpec::none().with_laser_drift(0.05, 0.2), 7);
        let d = probe.laser_drift_step();
        let clean = jtc.correlate(&s, &k).unwrap();
        for (f, c) in faulted.full().iter().zip(clean.full()) {
            assert!((f - c * d * d).abs() < 1e-9, "expected d² scaling");
        }
    }

    #[test]
    fn faulted_correlate_is_deterministic_per_seed() {
        use crate::faults::{FaultInjector, FaultSpec};
        let jtc = Jtc::ideal();
        let s = pseudo_random(16, 47);
        let k = pseudo_random(4, 48);
        let spec = FaultSpec::none()
            .with_stuck_weights(0.3, 0.5)
            .with_dead_pixel_rate(0.1)
            .with_laser_drift(0.01, 0.1);
        let mut a = FaultInjector::new(spec, 99);
        let mut b = FaultInjector::new(spec, 99);
        let out_a = jtc.correlate_with_faults(&s, &k, &mut a).unwrap();
        let out_b = jtc.correlate_with_faults(&s, &k, &mut b).unwrap();
        assert_eq!(out_a, out_b);
    }

    #[test]
    fn output_plane_honours_a_fixed_plane_size() {
        let s = pseudo_random(8, 1);
        let k = pseudo_random(3, 2);
        // Auto-sizing would pick 64 samples; the fixed 48 must be used.
        let (plane, sep) = Jtc::ideal()
            .with_plane_size(48)
            .output_plane(&s, &k)
            .unwrap();
        assert_eq!(plane.len(), 48);
        let out = Jtc::ideal().with_plane_size(48).correlate(&s, &k).unwrap();
        assert!(max_abs_diff(&plane[sep - 2..=sep + 7], out.full()) < 1e-12);
        assert!(matches!(
            Jtc::ideal().with_plane_size(16).output_plane(&s, &k),
            Err(JtcError::PlaneTooSmall { available: 16, .. })
        ));
    }

    #[test]
    fn pass_without_nonlinearity_checks_inputs_like_correlate() {
        let jtc = Jtc::ideal();
        assert_eq!(
            jtc.pass_without_nonlinearity(&[1.0, -0.5], &[1.0]),
            Err(JtcError::NegativeValue { which: "signal" })
        );
        assert_eq!(
            jtc.pass_without_nonlinearity(&[1.0], &[-1.0]),
            Err(JtcError::NegativeValue { which: "kernel" })
        );
        // Same plane geometry as `correlate`: a kernel longer than the
        // signal needs 2·(max(ls,lk)+lk+max(ls,lk)) = 48 samples here.
        let s = pseudo_random(3, 9);
        let k = pseudo_random(8, 10);
        assert_eq!(
            jtc.clone()
                .with_plane_size(40)
                .pass_without_nonlinearity(&s, &k),
            Err(JtcError::PlaneTooSmall {
                required: 48,
                available: 40
            })
        );
        let through = jtc
            .with_plane_size(48)
            .pass_without_nonlinearity(&s, &k)
            .unwrap();
        assert!(max_abs_diff(&through, &s) < 1e-9);
    }

    /// `correlate_spectra` against `correlate` on the same operands, as a
    /// share of the output peak.
    fn spectral_gap(jtc: &Jtc, s: &[f64], k: &[f64]) -> f64 {
        let direct = jtc.correlate(s, k).unwrap();
        let sig = jtc.signal_spectrum(s, k.len()).unwrap();
        let ker = jtc.kernel_spectrum(k, s.len()).unwrap();
        let split = jtc.correlate_spectra(&sig, &ker, &mut JtcScratch::default());
        assert_eq!(split.full().len(), direct.full().len());
        assert_eq!(split.plane_size(), direct.plane_size());
        let peak = direct.full().iter().fold(0.0_f64, |m, &v| m.max(v));
        max_abs_diff(split.full(), direct.full()) / peak
    }

    #[test]
    fn spectra_reproduce_correlate() {
        let ideal = Jtc::ideal();
        // Includes a kernel longer than the signal.
        for (ls, lk, seed) in [(8usize, 3usize, 1u64), (33, 7, 3), (64, 25, 4), (3, 8, 5)] {
            let s = pseudo_random(ls, seed);
            let k = pseudo_random(lk, seed + 100);
            let gap = spectral_gap(&ideal, &s, &k);
            assert!(gap < 1e-12, "ls={ls} lk={lk}: gap {gap}");
        }
    }

    #[test]
    fn spectra_compose_with_fixed_planes_adc_and_saturation() {
        let s = pseudo_random(8, 1);
        let k = pseudo_random(3, 2);
        // Power-of-two, even and odd fixed planes (the last two through
        // the Bluestein transform).
        for size in [64, 48, 75] {
            let jtc = Jtc::ideal().with_plane_size(size);
            assert_eq!(jtc.plane_geometry(8, 3).unwrap().n, size);
            let gap = spectral_gap(&jtc, &s, &k);
            assert!(gap < 1e-12, "plane {size}: gap {gap}");
        }
        let jtc = Jtc::ideal()
            .with_adc(Some(Adc::new()))
            .with_nonlinearity(NonlinearMaterial::saturating(4));
        assert!(jtc.supports_spectra());
        let gap = spectral_gap(&jtc, &pseudo_random(16, 3), &k);
        assert!(gap < 1e-12, "ADC + saturation: gap {gap}");
    }

    #[test]
    fn spectra_check_inputs_like_correlate() {
        let jtc = Jtc::ideal();
        assert_eq!(
            jtc.signal_spectrum(&[1.0, -0.5], 1),
            Err(JtcError::NegativeValue { which: "signal" })
        );
        assert_eq!(
            jtc.kernel_spectrum(&[-1.0], 2),
            Err(JtcError::NegativeValue { which: "kernel" })
        );
        assert_eq!(jtc.signal_spectrum(&[], 3), Err(JtcError::EmptyInput));
        assert_eq!(jtc.kernel_spectrum(&[1.0], 0), Err(JtcError::EmptyInput));
        let small = Jtc::ideal().with_plane_size(16);
        let s = pseudo_random(8, 1);
        let k = pseudo_random(3, 2);
        let want = small.correlate(&s, &k).unwrap_err();
        assert!(matches!(
            want,
            JtcError::PlaneTooSmall { available: 16, .. }
        ));
        assert_eq!(small.signal_spectrum(&s, 3), Err(want.clone()));
        assert_eq!(small.kernel_spectrum(&k, 8), Err(want));
        // A DAC couples the operands through their joint peak.
        let quantized = Jtc::quantized();
        assert!(!quantized.supports_spectra());
        assert_eq!(quantized.signal_spectrum(&s, 3), Err(JtcError::DacEncoded));
        assert_eq!(quantized.kernel_spectrum(&k, 8), Err(JtcError::DacEncoded));
    }

    #[test]
    fn one_signal_spectrum_serves_many_kernels() {
        let jtc = Jtc::ideal();
        let s = pseudo_random(24, 7);
        let sig = jtc.signal_spectrum(&s, 5).unwrap();
        let mut scratch = JtcScratch::default();
        for seed in 0..4 {
            let k = pseudo_random(5, 200 + seed);
            let ker = jtc.kernel_spectrum(&k, 24).unwrap();
            let out = jtc.correlate_spectra(&sig, &ker, &mut scratch);
            assert!(max_abs_diff(out.valid(), &correlate_valid(&s, &k)) < 1e-9);
        }
    }

    #[test]
    #[should_panic(expected = "spectra of different passes")]
    fn spectra_of_different_geometries_do_not_mix() {
        let jtc = Jtc::ideal();
        let sig = jtc.signal_spectrum(&pseudo_random(24, 7), 5).unwrap();
        let ker = jtc.kernel_spectrum(&pseudo_random(5, 8), 12).unwrap();
        jtc.correlate_spectra(&sig, &ker, &mut JtcScratch::default());
    }

    /// `read_accumulated` after accumulating `passes` against the signed
    /// sum of their `correlate`s, as a share of the sum's peak.
    fn accumulated_gap(jtc: &Jtc, passes: &[(Vec<f64>, Vec<f64>, Polarity)]) -> f64 {
        let mut acc = JtcScratch::default();
        let mut want: Vec<f64> = Vec::new();
        for (s, k, polarity) in passes {
            let sig = jtc.signal_spectrum(s, k.len()).unwrap();
            let ker = jtc.kernel_spectrum(k, s.len()).unwrap();
            jtc.accumulate(&sig, &ker, *polarity, &mut acc).unwrap();
            let direct = jtc.correlate(s, k).unwrap();
            want.resize(direct.full().len(), 0.0);
            let sign = if *polarity == Polarity::Positive {
                1.0
            } else {
                -1.0
            };
            for (w, v) in want.iter_mut().zip(direct.full()) {
                *w += sign * v;
            }
        }
        let out = jtc.read_accumulated(&mut acc);
        assert_eq!(out.full().len(), want.len());
        let peak = want.iter().fold(0.0_f64, |m, &v| m.max(v.abs()));
        max_abs_diff(out.full(), &want) / peak
    }

    #[test]
    fn one_accumulated_pass_reads_out_as_correlate() {
        let s = pseudo_random(8, 1);
        let k = pseudo_random(3, 2);
        for jtc in [
            Jtc::ideal().with_plane_size(48),
            Jtc::ideal().with_plane_size(75),
            Jtc::ideal().with_nonlinearity(NonlinearMaterial::saturating(4)),
        ] {
            let sig = jtc.signal_spectrum(&s, k.len()).unwrap();
            let ker = jtc.kernel_spectrum(&k, s.len()).unwrap();
            let mut acc = JtcScratch::default();
            jtc.accumulate(&sig, &ker, Polarity::Positive, &mut acc)
                .unwrap();
            let read = jtc.read_accumulated(&mut acc);
            // A single pass runs the same tail, clamped at zero.
            let clamped: Vec<f64> = read.full().iter().map(|v| v.max(0.0)).collect();
            let single = jtc.correlate_spectra(&sig, &ker, &mut acc);
            assert_eq!(single.full(), clamped.as_slice());
            let direct = jtc.correlate(&s, &k).unwrap();
            assert_eq!(read.plane_size(), direct.plane_size());
            let peak = direct.full().iter().fold(0.0_f64, |m, &v| m.max(v));
            let gap = max_abs_diff(&clamped, direct.full()) / peak;
            assert!(gap < 1e-12, "{jtc:?}: gap {gap}");
        }
    }

    #[test]
    fn accumulated_passes_sum_their_correlations() {
        let jtc = Jtc::ideal();
        let (s1, s2) = (pseudo_random(24, 3), pseudo_random(24, 4));
        let (k1, k2) = (pseudo_random(5, 5), pseudo_random(5, 6));
        let both = [
            (s1.clone(), k1.clone(), Polarity::Positive),
            (s2.clone(), k2.clone(), Polarity::Positive),
        ];
        let gap = accumulated_gap(&jtc, &both);
        assert!(gap < 1e-12, "sum: gap {gap}");
        // A pseudo-negative difference reads out signed, not clamped.
        let difference = [
            (s1.clone(), k1.clone(), Polarity::Negative),
            (s1, k2.clone(), Polarity::Positive),
        ];
        let gap = accumulated_gap(&jtc, &difference);
        assert!(gap < 1e-12, "difference: gap {gap}");
        let mut acc = JtcScratch::default();
        let sig = jtc.signal_spectrum(&s2, 5).unwrap();
        let ker = jtc.kernel_spectrum(&k2, 24).unwrap();
        jtc.accumulate(&sig, &ker, Polarity::Negative, &mut acc)
            .unwrap();
        let out = jtc.read_accumulated(&mut acc);
        let want: Vec<f64> = correlate_valid(&s2, &k2).iter().map(|v| -v).collect();
        assert!(max_abs_diff(out.valid(), &want) < 1e-9);
        assert!(out.valid().iter().all(|&v| v < 0.0));
    }

    #[test]
    fn quantized_jtcs_refuse_to_accumulate() {
        let ideal = Jtc::ideal();
        let sig = ideal.signal_spectrum(&pseudo_random(8, 1), 3).unwrap();
        let ker = ideal.kernel_spectrum(&pseudo_random(3, 2), 8).unwrap();
        for jtc in [
            Jtc::ideal().with_adc(Some(Adc::new())),
            Jtc::ideal().with_dac(Some(Dac::new())),
            Jtc::quantized(),
        ] {
            assert!(!jtc.supports_accumulation());
            let mut acc = JtcScratch::default();
            assert_eq!(
                jtc.accumulate(&sig, &ker, Polarity::Positive, &mut acc),
                Err(JtcError::Quantized)
            );
        }
        assert!(ideal.supports_accumulation());
        assert!(JtcError::Quantized.to_string().contains("ADC"));
    }

    #[test]
    #[should_panic(expected = "passes of different geometries share a readout")]
    fn one_readout_holds_one_geometry() {
        let jtc = Jtc::ideal();
        let mut acc = JtcScratch::default();
        for (ls, lk) in [(24, 5), (12, 5)] {
            let sig = jtc.signal_spectrum(&pseudo_random(ls, 7), lk).unwrap();
            let ker = jtc.kernel_spectrum(&pseudo_random(lk, 8), ls).unwrap();
            jtc.accumulate(&sig, &ker, Polarity::Positive, &mut acc)
                .unwrap();
        }
    }

    /// The readout off the whole output plane: lens 2 on every sample,
    /// then the cross-term lags picked by circular index, clamped and
    /// quantized for a single pass.
    fn full_plane_readout(
        jtc: &Jtc,
        intensity: &[f64],
        geometry: PlaneGeometry,
        single_pass: bool,
    ) -> Vec<f64> {
        let PlaneGeometry {
            signal_len: ls,
            kernel_len: lk,
            sep,
            n,
        } = geometry;
        let mut plane = Vec::new();
        lens2(intensity, &mut plane);
        let detect = |v: f64| if single_pass { v.max(0.0) } else { v };
        let mut full: Vec<f64> = (-(lk as isize - 1)..=(ls as isize - 1))
            .map(|lag| detect(plane[(sep as isize + lag).rem_euclid(n as isize) as usize].re))
            .collect();
        if let (true, Some(adc)) = (single_pass, &jtc.adc) {
            let fs = full.iter().fold(0.0_f64, |m, &v| m.max(v));
            if fs > 0.0 {
                for v in full.iter_mut() {
                    *v = adc.reconstruct(adc.sample(*v, fs), fs);
                }
            }
        }
        full
    }

    /// `correlate` from fresh buffers, with the nonlinearity applied in
    /// place and the full-plane readout.
    fn full_plane_correlate(jtc: &Jtc, s: &[f64], k: &[f64]) -> Vec<f64> {
        let geometry = jtc.geometry(s, k).unwrap();
        let peak = s.iter().chain(k).fold(0.0_f64, |m, &v| m.max(v));
        let scale = if peak > 0.0 { peak } else { 1.0 };
        let mut input_plane = Vec::new();
        compose(
            s,
            k,
            geometry.sep,
            geometry.n,
            &mut input_plane,
            |v| match &jtc.dac {
                Some(dac) => dac.quantize(v / scale) * scale,
                None => v,
            },
        );
        let mut field = lens1(&input_plane);
        jtc.nonlinearity.apply(&mut field);
        let intensity: Vec<f64> = field.iter().map(|v| v.re).collect();
        full_plane_readout(jtc, &intensity, geometry, true)
    }

    fn bits(x: &[f64]) -> Vec<u64> {
        x.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn windowed_readouts_are_the_full_plane_bit_for_bit() {
        let jtcs = [
            Jtc::ideal(),
            Jtc::quantized(),
            Jtc::ideal().with_adc(Some(Adc::new())),
            Jtc::ideal().with_nonlinearity(NonlinearMaterial::saturating(4)),
        ];
        // Perfbench pass lengths (1024-, 2048-, 512- and 128-sample
        // planes), a kernel longer than its signal, and fixed planes that
        // are not a power of two.
        let lengths = [(228, 3), (240, 123), (72, 39), (28, 1), (3, 8), (8, 3)];
        let mut scratch = JtcScratch::default();
        for jtc in &jtcs {
            for (seed, &(ls, lk)) in lengths.iter().enumerate() {
                let s = pseudo_random(ls, seed as u64);
                let k = pseudo_random(lk, seed as u64 + 50);
                let want = bits(&full_plane_correlate(jtc, &s, &k));
                assert_eq!(bits(jtc.correlate(&s, &k).unwrap().full()), want);
                let reused = jtc.correlate_in(&s, &k, &mut scratch).unwrap();
                assert_eq!(bits(reused.full()), want, "{jtc:?} ({ls}, {lk})");
            }
        }
        for size in [48, 75] {
            let jtc = Jtc::quantized().with_plane_size(size);
            let (s, k) = (pseudo_random(8, 1), pseudo_random(3, 2));
            let want = bits(&full_plane_correlate(&jtc, &s, &k));
            assert_eq!(bits(jtc.correlate(&s, &k).unwrap().full()), want);
        }
    }

    #[test]
    fn windowed_accumulated_readouts_are_the_full_plane_bit_for_bit() {
        for (jtc, ls, lk) in [
            (Jtc::ideal(), 240, 123),
            (Jtc::ideal(), 28, 1),
            (Jtc::ideal().with_plane_size(48), 8, 3),
            (Jtc::ideal().with_plane_size(75), 8, 3),
            (
                Jtc::ideal().with_nonlinearity(NonlinearMaterial::saturating(4)),
                72,
                39,
            ),
        ] {
            let mut acc = JtcScratch::default();
            for (seed, polarity) in [(1, Polarity::Positive), (2, Polarity::Negative)] {
                let sig = jtc.signal_spectrum(&pseudo_random(ls, seed), lk).unwrap();
                let ker = jtc
                    .kernel_spectrum(&pseudo_random(lk, seed + 9), ls)
                    .unwrap();
                jtc.accumulate(&sig, &ker, polarity, &mut acc).unwrap();
            }
            let geometry = acc.geometry.unwrap();
            let n = geometry.n;
            let mut intensity = acc.sum.clone();
            for k in acc.sum.len()..n {
                intensity.push(intensity[n - k]);
            }
            let want = full_plane_readout(&jtc, &intensity, geometry, false);
            let got = jtc.read_accumulated(&mut acc);
            assert_eq!(bits(got.full()), bits(&want), "{jtc:?} ({ls}, {lk})");
        }
    }

    #[test]
    fn error_display_messages() {
        assert!(JtcError::EmptyInput.to_string().contains("non-empty"));
        assert!(JtcError::NegativeValue { which: "signal" }
            .to_string()
            .contains("negative"));
        assert!(JtcError::PlaneTooSmall {
            required: 64,
            available: 16
        }
        .to_string()
        .contains("64"));
        assert!(JtcError::DacEncoded.to_string().contains("DAC"));
    }
}
