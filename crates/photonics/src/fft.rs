//! Discrete Fourier transforms.
//!
//! An on-chip Fourier lens computes a continuous Fourier transform of the
//! field on its front focal plane "at the speed of light". The discrete
//! analog used by the functional JTC model is the DFT, computed here with an
//! iterative radix-2 Cooley–Tukey FFT for power-of-two lengths and
//! Bluestein's chirp-z algorithm for everything else, so any signal length a
//! JTC tile produces can be transformed.
//!
//! Convention: `fft` computes `X[k] = sum_n x[n] * e^(-2*pi*i*k*n/N)` and
//! `ifft` divides by `N`, so `ifft(fft(x)) == x`.
//!
//! # Examples
//!
//! ```
//! use refocus_photonics::complex::Complex64;
//! use refocus_photonics::fft::{fft, ifft};
//!
//! let mut x: Vec<Complex64> = (0..8).map(|n| Complex64::from_real(n as f64)).collect();
//! let original = x.clone();
//! fft(&mut x);
//! ifft(&mut x);
//! for (a, b) in x.iter().zip(&original) {
//!     assert!((*a - *b).norm() < 1e-9);
//! }
//! ```

use crate::complex::Complex64;
use std::f64::consts::PI;
use std::ops::Range;

/// Computes the forward DFT of `x` in place.
///
/// Uses radix-2 Cooley–Tukey when `x.len()` is a power of two and Bluestein's
/// algorithm otherwise. Length 0 and 1 are no-ops.
pub fn fft(x: &mut [Complex64]) {
    transform(x, Direction::Forward);
}

/// Computes the inverse DFT of `x` in place, including the `1/N` scaling.
pub fn ifft(x: &mut [Complex64]) {
    transform(x, Direction::Inverse);
}

/// Returns the forward DFT of `x` without modifying the input.
pub fn fft_of(x: &[Complex64]) -> Vec<Complex64> {
    let mut y = x.to_vec();
    fft(&mut y);
    y
}

/// Returns the inverse DFT of `x` without modifying the input.
pub fn ifft_of(x: &[Complex64]) -> Vec<Complex64> {
    let mut y = x.to_vec();
    ifft(&mut y);
    y
}

/// Returns the forward DFT of a real-valued signal.
pub fn fft_real(x: &[f64]) -> Vec<Complex64> {
    let mut y: Vec<Complex64> = x.iter().map(|&v| Complex64::from_real(v)).collect();
    fft(&mut y);
    y
}

/// Forward DFT of a real-valued signal via the packed half-length
/// transform: the `N` reals are folded into an `N/2`-point complex FFT and
/// unpacked with one twiddle pass, roughly halving the work of
/// [`fft_real`]. This is the fast path for the JTC's photodetector-bound
/// planes, which are always real-valued fields.
///
/// Falls back to [`fft_real`] when `N` is not a power of two (the packed
/// split needs an even length and the half-length plan cache wants a power
/// of two).
///
/// # Examples
///
/// ```
/// use refocus_photonics::fft::{fft_real, rfft};
///
/// let x: Vec<f64> = (0..16).map(|i| (i as f64 * 0.3).sin()).collect();
/// for (a, b) in rfft(&x).iter().zip(&fft_real(&x)) {
///     assert!((*a - *b).norm() < 1e-9);
/// }
/// ```
pub fn rfft(x: &[f64]) -> Vec<Complex64> {
    let mut out = vec![Complex64::ZERO; x.len()];
    rfft_into(x, &mut out);
    out
}

/// [`rfft`] into a caller-owned buffer, so a hot loop can reuse one
/// allocation across transforms. Bit-identical to [`rfft`].
///
/// # Panics
///
/// Panics if `out.len() != x.len()`.
pub(crate) fn rfft_into(x: &[f64], out: &mut [Complex64]) {
    let n = x.len();
    assert_eq!(out.len(), n, "rfft output length must match the input");
    if !packs(n) {
        for (o, &v) in out.iter_mut().zip(x) {
            *o = Complex64::from_real(v);
        }
        fft(out);
        return;
    }
    pack_and_transform(x, out);
    with_unpack_twiddles(n, |w| unpack_into(out, w, |v| v));
}

/// Inverse DFT (including the `1/N` scaling) of a **real-valued**
/// spectrum, via [`rfft`]: for real `x`, `ifft(x) = conj(fft(x)) / N`.
/// The JTC's second lens runs on exactly this shape — the Fourier-plane
/// intensity `|E|²` after the square-law nonlinearity is real.
pub fn ifft_real(x: &[f64]) -> Vec<Complex64> {
    let mut out = vec![Complex64::ZERO; x.len()];
    ifft_real_into(x, &mut out);
    out
}

/// [`ifft_real`] into a caller-owned buffer. Bit-identical to
/// [`ifft_real`].
///
/// # Panics
///
/// Panics if `out.len() != x.len()`.
pub(crate) fn ifft_real_into(x: &[f64], out: &mut [Complex64]) {
    let n = x.len();
    assert_eq!(out.len(), n, "ifft_real output length must match the input");
    let inv_n = 1.0 / n as f64;
    let finish = |v: Complex64| v.conj().scale(inv_n);
    if !packs(n) {
        rfft_into(x, out);
        for v in out.iter_mut() {
            *v = finish(*v);
        }
        return;
    }
    pack_and_transform(x, out);
    with_unpack_twiddles(n, |w| unpack_into(out, w, finish));
}

/// The real parts of `ifft_real(x)[window]`, bit for bit, into `out`:
/// the half-length transform runs whole, but only the window's samples
/// are unpacked, each with the pair formula [`ifft_real`] uses for it.
/// This is the JTC's second lens when only the photodetectors' window of
/// the output plane is read. `buf` is scratch for the transform.
/// Non-power-of-two lengths run the full [`ifft_real`] and keep the
/// window.
///
/// # Panics
///
/// Panics if `window` is not within `0..x.len()`.
pub(crate) fn ifft_real_window(
    x: &[f64],
    window: Range<usize>,
    out: &mut Vec<f64>,
    buf: &mut Vec<Complex64>,
) {
    let n = x.len();
    assert!(
        window.start <= window.end && window.end <= n,
        "window {window:?} outside a {n}-sample plane"
    );
    out.clear();
    buf.clear();
    let inv_n = 1.0 / n as f64;
    let finish = |v: Complex64| v.conj().scale(inv_n).re;
    if !packs(n) {
        buf.resize(n, Complex64::ZERO);
        ifft_real_into(x, buf);
        out.extend(buf[window].iter().map(|v| v.re));
        return;
    }
    let half = n / 2;
    buf.resize(half, Complex64::ZERO);
    pack_and_transform(x, buf);
    let z = &buf[..];
    with_unpack_twiddles(n, |w| {
        // Unpacking bin k gives samples k and k + N/2; its partner bin
        // is (N/2 - k) mod N/2, as in the full unpack.
        let bin = |k: usize| unpack(z[k], z[(half - k) & (half - 1)].conj(), w[k]);
        let below = window.start.min(half)..window.end.min(half);
        let above = window.start.max(half) - half..window.end.max(half) - half;
        out.extend(below.map(|k| finish(bin(k).0)));
        out.extend(above.map(|k| finish(bin(k).1)));
    });
}

/// Whether a real transform of length `n` takes the packed half-length
/// path: the split needs an even length and the plan cache a power of two.
fn packs(n: usize) -> bool {
    n >= 2 && n.is_power_of_two()
}

/// The first half of a power-of-two real FFT: even samples of `x` into
/// the real lane and odd samples into the imaginary lane of
/// `out[..N/2]`, transformed there as an `N/2`-point complex sequence `Z`.
fn pack_and_transform(x: &[f64], out: &mut [Complex64]) {
    let half = x.len() / 2;
    for (z, pair) in out[..half].iter_mut().zip(x.chunks_exact(2)) {
        *z = Complex64::new(pair[0], pair[1]);
    }
    fft(&mut out[..half]);
}

/// Runs `f` with the unpack twiddles `W^k = e^(-2πik/N)`, `k < N/2`, of a
/// power-of-two real FFT of length `n`. They are exactly the length-`n`
/// plan's last butterfly stage, so the unpack borrows them from the plan
/// cache instead of paying N/2 sin/cos evaluations per call.
fn with_unpack_twiddles<R>(n: usize, f: impl FnOnce(&[Complex64]) -> R) -> R {
    with_plan(n, |plan| {
        let (_, offset) = *plan
            .stage_offsets
            .last()
            .expect("plans always have at least one stage");
        f(&plan.twiddles[offset..offset + n / 2])
    })
}

/// Unpacks bins `k` and `k + N/2` of a real FFT from the half-length
/// transform: with E/O the half-length DFTs of the even/odd samples,
///   E[k] = (Z[k] + conj(Z[-k])) / 2,   O[k] = (Z[k] - conj(Z[-k])) / 2i,
///   X[k] = E[k] + W^k O[k],  X[k+N/2] = E[k] - W^k O[k],  W = e^(-2πi/N),
/// given `zk = Z[k]`, `zc = conj(Z[-k])` and `w = W^k`.
#[inline]
fn unpack(zk: Complex64, zc: Complex64, w: Complex64) -> (Complex64, Complex64) {
    let even = (zk + zc).scale(0.5);
    let odd = (zk - zc) * Complex64::new(0.0, -0.5);
    let t = w * odd;
    (even + t, even - t)
}

/// The whole unpack, in place: `out[..N/2]` holds `Z`, and every bin `X[m]`
/// is written as `finish(X[m])`. Bins k and N/2 - k read the same two `Z`
/// samples, so each pair is unpacked together and overwrites only the
/// slots it has read; k = 0 and k = N/4 are their own partners.
fn unpack_into(out: &mut [Complex64], w: &[Complex64], finish: impl Fn(Complex64) -> Complex64) {
    let half = out.len() / 2;
    let (lo, hi) = out.split_at_mut(half);
    let mut own_partner = |k: usize| {
        let z = lo[k];
        let (a, b) = unpack(z, z.conj(), w[k]);
        (lo[k], hi[k]) = (finish(a), finish(b));
    };
    own_partner(0);
    if half == 1 {
        return;
    }
    let mid = half / 2;
    own_partner(mid);
    // Pairs (k, N/2 - k) for 0 < k < N/4: the first of each from the
    // front of [1, N/4), the second from the back of (N/4, N/2).
    let (lo_k, lo_j) = lo[1..].split_at_mut(mid - 1);
    let (hi_k, hi_j) = hi[1..].split_at_mut(mid - 1);
    let (w_k, w_j) = (&w[1..mid], &w[mid + 1..half]);
    let lows = lo_k.iter_mut().zip(lo_j[1..].iter_mut().rev());
    let highs = hi_k.iter_mut().zip(hi_j[1..].iter_mut().rev());
    let twiddles = w_k.iter().zip(w_j.iter().rev());
    for (((zk, zj), (xk, xj)), (&wk, &wj)) in lows.zip(highs).zip(twiddles) {
        let (a, b) = (*zk, *zj);
        let (k_lo, k_hi) = unpack(a, b.conj(), wk);
        let (j_lo, j_hi) = unpack(b, a.conj(), wj);
        (*zk, *xk) = (finish(k_lo), finish(k_hi));
        (*zj, *xj) = (finish(j_lo), finish(j_hi));
    }
}

/// Transform direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Direction {
    Forward,
    Inverse,
}

impl Direction {
    /// Sign of the exponent: -1 for forward, +1 for inverse.
    fn sign(self) -> f64 {
        match self {
            Direction::Forward => -1.0,
            Direction::Inverse => 1.0,
        }
    }
}

fn transform(x: &mut [Complex64], dir: Direction) {
    let n = x.len();
    if n <= 1 {
        return;
    }
    if n.is_power_of_two() {
        // The functional simulator transforms the same plane sizes
        // thousands of times; a thread-local plan cache amortizes twiddle
        // and permutation setup. The cache is bounded: plane sizes in this
        // workspace are small powers of two.
        with_plan(n, |plan| match dir {
            Direction::Forward => plan.forward(x),
            Direction::Inverse => plan.inverse(x),
        });
        return;
    }
    bluestein(x, dir);
    if dir == Direction::Inverse {
        let inv_n = 1.0 / n as f64;
        for v in x.iter_mut() {
            *v = v.scale(inv_n);
        }
    }
}

thread_local! {
    static PLAN_CACHE: std::cell::RefCell<std::collections::HashMap<usize, std::rc::Rc<FftPlan>>> =
        std::cell::RefCell::new(std::collections::HashMap::new());
    static BLUESTEIN_CACHE: std::cell::RefCell<
        std::collections::HashMap<(usize, bool), std::rc::Rc<BluesteinPlan>>,
    > = std::cell::RefCell::new(std::collections::HashMap::new());
}

/// Runs `f` with the cached [`FftPlan`] for power-of-two length `n`,
/// building and caching the plan on first use.
fn with_plan<R>(n: usize, f: impl FnOnce(&FftPlan) -> R) -> R {
    debug_assert!(n.is_power_of_two() && n >= 2);
    let plan = PLAN_CACHE.with(|cache| {
        let mut cache = cache.borrow_mut();
        if let Some(plan) = cache.get(&n) {
            refocus_obs::counter("fft.plan_cache.hit", 1);
            plan.clone()
        } else {
            // Plan caches are thread-local, so every freshly spawned pool
            // worker starts cold; the miss counter is how a trace shows
            // that cost (DESIGN.md §10).
            refocus_obs::counter("fft.plan_cache.miss", 1);
            cache
                .entry(n)
                .or_insert_with(|| std::rc::Rc::new(FftPlan::new(n)))
                .clone()
        }
    });
    f(&plan)
}

/// Precomputed state for Bluestein transforms of one (length, direction):
/// the quadratic chirp and the forward spectrum of the chirp-conjugate
/// convolution kernel `b`. Both depend only on `n` and the transform
/// direction, so rebuilding them per call — as the original implementation
/// did — wasted two of the three internal FFTs plus two O(n) trig loops on
/// every non-power-of-two transform.
#[derive(Debug)]
struct BluesteinPlan {
    /// Power-of-two circular-convolution length, `>= 2n - 1`.
    m: usize,
    /// `chirp[k] = e^(sign·iπk²/n)`.
    chirp: Vec<Complex64>,
    /// Forward FFT (length `m`) of conj(chirp) arranged circularly.
    b_fft: Vec<Complex64>,
}

impl BluesteinPlan {
    fn new(n: usize, dir: Direction) -> Self {
        let sign = dir.sign();
        // Chirp: w[k] = e^(sign * i * pi * k^2 / n). Use k^2 mod 2n to keep
        // the angle argument small and exact.
        let two_n = 2 * n as u64;
        let chirp: Vec<Complex64> = (0..n)
            .map(|k| {
                let k2 = (k as u64 * k as u64) % two_n;
                Complex64::cis(sign * PI * k2 as f64 / n as f64)
            })
            .collect();

        let m = (2 * n - 1).next_power_of_two();

        // b[k] = conj(chirp[k]) arranged circularly (b[-k] = b[m-k]).
        let mut b = vec![Complex64::ZERO; m];
        b[0] = chirp[0].conj();
        for k in 1..n {
            let c = chirp[k].conj();
            b[k] = c;
            b[m - k] = c;
        }
        with_plan(m, |plan| plan.forward(&mut b));
        BluesteinPlan { m, chirp, b_fft: b }
    }
}

/// Bluestein's chirp-z transform: DFT of arbitrary length via a
/// power-of-two-length circular convolution. The chirp and the kernel
/// spectrum come from the per-(length, direction) plan cache; the two
/// remaining internal transforms run through the shared [`FftPlan`] cache.
fn bluestein(x: &mut [Complex64], dir: Direction) {
    let n = x.len();
    let plan = BLUESTEIN_CACHE.with(|cache| {
        let mut cache = cache.borrow_mut();
        let key = (n, dir == Direction::Forward);
        if let Some(plan) = cache.get(&key) {
            refocus_obs::counter("fft.bluestein_cache.hit", 1);
            plan.clone()
        } else {
            refocus_obs::counter("fft.bluestein_cache.miss", 1);
            cache
                .entry(key)
                .or_insert_with(|| std::rc::Rc::new(BluesteinPlan::new(n, dir)))
                .clone()
        }
    });
    let m = plan.m;

    // a[k] = x[k] * chirp[k], zero-padded to m.
    let mut a = vec![Complex64::ZERO; m];
    for k in 0..n {
        a[k] = x[k] * plan.chirp[k];
    }

    with_plan(m, |fft_plan| {
        fft_plan.forward(&mut a);
        for (av, bv) in a.iter_mut().zip(&plan.b_fft) {
            *av *= *bv;
        }
        fft_plan.inverse_unscaled(&mut a);
    });
    let inv_m = 1.0 / m as f64;

    for k in 0..n {
        x[k] = a[k].scale(inv_m) * plan.chirp[k];
    }
}

/// Total signal energy `sum |x[n]|^2` — used with Parseval's theorem checks.
pub fn energy(x: &[Complex64]) -> f64 {
    x.iter().map(|v| v.norm_sqr()).sum()
}

/// A reusable FFT plan for one power-of-two length: twiddle factors and the
/// bit-reversal permutation are computed once, which matters when the JTC
/// simulator transforms the same plane size thousands of times.
///
/// # Examples
///
/// ```
/// use refocus_photonics::complex::Complex64;
/// use refocus_photonics::fft::{fft_of, FftPlan};
///
/// let plan = FftPlan::new(64);
/// let x: Vec<Complex64> = (0..64).map(|i| Complex64::from_real(i as f64)).collect();
/// let mut y = x.clone();
/// plan.forward(&mut y);
/// let reference = fft_of(&x);
/// for (a, b) in y.iter().zip(&reference) {
///     assert!((*a - *b).norm() < 1e-9);
/// }
/// ```
#[derive(Debug, Clone)]
pub struct FftPlan {
    n: usize,
    /// Forward twiddles, laid out stage by stage: for stage length `len`,
    /// the `len/2` roots `e^(-2πik/len)`.
    twiddles: Vec<Complex64>,
    /// Inverse twiddles: the same table conjugated at build time, so the
    /// inverse butterfly loop carries no per-element `conj` branch.
    inv_twiddles: Vec<Complex64>,
    /// Per-stage offsets into `twiddles`.
    stage_offsets: Vec<(usize, usize)>, // (len, offset)
    /// Bit-reversal swap pairs `(i, j)` with `i < j`.
    swaps: Vec<(u32, u32)>,
}

impl FftPlan {
    /// Builds a plan for transforms of length `n`.
    ///
    /// # Panics
    ///
    /// Panics unless `n` is a power of two and at least 2, and (for the
    /// compact swap table) `n <= 2^32`.
    pub fn new(n: usize) -> Self {
        assert!(
            n.is_power_of_two() && n >= 2,
            "plan length must be a power of two >= 2, got {n}"
        );
        assert!(n <= (1usize << 32), "plan length too large");
        let mut twiddles = Vec::new();
        let mut stage_offsets = Vec::new();
        let mut len = 2;
        while len <= n {
            stage_offsets.push((len, twiddles.len()));
            let ang = -2.0 * PI / len as f64;
            for k in 0..len / 2 {
                twiddles.push(Complex64::cis(ang * k as f64));
            }
            len <<= 1;
        }
        let shift = n.leading_zeros() + 1;
        let swaps = (0..n)
            .filter_map(|i| {
                let j = i.reverse_bits() >> shift;
                (i < j).then_some((i as u32, j as u32))
            })
            .collect();
        let inv_twiddles = twiddles.iter().map(|w| w.conj()).collect();
        Self {
            n,
            twiddles,
            inv_twiddles,
            stage_offsets,
            swaps,
        }
    }

    /// The transform length this plan serves.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Plans are never empty (length >= 2 enforced).
    pub fn is_empty(&self) -> bool {
        false
    }

    fn run(&self, x: &mut [Complex64], twiddles: &[Complex64]) {
        assert_eq!(
            x.len(),
            self.n,
            "plan is for length {}, got {}",
            self.n,
            x.len()
        );
        for &(i, j) in &self.swaps {
            x.swap(i as usize, j as usize);
        }
        // Every butterfly is `v = hi·w; (lo, hi) = (lo + v, lo - v)` on
        // the same operands as the textbook indexed loop, so the output is
        // bit-identical to it; the slice loops only let the compiler drop
        // bounds checks. The products by w = (1, -0) stay: skipping them
        // can flip the sign of a zero.
        for &(len, offset) in &self.stage_offsets {
            let half = len / 2;
            let twiddles = &twiddles[offset..offset + half];
            match *twiddles {
                [w] => {
                    for pair in x.chunks_exact_mut(2) {
                        let (u, v) = (pair[0], pair[1] * w);
                        pair[0] = u + v;
                        pair[1] = u - v;
                    }
                }
                [w0, w1] => {
                    for quad in x.chunks_exact_mut(4) {
                        let (u0, v0) = (quad[0], quad[2] * w0);
                        let (u1, v1) = (quad[1], quad[3] * w1);
                        quad[0] = u0 + v0;
                        quad[2] = u0 - v0;
                        quad[1] = u1 + v1;
                        quad[3] = u1 - v1;
                    }
                }
                _ => {
                    for block in x.chunks_exact_mut(len) {
                        let (lo, hi) = block.split_at_mut(half);
                        for ((a, b), &w) in lo.iter_mut().zip(hi.iter_mut()).zip(twiddles) {
                            let (u, v) = (*a, *b * w);
                            *a = u + v;
                            *b = u - v;
                        }
                    }
                }
            }
        }
    }

    /// Forward DFT in place.
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` differs from the planned length.
    pub fn forward(&self, x: &mut [Complex64]) {
        self.run(x, &self.twiddles);
    }

    /// Inverse DFT in place, including the `1/N` scaling.
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` differs from the planned length.
    pub fn inverse(&self, x: &mut [Complex64]) {
        self.inverse_unscaled(x);
        let inv = 1.0 / self.n as f64;
        for v in x.iter_mut() {
            *v = v.scale(inv);
        }
    }

    /// Inverse DFT in place **without** the `1/N` scaling — for
    /// convolution pipelines (e.g. Bluestein's chirp convolution) that
    /// fold the normalization into a later per-element pass.
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` differs from the planned length.
    pub fn inverse_unscaled(&self, x: &mut [Complex64]) {
        self.run(x, &self.inv_twiddles);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: &[Complex64], b: &[Complex64], tol: f64) {
        assert_eq!(a.len(), b.len());
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert!(
                (*x - *y).norm() < tol,
                "index {i}: {x} vs {y} (diff {})",
                (*x - *y).norm()
            );
        }
    }

    /// Naive O(N^2) DFT as ground truth. The phase index `k·j` is reduced
    /// mod N before the angle is formed, so the twiddles stay accurate at
    /// the largest sizes.
    fn dft_naive(x: &[Complex64]) -> Vec<Complex64> {
        let n = x.len();
        (0..n)
            .map(|k| {
                (0..n)
                    .map(|j| x[j] * Complex64::cis(-2.0 * PI * ((k * j) % n) as f64 / n as f64))
                    .sum()
            })
            .collect()
    }

    /// The textbook indexed radix-2 loop on the plan's own tables: the
    /// reference the slice kernels must match bit for bit.
    fn reference_run(plan: &FftPlan, x: &mut [Complex64], twiddles: &[Complex64]) {
        for &(i, j) in &plan.swaps {
            x.swap(i as usize, j as usize);
        }
        for &(len, offset) in &plan.stage_offsets {
            let half = len / 2;
            for start in (0..plan.n).step_by(len) {
                for k in 0..half {
                    let w = twiddles[offset + k];
                    let u = x[start + k];
                    let v = x[start + k + half] * w;
                    x[start + k] = u + v;
                    x[start + k + half] = u - v;
                }
            }
        }
    }

    /// The indexed reference for [`rfft`] at a power-of-two length:
    /// pack, the reference half-length transform, then the pair-by-pair
    /// indexed unpack.
    fn reference_rfft(x: &[f64]) -> Vec<Complex64> {
        let n = x.len();
        let half = n / 2;
        let mut out: Vec<Complex64> = (0..half)
            .map(|i| Complex64::new(x[2 * i], x[2 * i + 1]))
            .collect();
        if half > 1 {
            let plan = FftPlan::new(half);
            reference_run(&plan, &mut out, &plan.twiddles);
        }
        out.resize(n, Complex64::ZERO);
        let plan = FftPlan::new(n);
        let (_, offset) = *plan.stage_offsets.last().unwrap();
        let w = &plan.twiddles[offset..offset + half];
        let unpack = |zk: Complex64, zc: Complex64, w: Complex64| {
            let even = (zk + zc).scale(0.5);
            let odd = (zk - zc) * Complex64::new(0.0, -0.5);
            let t = w * odd;
            (even + t, even - t)
        };
        for k in 0..=half / 2 {
            let j = (half - k) % half;
            let (zk, zj) = (out[k], out[j]);
            (out[k], out[k + half]) = unpack(zk, zj.conj(), w[k]);
            if j != k {
                (out[j], out[j + half]) = unpack(zj, zk.conj(), w[j]);
            }
        }
        out
    }

    /// Seeded reals that include exact zeros, `-0.0`, subnormals of both
    /// signs and large magnitudes (small enough that no sum overflows).
    fn awkward_reals(n: usize, seed: u64) -> Vec<f64> {
        let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1);
        (0..n)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let u = (state >> 11) as f64 / (1u64 << 53) as f64;
                let sign = if state & 1 == 0 { 1.0 } else { -1.0 };
                match (state >> 60) % 6 {
                    0 => 0.0,
                    1 => -0.0,
                    2 => sign * f64::MIN_POSITIVE * u,
                    3 => sign * 1e250 * u,
                    _ => sign * u,
                }
            })
            .collect()
    }

    /// Seeded `±0.0`: every output of a transform is then a signed zero,
    /// whose sign shows any skipped or reordered operation.
    fn signed_zeros(n: usize, seed: u64) -> Vec<f64> {
        awkward_reals(n, seed)
            .into_iter()
            .map(|v| if v.to_bits() & 8 == 0 { 0.0 } else { -0.0 })
            .collect()
    }

    fn bits(x: &[Complex64]) -> Vec<(u64, u64)> {
        x.iter().map(|v| (v.re.to_bits(), v.im.to_bits())).collect()
    }

    fn real_bits(x: &[f64]) -> Vec<u64> {
        x.iter().map(|v| v.to_bits()).collect()
    }

    fn ramp(n: usize) -> Vec<Complex64> {
        (0..n)
            .map(|i| Complex64::new(i as f64, (i as f64 * 0.3).sin()))
            .collect()
    }

    #[test]
    fn matches_naive_dft_power_of_two() {
        for n in [2usize, 4, 8, 16, 64] {
            let x = ramp(n);
            let want = dft_naive(&x);
            let got = fft_of(&x);
            assert_close(&got, &want, 1e-9 * n as f64);
        }
    }

    #[test]
    fn matches_naive_dft_arbitrary_length() {
        for n in [3usize, 5, 6, 7, 12, 15, 33, 100] {
            let x = ramp(n);
            let want = dft_naive(&x);
            let got = fft_of(&x);
            assert_close(&got, &want, 1e-8 * n as f64);
        }
    }

    #[test]
    fn round_trip_identity() {
        for n in [1usize, 2, 7, 8, 30, 256] {
            let x = ramp(n);
            let y = ifft_of(&fft_of(&x));
            assert_close(&y, &x, 1e-9 * (n.max(1)) as f64);
        }
    }

    #[test]
    fn impulse_transforms_to_constant() {
        let mut x = vec![Complex64::ZERO; 16];
        x[0] = Complex64::ONE;
        fft(&mut x);
        for v in &x {
            assert!((*v - Complex64::ONE).norm() < 1e-12);
        }
    }

    #[test]
    fn constant_transforms_to_impulse() {
        let mut x = vec![Complex64::ONE; 8];
        fft(&mut x);
        assert!((x[0] - Complex64::from_real(8.0)).norm() < 1e-12);
        for v in &x[1..] {
            assert!(v.norm() < 1e-12);
        }
    }

    #[test]
    fn single_tone_lands_in_one_bin() {
        let n = 32;
        let k0 = 5;
        let mut x: Vec<Complex64> = (0..n)
            .map(|t| Complex64::cis(2.0 * PI * (k0 * t) as f64 / n as f64))
            .collect();
        fft(&mut x);
        for (k, v) in x.iter().enumerate() {
            if k == k0 {
                assert!((v.norm() - n as f64).abs() < 1e-9);
            } else {
                assert!(v.norm() < 1e-9, "leakage at bin {k}: {}", v.norm());
            }
        }
    }

    #[test]
    fn parseval_theorem() {
        for n in [8usize, 13, 64] {
            let x = ramp(n);
            let time_energy = energy(&x);
            let freq_energy = energy(&fft_of(&x)) / n as f64;
            assert!(
                (time_energy - freq_energy).abs() < 1e-8 * time_energy.max(1.0),
                "n={n}: {time_energy} vs {freq_energy}"
            );
        }
    }

    #[test]
    fn linearity() {
        let n = 24;
        let a = ramp(n);
        let b: Vec<Complex64> = (0..n).map(|i| Complex64::new(1.0, -(i as f64))).collect();
        let sum: Vec<Complex64> = a.iter().zip(&b).map(|(x, y)| *x + y.scale(2.0)).collect();
        let fa = fft_of(&a);
        let fb = fft_of(&b);
        let fsum = fft_of(&sum);
        let want: Vec<Complex64> = fa.iter().zip(&fb).map(|(x, y)| *x + y.scale(2.0)).collect();
        assert_close(&fsum, &want, 1e-8);
    }

    #[test]
    fn real_signal_hermitian_symmetry() {
        let x: Vec<f64> = (0..16).map(|i| (i as f64 * 0.77).cos()).collect();
        let f = fft_real(&x);
        let n = f.len();
        for k in 1..n {
            let diff = (f[k] - f[n - k].conj()).norm();
            assert!(diff < 1e-10, "bin {k} breaks Hermitian symmetry");
        }
    }

    #[test]
    fn empty_and_singleton() {
        let mut empty: Vec<Complex64> = vec![];
        fft(&mut empty);
        assert!(empty.is_empty());
        let mut one = vec![Complex64::new(3.0, -1.0)];
        fft(&mut one);
        assert_eq!(one[0], Complex64::new(3.0, -1.0));
        ifft(&mut one);
        assert_eq!(one[0], Complex64::new(3.0, -1.0));
    }

    #[test]
    fn plan_matches_direct_fft_all_sizes() {
        for n in (1..=12).map(|p| 1usize << p) {
            let plan = FftPlan::new(n);
            let x = ramp(n);
            let mut planned = x.clone();
            plan.forward(&mut planned);
            let direct = dft_naive(&x);
            assert_close(&planned, &direct, 1e-8 * n as f64);
        }
    }

    #[test]
    fn kernels_match_the_indexed_reference_bit_for_bit() {
        let sizes = (1..=12).map(|p| 1usize << p);
        let inputs = sizes.flat_map(|n| {
            let seed = n as u64;
            [
                (awkward_reals(n, seed), awkward_reals(n, 7 * seed + 1)),
                (signed_zeros(n, seed), signed_zeros(n, 7 * seed + 1)),
            ]
        });
        for (re, im) in inputs {
            let n = re.len();
            let plan = FftPlan::new(n);
            let x: Vec<Complex64> = re
                .iter()
                .zip(&im)
                .map(|(&a, &b)| Complex64::new(a, b))
                .collect();

            let (mut got, mut want) = (x.clone(), x.clone());
            plan.forward(&mut got);
            reference_run(&plan, &mut want, &plan.twiddles);
            assert_eq!(bits(&got), bits(&want), "forward, n={n}");

            let (mut got, mut want) = (x.clone(), x.clone());
            plan.inverse_unscaled(&mut got);
            reference_run(&plan, &mut want, &plan.inv_twiddles);
            assert_eq!(bits(&got), bits(&want), "inverse_unscaled, n={n}");

            let mut got = x.clone();
            plan.inverse(&mut got);
            let inv_n = 1.0 / n as f64;
            let want: Vec<Complex64> = want.iter().map(|v| v.scale(inv_n)).collect();
            assert_eq!(bits(&got), bits(&want), "inverse, n={n}");

            let want = reference_rfft(&re);
            assert_eq!(bits(&rfft(&re)), bits(&want), "rfft, n={n}");
            let want: Vec<Complex64> = want.iter().map(|v| v.conj().scale(inv_n)).collect();
            assert_eq!(bits(&ifft_real(&re)), bits(&want), "ifft_real, n={n}");
        }
    }

    /// `ifft_real_window` over `window` against the real parts of the full
    /// `ifft_real`, bit for bit.
    fn assert_window_is_the_full_plane(x: &[f64], window: Range<usize>) {
        let full: Vec<f64> = ifft_real(x)[window.clone()].iter().map(|v| v.re).collect();
        let (mut out, mut buf) = (vec![1.0; 3], Vec::new());
        ifft_real_window(x, window.clone(), &mut out, &mut buf);
        assert_eq!(
            real_bits(&out),
            real_bits(&full),
            "n={} window {window:?}",
            x.len()
        );
    }

    #[test]
    fn windowed_inverse_is_the_full_plane_bit_for_bit() {
        // The readout window of every pass geometry of the 20 distinct
        // conv shapes of AlexNet, VGG-16 and ResNet-18/34/50, tiled
        // exactly on a 256-waveguide JTC: (signal, kernel) lengths.
        let passes = [
            (238, 11),
            (245, 145),
            (255, 37),
            (228, 3),
            (232, 119),
            (116, 3),
            (240, 123),
            (256, 67),
            (192, 67),
            (252, 39),
            (72, 39),
            (236, 7),
            (224, 1),
            (252, 1),
            (28, 1),
            (99, 25),
            (196, 1),
            (49, 1),
        ];
        let jtc = crate::jtc::Jtc::ideal();
        for (i, (ls, lk)) in passes.into_iter().enumerate() {
            let g = jtc.plane_geometry(ls, lk).unwrap();
            for x in [awkward_reals(g.n, i as u64), signed_zeros(g.n, i as u64)] {
                assert_window_is_the_full_plane(&x, g.sep + 1 - lk..g.sep + ls);
            }
        }
        // Windows below, across and above n/2, whole planes and empty ones.
        let sizes = (1..=12).map(|p| 1usize << p);
        let planes =
            sizes.flat_map(|n| [awkward_reals(n, 99 + n as u64), signed_zeros(n, n as u64)]);
        for x in planes {
            let n = x.len();
            let (half, quarter) = (n / 2, n / 4);
            for window in [
                0..n,
                0..half,
                half..n,
                quarter..n - quarter,
                half - 1..half + 1,
                n - 1..n,
                half..half,
            ] {
                assert_window_is_the_full_plane(&x, window);
            }
        }
        // Planes that are not a power of two take the full transform.
        for n in [1usize, 3, 48, 75, 100] {
            let x = awkward_reals(n, n as u64);
            assert_window_is_the_full_plane(&x, 0..n);
            assert_window_is_the_full_plane(&x, n / 3..n - n / 3);
        }
    }

    #[test]
    fn plan_round_trip() {
        let plan = FftPlan::new(256);
        let x = ramp(256);
        let mut y = x.clone();
        plan.forward(&mut y);
        plan.inverse(&mut y);
        assert_close(&y, &x, 1e-8);
    }

    #[test]
    fn plan_is_reusable() {
        let plan = FftPlan::new(64);
        for seed in 0..4 {
            let x: Vec<Complex64> = (0..64)
                .map(|i| Complex64::new((i + seed) as f64, (i * seed) as f64 * 0.01))
                .collect();
            let mut y = x.clone();
            plan.forward(&mut y);
            assert_close(&y, &fft_of(&x), 1e-8);
        }
        assert_eq!(plan.len(), 64);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn plan_rejects_non_power_of_two() {
        let _ = FftPlan::new(48);
    }

    #[test]
    #[should_panic(expected = "plan is for length")]
    fn plan_rejects_wrong_length_input() {
        let plan = FftPlan::new(8);
        let mut x = ramp(16);
        plan.forward(&mut x);
    }

    #[test]
    fn rfft_matches_complex_fft_on_real_input() {
        for n in [2usize, 4, 8, 16, 64, 256, 1024] {
            let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin() + 0.1).collect();
            let fast = rfft(&x);
            let slow = fft_real(&x);
            assert_close(&fast, &slow, 1e-9 * n as f64);
        }
    }

    #[test]
    fn rfft_falls_back_on_non_power_of_two() {
        for n in [3usize, 7, 12, 100] {
            let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.77).cos()).collect();
            assert_close(&rfft(&x), &fft_real(&x), 1e-9 * n as f64);
        }
    }

    #[test]
    fn ifft_real_matches_complex_ifft() {
        for n in [1usize, 2, 8, 11, 64, 512] {
            let x: Vec<f64> = (0..n).map(|i| 1.0 + (i as f64 * 0.21).sin()).collect();
            let xc: Vec<Complex64> = x.iter().map(|&v| Complex64::from_real(v)).collect();
            assert_close(&ifft_real(&x), &ifft_of(&xc), 1e-9 * n.max(1) as f64);
        }
        assert!(ifft_real(&[]).is_empty());
    }

    #[test]
    fn bluestein_cache_is_consistent_across_calls() {
        // First call builds the (length, direction) plan; later calls hit
        // the cache. The results must be identical, not merely close.
        let x = ramp(100);
        let first = fft_of(&x);
        let second = fft_of(&x);
        assert_eq!(first, second);
        let y = ifft_of(&first);
        let y2 = ifft_of(&second);
        assert_eq!(y, y2);
        assert_close(&y, &x, 1e-8);
    }

    #[test]
    fn inverse_unscaled_differs_by_exactly_n() {
        let plan = FftPlan::new(64);
        let x = ramp(64);
        let mut spectrum = x.clone();
        plan.forward(&mut spectrum);
        let mut scaled = spectrum.clone();
        let mut unscaled = spectrum;
        plan.inverse(&mut scaled);
        plan.inverse_unscaled(&mut unscaled);
        for (s, u) in scaled.iter().zip(&unscaled) {
            assert!((u.scale(1.0 / 64.0) - *s).norm() < 1e-12);
        }
    }

    #[test]
    fn real_round_trip_at_bluestein_lengths() {
        // 97 is prime (pure Bluestein); 1000 is even but not a power of
        // two (mixed fallback). Both must survive rfft → ifft and
        // ifft_real → fft round trips to spectral accuracy.
        for n in [97usize, 1000] {
            let x: Vec<f64> = (0..n).map(|i| 0.5 + (i as f64 * 0.31).sin()).collect();
            let xc: Vec<Complex64> = x.iter().map(|&v| Complex64::from_real(v)).collect();

            let back = ifft_of(&rfft(&x));
            assert_close(&back, &xc, 1e-8 * n as f64);

            // ifft_real treats its input as a real spectrum; the forward
            // transform of its output must recover that spectrum.
            let spectrum = fft_of(&ifft_real(&x));
            assert_close(&spectrum, &xc, 1e-8 * n as f64);
        }
    }

    #[test]
    fn all_zero_signal_round_trips_to_exact_zero() {
        for n in [97usize, 1000] {
            let zeros = vec![0.0; n];
            assert!(rfft(&zeros).iter().all(|v| v.norm() == 0.0), "n={n}");
            assert!(ifft_real(&zeros).iter().all(|v| v.norm() == 0.0), "n={n}");
            let back = ifft_of(&rfft(&zeros));
            assert!(back.iter().all(|v| v.norm() == 0.0), "n={n}");
        }
    }

    #[test]
    fn single_impulse_round_trips_at_odd_length() {
        for n in [97usize, 1000] {
            // Impulse at the origin: flat unit spectrum.
            let mut x = vec![0.0; n];
            x[0] = 1.0;
            for (k, v) in rfft(&x).iter().enumerate() {
                assert!((*v - Complex64::ONE).norm() < 1e-9, "n={n} bin {k}");
            }

            // Impulse off the origin: unit-magnitude bins, and the
            // round trip restores the impulse to its position.
            let mut shifted = vec![0.0; n];
            shifted[n / 3] = 1.0;
            let spectrum = rfft(&shifted);
            for (k, v) in spectrum.iter().enumerate() {
                assert!((v.norm() - 1.0).abs() < 1e-9, "n={n} bin {k}");
            }
            let back = ifft_of(&spectrum);
            for (i, v) in back.iter().enumerate() {
                let want = if i == n / 3 { 1.0 } else { 0.0 };
                assert!(
                    (*v - Complex64::from_real(want)).norm() < 1e-9,
                    "n={n} sample {i}"
                );
            }
        }
    }

    #[test]
    fn time_shift_is_frequency_phase_ramp() {
        // x[(n-1) mod N] should transform to X[k] * e^(-2 pi i k / N).
        let n = 16;
        let x = ramp(n);
        let mut shifted = vec![Complex64::ZERO; n];
        for i in 0..n {
            shifted[(i + 1) % n] = x[i];
        }
        let fx = fft_of(&x);
        let fs = fft_of(&shifted);
        for k in 0..n {
            let want = fx[k] * Complex64::cis(-2.0 * PI * k as f64 / n as f64);
            assert!((fs[k] - want).norm() < 1e-9);
        }
    }
}
