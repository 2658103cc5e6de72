//! The JTC operands a workload's optical passes use, found by replaying
//! the row tiling without running the optics.

use crate::workloads::{conv_shapes, JtcPath, LayerCase};
use refocus_arch::config::AcceleratorConfig;
use refocus_nn::quant::PseudoNegativeSplit;
use refocus_nn::tensor::{Tensor3, Tensor4};
use refocus_nn::tiling::{tiled_conv2d_with, TilingMode};

/// One distinct `(signal length, kernel length)` pass of a layer, with
/// the first operand pair of that geometry and how many passes of one
/// (output, input, half) kernel use it.
#[derive(Debug, Clone)]
pub struct Operand {
    pub signal: Vec<f64>,
    pub kernel: Vec<f64>,
    pub count: u64,
}

/// Operands of channel 0 against the positive half of kernel (0, 0),
/// tiled exactly as `OpticalExecutor` tiles them.
fn operands_of(input: &Tensor3, weights: &Tensor4, padding: usize) -> Vec<Operand> {
    let padded = input.pad_spatial(padding);
    let rows: Vec<Vec<f64>> = padded.channel_rows(0).iter().map(|r| r.to_vec()).collect();
    let kernel = PseudoNegativeSplit::of(weights).positive.kernel(0, 0);
    let tile = AcceleratorConfig::refocus_ff().tile;
    let mut found: Vec<Operand> = Vec::new();
    tiled_conv2d_with(&rows, &kernel, tile, TilingMode::Exact, |s, k| {
        match found
            .iter_mut()
            .find(|o| o.signal.len() == s.len() && o.kernel.len() == k.len())
        {
            Some(o) => o.count += 1,
            None => found.push(Operand {
                signal: s.to_vec(),
                kernel: k.to_vec(),
                count: 1,
            }),
        }
        vec![0.0; (s.len() + 1).saturating_sub(k.len())]
    })
    .expect("every CNN shape tiles onto the JTC");
    found
}

/// Operands of every layer case.
pub fn layer_operands(cases: &[LayerCase]) -> Vec<Operand> {
    cases
        .iter()
        .flat_map(|c| operands_of(&c.input, &c.weights, c.shape.padding))
        .collect()
}

/// Operands of the fault campaign's layer (`campaign::Workload::default`).
pub fn campaign_operands() -> Vec<Operand> {
    let w = refocus_arch::campaign::Workload::default();
    let input = Tensor3::random(w.in_channels, w.height, w.width, 0.0, 1.0, w.data_seed);
    let weights = Tensor4::random(
        w.out_channels,
        w.in_channels,
        w.kernel,
        w.kernel,
        -1.0,
        1.0,
        w.data_seed.wrapping_add(1),
    );
    operands_of(&input, &weights, w.padding)
}

/// The distinct JTC plane sizes the operands need, ascending. Each probe
/// pass also builds that size's FFT plan on the calling thread.
pub fn plane_sizes(operands: &[Operand], path: JtcPath) -> Vec<usize> {
    let jtc = path.jtc();
    let mut sizes: Vec<usize> = operands
        .iter()
        .map(|o| {
            jtc.correlate(&o.signal, &o.kernel)
                .expect("tiled operands are valid JTC inputs")
                .plane_size()
        })
        .collect();
    sizes.sort_unstable();
    sizes.dedup();
    sizes
}

/// Plane sizes of every full-size layer shape and of the campaign layer:
/// the sizes `fft.*.n<N>` metrics are reported at, whatever the scale.
pub fn full_plane_sizes() -> Vec<usize> {
    let mut operands = campaign_operands();
    for shape in conv_shapes() {
        let input = Tensor3::zeros(1, shape.hw, shape.hw);
        let weights = Tensor4::zeros(1, 1, shape.kernel, shape.kernel);
        operands.extend(operands_of(&input, &weights, shape.padding));
    }
    plane_sizes(&operands, JtcPath::Ideal)
}
