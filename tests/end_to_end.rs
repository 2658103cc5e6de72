//! End-to-end integration: a small CNN executed on the simulated optics —
//! field-level JTC passes, 8-bit converters, noise, pseudo-negative
//! recombination — checked against the digital reference, with the
//! performance model's pass accounting cross-validated.

use refocus::arch::config::AcceleratorConfig;
use refocus::arch::functional::OpticalExecutor;
use refocus::arch::perf::LayerPerf;
use refocus::arch::schedule::Schedule;
use refocus::nn::conv::conv2d;
use refocus::nn::layer::ConvSpec;
use refocus::nn::quant::PSEUDO_NEGATIVE_LATENCY_FACTOR;
use refocus::nn::tensor::{Tensor3, Tensor4};
use refocus::photonics::jtc::Jtc;
use refocus::photonics::noise::NoiseModel;

/// A three-layer toy CNN (conv-relu ×3) run entirely through the optics.
#[test]
fn tiny_cnn_forward_pass_on_optics_matches_digital() {
    let exec = OpticalExecutor::ideal();

    let mut x_opt = Tensor3::random(3, 16, 16, 0.0, 1.0, 100);
    let mut x_dig = x_opt.clone();
    let layer_weights = [
        Tensor4::random(8, 3, 3, 3, -0.5, 0.5, 101),
        Tensor4::random(8, 8, 3, 3, -0.5, 0.5, 102),
        Tensor4::random(4, 8, 3, 3, -0.5, 0.5, 103),
    ];

    for (i, w) in layer_weights.iter().enumerate() {
        let mut opt = exec.conv2d(&x_opt, w, 1, 1).unwrap();
        let mut dig = conv2d(&x_dig, w, 1, 1).unwrap();
        // ReLU keeps activations non-negative — exactly what the JTC needs
        // for the next layer.
        opt.relu();
        dig.relu();
        let peak = dig.data().iter().fold(1e-12f64, |m, v| m.max(v.abs()));
        let err = opt
            .data()
            .iter()
            .zip(dig.data())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max);
        assert!(err < 1e-7 * peak.max(1.0), "layer {i}: err = {err}");
        x_opt = opt;
        x_dig = dig;
    }
}

#[test]
fn quantized_noisy_pipeline_stays_usable() {
    // 8-bit converters + 1% detector noise: the regime noise-aware
    // training (§7.2) is designed for. The result must stay within a few
    // percent of the digital reference.
    let exec = OpticalExecutor::quantized();
    let x = Tensor3::random(2, 10, 10, 0.0, 1.0, 200);
    let w = Tensor4::random(4, 2, 3, 3, -0.5, 0.5, 201);
    let digital = conv2d(&x, &w, 1, 1).unwrap();
    let optical = exec.conv2d(&x, &w, 1, 1).unwrap();

    let mut noise = NoiseModel::new(7).with_relative_sigma(0.01);
    let noisy = noise.apply(optical.data());

    let peak = digital.data().iter().fold(0.0f64, |m, v| m.max(v.abs()));
    let err = noisy
        .iter()
        .zip(digital.data())
        .map(|(a, b)| (a - b).abs())
        .fold(0.0, f64::max);
    assert!(err < 0.15 * peak, "err = {err}, peak = {peak}");
}

#[test]
fn functional_pass_count_matches_perf_plan() {
    // The optical executor's pass counter must agree with the analytical
    // tiling plan: passes = plan.passes x channels x filters x 2 halves
    // (per-channel plans on the padded input, one wavelength, one RFCU).
    let h = 14usize;
    let w = 14usize;
    let k = 3usize;
    let pad = 1usize;
    let in_ch = 4usize;
    let out_ch = 2usize;

    let exec = OpticalExecutor::ideal();
    let x = Tensor3::random(in_ch, h, w, 0.0, 1.0, 300);
    let weights = Tensor4::random(out_ch, in_ch, k, k, -0.5, 0.5, 301);
    exec.conv2d(&x, &weights, 1, pad).unwrap();

    let plan = refocus::nn::tiling::TilingPlan::plan(
        (h, w),
        k,
        1,
        pad,
        256,
        refocus::nn::tiling::TilingMode::Exact,
    )
    .unwrap();
    let expected =
        plan.passes as u64 * in_ch as u64 * out_ch as u64 * PSEUDO_NEGATIVE_LATENCY_FACTOR as u64;
    assert_eq!(exec.passes(), expected);
}

#[test]
fn schedule_perf_and_energy_agree_on_generation_cycles() {
    let layer = ConvSpec::new("t", 32, 64, 3, 1, 1, (28, 28));
    let cfg = AcceleratorConfig::refocus_fb();
    let perf = LayerPerf::analyze(&layer, &cfg).unwrap();
    let sched = Schedule::compile(&layer, &cfg).unwrap();
    assert_eq!(sched.cycles(), perf.cycles);
    assert_eq!(sched.generation_cycles(), perf.generation_cycles);
    assert!(sched.verify_fifo());
}

#[test]
fn wdm_bus_and_jtc_compose_with_tiling() {
    // Two channels through one WDM-shared JTC equal the digital sum of two
    // per-channel valid correlations on tiled rows.
    use refocus::photonics::wdm::WdmBus;

    let bus = WdmBus::refocus();
    let jtc = Jtc::ideal();
    let rows_a: Vec<f64> = (0..64).map(|i| ((i * 13) % 7) as f64 / 7.0).collect();
    let rows_b: Vec<f64> = (0..64).map(|i| ((i * 5) % 11) as f64 / 11.0).collect();
    let k = vec![0.25, 0.5, 0.25];
    let acc = bus
        .correlate_accumulate(
            &jtc,
            &[(rows_a.clone(), k.clone()), (rows_b.clone(), k.clone())],
        )
        .unwrap();
    let want: Vec<f64> = refocus::photonics::signal::correlate_valid(&rows_a, &k)
        .iter()
        .zip(refocus::photonics::signal::correlate_valid(&rows_b, &k))
        .map(|(x, y)| x + y)
        .collect();
    for (a, b) in acc.iter().zip(&want) {
        assert!((a - b).abs() < 1e-8);
    }
}

/// A full-channel layer, ResNet-18 conv2_x (64→64, 3×3, 56×56, padding 1),
/// on the ideal optics. Slow in a debug build, so it is ignored by default;
/// CI runs it with `cargo test --release --test end_to_end -- --ignored`.
#[test]
#[ignore = "full-channel layer; run in release with --ignored"]
fn resnet18_conv2_x_full_channels_on_optics() {
    let exec = OpticalExecutor::ideal();
    let x = Tensor3::random(64, 56, 56, 0.0, 1.0, 400);
    let weights = Tensor4::random(64, 64, 3, 3, -0.1, 0.1, 401);
    let optical = exec.conv2d(&x, &weights, 1, 1).unwrap();
    let digital = conv2d(&x, &weights, 1, 1).unwrap();
    assert_eq!(optical.shape(), digital.shape());
    let peak = digital.max_abs();
    let err = optical
        .data()
        .iter()
        .zip(digital.data())
        .fold(0.0f64, |m, (a, b)| m.max((a - b).abs()));
    assert!(err <= 1e-12 * peak, "error {err} vs peak {peak}");
    // 28 four-row passes per (input, output) channel pair and half.
    assert_eq!(exec.passes(), 229_376);
}
