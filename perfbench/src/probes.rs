//! Per-layer metrics of the traced run: host time of direct calls into
//! each layer's public functions, plus the spans and counters the
//! program already emits, collected with `refocus_obs::Collector`.

use crate::census::{self, Operand};
use crate::sys::{median, percentile, time_ns};
use crate::workloads::{shape_of, CampaignWork, JtcPath, LayersWork, Scale, SLICE_IN, SLICE_OUT};
use refocus_arch::area::area_breakdown;
use refocus_arch::campaign::CampaignCell;
use refocus_arch::checkpoint::Checkpoint;
use refocus_arch::config::AcceleratorConfig;
use refocus_arch::dse::{self, Variant};
use refocus_arch::energy::EnergyModel;
use refocus_arch::perf::{LayerPerf, NetworkPerf};
use refocus_arch::schedule::Schedule;
use refocus_arch::simulator::{simulate, simulate_suite};
use refocus_experiments::{experiment_by_id, Experiment};
use refocus_nn::layer::ConvSpec;
use refocus_nn::models::{dse_suite, evaluation_suite};
use refocus_obs::Collector;
use refocus_photonics::faults::FaultInjector;
use refocus_photonics::fft::{ifft_real, rfft};
use std::hint::black_box;
use std::path::Path;

/// Named metrics with units, in emission order.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), value, unit));
    }
}

/// Repetitions of cheap direct calls.
fn reps(scale: Scale, full: usize) -> usize {
    match scale {
        Scale::Full => full,
        Scale::Smoke => 3,
    }
}

fn share(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

/// Median nanoseconds of `f` over `n` single calls.
fn median_ns(n: usize, mut f: impl FnMut()) -> f64 {
    let mut samples: Vec<f64> = (0..n).map(|_| time_ns(&mut f).1).collect();
    median(&mut samples)
}

fn fft_probe(m: &mut Metrics, sizes: &[usize], scale: Scale) {
    for &n in sizes {
        let x: Vec<f64> = (0..n)
            .map(|i| ((i * 7919) % 1000) as f64 / 1000.0)
            .collect();
        let r = reps(scale, 301);
        m.push(
            format!("fft.rfft_ns.n{n}"),
            median_ns(r, || {
                black_box(rfft(black_box(&x)));
            }),
            "ns",
        );
        m.push(
            format!("fft.ifft_real_ns.n{n}"),
            median_ns(r, || {
                black_box(ifft_real(black_box(&x)));
            }),
            "ns",
        );
    }
}

const JTC_STAGES: [(&str, &str); 5] = [
    ("compose", "jtc.compose"),
    ("lens1", "jtc.lens1.fft"),
    ("square_law", "jtc.square_law"),
    ("lens2", "jtc.lens2.ifft"),
    ("readout", "jtc.readout"),
];

/// Direct `Jtc::correlate` on the layer operands, weighted by how many
/// passes use each geometry, and the stage shares from its spans.
fn jtc_probe(m: &mut Metrics, path: JtcPath, operands: &[Operand], scale: Scale) {
    let jtc = path.jtc();
    let r = reps(scale, 41);
    let (mut weighted, mut passes) = (0.0, 0u64);
    for o in operands {
        let ns = median_ns(r, || {
            black_box(jtc.correlate(&o.signal, &o.kernel).expect("valid operands"));
        });
        weighted += ns * o.count as f64;
        passes += o.count;
    }
    m.push("jtc.ns_per_pass", share(weighted, passes as f64), "ns");

    let collector = Collector::enabled();
    for o in operands {
        for _ in 0..r.min(5) {
            black_box(jtc.correlate(&o.signal, &o.kernel).expect("valid operands"));
        }
    }
    let report = collector.finish();
    let total = report.span("jtc.correlate").map_or(0, |s| s.total_ns) as f64;
    for (label, span) in JTC_STAGES {
        let t = report.span(span).map_or(0, |s| s.total_ns) as f64;
        m.push(format!("jtc.share.{label}"), share(t, total), "ratio");
    }
}

/// Direct `OpticalExecutor::conv2d` on every layer shape: ns per optical
/// pass, pass counts beside the analytical model's, accuracy, and the
/// executor's own share of a traced pass.
fn functional_probe(m: &mut Metrics, layers: &LayersWork) {
    let refocus_ff = AcceleratorConfig::refocus_ff();
    let mut ns_per_pass = Vec::with_capacity(layers.cases.len());
    let mut total_passes = 0u64;
    let mut model_passes = 0u64;
    let mut max_err = 0.0f64;
    let mut per_shape = Vec::new();
    for case in &layers.cases {
        let mut samples = Vec::new();
        let mut spent = 0.0;
        let mut passes = 0;
        // At least one call; small shapes repeat until 20 ms is spent.
        while samples.is_empty() || (spent < 2e7 && samples.len() < 25) {
            let run = layers.run_case(case, &mut Default::default());
            max_err = max_err.max(run.err.unwrap_or(f64::MAX));
            passes = run.passes;
            spent += run.ns;
            samples.push(run.ns / run.passes.max(1) as f64);
        }
        let ns = median(&mut samples);
        ns_per_pass.push((case.shape.name.clone(), ns));
        total_passes += passes;
        let spec = ConvSpec::new(
            case.shape.name.clone(),
            SLICE_IN,
            SLICE_OUT,
            case.shape.kernel,
            case.shape.stride,
            case.shape.padding,
            (case.input.height(), case.input.width()),
        );
        let plan = LayerPerf::analyze(&spec, &refocus_ff)
            .expect("every CNN shape maps")
            .plan;
        model_passes += (plan.passes * SLICE_IN * SLICE_OUT * 2) as u64;
        per_shape.push((case.shape.name.clone(), ns, passes));
    }
    for (name, ns, _) in &per_shape {
        m.push(format!("functional.ns_per_pass.{name}"), *ns, "ns");
    }
    for (name, _, passes) in &per_shape {
        m.push(format!("functional.passes.{name}"), *passes as f64, "count");
    }
    m.push("functional.passes", total_passes as f64, "count");
    m.push("model.passes", model_passes as f64, "count");

    let collector = Collector::enabled();
    for case in &layers.cases {
        layers.run_case(case, &mut Default::default());
    }
    let report = collector.finish();
    let channel = report.span("conv2d.channel").map_or(0, |s| s.total_ns) as f64;
    let jtc = report.span("jtc.correlate").map_or(0, |s| s.total_ns) as f64;
    m.push(
        "functional.self_share",
        share(channel - jtc, channel),
        "ratio",
    );
    m.push("functional.max_rel_err", max_err, "ratio");
    let hits = report.counter("fft.plan_cache.hit") as f64;
    let misses = report.counter("fft.plan_cache.miss") as f64;
    m.push(
        "fft.plan_cache.hit_ratio",
        share(hits, hits + misses),
        "ratio",
    );

    // Whole-network functional time: each conv layer's full-channel
    // analytical pass count at the ns/pass of its shape.
    for net in evaluation_suite() {
        let mut seconds = 0.0;
        for l in net.layers() {
            let name = shape_of(l).name;
            let ns = ns_per_pass
                .iter()
                .find(|(n, _)| *n == name)
                .map_or(0.0, |(_, ns)| *ns);
            let plan = LayerPerf::analyze(l, &refocus_ff)
                .expect("every CNN layer maps")
                .plan;
            let passes = (plan.passes * l.in_channels * l.out_channels * 2) as f64;
            seconds += ns * passes * 1e-9;
        }
        m.push(
            format!("functional.extrapolated_s.{}", metric_suffix(net.name())),
            seconds,
            "s",
        );
    }
}

/// `ResNet-18` → `resnet18`.
pub fn metric_suffix(name: &str) -> String {
    name.chars()
        .filter(char::is_ascii_alphanumeric)
        .map(|c| c.to_ascii_lowercase())
        .collect()
}

/// 1-thread ÷ all-threads time of the workload's largest op, measured in
/// interleaved pairs, and the fixed cost of one parallel region.
fn par_probe(m: &mut Metrics, work: &LayersWork, threads: usize, scale: Scale) {
    let pairs = match scale {
        Scale::Full => 3,
        Scale::Smoke => 1,
    };
    let (mut serial, mut parallel) = (Vec::new(), Vec::new());
    for _ in 0..pairs {
        serial.push(time_ns(|| refocus_par::with_threads(1, || work.largest_op())).1);
        parallel.push(time_ns(|| refocus_par::with_threads(threads, || work.largest_op())).1);
    }
    m.push(
        "par.speedup",
        share(median(&mut serial), median(&mut parallel)),
        "ratio",
    );
    let items = [1u64, 2, 3, 4, 5];
    let ns = refocus_par::with_threads(threads, || {
        median_ns(reps(scale, 501), || {
            black_box(refocus_par::par_map(&items, |x| x + 1));
        })
    });
    m.push("par.region_us", ns / 1e3, "us");
}

/// `correlate_with_faults` ÷ `correlate` on the campaign layer's operands.
fn faults_probe(m: &mut Metrics, scale: Scale) {
    let jtc = JtcPath::Ideal.jtc();
    let spec = refocus_experiments::fault_study::base_spec();
    let mut injector = FaultInjector::new(spec, 7);
    let r = reps(scale, 201);
    let (mut clean, mut faulted) = (0.0, 0.0);
    for o in census::campaign_operands() {
        let w = o.count as f64;
        clean += w * median_ns(r, || {
            black_box(jtc.correlate(&o.signal, &o.kernel).expect("valid operands"));
        });
        faulted += w * median_ns(r, || {
            black_box(
                jtc.correlate_with_faults(&o.signal, &o.kernel, &mut injector)
                    .expect("valid operands"),
            );
        });
    }
    m.push("faults.overhead_ratio", share(faulted, clean), "ratio");
}

/// One campaign round untraced (part times, journal load) and one traced
/// (cell counts, persist latencies, journal bytes). Both rounds check that
/// the half + resume report is bit-identical to the plain one.
fn campaign_probe(p: &mut Probes, campaign: &mut CampaignWork, out_dir: &Path, scale: Scale) {
    let half_copy = out_dir.join("half.jsonl");
    let (untraced, parts) = campaign.run_parts(Some(&half_copy));
    p.check(untraced.ops, untraced.failed);
    let fingerprint = campaign.campaign.fingerprint();
    let mut loads: Vec<f64> = (0..reps(scale, 5))
        .map(|_| {
            time_ns(|| {
                Checkpoint::<CampaignCell>::load(&half_copy, &fingerprint)
                    .expect("the half journal loads")
            })
            .1
        })
        .collect();
    let _ = std::fs::remove_file(&half_copy);

    let collector = Collector::enabled();
    let (round, _) = campaign.run_parts(None);
    let report = collector.finish();
    p.check(round.ops, round.failed);
    let m = &mut p.metrics;
    m.push(
        "campaign.cells.completed",
        (round.ops - round.failed) as f64,
        "count",
    );
    m.push("campaign.cells.failed", round.failed as f64, "count");
    for (name, counter) in [
        ("skipped", "campaign.cells.skipped"),
        ("retried", "campaign.retries"),
        ("replayed", "campaign.cells.replayed"),
    ] {
        m.push(
            format!("campaign.cells.{name}"),
            report.counter(counter) as f64,
            "count",
        );
    }
    m.push("campaign.plain_s", parts.plain_ns / 1e9, "s");
    m.push(
        "checkpoint.overhead_ratio",
        share(parts.half_ns + parts.resume_ns, parts.plain_ns),
        "ratio",
    );
    let mut persists: Vec<f64> = report
        .events()
        .iter()
        .filter(|e| e.name == "checkpoint.persist")
        .map(|e| e.dur_ns as f64 / 1e3)
        .collect();
    m.push(
        "checkpoint.persist_us.p50",
        percentile(&mut persists, 0.5),
        "us",
    );
    m.push(
        "checkpoint.persist_us.p95",
        percentile(&mut persists, 0.95),
        "us",
    );
    m.push(
        "checkpoint.bytes_per_cell",
        share(
            report.counter("checkpoint.bytes_written") as f64,
            campaign.campaign.grid_len() as f64,
        ),
        "B",
    );
    m.push("checkpoint.load_ms", median(&mut loads) / 1e6, "ms");
}

/// Direct calls into the analytical models, pooled over the five CNNs.
fn arch_probe(m: &mut Metrics, scale: Scale) {
    let config = AcceleratorConfig::refocus_ff();
    let model = EnergyModel::new(&config);
    let r = reps(scale, 21);
    let (mut perf, mut energy, mut schedule, mut area) = (vec![], vec![], vec![], vec![]);
    for net in evaluation_suite() {
        let analyzed = NetworkPerf::analyze(&net, &config).expect("every CNN maps");
        for _ in 0..r {
            perf.push(time_ns(|| NetworkPerf::analyze(&net, &config)).1);
            energy.push(time_ns(|| model.network_energy(&net, &analyzed)).1);
            schedule.push(
                time_ns(|| {
                    for l in net.layers() {
                        black_box(Schedule::compile(l, &config).expect("every layer schedules"));
                    }
                })
                .1,
            );
            area.push(time_ns(|| area_breakdown(&config)).1);
        }
    }
    m.push("perf.analyze_us", median(&mut perf) / 1e3, "us");
    m.push("energy.network_us", median(&mut energy) / 1e3, "us");
    m.push("schedule.compile_us", median(&mut schedule) / 1e3, "us");
    m.push("area.breakdown_us", median(&mut area) / 1e3, "us");
}

/// Direct `simulate` on the 68 (network, config) pairs of the FF and FB
/// Table 4 sweeps plus the evaluation suite on four presets,
/// `simulate_suite` per preset, and whole sweeps.
fn simulator_probe(m: &mut Metrics, scale: Scale) {
    let (dse_nets, eval_nets) = (dse_suite(), evaluation_suite());
    let presets = [
        AcceleratorConfig::refocus_ff(),
        AcceleratorConfig::refocus_fb(),
        AcceleratorConfig::photofourier_baseline(),
        AcceleratorConfig::single_jtc(),
    ];
    let mut pairs = Vec::new();
    for variant in [Variant::FeedForward, Variant::FeedBack] {
        for &delay in &dse::TABLE4_DELAY_CYCLES {
            let n = dse::max_rfcus(variant, delay, dse::PHOTONIC_AREA_BUDGET_MM2);
            let config = dse::design_point(variant, delay, n);
            for net in &dse_nets {
                pairs.push((net, config.clone()));
            }
        }
    }
    for config in &presets {
        for net in &eval_nets {
            pairs.push((net, config.clone()));
        }
    }
    let r = reps(scale, 5);
    let mut sims = Vec::new();
    for _ in 0..r {
        for (net, config) in &pairs {
            sims.push(time_ns(|| simulate(net, config)).1 / 1e3);
        }
    }
    m.push(
        "simulator.simulate_us.p50",
        percentile(&mut sims, 0.5),
        "us",
    );
    m.push(
        "simulator.simulate_us.p95",
        percentile(&mut sims, 0.95),
        "us",
    );
    let mut suites = Vec::new();
    let mut sweeps = Vec::new();
    for _ in 0..r {
        for config in &presets {
            suites.push(time_ns(|| simulate_suite(&eval_nets, config)).1 / 1e3);
        }
        for variant in [Variant::FeedForward, Variant::FeedBack] {
            sweeps.push(time_ns(|| dse::sweep(variant, &dse_nets)).1 / 1e6);
        }
    }
    m.push("simulator.suite_us", median(&mut suites), "us");
    m.push("dse.sweep_ms", median(&mut sweeps), "ms");
}

/// An experiment id and the module function that regenerates it.
type ExperimentRun = (&'static str, fn() -> Experiment);

/// Every experiment of the `report` binary, in paper order.
const EXPERIMENT_RUNS: [ExperimentRun; 19] = {
    use refocus_experiments::*;
    [
        ("sec2_2", sec2_2::run),
        ("table1", table1::run),
        ("table2", table2::run),
        ("fig3", fig3::run),
        ("fig7", fig7::run),
        ("table4", table4::run),
        ("table5", table5::run),
        ("table6", table6::run),
        ("table7", table7::run),
        ("fig8", fig8::run),
        ("fig9", fig9::run),
        ("fig10", fig10::run),
        ("fig11", fig11::run),
        ("fig12", fig12::run),
        ("fig13", fig13::run),
        ("sec7_3", sec7_3::run),
        ("ablations", ablations::run),
        ("fault_study", fault_study::run),
        ("summary", summary::run),
    ]
};

/// Each experiment module's `run()`, the `report --experiment <id>`
/// lookup, and rendering. A lookup must render the same text as the
/// module's own `run()`.
fn experiments_probe(p: &mut Probes, scale: Scale) {
    let mut built = Vec::new();
    for (id, run) in EXPERIMENT_RUNS {
        let (e, ns) = time_ns(run);
        p.metrics
            .push(format!("experiments.run_ms.{id}"), ns / 1e6, "ms");
        built.push(e);
    }
    let lookups = match scale {
        Scale::Full => vec!["table1", "fig11", "summary"],
        Scale::Smoke => vec!["table1"],
    };
    let mut times = Vec::new();
    for id in lookups {
        let (found, ns) = time_ns(|| experiment_by_id(id).map(|e| e.render()));
        times.push(ns / 1e6);
        let own = built.iter().find(|e| e.id == id).map(Experiment::render);
        p.check(1, u64::from(found.is_none() || found != own));
    }
    let (texts, render_ns) = time_ns(|| built.iter().map(Experiment::render).collect::<Vec<_>>());
    p.check(
        built.len() as u64,
        built
            .iter()
            .zip(&texts)
            .filter(|(e, t)| !t.contains(&e.title))
            .count() as u64,
    );
    p.metrics
        .push("experiments.lookup_ms", median(&mut times), "ms");
    p.metrics
        .push("experiments.render_ms", render_ns / 1e6, "ms");
}

/// What the traced run measures beside the layer probes.
pub struct TracedRound {
    /// Median wall time of the untraced rounds, nanoseconds.
    pub untraced_ns: f64,
    /// Wall time of the traced round, nanoseconds.
    pub traced_ns: f64,
    /// Simulator-call time inside the traced round, nanoseconds.
    pub call_ns: f64,
    /// JTC passes the traced round made.
    pub jtc_passes: u64,
}

/// Per-layer metrics, and the output checks the probes made on the way.
#[derive(Debug, Default)]
pub struct Probes {
    pub metrics: Metrics,
    pub attempted: u64,
    pub failed: u64,
}

impl Probes {
    fn check(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }
}

/// Runs every layer probe. `layers` is the workload whose traced round
/// was measured; the other layers are probed on their own inputs.
pub fn all(
    layers: &LayersWork,
    traced: &TracedRound,
    seed: u64,
    threads: usize,
    calibration_ns: f64,
    scale: Scale,
    out_dir: &Path,
) -> Probes {
    let mut p = Probes::default();
    let m = &mut p.metrics;
    fft_probe(m, &census::full_plane_sizes(), scale);
    let operands = census::layer_operands(&layers.cases);
    jtc_probe(m, layers.path, &operands, scale);
    m.push("jtc.passes", traced.jtc_passes as f64, "count");
    functional_probe(m, layers);
    par_probe(m, layers, threads, scale);
    faults_probe(m, scale);

    let journal_dir = out_dir.join("probe-journal");
    std::fs::create_dir_all(&journal_dir).expect("journal directory is writable");
    let mut campaign = CampaignWork::new(scale, seed, &journal_dir);
    campaign_probe(&mut p, &mut campaign, &journal_dir, scale);
    let _ = std::fs::remove_dir_all(&journal_dir);

    arch_probe(&mut p.metrics, scale);
    simulator_probe(&mut p.metrics, scale);
    experiments_probe(&mut p, scale);
    let m = &mut p.metrics;
    m.push(
        "obs.overhead_ratio",
        share(traced.traced_ns, traced.untraced_ns),
        "ratio",
    );
    m.push("host.calibration_ns", calibration_ns, "ns");
    m.push(
        "unaccounted_share",
        share(traced.traced_ns - traced.call_ns, traced.traced_ns),
        "ratio",
    );
    p
}
