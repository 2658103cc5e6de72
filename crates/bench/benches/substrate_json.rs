//! Machine-readable substrate baseline: times the FFT kernels, the
//! optical convolution, and the fault campaign with plain wall-clock
//! measurement, verifies the serial/parallel bit-identity contract, and
//! writes `BENCH_substrate.json` at the repository root.
//!
//! Run with:
//!
//! ```text
//! cargo bench -p refocus-bench --bench substrate_json
//! cargo bench -p refocus-bench --bench substrate_json -- --check --out fresh.json
//! cargo bench -p refocus-bench --bench substrate_json -- --trace trace.json
//! ```
//!
//! It emits a stable JSON file meant to be checked in, so successive
//! changes can diff the substrate's wall-clock profile. Numbers are
//! medians over fixed rep counts on whatever machine ran them — compare
//! trends, not absolutes, across machines.
//!
//! Serial/parallel pairs are measured **interleaved** (serial rep,
//! parallel rep, serial rep, ...) rather than as two sequential blocks:
//! with sequential blocks, frequency/cache drift between the blocks
//! shows up as a phantom "speedup" (the checked-in 0.92× campaign
//! number diagnosed in DESIGN.md §10 was exactly that artifact).
//!
//! Flags (after `--`):
//!
//! - `--check`: instead of overwriting the checked-in baseline, compare
//!   the fresh numbers against it and exit non-zero if any `speedups`
//!   entry dropped by more than 25% or a bit-identity check flipped to
//!   false. This is the CI `bench-regression` gate.
//! - `--out <path>`: write the fresh report JSON to `path` (default: the
//!   checked-in `BENCH_substrate.json`, unless `--check` is given).
//! - `--trace <path>` / `--obs-json <path>`: after the timed reps, run
//!   one instrumented conv2d + campaign pass under an enabled
//!   `refocus_obs::Collector` and export the chrome trace / summary.
//!   The timed reps themselves always run with obs disabled, so these
//!   flags never perturb the numbers being written or checked.
//! - `--history <path>`: append one timestamped JSON line with the
//!   headline speedup ratios and bit-identity checks to `path` (CI
//!   passes it, so its artifacts accumulate a trend). Without it no
//!   history is written, so a local run leaves the tracked
//!   `BENCH_history.jsonl` alone.

use refocus_arch::campaign::{FaultCampaign, Workload};
use refocus_arch::config::AcceleratorConfig;
use refocus_arch::functional::OpticalExecutor;
use refocus_nn::tensor::{Tensor3, Tensor4};
use refocus_photonics::complex::Complex64;
use refocus_photonics::faults::FaultSpec;
use refocus_photonics::fft::{fft, rfft};
use refocus_photonics::jtc::Jtc;
use serde::Serialize;
use serde_json::Value;
use std::path::PathBuf;
use std::time::Instant;

#[derive(Serialize)]
struct BenchEntry {
    name: String,
    reps: usize,
    median_ns: u64,
    mean_ns: u64,
}

#[derive(Serialize)]
struct Checks {
    conv2d_serial_parallel_bit_identical: bool,
    campaign_serial_parallel_bit_identical: bool,
}

#[derive(Serialize)]
struct Speedups {
    /// Serial / parallel median time of the optical conv2d (>1 means
    /// the pool helped; ~1 on a single-core host).
    conv2d: f64,
    /// Serial / parallel median time of the fault campaign grid.
    campaign: f64,
    /// Complex-FFT / real-FFT median time at n = 1024 (the rfft fast
    /// path's win on real input planes).
    rfft_vs_fft_1024: f64,
}

#[derive(Serialize)]
struct Report {
    schema: &'static str,
    threads_available: usize,
    threads_used: usize,
    checks: Checks,
    speedups: Speedups,
    benches: Vec<BenchEntry>,
}

/// One rolling-log line for `BENCH_history.jsonl`: the headline ratios
/// plus a timestamp, so successive CI runs accumulate a trend the
/// artifacts upload preserves (the full `benches` array stays out —
/// machine-specific absolutes don't trend across runners).
fn history_line(report: &Report, check_mode: bool, unix_time_s: u64) -> String {
    // `to_string` lowers through `Serialize::to_value`, so a transparent
    // wrapper lets a hand-built `Value` tree reuse the JSON writer.
    struct Raw(Value);
    impl Serialize for Raw {
        fn to_value(&self) -> Value {
            self.0.clone()
        }
    }
    let entry = Value::Map(vec![
        (
            "schema".into(),
            Value::Str("refocus-bench-history/v1".into()),
        ),
        ("unix_time_s".into(), Value::U64(unix_time_s)),
        ("check_mode".into(), Value::Bool(check_mode)),
        (
            "threads_used".into(),
            Value::U64(report.threads_used as u64),
        ),
        ("checks".into(), serde_json::to_value(&report.checks)),
        ("speedups".into(), serde_json::to_value(&report.speedups)),
    ]);
    serde_json::to_string(&Raw(entry)).expect("history entry serializes") + "\n"
}

fn stats(mut samples: Vec<u64>) -> (u64, u64) {
    samples.sort_unstable();
    let median = samples[samples.len() / 2];
    let mean = samples.iter().sum::<u64>() / samples.len() as u64;
    (median, mean)
}

/// Times `reps` calls of `f`, returning (median, mean) nanoseconds.
fn time<R>(reps: usize, mut f: impl FnMut() -> R) -> (u64, u64) {
    assert!(reps > 0);
    // One warm-up call primes thread-local FFT plan caches so the
    // measured reps see steady state.
    std::hint::black_box(f());
    let mut samples: Vec<u64> = Vec::with_capacity(reps);
    for _ in 0..reps {
        let start = Instant::now();
        std::hint::black_box(f());
        samples.push(start.elapsed().as_nanos() as u64);
    }
    stats(samples)
}

/// Times two workloads with their reps interleaved (a, b, a, b, ...), so
/// slow machine-state drift (frequency scaling, cache temperature) hits
/// both sides equally instead of biasing whichever block ran second.
fn time_pair<RA, RB>(
    reps: usize,
    mut a: impl FnMut() -> RA,
    mut b: impl FnMut() -> RB,
) -> ((u64, u64), (u64, u64)) {
    assert!(reps > 0);
    std::hint::black_box(a());
    std::hint::black_box(b());
    let mut samples_a: Vec<u64> = Vec::with_capacity(reps);
    let mut samples_b: Vec<u64> = Vec::with_capacity(reps);
    for _ in 0..reps {
        let start = Instant::now();
        std::hint::black_box(a());
        samples_a.push(start.elapsed().as_nanos() as u64);
        let start = Instant::now();
        std::hint::black_box(b());
        samples_b.push(start.elapsed().as_nanos() as u64);
    }
    (stats(samples_a), stats(samples_b))
}

fn entry<R>(name: &str, reps: usize, f: impl FnMut() -> R) -> BenchEntry {
    let (median_ns, mean_ns) = time(reps, f);
    println!("{name}: median {median_ns} ns over {reps} reps");
    BenchEntry {
        name: name.to_string(),
        reps,
        median_ns,
        mean_ns,
    }
}

fn pair_entries<RA, RB>(
    name_a: &str,
    name_b: &str,
    reps: usize,
    a: impl FnMut() -> RA,
    b: impl FnMut() -> RB,
) -> (BenchEntry, BenchEntry) {
    let ((median_a, mean_a), (median_b, mean_b)) = time_pair(reps, a, b);
    println!("{name_a}: median {median_a} ns over {reps} reps (interleaved)");
    println!("{name_b}: median {median_b} ns over {reps} reps (interleaved)");
    (
        BenchEntry {
            name: name_a.to_string(),
            reps,
            median_ns: median_a,
            mean_ns: mean_a,
        },
        BenchEntry {
            name: name_b.to_string(),
            reps,
            median_ns: median_b,
            mean_ns: mean_b,
        },
    )
}

fn campaign() -> FaultCampaign {
    let spec = FaultSpec::none()
        .with_stuck_weights(0.02, 0.0)
        .with_dead_pixel_rate(0.02)
        .with_laser_drift(0.002, 0.05);
    FaultCampaign::new(AcceleratorConfig::refocus_fb(), spec)
        .with_severities(&[0.0, 1.0, 2.0, 4.0])
        .with_seeds(&[1, 2, 3])
        .with_workload(Workload {
            height: 8,
            width: 8,
            out_channels: 2,
            ..Workload::default()
        })
}

struct Options {
    check: bool,
    out: Option<PathBuf>,
    trace: Option<PathBuf>,
    obs_json: Option<PathBuf>,
    history: Option<PathBuf>,
}

fn parse_args(args: &[String]) -> Options {
    let mut opts = Options {
        check: false,
        out: None,
        trace: None,
        obs_json: None,
        history: None,
    };
    let mut i = 0;
    while i < args.len() {
        let value = |i: &mut usize| -> PathBuf {
            *i += 1;
            PathBuf::from(args.get(*i).unwrap_or_else(|| {
                eprintln!("flag needs a value");
                std::process::exit(2);
            }))
        };
        match args[i].as_str() {
            "--check" => opts.check = true,
            "--out" => opts.out = Some(value(&mut i)),
            "--trace" => opts.trace = Some(value(&mut i)),
            "--obs-json" => opts.obs_json = Some(value(&mut i)),
            "--history" => opts.history = Some(value(&mut i)),
            // `cargo bench` forwards harness flags like `--bench`.
            "--bench" => {}
            other => {
                eprintln!("unknown argument: {other}");
                eprintln!("usage: substrate_json [--check] [--out <path>] [--trace <path>] [--obs-json <path>] [--history <path>]");
                std::process::exit(2);
            }
        }
        i += 1;
    }
    opts
}

fn baseline_path() -> &'static str {
    concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_substrate.json")
}

/// Appends one timestamped line to the rolling history log. Best-effort:
/// a failure warns but never fails the bench (the log is telemetry, not
/// a gate).
fn append_history(report: &Report, check_mode: bool, path: &std::path::Path) {
    use std::io::Write;
    let unix_time_s = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    let line = history_line(report, check_mode, unix_time_s);
    let appended = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .and_then(|mut f| f.write_all(line.as_bytes()));
    match appended {
        Ok(()) => println!("appended history entry to {}", path.display()),
        Err(e) => eprintln!("cannot append history to {}: {e}", path.display()),
    }
}

fn lookup<'a>(value: &'a Value, key: &str) -> Option<&'a Value> {
    match value {
        Value::Map(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

fn as_f64(value: &Value) -> Option<f64> {
    match value {
        Value::F64(v) => Some(*v),
        Value::U64(v) => Some(*v as f64),
        Value::I64(v) => Some(*v as f64),
        _ => None,
    }
}

/// The CI regression gate: each fresh `speedups` entry must be within
/// 25% of the checked-in baseline, and no bit-identity check may flip
/// to false. Returns the number of violations (0 = pass).
fn check_against_baseline(report: &Report) -> usize {
    let text = match std::fs::read_to_string(baseline_path()) {
        Ok(text) => text,
        Err(e) => {
            eprintln!("cannot read baseline {}: {e}", baseline_path());
            return 1;
        }
    };
    let baseline = match serde_json::parse_value_str(&text) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("cannot parse baseline {}: {e}", baseline_path());
            return 1;
        }
    };
    let mut violations = 0;
    let fresh = [
        ("conv2d", report.speedups.conv2d),
        ("campaign", report.speedups.campaign),
        ("rfft_vs_fft_1024", report.speedups.rfft_vs_fft_1024),
    ];
    let base_speedups = lookup(&baseline, "speedups");
    for (name, fresh_value) in fresh {
        let Some(base) = base_speedups.and_then(|s| lookup(s, name)).and_then(as_f64) else {
            eprintln!("baseline missing speedups.{name}");
            violations += 1;
            continue;
        };
        let floor = base * 0.75;
        if fresh_value < floor {
            eprintln!(
                "REGRESSION speedups.{name}: fresh {fresh_value:.4} < {floor:.4} \
                 (baseline {base:.4} - 25% tolerance)"
            );
            violations += 1;
        } else {
            println!("speedups.{name}: fresh {fresh_value:.4} vs baseline {base:.4} — ok");
        }
    }
    let base_checks = lookup(&baseline, "checks");
    for (name, fresh_value) in [
        (
            "conv2d_serial_parallel_bit_identical",
            report.checks.conv2d_serial_parallel_bit_identical,
        ),
        (
            "campaign_serial_parallel_bit_identical",
            report.checks.campaign_serial_parallel_bit_identical,
        ),
    ] {
        let base = matches!(
            base_checks.and_then(|c| lookup(c, name)),
            Some(Value::Bool(true))
        );
        if base && !fresh_value {
            eprintln!("REGRESSION checks.{name}: flipped true -> false");
            violations += 1;
        }
    }
    violations
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = parse_args(&args);

    let threads_available = std::thread::available_parallelism().map_or(1, |n| n.get());
    let threads_used = refocus_par::max_threads();
    let mut benches = Vec::new();

    // The timed reps always run on the obs disabled fast path; the
    // instrumented export pass happens after measurement.
    assert!(!refocus_obs::recording());

    // FFT kernels.
    let complex_signal: Vec<Complex64> = (0..1024)
        .map(|i| Complex64::new((i as f64 * 0.13).sin(), (i as f64 * 0.07).cos()))
        .collect();
    let real_signal: Vec<f64> = (0..1024).map(|i| (i as f64 * 0.13).sin()).collect();
    // rfft vs fft is a speedup ratio, so the pair interleaves too.
    let (fft_entry, rfft_entry) = pair_entries(
        "fft_radix2_1024",
        "rfft_1024",
        400,
        || {
            let mut s = complex_signal.clone();
            fft(&mut s);
            s
        },
        || rfft(&real_signal),
    );
    let rfft_speedup = fft_entry.median_ns as f64 / rfft_entry.median_ns as f64;
    benches.push(fft_entry);
    benches.push(rfft_entry);
    let bluestein_signal: Vec<Complex64> = (0..1000)
        .map(|i| Complex64::new((i as f64 * 0.13).sin(), 0.0))
        .collect();
    benches.push(entry("fft_bluestein_1000", 200, || {
        let mut s = bluestein_signal.clone();
        fft(&mut s);
        s
    }));

    // One optical pass through the field-level JTC.
    let jtc = Jtc::ideal();
    let signal: Vec<f64> = (0..224).map(|i| (i as f64 * 0.1).sin().abs()).collect();
    let kernel: Vec<f64> = (0..9).map(|i| 0.1 * (i + 1) as f64).collect();
    benches.push(entry("jtc_pass_ideal_224x9", 200, || {
        jtc.correlate(&signal, &kernel).unwrap()
    }));

    // Optical conv2d, serial vs parallel (interleaved).
    let input = Tensor3::random(3, 12, 12, 0.0, 1.0, 1);
    let weights = Tensor4::random(8, 3, 3, 3, -1.0, 1.0, 2);
    let conv = || {
        OpticalExecutor::ideal()
            .conv2d(&input, &weights, 1, 1)
            .unwrap()
    };
    let (conv_serial, conv_parallel) = pair_entries(
        "optical_conv2d_serial",
        "optical_conv2d_parallel",
        30,
        || refocus_par::with_threads(1, conv),
        conv,
    );
    let conv_speedup = conv_serial.median_ns as f64 / conv_parallel.median_ns as f64;
    let conv_identical = refocus_par::with_threads(1, conv).data()
        == refocus_par::with_threads(threads_used, conv).data();
    benches.push(conv_serial);
    benches.push(conv_parallel);

    // Fault campaign grid, serial vs parallel (interleaved).
    let grid = campaign();
    let run = || grid.run().unwrap();
    let (camp_serial, camp_parallel) = pair_entries(
        "fault_campaign_serial",
        "fault_campaign_parallel",
        15,
        || refocus_par::with_threads(1, run),
        run,
    );
    let camp_speedup = camp_serial.median_ns as f64 / camp_parallel.median_ns as f64;
    let camp_identical =
        refocus_par::with_threads(1, run) == refocus_par::with_threads(threads_used, run);
    benches.push(camp_serial);
    benches.push(camp_parallel);

    let report = Report {
        schema: "refocus-bench-substrate/v1",
        threads_available,
        threads_used,
        checks: Checks {
            conv2d_serial_parallel_bit_identical: conv_identical,
            campaign_serial_parallel_bit_identical: camp_identical,
        },
        speedups: Speedups {
            conv2d: conv_speedup,
            campaign: camp_speedup,
            rfft_vs_fft_1024: rfft_speedup,
        },
        benches,
    };

    assert!(
        report.checks.conv2d_serial_parallel_bit_identical,
        "conv2d serial/parallel results diverged"
    );
    assert!(
        report.checks.campaign_serial_parallel_bit_identical,
        "campaign serial/parallel results diverged"
    );

    // Instrumented export pass, after all timing is done.
    if opts.trace.is_some() || opts.obs_json.is_some() {
        let collector = refocus_obs::Collector::enabled();
        std::hint::black_box(conv());
        std::hint::black_box(run());
        let obs_report = collector.finish();
        if let Some(path) = &opts.trace {
            obs_report
                .write_chrome_trace(path)
                .expect("write chrome trace");
            println!("wrote chrome trace to {}", path.display());
        }
        if let Some(path) = &opts.obs_json {
            obs_report.write_json(path).expect("write obs summary");
            println!("wrote obs summary to {}", path.display());
        }
    }

    let json = serde_json::to_string_pretty(&report).expect("report serializes") + "\n";
    let out = match (&opts.out, opts.check) {
        (Some(path), _) => Some(path.clone()),
        (None, false) => Some(PathBuf::from(baseline_path())),
        // --check without --out: compare only, leave the baseline alone.
        (None, true) => None,
    };
    if let Some(path) = out {
        std::fs::write(&path, &json).expect("write bench report");
        println!("wrote {}", path.display());
    }
    if let Some(path) = &opts.history {
        append_history(&report, opts.check, path);
    }
    println!(
        "conv2d speedup {:.2}x, campaign speedup {:.2}x, rfft vs fft {:.2}x ({} thread(s))",
        report.speedups.conv2d,
        report.speedups.campaign,
        report.speedups.rfft_vs_fft_1024,
        threads_used
    );

    if opts.check {
        let violations = check_against_baseline(&report);
        if violations > 0 {
            eprintln!("bench-regression gate FAILED with {violations} violation(s)");
            std::process::exit(1);
        }
        println!("bench-regression gate passed");
    }
}
