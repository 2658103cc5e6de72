//! Host-time benchmark of the ReFOCUS simulator.
//!
//! ```text
//! cargo run --offline --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload layers --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Run from the repository root. `--trace 0` times rounds of the workload
//! with tracing off and prints the end-to-end metrics; `--trace 1` runs
//! the per-layer probes and writes a Chrome trace of one round to
//! `.bench_out/`. Both print a run manifest and the output digest, then
//! one JSON result as the last line, and exit non-zero if any output
//! check failed. See `perfbench/README.md` for the workloads and metrics.

mod census;
mod probes;
mod sys;
mod workloads;

use probes::{Metrics, TracedRound};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;
use sys::{median, time_ns, Digest};
use workloads::{LayersWork, Round, Scale};

const USAGE: &str =
    "usage: perfbench --workload <layers|layers_q8> --seed <n> --seconds <n> --trace <0|1>";

/// Where the benchmark writes: traces, per-layer metrics, and the
/// temporary journal directory. Relative to the working directory.
const OUT_DIR: &str = ".bench_out";

/// Timing samples: at least this many, each covering at least this much
/// host time (whole rounds, or whole set-ups), so a workload whose rounds
/// take milliseconds is not timed one jittery round at a time.
struct Sampling {
    min_samples: usize,
    round_ns: f64,
    setup_ns: f64,
    setup_trials: usize,
}

fn sampling(scale: Scale) -> Sampling {
    match scale {
        Scale::Full => Sampling {
            min_samples: 3,
            round_ns: 1e8,
            setup_ns: 1e7,
            setup_trials: 7,
        },
        Scale::Smoke => Sampling {
            min_samples: 1,
            round_ns: 0.0,
            setup_ns: 0.0,
            setup_trials: 2,
        },
    }
}

/// Calls `f` until `min_ns` have passed: its last result, the mean
/// nanoseconds per call, and the number of calls.
fn repeat_for<R>(min_ns: f64, mut f: impl FnMut() -> R) -> (R, f64, usize) {
    let (mut total, mut calls) = (0.0, 0);
    loop {
        let (r, ns) = time_ns(&mut f);
        total += ns;
        calls += 1;
        if total >= min_ns {
            return (r, total / calls as f64, calls);
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} '{value}': {e}");
        match flag.as_str() {
            "--workload" if workloads::NAMES.contains(&value.as_str()) => {
                workload = Some(value.clone())
            }
            "--workload" => return Err(format!("unknown workload '{value}'")),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| bad(&e))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(format!("bad --seconds '{value}'"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace '{value}': expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag '{flag}'")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// A directory removed, with everything in it, when the run ends.
struct TempDir(PathBuf);

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Everything one run prints.
struct Outcome {
    manifest: Vec<(&'static str, String)>,
    digest: Digest,
    attempted: u64,
    failed: u64,
    metrics: Metrics,
}

impl Outcome {
    fn correct(&self) -> bool {
        self.failed == 0
    }

    fn result_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .0
            .iter()
            .map(|(name, value, unit)| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json_str(name),
                    json_num(*value),
                    json_str(unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    fn manifest_json(&self) -> String {
        let fields: Vec<String> = self
            .manifest
            .iter()
            .map(|(k, v)| format!("{}: {v}", json_str(k)))
            .collect();
        format!("{{{}}}", fields.join(", "))
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number with every digit Rust's shortest round-trip form gives.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        // JSON has no infinities; the largest finite double stands in.
        format!("{}", f64::MAX.copysign(v))
    }
}

/// One round on `threads` pool threads. A panic fails the round.
fn guarded_round(work: &LayersWork, threads: usize) -> Round {
    let caught =
        refocus_par::with_threads(threads, || catch_unwind(AssertUnwindSafe(|| work.round())));
    caught.unwrap_or_else(|payload| {
        let mut digest = Digest::default();
        digest.text(&refocus_par::panic_message(payload.as_ref()));
        Round {
            ops: 1,
            failed: 1,
            digest,
            call_ns: 0.0,
        }
    })
}

/// Set-up is timed in several trials, each on a fresh thread so
/// thread-local FFT plan caches start cold; the last trial, on this
/// thread, keeps its result.
fn setup(args: &Args, scale: Scale) -> (LayersWork, f64) {
    let sampling = sampling(scale);
    let build = || LayersWork::setup(&args.workload, scale, args.seed);
    let mut times: Vec<f64> = (1..sampling.setup_trials)
        .map(|_| {
            std::thread::scope(|s| {
                s.spawn(|| {
                    // A fresh thread's first allocation creates its malloc
                    // arena; keep that out of the set-up being timed.
                    drop(std::hint::black_box(Vec::<u8>::with_capacity(1 << 16)));
                    repeat_for(sampling.setup_ns, build).1
                })
                .join()
                .expect("set-up does not panic")
            })
        })
        .collect();
    let (work, ns, _) = repeat_for(sampling.setup_ns, build);
    times.push(ns);
    (
        work.expect("workload names are checked when parsing"),
        median(&mut times) / 1e9,
    )
}

fn run(args: &Args, scale: Scale, out_dir: &Path, start: Instant) -> Outcome {
    std::fs::create_dir_all(out_dir).expect("the output directory is writable");
    let threads = sys::available_threads();
    let calibration_ns = sys::calibration_ns();
    let (work, setup_s) = setup(args, scale);
    let sampling = sampling(scale);

    // Determinism: every later round must reproduce the 1-thread digest.
    let serial = guarded_round(&work, 1);
    let mut attempted = serial.ops;
    let mut failed = serial.failed;
    let mut check = |round: &Round| {
        attempted += round.ops;
        failed += if round.digest == serial.digest {
            round.failed
        } else {
            round.ops
        };
    };

    // Timed samples of whole rounds until `seconds` have passed: the mean
    // ns per round of each sample, the rounds run, and the ops done.
    let mut timed = |seconds: f64| {
        let t0 = Instant::now();
        let (mut walls, mut rounds, mut ops) = (Vec::new(), 0, 0);
        while walls.len() < sampling.min_samples || t0.elapsed().as_secs_f64() < seconds {
            let (_, ns, calls) = repeat_for(sampling.round_ns, || {
                let round = guarded_round(&work, threads);
                check(&round);
                ops += round.ops;
            });
            walls.push(ns);
            rounds += calls;
        }
        (walls, rounds, ops)
    };

    let first_round_s = start.elapsed().as_secs_f64();
    let mut metrics = Metrics::default();
    let rounds;
    if args.trace {
        // Untraced rounds give the base the traced round is compared to.
        let (mut walls, untraced_rounds, _) = timed(0.0);
        let collector = refocus_obs::Collector::enabled();
        let (round, traced_ns) = time_ns(|| guarded_round(&work, threads));
        let report = collector.finish();
        check(&round);
        rounds = untraced_rounds + 1;
        let trace_path = out_dir.join(format!("{}.trace.json", args.workload));
        report
            .write_chrome_trace(&trace_path)
            .expect("the trace file is writable");
        // Flush the trace now, so its writeback cannot slow a later run.
        std::fs::File::open(&trace_path)
            .and_then(|f| f.sync_all())
            .expect("the trace file syncs");
        let traced = TracedRound {
            untraced_ns: median(&mut walls),
            traced_ns,
            call_ns: round.call_ns,
            jtc_passes: report.counter("jtc.passes"),
        };
        let temp = TempDir(out_dir.join(format!("journal-{}", std::process::id())));
        let probed = probes::all(
            &work,
            &traced,
            args.seed,
            threads,
            calibration_ns,
            scale,
            &temp.0,
        );
        attempted += probed.attempted;
        failed += probed.failed;
        metrics = probed.metrics;
    } else {
        let cpu0 = sys::cpu_seconds();
        let t0 = Instant::now();
        let (mut walls, timed_rounds, ops) = timed(args.seconds);
        let total_s = t0.elapsed().as_secs_f64();
        let cpu = sys::cpu_seconds() - cpu0;
        rounds = timed_rounds;
        metrics.push("setup_s", setup_s, "s");
        metrics.push("wall_s", median(&mut walls) / 1e9, "s");
        metrics.push("ops_per_s", ops as f64 / total_s, "ops/s");
        metrics.push("cpu_s", cpu / rounds as f64, "s");
        metrics.push("peak_rss_mib", sys::peak_rss_mib(), "MiB");
        metrics.push(
            "ok_ratio",
            (attempted - failed) as f64 / attempted.max(1) as f64,
            "ratio",
        );
    }

    let q = json_str;
    let manifest = vec![
        ("workload", q(&args.workload)),
        ("revision", q(&sys::revision())),
        ("profile", q(sys::profile())),
        ("threads_used", threads.to_string()),
        ("threads_available", sys::available_threads().to_string()),
        ("seed", args.seed.to_string()),
        ("journal_fs", q(&sys::filesystem_type(out_dir))),
        ("host.calibration_ns", json_num(calibration_ns)),
        ("rounds", rounds.to_string()),
        ("peak_rss_mib", json_num(sys::peak_rss_mib())),
        ("first_round_s", json_num(first_round_s)),
        ("digest", q(&serial.digest.hex())),
    ];
    Outcome {
        manifest,
        digest: serial.digest,
        attempted,
        failed,
        metrics,
    }
}

fn main() -> ExitCode {
    let start = Instant::now();
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let out_dir = Path::new(OUT_DIR);
    let outcome = run(&args, Scale::Full, out_dir, start);
    if args.trace {
        let layers = out_dir.join(format!("{}.layers.json", args.workload));
        std::fs::write(&layers, outcome.result_json() + "\n")
            .expect("the per-layer metrics file is writable");
    }
    println!("manifest {}", outcome.manifest_json());
    println!("digest {} {}", args.workload, outcome.digest.hex());
    println!("{}", outcome.result_json());
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "perfbench: {} of {} ops failed an output check",
            outcome.failed, outcome.attempted
        );
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::Value;

    fn benchmark() -> Value {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
        serde_json::parse_value_str(&text).expect("BENCHMARK.json parses")
    }

    fn names(bench: &Value, key: &str) -> Vec<String> {
        let Some(Value::Seq(items)) = bench.get(key) else {
            panic!("BENCHMARK.json has no list '{key}'");
        };
        items
            .iter()
            .map(|item| match item.get("name") {
                Some(Value::Str(name)) => name.clone(),
                _ => panic!("an entry of '{key}' has no name"),
            })
            .collect()
    }

    fn emitted(outcome: &Outcome) -> Vec<String> {
        outcome.metrics.0.iter().map(|(n, ..)| n.clone()).collect()
    }

    #[test]
    fn metric_names_are_valid_and_within_limits() {
        let bench = benchmark();
        let end_to_end = names(&bench, "end_to_end");
        let per_layer = names(&bench, "per_layer");
        assert!((1..=16).contains(&end_to_end.len()));
        assert!((1..=128).contains(&per_layer.len()));
        let mut all: Vec<&String> = end_to_end.iter().chain(&per_layer).collect();
        for name in &all {
            assert!(
                !name.is_empty()
                    && name.len() <= 64
                    && name.starts_with(|c: char| c.is_ascii_alphanumeric())
                    && name
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "bad metric name '{name}'"
            );
        }
        let count = all.len();
        all.sort();
        all.dedup();
        assert_eq!(all.len(), count, "metric names repeat");
        assert_eq!(names(&bench, "workloads"), workloads::NAMES);
    }

    #[test]
    fn shapes_are_the_twenty_cnn_conv_shapes() {
        let shapes: Vec<String> = workloads::conv_shapes()
            .into_iter()
            .map(|s| s.name)
            .collect();
        let expected = "k11s4p2_224 k5s1p2_27 k3s1p1_13 k3s1p1_224 k3s1p1_112 k3s1p1_56 \
                        k3s1p1_28 k3s1p1_14 k7s2p3_224 k3s2p1_56 k1s2p0_56 k3s2p1_28 \
                        k1s2p0_28 k3s2p1_14 k3s1p1_7 k1s2p0_14 k1s1p0_56 k1s1p0_28 \
                        k1s1p0_14 k1s1p0_7";
        assert_eq!(shapes, expected.split_whitespace().collect::<Vec<_>>());
    }

    #[test]
    fn arguments_are_checked() {
        let parse = |s: &str| parse_args(s.split_whitespace().map(String::from));
        assert_eq!(
            parse("--workload layers_q8 --seed 3 --seconds 10 --trace 1"),
            Ok(Args {
                workload: "layers_q8".into(),
                seed: 3,
                seconds: 10.0,
                trace: true,
            })
        );
        for bad in [
            "--workload nope --seed 3 --seconds 10 --trace 0",
            "--workload layers_q8 --seed -1 --seconds 10 --trace 0",
            "--workload layers_q8 --seed 3 --seconds NaN --trace 0",
            "--workload layers_q8 --seed 3 --seconds 10 --trace 2",
            "--workload layers_q8 --seed 3 --seconds 10",
            "--workload layers_q8 --seed 3 --seconds 10 --trace 0 --extra 1",
            "--workload",
        ] {
            assert!(parse(bad).is_err(), "accepted '{bad}'");
        }
    }

    /// Every workload's round, checks, and traced probes on small inputs.
    /// One test, so the process-wide trace collector is never shared.
    #[test]
    fn smoke_run_of_every_workload_untraced_and_traced() {
        let bench = benchmark();
        let out_dir = std::env::temp_dir().join(format!("perfbench-smoke-{}", std::process::id()));
        let _cleanup = TempDir(out_dir.clone());
        for workload in workloads::NAMES {
            for trace in [false, true] {
                let args = Args {
                    workload: workload.into(),
                    seed: 5,
                    seconds: 0.0,
                    trace,
                };
                let outcome = run(&args, Scale::Smoke, &out_dir, Instant::now());
                assert!(outcome.correct(), "{workload} trace={trace} failed a check");
                assert!(outcome.attempted >= 2, "{workload}");
                let key = if trace { "per_layer" } else { "end_to_end" };
                assert_eq!(emitted(&outcome), names(&bench, key), "{workload} {key}");
                assert!(
                    outcome.metrics.0.iter().all(|(_, v, _)| v.is_finite()),
                    "{workload}: non-finite metric"
                );
                if !trace {
                    let again = run(&args, Scale::Smoke, &out_dir, Instant::now());
                    assert_eq!(again.digest, outcome.digest, "{workload} digest repeats");
                }
            }
        }
    }
}
