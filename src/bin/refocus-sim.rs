//! `refocus-sim` — command-line front end to the ReFOCUS simulator.
//!
//! ```text
//! refocus-sim --variant fb --network resnet50
//! refocus-sim --variant ff --network vgg16 --rfcus 8 --wavelengths 1 --json
//! refocus-sim --variant baseline --suite
//! refocus-sim report --experiment table4
//! refocus-sim fault-study --checkpoint run.jsonl --max-cells 4 --retries 2
//! refocus-sim obs-report diff base.json new.json --threshold 0.02
//! ```
//!
//! - no subcommand: simulate one network, or the five CNNs with `--suite`;
//! - `report`: print the paper's tables and figures;
//! - `fault-study`: run the fault-injection campaign. A `--checkpoint`
//!   journal lets a budget-limited run be repeated until it completes;
//!   `--resume` requires the journal. `--trace` and `--obs-json` export
//!   the obs session with its attribution ledger (DESIGN.md §9–§11);
//! - `obs-report`: render or diff such an obs summary.
//!
//! The exit status is 0 on success. It is 1 on a bad command line, an
//! error, an incomplete campaign or an unclean diff.

use refocus::arch::campaign::RunBudget;
use refocus::arch::config::{AcceleratorConfig, OpticalBufferKind};
use refocus::arch::simulator::{simulate_suite, Report};
use refocus::experiments::{all_experiments, fault_study, obs_report, Build, EXPERIMENTS};
use refocus::nn::layer::Network;
use refocus::nn::models;
use refocus::Accelerator;
use refocus_obs::Collector;
use std::fmt::Display;
use std::path::PathBuf;
use std::process::ExitCode;
use std::str::FromStr;
use std::time::Duration;

const USAGE: &str = "\
refocus-sim: simulate the ReFOCUS photonic CNN accelerator

USAGE:
    refocus-sim [OPTIONS]
    refocus-sim report [--experiment <id>] [--json] [--list]
    refocus-sim fault-study [--checkpoint <path> | --resume <path>] [--max-cells <n>]
                            [--retries <n>] [--wall-clock-secs <n>] [--json]
                            [--trace <path>] [--obs-json <path>]
    refocus-sim obs-report render <summary.json>
    refocus-sim obs-report diff <base.json> <new.json> [--threshold <frac>]

OPTIONS:
    --variant <ff|fb|baseline|single>   accelerator preset  [default: fb]
    --network <name>                    one CNN (see --list-networks) [default: resnet34]
    --suite                             run all five paper CNNs instead
    --rfcus <n>                         override RFCU count
    --wavelengths <n>                   override WDM wavelength count
    --delay <cycles>                    override delay-line length (caps TA)
    --reuses <r>                        feedback-buffer reuse count
    --batch <n>                         weight-stationary batch size
    --dram                              charge HBM2 DRAM reads (Sec. 7.3)
    --weight-compression <x>            weight-sharing ratio (e.g. 4.5)
    --json                              emit the full report as JSON
    --list-networks                     list available workloads
    -h, --help                          show this help";

/// The command line as a bag of tokens. Flags are taken out by name,
/// positionals in order, and [`Args::finish`] rejects whatever is left.
struct Args(Vec<String>);

impl Args {
    /// Takes every occurrence of a boolean flag.
    fn flag(&mut self, name: &str) -> bool {
        let before = self.0.len();
        self.0.retain(|arg| arg != name);
        self.0.len() < before
    }

    /// Takes every `name <value>` pair; the last one wins.
    fn value<T: FromStr>(&mut self, name: &str) -> Result<Option<T>, String>
    where
        T::Err: Display,
    {
        let mut found = None;
        while let Some(i) = self.0.iter().position(|arg| arg == name) {
            if i + 1 == self.0.len() {
                return Err(format!("{name} needs a value"));
            }
            let raw = self.0.remove(i + 1);
            self.0.remove(i);
            found = Some(raw.parse().map_err(|e| format!("{name}: {e}"))?);
        }
        Ok(found)
    }

    /// Takes the first token that is not a flag.
    fn positional(&mut self) -> Option<String> {
        let i = self.0.iter().position(|arg| !arg.starts_with('-'))?;
        Some(self.0.remove(i))
    }

    /// Rejects anything no flag or positional took.
    fn finish(self) -> Result<(), String> {
        match self.0.first() {
            Some(arg) => Err(format!("unknown argument: {arg}")),
            None => Ok(()),
        }
    }
}

/// What one invocation does, decided before anything runs.
enum Command {
    /// Text printed as is (help, network list).
    Print(String),
    /// One network, or the evaluation suite when `network` is `None`.
    Simulate {
        accelerator: Accelerator,
        network: Option<Network>,
        json: bool,
    },
    Report {
        only: Option<Build>,
        json: bool,
        list: bool,
    },
    FaultStudy {
        checkpoint: Option<PathBuf>,
        resume: Option<PathBuf>,
        budget: RunBudget,
        json: bool,
        trace: Option<PathBuf>,
        obs_json: Option<PathBuf>,
    },
    ObsRender(String),
    ObsDiff {
        base: String,
        new: String,
        threshold: f64,
    },
}

fn parse(argv: &[String]) -> Result<Command, String> {
    let rest = || Args(argv[1..].to_vec());
    let parsed = match argv.first().map(String::as_str) {
        Some("report") => parse_report(rest()),
        Some("fault-study") => parse_fault_study(rest()),
        Some("obs-report") => parse_obs_report(rest()),
        Some(other) if !other.starts_with('-') => Err(format!("unknown subcommand: {other}")),
        _ => parse_simulate(Args(argv.to_vec())),
    };
    parsed.map_err(|e| format!("{e}\nsee `refocus-sim --help` for usage"))
}

/// The `--network` spelling of a suite network: `ResNet-34` → `resnet34`.
fn short_name(network: &Network) -> String {
    network.name().to_ascii_lowercase().replace('-', "")
}

/// Looks a suite network up by its short or its hyphenated name, in any case.
fn network_by_name(name: &str) -> Option<Network> {
    let wanted = name.to_ascii_lowercase();
    models::evaluation_suite()
        .into_iter()
        .find(|n| wanted == short_name(n) || wanted == n.name().to_ascii_lowercase())
}

fn parse_simulate(mut args: Args) -> Result<Command, String> {
    if args.flag("-h") | args.flag("--help") {
        return Ok(Command::Print(format!("{USAGE}\n")));
    }
    if args.flag("--list-networks") {
        let suite = models::evaluation_suite();
        return Ok(Command::Print(
            suite.iter().map(|n| short_name(n) + "\n").collect(),
        ));
    }
    let variant: Option<String> = args.value("--variant")?;
    let mut accelerator = match variant.as_deref().unwrap_or("fb") {
        "ff" => Accelerator::refocus_ff(),
        "fb" => Accelerator::refocus_fb(),
        "baseline" => Accelerator::photofourier_baseline(),
        "single" => Accelerator::single_jtc(),
        other => return Err(format!("unknown variant: {other} (ff|fb|baseline|single)")),
    };
    if let Some(n) = args.value("--rfcus")? {
        accelerator = accelerator.with_rfcus(n);
    }
    if let Some(n) = args.value("--wavelengths")? {
        accelerator = accelerator.with_wavelengths(n);
    }
    if let Some(cycles) = args.value("--delay")? {
        accelerator = accelerator.with_delay_cycles(cycles);
    }
    if let Some(reuses) = args.value("--reuses")? {
        accelerator = accelerator.with_optical_buffer(OpticalBufferKind::FeedBack { reuses });
        if accelerator.config().delay_cycles == 0 {
            // The feedback buffer replays through a delay line.
            accelerator = accelerator.with_delay_cycles(16);
        }
    }
    if let Some(batch) = args.value("--batch")? {
        accelerator = accelerator.with_batch(batch);
    }
    if let Some(ratio) = args.value("--weight-compression")? {
        accelerator = accelerator.with_weight_compression(ratio);
    }
    let accelerator = accelerator.with_dram(args.flag("--dram"));
    let name: Option<String> = args.value("--network")?;
    let suite = args.flag("--suite");
    let json = args.flag("--json");
    args.finish()?;
    accelerator
        .config()
        .validate()
        .map_err(|e| format!("invalid configuration: {e}"))?;
    let name = name.as_deref().unwrap_or("resnet34");
    let network = network_by_name(name)
        .ok_or_else(|| format!("unknown network: {name} (try --list-networks)"))?;
    Ok(Command::Simulate {
        accelerator,
        network: (!suite).then_some(network),
        json,
    })
}

fn parse_report(mut args: Args) -> Result<Command, String> {
    let short: Option<String> = args.value("-e")?;
    let id = args.value::<String>("--experiment")?.or(short);
    let json = args.flag("--json");
    let list = args.flag("--list");
    args.finish()?;
    let only = match id {
        Some(id) if !list => Some(
            EXPERIMENTS
                .iter()
                .find(|(key, _)| *key == id)
                .map(|(_, build)| *build)
                .ok_or_else(|| format!("unknown experiment id: {id} (try --list)"))?,
        ),
        _ => None,
    };
    Ok(Command::Report { only, json, list })
}

fn parse_fault_study(mut args: Args) -> Result<Command, String> {
    let mut budget = RunBudget::default();
    if let Some(n) = args.value("--max-cells")? {
        budget = budget.with_max_cells(n);
    }
    if let Some(n) = args.value("--retries")? {
        budget = budget.with_retries(n);
    }
    if let Some(secs) = args.value("--wall-clock-secs")? {
        budget = budget.with_wall_clock(Duration::from_secs(secs));
    }
    let checkpoint = args.value("--checkpoint")?;
    let resume = args.value("--resume")?;
    if checkpoint.is_some() && resume.is_some() {
        return Err("--checkpoint and --resume are mutually exclusive".into());
    }
    let command = Command::FaultStudy {
        checkpoint,
        resume,
        budget,
        json: args.flag("--json"),
        trace: args.value("--trace")?,
        obs_json: args.value("--obs-json")?,
    };
    args.finish()?;
    Ok(command)
}

fn parse_obs_report(mut args: Args) -> Result<Command, String> {
    let command = match args.positional().as_deref() {
        Some("render") => Command::ObsRender(
            args.positional()
                .ok_or("obs-report render needs a summary path")?,
        ),
        Some("diff") => {
            let threshold = args.value::<f64>("--threshold")?.unwrap_or(0.0);
            if threshold < 0.0 || !threshold.is_finite() {
                return Err(format!(
                    "--threshold: not a non-negative number: {threshold}"
                ));
            }
            match (args.positional(), args.positional()) {
                (Some(base), Some(new)) => Command::ObsDiff {
                    base,
                    new,
                    threshold,
                },
                _ => return Err("obs-report diff needs two summary paths".into()),
            }
        }
        _ => return Err("obs-report needs `render` or `diff`".into()),
    };
    args.finish()?;
    Ok(command)
}

/// Runs a parsed command; `Ok(false)` is a clean run that still fails
/// (an incomplete campaign or an unclean diff).
fn run(command: Command) -> Result<bool, String> {
    match command {
        Command::Print(text) => print!("{text}"),
        Command::Simulate {
            accelerator,
            network: Some(network),
            json,
        } => {
            let r = accelerator
                .run(&network)
                .map_err(|e| format!("simulation failed: {e}"))?;
            if json {
                print_json(serde_json::to_string_pretty(&r))?;
            } else {
                print_report(&r);
            }
        }
        Command::Simulate {
            accelerator, json, ..
        } => {
            let s = accelerator
                .run_suite(&models::evaluation_suite())
                .map_err(|e| format!("simulation failed: {e}"))?;
            if json {
                print_json(serde_json::to_string_pretty(&s))?;
            } else {
                for r in &s.reports {
                    print_report(r);
                    println!();
                }
                println!(
                    "geomean: {:.0} FPS | {:.0} FPS/W | {:.1} FPS/mm^2 | mean {:.2} W",
                    s.geomean_fps(),
                    s.geomean_fps_per_watt(),
                    s.geomean_fps_per_mm2(),
                    s.mean_power_w()
                );
            }
        }
        Command::Report { only, json, list } => {
            if list {
                for e in all_experiments() {
                    println!("{:8}  {}", e.id, e.title);
                }
                return Ok(true);
            }
            let experiments = match only {
                Some(build) => vec![build()],
                None => all_experiments(),
            };
            if json {
                print_json(serde_json::to_string_pretty(&experiments))?;
            } else {
                for e in &experiments {
                    println!("{e}");
                }
            }
        }
        Command::FaultStudy {
            checkpoint,
            resume,
            budget,
            json,
            trace,
            obs_json,
        } => {
            let observed = trace.is_some() || obs_json.is_some();
            let collector = Collector::new(observed);
            if observed {
                // The campaign exercises only the functional optical path,
                // which has no energy model. Fold in one analytical suite
                // pass so the exported trace and summary also carry the
                // attribution-ledger families that `obs-report` renders.
                simulate_suite(
                    &models::evaluation_suite(),
                    &AcceleratorConfig::refocus_fb(),
                )
                .map_err(|e| format!("attribution suite pass failed: {e}"))?;
            }
            let campaign = fault_study::campaign();
            let result = match (&resume, &checkpoint) {
                (Some(path), _) => campaign.resume(path),
                (None, Some(path)) => campaign.run_with_checkpoint(path, &budget),
                (None, None) => campaign.run_budgeted(&budget),
            };
            let session = collector.finish();
            if let Some(path) = &trace {
                session
                    .write_chrome_trace(path)
                    .map_err(|e| format!("cannot write chrome trace to {}: {e}", path.display()))?;
            }
            if let Some(path) = &obs_json {
                session
                    .write_json(path)
                    .map_err(|e| format!("cannot write obs summary to {}: {e}", path.display()))?;
            }
            let report = result.map_err(|e| format!("campaign failed: {e}"))?;
            if json {
                print_json(serde_json::to_string_pretty(&report))?;
            } else {
                println!("{}", fault_study::table(&report));
            }
            for failure in &report.failed {
                eprintln!(
                    "failed cell: severity {:.1}x seed {} after {} attempt(s) ({}): {}",
                    failure.severity, failure.seed, failure.attempts, failure.kind, failure.error
                );
            }
            if !report.skipped.is_empty() {
                eprintln!(
                    "{} cell(s) skipped by the budget; re-run with the same --checkpoint to continue",
                    report.skipped.len()
                );
            }
            return Ok(report.is_complete());
        }
        Command::ObsRender(path) => print!("{}", obs_report::render(&load(&path)?)),
        Command::ObsDiff {
            base,
            new,
            threshold,
        } => {
            let report = obs_report::diff(&load(&base)?, &load(&new)?);
            print!("{}", obs_report::render_diff(&report, threshold));
            return Ok(report.is_clean(threshold));
        }
    }
    Ok(true)
}

fn print_json(json: Result<String, serde_json::Error>) -> Result<(), String> {
    let json = json.map_err(|e| format!("serialization failed: {e}"))?;
    println!("{json}");
    Ok(())
}

fn print_report(r: &Report) {
    println!(
        "{} on {}: {:.0} FPS | {:.2} W | {:.1} mm^2 | {:.0} FPS/W | {:.1} FPS/mm^2",
        r.config_name,
        r.network_name,
        r.metrics.fps,
        r.metrics.power_w,
        r.metrics.area_mm2,
        r.metrics.fps_per_watt(),
        r.metrics.fps_per_mm2()
    );
    println!("{}", r.energy);
}

fn load(path: &str) -> Result<obs_report::Summary, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    obs_report::parse_summary(&text).map_err(|e| format!("{path}: {e}"))
}

/// The process exit status for an outcome; errors are reported on stderr.
fn status(outcome: Result<bool, String>) -> u8 {
    match outcome {
        Ok(true) => 0,
        Ok(false) => 1,
        Err(message) => {
            eprintln!("{message}");
            1
        }
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    ExitCode::from(status(parse(&argv).and_then(run)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn argv(line: &str) -> Vec<String> {
        line.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn malformed_command_lines_fail_with_a_message_and_status_1() {
        // (command line, text the error must contain)
        let cases = [
            ("simulate --json", "unknown subcommand: simulate"),
            ("--bogus", "unknown argument: --bogus"),
            ("report --bogus", "unknown argument: --bogus"),
            ("fault-study --bogus", "unknown argument: --bogus"),
            (
                "obs-report render a.json --bogus",
                "unknown argument: --bogus",
            ),
            (
                "obs-report diff a.json b.json --bogus",
                "unknown argument: --bogus",
            ),
            ("obs-report bogus", "needs `render` or `diff`"),
            ("--network", "--network needs a value"),
            ("report --experiment", "--experiment needs a value"),
            ("fault-study --checkpoint", "--checkpoint needs a value"),
            (
                "obs-report diff a.json b.json --threshold",
                "--threshold needs a value",
            ),
            ("obs-report render", "needs a summary path"),
            ("obs-report diff a.json", "needs two summary paths"),
            ("--rfcus many", "--rfcus: invalid digit"),
            ("--rfcus -3", "--rfcus: invalid digit"),
            ("fault-study --max-cells lots", "--max-cells: invalid digit"),
            (
                "obs-report diff a b --threshold -0.5",
                "not a non-negative number",
            ),
            (
                "obs-report diff a b --threshold NaN",
                "not a non-negative number",
            ),
            (
                "obs-report diff a b --threshold inf",
                "not a non-negative number",
            ),
            (
                "fault-study --checkpoint a --resume b",
                "mutually exclusive",
            ),
            ("report --experiment fig99", "unknown experiment id: fig99"),
            ("--variant huge", "unknown variant: huge"),
            ("--network lenet", "unknown network: lenet"),
            ("--rfcus 0", "invalid configuration"),
        ];
        for (line, expected) in cases {
            let message = match parse(&argv(line)) {
                Ok(_) => panic!("`{line}` parsed"),
                Err(message) => message,
            };
            assert!(message.contains(expected), "`{line}`: {message}");
            assert_eq!(status(Err(message)), 1, "`{line}`");
        }
    }

    #[test]
    fn well_formed_command_lines_parse() {
        for line in [
            "",
            "--variant ff --network VGG-16 --rfcus 8 --wavelengths 1 --json",
            "--variant baseline --suite --delay 4 --reuses 5 --batch 8 --dram",
            "--weight-compression 4.5 --network resnet-18",
            "report -e table4 --json",
            "report --experiment nope --list",
            "fault-study --resume j --retries 2 --wall-clock-secs 9 --trace t --obs-json o",
            "obs-report diff a.json b.json --threshold 0.02",
            "obs-report render a.json",
        ] {
            if let Err(message) = parse(&argv(line)) {
                panic!("`{line}`: {message}");
            }
        }
    }

    #[test]
    fn networks_resolve_by_short_and_hyphenated_names() {
        for name in [
            "alexnet",
            "VGG16",
            "vgg-16",
            "resnet34",
            "ResNet-34",
            "resnet-50",
        ] {
            assert!(network_by_name(name).is_some(), "{name}");
        }
        for name in ["resnet", "vgg_16", "res-net34"] {
            assert!(network_by_name(name).is_none(), "{name}");
        }
    }

    #[test]
    fn simulate_flags_reach_the_config() {
        let Ok(Command::Simulate {
            accelerator,
            network: None,
            json: true,
        }) = parse(&argv(
            "--variant baseline --reuses 5 --batch 8 --suite --json",
        ))
        else {
            panic!("expected a suite simulation");
        };
        let config = accelerator.config();
        assert_eq!(
            config.optical_buffer,
            OpticalBufferKind::FeedBack { reuses: 5 }
        );
        assert_eq!(config.delay_cycles, 16);
        assert_eq!(config.batch, 8);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]
        #[test]
        fn random_command_lines_never_panic(
            words in prop::collection::vec(
                prop::sample::select(vec![
                    "report", "fault-study", "obs-report", "render", "diff", "--variant",
                    "ff", "single", "--network", "vgg-16", "--suite", "--rfcus", "--wavelengths",
                    "--delay", "--reuses", "--batch", "--dram", "--weight-compression",
                    "--json", "--list-networks", "--experiment", "-e", "table4", "--list",
                    "--checkpoint", "--resume", "--max-cells", "--retries",
                    "--wall-clock-secs", "--trace", "--obs-json", "--threshold", "0", "3",
                    "-1", "NaN", "1e400", "18446744073709551616", "", "-", "--", "x.json",
                ]),
                0..8,
            ),
        ) {
            let argv: Vec<String> = words.iter().map(|w| w.to_string()).collect();
            let _ = parse(&argv);
        }
    }
}
