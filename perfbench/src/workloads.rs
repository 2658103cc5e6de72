//! The workloads — the CNN layer shapes through the ideal or the 8-bit
//! optical path — and the fault campaign the per-layer probes run: what
//! each sets up, what one round runs, and the output checks it makes.

use crate::sys::{derive_seed, time_ns, Digest};
use refocus_arch::campaign::{CampaignReport, FaultCampaign, RunBudget, Workload};
use refocus_arch::config::AcceleratorConfig;
use refocus_arch::functional::OpticalExecutor;
use refocus_nn::models::evaluation_suite;
use refocus_nn::tensor::{Tensor3, Tensor4};
use std::path::{Path, PathBuf};

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 2] = ["layers", "layers_q8"];

/// Fault-campaign grid: the `fault_study` severities, widened to 200
/// seeds (1000 cells); the budgeted first part computes half of them.
const SEVERITIES: [f64; 5] = [0.0, 0.5, 1.0, 2.0, 4.0];
const CAMPAIGN_SEEDS: usize = 200;

/// Channel slice every layer shape runs at: full spatial size, 2 input ×
/// 4 output channels, so the biggest shape takes a fraction of a second.
pub const SLICE_IN: usize = 2;
pub const SLICE_OUT: usize = 4;

/// Output checks, as a share of the reference output's peak magnitude.
const IDEAL_TOLERANCE: f64 = 1e-7;
/// The bound `tests/end_to_end.rs` puts on the 8-bit converter path.
const QUANTIZED_TOLERANCE: f64 = 0.15;

/// Full-size runs, or the small variant the benchmark's own tests use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    #[cfg_attr(not(test), allow(dead_code))] // only the tests run small
    Smoke,
}

/// One distinct conv geometry of the evaluated CNNs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Shape {
    pub name: String,
    pub kernel: usize,
    pub stride: usize,
    pub padding: usize,
    pub hw: usize,
}

/// The distinct `(kernel, stride, padding, input_hw)` conv shapes of
/// AlexNet, VGG-16 and ResNet-18/34/50, in first-use order.
pub fn conv_shapes() -> Vec<Shape> {
    let mut shapes: Vec<Shape> = Vec::new();
    for net in evaluation_suite() {
        for l in net.layers() {
            let shape = shape_of(l);
            if !shapes.contains(&shape) {
                shapes.push(shape);
            }
        }
    }
    shapes
}

/// The shape a network layer maps onto.
pub fn shape_of(l: &refocus_nn::layer::ConvSpec) -> Shape {
    assert_eq!(l.input_hw.0, l.input_hw.1, "{}: square inputs only", l.name);
    Shape {
        name: format!("k{}s{}p{}_{}", l.kernel, l.stride, l.padding, l.input_hw.0),
        kernel: l.kernel,
        stride: l.stride,
        padding: l.padding,
        hw: l.input_hw.0,
    }
}

/// Result of one round.
#[derive(Debug, Clone, Copy)]
pub struct Round {
    /// Ops attempted (the per-workload unit).
    pub ops: u64,
    /// Ops that returned `Err`, panicked, or failed an output check.
    pub failed: u64,
    pub digest: Digest,
    /// Host nanoseconds spent inside the simulator calls the round makes.
    pub call_ns: f64,
}

/// One layer shape with its seeded operands and digital reference.
pub struct LayerCase {
    pub shape: Shape,
    pub input: Tensor3,
    pub weights: Tensor4,
    reference: Tensor3,
    peak: f64,
}

impl LayerCase {
    fn new(shape: Shape, scale: Scale, seed: u64, index: u64) -> Self {
        let hw = match scale {
            Scale::Full => shape.hw,
            Scale::Smoke => shape.hw.min(16),
        };
        let input = Tensor3::random(SLICE_IN, hw, hw, 0.0, 1.0, derive_seed(seed, 2 * index));
        let weights = Tensor4::random(
            SLICE_OUT,
            SLICE_IN,
            shape.kernel,
            shape.kernel,
            -1.0,
            1.0,
            derive_seed(seed, 2 * index + 1),
        );
        let reference = refocus_nn::conv::conv2d(&input, &weights, shape.stride, shape.padding)
            .expect("every CNN shape is a valid convolution");
        let peak = reference.max_abs();
        LayerCase {
            shape,
            input,
            weights,
            reference,
            peak,
        }
    }

    /// Relative error of `out` against the digital reference, or `None`
    /// when the shapes differ.
    pub fn rel_error(&self, out: &Tensor3) -> Option<f64> {
        if out.shape() != self.reference.shape() {
            return None;
        }
        let err = out
            .data()
            .iter()
            .zip(self.reference.data())
            .fold(0.0f64, |m, (a, b)| m.max((a - b).abs()));
        Some(err / self.peak.max(f64::MIN_POSITIVE))
    }
}

/// The ideal or the 8-bit converter JTC path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JtcPath {
    Ideal,
    Quantized,
}

impl JtcPath {
    pub fn executor(self) -> OpticalExecutor {
        match self {
            JtcPath::Ideal => OpticalExecutor::ideal(),
            JtcPath::Quantized => OpticalExecutor::quantized(),
        }
    }

    pub fn jtc(self) -> refocus_photonics::jtc::Jtc {
        match self {
            JtcPath::Ideal => refocus_photonics::jtc::Jtc::ideal(),
            JtcPath::Quantized => refocus_photonics::jtc::Jtc::quantized(),
        }
    }

    fn tolerance(self) -> f64 {
        match self {
            JtcPath::Ideal => IDEAL_TOLERANCE,
            JtcPath::Quantized => QUANTIZED_TOLERANCE,
        }
    }
}

/// Outcome of one checked `conv2d`.
#[derive(Debug, Clone, Copy)]
pub struct CaseRun {
    /// Within the path's tolerance of the digital reference.
    pub ok: bool,
    /// Error relative to the reference peak; `None` for an `Err`.
    pub err: Option<f64>,
    /// Optical passes the call made.
    pub passes: u64,
    pub ns: f64,
}

pub struct LayersWork {
    pub path: JtcPath,
    exec: OpticalExecutor,
    pub cases: Vec<LayerCase>,
}

impl LayersWork {
    fn new(path: JtcPath, scale: Scale, seed: u64) -> Self {
        let cases: Vec<LayerCase> = conv_shapes()
            .into_iter()
            .zip(0u64..)
            .map(|(shape, i)| LayerCase::new(shape, scale, seed, i))
            .collect();
        LayersWork {
            path,
            exec: path.executor(),
            cases,
        }
    }

    /// One `conv2d` through the optical path, checked against the digital
    /// reference.
    pub fn run_case(&self, case: &LayerCase, digest: &mut Digest) -> CaseRun {
        let before = self.exec.passes();
        let (out, ns) = time_ns(|| {
            self.exec.conv2d(
                &case.input,
                &case.weights,
                case.shape.stride,
                case.shape.padding,
            )
        });
        let err = match &out {
            Ok(t) => {
                digest.floats(t.data());
                case.rel_error(t)
            }
            Err(e) => {
                digest.text(&e.to_string());
                None
            }
        };
        CaseRun {
            ok: err.is_some_and(|e| e <= self.path.tolerance()),
            err,
            passes: self.exec.passes() - before,
            ns,
        }
    }

    /// Builds the workload named `name` and warms the caches its rounds use.
    pub fn setup(name: &str, scale: Scale, seed: u64) -> Option<Self> {
        let path = match name {
            "layers" => JtcPath::Ideal,
            "layers_q8" => JtcPath::Quantized,
            _ => return None,
        };
        let work = LayersWork::new(path, scale, seed);
        // Builds the FFT plan of every plane size the passes use.
        crate::census::plane_sizes(&crate::census::layer_operands(&work.cases), path);
        Some(work)
    }

    /// One `conv2d` per layer shape.
    pub fn round(&self) -> Round {
        let mut digest = Digest::default();
        let mut failed = 0;
        let mut call_ns = 0.0;
        for case in &self.cases {
            let run = self.run_case(case, &mut digest);
            failed += u64::from(!run.ok);
            call_ns += run.ns;
        }
        Round {
            ops: self.cases.len() as u64,
            failed,
            digest,
            call_ns,
        }
    }

    /// The biggest layer shape: the call the 1-thread versus all-threads
    /// speed-up is measured on.
    pub fn largest_op(&self) {
        let case = self
            .cases
            .iter()
            .max_by_key(|c| c.input.len() * c.shape.kernel * c.shape.kernel)
            .expect("there are layer shapes");
        self.run_case(case, &mut Digest::default());
    }
}

/// Host time of the three parts of one campaign round.
#[derive(Debug, Clone, Copy)]
pub struct CampaignParts {
    pub half_ns: f64,
    pub resume_ns: f64,
    pub plain_ns: f64,
}

/// The fault campaign the `arch::campaign` and `arch::checkpoint` probes
/// run: a journaled, budgeted half, its resume, and the plain grid.
pub struct CampaignWork {
    pub campaign: FaultCampaign,
    half_cells: usize,
    journal_dir: PathBuf,
    rounds: u64,
}

impl CampaignWork {
    pub fn new(scale: Scale, seed: u64, journal_dir: &Path) -> Self {
        let seeds = match scale {
            Scale::Full => CAMPAIGN_SEEDS,
            Scale::Smoke => 4,
        };
        let seeds: Vec<u64> = (0..seeds as u64)
            .map(|i| derive_seed(seed, 1_000_000 + i))
            .collect();
        let campaign = FaultCampaign::new(
            AcceleratorConfig::refocus_fb(),
            refocus_experiments::fault_study::base_spec(),
        )
        .with_severities(&SEVERITIES)
        .with_seeds(&seeds)
        .with_workload(Workload::default());
        let half_cells = campaign.grid_len() / 2;
        CampaignWork {
            campaign,
            half_cells,
            journal_dir: journal_dir.to_path_buf(),
            rounds: 0,
        }
    }

    /// Journal a budgeted half, resume it, then run the plain grid.
    /// `keep_half` receives a copy of the journal as the half left it.
    pub fn run_parts(&mut self, keep_half: Option<&Path>) -> (Round, CampaignParts) {
        self.rounds += 1;
        let journal = self
            .journal_dir
            .join(format!("round-{}.jsonl", self.rounds));
        let budget = RunBudget::default().with_max_cells(self.half_cells);
        let (half, half_ns) = time_ns(|| self.campaign.run_with_checkpoint(&journal, &budget));
        if let Some(copy) = keep_half {
            std::fs::copy(&journal, copy).expect("journal copy fits beside the journal");
        }
        let (resumed, resume_ns) = time_ns(|| self.campaign.resume(&journal));
        let (plain, plain_ns) = time_ns(|| self.campaign.run());
        // Best effort: the directory itself is removed when the run ends.
        let _ = std::fs::remove_file(&journal);

        let grid = self.campaign.grid_len() as u64;
        let mut digest = Digest::default();
        let (failed, fresh);
        let text = |r: &Result<CampaignReport, _>| match r {
            Ok(report) => serde_json::to_string(report).expect("campaign reports serialize"),
            Err(e) => format!("error: {e}"),
        };
        // Which cells the budgeted half computes depends on scheduling;
        // only its cell count, and the reports after it, are deterministic.
        let (resumed_text, plain_text) = (text(&resumed), text(&plain));
        digest.bytes(&half.as_ref().map_or(0, |h| h.cells.len()).to_le_bytes());
        digest.text(&resumed_text);
        digest.text(&plain_text);
        match (&half, &resumed, &plain) {
            (Ok(h), Ok(r), Ok(p)) => {
                // Fresh cells: the budgeted half, what resume computed
                // beyond the replayed half, and the whole plain grid.
                fresh = (h.cells.len() + (r.cells.len() - h.cells.len()) + p.cells.len()) as u64;
                let budget_held = h.cells.len() == self.half_cells
                    && h.skipped.len() as u64 == grid - self.half_cells as u64;
                failed = if !budget_held || resumed_text != plain_text || !p.is_complete() {
                    // A wrong report fails every cell it holds.
                    fresh.max(1)
                } else {
                    0
                };
            }
            _ => (fresh, failed) = (0, grid),
        }
        let round = Round {
            ops: fresh.max(failed),
            failed,
            digest,
            call_ns: half_ns + resume_ns + plain_ns,
        };
        (
            round,
            CampaignParts {
                half_ns,
                resume_ns,
                plain_ns,
            },
        )
    }
}
