//! Fault-injection study (extension): output error vs fault severity.
//!
//! Not a paper artifact — the paper assumes fault-free devices — but a
//! robustness extension the simulator supports: sweep stuck MRR weight
//! taps, dead photodetector pixels, and laser power drift across
//! severities on the functional conv path and report the output error
//! relative to the fault-free reference, plus the laser margin the
//! energy model budgets for the drift excursion.

use crate::render::{Experiment, Table};
use refocus_arch::campaign::{CampaignReport, FaultCampaign, Workload};
use refocus_arch::config::AcceleratorConfig;
use refocus_photonics::faults::FaultSpec;

/// The base (severity = 1) fault specification the study sweeps.
pub fn base_spec() -> FaultSpec {
    FaultSpec::none()
        .with_stuck_weights(0.01, 0.0)
        .with_dead_pixel_rate(0.01)
        .with_laser_drift(0.002, 0.05)
}

/// Builds the campaign (deterministic: fixed seeds and workload).
pub fn campaign() -> FaultCampaign {
    FaultCampaign::new(AcceleratorConfig::refocus_fb(), base_spec())
        .with_severities(&[0.0, 0.5, 1.0, 2.0, 4.0])
        .with_seeds(&[11, 12, 13])
        .with_workload(Workload::default())
}

/// Renders a campaign report's rows as the error-vs-severity table.
pub fn table(report: &CampaignReport) -> Table {
    let mut t = Table::new(
        "output error vs fault severity (ReFOCUS-FB conv path)",
        &[
            "severity",
            "mean max |err|",
            "worst max |err|",
            "mean RMS err",
        ],
    );
    for row in &report.rows {
        t.push_row(vec![
            format!("{:.1}x", row.severity),
            format!("{:.3e}", row.mean_max_abs_error),
            format!("{:.3e}", row.worst_max_abs_error),
            format!("{:.3e}", row.mean_rms_error),
        ]);
    }
    t
}

/// Regenerates the fault study.
pub fn run() -> Experiment {
    let report = campaign().run().expect("campaign runs");
    assert!(
        report.is_complete(),
        "default budget lost cells: {:?}",
        report.failed
    );
    let mut margin = Table::new("laser fault margin", &["quantity", "value"]);
    margin.push_row(vec![
        "drift limit".into(),
        format!("{:.0}%", base_spec().laser_drift_limit * 100.0),
    ]);
    margin.push_row(vec![
        "laser over-provisioning".into(),
        format!("{:.3}x", base_spec().laser_margin()),
    ]);
    Experiment::new("fault_study", "Extension: fault-injection campaign")
        .with_table(table(&report))
        .with_table(margin)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn study_is_deterministic() {
        let a = campaign().run().expect("campaign runs");
        let b = campaign().run().expect("campaign runs");
        assert_eq!(a, b);
    }

    #[test]
    fn fault_free_row_is_exact_and_errors_grow() {
        let report = campaign().run().expect("campaign runs");
        let clean = report.row_at(0.0).expect("severity 0 is in the sweep");
        assert_eq!(clean.mean_max_abs_error, 0.0);
        assert!(report.errors_monotone_in_severity(1e-12));
        let worst = report.row_at(4.0).expect("severity 4 is in the sweep");
        assert!(worst.mean_max_abs_error > 0.0);
    }

    #[test]
    fn renders() {
        let e = run();
        assert!(e.render().contains("severity"));
    }
}
