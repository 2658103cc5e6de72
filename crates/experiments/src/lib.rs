//! # refocus-experiments
//!
//! Regenerates **every table and figure** of the ReFOCUS paper from the
//! simulator, printing the same rows/series the paper reports with the
//! paper's values alongside. One module per artifact:
//!
//! | Module | Paper artifact |
//! |---|---|
//! | [`sec2_2`] | §2.2 JTC-vs-GPU conversion-count example |
//! | [`table1`] | Table 1 — delay-line length/area/loss |
//! | [`table2`] | Table 2 — area & FPS/mm² for 1 vs 2 wavelengths |
//! | [`table4`] | Table 4 — delay-length design-space sweep |
//! | [`table5`] | Table 5 — feedback-buffer laser power & dynamic range |
//! | [`table6`] | Table 6 — component power/area constants |
//! | [`table7`] | Table 7 — reuse achieved by each optimization |
//! | [`fig3`]  | Fig. 3 — baseline power & area breakdowns |
//! | [`fig7`]  | Fig. 7 — alternating OS-IS dataflow trace |
//! | [`fig8`]  | Fig. 8 — ReFOCUS-FF/FB power breakdowns |
//! | [`fig9`]  | Fig. 9 — ReFOCUS area breakdown |
//! | [`fig10`] | Fig. 10 — FPS/W vs cumulative optimizations |
//! | [`fig11`] | Fig. 11 — ReFOCUS vs PhotoFourier (5 CNNs) |
//! | [`fig12`] | Fig. 12 — vs digital accelerators (ResNet-50) |
//! | [`fig13`] | Fig. 13 — vs photonic/digital/RRAM (3 CNNs) |
//! | [`sec7_3`] | §7.3 — weight sharing + channel reordering |
//! | [`ablations`] | extensions: slow light (§7.5), batching, WDM walk-off (§4.2.3), HBM3 (§7.3) |
//! | [`fault_study`] | extension: fault-injection campaign (error vs severity) |
//! | [`summary`] | headline reproduction scorecard |
//! | [`obs_report`] | extension: render/diff attribution-ledger breakdowns |
//!
//! The crate is a library; the root package's `refocus-sim` CLI is its
//! front end. `refocus-sim report [--experiment fig11] [--json]` prints
//! the experiments, `refocus-sim fault-study` runs the fault campaign
//! with checkpoint/resume and budget controls, and `refocus-sim
//! obs-report render run.json` / `obs-report diff a.json b.json` render
//! and diff the obs summary JSON a traced run exports.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod ablations;
pub mod fault_study;
pub mod fig10;
pub mod fig11;
pub mod fig12;
pub mod fig13;
pub mod fig3;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod obs_report;
pub mod render;
pub mod sec2_2;
pub mod sec7_3;
pub mod summary;
pub mod table1;
pub mod table2;
pub mod table4;
pub mod table5;
pub mod table6;
pub mod table7;

pub use render::{Experiment, Table};

/// A function that regenerates one experiment.
pub type Build = fn() -> Experiment;

/// Every experiment's id and the function that builds it, in paper order.
pub const EXPERIMENTS: [(&str, Build); 19] = [
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
];

/// Every experiment, in paper order.
pub fn all_experiments() -> Vec<Experiment> {
    EXPERIMENTS.iter().map(|(_, run)| run()).collect()
}

/// Looks up an experiment by id (e.g. `"fig11"`, `"table4"`) and builds
/// only that one.
pub fn experiment_by_id(id: &str) -> Option<Experiment> {
    EXPERIMENTS
        .iter()
        .find(|(key, _)| *key == id)
        .map(|(_, run)| run())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_experiments_render() {
        let all = all_experiments();
        assert_eq!(all.len(), 19);
        for e in &all {
            let text = e.render();
            assert!(text.contains(&e.title), "{}", e.id);
            assert!(!e.tables.is_empty(), "{} has no tables", e.id);
        }
    }

    #[test]
    fn lookup_by_id() {
        assert!(experiment_by_id("fig11").is_some());
        assert!(experiment_by_id("table4").is_some());
        assert!(experiment_by_id("nope").is_none());
    }

    #[test]
    fn table_ids_match_the_experiments_they_build() {
        for (id, run) in EXPERIMENTS {
            assert_eq!(run().id, id);
        }
    }

    #[test]
    fn ids_are_unique() {
        let all = all_experiments();
        let mut ids: Vec<&str> = all.iter().map(|e| e.id.as_str()).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), all.len());
    }
}
