//! Benchmark harness regenerating every table and figure of the paper's
//! evaluation (see DESIGN.md §5 for the experiment index).
//!
//! There is one binary, `reproduce-all`: without arguments it runs every
//! harness of [`FIGURES`] in order, with figure names it runs only those
//! (`cargo run -p buddy-bench --release --bin reproduce-all -- fig11
//! table1`). Every harness prints an aligned table with the paper's
//! reported numbers next to the measured ones and writes a CSV under
//! `results/`. Pass `--quick` for a reduced smoke run.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

pub mod ablation;
pub mod adaptfig;
pub mod capacity;
pub mod churnfig;
pub mod dlfig;
pub mod performance;
pub mod poolfig;
pub mod report;
pub mod tables;
pub mod tenantfig;
pub mod umfig;

pub use report::RunConfig;

use std::io;

/// A harness: writes its artifacts under the configuration.
pub type FigureFn = fn(&RunConfig) -> io::Result<()>;

/// Every harness by its command-line name, in run order.
pub const FIGURES: [(&str, FigureFn); 20] = [
    ("table1", tables::table1),
    ("table2", tables::table2),
    ("fig03", capacity::fig03),
    ("fig05b", performance::fig05b),
    ("fig06", capacity::fig06),
    ("fig07", capacity::fig07),
    ("fig08", capacity::fig08),
    ("fig09", capacity::fig09),
    ("fig10", performance::fig10),
    ("fig11", performance::fig11),
    ("fig12", umfig::fig12),
    ("fig13a", dlfig::fig13a),
    ("fig13b", dlfig::fig13b),
    ("fig13c", dlfig::fig13c),
    ("fig13d", dlfig::fig13d),
    ("ablation", ablation::ablation),
    ("pool-replay", poolfig::pool_replay),
    ("adaptive-retarget", adaptfig::adaptive_retarget),
    ("churn", churnfig::churn),
    ("service-report", tenantfig::service_report),
];

/// Runs the harnesses of [`FIGURES`] that `names` selects — all of them
/// when it is empty — in table order. A name outside the table selects
/// nothing; [`RunConfig::from_args`] rejects those before they get here.
pub fn reproduce_all(cfg: &RunConfig, names: &[&str]) -> io::Result<()> {
    for (name, figure) in FIGURES {
        if names.is_empty() || names.contains(&name) {
            figure(cfg)?;
        }
    }
    if names.is_empty() {
        println!(
            "\nAll tables and figures regenerated into {:?}.",
            cfg.results_dir
        );
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure_table_is_the_parent_run_order() {
        // Equal to 20 distinct non-empty literals, so unique and non-empty.
        assert_eq!(
            FIGURES.map(|(name, _)| name),
            [
                "table1",
                "table2",
                "fig03",
                "fig05b",
                "fig06",
                "fig07",
                "fig08",
                "fig09",
                "fig10",
                "fig11",
                "fig12",
                "fig13a",
                "fig13b",
                "fig13c",
                "fig13d",
                "ablation",
                "pool-replay",
                "adaptive-retarget",
                "churn",
                "service-report",
            ]
        );
    }
}
