//! Benchmark harness regenerating every table and figure of the paper's
//! evaluation (see DESIGN.md §5 for the experiment index).
//!
//! There is one binary, `reproduce-all`: without arguments it runs every
//! harness of [`FIGURES`] in order, with figure names it runs only those
//! (`cargo run -p buddy-bench --release --bin reproduce-all -- fig11
//! table1`). Every harness prints an aligned table with the paper's
//! reported numbers next to the measured ones and writes a CSV under
//! `results/`. Pass `--quick` for a reduced smoke run.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablation;
pub mod adaptfig;
pub mod capacity;
pub mod churnfig;
pub mod dlfig;
pub mod obsfig;
pub mod performance;
pub mod poolfig;
pub mod report;
pub mod tables;
pub mod tenantfig;
pub mod umfig;

pub use report::RunConfig;

use buddy_compression::buddy_obs::MetricsRegistry;
use std::io;

/// A harness: writes its artifacts under the configuration, registers any
/// `--metrics-out` metrics on the run's registry (`pool-throughput`,
/// `churn` and `tenancy` do), and hands back its rows for the shared
/// `results/obs_breakdown.csv` (all but `pool-throughput` and `tenancy`
/// have none).
pub type FigureFn = fn(&RunConfig, &MetricsRegistry) -> io::Result<Vec<Vec<String>>>;

/// Every harness by its command-line name, in run order.
pub const FIGURES: [(&str, FigureFn); 21] = [
    ("table1", |cfg, _| tables::table1(cfg).map(no_rows)),
    ("table2", |cfg, _| tables::table2(cfg).map(no_rows)),
    ("fig03", |cfg, _| capacity::fig03(cfg).map(no_rows)),
    ("fig05b", |cfg, _| performance::fig05b(cfg).map(no_rows)),
    ("fig06", |cfg, _| capacity::fig06(cfg).map(no_rows)),
    ("fig07", |cfg, _| capacity::fig07(cfg).map(no_rows)),
    ("fig08", |cfg, _| capacity::fig08(cfg).map(no_rows)),
    ("fig09", |cfg, _| capacity::fig09(cfg).map(no_rows)),
    ("fig10", |cfg, _| performance::fig10(cfg).map(no_rows)),
    ("fig11", |cfg, _| performance::fig11(cfg).map(no_rows)),
    ("fig12", |cfg, _| umfig::fig12(cfg).map(no_rows)),
    ("fig13a", |cfg, _| dlfig::fig13a(cfg).map(no_rows)),
    ("fig13b", |cfg, _| dlfig::fig13b(cfg).map(no_rows)),
    ("fig13c", |cfg, _| dlfig::fig13c(cfg).map(no_rows)),
    ("fig13d", |cfg, _| dlfig::fig13d(cfg).map(no_rows)),
    ("ablation", |cfg, _| ablation::ablation(cfg).map(no_rows)),
    ("pool-throughput", poolfig::pool_throughput),
    ("adaptive-retarget", |cfg, _| {
        adaptfig::adaptive_retarget(cfg).map(no_rows)
    }),
    ("churn", |cfg, metrics| {
        churnfig::churn(cfg, metrics).map(no_rows)
    }),
    ("tenancy", tenantfig::tenancy),
    ("service-report", |cfg, _| {
        tenantfig::service_report(cfg).map(no_rows)
    }),
];

fn no_rows<T>(_: T) -> Vec<Vec<String>> {
    Vec::new()
}

/// Runs the harnesses of [`FIGURES`] that `names` selects — all of them
/// when it is empty — in table order, then writes what they handed back
/// once per run: the span-time breakdown, so `obs_breakdown.csv` holds
/// exactly this run's rows, and under `--metrics-out` the one `.prom`/`.csv`
/// pair with every harness's metrics. A name outside the table selects
/// nothing; [`RunConfig::from_args`] rejects those before they get here.
pub fn reproduce_all(cfg: &RunConfig, names: &[&str]) -> io::Result<()> {
    let emitter = obsfig::MetricsEmitter::start(cfg);
    let mut breakdown = Vec::new();
    for (name, figure) in FIGURES {
        if names.is_empty() || names.contains(&name) {
            breakdown.extend(figure(cfg, emitter.registry())?);
        }
    }
    if let Some((prom, csv)) = emitter.finish()? {
        println!("\nmetrics -> {prom:?} and {csv:?}");
    }
    if !breakdown.is_empty() {
        let path = obsfig::write_breakdown(cfg, &breakdown)?;
        if buddy_compression::buddy_obs::trace::is_enabled() {
            println!("\nspan breakdown (lock wait / codec / IO per cell) -> {path:?}");
        } else {
            println!(
                "\nspan breakdown written with zeros ({path:?}); rebuild with \
                 --features obs-trace for real attribution"
            );
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
        // Equal to 21 distinct non-empty literals, so unique and non-empty.
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
                "pool-throughput",
                "adaptive-retarget",
                "churn",
                "tenancy",
                "service-report",
            ]
        );
    }
}
