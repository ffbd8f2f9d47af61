//! Regenerates the paper's tables and figures into `results/`: all of them,
//! or only the ones named (`reproduce-all --quick fig11 table1`).
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

fn main() -> std::io::Result<()> {
    let (cfg, names) = buddy_bench::RunConfig::from_args();
    buddy_bench::reproduce_all(&cfg, &names)
}
