//! Result reporting: aligned console tables and CSV files under `results/`,
//! and the run configuration every harness reads.
//!
//! The configuration is run-wide (`--quick`, output directory, seed) and
//! carries no codec: the harnesses model BPC, as the paper does, and the
//! two that compare algorithms (`ablation`, the full `pool-replay` sweep)
//! iterate [`CodecKind::ALL`](buddy_compression::bpc::CodecKind::ALL)
//! themselves.

use crate::FIGURES;
use std::fmt::Display;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Run configuration shared by all figure harnesses.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Reduced trace/sample sizes for smoke runs (`--quick`).
    pub quick: bool,
    /// Output directory for CSV/PGM artifacts.
    pub results_dir: PathBuf,
    /// Master seed (all randomness derives from it).
    pub seed: u64,
}

impl Default for RunConfig {
    fn default() -> Self {
        Self {
            quick: false,
            results_dir: PathBuf::from("results"),
            seed: 0xB0DD7,
        }
    }
}

impl RunConfig {
    /// Builds the configuration and the selected figure names from the
    /// process arguments: `[--quick] [NAME …]`, names being those of
    /// [`FIGURES`].
    ///
    /// An unknown flag or figure name prints the valid flag and names to
    /// stderr and exits with status 2 — a usage error, not a harness bug,
    /// so no backtrace.
    pub fn from_args() -> (Self, Vec<&'static str>) {
        let args: Vec<String> = std::env::args().skip(1).collect();
        Self::parse(&args).unwrap_or_else(|message| {
            eprintln!("error: {message}");
            eprintln!("usage: reproduce-all [--quick] [NAME ...]");
            eprintln!("  names:  {}", FIGURES.map(|(name, _)| name).join(", "));
            std::process::exit(2);
        })
    }

    fn parse(args: &[String]) -> Result<(Self, Vec<&'static str>), String> {
        let mut cfg = Self::default();
        let mut names = Vec::new();
        for arg in args {
            match arg.as_str() {
                "--quick" => cfg.quick = true,
                flag if flag.starts_with('-') => return Err(format!("unknown flag {flag:?}")),
                name => match FIGURES.iter().find(|(known, _)| *known == name) {
                    Some((known, _)) => names.push(*known),
                    None => return Err(format!("unknown figure {name:?}")),
                },
            }
        }
        Ok((cfg, names))
    }

    /// Scales an iteration/access count down in quick mode.
    pub fn scaled(&self, full: u64) -> u64 {
        if self.quick {
            (full / 10).max(1000)
        } else {
            full
        }
    }
}

/// Writes rows of display-able cells as CSV into `results/<name>.csv`.
pub fn write_csv<C: Display>(
    dir: &Path,
    name: &str,
    header: &[&str],
    rows: &[Vec<C>],
) -> io::Result<PathBuf> {
    fs::create_dir_all(dir)?;
    let path = dir.join(format!("{name}.csv"));
    let mut out = String::new();
    out.push_str(&header.join(","));
    out.push('\n');
    for row in rows {
        let cells: Vec<String> = row.iter().map(|c| c.to_string()).collect();
        out.push_str(&cells.join(","));
        out.push('\n');
    }
    fs::write(&path, out)?;
    Ok(path)
}

/// Writes a raw text artifact (e.g. a PGM heat map).
pub fn write_text(dir: &Path, name: &str, content: &str) -> io::Result<PathBuf> {
    fs::create_dir_all(dir)?;
    let path = dir.join(name);
    fs::write(&path, content)?;
    Ok(path)
}

/// Prints an aligned table to stdout.
pub fn print_table<C: Display>(title: &str, header: &[&str], rows: &[Vec<C>]) {
    println!("\n=== {title} ===");
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    let rendered: Vec<Vec<String>> = rows
        .iter()
        .map(|r| r.iter().map(|c| c.to_string()).collect())
        .collect();
    for row in &rendered {
        for (w, cell) in widths.iter_mut().zip(row.iter()) {
            *w = (*w).max(cell.len());
        }
    }
    let line = |cells: &[String]| {
        let padded: Vec<String> = cells
            .iter()
            .zip(widths.iter())
            .map(|(c, w)| format!("{c:>w$}", w = w))
            .collect();
        println!("  {}", padded.join("  "));
    };
    line(&header.iter().map(|h| h.to_string()).collect::<Vec<_>>());
    for row in &rendered {
        line(row);
    }
}

/// Formats a float with three significant decimals.
pub fn f3(v: f64) -> String {
    format!("{v:.3}")
}

/// Formats a percentage.
pub fn pct(v: f64) -> String {
    format!("{:.2}%", 100.0 * v)
}

/// Pearson correlation coefficient of two equally long samples.
///
/// # Panics
///
/// Panics if the slices differ in length or have fewer than two points.
pub fn correlation(xs: &[f64], ys: &[f64]) -> f64 {
    assert_eq!(xs.len(), ys.len(), "correlation needs paired samples");
    assert!(xs.len() >= 2, "correlation needs at least two points");
    let n = xs.len() as f64;
    let mx = xs.iter().sum::<f64>() / n;
    let my = ys.iter().sum::<f64>() / n;
    let mut cov = 0.0;
    let mut vx = 0.0;
    let mut vy = 0.0;
    for (x, y) in xs.iter().zip(ys.iter()) {
        cov += (x - mx) * (y - my);
        vx += (x - mx) * (x - mx);
        vy += (y - my) * (y - my);
    }
    cov / (vx.sqrt() * vy.sqrt()).max(1e-300)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csv_round_trip() {
        let dir = std::env::temp_dir().join("buddy-bench-test");
        let rows = vec![vec!["a".to_string(), "1".to_string()]];
        let path = write_csv(&dir, "t", &["name", "value"], &rows).unwrap();
        let content = std::fs::read_to_string(path).unwrap();
        assert_eq!(content, "name,value\na,1\n");
    }

    #[test]
    fn parse_accepts_known_arguments_and_rejects_the_rest() {
        let parse = |args: &[&str]| {
            RunConfig::parse(&args.iter().map(|a| a.to_string()).collect::<Vec<_>>())
        };
        let (cfg, names) = parse(&["fig11", "--quick", "table1"]).unwrap();
        assert!(cfg.quick);
        assert_eq!(names, ["fig11", "table1"]);
        let (cfg, names) = parse(&[]).unwrap();
        assert!(!cfg.quick && names.is_empty());
        for bad in [
            &["--quik"][..],
            &["nosuchfig"],
            &["--codec"],
            &["--codec", "lz4"],
            &["--codec", "bdi"],
        ] {
            assert!(parse(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn correlation_of_linear_data_is_one() {
        let xs: Vec<f64> = (0..10).map(|i| i as f64).collect();
        let ys: Vec<f64> = xs.iter().map(|x| 3.0 * x + 1.0).collect();
        assert!((correlation(&xs, &ys) - 1.0).abs() < 1e-12);
        let neg: Vec<f64> = xs.iter().map(|x| -x).collect();
        assert!((correlation(&xs, &neg) + 1.0).abs() < 1e-12);
    }

    #[test]
    fn quick_mode_scales_down() {
        let cfg = RunConfig {
            quick: true,
            ..Default::default()
        };
        assert_eq!(cfg.scaled(100_000), 10_000);
        assert_eq!(cfg.scaled(100), 1000);
        let full = RunConfig::default();
        assert_eq!(full.scaled(100_000), 100_000);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(f3(1.23456), "1.235");
        assert_eq!(pct(0.0421), "4.21%");
    }
}
