//! Experiment harness behind the `run` binary.
//!
//! [`experiments::EXPERIMENTS`] is the table of reproduced claims and
//! studies.  Every entry goes through the same shape: fetch its
//! [`ScenarioSpec`] from the registry, apply the shared CLI
//! ([`BenchCli`]), run it, attach derived metrics, and emit — a human
//! table ([`print_report_table`]) or the report's JSON (`--json`).  The
//! crate root holds the CLI, the table renderer, and formatting helpers.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;

use sdr_core::scenario::{RunReport, ScenarioSpec};
use sdr_sim::SimDuration;

/// Seed override: an explicit list or a replication count.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SeedArg {
    /// Run this many seeds, derived from the spec's base seed.
    Count(u64),
    /// Run exactly these seeds.
    List(Vec<u64>),
}

/// The CLI of the `run` binary.
///
/// * a positional scenario name, or `all` for the whole table.
/// * `--json` — emit the [`RunReport`] as JSON instead of text tables.
/// * `--seeds a,b,c` — replace the spec's seed list (comma-separated);
///   a single integer `--seeds N` instead derives `N` seeds from the
///   spec's base seed.
/// * `--duration SECS` — override the spec's virtual run length.
#[derive(Clone, Debug, Default)]
pub struct BenchCli {
    /// The experiment to run (`all` for every one).
    pub scenario: Option<String>,
    /// Emit JSON instead of text.
    pub json: bool,
    /// Seed override.
    pub seeds: Option<SeedArg>,
    /// Duration override.
    pub duration: Option<SimDuration>,
}

impl BenchCli {
    /// Parses the process arguments (exits with a message on bad input).
    pub fn parse() -> Self {
        Self::from_args(std::env::args().skip(1))
    }

    /// Parses from an explicit argument list.
    pub fn from_args(args: impl Iterator<Item = String>) -> Self {
        let mut cli = BenchCli::default();
        let mut args = args.peekable();
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--json" => cli.json = true,
                "--seeds" => {
                    let v = args.next().unwrap_or_else(|| usage("--seeds needs a value"));
                    cli.seeds = Some(parse_seeds(&v));
                }
                "--duration" => {
                    let v = args
                        .next()
                        .unwrap_or_else(|| usage("--duration needs seconds"));
                    let secs: f64 = v
                        .parse()
                        .unwrap_or_else(|_| usage(&format!("bad --duration `{v}`")));
                    cli.duration = Some(SimDuration::from_micros((secs * 1e6) as u64));
                }
                "--help" | "-h" => {
                    println!("{USAGE}");
                    std::process::exit(0);
                }
                other if !other.starts_with('-') && cli.scenario.is_none() => {
                    cli.scenario = Some(other.to_string());
                }
                other => usage(&format!("unknown argument `{other}`")),
            }
        }
        cli
    }

    /// Applies the overrides to a spec.
    pub fn apply(&self, spec: &mut ScenarioSpec) {
        match &self.seeds {
            Some(SeedArg::List(seeds)) => spec.seeds = seeds.clone(),
            Some(SeedArg::Count(n)) => {
                let base = spec.config.seed;
                spec.seeds = (0..*n).map(|i| base.wrapping_add(1_000 * i)).collect();
            }
            None => {}
        }
        if let Some(d) = self.duration {
            spec.duration = d;
            // Keep mid-run machinery inside the shortened run.
            spec.checkpoints.retain(|c| c.as_micros() <= d.as_micros());
        }
    }
}

const USAGE: &str = "usage: run <scenario|all> [--json] [--seeds N | --seeds a,b,c] [--duration SECS]";

fn parse_seeds(v: &str) -> SeedArg {
    if v.contains(',') {
        SeedArg::List(
            v.split(',')
                .filter(|s| !s.trim().is_empty())
                .map(|s| {
                    s.trim()
                        .parse::<u64>()
                        .unwrap_or_else(|_| usage(&format!("bad seed `{s}`")))
                })
                .collect(),
        )
    } else {
        SeedArg::Count(
            v.trim()
                .parse::<u64>()
                .unwrap_or_else(|_| usage(&format!("bad seed count `{v}`"))),
        )
    }
}

/// Prints an error and the usage line, then exits with status 2.
pub fn usage(msg: &str) -> ! {
    eprintln!("error: {msg}\n{USAGE}");
    std::process::exit(2)
}

/// Which aggregate statistic a [`Col::Field`] column shows.
#[derive(Clone, Copy, Debug)]
pub enum Stat {
    /// Mean across the cell's runs.
    Mean,
    /// Minimum across the cell's runs.
    Min,
    /// Maximum across the cell's runs.
    Max,
}

/// One column of a rendered report table.
#[derive(Clone, Copy, Debug)]
pub enum Col {
    /// The cell's display label.
    Label(&'static str),
    /// A sweep coordinate.
    Coord {
        /// Axis name in the grid.
        axis: &'static str,
        /// Column header.
        header: &'static str,
        /// Decimal places.
        prec: usize,
    },
    /// An aggregated statistics field (see `SystemStats::numeric_fields`).
    Field {
        /// Field name.
        field: &'static str,
        /// Which aggregate.
        stat: Stat,
        /// Column header.
        header: &'static str,
        /// Decimal places.
        prec: usize,
    },
    /// A derived metric the experiment attached (NaN renders as `-`).
    Metric {
        /// Metric name.
        name: &'static str,
        /// Column header.
        header: &'static str,
        /// Decimal places.
        prec: usize,
    },
    /// A string annotation the experiment attached.
    Annot {
        /// Annotation name.
        name: &'static str,
        /// Column header.
        header: &'static str,
    },
}

impl Col {
    fn header(&self) -> &'static str {
        match self {
            Col::Label(h) => h,
            Col::Coord { header, .. }
            | Col::Field { header, .. }
            | Col::Metric { header, .. }
            | Col::Annot { header, .. } => header,
        }
    }

    fn render(&self, cell: &sdr_core::scenario::CellReport) -> String {
        match *self {
            Col::Label(_) => cell.display_label(),
            Col::Coord { axis, prec, .. } => match cell.coord(axis) {
                Some(v) => f(v, prec),
                None => "-".into(),
            },
            Col::Field { field, stat, prec, .. } => match cell.agg(field) {
                Some(a) => {
                    let v = match stat {
                        Stat::Mean => a.mean,
                        Stat::Min => a.min,
                        Stat::Max => a.max,
                    };
                    f(v, prec)
                }
                None => "-".into(),
            },
            Col::Metric { name, prec, .. } => match cell.metric(name) {
                Some(v) if v.is_finite() => f(v, prec),
                _ => "-".into(),
            },
            Col::Annot { name, .. } => cell.annotation(name).unwrap_or("-").to_string(),
        }
    }
}

/// Renders one table row per report cell using the given columns.
pub fn print_report_table(title: &str, report: &RunReport, columns: &[Col]) {
    let headers: Vec<&str> = columns.iter().map(|c| c.header()).collect();
    let rows: Vec<Vec<String>> = report
        .cells
        .iter()
        .map(|cell| columns.iter().map(|c| c.render(cell)).collect())
        .collect();
    print_table(title, &headers, &rows);
}

/// Prints a fixed-width table with a title and column headers.
///
/// Rows wider than the header list get empty-header columns sized to
/// their content (rather than a silent fixed-width fallback).
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n=== {title} ===");
    let n_cols = rows
        .iter()
        .map(Vec::len)
        .chain(std::iter::once(headers.len()))
        .max()
        .unwrap_or(0);
    let mut widths: Vec<usize> = (0..n_cols)
        .map(|i| headers.get(i).map_or(0, |h| h.len()))
        .collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let line: String = (0..n_cols)
        .map(|i| format!("{:>w$}", headers.get(i).copied().unwrap_or(""), w = widths[i] + 2))
        .collect();
    println!("{line}");
    println!("{}", "-".repeat(line.len()));
    for row in rows {
        let line: String = row
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>w$}", c, w = widths[i] + 2))
            .collect();
        println!("{line}");
    }
}

/// Formats a float with the given precision.
pub fn f(x: f64, prec: usize) -> String {
    format!("{x:.prec$}")
}

/// Formats a one-line experiment note (keeps the output self-describing).
pub fn note(text: &str) -> String {
    format!("  note: {text}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdr_core::scenario::registry;

    #[test]
    fn cli_parses_flags() {
        let cli = BenchCli::from_args(
            ["e1_detection", "--json", "--seeds", "7,8", "--duration", "2.5"]
                .iter()
                .map(|s| s.to_string()),
        );
        assert_eq!(cli.scenario.as_deref(), Some("e1_detection"));
        assert!(cli.json);
        assert_eq!(cli.seeds, Some(SeedArg::List(vec![7, 8])));
        assert_eq!(cli.duration, Some(SimDuration::from_micros(2_500_000)));
    }

    #[test]
    fn seed_count_expands_from_spec_base() {
        let cli = BenchCli::from_args(["--seeds", "3"].iter().map(|s| s.to_string()));
        let mut spec = registry::lookup("quickstart").expect("registered");
        cli.apply(&mut spec);
        assert_eq!(spec.seeds.len(), 3);
        assert_eq!(spec.seeds[0], spec.config.seed);
    }

    #[test]
    fn duration_override_drops_late_checkpoints() {
        let cli = BenchCli {
            duration: Some(SimDuration::from_secs(10)),
            ..BenchCli::default()
        };
        let mut spec = registry::lookup("e12_failover").expect("registered");
        assert!(!spec.checkpoints.is_empty());
        cli.apply(&mut spec);
        assert!(spec.checkpoints.is_empty());
        assert_eq!(spec.duration, SimDuration::from_secs(10));
    }

    #[test]
    fn wide_rows_get_content_sized_columns() {
        // Regression: rows wider than the header list used to fall back
        // to a silent width of 8; now they size to their content.
        print_table(
            "t",
            &["a"],
            &[vec!["x".into(), "a-cell-wider-than-eight".into()]],
        );
    }
}
