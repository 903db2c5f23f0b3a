//! One binary for every experiment in the table:
//!
//! ```text
//! run <scenario> [--json] [--seeds N | --seeds a,b,c] [--duration SECS]
//! run all        [--json] [--seeds N | --seeds a,b,c] [--duration SECS]
//! ```
//!
//! `run <scenario>` prints one experiment's table (or its report with
//! `--json`); `run all` runs the whole table in order, in-process, and
//! with `--json` prints one array of every report.  A failing entry is
//! reported by name and makes the exit status non-zero.

use sdr_bench::experiments::{find, run_all, run_one, EXPERIMENTS};
use sdr_bench::{usage, BenchCli};

fn main() {
    let cli = BenchCli::parse();
    let name = cli.scenario.as_deref().unwrap_or_default();
    if name == "all" {
        let failed = run_all(&cli);
        if !failed.is_empty() {
            eprintln!("\nfailed: {failed:?}");
            std::process::exit(1);
        }
    } else if let Some(exp) = find(name) {
        if let Err(e) = run_one(exp, &cli) {
            eprintln!("{name}: {e}");
            std::process::exit(1);
        }
    } else {
        let names: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
        let problem = match cli.scenario {
            Some(_) => format!("unknown scenario `{name}`"),
            None => "no scenario given".to_string(),
        };
        usage(&format!("{problem}; expected `all` or one of: {}", names.join(", ")));
    }
}
