//! `sdr-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints report lines, then one JSON result line; exits non-zero when a
//! correctness check fails.

use sdr_perfbench::bench::{self, Options};
use sdr_perfbench::workloads::Workload;
use std::path::PathBuf;
use std::process::ExitCode;

fn usage() -> String {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    format!(
        "usage: sdr-perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        names.join("|")
    )
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Options {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        trace_dir: PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("traces"),
    })
}

/// Commit, core count, load average and seed, recorded with every
/// result.
fn environment(seed: u64) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let load = std::fs::read_to_string("/proc/loadavg")
        .map(|l| l.split_whitespace().take(3).collect::<Vec<_>>().join(" "))
        .unwrap_or_else(|_| "unknown".into());
    format!(
        "# commit {} nproc {nproc} loadavg {load} seed {seed}",
        commit()
    )
}

/// The checked-out commit, read from `.git` beside the benchmark's
/// directory without running git; `unknown` outside a git checkout.
fn commit() -> String {
    let git = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let head = std::fs::read_to_string(git.join("HEAD")).unwrap_or_default();
    let head = head.trim();
    let id = match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(git.join(r)).ok().or_else(|| {
            std::fs::read_to_string(git.join("packed-refs"))
                .ok()?
                .lines()
                .find(|l| l.ends_with(r))
                .and_then(|l| l.split_whitespace().next())
                .map(str::to_string)
        }),
        None if !head.is_empty() => Some(head.to_string()),
        None => None,
    };
    id.map_or_else(|| "unknown".into(), |s| s.trim().chars().take(12).collect())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    println!(
        "# workload {} ({}) trace {}",
        opts.workload.name(),
        if opts.trace {
            "per-layer"
        } else {
            "end-to-end"
        },
        u8::from(opts.trace)
    );
    println!("{}", environment(opts.seed));
    let outcome = if opts.trace {
        bench::traced(&opts)
    } else {
        bench::untraced(&opts)
    };
    for line in &outcome.lines {
        println!("{line}");
    }
    println!("{}", outcome.json());
    if outcome.failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
