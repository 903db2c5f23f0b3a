//! The experiment table: one entry per reproduced paper claim (E1–E12)
//! or scale/feature study, keyed by registry name.
//!
//! An entry holds only what is unique to it — the derived metrics, any
//! probe, the function that builds the report of the two experiments
//! that simulate nothing (`e6_comparison`, `e11_crypto`), the table
//! columns and the notes.  Everything else is shared: [`Experiment::run`] fetches the
//! spec, applies the CLI overrides, runs it and checks that the report
//! round-trips through JSON; [`run_one`] and [`run_all`] print the text
//! tables or the JSON.

mod derive;
mod direct;

use crate::{note, print_report_table, BenchCli, Col, Stat};
use sdr_core::scenario::{registry, CellReport, RunRecord, RunReport, Runner, ScenarioSpec};
use sdr_core::system::System;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Attaches derived metrics and annotations to one cell of a finished run.
type Derive = fn(&ScenarioSpec, &mut CellReport);

/// Where an entry's report comes from.
enum Source {
    /// Simulate the registered spec.
    Sim {
        /// End-of-run probe recording state the generic statistics lack.
        probe: Option<fn(&mut System, &mut RunRecord)>,
        /// Per-cell derived metrics.
        derive: Option<Derive>,
        /// Extra text printed between the table and the notes.
        lines: Option<fn(&RunReport) -> Vec<String>>,
    },
    /// Build the report without a simulation; the function also returns
    /// the extra text lines it measured on the way.
    Direct(fn(&ScenarioSpec) -> (RunReport, Vec<String>)),
}

/// One row of the experiment table.
pub struct Experiment {
    /// Registry name of the scenario the entry runs.
    pub name: &'static str,
    title: &'static str,
    columns: &'static [Col],
    notes: &'static [&'static str],
    source: Source,
}

/// A finished entry: its report, the report's checked JSON, and the
/// extra text lines its table is printed with.
pub struct Outcome {
    /// The report, derived metrics attached.
    pub report: RunReport,
    /// `report` as JSON; it parses back to the same bytes.
    pub json: String,
    lines: Vec<String>,
}

impl Experiment {
    /// Runs the entry under the CLI overrides.  Fails if the scenario is
    /// not registered, the run fails, or the report does not round-trip
    /// byte-identically through [`RunReport::from_json_str`].
    pub fn run(&self, cli: &BenchCli) -> Result<Outcome, String> {
        let mut spec = registry::lookup(self.name)
            .ok_or_else(|| format!("scenario `{}` is not registered", self.name))?;
        cli.apply(&mut spec);
        let (report, lines) = match self.source {
            Source::Direct(build) => build(&spec),
            Source::Sim { probe, derive, lines } => {
                let mut runner = Runner::new(spec.clone());
                if let Some(probe) = probe {
                    runner = runner.probe(probe);
                }
                let mut report = runner.run()?;
                if let Some(derive) = derive {
                    for cell in &mut report.cells {
                        derive(&spec, cell);
                    }
                }
                let lines = lines.map_or_else(Vec::new, |f| f(&report));
                (report, lines)
            }
        };
        let json = report.to_json_string();
        let back =
            RunReport::from_json_str(&json).map_err(|e| format!("report does not parse: {e}"))?;
        if back.to_json_string() != json {
            return Err("report does not round-trip through JSON".into());
        }
        Ok(Outcome { report, json, lines })
    }

    /// Prints the entry's table, extra lines and notes.
    fn render(&self, outcome: &Outcome) {
        print_report_table(self.title, &outcome.report, self.columns);
        for line in &outcome.lines {
            println!("{line}");
        }
        for text in self.notes {
            println!("{}", note(text));
        }
    }

    /// [`Experiment::run`], with a panic turned into an error.
    fn run_caught(&self, cli: &BenchCli) -> Result<Outcome, String> {
        catch_unwind(AssertUnwindSafe(|| self.run(cli))).unwrap_or_else(|_| Err("panicked".into()))
    }
}

/// Looks an entry up by name.
pub fn find(name: &str) -> Option<&'static Experiment> {
    EXPERIMENTS.iter().find(|e| e.name == name)
}

/// Runs one entry and prints its text table, or its report on `--json`.
pub fn run_one(exp: &Experiment, cli: &BenchCli) -> Result<(), String> {
    let outcome = exp.run_caught(cli)?;
    if cli.json {
        println!("{}", outcome.json);
    } else {
        exp.render(&outcome);
    }
    Ok(())
}

/// Runs every entry in table order, printing each one's text under a
/// banner, or on `--json` one array of every report.  A failing entry is
/// reported on stderr and the rest still run; returns the names that
/// failed.
pub fn run_all(cli: &BenchCli) -> Vec<&'static str> {
    let mut failed = Vec::new();
    let mut reports = Vec::new();
    for exp in EXPERIMENTS {
        if !cli.json {
            println!("\n================ {} ================", exp.name);
        }
        match exp.run_caught(cli) {
            Ok(outcome) if cli.json => reports.push(outcome.json),
            Ok(outcome) => exp.render(&outcome),
            Err(e) => {
                eprintln!("{}: {e}", exp.name);
                failed.push(exp.name);
            }
        }
    }
    if cli.json {
        println!("[{}]", reports.join(","));
    } else if failed.is_empty() {
        println!("\nall experiments completed.");
    }
    failed
}

/// A simulated entry with per-cell derived metrics and nothing else.
const fn sim(
    name: &'static str,
    title: &'static str,
    columns: &'static [Col],
    notes: &'static [&'static str],
    derive: Option<Derive>,
) -> Experiment {
    Experiment {
        name,
        title,
        columns,
        notes,
        source: Source::Sim { probe: None, derive, lines: None },
    }
}

/// Every experiment, in the order `run all` executes them.
pub static EXPERIMENTS: &[Experiment] = &[
    sim(
        "e1_detection",
        "E1: detection speed vs double-check probability p (always-lying slave, audit off)",
        &[
            Col::Coord { axis: "p", header: "p", prec: 3 },
            Col::Annot { name: "caught_ratio", header: "caught" },
            Col::Metric { name: "lies_before_exclusion", header: "lies before exclusion", prec: 1 },
            Col::Metric { name: "geometric", header: "geometric 1/p", prec: 1 },
            Col::Metric { name: "time_to_exclusion_s", header: "time to exclusion (s)", prec: 1 },
            Col::Field { field: "lies_told", stat: Stat::Mean, header: "lies told (avg)", prec: 1 },
        ],
        &["lies-before-exclusion should track 1/p: small p = slow immediate detection (paper relies on the audit as the backstop)."],
        Some(derive::detection),
    ),
    sim(
        "e2_audit",
        "E2: lies accepted before the audit's first catch vs audited fraction (always-liar, p=0)",
        &[
            Col::Coord { axis: "audit fraction", header: "audit fraction", prec: 2 },
            Col::Annot { name: "caught_ratio", header: "caught" },
            Col::Metric { name: "lies_slipped", header: "lies slipped (avg)", prec: 1 },
            Col::Metric { name: "expected_slip", header: "expected ~1/fraction", prec: 1 },
            Col::Metric { name: "time_to_exclusion_s", header: "time to exclusion (s)", prec: 1 },
        ],
        &["full audit catches the very first accepted lie (once its version bucket closes after max_latency); sampling f lets ~1/f lies through first — the paper's 'weaken the security guarantees' trade-off, with exclusion still guaranteed eventually."],
        Some(derive::audit),
    ),
    sim(
        "e3_freshness",
        "E3a: stale-read rate vs keep-alive period (max_latency = 1000 ms, 50 ms client links)",
        &[
            Col::Coord { axis: "keepalive (ms)", header: "keepalive (ms)", prec: 0 },
            Col::Metric { name: "max_latency_ms", header: "max_latency (ms)", prec: 0 },
            Col::Metric { name: "stale_pct", header: "stale rejects (%)", prec: 2 },
        ],
        &["as the keep-alive period approaches max_latency, stamps arrive at clients with little freshness budget left and rejections climb."],
        Some(derive::freshness),
    ),
    sim(
        "e3_slow_client",
        "E3b: a slow client starves under the global bound; its own relaxed max_latency restores service",
        &[
            Col::Coord {
                axis: "client link median (ms)",
                header: "client link median (ms)",
                prec: 0,
            },
            Col::Metric { name: "bound_ms", header: "client max_latency (ms)", prec: 0 },
            Col::Metric { name: "slow_stale", header: "stale rejections", prec: 0 },
            Col::Metric { name: "slow_accept_pct", header: "reads accepted (%)", prec: 1 },
        ],
        &["the paper's accommodation: slow clients set modest freshness expectations and become serviceable again."],
        Some(derive::slow_client),
    ),
    sim(
        "e4_writes",
        "E4: achievable write throughput vs max_latency (offered load 50 writes/s)",
        &[
            Col::Coord { axis: "max_latency (ms)", header: "max_latency (ms)", prec: 0 },
            Col::Metric { name: "achieved_wps", header: "achieved writes/s", prec: 2 },
            Col::Metric { name: "bound_wps", header: "bound 1/max_latency", prec: 2 },
            Col::Metric { name: "bound_utilisation", header: "utilisation of bound", prec: 2 },
            Col::Metric { name: "write_p50_ms", header: "write latency p50 (ms)", prec: 1 },
            Col::Metric { name: "read_accept_pct", header: "reads accepted (%)", prec: 1 },
            Col::Field {
                field: "writes_denied",
                stat: Stat::Mean,
                header: "writes denied",
                prec: 0,
            },
        ],
        &[
            "committed writes track the 1/max_latency ceiling — the structural reason the paper restricts the design to read-heavy workloads.",
            "read service stays high throughout: lazy updates decouple reads from write admission.",
        ],
        Some(derive::writes),
    ),
    sim(
        "e5_master_load",
        "E5: trusted-host load vs double-check probability p (96 reads/s offered)",
        &[
            Col::Coord { axis: "p", header: "p", prec: 2 },
            Col::Metric { name: "dc_rate", header: "measured DC rate", prec: 3 },
            Col::Metric { name: "serving_cpu_pct", header: "serving-master CPU (%)", prec: 2 },
            Col::Metric { name: "auditor_cpu_pct", header: "auditor CPU (%)", prec: 2 },
            Col::Metric { name: "slave_cpu_pct", header: "avg slave CPU (%)", prec: 2 },
        ],
        &[
            "serving-master load grows linearly in p while slave load is flat — the knob trades trusted CPU for detection speed (E1).",
            "the auditor's load is independent of p: it re-executes every non-double-checked read regardless.",
        ],
        Some(derive::master_load),
    ),
    Experiment {
        name: "e6_comparison",
        title: "E6: per-read cost comparison on an identical 2000-query stream",
        columns: &[
            Col::Label("scheme"),
            Col::Metric { name: "trusted_us_per_read", header: "trusted us/read", prec: 1 },
            Col::Metric { name: "untrusted_us_per_read", header: "untrusted us/read", prec: 1 },
            Col::Metric { name: "client_us_per_read", header: "client us/read", prec: 1 },
            Col::Metric { name: "latency_mean_ms", header: "latency mean (ms)", prec: 2 },
            Col::Annot { name: "guarantee", header: "guarantee" },
        ],
        notes: &["shape to check: SMR's untrusted cost ≈ q × ours; SMR latency grows with q (slowest-member effect); state signing's trusted cost ≫ ours because every dynamic query runs on trusted hardware."],
        source: Source::Direct(direct::comparison),
    },
    Experiment {
        name: "e7_auditor",
        title: "E7: auditor backlog/lag over two compressed diurnal days (peak 144 reads/s)",
        columns: &[
            Col::Label("configuration"),
            Col::Metric { name: "peak_backlog", header: "peak backlog", prec: 0 },
            Col::Field {
                field: "audit_backlog",
                stat: Stat::Mean,
                header: "final backlog",
                prec: 0,
            },
            Col::Metric { name: "peak_lag_ms", header: "peak lag (ms)", prec: 1 },
            Col::Metric { name: "final_lag_ms", header: "final lag (ms)", prec: 1 },
            Col::Metric { name: "cache_hit_rate", header: "cache hit rate", prec: 2 },
        ],
        notes: &["backlog swells at the midday peak and drains overnight; the cache cuts re-execution work; a starved auditor without cache ends the day still behind — the paper's cue to add auditors or sample."],
        source: Source::Sim {
            probe: None,
            derive: Some(derive::auditor),
            lines: Some(derive::backlog_shapes),
        },
    },
    sim(
        "e8_greedy",
        "E8: greedy-client throttling vs greediness (honest p = 0.02, window 30 s)",
        &[
            Col::Coord { axis: "greedy client p", header: "greedy client p", prec: 2 },
            Col::Metric { name: "greedy_dc_sent", header: "greedy DCs sent", prec: 0 },
            Col::Metric { name: "greedy_throttled_pct", header: "greedy throttled (%)", prec: 1 },
            Col::Metric { name: "honest_dc_sent", header: "honest DCs sent", prec: 0 },
            Col::Metric { name: "honest_throttled_pct", header: "honest throttled (%)", prec: 1 },
        ],
        &["at p = 0.02 the 'greedy' client is indistinguishable from honest (false-positive row ≈ 0%); as its rate departs from the population median the master ignores most of its quota abuse."],
        Some(derive::greedy),
    ),
    sim(
        "e9_quorum_reads",
        "E9: quorum reads vs colluding liars (6 slaves, lie prob 0.3, p=0 and audit off)",
        &[
            Col::Coord { axis: "read quorum k", header: "read quorum k", prec: 0 },
            Col::Coord { axis: "colluders", header: "colluders", prec: 0 },
            Col::Field { field: "lies_told", stat: Stat::Mean, header: "lies told", prec: 0 },
            Col::Field {
                field: "wrong_accepted",
                stat: Stat::Mean,
                header: "wrong accepted",
                prec: 0,
            },
            Col::Field {
                field: "dc_sent",
                stat: Stat::Mean,
                header: "auto double-checks",
                prec: 0,
            },
            Col::Metric { name: "untrusted_us_per_read", header: "untrusted us/read", prec: 0 },
        ],
        &[
            "k=1 accepts every consistent lie (nothing else checks here); k>=2 accepts a lie only when ALL k assigned slaves collude on it, and any disagreement triggers a mandatory double-check.",
            "untrusted us/read grows ~k-fold — the paper's 'more computing resources … but these resources need not be trusted'.",
        ],
        Some(derive::quorum_reads),
    ),
    sim(
        "e10_levels",
        "E10: sensitive-read fraction vs correctness and trusted load (one liar, checks disabled)",
        &[
            Col::Coord { axis: "sensitive fraction", header: "sensitive fraction", prec: 2 },
            Col::Field {
                field: "reads_sensitive",
                stat: Stat::Mean,
                header: "sensitive reads",
                prec: 0,
            },
            Col::Field {
                field: "wrong_accepted",
                stat: Stat::Mean,
                header: "wrong accepted",
                prec: 0,
            },
            Col::Metric { name: "wrong_rate_pct", header: "wrong rate (%)", prec: 2 },
            Col::Metric { name: "serving_cpu_pct", header: "serving-master CPU (%)", prec: 2 },
        ],
        &["wrong answers come only from the normal (slave) path: at fraction 1.0 every read runs on trusted hardware and the wrong rate is exactly 0, with master CPU scaling up accordingly."],
        Some(derive::levels),
    ),
    Experiment {
        name: "e11_crypto",
        title: "E11: measured crypto costs (wall clock)",
        columns: &[
            Col::Label("operation"),
            Col::Metric { name: "us_per_op", header: "us/op", prec: 2 },
        ],
        notes: &["the auditor never signs: per checked pledge it saves one full sign (the single most expensive operation above)."],
        source: Source::Direct(direct::crypto),
    },
    Experiment {
        name: "e12_failover",
        title: "E12: master crash at t=20s (4 masters, 8 slaves, 12 clients; run to t=80s)",
        columns: &[
            Col::Label("crashed master"),
            Col::Annot { name: "survivor_slaves", header: "slaves owned by survivors" },
            Col::Metric { name: "re_setups", header: "client re-setups", prec: 0 },
            Col::Metric { name: "post_accept_pct", header: "post-crash accept rate (%)", prec: 1 },
            Col::Metric { name: "post_writes", header: "post-crash writes", prec: 0 },
            Col::Metric { name: "post_failed_reads", header: "post-crash failed reads", prec: 0 },
        ],
        notes: &["all 8 slaves end up owned by survivors (deterministic division); clients of the dead master redo setup and service continues, including writes ordered by the new sequencer."],
        source: Source::Sim {
            probe: Some(derive::survivor_slaves),
            derive: Some(derive::failover),
            lines: None,
        },
    },
    sim(
        "sharded_commit",
        "sharded_commit: committed writes vs shard count (saturating write demand)",
        &[
            Col::Coord { axis: "shards", header: "shards", prec: 0 },
            Col::Field {
                field: "writes_committed",
                stat: Stat::Mean,
                header: "committed writes",
                prec: 1,
            },
        ],
        &[],
        None,
    ),
    sim(
        "batched_commit",
        "batched_commit: committed writes vs sequencer batch size (one shard)",
        &[
            Col::Coord { axis: "batch", header: "batch", prec: 0 },
            Col::Field {
                field: "writes_committed",
                stat: Stat::Mean,
                header: "committed writes",
                prec: 1,
            },
        ],
        &[],
        None,
    ),
    sim(
        "cdn_media",
        "cdn_media: chunk dedup and verified streams vs content shared between files",
        &[
            Col::Coord { axis: "shared lines", header: "shared lines", prec: 0 },
            Col::Field {
                field: "chunk_dedup_ratio",
                stat: Stat::Mean,
                header: "dedup ratio",
                prec: 3,
            },
            Col::Field {
                field: "stream_reads_accepted",
                stat: Stat::Mean,
                header: "streams accepted",
                prec: 1,
            },
        ],
        &[],
        None,
    ),
    sim(
        "churn_100k",
        "churn_100k: 2000 clients, half churning, over a 100k-row catalogue on 4 shards",
        &[
            Col::Field { field: "churn_joins", stat: Stat::Mean, header: "joins", prec: 0 },
            Col::Field { field: "churn_leaves", stat: Stat::Mean, header: "leaves", prec: 0 },
            Col::Field {
                field: "reads_accepted",
                stat: Stat::Mean,
                header: "reads accepted",
                prec: 0,
            },
            Col::Field { field: "sim_queue_peak", stat: Stat::Mean, header: "queue peak", prec: 0 },
            Col::Field {
                field: "msg_sharing_ratio",
                stat: Stat::Mean,
                header: "msg sharing",
                prec: 2,
            },
        ],
        &[],
        None,
    ),
    sim(
        "flash_crowd",
        "flash_crowd: proof-reply cache vs hot-key skew (2000 clients, 8 hot keys)",
        &[
            Col::Coord { axis: "skew", header: "skew", prec: 2 },
            Col::Field {
                field: "proof_cache_hit_rate",
                stat: Stat::Mean,
                header: "proof cache hit rate",
                prec: 3,
            },
            Col::Field {
                field: "stamp_cache_hits",
                stat: Stat::Mean,
                header: "stamp hits",
                prec: 0,
            },
            Col::Field {
                field: "wrong_accepted",
                stat: Stat::Mean,
                header: "wrong accepted",
                prec: 0,
            },
        ],
        &[],
        None,
    ),
    sim(
        "range_scan",
        "range_scan: verified range scans vs page size (10k-row catalogue)",
        &[
            Col::Coord { axis: "scan rows", header: "scan rows", prec: 0 },
            Col::Field {
                field: "range_rows_verified",
                stat: Stat::Mean,
                header: "rows verified",
                prec: 0,
            },
            Col::Field {
                field: "range_proof_bytes",
                stat: Stat::Mean,
                header: "range proof bytes",
                prec: 0,
            },
            Col::Field {
                field: "wrong_accepted",
                stat: Stat::Mean,
                header: "wrong accepted",
                prec: 0,
            },
        ],
        &[],
        None,
    ),
];

#[cfg(test)]
mod tests {
    use super::*;
    use sdr_sim::SimDuration;

    /// Every `Col::Field` names a row of `SystemStats::numeric_fields`;
    /// `CellReport::mean` prints any other name as a silent zero.
    #[test]
    fn every_field_column_names_a_statistic() {
        let mut spec = registry::lookup("quickstart").expect("registered");
        spec.duration = SimDuration::from_secs(1);
        spec.seeds = vec![1];
        let report = Runner::new(spec).run().expect("run");
        let fields = report.cells[0].runs[0].stats.numeric_fields();
        for exp in EXPERIMENTS {
            for col in exp.columns {
                if let Col::Field { field, .. } = col {
                    assert!(
                        fields.iter().any(|(name, _)| name == field),
                        "{}: column field `{field}` is not a statistic",
                        exp.name
                    );
                }
            }
        }
    }
}
