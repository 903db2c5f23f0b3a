//! Registry completeness: every entry of the experiment table must
//! resolve to a registered, valid scenario, and every registered
//! scenario must be either a table entry or one the examples or the
//! library run on their own.

use sdr_bench::experiments::{find, EXPERIMENTS};
use sdr_bench::{BenchCli, SeedArg};
use sdr_core::scenario::{registry, RunReport};
use sdr_sim::SimDuration;

/// Registered scenarios no table entry runs: the examples' own, and the
/// studies driven from the library or its tests.
const OUTSIDE_THE_TABLE: [&str; 7] = [
    "quickstart",
    "byzantine_storm",
    "master_failover",
    "cdn_catalog",
    "medical_db",
    "large_catalog",
    "proof_vs_pledge",
];

#[test]
fn every_experiment_entry_resolves() {
    for exp in EXPERIMENTS {
        let spec = registry::lookup(exp.name)
            .unwrap_or_else(|| panic!("table entry `{}` has no registered scenario", exp.name));
        spec.validate().unwrap_or_else(|e| panic!("{}: {e}", exp.name));
    }
    for name in registry::names() {
        assert!(
            find(name).is_some() || OUTSIDE_THE_TABLE.contains(&name),
            "registered scenario `{name}` is neither a table entry nor listed as run elsewhere"
        );
    }
}

/// The cheapest entry, run in-process through the same function the
/// `run` binary uses, emits JSON that parses back to the same bytes.
#[test]
fn cheapest_entry_report_round_trips() {
    let exp = find("e7_auditor").expect("table entry");
    let cli = BenchCli {
        seeds: Some(SeedArg::Count(1)),
        duration: Some(SimDuration::from_secs(3)),
        ..BenchCli::default()
    };
    let outcome = exp.run(&cli).expect("entry runs");
    let back = RunReport::from_json_str(&outcome.json).expect("report parses");
    assert_eq!(back.to_json_string(), outcome.json);
    assert_eq!(outcome.report.to_json_string(), outcome.json);
    assert!(outcome.report.cells.iter().all(|c| c.metric("peak_backlog").is_some()));
}

/// The registry's own invariants: names are unique and every spec
/// validates (including sweep applicability).
#[test]
fn registry_names_are_unique_and_valid() {
    let names = registry::names();
    let mut sorted = names.clone();
    sorted.sort_unstable();
    sorted.dedup();
    assert_eq!(sorted.len(), names.len(), "duplicate registry names");
    for name in names {
        let spec = registry::lookup(name).expect("registered");
        spec.validate().unwrap_or_else(|e| panic!("{name}: {e}"));
    }
}

/// The production-scale scenario actually runs: a shrunk `large_catalog`
/// (10k products) completes end-to-end — infeasible before the
/// copy-on-write store, when every committed write deep-cloned and every
/// digest re-encoded the whole dataset.
#[test]
fn large_catalog_scenario_runs_shrunk() {
    use sdr_core::scenario::Runner;
    use sdr_sim::SimDuration;

    let mut spec = registry::lookup("large_catalog").expect("registered");
    spec.duration = SimDuration::from_secs(10);
    spec.checkpoints.clear();
    spec.seeds = vec![spec.seeds[0]];
    let report = Runner::new(spec).run().expect("scenario runs");
    let stats = &report.cells[0].runs[0].stats;
    assert!(stats.reads_issued > 0, "no reads issued");
    assert!(stats.writes_committed > 0, "no writes committed");
}

/// The five examples are registered too (they fetch specs by name).
#[test]
fn example_scenarios_are_registered() {
    for name in [
        "quickstart",
        "byzantine_storm",
        "master_failover",
        "cdn_catalog",
        "medical_db",
    ] {
        assert!(
            registry::lookup(name).is_some(),
            "example scenario `{name}` missing from registry"
        );
    }
}
