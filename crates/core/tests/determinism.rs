//! Determinism pins.
//!
//! Each row below runs one trimmed registry scenario (one sweep cell, a
//! short duration) and compares its JSON report against a fixture under
//! `tests/fixtures/`.  Every field a fixture contains must match the
//! current run bit-exactly (fields added to `SystemStats` after the
//! capture are allowed to appear alongside), so any drift in event
//! order, RNG draws, modeled charges or message sizes fails here.
//!
//! The rows are chosen to cover the read paths, not just the scheduler:
//! `quickstart` pins the pledged path and every timer/cancel path;
//! `flash_crowd` pins slave reply-cache hits and verified streams;
//! `range_scan` pins range proofs and reply-cache evictions; `cdn_media`
//! pins chunk rejects and proof retries against a lying edge node.  Each
//! row also asserts that its run really exercised those paths, so a
//! fixture cannot silently pin a run where they never fire.
//!
//! Regenerate (only when intentionally changing workload semantics):
//! `UPDATE_FIXTURES=1 cargo test -p sdr-core --test determinism`.

use sdr_core::scenario::{registry, Grid, Runner, ScenarioSpec};
use sdr_sim::SimDuration;
use serde::json::Value;
use std::path::PathBuf;

/// One pinned run.
struct Pin {
    /// Registry scenario name.
    scenario: &'static str,
    /// The one sweep cell kept (`None` for unswept scenarios).
    cell: Option<f64>,
    /// Client population cap (`None` keeps the registry's).
    clients: Option<usize>,
    /// Simulated run length in seconds.
    secs: u64,
    /// Fixture file under `tests/fixtures/`.
    fixture: &'static str,
    /// Report aggregates that must be non-zero for the pin to mean
    /// anything.
    exercised: &'static [&'static str],
}

const PINS: &[Pin] = &[
    Pin {
        scenario: "quickstart",
        cell: None,
        clients: None,
        secs: 10,
        fixture: "quickstart_seed_report.json",
        exercised: &["reads_accepted", "lies_told", "writes_committed"],
    },
    Pin {
        scenario: "flash_crowd",
        cell: Some(0.99),
        clients: Some(200),
        secs: 4,
        fixture: "flash_crowd_report.json",
        exercised: &[
            "proof_cache_hits",
            "stream_reads_accepted",
            "stamp_cache_hits",
        ],
    },
    Pin {
        scenario: "range_scan",
        cell: Some(256.0),
        clients: None,
        secs: 2,
        fixture: "range_scan_report.json",
        exercised: &["range_rows_verified", "proof_cache_evictions"],
    },
    Pin {
        scenario: "cdn_media",
        cell: Some(400.0),
        clients: None,
        secs: 12,
        fixture: "cdn_media_report.json",
        exercised: &[
            "stream_chunk_rejects",
            "proof_retries",
            "stream_reads_accepted",
        ],
    },
];

fn fixture_path(pin: &Pin) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(pin.fixture)
}

/// The trimmed spec a pin runs.
fn pinned_spec(pin: &Pin) -> ScenarioSpec {
    let mut spec = registry::lookup(pin.scenario).expect("registered scenario");
    spec.duration = SimDuration::from_secs(pin.secs);
    spec.checkpoints = vec![SimDuration::from_secs(pin.secs / 2)];
    if let Some(value) = pin.cell {
        let axis = &spec.grid.axes[0];
        assert!(
            axis.values.contains(&value),
            "{}: {value} is not a swept cell",
            pin.scenario
        );
        spec.grid = Grid::sweep(&axis.name.clone(), axis.param, &[value]);
    }
    if let Some(n) = pin.clients {
        spec.config.n_clients = n;
    }
    spec
}

/// Asserts every value present in `fixture` appears identically in
/// `current`.  Objects may gain keys (new telemetry fields); arrays of
/// `{field, ...}` / `{name, ...}` records are matched by that key so
/// appended aggregate rows don't shift positions.
fn assert_subset(fixture: &Value, current: &Value, path: &str) {
    match (fixture, current) {
        (Value::Object(f), Value::Object(c)) => {
            for (k, fv) in f.iter() {
                let cv = c
                    .get(k)
                    .unwrap_or_else(|| panic!("{path}.{k}: missing in current run"));
                assert_subset(fv, cv, &format!("{path}.{k}"));
            }
        }
        (Value::Array(f), Value::Array(c)) => {
            let keyed = |v: &Value| -> Option<String> {
                if let Value::Object(o) = v {
                    for key in ["field", "name"] {
                        if let Some(Value::Str(s)) = o.get(key) {
                            return Some(s.clone());
                        }
                    }
                }
                None
            };
            if f.iter().all(|v| keyed(v).is_some()) && !f.is_empty() {
                for fv in f {
                    let k = keyed(fv).unwrap();
                    let cv = c
                        .iter()
                        .find(|v| keyed(v).as_deref() == Some(&k))
                        .unwrap_or_else(|| panic!("{path}[{k}]: missing in current run"));
                    assert_subset(fv, cv, &format!("{path}[{k}]"));
                }
            } else {
                assert_eq!(
                    f.len(),
                    c.len(),
                    "{path}: array length {} != {}",
                    f.len(),
                    c.len()
                );
                for (i, (fv, cv)) in f.iter().zip(c.iter()).enumerate() {
                    assert_subset(fv, cv, &format!("{path}[{i}]"));
                }
            }
        }
        _ => {
            assert_eq!(
                fixture.render(),
                current.render(),
                "{path}: fixture {} != current {}",
                fixture.render(),
                current.render()
            );
        }
    }
}

#[test]
fn pinned_runs_match_their_fixtures() {
    for pin in PINS {
        let report = Runner::new(pinned_spec(pin)).run().expect("run");
        for field in pin.exercised {
            assert!(
                report.cells[0].mean(field) > 0.0,
                "{}: {field} is zero, so the pin does not exercise that path",
                pin.scenario
            );
        }
        let text = report.to_json_string();
        let current = Value::parse(&text).expect("report parses");

        if std::env::var("UPDATE_FIXTURES").is_ok() {
            std::fs::write(fixture_path(pin), &text).expect("write fixture");
            continue;
        }
        let raw = std::fs::read_to_string(fixture_path(pin)).expect("fixture present");
        let fixture = Value::parse(&raw).expect("fixture parses");
        assert_subset(&fixture, &current, &format!("{}:$", pin.scenario));
    }
}

#[test]
fn repeated_runs_are_byte_identical() {
    let pin = &PINS[0];
    let a = Runner::new(pinned_spec(pin))
        .run()
        .expect("run")
        .to_json_string();
    let b = Runner::new(pinned_spec(pin))
        .run()
        .expect("run")
        .to_json_string();
    assert_eq!(a, b);
}
