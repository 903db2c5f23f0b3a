//! The benchmark's own tests.  Run with
//! `cargo test --release --manifest-path perfbench/Cargo.toml`
//! (debug builds make the 100k-row churn set-up slow).

use sdr_perfbench::bench::check_outcome;
use sdr_perfbench::metrics::{END_TO_END, PER_LAYER};
use sdr_perfbench::rep;
use sdr_perfbench::trace::Tracer;
use sdr_perfbench::workloads::Workload;
use sdr_sim::SimDuration;
use serde::json::Value;

fn manifest() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    Value::parse(&text).expect("BENCHMARK.json parses")
}

fn names_units(manifest: &Value, key: &str) -> Vec<(String, String)> {
    manifest
        .as_object()
        .and_then(|o| o.get(key))
        .and_then(Value::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json has a `{key}` list"))
        .iter()
        .map(|m| {
            let o = m.as_object().expect("metric object");
            let field = |f: &str| {
                o.get(f)
                    .and_then(Value::as_str)
                    .expect("string field")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

fn owned(list: &[(&str, &str)]) -> Vec<(String, String)> {
    list.iter()
        .map(|&(n, u)| (n.to_string(), u.to_string()))
        .collect()
}

#[test]
fn printed_metric_names_match_benchmark_json() {
    let m = manifest();
    assert_eq!(names_units(&m, "end_to_end"), owned(&END_TO_END));
    assert_eq!(names_units(&m, "per_layer"), owned(&PER_LAYER));
    let workloads: Vec<String> = m
        .as_object()
        .and_then(|o| o.get("workloads"))
        .and_then(Value::as_array)
        .expect("workloads list")
        .iter()
        .map(|w| {
            w.as_object()
                .and_then(|o| o.get("name"))
                .and_then(Value::as_str)
                .expect("name")
                .to_string()
        })
        .collect();
    let ours: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
    assert_eq!(workloads, ours);
}

/// A short run of every workload: the checks pass, a re-run and a
/// traced run reproduce the modeled outcome exactly.
#[test]
fn short_run_of_each_workload_passes_its_checks() {
    for w in Workload::ALL {
        let mut spec = w.spec(7, 0);
        spec.duration = SimDuration::from_millis(match w {
            Workload::WriteScan => 3_000,
            _ => 1_500,
        });
        let first = rep::run(&spec);
        let mut failures = Vec::new();
        check_outcome(w, &first.modeled, &mut failures);
        assert!(failures.is_empty(), "{}: {failures:?}", w.name());
        assert_eq!(
            rep::run(&spec).modeled,
            first.modeled,
            "{} re-run",
            w.name()
        );
        let mut tracer = Tracer::new();
        let (traced, dbs) = rep::run_traced(&spec, &mut tracer);
        assert_eq!(traced.modeled, first.modeled, "{} traced run", w.name());
        assert_eq!(dbs.len(), spec.config.n_shards);
        assert!(!tracer.steps().is_empty());
    }
}
