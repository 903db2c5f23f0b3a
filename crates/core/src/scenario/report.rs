//! Machine-readable run reports.
//!
//! A [`RunReport`] is the structured result of executing a
//! [`ScenarioSpec`](super::ScenarioSpec): one [`CellReport`] per sweep
//! cell, each holding the per-seed [`RunRecord`]s, per-field
//! mean/min/max aggregates over every [`SystemStats`] scalar, and any
//! derived metrics or string annotations the experiment attaches.  The
//! whole tree serialises to JSON (`--json` on the `run` binary) and
//! parses back, so downstream tooling can diff runs across commits.

use crate::stats::SystemStats;
use serde::json::{self, JsonError};
use serde::{FromJson, ToJson};

/// A captured metric time-series (seconds since start, value).
#[derive(Clone, Debug, ToJson, FromJson)]
pub struct NamedSeries {
    /// Metric name in the simulator's registry.
    pub name: String,
    /// `(t_secs, value)` points.
    pub points: Vec<(f64, f64)>,
}

/// A mid-run statistics snapshot.
#[derive(Clone, Debug, ToJson, FromJson)]
pub struct StatsCheckpoint {
    /// When the snapshot was taken (virtual seconds).
    pub at_secs: f64,
    /// The statistics at that instant (cumulative since start).
    pub stats: SystemStats,
}

/// The result of one `(cell, seed)` execution.
#[derive(Clone, Debug, ToJson, FromJson)]
pub struct RunRecord {
    /// The base seed this run belongs to.
    pub seed: u64,
    /// The seed the world actually ran with (base mixed with the cell
    /// index, so sweep rows are uncorrelated).
    pub world_seed: u64,
    /// End-of-run statistics.
    pub stats: SystemStats,
    /// Mid-run snapshots (one per requested checkpoint).
    pub checkpoints: Vec<StatsCheckpoint>,
    /// Captured metric series.
    pub series: Vec<NamedSeries>,
}

impl RunRecord {
    /// A captured series by name.
    pub fn series(&self, name: &str) -> Option<&NamedSeries> {
        self.series.iter().find(|s| s.name == name)
    }

    /// The first point of a captured series (e.g. the instant of the
    /// first exclusion).
    pub fn first_point(&self, name: &str) -> Option<(f64, f64)> {
        self.series(name).and_then(|s| s.points.first().copied())
    }
}

/// Mean/min/max of one statistics field across a cell's runs.
#[derive(Clone, Debug, ToJson, FromJson)]
pub struct FieldAggregate {
    /// Field name (see [`SystemStats::numeric_fields`]).
    pub field: String,
    /// Mean across runs.
    pub mean: f64,
    /// Minimum across runs.
    pub min: f64,
    /// Maximum across runs.
    pub max: f64,
}

/// One sweep cell: coordinates, per-seed runs, and aggregates.
#[derive(Clone, Debug, Default, ToJson, FromJson)]
pub struct CellReport {
    /// Display label (experiments fill this for non-numeric rows; empty
    /// means "derive from `coords`").
    pub label: String,
    /// `(axis name, value)` coordinates of this cell in the sweep grid.
    pub coords: Vec<(String, f64)>,
    /// One record per seed.
    pub runs: Vec<RunRecord>,
    /// Mean/min/max over the runs for every statistics field.
    pub aggregates: Vec<FieldAggregate>,
    /// Derived named metrics attached by the experiment (these travel
    /// into the JSON output alongside the raw aggregates).
    pub metrics: Vec<(String, f64)>,
    /// Derived string-valued columns (e.g. a guarantee description).
    pub annotations: Vec<(String, String)>,
}

impl CellReport {
    /// A coordinate by axis name.
    pub fn coord(&self, axis: &str) -> Option<f64> {
        self.coords.iter().find(|(n, _)| n == axis).map(|&(_, v)| v)
    }

    /// An aggregate by field name.
    pub fn agg(&self, field: &str) -> Option<&FieldAggregate> {
        self.aggregates.iter().find(|a| a.field == field)
    }

    /// Mean of a field across the cell's runs (0.0 when absent).
    pub fn mean(&self, field: &str) -> f64 {
        self.agg(field).map_or(0.0, |a| a.mean)
    }

    /// A derived metric by name.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// An annotation by name.
    pub fn annotation(&self, name: &str) -> Option<&str> {
        self.annotations
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    /// Attaches a derived metric (replacing one of the same name).
    pub fn push_metric(&mut self, name: &str, value: f64) {
        if let Some(slot) = self.metrics.iter_mut().find(|(n, _)| n == name) {
            slot.1 = value;
        } else {
            self.metrics.push((name.to_string(), value));
        }
    }

    /// Attaches a string annotation (replacing one of the same name).
    pub fn push_annotation(&mut self, name: &str, value: impl Into<String>) {
        let value = value.into();
        if let Some(slot) = self.annotations.iter_mut().find(|(n, _)| n == name) {
            slot.1 = value;
        } else {
            self.annotations.push((name.to_string(), value));
        }
    }

    /// Computes the mean/min/max aggregates from the current runs.
    pub fn recompute_aggregates(&mut self) {
        let mut table: Vec<(String, Vec<f64>)> = Vec::new();
        for run in &self.runs {
            for (name, value) in run.stats.numeric_fields() {
                match table.iter_mut().find(|(n, _)| *n == name) {
                    Some(slot) => slot.1.push(value),
                    None => table.push((name, vec![value])),
                }
            }
        }
        self.aggregates = table
            .into_iter()
            .map(|(field, values)| {
                let n = values.len().max(1) as f64;
                FieldAggregate {
                    mean: values.iter().sum::<f64>() / n,
                    min: values.iter().copied().fold(f64::INFINITY, f64::min),
                    max: values.iter().copied().fold(f64::NEG_INFINITY, f64::max),
                    field,
                }
            })
            .collect();
    }

    /// Display label: the explicit one, or the coordinates rendered as
    /// `a=1 b=2`.
    pub fn display_label(&self) -> String {
        if !self.label.is_empty() {
            return self.label.clone();
        }
        self.coords
            .iter()
            .map(|(n, v)| format!("{n}={v}"))
            .collect::<Vec<_>>()
            .join(" ")
    }
}

/// The structured result of running a scenario.
#[derive(Clone, Debug, Default, ToJson, FromJson)]
pub struct RunReport {
    /// Scenario name.
    pub scenario: String,
    /// Scenario description.
    pub description: String,
    /// Virtual run length, seconds.
    pub duration_secs: f64,
    /// The base seeds executed.
    pub seeds: Vec<u64>,
    /// One entry per sweep cell.
    pub cells: Vec<CellReport>,
}

impl RunReport {
    /// Serialises to compact JSON.
    pub fn to_json_string(&self) -> String {
        json::to_string(self)
    }

    /// Parses a report back from JSON.
    pub fn from_json_str(s: &str) -> Result<RunReport, JsonError> {
        json::from_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{registry, Runner};
    use sdr_sim::SimDuration;
    use serde::json::{ToJson, Value};

    /// The aggregates of a real (trimmed quickstart) run are exactly one
    /// row per numeric JSON leaf of `SystemStats` plus the derived rows,
    /// under unique names and with the struct's values.
    #[test]
    fn aggregates_cover_every_numeric_field() {
        let mut spec = registry::lookup("quickstart").expect("registered");
        spec.duration = SimDuration::from_secs(3);
        spec.seeds = vec![1];
        let report = Runner::new(spec).run().expect("run");
        let cell = &report.cells[0];
        let stats = &cell.runs[0].stats;

        // Aggregation merges rows of the same name, so uniqueness is
        // checked on the rows themselves.
        let mut names: Vec<String> = stats.numeric_fields().into_iter().map(|(n, _)| n).collect();
        let rows = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), rows, "numeric_fields names repeat");

        let Value::Object(json_fields) = stats.to_json() else {
            panic!("stats serialise to an object");
        };
        let mut leaves = Vec::new();
        for (name, value) in json_fields.iter() {
            match value {
                Value::Object(members) => leaves.extend(
                    members
                        .iter()
                        .filter(|(_, v)| v.as_f64().is_some())
                        .map(|(m, _)| format!("{name}_{m}")),
                ),
                Value::Array(_) => {}
                v => {
                    assert!(v.as_f64().is_some(), "{name} is not numeric");
                    leaves.push(name.to_string());
                }
            }
        }
        let derived = [
            "wrong_accept_rate",
            "master_util_mean",
            "slave_util_mean",
            "chunk_dedup_ratio",
            "range_proof_bytes",
            "msg_sharing_ratio",
            "proof_cache_hit_rate",
            "stamp_cache_hit_rate",
        ];
        for name in leaves.iter().map(String::as_str).chain(derived) {
            assert!(cell.agg(name).is_some(), "{name} has no aggregate");
        }
        assert_eq!(cell.aggregates.len(), leaves.len() + derived.len());
        assert_eq!(cell.aggregates.len(), rows);

        assert!(stats.read_latency.p99 > 0, "the run served no reads");
        assert_eq!(cell.mean("read_latency_p99"), stats.read_latency.p99 as f64);
        assert_eq!(cell.mean("read_latency_mean"), stats.read_latency.mean);
        assert_eq!(cell.mean("reads_issued"), stats.reads_issued as f64);
        assert_eq!(cell.mean("range_proof_bytes"), stats.range_proof_bytes.mean);
        assert_eq!(cell.mean("wrong_accept_rate"), stats.wrong_accept_rate());
    }

    #[test]
    fn metrics_and_annotations_replace() {
        let mut cell = CellReport::default();
        cell.push_metric("x", 1.0);
        cell.push_metric("x", 2.0);
        assert_eq!(cell.metric("x"), Some(2.0));
        cell.push_annotation("g", "a");
        cell.push_annotation("g", "b");
        assert_eq!(cell.annotation("g"), Some("b"));
    }
}
