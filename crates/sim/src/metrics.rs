//! Metrics: counters, histograms with percentiles, time series.
//!
//! Everything an experiment reports flows through a [`Metrics`] registry
//! owned by the world; the benchmark harness reads it after `run_until`.

use crate::time::SimTime;
use serde::{FromJson, ToJson};
use std::collections::BTreeMap;

/// A recording of `u64` observations with on-demand percentile queries.
#[derive(Clone, Debug, Default)]
pub struct Histogram {
    values: Vec<u64>,
    sorted: bool,
}

/// Summary statistics extracted from a [`Histogram`].
#[derive(Clone, Copy, Debug, PartialEq, ToJson, FromJson)]
pub struct Summary {
    /// Number of observations.
    pub count: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Minimum value.
    pub min: u64,
    /// Median (p50).
    pub p50: u64,
    /// 90th percentile.
    pub p90: u64,
    /// 99th percentile.
    pub p99: u64,
    /// Maximum value.
    pub max: u64,
}

impl Summary {
    /// A summary of an empty histogram (all zeros).
    pub const EMPTY: Summary = Summary {
        count: 0,
        mean: 0.0,
        min: 0,
        p50: 0,
        p90: 0,
        p99: 0,
        max: 0,
    };
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Records one observation.
    pub fn observe(&mut self, value: u64) {
        self.values.push(value);
        self.sorted = false;
    }

    /// Number of observations.
    pub fn count(&self) -> usize {
        self.values.len()
    }

    fn ensure_sorted(&mut self) {
        if !self.sorted {
            self.values.sort_unstable();
            self.sorted = true;
        }
    }

    /// The `q`-quantile (0.0..=1.0) by nearest-rank; 0 when empty.
    pub fn quantile(&mut self, q: f64) -> u64 {
        if self.values.is_empty() {
            return 0;
        }
        self.ensure_sorted();
        let rank = ((self.values.len() as f64) * q).ceil() as usize;
        let idx = rank.clamp(1, self.values.len()) - 1;
        self.values[idx]
    }

    /// Arithmetic mean; 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.values.is_empty() {
            return 0.0;
        }
        self.values.iter().map(|&v| v as f64).sum::<f64>() / self.values.len() as f64
    }

    /// Full summary statistics.
    pub fn summary(&mut self) -> Summary {
        if self.values.is_empty() {
            return Summary::EMPTY;
        }
        self.ensure_sorted();
        Summary {
            count: self.values.len(),
            mean: self.mean(),
            min: self.values[0],
            p50: self.quantile(0.50),
            p90: self.quantile(0.90),
            p99: self.quantile(0.99),
            max: *self.values.last().expect("non-empty"),
        }
    }

    /// Raw observations (unsorted order not guaranteed).
    pub fn values(&self) -> &[u64] {
        &self.values
    }
}

/// Registry of named metrics for one simulation run.
///
/// `BTreeMap` keys keep report output deterministically ordered.
#[derive(Clone, Debug, Default)]
pub struct Metrics {
    counters: BTreeMap<String, u64>,
    histograms: BTreeMap<String, Histogram>,
    series: BTreeMap<String, Vec<(SimTime, f64)>>,
}

impl Metrics {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Metrics::default()
    }

    /// Adds `delta` to the named counter.
    pub fn add(&mut self, name: &str, delta: u64) {
        *self.counters.entry(name.to_string()).or_insert(0) += delta;
    }

    /// Increments the named counter by one.
    pub fn inc(&mut self, name: &str) {
        self.add(name, 1);
    }

    /// Reads a counter (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Records an observation into the named histogram.
    pub fn observe(&mut self, name: &str, value: u64) {
        self.histograms
            .entry(name.to_string())
            .or_default()
            .observe(value);
    }

    /// Summary of the named histogram ([`Summary::EMPTY`] when absent).
    pub fn summary(&mut self, name: &str) -> Summary {
        self.histograms
            .get_mut(name)
            .map(Histogram::summary)
            .unwrap_or(Summary::EMPTY)
    }

    /// Mutable access to a histogram (created on demand).
    pub fn histogram_mut(&mut self, name: &str) -> &mut Histogram {
        self.histograms.entry(name.to_string()).or_default()
    }

    /// Appends a `(time, value)` point to the named time series.
    pub fn series_push(&mut self, name: &str, at: SimTime, value: f64) {
        self.series
            .entry(name.to_string())
            .or_default()
            .push((at, value));
    }

    /// Reads a time series (empty when absent).
    pub fn series(&self, name: &str) -> &[(SimTime, f64)] {
        self.series.get(name).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Merges another registry into this one (counters add, histograms
    /// concatenate, series concatenate).
    pub fn merge(&mut self, other: &Metrics) {
        for (k, v) in &other.counters {
            *self.counters.entry(k.clone()).or_insert(0) += v;
        }
        for (k, h) in &other.histograms {
            let mine = self.histograms.entry(k.clone()).or_default();
            for &v in h.values() {
                mine.observe(v);
            }
        }
        for (k, s) in &other.series {
            self.series.entry(k.clone()).or_default().extend(s.iter());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters() {
        let mut m = Metrics::new();
        m.inc("reads");
        m.add("reads", 4);
        assert_eq!(m.counter("reads"), 5);
        assert_eq!(m.counter("missing"), 0);
    }

    #[test]
    fn histogram_percentiles() {
        let mut h = Histogram::new();
        for v in 1..=100 {
            h.observe(v);
        }
        assert_eq!(h.quantile(0.50), 50);
        assert_eq!(h.quantile(0.90), 90);
        assert_eq!(h.quantile(0.99), 99);
        assert_eq!(h.quantile(1.0), 100);
        assert_eq!(h.quantile(0.0), 1);
        assert!((h.mean() - 50.5).abs() < 1e-9);
    }

    #[test]
    fn empty_histogram_summary() {
        let mut h = Histogram::new();
        assert_eq!(h.summary(), Summary::EMPTY);
    }

    #[test]
    fn summary_fields() {
        let mut m = Metrics::new();
        for v in [10u64, 20, 30] {
            m.observe("lat", v);
        }
        let s = m.summary("lat");
        assert_eq!(s.count, 3);
        assert_eq!(s.min, 10);
        assert_eq!(s.max, 30);
        assert_eq!(s.p50, 20);
        assert!((s.mean - 20.0).abs() < 1e-9);
    }

    #[test]
    fn observe_after_summary_stays_correct() {
        let mut h = Histogram::new();
        h.observe(5);
        let _ = h.summary();
        h.observe(1);
        assert_eq!(h.quantile(0.0), 1);
    }

    #[test]
    fn series_ordering() {
        let mut m = Metrics::new();
        m.series_push("lag", SimTime(1), 0.5);
        m.series_push("lag", SimTime(2), 0.7);
        assert_eq!(m.series("lag").len(), 2);
        assert_eq!(m.series("lag")[1], (SimTime(2), 0.7));
        assert!(m.series("missing").is_empty());
    }

    #[test]
    fn merge_combines() {
        let mut a = Metrics::new();
        let mut b = Metrics::new();
        a.add("x", 1);
        b.add("x", 2);
        b.observe("h", 9);
        a.merge(&b);
        assert_eq!(a.counter("x"), 3);
        assert_eq!(a.summary("h").count, 1);
    }
}
