//! Metric names, units, and the arithmetic the report rests on.

/// `(name, unit)` of every end-to-end metric in the JSON result, in
/// `BENCHMARK.json` order.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("run_s", "s"),
    ("peak_rss_mb", "MB"),
    ("reads_accepted_per_s", "1/s"),
];

/// `(name, unit)` of every per-layer metric in the traced JSON result, in
/// `BENCHMARK.json` order.
pub const PER_LAYER: [(&str, &str); 64] = [
    ("sim.events", "count"),
    ("sim.events_per_msg", "ratio"),
    ("sim.events_per_s", "1/s"),
    ("sim.queue_peak", "count"),
    ("sim.msg_sharing_ratio", "ratio"),
    ("sim.step_p50_ns", "ns"),
    ("sim.step_p99_ns", "ns"),
    ("crypto.sha256_64b_ns", "ns"),
    ("crypto.sha256_1kib_ns", "ns"),
    ("crypto.sha1_1kib_ns", "ns"),
    ("crypto.hmac_verify_ns", "ns"),
    ("crypto.mss_verify_us", "us"),
    ("crypto.sig_verifies", "count"),
    ("crypto.sig_share", "fraction"),
    ("store.dataset_build_s", "s"),
    ("store.exec_filter_us", "us"),
    ("store.exec_aggregate_us", "us"),
    ("store.exec_join_us", "us"),
    ("store.exec_range_us", "us"),
    ("store.exec_grep_us", "us"),
    ("store.exec_share", "fraction"),
    ("store.prove_row_us", "us"),
    ("store.prove_scan_us", "us"),
    ("store.prove_stream_us", "us"),
    ("store.verify_row_us", "us"),
    ("store.verify_scan_us", "us"),
    ("store.verify_stream_us", "us"),
    ("store.proof_share", "fraction"),
    ("store.apply_write_us", "us"),
    ("store.state_digest_us", "us"),
    ("model_ratio.exec_filter", "ratio"),
    ("model_ratio.verify_row", "ratio"),
    ("model_ratio.verify_scan", "ratio"),
    ("core.slave.reply_cache_hit_rate", "fraction"),
    ("core.slave.reply_cache_invalidations", "count"),
    ("core.slave.util_max", "fraction"),
    ("core.client.stamp_memo_hit_rate", "fraction"),
    ("core.client.cert_memo_hit_rate", "fraction"),
    ("core.client.proof_rejects", "count"),
    ("core.client.proof_retries", "count"),
    ("core.client.proof_fallbacks", "count"),
    ("core.client.read_retries", "count"),
    ("core.master.util_max", "fraction"),
    ("core.master.writes_per_round", "count"),
    ("core.auditor.audits", "count"),
    ("core.auditor.backlog", "count"),
    ("core.dc_sent", "count"),
    ("core.directory.lookups", "count"),
    ("core.churn_joins", "count"),
    ("core.stats_ms", "ms"),
    ("broadcast.view_changes", "count"),
    ("model.read_p50_ms", "ms"),
    ("model.read_p99_ms", "ms"),
    ("model.read_samples", "count"),
    ("model.read_fail_frac", "fraction"),
    ("model.reads_accepted_per_s", "1/s"),
    ("model.write_fail_frac", "fraction"),
    ("model.writes_committed_per_s", "1/s"),
    ("model.write_samples", "count"),
    ("trace.run_s", "s"),
    ("trace.traced_run_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.steps", "count"),
    ("trace.probe_s", "s"),
];

/// Median of `values` (mean of the middle pair for even lengths);
/// `0.0` when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Nearest-rank `q`-quantile of `values` (the rule `sdr_sim::Histogram`
/// uses, so pooled and per-run percentiles agree); `0` when empty.
pub fn quantile(values: &mut [u64], q: f64) -> u64 {
    if values.is_empty() {
        return 0;
    }
    values.sort_unstable();
    let rank = ((values.len() as f64) * q).ceil() as usize;
    values[rank.clamp(1, values.len()) - 1]
}

/// Whether the `q`-quantile of `n` samples has at least ten samples
/// beyond it, the rule for reporting a percentile at all.
pub fn percentile_reportable(n: u64, q: f64) -> bool {
    (n as f64) * (1.0 - q) >= 10.0
}

/// Estimated share of `run_s` a layer spent: the sum over its
/// operations of measured per-call seconds times the run's exact call
/// count, divided by the run's host seconds.
pub fn layer_share(calls: &[(f64, u64)], run_s: f64) -> f64 {
    if run_s <= 0.0 {
        return 0.0;
    }
    calls
        .iter()
        .map(|&(per_call_s, n)| per_call_s * n as f64)
        .sum::<f64>()
        / run_s
}

/// `num / den`, or `0.0` when `den` is zero.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Peak resident set of this process (`VmHWM`), in MB; `None` where
/// `/proc/self/status` is unavailable.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Renders the result line: one JSON object with exactly the keys
/// `correct`, `attempted`, `failed` and `metrics`.
pub fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&str, &str, f64)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, value)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*value)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// A finite JSON number with all its digits (non-finite values, which
/// JSON cannot carry, become 0).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layer_share_sums_per_call_time_times_count() {
        // 2 ms x 500 calls + 10 us x 10_000 calls = 1.1 s of a 4.4 s run.
        let share = layer_share(&[(0.002, 500), (0.000_01, 10_000)], 4.4);
        assert!((share - 0.25).abs() < 1e-12, "{share}");
        assert_eq!(layer_share(&[(1.0, 3)], 0.0), 0.0);
        assert_eq!(layer_share(&[], 2.0), 0.0);
    }

    #[test]
    fn median_and_quantile() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let mut v: Vec<u64> = (1..=100).collect();
        assert_eq!(quantile(&mut v, 0.5), 50);
        assert_eq!(quantile(&mut v, 0.99), 99);
        assert!(percentile_reportable(1_000, 0.99));
        assert!(!percentile_reportable(999, 0.99));
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let line = result_json(true, 7, 1, &[("run_s", "s", 1.25)]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 7, \"failed\": 1, \"metrics\": {\"run_s\": {\"value\": 1.25, \"unit\": \"s\"}}}"
        );
    }
}
