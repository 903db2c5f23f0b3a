//! The two kinds of run: untraced (end-to-end metrics over several
//! worlds) and traced (per-layer metrics from one world, its step spans
//! and the layer probes).

use crate::metrics::{self, layer_share, median, percentile_reportable, quantile, ratio};
use crate::probes::{self, Probes};
use crate::rep::{self, Modeled, Rep};
use crate::trace::Tracer;
use crate::workloads::Workload;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Parsed command line.
#[derive(Clone, Debug)]
pub struct Options {
    /// Which workload to run.
    pub workload: Workload,
    /// Seed every input is drawn from.
    pub seed: u64,
    /// Host seconds to measure for.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of untraced (end-to-end).
    pub trace: bool,
    /// Where the traced run writes its spans.
    pub trace_dir: PathBuf,
}

/// What a run prints: human-readable lines, then the result line.
pub struct Outcome {
    /// Report lines (metric, value, unit, notes).
    pub lines: Vec<String>,
    /// Every correctness check that failed (empty when correct).
    pub failures: Vec<String>,
    /// Modeled operations that ended (reads and writes).
    pub attempted: u64,
    /// Modeled operations that ended without an accepted answer or a
    /// commit.
    pub failed: u64,
    /// `(name, unit, value)` of every metric in the result line.
    pub metrics: Vec<(&'static str, &'static str, f64)>,
}

impl Outcome {
    /// The result line.
    pub fn json(&self) -> String {
        metrics::result_json(
            self.failures.is_empty(),
            self.attempted.max(1),
            self.failed,
            &self.metrics,
        )
    }
}

/// Checks that hold for every run of every workload, over the modeled
/// outcome pooled across the run's worlds.
pub fn check_outcome(workload: Workload, m: &Modeled, failures: &mut Vec<String>) {
    if m.wrong_accepted > 0 {
        failures.push(format!("{} wrong accepts", m.wrong_accepted));
    }
    if m.reads_accepted == 0 {
        failures.push("no read was accepted".into());
    }
    if workload == Workload::WriteScan {
        if m.proof_rejects == 0 {
            failures.push("no proof rejects: the lying slave was not exercised".into());
        }
        if m.writes_committed == 0 {
            failures.push("no write committed".into());
        }
    }
}

fn attempted_failed(m: &Modeled) -> (u64, u64) {
    let failed = m.reads_failed + m.writes_unsuccessful;
    (m.reads_accepted + m.writes_committed + failed, failed)
}

/// Sums the counts of several worlds' outcomes (percentile fields are
/// left at zero: pooled percentiles come from the raw samples).
fn pool(reps: &[Rep]) -> Modeled {
    let mut p = Modeled::default();
    for r in reps {
        let m = &r.modeled;
        p.reads_issued += m.reads_issued;
        p.reads_accepted += m.reads_accepted;
        p.reads_failed += m.reads_failed;
        p.read_samples += m.read_samples;
        p.writes_issued += m.writes_issued;
        p.writes_committed += m.writes_committed;
        p.writes_unsuccessful += m.writes_unsuccessful;
        p.write_samples += m.write_samples;
        p.wrong_accepted += m.wrong_accepted;
        p.proof_rejects += m.proof_rejects;
        p.sim_events += m.sim_events;
    }
    p
}

/// A latency percentile line: the value in ms with its sample count, or
/// why it is not reported.
fn percentile_line(name: &str, samples: &mut [u64], q: f64) -> String {
    let n = samples.len() as u64;
    if percentile_reportable(n, q) {
        let ms = quantile(samples, q) as f64 / 1e3;
        format!("{name:<26} {ms:>14.3} ms      (n = {n})")
    } else {
        format!(
            "{name:<26} {:>14} ms      (n = {n}: fewer than 10 samples beyond it)",
            "n/a"
        )
    }
}

/// The untraced run: every world of the workload once, then re-runs
/// (world 0 first, at least once) until `seconds` have passed.  Each
/// re-run must reproduce its world's modeled outcome exactly.
pub fn untraced(opts: &Options) -> Outcome {
    let w = opts.workload;
    let start = Instant::now();
    let specs: Vec<_> = (0..w.worlds()).map(|i| w.spec(opts.seed, i)).collect();
    // (world, setup_s, run_s) of every repetition.
    let mut samples: Vec<(usize, f64, f64)> = Vec::new();
    let mut first: Vec<Rep> = Vec::new();
    let mut failures = Vec::new();
    for (i, spec) in specs.iter().enumerate() {
        let r = rep::run(spec);
        samples.push((i, r.setup_s, r.run_s));
        first.push(r);
    }
    let mut reruns = 0usize;
    loop {
        let i = reruns % specs.len();
        let per_rep: Vec<f64> = samples.iter().map(|s| s.1 + s.2).collect();
        if reruns > 0 && start.elapsed().as_secs_f64() + median(&per_rep) > opts.seconds {
            break;
        }
        let r = rep::run(&specs[i]);
        if r.modeled != first[i].modeled {
            failures.push(format!(
                "world {i} re-run disagrees: {:?} vs {:?}",
                r.modeled, first[i].modeled
            ));
        }
        samples.push((i, r.setup_s, r.run_s));
        reruns += 1;
    }
    let setup_s: Vec<f64> = samples.iter().map(|s| s.1).collect();
    let run_s: Vec<Vec<f64>> = (0..specs.len())
        .map(|i| samples.iter().filter(|s| s.0 == i).map(|s| s.2).collect())
        .collect();

    let pooled = pool(&first);
    check_outcome(w, &pooled, &mut failures);
    let sim_s = w.sim_duration().as_secs_f64() * specs.len() as f64;
    let mut reads: Vec<u64> = first
        .iter()
        .flat_map(|r| r.read_latencies_us.iter().copied())
        .collect();
    let mut writes: Vec<u64> = first
        .iter()
        .flat_map(|r| r.write_latencies_us.iter().copied())
        .collect();

    let setup = median(&setup_s);
    // Mean over worlds of each world's median run time.
    let run = run_s.iter().map(|v| median(v)).sum::<f64>() / run_s.len() as f64;
    let rss = metrics::peak_rss_mb().unwrap_or(0.0);
    let reads_per_s = pooled.reads_accepted as f64 / sim_s;
    let writes_per_s = pooled.writes_committed as f64 / sim_s;
    let read_fail = ratio(pooled.reads_failed as f64, pooled.reads_issued as f64);
    let write_fail = ratio(
        pooled.writes_unsuccessful as f64,
        pooled.writes_issued as f64,
    );

    let mut lines = vec![
        format!(
            "# {} worlds x {} simulated s, {} re-runs, {:.1} s measured",
            specs.len(),
            w.sim_duration().as_secs_f64(),
            reruns,
            start.elapsed().as_secs_f64()
        ),
        format!(
            "{:<26} {setup:>14.4} s       (median of {} builds)",
            "setup_s",
            setup_s.len()
        ),
        format!(
            "{:<26} {run:>14.4} s       (per world, mean of per-world medians)",
            "run_s"
        ),
        format!("{:<26} {rss:>14.1} MB      (VmHWM)", "peak_rss_mb"),
        percentile_line("read_p50_ms", &mut reads, 0.50),
        percentile_line("read_p99_ms", &mut reads, 0.99),
        format!("{:<26} {reads_per_s:>14.3} 1/s", "reads_accepted_per_s"),
        format!(
            "{:<26} {read_fail:>14.6}         ({} of {} issued)",
            "read_fail_frac", pooled.reads_failed, pooled.reads_issued
        ),
        percentile_line("write_p50_ms", &mut writes, 0.50),
        percentile_line("write_p90_ms", &mut writes, 0.90),
        format!("{:<26} {writes_per_s:>14.3} 1/s", "writes_committed_per_s"),
        format!(
            "{:<26} {write_fail:>14.6}         ({} of {} issued)",
            "write_fail_frac", pooled.writes_unsuccessful, pooled.writes_issued
        ),
        format!(
            "# checks: wrong accepts {}, proof rejects {}, commits {}, sim events {}",
            pooled.wrong_accepted, pooled.proof_rejects, pooled.writes_committed, pooled.sim_events
        ),
    ];
    for (i, (r, runs)) in first.iter().zip(&run_s).enumerate() {
        let runs: Vec<String> = runs.iter().map(|v| format!("{v:.3}")).collect();
        lines.push(format!(
            "# world {i}: {} events, run_s [{}]",
            r.modeled.sim_events,
            runs.join(", ")
        ));
    }
    lines.extend(failures.iter().map(|f| format!("# FAILED: {f}")));
    let (attempted, failed) = attempted_failed(&pooled);
    Outcome {
        lines,
        failures,
        attempted,
        failed,
        metrics: vec![
            ("setup_s", "s", setup),
            ("run_s", "s", run),
            ("peak_rss_mb", "MB", rss),
            ("reads_accepted_per_s", "1/s", reads_per_s),
        ],
    }
}

/// The traced run on world 0: one untraced repetition, one traced
/// repetition (spans around set-up, every step and statistics), then
/// the layer probes for whatever remains of `seconds`.  The modeled
/// outcome must be identical with and without tracing.
pub fn traced(opts: &Options) -> Outcome {
    let w = opts.workload;
    let start = Instant::now();
    let spec = w.spec(opts.seed, 0);
    let mut failures = Vec::new();

    let u = rep::run(&spec);
    let mut tracer = Tracer::new();
    let (t, dbs) = rep::run_traced(&spec, &mut tracer);
    if t.modeled != u.modeled {
        failures.push(format!(
            "traced run disagrees: {:?} vs {:?}",
            t.modeled, u.modeled
        ));
    }
    check_outcome(w, &u.modeled, &mut failures);

    let probe_span = tracer.begin("probes", None);
    let budget =
        Duration::from_secs_f64((opts.seconds - start.elapsed().as_secs_f64()).clamp(2.0, 20.0));
    let p = probes::run(&spec, &dbs, opts.seed, budget, &mut tracer, probe_span);
    tracer.end(probe_span);
    drop(dbs);

    let dataset_build_s = span_s(&tracer, "store.dataset_build");
    let probe_s = span_s(&tracer, "probes");
    let mut steps: Vec<u64> = tracer.steps().iter().map(|s| s.dur_ns as u64).collect();
    let n_steps = steps.len() as u64;
    let step_p50 = quantile(&mut steps, 0.50);
    let step_p99 = quantile(&mut steps, 0.99);
    let stem = format!("{}-seed{}", w.name(), opts.seed);
    let written = tracer.write(&opts.trace_dir, &stem);

    let s = &u.stats;
    let m = &u.modeled;
    let sim_s = w.sim_duration().as_secs_f64();
    let sig_verifies = s.stamp_cache_misses + s.cert_cache_misses;
    let sig_share = layer_share(
        &[(probes::sig_verify_s(&p, spec.config.signer), sig_verifies)],
        u.run_s,
    );
    let exec_calls =
        u.pledged_executions + (s.audit_checked.saturating_sub(s.audit_cache_hits)) + s.dc_sent;
    let exec_share = layer_share(
        &[(pledged_exec_s(&p, &spec.workload.mix), exec_calls)],
        u.run_s,
    );
    let proof_share = proof_share(&p, &u);

    let values: Vec<f64> = vec![
        m.sim_events as f64,
        ratio(m.sim_events as f64, u.messages as f64),
        ratio(m.sim_events as f64, u.run_s),
        s.sim_queue_peak as f64,
        s.msg_sharing_ratio(),
        step_p50 as f64,
        step_p99 as f64,
        p.per_call("crypto.sha256_64b") * 1e9,
        p.per_call("crypto.sha256_1kib") * 1e9,
        p.per_call("crypto.sha1_1kib") * 1e9,
        p.per_call("crypto.hmac_verify") * 1e9,
        p.per_call("crypto.mss_verify") * 1e6,
        sig_verifies as f64,
        sig_share,
        dataset_build_s,
        p.per_call("store.exec_filter") * 1e6,
        p.per_call("store.exec_aggregate") * 1e6,
        p.per_call("store.exec_join") * 1e6,
        p.per_call("store.exec_range") * 1e6,
        p.per_call("store.exec_grep") * 1e6,
        exec_share,
        p.per_call("store.prove_row") * 1e6,
        p.per_call("store.prove_scan") * 1e6,
        p.per_call("store.prove_stream") * 1e6,
        p.per_call("store.verify_row") * 1e6,
        p.per_call("store.verify_scan") * 1e6,
        p.per_call("store.verify_stream") * 1e6,
        proof_share,
        p.per_call("store.apply_write") * 1e6,
        p.per_call("store.state_digest") * 1e6,
        p.model_ratio("store.exec_filter"),
        p.model_ratio("store.verify_row"),
        p.model_ratio("store.verify_scan"),
        s.proof_cache_hit_rate(),
        s.proof_cache_invalidations as f64,
        s.slave_utilisation.iter().copied().fold(0.0, f64::max),
        s.stamp_cache_hit_rate(),
        ratio(
            s.cert_cache_hits as f64,
            (s.cert_cache_hits + s.cert_cache_misses) as f64,
        ),
        s.proof_reads_rejected as f64,
        s.proof_retries as f64,
        s.proof_fallbacks as f64,
        s.read_retries as f64,
        s.master_utilisation.iter().copied().fold(0.0, f64::max),
        s.writes_per_round.mean,
        s.audit_checked as f64,
        s.audit_backlog as f64,
        s.dc_sent as f64,
        s.dir_lookups_per_shard.iter().sum::<u64>() as f64,
        s.churn_joins as f64,
        u.stats_s * 1e3,
        u.view_changes as f64,
        m.read_p50_us as f64 / 1e3,
        m.read_p99_us as f64 / 1e3,
        m.read_samples as f64,
        ratio(m.reads_failed as f64, m.reads_issued as f64),
        m.reads_accepted as f64 / sim_s,
        ratio(m.writes_unsuccessful as f64, m.writes_issued as f64),
        m.writes_committed as f64 / sim_s,
        m.write_samples as f64,
        u.run_s,
        t.run_s,
        t.run_s - u.run_s,
        n_steps as f64,
        probe_s,
    ];
    assert_eq!(
        values.len(),
        metrics::PER_LAYER.len(),
        "one value per per-layer metric"
    );
    let metrics: Vec<_> = metrics::PER_LAYER
        .iter()
        .zip(values)
        .map(|(&(name, unit), v)| (name, unit, v))
        .collect();

    let mut lines = vec![format!(
        "# traced world 0 ({} simulated s): untraced run_s {:.4}, traced run_s {:.4}, tracing overhead {:+.4} s over {} steps",
        sim_s,
        u.run_s,
        t.run_s,
        t.run_s - u.run_s,
        n_steps
    )];
    match &written {
        Ok(()) => lines.push(format!(
            "# spans written to {}/{stem}.*",
            opts.trace_dir.display()
        )),
        Err(e) => failures.push(format!("writing spans: {e}")),
    }
    lines.push(format!(
        "# {:<24} {:>14} {:>14} {:>9} {:>9}",
        "probe", "measured_us", "modeled_us", "ratio", "calls"
    ));
    for op in &p.ops {
        let modeled = op
            .modeled_s
            .map_or("-".to_string(), |v| format!("{:.3}", v * 1e6));
        let r = op.modeled_s.map_or("-".to_string(), |v| {
            format!("{:.2}", ratio(v, op.per_call_s))
        });
        lines.push(format!(
            "# {:<24} {:>14.3} {modeled:>14} {r:>9} {:>9}",
            op.name,
            op.per_call_s * 1e6,
            op.calls
        ));
    }
    lines.push(format!(
        "# {:<24} {:>14} {:>14}",
        "span", "total_ms", "self_ms"
    ));
    for (id, sp) in tracer.spans().iter().enumerate() {
        if !sp.name.starts_with("probe.") {
            lines.push(format!(
                "# {:<24} {:>14.3} {:>14.3}",
                sp.name,
                sp.dur_ns() as f64 / 1e6,
                tracer.self_time_ns(id) as f64 / 1e6
            ));
        }
    }
    for (name, unit, v) in &metrics {
        lines.push(format!("{name:<38} {v:>16.6} {unit}"));
    }
    lines.extend(failures.iter().map(|f| format!("# FAILED: {f}")));
    let (attempted, failed) = attempted_failed(m);
    Outcome {
        lines,
        failures,
        attempted,
        failed,
        metrics,
    }
}

/// Host seconds of the first span named `name`.
fn span_s(tracer: &Tracer, name: &str) -> f64 {
    tracer
        .spans()
        .iter()
        .find(|s| s.name == name)
        .map_or(0.0, |s| s.dur_ns() as f64 / 1e9)
}

/// Mean host seconds of one pledged (computed) query execution under the
/// workload's mix: the per-shape times weighted by the mix's weights.
/// Zero when the mix draws no computed query.
fn pledged_exec_s(p: &Probes, mix: &sdr_core::QueryMix) -> f64 {
    let weighted = [
        ("store.exec_filter", mix.filter),
        ("store.exec_aggregate", mix.aggregate),
        ("store.exec_join", mix.join),
        ("store.exec_range", mix.range),
        ("store.exec_grep", mix.grep),
    ];
    let total: u32 = weighted.iter().map(|(_, w)| w).sum();
    let sum: f64 = weighted
        .iter()
        .map(|&(name, w)| p.per_call(name) * w as f64)
        .sum();
    ratio(sum, total as f64)
}

/// Estimated share of `run_s` in proof building and verification.  The
/// slaves build a proof only on a reply-cache miss; the clients verify
/// every proof reply.  Whole-file proofs are counted at the row cost.
fn proof_share(p: &Probes, u: &Rep) -> f64 {
    let s = &u.stats;
    let miss = 1.0 - s.proof_cache_hit_rate();
    let rows = u.proof_reads - u.range_reads;
    let built = |n: u64| (n as f64 * miss).round() as u64;
    layer_share(
        &[
            (p.per_call("store.prove_row"), built(rows)),
            (p.per_call("store.prove_scan"), built(u.range_reads)),
            (p.per_call("store.prove_stream"), built(u.stream_reads)),
            (p.per_call("store.verify_row"), rows),
            (p.per_call("store.verify_scan"), u.range_reads),
            (p.per_call("store.verify_stream"), u.stream_reads),
        ],
        u.run_s,
    )
}
