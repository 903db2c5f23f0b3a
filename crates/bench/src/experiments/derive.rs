//! Derived metrics of the simulated experiments, one function per entry.

use sdr_core::scenario::{CellReport, NamedSeries, RunRecord, RunReport, ScenarioSpec};
use sdr_core::system::System;

/// The runs of a cell in which the liar was caught.
struct Caught {
    /// How many runs caught it.
    runs: usize,
    /// Mean lie count over the caught runs (NaN if none).
    lies: f64,
    /// Mean time of the first exclusion over the caught runs (NaN if none).
    time: f64,
}

/// Collects `(first exclusion time, lie count)` from every run `caught`
/// accepts and averages both.
fn caught_runs(cell: &CellReport, caught: impl Fn(&RunRecord) -> Option<(f64, f64)>) -> Caught {
    let caught: Vec<(f64, f64)> = cell.runs.iter().filter_map(caught).collect();
    let n = caught.len() as f64;
    let (lies, time) = if caught.is_empty() {
        (f64::NAN, f64::NAN)
    } else {
        (
            caught.iter().map(|&(_, l)| l).sum::<f64>() / n,
            caught.iter().map(|&(t, _)| t).sum::<f64>() / n,
        )
    };
    Caught { runs: caught.len(), lies, time }
}

/// E1 (paper §3.3): catch statistics of an always-lying slave against
/// the geometric expectation 1/p.
pub(super) fn detection(_: &ScenarioSpec, cell: &mut CellReport) {
    let p = cell.coord("p").unwrap_or(0.0);
    let total = cell.runs.len();
    // Lies the liar got to tell before its first exclusion.
    let caught = caught_runs(cell, |r| {
        r.first_point("exclusion.at_us")
            .map(|(t, _)| (t, r.stats.lies_told as f64))
    });
    cell.push_metric("caught", caught.runs as f64);
    cell.push_metric("runs", total as f64);
    cell.push_metric("geometric", 1.0 / p);
    cell.push_metric("lies_before_exclusion", caught.lies);
    cell.push_metric("time_to_exclusion_s", caught.time);
    cell.push_annotation("caught_ratio", format!("{}/{total}", caught.runs));
}

/// E2 (paper §3.4): lies accepted before the audit's first catch against 1/fraction.
pub(super) fn audit(_: &ScenarioSpec, cell: &mut CellReport) {
    let frac = cell.coord("audit fraction").unwrap_or(1.0);
    let total = cell.runs.len();
    // Wrong answers clients accepted before the first exclusion.
    let caught = caught_runs(cell, |r| {
        (r.stats.exclusions >= 1).then(|| {
            (
                r.first_point("exclusion.at_us").map_or(0.0, |(t, _)| t),
                r.stats.wrong_accepted as f64,
            )
        })
    });
    cell.push_metric("expected_slip", 1.0 / frac);
    cell.push_annotation("caught_ratio", format!("{}/{total}", caught.runs));
    cell.push_metric("lies_slipped", caught.lies);
    cell.push_metric("time_to_exclusion_s", caught.time);
}

/// E3a (paper §3.1–3.2): stale rejections per issued read under a
/// keep-alive sweep; every client sits behind a 50 ms WAN link, so the
/// freshness budget left after the keep-alive phase decides acceptance.
pub(super) fn freshness(_: &ScenarioSpec, cell: &mut CellReport) {
    let stale_rate = if cell.mean("reads_issued") > 0.0 {
        cell.mean("rejected_stale") / cell.mean("reads_issued")
    } else {
        0.0
    };
    cell.push_metric("stale_pct", stale_rate * 100.0);
    cell.push_metric("max_latency_ms", 1000.0);
}

/// E3b (paper §3.2): service of the one slow client (client 0), with and
/// without a relaxed personal freshness bound.
pub(super) fn slow_client(_: &ScenarioSpec, cell: &mut CellReport) {
    let n = cell.runs.len().max(1) as f64;
    let mut stale = 0.0;
    let mut accept = 0.0;
    for r in &cell.runs {
        if let Some(slow) = r.stats.per_client.first() {
            stale += slow.stale_rejections as f64;
            if slow.reads_issued > 0 {
                accept += slow.reads_accepted as f64 / slow.reads_issued as f64;
            }
        }
    }
    cell.push_metric("slow_stale", stale / n);
    cell.push_metric("slow_accept_pct", accept / n * 100.0);
    // Render "global bound" (0) as the 1000 ms default.
    let bound = cell.coord("client max_latency (ms)").unwrap_or(0.0);
    cell.push_metric("bound_ms", if bound > 0.0 { bound } else { 1000.0 });
}

/// E4 (paper §3.1, §6): committed writes per second against the 1/max_latency bound.
pub(super) fn writes(spec: &ScenarioSpec, cell: &mut CellReport) {
    let run_secs = spec.duration.as_secs_f64();
    let ml = cell.coord("max_latency (ms)").unwrap_or(1.0);
    let achieved = cell.mean("writes_committed") / run_secs;
    let bound = 1_000.0 / ml;
    cell.push_metric("achieved_wps", achieved);
    cell.push_metric("bound_wps", bound);
    cell.push_metric("bound_utilisation", achieved / bound);
    let accept = if cell.mean("reads_issued") > 0.0 {
        cell.mean("reads_accepted") / cell.mean("reads_issued") * 100.0
    } else {
        0.0
    };
    cell.push_metric("read_accept_pct", accept);
    cell.push_metric("write_p50_ms", cell.mean("write_latency_p50") / 1000.0);
}

/// E5 (paper §3.3): trusted (serving masters, auditor) against untrusted CPU load.
pub(super) fn master_load(_: &ScenarioSpec, cell: &mut CellReport) {
    let n = cell.runs.len().max(1) as f64;
    let mut serving = 0.0;
    let mut auditor = 0.0;
    let mut slave_avg = 0.0;
    let mut dc_rate = 0.0;
    for r in &cell.runs {
        // The last master is the auditor.
        let util = &r.stats.master_utilisation;
        serving += r.stats.serving_master_utilisation();
        auditor += util[util.len() - 1];
        slave_avg += r.stats.slave_utilisation.iter().sum::<f64>()
            / r.stats.slave_utilisation.len() as f64;
        if r.stats.reads_issued > 0 {
            dc_rate += r.stats.dc_sent as f64 / r.stats.reads_issued as f64;
        }
    }
    cell.push_metric("dc_rate", dc_rate / n);
    cell.push_metric("serving_cpu_pct", serving / n * 100.0);
    cell.push_metric("auditor_cpu_pct", auditor / n * 100.0);
    cell.push_metric("slave_cpu_pct", slave_avg / n * 100.0);
}

/// E7 (paper §3.4): backlog and lag peaks, and the audit cache's hit rate.
pub(super) fn auditor(_: &ScenarioSpec, cell: &mut CellReport) {
    let cache_on = cell.coord("cache").unwrap_or(1.0) != 0.0;
    let slice = cell.coord("audit slice (ms)").unwrap_or(0.0);
    cell.label = format!(
        "cache {}, {} CPU",
        if cache_on { "on" } else { "off" },
        if slice >= 10.0 { "generous" } else { "starved" }
    );

    // Series-derived peaks come from the first run (one seed here).
    let (peak_backlog, peak_lag, final_lag) = cell
        .runs
        .first()
        .map(|r| {
            let lag = series_points(r, "audit.lag_us");
            (
                series_points(r, "audit.backlog").iter().map(|&(_, v)| v).fold(0.0, f64::max),
                lag.iter().map(|&(_, v)| v / 1000.0).fold(0.0, f64::max),
                lag.last().map(|&(_, v)| v / 1000.0).unwrap_or(0.0),
            )
        })
        .unwrap_or((0.0, 0.0, 0.0));
    let hits = cell.mean("audit_cache_hits");
    let checked = cell.mean("audit_checked");
    let hit_rate = if hits + checked > 0.0 {
        hits / (hits + checked)
    } else {
        0.0
    };
    cell.push_metric("peak_backlog", peak_backlog);
    cell.push_metric("peak_lag_ms", peak_lag);
    cell.push_metric("final_lag_ms", final_lag);
    cell.push_metric("cache_hit_rate", hit_rate);
}

fn series_points<'a>(r: &'a RunRecord, name: &str) -> &'a [(f64, f64)] {
    r.series(name).map(|s| s.points.as_slice()).unwrap_or(&[])
}

/// E7: one sparkline of each configuration's backlog over time.
pub(super) fn backlog_shapes(report: &RunReport) -> Vec<String> {
    let mut lines =
        vec!["\n  backlog over time (two days; expect humps at the two midday peaks):".to_string()];
    for cell in &report.cells {
        let shape = cell
            .runs
            .first()
            .map(|r| sparkline(series_points(r, "audit.backlog"), 48))
            .unwrap_or_default();
        lines.push(format!("  {:>26}  |{shape}|", cell.label));
    }
    lines
}

fn sparkline(series: &[(f64, f64)], buckets: usize) -> String {
    if series.is_empty() {
        return String::new();
    }
    let t_max = series.last().map(|(t, _)| *t).unwrap_or(1.0);
    let mut maxima = vec![0.0f64; buckets];
    for (t, v) in series {
        let b = ((t / t_max) * (buckets as f64 - 1.0)) as usize;
        maxima[b] = maxima[b].max(*v);
    }
    let peak = maxima.iter().copied().fold(1.0f64, f64::max);
    const BARS: [char; 8] = [' ', '.', ':', '-', '=', '+', '*', '#'];
    maxima
        .iter()
        .map(|v| BARS[((v / peak) * 7.0).round() as usize])
        .collect()
}

/// E8 (paper §3.3): double-checks sent and throttled, greedy client 0
/// against the honest rest.
pub(super) fn greedy(_: &ScenarioSpec, cell: &mut CellReport) {
    let n = cell.runs.len().max(1) as f64;
    let mut g_sent = 0.0;
    let mut g_rate = 0.0;
    let mut h_sent = 0.0;
    let mut h_rate = 0.0;
    for r in &cell.runs {
        let g = &r.stats.per_client[0];
        g_sent += g.dc_sent as f64;
        if g.dc_sent > 0 {
            g_rate += g.dc_throttled as f64 / g.dc_sent as f64;
        }
        let sent: u64 = r.stats.per_client[1..].iter().map(|c| c.dc_sent).sum();
        let throttled: u64 = r.stats.per_client[1..].iter().map(|c| c.dc_throttled).sum();
        h_sent += sent as f64;
        if sent > 0 {
            h_rate += throttled as f64 / sent as f64;
        }
    }
    cell.push_metric("greedy_dc_sent", g_sent / n);
    cell.push_metric("greedy_throttled_pct", g_rate / n * 100.0);
    cell.push_metric("honest_dc_sent", h_sent / n);
    cell.push_metric("honest_throttled_pct", h_rate / n * 100.0);
}

/// E9 (paper §4): untrusted compute per accepted read, which grows with the quorum.
pub(super) fn quorum_reads(spec: &ScenarioSpec, cell: &mut CellReport) {
    let duration_secs = spec.duration.as_secs_f64();
    let n = cell.runs.len().max(1) as f64;
    let mut untrusted = 0.0;
    for r in &cell.runs {
        if r.stats.reads_accepted > 0 {
            untrusted += r.stats.slave_utilisation.iter().sum::<f64>() * duration_secs * 1e6
                / r.stats.reads_accepted as f64;
        }
    }
    cell.push_metric("untrusted_us_per_read", untrusted / n);
}

/// E10 (paper §4): serving-master load and wrong-answer rate as reads turn sensitive.
pub(super) fn levels(_: &ScenarioSpec, cell: &mut CellReport) {
    let n = cell.runs.len().max(1) as f64;
    let mut serving = 0.0;
    for r in &cell.runs {
        serving += r.stats.serving_master_utilisation();
    }
    cell.push_metric("serving_cpu_pct", serving / n * 100.0);
    cell.push_metric("wrong_rate_pct", cell.mean("wrong_accept_rate") * 100.0);
}

/// E12 probe (paper §3): slaves owned by surviving masters after the
/// crash, recorded as a one-point series so it reaches the JSON report.
pub(super) fn survivor_slaves(sys: &mut System, record: &mut RunRecord) {
    let mut survivor_slaves = 0usize;
    for rank in 0..sys.masters.len() {
        if !sys.world.is_crashed(sys.masters[rank]) {
            survivor_slaves += sys.with_master(rank, |m| m.slaves().len());
        }
    }
    record.series.push(NamedSeries {
        name: "survivor_slaves".into(),
        points: vec![(0.0, survivor_slaves as f64)],
    });
}

/// E12: slave division, client re-setups, and service after the crash
/// (deltas against the checkpoint taken at the crash instant).
pub(super) fn failover(spec: &ScenarioSpec, cell: &mut CellReport) {
    let rank = cell.coord("crashed rank").unwrap_or(0.0) as usize;
    cell.label = if rank == 0 {
        "sequencer (rank 0)".into()
    } else {
        format!("mid master (rank {rank})")
    };
    let n = cell.runs.len().max(1) as f64;
    let mut survivors = 0.0;
    let mut re_setups = 0.0;
    let mut accept_pct = 0.0;
    let mut writes_after = 0.0;
    let mut failed_after = 0.0;
    for r in &cell.runs {
        survivors += r.first_point("survivor_slaves").map_or(0.0, |(_, v)| v);
        re_setups += r.stats.per_client.iter().map(|c| c.re_setups).sum::<u64>() as f64;
        let before = r.checkpoints.first().map(|c| &c.stats);
        let (bi, ba, bw, bf) = before.map_or((0, 0, 0, 0), |b| {
            (b.reads_issued, b.reads_accepted, b.writes_committed, b.reads_failed)
        });
        let reads_after = r.stats.reads_issued - bi;
        accept_pct += (r.stats.reads_accepted - ba) as f64 / reads_after.max(1) as f64 * 100.0;
        writes_after += (r.stats.writes_committed - bw) as f64;
        failed_after += (r.stats.reads_failed - bf) as f64;
    }
    cell.push_annotation(
        "survivor_slaves",
        format!("{}/{}", (survivors / n) as usize, spec.config.n_slaves),
    );
    cell.push_metric("re_setups", re_setups / n);
    cell.push_metric("post_accept_pct", accept_pct / n);
    cell.push_metric("post_writes", writes_after / n);
    cell.push_metric("post_failed_reads", failed_after / n);
}
