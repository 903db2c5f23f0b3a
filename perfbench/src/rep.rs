//! One repetition of a workload: build the system, run the fixed
//! simulated duration, collect statistics — each timed on the host.

use crate::trace::Tracer;
use sdr_core::{ScenarioSpec, ShardMap, System, SystemBuilder, SystemStats};
use sdr_sim::SimTime;
use sdr_store::Database;
use std::time::Instant;

/// Modeled-service outcome of one repetition.  Every field is an exact
/// function of the seed, so two repetitions at one seed must agree on
/// all of them; host-only changes must not move any.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Modeled {
    /// Reads issued by clients.
    pub reads_issued: u64,
    /// Reads accepted after verification.
    pub reads_accepted: u64,
    /// Reads that ended with no accepted answer (retries exhausted after
    /// failures, refusals or timeouts).
    pub reads_failed: u64,
    /// Latency samples of accepted reads.
    pub read_samples: u64,
    /// Median accepted-read latency, µs of modeled time.
    pub read_p50_us: u64,
    /// 99th-percentile accepted-read latency, µs of modeled time.
    pub read_p99_us: u64,
    /// Writes sent to a master.
    pub writes_issued: u64,
    /// Writes committed.
    pub writes_committed: u64,
    /// Writes denied, failed or timed out.
    pub writes_unsuccessful: u64,
    /// Commit-latency samples.
    pub write_samples: u64,
    /// Median commit latency, µs of modeled time.
    pub write_p50_us: u64,
    /// 90th-percentile commit latency, µs of modeled time.
    pub write_p90_us: u64,
    /// Accepted reads whose result was a lie.
    pub wrong_accepted: u64,
    /// Proof replies the clients rejected.
    pub proof_rejects: u64,
    /// Simulator events processed (the program's own events only).
    pub sim_events: u64,
}

/// Host timings and statistics of one repetition.
pub struct Rep {
    /// Host seconds in `SystemBuilder::build`.
    pub setup_s: f64,
    /// Host seconds in `run_until` for the fixed simulated duration.
    pub run_s: f64,
    /// Host seconds in `System::stats`.
    pub stats_s: f64,
    /// The statistics the run reported.
    pub stats: SystemStats,
    /// Messages the network carried (`sim.messages_sent`).
    pub messages: u64,
    /// Master view changes (`master.view_changes`).
    pub view_changes: u64,
    /// Pledged (non-proof) reads the slaves executed.
    pub pledged_executions: u64,
    /// Point and range proofs the slaves served.
    pub proof_reads: u64,
    /// Range proofs the slaves served.
    pub range_reads: u64,
    /// Stream headers the slaves served.
    pub stream_reads: u64,
    /// The modeled outcome.
    pub modeled: Modeled,
    /// Every accepted read's latency, µs of modeled time.
    pub read_latencies_us: Vec<u64>,
    /// Every commit's latency, µs of modeled time.
    pub write_latencies_us: Vec<u64>,
}

/// Builds the deployment a spec describes, exactly as the scenario
/// runner does for one seed.
pub fn build(spec: &ScenarioSpec) -> System {
    assert!(
        spec.crashes.is_empty(),
        "benchmark workloads schedule no crashes"
    );
    let behaviors = spec
        .behaviors
        .materialize(spec.config.n_slaves * spec.config.n_shards)
        .expect("benchmark specs have valid behaviour rosters");
    let mut builder = SystemBuilder::new(spec.config.clone())
        .behaviors(behaviors)
        .workload(spec.workload.clone());
    if let Some(net) = &spec.network {
        builder = builder.network(net.build(&spec.config));
    }
    builder.build()
}

/// Runs one untraced repetition.
pub fn run(spec: &ScenarioSpec) -> Rep {
    let t = Instant::now();
    let mut sys = build(spec);
    let setup_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    sys.run_until(end_of(spec));
    let run_s = t.elapsed().as_secs_f64();
    finish(&mut sys, setup_s, run_s, 0)
}

/// Runs one traced repetition: spans for set-up (with the dataset build
/// timed on its own), one slice per simulated second holding every
/// `World::step` call, and statistics collection.  Also returns the
/// shard databases of the separately timed dataset build, for the layer
/// probes.
pub fn run_traced(spec: &ScenarioSpec, tracer: &mut Tracer) -> (Rep, Vec<Database>) {
    let rep_span = tracer.begin("rep.traced", None);
    let setup = tracer.begin("setup", Some(rep_span));
    let dataset = spec.workload.dataset;
    let map = ShardMap::new(spec.config.n_shards, &dataset);
    let dbs = tracer.span("store.dataset_build", Some(setup), || {
        dataset.build_shards(&map)
    });
    let build_span = tracer.begin("core.build", Some(setup));
    let t = Instant::now();
    let mut sys = build(spec);
    let setup_s = t.elapsed().as_secs_f64();
    tracer.end(build_span);
    tracer.end(setup);

    // `World` exposes no peek at the next event time, so each slice
    // boundary is marked by a no-op sentinel (a recover event for the
    // never-crashed directory).  Popping it means every earlier event of
    // the slice ran; `run_until` then drains events due at exactly the
    // boundary, as the untraced run does.
    let end = end_of(spec);
    let secs = end.as_micros().div_ceil(1_000_000);
    let run_span = tracer.begin("run", Some(rep_span));
    let t = Instant::now();
    let mut sentinels = 0;
    for s in 1..=secs {
        let deadline = SimTime::from_micros((s * 1_000_000).min(end.as_micros()));
        let slice = tracer.begin(format!("run.sim_s{s}"), Some(run_span));
        sys.world.schedule_recover(deadline, sys.directory);
        sentinels += 1;
        loop {
            let start = tracer.now_ns();
            let stepped = sys.world.step();
            let stop = tracer.now_ns();
            tracer.step(slice, start, stop - start);
            if !stepped || sys.now() >= deadline {
                break;
            }
        }
        sys.run_until(deadline);
        tracer.end(slice);
    }
    let run_s = t.elapsed().as_secs_f64();
    tracer.end(run_span);

    let stats_span = tracer.begin("core.stats", Some(rep_span));
    let rep = finish(&mut sys, setup_s, run_s, sentinels);
    tracer.end(stats_span);
    tracer.end(rep_span);
    (rep, dbs)
}

fn end_of(spec: &ScenarioSpec) -> SimTime {
    SimTime::from_micros(spec.duration.as_micros())
}

fn finish(sys: &mut System, setup_s: f64, run_s: f64, sentinels: u64) -> Rep {
    let t = Instant::now();
    let stats = sys.stats();
    let stats_s = t.elapsed().as_secs_f64();
    let m = sys.world.metrics_mut();
    let read_latencies_us = m.histogram_mut("read.latency_us").values().to_vec();
    let write_latencies_us = m.histogram_mut("write.latency_us").values().to_vec();
    let c = |name: &str| m.counter(name);
    let modeled = Modeled {
        reads_issued: stats.reads_issued,
        reads_accepted: stats.reads_accepted,
        reads_failed: stats.reads_failed,
        read_samples: stats.read_latency.count as u64,
        read_p50_us: stats.read_latency.p50,
        read_p99_us: stats.read_latency.p99,
        writes_issued: c("write.issued"),
        writes_committed: stats.writes_committed,
        writes_unsuccessful: c("write.denied_seen") + c("write.failed_seen") + c("write.timeout"),
        write_samples: stats.write_latency.count as u64,
        write_p50_us: stats.write_latency.p50,
        write_p90_us: stats.write_latency.p90,
        wrong_accepted: stats.wrong_accepted,
        proof_rejects: stats.proof_reads_rejected,
        sim_events: stats.sim_events - sentinels,
    };
    Rep {
        setup_s,
        run_s,
        stats_s,
        messages: c("sim.messages_sent"),
        view_changes: c("master.view_changes"),
        pledged_executions: c("slave.reads") - c("slave.proof_reads") - c("slave.stream_reads"),
        proof_reads: c("slave.proof_reads"),
        range_reads: c("slave.range_reads"),
        stream_reads: c("slave.stream_reads"),
        modeled,
        stats,
        read_latencies_us,
        write_latencies_us,
    }
}
