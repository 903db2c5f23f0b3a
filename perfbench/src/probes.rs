//! Layer probes: host time per call of each layer's public functions,
//! on the workload's own inputs, beside the charge the simulator's
//! `CostModel` makes for the same operation.
//!
//! Queries are drawn with `QueryMix::sample` from the workload's dataset
//! and seed (one query shape at a time, so shapes the mix never draws are
//! still timed on this dataset) and run against the shard that owns
//! them, exactly as a replica would.

use crate::trace::{SpanId, Tracer};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use sdr_core::cost::{hash_charge, query_charge};
use sdr_core::{QueryMix, ScenarioSpec, ShardMap};
use sdr_crypto::{Digest, MssSigner, PublicKey, Sha1, Sha256, SignatureScheme, Signer};
use sdr_sim::{CostModel, SimDuration};
use sdr_store::{execute, Database, Query};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Inputs drawn per probed query shape.
const INPUTS_PER_SHAPE: usize = 32;
/// Fewest calls timed per operation, whatever the budget.
const MIN_CALLS: u64 = 3;

/// Host time of one probed operation.
#[derive(Clone, Debug)]
pub struct OpTiming {
    /// Operation name (the per-layer metric's stem).
    pub name: &'static str,
    /// Mean host seconds per call.
    pub per_call_s: f64,
    /// Calls timed.
    pub calls: u64,
    /// Mean modeled charge per call, seconds of virtual CPU, where the
    /// simulator charges this operation.
    pub modeled_s: Option<f64>,
}

/// Every probed operation of one workload.
#[derive(Clone, Debug, Default)]
pub struct Probes {
    /// Timings, in probe order.
    pub ops: Vec<OpTiming>,
}

impl Probes {
    /// The timing of operation `name`.
    ///
    /// # Panics
    ///
    /// Panics when `name` was not probed (a bug in this benchmark).
    pub fn op(&self, name: &str) -> &OpTiming {
        self.ops
            .iter()
            .find(|o| o.name == name)
            .unwrap_or_else(|| panic!("operation {name} was not probed"))
    }

    /// Mean host seconds per call of `name`.
    pub fn per_call(&self, name: &str) -> f64 {
        self.op(name).per_call_s
    }

    /// Modeled charge divided by measured host time for `name`.
    pub fn model_ratio(&self, name: &str) -> f64 {
        let op = self.op(name);
        crate::metrics::ratio(op.modeled_s.unwrap_or(0.0), op.per_call_s)
    }
}

/// Number of probed operations (each gets an equal share of the budget).
const N_OPS: u32 = 18;

/// Times operations, each inside its own span.
struct Prober<'a> {
    tracer: &'a mut Tracer,
    parent: SpanId,
    each: Duration,
    probes: Probes,
}

impl Prober<'_> {
    /// Times `f(i)` for calls `i = 0, 1, …` for this probe's share of
    /// the budget and at least [`MIN_CALLS`] calls.  Calls run in
    /// doubling chunks so the clock is read rarely for cheap operations.
    fn time(&mut self, name: &'static str, modeled_s: Option<f64>, mut f: impl FnMut(usize)) {
        let span = self
            .tracer
            .begin(format!("probe.{name}"), Some(self.parent));
        let start = Instant::now();
        let (mut calls, mut chunk) = (0u64, 1u64);
        loop {
            let t = Instant::now();
            for _ in 0..chunk {
                f(calls as usize);
                calls += 1;
            }
            if t.elapsed() < Duration::from_micros(100) {
                chunk *= 2;
            }
            if calls >= MIN_CALLS && start.elapsed() >= self.each {
                break;
            }
        }
        let per_call_s = start.elapsed().as_secs_f64() / calls as f64;
        self.tracer.end(span);
        self.probes.ops.push(OpTiming {
            name,
            per_call_s,
            calls,
            modeled_s,
        });
    }

    /// Like [`Prober::time`] for operations that need untimed set-up
    /// before each call: `f` does both and returns the time of the
    /// measured part.
    fn time_part(&mut self, name: &'static str, mut f: impl FnMut() -> Duration) {
        let span = self
            .tracer
            .begin(format!("probe.{name}"), Some(self.parent));
        let start = Instant::now();
        let (mut calls, mut busy) = (0u64, Duration::ZERO);
        while calls < MIN_CALLS || start.elapsed() < self.each {
            busy += f();
            calls += 1;
        }
        self.tracer.end(span);
        self.probes.ops.push(OpTiming {
            name,
            per_call_s: busy.as_secs_f64() / calls as f64,
            calls,
            modeled_s: None,
        });
    }
}

/// Runs every probe against the shard databases `dbs` built from
/// `spec`'s dataset, spending about `budget` in total; each probe is a
/// span under `parent`.
pub fn run(
    spec: &ScenarioSpec,
    dbs: &[Database],
    seed: u64,
    budget: Duration,
    tracer: &mut Tracer,
    parent: SpanId,
) -> Probes {
    let costs = CostModel::standard();
    let secs = |d: SimDuration| d.as_micros() as f64 * 1e-6;
    let map = ShardMap::new(spec.config.n_shards, &spec.workload.dataset);
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x5eed_0f9e_0be5);
    let mut p = Prober {
        tracer,
        parent,
        each: budget / N_OPS,
        probes: Probes::default(),
    };

    // Crypto primitives.
    let buf: Vec<u8> = (0..1024).map(|_| rng.gen::<u64>() as u8).collect();
    let h64 = secs(hash_charge(64, &costs));
    let h1k = secs(hash_charge(1024, &costs));
    p.time("crypto.sha256_64b", Some(h64), |_| {
        black_box(Sha256::digest(black_box(&buf[..64])));
    });
    p.time("crypto.sha256_1kib", Some(h1k), |_| {
        black_box(Sha256::digest(black_box(&buf)));
    });
    p.time("crypto.sha1_1kib", Some(h1k), |_| {
        black_box(Sha1::digest(black_box(&buf)));
    });
    let message = &buf[..128];
    let mut hmac = sdr_crypto::HmacSigner::from_seed_label(seed, b"probe");
    let hmac_key = hmac.public_key();
    let hmac_sig = hmac.sign(message).expect("HMAC signing cannot fail");
    p.time("crypto.hmac_verify", Some(secs(costs.verify)), |_| {
        black_box(hmac_key.verify(black_box(message), &hmac_sig)).expect("valid tag");
    });
    let mut key_seed = [0u8; 32];
    key_seed.copy_from_slice(&buf[..32]);
    let mut mss = MssSigner::generate(key_seed, spec.config.mss_height).expect("valid MSS height");
    let mss_key: PublicKey = mss.public_key();
    let mss_sig = mss.sign(message).expect("fresh MSS key has leaves");
    p.time("crypto.mss_verify", Some(secs(costs.verify)), |_| {
        black_box(mss_key.verify(black_box(message), &mss_sig)).expect("valid signature");
    });

    // Query executor, one shape at a time.  The modeled charge comes
    // from the cost profile each timed call returns.
    for (name, mix) in [
        ("store.exec_filter", only(|m| m.filter = 1)),
        ("store.exec_aggregate", only(|m| m.aggregate = 1)),
        ("store.exec_join", only(|m| m.join = 1)),
        ("store.exec_range", only(|m| m.range = 1)),
        ("store.exec_grep", only(|m| m.grep = 1)),
    ] {
        let queries = draw(&mix, &mut rng, spec);
        let (mut charged, mut n) = (0.0, 0u64);
        p.time(name, None, |i| {
            let q = &queries[i % queries.len()];
            let (result, cost) = execute(&dbs[map.shard_of_query(q)], q).expect("executes");
            charged += secs(query_charge(&cost, black_box(result).size(), &costs));
            n += 1;
        });
        p.probes.ops.last_mut().expect("just timed").modeled_s = Some(charged / n as f64);
    }

    // Proof build and verify: point rows, range scans, stream headers.
    let fold = |depth: usize| secs(hash_charge(64, &costs) * (1 + depth as u64));
    let scan_len = spec.workload.mix.scan_len;
    for (prove, verify, mix) in [
        ("store.prove_row", "store.verify_row", only(|m| m.get = 1)),
        (
            "store.prove_scan",
            "store.verify_scan",
            only(|m| {
                m.scan = 1;
                m.scan_len = scan_len;
            }),
        ),
    ] {
        let queries = draw(&mix, &mut rng, spec);
        let cases: Vec<_> = queries
            .iter()
            .map(|q| {
                let db = &dbs[map.shard_of_query(q)];
                let proof = db
                    .prove_query(q)
                    .expect("static query")
                    .expect("table exists");
                let (result, _) = execute(db, q).expect("executes");
                (db, q, proof, result, db.state_digest())
            })
            .collect();
        let prove_model = mean(cases.iter().map(|c| fold(c.2.depth())));
        let verify_model = mean(
            cases
                .iter()
                .map(|c| fold(c.2.depth()) + secs(hash_charge(c.3.size(), &costs))),
        );
        p.time(prove, Some(prove_model), |i| {
            let (db, q, ..) = &cases[i % cases.len()];
            black_box(db.prove_query(q));
        });
        p.time(verify, Some(verify_model), |i| {
            let (db, q, proof, result, digest) = &cases[i % cases.len()];
            proof
                .verify_result(digest, db.version(), q, result)
                .expect("honest proofs verify");
        });
    }
    let streams: Vec<_> = draw(&only(|m| m.stream = 1), &mut rng, spec)
        .into_iter()
        .map(|q| {
            let Query::ReadFileRange { path, offset, len } = q else {
                unreachable!("the stream-only mix draws file ranges")
            };
            let db = &dbs[map.shard_of_path(&path)];
            let proof = db.prove_stream(&path, offset, len);
            (db, path, offset, len, proof, db.state_digest())
        })
        .collect();
    let stream_model = mean(streams.iter().map(|s| fold(s.4.depth())));
    p.time("store.prove_stream", Some(stream_model), |i| {
        let (db, path, offset, len, ..) = &streams[i % streams.len()];
        black_box(db.prove_stream(path, *offset, *len));
    });
    p.time("store.verify_stream", Some(stream_model), |i| {
        let (db, _, _, _, proof, digest) = &streams[i % streams.len()];
        proof
            .verify_header(digest, db.version())
            .expect("honest headers verify");
    });

    // Writes: apply one sampled write; separately, recompute the state
    // digest after each (untimed) write, as a fresh commit does.
    let writes: Vec<_> = (0..INPUTS_PER_SHAPE)
        .map(|_| {
            let ops = spec.workload.sample_write(&mut rng);
            (map.shard_of_ops(&ops), ops)
        })
        .collect();
    let mut live: Vec<Database> = dbs.to_vec();
    p.time("store.apply_write", Some(secs(costs.write_apply)), |i| {
        let (shard, ops) = &writes[i % writes.len()];
        live[*shard].apply_write(ops).expect("sampled writes apply");
    });
    let mut live: Vec<Database> = dbs.to_vec();
    let mut next = 0usize;
    p.time_part("store.state_digest", || {
        let (shard, ops) = &writes[next % writes.len()];
        live[*shard].apply_write(ops).expect("sampled writes apply");
        next += 1;
        let t = Instant::now();
        black_box(live[*shard].state_digest());
        t.elapsed()
    });
    p.probes
}

/// Host seconds of one signature verification under `scheme`.
pub fn sig_verify_s(probes: &Probes, scheme: SignatureScheme) -> f64 {
    match scheme {
        SignatureScheme::Hmac => probes.per_call("crypto.hmac_verify"),
        SignatureScheme::Mss => probes.per_call("crypto.mss_verify"),
    }
}

fn only(set: impl FnOnce(&mut QueryMix)) -> QueryMix {
    let mut mix = QueryMix {
        get: 0,
        range: 0,
        filter: 0,
        aggregate: 0,
        join: 0,
        grep: 0,
        read_file: 0,
        stream: 0,
        scan: 0,
        scan_len: 0,
    };
    set(&mut mix);
    mix
}

fn draw(mix: &QueryMix, rng: &mut SmallRng, spec: &ScenarioSpec) -> Vec<Query> {
    (0..INPUTS_PER_SHAPE)
        .map(|_| mix.sample(rng, &spec.workload.dataset))
        .collect()
}

fn mean(values: impl Iterator<Item = f64>) -> f64 {
    let (sum, n) = values.fold((0.0, 0usize), |(s, n), v| (s + v, n + 1));
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}
