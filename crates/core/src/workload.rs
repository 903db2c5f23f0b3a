//! Workload generation: read/write mixes, query shapes, diurnal load, and
//! greedy clients.

use crate::dataset::{DatasetSpec, CATEGORIES, LOG_WORDS};
use rand::Rng;
use sdr_sim::{SimDuration, SimTime};
use sdr_store::{Aggregate, CmpOp, Document, Predicate, Query, UpdateOp};
use serde::{FromJson, ToJson};

/// Relative weights of query shapes in the read mix.
#[derive(Clone, Copy, Debug, ToJson, FromJson)]
pub struct QueryMix {
    /// Point reads by primary key.
    pub get: u32,
    /// Primary-key range scans.
    pub range: u32,
    /// Predicate filters (indexed and scanning).
    pub filter: u32,
    /// Aggregations with and without group-by.
    pub aggregate: u32,
    /// Two-table joins.
    pub join: u32,
    /// File greps (the expensive reads).
    pub grep: u32,
    /// Whole-file reads.
    pub read_file: u32,
    /// Byte-range file reads, streamed chunk-by-chunk on the proof path.
    pub stream: u32,
    /// Proof-verified half-open key scans (`ScanRange`): one
    /// O(log n + k) range proof authenticates the whole answer,
    /// scattered across shards when the range crosses a boundary.
    pub scan: u32,
    /// Rows per sampled `ScanRange` (`0` means 16).
    pub scan_len: u32,
}

impl QueryMix {
    /// A read-mostly catalogue mix: cheap point reads dominate, with a
    /// tail of expensive aggregations and greps.
    pub fn catalogue() -> Self {
        QueryMix {
            get: 50,
            range: 10,
            filter: 15,
            aggregate: 10,
            join: 5,
            grep: 7,
            read_file: 3,
            stream: 0,
            scan: 0,
            scan_len: 0,
        }
    }

    /// A mix dominated by expensive queries (stress for the auditor).
    pub fn heavy() -> Self {
        QueryMix {
            get: 10,
            range: 5,
            filter: 15,
            aggregate: 25,
            join: 15,
            grep: 25,
            read_file: 5,
            stream: 0,
            scan: 0,
            scan_len: 0,
        }
    }

    /// A large-media mix: streamed range reads dominate, point lookups
    /// and greps trail (the `cdn_media` flash-crowd shape).
    pub fn media() -> Self {
        QueryMix {
            get: 20,
            range: 5,
            filter: 5,
            aggregate: 5,
            join: 0,
            grep: 5,
            read_file: 10,
            stream: 50,
            scan: 0,
            scan_len: 0,
        }
    }

    fn total(&self) -> u32 {
        self.get + self.range + self.filter + self.aggregate + self.join + self.grep
            + self.read_file
            + self.stream
            + self.scan
    }

    /// Samples a query against the generated dataset.
    pub fn sample<R: Rng>(&self, rng: &mut R, spec: &DatasetSpec) -> Query {
        let n = spec.n_products.max(1) as u64;
        let mut pick = rng.gen_range(0..self.total());
        let mut take = |w: u32| {
            if pick < w {
                true
            } else {
                pick -= w;
                false
            }
        };
        if take(self.get) {
            Query::GetRow {
                table: "products".into(),
                key: 1 + sample_skewed(rng, spec, n),
            }
        } else if take(self.range) {
            let low = 1 + rng.gen_range(0..n);
            Query::Range {
                table: "products".into(),
                low,
                high: low + rng.gen_range(1..25),
                limit: Some(25),
            }
        } else if take(self.filter) {
            if rng.gen_bool(0.5) {
                // Indexed filter.
                let cat = CATEGORIES[rng.gen_range(0..CATEGORIES.len())];
                Query::Filter {
                    table: "products".into(),
                    predicate: Predicate::eq("category", cat),
                    projection: None,
                    limit: None,
                }
            } else {
                // Scanning filter.
                let floor = rng.gen_range(0..900) as i64;
                Query::Filter {
                    table: "products".into(),
                    predicate: Predicate::cmp("price", CmpOp::Ge, floor)
                        .and(Predicate::cmp("stock", CmpOp::Gt, 0i64)),
                    projection: Some(vec!["name".into(), "price".into()]),
                    limit: Some(50),
                }
            }
        } else if take(self.aggregate) {
            let (agg, group_by) = match rng.gen_range(0..4) {
                0 => (Aggregate::Count, Some("category".to_string())),
                1 => (Aggregate::Avg("price".into()), Some("category".to_string())),
                2 => (Aggregate::Sum("stock".into()), None),
                _ => (Aggregate::Max("price".into()), None),
            };
            Query::Aggregate {
                table: "products".into(),
                predicate: Predicate::True,
                agg,
                group_by,
            }
        } else if take(self.join) {
            // Products carry their key mirrored in the `id` field; reviews
            // reference it via `product_id`.
            Query::Join {
                left: "products".into(),
                right: "reviews".into(),
                left_field: "id".into(),
                right_field: "product_id".into(),
                predicate: Predicate::cmp("r.stars", CmpOp::Ge, 4i64),
                limit: Some(100),
            }
        } else if take(self.grep) {
            let word = LOG_WORDS[rng.gen_range(0..LOG_WORDS.len())];
            Query::Grep {
                pattern: word.to_string(),
                prefix: "/docs".into(),
            }
        } else if take(self.read_file) {
            Query::ReadFile {
                path: format!(
                    "/docs/file-{:03}.log",
                    sample_skewed(rng, spec, spec.n_files.max(1) as u64)
                ),
            }
        } else if take(self.scan) {
            // Half-open primary-key scan, answered under one range proof.
            let len = if self.scan_len == 0 { 16 } else { self.scan_len } as u64;
            let len = len.min(n);
            let start = 1 + sample_skewed(rng, spec, (n - len).max(1));
            Query::ScanRange {
                table: "products".into(),
                start,
                end: start + len,
            }
        } else {
            // Byte-range read somewhere inside the file (generated lines
            // are ~30-40 bytes, so scale the window to the file's shape).
            let approx_len = (spec.lines_per_file.max(1) as u64) * 36;
            let offset = rng.gen_range(0..approx_len.max(2) / 2);
            Query::ReadFileRange {
                path: format!(
                    "/docs/file-{:03}.log",
                    sample_skewed(rng, spec, spec.n_files.max(1) as u64)
                ),
                offset,
                len: rng.gen_range(512..8192),
            }
        }
    }
}

/// Draws an index in `0..n`, biased toward the dataset's hot set: with
/// probability `spec.skew` the draw lands uniformly inside the first
/// `ceil(n × hot_fraction)` entries (at least one), otherwise uniformly
/// over all of `0..n`.  The bias coin is only flipped when `skew > 0`,
/// so legacy workloads (`skew = 0`) consume exactly the pre-skew RNG
/// stream and stay byte-identical.
fn sample_skewed<R: Rng>(rng: &mut R, spec: &DatasetSpec, n: u64) -> u64 {
    if spec.skew > 0.0 && rng.gen::<f64>() < spec.skew {
        let hot = ((n as f64 * spec.hot_fraction).ceil() as u64).clamp(1, n);
        rng.gen_range(0..hot)
    } else {
        rng.gen_range(0..n)
    }
}

/// Diurnal load modulation (Section 3.4's "daily peak patterns … few
/// requests at 3AM").
#[derive(Clone, Copy, Debug, ToJson, FromJson)]
pub struct DiurnalPattern {
    /// Length of one simulated "day".
    pub period: SimDuration,
    /// Trough rate as a fraction of peak (e.g. 0.1 = night is 10% of peak).
    pub trough: f64,
}

impl DiurnalPattern {
    /// Rate multiplier at time `t` (1.0 at midday peak, `trough` at t=0).
    pub fn multiplier(&self, t: SimTime) -> f64 {
        let phase = (t.as_micros() % self.period.as_micros()) as f64
            / self.period.as_micros() as f64;
        let wave = 0.5 - 0.5 * (2.0 * std::f64::consts::PI * phase).cos();
        self.trough + (1.0 - self.trough) * wave
    }
}

/// Client session churn: participating clients alternate between an
/// online session and an offline gap, redoing the setup phase (directory
/// lookup + slave assignment) on every rejoin — the membership stress of
/// a planet-scale CDN where edge clients come and go all day.
#[derive(Clone, Copy, Debug, ToJson, FromJson)]
pub struct ChurnModel {
    /// Mean online session length (actual sessions are uniform in
    /// `[0.5, 1.5] × session`).
    pub session: SimDuration,
    /// Mean offline gap between sessions (same uniform spread).
    pub offline: SimDuration,
    /// Fraction of clients that churn at all; the rest stay connected
    /// for the whole run.
    pub fraction: f64,
}

impl ChurnModel {
    /// Samples one online-session length.
    pub fn sample_session<R: Rng>(&self, rng: &mut R) -> SimDuration {
        sample_uniform_spread(rng, self.session)
    }

    /// Samples one offline gap.
    pub fn sample_offline<R: Rng>(&self, rng: &mut R) -> SimDuration {
        sample_uniform_spread(rng, self.offline)
    }
}

/// Uniform draw in `[0.5, 1.5] × mean`, floored at 1ms so a zero-mean
/// config cannot schedule a same-instant churn flip loop.
fn sample_uniform_spread<R: Rng>(rng: &mut R, mean: SimDuration) -> SimDuration {
    let us = mean.as_micros().max(2_000);
    SimDuration::from_micros(rng.gen_range(us / 2..=us + us / 2).max(1_000))
}

/// Per-run workload description.
#[derive(Clone, Debug, ToJson, FromJson)]
pub struct Workload {
    /// Dataset shape (queries are sampled against it).
    pub dataset: DatasetSpec,
    /// Mean reads per second per client (peak rate when diurnal).
    pub reads_per_sec: f64,
    /// Mean writes per second per writer client (a system offers
    /// `writes_per_sec` × the number of writers).
    pub writes_per_sec: f64,
    /// Fraction of clients that issue writes.
    pub writer_fraction: f64,
    /// Query shape mix.
    pub mix: QueryMix,
    /// Optional diurnal modulation of read rate.
    pub diurnal: Option<DiurnalPattern>,
    /// Per-client double-check-probability overrides: `(client_index,
    /// probability)` — used to model greedy clients (Section 3.3).
    pub greedy_clients: Vec<(usize, f64)>,
    /// Per-client `max_latency` overrides (Section 3.2's client-chosen
    /// freshness): `(client_index, bound)`.
    pub client_max_latency: Vec<(usize, SimDuration)>,
    /// Optional client session churn (join/leave cycling).
    pub churn: Option<ChurnModel>,
}

impl Default for Workload {
    fn default() -> Self {
        Workload {
            dataset: DatasetSpec::default(),
            reads_per_sec: 4.0,
            writes_per_sec: 0.2,
            writer_fraction: 0.25,
            mix: QueryMix::catalogue(),
            diurnal: None,
            greedy_clients: Vec::new(),
            client_max_latency: Vec::new(),
            churn: None,
        }
    }
}

impl Workload {
    /// Sanity-checks the workload, returning a description of the first
    /// problem found.  Runs at spec/config validation time so a bad
    /// `writer_fraction` can no longer make the writer count overshoot
    /// `n_clients` via the builder's `ceil`.
    pub fn validate(&self) -> Result<(), String> {
        if !(0.0..=1.0).contains(&self.writer_fraction) {
            return Err(format!(
                "workload.writer_fraction must be in [0,1], got {}",
                self.writer_fraction
            ));
        }
        if !self.reads_per_sec.is_finite() || self.reads_per_sec < 0.0 {
            return Err(format!(
                "workload.reads_per_sec must be finite and >= 0, got {}",
                self.reads_per_sec
            ));
        }
        if !self.writes_per_sec.is_finite() || self.writes_per_sec < 0.0 {
            return Err(format!(
                "workload.writes_per_sec must be finite and >= 0, got {}",
                self.writes_per_sec
            ));
        }
        if !(0.0..=1.0).contains(&self.dataset.skew) {
            return Err(format!(
                "workload.dataset.skew must be in [0,1], got {}",
                self.dataset.skew
            ));
        }
        if !(0.0..=1.0).contains(&self.dataset.hot_fraction) {
            return Err(format!(
                "workload.dataset.hot_fraction must be in [0,1], got {}",
                self.dataset.hot_fraction
            ));
        }
        for &(_, p) in &self.greedy_clients {
            if !(0.0..=1.0).contains(&p) {
                return Err(format!(
                    "workload.greedy_clients: probability must be in [0,1], got {p}"
                ));
            }
        }
        if let Some(c) = &self.churn {
            if !(0.0..=1.0).contains(&c.fraction) {
                return Err(format!(
                    "workload.churn.fraction must be in [0,1], got {}",
                    c.fraction
                ));
            }
            if c.session.as_micros() == 0 || c.offline.as_micros() == 0 {
                return Err("workload.churn: session and offline must be > 0".into());
            }
        }
        Ok(())
    }

    /// Samples an exponential inter-arrival gap for rate `per_sec`
    /// (modulated by the diurnal pattern at time `now`).
    pub fn read_gap<R: Rng>(&self, rng: &mut R, now: SimTime) -> SimDuration {
        let mut rate = self.reads_per_sec;
        if let Some(d) = &self.diurnal {
            rate *= d.multiplier(now).max(1e-3);
        }
        sample_exp_gap(rng, rate)
    }

    /// Samples a write inter-arrival gap for one writer client.
    pub fn write_gap<R: Rng>(&self, rng: &mut R) -> SimDuration {
        sample_exp_gap(rng, self.writes_per_sec)
    }

    /// Samples a write operation batch (small catalogue touch-ups).
    pub fn sample_write<R: Rng>(&self, rng: &mut R) -> Vec<UpdateOp> {
        let n = self.dataset.n_products.max(1) as u64;
        match rng.gen_range(0..3) {
            0 => vec![UpdateOp::Update {
                table: "products".into(),
                key: 1 + rng.gen_range(0..n),
                changes: Document::new().with("price", rng.gen_range(5..1000) as i64),
            }],
            1 => vec![UpdateOp::Update {
                table: "products".into(),
                key: 1 + rng.gen_range(0..n),
                changes: Document::new().with("stock", rng.gen_range(0..200) as i64),
            }],
            _ => vec![UpdateOp::AppendFile {
                path: format!(
                    "/docs/file-{:03}.log",
                    rng.gen_range(0..self.dataset.n_files.max(1))
                ),
                contents: format!("entry upd {} code={:04}\n", "restock", rng.gen_range(0..10_000)),
            }],
        }
    }
}

fn sample_exp_gap<R: Rng>(rng: &mut R, rate_per_sec: f64) -> SimDuration {
    if rate_per_sec <= 0.0 {
        return SimDuration::from_secs(3_600);
    }
    let u: f64 = rng.gen_range(f64::EPSILON..1.0);
    let secs = -u.ln() / rate_per_sec;
    SimDuration::from_micros((secs * 1e6).min(3.6e9) as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn mix_samples_every_shape() {
        let mix = QueryMix::catalogue();
        let spec = DatasetSpec::default();
        let mut rng = SmallRng::seed_from_u64(1);
        let mut kinds = std::collections::HashSet::new();
        for _ in 0..500 {
            kinds.insert(mix.sample(&mut rng, &spec).kind());
        }
        for k in ["get", "range", "filter", "aggregate", "grep", "read_file"] {
            assert!(kinds.contains(k), "missing {k}");
        }
    }

    #[test]
    fn media_mix_samples_streams() {
        let mix = QueryMix::media();
        let spec = DatasetSpec::default();
        let mut rng = SmallRng::seed_from_u64(9);
        let mut streams = 0;
        for _ in 0..400 {
            let q = mix.sample(&mut rng, &spec);
            if let Query::ReadFileRange { path, len, .. } = &q {
                assert!(path.starts_with("/docs/"));
                assert!(*len >= 512);
                streams += 1;
            }
        }
        // stream weight is 50/100: roughly half the samples.
        assert!((100..300).contains(&streams), "streams {streams}");
    }

    #[test]
    fn zero_skew_is_byte_identical_to_legacy_sampler() {
        // The skew coin must not be flipped at skew = 0: the same seed
        // yields the same query stream as a spec without the knob.
        let mix = QueryMix::catalogue();
        let plain = DatasetSpec::default();
        assert_eq!(plain.skew, 0.0);
        let hot_but_off = DatasetSpec {
            hot_fraction: 0.5,
            ..plain
        };
        let draw = |spec: &DatasetSpec| {
            let mut rng = SmallRng::seed_from_u64(11);
            (0..200).map(|_| mix.sample(&mut rng, spec)).collect::<Vec<_>>()
        };
        assert_eq!(draw(&plain), draw(&hot_but_off));
    }

    #[test]
    fn high_skew_concentrates_point_reads() {
        let mix = QueryMix {
            get: 100,
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
        let spec = DatasetSpec {
            n_products: 10_000,
            hot_fraction: 0.001, // 10-key hot set
            skew: 0.95,
            ..DatasetSpec::default()
        };
        let mut rng = SmallRng::seed_from_u64(5);
        let mut hot = 0;
        for _ in 0..1_000 {
            match mix.sample(&mut rng, &spec) {
                Query::GetRow { key, .. } => {
                    if key <= 10 {
                        hot += 1;
                    }
                }
                q => panic!("unexpected {q:?}"),
            }
        }
        assert!(hot > 900, "hot draws {hot}/1000 at skew 0.95");
    }

    #[test]
    fn skew_bounds_are_validated() {
        for (skew, hot) in [(1.5, 0.01), (-0.1, 0.01), (0.5, 2.0)] {
            let w = Workload {
                dataset: DatasetSpec {
                    skew,
                    hot_fraction: hot,
                    ..DatasetSpec::default()
                },
                ..Workload::default()
            };
            assert!(w.validate().is_err(), "skew {skew} hot {hot}");
        }
    }

    #[test]
    fn diurnal_trough_and_peak() {
        let d = DiurnalPattern {
            period: SimDuration::from_secs(100),
            trough: 0.1,
        };
        let at = |s| d.multiplier(SimTime::from_secs(s));
        assert!((at(0) - 0.1).abs() < 1e-9);
        assert!((at(50) - 1.0).abs() < 1e-9);
        assert!(at(25) > 0.1 && at(25) < 1.0);
        // Periodicity.
        assert!((at(0) - at(100)).abs() < 1e-9);
    }

    #[test]
    fn exp_gap_mean_close() {
        let mut rng = SmallRng::seed_from_u64(2);
        let w = Workload {
            reads_per_sec: 10.0,
            ..Workload::default()
        };
        let n = 20_000;
        let total: u64 = (0..n)
            .map(|_| w.read_gap(&mut rng, SimTime::ZERO).as_micros())
            .sum();
        let mean_us = total as f64 / n as f64;
        assert!((80_000.0..120_000.0).contains(&mean_us), "mean {mean_us}");
    }

    #[test]
    fn zero_rate_yields_huge_gap() {
        let mut rng = SmallRng::seed_from_u64(3);
        let w = Workload {
            writes_per_sec: 0.0,
            ..Workload::default()
        };
        assert!(w.write_gap(&mut rng) >= SimDuration::from_secs(3_600));
    }

    #[test]
    fn writer_fraction_bounds_are_validated() {
        let ok = Workload::default();
        assert!(ok.validate().is_ok());
        for bad in [-0.1, 1.5, f64::NAN] {
            let w = Workload {
                writer_fraction: bad,
                ..Workload::default()
            };
            let err = w.validate().unwrap_err();
            assert!(err.contains("writer_fraction"), "{err}");
        }
        let w = Workload {
            reads_per_sec: f64::INFINITY,
            ..Workload::default()
        };
        assert!(w.validate().is_err());
    }

    #[test]
    fn writes_are_valid_ops() {
        let mut rng = SmallRng::seed_from_u64(4);
        let w = Workload::default();
        let mut db = w.dataset.build();
        for _ in 0..50 {
            let ops = w.sample_write(&mut rng);
            db.apply_write(&ops).unwrap();
        }
    }
}
