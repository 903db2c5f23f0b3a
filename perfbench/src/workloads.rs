//! The benchmark's three workloads, each a [`ScenarioSpec`] run through
//! the public `sdr-core` API.
//!
//! * `hot_read` — the registry's `flash_crowd` at skew 0.99: the hot-read
//!   caches and the simulator at its highest event rate (a delivery to a
//!   busy slave is re-queued every time that slave's CPU frees).
//! * `churn_catalog` — the registry's `churn_100k` unchanged: the largest
//!   set-up and memory, the query executor on the pledge path, and the
//!   directory and certificate paths on every rejoin.
//! * `write_scan` — defined here: saturating batched writes beside
//!   proof-only range scans, streams and gets, with one lying slave.
//!   Every commit wipes the slave reply caches, so every read pays prove
//!   and verify; it has no computed queries and little busy-node
//!   re-delivery, so it is the control for optimisations aimed at the
//!   other two.

use sdr_core::dataset::DatasetSpec;
use sdr_core::scenario::{registry, BehaviorSpec, Grid, Param};
use sdr_core::{QueryMix, ScenarioSpec, SlaveBehavior, SystemConfig, Workload as Load};
use sdr_sim::SimDuration;

/// One named benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Flash crowd on eight hot keys (reply caches, busy-node re-delivery).
    HotRead,
    /// Population-scale churn over a 100k-row catalogue (executor, set-up).
    ChurnCatalog,
    /// Batched writes beside proof-verified scans (prove + verify).
    WriteScan,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] = [
        Workload::HotRead,
        Workload::ChurnCatalog,
        Workload::WriteScan,
    ];

    /// The workload's name on the command line and in reports.
    pub fn name(self) -> &'static str {
        match self {
            Workload::HotRead => "hot_read",
            Workload::ChurnCatalog => "churn_catalog",
            Workload::WriteScan => "write_scan",
        }
    }

    /// Parses a command-line workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Simulated time one world runs: long enough that the pooled read
    /// p99 has at least ten samples beyond it, short enough that a run
    /// fits every world plus one determinism re-run.
    pub fn sim_duration(self) -> SimDuration {
        match self {
            Workload::HotRead => SimDuration::from_secs(2),
            Workload::ChurnCatalog => SimDuration::from_secs(10),
            Workload::WriteScan => SimDuration::from_secs(8),
        }
    }

    /// Independent worlds one untraced run measures.  Per-seed variation
    /// (which replica the expensive queries queue on, how the crowd
    /// lands) is large on a busy deployment, so each run pools several
    /// worlds drawn from its seed.
    pub fn worlds(self) -> u64 {
        match self {
            Workload::HotRead => 4,
            Workload::ChurnCatalog => 2,
            Workload::WriteScan => 3,
        }
    }

    /// The spec of world `world` for benchmark seed `seed`: the world
    /// seed and the dataset seed are both derived from the pair, so the
    /// same seed gives the same datasets and request streams.
    pub fn spec(self, seed: u64, world: u64) -> ScenarioSpec {
        let seed = mix(mix(seed, 0), world);
        let mut spec = match self {
            Workload::HotRead => {
                let mut spec = registry::lookup("flash_crowd").expect("flash_crowd is registered");
                Param::Skew
                    .apply(&mut spec, 0.99)
                    .expect("flash_crowd has a dataset skew");
                spec
            }
            Workload::ChurnCatalog => {
                registry::lookup("churn_100k").expect("churn_100k is registered")
            }
            Workload::WriteScan => write_scan(),
        };
        spec.grid = Grid::none();
        spec.duration = self.sim_duration();
        spec.checkpoints.clear();
        spec.config.seed = mix(spec.config.seed, seed);
        spec.workload.dataset.seed = mix(spec.workload.dataset.seed, seed);
        spec.seeds = vec![spec.config.seed];
        spec
    }
}

/// SplitMix64 finaliser over `base ^ seed`, so neighbouring seeds draw
/// unrelated worlds.
fn mix(base: u64, seed: u64) -> u64 {
    let mut z = (base ^ seed).wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Lines per generated file for ~1 MiB files (generated lines average
/// ~36 bytes).
const MIB_FILE_LINES: usize = 29_000;

fn write_scan() -> ScenarioSpec {
    let mut spec = ScenarioSpec::new(
        "write_scan",
        "Saturating batched writes beside proof-only range scans, streams \
         and gets on two shards, with one consistently lying slave",
        SystemConfig {
            n_shards: 2,
            n_masters: 3,
            n_slaves: 3,
            n_clients: 64,
            max_latency: SimDuration::from_millis(1_000),
            keepalive_period: SimDuration::from_millis(250),
            max_write_batch: 8,
            audit_fraction: 0.25,
            seed: 30_011,
            ..SystemConfig::default()
        },
    );
    spec.behaviors = BehaviorSpec::with_overrides(vec![(
        1,
        SlaveBehavior::ConsistentLiar {
            prob: 0.1,
            collude: false,
        },
    )]);
    spec.workload = Load {
        dataset: DatasetSpec {
            n_products: 20_000,
            n_reviews: 2_000,
            n_files: 8,
            lines_per_file: MIB_FILE_LINES,
            shared_block_lines: 0,
            hot_fraction: 0.0,
            skew: 0.0,
            seed: 30_011,
        },
        reads_per_sec: 4.0,
        writes_per_sec: 20.0,
        writer_fraction: 0.03,
        mix: QueryMix {
            get: 20,
            range: 0,
            filter: 0,
            aggregate: 0,
            join: 0,
            grep: 0,
            read_file: 0,
            stream: 20,
            scan: 60,
            scan_len: 64,
        },
        ..Load::default()
    };
    spec
}
