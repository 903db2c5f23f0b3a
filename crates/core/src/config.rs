//! System configuration: every knob the paper names, plus simulation knobs.

use sdr_crypto::SignatureScheme;
use sdr_sim::SimDuration;
use serde::{FromJson, ToJson};

/// Which hash goes into pledge packets.
///
/// The paper specifies SHA-1 [1]; SHA-256 is offered as the modern choice.
/// Either way the protocol logic is identical.
#[derive(Clone, Copy, Debug, PartialEq, Eq, ToJson, FromJson)]
pub enum HashAlgo {
    /// SHA-1 (the paper's choice).
    Sha1,
    /// SHA-256.
    Sha256,
}

/// Security level of a read, for the Section 4 variant.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ReadLevel {
    /// Normal read: slave executes, double-checked with probability `p`.
    Normal,
    /// Security-sensitive read: executed only by the trusted master
    /// ("the probability … can be set to 1, which means execute only on
    /// trusted hosts").
    Sensitive,
}

/// Greedy-client detector configuration (Section 3.3).
#[derive(Clone, Copy, Debug, ToJson, FromJson)]
pub struct GreedyConfig {
    /// Sliding-window length over which double-checks are counted.
    pub window: SimDuration,
    /// A client is suspected greedy when its double-check count exceeds
    /// `factor ×` the expected count (`p ×` its reads in the window).
    pub factor: f64,
    /// Suspicion requires at least this many double-checks in the window
    /// (avoids flagging unlucky low-volume clients).
    pub min_count: u64,
    /// Fraction of a suspected client's double-checks the master ignores
    /// ("enforce fair play by simply ignoring a large fraction of the
    /// double-check requests coming from clients suspected to be greedy").
    pub ignore_fraction: f64,
}

impl Default for GreedyConfig {
    fn default() -> Self {
        GreedyConfig {
            window: SimDuration::from_secs(30),
            factor: 4.0,
            min_count: 12,
            ignore_fraction: 0.9,
        }
    }
}

/// Full system configuration.
#[derive(Clone, Debug, ToJson, FromJson)]
pub struct SystemConfig {
    /// Number of master subgroups, each owning one contiguous shard of
    /// the key/path space with its own write queue, sequencer, digest
    /// stamps, slave set, and elected auditor.  `1` reproduces the
    /// paper's single-group deployment exactly; higher values scale
    /// commit throughput, since the `max_latency` write-spacing rule is
    /// per-queue.
    pub n_shards: usize,
    /// Number of master servers *per shard* (the trusted core).  The
    /// highest-ranked master in each shard's current view is that
    /// shard's elected auditor and holds no slaves.
    pub n_masters: usize,
    /// Number of slave servers *per shard* (assigned round-robin to the
    /// shard's non-auditor masters).
    pub n_slaves: usize,
    /// Number of clients.
    pub n_clients: usize,
    /// The paper's `max_latency`: bound on the inconsistency window, the
    /// minimum spacing between writes, and the pledge freshness horizon.
    pub max_latency: SimDuration,
    /// Period between master keep-alive broadcasts (must be well under
    /// `max_latency` for slaves to stay serviceable).
    pub keepalive_period: SimDuration,
    /// The "double-check" probability `p` (Section 3.3).
    pub double_check_prob: f64,
    /// Fraction of pledges the auditor verifies (1.0 = every read, the
    /// paper's default; lower values model the overload fallback of
    /// Section 3.4).
    pub audit_fraction: f64,
    /// Whether the auditor uses its query-result cache.
    pub auditor_cache: bool,
    /// Capacity of the auditor's result cache.
    pub auditor_cache_capacity: usize,
    /// Maximum virtual CPU the auditor spends per audit slice (bounds how
    /// long its event handler can stay busy between heartbeats).
    pub audit_slice: SimDuration,
    /// Interval between audit slices.
    pub audit_tick: SimDuration,
    /// Client-side read timeout before a retry.
    pub read_timeout: SimDuration,
    /// Retries before the client gives up on a read.
    pub read_retries: u32,
    /// Number of slaves each client reads from (1 = basic protocol;
    /// >1 = the Section 4 replicated-read variant).
    pub read_quorum: usize,
    /// Whether static reads take the authenticated proof path: point
    /// reads (`GetRow`/`ReadFile`), key scans (`ScanRange`) and streamed
    /// file ranges (`ReadFileRange`).  The slave answers with a Merkle
    /// proof against a master-signed state digest, the client verifies
    /// deterministically, and the auditor never sees the read.  When
    /// off, every read goes through pledge + audit.
    pub proof_reads: bool,
    /// Byte budget of each slave's hot-read proof cache: assembled
    /// `ProvenReply` payloads and `StreamProof` headers memoized per
    /// anchor stamp and query (chunk window for streams), and wiped
    /// whenever the replica state or anchor changes.  `0` disables the
    /// cache (every read rebuilds its proof, the pre-cache pipeline).
    pub proof_cache_bytes: usize,
    /// Entries in each client's stamp-verification cache: accepted
    /// `StateDigestStamp` statements remembered by digest so repeat
    /// reads under one anchor skip the signature check.  `0` disables.
    pub stamp_cache_entries: usize,
    /// Entries in each client's verified-certificate set (memoized
    /// `verify_scoped` outcomes).  `0` disables.
    pub cert_cache_entries: usize,
    /// Recheck mode: on every cache hit the host *also* recomputes the
    /// value fresh and compares, counting any divergence in the
    /// `slave.cache_divergence` / `client.cache_divergence` metrics.
    /// Purely a host-side oracle — virtual charges, message bytes, and
    /// the `RunReport` are byte-identical with it on or off.
    pub cache_verify: bool,
    /// Fraction of reads that are security-sensitive (Section 4 variant;
    /// 0.0 = everything normal).
    pub sensitive_fraction: f64,
    /// Greedy-client detection parameters.
    pub greedy: GreedyConfig,
    /// Hash algorithm inside pledges.
    pub pledge_hash: HashAlgo,
    /// Signature scheme for all parties (HMAC stand-in for large sims,
    /// MSS for real end-to-end security).
    pub signer: SignatureScheme,
    /// MSS tree height when `signer == Mss` (2^height signatures/node).
    pub mss_height: u8,
    /// Upper bound on client writes the shard's sequencer packs into one
    /// totally-ordered round.  `1` reproduces the paper's pipeline
    /// exactly — one write, one ordered round, one signed stamp pair per
    /// `max_latency` window.  Higher values amortise the ordering round
    /// and the stamp signatures over the whole batch: the queue still
    /// opens only once per `max_latency`, but drains up to
    /// `max_write_batch` writes as one multi-version commit anchored by
    /// a single [`crate::messages::StateDigestStamp`].
    pub max_write_batch: usize,
    /// Tick period for the masters' broadcast engine.
    pub tob_tick: SimDuration,
    /// Per-version snapshots retained by masters and auditor.
    pub snapshot_capacity: usize,
    /// World seed (drives all randomness).
    pub seed: u64,
}

impl Default for SystemConfig {
    fn default() -> Self {
        SystemConfig {
            n_shards: 1,
            n_masters: 3,
            n_slaves: 6,
            n_clients: 12,
            max_latency: SimDuration::from_millis(2_000),
            keepalive_period: SimDuration::from_millis(500),
            double_check_prob: 0.02,
            audit_fraction: 1.0,
            auditor_cache: true,
            auditor_cache_capacity: 4_096,
            audit_slice: SimDuration::from_millis(20),
            audit_tick: SimDuration::from_millis(25),
            read_timeout: SimDuration::from_millis(1_500),
            read_retries: 3,
            read_quorum: 1,
            proof_reads: true,
            proof_cache_bytes: 1 << 20,
            stamp_cache_entries: 64,
            cert_cache_entries: 256,
            cache_verify: false,
            sensitive_fraction: 0.0,
            greedy: GreedyConfig::default(),
            pledge_hash: HashAlgo::Sha1,
            signer: SignatureScheme::Hmac,
            mss_height: 10,
            max_write_batch: 1,
            tob_tick: SimDuration::from_millis(50),
            snapshot_capacity: 64,
            seed: 42,
        }
    }
}

impl SystemConfig {
    /// Sanity-checks the configuration, returning a description of the
    /// first problem found.
    pub fn validate(&self) -> Result<(), String> {
        if self.n_shards == 0 {
            return Err("need at least 1 shard".into());
        }
        if self.n_masters < 2 {
            return Err("need at least 2 masters per shard (one is the auditor)".into());
        }
        if self.n_slaves == 0 || self.n_clients == 0 {
            return Err("need at least one slave and one client".into());
        }
        if !(0.0..=1.0).contains(&self.double_check_prob) {
            return Err("double_check_prob must be in [0,1]".into());
        }
        if !(0.0..=1.0).contains(&self.audit_fraction) {
            return Err("audit_fraction must be in [0,1]".into());
        }
        if !(0.0..=1.0).contains(&self.sensitive_fraction) {
            return Err("sensitive_fraction must be in [0,1]".into());
        }
        if self.keepalive_period >= self.max_latency {
            return Err("keepalive_period must be below max_latency".into());
        }
        if self.read_quorum == 0 || self.read_quorum > self.n_slaves {
            return Err("read_quorum must be in 1..=n_slaves".into());
        }
        if self.max_write_batch == 0 {
            return Err("max_write_batch must be at least 1".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid() {
        SystemConfig::default().validate().unwrap();
    }

    #[test]
    fn validation_catches_bad_values() {
        let c = SystemConfig {
            n_masters: 1,
            ..SystemConfig::default()
        };
        assert!(c.validate().is_err());

        let c = SystemConfig {
            double_check_prob: 1.5,
            ..SystemConfig::default()
        };
        assert!(c.validate().is_err());

        let c = SystemConfig {
            keepalive_period: SystemConfig::default().max_latency,
            ..SystemConfig::default()
        };
        assert!(c.validate().is_err());

        let c = SystemConfig {
            read_quorum: 99,
            ..SystemConfig::default()
        };
        assert!(c.validate().is_err());

        let c = SystemConfig {
            n_shards: 0,
            ..SystemConfig::default()
        };
        assert!(c.validate().is_err());

        let c = SystemConfig {
            max_write_batch: 0,
            ..SystemConfig::default()
        };
        assert!(c.validate().is_err());
    }
}
